//! A single HybridVSS instance as a session of its own: [`VssNode`] is
//! itself a [`dkg_sim::Protocol`], which is how an endpoint hosts the
//! VSS-only experiments (E1–E3) and integration tests.

use dkg_crypto::NodeId;
use dkg_sim::{ActionSink, Protocol};

use crate::messages::{VssInput, VssMessage, VssOutput};
use crate::node::{VssAction, VssNode};

fn forward(actions: Vec<VssAction>, sink: &mut ActionSink<VssMessage, VssOutput>) {
    for action in actions {
        match action {
            VssAction::Send { to, message } => sink.send(to, message),
            VssAction::Output(output) => sink.output(output),
        }
    }
}

impl Protocol for VssNode {
    type Message = VssMessage;
    type Operator = VssInput;
    type Output = VssOutput;

    fn id(&self) -> NodeId {
        VssNode::id(self)
    }

    fn on_operator(&mut self, input: VssInput, sink: &mut ActionSink<VssMessage, VssOutput>) {
        forward(self.handle_input(input), sink);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: VssMessage,
        sink: &mut ActionSink<VssMessage, VssOutput>,
    ) {
        forward(self.handle_message(from, message), sink);
    }

    fn on_timer(
        &mut self,
        _timer: dkg_sim::TimerId,
        _sink: &mut ActionSink<VssMessage, VssOutput>,
    ) {
        // HybridVSS itself uses no timers; timeouts appear only in the DKG's
        // leader-change logic (dkg-core).
    }

    fn on_recover(&mut self, sink: &mut ActionSink<VssMessage, VssOutput>) {
        let mut actions = Vec::new();
        self.recover(&mut actions);
        forward(actions, sink);
    }
}
