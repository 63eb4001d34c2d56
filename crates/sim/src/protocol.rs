//! The deterministic state-machine interface implemented by every protocol
//! node.
//!
//! §7 of the paper describes the system architecture: "nodes move from one
//! state to another based on messages received. Messages are categorized into
//! three types: operator messages, network messages and timer messages."
//! [`Protocol`] captures exactly that: a node is a pure state machine that
//! consumes operator inputs, network messages and timer expirations and emits
//! [`Action`]s (send a message, produce an `out` message for its operator,
//! start or stop a timer). All I/O, clocks and fault injection live in the
//! driver hosting the node (`dkg-engine`'s `Endpoint`), which makes protocol
//! runs reproducible and lets the experiments count every message and byte.

use crate::wire::MessageKind;
use dkg_crypto::NodeId;

/// Simulated time, in milliseconds since the start of the run.
pub type SimTime = u64;

/// Identifier of a timer registered by a protocol node. Protocols choose
/// their own identifiers; re-registering the same id resets the timer.
pub type TimerId = u64;

/// An effect requested by a protocol state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<M, Out> {
    /// Send `message` to node `to` over the (authenticated) point-to-point
    /// link. Sending to self is allowed and is delivered like any other
    /// message.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        message: M,
    },
    /// Emit an operator `out` message (protocol-level output such as
    /// `shared`, `reconstructed` or `DKG-completed`).
    Output(Out),
    /// Start (or restart) a timer that fires after `delay` milliseconds.
    SetTimer {
        /// Protocol-chosen timer identifier.
        id: TimerId,
        /// Delay until the timer fires.
        delay: SimTime,
    },
    /// Cancel a previously started timer. Cancelling an unknown timer is a
    /// no-op ("stop timer, if any" in Fig. 2).
    CancelTimer {
        /// The timer to cancel.
        id: TimerId,
    },
}

/// Collects the actions a state-machine handler wants to perform.
#[derive(Debug)]
pub struct ActionSink<M, Out> {
    actions: Vec<Action<M, Out>>,
}

impl<M, Out> Default for ActionSink<M, Out> {
    fn default() -> Self {
        ActionSink {
            actions: Vec::new(),
        }
    }
}

impl<M, Out> ActionSink<M, Out> {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message send.
    pub fn send(&mut self, to: NodeId, message: M) {
        self.actions.push(Action::Send { to, message });
    }

    /// Queues the same message to every node in `recipients` (cloning it).
    pub fn send_to_all<I>(&mut self, recipients: I, message: M)
    where
        M: Clone,
        I: IntoIterator<Item = NodeId>,
    {
        for to in recipients {
            self.send(to, message.clone());
        }
    }

    /// Queues an operator output.
    pub fn output(&mut self, out: Out) {
        self.actions.push(Action::Output(out));
    }

    /// Queues a timer start.
    pub fn set_timer(&mut self, id: TimerId, delay: SimTime) {
        self.actions.push(Action::SetTimer { id, delay });
    }

    /// Queues a timer cancellation.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Consumes the sink, returning the queued actions in order.
    pub fn into_actions(self) -> Vec<Action<M, Out>> {
        self.actions
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if no actions were queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A deterministic protocol state machine (one per node).
pub trait Protocol {
    /// Network messages exchanged between nodes.
    type Message: Clone + MessageKind;
    /// Operator `in` messages (e.g. `share`, `reconstruct`, `recover`,
    /// clock ticks).
    type Operator;
    /// Operator `out` messages (e.g. `shared`, `reconstructed`,
    /// `DKG-completed`).
    type Output;

    /// This node's identifier (`P_i`).
    fn id(&self) -> NodeId;

    /// Handles an operator `in` message.
    fn on_operator(
        &mut self,
        input: Self::Operator,
        sink: &mut ActionSink<Self::Message, Self::Output>,
    );

    /// Handles a network message from `from`.
    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        sink: &mut ActionSink<Self::Message, Self::Output>,
    );

    /// Handles the expiration of a timer previously set by this node.
    fn on_timer(&mut self, timer: TimerId, sink: &mut ActionSink<Self::Message, Self::Output>);

    /// Invoked by the driver when the node recovers from a crash, after
    /// its state has been restored from stable storage. The default
    /// implementation does nothing; protocols with a recovery procedure
    /// (HybridVSS's `recover`/`help`) override it.
    fn on_recover(&mut self, sink: &mut ActionSink<Self::Message, Self::Output>) {
        let _ = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping;
    impl MessageKind for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    #[test]
    fn sink_preserves_order() {
        let mut sink: ActionSink<Ping, &'static str> = ActionSink::new();
        sink.send(1, Ping);
        sink.set_timer(7, 100);
        sink.output("done");
        sink.cancel_timer(7);
        assert_eq!(sink.len(), 4);
        assert!(!sink.is_empty());
        let actions = sink.into_actions();
        assert!(matches!(actions[0], Action::Send { to: 1, .. }));
        assert!(matches!(actions[1], Action::SetTimer { id: 7, delay: 100 }));
        assert!(matches!(actions[2], Action::Output("done")));
        assert!(matches!(actions[3], Action::CancelTimer { id: 7 }));
    }

    #[test]
    fn send_to_all_clones_message() {
        let mut sink: ActionSink<Ping, ()> = ActionSink::new();
        sink.send_to_all([1, 2, 3], Ping);
        assert_eq!(sink.len(), 3);
    }
}
