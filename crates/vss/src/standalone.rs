//! A single HybridVSS instance run directly on the simulator:
//! [`VssNode`] is itself a [`dkg_sim::Protocol`], as used by the VSS-only
//! experiments (E1–E3) and the integration tests.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitmentMode, VssConfig};
    use crate::messages::SessionId;
    use dkg_arith::{PrimeField, Scalar};
    use dkg_sim::{DelayModel, NetworkConfig, Simulation};

    fn build_sim(n: usize, f: usize, mode: CommitmentMode, seed: u64) -> Simulation<VssNode> {
        let t = (n - 2 * f - 1) / 3;
        let cfg = VssConfig::new((1..=n as u64).collect(), t, f, 8, mode).unwrap();
        let session = SessionId::new(1, 0);
        let mut sim = Simulation::new(
            NetworkConfig {
                delay: DelayModel::Uniform { min: 10, max: 80 },
                self_messages_pay_delay: false,
            },
            seed,
        );
        for i in 1..=n as u64 {
            sim.add_node(VssNode::new(
                i,
                cfg.clone(),
                session,
                seed.wrapping_mul(1000).wrapping_add(i),
                None,
            ));
        }
        sim
    }

    #[test]
    fn sharing_over_the_simulated_network() {
        let n = 7;
        let mut sim = build_sim(n, 0, CommitmentMode::Full, 42);
        sim.schedule_operator(
            1,
            VssInput::Share {
                secret: Scalar::from_u64(2024),
            },
            0,
        );
        sim.run();
        let shared: Vec<_> = sim
            .outputs()
            .iter()
            .filter(|o| matches!(o.output, VssOutput::Shared { .. }))
            .collect();
        assert_eq!(shared.len(), n);
        // Message complexity sanity: echo and ready are O(n²).
        assert_eq!(sim.metrics().kind("vss-send").messages, n as u64);
        assert_eq!(sim.metrics().kind("vss-echo").messages, (n * n) as u64);
    }

    #[test]
    fn crash_and_recovery_still_completes() {
        let n = 7;
        let f = 1;
        let mut sim = build_sim(n, f, CommitmentMode::Full, 7);
        sim.schedule_operator(
            1,
            VssInput::Share {
                secret: Scalar::from_u64(5),
            },
            0,
        );
        // Node 7 is crashed for the start of the protocol and recovers later;
        // recovery triggers help requests and retransmissions.
        sim.schedule_crash(7, 0);
        sim.schedule_recover(7, 2_000);
        sim.schedule_operator(7, VssInput::Recover, 2_001);
        sim.run();
        let completed: Vec<NodeId> = sim
            .outputs()
            .iter()
            .filter(|o| matches!(o.output, VssOutput::Shared { .. }))
            .map(|o| o.node)
            .collect();
        // All finally-up nodes (everyone, since 7 recovered) complete.
        assert_eq!(completed.len(), n);
        assert!(sim.metrics().kind("vss-help").messages > 0);
    }
}
