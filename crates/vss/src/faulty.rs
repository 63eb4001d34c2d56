//! Byzantine dealer behaviours used for fault-injection testing.
//!
//! The paper's consistency property (Definition 3.1) must hold even when the
//! dealer is one of the `t` corrupted nodes. [`EquivocatingDealer`] deals two
//! *different* polynomials to two halves of the system (a split-brain
//! attempt), so that integration tests and experiment E10 can check that
//! honest nodes either all agree on the same secret or none completes.
//! Withholding dealers are covered on real endpoints by `dkg-adversary`'s
//! `SelectiveSender` and `VoteWithholder`.

use dkg_arith::Scalar;
use dkg_crypto::NodeId;
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_sim::{ActionSink, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::VssConfig;
use crate::messages::{SessionId, VssInput, VssMessage, VssOutput};

/// A dealer that sends shares of two different secrets to two halves of the
/// node set. It never completes the protocol itself.
#[derive(Debug)]
pub struct EquivocatingDealer {
    id: NodeId,
    config: VssConfig,
    session: SessionId,
    rng: StdRng,
    /// The two secrets dealt to the two halves.
    pub secrets: (Scalar, Scalar),
}

impl EquivocatingDealer {
    /// Creates the faulty dealer.
    pub fn new(
        id: NodeId,
        config: VssConfig,
        session: SessionId,
        rng_seed: u64,
        secrets: (Scalar, Scalar),
    ) -> Self {
        EquivocatingDealer {
            id,
            config,
            session,
            rng: StdRng::seed_from_u64(rng_seed),
            secrets,
        }
    }
}

impl Protocol for EquivocatingDealer {
    type Message = VssMessage;
    type Operator = VssInput;
    type Output = VssOutput;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_operator(&mut self, input: VssInput, sink: &mut ActionSink<VssMessage, VssOutput>) {
        let VssInput::Share { .. } = input else {
            return;
        };
        let t = self.config.t;
        let poly_a = SymmetricBivariate::random_with_secret(&mut self.rng, t, self.secrets.0);
        let poly_b = SymmetricBivariate::random_with_secret(&mut self.rng, t, self.secrets.1);
        let commit_a = CommitmentMatrix::commit(&poly_a);
        let commit_b = CommitmentMatrix::commit(&poly_b);
        for (index, &node) in self.config.nodes.clone().iter().enumerate() {
            let (commitment, poly) = if index % 2 == 0 {
                (commit_a.clone(), &poly_a)
            } else {
                (commit_b.clone(), &poly_b)
            };
            sink.send(
                node,
                VssMessage::Send {
                    session: self.session,
                    commitment,
                    row: poly.row(node),
                },
            );
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        _message: VssMessage,
        _sink: &mut ActionSink<VssMessage, VssOutput>,
    ) {
        // Stays silent: contributes nothing to echo/ready quorums.
    }

    fn on_timer(
        &mut self,
        _timer: dkg_sim::TimerId,
        _sink: &mut ActionSink<VssMessage, VssOutput>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_arith::PrimeField;
    use dkg_sim::ActionSink;

    #[test]
    fn equivocating_dealer_sends_two_commitments() {
        let cfg = VssConfig::standard(7, 0).unwrap();
        let mut dealer = EquivocatingDealer::new(
            1,
            cfg,
            SessionId::new(1, 0),
            5,
            (Scalar::from_u64(1), Scalar::from_u64(2)),
        );
        let mut sink = ActionSink::new();
        dealer.on_operator(
            VssInput::Share {
                secret: Scalar::zero(),
            },
            &mut sink,
        );
        assert_eq!(sink.len(), 7);
    }
}
