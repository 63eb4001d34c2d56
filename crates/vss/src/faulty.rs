//! Byzantine dealer behaviour used for fault-injection testing.
//!
//! The paper's consistency property (Definition 3.1) must hold even when the
//! dealer is one of the `t` corrupted nodes. [`equivocating_dealing`] deals
//! two *different* polynomials to two halves of the system (a split-brain
//! attempt), so that `tests/integration_faults.rs` can frame the sends as
//! raw datagrams and check that honest nodes either all agree on the same
//! commitment or none completes. Withholding and equivocating dealers
//! inside a full DKG are covered on real endpoints by `dkg-adversary`'s
//! strategies.

use dkg_arith::Scalar;
use dkg_crypto::NodeId;
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::VssConfig;
use crate::messages::{SessionId, VssMessage};

/// The `send` messages of a dealer that shares `secrets.0` with the nodes
/// at even positions of `config.nodes` and `secrets.1` with the rest, one
/// `(recipient, message)` pair per node. The dealer contributes nothing
/// else to the session: it stays out of every echo/ready quorum.
pub fn equivocating_dealing(
    config: &VssConfig,
    session: SessionId,
    rng_seed: u64,
    secrets: (Scalar, Scalar),
) -> Vec<(NodeId, VssMessage)> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let poly_a = SymmetricBivariate::random_with_secret(&mut rng, config.t, secrets.0);
    let poly_b = SymmetricBivariate::random_with_secret(&mut rng, config.t, secrets.1);
    let commit_a = CommitmentMatrix::commit(&poly_a);
    let commit_b = CommitmentMatrix::commit(&poly_b);
    config
        .nodes
        .iter()
        .enumerate()
        .map(|(index, &node)| {
            let (commitment, poly) = if index % 2 == 0 {
                (commit_a.clone(), &poly_a)
            } else {
                (commit_b.clone(), &poly_b)
            };
            let send = VssMessage::Send {
                session,
                commitment,
                row: poly.row(node),
            };
            (node, send)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_arith::PrimeField;
    use std::collections::BTreeSet;

    #[test]
    fn equivocating_dealer_sends_two_commitments() {
        let cfg = VssConfig::standard(7, 0).unwrap();
        let sends = equivocating_dealing(
            &cfg,
            SessionId::new(1, 0),
            5,
            (Scalar::from_u64(1), Scalar::from_u64(2)),
        );
        assert_eq!(sends.len(), 7);
        let commitments: BTreeSet<Vec<u8>> = sends
            .iter()
            .map(|(_, message)| match message {
                VssMessage::Send { commitment, .. } => commitment.to_bytes(),
                other => panic!("a dealing is made of sends, got {other:?}"),
            })
            .collect();
        assert_eq!(commitments.len(), 2);
    }
}
