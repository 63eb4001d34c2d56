//! Proactive security: share renewal and recovery across phases (§5).
//!
//! The paper divides time into *phases* driven by local clock ticks (§5.1):
//! at each tick a node reshares its previous-phase share with HybridVSS
//! (instead of a random value), waits for `t+1` identical ticks before
//! proceeding, and — once the leader-based agreement decides a set `Q` —
//! Lagrange-interpolates the received sub-shares at index 0, so the group
//! secret (and public key) is preserved while every individual share is
//! re-randomised. Old shares are erased, so an adversary that corrupts `t`
//! nodes in one phase and `t` different nodes in the next learns nothing.
//!
//! In this reproduction a phase is one endpoint-network run driven by
//! `dkg_engine::runner::run_renewal_phase`: it seeds every node with its
//! previous share via [`crate::DkgInput::StartReshare`] (the clock tick,
//! with a configurable per-node skew standing in for loosely synchronised
//! local clocks), registers the expected resharing commitments (`g^{s_d}`
//! from the previous phase's commitment matrix) so Byzantine dealers cannot
//! inject a different value, and collects the renewed shares. This module
//! holds the transport-independent parts — [`PhaseState`],
//! [`RenewalOptions`] and the [`plan_renewal`] safeguards — so no driver
//! can diverge on them. Share *recovery* (§5.3) is exercised by crashing
//! nodes mid-phase and issuing [`crate::DkgInput::Recover`]; it rides on
//! the HybridVSS `recover`/`help` machinery.

use std::collections::BTreeMap;

use dkg_arith::{GroupElement, Scalar};
use dkg_crypto::NodeId;
use dkg_poly::CommitmentMatrix;
use dkg_sim::{DelayModel, SimTime};

use crate::runner::SystemSetup;

/// A node's view of the shared key at the end of a phase.
#[derive(Clone, Debug)]
pub struct PhaseState {
    /// The phase counter `τ`.
    pub tau: u64,
    /// The node's share for this phase.
    pub share: Scalar,
    /// The commitment matrix agreed in this phase.
    pub commitment: CommitmentMatrix,
    /// The distributed public key `g^s` (identical across phases).
    pub public_key: GroupElement,
}

/// Options for a renewal phase.
#[derive(Clone, Debug)]
pub struct RenewalOptions {
    /// Network delay model for the phase.
    pub delay: DelayModel,
    /// Maximum local-clock skew between nodes' phase ticks, in milliseconds.
    /// Node `P_i` receives its tick at a pseudo-random offset in
    /// `[0, clock_skew]`.
    pub clock_skew: SimTime,
    /// Nodes that are crashed for the whole phase (they neither reshare nor
    /// receive a renewed share; at most `f` of them keeps the phase live).
    pub crashed: Vec<NodeId>,
}

impl Default for RenewalOptions {
    fn default() -> Self {
        RenewalOptions {
            delay: DelayModel::default(),
            clock_skew: 200,
            crashed: Vec::new(),
        }
    }
}

/// Errors from the renewal driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RenewalError {
    /// A node listed in `previous` is not part of the system.
    UnknownNode(NodeId),
    /// Fewer previous-phase states than `t + 1` were provided, so renewal
    /// cannot preserve the secret.
    NotEnoughShares,
}

impl std::fmt::Display for RenewalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenewalError::UnknownNode(id) => write!(f, "node {id} is not part of the system"),
            RenewalError::NotEnoughShares => {
                write!(f, "at least t + 1 previous-phase shares are required")
            }
        }
    }
}

impl std::error::Error for RenewalError {}

/// The transport-independent plan for a renewal phase: the §5.2 safeguards
/// and tick schedule, shared by every harness that drives a renewal
/// (`dkg_engine::runner::run_renewal_phase`, the fleet's epochs). Keeping
/// this in one place means a future tightening of the safeguards cannot
/// silently diverge between harnesses.
#[derive(Clone, Debug)]
pub struct RenewalPlan {
    /// Expected resharing commitments `g^{s_d}` per dealer: a dealer
    /// resharing anything other than its current share is ignored
    /// ([`crate::DkgNode::set_expected_dealer_commitments`]).
    pub expected_commitments: BTreeMap<NodeId, GroupElement>,
    /// `(node, tick time)` for each participating node: the local clock
    /// ticks at which nodes reshare, with the deterministic pseudo-random
    /// skew derived from the setup seed.
    pub ticks: Vec<(NodeId, SimTime)>,
}

/// Validates a renewal phase's inputs and computes its [`RenewalPlan`].
pub fn plan_renewal(
    setup: &SystemSetup,
    previous: &BTreeMap<NodeId, PhaseState>,
    options: &RenewalOptions,
) -> Result<RenewalPlan, RenewalError> {
    let t = setup.config.t();
    let participating: Vec<NodeId> = previous
        .keys()
        .copied()
        .filter(|n| !options.crashed.contains(n))
        .collect();
    if participating.len() < t + 1 {
        return Err(RenewalError::NotEnoughShares);
    }
    for node in previous.keys() {
        if !setup.config.vss.nodes.contains(node) {
            return Err(RenewalError::UnknownNode(*node));
        }
    }
    let reference = previous
        .values()
        .next()
        .expect("at least one previous state");
    let expected_commitments: BTreeMap<NodeId, GroupElement> = setup
        .config
        .vss
        .nodes
        .iter()
        .map(|&d| (d, reference.commitment.share_commitment(d)))
        .collect();
    let ticks = participating
        .iter()
        .enumerate()
        .map(|(idx, &node)| {
            let tick = if options.clock_skew == 0 {
                0
            } else {
                (setup.seed.wrapping_mul(31).wrapping_add(idx as u64 * 7919)) % options.clock_skew
            };
            (node, tick)
        })
        .collect();
    Ok(RenewalPlan {
        expected_commitments,
        ticks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_arith::PrimeField;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn phase_states(setup: &SystemSetup, nodes: &[NodeId]) -> BTreeMap<NodeId, PhaseState> {
        // Synthesises consistent previous-phase states without running a
        // protocol: the plan only reads shares and the commitment matrix.
        let mut rng = StdRng::seed_from_u64(setup.seed);
        let secret = Scalar::random(&mut rng);
        let poly =
            dkg_poly::SymmetricBivariate::random_with_secret(&mut rng, setup.config.t(), secret);
        let commitment = CommitmentMatrix::commit(&poly);
        nodes
            .iter()
            .map(|&node| {
                (
                    node,
                    PhaseState {
                        tau: 0,
                        share: poly.row(node).constant_term(),
                        commitment: commitment.clone(),
                        public_key: commitment.public_key(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn plan_registers_expected_commitments_for_every_dealer() {
        let setup = SystemSetup::generate(4, 0, 21);
        let previous = phase_states(&setup, &[1, 2, 3, 4]);
        let plan = plan_renewal(&setup, &previous, &RenewalOptions::default()).unwrap();
        assert_eq!(plan.expected_commitments.len(), 4);
        for (&d, expected) in &plan.expected_commitments {
            assert_eq!(*expected, previous[&1].commitment.share_commitment(d));
        }
        assert_eq!(plan.ticks.len(), 4);
        let skew = RenewalOptions::default().clock_skew;
        assert!(plan.ticks.iter().all(|&(_, tick)| tick < skew));
    }

    #[test]
    fn plan_excludes_crashed_nodes_from_ticks() {
        let setup = SystemSetup::generate(7, 1, 23);
        let previous = phase_states(&setup, &[1, 2, 3, 4, 5, 6, 7]);
        let options = RenewalOptions {
            crashed: vec![7],
            ..RenewalOptions::default()
        };
        let plan = plan_renewal(&setup, &previous, &options).unwrap();
        assert!(plan.ticks.iter().all(|&(node, _)| node != 7));
        assert_eq!(plan.ticks.len(), 6);
    }

    #[test]
    fn plan_requires_enough_shares_and_known_nodes() {
        let setup = SystemSetup::generate(4, 0, 24);
        let mut too_few = phase_states(&setup, &[1]);
        assert_eq!(
            plan_renewal(&setup, &too_few, &RenewalOptions::default()).err(),
            Some(RenewalError::NotEnoughShares)
        );
        too_few.extend(phase_states(&setup, &[2, 9]));
        assert_eq!(
            plan_renewal(&setup, &too_few, &RenewalOptions::default()).err(),
            Some(RenewalError::UnknownNode(9))
        );
    }
}
