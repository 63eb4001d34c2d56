//! DKG network messages, operator inputs and outputs (Figs. 2 and 3).

use dkg_arith::Scalar;
use dkg_crypto::{Digest, NodeId, Signature};
use dkg_poly::CommitmentMatrix;
use dkg_sim::MessageKind;
use dkg_vss::{ReadyWitness, VssMessage};

/// The set `Q` (or `Q̂`) of dealers whose HybridVSS instances the system
/// agrees to wait for. Stored sorted so that equality and signatures are
/// canonical.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Proposal {
    dealers: Vec<NodeId>,
}

impl Proposal {
    /// Creates a proposal from a set of dealers (sorted and deduplicated).
    pub fn new(mut dealers: Vec<NodeId>) -> Self {
        dealers.sort_unstable();
        dealers.dedup();
        Proposal { dealers }
    }

    /// The dealers in the proposal, in ascending order.
    pub fn dealers(&self) -> &[NodeId] {
        &self.dealers
    }

    /// Number of dealers.
    pub fn len(&self) -> usize {
        self.dealers.len()
    }

    /// Whether the proposal is empty.
    pub fn is_empty(&self) -> bool {
        self.dealers.is_empty()
    }

    /// Canonical byte encoding (used inside signed payloads).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * self.dealers.len());
        for d in &self.dealers {
            out.extend_from_slice(&d.to_be_bytes());
        }
        out
    }
}

/// A node's signature over a DKG agreement payload (`echo`, `ready` or
/// `lead-ch`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SignedVote {
    /// The signer.
    pub node: NodeId,
    /// Schnorr signature over the corresponding payload.
    pub signature: Signature,
}

impl SignedVote {
    /// Wire size of a vote: the signer's id plus its Schnorr signature.
    pub const ENCODED_LEN: usize = 8 + Signature::ENCODED_LEN;
}

/// Transferable evidence that a dealer's HybridVSS instance will complete at
/// every honest finally-up node: `n − t − f` signed VSS `ready` witnesses
/// (the set `R_d` of the extended HybridVSS, §4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DealerProof {
    /// The dealer whose sharing completed.
    pub dealer: NodeId,
    /// Digest of the commitment matrix the witnesses signed.
    pub commitment_digest: Digest,
    /// The signed ready witnesses.
    pub witnesses: Vec<ReadyWitness>,
}

/// The validity evidence attached to a proposal: either the per-dealer ready
/// proofs `R̂` (for a fresh proposal assembled by the leader from its own
/// completed sharings) or the echo / ready certificate `M` for an
/// already-echoed proposal (Fig. 2/3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Justification {
    /// `R̂`: one [`DealerProof`] per dealer in the proposal.
    ReadyProofs(Vec<DealerProof>),
    /// `M` = `⌈(n+t+1)/2⌉` signed `echo` votes for the proposal.
    EchoCertificate(Vec<SignedVote>),
    /// `M` = `t + 1` signed `ready` votes for the proposal.
    ReadyCertificate(Vec<SignedVote>),
}

/// Payload helpers for the signatures exchanged by the agreement protocol.
pub mod payload {
    use super::Proposal;

    /// The byte string signed by a DKG `echo` vote.
    pub fn echo(tau: u64, proposal: &Proposal) -> Vec<u8> {
        build(b"dkg-echo", tau, &proposal.to_bytes())
    }

    /// The byte string signed by a DKG `ready` vote.
    pub fn ready(tau: u64, proposal: &Proposal) -> Vec<u8> {
        build(b"dkg-ready", tau, &proposal.to_bytes())
    }

    /// The byte string signed by a `lead-ch` request for leader rank `rank`.
    pub fn lead_ch(tau: u64, rank: u64) -> Vec<u8> {
        build(b"dkg-lead-ch", tau, &rank.to_be_bytes())
    }

    fn build(tag: &[u8], tau: u64, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(tag.len() + 8 + body.len());
        out.extend_from_slice(tag);
        out.extend_from_slice(&tau.to_be_bytes());
        out.extend_from_slice(body);
        out
    }
}

/// Network messages of the DKG protocol. The `Vss` variant carries the
/// traffic of the `n` parallel HybridVSS instances; the rest implement the
/// leader-based agreement of Figs. 2 and 3.
#[derive(Clone, PartialEq, Debug)]
pub enum DkgMessage {
    /// Embedded HybridVSS message (its session identifies the dealer).
    Vss(VssMessage),
    /// `(L, τ, send, Q, R/M)` — the leader's proposal broadcast. When the
    /// sender became leader through a leader change it attaches the
    /// `n − t − f` signed `lead-ch` votes proving its legitimacy.
    Send {
        /// DKG session counter `τ`.
        tau: u64,
        /// The leader rank (0 = initial leader; incremented by π).
        rank: u64,
        /// The proposed set `Q`.
        proposal: Proposal,
        /// Validity evidence (`R̂` or `M`).
        justification: Justification,
        /// Signed lead-ch votes legitimising a non-initial leader.
        lead_ch_certificate: Vec<SignedVote>,
    },
    /// `(L, τ, echo, Q)signed`.
    Echo {
        /// DKG session counter `τ`.
        tau: u64,
        /// Leader rank this echo refers to.
        rank: u64,
        /// The echoed proposal.
        proposal: Proposal,
        /// The sender's signature over [`payload::echo`].
        signature: Signature,
    },
    /// `(L, τ, ready, Q)signed`.
    Ready {
        /// DKG session counter `τ`.
        tau: u64,
        /// Leader rank this ready refers to.
        rank: u64,
        /// The proposal.
        proposal: Proposal,
        /// The sender's signature over [`payload::ready`].
        signature: Signature,
    },
    /// `(τ, lead-ch, L, Q, R/M)signed` — a request to move to leader rank
    /// `new_rank`, carrying the sender's best known proposal and evidence.
    LeadCh {
        /// DKG session counter `τ`.
        tau: u64,
        /// The requested new leader rank.
        new_rank: u64,
        /// The sender's current `Q` (with `M`) or `Q̂` (with `R̂`), if any.
        proposal: Option<(Proposal, Justification)>,
        /// Signature over [`payload::lead_ch`].
        signature: Signature,
    },
}

impl MessageKind for DkgMessage {
    fn kind(&self) -> &'static str {
        match self {
            DkgMessage::Vss(m) => m.kind(),
            DkgMessage::Send { .. } => "dkg-send",
            DkgMessage::Echo { .. } => "dkg-echo",
            DkgMessage::Ready { .. } => "dkg-ready",
            DkgMessage::LeadCh { .. } => "dkg-lead-ch",
        }
    }
}

/// Operator `in` messages for a DKG node.
#[derive(Clone, Debug, PartialEq)]
pub enum DkgInput {
    /// Start the protocol, contributing a fresh random secret (key
    /// generation, §4).
    Start,
    /// Start the protocol, resharing the given value instead of a random
    /// secret (share renewal §5.2 and node addition §6.2 use this).
    StartReshare {
        /// The value this node reshares (its previous-phase share).
        value: Scalar,
    },
    /// Start the reconstruction protocol for the group secret (used by tests
    /// and by applications that intentionally open the key).
    Reconstruct,
    /// Run the crash-recovery procedure (§5.3): ask peers for
    /// retransmissions of everything addressed to us.
    Recover,
}

/// How the DKG combines the shares of the agreed dealers into the final
/// share (Fig. 2 vs. the share-renewal modification of §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CombineRule {
    /// `s_i = Σ_{P_d ∈ Q} s_{i,d}` — fresh key generation.
    #[default]
    Sum,
    /// `s_i = Σ_{P_d ∈ Q} λ_d^{Q,0} · s_{i,d}` — share renewal (the shares
    /// are interpolated at index 0, preserving the old secret).
    InterpolateAtZero,
}

/// Operator `out` messages.
#[derive(Clone, Debug, PartialEq)]
pub enum DkgOutput {
    /// `(L, τ, DKG-completed, C, s_i)`.
    Completed {
        /// DKG session counter `τ`.
        tau: u64,
        /// The leader rank under which the run completed.
        leader_rank: u64,
        /// The agreed dealer set `Q`.
        dealers: Vec<NodeId>,
        /// The combined commitment matrix `C`; the distributed public key
        /// `g^s` is its `C_{00}` ([`CommitmentMatrix::public_key`]).
        commitment: CommitmentMatrix,
        /// This node's share `s_i`.
        share: Scalar,
    },
    /// The group secret reconstructed by the `Rec` protocol.
    Reconstructed {
        /// DKG session counter `τ`.
        tau: u64,
        /// The reconstructed secret `s`.
        value: Scalar,
    },
    /// The node accepted a new leader (observability for the experiments on
    /// the pessimistic phase).
    LeaderChanged {
        /// DKG session counter `τ`.
        tau: u64,
        /// The new leader rank.
        new_rank: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_arith::PrimeField;
    use dkg_vss::SessionId;
    use dkg_wire::WireEncode;

    #[test]
    fn proposal_is_canonical() {
        let a = Proposal::new(vec![3, 1, 2, 3]);
        let b = Proposal::new(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.dealers(), &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn payloads_are_domain_separated() {
        let p = Proposal::new(vec![1, 2]);
        assert_ne!(payload::echo(0, &p), payload::ready(0, &p));
        assert_ne!(payload::echo(0, &p), payload::echo(1, &p));
        assert_ne!(payload::lead_ch(0, 1), payload::lead_ch(0, 2));
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = Proposal::new(vec![1]);
        let large = Proposal::new((1..=10).collect());
        assert!(large.encoded_len() > small.encoded_len());

        let vss = DkgMessage::Vss(VssMessage::Help {
            session: SessionId::new(1, 0),
        });
        assert_eq!(vss.kind(), "vss-help");
        assert!(vss.encoded_len() > 0);

        let lead_ch = DkgMessage::LeadCh {
            tau: 0,
            new_rank: 1,
            proposal: None,
            signature: sample_signature(),
        };
        assert_eq!(lead_ch.kind(), "dkg-lead-ch");
        let with_proposal = DkgMessage::LeadCh {
            tau: 0,
            new_rank: 1,
            proposal: Some((large.clone(), Justification::EchoCertificate(vec![]))),
            signature: sample_signature(),
        };
        assert!(with_proposal.encoded_len() > lead_ch.encoded_len());
    }

    fn sample_signature() -> Signature {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let key = dkg_crypto::SigningKey::generate(&mut rng);
        key.sign(&mut rng, b"sample")
    }

    #[test]
    fn combine_rule_default_is_sum() {
        assert_eq!(CombineRule::default(), CombineRule::Sum);
        let _ = Scalar::zero(); // silence unused import in some cfgs
    }
}
