//! Durable snapshot form of a [`crate::DkgNode`] and its `dkg-wire` codec.
//!
//! The DKG snapshot embeds one [`VssSnapshot`] per dealer (the `n`
//! parallel sharings of §4) plus the agreement-layer state of Fig. 2/3:
//! votes, locks, the leader-change certificate, the recovery outbox and
//! the node's deterministic RNG state. Every field has the type the live
//! node keeps it in — [`CompletedSharing`], vote maps keyed by a
//! proposal's canonical bytes, ordered maps and sets — so taking a
//! snapshot clones each field and restoring one moves it back. The node's
//! key material — its Schnorr signing secret and the public **directory**
//! — is part of the snapshot (the crash-recovery model of §2.2 persists
//! keys on stable storage), and the directory is stored exactly once: the
//! embedded VSS snapshots reference it implicitly and get the shared handle
//! back at [`crate::DkgNode::restore`] time.
//!
//! Like the VSS snapshot, extraction requires a **job-quiescent** machine
//! (no prepared or in-flight crypto jobs anywhere, including inside the
//! embedded instances); the persistence layer re-creates in-flight work by
//! replaying the logged inputs that prepared it.

use std::collections::{BTreeMap, BTreeSet};

use dkg_arith::{GroupElement, Scalar};
use dkg_crypto::{Digest, NodeId, Signature};
use dkg_poly::CommitmentMatrix;
use dkg_sim::DelayFunction;
use dkg_vss::{ReadyWitness, VssConfig, VssSnapshot};
use dkg_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};

use crate::config::DkgConfig;
use crate::messages::{CombineRule, DkgMessage, Justification, Proposal, SignedVote};
use crate::node::DkgResult;

/// A completed embedded sharing.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedSharing {
    /// The agreed commitment matrix of the dealer's sharing.
    pub commitment: CommitmentMatrix,
    /// This node's sub-share from the sharing.
    pub share: Scalar,
    /// Digest of the commitment matrix.
    pub digest: Digest,
    /// The signed ready witnesses frozen at completion.
    pub witnesses: Vec<ReadyWitness>,
}

/// The complete stable image of a [`crate::DkgNode`].
#[derive(Clone, Debug, PartialEq)]
pub struct DkgSnapshot {
    /// The node this state belongs to.
    pub id: NodeId,
    /// The session counter `τ`.
    pub tau: u64,
    /// The static session configuration.
    pub config: DkgConfig,
    /// This node's Schnorr signing secret.
    pub signing_key: Scalar,
    /// The public key directory ([`dkg_crypto::KeyDirectory::points`]),
    /// stored once for the node and all `n` embedded VSS instances.
    pub directory: BTreeMap<NodeId, GroupElement>,
    /// The share-combination rule in effect.
    pub combine: CombineRule,
    /// The node's deterministic RNG state.
    pub rng: [u64; 4],
    /// One embedded VSS snapshot per dealer (signing directory elided —
    /// it is [`DkgSnapshot::directory`]).
    pub vss: BTreeMap<NodeId, VssSnapshot>,
    /// Completed sharings, by dealer.
    pub completed_vss: BTreeMap<NodeId, CompletedSharing>,
    /// `Q̂`: dealers whose sharing finished here, in completion order.
    pub finished_set: Vec<NodeId>,
    /// Renewal safety: expected `g^{s_d}` per dealer.
    pub expected_dealer_keys: BTreeMap<NodeId, GroupElement>,
    /// Whether the protocol was started at this node.
    pub started: bool,
    /// Current leader rank `L`.
    pub leader_rank: u64,
    /// The locked proposal and its certificate, if any.
    pub locked: Option<(Proposal, Justification)>,
    /// Proposals already echoed, keyed by `(rank, proposal bytes)`.
    pub echoed: BTreeSet<(u64, Vec<u8>)>,
    /// Whether this node has sent its `ready` votes.
    pub ready_sent: bool,
    /// `e_Q`: echo votes per proposal key.
    pub echo_votes: BTreeMap<Vec<u8>, BTreeMap<NodeId, Signature>>,
    /// `r_Q`: ready votes per proposal key.
    pub ready_votes: BTreeMap<Vec<u8>, BTreeMap<NodeId, Signature>>,
    /// Proposals seen, by their canonical byte key.
    pub proposals: BTreeMap<Vec<u8>, Proposal>,
    /// `lc_L`: lead-ch votes per requested rank.
    pub lead_ch_votes: BTreeMap<u64, BTreeMap<NodeId, Signature>>,
    /// `lcflag`: whether a lead-ch was sent for the current view.
    pub lc_flag: bool,
    /// Certificate legitimising our current leadership.
    pub lead_ch_certificate: Vec<SignedVote>,
    /// Leader changes observed (drives the growing `delay(t)`).
    pub retries: u32,
    /// The agreed set `Q`, if agreement finished.
    pub agreed: Option<Proposal>,
    /// The final result, if the protocol completed.
    pub completed: Option<DkgResult>,
    /// Whether group-secret reconstruction was started.
    pub reconstruct_started: bool,
    /// Pooled (unverified) group reconstruction shares.
    pub reconstruct_pending: BTreeMap<NodeId, Scalar>,
    /// Verified group reconstruction shares.
    pub reconstruct_verified: BTreeMap<NodeId, Scalar>,
    /// The reconstructed group secret, if `Rec` completed.
    pub reconstructed: Option<Scalar>,
    /// Outgoing agreement messages, by recipient, for recovery.
    pub outbox: BTreeMap<NodeId, Vec<DkgMessage>>,
    /// `c`: DKG-level help responses granted in total.
    pub help_granted_total: u64,
    /// `c_ℓ`: DKG-level help responses granted per requester.
    pub help_granted_per: BTreeMap<NodeId, u64>,
}

impl WireEncode for DkgConfig {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.vss.encode_to(w);
        w.put_u64(self.leader_timeout.base);
        w.put_u64(self.leader_timeout.cap);
    }
}

impl WireDecode for DkgConfig {
    const MIN_WIRE_LEN: usize = VssConfig::MIN_WIRE_LEN + 16;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DkgConfig {
            vss: VssConfig::decode_from(r)?,
            leader_timeout: DelayFunction {
                base: r.u64()?,
                cap: r.u64()?,
            },
        })
    }
}

impl WireEncode for CombineRule {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u8(match self {
            CombineRule::Sum => 0,
            CombineRule::InterpolateAtZero => 1,
        });
    }
}

impl WireDecode for CombineRule {
    const MIN_WIRE_LEN: usize = 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(CombineRule::Sum),
            1 => Ok(CombineRule::InterpolateAtZero),
            tag => Err(WireError::UnknownTag {
                context: "combine rule",
                tag,
            }),
        }
    }
}

impl WireEncode for CompletedSharing {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.commitment.encode_to(w);
        self.share.encode_to(w);
        self.digest.encode_to(w);
        self.witnesses.encode_to(w);
    }
}

impl WireDecode for CompletedSharing {
    const MIN_WIRE_LEN: usize = CommitmentMatrix::MIN_WIRE_LEN + 32 + 32 + 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CompletedSharing {
            commitment: CommitmentMatrix::decode_from(r)?,
            share: Scalar::decode_from(r)?,
            digest: <[u8; 32]>::decode_from(r)?,
            witnesses: Vec::decode_from(r)?,
        })
    }
}

impl WireEncode for DkgResult {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.dealers.encode_to(w);
        self.commitment.encode_to(w);
        self.public_key.encode_to(w);
        self.share.encode_to(w);
        w.put_u64(self.leader_rank);
    }
}

impl WireDecode for DkgResult {
    const MIN_WIRE_LEN: usize = 4 + CommitmentMatrix::MIN_WIRE_LEN + 33 + 32 + 8;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DkgResult {
            dealers: Vec::decode_from(r)?,
            commitment: CommitmentMatrix::decode_from(r)?,
            public_key: GroupElement::decode_from(r)?,
            share: Scalar::decode_from(r)?,
            leader_rank: r.u64()?,
        })
    }
}

impl WireEncode for DkgSnapshot {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.id);
        w.put_u64(self.tau);
        self.config.encode_to(w);
        self.signing_key.encode_to(w);
        self.directory.encode_to(w);
        self.combine.encode_to(w);
        for word in self.rng {
            w.put_u64(word);
        }
        self.vss.encode_to(w);
        self.completed_vss.encode_to(w);
        self.finished_set.encode_to(w);
        self.expected_dealer_keys.encode_to(w);
        self.started.encode_to(w);
        w.put_u64(self.leader_rank);
        self.locked.encode_to(w);
        self.echoed.encode_to(w);
        self.ready_sent.encode_to(w);
        self.echo_votes.encode_to(w);
        self.ready_votes.encode_to(w);
        self.proposals.encode_to(w);
        self.lead_ch_votes.encode_to(w);
        self.lc_flag.encode_to(w);
        self.lead_ch_certificate.encode_to(w);
        w.put_u32(self.retries);
        self.agreed.encode_to(w);
        self.completed.encode_to(w);
        self.reconstruct_started.encode_to(w);
        self.reconstruct_pending.encode_to(w);
        self.reconstruct_verified.encode_to(w);
        self.reconstructed.encode_to(w);
        self.outbox.encode_to(w);
        w.put_u64(self.help_granted_total);
        self.help_granted_per.encode_to(w);
    }
}

impl WireDecode for DkgSnapshot {
    const MIN_WIRE_LEN: usize = 8 + 8 + DkgConfig::MIN_WIRE_LEN + 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DkgSnapshot {
            id: r.u64()?,
            tau: r.u64()?,
            config: DkgConfig::decode_from(r)?,
            signing_key: Scalar::decode_from(r)?,
            directory: BTreeMap::decode_from(r)?,
            combine: CombineRule::decode_from(r)?,
            rng: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            vss: BTreeMap::decode_from(r)?,
            completed_vss: BTreeMap::decode_from(r)?,
            finished_set: Vec::decode_from(r)?,
            expected_dealer_keys: BTreeMap::decode_from(r)?,
            started: bool::decode_from(r)?,
            leader_rank: r.u64()?,
            locked: Option::decode_from(r)?,
            echoed: BTreeSet::decode_from(r)?,
            ready_sent: bool::decode_from(r)?,
            echo_votes: BTreeMap::decode_from(r)?,
            ready_votes: BTreeMap::decode_from(r)?,
            proposals: BTreeMap::decode_from(r)?,
            lead_ch_votes: BTreeMap::decode_from(r)?,
            lc_flag: bool::decode_from(r)?,
            lead_ch_certificate: Vec::decode_from(r)?,
            retries: r.u32()?,
            agreed: Option::decode_from(r)?,
            completed: Option::decode_from(r)?,
            reconstruct_started: bool::decode_from(r)?,
            reconstruct_pending: BTreeMap::decode_from(r)?,
            reconstruct_verified: BTreeMap::decode_from(r)?,
            reconstructed: Option::decode_from(r)?,
            outbox: BTreeMap::decode_from(r)?,
            help_granted_total: r.u64()?,
            help_granted_per: BTreeMap::decode_from(r)?,
        })
    }
}
