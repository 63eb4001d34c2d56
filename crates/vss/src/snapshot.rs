//! Durable snapshot form of a [`crate::VssNode`] and its `dkg-wire` codec.
//!
//! The paper's crash-recovery model (§2.2, §5.3) assumes nodes persist
//! their protocol state to stable storage and resume the same session after
//! a reboot. [`VssSnapshot`] is that stable form: every field of the state
//! machine that is not transient — tallies, commitments, buffered points,
//! the recovery outbox `B`, the help counters and the node's deterministic
//! RNG state — held in the very types the live node keeps it in ([`Tally`],
//! [`PendingPoint`], ordered maps and sets), so taking a snapshot clones
//! each field and restoring one moves it back. It is encoded with the same
//! canonical [`dkg_wire`] codec as the protocol messages, so a snapshot
//! read back from disk is validated field by field (curve points,
//! canonical scalars, strict booleans, strictly ascending map keys) exactly
//! like untrusted network input.
//!
//! Extraction ([`crate::VssNode::snapshot`]) and re-injection
//! ([`crate::VssNode::restore`]) live on the node itself; this module
//! defines the data shape and its encoding. Snapshots are only taken at
//! **job-quiescent** points (no prepared or in-flight [`dkg_poly::CryptoJob`]s):
//! a pending job's context is transient by design, and the persistence
//! layer re-creates such work by replaying the logged inputs that prepared
//! it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dkg_arith::Scalar;
use dkg_crypto::{Digest, NodeId, Signature};
use dkg_poly::{CommitmentMatrix, Univariate};
use dkg_wire::primitives::{decode_map, decode_matrix_resolved, decode_sequence};
use dkg_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};

use crate::config::{CommitmentMode, VssConfig};
use crate::messages::{ReadyWitness, SessionId, VssMessage};

/// Errors raised when re-injecting a snapshot into a state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The snapshot's signing key requires a key directory, but none was
    /// supplied at restore time.
    MissingDirectory,
    /// The persisted signing key is not a valid Schnorr secret.
    InvalidSigningKey,
    /// The snapshot refers to a node outside its own configuration.
    ForeignNode {
        /// The node id carried by the snapshot.
        node: NodeId,
    },
    /// A persisted directory entry is not a valid verification key.
    InvalidDirectoryKey {
        /// The node whose entry failed to validate.
        node: NodeId,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::MissingDirectory => {
                write!(
                    f,
                    "snapshot carries a signing key but no directory was supplied"
                )
            }
            SnapshotError::InvalidSigningKey => write!(f, "persisted signing key is invalid"),
            SnapshotError::ForeignNode { node } => {
                write!(f, "snapshot node {node} is not part of its configuration")
            }
            SnapshotError::InvalidDirectoryKey { node } => {
                write!(f, "persisted directory key for node {node} is invalid")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Per-commitment tallies: the sets `A_C` and counters `e_C`, `r_C` of
/// Fig. 1, tracked separately for every distinct commitment digest (a
/// Byzantine dealer may equivocate).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// `A_C`: verified points `(m, f(m, i))`, keyed by sender.
    pub points: BTreeMap<NodeId, Scalar>,
    /// Senders whose `echo` was processed (first-time guard).
    pub echo_from: BTreeSet<NodeId>,
    /// Senders whose `ready` was processed (first-time guard).
    pub ready_from: BTreeSet<NodeId>,
    /// Senders whose `echo` point verified (`e_C` counts these).
    pub echo_verified: BTreeSet<NodeId>,
    /// Senders whose `ready` point verified (`r_C` counts these).
    pub ready_verified: BTreeSet<NodeId>,
    /// Signed ready witnesses collected (extended variant).
    pub witnesses: Vec<ReadyWitness>,
    /// This node's row polynomial `a_i(y)` under this commitment, once
    /// known.
    pub row: Option<Univariate>,
    /// Whether echoes were already sent for this commitment.
    pub echo_sent: bool,
    /// Whether readies were already sent for this commitment.
    pub ready_sent: bool,
}

/// A point received before the commitment it refers to was known (digest
/// mode only), and the per-point context carried from a point job's
/// prepare stage to its apply stage.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingPoint {
    /// The sender.
    pub from: NodeId,
    /// The claimed point.
    pub point: Scalar,
    /// Whether it arrived in a `ready` (vs `echo`) message.
    pub is_ready: bool,
    /// The ready signature, if the extended variant carried one.
    pub signature: Option<Signature>,
}

/// The complete stable image of a [`crate::VssNode`].
///
/// The signing **directory** is deliberately *not* part of the snapshot:
/// it is shared by every session of a node (and by the `n` embedded
/// instances of a DKG node), so the embedding layer persists it once and
/// re-supplies it to [`crate::VssNode::restore`].
#[derive(Clone, Debug, PartialEq)]
pub struct VssSnapshot {
    /// The node this state belongs to.
    pub id: NodeId,
    /// The session `(P_d, τ)`.
    pub session: SessionId,
    /// The static session configuration.
    pub config: VssConfig,
    /// The node's deterministic RNG state.
    pub rng: [u64; 4],
    /// The node's Schnorr signing secret (extended variant only).
    pub signing_key: Option<Scalar>,
    /// Whether the dealer's `send` was already processed.
    pub send_handled: bool,
    /// Per-commitment tallies, by digest.
    pub tallies: BTreeMap<Digest, Tally>,
    /// Fully known commitment matrices, by digest (the key is the SHA-256
    /// of the matrix's point bytes). Shared with the inline commitments of
    /// [`VssSnapshot::outbox`]: decoding resolves those against this map,
    /// so a restored node holds each matrix once, as the live node did.
    pub commitments: BTreeMap<Digest, Arc<CommitmentMatrix>>,
    /// Points buffered until their commitment is known, by digest.
    pub pending: BTreeMap<Digest, Vec<PendingPoint>>,
    /// The sharing result, if completed.
    pub completed: Option<(Arc<CommitmentMatrix>, Scalar)>,
    /// The ready witnesses frozen at completion.
    pub completed_witnesses: Vec<ReadyWitness>,
    /// Whether reconstruction was started at this node.
    pub reconstruct_started: bool,
    /// Pooled (unverified) reconstruction shares.
    pub reconstruct_pending: BTreeMap<NodeId, Scalar>,
    /// Verified reconstruction shares.
    pub reconstruct_verified: BTreeMap<NodeId, Scalar>,
    /// The reconstructed secret, if `Rec` completed.
    pub reconstructed: Option<Scalar>,
    /// `B`: every sent message, by recipient, for recovery retransmission.
    pub outbox: BTreeMap<NodeId, Vec<VssMessage>>,
    /// `c`: total help responses granted.
    pub help_granted_total: u64,
    /// `c_ℓ`: help responses granted per requester.
    pub help_granted_per: BTreeMap<NodeId, u64>,
}

impl WireEncode for VssConfig {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.nodes.encode_to(w);
        w.put_u64(self.t as u64);
        w.put_u64(self.f as u64);
        w.put_u64(self.d_max);
        w.put_u8(match self.mode {
            CommitmentMode::Full => 0,
            CommitmentMode::Digest => 1,
        });
    }
}

impl WireDecode for VssConfig {
    const MIN_WIRE_LEN: usize = 4 + 8 + 8 + 8 + 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nodes = Vec::<NodeId>::decode_from(r)?;
        let t = r.u64()? as usize;
        let f = r.u64()? as usize;
        let d_max = r.u64()?;
        let mode = match r.u8()? {
            0 => CommitmentMode::Full,
            1 => CommitmentMode::Digest,
            tag => {
                return Err(WireError::UnknownTag {
                    context: "commitment mode",
                    tag,
                })
            }
        };
        // Re-run the constructor's validation: a decoded configuration obeys
        // the same resilience bound as a constructed one.
        VssConfig::new(nodes, t, f, d_max, mode).map_err(|_| WireError::InvalidValue {
            context: "vss config",
        })
    }
}

impl WireEncode for Tally {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.points.encode_to(w);
        self.echo_from.encode_to(w);
        self.ready_from.encode_to(w);
        self.echo_verified.encode_to(w);
        self.ready_verified.encode_to(w);
        self.witnesses.encode_to(w);
        self.row.encode_to(w);
        self.echo_sent.encode_to(w);
        self.ready_sent.encode_to(w);
    }
}

impl WireDecode for Tally {
    const MIN_WIRE_LEN: usize = 6 * 4 + 3;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Tally {
            points: BTreeMap::decode_from(r)?,
            echo_from: BTreeSet::decode_from(r)?,
            ready_from: BTreeSet::decode_from(r)?,
            echo_verified: BTreeSet::decode_from(r)?,
            ready_verified: BTreeSet::decode_from(r)?,
            witnesses: Vec::decode_from(r)?,
            row: Option::decode_from(r)?,
            echo_sent: bool::decode_from(r)?,
            ready_sent: bool::decode_from(r)?,
        })
    }
}

impl WireEncode for PendingPoint {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.from);
        self.point.encode_to(w);
        self.is_ready.encode_to(w);
        self.signature.encode_to(w);
    }
}

impl WireDecode for PendingPoint {
    const MIN_WIRE_LEN: usize = 8 + 32 + 1 + 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PendingPoint {
            from: r.u64()?,
            point: Scalar::decode_from(r)?,
            is_ready: bool::decode_from(r)?,
            signature: Option::decode_from(r)?,
        })
    }
}

impl WireEncode for VssSnapshot {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.id);
        self.session.encode_to(w);
        self.config.encode_to(w);
        for word in self.rng {
            w.put_u64(word);
        }
        self.signing_key.encode_to(w);
        self.send_handled.encode_to(w);
        self.tallies.encode_to(w);
        self.commitments.encode_to(w);
        self.pending.encode_to(w);
        self.completed.encode_to(w);
        self.completed_witnesses.encode_to(w);
        self.reconstruct_started.encode_to(w);
        self.reconstruct_pending.encode_to(w);
        self.reconstruct_verified.encode_to(w);
        self.reconstructed.encode_to(w);
        self.outbox.encode_to(w);
        w.put_u64(self.help_granted_total);
        self.help_granted_per.encode_to(w);
    }
}

impl WireDecode for VssSnapshot {
    const MIN_WIRE_LEN: usize = 8 + SessionId::ENCODED_LEN + VssConfig::MIN_WIRE_LEN + 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = r.u64()?;
        let session = SessionId::decode_from(r)?;
        let config = VssConfig::decode_from(r)?;
        let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let signing_key = Option::decode_from(r)?;
        let send_handled = bool::decode_from(r)?;
        let tallies = BTreeMap::decode_from(r)?;
        // Each matrix is filed under the digest of its point bytes, which
        // the outbox below resolves its inline matrices by.
        let commitments =
            decode_map(
                r,
                CommitmentMatrix::MIN_WIRE_LEN,
                |digest, r| match decode_matrix_resolved(r, |_| None)? {
                    (matrix, named) if named == *digest => Ok(matrix),
                    _ => Err(WireError::InvalidValue {
                        context: "commitment filed under another digest",
                    }),
                },
            )?;
        let pending = BTreeMap::decode_from(r)?;
        let completed = Option::decode_from(r)?;
        let completed_witnesses = Vec::decode_from(r)?;
        let reconstruct_started = bool::decode_from(r)?;
        let reconstruct_pending = BTreeMap::decode_from(r)?;
        let reconstruct_verified = BTreeMap::decode_from(r)?;
        let reconstructed = Option::decode_from(r)?;
        // `B` repeats each known matrix up to 2n times (full mode); resolve
        // them against the map above instead of decompressing each copy.
        let known = |_: SessionId, digest: &Digest| commitments.get(digest).cloned();
        let outbox = decode_map(r, Vec::<VssMessage>::MIN_WIRE_LEN, |_, r| {
            decode_sequence(r, VssMessage::MIN_WIRE_LEN, |r| {
                VssMessage::decode_known_from(r, &known)
            })
        })?;
        Ok(VssSnapshot {
            id,
            session,
            config,
            rng,
            signing_key,
            send_handled,
            tallies,
            pending,
            completed,
            completed_witnesses,
            reconstruct_started,
            reconstruct_pending,
            reconstruct_verified,
            reconstructed,
            outbox,
            help_granted_total: r.u64()?,
            help_granted_per: BTreeMap::decode_from(r)?,
            commitments,
        })
    }
}
