//! Crash-recovery snapshots of a [`SignSession`] and their canonical
//! codecs.
//!
//! A [`SignSnapshot`] holds the session's persistent state in the types the
//! live session keeps it in — the per-request maps and sets, and one
//! [`RequestState`] per coordinated request — so taking a snapshot clones
//! each field and restoring one moves it back.
//!
//! Layout (all integers big-endian, lengths `u32`-prefixed; every map and
//! set in strictly ascending key order, which decoders enforce):
//!
//! ```text
//! sign-snapshot  := id:u64 sid:u64 config share:32B commitment
//!                   group_key:33B rng:u64×4 requests nonces signed
//!                   results exhausted coordinating
//! config         := count:u32 signer:u64 × count threshold:u64
//!                   retry_delay:u64
//! requests       := count:u32 (req:u64 message:bytes) × count
//! nonces         := count:u32 (req:u64 attempt:u32 d:32B e:32B) × count
//! signed         := count:u32 (req:u64 attempt:u32 digest:32B) × count
//! results        := count:u32 (req:u64 signature:65B) × count
//! exhausted      := count:u32 req:u64 × count
//! coordinating   := count:u32 (req:u64 request-state) × count
//! request-state  := attempt:u32 excluded:u64-set quorum:u64-list
//!                   commits:(signer:u64 hiding:33B binding:33B)-map
//!                   partials:(signer:u64 response:32B)-map
//! ```
//!
//! Snapshots are taken only at job-quiescent points
//! ([`SignSession::jobs_idle`]); an in-flight verification is re-created
//! after a restore by the retransmits the recovery procedure provokes, so
//! no job context ever needs to serialise.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dkg_arith::{GroupElement, Scalar};
use dkg_crypto::{NodeId, PublicKey, Signature, TabledKey};
use dkg_poly::{CommitmentMatrix, JobQueue};
use dkg_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};
use rand::rngs::StdRng;

use crate::session::{RequestState, SignSession, TssConfig};

/// Serializable image of a [`SignSession`] at a job-quiescent point.
#[derive(Clone, PartialEq, Eq)]
pub struct SignSnapshot {
    /// The node's identifier.
    pub id: NodeId,
    /// The signing session identifier.
    pub sid: u64,
    /// The signer set, ascending.
    pub signers: Vec<NodeId>,
    /// The reconstruction threshold `t`.
    pub threshold: u64,
    /// The coordinator's per-round retry delay (ms).
    pub retry_delay: u64,
    /// This node's share of the group secret.
    pub share: Scalar,
    /// The DKG's combined commitment matrix.
    pub commitment: Arc<CommitmentMatrix>,
    /// The group public key.
    pub group_key: GroupElement,
    /// The RNG state (xoshiro256** words) — restoring resumes the exact
    /// nonce stream, so a rebooted signer never resamples a nonce it
    /// already committed to.
    pub rng: [u64; 4],
    /// `req → message` for in-flight requests this node has seen.
    pub requests: BTreeMap<u64, Vec<u8>>,
    /// Participant nonce secrets per `(req, attempt)`.
    pub nonces: BTreeMap<(u64, u32), (Scalar, Scalar)>,
    /// Signed package digests per `(req, attempt)`.
    pub signed: BTreeMap<(u64, u32), [u8; 32]>,
    /// Completed requests.
    pub results: BTreeMap<u64, Signature>,
    /// Permanently failed requests.
    pub exhausted: BTreeSet<u64>,
    /// Coordinator state of in-flight requests, by request.
    pub coordinating: BTreeMap<u64, RequestState>,
}

// Holds the share, the nonce secrets and the RNG state (dkg-lint rule R2).
impl std::fmt::Debug for SignSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignSnapshot")
            .field("id", &self.id)
            .field("sid", &self.sid)
            .field("requests", &self.requests.len())
            .field("coordinating", &self.coordinating.len())
            .finish_non_exhaustive()
    }
}

/// Why a [`SignSnapshot`] could not be restored into a [`SignSession`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The snapshot's node id is not a member of its own signer set.
    ForeignNode {
        /// The offending node id.
        node: NodeId,
    },
    /// The snapshot's group key is the identity element, or is not its
    /// commitment matrix's `C_00`.
    InvalidGroupKey,
    /// The snapshot's signer set, threshold or retry delay do not form a
    /// valid [`TssConfig`], or the threshold disagrees with the
    /// commitment matrix.
    InvalidConfig,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::ForeignNode { node } => {
                write!(f, "snapshot node {node} is not in its signer set")
            }
            SnapshotError::InvalidGroupKey => {
                write!(
                    f,
                    "snapshot group key is the identity or not its commitment's"
                )
            }
            SnapshotError::InvalidConfig => {
                write!(f, "snapshot parameters do not form a valid config")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SignSession {
    /// Extracts a serializable snapshot, or `None` while crypto jobs are
    /// queued or in flight (their contexts cannot serialise; persistence
    /// layers snapshot at quiescent points and replay inputs instead).
    pub fn snapshot(&self) -> Option<SignSnapshot> {
        if !self.jobs_idle() {
            return None;
        }
        Some(SignSnapshot {
            id: self.id,
            sid: self.sid,
            signers: self.config.signers().to_vec(),
            threshold: self.config.threshold() as u64,
            retry_delay: self.config.retry_delay(),
            share: self.share,
            commitment: Arc::clone(&self.commitment),
            group_key: self.group_key.key().point(),
            rng: self.rng.state(),
            requests: self.requests.clone(),
            nonces: self.nonces.clone(),
            signed: self.signed.clone(),
            results: self.results.clone(),
            exhausted: self.exhausted.clone(),
            coordinating: self.coordinating.clone(),
        })
    }

    /// Rebuilds a session from a snapshot. The caller follows up with a
    /// [`crate::TssInput::Recover`] (or the engine's recovery pass) to
    /// retransmit in-flight rounds.
    pub fn restore(snapshot: SignSnapshot) -> Result<Self, SnapshotError> {
        let config = TssConfig::new(
            snapshot.signers,
            snapshot.threshold as usize,
            snapshot.retry_delay,
        )
        .ok_or(SnapshotError::InvalidConfig)?;
        if config.threshold() != snapshot.commitment.threshold() {
            return Err(SnapshotError::InvalidConfig);
        }
        if !config.signers().contains(&snapshot.id) {
            return Err(SnapshotError::ForeignNode { node: snapshot.id });
        }
        let group_key = PublicKey::from_point(snapshot.group_key)
            .filter(|key| key.point() == snapshot.commitment.public_key())
            .ok_or(SnapshotError::InvalidGroupKey)?;
        Ok(SignSession {
            id: snapshot.id,
            sid: snapshot.sid,
            config,
            share: snapshot.share,
            commitment: snapshot.commitment,
            group_key: TabledKey::new(group_key),
            rng: StdRng::from_state(snapshot.rng),
            requests: snapshot.requests,
            nonces: snapshot.nonces,
            signed: snapshot.signed,
            results: snapshot.results,
            exhausted: snapshot.exhausted,
            coordinating: snapshot.coordinating,
            jobs: JobQueue::new(),
        })
    }
}

impl WireEncode for RequestState {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u32(self.attempt);
        self.excluded.encode_to(w);
        self.quorum.encode_to(w);
        self.commits.encode_to(w);
        self.partials.encode_to(w);
    }
}

impl WireDecode for RequestState {
    // attempt and four empty-collection length prefixes.
    const MIN_WIRE_LEN: usize = 4 + 4 * 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RequestState {
            attempt: r.u32()?,
            excluded: BTreeSet::decode_from(r)?,
            quorum: Vec::decode_from(r)?,
            commits: BTreeMap::decode_from(r)?,
            partials: BTreeMap::decode_from(r)?,
        })
    }
}

impl WireEncode for SignSnapshot {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.id);
        w.put_u64(self.sid);
        self.signers.encode_to(w);
        w.put_u64(self.threshold);
        w.put_u64(self.retry_delay);
        self.share.encode_to(w);
        self.commitment.encode_to(w);
        self.group_key.encode_to(w);
        for word in self.rng {
            w.put_u64(word);
        }
        self.requests.encode_to(w);
        self.nonces.encode_to(w);
        self.signed.encode_to(w);
        self.results.encode_to(w);
        self.exhausted.encode_to(w);
        self.coordinating.encode_to(w);
    }
}

impl WireDecode for SignSnapshot {
    // Fixed fields plus an empty-list length prefix for each collection.
    const MIN_WIRE_LEN: usize =
        8 + 8 + 4 + 8 + 8 + 32 + CommitmentMatrix::MIN_WIRE_LEN + 33 + 32 + 6 * 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignSnapshot {
            id: r.u64()?,
            sid: r.u64()?,
            signers: Vec::decode_from(r)?,
            threshold: r.u64()?,
            retry_delay: r.u64()?,
            share: Scalar::decode_from(r)?,
            commitment: Arc::decode_from(r)?,
            group_key: GroupElement::decode_from(r)?,
            rng: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            requests: BTreeMap::decode_from(r)?,
            nonces: BTreeMap::decode_from(r)?,
            signed: BTreeMap::decode_from(r)?,
            results: BTreeMap::decode_from(r)?,
            exhausted: BTreeSet::decode_from(r)?,
            coordinating: BTreeMap::decode_from(r)?,
        })
    }
}
