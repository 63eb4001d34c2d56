//! Endpoint-level persistence: the versioned snapshot envelope and the
//! restore error type.
//!
//! An [`EndpointSnapshot`] is the stable image of everything an
//! [`crate::Endpoint`] hosts: one [`SessionStateSnapshot`] per session
//! ([`DkgSnapshot`], [`VssSnapshot`] plus its signing directory,
//! [`SignSnapshot`], or the [`GroupModNode`] itself), per-session counters
//! and armed timers, and the endpoint's aggregate statistics. The envelope starts
//! with a version byte ([`SNAPSHOT_VERSION`]); decoders reject anything
//! else, so incompatible future formats are safe to deploy incrementally —
//! and every inner field is validated by the same `dkg-wire` codecs that
//! guard network input (curve points, canonical scalars, strict tags).
//!
//! The snapshot is the *compaction* artefact: installing one into a
//! [`dkg_store::Store`] truncates the endpoint's write-ahead log. One is
//! written whenever the session table changes (a session added or evicted)
//! and when the log outgrows its threshold. Restore is snapshot-then-replay
//! — see [`crate::Endpoint::restore`].

use std::collections::BTreeMap;

use dkg_arith::GroupElement;
use dkg_core::group::GroupModNode;
use dkg_core::DkgSnapshot;
use dkg_crypto::NodeId;
use dkg_store::StoreError;
use dkg_tss::SignSnapshot;
use dkg_vss::{SessionId, SnapshotError, VssSnapshot};
use dkg_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};

use crate::endpoint::{EndpointStats, SessionKey, SessionStats};

/// Version byte every endpoint snapshot starts with.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Persistence counters of one endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// WAL frames appended over the endpoint's lifetime.
    pub wal_appended: u64,
    /// WAL frames replayed during restores.
    pub wal_replayed: u64,
    /// Snapshots written (session additions, evictions, compactions).
    pub snapshots_written: u64,
    /// Times this endpoint's state was rebuilt from its store.
    pub recoveries: u64,
    /// Persistence operations that failed (the protocol treats the
    /// affected input as lost — these asynchronous protocols tolerate
    /// message loss — so an unhealthy store degrades, never corrupts).
    pub persist_errors: u64,
}

/// The state of one hosted session inside a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionStateSnapshot {
    /// A DKG session (carries its own key material and directory).
    Dkg(Box<DkgSnapshot>),
    /// A standalone VSS session; the signing directory travels alongside
    /// because [`VssSnapshot`] deliberately elides it.
    Vss {
        /// The state-machine snapshot.
        snapshot: Box<VssSnapshot>,
        /// The signing directory ([`dkg_crypto::KeyDirectory::points`]),
        /// when the extended variant is in use.
        directory: Option<BTreeMap<NodeId, GroupElement>>,
    },
    /// A threshold-signing session.
    Sign(Box<SignSnapshot>),
    /// A §6 group-modification agreement: the machine is its own image.
    Mod(Box<GroupModNode>),
}

/// One hosted session: key, counters, armed timers and machine state.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// The session's routing key.
    pub key: SessionKey,
    /// The session's traffic counters.
    pub stats: SessionStats,
    /// Armed timers `(id, deadline)`.
    pub timers: Vec<(u64, u64)>,
    /// The state machine.
    pub state: SessionStateSnapshot,
}

/// The complete stable image of an [`crate::Endpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointSnapshot {
    /// The node the endpoint speaks for.
    pub id: NodeId,
    /// Aggregate endpoint counters.
    pub stats: EndpointStats,
    /// Persistence counters.
    pub persist: PersistStats,
    /// Every hosted session.
    pub sessions: Vec<SessionSnapshot>,
}

impl EndpointSnapshot {
    /// Encodes the snapshot with its leading version byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.encoded_len());
        out.put_u8(SNAPSHOT_VERSION);
        self.encode_to(&mut out);
        out
    }

    /// Decodes a versioned snapshot, rejecting unknown versions, trailing
    /// bytes and every malformed field with a typed [`WireError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(WireError::UnsupportedVersion { version });
        }
        let snapshot = EndpointSnapshot::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(snapshot)
    }
}

/// Why [`crate::Endpoint::restore`] failed.
#[derive(Clone, PartialEq, Debug)]
pub enum RestoreError {
    /// The store could not be read (or none was configured).
    Store(StoreError),
    /// The snapshot bytes failed codec validation.
    Wire(WireError),
    /// A state machine refused its snapshot.
    Snapshot(SnapshotError),
    /// A signing session refused its snapshot.
    TssSnapshot(dkg_tss::SnapshotError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Store(e) => write!(f, "restore failed reading the store: {e}"),
            RestoreError::Wire(e) => write!(f, "restore failed decoding the snapshot: {e}"),
            RestoreError::Snapshot(e) => write!(f, "restore failed re-injecting state: {e}"),
            RestoreError::TssSnapshot(e) => {
                write!(f, "restore failed re-injecting signing state: {e}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<StoreError> for RestoreError {
    fn from(e: StoreError) -> Self {
        RestoreError::Store(e)
    }
}

impl From<WireError> for RestoreError {
    fn from(e: WireError) -> Self {
        RestoreError::Wire(e)
    }
}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

impl From<dkg_tss::SnapshotError> for RestoreError {
    fn from(e: dkg_tss::SnapshotError) -> Self {
        RestoreError::TssSnapshot(e)
    }
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

impl WireEncode for SessionKey {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            SessionKey::Vss { session } => {
                w.put_u8(0);
                session.encode_to(w);
            }
            SessionKey::Dkg { tau } => {
                w.put_u8(1);
                w.put_u64(*tau);
            }
            SessionKey::Sign { sid } => {
                w.put_u8(2);
                w.put_u64(*sid);
            }
            SessionKey::Mod { era } => {
                w.put_u8(3);
                w.put_u64(*era);
            }
        }
    }
}

impl WireDecode for SessionKey {
    const MIN_WIRE_LEN: usize = 1 + 8;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SessionKey::Vss {
                session: SessionId::decode_from(r)?,
            }),
            1 => Ok(SessionKey::Dkg { tau: r.u64()? }),
            2 => Ok(SessionKey::Sign { sid: r.u64()? }),
            3 => Ok(SessionKey::Mod { era: r.u64()? }),
            tag => Err(WireError::UnknownTag {
                context: "session key",
                tag,
            }),
        }
    }
}

impl WireEncode for SessionStats {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.datagrams_in);
        w.put_u64(self.bytes_in);
        w.put_u64(self.datagrams_out);
        w.put_u64(self.bytes_out);
        w.put_u64(self.rejected);
        w.put_u64(self.events);
        w.put_u64(self.jobs);
        w.put_u64(self.wal_frames);
        self.completed_at.encode_to(w);
    }
}

impl WireDecode for SessionStats {
    const MIN_WIRE_LEN: usize = 8 * 8 + 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SessionStats {
            datagrams_in: r.u64()?,
            bytes_in: r.u64()?,
            datagrams_out: r.u64()?,
            bytes_out: r.u64()?,
            rejected: r.u64()?,
            events: r.u64()?,
            jobs: r.u64()?,
            wal_frames: r.u64()?,
            completed_at: Option::decode_from(r)?,
        })
    }
}

impl WireEncode for EndpointStats {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.rejected);
        w.put_u64(self.evicted);
    }
}

impl WireDecode for EndpointStats {
    const MIN_WIRE_LEN: usize = 16;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EndpointStats {
            rejected: r.u64()?,
            evicted: r.u64()?,
        })
    }
}

impl WireEncode for PersistStats {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.wal_appended);
        w.put_u64(self.wal_replayed);
        w.put_u64(self.snapshots_written);
        w.put_u64(self.recoveries);
        w.put_u64(self.persist_errors);
    }
}

impl WireDecode for PersistStats {
    const MIN_WIRE_LEN: usize = 40;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PersistStats {
            wal_appended: r.u64()?,
            wal_replayed: r.u64()?,
            snapshots_written: r.u64()?,
            recoveries: r.u64()?,
            persist_errors: r.u64()?,
        })
    }
}

impl WireEncode for SessionStateSnapshot {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            SessionStateSnapshot::Dkg(snapshot) => {
                w.put_u8(0);
                snapshot.encode_to(w);
            }
            SessionStateSnapshot::Vss {
                snapshot,
                directory,
            } => {
                w.put_u8(1);
                snapshot.encode_to(w);
                directory.encode_to(w);
            }
            SessionStateSnapshot::Sign(snapshot) => {
                w.put_u8(2);
                snapshot.encode_to(w);
            }
            SessionStateSnapshot::Mod(snapshot) => {
                w.put_u8(3);
                snapshot.encode_to(w);
            }
        }
    }
}

impl WireDecode for SessionStateSnapshot {
    const MIN_WIRE_LEN: usize = 1 + VssSnapshot::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SessionStateSnapshot::Dkg(Box::new(
                DkgSnapshot::decode_from(r)?,
            ))),
            1 => Ok(SessionStateSnapshot::Vss {
                snapshot: Box::new(VssSnapshot::decode_from(r)?),
                directory: Option::decode_from(r)?,
            }),
            2 => Ok(SessionStateSnapshot::Sign(Box::new(
                SignSnapshot::decode_from(r)?,
            ))),
            3 => Ok(SessionStateSnapshot::Mod(Box::new(
                GroupModNode::decode_from(r)?,
            ))),
            tag => Err(WireError::UnknownTag {
                context: "session state snapshot",
                tag,
            }),
        }
    }
}

impl WireEncode for SessionSnapshot {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.key.encode_to(w);
        self.stats.encode_to(w);
        self.timers.encode_to(w);
        self.state.encode_to(w);
    }
}

impl WireDecode for SessionSnapshot {
    const MIN_WIRE_LEN: usize = SessionKey::MIN_WIRE_LEN
        + SessionStats::MIN_WIRE_LEN
        + 4
        + SessionStateSnapshot::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SessionSnapshot {
            key: SessionKey::decode_from(r)?,
            stats: SessionStats::decode_from(r)?,
            timers: Vec::decode_from(r)?,
            state: SessionStateSnapshot::decode_from(r)?,
        })
    }
}

impl WireEncode for EndpointSnapshot {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.id);
        self.stats.encode_to(w);
        self.persist.encode_to(w);
        self.sessions.encode_to(w);
    }
}

impl WireDecode for EndpointSnapshot {
    const MIN_WIRE_LEN: usize = 8 + EndpointStats::MIN_WIRE_LEN + PersistStats::MIN_WIRE_LEN + 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EndpointSnapshot {
            id: r.u64()?,
            stats: EndpointStats::decode_from(r)?,
            persist: PersistStats::decode_from(r)?,
            sessions: Vec::decode_from(r)?,
        })
    }
}
