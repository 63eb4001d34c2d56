//! The sans-I/O protocol endpoint.
//!
//! [`Endpoint`] multiplexes many concurrent DKG and standalone-VSS sessions
//! — keyed by `(SessionId, τ)` — behind a quinn-style poll API. It performs
//! **no I/O and keeps no clock**: the caller feeds it received datagrams and
//! the current time (`handle_datagram`, `handle_timeout`) and drains what
//! the endpoint wants to do (`poll_transmit`, `poll_event`,
//! `poll_timeout`). This makes the same protocol state machines runnable
//! over UDP, TCP, TLS, an async reactor or the deterministic test network in
//! [`crate::net`], without the state machines (which still speak the pure
//! [`dkg_sim::Protocol`] action interface internally) knowing anything about
//! transports.
//!
//! Untrusted input is handled totally: every malformed, wrong-version,
//! oversized, unknown-session or mis-routed datagram is refused with a typed
//! [`Reject`] — never a panic — and counted in the endpoint's statistics.
//! The outbox is bounded: once `outbox_capacity` encoded datagrams are
//! queued, further input is refused with [`Reject::Backpressure`] until the
//! caller drains `poll_transmit`, so a slow transport applies backpressure
//! to the protocol instead of growing memory without limit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dkg_core::group::{GroupModInput, GroupModMessage, GroupModNode, GroupModOutput};
use dkg_core::{DkgInput, DkgMessage, DkgNode, DkgOutput, DkgResult};
use dkg_crypto::NodeId;
use dkg_poly::{CryptoJob, CryptoVerdict};
use dkg_sim::{Action, ActionSink, Protocol, TimerId, WireSize};
use dkg_store::{StoreError, StoreHandle, WalRecord};
use dkg_tss::{SignSession, TssInput, TssMessage, TssOutput};
use dkg_vss::{SessionId, VssInput, VssMessage, VssNode, VssOutput};
use dkg_wire::{
    decode_datagram_versioned, encode_datagram_versioned, Header, ProtocolId, WireDecode,
    WireError, VERSION,
};

use crate::persist::{
    EndpointSnapshot, PersistStats, RestoreError, SessionSnapshot, SessionStateSnapshot,
};

/// Milliseconds on the caller's clock. The endpoint only compares and adds
/// these values; the epoch is the caller's business.
pub type WallClock = u64;

/// Tuning knobs for an [`Endpoint`].
#[derive(Clone, Debug)]
pub struct EndpointConfig {
    /// Maximum number of encoded datagrams the outbox holds before the
    /// endpoint refuses further input with [`Reject::Backpressure`].
    pub outbox_capacity: usize,
    /// Datagrams longer than this are refused before any parsing.
    pub max_datagram_len: usize,
    /// When `true`, the hosted state machines defer their expensive crypto
    /// checks as [`CryptoJob`]s: the caller drains them with
    /// [`Endpoint::poll_jobs`], runs them on an
    /// [`Executor`](crate::executor::Executor) of its choice and feeds the
    /// verdicts back through [`Endpoint::complete_job`]. When `false`
    /// (default), every check runs inline inside `handle_*`, preserving the
    /// fully synchronous behaviour.
    pub defer_crypto: bool,
    /// Stable storage for this endpoint's session state (the paper's
    /// crash-recovery model, §2.2/§5.3). When set, every accepted input is
    /// appended to the store's write-ahead log before it mutates state,
    /// session additions and compactions write full snapshots, and
    /// [`Endpoint::restore`] rebuilds the endpoint after a crash. `None`
    /// (default) keeps the endpoint purely in-memory: a crash loses
    /// everything.
    pub store: Option<StoreHandle>,
    /// WAL size (bytes) past which [`Endpoint::maybe_compact`] folds the
    /// log into a fresh snapshot. Compaction only happens at quiescent
    /// points (empty outbox/event queue, no crypto jobs in flight).
    pub wal_compact_bytes: u64,
    /// The wire version stamped on every datagram this endpoint emits
    /// (default [`dkg_wire::VERSION`]). Raising it is phase two of a
    /// rolling upgrade: only do so once every peer accepts it.
    pub wire_version: u8,
    /// The newest wire version this endpoint accepts
    /// ([`dkg_wire::decode_datagram_versioned`]); frames above it are
    /// refused as [`WireError::UnsupportedVersion`]. Raising this is phase
    /// one of a rolling upgrade — safe at any time, since the layout is
    /// unchanged across known versions.
    pub max_wire_version: u8,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            outbox_capacity: 4096,
            max_datagram_len: 1 << 22,
            defer_crypto: false,
            store: None,
            wal_compact_bytes: 1 << 20,
            wire_version: VERSION,
            max_wire_version: VERSION,
        }
    }
}

/// Identifies one session multiplexed on an endpoint: a DKG run (keyed by
/// its phase counter `τ`) or a standalone HybridVSS sharing (keyed by its
/// `(dealer, τ)` session id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SessionKey {
    /// A standalone HybridVSS session.
    Vss {
        /// The `(dealer, τ)` session identifier.
        session: SessionId,
    },
    /// A DKG session (with its `n` embedded VSS instances).
    Dkg {
        /// The phase counter `τ`.
        tau: u64,
    },
    /// A threshold-signing session serving requests with a DKG'd key.
    Sign {
        /// The signing-session identifier.
        sid: u64,
    },
    /// A §6 group-modification agreement (membership change broadcast).
    Mod {
        /// The agreement era: which configuration epoch the proposals
        /// modify. Routing-only, like `τ` for a DKG session.
        era: u64,
    },
}

impl SessionKey {
    /// The wire protocol tag for this session's datagrams.
    pub fn protocol(&self) -> ProtocolId {
        match self {
            SessionKey::Vss { .. } => ProtocolId::Vss,
            SessionKey::Dkg { .. } => ProtocolId::Dkg,
            SessionKey::Sign { .. } => ProtocolId::Tss,
            SessionKey::Mod { .. } => ProtocolId::Mod,
        }
    }

    /// The 16-byte routing channel carried in the datagram header.
    pub fn channel(&self) -> [u8; 16] {
        match self {
            SessionKey::Vss { session } => session.to_bytes(),
            SessionKey::Dkg { tau }
            | SessionKey::Sign { sid: tau }
            | SessionKey::Mod { era: tau } => {
                let mut out = [0u8; 16];
                out[..8].copy_from_slice(&tau.to_be_bytes());
                out
            }
        }
    }

    /// Reconstructs the key from a datagram header. Rejects DKG and
    /// signing channels with non-zero reserved bytes so every session has
    /// exactly one header encoding.
    pub fn from_header(header: &Header) -> Result<Self, WireError> {
        let hi = u64::from_be_bytes(header.channel[..8].try_into().expect("8 bytes"));
        let lo = u64::from_be_bytes(header.channel[8..].try_into().expect("8 bytes"));
        match header.protocol {
            ProtocolId::Vss => Ok(SessionKey::Vss {
                session: SessionId::new(hi, lo),
            }),
            ProtocolId::Dkg => {
                if lo != 0 {
                    return Err(WireError::InvalidValue {
                        context: "non-zero reserved bytes in dkg channel",
                    });
                }
                Ok(SessionKey::Dkg { tau: hi })
            }
            ProtocolId::Tss => {
                if lo != 0 {
                    return Err(WireError::InvalidValue {
                        context: "non-zero reserved bytes in tss channel",
                    });
                }
                Ok(SessionKey::Sign { sid: hi })
            }
            ProtocolId::Mod => {
                if lo != 0 {
                    return Err(WireError::InvalidValue {
                        context: "non-zero reserved bytes in group-mod channel",
                    });
                }
                Ok(SessionKey::Mod { era: hi })
            }
        }
    }
}

/// A typed refusal of an input datagram or operator call. Rejections are
/// the endpoint's answer to everything that used to be a panic or a silent
/// drop: the caller learns exactly why a datagram went nowhere.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Reject {
    /// The datagram exceeds [`EndpointConfig::max_datagram_len`].
    OversizedDatagram {
        /// Received length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// Framing or payload decoding failed.
    Malformed(WireError),
    /// The datagram routed to a session this endpoint does not host.
    UnknownSession(SessionKey),
    /// The payload's own session/τ disagrees with the routing header — a
    /// spliced or replayed datagram.
    SessionMismatch {
        /// The session from the routing header.
        header: SessionKey,
    },
    /// The outbox is full; drain [`Endpoint::poll_transmit`] first.
    Backpressure {
        /// The configured outbox capacity.
        capacity: usize,
    },
    /// A session with this key already exists on the endpoint.
    DuplicateSession(SessionKey),
    /// The session state machine belongs to a different node id than the
    /// endpoint.
    WrongNode {
        /// The endpoint's node id.
        endpoint: NodeId,
        /// The state machine's node id.
        node: NodeId,
    },
    /// [`Endpoint::complete_job`] was called with an id this endpoint never
    /// handed out (or already completed).
    UnknownJob(u64),
    /// The input could not be appended to the configured store's
    /// write-ahead log, so it was refused *before* mutating state — the
    /// protocol treats it as a lost message (which these asynchronous
    /// protocols tolerate), keeping the persisted log a faithful prefix of
    /// the in-memory state.
    PersistFailed(StoreError),
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::OversizedDatagram { len, max } => {
                write!(f, "datagram of {len} bytes exceeds the {max}-byte limit")
            }
            Reject::Malformed(err) => write!(f, "malformed datagram: {err}"),
            Reject::UnknownSession(key) => write!(f, "no session {key:?} on this endpoint"),
            Reject::SessionMismatch { header } => {
                write!(
                    f,
                    "payload session disagrees with routing header {header:?}"
                )
            }
            Reject::Backpressure { capacity } => {
                write!(f, "outbox full ({capacity} datagrams); drain poll_transmit")
            }
            Reject::DuplicateSession(key) => write!(f, "session {key:?} already exists"),
            Reject::WrongNode { endpoint, node } => {
                write!(
                    f,
                    "state machine for node {node} added to endpoint {endpoint}"
                )
            }
            Reject::UnknownJob(id) => write!(f, "no pending crypto job with id {id}"),
            Reject::PersistFailed(err) => write!(f, "input refused, wal append failed: {err}"),
        }
    }
}

impl std::error::Error for Reject {}

/// An encoded datagram the endpoint wants sent.
#[derive(Clone, Debug)]
pub struct Transmit {
    /// Destination node.
    pub to: NodeId,
    /// The session that produced the datagram.
    pub session: SessionKey,
    /// The message kind (`"vss-echo"`, `"dkg-send"`, …) for accounting.
    pub kind: &'static str,
    /// The complete framed datagram (header + canonical payload encoding).
    pub payload: Vec<u8>,
}

/// A protocol-level event surfaced to the application.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A DKG session produced an operator output.
    Dkg {
        /// The session's phase counter.
        tau: u64,
        /// The output (`Completed`, `Reconstructed`, `LeaderChanged`).
        output: DkgOutput,
    },
    /// A standalone VSS session produced an operator output.
    Vss {
        /// The session id.
        session: SessionId,
        /// The output (`Shared`, `Reconstructed`).
        output: VssOutput,
    },
    /// A signing session produced an operator output.
    Tss {
        /// The signing-session id.
        sid: u64,
        /// The output (`Signed`, `Exhausted`).
        output: TssOutput,
    },
    /// A group-modification agreement produced an operator output.
    Mod {
        /// The agreement era.
        era: u64,
        /// The output (`Accepted`).
        output: GroupModOutput,
    },
}

/// Per-session traffic and lifecycle counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Datagrams accepted into this session.
    pub datagrams_in: u64,
    /// Bytes accepted into this session.
    pub bytes_in: u64,
    /// Datagrams emitted by this session.
    pub datagrams_out: u64,
    /// Bytes emitted by this session.
    pub bytes_out: u64,
    /// Datagrams that routed here but failed payload decoding or session
    /// consistency checks.
    pub rejected: u64,
    /// Events surfaced to the application.
    pub events: u64,
    /// Crypto jobs handed out for this session (deferred mode only).
    pub jobs: u64,
    /// Write-ahead-log frames recorded for this session's inputs (appended
    /// live, or re-counted during a restore's replay — so the counter is
    /// identical whether or not the endpoint ever crashed).
    pub wal_frames: u64,
    /// When the session's protocol first reported completion.
    pub completed_at: Option<WallClock>,
}

/// A pending crypto job handed out by [`Endpoint::poll_jobs`]: run it on
/// any [`Executor`](crate::executor::Executor) (or call
/// [`CryptoJob::run`] directly) and feed the verdict back through
/// [`Endpoint::complete_job`] under the same `id`.
#[derive(Clone, Debug)]
pub struct JobTicket {
    /// The endpoint-level job id.
    pub id: u64,
    /// The session that prepared the job.
    pub session: SessionKey,
    /// The schedulable work.
    pub job: CryptoJob,
}

enum SessionState {
    Dkg(Box<DkgNode>),
    Vss(Box<VssNode>),
    Sign(Box<SignSession>),
    Mod(Box<GroupModNode>),
}

struct Session {
    state: SessionState,
    timers: BTreeMap<TimerId, WallClock>,
    stats: SessionStats,
}

impl Session {
    fn is_complete(&self) -> bool {
        match &self.state {
            SessionState::Dkg(node) => node.is_complete(),
            SessionState::Vss(node) => node.is_complete(),
            // A signing service never finishes: it keeps answering
            // requests until evicted. The group-modification agreement is
            // the same shape — it keeps accepting proposals until the
            // phase change that applies them evicts it.
            SessionState::Sign(_) | SessionState::Mod(_) => false,
        }
    }
}

/// Aggregate endpoint counters (rejections that never reached a session).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Datagrams refused before reaching any session (oversized, malformed
    /// framing, unknown session, backpressure).
    pub rejected: u64,
    /// Sessions evicted over the endpoint's lifetime.
    pub evicted: u64,
}

/// A sans-I/O endpoint multiplexing DKG/VSS sessions for one node.
///
/// See the [module docs](self) for the interaction contract. Typical loop:
///
/// ```text
/// loop {
///     while let Some(t) = endpoint.poll_transmit() { socket.send_to(t.to, &t.payload); }
///     while let Some(e) = endpoint.poll_event()    { application(e); }
///     let deadline = endpoint.poll_timeout();
///     match socket.recv_deadline(deadline) {
///         Ok((from, bytes)) => { let _ = endpoint.handle_datagram(from, &bytes, now()); }
///         Err(Timeout)      => endpoint.handle_timeout(now()),
///     }
/// }
/// ```
pub struct Endpoint {
    id: NodeId,
    config: EndpointConfig,
    sessions: BTreeMap<SessionKey, Session>,
    outbox: VecDeque<Transmit>,
    events: VecDeque<Event>,
    stats: EndpointStats,
    next_job: u64,
    /// Routes an endpoint-level job id to the session that prepared it and
    /// the session's own (inner) job id.
    job_routes: BTreeMap<u64, (SessionKey, u64)>,
    /// Sessions that queued jobs since the last [`Endpoint::poll_jobs`], so
    /// polling costs O(sessions with work), not O(hosted sessions).
    jobs_ready: std::collections::BTreeSet<SessionKey>,
    /// Persistence counters.
    persist: PersistStats,
    /// `true` while [`Endpoint::restore`] replays the write-ahead log:
    /// replayed inputs must not be appended again, and compaction is
    /// deferred until the replay finishes.
    replaying: bool,
}

impl Endpoint {
    /// Creates an endpoint for node `id`.
    pub fn new(id: NodeId, config: EndpointConfig) -> Self {
        Endpoint {
            id,
            config,
            sessions: BTreeMap::new(),
            outbox: VecDeque::new(),
            events: VecDeque::new(),
            stats: EndpointStats::default(),
            next_job: 0,
            job_routes: BTreeMap::new(),
            jobs_ready: std::collections::BTreeSet::new(),
            persist: PersistStats::default(),
            replaying: false,
        }
    }

    /// The node this endpoint speaks for.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The endpoint's configuration (incl. its store handle, which a
    /// network driver needs to rebuild the endpoint after a crash).
    pub fn config(&self) -> &EndpointConfig {
        &self.config
    }

    /// Aggregate endpoint counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Persistence counters.
    pub fn persist_stats(&self) -> PersistStats {
        self.persist
    }

    /// Bytes currently held by the configured store (snapshot + WAL), or 0
    /// without a store.
    pub fn stored_bytes(&self) -> u64 {
        self.config
            .store
            .as_ref()
            .map_or(0, StoreHandle::stored_bytes)
    }

    /// Keys of all hosted sessions, in order.
    pub fn session_keys(&self) -> Vec<SessionKey> {
        self.sessions.keys().copied().collect()
    }

    /// Per-session counters.
    pub fn session_stats(&self, key: SessionKey) -> Option<SessionStats> {
        self.sessions.get(&key).map(|s| s.stats)
    }

    /// Whether the given session's protocol has completed.
    pub fn is_complete(&self, key: SessionKey) -> bool {
        self.sessions.get(&key).is_some_and(Session::is_complete)
    }

    /// Read access to a hosted DKG state machine.
    pub fn dkg_session(&self, tau: u64) -> Option<&DkgNode> {
        match &self.sessions.get(&SessionKey::Dkg { tau })?.state {
            SessionState::Dkg(node) => Some(node),
            _ => None,
        }
    }

    /// Read access to a hosted VSS state machine.
    pub fn vss_session(&self, session: SessionId) -> Option<&VssNode> {
        match &self.sessions.get(&SessionKey::Vss { session })?.state {
            SessionState::Vss(node) => Some(node),
            _ => None,
        }
    }

    /// Read access to a hosted signing session.
    pub fn sign_session(&self, sid: u64) -> Option<&SignSession> {
        match &self.sessions.get(&SessionKey::Sign { sid })?.state {
            SessionState::Sign(session) => Some(session),
            _ => None,
        }
    }

    /// Read access to a hosted group-modification agreement.
    pub fn mod_session(&self, era: u64) -> Option<&GroupModNode> {
        match &self.sessions.get(&SessionKey::Mod { era })?.state {
            SessionState::Mod(node) => Some(node),
            _ => None,
        }
    }

    /// The completed result of a DKG session, if any.
    pub fn dkg_result(&self, tau: u64) -> Option<&DkgResult> {
        self.dkg_session(tau).and_then(DkgNode::result)
    }

    /// Adds a DKG session (keyed by its `τ`).
    ///
    /// With a configured store this writes a fresh snapshot (membership
    /// must be durable before the session can log anything), which
    /// requires a job-quiescent endpoint: adding while crypto jobs are in
    /// flight is refused with
    /// [`Reject::PersistFailed`]`(`[`StoreError::SnapshotUnavailable`]`)` —
    /// drain jobs and retry.
    pub fn add_dkg_session(&mut self, node: DkgNode) -> Result<SessionKey, Reject> {
        if node.id() != self.id {
            return Err(Reject::WrongNode {
                endpoint: self.id,
                node: node.id(),
            });
        }
        let key = SessionKey::Dkg { tau: node.tau() };
        self.insert_session(key, SessionState::Dkg(Box::new(node)))
    }

    /// Adds a standalone VSS session (keyed by its `(dealer, τ)`).
    ///
    /// Same store-quiescence requirement as [`Endpoint::add_dkg_session`].
    pub fn add_vss_session(&mut self, node: VssNode) -> Result<SessionKey, Reject> {
        if node.id() != self.id {
            return Err(Reject::WrongNode {
                endpoint: self.id,
                node: node.id(),
            });
        }
        let key = SessionKey::Vss {
            session: node.session(),
        };
        self.insert_session(key, SessionState::Vss(Box::new(node)))
    }

    /// Adds a threshold-signing session (keyed by its `sid`) — typically
    /// built with [`SignSession::from_dkg_result`] from a completed DKG
    /// hosted on this same endpoint.
    ///
    /// Same store-quiescence requirement as [`Endpoint::add_dkg_session`].
    pub fn add_sign_session(&mut self, session: SignSession) -> Result<SessionKey, Reject> {
        if session.id() != self.id {
            return Err(Reject::WrongNode {
                endpoint: self.id,
                node: session.id(),
            });
        }
        let key = SessionKey::Sign { sid: session.sid() };
        self.insert_session(key, SessionState::Sign(Box::new(session)))
    }

    /// Adds a group-modification agreement session under the given era.
    /// The agreement itself carries no era — it is a routing key chosen by
    /// the deployment (one agreement per configuration epoch).
    ///
    /// Same store-quiescence requirement as [`Endpoint::add_dkg_session`].
    pub fn add_mod_session(&mut self, era: u64, node: GroupModNode) -> Result<SessionKey, Reject> {
        if node.id() != self.id {
            return Err(Reject::WrongNode {
                endpoint: self.id,
                node: node.id(),
            });
        }
        let key = SessionKey::Mod { era };
        self.insert_session(key, SessionState::Mod(Box::new(node)))
    }

    fn insert_session(
        &mut self,
        key: SessionKey,
        mut state: SessionState,
    ) -> Result<SessionKey, Reject> {
        if self.sessions.contains_key(&key) {
            return Err(Reject::DuplicateSession(key));
        }
        // The endpoint owns the inline/deferred decision for everything it
        // hosts.
        match &mut state {
            SessionState::Dkg(node) => node.set_deferred_crypto(self.config.defer_crypto),
            SessionState::Vss(node) => node.set_deferred_crypto(self.config.defer_crypto),
            SessionState::Sign(session) => session.set_deferred_crypto(self.config.defer_crypto),
            // The agreement broadcast does no expensive crypto: nothing to
            // defer.
            SessionState::Mod(_) => {}
        }
        self.sessions.insert(
            key,
            Session {
                state,
                timers: BTreeMap::new(),
                stats: SessionStats::default(),
            },
        );
        // Session membership must be durable before the session can log
        // anything: a WAL record for a session the snapshot does not know
        // would be unreplayable. Adding a session therefore writes a fresh
        // snapshot (which also compacts the log); if that fails, the
        // addition is rolled back and refused.
        if !self.replaying {
            if let Some(store) = self.config.store.clone() {
                if let Err(err) = self.install_snapshot_now(&store) {
                    self.sessions.remove(&key);
                    self.persist.persist_errors += 1;
                    return Err(Reject::PersistFailed(err));
                }
            }
        }
        Ok(key)
    }

    /// Removes a session, returning its final counters.
    pub fn evict(&mut self, key: SessionKey) -> Option<SessionStats> {
        let session = self.sessions.remove(&key)?;
        self.stats.evicted += 1;
        Some(session.stats)
    }

    /// Removes every completed session, returning their keys and counters.
    /// Queued transmits and events of evicted sessions survive (they are
    /// already encoded / surfaced).
    pub fn evict_completed(&mut self) -> Vec<(SessionKey, SessionStats)> {
        let done: Vec<SessionKey> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.is_complete())
            .map(|(&k, _)| k)
            .collect();
        done.into_iter()
            .filter_map(|key| self.evict(key).map(|stats| (key, stats)))
            .collect()
    }

    /// Number of hosted sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    fn check_backpressure(&mut self) -> Result<(), Reject> {
        if self.outbox.len() >= self.config.outbox_capacity {
            self.stats.rejected += 1;
            return Err(Reject::Backpressure {
                capacity: self.config.outbox_capacity,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Persistence (write-ahead log + snapshots)
    // ------------------------------------------------------------------

    /// Records an accepted input in the WAL (write-ahead: the caller only
    /// mutates state on `Ok`). During a restore's replay the same call
    /// re-counts the frame instead of re-appending it, so the statistics
    /// of a restored endpoint match an uninterrupted one exactly.
    fn persist_input(
        &mut self,
        session: Option<SessionKey>,
        record: &WalRecord,
    ) -> Result<(), Reject> {
        if self.replaying {
            self.persist.wal_replayed += 1;
        } else {
            let Some(store) = self.config.store.clone() else {
                return Ok(());
            };
            if let Err(err) = store.append(record) {
                self.persist.persist_errors += 1;
                return Err(Reject::PersistFailed(err));
            }
            self.persist.wal_appended += 1;
        }
        if let Some(key) = session {
            if let Some(session) = self.sessions.get_mut(&key) {
                session.stats.wal_frames += 1;
            }
        }
        Ok(())
    }

    /// Whether inputs need a [`WalRecord`] at all — callers skip even
    /// *building* the record (a datagram copy) on the hot path of a
    /// store-less endpoint.
    fn persistence_active(&self) -> bool {
        self.replaying || self.config.store.is_some()
    }

    /// Captures the endpoint's complete state as a versioned
    /// [`EndpointSnapshot`], or `None` while crypto jobs are queued or in
    /// flight anywhere (snapshots are only taken at job-quiescent points;
    /// in-flight work is re-created by replaying the WAL).
    pub fn snapshot(&self) -> Option<EndpointSnapshot> {
        if !self.job_routes.is_empty() {
            return None;
        }
        let mut sessions = Vec::with_capacity(self.sessions.len());
        for (&key, session) in &self.sessions {
            let state = match &session.state {
                SessionState::Dkg(node) => SessionStateSnapshot::Dkg(Box::new(node.snapshot()?)),
                SessionState::Vss(node) => SessionStateSnapshot::Vss {
                    snapshot: Box::new(node.snapshot()?),
                    directory: node.signing_directory().map(|directory| {
                        directory
                            .nodes()
                            .into_iter()
                            .map(|id| {
                                let key = directory.public_key(id).expect("listed node has a key");
                                (id, key.point())
                            })
                            .collect()
                    }),
                },
                SessionState::Sign(session) => {
                    SessionStateSnapshot::Sign(Box::new(session.snapshot()?))
                }
                SessionState::Mod(node) => SessionStateSnapshot::Mod(Box::new(node.snapshot())),
            };
            sessions.push(SessionSnapshot {
                key,
                stats: session.stats,
                timers: session.timers.iter().map(|(&t, &d)| (t, d)).collect(),
                state,
            });
        }
        Some(EndpointSnapshot {
            id: self.id,
            stats: self.stats,
            persist: self.persist,
            sessions,
        })
    }

    /// Encodes and installs a snapshot into `store`, truncating its WAL.
    fn install_snapshot_now(&mut self, store: &StoreHandle) -> Result<(), StoreError> {
        let snapshot = self.snapshot().ok_or(StoreError::SnapshotUnavailable)?;
        store.install_snapshot(&snapshot.to_bytes())?;
        self.persist.snapshots_written += 1;
        Ok(())
    }

    /// Compacts the write-ahead log into a fresh snapshot when it grew past
    /// [`EndpointConfig::wal_compact_bytes`] — but only at a quiescent
    /// point (empty outbox and event queue, no crypto jobs pending), so
    /// the snapshot is self-contained. Drivers call this after draining;
    /// returns whether a snapshot was written. Failures are counted in
    /// [`PersistStats::persist_errors`] and retried at the next call.
    pub fn maybe_compact(&mut self) -> bool {
        let Some(store) = self.config.store.clone() else {
            return false;
        };
        if self.replaying
            || store.wal_bytes() < self.config.wal_compact_bytes
            || !self.outbox.is_empty()
            || !self.events.is_empty()
        {
            return false;
        }
        match self.install_snapshot_now(&store) {
            Ok(()) => true,
            Err(StoreError::SnapshotUnavailable) => false,
            Err(_) => {
                self.persist.persist_errors += 1;
                false
            }
        }
    }

    /// Rebuilds an endpoint from its configured store: loads the latest
    /// snapshot, re-injects every session's state machine, then **replays**
    /// the write-ahead log through the normal `handle_datagram` /
    /// `handle_*_input` / `handle_timeout` paths (discarding the transmits
    /// and events this re-emits — they already left the node before the
    /// crash; true losses are what the §5.3 help protocol recovers). The
    /// result is state-identical to the endpoint at its last accepted
    /// input.
    pub fn restore(config: EndpointConfig) -> Result<Endpoint, RestoreError> {
        let store = config.store.clone().ok_or(StoreError::NoStore)?;
        let stored = store.load()?;
        let bytes = stored.snapshot.ok_or(StoreError::SnapshotMissing)?;
        let image = EndpointSnapshot::from_bytes(&bytes)?;

        let mut endpoint = Endpoint::new(image.id, config);
        endpoint.replaying = true;
        endpoint.stats = image.stats;
        endpoint.persist = image.persist;
        for session in image.sessions {
            let state = match session.state {
                SessionStateSnapshot::Dkg(snapshot) => {
                    let node = DkgNode::restore(*snapshot)?;
                    if node.id() != image.id {
                        return Err(dkg_vss::SnapshotError::ForeignNode { node: node.id() }.into());
                    }
                    SessionState::Dkg(Box::new(node))
                }
                SessionStateSnapshot::Vss {
                    snapshot,
                    directory,
                } => {
                    let directory = directory.map(|entries| {
                        let mut dir = dkg_crypto::KeyDirectory::new();
                        for (id, point) in entries {
                            let key = dkg_crypto::PublicKey::from_bytes(&point.to_bytes())
                                .ok_or(dkg_vss::SnapshotError::InvalidDirectoryKey { node: id })?;
                            dir.register(id, key);
                        }
                        Ok::<_, RestoreError>(Arc::new(dir))
                    });
                    let directory = match directory {
                        Some(result) => Some(result?),
                        None => None,
                    };
                    let node = VssNode::restore(*snapshot, directory)?;
                    if node.id() != image.id {
                        return Err(dkg_vss::SnapshotError::ForeignNode { node: node.id() }.into());
                    }
                    SessionState::Vss(Box::new(node))
                }
                SessionStateSnapshot::Sign(snapshot) => {
                    let session = SignSession::restore(*snapshot)?;
                    if session.id() != image.id {
                        return Err(
                            dkg_tss::SnapshotError::ForeignNode { node: session.id() }.into()
                        );
                    }
                    SessionState::Sign(Box::new(session))
                }
                SessionStateSnapshot::Mod(snapshot) => {
                    let node = GroupModNode::restore(*snapshot);
                    if node.id() != image.id {
                        return Err(dkg_vss::SnapshotError::ForeignNode { node: node.id() }.into());
                    }
                    SessionState::Mod(Box::new(node))
                }
            };
            endpoint.insert_session(session.key, state).map_err(|_| {
                StoreError::Corrupt(WireError::InvalidValue {
                    context: "duplicate session in snapshot",
                })
            })?;
            let hosted = endpoint
                .sessions
                .get_mut(&session.key)
                .expect("just inserted");
            hosted.stats = session.stats;
            hosted.timers = session.timers.into_iter().collect();
        }

        for record in &stored.wal {
            let at = record.at();
            match record {
                WalRecord::Datagram { at, from, bytes } => {
                    let _ = endpoint.handle_datagram(*from, bytes, *at);
                }
                WalRecord::DkgOperator { at, tau, input } => {
                    let _ = endpoint.handle_dkg_input(*tau, input.clone(), *at);
                }
                WalRecord::VssOperator { at, session, input } => {
                    let _ = endpoint.handle_vss_input(*session, input.clone(), *at);
                }
                WalRecord::TssOperator { at, sid, input } => {
                    let _ = endpoint.handle_tss_input(*sid, input.clone(), *at);
                }
                WalRecord::ModOperator { at, era, input } => {
                    let _ = endpoint.handle_mod_input(*era, *input, *at);
                }
                WalRecord::Timeout { at } => endpoint.handle_timeout(*at),
            }
            endpoint.quiesce_discard(at);
        }
        endpoint.outbox.clear();
        endpoint.events.clear();
        endpoint.replaying = false;
        endpoint.persist.recoveries += 1;
        Ok(endpoint)
    }

    /// Replay helper: runs every pending crypto job inline (verdicts are
    /// pure functions of the jobs, so this matches whatever executor the
    /// live run used) and discards the transmits/events the replay
    /// re-emits.
    fn quiesce_discard(&mut self, now: WallClock) {
        loop {
            self.outbox.clear();
            self.events.clear();
            let tickets = self.poll_jobs();
            if tickets.is_empty() {
                break;
            }
            for ticket in tickets {
                let verdict = ticket.job.run();
                // A full outbox mid-replay: the replayed transmits are
                // discards anyway, so clear and retry the verdict.
                while let Err(Reject::Backpressure { .. }) =
                    self.complete_job(ticket.id, verdict.clone(), now)
                {
                    self.outbox.clear();
                }
            }
        }
    }

    /// Feeds an operator input to a DKG session (start, reshare,
    /// reconstruct, recover).
    pub fn handle_dkg_input(
        &mut self,
        tau: u64,
        input: DkgInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.check_backpressure()?;
        let key = SessionKey::Dkg { tau };
        if !self.sessions.contains_key(&key) {
            self.stats.rejected += 1;
            return Err(Reject::UnknownSession(key));
        }
        self.persist_input(
            Some(key),
            &WalRecord::DkgOperator {
                at: now,
                tau,
                input: input.clone(),
            },
        )?;
        self.run_dkg(key, now, |node, sink| node.on_operator(input, sink));
        Ok(())
    }

    /// Feeds an operator input to a VSS session (share, reconstruct,
    /// recover).
    pub fn handle_vss_input(
        &mut self,
        session: SessionId,
        input: VssInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.check_backpressure()?;
        let key = SessionKey::Vss { session };
        if !self.sessions.contains_key(&key) {
            self.stats.rejected += 1;
            return Err(Reject::UnknownSession(key));
        }
        self.persist_input(
            Some(key),
            &WalRecord::VssOperator {
                at: now,
                session,
                input: input.clone(),
            },
        )?;
        self.run_vss(key, now, |node| node.handle_input(input));
        Ok(())
    }

    /// Feeds an operator input to a signing session (sign, recover).
    pub fn handle_tss_input(
        &mut self,
        sid: u64,
        input: TssInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.check_backpressure()?;
        let key = SessionKey::Sign { sid };
        if !self.sessions.contains_key(&key) {
            self.stats.rejected += 1;
            return Err(Reject::UnknownSession(key));
        }
        self.persist_input(
            Some(key),
            &WalRecord::TssOperator {
                at: now,
                sid,
                input: input.clone(),
            },
        )?;
        self.run_sign(key, now, |session, sink| session.on_operator(input, sink));
        Ok(())
    }

    /// Feeds an operator input to a group-modification agreement (propose).
    pub fn handle_mod_input(
        &mut self,
        era: u64,
        input: GroupModInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.check_backpressure()?;
        let key = SessionKey::Mod { era };
        if !self.sessions.contains_key(&key) {
            self.stats.rejected += 1;
            return Err(Reject::UnknownSession(key));
        }
        self.persist_input(
            Some(key),
            &WalRecord::ModOperator {
                at: now,
                era,
                input,
            },
        )?;
        self.run_mod(key, now, |node, sink| node.on_operator(input, sink));
        Ok(())
    }

    /// Runs the crash-recovery procedure of every hosted session (§5.3):
    /// called by the application after rebooting from stable storage.
    pub fn recover_all(&mut self, now: WallClock) {
        for key in self.session_keys() {
            match key {
                SessionKey::Dkg { .. } => {
                    self.run_dkg(key, now, |node, sink| node.on_recover(sink))
                }
                SessionKey::Vss { .. } => self.run_vss(key, now, |node| {
                    let mut actions = Vec::new();
                    node.recover(&mut actions);
                    actions
                }),
                SessionKey::Sign { .. } => {
                    self.run_sign(key, now, |session, sink| session.on_recover(sink))
                }
                // The agreement broadcast has no §5.3 recovery procedure:
                // its whole state rides the snapshot + WAL replay.
                SessionKey::Mod { .. } => {}
            }
        }
    }

    /// Processes one received datagram. Returns the session it routed to, or
    /// a typed [`Reject`] explaining why it was refused. Never panics on any
    /// input.
    pub fn handle_datagram(
        &mut self,
        from: NodeId,
        datagram: &[u8],
        now: WallClock,
    ) -> Result<SessionKey, Reject> {
        self.check_backpressure()?;
        if datagram.len() > self.config.max_datagram_len {
            self.stats.rejected += 1;
            return Err(Reject::OversizedDatagram {
                len: datagram.len(),
                max: self.config.max_datagram_len,
            });
        }
        let (_version, header, payload) =
            decode_datagram_versioned(datagram, self.config.max_wire_version).map_err(|e| {
                self.stats.rejected += 1;
                Reject::Malformed(e)
            })?;
        let key = SessionKey::from_header(&header).map_err(|e| {
            self.stats.rejected += 1;
            Reject::Malformed(e)
        })?;
        let Some(session) = self.sessions.get_mut(&key) else {
            self.stats.rejected += 1;
            return Err(Reject::UnknownSession(key));
        };

        match (&mut session.state, key) {
            (SessionState::Dkg(node), SessionKey::Dkg { tau }) => {
                // Inline commitments resolve against what this session
                // already holds, so each matrix is decompressed once per
                // session; anything else decodes context-free.
                let known = |session, digest: &_| node.known_commitment(session, digest);
                let message = match DkgMessage::decode_known(payload, &known) {
                    Ok(message) => message,
                    Err(e) => {
                        session.stats.rejected += 1;
                        return Err(Reject::Malformed(e));
                    }
                };
                let message_tau = match &message {
                    DkgMessage::Vss(m) => m.session().tau,
                    DkgMessage::Send { tau, .. }
                    | DkgMessage::Echo { tau, .. }
                    | DkgMessage::Ready { tau, .. }
                    | DkgMessage::LeadCh { tau, .. } => *tau,
                };
                if message_tau != tau {
                    session.stats.rejected += 1;
                    return Err(Reject::SessionMismatch { header: key });
                }
                if self.persistence_active() {
                    self.persist_input(
                        Some(key),
                        &WalRecord::Datagram {
                            at: now,
                            from,
                            bytes: datagram.to_vec(),
                        },
                    )?;
                }
                let session = self.sessions.get_mut(&key).expect("checked above");
                session.stats.datagrams_in += 1;
                session.stats.bytes_in += datagram.len() as u64;
                self.run_dkg(key, now, |node, sink| node.on_message(from, message, sink));
            }
            (SessionState::Vss(node), SessionKey::Vss { session: sid }) => {
                let known = |session, digest: &_| node.known_commitment(session, digest);
                let message = match VssMessage::decode_known(payload, &known) {
                    Ok(message) => message,
                    Err(e) => {
                        session.stats.rejected += 1;
                        return Err(Reject::Malformed(e));
                    }
                };
                if message.session() != sid {
                    session.stats.rejected += 1;
                    return Err(Reject::SessionMismatch { header: key });
                }
                if self.persistence_active() {
                    self.persist_input(
                        Some(key),
                        &WalRecord::Datagram {
                            at: now,
                            from,
                            bytes: datagram.to_vec(),
                        },
                    )?;
                }
                let session = self.sessions.get_mut(&key).expect("checked above");
                session.stats.datagrams_in += 1;
                session.stats.bytes_in += datagram.len() as u64;
                self.run_vss(key, now, |node| node.handle_message(from, message));
            }
            (SessionState::Sign(_), SessionKey::Sign { sid }) => {
                let message = match TssMessage::decode(payload) {
                    Ok(message) => message,
                    Err(e) => {
                        session.stats.rejected += 1;
                        return Err(Reject::Malformed(e));
                    }
                };
                if message.sid() != sid {
                    session.stats.rejected += 1;
                    return Err(Reject::SessionMismatch { header: key });
                }
                if self.persistence_active() {
                    self.persist_input(
                        Some(key),
                        &WalRecord::Datagram {
                            at: now,
                            from,
                            bytes: datagram.to_vec(),
                        },
                    )?;
                }
                let session = self.sessions.get_mut(&key).expect("checked above");
                session.stats.datagrams_in += 1;
                session.stats.bytes_in += datagram.len() as u64;
                self.run_sign(key, now, |session, sink| {
                    session.on_message(from, message, sink)
                });
            }
            (SessionState::Mod(_), SessionKey::Mod { .. }) => {
                let message = match GroupModMessage::decode(payload) {
                    Ok(message) => message,
                    Err(e) => {
                        session.stats.rejected += 1;
                        return Err(Reject::Malformed(e));
                    }
                };
                // Group-mod payloads carry no era of their own (the change
                // set is era-independent), so routing is by header alone —
                // there is no embedded field to cross-check for splicing.
                if self.persistence_active() {
                    self.persist_input(
                        Some(key),
                        &WalRecord::Datagram {
                            at: now,
                            from,
                            bytes: datagram.to_vec(),
                        },
                    )?;
                }
                let session = self.sessions.get_mut(&key).expect("checked above");
                session.stats.datagrams_in += 1;
                session.stats.bytes_in += datagram.len() as u64;
                self.run_mod(key, now, |node, sink| node.on_message(from, message, sink));
            }
            // `from_header` pairs protocols and key variants 1:1, and
            // sessions are inserted under their own key, so a hosted session
            // always matches its key's variant.
            _ => unreachable!("session key variant matches session state"),
        }
        Ok(key)
    }

    /// Fires every timer with a deadline `≤ now`, across all sessions.
    ///
    /// Timer firings mutate protocol state, so they are WAL-logged like
    /// any other input (one `timeout` record per call that fires at least
    /// one timer). If the append fails the timers stay armed — they fire
    /// on a later call — keeping the persisted log a faithful prefix of
    /// the in-memory state.
    pub fn handle_timeout(&mut self, now: WallClock) {
        let due: Vec<(SessionKey, TimerId)> = self
            .sessions
            .iter()
            .flat_map(|(&key, session)| {
                session
                    .timers
                    .iter()
                    .filter(move |(_, &deadline)| deadline <= now)
                    .map(move |(&timer, _)| (key, timer))
            })
            .collect();
        if due.is_empty() {
            return;
        }
        if self
            .persist_input(None, &WalRecord::Timeout { at: now })
            .is_err()
        {
            return;
        }
        for (key, timer) in due {
            if let Some(session) = self.sessions.get_mut(&key) {
                // An earlier firing in this same batch may have cancelled the
                // timer or re-armed it to a *future* deadline; in either case
                // it is no longer due and must survive untouched.
                match session.timers.get(&timer) {
                    Some(&deadline) if deadline <= now => {
                        session.timers.remove(&timer);
                    }
                    _ => continue,
                }
                match key {
                    SessionKey::Dkg { .. } => {
                        self.run_dkg(key, now, |node, sink| node.on_timer(timer, sink))
                    }
                    // VSS state machines register no timers today; guard for
                    // future protocols.
                    SessionKey::Vss { .. } => {}
                    SessionKey::Sign { .. } => {
                        self.run_sign(key, now, |session, sink| session.on_timer(timer, sink))
                    }
                    // The agreement broadcast registers no timers either.
                    SessionKey::Mod { .. } => {}
                }
            }
        }
    }

    /// The earliest timer deadline across all sessions, if any.
    pub fn poll_timeout(&self) -> Option<WallClock> {
        self.sessions
            .values()
            .flat_map(|s| s.timers.values().copied())
            .min()
    }

    /// Hands out every pending [`CryptoJob`] across all sessions, in
    /// session-key order (deferred mode; inline endpoints never queue
    /// jobs). Each ticket must be answered once via
    /// [`Endpoint::complete_job`].
    ///
    /// Determinism contract: within one session, ticket-id order equals
    /// prepare order. Across sessions it is session-key order for whatever
    /// was pending at the moment of the call, so a driver that wants runs
    /// byte-identical to inline execution must drain jobs to quiescence
    /// (poll → execute → complete, repeated) after *each* input event —
    /// exactly what [`crate::EndpointNet`] does — rather than batching
    /// events from different sessions before polling.
    pub fn poll_jobs(&mut self) -> Vec<JobTicket> {
        let mut out = Vec::new();
        let keys: Vec<SessionKey> = std::mem::take(&mut self.jobs_ready).into_iter().collect();
        for key in keys {
            let Some(session) = self.sessions.get_mut(&key) else {
                continue;
            };
            loop {
                let polled = match &mut session.state {
                    SessionState::Dkg(node) => node.poll_job(),
                    SessionState::Vss(node) => node.poll_job(),
                    SessionState::Sign(session) => session.poll_job(),
                    // The agreement broadcast is hash-free bookkeeping; it
                    // never prepares crypto jobs.
                    SessionState::Mod(_) => None,
                };
                let Some((inner, job)) = polled else {
                    break;
                };
                let id = self.next_job;
                self.next_job += 1;
                session.stats.jobs += 1;
                self.job_routes.insert(id, (key, inner));
                out.push(JobTicket {
                    id,
                    session: key,
                    job,
                });
            }
        }
        out
    }

    /// Pending (handed-out but unanswered) crypto jobs.
    pub fn jobs_in_flight(&self) -> usize {
        self.job_routes.len()
    }

    /// Feeds a job's verdict back into the session that prepared it,
    /// running the apply stage (which may emit transmits, events, timers —
    /// and prepare further jobs). Returns the session the job belonged to.
    pub fn complete_job(
        &mut self,
        id: u64,
        verdict: CryptoVerdict,
        now: WallClock,
    ) -> Result<SessionKey, Reject> {
        self.check_backpressure()?;
        let Some(&(key, inner)) = self.job_routes.get(&id) else {
            return Err(Reject::UnknownJob(id));
        };
        self.job_routes.remove(&id);
        if !self.sessions.contains_key(&key) {
            // The session was evicted while the job was in flight.
            return Err(Reject::UnknownSession(key));
        }
        match key {
            SessionKey::Dkg { .. } => self.run_dkg(key, now, |node, sink| {
                node.complete_job(inner, verdict, sink)
            }),
            SessionKey::Vss { .. } => {
                self.run_vss(key, now, |node| node.complete_job(inner, verdict))
            }
            SessionKey::Sign { .. } => self.run_sign(key, now, |session, sink| {
                session.complete_job(inner, &verdict, sink)
            }),
            // Unreachable in practice: Mod sessions never hand out jobs, so
            // no ticket can route back to one.
            SessionKey::Mod { .. } => {}
        }
        Ok(key)
    }

    /// Takes the next encoded datagram to send, if any.
    pub fn poll_transmit(&mut self) -> Option<Transmit> {
        self.outbox.pop_front()
    }

    /// Takes up to `max` queued transmits at once. Real-socket drivers
    /// prefer this over repeated [`Endpoint::poll_transmit`] calls: one
    /// drain per service pass instead of one `VecDeque` pop per datagram.
    pub fn poll_transmit_batch(&mut self, max: usize) -> Vec<Transmit> {
        let take = max.min(self.outbox.len());
        self.outbox.drain(..take).collect()
    }

    /// Takes the next application event, if any.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    /// Queued (undelivered) transmits.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    fn run_dkg<F>(&mut self, key: SessionKey, now: WallClock, f: F)
    where
        F: FnOnce(&mut DkgNode, &mut ActionSink<DkgMessage, DkgOutput>),
    {
        let session = self.sessions.get_mut(&key).expect("caller checked");
        let SessionState::Dkg(node) = &mut session.state else {
            unreachable!("dkg key hosts a dkg session");
        };
        let mut sink = ActionSink::new();
        f(node, &mut sink);
        let complete = node.is_complete();
        let tau = node.tau();
        for action in sink.into_actions() {
            match action {
                Action::Send { to, message } => {
                    let kind = message.kind();
                    let payload = encode_datagram_versioned(
                        self.config.wire_version,
                        Header {
                            protocol: key.protocol(),
                            channel: key.channel(),
                        },
                        &message,
                    );
                    session.stats.datagrams_out += 1;
                    session.stats.bytes_out += payload.len() as u64;
                    self.outbox.push_back(Transmit {
                        to,
                        session: key,
                        kind,
                        payload,
                    });
                }
                Action::Output(output) => {
                    session.stats.events += 1;
                    self.events.push_back(Event::Dkg { tau, output });
                }
                Action::SetTimer { id, delay } => {
                    session.timers.insert(id, now.saturating_add(delay));
                }
                Action::CancelTimer { id } => {
                    session.timers.remove(&id);
                }
            }
        }
        if complete && session.stats.completed_at.is_none() {
            session.stats.completed_at = Some(now);
        }
        let SessionState::Dkg(node) = &session.state else {
            unreachable!("dkg key hosts a dkg session");
        };
        if node.has_queued_jobs() {
            self.jobs_ready.insert(key);
        }
    }

    fn run_vss<F>(&mut self, key: SessionKey, now: WallClock, f: F)
    where
        F: FnOnce(&mut VssNode) -> Vec<dkg_vss::VssAction>,
    {
        let session = self.sessions.get_mut(&key).expect("caller checked");
        let SessionState::Vss(node) = &mut session.state else {
            unreachable!("vss key hosts a vss session");
        };
        let actions = f(node);
        let complete = node.is_complete();
        let sid = node.session();
        for action in actions {
            match action {
                dkg_vss::VssAction::Send { to, message } => {
                    let kind = message.kind();
                    let payload = encode_datagram_versioned(
                        self.config.wire_version,
                        Header {
                            protocol: key.protocol(),
                            channel: key.channel(),
                        },
                        &message,
                    );
                    session.stats.datagrams_out += 1;
                    session.stats.bytes_out += payload.len() as u64;
                    self.outbox.push_back(Transmit {
                        to,
                        session: key,
                        kind,
                        payload,
                    });
                }
                dkg_vss::VssAction::Output(output) => {
                    session.stats.events += 1;
                    self.events.push_back(Event::Vss {
                        session: sid,
                        output,
                    });
                }
            }
        }
        if complete && session.stats.completed_at.is_none() {
            session.stats.completed_at = Some(now);
        }
        let SessionState::Vss(node) = &session.state else {
            unreachable!("vss key hosts a vss session");
        };
        if node.has_queued_jobs() {
            self.jobs_ready.insert(key);
        }
    }

    fn run_sign<F>(&mut self, key: SessionKey, now: WallClock, f: F)
    where
        F: FnOnce(&mut SignSession, &mut ActionSink<TssMessage, TssOutput>),
    {
        let session = self.sessions.get_mut(&key).expect("caller checked");
        let SessionState::Sign(machine) = &mut session.state else {
            unreachable!("sign key hosts a signing session");
        };
        let mut sink = ActionSink::new();
        f(machine, &mut sink);
        let sid = machine.sid();
        for action in sink.into_actions() {
            match action {
                Action::Send { to, message } => {
                    let kind = message.kind();
                    let payload = encode_datagram_versioned(
                        self.config.wire_version,
                        Header {
                            protocol: key.protocol(),
                            channel: key.channel(),
                        },
                        &message,
                    );
                    session.stats.datagrams_out += 1;
                    session.stats.bytes_out += payload.len() as u64;
                    self.outbox.push_back(Transmit {
                        to,
                        session: key,
                        kind,
                        payload,
                    });
                }
                Action::Output(output) => {
                    session.stats.events += 1;
                    self.events.push_back(Event::Tss { sid, output });
                }
                Action::SetTimer { id, delay } => {
                    session.timers.insert(id, now.saturating_add(delay));
                }
                Action::CancelTimer { id } => {
                    session.timers.remove(&id);
                }
            }
        }
        let SessionState::Sign(machine) = &session.state else {
            unreachable!("sign key hosts a signing session");
        };
        if machine.has_queued_jobs() {
            self.jobs_ready.insert(key);
        }
    }

    fn run_mod<F>(&mut self, key: SessionKey, now: WallClock, f: F)
    where
        F: FnOnce(&mut GroupModNode, &mut ActionSink<GroupModMessage, GroupModOutput>),
    {
        let session = self.sessions.get_mut(&key).expect("caller checked");
        let SessionState::Mod(node) = &mut session.state else {
            unreachable!("mod key hosts a group-mod session");
        };
        let SessionKey::Mod { era } = key else {
            unreachable!("mod key hosts a group-mod session");
        };
        let mut sink = ActionSink::new();
        f(node, &mut sink);
        for action in sink.into_actions() {
            match action {
                Action::Send { to, message } => {
                    let kind = message.kind();
                    let payload = encode_datagram_versioned(
                        self.config.wire_version,
                        Header {
                            protocol: key.protocol(),
                            channel: key.channel(),
                        },
                        &message,
                    );
                    session.stats.datagrams_out += 1;
                    session.stats.bytes_out += payload.len() as u64;
                    self.outbox.push_back(Transmit {
                        to,
                        session: key,
                        kind,
                        payload,
                    });
                }
                Action::Output(output) => {
                    session.stats.events += 1;
                    self.events.push_back(Event::Mod { era, output });
                }
                Action::SetTimer { id, delay } => {
                    session.timers.insert(id, now.saturating_add(delay));
                }
                Action::CancelTimer { id } => {
                    session.timers.remove(&id);
                }
            }
        }
        // No completed_at: like signing, the agreement stays open for late
        // deltas. No jobs_ready tail: GroupModNode prepares no crypto jobs.
    }
}
