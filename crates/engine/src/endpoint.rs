//! The sans-I/O protocol endpoint.
//!
//! [`Endpoint`] multiplexes many concurrent sessions — DKG runs, standalone
//! HybridVSS sharings, threshold-signing services and §6 group-modification
//! agreements, each under its [`SessionKey`] — behind a quinn-style poll
//! API. It performs **no I/O and keeps no clock**: the caller feeds it
//! received datagrams and the current time (`handle_datagram`,
//! `handle_timeout`) and drains what the endpoint wants to do
//! (`poll_transmit`, `poll_event`, `poll_timeout`). This makes the same
//! protocol state machines runnable over UDP, TCP, TLS, an async reactor or
//! the deterministic test network in [`crate::net`], without the state
//! machines knowing anything about transports.
//!
//! Every hosted machine is a [`dkg_sim::Protocol`] behind the crate-private
//! `Hosted` contract (`session.rs`), so the endpoint itself is generic
//! routing, persistence and statistics: one datagram path, one
//! operator-input path and one run loop, whichever kind of session.
//!
//! Untrusted input is handled totally: every malformed, wrong-version,
//! oversized, unknown-session or mis-routed datagram is refused with a typed
//! [`Reject`] — never a panic — and counted in the endpoint's statistics.
//! The outbox is bounded: once `outbox_capacity` encoded datagrams are
//! queued, further input is refused with [`Reject::Backpressure`] until the
//! caller drains `poll_transmit`, so a slow transport applies backpressure
//! to the protocol instead of growing memory without limit.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dkg_core::group::{GroupModInput, GroupModNode};
use dkg_core::{DkgInput, DkgNode, DkgResult};
use dkg_crypto::NodeId;
use dkg_poly::{CryptoJob, CryptoVerdict};
use dkg_sim::{Action, ActionSink, MessageKind, Protocol, TimerId};
use dkg_store::{StoreError, StoreHandle, WalRecord};
use dkg_tss::{SignSession, TssInput};
use dkg_vss::{SessionId, VssInput, VssNode};
use dkg_wire::{decode_datagram_versioned, encode_datagram_versioned, Header, WireError, VERSION};

use crate::persist::{EndpointSnapshot, PersistStats, RestoreError, SessionSnapshot};
use crate::session::{dispatch, Hosted, Machine, Named, Sink};
pub use crate::session::{Event, SessionKey};

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
    /// the in-memory state. Adding or evicting a session is refused the
    /// same way when the snapshot recording it cannot be written.
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

/// One hosted session: the machine plus the endpoint's books on it.
struct Session {
    machine: Machine,
    books: Books,
}

#[derive(Default)]
struct Books {
    timers: BTreeMap<TimerId, WallClock>,
    stats: SessionStats,
}

impl Session {
    fn is_complete(&self) -> bool {
        dispatch!(&self.machine, slot => Hosted::is_complete(&*slot.node))
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

/// The part of the endpoint a session's step writes to — the queues and the
/// write-ahead log — kept apart from the session table so a step can borrow
/// both at once.
#[derive(Default)]
struct Host {
    config: EndpointConfig,
    outbox: VecDeque<Transmit>,
    events: VecDeque<Event>,
    /// Sessions that queued jobs since the last [`Endpoint::poll_jobs`], so
    /// polling costs O(sessions with work), not O(hosted sessions).
    jobs_ready: BTreeSet<SessionKey>,
    /// Persistence counters.
    persist: PersistStats,
    /// `true` while [`Endpoint::restore`] replays the write-ahead log:
    /// replayed inputs must not be appended again, and compaction is
    /// deferred until the replay finishes.
    replaying: bool,
}

impl Host {
    /// Runs one handler of a hosted machine and carries out what it asked
    /// for: sends are encoded into the outbox, outputs become events,
    /// timers are armed and cancelled, completion and queued crypto jobs
    /// are noted. Every input to every kind of session ends here.
    fn run<M: Hosted>(
        &mut self,
        slot: &mut Named<M>,
        books: &mut Books,
        now: WallClock,
        handler: impl FnOnce(&mut M, &mut Sink<M>),
    ) {
        let Books { timers, stats } = books;
        let key = slot.key();
        let mut sink = ActionSink::new();
        handler(&mut *slot.node, &mut sink);
        for action in sink.into_actions() {
            match action {
                Action::Send { to, message } => {
                    let kind = message.kind();
                    let header = Header {
                        protocol: key.protocol(),
                        channel: key.channel(),
                    };
                    let payload =
                        encode_datagram_versioned(self.config.wire_version, header, &message);
                    stats.datagrams_out += 1;
                    stats.bytes_out += payload.len() as u64;
                    self.outbox.push_back(Transmit {
                        to,
                        session: key,
                        kind,
                        payload,
                    });
                }
                Action::Output(output) => {
                    stats.events += 1;
                    self.events.push_back(M::event(slot.name, output));
                }
                Action::SetTimer { id, delay } => {
                    timers.insert(id, now.saturating_add(delay));
                }
                Action::CancelTimer { id } => {
                    timers.remove(&id);
                }
            }
        }
        if stats.completed_at.is_none() && Hosted::is_complete(&*slot.node) {
            stats.completed_at = Some(now);
        }
        if Hosted::has_queued_jobs(&*slot.node) {
            self.jobs_ready.insert(key);
        }
    }

    /// Records an accepted input in the WAL (write-ahead: the caller only
    /// mutates state on `Ok`), counting the frame against the session it
    /// belongs to, if any. During a restore's replay the same call
    /// re-counts the frame instead of re-appending it, so the statistics
    /// of a restored endpoint match an uninterrupted one exactly.
    fn persist_input(
        &mut self,
        session: Option<&mut SessionStats>,
        record: &WalRecord,
    ) -> Result<(), Reject> {
        if self.replaying {
            self.persist.wal_replayed += 1;
        } else {
            let Some(store) = &self.config.store else {
                return Ok(());
            };
            if let Err(err) = store.append(record) {
                self.persist.persist_errors += 1;
                return Err(Reject::PersistFailed(err));
            }
            self.persist.wal_appended += 1;
        }
        if let Some(stats) = session {
            stats.wal_frames += 1;
        }
        Ok(())
    }

    /// Whether inputs need a [`WalRecord`] at all — callers skip even
    /// *building* the record (a datagram copy) on the hot path of a
    /// store-less endpoint.
    fn persistence_active(&self) -> bool {
        self.replaying || self.config.store.is_some()
    }
}

/// A sans-I/O endpoint multiplexing protocol sessions for one node.
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
    host: Host,
    sessions: BTreeMap<SessionKey, Session>,
    stats: EndpointStats,
    next_job: u64,
    /// Routes an endpoint-level job id to the session that prepared it and
    /// the session's own (inner) job id.
    job_routes: BTreeMap<u64, (SessionKey, u64)>,
}

impl Endpoint {
    /// Creates an endpoint for node `id`.
    pub fn new(id: NodeId, config: EndpointConfig) -> Self {
        Endpoint {
            id,
            host: Host {
                config,
                ..Host::default()
            },
            sessions: BTreeMap::new(),
            stats: EndpointStats::default(),
            next_job: 0,
            job_routes: BTreeMap::new(),
        }
    }

    /// The node this endpoint speaks for.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The endpoint's configuration (incl. its store handle, which a
    /// network driver needs to rebuild the endpoint after a crash).
    pub fn config(&self) -> &EndpointConfig {
        &self.host.config
    }

    /// Aggregate endpoint counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Persistence counters.
    pub fn persist_stats(&self) -> PersistStats {
        self.host.persist
    }

    /// Bytes currently held by the configured store (snapshot + WAL), or 0
    /// without a store.
    pub fn stored_bytes(&self) -> u64 {
        let store = self.host.config.store.as_ref();
        store.map_or(0, StoreHandle::stored_bytes)
    }

    /// Keys of all hosted sessions, in order.
    pub fn session_keys(&self) -> Vec<SessionKey> {
        self.sessions.keys().copied().collect()
    }

    /// Per-session counters.
    pub fn session_stats(&self, key: SessionKey) -> Option<SessionStats> {
        self.sessions.get(&key).map(|s| s.books.stats)
    }

    /// Whether the given session's protocol has completed.
    pub fn is_complete(&self, key: SessionKey) -> bool {
        self.sessions.get(&key).is_some_and(Session::is_complete)
    }

    /// Read access to a hosted DKG state machine.
    pub fn dkg_session(&self, tau: u64) -> Option<&DkgNode> {
        self.hosted(tau)
    }

    /// Read access to a hosted VSS state machine.
    pub fn vss_session(&self, session: SessionId) -> Option<&VssNode> {
        self.hosted(session)
    }

    /// Read access to a hosted signing session.
    pub fn sign_session(&self, sid: u64) -> Option<&SignSession> {
        self.hosted(sid)
    }

    /// Read access to a hosted group-modification agreement.
    pub fn mod_session(&self, era: u64) -> Option<&GroupModNode> {
        self.hosted(era)
    }

    fn hosted<M: Hosted>(&self, name: M::Name) -> Option<&M> {
        let slot = self.sessions.get(&M::key(name))?.machine.hosted::<M>()?;
        Some(&slot.node)
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
        self.add_session(Machine::Dkg(Named::new(node.tau(), node)))
    }

    /// Adds a standalone VSS session (keyed by its `(dealer, τ)`).
    ///
    /// Same store-quiescence requirement as [`Endpoint::add_dkg_session`].
    pub fn add_vss_session(&mut self, node: VssNode) -> Result<SessionKey, Reject> {
        self.add_session(Machine::Vss(Named::new(node.session(), node)))
    }

    /// Adds a threshold-signing session (keyed by its `sid`) — typically
    /// built with [`SignSession::from_dkg_result`] from a completed DKG
    /// hosted on this same endpoint.
    ///
    /// Same store-quiescence requirement as [`Endpoint::add_dkg_session`].
    pub fn add_sign_session(&mut self, session: SignSession) -> Result<SessionKey, Reject> {
        self.add_session(Machine::Sign(Named::new(session.sid(), session)))
    }

    /// Adds a group-modification agreement session under the given era.
    /// The agreement itself carries no era — it is a routing key chosen by
    /// the deployment (one agreement per configuration epoch).
    ///
    /// Same store-quiescence requirement as [`Endpoint::add_dkg_session`].
    pub fn add_mod_session(&mut self, era: u64, node: GroupModNode) -> Result<SessionKey, Reject> {
        self.add_session(Machine::Mod(Named::new(era, node)))
    }

    fn add_session(&mut self, machine: Machine) -> Result<SessionKey, Reject> {
        self.insert_session(machine, Books::default())
    }

    fn insert_session(&mut self, mut machine: Machine, books: Books) -> Result<SessionKey, Reject> {
        // The endpoint owns the inline/deferred decision for everything it
        // hosts.
        let deferred = self.host.config.defer_crypto;
        let (node, key) = dispatch!(&mut machine, slot => {
            Hosted::set_deferred_crypto(&mut *slot.node, deferred);
            (slot.node.id(), slot.key())
        });
        if node != self.id {
            let endpoint = self.id;
            return Err(Reject::WrongNode { endpoint, node });
        }
        let Entry::Vacant(vacancy) = self.sessions.entry(key) else {
            return Err(Reject::DuplicateSession(key));
        };
        vacancy.insert(Session { machine, books });
        // Session membership must be durable before the session can log
        // anything: a WAL record for a session the snapshot does not know
        // would be unreplayable. Adding a session therefore writes a fresh
        // snapshot (which also compacts the log); if that fails, the
        // addition is rolled back and refused.
        if let Err(reject) = self.persist_membership() {
            self.sessions.remove(&key);
            return Err(reject);
        }
        Ok(key)
    }

    /// Makes the session table as it now stands durable; on `Err` the caller
    /// takes its change back.
    fn persist_membership(&mut self) -> Result<(), Reject> {
        self.write_snapshot().map(drop).map_err(|err| {
            self.host.persist.persist_errors += 1;
            Reject::PersistFailed(err)
        })
    }

    /// Removes a session, returning its final counters.
    ///
    /// Like adding one, eviction is durable or refused: with a configured
    /// store it writes a fresh snapshot, so a later [`Endpoint::restore`]
    /// does not resurrect the session; if that fails (crypto jobs in
    /// flight, store error) the session stays and the call returns
    /// [`Reject::PersistFailed`].
    pub fn evict(&mut self, key: SessionKey) -> Result<SessionStats, Reject> {
        match self.evict_all(vec![key])?.pop() {
            Some((_, stats)) => Ok(stats),
            None => Err(Reject::UnknownSession(key)),
        }
    }

    /// Removes every completed session, returning their keys and counters.
    /// Queued transmits and events of evicted sessions survive (they are
    /// already encoded / surfaced). Durable or refused as a whole, like
    /// [`Endpoint::evict`].
    pub fn evict_completed(&mut self) -> Result<Vec<(SessionKey, SessionStats)>, Reject> {
        let done = self.sessions.iter().filter(|(_, s)| s.is_complete());
        let done = done.map(|(&key, _)| key).collect();
        self.evict_all(done)
    }

    fn evict_all(
        &mut self,
        keys: Vec<SessionKey>,
    ) -> Result<Vec<(SessionKey, SessionStats)>, Reject> {
        let removed: Vec<(SessionKey, Session)> = keys
            .into_iter()
            .filter_map(|key| Some((key, self.sessions.remove(&key)?)))
            .collect();
        if removed.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.evicted += removed.len() as u64;
        if let Err(reject) = self.persist_membership() {
            self.stats.evicted -= removed.len() as u64;
            self.sessions.extend(removed);
            return Err(reject);
        }
        Ok(removed
            .into_iter()
            .map(|(k, s)| (k, s.books.stats))
            .collect())
    }

    /// Number of hosted sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Counts a refusal that never reached a session.
    fn refuse(&mut self, reject: Reject) -> Reject {
        self.stats.rejected += 1;
        reject
    }

    fn check_backpressure(&mut self) -> Result<(), Reject> {
        let capacity = self.host.config.outbox_capacity;
        if self.host.outbox.len() >= capacity {
            return Err(self.refuse(Reject::Backpressure { capacity }));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Persistence (write-ahead log + snapshots)
    // ------------------------------------------------------------------

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
            sessions.push(SessionSnapshot {
                key,
                stats: session.books.stats,
                timers: session.books.timers.iter().map(|(&t, &d)| (t, d)).collect(),
                state: dispatch!(&session.machine, slot => Hosted::snapshot(&*slot.node))?,
            });
        }
        Some(EndpointSnapshot {
            id: self.id,
            stats: self.stats,
            persist: self.host.persist,
            sessions,
        })
    }

    /// Installs a fresh snapshot into the configured store, truncating its
    /// WAL. `Ok(false)` without a store, and during a replay.
    fn write_snapshot(&mut self) -> Result<bool, StoreError> {
        let Some(store) = &self.host.config.store else {
            return Ok(false);
        };
        if self.host.replaying {
            return Ok(false);
        }
        let snapshot = self.snapshot().ok_or(StoreError::SnapshotUnavailable)?;
        store.install_snapshot(&snapshot.to_bytes())?;
        self.host.persist.snapshots_written += 1;
        Ok(true)
    }

    /// Compacts the write-ahead log into a fresh snapshot when it grew past
    /// [`EndpointConfig::wal_compact_bytes`] — but only at a quiescent
    /// point (empty outbox and event queue, no crypto jobs pending), so
    /// the snapshot is self-contained. Drivers call this after draining;
    /// returns whether a snapshot was written. Failures are counted in
    /// [`PersistStats::persist_errors`] and retried at the next call.
    pub fn maybe_compact(&mut self) -> bool {
        let Host { config, .. } = &self.host;
        let due = |store: &StoreHandle| store.wal_bytes() >= config.wal_compact_bytes;
        if !config.store.as_ref().is_some_and(due)
            || !self.host.outbox.is_empty()
            || !self.host.events.is_empty()
        {
            return false;
        }
        match self.write_snapshot() {
            Ok(written) => written,
            Err(StoreError::SnapshotUnavailable) => false,
            Err(_) => {
                self.host.persist.persist_errors += 1;
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
        endpoint.host.replaying = true;
        endpoint.stats = image.stats;
        endpoint.host.persist = image.persist;
        for session in image.sessions {
            let machine = Machine::restore(session.key, session.state, image.id)?;
            let books = Books {
                timers: session.timers.into_iter().collect(),
                stats: session.stats,
            };
            endpoint.insert_session(machine, books).map_err(|_| {
                StoreError::Corrupt(WireError::InvalidValue {
                    context: "duplicate session in snapshot",
                })
            })?;
        }

        for record in stored.wal {
            let at = record.at();
            match record {
                WalRecord::Datagram { at, from, bytes } => {
                    let _ = endpoint.handle_datagram(from, &bytes, at);
                }
                WalRecord::DkgOperator { at, tau, input } => {
                    let _ = endpoint.handle_dkg_input(tau, input, at);
                }
                WalRecord::VssOperator { at, session, input } => {
                    let _ = endpoint.handle_vss_input(session, input, at);
                }
                WalRecord::TssOperator { at, sid, input } => {
                    let _ = endpoint.handle_tss_input(sid, input, at);
                }
                WalRecord::ModOperator { at, era, input } => {
                    let _ = endpoint.handle_mod_input(era, input, at);
                }
                WalRecord::Timeout { at } => endpoint.handle_timeout(at),
            }
            endpoint.quiesce_discard(at);
        }
        endpoint.host.replaying = false;
        endpoint.host.persist.recoveries += 1;
        Ok(endpoint)
    }

    /// Replay helper: runs every pending crypto job inline (verdicts are
    /// pure functions of the jobs, so this matches whatever executor the
    /// live run used) and discards the transmits/events the replay
    /// re-emits.
    fn quiesce_discard(&mut self, now: WallClock) {
        loop {
            self.host.outbox.clear();
            self.host.events.clear();
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
                    self.host.outbox.clear();
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
        self.handle_input::<DkgNode>(tau, input, now)
    }

    /// Feeds an operator input to a VSS session (share, reconstruct,
    /// recover).
    pub fn handle_vss_input(
        &mut self,
        session: SessionId,
        input: VssInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.handle_input::<VssNode>(session, input, now)
    }

    /// Feeds an operator input to a signing session (sign, recover).
    pub fn handle_tss_input(
        &mut self,
        sid: u64,
        input: TssInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.handle_input::<SignSession>(sid, input, now)
    }

    /// Feeds an operator input to a group-modification agreement (propose).
    pub fn handle_mod_input(
        &mut self,
        era: u64,
        input: GroupModInput,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.handle_input::<GroupModNode>(era, input, now)
    }

    fn handle_input<M: Hosted>(
        &mut self,
        name: M::Name,
        input: M::Operator,
        now: WallClock,
    ) -> Result<(), Reject> {
        self.check_backpressure()?;
        let key = M::key(name);
        let hosted = self
            .sessions
            .get_mut(&key)
            .and_then(|session| Some((session.machine.hosted_mut::<M>()?, &mut session.books)));
        let Some((slot, books)) = hosted else {
            return Err(self.refuse(Reject::UnknownSession(key)));
        };
        let record = M::wal_record(name, now, input.clone());
        self.host.persist_input(Some(&mut books.stats), &record)?;
        let handler = |node: &mut M, sink: &mut Sink<M>| node.on_operator(input, sink);
        self.host.run(slot, books, now, handler);
        Ok(())
    }

    /// Runs the crash-recovery procedure of every hosted session (§5.3):
    /// called by the application after rebooting from stable storage. (A
    /// machine without one — the agreement broadcast, whose whole state
    /// rides the snapshot + WAL replay — does nothing.)
    pub fn recover_all(&mut self, now: WallClock) {
        for Session { machine, books } in self.sessions.values_mut() {
            dispatch!(machine, slot => {
                self.host.run(slot, books, now, |node, sink| node.on_recover(sink))
            });
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
        let (len, max) = (datagram.len(), self.host.config.max_datagram_len);
        if len > max {
            return Err(self.refuse(Reject::OversizedDatagram { len, max }));
        }
        let (_version, header, payload) =
            decode_datagram_versioned(datagram, self.host.config.max_wire_version)
                .map_err(|e| self.refuse(Reject::Malformed(e)))?;
        let key =
            SessionKey::from_header(&header).map_err(|e| self.refuse(Reject::Malformed(e)))?;
        let Some(Session { machine, books }) = self.sessions.get_mut(&key) else {
            return Err(self.refuse(Reject::UnknownSession(key)));
        };
        dispatch!(machine, slot => {
            let message = slot
                .decode(payload)
                .inspect_err(|_| books.stats.rejected += 1)?;
            if self.host.persistence_active() {
                let bytes = datagram.to_vec();
                let record = WalRecord::Datagram { at: now, from, bytes };
                self.host.persist_input(Some(&mut books.stats), &record)?;
            }
            books.stats.datagrams_in += 1;
            books.stats.bytes_in += len as u64;
            self.host.run(slot, books, now, |node, sink| {
                node.on_message(from, message, sink)
            });
        });
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
                    .books
                    .timers
                    .iter()
                    .filter(move |(_, &deadline)| deadline <= now)
                    .map(move |(&timer, _)| (key, timer))
            })
            .collect();
        if due.is_empty() {
            return;
        }
        let record = WalRecord::Timeout { at: now };
        if self.host.persist_input(None, &record).is_err() {
            return;
        }
        for (key, timer) in due {
            let Some(Session { machine, books }) = self.sessions.get_mut(&key) else {
                continue;
            };
            // An earlier firing in this same batch may have cancelled the
            // timer or re-armed it to a *future* deadline; in either case
            // it is no longer due and must survive untouched.
            if books.timers.get(&timer).is_none_or(|&due| due > now) {
                continue;
            }
            books.timers.remove(&timer);
            dispatch!(machine, slot => {
                self.host.run(slot, books, now, |node, sink| node.on_timer(timer, sink))
            });
        }
    }

    /// The earliest timer deadline across all sessions, if any.
    pub fn poll_timeout(&self) -> Option<WallClock> {
        self.sessions
            .values()
            .flat_map(|s| s.books.timers.values().copied())
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
        for key in std::mem::take(&mut self.host.jobs_ready) {
            let Some(session) = self.sessions.get_mut(&key) else {
                continue;
            };
            while let Some((inner, job)) =
                dispatch!(&mut session.machine, slot => Hosted::poll_job(&mut *slot.node))
            {
                let id = self.next_job;
                self.next_job += 1;
                session.books.stats.jobs += 1;
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
        let Some((key, inner)) = self.job_routes.remove(&id) else {
            return Err(Reject::UnknownJob(id));
        };
        let Some(Session { machine, books }) = self.sessions.get_mut(&key) else {
            // The session was evicted while the job was in flight.
            return Err(Reject::UnknownSession(key));
        };
        dispatch!(machine, slot => {
            self.host.run(slot, books, now, |node, sink| {
                Hosted::complete_job(node, inner, verdict, sink)
            })
        });
        Ok(key)
    }

    /// Takes the next encoded datagram to send, if any.
    pub fn poll_transmit(&mut self) -> Option<Transmit> {
        self.host.outbox.pop_front()
    }

    /// Takes up to `max` queued transmits at once. Real-socket drivers
    /// prefer this over repeated [`Endpoint::poll_transmit`] calls: one
    /// drain per service pass instead of one `VecDeque` pop per datagram.
    pub fn poll_transmit_batch(&mut self, max: usize) -> Vec<Transmit> {
        let take = max.min(self.host.outbox.len());
        self.host.outbox.drain(..take).collect()
    }

    /// Takes the next application event, if any.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.host.events.pop_front()
    }

    /// Queued (undelivered) transmits.
    pub fn outbox_len(&self) -> usize {
        self.host.outbox.len()
    }
}
