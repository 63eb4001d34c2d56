//! A deterministic byte-level network for endpoints.
//!
//! [`EndpointNet`] is the transport the [`crate::Endpoint`] poll API plugs
//! into for tests, examples and experiments: a discrete-event simulation
//! that carries **real encoded datagrams** (`Vec<u8>`) between endpoints
//! with pseudo-random link delays — or a full [`ChaosModel`] (asymmetric
//! per-link latency, reordering windows, timed partitions that heal) —
//! plus crash/recovery of nodes, muted (Byzantine-silent) nodes, raw
//! datagram injection, and **adversary-controlled nodes**: a
//! [`CorruptEndpoint`] receives its traffic like any endpoint and emits
//! whatever its attack strategy crafts, tagged [`DatagramOrigin::Adversary`]
//! so rejections stay attributable. Because every delivered frame is the
//! canonical [`dkg_wire`] encoding, the [`dkg_sim::Metrics`] it collects
//! measure the paper's communication complexity on actual bytes — nothing
//! is estimated.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use dkg_core::group::GroupModInput;
use dkg_core::DkgInput;
use dkg_crypto::{sha256, NodeId};
use dkg_sim::{ChaosModel, DelayModel, LinkFate, Metrics};
use dkg_tss::TssInput;
use dkg_vss::{SessionId, VssInput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::endpoint::{Endpoint, EndpointConfig, Event, Reject, WallClock};
use crate::executor::{Executor, InlineExecutor};
use crate::persist::{PersistStats, RestoreError};

/// Default cap on processed events, protecting against runaway protocols.
const DEFAULT_EVENT_LIMIT: u64 = 50_000_000;

enum NetEvent {
    Deliver {
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
        origin: DatagramOrigin,
    },
    Wake {
        node: NodeId,
    },
    CorruptStart {
        node: NodeId,
    },
    /// An operator input: the typed `Endpoint::handle_*_input` call it
    /// stands for, bound to its session and input at scheduling time.
    Input {
        node: NodeId,
        apply: OperatorInput,
    },
    Crash(NodeId),
    Recover(NodeId),
}

type OperatorInput = Box<dyn FnOnce(&mut Endpoint, WallClock) -> Result<(), Reject>>;

struct Scheduled {
    time: WallClock,
    seq: u64,
    event: NetEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// An application event collected during the run, tagged with time and node.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Simulated time of the event.
    pub time: WallClock,
    /// The endpoint that produced it.
    pub node: NodeId,
    /// The event.
    pub event: Event,
}

/// Where a datagram handed to the network came from — kept alongside every
/// [`RejectRecord`] so chaos tests can assert *why* a frame was refused:
/// a protocol-level refusal of an adversary-crafted frame is evidence of a
/// detected attack, a refusal of an honest frame is a bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatagramOrigin {
    /// Emitted by a hosted (honest) [`Endpoint`]'s `poll_transmit`.
    Honest,
    /// Raw bytes injected through [`EndpointNet::inject_datagram`]
    /// (malformed-input and fault-injection tests).
    Injected,
    /// Crafted by a [`CorruptEndpoint`] — an adversary-controlled node.
    Adversary,
}

/// A datagram rejection observed during the run.
#[derive(Clone, Debug, PartialEq)]
pub struct RejectRecord {
    /// Simulated time of the rejection.
    pub time: WallClock,
    /// The endpoint that refused the datagram.
    pub node: NodeId,
    /// The claimed sender.
    pub from: NodeId,
    /// Where the refused datagram came from. Operator-input and job
    /// rejections (no datagram involved) are recorded as
    /// [`DatagramOrigin::Honest`].
    pub origin: DatagramOrigin,
    /// Why it was refused.
    pub reject: Reject,
}

/// A datagram an adversary-controlled node wants sent. `from` is the
/// *claimed* sender: a corrupted node may spoof another node's identity —
/// whether the receiver detects that (signature checks, point consistency)
/// is exactly what the adversary tests probe.
#[derive(Clone, Debug)]
pub struct CorruptSend {
    /// The claimed sender carried to the receiver.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The complete framed datagram.
    pub bytes: Vec<u8>,
}

/// A node under adversary control, driven by the network at the byte level
/// exactly like an honest [`Endpoint`]: datagrams addressed to the node are
/// fed in, emitted datagrams are carried (with link delays and chaos
/// applied) and tagged [`DatagramOrigin::Adversary`], and wake-ups fire at
/// the node's requested deadlines. Implementations live in the
/// `dkg-adversary` crate; the engine only defines the byte-level contract.
pub trait CorruptEndpoint {
    /// The node this adversary position controls.
    fn id(&self) -> NodeId;

    /// Called at the node's scheduled start
    /// ([`EndpointNet::schedule_corrupt_start`]).
    fn on_start(&mut self, now: WallClock) -> Vec<CorruptSend>;

    /// Called for every datagram delivered to the node.
    fn on_datagram(&mut self, from: NodeId, bytes: &[u8], now: WallClock) -> Vec<CorruptSend>;

    /// Called when the deadline from [`CorruptEndpoint::poll_wake`] is due.
    fn on_wake(&mut self, now: WallClock) -> Vec<CorruptSend>;

    /// The next wake-up the node wants, if any.
    fn poll_wake(&self) -> Option<WallClock>;
}

/// A deterministic datagram network connecting [`Endpoint`]s.
///
/// The network also owns the [`Executor`] that runs the endpoints' crypto
/// jobs. With the default [`InlineExecutor`] (and endpoints in their
/// default inline mode) nothing changes versus a pre-pipeline network; with
/// [`EndpointNet::with_executor`] and deferred endpoints, every job an
/// event produces is handed to the executor and its verdict applied in
/// job-id order before the next event runs — so runs are byte-identical
/// across executors and worker counts (`transcript_digest` proves it).
pub struct EndpointNet {
    endpoints: BTreeMap<NodeId, Endpoint>,
    /// Nodes currently down, with the endpoint configuration kept from the
    /// moment of the crash — the in-memory [`Endpoint`] itself is
    /// **dropped** (crash semantics are real): recovery rebuilds it from
    /// its configured store, or from nothing.
    crashed: BTreeMap<NodeId, EndpointConfig>,
    muted: BTreeSet<NodeId>,
    /// Adversary-controlled nodes, driven at the byte level alongside the
    /// honest endpoints.
    corrupt: BTreeMap<NodeId, Box<dyn CorruptEndpoint>>,
    queue: BinaryHeap<Scheduled>,
    scheduled_wake: BTreeMap<NodeId, WallClock>,
    chaos: ChaosModel,
    rng: StdRng,
    metrics: Metrics,
    events: Vec<EventRecord>,
    rejections: Vec<RejectRecord>,
    executor: Box<dyn Executor>,
    /// Datagrams dropped by an active [`dkg_sim::TimedPartition`].
    severed: u64,
    /// Copies of every adversary-emitted frame `(claimed_from, to, bytes)`,
    /// kept only when [`EndpointNet::record_adversary_frames`] opted in
    /// (the wire-validity property tests inspect them).
    adversary_frames: Option<Vec<(NodeId, NodeId, Vec<u8>)>>,
    /// Running hash over every datagram handed to the network, in order.
    /// `None` until [`EndpointNet::record_transcript`] opts in, so the
    /// per-datagram hashing costs nothing by default.
    transcript: Option<[u8; 32]>,
    /// Successful crash recoveries (endpoints rebuilt from their store or
    /// re-created fresh).
    recoveries: u64,
    /// Recoveries that failed to rebuild from the store `(node, error)`;
    /// the node stays down.
    recovery_failures: Vec<(NodeId, RestoreError)>,
    now: WallClock,
    seq: u64,
    processed: u64,
    event_limit: u64,
}

impl EndpointNet {
    /// Creates a network with the given link-delay model and RNG seed,
    /// running crypto jobs on an [`InlineExecutor`].
    pub fn new(delay: DelayModel, seed: u64) -> Self {
        Self::with_executor(delay, seed, Box::new(InlineExecutor::new()))
    }

    /// Creates a network whose endpoints' crypto jobs run on the given
    /// executor. Pair this with endpoints configured with
    /// [`defer_crypto`](crate::EndpointConfig::defer_crypto), otherwise the
    /// executor never sees work.
    pub fn with_executor(delay: DelayModel, seed: u64, executor: Box<dyn Executor>) -> Self {
        EndpointNet {
            endpoints: BTreeMap::new(),
            crashed: BTreeMap::new(),
            muted: BTreeSet::new(),
            corrupt: BTreeMap::new(),
            queue: BinaryHeap::new(),
            scheduled_wake: BTreeMap::new(),
            chaos: ChaosModel::from(delay),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            events: Vec::new(),
            rejections: Vec::new(),
            executor,
            severed: 0,
            adversary_frames: None,
            transcript: None,
            recoveries: 0,
            recovery_failures: Vec::new(),
            now: 0,
            seq: 0,
            processed: 0,
            event_limit: DEFAULT_EVENT_LIMIT,
        }
    }

    /// Replaces the link model with a full [`ChaosModel`] (asymmetric
    /// per-link delays, reordering jitter, timed partitions that heal).
    /// Call before scheduling any input; changing the model mid-run would
    /// change the RNG stream of every later sample.
    pub fn set_chaos(&mut self, chaos: ChaosModel) {
        self.chaos = chaos;
    }

    /// Datagrams dropped by an active partition so far.
    pub fn severed(&self) -> u64 {
        self.severed
    }

    /// Starts folding every subsequently sent datagram `(from, to, bytes)`
    /// into a running SHA-256 — the byte-level transcript of the run. Call
    /// it before scheduling any input; off by default so ordinary runs pay
    /// no per-datagram hashing.
    pub fn record_transcript(&mut self) {
        self.transcript.get_or_insert([0u8; 32]);
    }

    /// The transcript digest, if [`EndpointNet::record_transcript`] was
    /// enabled. Two runs with identical digests sent identical bytes in
    /// the identical order, which is how the executor-determinism tests
    /// compare a worker pool against inline execution.
    pub fn transcript_digest(&self) -> Option<[u8; 32]> {
        self.transcript
    }

    /// Adds an endpoint. Panics on duplicate node ids.
    pub fn add_endpoint(&mut self, endpoint: Endpoint) {
        let id = endpoint.id();
        assert!(
            !self.corrupt.contains_key(&id),
            "node {id} is adversary-controlled"
        );
        assert!(
            self.endpoints.insert(id, endpoint).is_none(),
            "duplicate endpoint id {id}"
        );
    }

    /// Hands a node to the adversary: datagrams addressed to it are fed to
    /// the [`CorruptEndpoint`], and everything it emits enters the network
    /// tagged [`DatagramOrigin::Adversary`]. Panics if the id collides with
    /// an honest endpoint or another corrupted node.
    pub fn add_corrupt_endpoint(&mut self, node: Box<dyn CorruptEndpoint>) {
        let id = node.id();
        assert!(
            !self.endpoints.contains_key(&id),
            "node {id} already hosts an honest endpoint"
        );
        // A crashed honest node still owns its id: recovery would silently
        // shadow it behind the corrupt entry otherwise.
        assert!(
            !self.crashed.contains_key(&id),
            "node {id} is a crashed honest endpoint"
        );
        assert!(
            self.corrupt.insert(id, node).is_none(),
            "duplicate corrupt node id {id}"
        );
    }

    /// Whether `node` is adversary-controlled.
    pub fn is_corrupt(&self, node: NodeId) -> bool {
        self.corrupt.contains_key(&node)
    }

    /// Ids of all adversary-controlled nodes.
    pub fn corrupt_ids(&self) -> Vec<NodeId> {
        self.corrupt.keys().copied().collect()
    }

    /// Schedules the adversary-controlled node's start
    /// ([`CorruptEndpoint::on_start`]) — the corrupted counterpart of
    /// [`EndpointNet::schedule_dkg_input`].
    pub fn schedule_corrupt_start(&mut self, node: NodeId, at: WallClock) {
        self.push(at, NetEvent::CorruptStart { node });
    }

    /// Starts keeping a copy of every adversary-emitted frame (claimed
    /// sender, destination, bytes). Off by default; the wire-validity
    /// property tests use the copies to prove that every strategy emits
    /// only frames the codec accepts.
    pub fn record_adversary_frames(&mut self) {
        self.adversary_frames.get_or_insert_with(Vec::new);
    }

    /// The recorded adversary frames, if
    /// [`EndpointNet::record_adversary_frames`] opted in.
    pub fn adversary_frames(&self) -> &[(NodeId, NodeId, Vec<u8>)] {
        self.adversary_frames.as_deref().unwrap_or(&[])
    }

    /// Read access to an endpoint.
    pub fn endpoint(&self, id: NodeId) -> Option<&Endpoint> {
        self.endpoints.get(&id)
    }

    /// Mutable access to an endpoint (tests inspect or evict sessions
    /// between runs).
    pub fn endpoint_mut(&mut self, id: NodeId) -> Option<&mut Endpoint> {
        self.endpoints.get_mut(&id)
    }

    /// Ids of all endpoints.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.endpoints.keys().copied().collect()
    }

    /// The current simulated time.
    pub fn now(&self) -> WallClock {
        self.now
    }

    /// Byte-accurate traffic metrics: sizes are the lengths of the real
    /// framed datagrams, i.e. [`dkg_wire::HEADER_LEN`] (22 bytes of
    /// version/routing/length framing) **plus** the message payload
    /// (`WireEncode::encoded_len()`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Application events produced so far.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Datagram rejections observed so far.
    pub fn rejections(&self) -> &[RejectRecord] {
        &self.rejections
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains_key(&node)
    }

    /// Successful crash recoveries so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Recoveries that failed to rebuild an endpoint from its store (the
    /// node stays down).
    pub fn recovery_failures(&self) -> &[(NodeId, RestoreError)] {
        &self.recovery_failures
    }

    /// Persistence counters summed over all live endpoints, plus this
    /// network's recovery count — the numbers the runner summary and the
    /// crash-recovery example report.
    pub fn persist_totals(&self) -> PersistStats {
        let mut total = PersistStats::default();
        for endpoint in self.endpoints.values() {
            let stats = endpoint.persist_stats();
            total.wal_appended += stats.wal_appended;
            total.wal_replayed += stats.wal_replayed;
            total.snapshots_written += stats.snapshots_written;
            total.recoveries += stats.recoveries;
            total.persist_errors += stats.persist_errors;
        }
        total
    }

    /// Bytes currently held by all endpoints' stores (snapshots + WALs).
    pub fn stored_bytes(&self) -> u64 {
        self.endpoints.values().map(Endpoint::stored_bytes).sum()
    }

    /// Lowers or raises the safety cap on processed events.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Drops all future datagrams *sent by* `node` (a Byzantine-silent /
    /// muted adversary position; the sends still count in the metrics).
    pub fn mute(&mut self, node: NodeId) {
        self.muted.insert(node);
    }

    /// Schedules a DKG operator input.
    pub fn schedule_dkg_input(&mut self, node: NodeId, tau: u64, input: DkgInput, at: WallClock) {
        let apply = Box::new(move |e: &mut Endpoint, now| e.handle_dkg_input(tau, input, now));
        self.push(at, NetEvent::Input { node, apply });
    }

    /// Schedules a VSS operator input.
    pub fn schedule_vss_input(
        &mut self,
        node: NodeId,
        session: SessionId,
        input: VssInput,
        at: WallClock,
    ) {
        let apply = Box::new(move |e: &mut Endpoint, now| e.handle_vss_input(session, input, now));
        self.push(at, NetEvent::Input { node, apply });
    }

    /// Schedules a signing-session operator input.
    pub fn schedule_tss_input(&mut self, node: NodeId, sid: u64, input: TssInput, at: WallClock) {
        let apply = Box::new(move |e: &mut Endpoint, now| e.handle_tss_input(sid, input, now));
        self.push(at, NetEvent::Input { node, apply });
    }

    /// Schedules a §6 group-modification operator input.
    pub fn schedule_mod_input(
        &mut self,
        node: NodeId,
        era: u64,
        input: GroupModInput,
        at: WallClock,
    ) {
        let apply = Box::new(move |e: &mut Endpoint, now| e.handle_mod_input(era, input, now));
        self.push(at, NetEvent::Input { node, apply });
    }

    /// Schedules a crash: at `at`, the node's in-memory endpoint is
    /// **dropped** — its sessions, timers and queues are gone, exactly as
    /// a real crash loses RAM. Until recovered, the node receives nothing.
    /// What survives is whatever the endpoint persisted to its configured
    /// [`EndpointConfig::store`]; without a store, recovery brings the
    /// node back with fresh, empty state.
    pub fn schedule_crash(&mut self, node: NodeId, at: WallClock) {
        self.push(at, NetEvent::Crash(node));
    }

    /// Schedules a recovery: with a configured store the endpoint is
    /// rebuilt from its snapshot + WAL ([`Endpoint::restore`]); without
    /// one a fresh, session-less endpoint takes its place. The
    /// application-level §5.3 recovery procedure is a separate
    /// [`DkgInput::Recover`] / [`VssInput::Recover`] input.
    pub fn schedule_recover(&mut self, node: NodeId, at: WallClock) {
        self.push(at, NetEvent::Recover(node));
    }

    /// Injects a raw datagram claimed to be from `from` (which need not be a
    /// real endpoint) — the fault-injection hook for Byzantine senders and
    /// malformed-bytes tests.
    pub fn inject_datagram(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, at: WallClock) {
        self.metrics.record_send(from, "injected", bytes.len());
        self.push(
            at,
            NetEvent::Deliver {
                from,
                to,
                bytes,
                origin: DatagramOrigin::Injected,
            },
        );
    }

    fn push(&mut self, time: WallClock, event: NetEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time, seq, event });
    }

    /// Processes one network event. Returns `false` when the queue is empty
    /// or the event limit is reached.
    pub fn step(&mut self) -> bool {
        if self.processed >= self.event_limit {
            return false;
        }
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        self.processed += 1;
        debug_assert!(scheduled.time >= self.now, "time must be monotone");
        self.now = scheduled.time;
        let now = self.now;
        match scheduled.event {
            NetEvent::Deliver {
                from,
                to,
                bytes,
                origin,
            } => {
                if let Some(corrupt) = self.corrupt.get_mut(&to) {
                    // An adversary-controlled node receives its traffic
                    // like any other node; what it does with it is the
                    // strategy's business.
                    self.metrics.record_delivery();
                    let sends = corrupt.on_datagram(from, &bytes, now);
                    self.emit_corrupt(to, sends);
                } else if let Some(endpoint) = self.endpoints.get_mut(&to) {
                    match endpoint.handle_datagram(from, &bytes, now) {
                        Ok(_) => self.metrics.record_delivery(),
                        Err(reject) => self.refused(to, from, origin, reject),
                    }
                    self.drain(to);
                } else {
                    // Crashed (endpoint dropped) or never existed: a real
                    // datagram to a down node is lost.
                    self.metrics.record_drop_to_crashed();
                }
            }
            NetEvent::Wake { node } => {
                self.scheduled_wake.remove(&node);
                if let Some(corrupt) = self.corrupt.get_mut(&node) {
                    let sends = corrupt.on_wake(now);
                    self.emit_corrupt(node, sends);
                } else if let Some(endpoint) = self.endpoints.get_mut(&node) {
                    endpoint.handle_timeout(now);
                    self.drain(node);
                }
            }
            NetEvent::CorruptStart { node } => {
                if let Some(corrupt) = self.corrupt.get_mut(&node) {
                    let sends = corrupt.on_start(now);
                    self.emit_corrupt(node, sends);
                }
            }
            NetEvent::Input { node, apply } => {
                if let Some(endpoint) = self.endpoints.get_mut(&node) {
                    if let Err(reject) = apply(endpoint, now) {
                        self.refused(node, node, DatagramOrigin::Honest, reject);
                    }
                    self.drain(node);
                }
            }
            NetEvent::Crash(node) => {
                // A crash is a real crash: the in-memory endpoint is
                // dropped. Only its configuration (with the store handle,
                // if any) survives to drive the later recovery.
                if let Some(endpoint) = self.endpoints.remove(&node) {
                    self.crashed.insert(node, endpoint.config().clone());
                    self.scheduled_wake.remove(&node);
                }
            }
            NetEvent::Recover(node) => {
                if let Some(config) = self.crashed.remove(&node) {
                    let endpoint = if config.store.is_some() {
                        // Rebuild from stable storage: snapshot + WAL
                        // replay reconstructs the pre-crash state exactly.
                        match Endpoint::restore(config.clone()) {
                            Ok(endpoint) => endpoint,
                            Err(err) => {
                                // The store is unreadable: the node stays
                                // down — and stays *crashed*, so
                                // `is_crashed` keeps telling the truth and
                                // a later `schedule_recover` can retry
                                // (e.g. after a transient store error).
                                self.recovery_failures.push((node, err));
                                self.crashed.insert(node, config);
                                return true;
                            }
                        }
                    } else {
                        // No stable storage: the node rejoins with fresh,
                        // empty state — nothing "magically survives" the
                        // crash any more.
                        Endpoint::new(node, config)
                    };
                    self.endpoints.insert(node, endpoint);
                    self.recoveries += 1;
                    // Timers that expired during the outage fire now; the
                    // protocol-level recovery procedure is the caller's
                    // scheduled `Recover` input.
                    if let Some(endpoint) = self.endpoints.get_mut(&node) {
                        endpoint.handle_timeout(now);
                    }
                    self.drain(node);
                }
            }
        }
        true
    }

    /// Runs until the queue drains (or the event limit is hit). Returns the
    /// number of events processed by this call.
    pub fn run(&mut self) -> u64 {
        let start = self.processed;
        while self.step() {}
        self.processed - start
    }

    /// Runs until simulated time exceeds `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: WallClock) -> u64 {
        let start = self.processed;
        while let Some(next) = self.queue.peek() {
            if next.time > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        self.processed - start
    }

    /// Moves an endpoint's pending transmits into the network, surfaces its
    /// events, runs its pending crypto jobs to quiescence on the executor,
    /// and keeps its timer wake-up scheduled.
    fn drain(&mut self, node: NodeId) {
        let now = self.now;
        loop {
            self.pump_io(node);
            // Hand pending crypto jobs to the executor and apply the
            // verdicts in job-id order: applying a verdict can prepare
            // further jobs (e.g. a verified dealing releasing buffered
            // points), so loop until the endpoint is quiescent. Only one
            // endpoint's jobs are ever in the executor at a time, so
            // endpoint-local job ids cannot collide.
            let Some(endpoint) = self.endpoints.get_mut(&node) else {
                return;
            };
            let tickets = endpoint.poll_jobs();
            if tickets.is_empty() {
                break;
            }
            for ticket in tickets {
                self.executor.submit(ticket.id, ticket.job);
            }
            for outcome in self.executor.drain() {
                loop {
                    let Some(endpoint) = self.endpoints.get_mut(&node) else {
                        return;
                    };
                    match endpoint.complete_job(outcome.id, outcome.verdict.clone(), now) {
                        // A full outbox mid-drain: move the queued bytes
                        // into the network, then retry the verdict.
                        Err(Reject::Backpressure { .. }) => self.pump_io(node),
                        Err(reject) => {
                            self.refused(node, node, DatagramOrigin::Honest, reject);
                            break;
                        }
                        Ok(_) => break,
                    }
                }
            }
        }
        // Quiescent point: outbox and events drained, jobs settled — the
        // moment the endpoint may fold its WAL into a fresh snapshot.
        if let Some(endpoint) = self.endpoints.get_mut(&node) {
            endpoint.maybe_compact();
        }
        let deadline = self.endpoints.get(&node).and_then(Endpoint::poll_timeout);
        self.wake_by(node, deadline);
    }

    /// Keeps `node`'s wake-up scheduled no later than `deadline`.
    fn wake_by(&mut self, node: NodeId, deadline: Option<WallClock>) {
        let Some(deadline) = deadline else {
            return;
        };
        let wake_at = deadline.max(self.now);
        if self.scheduled_wake.get(&node).is_none_or(|&t| wake_at < t) {
            self.scheduled_wake.insert(node, wake_at);
            self.push(wake_at, NetEvent::Wake { node });
        }
    }

    fn refused(&mut self, node: NodeId, from: NodeId, origin: DatagramOrigin, reject: Reject) {
        self.rejections.push(RejectRecord {
            time: self.now,
            node,
            from,
            origin,
            reject,
        });
    }

    /// Moves pending transmits into the network and surfaces application
    /// events.
    fn pump_io(&mut self, node: NodeId) {
        let Some(endpoint) = self.endpoints.get_mut(&node) else {
            return;
        };
        let transmits = endpoint.poll_transmit_batch(usize::MAX);
        while let Some(event) = endpoint.poll_event() {
            self.events.push(EventRecord {
                time: self.now,
                node,
                event,
            });
        }
        for transmit in transmits {
            let (to, bytes) = (transmit.to, transmit.payload);
            self.carry(node, transmit.kind, node, to, bytes, DatagramOrigin::Honest);
        }
    }

    /// Carries an adversary-controlled node's emissions into the network and
    /// keeps the node's wake-up scheduled.
    fn emit_corrupt(&mut self, node: NodeId, sends: Vec<CorruptSend>) {
        for CorruptSend { from, to, bytes } in sends {
            if let Some(frames) = &mut self.adversary_frames {
                frames.push((from, to, bytes.clone()));
            }
            let origin = DatagramOrigin::Adversary;
            self.carry(node, "adversary", from, to, bytes, origin);
        }
        let deadline = self.corrupt.get(&node).and_then(|c| c.poll_wake());
        self.wake_by(node, deadline);
    }

    /// Puts one frame on the wire. `node` is the node it physically leaves:
    /// traffic accounting charges it, and muting and link characteristics
    /// (delay, partitions) are its own. `from` is the sender the receiver is
    /// told, which differs from `node` only when an adversary spoofs — a
    /// spoofing adversary must not inflate an honest node's byte tally in
    /// the complexity metrics, nor borrow its links.
    fn carry(
        &mut self,
        node: NodeId,
        kind: &'static str,
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
        origin: DatagramOrigin,
    ) {
        let now = self.now;
        self.metrics.record_send(node, kind, bytes.len());
        if let Some(transcript) = &mut self.transcript {
            let mut chained = Vec::with_capacity(32 + 16 + bytes.len());
            chained.extend_from_slice(&transcript[..]);
            chained.extend_from_slice(&from.to_be_bytes());
            chained.extend_from_slice(&to.to_be_bytes());
            chained.extend_from_slice(&bytes);
            *transcript = sha256(&chained);
        }
        if self.muted.contains(&node) {
            return;
        }
        let delay = if to == node {
            0
        } else {
            match self.chaos.fate(node, to, now, &mut self.rng) {
                LinkFate::Deliver(delay) => delay,
                LinkFate::Severed => {
                    self.severed += 1;
                    return;
                }
            }
        };
        let deliver = NetEvent::Deliver {
            from,
            to,
            bytes,
            origin,
        };
        self.push(now.saturating_add(delay), deliver);
    }
}
