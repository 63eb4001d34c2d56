//! The seven workloads: how each is set up, what one timed operation does,
//! how its output is checked, and what its trace pass records.
//!
//! The timed operations go through the public drivers a user of the stack
//! would call (`dkg_engine::runner`, `EndpointNet`, `Endpoint::restore`,
//! `NodeDriver`), with tracing nowhere in the path; over the simulated
//! network they read the clock after every `EndpointNet::step()`, so that a
//! run can shed the host's interference event by event. The seed reaches input
//! generation only — `SystemSetup::generate`, signing-session seeds and the
//! messages to sign; the libraries never see a workload name.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::path::Path;
use std::time::{Duration, Instant};

use dkg_arith::{ops, GroupElement, PrimeField, Scalar};
use dkg_core::{plan_renewal, CombineRule, DkgInput, PhaseState, RenewalOptions};
use dkg_crypto::{sha256, NodeId, PublicKey};
use dkg_engine::runner::{attach_sign_sessions, build_dkg_net, collect_signatures, SystemSetup};
use dkg_engine::{
    Endpoint, EndpointConfig, EndpointNet, EndpointSnapshot, SessionKey, ThreadPoolExecutor,
};
use dkg_net::{ArqConfig, NetConfig, NodeDriver};
use dkg_sim::DelayModel;
use dkg_store::{decode_wal, encode_frame, StoreHandle, WalRecord};
use dkg_tss::{SignSession, TssConfig, TssInput};
use dkg_vss::CommitmentMode;

use crate::checks::{self, KeyView};
use crate::trace::Recorder;
use crate::tracenet::{Input, TraceNet};

/// Simulated link delay of the DKG and signing workloads. Simulated time
/// costs no wall time: every wall-clock figure is processor time only.
const DELAY: DelayModel = DelayModel::Constant(25);
/// The signing session every signing workload serves.
const SID: u64 = 1;
/// Signing retry delay (simulated ms), far beyond any run, so no liveness
/// timer fires and every event processed is signing work.
const SIGN_RETRY_DELAY: u64 = 1_000_000;
/// Requests per burst in `sign-burst-n13`.
const BURST: u64 = 8;
/// The node whose store `recover-n13` rebuilds from.
const SUBJECT: NodeId = 1;
/// The first retransmission timeout of `udp-dkg-n7`'s timed operations, in
/// ms: the ARQ's own ceiling (`rto_max`). Seven nodes stepped from one thread
/// acknowledge a frame only once they get to it, which is later than the
/// default 60 ms, so at the default every DKG sends more retransmissions
/// than first transmissions and its wall time swings by a factor of two
/// with their timing. The trace pass records that case as
/// `net.default_arq_*`; the timed operations measure the transport without
/// spurious retransmissions.
const UDP_RTO_MS: u64 = 2_000;
/// A UDP DKG that has not finished by then has failed.
const UDP_DEADLINE: Duration = Duration::from_secs(60);

/// System sizes. The benchmark runs [`Scale::FULL`]; the smoke tests run
/// every workload at n = 4.
#[derive(Clone, Copy)]
pub struct Scale {
    pub n: usize,
    pub udp_n: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { n: 13, udp_n: 7 };
}

/// What one timed operation measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpSample {
    pub wall: Duration,
    /// Protocol bytes the operation moved (see `bytes_per_op`).
    pub bytes: u64,
    pub datagrams: u64,
    pub group_ops: u64,
}

impl OpSample {
    fn add(&mut self, other: OpSample) {
        self.wall += other.wall;
        self.bytes += other.bytes;
        self.datagrams += other.datagrams;
        self.group_ops += other.group_ops;
    }
}

/// Per-layer metric values by name, for one trace pass.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_default() += value;
    }
}

/// What a trace pass hands back.
pub struct TraceReport {
    pub metrics: Metrics,
    pub recorder: Recorder,
    /// Totals over the traced operations: what `e2e check` pins.
    pub totals: OpSample,
}

pub trait Workload {
    /// One timed operation; its output is checked outside the timed region.
    fn op(&mut self, index: u64) -> Result<OpSample, String>;

    /// The last operation's wall time, event by event, where every operation
    /// of the workload processes the same events in the same order (see
    /// [`crate::stats::Floor`]); empty where it is measured as one piece.
    fn steps(&self) -> &[Duration] {
        &[]
    }

    /// End-of-run checks over everything the operations produced.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The trace pass over `ops` operations. `scratch` is a directory the
    /// pass may create files in.
    fn trace(&mut self, ops: u64, scratch: &Path) -> Result<TraceReport, String>;
}

/// The clock of one set-up: when it began and its wall time so far, piece by
/// piece. A set-up that runs a DKG records it event by event, so that set-up
/// time can be taken like operation time (see [`crate::stats::Floor`]).
struct SetupClock {
    start: Instant,
    steps: Vec<Duration>,
}

/// Sets a workload up from the seed. Everything here is `setup_s`: the
/// workload comes with the set-up's wall time piece by piece, the same
/// pieces for the same arguments.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<(Box<dyn Workload>, Vec<Duration>)> {
    let mut clock = SetupClock {
        start: Instant::now(),
        steps: Vec::new(),
    };
    warm_up();
    let workload: Box<dyn Workload> = match name {
        "dkg-full-n13" => Box::new(Dkg::new(scale.n, CommitmentMode::Full, seed)),
        "dkg-digest-n13" => Box::new(Dkg::new(scale.n, CommitmentMode::Digest, seed)),
        "renew-digest-n13" => Box::new(Renew::new(scale.n, seed, &mut clock)),
        "sign-single-n13" => Box::new(Sign::new(scale.n, seed, 1, &mut clock)),
        "sign-burst-n13" => Box::new(Sign::new(scale.n, seed, BURST, &mut clock)),
        "recover-n13" => Box::new(Recover::new(scale.n, seed, &mut clock)),
        "udp-dkg-n7" => Box::new(Udp::new(scale.udp_n, seed)),
        _ => return None,
    };
    // Whatever followed the last piece recorded (all of it, if none was).
    let recorded: Duration = clock.steps.iter().sum();
    clock
        .steps
        .push(clock.start.elapsed().saturating_sub(recorded));
    Some((workload, clock.steps))
}

/// Builds the lazily-built fixed-base table and runs one untimed n = 4 DKG,
/// so the first timed sample does not pay for cold code and caches.
fn warm_up() {
    let _ = GroupElement::commit(&Scalar::one());
    let setup = SystemSetup::generate(4, 0, 1);
    let mut net = build_dkg_net(&setup, 0, DELAY);
    start_dkg(&mut net, &setup, 0);
}

fn system(n: usize, mode: CommitmentMode, seed: u64) -> SystemSetup {
    let mut setup = SystemSetup::generate(n, 0, seed);
    setup.config.vss.mode = mode;
    setup
}

fn start_dkg(net: &mut EndpointNet, setup: &SystemSetup, tau: u64) {
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, tau, DkgInput::Start, 0);
    }
    net.run();
}

/// `net.run()`, reading the clock after every event: `steps` receives the
/// time from `since` to the first event's end and then each event's own, so
/// they add up to the wall time returned.
fn run_stepwise(net: &mut EndpointNet, since: Instant, steps: &mut Vec<Duration>) -> Duration {
    steps.clear();
    let mut last = since;
    while net.step() {
        let now = Instant::now();
        steps.push(now - last);
        last = now;
    }
    last - since
}

/// [`start_dkg`] through [`run_stepwise`].
fn start_dkg_stepwise(
    net: &mut EndpointNet,
    setup: &SystemSetup,
    tau: u64,
    since: Instant,
    steps: &mut Vec<Duration>,
) -> Duration {
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, tau, DkgInput::Start, 0);
    }
    run_stepwise(net, since, steps)
}

/// Checks the DKG safety properties over whatever hosts the endpoints.
fn check_dkg<'a>(
    setup: &SystemSetup,
    tau: u64,
    endpoint: impl Fn(NodeId) -> Option<&'a Endpoint>,
) -> Result<GroupElement, String> {
    let views: Vec<KeyView<'a>> = setup
        .config
        .vss
        .nodes
        .iter()
        .filter_map(|&node| Some(KeyView::of(node, endpoint(node)?.dkg_result(tau)?)))
        .collect();
    checks::key_agreement(&views, setup.config.n(), setup.config.t())
}

fn no_rejections(net: &EndpointNet) -> Result<(), String> {
    match net.rejections().first() {
        None => Ok(()),
        Some(record) => Err(format!(
            "node {} refused input from {}: {}",
            record.node, record.from, record.reject
        )),
    }
}

fn deferred() -> EndpointConfig {
    EndpointConfig {
        defer_crypto: true,
        ..EndpointConfig::default()
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ----------------------------------------------------------------------
// The trace pass of the simulated workloads
// ----------------------------------------------------------------------

/// One pass of the benchmark's own loop: what it measured and the network
/// (spans, traffic, counters) it ran on.
struct OwnPass {
    totals: OpSample,
    net: TraceNet,
}

/// Runs `body` as operation `op` of `net`: a root span around it, and its
/// wall time, traffic and group operations added to `totals`.
fn own_op(net: &mut TraceNet, op: u32, totals: &mut OpSample, body: impl FnOnce(&mut TraceNet)) {
    net.recorder.set_op(op);
    let before_traffic = (net.traffic.datagrams, net.traffic.bytes);
    let before_ops = ops::snapshot();
    let root = net.recorder.enter("e2e", "op", 0);
    let start = Instant::now();
    body(net);
    let wall = start.elapsed();
    net.recorder.exit(root);
    totals.add(OpSample {
        wall,
        bytes: net.traffic.bytes - before_traffic.1,
        datagrams: net.traffic.datagrams - before_traffic.0,
        group_ops: (ops::snapshot() - before_ops).total(),
    });
}

/// A workload whose operations run over the simulated network, so its trace
/// pass is the benchmark's own loop over the same endpoints and inputs.
trait Simulated: Workload {
    /// `ops` operations through the benchmark's own loop, on state built
    /// from the same seed as the timed operations.
    fn own_pass(&mut self, ops: u64, recorder: Recorder) -> Result<OwnPass, String>;

    /// Signatures one operation produces (0 for the non-signing workloads).
    fn signatures_per_op(&self) -> u64 {
        0
    }
}

/// The trace pass shared by the simulated workloads: the same operations
/// through the own loop untraced, then traced, then through `EndpointNet`;
/// the three must send identical traffic.
fn trace_simulated(workload: &mut impl Simulated, ops: u64) -> Result<TraceReport, String> {
    let untraced = workload.own_pass(ops, Recorder::new(false))?;
    let traced = workload.own_pass(ops, Recorder::new(true))?;
    let mut timed = OpSample::default();
    let mut timed_ms = Vec::new();
    for index in 0..ops {
        let sample = workload.op(index)?;
        timed_ms.push(ms(sample.wall));
        timed.add(sample);
    }
    workload.finish()?;

    let own = traced.totals;
    for (what, pass) in [("untraced", untraced.totals), ("traced", own)] {
        if (pass.datagrams, pass.bytes) != (timed.datagrams, timed.bytes) {
            return Err(format!(
                "{what} pass sent {} datagrams / {} bytes, the timed pass {} / {}",
                pass.datagrams, pass.bytes, timed.datagrams, timed.bytes
            ));
        }
        if pass.group_ops.abs_diff(timed.group_ops) * 100 > timed.group_ops {
            return Err(format!(
                "{what} pass did {} group ops, the timed pass {}",
                pass.group_ops, timed.group_ops
            ));
        }
    }
    let net = &traced.net;
    if net.rejected + net.codec_mismatches > 0 {
        return Err(format!(
            "trace pass: {} inputs refused, {} datagrams re-encoded differently",
            net.rejected, net.codec_mismatches
        ));
    }

    let per_op = |total: u64| total as f64 / ops as f64;
    let totals = net.recorder.aggregate();
    let busy = |layer, name| totals.get(&(layer, name)).copied().unwrap_or_default();
    let mut m = Metrics::default();

    m.set("arith.group_ops", per_op(own.group_ops));
    let mut job_ns = 0;
    let mut job_ops = 0;
    for (&(layer, kind), total) in &totals {
        if layer != "dkg-poly" {
            continue;
        }
        job_ns += total.busy_ns;
        job_ops += total.group_ops;
        let kind = match kind {
            "point-batch" | "verify-poly" | "signatures" | "partial-sig-batch" => kind,
            _ => "other",
        };
        m.add(format!("poly.{kind}.count"), per_op(total.count));
        m.add(
            format!("poly.{kind}.busy_ms"),
            ns_to_ms(total.busy_ns) / ops as f64,
        );
        m.add(format!("poly.{kind}.group_ops"), per_op(total.group_ops));
    }
    if job_ops > 0 {
        m.set("arith.ns_per_group_op", job_ns as f64 / job_ops as f64);
    }

    let decode = busy("dkg-wire", "decode");
    m.set("wire.datagrams", per_op(net.traffic.datagrams));
    m.set("wire.bytes", per_op(net.traffic.bytes));
    m.set("wire.max_datagram_bytes", net.traffic.max_datagram as f64);
    m.set("wire.decode_busy_ms", ns_to_ms(decode.busy_ns) / ops as f64);
    m.set(
        "wire.encode_busy_ms",
        ns_to_ms(busy("dkg-wire", "encode").busy_ns) / ops as f64,
    );
    if decode.bytes > 0 {
        m.set(
            "wire.decode_ns_per_byte",
            decode.busy_ns as f64 / decode.bytes as f64,
        );
    }
    for kind in [
        "vss-send",
        "vss-echo",
        "vss-ready",
        "dkg-send",
        "dkg-echo",
        "dkg-ready",
        "dkg-lead-ch",
    ] {
        let (count, size) = net.traffic.by_kind.get(kind).copied().unwrap_or_default();
        m.set(format!("core.msgs.{kind}"), per_op(count));
        m.set(format!("core.bytes.{kind}"), per_op(size));
    }
    m.set("core.leader_changes", net.leader_changes() as f64);
    m.set(
        "core.input_busy_ms",
        ns_to_ms(busy("dkg-engine", "handle_input").busy_ns) / ops as f64,
    );

    let signatures = ops * workload.signatures_per_op();
    if signatures > 0 {
        m.set("tss.msgs_per_sig", own.datagrams as f64 / signatures as f64);
        m.set("tss.bytes_per_sig", own.bytes as f64 / signatures as f64);
        m.set(
            "tss.group_ops_per_sig",
            own.group_ops as f64 / signatures as f64,
        );
        m.set("tss.retries", net.tss_retries as f64);
        if workload.signatures_per_op() == 1 {
            if let Some((_, value)) = crate::stats::tail(&timed_ms) {
                m.set("tss.latency_tail_ms", value);
            }
        }
    }

    let handle = busy("dkg-engine", "handle_datagram");
    let complete = busy("dkg-engine", "complete_job");
    m.set(
        "engine.handle_datagram_busy_ms",
        ns_to_ms(handle.busy_ns) / ops as f64,
    );
    m.set(
        "engine.self_ms",
        (ns_to_ms(handle.self_ns) - ns_to_ms(decode.busy_ns)) / ops as f64,
    );
    m.set(
        "engine.complete_job_busy_ms",
        ns_to_ms(complete.busy_ns) / ops as f64,
    );
    m.set("engine.apply_group_ops", per_op(complete.group_ops));
    m.set(
        "engine.poll_transmit_busy_ms",
        ns_to_ms(busy("dkg-engine", "poll_transmit").busy_ns) / ops as f64,
    );
    m.set("engine.jobs", per_op(net.jobs));
    m.set("engine.rejected", net.rejected as f64);
    m.set(
        "engine.driver_overhead_ratio",
        timed.wall.as_secs_f64() / untraced.totals.wall.as_secs_f64(),
    );

    let standalone_ns: u64 = net
        .recorder
        .spans()
        .iter()
        .filter(|span| span.standalone)
        .map(|span| span.duration_ns())
        .sum();
    m.set(
        "trace.overhead_ratio",
        (own.wall.as_secs_f64() - standalone_ns as f64 / 1e9) / untraced.totals.wall.as_secs_f64(),
    );
    m.set("trace.spans", net.recorder.spans().len() as f64);

    Ok(TraceReport {
        metrics: m,
        recorder: traced.net.recorder,
        totals: own,
    })
}

// ----------------------------------------------------------------------
// dkg-full-n13, dkg-digest-n13
// ----------------------------------------------------------------------

struct Dkg {
    setup: SystemSetup,
    steps: Vec<Duration>,
}

impl Dkg {
    fn new(n: usize, mode: CommitmentMode, seed: u64) -> Self {
        Dkg {
            setup: system(n, mode, seed),
            steps: Vec::new(),
        }
    }
}

/// One fresh DKG `tau` over `EndpointNet`, timed from the first `Start` to
/// the event queue running dry (what `run()` does, event by event into
/// `steps`), then checked.
fn timed_dkg(setup: &SystemSetup, tau: u64, steps: &mut Vec<Duration>) -> Result<OpSample, String> {
    let mut net = build_dkg_net(setup, tau, DELAY);
    let before = ops::snapshot();
    let wall = start_dkg_stepwise(&mut net, setup, tau, Instant::now(), steps);
    let group_ops = (ops::snapshot() - before).total();
    check_dkg(setup, tau, |node| net.endpoint(node))?;
    no_rejections(&net)?;
    Ok(OpSample {
        wall,
        bytes: net.metrics().byte_count(),
        datagrams: net.metrics().message_count(),
        group_ops,
    })
}

/// The same DKG through the benchmark's own loop.
fn own_dkg(setup: &SystemSetup, tau: u64, recorder: Recorder) -> Result<OwnPass, String> {
    let mut net = TraceNet::new(DELAY, setup.seed ^ tau, recorder);
    for &node in &setup.config.vss.nodes {
        let mut endpoint = Endpoint::new(node, deferred());
        endpoint
            .add_dkg_session(setup.build_node(node, tau))
            .map_err(|e| e.to_string())?;
        net.add_endpoint(endpoint);
    }
    let mut totals = OpSample::default();
    own_op(&mut net, 0, &mut totals, |net| {
        for &node in &setup.config.vss.nodes {
            let input = Input::Dkg {
                tau,
                input: DkgInput::Start,
            };
            net.schedule(node, input, 0);
        }
        net.run();
    });
    check_dkg(setup, tau, |node| net.endpoint(node))?;
    Ok(OwnPass { totals, net })
}

impl Workload for Dkg {
    /// Every operation is the same DKG (τ = 0), event for event.
    fn op(&mut self, _index: u64) -> Result<OpSample, String> {
        timed_dkg(&self.setup, 0, &mut self.steps)
    }

    fn steps(&self) -> &[Duration] {
        &self.steps
    }

    fn trace(&mut self, ops: u64, _scratch: &Path) -> Result<TraceReport, String> {
        let mut report = trace_simulated(self, ops)?;
        if self.setup.config.vss.mode == CommitmentMode::Digest {
            report
                .metrics
                .set("engine.pool_speedup", pool_speedup(&self.setup)?);
        }
        Ok(report)
    }
}

impl Simulated for Dkg {
    fn own_pass(&mut self, ops: u64, recorder: Recorder) -> Result<OwnPass, String> {
        assert_eq!(ops, 1, "a DKG trace pass is one operation");
        own_dkg(&self.setup, 0, recorder)
    }
}

/// Wall time of one deferred-crypto DKG on the inline executor over the
/// same DKG on a `ThreadPoolExecutor` of `min(cores, 2)` workers.
fn pool_speedup(setup: &SystemSetup) -> Result<f64, String> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut walls = [0.0; 2];
    for (wall, executor) in walls.iter_mut().zip([
        Box::new(dkg_engine::InlineExecutor::new()) as Box<dyn dkg_engine::Executor>,
        Box::new(ThreadPoolExecutor::new(cores.min(2))),
    ]) {
        let mut net = dkg_engine::runner::build_dkg_net_on(setup, 0, DELAY, executor, true);
        let start = Instant::now();
        start_dkg(&mut net, setup, 0);
        *wall = start.elapsed().as_secs_f64();
        check_dkg(setup, 0, |node| net.endpoint(node))?;
    }
    Ok(walls[0] / walls[1])
}

// ----------------------------------------------------------------------
// renew-digest-n13
// ----------------------------------------------------------------------

struct Renew {
    setup: SystemSetup,
    group_key: GroupElement,
    /// Every node's state at the end of the set-up DKG: every operation
    /// renews from it, so that they all do the same work event for event.
    states: BTreeMap<NodeId, PhaseState>,
    steps: Vec<Duration>,
}

/// The epoch every renewal operation runs.
const RENEWAL_TAU: u64 = 1;

impl Renew {
    fn new(n: usize, seed: u64, clock: &mut SetupClock) -> Self {
        let setup = system(n, CommitmentMode::Digest, seed);
        let mut net = build_dkg_net(&setup, 0, DELAY);
        start_dkg_stepwise(&mut net, &setup, 0, clock.start, &mut clock.steps);
        let states: BTreeMap<NodeId, PhaseState> = setup
            .config
            .vss
            .nodes
            .iter()
            .filter_map(|&node| {
                let result = net.endpoint(node)?.dkg_result(0)?;
                let state = PhaseState {
                    tau: 0,
                    share: result.share,
                    commitment: result.commitment.clone(),
                    public_key: result.public_key,
                };
                Some((node, state))
            })
            .collect();
        let group_key = states
            .values()
            .next()
            .map_or(GroupElement::identity(), |s| s.public_key);
        Renew {
            setup,
            group_key,
            states,
            steps: Vec::new(),
        }
    }

    /// Renewal must preserve the group key, hand every node a share that
    /// matches the new commitment, and change every share.
    fn check(&self, net: &EndpointNet) -> Result<(), String> {
        let key = check_dkg(&self.setup, RENEWAL_TAU, |node| net.endpoint(node))?;
        if key != self.group_key {
            return Err("renewal changed the group key".to_string());
        }
        for (&node, state) in &self.states {
            let renewed = net.endpoint(node).and_then(|e| e.dkg_result(RENEWAL_TAU));
            if renewed.is_some_and(|result| result.share == state.share) {
                return Err(format!("renewal left node {node}'s share unchanged"));
            }
        }
        Ok(())
    }
}

impl Workload for Renew {
    /// One renewal epoch from the set-up DKG's states: what
    /// `run_renewal_phase` does, call for call (plan, the nodes with their
    /// expected commitments and combining rule, the reshare ticks), with the
    /// event loop timed event by event. Planning and building the nodes are
    /// the first step.
    fn op(&mut self, _index: u64) -> Result<OpSample, String> {
        let tau = RENEWAL_TAU;
        let options = RenewalOptions::default();
        let before = ops::snapshot();
        let start = Instant::now();
        let plan = plan_renewal(&self.setup, &self.states, &options).map_err(|e| e.to_string())?;
        let mut net = EndpointNet::new(options.delay.clone(), self.setup.seed ^ tau);
        for &node in &self.setup.config.vss.nodes {
            let mut dkg_node = self.setup.build_node(node, tau);
            dkg_node.set_expected_dealer_commitments(plan.expected_commitments.clone());
            dkg_node.set_combine_rule(CombineRule::InterpolateAtZero);
            let mut endpoint = Endpoint::new(node, EndpointConfig::default());
            endpoint
                .add_dkg_session(dkg_node)
                .map_err(|e| e.to_string())?;
            net.add_endpoint(endpoint);
        }
        for &(node, tick) in &plan.ticks {
            let value = self.states[&node].share;
            net.schedule_dkg_input(node, tau, DkgInput::StartReshare { value }, tick);
        }
        let wall = run_stepwise(&mut net, start, &mut self.steps);
        let group_ops = (ops::snapshot() - before).total();
        self.check(&net)?;
        no_rejections(&net)?;
        Ok(OpSample {
            wall,
            bytes: net.metrics().byte_count(),
            datagrams: net.metrics().message_count(),
            group_ops,
        })
    }

    fn steps(&self) -> &[Duration] {
        &self.steps
    }

    fn trace(&mut self, ops: u64, _scratch: &Path) -> Result<TraceReport, String> {
        trace_simulated(self, ops)
    }
}

impl Simulated for Renew {
    /// The epoch the timed operations run, built the same way.
    fn own_pass(&mut self, ops: u64, recorder: Recorder) -> Result<OwnPass, String> {
        assert_eq!(ops, 1, "a renewal trace pass is one epoch");
        let tau = RENEWAL_TAU;
        let options = RenewalOptions::default();
        let plan = plan_renewal(&self.setup, &self.states, &options).map_err(|e| e.to_string())?;
        let mut net = TraceNet::new(options.delay.clone(), self.setup.seed ^ tau, recorder);
        for &node in &self.setup.config.vss.nodes {
            let mut dkg_node = self.setup.build_node(node, tau);
            dkg_node.set_expected_dealer_commitments(plan.expected_commitments.clone());
            dkg_node.set_combine_rule(CombineRule::InterpolateAtZero);
            let mut endpoint = Endpoint::new(node, deferred());
            endpoint
                .add_dkg_session(dkg_node)
                .map_err(|e| e.to_string())?;
            net.add_endpoint(endpoint);
        }
        let mut totals = OpSample::default();
        own_op(&mut net, 0, &mut totals, |net| {
            for &(node, tick) in &plan.ticks {
                let input = Input::Dkg {
                    tau,
                    input: DkgInput::StartReshare {
                        value: self.states[&node].share,
                    },
                };
                net.schedule(node, input, tick);
            }
            net.run();
        });
        check_dkg(&self.setup, tau, |node| net.endpoint(node))?;
        Ok(OwnPass { totals, net })
    }
}

// ----------------------------------------------------------------------
// sign-single-n13, sign-burst-n13
// ----------------------------------------------------------------------

struct Sign {
    setup: SystemSetup,
    /// Requests per operation: 1, or [`BURST`] scheduled at the same instant.
    burst: u64,
    net: EndpointNet,
    signers: Vec<NodeId>,
    group_key: PublicKey,
    served: u64,
}

/// The message request `req` signs: 32 bytes derived from the seed.
fn sign_message(seed: u64, req: u64) -> Vec<u8> {
    let mut input = seed.to_be_bytes().to_vec();
    input.extend_from_slice(&req.to_be_bytes());
    sha256(&input).to_vec()
}

/// The requests of operation `index`: `(req, coordinator, message)`, request
/// ids counting up from 1 and coordinators round-robin over the signers.
fn sign_requests(
    seed: u64,
    burst: u64,
    signers: &[NodeId],
    index: u64,
) -> Vec<(u64, NodeId, Vec<u8>)> {
    (index * burst + 1..=(index + 1) * burst)
        .map(|req| {
            let coordinator = signers[(req % signers.len() as u64) as usize];
            (req, coordinator, sign_message(seed, req))
        })
        .collect()
}

/// Every request's signature, as its coordinator holds it, must verify.
fn check_signatures<'a>(
    group_key: &PublicKey,
    requests: &[(u64, NodeId, Vec<u8>)],
    endpoint: impl Fn(NodeId) -> Option<&'a Endpoint>,
) -> Result<(), String> {
    for (req, coordinator, message) in requests {
        let signature = endpoint(*coordinator)
            .and_then(|e| e.sign_session(SID))
            .and_then(|s| s.result(*req));
        checks::signature(group_key, message, signature, *req)?;
    }
    Ok(())
}

impl Sign {
    fn new(n: usize, seed: u64, burst: u64, clock: &mut SetupClock) -> Self {
        let setup = system(n, CommitmentMode::Digest, seed);
        let mut net = build_dkg_net(&setup, 0, DELAY);
        start_dkg_stepwise(&mut net, &setup, 0, clock.start, &mut clock.steps);
        let signers = attach_sign_sessions(&mut net, 0, SID, SIGN_RETRY_DELAY, seed);
        let group_key = net
            .endpoint(signers[0])
            .and_then(|e| e.sign_session(SID))
            .map(SignSession::group_key)
            .expect("the set-up DKG completed");
        Sign {
            setup,
            burst,
            net,
            signers,
            group_key,
            served: 0,
        }
    }
}

impl Workload for Sign {
    fn op(&mut self, index: u64) -> Result<OpSample, String> {
        let requests = sign_requests(self.setup.seed, self.burst, &self.signers, index);
        let at = self.net.now() + 1;
        for (req, coordinator, message) in &requests {
            let input = TssInput::Sign {
                req: *req,
                message: message.clone(),
            };
            self.net.schedule_tss_input(*coordinator, SID, input, at);
        }
        let bytes = self.net.metrics().byte_count();
        let datagrams = self.net.metrics().message_count();
        let before = ops::snapshot();
        let start = Instant::now();
        self.net.run();
        let wall = start.elapsed();
        let group_ops = (ops::snapshot() - before).total();
        self.served += self.burst;
        check_signatures(&self.group_key, &requests, |node| self.net.endpoint(node))?;
        Ok(OpSample {
            wall,
            bytes: self.net.metrics().byte_count() - bytes,
            datagrams: self.net.metrics().message_count() - datagrams,
            group_ops,
        })
    }

    /// Every request completed at every node, with one signature each.
    fn finish(&mut self) -> Result<(), String> {
        no_rejections(&self.net)?;
        let completed = collect_signatures(&self.net, SID).len() as u64;
        if completed != self.served {
            return Err(format!("{completed} of {} requests completed", self.served));
        }
        Ok(())
    }

    fn trace(&mut self, ops: u64, _scratch: &Path) -> Result<TraceReport, String> {
        trace_simulated(self, ops)
    }
}

impl Simulated for Sign {
    /// A fresh rig on the own loop — the same set-up DKG and signing
    /// sessions from the same seeds — serving the same first `ops`
    /// operations the timed rig serves.
    fn own_pass(&mut self, ops: u64, recorder: Recorder) -> Result<OwnPass, String> {
        let OwnPass { mut net, .. } = own_dkg(&self.setup, 0, Recorder::new(false))?;
        net.recorder = recorder;
        // As `runner::attach_sign_sessions`, on this loop's endpoints.
        let signers = net.node_ids();
        for &node in &signers {
            let endpoint = net.endpoint_mut(node).expect("listed node");
            let result = endpoint.dkg_result(0).expect("checked by own_dkg").clone();
            let config = TssConfig::new(
                signers.clone(),
                result.commitment.threshold(),
                SIGN_RETRY_DELAY,
            )
            .ok_or("invalid signing config")?;
            let seed = self.setup.seed.wrapping_mul(0x9E37_79B9).wrapping_add(node);
            let session = SignSession::from_dkg_result(node, SID, config, &result, seed)
                .ok_or("DKG result does not fit its signing config")?;
            endpoint
                .add_sign_session(session)
                .map_err(|e| e.to_string())?;
        }
        // The DKG's traffic is set-up, not part of the pass.
        net.traffic = Default::default();
        net.jobs = 0;

        let mut totals = OpSample::default();
        for index in 0..ops {
            let requests = sign_requests(self.setup.seed, self.burst, &signers, index);
            let at = net.now() + 1;
            own_op(&mut net, index as u32, &mut totals, |net| {
                for (req, coordinator, message) in &requests {
                    let input = Input::Tss {
                        sid: SID,
                        input: TssInput::Sign {
                            req: *req,
                            message: message.clone(),
                        },
                    };
                    net.schedule(*coordinator, input, at);
                }
                net.run();
            });
            check_signatures(&self.group_key, &requests, |node| net.endpoint(node))?;
        }
        Ok(OwnPass { totals, net })
    }

    fn signatures_per_op(&self) -> u64 {
        self.burst
    }
}

// ----------------------------------------------------------------------
// recover-n13
// ----------------------------------------------------------------------

struct Recover {
    /// Initial snapshot plus the whole session as WAL frames.
    replay_store: StoreHandle,
    /// One compacted end-of-run snapshot, empty WAL.
    compact_store: StoreHandle,
    /// The subject's end-of-run image, before the crash.
    image: EndpointSnapshot,
    image_bytes: Vec<u8>,
    wal_frames: u64,
    steps: Vec<Duration>,
}

impl Recover {
    /// Runs a full-mode DKG with the subject node persisting every input to
    /// a never-compacted in-memory store, and prepares the two store shapes
    /// a reboot can find.
    fn new(n: usize, seed: u64, clock: &mut SetupClock) -> Self {
        let setup = system(n, CommitmentMode::Full, seed);
        let mut net = EndpointNet::new(DELAY, setup.seed);
        let replay_store = StoreHandle::in_memory();
        for &node in &setup.config.vss.nodes {
            let config = if node == SUBJECT {
                EndpointConfig {
                    store: Some(replay_store.clone()),
                    wal_compact_bytes: u64::MAX,
                    ..EndpointConfig::default()
                }
            } else {
                EndpointConfig::default()
            };
            let mut endpoint = Endpoint::new(node, config);
            endpoint
                .add_dkg_session(setup.build_node(node, 0))
                .expect("fresh endpoint");
            net.add_endpoint(endpoint);
        }
        start_dkg_stepwise(&mut net, &setup, 0, clock.start, &mut clock.steps);
        let subject = net.endpoint(SUBJECT).expect("subject endpoint");
        let image = subject.snapshot().expect("quiescent at the end of the run");
        let image_bytes = image.to_bytes();
        let compact_store = StoreHandle::in_memory();
        compact_store
            .install_snapshot(&image_bytes)
            .expect("in-memory store");
        Recover {
            replay_store,
            compact_store,
            image,
            image_bytes,
            wal_frames: subject.persist_stats().wal_appended,
            steps: Vec::new(),
        }
    }

    fn restore(store: &StoreHandle) -> Result<Endpoint, String> {
        Endpoint::restore(EndpointConfig {
            store: Some(store.clone()),
            ..EndpointConfig::default()
        })
        .map_err(|e| format!("restore failed: {e:?}"))
    }

    /// The restored endpoint must hold the pre-crash key and share, and
    /// re-snapshot to the pre-crash image byte for byte (the persistence
    /// counters aside, which record the recovery itself).
    fn check(&self, restored: &Endpoint, from: &str) -> Result<(), String> {
        if restored.dkg_result(0).is_none() {
            return Err(format!("restore from {from}: the DKG result is gone"));
        }
        let mut image = restored
            .snapshot()
            .ok_or(format!("restore from {from}: not quiescent"))?;
        image.persist = self.image.persist;
        if image.to_bytes() != self.image_bytes {
            return Err(format!(
                "restore from {from}: the state differs from the pre-crash image"
            ));
        }
        Ok(())
    }

    fn stored_bytes(&self) -> u64 {
        self.replay_store.stored_bytes() + self.compact_store.stored_bytes()
    }
}

impl Workload for Recover {
    fn op(&mut self, _index: u64) -> Result<OpSample, String> {
        let before = ops::snapshot();
        let start = Instant::now();
        let replayed = Self::restore(&self.replay_store)?;
        let between = Instant::now();
        let compacted = Self::restore(&self.compact_store)?;
        let end = Instant::now();
        self.steps = vec![between - start, end - between];
        let wall = end - start;
        let group_ops = (ops::snapshot() - before).total();
        self.check(&replayed, "the WAL")?;
        self.check(&compacted, "the snapshot")?;
        Ok(OpSample {
            wall,
            bytes: self.stored_bytes(),
            datagrams: self.wal_frames,
            group_ops,
        })
    }

    /// The two restores.
    fn steps(&self) -> &[Duration] {
        &self.steps
    }

    fn trace(&mut self, ops: u64, scratch: &Path) -> Result<TraceReport, String> {
        let mut timed = OpSample::default();
        for index in 0..ops {
            timed.add(self.op(index)?);
        }
        let stored = self.replay_store.load().map_err(|e| e.to_string())?;
        let wal_bytes: Vec<u8> = stored.wal.iter().flat_map(encode_frame).collect();

        let mut recorder = Recorder::new(true);
        let mut totals = OpSample::default();
        for index in 0..ops {
            recorder.set_op(index as u32);
            let before = ops::snapshot();
            let root = recorder.enter("e2e", "op", SUBJECT);
            let start = Instant::now();

            let span = recorder.enter("dkg-engine", "restore_replay", SUBJECT);
            let replayed = Self::restore(&self.replay_store)?;
            recorder.exit_with_bytes(span, self.replay_store.stored_bytes());
            let span = recorder.enter("dkg-engine", "restore_snapshot", SUBJECT);
            let compacted = Self::restore(&self.compact_store)?;
            recorder.exit_with_bytes(span, self.compact_store.stored_bytes());
            let wall = start.elapsed();

            // The steps of a restore repeated alone, to price each.
            let span = recorder.enter_standalone("dkg-store", "load", SUBJECT);
            let loaded = self.replay_store.load();
            recorder.exit_with_bytes(span, self.replay_store.stored_bytes());
            let span = recorder.enter_standalone("dkg-store", "decode_wal", SUBJECT);
            let scan = decode_wal(&wal_bytes);
            recorder.exit_with_bytes(span, wal_bytes.len() as u64);
            let span = recorder.enter_standalone("dkg-engine", "snapshot_decode", SUBJECT);
            let decoded = EndpointSnapshot::from_bytes(&self.image_bytes);
            recorder.exit_with_bytes(span, self.image_bytes.len() as u64);
            let span = recorder.enter_standalone("dkg-engine", "snapshot_encode", SUBJECT);
            let encoded = compacted.snapshot().map(|image| image.to_bytes());
            recorder.exit_with_bytes(span, self.image_bytes.len() as u64);
            recorder.exit(root);

            self.check(&replayed, "the WAL")?;
            self.check(&compacted, "the snapshot")?;
            let frames = scan.map_err(|e| e.to_string())?.records.len() as u64;
            if loaded.is_err()
                || frames != self.wal_frames
                || decoded.as_ref() != Ok(&self.image)
                || encoded.is_none()
            {
                return Err("a restore step repeated alone gave a different result".to_string());
            }
            totals.add(OpSample {
                wall,
                bytes: self.stored_bytes(),
                datagrams: self.wal_frames,
                group_ops: (ops::snapshot() - before).total(),
            });
        }

        let spans = recorder.aggregate();
        let mean_ms = |layer, name| {
            spans
                .get(&(layer, name))
                .map_or(0.0, |t| ns_to_ms(t.busy_ns) / t.count as f64)
        };
        let replay_ms = mean_ms("dkg-engine", "restore_replay");
        let mut m = Metrics::default();
        m.set("arith.group_ops", totals.group_ops as f64 / ops as f64);
        m.set("store.wal_frames", self.wal_frames as f64);
        m.set("store.wal_bytes", self.replay_store.wal_bytes() as f64);
        m.set("store.snapshot_bytes", self.image_bytes.len() as f64);
        m.set("store.load_ms", mean_ms("dkg-store", "load"));
        m.set("store.wal_decode_ms", mean_ms("dkg-store", "decode_wal"));
        m.set(
            "store.snapshot_decode_ms",
            mean_ms("dkg-engine", "snapshot_decode"),
        );
        m.set(
            "store.snapshot_encode_ms",
            mean_ms("dkg-engine", "snapshot_encode"),
        );
        m.set("store.restore_replay_ms", replay_ms);
        m.set(
            "store.restore_snapshot_ms",
            mean_ms("dkg-engine", "restore_snapshot"),
        );
        m.set(
            "store.replay_frames_per_s",
            self.wal_frames as f64 / (replay_ms / 1e3),
        );
        let record = stored
            .wal
            .iter()
            .find(|r| matches!(r, WalRecord::Datagram { .. }));
        if let Some(record) = record {
            m.set("store.file_append_us", file_append_us(scratch, record)?);
        }
        m.set(
            "trace.overhead_ratio",
            totals.wall.as_secs_f64() / timed.wall.as_secs_f64(),
        );
        m.set("trace.spans", recorder.spans().len() as f64);
        Ok(TraceReport {
            metrics: m,
            recorder,
            totals,
        })
    }
}

/// Mean time of 256 appends of `record` to a `FileStore` (real `sync_data`)
/// in a directory under `scratch`, removed afterwards.
fn file_append_us(scratch: &Path, record: &WalRecord) -> Result<f64, String> {
    const APPENDS: u32 = 256;
    let dir = scratch.join(format!("file-append-{}", std::process::id()));
    let result = (|| {
        let store = StoreHandle::open_dir(&dir).map_err(|e| e.to_string())?;
        let start = Instant::now();
        for _ in 0..APPENDS {
            store.append(record).map_err(|e| e.to_string())?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(APPENDS))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

// ----------------------------------------------------------------------
// udp-dkg-n7
// ----------------------------------------------------------------------

struct Udp {
    setup: SystemSetup,
}

/// Transport counters summed over the drivers of one UDP DKG.
#[derive(Clone, Copy, Default)]
struct Transport {
    steps: u64,
    data_frames: u64,
    ack_frames: u64,
    retransmits: u64,
    duplicates: u64,
    abandoned: u64,
    bytes_sent: u64,
    io_errors: u64,
}

impl Transport {
    fn add(&mut self, other: Transport) {
        self.steps += other.steps;
        self.data_frames += other.data_frames;
        self.ack_frames += other.ack_frames;
        self.retransmits += other.retransmits;
        self.duplicates += other.duplicates;
        self.abandoned += other.abandoned;
        self.bytes_sent += other.bytes_sent;
        self.io_errors += other.io_errors;
    }
}

/// The ARQ tuning of the timed operations: defaults, except that a frame is
/// retransmitted only after [`UDP_RTO_MS`].
fn patient_arq() -> ArqConfig {
    ArqConfig {
        rto_initial: UDP_RTO_MS,
        ..ArqConfig::default()
    }
}

impl Udp {
    fn new(n: usize, seed: u64) -> Self {
        Udp {
            setup: system(n, CommitmentMode::Full, seed),
        }
    }

    /// One fresh DKG `tau` over loopback UDP: one socket and one
    /// `NodeDriver` per node, all stepped round-robin from this thread.
    fn dkg(
        &self,
        tau: u64,
        arq: &ArqConfig,
        recorder: &mut Recorder,
    ) -> Result<(OpSample, Transport), String> {
        let nodes = &self.setup.config.vss.nodes;
        let io = |e: std::io::Error| format!("socket: {e}");
        let mut drivers = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let socket = UdpSocket::bind("127.0.0.1:0").map_err(io)?;
            let mut endpoint = Endpoint::new(node, EndpointConfig::default());
            endpoint
                .add_dkg_session(self.setup.build_node(node, tau))
                .map_err(|e| e.to_string())?;
            let config = NetConfig {
                arq: arq.clone(),
                idle_slice: 1,
                ..NetConfig::default()
            };
            drivers.push(NodeDriver::new(endpoint, socket, config).map_err(io)?);
        }
        let addrs: Vec<_> = drivers
            .iter()
            .map(|d| d.local_addr())
            .collect::<Result<_, _>>()
            .map_err(io)?;
        for driver in &mut drivers {
            for (&peer, &addr) in nodes.iter().zip(&addrs) {
                driver.set_peer(peer, addr);
            }
        }

        let key = SessionKey::Dkg { tau };
        let mut transport = Transport::default();
        let before = ops::snapshot();
        let root = recorder.enter("e2e", "op", 0);
        let start = Instant::now();
        for driver in &mut drivers {
            driver
                .handle_dkg_input(tau, DkgInput::Start)
                .map_err(|e| e.to_string())?;
        }
        while !drivers.iter().all(|d| d.is_complete(key)) {
            if start.elapsed() > UDP_DEADLINE {
                recorder.exit(root);
                return Err(format!("DKG {tau} over UDP did not complete"));
            }
            for driver in &mut drivers {
                let span = recorder.enter("dkg-net", "step", driver.id());
                let stepped = driver.step();
                recorder.exit(span);
                stepped.map_err(io)?;
                transport.steps += 1;
            }
        }
        let wall = start.elapsed();
        recorder.exit(root);
        let group_ops = (ops::snapshot() - before).total();

        check_dkg(&self.setup, tau, |node| {
            drivers
                .iter()
                .find(|d| d.id() == node)
                .map(|d| d.endpoint())
        })?;
        let mut sample = OpSample {
            wall,
            group_ops,
            ..OpSample::default()
        };
        for driver in &drivers {
            let session = driver
                .endpoint()
                .session_stats(key)
                .ok_or("the DKG session is gone")?;
            sample.bytes += session.bytes_out;
            sample.datagrams += session.datagrams_out;
            let (net, arq) = (driver.stats(), driver.arq_stats());
            transport.data_frames += net.data_sent;
            transport.ack_frames += net.acks_sent;
            transport.bytes_sent += net.bytes_sent;
            transport.io_errors += net.io_errors;
            transport.retransmits += arq.retransmits;
            transport.duplicates += arq.duplicates;
            transport.abandoned += arq.abandoned;
        }
        if transport.abandoned > 0 {
            return Err(format!("{} frames abandoned", transport.abandoned));
        }
        Ok((sample, transport))
    }
}

impl Workload for Udp {
    fn op(&mut self, index: u64) -> Result<OpSample, String> {
        self.dkg(index, &patient_arq(), &mut Recorder::new(false))
            .map(|(sample, _)| sample)
    }

    fn trace(&mut self, ops: u64, _scratch: &Path) -> Result<TraceReport, String> {
        let mut timed = OpSample::default();
        for index in 0..ops {
            timed.add(self.op(index)?);
        }
        let simulated = timed_dkg(&self.setup, 0, &mut Vec::new())?;
        // The same operations at the shipped ARQ defaults (see UDP_RTO_MS).
        let mut default_arq = (OpSample::default(), Transport::default());
        for index in 0..ops {
            let (sample, transport) =
                self.dkg(index, &ArqConfig::default(), &mut Recorder::new(false))?;
            default_arq.0.add(sample);
            default_arq.1.add(transport);
        }

        let mut recorder = Recorder::new(true);
        let mut totals = OpSample::default();
        let mut transport = Transport::default();
        for index in 0..ops {
            recorder.set_op(index as u32);
            let (sample, counters) = self.dkg(index, &patient_arq(), &mut recorder)?;
            totals.add(sample);
            transport.add(counters);
        }

        let per_op = |total: u64| total as f64 / ops as f64;
        let step = recorder
            .aggregate()
            .get(&("dkg-net", "step"))
            .copied()
            .unwrap_or_default();
        let mut m = Metrics::default();
        m.set("arith.group_ops", per_op(totals.group_ops));
        m.set("wire.datagrams", per_op(totals.datagrams));
        m.set("wire.bytes", per_op(totals.bytes));
        m.set("net.steps", per_op(transport.steps));
        m.set("net.step_busy_ms", ns_to_ms(step.busy_ns) / ops as f64);
        m.set("net.data_frames", per_op(transport.data_frames));
        m.set("net.ack_frames", per_op(transport.ack_frames));
        m.set("net.retransmits", per_op(transport.retransmits));
        m.set("net.duplicates", per_op(transport.duplicates));
        m.set("net.abandoned", transport.abandoned as f64);
        m.set("net.bytes_sent", per_op(transport.bytes_sent));
        m.set(
            "net.first_try_ratio",
            transport.data_frames as f64 / (transport.data_frames + transport.retransmits) as f64,
        );
        m.set(
            "net.amplification",
            transport.bytes_sent as f64 / totals.bytes as f64,
        );
        m.set(
            "net.overhead_ratio",
            timed.wall.as_secs_f64() / ops as f64 / simulated.wall.as_secs_f64(),
        );
        m.set("net.io_errors", transport.io_errors as f64);
        m.set("net.default_arq_op_ms", ms(default_arq.0.wall) / ops as f64);
        m.set(
            "net.default_arq_retransmits",
            per_op(default_arq.1.retransmits),
        );
        m.set(
            "trace.overhead_ratio",
            totals.wall.as_secs_f64() / timed.wall.as_secs_f64(),
        );
        m.set("trace.spans", recorder.spans().len() as f64);
        Ok(TraceReport {
            metrics: m,
            recorder,
            totals,
        })
    }
}
