//! The scenario runner: one full DKG over [`EndpointNet`] with `f`
//! corrupted nodes driving a [`StrategyKind`], chaos applied to the
//! links, and the paper's two-sided bound checked on the outcome:
//!
//! * `f ≤ t` — every honest node terminates, all with the **same** group
//!   key, and the byte transcript is deterministic across executors and
//!   worker counts;
//! * `f = t + 1` — beyond the proven bound liveness may go, but safety
//!   must not: two honest nodes never finish with different keys.

use std::collections::{BTreeMap, BTreeSet};

use dkg_core::{DkgInput, DkgOutput, SystemSetup};
use dkg_crypto::NodeId;
use dkg_engine::{
    DatagramOrigin, Endpoint, EndpointConfig, EndpointNet, Event, Executor, InlineExecutor,
    ThreadPoolExecutor, WallClock,
};
use dkg_sim::{ChaosModel, DelayModel};

use crate::node::MaliciousNode;
use crate::strategies::StrategyKind;

/// Parameters of one adversarial run.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// System size `n` (nodes `1..=n`, threshold `t = ⌊(n−1)/3⌋`).
    pub n: usize,
    /// Number of corrupted nodes (the highest `corrupted` ids).
    pub corrupted: usize,
    /// Seed for everything: key material, delays, strategy randomness.
    pub seed: u64,
    /// The link model (chaos welcome).
    pub chaos: ChaosModel,
    /// Simulated-time bound: runs that have not drained by then (a
    /// starved quorum never drains — its leader-change timers re-arm
    /// forever) are cut off and judged on what happened.
    pub deadline: WallClock,
    /// Crypto workers: `0` = inline execution, `k > 0` = a `k`-worker
    /// [`ThreadPoolExecutor`] with deferred endpoints. The transcript must
    /// not depend on this — that is the determinism half of the matrix.
    pub workers: usize,
    /// Keep copies of adversary-emitted frames (wire-validity tests).
    pub record_frames: bool,
}

impl ScenarioSpec {
    /// A standard scenario: `n` nodes, `corrupted` corrupted, moderate
    /// uniform link delays, inline crypto.
    pub fn new(n: usize, corrupted: usize, seed: u64) -> Self {
        ScenarioSpec {
            n,
            corrupted,
            seed,
            chaos: ChaosModel::from(DelayModel::Uniform { min: 10, max: 80 }),
            deadline: 3_600_000,
            workers: 0,
            record_frames: false,
        }
    }

    /// Replaces the link model (builder style).
    pub fn with_chaos(mut self, chaos: ChaosModel) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets the worker count (builder style; `0` = inline).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The ids handed to the adversary: the highest `corrupted` ids, so
    /// the initial leader (node 1) stays honest and liveness questions are
    /// about quorums, not a dead leader. (Corrupting the leader is the
    /// vote-withholder scenario with the rotation's timers doing the rest —
    /// covered by the leader-change tests in `dkg-engine`.)
    pub fn corrupted_ids(&self) -> Vec<NodeId> {
        ((self.n - self.corrupted + 1) as NodeId..=self.n as NodeId).collect()
    }
}

/// What one adversarial run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The strategy under test.
    pub strategy: &'static str,
    /// Adversary-controlled ids.
    pub corrupted: Vec<NodeId>,
    /// Honest ids.
    pub honest: Vec<NodeId>,
    /// Group-key bytes per honest node that completed.
    pub keys: BTreeMap<NodeId, Vec<u8>>,
    /// Distinct group keys among completed honest nodes (≤ 1 = safety).
    pub distinct_keys: usize,
    /// The byte-transcript digest of the whole run (all sends, adversary
    /// included).
    pub transcript: [u8; 32],
    /// Endpoint-level rejections of adversary-origin datagrams.
    pub adversary_rejections: usize,
    /// Endpoint-level rejections of honest-origin datagrams (must stay 0:
    /// the adversary may not corrupt honest traffic).
    pub honest_rejections: usize,
    /// Datagrams severed by timed partitions.
    pub severed: u64,
    /// Leader changes observed at honest nodes.
    pub leader_changes: usize,
    /// Copies of adversary frames, when the spec asked for them.
    pub adversary_frames: Vec<(NodeId, NodeId, Vec<u8>)>,
}

impl ScenarioOutcome {
    /// Safety: no two honest nodes finished with different group keys.
    pub fn agreement_holds(&self) -> bool {
        self.distinct_keys <= 1
    }

    /// The `f ≤ t` guarantee: every honest node terminated with the one
    /// group key.
    pub fn all_honest_completed(&self) -> bool {
        self.distinct_keys == 1 && self.keys.len() == self.honest.len()
    }
}

/// Runs one scenario: `spec.corrupted` nodes under `kind`, the rest
/// honest, full DKG at `τ = 0`.
pub fn run_scenario(kind: StrategyKind, spec: &ScenarioSpec) -> ScenarioOutcome {
    let setup = SystemSetup::generate(spec.n, 0, spec.seed);
    let corrupted = spec.corrupted_ids();
    let honest: Vec<NodeId> = setup
        .config
        .vss
        .nodes
        .iter()
        .copied()
        .filter(|n| !corrupted.contains(n))
        .collect();

    let executor: Box<dyn Executor> = if spec.workers == 0 {
        Box::new(InlineExecutor::new())
    } else {
        Box::new(ThreadPoolExecutor::new(spec.workers))
    };
    let mut net = EndpointNet::with_executor(DelayModel::Constant(0), spec.seed, executor);
    net.set_chaos(spec.chaos.clone());
    net.record_transcript();
    if spec.record_frames {
        net.record_adversary_frames();
    }

    let config = EndpointConfig {
        defer_crypto: spec.workers > 0,
        ..EndpointConfig::default()
    };
    for &node in &honest {
        let mut endpoint = Endpoint::new(node, config.clone());
        endpoint
            .add_dkg_session(setup.build_node(node, 0))
            .expect("fresh endpoint hosts no session");
        net.add_endpoint(endpoint);
    }
    for &node in &corrupted {
        let strategy_seed = spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(node);
        net.add_corrupt_endpoint(Box::new(MaliciousNode::new(
            &setup,
            node,
            0,
            kind.make(),
            strategy_seed,
        )));
    }
    for &node in &honest {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    for &node in &corrupted {
        net.schedule_corrupt_start(node, 0);
    }
    net.run_until(spec.deadline);

    let mut keys = BTreeMap::new();
    let mut leader_changes = 0;
    for record in net.events() {
        match &record.event {
            Event::Dkg {
                output: DkgOutput::Completed { commitment, .. },
                ..
            } => {
                keys.insert(record.node, commitment.public_key().to_bytes().to_vec());
            }
            Event::Dkg {
                output: DkgOutput::LeaderChanged { .. },
                ..
            } => leader_changes += 1,
            _ => {}
        }
    }
    let distinct_keys = keys.values().collect::<BTreeSet<_>>().len();
    let adversary_rejections = net
        .rejections()
        .iter()
        .filter(|r| r.origin == DatagramOrigin::Adversary)
        .count();
    let honest_rejections = net
        .rejections()
        .iter()
        .filter(|r| r.origin == DatagramOrigin::Honest)
        .count();

    ScenarioOutcome {
        strategy: kind.name(),
        corrupted,
        honest,
        keys,
        distinct_keys,
        transcript: net.transcript_digest().expect("transcript was enabled"),
        adversary_rejections,
        honest_rejections,
        severed: net.severed(),
        leader_changes,
        adversary_frames: net.adversary_frames().to_vec(),
    }
}
