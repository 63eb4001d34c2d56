//! The epoch loop: [`run_fleet`] drives a seeded [`FleetPlan`] end to end.
//!
//! One epoch executes, in order:
//!
//! 1. **Boundary restore** — if the previous epoch ended with a crash, the
//!    victim's endpoint is rebuilt from its store (§5.3) *before* anything
//!    else touches that disk state, and the restored share is compared
//!    against the pre-crash value.
//! 2. **Membership agreement** (§6.1) — on churn epochs every member runs
//!    the [`dkg_core::group::GroupModNode`] reliable broadcast over real
//!    endpoints ([`run_group_agreement`]); the accepted change is applied
//!    at the phase boundary with [`apply_group_changes`].
//! 3. **Share renewal** (§5.2) — a resharing DKG at `τ = epoch`, driven
//!    by the same [`plan_renewal`] safeguards production uses, optionally
//!    with one corrupted member ([`MaliciousNode`]), a timed chaos
//!    partition, a SIGKILL+restore mid-phase, and — during the rolling
//!    wire upgrade — injected v2 probe frames whose rejection class
//!    proves the version gate is live on exactly the right nodes.
//! 4. **Node addition** (§6.2) — on join epochs, `t + 1` members derive
//!    sub-shares for the newcomer from their agreed resharings.
//! 5. **Signing traffic** — the epoch's shares serve threshold-signing
//!    requests; every aggregated signature must verify as *plain* Schnorr
//!    against the epoch-0 key.
//! 6. **Invariants** — the group key is unchanged, every live share
//!    matches its commitment, and two different `deg + 1` subsets of the
//!    share set interpolate to a secret committing to the epoch-0 key.
//!
//! Every assertion carries the plan seed so a red run can be replayed
//! verbatim (`FLEET_REPLAY_SEED` in the test suite).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use dkg_adversary::{MaliciousNode, StrategyKind};
use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_core::group::{
    apply_group_changes, combine_subshares, subshare_for_new_node, GroupChange, ParameterAdjustment,
};
use dkg_core::{
    plan_renewal, CombineRule, DkgConfig, DkgInput, PhaseState, RenewalOptions, SystemSetup,
};
use dkg_crypto::{sha256, NodeId, PublicKey};
use dkg_engine::runner::{
    attach_sign_sessions, collect_outcomes, collect_signatures, run_group_agreement,
};
use dkg_engine::{
    DatagramOrigin, Endpoint, EndpointConfig, EndpointNet, Executor, InlineExecutor, Reject,
    SessionKey, ThreadPoolExecutor,
};
use dkg_sim::{ChaosModel, DelayModel, TimedPartition};
use dkg_store::StoreHandle;
use dkg_tss::TssInput;
use dkg_wire::{encode_datagram_versioned, Header, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{ChurnKind, EpochPlan, FleetPlan, WireStage};
use crate::report::{EpochReport, FleetReport};

/// The wire version the fleet starts on.
const V_LEGACY: u8 = dkg_wire::VERSION;
/// The wire version the rolling upgrade moves the fleet to.
const V_NEXT: u8 = dkg_wire::VERSION + 1;
/// Offset keeping probe session keys out of the range real epochs use, so
/// an upgraded node's rejection is provably `UnknownSession`, never a
/// collision with live traffic.
const PROBE_OFFSET: u64 = 1_000_000;
/// Base signing-session id; `sid = SIGN_BASE_SID + τ` is unique per epoch.
const SIGN_BASE_SID: u64 = 0x5100;
/// Byzantine strategies mild enough to corrupt one *member* (not the
/// fault-budget-breaking dealer attacks) while the fleet keeps running.
const MILD_STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::VoteWithholder,
    StrategyKind::SelectiveSender,
    StrategyKind::Replayer,
    StrategyKind::EquivocatingDealer,
];

/// Asserts with the plan seed attached, so every fleet failure names the
/// exact scenario to replay (`FLEET_REPLAY_SEED=<seed>` in the suite).
macro_rules! fleet_assert {
    ($seed:expr, $cond:expr, $($arg:tt)+) => {
        assert!(
            $cond,
            "{} [plan seed {seed}; re-run with FLEET_REPLAY_SEED={seed}]",
            format_args!($($arg)+),
            seed = $seed,
        );
    };
}

/// Which executor each epoch network runs its crypto jobs on — the fleet
/// analogue of the engine determinism suite's modes, so the whole epoch
/// machinery can be proven transcript-identical across executors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetCrypto {
    /// Inline verification at receipt (`defer_crypto = false`).
    Inline,
    /// Deferred jobs on the inline executor.
    InlineDeferred,
    /// Deferred jobs on a thread pool with this many workers.
    Pool(usize),
    /// Deferred jobs on a pool sized from `DKG_WORKERS` (CI matrix knob).
    PoolEnv,
}

impl FleetCrypto {
    /// A fresh executor for one epoch network.
    fn executor(&self) -> Box<dyn Executor> {
        match self {
            FleetCrypto::Inline | FleetCrypto::InlineDeferred => Box::new(InlineExecutor::new()),
            FleetCrypto::Pool(workers) => Box::new(ThreadPoolExecutor::new(*workers)),
            FleetCrypto::PoolEnv => Box::new(ThreadPoolExecutor::from_env()),
        }
    }

    /// Whether honest endpoints defer crypto to the executor.
    fn defer(&self) -> bool {
        !matches!(self, FleetCrypto::Inline)
    }
}

/// How a fleet run is executed: crypto executor and persistence backing.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Executor mode for every epoch network.
    pub crypto: FleetCrypto,
    /// `None` runs every node on a [`MemStore`](dkg_store::MemStore);
    /// `Some(base)` gives each node a [`FileStore`](dkg_store::FileStore)
    /// directory under `base` — crash drills then really go through disk.
    pub store_dir: Option<PathBuf>,
    /// Base network delay model for every epoch.
    pub delay: DelayModel,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            crypto: FleetCrypto::Inline,
            store_dir: None,
            delay: DelayModel::Uniform { min: 10, max: 60 },
        }
    }
}

/// An end-of-epoch crash victim awaiting its cross-boundary restore.
struct PendingRestore {
    node: NodeId,
    tau: u64,
    share: Scalar,
}

/// Runs `plan` to completion and returns the per-epoch report.
///
/// Panics (with the plan seed in the message) if any epoch invariant
/// fails — this is a test harness; a violated invariant *is* the failure.
pub fn run_fleet(plan: &FleetPlan, options: &FleetOptions) -> FleetReport {
    // One keyring for the whole run, sized for every node that can ever
    // join: per-epoch setups swap the *config* while keeping identities
    // stable, exactly like a real deployment's PKI.
    let universe = SystemSetup::generate(plan.n + plan.max_joins(), plan.f, plan.seed);
    let mut fleet = Fleet {
        plan,
        options,
        universe,
        config: DkgConfig::standard(plan.n, plan.f).expect("plan sizes satisfy n ≥ 3t + 2f + 1"),
        states: BTreeMap::new(),
        stores: BTreeMap::new(),
        group_key: None,
        pending: None,
        digest: [0u8; 32],
        next_join: plan.n as NodeId + 1,
    };
    let mut epochs = vec![fleet.run_genesis()];
    for (index, epoch) in plan.epochs.iter().enumerate() {
        epochs.push(fleet.run_epoch(index as u64 + 1, epoch));
    }
    // A crash in the final epoch still gets its restore drill: bring the
    // victim back from disk and re-check the invariants over the full set.
    let restored = fleet.restore_pending();
    if let Some(node) = restored.first() {
        let last = epochs.last_mut().expect("at least genesis");
        last.restored.push(*node);
        last.shares_checked = fleet.check_invariants(plan.epochs.len() as u64);
    }
    FleetReport {
        seed: plan.seed,
        group_key: fleet.key().to_bytes().to_vec(),
        epochs,
        transcript_digest: fleet.digest,
    }
}

/// The long-lived deployment state threaded through epochs.
struct Fleet<'a> {
    plan: &'a FleetPlan,
    options: &'a FleetOptions,
    universe: SystemSetup,
    /// Configuration currently in force (evolves under churn).
    config: DkgConfig,
    /// Live per-node phase states (the shares the next renewal reshares).
    states: BTreeMap<NodeId, PhaseState>,
    /// One store per node for the *whole run* — endpoint incarnations come
    /// and go, the disk does not.
    stores: BTreeMap<NodeId, StoreHandle>,
    /// The epoch-0 distributed public key; every later epoch must preserve
    /// it exactly.
    group_key: Option<GroupElement>,
    pending: Option<PendingRestore>,
    /// Running digest over every epoch network transcript and share set.
    digest: [u8; 32],
    next_join: NodeId,
}

impl Fleet<'_> {
    fn key(&self) -> GroupElement {
        self.group_key.expect("genesis ran first")
    }

    fn store(&mut self, node: NodeId) -> StoreHandle {
        if let Some(handle) = self.stores.get(&node) {
            return handle.clone();
        }
        let seed = self.plan.seed;
        let handle = match &self.options.store_dir {
            None => StoreHandle::in_memory(),
            Some(base) => StoreHandle::open_node_dir(base, node).unwrap_or_else(|e| {
                panic!("opening store for node {node} failed: {e:?} [plan seed {seed}]")
            }),
        };
        self.stores.insert(node, handle.clone());
        handle
    }

    /// The current epoch's setup: today's config over the run-wide keyring.
    fn setup_for(&self, config: DkgConfig) -> SystemSetup {
        SystemSetup {
            config,
            signing_keys: self.universe.signing_keys.clone(),
            directory: self.universe.directory.clone(),
            seed: self.plan.seed,
        }
    }

    fn endpoint_config(
        &mut self,
        node: NodeId,
        wire: WireStage,
        upgraded: &BTreeSet<NodeId>,
        defer: bool,
    ) -> EndpointConfig {
        let (wire_version, max_wire_version) = match wire {
            WireStage::Legacy => (V_LEGACY, V_LEGACY),
            // Mid-rollout: everyone still *emits* legacy frames; only the
            // upgraded half widens its acceptance window.
            WireStage::MixedAccept if upgraded.contains(&node) => (V_LEGACY, V_NEXT),
            WireStage::MixedAccept => (V_LEGACY, V_LEGACY),
            WireStage::Upgraded => (V_NEXT, V_NEXT),
        };
        EndpointConfig {
            defer_crypto: defer,
            store: Some(self.store(node)),
            wire_version,
            max_wire_version,
            ..EndpointConfig::default()
        }
    }

    fn new_net(&self, tau: u64, salt: u64) -> EndpointNet {
        let seed = self.plan.seed ^ tau.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let mut net = EndpointNet::with_executor(
            self.options.delay.clone(),
            seed,
            self.options.crypto.executor(),
        );
        net.record_transcript();
        net
    }

    /// Folds one finished network's transcript into the run digest.
    fn fold_net(&mut self, net: &EndpointNet) {
        let transcript = net
            .transcript_digest()
            .expect("fleet nets record transcripts");
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.digest);
        buf.extend_from_slice(&transcript);
        self.digest = sha256(&buf);
    }

    /// Folds the live share set into the run digest (executor-determinism
    /// compares exactly this chain).
    fn fold_states(&mut self) {
        let mut buf = self.digest.to_vec();
        for (node, state) in &self.states {
            buf.extend_from_slice(&node.to_be_bytes());
            buf.extend_from_slice(&state.share.to_be_bytes());
        }
        self.digest = sha256(&buf);
    }

    // ------------------------------------------------------------------
    // Genesis
    // ------------------------------------------------------------------

    fn run_genesis(&mut self) -> EpochReport {
        let seed = self.plan.seed;
        let tau = 0u64;
        let members = self.config.vss.nodes.clone();
        let setup = self.setup_for(self.config.clone());
        let defer = self.options.crypto.defer();
        let none = BTreeSet::new();
        let mut net = self.new_net(tau, 0xE0);
        for &node in &members {
            let config = self.endpoint_config(node, WireStage::Legacy, &none, defer);
            let mut endpoint = Endpoint::new(node, config);
            endpoint
                .add_dkg_session(setup.build_node(node, tau))
                .expect("fresh endpoint hosts no session");
            net.add_endpoint(endpoint);
        }
        for &node in &members {
            net.schedule_dkg_input(node, tau, DkgInput::Start, 0);
        }
        net.run();

        let outcomes = collect_outcomes(&net, tau);
        fleet_assert!(
            seed,
            outcomes.len() == members.len(),
            "genesis: only {}/{} nodes completed key generation",
            outcomes.len(),
            members.len()
        );
        let key = outcomes[0].public_key;
        self.group_key = Some(key);
        for outcome in &outcomes {
            fleet_assert!(
                seed,
                outcome.public_key == key,
                "genesis: node {} derived a different group key",
                outcome.node
            );
        }
        for &node in &members {
            let endpoint = net.endpoint(node).expect("honest genesis node");
            let result = endpoint.dkg_result(tau).expect("completed above");
            self.states.insert(
                node,
                PhaseState {
                    tau,
                    share: result.share,
                    commitment: result.commitment.clone(),
                    public_key: result.public_key,
                },
            );
        }

        let signatures = self.sign_traffic(&mut net, tau, 1);
        self.fold_net(&net);
        let shares_checked = self.check_invariants(tau);
        self.fold_states();
        EpochReport {
            tau,
            churn: None,
            members,
            threshold: self.config.t(),
            corrupt: None,
            mid_crashed: None,
            end_crashed: None,
            restored: Vec::new(),
            wire: WireStage::Legacy,
            rejections: net.rejections().len() as u64,
            signatures,
            shares_checked,
        }
    }

    // ------------------------------------------------------------------
    // One renewal epoch
    // ------------------------------------------------------------------

    fn run_epoch(&mut self, tau: u64, epoch: &EpochPlan) -> EpochReport {
        let seed = self.plan.seed;
        // (1) Cross-boundary restore — strictly before any epoch network
        // re-snapshots the victim's store.
        let restored = self.restore_pending();

        let mut rng = StdRng::seed_from_u64(seed ^ tau.wrapping_mul(0x51_7CC1_B727_2202));
        let members = self.config.vss.nodes.clone();
        // Mid-rollout acceptance split: the lower-id half upgrades first.
        let upgraded: BTreeSet<NodeId> = members[..members.len() / 2].iter().copied().collect();

        // (2) Resolve and agree the membership change.
        let (executed, change) = self.resolve_churn(epoch.churn, &members, &mut rng);
        let config_next = match change {
            Some(change) => apply_group_changes(&self.config, &[change])
                .expect("resolve_churn only returns valid changes"),
            None => self.config.clone(),
        };
        let mut rejections = 0u64;
        if let Some(change) = change {
            rejections += self.agree_change(tau, epoch, &members, &upgraded, change);
        }

        // §6.3: a leave shrinks the group *before* the renewal — the epoch
        // reshares among the remaining members only. §6.2: a join reshares
        // among the *old* members, then derives the newcomer's sub-shares.
        let (config_renewal, joiner, leaver) = match executed {
            ChurnKind::Join { .. } => (self.config.clone(), Some(self.next_join), None),
            ChurnKind::Leave => {
                let gone: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|n| !config_next.vss.nodes.contains(n))
                    .collect();
                (config_next.clone(), None, gone.first().copied())
            }
            ChurnKind::Refresh => (self.config.clone(), None, None),
        };
        let renewal_members = config_renewal.vss.nodes.clone();
        let mut previous = self.states.clone();
        if let Some(node) = leaver {
            previous.remove(&node);
        }

        // Draw this epoch's victim roles — pairwise distinct, all holding
        // a live share.
        let mut pool: Vec<NodeId> = renewal_members
            .iter()
            .copied()
            .filter(|n| previous.contains_key(n))
            .collect();
        let corrupt = epoch.adversary.then(|| draw(&mut pool, &mut rng)).flatten();
        let mid_crash = epoch.mid_crash.then(|| draw(&mut pool, &mut rng)).flatten();
        // No end-of-epoch crash in a join epoch: members keep their
        // previous-phase shares there (§6.2 below), but the epoch's store
        // snapshots only hold the new resharing session, so a restored
        // endpoint could not prove the share it actually kept.
        let end_crash = (epoch.end_crash && joiner.is_none())
            .then(|| draw(&mut pool, &mut rng))
            .flatten();

        // (3) The renewal network.
        let setup = self.setup_for(config_renewal.clone());
        let renewal_options = RenewalOptions {
            delay: self.options.delay.clone(),
            clock_skew: 200,
            crashed: Vec::new(),
        };
        let renewal_plan = match plan_renewal(&setup, &previous, &renewal_options) {
            Ok(plan) => plan,
            Err(err) => panic!(
                "epoch τ={tau}: plan_renewal rejected the scenario: {err:?} [plan seed {seed}]"
            ),
        };
        let defer = self.options.crypto.defer();
        let mut net = self.new_net(tau, 0xB0);
        if epoch.chaos {
            // Held-not-dropped partition (§2.1 asynchronous model): two
            // members are cut off mid-renewal and their traffic released
            // at the heal, with reordering on top.
            net.set_chaos(ChaosModel {
                base: self.options.delay.clone(),
                links: Vec::new(),
                reorder_window: 30,
                partitions: vec![TimedPartition {
                    island: renewal_members.iter().copied().take(2).collect(),
                    start: 200,
                    end: 900,
                }],
                hold_severed: true,
            });
        }
        for &node in &renewal_members {
            if Some(node) == corrupt {
                continue;
            }
            let mut session = setup.build_node(node, tau);
            session.set_expected_dealer_commitments(renewal_plan.expected_commitments.clone());
            session.set_combine_rule(CombineRule::InterpolateAtZero);
            let config = self.endpoint_config(node, epoch.wire, &upgraded, defer);
            let mut endpoint = Endpoint::new(node, config);
            endpoint
                .add_dkg_session(session)
                .expect("fresh endpoint hosts no session");
            net.add_endpoint(endpoint);
        }
        let mut corrupt_info = None;
        if let Some(node) = corrupt {
            let strategy = MILD_STRATEGIES[rng.gen_range(0..MILD_STRATEGIES.len())];
            corrupt_info = Some((node, strategy.name()));
            let mut session = setup.build_node(node, tau);
            session.set_expected_dealer_commitments(renewal_plan.expected_commitments.clone());
            session.set_combine_rule(CombineRule::InterpolateAtZero);
            // The inner endpoint always runs crypto inline (nothing pumps
            // its jobs) and always *emits* legacy frames — a corrupted
            // laggard — but persists to the node's real store, so the
            // fleet can later harvest whatever state it reached.
            let config = EndpointConfig {
                defer_crypto: false,
                store: Some(self.store(node)),
                wire_version: V_LEGACY,
                max_wire_version: match epoch.wire {
                    WireStage::Legacy => V_LEGACY,
                    WireStage::MixedAccept | WireStage::Upgraded => V_NEXT,
                },
                ..EndpointConfig::default()
            };
            let malicious = MaliciousNode::with_session(
                &setup,
                node,
                tau,
                session,
                DkgInput::StartReshare {
                    value: previous[&node].share,
                },
                config,
                strategy.make(),
                seed ^ tau,
            );
            net.add_corrupt_endpoint(Box::new(malicious));
        }
        for &(node, tick) in &renewal_plan.ticks {
            if Some(node) == corrupt {
                net.schedule_corrupt_start(node, tick);
            } else {
                net.schedule_dkg_input(
                    node,
                    tau,
                    DkgInput::StartReshare {
                        value: previous[&node].share,
                    },
                    tick,
                );
            }
        }
        if let Some(node) = mid_crash {
            // SIGKILL after the phase ticks, restore from the store while
            // the renewal is still running, then run §5.3 recovery to
            // refetch whatever was addressed to the node while it was down.
            net.schedule_crash(node, 400);
            net.schedule_recover(node, 700);
            net.schedule_dkg_input(node, tau, DkgInput::Recover, 720);
        }
        let mut probed = Vec::new();
        if epoch.wire == WireStage::MixedAccept {
            probed = self.inject_probes(&mut net, tau, &renewal_members, corrupt);
        }
        net.run();

        // Completion + key preservation.
        let outcomes = collect_outcomes(&net, tau);
        fleet_assert!(
            seed,
            outcomes.len() >= config_renewal.completion_threshold(),
            "epoch τ={tau}: only {} of {} members completed renewal (need ≥ {})",
            outcomes.len(),
            renewal_members.len(),
            config_renewal.completion_threshold()
        );
        for outcome in &outcomes {
            fleet_assert!(
                seed,
                outcome.public_key == self.key(),
                "epoch τ={tau}: node {} broke group-key preservation under renewal",
                outcome.node
            );
        }
        self.check_probes(&net, tau, &probed, &upgraded);

        // Harvest the new phase states from live endpoints…
        let mut next_states: BTreeMap<NodeId, PhaseState> = BTreeMap::new();
        if joiner.is_some() {
            // §6.2 node addition extends the *current* sharing: existing
            // members keep the shares they already hold, and the renewal
            // run above exists to produce the agreed resharings the
            // sub-shares are derived from (and to prove liveness). Its
            // combined output is discarded.
            next_states = self.states.clone();
        } else {
            for &node in &renewal_members {
                if Some(node) == corrupt {
                    continue;
                }
                let Some(endpoint) = net.endpoint(node) else {
                    continue; // crashed and unrecovered
                };
                if let Some(result) = endpoint.dkg_result(tau) {
                    next_states.insert(
                        node,
                        PhaseState {
                            tau,
                            share: result.share,
                            commitment: result.commitment.clone(),
                            public_key: result.public_key,
                        },
                    );
                }
            }
            // …and the corrupted node's from its store: whatever its inner
            // machine persisted is what an operator would find after
            // re-imaging the box. A diverged or incomplete state simply
            // drops out of the live set.
            if let Some(node) = corrupt {
                let config = EndpointConfig {
                    store: Some(self.store(node)),
                    ..EndpointConfig::default()
                };
                if let Ok(endpoint) = Endpoint::restore(config) {
                    if let Some(result) = endpoint.dkg_result(tau) {
                        if result.public_key == self.key() {
                            next_states.insert(
                                node,
                                PhaseState {
                                    tau,
                                    share: result.share,
                                    commitment: result.commitment.clone(),
                                    public_key: result.public_key,
                                },
                            );
                        }
                    }
                }
            }
        }

        // (4) §6.2 node addition: t+1 members turn their agreed resharings
        // into sub-shares for the newcomer.
        if let Some(node) = joiner {
            let state = self.admit_joiner(tau, node, &net, &renewal_members, corrupt, &next_states);
            next_states.insert(node, state);
            self.next_join += 1;
        }

        // (5) Signing traffic on the epoch's shares.
        let signatures = self.sign_traffic(&mut net, tau, epoch.sign_requests);

        // (6) End-of-epoch SIGKILL: the victim's RAM state is discarded
        // here; the next epoch restores it from disk and must find the
        // same share.
        let mut end_crashed = None;
        if let Some(node) = end_crash {
            if let Some(state) = next_states.remove(&node) {
                net.schedule_crash(node, net.now() + 20);
                net.run();
                self.pending = Some(PendingRestore {
                    node,
                    tau,
                    share: state.share,
                });
                end_crashed = Some(node);
            }
        }
        rejections += net.rejections().len() as u64;
        self.fold_net(&net);

        // Commit the phase change and check the epoch invariants.
        self.config = config_next;
        self.states = next_states;
        let shares_checked = self.check_invariants(tau);
        self.fold_states();
        EpochReport {
            tau,
            churn: Some(executed),
            members: self.config.vss.nodes.clone(),
            threshold: self.config.t(),
            corrupt: corrupt_info,
            mid_crashed: mid_crash,
            end_crashed,
            restored,
            wire: epoch.wire,
            rejections,
            signatures,
            shares_checked,
        }
    }

    // ------------------------------------------------------------------
    // Epoch building blocks
    // ------------------------------------------------------------------

    /// Turns the plan's abstract churn into a concrete, *valid* group
    /// change, degrading gracefully (drop the `t`-adjustment, then fall
    /// back to a refresh) when the resilience bound `n ≥ 3t + 2f + 1`
    /// refuses the preferred form.
    fn resolve_churn(
        &self,
        churn: ChurnKind,
        members: &[NodeId],
        rng: &mut StdRng,
    ) -> (ChurnKind, Option<GroupChange>) {
        match churn {
            ChurnKind::Refresh => (ChurnKind::Refresh, None),
            ChurnKind::Join { raise_threshold } => {
                let node = self.next_join;
                let adjustments: &[ParameterAdjustment] = if raise_threshold {
                    &[ParameterAdjustment::Threshold, ParameterAdjustment::None]
                } else {
                    &[ParameterAdjustment::None]
                };
                for &adjustment in adjustments {
                    let change = GroupChange::AddNode { node, adjustment };
                    if apply_group_changes(&self.config, &[change]).is_ok() {
                        let executed = ChurnKind::Join {
                            raise_threshold: adjustment == ParameterAdjustment::Threshold,
                        };
                        return (executed, Some(change));
                    }
                }
                (ChurnKind::Refresh, None)
            }
            // Leaves never adjust `t` (see `ChurnKind::Leave`): the only
            // degradation left is dropping the removal entirely when the
            // resilience bound refuses it.
            ChurnKind::Leave => {
                let node = members[rng.gen_range(0..members.len())];
                let change = GroupChange::RemoveNode {
                    node,
                    adjustment: ParameterAdjustment::None,
                };
                if apply_group_changes(&self.config, &[change]).is_ok() {
                    (ChurnKind::Leave, Some(change))
                } else {
                    (ChurnKind::Refresh, None)
                }
            }
        }
    }

    /// Runs the §6.1 agreement over endpoints: the lowest member proposes,
    /// everyone must accept the same change. Returns the net's rejection
    /// count for the epoch report.
    fn agree_change(
        &mut self,
        tau: u64,
        epoch: &EpochPlan,
        members: &[NodeId],
        upgraded: &BTreeSet<NodeId>,
        change: GroupChange,
    ) -> u64 {
        let seed = self.plan.seed;
        let mut net = self.new_net(tau, 0xA0);
        for &node in members {
            // The agreement phase has no crypto jobs to defer; run it
            // inline in every mode so the transcript chain stays
            // executor-independent by construction.
            let config = self.endpoint_config(node, epoch.wire, upgraded, false);
            net.add_endpoint(Endpoint::new(node, config));
        }
        let accepted = run_group_agreement(&mut net, &self.config, tau, members[0], change);
        fleet_assert!(
            seed,
            accepted.len() >= self.config.completion_threshold(),
            "epoch τ={tau}: only {}/{} members accepted the group change {change:?}",
            accepted.len(),
            members.len()
        );
        let rejections = net.rejections().len() as u64;
        self.fold_net(&net);
        rejections
    }

    /// Injects one v2 probe frame at each honest member during the
    /// mixed-acceptance epoch. Returns the probed nodes.
    fn inject_probes(
        &self,
        net: &mut EndpointNet,
        tau: u64,
        members: &[NodeId],
        corrupt: Option<NodeId>,
    ) -> Vec<NodeId> {
        let key = SessionKey::Dkg {
            tau: tau + PROBE_OFFSET,
        };
        let mut probed = Vec::new();
        for &to in members {
            if Some(to) == corrupt {
                continue; // corrupt traffic never reaches net rejections
            }
            let from = members
                .iter()
                .copied()
                .find(|&m| m != to)
                .expect("more than one member");
            let header = Header {
                protocol: key.protocol(),
                channel: key.channel(),
            };
            net.inject_datagram(
                from,
                to,
                encode_datagram_versioned(V_NEXT, header, &0u64),
                5,
            );
            probed.push(to);
        }
        probed
    }

    /// The observable upgrade gate: a still-legacy node must reject the
    /// v2 probe at the *version check* (it cannot even parse the frame),
    /// an upgraded node must get past the version check and reject the
    /// unknown *session* instead.
    fn check_probes(
        &self,
        net: &EndpointNet,
        tau: u64,
        probed: &[NodeId],
        upgraded: &BTreeSet<NodeId>,
    ) {
        let seed = self.plan.seed;
        for &node in probed {
            let wants_session_reject = upgraded.contains(&node);
            let hit = net.rejections().iter().any(|r| {
                r.node == node
                    && matches!(r.origin, DatagramOrigin::Injected)
                    && match (&r.reject, wants_session_reject) {
                        (Reject::UnknownSession(SessionKey::Dkg { tau: t }), true) => {
                            *t == tau + PROBE_OFFSET
                        }
                        (Reject::Malformed(WireError::UnsupportedVersion { version }), false) => {
                            *version == V_NEXT
                        }
                        _ => false,
                    }
            });
            fleet_assert!(
                seed,
                hit,
                "epoch τ={tau}: node {node} (upgraded={wants_session_reject}) did not reject \
                 the v2 probe at the expected layer",
            );
        }
    }

    /// §6.2: collects `t + 1` sub-shares from members' agreed resharings
    /// and combines them into the newcomer's share. The combined value is
    /// a point on the *current* polynomial (sub-share interpolation at
    /// zero yields `F(joiner)`, not a fresh sharing), so it is verified
    /// against the current phase's commitment matrix — the one the
    /// members' kept shares live on.
    fn admit_joiner(
        &self,
        tau: u64,
        joiner: NodeId,
        net: &EndpointNet,
        members: &[NodeId],
        corrupt: Option<NodeId>,
        current: &BTreeMap<NodeId, PhaseState>,
    ) -> PhaseState {
        let seed = self.plan.seed;
        let reference = current
            .values()
            .next()
            .expect("previous phase has states")
            .clone();
        let t = reference.commitment.threshold();
        let mut subshares = Vec::new();
        for &contributor in members {
            if subshares.len() > t {
                break;
            }
            if Some(contributor) == corrupt {
                continue;
            }
            let Some(sharings) = net
                .endpoint(contributor)
                .and_then(|e| e.dkg_session(tau))
                .and_then(|s| s.agreed_sharings())
            else {
                continue;
            };
            if let Some(subshare) = subshare_for_new_node(contributor, joiner, &sharings, t) {
                subshares.push(subshare);
            }
        }
        fleet_assert!(
            seed,
            subshares.len() > t,
            "epoch τ={tau}: only {} sub-shares derivable for joiner {joiner} (need {})",
            subshares.len(),
            t + 1
        );
        let combined = combine_subshares(joiner, &subshares, t);
        fleet_assert!(
            seed,
            combined.is_some(),
            "epoch τ={tau}: sub-shares for joiner {joiner} failed to combine"
        );
        let (share, _vector) = combined.expect("asserted above");
        fleet_assert!(
            seed,
            reference.commitment.share_commitment(joiner) == GroupElement::commit(&share),
            "epoch τ={tau}: joiner {joiner}'s combined share contradicts the current matrix"
        );
        PhaseState {
            tau: reference.tau,
            share,
            commitment: reference.commitment,
            public_key: self.key(),
        }
    }

    /// Serves `requests` signing requests on `net`'s epoch-`tau` shares
    /// and verifies every aggregated signature as plain Schnorr against
    /// the epoch-0 key. Returns the number verified.
    fn sign_traffic(&mut self, net: &mut EndpointNet, tau: u64, requests: u32) -> u32 {
        let seed = self.plan.seed;
        let sid = SIGN_BASE_SID + tau;
        let signers = attach_sign_sessions(net, tau, sid, 5_000, seed ^ tau);
        fleet_assert!(
            seed,
            !signers.is_empty(),
            "epoch τ={tau}: no nodes eligible to sign"
        );
        let start = net.now() + 10;
        let mut messages = BTreeMap::new();
        for i in 0..requests {
            let req = u64::from(i) + 1;
            let coordinator = signers[i as usize % signers.len()];
            let message = format!("fleet epoch {tau} request {req}").into_bytes();
            net.schedule_tss_input(
                coordinator,
                sid,
                TssInput::Sign {
                    req,
                    message: message.clone(),
                },
                start + u64::from(i),
            );
            messages.insert(req, message);
        }
        net.run();
        let signatures = collect_signatures(net, sid);
        fleet_assert!(
            seed,
            signatures.len() == requests as usize,
            "epoch τ={tau}: {}/{requests} signing requests completed",
            signatures.len()
        );
        let public_key =
            PublicKey::from_point(self.key()).expect("group key is never the identity");
        for (req, signature) in &signatures {
            let message = &messages[req];
            fleet_assert!(
                seed,
                public_key.verify(message, signature).is_ok(),
                "epoch τ={tau}: aggregated signature for request {req} fails plain-Schnorr \
                 verification against the epoch-0 key"
            );
        }
        signatures.len() as u32
    }

    /// Brings the previous epoch's end-of-epoch crash victim back from its
    /// store (§5.3 across an epoch boundary) and re-admits it to the live
    /// set, asserting the disk agrees with the pre-crash share.
    fn restore_pending(&mut self) -> Vec<NodeId> {
        let Some(pending) = self.pending.take() else {
            return Vec::new();
        };
        let seed = self.plan.seed;
        let node = pending.node;
        let config = EndpointConfig {
            store: Some(self.store(node)),
            ..EndpointConfig::default()
        };
        let endpoint = match Endpoint::restore(config) {
            Ok(endpoint) => endpoint,
            Err(err) => panic!(
                "cross-boundary restore of node {node} failed: {err:?} \
                 [plan seed {seed}; re-run with FLEET_REPLAY_SEED={seed}]"
            ),
        };
        let result = endpoint.dkg_result(pending.tau);
        fleet_assert!(
            seed,
            result.is_some(),
            "node {node}'s store lost its τ={} result across the crash",
            pending.tau
        );
        let result = result.expect("asserted above");
        fleet_assert!(
            seed,
            result.share == pending.share,
            "node {node} restored a different share than it held before the crash"
        );
        fleet_assert!(
            seed,
            result.public_key == self.key(),
            "node {node} restored a state disagreeing on the group key"
        );
        self.states.insert(
            node,
            PhaseState {
                tau: pending.tau,
                share: result.share,
                commitment: result.commitment.clone(),
                public_key: result.public_key,
            },
        );
        vec![node]
    }

    /// The per-epoch safety invariants over the live share set: every
    /// share matches its commitment, and two different `deg + 1` subsets
    /// interpolate to a secret committing to the epoch-0 key.
    fn check_invariants(&self, tau: u64) -> usize {
        let seed = self.plan.seed;
        let key = self.key();
        for (node, state) in &self.states {
            fleet_assert!(
                seed,
                state.public_key == key,
                "epoch τ={tau}: node {node} holds a state for a different group key"
            );
            fleet_assert!(
                seed,
                state.commitment.share_commitment(*node) == GroupElement::commit(&state.share),
                "epoch τ={tau}: node {node}'s share contradicts the agreed commitment matrix"
            );
        }
        let degree = self
            .states
            .values()
            .next()
            .expect("live members exist")
            .commitment
            .threshold();
        let points: Vec<(NodeId, Scalar)> = self
            .states
            .iter()
            .map(|(node, state)| (*node, state.share))
            .collect();
        fleet_assert!(
            seed,
            points.len() > degree,
            "epoch τ={tau}: only {} live shares at degree {degree}",
            points.len()
        );
        // Two maximally different subsets: if *any* t+1 shares interpolate
        // to the secret, and both extremes do, the whole set lies on one
        // degree-t polynomial whose zero commits to the group key.
        let front = &points[..degree + 1];
        let back = &points[points.len() - degree - 1..];
        for subset in [front, back] {
            let secret = dkg_poly::interpolate_secret(subset);
            fleet_assert!(
                seed,
                secret.is_some(),
                "epoch τ={tau}: share subset failed to interpolate"
            );
            fleet_assert!(
                seed,
                GroupElement::commit(&secret.expect("asserted above")) == key,
                "epoch τ={tau}: a t+1 share subset reconstructs a different secret \
                 than the epoch-0 key"
            );
        }
        points.len()
    }
}

/// Removes and returns a deterministic draw from `pool`.
fn draw(pool: &mut Vec<NodeId>, rng: &mut StdRng) -> Option<NodeId> {
    if pool.is_empty() {
        None
    } else {
        let index = rng.gen_range(0..pool.len());
        Some(pool.remove(index))
    }
}
