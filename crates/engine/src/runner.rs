//! Harness helpers running whole protocols through the [`Endpoint`] poll
//! API over [`EndpointNet`] — the canonical driver for examples,
//! integration tests and experiments (it re-exports [`SystemSetup`], so
//! one `dkg_engine::runner` import path covers system construction and
//! execution). Every metric these runs report is measured on real encoded
//! datagrams.
//!
//! Each entry point has an `_on` variant taking an [`Executor`]: the run
//! then hosts its sessions in deferred-crypto mode and the executor (e.g.
//! a [`crate::ThreadPoolExecutor`] sized by `DKG_WORKERS`) performs every
//! expensive verification. Executor choice cannot change the outcome —
//! verdicts are pure functions of the jobs and are applied in job order —
//! which the executor-determinism tests assert transcript-for-transcript.

use std::collections::{BTreeMap, BTreeSet};

use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_core::group::{GroupChange, GroupModInput, GroupModNode, GroupModOutput};
use dkg_core::proactive::{plan_renewal, PhaseState, RenewalError, RenewalOptions};
use dkg_core::{CombineRule, DkgConfig, DkgInput, DkgOutput};
use dkg_crypto::{NodeId, Signature};
use dkg_sim::{ChaosModel, DelayModel};
use dkg_store::StoreHandle;
use dkg_tss::{SignSession, TssConfig, TssInput, TssOutput};
use dkg_vss::{CommitmentMode, SessionId, VssConfig, VssInput, VssNode, VssOutput};

pub use dkg_core::runner::SystemSetup;

use crate::endpoint::{Endpoint, EndpointConfig, Event, WallClock};
use crate::executor::{Executor, InlineExecutor};
use crate::net::EndpointNet;

/// The per-node outcome of a completed DKG run.
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// The node.
    pub node: NodeId,
    /// The distributed public key it output.
    pub public_key: GroupElement,
    /// Its share.
    pub share: Scalar,
    /// The leader rank under which it completed.
    pub leader_rank: u64,
    /// Simulated completion time (ms).
    pub completion_time: u64,
}

/// Builds one endpoint per node of `setup`, each hosting the DKG session
/// `tau`, wired into a fresh [`EndpointNet`] (inline crypto).
pub fn build_dkg_net(setup: &SystemSetup, tau: u64, delay: DelayModel) -> EndpointNet {
    build_dkg_net_on(setup, tau, delay, Box::new(InlineExecutor::new()), false)
}

/// [`build_dkg_net`] with an explicit executor. With `defer_crypto` the
/// endpoints queue their verification work and the network feeds it to
/// `executor`; without it the executor sits idle and every check runs
/// inline (useful as the determinism baseline).
pub fn build_dkg_net_on(
    setup: &SystemSetup,
    tau: u64,
    delay: DelayModel,
    executor: Box<dyn Executor>,
    defer_crypto: bool,
) -> EndpointNet {
    let mut net = EndpointNet::with_executor(delay, setup.seed ^ tau, executor);
    let config = EndpointConfig {
        defer_crypto,
        ..EndpointConfig::default()
    };
    for &node in &setup.config.vss.nodes {
        let mut endpoint = Endpoint::new(node, config.clone());
        endpoint
            .add_dkg_session(setup.build_node(node, tau))
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }
    net
}

/// Runs a fresh key generation end to end through the endpoint API and
/// returns the per-node outcomes (only nodes that completed are included)
/// plus the network for further inspection (byte-accurate metrics, session
/// state, rejections).
pub fn run_key_generation(
    setup: &SystemSetup,
    delay: DelayModel,
    tau: u64,
) -> (Vec<NodeOutcome>, EndpointNet) {
    run_key_generation_on(setup, delay, tau, Box::new(InlineExecutor::new()), false)
}

/// [`run_key_generation`] with an explicit executor (see
/// [`build_dkg_net_on`]).
pub fn run_key_generation_on(
    setup: &SystemSetup,
    delay: DelayModel,
    tau: u64,
    executor: Box<dyn Executor>,
    defer_crypto: bool,
) -> (Vec<NodeOutcome>, EndpointNet) {
    let mut net = build_dkg_net_on(setup, tau, delay, executor, defer_crypto);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, tau, DkgInput::Start, 0);
    }
    net.run();
    let outcomes = collect_outcomes(&net, tau);
    (outcomes, net)
}

/// Extracts the `DKG-completed` outcomes for session `tau` from a finished
/// network.
pub fn collect_outcomes(net: &EndpointNet, tau: u64) -> Vec<NodeOutcome> {
    net.events()
        .iter()
        .filter_map(|record| match &record.event {
            Event::Dkg {
                tau: event_tau,
                output:
                    DkgOutput::Completed {
                        commitment,
                        share,
                        leader_rank,
                        ..
                    },
            } if *event_tau == tau => Some(NodeOutcome {
                node: record.node,
                public_key: commitment.public_key(),
                share: *share,
                leader_rank: *leader_rank,
                completion_time: record.time,
            }),
            _ => None,
        })
        .collect()
}

/// Outcome of a standalone HybridVSS sharing driven over endpoints.
pub struct VssNetRun {
    /// Nodes that output `shared`.
    pub completions: Vec<NodeId>,
    /// The network (metrics, endpoints) after the run.
    pub net: EndpointNet,
}

/// Runs one HybridVSS sharing (dealer 1) for `n` nodes over endpoints,
/// returning completions and the network. Each `(node, start, end)` in
/// `outages` crashes `node` at `start` and reboots it at `end` (§2.2): the
/// node persists to an in-memory store, its endpoint is dropped and rebuilt
/// from that store, and it runs the §5.3 recovery procedure
/// ([`VssInput::Recover`]) right after the reboot.
pub fn run_vss(
    n: usize,
    f: usize,
    mode: CommitmentMode,
    delay: DelayModel,
    outages: &[(NodeId, WallClock, WallClock)],
    seed: u64,
) -> VssNetRun {
    let cfg = VssConfig::standard_with_mode(n, f, mode).expect("valid parameters");
    let session = SessionId::new(1, 0);
    let mut net = EndpointNet::new(delay, seed);
    for i in 1..=n as u64 {
        let goes_down = outages.iter().any(|&(node, ..)| node == i);
        let config = EndpointConfig {
            store: goes_down.then(StoreHandle::in_memory),
            ..EndpointConfig::default()
        };
        let mut endpoint = Endpoint::new(i, config);
        endpoint
            .add_vss_session(VssNode::new(
                i,
                cfg.clone(),
                session,
                seed.wrapping_mul(131).wrapping_add(i),
                None,
            ))
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }
    for &(node, start, end) in outages {
        net.schedule_crash(node, start);
        net.schedule_recover(node, end);
        net.schedule_vss_input(node, session, VssInput::Recover, end + 1);
    }
    net.schedule_vss_input(
        1,
        session,
        VssInput::Share {
            secret: Scalar::from_u64(seed),
        },
        0,
    );
    net.run();
    let completions = net
        .events()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::Vss {
                    output: VssOutput::Shared { .. },
                    ..
                }
            )
        })
        .map(|r| r.node)
        .collect();
    VssNetRun { completions, net }
}

/// Groups completed outcomes by node (helper for multi-session runs).
pub fn outcomes_by_node(outcomes: &[NodeOutcome]) -> BTreeMap<NodeId, &NodeOutcome> {
    outcomes.iter().map(|o| (o.node, o)).collect()
}

/// A printable summary of the persistence layer's activity across the
/// network, companion to [`dkg_sim::Metrics::report`]: WAL frames
/// appended/replayed, snapshots written, recoveries and live stored bytes.
pub fn persistence_summary(net: &EndpointNet) -> String {
    let totals = net.persist_totals();
    format!(
        "persistence: {} wal frames appended ({} replayed on recovery), \
         {} snapshots written\nrecoveries: {} completed, {} failed; \
         {} persist errors; {} bytes on stable storage",
        totals.wal_appended,
        totals.wal_replayed,
        totals.snapshots_written,
        net.recoveries(),
        net.recovery_failures().len(),
        totals.persist_errors,
        net.stored_bytes(),
    )
}

/// Summary of a DKG run with faults.
pub struct DkgNetRun {
    /// Nodes that completed.
    pub completions: usize,
    /// Distinct public keys output (must be 1 for consistency).
    pub distinct_keys: usize,
    /// Leader changes observed anywhere.
    pub leader_changes: usize,
    /// Per-node completion times `(node, time)`.
    pub completion_times: Vec<(NodeId, u64)>,
    /// The network after the run.
    pub net: EndpointNet,
}

impl DkgNetRun {
    /// Completions restricted to the given node set.
    pub fn completions_among(&self, nodes: &[NodeId]) -> usize {
        self.completion_times
            .iter()
            .filter(|(n, _)| nodes.contains(n))
            .count()
    }

    /// Latest completion time among the given node set (0 if none of them
    /// completed).
    pub fn last_completion_among(&self, nodes: &[NodeId]) -> u64 {
        self.completion_times
            .iter()
            .filter(|(n, _)| nodes.contains(n))
            .map(|&(_, time)| time)
            .max()
            .unwrap_or(0)
    }
}

/// Runs a full DKG over endpoints with optional muted (Byzantine-silent)
/// and crashed nodes. `links` is the link model: a plain [`DelayModel`],
/// or a [`ChaosModel`] whose per-link overrides stretch the links the
/// adversary controls (§2.1).
pub fn run_dkg(
    n: usize,
    f: usize,
    muted: &[NodeId],
    crashed: &[NodeId],
    links: impl Into<ChaosModel>,
    seed: u64,
) -> DkgNetRun {
    let setup = SystemSetup::generate(n, f, seed);
    let links = links.into();
    let mut net = build_dkg_net(&setup, 0, links.base.clone());
    net.set_chaos(links);
    for &node in muted {
        net.mute(node);
    }
    for &node in crashed {
        net.schedule_crash(node, 0);
    }
    for &node in &setup.config.vss.nodes {
        if !crashed.contains(&node) {
            net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
        }
    }
    net.run();

    let mut keys = BTreeSet::new();
    let mut completion_times = Vec::new();
    let mut leader_changes = 0;
    for record in net.events() {
        match &record.event {
            Event::Dkg {
                output: DkgOutput::Completed { commitment, .. },
                ..
            } => {
                keys.insert(commitment.public_key().to_bytes());
                completion_times.push((record.node, record.time));
            }
            Event::Dkg {
                output: DkgOutput::LeaderChanged { .. },
                ..
            } => leader_changes += 1,
            _ => {}
        }
    }
    DkgNetRun {
        completions: completion_times.len(),
        distinct_keys: keys.len(),
        leader_changes,
        completion_times,
        net,
    }
}

/// Runs the §6.1 group-modification agreement for `era` over `net`: every
/// member of `config` hosts a [`GroupModNode`] (on its endpoint in `net`,
/// or on a fresh default endpoint if it has none), `proposer` proposes
/// `change`, and the network runs to quiescence. Returns the members that
/// accepted exactly `change`.
pub fn run_group_agreement(
    net: &mut EndpointNet,
    config: &DkgConfig,
    era: u64,
    proposer: NodeId,
    change: GroupChange,
) -> BTreeSet<NodeId> {
    for &node in &config.vss.nodes {
        if net.endpoint(node).is_none() {
            net.add_endpoint(Endpoint::new(node, EndpointConfig::default()));
        }
        net.endpoint_mut(node)
            .expect("just ensured")
            .add_mod_session(era, GroupModNode::new(node, config.clone()))
            .expect("era is fresh on this endpoint");
    }
    net.schedule_mod_input(proposer, era, GroupModInput::Propose(change), net.now());
    net.run();
    net.events()
        .iter()
        .filter(|record| {
            matches!(
                &record.event,
                Event::Mod { era: e, output: GroupModOutput::Accepted(c) }
                    if *e == era && *c == change
            )
        })
        .map(|record| record.node)
        .collect()
}

/// Runs the initial key-generation phase (`τ = 0`) over endpoints and
/// returns each node's [`PhaseState`].
pub fn run_initial_phase(
    setup: &SystemSetup,
    delay: DelayModel,
) -> (BTreeMap<NodeId, PhaseState>, EndpointNet) {
    let (outcomes, net) = run_key_generation(setup, delay, 0);
    let states = phase_states(&net, &outcomes, 0);
    (states, net)
}

/// Runs share-renewal phase `tau` (≥ 1) over endpoints from the previous
/// phase's states. The §5.2 safeguards and tick schedule come from the
/// shared [`plan_renewal`] planner, so no driver can diverge on them:
/// expected resharing commitments are registered so Byzantine dealers
/// cannot inject a different value, and all nodes combine by interpolation
/// at zero so the group secret is preserved.
pub fn run_renewal_phase(
    setup: &SystemSetup,
    previous: &BTreeMap<NodeId, PhaseState>,
    tau: u64,
    options: &RenewalOptions,
) -> Result<(BTreeMap<NodeId, PhaseState>, EndpointNet), RenewalError> {
    let plan = plan_renewal(setup, previous, options)?;

    let mut net = EndpointNet::new(options.delay.clone(), setup.seed ^ tau);
    for &node in &setup.config.vss.nodes {
        let mut dkg_node = setup.build_node(node, tau);
        dkg_node.set_expected_dealer_commitments(plan.expected_commitments.clone());
        dkg_node.set_combine_rule(CombineRule::InterpolateAtZero);
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        endpoint
            .add_dkg_session(dkg_node)
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }

    for &node in &options.crashed {
        net.schedule_crash(node, 0);
    }

    // Local clock ticks: each participating node reshares its previous
    // share at its own (deterministically skewed) tick time.
    for &(node, tick) in &plan.ticks {
        let share = previous[&node].share;
        net.schedule_dkg_input(node, tau, DkgInput::StartReshare { value: share }, tick);
    }
    net.run();

    let outcomes = collect_outcomes(&net, tau);
    let states = phase_states(&net, &outcomes, tau);
    Ok((states, net))
}

/// Attaches a signing session `sid` to every endpoint that completed DKG
/// session `tau`, keyed off its [`dkg_core::DkgResult`]. The signer set is
/// exactly the completed nodes (ascending); the threshold comes from the
/// DKG's combined commitment matrix. Returns the signer set.
pub fn attach_sign_sessions(
    net: &mut EndpointNet,
    tau: u64,
    sid: u64,
    retry_delay: u64,
    seed: u64,
) -> Vec<NodeId> {
    let signers: Vec<NodeId> = net
        .node_ids()
        .into_iter()
        .filter(|&node| {
            net.endpoint(node)
                .is_some_and(|e| e.dkg_result(tau).is_some())
        })
        .collect();
    for &node in &signers {
        let endpoint = net.endpoint_mut(node).expect("listed node is live");
        let result = endpoint.dkg_result(tau).expect("checked above").clone();
        let config = TssConfig::new(signers.clone(), result.commitment.threshold(), retry_delay)
            .expect("completed DKG yields a valid signing config");
        let session = SignSession::from_dkg_result(
            node,
            sid,
            config,
            &result,
            seed.wrapping_mul(0x9E37_79B9).wrapping_add(node),
        )
        .expect("DKG result matches its own signing config");
        endpoint
            .add_sign_session(session)
            .expect("sid is fresh on this endpoint");
    }
    signers
}

/// Extracts the signatures of completed requests of signing session `sid`
/// from a finished network, asserting every node that reported a request
/// saw the same signature.
pub fn collect_signatures(net: &EndpointNet, sid: u64) -> BTreeMap<u64, Signature> {
    let mut out: BTreeMap<u64, Signature> = BTreeMap::new();
    for record in net.events() {
        if let Event::Tss {
            sid: event_sid,
            output: TssOutput::Signed { req, signature },
        } = &record.event
        {
            if *event_sid != sid {
                continue;
            }
            let previous = out.insert(*req, *signature);
            assert!(
                previous.is_none_or(|p| p == *signature),
                "nodes disagree on the signature for request {req}"
            );
        }
    }
    out
}

/// Outcome of a DKG-then-sign run over endpoints.
pub struct SigningNetRun {
    /// The group public key the signatures verify under.
    pub group_key: GroupElement,
    /// The signer set (nodes that completed the DKG).
    pub signers: Vec<NodeId>,
    /// The aggregated signature per completed request.
    pub signatures: BTreeMap<u64, Signature>,
    /// The network after the run.
    pub net: EndpointNet,
}

/// Runs a fresh DKG and then serves the given signing requests over the
/// same endpoints (inline crypto), round-robining the coordinator role
/// across the signer set.
pub fn run_threshold_signing(
    n: usize,
    f: usize,
    requests: &[(u64, Vec<u8>)],
    seed: u64,
) -> SigningNetRun {
    run_threshold_signing_on(n, f, requests, seed, Box::new(InlineExecutor::new()), false)
}

/// [`run_threshold_signing`] with an explicit executor (see
/// [`build_dkg_net_on`]).
pub fn run_threshold_signing_on(
    n: usize,
    f: usize,
    requests: &[(u64, Vec<u8>)],
    seed: u64,
    executor: Box<dyn Executor>,
    defer_crypto: bool,
) -> SigningNetRun {
    let setup = SystemSetup::generate(n, f, seed);
    let (outcomes, mut net) =
        run_key_generation_on(&setup, DelayModel::Constant(25), 0, executor, defer_crypto);
    assert!(!outcomes.is_empty(), "the DKG must complete before signing");
    let group_key = outcomes[0].public_key;
    let sid = 1;
    let signers = attach_sign_sessions(&mut net, 0, sid, 5_000, seed);
    let start = net.now().saturating_add(10);
    for (i, (req, message)) in requests.iter().enumerate() {
        let coordinator = signers[i % signers.len()];
        net.schedule_tss_input(
            coordinator,
            sid,
            TssInput::Sign {
                req: *req,
                message: message.clone(),
            },
            start + i as u64,
        );
    }
    net.run();
    let signatures = collect_signatures(&net, sid);
    SigningNetRun {
        group_key,
        signers,
        signatures,
        net,
    }
}

fn phase_states(
    net: &EndpointNet,
    outcomes: &[NodeOutcome],
    tau: u64,
) -> BTreeMap<NodeId, PhaseState> {
    outcomes
        .iter()
        .map(|o| {
            let commitment = net
                .endpoint(o.node)
                .and_then(|e| e.dkg_result(tau))
                .map(|r| r.commitment.clone())
                .expect("completed node has a result");
            (
                o.node,
                PhaseState {
                    tau,
                    share: o.share,
                    commitment,
                    public_key: o.public_key,
                },
            )
        })
        .collect()
}
