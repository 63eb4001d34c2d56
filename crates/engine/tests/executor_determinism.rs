//! Executor determinism: a DKG run must be **byte-identical** whichever
//! executor performs its crypto.
//!
//! Crypto jobs are pure functions of their inputs and the network applies
//! verdicts in job-id order, so neither deferral itself nor the worker
//! count may influence a single byte on the wire, any session counter, or
//! any outcome. These tests pin that contract:
//!
//! * a full n = 16 DKG run under [`ThreadPoolExecutor`] with 1, 2 and 8
//!   workers produces a byte-identical transcript and identical
//!   [`SessionStats`] to [`InlineExecutor`] (and to the non-deferred
//!   inline baseline),
//! * a property test re-checks pool-vs-inline equality across random
//!   seeds and system sizes (`EXECUTOR_DETERMINISM_CASES` raises the case
//!   count).

use dkg_arith::PrimeField;
use dkg_core::DkgInput;
use dkg_engine::runner::{
    attach_sign_sessions, build_dkg_net_on, collect_outcomes, collect_signatures, SystemSetup,
};
use dkg_engine::{Executor, InlineExecutor, SessionKey, SessionStats, ThreadPoolExecutor};
use dkg_sim::DelayModel;
use dkg_tss::TssInput;
use proptest::prelude::*;

/// Which executor (and crypto mode) drives a run.
enum Mode {
    /// Checks run inline inside the handlers (pre-pipeline behaviour).
    Direct,
    /// Deferred jobs on the inline executor.
    InlineDeferred,
    /// Deferred jobs on a worker pool.
    Pool(usize),
    /// Deferred jobs on a pool sized by `DKG_WORKERS` — CI's test matrix
    /// sets that variable, so each matrix leg exercises a different pool
    /// width through this mode.
    PoolEnv,
}

impl Mode {
    fn executor(&self) -> (Box<dyn Executor>, bool) {
        match *self {
            Mode::Direct => (Box::new(InlineExecutor::new()), false),
            Mode::InlineDeferred => (Box::new(InlineExecutor::new()), true),
            Mode::Pool(workers) => (Box::new(ThreadPoolExecutor::new(workers)), true),
            Mode::PoolEnv => (Box::new(ThreadPoolExecutor::from_env()), true),
        }
    }

    fn label(&self) -> String {
        match *self {
            Mode::Direct => "direct".into(),
            Mode::InlineDeferred => "inline-deferred".into(),
            Mode::Pool(w) => format!("pool-{w}"),
            Mode::PoolEnv => format!("pool-env-{}", ThreadPoolExecutor::workers_from_env()),
        }
    }
}

/// Everything a run can be compared on: the byte transcript, every
/// session's counters, and the per-node outcomes.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    transcript: [u8; 32],
    stats: Vec<(u64, SessionStats)>,
    outcomes: Vec<(u64, Vec<u8>, Vec<u8>, u64)>,
}

fn run(n: usize, f: usize, seed: u64, mode: &Mode) -> Fingerprint {
    let setup = SystemSetup::generate(n, f, seed);
    let (executor, defer) = mode.executor();
    let mut net = build_dkg_net_on(
        &setup,
        0,
        DelayModel::Uniform { min: 5, max: 40 },
        executor,
        defer,
    );
    net.record_transcript();
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    let outcomes = collect_outcomes(&net, 0);
    assert_eq!(outcomes.len(), n, "all nodes complete ({})", mode.label());
    let stats = net
        .node_ids()
        .into_iter()
        .map(|node| {
            let stats = net
                .endpoint(node)
                .and_then(|e| e.session_stats(SessionKey::Dkg { tau: 0 }))
                .expect("dkg session hosted");
            // Deferred runs must surface jobs; the comparison below is on
            // everything *else* being equal, so equalise the job counter
            // between direct (always 0) and deferred runs explicitly.
            assert_eq!(
                stats.jobs > 0,
                !matches!(mode, Mode::Direct),
                "job accounting mode mismatch ({})",
                mode.label()
            );
            (node, SessionStats { jobs: 0, ..stats })
        })
        .collect();
    let mut outcomes: Vec<(u64, Vec<u8>, Vec<u8>, u64)> = outcomes
        .into_iter()
        .map(|o| {
            (
                o.node,
                o.public_key.to_bytes().to_vec(),
                o.share.to_be_bytes().to_vec(),
                o.leader_rank,
            )
        })
        .collect();
    outcomes.sort();
    Fingerprint {
        transcript: net.transcript_digest().expect("recording enabled"),
        stats,
        outcomes,
    }
}

/// The acceptance-criterion run: n = 16, every executor, byte-identical.
#[test]
fn n16_dkg_is_byte_identical_across_executors() {
    let baseline = run(16, 0, 1234, &Mode::InlineDeferred);
    // The deferred pipeline must also not change a byte versus running
    // every check inline inside the handlers.
    assert_eq!(baseline, run(16, 0, 1234, &Mode::Direct));
    for workers in [1, 2, 8] {
        assert_eq!(
            baseline,
            run(16, 0, 1234, &Mode::Pool(workers)),
            "workers = {workers}"
        );
    }
}

/// A signing burst is as deterministic as the DKG that seeded it: the
/// same n = 16 key generation plus eight round-robined signing requests
/// leaves a byte-identical wire transcript and the exact same aggregated
/// signatures whichever executor performs the crypto. Threshold Schnorr
/// is nonce-critical — any executor-dependent divergence would surface
/// here as a different signature, not just a different byte order.
#[derive(PartialEq, Debug)]
struct SignFingerprint {
    transcript: [u8; 32],
    signatures: Vec<(u64, Vec<u8>)>,
}

fn run_signing(n: usize, f: usize, seed: u64, mode: &Mode) -> SignFingerprint {
    let setup = SystemSetup::generate(n, f, seed);
    let (executor, defer) = mode.executor();
    let mut net = build_dkg_net_on(
        &setup,
        0,
        DelayModel::Uniform { min: 5, max: 40 },
        executor,
        defer,
    );
    net.record_transcript();
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    let signers = attach_sign_sessions(&mut net, 0, 1, 5_000, seed);
    assert_eq!(signers.len(), n, "all nodes sign ({})", mode.label());
    let start = net.now() + 10;
    for req in 1..=8u64 {
        let coordinator = signers[(req - 1) as usize % signers.len()];
        net.schedule_tss_input(
            coordinator,
            1,
            TssInput::Sign {
                req,
                message: format!("determinism request {req}").into_bytes(),
            },
            start + req,
        );
    }
    net.run();
    let signatures: Vec<(u64, Vec<u8>)> = collect_signatures(&net, 1)
        .into_iter()
        .map(|(req, signature)| (req, signature.to_bytes().to_vec()))
        .collect();
    assert_eq!(
        signatures.len(),
        8,
        "all requests signed ({})",
        mode.label()
    );
    SignFingerprint {
        transcript: net.transcript_digest().expect("recording enabled"),
        signatures,
    }
}

#[test]
fn n16_signing_burst_is_byte_identical_across_executors() {
    let baseline = run_signing(16, 0, 2009, &Mode::InlineDeferred);
    assert_eq!(baseline, run_signing(16, 0, 2009, &Mode::Direct));
    for workers in [1, 2, 8] {
        assert_eq!(
            baseline,
            run_signing(16, 0, 2009, &Mode::Pool(workers)),
            "workers = {workers}"
        );
    }
}

/// The `DKG_WORKERS`-sized pool (CI runs this under a {1, 4} matrix) is
/// also byte-identical to inline execution.
#[test]
fn env_sized_pool_matches_inline() {
    assert_eq!(
        run(5, 0, 77, &Mode::InlineDeferred),
        run(5, 0, 77, &Mode::PoolEnv)
    );
}

/// Determinism holds for a whole *fleet lifetime*, not just one session:
/// the fixed 4-epoch fleet plan (refresh, §6.2 join, mid-epoch
/// crash+restore, refresh) folds every epoch's wire transcript and every
/// node's resulting share into one digest, and that digest is identical
/// whichever executor performs the crypto — including the
/// `DKG_WORKERS`-sized pool CI runs under its {1, 4} matrix.
#[test]
fn fleet_lifetime_is_byte_identical_across_executors() {
    use dkg_fleet::{run_fleet, FleetCrypto, FleetOptions, FleetPlan};

    let plan = FleetPlan::determinism(0xE9_0C4);
    let run = |crypto: FleetCrypto| {
        run_fleet(
            &plan,
            &FleetOptions {
                crypto,
                ..FleetOptions::default()
            },
        )
    };
    let baseline = run(FleetCrypto::InlineDeferred);
    for (label, report) in [
        ("inline", run(FleetCrypto::Inline)),
        ("pool-2", run(FleetCrypto::Pool(2))),
        ("pool-env", run(FleetCrypto::PoolEnv)),
    ] {
        assert_eq!(
            baseline.transcript_digest, report.transcript_digest,
            "fleet transcript diverged under the {label} executor"
        );
        assert_eq!(baseline.group_key, report.group_key);
    }
}

fn cases(default: u32) -> u32 {
    std::env::var("EXECUTOR_DETERMINISM_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(3)))]

    /// Pool and inline runs agree for arbitrary seeds and small systems.
    #[test]
    fn pool_matches_inline_for_any_seed(seed in any::<u64>(), size in 0u64..3) {
        let n = 4 + size as usize;
        let inline = run(n, 0, seed, &Mode::InlineDeferred);
        let pooled = run(n, 0, seed, &Mode::Pool(2));
        prop_assert_eq!(&inline, &pooled);
    }
}
