//! Crash-recovery end to end: crashes **drop** the in-memory endpoint, and
//! recovery reconstructs it from stable storage (`dkg-store`) — snapshot
//! plus WAL replay through the normal datagram path.
//!
//! The determinism contract pinned here is strong: an n = 16 DKG whose
//! nodes crash at arbitrary points and are restored from their stores
//! completes with the **same group public key, the same byte transcript
//! and identical per-session statistics** as the uninterrupted reference
//! run — whichever executor (inline or worker pool) performs the crypto.
//! A property test re-checks the equality across random crash points,
//! crashed nodes and worker counts (`CRASH_RECOVERY_CASES` raises the case
//! count); a separate test pins the regression that **without** a store a
//! recovered node rejoins with fresh, empty state (the old
//! state-magically-survives behaviour is gone).

use std::collections::BTreeMap;

use dkg_core::DkgInput;
use dkg_engine::runner::{collect_outcomes, SystemSetup};
use dkg_engine::{
    Endpoint, EndpointConfig, EndpointNet, EndpointSnapshot, Executor, InlineExecutor, Reject,
    SessionKey, SessionStats, ThreadPoolExecutor,
};
use dkg_sim::DelayModel;
use dkg_store::{MemStore, Store, StoreHandle};
use proptest::prelude::*;

const DELAY: DelayModel = DelayModel::Uniform { min: 10, max: 80 };

/// How a run's crypto is executed.
#[derive(Clone, Copy)]
enum Crypto {
    /// Inline inside the handlers.
    Direct,
    /// Deferred jobs on a pool of the given width.
    Pool(usize),
}

impl Crypto {
    fn executor(self) -> (Box<dyn Executor>, bool) {
        match self {
            Crypto::Direct => (Box::new(InlineExecutor::new()), false),
            Crypto::Pool(workers) => (Box::new(ThreadPoolExecutor::new(workers)), true),
        }
    }
}

/// Builds an n-node DKG net where every endpoint persists to its own
/// in-memory store, with the byte transcript recorded.
fn build_persistent_net(
    setup: &SystemSetup,
    crypto: Crypto,
    wal_compact_bytes: u64,
) -> (EndpointNet, BTreeMap<u64, StoreHandle>) {
    let (executor, defer) = crypto.executor();
    let mut net = EndpointNet::with_executor(DELAY, setup.seed, executor);
    net.record_transcript();
    let mut stores = BTreeMap::new();
    for &node in &setup.config.vss.nodes {
        let store = StoreHandle::in_memory();
        stores.insert(node, store.clone());
        let mut endpoint = Endpoint::new(
            node,
            EndpointConfig {
                defer_crypto: defer,
                store: Some(store),
                wal_compact_bytes,
                ..EndpointConfig::default()
            },
        );
        endpoint
            .add_dkg_session(setup.build_node(node, 0))
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }
    (net, stores)
}

/// Runs a persistent DKG to completion, optionally crash-and-restoring
/// nodes at the given times (restore happens at the same instant — a
/// restart whose downtime loses no in-flight traffic, so the continuation
/// is comparable byte for byte with the uninterrupted reference).
#[allow(clippy::type_complexity)] // (net, completion keys, transcript digest)
fn run_persistent(
    setup: &SystemSetup,
    crypto: Crypto,
    wal_compact_bytes: u64,
    restarts: &[(u64, u64)],
) -> (EndpointNet, Vec<(u64, Vec<u8>)>, [u8; 32]) {
    let (mut net, _stores) = build_persistent_net(setup, crypto, wal_compact_bytes);
    for &(node, at) in restarts {
        net.schedule_crash(node, at);
        net.schedule_recover(node, at);
    }
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    assert!(
        net.recovery_failures().is_empty(),
        "restores must succeed: {:?}",
        net.recovery_failures()
    );
    let outcomes = collect_outcomes(&net, 0);
    let mut keys: Vec<(u64, Vec<u8>)> = outcomes
        .iter()
        .map(|o| (o.node, o.public_key.to_bytes().to_vec()))
        .collect();
    keys.sort();
    let digest = net.transcript_digest().expect("transcript recorded");
    (net, keys, digest)
}

fn session_stats(net: &EndpointNet, nodes: &[u64]) -> Vec<(u64, SessionStats)> {
    nodes
        .iter()
        .map(|&node| {
            (
                node,
                net.endpoint(node)
                    .and_then(|e| e.session_stats(SessionKey::Dkg { tau: 0 }))
                    .expect("dkg session hosted"),
            )
        })
        .collect()
}

/// The acceptance-criteria e2e: an n = 16 DKG with nodes crashed at
/// scattered points and rebuilt from their stores produces the same group
/// key, the same transcript digest and identical session statistics as
/// the uninterrupted run.
#[test]
fn restored_n16_dkg_matches_uninterrupted_run_exactly() {
    let n = 16;
    let setup = SystemSetup::generate(n, 1, 1234);
    let nodes: Vec<u64> = setup.config.vss.nodes.clone();

    let (ref_net, ref_keys, ref_digest) = run_persistent(&setup, Crypto::Direct, u64::MAX, &[]);
    assert_eq!(ref_keys.len(), n, "reference run completes everywhere");

    // f = 1 crash budget at a time, but restarts are sequential: three
    // different nodes restart at three different points of the protocol.
    let restarts = [(3u64, 120u64), (9, 260), (14, 401)];
    let (net, keys, digest) = run_persistent(&setup, Crypto::Direct, u64::MAX, &restarts);

    assert_eq!(keys, ref_keys, "same completions and group key");
    assert_eq!(digest, ref_digest, "byte-identical transcript");
    assert_eq!(
        session_stats(&net, &nodes),
        session_stats(&ref_net, &nodes),
        "identical per-session statistics"
    );
    assert_eq!(net.recoveries(), restarts.len() as u64);
    let totals = net.persist_totals();
    assert_eq!(totals.recoveries, restarts.len() as u64);
    assert!(totals.wal_replayed > 0, "restores replayed WAL frames");
    assert!(totals.wal_appended > totals.wal_replayed);
    assert_eq!(totals.persist_errors, 0);
    for &(node, _) in &restarts {
        let stats = net.endpoint(node).unwrap().persist_stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.wal_replayed > 0);
    }
}

/// Compaction mid-run (tiny WAL threshold → many snapshots) must not
/// change a single byte of the protocol, and restores keep working from
/// compacted stores.
#[test]
fn compaction_is_transparent_to_the_protocol() {
    let n = 7;
    let setup = SystemSetup::generate(n, 1, 777);

    let (_, ref_keys, ref_digest) = run_persistent(&setup, Crypto::Direct, u64::MAX, &[]);
    let restarts = [(2u64, 150u64), (6, 333)];
    let (net, keys, digest) = run_persistent(&setup, Crypto::Direct, 16 * 1024, &restarts);

    assert_eq!(keys, ref_keys);
    assert_eq!(digest, ref_digest);
    let totals = net.persist_totals();
    // One snapshot per session addition is the floor; the tiny threshold
    // forces further compactions during the run.
    assert!(
        totals.snapshots_written > n as u64,
        "expected mid-run compactions, got {}",
        totals.snapshots_written
    );
    // Compaction keeps every store's WAL bounded by the threshold plus the
    // frames of the current quiescent interval.
    assert!(net.stored_bytes() > 0);
}

/// Regression pin for the crash-semantics change: without a configured
/// store, a recovered node rejoins with *fresh* state — no sessions, no
/// shares, and peers' datagrams bounce off as `UnknownSession`. The old
/// behaviour (full in-memory state surviving the crash) is gone.
#[test]
fn recovery_without_store_rejoins_with_fresh_state() {
    let n = 7;
    let setup = SystemSetup::generate(n, 1, 4242);
    let mut net = EndpointNet::new(DELAY, setup.seed);
    for &node in &setup.config.vss.nodes {
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        endpoint.add_dkg_session(setup.build_node(node, 0)).unwrap();
        net.add_endpoint(endpoint);
    }
    net.schedule_crash(2, 100);
    net.schedule_recover(2, 101);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();

    // The reborn node hosts nothing and completed nothing.
    let reborn = net.endpoint(2).expect("node 2 recovered");
    assert_eq!(reborn.session_count(), 0, "fresh state: no sessions");
    assert!(reborn.dkg_result(0).is_none());
    // Its peers' traffic after the restart was refused as unknown-session.
    assert!(net
        .rejections()
        .iter()
        .any(|r| r.node == 2 && matches!(r.reject, Reject::UnknownSession(_))));
    // The remaining n − 1 ≥ n − t − f nodes still complete consistently.
    let outcomes = collect_outcomes(&net, 0);
    assert_eq!(outcomes.len(), n - 1);
    let keys: std::collections::BTreeSet<_> =
        outcomes.iter().map(|o| o.public_key.to_bytes()).collect();
    assert_eq!(keys.len(), 1);
}

/// Real downtime on disk: a node with a `FileStore` crashes early, loses
/// the traffic sent while it is down, reboots from disk and catches up
/// through the §5.3 help protocol — completing with the same key as
/// everyone else.
#[test]
fn file_store_downtime_recovery_completes_via_help() {
    let n = 7;
    let setup = SystemSetup::generate(n, 1, 9000);
    let dir = std::env::temp_dir().join(format!(
        "dkg-store-test-{}-{}",
        std::process::id(),
        setup.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut net = EndpointNet::new(DELAY, setup.seed);
    for &node in &setup.config.vss.nodes {
        let config = if node == 5 {
            EndpointConfig {
                store: Some(
                    StoreHandle::open_dir(dir.join(format!("node-{node}")))
                        .expect("file store opens"),
                ),
                ..EndpointConfig::default()
            }
        } else {
            EndpointConfig::default()
        };
        let mut endpoint = Endpoint::new(node, config);
        endpoint.add_dkg_session(setup.build_node(node, 0)).unwrap();
        net.add_endpoint(endpoint);
    }
    // Down from t = 30 to t = 600: the dealings sent meanwhile are lost
    // for real and must come back via vss-help retransmissions.
    net.schedule_crash(5, 30);
    net.schedule_recover(5, 600);
    net.schedule_dkg_input(5, 0, DkgInput::Recover, 601);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();

    assert!(net.recovery_failures().is_empty());
    assert!(net.metrics().kind("vss-help").messages > 0, "help ran");
    let outcomes = collect_outcomes(&net, 0);
    assert_eq!(
        outcomes.len(),
        n,
        "everyone completes, incl. the rebooted node"
    );
    let keys: std::collections::BTreeSet<_> =
        outcomes.iter().map(|o| o.public_key.to_bytes()).collect();
    assert_eq!(keys.len(), 1);
    assert_eq!(net.endpoint(5).unwrap().persist_stats().recoveries, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-run endpoint snapshot survives an encode/decode round trip, and
/// the versioned envelope refuses truncations, bit flips and unknown
/// versions with typed errors — never a panic (`WIRE_FUZZ_CASES` raises
/// the case count, as in the decode-fuzz CI job).
#[test]
fn endpoint_snapshot_codec_roundtrip_and_fuzz() {
    let n = 7;
    let setup = SystemSetup::generate(n, 1, 31337);
    let (mut net, _stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    // Stop mid-protocol so the snapshot carries rich interior state.
    net.run_until(150);
    let endpoint = net.endpoint_mut(3).expect("endpoint 3 exists");
    let snapshot = endpoint.snapshot().expect("quiescent endpoint snapshots");
    let bytes = snapshot.to_bytes();
    assert_eq!(EndpointSnapshot::from_bytes(&bytes), Ok(snapshot.clone()));

    // The component types round-trip on their own too: EndpointStats,
    // PersistStats, and every live SessionSnapshot with its interior
    // SessionStateSnapshot.
    use dkg_engine::{EndpointStats, PersistStats, SessionSnapshot, SessionStateSnapshot};
    use dkg_wire::{WireDecode, WireEncode};
    assert_eq!(
        EndpointStats::decode(&snapshot.stats.encode()),
        Ok(snapshot.stats)
    );
    assert_eq!(
        PersistStats::decode(&snapshot.persist.encode()),
        Ok(snapshot.persist)
    );
    assert!(!snapshot.sessions.is_empty());
    for session in &snapshot.sessions {
        assert_eq!(
            SessionSnapshot::decode(&session.encode()).as_ref(),
            Ok(session)
        );
        assert_eq!(
            SessionStateSnapshot::decode(&session.state.encode()).as_ref(),
            Ok(&session.state)
        );
    }

    let cases: usize = std::env::var("WIRE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    // Truncations at evenly spread boundaries.
    for i in 0..cases {
        let cut = 1 + (bytes.len() - 1) * i / cases.max(1);
        assert!(EndpointSnapshot::from_bytes(&bytes[..cut]).is_err());
    }
    // Deterministic bit flips.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for _ in 0..cases {
        let mut mutated = bytes.clone();
        let at = rng.gen_range(0..mutated.len());
        let bit = rng.gen_range(0..8u32);
        mutated[at] ^= 1 << bit;
        // Must decode to a (possibly different) value or fail typed —
        // the call simply must not panic; flipped high bits in length
        // prefixes must not over-allocate either.
        let _ = EndpointSnapshot::from_bytes(&mutated);
    }
    // Unknown version byte.
    let mut wrong = bytes.clone();
    wrong[0] = 77;
    assert!(matches!(
        EndpointSnapshot::from_bytes(&wrong),
        Err(dkg_wire::WireError::UnsupportedVersion { version: 77 })
    ));
    // Trailing garbage.
    let mut long = bytes.clone();
    long.push(0);
    assert!(matches!(
        EndpointSnapshot::from_bytes(&long),
        Err(dkg_wire::WireError::TrailingBytes { .. })
    ));
}

/// Direct store-level restore equivalence: rebuilding an endpoint from
/// its store mid-run yields the same sessions and counters as the live
/// endpoint it mirrors.
#[test]
fn restore_reproduces_the_live_endpoint() {
    let n = 4;
    let setup = SystemSetup::generate(n, 0, 2024);
    let (mut net, stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run_until(130);

    let live = net.endpoint_mut(2).expect("endpoint 2 exists");
    let live_image = live.snapshot().expect("quiescent");
    let restored = Endpoint::restore(EndpointConfig {
        store: Some(stores[&2].clone()),
        ..EndpointConfig::default()
    })
    .expect("restore succeeds");
    let restored_image = restored.snapshot().expect("quiescent");
    // Persist counters legitimately differ (the restored endpoint has a
    // recovery on record); everything else must be identical.
    assert_eq!(restored_image.id, live_image.id);
    assert_eq!(restored_image.stats, live_image.stats);
    assert_eq!(restored_image.sessions, live_image.sessions);
    assert_eq!(restored.persist_stats().recoveries, 1);
}

/// The same equivalence with one session of every kind mid-run on the
/// endpoint: a second DKG, a standalone VSS sharing, signing requests on the
/// first DKG's key and a group-modification agreement. The restored
/// endpoint re-snapshots every session to the live endpoint's bytes.
#[test]
fn restore_reproduces_an_endpoint_hosting_every_kind() {
    use dkg_arith::{PrimeField, Scalar};
    use dkg_core::group::{GroupChange, GroupModInput, GroupModNode, ParameterAdjustment};
    use dkg_engine::runner::attach_sign_sessions;
    use dkg_tss::TssInput;
    use dkg_vss::{SessionId, VssInput, VssNode};
    use dkg_wire::WireEncode;

    let n = 4;
    let setup = SystemSetup::generate(n, 0, 1606);
    let nodes = setup.config.vss.nodes.clone();
    let (mut net, stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    assert_eq!(
        attach_sign_sessions(&mut net, 0, 1, 5_000, setup.seed),
        nodes
    );

    let sharing = SessionId::new(1, 7);
    for &node in &nodes {
        let endpoint = net.endpoint_mut(node).expect("endpoint is live");
        let vss = VssNode::new(node, setup.config.vss.clone(), sharing, 70 + node, None);
        endpoint.add_dkg_session(setup.build_node(node, 1)).unwrap();
        endpoint.add_vss_session(vss).unwrap();
        let agreement = GroupModNode::new(node, setup.config.clone());
        endpoint.add_mod_session(0, agreement).unwrap();
    }
    let start = net.now() + 1;
    let change = GroupChange::AddNode {
        node: 9,
        adjustment: ParameterAdjustment::None,
    };
    let secret = Scalar::from_u64(77);
    for &node in &nodes {
        net.schedule_dkg_input(node, 1, DkgInput::Start, start);
        let message = format!("request {node}").into_bytes();
        net.schedule_tss_input(node, 1, TssInput::Sign { req: node, message }, start);
    }
    net.schedule_vss_input(1, sharing, VssInput::Share { secret }, start);
    net.schedule_mod_input(2, 0, GroupModInput::Propose(change), start);
    net.run_until(start + 60);

    let live = net.endpoint(3).expect("endpoint 3 exists");
    assert_eq!(live.session_count(), 5);
    assert!(!live.is_complete(SessionKey::Dkg { tau: 1 }), "mid-run");
    let live_image = live.snapshot().expect("quiescent");
    for session in &live_image.sessions {
        assert!(
            session.stats.datagrams_in > 0,
            "{:?} is under way",
            session.key
        );
    }
    let restored = Endpoint::restore(EndpointConfig {
        store: Some(stores[&3].clone()),
        ..EndpointConfig::default()
    })
    .expect("restore succeeds");
    assert!(restored.persist_stats().wal_replayed > 0);
    let restored_image = restored.snapshot().expect("quiescent");
    assert_eq!(restored_image.stats, live_image.stats);
    assert_eq!(
        restored_image.sessions.encode(),
        live_image.sessions.encode()
    );

    // And the restored node finishes what the live one would have.
    net.schedule_crash(3, net.now());
    net.schedule_recover(3, net.now());
    net.run();
    assert!(net.recovery_failures().is_empty());
    assert_eq!(collect_outcomes(&net, 1).len(), n);
    let endpoint = net.endpoint(3).expect("endpoint 3 recovered");
    assert!(endpoint.is_complete(SessionKey::Vss { session: sharing }));
    assert_eq!(endpoint.mod_session(0).unwrap().accepted(), [change]);
    for &node in &nodes {
        assert!(endpoint.sign_session(1).unwrap().result(node).is_some());
    }
}

/// Eviction is as durable as addition: an evicted session stays evicted
/// across a crash, instead of coming back with the last snapshot.
#[test]
fn evicted_session_stays_evicted_after_a_crash() {
    let n = 4;
    let setup = SystemSetup::generate(n, 0, 2718);
    let nodes = setup.config.vss.nodes.clone();
    let (mut net, _stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &nodes {
        let endpoint = net.endpoint_mut(node).expect("endpoint is live");
        endpoint.add_dkg_session(setup.build_node(node, 1)).unwrap();
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
        net.schedule_dkg_input(node, 1, DkgInput::Start, 0);
    }
    net.run();

    let (kept, gone) = (SessionKey::Dkg { tau: 0 }, SessionKey::Dkg { tau: 1 });
    let endpoint = net.endpoint_mut(2).expect("endpoint 2 exists");
    assert!(endpoint.is_complete(kept) && endpoint.is_complete(gone));
    let snapshots = endpoint.persist_stats().snapshots_written;
    let stats = endpoint.evict(gone).expect("quiescent endpoint evicts");
    assert!(stats.completed_at.is_some());
    assert_eq!(endpoint.persist_stats().snapshots_written, snapshots + 1);
    assert_eq!(endpoint.evict(gone), Err(Reject::UnknownSession(gone)));

    net.schedule_crash(2, net.now() + 1);
    net.schedule_recover(2, net.now() + 2);
    net.run();
    assert!(net.recovery_failures().is_empty());
    let endpoint = net.endpoint_mut(2).expect("endpoint 2 recovered");
    assert_eq!(endpoint.session_keys(), [kept]);
    assert_eq!(endpoint.stats().evicted, 1);
    // A straggler for the evicted session finds nothing to route to.
    let header = dkg_wire::Header {
        protocol: gone.protocol(),
        channel: gone.channel(),
    };
    let straggler = dkg_wire::encode_datagram(header, &0u64);
    assert_eq!(
        endpoint.handle_datagram(3, &straggler, 9_999),
        Err(Reject::UnknownSession(gone))
    );

    // Durable or refused: with crypto jobs in flight no snapshot can be
    // taken, so the eviction is refused and the session stays.
    let store = StoreHandle::in_memory();
    let mut deferred = Endpoint::new(
        1,
        EndpointConfig {
            defer_crypto: true,
            store: Some(store),
            ..EndpointConfig::default()
        },
    );
    deferred.add_dkg_session(setup.build_node(1, 0)).unwrap();
    deferred.handle_dkg_input(0, DkgInput::Start, 0).unwrap();
    while let Some(transmit) = deferred.poll_transmit() {
        if transmit.to == 1 {
            deferred.handle_datagram(1, &transmit.payload, 0).unwrap();
        }
    }
    assert!(!deferred.poll_jobs().is_empty(), "a job is in flight");
    assert_eq!(
        deferred.evict(kept),
        Err(Reject::PersistFailed(
            dkg_store::StoreError::SnapshotUnavailable
        ))
    );
    assert_eq!(deferred.session_keys(), [kept]);
    assert_eq!(deferred.stats().evicted, 0);
    assert_eq!(deferred.persist_stats().persist_errors, 1);
}

/// A snapshot whose session state sits under another session's key, or
/// speaks for another node than the envelope, is refused with a typed
/// error — the state is never filed where datagrams would mis-route to it.
#[test]
fn inconsistent_snapshot_fails_restore_typed() {
    use dkg_engine::RestoreError;
    use dkg_store::StoreError;

    let setup = SystemSetup::generate(4, 0, 909);
    let mut endpoint = Endpoint::new(1, EndpointConfig::default());
    endpoint.add_dkg_session(setup.build_node(1, 0)).unwrap();
    let image = endpoint.snapshot().expect("quiescent");
    let restore = |image: &EndpointSnapshot| {
        let store = StoreHandle::in_memory();
        store.install_snapshot(&image.to_bytes()).unwrap();
        Endpoint::restore(EndpointConfig {
            store: Some(store),
            ..EndpointConfig::default()
        })
        .map(|endpoint| endpoint.session_keys())
    };
    assert_eq!(restore(&image), Ok(vec![SessionKey::Dkg { tau: 0 }]));

    for key in [SessionKey::Dkg { tau: 5 }, SessionKey::Mod { era: 0 }] {
        let mut misfiled = image.clone();
        misfiled.sessions[0].key = key;
        assert!(matches!(
            restore(&misfiled),
            Err(RestoreError::Store(StoreError::Corrupt(_)))
        ));
    }
    let mut foreign = image.clone();
    foreign.id = 2;
    assert_eq!(
        restore(&foreign),
        Err(RestoreError::Snapshot(
            dkg_vss::SnapshotError::ForeignNode { node: 1 }
        ))
    );
}

/// Every inline commitment matrix a restored full-mode node holds: for each
/// dealer, the handles in its commitment store and in its recovery outbox
/// `B` (up to `2n` echo/ready messages per dealer).
fn inline_matrices_by_dealer(
    image: &EndpointSnapshot,
) -> Vec<(u64, Vec<std::sync::Arc<dkg_poly::CommitmentMatrix>>)> {
    use dkg_engine::SessionStateSnapshot;
    use dkg_vss::VssMessage;
    let [session] = image.sessions.as_slice() else {
        panic!("one DKG session hosted");
    };
    let SessionStateSnapshot::Dkg(dkg) = &session.state else {
        panic!("the hosted session is a DKG");
    };
    dkg.vss
        .iter()
        .map(|(dealer, vss)| {
            let stored = vss.commitments.values();
            let sent = vss.outbox.values().flatten();
            let inline = sent.filter_map(|message| match message {
                VssMessage::Echo { commitment, .. } | VssMessage::Ready { commitment, .. } => {
                    commitment.matrix()
                }
                _ => None,
            });
            (*dealer, stored.chain(inline).cloned().collect())
        })
        .collect()
}

/// A full-mode node restored from its WAL (replay through
/// `handle_datagram`) or from a snapshot alone re-snapshots to the live
/// node's bytes, and still holds one matrix per dealer: digest resolution
/// on the decode paths keeps the sharing the live node had, instead of
/// `2n` decompressed copies per dealer.
#[test]
fn restored_full_mode_node_shares_one_matrix_per_dealer() {
    use dkg_wire::WireEncode;
    use std::sync::Arc;

    let n = 7;
    let setup = SystemSetup::generate(n, 0, 4242);
    assert_eq!(setup.config.vss.mode, dkg_vss::CommitmentMode::Full);
    let (mut net, stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    let live = net
        .endpoint(3)
        .and_then(Endpoint::snapshot)
        .expect("quiescent");

    // From the WAL: the store holds the initial snapshot and every input.
    let from_wal = Endpoint::restore(EndpointConfig {
        store: Some(stores[&3].clone()),
        ..EndpointConfig::default()
    })
    .expect("restore from WAL succeeds");
    assert!(from_wal.persist_stats().wal_replayed > 0);
    // From a snapshot alone: a fresh store holding the live image, no WAL.
    let snapshot_only = StoreHandle::in_memory();
    snapshot_only
        .install_snapshot(&live.to_bytes())
        .expect("mem store accepts bytes");
    let from_snapshot = Endpoint::restore(EndpointConfig {
        store: Some(snapshot_only),
        ..EndpointConfig::default()
    })
    .expect("restore from snapshot succeeds");
    assert_eq!(from_snapshot.persist_stats().wal_replayed, 0);

    for restored in [&from_wal, &from_snapshot] {
        let image = restored.snapshot().expect("quiescent");
        assert_eq!(image.sessions.len(), live.sessions.len());
        for (restored, live) in image.sessions.iter().zip(&live.sessions) {
            assert_eq!(restored.encode(), live.encode());
        }
        let by_dealer = inline_matrices_by_dealer(&image);
        assert_eq!(by_dealer.len(), n);
        for (dealer, matrices) in by_dealer {
            // Own echoes and readies to all n nodes, plus the stored matrix.
            assert_eq!(matrices.len(), 2 * n + 1, "dealer {dealer}");
            assert!(
                matrices.iter().all(|m| Arc::ptr_eq(m, &matrices[0])),
                "dealer {dealer}: every inline commitment shares one matrix"
            );
        }
    }
}

/// Row projections are derived state: a snapshot does not carry them, a
/// node restored from one holds none, WAL replay derives them again on the
/// way, and either way the node re-snapshots to the live node's bytes and
/// finishes the run the uninterrupted node ran.
///
/// Re-staged when a node that holds its row began judging points in the
/// field: node 3 no longer projects every dealer's matrix, only those whose
/// echoes outran the dealer's `send` (full-commitment mode, 10–80 ms
/// links), and by t = 150 every `send` is in — so what a restored node
/// needs for its next point is the row, which the snapshot carries, and a
/// node restored from a snapshot never projects again.
#[test]
fn restored_node_rederives_its_projections_lazily() {
    use dkg_wire::WireEncode;

    let n = 7;
    let setup = SystemSetup::generate(n, 0, 31337);
    let nodes = setup.config.vss.nodes.clone();
    let projections = |endpoint: &Endpoint| {
        endpoint
            .dkg_session(0)
            .expect("dkg session hosted")
            .projection_count()
    };
    let session_bytes = |endpoint: &Endpoint| -> Vec<Vec<u8>> {
        let image = endpoint.snapshot().expect("quiescent");
        image.sessions.iter().map(WireEncode::encode).collect()
    };
    // Sharings under which the node holds its row.
    let rows = |endpoint: &Endpoint| {
        let image = endpoint
            .dkg_session(0)
            .and_then(|node| node.snapshot())
            .expect("quiescent dkg session");
        image
            .vss
            .values()
            .filter(|vss| vss.tallies.values().any(|tally| tally.row.is_some()))
            .count()
    };

    // Mid-run: node 3 holds its row under every dealer's matrix, and judged
    // points in the group under the few that reached it by echo first.
    let (mut net, stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run_until(150);
    let live = net.endpoint(3).expect("endpoint 3 exists");
    assert!(!live.is_complete(SessionKey::Dkg { tau: 0 }));
    assert_eq!(rows(live), n);
    let held = projections(live);
    assert!(0 < held && held < n, "{held}");

    let from_wal = Endpoint::restore(EndpointConfig {
        store: Some(stores[&3].clone()),
        ..EndpointConfig::default()
    })
    .expect("restore from WAL succeeds");
    assert!(from_wal.persist_stats().wal_replayed > 0);
    assert_eq!(
        projections(&from_wal),
        held,
        "replay judges the same points the same way"
    );
    assert_eq!(session_bytes(&from_wal), session_bytes(live));

    let snapshot_only = StoreHandle::in_memory();
    snapshot_only
        .install_snapshot(&live.snapshot().expect("quiescent").to_bytes())
        .expect("mem store accepts bytes");
    let from_snapshot = Endpoint::restore(EndpointConfig {
        store: Some(snapshot_only),
        ..EndpointConfig::default()
    })
    .expect("restore from snapshot succeeds");
    assert_eq!(from_snapshot.persist_stats().wal_replayed, 0);
    assert_eq!(projections(&from_snapshot), 0, "nothing derived yet");
    assert_eq!(rows(&from_snapshot), n, "the rows came with the snapshot");
    assert_eq!(session_bytes(&from_snapshot), session_bytes(live));

    // To the end: node 3 restarted at that point from its whole WAL, or
    // from a store that compacts after every record, ends where the
    // uninterrupted node ends. Replay projects the same matrices again;
    // after a snapshot restore every remaining point meets a row.
    let (reference, ref_keys, ref_digest) = run_persistent(&setup, Crypto::Direct, u64::MAX, &[]);
    let reference = reference.endpoint(3).expect("endpoint 3 exists");
    assert_eq!(projections(reference), held);
    for (wal_compact_bytes, replayed) in [(u64::MAX, true), (1, false)] {
        let (net, keys, digest) =
            run_persistent(&setup, Crypto::Direct, wal_compact_bytes, &[(3, 150)]);
        assert_eq!(net.recoveries(), 1);
        assert_eq!((keys, digest), (ref_keys.clone(), ref_digest));
        let restored = net.endpoint(3).expect("endpoint 3 recovered");
        assert_eq!(session_bytes(restored), session_bytes(reference));
        let again = projections(restored);
        assert_eq!(again, if replayed { held } else { 0 });
    }
}

/// A corrupt store surfaces as a typed recovery failure and the node
/// stays down — never a panic, never silent resurrection.
#[test]
fn corrupt_store_fails_recovery_loudly() {
    let n = 4;
    let setup = SystemSetup::generate(n, 0, 555);
    let (mut net, stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run_until(100);
    // Vandalise node 3's snapshot out-of-band.
    stores[&3]
        .install_snapshot(&[1, 2, 3, 4])
        .expect("mem store accepts bytes");
    net.schedule_crash(3, net.now() + 1);
    net.schedule_recover(3, net.now() + 2);
    net.run();
    assert_eq!(net.recovery_failures().len(), 1);
    assert_eq!(net.recovery_failures()[0].0, 3);
    assert!(net.endpoint(3).is_none(), "unrecoverable node stays down");
    assert!(
        net.is_crashed(3),
        "…and stays *crashed*, so a later recovery attempt can retry"
    );
}

/// Torn WAL tails (crash mid-append) are trimmed: the endpoint restores
/// to the last complete frame and the missing suffix is re-delivered (or
/// genuinely lost) like any dropped message.
#[test]
fn torn_wal_tail_restores_to_last_complete_frame() {
    let n = 4;
    let setup = SystemSetup::generate(n, 0, 808);
    let (mut net, stores) = build_persistent_net(&setup, Crypto::Direct, u64::MAX);
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run_until(120);
    // Tear the tail of node 1's WAL: a crash mid-append.
    {
        let handle = &stores[&1];
        // Reach the MemStore through a fresh handle-level API: re-load and
        // truncate the raw log by a few bytes.
        let mut store = MemStore::new();
        let state = handle.load().expect("loads");
        let snapshot = state.snapshot.expect("snapshot present");
        store.set_raw_snapshot(Some(snapshot));
        for record in &state.wal {
            store.append(record).expect("append");
        }
        let wal = store.raw_wal_mut();
        let torn_len = wal.len().saturating_sub(3);
        wal.truncate(torn_len);
        let torn_state = store.load().expect("torn tail tolerated");
        assert!(torn_state.torn_tail);
        assert_eq!(torn_state.wal.len() + 1, state.wal.len());
    }
    net.run();
}

fn proptest_cases() -> u32 {
    std::env::var("CRASH_RECOVERY_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Equality of the restored run with the uninterrupted reference,
    /// across random crash points, crashed nodes AND worker counts: the
    /// combination of the two determinism seams (executor choice and
    /// crash/restore) still changes nothing.
    #[test]
    fn restored_run_matches_reference(
        node in 1u64..=7,
        crash_at in 1u64..500,
        workers in 1usize..=4,
    ) {
        let setup = SystemSetup::generate(7, 1, 60601);
        let (_, ref_keys, ref_digest) =
            run_persistent(&setup, Crypto::Pool(2), u64::MAX, &[]);
        let (net, keys, digest) = run_persistent(
            &setup,
            Crypto::Pool(workers),
            u64::MAX,
            &[(node, crash_at)],
        );
        prop_assert_eq!(keys, ref_keys);
        prop_assert_eq!(digest, ref_digest);
        prop_assert_eq!(net.recoveries(), 1);
    }
}
