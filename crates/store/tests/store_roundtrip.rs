//! Store-level robustness: FileStore durability across reopen, atomic
//! compaction, and decode fuzzing of WAL frames and state-machine
//! snapshots (truncations, bit flips, wrong versions, oversized lengths —
//! typed errors, never panics; a flipped snapshot that still restores
//! re-snapshots to its own bytes). `WIRE_FUZZ_CASES` raises the fuzz
//! budget, as in the decode-fuzz CI job.

use std::collections::BTreeMap;
use std::sync::Arc;

use dkg_arith::{PrimeField, Scalar};
use dkg_core::group::{GroupChange, GroupModInput, GroupModNode, ParameterAdjustment};
use dkg_core::{DkgConfig, DkgInput, DkgNode, DkgSnapshot, NodeKeys};
use dkg_crypto::NodeId;
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_sim::{Action, ActionSink, Protocol};
use dkg_store::{FileStore, MemStore, Store, StoreError, WalRecord};
use dkg_tss::{SignSession, SignSnapshot, TssConfig, TssInput};
use dkg_vss::{CommitmentMode, SessionId, VssConfig, VssInput, VssNode, VssSnapshot};
use dkg_wire::{WireDecode, WireEncode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fuzz_cases() -> usize {
    std::env::var("WIRE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Datagram {
            at: 5,
            from: 2,
            bytes: vec![0xAB; 48],
        },
        WalRecord::DkgOperator {
            at: 6,
            tau: 3,
            input: DkgInput::StartReshare {
                value: Scalar::from_u64(42),
            },
        },
        WalRecord::VssOperator {
            at: 7,
            session: SessionId::new(4, 1),
            input: VssInput::Share {
                secret: Scalar::from_u64(9),
            },
        },
        WalRecord::Timeout { at: 8 },
    ]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dkg-store-{}-{}", std::process::id(), tag))
}

#[test]
fn file_store_survives_reopen_and_compaction() {
    let dir = temp_dir("reopen");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = FileStore::open(&dir).unwrap();
        assert_eq!(store.load().unwrap().snapshot, None);
        for record in sample_records() {
            store.append(&record).unwrap();
        }
        assert!(store.wal_bytes() > 0);
    }
    // Reopen: the log is intact.
    {
        let mut store = FileStore::open(&dir).unwrap();
        let state = store.load().unwrap();
        assert_eq!(state.wal, sample_records());
        assert!(!state.torn_tail);
        // Compaction: snapshot installed, log truncated — atomically.
        store.install_snapshot(b"snapshot-bytes").unwrap();
        assert_eq!(store.wal_bytes(), 0);
        store.append(&WalRecord::Timeout { at: 99 }).unwrap();
    }
    // Reopen again: snapshot plus the post-compaction suffix.
    {
        let mut store = FileStore::open(&dir).unwrap();
        let state = store.load().unwrap();
        assert_eq!(state.snapshot.as_deref(), Some(&b"snapshot-bytes"[..]));
        assert_eq!(state.wal, vec![WalRecord::Timeout { at: 99 }]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_store_trims_torn_tail_on_reopen() {
    let dir = temp_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = FileStore::open(&dir).unwrap();
        for record in sample_records() {
            store.append(&record).unwrap();
        }
    }
    // Simulate a crash mid-append: chop bytes off the log file (still
    // generation 0 — no snapshot was installed yet).
    let wal_path = dir.join("wal-0.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
    {
        let mut store = FileStore::open(&dir).unwrap();
        let state = store.load().unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.wal.len(), sample_records().len() - 1);
        // The trim is durable: appends continue on a frame boundary.
        store.append(&WalRecord::Timeout { at: 1 }).unwrap();
        let state = store.load().unwrap();
        assert!(!state.torn_tail);
        assert_eq!(state.wal.len(), sample_records().len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction is crash-atomic: the snapshot's generation header names the
/// log written *for it*, so a crash that leaves the previous generation's
/// (already folded-in) log lying around cannot get it replayed on top of
/// the new snapshot.
#[test]
fn stale_log_from_before_compaction_is_never_replayed() {
    let dir = temp_dir("stale");
    let _ = std::fs::remove_dir_all(&dir);
    let old_log = {
        let mut store = FileStore::open(&dir).unwrap();
        for record in sample_records() {
            store.append(&record).unwrap();
        }
        let bytes = std::fs::read(dir.join("wal-0.log")).unwrap();
        store.install_snapshot(b"generation-1").unwrap();
        bytes
    };
    // Simulate the crash window after the snapshot rename but before the
    // old log's removal: resurrect wal-0.log with its full contents.
    std::fs::write(dir.join("wal-0.log"), &old_log).unwrap();
    let mut store = FileStore::open(&dir).unwrap();
    let state = store.load().unwrap();
    assert_eq!(state.snapshot.as_deref(), Some(&b"generation-1"[..]));
    assert_eq!(state.wal, vec![], "stale pre-compaction log is ignored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL fuzz: random truncations and bit flips of a valid log either decode
/// (flips can hide in datagram payload bytes) or fail with a typed
/// [`StoreError`] — never a panic, never an oversized allocation.
#[test]
fn wal_decode_fuzz_never_panics() {
    let mut store = MemStore::new();
    for record in sample_records() {
        store.append(&record).unwrap();
    }
    let pristine = store.raw_wal_mut().clone();
    let mut rng = StdRng::seed_from_u64(0xFA77);
    for case in 0..fuzz_cases() {
        let mut mutated = pristine.clone();
        match case % 3 {
            0 => {
                let cut = rng.gen_range(0..mutated.len());
                mutated.truncate(cut);
            }
            1 => {
                let at = rng.gen_range(0..mutated.len());
                mutated[at] ^= 1 << rng.gen_range(0..8u32);
            }
            _ => {
                let garbage_len = rng.gen_range(1..64usize);
                for _ in 0..garbage_len {
                    mutated.push(rng.gen_range(0..=255u8));
                }
            }
        }
        let mut fuzzed = MemStore::new();
        *fuzzed.raw_wal_mut() = mutated;
        let _ = fuzzed.load(); // Ok(trimmed) or Err(typed): both fine.
    }
    // Pure garbage of every small length.
    for len in 0..64usize {
        let mut garbage = MemStore::new();
        *garbage.raw_wal_mut() = (0..len).map(|i| (i * 37) as u8).collect();
        let _ = garbage.load();
    }
}

fn sample_vss_snapshot() -> VssSnapshot {
    let cfg = VssConfig::standard(4, 0).unwrap();
    let node = VssNode::new(2, cfg, SessionId::new(1, 0), 7, None);
    node.snapshot().expect("fresh node is quiescent")
}

fn sample_dkg_snapshot() -> DkgSnapshot {
    let mut rng = StdRng::seed_from_u64(11);
    let (secrets, directory) = dkg_crypto::generate_keyring(&mut rng, 4);
    let config = DkgConfig::standard(4, 0).unwrap();
    let keys = NodeKeys {
        signing_key: secrets[&1],
        directory: std::sync::Arc::new(directory),
    };
    let node = dkg_core::DkgNode::new(1, config, keys, 0, 77);
    node.snapshot().expect("fresh node is quiescent")
}

/// Snapshot codec fuzz for the state-machine snapshots themselves:
/// truncations and bit flips yield typed `WireError`s or valid values,
/// never panics; round trips are exact.
#[test]
fn snapshot_decode_fuzz_never_panics() {
    let vss = sample_vss_snapshot();
    let vss_bytes = vss.encode();
    assert_eq!(VssSnapshot::decode(&vss_bytes), Ok(vss));
    let dkg = sample_dkg_snapshot();
    let dkg_bytes = dkg.encode();
    assert_eq!(DkgSnapshot::decode(&dkg_bytes), Ok(dkg));

    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let cases = fuzz_cases();
    for bytes in [&vss_bytes, &dkg_bytes] {
        for i in 0..cases {
            // Truncations at spread boundaries always fail typed.
            let cut = bytes.len() * i / cases.max(1);
            if cut < bytes.len() {
                assert!(<DkgSnapshot as WireDecode>::decode(&bytes[..cut]).is_err());
            }
            // Bit flips: decode or typed error, never a panic.
            let mut mutated = bytes.to_vec();
            let at = rng.gen_range(0..mutated.len());
            mutated[at] ^= 1 << rng.gen_range(0..8u32);
            let _ = VssSnapshot::decode(&mutated);
            let _ = DkgSnapshot::decode(&mutated);
        }
    }
}

/// Runs `nodes` from the operator `inputs` on a network that delivers the
/// oldest message first, or the newest (`newest_first`: a legal
/// asynchronous schedule that delivers echoes ahead of the dealer's
/// `send`), and stops after `deliveries` messages: a run frozen part-way,
/// so its snapshots hold partly filled tallies, buffers, vote sets and
/// outboxes. Timers and outputs are dropped.
fn run_partway<P: Protocol>(
    nodes: &mut BTreeMap<NodeId, P>,
    inputs: Vec<(NodeId, P::Operator)>,
    deliveries: usize,
    newest_first: bool,
) {
    let mut in_flight = std::collections::VecDeque::new();
    let sent = |from: NodeId, sink: ActionSink<P::Message, P::Output>| {
        sink.into_actions()
            .into_iter()
            .filter_map(move |action| match action {
                Action::Send { to, message } => Some((from, to, message)),
                _ => None,
            })
    };
    for (node, input) in inputs {
        let mut sink = ActionSink::new();
        nodes.get_mut(&node).unwrap().on_operator(input, &mut sink);
        in_flight.extend(sent(node, sink));
    }
    for _ in 0..deliveries {
        let next = if newest_first {
            in_flight.pop_back()
        } else {
            in_flight.pop_front()
        };
        let (from, to, message) = next.expect("run still going");
        let mut sink = ActionSink::new();
        nodes
            .get_mut(&to)
            .unwrap()
            .on_message(from, message, &mut sink);
        in_flight.extend(sent(to, sink));
    }
}

/// The images of a digest-mode HybridVSS sharing at n = 4, part-way.
fn vss_images() -> Vec<Vec<u8>> {
    let config = VssConfig::standard_with_mode(4, 0, CommitmentMode::Digest).unwrap();
    let session = SessionId::new(1, 0);
    let mut nodes: BTreeMap<NodeId, VssNode> = (1..=4)
        .map(|i| (i, VssNode::new(i, config.clone(), session, 40 + i, None)))
        .collect();
    let share = VssInput::Share {
        secret: Scalar::from_u64(5),
    };
    run_partway(&mut nodes, vec![(1, share)], 14, true);
    let images: Vec<VssSnapshot> = nodes.values().map(|n| n.snapshot().unwrap()).collect();
    assert!(images.iter().any(|image| !image.pending.is_empty()));
    let mut tallies = images.iter().flat_map(|image| image.tallies.values());
    assert!(tallies.any(|tally| tally.echo_from.len() > 1));
    images.iter().map(WireEncode::encode).collect()
}

/// The images of an n = 4 DKG part-way: sharings under way, agreement
/// votes in flight.
fn dkg_images() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(12);
    let (secrets, directory) = dkg_crypto::generate_keyring(&mut rng, 4);
    let directory = Arc::new(directory);
    let config = DkgConfig::standard(4, 0).unwrap();
    let mut nodes: BTreeMap<NodeId, DkgNode> = (1..=4)
        .map(|i| {
            let keys = NodeKeys {
                signing_key: secrets[&i],
                directory: Arc::clone(&directory),
            };
            (i, DkgNode::new(i, config.clone(), keys, 0, 80 + i))
        })
        .collect();
    let start = (1..=4).map(|i| (i, DkgInput::Start)).collect();
    run_partway(&mut nodes, start, 160, true);
    let images: Vec<DkgSnapshot> = nodes.values().map(|n| n.snapshot().unwrap()).collect();
    assert!(images.iter().any(|image| !image.completed_vss.is_empty()));
    assert!(images.iter().any(|image| !image.echo_votes.is_empty()));
    images.iter().map(WireEncode::encode).collect()
}

/// The images of three signing requests on an n = 4, t = 1 key, part-way:
/// requests in both rounds at two coordinators.
fn sign_images() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(13);
    let poly = SymmetricBivariate::random_with_secret(&mut rng, 1, Scalar::from_u64(6));
    let matrix = Arc::new(CommitmentMatrix::commit(&poly));
    let signers = vec![1, 2, 3, 4];
    let mut nodes: BTreeMap<NodeId, SignSession> = signers
        .iter()
        .map(|&i| {
            let config = TssConfig::new(signers.clone(), 1, 500).unwrap();
            let share = poly.row(i).constant_term();
            let key = matrix.public_key();
            let session = SignSession::new(i, 1, config, share, Arc::clone(&matrix), key, 90 + i);
            (i, session.unwrap())
        })
        .collect();
    let requests = [(1, 7u64), (2, 8), (1, 9)]
        .into_iter()
        .map(|(coordinator, req)| {
            let message = format!("request {req}").into_bytes();
            (coordinator, TssInput::Sign { req, message })
        })
        .collect();
    run_partway(&mut nodes, requests, 30, false);
    let images: Vec<SignSnapshot> = nodes.values().map(|n| n.snapshot().unwrap()).collect();
    assert!(images.iter().any(|image| image.coordinating.len() > 1));
    assert!(images.iter().any(|image| image.nonces.len() > 1));
    assert!(images.iter().any(|image| !image.signed.is_empty()));
    images.iter().map(WireEncode::encode).collect()
}

/// The images of two group-modification proposals at n = 4, part-way.
fn group_mod_images() -> Vec<Vec<u8>> {
    let config = DkgConfig::standard(4, 0).unwrap();
    let mut nodes: BTreeMap<NodeId, GroupModNode> = (1..=4)
        .map(|i| (i, GroupModNode::new(i, config.clone())))
        .collect();
    let add = GroupChange::AddNode {
        node: 5,
        adjustment: ParameterAdjustment::None,
    };
    let remove = GroupChange::RemoveNode {
        node: 4,
        adjustment: ParameterAdjustment::Threshold,
    };
    let proposals = vec![
        (1, GroupModInput::Propose(add)),
        (2, GroupModInput::Propose(remove)),
    ];
    run_partway(&mut nodes, proposals, 20, false);
    nodes.values().map(WireEncode::encode).collect()
}

/// Bit-flips one of `images` per case and requires of every flipped image
/// that decodes and restores that it re-snapshots to exactly its own bytes:
/// one state has one image. `reimage` decodes, restores and re-snapshots,
/// `None` where decoding or restoring refuses. Returns how many flipped
/// images restored.
fn assert_restores_canonically(
    what: &str,
    images: &[Vec<u8>],
    seed: u64,
    reimage: impl Fn(&[u8]) -> Option<Vec<u8>>,
) -> usize {
    for image in images {
        assert_eq!(reimage(image).as_ref(), Some(image), "{what}: pristine");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut restored = 0;
    for _ in 0..fuzz_cases() {
        let which = rng.gen_range(0..images.len());
        let mut mutated = images[which].clone();
        let at = rng.gen_range(0..mutated.len());
        mutated[at] ^= 1 << rng.gen_range(0..8u32);
        if let Some(again) = reimage(&mutated) {
            assert!(
                again == mutated,
                "{what}: image {which} with byte {at} flipped re-snapshots differently"
            );
            restored += 1;
        }
    }
    restored
}

/// Snapshots decode canonically: a flipped bit that turns a sorted map or
/// set into an unsorted one (or one with a repeated key) is refused, not
/// sorted away on restore — so no image restores into a state whose own
/// image is other bytes. Covers the VSS, DKG, signing and group-mod images
/// of runs frozen part-way.
#[test]
fn mutated_snapshots_that_restore_re_snapshot_to_their_own_bytes() {
    let vss = assert_restores_canonically("vss", &vss_images(), 0x5151, |bytes| {
        let node = VssNode::restore(VssSnapshot::decode(bytes).ok()?, None).ok()?;
        Some(node.snapshot()?.encode())
    });
    let dkg = assert_restores_canonically("dkg", &dkg_images(), 0xD1D1, |bytes| {
        let node = DkgNode::restore(DkgSnapshot::decode(bytes).ok()?).ok()?;
        Some(node.snapshot()?.encode())
    });
    let sign = assert_restores_canonically("sign", &sign_images(), 0x5161, |bytes| {
        let session = SignSession::restore(SignSnapshot::decode(bytes).ok()?).ok()?;
        Some(session.snapshot()?.encode())
    });
    let group_mod =
        assert_restores_canonically("group-mod", &group_mod_images(), 0x6060, |bytes| {
            Some(GroupModNode::decode(bytes).ok()?.encode())
        });
    // Most flips land in scalars, signatures and message bodies that
    // still decode: the property is exercised, not vacuous.
    assert!(vss > 0 && dkg > 0 && sign > 0 && group_mod > 0);
}

/// The WAL rejects implausible length prefixes outright (no allocation),
/// and mid-log corruption is a checksum error, not a trim.
#[test]
fn corruption_classes_are_distinguished() {
    let mut store = MemStore::new();
    for record in sample_records() {
        store.append(&record).unwrap();
    }
    // Oversized declared length.
    let mut oversized = MemStore::new();
    {
        let wal = oversized.raw_wal_mut();
        wal.extend_from_slice(&u32::MAX.to_be_bytes());
        wal.extend_from_slice(&[0u8; 4]);
    }
    assert!(matches!(
        oversized.load(),
        Err(StoreError::OversizedRecord { .. })
    ));
    // Flip a byte inside the FIRST frame's payload: CRC mismatch (bit
    // rot), not a torn tail.
    let mut corrupted = MemStore::new();
    *corrupted.raw_wal_mut() = store.raw_wal_mut().clone();
    corrupted.raw_wal_mut()[10] ^= 0x01;
    assert!(matches!(
        corrupted.load(),
        Err(StoreError::CrcMismatch { offset: 0 })
    ));

    // A frame whose checksum verifies but whose record body fails codec
    // validation is Corrupt — distinguishable from bit rot (CrcMismatch)
    // and from format drift (UnsupportedVersion).
    use dkg_store::{crc32, decode_wal, WAL_VERSION};
    let payload = [WAL_VERSION, 0xFF]; // 0xFF: no such record tag
    let mut framed = MemStore::new();
    {
        let wal = framed.raw_wal_mut();
        wal.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wal.extend_from_slice(&crc32(&payload).to_be_bytes());
        wal.extend_from_slice(&payload);
    }
    assert!(matches!(framed.load(), Err(StoreError::Corrupt(_))));
    assert!(matches!(
        decode_wal(framed.raw_wal_mut()),
        Err(StoreError::Corrupt(_))
    ));
}

/// Opening a store somewhere the filesystem refuses surfaces a typed
/// [`StoreError::Io`] naming the failed operation.
#[test]
fn impossible_store_location_is_a_typed_io_error() {
    let dir = temp_dir("io-error");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Park a plain file where the store wants a directory.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"occupied").unwrap();
    match FileStore::open(blocker.join("sub")) {
        Err(StoreError::Io { op, .. }) => assert!(!op.is_empty()),
        other => panic!("expected StoreError::Io, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The remaining refusal variants render stable, operator-readable
/// messages. `Poisoned` and `SnapshotUnavailable` are constructed
/// directly: reaching them live needs a panicking writer thread holding
/// the store lock (resp. an endpoint with crypto jobs in flight), and
/// their rendering is the part operators depend on.
#[test]
fn store_error_rendering_names_the_refusal() {
    assert_eq!(
        StoreError::Poisoned.to_string(),
        "store lock poisoned by a panicking writer"
    );
    assert_eq!(
        StoreError::SnapshotUnavailable.to_string(),
        "state not snapshottable right now (crypto jobs in flight)"
    );
    assert_eq!(StoreError::NoStore.to_string(), "no store configured");
    assert_eq!(
        StoreError::SnapshotMissing.to_string(),
        "store holds no snapshot"
    );
    assert_eq!(
        StoreError::io("append", std::io::Error::other("disk full")).to_string(),
        "store i/o failed during append: disk full"
    );
}
