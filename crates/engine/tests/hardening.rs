//! Adversarial-input hardening at the endpoint boundary: malformed,
//! truncated, bit-flipped, wrong-version, oversized, mis-routed and
//! unknown-session datagrams are all refused with typed [`Reject`]s — never
//! panics — and an ongoing DKG still completes while garbage pours in.
//! Also covers the bounded-outbox backpressure contract.

use dkg_arith::{PrimeField, Scalar};
use dkg_core::group::{GroupChange, GroupModInput, GroupModNode, ParameterAdjustment};
use dkg_core::DkgInput;
use dkg_engine::runner::SystemSetup;
use dkg_engine::runner::{collect_outcomes, run_key_generation};
use dkg_engine::{Endpoint, EndpointConfig, Reject, SessionKey};
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_sim::DelayModel;
use dkg_tss::{SignSession, TssConfig, TssInput};
use dkg_vss::{SessionId, VssInput, VssNode};
use dkg_wire::WireError;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn cases(default: u32) -> u32 {
    std::env::var("WIRE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The node every hand-driven endpoint here speaks for.
const NODE: u64 = 1;

/// Where [`host_every_kind`] and [`genuine_datagrams`] put the group-mod
/// session.
const MOD: usize = 3;

/// Adds one session of each kind the endpoint can host, all named `name`
/// (DKG `τ`, VSS `(NODE, τ)`, signing `sid`, group-mod `era`), and returns
/// their keys in that order.
fn host_every_kind(setup: &SystemSetup, endpoint: &mut Endpoint, name: u64) -> [SessionKey; 4] {
    let config = &setup.config;
    let session = SessionId::new(NODE, name);
    let vss = VssNode::new(NODE, config.vss.clone(), session, name, None);
    let mut rng = StdRng::seed_from_u64(setup.seed ^ name);
    let poly = SymmetricBivariate::random_with_secret(&mut rng, config.t(), Scalar::from_u64(5));
    let matrix = CommitmentMatrix::commit(&poly);
    let signers = TssConfig::new(config.vss.nodes.clone(), config.t(), 500).unwrap();
    let share = poly.row(NODE).constant_term();
    let group_key = matrix.share_commitment(0);
    let sign = SignSession::new(NODE, name, signers, share, matrix, group_key, name).unwrap();
    let agreement = GroupModNode::new(NODE, config.clone());
    [
        endpoint.add_dkg_session(setup.build_node(NODE, name)),
        endpoint.add_vss_session(vss),
        endpoint.add_sign_session(sign),
        endpoint.add_mod_session(name, agreement),
    ]
    .map(|added| added.expect("fresh name on this endpoint"))
}

/// An endpoint for node 1 of a 4-node system hosting one session of every
/// kind under the name 0, so hostile bytes reach every decode path.
fn endpoint_with_dkg(seed: u64) -> (SystemSetup, Endpoint) {
    let setup = SystemSetup::generate(4, 0, seed);
    let mut endpoint = Endpoint::new(NODE, EndpointConfig::default());
    host_every_kind(&setup, &mut endpoint, 0);
    (setup, endpoint)
}

/// Starts the session of every kind named `name` and returns one genuine
/// datagram each emitted, in [`host_every_kind`] order.
fn genuine_datagrams(endpoint: &mut Endpoint, name: u64) -> [Vec<u8>; 4] {
    let first_transmit = |endpoint: &mut Endpoint| {
        let transmit = endpoint.poll_transmit().expect("the input emits sends");
        while endpoint.poll_transmit().is_some() {}
        transmit.payload
    };
    let secret = Scalar::from_u64(9);
    let sign = TssInput::Sign {
        req: 1,
        message: b"hardening".to_vec(),
    };
    let change = GroupChange::AddNode {
        node: 9,
        adjustment: ParameterAdjustment::None,
    };
    endpoint.handle_dkg_input(name, DkgInput::Start, 0).unwrap();
    let dkg = first_transmit(endpoint);
    let session = SessionId::new(NODE, name);
    endpoint
        .handle_vss_input(session, VssInput::Share { secret }, 0)
        .unwrap();
    let vss = first_transmit(endpoint);
    endpoint.handle_tss_input(name, sign, 0).unwrap();
    let tss = first_transmit(endpoint);
    endpoint
        .handle_mod_input(name, GroupModInput::Propose(change), 0)
        .unwrap();
    [dkg, vss, tss, first_transmit(endpoint)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn arbitrary_datagrams_never_panic_the_endpoint(
        bytes in vec(any::<u8>(), 0..400),
        from in any::<u64>(),
    ) {
        let (_, mut endpoint) = endpoint_with_dkg(7);
        let result = endpoint.handle_datagram(from, &bytes, 0);
        prop_assert!(result.is_err(), "random bytes must never be accepted");
        prop_assert!(endpoint.stats().rejected > 0);
    }

    #[test]
    fn mangled_real_traffic_never_panics(
        seed in any::<u64>(),
        flip_byte in 0usize..usize::MAX,
        flip_bit in 0u8..8,
        cut in 0usize..usize::MAX,
    ) {
        // Capture a genuine datagram of every kind by starting each
        // protocol, then mangle it.
        let (_, mut endpoint) = endpoint_with_dkg(seed % 64);
        for bytes in genuine_datagrams(&mut endpoint, 0) {
            // Truncation.
            let cut = cut % bytes.len();
            prop_assert!(endpoint.handle_datagram(2, &bytes[..cut], 1).is_err());

            // Bit flip: either refused, or (if the flip keeps the frame
            // valid, e.g. inside an unauthenticated scalar) absorbed by the
            // state machine without panicking.
            let mut flipped = bytes.clone();
            let idx = flip_byte % flipped.len();
            flipped[idx] ^= 1 << flip_bit;
            let _ = endpoint.handle_datagram(2, &flipped, 2);
        }
    }
}

#[test]
fn typed_rejections_name_the_failure() {
    let (setup, mut endpoint) = endpoint_with_dkg(11);

    // Wrong version.
    endpoint.handle_dkg_input(0, DkgInput::Start, 0).unwrap();
    let good = endpoint.poll_transmit().unwrap().payload;
    let mut wrong_version = good.clone();
    wrong_version[0] = 9;
    assert_eq!(
        endpoint.handle_datagram(2, &wrong_version, 0),
        Err(Reject::Malformed(WireError::UnsupportedVersion {
            version: 9
        }))
    );

    // Unknown session: reroute a valid frame to τ = 5.
    let mut unknown = good.clone();
    unknown[2..10].copy_from_slice(&5u64.to_be_bytes());
    assert_eq!(
        endpoint.handle_datagram(2, &unknown, 0),
        Err(Reject::UnknownSession(SessionKey::Dkg { tau: 5 }))
    );

    // Session mismatch: host τ = 5 too, then replay the τ = 0 payload under
    // the τ = 5 header — the splice is caught.
    endpoint.add_dkg_session(setup.build_node(1, 5)).unwrap();
    assert_eq!(
        endpoint.handle_datagram(2, &unknown, 0),
        Err(Reject::SessionMismatch {
            header: SessionKey::Dkg { tau: 5 }
        })
    );

    // Oversized datagram.
    let mut small = Endpoint::new(
        1,
        EndpointConfig {
            max_datagram_len: 64,
            ..EndpointConfig::default()
        },
    );
    small.add_dkg_session(setup.build_node(1, 0)).unwrap();
    assert_eq!(
        small.handle_datagram(2, &[0u8; 65], 0),
        Err(Reject::OversizedDatagram { len: 65, max: 64 })
    );

    // Duplicate session / wrong node are refused at insertion.
    assert_eq!(
        endpoint
            .add_dkg_session(setup.build_node(1, 0))
            .unwrap_err(),
        Reject::DuplicateSession(SessionKey::Dkg { tau: 0 })
    );
    assert_eq!(
        endpoint
            .add_dkg_session(setup.build_node(2, 7))
            .unwrap_err(),
        Reject::WrongNode {
            endpoint: 1,
            node: 2
        }
    );

    // Completing a job this endpoint never handed out.
    assert_eq!(
        endpoint.complete_job(987, dkg_poly::CryptoVerdict::accept_all(1), 0),
        Err(Reject::UnknownJob(987))
    );

    // A refused WAL append surfaces the store error, and its rendering
    // names both the refusal and the cause (the variant is constructed
    // directly here: forcing a live mid-input append failure would need
    // fault injection below the store API).
    let persist_failed = Reject::PersistFailed(dkg_store::StoreError::NoStore);
    assert_eq!(
        persist_failed.to_string(),
        "input refused, wal append failed: no store configured"
    );
}

/// The restore path refuses impossible requests with typed store errors:
/// no configured store, and a configured-but-empty store.
#[test]
fn restore_without_snapshot_is_a_typed_error() {
    use dkg_engine::RestoreError;
    use dkg_store::{StoreError, StoreHandle};

    // No store configured at all.
    assert!(matches!(
        Endpoint::restore(EndpointConfig::default()).map(|_| ()),
        Err(RestoreError::Store(StoreError::NoStore))
    ));

    // A store with no installed snapshot.
    let empty = EndpointConfig {
        store: Some(StoreHandle::in_memory()),
        ..EndpointConfig::default()
    };
    assert!(matches!(
        Endpoint::restore(empty).map(|_| ()),
        Err(RestoreError::Store(StoreError::SnapshotMissing))
    ));
}

#[test]
fn bounded_outbox_applies_backpressure() {
    let setup = SystemSetup::generate(4, 0, 13);
    let mut endpoint = Endpoint::new(
        1,
        EndpointConfig {
            outbox_capacity: 2,
            ..EndpointConfig::default()
        },
    );
    endpoint.add_dkg_session(setup.build_node(1, 0)).unwrap();
    // Starting floods the outbox past its capacity (a single handler's burst
    // is never split), after which further input is refused…
    endpoint.handle_dkg_input(0, DkgInput::Start, 0).unwrap();
    assert!(endpoint.outbox_len() >= 2);
    let refused = endpoint.handle_datagram(2, &[0u8; 8], 1);
    assert_eq!(refused, Err(Reject::Backpressure { capacity: 2 }));
    assert_eq!(
        endpoint.handle_dkg_input(0, DkgInput::Reconstruct, 1),
        Err(Reject::Backpressure { capacity: 2 })
    );
    // …until the transport drains the queue.
    while endpoint.poll_transmit().is_some() {}
    assert!(endpoint.handle_datagram(2, &[0u8; 8], 2).is_err_and(
        |r| matches!(r, Reject::Malformed(_)) // parsed again, not backpressured
    ));
}

#[test]
fn dkg_completes_under_a_garbage_storm() {
    // The acceptance criterion: zero panics on adversarially malformed
    // datagrams, while the protocol still completes. A hostile sender
    // sprays every node with random bytes, truncated real frames and
    // wrong-version frames throughout the run.
    let setup = SystemSetup::generate(4, 0, 666);
    let mut net = dkg_engine::runner::build_dkg_net(&setup, 0, DelayModel::Constant(15));
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    let mut rng = StdRng::seed_from_u64(999);
    for step in 0..60u64 {
        for &node in &setup.config.vss.nodes {
            let mut garbage = vec![0u8; (step as usize * 7) % 96 + 1];
            rng.fill_bytes(&mut garbage);
            net.inject_datagram(100, node, garbage, step * 5);
        }
    }
    net.run();
    let outcomes = collect_outcomes(&net, 0);
    assert_eq!(outcomes.len(), 4, "storm must not stop completion");
    assert!(
        net.rejections().len() >= 200,
        "the garbage was refused, not absorbed: {} rejections",
        net.rejections().len()
    );
    assert!(net
        .rejections()
        .iter()
        .all(|r| matches!(r.reject, Reject::Malformed(_) | Reject::UnknownSession(_))));
}

#[test]
fn replayed_and_cross_routed_traffic_is_contained() {
    // Record all real τ = 0 traffic of one run, then replay it into a
    // different run keyed τ = 1: every frame is refused as unknown-session
    // (the header routes it to a session the endpoints do not host).
    let setup = SystemSetup::generate(4, 0, 31);
    let (_, net0) = run_key_generation(&setup, DelayModel::Constant(10), 0);
    assert!(net0.rejections().is_empty());

    let mut net1 = dkg_engine::runner::build_dkg_net(&setup, 1, DelayModel::Constant(10));
    for &node in &setup.config.vss.nodes {
        net1.schedule_dkg_input(node, 1, DkgInput::Start, 0);
    }
    // Replay: recreate a frame of real τ = 0 traffic from a fresh identical
    // run (deterministic), inject into the τ = 1 network.
    let setup_replay = SystemSetup::generate(4, 0, 31);
    let mut replay_endpoint = Endpoint::new(1, dkg_engine::EndpointConfig::default());
    replay_endpoint
        .add_dkg_session(setup_replay.build_node(1, 0))
        .unwrap();
    replay_endpoint
        .handle_dkg_input(0, DkgInput::Start, 0)
        .unwrap();
    let mut replayed = 0;
    while let Some(t) = replay_endpoint.poll_transmit() {
        net1.inject_datagram(1, t.to, t.payload, 5);
        replayed += 1;
    }
    assert!(replayed > 0);
    net1.run();
    assert_eq!(collect_outcomes(&net1, 1).len(), 4);
    assert_eq!(
        net1.rejections()
            .iter()
            .filter(|r| matches!(r.reject, Reject::UnknownSession(SessionKey::Dkg { tau: 0 })))
            .count(),
        replayed
    );

    // Cross-routing inside one endpoint: a genuine payload of every kind,
    // spliced under the header of every *other* session it hosts, is
    // refused with a typed reject that the target session counts. The
    // endpoint hosts two sessions of each kind, named 0 and 5.
    let mut endpoint = Endpoint::new(NODE, EndpointConfig::default());
    let keys = [0, 5].map(|name| host_every_kind(&setup, &mut endpoint, name));
    let datagrams = [0, 5].map(|name| genuine_datagrams(&mut endpoint, name));
    let rejected = |endpoint: &Endpoint, key| endpoint.session_stats(key).unwrap().rejected;
    for (payload_name, payloads) in datagrams.iter().enumerate() {
        for (payload_kind, payload) in payloads.iter().enumerate() {
            for (header_name, headers) in datagrams.iter().enumerate() {
                for (header_kind, header) in headers.iter().enumerate() {
                    if (payload_name, payload_kind) == (header_name, header_kind) {
                        continue;
                    }
                    // Version byte, then the other session's routing header,
                    // then this payload's length and bytes.
                    let mut spliced = payload.clone();
                    spliced[1..18].copy_from_slice(&header[1..18]);
                    let target = keys[header_name][header_kind];
                    let before = rejected(&endpoint, target);
                    let result = endpoint.handle_datagram(2, &spliced, 1);
                    if payload_kind == MOD && header_kind == MOD {
                        // Group-mod payloads carry no era to cross-check:
                        // another agreement's header is simply another
                        // agreement's message.
                        assert_eq!(result, Ok(target));
                        while endpoint.poll_transmit().is_some() {}
                        continue;
                    }
                    let mismatch = Reject::SessionMismatch { header: target };
                    assert!(
                        matches!(&result, Err(Reject::Malformed(_))) || result == Err(mismatch),
                        "kind {payload_kind} under kind {header_kind}: {result:?}"
                    );
                    if payload_kind == header_kind {
                        // Same codec, other session: caught by the
                        // payload-vs-header cross-check, not by luck.
                        assert!(matches!(result, Err(Reject::SessionMismatch { .. })));
                    }
                    assert_eq!(rejected(&endpoint, target), before + 1);
                }
            }
        }
    }
}
