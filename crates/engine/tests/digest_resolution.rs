//! Digest-resolved decoding of inline commitments (Fig. 1 puts the whole
//! matrix `C` in every `echo` and `ready`): inside a session each matrix is
//! decompressed once, the decoded messages are the ones a context-free
//! decode yields, and nothing a context-free decode refuses gets through.
//!
//! Decompressions are counted by `dkg_arith::ops::decompressions`, which is
//! thread-local — every test here runs its endpoints on its own thread.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dkg_arith::ops::decompressions;
use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_core::{DkgConfig, DkgInput, DkgMessage};
use dkg_engine::runner::{run_key_generation, SystemSetup};
use dkg_engine::{Endpoint, EndpointConfig, Reject, SessionKey};
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_sim::DelayModel;
use dkg_store::StoreHandle;
use dkg_vss::{CommitmentMode, CommitmentRef, SessionId, VssMessage};
use dkg_wire::{decode_datagram, encode_datagram, WireDecode, WireEncode, WireError};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TAU: u64 = 0;
const KEY: SessionKey = SessionKey::Dkg { tau: TAU };

fn setup(n: usize, mode: CommitmentMode, seed: u64) -> SystemSetup {
    let mut config = DkgConfig::standard(n, 0).expect("standard parameters");
    config.vss.mode = mode;
    SystemSetup::with_config(config, seed)
}

/// Point decompressions of a whole seed-7, n = 7 DKG over `EndpointNet`.
fn dkg_decompressions(mode: CommitmentMode) -> (u64, BTreeMap<&'static str, u64>) {
    let setup = setup(7, mode, 7);
    let before = decompressions();
    let (outcomes, net) = run_key_generation(&setup, DelayModel::Uniform { min: 10, max: 80 }, TAU);
    let spent = decompressions() - before;
    assert_eq!(outcomes.len(), 7, "every node completes");
    assert!(net.rejections().is_empty());
    let kinds = net.metrics().by_kind();
    (spent, kinds.iter().map(|(&k, t)| (k, t.messages)).collect())
}

/// The asserted counter: a full-mode DKG decompresses each dealer's matrix
/// once per `send` and at most once more per (node, dealer) — when an
/// `echo` outruns the `send` — instead of once per `echo` and `ready`.
#[test]
fn full_mode_dkg_decompresses_each_matrix_once_per_session() {
    let (n, t) = (7u64, 2u64);
    let matrix = (t + 1) * (t + 1);
    let (full, full_kinds) = dkg_decompressions(CommitmentMode::Full);
    let (digest, digest_kinds) = dkg_decompressions(CommitmentMode::Digest);
    // The two runs exchange the same messages, so everything that is not an
    // inline matrix — the n² `send` matrices and one nonce point per
    // signature — costs the same in both, and the difference is exactly the
    // inline matrices that were decompressed: the first sights.
    assert_eq!(full_kinds, digest_kinds);
    assert_eq!(full_kinds["vss-send"], n * n);
    assert_eq!(
        full_kinds["vss-echo"] + full_kinds["vss-ready"],
        2 * n * n * n
    );
    let first_sights = full - digest;
    assert_eq!(first_sights % matrix, 0);
    assert!(first_sights <= n * n * matrix, "{first_sights}");
    // Pinned. Before digest resolution every one of the 2n³ echo/ready
    // datagrams paid: 686 inline matrices × 9 points = 6 174 on top of
    // `digest`; now 27 first sights do.
    assert_eq!(digest, 987);
    assert_eq!(full, 1_230);
}

/// A hand-driven FIFO network of `n` endpoints, so a test sees every
/// datagram before its receiver does.
struct Fifo {
    endpoints: BTreeMap<u64, Endpoint>,
    queue: VecDeque<(u64, u64, Vec<u8>)>,
    now: u64,
}

impl Fifo {
    fn new(setup: &SystemSetup, store_for: Option<u64>) -> (Self, Option<StoreHandle>) {
        let store = store_for.map(|_| StoreHandle::in_memory());
        let endpoints = setup
            .config
            .vss
            .nodes
            .iter()
            .map(|&node| {
                let config = EndpointConfig {
                    store: store.clone().filter(|_| store_for == Some(node)),
                    ..EndpointConfig::default()
                };
                let mut endpoint = Endpoint::new(node, config);
                endpoint
                    .add_dkg_session(setup.build_node(node, TAU))
                    .expect("fresh endpoint has no session");
                (node, endpoint)
            })
            .collect();
        let fifo = Fifo {
            endpoints,
            queue: VecDeque::new(),
            now: 0,
        };
        (fifo, store)
    }

    fn start(&mut self, node: u64) {
        let endpoint = self.endpoints.get_mut(&node).expect("node exists");
        endpoint
            .handle_dkg_input(TAU, DkgInput::Start, self.now)
            .expect("start accepted");
        self.collect(node);
    }

    fn collect(&mut self, node: u64) {
        let endpoint = self.endpoints.get_mut(&node).expect("node exists");
        while let Some(transmit) = endpoint.poll_transmit() {
            self.queue.push_back((node, transmit.to, transmit.payload));
        }
        while endpoint.poll_event().is_some() {}
    }

    /// Delivers the oldest datagram, after showing it to `inspect` together
    /// with its receiver.
    fn deliver_next(&mut self, mut inspect: impl FnMut(&Endpoint, &[u8])) -> bool {
        let Some((from, to, bytes)) = self.queue.pop_front() else {
            return false;
        };
        self.now += 1;
        let endpoint = self.endpoints.get_mut(&to).expect("receiver exists");
        inspect(endpoint, &bytes);
        endpoint
            .handle_datagram(from, &bytes, self.now)
            .expect("honest traffic is accepted");
        self.collect(to);
        true
    }
}

/// (a) For every datagram of a full-mode DKG, decoding against the
/// receiving session's live lookup yields the message a context-free decode
/// yields, and both re-encode to the received bytes.
#[test]
fn live_lookup_decode_equals_context_free_decode_on_a_whole_transcript() {
    let setup = setup(7, CommitmentMode::Full, 7);
    let (mut net, _) = Fifo::new(&setup, None);
    for node in 1..=7 {
        net.start(node);
    }
    let (mut datagrams, mut inline, mut hits) = (0u32, 0u32, 0u32);
    while net.deliver_next(|endpoint, bytes| {
        let (_, payload) = decode_datagram(bytes).expect("honest frame");
        let node = endpoint.dkg_session(TAU).expect("session hosted");
        let known = |session, digest: &_| node.known_commitment(session, digest);
        let resolved = DkgMessage::decode_known(payload, &known).expect("honest payload");
        let context_free = DkgMessage::decode(payload).expect("honest payload");
        assert_eq!(resolved, context_free);
        assert_eq!(resolved.encode(), payload);
        assert_eq!(context_free.encode(), payload);
        datagrams += 1;
        if let DkgMessage::Vss(
            VssMessage::Echo {
                session,
                commitment,
                ..
            }
            | VssMessage::Ready {
                session,
                commitment,
                ..
            },
        ) = &resolved
        {
            let matrix = commitment.matrix().expect("full mode carries C inline");
            inline += 1;
            let held = node.known_commitment(*session, &commitment.digest());
            hits += u32::from(held.is_some_and(|held| Arc::ptr_eq(&held, matrix)));
        }
    }) {}
    assert!(net.endpoints.values().all(|e| e.is_complete(KEY)));
    assert_eq!(inline, 2 * 7 * 7 * 7);
    assert!(datagrams > inline);
    // All but the first sight of each (node, dealer) pair resolved to the
    // session's own handle.
    assert!(hits >= inline - 7 * 7, "{hits} of {inline}");
}

/// Node 1 of a 4-node system with dealer 2's matrix known, plus the
/// datagram of dealer 2's own `echo` to node 1 (which carries that matrix
/// inline). Node 1 persists to the returned store.
fn node_one_knowing_dealer_two() -> (Fifo, StoreHandle, Vec<u8>) {
    let setup = setup(4, CommitmentMode::Full, 11);
    let (mut net, store) = Fifo::new(&setup, Some(1));
    net.start(2);
    // Dealer 2's `send`s reach everyone (itself included); every receiver
    // answers with echoes, which stay queued.
    for _ in 0..4 {
        assert!(net.deliver_next(|_, _| {}));
    }
    let echo = net
        .queue
        .iter()
        .find(|(from, to, _)| (*from, *to) == (2, 1))
        .map(|(_, _, bytes)| bytes.clone())
        .expect("dealer 2 echoed to node 1");
    (net, store.expect("node 1 has a store"), echo)
}

/// Offset of the first matrix point in a DKG datagram carrying a VSS
/// `echo`/`ready` with an inline commitment: frame header, DKG tag, VSS
/// tag, session, commitment-ref tag, matrix dimension.
fn first_point_offset(datagram: &[u8]) -> usize {
    let (_, payload) = decode_datagram(datagram).expect("honest frame");
    datagram.len() - payload.len() + 1 + 1 + 16 + 1 + 4
}

fn wal_frames(store: &StoreHandle) -> usize {
    store.load().expect("store loads").wal.len()
}

/// (b) An inline matrix that is not byte-for-byte a known one misses the
/// lookup and is judged exactly as a context-free decode judges it.
#[test]
fn mangled_inline_matrices_miss_the_lookup() {
    let (mut net, store, echo) = node_one_knowing_dealer_two();
    let node_one = net.endpoints.get_mut(&1).expect("node 1");
    let at = first_point_offset(&echo);
    let frames = wal_frames(&store);
    let rejected = node_one.session_stats(KEY).expect("hosted").rejected;

    // One off-curve x: search upwards from the honest x for a non-point.
    let mut off_curve = echo.clone();
    loop {
        let last = at + 32;
        off_curve[last] = off_curve[last].wrapping_add(1);
        let point: [u8; 33] = off_curve[at..at + 33].try_into().expect("33 bytes");
        if GroupElement::from_bytes(&point).is_none() {
            break;
        }
    }
    let before = decompressions();
    assert_eq!(
        node_one.handle_datagram(2, &off_curve, 50),
        Err(Reject::Malformed(WireError::InvalidPoint))
    );
    assert_eq!(decompressions() - before, 1, "refused at the first point");
    assert_eq!(
        node_one.session_stats(KEY).expect("hosted").rejected,
        rejected + 1
    );
    assert_eq!(
        wal_frames(&store),
        frames,
        "a refused datagram is not logged"
    );

    // One byte different but still a matrix (the first point negated): a
    // different commitment, fully decoded on first sight.
    let mut negated = echo.clone();
    negated[at] ^= 0x01; // 0x02 <-> 0x03
    let (_, payload) = decode_datagram(&negated).expect("frame intact");
    let context_free = DkgMessage::decode(payload).expect("still a valid message");
    let before = decompressions();
    assert_eq!(node_one.handle_datagram(2, &negated, 51), Ok(KEY));
    assert_eq!(decompressions() - before, 4, "(t+1)² points at t = 1");
    assert_eq!(wal_frames(&store), frames + 1);
    assert_eq!(context_free.encode(), payload);

    // The untouched echo is a hit: nothing is decompressed.
    let before = decompressions();
    assert_eq!(node_one.handle_datagram(2, &echo, 52), Ok(KEY));
    assert_eq!(decompressions() - before, 0);
    assert_eq!(wal_frames(&store), frames + 2);
    assert_eq!(
        node_one.session_stats(KEY).expect("hosted").rejected,
        rejected + 1
    );
}

/// (c) A matrix of the wrong dimension never enters the session's
/// commitment store, so it can never be a hit — it is decompressed (and
/// then ignored by the state machine) every time it is sent.
#[test]
fn wrong_dimension_matrices_are_never_known() {
    let (mut net, _store, echo) = node_one_knowing_dealer_two();
    let node_one = net.endpoints.get_mut(&1).expect("node 1");
    let (header, _) = decode_datagram(&echo).expect("honest frame");
    let mut rng = StdRng::seed_from_u64(3);
    // t = 1 in this system; commit to a degree-2 polynomial instead.
    let oversized = CommitmentMatrix::commit(&SymmetricBivariate::random_with_secret(
        &mut rng,
        2,
        Scalar::from_u64(9),
    ));
    let commitment = CommitmentRef::full(oversized);
    let digest = commitment.digest();
    let session = SessionId::new(2, TAU);
    let datagram = encode_datagram(
        header,
        &DkgMessage::Vss(VssMessage::Echo {
            session,
            commitment,
            point: Scalar::from_u64(5),
        }),
    );
    for round in 0..3 {
        let before = decompressions();
        assert_eq!(node_one.handle_datagram(3, &datagram, 60 + round), Ok(KEY));
        assert_eq!(decompressions() - before, 9, "round {round}");
        let node = node_one.dkg_session(TAU).expect("hosted");
        assert!(node.known_commitment(session, &digest).is_none());
    }
}
