//! Golden transcripts: what "byte-identical" means **across commits**.
//!
//! The executor-determinism and crash-recovery suites compare runs *within*
//! one build (pool vs inline, restored vs uninterrupted). Nothing there
//! notices a refactor that changes every executor's bytes the same way.
//! This file pins the bytes themselves: the wire transcript of an n = 7 DKG
//! (full and digest commitments), a standalone HybridVSS sharing, a signing
//! burst on the DKG'd key and the fleet determinism plan, plus the snapshot
//! and the store contents (snapshot + WAL) of every endpoint after a
//! store-backed DKG, and the snapshots of every endpoint halfway through
//! the signing burst, after a group-modification agreement, part-way
//! through a digest-mode sharing and after a renewal epoch.
//!
//! A constant here changes only when a PR changes the wire format, the
//! snapshot/WAL format, a protocol's message order or the seeded
//! randomness — and then the PR says so. A refactor leaves the file
//! untouched.

use std::sync::Arc;

use dkg_arith::{PrimeField, Scalar};
use dkg_core::group::{GroupChange, GroupModInput, ParameterAdjustment};
use dkg_core::proactive::RenewalOptions;
use dkg_core::{DkgConfig, DkgInput};
use dkg_crypto::generate_keyring;
use dkg_crypto::sha256::{hex, sha256};
use dkg_engine::runner::{
    attach_sign_sessions, build_dkg_net, collect_outcomes, collect_signatures, run_group_agreement,
    run_initial_phase, run_renewal_phase, SystemSetup,
};
use dkg_engine::{Endpoint, EndpointConfig, EndpointNet, EndpointSnapshot, SessionStateSnapshot};
use dkg_sim::DelayModel;
use dkg_store::StoreHandle;
use dkg_tss::{SignSnapshot, TssInput};
use dkg_vss::{CommitmentMode, SessionId, SigningContext, VssConfig, VssInput, VssNode};
use dkg_wire::WireEncode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 7;
const DELAY: DelayModel = DelayModel::Uniform { min: 5, max: 40 };

const DKG_FULL: &str = "d7c120c267ca4177a164300ac160cad8a849dada72c7109d9c7754cdb05ca070";
const DKG_DIGEST: &str = "14b16437b12a103467748d2051d1503b528b77c0f3732805cad17d0436b035d0";
const VSS: &str = "de0db7cd0fbc8bdcc33e2d53e9ab19c25a3218ea572745b53301fda9d4127d03";
const SIGNING_BURST: &str = "349c6f2990acf7aea55875d8edd5bb286f47c157093a5e38b1c6b27829a5bd01";
const FLEET_DETERMINISM: &str = "aee70bd2b3287dc7e73ce2cc3924d4f856cfb0d9c8f382743b5d8f9a4684129f";
/// SHA-256 of `snapshot().to_bytes()` of endpoints 1..=7 after a
/// store-backed DKG.
const SNAPSHOTS: [&str; N] = [
    "f632647dd6d67cea668514c18102e59983fa58415843d76b8178280b64ec893c",
    "9edbc7cbc537278e077ec8cd856e42bf31a7a484df5118ca360ef6c88ebfe9e9",
    "ed5d48df5100ee324f0ead65b7f7f34c34530cbb68608a7656150c1a28dc4198",
    "4f4f88460cd1535ff211627a8821cba8871f481025ba41a1ddedd2a1ceddd422",
    "d02ee5c676e708dfed1c552da8c9b8936170f59cf27b3bfc2cd56e429051c141",
    "338b70932d920399c08dcb91375a66bc56c14c90dbf920eff695a367e701cc8a",
    "0f36a7d59ae543c31f76245aa122421104ccc8c155d8097c264b487a1bec42c2",
];
/// SHA-256 of what each endpoint's store holds after the same run: the
/// installed snapshot, then every WAL record re-encoded, in order.
const STORES: [&str; N] = [
    "95b5be523e0d895d844a9519e1a682b1cd027e98ba759ff15787366448cbdbb7",
    "8b3c412eb603bc046cda5d9a9be13f43a921d5881a277b8ad44ac5974f15e43b",
    "e030ef581e8ecddebaba0df3979c45838c5be4b7b95c5f9e6cb636c8d7673405",
    "c7b4692f1ce27f3d4ced707d7f799a07f3b6a3b757bb94b4cc1e9901c5383cf5",
    "1d641c77a831e1d60e8d088aa10e8019cdec4722b6a5af5fb3c6ec8e3ab4f63b",
    "e2a3c721ef31aabf6cc3da394540f373fb2ded40d9ca07c3edc6f077aae66e61",
    "0808dffce2b936153b4ea7c1c178235ff92e8f5952280435b109d92b82385f70",
];
/// How long after the first request the signing burst is stopped for
/// [`SIGNING_MID_BURST`].
const MID_BURST: u64 = 40;
/// SHA-256 of `snapshot().to_bytes()` of endpoints 1..=7 halfway through
/// the signing burst, with requests in flight in both rounds.
const SIGNING_MID_BURST: [&str; N] = [
    "9f88542115910000a5c167356de5bc84a7d037a56b791da480de28689c92c7c2",
    "a927bd0184c161390ebabae09ac3adc425b76431606198dfe514d10534d0a1f6",
    "f0832c6d21140bbe17d82bd93f7ade26a621e3029ebf069c2bad0767042dd5be",
    "3a775b9638f98b9c046668111b5c9966c447f2d8773c4864f46edaafa1edbdd7",
    "39099a90f34dfc5871a8fb32be771d90fd0e567e90656cad22365e87bfdc358a",
    "49d7a99f647f935f638ab098e38bb6f9e1168e09062d2d68669f249a418c96d0",
    "8949a2e0248f5e5369756e2385b649d27328d910ca8759425568b3cf22314dae",
];
/// SHA-256 of `snapshot().to_bytes()` of endpoints 1..=7 after a
/// group-modification agreement on two changes.
const GROUP_AGREEMENT: [&str; N] = [
    "b10ad5a1243e3f1c4bea963f166f1e51b60d5aed27d165b8b70ba764a4402247",
    "1443f1317116feed290ce6c3c2aa3427f2a82a837276f96521ca6178c7c19f37",
    "ec4376665edd16a7fe446971cc8b764507b9e9ad60c24a69ea8d900b2b8fec97",
    "a1bb3ccb784de61e245a5d7a126d3582ada688f9e0131fe18867a13bc978d5cd",
    "1e46556dac96e7643a5e58f32f5919ad6f64020ef1a9b3bebd82753281f70971",
    "6d0f6180efaad31e6950698ecb995b1d73eae310dd8da2268188b81bc90fe258",
    "56393c9bd55bb04c7e084caf4aad24f03b170d210c4a6c104e1545353fde69a1",
];
/// The instant a digest-mode sharing is stopped for
/// [`VSS_DIGEST_MID_SHARING`].
const MID_SHARING: u64 = 20;
/// SHA-256 of `snapshot().to_bytes()` of endpoints 1..=7 part-way through a
/// digest-mode, signed-ready standalone HybridVSS sharing, with points
/// buffered ahead of the dealer's `send`.
const VSS_DIGEST_MID_SHARING: [&str; N] = [
    "bad2cf584700e098b0ed40d7aeae3eabb385ad59bd38962f0ff1df3a5ebf6372",
    "ab2ed3b2ff7b5048cf652b00474f030219eebb46cf9606eb81fac393ed1fcd23",
    "f0eaf4f8398562ed376191646d7e48c77ce2ec447ff5da0965182555292396a4",
    "fd09464059b92eb0d631308bf35c33a45fe126ddb5eb76df97a103fba484d30e",
    "02dfe4dbd09a771cd31a70a942edea1e52423a0a6f6391d50bcdec3db14823d5",
    "c2937748f1f3591b9722cbc7ddee284b9d6c8034467ff15b7adb8e08fdbd2e87",
    "fbb04a53da72ebe07a9b11ed749266529a320cb69e85da75b364c671adc4852d",
];
/// SHA-256 of `snapshot().to_bytes()` of endpoints 1..=7 after a
/// digest-mode DKG followed by one interpolate-at-zero renewal epoch. Only
/// column 0 of the renewed commitment matrix reaches the wire (as the next
/// epoch's expected commitments), so no transcript notices a wrong entry
/// `(j, ℓ > 0)`; the snapshot holds the whole matrix.
const RENEWAL_SNAPSHOTS: [&str; N] = [
    "cac15f2dd54aee064e38444c0b0bcd493468ca34e385fed75fb1667c704e98f3",
    "9c6e331c7ea3ef444add3e8319bcd9a12856af6c65926b540dedc35489e4ee80",
    "938d81aeb965c330c81f4f7fbcf802bfeb50428732767222646f4ae9d2002d25",
    "7f5a7153376620d3dd40b65a82f72f65c77a68456c8cbdb92d11ec4560ff2fe2",
    "6a0ea307f9e4ad238780d7a5b3be627c64b963f385a371e26634e90030b29e61",
    "17dc631bc2578b8441991d3039e1337db20876626289bc6a8bfaeb30f6fc3516",
    "800ce937853e54ea84eb679e2fe52a625b3e6556c59a42e01867eb4ddb649fac",
];

fn setup(mode: CommitmentMode, seed: u64) -> SystemSetup {
    let mut config = DkgConfig::standard(N, 0).expect("standard parameters");
    config.vss.mode = mode;
    SystemSetup::with_config(config, seed)
}

/// Runs DKG session 0 to completion on `net` and returns the transcript.
fn run_dkg(setup: &SystemSetup, net: &mut EndpointNet) -> String {
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    assert_eq!(collect_outcomes(net, 0).len(), N, "every node completes");
    assert!(net.rejections().is_empty());
    hex(&net.transcript_digest().expect("transcript recorded"))
}

fn dkg_transcript(mode: CommitmentMode) -> String {
    let setup = setup(mode, 2009);
    let mut net = build_dkg_net(&setup, 0, DELAY);
    net.record_transcript();
    run_dkg(&setup, &mut net)
}

#[test]
fn dkg_n7_full_transcript() {
    assert_eq!(dkg_transcript(CommitmentMode::Full), DKG_FULL);
}

#[test]
fn dkg_n7_digest_transcript() {
    assert_eq!(dkg_transcript(CommitmentMode::Digest), DKG_DIGEST);
}

#[test]
fn standalone_vss_n7_transcript() {
    let config = VssConfig::standard_with_mode(N, 0, CommitmentMode::Full).expect("valid");
    let session = SessionId::new(1, 0);
    let mut net = EndpointNet::new(DELAY, 61);
    net.record_transcript();
    for node in 1..=N as u64 {
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        endpoint
            .add_vss_session(VssNode::new(
                node,
                config.clone(),
                session,
                6100 + node,
                None,
            ))
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }
    let secret = Scalar::from_u64(1909);
    net.schedule_vss_input(1, session, VssInput::Share { secret }, 0);
    net.run();
    for node in 1..=N as u64 {
        let hosted = net.endpoint(node).and_then(|e| e.vss_session(session));
        assert!(hosted.is_some_and(VssNode::is_complete), "node {node}");
    }
    assert_eq!(hex(&net.transcript_digest().expect("recorded")), VSS);
}

/// A DKG'd key with signing sessions attached and eight requests scheduled
/// from the returned instant on; nothing of the burst has run yet.
fn signing_burst_net() -> (EndpointNet, u64) {
    let setup = setup(CommitmentMode::Full, 1789);
    let mut net = build_dkg_net(&setup, 0, DELAY);
    net.record_transcript();
    run_dkg(&setup, &mut net);
    let signers = attach_sign_sessions(&mut net, 0, 1, 5_000, setup.seed);
    let start = net.now() + 10;
    for req in 1..=8u64 {
        let input = TssInput::Sign {
            req,
            message: format!("golden request {req}").into_bytes(),
        };
        // Two requests per instant, coordinators round-robin.
        let coordinator = signers[(req - 1) as usize % signers.len()];
        net.schedule_tss_input(coordinator, 1, input, start + req / 2);
    }
    (net, start)
}

fn assert_signing_burst_completes(mut net: EndpointNet) {
    net.run();
    assert_eq!(collect_signatures(&net, 1).len(), 8, "every request signed");
    assert_eq!(
        hex(&net.transcript_digest().expect("recorded")),
        SIGNING_BURST
    );
}

#[test]
fn signing_burst_n7_transcript() {
    let (net, _) = signing_burst_net();
    assert_signing_burst_completes(net);
}

/// Every endpoint's snapshot, and the SHA-256 of its bytes.
fn endpoint_images(net: &EndpointNet) -> (Vec<EndpointSnapshot>, Vec<String>) {
    (1..=N as u64)
        .map(|node| {
            let image = net.endpoint(node).and_then(Endpoint::snapshot);
            let image = image.expect("quiescent");
            let digest = hex(&sha256(&image.to_bytes()));
            (image, digest)
        })
        .unzip()
}

/// Whether some session state of some image satisfies `holds`.
fn any_state(images: &[EndpointSnapshot], holds: impl Fn(&SessionStateSnapshot) -> bool) -> bool {
    images
        .iter()
        .flat_map(|image| &image.sessions)
        .any(|session| holds(&session.state))
}

#[test]
fn signing_burst_n7_mid_burst_snapshots() {
    let (mut net, start) = signing_burst_net();
    net.run_until(start + MID_BURST);
    let (images, digests) = endpoint_images(&net);
    let sign = |holds: fn(&SignSnapshot) -> bool| {
        any_state(
            &images,
            |state| matches!(state, SessionStateSnapshot::Sign(sign) if holds(sign)),
        )
    };
    assert!(sign(|s| !s.coordinating.is_empty()), "a request in flight");
    assert!(sign(|s| !s.nonces.is_empty()), "a nonce committed");
    assert!(sign(|s| !s.signed.is_empty()), "a package signed");
    assert_eq!(digests, SIGNING_MID_BURST);
    // Taking the images changed nothing: the burst ends as it always does.
    assert_signing_burst_completes(net);
}

#[test]
fn group_agreement_n7_snapshots() {
    let config = DkgConfig::standard(N, 0).expect("standard parameters");
    let mut net = EndpointNet::new(DELAY, 71);
    let add = GroupChange::AddNode {
        node: 8,
        adjustment: ParameterAdjustment::None,
    };
    assert_eq!(run_group_agreement(&mut net, &config, 1, 1, add).len(), N);
    // A second proposal in the same era, so the images hold two keys.
    let remove = GroupChange::RemoveNode {
        node: 7,
        adjustment: ParameterAdjustment::Threshold,
    };
    net.schedule_mod_input(2, 1, GroupModInput::Propose(remove), net.now());
    net.run();
    let (_, digests) = endpoint_images(&net);
    assert_eq!(digests, GROUP_AGREEMENT);
}

#[test]
fn standalone_vss_n7_digest_mid_sharing_snapshots() {
    let config = VssConfig::standard_with_mode(N, 0, CommitmentMode::Digest).expect("valid");
    let session = SessionId::new(1, 0);
    let mut rng = StdRng::seed_from_u64(62);
    let (secrets, directory) = generate_keyring(&mut rng, N);
    let directory = Arc::new(directory);
    let mut net = EndpointNet::new(DELAY, 62);
    for node in 1..=N as u64 {
        let signing = SigningContext {
            key: secrets[&node],
            directory: Arc::clone(&directory),
        };
        let vss = VssNode::new(node, config.clone(), session, 6200 + node, Some(signing));
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        endpoint
            .add_vss_session(vss)
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }
    let secret = Scalar::from_u64(1910);
    net.schedule_vss_input(1, session, VssInput::Share { secret }, 0);
    net.run_until(MID_SHARING);
    let (images, digests) = endpoint_images(&net);
    assert!(
        any_state(&images, |state| matches!(
            state,
            SessionStateSnapshot::Vss { snapshot, .. } if !snapshot.pending.is_empty()
        )),
        "points buffered ahead of the dealer's send"
    );
    assert_eq!(digests, VSS_DIGEST_MID_SHARING);
}

#[test]
fn renewal_epoch_n7_snapshots() {
    let setup = setup(CommitmentMode::Digest, 2010);
    let (phase0, _) = run_initial_phase(&setup, DELAY);
    assert_eq!(phase0.len(), N, "every node completes the DKG");
    let options = RenewalOptions {
        delay: DELAY,
        ..RenewalOptions::default()
    };
    let (phase1, net) = run_renewal_phase(&setup, &phase0, 1, &options).expect("renewal runs");
    assert_eq!(phase1.len(), N, "every node renews its share");
    let (images, digests) = endpoint_images(&net);
    assert!(
        images
            .iter()
            .flat_map(|image| &image.sessions)
            .all(|session| matches!(
                &session.state,
                SessionStateSnapshot::Dkg(dkg) if dkg.completed.is_some()
            )),
        "every image holds its renewed result, whole matrix included"
    );
    assert_eq!(digests, RENEWAL_SNAPSHOTS);
}

#[test]
fn fleet_determinism_plan_transcript() {
    use dkg_fleet::{run_fleet, FleetOptions, FleetPlan};
    let report = run_fleet(&FleetPlan::determinism(0xE9_0C4), &FleetOptions::default());
    assert_eq!(hex(&report.transcript_digest), FLEET_DETERMINISM);
}

#[test]
fn store_backed_dkg_snapshots_and_stores() {
    let setup = setup(CommitmentMode::Full, 404);
    let mut net = EndpointNet::new(DELAY, setup.seed);
    let mut stores = Vec::new();
    for &node in &setup.config.vss.nodes {
        let store = StoreHandle::in_memory();
        stores.push(store.clone());
        let config = EndpointConfig {
            store: Some(store),
            // Never compact: the store ends the run holding the snapshot of
            // the session's addition and every input since.
            wal_compact_bytes: u64::MAX,
            ..EndpointConfig::default()
        };
        let mut endpoint = Endpoint::new(node, config);
        endpoint
            .add_dkg_session(setup.build_node(node, 0))
            .expect("fresh endpoint has no session");
        net.add_endpoint(endpoint);
    }
    net.record_transcript();
    run_dkg(&setup, &mut net);

    let mut snapshots = Vec::new();
    let mut held = Vec::new();
    for (&node, store) in setup.config.vss.nodes.iter().zip(&stores) {
        let snapshot = net.endpoint(node).and_then(Endpoint::snapshot);
        snapshots.push(hex(&sha256(&snapshot.expect("quiescent").to_bytes())));
        let state = store.load().expect("mem store loads");
        assert!(!state.wal.is_empty() && !state.torn_tail);
        let mut bytes = state.snapshot.expect("snapshot installed");
        for record in &state.wal {
            record.encode_to(&mut bytes);
        }
        held.push(hex(&sha256(&bytes)));
    }
    assert_eq!(snapshots, SNAPSHOTS);
    assert_eq!(held, STORES);
}
