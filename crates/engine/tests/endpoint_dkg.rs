//! End-to-end DKG runs through the sans-I/O `Endpoint` poll API: the
//! acceptance run at n = 16, share consistency, byte-measured metrics and
//! endpoint bookkeeping.

use dkg_arith::{GroupElement, Scalar};
use dkg_core::group::{GroupChange, ParameterAdjustment};
use dkg_core::DkgConfig;
use dkg_engine::runner::{run_dkg, run_group_agreement, run_key_generation, run_vss, SystemSetup};
use dkg_engine::{EndpointNet, EventRecord, SessionKey};
use dkg_poly::interpolate_secret;
use dkg_sim::DelayModel;
use dkg_vss::CommitmentMode;

#[test]
fn sixteen_node_dkg_completes_through_the_endpoint_api() {
    // The acceptance criterion: a full n = 16 DKG, every message a real
    // encoded datagram, completes end to end through the poll API.
    let setup = SystemSetup::generate(16, 1, 1601);
    let (outcomes, net) = run_key_generation(&setup, DelayModel::Uniform { min: 5, max: 40 }, 0);
    assert_eq!(outcomes.len(), 16);
    let pk = outcomes[0].public_key;
    assert!(outcomes.iter().all(|o| o.public_key == pk));
    // Any t+1 shares reconstruct the secret behind the public key.
    let t = setup.config.t();
    let shares: Vec<(u64, Scalar)> = outcomes
        .iter()
        .take(t + 1)
        .map(|o| (o.node, o.share))
        .collect();
    let secret = interpolate_secret(&shares).unwrap();
    assert_eq!(GroupElement::commit(&secret), pk);
    // All traffic was well-formed: zero rejections, byte counts measured
    // from real encodings.
    assert!(net.rejections().is_empty());
    assert!(net.metrics().message_count() > 0);
    assert!(net.metrics().byte_count() > net.metrics().message_count());
}

#[test]
fn endpoint_metrics_match_network_metrics() {
    let setup = SystemSetup::generate(4, 0, 77);
    let (outcomes, net) = run_key_generation(&setup, DelayModel::Constant(20), 0);
    assert_eq!(outcomes.len(), 4);
    // The sum of per-session bytes-out across endpoints equals the bytes the
    // network counted (every datagram originates in exactly one session).
    let key = SessionKey::Dkg { tau: 0 };
    let total_out: u64 = net
        .node_ids()
        .iter()
        .map(|&id| {
            net.endpoint(id)
                .unwrap()
                .session_stats(key)
                .unwrap()
                .bytes_out
        })
        .sum();
    assert_eq!(total_out, net.metrics().byte_count());
    // Completion is recorded per session.
    for id in net.node_ids() {
        let endpoint = net.endpoint(id).unwrap();
        assert!(endpoint.is_complete(key));
        assert!(endpoint.session_stats(key).unwrap().completed_at.is_some());
        assert!(endpoint.dkg_result(0).is_some());
    }
}

#[test]
fn endpoint_shares_verify_against_the_commitment_matrix() {
    let setup = SystemSetup::generate(4, 0, 1002);
    let (_, net) = run_key_generation(&setup, DelayModel::Constant(15), 0);
    for &node in &setup.config.vss.nodes {
        let result = net
            .endpoint(node)
            .unwrap()
            .dkg_result(0)
            .expect("completed")
            .clone();
        assert_eq!(
            result.commitment.share_commitment(node),
            GroupElement::commit(&result.share)
        );
        assert_eq!(result.commitment.public_key(), result.public_key);
        assert!(result.dealers.len() > setup.config.t());
    }
}

#[test]
fn standalone_vss_runs_over_endpoints() {
    let run = run_vss(
        7,
        0,
        CommitmentMode::Full,
        DelayModel::Uniform { min: 10, max: 80 },
        &[],
        42,
    );
    assert_eq!(run.completions.len(), 7);
    // Message complexity sanity: n sends, n² echoes.
    assert_eq!(run.net.metrics().kind("vss-send").messages, 7);
    assert_eq!(run.net.metrics().kind("vss-echo").messages, 49);
    assert!(run.net.rejections().is_empty());
}

#[test]
fn digest_mode_still_saves_bytes_on_the_wire() {
    let delay = DelayModel::Constant(10);
    let full = run_vss(10, 0, CommitmentMode::Full, delay.clone(), &[], 21);
    let digest = run_vss(10, 0, CommitmentMode::Digest, delay, &[], 22);
    assert_eq!(full.completions.len(), 10);
    assert_eq!(digest.completions.len(), 10);
    assert!(digest.net.metrics().byte_count() * 2 < full.net.metrics().byte_count());
}

#[test]
fn dkg_completes_with_crashed_leader_via_leader_change() {
    // The initial leader (node 1) is crashed from the start; the protocol
    // must complete under a later leader.
    let n = 7;
    let delay = DelayModel::Uniform { min: 10, max: 100 };
    let run = run_dkg(n, 1, &[], &[1], delay, 17);
    // All uncrashed nodes complete, on one key.
    assert_eq!(run.completions, n - 1);
    assert_eq!(run.distinct_keys, 1);
    // At least one leader change happened.
    assert!(run.leader_changes > 0);
    assert!(run.net.metrics().kind("dkg-lead-ch").messages > 0);
}

#[test]
fn group_modification_agreement_accepts_proposals_everywhere() {
    let config = DkgConfig::standard(4, 0).unwrap();
    let change = GroupChange::AddNode {
        node: 5,
        adjustment: ParameterAdjustment::None,
    };
    let mut net = EndpointNet::new(DelayModel::Uniform { min: 5, max: 50 }, 3);
    let accepted = run_group_agreement(&mut net, &config, 0, 2, change);
    assert_eq!(accepted.len(), 4);
    let agreement = net.endpoint(1).unwrap().mod_session(0).unwrap();
    assert_eq!(agreement.accepted(), &[change]);
    assert!(net.rejections().is_empty());
}

#[test]
fn an_event_record_fits_in_136_bytes() {
    // `EndpointNet` keeps every event of a run and the benchmark harness
    // reads them all at the end — 13 records per signature — so a record's
    // size is retained memory per operation, and a faster signer shows more
    // of it (ROADMAP, aim 1, re-pin item (f)). `DkgOutput::Completed` carries
    // no public key of its own for that reason: the key is the matrix's
    // `C_00`, `commitment.public_key()`.
    let size = std::mem::size_of::<EventRecord>();
    assert!(size <= 136, "EventRecord is {size} bytes");
}
