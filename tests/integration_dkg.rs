//! End-to-end integration tests: full DKG runs across all crates
//! (arithmetic → commitments → VSS → agreement → wire codec → endpoint →
//! byte network), checking the properties of Definition 4.1 in the
//! fault-free and crash cases. Every run travels through the sans-I/O
//! `Endpoint` API as real encoded datagrams.

use dkg_arith::{GroupElement, Scalar};
use dkg_core::{DkgInput, DkgOutput};
use dkg_engine::runner::SystemSetup;
use dkg_engine::runner::{run_dkg, run_key_generation, run_vss};
use dkg_engine::Event;
use dkg_poly::interpolate_secret;
use dkg_sim::DelayModel;
use dkg_vss::CommitmentMode;

#[test]
fn dkg_liveness_agreement_consistency_without_faults() {
    let setup = SystemSetup::generate(4, 0, 1001);
    let (outcomes, net) = run_key_generation(&setup, DelayModel::Uniform { min: 5, max: 60 }, 0);
    // Liveness: all honest finally-up nodes complete.
    assert_eq!(outcomes.len(), 4);
    // All traffic round-tripped the codec without a single rejection.
    assert!(net.rejections().is_empty());
    // The network ran until its queue drained, past every node's leader
    // timeout: the timers stopped on completion (Fig. 2) never fired.
    assert_eq!(net.metrics().kind("dkg-lead-ch").messages, 0);
    // Agreement/consistency: a single public key, and any t+1 shares
    // reconstruct a secret matching it.
    let pk = outcomes[0].public_key;
    assert!(outcomes.iter().all(|o| o.public_key == pk));
    let t = setup.config.t();
    for subset in [[0usize, 1], [1, 2], [2, 3], [0, 3]] {
        let shares: Vec<(u64, Scalar)> = subset
            .iter()
            .map(|&i| (outcomes[i].node, outcomes[i].share))
            .collect();
        assert_eq!(shares.len(), t + 1);
        let secret = interpolate_secret(&shares).unwrap();
        assert_eq!(GroupElement::commit(&secret), pk);
    }
}

#[test]
fn dkg_shares_verify_against_the_commitment_matrix() {
    let setup = SystemSetup::generate(4, 0, 1002);
    let (outcomes, net) = run_key_generation(&setup, DelayModel::Constant(15), 0);
    assert_eq!(outcomes.len(), 4);
    for &node in &setup.config.vss.nodes {
        let result = net
            .endpoint(node)
            .unwrap()
            .dkg_result(0)
            .expect("completed")
            .clone();
        // g^{s_i} must equal the share commitment derived from C.
        assert_eq!(
            result.commitment.share_commitment(node),
            GroupElement::commit(&result.share)
        );
        assert_eq!(result.commitment.public_key(), result.public_key);
        assert!(result.dealers.len() > setup.config.t());
    }
}

#[test]
fn group_reconstruction_reveals_the_key_only_when_started() {
    let setup = SystemSetup::generate(4, 0, 1003);
    let mut net = dkg_engine::runner::build_dkg_net(&setup, 0, DelayModel::Constant(10));
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run();
    // No node knows the secret yet.
    assert!(net.events().iter().all(|r| !matches!(
        r.event,
        Event::Dkg {
            output: DkgOutput::Reconstructed { .. },
            ..
        }
    )));
    // After reconstruction every node learns the same secret, matching g^s.
    let now = net.now();
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Reconstruct, now + 5);
    }
    net.run();
    let values: Vec<Scalar> = net
        .events()
        .iter()
        .filter_map(|r| match r.event {
            Event::Dkg {
                output: DkgOutput::Reconstructed { value, .. },
                ..
            } => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(values.len(), 4);
    let pk = net.endpoint(1).unwrap().dkg_result(0).unwrap().public_key;
    assert!(values.iter().all(|v| GroupElement::commit(v) == pk));
}

#[test]
fn hybridvss_message_complexity_is_quadratic_and_dkg_cubic() {
    // The shape claims of §3/§4 at two sizes: messages grow ~quadratically
    // for one sharing and ~cubically for the full DKG — measured on real
    // datagrams through the endpoint stack.
    let delay = DelayModel::Uniform { min: 10, max: 80 };
    let small = run_vss(4, 0, CommitmentMode::Full, delay.clone(), &[], 11);
    let large = run_vss(10, 0, CommitmentMode::Full, delay.clone(), &[], 12);
    let vss_ratio =
        large.net.metrics().message_count() as f64 / small.net.metrics().message_count() as f64;
    let n_ratio_sq = (10.0f64 / 4.0).powi(2);
    assert!(
        vss_ratio > 0.5 * n_ratio_sq && vss_ratio < 2.0 * n_ratio_sq,
        "VSS message growth {vss_ratio} should track n^2 ({n_ratio_sq})"
    );

    let small = run_dkg(4, 0, &[], &[], delay.clone(), 13);
    let large = run_dkg(7, 0, &[], &[], delay, 14);
    let dkg_ratio =
        large.net.metrics().message_count() as f64 / small.net.metrics().message_count() as f64;
    let n_ratio_cube = (7.0f64 / 4.0).powi(3);
    assert!(
        dkg_ratio > 0.4 * n_ratio_cube && dkg_ratio < 2.5 * n_ratio_cube,
        "DKG message growth {dkg_ratio} should track n^3 ({n_ratio_cube})"
    );
}

#[test]
fn digest_mode_costs_fewer_bytes_than_full_mode() {
    let delay = DelayModel::Uniform { min: 10, max: 80 };
    let full = run_vss(10, 0, CommitmentMode::Full, delay.clone(), &[], 21);
    let digest = run_vss(10, 0, CommitmentMode::Digest, delay, &[], 22);
    assert_eq!(full.completions.len(), 10);
    assert_eq!(digest.completions.len(), 10);
    assert!(digest.net.metrics().byte_count() * 2 < full.net.metrics().byte_count());
}
