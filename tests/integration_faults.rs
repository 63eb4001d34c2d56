//! Fault-injection integration tests: Byzantine dealers, silent leaders,
//! crash-recovery and behaviour beyond the resilience bound — all running
//! through the sans-I/O `Endpoint` API, with Byzantine traffic injected as
//! raw encoded datagrams.

use dkg_arith::{PrimeField, Scalar};
use dkg_engine::runner::{run_dkg, run_vss};
use dkg_engine::{Endpoint, EndpointConfig, EndpointNet, SessionKey};
use dkg_sim::DelayModel;
use dkg_vss::faulty::equivocating_dealing;
use dkg_vss::{CommitmentMode, SessionId, VssConfig, VssInput, VssMessage, VssNode, VssOutput};
use dkg_wire::{encode_datagram, Header};
use std::collections::BTreeSet;

/// Honest-link delays of the DKG runs.
const WAN: DelayModel = DelayModel::Uniform { min: 10, max: 80 };

/// Builds a network of endpoints each hosting one VSS session.
fn vss_net(
    nodes: impl IntoIterator<Item = u64>,
    cfg: &VssConfig,
    session: SessionId,
    seed_base: u64,
    delay: DelayModel,
    net_seed: u64,
) -> EndpointNet {
    let mut net = EndpointNet::new(delay, net_seed);
    for i in nodes {
        let mut endpoint = Endpoint::new(i, EndpointConfig::default());
        endpoint
            .add_vss_session(VssNode::new(i, cfg.clone(), session, seed_base + i, None))
            .unwrap();
        net.add_endpoint(endpoint);
    }
    net
}

/// Frames a VSS message as the dealer's endpoint would.
fn vss_datagram(session: SessionId, message: &VssMessage) -> Vec<u8> {
    let key = SessionKey::Vss { session };
    encode_datagram(
        Header {
            protocol: key.protocol(),
            channel: key.channel(),
        },
        message,
    )
}

/// Runs one VSS sharing where the dealer equivocates between two secrets.
/// Consistency (Definition 3.1) demands that honest nodes never complete
/// with two different commitments. The faulty dealer's messages reach the
/// honest endpoints as raw encoded datagrams, exactly as a real Byzantine
/// peer's bytes would.
#[test]
fn equivocating_dealer_cannot_split_the_honest_nodes() {
    let n = 7usize;
    let cfg = VssConfig::standard(n, 0).unwrap();
    let session = SessionId::new(1, 0);

    // Honest nodes 2..=7 on endpoints; faulty dealer 1 scripted outside.
    let mut net = vss_net(
        2..=n as u64,
        &cfg,
        session,
        100,
        DelayModel::Uniform { min: 5, max: 50 },
        3,
    );
    let secrets = (Scalar::from_u64(111), Scalar::from_u64(222));
    for (to, message) in equivocating_dealing(&cfg, session, 9, secrets) {
        if to != 1 {
            net.inject_datagram(1, to, vss_datagram(session, &message), 0);
        }
    }
    net.run();
    // Honest nodes must not have completed with two different commitments:
    // the echo quorum ⌈(n+t+1)/2⌉ ensures at most one commitment can gather
    // enough support.
    let commitments: BTreeSet<Vec<u8>> = (2..=n as u64)
        .filter_map(|i| {
            net.endpoint(i)
                .and_then(|e| e.vss_session(session))
                .and_then(|node| node.commitment().map(|c| c.to_bytes()))
        })
        .collect();
    assert!(
        commitments.len() <= 1,
        "honest nodes split between commitments"
    );
}

#[test]
fn silent_byzantine_leader_does_not_block_the_dkg() {
    // Leader 1 is Byzantine-silent; the leader change (Fig. 3) must still
    // complete the protocol among the remaining nodes with one agreed key.
    let run = run_dkg(7, 0, &[1], &[], WAN, 2002);
    assert!(run.completions >= 6);
    assert_eq!(run.distinct_keys, 1);
    assert!(run.leader_changes > 0);
    assert!(run.net.metrics().kind("dkg-lead-ch").messages > 0);
}

#[test]
fn two_successive_faulty_leaders_are_tolerated() {
    let run = run_dkg(7, 0, &[1, 2], &[], WAN, 2003);
    assert!(run.completions >= 5);
    assert_eq!(run.distinct_keys, 1);
}

#[test]
fn beyond_the_byzantine_bound_safety_still_holds() {
    // 3 silent Byzantine nodes in a 7-node t = 2 system: liveness is lost,
    // but no two honest nodes ever output different keys.
    let run = run_dkg(7, 0, &[5, 6, 7], &[], WAN, 2004);
    assert!(run.distinct_keys <= 1);
    let honest: Vec<u64> = vec![1, 2, 3, 4];
    assert_eq!(run.completions_among(&honest), 0);
}

#[test]
fn crash_recovery_mid_sharing_still_completes_everywhere() {
    // Node 5 persists to stable storage (a crash really drops the
    // in-memory endpoint — recovery reconstructs it from the store), is
    // down from t = 20 to t = 1500, and runs the §5.3 recovery procedure
    // right after rebooting.
    let n = 7;
    let delay = DelayModel::Uniform { min: 10, max: 60 };
    let run = run_vss(n, 1, CommitmentMode::Full, delay, &[(5, 20, 1_500)], 8);
    assert_eq!(run.net.recoveries(), 1);
    let completed: BTreeSet<u64> = run.completions.iter().copied().collect();
    assert_eq!(
        completed.len(),
        n,
        "finally-up nodes (incl. the recovered one) all complete"
    );
    assert!(run.net.metrics().kind("vss-help").messages > 0);
}

#[test]
fn muted_node_cannot_block_reachable_quorums() {
    // With node 4 muted (its datagrams never leave the wire), quorums of 3
    // are still reachable in an n = 4, t = 1, f = 0 system, so the sharing
    // completes at the honest nodes.
    let n = 4;
    let cfg = VssConfig::standard(n, 0).unwrap();
    let session = SessionId::new(1, 0);
    let mut net = vss_net(1..=n as u64, &cfg, session, 0, DelayModel::default(), 4);
    net.mute(4);
    net.schedule_vss_input(
        1,
        session,
        VssInput::Share {
            secret: Scalar::from_u64(1),
        },
        0,
    );
    net.run();
    let completed = net
        .events()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                dkg_engine::Event::Vss {
                    output: VssOutput::Shared { .. },
                    ..
                }
            )
        })
        .count();
    assert!(completed >= 3);
}
