//! Multi-session multiplexing: one `Endpoint` per node running many
//! interleaved DKG sessions to completion — started and completed out of
//! order — plus eviction of completed sessions.

use dkg_arith::GroupElement;
use dkg_core::DkgInput;
use dkg_engine::runner::collect_outcomes;
use dkg_engine::runner::SystemSetup;
use dkg_engine::{Endpoint, EndpointConfig, EndpointNet, SessionKey};
use dkg_poly::interpolate_secret;
use dkg_sim::DelayModel;

const SESSIONS: u64 = 8;

/// Builds a network where every endpoint hosts `SESSIONS` concurrent DKG
/// sessions (τ = 0..SESSIONS).
fn build_multi_session_net(setup: &SystemSetup) -> EndpointNet {
    let mut net = EndpointNet::new(DelayModel::Uniform { min: 5, max: 60 }, setup.seed);
    for &node in &setup.config.vss.nodes {
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        for tau in 0..SESSIONS {
            endpoint
                .add_dkg_session(setup.build_node(node, tau))
                .unwrap();
        }
        net.add_endpoint(endpoint);
    }
    net
}

#[test]
fn eight_interleaved_dkg_sessions_complete_out_of_order() {
    let setup = SystemSetup::generate(4, 0, 8080);
    let mut net = build_multi_session_net(&setup);

    // Start sessions out of order and staggered, so the traffic of all eight
    // interleaves on the wire: higher-τ sessions start *earlier*.
    for (i, tau) in (0..SESSIONS).rev().enumerate() {
        for &node in &setup.config.vss.nodes {
            net.schedule_dkg_input(node, tau, DkgInput::Start, (i as u64) * 40);
        }
    }
    net.run();

    assert!(
        net.rejections().is_empty(),
        "all routed traffic well-formed"
    );

    // Every session completes at every node, each with its own key, and any
    // t+1 shares of a session reconstruct that session's secret.
    let t = setup.config.t();
    let mut keys = Vec::new();
    let mut completion_spans = Vec::new();
    for tau in 0..SESSIONS {
        let outcomes = collect_outcomes(&net, tau);
        assert_eq!(outcomes.len(), 4, "session {tau} completes everywhere");
        let pk = outcomes[0].public_key;
        assert!(outcomes.iter().all(|o| o.public_key == pk));
        let shares: Vec<_> = outcomes
            .iter()
            .take(t + 1)
            .map(|o| (o.node, o.share))
            .collect();
        let secret = interpolate_secret(&shares).unwrap();
        assert_eq!(GroupElement::commit(&secret), pk);
        keys.push(pk);
        completion_spans.push((
            tau,
            outcomes.iter().map(|o| o.completion_time).max().unwrap(),
        ));
    }
    // Independent sessions ⇒ independent keys.
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "sessions {i} and {j} share a key");
        }
    }
    // Sessions completed out of τ-order (the later-started low-τ sessions
    // finish last).
    completion_spans.sort_by_key(|&(_, t)| t);
    let completion_order: Vec<u64> = completion_spans.iter().map(|&(tau, _)| tau).collect();
    assert_ne!(
        completion_order,
        (0..SESSIONS).collect::<Vec<_>>(),
        "sessions should not complete in τ order"
    );

    // Interleaving on the wire: while the last session was still running,
    // some other session had already completed at some node.
    let first_completion = net
        .events()
        .iter()
        .find(|r| {
            matches!(
                r.event,
                dkg_engine::Event::Dkg {
                    output: dkg_core::DkgOutput::Completed { .. },
                    ..
                }
            )
        })
        .map(|r| r.time)
        .unwrap();
    let last_completion = completion_spans.last().unwrap().1;
    assert!(first_completion < last_completion);
}

#[test]
fn completed_sessions_are_evicted() {
    let setup = SystemSetup::generate(4, 0, 9090);
    let mut net = build_multi_session_net(&setup);
    for tau in 0..SESSIONS {
        for &node in &setup.config.vss.nodes {
            net.schedule_dkg_input(node, tau, DkgInput::Start, tau * 25);
        }
    }
    net.run();

    for &node in &setup.config.vss.nodes {
        let endpoint = net.endpoint_mut(node).unwrap();
        assert_eq!(endpoint.session_count(), SESSIONS as usize);
        let evicted = endpoint
            .evict_completed()
            .expect("store-less eviction cannot fail");
        assert_eq!(evicted.len(), SESSIONS as usize, "all sessions completed");
        // Eviction reports real traffic and completion times.
        for (key, stats) in &evicted {
            assert!(matches!(key, SessionKey::Dkg { .. }));
            assert!(stats.datagrams_in > 0);
            assert!(stats.bytes_out > 0);
            assert!(stats.completed_at.is_some());
        }
        assert_eq!(endpoint.session_count(), 0);
        assert_eq!(endpoint.stats().evicted, SESSIONS);
        // Datagrams for evicted sessions are now typed rejections, not
        // panics.
        assert!(endpoint.dkg_result(0).is_none());
    }

    // A straggler datagram for an evicted session is refused cleanly.
    let node = setup.config.vss.nodes[0];
    net.inject_datagram(99, node, vec![0u8; 64], net.now() + 1);
    net.run();
    assert!(!net.rejections().is_empty());
}

#[test]
fn sessions_can_be_added_while_others_run() {
    // Sessions need not exist up front: τ = 1 is added to each endpoint only
    // after τ = 0 has been driven partway, and both complete.
    let setup = SystemSetup::generate(4, 0, 4242);
    let mut net = EndpointNet::new(DelayModel::Constant(10), 1);
    for &node in &setup.config.vss.nodes {
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        endpoint.add_dkg_session(setup.build_node(node, 0)).unwrap();
        net.add_endpoint(endpoint);
    }
    for &node in &setup.config.vss.nodes {
        net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
    }
    net.run_until(25);
    // Mid-flight of τ = 0, open τ = 1 everywhere and start it.
    for &node in &setup.config.vss.nodes {
        net.endpoint_mut(node)
            .unwrap()
            .add_dkg_session(setup.build_node(node, 1))
            .unwrap();
        net.schedule_dkg_input(node, 1, DkgInput::Start, 30);
    }
    net.run();
    assert_eq!(collect_outcomes(&net, 0).len(), 4);
    assert_eq!(collect_outcomes(&net, 1).len(), 4);
}
