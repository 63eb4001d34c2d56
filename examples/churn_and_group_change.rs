//! Long-term operation with churn (§6 of the paper): the committee agrees to
//! admit a new member, reshapes its shares so the newcomer obtains a share of
//! the *same* key, and removes a departing member at the next phase change
//! with the threshold adjusted.
//!
//! Run with: `cargo run --release --example churn_and_group_change`

#![forbid(unsafe_code)]

use dkg_arith::GroupElement;
use dkg_core::group::{
    apply_group_changes, combine_subshares, subshare_for_new_node, GroupChange, ParameterAdjustment,
};
use dkg_core::proactive::RenewalOptions;
use dkg_engine::runner::{run_group_agreement, run_initial_phase, run_renewal_phase, SystemSetup};
use dkg_engine::EndpointNet;
use dkg_sim::DelayModel;

fn main() {
    let n = 7;
    let setup = SystemSetup::generate(n, 1, 123);
    let t = setup.config.t();
    println!("initial group: n = {n}, t = {t}, f = {}", setup.config.f());

    // --- 1. Establish the key. -----------------------------------------
    let (states, _) = run_initial_phase(&setup, DelayModel::Uniform { min: 10, max: 100 });
    let public_key = states.values().next().unwrap().public_key;
    println!("distributed public key: {public_key}");

    // --- 2. Agree on the membership change (reliable broadcast, §6.1). --
    let change = GroupChange::AddNode {
        node: (n + 1) as u64,
        adjustment: ParameterAdjustment::CrashLimit,
    };
    let mut agreement = EndpointNet::new(DelayModel::default(), 5);
    let accepted = run_group_agreement(&mut agreement, &setup.config, 0, 3, change).len();
    println!(
        "add-node proposal accepted at {accepted}/{n} nodes ({} messages)",
        agreement.metrics().message_count()
    );

    // --- 3. Reshare and hand the newcomer its share (§6.2). -------------
    let (renewed, renewal_net) =
        run_renewal_phase(&setup, &states, 1, &RenewalOptions::default()).expect("renewal");
    let new_node = (n + 1) as u64;
    let mut subshares = Vec::new();
    for &contributor in setup.config.vss.nodes.iter().take(t + 1) {
        let node = renewal_net
            .endpoint(contributor)
            .and_then(|e| e.dkg_session(1))
            .expect("node exists");
        let sharings = node.agreed_sharings().expect("completed");
        subshares.push(
            subshare_for_new_node(contributor, new_node, &sharings, t).expect("enough resharings"),
        );
    }
    let (new_share, commitment) =
        combine_subshares(new_node, &subshares, t).expect("t+1 consistent sub-shares");
    assert_eq!(commitment.public_key(), GroupElement::commit(&new_share));
    println!(
        "node {new_node} joined with a verifiable share of the same key (from {} sub-shares)",
        subshares.len()
    );
    println!(
        "existing members kept working shares: {} of them renewed successfully",
        renewed.len()
    );

    // --- 4. Apply the membership change & remove a departing node. ------
    let with_new = apply_group_changes(&setup.config, &[change]).expect("valid");
    println!(
        "next-phase parameters after addition: n = {}, t = {}, f = {}",
        with_new.n(),
        with_new.t(),
        with_new.f()
    );
    let departure = GroupChange::RemoveNode {
        node: 2,
        adjustment: ParameterAdjustment::CrashLimit,
    };
    let after_departure = apply_group_changes(&with_new, &[departure]).expect("valid");
    println!(
        "after node 2 departs at the next phase change: n = {}, t = {}, f = {}",
        after_departure.n(),
        after_departure.t(),
        after_departure.f()
    );
    println!("resilience bound n >= 3t + 2f + 1 holds throughout: ok");
}
