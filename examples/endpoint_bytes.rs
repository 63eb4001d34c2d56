//! The transport-integration story: a complete DKG driven **purely by
//! `&[u8]` datagrams** through the sans-I/O endpoint API, with a
//! hand-written event loop standing in for your transport (UDP sockets, a
//! TLS mesh, an async reactor, a message broker, …).
//!
//! The loop below is everything a real integration needs:
//!
//! 1. `poll_transmit()` — take encoded datagrams out and put them on the
//!    wire. Each is a self-contained versioned frame.
//! 2. `handle_datagram(from, bytes, now)` — feed received bytes in; the
//!    typed `Reject` (instead of a panic) on garbage means untrusted peers
//!    cannot take a node down.
//! 3. `poll_timeout()` / `handle_timeout(now)` — let the endpoint drive its
//!    protocol timers off your clock.
//! 4. `poll_event()` — protocol outcomes (here: `DKG-completed`).
//!
//! Run with: `cargo run --release --example endpoint_bytes`

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use dkg_core::{DkgInput, DkgOutput};
use dkg_engine::runner::SystemSetup;
use dkg_engine::{Endpoint, EndpointConfig, Event};

/// A datagram "on the wire" of our toy in-memory transport.
struct Packet {
    deliver_at: u64,
    from: u64,
    to: u64,
    bytes: Vec<u8>,
}

fn main() {
    let n = 5u64;
    let setup = SystemSetup::generate(n as usize, 0, 7);
    println!(
        "running a {}-node DKG (t = {}) purely over byte datagrams\n",
        n,
        setup.config.t()
    );

    // One endpoint per node, each hosting the τ = 0 DKG session.
    let mut endpoints: BTreeMap<u64, Endpoint> = BTreeMap::new();
    for node in 1..=n {
        let mut endpoint = Endpoint::new(node, EndpointConfig::default());
        endpoint
            .add_dkg_session(setup.build_node(node, 0))
            .expect("fresh endpoint");
        endpoints.insert(node, endpoint);
    }

    // The "transport": an in-memory packet queue with a 10 ms link delay and
    // a manual millisecond clock.
    let mut wire: Vec<Packet> = Vec::new();
    let mut now: u64 = 0;
    let link_delay = 10;

    // Kick every node off.
    for (_, endpoint) in endpoints.iter_mut() {
        endpoint
            .handle_dkg_input(0, DkgInput::Start, now)
            .expect("session exists");
    }

    let mut completed = 0usize;
    let mut datagrams = 0u64;
    let mut bytes_moved = 0u64;
    let mut public_key = None;

    while completed < n as usize {
        // 1. Drain every endpoint's outbox onto the wire.
        for (&node, endpoint) in endpoints.iter_mut() {
            while let Some(transmit) = endpoint.poll_transmit() {
                datagrams += 1;
                bytes_moved += transmit.payload.len() as u64;
                wire.push(Packet {
                    deliver_at: now + if transmit.to == node { 0 } else { link_delay },
                    from: node,
                    to: transmit.to,
                    bytes: transmit.payload,
                });
            }
        }

        // 2. Surface events (and stop once everyone has completed).
        for (&node, endpoint) in endpoints.iter_mut() {
            while let Some(event) = endpoint.poll_event() {
                if let Event::Dkg {
                    output: DkgOutput::Completed { commitment, .. },
                    ..
                } = event
                {
                    let pk = commitment.public_key();
                    completed += 1;
                    public_key.get_or_insert(pk);
                    assert_eq!(public_key, Some(pk), "all nodes agree on one key");
                    println!("t = {now:>4} ms  node {node} completed (key {pk})");
                }
            }
        }

        // 3. Advance the clock to the next thing that can happen: a packet
        //    delivery or a protocol timer.
        let next_delivery = wire.iter().map(|p| p.deliver_at).min();
        let next_timer = endpoints.values().filter_map(Endpoint::poll_timeout).min();
        now = match (next_delivery, next_timer) {
            (Some(d), Some(t)) => d.min(t),
            (Some(d), None) => d,
            (None, Some(t)) => t,
            (None, None) => break, // quiescent: nothing left to do
        };

        // 4. Deliver due packets as raw bytes and fire due timers.
        let mut pending = Vec::new();
        for packet in wire.drain(..) {
            if packet.deliver_at <= now {
                let endpoint = endpoints.get_mut(&packet.to).expect("known node");
                endpoint
                    .handle_datagram(packet.from, &packet.bytes, now)
                    .expect("well-formed peer traffic");
            } else {
                pending.push(packet);
            }
        }
        wire = pending;
        for (_, endpoint) in endpoints.iter_mut() {
            endpoint.handle_timeout(now);
        }
    }

    println!(
        "\nDKG finished at t = {now} ms: {datagrams} datagrams, {bytes_moved} bytes on the wire"
    );

    // A hostile peer cannot crash an endpoint: garbage in, typed error out.
    let victim = endpoints.get_mut(&1).expect("node 1");
    let reject = victim
        .handle_datagram(99, b"definitely not a valid frame", now)
        .unwrap_err();
    println!("garbage datagram refused with a typed rejection: {reject}");
}
