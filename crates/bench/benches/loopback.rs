//! What does the real socket path cost? A full n = 16 DKG where every
//! node is a thread with its own UDP socket on localhost — the same
//! protocol work as the `EndpointNet` benches, plus genuine framing, ARQ
//! tracking, kernel datagram I/O and retransmission timers.
//!
//! Wall-clock lands in `target/criterion/loopback/baseline.json` like
//! every other bench; an instrumented run also writes
//! `target/criterion/loopback/transport.json` with the datagram counts
//! and datagrams/sec, so transport-layer optimisation PRs have a number
//! to move.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use dkg_core::DkgInput;
use dkg_engine::runner::SystemSetup;
use dkg_engine::{Endpoint, EndpointConfig, SessionKey};
use dkg_net::{ArqConfig, NetConfig, NetStats, NodeDriver};

const N: usize = 16;
const F: usize = 1;
const SEED: u64 = 7;

/// One full DKG over localhost UDP, one thread per node. Returns the
/// transport counters summed over all nodes.
fn run_loopback() -> NetStats {
    let tau = 0;
    let setup = SystemSetup::generate(N, F, SEED);
    let nodes = setup.config.vss.nodes.clone();
    let sockets: Vec<UdpSocket> = nodes
        .iter()
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<_> = sockets
        .iter()
        .map(|s| s.local_addr().expect("addr"))
        .collect();
    let completed = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = nodes
        .iter()
        .zip(sockets)
        .map(|(&node, socket)| {
            let setup = setup.clone();
            let nodes = nodes.clone();
            let addrs = addrs.clone();
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || -> NetStats {
                let mut endpoint = Endpoint::new(node, EndpointConfig::default());
                endpoint
                    .add_dkg_session(setup.build_node(node, tau))
                    .expect("fresh endpoint");
                let config = NetConfig {
                    arq: ArqConfig {
                        rto_initial: 40,
                        ..ArqConfig::default()
                    },
                    idle_slice: 10,
                    ..NetConfig::default()
                };
                let mut driver = NodeDriver::new(endpoint, socket, config).expect("driver");
                for (&peer, &addr) in nodes.iter().zip(addrs.iter()) {
                    driver.set_peer(peer, addr);
                }
                driver
                    .handle_dkg_input(tau, DkgInput::Start)
                    .expect("start");
                let key = SessionKey::Dkg { tau };
                let mut counted = false;
                // Run until everyone completed: peers may still need this
                // node's retransmissions after its own finish.
                while completed.load(Ordering::SeqCst) < nodes.len() {
                    if !counted && driver.endpoint().is_complete(key) {
                        completed.fetch_add(1, Ordering::SeqCst);
                        counted = true;
                    }
                    driver.step().expect("step");
                }
                assert!(driver.endpoint().dkg_result(tau).is_some());
                driver.stats()
            })
        })
        .collect();

    let mut total = NetStats::default();
    for handle in handles {
        let stats = handle.join().expect("node thread");
        total.data_sent += stats.data_sent;
        total.data_received += stats.data_received;
        total.bytes_sent += stats.bytes_sent;
        total.bytes_received += stats.bytes_received;
        total.acks_sent += stats.acks_sent;
        total.loopback += stats.loopback;
    }
    total
}

fn bench_loopback(c: &mut Criterion) {
    let mut group = c.benchmark_group("loopback");
    group.sample_size(10);
    group.bench_function("socket_dkg_n16", |b| b.iter(run_loopback));
    group.finish();

    // One instrumented run for the transport-side numbers.
    let started = std::time::Instant::now();
    let stats = run_loopback();
    let wall_ms = started.elapsed().as_millis().max(1) as u64;
    let frames = stats.data_sent + stats.acks_sent;
    let datagrams_per_sec = frames * 1000 / wall_ms;
    let json = format!(
        "{{\n  \"n\": {N},\n  \"wall_ms\": {wall_ms},\n  \"data_frames\": {},\n  \
         \"ack_frames\": {},\n  \"bytes_sent\": {},\n  \"datagrams_per_sec\": {}\n}}\n",
        stats.data_sent, stats.acks_sent, stats.bytes_sent, datagrams_per_sec
    );
    let dir = std::path::Path::new("target/criterion/loopback");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("transport.json"), &json);
    println!("loopback transport (n = {N}): {json}");
}

criterion_group!(benches, bench_loopback);
criterion_main!(benches);
