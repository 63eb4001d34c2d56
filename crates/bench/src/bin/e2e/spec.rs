//! What the benchmark measures: the workload table, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics. `BENCHMARK.json`
//! at the repository root is [`benchmark_json`] verbatim (a test holds the
//! two together), and `e2e list` prints the same tables with the notes the
//! JSON has no room for.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 10;

/// Counters that repeat exactly at `--seed 7`, summed over the operations of
/// the workload's trace pass; `e2e check` asserts them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pinned {
    pub datagrams: u64,
    pub bytes: u64,
    pub group_ops: u64,
}

/// The seed the pinned counters belong to.
pub const PINNED_SEED: u64 = 7;

pub struct Workload {
    pub name: &'static str,
    /// One sentence: why this workload exists (≤ 200 characters).
    pub why: &'static str,
    /// What one timed operation is.
    pub operation: &'static str,
    /// Operations the trace pass covers.
    pub trace_ops: u64,
    /// `None` where the counts are not a property of the protocol: real
    /// sockets and timers (udp-dkg-n7), or no datagrams at all (recover-n13).
    pub pinned: Option<Pinned>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dkg-full-n13",
        why: "Fig. 1 as shipped (full commitments, n=13 t=4): decode- and arithmetic-heavy, so codec and point-decompression work shows here",
        operation: "one fresh DKG over EndpointNet, first Start to all 13 nodes completed",
        trace_ops: 1,
        pinned: Some(Pinned {
            datagrams: 4914,
            bytes: 4_379_752,
            group_ops: 3_268_893,
        }),
    },
    Workload {
        name: "dkg-digest-n13",
        why: "Same DKG with digest commitments: bypasses the codec bulk, so dkg-arith/dkg-poly dominate; a codec win must not move it",
        operation: "one fresh digest-mode DKG over EndpointNet",
        trace_ops: 1,
        pinned: Some(Pinned {
            datagrams: 4914,
            bytes: 877_734,
            group_ops: 3_268_893,
        }),
    },
    Workload {
        name: "renew-digest-n13",
        why: "Share renewal (sec. 5.2) of the DKG'd key: StartReshare, expected-commitment checks and interpolate-at-zero combining use the same layers differently",
        operation: "one renewal epoch (what run_renewal_phase does, default options) from the set-up DKG's states",
        trace_ops: 1,
        pinned: Some(Pinned {
            datagrams: 4914,
            bytes: 877_734,
            group_ops: 3_575_919,
        }),
    },
    Workload {
        name: "sign-single-n13",
        why: "One threshold-Schnorr request at a time on the DKG'd key: latency of a lone request through dkg-tss and many small datagrams; no VSS or codec bulk",
        operation: "one signing request, Sign input to the signature at every node",
        trace_ops: 110,
        pinned: Some(Pinned {
            datagrams: 5280,
            bytes: 714_340,
            group_ops: 1_982_531,
        }),
    },
    Workload {
        name: "sign-burst-n13",
        why: "Bursts of 8 requests at the same instant, coordinators round-robin: signing throughput, so batching that helps bursts but delays a lone request shows beside sign-single",
        operation: "one burst of 8 signing requests, first Sign input to the last signature",
        trace_ops: 12,
        pinned: Some(Pinned {
            datagrams: 4608,
            bytes: 623_424,
            group_ops: 1_730_656,
        }),
    },
    Workload {
        name: "recover-n13",
        why: "Crash recovery (sec. 5.3): reads of dkg-store plus decode plus replay through handle_datagram, where the DKG workloads only write; the fault-injection run of the set",
        operation: "Endpoint::restore of node 1 from its whole-session WAL, then from a compacted snapshot",
        trace_ops: 2,
        pinned: None,
    },
    Workload {
        name: "udp-dkg-n7",
        why: "The only run through dkg-net: framing, ARQ, kernel sockets and real timers on 127.0.0.1 (loopback, not a link); n=7 so transport shows beside protocol compute",
        operation: "one fresh full-mode DKG at n=7 over UDP, seven NodeDrivers stepped round-robin from one thread (idle_slice 1 ms, first retransmission timeout 2 s)",
        trace_ops: 2,
        pinned: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every end-to-end metric.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "wall time of the workload's operation with each of its steps (events of the simulated network, the two restores; one step elsewhere) at its fastest over the run's operations, which all do the same work: on a shared machine interference only ever adds time (simulated link delay costs none: processor time only)",
    },
    EndToEnd {
        name: "bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
        what: "median protocol bytes one operation moves: encoded datagrams sent (the paper's communication complexity), or store bytes read for recover-n13",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        what: "VmHWM of the workload's process at the end of the run",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "time to set the workload up, each step at its fastest over the run's set-ups like op_ms: fixed-base table and n=4 warm-up DKG, key generation, and the set-up DKG of the stateful workloads event by event",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload — and where
    /// the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every workload's trace pass reports every per-layer metric; one that does
/// not apply to a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // dkg-arith
    layer("arith.group_ops", "count", Lower, "exact per operation; op_ms on every simulated workload, most on dkg-digest-n13"),
    layer("arith.ns_per_group_op", "ns", Lower, "job busy time / job group ops; op_ms on dkg-digest-n13 (ops x ns is most of its wall), renew-digest-n13, sign-burst-n13"),
    layer("arith.field_mul_ns", "ns", Lower, "price list; everything below it"),
    layer("arith.group_add_ns", "ns", Lower, "price list; arith.ns_per_group_op"),
    layer("arith.point_decode_us", "us", Lower, "price list; op_ms on dkg-full-n13 and recover-n13; no change on dkg-digest-n13, sign-*"),
    layer("arith.fixed_base_mul_us", "us", Lower, "price list; dealing (core.input_busy_ms), signing nonces"),
    layer("arith.var_base_mul_us", "us", Lower, "price list; crypto.schnorr_verify_us"),
    layer("arith.multiexp256_us", "us", Lower, "price list; poly.point-batch.busy_ms"),
    // dkg-poly: one triple per CryptoJob kind
    layer("poly.point-batch.count", "count", Lower, "jobs run; op_ms on dkg-* and renew"),
    layer("poly.point-batch.busy_ms", "ms", Lower, "op_ms on dkg-full-n13, dkg-digest-n13, renew-digest-n13; no change on sign-*"),
    layer("poly.point-batch.group_ops", "count", Lower, "arith.group_ops"),
    layer("poly.verify-poly.count", "count", Lower, "jobs run"),
    layer("poly.verify-poly.busy_ms", "ms", Lower, "op_ms on dkg-* and renew"),
    layer("poly.verify-poly.group_ops", "count", Lower, "arith.group_ops"),
    layer("poly.signatures.count", "count", Lower, "jobs run"),
    layer("poly.signatures.busy_ms", "ms", Lower, "op_ms on dkg-* and renew (leader proposals)"),
    layer("poly.signatures.group_ops", "count", Lower, "arith.group_ops"),
    layer("poly.partial-sig-batch.count", "count", Lower, "jobs run; sign-* only"),
    layer("poly.partial-sig-batch.busy_ms", "ms", Lower, "op_ms on sign-single-n13 and sign-burst-n13 only; 0 on DKG workloads"),
    layer("poly.partial-sig-batch.group_ops", "count", Lower, "tss.group_ops_per_sig"),
    layer("poly.other.count", "count", Lower, "share-batch and vector-share-batch jobs (reconstruction paths; expected 0)"),
    layer("poly.other.busy_ms", "ms", Lower, "expected 0"),
    layer("poly.other.group_ops", "count", Lower, "expected 0"),
    // dkg-crypto
    layer("crypto.schnorr_sign_us", "us", Lower, "price list; poly.signatures.busy_ms"),
    layer("crypto.schnorr_verify_us", "us", Lower, "price list; poly.signatures.busy_ms"),
    layer("crypto.sha256_mb_s", "MB/s", Higher, "price list; dkg-digest-n13 mostly (commitment digests)"),
    // dkg-wire and the message codecs of vss/core/tss
    layer("wire.datagrams", "count", Lower, "bytes_per_op; exact per operation"),
    layer("wire.bytes", "bytes", Lower, "identical to bytes_per_op on the simulated workloads"),
    layer("wire.max_datagram_bytes", "bytes", Lower, "MTU pressure on udp-dkg-n7"),
    layer("wire.decode_busy_ms", "ms", Lower, "standalone decode of every delivered datagram; op_ms on dkg-full-n13 and recover-n13; no change on dkg-digest-n13, sign-*"),
    layer("wire.encode_busy_ms", "ms", Lower, "standalone re-encode; op_ms on dkg-full-n13"),
    layer("wire.decode_ns_per_byte", "ns/B", Lower, "wire.decode_busy_ms"),
    // dkg-vss / dkg-core: traffic per Transmit::kind
    layer("core.msgs.vss-send", "count", Lower, "bytes_per_op"),
    layer("core.msgs.vss-echo", "count", Lower, "bytes_per_op"),
    layer("core.msgs.vss-ready", "count", Lower, "bytes_per_op"),
    layer("core.msgs.dkg-send", "count", Lower, "bytes_per_op"),
    layer("core.msgs.dkg-echo", "count", Lower, "bytes_per_op"),
    layer("core.msgs.dkg-ready", "count", Lower, "bytes_per_op"),
    layer("core.msgs.dkg-lead-ch", "count", Lower, "expected 0 (no leader change)"),
    layer("core.bytes.vss-send", "bytes", Lower, "bytes_per_op"),
    layer("core.bytes.vss-echo", "bytes", Lower, "bytes_per_op; the O(n^4) term in full mode"),
    layer("core.bytes.vss-ready", "bytes", Lower, "bytes_per_op; the O(n^4) term in full mode"),
    layer("core.bytes.dkg-send", "bytes", Lower, "bytes_per_op"),
    layer("core.bytes.dkg-echo", "bytes", Lower, "bytes_per_op"),
    layer("core.bytes.dkg-ready", "bytes", Lower, "bytes_per_op"),
    layer("core.bytes.dkg-lead-ch", "bytes", Lower, "expected 0"),
    layer("core.leader_changes", "count", Lower, "expected 0 on every workload"),
    layer("core.input_busy_ms", "ms", Lower, "operator inputs (dealing, Sign); op_ms"),
    // dkg-tss
    layer("tss.msgs_per_sig", "count", Lower, "op_ms on sign-*; 0 elsewhere"),
    layer("tss.bytes_per_sig", "bytes", Lower, "bytes_per_op on sign-*"),
    layer("tss.group_ops_per_sig", "count", Lower, "op_ms on sign-*"),
    layer("tss.retries", "count", Lower, "nonce solicitations re-sent with a higher attempt; expected 0"),
    layer("tss.latency_tail_ms", "ms", Lower, "sign-single-n13 only: highest percentile of the untraced sample with ten samples beyond it (p90.9 of 110)"),
    // dkg-engine
    layer("engine.handle_datagram_busy_ms", "ms", Lower, "op_ms on every simulated workload"),
    layer("engine.self_ms", "ms", Lower, "handle_datagram minus the standalone decode: routing + state machines; moves sign-* more than DKG"),
    layer("engine.complete_job_busy_ms", "ms", Lower, "verdict apply stage; op_ms on dkg-* and renew"),
    layer("engine.apply_group_ops", "count", Lower, "group ops inside complete_job"),
    layer("engine.poll_transmit_busy_ms", "ms", Lower, "outbox drain"),
    layer("engine.jobs", "count", Lower, "crypto jobs handed out"),
    layer("engine.rejected", "count", Lower, "expected 0"),
    layer("engine.driver_overhead_ratio", "ratio", Lower, "EndpointNet wall / the benchmark's own loop, untraced, on the same operations"),
    layer("engine.pool_speedup", "ratio", Higher, "dkg-digest-n13 only: inline wall / ThreadPoolExecutor(min(cores, 2)) wall; this core count only"),
    layer("host.cores", "count", Higher, "available_parallelism, beside engine.pool_speedup"),
    // dkg-store (recover-n13)
    layer("store.wal_frames", "count", Lower, "op_ms on recover-n13"),
    layer("store.wal_bytes", "bytes", Lower, "bytes_per_op on recover-n13"),
    layer("store.snapshot_bytes", "bytes", Lower, "bytes_per_op on recover-n13"),
    layer("store.load_ms", "ms", Lower, "StoreHandle::load of the WAL store"),
    layer("store.wal_decode_ms", "ms", Lower, "standalone decode_wal"),
    layer("store.snapshot_decode_ms", "ms", Lower, "standalone EndpointSnapshot::from_bytes; restore_snapshot_ms"),
    layer("store.snapshot_encode_ms", "ms", Lower, "snapshot() + to_bytes(); every compaction pays it"),
    layer("store.restore_replay_ms", "ms", Lower, "op_ms on recover-n13 (first half)"),
    layer("store.restore_snapshot_ms", "ms", Lower, "op_ms on recover-n13 (second half)"),
    layer("store.replay_frames_per_s", "1/s", Higher, "store.restore_replay_ms"),
    layer("store.file_append_us", "us", Lower, "256 appends to a FileStore with real sync_data: this disk; recorded, never gated"),
    // dkg-net (udp-dkg-n7)
    layer("net.steps", "count", Lower, "NodeDriver::step calls"),
    layer("net.step_busy_ms", "ms", Lower, "time inside NodeDriver::step (socket waits included)"),
    layer("net.data_frames", "count", Lower, "first transmissions"),
    layer("net.ack_frames", "count", Lower, "op_ms on udp-dkg-n7"),
    layer("net.retransmits", "count", Lower, "op_ms on udp-dkg-n7 only"),
    layer("net.duplicates", "count", Lower, "received frames suppressed as duplicates"),
    layer("net.abandoned", "count", Lower, "expected 0 (a correctness gate)"),
    layer("net.bytes_sent", "bytes", Lower, "bytes on the sockets, retransmits and ACKs included"),
    layer("net.first_try_ratio", "ratio", Higher, "first transmissions / all DATA transmissions"),
    layer("net.amplification", "ratio", Lower, "socket bytes / protocol bytes addressed to peers"),
    layer("net.overhead_ratio", "ratio", Lower, "UDP wall / the same n=7 DKG on EndpointNet"),
    layer("net.io_errors", "count", Lower, "socket errors tolerated as losses"),
    layer("net.default_arq_op_ms", "ms", Lower, "the same DKGs at the default 60 ms first timeout (mean); recorded, not gated: swings with retransmission timing"),
    layer("net.default_arq_retransmits", "count", Lower, "retransmissions per DKG at the default 60 ms first timeout; spurious on loopback"),
    // the tracing itself
    layer("trace.overhead_ratio", "ratio", Lower, "traced wall net of standalone spans / untraced wall of the same loop; end-to-end metrics are always taken with tracing off"),
    layer("trace.spans", "count", Lower, "spans recorded"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "crates/bench/src/bin/e2e/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![text("crates/bench/src/bin/e2e")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// `e2e list`: every workload and metric, with the notes.
pub fn list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workloads (closed loop, one client, {RUN_SECONDS} s measured per run):"
    );
    for w in WORKLOADS {
        let _ = writeln!(
            out,
            "  {}\n    operation: {}\n    why: {}",
            w.name, w.operation, w.why
        );
        if let Some(p) = w.pinned {
            let _ = writeln!(
                out,
                "    pinned at --seed {PINNED_SEED}: {} datagrams, {} bytes, {} group ops over {} operations",
                p.datagrams, p.bytes, p.group_ops, w.trace_ops
            );
        }
    }
    let _ = writeln!(
        out,
        "\nend-to-end metrics (defined on every workload; --trace 0):"
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {} [{}] {} is better, may worsen by {}: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    let _ = writeln!(
        out,
        "\nper-layer metrics (--trace 1; 0 on workloads they do not apply to; no bound):"
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {} [{}] {} is better; moves: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let pinned = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            pinned,
            benchmark_json(),
            "BENCHMARK.json is out of date: regenerate it with `e2e list --json`"
        );
        assert!(pinned.len() <= 64 * 1024);
        let parsed = Json::parse(pinned).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn tables_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = Vec::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.trace_ops >= 1);
            names.push(w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }
}
