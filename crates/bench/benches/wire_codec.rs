//! Encode/decode throughput of the canonical wire codec.
//!
//! The endpoint stack pays one encode per send and one decode per receive,
//! so codec throughput bounds how fast a node can turn over protocol
//! traffic. This bench measures, for the three dominant message shapes
//! (the matrix-carrying VSS `send`, the digest-mode `echo`, and the
//! proof-carrying DKG leader `send`), at t ∈ {1, 3, 7}:
//!
//! * `encode` — canonical encoding into a fresh buffer,
//! * `decode` — full validating decode (curve points, canonical scalars),
//! * the achieved **bytes/sec** for each, printed explicitly.
//!
//! Wall-clock baselines are written to
//! `target/criterion/wire_codec/baseline.json` (like `batch_verify`) so
//! later codec-optimisation PRs have machine-readable numbers to diff
//! against.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkg_arith::{PrimeField, Scalar};
use dkg_core::{DealerProof, DkgMessage, Justification, Proposal};
use dkg_crypto::SigningKey;
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_vss::{CommitmentRef, ReadyWitness, SessionId, VssMessage};
use dkg_wire::{WireDecode, WireEncode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THRESHOLDS: [usize; 3] = [1, 3, 7];

fn sample_vss_send(t: usize, rng: &mut StdRng) -> VssMessage {
    let secret = Scalar::random(rng);
    let poly = SymmetricBivariate::random_with_secret(rng, t, secret);
    VssMessage::Send {
        session: SessionId::new(1, 0),
        commitment: CommitmentMatrix::commit(&poly),
        row: poly.row(2),
    }
}

fn sample_vss_echo(rng: &mut StdRng) -> VssMessage {
    VssMessage::Echo {
        session: SessionId::new(1, 0),
        commitment: CommitmentRef::Digest([7u8; 32]),
        point: Scalar::random(rng),
    }
}

fn sample_dkg_send(t: usize, rng: &mut StdRng) -> DkgMessage {
    let n = 3 * t + 1;
    let key = SigningKey::generate(rng);
    let signature = key.sign(rng, b"bench");
    let proofs: Vec<DealerProof> = (1..=n as u64)
        .map(|dealer| DealerProof {
            dealer,
            commitment_digest: [9u8; 32],
            witnesses: (1..=(n - t) as u64)
                .map(|node| ReadyWitness { node, signature })
                .collect(),
        })
        .collect();
    DkgMessage::Send {
        tau: 0,
        rank: 0,
        proposal: Proposal::new((1..=n as u64).collect()),
        justification: Justification::ReadyProofs(proofs),
        lead_ch_certificate: Vec::new(),
    }
}

fn bench_encode_decode<M>(c: &mut Criterion, group_name: &str, make: impl Fn(usize) -> M)
where
    M: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let mut group = c.benchmark_group(group_name);
    group.sample_size(200);
    for &t in &THRESHOLDS {
        let message = make(t);
        let bytes = message.encode();
        // Sanity: the codec is lossless before we time it.
        assert_eq!(M::decode(&bytes).unwrap(), message);
        group.bench_with_input(BenchmarkId::new("encode", t), &message, |b, message| {
            b.iter(|| message.encode());
        });
        group.bench_with_input(BenchmarkId::new("decode", t), &bytes, |b, bytes| {
            b.iter(|| M::decode(bytes).unwrap());
        });
    }
    group.finish();
}

fn bench_vss_send(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let messages: Vec<VssMessage> = THRESHOLDS
        .iter()
        .map(|&t| sample_vss_send(t, &mut rng))
        .collect();
    bench_encode_decode(c, "wire_codec_vss_send", |t| {
        messages[THRESHOLDS.iter().position(|&x| x == t).unwrap()].clone()
    });
}

fn bench_vss_echo(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let message = sample_vss_echo(&mut rng);
    bench_encode_decode(c, "wire_codec_vss_echo", |_| message.clone());
}

fn bench_dkg_send(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let messages: Vec<DkgMessage> = THRESHOLDS
        .iter()
        .map(|&t| sample_dkg_send(t, &mut rng))
        .collect();
    bench_encode_decode(c, "wire_codec_dkg_send", |t| {
        messages[THRESHOLDS.iter().position(|&x| x == t).unwrap()].clone()
    });
}

fn rate_mb_per_s(total_bytes: u64, elapsed_ns: f64) -> f64 {
    total_bytes as f64 / (elapsed_ns / 1e9) / 1e6
}

fn throughput_of<M: WireEncode + WireDecode>(label: &str, message: &M) {
    let bytes = message.encode();
    let iters = 2_000u64;
    let start = Instant::now();
    for _ in 0..iters {
        let _ = std::hint::black_box(M::decode(std::hint::black_box(&bytes)));
    }
    let decode_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    for _ in 0..iters {
        let _ = std::hint::black_box(message.encode());
    }
    let encode_ns = start.elapsed().as_nanos() as f64;
    let moved = iters * bytes.len() as u64;
    println!(
        "{label}: {} bytes/frame, encode ~{:.0} MB/s, decode ~{:.1} MB/s",
        bytes.len(),
        rate_mb_per_s(moved, encode_ns),
        rate_mb_per_s(moved, decode_ns)
    );
}

/// Explicit bytes/sec numbers (the unit transport capacity planning wants),
/// plus the invariant that the counting sink (`encoded_len()`) is the exact
/// encoded length.
fn report_throughput(_c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let vss_send = sample_vss_send(3, &mut rng);
    let dkg_send = sample_dkg_send(3, &mut rng);
    assert_eq!(vss_send.encoded_len(), vss_send.encode().len());
    assert_eq!(dkg_send.encoded_len(), dkg_send.encode().len());
    throughput_of("vss-send(t=3)", &vss_send);
    throughput_of("dkg-send(t=3)", &dkg_send);
}

criterion_group!(
    codec,
    bench_vss_send,
    bench_vss_echo,
    bench_dkg_send,
    report_throughput
);
criterion_main!(codec);
