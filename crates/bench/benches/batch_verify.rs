//! Per-share vs batched commitment verification.
//!
//! The hottest path the paper identifies is the `Π_j C_j^{e_j}` product in
//! `verify-point` (Fig. 1), paid once per echo/ready/reconstruction share.
//! This bench compares, at n ∈ {16, 64, 256} shares against one commitment
//! matrix (t = 3):
//!
//! * `per_share`   — n independent `verify-point` multiexps over the
//!   `(t+1)²` entries (Fig. 1's reference predicate),
//! * `batched`     — the verifier's row projection of the matrix plus one
//!   RLC-folded multiexp over its `t + 1` entries (`dkg_poly::batch`),
//! * `per_share_sc` / `batched_sc` — the same comparison for the
//!   reconstruction-time `share_commitment` check.
//!
//! Besides wall-clock times (written to `target/criterion/batch_verify/
//! baseline.json` for future perf PRs to diff against), the bench asserts
//! the acceptance criterion in the paper's own cost unit: batched
//! verification of 256 shares must perform fewer group operations than 256
//! individual `verify-point` calls.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkg_arith::{ops, GroupElement, PrimeField, Scalar};
use dkg_poly::{verify_points_batch, verify_shares_batch, CommitmentMatrix, SymmetricBivariate};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THRESHOLD: usize = 3;
const VERIFIER: u64 = 5;
const SIZES: [u64; 3] = [16, 64, 256];

fn setup(rng: &mut StdRng) -> (SymmetricBivariate, CommitmentMatrix) {
    let secret = Scalar::random(rng);
    let poly = SymmetricBivariate::random_with_secret(rng, THRESHOLD, secret);
    let commitment = CommitmentMatrix::commit(&poly);
    (poly, commitment)
}

/// The `(m, f(m, VERIFIER))` claims of senders `1..=n`.
fn claims_for(poly: &SymmetricBivariate, n: u64) -> Vec<(u64, Scalar)> {
    (1..=n)
        .map(|m| {
            let value = poly.evaluate(Scalar::from_u64(m), Scalar::from_u64(VERIFIER));
            (m, value)
        })
        .collect()
}

fn bench_verify_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    let (poly, commitment) = setup(&mut rng);
    for &n in &SIZES {
        let claims = claims_for(&poly, n);
        group.bench_with_input(BenchmarkId::new("per_share", n), &claims, |b, claims| {
            b.iter(|| {
                assert!(claims
                    .iter()
                    .all(|&(m, alpha)| commitment.verify_point(VERIFIER, m, alpha)));
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &claims, |b, claims| {
            b.iter(|| {
                assert!(verify_points_batch(&commitment.project(VERIFIER), claims));
            });
        });
    }
    group.finish();
}

fn bench_share_commitment(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_verify_share_commitment");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let (poly, commitment) = setup(&mut rng);
    for &n in &SIZES {
        let shares: Vec<(u64, Scalar)> =
            (1..=n).map(|m| (m, poly.row(m).constant_term())).collect();
        group.bench_with_input(BenchmarkId::new("per_share_sc", n), &shares, |b, shares| {
            b.iter(|| {
                assert!(shares
                    .iter()
                    .all(|&(m, s)| { commitment.share_commitment(m) == GroupElement::commit(&s) }));
            });
        });
        group.bench_with_input(BenchmarkId::new("batched_sc", n), &shares, |b, shares| {
            b.iter(|| {
                assert!(verify_shares_batch(&commitment, shares));
            });
        });
    }
    group.finish();
}

/// The acceptance criterion, asserted in group operations rather than time:
/// batched verification of 256 shares performs fewer group operations than
/// 256 individual `verify-point` calls.
fn assert_group_op_reduction(_c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let (poly, commitment) = setup(&mut rng);
    let claims = claims_for(&poly, 256);
    let _ = GroupElement::commit(&Scalar::one()); // warm the fixed-base table
    let (ok, individual) = ops::measure(|| {
        claims
            .iter()
            .all(|&(m, alpha)| commitment.verify_point(VERIFIER, m, alpha))
    });
    assert!(ok);
    let (ok, batched) =
        ops::measure(|| verify_points_batch(&commitment.project(VERIFIER), &claims));
    assert!(ok);
    assert!(
        batched.total() < individual.total(),
        "batched 256-share verification must use fewer group ops \
         (batched {}, individual {})",
        batched.total(),
        individual.total()
    );
    println!(
        "group ops for 256 shares: per-share {} vs batched {} ({:.1}x reduction)",
        individual.total(),
        batched.total(),
        individual.total() as f64 / batched.total() as f64
    );
}

criterion_group!(
    batch,
    bench_verify_point,
    bench_share_commitment,
    assert_group_op_reduction
);
criterion_main!(batch);
