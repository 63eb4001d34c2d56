//! Raw multi-exponentiation floor: Pippenger, plus the batched-inversion
//! paths that feed it.
//!
//! The protocol benches (`batch_verify`, `parallel_verify`) measure the
//! arithmetic through the job pipeline; this bench isolates the floor
//! itself so window-tuning changes show up undiluted:
//!
//! * `multiexp/seq` — one n-term multiexp (n ∈ {64, 256, 1024}),
//! * `multiexp_batch_invert` — Montgomery-trick batch inversion vs n
//!   independent Fermat inversions (n = 256 scalars),
//! * `multiexp_batch_affine` — `batch_to_affine` vs n per-point
//!   normalisations (n = 256 projective points).
//!
//! Besides the per-group Criterion baselines, a machine-readable summary
//! (group-op counts, best wall-clock per size, core count) is written
//! to `target/criterion/multiexp/summary.json`; CI uploads it and the
//! repo pins a copy as `BENCH_multiexp.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkg_arith::{
    multiexp, ops, pippenger_window, Fp, GroupElement, PrimeField, ProjectivePoint, Scalar,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 3] = [64, 256, 1024];
const INVERT_SIZE: usize = 256;

fn instance(n: usize, seed: u64) -> (Vec<GroupElement>, Vec<Scalar>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
    let points: Vec<GroupElement> = (0..n)
        .map(|_| GroupElement::commit(&Scalar::random(&mut rng)))
        .collect();
    (points, scalars)
}

fn bench_multiexp(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiexp");
    group.sample_size(10);
    for &n in &SIZES {
        let input = instance(n, n as u64);
        group.bench_with_input(
            BenchmarkId::new("seq", n),
            &input,
            |b, (points, scalars)| {
                b.iter(|| multiexp(points, scalars));
            },
        );
    }
    group.finish();
}

fn bench_batch_invert(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiexp_batch_invert");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(42);
    let scalars: Vec<Scalar> = (0..INVERT_SIZE).map(|_| Scalar::random(&mut rng)).collect();
    group.bench_with_input(
        BenchmarkId::new("per_element", INVERT_SIZE),
        &scalars,
        |b, scalars| {
            b.iter(|| scalars.iter().map(Scalar::invert).collect::<Vec<_>>());
        },
    );
    group.bench_with_input(
        BenchmarkId::new("montgomery", INVERT_SIZE),
        &scalars,
        |b, scalars| {
            b.iter(|| Scalar::batch_invert(scalars));
        },
    );
    group.finish();
}

fn bench_batch_affine(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiexp_batch_affine");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(43);
    // Doubled points have z != 1, so every normalisation pays a real
    // field inversion in the per-point path.
    let points: Vec<ProjectivePoint> = (0..INVERT_SIZE)
        .map(|_| {
            ProjectivePoint::generator()
                .mul_scalar(&Scalar::random(&mut rng))
                .double()
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("per_point", INVERT_SIZE),
        &points,
        |b, points| {
            b.iter(|| {
                points
                    .iter()
                    .map(ProjectivePoint::to_affine)
                    .collect::<Vec<_>>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched", INVERT_SIZE),
        &points,
        |b, points| {
            b.iter(|| ProjectivePoint::batch_to_affine(points));
        },
    );
    group.finish();
}

fn best_of(rounds: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("rounds > 0")
}

/// The machine-readable trajectory point: per size, the group-op total and
/// the best wall-clock, beside the host's core count.
fn write_summary(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rounds = 5;
    let mut entries = Vec::new();
    for &n in &SIZES {
        let (points, scalars) = instance(n, n as u64);
        let (_, op_count) = ops::measure(|| multiexp(&points, &scalars));
        let seq = best_of(rounds, || {
            multiexp(&points, &scalars);
        });
        println!("multiexp n={n}: {seq:?}");
        entries.push(format!(
            "{{\"n\":{n},\"window\":{},\"group_ops\":{},\"seq_best_ns\":{}}}",
            pippenger_window(n),
            op_count.total(),
            seq.as_nanos()
        ));
    }

    // Batched-inversion ratios ride along in the same summary.
    let mut rng = StdRng::seed_from_u64(42);
    let scalars: Vec<Scalar> = (0..INVERT_SIZE).map(|_| Scalar::random(&mut rng)).collect();
    let per = best_of(rounds, || {
        let _ = scalars.iter().map(Scalar::invert).collect::<Vec<_>>();
    });
    let batched = best_of(rounds, || {
        let _ = Scalar::batch_invert(&scalars);
    });
    let invert_ratio = per.as_secs_f64() / batched.as_secs_f64();
    println!(
        "batch_invert n={INVERT_SIZE}: per-element {per:?}, montgomery {batched:?} \
         ({invert_ratio:.2}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"multiexp\",\n  \"cores\": {cores},\n  \"sizes\": [\n    {}\n  ],\n  \
         \"batch_invert\": {{\"n\": {INVERT_SIZE}, \"per_element_ns\": {}, \
         \"montgomery_ns\": {}, \"speedup\": {invert_ratio:.3}}}\n}}\n",
        entries.join(",\n    "),
        per.as_nanos(),
        batched.as_nanos()
    );
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    let dir = target.join("criterion").join("multiexp");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("summary.json");
        if std::fs::write(&path, &json).is_ok() {
            println!("multiexp: summary written to {}", path.display());
        }
    }

    // Field-level sanity that rides every bench run: batch inversion must
    // agree with Fermat inversion on a mixed batch (including a zero).
    let mut mixed: Vec<Fp> = (0..8).map(|i| Fp::from_u64(i * 3 + 1)).collect();
    mixed.push(Fp::zero());
    assert!(Fp::batch_invert(&mixed)
        .iter()
        .zip(&mixed)
        .all(|(inv, v)| *inv == v.invert()));
}

criterion_group!(
    multiexp_floor,
    bench_multiexp,
    bench_batch_invert,
    bench_batch_affine,
    write_summary
);
criterion_main!(multiexp_floor);
