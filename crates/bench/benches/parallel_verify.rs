//! Multi-core dealing verification through the crypto-job pipeline.
//!
//! A node in an n-party DKG receives n dealer `send` messages and must
//! `verify-poly` each one — n independent [`CryptoJob`]s. This bench pushes
//! that workload (n ∈ {64, 256} dealings against a t = 10 commitment)
//! through [`InlineExecutor`] and [`ThreadPoolExecutor`] at 1/2/4/8
//! workers, printing wall-clock per configuration and writing the JSON
//! baseline (`target/criterion/parallel_verify/baseline.json`). Speedups
//! are recorded, not asserted.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkg_arith::{PrimeField, Scalar};
use dkg_engine::{Executor, InlineExecutor, ThreadPoolExecutor};
use dkg_poly::{CommitmentMatrix, CryptoJob, SymmetricBivariate, Univariate};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Committee threshold for the dealt polynomials (a mid-size committee;
/// per-job cost grows as (t+1)² group operations).
const THRESHOLD: usize = 10;
const SIZES: [usize; 2] = [64, 256];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One dealing: the (shared) commitment matrix and this node's row under it.
fn dealings(n: usize, seed: u64) -> Vec<(Arc<CommitmentMatrix>, Univariate)> {
    let mut rng = StdRng::seed_from_u64(seed);
    // One shared polynomial; each "dealer" sends the row for a distinct
    // receiver index, which is exactly the verify-poly workload without
    // paying n full commit() setups.
    let secret = Scalar::random(&mut rng);
    let poly = SymmetricBivariate::random_with_secret(&mut rng, THRESHOLD, secret);
    let commitment = Arc::new(CommitmentMatrix::commit(&poly));
    (1..=n as u64)
        .map(|i| (Arc::clone(&commitment), poly.row(i)))
        .collect()
}

fn jobs_for(dealings: &[(Arc<CommitmentMatrix>, Univariate)]) -> Vec<CryptoJob> {
    dealings
        .iter()
        .enumerate()
        .map(|(i, (matrix, row))| CryptoJob::VerifyPoly {
            matrix: Arc::clone(matrix),
            index: i as u64 + 1,
            row: row.clone(),
        })
        .collect()
}

/// Runs every job through the executor and asserts all dealings verify.
fn execute(executor: &mut dyn Executor, jobs: &[CryptoJob]) {
    for (id, job) in jobs.iter().enumerate() {
        executor.submit(id as u64, job.clone());
    }
    let outcomes = executor.drain();
    assert_eq!(outcomes.len(), jobs.len());
    assert!(outcomes.iter().all(|o| o.verdict.all_valid()));
}

fn bench_dealing_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_verify");
    group.sample_size(10);
    for &n in &SIZES {
        let jobs = jobs_for(&dealings(n, 7));
        group.bench_with_input(BenchmarkId::new("inline", n), &jobs, |b, jobs| {
            let mut executor = InlineExecutor::new();
            b.iter(|| execute(&mut executor, jobs));
        });
        for &workers in &WORKER_COUNTS {
            let mut executor = ThreadPoolExecutor::new(workers);
            group.bench_with_input(
                BenchmarkId::new(format!("workers{workers}"), n),
                &jobs,
                |b, jobs| {
                    b.iter(|| execute(&mut executor, jobs));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(parallel, bench_dealing_verification);
criterion_main!(parallel);
