//! Minimal parallel-map facade for the arithmetic hot loops.
//!
//! The workspace already parallelises *across* crypto jobs (the
//! `ThreadPoolExecutor` in `dkg-engine`), but one *big* multi-exponentiation
//! — a large reconstruction or signing batch — used to run
//! on a single core no matter how many were available. This module is the
//! seam that lets `dkg-arith` split such a computation across OS threads
//! while staying engine-independent: plain `std::thread::scope`, no
//! dependencies, nothing to configure for sequential callers.
//!
//! Three properties the rest of the workspace relies on:
//!
//! * **Bit-identical results.** [`parallel_map`] preserves input order and
//!   the group law is exact, so a computation split over any worker count
//!   produces exactly the bytes the sequential path produces — transcripts
//!   do not change (asserted by the determinism suites).
//! * **Accurate op counters.** Each worker's thread-local group-operation
//!   counters ([`crate::ops`]) are measured and merged into the calling
//!   thread on join, so `ops::measure` around a parallel region reports the
//!   total work, exactly as if it had run sequentially.
//! * **No nested fan-out.** Work executed inside [`parallel_map`] (and
//!   inside [`sequential`]) sees a worker override of 1, so a parallel
//!   region cannot recursively spawn its own parallel regions, and an
//!   executor already running one job per core can pin the arithmetic
//!   beneath it to one thread.
//!
//! Environment knobs (read once per process):
//!
//! * `DKG_MULTIEXP_WORKERS` — worker count for parallel arithmetic
//!   (falls back to `DKG_WORKERS`, then to the machine's available
//!   parallelism).
//! * `DKG_MULTIEXP_PAR_THRESHOLD` — minimum multiexp size (points) before
//!   the parallel path engages (default 256; below it, scoped-thread
//!   dispatch costs more than it saves and job-level parallelism in the
//!   engine is the better use of the cores).

use std::cell::Cell;
use std::sync::OnceLock;

use crate::ops;

/// Default for `DKG_MULTIEXP_PAR_THRESHOLD`: multiexps smaller than this
/// many points stay sequential unless a caller forces otherwise with
/// [`with_workers`].
pub const DEFAULT_PAR_THRESHOLD: usize = 256;

thread_local! {
    /// Per-thread worker override installed by [`with_workers`] /
    /// [`sequential`]; `None` means "decide from size and environment".
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count parallel arithmetic uses when it engages:
/// `DKG_MULTIEXP_WORKERS`, else `DKG_WORKERS`, else available parallelism
/// (at least 1). Read once per process.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let parse = |value: Result<String, std::env::VarError>| {
            value
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&w| w > 0)
        };
        parse(std::env::var("DKG_MULTIEXP_WORKERS"))
            .or_else(|| parse(std::env::var("DKG_WORKERS")))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    })
}

/// The auto-parallelisation threshold in multiexp points:
/// `DKG_MULTIEXP_PAR_THRESHOLD`, default [`DEFAULT_PAR_THRESHOLD`]. Read
/// once per process.
pub fn par_threshold() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("DKG_MULTIEXP_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_PAR_THRESHOLD)
    })
}

/// The worker override installed on this thread, if any.
pub fn worker_override() -> Option<usize> {
    WORKER_OVERRIDE.with(Cell::get)
}

/// Runs `f` with the parallel-arithmetic worker count pinned to `workers`
/// on this thread (restored afterwards, panic-safe). `with_workers(1, f)`
/// forces every multiexp inside `f` onto the sequential path regardless of
/// size; larger counts force the parallel path even for small inputs
/// (which the bit-identity tests use to cover tiny parallel splits).
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(WORKER_OVERRIDE.with(|c| c.replace(Some(workers.max(1)))));
    f()
}

/// Runs `f` with parallel arithmetic disabled on this thread. Executors
/// that already schedule one job per core wrap job execution in this so
/// the arithmetic beneath a job never over-subscribes the machine.
pub fn sequential<T>(f: impl FnOnce() -> T) -> T {
    with_workers(1, f)
}

/// Maps `f` over `items` across up to `workers` scoped OS threads,
/// returning the results in input order.
///
/// The item list is split into `min(workers, items.len())` contiguous
/// chunks; the calling thread processes the first chunk itself while the
/// rest run on spawned threads, so `workers = 4` means four threads
/// *total*, not four plus the caller. Each spawned worker runs under
/// [`sequential`] (no nested fan-out) and has its group-op counters merged
/// into the caller on join. With `workers <= 1` or fewer than two items
/// the whole map runs inline on the caller — the two paths are
/// bit-identical, differing only in wall-clock.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Contiguous chunks, sized as evenly as possible (the first `extra`
    // chunks take one more item).
    let len = items.len();
    let base = len / workers;
    let extra = len % workers;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut it = items.into_iter();
    for w in 0..workers {
        let take = base + usize::from(w < extra);
        chunks.push(it.by_ref().take(take).collect());
    }

    let f = &f;
    let mut own_chunk = chunks.remove(0);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    ops::measure(|| sequential(|| chunk.into_iter().map(f).collect::<Vec<R>>()))
                })
            })
            .collect();
        // The caller takes the first chunk; its ops land on this thread's
        // counters directly.
        results.push(sequential(|| own_chunk.drain(..).map(f).collect()));
        for handle in handles {
            let (chunk_results, chunk_ops) = handle.join().expect("parallel-map worker panicked");
            ops::merge(chunk_ops);
            results.push(chunk_results);
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ProjectivePoint;

    #[test]
    fn preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [0usize, 1, 2, 3, 8, 23, 64] {
            assert_eq!(
                parallel_map(items.clone(), workers, |x| x * x),
                expected,
                "workers = {workers}"
            );
        }
        assert!(parallel_map(Vec::<u64>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn merges_worker_op_counters_into_caller() {
        let g = ProjectivePoint::generator();
        let doubles_per_item = 3u64;
        let items: Vec<u64> = (0..8).collect();
        let (_, counted) = ops::measure(|| {
            parallel_map(items, 4, |_| {
                let mut p = g;
                for _ in 0..doubles_per_item {
                    p = p.double();
                }
                p.to_affine()
            })
        });
        assert_eq!(counted.doubles, 8 * doubles_per_item);
    }

    #[test]
    fn with_workers_installs_and_restores_override() {
        assert_eq!(worker_override(), None);
        let inner = with_workers(4, || {
            let outer = worker_override();
            let nested = sequential(worker_override);
            (outer, nested)
        });
        assert_eq!(inner, (Some(4), Some(1)));
        assert_eq!(worker_override(), None);
    }

    #[test]
    fn spawned_workers_run_sequentially() {
        let overrides = parallel_map((0..4).collect::<Vec<u32>>(), 4, |_| worker_override());
        // Every chunk executes under `sequential`, caller included.
        assert!(overrides.iter().all(|&o| o == Some(1)));
    }
}
