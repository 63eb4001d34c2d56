//! Pluggable execution of [`CryptoJob`]s.
//!
//! The [`Endpoint`](crate::Endpoint) hands out pending crypto work through
//! its job interface; an [`Executor`] decides *where* that work runs:
//!
//! * [`InlineExecutor`] — runs every job synchronously at `submit` time on
//!   the caller's thread. Zero overhead, fully deterministic, the right
//!   choice for tests, simulations and single-session deployments.
//! * [`ThreadPoolExecutor`] — a `std::thread` worker pool with a bounded
//!   submission queue (backpressure instead of unbounded buffering),
//!   default worker count from the `DKG_WORKERS` environment variable.
//!   Because [`CryptoJob::run`] is a pure function of the job, results are
//!   bit-identical to inline execution regardless of worker count or
//!   completion order; callers that need reproducible *protocol*
//!   transcripts simply apply verdicts in job-id order (which
//!   [`Executor::drain`] already returns).
//!
//! No external dependencies: the pool is plain `Mutex` + `Condvar`, so it
//! works in the offline build environment and adds nothing to the
//! dependency tree.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dkg_poly::{CryptoJob, CryptoVerdict};

/// A completed job: the id it was submitted under and its verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The id passed to [`Executor::submit`].
    pub id: u64,
    /// The deterministic result of [`CryptoJob::run`].
    pub verdict: CryptoVerdict,
}

/// Where crypto jobs run. Implementations must return every submitted
/// job's outcome from [`Executor::drain`], sorted by id, so drivers can
/// apply verdicts deterministically.
pub trait Executor: Send {
    /// Accepts a job for execution. May block when the executor's queue is
    /// bounded and full.
    fn submit(&mut self, id: u64, job: CryptoJob);

    /// Waits until every submitted job has completed and returns all
    /// outcomes not yet drained, sorted by id.
    fn drain(&mut self) -> Vec<JobOutcome>;

    /// A short label for reports and baselines.
    fn name(&self) -> &'static str;
}

/// Runs every job inline at `submit` time on the caller's thread.
#[derive(Debug, Default)]
pub struct InlineExecutor {
    completed: Vec<JobOutcome>,
}

impl InlineExecutor {
    /// Creates an inline executor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Executor for InlineExecutor {
    fn submit(&mut self, id: u64, job: CryptoJob) {
        self.completed.push(JobOutcome {
            id,
            verdict: job.run(),
        });
    }

    fn drain(&mut self) -> Vec<JobOutcome> {
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(|o| o.id);
        out
    }

    fn name(&self) -> &'static str {
        "inline"
    }
}

/// Shared state between the submitting thread and the workers.
struct PoolState {
    queue: VecDeque<(u64, CryptoJob)>,
    completed: Vec<JobOutcome>,
    /// Jobs submitted but not yet in `completed`.
    in_flight: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when queue space frees up or a job completes.
    progress: Condvar,
}

/// A `std::thread` worker pool with a bounded submission queue.
pub struct ThreadPoolExecutor {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
    worker_count: usize,
}

impl ThreadPoolExecutor {
    /// Default bound on queued (not yet running) jobs.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

    /// Creates a pool with `workers` threads (at least 1) and the given
    /// submission-queue bound.
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        let capacity = capacity.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                completed: Vec::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dkg-crypto-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn crypto worker")
            })
            .collect();
        ThreadPoolExecutor {
            shared,
            workers: handles,
            capacity,
            worker_count: workers,
        }
    }

    /// Creates a pool with `workers` threads and the default queue bound.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, Self::DEFAULT_QUEUE_CAPACITY)
    }

    /// Creates a pool sized from the `DKG_WORKERS` environment variable,
    /// falling back to the machine's available parallelism.
    pub fn from_env() -> Self {
        Self::new(Self::workers_from_env())
    }

    /// The worker count `DKG_WORKERS` requests (falling back to available
    /// parallelism, at least 1).
    pub fn workers_from_env() -> usize {
        std::env::var("DKG_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    // Queue space freed: unblock a bounded submit.
                    shared.progress.notify_all();
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work.wait(state).expect("pool lock");
            }
        };
        let Some((id, job)) = job else {
            return;
        };
        // A panicking job must not strand `in_flight` (drain would block
        // forever); it resolves to an all-rejecting verdict instead, so the
        // failure surfaces as refused claims rather than a hang. A job's
        // arithmetic runs entirely on this worker: the pool's one job per
        // worker is the only parallelism.
        let claims = job.claim_count();
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run()))
            .unwrap_or(CryptoVerdict {
                valid: vec![false; claims],
            });
        let mut state = shared.state.lock().expect("pool lock");
        state.completed.push(JobOutcome { id, verdict });
        state.in_flight -= 1;
        shared.progress.notify_all();
    }
}

impl Executor for ThreadPoolExecutor {
    fn submit(&mut self, id: u64, job: CryptoJob) {
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.queue.len() >= self.capacity {
            state = self.shared.progress.wait(state).expect("pool lock");
        }
        state.queue.push_back((id, job));
        state.in_flight += 1;
        drop(state);
        self.shared.work.notify_one();
    }

    fn drain(&mut self) -> Vec<JobOutcome> {
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.in_flight > 0 {
            state = self.shared.progress.wait(state).expect("pool lock");
        }
        let mut out = std::mem::take(&mut state.completed);
        out.sort_by_key(|o| o.id);
        out
    }

    fn name(&self) -> &'static str {
        "thread-pool"
    }
}

impl Drop for ThreadPoolExecutor {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_arith::{PrimeField, Scalar};
    use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_jobs(count: usize) -> Vec<CryptoJob> {
        let mut rng = StdRng::seed_from_u64(11);
        let secret = Scalar::random(&mut rng);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, 2, secret);
        let matrix = CommitmentMatrix::commit(&poly);
        (0..count)
            .map(|k| {
                let verifier = (k as u64 % 5) + 1;
                let sender = (k as u64 % 7) + 1;
                let mut value = poly.evaluate(Scalar::from_u64(sender), Scalar::from_u64(verifier));
                // Every third claim is corrupted so verdicts are nontrivial.
                if k % 3 == 0 {
                    value += Scalar::one();
                }
                CryptoJob::point_batch(matrix.project(verifier), vec![(sender, value)])
            })
            .collect()
    }

    #[test]
    fn pool_matches_inline_for_any_worker_count() {
        let jobs = sample_jobs(24);
        let mut inline = InlineExecutor::new();
        for (id, job) in jobs.iter().enumerate() {
            inline.submit(id as u64, job.clone());
        }
        let expected = inline.drain();
        for workers in [1, 2, 8] {
            let mut pool = ThreadPoolExecutor::new(workers);
            for (id, job) in jobs.iter().enumerate() {
                pool.submit(id as u64, job.clone());
            }
            assert_eq!(pool.drain(), expected, "workers = {workers}");
        }
    }

    #[test]
    fn drain_returns_outcomes_sorted_and_empties() {
        let jobs = sample_jobs(9);
        let mut pool = ThreadPoolExecutor::with_capacity(3, 2);
        for (id, job) in jobs.into_iter().enumerate() {
            // A tiny queue bound exercises the submit-side backpressure.
            pool.submit(id as u64, job);
        }
        let outcomes = pool.drain();
        let ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..9).collect::<Vec<u64>>());
        assert!(pool.drain().is_empty());
    }

    #[test]
    fn workers_from_env_parses_and_falls_back() {
        // The parse path is exercised without mutating the process
        // environment (tests run multi-threaded).
        assert!(ThreadPoolExecutor::workers_from_env() >= 1);
        let pool = ThreadPoolExecutor::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
