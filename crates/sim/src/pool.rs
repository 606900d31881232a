//! A persistent worker pool for sweep execution.
//!
//! The experiment drivers evaluate hundreds of (scheme, benchmark)
//! cells. Spawning a thread per cell (or per benchmark, as the first
//! suite runner did) re-pays thread start-up for every suite
//! and caps parallelism at the per-call fan-out. [`SweepPool`] instead
//! starts one set of workers for the life of the process; cells go into
//! a shared injector queue and idle workers pull the next cell the
//! moment they finish one, so a long cell (gcc) never serializes behind
//! a short one (matrix300) and every core stays busy across suite
//! boundaries.
//!
//! Built on `std::thread` + `std::sync::mpsc` only — the build must work
//! without the registry, so no external thread-pool or deque crates.
//!
//! Results are tagged with their submission index and reassembled in
//! order, so pool size never affects output ordering — the determinism
//! test runs the same sweep on 1 worker and on many and asserts
//! byte-identical results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads executing boxed jobs
/// from a shared queue.
#[derive(Debug)]
pub struct SweepPool {
    injector: Sender<Job>,
    threads: usize,
}

impl SweepPool {
    /// Starts a pool of `threads` workers (at least one).
    ///
    /// Workers park on the shared queue when idle and live until the
    /// pool is dropped; a job that panics unwinds only itself, never its
    /// worker.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (injector, queue) = channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        for index in 0..threads {
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name(format!("tlabp-sweep-{index}"))
                .spawn(move || worker_loop(&queue))
                .expect("spawn sweep worker");
        }
        SweepPool { injector, threads }
    }

    /// The process-wide pool, started on first use and sized to the
    /// machine's available parallelism. A caller that wants another
    /// width builds its own pool with [`SweepPool::new`].
    #[must_use]
    pub fn global() -> &'static SweepPool {
        static GLOBAL: OnceLock<SweepPool> = OnceLock::new();
        GLOBAL
            .get_or_init(|| SweepPool::new(thread::available_parallelism().map_or(1, |n| n.get())))
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues one job and returns immediately, without waiting for it
    /// (or anything else) to finish.
    ///
    /// This is the streaming primitive under
    /// [`Session`](crate::engine::Session): a session keeps a bounded
    /// window of spawned tasks in flight and collects their results over
    /// its own channel, so concurrent sessions sharing one pool
    /// interleave fairly — each holds at most its window's worth of the
    /// shared FIFO queue instead of enqueuing a whole plan at once.
    /// [`SweepPool::run`] remains the batch path (submit everything,
    /// block, reassemble).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.injector.send(Box::new(job)).expect("sweep pool workers alive");
    }

    /// Runs every job on the pool and returns their results in
    /// submission order (regardless of completion order).
    ///
    /// # Panics
    ///
    /// Panics if a job panicked on a worker: its result can never
    /// arrive.
    pub fn run<T, I, F>(&self, jobs: I) -> Vec<T>
    where
        T: Send + 'static,
        I: IntoIterator<Item = F>,
        F: FnOnce() -> T + Send + 'static,
    {
        let (results_in, results_out) = channel::<(usize, T)>();
        let mut submitted = 0usize;
        for (index, job) in jobs.into_iter().enumerate() {
            let results_in = results_in.clone();
            let boxed: Job = Box::new(move || {
                // Receiver dropped => caller already panicked; nothing to do.
                let _ = results_in.send((index, job()));
            });
            self.injector.send(boxed).expect("sweep pool workers alive");
            submitted += 1;
        }
        drop(results_in);

        let mut slots: Vec<Option<T>> = (0..submitted).map(|_| None).collect();
        for _ in 0..submitted {
            let (index, value) =
                results_out.recv().expect("a sweep job panicked before reporting its result");
            slots[index] = Some(value);
        }
        slots.into_iter().map(|slot| slot.expect("every job reports once")).collect()
    }
}

fn worker_loop(queue: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the queue lock only while dequeuing, never while running.
        let job = match queue.lock() {
            Ok(receiver) => receiver.recv(),
            Err(_) => return, // a job panicked while dequeuing; shut down
        };
        match job {
            // The pool never replaces a worker, so a panicking job must
            // not unwind it. The job's own result sender still drops in
            // the unwind, so its caller still sees the panic.
            Ok(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Err(_) => return, // pool dropped; no more work will arrive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = SweepPool::new(4);
        let results = pool.run((0..64u64).map(|i| move || i * i));
        let expected: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let one = SweepPool::new(1);
        let many = SweepPool::new(8);
        let jobs = |pool: &SweepPool| pool.run((0..40u64).map(|i| move || (i, i % 7)));
        assert_eq!(jobs(&one), jobs(&many));
    }

    #[test]
    fn pool_survives_across_batches() {
        let pool = SweepPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let counter = Arc::clone(&counter);
            let results = pool.run((0..10).map(move |_| {
                let counter = Arc::clone(&counter);
                move || counter.fetch_add(1, Ordering::SeqCst)
            }));
            assert_eq!(results.len(), 10);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = SweepPool::global();
        let b = SweepPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn spawn_returns_before_the_job_runs_and_interleaves_with_run() {
        let pool = SweepPool::new(2);
        let (release_in, release_out) = channel::<()>();
        let (done_in, done_out) = channel::<u32>();
        // A spawned job that blocks until released: spawn must not wait
        // for it.
        let done = done_in.clone();
        pool.spawn(move || {
            release_out.recv().expect("released");
            done.send(1).expect("collector alive");
        });
        // The pool still serves run() batches while the spawned job is
        // parked on the second worker.
        assert_eq!(pool.run([|| 7]), vec![7]);
        release_in.send(()).expect("job waiting");
        assert_eq!(done_out.recv(), Ok(1));
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_serving() {
        let pool = SweepPool::new(1);
        let caller =
            catch_unwind(AssertUnwindSafe(|| pool.run([|| -> u32 { panic!("this job fails") }])));
        assert!(caller.is_err(), "the job's caller sees its panic");
        assert_eq!(pool.run([|| 7]), vec![7]);
    }

    #[test]
    fn zero_threads_rounds_up_to_one() {
        let pool = SweepPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run([|| 42]), vec![42]);
    }
}
