//! Deterministic parallel job execution, the pool under
//! [`crate::plan::run_plan`].
//!
//! Every run in the evaluation suite is independent — each builds its own
//! simulator from a config and a workload — so a plan shards across cores. The contract that makes
//! this safe to put under the regression gate: **output is byte-identical
//! to a serial execution**. The runner guarantees it structurally:
//!
//! * jobs are closures with no shared mutable state (each constructs its
//!   simulator inside the worker thread);
//! * results land in a slot table indexed by submission order, so assembly
//!   never observes completion order;
//! * anything order-dependent downstream (every plan's runs) is sorted by
//!   run name.
//!
//! Thread count comes from `DRESAR_SWEEP_THREADS` (0 or unset → one per
//! available core); `DRESAR_SWEEP_THREADS=1` forces serial execution (one
//! worker), which CI uses on one leg of the identity check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A boxed sweep job: runs once on a worker thread, yielding `R`.
pub type Job<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Sweep thread count: `DRESAR_SWEEP_THREADS` if set and nonzero, else one
/// per available core.
pub fn thread_count() -> usize {
    match std::env::var("DRESAR_SWEEP_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4),
    }
}

/// Runs independent jobs across a worker pool, returning results in
/// submission order regardless of completion order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Runner sized by [`thread_count`] (env override, else core count).
    pub fn from_env() -> Self {
        SweepRunner { threads: thread_count() }
    }

    /// Runner that executes jobs one after another on one worker thread.
    pub fn serial() -> Self {
        SweepRunner { threads: 1 }
    }

    /// Runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner { threads: threads.max(1) }
    }

    /// Executes `jobs`, returning the `i`-th job's result at index `i`.
    ///
    /// # Panics
    /// If a job panics, its worker stops and the other workers run the
    /// remaining jobs; once every worker has been joined, the first failed
    /// worker's panic is re-raised with the job's own payload, once.
    pub fn run_jobs<'a, R: Send>(&self, jobs: Vec<Job<'a, R>>) -> Vec<R> {
        let n = jobs.len();
        let workers = self.threads.min(n);
        // FnOnce must be moved out to call; parking each job in its own
        // mutex slot lets borrowing worker threads claim them one by one.
        let slots: Vec<Mutex<Option<Job<'a, R>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_panic = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let slots = &slots;
                    let cursor = &cursor;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return done;
                            }
                            let job = slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take()
                                .expect("sweep job claimed twice");
                            done.push((i, job()));
                        }
                    })
                })
                .collect();
            // Joining every handle here keeps the scope from re-panicking
            // on an unjoined failed worker; the payload is re-raised below.
            for h in handles {
                match h.join() {
                    Ok(done) => {
                        for (i, r) in done {
                            results[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results.into_iter().map(|r| r.expect("sweep job produced no result")).collect()
    }
}

/// Stringifies a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else becomes an opaque marker).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_submission_order() {
        let jobs: Vec<Job<'static, usize>> = (0..32)
            .map(|i| {
                let b: Job<'static, usize> = Box::new(move || {
                    // Stagger so late submissions often finish first.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
                    i as usize
                });
                b
            })
            .collect();
        let out = SweepRunner::with_threads(8).run_jobs(jobs);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn serial_runner_matches_parallel_runner() {
        let mk = || -> Vec<Job<'static, u64>> {
            (0..10u64)
                .map(|i| {
                    let b: Job<'static, u64> = Box::new(move || i * i + 7);
                    b
                })
                .collect()
        };
        assert_eq!(
            SweepRunner::serial().run_jobs(mk()),
            SweepRunner::with_threads(4).run_jobs(mk())
        );
    }

    #[test]
    fn a_job_panic_reaches_the_caller_with_its_own_payload_after_the_rest_ran() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicU64;
        // A serial runner's one worker stops at the panic; with a second
        // worker, every other job still runs before the batch fails.
        for (runner, others) in [(SweepRunner::serial(), 1), (SweepRunner::with_threads(2), 5)] {
            let ran = AtomicU64::new(0);
            let jobs: Vec<Job<'_, ()>> = (0..6u64)
                .map(|i| {
                    let ran = &ran;
                    let b: Job<'_, ()> = Box::new(move || {
                        assert!(i != 1, "job {i} exploded");
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                    b
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| runner.run_jobs(jobs)))
                .expect_err("a panicking job fails the batch");
            assert_eq!(panic_message(&*err), "job 1 exploded");
            assert_eq!(ran.load(Ordering::Relaxed), others);
        }
    }
}
