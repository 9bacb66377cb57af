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

use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// If any job panics, panics once — after every worker has stopped —
    /// with a structured message naming the panicked jobs and how many
    /// results were produced, instead of the historical double panic (a
    /// poisoned worker join aborting mid-unwind). Callers that want the
    /// panics as data use [`SweepRunner::try_run_jobs`].
    pub fn run_jobs<'a, R: Send>(&self, jobs: Vec<Job<'a, R>>) -> Vec<R> {
        match self.try_run_jobs(jobs) {
            Ok(results) => results,
            Err(report) => panic!("{report}"),
        }
    }

    /// [`SweepRunner::run_jobs`], but job panics come back as data: every
    /// panicking job is caught on its worker (the worker then continues
    /// with the next job), and the error lists each panicked job's index
    /// and payload plus how many completed results were discarded.
    pub fn try_run_jobs<'a, R: Send>(
        &self,
        jobs: Vec<Job<'a, R>>,
    ) -> Result<Vec<R>, SweepPanicReport> {
        let n = jobs.len();
        let workers = self.threads.min(n);
        // FnOnce must be moved out to call; parking each job in its own
        // mutex slot lets borrowing worker threads claim them one by one.
        let slots: Vec<Mutex<Option<Job<'a, R>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panics: Vec<JobPanic> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let slots = &slots;
                    let cursor = &cursor;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        let mut failed = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return (done, failed);
                            }
                            let job = slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take()
                                .expect("sweep job claimed twice");
                            // A panicking job is contained here: the worker
                            // records it and moves on to the next slot, so
                            // one bad job never strands the rest of the
                            // batch or poisons the join below.
                            match catch_unwind(AssertUnwindSafe(job)) {
                                Ok(r) => done.push((i, r)),
                                Err(payload) => failed
                                    .push(JobPanic { job: i, message: panic_message(&*payload) }),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                // Workers can no longer die from a job panic; an Err here
                // means the thread was killed some other way (e.g. abort).
                // Record it instead of double-panicking mid-drain.
                match h.join() {
                    Ok((done, failed)) => {
                        for (i, r) in done {
                            results[i] = Some(r);
                        }
                        panics.extend(failed);
                    }
                    Err(payload) => {
                        panics.push(JobPanic { job: usize::MAX, message: panic_message(&*payload) })
                    }
                }
            }
        });
        if panics.is_empty() {
            return Ok(results
                .into_iter()
                .map(|r| r.expect("sweep job produced no result"))
                .collect());
        }
        panics.sort_by_key(|p| p.job);
        let completed = results.iter().filter(|r| r.is_some()).count();
        Err(SweepPanicReport { panics, completed })
    }
}

/// One job that panicked inside [`SweepRunner::try_run_jobs`].
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// Submission index of the panicked job (`usize::MAX` when a worker
    /// thread itself died outside any job — only possible via abort).
    pub job: usize,
    /// The panic payload, stringified.
    pub message: String,
}

/// Structured account of a sweep batch that lost jobs to panics.
#[derive(Debug, Clone)]
pub struct SweepPanicReport {
    /// Every panicked job, sorted by submission index.
    pub panics: Vec<JobPanic>,
    /// How many jobs completed and produced a (discarded) result.
    pub completed: usize,
}

impl std::fmt::Display for SweepPanicReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sweep job(s) panicked ({} completed results discarded):",
            self.panics.len(),
            self.completed
        )?;
        for p in &self.panics {
            if p.job == usize::MAX {
                write!(f, " [worker died: {}]", p.message)?;
            } else {
                write!(f, " [job {}: {}]", p.job, p.message)?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for SweepPanicReport {}

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
    fn try_run_jobs_reports_panics_as_data_at_any_width() {
        let mk = || -> Vec<Job<'static, u64>> {
            (0..6u64)
                .map(|i| {
                    let b: Job<'static, u64> = Box::new(move || {
                        assert!(i != 2 && i != 4, "job {i} exploded");
                        i
                    });
                    b
                })
                .collect()
        };
        for runner in [SweepRunner::serial(), SweepRunner::with_threads(3)] {
            let report = runner.try_run_jobs(mk()).expect_err("two jobs panic");
            assert_eq!(report.panics.len(), 2);
            assert_eq!(report.panics[0].job, 2);
            assert_eq!(report.panics[1].job, 4);
            assert_eq!(report.completed, 4);
            assert!(report.panics[0].message.contains("job 2 exploded"));
            let shown = report.to_string();
            assert!(shown.contains("2 sweep job(s) panicked"), "got: {shown}");
            assert!(shown.contains("[job 4:"), "got: {shown}");
        }
    }

    #[test]
    fn run_jobs_panics_once_with_the_structured_report() {
        let jobs: Vec<Job<'static, ()>> =
            vec![Box::new(|| {}), Box::new(|| panic!("boom")), Box::new(|| {})];
        let err = catch_unwind(AssertUnwindSafe(|| {
            SweepRunner::with_threads(2).run_jobs(jobs);
        }))
        .expect_err("a panicking job fails the batch");
        let msg = panic_message(&*err);
        assert!(msg.contains("1 sweep job(s) panicked"), "got: {msg}");
        assert!(msg.contains("[job 1: boom]"), "got: {msg}");
    }
}
