//! The serving tier's persistent, bounded worker pool with admission
//! control and per-job panic containment.

use dresar_bench::sweep::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs one job body under a panic guard, converting an unwind into the
/// stringified panic payload. This is the per-job isolation the serving
/// layer wraps engine executions in: the worker thread survives, and the
/// panic becomes a structured error the request path can serve as an HTTP
/// 500 instead of a dead pool.
pub fn catch_job_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(&*payload))
}

/// Why [`ServicePool::try_submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity: shed the request.
    QueueFull {
        /// The configured queue bound the submission ran into.
        queue_depth: usize,
    },
    /// The pool is draining for shutdown and accepts no new work.
    ShuttingDown,
}

/// A persistent, bounded worker pool: the serving counterpart of the
/// batch-oriented [`dresar_bench::sweep::SweepRunner`].
///
/// Where `run_jobs` executes one closed batch and returns, a long-lived
/// service needs *admission control*: a fixed-depth queue whose overflow is
/// reported to the caller (so the server can shed load with a structured
/// error instead of buffering unboundedly) and a graceful drain that
/// finishes queued work before the workers exit. The server sizes it by
/// [`dresar_bench::sweep::thread_count`] (so `DRESAR_SWEEP_THREADS` governs
/// serving concurrency exactly like sweep concurrency) unless configured.
///
/// A pool started paused holds its workers idle until `resume` without
/// touching the queue — tests use this to hold jobs queued while concurrent
/// requests pile up, making coalescing and shedding assertions
/// deterministic instead of racy.
#[derive(Debug)]
pub struct ServicePool {
    inner: std::sync::Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Debug)]
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for jobs (or for a resume/drain signal).
    takeable: std::sync::Condvar,
    /// `drain` waits here for the queue to empty and workers to go idle.
    drained: std::sync::Condvar,
    queue_depth: usize,
}

#[derive(Default)]
struct PoolState {
    queue: std::collections::VecDeque<Box<dyn FnOnce() + Send>>,
    paused: bool,
    stopping: bool,
    /// Jobs currently executing on a worker.
    active: usize,
    /// High-water mark of queued-plus-active jobs.
    peak_depth: u64,
    /// Total jobs accepted over the pool's lifetime.
    scheduled: u64,
    /// Jobs whose panic a worker contained (the worker kept running).
    panics: u64,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("queued", &self.queue.len())
            .field("paused", &self.paused)
            .field("stopping", &self.stopping)
            .field("active", &self.active)
            .field("peak_depth", &self.peak_depth)
            .field("scheduled", &self.scheduled)
            .field("panics", &self.panics)
            .finish()
    }
}

impl ServicePool {
    /// Starts `threads` workers servicing a queue bounded at `queue_depth`
    /// jobs (both clamped to at least 1). With `paused` the workers idle
    /// until [`ServicePool::resume`]; submissions still queue.
    pub fn start(threads: usize, queue_depth: usize, paused: bool) -> Self {
        let inner = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState { paused, ..PoolState::default() }),
            takeable: std::sync::Condvar::new(),
            drained: std::sync::Condvar::new(),
            queue_depth: queue_depth.max(1),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = std::sync::Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServicePool { inner, workers: Mutex::new(workers) }
    }

    /// Queues one job, or reports why it cannot be accepted. Never blocks.
    pub fn try_submit(&self, job: Box<dyn FnOnce() + Send>) -> Result<(), SubmitError> {
        let mut st = lock_pool(&self.inner.state);
        if st.stopping {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.queue_depth {
            return Err(SubmitError::QueueFull { queue_depth: self.inner.queue_depth });
        }
        st.queue.push_back(job);
        st.scheduled += 1;
        st.peak_depth = st.peak_depth.max((st.queue.len() + st.active) as u64);
        drop(st);
        self.inner.takeable.notify_one();
        Ok(())
    }

    /// Releases paused workers.
    pub fn resume(&self) {
        lock_pool(&self.inner.state).paused = false;
        self.inner.takeable.notify_all();
    }

    /// `(queued + active, peak, scheduled)` — the admission gauges the
    /// server exports as `serve.queue_depth` and `serve.scheduled`.
    pub fn depth(&self) -> (u64, u64, u64) {
        let st = lock_pool(&self.inner.state);
        ((st.queue.len() + st.active) as u64, st.peak_depth, st.scheduled)
    }

    /// Job panics contained by the workers so far (each one left the
    /// worker alive and the pool serving — exported as
    /// `serve.worker_panics`).
    pub fn panics(&self) -> u64 {
        lock_pool(&self.inner.state).panics
    }

    /// Graceful drain: stops admissions, runs every queued job to
    /// completion (resuming paused workers), then joins the workers.
    ///
    /// Returns how many worker joins failed. Contained job panics do not
    /// disturb the drain: the workers that caught them are joined normally.
    pub fn drain(&self) -> usize {
        let mut st = lock_pool(&self.inner.state);
        st.stopping = true;
        st.paused = false;
        self.inner.takeable.notify_all();
        while !st.queue.is_empty() || st.active > 0 {
            st = self.inner.drained.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(st);
        let mut workers = self.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        workers.drain(..).map(std::thread::JoinHandle::join).filter(Result::is_err).count()
    }
}

/// Poison-tolerant pool-state lock: a panic elsewhere must degrade to a
/// contained, counted error — never cascade into every pool operation.
fn lock_pool(m: &Mutex<PoolState>) -> std::sync::MutexGuard<'_, PoolState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = lock_pool(&shared.state);
            loop {
                if !st.paused {
                    if let Some(job) = st.queue.pop_front() {
                        st.active += 1;
                        break job;
                    }
                    if st.stopping {
                        return;
                    }
                }
                st = shared.takeable.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Contain a panicking job here: the worker survives (in-place
        // respawn — same thread, fresh job), `active` is decremented on
        // every path so a panic can never leak an active count and hang
        // the drain, and the panic is counted for `serve.worker_panics`.
        let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
        let mut st = lock_pool(&shared.state);
        st.active -= 1;
        if panicked {
            st.panics += 1;
        }
        if st.queue.is_empty() && st.active == 0 {
            shared.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn service_pool_runs_jobs_and_drains() {
        use std::sync::atomic::AtomicU64;
        // Bound >= submission count: workers may drain slower than this
        // loop submits, and every job must be accepted for the sum check.
        let pool = ServicePool::start(4, 100, false);
        let sum = std::sync::Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = std::sync::Arc::clone(&sum);
            pool.try_submit(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        pool.drain();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        let (_, peak, scheduled) = pool.depth();
        assert_eq!(scheduled, 100);
        assert!(peak >= 1);
    }

    #[test]
    fn service_pool_sheds_at_the_queue_bound_and_recovers() {
        // Paused workers: submissions queue but never start, so the bound
        // is hit deterministically.
        let pool = ServicePool::start(2, 2, true);
        pool.try_submit(Box::new(|| {})).unwrap();
        pool.try_submit(Box::new(|| {})).unwrap();
        assert_eq!(
            pool.try_submit(Box::new(|| {})),
            Err(SubmitError::QueueFull { queue_depth: 2 })
        );
        let (depth, peak, _) = pool.depth();
        assert_eq!(depth, 2);
        assert_eq!(peak, 2);
        // Drain resumes the paused workers, runs the queue down, and the
        // pool then refuses new work as shutting down.
        pool.drain();
        assert_eq!(pool.try_submit(Box::new(|| {})), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn catch_job_panic_converts_an_unwind_into_its_message() {
        assert_eq!(catch_job_panic(|| 7), Ok(7));
        let err = catch_job_panic(|| -> u64 { panic!("engine bug {}", 13) })
            .expect_err("panic becomes data");
        assert_eq!(err, "engine bug 13");
    }

    #[test]
    fn service_pool_survives_a_panicking_job_and_reports_it_at_drain() {
        use std::sync::atomic::AtomicU64;
        let pool = ServicePool::start(2, 16, false);
        let done = std::sync::Arc::new(AtomicU64::new(0));
        pool.try_submit(Box::new(|| panic!("injected worker panic"))).unwrap();
        // The pool must keep serving after the contained panic: the same
        // workers run every subsequent job.
        for _ in 0..8 {
            let done = std::sync::Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        let workers_lost = pool.drain();
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert_eq!(workers_lost, 0, "a contained panic is not a lost worker");
        assert_eq!(pool.panics(), 1);
    }
}
