//! A small work-stealing pool of scoped worker threads.
//!
//! Campaign jobs are wildly uneven — `d^K` grows geometrically in `K`, so
//! the last job of a spec can dwarf the rest of its row put together. A
//! fixed pre-partition would leave workers idle behind one straggler;
//! instead each worker owns a deque seeded round-robin with job indices,
//! pops work from its own front (LIFO-ish locality on the seeded prefix),
//! and when empty **steals from the back** of a sibling's deque — the
//! classic split that keeps owner and thief on opposite ends and the big
//! trailing jobs spread across the pool.
//!
//! The pool is deliberately oblivious to what a job *is*: it runs
//! `run(worker, job_index)` for every index exactly once and returns the
//! results indexed by job, so callers get determinism-by-construction —
//! scheduling can never reorder results.
//!
//! **Panic isolation**: a panicking job must not poison the pool. Each
//! `run` call is wrapped in `catch_unwind`; a caught panic is stashed and
//! the worker moves on to its next job, so every other job still executes
//! exactly once. The first caught payload is re-raised (`resume_unwind`)
//! only after the pool drains — callers that want panics to become data
//! (the campaign runner does) catch them inside their own closure, and
//! then the pool-level net never fires.

//! Batch pools drain and return; long-running callers (the `selfstab
//! serve` daemon) instead need workers that outlive any one submission.
//! [`ServicePool`] is that persistent counterpart: jobs arrive over time
//! through [`ServicePool::submit`], which says whether the pool accepted
//! the job. Jobs report their own outcome (the service writes it into its
//! job table), and the same isolation contract holds — a panicking job is
//! caught and dropped, and the workers march on.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use selfstab_telemetry::{Histogram, Registry};

/// Scheduling telemetry of one pool run: how often workers ran dry and
/// stole, and how deep their own deques were when they popped. Pure
/// mechanics — scheduling-dependent by construction, so these numbers
/// live in the metrics document's scheduling section, never in anything
/// that must be deterministic.
#[derive(Debug)]
pub struct PoolStats {
    /// Jobs taken from a sibling's deque rather than the worker's own.
    pub steals: Arc<AtomicU64>,
    /// Own-deque depth observed at each pop (after removing the job).
    pub queue_depth: Arc<Histogram>,
}

impl PoolStats {
    /// Stats wired into `registry` as `pool/steals` and
    /// `pool/queue_depth`, so a registry snapshot includes them.
    pub fn from_registry(registry: &Registry) -> Self {
        PoolStats {
            steals: registry.counter("pool/steals"),
            queue_depth: registry.histogram("pool/queue_depth"),
        }
    }
}

/// Runs `jobs` closures on `workers` scoped threads with work stealing.
///
/// Returns one result per job, in job-index order regardless of which
/// worker ran what. `workers == 0` is treated as 1; a single worker runs
/// everything inline in seed order. Optional scheduling telemetry (steal
/// counts and queue-depth samples) lands in `stats`; the results are
/// identical with and without it — observation never steers scheduling.
///
/// # Panics
///
/// If `run` panics for some job, every *other* job still runs to
/// completion and the first caught panic payload is then re-raised from
/// the calling thread.
pub fn run_jobs<T, F>(workers: usize, jobs: usize, stats: Option<&PoolStats>, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers.max(1).min(jobs.max(1));
    // Seed round-robin: job j starts on deque j % workers, so every worker
    // begins with a share of every spec's K-row (cheap small-K jobs first,
    // the heavy tail interleaved across the pool).
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..jobs)
                    .filter(|j| j % workers == w)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let run = &run;
            let panicked = &panicked;
            scope.spawn(move || loop {
                let job = next_job(deques, w, stats);
                let Some(job) = job else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(|| run(w, job))) {
                    Ok(result) => {
                        *slots[job].lock().expect("result slot poisoned") = Some(result);
                    }
                    Err(payload) => {
                        let mut first = panicked.lock().expect("panic slot poisoned");
                        first.get_or_insert(payload);
                    }
                }
            });
        }
    });

    if let Some(payload) = panicked.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index is claimed exactly once")
        })
        .collect()
}

/// Pops the next job for worker `w`: own front first, then steal from the
/// back of the first non-empty sibling deque (scanning from `w + 1`).
fn next_job(
    deques: &[Mutex<VecDeque<usize>>],
    w: usize,
    stats: Option<&PoolStats>,
) -> Option<usize> {
    {
        let mut own = deques[w].lock().expect("deque poisoned");
        if let Some(job) = own.pop_front() {
            if let Some(s) = stats {
                s.queue_depth.record(own.len() as u64);
            }
            return Some(job);
        }
    }
    for offset in 1..deques.len() {
        let victim = (w + offset) % deques.len();
        if let Some(job) = deques[victim].lock().expect("deque poisoned").pop_back() {
            if let Some(s) = stats {
                s.steals.fetch_add(1, Ordering::Relaxed);
            }
            return Some(job);
        }
    }
    None
}

/// What the service queue holds and guards.
struct ServiceQueueState {
    jobs: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Once set, submissions are refused; workers drain the queue (every
    /// already-accepted job still runs) and then exit.
    draining: bool,
}

struct ServiceShared {
    state: Mutex<ServiceQueueState>,
    available: Condvar,
    /// Jobs whose closure actually started executing on a worker. The
    /// cache layer above asserts on this: a memoized request must *not*
    /// move it. When the pool has a registry this *is* the registry's
    /// `pool/executed` counter, so metric snapshots see it too.
    executed: Arc<AtomicU64>,
    /// Queue depth observed at each submit (after the push); `None` when
    /// the pool runs without a registry.
    queue_depth: Option<Arc<Histogram>>,
}

/// A persistent work pool for long-running services: `workers` threads
/// accept closures over time and run them to completion, isolating
/// panics per job. Unlike [`run_jobs`] — which seeds everything up front,
/// work-steals across deques and then *drains* — this pool lives until
/// [`ServicePool::shutdown`], so a daemon can keep queueing requests onto
/// the same threads for its whole lifetime. A single shared queue replaces
/// the stealing deques: submissions arrive one at a time, so there is no
/// seeded imbalance to steal against, and FIFO order keeps request latency
/// fair.
pub struct ServicePool {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServicePool {
    /// A pool of `workers` threads (0 is treated as 1).
    pub fn new(workers: usize) -> Self {
        Self::with_registry(workers, None)
    }

    /// A pool whose queue depth and executed-job count land in `registry`
    /// as `pool/queue_depth` and `pool/executed`.
    pub fn with_registry(workers: usize, registry: Option<&Registry>) -> Self {
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceQueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            available: Condvar::new(),
            executed: registry
                .map(|r| r.counter("pool/executed"))
                .unwrap_or_default(),
            queue_depth: registry.map(|r| r.histogram("pool/queue_depth")),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServicePool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Jobs that have started executing on a worker (monotone; memoized
    /// requests served above the pool never appear here).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Submits a job. Returns `false`, without running the job, when the
    /// pool is already draining; an accepted job runs exactly once.
    #[must_use = "a refused job never runs"]
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut state = self.shared.state.lock().expect("service queue poisoned");
        if state.draining {
            return false;
        }
        state.jobs.push_back(Box::new(job));
        if let Some(h) = &self.shared.queue_depth {
            h.record(state.jobs.len() as u64);
        }
        drop(state);
        self.shared.available.notify_one();
        true
    }

    /// Graceful drain: refuses new submissions, lets every accepted job
    /// run to completion, and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("service queue poisoned");
            state.draining = true;
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("service queue poisoned");
            loop {
                if let Some(task) = state.jobs.pop_front() {
                    break task;
                }
                if state.draining {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .expect("service queue poisoned");
            }
        };
        shared.executed.fetch_add(1, Ordering::Relaxed);
        // The worker's panic net: a panicking job is dropped, never the
        // worker. Callers that want panics as data catch them inside the
        // job (the service does, through `chaos::run_attempt`).
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn every_job_runs_exactly_once_in_index_order() {
        for workers in [1, 2, 4, 7] {
            let counter = AtomicUsize::new(0);
            let results = run_jobs(workers, 23, None, |_w, job| {
                counter.fetch_add(1, Ordering::Relaxed);
                job * 10
            });
            assert_eq!(counter.load(Ordering::Relaxed), 23, "workers={workers}");
            assert_eq!(
                results,
                (0..23).map(|j| j * 10).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn stealing_drains_uneven_loads() {
        // One giant job seeded on worker 0; the rest tiny. With stealing,
        // the tiny jobs all finish even though worker 0 is stuck.
        let results = run_jobs(4, 16, None, |_w, job| {
            if job == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            job
        });
        assert_eq!(results.len(), 16);
    }

    #[test]
    fn zero_workers_and_zero_jobs_are_fine() {
        assert!(run_jobs(0, 0, None, |_w, j| j).is_empty());
        assert_eq!(run_jobs(0, 3, None, |_w, j| j), vec![0, 1, 2]);
    }

    #[test]
    fn stats_observe_every_pop_without_changing_results() {
        // Every job is either popped from its owner's deque (one
        // queue-depth sample) or stolen (one steal tick) — the two tallies
        // partition the job count, and observation never reorders results.
        let registry = Registry::new();
        let stats = PoolStats::from_registry(&registry);
        let results = run_jobs(4, 16, Some(&stats), |_w, job| {
            if job == 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            job
        });
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        let steals = stats.steals.load(Ordering::Relaxed);
        let pops = stats.queue_depth.snapshot().count;
        assert_eq!(steals + pops, 16, "steals={steals} pops={pops}");
    }

    /// Submits `values.len()` jobs, each sending its value down the
    /// returned channel.
    fn submit_all(
        pool: &ServicePool,
        values: impl Iterator<Item = usize>,
    ) -> mpsc::Receiver<usize> {
        let (tx, rx) = mpsc::channel();
        for v in values {
            let tx = tx.clone();
            assert!(pool.submit(move || tx.send(v).unwrap()));
        }
        rx
    }

    #[test]
    fn service_pool_runs_jobs_submitted_over_time() {
        let pool = ServicePool::new(3);
        let rx = submit_all(&pool, (0..20).map(|i| i * 7));
        let mut got: Vec<usize> = rx.iter().take(20).collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(pool.executed(), 20);
        // A second wave on the same workers.
        assert_eq!(submit_all(&pool, [5].into_iter()).recv(), Ok(5));
        assert_eq!(pool.executed(), 21);
    }

    #[test]
    fn service_pool_isolates_panics_per_job() {
        // One worker: the thread that catches the panic is the one that
        // must go on to serve the next job.
        let pool = ServicePool::new(1);
        assert!(pool.submit(|| panic!("service job exploded")));
        assert_eq!(submit_all(&pool, [11].into_iter()).recv(), Ok(11));
        assert_eq!(pool.executed(), 2);
    }

    #[test]
    fn service_pool_shutdown_drains_accepted_work_and_refuses_more() {
        let pool = ServicePool::new(2);
        let rx = submit_all(&pool, 0..8);
        pool.shutdown();
        // Every job accepted before the drain ran to completion.
        let mut got: Vec<usize> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // Submissions after the drain are refused and never run.
        let ran = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&ran);
        assert!(!pool.submit(move || {
            flag.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(pool.executed(), 8);
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn service_pool_wires_executed_and_queue_depth_into_the_registry() {
        let registry = Registry::new();
        let pool = ServicePool::with_registry(1, Some(&registry));
        let rx = submit_all(&pool, 0..5);
        assert_eq!(rx.iter().take(5).count(), 5);
        pool.shutdown();
        let snap = registry.snapshot_json();
        assert_eq!(snap["counters"]["pool/executed"], 5u64);
        assert_eq!(snap["histograms"]["pool/queue_depth"]["count"], 5u64);
    }

    #[test]
    fn a_panicking_job_does_not_poison_its_siblings() {
        // Job 7 panics; every other job must still run exactly once, on
        // every pool size (including the single inline worker), and the
        // panic payload must resurface afterwards from the calling thread.
        for workers in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_jobs(workers, 23, None, |_w, job| {
                    if job == 7 {
                        panic!("job 7 exploded");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    job
                })
            }))
            .expect_err("the stashed panic re-raises after the drain");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                22,
                "workers={workers}: all surviving jobs ran"
            );
            assert_eq!(
                caught.downcast_ref::<&str>().copied(),
                Some("job 7 exploded"),
                "workers={workers}: original payload preserved"
            );
        }
    }
}
