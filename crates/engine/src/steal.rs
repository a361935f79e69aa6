//! A pure-`std` work-stealing task pool.
//!
//! The scheduling unit is an opaque task (the runner uses
//! `(cell, chunk)` pairs). Tasks start in a global injector; each worker
//! keeps a private deque, refills it in small batches from the injector,
//! and — when both are empty — steals single tasks from the fronts of
//! other workers' deques. No task ever spawns another task, and refill
//! batches move injector → deque while both locks are held, so every
//! queued task is visible in exactly one place at all times. A worker
//! that scans own deque, injector, then every sibling (the same
//! direction tasks move) and finds all of them empty can therefore exit:
//! the only tasks it cannot see are already being executed by their
//! owners.
//!
//! Fairness/locality rationale: owners pop from the back (LIFO, warm
//! caches), thieves steal from the front (FIFO, the oldest — likely
//! largest-remaining — work), which is the classic Chase–Lev discipline
//! implemented here with `Mutex<VecDeque>` since the workspace is
//! dependency-free. Contention is one uncontended lock per task in the
//! common case; episode chunks are milliseconds of work, so the lock is
//! noise.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counters describing one pool run (for logs and wall-clock summaries;
/// intentionally excluded from deterministic reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealStats {
    /// Tasks executed in total.
    pub executed: usize,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: usize,
    /// Refill grabs from the global injector.
    pub injector_grabs: usize,
    /// Workers that actually ran.
    pub workers: usize,
}

/// Runs `tasks` to completion on `workers` threads with work stealing.
///
/// `worker_fn(task)` runs exactly once per task, on whichever worker
/// ended up with it; the pool returns once every task has run.
pub fn run_work_stealing<T, F>(tasks: Vec<T>, workers: usize, worker_fn: F) -> StealStats
where
    T: Send,
    F: Fn(T) + Sync,
{
    let total = tasks.len();
    if total == 0 {
        return StealStats::default();
    }
    let workers = workers.clamp(1, total);
    // Refill batch: large enough to amortize the injector lock, small
    // enough that late stragglers still find work to steal.
    let batch = (total / (workers * 4)).clamp(1, 32);

    let injector: Mutex<VecDeque<T>> = Mutex::new(tasks.into());
    let locals: Vec<Mutex<VecDeque<T>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let executed = AtomicUsize::new(0);
    let steals = AtomicUsize::new(0);
    let injector_grabs = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for me in 0..workers {
            let injector = &injector;
            let locals = &locals;
            let executed = &executed;
            let steals = &steals;
            let injector_grabs = &injector_grabs;
            let worker_fn = &worker_fn;
            scope.spawn(move || {
                loop {
                    // 1. Own deque, newest first.
                    let task = locals[me].lock().expect("local deque lock").pop_back();
                    let task = match task {
                        Some(t) => Some(t),
                        // 2. Refill a batch from the injector. The whole
                        // batch moves injector → local deque while BOTH
                        // locks are held, so a task is always visible in
                        // exactly one queue: a sibling scanning "own,
                        // injector, victims" (in that order — the same
                        // direction tasks move) can never observe
                        // all-empty while work remains. Lock order is
                        // own-local then injector; thieves take a single
                        // victim lock while holding nothing, so there is
                        // no cycle.
                        None => {
                            let mut local = locals[me].lock().expect("local deque lock");
                            let mut inj = injector.lock().expect("injector lock");
                            let take = batch.min(inj.len());
                            if take == 0 {
                                None
                            } else {
                                injector_grabs.fetch_add(1, Ordering::Relaxed);
                                local.extend(inj.drain(..take));
                                drop(inj);
                                local.pop_back()
                            }
                        }
                    };
                    // 3. Steal the oldest task from a sibling.
                    let task = match task {
                        Some(t) => Some(t),
                        None => {
                            let mut stolen = None;
                            for offset in 1..workers {
                                let victim = (me + offset) % workers;
                                if let Some(t) = locals[victim]
                                    .lock()
                                    .expect("victim deque lock")
                                    .pop_front()
                                {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    stolen = Some(t);
                                    break;
                                }
                            }
                            stolen
                        }
                    };
                    let Some(task) = task else {
                        // Every queue was observed empty and tasks never
                        // spawn tasks: nothing will ever appear again.
                        return;
                    };
                    executed.fetch_add(1, Ordering::Relaxed);
                    worker_fn(task);
                }
            });
        }
    });

    let stats = StealStats {
        executed: executed.into_inner(),
        steals: steals.into_inner(),
        injector_grabs: injector_grabs.into_inner(),
        workers,
    };
    // Mirror the pool counters into the metrics registry (one code path
    // for logs and snapshots; the adds are no-ops while metrics are off).
    oic_obs::counter!("engine.tasks_executed", "tasks").add(stats.executed as u64);
    oic_obs::counter!("engine.steals", "tasks").add(stats.steals as u64);
    oic_obs::counter!("engine.injector_grabs", "grabs").add(stats.injector_grabs as u64);
    oic_obs::gauge!("engine.workers", "workers").set(stats.workers as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_task_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_work_stealing((0..n).collect(), 8, |task: usize| {
            hits[task].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed, n);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let sum = AtomicU64::new(0);
        let stats = run_work_stealing((1..=100u64).collect(), 1, |task| {
            sum.fetch_add(task, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 5050);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0, "one worker has nobody to rob");
    }

    #[test]
    fn worker_count_is_clamped_to_task_count() {
        let stats = run_work_stealing(vec![1, 2, 3], 64, |_| {});
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.executed, 3);
    }

    #[test]
    fn stealing_actually_happens_under_imbalance() {
        // Deterministic steal coverage. 64 tasks / 2 workers → refill
        // batches of 8, and the refilling worker always pops the batch's
        // BACK task (task 63 for the last batch) under the same lock —
        // so whichever worker runs task 63 still holds 56..62 in its
        // deque. Task 63 blocks until every other task has executed;
        // its deque-mates can therefore only run by being stolen, and
        // the sibling cannot exit while a victim deque is non-empty.
        let others = AtomicUsize::new(0);
        let stats = run_work_stealing((0..64usize).collect(), 2, |task| {
            if task == 63 {
                while others.load(Ordering::Relaxed) < 63 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            } else {
                others.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(stats.executed, 64);
        assert!(
            stats.steals >= 7,
            "the blocked worker's deque-mates must be stolen (saw {})",
            stats.steals
        );
        assert!(
            stats.injector_grabs >= 2,
            "both batch paths exercised ({} grabs)",
            stats.injector_grabs
        );
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let stats = run_work_stealing(Vec::<usize>::new(), 4, |_| {});
        assert_eq!(stats, StealStats::default());
    }
}
