//! A zero-dependency worker pool that runs independent jobs in parallel
//! but *commits* their results in submission order.
//!
//! The experiments suite reproduces every paper artifact from isolated
//! simulations — each with its own `EventQueue`, `SimRng`, tracer and
//! telemetry registry — so figures can execute concurrently without any
//! shared mutable state. What must stay sequential is the *output*:
//! stdout blocks, trace files, metric snapshots and run digests are
//! committed strictly in job order, so a parallel run is byte-identical
//! to a sequential one. Parallelism lives entirely *between*
//! simulations, never inside one (see DESIGN.md, "Invariants catalogue").
//!
//! This module is the workspace's only home for threads: `clippy.toml`
//! bans threads and `available_parallelism` everywhere, and the two
//! `#[expect]`s below lift the ban here because worker threads never
//! share a running simulation — a job owns its entire simulation from
//! construction to result, and only plain `Send` data crosses back. A
//! job may start from a forked `odlb_cluster::Model` instead of building
//! one: the fork is its own copy, and the job still owns the simulation
//! it runs.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A boxed job: runs on some worker thread, returns a `Send` result.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// The default worker count: one per available hardware thread.
#[expect(
    clippy::disallowed_methods,
    reason = "the ordered worker pool: each thread owns a whole isolated simulation, \
              results are committed in canonical order, and the job count changes \
              no output byte (tests/parallel_parity.rs)"
)]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `jobs` on up to `threads` workers, invoking `commit` exactly
/// once per job, *in job order*, on the calling thread.
///
/// With `threads <= 1` (or fewer than two jobs) no thread is spawned:
/// each job runs and commits inline, which is exactly the sequential
/// behaviour. Otherwise workers claim jobs from a shared index and the
/// calling thread commits each result as soon as it — and everything
/// before it — is done, so commit `k` never waits on job `k+1`.
///
/// A panicking job does not wedge the pool: the panic is captured,
/// later jobs still run, and the panic is resumed on the calling thread
/// when the failed job's turn to commit arrives.
pub fn run_ordered<T: Send>(jobs: Vec<Job<T>>, threads: usize, mut commit: impl FnMut(usize, T)) {
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        for (index, job) in jobs.into_iter().enumerate() {
            commit(index, job());
        }
        return;
    }

    // Each slot holds one claimable job; workers take the next index
    // from `next` and leave the finished result (or captured panic) in
    // `done`, waking the committer.
    let slots: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<std::thread::Result<T>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let ready = Condvar::new();

    #[expect(
        clippy::disallowed_methods,
        reason = "the ordered worker pool: each thread owns a whole isolated simulation, \
                  results are committed in canonical order, and the job count changes \
                  no output byte (tests/parallel_parity.rs)"
    )]
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    return;
                }
                let job = slots[index]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each job index is claimed exactly once");
                let result = catch_unwind(AssertUnwindSafe(job));
                let mut done = done.lock().unwrap_or_else(|e| e.into_inner());
                done[index] = Some(result);
                ready.notify_all();
            });
        }

        // Commit in canonical order on this thread while workers run.
        let mut guard = done.lock().unwrap_or_else(|e| e.into_inner());
        for index in 0..n {
            loop {
                if let Some(result) = guard[index].take() {
                    drop(guard);
                    match result {
                        Ok(value) => commit(index, value),
                        Err(panic) => resume_unwind(panic),
                    }
                    guard = done.lock().unwrap_or_else(|e| e.into_inner());
                    break;
                }
                guard = ready.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn job(value: u32) -> Job<u32> {
        Box::new(move || value)
    }

    #[test]
    fn commits_in_order_sequentially() {
        let mut seen = Vec::new();
        run_ordered((0..5u32).map(job).collect(), 1, |i, v| seen.push((i, v)));
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn commits_in_order_with_adversarial_durations() {
        // Earlier jobs sleep longer than later ones, so completion order
        // is (roughly) the reverse of submission order — commits must
        // still arrive strictly in submission order.
        let sleeps_ms = [40u64, 25, 10, 5, 0, 0, 15, 0];
        let jobs: Vec<Job<usize>> = sleeps_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    i
                }) as Job<usize>
            })
            .collect();
        let mut committed = Vec::new();
        run_ordered(jobs, 4, |index, value| {
            assert_eq!(index, value);
            committed.push(index);
        });
        assert_eq!(committed, (0..sleeps_ms.len()).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: std::sync::Arc<Vec<AtomicUsize>> =
            std::sync::Arc::new((0..32).map(|_| AtomicUsize::new(0)).collect());
        let jobs: Vec<Job<()>> = (0..32)
            .map(|i| {
                let counters = std::sync::Arc::clone(&counters);
                Box::new(move || {
                    counters[i].fetch_add(1, Ordering::SeqCst);
                }) as Job<()>
            })
            .collect();
        let mut commits = 0;
        run_ordered(jobs, 3, |_, ()| commits += 1);
        assert_eq!(commits, 32);
        for c in counters.iter() {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let mut seen = Vec::new();
        run_ordered(vec![job(7), job(9)], 16, |i, v| seen.push((i, v)));
        assert_eq!(seen, vec![(0, 7), (1, 9)]);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        run_ordered(Vec::<Job<u32>>::new(), 4, |_, _| {
            panic!("nothing to commit")
        });
    }

    #[test]
    fn late_panic_does_not_block_earlier_commits() {
        // Job 2 panics; jobs 0 and 1 must still commit first, then the
        // panic resumes on the committing thread.
        let committed = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<u32>> = vec![
                job(0),
                job(1),
                Box::new(|| panic!("job 2 exploded")),
                job(3),
            ];
            run_ordered(jobs, 4, |i, _| {
                committed.lock().unwrap().push(i);
            });
        }));
        assert!(result.is_err(), "the job panic must propagate");
        assert_eq!(*committed.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn commit_streams_before_later_jobs_finish() {
        // Job 0 finishes immediately; job 1 blocks until job 0 has been
        // committed. If the pool waited for *all* jobs before committing
        // any, this would deadlock (bounded here by the gate's timeout).
        static GATE: AtomicBool = AtomicBool::new(false);
        let jobs: Vec<Job<u32>> = vec![
            Box::new(|| 0),
            Box::new(|| {
                let mut spins = 0u64;
                while !GATE.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                    spins += 1;
                    assert!(spins < 5_000, "job 0 was never committed");
                }
                1
            }),
        ];
        let mut seen = Vec::new();
        run_ordered(jobs, 2, |i, v| {
            if i == 0 {
                GATE.store(true, Ordering::SeqCst);
            }
            seen.push((i, v));
        });
        assert_eq!(seen, vec![(0, 0), (1, 1)]);
    }
}
