//! A deterministic, self-scheduling worker pool for experiment jobs.
//!
//! The Monte-Carlo grids decompose into many independent jobs (one per
//! `(cell, run)` pair). Cells are wildly imbalanced — unreliable-model cells
//! run an order of magnitude longer than reliable ones — so assigning one
//! thread per *cell* (the seed implementation) leaves most workers idle
//! while the U-model thread grinds on. This pool instead has every worker
//! pull the next unclaimed *job* from a shared atomic counter
//! (self-scheduling: the idle worker steals whatever work is left), and
//! [`execute_fold`] hands results to the caller's fold in job-index order.
//! That makes the final aggregate **bit-identical regardless of thread
//! count**: parallelism only changes who computes a result, never the order
//! in which results are combined.
//!
//! Worker panics are caught per job and reported with the job index, so a
//! diverging simulation names its cell instead of surfacing as an anonymous
//! "thread panicked".

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use routelab_explore::frontier;

/// Worker-pool sizing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolConfig {
    /// Explicit worker count; `None` or `Some(0)` falls back to
    /// [`frontier::THREADS_ENV`], then to the machine's available
    /// parallelism.
    pub threads: Option<usize>,
}

impl PoolConfig {
    /// A pool pinned to exactly `n` workers (`n` is clamped to ≥ 1).
    pub fn with_threads(n: usize) -> Self {
        PoolConfig { threads: Some(n.max(1)) }
    }

    /// The worker count this configuration resolves to, by the explorer's
    /// rule ([`frontier::resolved_threads`]).
    ///
    /// # Panics
    ///
    /// Panics when [`frontier::THREADS_ENV`] is set to anything but a
    /// positive integer — a silent fall-back to machine parallelism would
    /// turn a typo'd `ROUTELAB_THREADS=fuor` into an unpinned run.
    pub fn resolved_threads(&self) -> usize {
        frontier::resolved_threads(self.threads)
    }
}

/// A job that panicked, with the panic payload rendered to text.
#[derive(Debug)]
pub struct JobPanic {
    /// Index of the failing job.
    pub job: usize,
    /// The panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The reorder buffer of [`execute_fold`] holds at most
/// `max(4 × threads, MIN_FOLD_WINDOW)` undelivered results.
const MIN_FOLD_WINDOW: usize = 16;

/// Shared reorder state between the fold workers and the consuming caller.
struct FoldState<T> {
    /// Results produced ahead of the fold cursor, keyed by job index.
    buf: BTreeMap<usize, T>,
    /// The next job index the fold expects.
    next: usize,
    /// Set on the first worker panic; producers stop, the consumer drains.
    abort: bool,
    /// Workers that have exited (the consumer's termination condition).
    workers_done: usize,
}

/// Runs `jobs` invocations of `run` on up to `threads` workers and streams
/// each result — **in job-index order** — into `fold` on the calling
/// thread, without ever materializing the full result vector.
///
/// Aggregation state is whatever `acc` holds, plus a reorder buffer of at
/// most
/// `max(4 × threads, 16)` in-flight results. A worker that races ahead of
/// the fold cursor by more than the window blocks until the consumer
/// catches up (back-pressure), so a single slow job cannot make the buffer
/// grow without bound. Because the fold order is fixed, the accumulated
/// result is bit-identical for every worker count.
///
/// On a panic inside `run`, in-flight jobs finish, no further jobs start,
/// and the panic with the smallest job index is returned; `acc` then holds
/// a fold of some prefix of the jobs and should be discarded.
///
/// # Errors
///
/// Returns the earliest [`JobPanic`] when any job panicked.
pub fn execute_fold<T, A, F, G>(
    jobs: usize,
    threads: usize,
    run: &F,
    acc: &mut A,
    fold: &mut G,
) -> Result<(), JobPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(&mut A, usize, T),
{
    if jobs == 0 {
        return Ok(());
    }
    let threads = threads.clamp(1, jobs);
    let obs_on = routelab_obs::enabled();
    if threads == 1 {
        // Inline fast path: produce and fold on the calling thread.
        let mut worker = routelab_obs::span("pool.worker");
        let mut busy_ns: u64 = 0;
        for i in 0..jobs {
            let t0 = if obs_on { routelab_obs::now_ns() } else { 0 };
            match catch_unwind(AssertUnwindSafe(|| run(i))) {
                Ok(v) => fold(acc, i, v),
                Err(p) => return Err(JobPanic { job: i, message: payload_to_string(p) }),
            }
            if obs_on {
                let d = routelab_obs::now_ns().saturating_sub(t0);
                busy_ns += d;
                routelab_obs::histogram("pool.job_ns", d);
            }
        }
        if obs_on {
            routelab_obs::counter("pool.jobs", jobs as u64);
            worker.field("jobs", jobs as u64);
            worker.field("busy_ns", busy_ns);
        }
        return Ok(());
    }

    let window = (4 * threads).max(MIN_FOLD_WINDOW);
    let state: Mutex<FoldState<T>> =
        Mutex::new(FoldState { buf: BTreeMap::new(), next: 0, abort: false, workers_done: 0 });
    let produced = Condvar::new(); // a result arrived, or a worker exited
    let consumed = Condvar::new(); // the fold cursor advanced, or abort
    let next_job = AtomicUsize::new(0);
    let abort_flag = AtomicBool::new(false);
    let failure: Mutex<Option<JobPanic>> = Mutex::new(None);

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut worker = routelab_obs::span("pool.worker");
                let mut claimed: u64 = 0;
                let mut busy_ns: u64 = 0;
                loop {
                    if abort_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let t0 = if obs_on { routelab_obs::now_ns() } else { 0 };
                    match catch_unwind(AssertUnwindSafe(|| run(i))) {
                        Ok(v) => {
                            let mut st = state.lock().expect("fold mutex");
                            // Back-pressure: don't run further ahead of the
                            // fold cursor than the reorder window allows.
                            while !st.abort && i >= st.next + window {
                                st = consumed.wait(st).expect("fold mutex");
                            }
                            if st.abort {
                                break;
                            }
                            st.buf.insert(i, v);
                            drop(st);
                            produced.notify_all();
                        }
                        Err(p) => {
                            abort_flag.store(true, Ordering::Relaxed);
                            let candidate = JobPanic { job: i, message: payload_to_string(p) };
                            let mut slot = failure.lock().expect("failure mutex");
                            match slot.as_ref() {
                                Some(prev) if prev.job <= candidate.job => {}
                                _ => *slot = Some(candidate),
                            }
                            drop(slot);
                            state.lock().expect("fold mutex").abort = true;
                            produced.notify_all();
                            consumed.notify_all();
                        }
                    }
                    if obs_on {
                        let d = routelab_obs::now_ns().saturating_sub(t0);
                        busy_ns += d;
                        claimed += 1;
                        routelab_obs::histogram("pool.job_ns", d);
                    }
                }
                {
                    let mut st = state.lock().expect("fold mutex");
                    st.workers_done += 1;
                }
                produced.notify_all();
                if obs_on {
                    routelab_obs::counter("pool.jobs", claimed);
                    worker.field("jobs", claimed);
                    worker.field("busy_ns", busy_ns);
                }
            });
        }

        // Consumer loop on the calling thread: pop results at the cursor,
        // fold outside the lock, and stop once every worker has exited and
        // the buffer holds nothing more at the cursor.
        let mut st = state.lock().expect("fold mutex");
        loop {
            let cursor = st.next;
            if let Some(v) = st.buf.remove(&cursor) {
                let i = cursor;
                st.next += 1;
                drop(st);
                consumed.notify_all();
                fold(acc, i, v);
                st = state.lock().expect("fold mutex");
                continue;
            }
            // The cursor entry is not buffered; once every worker has
            // exited it never will be (after a panic the cursor can stall
            // below `jobs` with later results still buffered — drop them).
            if st.next >= jobs || st.workers_done == threads {
                break;
            }
            st = produced.wait(st).expect("fold mutex");
        }
    });

    if let Some(p) = failure.into_inner().expect("failure mutex") {
        return Err(p);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_streams_results_in_job_order() {
        for threads in [1, 2, 8] {
            let mut seen: Vec<(usize, usize)> = Vec::new();
            execute_fold(100, threads, &|i| i * i, &mut seen, &mut |acc, i, v| acc.push((i, v)))
                .expect("no panics");
            assert_eq!(seen, (0..100).map(|i| (i, i * i)).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn fold_matches_a_serial_sum_for_every_thread_count() {
        let run = |i: usize| (i * 7 + 3) % 101;
        let want: usize = (0..64).map(run).sum();
        for threads in [1, 3, 8] {
            let mut sum = 0usize;
            execute_fold(64, threads, &run, &mut sum, &mut |acc, _i, v| *acc += v)
                .expect("no panics");
            assert_eq!(sum, want, "threads={threads}");
        }
    }

    #[test]
    fn fold_panics_name_the_earliest_job() {
        for threads in [1, 2, 8] {
            let mut count = 0usize;
            let err = execute_fold(
                64,
                threads,
                &|i| {
                    if i % 5 == 4 {
                        panic!("bad {i}");
                    }
                    i
                },
                &mut count,
                &mut |acc, _i, _v| *acc += 1,
            )
            .expect_err("many panics");
            assert_eq!(err.job, 4, "threads={threads}");
            assert!(err.message.contains("bad"), "{}", err.message);
        }
    }

    #[test]
    fn fold_survives_a_slow_head_job() {
        // Job 0 finishes last; every other worker races ahead and must be
        // held inside the reorder window until the cursor catches up.
        let mut seen = Vec::new();
        execute_fold(
            200,
            4,
            &|i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                i
            },
            &mut seen,
            &mut |acc: &mut Vec<usize>, _i, v| acc.push(v),
        )
        .expect("no panics");
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn fold_zero_jobs_is_noop() {
        let mut acc = 0usize;
        execute_fold(0, 4, &|i| i, &mut acc, &mut |a, _i, v| *a += v).expect("no panics");
        assert_eq!(acc, 0);
    }

    #[test]
    fn pool_config_resolution() {
        assert_eq!(PoolConfig::with_threads(0).resolved_threads(), 1);
        assert_eq!(PoolConfig::with_threads(6).resolved_threads(), 6);
        assert!(PoolConfig::default().resolved_threads() >= 1);
    }
}
