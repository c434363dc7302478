//! Process-lifetime worker pool and the one fan-out primitive on it,
//! [`parallel_map`].
//!
//! Before this module existed, every parallel region spawned fresh
//! scoped threads — fine for one-shot CLI runs, but a
//! resident server paying a thread spawn + join per request
//! wastes latency on the hottest path. The pool spawns its workers
//! once (lazily, on first parallel call) and keeps them parked on a
//! condvar; a parallel region just pushes closures onto the shared
//! queue and blocks until its completion latch opens.
//!
//! ## One scheduling policy
//!
//! Every parallel region in the workspace goes through
//! [`parallel_map`]: the calling thread and up to `threads - 1` pool
//! workers (never more runners than the pool has workers, or than there
//! are items) claim items one at a time until none remain, and results
//! come back in input order. A preempted or slow thread simply claims
//! fewer items, so nothing waits on a static split's slowest chunk.
//! Callers whose work carries per-chunk state (a prefix stack, a
//! selection heap) cut their own chunks and pass the chunks as items;
//! the chunking depends only on the caller's inputs, never on which
//! thread claims what, so every result and counter is the same on
//! every run.
//!
//! ## Scoped execution over 'static workers
//!
//! Pool workers are ordinary detached threads, so the jobs they run
//! must be `'static` — but `parallel_map` closures borrow the caller's
//! stack (the items, the result slots, the mapping function).
//! [`run_scoped`] bridges the gap the same way rayon and crossbeam do
//! internally: it transmutes the job's lifetime away **and blocks the
//! caller on a latch until every job has finished running** (even when
//! a job panics), so no borrow ever outlives its frame. The unsafe is
//! confined to that one transmute; the latch discipline is what makes
//! it sound.
//!
//! ## Nesting
//!
//! A parallel region entered *from inside a pool worker* runs serially
//! ([`in_worker`] short-circuits): with every worker potentially
//! blocked waiting for sub-jobs that no free worker can run, nested
//! fan-out would deadlock the pool. Serial nesting matches the
//! system's existing discipline — `batch_search` workers already run
//! their per-level batches with `threads = 1` to avoid
//! oversubscription.
//!
//! ## Panics
//!
//! A panicking job never kills a pool worker: the payload is captured,
//! the latch still counts down, and the *caller* of the parallel
//! region re-raises the first captured payload once all jobs are done
//! — observable behaviour identical to the scoped-thread code this
//! replaces. [`parallel_map`] holds its claim lock only to take the
//! next item, never while `f` runs, so a panicking item leaves the
//! other runners free to finish theirs.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A job as the worker threads see it: erased, owned, `'static`.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared pool: a queue of pending jobs and the workers parked on
/// it. One per process, created by [`pool`].
pub struct WorkerPool {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    workers: usize,
}

static POOL: OnceLock<&'static WorkerPool> = OnceLock::new();

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker. Parallel entry points
/// use this to run nested regions serially instead of deadlocking the
/// pool (see module docs).
pub fn in_worker() -> bool {
    IS_POOL_WORKER.with(|c| c.get())
}

/// The process-wide pool, spawning its workers on first use. Worker
/// count is the machine's available parallelism, which also caps the
/// runners of one [`parallel_map`] call.
pub fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let p: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("hos-pool-{i}"))
                .spawn(move || p.worker_loop())
                .expect("spawning pool worker");
        }
        p
    })
}

/// Number of worker threads the pool runs: a [`parallel_map`] asking
/// for more `threads` than this runs on this many.
pub fn pool_size() -> usize {
    pool().workers
}

impl WorkerPool {
    fn worker_loop(&self) {
        IS_POOL_WORKER.with(|c| c.set(true));
        loop {
            let job = {
                let mut q = self.queue.lock().expect("pool queue poisoned");
                loop {
                    match q.pop_front() {
                        Some(job) => break job,
                        None => q = self.job_ready.wait(q).expect("pool queue poisoned"),
                    }
                }
            };
            // The job is a run_scoped wrapper that catches its own
            // panics; nothing here can unwind the worker.
            job();
        }
    }

    fn submit(&self, jobs: Vec<Job>) {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        q.extend(jobs);
        self.job_ready.notify_all();
    }
}

/// Completion latch for one scoped parallel region: counts pool-run
/// jobs down to zero and carries the first panic payload across the
/// thread boundary.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().expect("latch poisoned");
        slot.get_or_insert(payload);
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().expect("latch poisoned");
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().expect("latch poisoned");
        while *r > 0 {
            r = self.done.wait(r).expect("latch poisoned");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().expect("latch poisoned").take()
    }
}

/// Runs every task to completion, the first on the calling thread and
/// the rest on the pool, returning only when all have finished. Tasks
/// may borrow from the caller's stack — that is the point.
///
/// If any task panics, the first captured payload is re-raised here
/// (after all tasks have completed, so borrowed state stays valid
/// through the unwind). Called from inside a pool worker, all tasks
/// run inline on the caller (see module docs on nesting).
pub fn run_scoped<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 || in_worker() {
        for t in tasks {
            t();
        }
        return;
    }
    let latch = Arc::new(Latch::new(n - 1));
    let mut tasks = tasks.into_iter();
    let caller_task = tasks.next().expect("n >= 2");
    let jobs: Vec<Job> = tasks
        .map(|t| {
            let l = Arc::clone(&latch);
            let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    l.record_panic(payload);
                }
                l.count_down();
            });
            // SAFETY: the transmute only erases the `'scope` lifetime;
            // vtable and layout are unchanged. The borrows inside the
            // job stay valid because this function does not return (or
            // unwind) until `latch.wait()` has observed every job
            // finished — the job can never run after its borrowed
            // frame is gone.
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped) }
        })
        .collect();
    pool().submit(jobs);
    // The caller is a worker too: it runs the first chunk while the
    // pool works the rest, then blocks until the region completes.
    let caller_result = catch_unwind(AssertUnwindSafe(caller_task));
    latch.wait();
    if let Some(payload) = latch.take_panic() {
        resume_unwind(payload);
    }
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
}

/// Applies `f` to every item, returning the results in input order.
///
/// The calling thread and up to `min(threads, pool_size(), len) - 1`
/// pool workers each claim the next unclaimed item until none remain.
/// `items` is anything whose iterator knows its length and may cross
/// threads: `&[T]`, `&mut [T]` (each item mutated by exactly one
/// runner), `Vec<&T>`, ranges, `chunks(..)`. Each result is `f` of its
/// own item, so results are **bit-identical** to the serial loop for
/// any `threads`. With at most one runner, or from inside a pool
/// worker ([`in_worker`]), it *is* that serial loop.
///
/// If `f` panics, the panicking runner stops, the others finish the
/// remaining items, and the payload is re-raised here once every
/// runner has stopped.
pub fn parallel_map<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let len = items.len();
    let runners = threads.min(pool_size()).min(len);
    if runners <= 1 || in_worker() {
        return items.map(f).collect();
    }
    let claim = Mutex::new(items.enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let run = || loop {
        // The guard drops at the end of this statement: `f` runs
        // unlocked, so a panicking item cannot poison the claim lock.
        let claimed = claim.lock().expect("claim lock poisoned").next();
        let Some((i, item)) = claimed else { break };
        *slots[i].lock().expect("slot poisoned") = Some(f(item));
    };
    run_scoped(
        (0..runners)
            .map(|_| Box::new(&run) as Box<dyn FnOnce() + Send + '_>)
            .collect(),
    );
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every item claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..37)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn tasks_borrow_caller_stack() {
        let mut out = [0u64; 8];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(2)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = (i * 2 + j) as u64 * 10;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }
        assert_eq!(out, [0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn empty_and_single() {
        run_scoped(Vec::new());
        let ran = AtomicUsize::new(0);
        run_scoped(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_task_propagates_to_caller_after_completion() {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|i| {
                    let survivors = &survivors;
                    Box::new(move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        survivors.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "job 3 exploded");
        // Every non-panicking job still ran to completion.
        assert_eq!(survivors.load(Ordering::Relaxed), 7);
        // …and the pool still works afterwards.
        let after = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        std::thread::scope(|s| {
            for caller in 0..4 {
                s.spawn(move || {
                    let total = AtomicUsize::new(0);
                    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
                        .map(|i| {
                            let total = &total;
                            Box::new(move || {
                                total.fetch_add(i + caller, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    run_scoped(tasks);
                    assert_eq!(total.load(Ordering::Relaxed), 120 + 16 * caller);
                });
            }
        });
    }

    /// Runs `f` on a pool worker: a two-task region keeps its first
    /// task on the caller and queues the second for the pool.
    fn in_pool_worker<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let mut out = None;
        {
            let slot = &mut out;
            run_scoped(vec![
                Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>,
                Box::new(move || {
                    assert!(in_worker(), "second task must run on a pool worker");
                    *slot = Some(f());
                }),
            ]);
        }
        out.expect("the worker task ran")
    }

    #[test]
    fn parallel_map_covers_every_item_once_in_input_order() {
        // Shared items, any thread count.
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [0, 1, 2, 7, 64, 1000] {
            assert_eq!(
                parallel_map(&items, threads, |&x| x * 3 + 1),
                expected,
                "threads={threads}"
            );
        }
        // Mutable items: four rounds, each item bumped exactly once a
        // round.
        let mut lanes: Vec<u64> = (0..53).collect();
        for threads in [0, 1, 3, 64] {
            let out = parallel_map(&mut lanes, threads, |x| {
                *x += 1;
                *x * 2
            });
            let want: Vec<u64> = lanes.iter().map(|&x| x * 2).collect();
            assert_eq!(out, want, "threads={threads}");
        }
        assert_eq!(lanes, (4..57).collect::<Vec<u64>>());
        // A range, empty input and a single item.
        assert_eq!(
            parallel_map(0..101usize, 4, |i| i * i),
            (0..101usize).map(|i| i * i).collect::<Vec<_>>()
        );
        assert!(parallel_map(&[] as &[u64], 4, |&x| x).is_empty());
        assert!(parallel_map(&mut [] as &mut [u64], 4, |x| *x).is_empty());
        assert_eq!(parallel_map(&items[..1], 4, |&x| x + 7), vec![7]);
        // From inside a pool worker: the serial path, same outputs.
        let nested = in_pool_worker(|| parallel_map(&items, 64, |&x| x * 3 + 1));
        assert_eq!(nested, expected);
    }

    #[test]
    fn parallel_map_reraises_a_panic_after_every_runner_stops() {
        for bad in [0usize, 37, 63] {
            let (running, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(0..64usize, 64, |i| {
                    if i == bad {
                        panic!("item {i} exploded");
                    }
                    running.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    running.fetch_sub(1, Ordering::SeqCst);
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("<non-String payload>");
            assert_eq!(msg, format!("item {bad} exploded"));
            // Re-raised only once no runner is inside `f`, and (with a
            // second runner) after the others finished every other
            // item; the serial loop stops at the panic.
            let others = if pool_size() > 1 { 63 } else { bad };
            assert_eq!(running.load(Ordering::SeqCst), 0, "bad={bad}");
            assert_eq!(finished.load(Ordering::SeqCst), others, "bad={bad}");
            // The claim lock was not poisoned: the pool still serves a
            // later parallel region.
            assert_eq!(
                parallel_map(0..64usize, 64, |i| i + 1),
                (1..65).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn pool_size_is_positive() {
        assert!(pool_size() >= 1);
    }
}
