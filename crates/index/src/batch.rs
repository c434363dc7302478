//! Order-preserving fan-out over the persistent [`crate::pool`].
//!
//! Every parallel region in the workspace goes through one of three
//! helpers, all returning results in input order:
//!
//! * [`parallel_map`] / [`parallel_map_mut`] split a slice into up to
//!   `threads` contiguous chunks and run each chunk as a pool job —
//!   for callers whose chunks carry state (a prefix stack per chunk)
//!   or whose parallelism is a user setting: per-level OD batches
//!   ([`crate::evaluator`], [`crate::hnsw`]), shard fan-out
//!   ([`crate::sharded`]) and `hos-core`'s multi-query `batch_search`.
//! * [`parallel_map_claimed`] lets the caller and the pool workers
//!   claim independent items one at a time — the dataset-wide
//!   full-space kernel ([`crate::block`]) and `hos-core`'s threshold
//!   sample.
//!
//! Threads are spawned once per process and reused, so a resident
//! server pays no spawn/join latency per admission batch.

use crate::pool::{in_worker, pool_size, run_scoped};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, fanned out across up to `threads`
/// pooled workers with static chunking; results are in input order.
/// `threads <= 1` (or a single item) short-circuits to a serial loop,
/// where even pool hand-off overhead would dominate small batches.
/// The chunk boundaries are identical to the serial iteration order
/// and every chunk writes its own disjoint output slice, so results
/// are **bit-identical** to the serial path for any thread count.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    {
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(slice_in, slice_out)| {
                Box::new(move || {
                    for (i, o) in slice_in.iter().zip(slice_out.iter_mut()) {
                        *o = Some(f(i));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
    }
    out.into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

/// [`parallel_map`] with dynamic claiming, for independent items of
/// similar cost: the calling thread and up to `pool_size() - 1` pool
/// workers each take the next unclaimed item from a shared counter
/// until none remain. The caller keeps working while workers wake up,
/// and a preempted or slow thread simply claims fewer items, so no
/// static split waits on its slowest chunk. Each result is `f` of its
/// own item, stored in input order, so results are **bit-identical**
/// to the serial loop. From inside a pool worker (or with one worker,
/// or one item) it is that serial loop.
pub fn parallel_map_claimed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let runners = pool_size().min(items.len());
    if runners <= 1 || in_worker() {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let run = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
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

/// [`parallel_map`] over mutable items: applies `f` to every item with
/// exclusive access, fanned across up to `threads` pooled workers with
/// static chunking; results are in input order. Used by the sharded
/// evaluator to drive one mutable [`crate::walker::PrefixStack`] per
/// shard in parallel.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter_mut().map(&f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    {
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(slice_in, slice_out)| {
                Box::new(move || {
                    for (i, o) in slice_in.iter_mut().zip(slice_out.iter_mut()) {
                        *o = Some(f(i));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
    }
    out.into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [0, 1, 2, 7, 64, 1000] {
            assert_eq!(
                parallel_map(&items, threads, |&x| x * 3),
                expected,
                "threads={threads}"
            );
        }
        assert!(parallel_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_claimed_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(parallel_map_claimed(&items, |&x| x * 3 + 1), expected);
        assert_eq!(parallel_map_claimed(&items[..1], |&x| x + 7), vec![7]);
        assert!(parallel_map_claimed(&[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_mut_mutates_every_item_in_order() {
        let mut items: Vec<u64> = (0..53).collect();
        for threads in [0, 1, 3, 64] {
            let out = parallel_map_mut(&mut items, threads, |x| {
                *x += 1;
                *x * 2
            });
            let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
        // Four rounds of +1 applied to each item exactly once.
        assert_eq!(items[0], 4);
        assert_eq!(items[52], 56);
        assert!(parallel_map_mut(&mut [] as &mut [u64], 4, |&mut x| x).is_empty());
    }
}
