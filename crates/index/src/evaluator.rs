//! The engine-agnostic OD-evaluation seam.
//!
//! Every search layer in `hos-core` reduces to the same inner loop:
//! given one `(engine, query)` pair, evaluate `OD(query, s)` for a
//! stream of subspaces — one at a time or a whole lattice level per
//! call. Before this module, each caller re-implemented the same
//! amortisation dance by hand: hold an `Option<QueryContext>`, track
//! cumulative evaluated dimensionality, build the cache once past the
//! `~2d` breakeven, then branch on `Some`/`None` at every batch. That
//! copy-pasted plumbing is exactly the seam a sharded, async or
//! multi-backend execution layer has to cut through, so it lives here
//! once, behind a trait:
//!
//! * [`OdEvaluator`] — one object per `(engine, query)` pair with
//!   [`OdEvaluator::od`] and [`OdEvaluator::od_batch`] methods. The
//!   evaluator owns lazy [`QueryContext`] construction and the cost
//!   model; callers just stream subspaces at it.
//! * [`LazyContextEvaluator`] — the default implementation every
//!   [`KnnEngine`] hands out: uncached engine queries until the
//!   cumulative evaluated dimensionality clears `2d`, a shared
//!   pre-distance cache afterwards (engines without a context simply
//!   stay on the uncached path forever).
//!
//! Engines with their own execution strategy override
//! [`KnnEngine::evaluator`]: [`crate::sharded::ShardedEngine`] returns
//! an evaluator that fans every OD over data shards with one
//! `QueryContext` **per shard** and merges exact per-shard top-k lists.
//!
//! Parallel batches go through [`crate::pool::parallel_map`], where the
//! caller and the pool workers claim items one at a time. On the cached
//! path the items are contiguous walk-order chunks, one per requested
//! thread, each walked on its own [`PrefixStack`]: the chunk boundaries
//! depend only on the batch and `threads`, never on which runner claims
//! a chunk, so [`OdEvaluator::node_visits`] repeats exactly from run to
//! run at a given thread count.
//!
//! Exactness: evaluator results are bit-identical to calling
//! [`KnnEngine::od`] per subspace — the lazy cache is pinned by the
//! context equivalence tests, and the evaluator-path equivalence tests
//! in `tests/properties.rs` pin the context-less engines too.
//!
//! [`QueryContext`]: crate::context::QueryContext

use crate::context::QueryContext;
use crate::knn::KnnEngine;
use crate::pool::parallel_map;
use crate::walker::{walk_order, PrefixStack};
use hos_data::{PointId, Subspace};

/// Evaluates the outlying degree of one fixed query point across many
/// subspaces, amortising per-query state (distance caches, prefix
/// stacks, per-shard fan-out) across calls.
///
/// An evaluator is the unit the search layers program against: build
/// one per `(engine, query)` pair via [`KnnEngine::evaluator`], then
/// stream subspaces at it level by level. Evaluators are stateful
/// (`&mut self`) so they can build caches lazily, but their *results*
/// are pure: every call returns exactly what [`KnnEngine::od`] would.
pub trait OdEvaluator {
    /// `OD(query, s)`: the sum of distances from the query to its `k`
    /// nearest neighbours in subspace `s`.
    fn od(&mut self, s: Subspace) -> f64;

    /// `OD(query, s)` for every subspace in `subspaces`, in input
    /// order, fanned across up to `threads` worker threads. Equals
    /// calling [`OdEvaluator::od`] per subspace, bit for bit,
    /// regardless of `threads`. Batches are internally traversed in
    /// walker order ([`Subspace::walk_cmp`]) so the prefix-stack
    /// kernel pays `O(n)` per node; since every subspace's OD is a
    /// pure function of the subspace, traversal order never shows in
    /// the results.
    fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64>;

    /// Lattice nodes entered by the prefix-stack kernel so far (one
    /// per `O(n)` column fold; see
    /// [`crate::walker::PrefixStack::node_visits`]). `0` for
    /// evaluators that never reached a cached phase — the uncached
    /// engine path does not use the kernel.
    fn node_visits(&self) -> u64 {
        0
    }
}

/// The default [`OdEvaluator`]: direct engine queries with a lazily
/// built per-query distance cache.
///
/// # Cost model
///
/// An uncached OD costs about `n · |s|` full-strength per-dimension
/// terms; the cache costs one `n · d` build plus `n · |s|` cheap
/// column combines (~half a term each, per `benches/context.rs`).
/// Breakeven is therefore near a *cumulative* evaluated
/// dimensionality of `2d`: the evaluator sums `|s|` over every
/// subspace it has been asked for and builds the context the moment
/// the running total clears `2d`, so shallow searches that close
/// after one cheap level never pay the build, while lattice walks pay
/// it exactly once.
pub struct LazyContextEvaluator<'a, E: KnnEngine + ?Sized> {
    engine: &'a E,
    query: &'a [f64],
    k: usize,
    exclude: Option<PointId>,
    ctx: Option<QueryContext<'a>>,
    /// Whether the context may still be built (false once built or
    /// once the engine declined to provide one).
    ctx_pending: bool,
    /// Cumulative `Σ|s|` over every subspace evaluated so far.
    dims_evaluated: usize,
    /// The prefix-stack kernel state, reused across batches so
    /// steady-state traversal allocates nothing (an owned sibling of
    /// `ctx`, threaded into it per call — see [`PrefixStack`]).
    stack: PrefixStack,
    /// Reused walk-order index scratch.
    order: Vec<usize>,
    /// Node visits performed by throwaway per-chunk stacks on the
    /// parallel path (the owned `stack` counts its own).
    parallel_visits: u64,
}

impl<'a, E: KnnEngine + ?Sized> LazyContextEvaluator<'a, E> {
    /// Creates the evaluator; no work happens until the first OD call.
    pub fn new(engine: &'a E, query: &'a [f64], k: usize, exclude: Option<PointId>) -> Self {
        LazyContextEvaluator {
            engine,
            query,
            k,
            exclude,
            ctx: None,
            ctx_pending: true,
            dims_evaluated: 0,
            stack: PrefixStack::new(),
            order: Vec::new(),
            parallel_visits: 0,
        }
    }

    /// Accounts `dims` evaluated dimensions and builds the context
    /// once the cumulative total clears the `2d` breakeven.
    fn note_dims(&mut self, dims: usize) {
        self.dims_evaluated += dims;
        if self.ctx_pending && self.dims_evaluated > 2 * self.engine.dataset().dim() {
            self.ctx = self.engine.query_context(self.query);
            self.ctx_pending = false;
        }
    }
}

impl<E: KnnEngine + ?Sized> OdEvaluator for LazyContextEvaluator<'_, E> {
    fn od(&mut self, s: Subspace) -> f64 {
        self.note_dims(s.dim());
        match &self.ctx {
            Some(ctx) => ctx.od(self.k, s, self.exclude),
            None => self.engine.od(self.query, self.k, s, self.exclude),
        }
    }

    fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64> {
        if subspaces.is_empty() {
            return Vec::new();
        }
        self.note_dims(subspaces.iter().map(|s| s.dim()).sum());
        let (k, exclude) = (self.k, self.exclude);
        match &self.ctx {
            Some(ctx) => {
                // Prefix-stack kernel: traverse in walker order so
                // consecutive subspaces share accumulator prefixes,
                // scatter results back into input order. Each OD is a
                // pure function of its subspace, so the reordering is
                // invisible in the results.
                walk_order(subspaces, &mut self.order);
                let mut out = vec![0.0f64; subspaces.len()];
                let threads = threads.max(1).min(subspaces.len());
                if threads <= 1 {
                    for &i in &self.order {
                        self.stack.seek(ctx, subspaces[i]);
                        out[i] = self.stack.od(ctx, k, exclude);
                    }
                } else {
                    // Contiguous walk-order chunks, one throwaway
                    // stack per chunk: prefix sharing within each
                    // chunk, allocation only on this (wide-batch)
                    // path.
                    let chunk = self.order.len().div_ceil(threads);
                    let results = parallel_map(self.order.chunks(chunk), threads, |idx| {
                        let mut stack = PrefixStack::new();
                        let ods: Vec<(usize, f64)> = idx
                            .iter()
                            .map(|&i| {
                                stack.seek(ctx, subspaces[i]);
                                (i, stack.od(ctx, k, exclude))
                            })
                            .collect();
                        (ods, stack.node_visits())
                    });
                    for (ods, visits) in results {
                        self.parallel_visits += visits;
                        for (i, od) in ods {
                            out[i] = od;
                        }
                    }
                }
                out
            }
            None => {
                let (engine, query) = (self.engine, self.query);
                parallel_map(subspaces, threads, |&s| engine.od(query, k, s, exclude))
            }
        }
    }

    fn node_visits(&self) -> u64 {
        self.stack.node_visits() + self.parallel_visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::vafile::{VaFile, VaFileConfig};
    use hos_data::{Dataset, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-20.0..20.0)).collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn matches_per_subspace_engine_queries_across_paths() {
        // Drive the evaluator through its uncached AND cached phases
        // (single calls, then whole-lattice batches) and pin every
        // result against the engine reference, bit for bit.
        let d = 5;
        let ds = dataset(120, d, 1);
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let engine = LinearScan::new(ds.clone(), metric);
            let q: Vec<f64> = ds.row(3).to_vec();
            let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
            let reference: Vec<f64> = subspaces
                .iter()
                .map(|&s| engine.od(&q, 4, s, Some(3)))
                .collect();
            let mut ev = engine.evaluator(&q, 4, Some(3));
            for (i, &s) in subspaces.iter().take(4).enumerate() {
                assert_eq!(ev.od(s), reference[i], "{metric:?} {s}");
            }
            let batched = ev.od_batch(&subspaces, 3);
            assert_eq!(batched, reference, "{metric:?}");
        }
    }

    #[test]
    fn context_builds_only_past_the_breakeven() {
        let d = 6;
        let ds = dataset(80, d, 2);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let mut ev = LazyContextEvaluator::new(&engine, &q, 3, Some(0));
        // Singles at level 1: cumulative dims stay ≤ 2d, no context.
        for dim in 0..d {
            ev.od(Subspace::single(dim));
        }
        assert!(ev.ctx.is_none());
        assert!(ev.ctx_pending);
        // One level-2 batch pushes the total past 2d = 12.
        let level2: Vec<Subspace> = Subspace::all_of_dim(d, 2).collect();
        ev.od_batch(&level2, 2);
        assert!(ev.ctx.is_some());
        assert!(!ev.ctx_pending);
    }

    #[test]
    fn contextless_engine_stays_on_engine_path() {
        let d = 4;
        let ds = dataset(60, d, 3);
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        let q: Vec<f64> = ds.row(5).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        let reference: Vec<f64> = subspaces
            .iter()
            .map(|&s| va.od(&q, 3, s, Some(5)))
            .collect();
        let mut ev = va.evaluator(&q, 3, Some(5));
        assert_eq!(ev.od_batch(&subspaces, 2), reference);
        // Repeat batch: still correct with ctx_pending resolved to None.
        assert_eq!(ev.od_batch(&subspaces, 1), reference);
    }

    #[test]
    fn full_lattice_batch_visits_each_node_once() {
        // The kernel's cost claim, exact: a full-lattice batch in the
        // cached phase performs one O(n) column fold per node —
        // node_visits == 2^d - 1 — versus Σ|s| = d·2^(d-1) folds for
        // the per-subspace recombine it replaces.
        let d = 7;
        let ds = dataset(50, d, 9);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(3).to_vec();
        let mut ev = engine.evaluator(&q, 4, Some(3));
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        let ods = ev.od_batch(&subspaces, 1);
        assert_eq!(ods.len(), subspaces.len());
        assert_eq!(ev.node_visits(), Subspace::lattice_size(d));
        // A second identical batch re-walks the lattice: again one
        // fold per node, same results bit for bit (steady-state
        // traversal reuses every buffer).
        let again = ev.od_batch(&subspaces, 1);
        assert_eq!(again, ods);
        assert_eq!(ev.node_visits(), 2 * Subspace::lattice_size(d));
        // The parallel path agrees exactly, whatever the chunking.
        let mut ev_par = engine.evaluator(&q, 4, Some(3));
        assert_eq!(ev_par.od_batch(&subspaces, 4), ods);
        assert!(ev_par.node_visits() >= Subspace::lattice_size(d));
    }

    #[test]
    fn thread_counts_outside_the_batch_size_are_clamped() {
        // threads = 0 runs serially; threads beyond the batch size
        // just leaves workers idle. Both agree with the engine.
        let d = 6;
        let ds = dataset(200, d, 6);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(17).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).collect();
        for (threads, batch) in [
            (0, &subspaces[..3]),
            (64, &subspaces[..2]),
            (64, &subspaces),
        ] {
            let reference: Vec<f64> = batch
                .iter()
                .map(|&s| engine.od(&q, 3, s, Some(17)))
                .collect();
            let mut ev = engine.evaluator(&q, 3, Some(17));
            assert_eq!(ev.od_batch(batch, threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn uncached_batch_counts_one_distance_eval_per_candidate() {
        // Four low-dimensional subspaces stay below the 2d breakeven,
        // so each OD is an engine query over the 199 non-excluded
        // points, and the engine's counter sees every one.
        let d = 6;
        let ds = dataset(200, d, 7);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(17).to_vec();
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(d).take(4).collect();
        let before = engine.distance_evals();
        engine.evaluator(&q, 5, Some(17)).od_batch(&subspaces, 1);
        assert_eq!(engine.distance_evals() - before, 4 * 199);
    }

    #[test]
    fn empty_batch_is_empty_and_costs_nothing() {
        let ds = dataset(30, 3, 4);
        let engine = LinearScan::new(ds.clone(), Metric::L2);
        let q: Vec<f64> = ds.row(0).to_vec();
        let before = engine.distance_evals();
        let mut ev = engine.evaluator(&q, 2, None);
        assert!(ev.od_batch(&[], 4).is_empty());
        assert_eq!(engine.distance_evals(), before);
    }

    #[test]
    fn evaluator_usable_through_dyn_engine() {
        let ds = dataset(40, 3, 5);
        let engine: Box<dyn KnnEngine> = Box::new(LinearScan::new(ds.clone(), Metric::L1));
        let q: Vec<f64> = ds.row(1).to_vec();
        let s = Subspace::full(3);
        let mut ev = engine.evaluator(&q, 2, Some(1));
        assert_eq!(ev.od(s), engine.od(&q, 2, s, Some(1)));
    }
}
