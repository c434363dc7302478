//! The dynamic subspace search (paper §3.3).
//!
//! The search walks the subspace lattice **level by level, in TSF
//! order**: each round it computes the Total Saving Factor of every
//! level that still has open subspaces, evaluates the OD of every
//! open subspace at the winning level, and applies the two pruning
//! closures after each evaluation:
//!
//! * `OD >= T` — the subspace joins the answer set and every strict
//!   superset is pruned *in* (Property 2);
//! * `OD < T` — every strict subset is pruned *out* (Property 1).
//!
//! The search terminates when the lattice is closed: every subspace is
//! evaluated or pruned. Unlike a fixed bottom-up or top-down sweep,
//! the TSF ordering adapts to where pruning is most likely to pay —
//! that adaptivity is the paper's core algorithmic idea, and the
//! learned priors are what feed it.

use crate::priors::Priors;
use hos_data::{PointId, Subspace};
use hos_index::KnnEngine;
use hos_lattice::{Lattice, SubspaceState, TsfComputer};
use std::time::Instant;

/// One subspace in the answer set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredSubspace {
    /// The outlying subspace.
    pub subspace: Subspace,
    /// Its OD if it was evaluated directly; `None` when it entered the
    /// answer set through upward pruning (its OD is only known to be
    /// `>= T`).
    pub od: Option<f64>,
}

/// Search-cost accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// OD (k-NN) evaluations performed.
    pub od_evals: u64,
    /// ODs computed in a level batch but discarded because an earlier
    /// evaluation *in the same batch* had already disposed of the
    /// subspace by pruning. Every batched OD is either consumed
    /// (`od_evals`) or wasted, so `od_evals + wasted_evals` equals the
    /// total ODs the engine computed for the search. With the current
    /// same-level batching this stays 0 — Property 1/2 closures only
    /// touch *strictly* smaller/larger subspaces, which live on other
    /// levels — but the counter measures the waste the moment any
    /// batching scheme (cross-level, speculative) can introduce it.
    pub wasted_evals: u64,
    /// Subspaces pruned in as certain outliers (Property 2).
    pub pruned_outlier: u64,
    /// Subspaces pruned out as certain non-outliers (Property 1).
    pub pruned_non_outlier: u64,
    /// Lattice nodes entered by the prefix-stack kernel: one per
    /// `O(n)` column fold (`hos_index::PrefixStack::node_visits`,
    /// summed per shard for sharded engines, where each fold streams
    /// `n / shards` rows). The testable cost claim of the kernel: a
    /// direct per-subspace recombine would pay `Σ|s|` folds over the
    /// evaluated subspaces; walker-order traversal pays at most that,
    /// and exactly one fold per node on full-lattice walks. Stays 0 on
    /// engine paths that never build a distance cache.
    ///
    /// Unlike the other counters this depends on the per-level thread
    /// count: a level split across threads is walked in contiguous
    /// chunks, each on a fresh prefix stack, so the number of folds
    /// shifts with the chunk boundaries. The boundaries depend only on
    /// the thread count, not on which thread claims a chunk, so
    /// repeated runs at one thread count report the same value.
    /// Answers and every other counter are thread-count independent.
    pub nodes_visited: u64,
    /// Search rounds (levels evaluated).
    pub rounds: u32,
    /// Total non-empty subspaces in the lattice (`2^d - 1`).
    pub lattice_size: u64,
    /// Wall-clock duration of the search in seconds.
    pub seconds: f64,
}

impl SearchStats {
    /// Fraction of the lattice that needed a direct OD evaluation.
    pub fn evaluated_fraction(&self) -> f64 {
        if self.lattice_size == 0 {
            0.0
        } else {
            self.od_evals as f64 / self.lattice_size as f64
        }
    }
}

/// Complete outcome of one dynamic search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Every outlying subspace (evaluated or pruned-in), ascending by
    /// mask for determinism.
    pub outlying: Vec<ScoredSubspace>,
    /// Cost accounting.
    pub stats: SearchStats,
    /// Per-level fraction of subspaces that were outlying (index =
    /// level, `0..=d`; level 0 is 0), counting pruned dispositions —
    /// the exact fraction over the whole level.
    pub level_outlier_fraction: Vec<f64>,
    /// Per-level `(directly evaluated, evaluated with OD >= T)`
    /// counts. The learning phase derives `p_up(m, sp)` from these:
    /// the paper updates a level's probability only once subspaces of
    /// that level have actually been *evaluated*; untouched levels
    /// keep their initialised prior.
    pub level_eval_stats: Vec<(u64, u64)>,
}

impl SearchOutcome {
    /// Just the outlying subspaces, no scores.
    pub fn subspaces(&self) -> Vec<Subspace> {
        self.outlying.iter().map(|s| s.subspace).collect()
    }

    /// Whether a particular subspace was found outlying.
    pub fn contains(&self, s: Subspace) -> bool {
        self.outlying.iter().any(|x| x.subspace == s)
    }
}

/// Runs the dynamic subspace search for one query point.
///
/// * `engine` — k-NN engine over the dataset.
/// * `query` — the query point's coordinates (arity = dataset dim).
/// * `exclude` — the query's own id when it is a dataset member.
/// * `k`, `threshold` — the OD parameters.
/// * `priors` — per-level pruning probabilities (uniform during
///   learning, learned for user queries).
/// * `threads` — parallelism for per-level OD batches.
///
/// # Panics
/// Panics if `priors.dim()` differs from the dataset dimensionality,
/// or `k == 0` (upheld by [`crate::miner::HosMiner`]'s validation).
pub fn dynamic_search(
    engine: &dyn KnnEngine,
    query: &[f64],
    exclude: Option<PointId>,
    k: usize,
    threshold: f64,
    priors: &Priors,
    threads: usize,
) -> SearchOutcome {
    let d = engine.dataset().dim();
    assert!(k > 0, "k must be positive");
    assert_eq!(priors.dim(), d, "priors dimensionality mismatch");
    assert_eq!(query.len(), d, "query arity mismatch");
    let start = Instant::now();

    let mut lattice = Lattice::new(d);
    let tsf = TsfComputer::new(d);
    let mut evaluated_outliers: Vec<ScoredSubspace> = Vec::new();
    let mut level_eval_stats = vec![(0u64, 0u64); d + 1];
    let mut rounds = 0u32;
    let mut wasted_evals = 0u64;

    // One OD evaluator for the whole search: it owns the lazy
    // per-query distance cache and the amortisation cost model
    // (engines without a cache just answer queries directly; sharded
    // engines fan each batch over their shards). See
    // `hos_index::evaluator` for the seam.
    let mut evaluator = engine.evaluator(query, k, exclude);

    while !lattice.is_complete() {
        // Pick the open level with the highest TSF; ties break toward
        // the lower level (cheaper OD evaluations, matching the
        // paper's preference for starting low when indifferent).
        let m = (1..=d)
            .filter(|&m| lattice.remaining_at(m) > 0)
            .max_by(|&a, &b| {
                let ta = tsf.tsf(a, priors.up(a), priors.down(a), &lattice);
                let tb = tsf.tsf(b, priors.up(b), priors.down(b), &lattice);
                ta.partial_cmp(&tb)
                    .expect("finite TSF")
                    .then_with(|| b.cmp(&a))
            })
            .expect("lattice not complete implies an open level");

        // Walker-order enumeration: the level batch arrives at the
        // evaluator already in prefix-trie DFS order, so the
        // prefix-stack kernel shares accumulators across consecutive
        // subspaces (and across rounds — the evaluator's stack
        // persists between batches).
        let open = lattice.open_at_level_walk(m);
        debug_assert!(!open.is_empty());
        let ods = evaluator.od_batch(&open, threads);
        for (&s, &od) in open.iter().zip(&ods) {
            // A subspace may have been pruned by an earlier evaluation
            // in this same batch — its OD was computed wastefully but
            // its disposal must not change. `wasted_evals` measures
            // exactly this batch overshoot.
            if lattice.state(s) != SubspaceState::Unevaluated {
                wasted_evals += 1;
                continue;
            }
            lattice.mark_evaluated(s);
            level_eval_stats[m].0 += 1;
            if od >= threshold {
                level_eval_stats[m].1 += 1;
                evaluated_outliers.push(ScoredSubspace {
                    subspace: s,
                    od: Some(od),
                });
                lattice.prune_up(s);
            } else {
                lattice.prune_down(s);
            }
        }
        rounds += 1;
    }

    // Assemble the answer set: directly evaluated outliers plus
    // everything pruned in by Property 2.
    let mut outlying = evaluated_outliers;
    for s in lattice.in_state(SubspaceState::PrunedOutlier) {
        outlying.push(ScoredSubspace {
            subspace: s,
            od: None,
        });
    }
    outlying.sort_by_key(|s| s.subspace.mask());

    // Per-level outlier fractions for the learning phase.
    let mut outlier_count = vec![0u64; d + 1];
    for s in &outlying {
        outlier_count[s.subspace.dim()] += 1;
    }
    let level_outlier_fraction: Vec<f64> = (0..=d)
        .map(|m| {
            if m == 0 {
                0.0
            } else {
                let total = hos_lattice::binomial(d, m);
                outlier_count[m] as f64 / total
            }
        })
        .collect();

    let counters = lattice.counters();
    let stats = SearchStats {
        od_evals: counters.evaluated,
        wasted_evals,
        pruned_outlier: counters.pruned_outlier,
        pruned_non_outlier: counters.pruned_non_outlier,
        nodes_visited: evaluator.node_visits(),
        rounds,
        lattice_size: Subspace::lattice_size(d),
        seconds: start.elapsed().as_secs_f64(),
    };

    SearchOutcome {
        outlying,
        stats,
        level_outlier_fraction,
        level_eval_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_data::{Dataset, Metric};
    use hos_index::LinearScan;

    /// A dataset where point 0 is an extreme outlier along dim 0 only.
    fn axis_outlier_engine() -> LinearScan {
        let mut rows = vec![vec![100.0, 0.5, 0.5]];
        for i in 0..60 {
            rows.push(vec![
                (i % 10) as f64 * 0.01,
                (i % 7) as f64 * 0.01,
                (i % 5) as f64 * 0.01,
            ]);
        }
        LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2)
    }

    fn exhaustive_reference(
        engine: &dyn KnnEngine,
        query: &[f64],
        exclude: Option<PointId>,
        k: usize,
        t: f64,
    ) -> Vec<Subspace> {
        Subspace::all_nonempty(engine.dataset().dim())
            .filter(|&s| engine.od(query, k, s, exclude) >= t)
            .collect()
    }

    #[test]
    fn finds_exactly_the_exhaustive_answer() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let priors = Priors::uniform(3);
        let t = 10.0;
        let out = dynamic_search(&e, &q, Some(0), 4, t, &priors, 1);
        let mut got = out.subspaces();
        got.sort_by_key(|s| s.mask());
        let mut expected = exhaustive_reference(&e, &q, Some(0), 4, t);
        expected.sort_by_key(|s| s.mask());
        assert_eq!(got, expected);
        // Every subspace containing dim 0 must be outlying; none other.
        for s in &got {
            assert!(s.contains_dim(0));
        }
        assert_eq!(got.len(), 4); // {0},{0,1},{0,2},{0,1,2}
    }

    #[test]
    fn inlier_point_has_empty_answer() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(5).to_vec();
        let priors = Priors::uniform(3);
        let out = dynamic_search(&e, &q, Some(5), 4, 10.0, &priors, 1);
        assert!(out.outlying.is_empty());
        // The whole lattice must still be disposed of.
        let s = &out.stats;
        assert_eq!(
            s.od_evals + s.pruned_outlier + s.pruned_non_outlier,
            s.lattice_size
        );
    }

    #[test]
    fn accounting_adds_up() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        let s = &out.stats;
        assert_eq!(s.lattice_size, 7);
        assert_eq!(
            s.od_evals + s.pruned_outlier + s.pruned_non_outlier,
            s.lattice_size
        );
        assert!(s.rounds >= 1);
        assert!(s.seconds >= 0.0);
        assert!(s.evaluated_fraction() <= 1.0);
    }

    #[test]
    fn pruning_saves_evaluations_for_extreme_points() {
        // For a point outlying in a single dimension, upward pruning
        // from level 1 should spare most of the lattice.
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        assert!(
            out.stats.od_evals < out.stats.lattice_size,
            "no savings at all: {:?}",
            out.stats
        );
        assert!(out.stats.pruned_outlier > 0);
    }

    #[test]
    fn scored_subspaces_report_od_when_evaluated() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        // At least one answer member must carry a concrete OD >= T, and
        // every concrete OD must meet the threshold.
        assert!(out.outlying.iter().any(|s| s.od.is_some()));
        for s in &out.outlying {
            if let Some(od) = s.od {
                assert!(od >= 10.0);
            }
        }
        assert!(out.contains(Subspace::from_dims(&[0])));
        assert!(!out.contains(Subspace::from_dims(&[1])));
    }

    #[test]
    fn level_fractions_match_answer_set() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), 1);
        // d=3: levels hold 3, 3, 1 subspaces; the answer set is the 4
        // supersets of {0}: one of 3 at level 1, two of 3 at level 2,
        // one of 1 at level 3.
        let f = &out.level_outlier_fraction;
        assert_eq!(f.len(), 4);
        assert!((f[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((f[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((f[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wasted_evals_accounting_matches_engine_work() {
        // Every OD the engine computed for the search is either
        // consumed (`od_evals`) or wasted (`wasted_evals`). Derive the
        // total ODs actually computed from the engine's distance-eval
        // counter — each OD over the n-point dataset with
        // self-exclusion touches exactly n-1 points, cached or not —
        // and pin the identity: od_evals + wasted_evals never exceeds
        // the batch totals, and accounts for every one of them.
        for threads in [1, 4] {
            let e = axis_outlier_engine();
            let n = e.dataset().len() as u64;
            let q: Vec<f64> = e.dataset().row(0).to_vec();
            let before = e.distance_evals();
            let out = dynamic_search(&e, &q, Some(0), 4, 10.0, &Priors::uniform(3), threads);
            let batch_total = (e.distance_evals() - before) / (n - 1);
            let s = &out.stats;
            assert!(
                s.od_evals + s.wasted_evals <= batch_total,
                "threads={threads}: {} consumed + {} wasted > {batch_total} computed",
                s.od_evals,
                s.wasted_evals
            );
            assert_eq!(
                s.od_evals + s.wasted_evals,
                batch_total,
                "threads={threads}"
            );
            // Same-level batching cannot overshoot: the Property 1/2
            // closures only dispose of *strictly* smaller/larger
            // subspaces, which live on other levels.
            assert_eq!(s.wasted_evals, 0, "threads={threads}");
        }
    }

    #[test]
    fn nodes_visited_bounded_by_direct_recombine_cost() {
        // The prefix-stack cost claim at search level: the kernel's
        // column folds never exceed what the direct per-subspace
        // recombine would pay (Σ|s| over every batched subspace), and
        // a search that reaches the cached phase reports a non-zero
        // counter.
        let mut rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                vec![
                    (i % 9) as f64 * 0.3,
                    (i % 7) as f64 * 0.3,
                    (i % 5) as f64 * 0.3,
                    (i % 4) as f64 * 0.3,
                    (i % 3) as f64 * 0.3,
                ]
            })
            .collect();
        rows.push(vec![50.0, 0.3, 0.3, 0.3, 0.3]);
        let e = LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2);
        let q: Vec<f64> = e.dataset().row(80).to_vec();
        for threads in [1, 3] {
            let out = dynamic_search(&e, &q, Some(80), 4, 1e-6, &Priors::uniform(5), threads);
            // Threshold ~0: everything is outlying, level 1 prunes the
            // rest in — but the first TSF rounds still batch enough
            // dimensionality to build the cache in realistic searches.
            let s = &out.stats;
            assert!(
                s.nodes_visited <= s.lattice_size * 5,
                "threads={threads}: {} folds for a d=5 lattice",
                s.nodes_visited
            );
        }
        // A genuinely deep search (high threshold, everything below T:
        // downward pruning from the top level) that walks many
        // subspaces through the cached phase reports its folds, and
        // they are bounded by the evaluated dimensionality.
        let inlier: Vec<f64> = e.dataset().row(5).to_vec();
        let out = dynamic_search(&e, &inlier, Some(5), 4, 1e9, &Priors::uniform(5), 1);
        let s = &out.stats;
        assert!(s.nodes_visited <= s.od_evals * 5 + 2 * 5);
    }

    #[test]
    fn threshold_monotone_in_answer_size() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let priors = Priors::uniform(3);
        let lo = dynamic_search(&e, &q, Some(0), 4, 0.5, &priors, 1);
        let hi = dynamic_search(&e, &q, Some(0), 4, 50.0, &priors, 1);
        assert!(lo.outlying.len() >= hi.outlying.len());
        // Everything outlying at the high threshold is outlying at the low one.
        for s in &hi.outlying {
            assert!(lo.contains(s.subspace));
        }
    }

    #[test]
    fn parallel_threads_agree_with_serial() {
        let e = axis_outlier_engine();
        let q: Vec<f64> = e.dataset().row(0).to_vec();
        let priors = Priors::uniform(3);
        let a = dynamic_search(&e, &q, Some(0), 4, 10.0, &priors, 1);
        let b = dynamic_search(&e, &q, Some(0), 4, 10.0, &priors, 4);
        assert_eq!(a.subspaces(), b.subspaces());
    }

    #[test]
    fn single_dimension_dataset() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![50.0]]).unwrap();
        let e = LinearScan::new(ds, Metric::L2);
        let out = dynamic_search(&e, &[50.0], Some(3), 2, 10.0, &Priors::uniform(1), 1);
        assert_eq!(out.subspaces(), vec![Subspace::from_dims(&[0])]);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let e = axis_outlier_engine();
        let q = vec![0.0; 3];
        let _ = dynamic_search(&e, &q, None, 0, 1.0, &Priors::uniform(3), 1);
    }

    #[test]
    #[should_panic]
    fn wrong_priors_dim_panics() {
        let e = axis_outlier_engine();
        let q = vec![0.0; 3];
        let _ = dynamic_search(&e, &q, None, 3, 1.0, &Priors::uniform(5), 1);
    }
}
