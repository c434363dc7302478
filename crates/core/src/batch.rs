//! Parallel multi-query front-end.
//!
//! One HOS-Miner deployment serves many concurrent "why is this point
//! strange?" queries; [`batch_search`] fans a slice of query points
//! out across worker threads, each running the full dynamic subspace
//! search of [`crate::search`]. Queries are independent, so this
//! parallelises embarrassingly — and because `dynamic_search` itself
//! is deterministic, the fan-out is **bit-reproducible**: results (and
//! all `SearchStats` evaluation accounting except wall-clock time) are
//! identical to running the queries serially, regardless of thread
//! count. The `batch_search_deterministic_across_thread_counts`
//! integration test pins this.
//!
//! Each worker evaluates its queries with per-level parallelism off
//! (`threads = 1` inside `dynamic_search`): with many queries in
//! flight, cross-query parallelism saturates the cores without the
//! oversubscription nested per-level fan-out would cause.

use crate::priors::Priors;
use crate::search::{dynamic_search, SearchOutcome};
use hos_data::PointId;
use hos_index::pool::parallel_map;
use hos_index::KnnEngine;

/// One query in a batch: the point and, when it is a dataset member,
/// its own id (excluded from its neighbourhoods).
#[derive(Clone, Copy, Debug)]
pub struct BatchQuery<'a> {
    /// Query coordinates (arity = dataset dimensionality).
    pub point: &'a [f64],
    /// The query's own id when it is a dataset member.
    pub exclude: Option<PointId>,
}

/// Runs [`dynamic_search`] for every query, fanned out across
/// `threads` workers, returning outcomes in input order.
///
/// Same panics as `dynamic_search` (`k == 0`, priors/query arity
/// mismatch), surfaced on the first offending query.
pub fn batch_search(
    engine: &dyn KnnEngine,
    queries: &[BatchQuery<'_>],
    k: usize,
    threshold: f64,
    priors: &Priors,
    threads: usize,
) -> Vec<SearchOutcome> {
    parallel_map(queries, threads, |q| {
        dynamic_search(engine, q.point, q.exclude, k, threshold, priors, 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_data::{Dataset, Metric, Subspace};
    use hos_index::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> LinearScan {
        let mut rng = StdRng::seed_from_u64(11);
        let d = 5;
        let mut flat: Vec<f64> = (0..200 * d).map(|_| rng.gen_range(0.0..10.0)).collect();
        // One planted outlier along dims {0, 2}.
        flat.extend([80.0, 5.0, 80.0, 5.0, 5.0]);
        LinearScan::new(Dataset::from_flat(flat, d).unwrap(), Metric::L2)
    }

    #[test]
    fn parallel_identical_to_serial() {
        let e = engine();
        let rows: Vec<Vec<f64>> = (0..16).map(|i| e.dataset().row(i * 12).to_vec()).collect();
        let queries: Vec<BatchQuery<'_>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| BatchQuery {
                point: r,
                exclude: Some(i * 12),
            })
            .collect();
        let priors = Priors::uniform(5);
        let serial = batch_search(&e, &queries, 4, 15.0, &priors, 1);
        let parallel = batch_search(&e, &queries, 4, 15.0, &priors, 8);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.outlying, b.outlying);
            assert_eq!(a.stats.od_evals, b.stats.od_evals);
            assert_eq!(a.stats.pruned_outlier, b.stats.pruned_outlier);
            assert_eq!(a.stats.pruned_non_outlier, b.stats.pruned_non_outlier);
            assert_eq!(a.stats.rounds, b.stats.rounds);
            assert_eq!(a.level_eval_stats, b.level_eval_stats);
        }
    }

    #[test]
    fn matches_individual_dynamic_searches() {
        let e = engine();
        let outlier: Vec<f64> = e.dataset().row(200).to_vec();
        let inlier: Vec<f64> = e.dataset().row(3).to_vec();
        let queries = [
            BatchQuery {
                point: &outlier,
                exclude: Some(200),
            },
            BatchQuery {
                point: &inlier,
                exclude: Some(3),
            },
        ];
        let priors = Priors::uniform(5);
        let batch = batch_search(&e, &queries, 4, 20.0, &priors, 2);
        for (q, got) in queries.iter().zip(&batch) {
            let solo = dynamic_search(&e, q.point, q.exclude, 4, 20.0, &priors, 1);
            assert_eq!(got.outlying, solo.outlying);
        }
        // The planted outlier must be found outlying around dims {0,2}.
        assert!(batch[0].contains(Subspace::from_dims(&[0, 2])) || !batch[0].outlying.is_empty());
        assert!(batch[1].outlying.is_empty());
    }

    #[test]
    fn empty_and_single_query() {
        let e = engine();
        let priors = Priors::uniform(5);
        assert!(batch_search(&e, &[], 4, 10.0, &priors, 4).is_empty());
        let row: Vec<f64> = e.dataset().row(0).to_vec();
        let one = [BatchQuery {
            point: &row,
            exclude: Some(0),
        }];
        assert_eq!(batch_search(&e, &one, 4, 10.0, &priors, 16).len(), 1);
    }
}
