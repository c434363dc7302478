//! VA-file (Vector Approximation file; Weber, Schek, Blott — VLDB'98),
//! the scan-based comparator experiment E7 sets against the X-tree.
//!
//! The canonical alternative to hierarchical indexes in high
//! dimensionality: instead of a tree, store a compact quantised
//! *approximation* of every vector (`bits` per dimension) and answer
//! k-NN queries in two phases:
//!
//! 1. **Filter** — scan the approximations, computing per-vector lower
//!    and upper distance bounds from the quantisation cells alone; a
//!    vector whose lower bound exceeds the current kth-best upper
//!    bound cannot be a result.
//! 2. **Refine** — compute exact distances only for the survivors, in
//!    ascending lower-bound order, stopping once the next lower bound
//!    exceeds the kth exact distance.
//!
//! The approximation scan touches every point but reads only
//! `bits × |s|` of data per point, so the filter is cheap; the
//! expensive full-precision reads are the `distance_evals` the
//! experiments count. Subspace queries come for free: bounds are
//! accumulated only over the masked dimensions.
//!
//! It is a fit-once engine: it implements [`KnnEngine`] (so E7 can
//! drive it through the same trait as the X-tree and the linear scan)
//! but not incremental mutation, and it is not one of the
//! [`hos_index::Engine`] choices. Results are exact and ordered by
//! `(distance, id)`, like every `hos-index` engine.

use hos_data::{Dataset, Metric, PointId, Subspace};
use hos_index::{KnnEngine, Neighbor};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// VA-file construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct VaFileConfig {
    /// Quantisation bits per dimension (cells = `2^bits`), 1..=8.
    pub bits: u32,
}

impl Default for VaFileConfig {
    fn default() -> Self {
        VaFileConfig { bits: 6 }
    }
}

/// The VA-file engine.
pub struct VaFile {
    dataset: Dataset,
    metric: Metric,
    /// Cell boundaries per dimension: `cells + 1` ascending marks
    /// (equi-width over the data range).
    marks: Vec<Vec<f64>>,
    /// Quantised cell index per (point, dimension), row-major.
    approx: Vec<u8>,
    cells: usize,
    evals: AtomicU64,
}

impl VaFile {
    /// Quantises the dataset. Marks span the **live** value range only
    /// — a tombstoned extreme must not widen every cell and weaken the
    /// filter brackets for the points that remain (the
    /// `build_marks_span_live_range_only` regression).
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=8`.
    pub fn build(dataset: Dataset, metric: Metric, cfg: VaFileConfig) -> Self {
        assert!((1..=8).contains(&cfg.bits), "bits must be in 1..=8");
        let cells = 1usize << cfg.bits;
        let d = dataset.dim();
        let marks: Vec<Vec<f64>> = (0..d)
            .map(|c| {
                let col: Vec<f64> = dataset.iter().map(|(_, row)| row[c]).collect();
                let (lo, hi) = hos_data::stats::min_max(&col).unwrap_or((0.0, 1.0));
                let span = (hi - lo).max(f64::MIN_POSITIVE);
                let mut m: Vec<f64> = (0..=cells)
                    .map(|i| lo + span * i as f64 / cells as f64)
                    .collect();
                let last = m.len() - 1;
                m[last] = hi + span * 1e-9;
                m
            })
            .collect();
        // Tombstoned rows are quantised too (their slots must stay
        // aligned) but may clamp outside the live range — harmless,
        // they are skipped by every query.
        let approx = (0..dataset.len())
            .flat_map(|i| dataset.row(i).iter().enumerate())
            .map(|(c, &v)| cell_of(&marks[c], v, cells) as u8)
            .collect();
        VaFile {
            dataset,
            metric,
            marks,
            approx,
            cells,
            evals: AtomicU64::new(0),
        }
    }

    /// Number of quantisation cells per dimension.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Lower and upper pre-metric distance bounds between `query` and
    /// the approximation of point `i`, over subspace `s`.
    fn bounds(&self, query: &[f64], i: PointId, s: Subspace) -> (f64, f64) {
        let d = self.dataset.dim();
        let mut lo_acc = 0.0;
        let mut hi_acc = 0.0;
        for dim in s.dims() {
            let cell = self.approx[i * d + dim] as usize;
            let cell_lo = self.marks[dim][cell];
            let cell_hi = self.marks[dim][cell + 1];
            let q = query[dim];
            let gap_lo = if q < cell_lo {
                cell_lo - q
            } else if q > cell_hi {
                q - cell_hi
            } else {
                0.0
            };
            let gap_hi = (q - cell_lo).abs().max((q - cell_hi).abs());
            lo_acc = self.metric.accumulate(lo_acc, gap_lo);
            hi_acc = self.metric.accumulate(hi_acc, gap_hi);
        }
        (lo_acc, hi_acc)
    }
}

fn cell_of(marks: &[f64], v: f64, cells: usize) -> usize {
    // Binary search over the ascending marks.
    match marks.binary_search_by(|m| m.partial_cmp(&v).expect("finite")) {
        Ok(i) => i.min(cells - 1),
        Err(i) => i.saturating_sub(1).min(cells - 1),
    }
}

/// Ascending `(pre, id)` order — the tie-break every engine shares.
fn by_pre_then_id(a: &(f64, PointId), b: &(f64, PointId)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1))
}

impl KnnEngine for VaFile {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn into_dataset(self: Box<Self>) -> Dataset {
        self.dataset
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn knn(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> Vec<Neighbor> {
        if k == 0 || self.dataset.is_empty() {
            return Vec::new();
        }
        // Phase 1: filter on approximation bounds. Anything whose lower
        // bound exceeds the kth smallest *upper* bound is out. Bounds
        // are non-negative, so their bit patterns order like their
        // values and a max-heap of bits keeps the k smallest.
        let mut uppers = BinaryHeap::with_capacity(k);
        let mut survivors: Vec<(f64, PointId)> = Vec::new();
        for i in self.dataset.live_ids() {
            if Some(i) == exclude {
                continue;
            }
            let (lo, hi) = self.bounds(query, i, s);
            if uppers.len() < k {
                uppers.push(hi.to_bits());
            } else if let Some(mut worst) = uppers.peek_mut() {
                if hi.to_bits() < *worst {
                    *worst = hi.to_bits();
                }
            }
            survivors.push((lo, i));
        }
        let kth_upper = uppers.peek().map_or(f64::INFINITY, |&b| f64::from_bits(b));
        survivors.retain(|&(lo, _)| lo <= kth_upper);
        // Phase 2: refine in ascending lower-bound order, keeping the
        // `k` best exact `(pre, id)` pairs sorted.
        survivors.sort_by(by_pre_then_id);
        let mut best: Vec<(f64, PointId)> = Vec::with_capacity(k + 1);
        let mut evals = 0u64;
        for &(lo, i) in &survivors {
            if best.len() == k && lo > best[k - 1].0 {
                break;
            }
            let cand = (self.metric.pre_dist_sub(query, self.dataset.row(i), s), i);
            evals += 1;
            let at = best.partition_point(|b| by_pre_then_id(b, &cand).is_lt());
            if at < k {
                best.insert(at, cand);
                best.truncate(k);
            }
        }
        self.evals.fetch_add(evals, AtomicOrdering::Relaxed);
        best.into_iter()
            .map(|(pre, id)| Neighbor {
                id,
                dist: self.metric.finish(pre),
            })
            .collect()
    }

    fn range(
        &self,
        query: &[f64],
        radius: f64,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        let pre_radius = self.metric.pre_of(radius);
        let mut out = Vec::new();
        let mut evals = 0u64;
        for i in self.dataset.live_ids() {
            // A lower bound past the radius is certainly outside; any
            // other point needs one refinement read for its exact
            // distance.
            if Some(i) == exclude || self.bounds(query, i, s).0 > pre_radius {
                continue;
            }
            evals += 1;
            let d = self.metric.dist_sub(query, self.dataset.row(i), s);
            if d <= radius {
                out.push(Neighbor { id: i, dist: d });
            }
        }
        self.evals.fetch_add(evals, AtomicOrdering::Relaxed);
        out
    }

    fn distance_evals(&self) -> u64 {
        self.evals.load(AtomicOrdering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_index::{LinearScan, XTree, XTreeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-50.0..50.0)).collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn quantisation_covers_extremes() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![0.5], vec![1.0]]).unwrap();
        let va = VaFile::build(ds, Metric::L2, VaFileConfig { bits: 2 });
        assert_eq!(va.cells(), 4);
        assert_eq!(va.approx[0], 0);
        assert_eq!(va.approx[2], 3); // max value in the top cell
    }

    #[test]
    fn bounds_bracket_exact_distance() {
        let ds = random_dataset(200, 5, 3);
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        let q: Vec<f64> = (0..5).map(|i| i as f64 * 7.0 - 20.0).collect();
        for s in [Subspace::full(5), Subspace::from_dims(&[1, 3])] {
            for i in 0..ds.len() {
                let (lo, hi) = va.bounds(&q, i, s);
                let exact = Metric::L2.pre_dist_sub(&q, ds.row(i), s);
                assert!(lo <= exact + 1e-9, "lower bound violated: {lo} > {exact}");
                assert!(hi >= exact - 1e-9, "upper bound violated: {hi} < {exact}");
            }
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let ds = random_dataset(300, 6, 7);
            let va = VaFile::build(ds.clone(), metric, VaFileConfig::default());
            let lin = LinearScan::new(ds.clone(), metric);
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..15 {
                let q: Vec<f64> = (0..6).map(|_| rng.gen_range(-60.0..60.0)).collect();
                let mask = rng.gen_range(1u64..(1 << 6));
                let s = Subspace::from_mask(mask);
                let a = va.knn(&q, 5, s, None);
                let b = lin.knn(&q, 5, s, None);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x.dist - y.dist).abs() < 1e-9,
                        "{metric:?} {s}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_matches_linear_scan() {
        let ds = random_dataset(300, 4, 13);
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        let lin = LinearScan::new(ds, Metric::L2);
        let q = [0.0, 0.0, 0.0, 0.0];
        for radius in [10.0, 40.0, 120.0] {
            let mut a: Vec<_> = va
                .range(&q, radius, Subspace::full(4), Some(5))
                .iter()
                .map(|n| n.id)
                .collect();
            let mut b: Vec<_> = lin
                .range(&q, radius, Subspace::full(4), Some(5))
                .iter()
                .map(|n| n.id)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "radius {radius}");
        }
    }

    /// Integer-grid data maximises distance ties — the worst case for
    /// selection determinism. The VA-file must return the same
    /// distance list as the linear scan and the X-tree.
    #[test]
    fn grid_data_agrees_with_linear_scan() {
        let mut rows = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                for z in 0..3 {
                    rows.push(vec![x as f64, y as f64, z as f64]);
                }
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let lin = LinearScan::new(ds.clone(), Metric::L1);
        let xt = XTree::build(ds.clone(), Metric::L1, XTreeConfig::default());
        let va = VaFile::build(ds, Metric::L1, VaFileConfig::default());
        for q in [[0.0, 0.0, 0.0], [2.5, 2.5, 1.5], [5.0, 0.0, 2.0]] {
            for s in [Subspace::full(3), Subspace::from_dims(&[0, 2])] {
                let a: Vec<f64> = lin.knn(&q, 8, s, None).iter().map(|n| n.dist).collect();
                let b: Vec<f64> = xt.knn(&q, 8, s, None).iter().map(|n| n.dist).collect();
                let c: Vec<f64> = va.knn(&q, 8, s, None).iter().map(|n| n.dist).collect();
                assert_eq!(a, b, "xtree vs linear at {q:?} {s}");
                assert_eq!(a, c, "vafile vs linear at {q:?} {s}");
            }
        }
    }

    /// Exact ties at the kth distance keep the smaller id whichever
    /// order the lower bounds refine them in — the `(distance, id)`
    /// contract of every engine, bit for bit against the linear scan.
    #[test]
    fn ties_resolve_to_the_smaller_id_like_linear_scan() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 4) as f64, 0.0]).collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig { bits: 1 });
        let lin = LinearScan::new(ds, Metric::L2);
        for k in [1, 3, 10, 11, 40] {
            let q = [1.2, 0.0];
            assert_eq!(
                va.knn(&q, k, Subspace::full(2), Some(5)),
                lin.knn(&q, k, Subspace::full(2), Some(5)),
                "k={k}"
            );
        }
    }

    #[test]
    fn huge_coordinate_magnitudes_stay_finite() {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![1e12 + i as f64 * 1e9, -1e12 + i as f64 * 1e9])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        let nn = va.knn(ds.row(0), 3, Subspace::full(2), Some(0));
        assert_eq!(nn.len(), 3);
        assert!(nn.iter().all(|n| n.dist.is_finite()));
    }

    #[test]
    fn filter_skips_most_refinements() {
        let ds = random_dataset(4000, 8, 17);
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        let q: Vec<f64> = ds.row(0).to_vec();
        let before = va.distance_evals();
        va.knn(&q, 5, Subspace::full(8), Some(0));
        let used = va.distance_evals() - before;
        assert!(used < 400, "VA filter refined {used} of 4000 points");
    }

    #[test]
    fn exclusion_and_edge_cases() {
        let ds = random_dataset(50, 3, 1);
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        let q: Vec<f64> = ds.row(10).to_vec();
        let nn = va.knn(&q, 3, Subspace::full(3), Some(10));
        assert!(nn.iter().all(|n| n.id != 10));
        assert!(va.knn(&q, 0, Subspace::full(3), None).is_empty());
        let empty = VaFile::build(Dataset::empty(), Metric::L2, VaFileConfig::default());
        assert!(empty.knn(&[], 3, Subspace::empty(), None).is_empty());
    }

    #[test]
    fn constant_column_does_not_panic() {
        let ds = Dataset::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]]).unwrap();
        let va = VaFile::build(ds, Metric::L2, VaFileConfig::default());
        let nn = va.knn(&[5.0, 2.1], 2, Subspace::full(2), None);
        assert_eq!(nn[0].id, 1);
    }

    /// Regression: `build` once derived marks from the *physical*
    /// columns, so a tombstoned extreme row widened every cell for the
    /// survivors. Marks must span the live range only — and the
    /// brackets must still be valid for every live point.
    #[test]
    fn build_marks_span_live_range_only() {
        let mut ds = random_dataset(120, 3, 21); // values in ±50
        let outlier = ds.push_row(&[1.0e6, -1.0e6, 1.0e6]).unwrap();
        ds.remove_row(outlier).unwrap();
        let va = VaFile::build(ds.clone(), Metric::L2, VaFileConfig::default());
        for c in 0..3 {
            let last = va.marks[c].len() - 1;
            assert!(
                va.marks[c][0] >= -51.0 && va.marks[c][last] <= 51.0,
                "dim {c}: marks [{}, {}] span the tombstoned extreme",
                va.marks[c][0],
                va.marks[c][last]
            );
        }
        // Tight marks are still correct marks.
        let q: Vec<f64> = ds.row(7).to_vec();
        for i in ds.live_ids() {
            let (lo, hi) = va.bounds(&q, i, Subspace::full(3));
            let exact = Metric::L2.pre_dist_sub(&q, ds.row(i), Subspace::full(3));
            assert!(lo <= exact + 1e-9 && hi >= exact - 1e-9, "point {i}");
        }
        // And the tombstoned row never answers a query.
        assert!(va
            .knn(&q, 200, Subspace::full(3), None)
            .iter()
            .all(|n| n.id != outlier));
    }

    #[test]
    fn fit_once_engine_has_no_incremental_capability() {
        let mut va = VaFile::build(
            random_dataset(10, 2, 0),
            Metric::L2,
            VaFileConfig::default(),
        );
        assert!(va.as_incremental().is_none());
    }

    #[test]
    #[should_panic]
    fn invalid_bits_rejected() {
        let ds = random_dataset(10, 2, 0);
        let _ = VaFile::build(ds, Metric::L2, VaFileConfig { bits: 9 });
    }
}
