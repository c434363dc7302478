//! The outlying degree (OD) measure and threshold policies.
//!
//! `OD(p, s) = Σ_{i=1..k} dist_s(p, p_i)` over the k nearest
//! neighbours of `p` in subspace `s` (paper §2). The engine computes
//! it directly ([`hos_index::KnnEngine::od`]); this module adds the
//! pieces around it:
//!
//! * [`OdMode`] — raw OD (the paper) vs. a dimension-normalised
//!   variant (`OD / dim_scale(|s|)`), an extension that removes the
//!   global threshold's bias toward high-dimensional subspaces.
//!   **The normalised variant is not monotone under subspace
//!   inclusion**, so it is only sound with exhaustive evaluation; the
//!   dynamic search always uses `Raw`. Experiment E8b quantifies the
//!   difference.
//! * [`ThresholdPolicy`] — how the global distance threshold `T` is
//!   chosen. The paper treats `T` as given; in practice a quantile of
//!   full-space OD over a sample is the usable default.

use crate::error::HosError;
use crate::Result;
use hos_data::stats;
use hos_data::{Metric, Subspace};
use hos_index::batch::parallel_map_claimed;
use hos_index::KnnEngine;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Which OD variant to compute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OdMode {
    /// The paper's raw sum of k-NN distances. Monotone under subspace
    /// inclusion — required by the pruning properties.
    #[default]
    Raw,
    /// `OD / dim_scale(|s|)` (metric-appropriate dimension
    /// normalisation). **Not monotone**; exhaustive evaluation only.
    DimNormalized,
}

impl OdMode {
    /// Computes the OD of `query` in `s` under this mode.
    pub fn od(
        &self,
        engine: &dyn KnnEngine,
        query: &[f64],
        k: usize,
        s: Subspace,
        exclude: Option<usize>,
    ) -> f64 {
        let raw = engine.od(query, k, s, exclude);
        match self {
            OdMode::Raw => raw,
            OdMode::DimNormalized => raw / engine.metric().dim_scale(s.dim()),
        }
    }

    /// Applies the mode's normalisation to an already-computed raw OD.
    pub fn normalize(&self, raw: f64, metric: Metric, m: usize) -> f64 {
        match self {
            OdMode::Raw => raw,
            OdMode::DimNormalized => raw / metric.dim_scale(m),
        }
    }
}

/// How the global OD threshold `T` is determined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdPolicy {
    /// Use this exact value (the paper's formulation: `T` is an input).
    Fixed(f64),
    /// Sample up to `sample` dataset points, compute each one's
    /// full-space OD (self excluded), and use the `q`-quantile.
    /// Because OD is maximal in the full space, a point whose
    /// full-space OD is below `T` has **no** outlying subspace, so
    /// `q = 0.95` makes roughly the top 5% of points interesting.
    FullSpaceQuantile {
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Sample size cap.
        sample: usize,
    },
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy::FullSpaceQuantile {
            q: 0.95,
            sample: 200,
        }
    }
}

impl ThresholdPolicy {
    /// Resolves the policy to a concrete threshold value.
    ///
    /// `FullSpaceQuantile` computes its sample ODs on the calling
    /// thread and the [`hos_index::pool`] workers (serially when called
    /// from inside one); each OD is an independent engine query and
    /// results keep sample order, so the threshold is bit-identical
    /// either way.
    pub fn resolve(&self, engine: &dyn KnnEngine, k: usize, seed: u64) -> Result<f64> {
        match *self {
            ThresholdPolicy::Fixed(t) => {
                if !t.is_finite() || t <= 0.0 {
                    return Err(HosError::Config(format!(
                        "fixed threshold must be positive and finite, got {t}"
                    )));
                }
                Ok(t)
            }
            ThresholdPolicy::FullSpaceQuantile { q, sample } => {
                if !(0.0..=1.0).contains(&q) {
                    return Err(HosError::Config(format!("quantile {q} outside [0,1]")));
                }
                if sample == 0 {
                    return Err(HosError::Config("threshold sample must be positive".into()));
                }
                let ds = engine.dataset();
                if ds.live_len() == 0 {
                    return Err(HosError::Config(
                        "cannot derive a threshold from an empty dataset".into(),
                    ));
                }
                let full = ds.full_space();
                // Live rows only: after streaming removals the
                // tombstoned rows must not contribute sample ODs.
                let mut ids: Vec<usize> = ds.live_ids().collect();
                let mut rng = StdRng::seed_from_u64(seed);
                ids.shuffle(&mut rng);
                ids.truncate(sample);
                let ods =
                    parallel_map_claimed(&ids, |&id| engine.od(ds.row(id), k, full, Some(id)));
                let t = stats::quantile(&ods, q)?;
                if t <= 0.0 {
                    return Err(HosError::Config(
                        "derived threshold is not positive (degenerate data?)".into(),
                    ));
                }
                Ok(t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_data::Dataset;
    use hos_index::LinearScan;

    fn engine() -> LinearScan {
        // A tight cluster plus one far point.
        let mut rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64 * 0.01, (i % 5) as f64 * 0.01])
            .collect();
        rows.push(vec![100.0, 100.0]);
        LinearScan::new(Dataset::from_rows(&rows).unwrap(), Metric::L2)
    }

    #[test]
    fn raw_mode_equals_engine_od() {
        let e = engine();
        let s = Subspace::full(2);
        let q = [0.0, 0.0];
        assert_eq!(OdMode::Raw.od(&e, &q, 3, s, None), e.od(&q, 3, s, None));
    }

    #[test]
    fn normalized_mode_divides_by_dim_scale() {
        let e = engine();
        let s = Subspace::full(2);
        let q = [0.0, 0.0];
        let raw = e.od(&q, 3, s, None);
        let norm = OdMode::DimNormalized.od(&e, &q, 3, s, None);
        assert!((norm - raw / 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(OdMode::Raw.normalize(raw, Metric::L2, 2), raw);
        assert!((OdMode::DimNormalized.normalize(raw, Metric::L2, 2) - norm).abs() < 1e-12);
    }

    #[test]
    fn fixed_threshold_validation() {
        let e = engine();
        assert_eq!(ThresholdPolicy::Fixed(2.5).resolve(&e, 3, 0).unwrap(), 2.5);
        assert!(ThresholdPolicy::Fixed(0.0).resolve(&e, 3, 0).is_err());
        assert!(ThresholdPolicy::Fixed(-1.0).resolve(&e, 3, 0).is_err());
        assert!(ThresholdPolicy::Fixed(f64::NAN).resolve(&e, 3, 0).is_err());
    }

    #[test]
    fn quantile_threshold_separates_planted_outlier() {
        let e = engine();
        let t = ThresholdPolicy::FullSpaceQuantile {
            q: 0.9,
            sample: 100,
        }
        .resolve(&e, 3, 7)
        .unwrap();
        // The far point's full-space OD must exceed the threshold; the
        // cluster core must fall below it.
        let ds = e.dataset();
        let far = e.od(ds.row(50), 3, ds.full_space(), Some(50));
        let core = e.od(ds.row(0), 3, ds.full_space(), Some(0));
        assert!(far > t, "far OD {far} <= T {t}");
        assert!(core < t, "core OD {core} >= T {t}");
    }

    #[test]
    fn quantile_threshold_validation() {
        let e = engine();
        assert!(ThresholdPolicy::FullSpaceQuantile { q: 1.5, sample: 10 }
            .resolve(&e, 3, 0)
            .is_err());
        assert!(ThresholdPolicy::FullSpaceQuantile { q: 0.5, sample: 0 }
            .resolve(&e, 3, 0)
            .is_err());
        let empty = LinearScan::new(Dataset::empty(), Metric::L2);
        assert!(ThresholdPolicy::default().resolve(&empty, 3, 0).is_err());
    }

    #[test]
    fn quantile_threshold_is_deterministic_per_seed() {
        let e = engine();
        let p = ThresholdPolicy::FullSpaceQuantile { q: 0.8, sample: 20 };
        assert_eq!(p.resolve(&e, 3, 5).unwrap(), p.resolve(&e, 3, 5).unwrap());
    }
}
