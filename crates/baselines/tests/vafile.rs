//! Property tests: the VA-file comparator must answer exactly like the
//! brute-force oracle on arbitrary data, metrics, subspaces, k and
//! quantisation widths — its filter may only ever skip losers.

use hos_baselines::{VaFile, VaFileConfig};
use hos_data::{Dataset, Metric, Subspace};
use hos_index::{KnnEngine, LinearScan};
use proptest::prelude::*;

const D: usize = 5;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, D), 1..120)
        .prop_map(|rows| Dataset::from_rows(&rows).unwrap())
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vafile_knn_equals_linear(ds in arb_dataset(),
                                q in prop::collection::vec(-60.0f64..60.0, D),
                                k in 1usize..12,
                                mask in 1u64..(1 << D),
                                bits in 1u32..8,
                                metric in arb_metric()) {
        let s = Subspace::from_mask(mask);
        let va = VaFile::build(ds.clone(), metric, VaFileConfig { bits });
        let lin = LinearScan::new(ds, metric);
        let a = va.knn(&q, k, s, None);
        let b = lin.knn(&q, k, s, None);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.dist - y.dist).abs() < 1e-9,
                "bits={} {} vs {} in {}", bits, x.dist, y.dist, s);
        }
    }

    /// The default evaluator over the VA-file (it has no query
    /// context, so every OD is an engine query) returns exactly what
    /// per-subspace `engine.od` calls return, batched or single.
    #[test]
    fn vafile_evaluator_path_equals_engine_od(ds in arb_dataset(),
                                              q in prop::collection::vec(-60.0f64..60.0, D),
                                              k in 1usize..8,
                                              metric in arb_metric()) {
        let va = VaFile::build(ds, metric, VaFileConfig { bits: 4 });
        let subspaces: Vec<Subspace> = Subspace::all_nonempty(D).collect();
        let expected: Vec<f64> = subspaces.iter().map(|&s| va.od(&q, k, s, Some(0))).collect();
        for threads in [1usize, 3] {
            let mut ev = va.evaluator(&q, k, Some(0));
            prop_assert_eq!(ev.od_batch(&subspaces, threads), expected.clone());
        }
        let mut ev = va.evaluator(&q, k, Some(0));
        for (i, &s) in subspaces.iter().enumerate() {
            prop_assert_eq!(ev.od(s), expected[i]);
        }
    }
}
