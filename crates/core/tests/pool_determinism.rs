//! The dataset-wide full-space kernels return the same bits on the
//! worker pool's parallel path (a call from an ordinary thread, which
//! fans slices out as pool jobs) and on its serial nested path (a call
//! from inside a pool worker, where every parallel region runs inline).

use hos_core::ThresholdPolicy;
use hos_data::{Dataset, Metric};
use hos_index::pool::{in_worker, pool_size, run_scoped};
use hos_index::{all_points_full_od_counted, build_engine_sharded, Engine, LinearScan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` on a pool worker: a two-task region keeps its first task
/// on the caller and queues the second for the pool.
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

/// Grid-valued clusters (exact distance ties exercise the `(pre, id)`
/// tie-break) with tombstones at both ends and across the middle.
fn dataset() -> Dataset {
    let (n, d) = (600, 5);
    let mut rng = StdRng::seed_from_u64(12);
    let flat: Vec<f64> = (0..n * d)
        .map(|i| {
            let base = if (i / d) % 3 == 0 { 40.0 } else { 0.0 };
            base + rng.gen_range(0..12) as f64 * 0.25
        })
        .collect();
    let mut ds = Dataset::from_flat(flat, d).unwrap();
    for id in [0, 1, 74, 75, 300, 301, 598, 599] {
        ds.remove_row(id).unwrap();
    }
    ds
}

#[test]
fn full_space_kernels_agree_on_parallel_and_nested_paths() {
    let ds = dataset();
    let live: Vec<usize> = ds.live_ids().collect();
    assert_eq!(
        live.first(),
        Some(&2),
        "first live id sits after tombstones"
    );
    assert_eq!(
        live.last(),
        Some(&597),
        "last live id sits before tombstones"
    );
    // At least four slices per worker: the live ids span many slices.
    assert!(live.len() >= 8 * pool_size());
    assert!(!in_worker());
    for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
        let parallel = all_points_full_od_counted(&ds, metric, 6).unwrap();
        let nested = in_pool_worker(|| all_points_full_od_counted(&ds, metric, 6).unwrap());
        let bits = |ods: &[(usize, f64)]| -> Vec<(usize, u64)> {
            ods.iter().map(|&(i, od)| (i, od.to_bits())).collect()
        };
        assert_eq!(bits(&parallel.ods), bits(&nested.ods), "{metric:?}");
        assert_eq!(
            parallel.ods.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            live,
            "{metric:?}: ids ascending, one per live point"
        );
        assert_eq!(parallel.distance_evals, nested.distance_evals, "{metric:?}");
        assert_eq!(parallel.filtered, nested.filtered, "{metric:?}");

        let policy = ThresholdPolicy::FullSpaceQuantile {
            q: 0.9,
            sample: 200,
        };
        let linear = LinearScan::new(ds.clone(), metric);
        let sharded = build_engine_sharded(Engine::Linear, ds.clone(), metric, 3, 2);
        for engine in [&linear as &dyn hos_index::KnnEngine, sharded.as_ref()] {
            let t_parallel = policy.resolve(engine, 6, 7).unwrap();
            let t_nested = in_pool_worker(|| policy.resolve(engine, 6, 7).unwrap());
            assert_eq!(t_parallel.to_bits(), t_nested.to_bits(), "{metric:?}");
        }
    }
}
