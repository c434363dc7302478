//! Seeded inputs: the planted data set and the benchmark's own random
//! streams (query order, point queries, arrivals, written rows).

use crate::spec;
use hos_data::synth::planted::{generate, PlantedSpec, PlantedWorkload};
use hos_data::Subspace;

/// SplitMix64: a small, fast, fully determined stream per seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with the given rate (Poisson inter-arrival gap).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The planted data set of `workload` (`n` rows in total, the planted
/// outliers last), each outlier displaced inside a seeded 2- or 3-dim
/// target subspace.
pub fn planted(workload: &str, seed: u64) -> PlantedWorkload {
    let key = |k: &str| format!("workloads.{workload}.{k}");
    let n = spec::count(&key("n"));
    let d = spec::count(&key("d"));
    let planted = spec::count(&key("planted"));
    let mut rng = Rng::new(seed, 1);
    let targets = (0..planted)
        .map(|_| {
            let size = 2 + rng.below(2);
            let mut dims: Vec<usize> = (0..d).collect();
            rng.shuffle(&mut dims);
            Subspace::from_dims(&dims[..size])
        })
        .collect();
    generate(&PlantedSpec {
        n_background: n - planted,
        d,
        n_clusters: spec::count("planted.clusters"),
        cluster_sigma: spec::num("planted.sigma"),
        extent: spec::num("planted.extent"),
        targets,
        shift_sigmas: spec::num("planted.shift_sigmas"),
        seed,
    })
    .expect("planted spec is valid")
}

/// A row near the data: `row` jittered by `sigma` in every dimension.
pub fn jitter(row: &[f64], sigma: f64, rng: &mut Rng) -> Vec<f64> {
    row.iter().map(|v| v + sigma * rng.normal()).collect()
}
