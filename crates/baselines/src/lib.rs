//! # hos-baselines
//!
//! Every comparator the paper's demo plan (part 3) and introduction
//! reference, implemented from their original descriptions:
//!
//! * [`exhaustive`] — brute-force lattice evaluation plus
//!   single-direction pruning ablations. Doubles as the **exact
//!   ground-truth oracle** for effectiveness experiments.
//! * [`evolutionary`] — Aggarwal & Yu's evolutionary sparse-subspace
//!   outlier search (SIGMOD'00, the paper's reference \[1\] and the
//!   comparison target of the demo).
//! * [`lof`] — Local Outlier Factor (reference \[3\]); `top_lof` also
//!   covers Jin et al.'s top-n local outliers (reference \[4\]).
//! * [`knn_outlier`] — Ramaswamy et al.'s top-n kth-NN-distance
//!   outliers (reference \[8\]).
//! * [`db_outlier`] — Knorr & Ng's distance-based DB(pct, dmin)
//!   outliers (reference \[5\]).
//! * [`intensional`] — Knorr & Ng's intensional knowledge: strongest
//!   outlying spaces, strongest/weak outliers (reference \[6\], the
//!   paper's named "space → outliers" contrast).
//! * [`loci`] — LOCI, the Local Correlation Integral detector
//!   (reference \[7\]).
//! * [`vafile`] — the VA-file (Weber, Schek, Blott, VLDB'98), the
//!   scan-based index philosophy experiment E7 sets against the
//!   X-tree: a fit-once exact k-NN engine, not one of the
//!   `hos_index::Engine` choices.

pub mod db_outlier;
pub mod evolutionary;
pub mod exhaustive;
pub mod intensional;
pub mod knn_outlier;
pub mod loci;
pub mod lof;
pub mod vafile;

pub use evolutionary::{evolutionary_search, EvoConfig, SparseCube};
pub use exhaustive::{exhaustive_search, ExhaustiveMode};
pub use vafile::{VaFile, VaFileConfig};
