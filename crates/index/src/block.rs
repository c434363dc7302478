//! Blocked all-points full-space OD kernel.
//!
//! Dataset-wide scans (`hos-core`'s `scan_outliers`, threshold
//! quantile estimation) need the full-space OD of **every** live point
//! — `n` independent queries that the per-query engines answer one at
//! a time, re-striding the row-major matrix and allocating a neighbour
//! list each. This kernel computes them together, in one of two modes:
//!
//! * **Sorted sweep with quantized admission** (`L1`/`L2`/`L∞` with
//!   sane magnitudes) — the live rows are ordered once by their `f32`
//!   value in the *sort column* (the column with the largest variance)
//!   and copied into half-width column-major companion columns in that
//!   order. Each query starts at its own position and walks outward,
//!   right then left, in [`SWEEP_LANES`] chunks: per chunk it folds a
//!   conservative *lower bound* on every candidate's pre-distance in
//!   registers, rejects the chunk (or single candidates) whose bound
//!   exceeds the top-k admission bound ([`TopK::bound`]) without
//!   touching the exact `f64` data, and runs the exact
//!   ascending-dimension fold only for the survivors. Before each
//!   chunk, the sort column's term alone is tested against the
//!   admission bound: once it loses, every candidate further out on
//!   that side loses too, so the side stops. See `DESIGN.md` §9 for
//!   the conservativeness and stop-rule proofs;
//!   [`quantized_lower_bounds`] exposes the bound computation for the
//!   property tests that pin it.
//! * **Exact fallback** (`Lp`, or magnitudes past the overflow
//!   guards) — the original blocked layout: the matrix is transposed
//!   once into column-major form ([`hos_data::Dataset::to_column_major`]),
//!   queries are processed in blocks of [`BLOCK`], and for each
//!   dimension (ascending) each query folds the whole column into its
//!   accumulator row. The inner loops are chunked [`LANES`] wide over
//!   *points* (each point's own dimension fold stays sequential), so
//!   they auto-vectorize without changing any per-pair op sequence.
//!
//! # Parallelism
//!
//! Queries are independent, so both modes split the queries into
//! contiguous slices — [`SLICES_PER_WORKER`] per [`crate::pool`]
//! worker — that the calling thread and the pool workers claim one at
//! a time ([`crate::pool::parallel_map`]). The exact fallback slices
//! the live ids in ascending order; the sweep slices them in sort
//! order, so consecutive queries of a slice walk overlapping windows
//! of the columns. Each slice owns its accumulator block (exact mode),
//! its [`TopK`] and its counters; the shared inputs (column-major
//! copies) are built once and only read. Per-slice `ods` are
//! concatenated (and, for the sweep, put back into ascending id order)
//! and counters summed, so the totals match the serial pass exactly.
//! More slices than threads means a thread that is preempted or slow
//! to wake leaves the remaining slices to the others, instead of a
//! static split waiting on its slowest half. A call from inside a pool
//! worker runs every slice serially (the pool's nesting rule), with the
//! same result.
//!
//! # Bit-identity
//!
//! Per `(query, point)` pair the fold is `accumulate(acc, |q_j - p_j|)`
//! over dimensions in ascending order starting from `0.0` — precisely
//! [`Metric::pre_dist_sub`] on the full space, the op sequence every
//! engine's scan performs (and every engine is pinned bit-identical to
//! `LinearScan`). Each query runs start to finish inside one slice, so
//! the slice split never touches a per-pair fold, a selection or a
//! sum. Chunking lanes span points, never dimensions, so
//! each pair's accumulator sequence is untouched; the sweep only
//! *skips* pairs that [`TopK::offer`]'s fast path would provably
//! reject (`lb > bound()` strict — a pair *at* the bound still folds,
//! because a smaller id ties into the heap). Selection and summation
//! go through the shared `(pre, id)` order, which does not depend on
//! the order candidates are visited in, so the ODs equal per-point
//! [`crate::knn::KnnEngine::od`] calls **bit for bit**; the tests here
//! assert that with `assert_eq!` across metrics and tombstones.
//!
//! # Errors and accounting
//!
//! Every ranked OD self-excludes, so fewer than `k` live candidates is
//! [`IndexError::InsufficientPoints`] — the same typed error the
//! checked per-point path (`try_od`) returns, instead of silently
//! understating every OD. [`all_points_full_od_counted`] additionally
//! reports `distance_evals` (exact pair folds) and `filtered`
//! (quantized-bound rejects and pairs past a side's stop); they always
//! satisfy `distance_evals + filtered == live * (live - 1)`. How the
//! two split depends on the visiting order — which candidates a query
//! meets before its heap tightens — the ODs do not.

use crate::error::IndexError;
use crate::pool::{parallel_map, pool_size};
use crate::topk::TopK;
use hos_data::{Dataset, Metric, PointId};

/// Query slices per pool worker in [`fan_out`]: enough that a
/// preempted or slow thread's share is picked up by the others, few
/// enough that per-slice setup (one accumulator block, one heap) stays
/// noise.
const SLICES_PER_WORKER: usize = 4;

/// Queries per block: big enough to amortise each column stream,
/// small enough that a block of accumulator rows stays cache-resident.
const BLOCK: usize = 32;

/// Chunk width of the point-lane inner loops (`f64` exact fold). Four
/// 64-bit lanes fill a 256-bit vector.
const LANES: usize = 4;

/// Chunk width of the sorted sweep: the lower bounds of one chunk are
/// folded in registers, and its min-tree retires all 16 candidates on
/// a single compare.
const SWEEP_LANES: usize = 16;

/// Per-term slack subtracted from a quantized gap, in units of the
/// column's magnitude scale: `2^-19`, a 32x margin over the worst-case
/// `~2^-24`-relative rounding of the two narrowing conversions and the
/// `f32` subtraction between them.
const QUANT_SLACK: f64 = 1.9073486328125e-6;

/// Multiplicative guard on a finished lower bound, per dimension:
/// covers the relative error of the `f32` square/accumulate arithmetic
/// (`~3 * 2^-24` per term, so `1e-6` per dimension is a wide margin).
const QUANT_GUARD_PER_DIM: f64 = 1e-6;

/// Magnitude ceiling for the quantized path: squaring must stay far
/// from `f32::MAX` (`~3.4e38`), so columns whose absolute values reach
/// `1e15` fall back to the exact kernel.
const QUANT_MAX_SCALE: f64 = 1e15;

/// Binds `$lane` to the metric's `f32` bound-accumulate step and
/// evaluates `$body` once per metric, so every sweep loop is
/// monomorphized with its step inlined: the metric dispatch sits
/// outside the loops, never inside them.
macro_rules! with_lane {
    ($metric:expr, $lane:ident => $body:expr) => {
        match $metric {
            Metric::L1 => {
                let $lane = |a: f32, t: f32| a + t;
                $body
            }
            Metric::L2 => {
                let $lane = |a: f32, t: f32| a + t * t;
                $body
            }
            Metric::LInf => {
                let $lane = |a: f32, t: f32| a.max(t);
                $body
            }
            Metric::Lp(_) => unreachable!("Lp never takes the quantized path"),
        }
    };
}

/// Result of [`all_points_full_od_counted`]: the ranked ODs plus the
/// kernel's work accounting.
#[derive(Clone, Debug)]
pub struct BlockedScan {
    /// `(id, full-space OD)` per live point, ascending id order.
    pub ods: Vec<(PointId, f64)>,
    /// Exact `f64` pair folds performed (live pairs only; the exact
    /// fallback folds every live pair, the sorted sweep only the
    /// admission survivors — how many depends on the order the sweep
    /// visits candidates in, the ODs do not).
    pub distance_evals: u64,
    /// Live pairs rejected without an exact fold: by the quantized
    /// lower bound, or by lying past the point where a sweep side
    /// stopped. `distance_evals + filtered == live * (live - 1)`.
    pub filtered: u64,
}

/// Full-space OD of every **live** point against the live remainder of
/// the dataset (each query excludes itself), as `(id, od)` pairs in
/// ascending id order. Bit-identical to
/// `engine.od(ds.row(i), k, full, Some(i))` per live `i` on any of the
/// exact engines.
///
/// # Errors
///
/// [`IndexError::InsufficientPoints`] when fewer than `k` live
/// candidates remain after self-exclusion (`available = live - 1`) —
/// aligned with the checked per-point path, which a caller mixing both
/// relies on.
pub fn all_points_full_od(
    ds: &Dataset,
    metric: Metric,
    k: usize,
) -> Result<Vec<(PointId, f64)>, IndexError> {
    all_points_full_od_counted(ds, metric, k).map(|scan| scan.ods)
}

/// [`all_points_full_od`] with work accounting — see [`BlockedScan`].
pub fn all_points_full_od_counted(
    ds: &Dataset,
    metric: Metric,
    k: usize,
) -> Result<BlockedScan, IndexError> {
    let available = ds.live_len().saturating_sub(1);
    if available < k {
        return Err(IndexError::InsufficientPoints { available, k });
    }
    let live: Vec<PointId> = ds.live_ids().collect();
    if live.is_empty() {
        return Ok(BlockedScan {
            ods: Vec::new(),
            distance_evals: 0,
            filtered: 0,
        });
    }
    Ok(match quantized_scales(metric, ds) {
        Some(scale) => scan_quantized(ds, metric, k, live, &scale),
        None => scan_exact(ds, metric, k, &live),
    })
}

/// Per-column magnitude scales (`max |v|` over every physical row)
/// when the quantized path is sound for this metric and dataset, else
/// `None`: `Lp` is excluded (`powf` admits no cheap order-safe lower
/// bound), as are magnitudes past [`QUANT_MAX_SCALE`].
fn quantized_scales(metric: Metric, ds: &Dataset) -> Option<Vec<f64>> {
    if let Metric::Lp(_) = metric {
        return None;
    }
    let mut scale = vec![0.0f64; ds.dim()];
    for i in 0..ds.len() {
        for (m, v) in scale.iter_mut().zip(ds.row(i)) {
            *m = m.max(v.abs());
        }
    }
    scale.iter().all(|&m| m < QUANT_MAX_SCALE).then_some(scale)
}

/// Conservative lower bounds on the full-space pre-distance from point
/// `q` to every *physical* row (tombstoned slots included; callers
/// filter), computed by the sweep's own column build and chunk fold —
/// or `None` when that path is inadmissible and the kernel runs exact.
///
/// Guarantee (pinned by the property tests): for every row `i`,
/// `bounds[i] <= metric.pre_dist_sub(ds.row(q), ds.row(i), full)`.
pub fn quantized_lower_bounds(ds: &Dataset, metric: Metric, q: PointId) -> Option<Vec<f64>> {
    if q >= ds.len() {
        return None;
    }
    let scale = quantized_scales(metric, ds)?;
    let cols = SortedColumns::new(ds, (0..ds.len()).collect(), &scale);
    let qv = cols.values(cols.pos[q]);
    let raw = with_lane!(metric, lane => cols.all_bounds(&qv, lane));
    let mut bounds = vec![0.0f64; ds.len()];
    for (&id, &lb) in cols.order.iter().zip(&raw) {
        bounds[id] = f64::from(lb) * cols.guard;
    }
    Some(bounds)
}

#[inline]
fn quant_guard(d: usize) -> f64 {
    (1.0 - d as f64 * QUANT_GUARD_PER_DIM).max(0.0)
}

/// Runs `scan` over contiguous slices of `queries`, claimed one at a
/// time by the caller and the pool workers, then concatenates the
/// `ods` in slice order and sums the counters — see the module docs'
/// Parallelism section.
fn fan_out<F>(queries: &[PointId], scan: F) -> BlockedScan
where
    F: Fn(&[PointId]) -> BlockedScan + Sync,
{
    let slice_len = queries.len().div_ceil(SLICES_PER_WORKER * pool_size());
    let parts = parallel_map(queries.chunks(slice_len), pool_size(), scan);
    let mut out = BlockedScan {
        ods: Vec::with_capacity(queries.len()),
        distance_evals: 0,
        filtered: 0,
    };
    for part in parts {
        out.ods.extend(part.ods);
        out.distance_evals += part.distance_evals;
        out.filtered += part.filtered;
    }
    out
}

/// Exact blocked kernel: every live pair is folded.
fn scan_exact(ds: &Dataset, metric: Metric, k: usize, live: &[PointId]) -> BlockedScan {
    let n = ds.len();
    let d = ds.dim();
    let cols = ds.to_column_major();
    let pairs_per_query = live.len() as u64 - 1;
    fan_out(live, |slice| {
        let mut ods = Vec::with_capacity(slice.len());
        let mut acc = vec![0.0f64; BLOCK.min(slice.len()) * n];
        let mut top = TopK::new(k);
        for block in slice.chunks(BLOCK) {
            let acc = &mut acc[..block.len() * n];
            acc.fill(0.0);
            // Ascending dimensions, exactly the pre_dist_sub fold order.
            for j in 0..d {
                let col = &cols[j * n..(j + 1) * n];
                for (row, &q) in acc.chunks_exact_mut(n).zip(block) {
                    fold_exact_column(metric, row, col, col[q]);
                }
            }
            for (row, &q) in acc.chunks_exact(n).zip(block) {
                top.reset(k);
                for (i, &pre) in row.iter().enumerate() {
                    if i == q || !ds.is_live(i) {
                        continue;
                    }
                    top.offer(pre, i);
                }
                // Ascending (pre, id) summation — the shared OD order.
                let od: f64 = top.sorted().iter().map(|c| metric.finish(c.pre)).sum();
                ods.push((q, od));
            }
        }
        BlockedScan {
            ods,
            distance_evals: slice.len() as u64 * pairs_per_query,
            filtered: 0,
        }
    })
}

/// Folds one exact `f64` column into a block-row of accumulators:
/// `row[i] = accumulate(row[i], |qv - col[i]|)`. Chunked [`LANES`]
/// wide over points — each slot's own dimension sequence is untouched,
/// so this is bit-identical to the scalar loop in any chunk order.
#[inline]
fn fold_exact_column(metric: Metric, row: &mut [f64], col: &[f64], qv: f64) {
    match metric {
        Metric::L1 => {
            let mut rc = row.chunks_exact_mut(LANES);
            let mut cc = col.chunks_exact(LANES);
            for (r, c) in (&mut rc).zip(&mut cc) {
                r[0] += (qv - c[0]).abs();
                r[1] += (qv - c[1]).abs();
                r[2] += (qv - c[2]).abs();
                r[3] += (qv - c[3]).abs();
            }
            for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                *r += (qv - p).abs();
            }
        }
        Metric::L2 => {
            // `g * g == |g| * |g|` bit for bit (IEEE multiplication is
            // sign-magnitude), so the abs is elided.
            let mut rc = row.chunks_exact_mut(LANES);
            let mut cc = col.chunks_exact(LANES);
            for (r, c) in (&mut rc).zip(&mut cc) {
                r[0] += (qv - c[0]) * (qv - c[0]);
                r[1] += (qv - c[1]) * (qv - c[1]);
                r[2] += (qv - c[2]) * (qv - c[2]);
                r[3] += (qv - c[3]) * (qv - c[3]);
            }
            for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                *r += (qv - p) * (qv - p);
            }
        }
        Metric::LInf => {
            let mut rc = row.chunks_exact_mut(LANES);
            let mut cc = col.chunks_exact(LANES);
            for (r, c) in (&mut rc).zip(&mut cc) {
                r[0] = r[0].max((qv - c[0]).abs());
                r[1] = r[1].max((qv - c[1]).abs());
                r[2] = r[2].max((qv - c[2]).abs());
                r[3] = r[3].max((qv - c[3]).abs());
            }
            for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                *r = r.max((qv - p).abs());
            }
        }
        Metric::Lp(p) => {
            // powf dominates; chunking buys nothing here.
            for (r, &pv) in row.iter_mut().zip(col) {
                *r += (qv - pv).abs().powf(p);
            }
        }
    }
}

/// One conservative `f32` gap term: the quantized gap less the
/// column's rounding slack, floored at zero, so it never exceeds the
/// exact `f64` gap `|q_j - p_j|`. Monotone in `|qv - v|`.
#[inline(always)]
fn gap_term(qv: f32, v: f32, slack: f32) -> f32 {
    ((qv - v).abs() - slack).max(0.0)
}

/// Lanewise minimum of one chunk of bounds, as a branch-free min-tree.
#[inline(always)]
fn chunk_min(c: &[f32; SWEEP_LANES]) -> f32 {
    let mut m = [0.0f32; SWEEP_LANES / 2];
    for j in 0..SWEEP_LANES / 2 {
        m[j] = if c[j] < c[j + SWEEP_LANES / 2] {
            c[j]
        } else {
            c[j + SWEEP_LANES / 2]
        };
    }
    let mut width = SWEEP_LANES / 2;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            m[j] = if m[j] < m[j + width] {
                m[j]
            } else {
                m[j + width]
            };
        }
    }
    m[0]
}

/// The sweep's `f32` companion columns: the rows of a set of points,
/// ordered along the sort column and transposed, plus the per-column
/// rounding slack.
struct SortedColumns {
    /// Points in sweep order: ascending `f32` value in column `s`
    /// (`total_cmp`), ties by ascending id.
    order: Vec<PointId>,
    /// `pos[id]` = position of `id` in `order` (ids not in `order`
    /// keep a meaningless `0`).
    pos: Vec<usize>,
    /// `cols[j * m + r]` = value of `order[r]` in dimension `j`,
    /// rounded to the nearest `f32` (`m = order.len()`).
    cols: Vec<f32>,
    /// `slack[j]` = `scale[j] * QUANT_SLACK`, the per-term slack that
    /// keeps [`gap_term`] below the exact gap.
    slack: Vec<f32>,
    /// The sort column: largest variance over `order`, ties to the
    /// lower index.
    s: usize,
    /// [`quant_guard`] for the dataset's dimensionality.
    guard: f64,
}

impl SortedColumns {
    /// Sorts `ids` along the widest column and builds the one `f32`
    /// copy in that order. `scale` must bound `|v|` over every row in
    /// `ids`, per column ([`quantized_scales`]).
    fn new(ds: &Dataset, mut ids: Vec<PointId>, scale: &[f64]) -> Self {
        let d = ds.dim();
        let s = widest_column(ds, &ids);
        let key = |i: PointId| ds.get(i, s) as f32;
        ids.sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
        let m = ids.len();
        let mut pos = vec![0usize; ds.len()];
        let mut cols = vec![0.0f32; m * d];
        for (r, &id) in ids.iter().enumerate() {
            pos[id] = r;
            for (j, &v) in ds.row(id).iter().enumerate() {
                cols[j * m + r] = v as f32;
            }
        }
        SortedColumns {
            order: ids,
            pos,
            cols,
            slack: scale.iter().map(|&m| (m * QUANT_SLACK) as f32).collect(),
            s,
            guard: quant_guard(d),
        }
    }

    /// Column `j` in sweep order.
    #[inline(always)]
    fn col(&self, j: usize) -> &[f32] {
        let m = self.order.len();
        &self.cols[j * m..(j + 1) * m]
    }

    /// The `f32` values of the point at position `r`, one per column.
    fn values(&self, r: usize) -> Vec<f32> {
        (0..self.slack.len()).map(|j| self.col(j)[r]).collect()
    }

    /// Unguarded lower bounds of the [`SWEEP_LANES`] points at
    /// positions `r0..r0 + SWEEP_LANES` against query values `qv`:
    /// lane `l` folds `lane(acc, gap_term(..))` over ascending
    /// dimensions from `0.0`, in registers.
    #[inline(always)]
    fn chunk_bounds<L: Fn(f32, f32) -> f32>(
        &self,
        qv: &[f32],
        r0: usize,
        lane: L,
    ) -> [f32; SWEEP_LANES] {
        let mut acc = [0.0f32; SWEEP_LANES];
        for (j, (&q, &slack)) in qv.iter().zip(&self.slack).enumerate() {
            let c = &self.col(j)[r0..r0 + SWEEP_LANES];
            for (a, &v) in acc.iter_mut().zip(c) {
                *a = lane(*a, gap_term(q, v, slack));
            }
        }
        acc
    }

    /// [`SortedColumns::chunk_bounds`] for the single point at
    /// position `r` — the same per-lane op sequence, so the same bits.
    #[inline(always)]
    fn point_bound<L: Fn(f32, f32) -> f32>(&self, qv: &[f32], r: usize, lane: L) -> f32 {
        let mut acc = 0.0f32;
        for (j, (&q, &slack)) in qv.iter().zip(&self.slack).enumerate() {
            acc = lane(acc, gap_term(q, self.col(j)[r], slack));
        }
        acc
    }

    /// Unguarded bounds at every position, through the same chunk and
    /// tail folds the sweep runs.
    fn all_bounds<L: Fn(f32, f32) -> f32 + Copy>(&self, qv: &[f32], lane: L) -> Vec<f32> {
        let m = self.order.len();
        let full = m - m % SWEEP_LANES;
        let mut out = Vec::with_capacity(m);
        for r0 in (0..full).step_by(SWEEP_LANES) {
            out.extend(self.chunk_bounds(qv, r0, lane));
        }
        out.extend((full..m).map(|r| self.point_bound(qv, r, lane)));
        out
    }

    /// The OD of the point `q` and its exact-fold count: a sweep from
    /// its own position outward, right then left.
    ///
    /// Along either side the sort column's term `t_s` never decreases
    /// (the `f32` values are sorted and rounding is monotone), and the
    /// full bound of any candidate is `>= lane(0, t_s)` (every term is
    /// `>= 0` and each step is monotone). So once `lane(0, t_s)` at the
    /// nearest candidate of the next chunk fails the strict admission
    /// test, every candidate from there out fails it too — and the
    /// admission bound `w` only shrinks — so that side stops.
    fn sweep<L: Fn(f32, f32) -> f32 + Copy>(
        &self,
        ds: &Dataset,
        metric: Metric,
        q: PointId,
        top: &mut TopK,
        lane: L,
    ) -> (f64, u64) {
        let m = self.order.len();
        let p = self.pos[q];
        let qv = &self.values(p);
        let (col_s, qs, slack_s) = (self.col(self.s), qv[self.s], self.slack[self.s]);
        let (qrow, guard) = (ds.row(q), self.guard);
        let mut evals = 0u64;
        let mut w = top.bound();
        let stops =
            |r: usize, w: f64| f64::from(lane(0.0, gap_term(qs, col_s[r], slack_s))) * guard > w;
        // Strict reject only — `offer` provably drops any pre above
        // the bound, and `lb * guard <= pre`; a pair *at* the bound can
        // still tie in on a smaller id.
        let mut admit = |lbs: &[f32], r0: usize, w: f64, top: &mut TopK| {
            for (l, &lb) in lbs.iter().enumerate() {
                if f64::from(lb) * guard <= w {
                    let id = self.order[r0 + l];
                    top.offer(exact_pre(metric, qrow, ds.row(id)), id);
                    evals += 1;
                }
            }
            top.bound()
        };
        let mut r = p + 1;
        while r < m && !stops(r, w) {
            if r + SWEEP_LANES <= m {
                let lbs = self.chunk_bounds(qv, r, lane);
                if f64::from(chunk_min(&lbs)) * guard <= w {
                    w = admit(&lbs, r, w, top);
                }
                r += SWEEP_LANES;
            } else {
                w = admit(&[self.point_bound(qv, r, lane)], r, w, top);
                r += 1;
            }
        }
        // Left: `r` is the exclusive end of the next chunk.
        let mut r = p;
        while r > 0 && !stops(r - 1, w) {
            if r >= SWEEP_LANES {
                r -= SWEEP_LANES;
                let lbs = self.chunk_bounds(qv, r, lane);
                if f64::from(chunk_min(&lbs)) * guard <= w {
                    w = admit(&lbs, r, w, top);
                }
            } else {
                r -= 1;
                w = admit(&[self.point_bound(qv, r, lane)], r, w, top);
            }
        }
        // Ascending (pre, id) summation — the shared OD order.
        let od: f64 = top.sorted().iter().map(|c| metric.finish(c.pre)).sum();
        (od, evals)
    }
}

/// The column with the largest variance over `ids` (exact `f64`, two
/// passes), ties to the lower index.
fn widest_column(ds: &Dataset, ids: &[PointId]) -> usize {
    let d = ds.dim();
    let mut mean = vec![0.0f64; d];
    for &i in ids {
        for (m, &v) in mean.iter_mut().zip(ds.row(i)) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= ids.len() as f64;
    }
    let mut var = vec![0.0f64; d];
    for &i in ids {
        for ((s, &v), &m) in var.iter_mut().zip(ds.row(i)).zip(&mean) {
            *s += (v - m) * (v - m);
        }
    }
    let mut best = 0;
    for (j, &v) in var.iter().enumerate() {
        if v > var[best] {
            best = j;
        }
    }
    best
}

/// Sorted-sweep kernel: one sort and one `f32` column copy per scan,
/// then per query an outward sweep that folds exact `f64` only for
/// candidates the quantized bound cannot reject. Dead rows are absent
/// from the order, so the sweep never branches on liveness; `filtered`
/// is the arithmetic complement `live - 1 - evals` per query.
fn scan_quantized(
    ds: &Dataset,
    metric: Metric,
    k: usize,
    live: Vec<PointId>,
    scale: &[f64],
) -> BlockedScan {
    let cols = SortedColumns::new(ds, live, scale);
    let pairs_per_query = cols.order.len() as u64 - 1;
    let mut out = with_lane!(metric, lane => fan_out(&cols.order, |slice| {
        let mut ods = Vec::with_capacity(slice.len());
        let mut top = TopK::new(k);
        let mut evals = 0u64;
        for &q in slice {
            top.reset(k);
            let (od, q_evals) = cols.sweep(ds, metric, q, &mut top, lane);
            ods.push((q, od));
            evals += q_evals;
        }
        BlockedScan {
            ods,
            distance_evals: evals,
            filtered: slice.len() as u64 * pairs_per_query - evals,
        }
    }));
    out.ods.sort_unstable_by_key(|&(id, _)| id);
    out
}

/// Exact full-space pre-distance of one pair: the ascending-dimension
/// `accumulate` fold from `0.0` — the shared op sequence (row-major
/// here, column-major in [`scan_exact`]; same values, same order).
#[inline]
fn exact_pre(metric: Metric, q: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (a, b) in q.iter().zip(p) {
        acc = metric.accumulate(acc, (a - b).abs());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{build_engine, Engine};
    use crate::sharded::build_engine_sharded;
    use hos_data::Subspace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        // Coarse grid: exact distance ties exercise the (pre, id)
        // tie-break through the blocked selection too.
        let flat: Vec<f64> = (0..n * d)
            .map(|_| (rng.gen_range(0..9) as f64) * 0.5)
            .collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn bit_identical_to_per_point_engine_queries() {
        // 70 points spans multiple blocks (BLOCK = 32), so block
        // boundaries are exercised; L1/L2/LInf run the quantized
        // admission path, Lp the exact fallback.
        let ds = dataset(70, 4, 1);
        let full = Subspace::full(4);
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let blocked = all_points_full_od(&ds, metric, 5).unwrap();
            assert_eq!(blocked.len(), 70);
            for kind in [Engine::Linear, Engine::XTree] {
                let engine = build_engine(kind, ds.clone(), metric);
                for &(i, od) in &blocked {
                    assert_eq!(
                        od,
                        engine.od(ds.row(i), 5, full, Some(i)),
                        "{metric:?} {kind} point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn tombstones_skip_both_sides() {
        let mut ds = dataset(40, 3, 2);
        for id in [0usize, 13, 39] {
            ds.remove_row(id).unwrap();
        }
        let blocked = all_points_full_od(&ds, Metric::L2, 4).unwrap();
        // Dead rows neither rank nor serve as neighbours.
        assert_eq!(blocked.len(), 37);
        assert!(blocked.iter().all(|&(i, _)| ds.is_live(i)));
        let engine = build_engine_sharded(Engine::Linear, ds.clone(), Metric::L2, 3, 2);
        for &(i, od) in &blocked {
            assert_eq!(
                od,
                engine.od(ds.row(i), 4, Subspace::full(3), Some(i)),
                "point {i}"
            );
        }
    }

    /// Too few live candidates is the same typed error — with the
    /// same `available` accounting — that every engine's checked
    /// per-point path returns, not a silently short-k OD.
    #[test]
    fn insufficient_points_aligns_with_engines() {
        let empty = Dataset::empty();
        assert_eq!(
            all_points_full_od(&empty, Metric::L2, 3).unwrap_err(),
            IndexError::InsufficientPoints { available: 0, k: 3 }
        );
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(
            all_points_full_od(&one, Metric::L2, 3).unwrap_err(),
            IndexError::InsufficientPoints { available: 0, k: 3 }
        );
        let mut ds = dataset(8, 2, 3);
        for id in [1usize, 4, 6] {
            ds.remove_row(id).unwrap();
        }
        // 5 live, self-excluding queries see 4 candidates.
        let err = all_points_full_od(&ds, Metric::L2, 5).unwrap_err();
        assert_eq!(err, IndexError::InsufficientPoints { available: 4, k: 5 });
        for kind in [Engine::Linear, Engine::XTree] {
            let engine = build_engine(kind, ds.clone(), Metric::L2);
            let per_point = engine
                .try_od(ds.row(0), 5, Subspace::full(2), Some(0))
                .unwrap_err();
            assert_eq!(err, per_point, "{kind}");
        }
        // k == available is the boundary that still succeeds.
        assert_eq!(all_points_full_od(&ds, Metric::L2, 4).unwrap().len(), 5);
    }

    #[test]
    fn small_and_zero_k_edges() {
        // k = 0 stays OD 0 for every live point, never an error.
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(
            all_points_full_od(&one, Metric::L2, 0).unwrap(),
            vec![(0, 0.0)]
        );
        let two = Dataset::from_rows(&[vec![0.0], vec![3.0]]).unwrap();
        assert_eq!(
            all_points_full_od(&two, Metric::L1, 1).unwrap(),
            vec![(0, 3.0), (1, 3.0)]
        );
    }

    /// The counted kernel's accounting is exact on both paths:
    /// `distance_evals + filtered == live * (live - 1)`, and the
    /// quantized path actually filters on clustered data.
    #[test]
    fn counted_accounting_covers_every_live_pair() {
        let mut rng = StdRng::seed_from_u64(9);
        // Two tight clusters far apart: most cross-cluster pairs lose
        // to within-cluster neighbours, so admission has real rejects.
        let flat: Vec<f64> = (0..90 * 3)
            .map(|i| {
                let base = if (i / 3) < 45 { 0.0 } else { 1000.0 };
                base + rng.gen_range(0..100) as f64 * 0.01
            })
            .collect();
        let mut ds = Dataset::from_flat(flat, 3).unwrap();
        ds.remove_row(7).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let scan = all_points_full_od_counted(&ds, metric, 4).unwrap();
            let live = ds.live_len() as u64;
            assert_eq!(
                scan.distance_evals + scan.filtered,
                live * (live - 1),
                "{metric:?}"
            );
            match metric {
                Metric::Lp(_) => assert_eq!(scan.filtered, 0, "exact fallback never filters"),
                _ => assert!(
                    scan.filtered > scan.distance_evals,
                    "{metric:?}: clustered data should reject most pairs, \
                     got evals={} filtered={}",
                    scan.distance_evals,
                    scan.filtered
                ),
            }
            // Counting never changes the answer.
            assert_eq!(scan.ods, all_points_full_od(&ds, metric, 4).unwrap());
        }
    }

    /// The public bound API: conservative against the exact pre-fold
    /// on every physical row, and `None` exactly when the kernel runs
    /// the exact fallback.
    #[test]
    fn quantized_bounds_are_conservative() {
        let ds = dataset(60, 5, 4);
        let full = Subspace::full(5);
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let lb = quantized_lower_bounds(&ds, metric, 11).unwrap();
            assert_eq!(lb.len(), 60);
            for (i, &b) in lb.iter().enumerate() {
                let exact = metric.pre_dist_sub(ds.row(11), ds.row(i), full);
                assert!(b <= exact, "{metric:?} i={i}: lb {b} > exact {exact}");
            }
        }
        assert!(quantized_lower_bounds(&ds, Metric::Lp(3.0), 11).is_none());
        let huge = Dataset::from_rows(&[vec![0.0], vec![2.0e15]]).unwrap();
        assert!(quantized_lower_bounds(&huge, Metric::L2, 0).is_none());
        // The kernel's fallback on such data is still bit-exact.
        let scan = all_points_full_od_counted(&huge, Metric::L2, 1).unwrap();
        assert_eq!(scan.filtered, 0);
        assert_eq!(scan.ods, vec![(0, 2.0e15), (1, 2.0e15)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stop rule's lemma, for every ordered pair, every column
        /// and L1/L2/L∞, at magnitudes up to just under
        /// [`QUANT_MAX_SCALE`]: the lone term `lane(0, t_j)` never
        /// exceeds the pair's full unguarded bound (compared as `f32`,
        /// no tolerance); the sort column's term never decreases
        /// walking outward from any position; and the guarded bound
        /// stays below the exact pre-distance — also when the points
        /// sit far off zero, closer together than one `f32` ulp of
        /// their magnitude.
        #[test]
        fn stop_term_never_exceeds_the_pair_bound(
            rows in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 2..40),
            exp in 0i32..15,
            mantissa in 1.0f64..6.5,
            offset in prop_oneof![Just(0.0f64), Just(0.5)],
            spread_exp in 0i32..10,
        ) {
            // |value| <= 6.5e14 * 1.5 < QUANT_MAX_SCALE.
            let magnitude = mantissa * 10f64.powi(exp);
            let spread = 10f64.powi(-spread_exp);
            let rows: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r.iter().map(|v| magnitude * (offset + v * spread)).collect())
                .collect();
            let ds = Dataset::from_rows(&rows).unwrap();
            for metric in [Metric::L1, Metric::L2, Metric::LInf] {
                let scale = quantized_scales(metric, &ds).expect("below QUANT_MAX_SCALE");
                let cols = SortedColumns::new(&ds, (0..ds.len()).collect(), &scale);
                let m = cols.order.len();
                for p in 0..m {
                    let qv = cols.values(p);
                    let lbs = with_lane!(metric, lane => cols.all_bounds(&qv, lane));
                    let t = |j: usize, r: usize| gap_term(qv[j], cols.col(j)[r], cols.slack[j]);
                    for (r, &lb) in lbs.iter().enumerate() {
                        for j in 0..ds.dim() {
                            let alone = with_lane!(metric, lane => lane(0.0, t(j, r)));
                            prop_assert!(alone <= lb, "{metric:?} ({p},{r}) col {j}: {alone} > {lb}");
                        }
                        let exact = exact_pre(metric, ds.row(cols.order[p]), ds.row(cols.order[r]));
                        prop_assert!(f64::from(lb) * cols.guard <= exact, "{metric:?} ({p},{r})");
                    }
                    for r in p + 1..m - 1 {
                        prop_assert!(t(cols.s, r) <= t(cols.s, r + 1), "right of {p} at {r}");
                    }
                    for r in 1..p {
                        prop_assert!(t(cols.s, r - 1) >= t(cols.s, r), "left of {p} at {r}");
                    }
                }
            }
        }
    }
}
