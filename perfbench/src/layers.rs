//! Calls into the miner's public functions, untraced and staged: the
//! staged versions run the same public steps one by one inside spans,
//! so their outcome must equal the one-call version bit for bit.

use crate::report::Report;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::{TracedEngine, Tracer};
use hos_core::{
    dynamic_search, minimal_subspaces, HosMiner, HosMinerConfig, LearnedModel, QueryOutcome,
    ScoredSubspace, SearchStats,
};
use hos_data::{Dataset, PointId, Subspace};
use hos_index::QueryContext;
use std::time::{Duration, Instant};

/// Largest share of a traced total that its named stages may leave
/// unattributed (the root span's self time).
pub const LEDGER_TOLERANCE: f64 = 0.05;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The miner configuration every workload uses: linear engine, k=5,
/// L2, default threshold, S=20, `threads = nproc`.
pub fn miner_config(seed: u64) -> HosMinerConfig {
    HosMinerConfig {
        threads: nproc(),
        seed,
        ..HosMinerConfig::default()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fits `reps` times from the same rows; returns the last miner and
/// each fit's wall time in seconds.
pub fn fit_reps(ds: &Dataset, config: HosMinerConfig, reps: usize) -> (HosMiner, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let rows = ds.clone();
        drop(last.take());
        let t = Instant::now();
        let miner = HosMiner::fit(rows, config).expect("fit succeeds on planted data");
        times.push(t.elapsed().as_secs_f64());
        last = Some(miner);
    }
    (last.expect("at least one fit"), times)
}

/// A query as the workloads issue it.
#[derive(Clone, Debug)]
pub enum Query {
    Member(PointId),
    Point(Vec<f64>),
}

pub fn run_query(miner: &HosMiner, q: &Query) -> hos_core::Result<QueryOutcome> {
    match q {
        Query::Member(id) => miner.query_id(*id),
        Query::Point(p) => miner.query_point(p),
    }
}

/// `od_evals + pruned_outlier + pruned_non_outlier == lattice_size`.
pub fn accounting_ok(s: &SearchStats) -> bool {
    s.od_evals + s.pruned_outlier + s.pruned_non_outlier == s.lattice_size
}

/// Checks a planted outlier's answer against the engine's own ODs:
/// every reported minimal subspace is outlying and none of its
/// one-smaller subsets is; and when the planted target is outlying (the
/// generator's targets are intended, not guaranteed, ground truth), a
/// reported minimal subspace lies inside it. Returns `(ok, target is
/// outlying)`.
pub fn planted_ok(
    miner: &HosMiner,
    id: PointId,
    target: Subspace,
    minimal: &[Subspace],
) -> (bool, bool) {
    let engine = miner.engine();
    let row = engine.dataset().row(id);
    let (k, t) = (miner.config().k, miner.threshold());
    let od = |s: Subspace| engine.od(row, k, s, Some(id));
    let minimal_ok = minimal.iter().all(|&m| {
        let dims: Vec<usize> = m.dims().collect();
        od(m) >= t
            && (0..dims.len()).all(|skip| {
                let rest: Vec<usize> = dims
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &d)| d)
                    .collect();
                rest.is_empty() || od(Subspace::from_dims(&rest)) < t
            })
    });
    let target_outlying = od(target) >= t;
    let covered = minimal.iter().any(|m| m.mask() & !target.mask() == 0);
    (minimal_ok && (covered || !target_outlying), target_outlying)
}

/// One staged, traced query.
pub struct StagedQuery {
    pub outlying: Vec<ScoredSubspace>,
    pub minimal: Vec<Subspace>,
    pub stats: SearchStats,
    pub total: Duration,
    pub validate: Duration,
    pub search: Duration,
    pub filter: Duration,
    pub od_batch: Duration,
    pub od_batch_calls: usize,
}

impl StagedQuery {
    /// Bit-identical to `out`, wall-clock seconds aside.
    pub fn same_as(&self, out: &QueryOutcome) -> bool {
        let bits = |v: &[ScoredSubspace]| -> Vec<(u64, Option<u64>)> {
            v.iter()
                .map(|s| (s.subspace.mask(), s.od.map(f64::to_bits)))
                .collect()
        };
        let mut a = self.stats;
        let mut b = out.stats;
        a.seconds = 0.0;
        b.seconds = 0.0;
        bits(&self.outlying) == bits(&out.outlying) && self.minimal == out.minimal && a == b
    }
}

/// `query_id`/`query_point` as its public steps: the validation those
/// calls perform, `dynamic_search` over a [`TracedEngine`], then
/// `minimal_subspaces`. Spans: `core.query` > `core.validate`,
/// `core.search` > `index.od_batch`*, `core.filter`.
pub fn staged_query(
    miner: &HosMiner,
    q: &Query,
    tracer: &mut Tracer,
    parent: Option<usize>,
    op: u64,
) -> Result<StagedQuery, String> {
    let root = tracer.open("core.query", parent, op);
    let k = miner.config().k;
    let t = Instant::now();
    let ds = miner.engine().dataset();
    let (row, exclude) = match q {
        Query::Member(id) => {
            if *id >= ds.len() || !ds.is_live(*id) || ds.live_len() <= k {
                return Err(format!("member {id} is not queryable"));
            }
            (ds.row(*id).to_vec(), Some(*id))
        }
        Query::Point(p) => {
            if p.len() != ds.dim() || p.iter().any(|v| !v.is_finite()) || ds.live_len() < k {
                return Err("point is not queryable".into());
            }
            (p.clone(), None)
        }
    };
    let validate_end = Instant::now();
    tracer.record("core.validate", t, validate_end, Some(root), op);

    let engine = TracedEngine::new(miner.engine());
    let out = dynamic_search(
        &engine,
        &row,
        exclude,
        k,
        miner.threshold(),
        &miner.model().priors,
        miner.config().threads,
    );
    let search_end = Instant::now();
    let search_span = tracer.record("core.search", validate_end, search_end, Some(root), op);
    let batches = engine.take_batches();
    let mut od_batch = Duration::ZERO;
    for &(s, e) in &batches {
        od_batch += e - s;
        tracer.record("index.od_batch", s, e, Some(search_span), op);
    }

    let minimal = minimal_subspaces(&out.subspaces());
    let filter_end = Instant::now();
    tracer.record("core.filter", search_end, filter_end, Some(root), op);
    let total = tracer.close(root);
    Ok(StagedQuery {
        outlying: out.outlying,
        minimal,
        stats: out.stats,
        total,
        validate: validate_end - t,
        search: search_end - validate_end,
        filter: filter_end - search_end,
        od_batch,
        od_batch_calls: batches.len(),
    })
}

/// The distance-cache build alone, on the query's coordinates.
pub fn context_build(miner: &HosMiner, q: &Query) -> Duration {
    let ds = miner.engine().dataset();
    let row: &[f64] = match q {
        Query::Member(id) => ds.row(*id),
        Query::Point(p) => p,
    };
    let t = Instant::now();
    let ctx = QueryContext::build(ds, miner.engine().metric(), row);
    let d = t.elapsed();
    std::hint::black_box(ctx);
    d
}

/// `HosMiner::fit` as its public steps: engine build, threshold
/// resolution, learning. Spans: `setup` > `index.build`,
/// `core.threshold`, `core.learn`.
pub struct StagedSetup {
    pub total: Duration,
    pub build: Duration,
    pub threshold: Duration,
    pub learn: Duration,
    pub model: LearnedModel,
}

pub fn staged_setup(
    ds: Dataset,
    config: HosMinerConfig,
    tracer: &mut Tracer,
    op: u64,
) -> Result<StagedSetup, String> {
    let root = tracer.open("setup", None, op);
    let t0 = Instant::now();
    let engine = hos_index::build_engine_sharded(
        config.engine,
        ds,
        config.metric,
        config.shards,
        config.threads,
    );
    let t1 = Instant::now();
    let threshold = config
        .threshold
        .resolve(engine.as_ref(), config.k, config.seed)
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let model = hos_core::learning::learn_with_smoothing(
        engine.as_ref(),
        config.k,
        threshold,
        config.sample_size,
        config.seed.wrapping_add(1),
        config.threads,
        config.prior_smoothing,
    )
    .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    tracer.record("index.build", t0, t1, Some(root), op);
    tracer.record("core.threshold", t1, t2, Some(root), op);
    tracer.record("core.learn", t2, t3, Some(root), op);
    drop(engine);
    let total = tracer.close(root);
    Ok(StagedSetup {
        total,
        build: t1 - t0,
        threshold: t2 - t1,
        learn: t3 - t2,
        model,
    })
}

/// Same threshold and priors, bit for bit.
pub fn same_model(a: &LearnedModel, b: &LearnedModel) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.threshold.to_bits() == b.threshold.to_bits()
        && a.samples == b.samples
        && bits(a.priors.up_all()) == bits(b.priors.up_all())
        && bits(a.priors.down_all()) == bits(b.priors.down_all())
}

/// Traced setup of one workload: `reps` staged setups, each checked
/// against `miner`'s model, paired with the untraced fit times.
pub fn trace_setup(
    ds: &Dataset,
    config: HosMinerConfig,
    miner: &HosMiner,
    untraced_s: &[f64],
    reps: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut parts: [Vec<f64>; 5] = Default::default();
    for rep in 0..reps.max(1) {
        let staged = match staged_setup(ds.clone(), config, tracer, rep as u64) {
            Ok(s) => s,
            Err(e) => {
                report.check(false, || format!("staged setup failed: {e}"));
                continue;
            }
        };
        report.check(same_model(&staged.model, miner.model()), || {
            "staged setup learned a different model than HosMiner::fit".into()
        });
        let stages = staged.build + staged.threshold + staged.learn;
        parts[0].push(ms(staged.total));
        parts[1].push(ms(staged.build));
        parts[2].push(ms(staged.threshold));
        parts[3].push(ms(staged.learn));
        parts[4].push(ms(staged.total - stages));
        ledger_check(report, "setup", staged.total, staged.total - stages);
        report.set("core.learn_searches", staged.model.samples as f64);
    }
    if parts[0].is_empty() {
        return;
    }
    report.set("index.build_ms", median(&parts[1]));
    report.set("core.threshold_ms", median(&parts[2]));
    report.set("core.learn_ms", median(&parts[3]));
    report.set("setup.residual_ms", median(&parts[4]));
    let untraced_ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3).collect();
    report.info(
        "setup_traced_ms",
        median(&parts[0]),
        "ms",
        &format!("untraced fit median {:.3} ms", median(&untraced_ms)),
    );
}

/// The named stages must leave at most [`LEDGER_TOLERANCE`] of the
/// traced total unattributed.
pub fn ledger_check(report: &mut Report, what: &str, total: Duration, residual: Duration) {
    let share = residual.as_secs_f64() / total.as_secs_f64().max(1e-12);
    report.check(share <= LEDGER_TOLERANCE, || {
        format!(
            "{what} ledger: stages leave {:.2}% of {:.3} ms unattributed (tolerance {:.0}%)",
            share * 100.0,
            ms(total),
            LEDGER_TOLERANCE * 100.0
        )
    });
}

/// Per-query layer figures, accumulated over a traced pass.
#[derive(Default)]
pub struct QueryLedger {
    total: Vec<f64>,
    search: Vec<f64>,
    search_self: Vec<f64>,
    filter: Vec<f64>,
    validate: Vec<f64>,
    od_batch: Vec<f64>,
    context: Vec<f64>,
    calls: u64,
    nodes: u64,
    od_evals: u64,
    pruned_outlier: u64,
    pruned_non_outlier: u64,
    wasted: u64,
    rounds: u64,
    lattice: u64,
    od_batch_ns: f64,
    residual: Duration,
    traced_total: Duration,
}

impl QueryLedger {
    pub fn add(&mut self, s: &StagedQuery, context: Duration) {
        self.total.push(ms(s.total));
        self.search.push(ms(s.search));
        self.search_self
            .push(ms(s.search.saturating_sub(s.od_batch)));
        self.filter.push(ms(s.filter));
        self.validate.push(ms(s.validate));
        self.od_batch.push(ms(s.od_batch));
        self.context.push(ms(context));
        self.calls += s.od_batch_calls as u64;
        self.nodes += s.stats.nodes_visited;
        self.od_evals += s.stats.od_evals;
        self.pruned_outlier += s.stats.pruned_outlier;
        self.pruned_non_outlier += s.stats.pruned_non_outlier;
        self.wasted += s.stats.wasted_evals;
        self.rounds += u64::from(s.stats.rounds);
        self.lattice += s.stats.lattice_size;
        self.od_batch_ns += s.od_batch.as_secs_f64() * 1e9;
        self.residual += s.total.saturating_sub(s.validate + s.search + s.filter);
        self.traced_total += s.total;
    }

    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// Median traced query time, ms.
    pub fn median_total(&self) -> f64 {
        median(&self.total)
    }

    /// Writes the query and index-evaluator layer metrics and checks
    /// the query ledger (validate + search + filter + residual).
    pub fn emit(&self, report: &mut Report) {
        if self.total.is_empty() {
            return;
        }
        let n = self.total.len() as f64;
        let p = |v: &[f64], pct: f64| percentile(&sorted(v), pct);
        let t = |v: &[f64]| tail(&sorted(v), 99.0).map_or(p(v, 100.0), |t| t.value);
        report.set("core.query_p50_ms", p(&self.total, 50.0));
        report.set("core.query_p99_ms", t(&self.total));
        report.set("core.search_p50_ms", p(&self.search, 50.0));
        report.set("core.search_p99_ms", t(&self.search));
        report.set("core.search_self_ms", p(&self.search_self, 50.0));
        report.set("core.filter_ms", p(&self.filter, 50.0));
        report.set("core.validate_ms", p(&self.validate, 50.0));
        report.set("core.od_evals", self.od_evals as f64 / n);
        report.set("core.pruned_outlier", self.pruned_outlier as f64 / n);
        report.set(
            "core.pruned_non_outlier",
            self.pruned_non_outlier as f64 / n,
        );
        report.set("core.wasted_evals", self.wasted as f64 / n);
        report.set("core.rounds", self.rounds as f64 / n);
        report.set(
            "core.evaluated_frac",
            self.od_evals as f64 / self.lattice.max(1) as f64,
        );
        report.set("index.od_batch_p50_ms", p(&self.od_batch, 50.0));
        report.set("index.od_batch_p99_ms", t(&self.od_batch));
        report.set("index.od_batch_calls", self.calls as f64 / n);
        report.set("index.nodes_visited", self.nodes as f64 / n);
        report.set(
            "index.ns_per_node",
            if self.nodes == 0 {
                0.0
            } else {
                self.od_batch_ns / self.nodes as f64
            },
        );
        report.set("index.context_build_ms", p(&self.context, 50.0));
        ledger_check(report, "query", self.traced_total, self.residual);
    }
}
