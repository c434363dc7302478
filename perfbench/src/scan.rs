//! `scan-rank`: repeated `scan_outliers(miner, 20)`, the call behind
//! `hos-miner scan --top 20`, on n=30000, d=8.

use crate::gen;
use crate::layers::{self, Query, QueryLedger};
use crate::report::Report;
use crate::spec;
use crate::stats::median;
use crate::trace::Tracer;
use hos_core::{HosMiner, ScanReport};
use hos_data::PointId;
use std::time::{Duration, Instant};

const W: &str = "scan-rank";

/// Checks one report: the ranking kernel covered every live ordered
/// pair, hits are sorted and at or above T, and each hit's ranked OD
/// equals the engine's own full-space OD to the bit.
fn check_scan(miner: &HosMiner, r: &ScanReport, top: usize, report: &mut Report) -> bool {
    let engine = miner.engine();
    let ds = engine.dataset();
    let live = ds.live_len() as u64;
    let mut ok = report.check(
        r.ranking_evals + r.ranking_filtered == live * (live - 1),
        || {
            format!(
                "ranking covered {} + {} pairs, expected {}",
                r.ranking_evals,
                r.ranking_filtered,
                live * (live - 1)
            )
        },
    );
    ok &= report.check(!r.hits.is_empty() && r.hits.len() <= top, || {
        format!("{} hits for top {top}", r.hits.len())
    });
    ok &= report.check(
        r.hits.windows(2).all(|p| p[0].full_od >= p[1].full_od)
            && r.hits.iter().all(|h| h.full_od >= r.threshold),
        || "hits unsorted or below the threshold".into(),
    );
    let (k, full) = (miner.config().k, ds.full_space());
    for h in &r.hits {
        let od = engine.od(ds.row(h.id), k, full, Some(h.id));
        ok &= report.check(od.to_bits() == h.full_od.to_bits(), || {
            format!(
                "ranked OD of {} is {} but the engine says {od}",
                h.id, h.full_od
            )
        });
        ok &= report.check(layers::accounting_ok(&h.outcome.stats), || {
            format!("hit {} broke the lattice accounting", h.id)
        });
    }
    ok
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let w = gen::planted(W, seed);
    let config = layers::miner_config(seed);
    let reps = spec::count(&format!("workloads.{W}.setup_reps"));
    let top = spec::count(&format!("workloads.{W}.top"));
    let min_scans = spec::count(&format!("workloads.{W}.min_scans"));
    let (miner, setup) = layers::fit_reps(&w.dataset, config, reps);

    if trace {
        let mut tracer = Tracer::new();
        layers::trace_setup(
            &w.dataset,
            config,
            &miner,
            &setup,
            reps,
            &mut tracer,
            report,
        );
        traced_pass(&miner, top, seconds, min_scans, &mut tracer, report);
        crate::write_trace(&tracer, W);
        return;
    }

    report.set("setup_s", median(&setup));
    let mut walls = Vec::new();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    while start.elapsed() < limit || walls.len() < min_scans {
        let t = Instant::now();
        let r = hos_core::scan_outliers(&miner, top);
        walls.push(t.elapsed().as_secs_f64());
        let ok = match &r {
            Ok(r) => check_scan(&miner, r, top, report),
            Err(e) => report.check(false, || format!("scan failed: {e}")),
        };
        report.tally.record(ok);
    }
    let live = miner.live_len() as f64;
    let p50 = median(&walls);
    report.set("work_per_s", live / p50);
    let n = format!("scans={}", walls.len());
    report.info("scan_ms", p50 * 1e3, "ms", &n);
    report.info("scan_rows_per_s", live / p50, "rows/s", &n);
}

/// `scan_outliers` as its public steps: the blocked kernel, the
/// descending sort, then a staged query per hit. Spans: `core.scan` >
/// `index.block_scan`, `core.query`*.
struct StagedScan {
    total: Duration,
    block: Duration,
    hits: Duration,
    ranked: Vec<(PointId, f64)>,
    queries: Vec<layers::StagedQuery>,
    evals: u64,
    filtered: u64,
    truncated: usize,
}

fn staged_scan(
    miner: &HosMiner,
    top: usize,
    tracer: &mut Tracer,
    op: u64,
) -> Result<StagedScan, String> {
    let root = tracer.open("core.scan", None, op);
    let engine = miner.engine();
    let t = Instant::now();
    let scan =
        hos_index::all_points_full_od_counted(engine.dataset(), engine.metric(), miner.config().k)
            .map_err(|e| e.to_string())?;
    let block_end = Instant::now();
    tracer.record("index.block_scan", t, block_end, Some(root), op);
    let mut ranked = scan.ods;
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    let threshold = miner.threshold();
    let mut queries = Vec::new();
    let mut hits = Duration::ZERO;
    let mut truncated = 0;
    for &(id, _) in ranked.iter().take_while(|(_, od)| *od >= threshold) {
        if queries.len() >= top {
            truncated += 1;
            continue;
        }
        let q = layers::staged_query(miner, &Query::Member(id), tracer, Some(root), op)?;
        hits += q.total;
        queries.push(q);
    }
    ranked.truncate(queries.len());
    let total = tracer.close(root);
    Ok(StagedScan {
        total,
        block: block_end - t,
        hits,
        ranked,
        queries,
        evals: scan.distance_evals,
        filtered: scan.filtered,
        truncated,
    })
}

fn same_scan(s: &StagedScan, r: &ScanReport) -> bool {
    s.evals == r.ranking_evals
        && s.filtered == r.ranking_filtered
        && s.truncated == r.truncated
        && s.ranked.len() == r.hits.len()
        && s.ranked
            .iter()
            .zip(&s.queries)
            .zip(&r.hits)
            .all(|((rank, q), h)| {
                rank.0 == h.id && rank.1.to_bits() == h.full_od.to_bits() && q.same_as(&h.outcome)
            })
}

/// Pairs of one `scan_outliers` call and one staged scan, alternating
/// which runs first.
fn traced_pass(
    miner: &HosMiner,
    top: usize,
    seconds: f64,
    min_scans: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut ledger = QueryLedger::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut block, mut hit_ms, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let (mut folds, mut filtered, mut hits) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while start.elapsed() < limit || untraced.len() < min_scans {
        let plain = |m: &HosMiner| {
            let t = Instant::now();
            let r = hos_core::scan_outliers(m, top);
            (r, t.elapsed())
        };
        let (p, s) = if i.is_multiple_of(2) {
            let p = plain(miner);
            (p, staged_scan(miner, top, tracer, i))
        } else {
            let s = staged_scan(miner, top, tracer, i);
            (plain(miner), s)
        };
        i += 1;
        let ok = match (&p.0, &s) {
            (Ok(r), Ok(s)) => check_scan(miner, r, top, report) && same_scan(s, r),
            _ => false,
        };
        report.tally.record(ok);
        report.check(ok, || "traced scan differs from scan_outliers".into());
        untraced.push(layers::ms(p.1));
        let Ok(s) = s else { continue };
        for (q, &(id, _)) in s.queries.iter().zip(&s.ranked) {
            ledger.add(q, layers::context_build(miner, &Query::Member(id)));
        }
        let rest = s.total.saturating_sub(s.block + s.hits);
        layers::ledger_check(report, "scan", s.total, rest);
        traced.push(layers::ms(s.total));
        block.push(layers::ms(s.block));
        hit_ms.push(layers::ms(s.hits));
        residual.push(layers::ms(rest));
        folds = s.evals;
        filtered = s.filtered;
        hits = s.queries.len();
    }
    ledger.emit(report);
    if traced.is_empty() {
        return;
    }
    let live = miner.live_len() as f64;
    report.set("index.block_scan_ms", median(&block));
    report.set("index.block_exact_folds", folds as f64);
    report.set("index.block_filtered", filtered as f64);
    report.set(
        "index.block_admit_frac",
        folds as f64 / (live * (live - 1.0)),
    );
    report.set("core.scan_hit_search_ms", median(&hit_ms));
    report.set("core.scan_hits", hits as f64);
    report.set("core.scan_residual_ms", median(&residual));
    report.set(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
}
