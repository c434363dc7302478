//! `lattice-query`: closed-loop `query_id`/`query_point` calls on the
//! rows that have at least one outlying subspace, n=8000, d=16.

use crate::gen::{self, Rng};
use crate::layers::{self, Query, QueryLedger};
use crate::report::Report;
use crate::spec;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::Tracer;
use hos_core::{HosMiner, HosMinerConfig};
use hos_data::synth::planted::PlantedWorkload;
use std::time::{Duration, Instant};

const W: &str = "lattice-query";

/// One cycle of the query schedule: the rows whose full-space OD
/// reaches T in seeded order, with a point query (a member with one
/// coordinate shifted several sigma) after every `point_every - 1`.
fn schedule(miner: &HosMiner, w: &PlantedWorkload, seed: u64) -> Vec<Query> {
    let ds = miner.engine().dataset();
    let k = miner.config().k;
    let ods = hos_index::all_points_full_od(ds, miner.engine().metric(), k)
        .expect("planted data has more than k rows");
    let mut hits: Vec<usize> = ods
        .iter()
        .filter(|(_, od)| *od >= miner.threshold())
        .map(|(id, _)| *id)
        .collect();
    let mut rng = Rng::new(seed, 2);
    rng.shuffle(&mut hits);
    let every = spec::count(&format!("workloads.{W}.point_every"));
    let shift =
        spec::num(&format!("workloads.{W}.point_shift_sigmas")) * spec::num("planted.sigma");
    let mut out = Vec::with_capacity(hits.len() * every / (every - 1) + 1);
    for (i, id) in hits.into_iter().enumerate() {
        out.push(Query::Member(id));
        if i % (every - 1) == every - 2 {
            let mut row = ds.row(rng.below(w.dataset.len())).to_vec();
            let dim = rng.below(row.len());
            row[dim] += if rng.unit() < 0.5 { -shift } else { shift };
            out.push(Query::Point(row));
        }
    }
    out
}

/// One seeded data set with its fitted miner and query cycle.
struct Part {
    w: PlantedWorkload,
    config: HosMinerConfig,
    miner: HosMiner,
    cycle: Vec<Query>,
    setup: Vec<f64>,
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let reps = spec::count(&format!("workloads.{W}.setup_reps"));
    let sets = spec::count(&format!("workloads.{W}.data_sets")) as u64;
    // Several data sets per run, queried round-robin, so one seed's
    // cluster layout and threshold draw do not set the whole result.
    let parts: Vec<Part> = (0..sets)
        .map(|j| {
            let sub = seed.wrapping_mul(sets).wrapping_add(j);
            let w = gen::planted(W, sub);
            let config = layers::miner_config(sub);
            let (miner, setup) = layers::fit_reps(&w.dataset, config, reps);
            let cycle = schedule(&miner, &w, sub);
            Part {
                w,
                config,
                miner,
                cycle,
                setup,
            }
        })
        .collect();
    let mut planted_off = 0;
    for p in &parts {
        report.check(!p.cycle.is_empty(), || {
            "no row reaches the threshold".into()
        });
        for o in &p.w.outliers {
            let (ok, outlying) = match p.miner.query_id(o.id) {
                Ok(out) => layers::planted_ok(&p.miner, o.id, o.subspace, &out.minimal),
                Err(_) => (false, true),
            };
            report.tally.record(ok);
            report.check(ok, || {
                format!(
                    "planted outlier {} answer is wrong (target {})",
                    o.id, o.subspace
                )
            });
            planted_off += usize::from(!outlying);
        }
    }
    if parts.iter().any(|p| p.cycle.is_empty()) {
        return;
    }
    let planted: usize = parts.iter().map(|p| p.w.outliers.len()).sum();
    report.info(
        "planted_checked",
        planted as f64,
        "count",
        &format!("{planted_off} with a target that is not outlying (minimality still checked)"),
    );
    let pick = |i: usize| {
        let p = &parts[i % parts.len()];
        (&p.miner, &p.cycle[(i / parts.len()) % p.cycle.len()])
    };

    if trace {
        let mut tracer = Tracer::new();
        for p in &parts {
            layers::trace_setup(
                &p.w.dataset,
                p.config,
                &p.miner,
                &p.setup,
                reps,
                &mut tracer,
                report,
            );
        }
        traced_pass(&pick, seconds, &mut tracer, report);
        crate::write_trace(&tracer, W);
        return;
    }

    let setup: Vec<f64> = parts.iter().flat_map(|p| p.setup.iter().copied()).collect();
    report.set("setup_s", median(&setup));
    let mut lat = Vec::new();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    while start.elapsed() < limit {
        let (miner, q) = pick(lat.len());
        let t = Instant::now();
        let out = layers::run_query(miner, q);
        lat.push(layers::ms(t.elapsed()));
        let ok = matches!(&out, Ok(o) if layers::accounting_ok(&o.stats));
        report.tally.record(ok);
        report.check(ok, || {
            format!("query {q:?} failed or broke the lattice accounting")
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let s = sorted(&lat);
    let p50 = percentile(&s, 50.0);
    report.set("work_per_s", lat.len() as f64 / wall);
    let distinct: usize = parts.iter().map(|p| p.cycle.len()).sum();
    let n = format!("n={} distinct={distinct}", lat.len());
    report.info("query_p50_ms", p50, "ms", &n);
    match tail(&s, 99.0) {
        Some(t) => report.info("query_p99_ms", t.value, "ms", &format!("p{} {n}", t.pct)),
        None => report.info("query_p99_ms", f64::NAN, "ms", "too few samples"),
    }
    report.info("query_qps", lat.len() as f64 / wall, "1/s", &n);
}

/// The same schedule, each query run once through `query_id`/
/// `query_point` and once staged with spans, in alternating order.
fn traced_pass<'a>(
    pick: &dyn Fn(usize) -> (&'a HosMiner, &'a Query),
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut ledger = QueryLedger::default();
    let mut untraced = Vec::new();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while start.elapsed() < limit {
        let (miner, q) = pick(i);
        let timed = |m: &HosMiner| {
            let t = Instant::now();
            let out = layers::run_query(m, q);
            (out, t.elapsed())
        };
        let (plain, staged) = if i.is_multiple_of(2) {
            let p = timed(miner);
            (p, layers::staged_query(miner, q, tracer, None, i as u64))
        } else {
            let s = layers::staged_query(miner, q, tracer, None, i as u64);
            (timed(miner), s)
        };
        let ok = match (&plain.0, &staged) {
            (Ok(out), Ok(s)) => s.same_as(out) && layers::accounting_ok(&out.stats),
            _ => false,
        };
        report.tally.record(ok);
        report.check(ok, || {
            format!("traced query {q:?} differs from the untraced one")
        });
        if let Ok(s) = &staged {
            ledger.add(s, layers::context_build(miner, q));
        }
        untraced.push(layers::ms(plain.1));
        i += 1;
    }
    ledger.emit(report);
    if ledger.len() > 0 {
        report.set(
            "trace.overhead_frac",
            ledger.median_total() / median(&untraced) - 1.0,
        );
    }
}
