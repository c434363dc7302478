//! `serve-mixed`: an in-process `hos-serve` over a fresh data dir, an
//! open-loop 90/10 read/write mix on one HTTP/JSON and one pipelined
//! hosbin connection, at three fixed offered rates in order.

use crate::client::{self, Action, Applied, Bodies, Outcome, Planned, Wire};
use crate::gen::{self, Rng};
use crate::layers::{self, ms};
use crate::report::{Report, RATES};
use crate::spec::{self, Phase};
use crate::stats::{goodput, median, percentile, sorted, tail, Sample};
use crate::trace::Tracer;
use hos_core::{HosMiner, HosMinerConfig, QueryOutcome, QuerySpec};
use hos_data::synth::planted::PlantedWorkload;
use hos_serve::codec::{self, ApiReply};
use hos_serve::{ApiRequest, Json, ServeConfig, Server, SharedState};
use hos_storage::store::SnapshotState;
use hos_storage::{Op, Store, StoreConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const W: &str = "serve-mixed";

fn key(k: &str) -> String {
    format!("workloads.{W}.{k}")
}

fn store_config(config: &HosMinerConfig) -> StoreConfig {
    StoreConfig {
        sync_every: spec::count(&key("sync_every")),
        meta: hos_storage::config_fingerprint(config, None),
    }
}

/// Fit, open a fresh store, checkpoint it (as `hos-serve --data-dir`
/// does on an empty dir) and start the server.
fn start(rows: hos_data::Dataset, config: HosMinerConfig, dir: &Path) -> Result<Server, String> {
    let miner = HosMiner::fit(rows, config).map_err(|e| e.to_string())?;
    let (mut store, recovery) =
        Store::open(dir, store_config(&config)).map_err(|e| e.to_string())?;
    if recovery.snapshot.is_some() || !recovery.ops.is_empty() {
        return Err(format!("data dir {} is not fresh", dir.display()));
    }
    let model = hos_core::ModelFile::from_miner(&miner).to_text();
    let n = miner.engine().dataset().len() as u64;
    store
        .snapshot(&SnapshotState {
            dataset: miner.engine().dataset(),
            model: Some(&model),
            base: 0,
            oldest: 0,
            rows_consumed: n,
            search_width: hos_storage::snapshot_search_width(&miner),
        })
        .map_err(|e| e.to_string())?;
    let every = spec::count(&key("snapshot_every")) as u64;
    Server::start_with_store(
        miner,
        &ServeConfig::default(),
        Some((store, every, (0, 0, n))),
    )
    .map_err(|e| e.to_string())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

/// One connection's seeded schedule for one session: Poisson arrivals
/// at half the phase's rate for `seconds`; 90% reads (half
/// member ids, half points near the data), 10% writes (insert a
/// generated row or retire an earlier one).
fn plan(
    w: &hos_data::Dataset,
    phase: &Phase,
    seconds: f64,
    seed: u64,
    stream: u64,
) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 10 + stream);
    let write_frac = spec::num(&key("write_frac"));
    let sigma = spec::num("planted.sigma");
    let (end, rate) = (phase.share * seconds, phase.rps / 2.0);
    let mut out = Vec::new();
    let mut t = rng.exp(rate);
    while t < end {
        let base = w.row(rng.below(w.len()));
        let action = if rng.unit() < write_frac {
            Action::Write {
                row: gen::jitter(base, sigma, &mut rng),
                prefer_retire: rng.unit() < 0.5,
            }
        } else if rng.unit() < 0.5 {
            Action::ReadId(rng.below(w.len()))
        } else {
            Action::ReadPoint(gen::jitter(base, 0.5 * sigma, &mut rng))
        };
        out.push(Planned { due: t, action });
        t += rng.exp(rate);
    }
    out
}

/// Runs both connections' schedules concurrently over the sockets.
fn socket_pass(
    addr: std::net::SocketAddr,
    plans: &[Vec<Planned>; 2],
    record: bool,
) -> Result<(Instant, [Vec<Outcome>; 2], Bodies), String> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut bodies = [Bodies::default(), Bodies::default()];
    let [b_json, b_bin] = &mut bodies;
    let (json, bin) = std::thread::scope(|s| {
        let j =
            s.spawn(|| client::drive(addr, Wire::Json, &plans[0], t0, record.then_some(b_json)));
        let b = s.spawn(|| client::drive(addr, Wire::Bin, &plans[1], t0, record.then_some(b_bin)));
        (j.join(), b.join())
    });
    let json = json
        .map_err(|_| "json generator panicked")?
        .map_err(|e| format!("json: {e}"))?;
    let bin = bin
        .map_err(|_| "bin generator panicked")?
        .map_err(|e| format!("bin: {e}"))?;
    let [bj, bb] = bodies;
    Ok((
        t0,
        [json, bin],
        Bodies {
            json: bj.json,
            bin: bb.bin,
        },
    ))
}

/// Counters read at the end of each phase of a pass.
#[derive(Clone, Copy, Default)]
struct Counters {
    batches: u64,
    specs: u64,
    max_batch: usize,
    writes: u64,
    rejected: u64,
}

fn counters(state: &SharedState) -> Counters {
    let c = &state.counters;
    Counters {
        batches: c.batches.load(Ordering::Relaxed),
        specs: c.specs.load(Ordering::Relaxed),
        max_batch: c.max_batch.load(Ordering::Relaxed),
        writes: c.writes.load(Ordering::Relaxed),
        rejected: c.rejected.load(Ordering::Relaxed),
    }
}

/// The same schedules driven straight through `codec::execute` on the
/// live state, no socket: each connection's thread waits until an
/// operation is due, then executes it. Returns the outcomes, a sample
/// of replies for encoder replay, and the counters before and after.
#[allow(clippy::type_complexity)]
fn state_pass(
    state: &Arc<SharedState>,
    plans: &[Vec<Planned>; 2],
) -> (Instant, [Vec<Outcome>; 2], Vec<ApiReply>, [Counters; 2]) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let run = |plan: &[Planned]| {
        let mut pool = VecDeque::new();
        let mut out = Vec::with_capacity(plan.len());
        let mut replies = Vec::new();
        for p in plan {
            let due = t0 + Duration::from_secs_f64(p.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let req = client::request_for(&p.action, &mut pool);
            let sent = t0.elapsed().as_secs_f64();
            let result = codec::execute(state, req.clone());
            let done = t0.elapsed().as_secs_f64();
            let (ok, applied) = match &result {
                Ok(reply) => {
                    let mut text = String::new();
                    codec::encode_json_reply(reply, &mut text);
                    let (ok, version, id) = Json::parse(&text)
                        .map(|j| client::check_reply(&req, &j))
                        .unwrap_or((false, 0, None));
                    if let Some(id) = id {
                        pool.push_back(id);
                    }
                    (ok, client::applied(&req, ok, version))
                }
                Err(_) => (false, None),
            };
            if let Ok(reply) = result {
                if replies.len() < 4096 {
                    replies.push(reply);
                }
            }
            out.push(Outcome {
                sample: Sample {
                    due: p.due,
                    sent,
                    done,
                    ok,
                },
                write: matches!(p.action, Action::Write { .. }),
                applied,
            });
        }
        (out, replies)
    };
    let start = counters(state);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(&plans[0]));
        let b = s.spawn(|| run(&plans[1]));
        (
            a.join().expect("state generator panicked"),
            b.join().expect("state generator panicked"),
        )
    });
    let mut replies = a.1;
    replies.extend(b.1);
    (t0, [a.0, b.0], replies, [start, counters(state)])
}

fn latencies(outs: &[&Outcome], pick: impl Fn(&Outcome) -> bool) -> Vec<f64> {
    sorted(
        &outs
            .iter()
            .filter(|o| o.sample.ok && pick(o))
            .map(|o| o.sample.latency_ms())
            .collect::<Vec<_>>(),
    )
}

fn p50(s: &[f64]) -> f64 {
    if s.is_empty() {
        f64::NAN
    } else {
        percentile(s, 50.0)
    }
}

/// p99 when it has 10 samples beyond it, else the highest percentile
/// that has (the note says which), else the maximum.
fn p99(s: &[f64]) -> (f64, String) {
    match tail(s, 99.0) {
        Some(t) => (t.value, format!("p{} n={}", t.pct, s.len())),
        None if !s.is_empty() => (s[s.len() - 1], format!("max n={}", s.len())),
        None => (f64::NAN, "n=0".into()),
    }
}

fn all(outs: &[Vec<Outcome>; 2]) -> Vec<&Outcome> {
    outs.iter().flatten().collect()
}

/// Tallies a pass and checks every reply decoded; returns the applied
/// writes.
fn account(outs: &[Vec<Outcome>; 2], what: &str, report: &mut Report) -> Vec<(u64, Applied)> {
    let mut applied = Vec::new();
    let mut failed = 0;
    for o in outs.iter().flatten() {
        report.tally.record(o.sample.ok);
        failed += usize::from(!o.sample.ok);
        if let Some(a) = &o.applied {
            applied.push(a.clone());
        }
    }
    report.check(failed == 0, || {
        format!("{what}: {failed} requests failed, were refused or did not decode")
    });
    applied
}

/// An outcome's subspaces, OD bits and accounting, for exact comparison.
type OutcomeBits = (Vec<(u64, Option<u64>)>, Vec<u64>, [u64; 3]);

fn outcome_bits(o: &QueryOutcome) -> OutcomeBits {
    (
        o.outlying
            .iter()
            .map(|s| (s.subspace.mask(), s.od.map(f64::to_bits)))
            .collect(),
        o.minimal.iter().map(|m| m.mask()).collect(),
        [
            o.stats.od_evals,
            o.stats.pruned_outlier,
            o.stats.pruned_non_outlier,
        ],
    )
}

/// Recovers the miner from `dir` the way `hos-serve --data-dir` does.
fn recover(dir: &Path, config: &HosMinerConfig) -> Result<HosMiner, String> {
    let (_store, recovery) = Store::open(dir, store_config(config)).map_err(|e| e.to_string())?;
    let snap = recovery
        .snapshot
        .as_ref()
        .ok_or("no snapshot to recover from")?;
    let mut miner = hos_storage::miner_from_snapshot(snap, config).map_err(|e| e.to_string())?;
    for (_, op) in &recovery.ops {
        match op {
            Op::Insert(row) => {
                miner.insert_point(row).map_err(|e| e.to_string())?;
            }
            Op::Retire(id) => miner
                .retire_point(*id as usize)
                .map_err(|e| e.to_string())?,
            other => return Err(format!("unexpected {} op in the WAL", other.name())),
        }
    }
    Ok(miner)
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    if let Err(e) = run_inner(seed, seconds, trace, report) {
        report.check(false, || e);
    }
}

/// How a session drives its server.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Over the sockets; `true` also records bodies for codec replay.
    Socket(bool),
    /// Straight through `codec::execute`, no socket.
    State,
}

/// One session: a fresh data dir and server, one pass of the
/// schedules, the output checks, drain and recovery.
struct Session {
    /// Index into the phases (`low`, `mid`, `high`).
    phase: usize,
    setup_s: f64,
    t0: Instant,
    outs: [Vec<Outcome>; 2],
    bodies: Bodies,
    replies: Vec<ApiReply>,
    marks: [Counters; 2],
    applied: Vec<(u64, Applied)>,
    recovered: HosMiner,
    recover_ms: f64,
}

fn session(
    w: &PlantedWorkload,
    config: HosMinerConfig,
    (phase, plans): (usize, &[Vec<Planned>; 2]),
    pass: Pass,
    report: &mut Report,
) -> Result<Session, String> {
    let dir = fresh_dir("serve");
    let rows = w.dataset.clone();
    let t = Instant::now();
    let server = start(rows, config, &dir)?;
    let setup_s = t.elapsed().as_secs_f64();
    let state = Arc::clone(server.state());
    let (t0, outs, bodies, replies, marks) = match pass {
        Pass::Socket(record) => {
            let (t0, outs, bodies) = socket_pass(server.addr(), plans, record)?;
            (t0, outs, bodies, Vec::new(), [Counters::default(); 2])
        }
        Pass::State => {
            let (t0, outs, replies, marks) = state_pass(&state, plans);
            (t0, outs, Bodies::default(), replies, marks)
        }
    };
    let mut applied = account(&outs, "pass", report);

    // The final version must equal the writes the clients saw applied.
    let version = state.version();
    report.check(version == applied.len() as u64, || {
        format!(
            "server version {version} but {} writes applied",
            applied.len()
        )
    });
    applied.sort_by_key(|a| a.0);
    report.check(
        applied.iter().enumerate().all(|(i, a)| a.0 == i as u64 + 1),
        || "applied write versions are not 1..=N".into(),
    );

    // Fixed probes, answered live before the drain and after recovery.
    let n = w.dataset.len();
    let probes: Vec<QuerySpec> = (0..16)
        .map(|i| QuerySpec::Member(i * (n / 16)))
        .chain(w.outliers.iter().map(|o| QuerySpec::Member(o.id)))
        .chain(
            (0..8)
                .map(|i| QuerySpec::Point(w.dataset.row(i * 7).iter().map(|v| v + 0.25).collect())),
        )
        .collect();
    let live_probe = match codec::execute(&state, ApiRequest::Query(probes.clone())) {
        Ok(ApiReply::Query { results, .. }) => results,
        _ => return Err("probe query failed".into()),
    };
    let live_count = state.with_read(|m, _| m.live_len());
    drop(state);
    Server::join(server);

    let t = Instant::now();
    let recovered = recover(&dir, &config)?;
    let recover_ms = ms(t.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
    report.check(recovered.live_len() == live_count, || {
        format!(
            "recovered {} live rows, server had {live_count}",
            recovered.live_len()
        )
    });
    let again = recovered.query_each(&probes);
    let same = live_probe.len() == again.len()
        && live_probe.iter().zip(&again).all(|(a, b)| match (a, b) {
            (Ok(a), Ok(b)) => outcome_bits(a) == outcome_bits(b),
            _ => false,
        });
    report.tally.record(same);
    report.check(same, || {
        "recovered answers differ from the live server's".into()
    });
    Ok(Session {
        phase,
        setup_s,
        t0,
        outs,
        bodies,
        replies,
        marks,
        applied,
        recovered,
        recover_ms,
    })
}

fn run_inner(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let w = gen::planted(W, seed);
    let config = layers::miner_config(seed);
    let phases = spec::phases();
    let limit_ms = spec::num("latency_limit_ms");
    // Each round runs low, mid and high in order, one fresh server per
    // phase; rounds spread every rate across the whole run, so a burst
    // of host noise cannot take out one rate alone.
    let rounds = spec::count(&key("rounds"));
    let slice = seconds / rounds as f64;
    let plans: Vec<(usize, [Vec<Planned>; 2])> = (0..rounds)
        .flat_map(|r| (0..phases.len()).map(move |i| (r, i)))
        .map(|(r, i)| {
            let stream = 2 * (r * phases.len() + i) as u64;
            let p = &phases[i];
            (
                i,
                [
                    plan(&w.dataset, p, slice, seed, stream),
                    plan(&w.dataset, p, slice, seed, stream + 1),
                ],
            )
        })
        .collect();

    // Extra set-ups beside the one each phase's session performs.
    let mut setup = Vec::new();
    for _ in 0..spec::count(&key("setup_reps")) {
        let dir = fresh_dir("serve-setup");
        let rows = w.dataset.clone();
        let t = Instant::now();
        let server = start(rows, config, &dir)?;
        setup.push(t.elapsed().as_secs_f64());
        Server::join(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let run_all = |pass: Pass, report: &mut Report| -> Result<Vec<Session>, String> {
        plans
            .iter()
            .map(|(i, p)| session(&w, config, (*i, p), pass, report))
            .collect()
    };
    let plain = run_all(Pass::Socket(false), report)?;
    setup.extend(plain.iter().map(|s| s.setup_s));

    if trace {
        let mut tracer = Tracer::new();
        let (miner, fits) = layers::fit_reps(&w.dataset, config, 1);
        layers::trace_setup(
            &w.dataset,
            config,
            &miner,
            &fits,
            setup.len(),
            &mut tracer,
            report,
        );
        let traced = run_all(Pass::Socket(true), report)?;
        let direct = run_all(Pass::State, report)?;
        for (k, (t, d)) in traced.iter().zip(&direct).enumerate() {
            record_spans(&mut tracer, k as u64, t, d);
        }
        emit_layers(report, &plain, &traced, &direct);
        storage_layer(report, &config, &traced)?;
        crate::write_trace(&tracer, W);
        return Ok(());
    }

    let pooled = |ph: usize| -> Vec<&Outcome> {
        plain
            .iter()
            .filter(|s| s.phase == ph)
            .flat_map(|s| all(&s.outs))
            .collect()
    };
    let per_round = |ph: usize, f: &dyn Fn(&Session) -> f64| -> f64 {
        median(
            &plain
                .iter()
                .filter(|s| s.phase == ph)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let dur = |ph: usize| phases[ph].share * slice;
    let low_p50 = per_round(0, &|s| p50(&latencies(&all(&s.outs), |_| true)));
    let good = per_round(2, &|s| {
        let samples: Vec<Sample> = all(&s.outs).iter().map(|o| o.sample).collect();
        goodput(&samples, limit_ms, dur(2))
    });
    report.set("setup_s", median(&setup));
    report.set("work_per_s", good);
    let (low, mid, high) = (pooled(0), pooled(1), pooled(2));
    let reads = latencies(&mid, |o| !o.write);
    let writes = latencies(&mid, |o| o.write);
    let high_all = latencies(&high, |_| true);
    let n = format!("median of {rounds} rounds");
    report.info(
        "serve_low_p50_ms",
        low_p50,
        "ms",
        &format!("{n}, n={}", low.len()),
    );
    report.info(
        "serve_read_p50_ms",
        p50(&reads),
        "ms",
        &format!("@mid n={}", reads.len()),
    );
    let (v, note) = p99(&reads);
    report.info("serve_read_p99_ms", v, "ms", &format!("@mid {note}"));
    report.info(
        "serve_write_p50_ms",
        p50(&writes),
        "ms",
        &format!("@mid n={}", writes.len()),
    );
    let (v, note) = p99(&writes);
    report.info("serve_write_p99_ms", v, "ms", &format!("@mid {note}"));
    let (v, note) = p99(&high_all);
    report.info("serve_high_p99_ms", v, "ms", &format!("@high {note}"));
    report.info(
        "serve_goodput_rps",
        good,
        "req/s",
        &format!(
            "@high offered {:.0}, limit {limit_ms} ms, {n}",
            phases[2].rps
        ),
    );
    for (i, p) in phases.iter().enumerate() {
        let outs = pooled(i);
        let lat = latencies(&outs, |_| true);
        let (v, note) = p99(&lat);
        report.info(
            &format!("phase_{}", p.name),
            outs.len() as f64 / (dur(i) * rounds as f64),
            "req/s",
            &format!(
                "offered {:.0}, p50 {:.3} ms, tail {v:.3} ms ({note})",
                p.rps,
                p50(&lat)
            ),
        );
    }
    report.info("setup_runs", setup.len() as f64, "count", "");
    Ok(())
}

/// Spans of session `k`: each socket request from due to reply (child
/// `gen.late`: due to sent), and each direct `codec::execute` call.
fn record_spans(tracer: &mut Tracer, k: u64, socket: &Session, direct: &Session) {
    for wire in 0..2 {
        let name = if wire == 0 { "wire.json" } else { "wire.bin" };
        let at = |t0: Instant, s: f64| t0 + Duration::from_secs_f64(s);
        for (i, o) in socket.outs[wire].iter().enumerate() {
            let op = k << 40 | (wire as u64) << 32 | i as u64;
            let (due, sent) = (at(socket.t0, o.sample.due), at(socket.t0, o.sample.sent));
            let root = tracer.record(name, due, at(socket.t0, o.sample.done), None, op);
            tracer.record("gen.late", due, sent, Some(root), op);
        }
        for (i, o) in direct.outs[wire].iter().enumerate() {
            let op = 1 << 48 | k << 40 | (wire as u64) << 32 | i as u64;
            let (sent, done) = (at(direct.t0, o.sample.sent), at(direct.t0, o.sample.done));
            tracer.record("state.execute", sent, done, None, op);
        }
    }
}

/// Wire, generator, codec and state metrics of the traced run, one
/// session per phase in each pass.
fn emit_layers(report: &mut Report, plain: &[Session], traced: &[Session], direct: &[Session]) {
    for (ph, rate) in RATES.iter().enumerate() {
        let pooled = |ss: &'_ [Session], wire: Option<usize>| -> Vec<Outcome> {
            ss.iter()
                .filter(|s| s.phase == ph)
                .flat_map(|s| match wire {
                    Some(w) => s.outs[w].clone(),
                    None => [s.outs[0].clone(), s.outs[1].clone()].concat(),
                })
                .collect()
        };
        let json = pooled(traced, Some(0));
        let bin = pooled(traced, Some(1));
        let both = pooled(traced, None);
        let exec = pooled(direct, None);
        let lat = |v: &[Outcome], pick: &dyn Fn(&Outcome) -> bool| {
            latencies(&v.iter().collect::<Vec<_>>(), |o| pick(o))
        };
        let json = lat(&json, &|_| true);
        let bin = lat(&bin, &|_| true);
        report.set(&format!("wire.{rate}.json_p50_ms"), p50(&json));
        report.set(&format!("wire.{rate}.json_p99_ms"), p99(&json).0);
        report.set(&format!("wire.{rate}.bin_p50_ms"), p50(&bin));
        report.set(&format!("wire.{rate}.bin_p99_ms"), p99(&bin).0);
        report.set(
            &format!("wire.{rate}.residual_p50_ms"),
            p50(&lat(&both, &|_| true)) - p50(&lat(&exec, &|_| true)),
        );
        let late = sorted(&both.iter().map(|o| o.sample.late_ms()).collect::<Vec<_>>());
        report.set(&format!("gen.{rate}.late_p99_ms"), p99(&late).0);
        report.set(&format!("gen.{rate}.sent"), both.len() as f64);

        let reads = lat(&exec, &|o| !o.write);
        let writes = lat(&exec, &|o| o.write);
        report.set(&format!("state.{rate}.execute_read_p50_ms"), p50(&reads));
        report.set(&format!("state.{rate}.execute_read_p99_ms"), p99(&reads).0);
        report.set(&format!("state.{rate}.execute_write_p50_ms"), p50(&writes));
        report.set(
            &format!("state.{rate}.execute_write_p99_ms"),
            p99(&writes).0,
        );
        let mut sum = Counters::default();
        for s in direct.iter().filter(|s| s.phase == ph) {
            let [before, after] = s.marks;
            sum.batches += after.batches - before.batches;
            sum.specs += after.specs - before.specs;
            sum.writes += after.writes - before.writes;
            sum.rejected += after.rejected - before.rejected;
            sum.max_batch = sum.max_batch.max(after.max_batch);
        }
        report.set(&format!("state.{rate}.batches"), sum.batches as f64);
        report.set(
            &format!("state.{rate}.specs_per_batch"),
            sum.specs as f64 / sum.batches.max(1) as f64,
        );
        report.set(&format!("state.{rate}.max_batch"), sum.max_batch as f64);
        report.set(&format!("state.{rate}.writes"), sum.writes as f64);
        report.set(&format!("state.{rate}.rejected"), sum.rejected as f64);
    }

    // Tracing overhead: traced vs untraced socket passes, all operations.
    let med = |ss: &[Session]| {
        let outs: Vec<&Outcome> = ss.iter().flat_map(|s| all(&s.outs)).collect();
        p50(&latencies(&outs, |_| true))
    };
    report.set("trace.overhead_frac", med(traced) / med(plain) - 1.0);

    let bodies = Bodies {
        json: traced
            .iter()
            .flat_map(|s| s.bodies.json.iter().cloned())
            .collect(),
        bin: traced
            .iter()
            .flat_map(|s| s.bodies.bin.iter().cloned())
            .collect(),
    };
    let replies: Vec<&ApiReply> = direct.iter().flat_map(|s| &s.replies).collect();
    // Codec replay of the recorded bodies and the state pass's replies.
    let time_us = |n: usize, mut f: Box<dyn FnMut(usize) + '_>| -> f64 {
        let mut t = Vec::with_capacity(n);
        for i in 0..n {
            let s = Instant::now();
            f(i);
            t.push(s.elapsed().as_secs_f64() * 1e6);
        }
        if t.is_empty() {
            0.0
        } else {
            median(&t)
        }
    };
    let json_ok = bodies.json.iter().all(|b| Json::parse(b).is_ok());
    let bin_ok = bodies
        .bin
        .iter()
        .all(|(op, b)| codec::decode_bin_request(*op, b).is_ok());
    report.check(json_ok && bin_ok, || {
        "a recorded request body does not decode".into()
    });
    let dec_json = time_us(
        bodies.json.len(),
        Box::new(|i| {
            std::hint::black_box(Json::parse(&bodies.json[i]).ok());
        }),
    );
    let dec_bin = time_us(
        bodies.bin.len(),
        Box::new(|i| {
            let (op, b) = &bodies.bin[i];
            std::hint::black_box(codec::decode_bin_request(*op, b).ok());
        }),
    );
    let mut text = String::with_capacity(4096);
    let enc_json = time_us(
        replies.len(),
        Box::new(|i| {
            codec::encode_json_reply(replies[i], &mut text);
            std::hint::black_box(&text);
        }),
    );
    let mut frame = Vec::with_capacity(4096);
    let enc_bin = time_us(
        replies.len(),
        Box::new(|i| {
            std::hint::black_box(codec::encode_bin_reply(replies[i], &mut frame));
        }),
    );
    report.set("codec.json_decode_us", dec_json);
    report.set("codec.json_encode_us", enc_json);
    report.set("codec.bin_decode_us", dec_bin);
    report.set("codec.bin_encode_us", enc_bin);
}

/// Replays the traced run's applied writes, phase by phase in version
/// order, into a scratch store: appends and group-commit syncs timed
/// apart, then snapshots of the last phase's recovered miner.
fn storage_layer(
    report: &mut Report,
    config: &HosMinerConfig,
    sessions: &[Session],
) -> Result<(), String> {
    let dir = fresh_dir("replay");
    let every = spec::count(&key("sync_every"));
    let cfg = StoreConfig {
        sync_every: 0,
        meta: hos_storage::config_fingerprint(config, None),
    };
    let (mut store, _) = Store::open(&dir, cfg).map_err(|e| e.to_string())?;
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    let mut user_bytes = 0usize;
    let applied: Vec<&Applied> = sessions
        .iter()
        .flat_map(|s| s.applied.iter().map(|a| &a.1))
        .collect();
    for (i, a) in applied.iter().enumerate() {
        let op = match a {
            Applied::Insert(row) => {
                user_bytes += 8 * row.len();
                Op::Insert(row.clone())
            }
            Applied::Retire(id) => {
                user_bytes += 8;
                Op::Retire(*id as u64)
            }
        };
        let t = Instant::now();
        store.append(&op).map_err(|e| e.to_string())?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
        if (i + 1) % every == 0 {
            let t = Instant::now();
            store.sync().map_err(|e| e.to_string())?;
            sync.push(ms(t.elapsed()));
        }
    }
    let wal_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let last = sessions.last().ok_or("no session")?;
    let miner = &last.recovered;
    let model = hos_core::ModelFile::from_miner(miner).to_text();
    let mut snap = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        store
            .snapshot(&SnapshotState {
                dataset: miner.engine().dataset(),
                model: Some(&model),
                base: 0,
                oldest: 0,
                rows_consumed: miner.engine().dataset().len() as u64,
                search_width: hos_storage::snapshot_search_width(miner),
            })
            .map_err(|e| e.to_string())?;
        snap.push(ms(t.elapsed()));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot_every = spec::count(&key("snapshot_every"));
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    report.set("storage.append_us", or_zero(&append));
    report.set("storage.sync_ms", or_zero(&sync));
    report.set("storage.snapshot_ms", median(&snap));
    // Per session: cadence snapshots during the pass plus one at drain.
    let snapshots: usize = sessions
        .iter()
        .map(|s| s.applied.len() / snapshot_every + 1)
        .sum();
    report.set("storage.snapshots", snapshots as f64);
    report.set("storage.recover_ms", last.recover_ms);
    report.set(
        "storage.wal_bytes_per_write",
        wal_bytes as f64 / applied.len().max(1) as f64,
    );
    report.set(
        "storage.bytes_per_user_byte",
        wal_bytes as f64 / user_bytes.max(1) as f64,
    );
    Ok(())
}
