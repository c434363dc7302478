//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lattice-query|scan-rank|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Inputs come from the seed alone. The program is measured from
//! outside, through its crates' public functions. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` runs a separate traced pass over
//! the same inputs and prints the per-layer metrics (spans are written
//! to `.bench_out/`). The last line of stdout is one JSON result; the
//! exit code is non-zero when any output check failed.

mod client;
mod gen;
mod lattice;
mod layers;
mod report;
mod scan;
mod serve;
mod spec;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;

const USAGE: &str = "usage: hos-perfbench --workload <lattice-query|scan-rank|serve-mixed> \
                     --seed N --seconds S --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Scratch space inside the checkout (traces, the server's data dir).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// Writes a run's spans to `.bench_out/trace-<workload>.jsonl`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str) {
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("writing {}: {e}", path.display());
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        layers::nproc()
    );
    match args.workload.as_str() {
        "lattice-query" => lattice::run(args.seed, args.seconds, args.trace, &mut report),
        "scan-rank" => scan::run(args.seed, args.seconds, args.trace, &mut report),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace, &mut report),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let failed_frac = report.tally.failed_frac();
    report.info("failed_frac", failed_frac, "ratio", "");
    if args.trace {
        report.set("failed_frac", failed_frac);
    } else {
        match peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => {
                report.check(false, || "VmHWM unreadable".into());
            }
        }
    }
    let line = report.result_line(args.trace);
    println!("{line}");
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
