//! Metric registry and the run's result: every metric by name and
//! unit, the operation tally, and the output checks that failed.

use crate::stats::Tally;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Their meaning per workload is documented in `spec.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Open-loop rates of `serve-mixed`, in run order.
pub const RATES: [&str; 3] = ["low", "mid", "high"];

const SETUP_LAYER: &[(&str, &str)] = &[
    ("index.build_ms", "ms"),
    ("core.threshold_ms", "ms"),
    ("core.learn_ms", "ms"),
    ("core.learn_searches", "count"),
    ("setup.residual_ms", "ms"),
];

const QUERY_LAYER: &[(&str, &str)] = &[
    ("core.query_p50_ms", "ms"),
    ("core.query_p99_ms", "ms"),
    ("core.search_p50_ms", "ms"),
    ("core.search_p99_ms", "ms"),
    ("core.search_self_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.od_evals", "count"),
    ("core.pruned_outlier", "count"),
    ("core.pruned_non_outlier", "count"),
    ("core.wasted_evals", "count"),
    ("core.rounds", "count"),
    ("core.evaluated_frac", "ratio"),
    ("index.od_batch_p50_ms", "ms"),
    ("index.od_batch_p99_ms", "ms"),
    ("index.od_batch_calls", "count"),
    ("index.nodes_visited", "count"),
    ("index.ns_per_node", "ns"),
    ("index.context_build_ms", "ms"),
];

const SCAN_LAYER: &[(&str, &str)] = &[
    ("index.block_scan_ms", "ms"),
    ("index.block_exact_folds", "count"),
    ("index.block_filtered", "count"),
    ("index.block_admit_frac", "ratio"),
    ("core.scan_hit_search_ms", "ms"),
    ("core.scan_hits", "count"),
    ("core.scan_residual_ms", "ms"),
];

const WIRE_PER_RATE: &[(&str, &str)] = &[
    ("wire.{r}.json_p50_ms", "ms"),
    ("wire.{r}.json_p99_ms", "ms"),
    ("wire.{r}.bin_p50_ms", "ms"),
    ("wire.{r}.bin_p99_ms", "ms"),
    ("wire.{r}.residual_p50_ms", "ms"),
    ("gen.{r}.late_p99_ms", "ms"),
    ("gen.{r}.sent", "count"),
];

const CODEC_LAYER: &[(&str, &str)] = &[
    ("codec.json_decode_us", "us"),
    ("codec.json_encode_us", "us"),
    ("codec.bin_decode_us", "us"),
    ("codec.bin_encode_us", "us"),
];

const STATE_PER_RATE: &[(&str, &str)] = &[
    ("state.{r}.execute_read_p50_ms", "ms"),
    ("state.{r}.execute_read_p99_ms", "ms"),
    ("state.{r}.execute_write_p50_ms", "ms"),
    ("state.{r}.execute_write_p99_ms", "ms"),
    ("state.{r}.batches", "count"),
    ("state.{r}.specs_per_batch", "ratio"),
    ("state.{r}.max_batch", "count"),
    ("state.{r}.writes", "count"),
    ("state.{r}.rejected", "count"),
];

const STORAGE_LAYER: &[(&str, &str)] = &[
    ("storage.append_us", "us"),
    ("storage.sync_ms", "ms"),
    ("storage.snapshot_ms", "ms"),
    ("storage.snapshots", "count"),
    ("storage.recover_ms", "ms"),
    ("storage.wal_bytes_per_write", "bytes"),
    ("storage.bytes_per_user_byte", "ratio"),
];

const RUN_LAYER: &[(&str, &str)] = &[("trace.overhead_frac", "ratio"), ("failed_frac", "ratio")];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload never calls reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |list: &[(&str, &'static str)]| {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect::<Vec<_>>()
    };
    let per_rate = |list: &[(&str, &'static str)]| {
        RATES
            .iter()
            .flat_map(|r| list.iter().map(move |&(n, u)| (n.replace("{r}", r), u)))
            .collect::<Vec<_>>()
    };
    let mut all = fixed(SETUP_LAYER);
    all.extend(fixed(QUERY_LAYER));
    all.extend(fixed(SCAN_LAYER));
    all.extend(per_rate(WIRE_PER_RATE));
    all.extend(fixed(CODEC_LAYER));
    all.extend(per_rate(STATE_PER_RATE));
    all.extend(fixed(STORAGE_LAYER));
    all.extend(fixed(RUN_LAYER));
    all
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    pub tally: Tally,
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric of the run's mode (a name outside both
    /// registries is a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            if self.failures.len() < 64 {
                self.failures.push(msg);
            }
        }
        ok
    }

    /// A named figure for people, printed before the result line.
    pub fn info(&self, name: &str, value: f64, unit: &str, note: &str) {
        println!("{name:<28} {value:>14.4} {unit:<6} {note}");
    }

    /// The final result line. Every metric of the mode must be present
    /// (per-layer metrics of layers this workload never calls default
    /// to 0) and finite.
    pub fn result_line(&mut self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            let all = per_layer();
            for (n, _) in &all {
                self.metrics.entry(n.clone()).or_insert(0.0);
            }
            all
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut parts = Vec::with_capacity(names.len());
        for (name, unit) in &names {
            let value = self.metrics.get(name).copied();
            let value = match value {
                Some(v) if v.is_finite() => v,
                other => {
                    self.failures
                        .push(format!("metric {name} missing or not finite: {other:?}"));
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        if self.tally.attempted == 0 {
            self.failures.push("no operation was attempted".into());
        }
        for name in self.metrics.keys() {
            if !names.iter().any(|(n, _)| n == name) {
                self.failures
                    .push(format!("metric {name} is not registered for this mode"));
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed,
            parts.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_serve::Json;

    /// The registry and BENCHMARK.json must list the same metrics.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn result_line_fills_unused_layers_and_flags_gaps() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        let line = r.result_line(false);
        assert!(line.contains("\"correct\":false"), "{line}");
        let mut r = Report::default();
        r.tally.record(true);
        for (n, _) in END_TO_END {
            r.set(n, 0.25);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        let mut r = Report::default();
        r.set("core.od_evals", 3.0);
        let line = r.result_line(true);
        assert!(line.contains("\"storage.sync_ms\":{\"value\":0,\"unit\":\"ms\"}"));
        assert!(line.contains("\"core.od_evals\":{\"value\":3,"));
    }
}
