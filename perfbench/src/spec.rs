//! The benchmark's frozen sizes, rates and policies (`spec.json`,
//! compiled in so a run cannot drift from the recorded numbers).

use hos_serve::Json;
use std::sync::OnceLock;

const SPEC_TEXT: &str = include_str!("../spec.json");

fn root() -> &'static Json {
    static SPEC: OnceLock<Json> = OnceLock::new();
    SPEC.get_or_init(|| Json::parse(SPEC_TEXT).expect("spec.json is valid JSON"))
}

/// `path` is a dotted key path, e.g. `workloads.scan-rank.n`.
fn get(path: &str) -> &'static Json {
    path.split('.').fold(root(), |node, key| {
        node.get(key)
            .unwrap_or_else(|| panic!("spec.json lacks `{path}`"))
    })
}

pub fn num(path: &str) -> f64 {
    get(path)
        .as_f64()
        .unwrap_or_else(|| panic!("spec.json `{path}` is not a number"))
}

pub fn count(path: &str) -> usize {
    get(path)
        .as_usize()
        .unwrap_or_else(|| panic!("spec.json `{path}` is not a count"))
}

/// One open-loop phase of `serve-mixed`.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: &'static str,
    /// Offered rate, both connections together.
    pub rps: f64,
    /// Share of `--seconds` this phase runs for.
    pub share: f64,
}

pub fn phases() -> Vec<Phase> {
    get("workloads.serve-mixed.phases")
        .as_array()
        .expect("phases is an array")
        .iter()
        .map(|p| Phase {
            name: p.get("name").and_then(Json::as_str).expect("phase name"),
            rps: p.get("rps").and_then(Json::as_f64).expect("phase rps"),
            share: p
                .get("share_of_run")
                .and_then(Json::as_f64)
                .expect("phase share_of_run"),
        })
        .collect()
}
