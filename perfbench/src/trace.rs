//! In-memory span recording for the traced run, and the engine wrapper
//! that times every `od_batch` call while the program's own search
//! loop runs unchanged.

use hos_data::{Dataset, Metric, PointId, Subspace};
use hos_index::{KnnEngine, Neighbor, OdEvaluator, QueryContext};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Spans of one operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// Append-only span store, written out once at exit.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children
    /// recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    pub fn close(&mut self, idx: usize) -> Duration {
        let span = &mut self.spans[idx];
        span.end = Instant::now();
        span.dur()
    }

    /// Writes one JSON object per span (times in µs from the tracer's
    /// creation).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.op,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Forwards every [`KnnEngine`] method to the wrapped engine and wraps
/// the evaluator it hands out, so each `od_batch` call is timed.
pub struct TracedEngine<'e> {
    inner: &'e dyn KnnEngine,
    batches: Mutex<Vec<(Instant, Instant)>>,
}

impl<'e> TracedEngine<'e> {
    pub fn new(inner: &'e dyn KnnEngine) -> TracedEngine<'e> {
        TracedEngine {
            inner,
            batches: Mutex::new(Vec::new()),
        }
    }

    /// The `od_batch` intervals recorded since the last call.
    pub fn take_batches(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.batches.lock().expect("batch log poisoned"))
    }
}

impl KnnEngine for TracedEngine<'_> {
    fn dataset(&self) -> &Dataset {
        self.inner.dataset()
    }

    fn metric(&self) -> Metric {
        self.inner.metric()
    }

    fn knn(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> Vec<Neighbor> {
        self.inner.knn(query, k, s, exclude)
    }

    fn range(
        &self,
        query: &[f64],
        radius: f64,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        self.inner.range(query, radius, s, exclude)
    }

    fn od(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> f64 {
        self.inner.od(query, k, s, exclude)
    }

    fn distance_evals(&self) -> u64 {
        self.inner.distance_evals()
    }

    fn query_context<'a>(&'a self, query: &[f64]) -> Option<QueryContext<'a>> {
        self.inner.query_context(query)
    }

    fn set_threads(&self, threads: usize) {
        self.inner.set_threads(threads)
    }

    fn set_search_width(&self, ef: usize) {
        self.inner.set_search_width(ef)
    }

    fn search_width(&self) -> Option<usize> {
        self.inner.search_width()
    }

    fn evaluator<'a>(
        &'a self,
        query: &'a [f64],
        k: usize,
        exclude: Option<PointId>,
    ) -> Box<dyn OdEvaluator + 'a> {
        Box::new(TracedEvaluator {
            inner: self.inner.evaluator(query, k, exclude),
            log: &self.batches,
        })
    }
}

struct TracedEvaluator<'a> {
    inner: Box<dyn OdEvaluator + 'a>,
    log: &'a Mutex<Vec<(Instant, Instant)>>,
}

impl OdEvaluator for TracedEvaluator<'_> {
    fn od(&mut self, s: Subspace) -> f64 {
        self.inner.od(s)
    }

    fn od_batch(&mut self, subspaces: &[Subspace], threads: usize) -> Vec<f64> {
        let start = Instant::now();
        let ods = self.inner.od_batch(subspaces, threads);
        let end = Instant::now();
        self.log
            .lock()
            .expect("batch log poisoned")
            .push((start, end));
        ods
    }

    fn node_visits(&self) -> u64 {
        self.inner.node_visits()
    }
}
