//! Shared serving state: the miner behind a single-writer/many-reader
//! lock, the direct query path and the write queue.
//!
//! Concurrency discipline (DESIGN.md §11):
//!
//! * **Reads** (queries, scans, explains, stats) take the `RwLock`
//!   read side on the calling worker thread — any number run at once.
//!   A query request runs ONE [`HosMiner::query_each`] over its specs
//!   — the same `batch_search` fan-out the CLI uses, so every answer
//!   is bit-identical to running that query alone.
//! * **Writes** (insert/retire) go through a bounded queue drained by
//!   ONE writer thread that takes the write side, applies the
//!   mutation, and bumps [`SharedState::version`] *while still
//!   holding the lock*. A reader that loads `version` under the read
//!   lock therefore observes the state exactly as of that version —
//!   the serialization point the concurrency oracle replays against.
//!   The single writer also fixes WAL order.
//! * **Per-endpoint weights**: scans run on worker threads under the
//!   read lock, so a burst of `/scan` requests could occupy every
//!   worker and starve point queries. A semaphore sized from the
//!   configured query:scan weights caps concurrent scans; waiting is
//!   bounded, then typed backpressure (429).
//! * **Backpressure**: a full write queue rejects immediately with a
//!   typed error the HTTP layer maps to 429; nothing blocks
//!   unboundedly.
//! * **Drain**: shutdown flips `draining` (new work is refused with a
//!   503-mapped error) and wakes the writer, which finishes every
//!   write already admitted before exiting; queries already past the
//!   draining check finish on their worker thread, which the server
//!   joins first — no admitted request is ever dropped.

use hos_core::{HosError, HosMiner, ModelFile, QueryOutcome, QuerySpec};
use hos_data::PointId;
use hos_storage::store::SnapshotState;
use hos_storage::{snapshot_search_width, Op, Store};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Why the serving layer refused or failed a request before (or
/// while) the miner saw it.
#[derive(Debug)]
pub enum ServeError {
    /// The write queue is full, or a scan waited out its permit —
    /// try again later (429).
    Backpressure(&'static str),
    /// The server is draining and takes no new work (503).
    Draining,
    /// The executing thread disappeared without replying (500).
    Internal(&'static str),
}

impl ServeError {
    /// Stable tag for the JSON error envelope.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Backpressure(_) => "backpressure",
            ServeError::Draining => "draining",
            ServeError::Internal(_) => "internal",
        }
    }

    /// HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Backpressure(_) => 429,
            ServeError::Draining => 503,
            ServeError::Internal(_) => 500,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Backpressure(which) => {
                write!(f, "{which} queue full, retry later")
            }
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

/// A mutation for the writer thread.
pub enum WriteOp {
    /// Insert a row, returning its new id.
    Insert(Vec<f64>),
    /// Retire a live point.
    Retire(PointId),
}

/// What a successful write produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOk {
    /// The id the inserted row received.
    Inserted(PointId),
    /// The retire completed.
    Retired,
}

struct WriteJob {
    op: WriteOp,
    reply: mpsc::Sender<(u64, Result<WriteOk, HosError>)>,
}

/// A bounded MPSC queue with condvar wakeups: `push` never blocks
/// (full = typed backpressure), consumers wait on the condvar.
struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn push(&self, item: T, which: &'static str) -> Result<(), ServeError> {
        let mut q = self.inner.lock().expect("queue poisoned");
        if q.len() >= self.cap {
            return Err(ServeError::Backpressure(which));
        }
        q.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Monotonic counters exported by `/stats`.
#[derive(Default)]
pub struct Counters {
    /// Query requests admitted (each may carry several specs).
    pub queries: AtomicU64,
    /// Individual query specs executed.
    pub specs: AtomicU64,
    /// Query requests executed, one `query_each` each.
    pub batches: AtomicU64,
    /// Largest spec count of any one query request.
    pub max_batch: AtomicUsize,
    /// Writes applied (insert + retire).
    pub writes: AtomicU64,
    /// Requests refused with backpressure (429).
    pub rejected: AtomicU64,
    /// HTTP requests served, any status.
    pub http_requests: AtomicU64,
    /// hosbin frames served, any outcome.
    pub bin_requests: AtomicU64,
}

/// The attached durable store plus its checkpoint cadence. Only the
/// writer thread touches it after attach, but it lives behind a mutex
/// so `attach_store` can run before the threads exist.
struct StoreSlot {
    store: Option<Store>,
    snapshot_every: u64,
    writes_since_snapshot: u64,
    /// Stream counters (`base`, `oldest`, `rows_consumed`) recovered
    /// with the store, written back verbatim into every snapshot this
    /// server takes — serve does not advance them.
    carry: (u64, u64, u64),
}

/// Counting semaphore capping concurrent scans (per-endpoint queue
/// weights): waiting is bounded, then typed backpressure.
struct ScanGate {
    slots: Mutex<usize>,
    ready: Condvar,
}

/// How long a scan waits for a permit before 429.
const SCAN_GATE_WAIT: Duration = Duration::from_millis(10);

/// Everything the HTTP workers and the writer share.
pub struct SharedState {
    miner: RwLock<HosMiner>,
    /// Bumped under the write lock on every successful mutation;
    /// queries report the version they observed.
    version: AtomicU64,
    draining: AtomicBool,
    write_queue: BoundedQueue<WriteJob>,
    scan_gate: ScanGate,
    store: Mutex<StoreSlot>,
    /// Counters for `/stats` and the drain summary.
    pub counters: Counters,
}

impl SharedState {
    /// Wraps a fitted miner for serving. `scan_permits` caps
    /// concurrent scans (see [`SharedState::acquire_scan`]).
    pub fn new(miner: HosMiner, write_queue_cap: usize, scan_permits: usize) -> Arc<SharedState> {
        Arc::new(SharedState {
            miner: RwLock::new(miner),
            version: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            write_queue: BoundedQueue::new(write_queue_cap),
            scan_gate: ScanGate {
                slots: Mutex::new(scan_permits.max(1)),
                ready: Condvar::new(),
            },
            store: Mutex::new(StoreSlot {
                store: None,
                snapshot_every: u64::MAX,
                writes_since_snapshot: 0,
                carry: (0, 0, 0),
            }),
            counters: Counters::default(),
        })
    }

    /// Attaches a durable store (`--data-dir`): the writer thread logs
    /// every applied mutation to its WAL and checkpoints a snapshot
    /// every `snapshot_every` writes and at drain. `carry` preserves
    /// the stream counters recovered with the store.
    pub fn attach_store(&self, store: Store, snapshot_every: u64, carry: (u64, u64, u64)) {
        let mut slot = self.store.lock().expect("store lock poisoned");
        *slot = StoreSlot {
            store: Some(store),
            snapshot_every: snapshot_every.max(1),
            writes_since_snapshot: 0,
            carry,
        };
    }

    /// The current dataset version (number of applied writes).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the draining flag and wakes the writer (and any waiting
    /// scan) so admitted work finishes and the writer exits.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.write_queue.wake_all();
        self.scan_gate.ready.notify_all();
    }

    /// Takes one scan permit, waiting at most [`SCAN_GATE_WAIT`]:
    /// the per-endpoint weight cap that keeps a burst of scans from
    /// occupying every worker thread. Timeout is typed backpressure
    /// (429), drain a typed 503. The permit releases on drop.
    pub fn acquire_scan(&self) -> Result<ScanPermit<'_>, ServeError> {
        let deadline = Instant::now() + SCAN_GATE_WAIT;
        let mut slots = self.scan_gate.slots.lock().expect("scan gate poisoned");
        while *slots == 0 {
            if self.is_draining() {
                return Err(ServeError::Draining);
            }
            let now = Instant::now();
            if now >= deadline {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Backpressure("scan"));
            }
            let (s, _timeout) = self
                .scan_gate
                .ready
                .wait_timeout(slots, deadline - now)
                .expect("scan gate poisoned");
            slots = s;
        }
        *slots -= 1;
        Ok(ScanPermit { state: self })
    }

    /// Runs `f` under the read lock — scans, explains, stats.
    pub fn with_read<R>(&self, f: impl FnOnce(&HosMiner, u64) -> R) -> R {
        let guard = self.miner.read().expect("miner lock poisoned");
        let version = self.version();
        f(&guard, version)
    }

    /// Runs a query request on the calling thread: ONE
    /// [`HosMiner::query_each`] under the read lock. Returns the
    /// version that lock observed and one result per spec, in input
    /// order.
    pub fn submit_query(
        &self,
        specs: &[QuerySpec],
    ) -> Result<(u64, Vec<Result<QueryOutcome, HosError>>), ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let answered = self.with_read(|miner, version| (version, miner.query_each(specs)));
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .specs
            .fetch_add(specs.len() as u64, Ordering::Relaxed);
        self.counters
            .max_batch
            .fetch_max(specs.len(), Ordering::Relaxed);
        Ok(answered)
    }

    /// Admits a write: enqueues it for the single writer thread and
    /// blocks until it is applied. Returns the version the write
    /// produced (or, on a rejected write, the version it observed).
    pub fn submit_write(
        &self,
        op: WriteOp,
    ) -> Result<(u64, Result<WriteOk, HosError>), ServeError> {
        if self.is_draining() {
            return Err(ServeError::Draining);
        }
        let (tx, rx) = mpsc::channel();
        self.write_queue
            .push(WriteJob { op, reply: tx }, "write")
            .inspect_err(|_| {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            })?;
        rx.recv()
            .map_err(|_| ServeError::Internal("writer exited without replying"))
    }

    /// The single writer thread body: applies queued mutations one at
    /// a time under the write lock, bumping the version before the
    /// lock is released. With a store attached, every applied mutation
    /// is appended to the WAL before the client sees the reply
    /// (apply-then-log; this thread is the only appender, so log order
    /// equals apply order). Exits once draining AND the queue is
    /// empty, checkpointing a final snapshot on the way out.
    pub fn writer_loop(self: &Arc<SharedState>) {
        'serve: loop {
            let job = {
                let mut q = self.write_queue.inner.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.is_draining() {
                        break 'serve;
                    }
                    q = self.write_queue.ready.wait(q).expect("queue poisoned");
                }
            };
            let mut miner = self.miner.write().expect("miner lock poisoned");
            let (res, logged) = match job.op {
                WriteOp::Insert(row) => {
                    let res = miner.insert_point(&row).map(WriteOk::Inserted);
                    (res, Op::Insert(row))
                }
                WriteOp::Retire(id) => (
                    miner.retire_point(id).map(|()| WriteOk::Retired),
                    Op::Retire(id as u64),
                ),
            };
            let version = if res.is_ok() {
                self.counters.writes.fetch_add(1, Ordering::Relaxed);
                self.version.fetch_add(1, Ordering::SeqCst) + 1
            } else {
                self.version()
            };
            drop(miner);
            if res.is_ok() {
                self.log_write(&logged);
            }
            let _ = job.reply.send((version, res));
        }
        self.checkpoint(true);
    }

    /// Appends one applied op to the attached WAL (group-committed per
    /// the store's `sync_every`) and checkpoints when the cadence is
    /// due. An append failure drains the server: refusing new writes
    /// beats acknowledging work that was never made durable.
    fn log_write(self: &Arc<SharedState>, op: &Op) {
        let due = {
            let mut slot = self.store.lock().expect("store lock poisoned");
            let Some(store) = slot.store.as_mut() else {
                return;
            };
            if let Err(e) = store.append(op) {
                eprintln!("hos-serve: wal append failed, draining: {e}");
                drop(slot);
                self.start_drain();
                return;
            }
            slot.writes_since_snapshot += 1;
            slot.writes_since_snapshot >= slot.snapshot_every
        };
        if due {
            self.checkpoint(false);
        }
    }

    /// Writes a snapshot of the current miner into the attached store
    /// (no-op without one). `final_sync` additionally fsyncs the WAL
    /// tail even if the snapshot fails — the drain path.
    pub fn checkpoint(self: &Arc<SharedState>, final_sync: bool) {
        let mut slot = self.store.lock().expect("store lock poisoned");
        let (base, oldest, rows_consumed) = slot.carry;
        let Some(store) = slot.store.as_mut() else {
            return;
        };
        let miner = self.miner.read().expect("miner lock poisoned");
        let model_text = ModelFile::from_miner(&miner).to_text();
        let result = store.snapshot(&SnapshotState {
            dataset: miner.engine().dataset(),
            model: Some(&model_text),
            base,
            oldest,
            rows_consumed,
            search_width: snapshot_search_width(&miner),
        });
        drop(miner);
        match result {
            Ok(_) => {
                println!("hos-serve snapshot: seq {}", store.last_seq());
            }
            Err(e) => eprintln!("hos-serve: snapshot failed: {e}"),
        }
        if final_sync {
            if let Err(e) = store.sync() {
                eprintln!("hos-serve: wal sync failed: {e}");
            }
        }
        slot.writes_since_snapshot = 0;
    }
}

/// RAII scan permit: releases its [`ScanGate`] slot on drop.
pub struct ScanPermit<'a> {
    state: &'a SharedState,
}

impl Drop for ScanPermit<'_> {
    fn drop(&mut self) {
        let mut slots = self
            .state
            .scan_gate
            .slots
            .lock()
            .expect("scan gate poisoned");
        *slots += 1;
        drop(slots);
        self.state.scan_gate.ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hos_core::{HosMinerConfig, ThresholdPolicy};
    use hos_data::Dataset;
    use std::thread;

    fn small_miner() -> HosMiner {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let x = (i % 7) as f64;
                let y = (i % 5) as f64;
                vec![x, y, x + y]
            })
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        HosMiner::fit(
            ds,
            HosMinerConfig {
                k: 3,
                threshold: ThresholdPolicy::Fixed(6.0),
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap()
    }

    fn spawn_state() -> (Arc<SharedState>, thread::JoinHandle<()>) {
        let state = SharedState::new(small_miner(), 64, 1);
        let w = {
            let s = Arc::clone(&state);
            thread::spawn(move || s.writer_loop())
        };
        (state, w)
    }

    fn drain(state: &Arc<SharedState>, writer: thread::JoinHandle<()>) {
        state.start_drain();
        writer.join().unwrap();
    }

    #[test]
    fn multi_spec_query_matches_solo_query() {
        let (state, writer) = spawn_state();
        let solo = state.with_read(|m, _| m.query_id(0).unwrap());
        let (version, results) = state
            .submit_query(&[QuerySpec::Member(0), QuerySpec::Member(1)])
            .unwrap();
        assert_eq!(version, 0);
        assert_eq!(results.len(), 2);
        let got = results[0].as_ref().unwrap();
        assert_eq!(got.outlying, solo.outlying);
        assert_eq!(got.minimal, solo.minimal);
        drain(&state, writer);
    }

    #[test]
    fn writes_bump_version_and_queries_observe_it() {
        let (state, writer) = spawn_state();
        let (v1, res) = state
            .submit_write(WriteOp::Insert(vec![100.0, 100.0, 100.0]))
            .unwrap();
        assert_eq!(v1, 1);
        let id = match res.unwrap() {
            WriteOk::Inserted(id) => id,
            other => panic!("expected insert, got {other:?}"),
        };
        let (v2, results) = state.submit_query(&[QuerySpec::Member(id)]).unwrap();
        assert_eq!(v2, 1);
        assert!(results[0].is_ok());
        let (v3, res) = state.submit_write(WriteOp::Retire(id)).unwrap();
        assert_eq!(v3, 2);
        assert!(res.is_ok());
        // A failed write does not bump the version.
        let (v4, res) = state.submit_write(WriteOp::Retire(id)).unwrap();
        assert_eq!(v4, 2);
        assert!(res.is_err());
        drain(&state, writer);
    }

    #[test]
    fn draining_refuses_new_work_but_serves_admitted() {
        let (state, writer) = spawn_state();
        state.start_drain();
        assert!(matches!(
            state.submit_query(&[QuerySpec::Member(0)]),
            Err(ServeError::Draining)
        ));
        assert!(matches!(
            state.submit_write(WriteOp::Retire(0)),
            Err(ServeError::Draining)
        ));
        writer.join().unwrap();
    }

    #[test]
    fn full_write_queue_is_backpressure_not_blocking() {
        // No writer thread running: the queue only fills.
        let state = SharedState::new(small_miner(), 2, 1);
        let (tx, _rx) = mpsc::channel();
        for _ in 0..2 {
            state
                .write_queue
                .push(
                    WriteJob {
                        op: WriteOp::Retire(0),
                        reply: tx.clone(),
                    },
                    "write",
                )
                .unwrap();
        }
        assert!(matches!(
            state.submit_write(WriteOp::Retire(1)),
            Err(ServeError::Backpressure("write"))
        ));
        assert_eq!(state.counters.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        let (state, writer) = spawn_state();
        let mut joins = Vec::new();
        for i in 0..8 {
            let s = Arc::clone(&state);
            joins.push(thread::spawn(move || {
                let (_, results) = s.submit_query(&[QuerySpec::Member(i % 4)]).unwrap();
                assert_eq!(results.len(), 1);
                assert!(results[0].is_ok());
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let c = &state.counters;
        assert_eq!(c.specs.load(Ordering::Relaxed), 8);
        assert_eq!(c.batches.load(Ordering::Relaxed), 8);
        assert_eq!(c.max_batch.load(Ordering::Relaxed), 1);
        drain(&state, writer);
    }

    #[test]
    fn scan_gate_bounds_concurrency_then_backpressures() {
        let state = SharedState::new(small_miner(), 8, 1);
        let permit = state.acquire_scan().unwrap();
        // The single slot is held: a second acquire waits out the
        // bounded gate and comes back as typed backpressure.
        match state.acquire_scan() {
            Err(ServeError::Backpressure("scan")) => {}
            Err(other) => panic!("expected scan backpressure, got {other:?}"),
            Ok(_) => panic!("expected scan backpressure, got a permit"),
        }
        assert_eq!(state.counters.rejected.load(Ordering::Relaxed), 1);
        drop(permit);
        // Slot released on drop: acquire succeeds again.
        let permit = state.acquire_scan().unwrap();
        drop(permit);
        // Draining turns waiting into a typed 503.
        let held = state.acquire_scan().unwrap();
        state.start_drain();
        assert!(matches!(state.acquire_scan(), Err(ServeError::Draining)));
        drop(held);
    }
}
