//! Streaming diagnosis serving: the `vqd serve` daemon engine.
//!
//! The paper diagnoses sessions offline from completed corpora; an
//! operator runs the same model against *live* traffic, where probe
//! telemetry arrives as an interleaved, reordered, duplicated and
//! sometimes truncated stream of per-VP events. This module turns the
//! batched serving engine into a long-running daemon:
//!
//! ```text
//!   events ──route by fnv(session id)──► shard queues (bounded)
//!                                           │ one worker thread each
//!                                           ▼
//!                                     session tables
//!                               (reassemble samples by seq)
//!                                           │ complete / watermark
//!                                           │ expiry / eviction
//!                                           ▼
//!                                 flush what the event settled
//!                                through Diagnoser::diagnose_batch
//!                                           │
//!                                           ▼
//!                                     sink callback
//! ```
//!
//! **Determinism.** The daemon's hard invariant is that a session's
//! diagnosis is bitwise identical to offline `vqd diagnose --batch`
//! over the same samples, for *any* arrival order, interleaving,
//! duplication or shard count. Three properties compose to give it:
//!
//! 1. A session's canonical metric vector is its samples sorted by the
//!    source-assigned `seq`, duplicates dropped — a pure function of
//!    the event *set*, not the arrival order.
//! 2. One session is owned by exactly one shard (routing hashes only
//!    the session id), so no session is ever split across tables.
//! 3. [`Diagnoser::diagnose_batch`] computes each row independently
//!    (per-row feature scatter, no cross-row reductions), so how
//!    sessions are grouped into flush batches cannot change any
//!    session's bits — and PR 5's engine is already bit-identical to
//!    the scalar path at any thread count.
//!
//! Only the *order* in which diagnoses are emitted varies run to run;
//! consumers key on the session id.
//!
//! **Lifecycle.** A session flushes on the first of: *completion* (its
//! `end` marker and every promised `seq` arrived), *watermark expiry*
//! (event time advanced more than the allowed lateness past the
//! session's newest timestamp), *eviction* (shard table over its cap;
//! least-recently-touched session goes first), or *shutdown* (input
//! ended). Partial sessions are diagnosed from whatever arrived and
//! resolve through the quality-tier fallback (exact → location →
//! existence) instead of erroring — the §6.2 partial-deployment
//! machinery doing live duty. The shard diagnoses whatever an event
//! (or the sweep it triggered) staged before it takes the next event,
//! so a verdict leaves on the event that completed its session; only
//! the drift fold batches, every [`ServeConfig::flush_batch`] sessions.
//!
//! **Backpressure.** Shard queues are bounded; when a worker falls
//! behind, [`StreamServer::push_event`] blocks instead of buffering
//! without limit, propagating pressure to the ingest edge (stdin or
//! socket), where the transport's own flow control takes over. Past
//! the optional shedding high-water mark the daemon instead starts
//! dropping the lowest-value buffered samples (see [`ServeConfig::
//! shed`]), trading per-session answer quality for ingest liveness.
//!
//! **Durability.** With a [`Durability`] config, accepted events are
//! journaled ([`vqd_probes::journal`]) before they enter a shard
//! queue, and consistent state snapshots ([`snapshot`]) are cut on a
//! cadence and at shutdown via an in-band barrier message through the
//! FIFO queues. Recovery ([`recovery`]) = newest valid snapshot +
//! journal suffix replay + output-file dedup; the recovered daemon's
//! merged output is byte-identical to offline batch diagnosis, every
//! session answered exactly once.

pub mod ops;
pub mod recovery;
pub mod snapshot;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use vqd_obs::LogHistogram;
use vqd_probes::event::{EventKind, ProbeEvent};
use vqd_probes::journal::JournalWriter;

use crate::dataset::LabeledRun;
use crate::diagnoser::{Diagnoser, Diagnosis, Resolution};
use crate::error::VqdError;

pub use recovery::{
    inspect_recovery, prepare_output, recover_state, Durability, JournalSpec, OutputPrep,
    RecoveredState, RecoveryInfo, SnapshotSpec,
};
pub use snapshot::{PortableSession, StreamSnapshot};

/// Lock a mutex, riding through poisoning: a panicked holder leaves
/// per-shard tallies possibly stale, never unsound, and the daemon
/// must outlive any single worker's panic.
fn lock_in<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Bounded MPSC queue
// ---------------------------------------------------------------------------

/// A bounded FIFO handing events to one shard worker.
///
/// `std::sync::mpsc::sync_channel` would block the same way, but hides
/// its depth; the serving daemon wants the queue observable (depth
/// gauges are the first thing an operator looks at) and closable from
/// the producer side, so this is the minimal Mutex + two-Condvar
/// queue.
///
/// The consumer takes the whole queue per lock ([`Bounded::drain`]),
/// and each side signals only when the other is asleep: a push wakes
/// the consumer only if it waits on an empty queue, a drain wakes
/// producers only if one is blocked on a full one. With a futex
/// condvar every notify is a syscall, so per-event signalling would
/// cost two syscalls and two lock round-trips per event.
pub struct Bounded<T> {
    inner: Mutex<BoundedInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

struct BoundedInner<T> {
    q: VecDeque<T>,
    /// Items the consumer drained and has not yet released (by coming
    /// back for more). They still count against `cap`, so the bound
    /// covers everything accepted but not yet processed.
    held: usize,
    /// Producers blocked on `not_full`.
    blocked: usize,
    /// Consumers waiting on `not_empty` (the queue is empty).
    starved: usize,
    closed: bool,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (min 1).
    pub fn new(cap: usize) -> Self {
        Bounded {
            inner: Mutex::new(BoundedInner {
                q: VecDeque::new(),
                held: 0,
                blocked: 0,
                starved: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Push, blocking while queued plus held items reach the capacity
    /// (this is the backpressure edge). Returns `false` if the queue
    /// was closed.
    pub fn push(&self, v: T) -> bool {
        let mut g = lock_in(&self.inner);
        while g.q.len() + g.held >= self.cap && !g.closed {
            g.blocked += 1;
            g = self
                .not_full
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
            g.blocked -= 1;
        }
        if g.closed {
            return false;
        }
        // Pushes that find the queue already filled rode on the wake
        // of the push that filled it.
        let wake = g.starved > 0 && g.q.is_empty();
        g.q.push_back(v);
        drop(g);
        if wake {
            self.not_empty.notify_one();
        }
        true
    }

    /// Release the previous batch, then move every queued item into
    /// `batch` (which the caller has emptied), blocking while the
    /// queue is empty. The moved items stay counted against the
    /// capacity until the next call. `false` means closed *and*
    /// drained.
    pub fn drain(&self, batch: &mut VecDeque<T>) -> bool {
        debug_assert!(batch.is_empty(), "drain into an unprocessed batch");
        let mut g = lock_in(&self.inner);
        let freed = std::mem::take(&mut g.held);
        if freed > 0 && g.blocked > 0 {
            self.not_full.notify_all();
        }
        while g.q.is_empty() {
            if g.closed {
                return false;
            }
            g.starved += 1;
            g = self
                .not_empty
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
            g.starved -= 1;
        }
        std::mem::swap(&mut g.q, batch);
        g.held = batch.len();
        true
    }

    /// Close the queue: pushes start failing, drains empty it then end.
    pub fn close(&self) {
        lock_in(&self.inner).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Accepted but unprocessed items: queued plus held by the
    /// consumer (racy by nature; for gauges only).
    pub fn len(&self) -> usize {
        let g = lock_in(&self.inner);
        g.q.len() + g.held
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning for the streaming daemon. `Default` is sized for tests and
/// small replays; the CLI exposes every knob.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard (worker thread) count; sessions are hash-partitioned
    /// across shards. Any value yields bit-identical diagnoses.
    pub shards: usize,
    /// Per-shard event queue capacity; producers block when full.
    pub queue_capacity: usize,
    /// Diagnosed sessions between drift folds: each shard folds its
    /// local drift window into [`ServeConfig::drift`] once it holds
    /// this many outcomes (and at snapshot barriers and shutdown).
    /// Verdicts never wait for it: a shard flushes whatever an event
    /// staged before taking the next event.
    pub flush_batch: usize,
    /// Watermark lateness in event-time seconds: once a shard has seen
    /// event time `T`, sessions whose newest timestamp is older than
    /// `T - lateness` are flushed as partial. `None` disables expiry;
    /// events without `ts` never advance or trip watermarks either
    /// way.
    pub lateness: Option<f64>,
    /// Resident-session cap per shard; beyond it the least recently
    /// touched session is flushed as evicted.
    pub max_sessions: usize,
    /// Overload-shedding high-water mark: buffered samples per shard
    /// beyond which the shard sheds its lowest-value samples (largest
    /// session first, least important metric first) instead of letting
    /// backpressure stall ingest. Shed sessions degrade through the
    /// quality tiers rather than blocking the stream. `None` (the
    /// default, and `--no-shed`) never sheds: strict mode, where the
    /// streamed-equals-offline invariant holds unconditionally.
    pub shed: Option<usize>,
    /// Record each diagnosis's decision path and attach it to the
    /// [`FlushedSession`] (`--audit-log`). Verdicts are bitwise
    /// unaffected.
    pub audit: bool,
    /// Shared drift monitor: each shard keeps a local
    /// [`DriftWindow`](crate::drift::DriftWindow) and folds it in every
    /// [`ServeConfig::flush_batch`] sessions, after which the monitor
    /// publishes `serve.drift.*` gauges and raises threshold alerts.
    pub drift: Option<Arc<Mutex<crate::drift::DriftMonitor>>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 1024,
            flush_batch: 32,
            lateness: None,
            max_sessions: 4096,
            shed: None,
            audit: false,
            drift: None,
        }
    }
}

/// Why a session left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// `end` marker seen and every promised `seq` present.
    Complete,
    /// Event time moved past the session by more than the lateness.
    Watermark,
    /// Shard table exceeded `max_sessions`.
    Evicted,
    /// Input ended with the session still resident.
    Shutdown,
}

impl FlushCause {
    /// Stable lowercase name (TSV/report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            FlushCause::Complete => "complete",
            FlushCause::Watermark => "watermark",
            FlushCause::Evicted => "evicted",
            FlushCause::Shutdown => "shutdown",
        }
    }
}

/// One diagnosed session leaving the daemon.
#[derive(Debug)]
pub struct FlushedSession {
    /// Session id (as carried by its events).
    pub session: String,
    /// Why it flushed.
    pub cause: FlushCause,
    /// Distinct samples that arrived.
    pub samples: usize,
    /// Duplicate sample events dropped during reassembly.
    pub duplicates: u64,
    /// Samples shed from this session under overload (degraded
    /// answer if nonzero).
    pub shed: u64,
    /// Owning shard.
    pub shard: usize,
    /// The diagnosis — bitwise what offline batch serving produces
    /// for the same samples.
    pub diagnosis: Diagnosis,
    /// The decision path behind the diagnosis, when the server ran
    /// with [`ServeConfig::audit`]; replaying it through the same
    /// model reproduces the verdict exactly.
    pub audit: Option<Vec<vqd_ml::AuditStep>>,
}

/// End-of-run accounting, merged across shards.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Events routed to shards (parse failures excluded).
    pub events: u64,
    /// Malformed lines rejected at the ingest edge.
    pub parse_errors: u64,
    /// Duplicate sample events dropped.
    pub duplicates: u64,
    /// Events dropped because their session was already flushed
    /// (stragglers past a completion or lateness flush).
    pub late_events: u64,
    /// Sessions flushed, total and by cause.
    pub sessions: u64,
    /// Sessions flushed complete.
    pub complete: u64,
    /// Sessions flushed by watermark expiry.
    pub expired: u64,
    /// Sessions flushed by eviction pressure.
    pub evicted: u64,
    /// Sessions flushed at shutdown.
    pub shutdown: u64,
    /// Diagnoses per resolution tier (exact, location, existence).
    pub tiers: [u64; 3],
    /// `diagnose_batch` flush calls.
    pub flush_batches: u64,
    /// Flush latency in milliseconds (whole batch; mergeable).
    pub flush_ms: LogHistogram,
    /// Samples shed under overload.
    pub shed_samples: u64,
    /// Sessions that lost at least one sample to shedding.
    pub shed_sessions: u64,
    /// Journal records replayed during recovery startup.
    pub replayed: u64,
    /// Re-flushes suppressed because the session was already answered
    /// in the output file before the crash.
    pub suppressed: u64,
    /// State snapshots written (cadence + shutdown).
    pub snapshots: u64,
}

impl ServeReport {
    fn absorb(&mut self, s: &ShardStats) {
        self.duplicates += s.duplicates;
        self.late_events += s.late_events;
        self.sessions += s.sessions;
        self.complete += s.complete;
        self.expired += s.expired;
        self.evicted += s.evicted;
        self.shutdown += s.shutdown;
        for (t, n) in self.tiers.iter_mut().zip(s.tiers) {
            *t += n;
        }
        self.flush_batches += s.flush_batches;
        self.flush_ms.merge(&s.flush_ms);
        self.shed_samples += s.shed_samples;
        self.shed_sessions += s.shed_sessions;
    }
}

#[derive(Default)]
struct ShardStats {
    duplicates: u64,
    late_events: u64,
    sessions: u64,
    complete: u64,
    expired: u64,
    evicted: u64,
    shutdown: u64,
    tiers: [u64; 3],
    flush_batches: u64,
    flush_ms: LogHistogram,
    shed_samples: u64,
    shed_sessions: u64,
}

// ---------------------------------------------------------------------------
// Session reassembly
// ---------------------------------------------------------------------------

/// One in-flight session: samples keyed by canonical `seq`, kept
/// sorted and unique so the rebuilt metric vector is a pure function
/// of the event set.
#[derive(Default)]
struct SessionState {
    /// `(seq, metric, value)`, sorted by `seq`, no duplicate seqs.
    samples: Vec<(u64, String, f64)>,
    /// Sample count promised by the `end` marker, once seen.
    expected: Option<u64>,
    /// Newest event timestamp seen (`None` until a `ts` arrives).
    newest_ts: Option<f64>,
    /// Shard tick of the last touch (eviction recency; unique per
    /// shard, so the eviction victim is deterministic).
    last_tick: u64,
    /// Duplicate sample events dropped.
    duplicates: u64,
    /// Samples shed under overload (the answer is degraded).
    shed: u64,
}

impl SessionState {
    fn touch(&mut self, tick: u64, ts: Option<f64>) {
        self.last_tick = tick;
        if let Some(t) = ts {
            self.newest_ts = Some(match self.newest_ts {
                Some(prev) => prev.max(t),
                None => t,
            });
        }
    }

    /// Insert one sample; `false` means a duplicate seq was dropped.
    fn add_sample(&mut self, seq: u64, metric: String, value: f64) -> bool {
        match self.samples.binary_search_by_key(&seq, |s| s.0) {
            Ok(_) => {
                self.duplicates += 1;
                false
            }
            Err(pos) => {
                self.samples.insert(pos, (seq, metric, value));
                true
            }
        }
    }

    /// Portable form for snapshots (clones; the session stays live).
    fn to_portable(&self, id: &str) -> PortableSession {
        PortableSession {
            id: id.to_string(),
            expected: self.expected,
            newest_ts: self.newest_ts,
            duplicates: self.duplicates,
            shed: self.shed,
            samples: self.samples.clone(),
        }
    }

    /// Rebuild from a snapshot at restore tick `tick`.
    fn from_portable(p: PortableSession, tick: u64) -> (String, SessionState) {
        (
            p.id,
            SessionState {
                samples: p.samples,
                expected: p.expected,
                newest_ts: p.newest_ts,
                last_tick: tick,
                duplicates: p.duplicates,
                shed: p.shed,
            },
        )
    }

    /// Complete ⇔ `end` seen and the sorted-unique seqs are exactly
    /// `0..expected` (length + endpoints pin the set by pigeonhole).
    fn complete(&self) -> bool {
        match self.expected {
            Some(0) => self.samples.is_empty(),
            Some(e) => {
                self.samples.len() as u64 == e
                    && self.samples[0].0 == 0
                    && self.samples[self.samples.len() - 1].0 == e - 1
            }
            None => false,
        }
    }

    fn into_metrics(self) -> (Vec<(String, f64)>, u64) {
        (
            self.samples.into_iter().map(|(_, n, v)| (n, v)).collect(),
            self.duplicates,
        )
    }
}

/// FNV-1a session-id hash for shard routing. Only the id is hashed,
/// so one session always lands on one shard.
fn shard_of(session: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    (h % shards as u64) as usize
}

// ---------------------------------------------------------------------------
// Shard worker
// ---------------------------------------------------------------------------

/// Events between watermark / eviction sweeps of a shard table.
const SWEEP_EVERY: u64 = 64;

type Sink = Arc<Mutex<dyn FnMut(FlushedSession) + Send>>;

/// What travels down a shard queue: events, or an in-band snapshot
/// barrier. Because the queue is FIFO, a worker that answers `Snap`
/// has processed *exactly* the events routed before the barrier was
/// pushed — a consistent cut across shards with no global pause.
enum ShardMsg {
    /// One routed probe event.
    Event(ProbeEvent),
    /// Snapshot barrier: reply with this shard's state as of now.
    Snap(mpsc::Sender<ShardSnap>),
}

/// One shard's contribution to a snapshot (or its final state at
/// graceful shutdown: sessions empty, tombstones and clock kept).
struct ShardSnap {
    shard: usize,
    /// `(last_tick, session)` — recency preserved for restore.
    sessions: Vec<(u64, PortableSession)>,
    /// Retired ids, FIFO order.
    tombstones: Vec<String>,
    max_ts: Option<f64>,
}

/// Per-metric shed value derived from the model: feature importance
/// of the exact feature, half-credit for features the metric merely
/// feeds (substring match), zero for metrics the tree never splits
/// on. Under overload the *least* valuable samples go first, so the
/// degraded diagnosis keeps the splits that matter most.
struct ShedValues {
    by_name: HashMap<String, f64>,
    features: Vec<(String, f64)>,
}

impl ShedValues {
    fn new(diagnoser: &Diagnoser) -> ShedValues {
        let imp = diagnoser.tree().feature_importance();
        let features: Vec<(String, f64)> = diagnoser
            .feature_names
            .iter()
            .cloned()
            .zip(imp.iter().copied())
            .collect();
        ShedValues {
            by_name: features.iter().cloned().collect(),
            features,
        }
    }

    fn value(&self, metric: &str) -> f64 {
        if let Some(v) = self.by_name.get(metric) {
            return *v;
        }
        let mut best = 0.0f64;
        for (name, v) in &self.features {
            if name.contains(metric) || metric.contains(name.as_str()) {
                best = best.max(0.5 * v);
            }
        }
        best
    }
}

struct PendingFlush {
    session: String,
    cause: FlushCause,
    metrics: Vec<(String, f64)>,
    duplicates: u64,
    shed: u64,
}

struct ShardWorker {
    shard: usize,
    diagnoser: Arc<Diagnoser>,
    cfg: ServeConfig,
    sink: Sink,
    table: HashMap<String, SessionState>,
    /// Recently flushed session ids: stragglers for an
    /// already-answered session (duplicate copies racing a completion
    /// flush, data beyond the allowed lateness) are dropped instead of
    /// reopening it — the daemon answers each session exactly once.
    /// Bounded FIFO so a long-lived daemon can't leak.
    retired: HashSet<String>,
    retired_fifo: VecDeque<String>,
    pending: Vec<PendingFlush>,
    tick: u64,
    max_ts: Option<f64>,
    stats: ShardStats,
    /// Buffered samples across the table (shedding trigger).
    buffered: usize,
    /// Per-metric shed values (shared, model-derived) + memo cache.
    shed_values: Arc<ShedValues>,
    shed_memo: HashMap<String, f64>,
    /// Simulated-crash flag: when set, bail out without flushing
    /// anything — the in-process equivalent of `kill -9`.
    abandon: Arc<AtomicBool>,
    /// Shard-local drift window (when [`ServeConfig::drift`] is set):
    /// filled lock-free inside each flush's diagnose pass, folded
    /// into the shared monitor every `flush_batch` sessions.
    drift_local: Option<crate::drift::DriftWindow>,
}

impl ShardWorker {
    fn run(mut self, queue: Arc<Bounded<ShardMsg>>) -> (ShardStats, ShardSnap) {
        let mut batch = VecDeque::new();
        while queue.drain(&mut batch) {
            while let Some(msg) = batch.pop_front() {
                if self.abandon.load(Ordering::SeqCst) {
                    return self.dead_snap();
                }
                match msg {
                    ShardMsg::Event(ev) => {
                        self.tick += 1;
                        self.ingest(ev);
                        if self.tick.is_multiple_of(SWEEP_EVERY) {
                            self.sweep_watermark();
                            if vqd_obs::enabled() {
                                vqd_obs::recorder()
                                    .hist_record("serve.queue.depth", queue.len() as f64);
                            }
                        }
                        // A verdict leaves on the event that settled it.
                        // The flush points follow the FIFO event order
                        // alone, so the flush count is deterministic.
                        self.flush();
                    }
                    ShardMsg::Snap(tx) => {
                        // Flush staged sessions first: their output
                        // lines must be durable before a snapshot
                        // tombstones them, or a crash between the two
                        // would lose their answers.
                        self.flush();
                        self.fold_drift(true);
                        let snap = self.collect_snap();
                        let _ = tx.send(snap);
                    }
                }
            }
        }
        if self.abandon.load(Ordering::SeqCst) {
            return self.dead_snap();
        }
        // Input over: everything still resident flushes as shutdown,
        // in session-id order so the drain itself is deterministic.
        let mut keys: Vec<String> = self.table.keys().cloned().collect();
        keys.sort_unstable();
        for k in keys {
            self.retire(&k, FlushCause::Shutdown);
        }
        self.flush();
        self.fold_drift(true);
        let fin = self.collect_snap();
        (self.stats, fin)
    }

    /// A crashed worker's return value: nothing in it may be trusted
    /// or persisted, it only satisfies the join.
    fn dead_snap(self) -> (ShardStats, ShardSnap) {
        (
            self.stats,
            ShardSnap {
                shard: self.shard,
                sessions: Vec::new(),
                tombstones: Vec::new(),
                max_ts: None,
            },
        )
    }

    /// This shard's state in portable form, recency order.
    fn collect_snap(&self) -> ShardSnap {
        let mut sessions: Vec<(u64, PortableSession)> = self
            .table
            .iter()
            .map(|(id, s)| (s.last_tick, s.to_portable(id)))
            .collect();
        sessions.sort_unstable_by_key(|(tick, _)| *tick);
        ShardSnap {
            shard: self.shard,
            sessions,
            tombstones: self.retired_fifo.iter().cloned().collect(),
            max_ts: self.max_ts,
        }
    }

    fn ingest(&mut self, ev: ProbeEvent) {
        let ProbeEvent { session, ts, kind } = ev;
        if let Some(t) = ts {
            self.max_ts = Some(match self.max_ts {
                Some(prev) => prev.max(t),
                None => t,
            });
        }
        if self.retired.contains(&session) {
            self.stats.late_events += 1;
            if vqd_obs::enabled() {
                vqd_obs::recorder().counter_add("serve.events.late", 1);
            }
            return;
        }
        if !self.table.contains_key(&session) {
            self.table.insert(session.clone(), SessionState::default());
        }
        let done = match self.table.get_mut(&session) {
            Some(entry) => {
                entry.touch(self.tick, ts);
                match kind {
                    EventKind::Sample { seq, metric, value } => {
                        if entry.add_sample(seq, metric, value) {
                            self.buffered += 1;
                        }
                    }
                    EventKind::End { expected } => entry.expected = Some(expected),
                }
                entry.complete()
            }
            None => false,
        };
        if done {
            self.retire(&session, FlushCause::Complete);
        } else if self.table.len() > self.cfg.max_sessions {
            self.evict_one();
        }
        if let Some(high) = self.cfg.shed {
            if self.buffered > high {
                self.shed_down(high);
            }
        }
    }

    /// Shed buffered samples until at most `target` remain. Victim
    /// selection is deterministic (a pure function of shard state):
    /// largest session first (tie: smallest id), and within it the
    /// lowest-value metrics first (tie: highest seq), so what survives
    /// is what the model would miss most. Shed sessions keep serving —
    /// they just resolve through coarser quality tiers.
    fn shed_down(&mut self, target: usize) {
        while self.buffered > target {
            let victim = self
                .table
                .iter()
                .filter(|(_, s)| !s.samples.is_empty())
                .max_by(|(ak, a), (bk, b)| {
                    a.samples
                        .len()
                        .cmp(&b.samples.len())
                        .then_with(|| bk.cmp(ak))
                })
                .map(|(k, _)| k.clone());
            let Some(key) = victim else {
                return; // nothing sheddable (end-only sessions)
            };
            let need = self.buffered - target;
            let Some(state) = self.table.get_mut(&key) else {
                return;
            };
            // Drop up to half the session per round so the pain
            // spreads across sessions instead of zeroing one out.
            let k = need.min((state.samples.len() / 2).max(1));
            let mut order: Vec<usize> = (0..state.samples.len()).collect();
            let values: Vec<f64> = state
                .samples
                .iter()
                .map(|(_, m, _)| match self.shed_memo.get(m) {
                    Some(v) => *v,
                    None => {
                        let v = self.shed_values.value(m);
                        self.shed_memo.insert(m.clone(), v);
                        v
                    }
                })
                .collect();
            order.sort_unstable_by(|&a, &b| {
                values[a]
                    .total_cmp(&values[b])
                    .then_with(|| state.samples[b].0.cmp(&state.samples[a].0))
            });
            let mut doomed: Vec<usize> = order[..k].to_vec();
            doomed.sort_unstable_by(|a, b| b.cmp(a));
            for i in doomed {
                state.samples.remove(i);
            }
            if state.shed == 0 {
                self.stats.shed_sessions += 1;
                if vqd_obs::enabled() {
                    vqd_obs::recorder().counter_add("serve.shed.sessions", 1);
                }
            }
            state.shed += k as u64;
            self.buffered -= k;
            self.stats.shed_samples += k as u64;
            if vqd_obs::enabled() {
                vqd_obs::recorder().counter_add("serve.shed.samples", k as u64);
            }
        }
    }

    /// Remove `key` from the table, stage it for the next flush, and
    /// tombstone it so stragglers can't reopen it.
    fn retire(&mut self, key: &str, cause: FlushCause) {
        if let Some(state) = self.table.remove(key) {
            if self.retired.insert(key.to_string()) {
                self.retired_fifo.push_back(key.to_string());
                // Remember ~4 tables' worth of flushed ids; beyond
                // that a reopened straggler session is accepted (and
                // flushed again at shutdown) rather than leaking.
                if self.retired_fifo.len() > self.cfg.max_sessions.saturating_mul(4).max(1024) {
                    if let Some(old) = self.retired_fifo.pop_front() {
                        self.retired.remove(&old);
                    }
                }
            }
            self.buffered = self.buffered.saturating_sub(state.samples.len());
            let shed = state.shed;
            let (metrics, duplicates) = state.into_metrics();
            self.pending.push(PendingFlush {
                session: key.to_string(),
                cause,
                metrics,
                duplicates,
                shed,
            });
        }
    }

    /// Flush sessions whose newest event time fell behind the shard's
    /// watermark (max event time minus allowed lateness).
    fn sweep_watermark(&mut self) {
        let (Some(lateness), Some(max_ts)) = (self.cfg.lateness, self.max_ts) else {
            return;
        };
        let cutoff = max_ts - lateness;
        let mut victims: Vec<String> = self
            .table
            .iter()
            .filter(|(_, s)| s.newest_ts.is_some_and(|t| t < cutoff))
            .map(|(k, _)| k.clone())
            .collect();
        victims.sort_unstable();
        for k in victims {
            self.retire(&k, FlushCause::Watermark);
        }
    }

    /// Flush the least recently touched session (unique per shard:
    /// ticks are a per-shard monotone counter).
    fn evict_one(&mut self) {
        let victim = self
            .table
            .iter()
            .min_by_key(|(_, s)| s.last_tick)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            self.retire(&k, FlushCause::Evicted);
        }
    }

    /// Push the staged sessions through `diagnose_batch` and hand the
    /// diagnoses to the sink. Single-shard engine call: the daemon's
    /// parallelism is across shard workers, and the warm
    /// `ScratchPool` on the compiled model means each worker reuses
    /// its interned plan cache across flushes.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.pending);
        let t0 = Instant::now();
        let batch = {
            let views: Vec<&[(String, f64)]> =
                staged.iter().map(|p| p.metrics.as_slice()).collect();
            self.diagnoser.diagnose_batch_with(
                &views,
                1,
                crate::serving::BatchOptions {
                    audit: self.cfg.audit,
                    drift: self.drift_local.as_mut(),
                },
            )
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.stats.flush_batches += 1;
        self.stats.flush_ms.record(ms);
        let obs_on = vqd_obs::enabled();
        if obs_on {
            let r = vqd_obs::recorder();
            r.hist_record("serve.flush.ms", ms);
            r.hist_record("serve.flush.sessions", staged.len() as f64);
            r.counter_add("serve.flushes", 1);
        }
        for (i, p) in staged.into_iter().enumerate() {
            let dx = batch.get(i);
            let tier = match dx.resolution {
                Resolution::Exact => 0,
                Resolution::Location => 1,
                Resolution::Existence => 2,
            };
            self.stats.tiers[tier] += 1;
            self.stats.sessions += 1;
            self.stats.duplicates += p.duplicates;
            match p.cause {
                FlushCause::Complete => self.stats.complete += 1,
                FlushCause::Watermark => self.stats.expired += 1,
                FlushCause::Evicted => self.stats.evicted += 1,
                FlushCause::Shutdown => self.stats.shutdown += 1,
            }
            if obs_on {
                let r = vqd_obs::recorder();
                r.counter_add(
                    match tier {
                        0 => "serve.tier.exact",
                        1 => "serve.tier.location",
                        _ => "serve.tier.existence",
                    },
                    1,
                );
                r.counter_add(
                    match p.cause {
                        FlushCause::Complete => "serve.sessions.complete",
                        FlushCause::Watermark => "serve.sessions.expired",
                        FlushCause::Evicted => "serve.sessions.evicted",
                        FlushCause::Shutdown => "serve.sessions.shutdown",
                    },
                    1,
                );
            }
            (lock_in(&self.sink))(FlushedSession {
                session: p.session,
                cause: p.cause,
                samples: p.metrics.len(),
                duplicates: p.duplicates,
                shed: p.shed,
                shard: self.shard,
                diagnosis: dx,
                audit: batch.audit_path(i).map(<[_]>::to_vec),
            });
        }
        self.fold_drift(false);
    }

    /// Fold this shard's drift window into the shared monitor and
    /// re-evaluate, once the window holds `flush_batch` outcomes or
    /// when `force`d (snapshot barrier, shutdown), so the monitor sees
    /// every session once. Evaluation is PSI over every feature, far
    /// dearer than one session's descent, hence the session cadence;
    /// the hot ingest path never touches the monitor lock.
    fn fold_drift(&mut self, force: bool) {
        let (Some(monitor), Some(local)) = (&self.cfg.drift, &mut self.drift_local) else {
            return;
        };
        if local.is_empty() || (!force && local.outcomes < self.cfg.flush_batch as u64) {
            return;
        }
        if let Ok(mut m) = monitor.lock() {
            m.absorb(local);
            let reading = m.evaluate();
            for alert in &reading.alerts {
                eprintln!("[vqd serve] {alert}");
            }
        }
        local.clear();
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The streaming daemon: routes events to shard workers and joins
/// them at the end. Drop-in embedding API for the `vqd serve`
/// subcommand and the tests/benches. With a [`Durability`] config it
/// journals accepted events, cuts barrier snapshots, and can restart
/// from a [`RecoveredState`].
pub struct StreamServer {
    queues: Vec<Arc<Bounded<ShardMsg>>>,
    workers: Vec<JoinHandle<(ShardStats, ShardSnap)>>,
    events: u64,
    parse_errors: u64,
    journal: Option<JournalWriter>,
    snapshots: Option<SnapshotSpec>,
    /// Events routed to queues so far — the journal seq a snapshot
    /// barrier pushed *now* would cover.
    covered_seq: u64,
    /// Events routed since the last snapshot (cadence counter).
    since_snap: u64,
    snapshots_written: u64,
    replayed: u64,
    suppressed: Arc<AtomicU64>,
    abandon: Arc<AtomicBool>,
    /// Journal appends not yet folded into the obs counter; reported
    /// in batches so the hot path skips the per-event recorder call.
    journal_unreported: u64,
    /// Routed events not yet folded into the obs counter (same
    /// batching as `journal_unreported`).
    events_unreported: u64,
}

impl StreamServer {
    /// Spawn `cfg.shards` workers serving `diagnoser`; every flushed
    /// session is handed to `sink` (called from worker threads, one
    /// at a time). No durability: the PR 6 daemon, nothing survives a
    /// crash.
    pub fn new(
        diagnoser: Arc<Diagnoser>,
        cfg: ServeConfig,
        sink: impl FnMut(FlushedSession) + Send + 'static,
    ) -> StreamServer {
        match Self::start(diagnoser, cfg, Durability::none(), None, sink) {
            Ok(s) => s,
            Err(e) => unreachable!("StreamServer without durability cannot fail to start: {e}"),
        }
    }

    /// Spawn the daemon with durability. `recovered` (from
    /// [`recover_state`]) seeds the shard tables from the snapshot
    /// and replays the journal suffix before this returns; flushes
    /// for sessions already present in the output file are
    /// suppressed. Restored sessions are re-routed by id hash, so the
    /// shard count may differ from the crashed run's.
    pub fn start(
        diagnoser: Arc<Diagnoser>,
        cfg: ServeConfig,
        durability: Durability,
        recovered: Option<RecoveredState>,
        sink: impl FnMut(FlushedSession) + Send + 'static,
    ) -> Result<StreamServer, VqdError> {
        let shards = cfg.shards.max(1);
        if durability.snapshots.is_some() && durability.journal.is_none() && recovered.is_none() {
            return Err(VqdError::Config(
                "snapshots require a journal: a snapshot is keyed by a journal seq".to_string(),
            ));
        }

        // Suppression: sessions answered before the crash must not be
        // re-emitted by the replay. Diagnosis is deterministic, so
        // the suppressed line would have been byte-identical anyway.
        let suppressed = Arc::new(AtomicU64::new(0));
        let sink: Sink = match recovered.as_ref().map(|r| r.emitted.clone()) {
            Some(emitted) if !emitted.is_empty() => {
                let sup = Arc::clone(&suppressed);
                let mut inner = sink;
                Arc::new(Mutex::new(move |fs: FlushedSession| {
                    if emitted.contains(&fs.session) {
                        sup.fetch_add(1, Ordering::Relaxed);
                        if vqd_obs::enabled() {
                            vqd_obs::recorder().counter_add("serve.recovery.suppressed", 1);
                        }
                    } else {
                        inner(fs);
                    }
                }))
            }
            _ => Arc::new(Mutex::new(sink)),
        };

        // Distribute recovered state across the (possibly different)
        // shard layout: sessions and tombstones re-route by the same
        // id hash; the watermark clock collapses to its global max,
        // which can only delay expiry, never change a diagnosis.
        let mut init_sessions: Vec<Vec<PortableSession>> = vec![Vec::new(); shards];
        let mut init_tombs: Vec<Vec<String>> = vec![Vec::new(); shards];
        let mut init_max_ts: Option<f64> = None;
        let (journal, replay) = match recovered {
            Some(r) => {
                let RecoveredState {
                    writer,
                    sessions,
                    tombstones,
                    max_ts,
                    replay,
                    ..
                } = r;
                for s in sessions {
                    init_sessions[shard_of(&s.id, shards)].push(s);
                }
                for t in tombstones {
                    init_tombs[shard_of(&t, shards)].push(t);
                }
                init_max_ts = max_ts;
                (Some(writer), replay)
            }
            None => match &durability.journal {
                Some(spec) => {
                    let (writer, scan) =
                        JournalWriter::open(&spec.dir, spec.config()).map_err(VqdError::Journal)?;
                    if scan.next_seq() != 0 || scan.torn.is_some() {
                        return Err(VqdError::Config(format!(
                            "journal directory {} already holds {} record(s); \
                             pass --recover to resume from it or point --journal at a fresh \
                             directory",
                            spec.dir.display(),
                            scan.next_seq()
                        )));
                    }
                    (Some(writer), Vec::new())
                }
                None => (None, Vec::new()),
            },
        };
        let covered_seq = journal.as_ref().map(|j| j.next_seq()).unwrap_or(0) - replay.len() as u64;

        let shed_values = Arc::new(ShedValues::new(&diagnoser));
        let abandon = Arc::new(AtomicBool::new(false));
        let mut queues = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, (sessions, tombstones)) in init_sessions
            .drain(..)
            .zip(init_tombs.drain(..))
            .enumerate()
        {
            let queue = Arc::new(Bounded::new(cfg.queue_capacity));
            let mut table = HashMap::with_capacity(sessions.len());
            let mut buffered = 0usize;
            let mut tick = 0u64;
            for p in sessions {
                tick += 1;
                let (id, state) = SessionState::from_portable(p, tick);
                buffered += state.samples.len();
                table.insert(id, state);
            }
            let retired: HashSet<String> = tombstones.iter().cloned().collect();
            let retired_fifo: VecDeque<String> = tombstones.into();
            let worker = ShardWorker {
                shard,
                diagnoser: Arc::clone(&diagnoser),
                cfg: cfg.clone(),
                sink: Arc::clone(&sink),
                table,
                retired,
                retired_fifo,
                pending: Vec::new(),
                tick,
                max_ts: init_max_ts,
                stats: ShardStats::default(),
                buffered,
                shed_values: Arc::clone(&shed_values),
                shed_memo: HashMap::new(),
                abandon: Arc::clone(&abandon),
                drift_local: cfg.drift.is_some().then(|| diagnoser.drift_window()),
            };
            let q = Arc::clone(&queue);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("vqd-serve-{shard}"))
                    .spawn(move || worker.run(q))
                    .unwrap_or_else(|e| panic!("spawn serve shard {shard}: {e}")),
            );
            queues.push(queue);
        }
        let mut server = StreamServer {
            queues,
            workers,
            events: 0,
            parse_errors: 0,
            journal,
            snapshots: durability.snapshots,
            covered_seq,
            since_snap: 0,
            snapshots_written: 0,
            replayed: 0,
            suppressed,
            abandon,
            journal_unreported: 0,
            events_unreported: 0,
        };
        // Replay the journal suffix (already journaled — route only).
        for ev in replay {
            server.route(ev);
            server.replayed += 1;
        }
        Ok(server)
    }

    /// Fold batched journal appends into the obs counter.
    fn report_journal_counter(&mut self) {
        if self.journal_unreported > 0 {
            if vqd_obs::enabled() {
                vqd_obs::recorder().counter_add("serve.journal.records", self.journal_unreported);
            }
            self.journal_unreported = 0;
        }
    }

    /// Fold batched routed events into the obs counter.
    fn report_events_counter(&mut self) {
        if self.events_unreported > 0 {
            if vqd_obs::enabled() {
                vqd_obs::recorder().counter_add("serve.events", self.events_unreported);
            }
            self.events_unreported = 0;
        }
    }

    /// Route one event to its shard queue without journaling.
    fn route(&mut self, ev: ProbeEvent) {
        self.events += 1;
        self.events_unreported += 1;
        if self.events_unreported >= 256 {
            self.report_events_counter();
            if vqd_obs::enabled() {
                vqd_obs::recorder().gauge_set("serve.queue.depth", self.queue_depth() as f64);
            }
        }
        let shard = shard_of(&ev.session, self.queues.len());
        self.queues[shard].push(ShardMsg::Event(ev));
        self.covered_seq += 1;
    }

    /// Accept one event: journal it (write-ahead), route it to its
    /// shard (blocking if that queue is full — backpressure), and cut
    /// a snapshot if the cadence came due. The only error source is
    /// the durability layer; without one this never fails.
    pub fn push_event(&mut self, ev: ProbeEvent) -> Result<(), VqdError> {
        if let Some(j) = self.journal.as_mut() {
            j.append_with(|buf| ev.to_journal_bytes_into(buf))
                .map_err(VqdError::Journal)?;
            self.journal_unreported += 1;
            if self.journal_unreported >= 256 {
                self.report_journal_counter();
            }
        }
        self.route(ev);
        self.since_snap += 1;
        if let Some(every) = self.snapshots.as_ref().map(|s| s.every_events) {
            if every > 0 && self.since_snap >= every {
                self.write_snapshot()?;
            }
        }
        Ok(())
    }

    /// Parse and route one JSONL event line (1-based `lineno` for
    /// error messages). Blank lines are ignored. A malformed line is
    /// counted, reported as a typed error and *dropped* — the caller
    /// decides whether to keep going; the daemon state is untouched.
    pub fn push_line(&mut self, lineno: usize, line: &str) -> Result<(), VqdError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        match ProbeEvent::parse(line) {
            Ok(ev) => self.push_event(ev),
            Err(e) => {
                self.parse_errors += 1;
                if vqd_obs::enabled() {
                    vqd_obs::recorder().counter_add("serve.events.malformed", 1);
                }
                Err(VqdError::Event {
                    line: lineno,
                    source: e,
                })
            }
        }
    }

    /// Journal seq of the next accepted event — the ingest ack a
    /// sender resumes from after a crash (0 when not journaling).
    pub fn next_seq(&self) -> u64 {
        self.journal.as_ref().map(|j| j.next_seq()).unwrap_or(0)
    }

    /// Events accepted but not yet ingested across shards right now,
    /// queued or held by a worker (for gauges).
    pub fn queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Cut a consistent snapshot *now*: flush the journal, push a
    /// barrier message down every shard queue, assemble the replies
    /// at `covered_seq`, write atomically, prune old snapshots and
    /// the journal prefix they cover.
    pub fn write_snapshot(&mut self) -> Result<(), VqdError> {
        let Some(spec) = self.snapshots.clone() else {
            return Ok(());
        };
        if let Some(j) = self.journal.as_mut() {
            j.flush().map_err(VqdError::Journal)?;
        }
        let (tx, rx) = mpsc::channel();
        for q in &self.queues {
            if !q.push(ShardMsg::Snap(tx.clone())) {
                return Ok(()); // shutting down; finish() snapshots
            }
        }
        drop(tx);
        let mut shards: Vec<ShardSnap> = Vec::with_capacity(self.queues.len());
        for _ in 0..self.queues.len() {
            match rx.recv() {
                Ok(s) => shards.push(s),
                Err(_) => {
                    // A worker died mid-barrier: skip this snapshot
                    // rather than persist a partial cut.
                    if vqd_obs::enabled() {
                        vqd_obs::recorder().counter_add("serve.snapshot.failed", 1);
                    }
                    return Ok(());
                }
            }
        }
        self.persist_snapshot(&spec, shards)
    }

    /// Assemble per-shard cuts into one snapshot file at
    /// `covered_seq` and rotate retention.
    fn persist_snapshot(
        &mut self,
        spec: &SnapshotSpec,
        mut shards: Vec<ShardSnap>,
    ) -> Result<(), VqdError> {
        shards.sort_unstable_by_key(|s| s.shard);
        let mut snap = StreamSnapshot {
            seq: self.covered_seq,
            ..StreamSnapshot::default()
        };
        for sh in shards {
            if let Some(t) = sh.max_ts {
                snap.max_ts = Some(match snap.max_ts {
                    Some(prev) => prev.max(t),
                    None => t,
                });
            }
            snap.sessions
                .extend(sh.sessions.into_iter().map(|(_, p)| p));
            snap.tombstones.extend(sh.tombstones);
        }
        snap.save(&spec.dir)?;
        self.since_snap = 0;
        self.snapshots_written += 1;
        if vqd_obs::enabled() {
            vqd_obs::recorder().counter_add("serve.snapshot.written", 1);
        }
        if let Some(oldest_kept) = snapshot::prune_snapshots(&spec.dir, spec.keep)? {
            if let Some(j) = self.journal.as_mut() {
                j.prune_through(oldest_kept).map_err(VqdError::Journal)?;
            }
        }
        Ok(())
    }

    /// Close the queues, drain and join every worker, and return the
    /// merged accounting. Flushes all still-resident sessions as
    /// [`FlushCause::Shutdown`], then writes a final snapshot (empty
    /// tables, full tombstones) so a subsequent `--recover` restart
    /// replays nothing and re-answers nothing.
    pub fn finish(mut self) -> Result<ServeReport, VqdError> {
        self.report_journal_counter();
        self.report_events_counter();
        if let Some(j) = self.journal.as_mut() {
            j.flush().map_err(VqdError::Journal)?;
        }
        for q in &self.queues {
            q.close();
        }
        let mut report = ServeReport {
            events: self.events,
            parse_errors: self.parse_errors,
            replayed: self.replayed,
            ..ServeReport::default()
        };
        let mut finals: Vec<ShardSnap> = Vec::with_capacity(self.workers.len());
        for w in self.workers.drain(..) {
            match w.join() {
                Ok((stats, fin)) => {
                    report.absorb(&stats);
                    finals.push(fin);
                }
                Err(_) => {
                    // A worker died; its sessions are lost but the
                    // daemon still reports what the others did.
                    if vqd_obs::enabled() {
                        vqd_obs::recorder().counter_add("serve.shard.panics", 1);
                    }
                }
            }
        }
        if let Some(spec) = self.snapshots.clone() {
            if finals.len() == self.queues.len() {
                self.persist_snapshot(&spec, finals)?;
            }
        }
        if let Some(mut j) = self.journal.take() {
            j.flush().map_err(VqdError::Journal)?;
        }
        report.suppressed = self.suppressed.load(Ordering::Relaxed);
        report.snapshots = self.snapshots_written;
        Ok(report)
    }

    /// Simulate `kill -9` in-process: workers bail without flushing,
    /// the journal's buffered tail is discarded unwritten, no
    /// snapshot is cut. Everything the chaos harness needs to die at
    /// an exact event boundary — deterministically — without forking.
    pub fn crash(mut self) {
        self.abandon.store(true, Ordering::SeqCst);
        for q in &self.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(j) = self.journal.take() {
            j.abandon();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared output format + corpus replay
// ---------------------------------------------------------------------------

/// Stable lowercase name of a resolution tier.
pub fn resolution_name(r: Resolution) -> &'static str {
    match r {
        Resolution::Exact => "exact",
        Resolution::Location => "location",
        Resolution::Existence => "existence",
    }
}

/// Header for the diagnosis TSV emitted by both `vqd diagnose
/// --batch` and `vqd serve`.
pub const RESULT_HEADER: &str = "session\tlabel\tresolution\tconfidence\tcoverage\tfallback\n";

/// One diagnosis TSV line (with trailing newline), keyed by `key`.
/// `vqd diagnose --batch` and `vqd serve` both emit exactly this, so
/// the streaming-equals-offline gate compares bytes, not parses.
pub fn result_line(key: &str, dx: &Diagnosis) -> String {
    format!(
        "{key}\t{}\t{}\t{:.3}\t{:.3}\t{}\n",
        dx.label,
        resolution_name(dx.resolution),
        dx.quality.confidence,
        dx.quality.feature_coverage,
        dx.fallback_label.as_deref().unwrap_or("-"),
    )
}

/// Explode a labelled corpus into the probe events a live deployment
/// would have emitted: session id = corpus index, `seq` = metric
/// position, one `end` marker each. In-order replay through
/// [`StreamServer`] reproduces offline batch diagnosis bit for bit —
/// and, by the determinism argument above, so does any shuffle.
pub fn corpus_to_events(runs: &[LabeledRun]) -> Vec<ProbeEvent> {
    corpus_to_events_from(runs, 0)
}

/// [`corpus_to_events`] with session ids starting at `base` — the
/// chunked-streaming form: exploding corpus chunk `k` with `base` set
/// to the sessions already emitted concatenates to exactly the
/// whole-corpus event list.
pub fn corpus_to_events_from(runs: &[LabeledRun], base: usize) -> Vec<ProbeEvent> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.metrics.len() + 1).sum());
    for (i, run) in runs.iter().enumerate() {
        let sid = (base + i).to_string();
        for (j, (name, v)) in run.metrics.iter().enumerate() {
            out.push(ProbeEvent::sample(sid.clone(), j as u64, name.clone(), *v));
        }
        out.push(ProbeEvent::end(sid, run.metrics.len() as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain `q` once into a fresh batch, as a `Vec`.
    fn drained<T>(q: &Bounded<T>) -> Option<Vec<T>> {
        let mut batch = VecDeque::new();
        q.drain(&mut batch).then(|| batch.into())
    }

    #[test]
    fn bounded_queue_fifo_close_drain() {
        let q = Bounded::new(4);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.len(), 2);
        q.close();
        assert!(!q.push(3), "push after close must fail");
        assert_eq!(drained(&q), Some(vec![1, 2]), "one drain takes all, FIFO");
        assert_eq!(drained(&q), None, "closed and drained");
    }

    /// The capacity bounds accepted-but-unprocessed items: a drained
    /// batch the consumer still holds keeps its slots until the next
    /// drain releases them, and only then is the blocked push let in.
    #[test]
    fn bounded_queue_push_blocks_while_a_drained_batch_is_held() {
        let q = Arc::new(Bounded::new(3));
        for v in 0..3u32 {
            assert!(q.push(v));
        }
        let mut batch = VecDeque::new();
        assert!(q.drain(&mut batch));
        assert_eq!(Vec::from(std::mem::take(&mut batch)), vec![0, 1, 2]);
        assert_eq!(q.len(), 3, "the held batch still counts");
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(3));
        while lock_in(&q.inner).blocked == 0 && !h.is_finished() {
            std::thread::yield_now();
        }
        assert!(!h.is_finished(), "push must block on the held batch");
        assert_eq!(q.len(), 3, "the blocked push added nothing");
        assert!(q.drain(&mut batch), "releasing the batch admits the push");
        assert!(h.join().expect("pusher"));
        assert_eq!(Vec::from(batch), vec![3]);
        q.close();
        assert_eq!(drained(&q), None);
        assert_eq!(q.len(), 0, "a final drain releases everything");
    }

    #[test]
    fn session_state_reassembles_by_seq() {
        let mut s = SessionState::default();
        s.add_sample(2, "c".into(), 3.0);
        s.add_sample(0, "a".into(), 1.0);
        s.add_sample(1, "b".into(), 2.0);
        s.add_sample(1, "b".into(), 2.0); // duplicate
        assert!(!s.complete());
        s.expected = Some(3);
        assert!(s.complete());
        let (m, dups) = s.into_metrics();
        assert_eq!(dups, 1);
        assert_eq!(
            m,
            vec![
                ("a".to_string(), 1.0),
                ("b".to_string(), 2.0),
                ("c".to_string(), 3.0)
            ]
        );
    }

    #[test]
    fn completeness_needs_contiguous_seqs() {
        let mut s = SessionState::default();
        s.add_sample(0, "a".into(), 1.0);
        s.add_sample(2, "c".into(), 3.0);
        s.expected = Some(2);
        assert!(!s.complete(), "seq 2 present but seq 1 missing");
        let empty = SessionState {
            expected: Some(0),
            ..SessionState::default()
        };
        assert!(empty.complete(), "zero-sample session completes on end");
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 8] {
            for id in ["0", "17", "session-x", ""] {
                let a = shard_of(id, shards);
                assert!(a < shards);
                assert_eq!(a, shard_of(id, shards));
            }
        }
    }
}
