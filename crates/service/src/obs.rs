//! Server-side telemetry: lock-free latency histograms, commit-stage
//! spans, storage observation and the bounded slow-request ring.
//!
//! The recording primitive is a log₂-bucketed [`Histogram`]: 65 relaxed
//! `AtomicU64` buckets (one per power of two of nanoseconds, plus a zero
//! bucket), a running sum and an exact max. Recording is three relaxed
//! atomic operations — no locks, no allocation — so it can sit on the
//! validate hot path. Bucket `i ≥ 1` holds durations in
//! `[2^(i-1), 2^i - 1]` ns, so any quantile read back from the buckets is
//! the upper bound of the bucket holding the exact sample: it brackets the
//! true value within one bucket's relative error (`exact ≤ estimate <
//! 2·exact`). Histograms are mergeable — per-shard recorders are summed
//! into one [`HistogramSnapshot`] at scrape time, never on the hot path.
//!
//! On top of the primitive sit the store's three registries:
//!
//! * per-verb request latency (one histogram array per shard, merged at
//!   scrape time) over the [`Verb`] taxonomy;
//! * per-stage latency (store-global) over the [`Stage`] taxonomy — where
//!   a request spends its time, answerable from a running server — filled
//!   by each request's stack-allocated [`Trace`];
//! * the [`SlowRing`] keeping the worst-N requests with their stage
//!   breakdown (dumped by the `metrics slow` protocol verb).
//!
//! [`StorageObservation`] is the storage backend's side of the picture
//! (WAL append bytes and durations, fsync timings, segment rotations,
//! compaction wall time), surfaced through
//! [`crate::storage::StorageBackend::observe`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::proto::ShardStat;

/// Number of log₂ buckets of a [`Histogram`]: bucket 0 holds exact zeros,
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]` nanoseconds, up to bucket 64
/// (which tops out at `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Capacity of the slow-request ring: the worst `N` requests by total
/// duration are retained with their stage breakdown.
pub const SLOW_RING_CAP: usize = 16;

/// Saturating nanosecond count of a [`Duration`].
#[must_use]
pub fn duration_ns(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Bucket index of a nanosecond duration: `0` for zero, otherwise the bit
/// length of the value (`64 - leading_zeros`).
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index`, in nanoseconds.
#[must_use]
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << index) - 1,
    }
}

/// Formats a nanosecond count as a seconds decimal (the unit Prometheus
/// exposition uses), trimmed of trailing zeros.
#[must_use]
pub(crate) fn seconds(ns: u64) -> String {
    let mut text = format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000);
    while text.ends_with('0') {
        text.pop();
    }
    if text.ends_with('.') {
        text.push('0');
    }
    text
}

/// A lock-free log₂-bucketed latency histogram.
///
/// All counters are relaxed atomics: they are statistics, not
/// synchronisation. Recording never allocates and never takes a lock;
/// reading produces a consistent-enough [`HistogramSnapshot`] (bucket
/// counts may trail the sum by in-flight recordings, which quantile
/// derivation tolerates).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one duration in nanoseconds — three relaxed atomic
    /// operations, no allocation.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one elapsed [`Duration`].
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(duration_ns(elapsed));
    }

    /// A point-in-time copy of the counters, suitable for merging and
    /// quantile derivation.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|index| self.buckets[index].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time, mergeable copy of a [`Histogram`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper`] for bucket bounds).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded durations, in nanoseconds.
    pub sum: u64,
    /// Largest recorded duration, in nanoseconds (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Folds another snapshot into this one (shard merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds: the upper bound of
    /// the bucket holding the sample of rank `ceil(q · count)`. Brackets
    /// the exact sorted-reference quantile within one bucket's relative
    /// error. Returns 0 on an empty histogram.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper(index);
            }
        }
        self.max
    }

    /// The median, in nanoseconds.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th percentile, in nanoseconds.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th percentile, in nanoseconds.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Appends this histogram as a Prometheus-style cumulative-bucket
    /// series (`name_bucket{…,le="…"}`, `name_sum`, `name_count`) to
    /// `out`. `le` bounds and the sum are in seconds, per exposition
    /// convention; empty buckets are elided (the series stays cumulative).
    pub fn write_exposition(&self, out: &mut String, name: &str, labels: &[(&str, &str)]) {
        self.write_series(out, name, labels, seconds);
    }

    /// [`HistogramSnapshot::write_exposition`] with `unit` formatting the
    /// `le` bounds and the sum — raw integers for histograms whose samples
    /// are plain values, not nanoseconds (e.g. group-commit batch sizes).
    fn write_series(
        &self,
        out: &mut String,
        name: &str,
        labels: &[(&str, &str)],
        unit: fn(u64) -> String,
    ) {
        use std::fmt::Write as _;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            cumulative += bucket;
            let le = label_block(labels, Some(&unit(bucket_upper(index))));
            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
        }
        let count = self.count();
        let _ = writeln!(
            out,
            "{name}_bucket{} {count}",
            label_block(labels, Some("+Inf"))
        );
        let plain = label_block(labels, None);
        let _ = writeln!(out, "{name}_sum{plain} {}", unit(self.sum));
        let _ = writeln!(out, "{name}_count{plain} {count}");
    }
}

/// Renders a `{k="v",…}` label block, optionally with a trailing `le`
/// label; empty when there are no labels at all.
fn label_block(labels: &[(&str, &str)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut block = String::from("{");
    for (index, (key, value)) in labels.iter().enumerate() {
        if index > 0 {
            block.push(',');
        }
        block.push_str(key);
        block.push_str("=\"");
        block.push_str(value);
        block.push('"');
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            block.push(',');
        }
        block.push_str("le=\"");
        block.push_str(le);
        block.push('"');
    }
    block.push('}');
    block
}

/// Appends one plain counter/gauge sample line to a Prometheus exposition.
pub fn write_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{name}{} {value}", label_block(labels, None));
}

/// The request-verb taxonomy every request latency is recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `register` — workflow registration.
    Register,
    /// `validate` — view-soundness checks (the read hot path).
    Validate,
    /// `correct` — view corrections.
    Correct,
    /// `provenance` — provenance queries.
    Provenance,
    /// `mutate` — spec/view edits (the write path).
    Mutate,
    /// `export` — textfmt export.
    Export,
}

/// Every [`Verb`], in display order.
pub const VERBS: [Verb; 6] = [
    Verb::Register,
    Verb::Validate,
    Verb::Correct,
    Verb::Provenance,
    Verb::Mutate,
    Verb::Export,
];

impl Verb {
    /// The verb's exposition label.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Verb::Register => "register",
            Verb::Validate => "validate",
            Verb::Correct => "correct",
            Verb::Provenance => "provenance",
            Verb::Mutate => "mutate",
            Verb::Export => "export",
        }
    }

    /// The verb's position in [`VERBS`].
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The commit-stage taxonomy of the write path (plus the read path's
/// cache-lookup/compute split): where a request spends its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Payload/frame parsing (register payloads, request frames).
    Parse,
    /// Verdict-cache lookup, re-tagging and invalidation scans.
    CacheLookup,
    /// Soundness/reachability computation and spec/view edits.
    Compute,
    /// WAL append (excluding any fsync it triggered).
    WalAppend,
    /// fsync of WAL data: inline in an append, or a group-commit wait.
    Fsync,
    /// Atomic snapshot publish (the commit point).
    SnapshotPublish,
    /// Watch fan-out to subscribers after the commit.
    WatchFanout,
    /// The part of a request no other stage covered (see [`Trace`]).
    Unattributed,
}

/// Every [`Stage`], in pipeline order.
pub const STAGES: [Stage; 8] = [
    Stage::Parse,
    Stage::CacheLookup,
    Stage::Compute,
    Stage::WalAppend,
    Stage::Fsync,
    Stage::SnapshotPublish,
    Stage::WatchFanout,
    Stage::Unattributed,
];

impl Stage {
    /// The stage's exposition label.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::CacheLookup => "cache_lookup",
            Stage::Compute => "compute",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::SnapshotPublish => "snapshot_publish",
            Stage::WatchFanout => "watch_fanout",
            Stage::Unattributed => "unattributed",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// One request's stage spans, kept on the stack: a fixed array of
/// nanoseconds per [`Stage`], never allocated.
///
/// [`Trace::enter`] closes the open stage and opens the next with one clock
/// read; [`Trace::leave`] closes it without opening another. Time spent with
/// no stage open is booked as [`Stage::Unattributed`] by [`Trace::finish`],
/// so a finished request's spans always sum to its total.
#[derive(Debug)]
pub struct Trace {
    verb: Verb,
    start: Instant,
    mark: Instant,
    open: Option<Stage>,
    spans: [u64; STAGES.len()],
}

impl Trace {
    /// Begins timing one request of `verb`, with no stage open.
    #[must_use]
    pub fn start(verb: Verb) -> Self {
        let now = Instant::now();
        Trace {
            verb,
            start: now,
            mark: now,
            open: None,
            spans: [0; STAGES.len()],
        }
    }

    /// Closes the open stage and opens `stage`.
    #[inline]
    pub fn enter(&mut self, stage: Stage) {
        self.close(Instant::now());
        self.open = Some(stage);
    }

    /// Closes the open stage; the time until the next [`Trace::enter`] is
    /// unattributed.
    #[inline]
    pub fn leave(&mut self) {
        self.close(Instant::now());
        self.open = None;
    }

    /// Books `ns` nanoseconds of the open stage's time (or of the
    /// unattributed time, when no stage is open) under `stage` instead — for
    /// a duration measured by someone else, such as the fsync a WAL append
    /// ran inline or a group-commit wait. No clock read.
    pub fn carve(&mut self, stage: Stage, ns: u64) {
        self.spans[stage.index()] += ns;
        self.mark += Duration::from_nanos(ns);
    }

    /// Nanoseconds since [`Trace::start`], without ending the trace.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        duration_ns(self.start.elapsed())
    }

    fn close(&mut self, now: Instant) {
        if let Some(stage) = self.open {
            self.spans[stage.index()] += duration_ns(now.saturating_duration_since(self.mark));
        }
        self.mark = now;
    }

    /// Ends the request: closes the open stage and books the time no stage
    /// covered under [`Stage::Unattributed`]. Records the total in the
    /// verb's histogram of `verbs` (indexed like [`VERBS`]) and every
    /// non-zero stage in `telemetry`, then offers the request to the slow
    /// ring. Returns the total in nanoseconds.
    pub fn finish(
        mut self,
        verbs: &[Histogram; VERBS.len()],
        telemetry: &Telemetry,
        workflow: Option<u64>,
    ) -> u64 {
        let now = Instant::now();
        self.close(now);
        let covered: u64 = self.spans.iter().sum();
        let total = duration_ns(now.saturating_duration_since(self.start)).max(covered);
        self.spans[Stage::Unattributed.index()] = total - covered;
        verbs[self.verb.index()].record_ns(total);
        for (&stage, &ns) in STAGES.iter().zip(&self.spans) {
            if ns > 0 {
                telemetry.stage(stage, ns);
            }
        }
        telemetry
            .slow
            .offer(self.verb, workflow, total, &self.spans);
        total
    }
}

/// One retained slow request: the verb, total duration and per-stage
/// breakdown.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// The request verb (exposition label).
    pub verb: &'static str,
    /// The workflow the request addressed, when it addressed one.
    pub workflow: Option<u64>,
    /// End-to-end duration, in nanoseconds.
    pub total_ns: u64,
    /// Stage breakdown `(stage label, nanoseconds)`, in pipeline order.
    pub spans: Vec<(&'static str, u64)>,
    /// Admission order (monotone): breaks duration ties, newest wins.
    pub seq: u64,
}

/// Bounded worst-N request ring. The hot path pays one relaxed atomic load
/// (the admission floor — the smallest retained total once the ring is
/// full); only requests slower than the floor take the lock.
#[derive(Debug)]
pub struct SlowRing {
    capacity: usize,
    floor: AtomicU64,
    seq: AtomicU64,
    entries: Mutex<Vec<SlowRequest>>,
}

impl SlowRing {
    /// Creates a ring retaining the worst `capacity` requests.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlowRing {
            capacity: capacity.max(1),
            floor: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offers one finished request with its per-stage spans (indexed like
    /// [`STAGES`]); it is retained iff it beats the current worst-N floor.
    /// The ring allocates only when the request is actually admitted, and
    /// keeps only the non-zero spans.
    pub fn offer(
        &self,
        verb: Verb,
        workflow: Option<u64>,
        total_ns: u64,
        spans: &[u64; STAGES.len()],
    ) {
        if total_ns <= self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock();
        let request = SlowRequest {
            verb: verb.name(),
            workflow,
            total_ns,
            spans: STAGES
                .iter()
                .zip(spans)
                .filter(|(_, &ns)| ns > 0)
                .map(|(stage, &ns)| (stage.name(), ns))
                .collect(),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        if entries.len() < self.capacity {
            entries.push(request);
        } else if let Some(index) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, entry)| (entry.total_ns, entry.seq))
            .map(|(index, _)| index)
        {
            if entries[index].total_ns < total_ns {
                entries[index] = request;
            }
        }
        let floor = if entries.len() == self.capacity {
            entries
                .iter()
                .map(|entry| entry.total_ns)
                .min()
                .unwrap_or(0)
        } else {
            0
        };
        self.floor.store(floor, Ordering::Relaxed);
    }

    /// The retained requests, worst first (ties broken newest first).
    #[must_use]
    pub fn worst(&self) -> Vec<SlowRequest> {
        let mut entries = self.entries.lock().clone();
        entries.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| b.seq.cmp(&a.seq)));
        entries
    }

    /// The ring's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Error counters keyed by the typed wire kind (`degraded`,
/// `overloaded`, `unknown-workflow`, …) — the `wolves_errors_total{kind}`
/// series. Keys are the `&'static str` kinds from
/// [`crate::error::ServiceError::wire_kind`], so recording never
/// allocates a key; the map only grows to the number of distinct kinds.
#[derive(Debug, Default)]
pub struct ErrorCounters {
    counts: Mutex<std::collections::BTreeMap<&'static str, u64>>,
}

impl ErrorCounters {
    /// Bumps the counter for one error kind.
    pub fn record(&self, kind: &'static str) {
        *self.counts.lock().entry(kind).or_insert(0) += 1;
    }

    /// A point-in-time copy of all counters, sorted by kind.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counts
            .lock()
            .iter()
            .map(|(&kind, &count)| (kind, count))
            .collect()
    }
}

/// Store-global telemetry: the commit-stage histograms, the slow-request
/// ring, error counters and recovery timing. Per-verb histograms live per
/// shard (in the shard metrics) and are merged at scrape time.
#[derive(Debug)]
pub struct Telemetry {
    stages: [Histogram; STAGES.len()],
    slow: SlowRing,
    errors: ErrorCounters,
    recovery_replay_ns: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates an empty telemetry set with the default slow-ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Telemetry {
            stages: Default::default(),
            slow: SlowRing::new(SLOW_RING_CAP),
            errors: ErrorCounters::default(),
            recovery_replay_ns: AtomicU64::new(0),
        }
    }

    /// The error counters (the `wolves_errors_total{kind}` series).
    #[must_use]
    pub fn errors(&self) -> &ErrorCounters {
        &self.errors
    }

    /// Records one commit-stage duration.
    #[inline]
    pub fn stage(&self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record_ns(ns);
    }

    /// Snapshot of one commit stage's histogram.
    #[must_use]
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// The slow-request ring.
    #[must_use]
    pub fn slow(&self) -> &SlowRing {
        &self.slow
    }

    /// Records the recovery-replay wall time observed at store open.
    pub fn set_recovery_replay_ns(&self, ns: u64) {
        self.recovery_replay_ns.store(ns, Ordering::Relaxed);
    }

    /// Recovery-replay wall time of the last store open, in nanoseconds
    /// (0 when the store opened on an empty or in-memory backend).
    #[must_use]
    pub fn recovery_replay_ns(&self) -> u64 {
        self.recovery_replay_ns.load(Ordering::Relaxed)
    }

    /// Renders the slow-request ring as the `metrics slow` dump: a header
    /// line, then one TAB-separated line per retained request, worst
    /// first, with `stage=ns` spans separated by `;`.
    #[must_use]
    pub fn slow_text(&self) -> String {
        use std::fmt::Write as _;
        let worst = self.slow.worst();
        let mut out = format!("slow-requests\t{}\t{}\n", worst.len(), self.slow.capacity());
        for request in worst {
            let spans: Vec<String> = request
                .spans
                .iter()
                .map(|(stage, ns)| format!("{stage}={ns}"))
                .collect();
            let workflow = request
                .workflow
                .map_or_else(|| "-".to_owned(), |id| id.to_string());
            let _ = writeln!(
                out,
                "slow\t{}\t{}\t{workflow}\t{}",
                request.verb,
                request.total_ns,
                spans.join(";")
            );
        }
        out
    }
}

/// What a storage backend has observed since it was opened: WAL append
/// volume and latency, fsync latency, segment rotations, compaction
/// (snapshot-write) wall time and group-commit behaviour. The default
/// (memory backend) is all-empty.
#[derive(Debug, Clone, Default)]
pub struct StorageObservation {
    /// Total bytes appended to write-ahead logs.
    pub append_bytes: u64,
    /// Segment rotations (snapshot writes that truncated a log).
    pub rotations: u64,
    /// WAL append durations (excluding triggered fsyncs).
    pub append: HistogramSnapshot,
    /// fsync durations.
    pub fsync: HistogramSnapshot,
    /// Compaction (snapshot write + rotation) durations.
    pub compaction: HistogramSnapshot,
    /// Group-commit batch sizes: how many appended records each leader
    /// fsync covered (raw counts, not nanoseconds). Empty outside strict
    /// (`strict_fsync`) mode.
    pub group_commit_batch: HistogramSnapshot,
    /// fsyncs the group-commit protocol absorbed: appends that rode a
    /// leader's fsync instead of issuing their own (`sum(batch - 1)`).
    pub group_commit_absorbed: u64,
}

/// Gauges and counters owned by the serving layer (not the store): open
/// connections and event-loop wakeups. The server updates them from its
/// accept/event paths; the store stitches them into the `metrics`
/// exposition when a server attaches them via
/// [`crate::store::WorkflowStore::attach_server_gauges`]. All counters are
/// relaxed atomics — statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct ServerGauges {
    open_connections: AtomicU64,
    accepted_total: AtomicU64,
    wakeups: AtomicU64,
    pipelined_batches: AtomicU64,
}

impl ServerGauges {
    /// Notes one accepted connection.
    pub fn connection_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one closed connection.
    pub fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Notes one event-loop wakeup (any loop's `epoll_wait` returning,
    /// timeouts included).
    pub fn wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one read that carried more than one pipelined frame.
    pub fn pipelined_batch(&self) {
        self.pipelined_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Connections accepted since the server started.
    #[must_use]
    pub fn accepted_total(&self) -> u64 {
        self.accepted_total.load(Ordering::Relaxed)
    }

    /// Event-loop wakeups since the server started.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Reads that carried more than one pipelined frame.
    #[must_use]
    pub fn pipelined_batches(&self) -> u64 {
        self.pipelined_batches.load(Ordering::Relaxed)
    }
}

/// The delta classes applied mutations are counted under, in exposition
/// order (the `wolves_mutations_total{class}` series).
pub const MUTATION_CLASSES: [&str; 5] = [
    "monotone-safe",
    "local-rebuild",
    "decremental",
    "structural",
    "view-edit",
];

/// One shard's counters at one instant: `stat` is its `stats` wire line,
/// and the `metrics` exposition sums all of them. `mutations` counts
/// applied mutations per delta class, in [`MUTATION_CLASSES`] order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardCounters {
    pub stat: ShardStat,
    pub provenance_index_builds: u64,
    pub provenance_index_hits: u64,
    pub watch_queue_depth: u64,
    pub mutations: [u64; MUTATION_CLASSES.len()],
    pub degraded: bool,
}

/// Everything one `metrics` scrape reads, gathered by the store and
/// rendered by [`Scrape::render`]: the per-verb histograms (in [`VERBS`]
/// order, merged across shards), every shard's counters, the store-global
/// telemetry and the storage backend's observation.
#[derive(Debug)]
pub(crate) struct Scrape<'a> {
    pub verbs: [HistogramSnapshot; VERBS.len()],
    pub shards: Vec<ShardCounters>,
    pub telemetry: &'a Telemetry,
    pub storage: StorageObservation,
    /// The serving layer's gauges, when a server is attached.
    pub server: Option<Arc<ServerGauges>>,
}

impl Scrape<'_> {
    /// Renders the Prometheus-style text exposition served by the `metrics`
    /// protocol verb: per-verb and per-stage latency histograms (cumulative
    /// buckets, seconds), serving counters summed over shards, watch gauges,
    /// the storage backend's WAL observation and the server's gauges.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        use std::iter::zip;
        let mut out = String::new();
        let verbs: Vec<_> = zip(VERBS.map(Verb::name), &self.verbs).collect();
        let telemetry = self.telemetry;
        let stages = STAGES.map(|stage| telemetry.stage_snapshot(stage));
        let stages = zip(STAGES.map(Stage::name), &stages);
        for (name, key, series) in [
            ("request_duration_seconds", "verb", verbs),
            ("commit_stage_duration_seconds", "stage", stages.collect()),
        ] {
            let name = format!("wolves_{name}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (label, histogram) in series {
                histogram.write_exposition(&mut out, &name, &[(key, label)]);
            }
        }
        let wal = &self.storage;
        let secs: fn(u64) -> String = seconds;
        let raw: fn(u64) -> String = |value| value.to_string();
        for (name, histogram, unit) in [
            ("wal_append_duration_seconds", &wal.append, secs),
            ("wal_fsync_duration_seconds", &wal.fsync, secs),
            ("wal_compaction_duration_seconds", &wal.compaction, secs),
            ("wal_group_commit_batch", &wal.group_commit_batch, raw),
        ] {
            let name = format!("wolves_{name}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            histogram.write_series(&mut out, &name, &[], unit);
        }

        let requests = zip(VERBS.map(Verb::name), &self.verbs);
        let requests = requests.map(|(verb, histogram)| (verb.to_owned(), histogram.count()));
        let mutations = MUTATION_CLASSES.iter().enumerate().map(|(index, class)| {
            let count = self.shards.iter().map(|c| c.mutations[index]).sum();
            ((*class).to_owned(), count)
        });
        let degraded = self.shards.iter();
        let degraded = degraded.map(|c| (c.stat.shard.to_string(), u64::from(c.degraded)));
        let errors = telemetry.errors().snapshot().into_iter();
        let errors = errors.map(|(kind, count)| (kind.to_owned(), count));
        // (name, type, label key, samples)
        type Family<'a> = (&'a str, &'a str, &'a str, Vec<(String, u64)>);
        let families: [Family; 4] = [
            ("requests_total", "counter", "verb", requests.collect()),
            ("mutations_total", "counter", "class", mutations.collect()),
            ("shard_degraded", "gauge", "shard", degraded.collect()),
            ("errors_total", "counter", "kind", errors.collect()),
        ];
        for (name, kind, key, samples) in families {
            let name = format!("wolves_{name}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (label, value) in samples {
                write_sample(&mut out, &name, &[(key, &label)], value);
            }
        }

        let stat = |field: fn(&ShardStat) -> u64| self.shards.iter().map(|c| field(&c.stat)).sum();
        let index_builds = self.shards.iter().map(|c| c.provenance_index_builds).sum();
        let index_hits = self.shards.iter().map(|c| c.provenance_index_hits).sum();
        let queued = self.shards.iter().map(|c| c.watch_queue_depth).sum();
        let degraded = self.shards.iter().filter(|c| c.degraded).count() as u64;
        let mut plain = vec![
            ("shards", self.shards.len() as u64),
            ("workflows", stat(|s| s.workflows as u64)),
            ("validate_cache_hits_total", stat(|s| s.validate_hits)),
            ("validate_cache_misses_total", stat(|s| s.validate_misses)),
            ("composite_cache_hits_total", stat(|s| s.composite_hits)),
            ("composite_cache_misses_total", stat(|s| s.composite_misses)),
            ("provenance_index_builds_total", index_builds),
            ("provenance_index_hits_total", index_hits),
            ("store_requests_total", stat(|s| s.requests)),
            ("snapshot_publishes_total", stat(|s| s.snapshot_publishes)),
            ("active_watchers", stat(|s| s.active_watchers)),
            ("watch_queue_depth", queued),
            ("dropped_watchers_total", stat(|s| s.dropped_watchers)),
            ("wal_append_bytes_total", wal.append_bytes),
            ("wal_rotations_total", wal.rotations),
            ("wal_group_commit_absorbed_total", wal.group_commit_absorbed),
            (
                "slow_requests_retained",
                telemetry.slow().worst().len() as u64,
            ),
            ("degraded_shards", degraded),
        ];
        if let Some(gauges) = &self.server {
            plain.extend([
                ("open_connections", gauges.open_connections()),
                ("connections_accepted_total", gauges.accepted_total()),
                ("event_loop_wakeups_total", gauges.wakeups()),
                ("pipelined_batches_total", gauges.pipelined_batches()),
            ]);
        }
        for (name, value) in plain {
            let _ = writeln!(out, "wolves_{name} {value}");
        }
        let replay = seconds(telemetry.recovery_replay_ns());
        let _ = writeln!(out, "wolves_recovery_replay_seconds {replay}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_the_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // every value lands in the bucket whose bounds contain it
        for ns in [1u64, 2, 3, 7, 8, 1023, 1024, 123_456_789] {
            let bucket = bucket_of(ns);
            assert!(ns <= bucket_upper(bucket));
            assert!(bucket == 1 || ns > bucket_upper(bucket - 1));
        }
    }

    #[test]
    fn quantiles_bracket_the_exact_reference() {
        let histogram = Histogram::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 37).collect();
        for &sample in &samples {
            histogram.record_ns(sample);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 1000);
        assert_eq!(snapshot.sum, samples.iter().sum::<u64>());
        assert_eq!(snapshot.max, 37_000);
        let mut sorted = samples;
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
            #[allow(clippy::cast_possible_truncation)]
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let estimate = snapshot.quantile(q);
            assert!(estimate >= exact, "q={q}: {estimate} < exact {exact}");
            assert!(
                estimate < exact * 2,
                "q={q}: {estimate} not within one bucket of {exact}"
            );
        }
    }

    #[test]
    fn snapshots_merge_by_summation() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10);
        a.record_ns(1000);
        b.record_ns(100);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum, 1110);
        assert_eq!(merged.max, 1000);
        assert_eq!(merged.p50(), bucket_upper(bucket_of(100)));
    }

    #[test]
    fn exposition_buckets_are_cumulative_and_labelled_in_seconds() {
        let histogram = Histogram::new();
        histogram.record_ns(1_000); // bucket upper 1023 ns
        histogram.record_ns(1_000);
        histogram.record_ns(2_000_000); // bucket upper ~2.097 ms
        let mut out = String::new();
        histogram
            .snapshot()
            .write_exposition(&mut out, "x", &[("verb", "validate")]);
        assert!(out.contains("x_bucket{verb=\"validate\",le=\"0.000001023\"} 2"));
        assert!(out.contains("x_bucket{verb=\"validate\",le=\"0.002097151\"} 3"));
        assert!(out.contains("x_bucket{verb=\"validate\",le=\"+Inf\"} 3"));
        assert!(out.contains("x_sum{verb=\"validate\"} 0.002002"));
        assert!(out.contains("x_count{verb=\"validate\"} 3"));
        // unlabelled series carry no label block at all
        let mut plain = String::new();
        histogram.snapshot().write_exposition(&mut plain, "y", &[]);
        assert!(plain.contains("y_count 3"));
        let mut sample = String::new();
        write_sample(&mut sample, "z_total", &[], 7);
        assert_eq!(sample, "z_total 7\n");
    }

    /// A span array with the given stages set.
    fn spans(pairs: &[(Stage, u64)]) -> [u64; STAGES.len()] {
        let mut spans = [0; STAGES.len()];
        for &(stage, ns) in pairs {
            spans[stage.index()] = ns;
        }
        spans
    }

    #[test]
    fn slow_ring_retains_the_worst_n() {
        let ring = SlowRing::new(3);
        for ns in [10u64, 50, 20, 40, 30, 60] {
            ring.offer(Verb::Validate, Some(1), ns, &spans(&[(Stage::Compute, ns)]));
        }
        let worst: Vec<u64> = ring.worst().iter().map(|r| r.total_ns).collect();
        assert_eq!(worst, vec![60, 50, 40]);
        // the floor filters anything at or below the retained minimum
        ring.offer(Verb::Validate, None, 40, &spans(&[]));
        assert_eq!(ring.worst().len(), 3);
        assert_eq!(ring.worst()[2].total_ns, 40);
        // spans and verb labels survive into the retained entry
        let top = &ring.worst()[0];
        assert_eq!(top.verb, "validate");
        assert_eq!(top.spans, vec![("compute", 60)]);
    }

    #[test]
    fn slow_text_lists_worst_first_with_stage_breakdown() {
        let telemetry = Telemetry::new();
        telemetry.slow().offer(
            Verb::Mutate,
            Some(3),
            5_000,
            &spans(&[(Stage::Compute, 1_000), (Stage::WalAppend, 4_000)]),
        );
        let compute = spans(&[(Stage::Compute, 9_000)]);
        telemetry
            .slow()
            .offer(Verb::Validate, None, 9_000, &compute);
        let text = telemetry.slow_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("slow-requests\t2\t{SLOW_RING_CAP}"));
        assert_eq!(lines[1], "slow\tvalidate\t9000\t-\tcompute=9000");
        assert_eq!(
            lines[2],
            "slow\tmutate\t5000\t3\tcompute=1000;wal_append=4000"
        );
    }

    #[test]
    fn trace_spans_sum_to_the_total_and_reach_every_registry() {
        let (verbs, telemetry) = (<[Histogram; VERBS.len()]>::default(), Telemetry::new());
        let mut trace = Trace::start(Verb::Mutate);
        trace.enter(Stage::Compute);
        std::thread::sleep(Duration::from_millis(2));
        trace.enter(Stage::WalAppend);
        std::thread::sleep(Duration::from_millis(1));
        // an fsync measured inside the append moves out of its span
        trace.carve(Stage::Fsync, 500_000);
        trace.leave();
        std::thread::sleep(Duration::from_millis(1));
        trace.enter(Stage::SnapshotPublish);
        let total = trace.finish(&verbs, &telemetry, Some(9));

        let request = &telemetry.slow().worst()[0];
        assert_eq!(
            (request.verb, request.workflow, request.total_ns),
            ("mutate", Some(9), total)
        );
        assert_eq!(request.spans.iter().map(|(_, ns)| ns).sum::<u64>(), total);
        let span = |name| {
            request
                .spans
                .iter()
                .find(|(stage, _)| *stage == name)
                .unwrap()
                .1
        };
        assert!(span("compute") >= 2_000_000 && span("unattributed") >= 1_000_000);
        assert!(span("wal_append") >= 500_000);
        assert_eq!(span("fsync"), 500_000);
        assert_eq!(verbs[Verb::Mutate.index()].snapshot().sum, total);
        for stage in [Stage::Compute, Stage::WalAppend, Stage::Fsync] {
            assert_eq!(telemetry.stage_snapshot(stage).count(), 1, "{stage:?}");
        }
        assert!(telemetry.stage_snapshot(Stage::Parse).is_empty());
    }

    #[test]
    fn verb_and_stage_labels_are_unique() {
        let verb_names: std::collections::BTreeSet<_> = VERBS.iter().map(|v| v.name()).collect();
        assert_eq!(verb_names.len(), VERBS.len());
        let stage_names: std::collections::BTreeSet<_> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(stage_names.len(), STAGES.len());
    }

    #[test]
    fn error_counters_accumulate_per_kind() {
        let counters = ErrorCounters::default();
        counters.record("degraded");
        counters.record("overloaded");
        counters.record("degraded");
        assert_eq!(
            counters.snapshot(),
            vec![("degraded", 2), ("overloaded", 1)]
        );
    }

    #[test]
    fn seconds_formatting_trims_trailing_zeros() {
        assert_eq!(seconds(0), "0.0");
        assert_eq!(seconds(1), "0.000000001");
        assert_eq!(seconds(1_500_000_000), "1.5");
        assert_eq!(seconds(2_000_000_000), "2.0");
    }
}
