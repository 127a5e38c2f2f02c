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
//! * per-verb request latency ([`VerbTimers`], one per shard, merged at
//!   scrape time) over the [`Verb`] taxonomy;
//! * per-commit-stage latency ([`StageTimers`], store-global) over the
//!   [`Stage`] taxonomy — where a mutation spends its time, answerable
//!   from a running server;
//! * the [`SlowRing`] keeping the worst-N requests with their stage
//!   breakdown (dumped by the `metrics slow` protocol verb).
//!
//! [`StorageObservation`] is the storage backend's side of the picture
//! (WAL append bytes and durations, fsync timings, segment rotations,
//! compaction wall time), surfaced through
//! [`crate::storage::StorageBackend::observe`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

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
        use std::fmt::Write as _;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            cumulative += bucket;
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                label_block(labels, Some(&seconds(bucket_upper(index))))
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            label_block(labels, Some("+Inf")),
            self.count()
        );
        let plain = label_block(labels, None);
        let _ = writeln!(out, "{name}_sum{plain} {}", seconds(self.sum));
        let _ = writeln!(out, "{name}_count{plain} {}", self.count());
    }

    /// [`HistogramSnapshot::write_exposition`] for histograms whose samples
    /// are plain values, not nanoseconds (e.g. group-commit batch sizes):
    /// `le` bounds and the sum stay raw integers instead of being scaled to
    /// seconds.
    pub fn write_exposition_raw(&self, out: &mut String, name: &str, labels: &[(&str, &str)]) {
        use std::fmt::Write as _;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            cumulative += bucket;
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                label_block(labels, Some(&bucket_upper(index).to_string()))
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            label_block(labels, Some("+Inf")),
            self.count()
        );
        let plain = label_block(labels, None);
        let _ = writeln!(out, "{name}_sum{plain} {}", self.sum);
        let _ = writeln!(out, "{name}_count{plain} {}", self.count());
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
    /// watch fan-out of one committed event to a shard's subscribers.
    WatchFanout,
}

/// Every [`Verb`], in display order.
pub const VERBS: [Verb; 7] = [
    Verb::Register,
    Verb::Validate,
    Verb::Correct,
    Verb::Provenance,
    Verb::Mutate,
    Verb::Export,
    Verb::WatchFanout,
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
            Verb::WatchFanout => "watch_fanout",
        }
    }

    const fn index(self) -> usize {
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
    /// fsync of WAL data, when the policy triggered one.
    Fsync,
    /// Atomic snapshot publish (the commit point).
    SnapshotPublish,
    /// Watch fan-out to subscribers after the commit.
    WatchFanout,
}

/// Every [`Stage`], in pipeline order.
pub const STAGES: [Stage; 7] = [
    Stage::Parse,
    Stage::CacheLookup,
    Stage::Compute,
    Stage::WalAppend,
    Stage::Fsync,
    Stage::SnapshotPublish,
    Stage::WatchFanout,
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
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Per-verb latency histograms — one set per shard, merged at scrape time.
#[derive(Debug, Default)]
pub struct VerbTimers {
    timers: [Histogram; VERBS.len()],
}

impl VerbTimers {
    /// Records one request duration under its verb.
    #[inline]
    pub fn record(&self, verb: Verb, ns: u64) {
        self.timers[verb.index()].record_ns(ns);
    }

    /// Snapshot of one verb's histogram.
    #[must_use]
    pub fn snapshot(&self, verb: Verb) -> HistogramSnapshot {
        self.timers[verb.index()].snapshot()
    }
}

/// Per-commit-stage latency histograms (store-global).
#[derive(Debug, Default)]
pub struct StageTimers {
    timers: [Histogram; STAGES.len()],
}

impl StageTimers {
    /// Records one stage duration.
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        self.timers[stage.index()].record_ns(ns);
    }

    /// Snapshot of one stage's histogram.
    #[must_use]
    pub fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.timers[stage.index()].snapshot()
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

    /// Offers one finished request; it is retained iff it beats the
    /// current worst-N floor. `spans` is borrowed — the ring allocates
    /// only when the request is actually admitted.
    pub fn offer(&self, verb: Verb, workflow: Option<u64>, total_ns: u64, spans: &[(Stage, u64)]) {
        if total_ns <= self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock();
        let request = SlowRequest {
            verb: verb.name(),
            workflow,
            total_ns,
            spans: spans
                .iter()
                .map(|&(stage, ns)| (stage.name(), ns))
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

    /// Total errors recorded across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.lock().values().sum()
    }
}

/// Store-global telemetry: the commit-stage histograms, the slow-request
/// ring, error counters and recovery timing. Per-verb histograms live per
/// shard (in the shard metrics) and are merged at scrape time.
#[derive(Debug)]
pub struct Telemetry {
    stages: StageTimers,
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
            stages: StageTimers::default(),
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
        self.stages.record(stage, ns);
    }

    /// Records a whole stage breakdown (skipping zero spans keeps the
    /// stage histograms meaningful — a stage that did not run is absent,
    /// not a zero sample).
    pub fn record_spans(&self, spans: &[(Stage, u64)]) {
        for &(stage, ns) in spans {
            if ns > 0 {
                self.stages.record(stage, ns);
            }
        }
    }

    /// Snapshot of one commit stage's histogram.
    #[must_use]
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages.snapshot(stage)
    }

    /// Offers one finished request to the slow-request ring.
    pub fn offer_slow(
        &self,
        verb: Verb,
        workflow: Option<u64>,
        total_ns: u64,
        spans: &[(Stage, u64)],
    ) {
        self.slow.offer(verb, workflow, total_ns, spans);
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
    /// fsync covered (raw counts, not nanoseconds — expose with
    /// [`HistogramSnapshot::write_exposition_raw`]). Empty outside strict
    /// (`fsync_every=1`) mode.
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

    #[test]
    fn slow_ring_retains_the_worst_n() {
        let ring = SlowRing::new(3);
        for ns in [10u64, 50, 20, 40, 30, 60] {
            ring.offer(Verb::Validate, Some(1), ns, &[(Stage::Compute, ns)]);
        }
        let worst: Vec<u64> = ring.worst().iter().map(|r| r.total_ns).collect();
        assert_eq!(worst, vec![60, 50, 40]);
        // the floor filters anything at or below the retained minimum
        ring.offer(Verb::Validate, None, 40, &[]);
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
        telemetry.offer_slow(
            Verb::Mutate,
            Some(3),
            5_000,
            &[(Stage::Compute, 1_000), (Stage::WalAppend, 4_000)],
        );
        telemetry.offer_slow(Verb::Validate, None, 9_000, &[(Stage::Compute, 9_000)]);
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
        assert_eq!(counters.total(), 3);
    }

    #[test]
    fn seconds_formatting_trims_trailing_zeros() {
        assert_eq!(seconds(0), "0.0");
        assert_eq!(seconds(1), "0.000000001");
        assert_eq!(seconds(1_500_000_000), "1.5");
        assert_eq!(seconds(2_000_000_000), "2.0");
    }
}
