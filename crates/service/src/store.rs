//! The sharded, cached workflow store.
//!
//! Workflows are spread over `N` shards by hashing their id. Each shard's
//! state lives behind a copy-on-write `SnapshotCell`: readers (`validate`,
//! `provenance`, `export`, `stats`) atomically grab an `Arc` of the current
//! immutable shard state and never block behind mutation work; mutators
//! serialise on a per-shard mutex, build the next state via `Arc::make_mut`,
//! persist it, publish it as a single pointer swap — and then fan the change
//! out to `watch` subscribers (see [`WorkflowStore::watch`]). Caching is
//! **composite-granular and keyed by mutation epoch**:
//!
//! * **Reachability reuse** — a registered [`WorkflowSpec`] is stored behind
//!   an `Arc` and its lazily built `ReachMatrix` is primed at registration
//!   time. Mutations maintain the matrix *in place* where the delta class
//!   allows (see `wolves_workflow::mutation`), so edits don't pay a rebuild
//!   either.
//! * **Verdict caching** — every stored view carries one cached soundness
//!   verdict *per composite task*, tagged with the workflow's mutation
//!   epoch. A `mutate` request invalidates only the composites whose
//!   reachability rows the edit dirtied (plus the edit's endpoints, whose
//!   boundaries may have moved); every other cached verdict is re-tagged to
//!   the new epoch and keeps serving hits.
//! * **Provenance index caching** — the per-view [`ViewProvenanceIndex`] is
//!   epoch-tagged too and is carried to the new epoch by every task and
//!   dependency edit: the edit's composite (added or emptied) and the
//!   composite pairs its dependencies join are re-checked, and only a
//!   composite that came or went, or a link between two composites that
//!   appeared or vanished, is written — as a node or edge edit of the
//!   induced graph that its matrix absorbs incrementally. An edit that
//!   leaves the induced graph alone keeps the very same index. Splits and
//!   merges drop it, and the next query rebuilds it in O(V + E + C²/64):
//!   one pass over the dependencies through the view's dense task →
//!   composite table, then the closure of the small C-composite view
//!   graph. A query is O(C) row lookups whose member lists come back as
//!   task ids in order, mapped straight to names.
//!
//! Corrections still append the corrected view as a new immutable version.
//! Mutations clone the entry copy-on-write off the published snapshot, so
//! in-flight readers keep a consistent pre-mutation state for as long as
//! they hold it. The spec and view clones are structurally shared: the
//! graph's slots, the matrix's rows, the name index and the view's task →
//! composite table live in `Arc`'d blocks (`wolves_graph::BlockVec`) and
//! each composite behind its own `Arc`, so `Arc::make_mut` on the spec or
//! view copies handles (≈15 µs for a 10k-task spec, not a 9 ms deep copy),
//! the edit then copies only the blocks and composites it writes, and
//! dropping the superseded snapshot frees only those. Task
//! additions/removals rebase the workflow: older view versions would no
//! longer partition the task set, so the version history is truncated to
//! the (updated) current view.
//!
//! **Durability** is layered behind [`StorageBackend`]: the default
//! [`MemoryBackend`] keeps today's in-memory behaviour at zero cost, while
//! a [`crate::wal::FileBackend`] appends every register/mutate/correct to a
//! per-shard write-ahead log (under the same per-shard mutator mutex, so
//! log order is store order) and periodically compacts it into full
//! snapshots. The append happens strictly *before* the new state is
//! published and before any watch event is fanned out — a crash never
//! leaves a subscriber holding an event the recovered store doesn't know
//! about. [`WorkflowStore::open`] recovers a backend's journal by replaying
//! it through the live request paths, restoring epochs, versions, ids,
//! change-sequence numbers and cache keying exactly.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard, RwLock};
use wolves_graph::DirtyRows;

use wolves_core::correct::{correct_view, Strategy};
use wolves_core::soundness::is_sound;
use wolves_moml::textfmt::{check_composite_name, check_task_name};
use wolves_moml::{read_text_format, write_text_format};
use wolves_provenance::ViewProvenanceIndex;
use wolves_workflow::persist::{
    check_spec_serialisable, check_view_serialisable, spec_from_lines, spec_to_lines,
    view_from_lines, view_to_lines,
};
use wolves_workflow::{
    CompositeTaskId, SpecDelta, SpecMutation, TaskId, WorkflowSpec, WorkflowView,
};

use crate::epoch::SnapshotCell;
use crate::error::ServiceError;
use crate::obs::{
    Histogram, HistogramSnapshot, Scrape, ServerGauges, ShardCounters, Stage, Telemetry, Trace,
    Verb, MUTATION_CLASSES, VERBS,
};
use crate::poll::Waker;
use crate::proto::{
    Corrected, MutateOp, Mutated, NameList, ShardStat, StatsReport, Verdict, WatchEvent, WatchMode,
};
use crate::storage::{
    MemoryBackend, RecoveryReport, ShardJournal, SnapshotEntry, StorageBackend, WalRecord,
};

/// Default per-subscriber watch queue bound. A subscriber that falls this
/// many events behind the commit stream is dropped with
/// [`ServiceError::Lagged`] rather than ever back-pressuring a mutator.
pub const WATCH_QUEUE_CAP: usize = 256;

/// Identifier of a registered workflow, assigned by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkflowId(pub u64);

impl fmt::Display for WorkflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The durability obligation of one deferred write: which shard's WAL
/// holds its record and the group-commit ticket that must be covered by a
/// fsync before the outcome may be acknowledged. The default (zero) ticket
/// means nothing is owed — the backend's fsync policy needed no wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityTicket {
    shard: usize,
    ticket: u64,
}

/// Accumulated durability obligations of a pipelined batch. Tickets are
/// monotone per shard, so folding keeps only the highest ticket per shard —
/// awaiting that one covers every obligation folded before it.
#[derive(Debug, Clone, Default)]
pub struct DurabilityBarrier {
    pending: Vec<(usize, u64)>,
    folds: usize,
}

impl DurabilityBarrier {
    /// Folds one deferred write's obligation into the barrier.
    pub fn fold(&mut self, ticket: DurabilityTicket) {
        if ticket.ticket == 0 {
            return;
        }
        self.folds += 1;
        match self.pending.iter_mut().find(|(s, _)| *s == ticket.shard) {
            Some((_, high)) => *high = (*high).max(ticket.ticket),
            None => self.pending.push((ticket.shard, ticket.ticket)),
        }
    }

    /// True when nothing is owed — [`WorkflowStore::await_durability`]
    /// would return immediately.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// How many owed obligations were folded in so far: comparing the count
    /// around one request tells whether its answer must wait for the
    /// barrier.
    #[must_use]
    pub fn folds(&self) -> usize {
        self.folds
    }
}

/// One committed write before its acknowledgement: the outcome, the
/// durability obligation it owes, its still-open trace and the workflow it
/// wrote. The trace stays open so a synchronous writer's durability wait
/// counts towards its request time.
pub(crate) type Written<T> = (T, DurabilityTicket, Trace, WorkflowId);

/// A provenance answer as the server encodes it: the query's task ids and
/// the snapshot spec they index. [`NameList::names`] borrows each name from
/// the spec, so the response frame is the first place a name is copied to.
#[derive(Debug)]
pub(crate) struct ProvenanceAnswer {
    spec: Arc<WorkflowSpec>,
    /// Live tasks of `spec`, ascending.
    tasks: Vec<TaskId>,
}

impl NameList for ProvenanceAnswer {
    fn names(&self) -> impl ExactSizeIterator<Item = &str> {
        // every id was checked live when the answer was built
        let name = |&task| self.spec.task(task).map_or("", |task| task.name.as_str());
        self.tasks.iter().map(name)
    }
}

/// The cached soundness verdict of one composite task.
#[derive(Debug, Clone)]
struct CompositeSummary {
    sound: bool,
    name: String,
}

/// One composite's cache slot: the epoch it is valid for and a `OnceLock`
/// cell so exactly one racer computes per `(composite, epoch)` — everyone
/// else blocks on the cell and counts as a hit, keeping the counters
/// deterministic under concurrency.
#[derive(Debug, Clone)]
struct CachedVerdict {
    epoch: u64,
    cell: Arc<OnceLock<CompositeSummary>>,
}

/// One stored view plus its composite-granular caches.
#[derive(Debug)]
struct StoredView {
    view: Arc<WorkflowView>,
    verdicts: RwLock<HashMap<CompositeTaskId, CachedVerdict>>,
    /// Matrix-backed provenance index, built on first provenance query,
    /// carried through task and dependency edits, and dropped by view edits
    /// (split, merge) for the next query to rebuild.
    provenance: RwLock<Option<(u64, Arc<ViewProvenanceIndex>)>>,
}

impl Clone for StoredView {
    fn clone(&self) -> Self {
        StoredView {
            view: Arc::clone(&self.view),
            verdicts: RwLock::new(self.verdicts.read().clone()),
            provenance: RwLock::new(self.provenance.read().clone()),
        }
    }
}

impl StoredView {
    fn new(view: WorkflowView) -> Arc<Self> {
        Arc::new(StoredView {
            view: Arc::new(view),
            verdicts: RwLock::new(HashMap::new()),
            provenance: RwLock::new(None),
        })
    }
}

/// One registered workflow: the spec, its view versions and the mutation
/// epoch keying every cache entry. Cloning is cheap (`Arc` handles plus
/// counters) — it is what `Arc::make_mut` pays per entry when a mutator
/// clones the shard state copy-on-write.
#[derive(Debug, Clone)]
struct Entry {
    spec: Arc<WorkflowSpec>,
    views: Vec<Arc<StoredView>>,
    current: usize,
    epoch: u64,
    /// Change-sequence number: bumped by every committed change of the
    /// entry — mutations *and* corrections (the epoch only counts
    /// mutations). Watch events are tagged with it, so a gap-free event
    /// stream is exactly a contiguous `seq` run.
    seq: u64,
}

impl Entry {
    /// The entry's full durable state, as stored in snapshots and
    /// `register` WAL records.
    fn snapshot(&self, id: u64) -> SnapshotEntry {
        SnapshotEntry {
            id,
            epoch: self.epoch,
            current: self.current,
            seq: self.seq,
            spec_lines: spec_to_lines(&self.spec),
            views: self
                .views
                .iter()
                .map(|stored| view_to_lines(&stored.view))
                .collect(),
        }
    }
}

/// Monotone serving counters of one shard. All counters are relaxed atomics:
/// they are statistics, not synchronisation.
#[derive(Debug, Default)]
struct ShardMetrics {
    validate_hits: AtomicU64,
    validate_misses: AtomicU64,
    composite_hits: AtomicU64,
    composite_misses: AtomicU64,
    /// Provenance queries that built the view's index, and those that
    /// found it cached for the current epoch.
    provenance_index_builds: AtomicU64,
    provenance_index_hits: AtomicU64,
    requests: AtomicU64,
    dropped_watchers: AtomicU64,
    /// Applied mutations per delta class, in [`MUTATION_CLASSES`] order —
    /// the observable proof that removals run decrementally instead of
    /// falling back to structural rebuilds.
    mutations: [AtomicU64; MUTATION_CLASSES.len()],
    /// Per-verb latency histograms, indexed like [`VERBS`]; the `stats`
    /// wire field `validate_ns` is the validate histogram's sum.
    verbs: [Histogram; VERBS.len()],
}

impl ShardMetrics {
    /// Bumps the counter matching one applied mutation's delta-class name;
    /// an unknown class counts as the conservative structural rebuild.
    fn record_mutation_class(&self, class: &str) {
        let position = |name: &str| MUTATION_CLASSES.iter().position(|&known| known == name);
        let index = position(class).or_else(|| position("structural"));
        self.mutations[index.unwrap_or_default()].fetch_add(1, Ordering::Relaxed);
    }
}

/// One shard's immutable state, published through a [`SnapshotCell`].
#[derive(Debug, Clone, Default)]
struct ShardState {
    entries: HashMap<u64, Entry>,
}

/// One registered watch subscription, server side.
#[derive(Debug)]
struct Watcher {
    workflow: u64,
    token: u64,
    /// Events with `seq <= base_seq` predate the subscription and are
    /// skipped during fan-out.
    base_seq: u64,
    /// Set before the sender is dropped when the bounded queue overflows,
    /// so the receiver can tell a lag-drop from a clean teardown.
    lagged: Arc<AtomicBool>,
    /// Events currently sitting in the subscriber's queue (incremented on
    /// fan-out, decremented on receive) — the watch-queue depth gauge.
    depth: Arc<AtomicU64>,
    sender: SyncSender<WatchEvent>,
    /// Woken after every push to (or lag-drop of) this queue — how a
    /// server event loop learns that a watch connection has events to
    /// write.
    waker: Option<Arc<Waker>>,
}

#[derive(Debug)]
struct Shard {
    /// The published state; readers `load()` it and never take a lock that
    /// a mutator could hold across real work.
    state: SnapshotCell<ShardState>,
    /// Serialises all write paths (register, mutate, correct, recovery
    /// installs, watch registration) — the WAL append order is the commit
    /// order. Readers never touch it.
    mutator: Mutex<()>,
    /// The watch subscriber registry. Registration additionally holds
    /// `mutator`, so the set of watchers a mutation observes at entry is
    /// exactly the set fan-out will serve at exit — no subscriber can slip
    /// in mid-mutation and miss its first event.
    watchers: Mutex<Vec<Watcher>>,
    /// `Some(reason)` when the shard is degraded (read-only): a WAL append
    /// *and* its rescue snapshot both failed, so the backend cannot commit
    /// new writes. Reads keep serving the last published snapshot;
    /// mutations fail fast with [`ServiceError::Degraded`] until
    /// [`WorkflowStore::heal`] re-opens writes. Checked and set only under
    /// `mutator`, so the degrade/heal transitions serialise with commits.
    degraded: Mutex<Option<String>>,
    metrics: ShardMetrics,
}

impl Shard {
    /// Fails fast with [`ServiceError::Degraded`] when the shard is
    /// read-only. Called under `mutator` at the top of every write path.
    fn writable(&self, index: usize) -> Result<(), ServiceError> {
        match &*self.degraded.lock() {
            Some(reason) => Err(ServiceError::Degraded {
                shard: index,
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The shard's counters at this instant — the one place `stats` and
    /// the `metrics` exposition read them from.
    fn counters(&self, index: usize) -> ShardCounters {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let metrics = &self.metrics;
        let watchers = self.watchers.lock();
        ShardCounters {
            stat: ShardStat {
                shard: index,
                workflows: self.state.load().entries.len(),
                validate_hits: load(&metrics.validate_hits),
                validate_misses: load(&metrics.validate_misses),
                composite_hits: load(&metrics.composite_hits),
                composite_misses: load(&metrics.composite_misses),
                validate_ns: metrics.verbs[Verb::Validate.index()].snapshot().sum,
                requests: load(&metrics.requests),
                snapshot_publishes: self.state.publish_count(),
                active_watchers: watchers.len() as u64,
                dropped_watchers: load(&metrics.dropped_watchers),
            },
            provenance_index_builds: load(&metrics.provenance_index_builds),
            provenance_index_hits: load(&metrics.provenance_index_hits),
            watch_queue_depth: watchers.iter().map(|watcher| load(&watcher.depth)).sum(),
            mutations: std::array::from_fn(|index| load(&metrics.mutations[index])),
            degraded: self.degraded.lock().is_some(),
        }
    }

    fn has_watcher_for(&self, workflow: u64) -> bool {
        self.watchers
            .lock()
            .iter()
            .any(|watcher| watcher.workflow == workflow)
    }

    /// Fans one committed event out to the workflow's subscribers. Called
    /// under the mutator mutex, strictly after the WAL append and the state
    /// publish. Slow consumers (full queue) are dropped with their `lagged`
    /// flag set; disconnected receivers are cleaned up silently. Each
    /// distinct waker of a served watcher is woken once, after the pushes.
    fn fan_out(&self, event: &WatchEvent) {
        let workflow = event.workflow().0;
        let seq = event.seq();
        let mut woken: Vec<Arc<Waker>> = Vec::new();
        let mut watchers = self.watchers.lock();
        watchers.retain(|watcher| {
            if watcher.workflow != workflow || seq <= watcher.base_seq {
                return true;
            }
            let keep = match watcher.sender.try_send(event.clone()) {
                Ok(()) => {
                    watcher.depth.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(TrySendError::Full(_)) => {
                    watcher.lagged.store(true, Ordering::SeqCst);
                    self.metrics
                        .dropped_watchers
                        .fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(TrySendError::Disconnected(_)) => return false,
            };
            if let Some(waker) = &watcher.waker {
                if !woken.iter().any(|other| Arc::ptr_eq(other, waker)) {
                    woken.push(Arc::clone(waker));
                }
            }
            keep
        });
        drop(watchers);
        for waker in woken {
            waker.wake();
        }
    }
}

/// Which cached composite verdicts a mutation invalidates.
enum Affected {
    /// Every cached verdict (an edit that rebuilt the reachability matrix
    /// wholesale, so no dirty rows say what moved).
    All,
    /// Only the listed composites; everything else survives re-tagged.
    Composites(BTreeSet<CompositeTaskId>),
}

impl Affected {
    fn contains(&self, composite: CompositeTaskId) -> bool {
        match self {
            Affected::All => true,
            Affected::Composites(set) => set.contains(&composite),
        }
    }
}

/// A live watch subscription handed out by [`WorkflowStore::watch`].
///
/// Events arrive on a bounded queue; when the subscriber cannot keep up the
/// store drops it (setting a lag marker) rather than blocking mutators or
/// other subscribers. Dropping the subscription (or calling
/// [`WorkflowStore::unwatch`]) tears the registration down cleanly — the
/// next fan-out to the dead queue removes any leftover registry entry.
#[derive(Debug)]
pub struct WatchSubscription {
    workflow: WorkflowId,
    shard_index: usize,
    token: u64,
    seq: u64,
    epoch: u64,
    payload: Option<String>,
    lagged: Arc<AtomicBool>,
    depth: Arc<AtomicU64>,
    receiver: Receiver<WatchEvent>,
}

impl WatchSubscription {
    /// The watched workflow.
    #[must_use]
    pub fn workflow(&self) -> WorkflowId {
        self.workflow
    }

    /// The workflow's change-sequence number at subscription time: the
    /// first received event carries `seq() + 1`, and a gap-free consumer
    /// checks contiguity from here.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The workflow's mutation epoch at subscription time.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// In [`WatchMode::Resync`], the workflow's full textfmt payload,
    /// consistent with [`WatchSubscription::seq`].
    #[must_use]
    pub fn payload(&self) -> Option<&str> {
        self.payload.as_deref()
    }

    /// Waits up to `timeout` for the next event. Returns `Ok(None)` on
    /// timeout (the subscription is still live).
    ///
    /// # Errors
    /// [`ServiceError::Lagged`] once a lag-dropped subscription's buffered
    /// events are drained — the gap-free tail is gone, resync to continue;
    /// [`ServiceError::Protocol`] when the subscription was closed for any
    /// other reason (e.g. an explicit [`WorkflowStore::unwatch`]).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<WatchEvent>, ServiceError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(event) => Ok(Some(self.received(event))),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.closed()),
        }
    }

    /// [`WatchSubscription::recv_timeout`] without waiting: `Ok(None)` when
    /// the queue is empty right now.
    ///
    /// # Errors
    /// As [`WatchSubscription::recv_timeout`].
    pub(crate) fn try_recv(&self) -> Result<Option<WatchEvent>, ServiceError> {
        match self.receiver.try_recv() {
            Ok(event) => Ok(Some(self.received(event))),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(self.closed()),
        }
    }

    fn received(&self, event: WatchEvent) -> WatchEvent {
        // keep the queue-depth gauge honest; saturate rather than wrap if a
        // drain ever races a teardown
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                depth.checked_sub(1)
            });
        event
    }

    fn closed(&self) -> ServiceError {
        if self.lagged.load(Ordering::SeqCst) {
            ServiceError::Lagged
        } else {
            ServiceError::Protocol("watch subscription closed".to_owned())
        }
    }
}

/// The sharded workflow store described in the module docs.
#[derive(Debug)]
pub struct WorkflowStore {
    shards: Vec<Shard>,
    next_id: AtomicU64,
    next_watch_token: AtomicU64,
    backend: Arc<dyn StorageBackend>,
    telemetry: Telemetry,
    server_gauges: Mutex<Option<Arc<ServerGauges>>>,
}

impl WorkflowStore {
    /// Creates a purely in-memory store with `shard_count` shards (at least
    /// one) — a [`MemoryBackend`] behind the scenes, with today's zero-cost
    /// behaviour.
    #[must_use]
    pub fn new(shard_count: usize) -> Self {
        Self::with_backend(Arc::new(MemoryBackend::new(shard_count)))
    }

    fn with_backend(backend: Arc<dyn StorageBackend>) -> Self {
        let shards = (0..backend.shard_count())
            .map(|_| Shard {
                state: SnapshotCell::new(ShardState::default()),
                mutator: Mutex::new(()),
                watchers: Mutex::new(Vec::new()),
                degraded: Mutex::new(None),
                metrics: ShardMetrics::default(),
            })
            .collect();
        WorkflowStore {
            shards,
            next_id: AtomicU64::new(0),
            next_watch_token: AtomicU64::new(0),
            backend,
            telemetry: Telemetry::new(),
            server_gauges: Mutex::new(None),
        }
    }

    /// Attaches the serving layer's connection/wakeup gauges so the
    /// `metrics` verb can expose them alongside the store's own series. The
    /// server calls this when it starts on the store; the latest attachment
    /// wins.
    pub fn attach_server_gauges(&self, gauges: Arc<ServerGauges>) {
        *self.server_gauges.lock() = Some(gauges);
    }

    /// Opens a store on a storage backend, recovering whatever the backend
    /// journals: the newest snapshot of each shard is installed, then the
    /// write-ahead log is replayed **through the live request paths**
    /// (`WorkflowSpec::apply` for mutations, version append for
    /// corrections), so the recovered store serves bit-identical answers —
    /// same epochs, same task/composite-id assignment, same cache keying —
    /// as the store that crashed. Replayed epochs and spec deltas are
    /// cross-checked against the logged ones; a divergence aborts recovery.
    ///
    /// After a successful replay every shard is snapshotted once, which
    /// compacts the recovered log away and bounds the next start-up.
    ///
    /// # Errors
    /// Reports journal corruption, replay divergence and I/O failures.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<(Self, RecoveryReport), ServiceError> {
        let store = Self::with_backend(Arc::clone(&backend));
        // one trace spans the whole replay; it times recovery and is never
        // finished, as replays are not served requests
        let mut replay = Trace::start(Verb::Mutate);
        let mut report = RecoveryReport {
            shards: store.shards.len(),
            ..RecoveryReport::default()
        };
        for (index, shard) in backend.take_journal()?.into_iter().enumerate() {
            store.replay_shard(index, shard, &mut report, &mut replay)?;
        }
        store.telemetry.set_recovery_replay_ns(replay.elapsed_ns());
        report.workflows = store
            .shards
            .iter()
            .map(|shard| shard.state.load().entries.len())
            .sum();
        if report.snapshot_entries + report.replayed_records > 0 {
            // compact: the replayed journal becomes the new snapshot base
            store.snapshot_all()?;
        }
        Ok((store, report))
    }

    /// Replays one shard's journal in append order, under the recovery
    /// `trace`. Replays commit without a WAL record (the log already holds
    /// them).
    fn replay_shard(
        &self,
        index: usize,
        journal: ShardJournal,
        report: &mut RecoveryReport,
        trace: &mut Trace,
    ) -> Result<(), ServiceError> {
        let (note_entries, note_records) = (journal.entries.len(), journal.records.len());
        if journal.torn_bytes > 0 {
            report.torn_tails += 1;
            report.notes.push(format!(
                "shard {index}: discarded {} byte(s) of torn WAL tail",
                journal.torn_bytes
            ));
        }
        for entry in journal.entries {
            self.install_entry(entry, trace)?;
        }
        for record in journal.records {
            match record {
                WalRecord::Register { id, entry } => {
                    if entry.id != id {
                        return Err(ServiceError::Recovery(format!(
                            "register record for workflow {id} carries entry {}",
                            entry.id
                        )));
                    }
                    self.install_entry(entry, trace)?;
                }
                WalRecord::Mutate {
                    id,
                    epoch,
                    op,
                    deltas,
                } => {
                    let Applied {
                        index: shard,
                        guard,
                        next,
                        mutated,
                        deltas: replayed,
                        ..
                    } = self.apply(WorkflowId(id), &op, None, trace)?;
                    if mutated.epoch != epoch || replayed != deltas {
                        return Err(ServiceError::Recovery(format!(
                            "replay diverged on workflow {id}: logged epoch {epoch}, \
                             replayed epoch {}",
                            mutated.epoch
                        )));
                    }
                    self.commit(shard, guard, next, None, None, trace)?;
                }
                WalRecord::Correct {
                    id,
                    version,
                    view_lines,
                } => self.install_correction(id, version, &view_lines, trace)?,
            }
        }
        report.snapshot_entries += note_entries;
        report.replayed_records += note_records;
        if note_entries + note_records > 0 {
            report.notes.push(format!(
                "shard {index}: {note_entries} snapshot entr(ies), \
                 {note_records} WAL record(s)"
            ));
        }
        Ok(())
    }

    /// Installs one recovered workflow entry (from a snapshot or a replayed
    /// `register` record) under the recovery `trace`.
    fn install_entry(
        &self,
        snapshot: SnapshotEntry,
        trace: &mut Trace,
    ) -> Result<(), ServiceError> {
        let recover = |e: wolves_workflow::WorkflowError| ServiceError::Recovery(e.to_string());
        let spec = spec_from_lines(&snapshot.spec_lines).map_err(recover)?;
        let mut views = Vec::with_capacity(snapshot.views.len());
        for lines in &snapshot.views {
            let view = view_from_lines(lines).map_err(recover)?;
            view.validate_against(&spec).map_err(recover)?;
            views.push(StoredView::new(view));
        }
        if !views.is_empty() && snapshot.current >= views.len() {
            return Err(ServiceError::Recovery(format!(
                "workflow {}: current version {} out of range ({} view(s))",
                snapshot.id,
                snapshot.current,
                views.len()
            )));
        }
        let _ = spec.reachability();
        let entry = Entry {
            spec: Arc::new(spec),
            views,
            current: snapshot.current,
            epoch: snapshot.epoch,
            seq: snapshot.seq,
        };
        let index = self.shard_index_of(WorkflowId(snapshot.id));
        let shard = &self.shards[index];
        let guard = shard.mutator.lock();
        let mut next = shard.state.load();
        if Arc::make_mut(&mut next)
            .entries
            .insert(snapshot.id, entry)
            .is_some()
        {
            // the clone is dropped unpublished: the duplicate never lands
            return Err(ServiceError::Recovery(format!(
                "workflow {} recovered twice",
                snapshot.id
            )));
        }
        self.commit(index, guard, next, None, None, trace)?;
        self.next_id.fetch_max(snapshot.id, Ordering::Relaxed);
        Ok(())
    }

    /// Replays a logged correction under `trace`: appends the recorded view
    /// version and makes it current. Also the replica-side path for
    /// `corrected` watch events (see [`WorkflowStore::apply_watch_event`]),
    /// so it bumps the change-sequence number and fans out to any local
    /// subscribers.
    fn install_correction(
        &self,
        id: u64,
        version: usize,
        view_lines: &[String],
        trace: &mut Trace,
    ) -> Result<(), ServiceError> {
        let recover = |e: wolves_workflow::WorkflowError| ServiceError::Recovery(e.to_string());
        let view = view_from_lines(view_lines).map_err(recover)?;
        let index = self.shard_index_of(WorkflowId(id));
        let shard = &self.shards[index];
        let guard = shard.mutator.lock();
        let mut next = shard.state.load();
        let entry = Arc::make_mut(&mut next)
            .entries
            .get_mut(&id)
            .ok_or(ServiceError::UnknownWorkflow(WorkflowId(id)))?;
        view.validate_against(&entry.spec).map_err(recover)?;
        if version != entry.views.len() {
            return Err(ServiceError::Recovery(format!(
                "correction replay diverged on workflow {id}: logged version {version}, \
                 next version {}",
                entry.views.len()
            )));
        }
        entry.views.push(StoredView::new(view));
        entry.current = version;
        entry.seq += 1;
        let event = shard.has_watcher_for(id).then(|| WatchEvent::Corrected {
            workflow: WorkflowId(id),
            seq: entry.seq,
            version,
            view_lines: view_lines.to_vec(),
        });
        self.commit(index, guard, next, None, event, trace)?;
        Ok(())
    }

    /// The storage backend behind the store.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index_of(&self, id: WorkflowId) -> usize {
        let mut hasher = DefaultHasher::new();
        id.0.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn shard_of(&self, id: WorkflowId) -> &Shard {
        &self.shards[self.shard_index_of(id)]
    }

    /// Registers a workflow and optional view, returning the assigned id.
    ///
    /// The spec's reachability matrix is primed here, outside any lock, so
    /// every later request shares the already-built matrix.
    ///
    /// # Panics
    /// Panics if a durable backend fails to persist the registration; use
    /// [`WorkflowStore::try_register`] to handle persistence failures.
    pub fn register(&self, spec: WorkflowSpec, view: Option<WorkflowView>) -> WorkflowId {
        self.try_register(spec, view)
            .expect("workflow registration failed to persist")
    }

    /// Registers a workflow and optional view, returning the assigned id.
    ///
    /// # Errors
    /// Reports views that do not partition the spec's tasks and, on durable
    /// backends, serialisation and persistence failures (the registration
    /// is rolled back, so memory and disk stay consistent).
    pub fn try_register(
        &self,
        spec: WorkflowSpec,
        view: Option<WorkflowView>,
    ) -> Result<WorkflowId, ServiceError> {
        self.acknowledge(self.register_traced(spec, view, Trace::start(Verb::Register))?)
    }

    /// Registers a workflow from a native text-format payload.
    ///
    /// # Errors
    /// Reports payloads that do not parse as the text format, and
    /// persistence failures on durable backends.
    pub fn register_text(&self, payload: &str) -> Result<WorkflowId, ServiceError> {
        self.acknowledge(self.register_text_deferred(payload)?)
    }

    /// [`WorkflowStore::register_text`] with the durability wait deferred:
    /// the caller hands the write to [`WorkflowStore::defer`].
    pub(crate) fn register_text_deferred(
        &self,
        payload: &str,
    ) -> Result<Written<WorkflowId>, ServiceError> {
        let mut trace = Trace::start(Verb::Register);
        trace.enter(Stage::Parse);
        let imported = read_text_format(payload)?;
        self.register_traced(imported.spec, imported.view, trace)
    }

    /// Registers and commits one workflow under `trace`. The spec's
    /// reachability matrix is primed here, outside any lock, so every later
    /// request shares the already-built matrix.
    fn register_traced(
        &self,
        spec: WorkflowSpec,
        view: Option<WorkflowView>,
        mut trace: Trace,
    ) -> Result<Written<WorkflowId>, ServiceError> {
        let durable = self.backend.durable();
        if durable {
            // refuse names the line format cannot carry before anything is
            // allocated or written
            let persist =
                |e: wolves_workflow::WorkflowError| ServiceError::Persistence(e.to_string());
            check_spec_serialisable(&spec).map_err(persist)?;
            if let Some(view) = &view {
                check_view_serialisable(view).map_err(persist)?;
            }
        }
        trace.enter(Stage::Compute);
        let _ = spec.reachability();
        trace.leave();
        let id = WorkflowId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let entry = Entry {
            spec: Arc::new(spec),
            views: view.map(StoredView::new).into_iter().collect(),
            current: 0,
            epoch: 0,
            seq: 0,
        };
        // the in-memory backend keeps its zero-cost contract: no snapshot
        // serialisation, no record building
        let record = durable.then(|| WalRecord::Register {
            id: id.0,
            entry: entry.snapshot(id.0),
        });
        let index = self.shard_index_of(id);
        let shard = &self.shards[index];
        shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let guard = shard.mutator.lock();
        shard.writable(index)?;
        let mut next = shard.state.load();
        Arc::make_mut(&mut next).entries.insert(id.0, entry);
        let ticket = self.commit(index, guard, next, record, None, &mut trace)?;
        Ok((id, ticket, trace, id))
    }

    /// The one commit path of every write, recovery and replica installs
    /// included: under the shard's mutator it appends `record` to the WAL,
    /// publishes `next`, fans `event` out and compacts the log when the
    /// backend asks, then releases the mutator and only then drops the
    /// superseded state, so freeing it blocks neither readers nor the next
    /// writer. Appending first keeps the
    /// log order the store order, and no subscriber ever holds an event the
    /// log misses. A failed append is rescued with a snapshot of `next`; if
    /// that fails too, nothing is published and the shard degrades to
    /// read-only. Returns the durability obligation the caller settles,
    /// with the mutator released, before acknowledging the write.
    fn commit(
        &self,
        index: usize,
        guard: MutexGuard<'_, ()>,
        next: Arc<ShardState>,
        record: Option<WalRecord>,
        event: Option<WatchEvent>,
        trace: &mut Trace,
    ) -> Result<DurabilityTicket, ServiceError> {
        let shard = &self.shards[index];
        let mut ticket = DurabilityTicket {
            shard: index,
            ticket: 0,
        };
        let mut wants_snapshot = false;
        if let Some(record) = record {
            trace.enter(Stage::WalAppend);
            match self.backend.append(index, &record) {
                Ok(outcome) => {
                    trace.carve(Stage::Fsync, outcome.fsync_ns);
                    wants_snapshot = outcome.wants_snapshot;
                    ticket.ticket = outcome.ticket;
                }
                // self-heal: a snapshot of the next state rotates past the
                // damaged segment; on a double failure nothing is published
                Err(e) => {
                    if let Err(rescue) = self.snapshot_shard(index, &next.entries) {
                        return Err(self.degrade(index, shard, &e, &rescue));
                    }
                }
            }
        }
        // the commit point: readers switch to the next state here
        trace.enter(Stage::SnapshotPublish);
        let previous = shard.state.publish(Arc::clone(&next));
        if let Some(event) = event {
            // after the publish: an event's reader-visible state is never
            // behind the event
            trace.enter(Stage::WatchFanout);
            shard.fan_out(&event);
        }
        trace.leave();
        // a compaction failure leaves memory and WAL committed; the caller
        // learns durable compaction is behind
        let compacted = if wants_snapshot {
            self.snapshot_shard(index, &next.entries)
        } else {
            Ok(())
        };
        drop(guard);
        // last: with no reader holding it, the superseded state (and the
        // spec copy-on-write cloned off) is freed here, behind no lock
        drop(previous);
        compacted.map(|()| ticket)
    }

    /// The synchronous tail of a write: waits for its durability obligation,
    /// books the wait under its trace's `fsync` stage, then finishes the
    /// trace and hands back the outcome.
    fn acknowledge<T>(
        &self,
        (outcome, ticket, mut trace, workflow): Written<T>,
    ) -> Result<T, ServiceError> {
        let mut barrier = DurabilityBarrier::default();
        barrier.fold(ticket);
        trace.carve(Stage::Fsync, self.wait_for(&barrier)?);
        self.finish(trace, workflow);
        Ok(outcome)
    }

    /// The deferred tail of a write: finishes its trace and folds its
    /// durability obligation into `barrier`, which must be settled through
    /// [`WorkflowStore::await_durability`] before the returned outcome is
    /// acknowledged to anyone.
    pub(crate) fn defer<T>(
        &self,
        (outcome, ticket, trace, workflow): Written<T>,
        barrier: &mut DurabilityBarrier,
    ) -> T {
        barrier.fold(ticket);
        self.finish(trace, workflow);
        outcome
    }

    /// Finishes one request's trace under its workflow's shard.
    fn finish(&self, trace: Trace, id: WorkflowId) {
        let verbs = &self.shard_of(id).metrics.verbs;
        trace.finish(verbs, &self.telemetry, Some(id.0));
    }

    /// Writes a snapshot of one shard through the backend (the caller holds
    /// the shard's mutator mutex, so the dump is a consistent cut).
    fn snapshot_shard(
        &self,
        index: usize,
        entries: &HashMap<u64, Entry>,
    ) -> Result<(), ServiceError> {
        let mut ids: Vec<u64> = entries.keys().copied().collect();
        ids.sort_unstable();
        let dump: Vec<SnapshotEntry> = ids.iter().map(|id| entries[id].snapshot(*id)).collect();
        self.backend.write_snapshot(index, &dump)
    }

    /// Marks one shard degraded (read-only) after a double storage failure
    /// — a WAL append *and* its rescue snapshot both failed — and returns
    /// the [`ServiceError::Degraded`] the failed write reports. The caller
    /// holds the shard's mutator mutex; nothing was published, so readers
    /// keep serving the last committed snapshot.
    fn degrade(
        &self,
        index: usize,
        shard: &Shard,
        append: &ServiceError,
        rescue: &ServiceError,
    ) -> ServiceError {
        let reason = format!("append failed: {append}; rescue snapshot failed: {rescue}");
        *shard.degraded.lock() = Some(reason.clone());
        let error = ServiceError::Degraded {
            shard: index,
            reason,
        };
        self.record_error(&error);
        error
    }

    /// Indices of the shards currently degraded (read-only).
    #[must_use]
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, shard)| shard.degraded.lock().is_some())
            .map(|(index, _)| index)
            .collect()
    }

    /// Attempts to re-open writes on every degraded shard: under the
    /// shard's mutator mutex the backend is retried with a full snapshot
    /// of the shard's current in-memory state (exactly the acked state —
    /// nothing unacked was ever published), whose rotation supersedes any
    /// damaged log segment. A shard whose snapshot succeeds clears its
    /// degraded flag and accepts mutations again — no restart, no data
    /// loss. Returns `(healed, still_degraded)`.
    pub fn heal(&self) -> (usize, usize) {
        let mut healed = 0usize;
        let mut still_degraded = 0usize;
        for (index, shard) in self.shards.iter().enumerate() {
            let _guard = shard.mutator.lock();
            if shard.degraded.lock().is_none() {
                continue;
            }
            // best-effort flush of anything the backend buffered before
            // the failure; the snapshot below is the actual heal
            let _ = self.backend.sync();
            let state = shard.state.load();
            if self.snapshot_shard(index, &state.entries).is_ok() {
                *shard.degraded.lock() = None;
                healed += 1;
            } else {
                still_degraded += 1;
            }
        }
        (healed, still_degraded)
    }

    /// Counts one error response under its typed wire kind — the
    /// `wolves_errors_total{kind}` series.
    pub fn record_error(&self, error: &ServiceError) {
        self.telemetry.errors().record(error.wire_kind());
    }

    /// Snapshots every shard through the backend, truncating each shard's
    /// write-ahead log (compaction). This is what the `snapshot` protocol
    /// verb runs; on the in-memory backend it is a no-op. Returns the
    /// number of shards snapshotted.
    ///
    /// # Errors
    /// Reports backend I/O failures.
    pub fn snapshot_all(&self) -> Result<usize, ServiceError> {
        for (index, shard) in self.shards.iter().enumerate() {
            // hold the mutator mutex for a consistent cut; readers are
            // unaffected — they keep loading the published snapshot
            let _guard = shard.mutator.lock();
            let state = shard.state.load();
            self.snapshot_shard(index, &state.entries)?;
        }
        Ok(self.shards.len())
    }

    /// Exports a workflow's current state (spec + current view) in the
    /// registrable native text format — what a client needs to resync after
    /// server-side mutations and corrections.
    ///
    /// # Errors
    /// Reports unknown workflows.
    pub fn export(&self, id: WorkflowId) -> Result<String, ServiceError> {
        let trace = Trace::start(Verb::Export);
        let shard = self.shard_of(id);
        shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let state = shard.state.load();
        let entry = state
            .entries
            .get(&id.0)
            .ok_or(ServiceError::UnknownWorkflow(id))?;
        let view = entry.views.get(entry.current).map(|stored| &*stored.view);
        let payload = write_text_format(&entry.spec, view);
        trace.finish(&shard.metrics.verbs, &self.telemetry, Some(id.0));
        Ok(payload)
    }

    /// Snapshot of a workflow's spec, a view version (current when `version`
    /// is `None`) and the mutation epoch, off the shard's published state.
    /// The three are mutually consistent: mutators build the next state
    /// copy-on-write and publish it atomically — a reader never observes a
    /// half-applied mutation, and never waits behind one.
    fn snapshot(
        &self,
        id: WorkflowId,
        version: Option<usize>,
    ) -> Result<(Arc<WorkflowSpec>, Arc<StoredView>, usize, u64), ServiceError> {
        let shard = self.shard_of(id);
        shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let state = shard.state.load();
        let entry = state
            .entries
            .get(&id.0)
            .ok_or(ServiceError::UnknownWorkflow(id))?;
        if entry.views.is_empty() {
            return Err(ServiceError::NoView(id));
        }
        let index = version.unwrap_or(entry.current);
        let stored = entry
            .views
            .get(index)
            .ok_or(ServiceError::UnknownView(id, index))?;
        Ok((
            Arc::clone(&entry.spec),
            Arc::clone(stored),
            index,
            entry.epoch,
        ))
    }

    /// Validates a view version composite by composite, serving every
    /// epoch-fresh cached verdict and computing only the rest. The response
    /// counts as a cache hit when *no* composite had to be computed.
    ///
    /// # Errors
    /// Reports unknown workflows and view versions.
    pub fn validate(
        &self,
        id: WorkflowId,
        version: Option<usize>,
    ) -> Result<Verdict, ServiceError> {
        let mut trace = Trace::start(Verb::Validate);
        trace.enter(Stage::CacheLookup);
        let (spec, stored, index, epoch) = self.snapshot(id, version)?;
        let view = Arc::clone(&stored.view);
        let mut computed = 0u64;
        let mut served = 0u64;
        let mut unsound = Vec::new();
        for (composite_id, composite) in view.composites() {
            let cell = {
                let map = stored.verdicts.read();
                map.get(&composite_id)
                    .filter(|cached| cached.epoch == epoch)
                    .map(|cached| Arc::clone(&cached.cell))
            };
            let cell = cell.unwrap_or_else(|| {
                let mut map = stored.verdicts.write();
                match map.get(&composite_id) {
                    Some(cached) if cached.epoch == epoch => Arc::clone(&cached.cell),
                    // the entry is fresher than our snapshot (a mutation won
                    // the race): compute one-off without disturbing the cache
                    Some(cached) if cached.epoch > epoch => Arc::new(OnceLock::new()),
                    _ => {
                        let cell = Arc::new(OnceLock::new());
                        map.insert(
                            composite_id,
                            CachedVerdict {
                                epoch,
                                cell: Arc::clone(&cell),
                            },
                        );
                        cell
                    }
                }
            });
            let mut ran = false;
            let summary = cell.get_or_init(|| {
                ran = true;
                trace.enter(Stage::Compute);
                let sound = is_sound(&spec, composite.members());
                trace.enter(Stage::CacheLookup);
                CompositeSummary {
                    sound,
                    name: composite.name.clone(),
                }
            });
            if ran {
                computed += 1;
            } else {
                served += 1;
            }
            if !summary.sound {
                unsound.push(summary.name.clone());
            }
        }
        trace.leave();
        let cached = computed == 0;
        let metrics = &self.shard_of(id).metrics;
        if cached {
            metrics.validate_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.validate_misses.fetch_add(1, Ordering::Relaxed);
        }
        metrics.composite_hits.fetch_add(served, Ordering::Relaxed);
        metrics
            .composite_misses
            .fetch_add(computed, Ordering::Relaxed);
        trace.finish(&metrics.verbs, &self.telemetry, Some(id.0));
        Ok(Verdict {
            sound: unsound.is_empty(),
            version: index,
            cached,
            epoch,
            unsound,
        })
    }

    /// Applies one mutation to a registered workflow under the shard's
    /// mutator mutex, with composite-granular cache invalidation: only the
    /// cached verdicts whose composites the edit could have changed are
    /// dropped; the rest are re-tagged to the new epoch and keep serving
    /// hits. The next shard state is built copy-on-write and published
    /// atomically, so concurrent readers stay on a consistent pre-mutation
    /// snapshot and never block.
    ///
    /// On a durable backend the edit is appended to the shard's write-ahead
    /// log (op + the edit's spec deltas) *before* the new state is published
    /// and before any watch event is fanned out, so the log order is the
    /// store order and no subscriber ever holds an event the log misses.
    ///
    /// # Errors
    /// Reports unknown workflows, tasks and composites, edits the model
    /// layer rejects (duplicate names, missing dependencies, non-partition
    /// splits), a task or composite name the text format cannot carry back
    /// ([`wolves_moml::textfmt::check_task_name`],
    /// [`wolves_moml::textfmt::check_composite_name`], as
    /// [`ServiceError::Mutation`]), and persistence failures.
    pub fn mutate(&self, id: WorkflowId, op: MutateOp) -> Result<Mutated, ServiceError> {
        self.mutate_cas(id, op, None)
    }

    /// [`WorkflowStore::mutate`] with an optional compare-and-set guard:
    /// when `expect` is `Some(epoch)`, the edit applies only if the
    /// workflow's mutation epoch still equals `epoch` — otherwise nothing
    /// changes and [`ServiceError::EpochConflict`] reports the actual
    /// epoch. This is what makes retried mutations idempotent: a client
    /// that resends a mutation whose ack was lost sees a conflict (the
    /// first send already bumped the epoch) instead of applying twice.
    ///
    /// # Errors
    /// Everything [`WorkflowStore::mutate`] reports, plus
    /// [`ServiceError::EpochConflict`] on a stale `expect`.
    pub fn mutate_cas(
        &self,
        id: WorkflowId,
        op: MutateOp,
        expect: Option<u64>,
    ) -> Result<Mutated, ServiceError> {
        self.acknowledge(self.mutate_inner(id, op, expect)?.0)
    }

    /// [`WorkflowStore::mutate_cas`] with the durability wait *deferred*:
    /// the mutation is applied, logged and published, but this call returns
    /// without waiting for its WAL record to be fsynced. The returned
    /// ticket MUST be folded into a [`DurabilityBarrier`] and awaited via
    /// [`WorkflowStore::await_durability`] before the outcome is
    /// acknowledged to any client. This is how a pipelined batch of
    /// mutations shares one group-commit wait (and, in strict-fsync mode,
    /// typically one fsync) instead of paying one per request.
    ///
    /// # Errors
    /// Everything [`WorkflowStore::mutate_cas`] reports, except durability
    /// errors — those surface from `await_durability`.
    pub fn mutate_deferred(
        &self,
        id: WorkflowId,
        op: MutateOp,
        expect: Option<u64>,
    ) -> Result<(Mutated, DurabilityTicket), ServiceError> {
        let ((mutated, ticket, trace, _), _) = self.mutate_inner(id, op, expect)?;
        self.finish(trace, id);
        Ok((mutated, ticket))
    }

    /// Blocks until every obligation folded into `barrier` is on stable
    /// storage (per the backend's fsync policy) and records the wait under
    /// the `fsync` stage. Returns the observed wait in nanoseconds. A no-op
    /// for empty barriers and non-strict policies.
    ///
    /// # Errors
    /// Propagates the backend's fsync failure: the covered writes are
    /// published in memory but not yet power-loss durable.
    pub fn await_durability(&self, barrier: &DurabilityBarrier) -> Result<u64, ServiceError> {
        let waited = self.wait_for(barrier)?;
        if waited > 0 {
            self.telemetry.stage(Stage::Fsync, waited);
        }
        Ok(waited)
    }

    /// Blocks until every obligation folded into `barrier` is durable;
    /// returns the longest wait in nanoseconds.
    fn wait_for(&self, barrier: &DurabilityBarrier) -> Result<u64, ServiceError> {
        let mut waited = 0u64;
        for &(shard, ticket) in &barrier.pending {
            waited = waited.max(self.backend.wait_durable(shard, ticket)?);
        }
        Ok(waited)
    }

    /// Applies, logs and commits one mutation, deferring its durability
    /// wait. Returns the edit's spec deltas alongside the write so a
    /// replica can cross-check them against the event it replays.
    pub(crate) fn mutate_inner(
        &self,
        id: WorkflowId,
        op: MutateOp,
        expect: Option<u64>,
    ) -> Result<(Written<Mutated>, Vec<SpecDelta>), ServiceError> {
        let mut trace = Trace::start(Verb::Mutate);
        let durable = self.backend.durable();
        if durable {
            // refuse names the single-line WAL/wire grammar cannot carry
            // before anything is applied
            check_op_serialisable(&op)?;
        }
        // a name the text format cannot carry back would leave an `export`
        // that does not register again
        match &op {
            MutateOp::AddTask { name } => check_task_name(name),
            // a split names its parts after the composite it splits
            MutateOp::Merge { name, .. }
            | MutateOp::Split {
                composite: name, ..
            } => check_composite_name(name),
            _ => Ok(()),
        }
        .map_err(ServiceError::Mutation)?;
        let Applied {
            index,
            guard,
            next,
            mutated,
            seq,
            deltas,
            watched,
        } = self.apply(id, &op, expect, &mut trace)?;
        // the bare in-memory path builds neither: no record, no event, no
        // op clone
        let event = watched.then(|| WatchEvent::Mutated {
            workflow: id,
            seq,
            op: op.clone(),
            outcome: mutated.clone(),
            deltas: deltas.clone(),
        });
        let record = durable.then(|| WalRecord::Mutate {
            id: id.0,
            epoch: mutated.epoch,
            op,
            deltas: deltas.clone(),
        });
        let ticket = self.commit(index, guard, next, record, event, &mut trace)?;
        Ok(((mutated, ticket, trace, id), deltas))
    }

    /// Applies one mutation to the next state of the workflow's shard,
    /// with composite-granular cache invalidation: only the cached verdicts
    /// whose composites the edit could have changed are dropped; the rest
    /// are re-tagged to the new epoch and keep serving hits. The next state
    /// is built copy-on-write, so an error return drops it unpublished and
    /// readers stay on the untouched current snapshot.
    fn apply(
        &self,
        id: WorkflowId,
        op: &MutateOp,
        expect: Option<u64>,
        trace: &mut Trace,
    ) -> Result<Applied<'_>, ServiceError> {
        let index = self.shard_index_of(id);
        let shard = &self.shards[index];
        shard.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // serialise mutators; readers keep loading the published snapshot.
        // Watch registration also takes this mutex, so the watcher set
        // observed here is exactly the set the commit's fan-out serves.
        let guard = shard.mutator.lock();
        shard.writable(index)?;
        let watched = shard.has_watcher_for(id.0);
        let mut next = shard.state.load();
        let entry = Arc::make_mut(&mut next)
            .entries
            .get_mut(&id.0)
            .ok_or(ServiceError::UnknownWorkflow(id))?;
        if entry.views.is_empty() {
            return Err(ServiceError::NoView(id));
        }
        let old_epoch = entry.epoch;
        if let Some(expected) = expect {
            // the CAS guard: checked under the mutator mutex, before any
            // state is touched, so a stale expectation changes nothing
            if expected != old_epoch {
                return Err(ServiceError::EpochConflict {
                    expected,
                    actual: old_epoch,
                });
            }
        }
        let new_epoch = old_epoch + 1;

        let mutation = |e: wolves_workflow::WorkflowError| ServiceError::Mutation(e.to_string());
        let resolve_task = |spec: &WorkflowSpec, name: &str| -> Result<TaskId, ServiceError> {
            spec.task_by_name(name)
                .ok_or_else(|| ServiceError::UnknownTask(name.to_owned()))
        };

        // `truncate`: task-set edits rebase the workflow — older view
        // versions would no longer partition the tasks, so only the updated
        // current view survives.
        trace.enter(Stage::Compute);
        // the edit's spec delta (view edits have none)
        let mut delta = None;
        let (class, affected, scope, truncate) = match op {
            MutateOp::AddTask { name } => {
                let spec = Arc::make_mut(&mut entry.spec);
                let report = spec
                    .apply(SpecMutation::AddTask { name: name.clone() })
                    .map_err(mutation)?;
                let task = report.task.expect("AddTask reports the created task");
                let stored = Arc::make_mut(&mut entry.views[entry.current]);
                let view = Arc::make_mut(&mut stored.view);
                let composite = view
                    .add_composite(name.clone(), vec![task])
                    .map_err(mutation)?;
                delta = Some(report.delta);
                (
                    report.class.name(),
                    Affected::Composites([composite].into_iter().collect()),
                    Some(IndexScope {
                        composites: vec![composite],
                        pairs: Vec::new(),
                    }),
                    true,
                )
            }
            MutateOp::RemoveTask { name } => {
                let task = resolve_task(&entry.spec, name)?;
                let stored = Arc::make_mut(&mut entry.views[entry.current]);
                let view = Arc::make_mut(&mut stored.view);
                let own = view.remove_member(task).map_err(mutation)?;
                // the links the task's dependencies make between its
                // composite and its neighbours'
                let of = |t: TaskId| view.composite_of(t);
                let spec = &entry.spec;
                let pairs: Vec<(CompositeTaskId, CompositeTaskId)> = spec
                    .predecessors(task)
                    .filter_map(of)
                    .map(|p| (p, own))
                    .chain(spec.successors(task).filter_map(of).map(|s| (own, s)))
                    .collect();
                let report = Arc::make_mut(&mut entry.spec)
                    .apply(SpecMutation::RemoveTask { task })
                    .map_err(mutation)?;
                // the neighbours' composites lose a dependency, so their
                // boundary sets can move even where no reachability row does
                let touched = pairs.iter().flat_map(|&(a, b)| [a, b]).chain([own]);
                let affected = dirty_composites(entry, &report.dirty, touched.collect());
                delta = Some(report.delta);
                (
                    report.class.name(),
                    affected,
                    Some(IndexScope {
                        composites: vec![own],
                        pairs,
                    }),
                    true,
                )
            }
            MutateOp::AddEdge { from, to } => {
                let from = resolve_task(&entry.spec, from)?;
                let to = resolve_task(&entry.spec, to)?;
                let report = Arc::make_mut(&mut entry.spec)
                    .apply(SpecMutation::AddDependency { from, to })
                    .map_err(mutation)?;
                let (affected, scope) = edge_affected_composites(entry, from, to, &report.dirty);
                delta = Some(report.delta);
                (report.class.name(), affected, Some(scope), false)
            }
            MutateOp::RemoveEdge { from, to } => {
                let from = resolve_task(&entry.spec, from)?;
                let to = resolve_task(&entry.spec, to)?;
                let report = Arc::make_mut(&mut entry.spec)
                    .apply(SpecMutation::RemoveDependency { from, to })
                    .map_err(mutation)?;
                // the decremental maintenance reports exactly which
                // reachability rows shrank, so survivor composites keep
                // their cached verdicts just like on the insert path
                let (affected, scope) = edge_affected_composites(entry, from, to, &report.dirty);
                delta = Some(report.delta);
                (report.class.name(), affected, Some(scope), false)
            }
            MutateOp::Split { composite, parts } => {
                let stored = Arc::make_mut(&mut entry.views[entry.current]);
                let view = Arc::make_mut(&mut stored.view);
                let target = composite_by_name(view, composite)?;
                let spec = &entry.spec;
                let part_ids: Vec<Vec<TaskId>> = parts
                    .iter()
                    .map(|part| {
                        part.iter()
                            .map(|name| resolve_task(spec, name))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<_, _>>()?;
                view.split_composite(target, part_ids).map_err(mutation)?;
                (
                    "view-edit",
                    Affected::Composites([target].into_iter().collect()),
                    None,
                    false,
                )
            }
            MutateOp::Merge { name, composites } => {
                let stored = Arc::make_mut(&mut entry.views[entry.current]);
                let view = Arc::make_mut(&mut stored.view);
                let ids: Vec<CompositeTaskId> = composites
                    .iter()
                    .map(|c| composite_by_name(view, c))
                    .collect::<Result<_, _>>()?;
                view.merge_composites(&ids, name.clone())
                    .map_err(mutation)?;
                (
                    "view-edit",
                    Affected::Composites(ids.into_iter().collect()),
                    None,
                    false,
                )
            }
        };
        shard.metrics.record_mutation_class(class);
        // the retag-or-drop pass over the cached verdicts is cache work,
        // not model computation
        trace.enter(Stage::CacheLookup);
        let mutated = finish_mutation(entry, class, &affected, scope, truncate, new_epoch);
        trace.leave();
        // every change (mutations here, corrections too) bumps the
        // per-entry sequence number; watch subscribers use its contiguity
        // to prove the event stream is gap-free
        entry.seq += 1;
        let seq = entry.seq;
        // the edit's spec delta goes to the write-ahead log and the watch
        // fan-out (the bare in-memory backend collects none)
        let deltas = match delta {
            Some(delta) if self.backend.durable() || watched => vec![delta],
            _ => Vec::new(),
        };
        Ok(Applied {
            index,
            guard,
            next,
            mutated,
            seq,
            deltas,
            watched,
        })
    }

    /// Corrects the current view with `strategy`. When the view was unsound,
    /// the corrected view is appended as a new version and becomes current.
    /// The expensive correction runs outside the shard lock.
    ///
    /// # Errors
    /// Reports unknown workflows, corrector failures and, on durable
    /// backends, persistence failures.
    pub fn correct(&self, id: WorkflowId, strategy: Strategy) -> Result<Corrected, ServiceError> {
        self.acknowledge(self.correct_deferred(id, strategy)?)
    }

    /// [`WorkflowStore::correct`] with the durability wait deferred: the
    /// caller hands the write to [`WorkflowStore::defer`].
    pub(crate) fn correct_deferred(
        &self,
        id: WorkflowId,
        strategy: Strategy,
    ) -> Result<Written<Corrected>, ServiceError> {
        let mut trace = Trace::start(Verb::Correct);
        let (spec, stored, index, epoch) = self.snapshot(id, None)?;
        let corrector = strategy.corrector();
        trace.enter(Stage::Compute);
        let (corrected, report) = correct_view(&spec, &stored.view, corrector.as_ref())?;
        trace.leave();
        let answer = |version: usize, view: &WorkflowView, spec: &WorkflowSpec| Corrected {
            version,
            composites_before: report.composites_before,
            composites_after: view.composite_count(),
            payload: write_text_format(spec, Some(view)),
        };
        let (outcome, ticket) = 'commit: {
            if report.was_already_sound() {
                break 'commit (
                    answer(index, &stored.view, &spec),
                    DurabilityTicket::default(),
                );
            }
            // rendered outside the shard lock; the version is set below
            let mut committed = answer(0, &corrected, &spec);
            let durable = self.backend.durable();
            let shard_index = self.shard_index_of(id);
            let shard = &self.shards[shard_index];
            let guard = shard.mutator.lock();
            shard.writable(shard_index)?;
            let watched = shard.has_watcher_for(id.0);
            let mut next = shard.state.load();
            let entry = Arc::make_mut(&mut next)
                .entries
                .get_mut(&id.0)
                .ok_or(ServiceError::UnknownWorkflow(id))?;
            if entry.current != index || entry.epoch != epoch {
                // a concurrent correction or mutation already replaced the
                // version we corrected; adopt the winner instead of appending
                let winner = answer(entry.current, &entry.views[entry.current].view, &entry.spec);
                break 'commit (winner, DurabilityTicket::default());
            }
            let view_lines = if durable || watched {
                view_to_lines(&corrected)
            } else {
                Vec::new()
            };
            entry.views.push(StoredView::new(corrected));
            entry.current = entry.views.len() - 1;
            entry.seq += 1;
            let (seq, version) = (entry.seq, entry.current);
            let event = watched.then(|| WatchEvent::Corrected {
                workflow: id,
                seq,
                version,
                view_lines: view_lines.clone(),
            });
            let record = durable.then_some(WalRecord::Correct {
                id: id.0,
                version,
                view_lines,
            });
            committed.version = version;
            let ticket = self.commit(shard_index, guard, next, record, event, &mut trace)?;
            (committed, ticket)
        };
        Ok((outcome, ticket, trace, id))
    }

    /// Answers a view-level provenance query for the named task through the
    /// workflow's current view, returning the provenance task names in
    /// deterministic (task-id) order.
    ///
    /// Served off the epoch-tagged per-view [`ViewProvenanceIndex`]: the
    /// induced view graph's reachability matrix is built once, serves every
    /// repeated query, and is carried through every task and dependency
    /// edit ([`ViewProvenanceIndex::carry`]); only a split, a merge or a
    /// correction, each of which puts a new view in place, starts a fresh
    /// one. Every query is row lookups plus a task bitset read back in id
    /// order, no per-request graph construction. The server encodes the
    /// same answer with each name borrowed from the spec, not copied.
    ///
    /// # Errors
    /// Reports unknown workflows and task names.
    pub fn provenance(&self, id: WorkflowId, subject: &str) -> Result<Vec<String>, ServiceError> {
        let answer = self.provenance_answer(id, subject)?;
        Ok(answer.names().map(str::to_owned).collect())
    }

    /// The provenance query behind [`WorkflowStore::provenance`], answered
    /// as task ids over the snapshot's spec.
    pub(crate) fn provenance_answer(
        &self,
        id: WorkflowId,
        subject: &str,
    ) -> Result<ProvenanceAnswer, ServiceError> {
        let mut trace = Trace::start(Verb::Provenance);
        trace.enter(Stage::CacheLookup);
        let (spec, stored, _, epoch) = self.snapshot(id, None)?;
        let task = spec
            .task_by_name(subject)
            .ok_or_else(|| ServiceError::UnknownTask(subject.to_owned()))?;
        let metrics = &self.shard_of(id).metrics;
        let cached = stored
            .provenance
            .read()
            .as_ref()
            .filter(|(cached_epoch, _)| *cached_epoch == epoch)
            .map(|(_, index)| Arc::clone(index));
        let index = match cached {
            Some(index) => {
                metrics
                    .provenance_index_hits
                    .fetch_add(1, Ordering::Relaxed);
                index
            }
            None => {
                metrics
                    .provenance_index_builds
                    .fetch_add(1, Ordering::Relaxed);
                trace.enter(Stage::Compute);
                let built = Arc::new(ViewProvenanceIndex::new(&spec, &stored.view));
                trace.enter(Stage::CacheLookup);
                let mut slot = stored.provenance.write();
                match slot.as_ref() {
                    // don't clobber an index a fresher epoch already cached
                    Some((cached_epoch, _)) if *cached_epoch > epoch => {}
                    _ => *slot = Some((epoch, Arc::clone(&built))),
                }
                built
            }
        };
        trace.enter(Stage::Compute);
        let mut tasks = index.provenance_tasks(&stored.view, task);
        tasks.retain(|&task| spec.contains_task(task));
        self.finish(trace, id);
        Ok(ProvenanceAnswer { spec, tasks })
    }

    /// Snapshot of the per-shard serving counters.
    #[must_use]
    pub fn stats(&self) -> StatsReport {
        StatsReport {
            shards: self.counters().map(|counters| counters.stat).collect(),
        }
    }

    /// Every shard's counters, in shard order.
    fn counters(&self) -> impl Iterator<Item = ShardCounters> + '_ {
        let shards = self.shards.iter().enumerate();
        shards.map(|(index, shard)| shard.counters(index))
    }

    /// Merged (cross-shard) latency histogram of one request verb.
    #[must_use]
    pub fn verb_histogram(&self, verb: Verb) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for shard in &self.shards {
            merged.merge(&shard.metrics.verbs[verb.index()].snapshot());
        }
        merged
    }

    /// Latency histogram of one commit stage.
    #[must_use]
    pub fn stage_histogram(&self, stage: Stage) -> HistogramSnapshot {
        self.telemetry.stage_snapshot(stage)
    }

    /// The store-global telemetry registries (commit-stage timers, the
    /// slow-request ring, recovery timing).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The slow-request dump served by the `metrics slow` protocol verb:
    /// the worst-N requests with their stage breakdowns, worst first.
    #[must_use]
    pub fn slow_requests_text(&self) -> String {
        self.telemetry.slow_text()
    }

    /// Renders the Prometheus-style text exposition served by the
    /// `metrics` protocol verb: per-verb and per-stage latency histograms,
    /// serving counters summed over shards, watch gauges, the storage
    /// backend's WAL observation and the attached server's gauges.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        Scrape {
            verbs: VERBS.map(|verb| self.verb_histogram(verb)),
            shards: self.counters().collect(),
            telemetry: &self.telemetry,
            storage: self.backend.observe(),
            server: self.server_gauges.lock().clone(),
        }
        .render()
    }

    /// Subscribes to a workflow's committed changes with the default
    /// per-subscriber queue bound ([`WATCH_QUEUE_CAP`]).
    ///
    /// # Errors
    /// Reports unknown workflows.
    pub fn watch(
        &self,
        id: WorkflowId,
        mode: WatchMode,
    ) -> Result<WatchSubscription, ServiceError> {
        self.subscribe(id, mode, WATCH_QUEUE_CAP, None)
    }

    /// [`WorkflowStore::watch`] that wakes `waker` after every event pushed
    /// to the subscription's queue (and when a lag-drop closes it), so an
    /// event loop can poll the queue instead of blocking on it.
    ///
    /// # Errors
    /// Reports unknown workflows.
    pub(crate) fn watch_waking(
        &self,
        id: WorkflowId,
        mode: WatchMode,
        waker: Arc<Waker>,
    ) -> Result<WatchSubscription, ServiceError> {
        self.subscribe(id, mode, WATCH_QUEUE_CAP, Some(waker))
    }

    /// [`WorkflowStore::watch`] with an explicit queue bound (tests pin the
    /// slow-consumer drop with a tiny queue).
    ///
    /// Registration holds the shard's mutator mutex, so the subscription
    /// cut is atomic with respect to mutations: every change committed
    /// after this call returns is delivered (or the subscriber is
    /// explicitly lag-dropped), and nothing committed before it leaks in.
    /// In [`WatchMode::Resync`] the returned subscription carries an
    /// `export`-format payload consistent with the acknowledged sequence
    /// number; in [`WatchMode::From`] a stated sequence number that is not
    /// current pre-seeds the queue with a [`WatchEvent::Resync`].
    ///
    /// # Errors
    /// Reports unknown workflows.
    pub fn watch_with_capacity(
        &self,
        id: WorkflowId,
        mode: WatchMode,
        capacity: usize,
    ) -> Result<WatchSubscription, ServiceError> {
        self.subscribe(id, mode, capacity, None)
    }

    fn subscribe(
        &self,
        id: WorkflowId,
        mode: WatchMode,
        capacity: usize,
        waker: Option<Arc<Waker>>,
    ) -> Result<WatchSubscription, ServiceError> {
        let shard_index = self.shard_index_of(id);
        let shard = &self.shards[shard_index];
        // atomic with mutations: no event can commit between reading the
        // cut below and registering the watcher
        let _mutator = shard.mutator.lock();
        let state = shard.state.load();
        let entry = state
            .entries
            .get(&id.0)
            .ok_or(ServiceError::UnknownWorkflow(id))?;
        let seq = entry.seq;
        let epoch = entry.epoch;
        let payload = matches!(mode, WatchMode::Resync).then(|| {
            let view = entry.views.get(entry.current).map(|stored| &*stored.view);
            write_text_format(&entry.spec, view)
        });
        let (sender, receiver) = mpsc::sync_channel(capacity.max(1));
        let depth = Arc::new(AtomicU64::new(0));
        if let WatchMode::From(stated) = mode {
            if stated != seq {
                // the stated cursor cannot be tailed gap-free; tell the
                // subscriber to resync before any live event arrives
                if sender
                    .try_send(WatchEvent::Resync { workflow: id, seq })
                    .is_ok()
                {
                    depth.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let lagged = Arc::new(AtomicBool::new(false));
        let token = self.next_watch_token.fetch_add(1, Ordering::Relaxed);
        shard.watchers.lock().push(Watcher {
            workflow: id.0,
            token,
            base_seq: seq,
            lagged: Arc::clone(&lagged),
            depth: Arc::clone(&depth),
            sender,
            waker,
        });
        Ok(WatchSubscription {
            workflow: id,
            shard_index,
            token,
            seq,
            epoch,
            payload,
            lagged,
            depth,
            receiver,
        })
    }

    /// Tears a subscription down server-side. Idempotent: a watcher already
    /// lag-dropped (or never registered) is a no-op. The subscription's
    /// receiver keeps draining any events fanned out before the teardown.
    pub fn unwatch(&self, subscription: &WatchSubscription) {
        self.shards[subscription.shard_index]
            .watchers
            .lock()
            .retain(|watcher| watcher.token != subscription.token);
    }

    /// The workflow's current change cursor: `(seq, epoch)`. The sequence
    /// number counts every committed change (mutations and corrections);
    /// the epoch counts mutations only.
    ///
    /// # Errors
    /// Reports unknown workflows.
    pub fn cursor(&self, id: WorkflowId) -> Result<(u64, u64), ServiceError> {
        let shard = self.shard_of(id);
        let state = shard.state.load();
        let entry = state
            .entries
            .get(&id.0)
            .ok_or(ServiceError::UnknownWorkflow(id))?;
        Ok((entry.seq, entry.epoch))
    }

    /// Applies one received watch event to this store as a CDC replica,
    /// cross-checking the replayed outcome against the event's: epochs,
    /// sequence numbers and (when this store collects them) spec deltas
    /// must all match, so a replica that drifts fails loudly instead of
    /// silently diverging.
    ///
    /// # Errors
    /// Reports unknown workflows, ops the replica rejects, replay
    /// divergence, and [`ServiceError::Lagged`] for a
    /// [`WatchEvent::Resync`] (the caller must re-`export` and rebuild).
    pub fn apply_watch_event(&self, event: &WatchEvent) -> Result<(), ServiceError> {
        let diverged = |what: &str, ours: u64, theirs: u64| {
            ServiceError::Recovery(format!(
                "watch replay diverged: replica {what} {ours} != event {what} {theirs}"
            ))
        };
        match event {
            WatchEvent::Mutated {
                workflow,
                seq,
                op,
                outcome,
                deltas,
            } => {
                let (written, applied) = self.mutate_inner(*workflow, op.clone(), None)?;
                let mutated = self.acknowledge(written)?;
                if mutated.epoch != outcome.epoch {
                    return Err(diverged("epoch", mutated.epoch, outcome.epoch));
                }
                let (replica_seq, _) = self.cursor(*workflow)?;
                if replica_seq != *seq {
                    return Err(diverged("seq", replica_seq, *seq));
                }
                // a durable replica collects the deltas itself; compare
                // them to the event's (an in-memory replica collects none)
                if !applied.is_empty() && applied != *deltas {
                    return Err(ServiceError::Recovery(
                        "watch replay diverged: replica spec deltas differ from the event's"
                            .to_owned(),
                    ));
                }
                Ok(())
            }
            WatchEvent::Corrected {
                workflow,
                seq,
                version,
                view_lines,
            } => {
                // recorded as a correct request, as the mutated arm records
                // a mutate request
                let mut trace = Trace::start(Verb::Correct);
                self.install_correction(workflow.0, *version, view_lines, &mut trace)?;
                self.finish(trace, *workflow);
                let (replica_seq, _) = self.cursor(*workflow)?;
                if replica_seq != *seq {
                    return Err(diverged("seq", replica_seq, *seq));
                }
                Ok(())
            }
            WatchEvent::Resync { .. } => Err(ServiceError::Lagged),
        }
    }
}

/// A mutation applied to a shard's next state but not yet committed: the
/// shard's mutator stays held until `WorkflowStore::commit` releases it.
struct Applied<'a> {
    index: usize,
    guard: MutexGuard<'a, ()>,
    next: Arc<ShardState>,
    mutated: Mutated,
    /// The entry's change-sequence number after the edit.
    seq: u64,
    /// The spec deltas of the edit, collected only when a durable backend
    /// or a watcher needs them.
    deltas: Vec<SpecDelta>,
    /// A watcher of the workflow is owed the edit's event.
    watched: bool,
}

/// What a task or dependency edit can have changed in the induced view
/// graph, for [`ViewProvenanceIndex::carry`]: the composites it may have
/// added or emptied, and the ordered composite pairs whose link it may
/// have made or broken.
struct IndexScope {
    composites: Vec<CompositeTaskId>,
    pairs: Vec<(CompositeTaskId, CompositeTaskId)>,
}

/// Shared tail of [`WorkflowStore::mutate`]: version truncation, the
/// retag-or-drop pass over the cached verdicts, the provenance index and
/// the epoch bump. A spec edit (`scope` set) carries a current index to
/// the new epoch; a view edit drops it for the next query to rebuild.
fn finish_mutation(
    entry: &mut Entry,
    class: &str,
    affected: &Affected,
    scope: Option<IndexScope>,
    truncate: bool,
    new_epoch: u64,
) -> Mutated {
    let old_epoch = new_epoch - 1;
    if truncate && entry.views.len() > 1 {
        let kept = Arc::clone(&entry.views[entry.current]);
        entry.views = vec![kept];
        entry.current = 0;
    }
    let stored = &entry.views[entry.current];
    let live: BTreeSet<CompositeTaskId> = stored.view.composite_ids().collect();
    let mut invalidated = 0usize;
    let mut retained = 0usize;
    {
        let mut map = stored.verdicts.write();
        map.retain(|&composite, cached| {
            let survives = cached.epoch == old_epoch
                && !affected.contains(composite)
                && live.contains(&composite);
            if survives {
                cached.epoch = new_epoch;
                retained += 1;
            } else {
                invalidated += 1;
            }
            survives
        });
    }
    {
        let mut slot = stored.provenance.write();
        *slot = match (slot.take(), scope) {
            (Some((epoch, mut index)), Some(scope)) if epoch == old_epoch => {
                ViewProvenanceIndex::carry(
                    &mut index,
                    &entry.spec,
                    &stored.view,
                    &scope.composites,
                    &scope.pairs,
                )
                .then_some((new_epoch, index))
            }
            _ => None,
        };
    }
    entry.epoch = new_epoch;
    Mutated {
        epoch: new_epoch,
        class: class.to_owned(),
        invalidated,
        retained,
        version: entry.current,
    }
}

/// Refuses mutation ops whose names cannot survive the single-line,
/// TAB-separated wire/WAL grammar: a TAB or line break would corrupt the
/// frame — or worse, silently truncate the name on replay, recovering a
/// store that diverges from the one that crashed. Only durable backends
/// enforce this (the wire protocol cannot produce such names; this guards
/// in-process callers of [`WorkflowStore::mutate`]).
fn check_op_serialisable(op: &MutateOp) -> Result<(), ServiceError> {
    let check = |what: &str, text: &str, reserved: &[char]| -> Result<(), ServiceError> {
        if text.contains(['\t', '\n', '\r']) || text.contains(reserved) {
            return Err(ServiceError::Persistence(format!(
                "{what} {text:?} contains a TAB, line break or reserved separator; the \
                 write-ahead log's line grammar cannot carry it"
            )));
        }
        Ok(())
    };
    match op {
        MutateOp::AddTask { name } | MutateOp::RemoveTask { name } => check("task name", name, &[]),
        MutateOp::AddEdge { from, to } | MutateOp::RemoveEdge { from, to } => {
            check("task name", from, &[])?;
            check("task name", to, &[])
        }
        MutateOp::Split { composite, parts } => {
            check("composite name", composite, &[])?;
            for part in parts {
                for member in part {
                    // ';' and ',' are the wire grammar's list separators
                    check("task name", member, &[';', ','])?;
                }
            }
            Ok(())
        }
        MutateOp::Merge { name, composites } => {
            check("composite name", name, &[])?;
            for composite in composites {
                check("composite name", composite, &[';'])?;
            }
            Ok(())
        }
    }
}

/// Computes which composites of the current view an edge mutation affects:
/// the composites holding the endpoints (their boundary sets can move even
/// when the reachability closure is unchanged) plus every composite with a
/// member in a dirty reachability row. The scope is the one composite pair
/// the edge can link or unlink.
fn edge_affected_composites(
    entry: &Entry,
    from: TaskId,
    to: TaskId,
    dirty: &DirtyRows,
) -> (Affected, IndexScope) {
    let view = &entry.views[entry.current].view;
    let from_composite = view.composite_of(from);
    let to_composite = view.composite_of(to);
    let scope = IndexScope {
        composites: Vec::new(),
        pairs: from_composite.zip(to_composite).into_iter().collect(),
    };
    let endpoints = from_composite.into_iter().chain(to_composite).collect();
    (dirty_composites(entry, dirty, endpoints), scope)
}

/// The composites a spec edit invalidates: `touched` (the ones whose
/// members or boundary edges the edit changed) plus every composite of the
/// current view with a member in a dirty reachability row — or all of them
/// when the matrix was rebuilt. A dirty set of dead slots alone (the freed
/// row of a task removed without dependencies) holds no live task, so it
/// adds no composite and the pass over the members is skipped.
fn dirty_composites(
    entry: &Entry,
    dirty: &DirtyRows,
    mut touched: BTreeSet<CompositeTaskId>,
) -> Affected {
    if dirty.is_all() {
        return Affected::All;
    }
    if !dirty.is_clean() {
        let reach = entry.spec.reachability();
        let live = |comp: usize| comp >= reach.comp_count() || reach.component_size(comp) > 0;
        if dirty.ones().any(live) {
            for (id, composite) in entry.views[entry.current].view.composites() {
                if touched.contains(&id) {
                    continue;
                }
                let moved = composite.members().iter().any(|&task| {
                    reach
                        .component_of(task)
                        .map_or(true, |comp| dirty.contains(comp))
                });
                if moved {
                    touched.insert(id);
                }
            }
        }
    }
    Affected::Composites(touched)
}

/// Resolves a composite task of `view` by display name.
fn composite_by_name(view: &WorkflowView, name: &str) -> Result<CompositeTaskId, ServiceError> {
    view.composites()
        .find(|(_, composite)| composite.name == name)
        .map(|(id, _)| id)
        .ok_or_else(|| ServiceError::UnknownCompositeName(name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FileBackend, PersistConfig};
    use wolves_repo::figure1;
    use wolves_workflow::CompositeTask;

    fn add_edge(from: &str, to: &str) -> MutateOp {
        MutateOp::AddEdge {
            from: from.to_owned(),
            to: to.to_owned(),
        }
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "wolves-store-{tag}-{}-{unique}",
            std::process::id()
        ))
    }

    fn durable_config(root: &std::path::Path) -> PersistConfig {
        PersistConfig {
            shards: 2,
            ..PersistConfig::new(root)
        }
    }

    /// Drives a store through the full verb set and captures every served
    /// answer, so recovered state can be compared answer-for-answer.
    fn drive_and_observe(store: &WorkflowStore, id: WorkflowId) -> Vec<String> {
        let mut observed = Vec::new();
        let verdict = store.validate(id, None).unwrap();
        observed.push(format!(
            "validate v{} sound={} unsound={:?}",
            verdict.version, verdict.sound, verdict.unsound
        ));
        for subject in ["Format alignment", "Display tree"] {
            observed.push(format!(
                "provenance {subject}: {:?}",
                store.provenance(id, subject).unwrap()
            ));
        }
        observed.push(format!("export:\n{}", store.export(id).unwrap()));
        observed
    }

    #[test]
    fn durable_store_recovers_identical_answers_after_restart() {
        let root = temp_root("recover");
        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (store, report) = WorkflowStore::open(backend).unwrap();
        assert_eq!(report.workflows, 0);
        let fixture = figure1();
        let id = store
            .try_register(fixture.spec, Some(fixture.view))
            .unwrap();
        store.correct(id, Strategy::Strong).unwrap();
        let mutated = store
            .mutate(
                id,
                add_edge("Check additional annotations", "Build phylo tree"),
            )
            .unwrap();
        assert_eq!(mutated.epoch, 1);
        store
            .mutate(
                id,
                MutateOp::Merge {
                    name: "Front end".to_owned(),
                    composites: vec![
                        "Retrieve entries (13)".to_owned(),
                        "Annotations (14)".to_owned(),
                    ],
                },
            )
            .unwrap();
        let mutated = store
            .mutate(
                id,
                MutateOp::AddTask {
                    name: "Archive results".to_owned(),
                },
            )
            .unwrap();
        assert_eq!(mutated.epoch, 3);
        store
            .mutate(id, add_edge("Display tree", "Archive results"))
            .unwrap();
        let before = drive_and_observe(&store, id);
        drop(store);

        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (recovered, report) = WorkflowStore::open(backend).unwrap();
        assert_eq!(report.workflows, 1);
        assert!(report.replayed_records >= 5, "{report}");
        assert_eq!(drive_and_observe(&recovered, id), before);
        // the epoch counter resumes exactly where the crashed store stopped
        let mutated = recovered
            .mutate(id, add_edge("Curate annotations", "Archive results"))
            .unwrap();
        assert_eq!(mutated.epoch, 5);
        // recovery compacted: a third open replays the snapshot, not records
        drop(recovered);
        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (_again, report) = WorkflowStore::open(backend).unwrap();
        assert_eq!(report.workflows, 1);
        assert_eq!(report.snapshot_entries, 1);
        assert_eq!(report.replayed_records, 1, "only the post-compaction edit");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recovered_ids_and_versions_match_the_live_store() {
        let root = temp_root("ids");
        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (store, _) = WorkflowStore::open(backend).unwrap();
        let first = {
            let f = figure1();
            store.try_register(f.spec, Some(f.view)).unwrap()
        };
        let second = {
            let f = figure1();
            store.try_register(f.spec, Some(f.view)).unwrap()
        };
        store.correct(second, Strategy::Weak).unwrap();
        drop(store);
        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (recovered, _) = WorkflowStore::open(backend).unwrap();
        // old ids answer; a fresh registration continues the id sequence
        assert!(recovered.validate(first, None).is_ok());
        assert_eq!(recovered.validate(second, None).unwrap().version, 1);
        assert!(recovered.validate(second, Some(0)).is_ok());
        let f = figure1();
        let third = recovered.try_register(f.spec, Some(f.view)).unwrap();
        assert_eq!(third.0, second.0 + 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cas_mutations_apply_at_most_once() {
        let store = WorkflowStore::new(2);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        assert_eq!(store.cursor(id).unwrap(), (0, 0));
        let op = add_edge("Check additional annotations", "Build phylo tree");
        let mutated = store.mutate_cas(id, op.clone(), Some(0)).unwrap();
        assert_eq!(mutated.epoch, 1);
        // the retry scenario: the first send applied (ack lost), the
        // resend carries the same expectation and must change nothing
        let err = store.mutate_cas(id, op, Some(0)).unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::EpochConflict {
                    expected: 0,
                    actual: 1
                }
            ),
            "{err}"
        );
        assert_eq!(store.cursor(id).unwrap(), (1, 1));
        // a fresh expectation applies normally
        let mutated = store
            .mutate_cas(id, add_edge("Display tree", "Format alignment"), Some(1))
            .unwrap();
        assert_eq!(mutated.epoch, 2);
    }

    #[test]
    fn slow_ring_spans_sum_to_each_requests_total() {
        let root = temp_root("spans");
        let strict = PersistConfig {
            fsync_every: 1,
            ..durable_config(&root)
        };
        let (store, _) = WorkflowStore::open(Arc::new(FileBackend::open(strict).unwrap())).unwrap();
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        // a watcher makes every write fan out
        let _watch = store.watch(id, WatchMode::Tail).unwrap();
        store.validate(id, None).unwrap();
        store.correct(id, Strategy::Strong).unwrap();
        let edge = add_edge("Check additional annotations", "Build phylo tree");
        store.mutate(id, edge).unwrap();

        let worst = store.telemetry().slow().worst();
        for (verb, stages) in [
            ("validate", &["cache_lookup", "compute"][..]),
            ("register", &["compute", "wal_append", "fsync"]),
            ("correct", &["compute", "watch_fanout", "fsync"]),
            ("mutate", &["cache_lookup", "watch_fanout", "fsync"]),
        ] {
            let request = worst.iter().find(|request| request.verb == verb).unwrap();
            let sum: u64 = request.spans.iter().map(|(_, ns)| ns).sum();
            assert_eq!(sum, request.total_ns, "{verb}: {:?}", request.spans);
            for stage in stages {
                assert!(
                    request.spans.iter().any(|(s, _)| s == stage),
                    "{verb}: {stage}"
                );
            }
        }
        // a synchronous write's durability wait is part of its request:
        // one fsync sample per write, and the verb total covers it
        assert_eq!(store.stage_histogram(Stage::Fsync).count(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_double_storage_failure_degrades_the_shard_and_heal_reopens_writes() {
        use crate::storage::{FaultInjector, FaultPlan};
        let root = temp_root("degrade");
        let config = PersistConfig {
            shards: 1,
            ..PersistConfig::new(&root)
        };
        let backend = Arc::new(FileBackend::open(config).unwrap());
        // append 2 (the first mutation) fails, and so does its rescue
        // snapshot — the double failure that degrades the shard
        let plan = FaultPlan::parse("append-err=2,snap-err=1").unwrap();
        let faulted = Arc::new(FaultInjector::new(backend, plan));
        let (store, _) = WorkflowStore::open(faulted).unwrap();
        let fixture = figure1();
        let id = store
            .try_register(fixture.spec, Some(fixture.view))
            .unwrap();
        let op = add_edge("Check additional annotations", "Build phylo tree");
        let err = store.mutate(id, op.clone()).unwrap_err();
        assert!(
            matches!(err, ServiceError::Degraded { shard: 0, .. }),
            "{err}"
        );
        assert_eq!(store.degraded_shards(), vec![0]);
        // reads keep serving off the last published snapshot
        assert!(store.validate(id, None).is_ok());
        assert!(store.export(id).is_ok());
        assert!(store.provenance(id, "Display tree").is_ok());
        // further writes fail fast without touching the backend
        assert!(matches!(
            store.mutate(id, op.clone()),
            Err(ServiceError::Degraded { .. })
        ));
        let metrics = store.metrics_text();
        assert!(
            metrics.contains("wolves_shard_degraded{shard=\"0\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("wolves_errors_total{kind=\"degraded\"}"),
            "{metrics}"
        );
        // heal: the retried snapshot rotates past the damage and re-opens
        // writes — no restart
        assert_eq!(store.heal(), (1, 0));
        assert!(store.degraded_shards().is_empty());
        assert!(store
            .metrics_text()
            .contains("wolves_shard_degraded{shard=\"0\"} 0"));
        let mutated = store.mutate(id, op).unwrap();
        assert_eq!(mutated.epoch, 1, "the failed mutation was never applied");
        drop(store);
        // recovery on a clean backend sees exactly the acked history
        let config = PersistConfig {
            shards: 1,
            ..PersistConfig::new(&root)
        };
        let backend = Arc::new(FileBackend::open(config).unwrap());
        let (recovered, report) = WorkflowStore::open(backend).unwrap();
        assert_eq!(report.workflows, 1);
        assert_eq!(recovered.cursor(id).unwrap(), (1, 1));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unserialisable_names_are_rejected_by_durable_registration() {
        let root = temp_root("names");
        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (store, _) = WorkflowStore::open(backend).unwrap();
        let mut spec = WorkflowSpec::new("bad");
        spec.add_task(wolves_workflow::AtomicTask::new("task\nwith newline"))
            .unwrap();
        assert!(matches!(
            store.try_register(spec, None),
            Err(ServiceError::Persistence(_))
        ));
        // the in-memory store accepts the same spec (nothing to serialise)
        let memory = WorkflowStore::new(1);
        let mut spec = WorkflowSpec::new("bad");
        spec.add_task(wolves_workflow::AtomicTask::new("task\nwith newline"))
            .unwrap();
        assert!(memory.try_register(spec, None).is_ok());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unserialisable_op_names_are_rejected_by_durable_mutation() {
        let root = temp_root("op-names");
        let backend = Arc::new(FileBackend::open(durable_config(&root)).unwrap());
        let (store, _) = WorkflowStore::open(backend).unwrap();
        let fixture = figure1();
        let id = store
            .try_register(fixture.spec, Some(fixture.view))
            .unwrap();
        let epoch_probe = |store: &WorkflowStore| {
            store
                .mutate(
                    id,
                    MutateOp::AddTask {
                        name: format!("probe-{}", store.stats().requests()),
                    },
                )
                .unwrap()
                .epoch
        };
        let before = epoch_probe(&store);
        for op in [
            MutateOp::AddTask {
                name: "a\nb".to_owned(),
            },
            MutateOp::AddTask {
                name: "a\tb".to_owned(),
            },
            MutateOp::Merge {
                name: "ok".to_owned(),
                composites: vec!["a;b".to_owned()],
            },
            MutateOp::Split {
                composite: "ok".to_owned(),
                parts: vec![vec!["a,b".to_owned()]],
            },
        ] {
            let err = store.mutate(id, op).unwrap_err();
            assert!(matches!(err, ServiceError::Persistence(_)), "{err}");
        }
        // the rejections applied nothing: the epoch advanced only by the
        // probes themselves
        assert_eq!(epoch_probe(&store), before + 1);
        // the in-memory store still accepts a name only the log cannot
        // carry (nothing to log); one the text format cannot carry back is
        // refused by every store
        let memory = WorkflowStore::new(1);
        let f = figure1();
        let mem_id = memory.try_register(f.spec, Some(f.view)).unwrap();
        let add = |name: &str| {
            memory.mutate(
                mem_id,
                MutateOp::AddTask {
                    name: name.to_owned(),
                },
            )
        };
        assert!(add("a\rb").is_ok());
        assert!(matches!(add("a\tb"), Err(ServiceError::Mutation(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn register_validate_and_cache() {
        let store = WorkflowStore::new(4);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        let first = store.validate(id, None).unwrap();
        assert!(!first.sound);
        assert!(!first.cached);
        assert_eq!(first.unsound, vec!["Curate & align (16)".to_owned()]);
        let second = store.validate(id, None).unwrap();
        assert!(second.cached);
        assert_eq!(second.unsound, first.unsound);
        let stats = store.stats();
        assert_eq!(stats.validate_hits(), 1);
        assert_eq!(stats.validate_misses(), 1);
        // composite granularity: 7 computed on the first request, 7 served
        // from cache on the second
        assert_eq!(stats.composite_misses(), 7);
        assert_eq!(stats.composite_hits(), 7);
        assert_eq!(stats.workflows(), 1);
    }

    #[test]
    fn correction_appends_a_sound_version() {
        let store = WorkflowStore::new(2);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        let corrected = store.correct(id, Strategy::Strong).unwrap();
        assert_eq!(corrected.version, 1);
        assert_eq!(corrected.composites_before, 7);
        assert_eq!(corrected.composites_after, 8);
        // the current view is now the corrected one and validates sound...
        let verdict = store.validate(id, None).unwrap();
        assert!(verdict.sound);
        assert_eq!(verdict.version, 1);
        // ...while the original version is still queryable and unsound
        let original = store.validate(id, Some(0)).unwrap();
        assert!(!original.sound);
        // correcting a sound view is a no-op that keeps the version
        let again = store.correct(id, Strategy::Strong).unwrap();
        assert_eq!(again.version, 1);
        assert_eq!(again.composites_before, again.composites_after);
    }

    #[test]
    fn provenance_is_exact_through_the_corrected_view() {
        let store = WorkflowStore::new(2);
        let fixture = figure1();
        let id = store.register(fixture.spec.clone(), Some(fixture.view));
        store.correct(id, Strategy::Strong).unwrap();
        let names = store.provenance(id, "Format alignment").unwrap();
        assert!(names.contains(&"Create alignment".to_owned()));
        assert!(names.contains(&"Extract sequences".to_owned()));
        assert!(!names.contains(&"Curate annotations".to_owned()));
        assert!(matches!(
            store.provenance(id, "No such task"),
            Err(ServiceError::UnknownTask(_))
        ));
    }

    #[test]
    fn repeated_provenance_queries_reuse_the_cached_index() {
        let store = WorkflowStore::new(2);
        let fixture = figure1();
        let id = store.register(fixture.spec.clone(), Some(fixture.view.clone()));
        let first = store.provenance(id, "Format alignment").unwrap();
        // second query (different subject) rides the already-built index
        let other = store.provenance(id, "Display tree").unwrap();
        assert!(other.len() > first.len());
        // answers are stable across repeated queries
        assert_eq!(store.provenance(id, "Format alignment").unwrap(), first);
        // the cached answers agree with a fresh traversal
        let task = fixture.spec.task_by_name("Format alignment").unwrap();
        let walked = wolves_provenance::view_level_provenance(&fixture.spec, &fixture.view, task);
        let walked_names: Vec<String> = walked
            .tasks
            .iter()
            .filter_map(|&t| fixture.spec.task(t).ok().map(|task| task.name.clone()))
            .collect();
        assert_eq!(first, walked_names);
    }

    #[test]
    fn text_registration_and_errors() {
        let store = WorkflowStore::new(3);
        let fixture = figure1();
        let payload = write_text_format(&fixture.spec, Some(&fixture.view));
        let id = store.register_text(&payload).unwrap();
        assert!(!store.validate(id, None).unwrap().sound);
        assert!(matches!(
            store.register_text("garbage\tline"),
            Err(ServiceError::Parse(_))
        ));
        assert!(matches!(
            store.validate(WorkflowId(999), None),
            Err(ServiceError::UnknownWorkflow(_))
        ));
        assert!(matches!(
            store.validate(id, Some(5)),
            Err(ServiceError::UnknownView(_, 5))
        ));
        let bare = store.register(figure1().spec, None);
        assert!(matches!(
            store.validate(bare, None),
            Err(ServiceError::NoView(_))
        ));
    }

    #[test]
    fn ids_spread_over_shards() {
        let store = WorkflowStore::new(4);
        for _ in 0..32 {
            let fixture = figure1();
            store.register(fixture.spec, Some(fixture.view));
        }
        let stats = store.stats();
        assert_eq!(stats.workflows(), 32);
        let populated = stats.shards.iter().filter(|s| s.workflows > 0).count();
        assert!(populated >= 2, "expected ≥2 shards in use, got {populated}");
    }

    #[test]
    fn mutate_preserves_unaffected_cached_verdicts() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        let first = store.validate(id, None).unwrap();
        assert!(!first.sound);
        let stats = store.stats();
        assert_eq!(stats.composite_misses(), 7);
        assert_eq!(stats.composite_hits(), 0);

        // an intra-composite edge whose endpoints were already connected:
        // the reachability closure is untouched (monotone-safe, empty dirty
        // set), so only the endpoint composite is invalidated — its boundary
        // could have moved
        let outcome = store
            .mutate(
                id,
                add_edge("Check additional annotations", "Build phylo tree"),
            )
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.class, "monotone-safe");
        assert_eq!(outcome.invalidated, 1);
        assert_eq!(outcome.retained, 6);

        let second = store.validate(id, None).unwrap();
        assert!(!second.sound);
        assert!(!second.cached);
        let stats = store.stats();
        assert_eq!(
            stats.composite_misses(),
            8,
            "only 'Build Phylo Tree (19)' recomputed"
        );
        assert_eq!(
            stats.composite_hits(),
            6,
            "six cached verdicts survived the edit"
        );
    }

    #[test]
    fn mutate_add_edge_dirties_ancestor_composites_only() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        store.validate(id, None).unwrap();
        // Curate annotations -> Create alignment extends the closure of the
        // ancestors whose rows actually change: 'Annotations (14)' (task 3)
        // and the endpoint composite 16. Tasks 1 and 2 already reached
        // Create alignment through the sequences branch, so 13 — and 15,
        // 17, 18, 19 — survive untouched.
        let outcome = store
            .mutate(id, add_edge("Curate annotations", "Create alignment"))
            .unwrap();
        assert_eq!(outcome.class, "monotone-safe");
        assert_eq!(outcome.invalidated, 2);
        assert_eq!(outcome.retained, 5);
        let verdict = store.validate(id, None).unwrap();
        // 16 is still unsound: Create alignment (also an input) cannot reach
        // Curate annotations (also an output)
        assert_eq!(verdict.unsound, vec!["Curate & align (16)".to_owned()]);
        let stats = store.stats();
        assert_eq!(stats.composite_misses(), 7 + 2);
        assert_eq!(stats.composite_hits(), 5);
    }

    #[test]
    fn mutate_split_repairs_and_merge_edits_in_place() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        assert!(!store.validate(id, None).unwrap().sound);
        // the user's own correction loop: split the unsound composite
        let outcome = store
            .mutate(
                id,
                MutateOp::Split {
                    composite: "Curate & align (16)".to_owned(),
                    parts: vec![
                        vec!["Curate annotations".to_owned()],
                        vec!["Create alignment".to_owned()],
                    ],
                },
            )
            .unwrap();
        assert_eq!(outcome.class, "view-edit");
        assert_eq!(outcome.invalidated, 1, "only the split composite dropped");
        assert_eq!(outcome.retained, 6);
        let verdict = store.validate(id, None).unwrap();
        assert!(verdict.sound);
        let stats = store.stats();
        // the two split parts computed fresh; the other six served cached
        assert_eq!(stats.composite_misses(), 7 + 2);
        assert_eq!(stats.composite_hits(), 6);

        // merge two sound composites back together
        let outcome = store
            .mutate(
                id,
                MutateOp::Merge {
                    name: "Front end".to_owned(),
                    composites: vec![
                        "Retrieve entries (13)".to_owned(),
                        "Annotations (14)".to_owned(),
                    ],
                },
            )
            .unwrap();
        assert_eq!(outcome.class, "view-edit");
        assert_eq!(outcome.invalidated, 2);
        assert!(store.validate(id, None).unwrap().sound);

        // error paths
        assert!(matches!(
            store.mutate(
                id,
                MutateOp::Merge {
                    name: "x".to_owned(),
                    composites: vec!["No such composite".to_owned()],
                }
            ),
            Err(ServiceError::UnknownCompositeName(_))
        ));
        assert!(matches!(
            store.mutate(id, add_edge("nope", "Display tree")),
            Err(ServiceError::UnknownTask(_))
        ));
        assert!(matches!(
            store.mutate(WorkflowId(999), add_edge("a", "b")),
            Err(ServiceError::UnknownWorkflow(_))
        ));
    }

    #[test]
    fn mutate_task_ops_rebase_the_version_history() {
        let store = WorkflowStore::new(2);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        store.correct(id, Strategy::Strong).unwrap();
        let outcome = store
            .mutate(
                id,
                MutateOp::AddTask {
                    name: "Archive results".to_owned(),
                },
            )
            .unwrap();
        assert_eq!(outcome.class, "monotone-safe");
        assert_eq!(outcome.version, 0, "history rebased to the mutated view");
        assert!(matches!(
            store.validate(id, Some(1)),
            Err(ServiceError::UnknownView(_, 1))
        ));
        // the new task joins the view as a singleton and is fully served
        store
            .mutate(id, add_edge("Display tree", "Archive results"))
            .unwrap();
        assert!(store.validate(id, None).unwrap().sound);
        let names = store.provenance(id, "Archive results").unwrap();
        assert!(names.contains(&"Display tree".to_owned()));
        // duplicate task names are rejected by the model layer
        assert!(matches!(
            store.mutate(
                id,
                MutateOp::AddTask {
                    name: "Archive results".to_owned(),
                }
            ),
            Err(ServiceError::Mutation(_))
        ));
        // removing the task again runs the decremental maintenance (the
        // matrix is warm from the validate) and drops it from the view
        let outcome = store
            .mutate(
                id,
                MutateOp::RemoveTask {
                    name: "Archive results".to_owned(),
                },
            )
            .unwrap();
        assert_eq!(outcome.class, "decremental");
        assert!(store.validate(id, None).unwrap().sound);
        assert!(matches!(
            store.provenance(id, "Archive results"),
            Err(ServiceError::UnknownTask(_))
        ));
    }

    #[test]
    fn removing_an_isolated_task_drops_at_most_its_own_verdict() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        let add = MutateOp::AddTask {
            name: "Archive results".to_owned(),
        };
        store.mutate(id, add).unwrap();
        let warm = store.validate(id, None).unwrap();
        let outcome = store
            .mutate(
                id,
                MutateOp::RemoveTask {
                    name: "Archive results".to_owned(),
                },
            )
            .unwrap();
        assert!(outcome.invalidated <= 1, "{outcome:?}");
        assert!(outcome.retained > 0, "{outcome:?}");
        let after = store.validate(id, None).unwrap();
        assert!(after.cached, "every surviving verdict was retained");
        assert_eq!(after.unsound, warm.unsound);
    }

    #[test]
    fn removing_an_isolated_task_from_the_lattice_drops_only_its_own_verdict() {
        use wolves_repo::{layered_workflow, topological_block_view, LayeredConfig};
        let spec = layered_workflow(&LayeredConfig::sized(2000), 14);
        let view = topological_block_view(&spec, 48, "blocks").unwrap();
        let composites = view.composite_count();
        let store = WorkflowStore::new(1);
        let id = store.register(spec, Some(view));
        let probe = || "probe".to_owned();
        store
            .mutate(id, MutateOp::AddTask { name: probe() })
            .unwrap();
        let warm = store.validate(id, None).unwrap();
        // the task's row is the only dirty one, and a dead slot: no other
        // composite has a member there, so every other verdict is retained
        let outcome = store
            .mutate(id, MutateOp::RemoveTask { name: probe() })
            .unwrap();
        assert_eq!(outcome.class, "decremental");
        assert_eq!((outcome.invalidated, outcome.retained), (1, composites));
        let after = store.validate(id, None).unwrap();
        assert!(after.cached, "every surviving verdict was retained");
        assert_eq!(after.unsound, warm.unsound);
        // the freed row is the one the next task takes
        store
            .mutate(id, MutateOp::AddTask { name: probe() })
            .unwrap();
        let outcome = store
            .mutate(id, MutateOp::RemoveTask { name: probe() })
            .unwrap();
        assert_eq!((outcome.invalidated, outcome.retained), (0, composites));
    }

    #[test]
    fn removing_a_connected_task_validates_like_a_fresh_check() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        store.validate(id, None).unwrap();
        let outcome = store
            .mutate(
                id,
                MutateOp::RemoveTask {
                    name: "Split entries".to_owned(),
                },
            )
            .unwrap();
        assert!(outcome.retained > 0, "{outcome:?}");
        let imported = read_text_format(&store.export(id).unwrap()).unwrap();
        let view = imported.view.expect("export carries the view");
        let expected = wolves_core::validate(&imported.spec, &view);
        let served = store.validate(id, None).unwrap();
        assert_eq!(served.sound, expected.is_sound());
        let unsound: Vec<String> = expected
            .reports()
            .iter()
            .filter(|report| !report.verdict.is_sound())
            .map(|report| report.name.clone())
            .collect();
        assert_eq!(served.unsound, unsound);
    }

    #[test]
    fn mutate_remove_edge_is_decremental_and_observed_by_validation() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        store.correct(id, Strategy::Strong).unwrap();
        assert!(store.validate(id, None).unwrap().sound);
        // removing Split entries -> Extract sequences severs the path that
        // kept 'Retrieve entries (13)' sound towards the sequences branch;
        // the warm matrix absorbs it in place and survivors keep their
        // cached verdicts
        let outcome = store
            .mutate(
                id,
                MutateOp::RemoveEdge {
                    from: "Split entries".to_owned(),
                    to: "Extract sequences".to_owned(),
                },
            )
            .unwrap();
        assert_eq!(outcome.class, "decremental");
        assert!(
            outcome.retained > 0,
            "decremental deltas keep untouched composites cached \
             (retained {} / invalidated {})",
            outcome.retained,
            outcome.invalidated
        );
        // removing a dependency that does not exist is a model-layer error
        assert!(matches!(
            store.mutate(
                id,
                MutateOp::RemoveEdge {
                    from: "Split entries".to_owned(),
                    to: "Extract sequences".to_owned(),
                }
            ),
            Err(ServiceError::Mutation(_))
        ));
    }

    #[test]
    fn mutate_remove_edge_keeps_survivor_composite_verdicts_cached() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        store.validate(id, None).unwrap();
        let stats = store.stats();
        assert_eq!(stats.composite_misses(), 7);
        assert_eq!(stats.composite_hits(), 0);

        // add a redundant intra-composite edge, re-validate, then take the
        // edge right back out: the endpoints stay connected through the
        // original path, so the removal rides the decremental fast path
        // with an empty dirty set and only the endpoint composite drops
        store
            .mutate(
                id,
                add_edge("Check additional annotations", "Build phylo tree"),
            )
            .unwrap();
        store.validate(id, None).unwrap();
        let outcome = store
            .mutate(
                id,
                MutateOp::RemoveEdge {
                    from: "Check additional annotations".to_owned(),
                    to: "Build phylo tree".to_owned(),
                },
            )
            .unwrap();
        assert_eq!(outcome.class, "decremental");
        assert_eq!(outcome.invalidated, 1, "only the endpoint composite drops");
        assert_eq!(outcome.retained, 6);

        let verdict = store.validate(id, None).unwrap();
        assert!(!verdict.sound, "figure 1 stays unsound either way");
        let stats = store.stats();
        assert_eq!(
            stats.composite_misses(),
            7 + 1 + 1,
            "only 'Build Phylo Tree (19)' recomputed after each edit"
        );
        assert_eq!(
            stats.composite_hits(),
            6 + 6,
            "six cached verdicts survived each edit"
        );
    }

    #[test]
    fn metrics_count_mutation_classes_and_removals_stay_nonstructural() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        store.validate(id, None).unwrap();
        // an add/remove edit script: with a warm matrix every removal rides
        // the decremental path, so the structural counter never moves
        store
            .mutate(
                id,
                add_edge("Check additional annotations", "Build phylo tree"),
            )
            .unwrap();
        store
            .mutate(
                id,
                MutateOp::RemoveEdge {
                    from: "Check additional annotations".to_owned(),
                    to: "Build phylo tree".to_owned(),
                },
            )
            .unwrap();
        store
            .mutate(
                id,
                MutateOp::AddTask {
                    name: "Archive results".to_owned(),
                },
            )
            .unwrap();
        store
            .mutate(
                id,
                MutateOp::RemoveTask {
                    name: "Archive results".to_owned(),
                },
            )
            .unwrap();
        store
            .mutate(
                id,
                MutateOp::Merge {
                    name: "Front end".to_owned(),
                    composites: vec![
                        "Retrieve entries (13)".to_owned(),
                        "Annotations (14)".to_owned(),
                    ],
                },
            )
            .unwrap();
        let text = store.metrics_text();
        assert!(
            text.contains("wolves_mutations_total{class=\"monotone-safe\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("wolves_mutations_total{class=\"decremental\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("wolves_mutations_total{class=\"view-edit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("wolves_mutations_total{class=\"structural\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn provenance_cache_survives_internal_edges_and_tracks_cross_edges() {
        let store = WorkflowStore::new(1);
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        let before = store.provenance(id, "Create alignment").unwrap();
        assert!(!before.contains(&"Check additional annotations".to_owned()));

        // internal edge (both endpoints in 'Build Phylo Tree (19)', already
        // connected): the induced view graph is unchanged, the cached index
        // survives and the answers stay put
        store
            .mutate(id, add_edge("Check additional annotations", "Display tree"))
            .unwrap();
        assert_eq!(store.provenance(id, "Create alignment").unwrap(), before);

        // a cross-composite edge 19 -> 15 rewires the induced graph: the
        // index is rebuilt and the provenance answer gains 19's tasks
        store
            .mutate(
                id,
                add_edge("Process additional annotations", "Extract sequences"),
            )
            .unwrap();
        let after = store.provenance(id, "Create alignment").unwrap();
        assert!(after.contains(&"Check additional annotations".to_owned()));
    }

    /// Provenance index builds and hits summed over the shards.
    fn index_counts(store: &WorkflowStore) -> (u64, u64) {
        store.counters().fold((0, 0), |(builds, hits), c| {
            (
                builds + c.provenance_index_builds,
                hits + c.provenance_index_hits,
            )
        })
    }

    #[test]
    fn provenance_index_builds_only_on_view_edits() {
        let store = WorkflowStore::new(2);
        // a1 -> b and a2 -> b both link composite A to B
        let id = store
            .register_text(
                "workflow\tw\ntask\ta1\ntask\ta2\ntask\tb\n\
                 edge\ta1\tb\nedge\ta2\tb\n\
                 view\tv\ncomposite\tA\ta1|a2\ncomposite\tB\tb\n",
            )
            .unwrap();
        let index_counts = || index_counts(&store);
        let names = |v: &[&str]| v.iter().map(|&n| n.to_owned()).collect::<Vec<_>>();
        assert_eq!(store.provenance(id, "b").unwrap(), names(&["a1", "a2"]));
        assert_eq!(index_counts(), (1, 0));

        // the parallel link keeps A -> B in the induced graph either way
        let remove = MutateOp::RemoveEdge {
            from: "a1".to_owned(),
            to: "b".to_owned(),
        };
        store.mutate(id, remove).unwrap();
        assert_eq!(store.provenance(id, "b").unwrap(), names(&["a1", "a2"]));
        store.mutate(id, add_edge("a1", "b")).unwrap();
        assert_eq!(store.provenance(id, "b").unwrap(), names(&["a1", "a2"]));
        assert_eq!(index_counts(), (1, 2), "edge edits kept the index");

        // a new task is a new composite, linked in by a new edge; removing
        // a member of A and then the task itself unlinks them again: the
        // index absorbs each edit, so every query is a hit
        let add_task = |name: &str| MutateOp::AddTask {
            name: name.to_owned(),
        };
        let remove_task = |name: &str| MutateOp::RemoveTask {
            name: name.to_owned(),
        };
        store.mutate(id, add_task("c")).unwrap();
        assert_eq!(store.provenance(id, "b").unwrap(), names(&["a1", "a2"]));
        assert_eq!(store.provenance(id, "c").unwrap(), Vec::<String>::new());
        store.mutate(id, add_edge("b", "c")).unwrap();
        assert_eq!(
            store.provenance(id, "c").unwrap(),
            names(&["a1", "a2", "b"])
        );
        store.mutate(id, remove_task("a1")).unwrap();
        assert_eq!(store.provenance(id, "c").unwrap(), names(&["a2", "b"]));
        store.mutate(id, remove_task("b")).unwrap();
        assert_eq!(store.provenance(id, "c").unwrap(), Vec::<String>::new());
        assert_eq!(index_counts(), (1, 7), "spec edits carried the index");

        // a merge is a view edit: one rebuild
        let merge = MutateOp::Merge {
            name: "AC".to_owned(),
            composites: vec!["A".to_owned(), "c".to_owned()],
        };
        store.mutate(id, merge).unwrap();
        assert_eq!(store.provenance(id, "c").unwrap(), names(&["a2"]));
        assert_eq!(index_counts(), (2, 7));

        let exposition = store.metrics_text();
        assert!(exposition.contains("wolves_provenance_index_builds_total 2\n"));
        assert!(exposition.contains("wolves_provenance_index_hits_total 7\n"));
    }

    #[test]
    fn a_script_of_spec_edits_builds_the_provenance_index_once() {
        use wolves_repo::{layered_workflow, topological_block_view, LayeredConfig};
        let spec = layered_workflow(&LayeredConfig::sized(600), 5);
        let view = topological_block_view(&spec, 16, "blocks").unwrap();
        let names: Vec<String> = spec.tasks().map(|(_, t)| t.name.clone()).collect();
        let edges: Vec<(String, String)> = spec
            .dependencies()
            .map(|(f, t)| {
                let name = |t: TaskId| spec.task(t).unwrap().name.clone();
                (name(f), name(t))
            })
            .collect();
        let store = WorkflowStore::new(2);
        let id = store.register(spec, Some(view));
        store.provenance(id, &names[names.len() - 1]).unwrap();
        // 64 edits in blocks of eight, like an editing session: an edge
        // removed and re-added three times, then a task added, wired in and
        // removed again (its composite emptied)
        let mut edits = 0;
        for block in 0..8 {
            for pair in 0..3 {
                let (from, to) = &edges[(block * 37 + pair * 11) % edges.len()];
                let remove = MutateOp::RemoveEdge {
                    from: from.clone(),
                    to: to.clone(),
                };
                store.mutate(id, remove).unwrap();
                store.mutate(id, add_edge(from, to)).unwrap();
            }
            let task = format!("late {block}");
            store
                .mutate(id, MutateOp::AddTask { name: task.clone() })
                .unwrap();
            store
                .mutate(id, add_edge(&names[block * 50], &task))
                .unwrap();
            edits += 8;
            assert_served_provenance_is_exact(&store, id, &[task.clone(), names[block].clone()]);
            store
                .mutate(id, MutateOp::RemoveTask { name: task })
                .unwrap();
        }
        assert_eq!(edits, 64);
        assert_served_provenance_is_exact(&store, id, &names[..40]);
        assert!(store
            .metrics_text()
            .contains("wolves_provenance_index_builds_total 1\n"));
    }

    /// The provenance index cached for the workflow's current epoch, if any.
    fn cached_index(store: &WorkflowStore, id: WorkflowId) -> Option<Arc<ViewProvenanceIndex>> {
        let (_, stored, _, epoch) = store.snapshot(id, None).unwrap();
        let slot = stored.provenance.read();
        slot.as_ref()
            .filter(|(cached, _)| *cached == epoch)
            .map(|(_, index)| Arc::clone(index))
    }

    /// Every subject's served answer equals the from-scratch traversal on
    /// the spec and view parsed back from `export`.
    fn assert_served_provenance_is_exact(
        store: &WorkflowStore,
        id: WorkflowId,
        subjects: &[String],
    ) {
        let imported = read_text_format(&store.export(id).unwrap()).unwrap();
        let view = imported.view.expect("export carries the current view");
        for subject in subjects {
            let Some(task) = imported.spec.task_by_name(subject) else {
                continue;
            };
            let expected: Vec<String> =
                wolves_provenance::view_level_provenance(&imported.spec, &view, task)
                    .tasks
                    .into_iter()
                    .map(|t| imported.spec.task(t).unwrap().name.clone())
                    .collect();
            assert_eq!(
                store.provenance(id, subject).unwrap(),
                expected,
                "{subject}"
            );
        }
    }

    #[test]
    fn served_provenance_stays_exact_through_an_edit_script() {
        use wolves_repo::{layered_workflow, topological_block_view, LayeredConfig};
        let spec = layered_workflow(&LayeredConfig::sized(2000), 14);
        let view = topological_block_view(&spec, 48, "blocks").unwrap();
        let name = |t: TaskId| spec.task(t).unwrap().name.clone();
        let subjects: Vec<String> = spec
            .task_ids()
            .step_by(spec.task_count() / 16)
            .take(16)
            .map(name)
            .collect();
        let (inner, parallel, sole) = {
            let pair = |(a, b): (TaskId, TaskId)| (view.composite_of(a), view.composite_of(b));
            let same = |&d: &(TaskId, TaskId)| pair(d).0 == pair(d).1;
            // how many dependencies join an ordered composite pair
            let links = |d: (TaskId, TaskId)| {
                spec.dependencies()
                    .filter(|&other| pair(other) == pair(d))
                    .count()
            };
            let inner = spec.dependencies().find(same).unwrap();
            let parallel = spec
                .dependencies()
                .find(|&d| !same(&d) && links(d) > 1)
                .unwrap();
            // a new edge from the first subject to the last joins two
            // composites no dependency joins yet: it is their only link
            let ids: Vec<TaskId> = spec.task_ids().step_by(spec.task_count() / 16).collect();
            let sole = (ids[0], ids[15]);
            assert_eq!(links(sole), 0);
            (
                (name(inner.0), name(inner.1)),
                (name(parallel.0), name(parallel.1)),
                (name(sole.0), name(sole.1)),
            )
        };
        // disjoint targets: a task of composite 0 is removed, composites 3
        // and 4 are merged, composite 6 is split in halves
        let composites: Vec<&CompositeTask> = view.composites().map(|(_, c)| c).collect();
        let doomed = composites[0]
            .members()
            .iter()
            .map(|&t| name(t))
            .find(|t| !subjects.contains(t))
            .unwrap();
        let merged = vec![composites[3].name.clone(), composites[4].name.clone()];
        let split: Vec<String> = composites[6].members().iter().map(|&t| name(t)).collect();
        let split_name = composites[6].name.clone();
        let store = WorkflowStore::new(2);
        let id = store.register(spec.clone(), Some(view.clone()));
        assert_served_provenance_is_exact(&store, id, &subjects);

        let remove = |(from, to): &(String, String)| MutateOp::RemoveEdge {
            from: from.clone(),
            to: to.clone(),
        };
        let re_add = |(from, to): &(String, String)| add_edge(from, to);
        // an edge inside one composite, or one of several joining the same
        // two composites, leaves the induced graph alone: the cached index
        // survives the removal and the re-add
        for op in [
            remove(&inner),
            re_add(&inner),
            remove(&parallel),
            re_add(&parallel),
        ] {
            let before = cached_index(&store, id).unwrap();
            store.mutate(id, op).unwrap();
            assert!(Arc::ptr_eq(&before, &cached_index(&store, id).unwrap()));
            assert_served_provenance_is_exact(&store, id, &subjects);
        }
        let (half_a, half_b) = split.split_at(split.len() / 2);
        // task and dependency edits, most of which change the induced
        // graph: the index is carried to the new epoch, never rebuilt
        let (builds, _) = index_counts(&store);
        let spec_edits = [
            // the only link between two composites comes and goes
            re_add(&sole),
            remove(&sole),
            MutateOp::AddTask {
                name: "late arrival".to_owned(),
            },
            add_edge(&subjects[3], "late arrival"),
            MutateOp::RemoveTask { name: doomed },
            MutateOp::RemoveTask {
                name: "late arrival".to_owned(),
            },
        ];
        for op in spec_edits {
            store.mutate(id, op).unwrap();
            assert!(cached_index(&store, id).is_some(), "the index is carried");
            assert_served_provenance_is_exact(&store, id, &subjects);
        }
        assert_eq!(index_counts(&store).0, builds);
        // view edits drop it for the next query to rebuild
        let view_edits = [
            MutateOp::Split {
                composite: split_name,
                parts: vec![half_a.to_vec(), half_b.to_vec()],
            },
            MutateOp::Merge {
                name: "merged".to_owned(),
                composites: merged,
            },
        ];
        for op in view_edits {
            assert!(cached_index(&store, id).is_some());
            store.mutate(id, op).unwrap();
            assert!(cached_index(&store, id).is_none());
            assert_served_provenance_is_exact(&store, id, &subjects);
        }
    }

    #[test]
    fn task_names_the_text_format_cannot_carry_back_are_refused_on_both_paths() {
        let store = WorkflowStore::new(1);
        // register: the reader refuses the line that declares the name
        for (payload, line) in [("task\ta|b\n", 1), ("task\tok\ntask\t padded \tx\n", 2)] {
            let err = store.register_text(payload).unwrap_err();
            let at = format!("line {line}");
            assert!(
                matches!(&err, ServiceError::Parse(m) if m.contains(&at) && m.contains("task name")),
                "{err}"
            );
        }
        // add-task, parsed as the wire parses `mutate add-task`: refused
        // with nothing applied
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));
        let before = store.export(id).unwrap();
        for name in ["a|b", " padded ", "trail ", "\u{a0}lead"] {
            let op = MutateOp::from_fields(&["add-task", name], 0).unwrap();
            let err = store.mutate(id, op).unwrap_err();
            assert!(
                matches!(&err, ServiceError::Mutation(m) if m.contains("task name")),
                "{err}"
            );
        }
        assert_eq!(store.cursor(id).unwrap(), (0, 0));
        assert_eq!(store.export(id).unwrap(), before);
    }

    mod export_round_trip {
        use super::*;
        use proptest::prelude::*;

        /// Names an edit script draws from: spaced, multi-byte and bar-
        /// holding ones (composite names may hold a bar), and names the
        /// text format cannot carry back: task names with a bar or
        /// surrounding whitespace, and any name with a TAB or a newline.
        const NAMES: [&str; 10] = [
            "fresh step",
            "\u{e9}tape \u{1d11e}",
            "left|right",
            " padded ",
            "trail ",
            "\u{3000}wide",
            "x",
            "Display tree",
            "tab\there",
            "line\nbreak",
        ];

        /// Registers `id`'s export as a new workflow and checks that it
        /// exports the same text. The one export that does not register
        /// is a cyclic workflow's: the store takes an edge that closes a
        /// cycle, and the reader refuses a cyclic spec.
        fn check_export_registers_back(store: &WorkflowStore, id: WorkflowId) {
            let text = store.export(id).unwrap();
            let cyclic = store
                .snapshot(id, None)
                .unwrap()
                .0
                .ensure_acyclic()
                .is_err();
            match store.register_text(&text) {
                Ok(again) => {
                    assert!(!cyclic, "a cyclic spec registered");
                    assert_eq!(store.export(again).unwrap(), text);
                }
                Err(e) => assert!(
                    cyclic && matches!(&e, ServiceError::Parse(m) if m.contains("cycle")),
                    "{e}"
                ),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// After every edit the store accepts (task and edge adds and
            /// removals, cycle-closing edges included, splits, merges,
            /// corrections), its `export` registers again and exports the
            /// same text, unless the workflow is cyclic; a name the text
            /// format cannot carry back is refused as a `Mutation`.
            #[test]
            fn prop_an_accepted_edit_leaves_an_export_that_registers_back_unless_cyclic(
                script in proptest::collection::vec((0usize..7, 0usize..64, 0usize..64), 1..24)
            ) {
                let store = WorkflowStore::new(1);
                let fixture = figure1();
                let id = store.register(fixture.spec, Some(fixture.view));
                check_export_registers_back(&store, id);
                for (kind, a, b) in script {
                    let (spec, stored, ..) = store.snapshot(id, None).unwrap();
                    let name_of = |t: TaskId| spec.task(t).unwrap().name.clone();
                    let tasks: Vec<String> = spec.tasks().map(|(_, t)| t.name.clone()).collect();
                    let edges: Vec<(TaskId, TaskId)> = spec.dependencies().collect();
                    let composites: Vec<(String, Vec<String>)> = stored
                        .view
                        .composites()
                        .map(|(_, c)| (c.name.clone(), c.members().iter().map(|&m| name_of(m)).collect()))
                        .collect();
                    let task = |i: usize| tasks.get(i % tasks.len().max(1)).cloned().unwrap_or_default();
                    let composite = |i: usize| &composites[i % composites.len()];
                    let op = match kind {
                        0 => MutateOp::AddTask {
                            name: if a % 2 == 0 { NAMES[b % NAMES.len()].to_owned() } else { format!("step {b}") },
                        },
                        1 => MutateOp::RemoveTask { name: task(a) },
                        2 if !tasks.is_empty() => MutateOp::AddEdge { from: task(a), to: task(b) },
                        3 if !edges.is_empty() => {
                            let (from, to) = edges[a % edges.len()];
                            MutateOp::RemoveEdge { from: name_of(from), to: name_of(to) }
                        }
                        4 if composites.len() > 1 => MutateOp::Merge {
                            name: NAMES[b % NAMES.len()].to_owned(),
                            composites: vec![composite(a).0.clone(), composite(a + 1).0.clone()],
                        },
                        5 if !composites.is_empty() && composite(a).1.len() > 1 => {
                            let (name, members) = composite(a);
                            let cut = 1 + b % (members.len() - 1);
                            MutateOp::Split {
                                composite: name.clone(),
                                parts: vec![members[..cut].to_vec(), members[cut..].to_vec()],
                            }
                        }
                        6 => {
                            use wolves_core::correct::Strategy as S;
                            let strategy = [S::Weak, S::Strong, S::Optimal][b % 3];
                            if store.correct(id, strategy).is_ok() {
                                check_export_registers_back(&store, id);
                            }
                            continue;
                        }
                        _ => continue,
                    };
                    let refused = match &op {
                        MutateOp::AddTask { name } => check_task_name(name).is_err(),
                        MutateOp::Merge { name, .. } => check_composite_name(name).is_err(),
                        _ => false,
                    };
                    match store.mutate(id, op) {
                        Ok(_) => {
                            prop_assert!(!refused, "a name the text format cannot carry was taken");
                            check_export_registers_back(&store, id);
                        }
                        Err(e) => prop_assert!(!refused || matches!(e, ServiceError::Mutation(_)), "{e}"),
                    }
                }
            }
        }
    }
}
