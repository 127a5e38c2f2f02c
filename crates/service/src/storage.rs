//! The storage backend abstraction of the serving layer.
//!
//! [`crate::store::WorkflowStore`] talks to durable storage exclusively
//! through the [`StorageBackend`] trait:
//!
//! * [`MemoryBackend`] — the zero-cost default: every call is a no-op, the
//!   store behaves exactly as the purely in-memory store always has.
//! * [`crate::wal::FileBackend`] — a per-shard **snapshot + write-ahead
//!   log**: every registration, mutation and correction is appended as one
//!   framed [`WalRecord`] before the request is acknowledged; when a shard's
//!   log grows past the segment threshold the store writes a full
//!   [`SnapshotEntry`] dump of the shard and the log restarts empty
//!   (compaction by rotation).
//!
//! Recovery replays a [`ShardJournal`] — the newest complete snapshot plus
//! the records of the active log segment — through the exact same
//! `WorkflowSpec::apply` / view-edit paths live requests use, so a recovered
//! store serves bit-identical answers (same epochs, same composite-id and
//! task-id assignment, same cache keying) as the store that crashed.
//!
//! All on-disk formats are line-based: payload lines come from
//! `wolves_workflow::persist` (slot-exact spec/view serialisation) and
//! `crate::proto` (mutation ops), framed with explicit line counts and an
//! FNV-1a checksum so a torn tail is distinguishable from mid-log
//! corruption.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wolves_workflow::persist::{delta_from_line, delta_to_line};
use wolves_workflow::SpecDelta;

use crate::error::ServiceError;
use crate::proto::{MutateOp, Request};
use crate::store::WorkflowId;

/// FNV-1a 64-bit hash of a string — the checksum of WAL records and
/// snapshot files (no external dependency, stable across platforms).
#[must_use]
pub fn fnv64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(message: impl Into<String>) -> ServiceError {
    ServiceError::Recovery(message.into())
}

/// One workflow's full durable state: what a snapshot stores per entry and
/// what a `register` WAL record carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The workflow id (preserved across restarts).
    pub id: u64,
    /// The store-level mutation epoch of the entry.
    pub epoch: u64,
    /// Index of the current view version.
    pub current: usize,
    /// Change-sequence number (mutations and corrections); watch streams
    /// resume gap-free from it after recovery.
    pub seq: u64,
    /// Slot-exact spec serialisation (`wolves_workflow::persist`).
    pub spec_lines: Vec<String>,
    /// Slot-exact serialisation of every retained view version, in version
    /// order.
    pub views: Vec<Vec<String>>,
}

impl SnapshotEntry {
    /// Flattens the entry into framed lines (`entry` header, spec lines,
    /// one `view-block` header per view).
    #[must_use]
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(1 + self.spec_lines.len());
        lines.push(format!(
            "entry\t{}\t{}\t{}\t{}\t{}\t{}",
            self.id,
            self.epoch,
            self.current,
            self.seq,
            self.spec_lines.len(),
            self.views.len()
        ));
        lines.extend(self.spec_lines.iter().cloned());
        for view in &self.views {
            lines.push(format!("view-block\t{}", view.len()));
            lines.extend(view.iter().cloned());
        }
        lines
    }

    /// Parses one entry starting at `lines[*pos]`, advancing the cursor.
    ///
    /// # Errors
    /// Reports malformed headers and truncated blocks.
    pub fn from_lines(lines: &[String], pos: &mut usize) -> Result<Self, ServiceError> {
        let header = lines
            .get(*pos)
            .ok_or_else(|| corrupt("missing entry header"))?;
        let fields: Vec<&str> = header.split('\t').collect();
        if fields.first() != Some(&"entry") || fields.len() != 7 {
            return Err(corrupt(format!("malformed entry header '{header}'")));
        }
        let number = |index: usize, what: &str| -> Result<u64, ServiceError> {
            fields[index]
                .parse::<u64>()
                .map_err(|_| corrupt(format!("invalid {what} '{}'", fields[index])))
        };
        let id = number(1, "workflow id")?;
        let epoch = number(2, "epoch")?;
        let current = number(3, "current version")? as usize;
        let seq = number(4, "sequence number")?;
        let spec_count = number(5, "spec line count")? as usize;
        let view_count = number(6, "view count")? as usize;
        *pos += 1;
        let take = |pos: &mut usize, count: usize| -> Result<Vec<String>, ServiceError> {
            let slice = pos
                .checked_add(count)
                .and_then(|end| lines.get(*pos..end))
                .ok_or_else(|| corrupt("entry block truncated"))?;
            *pos += count;
            Ok(slice.to_vec())
        };
        let spec_lines = take(pos, spec_count)?;
        // header counts are untrusted: every view takes at least one line
        let mut views = Vec::with_capacity(view_count.min(lines.len().saturating_sub(*pos)));
        for _ in 0..view_count {
            let header = lines
                .get(*pos)
                .ok_or_else(|| corrupt("missing view-block header"))?;
            let count = header
                .strip_prefix("view-block\t")
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or_else(|| corrupt(format!("malformed view-block header '{header}'")))?;
            *pos += 1;
            views.push(take(pos, count)?);
        }
        Ok(SnapshotEntry {
            id,
            epoch,
            current,
            seq,
            spec_lines,
            views,
        })
    }
}

/// One durable operation appended to a shard's write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A workflow was registered; the payload is its full snapshot entry
    /// (so replay installs exactly the registered state, preserved ids
    /// included).
    Register {
        /// The assigned workflow id.
        id: u64,
        /// The registered state.
        entry: SnapshotEntry,
    },
    /// A mutation was applied. Replay routes the op through the live
    /// `mutate` path and cross-checks the resulting epoch and spec deltas
    /// against the logged ones.
    Mutate {
        /// The mutated workflow.
        id: u64,
        /// The entry's epoch *after* the mutation.
        epoch: u64,
        /// The applied op (serialised through the wire grammar of
        /// [`crate::proto`]).
        op: MutateOp,
        /// The typed spec deltas the op produced: one for a task or
        /// dependency edit, none for a view edit.
        deltas: Vec<SpecDelta>,
    },
    /// A correction appended a new view version and made it current.
    Correct {
        /// The corrected workflow.
        id: u64,
        /// The index the corrected view was appended at.
        version: usize,
        /// Slot-exact serialisation of the corrected view.
        view_lines: Vec<String>,
    },
}

impl WalRecord {
    /// The workflow the record concerns.
    #[must_use]
    pub fn workflow(&self) -> u64 {
        match self {
            WalRecord::Register { id, .. }
            | WalRecord::Mutate { id, .. }
            | WalRecord::Correct { id, .. } => *id,
        }
    }

    /// Serialises the record as a framed block: a `rec` header, the payload
    /// lines, and an `end` line carrying the FNV-1a checksum of everything
    /// before it.
    #[must_use]
    pub fn to_lines(&self) -> Vec<String> {
        let (header, payload) = match self {
            WalRecord::Register { id, entry } => {
                let payload = entry.to_lines();
                (format!("rec\tregister\t{id}\t{}", payload.len()), payload)
            }
            WalRecord::Mutate {
                id,
                epoch,
                op,
                deltas,
            } => {
                let mut payload = Request::Mutate {
                    workflow: WorkflowId(*id),
                    op: op.clone(),
                    // CAS guards are request-time only: the logged record is
                    // the committed outcome, so the WAL format is unchanged
                    expect: None,
                }
                .to_lines();
                payload.extend(deltas.iter().map(delta_to_line));
                (
                    format!("rec\tmutate\t{id}\t{epoch}\t{}", payload.len()),
                    payload,
                )
            }
            WalRecord::Correct {
                id,
                version,
                view_lines,
            } => (
                format!("rec\tcorrect\t{id}\t{version}\t{}", view_lines.len()),
                view_lines.clone(),
            ),
        };
        let mut lines = Vec::with_capacity(payload.len() + 2);
        lines.push(header);
        lines.extend(payload);
        let checksum = fnv64(&lines.join("\n"));
        lines.push(format!("end\t{checksum:016x}"));
        lines
    }

    /// Parses one record starting at `lines[*pos]`, advancing the cursor.
    ///
    /// # Errors
    /// Reports malformed headers, truncated payloads and checksum
    /// mismatches — the caller decides whether a failure at the tail of a
    /// log is a torn write or corruption.
    pub fn from_lines(lines: &[String], pos: &mut usize) -> Result<Self, ServiceError> {
        let start = *pos;
        let header = lines
            .get(start)
            .ok_or_else(|| corrupt("missing record header"))?;
        let fields: Vec<&str> = header.split('\t').collect();
        if fields.first() != Some(&"rec") || fields.len() < 4 {
            return Err(corrupt(format!("malformed record header '{header}'")));
        }
        let count: usize = fields[fields.len() - 1]
            .parse()
            .map_err(|_| corrupt(format!("invalid line count in '{header}'")))?;
        let end_index = count
            .checked_add(start + 1)
            .ok_or_else(|| corrupt("record payload truncated"))?;
        let payload = lines
            .get(start + 1..end_index)
            .ok_or_else(|| corrupt("record payload truncated"))?;
        let end = lines
            .get(end_index)
            .ok_or_else(|| corrupt("record missing its end line"))?;
        let recorded = end
            .strip_prefix("end\t")
            .and_then(|sum| u64::from_str_radix(sum, 16).ok())
            .ok_or_else(|| corrupt(format!("malformed end line '{end}'")))?;
        let framed = lines[start..end_index].join("\n");
        if fnv64(&framed) != recorded {
            return Err(corrupt("record checksum mismatch"));
        }
        let parse_u64 = |field: &str, what: &str| -> Result<u64, ServiceError> {
            field
                .parse::<u64>()
                .map_err(|_| corrupt(format!("invalid {what} '{field}'")))
        };
        let record = match fields[1] {
            "register" => {
                let id = parse_u64(fields[2], "workflow id")?;
                let mut inner = 0usize;
                let entry = SnapshotEntry::from_lines(payload, &mut inner)?;
                if inner != payload.len() || entry.id != id {
                    return Err(corrupt("register record payload inconsistent"));
                }
                WalRecord::Register { id, entry }
            }
            "mutate" => {
                if fields.len() != 5 {
                    return Err(corrupt(format!("malformed mutate header '{header}'")));
                }
                let id = parse_u64(fields[2], "workflow id")?;
                let epoch = parse_u64(fields[3], "epoch")?;
                let op_line = payload
                    .first()
                    .ok_or_else(|| corrupt("mutate record missing its op line"))?;
                let request = Request::from_lines(std::slice::from_ref(op_line))
                    .map_err(|e| corrupt(format!("bad mutate op: {e}")))?;
                let Request::Mutate {
                    workflow,
                    op,
                    expect: _,
                } = request
                else {
                    return Err(corrupt(format!("not a mutate op: '{op_line}'")));
                };
                if workflow.0 != id {
                    return Err(corrupt("mutate record id mismatch"));
                }
                let deltas = payload[1..]
                    .iter()
                    .map(|line| {
                        delta_from_line(line).map_err(|e| corrupt(format!("bad delta: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                WalRecord::Mutate {
                    id,
                    epoch,
                    op,
                    deltas,
                }
            }
            "correct" => {
                if fields.len() != 5 {
                    return Err(corrupt(format!("malformed correct header '{header}'")));
                }
                WalRecord::Correct {
                    id: parse_u64(fields[2], "workflow id")?,
                    version: parse_u64(fields[3], "version")? as usize,
                    view_lines: payload.to_vec(),
                }
            }
            other => return Err(corrupt(format!("unknown record kind '{other}'"))),
        };
        *pos = end_index + 1;
        Ok(record)
    }
}

/// What [`StorageBackend::append`] tells the store about the shard's log.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOutcome {
    /// The active segment crossed the size threshold: the store should take
    /// a snapshot of the shard (which rotates the segment and truncates the
    /// log).
    pub wants_snapshot: bool,
    /// Nanoseconds this append spent in fsync (0 when the fsync policy did
    /// not trigger one) — lets the store split the commit-stage span into
    /// its WAL-append and fsync parts.
    pub fsync_ns: u64,
    /// Group-commit ticket: a per-shard monotone sequence number of this
    /// append when the backend defers durability to
    /// [`StorageBackend::wait_durable`] (strict `fsync_every=1` mode on the
    /// file backend). 0 means the append needs no durability wait — it was
    /// already synced inline, or the policy leaves syncing to the OS.
    pub ticket: u64,
}

/// The recovered state of one shard: the newest complete snapshot plus the
/// records of the active log segment, in append order.
#[derive(Debug, Default)]
pub struct ShardJournal {
    /// Entries of the newest complete snapshot.
    pub entries: Vec<SnapshotEntry>,
    /// WAL records appended after that snapshot.
    pub records: Vec<WalRecord>,
    /// Bytes of torn trailing garbage that were discarded (a crash mid
    /// append); 0 for a cleanly closed log.
    pub torn_bytes: u64,
}

/// Summary of a completed recovery, surfaced by `wolves recover` and the
/// `--data-dir` server start-up banner.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards recovered.
    pub shards: usize,
    /// Workflows restored (snapshot entries + replayed registrations).
    pub workflows: usize,
    /// Workflows restored from snapshots.
    pub snapshot_entries: usize,
    /// WAL records replayed.
    pub replayed_records: usize,
    /// Shards whose log ended in a torn record (discarded tail).
    pub torn_tails: usize,
    /// Human-readable per-shard lines for the CLI report.
    pub notes: Vec<String>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovered {} workflow(s) over {} shard(s): {} from snapshots, \
             {} WAL record(s) replayed, {} torn tail(s) discarded",
            self.workflows,
            self.shards,
            self.snapshot_entries,
            self.replayed_records,
            self.torn_tails
        )?;
        for note in &self.notes {
            writeln!(f, "  {note}")?;
        }
        Ok(())
    }
}

/// The storage backend the sharded store writes through and recovers from.
///
/// Implementations must serialise appends *per shard* (the store calls them
/// under the shard's mutator mutex, so per-shard ordering is already
/// guaranteed; the backend only needs interior mutability).
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// `true` when records actually hit stable storage (enables the store's
    /// serialisability pre-checks on registration).
    fn durable(&self) -> bool;

    /// Number of shards the backend is laid out for.
    fn shard_count(&self) -> usize;

    /// Appends one record to the shard's active log segment.
    ///
    /// # Errors
    /// Reports I/O failures; the store surfaces them as
    /// [`ServiceError::Persistence`].
    fn append(&self, shard: usize, record: &WalRecord) -> Result<AppendOutcome, ServiceError>;

    /// Blocks until the append identified by `ticket` (from
    /// [`AppendOutcome::ticket`]) is on stable storage, returning the
    /// nanoseconds spent waiting. This is the follower half of **group
    /// commit**: the store calls it *after* releasing the shard's mutator
    /// mutex, so concurrent mutators pile onto one leader fsync instead of
    /// paying one each. The default (and a 0 ticket) is an immediate no-op
    /// — backends that sync inline or not at all need nothing here.
    ///
    /// # Errors
    /// Reports fsync failures; the record is written but its durability is
    /// not yet guaranteed against power loss.
    fn wait_durable(&self, shard: usize, ticket: u64) -> Result<u64, ServiceError> {
        let _ = (shard, ticket);
        Ok(0)
    }

    /// Writes a full snapshot of the shard and rotates its log segment: the
    /// snapshot becomes the new recovery base and the old segment (plus the
    /// previous snapshot) is deleted — this is the compaction step.
    ///
    /// # Errors
    /// Reports I/O failures.
    fn write_snapshot(&self, shard: usize, entries: &[SnapshotEntry]) -> Result<(), ServiceError>;

    /// Hands over the journal found on open, once. The store replays it in
    /// [`crate::store::WorkflowStore::open`]; subsequent calls return empty
    /// journals.
    ///
    /// # Errors
    /// Reports corruption discovered while decoding the journal.
    fn take_journal(&self) -> Result<Vec<ShardJournal>, ServiceError>;

    /// Forces buffered records to stable storage (used on graceful
    /// shutdown; fsync batching may leave a tail unsynced otherwise).
    ///
    /// # Errors
    /// Reports I/O failures.
    fn sync(&self) -> Result<(), ServiceError>;

    /// What the backend has observed since it was opened: WAL append
    /// volume/latency, fsync latency, rotations and compaction wall time.
    /// The default (for backends that persist nothing) is all-empty.
    fn observe(&self) -> crate::obs::StorageObservation {
        crate::obs::StorageObservation::default()
    }
}

/// The default backend: nothing is persisted, every call is a no-op. A
/// store on this backend behaves exactly like the historical in-memory
/// store.
#[derive(Debug)]
pub struct MemoryBackend {
    shards: usize,
}

impl MemoryBackend {
    /// Creates a memory backend for `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        MemoryBackend {
            shards: shards.max(1),
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn durable(&self) -> bool {
        false
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn append(&self, _shard: usize, _record: &WalRecord) -> Result<AppendOutcome, ServiceError> {
        Ok(AppendOutcome::default())
    }

    fn write_snapshot(
        &self,
        _shard: usize,
        _entries: &[SnapshotEntry],
    ) -> Result<(), ServiceError> {
        Ok(())
    }

    fn take_journal(&self) -> Result<Vec<ShardJournal>, ServiceError> {
        Ok((0..self.shards).map(|_| ShardJournal::default()).collect())
    }

    fn sync(&self) -> Result<(), ServiceError> {
        Ok(())
    }
}

/// One scripted fault of a [`FaultPlan`]. Operation indices are 1-based:
/// appends count per shard, snapshot writes and syncs count backend-wide —
/// both are serialised by the store's per-shard mutator locks, so for a
/// given workload the counts (and therefore the injected faults) are fully
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// Appends `from .. from + count` fail with an injected I/O error.
    AppendErr {
        /// First failing append (1-based, per shard).
        from: u64,
        /// How many consecutive appends fail.
        count: u64,
    },
    /// Append number `at` tears: a short garbage fragment is left at the
    /// tail of the shard's active log (when the injector knows the data
    /// directory) and the append fails — the reproducible version of a
    /// power cut mid-`write(2)`.
    Torn {
        /// The torn append (1-based, per shard).
        at: u64,
    },
    /// Syncs `from .. from + count` fail with an injected `EIO`.
    SyncErr {
        /// First failing sync (1-based, backend-wide).
        from: u64,
        /// How many consecutive syncs fail.
        count: u64,
    },
    /// Snapshot writes `from .. from + count` fail with an injected I/O
    /// error — combined with [`FaultDirective::AppendErr`] this forces the
    /// store's double failure (append + rescue snapshot) and degrades the
    /// shard.
    SnapErr {
        /// First failing snapshot write (1-based, backend-wide).
        from: u64,
        /// How many consecutive snapshot writes fail.
        count: u64,
    },
    /// The virtual disk is full: once `bytes` of records have been
    /// appended, every further append and snapshot write fails with an
    /// injected `ENOSPC`.
    DiskFull {
        /// Append budget in bytes.
        bytes: u64,
    },
    /// Appends `from .. from + count` stall for `millis` milliseconds
    /// (plus a small seed-derived jitter) before executing — a latency
    /// spike, not a failure.
    Slow {
        /// First slow append (1-based, per shard).
        from: u64,
        /// How many consecutive appends stall.
        count: u64,
        /// Base stall in milliseconds.
        millis: u64,
    },
}

/// A deterministic, seeded fault script for a [`FaultInjector`].
///
/// The text grammar (the `--fault-plan` CLI flag) is a comma-separated list
/// of directives:
///
/// ```text
/// append-err=N[xC]   fail appends N..N+C (C defaults to 1)
/// torn=N             tear append N (garbage tail + failure)
/// sync-err=N[xC]     fail syncs N..N+C
/// snap-err=N[xC]     fail snapshot writes N..N+C
/// full=K             disk full after K appended bytes
/// slow=N:MS[xC]      stall appends N..N+C by MS milliseconds
/// seed=S             seed for the jitter of slow directives
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed deriving the deterministic jitter of [`FaultDirective::Slow`]
    /// stalls.
    pub seed: u64,
    /// The scripted faults, all active at once.
    pub directives: Vec<FaultDirective>,
}

impl FaultPlan {
    /// Parses the comma-separated plan grammar documented on the type.
    ///
    /// # Errors
    /// Reports unknown directives and malformed numbers as
    /// [`ServiceError::Parse`].
    pub fn parse(text: &str) -> Result<Self, ServiceError> {
        let bad = |part: &str| ServiceError::Parse(format!("bad fault-plan directive '{part}'"));
        let mut plan = FaultPlan::default();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| bad(part))?;
            let number = |text: &str| text.parse::<u64>().map_err(|_| bad(part));
            // trailing `xC` repetition count, defaulting to 1
            let windowed = |text: &str| -> Result<(u64, u64), ServiceError> {
                match text.split_once('x') {
                    Some((from, count)) => Ok((number(from)?, number(count)?.max(1))),
                    None => Ok((number(text)?, 1)),
                }
            };
            let directive = match key {
                "append-err" => {
                    let (from, count) = windowed(value)?;
                    FaultDirective::AppendErr { from, count }
                }
                "torn" => FaultDirective::Torn { at: number(value)? },
                "sync-err" => {
                    let (from, count) = windowed(value)?;
                    FaultDirective::SyncErr { from, count }
                }
                "snap-err" => {
                    let (from, count) = windowed(value)?;
                    FaultDirective::SnapErr { from, count }
                }
                "full" => FaultDirective::DiskFull {
                    bytes: number(value)?,
                },
                "slow" => {
                    let (at, rest) = value.split_once(':').ok_or_else(|| bad(part))?;
                    let (millis, count) = windowed(rest)?;
                    FaultDirective::Slow {
                        from: number(at)?,
                        count,
                        millis,
                    }
                }
                "seed" => {
                    plan.seed = number(value)?;
                    continue;
                }
                _ => return Err(bad(part)),
            };
            plan.directives.push(directive);
        }
        Ok(plan)
    }
}

fn injected(what: impl fmt::Display) -> ServiceError {
    ServiceError::Persistence(format!("injected fault: {what}"))
}

/// SplitMix64 — derives the deterministic jitter of slow directives (and
/// of the client-side retry backoff in [`crate::client::RequestPolicy`]).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic fault-injecting wrapper around any [`StorageBackend`]:
/// it counts the operations flowing through and executes the faults a
/// [`FaultPlan`] scripts for them, so every failure path — torn writes,
/// fsync `EIO`, a full disk, latency spikes — is reproducible in tests and
/// smoke runs. Operations outside the scripted windows pass straight
/// through to the wrapped backend.
#[derive(Debug)]
pub struct FaultInjector {
    inner: Arc<dyn StorageBackend>,
    plan: FaultPlan,
    /// Data directory of the wrapped backend; lets [`FaultDirective::Torn`]
    /// damage the real log tail. Without it a torn directive is a plain
    /// append failure.
    root: Option<PathBuf>,
    appends: Vec<AtomicU64>,
    syncs: AtomicU64,
    snapshots: AtomicU64,
    appended_bytes: AtomicU64,
}

impl FaultInjector {
    /// Wraps `inner` with the given plan. Torn directives degrade to plain
    /// append failures (no on-disk layout to damage); use
    /// [`Self::with_root`] for a file-backed inner backend.
    #[must_use]
    pub fn new(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Self {
        let shards = inner.shard_count();
        FaultInjector {
            inner,
            plan,
            root: None,
            appends: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            syncs: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
        }
    }

    /// Wraps a file-backed backend whose data directory is `root`, enabling
    /// [`FaultDirective::Torn`] to leave real garbage at the active log's
    /// tail.
    #[must_use]
    pub fn with_root(
        inner: Arc<dyn StorageBackend>,
        plan: FaultPlan,
        root: impl Into<PathBuf>,
    ) -> Self {
        let mut injector = FaultInjector::new(inner, plan);
        injector.root = Some(root.into());
        injector
    }

    /// The active fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Appends a short garbage fragment (shorter than any real record, so a
    /// later successful append fully overwrites it) to the shard's newest
    /// active log segment.
    fn tear_tail(&self, shard: usize) {
        use std::io::Write as _;
        let Some(root) = &self.root else { return };
        let dir = root.join(format!("shard-{shard}"));
        let mut best: Option<(u64, PathBuf)> = None;
        let Ok(listing) = std::fs::read_dir(&dir) else {
            return;
        };
        for entry in listing.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(gen) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|g| g.parse::<u64>().ok())
            {
                if best.as_ref().map_or(true, |(newest, _)| gen > *newest) {
                    best = Some((gen, entry.path()));
                }
            }
        }
        if let Some((_, path)) = best {
            if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(path) {
                let _ = file.write_all(b"rec\tmut");
            }
        }
    }

    fn full_after(&self) -> Option<u64> {
        self.plan.directives.iter().find_map(|d| match d {
            FaultDirective::DiskFull { bytes } => Some(*bytes),
            _ => None,
        })
    }
}

impl StorageBackend for FaultInjector {
    fn durable(&self) -> bool {
        self.inner.durable()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn append(&self, shard: usize, record: &WalRecord) -> Result<AppendOutcome, ServiceError> {
        let n = self.appends[shard].fetch_add(1, Ordering::SeqCst) + 1;
        for directive in &self.plan.directives {
            match *directive {
                FaultDirective::Slow {
                    from,
                    count,
                    millis,
                } if n >= from && n < from + count => {
                    let jitter = mix64(self.plan.seed ^ n) % (millis / 2 + 1);
                    std::thread::sleep(std::time::Duration::from_millis(millis + jitter));
                }
                FaultDirective::Torn { at } if n == at => {
                    self.tear_tail(shard);
                    return Err(injected(format_args!("torn write on append {n}")));
                }
                FaultDirective::AppendErr { from, count } if n >= from && n < from + count => {
                    return Err(injected(format_args!("append {n} failed")));
                }
                _ => {}
            }
        }
        if let Some(limit) = self.full_after() {
            let block: usize = record.to_lines().iter().map(|l| l.len() + 1).sum();
            let before = self
                .appended_bytes
                .fetch_add(block as u64, Ordering::SeqCst);
            if before + block as u64 > limit {
                return Err(injected("disk full"));
            }
        }
        self.inner.append(shard, record)
    }

    fn wait_durable(&self, shard: usize, ticket: u64) -> Result<u64, ServiceError> {
        // group-commit waits ride the sync-err directive: counting them as
        // syncs keeps the plan grammar unchanged while letting chaos tests
        // fail a leader fsync deterministically
        if ticket > 0
            && self
                .plan
                .directives
                .iter()
                .any(|d| matches!(d, FaultDirective::SyncErr { .. }))
        {
            let n = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
            for directive in &self.plan.directives {
                if let FaultDirective::SyncErr { from, count } = *directive {
                    if n >= from && n < from + count {
                        return Err(injected(format_args!("sync {n} failed (EIO)")));
                    }
                }
            }
        }
        self.inner.wait_durable(shard, ticket)
    }

    fn write_snapshot(&self, shard: usize, entries: &[SnapshotEntry]) -> Result<(), ServiceError> {
        let n = self.snapshots.fetch_add(1, Ordering::SeqCst) + 1;
        for directive in &self.plan.directives {
            if let FaultDirective::SnapErr { from, count } = *directive {
                if n >= from && n < from + count {
                    return Err(injected(format_args!("snapshot write {n} failed")));
                }
            }
        }
        if let Some(limit) = self.full_after() {
            if self.appended_bytes.load(Ordering::SeqCst) > limit {
                return Err(injected("disk full"));
            }
        }
        self.inner.write_snapshot(shard, entries)
    }

    fn take_journal(&self) -> Result<Vec<ShardJournal>, ServiceError> {
        self.inner.take_journal()
    }

    fn sync(&self) -> Result<(), ServiceError> {
        let n = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        for directive in &self.plan.directives {
            if let FaultDirective::SyncErr { from, count } = *directive {
                if n >= from && n < from + count {
                    return Err(injected(format_args!("sync {n} failed (EIO)")));
                }
            }
        }
        self.inner.sync()
    }

    fn observe(&self) -> crate::obs::StorageObservation {
        self.inner.observe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_workflow::persist::{spec_to_lines, view_to_lines};
    use wolves_workflow::{SpecDeltaKind, TaskId};

    fn sample_entry() -> SnapshotEntry {
        let fixture = wolves_repo::figure1();
        SnapshotEntry {
            id: 7,
            epoch: 3,
            current: 0,
            seq: 5,
            spec_lines: spec_to_lines(&fixture.spec),
            views: vec![view_to_lines(&fixture.view)],
        }
    }

    #[test]
    fn snapshot_entries_round_trip() {
        let entry = sample_entry();
        let lines = entry.to_lines();
        let mut pos = 0;
        let parsed = SnapshotEntry::from_lines(&lines, &mut pos).unwrap();
        assert_eq!(pos, lines.len());
        assert_eq!(parsed, entry);
        // truncation is detected
        let mut pos = 0;
        assert!(SnapshotEntry::from_lines(&lines[..lines.len() - 2], &mut pos).is_err());
    }

    #[test]
    fn snapshot_entry_headers_with_huge_counts_are_rejected_not_trusted() {
        let lines =
            |block: &[&str]| -> Vec<String> { block.iter().map(|&line| line.to_owned()).collect() };
        for block in [
            // a spec line count whose block end overflows
            lines(&["entry\t1\t0\t0\t0\t18446744073709551615\t0"]),
            // a view count no allocator can reserve
            lines(&["entry\t1\t0\t0\t0\t0\t4611686018427387904"]),
            // a view block whose end overflows
            lines(&[
                "entry\t1\t0\t0\t0\t0\t1",
                "view-block\t18446744073709551615",
            ]),
        ] {
            let mut pos = 0;
            let err = SnapshotEntry::from_lines(&block, &mut pos).unwrap_err();
            assert!(matches!(err, ServiceError::Recovery(_)), "{err}");
        }
    }

    #[test]
    fn wal_record_headers_with_huge_counts_are_rejected_not_trusted() {
        let lines = vec!["rec\tcorrect\t1\t0\t18446744073709551615".to_owned()];
        let mut pos = 0;
        let err = WalRecord::from_lines(&lines, &mut pos).unwrap_err();
        assert!(matches!(err, ServiceError::Recovery(_)), "{err}");
        assert_eq!(pos, 0, "a rejected record leaves the cursor in place");
    }

    #[test]
    fn wal_records_round_trip_with_checksums() {
        let records = [
            WalRecord::Register {
                id: 7,
                entry: sample_entry(),
            },
            WalRecord::Mutate {
                id: 7,
                epoch: 4,
                op: MutateOp::AddEdge {
                    from: "a".to_owned(),
                    to: "b".to_owned(),
                },
                deltas: vec![SpecDelta {
                    epoch: 25,
                    kind: SpecDeltaKind::DependencyAdded(
                        TaskId::from_index(0),
                        TaskId::from_index(1),
                    ),
                }],
            },
            WalRecord::Correct {
                id: 7,
                version: 1,
                view_lines: view_to_lines(&wolves_repo::figure1().view),
            },
        ];
        let mut stream: Vec<String> = Vec::new();
        for record in &records {
            stream.extend(record.to_lines());
        }
        let mut pos = 0;
        for record in &records {
            let parsed = WalRecord::from_lines(&stream, &mut pos).unwrap();
            assert_eq!(&parsed, record);
            assert_eq!(parsed.workflow(), 7);
        }
        assert_eq!(pos, stream.len());
    }

    #[test]
    fn corrupted_records_fail_the_checksum() {
        let record = WalRecord::Mutate {
            id: 1,
            epoch: 2,
            op: MutateOp::AddTask {
                name: "x".to_owned(),
            },
            deltas: Vec::new(),
        };
        let mut lines = record.to_lines();
        // flip a payload byte: the checksum in the end line no longer holds
        lines[1] = lines[1].replace('x', "y");
        let mut pos = 0;
        let err = WalRecord::from_lines(&lines, &mut pos).unwrap_err();
        assert!(matches!(err, ServiceError::Recovery(_)));
        // a truncated record is an error too (the caller classifies it)
        let lines = record.to_lines();
        let mut pos = 0;
        assert!(WalRecord::from_lines(&lines[..lines.len() - 1], &mut pos).is_err());
    }

    #[test]
    fn memory_backend_is_a_no_op() {
        let backend = MemoryBackend::new(3);
        assert!(!backend.durable());
        assert_eq!(backend.shard_count(), 3);
        let outcome = backend
            .append(
                0,
                &WalRecord::Correct {
                    id: 1,
                    version: 0,
                    view_lines: Vec::new(),
                },
            )
            .unwrap();
        assert!(!outcome.wants_snapshot);
        assert_eq!(outcome.fsync_ns, 0);
        let observed = backend.observe();
        assert_eq!(observed.append_bytes, 0);
        assert_eq!(observed.rotations, 0);
        assert!(observed.append.is_empty());
        assert!(observed.fsync.is_empty());
        backend.write_snapshot(2, &[]).unwrap();
        assert_eq!(backend.take_journal().unwrap().len(), 3);
        backend.sync().unwrap();
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn fault_plans_parse_the_cli_grammar() {
        let plan = FaultPlan::parse(
            "append-err=2x3, torn=5,sync-err=1,snap-err=4x2,full=4096,slow=3:20x2,seed=9",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(
            plan.directives,
            vec![
                FaultDirective::AppendErr { from: 2, count: 3 },
                FaultDirective::Torn { at: 5 },
                FaultDirective::SyncErr { from: 1, count: 1 },
                FaultDirective::SnapErr { from: 4, count: 2 },
                FaultDirective::DiskFull { bytes: 4096 },
                FaultDirective::Slow {
                    from: 3,
                    count: 2,
                    millis: 20
                },
            ]
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        for bad in [
            "gremlins=1",
            "append-err",
            "append-err=x",
            "slow=3",
            "torn=huge",
        ] {
            assert!(
                matches!(FaultPlan::parse(bad), Err(ServiceError::Parse(_))),
                "'{bad}' should be rejected"
            );
        }
    }

    #[test]
    fn fault_injector_scripts_deterministic_failures() {
        let plan = FaultPlan::parse("append-err=2x2,snap-err=1,sync-err=2").unwrap();
        let injector = FaultInjector::new(Arc::new(MemoryBackend::new(2)), plan);
        assert!(!injector.durable());
        assert_eq!(injector.shard_count(), 2);
        let record = WalRecord::Correct {
            id: 1,
            version: 0,
            view_lines: Vec::new(),
        };
        // appends 2 and 3 fail, counted per shard
        for shard in 0..2 {
            assert!(injector.append(shard, &record).is_ok());
            assert!(injector.append(shard, &record).is_err());
            assert!(injector.append(shard, &record).is_err());
            assert!(injector.append(shard, &record).is_ok());
        }
        // the first snapshot write fails, the second passes
        assert!(injector.write_snapshot(0, &[]).is_err());
        assert!(injector.write_snapshot(0, &[]).is_ok());
        // the second sync fails
        assert!(injector.sync().is_ok());
        assert!(injector.sync().is_err());
        assert!(injector.sync().is_ok());
        assert_eq!(injector.take_journal().unwrap().len(), 2);
    }

    #[test]
    fn a_full_disk_fails_appends_and_snapshots_beyond_the_budget() {
        let record = WalRecord::Correct {
            id: 1,
            version: 0,
            view_lines: vec!["view\tdemo".to_owned()],
        };
        let block: usize = record.to_lines().iter().map(|l| l.len() + 1).sum();
        let plan = FaultPlan::parse(&format!("full={}", block * 2)).unwrap();
        let injector = FaultInjector::new(Arc::new(MemoryBackend::new(1)), plan);
        assert!(injector.append(0, &record).is_ok());
        assert!(injector.append(0, &record).is_ok());
        let err = injector.append(0, &record).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
        assert!(injector.write_snapshot(0, &[]).is_err());
    }
}
