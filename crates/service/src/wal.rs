//! The file-backed storage backend: per-shard snapshot + write-ahead log.
//!
//! On-disk layout under the data directory:
//!
//! ```text
//! <root>/meta.txt               wolves-store\t<shard-count>
//! <root>/shard-<i>/
//!     snapshot-<g>.txt          full shard state when segment <g> started
//!     wal-<g>.log               records appended since (the active segment)
//! ```
//!
//! * **Appends** are one `write(2)` per record (strict mode batches them —
//!   see group commit below); either way a `kill -9` loses nothing
//!   that was acknowledged. [`PersistConfig::fsync_every`] bounds the
//!   power-loss window on top: `0` (default) leaves flushing to the OS and
//!   syncs at rotation/shutdown, `n` fsyncs every `n` records, `1` is
//!   strict fsync-per-record.
//! * **Group commit** (strict mode): with `fsync_every=1` neither the file
//!   write nor the fsync happens inside [`StorageBackend::append`] — the
//!   rendered record is *staged* in memory and the append returns a
//!   per-shard ticket. [`StorageBackend::wait_durable`] — called by the
//!   store after the shard's mutator mutex is released — runs a
//!   leader/follower protocol: the first waiter becomes leader, writes the
//!   whole staged batch with one `write(2)`, issues one `fsync` covering
//!   it, advances the shard's durability watermark and wakes the
//!   followers. Concurrent mutators therefore share one write+fsync
//!   instead of paying one each; staging (rather than writing eagerly and
//!   deferring only the fsync) matters because the kernel serialises
//!   `write(2)` against an in-flight `fsync(2)` on the same inode, which
//!   would cap how many appends can overlap a sync. Acknowledged-or-absent
//!   is unchanged: a staged record has by definition not been acknowledged
//!   (its `wait_durable` has not returned), and nothing is acknowledged
//!   before its covering fsync returns.
//! * **Rotation/compaction**: when the active segment exceeds
//!   [`PersistConfig::segment_bytes`] the store dumps the shard as
//!   `snapshot-<g+1>` (written to a `.tmp` file, fsynced, renamed), a fresh
//!   empty `wal-<g+1>.log` starts, and the previous generation is deleted —
//!   the log never grows without bound.
//! * **Recovery** picks the newest complete snapshot, replays the active
//!   segment, and *truncates* a torn final record (the expected result of a
//!   crash mid-append). A broken record that is **not** the tail — a valid
//!   `rec` header follows it — is corruption and recovery refuses to guess.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::ServiceError;
use crate::obs::{duration_ns, Histogram, StorageObservation};
use crate::storage::{
    fnv64, AppendOutcome, ShardJournal, SnapshotEntry, StorageBackend, WalRecord,
};

/// Configuration of a [`FileBackend`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The data directory (created if absent).
    pub root: PathBuf,
    /// Number of store shards; must match the directory's recorded layout
    /// when reopening an existing data dir.
    pub shards: usize,
    /// The fsync policy. Every append is `write(2)`-complete before the
    /// request is acknowledged, so a **process** crash (`kill -9`) loses
    /// nothing at any setting; this knob bounds the **power-loss** window:
    ///
    /// * `0` (default) — no per-record fsync; the OS flushes in the
    ///   background and the backend syncs at snapshot rotation, graceful
    ///   shutdown and [`StorageBackend::sync`].
    /// * `n > 1` — additionally fsync inline after every `n` appended
    ///   records.
    /// * `1` — strict: every record is fsynced before it is acknowledged,
    ///   via the group-commit protocol ([`StorageBackend::wait_durable`]):
    ///   appends are staged in memory and the group leader flushes the
    ///   whole batch with one write + one fsync, so concurrent appends
    ///   share a single sync instead of paying one each.
    pub fsync_every: usize,
    /// Active-segment size that triggers snapshot + rotation.
    pub segment_bytes: u64,
}

impl PersistConfig {
    /// Defaults: 4 shards, OS-flush fsync policy, 4 MiB segments.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        PersistConfig {
            root: root.into(),
            shards: 4,
            fsync_every: 0,
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

fn io_err(context: &str, e: &std::io::Error) -> ServiceError {
    ServiceError::Persistence(format!("{context}: {e}"))
}

fn corrupt(message: impl Into<String>) -> ServiceError {
    ServiceError::Recovery(message.into())
}

/// State of one shard's active WAL segment.
#[derive(Debug)]
struct ShardWal {
    dir: PathBuf,
    generation: u64,
    file: File,
    bytes: u64,
    pending_sync: usize,
    /// Monotone per-shard append counter — the group-commit ticket space.
    /// Never reset (rotation advances the durability watermark past it
    /// instead), so a ticket uniquely orders an append within its shard.
    appended: u64,
    /// Strict-mode (fsync_every=1) records staged in memory, not yet
    /// written to the segment file. The group-commit leader flushes the
    /// whole batch with one `write(2)` and then fsyncs — keeping per-append
    /// `write(2)` calls off the inode, which would otherwise serialise
    /// against the in-flight fsync (ext4 holds the inode lock for both).
    /// Staged records are never acknowledged (`wait_durable` has not
    /// returned), so kill-9 acked-or-absent is unchanged.
    staged: Vec<u8>,
}

/// Per-shard group-commit rendezvous: the durability watermark plus the
/// leader flag, guarded by a std mutex so followers can park on the
/// condvar. Lock order is WAL mutex → group mutex (never the reverse);
/// the leader holds *neither* across its fsync.
#[derive(Debug, Default)]
struct CommitGroup {
    state: StdMutex<GroupState>,
    arrivals: Condvar,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Highest ticket known to be on stable storage.
    synced: u64,
    /// A leader's fsync is in flight; later arrivals wait instead of
    /// issuing their own.
    leader: bool,
}

impl ShardWal {
    fn wal_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("wal-{generation}.log"))
    }

    fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("snapshot-{generation}.txt"))
    }
}

/// Lock-free storage counters of a [`FileBackend`]: what
/// [`StorageBackend::observe`] reports. Recording rides the operations
/// that already hold the per-shard WAL mutex; the counters themselves are
/// relaxed atomics so scraping never contends with appends.
#[derive(Debug, Default)]
struct StorageTelemetry {
    append_bytes: AtomicU64,
    rotations: AtomicU64,
    append: Histogram,
    fsync: Histogram,
    compaction: Histogram,
    /// Records-per-leader-fsync distribution (raw counts, not durations).
    group_batch: Histogram,
    /// fsyncs absorbed by group commit: `sum(batch_size - 1)`.
    group_absorbed: AtomicU64,
}

/// The snapshot + write-ahead-log backend described in the module docs.
#[derive(Debug)]
pub struct FileBackend {
    config: PersistConfig,
    shards: Vec<Mutex<ShardWal>>,
    groups: Vec<CommitGroup>,
    journal: Mutex<Option<Vec<ShardJournal>>>,
    telemetry: StorageTelemetry,
}

impl FileBackend {
    /// Opens (or initialises) a data directory, loading the journal every
    /// shard will be recovered from.
    ///
    /// # Errors
    /// Reports I/O failures, a shard-count mismatch against the recorded
    /// layout, and corruption (snapshot or non-tail WAL damage).
    pub fn open(config: PersistConfig) -> Result<Self, ServiceError> {
        let config = PersistConfig {
            shards: config.shards.max(1),
            ..config
        };
        fs::create_dir_all(&config.root)
            .map_err(|e| io_err("cannot create the data directory", &e))?;
        check_meta(&config.root, config.shards)?;
        let mut shards = Vec::with_capacity(config.shards);
        let mut journals = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let (wal, journal) = open_shard(&config.root.join(format!("shard-{index}")))?;
            shards.push(Mutex::new(wal));
            journals.push(journal);
        }
        let groups = (0..shards.len()).map(|_| CommitGroup::default()).collect();
        Ok(FileBackend {
            config,
            shards,
            groups,
            journal: Mutex::new(Some(journals)),
            telemetry: StorageTelemetry::default(),
        })
    }

    /// The shard count recorded in an existing data directory's meta file,
    /// `None` when the directory was never initialised. Lets the CLI adopt
    /// the on-disk layout instead of failing on a default mismatch.
    ///
    /// # Errors
    /// Reports unreadable or malformed meta files.
    pub fn recorded_shard_count(root: &Path) -> Result<Option<usize>, ServiceError> {
        let path = root.join("meta.txt");
        if !path.exists() {
            return Ok(None);
        }
        let content =
            fs::read_to_string(&path).map_err(|e| io_err("cannot read the meta file", &e))?;
        parse_meta(&content).map(Some)
    }

    /// The backend's configuration.
    #[must_use]
    pub fn config(&self) -> &PersistConfig {
        &self.config
    }
}

/// Opens (or initialises) a data directory with the default
/// [`PersistConfig`] and recovers a store from it — the shared entry point
/// of `wolves serve --data-dir` and `wolves recover`. An existing directory
/// pins its own recorded shard layout; `explicit_shards` overrides the
/// default of 4 for fresh directories (a conflicting explicit count on an
/// existing directory is refused by the meta check).
///
/// # Errors
/// Reports I/O failures, shard-count mismatches and journal corruption.
pub fn open_data_dir(
    root: &Path,
    explicit_shards: Option<usize>,
) -> Result<(crate::store::WorkflowStore, crate::storage::RecoveryReport), ServiceError> {
    open_faulted_data_dir(root, explicit_shards, crate::storage::FaultPlan::default())
}

/// [`open_data_dir`] with a scripted fault plan: the recovered store runs
/// on a [`crate::storage::FaultInjector`] wrapping the file backend, so
/// every append/snapshot/fsync flowing through executes the plan's
/// directives. An empty plan behaves exactly like [`open_data_dir`] (the
/// injector delegates everything). This is what `wolves serve
/// --fault-plan` plugs in — a chaos-testing entry point, not a production
/// mode.
///
/// # Errors
/// Reports I/O failures, shard-count mismatches and journal corruption.
pub fn open_faulted_data_dir(
    root: &Path,
    explicit_shards: Option<usize>,
    plan: crate::storage::FaultPlan,
) -> Result<(crate::store::WorkflowStore, crate::storage::RecoveryReport), ServiceError> {
    let recorded = FileBackend::recorded_shard_count(root)?;
    let shards = explicit_shards.or(recorded).unwrap_or(4);
    let backend = std::sync::Arc::new(FileBackend::open(PersistConfig {
        shards,
        ..PersistConfig::new(root)
    })?);
    if plan.directives.is_empty() {
        return crate::store::WorkflowStore::open(backend);
    }
    let faulted = crate::storage::FaultInjector::with_root(backend, plan, root.to_path_buf());
    crate::store::WorkflowStore::open(std::sync::Arc::new(faulted))
}

fn parse_meta(content: &str) -> Result<usize, ServiceError> {
    content
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("wolves-store\t"))
        .and_then(|rest| rest.trim().parse::<usize>().ok())
        .filter(|&shards| shards > 0)
        .ok_or_else(|| corrupt("malformed meta file"))
}

fn check_meta(root: &Path, shards: usize) -> Result<(), ServiceError> {
    let path = root.join("meta.txt");
    if path.exists() {
        let content =
            fs::read_to_string(&path).map_err(|e| io_err("cannot read the meta file", &e))?;
        let recorded = parse_meta(&content)?;
        if recorded != shards {
            return Err(corrupt(format!(
                "data directory was written with {recorded} shard(s) but {shards} were \
                 requested; re-sharding is not supported — reopen with --shards {recorded}"
            )));
        }
        return Ok(());
    }
    let mut file = File::create(&path).map_err(|e| io_err("cannot write the meta file", &e))?;
    file.write_all(format!("wolves-store\t{shards}\n").as_bytes())
        .map_err(|e| io_err("cannot write the meta file", &e))?;
    file.sync_data()
        .map_err(|e| io_err("cannot sync the meta file", &e))?;
    Ok(())
}

/// Splits raw file bytes into complete lines (with their on-disk byte
/// lengths, newline included). Returns the lines, the per-line byte counts
/// and the number of trailing bytes that do not form a complete line.
fn split_lines(data: &[u8]) -> (Vec<String>, Vec<u64>, u64) {
    let mut lines = Vec::new();
    let mut sizes = Vec::new();
    let mut start = 0usize;
    for (index, byte) in data.iter().enumerate() {
        if *byte != b'\n' {
            continue;
        }
        match std::str::from_utf8(&data[start..index]) {
            Ok(line) => {
                lines.push(line.to_owned());
                sizes.push((index - start + 1) as u64);
                start = index + 1;
            }
            // a non-UTF-8 line cannot belong to any record: stop here and
            // let the record parser classify the remainder
            Err(_) => return (lines, sizes, (data.len() - start) as u64),
        }
    }
    (lines, sizes, (data.len() - start) as u64)
}

/// Parses a WAL file's bytes into records. A failure at the *tail* (no
/// further `rec` header follows) is a torn write: the records before it are
/// kept and the caller truncates the file to `clean_bytes`. A failure with
/// more records behind it is corruption.
fn parse_wal(data: &[u8], path: &Path) -> Result<(Vec<WalRecord>, u64, u64), ServiceError> {
    let (lines, sizes, trailing) = split_lines(data);
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut clean_bytes: u64 = 0;
    let mut torn_bytes = trailing;
    while pos < lines.len() {
        let before = pos;
        match WalRecord::from_lines(&lines, &mut pos) {
            Ok(record) => {
                records.push(record);
                clean_bytes += sizes[before..pos].iter().sum::<u64>();
            }
            Err(e) => {
                // classify over the RAW bytes, not the collected lines —
                // split_lines stops at a non-UTF-8 line, and an intact
                // record hiding behind one must still be seen here (it
                // proves the damage is mid-log, not a torn tail)
                let failed_header = sizes.get(before).copied().unwrap_or(0);
                let search_from = (clean_bytes + failed_header).min(data.len() as u64) as usize;
                let later_record = data[search_from..]
                    .windows(5)
                    .any(|window| window == b"\nrec\t");
                if later_record {
                    return Err(corrupt(format!(
                        "corrupt WAL record (not at the tail) in {}: {e}",
                        path.display()
                    )));
                }
                torn_bytes = (data.len() as u64) - clean_bytes;
                break;
            }
        }
    }
    if pos >= lines.len() && trailing > 0 {
        // every complete line parsed, but raw bytes remain (torn final line
        // or a non-UTF-8 stretch): same classification applies
        let search_from = clean_bytes.min(data.len() as u64) as usize;
        if data[search_from..]
            .windows(5)
            .any(|window| window == b"\nrec\t")
        {
            return Err(corrupt(format!(
                "corrupt WAL record (not at the tail) in {}",
                path.display()
            )));
        }
        torn_bytes = (data.len() as u64) - clean_bytes;
    }
    Ok((records, clean_bytes, torn_bytes))
}

/// Scans a shard directory, loads its journal and opens the active segment
/// for appending (truncating any torn tail first).
fn open_shard(dir: &Path) -> Result<(ShardWal, ShardJournal), ServiceError> {
    fs::create_dir_all(dir).map_err(|e| io_err("cannot create a shard directory", &e))?;
    let mut snapshot_gens: Vec<u64> = Vec::new();
    let mut wal_gens: Vec<u64> = Vec::new();
    let listing = fs::read_dir(dir).map_err(|e| io_err("cannot list a shard directory", &e))?;
    for dir_entry in listing {
        let dir_entry = dir_entry.map_err(|e| io_err("cannot list a shard directory", &e))?;
        let name = dir_entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            // a snapshot that was never renamed: the rotation crashed before
            // the new generation became authoritative
            let _ = fs::remove_file(dir_entry.path());
        } else if let Some(gen) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".txt"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            snapshot_gens.push(gen);
        } else if let Some(gen) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            wal_gens.push(gen);
        }
    }
    let snapshot_gen = snapshot_gens.iter().copied().max();
    let generation = snapshot_gen
        .or_else(|| wal_gens.iter().copied().max())
        .unwrap_or(0);
    if let Some(&ahead) = wal_gens.iter().find(|&&g| g > generation) {
        return Err(corrupt(format!(
            "{}: wal generation {ahead} has no snapshot (newest snapshot: {snapshot_gen:?})",
            dir.display()
        )));
    }

    let entries = match snapshot_gen {
        Some(gen) => read_snapshot(&ShardWal::snapshot_path(dir, gen))?,
        None => Vec::new(),
    };

    let wal_path = ShardWal::wal_path(dir, generation);
    let (records, clean_bytes, torn_bytes) = if wal_path.exists() {
        let data = fs::read(&wal_path).map_err(|e| io_err("cannot read a WAL segment", &e))?;
        parse_wal(&data, &wal_path)?
    } else {
        (Vec::new(), 0, 0)
    };

    // truncate the torn tail (if any) and position for appending
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&wal_path)
        .map_err(|e| io_err("cannot open a WAL segment", &e))?;
    file.set_len(clean_bytes)
        .map_err(|e| io_err("cannot truncate a torn WAL tail", &e))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| io_err("cannot seek a WAL segment", &e))?;

    // stale generations are garbage from an interrupted rotation
    for gen in snapshot_gens.iter().chain(wal_gens.iter()) {
        if *gen < generation {
            let _ = fs::remove_file(ShardWal::snapshot_path(dir, *gen));
            let _ = fs::remove_file(ShardWal::wal_path(dir, *gen));
        }
    }

    Ok((
        ShardWal {
            dir: dir.to_path_buf(),
            generation,
            file,
            bytes: clean_bytes,
            pending_sync: 0,
            appended: 0,
            staged: Vec::new(),
        },
        ShardJournal {
            entries,
            records,
            torn_bytes,
        },
    ))
}

fn read_snapshot(path: &Path) -> Result<Vec<SnapshotEntry>, ServiceError> {
    let content =
        fs::read_to_string(path).map_err(|e| io_err("cannot read a snapshot file", &e))?;
    let lines: Vec<String> = content.lines().map(str::to_owned).collect();
    let header = lines
        .first()
        .ok_or_else(|| corrupt(format!("{}: empty snapshot", path.display())))?;
    let fields: Vec<&str> = header.split('\t').collect();
    if fields.first() != Some(&"wolves-snapshot") || fields.len() != 3 {
        return Err(corrupt(format!(
            "{}: malformed snapshot header '{header}'",
            path.display()
        )));
    }
    let count: usize = fields[2]
        .parse()
        .map_err(|_| corrupt(format!("{}: bad entry count", path.display())))?;
    let trailer = lines
        .last()
        .and_then(|line| line.strip_prefix("snapshot-end\t"))
        .and_then(|sum| u64::from_str_radix(sum, 16).ok())
        .ok_or_else(|| {
            corrupt(format!(
                "{}: snapshot is incomplete (missing trailer)",
                path.display()
            ))
        })?;
    let body = &lines[..lines.len() - 1];
    if fnv64(&body.join("\n")) != trailer {
        return Err(corrupt(format!(
            "{}: snapshot checksum mismatch",
            path.display()
        )));
    }
    let mut pos = 1usize;
    // the header count is untrusted: every entry takes at least one line
    let mut entries = Vec::with_capacity(count.min(body.len()));
    for _ in 0..count {
        entries.push(SnapshotEntry::from_lines(body, &mut pos)?);
    }
    if pos != body.len() {
        return Err(corrupt(format!(
            "{}: trailing garbage after the last entry",
            path.display()
        )));
    }
    Ok(entries)
}

fn render_snapshot(generation: u64, entries: &[SnapshotEntry]) -> String {
    let mut lines = vec![format!("wolves-snapshot\t{generation}\t{}", entries.len())];
    for entry in entries {
        lines.extend(entry.to_lines());
    }
    let checksum = fnv64(&lines.join("\n"));
    let mut out = lines.join("\n");
    out.push('\n');
    out.push_str(&format!("snapshot-end\t{checksum:016x}\n"));
    out
}

fn sync_dir(dir: &Path) {
    // best effort: directory fsync pins the renames; not all platforms
    // support opening a directory, so failures are ignored
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Write the shard's staged strict-mode records to the segment file in one
/// `write(2)`. On a short write the file is truncated back to the last
/// clean offset and the staged bytes are **kept**: no record has been
/// acknowledged, the stream stays gap-free, and a later leader (or `sync`)
/// retries the whole batch.
fn flush_staged(wal: &mut ShardWal) -> Result<(), ServiceError> {
    if wal.staged.is_empty() {
        return Ok(());
    }
    if let Err(e) = wal.file.write_all(&wal.staged) {
        let _ = wal.file.set_len(wal.bytes);
        let _ = wal.file.seek(SeekFrom::End(0));
        return Err(io_err("cannot flush staged WAL records", &e));
    }
    wal.bytes += wal.staged.len() as u64;
    wal.staged.clear();
    Ok(())
}

impl StorageBackend for FileBackend {
    fn durable(&self) -> bool {
        true
    }

    fn shard_count(&self) -> usize {
        self.config.shards
    }

    fn append(&self, shard: usize, record: &WalRecord) -> Result<AppendOutcome, ServiceError> {
        let start = Instant::now();
        let mut wal = self.shards[shard].lock();
        let mut block = record.to_lines().join("\n");
        block.push('\n');
        let mut fsync_ns = 0u64;
        let mut ticket = 0u64;
        if self.config.fsync_every == 1 {
            // strict mode defers both the file write and the fsync to the
            // group-commit protocol: the record is staged in memory, the
            // caller waits on this ticket in `wait_durable` after dropping
            // the shard's mutator mutex, and the group leader writes the
            // whole staged batch and fsyncs once for everyone. Staging (not
            // just deferring the fsync) is what lets appends overlap an
            // in-flight fsync: a per-append `write(2)` would serialise
            // against `fsync(2)` on the same inode.
            wal.staged.extend_from_slice(block.as_bytes());
            wal.appended += 1;
            ticket = wal.appended;
        } else {
            if let Err(e) = wal.file.write_all(block.as_bytes()) {
                // a short write (ENOSPC, I/O error) may have left a partial
                // record behind; truncate back to the last good offset so a
                // later successful append cannot create a mid-log fragment
                // that would make the whole segment unrecoverable
                let _ = wal.file.set_len(wal.bytes);
                let _ = wal.file.seek(SeekFrom::End(0));
                return Err(io_err("cannot append a WAL record", &e));
            }
            wal.bytes += block.len() as u64;
            wal.appended += 1;
            if self.config.fsync_every > 1 {
                wal.pending_sync += 1;
                if wal.pending_sync >= self.config.fsync_every {
                    let sync_start = Instant::now();
                    wal.file
                        .sync_data()
                        .map_err(|e| io_err("cannot sync the WAL", &e))?;
                    fsync_ns = duration_ns(sync_start.elapsed());
                    self.telemetry.fsync.record_ns(fsync_ns);
                    wal.pending_sync = 0;
                }
            }
        }
        self.telemetry
            .append_bytes
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        self.telemetry
            .append
            .record_ns(duration_ns(start.elapsed()).saturating_sub(fsync_ns));
        Ok(AppendOutcome {
            wants_snapshot: wal.bytes + wal.staged.len() as u64 >= self.config.segment_bytes,
            fsync_ns,
            ticket,
        })
    }

    fn wait_durable(&self, shard: usize, ticket: u64) -> Result<u64, ServiceError> {
        if ticket == 0 || self.config.fsync_every != 1 {
            return Ok(0);
        }
        let start = Instant::now();
        let group = &self.groups[shard];
        let mut state = group.state.lock().expect("commit group lock poisoned");
        loop {
            if state.synced >= ticket {
                return Ok(duration_ns(start.elapsed()));
            }
            if state.leader {
                // follower: a leader fsync is in flight; park until it
                // lands (or fails and a new leader is needed)
                state = group
                    .arrivals
                    .wait(state)
                    .expect("commit group lock poisoned");
                continue;
            }
            state.leader = true;
            drop(state);
            // leader: flush every staged record with one write, capture the
            // high-water mark and a second handle to the active segment
            // under the WAL mutex, then fsync with NO lock held — appends
            // keep staging into the next group while the disk works. The
            // leader then *keeps leading* while fresh records are staged
            // (bounded rounds): starting the follow-up fsync directly keeps
            // the disk pipeline full instead of waiting for a parked
            // follower to be scheduled and elect itself — on a loaded
            // machine that scheduling gap, not the fsync, caps throughput.
            let mut own_round_error: Option<ServiceError> = None;
            for round in 0.. {
                // adaptive commit delay: while fresh records keep being
                // staged, hold the fsync so one flush covers them all —
                // deferred-durability pipelines can stage many records per
                // waiter, so a short wait multiplies the batch. A solo
                // mutator pays one probe (~50–100µs against a ~0.5ms
                // fsync) and the round cap bounds the added latency.
                let mut seen = self.shards[shard].lock().staged.len();
                for _ in 0..16 {
                    std::thread::sleep(Duration::from_micros(50));
                    let now = self.shards[shard].lock().staged.len();
                    if now <= seen {
                        break;
                    }
                    seen = now;
                }
                let synced_to = (|| {
                    let (file, high) = {
                        let mut wal = self.shards[shard].lock();
                        flush_staged(&mut wal)?;
                        let file = wal
                            .file
                            .try_clone()
                            .map_err(|e| io_err("cannot clone the WAL handle", &e))?;
                        (file, wal.appended)
                    };
                    let sync_start = Instant::now();
                    file.sync_data()
                        .map_err(|e| io_err("cannot sync the WAL", &e))?;
                    self.telemetry
                        .fsync
                        .record_ns(duration_ns(sync_start.elapsed()));
                    Ok(high)
                })();
                match synced_to {
                    Ok(high) => {
                        let mut state = group.state.lock().expect("commit group lock poisoned");
                        let batch = high.saturating_sub(state.synced);
                        if batch > 0 {
                            self.telemetry.group_batch.record_ns(batch);
                            self.telemetry
                                .group_absorbed
                                .fetch_add(batch - 1, Ordering::Relaxed);
                        }
                        state.synced = state.synced.max(high);
                        group.arrivals.notify_all();
                    }
                    Err(e) => {
                        // round 0 covered our own ticket; a failure in a
                        // later continuation round belongs to the records
                        // staged since — their waiters re-elect a leader
                        // (staged bytes were kept) and see their own error
                        if round == 0 {
                            own_round_error = Some(e);
                        }
                        break;
                    }
                }
                // continuation: more records staged while we fsynced? The
                // round cap bounds how long our own (already-durable)
                // request is held up syncing for others.
                if round >= 8 || self.shards[shard].lock().staged.is_empty() {
                    break;
                }
            }
            {
                let mut state = group.state.lock().expect("commit group lock poisoned");
                state.leader = false;
                // wake any waiter that arrived after our last staged-empty
                // check (or whose round failed) so it elects itself leader
                // instead of parking behind a stale flag
                group.arrivals.notify_all();
            }
            return match own_round_error {
                // the first round's `high` was read after our own append,
                // so our ticket is covered
                None => Ok(duration_ns(start.elapsed())),
                // our own covering fsync failed: the record may be written
                // but is not yet power-loss durable
                Some(e) => Err(e),
            };
        }
    }

    fn write_snapshot(&self, shard: usize, entries: &[SnapshotEntry]) -> Result<(), ServiceError> {
        let start = Instant::now();
        let mut wal = self.shards[shard].lock();
        let old_generation = wal.generation;
        let generation = old_generation + 1;
        let content = render_snapshot(generation, entries);
        let final_path = ShardWal::snapshot_path(&wal.dir, generation);
        let tmp_path = final_path.with_extension("txt.tmp");
        {
            let mut tmp =
                File::create(&tmp_path).map_err(|e| io_err("cannot write a snapshot", &e))?;
            tmp.write_all(content.as_bytes())
                .map_err(|e| io_err("cannot write a snapshot", &e))?;
            tmp.sync_data()
                .map_err(|e| io_err("cannot sync a snapshot", &e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err("cannot activate a snapshot", &e))?;
        let file = File::create(ShardWal::wal_path(&wal.dir, generation))
            .map_err(|e| io_err("cannot start a fresh WAL segment", &e))?;
        sync_dir(&wal.dir);
        // compaction: the previous generation is now unreachable
        let _ = fs::remove_file(ShardWal::snapshot_path(&wal.dir, old_generation));
        let _ = fs::remove_file(ShardWal::wal_path(&wal.dir, old_generation));
        wal.generation = generation;
        wal.file = file;
        wal.bytes = 0;
        wal.pending_sync = 0;
        // staged strict-mode records' effects are already captured by the
        // snapshot entries (staging happens under the same store mutator
        // mutex, in order), and the snapshot is fsynced — drop them
        wal.staged.clear();
        // the fsynced snapshot now covers every record of the old segment:
        // advance the durability watermark so group-commit waiters whose
        // records were compacted away stop waiting for a WAL fsync
        {
            let mut state = self.groups[shard]
                .state
                .lock()
                .expect("commit group lock poisoned");
            state.synced = state.synced.max(wal.appended);
        }
        self.groups[shard].arrivals.notify_all();
        self.telemetry.rotations.fetch_add(1, Ordering::Relaxed);
        self.telemetry
            .compaction
            .record_ns(duration_ns(start.elapsed()));
        Ok(())
    }

    fn take_journal(&self) -> Result<Vec<ShardJournal>, ServiceError> {
        let taken = self.journal.lock().take();
        Ok(taken.unwrap_or_else(|| {
            (0..self.config.shards)
                .map(|_| ShardJournal::default())
                .collect()
        }))
    }

    fn sync(&self) -> Result<(), ServiceError> {
        for (index, shard) in self.shards.iter().enumerate() {
            let mut wal = shard.lock();
            flush_staged(&mut wal)?;
            let start = Instant::now();
            wal.file
                .sync_data()
                .map_err(|e| io_err("cannot sync the WAL", &e))?;
            self.telemetry.fsync.record(start.elapsed());
            wal.pending_sync = 0;
            // a full sync is a (degenerate) group commit: release any
            // parked group-commit waiters on this shard
            {
                let mut state = self.groups[index]
                    .state
                    .lock()
                    .expect("commit group lock poisoned");
                state.synced = state.synced.max(wal.appended);
            }
            self.groups[index].arrivals.notify_all();
        }
        Ok(())
    }

    fn observe(&self) -> StorageObservation {
        StorageObservation {
            append_bytes: self.telemetry.append_bytes.load(Ordering::Relaxed),
            rotations: self.telemetry.rotations.load(Ordering::Relaxed),
            append: self.telemetry.append.snapshot(),
            fsync: self.telemetry.fsync.snapshot(),
            compaction: self.telemetry.compaction.snapshot(),
            group_commit_batch: self.telemetry.group_batch.snapshot(),
            group_commit_absorbed: self.telemetry.group_absorbed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MutateOp;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("wolves-wal-{tag}-{}-{unique}", std::process::id()))
    }

    fn mutate_record(id: u64, epoch: u64) -> WalRecord {
        WalRecord::Mutate {
            id,
            epoch,
            op: MutateOp::AddTask {
                name: format!("task-{epoch}"),
            },
            deltas: Vec::new(),
        }
    }

    #[test]
    fn fresh_dir_initialises_and_appends_survive_reopen() {
        let root = temp_root("fresh");
        let config = PersistConfig {
            shards: 2,
            ..PersistConfig::new(&root)
        };
        let backend = FileBackend::open(config.clone()).unwrap();
        assert!(backend.durable());
        assert_eq!(backend.shard_count(), 2);
        // the fresh journal is empty
        let journal = backend.take_journal().unwrap();
        assert_eq!(journal.len(), 2);
        assert!(journal
            .iter()
            .all(|j| j.entries.is_empty() && j.records.is_empty()));
        // a second take is empty too (the journal is consumed once)
        assert!(backend.take_journal().unwrap()[0].records.is_empty());

        backend.append(0, &mutate_record(1, 1)).unwrap();
        backend.append(0, &mutate_record(1, 2)).unwrap();
        backend.append(1, &mutate_record(2, 1)).unwrap();
        backend.sync().unwrap();
        drop(backend);

        let reopened = FileBackend::open(config).unwrap();
        let journal = reopened.take_journal().unwrap();
        assert_eq!(journal[0].records.len(), 2);
        assert_eq!(journal[1].records.len(), 1);
        assert_eq!(journal[0].records[1], mutate_record(1, 2));
        assert_eq!(journal[0].torn_bytes, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tails_are_truncated_but_mid_log_corruption_is_fatal() {
        let root = temp_root("torn");
        let config = PersistConfig {
            shards: 1,
            ..PersistConfig::new(&root)
        };
        let backend = FileBackend::open(config.clone()).unwrap();
        backend.append(0, &mutate_record(1, 1)).unwrap();
        backend.append(0, &mutate_record(1, 2)).unwrap();
        backend.sync().unwrap();
        drop(backend);

        // simulate a crash mid-append: garbage without a frame at the tail
        let wal_path = root.join("shard-0").join("wal-0.log");
        let mut file = OpenOptions::new().append(true).open(&wal_path).unwrap();
        file.write_all(b"rec\tmutate\t1\t3\t1\nmutate\t1\tadd-ta")
            .unwrap();
        drop(file);
        let clean_len = {
            let backend = FileBackend::open(config.clone()).unwrap();
            let journal = backend.take_journal().unwrap();
            assert_eq!(journal[0].records.len(), 2, "the torn record is dropped");
            assert!(journal[0].torn_bytes > 0);
            drop(backend);
            fs::metadata(&wal_path).unwrap().len()
        };
        // the torn tail was truncated away on open
        let reopened = FileBackend::open(config.clone()).unwrap();
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), clean_len);
        assert_eq!(reopened.take_journal().unwrap()[0].torn_bytes, 0);
        drop(reopened);

        // corrupt the FIRST record while a later one is intact: fatal
        let content = fs::read_to_string(&wal_path).unwrap();
        let corrupted = content.replacen("task-1", "task-X", 1);
        fs::write(&wal_path, corrupted).unwrap();
        let err = FileBackend::open(config).unwrap_err();
        assert!(matches!(err, ServiceError::Recovery(_)), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn non_utf8_damage_mid_log_is_corruption_not_a_torn_tail() {
        let root = temp_root("non-utf8");
        let config = PersistConfig {
            shards: 1,
            ..PersistConfig::new(&root)
        };
        let backend = FileBackend::open(config.clone()).unwrap();
        backend.append(0, &mutate_record(1, 1)).unwrap();
        backend.append(0, &mutate_record(1, 2)).unwrap();
        backend.sync().unwrap();
        drop(backend);

        let wal_path = root.join("shard-0").join("wal-0.log");
        let mut data = fs::read(&wal_path).unwrap();
        // flip a byte of the FIRST record to an invalid UTF-8 value; the
        // intact second record behind it proves the damage is mid-log, so
        // recovery must refuse instead of truncating acknowledged records
        let offset = data
            .windows(6)
            .position(|w| w == b"task-1")
            .expect("first record payload");
        data[offset] = 0xFF;
        fs::write(&wal_path, &data).unwrap();
        let err = FileBackend::open(config.clone()).unwrap_err();
        assert!(matches!(err, ServiceError::Recovery(_)), "{err}");

        // the same invalid byte in the FINAL record is a torn tail
        let backend = {
            let mut data = fs::read(&wal_path).unwrap();
            let offset = data
                .windows(5)
                .position(|w| w == b"ask-1")
                .expect("damaged first record payload");
            data[offset - 1] = b't'; // heal record 1
            let offset = data
                .windows(6)
                .position(|w| w == b"task-2")
                .expect("second record payload");
            data[offset] = 0xFF;
            fs::write(&wal_path, &data).unwrap();
            FileBackend::open(config).unwrap()
        };
        let journal = backend.take_journal().unwrap();
        assert_eq!(journal[0].records.len(), 1);
        assert!(journal[0].torn_bytes > 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotation_compacts_to_a_snapshot_and_reopen_reads_it() {
        let root = temp_root("rotate");
        let config = PersistConfig {
            shards: 1,
            segment_bytes: 1, // every append asks for a snapshot
            ..PersistConfig::new(&root)
        };
        let backend = FileBackend::open(config.clone()).unwrap();
        let outcome = backend.append(0, &mutate_record(1, 1)).unwrap();
        assert!(outcome.wants_snapshot);
        let fixture = wolves_repo::figure1();
        let entry = SnapshotEntry {
            id: 1,
            epoch: 1,
            current: 0,
            seq: 1,
            spec_lines: wolves_workflow::persist::spec_to_lines(&fixture.spec),
            views: vec![wolves_workflow::persist::view_to_lines(&fixture.view)],
        };
        backend
            .write_snapshot(0, std::slice::from_ref(&entry))
            .unwrap();
        // the old generation is gone, the new one is live and empty
        let shard_dir = root.join("shard-0");
        assert!(!shard_dir.join("wal-0.log").exists());
        assert!(shard_dir.join("wal-1.log").exists());
        assert!(shard_dir.join("snapshot-1.txt").exists());
        backend.append(0, &mutate_record(1, 2)).unwrap();
        backend.sync().unwrap();
        drop(backend);

        let reopened = FileBackend::open(config.clone()).unwrap();
        let journal = reopened.take_journal().unwrap();
        assert_eq!(journal[0].entries, vec![entry]);
        assert_eq!(journal[0].records, vec![mutate_record(1, 2)]);
        drop(reopened);

        // a snapshot with a flipped byte refuses to load
        let snapshot_path = shard_dir.join("snapshot-1.txt");
        let content = fs::read_to_string(&snapshot_path).unwrap();
        fs::write(
            &snapshot_path,
            content.replacen("figure-1b", "figure-XX", 1),
        )
        .unwrap();
        assert!(matches!(
            FileBackend::open(config).unwrap_err(),
            ServiceError::Recovery(_)
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_entry_counts_beyond_the_file_are_rejected_not_trusted() {
        let root = temp_root("huge-count");
        fs::create_dir_all(&root).unwrap();
        // the checksum is no defence: whoever writes the file computes it
        let header = "wolves-snapshot\t1\t4611686018427387904";
        let path = root.join("snapshot-1.txt");
        fs::write(
            &path,
            format!("{header}\nsnapshot-end\t{:016x}\n", fnv64(header)),
        )
        .unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            ServiceError::Recovery(_)
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    /// Rewrites every spec block of a shard directory's snapshots and
    /// `register` records the way writers did before the in-memory delta
    /// log was removed: with a `log-cap` line after the epoch.
    fn add_log_cap_lines(shard_dir: &Path) {
        fn legacy(spec_lines: &mut Vec<String>) {
            let at = spec_lines
                .iter()
                .position(|line| line.starts_with("epoch\t"))
                .unwrap();
            spec_lines.insert(at + 1, "log-cap\t1024".to_owned());
        }
        for file in fs::read_dir(shard_dir).unwrap() {
            let path = file.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            let rewritten = if let Some(rest) = name.strip_prefix("snapshot-") {
                let generation: u64 = rest.trim_end_matches(".txt").parse().unwrap();
                let mut entries = read_snapshot(&path).unwrap();
                for entry in &mut entries {
                    legacy(&mut entry.spec_lines);
                }
                render_snapshot(generation, &entries)
            } else if name.starts_with("wal-") {
                let content = fs::read_to_string(&path).unwrap();
                let lines: Vec<String> = content.lines().map(str::to_owned).collect();
                let mut pos = 0;
                let mut out = String::new();
                while pos < lines.len() {
                    let mut record = WalRecord::from_lines(&lines, &mut pos).unwrap();
                    if let WalRecord::Register { entry, .. } = &mut record {
                        legacy(&mut entry.spec_lines);
                    }
                    out.push_str(&record.to_lines().join("\n"));
                    out.push('\n');
                }
                out
            } else {
                continue;
            };
            fs::write(&path, rewritten).unwrap();
        }
    }

    #[test]
    fn a_data_dir_with_log_cap_lines_recovers_to_the_same_answers() {
        use crate::store::{WorkflowId, WorkflowStore};
        let root = temp_root("log-cap");
        let config = PersistConfig {
            shards: 1,
            ..PersistConfig::new(&root)
        };
        let open = || {
            let backend = std::sync::Arc::new(FileBackend::open(config.clone()).unwrap());
            WorkflowStore::open(backend).unwrap().0
        };
        let answers = |store: &WorkflowStore, id: WorkflowId| -> Vec<String> {
            let export = store.export(id).unwrap();
            let verdict = store.validate(id, None).unwrap();
            let mut out = vec![format!(
                "epoch={} sound={} unsound={:?}",
                verdict.epoch, verdict.sound, verdict.unsound
            )];
            for task in export
                .lines()
                .filter_map(|line| line.strip_prefix("task\t"))
            {
                out.push(format!("{task}: {:?}", store.provenance(id, task).unwrap()));
            }
            out.push(export);
            out
        };
        let edge = |from: &str, to: &str, remove: bool| {
            let (from, to) = (from.to_owned(), to.to_owned());
            if remove {
                MutateOp::RemoveEdge { from, to }
            } else {
                MutateOp::AddEdge { from, to }
            }
        };
        let script = [
            edge("Check additional annotations", "Build phylo tree", false),
            MutateOp::AddTask {
                name: "scratch".to_owned(),
            },
            edge("Display tree", "scratch", false),
            edge("Check additional annotations", "Build phylo tree", true),
            MutateOp::RemoveTask {
                name: "scratch".to_owned(),
            },
        ];
        let store = open();
        let mut ids = Vec::new();
        for round in 0..2 {
            let fixture = wolves_repo::figure1();
            let id = store.register(fixture.spec, Some(fixture.view));
            for op in &script {
                store.mutate(id, op.clone()).unwrap();
            }
            ids.push(id);
            if round == 0 {
                // the first workflow lives in a snapshot, the second in
                // `register` and `mutate` records of the log
                store.snapshot_all().unwrap();
            }
        }
        let before: Vec<Vec<String>> = ids.iter().map(|&id| answers(&store, id)).collect();
        drop(store);

        let shard_dir = root.join("shard-0");
        add_log_cap_lines(&shard_dir);
        let with_log_cap = |prefix: &str| {
            fs::read_dir(&shard_dir).unwrap().any(|file| {
                let path = file.unwrap().path();
                path.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .starts_with(prefix)
                    && fs::read_to_string(&path).unwrap().contains("\nlog-cap\t")
            })
        };
        assert!(with_log_cap("snapshot-") && with_log_cap("wal-"));

        let recovered = open();
        let after: Vec<Vec<String>> = ids.iter().map(|&id| answers(&recovered, id)).collect();
        assert_eq!(after, before);
        // the snapshot taken after recovery is in the current format
        drop(recovered);
        assert!(shard_dir.join("snapshot-2.txt").exists());
        assert!(!with_log_cap("snapshot-"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shard_count_mismatch_is_refused_and_recorded_count_is_readable() {
        let root = temp_root("meta");
        assert_eq!(FileBackend::recorded_shard_count(&root).unwrap(), None);
        let backend = FileBackend::open(PersistConfig {
            shards: 3,
            ..PersistConfig::new(&root)
        })
        .unwrap();
        drop(backend);
        assert_eq!(FileBackend::recorded_shard_count(&root).unwrap(), Some(3));
        let err = FileBackend::open(PersistConfig {
            shards: 5,
            ..PersistConfig::new(&root)
        })
        .unwrap_err();
        assert!(err.to_string().contains("--shards 3"), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }
}
