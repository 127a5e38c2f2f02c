//! Telemetry integration tests: the log2-bucket histogram core (bracketing
//! property against a sorted reference, concurrent recorders, shard merge),
//! the `metrics` verb over loopback TCP (exposition parses, counters are
//! monotone), WAL-stage histograms after a durable mutation burst, and the
//! slow-request ring catching a stalled commit.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use wolves::service::storage::{
    AppendOutcome, ShardJournal, SnapshotEntry, StorageBackend, WalRecord,
};
use wolves::service::{
    serve, FileBackend, Histogram, MutateOp, PersistConfig, ServerConfig, ServiceClient, Stage,
    Verb, WorkflowStore,
};

fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wolves-telemetry-{tag}-{}-{unique}",
        std::process::id()
    ))
}

/// The exact quantile of a sorted sample set, matching the histogram's rank
/// convention: the sample of rank `ceil(q · count)`, 1-based.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let count = sorted.len() as u64;
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log2-bucket estimate brackets the exact sorted-reference
    /// quantile within one bucket's relative error: `exact ≤ estimate`
    /// and `estimate < 2 · exact` (estimate 0 exactly when exact is 0).
    /// The tracked max is exact, not bucketed.
    #[test]
    fn histogram_quantiles_bracket_the_sorted_reference(
        mut samples in proptest::collection::vec(0u64..=1_u64 << 40, 1..200),
    ) {
        let histogram = Histogram::default();
        for &ns in &samples {
            histogram.record_ns(ns);
        }
        samples.sort_unstable();
        let snapshot = histogram.snapshot();
        prop_assert_eq!(snapshot.count(), samples.len() as u64);
        prop_assert_eq!(snapshot.max, *samples.last().unwrap());
        for q in [0.50, 0.90, 0.99, 1.0] {
            let exact = exact_quantile(&samples, q);
            let estimate = snapshot.quantile(q);
            prop_assert!(
                estimate >= exact,
                "q={q}: estimate {estimate} below exact {exact}"
            );
            if exact == 0 {
                prop_assert_eq!(estimate, 0);
            } else {
                prop_assert!(
                    estimate < 2 * exact,
                    "q={q}: estimate {estimate} not within one bucket of exact {exact}"
                );
            }
        }
    }
}

/// The histogram is a shared-reference recorder: concurrent threads lose no
/// samples, and merging per-shard snapshots preserves count/sum/max.
#[test]
fn concurrent_recorders_lose_no_samples_and_merges_add_up() {
    const THREADS: u64 = 8;
    const RECORDS: u64 = 1_000;
    let shared = Arc::new(Histogram::default());
    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for index in 0..RECORDS {
                    shared.record_ns(thread * RECORDS + index + 1);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("recorder thread");
    }
    let snapshot = shared.snapshot();
    assert_eq!(snapshot.count(), THREADS * RECORDS);
    assert_eq!(snapshot.max, THREADS * RECORDS);
    let total: u64 = (1..=THREADS * RECORDS).sum();
    assert_eq!(snapshot.sum, total);

    // shard merge: two disjoint recorders fold into one snapshot
    let left = Histogram::default();
    let right = Histogram::default();
    left.record_ns(10);
    left.record_ns(500);
    right.record_ns(3_000);
    let mut merged = left.snapshot();
    merged.merge(&right.snapshot());
    assert_eq!(merged.count(), 3);
    assert_eq!(merged.sum, 3_510);
    assert_eq!(merged.max, 3_000);
    // the merged median is the middle sample (500), within one bucket
    assert!(merged.p50() >= 500 && merged.p50() < 1_000);
}

/// Parses a Prometheus-style exposition into `series{labels} -> value`,
/// failing the test on any line that is neither a comment nor a sample.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut samples = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in: {line:?}"));
        samples.insert(series.to_owned(), value);
    }
    samples
}

#[test]
fn metrics_verb_serves_a_parseable_monotone_exposition_over_loopback() {
    let server = serve(&ServerConfig {
        shards: 2,
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    let fixture = wolves::repo::figure1();
    let payload = wolves::moml::write_text_format(&fixture.spec, Some(&fixture.view));
    let id = client.register_text(&payload).expect("register");
    for _ in 0..5 {
        client.validate(id, None).expect("validate");
    }
    client
        .mutate(
            id,
            MutateOp::AddEdge {
                from: "Check additional annotations".to_owned(),
                to: "Build phylo tree".to_owned(),
            },
        )
        .expect("mutate");

    let first = parse_exposition(&client.metrics().expect("first scrape"));
    assert_eq!(first["wolves_requests_total{verb=\"validate\"}"], 5.0);
    assert_eq!(first["wolves_requests_total{verb=\"mutate\"}"], 1.0);
    assert_eq!(
        first["wolves_request_duration_seconds_count{verb=\"validate\"}"],
        5.0
    );
    // commit-stage spans from the mutation show up in the stage histograms
    assert!(first["wolves_commit_stage_duration_seconds_count{stage=\"compute\"}"] >= 1.0);
    assert!(first["wolves_commit_stage_duration_seconds_count{stage=\"snapshot_publish\"}"] >= 1.0);
    // the server stamps the parse stage for every request it decodes
    assert!(first["wolves_commit_stage_duration_seconds_count{stage=\"parse\"}"] >= 7.0);
    assert_eq!(first["wolves_shards"], 2.0);
    assert_eq!(first["wolves_workflows"], 1.0);

    // counters are monotone: more requests never decrease any _total/_count
    for _ in 0..3 {
        client.validate(id, None).expect("validate again");
    }
    let second = parse_exposition(&client.metrics().expect("second scrape"));
    assert_eq!(second["wolves_requests_total{verb=\"validate\"}"], 8.0);
    for (series, &value) in &first {
        if series.ends_with("_total") || series.contains("_count") {
            let later = second.get(series).copied().unwrap_or_else(|| {
                panic!("series {series} disappeared between scrapes");
            });
            assert!(
                later >= value,
                "{series} went backwards: {value} -> {later}"
            );
        }
    }

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn wal_stage_histograms_fill_during_a_durable_mutation_burst() {
    let root = temp_root("wal-stages");
    let _ = std::fs::remove_dir_all(&root);
    let backend = FileBackend::open(PersistConfig {
        shards: 2,
        strict_fsync: true,
        ..PersistConfig::new(&root)
    })
    .expect("open the data dir");
    let (store, _) = WorkflowStore::open(Arc::new(backend)).expect("recover");
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");
    for index in 0..16usize {
        let (from, to) = (
            "Check additional annotations".to_owned(),
            "Build phylo tree".to_owned(),
        );
        let op = if index % 2 == 0 {
            MutateOp::AddEdge { from, to }
        } else {
            MutateOp::RemoveEdge { from, to }
        };
        store.mutate(id, op).expect("mutate");
    }

    // register + 16 mutations all append to the WAL and fsync every record
    let wal_append = store.stage_histogram(Stage::WalAppend);
    let fsync = store.stage_histogram(Stage::Fsync);
    assert_eq!(wal_append.count(), 17);
    assert_eq!(fsync.count(), 17);
    assert!(fsync.sum > 0, "strict fsync must cost observable time");
    assert_eq!(store.verb_histogram(Verb::Mutate).count(), 16);

    // the backend's own observation agrees and reaches the exposition
    let text = store.metrics_text();
    let samples = parse_exposition(&text);
    assert!(samples["wolves_wal_append_bytes_total"] > 0.0);
    assert_eq!(samples["wolves_wal_append_duration_seconds_count"], 17.0);
    assert_eq!(samples["wolves_wal_fsync_duration_seconds_count"], 17.0);

    // a reopen replays the journal and stamps the recovery gauge
    drop(store);
    let backend = FileBackend::open(PersistConfig {
        shards: 2,
        strict_fsync: true,
        ..PersistConfig::new(&root)
    })
    .expect("reopen");
    let (store, report) = WorkflowStore::open(Arc::new(backend)).expect("recover again");
    assert!(report.replayed_records > 0);
    assert!(store.telemetry().recovery_replay_ns() > 0);
    assert!(store
        .metrics_text()
        .contains("wolves_recovery_replay_seconds"));
    let _ = std::fs::remove_dir_all(&root);
}

/// A durable-looking backend whose appends stall — the slow-request ring
/// must retain the resulting mutation, attributing the time to `wal_append`.
#[derive(Debug)]
struct StallingBackend {
    shards: usize,
    delay: Duration,
}

impl StorageBackend for StallingBackend {
    fn durable(&self) -> bool {
        true
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn append(
        &self,
        _shard: usize,
        _record: &WalRecord,
    ) -> Result<AppendOutcome, wolves::service::ServiceError> {
        std::thread::sleep(self.delay);
        Ok(AppendOutcome::default())
    }

    fn write_snapshot(
        &self,
        _shard: usize,
        _entries: &[SnapshotEntry],
    ) -> Result<(), wolves::service::ServiceError> {
        Ok(())
    }

    fn take_journal(&self) -> Result<Vec<ShardJournal>, wolves::service::ServiceError> {
        Ok((0..self.shards).map(|_| ShardJournal::default()).collect())
    }

    fn sync(&self) -> Result<(), wolves::service::ServiceError> {
        Ok(())
    }
}

/// A concurrent mutation burst through a strict-fsync (`strict_fsync`)
/// durable server: the group-commit series must account for every append
/// (batch sum = leader batches + absorbed fsyncs) and the serving layer's
/// connection/wakeup gauges must reach the same exposition.
#[test]
fn group_commit_and_server_gauges_reach_the_exposition_after_a_concurrent_burst() {
    let root = temp_root("group-commit");
    let _ = std::fs::remove_dir_all(&root);
    let backend = FileBackend::open(PersistConfig {
        shards: 2,
        strict_fsync: true,
        ..PersistConfig::new(&root)
    })
    .expect("open the data dir");
    let (store, _) = WorkflowStore::open(Arc::new(backend)).expect("recover");
    let server = wolves::service::serve_with_store(
        &ServerConfig {
            shards: 2,
            workers: 4,
            ..ServerConfig::default()
        },
        Arc::new(store),
    )
    .expect("bind the strict durable server");
    let store = server.store();
    let ids: Vec<_> = (0..8)
        .map(|_| {
            let fixture = wolves::repo::figure1();
            store
                .try_register(fixture.spec, Some(fixture.view))
                .expect("register durably")
        })
        .collect();

    // 8 concurrent TCP mutators, one workflow each: every ack waits on a
    // (possibly shared) leader fsync
    let per_client = 20usize;
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for &id in &ids {
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("mutator connect");
                for index in 0..per_client {
                    let (from, to) = (
                        "Check additional annotations".to_owned(),
                        "Build phylo tree".to_owned(),
                    );
                    let op = if index % 2 == 0 {
                        MutateOp::AddEdge { from, to }
                    } else {
                        MutateOp::RemoveEdge { from, to }
                    };
                    client.mutate(id, op).expect("acked mutate");
                }
            });
        }
    });

    let mut client = ServiceClient::connect(addr).expect("scrape connect");
    let samples = parse_exposition(&client.metrics().expect("metrics"));
    // every append went through group commit: 8 registrations + the burst
    let appends = (ids.len() + ids.len() * per_client) as f64;
    assert_eq!(samples["wolves_wal_group_commit_batch_sum"], appends);
    let batches = samples["wolves_wal_group_commit_batch_count"];
    assert!(
        batches >= 1.0 && batches <= appends,
        "batches out of range: {batches}"
    );
    assert_eq!(
        samples["wolves_wal_group_commit_absorbed_total"],
        appends - batches,
        "absorbed must be exactly the appends that rode another fsync"
    );
    // serving-layer gauges are stitched into the same exposition
    assert!(samples["wolves_open_connections"] >= 1.0);
    assert!(samples["wolves_connections_accepted_total"] >= 9.0);
    assert!(samples.contains_key("wolves_pipelined_batches_total"));
    assert!(
        samples["wolves_event_loop_wakeups_total"] >= 1.0,
        "the event loops must have returned from epoll_wait to serve the burst"
    );

    client.shutdown().expect("shutdown");
    drop(client);
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn slow_ring_retains_a_stalled_commit_with_its_stage_breakdown() {
    let delay = Duration::from_millis(20);
    let backend = Arc::new(StallingBackend { shards: 2, delay });
    let (store, _) = WorkflowStore::open(backend).expect("open on the stalling backend");
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");
    // a fast read first, so the ring has something cheap to outrank
    store.validate(id, None).expect("validate");
    store
        .mutate(
            id,
            MutateOp::AddEdge {
                from: "Check additional annotations".to_owned(),
                to: "Build phylo tree".to_owned(),
            },
        )
        .expect("mutate");

    let worst = store.telemetry().slow().worst();
    assert!(!worst.is_empty());
    // the stalled mutate outranks the validate; its wal_append span carries
    // the injected delay
    let top = &worst[0];
    assert!(top.verb == "mutate" || top.verb == "register");
    assert!(top.total_ns >= delay.as_nanos() as u64);
    let wal_span = top
        .spans
        .iter()
        .find(|(stage, _)| *stage == "wal_append")
        .expect("stalled commit records a wal_append span");
    assert!(wal_span.1 >= delay.as_nanos() as u64);

    let text = store.slow_requests_text();
    assert!(text.starts_with("slow-requests\t"));
    assert!(text.contains("wal_append="));
}
