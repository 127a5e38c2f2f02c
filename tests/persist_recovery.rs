//! Crash-recovery integration tests of the durable serving layer: a store
//! on the snapshot + write-ahead-log backend, killed mid-stream and
//! restarted, must serve answers identical to the store that never crashed
//! — same verdicts, same provenance, same epochs, same future ids.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wolves::service::{
    serve_with_store, FileBackend, MutateOp, PersistConfig, ServerConfig, ServiceClient,
    ServiceError, WatchMode, WorkflowId, WorkflowStore,
};

fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wolves-recovery-{tag}-{}-{unique}",
        std::process::id()
    ))
}

/// A small-segment config on the default OS-flush policy, so the tests
/// exercise rotation and the unsynced-tail path, not just the happy append
/// loop.
fn config(root: &Path) -> PersistConfig {
    PersistConfig {
        shards: 2,
        segment_bytes: 16 * 1024,
        ..PersistConfig::new(root)
    }
}

fn open_store(root: &Path) -> (WorkflowStore, wolves::service::RecoveryReport) {
    let backend = Arc::new(FileBackend::open(config(root)).expect("open the data dir"));
    WorkflowStore::open(backend).expect("recover the store")
}

/// Captures every externally observable answer of a workflow: per-version
/// verdicts, provenance of every task, the export payload and the epoch
/// (observed through a no-op-free probe: the epoch is part of mutate
/// outcomes, so it is captured by the callers where a mutation happens).
fn observe(store: &WorkflowStore, id: WorkflowId) -> Vec<String> {
    let mut out = Vec::new();
    let export = store.export(id).expect("export");
    let mut version = 0usize;
    while let Ok(verdict) = store.validate(id, Some(version)) {
        out.push(format!(
            "v{version}: sound={} unsound={:?}",
            verdict.sound, verdict.unsound
        ));
        version += 1;
    }
    for line in export.lines() {
        if let Some(task) = line.strip_prefix("task\t") {
            out.push(format!(
                "prov {task}: {:?}",
                store.provenance(id, task).expect("provenance")
            ));
        }
    }
    out.push(format!("stats workflows={}", store.stats().workflows()));
    out.push(export);
    out
}

/// A one-shard log written by the server before the log's op line was read
/// and written by `MutateOp` directly (it went through the `mutate` request
/// codec then): a registration, a weak correction, and one `mutate` record
/// of every op kind, split and merge lists included. Checksums and all, it
/// must recover to the state that server exported before it was killed.
const EARLIER_WAL: &str = concat!(
    "rec\tregister\t1\t19\n",
    "entry\t1\t0\t0\t0\t12\t1\n",
    "spec\ttoy\n",
    "epoch\t8\n",
    "tasks\t4\n",
    "task\t0\tA\n",
    "task\t1\tB\n",
    "task\t2\tC\n",
    "task\t3\tD\n",
    "edges\t4\n",
    "edge\t0\t0\t1\n",
    "edge\t1\t1\t3\n",
    "edge\t2\t0\t2\n",
    "edge\t3\t2\t3\n",
    "view-block\t5\n",
    "view\tg\n",
    "slots\t3\n",
    "composite\t0\t1,2\tMiddle\n",
    "composite\t1\t0\tStart\n",
    "composite\t2\t3\tEnd\n",
    "end\t59978f714e58060b\n",
    "rec\tcorrect\t1\t1\t6\n",
    "view\tg\n",
    "slots\t5\n",
    "composite\t1\t0\tStart\n",
    "composite\t2\t3\tEnd\n",
    "composite\t3\t1\tMiddle/1\n",
    "composite\t4\t2\tMiddle/2\n",
    "end\t5b03a4fa1b1e21a7\n",
    "rec\tmutate\t1\t1\t2\n",
    "mutate\t1\tadd-task\tE\n",
    "delta\t9\ttask-added\t4\n",
    "end\tc5b8e95451378401\n",
    "rec\tmutate\t1\t2\t2\n",
    "mutate\t1\tadd-edge\tD\tE\n",
    "delta\t10\tdep-added\t3\t4\n",
    "end\tc1bd541ffc96521f\n",
    "rec\tmutate\t1\t3\t2\n",
    "mutate\t1\tremove-edge\tA\tC\n",
    "delta\t11\tdep-removed\t0\t2\n",
    "end\t9cb4f388d9d05a78\n",
    "rec\tmutate\t1\t4\t2\n",
    "mutate\t1\tadd-edge\tA\tC\n",
    "delta\t12\tdep-added\t0\t2\n",
    "end\t28c4b42e7f9b99af\n",
    "rec\tmutate\t1\t5\t1\n",
    "mutate\t1\tmerge\tFront\tStart;Middle/1;Middle/2\n",
    "end\t6bb7fcf22d1619a1\n",
    "rec\tmutate\t1\t6\t1\n",
    "mutate\t1\tsplit\tFront\tA,B;C\n",
    "end\taf2a03f3ea7a8d38\n",
    "rec\tmutate\t1\t7\t2\n",
    "mutate\t1\tremove-task\tE\n",
    "delta\t13\ttask-removed\t4\n",
    "end\tb5c25030216d4f7d\n",
);

/// What that server exported for the workflow just before the kill.
const EARLIER_EXPORT: &str = concat!(
    "workflow\ttoy\n",
    "task\tA\n",
    "task\tB\n",
    "task\tC\n",
    "task\tD\n",
    "edge\tA\tB\n",
    "edge\tB\tD\n",
    "edge\tC\tD\n",
    "edge\tA\tC\n",
    "view\tg\n",
    "composite\tEnd\tD\n",
    "composite\tFront/1\tA|B\n",
    "composite\tFront/2\tC\n",
);

#[test]
fn a_log_written_before_the_op_line_codec_change_recovers() {
    let root = temp_root("earlier-wal");
    std::fs::create_dir_all(root.join("shard-0")).expect("create the shard dir");
    std::fs::write(root.join("meta.txt"), "wolves-store\t1\n").expect("write meta");
    std::fs::write(root.join("shard-0").join("wal-0.log"), EARLIER_WAL).expect("write the log");
    let (store, report) = wolves::service::open_data_dir(&root, None).expect("recover");
    assert_eq!(report.workflows, 1);
    assert_eq!(report.replayed_records, 9);
    assert_eq!(report.torn_tails, 0);
    let id = WorkflowId(1);
    assert_eq!(store.export(id).expect("export"), EARLIER_EXPORT);
    // one correction and seven mutations; the epoch counts the mutations
    assert_eq!(store.cursor(id).expect("cursor"), (8, 7));
    assert!(store.validate(id, None).expect("validate").sound);
    drop(store);
    std::fs::remove_dir_all(&root).expect("clean up");
}

#[test]
fn killed_server_restarts_with_identical_answers_after_100_mutations() {
    let root = temp_root("server");
    let (store, _) = open_store(&root);
    let server = serve_with_store(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(store),
    )
    .expect("bind the durable server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    let fixture = wolves::repo::figure1();
    let id = client
        .register(&fixture.spec, Some(&fixture.view))
        .expect("register");
    client
        .correct(id, wolves::core::correct::Strategy::Strong)
        .expect("correct");

    // drive >100 mutations through the wire: grow a chain of new tasks,
    // each wired beneath the previous one (small enough to stay fast, big
    // enough to force several WAL segment rotations)
    let mut last_epoch = 0;
    for index in 0..55 {
        let name = format!("grown-{index}");
        let added = client
            .mutate(id, MutateOp::AddTask { name: name.clone() })
            .expect("add task");
        let from = if index == 0 {
            "Display tree".to_owned()
        } else {
            format!("grown-{}", index - 1)
        };
        let wired = client
            .mutate(id, MutateOp::AddEdge { from, to: name })
            .expect("add edge");
        assert_eq!(wired.epoch, added.epoch + 1);
        last_epoch = wired.epoch;
    }
    assert!(last_epoch >= 100, "drove {last_epoch} mutations");

    let store = server.store();
    let before = observe(&store, id);

    // kill: abandon the server without any shutdown handshake — worker
    // threads, sockets and unsynced WAL tail are simply dropped on the
    // floor, like SIGKILL would
    drop(client);
    std::mem::forget(server);
    drop(store);

    let (recovered, report) = open_store(&root);
    assert_eq!(report.workflows, 1);
    assert!(
        report.snapshot_entries + report.replayed_records > 0,
        "{report}"
    );
    let server = serve_with_store(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(recovered),
    )
    .expect("bind the restarted server");
    let store = server.store();
    assert_eq!(observe(&store, id), before, "recovered answers diverged");

    // the epoch counter resumes exactly where the killed server stopped
    let mut client = ServiceClient::connect(server.local_addr()).expect("reconnect");
    let mutated = client
        .mutate(
            id,
            MutateOp::AddEdge {
                from: "Display tree".to_owned(),
                to: "grown-5".to_owned(),
            },
        )
        .expect("mutate after recovery");
    assert_eq!(mutated.epoch, last_epoch + 1);

    // export round-trips into a fresh registration (client resync)
    let payload = client.export(id).expect("export");
    let resynced = client.register_text(&payload).expect("re-register");
    assert_ne!(resynced, id);
    let verdict = client.validate(resynced, None).expect("validate resync");
    assert_eq!(verdict.sound, client.validate(id, None).expect("v").sound);

    // a forced snapshot compacts the log: the next restart replays no
    // individual records
    client.snapshot().expect("snapshot");
    client.shutdown().expect("shutdown");
    server.join();
    let (_, report) = open_store(&root);
    assert_eq!(report.replayed_records, 0, "{report}");
    assert_eq!(report.workflows, 2);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Kill -9 in the middle of a group-committed burst: eight threads drive
/// strict-fsync mutations whose acknowledgements share leader
/// fsyncs, the process dies without any shutdown handshake, and recovery
/// shows exactly the acked history — an ack absorbed into another waiter's
/// fsync must be just as durable as one that paid for its own.
#[test]
fn group_committed_acks_survive_a_kill_mid_burst() {
    let root = temp_root("group-commit-kill");
    let strict_config = |root: &Path| PersistConfig {
        shards: 2,
        strict_fsync: true,
        ..PersistConfig::new(root)
    };
    let backend = Arc::new(FileBackend::open(strict_config(&root)).expect("open strict"));
    let (store, _) = WorkflowStore::open(backend).expect("open the store");
    const MUTATORS: usize = 8;
    const TOGGLES_PER_BURST: usize = 24; // even: every burst ends edge-removed
    let ids: Vec<WorkflowId> = (0..MUTATORS)
        .map(|_| {
            let fixture = wolves::repo::figure1();
            store
                .try_register(fixture.spec, Some(fixture.view))
                .expect("register durably")
        })
        .collect();

    // bursts of concurrent strict mutations, one workflow per thread, each
    // toggling an edge; every `expect` below is a durable acknowledgement.
    // Repeat until at least one fsync was demonstrably shared, so the
    // recovery check exercises the group-commit path and not merely the
    // one-append-one-fsync one.
    let mut bursts = 0usize;
    loop {
        bursts += 1;
        std::thread::scope(|scope| {
            for id in &ids {
                scope.spawn(|| {
                    for step in 0..TOGGLES_PER_BURST {
                        let op = if step % 2 == 0 {
                            MutateOp::AddEdge {
                                from: "Check additional annotations".to_owned(),
                                to: "Build phylo tree".to_owned(),
                            }
                        } else {
                            MutateOp::RemoveEdge {
                                from: "Check additional annotations".to_owned(),
                                to: "Build phylo tree".to_owned(),
                            }
                        };
                        store.mutate(*id, op).expect("strict mutation acked");
                    }
                });
            }
        });
        let observed = store.backend().observe();
        if observed.group_commit_absorbed > 0 {
            break;
        }
        assert!(
            bursts < 4,
            "8 concurrent strict mutators never shared a leader fsync \
             across {bursts} bursts"
        );
    }

    // the exact observable state every ack promised
    let cursors: Vec<_> = ids
        .iter()
        .map(|id| store.cursor(*id).expect("cursor"))
        .collect();
    let expected = (bursts * TOGGLES_PER_BURST) as u64;
    for cursor in &cursors {
        assert_eq!(*cursor, (expected, expected));
    }
    let before: Vec<_> = ids.iter().map(|id| observe(&store, *id)).collect();

    // kill: no shutdown, no final sync — the store is simply abandoned
    std::mem::forget(store);

    let backend = Arc::new(FileBackend::open(strict_config(&root)).expect("reopen"));
    let (recovered, report) = WorkflowStore::open(backend).expect("recover");
    assert_eq!(report.workflows, MUTATORS);
    assert!(report.replayed_records > 0, "{report}");
    for (index, id) in ids.iter().enumerate() {
        assert_eq!(
            recovered.cursor(*id).expect("recovered cursor"),
            cursors[index],
            "workflow {index}: a group-covered ack was lost"
        );
        assert_eq!(observe(&recovered, *id), before[index]);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The deferred-durability API: a pipelined batch of `mutate_deferred`
/// calls settled by one `await_durability` barrier is exactly as durable
/// as per-op strict waits — every settled mutation survives a kill with
/// no shutdown.
#[test]
fn deferred_barrier_settles_a_whole_batch_durably() {
    use wolves::service::DurabilityBarrier;

    let root = temp_root("deferred-barrier");
    let strict_config = |root: &Path| PersistConfig {
        shards: 2,
        strict_fsync: true,
        ..PersistConfig::new(root)
    };
    let backend = Arc::new(FileBackend::open(strict_config(&root)).expect("open strict"));
    let (store, _) = WorkflowStore::open(backend).expect("open the store");
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register durably");

    const TOGGLES: usize = 10; // even: ends edge-removed
    let mut barrier = DurabilityBarrier::default();
    assert!(barrier.is_empty());
    for step in 0..TOGGLES {
        let op = if step % 2 == 0 {
            MutateOp::AddEdge {
                from: "Check additional annotations".to_owned(),
                to: "Build phylo tree".to_owned(),
            }
        } else {
            MutateOp::RemoveEdge {
                from: "Check additional annotations".to_owned(),
                to: "Build phylo tree".to_owned(),
            }
        };
        let (mutated, ticket) = store.mutate_deferred(id, op, None).expect("apply deferred");
        assert_eq!(mutated.epoch, (step + 1) as u64);
        barrier.fold(ticket);
    }
    assert!(!barrier.is_empty());
    store.await_durability(&barrier).expect("settle the batch");

    let cursor = store.cursor(id).expect("cursor");
    let before = observe(&store, id);
    // kill: no shutdown, no final sync — every settled ack must survive
    std::mem::forget(store);

    let backend = Arc::new(FileBackend::open(strict_config(&root)).expect("reopen"));
    let (recovered, report) = WorkflowStore::open(backend).expect("recover");
    assert_eq!(report.workflows, 1);
    assert_eq!(recovered.cursor(id).expect("recovered cursor"), cursor);
    assert_eq!(observe(&recovered, id), before);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn torn_final_record_is_discarded_and_the_prefix_recovers() {
    let root = temp_root("torn");
    let (store, _) = open_store(&root);
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");
    for index in 0..5 {
        store
            .mutate(
                id,
                MutateOp::AddTask {
                    name: format!("extra-{index}"),
                },
            )
            .expect("mutate");
    }
    let before = observe(&store, id);
    drop(store);

    // simulate a crash mid-append: a half-written record at the tail of
    // every shard's active log
    for shard in 0..2 {
        let dir = root.join(format!("shard-{shard}"));
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "log") {
                use std::io::Write as _;
                let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
                file.write_all(b"rec\tmutate\t1\t99\t2\nmutate\t1\tadd-")
                    .unwrap();
            }
        }
    }

    let (recovered, report) = open_store(&root);
    assert_eq!(report.torn_tails, 2, "{report}");
    assert_eq!(observe(&recovered, id), before);
    // the next mutation continues cleanly past the discarded tail
    recovered
        .mutate(
            id,
            MutateOp::AddTask {
                name: "after-the-tear".to_owned(),
            },
        )
        .expect("mutate after torn recovery");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn mid_log_corruption_is_refused_not_guessed() {
    let root = temp_root("corrupt");
    let (store, _) = open_store(&root);
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");
    for index in 0..4 {
        store
            .mutate(
                id,
                MutateOp::AddTask {
                    name: format!("extra-{index}"),
                },
            )
            .expect("mutate");
    }
    drop(store);

    // flip a byte inside the FIRST record of the shard that holds the
    // workflow — later records are intact, so this is not a torn tail
    let mut corrupted = false;
    for shard in 0..2 {
        let path = root.join(format!("shard-{shard}")).join("wal-0.log");
        let content = std::fs::read_to_string(&path).unwrap();
        if content.contains("extra-0") {
            std::fs::write(&path, content.replacen("extra-0", "extra-X", 1)).unwrap();
            corrupted = true;
        }
    }
    assert!(corrupted, "no shard held the mutation records");
    let err = FileBackend::open(config(&root))
        .map(|backend| WorkflowStore::open(Arc::new(backend)).map(|_| ()))
        .and_then(std::convert::identity)
        .unwrap_err();
    assert!(matches!(err, ServiceError::Recovery(_)), "{err}");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Watch events are fanned out only *after* the WAL append: a watcher can
/// never hold an event the log misses, so a kill-after-delivery always
/// recovers every change a subscriber was told about.
#[test]
fn every_delivered_watch_event_survives_a_kill() {
    let root = temp_root("watch-kill");
    let (store, _) = open_store(&root);
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");

    // subscribe from sequence zero with the consistent export payload
    let subscription = store.watch(id, WatchMode::Resync).expect("watch");
    assert_eq!(subscription.seq(), 0);
    let genesis = subscription.payload().expect("resync payload").to_owned();

    for index in 0..10 {
        let name = format!("watched-{index}");
        store
            .mutate(id, MutateOp::AddTask { name: name.clone() })
            .expect("add task");
        store
            .mutate(
                id,
                MutateOp::AddEdge {
                    from: "Display tree".to_owned(),
                    to: name,
                },
            )
            .expect("add edge");
    }

    // the subscriber drains everything it was promised, then the store is
    // killed without a shutdown handshake (fsync batching leaves a tail
    // the OS, not the process, holds)
    let mut events = Vec::new();
    while events.len() < 20 {
        match subscription
            .recv_timeout(std::time::Duration::from_millis(500))
            .expect("healthy subscription")
        {
            Some(event) => events.push(event),
            None => panic!("watcher starved after {} events", events.len()),
        }
    }
    drop(store);

    // every delivered event is in the recovered log: a replica built from
    // the genesis payload plus the delivered stream matches the recovered
    // store exactly
    let (recovered, report) = open_store(&root);
    assert_eq!(report.workflows, 1);
    let replica = WorkflowStore::new(2);
    let replica_id = replica.register_text(&genesis).expect("replica genesis");
    assert_eq!(replica_id, id);
    for event in &events {
        replica.apply_watch_event(event).expect("replay");
    }
    assert_eq!(
        recovered.cursor(id).expect("cursor"),
        replica.cursor(id).expect("replica cursor"),
        "the recovered store lost a change a watcher was told about"
    );
    assert_eq!(
        recovered.export(id).expect("export"),
        replica.export(id).expect("replica export")
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// A backend that can be switched to fail every append: a mutation whose
/// WAL append fails (and whose self-heal snapshot also fails) must commit
/// nothing — no state change, no watch event. Watchers never hear about
/// changes that were not made durable.
mod failing {
    use super::*;
    use wolves::service::storage::{
        AppendOutcome, ShardJournal, SnapshotEntry, StorageBackend, WalRecord,
    };

    #[derive(Debug)]
    pub struct FailingBackend {
        shards: usize,
        pub fail: std::sync::atomic::AtomicBool,
    }

    impl FailingBackend {
        pub fn new(shards: usize) -> Self {
            FailingBackend {
                shards,
                fail: std::sync::atomic::AtomicBool::new(false),
            }
        }

        fn check(&self) -> Result<(), ServiceError> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(ServiceError::Persistence("disk full".to_owned()));
            }
            Ok(())
        }
    }

    impl StorageBackend for FailingBackend {
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
        ) -> Result<AppendOutcome, ServiceError> {
            self.check().map(|()| AppendOutcome::default())
        }

        fn write_snapshot(
            &self,
            _shard: usize,
            _entries: &[SnapshotEntry],
        ) -> Result<(), ServiceError> {
            self.check()
        }

        fn take_journal(&self) -> Result<Vec<ShardJournal>, ServiceError> {
            Ok((0..self.shards).map(|_| ShardJournal::default()).collect())
        }

        fn sync(&self) -> Result<(), ServiceError> {
            Ok(())
        }
    }
}

#[test]
fn a_failed_append_commits_nothing_and_fans_out_no_ghost_event() {
    let backend = Arc::new(failing::FailingBackend::new(2));
    let handle = Arc::clone(&backend);
    let (store, _) = WorkflowStore::open(backend).expect("open");
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");
    let subscription = store.watch(id, WatchMode::Tail).expect("watch");
    let before = store.export(id).expect("export");

    handle.fail.store(true, Ordering::SeqCst);
    let err = store
        .mutate(
            id,
            MutateOp::AddTask {
                name: "ghost".to_owned(),
            },
        )
        .expect_err("the append failed");
    // the rescue snapshot fails too, so the shard degrades rather than lying
    assert!(matches!(err, ServiceError::Degraded { .. }), "{err}");

    // nothing happened: no state change, no sequence advance, no event —
    // and reads still serve from the degraded shard
    assert_eq!(store.cursor(id).expect("cursor"), (0, 0));
    assert_eq!(store.export(id).expect("export"), before);
    assert!(
        matches!(
            subscription.recv_timeout(std::time::Duration::from_millis(50)),
            Ok(None)
        ),
        "a watcher heard about a change that was never made durable"
    );

    // the disk recovers; heal re-opens writes and the next mutation
    // commits and is delivered
    handle.fail.store(false, Ordering::SeqCst);
    assert_eq!(store.heal(), (1, 0));
    store
        .mutate(
            id,
            MutateOp::AddTask {
                name: "real".to_owned(),
            },
        )
        .expect("mutate after recovery");
    let event = subscription
        .recv_timeout(std::time::Duration::from_millis(500))
        .expect("healthy subscription")
        .expect("one event");
    assert_eq!(event.seq(), 1);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// A model-driven random edit: ops reference tasks by position in the
    /// insertion-order model so every generated script is replayable.
    #[derive(Debug, Clone)]
    enum Op {
        AddTask(usize),
        AddEdge(usize, usize),
        RemoveEdge(usize, usize),
        RemoveTask(usize),
        Correct,
    }

    /// Applies one op to a store, translating model positions into live
    /// task names. Model-invalid picks (duplicate edges, missing deps) are
    /// allowed to fail — identically on every store.
    fn apply(store: &WorkflowStore, id: WorkflowId, names: &mut Vec<String>, op: &Op) {
        let outcome = match op {
            Op::AddTask(counter) => {
                let name = format!("task-{counter}");
                let result = store.mutate(id, MutateOp::AddTask { name: name.clone() });
                if result.is_ok() {
                    names.push(name);
                }
                result.map(|_| ())
            }
            Op::AddEdge(from, to) if names.len() >= 2 => {
                let from = names[from % names.len()].clone();
                let to = names[to % names.len()].clone();
                store.mutate(id, MutateOp::AddEdge { from, to }).map(|_| ())
            }
            Op::RemoveEdge(from, to) if names.len() >= 2 => {
                let from = names[from % names.len()].clone();
                let to = names[to % names.len()].clone();
                store
                    .mutate(id, MutateOp::RemoveEdge { from, to })
                    .map(|_| ())
            }
            Op::RemoveTask(pick) if !names.is_empty() => {
                let index = pick % names.len();
                let name = names[index].clone();
                let result = store.mutate(id, MutateOp::RemoveTask { name });
                if result.is_ok() {
                    names.remove(index);
                }
                result.map(|_| ())
            }
            Op::Correct => store
                .correct(id, wolves::core::correct::Strategy::Strong)
                .map(|_| ()),
            _ => Ok(()),
        };
        // failures must be deterministic: both the durable and the
        // uninterrupted store see the same model, so a rejected edit is
        // rejected everywhere — nothing to assert per store
        let _ = outcome;
    }

    fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..5, 0usize..16, 0usize..16), 4..28).prop_map(|raw| {
            let mut counter = 0usize;
            raw.into_iter()
                .map(|(kind, a, b)| match kind {
                    0 | 1 => {
                        counter += 1;
                        Op::AddTask(counter)
                    }
                    2 => Op::AddEdge(a, b),
                    3 => Op::RemoveEdge(a, b),
                    4 if a % 3 == 0 => Op::Correct,
                    _ => Op::RemoveTask(a),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For random mutation sequences and a random kill point, the
        /// durable store killed and restarted mid-stream ends bit-identical
        /// (observable answers, epochs, future ids) to a store that ran
        /// uninterrupted.
        #[test]
        fn random_scripts_survive_a_mid_stream_kill(
            script in op_strategy(),
            kill_at in 0usize..28,
        ) {
            let root = temp_root("prop");
            let kill_at = kill_at % script.len().max(1);

            let twin = WorkflowStore::new(2);
            let (durable, _) = open_store(&root);
            let fixture = wolves::repo::figure1();
            let id = durable
                .try_register(fixture.spec.clone(), Some(fixture.view.clone()))
                .unwrap();
            let twin_id = twin.try_register(fixture.spec, Some(fixture.view)).unwrap();
            prop_assert_eq!(id, twin_id);

            let mut names: Vec<String> = Vec::new();
            let mut twin_names: Vec<String> = Vec::new();
            for op in &script[..kill_at] {
                apply(&durable, id, &mut names, op);
                apply(&twin, id, &mut twin_names, op);
            }
            // kill the durable store (no shutdown, no final sync)
            drop(durable);
            let (durable, _) = open_store(&root);
            for op in &script[kill_at..] {
                apply(&durable, id, &mut names, op);
                apply(&twin, id, &mut twin_names, op);
            }
            prop_assert_eq!(&names, &twin_names);
            prop_assert_eq!(observe(&durable, id), observe(&twin, id));

            // one more restart: the final state itself recovers
            let after = observe(&durable, id);
            drop(durable);
            let (durable, _) = open_store(&root);
            prop_assert_eq!(observe(&durable, id), after);
            drop(durable);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}
