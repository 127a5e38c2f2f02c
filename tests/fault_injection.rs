//! Chaos suite of the durable serving layer: scripted storage faults
//! (failed appends, torn writes, failing snapshots, full disks, latency
//! spikes) driven through the [`wolves::service::FaultInjector`] backend.
//!
//! The invariant under test is *acked-or-absent*: every mutation the store
//! acknowledged must survive recovery, every mutation it refused must leave
//! no trace — the recovered store is indistinguishable from a twin store
//! that applied exactly the acked operations and nothing else. On a double
//! storage failure (append *and* rescue snapshot) the shard degrades to
//! read-only instead of lying, keeps serving reads, and `heal` re-opens
//! writes without a restart.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wolves::service::{
    serve_with_store, FaultInjector, FaultPlan, FileBackend, MutateOp, PersistConfig, Request,
    Response, ServerConfig, ServiceClient, ServiceError, StorageBackend, WorkflowId, WorkflowStore,
};

fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wolves-chaos-{tag}-{}-{unique}",
        std::process::id()
    ))
}

/// One shard (so the 1-based per-shard append counters of a fault plan are
/// exact), small segments and the default OS-flush policy — rotation and
/// the unsynced tail stay in play.
fn config(root: &Path) -> PersistConfig {
    PersistConfig {
        shards: 1,
        segment_bytes: 8 * 1024,
        ..PersistConfig::new(root)
    }
}

/// Opens the durable store with `plan` scripted into its backend.
fn open_faulted(root: &Path, plan: FaultPlan) -> WorkflowStore {
    let inner: Arc<dyn StorageBackend> =
        Arc::new(FileBackend::open(config(root)).expect("open the data dir"));
    let injector = FaultInjector::with_root(inner, plan, root.to_path_buf());
    WorkflowStore::open(Arc::new(injector))
        .expect("recover through the injector")
        .0
}

/// Reopens the data directory through a clean, fault-free backend — what a
/// restarted server would see after the chaos run.
fn open_clean(root: &Path) -> WorkflowStore {
    WorkflowStore::open(Arc::new(
        FileBackend::open(config(root)).expect("reopen the data dir"),
    ))
    .expect("the chaos run must leave a recoverable directory")
    .0
}

/// Captures every externally observable answer of a workflow: per-version
/// verdicts, provenance of every task, the export payload and the workflow
/// count.
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

fn add_task(name: &str) -> MutateOp {
    MutateOp::AddTask {
        name: name.to_owned(),
    }
}

/// The full degraded-mode life cycle over real TCP: a double storage
/// failure degrades the shard, reads and the metrics scrape keep serving,
/// mutations fail fast with the typed error, and a wire-level `heal`
/// re-opens writes without restarting the server.
#[test]
fn a_degraded_server_serves_reads_and_heals_over_the_wire() {
    let root = temp_root("wire-degrade");
    // append 1 is the registration; append 2 (the first mutation) fails,
    // and snapshot 1 (its rescue) fails too — the double failure
    let plan = FaultPlan::parse("append-err=2,snap-err=1").expect("plan");
    let store = open_faulted(&root, plan);
    let server = serve_with_store(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 1,
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(store),
    )
    .expect("bind the chaos server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    let fixture = wolves::repo::figure1();
    let id = client
        .register(&fixture.spec, Some(&fixture.view))
        .expect("registration is append 1 and survives");

    let err = client
        .mutate(id, add_task("ghost"))
        .expect_err("append 2 and rescue snapshot 1 both fail");
    assert!(
        matches!(err, ServiceError::Degraded { shard: 0, .. }),
        "expected the degraded error, got {err:?}"
    );

    // the shard is read-only, not dead: validation still answers, and the
    // degradation is visible to scrapes
    assert!(
        !client
            .validate(id, None)
            .expect("read while degraded")
            .sound
    );
    let metrics = client.metrics().expect("metrics while degraded");
    assert!(
        metrics.contains("wolves_shard_degraded{shard=\"0\"} 1"),
        "degraded gauge missing:\n{metrics}"
    );
    assert!(
        metrics.contains("wolves_errors_total{kind=\"degraded\"}"),
        "error counter missing:\n{metrics}"
    );

    // further mutations fail fast — no second trip through the backend
    let err = client
        .mutate(id, add_task("still-ghost"))
        .expect_err("degraded shards refuse writes");
    assert!(matches!(err, ServiceError::Degraded { .. }), "got {err:?}");

    // heal retries a compacting snapshot (snapshot 2, past the fault
    // window) and re-opens writes — no restart
    assert_eq!(client.heal().expect("heal"), (1, 0));
    let mutated = client
        .mutate(id, add_task("real"))
        .expect("mutate after heal");
    assert_eq!(mutated.epoch, 1);
    let metrics = client.metrics().expect("metrics after heal");
    assert!(
        metrics.contains("wolves_shard_degraded{shard=\"0\"} 0"),
        "gauge must clear after heal:\n{metrics}"
    );

    client.shutdown().expect("shutdown");
    server.join();

    // exactly the acked history recovers: the registration and the
    // post-heal mutation, neither ghost
    let recovered = open_clean(&root);
    assert_eq!(recovered.cursor(id).expect("cursor"), (1, 1));
    let export = recovered.export(id).expect("export");
    assert!(export.contains("task\treal"));
    assert!(!export.contains("ghost"));
    std::fs::remove_dir_all(&root).unwrap();
}

/// Pipelined frames through a faulted server: one write carries five
/// requests, two of which hit scripted storage faults — every failure must
/// land in the slot of the request that caused it, the surviving requests
/// must answer normally, and recovery must show exactly the acked edits.
#[test]
fn pipelined_frames_map_faults_to_the_right_in_flight_request() {
    let root = temp_root("pipeline-faults");
    // append 1 is the registration. In the pipeline below: append 2 (task
    // "early") stalls 30ms but succeeds, append 3 (task "ghost") fails and
    // its rescue snapshot (snapshot 1) fails too — the shard degrades
    // mid-pipeline with later requests still in flight behind it.
    let plan = FaultPlan::parse("slow=2:30,append-err=3,snap-err=1,seed=5").expect("plan");
    let store = open_faulted(&root, plan);
    let server = serve_with_store(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 1,
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(store),
    )
    .expect("bind the chaos server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    let fixture = wolves::repo::figure1();
    let id = client
        .register(&fixture.spec, Some(&fixture.view))
        .expect("registration is append 1");

    let outcomes = client
        .pipeline(&[
            Request::Mutate {
                workflow: id,
                op: add_task("early"),
                expect: None,
            },
            Request::Mutate {
                workflow: id,
                op: add_task("ghost"),
                expect: None,
            },
            Request::Validate {
                workflow: id,
                version: None,
            },
            Request::Mutate {
                workflow: id,
                op: add_task("late-ghost"),
                expect: None,
            },
            Request::Epoch { workflow: id },
        ])
        .expect("the pipeline itself must survive the faults");
    assert_eq!(outcomes.len(), 5);
    // slot 0: the stalled-but-successful append
    match &outcomes[0] {
        Ok(Response::Mutated(mutated)) => assert_eq!(mutated.epoch, 1),
        other => panic!("slot 0 must be the acked mutate, got {other:?}"),
    }
    // slot 1: the double failure lands exactly here
    assert!(
        matches!(outcomes[1], Err(ServiceError::Degraded { shard: 0, .. })),
        "slot 1 must carry the degraded error, got {:?}",
        outcomes[1]
    );
    // slot 2: reads keep serving behind the failed mutate
    match &outcomes[2] {
        Ok(Response::Verdict(verdict)) => assert!(!verdict.sound),
        other => panic!("slot 2 must be the verdict, got {other:?}"),
    }
    // slot 3: the degraded shard refuses the later write, in its own slot
    assert!(
        matches!(outcomes[3], Err(ServiceError::Degraded { .. })),
        "slot 3 must fail fast on the degraded shard, got {:?}",
        outcomes[3]
    );
    // slot 4: the epoch probe sees exactly the one acked mutation
    match &outcomes[4] {
        Ok(Response::Epoch { epoch, .. }) => assert_eq!(*epoch, 1),
        other => panic!("slot 4 must be the epoch, got {other:?}"),
    }

    // the connection is uncorrupted: heal and mutate normally on it
    assert_eq!(client.heal().expect("heal"), (1, 0));
    let mutated = client.mutate(id, add_task("real")).expect("after heal");
    assert_eq!(mutated.epoch, 2);
    client.shutdown().expect("shutdown");
    server.join();

    // exactly the acked history recovers: "early" and "real", no ghosts
    let recovered = open_clean(&root);
    assert_eq!(recovered.cursor(id).expect("cursor"), (2, 2));
    let export = recovered.export(id).expect("export");
    assert!(export.contains("task\tearly"));
    assert!(export.contains("task\treal"));
    assert!(!export.contains("ghost"));
    std::fs::remove_dir_all(&root).unwrap();
}

/// Under strict fsync (`strict_fsync`) every served write defers its
/// durability into the readiness pass's shared settle. A failed group-commit
/// fsync must turn each write slot of the pipeline — a correction and a
/// registration — into the typed error, while the read between them answers
/// normally.
#[test]
fn a_failed_group_fsync_refuses_every_pipelined_write_but_not_the_read() {
    let root = temp_root("strict-sync-err");
    let inner: Arc<dyn StorageBackend> = Arc::new(
        FileBackend::open(PersistConfig {
            strict_fsync: true,
            ..config(&root)
        })
        .expect("open the data dir"),
    );
    // sync 1 is the registration below; syncs 2 and 3 fail, covering the
    // pipeline's writes whether one pass or two settle them
    let plan = FaultPlan::parse("sync-err=2x2").expect("plan");
    let injector = FaultInjector::with_root(inner, plan, root.clone());
    let (store, _) = WorkflowStore::open(Arc::new(injector)).expect("open the strict store");
    let fixture = wolves::repo::figure1();
    let payload = wolves::moml::write_text_format(&fixture.spec, Some(&fixture.view));
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("the registration's fsync is sync 1");
    let server = serve_with_store(
        &ServerConfig {
            shards: 1,
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::new(store),
    )
    .expect("bind the strict server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    let outcomes = client
        .pipeline(&[
            Request::Correct {
                workflow: id,
                strategy: wolves::core::correct::Strategy::Weak,
            },
            Request::Validate {
                workflow: id,
                version: None,
            },
            Request::Register { payload },
        ])
        .expect("the pipeline itself survives the failed fsync");
    assert_eq!(outcomes.len(), 3);
    for slot in [0, 2] {
        assert!(
            matches!(&outcomes[slot], Err(ServiceError::Persistence(reason)) if reason.contains("sync")),
            "write slot {slot} must carry the fsync error, got {:?}",
            outcomes[slot]
        );
    }
    assert!(
        matches!(outcomes[1], Ok(Response::Verdict(_))),
        "the read answers normally, got {:?}",
        outcomes[1]
    );

    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Latency spikes are faults too — but delaying an append must only delay
/// the acknowledgement, never corrupt it.
#[test]
fn latency_spikes_delay_but_never_corrupt_acknowledgements() {
    let root = temp_root("slow");
    // appends 2 and 3 stall for >= 40ms each (plus seeded jitter)
    let plan = FaultPlan::parse("slow=2:40x2,seed=9").expect("plan");
    let store = open_faulted(&root, plan);
    let fixture = wolves::repo::figure1();
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register");

    let started = std::time::Instant::now();
    store
        .mutate(id, add_task("slow-1"))
        .expect("stalled append");
    store
        .mutate(id, add_task("slow-2"))
        .expect("stalled append");
    assert!(
        started.elapsed() >= std::time::Duration::from_millis(80),
        "the scripted stalls must actually delay the acks"
    );
    store.mutate(id, add_task("fast")).expect("past the window");
    assert_eq!(store.cursor(id).expect("cursor"), (3, 3));
    drop(store);

    let recovered = open_clean(&root);
    assert_eq!(recovered.cursor(id).expect("cursor"), (3, 3));
    std::fs::remove_dir_all(&root).unwrap();
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// A model-driven random edit; ops reference tasks by position in the
    /// insertion-order model so every generated script is replayable.
    #[derive(Debug, Clone)]
    enum Op {
        AddTask,
        AddEdge(usize, usize),
        RemoveEdge(usize, usize),
        RemoveTask(usize),
        Correct,
    }

    fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..5, 0usize..16, 0usize..16), 4..24).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, a, b)| match kind {
                    0 | 1 => Op::AddTask,
                    2 => Op::AddEdge(a, b),
                    3 => Op::RemoveEdge(a, b),
                    4 if a % 3 == 0 => Op::Correct,
                    _ => Op::RemoveTask(a),
                })
                .collect()
        })
    }

    /// A random fault plan: optionally a failing-append window, a torn
    /// write, a failing-snapshot window and a disk-full budget, all active
    /// at once. Append 1 (the registration) is always spared so every case
    /// has a workflow to mutate.
    fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
        (
            (0u8..3, 2u64..20, 1u64..4),
            (0u8..2, 2u64..20),
            (0u8..3, 1u64..5, 1u64..3),
            (0u8..2, 3u64..40),
            0u64..1_000_000,
        )
            .prop_map(|(append, torn, snap, full, seed)| {
                use wolves::service::FaultDirective;
                let mut directives = Vec::new();
                if append.0 > 0 {
                    directives.push(FaultDirective::AppendErr {
                        from: append.1,
                        count: append.2,
                    });
                }
                if torn.0 > 0 {
                    directives.push(FaultDirective::Torn { at: torn.1 });
                }
                if snap.0 > 0 {
                    directives.push(FaultDirective::SnapErr {
                        from: snap.1,
                        count: snap.2,
                    });
                }
                if full.0 > 0 {
                    directives.push(FaultDirective::DiskFull {
                        bytes: full.1 * 1024,
                    });
                }
                FaultPlan { seed, directives }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random fault plans × random mutation scripts: the store under
        /// faults acks or refuses each edit; a twin in-memory store applies
        /// exactly the acked ones. At every observation point — while the
        /// faulty store is live (possibly degraded), and after recovery
        /// through a clean backend — the two answer identically: acked
        /// mutations survive, refused ones are absent, never a third state.
        #[test]
        fn acked_mutations_survive_and_refused_ones_are_absent(
            script in op_strategy(),
            plan in plan_strategy(),
        ) {
            let root = temp_root("prop");
            let durable = open_faulted(&root, plan);
            let twin = WorkflowStore::new(1);
            let fixture = wolves::repo::figure1();
            let id = match durable.try_register(fixture.spec.clone(), Some(fixture.view.clone())) {
                Ok(id) => id,
                Err(_) => {
                    // the plan starved even the registration (tiny disk
                    // budget): nothing was acked, nothing to check
                    drop(durable);
                    let _ = std::fs::remove_dir_all(&root);
                    return;
                }
            };
            let twin_id = twin
                .try_register(fixture.spec, Some(fixture.view))
                .expect("the twin accepts what the durable store acked");
            prop_assert_eq!(id, twin_id);

            // run the script against the faulty store; echo each op to the
            // twin ONLY if it was acked
            let mut names: Vec<String> = Vec::new();
            let mut counter = 0usize;
            let mut acked = 0usize;
            let mut refused = 0usize;
            for op in &script {
                let concrete = match op {
                    Op::AddTask => {
                        counter += 1;
                        Some(add_task(&format!("task-{counter}")))
                    }
                    Op::AddEdge(from, to) if names.len() >= 2 => Some(MutateOp::AddEdge {
                        from: names[from % names.len()].clone(),
                        to: names[to % names.len()].clone(),
                    }),
                    Op::RemoveEdge(from, to) if names.len() >= 2 => Some(MutateOp::RemoveEdge {
                        from: names[from % names.len()].clone(),
                        to: names[to % names.len()].clone(),
                    }),
                    Op::RemoveTask(pick) if !names.is_empty() => Some(MutateOp::RemoveTask {
                        name: names[pick % names.len()].clone(),
                    }),
                    Op::Correct => None,
                    _ => continue,
                };
                match concrete {
                    Some(mutate_op) => {
                        if durable.mutate(id, mutate_op.clone()).is_ok() {
                            twin.mutate(id, mutate_op.clone())
                                .expect("an acked mutation must apply on the twin");
                            match mutate_op {
                                MutateOp::AddTask { name } => names.push(name),
                                MutateOp::RemoveTask { name } => {
                                    names.retain(|n| n != &name);
                                }
                                _ => {}
                            }
                            acked += 1;
                        } else {
                            refused += 1;
                        }
                    }
                    None => {
                        if durable
                            .correct(id, wolves::core::correct::Strategy::Strong)
                            .is_ok()
                        {
                            twin.correct(id, wolves::core::correct::Strategy::Strong)
                                .expect("an acked correction must apply on the twin");
                            acked += 1;
                        } else {
                            refused += 1;
                        }
                    }
                }
            }
            prop_assert_eq!(acked + refused >= 1, !script.is_empty());

            // live reads agree even if the shard degraded mid-script
            prop_assert_eq!(durable.cursor(id).ok(), twin.cursor(id).ok());
            prop_assert_eq!(observe(&durable, id), observe(&twin, id));

            // heal is always safe to attempt: it either re-opens writes or
            // leaves the shard degraded — it never changes answers
            let _ = durable.heal();
            prop_assert_eq!(observe(&durable, id), observe(&twin, id));
            drop(durable);

            // recovery through a clean backend reproduces exactly the
            // acked history: never a lost ack, never a resurrected refusal
            let recovered = open_clean(&root);
            prop_assert_eq!(recovered.cursor(id).ok(), twin.cursor(id).ok());
            prop_assert_eq!(observe(&recovered, id), observe(&twin, id));
            drop(recovered);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}
