//! Loopback integration test of the serving layer: the full protocol, end to
//! end, through `service::client` against a running `service::server` —
//! ≥2 shards, ≥4 event loops, real TCP.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wolves::core::correct::Strategy;
use wolves::moml::write_text_format;
use wolves::service::proto::{write_frame, FrameReader};
use wolves::service::storage::{
    AppendOutcome, ShardJournal, SnapshotEntry, StorageBackend, WalRecord,
};
use wolves::service::{
    serve, serve_with_store, validate_throughput, BatchConfig, MutateOp, Request, Response,
    ServerConfig, ServerHandle, ServiceClient, ServiceError, WatchEvent, WatchMode, WorkflowStore,
};

#[test]
fn full_protocol_round_trip_over_loopback() {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = server.local_addr();
    let mut client = ServiceClient::connect(addr).expect("connect to the server");

    // register the Figure 1 fixture through the wire format
    let fixture = wolves::repo::figure1();
    let payload = write_text_format(&fixture.spec, Some(&fixture.view));
    let id = client.register_text(&payload).expect("register figure 1");

    // the paper's verdict: composite 16 is unsound
    let verdict = client.validate(id, None).expect("validate");
    assert!(!verdict.sound);
    assert!(!verdict.cached);
    assert_eq!(verdict.version, 0);
    assert_eq!(verdict.unsound, vec!["Curate & align (16)".to_owned()]);

    // a repeated Validate is served from the shard's verdict cache, and the
    // hit counter observably increases
    let hits_before = client.stats().expect("stats").validate_hits();
    let verdict = client.validate(id, None).expect("re-validate");
    assert!(verdict.cached);
    let hits_after = client.stats().expect("stats").validate_hits();
    assert!(
        hits_after > hits_before,
        "cache hits must increase: {hits_before} -> {hits_after}"
    );

    // strong correction appends a sound view version and becomes current
    let corrected = client.correct(id, Strategy::Strong).expect("correct");
    assert_eq!(corrected.version, 1);
    assert_eq!(corrected.composites_before, 7);
    assert_eq!(corrected.composites_after, 8);
    let verdict = client.validate(id, None).expect("validate corrected");
    assert!(verdict.sound);
    assert_eq!(verdict.version, 1);

    // provenance through the corrected view is exact: 'Format alignment'
    // depends on the sequence branch, not on 'Curate annotations'
    let provenance = client
        .provenance(id, "Format alignment")
        .expect("provenance");
    assert!(provenance.contains(&"Create alignment".to_owned()));
    assert!(provenance.contains(&"Extract sequences".to_owned()));
    assert!(provenance.contains(&"Select entries from DB".to_owned()));
    assert!(!provenance.contains(&"Curate annotations".to_owned()));

    // stats over the wire: one line per shard, one workflow in total
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.workflows(), 1);

    // mutation epochs over the wire: an edit inside one composite keeps the
    // other cached verdicts alive (visible through `retained` and the
    // composite hit counters), and the view still validates sound
    let composite_hits_before = client.stats().expect("stats").composite_hits();
    let mutated = client
        .mutate(
            id,
            MutateOp::AddEdge {
                from: "Check additional annotations".to_owned(),
                to: "Build phylo tree".to_owned(),
            },
        )
        .expect("mutate");
    assert_eq!(mutated.class, "monotone-safe");
    assert_eq!(mutated.invalidated, 1, "only the endpoint composite drops");
    assert_eq!(mutated.retained, 7, "the other cached verdicts survive");
    let verdict = client.validate(id, None).expect("validate after mutate");
    assert!(verdict.sound);
    assert!(!verdict.cached, "one composite had to be recomputed");
    let composite_hits_after = client.stats().expect("stats").composite_hits();
    assert_eq!(
        composite_hits_after - composite_hits_before,
        7,
        "seven of eight composite verdicts served from the surviving cache"
    );

    // server-side errors arrive as their typed variants, not broken streams
    let err = client
        .provenance(id, "No such task")
        .expect_err("unknown task");
    assert!(matches!(err, ServiceError::UnknownTask(_)), "got {err:?}");
    let err = client
        .mutate(
            id,
            MutateOp::RemoveEdge {
                from: "Display tree".to_owned(),
                to: "Select entries from DB".to_owned(),
            },
        )
        .expect_err("no such dependency");
    assert!(matches!(err, ServiceError::Mutation(_)), "got {err:?}");

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn served_provenance_names_that_start_with_a_dot_are_stuffed() {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect to the server");
    // `.` would end the frame unstuffed, and `.x` would arrive as `x`
    let payload = "workflow\tdots\n\
                   task\t.\ntask\t.x\ntask\t..\ntask\tmid\ntask\tsubject\n\
                   edge\t.\tmid\nedge\t.x\tmid\nedge\t..\tmid\nedge\tmid\tsubject\n\
                   view\tv\n\
                   composite\tdot\t.\ncomposite\tdots\t.x|..\n\
                   composite\tmiddle\tmid\ncomposite\tend\tsubject\n";
    let id = client.register_text(payload).expect("register");

    let in_process = server.store().provenance(id, "subject").expect("query");
    for name in [".", ".x", "..", "mid"] {
        assert!(in_process.contains(&name.to_owned()), "{name} upstream");
    }
    let served = client.provenance(id, "subject").expect("provenance");
    assert_eq!(served, in_process);
    // the frame ended where it should: the next answer on the connection
    // is its own
    let verdict = client.validate(id, None).expect("validate after");
    assert_eq!(verdict.version, 0);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn watch_streams_cdc_events_over_the_wire() {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = server.local_addr();
    let mut editor = ServiceClient::connect(addr).expect("connect the editor");

    let fixture = wolves::repo::figure1();
    let payload = write_text_format(&fixture.spec, Some(&fixture.view));
    let id = editor.register_text(&payload).expect("register figure 1");

    // watching an unknown workflow is a typed remote error, and the client
    // survives it
    let watcher = ServiceClient::connect(addr).expect("connect the watcher");
    let err = watcher
        .watch(wolves::service::WorkflowId(999), WatchMode::Tail)
        .expect_err("unknown workflow");
    assert!(
        matches!(err, ServiceError::UnknownWorkflow(_)),
        "got {err:?}"
    );

    // resync mode hands over the export payload atomically with the cut;
    // the ack arriving means the server registered the subscription, so
    // everything the editor commits from here on is delivered
    let watcher = ServiceClient::connect(addr).expect("reconnect the watcher");
    let mut stream = watcher.watch(id, WatchMode::Resync).expect("watch");
    assert_eq!(stream.ack().workflow, id);
    assert_eq!(stream.ack().seq, 0);
    assert_eq!(
        stream.ack().payload.as_deref().expect("resync payload"),
        editor.export(id).expect("export")
    );

    let op = MutateOp::AddEdge {
        from: "Check additional annotations".to_owned(),
        to: "Build phylo tree".to_owned(),
    };
    editor.mutate(id, op.clone()).expect("mutate");
    editor.correct(id, Strategy::Strong).expect("correct");

    match stream.next_event().expect("first event") {
        WatchEvent::Mutated {
            workflow,
            seq,
            op: streamed,
            outcome,
            deltas,
        } => {
            assert_eq!(workflow, id);
            assert_eq!(seq, 1);
            assert_eq!(streamed, op);
            assert_eq!(outcome.epoch, 1);
            assert!(!deltas.is_empty(), "the typed spec deltas ride along");
        }
        other => panic!("expected the mutation event, got {other:?}"),
    }
    match stream.next_event().expect("second event") {
        WatchEvent::Corrected { seq, version, .. } => {
            assert_eq!(seq, 2);
            assert_eq!(version, 1);
        }
        other => panic!("expected the correction event, got {other:?}"),
    }

    // a clean unsubscribe returns the connection to request mode: the same
    // socket serves plain requests again
    let mut watcher = stream.stop().expect("stop the stream");
    let verdict = watcher.validate(id, None).expect("validate after unwatch");
    assert_eq!(verdict.epoch, 1);
    assert_eq!(server.store().stats().active_watchers(), 0);

    editor.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn concurrent_clients_share_the_verdict_cache() {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 4,
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let store = server.store();
    let ids: Vec<_> = (0..6)
        .map(|_| {
            let fixture = wolves::repo::figure1();
            store.register(fixture.spec, Some(fixture.view))
        })
        .collect();

    let report = validate_throughput(
        server.local_addr(),
        &ids,
        BatchConfig {
            clients: 8,
            requests_per_client: 30,
            pipeline: 1,
        },
    )
    .expect("throughput batch");
    assert_eq!(report.completed, 240);
    assert_eq!(report.errors, 0);

    // composite-granular counters are deterministic even with racing
    // clients: exactly one compute per (workflow, composite) — the
    // OnceLock'd cells make every racer block and count as a hit
    let stats = store.stats();
    assert_eq!(stats.composite_misses(), 6 * 7);
    assert_eq!(stats.composite_hits(), 240 * 7 - 6 * 7);
    assert!(stats.validate_misses() >= 6);
    assert_eq!(stats.validate_hits() + stats.validate_misses(), 240);
    assert_eq!(stats.workflows(), 6);
    server.shutdown();
}

#[test]
fn idle_clients_cannot_pin_the_worker_pool() {
    // a client that connects and then sends nothing must neither block the
    // only event loop nor outlive the idle timeout
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 1,
        workers: 1,
        read_timeout_ms: 150,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = server.local_addr();

    // the silent connection lands on the only loop and never speaks
    let silent = std::net::TcpStream::connect(addr).expect("connect silently");

    // the real client is served beside it (well inside this client's own
    // 10s budget)
    let fixture = wolves::repo::figure1();
    let payload = write_text_format(&fixture.spec, Some(&fixture.view));
    let mut client = ServiceClient::connect_with(addr, Some(std::time::Duration::from_secs(10)))
        .expect("connect the real client");
    let id = client
        .register_text(&payload)
        .expect("served despite the idle connection");
    assert!(!client.validate(id, None).expect("validate").sound);

    // and the silent connection itself is reclaimed by the idle timeout:
    // it reads the server's close, not its own 2s read timeout
    silent
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("set a read timeout");
    let read = (&silent).read(&mut [0u8; 1]);
    assert_eq!(read.expect("closed by the server, not timed out"), 0);

    // the idle timeout closes the client's connection too by now
    drop(client);
    server.shutdown();
}

/// One sample of the store's metrics exposition (0 when absent).
fn sample(store: &WorkflowStore, name: &str) -> u64 {
    store
        .metrics_text()
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// Registers a ~2,000-task workflow and writes `answer_bytes` worth of
/// pipelined `export` requests for it on a fresh connection that then never
/// reads. Returns the socket, the export payload and the request count.
fn pipeline_exports_unread(
    server: &ServerHandle,
    answer_bytes: usize,
) -> (TcpStream, String, usize) {
    let store = server.store();
    let spec = wolves::repo::layered_workflow(&wolves::repo::LayeredConfig::sized(2000), 7);
    let id = store.register(spec, None);
    let export = store.export(id).expect("export");
    let copies = answer_bytes / export.len() + 1;
    let mut requests = Vec::new();
    for _ in 0..copies {
        write_frame(&mut requests, &Request::Export { workflow: id }.to_lines()).expect("encode");
    }
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&requests).expect("send the pipeline");
    (stream, export, copies)
}

/// Polls `done` every 20ms until it holds, failing after 10s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn answers_push_back_on_a_client_that_does_not_read() {
    let server = serve(&ServerConfig {
        shards: 1,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let store = server.store();
    let (stream, export, copies) = pipeline_exports_unread(&server, 64 << 20);

    // the server answers what the socket buffers and one pass's budget
    // hold, then stops reading the client until it reads
    let exports = || sample(&store, "wolves_requests_total{verb=\"export\"}");
    let mut answered = exports();
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = exports();
        if now == answered {
            break;
        }
        answered = now;
    }
    let answered = answered as usize - 1; // less the size probe
    assert!(
        answered * export.len() < 24 << 20,
        "{answered} of {copies} exports answered unread, {} bytes each",
        export.len()
    );

    // once the client reads, every answer arrives, in order
    let expected = Response::Exported(export).to_lines();
    let mut reader = FrameReader::new(stream);
    for copy in 0..copies {
        let frame = reader
            .read_frame()
            .expect("read an answer")
            .expect("every answer");
        assert!(frame == expected, "export {copy} of {copies} differs");
    }
    server.shutdown();
}

#[test]
fn a_client_that_stops_reading_is_closed_after_the_write_timeout() {
    let server = serve(&ServerConfig {
        shards: 1,
        workers: 1,
        write_timeout_ms: 200,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let store = server.store();
    let (stream, _, copies) = pipeline_exports_unread(&server, 64 << 20);
    // the accept counter is monotone, so this holds however soon the write
    // timeout closes the connection again
    wait_until("the loop to accept the connection", || {
        sample(&store, "wolves_connections_accepted_total") == 1
    });

    // the stalled connection is dropped although the client never hung up
    wait_until("the stalled connection to close", || {
        sample(&store, "wolves_open_connections") == 0
    });
    // so the client reads what was buffered, then the end — never every
    // answer
    let mut reader = FrameReader::new(stream);
    let mut received = 0;
    while let Ok(Some(_)) = reader.read_frame() {
        received += 1;
    }
    assert!(received < copies, "all {copies} answers arrived");
    server.shutdown();
}

#[test]
fn connections_past_the_limit_are_shed_with_a_transient_overload() {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 1,
        workers: 2,
        max_connections: 2,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = server.local_addr();
    // two admitted clients, each proven live by a round trip
    let mut first = ServiceClient::connect(addr).expect("first client");
    let mut second = ServiceClient::connect(addr).expect("second client");
    first.stats().expect("first is served");
    second.stats().expect("second is served");

    // the third gets a typed overload frame unprompted, then the hang-up
    let third = std::net::TcpStream::connect(addr).expect("the kernel still accepts");
    let mut reader = FrameReader::new(third);
    let frame = reader
        .read_frame()
        .expect("read the refusal")
        .expect("a frame, not a bare close");
    let err = match Response::from_lines(&frame).expect("a well-formed frame") {
        Response::Error(wire) => ServiceError::from_wire(&wire),
        other => panic!("expected the overload error, got {other:?}"),
    };
    assert!(matches!(err, ServiceError::Overloaded), "got {err:?}");
    assert!(err.is_transient());

    // once a client leaves, a newcomer is admitted (the loop notices the
    // disconnect asynchronously, so retry briefly)
    drop(second);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut admitted = loop {
        let attempt = ServiceClient::connect(addr).and_then(|mut client| {
            client.stats()?;
            Ok(client)
        });
        match attempt {
            Ok(client) => break client,
            Err(e) if e.is_transient() || matches!(e, ServiceError::Io(_)) => {
                assert!(std::time::Instant::now() < deadline, "never admitted: {e}");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    };
    admitted.stats().expect("the newcomer is served");
    first.shutdown().expect("shutdown");
    server.join();
}

/// A durable-looking one-shard backend whose group-commit waits each take a
/// permit the test hands out, so a fsync can be held open at will.
#[derive(Debug, Default)]
struct GatedBackend {
    tickets: AtomicU64,
    permits: Mutex<u64>,
    granted: Condvar,
    waiting: AtomicUsize,
}

impl GatedBackend {
    fn grant(&self, permits: u64) {
        *self.permits.lock().unwrap() = permits;
        self.granted.notify_all();
    }

    fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }
}

impl StorageBackend for GatedBackend {
    fn durable(&self) -> bool {
        true
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn append(&self, _shard: usize, _record: &WalRecord) -> Result<AppendOutcome, ServiceError> {
        Ok(AppendOutcome {
            ticket: self.tickets.fetch_add(1, Ordering::SeqCst) + 1,
            ..AppendOutcome::default()
        })
    }

    fn wait_durable(&self, _shard: usize, _ticket: u64) -> Result<u64, ServiceError> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.granted.wait(permits).unwrap();
        }
        *permits -= 1;
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        Ok(0)
    }

    fn write_snapshot(
        &self,
        _shard: usize,
        _entries: &[SnapshotEntry],
    ) -> Result<(), ServiceError> {
        Ok(())
    }

    fn take_journal(&self) -> Result<Vec<ShardJournal>, ServiceError> {
        Ok(vec![ShardJournal::default()])
    }

    fn sync(&self) -> Result<(), ServiceError> {
        Ok(())
    }
}

/// The write client C sends while A's fsync holds the loop.
#[derive(Debug, Clone, Copy)]
enum Writer {
    Mutate,
    Correct,
    Register,
}

/// A's mutation holds the only loop in its settle while B's read and C's
/// write queue up behind it; once A's fsync lands, the next pass must answer
/// B before C's own fsync does — whichever writer C is.
fn read_skips_the_fsync_of(writer: Writer) {
    let backend = Arc::new(GatedBackend::default());
    backend.grant(u64::MAX);
    let (store, _) = WorkflowStore::open(backend.clone()).expect("open the gated store");
    let fixture = wolves::repo::figure1();
    let payload = write_text_format(&fixture.spec, Some(&fixture.view));
    let id = store
        .try_register(fixture.spec, Some(fixture.view))
        .expect("register figure 1");
    let server = serve_with_store(
        &ServerConfig {
            shards: 1,
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::new(store),
    )
    .expect("bind a loopback server");
    // three raw clients, each adopted by the only loop before any fsync
    // stalls (a round trip proves it)
    let connect = || {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = FrameReader::new(stream.try_clone().expect("clone the socket"));
        write_frame(&mut &stream, &Request::Stats.to_lines()).expect("send stats");
        reader.read_frame().expect("read").expect("a stats frame");
        (reader, stream)
    };
    let (mut a_reader, a) = connect();
    let (mut b_reader, b) = connect();
    let (mut c_reader, c) = connect();
    let mutate = |op| Request::Mutate {
        workflow: id,
        op,
        expect: None,
    };
    let (from, to) = ("Check additional annotations", "Build phylo tree");
    backend.grant(0);

    // A's mutation holds the loop in its settle
    let add = MutateOp::AddEdge {
        from: from.to_owned(),
        to: to.to_owned(),
    };
    write_frame(&mut &a, &mutate(add).to_lines()).expect("send A's mutation");
    wait_until("A's fsync wait", || backend.waiting() == 1);
    // B's read and C's write queue up behind it, to be read in one pass
    write_frame(&mut &b, &Request::Stats.to_lines()).expect("send B's read");
    let (write, acked) = match writer {
        Writer::Mutate => (
            mutate(MutateOp::RemoveEdge {
                from: from.to_owned(),
                to: to.to_owned(),
            }),
            "ok\tmutated",
        ),
        // figure 1's view is still unsound, so the correction commits
        Writer::Correct => (
            Request::Correct {
                workflow: id,
                strategy: Strategy::Weak,
            },
            "ok\tcorrected",
        ),
        Writer::Register => (Request::Register { payload }, "ok\tregistered"),
    };
    write_frame(&mut &c, &write.to_lines()).expect("send C's write");
    std::thread::sleep(Duration::from_millis(100));
    backend.grant(1);
    let ack = a_reader.read_frame().expect("read").expect("A's ack");
    assert!(ack[0].starts_with("ok\tmutated"), "{ack:?}");

    // C's fsync is held open, yet B's answer is already out
    wait_until("C's fsync wait", || backend.waiting() == 1);
    b.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set a read timeout");
    let answer = b_reader
        .read_frame()
        .expect("B answered before C's fsync")
        .expect("B's stats");
    assert!(answer[0].starts_with("ok\tstats"), "{answer:?}");
    assert_eq!(backend.waiting(), 1, "C's fsync is still pending");

    backend.grant(u64::MAX);
    let ack = c_reader.read_frame().expect("read").expect("C's ack");
    assert!(ack[0].starts_with(acked), "{writer:?}: {ack:?}");
    server.shutdown();
}

#[test]
fn reads_are_answered_without_waiting_for_another_clients_fsync() {
    read_skips_the_fsync_of(Writer::Mutate);
}

#[test]
fn reads_are_answered_without_waiting_for_another_clients_correction_fsync() {
    read_skips_the_fsync_of(Writer::Correct);
}

#[test]
fn reads_are_answered_without_waiting_for_another_clients_registration_fsync() {
    read_skips_the_fsync_of(Writer::Register);
}
