//! Watch subscriptions are write sources on the event loops, not threads:
//! 256 subscribers hold their streams open through a commit while the
//! process's thread count stays flat. Kept alone in its own test binary so
//! no concurrently running test moves the thread count.

use wolves::service::{serve, MutateOp, ServerConfig, ServiceClient, WatchEvent, WatchMode};

const WATCHERS: usize = 256;

/// The `Threads:` line of `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn many_watchers_cost_no_threads_and_each_sees_the_commit() {
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let addr = server.local_addr();
    let mut editor = ServiceClient::connect(addr).expect("connect the editor");
    let fixture = wolves::repo::figure1();
    let id = editor
        .register(&fixture.spec, Some(&fixture.view))
        .expect("register figure 1");

    let before = thread_count();
    let mut streams: Vec<_> = (0..WATCHERS)
        .map(|_| {
            ServiceClient::connect(addr)
                .expect("connect a watcher")
                .watch(id, WatchMode::Tail)
                .expect("watch")
        })
        .collect();
    let op = MutateOp::AddEdge {
        from: "Check additional annotations".to_owned(),
        to: "Build phylo tree".to_owned(),
    };
    editor.mutate(id, op.clone()).expect("commit one mutation");
    for stream in &mut streams {
        let base = stream.ack().seq;
        match stream
            .next_event()
            .expect("the event reaches every watcher")
        {
            WatchEvent::Mutated {
                seq, op: streamed, ..
            } => {
                assert_eq!(seq, base + 1, "contiguous from the subscription cut");
                assert_eq!(streamed, op);
            }
            other => panic!("expected the mutation event, got {other:?}"),
        }
    }
    let grown = thread_count().saturating_sub(before);
    assert!(
        grown < 8,
        "{WATCHERS} watchers grew the process by {grown} threads"
    );
    assert_eq!(
        server.store().stats().active_watchers(),
        WATCHERS as u64,
        "every subscription is still live"
    );

    drop(streams);
    editor.shutdown().expect("shutdown");
    server.join();
}
