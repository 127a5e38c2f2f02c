//! Service benchmark for `wolves-service`: requests/sec over a grid of
//! shard counts × event-loop counts, driven by the concurrent batch client
//! over a real loopback TCP connection — plus pipelining speedup,
//! read-under-write, a ≈5k-name provenance answer over loopback against the
//! same query in process, the client's decode of that answer's frame
//! against the server's encode of it, `corrected` watch events fanned out
//! to loopback watchers, idle-connection scaling and a durability grid (a
//! concurrent mutation burst under each fsync policy, then cold and
//! compacted recovery of its data directory).
//!
//! Usage:
//!
//! ```text
//! service_bench                     # full grid, JSON on stdout
//! service_bench --quick             # smaller grid / fewer requests (CI)
//! service_bench --out BENCH_service.json
//! service_bench --metrics-out METRICS_service.txt
//! service_bench --conn-smoke 10000  # hold N conns (1k watching) through a burst
//! ```
//!
//! The output is machine-readable JSON (handwritten — no serde in the
//! workspace), one row per grid point, so perf trajectories can be recorded
//! across PRs. A `guard` object holds the six ratio claims CI checks; each
//! is the median of [`REPEATS`] repeats that alternate which side runs
//! first, so neither side always pays the cold start.

use std::fmt::Write as _;
use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wolves_core::correct::Strategy;
use wolves_moml::{read_text_format, write_text_format};
use wolves_repo::{
    figure1, layered_workflow, random_partition_view, topological_block_view, LayeredConfig,
};
use wolves_service::proto::FrameReader;
use wolves_service::{
    serve, validate_throughput, BatchConfig, DurabilityBarrier, FileBackend, HistogramSnapshot,
    MutateOp, PersistConfig, RecoveryReport, Request, Response, ServerConfig, ServiceClient, Stage,
    Verb, WatchEvent, WatchMode, WorkflowId, WorkflowStore,
};
use wolves_workflow::{WorkflowSpec, WorkflowView};

const USAGE: &str = "usage: service_bench [--quick] [--out <file>] [--metrics-out <file>] \
                     [--conn-smoke <conns>]";

/// Repeats of every guarded comparison; odd, so each guard is a true median.
const REPEATS: usize = 5;

/// Pipelined throughput must be at least this multiple of one request per
/// round trip.
const MIN_PIPELINING_SPEEDUP: f64 = 3.0;

/// Strict group commit (`strict_fsync`) may cost at most this factor of
/// the OS-flush rate.
const MAX_GROUP_COMMIT_RATIO: f64 = 1.2;

/// Reads under a concurrent mutator may cost at most this factor of idle
/// reads.
const MAX_READ_UNDER_WRITE_RATIO: f64 = 1.3;

/// The default WAL policy (OS flush) may cost at most this factor of the
/// in-memory store.
const MAX_WAL_OVER_MEMORY: f64 = 2.0;

/// A loopback provenance round trip may cost at most this factor of the
/// in-process query it serves. Both sides allocate one `String` per name,
/// and the round trip reads 1.56–2.18 over 15 quick runs on 2 vCPUs, so
/// twice the worst of them is above this bound, which stays.
const MAX_PROVENANCE_ROUND_TRIP: f64 = 3.0;

/// The client's decode of a provenance answer's frame may cost at most
/// this factor of the server's encode of it: twice the worst of 12 quick
/// runs on 2 vCPUs (8.1–9.5). Most of the decode is the one `String` per
/// name a `Vec<String>` answer owns: a clone of the answer reads about 6×
/// the encode, and the decode 1.35–1.6× the clone.
const MAX_CLIENT_DECODE: f64 = 19.0;

/// Parse time may grow at most this factor when the payload grows 4×
/// (2,500 → 10,000 lattice tasks): near-linear, with room for the larger
/// payload's cache misses.
const MAX_TEXTFMT_PARSE_GROWTH: f64 = 5.0;

/// The text format on the `edit-revalidate` lattice at two sizes, and the
/// server's decode of a `correct-audit`-sized `register` frame.
struct Textfmt {
    rows: Vec<TextfmtRow>,
    /// Median of the per-repeat `parse_us(large) / parse_us(small)`.
    parse_growth: f64,
    /// Median of the per-repeat `render_us(large) / render_us(small)`.
    render_growth: f64,
    register: RegisterDecode,
}

/// Parse and render of one lattice payload (48-task block view).
struct TextfmtRow {
    tasks: usize,
    payload_bytes: usize,
    /// Median over every repeat's median call, in microseconds.
    parse_us: f64,
    render_us: f64,
}

/// A `register` frame of a ≈300-task random-partition workflow, as a
/// `correct-audit` upload: the frame decode into a request, then the parse
/// of its payload — what the server runs before the store's own work.
struct RegisterDecode {
    tasks: usize,
    frame_bytes: usize,
    /// Median over every repeat's median call, in microseconds.
    decode_us: f64,
    parse_us: f64,
}

/// One provenance answer of about 5k names on the `edit-revalidate`
/// lattice, fetched over loopback and from the store in process. Both hit
/// the cached index, so the gap is what serving costs on top of the query:
/// codec, socket and the client's decode.
struct ProvenanceRoundTrip {
    tasks: usize,
    answer_names: usize,
    /// Median over every repeat's median call, in microseconds.
    round_trip_us: f64,
    in_process_us: f64,
    /// Median of the per-repeat `round_trip_us / in_process_us`.
    ratio: f64,
    /// The client's decode of the same answer's frame.
    decode: ClientDecode,
}

/// The client's decode of the [`ProvenanceRoundTrip`] answer's frame,
/// from memory, against [`Response::encode`] of the same answer: the two
/// ends of the wire codec on the same bytes. Beside them, a clone of the
/// answer: the one `String` per name any decoder into `Vec<String>` must
/// allocate.
struct ClientDecode {
    frame_bytes: usize,
    /// Median over every repeat's median call, in microseconds.
    decode_us: f64,
    encode_us: f64,
    clone_us: f64,
    /// Median of the per-repeat `decode_us / encode_us`.
    ratio: f64,
    /// Median of the per-repeat `decode_us / clone_us`.
    over_clone: f64,
}

/// `corrected` events of one `edit-revalidate` lattice workflow, fanned out
/// to [`FANOUT_WATCHERS`] loopback watchers: each cycle merges the parts
/// the previous correction split a composite into, which makes the view
/// unsound again, then corrects it, and every watcher receives the whole
/// corrected view.
struct WatchFanout {
    tasks: usize,
    watchers: usize,
    /// Merge-and-correct cycles of each repeat.
    cycles: usize,
    /// Median over the repeats of `corrected` events delivered per second,
    /// all watchers together.
    events_per_sec: f64,
    /// Wire bytes of one `corrected` event frame.
    bytes_per_event: usize,
}

/// A stream that replays one frame's bytes forever, as a connection that
/// receives the same answer again and again would.
struct Replay<'a> {
    frame: &'a [u8],
    at: usize,
}

impl Read for Replay<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = out.len().min(self.frame.len() - self.at);
        out[..n].copy_from_slice(&self.frame[self.at..self.at + n]);
        self.at = (self.at + n) % self.frame.len();
        Ok(n)
    }
}

struct Row {
    shards: usize,
    workers: usize,
    clients: usize,
    completed: usize,
    errors: usize,
    elapsed_ms: f64,
    requests_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Server-side validate latency percentiles (log2-bucket upper bounds),
    /// in microseconds — measured inside the store, so they exclude client
    /// and socket time.
    validate_p50_us: f64,
    validate_p99_us: f64,
}

/// Reader throughput with and without a concurrent mutator: the epoch-
/// snapshot read path promises reads never block behind writers, so the
/// contended rate should stay close to the idle rate (the residual gap is
/// verdict recomputation for the composites the mutations invalidate).
struct ReadUnderWrite {
    idle_rps: f64,
    contended_rps: f64,
    /// Median of the per-repeat `idle_rps / contended_rps`.
    ratio: f64,
    mutations: u64,
    snapshot_publishes: u64,
    /// Server-side percentiles over every pass, in microseconds.
    validate_p50_us: f64,
    validate_p99_us: f64,
    mutate_p50_us: f64,
    mutate_p99_us: f64,
}

/// Log2-bucket upper bound for quantile `q`, converted to microseconds.
fn percentile_us(snapshot: &HistogramSnapshot, q: f64) -> f64 {
    snapshot.quantile(q) as f64 / 1e3
}

/// Times `S` sides [`REPEATS`] times, `calls` calls a side each time, the
/// sides taking turns call by call (so a noisy stretch of the host lands on
/// all of them) and the first turn rotating between repeats. `call`
/// returns one call's time; each repeat contributes one median per side.
fn interleave<const S: usize>(calls: usize, mut call: impl FnMut(usize) -> f64) -> [Vec<f64>; S] {
    let mut samples = std::array::from_fn(|_| Vec::with_capacity(REPEATS));
    for repeat in 0..REPEATS {
        let mut times: [Vec<f64>; S] = std::array::from_fn(|_| Vec::with_capacity(calls));
        for turn in 0..S * calls {
            let side = (turn + repeat) % S;
            times[side].push(call(side));
        }
        for (side, times) in times.into_iter().enumerate() {
            samples[side].push(median(times));
        }
    }
    samples
}

/// Runs `sides` passes [`REPEATS`] times, forwards on even repeats and
/// backwards on odd ones, and returns each side's samples in repeat order.
fn alternate<T>(sides: usize, mut pass: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    let mut samples: Vec<Vec<T>> = (0..sides).map(|_| Vec::with_capacity(REPEATS)).collect();
    for repeat in 0..REPEATS {
        for step in 0..sides {
            let side = if repeat % 2 == 0 {
                step
            } else {
                sides - 1 - step
            };
            samples[side].push(pass(side));
        }
    }
    samples
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median of the per-repeat ratios `numerator[r] / denominator[r]`.
fn median_ratio(numerator: &[f64], denominator: &[f64]) -> f64 {
    median(
        numerator
            .iter()
            .zip(denominator)
            .map(|(n, d)| n / d.max(1e-9))
            .collect(),
    )
}

#[derive(Default)]
struct Args {
    quick: bool,
    out: Option<String>,
    metrics_out: Option<String>,
    conn_smoke: Option<usize>,
}

/// Parses the command line; a missing value, a non-numeric connection
/// count or an unknown argument is an error, never a silent default.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--out" | "--metrics-out" => {
                let file = args
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a file name"))?;
                let slot = if arg == "--out" {
                    &mut parsed.out
                } else {
                    &mut parsed.metrics_out
                };
                *slot = Some(file);
            }
            "--conn-smoke" => {
                let value = args.next().unwrap_or_default();
                let count = value
                    .parse()
                    .map_err(|_| format!("--conn-smoke needs a connection count, got '{value}'"))?;
                parsed.conn_smoke = Some(count);
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    Ok(parsed)
}

fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write '{path}': {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("service_bench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(target) = args.conn_smoke {
        std::process::exit(run_connection_smoke(target));
    }
    let quick = args.quick;

    let (shard_grid, worker_grid, clients, requests_per_client): (Vec<usize>, Vec<usize>, _, _) =
        if quick {
            (vec![1, 4], vec![2, 4], 4, 50)
        } else {
            (vec![1, 2, 4, 8], vec![1, 2, 4, 8], 8, 250)
        };

    let mut rows = Vec::new();
    for &shards in &shard_grid {
        for &workers in &worker_grid {
            rows.push(run_grid_point(
                shards,
                workers,
                clients,
                requests_per_client,
            ));
        }
    }

    let (read_under_write, exposition) = run_read_under_write(quick);
    if let Some(path) = &args.metrics_out {
        write_or_exit(path, &exposition);
    }
    let pipelining = run_pipelining(quick);
    let provenance = run_provenance_round_trip(quick);
    let textfmt = run_textfmt(quick);
    let fanout = run_watch_fanout(quick);
    let scaling = run_connection_scaling(quick);
    let durability = run_durability(quick);
    let json = render_json(&Report {
        rows,
        read_under_write,
        pipelining,
        provenance,
        textfmt,
        fanout,
        scaling,
        durability,
        quick,
    });
    if let Some(path) = &args.out {
        write_or_exit(path, &json);
    }
    println!("{json}");
}

/// One grid point: a fresh server, a mixed workload of small (Figure 1) and
/// mid-size generated workflows, then the batch validate driver.
fn run_grid_point(shards: usize, workers: usize, clients: usize, requests: usize) -> Row {
    let server = serve(&ServerConfig {
        shards,
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = server.store();

    let mut ids: Vec<WorkflowId> = Vec::new();
    for seed in 0..8u64 {
        let fixture = figure1();
        ids.push(store.register(fixture.spec, Some(fixture.view)));
        let spec = layered_workflow(&LayeredConfig::sized(96), seed);
        let view = topological_block_view(&spec, 6, "blocks").expect("layered spec is a DAG");
        ids.push(store.register(spec, Some(view)));
    }

    let report = validate_throughput(
        server.local_addr(),
        &ids,
        BatchConfig {
            clients,
            requests_per_client: requests,
            pipeline: 1,
        },
    )
    .expect("throughput driver");
    let stats = store.stats();
    let validate = store.verb_histogram(Verb::Validate);
    server.shutdown();

    Row {
        shards,
        workers,
        clients,
        completed: report.completed,
        errors: report.errors,
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
        requests_per_sec: report.requests_per_sec(),
        cache_hits: stats.validate_hits(),
        cache_misses: stats.validate_misses(),
        validate_p50_us: percentile_us(&validate, 0.50),
        validate_p99_us: percentile_us(&validate, 0.99),
    }
}

/// The read-under-write grid point: the same validate workload over one
/// server, idle and with a mutator thread toggling an edge of the first
/// workflow (~2k mutations/sec, every one published as a fresh snapshot and
/// invalidating a cached verdict), alternated over [`REPEATS`].
fn run_read_under_write(quick: bool) -> (ReadUnderWrite, String) {
    let (clients, requests) = if quick { (4, 50) } else { (8, 200) };
    let server = serve(&ServerConfig {
        shards: 4,
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = server.store();

    let mut ids: Vec<WorkflowId> = Vec::new();
    for seed in 0..8u64 {
        let fixture = figure1();
        ids.push(store.register(fixture.spec, Some(fixture.view)));
        let spec = layered_workflow(&LayeredConfig::sized(96), seed);
        let view = topological_block_view(&spec, 6, "blocks").expect("layered spec is a DAG");
        ids.push(store.register(spec, Some(view)));
    }
    let batch = BatchConfig {
        clients,
        requests_per_client: requests,
        pipeline: 1,
    };

    let mut mutations = 0u64;
    let samples = alternate(2, |side| {
        if side == 0 {
            let idle = validate_throughput(server.local_addr(), &ids, batch).expect("idle pass");
            return idle.requests_per_sec();
        }
        let stop = AtomicBool::new(false);
        let (contended, toggled) = std::thread::scope(|scope| {
            let mutator = scope.spawn(|| {
                let mut toggled = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (from, to) = (
                        "Check additional annotations".to_owned(),
                        "Build phylo tree".to_owned(),
                    );
                    let op = if (mutations + toggled) % 2 == 0 {
                        MutateOp::AddEdge { from, to }
                    } else {
                        MutateOp::RemoveEdge { from, to }
                    };
                    store.mutate(ids[0], op).expect("toggle edge");
                    toggled += 1;
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                toggled
            });
            let contended =
                validate_throughput(server.local_addr(), &ids, batch).expect("contended pass");
            stop.store(true, Ordering::Relaxed);
            (contended, mutator.join().expect("mutator thread"))
        });
        mutations += toggled;
        contended.requests_per_sec()
    });
    let snapshot_publishes = store.stats().snapshot_publishes();
    let validate = store.verb_histogram(Verb::Validate);
    let mutate = store.verb_histogram(Verb::Mutate);
    let exposition = store.metrics_text();
    server.shutdown();

    (
        ReadUnderWrite {
            idle_rps: median(samples[0].clone()),
            contended_rps: median(samples[1].clone()),
            ratio: median_ratio(&samples[0], &samples[1]),
            mutations,
            snapshot_publishes,
            validate_p50_us: percentile_us(&validate, 0.50),
            validate_p99_us: percentile_us(&validate, 0.99),
            mutate_p50_us: percentile_us(&mutate, 0.50),
            mutate_p99_us: percentile_us(&mutate, 0.99),
        },
        exposition,
    )
}

/// One-write-per-request vs pipelined, same connection count: the
/// round-trip collapse pipelining exists for.
struct Pipelining {
    clients: usize,
    depth: usize,
    baseline_rps: f64,
    pipelined_rps: f64,
    /// Median of the per-repeat `pipelined_rps / baseline_rps`.
    speedup: f64,
}

/// Validate throughput while N idle connections sit on the event loops —
/// idle clients must cost file descriptors, not threads or throughput. The
/// rate is the median of [`REPEATS`] timed passes after an untimed one;
/// `completed` and `errors` sum the timed passes.
struct ScalingRow {
    idle_target: usize,
    idle_open: usize,
    completed: usize,
    errors: usize,
    requests_per_sec: f64,
}

/// One fsync policy of the durability grid.
struct PolicyRow {
    policy: &'static str,
    /// Median of the per-repeat `memory rate / this rate`.
    over_memory: f64,
    /// The repeats summarised: median rate and restart times, merged
    /// histograms, summed group-commit counts.
    summary: Burst,
}

struct Durability {
    mutators: usize,
    mutations_per_thread: usize,
    rows: Vec<PolicyRow>,
    /// Median of the per-repeat `os-flush rate / strict rate`.
    group_commit_ratio: f64,
}

fn temp_root() -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wolves-service-bench-{}-{unique}",
        std::process::id()
    ))
}

/// A server preloaded with eight Figure 1 workflows.
fn fixture_server(
    shards: usize,
    workers: usize,
) -> (wolves_service::ServerHandle, Vec<WorkflowId>) {
    let server = serve(&ServerConfig {
        shards,
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = server.store();
    let ids: Vec<WorkflowId> = (0..8)
        .map(|_| {
            let fixture = figure1();
            store.register(fixture.spec, Some(fixture.view))
        })
        .collect();
    (server, ids)
}

fn run_pipelining(quick: bool) -> Pipelining {
    let (clients, requests, depth) = if quick { (4, 400, 32) } else { (4, 2000, 32) };
    let (server, ids) = fixture_server(4, 4);
    let addr = server.local_addr();

    let samples = alternate(2, |side| {
        let batch = BatchConfig {
            clients,
            requests_per_client: requests,
            pipeline: [1, depth][side],
        };
        validate_throughput(addr, &ids, batch)
            .expect("validate pass")
            .requests_per_sec()
    });

    server.shutdown();

    Pipelining {
        clients,
        depth,
        baseline_rps: median(samples[0].clone()),
        pipelined_rps: median(samples[1].clone()),
        speedup: median_ratio(&samples[1], &samples[0]),
    }
}

/// The `edit-revalidate` lattice, 25 tasks wide (`layers: 400` is its
/// 10,000 tasks), under its view of 48-task topological blocks.
fn lattice(layers: usize) -> (WorkflowSpec, WorkflowView) {
    let config = LayeredConfig {
        layers,
        min_width: 25,
        max_width: 25,
        edge_probability: 0.08,
        skip_probability: 0.02,
    };
    let spec = layered_workflow(&config, 2303);
    let view = topological_block_view(&spec, 48, "blocks").expect("a layered spec is a DAG");
    (spec, view)
}

fn run_provenance_round_trip(quick: bool) -> ProvenanceRoundTrip {
    let calls = if quick { 40 } else { 200 };
    let (spec, view) = lattice(400);
    let tasks = spec.task_count();
    // the first task of the middle layer: about half the lattice is upstream
    let subject = spec
        .tasks()
        .map(|(_, task)| task.name.clone())
        .find(|name| name.starts_with("L200-"))
        .expect("the lattice has 400 layers");
    let server = serve(&ServerConfig {
        shards: 1,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = server.store();
    let id = store.register(spec, Some(view));
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    // the first query builds the view's index; every timed one hits it
    let answer = store
        .provenance(id, &subject)
        .expect("a registered subject");
    let samples: [_; 2] = interleave(calls, |side| {
        let start = Instant::now();
        let names = if side == 0 {
            client.provenance(id, &subject).expect("round trip")
        } else {
            store.provenance(id, &subject).expect("in-process query")
        };
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(names.len(), answer.len(), "both sides serve the answer");
        elapsed
    });
    drop(client);
    server.shutdown();
    ProvenanceRoundTrip {
        tasks,
        answer_names: answer.len(),
        round_trip_us: median(samples[0].clone()),
        in_process_us: median(samples[1].clone()),
        ratio: median_ratio(&samples[0], &samples[1]),
        decode: run_client_decode(answer, quick),
    }
}

/// Decodes `answer`'s frame through one [`FrameReader`] kept across calls,
/// as a client connection keeps its reader, against encoding the answer
/// into one reused buffer, as the server's write buffer is, and against
/// cloning it. Decoded answers and clones are dropped outside the timed
/// span.
fn run_client_decode(answer: Vec<String>, quick: bool) -> ClientDecode {
    let calls = if quick { 200 } else { 1000 };
    let answer = Response::Provenance(answer);
    let mut frame = String::new();
    answer.encode(&mut frame);
    let mut reader = FrameReader::new(Replay {
        frame: frame.as_bytes(),
        at: 0,
    });
    let mut encoded = String::with_capacity(frame.len());
    let samples: [_; 3] = interleave(calls, |side| {
        let start = Instant::now();
        match side {
            0 => {
                let frame = reader.next_frame().expect("a replayed frame");
                let decoded = Response::from_frame(frame.expect("a frame")).expect("a response");
                let elapsed = start.elapsed().as_secs_f64() * 1e6;
                assert!(decoded == answer, "the decode returns the answer");
                elapsed
            }
            1 => {
                encoded.clear();
                answer.encode(&mut encoded);
                let elapsed = start.elapsed().as_secs_f64() * 1e6;
                assert_eq!(encoded.len(), frame.len(), "the encode writes the frame");
                elapsed
            }
            _ => {
                let clone = std::hint::black_box(answer.clone());
                let elapsed = start.elapsed().as_secs_f64() * 1e6;
                drop(clone);
                elapsed
            }
        }
    });
    ClientDecode {
        frame_bytes: frame.len(),
        decode_us: median(samples[0].clone()),
        encode_us: median(samples[1].clone()),
        clone_us: median(samples[2].clone()),
        ratio: median_ratio(&samples[0], &samples[1]),
        over_clone: median_ratio(&samples[0], &samples[2]),
    }
}

/// Times the text format's parse and render on the `edit-revalidate`
/// lattice at 2,500 and 10,000 tasks, the two sizes taking turns call by
/// call, then the decode of a `register` frame.
fn run_textfmt(quick: bool) -> Textfmt {
    let calls = if quick { 6 } else { 20 };
    let payloads: Vec<(usize, String)> = [100, 400]
        .into_iter()
        .map(|layers| {
            let (spec, view) = lattice(layers);
            (spec.task_count(), write_text_format(&spec, Some(&view)))
        })
        .collect();
    let parsed: Vec<_> = payloads
        .iter()
        .map(|(_, payload)| read_text_format(payload).expect("a rendered lattice parses"))
        .collect();
    let parse: [_; 2] = interleave(calls, |side| {
        let start = Instant::now();
        let imported = read_text_format(&payloads[side].1);
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        drop(imported.expect("a rendered lattice parses"));
        elapsed
    });
    let render: [_; 2] = interleave(calls, |side| {
        let start = Instant::now();
        let text = write_text_format(&parsed[side].spec, parsed[side].view.as_ref());
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(
            text.len(),
            payloads[side].1.len(),
            "the render writes the payload"
        );
        elapsed
    });
    let rows = (0..2)
        .map(|side| TextfmtRow {
            tasks: payloads[side].0,
            payload_bytes: payloads[side].1.len(),
            parse_us: median(parse[side].clone()),
            render_us: median(render[side].clone()),
        })
        .collect();
    Textfmt {
        rows,
        parse_growth: median_ratio(&parse[1], &parse[0]),
        render_growth: median_ratio(&render[1], &render[0]),
        register: run_register_decode(quick),
    }
}

/// Decodes a replayed `register` frame through one [`FrameReader`] kept
/// across calls, as a connection keeps its decoder, into a request, and
/// parses its payload; the two are timed apart, call by call.
fn run_register_decode(quick: bool) -> RegisterDecode {
    let calls = if quick { 100 } else { 500 };
    let spec = layered_workflow(&LayeredConfig::sized(300), 921);
    let view =
        random_partition_view(&spec, spec.task_count() / 5, 921, "random").expect("a partition");
    let mut frame = String::new();
    Request::Register {
        payload: write_text_format(&spec, Some(&view)),
    }
    .encode(&mut frame);
    let mut reader = FrameReader::new(Replay {
        frame: frame.as_bytes(),
        at: 0,
    });
    let mut decode = Vec::with_capacity(calls);
    let mut parse = Vec::with_capacity(calls);
    for _ in 0..calls {
        let start = Instant::now();
        let decoded = reader
            .next_frame()
            .expect("a replayed frame")
            .expect("a frame");
        let request = Request::from_frame(decoded).expect("a register request");
        decode.push(start.elapsed().as_secs_f64() * 1e6);
        let Request::Register { payload } = request else {
            panic!("the frame is a register request");
        };
        let start = Instant::now();
        let imported = read_text_format(&payload);
        parse.push(start.elapsed().as_secs_f64() * 1e6);
        drop(imported.expect("the payload parses"));
    }
    RegisterDecode {
        tasks: spec.task_count(),
        frame_bytes: frame.len(),
        decode_us: median(decode),
        parse_us: median(parse),
    }
}

fn run_connection_scaling(quick: bool) -> Vec<ScalingRow> {
    let idle_grid: Vec<usize> = if quick {
        vec![0, 500]
    } else {
        vec![0, 1000, 5000]
    };
    let requests = if quick { 200 } else { 500 };
    let mut rows = Vec::new();
    for &idle_target in &idle_grid {
        let (server, ids) = fixture_server(2, 4);
        let addr = server.local_addr();
        let mut idle = Vec::with_capacity(idle_target);
        for _ in 0..idle_target {
            // stop at the fd limit instead of failing the whole bench; the
            // row records how many actually opened
            let Ok(stream) = TcpStream::connect(addr) else {
                break;
            };
            idle.push(stream);
        }
        let config = BatchConfig {
            clients: 4,
            requests_per_client: requests,
            pipeline: 8,
        };
        // one untimed pass first: a cold pass right after the idle
        // connections open swings several-fold on the same code
        validate_throughput(addr, &ids, config).expect("warm-up pass");
        let passes: Vec<_> = (0..REPEATS)
            .map(|_| validate_throughput(addr, &ids, config).expect("scaling pass"))
            .collect();
        rows.push(ScalingRow {
            idle_target,
            idle_open: idle.len(),
            completed: passes.iter().map(|p| p.completed).sum(),
            errors: passes.iter().map(|p| p.errors).sum(),
            requests_per_sec: median(passes.iter().map(|p| p.requests_per_sec()).collect()),
        });
        drop(idle);
        server.shutdown();
    }
    rows
}

/// Watchers of the `watch_fanout` row.
const FANOUT_WATCHERS: usize = 8;

/// The composite names a textfmt payload lists, in order.
fn composite_names(payload: &str) -> Vec<String> {
    payload
        .lines()
        .filter_map(|line| line.strip_prefix("composite\t"))
        .filter_map(|rest| rest.split('\t').next())
        .map(str::to_owned)
        .collect()
}

/// Runs [`REPEATS`] passes of `cycles` merge-and-correct cycles on the
/// 10,000-task lattice, each pass timed from its first merge until every
/// watcher holds the pass's last `corrected` event.
fn run_watch_fanout(quick: bool) -> WatchFanout {
    let cycles = if quick { 6 } else { 24 };
    let (spec, view) = lattice(400);
    let tasks = spec.task_count();
    let server = serve(&ServerConfig {
        shards: 1,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = server.store();
    let id = store.register(spec, Some(view));
    // a sound view to start from; the first merge joins its first and last
    // composites, the last downstream of the first
    let sound = composite_names(&store.correct(id, Strategy::Weak).expect("correct").payload);
    let mut parts = vec![sound[0].clone(), sound[sound.len() - 1].clone()];
    let mut round = 0;
    let mut rates = Vec::with_capacity(REPEATS);
    let mut bytes_per_event = 0;
    for _ in 0..REPEATS {
        let streams: Vec<_> = (0..FANOUT_WATCHERS)
            .map(|_| {
                ServiceClient::connect(server.local_addr())
                    .and_then(|client| client.watch(id, WatchMode::Tail))
                    .expect("open a watcher")
            })
            .collect();
        let start = Instant::now();
        let watchers: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                std::thread::spawn(move || {
                    let mut seen = 0;
                    loop {
                        let event = stream.next_event().expect("a watched event");
                        if matches!(event, WatchEvent::Corrected { .. }) {
                            seen += 1;
                            if seen == cycles {
                                return event;
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..cycles {
            let name = format!("merged-{round}");
            round += 1;
            store
                .mutate(
                    id,
                    MutateOp::Merge {
                        name: name.clone(),
                        composites: std::mem::take(&mut parts),
                    },
                )
                .expect("merge the last correction's parts");
            let corrected = store.correct(id, Strategy::Weak).expect("correct");
            parts = composite_names(&corrected.payload)
                .into_iter()
                .filter(|part| part.strip_prefix(&name).is_some_and(|p| p.starts_with('/')))
                .collect();
            assert!(parts.len() > 1, "the merge made the view unsound");
        }
        for watcher in watchers {
            let mut frame = String::new();
            watcher.join().expect("a watcher").encode(&mut frame);
            bytes_per_event = frame.len();
        }
        rates.push((cycles * FANOUT_WATCHERS) as f64 / start.elapsed().as_secs_f64());
    }
    server.shutdown();
    WatchFanout {
        tasks,
        watchers: FANOUT_WATCHERS,
        cycles,
        events_per_sec: median(rates),
        bytes_per_event,
    }
}

/// Per-thread pipelined batch depth of the mutation burst: mutations defer
/// durability into one [`DurabilityBarrier`] per batch, exactly like the
/// server settles a readiness pass's frames.
const GC_PIPELINE: usize = 8;

/// The durability grid's policies: the in-memory store, then the WAL's two
/// fsync policies — the default OS flush (process-crash durable) and
/// strict group commit (`strict_fsync`, power-loss durable).
const POLICIES: [(&str, Option<bool>); 3] = [
    ("memory", None),
    ("wal-os-flush", Some(false)),
    ("wal-fsync-every-record", Some(true)),
];

/// One repeat of one policy.
#[derive(Default)]
struct Burst {
    rps: f64,
    mutate: HistogramSnapshot,
    wal_append: HistogramSnapshot,
    fsync: HistogramSnapshot,
    batches: u64,
    absorbed: u64,
    recovery_ms: f64,
    compacted_recovery_ms: f64,
    replayed_records: usize,
}

/// Opens (and recovers) a one-shard durable store on `root`. One shard:
/// every mutator funnels into the same segment, which is the worst case for
/// per-append fsyncs and exactly what group commit is for.
fn open_durable(root: &Path, strict_fsync: bool) -> (WorkflowStore, RecoveryReport) {
    let backend = FileBackend::open(PersistConfig {
        shards: 1,
        strict_fsync,
        ..PersistConfig::new(root)
    })
    .expect("open file backend");
    WorkflowStore::open(Arc::new(backend)).expect("recover data dir")
}

/// One mutation burst against a fresh store (in memory, or durable with
/// `strict_fsync`): `mutators` threads × `per_thread` mutate+validate
/// rounds, each thread on its own workflow, settled in pipelined batches of
/// [`GC_PIPELINE`]. A durable store is then reopened twice: once replaying
/// the log (cold recovery), once from the snapshot that recovery compacted.
fn mutation_burst(strict_fsync: Option<bool>, mutators: usize, per_thread: usize) -> Burst {
    let root = temp_root();
    let store = match strict_fsync {
        None => WorkflowStore::new(1),
        Some(strict_fsync) => open_durable(&root, strict_fsync).0,
    };
    // realistic op weight: each mutator owns a ~500-task layered workflow
    // and toggles a long forward edge (first layer → last layer; the
    // generator never connects layers that far apart, so the add is always
    // fresh and trivially acyclic)
    let targets: Vec<(WorkflowId, String, String)> = (0..mutators)
        .map(|seed| {
            let spec = layered_workflow(&LayeredConfig::sized(512), seed as u64);
            let (mut from, mut to, mut deepest) = (String::new(), String::new(), 0usize);
            for (_, task) in spec.tasks() {
                let layer: usize = task
                    .params
                    .get("layer")
                    .and_then(|l| l.parse().ok())
                    .unwrap_or(0);
                if layer == 0 && from.is_empty() {
                    from = task.name.clone();
                }
                if layer >= deepest {
                    deepest = layer;
                    to = task.name.clone();
                }
            }
            let view = topological_block_view(&spec, 48, "blocks").expect("layered spec is a DAG");
            let id = store
                .try_register(spec, Some(view))
                .expect("register workflow durably");
            (id, from, to)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (target, from, to) in &targets {
            let store = &store;
            scope.spawn(move || {
                let mut index = 0;
                while index < per_thread {
                    let batch_end = (index + GC_PIPELINE).min(per_thread);
                    let mut barrier = DurabilityBarrier::default();
                    for i in index..batch_end {
                        let (from, to) = (from.clone(), to.clone());
                        let op = if i % 2 == 0 {
                            MutateOp::AddEdge { from, to }
                        } else {
                            MutateOp::RemoveEdge { from, to }
                        };
                        let (_, ticket) = store
                            .mutate_deferred(*target, op, None)
                            .expect("toggle edge");
                        barrier.fold(ticket);
                        // closed loop: every edit is followed by a
                        // soundness check of the view, as in the paper's
                        // workflow — the mutation bumped the epoch, so this
                        // recomputes verdicts rather than serving cached
                        // ones
                        store.validate(*target, None).expect("revalidate view");
                    }
                    // acknowledge the batch: one group-commit wait covers
                    // all of its records (a no-op in os-flush mode)
                    store.await_durability(&barrier).expect("settle batch");
                    index = batch_end;
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let observed = store.backend().observe();
    let mut burst = Burst {
        rps: (mutators * per_thread) as f64 / elapsed.as_secs_f64().max(1e-9),
        mutate: store.verb_histogram(Verb::Mutate),
        wal_append: store.stage_histogram(Stage::WalAppend),
        fsync: store.stage_histogram(Stage::Fsync),
        batches: observed.group_commit_batch.count(),
        absorbed: observed.group_commit_absorbed,
        ..Burst::default()
    };
    drop(store);
    if let Some(strict_fsync) = strict_fsync {
        let check = targets[0].0;
        let start = Instant::now();
        let (store, report) = open_durable(&root, strict_fsync);
        burst.recovery_ms = start.elapsed().as_secs_f64() * 1e3;
        burst.replayed_records = report.replayed_records;
        assert!(
            store.validate(check, None).is_ok(),
            "recovered store answers"
        );
        drop(store);
        let start = Instant::now();
        let (store, _) = open_durable(&root, strict_fsync);
        burst.compacted_recovery_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            store.validate(check, None).is_ok(),
            "compacted store answers"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }
    burst
}

/// Every policy's burst, alternated over [`REPEATS`] so the in-memory
/// baseline is not always the cold first pass.
fn run_durability(quick: bool) -> Durability {
    // enough concurrent mutators that a leader's fsync has a full group
    // stacked behind it — the acceptance floor is 8, the amortisation story
    // needs more
    let mutators = if quick { 32 } else { 64 };
    let per_thread = if quick { 50 } else { 200 };
    let samples = alternate(POLICIES.len(), |side| {
        mutation_burst(POLICIES[side].1, mutators, per_thread)
    });
    let rates: Vec<Vec<f64>> = samples
        .iter()
        .map(|bursts| bursts.iter().map(|b| b.rps).collect())
        .collect();
    let rows = POLICIES
        .iter()
        .zip(&samples)
        .zip(&rates)
        .map(|((&(policy, _), bursts), policy_rates)| {
            let mut summary = Burst {
                rps: median(policy_rates.clone()),
                recovery_ms: median(bursts.iter().map(|b| b.recovery_ms).collect()),
                compacted_recovery_ms: median(
                    bursts.iter().map(|b| b.compacted_recovery_ms).collect(),
                ),
                replayed_records: bursts[0].replayed_records,
                ..Burst::default()
            };
            for burst in bursts {
                summary.mutate.merge(&burst.mutate);
                summary.wal_append.merge(&burst.wal_append);
                summary.fsync.merge(&burst.fsync);
                summary.batches += burst.batches;
                summary.absorbed += burst.absorbed;
            }
            PolicyRow {
                policy,
                over_memory: median_ratio(&rates[0], policy_rates),
                summary,
            }
        })
        .collect();
    Durability {
        mutators,
        mutations_per_thread: per_thread,
        rows,
        group_commit_ratio: median_ratio(&rates[1], &rates[2]),
    }
}

/// Watch subscriptions the connection smoke holds among its `target`
/// connections.
const SMOKE_WATCHERS: usize = 1000;

/// Mutations each of the smoke's eight burst clients commits.
const SMOKE_BURST: usize = 100;

/// The CI smoke: hold `target` connections on the event loops — up to
/// [`SMOKE_WATCHERS`] of them watching, the rest idle — while a mutation
/// burst and a pipelined validate pass run through them, then prove every
/// watcher received every event of its workflow in sequence and a sample of
/// the idle connections is still served. Non-zero exit on any failure.
fn run_connection_smoke(target: usize) -> i32 {
    // holding idle connections is the point of this smoke, so the idle
    // reclamation sweep is off — opening and probing tens of thousands of
    // sockets takes longer than any sensible production idle timeout
    let server = serve(&ServerConfig {
        shards: 2,
        workers: 4,
        read_timeout_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let store = server.store();
    let ids: Vec<WorkflowId> = (0..8)
        .map(|_| {
            let fixture = figure1();
            store.register(fixture.spec, Some(fixture.view))
        })
        .collect();
    let addr = server.local_addr();

    let probe_count = 8.min(target.max(1));
    let mut probes = Vec::new();
    for _ in 0..probe_count {
        match wolves_service::ServiceClient::connect(addr) {
            Ok(client) => probes.push(client),
            Err(e) => {
                eprintln!("conn-smoke: cannot open probe connection: {e}");
                return 1;
            }
        }
    }
    // the watchers spread over the burst's workflows; the ack means the
    // subscription is registered, so each one sees the whole burst
    let watcher_count = SMOKE_WATCHERS.min(target.saturating_sub(probe_count));
    let mut watchers = Vec::with_capacity(watcher_count);
    for index in 0..watcher_count {
        let id = ids[index % ids.len()];
        let timeout = Some(std::time::Duration::from_secs(30));
        let watched = wolves_service::ServiceClient::connect_with(addr, timeout)
            .and_then(|client| client.watch(id, WatchMode::Tail));
        match watched {
            Ok(stream) => watchers.push(stream),
            Err(e) => {
                eprintln!("conn-smoke: cannot open watcher {index}: {e}");
                return 1;
            }
        }
    }
    let held = probe_count + watcher_count;
    let mut idle = Vec::with_capacity(target.saturating_sub(held));
    while idle.len() + held < target {
        match TcpStream::connect(addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => {
                eprintln!(
                    "conn-smoke: opened only {} of {target} connections: {e} \
                     (raise `ulimit -n`?)",
                    idle.len() + held
                );
                return 1;
            }
        }
    }

    // the burst: 8 TCP mutator clients toggling their own workflows while
    // the idle connections sit on the loop
    let burst_ok = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &target_id in &ids {
            handles.push(scope.spawn(move || {
                let Ok(mut client) = wolves_service::ServiceClient::connect(addr) else {
                    return false;
                };
                for index in 0..SMOKE_BURST {
                    let op = if index % 2 == 0 {
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
                    if client.mutate(target_id, op).is_err() {
                        return false;
                    }
                }
                true
            }));
        }
        handles.into_iter().all(|h| h.join().unwrap_or(false))
    });
    if !burst_ok {
        eprintln!("conn-smoke: mutation burst failed under {target} idle connections");
        return 1;
    }

    let report = validate_throughput(
        addr,
        &ids,
        BatchConfig {
            clients: 4,
            requests_per_client: 200,
            pipeline: 8,
        },
    )
    .expect("smoke validate pass");
    if report.errors > 0 || report.completed == 0 {
        eprintln!(
            "conn-smoke: validate pass degraded: {} completed, {} errors",
            report.completed, report.errors
        );
        return 1;
    }

    // every watcher got its workflow's whole burst, gap-free and in order
    for (index, stream) in watchers.iter_mut().enumerate() {
        let base = stream.ack().seq;
        for offset in 1..=SMOKE_BURST as u64 {
            match stream.next_event() {
                Ok(event) if event.seq() == base + offset => {}
                Ok(event) => {
                    eprintln!(
                        "conn-smoke: watcher {index} got seq {} where {} was due",
                        event.seq(),
                        base + offset
                    );
                    return 1;
                }
                Err(e) => {
                    eprintln!("conn-smoke: watcher {index} lost its stream: {e}");
                    return 1;
                }
            }
        }
    }

    // the probes sat idle through the whole burst; they must still be live
    for (index, probe) in probes.iter_mut().enumerate() {
        if let Err(e) = probe.stats() {
            eprintln!("conn-smoke: idle probe {index} no longer served: {e}");
            return 1;
        }
    }
    let open = server.store().metrics_text();
    let gauge = open
        .lines()
        .find(|l| l.starts_with("wolves_open_connections "))
        .map(str::to_owned)
        .unwrap_or_default();
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("Threads:"))
                .map(str::to_owned)
        })
        .unwrap_or_default();
    drop(idle);
    drop(watchers);
    drop(probes);
    server.shutdown();
    println!(
        "conn-smoke: held {target} connections ({watcher_count} watching, each saw all \
         {SMOKE_BURST} events) through burst + {} validates ({gauge}; process {threads})",
        report.completed
    );
    0
}

/// Everything one run measured, as [`render_json`] writes it.
struct Report {
    rows: Vec<Row>,
    read_under_write: ReadUnderWrite,
    pipelining: Pipelining,
    provenance: ProvenanceRoundTrip,
    textfmt: Textfmt,
    fanout: WatchFanout,
    scaling: Vec<ScalingRow>,
    durability: Durability,
    quick: bool,
}

fn render_json(report: &Report) -> String {
    let Report {
        rows,
        read_under_write,
        pipelining,
        provenance,
        textfmt,
        fanout,
        scaling,
        durability,
        quick,
    } = report;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"wolves-service throughput\",");
    let _ = writeln!(out, "  \"workload\": \"validate over loopback TCP\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"shards\": {}, \"workers\": {}, \"clients\": {}, \"completed\": {}, \
             \"errors\": {}, \"elapsed_ms\": {:.3}, \"requests_per_sec\": {:.1}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"validate_p50_us\": {:.3}, \"validate_p99_us\": {:.3}}}",
            row.shards,
            row.workers,
            row.clients,
            row.completed,
            row.errors,
            row.elapsed_ms,
            row.requests_per_sec,
            row.cache_hits,
            row.cache_misses,
            row.validate_p50_us,
            row.validate_p99_us
        );
        out.push_str(if index + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"read_under_write\": {{\"idle_rps\": {:.1}, \"contended_rps\": {:.1}, \
         \"ratio\": {:.3}, \"mutations\": {}, \"snapshot_publishes\": {}, \
         \"validate_p50_us\": {:.3}, \"validate_p99_us\": {:.3}, \
         \"mutate_p50_us\": {:.3}, \"mutate_p99_us\": {:.3}}},",
        read_under_write.idle_rps,
        read_under_write.contended_rps,
        read_under_write.ratio,
        read_under_write.mutations,
        read_under_write.snapshot_publishes,
        read_under_write.validate_p50_us,
        read_under_write.validate_p99_us,
        read_under_write.mutate_p50_us,
        read_under_write.mutate_p99_us
    );
    let _ = writeln!(
        out,
        "  \"pipelining\": {{\"clients\": {}, \"depth\": {}, \"baseline_rps\": {:.1}, \
         \"pipelined_rps\": {:.1}, \"speedup\": {:.3}}},",
        pipelining.clients,
        pipelining.depth,
        pipelining.baseline_rps,
        pipelining.pipelined_rps,
        pipelining.speedup
    );
    let _ = writeln!(
        out,
        "  \"provenance_round_trip\": {{\"tasks\": {}, \"answer_names\": {}, \
         \"round_trip_us\": {:.1}, \"in_process_us\": {:.1}, \"ratio\": {:.3}}},",
        provenance.tasks,
        provenance.answer_names,
        provenance.round_trip_us,
        provenance.in_process_us,
        provenance.ratio
    );
    let _ = writeln!(
        out,
        "  \"client_decode\": {{\"answer_names\": {}, \"frame_bytes\": {}, \
         \"decode_us\": {:.1}, \"encode_us\": {:.1}, \"clone_us\": {:.1}, \
         \"ratio\": {:.3}, \"over_clone\": {:.3}}},",
        provenance.answer_names,
        provenance.decode.frame_bytes,
        provenance.decode.decode_us,
        provenance.decode.encode_us,
        provenance.decode.clone_us,
        provenance.decode.ratio,
        provenance.decode.over_clone
    );
    // one row per workload and size: `textfmt/parse`, then `textfmt/render`
    out.push_str("  \"textfmt\": {\"rows\": [\n");
    let timed = |row: &TextfmtRow, parse: bool| if parse { row.parse_us } else { row.render_us };
    let mut first = true;
    for (workload, parse) in [("textfmt/parse", true), ("textfmt/render", false)] {
        for row in &textfmt.rows {
            let median_us = timed(row, parse);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"workload\": \"{workload}\", \"tasks\": {}, \"payload_bytes\": {}, \
                 \"median_us\": {median_us:.1}, \"mb_per_s\": {:.1}}}",
                row.tasks,
                row.payload_bytes,
                row.payload_bytes as f64 / median_us.max(1e-9)
            );
        }
    }
    let _ = writeln!(
        out,
        "\n  ], \"parse_growth\": {:.3}, \"render_growth\": {:.3}}},",
        textfmt.parse_growth, textfmt.render_growth
    );
    let register = &textfmt.register;
    let _ = writeln!(
        out,
        "  \"register_decode\": {{\"tasks\": {}, \"frame_bytes\": {}, \
         \"decode_us\": {:.1}, \"parse_us\": {:.1}}},",
        register.tasks, register.frame_bytes, register.decode_us, register.parse_us
    );
    let _ = writeln!(
        out,
        "  \"watch_fanout\": {{\"tasks\": {}, \"watchers\": {}, \"cycles\": {}, \
         \"repeats\": {REPEATS}, \"events_per_sec\": {:.1}, \"bytes_per_event\": {}}},",
        fanout.tasks, fanout.watchers, fanout.cycles, fanout.events_per_sec, fanout.bytes_per_event
    );
    out.push_str("  \"connection_scaling\": [\n");
    for (index, row) in scaling.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"idle_target\": {}, \"idle_open\": {}, \"completed\": {}, \
             \"errors\": {}, \"requests_per_sec\": {:.1}}}",
            row.idle_target, row.idle_open, row.completed, row.errors, row.requests_per_sec
        );
        out.push_str(if index + 1 < scaling.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"durability\": {{\"mutators\": {}, \"mutations_per_thread\": {}, \
         \"repeats\": {REPEATS}, \"rows\": [",
        durability.mutators, durability.mutations_per_thread
    );
    for (index, row) in durability.rows.iter().enumerate() {
        let burst = &row.summary;
        let _ = write!(
            out,
            "    {{\"policy\": \"{}\", \"mutations_per_sec\": {:.1}, \
             \"over_memory\": {:.3}, \"recovery_ms\": {:.2}, \
             \"compacted_recovery_ms\": {:.2}, \"replayed_records\": {}, \
             \"mutate_p50_us\": {:.3}, \"mutate_p99_us\": {:.3}, \
             \"wal_append_p50_us\": {:.3}, \"wal_append_p99_us\": {:.3}, \
             \"fsync_p50_us\": {:.3}, \"fsync_p99_us\": {:.3}, \
             \"group_commit_batches\": {}, \"group_commit_absorbed\": {}, \
             \"mean_batch\": {:.3}}}",
            row.policy,
            burst.rps,
            row.over_memory,
            burst.recovery_ms,
            burst.compacted_recovery_ms,
            burst.replayed_records,
            percentile_us(&burst.mutate, 0.50),
            percentile_us(&burst.mutate, 0.99),
            percentile_us(&burst.wal_append, 0.50),
            percentile_us(&burst.wal_append, 0.99),
            percentile_us(&burst.fsync, 0.50),
            percentile_us(&burst.fsync, 0.99),
            burst.batches,
            burst.absorbed,
            (burst.absorbed + burst.batches) as f64 / burst.batches.max(1) as f64
        );
        out.push_str(if index + 1 < durability.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]},\n");
    // CI perf guards: each value is a median over the alternated repeats;
    // `min_*`/`max_*` is the bound and `*_within_bound` what CI greps
    let guards = [
        (
            "pipelining_speedup",
            pipelining.speedup,
            "min",
            MIN_PIPELINING_SPEEDUP,
        ),
        (
            "group_commit_ratio",
            durability.group_commit_ratio,
            "max",
            MAX_GROUP_COMMIT_RATIO,
        ),
        (
            "read_under_write_ratio",
            read_under_write.ratio,
            "max",
            MAX_READ_UNDER_WRITE_RATIO,
        ),
        (
            "wal_os_flush_over_memory",
            durability.rows[1].over_memory,
            "max",
            MAX_WAL_OVER_MEMORY,
        ),
        (
            "provenance_round_trip",
            provenance.ratio,
            "max",
            MAX_PROVENANCE_ROUND_TRIP,
        ),
        (
            "client_decode",
            provenance.decode.ratio,
            "max",
            MAX_CLIENT_DECODE,
        ),
        (
            "textfmt_parse_near_linear",
            textfmt.parse_growth,
            "max",
            MAX_TEXTFMT_PARSE_GROWTH,
        ),
    ];
    let _ = writeln!(out, "  \"guard\": {{");
    let _ = writeln!(out, "    \"repeats\": {REPEATS},");
    for (index, (name, value, kind, bound)) in guards.iter().enumerate() {
        let within = if *kind == "min" {
            value >= bound
        } else {
            value <= bound
        };
        let _ = writeln!(out, "    \"{name}\": {value:.3},");
        let _ = writeln!(out, "    \"{kind}_{name}\": {bound},");
        let _ = write!(out, "    \"{name}_within_bound\": {within}");
        out.push_str(if index + 1 < guards.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
