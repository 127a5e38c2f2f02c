//! The traced ladder: spans recorded by the benchmark around each call it
//! makes into a layer's public entry point, kept in memory, written out once
//! at the end, and reduced to the per-layer metrics.
//!
//! Every request of a workload's script is one *step* with its own request
//! id. Under the step's root span sit the rungs the ladder replays for it:
//! the client round trip, the wire codec, the same verb on an in-process
//! shadow `WorkflowStore` that sees the same operations in the same order,
//! and the library calls below the store (`ReachMatrix`, soundness,
//! correction, provenance index, textfmt).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use wolves_service::{Request, Response};

use crate::common::{duration_ns, latency_us, median, ClientLog, Metric, Verb};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(at: Instant) -> u64 {
    duration_ns(at.saturating_duration_since(epoch()))
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the same ladder, or `NO_PARENT`.
    parent: u32,
    request: u64,
}

/// Per-thread span recorder plus the per-layer counts and values that are
/// not durations.
#[derive(Debug, Default)]
pub struct Ladder {
    spans: Vec<Span>,
    root: Option<u32>,
    request: u64,
    thread: u64,
    verbs: BTreeMap<u64, Verb>,
    values: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<String, u64>,
}

impl Ladder {
    pub fn new(thread: u64) -> Self {
        let _ = epoch();
        Ladder {
            thread,
            ..Ladder::default()
        }
    }

    /// Opens a step (one request of the script) with a fresh request id.
    pub fn begin_step(&mut self) {
        self.request += 1;
        let index = self.push("step", Instant::now(), NO_PARENT);
        self.root = Some(index);
    }

    pub fn end_step(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root as usize].end_ns = since_epoch(Instant::now());
        }
    }

    fn request_id(&self) -> u64 {
        (self.thread << 40) | self.request
    }

    fn push(&mut self, name: &'static str, start: Instant, parent: u32) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        let at = since_epoch(start);
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent,
            request: self.request_id(),
        });
        index
    }

    /// Times `f` as a span under the current step.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.root.unwrap_or(NO_PARENT);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let index = self.push(name, start, parent);
        self.spans[index as usize].end_ns = since_epoch(end);
        out
    }

    /// Records an already-timed call as a span under the current step.
    pub fn record(&mut self, name: &'static str, start: Instant, elapsed: Duration) {
        let parent = self.root.unwrap_or(NO_PARENT);
        let index = self.push(name, start, parent);
        self.spans[index as usize].end_ns = since_epoch(start + elapsed);
    }

    /// The client rung: the round trip itself, then the wire codec replayed
    /// on the same request and response (`to_lines` is the encoder on both
    /// sides, `from_lines` the decoder).
    pub fn client_rung(
        &mut self,
        verb: Verb,
        request: &Request,
        response: Option<&Response>,
        start: Instant,
        elapsed: Duration,
    ) {
        self.record("client.rtt", start, elapsed);
        let Some(response) = response else {
            return;
        };
        self.verbs.insert(self.request_id(), verb);
        let (request_lines, response_lines) =
            self.span("proto.encode", || (request.to_lines(), response.to_lines()));
        let decoded = self.span("proto.decode", || {
            (
                Request::from_lines(&request_lines),
                Response::from_lines(&response_lines),
            )
        });
        std::hint::black_box((decoded.0.is_ok(), decoded.1.is_ok()));
        let bytes: usize = response_lines.iter().map(|l| l.len() + 1).sum::<usize>() + 2;
        self.value("proto.response_bytes", bytes as f64);
    }

    pub fn value(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    pub fn count(&mut self, name: &str, by: u64) {
        *self.counts.entry(name.to_owned()).or_default() += by;
    }
}

/// Counters read off the served store around the traced window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServedDelta {
    pub validate_hits: u64,
    pub validate_misses: u64,
    pub composite_hits: u64,
    pub composite_misses: u64,
    pub append_bytes: u64,
    pub rotations: u64,
}

impl ServedDelta {
    pub fn read(store: &wolves_service::WorkflowStore) -> Self {
        let stats = store.stats();
        let observed = store.backend().observe();
        ServedDelta {
            validate_hits: stats.validate_hits(),
            validate_misses: stats.validate_misses(),
            composite_hits: stats.composite_hits(),
            composite_misses: stats.composite_misses(),
            append_bytes: observed.append_bytes,
            rotations: observed.rotations,
        }
    }

    pub fn plus(self, other: ServedDelta) -> ServedDelta {
        ServedDelta {
            validate_hits: self.validate_hits + other.validate_hits,
            validate_misses: self.validate_misses + other.validate_misses,
            composite_hits: self.composite_hits + other.composite_hits,
            composite_misses: self.composite_misses + other.composite_misses,
            append_bytes: self.append_bytes + other.append_bytes,
            rotations: self.rotations + other.rotations,
        }
    }

    pub fn since(self, before: ServedDelta) -> ServedDelta {
        ServedDelta {
            validate_hits: self.validate_hits - before.validate_hits,
            validate_misses: self.validate_misses - before.validate_misses,
            composite_hits: self.composite_hits - before.composite_hits,
            composite_misses: self.composite_misses - before.composite_misses,
            append_bytes: self.append_bytes - before.append_bytes,
            rotations: self.rotations - before.rotations,
        }
    }
}

/// Most spans written to the span file; the metrics use every span.
const SPANS_WRITTEN: usize = 200_000;

/// The rungs of one request that the derived metrics combine.
fn unattributed(
    verb: Option<Verb>,
    rungs: &[(&'static str, f64)],
    rtt: &mut Vec<f64>,
    mutate: &mut Vec<f64>,
) {
    let get = |name: &str| -> f64 {
        rungs
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns)
            .sum()
    };
    if let Some(verb) = verb {
        let store = get(verb.store_span());
        if store > 0.0 {
            rtt.push(get("client.rtt") - store - get("proto.encode") - get("proto.decode"));
        }
    }
    if rungs.iter().any(|(n, _)| *n == "store.mutate") {
        let reach = get("reach.insert_edge")
            + get("reach.remove_edge")
            + get("reach.insert_node")
            + get("reach.remove_node");
        mutate.push(get("store.mutate") - reach);
    }
}

/// Reduces the ladders of one traced run to the per-layer metrics, writing
/// the first `SPANS_WRITTEN` spans to `spans_path` (TSV: request, name,
/// start, end, parent line, self time; times in nanoseconds).
pub fn per_layer(
    ladders: Vec<Ladder>,
    window: &ClientLog,
    served: ServedDelta,
    overhead_pct: f64,
    spans_path: &Path,
) -> Vec<Metric> {
    let mut self_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    // derived per-request rungs: what the layers below do not account for
    let mut unattributed_rtt = Vec::new();
    let mut unattributed_mutate = Vec::new();

    if let Some(dir) = spans_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut out = std::fs::File::create(spans_path)
        .ok()
        .map(std::io::BufWriter::new);
    let mut written = 0usize;
    for ladder in ladders {
        // a span's self time is its duration minus what its children cover;
        // rungs of one step run one after another, so children never overlap
        let mut child_ns = vec![0u64; ladder.spans.len()];
        for span in &ladder.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        // a step's spans are contiguous, so requests are grouped in one pass
        let mut request = None;
        let mut rungs: Vec<(&'static str, f64)> = Vec::new();
        let offset = written;
        for (index, span) in ladder.spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[index]) as f64;
            self_ns.entry(span.name).or_default().push(own);
            if request != Some(span.request) {
                if let Some(done) = request {
                    let verb = ladder.verbs.get(&done).copied();
                    unattributed(
                        verb,
                        &rungs,
                        &mut unattributed_rtt,
                        &mut unattributed_mutate,
                    );
                }
                request = Some(span.request);
                rungs.clear();
            }
            rungs.push((span.name, own));
            if let Some(out) = out.as_mut().filter(|_| written < SPANS_WRITTEN) {
                let parent = if span.parent == NO_PARENT {
                    -1
                } else {
                    (offset + span.parent as usize) as i64
                };
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}",
                    span.request, span.name, span.start_ns, span.end_ns, parent, own
                );
                written += 1;
            }
        }
        if let Some(done) = request {
            let verb = ladder.verbs.get(&done).copied();
            unattributed(
                verb,
                &rungs,
                &mut unattributed_rtt,
                &mut unattributed_mutate,
            );
        }
        for (name, v) in ladder.values {
            values.entry(name).or_default().extend(v);
        }
        for (name, n) in ladder.counts {
            *counts.entry(name).or_default() += n;
        }
    }
    if let Some(mut out) = out {
        let _ = out.flush();
    }

    let us = |name: &str| -> f64 {
        self_ns
            .get(name)
            .map_or(0.0, |v| median(v.iter().copied()) / 1e3)
    };
    let mean = |name: &str| -> f64 {
        values
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mutations = window.count(Verb::Mutate) as u64;
    let validates = window.count(Verb::Validate) as u64;

    vec![
        Metric::new("client.rtt_us", us("client.rtt"), "us"),
        Metric::new("reach.build_us", us("reach.build"), "us"),
        Metric::new("reach.insert_edge_us", us("reach.insert_edge"), "us"),
        Metric::new("reach.remove_edge_us", us("reach.remove_edge"), "us"),
        Metric::new(
            "reach.delta.monotone-safe",
            count("reach.delta.monotone-safe"),
            "count",
        ),
        Metric::new(
            "reach.delta.decremental",
            count("reach.delta.decremental"),
            "count",
        ),
        Metric::new(
            "reach.delta.local-rebuild",
            count("reach.delta.local-rebuild"),
            "count",
        ),
        Metric::new(
            "reach.delta.structural",
            count("reach.delta.structural"),
            "count",
        ),
        Metric::new("soundness.verdict_us", us("soundness.verdict"), "us"),
        Metric::new(
            "soundness.verdicts",
            ratio(served.composite_misses, validates),
            "count",
        ),
        Metric::new("correct.view_us", us("correct.view"), "us"),
        Metric::new(
            "correct.parts_per_composite",
            mean("correct.parts_per_composite"),
            "count",
        ),
        Metric::new(
            "provenance.index_build_us",
            us("provenance.index_build"),
            "us",
        ),
        Metric::new("provenance.query_us", us("provenance.query"), "us"),
        Metric::new(
            "provenance.answer_tasks",
            mean("provenance.answer_tasks"),
            "count",
        ),
        Metric::new("textfmt.parse_us", us("textfmt.parse"), "us"),
        Metric::new("textfmt.render_us", us("textfmt.render"), "us"),
        Metric::new("payload.bytes", mean("payload.bytes"), "bytes"),
        Metric::new("store.validate_us", us("store.validate"), "us"),
        Metric::new("store.mutate_us", us("store.mutate"), "us"),
        Metric::new("store.provenance_us", us("store.provenance"), "us"),
        Metric::new("store.correct_us", us("store.correct"), "us"),
        Metric::new("store.register_us", us("store.register"), "us"),
        Metric::new(
            "store.mutate_unattributed_us",
            median(unattributed_mutate) / 1e3,
            "us",
        ),
        Metric::new(
            "store.validate_hit_ratio",
            ratio(
                served.validate_hits,
                served.validate_hits + served.validate_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "store.composite_hit_ratio",
            ratio(
                served.composite_hits,
                served.composite_hits + served.composite_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "store.invalidated_per_mutate",
            mean("store.invalidated"),
            "count",
        ),
        Metric::new("store.retained_per_mutate", mean("store.retained"), "count"),
        Metric::new(
            "wal.append_bytes_per_mutate",
            ratio(served.append_bytes, mutations),
            "bytes",
        ),
        Metric::new("wal.rotations", served.rotations as f64, "count"),
        Metric::new("proto.encode_us", us("proto.encode"), "us"),
        Metric::new("proto.decode_us", us("proto.decode"), "us"),
        Metric::new(
            "proto.response_bytes",
            mean("proto.response_bytes"),
            "bytes",
        ),
        Metric::new("rtt.unattributed_us", median(unattributed_rtt) / 1e3, "us"),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// Tracing overhead: the traced window's client round trips against the
/// untraced window's, per verb at the median, weighted by the traced
/// window's request mix.
pub fn overhead_pct(traced: &ClientLog, untraced: &ClientLog) -> f64 {
    let mut traced_total = 0.0;
    let mut untraced_total = 0.0;
    for verb in Verb::ALL {
        let (t, u) = (traced.samples(verb), untraced.samples(verb));
        if t.is_empty() || u.is_empty() {
            continue;
        }
        let weight = t.len() as f64;
        traced_total += weight * latency_us(&t, 0.5);
        untraced_total += weight * latency_us(&u, 0.5);
    }
    if untraced_total == 0.0 {
        return 0.0;
    }
    (traced_total / untraced_total - 1.0) * 100.0
}
