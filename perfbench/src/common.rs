//! Shared pieces of the three workloads: the seeded generator, the server
//! under test, the closed-loop clients, latency statistics and the
//! result line.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wolves_service::{
    serve_with_store, Request, Response, ServerConfig, ServerHandle, ServiceClient, WorkflowStore,
};

use crate::trace::Ladder;

/// Store shards and server worker threads: the serving defaults of
/// `ServerConfig` with `shards = workers = 2`, one worker per client.
pub const SHARDS: usize = 2;
/// Client connections (and client threads) of every workload.
pub const CLIENTS: usize = 2;
/// How often set-up runs per benchmark run; `setup_s` is the median. The
/// first set-up serves the window; the others run after it, so the window
/// and the peak-memory reading see one server's allocations only.
pub const SETUP_REPEATS: usize = 3;

/// Evenly spread, seed-independent picks: the `k`-th point of the
/// golden-ratio sequence scaled to `0..n` (`n > 0`).
pub fn spread_pick(k: u64, n: usize) -> usize {
    let golden = 0.618_033_988_749_894_9_f64;
    (((k as f64 * golden).fract()) * n as f64) as usize % n
}

/// splitmix64: a small, fast, seedable generator, so the inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for one generated input, derived from the run seed and a tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ tag).next_u64()
}

/// The client-visible verbs the workloads time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Validate,
    Provenance,
    Mutate,
    Correct,
    Register,
}

impl Verb {
    pub const ALL: [Verb; 5] = [
        Verb::Validate,
        Verb::Provenance,
        Verb::Mutate,
        Verb::Correct,
        Verb::Register,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Validate => "validate",
            Verb::Provenance => "provenance",
            Verb::Mutate => "mutate",
            Verb::Correct => "correct",
            Verb::Register => "register",
        }
    }

    /// The in-process store span that answers this verb in the ladder.
    pub fn store_span(self) -> &'static str {
        match self {
            Verb::Validate => "store.validate",
            Verb::Provenance => "store.provenance",
            Verb::Mutate => "store.mutate",
            Verb::Correct => "store.correct",
            Verb::Register => "store.register",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Length of one slot of the window. Metrics are computed per slot and the
/// median over slots is reported, so a transient stall of the shared
/// machine moves them less than it would move one pooled figure.
pub const SLOT: Duration = Duration::from_secs(1);
/// How a window is cut into slots.
#[derive(Debug, Clone, Copy)]
pub enum Slots {
    /// One slot per `SLOT` of wall time.
    Time,
    /// One slot per this many cycles of each client, so every slot holds
    /// the same mix of a scripted loop.
    Cycles(u64),
    /// Every sample in this slot: a window run in identical parts, one slot
    /// per part.
    Fixed(u64),
}

/// Fewest samples a slot needs to count towards a quantile's median.
const MIN_SLOT_SAMPLES: usize = 20;
/// Samples are packed as `slot << SLOT_SHIFT | nanoseconds`.
const SLOT_SHIFT: u32 = 40;
const NS_MASK: u64 = (1 << SLOT_SHIFT) - 1;

/// What one client thread saw: per-verb round-trip latencies and cycle
/// latencies (each tagged with its slot), attempts, failures and the time
/// spent inside requests per slot.
#[derive(Debug)]
pub struct ClientLog {
    latency: [Vec<u64>; 5],
    cycles: Vec<u64>,
    busy_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    origin: Instant,
    slots: Slots,
    cycles_done: u64,
    cycle_acc: u64,
    cycle_broken: bool,
}

impl Default for ClientLog {
    fn default() -> Self {
        ClientLog::starting(Slots::Time)
    }
}

impl ClientLog {
    /// A log whose slots count from now.
    pub fn starting(slots: Slots) -> Self {
        ClientLog {
            latency: Default::default(),
            cycles: Vec::new(),
            busy_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            origin: Instant::now(),
            slots,
            cycles_done: 0,
            cycle_acc: 0,
            cycle_broken: false,
        }
    }

    fn slot(&self) -> u64 {
        match self.slots {
            Slots::Time => (self.origin.elapsed().as_nanos() / SLOT.as_nanos()) as u64,
            Slots::Cycles(n) => self.cycles_done / n,
            Slots::Fixed(slot) => slot,
        }
    }

    /// Sends one request, timing only the round trip. A transport or server
    /// error counts as a failed attempt and yields `None`.
    pub fn call(
        &mut self,
        client: &mut ServiceClient,
        verb: Verb,
        request: &Request,
        ladder: Option<&mut Ladder>,
    ) -> Option<Response> {
        self.attempted += 1;
        let start = Instant::now();
        let outcome = client.call(request);
        let elapsed = start.elapsed();
        let ns = duration_ns(elapsed).min(NS_MASK);
        if let Some(ladder) = ladder {
            ladder.client_rung(verb, request, outcome.as_ref().ok(), start, elapsed);
        }
        match outcome {
            Ok(response) => {
                let slot = self.slot();
                self.latency[verb.index()].push(slot << SLOT_SHIFT | ns);
                let index = slot as usize;
                if self.busy_ns.len() <= index {
                    self.busy_ns.resize(index + 1, 0);
                }
                self.busy_ns[index] += ns;
                self.cycle_acc += ns;
                Some(response)
            }
            Err(e) => {
                self.fail(format!("{} request failed: {e}", verb.name()));
                None
            }
        }
    }

    /// Counts a wrong answer (or a failed request) against the attempts.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.cycle_broken = true;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Closes one cycle of the workload's loop: its latency is the sum of
    /// its request round trips, kept only when every request succeeded.
    pub fn end_cycle(&mut self) {
        if !self.cycle_broken {
            let ns = self.cycle_acc.min(NS_MASK);
            self.cycles.push(self.slot() << SLOT_SHIFT | ns);
        }
        self.cycles_done += 1;
        self.cycle_acc = 0;
        self.cycle_broken = false;
    }

    pub fn merge(&mut self, other: ClientLog) {
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.extend(theirs);
        }
        self.cycles.extend(other.cycles);
        if self.busy_ns.len() < other.busy_ns.len() {
            self.busy_ns.resize(other.busy_ns.len(), 0);
        }
        for (mine, theirs) in self.busy_ns.iter_mut().zip(other.busy_ns) {
            *mine += theirs;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for failure in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(failure);
            }
        }
    }

    /// One verb's round-trip latencies in nanoseconds.
    pub fn samples(&self, verb: Verb) -> Vec<u64> {
        self.latency[verb.index()]
            .iter()
            .map(|p| p & NS_MASK)
            .collect()
    }

    pub fn count(&self, verb: Verb) -> usize {
        self.latency[verb.index()].len()
    }

    /// Completed requests per second of request time, per slot.
    fn ops_per_s_by_slot(&self) -> Vec<f64> {
        let mut done = vec![0u64; self.busy_ns.len()];
        for packed in self.latency.iter().flatten() {
            done[(packed >> SLOT_SHIFT) as usize] += 1;
        }
        done.iter()
            .zip(&self.busy_ns)
            .filter(|(&n, _)| n as usize >= MIN_SLOT_SAMPLES)
            .map(|(&n, &busy)| n as f64 / (busy as f64 / 1e9 / CLIENTS as f64))
            .collect()
    }
}

/// Quantile `q` in microseconds of packed samples: per slot, then the median
/// over the slots with enough samples (the pooled quantile when none has).
fn slot_quantile_us(packed: &[u64], q: f64) -> f64 {
    let mut slots: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for p in packed {
        slots
            .entry(p >> SLOT_SHIFT)
            .or_default()
            .push((p & NS_MASK) as f64);
    }
    let per_slot: Vec<f64> = slots
        .into_values()
        .filter(|v| v.len() >= MIN_SLOT_SAMPLES)
        .map(|v| quantile(&sorted_f64(v), q))
        .collect();
    let ns = if per_slot.is_empty() {
        quantile(&sorted_f64(packed.iter().map(|p| (p & NS_MASK) as f64)), q)
    } else {
        median(per_slot)
    };
    ns / 1e3
}

/// Runs `CLIENTS` closed-loop client threads for `window`, each on its own
/// connection: `cycle` sends one cycle of requests and is called until the
/// window closes. Returns the merged log.
pub fn closed_loop<S: Send>(
    addr: SocketAddr,
    window: Duration,
    states: Vec<S>,
    cycle: impl Fn(&mut S, &mut ServiceClient, &mut ClientLog) + Sync,
) -> (ClientLog, Vec<S>) {
    closed_loop_limited(addr, window, usize::MAX, Slots::Time, states, cycle)
}

/// [`closed_loop`] where each client also stops after `max_cycles` cycles,
/// with the given slot rule.
pub fn closed_loop_limited<S: Send>(
    addr: SocketAddr,
    window: Duration,
    max_cycles: usize,
    slots: Slots,
    states: Vec<S>,
    cycle: impl Fn(&mut S, &mut ServiceClient, &mut ClientLog) + Sync,
) -> (ClientLog, Vec<S>) {
    let barrier = Barrier::new(states.len());
    let results: Vec<(ClientLog, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let barrier = &barrier;
                let cycle = &cycle;
                scope.spawn(move || {
                    let mut client = match ServiceClient::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            barrier.wait();
                            let mut log = ClientLog::default();
                            log.attempted += 1;
                            log.fail(format!("connect failed: {e}"));
                            return (log, state);
                        }
                    };
                    barrier.wait();
                    let mut log = ClientLog::starting(slots);
                    let deadline = Instant::now() + window;
                    let mut cycles = 0;
                    while cycles < max_cycles && Instant::now() < deadline {
                        cycle(&mut state, &mut client, &mut log);
                        log.end_cycle();
                        cycles += 1;
                    }
                    (log, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = ClientLog::default();
    let mut states = Vec::with_capacity(results.len());
    for (log, state) in results {
        merged.merge(log);
        states.push(state);
    }
    (merged, states)
}

/// Starts the server under test on loopback: the default configuration with
/// two shards and two workers, over `store`.
pub fn start_server(store: WorkflowStore) -> ServerHandle {
    let config = ServerConfig {
        shards: SHARDS,
        workers: CLIENTS,
        ..ServerConfig::default()
    };
    serve_with_store(&config, Arc::new(store)).expect("bind loopback server")
}

/// The set-ups after the window: each timed, then shut down. Returns their
/// durations in seconds.
pub fn later_setups(set_up: impl Fn() -> ServerHandle) -> Vec<f64> {
    (1..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let server = set_up();
            let elapsed = start.elapsed().as_secs_f64();
            server.shutdown();
            elapsed
        })
        .collect()
}

/// Connects a set-up client.
pub fn connect(server: &ServerHandle) -> ServiceClient {
    ServiceClient::connect(server.local_addr()).expect("connect to the loopback server")
}

/// A unique scratch directory under `.perfbench/tmp` in the working
/// directory (the benchmark reads and writes nowhere else).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".perfbench")
        .join("tmp")
        .join(format!("{tag}-{}-{unique}", std::process::id()))
}

pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Quantile `q` of `sorted` with linear interpolation between ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

pub fn sorted_f64(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted_f64(values), 0.5)
}

/// Latency quantile in microseconds.
pub fn latency_us(samples_ns: &[u64], q: f64) -> f64 {
    quantile(&sorted_f64(samples_ns.iter().map(|&ns| ns as f64)), q) / 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB; the server runs in
/// this process, so this covers server, clients and oracles.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle failures found after the window (end-of-run checks).
    pub final_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.final_failures.is_empty()
    }
}

/// The end-to-end metrics of an untraced window, plus a per-verb report of
/// every verb the workload sent (pooled, with its sample count).
pub fn end_to_end(log: &ClientLog, setup_s: &[f64], peak_rss_mb: f64, outcome: &mut Outcome) {
    let mut push = |name: &str, value: f64, unit: &'static str| {
        outcome.metrics.push(Metric::new(name, value, unit));
    };
    push("setup_s", median(setup_s.iter().copied()), "s");
    push("ops_per_s", median(log.ops_per_s_by_slot()), "1/s");
    push("peak_rss_mb", peak_rss_mb, "MB");
    for verb in [Verb::Validate, Verb::Provenance] {
        let samples = &log.latency[verb.index()];
        push(
            &format!("{}_p50_us", verb.name()),
            slot_quantile_us(samples, 0.50),
            "us",
        );
        push(
            &format!("{}_p90_us", verb.name()),
            slot_quantile_us(samples, 0.90),
            "us",
        );
    }
    push("cycle_p50_us", slot_quantile_us(&log.cycles, 0.50), "us");
    push("cycle_p90_us", slot_quantile_us(&log.cycles, 0.90), "us");
    let mut line = |name: &str, ns: Vec<u64>| {
        outcome.report.push(format!(
            "{name:<11} n={:<8} p50={:.1}us p90={:.1}us p99={:.1}us",
            ns.len(),
            latency_us(&ns, 0.50),
            latency_us(&ns, 0.90),
            latency_us(&ns, 0.99),
        ));
    };
    for verb in Verb::ALL {
        if log.count(verb) > 0 {
            line(verb.name(), log.samples(verb));
        }
    }
    line("cycle", log.cycles.iter().map(|p| p & NS_MASK).collect());
}

/// Folds the window's log into the outcome's attempt and failure counts.
pub fn account(log: &ClientLog, outcome: &mut Outcome) {
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
    for failure in &log.failures {
        outcome.report.push(format!("FAILED: {failure}"));
    }
}
