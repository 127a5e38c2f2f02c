//! `correct-audit`: a repository audit. Every iteration uploads a fresh
//! unsound case (standard-suite cases and random partitions of 100–500-task
//! layered workflows) as text, then `validate` (a miss), `correct`,
//! `validate` on the corrected version and `provenance`. Strategies cycle
//! weak → strong → optimal; optimal only gets views whose unsound
//! composites fit `OptimalCorrector`'s default 18-task limit. It is the only
//! workload that exercises `core::correct`, textfmt on large payloads and
//! reachability builds at register time: few requests, each large.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wolves_core::correct::{OptimalCorrector, Strategy};
use wolves_moml::{read_text_format, write_text_format};
use wolves_provenance::view_level_provenance;
use wolves_repo::{layered_workflow, random_partition_view, standard_suite, LayeredConfig};
use wolves_service::{ServerHandle, ServiceClient, WorkflowStore};
use wolves_workflow::{TaskId, WorkflowSpec, WorkflowView};

use crate::common::{
    account, closed_loop, closed_loop_limited, connect, derive, end_to_end, later_setups,
    peak_rss_mb, start_server, ClientLog, Outcome, Rng, Slots, CLIENTS, SETUP_REPEATS, SHARDS,
};
use crate::steps::{self, Traced};
use crate::trace::{self, Ladder, ServedDelta};
use crate::RunConfig;

const SUITE_CASES: usize = 12;
const RANDOM_CASES: usize = 32;
/// Mean composite size of the random partitions.
const GROUP: usize = 5;
/// Audits each set-up runs before the window (one per strategy).
const WARM_UP: usize = 3;
const STRATEGIES: [Strategy; 3] = [Strategy::Weak, Strategy::Strong, Strategy::Optimal];

/// One unsound case and its from-scratch verdict.
struct Case {
    payload: String,
    spec: WorkflowSpec,
    view: WorkflowView,
    unsound: Vec<String>,
    fits_optimal: bool,
    subject: (String, TaskId),
}

fn case(spec: &WorkflowSpec, view: &WorkflowView, rng: &mut Rng) -> Option<Case> {
    let payload = write_text_format(spec, Some(view));
    let parsed = read_text_format(&payload).expect("a rendered workflow parses");
    let spec = parsed.spec;
    let view = parsed.view.expect("the payload carries its view");
    let unsound = steps::unsound_names(&spec, &view);
    if unsound.is_empty() {
        return None;
    }
    let limit = OptimalCorrector::default().max_tasks;
    let fits_optimal = view
        .composites()
        .filter(|(_, c)| unsound.contains(&c.name))
        .all(|(_, c)| c.len() <= limit);
    let tasks: Vec<(String, TaskId)> = spec.tasks().map(|(id, t)| (t.name.clone(), id)).collect();
    let subject = tasks[rng.below(tasks.len())].clone();
    Some(Case {
        payload,
        spec,
        view,
        unsound,
        fits_optimal,
        subject,
    })
}

/// The case pool: 12 unsound standard-suite cases plus 32 random
/// partitions whose sizes are fixed and whose structure the seed picks.
fn cases(seed: u64, corrupt: bool) -> Vec<Case> {
    let mut rng = Rng::new(derive(seed, 3));
    let mut out: Vec<Case> = Vec::new();
    let mut suite_seed = derive(seed, 4) % 1_000;
    while out.len() < SUITE_CASES {
        for c in standard_suite(suite_seed..suite_seed + 1) {
            if out.len() < SUITE_CASES {
                out.extend(case(&c.spec, &c.view, &mut rng));
            }
        }
        suite_seed += 1;
    }
    for i in 0..RANDOM_CASES {
        let size = 100 + i * 400 / (RANDOM_CASES - 1);
        // random partitions are almost always unsound; redraw the rare one
        // that is not, so the pool's sizes never depend on the seed
        for attempt in 0.. {
            let tag = (i * 100 + attempt) as u64;
            let spec = layered_workflow(&LayeredConfig::sized(size), derive(seed, 10_000 + tag));
            let groups = spec.task_count() / GROUP;
            let view = random_partition_view(&spec, groups, derive(seed, 20_000 + tag), "random")
                .expect("a partition");
            if let Some(c) = case(&spec, &view, &mut rng) {
                out.push(c);
                break;
            }
        }
    }
    if corrupt {
        // the last case: set-up warms with the first, and must not abort
        if let Some(last) = out.last_mut() {
            last.unsound.push("no such composite".to_owned());
        }
    }
    out
}

struct Client {
    index: usize,
    audits: usize,
    traced: Option<Traced>,
}

impl Client {
    /// The strategy and case of the next audit: strategies in turn, cases
    /// in turn per strategy, each client on its own stride.
    fn next(&mut self, pool: &[Case], optimal: &[usize]) -> (Strategy, usize) {
        let strategy = STRATEGIES[self.audits % STRATEGIES.len()];
        let turn = self.audits / STRATEGIES.len() * CLIENTS + self.index;
        self.audits += 1;
        let case = if strategy == Strategy::Optimal {
            optimal[turn % optimal.len()]
        } else {
            turn % pool.len()
        };
        (strategy, case)
    }
}

fn begin(traced: &mut Option<Traced>) {
    if let Some(t) = traced.as_mut() {
        t.ladder.begin_step();
    }
}

fn end(traced: &mut Option<Traced>) {
    if let Some(t) = traced.as_mut() {
        t.ladder.end_step();
    }
}

/// One audit: upload, validate (miss), correct, validate the corrected
/// version, provenance — every answer checked against a from-scratch
/// computation outside the timed requests.
fn audit(
    state: &mut Client,
    client: &mut ServiceClient,
    log: &mut ClientLog,
    pool: &[Case],
    optimal: &[usize],
) {
    let (strategy, index) = state.next(pool, optimal);
    let case = &pool[index];

    begin(&mut state.traced);
    if let Some(t) = state.traced.as_mut() {
        let rendered = t.ladder.span("textfmt.render", || {
            write_text_format(&case.spec, Some(&case.view))
        });
        std::hint::black_box(rendered);
    }
    let ids = steps::register(client, log, state.traced.as_mut(), &case.payload);
    if let Some(t) = state.traced.as_mut() {
        steps::register_rungs(&mut t.ladder, &case.payload, &case.spec);
    }
    end(&mut state.traced);
    let Some(ids) = ids else {
        return;
    };

    begin(&mut state.traced);
    let verdict = steps::validate(client, log, state.traced.as_mut(), ids);
    if let Some(t) = state.traced.as_mut() {
        let members = case.view.composites().map(|(_, c)| c.members());
        steps::soundness_rung(&mut t.ladder, &case.spec, members);
    }
    end(&mut state.traced);
    if let Some(v) = verdict {
        if v.sound || v.unsound != case.unsound {
            log.fail(format!(
                "validate of an uploaded case: served {:?}, from scratch {:?}",
                v.unsound, case.unsound
            ));
        }
    }

    begin(&mut state.traced);
    let corrected = steps::correct(client, log, state.traced.as_mut(), ids, strategy);
    if let Some(t) = state.traced.as_mut() {
        steps::correct_rung(&mut t.ladder, &case.spec, &case.view, strategy);
    }
    let parsed = corrected.as_ref().map(|c| match state.traced.as_mut() {
        Some(t) => t
            .ladder
            .span("textfmt.parse", || read_text_format(&c.payload)),
        None => read_text_format(&c.payload),
    });
    if let (Some(t), Some(c)) = (state.traced.as_mut(), &corrected) {
        t.ladder.value("payload.bytes", c.payload.len() as f64);
    }
    end(&mut state.traced);
    let Some(corrected) = corrected else {
        return;
    };
    let (spec, view) = match parsed {
        Some(Ok(parsed)) if parsed.view.is_some() => {
            (parsed.spec, parsed.view.expect("checked above"))
        }
        _ => {
            log.fail(format!("{strategy} correction payload does not parse"));
            return;
        }
    };
    let same_tasks = spec.task_count() == case.spec.task_count()
        && case
            .spec
            .tasks()
            .all(|(_, t)| spec.task_by_name(&t.name).is_some());
    if !same_tasks || view.validate_against(&spec).is_err() {
        log.fail(format!(
            "{strategy} correction does not partition the original tasks"
        ));
    } else if !steps::unsound_names(&spec, &view).is_empty() {
        log.fail(format!("{strategy} correction is not sound"));
    }

    begin(&mut state.traced);
    let verdict = steps::validate(client, log, state.traced.as_mut(), ids);
    if let Some(t) = state.traced.as_mut() {
        let members = view.composites().map(|(_, c)| c.members());
        steps::soundness_rung(&mut t.ladder, &spec, members);
    }
    end(&mut state.traced);
    if let Some(v) = verdict {
        if !v.sound || v.version != corrected.version {
            log.fail(format!(
                "validate after {strategy} correction: sound={} version={} (corrected version {})",
                v.sound, v.version, corrected.version
            ));
        }
    }

    let (subject, task) = &case.subject;
    begin(&mut state.traced);
    let served = steps::provenance(client, log, state.traced.as_mut(), ids, subject);
    if let Some(t) = state.traced.as_mut() {
        let index = steps::index_rung(&mut t.ladder, &spec, &view);
        steps::query_rung(&mut t.ladder, &index, &view, *task);
    }
    end(&mut state.traced);
    if let Some(served) = served {
        let expected = steps::names(&spec, view_level_provenance(&spec, &view, *task).tasks);
        if served != expected {
            log.fail(format!(
                "provenance of '{subject}' after {strategy} correction: {} tasks served, \
                 {} from scratch",
                served.len(),
                expected.len()
            ));
        }
    }
}

fn clients(shadow: Option<&Arc<WorkflowStore>>, thread_base: u64) -> Vec<Client> {
    (0..CLIENTS)
        .map(|index| Client {
            index,
            audits: 0,
            traced: shadow.map(|s| Traced {
                ladder: Ladder::new(thread_base + index as u64),
                shadow: Arc::clone(s),
            }),
        })
        .collect()
}

/// Starts a server for one repository, uploads the whole case pool and
/// warms it with one audit per strategy.
fn set_up(pool: &[Case], optimal: &[usize], mut traced: Option<&mut Traced>) -> ServerHandle {
    let server = start_server(WorkflowStore::new(SHARDS));
    let mut client = connect(&server);
    let mut log = ClientLog::default();
    let mut state = Client {
        index: 0,
        audits: 0,
        traced: traced.as_deref_mut().map(|t| Traced {
            ladder: std::mem::take(&mut t.ladder),
            shadow: Arc::clone(&t.shadow),
        }),
    };
    for case in pool {
        begin(&mut state.traced);
        let _ = steps::register(&mut client, &mut log, state.traced.as_mut(), &case.payload);
        if let Some(t) = state.traced.as_mut() {
            steps::register_rungs(&mut t.ladder, &case.payload, &case.spec);
        }
        end(&mut state.traced);
    }
    for _ in 0..WARM_UP {
        audit(&mut state, &mut client, &mut log, pool, optimal);
    }
    if let (Some(t), Some(warmed)) = (traced, state.traced) {
        t.ladder = warmed.ladder;
    }
    if log.failed > 0 {
        eprintln!("perfbench: correct-audit set-up failed: {:?}", log.failures);
        std::process::exit(1);
    }
    server
}

/// The store keeps every uploaded case, so the window runs in parts, each a
/// repository of its own on a fresh server: this many audits per client
/// (about a second's worth), which bounds the benchmark's memory. Every
/// part replays the same audits and is one slot of the slot medians.
const AUDITS_PER_PART: usize = 300;
/// Length of the traced and the untraced part of a traced pair.
const PART_SECONDS: f64 = 1.0;

pub fn run(cfg: &RunConfig) -> Outcome {
    let pool = cases(cfg.seed, cfg.corrupt);
    let optimal: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].fits_optimal).collect();
    let mut outcome = Outcome::default();
    outcome.report.push(format!(
        "case pool: {} unsound cases, {} fit the optimal corrector",
        pool.len(),
        optimal.len()
    ));
    let audits =
        |s: &mut Client, c: &mut ServiceClient, l: &mut ClientLog| audit(s, c, l, &pool, &optimal);
    if !cfg.trace {
        let window = Duration::from_secs_f64(cfg.seconds);
        let mut measured = Duration::ZERO;
        let mut setup_s = Vec::new();
        let mut log = ClientLog::default();
        let mut peak_rss = None;
        while measured < window {
            let start = Instant::now();
            let server = set_up(&pool, &optimal, None);
            setup_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let (part_log, _) = closed_loop_limited(
                server.local_addr(),
                window - measured,
                AUDITS_PER_PART,
                Slots::Fixed(setup_s.len() as u64),
                clients(None, 0),
                audits,
            );
            measured += start.elapsed();
            log.merge(part_log);
            // one repository's peak, before any server was shut down: later
            // parts only add how the allocator recycles the freed ones
            peak_rss.get_or_insert_with(peak_rss_mb);
            server.shutdown();
        }
        let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);
        if setup_s.len() < SETUP_REPEATS {
            setup_s.extend(later_setups(|| set_up(&pool, &optimal, None)));
        }
        account(&log, &mut outcome);
        end_to_end(&log, &setup_s, peak_rss, &mut outcome);
        return outcome;
    }

    // traced: pairs of a traced and an untraced part on a fresh served store
    // and a fresh shadow store
    let pairs = (cfg.seconds / (2.0 * PART_SECONDS)).round().max(1.0) as usize;
    let part = Duration::from_secs_f64(cfg.seconds / (2 * pairs) as f64);
    let mut ladders = Vec::new();
    let mut traced_log = ClientLog::default();
    let mut plain_log = ClientLog::default();
    let mut served = ServedDelta::default();
    let mut probe = None;
    for pair in 0..pairs as u64 {
        let shadow = Arc::new(WorkflowStore::new(SHARDS));
        let mut setup_trace = Traced {
            ladder: Ladder::new(1000 + pair),
            shadow: Arc::clone(&shadow),
        };
        let server = set_up(&pool, &optimal, Some(&mut setup_trace));
        let store = server.store();
        let before = ServedDelta::read(&store);
        let clients_traced = clients(Some(&shadow), pair * CLIENTS as u64);
        let (log, states) = closed_loop(server.local_addr(), part, clients_traced, audits);
        served = served.plus(ServedDelta::read(&store).since(before));
        traced_log.merge(log);
        ladders.extend(
            states
                .into_iter()
                .filter_map(|c| c.traced.map(|t| t.ladder)),
        );
        let (log, _) = closed_loop(server.local_addr(), part, clients(None, 0), audits);
        plain_log.merge(log);
        server.shutdown();
        if let Some((previous, _)) = probe.replace((setup_trace, shadow)) {
            ladders.push(previous.ladder);
        }
    }
    // correct-audit never edits: probe the edge rungs on its largest cases,
    // on the last shadow store only (fresh registrations no audit touches)
    let (mut setup_trace, shadow) = probe.expect("at least one pair");
    let mut probe_log = ClientLog::default();
    for (pick, index) in (pool.len().saturating_sub(4)..pool.len()).enumerate() {
        let c = &pool[index];
        probe_log.attempted += 1;
        match shadow.register_text(&c.payload) {
            Ok(id) => steps::probe_edge_toggle(&mut setup_trace, id, &c.spec, pick * 7919),
            Err(e) => probe_log.fail(format!("shadow register for the edge probe failed: {e}")),
        }
    }
    ladders.push(setup_trace.ladder);
    account(&traced_log, &mut outcome);
    account(&plain_log, &mut outcome);
    account(&probe_log, &mut outcome);
    outcome.metrics = trace::per_layer(
        ladders,
        &traced_log,
        served,
        trace::overhead_pct(&traced_log, &plain_log),
        &crate::spans_path("correct-audit", cfg.seed),
    );
    outcome
}
