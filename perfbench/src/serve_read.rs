//! `serve-read`: a store preloaded with 64 workflows (16 Figure 1 fixtures
//! and 48 layered workflows of 96–2,000 tasks under topological block
//! views), read by 80% `validate` and 20% `provenance` on seeded subjects,
//! every answer a cache hit after warm-up. It exercises the round-trip
//! stack — client, wire codec, server I/O, the store's hit path — and
//! bypasses soundness, reachability maintenance and the WAL.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wolves_moml::{read_text_format, write_text_format};
use wolves_provenance::{view_level_provenance, ViewProvenanceIndex};
use wolves_repo::{figure1, layered_workflow, topological_block_view, LayeredConfig};
use wolves_service::{ServerHandle, ServiceClient, WorkflowStore};
use wolves_workflow::{TaskId, WorkflowSpec, WorkflowView};

use crate::common::{
    account, closed_loop, connect, derive, end_to_end, later_setups, peak_rss_mb, start_server,
    ClientLog, Outcome, Rng, SHARDS,
};
use crate::steps::{self, Ids, Traced};
use crate::trace::{self, Ladder, ServedDelta};
use crate::RunConfig;

const FIXTURES: usize = 16;
const LAYERED: usize = 48;
const SUBJECTS: usize = 8;
/// Requests per cycle: four validates, then one provenance query.
const CYCLE: usize = 5;

/// One preloaded workflow with its from-scratch answers.
struct Workflow {
    payload: String,
    /// The spec and view as the server holds them (parsed from `payload`).
    spec: WorkflowSpec,
    view: WorkflowView,
    subjects: Vec<(String, TaskId)>,
    sound: bool,
    unsound: Vec<String>,
    provenance: Vec<Vec<String>>,
}

fn workflow(spec: &WorkflowSpec, view: &WorkflowView, rng: &mut Rng) -> Workflow {
    let payload = write_text_format(spec, Some(view));
    let parsed = read_text_format(&payload).expect("a rendered workflow parses");
    let spec = parsed.spec;
    let view = parsed.view.expect("the payload carries its view");
    // one subject per eighth of the topological order, so answer sizes
    // spread the same way whatever the seed
    let order = spec.topological_order().expect("inputs are DAGs");
    let subjects: Vec<(String, TaskId)> = (0..SUBJECTS)
        .map(|k| {
            let at = ((k as f64 + rng.unit()) / SUBJECTS as f64 * order.len() as f64) as usize;
            let task = order[at.min(order.len() - 1)];
            (spec.task(task).expect("live task").name.clone(), task)
        })
        .collect();
    let unsound = steps::unsound_names(&spec, &view);
    let provenance = subjects
        .iter()
        .map(|(_, task)| {
            let answer = view_level_provenance(&spec, &view, *task);
            steps::names(&spec, answer.tasks)
        })
        .collect();
    Workflow {
        payload,
        sound: unsound.is_empty(),
        unsound,
        provenance,
        subjects,
        spec,
        view,
    }
}

/// The 64 workflows. Sizes are fixed; the seed picks their structure and
/// the query subjects.
fn inputs(seed: u64, corrupt: bool) -> Vec<Workflow> {
    let mut rng = Rng::new(derive(seed, 1));
    let mut out = Vec::with_capacity(FIXTURES + LAYERED);
    for _ in 0..FIXTURES {
        let fixture = figure1();
        out.push(workflow(&fixture.spec, &fixture.view, &mut rng));
    }
    for i in 0..LAYERED {
        let size = 96 + i * (2000 - 96) / (LAYERED - 1);
        let spec = layered_workflow(&LayeredConfig::sized(size), derive(seed, 100 + i as u64));
        let view = topological_block_view(&spec, 8, "blocks").expect("layered specs are DAGs");
        out.push(workflow(&spec, &view, &mut rng));
    }
    if corrupt {
        out[FIXTURES].sound = !out[FIXTURES].sound;
    }
    out
}

/// Starts a server, registers every workflow and warms every answer the
/// window will ask for. In a traced run the same steps run through the
/// ladder and return the ladder's provenance indexes.
fn set_up(
    inputs: &[Workflow],
    mut traced: Option<&mut Traced>,
) -> (ServerHandle, Vec<Ids>, Vec<ViewProvenanceIndex>) {
    let mut log = ClientLog::default();
    let server = start_server(WorkflowStore::new(SHARDS));
    let mut client = connect(&server);
    let mut ids = Vec::with_capacity(inputs.len());
    let mut indexes = Vec::new();
    for w in inputs {
        if let Some(t) = traced.as_deref_mut() {
            t.ladder.begin_step();
            let rendered = t.ladder.span("textfmt.render", || {
                write_text_format(&w.spec, Some(&w.view))
            });
            std::hint::black_box(rendered);
        }
        let id = steps::register(&mut client, &mut log, traced.as_deref_mut(), &w.payload);
        if let Some(t) = traced.as_deref_mut() {
            steps::register_rungs(&mut t.ladder, &w.payload, &w.spec);
            t.ladder.end_step();
        }
        ids.push(id.unwrap_or_else(|| abort(&log)));
    }
    for (w, &id) in inputs.iter().zip(&ids) {
        if let Some(t) = traced.as_deref_mut() {
            t.ladder.begin_step();
        }
        let _ = steps::validate(&mut client, &mut log, traced.as_deref_mut(), id);
        if let Some(t) = traced.as_deref_mut() {
            let members = w.view.composites().map(|(_, c)| c.members());
            steps::soundness_rung(&mut t.ladder, &w.spec, members);
            t.ladder.end_step();
        }
        for (index, (name, task)) in w.subjects.iter().enumerate() {
            if let Some(t) = traced.as_deref_mut() {
                t.ladder.begin_step();
            }
            let _ = steps::provenance(&mut client, &mut log, traced.as_deref_mut(), id, name);
            if let Some(t) = traced.as_deref_mut() {
                if index == 0 {
                    indexes.push(steps::index_rung(&mut t.ladder, &w.spec, &w.view));
                }
                let built = indexes.last().expect("built for the first subject");
                steps::query_rung(&mut t.ladder, built, &w.view, *task);
                t.ladder.end_step();
            }
        }
    }
    if log.failed > 0 {
        abort(&log);
    }
    (server, ids, indexes)
}

fn abort(log: &ClientLog) -> ! {
    eprintln!("perfbench: serve-read set-up failed: {:?}", log.failures);
    std::process::exit(1);
}

struct Client {
    rng: Rng,
    traced: Option<Traced>,
}

fn cycle(
    state: &mut Client,
    client: &mut ServiceClient,
    log: &mut ClientLog,
    inputs: &[Workflow],
    ids: &[Ids],
    indexes: &[ViewProvenanceIndex],
) {
    for k in 0..CYCLE {
        let w = state.rng.below(inputs.len());
        let input = &inputs[w];
        let subject = state.rng.below(SUBJECTS);
        if let Some(t) = state.traced.as_mut() {
            t.ladder.begin_step();
        }
        if k + 1 < CYCLE {
            if let Some(v) = steps::validate(client, log, state.traced.as_mut(), ids[w]) {
                if v.sound != input.sound || v.unsound != input.unsound {
                    log.fail(format!(
                        "validate of workflow {}: served sound={} {:?}, expected sound={} {:?}",
                        ids[w].served.0, v.sound, v.unsound, input.sound, input.unsound
                    ));
                }
            }
        } else {
            let (name, task) = &input.subjects[subject];
            if let Some(tasks) = steps::provenance(client, log, state.traced.as_mut(), ids[w], name)
            {
                if tasks != input.provenance[subject] {
                    log.fail(format!(
                        "provenance of '{name}' in workflow {}: {} tasks served, {} expected",
                        ids[w].served.0,
                        tasks.len(),
                        input.provenance[subject].len()
                    ));
                }
            }
            if let Some(t) = state.traced.as_mut() {
                steps::query_rung(&mut t.ladder, &indexes[w], &input.view, *task);
            }
        }
        if let Some(t) = state.traced.as_mut() {
            t.ladder.end_step();
        }
    }
}

fn clients(seed: u64, shadow: Option<&Arc<WorkflowStore>>) -> Vec<Client> {
    (0..crate::common::CLIENTS as u64)
        .map(|c| Client {
            rng: Rng::new(derive(seed, 1000 + c)),
            traced: shadow.map(|s| Traced {
                ladder: Ladder::new(c),
                shadow: Arc::clone(s),
            }),
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let inputs = inputs(cfg.seed, cfg.corrupt);
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(cfg.seconds);
    if !cfg.trace {
        let start = Instant::now();
        let (server, ids, _) = set_up(&inputs, None);
        let mut setup_s = vec![start.elapsed().as_secs_f64()];
        let (log, _) = closed_loop(
            server.local_addr(),
            window,
            clients(cfg.seed, None),
            |state, client, log| cycle(state, client, log, &inputs, &ids, &[]),
        );
        let peak_rss = peak_rss_mb();
        let stats = server.store().stats();
        server.shutdown();
        setup_s.extend(later_setups(|| set_up(&inputs, None).0));
        account(&log, &mut outcome);
        end_to_end(&log, &setup_s, peak_rss, &mut outcome);
        outcome.report.push(format!(
            "served validate cache hits {} of {}",
            stats.validate_hits(),
            stats.validate_hits() + stats.validate_misses()
        ));
        return outcome;
    }

    let shadow = Arc::new(WorkflowStore::new(SHARDS));
    let mut setup_trace = Traced {
        ladder: Ladder::new(99),
        shadow: Arc::clone(&shadow),
    };
    let (server, ids, indexes) = set_up(&inputs, Some(&mut setup_trace));
    let store = server.store();
    let half = window / 2;
    let before = ServedDelta::read(&store);
    let (traced_log, traced_clients) = closed_loop(
        server.local_addr(),
        half,
        clients(cfg.seed, Some(&shadow)),
        |state, client, log| cycle(state, client, log, &inputs, &ids, &indexes),
    );
    let served = ServedDelta::read(&store).since(before);
    let (plain_log, _) = closed_loop(
        server.local_addr(),
        half,
        clients(cfg.seed ^ 1, None),
        |state, client, log| cycle(state, client, log, &inputs, &ids, &indexes),
    );
    server.shutdown();
    // serve-read never edits or corrects: probe those layers on its own
    // workflows, on the shadow store only
    for (pick, index) in [FIXTURES + 12, FIXTURES + 24, FIXTURES + 36, FIXTURES + 47]
        .into_iter()
        .enumerate()
    {
        let w = &inputs[index];
        steps::probe_edge_toggle(&mut setup_trace, ids[index].shadow, &w.spec, pick * 7919);
        steps::probe_correct(&mut setup_trace, ids[index].shadow, &w.spec, &w.view);
    }
    let mut ladders = vec![setup_trace.ladder];
    ladders.extend(
        traced_clients
            .into_iter()
            .filter_map(|c| c.traced.map(|t| t.ladder)),
    );
    account(&traced_log, &mut outcome);
    account(&plain_log, &mut outcome);
    outcome.metrics = trace::per_layer(
        ladders,
        &traced_log,
        served,
        trace::overhead_pct(&traced_log, &plain_log),
        &crate::spans_path("serve-read", cfg.seed),
    );
    outcome
}
