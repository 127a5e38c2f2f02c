//! `edit-revalidate`: the paper's interactive editing loop on a durable
//! store (`FileBackend`, `fsync_every = 0`, the `PersistConfig` default).
//! Each client owns one fixed lattice-shaped DAG of 10,000 tasks (400 layers
//! of 25, the deep, wide, regular shape of lattice-QCD provenance graphs) under
//! a 48-task block view of 209 composites, and loops `mutate` → `validate`
//! → `provenance`. The edit script removes and re-adds existing
//! dependencies (decremental, then monotone-safe deltas) and every 8th edit
//! adds a task, the next removes it. It exercises writes beside reads:
//! incremental reachability, the copy-on-write commit, WAL appends,
//! soundness recompute of invalidated composites and provenance index
//! rebuilds.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wolves_graph::ReachMatrix;
use wolves_moml::{read_text_format, write_text_format};
use wolves_provenance::{view_level_provenance, ViewProvenanceIndex};
use wolves_repo::{layered_workflow, topological_block_view, LayeredConfig};
use wolves_service::{
    FileBackend, MutateOp, PersistConfig, ServerHandle, ServiceClient, WorkflowStore,
};
use wolves_workflow::{SpecMutation, TaskId, WorkflowSpec, WorkflowView};

use crate::common::{
    account, closed_loop, closed_loop_limited, connect, derive, end_to_end, later_setups,
    peak_rss_mb, scratch_dir, spread_pick, start_server, ClientLog, Outcome, Rng, Slots, CLIENTS,
    SHARDS,
};
use crate::steps::{self, Ids, Traced};
use crate::trace::{self, Ladder, ServedDelta};
use crate::RunConfig;

/// The lattice: 400 layers of exactly 25 tasks.
fn lattice() -> LayeredConfig {
    LayeredConfig {
        layers: 400,
        min_width: 25,
        max_width: 25,
        edge_probability: 0.08,
        skip_probability: 0.02,
    }
}

/// Generator seed of the first client's lattice (the second uses the next).
const LATTICE_SEED: u64 = 2303;
const BLOCK: usize = 48;
/// Edits per script block: three remove/re-add pairs, one add/remove-task
/// pair.
const BLOCK_EDITS: u64 = 8;
/// Edit blocks per slot of the slot medians (about a second of edits).
const SLOT_BLOCKS: u64 = 8;

/// One client's DAG as the server holds it.
struct Dag {
    payload: String,
    spec: WorkflowSpec,
    view: WorkflowView,
    /// Dependencies by the layer of their source, so the script visits
    /// layers evenly whatever the seed.
    edges: Vec<Vec<(String, String)>>,
    names: Vec<String>,
}

/// The layer of a generated task (`L<layer>-task<n>`).
fn layer_of(name: &str) -> usize {
    name.strip_prefix('L')
        .and_then(|rest| rest.split('-').next())
        .and_then(|layer| layer.parse().ok())
        .unwrap_or(0)
}

fn dags() -> Vec<Dag> {
    (0..CLIENTS as u64)
        .map(|c| {
            // the lattices are fixed, like the paper's fixtures: their
            // structure would otherwise move every figure from seed to seed
            let spec = layered_workflow(&lattice(), LATTICE_SEED + c);
            let view = topological_block_view(&spec, BLOCK, "blocks").expect("a DAG");
            let payload = write_text_format(&spec, Some(&view));
            let parsed = read_text_format(&payload).expect("a rendered workflow parses");
            let spec = parsed.spec;
            let view = parsed.view.expect("the payload carries its view");
            let name = |t: TaskId| spec.task(t).expect("live task").name.clone();
            let mut edges: Vec<Vec<(String, String)>> = Vec::new();
            for (f, t) in spec.dependencies() {
                let layer = layer_of(&name(f));
                if edges.len() <= layer {
                    edges.resize(layer + 1, Vec::new());
                }
                edges[layer].push((name(f), name(t)));
            }
            edges.retain(|layer| !layer.is_empty());
            let names = spec.tasks().map(|(_, t)| t.name.clone()).collect();
            Dag {
                payload,
                edges,
                names,
                spec,
                view,
            }
        })
        .collect()
}

/// Opens a fresh durable store in its own scratch directory.
fn durable_store(tag: &str) -> WorkflowStore {
    let backend = FileBackend::open(PersistConfig {
        shards: SHARDS,
        ..PersistConfig::new(scratch_dir(tag))
    })
    .expect("open the WAL directory");
    WorkflowStore::open(Arc::new(backend))
        .expect("recover an empty directory")
        .0
}

fn abort(log: &ClientLog) -> ! {
    eprintln!(
        "perfbench: edit-revalidate set-up failed: {:?}",
        log.failures
    );
    std::process::exit(1);
}

/// Starts the durable server, registers both DAGs and warms their verdicts
/// and provenance indexes.
fn set_up(dags: &[Dag], mut traced: Option<&mut Traced>) -> (ServerHandle, Vec<Ids>) {
    let mut log = ClientLog::default();
    let server = start_server(durable_store("edit-revalidate"));
    let mut client = connect(&server);
    let mut ids = Vec::new();
    for dag in dags {
        if let Some(t) = traced.as_deref_mut() {
            t.ladder.begin_step();
            let rendered = t.ladder.span("textfmt.render", || {
                write_text_format(&dag.spec, Some(&dag.view))
            });
            std::hint::black_box(rendered);
        }
        let id = steps::register(&mut client, &mut log, traced.as_deref_mut(), &dag.payload);
        if let Some(t) = traced.as_deref_mut() {
            steps::register_rungs(&mut t.ladder, &dag.payload, &dag.spec);
            t.ladder.end_step();
        }
        ids.push(id.unwrap_or_else(|| abort(&log)));
    }
    for (dag, &id) in dags.iter().zip(&ids) {
        if let Some(t) = traced.as_deref_mut() {
            t.ladder.begin_step();
        }
        let _ = steps::validate(&mut client, &mut log, traced.as_deref_mut(), id);
        if let Some(t) = traced.as_deref_mut() {
            let members = dag.view.composites().map(|(_, c)| c.members());
            steps::soundness_rung(&mut t.ladder, &dag.spec, members);
            t.ladder.end_step();
            t.ladder.begin_step();
        }
        let _ = steps::provenance(
            &mut client,
            &mut log,
            traced.as_deref_mut(),
            id,
            &dag.names[0],
        );
        if let Some(t) = traced.as_deref_mut() {
            let _ = steps::index_rung(&mut t.ladder, &dag.spec, &dag.view);
            t.ladder.end_step();
        }
    }
    if log.failed > 0 {
        abort(&log);
    }
    (server, ids)
}

/// One client: its workflow, its place in the edit script, and the
/// lockstep shadow of the spec and view every acknowledged edit is applied
/// to.
struct Client {
    dag: usize,
    ids: Ids,
    rng: Rng,
    edits: u64,
    edge: (String, String),
    task: String,
    spec: WorkflowSpec,
    view: WorkflowView,
    last_epoch: u64,
    traced: Option<Traced>,
    /// The ladder's own matrix, maintained by the `reach.*` rungs.
    matrix: Option<ReachMatrix>,
    index: Option<ViewProvenanceIndex>,
}

impl Client {
    fn next_op(&mut self, dag: &Dag) -> MutateOp {
        let slot = self.edits % BLOCK_EDITS;
        let client = self.ids.served.0;
        let op = match slot {
            0 | 2 | 4 => {
                let layer = &dag.edges[spread_pick(self.edits / 2, dag.edges.len())];
                self.edge = layer[self.rng.below(layer.len())].clone();
                MutateOp::RemoveEdge {
                    from: self.edge.0.clone(),
                    to: self.edge.1.clone(),
                }
            }
            1 | 3 | 5 => MutateOp::AddEdge {
                from: self.edge.0.clone(),
                to: self.edge.1.clone(),
            },
            6 => {
                self.task = format!("edit-{client}-{}", self.edits);
                MutateOp::AddTask {
                    name: self.task.clone(),
                }
            }
            _ => MutateOp::RemoveTask {
                name: self.task.clone(),
            },
        };
        self.edits += 1;
        op
    }

    /// Applies an acknowledged edit to the shadow spec and view exactly as
    /// the store applies it; in a traced run the ladder's matrix absorbs it
    /// as the `reach.*` rung. Returns the members of the composites the
    /// edit touched.
    fn apply(&mut self, op: &MutateOp) -> Result<Vec<BTreeSet<TaskId>>, String> {
        let spec = &mut self.spec;
        let task = |spec: &WorkflowSpec, name: &str| {
            spec.task_by_name(name)
                .ok_or_else(|| format!("shadow has no task '{name}'"))
        };
        let err = |e: wolves_workflow::WorkflowError| e.to_string();
        let mut touched = Vec::new();
        let rung = match op {
            MutateOp::RemoveEdge { from, to } | MutateOp::AddEdge { from, to } => {
                let (f, t) = (task(spec, from)?, task(spec, to)?);
                let composites: BTreeSet<_> = [f, t]
                    .iter()
                    .filter_map(|&e| self.view.composite_of(e))
                    .collect();
                for c in composites {
                    touched.push(self.view.composite(c).map_err(err)?.members().clone());
                }
                if matches!(op, MutateOp::RemoveEdge { .. }) {
                    spec.apply(SpecMutation::RemoveDependency { from: f, to: t })
                        .map_err(err)?;
                    ("reach.remove_edge", f, t)
                } else {
                    spec.apply(SpecMutation::AddDependency { from: f, to: t })
                        .map_err(err)?;
                    ("reach.insert_edge", f, t)
                }
            }
            MutateOp::AddTask { name } => {
                let report = spec
                    .apply(SpecMutation::AddTask { name: name.clone() })
                    .map_err(err)?;
                let t = report.task.ok_or("add-task reported no task")?;
                self.view
                    .add_composite(name.clone(), vec![t])
                    .map_err(err)?;
                touched.push(BTreeSet::from([t]));
                ("reach.insert_node", t, t)
            }
            MutateOp::RemoveTask { name } => {
                let t = task(spec, name)?;
                self.view.remove_member(t).map_err(err)?;
                spec.apply(SpecMutation::RemoveTask { task: t })
                    .map_err(err)?;
                // a task removal rebases the workflow: every verdict drops
                touched.extend(self.view.composites().map(|(_, c)| c.members().clone()));
                ("reach.remove_node", t, t)
            }
            MutateOp::Split { .. } | MutateOp::Merge { .. } => {
                return Err("the edit script sends no view edits".to_owned())
            }
        };
        if let (Some(t), Some(matrix)) = (self.traced.as_mut(), self.matrix.as_mut()) {
            let (name, from, to) = rung;
            let graph = self.spec.graph();
            let outcome = t.ladder.span(name, || match name {
                "reach.remove_edge" => matrix.remove_edge(graph, from, to).map(|_| ()),
                "reach.insert_edge" => matrix.insert_edge(from, to).map(|_| ()),
                "reach.insert_node" => {
                    matrix.insert_node(from);
                    Ok(())
                }
                _ => matrix.remove_node(graph, from).map(|_| ()),
            });
            outcome.map_err(|e| e.to_string())?;
        }
        self.index = None;
        Ok(touched)
    }
}

fn cycle(state: &mut Client, client: &mut ServiceClient, log: &mut ClientLog, dags: &[Dag]) {
    let dag = &dags[state.dag];
    let op = state.next_op(dag);

    if let Some(t) = state.traced.as_mut() {
        t.ladder.begin_step();
    }
    let mutated = steps::mutate(client, log, state.traced.as_mut(), state.ids, &op);
    let touched = if mutated.is_some() {
        match state.apply(&op) {
            Ok(touched) => touched,
            Err(e) => {
                log.fail(format!("shadow could not follow '{}': {e}", op.to_tail()));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };
    if let Some(t) = state.traced.as_mut() {
        t.ladder.end_step();
    }
    if let Some(m) = &mutated {
        if m.epoch <= state.last_epoch {
            log.fail(format!(
                "mutate epoch went from {} to {}",
                state.last_epoch, m.epoch
            ));
        }
        state.last_epoch = m.epoch;
    }

    if let Some(t) = state.traced.as_mut() {
        t.ladder.begin_step();
    }
    let verdict = steps::validate(client, log, state.traced.as_mut(), state.ids);
    if let Some(t) = state.traced.as_mut() {
        steps::soundness_rung(&mut t.ladder, &state.spec, &touched);
        t.ladder.end_step();
    }
    if let Some(v) = verdict {
        if v.epoch != state.last_epoch {
            log.fail(format!(
                "validate answered at epoch {}, after the edit acknowledged epoch {}",
                v.epoch, state.last_epoch
            ));
        }
    }

    let subject = &dag.names[state.rng.below(dag.names.len())];
    if let Some(t) = state.traced.as_mut() {
        t.ladder.begin_step();
    }
    let _ = steps::provenance(client, log, state.traced.as_mut(), state.ids, subject);
    if let Some(t) = state.traced.as_mut() {
        let index = state
            .index
            .get_or_insert_with(|| steps::index_rung(&mut t.ladder, &state.spec, &state.view));
        if let Some(task) = state.spec.task_by_name(subject) {
            steps::query_rung(&mut t.ladder, index, &state.view, task);
        }
        t.ladder.end_step();
    }
}

fn clients(
    seed: u64,
    dags: &[Dag],
    ids: &[Ids],
    shadow: Option<&Arc<WorkflowStore>>,
) -> Vec<Client> {
    dags.iter()
        .zip(ids)
        .enumerate()
        .map(|(c, (dag, &ids))| {
            let traced = shadow.map(|s| Traced {
                ladder: Ladder::new(c as u64),
                shadow: Arc::clone(s),
            });
            let spec = dag.spec.clone();
            let matrix = traced
                .as_ref()
                .map(|_| ReachMatrix::build_from_csr(&spec.csr_snapshot()));
            Client {
                dag: c,
                ids,
                rng: Rng::new(derive(seed, 2000 + c as u64)),
                edits: 0,
                edge: (String::new(), String::new()),
                task: String::new(),
                spec,
                view: dag.view.clone(),
                last_epoch: 0,
                traced,
                matrix,
                index: None,
            }
        })
        .collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// A spec and view as comparable name sets: tasks, dependencies and
/// composites with their members.
#[allow(clippy::type_complexity)]
fn shape(
    spec: &WorkflowSpec,
    view: &WorkflowView,
) -> (
    Vec<String>,
    Vec<(String, String)>,
    Vec<(String, Vec<String>)>,
) {
    let name = |t: TaskId| spec.task(t).map(|t| t.name.clone()).unwrap_or_default();
    let tasks = sorted(spec.tasks().map(|(_, t)| t.name.clone()).collect());
    let edges = sorted(
        spec.dependencies()
            .map(|(f, t)| (name(f), name(t)))
            .collect(),
    );
    let composites = sorted(
        view.composites()
            .map(|(_, c)| {
                let members = sorted(c.members().iter().map(|&t| name(t)).collect());
                (c.name.clone(), members)
            })
            .collect(),
    );
    (tasks, edges, composites)
}

/// End of run: the served export equals the lockstep shadow, and the
/// served verdict and provenance equal a from-scratch computation on it.
fn final_checks(server: &ServerHandle, states: &[Client], outcome: &mut Outcome) {
    let mut log = ClientLog::default();
    let mut client = connect(server);
    for state in states {
        let id = state.ids.served.0;
        let Some(payload) = steps::export(&mut client, &mut log, state.ids.served) else {
            continue;
        };
        let Ok(parsed) = read_text_format(&payload) else {
            log.fail(format!("export of workflow {id} does not parse"));
            continue;
        };
        let (spec, Some(view)) = (parsed.spec, parsed.view) else {
            log.fail(format!("export of workflow {id} has no view"));
            continue;
        };
        log.attempted += 1;
        if shape(&spec, &view) != shape(&state.spec, &state.view) {
            log.fail(format!(
                "export of workflow {id} differs from the lockstep shadow after {} edits",
                state.edits
            ));
        }
        let expected = steps::unsound_names(&spec, &view);
        let ids = Ids {
            served: state.ids.served,
            shadow: state.ids.served,
        };
        if let Some(v) = steps::validate(&mut client, &mut log, None, ids) {
            if v.unsound != expected || v.sound != expected.is_empty() {
                log.fail(format!(
                    "final verdict of workflow {id}: served {:?}, from scratch {expected:?}",
                    v.unsound
                ));
            }
        }
        for pick in 0..4usize {
            let tasks: Vec<TaskId> = spec.task_ids().collect();
            let task = tasks[(pick * 2503 + state.edits as usize) % tasks.len()];
            let subject = spec.task(task).expect("live task").name.clone();
            let expected = steps::names(&spec, view_level_provenance(&spec, &view, task).tasks);
            if let Some(served) = steps::provenance(&mut client, &mut log, None, ids, &subject) {
                if served != expected {
                    log.fail(format!(
                        "final provenance of '{subject}' in workflow {id}: {} tasks served, \
                         {} from scratch",
                        served.len(),
                        expected.len()
                    ));
                }
            }
        }
    }
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
    outcome.final_failures.extend(log.failures);
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let dags = dags();
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(cfg.seconds);
    let corrupt = |states: &mut Vec<Client>| {
        if cfg.corrupt {
            // the shadow forgets one dependency: the export check must fail
            let (f, t) = states[0].spec.dependencies().next().expect("a dependency");
            let _ = states[0]
                .spec
                .apply(SpecMutation::RemoveDependency { from: f, to: t });
        }
    };
    if !cfg.trace {
        let start = Instant::now();
        let (server, ids) = set_up(&dags, None);
        let mut setup_s = vec![start.elapsed().as_secs_f64()];
        let mut states = clients(cfg.seed, &dags, &ids, None);
        corrupt(&mut states);
        // slots of whole edit blocks, so each holds the script's exact mix
        let (log, states) = closed_loop_limited(
            server.local_addr(),
            window,
            usize::MAX,
            Slots::Cycles(SLOT_BLOCKS * BLOCK_EDITS),
            states,
            |s, c, l| cycle(s, c, l, &dags),
        );
        let peak_rss = peak_rss_mb();
        final_checks(&server, &states, &mut outcome);
        let observed = server.store().backend().observe();
        server.shutdown();
        setup_s.extend(later_setups(|| set_up(&dags, None).0));
        account(&log, &mut outcome);
        end_to_end(&log, &setup_s, peak_rss, &mut outcome);
        outcome.report.push(format!(
            "WAL: {} bytes appended, {} rotations",
            observed.append_bytes, observed.rotations
        ));
        return outcome;
    }

    let shadow = Arc::new(durable_store("edit-revalidate-shadow"));
    let mut setup_trace = Traced {
        ladder: Ladder::new(99),
        shadow: Arc::clone(&shadow),
    };
    let (server, ids) = set_up(&dags, Some(&mut setup_trace));
    let store = server.store();
    let half = window / 2;
    let mut states = clients(cfg.seed, &dags, &ids, Some(&shadow));
    corrupt(&mut states);
    let before = ServedDelta::read(&store);
    let (traced_log, mut states) = closed_loop(server.local_addr(), half, states, |s, c, l| {
        cycle(s, c, l, &dags)
    });
    let served = ServedDelta::read(&store).since(before);
    let mut ladders = vec![];
    for state in &mut states {
        if let Some(t) = state.traced.take() {
            ladders.push(t.ladder);
        }
        state.matrix = None;
    }
    let (plain_log, states) = closed_loop(server.local_addr(), half, states, |s, c, l| {
        cycle(s, c, l, &dags)
    });
    final_checks(&server, &states, &mut outcome);
    server.shutdown();
    // edit-revalidate never corrects: probe the corrector on the first DAG,
    // on the shadow store only
    steps::probe_correct(
        &mut setup_trace,
        ids[0].shadow,
        &dags[0].spec,
        &dags[0].view,
    );
    ladders.push(setup_trace.ladder);
    account(&traced_log, &mut outcome);
    account(&plain_log, &mut outcome);
    outcome.metrics = trace::per_layer(
        ladders,
        &traced_log,
        served,
        trace::overhead_pct(&traced_log, &plain_log),
        &crate::spans_path("edit-revalidate", cfg.seed),
    );
    outcome
}
