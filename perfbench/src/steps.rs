//! One helper per served verb: the client round trip, its answer checked
//! for shape, and — in a traced run — the same verb replayed on the shadow
//! store as the `store.*` rung.

use std::collections::BTreeSet;
use std::sync::Arc;

use wolves_core::correct::{correct_view, Strategy};
use wolves_core::soundness_verdict;
use wolves_graph::ReachMatrix;
use wolves_moml::read_text_format;
use wolves_provenance::ViewProvenanceIndex;
use wolves_service::proto::Corrected;
use wolves_service::{
    MutateOp, Mutated, Request, Response, ServiceClient, Verdict, WorkflowId, WorkflowStore,
};
use wolves_workflow::{SpecMutation, TaskId, WorkflowSpec, WorkflowView};

use crate::common::{ClientLog, Verb};
use crate::trace::Ladder;

/// A workflow as the served store and the shadow store know it.
#[derive(Debug, Clone, Copy)]
pub struct Ids {
    pub served: WorkflowId,
    pub shadow: WorkflowId,
}

/// The traced side of a client: its span recorder and the shadow store the
/// `store.*` rungs run on.
#[derive(Debug)]
pub struct Traced {
    pub ladder: Ladder,
    pub shadow: Arc<WorkflowStore>,
}

fn variant(response: &Response) -> &'static str {
    match response {
        Response::Registered(_) => "registered",
        Response::Verdict(_) => "verdict",
        Response::Corrected(_) => "corrected",
        Response::Provenance(_) => "provenance",
        Response::Mutated(_) => "mutated",
        Response::Exported(_) => "exported",
        Response::Error(_) => "error",
        _ => "another response",
    }
}

fn unexpected(log: &mut ClientLog, verb: Verb, response: &Response) {
    log.fail(format!(
        "{} answered with {}",
        verb.name(),
        variant(response)
    ));
}

/// Sends `request`; in a traced run also replays it on the shadow store
/// through `shadow_call`, whose result is returned alongside.
fn call<T>(
    client: &mut ServiceClient,
    log: &mut ClientLog,
    traced: Option<&mut Traced>,
    verb: Verb,
    request: &Request,
    shadow_call: impl FnOnce(&WorkflowStore) -> T,
) -> (Option<Response>, Option<T>) {
    match traced {
        Some(t) => {
            let response = log.call(client, verb, request, Some(&mut t.ladder));
            let shadow = &t.shadow;
            let replayed = t.ladder.span(verb.store_span(), || shadow_call(shadow));
            (response, Some(replayed))
        }
        None => (log.call(client, verb, request, None), None),
    }
}

pub fn register(
    client: &mut ServiceClient,
    log: &mut ClientLog,
    traced: Option<&mut Traced>,
    payload: &str,
) -> Option<Ids> {
    let request = Request::Register {
        payload: payload.to_owned(),
    };
    let (response, shadow) = call(client, log, traced, Verb::Register, &request, |s| {
        s.register_text(payload)
    });
    match response? {
        Response::Registered(served) => {
            let shadow = match shadow {
                Some(Ok(id)) => id,
                Some(Err(e)) => {
                    log.fail(format!("shadow register failed: {e}"));
                    served
                }
                None => served,
            };
            Some(Ids { served, shadow })
        }
        other => {
            unexpected(log, Verb::Register, &other);
            None
        }
    }
}

pub fn validate(
    client: &mut ServiceClient,
    log: &mut ClientLog,
    traced: Option<&mut Traced>,
    ids: Ids,
) -> Option<Verdict> {
    let request = Request::Validate {
        workflow: ids.served,
        version: None,
    };
    let (response, _) = call(client, log, traced, Verb::Validate, &request, |s| {
        s.validate(ids.shadow, None)
    });
    match response? {
        Response::Verdict(verdict) => Some(verdict),
        other => {
            unexpected(log, Verb::Validate, &other);
            None
        }
    }
}

pub fn provenance(
    client: &mut ServiceClient,
    log: &mut ClientLog,
    traced: Option<&mut Traced>,
    ids: Ids,
    subject: &str,
) -> Option<Vec<String>> {
    let request = Request::Provenance {
        workflow: ids.served,
        subject: subject.to_owned(),
    };
    let (response, _) = call(client, log, traced, Verb::Provenance, &request, |s| {
        s.provenance(ids.shadow, subject)
    });
    match response? {
        Response::Provenance(tasks) => Some(tasks),
        other => {
            unexpected(log, Verb::Provenance, &other);
            None
        }
    }
}

pub fn mutate(
    client: &mut ServiceClient,
    log: &mut ClientLog,
    mut traced: Option<&mut Traced>,
    ids: Ids,
    op: &MutateOp,
) -> Option<Mutated> {
    let request = Request::Mutate {
        workflow: ids.served,
        op: op.clone(),
        expect: None,
    };
    let replay = op.clone();
    let (response, _) = call(
        client,
        log,
        traced.as_deref_mut(),
        Verb::Mutate,
        &request,
        |s| s.mutate(ids.shadow, replay),
    );
    match response? {
        Response::Mutated(mutated) => {
            if let Some(t) = traced {
                t.ladder.count(&format!("reach.delta.{}", mutated.class), 1);
                t.ladder
                    .value("store.invalidated", mutated.invalidated as f64);
                t.ladder.value("store.retained", mutated.retained as f64);
            }
            Some(mutated)
        }
        other => {
            unexpected(log, Verb::Mutate, &other);
            None
        }
    }
}

pub fn correct(
    client: &mut ServiceClient,
    log: &mut ClientLog,
    traced: Option<&mut Traced>,
    ids: Ids,
    strategy: Strategy,
) -> Option<Corrected> {
    let request = Request::Correct {
        workflow: ids.served,
        strategy,
    };
    let (response, _) = call(client, log, traced, Verb::Correct, &request, |s| {
        s.correct(ids.shadow, strategy)
    });
    match response? {
        Response::Corrected(corrected) => Some(corrected),
        other => {
            unexpected(log, Verb::Correct, &other);
            None
        }
    }
}

/// Exports a workflow for an end-of-run check (untimed).
pub fn export(client: &mut ServiceClient, log: &mut ClientLog, id: WorkflowId) -> Option<String> {
    log.attempted += 1;
    match client.call(&Request::Export { workflow: id }) {
        Ok(Response::Exported(payload)) => Some(payload),
        Ok(other) => {
            log.fail(format!("export answered with {}", variant(&other)));
            None
        }
        Err(e) => {
            log.fail(format!("export failed: {e}"));
            None
        }
    }
}

/// The `correct.view` rung: the corrector the served `correct` runs, on the
/// ladder's own copy of the spec and view.
pub fn correct_rung(
    ladder: &mut Ladder,
    spec: &WorkflowSpec,
    view: &WorkflowView,
    strategy: Strategy,
) {
    let corrector = strategy.corrector();
    let outcome = ladder.span("correct.view", || {
        correct_view(spec, view, corrector.as_ref())
    });
    if let Ok((_, report)) = outcome {
        for correction in &report.corrections {
            ladder.value(
                "correct.parts_per_composite",
                correction.replacements.len() as f64,
            );
        }
    }
}

/// Probe for a workload whose script never edits: one seeded dependency
/// removed and re-added, on the ladder's copy of the spec (the
/// `reach.*_edge` rungs) and on the shadow store (`store.mutate`). Runs
/// after the window, so the served store never sees it.
pub fn probe_edge_toggle(t: &mut Traced, shadow: WorkflowId, spec: &WorkflowSpec, pick: usize) {
    let mut spec = spec.clone();
    let mut matrix = ReachMatrix::build_from_csr(&spec.csr_snapshot());
    let edges: Vec<(TaskId, TaskId)> = spec.dependencies().collect();
    if edges.is_empty() {
        return;
    }
    let (from, to) = edges[pick % edges.len()];
    let name = |task: TaskId| spec.task(task).map(|t| t.name.clone()).unwrap_or_default();
    let (from_name, to_name) = (name(from), name(to));

    t.ladder.begin_step();
    let _ = spec.apply(SpecMutation::RemoveDependency { from, to });
    let graph = spec.graph();
    let _ = t
        .ladder
        .span("reach.remove_edge", || matrix.remove_edge(graph, from, to));
    let store = &t.shadow;
    let op = MutateOp::RemoveEdge {
        from: from_name.clone(),
        to: to_name.clone(),
    };
    let _ = t.ladder.span("store.mutate", || store.mutate(shadow, op));
    t.ladder.end_step();

    t.ladder.begin_step();
    let _ = spec.apply(SpecMutation::AddDependency { from, to });
    let _ = t
        .ladder
        .span("reach.insert_edge", || matrix.insert_edge(from, to));
    let op = MutateOp::AddEdge {
        from: from_name,
        to: to_name,
    };
    let _ = t.ladder.span("store.mutate", || store.mutate(shadow, op));
    t.ladder.end_step();
}

/// Probe for a workload whose script never corrects: one weak correction
/// on the ladder's copy (`correct.view`) and on the shadow store
/// (`store.correct`), after the window.
pub fn probe_correct(t: &mut Traced, shadow: WorkflowId, spec: &WorkflowSpec, view: &WorkflowView) {
    t.ladder.begin_step();
    correct_rung(&mut t.ladder, spec, view, Strategy::Weak);
    let store = &t.shadow;
    let _ = t
        .ladder
        .span("store.correct", || store.correct(shadow, Strategy::Weak));
    t.ladder.end_step();
}

/// The rungs below a register: the server's parse of the payload and the
/// reachability matrix it primes.
pub fn register_rungs(ladder: &mut Ladder, payload: &str, spec: &WorkflowSpec) {
    let parsed = ladder.span("textfmt.parse", || read_text_format(payload));
    std::hint::black_box(parsed.is_ok());
    let csr = spec.csr_snapshot();
    let matrix = ladder.span("reach.build", || ReachMatrix::build_from_csr(&csr));
    std::hint::black_box(matrix.comp_count());
    ladder.value("payload.bytes", payload.len() as f64);
}

/// One `soundness.verdict` span per composite, on a warm reachability
/// matrix (the store primes its matrix at register time).
pub fn soundness_rung<'a>(
    ladder: &mut Ladder,
    spec: &WorkflowSpec,
    composites: impl IntoIterator<Item = &'a BTreeSet<TaskId>>,
) {
    let _ = spec.reachability();
    for members in composites {
        let verdict = ladder.span("soundness.verdict", || soundness_verdict(spec, members));
        std::hint::black_box(verdict.is_sound());
    }
}

pub fn index_rung(
    ladder: &mut Ladder,
    spec: &WorkflowSpec,
    view: &WorkflowView,
) -> ViewProvenanceIndex {
    ladder.span("provenance.index_build", || {
        ViewProvenanceIndex::new(spec, view)
    })
}

pub fn query_rung(
    ladder: &mut Ladder,
    index: &ViewProvenanceIndex,
    view: &WorkflowView,
    subject: TaskId,
) {
    let answer = ladder.span("provenance.query", || index.provenance(view, subject));
    ladder.value("provenance.answer_tasks", answer.tasks.len() as f64);
}

/// Task names of a provenance answer in task-id order, as the server
/// renders them.
pub fn names(spec: &WorkflowSpec, tasks: impl IntoIterator<Item = TaskId>) -> Vec<String> {
    tasks
        .into_iter()
        .filter_map(|t| spec.task(t).ok().map(|task| task.name.clone()))
        .collect()
}

/// Names of a view's unsound composites in view order, from scratch
/// (Proposition 2.1 on the spec's own matrix).
pub fn unsound_names(spec: &WorkflowSpec, view: &WorkflowView) -> Vec<String> {
    wolves_core::validate::validate(spec, view)
        .reports()
        .iter()
        .filter(|r| !r.verdict.is_sound())
        .map(|r| r.name.clone())
        .collect()
}
