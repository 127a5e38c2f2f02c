//! A seeded edit-script oracle for the store's cache invalidation.
//!
//! Random scripts of edge removals, edge re-adds, task additions and task
//! removals run against an in-process [`WorkflowStore`] over a layered DAG
//! under a topological block view. After every edit the served `validate`
//! must equal `wolves_core::validate` on the spec and view parsed back
//! from `export`, and one subject's served provenance must equal
//! `view_level_provenance` on the same pair. A cached verdict that an edit
//! should have dropped but kept shows up as a served answer that differs
//! from the from-scratch one.
//!
//! In a DAG a sound composite has no path that leaves it and comes back
//! (the exit would be an output that the re-entry, an input, must reach),
//! so an edit can only flip the verdicts of the composites holding its
//! endpoints, its neighbours or a removed task. The oracle pins those; that
//! the dirty rows name exactly the changed reachability rows is the graph
//! crate's `prop_cross_scc_removal_dirties_exactly_the_changed_rows`.

use proptest::prelude::*;
use wolves_moml::read_text_format;
use wolves_repo::{layered_workflow, topological_block_view, LayeredConfig};
use wolves_service::{MutateOp, WorkflowId, WorkflowStore};

/// Asserts the served verdict and one subject's provenance equal what the
/// paper's definitions compute from scratch on the exported workflow, and
/// returns that workflow's task names and dependencies (by name).
fn assert_served_answers_are_exact(
    store: &WorkflowStore,
    id: WorkflowId,
    subject_pick: usize,
) -> (Vec<String>, Vec<(String, String)>) {
    let imported = read_text_format(&store.export(id).unwrap()).unwrap();
    let spec = imported.spec;
    let view = imported.view.expect("export carries the view");
    let name = |t| spec.task(t).unwrap().name.clone();
    let expected = wolves_core::validate(&spec, &view);
    let expected_unsound: Vec<String> = expected
        .reports()
        .iter()
        .filter(|report| !report.verdict.is_sound())
        .map(|report| report.name.clone())
        .collect();
    let served = store.validate(id, None).unwrap();
    assert_eq!(served.sound, expected.is_sound());
    assert_eq!(served.unsound, expected_unsound);

    let tasks: Vec<String> = spec.task_ids().map(name).collect();
    let subject = spec.task_ids().nth(subject_pick % tasks.len()).unwrap();
    let expected: Vec<String> = wolves_provenance::view_level_provenance(&spec, &view, subject)
        .tasks
        .into_iter()
        .map(name)
        .collect();
    assert_eq!(store.provenance(id, &name(subject)).unwrap(), expected);
    let edges = spec
        .dependencies()
        .map(|(f, t)| (name(f), name(t)))
        .collect();
    (tasks, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn served_answers_match_a_from_scratch_check_after_every_edit(
        target in 60usize..120,
        seed in 0u64..1_000,
        block in 3usize..9,
        ops in proptest::collection::vec((0usize..4, 0usize..4096, 0usize..4096), 1..40)
    ) {
        let spec = layered_workflow(&LayeredConfig::sized(target), seed);
        let view = topological_block_view(&spec, block, "blocks").unwrap();
        let store = WorkflowStore::new(1);
        let id = store.register(spec, Some(view));
        let (mut tasks, mut edges) = assert_served_answers_are_exact(&store, id, 0);
        let mut removed: Vec<(String, String)> = Vec::new();
        let mut added: Vec<String> = Vec::new();
        for (step, (op, a, b)) in ops.into_iter().enumerate() {
            let op = match op {
                0 if !edges.is_empty() => {
                    let (from, to) = edges[a % edges.len()].clone();
                    removed.push((from.clone(), to.clone()));
                    MutateOp::RemoveEdge { from, to }
                }
                1 if !removed.is_empty() => {
                    let (from, to) = removed.swap_remove(a % removed.len());
                    if !tasks.contains(&from) || !tasks.contains(&to) {
                        continue;
                    }
                    MutateOp::AddEdge { from, to }
                }
                2 => {
                    let name = format!("extra {step}");
                    added.push(name.clone());
                    MutateOp::AddTask { name }
                }
                3 if tasks.len() > 4 => {
                    // even picks remove a task the script added (isolated),
                    // odd ones a generated task with its dependencies
                    let live_added: Vec<&String> =
                        added.iter().filter(|t| tasks.contains(t)).collect();
                    let name = if b % 2 == 0 && !live_added.is_empty() {
                        live_added[a % live_added.len()].clone()
                    } else {
                        tasks[a % tasks.len()].clone()
                    };
                    MutateOp::RemoveTask { name }
                }
                _ => continue,
            };
            store.mutate(id, op).unwrap();
            (tasks, edges) = assert_served_answers_are_exact(&store, id, b);
        }
    }
}
