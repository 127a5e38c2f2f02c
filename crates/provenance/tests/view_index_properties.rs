//! Property tests of the dense view tables behind the provenance index.
//!
//! Random DAG specifications get random views through `from_groups`, which
//! are then edited by splits, merges, task additions and task removals
//! (`RemoveTask` on the spec plus `remove_member` on the view), so the
//! views carry tombstoned task and composite slots. Random groupings also
//! produce view-level cycles. On every case:
//!
//! * the induced view graph equals a reference built here from
//!   `spec.dependencies()` and `composite.members()` alone;
//! * `ViewProvenanceIndex` answers equal the `view_level_provenance`
//!   traversal for every subject;
//! * on views `validate` calls sound, no true provenance is missed, and the
//!   answer is exactly the composites with a task path into the subject's
//!   composite — no false positives at the view's granularity.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wolves_core::validate::validate;
use wolves_provenance::{
    compare_to_ground_truth, view_level_provenance, workflow_level_impact,
    workflow_level_provenance, ProvenanceAnswer, ViewProvenanceIndex,
};
use wolves_workflow::{
    AtomicTask, CompositeTaskId, DataDependency, SpecMutation, TaskId, WorkflowSpec, WorkflowView,
};

/// A random DAG (edges from lower to higher task index) under a random
/// view: contiguous blocks in index order (often sound) or an arbitrary
/// grouping (often unsound, often cyclic at the view level).
fn random_spec_and_view(rng: &mut StdRng) -> (WorkflowSpec, WorkflowView) {
    let n = rng.gen_range(2..24usize);
    let mut spec = WorkflowSpec::new("prop");
    let tasks: Vec<TaskId> = (0..n)
        .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
        .collect();
    let density = f64::from(rng.gen_range(1..8u32)) / 20.0;
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(density) {
                spec.add_dependency(tasks[i], tasks[j], DataDependency::unnamed())
                    .unwrap();
            }
        }
    }
    let k = rng.gen_range(1..=n);
    let mut groups: Vec<Vec<TaskId>> = vec![Vec::new(); k];
    if rng.gen_bool(0.5) {
        for (i, &task) in tasks.iter().enumerate() {
            groups[i * k / n].push(task);
        }
    } else {
        for &task in &tasks {
            groups[rng.gen_range(0..k)].push(task);
        }
    }
    let groups = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .enumerate()
        .map(|(i, g)| (format!("g{i}"), g))
        .collect();
    let view = WorkflowView::from_groups(&spec, "random", groups).unwrap();
    (spec, view)
}

/// Applies a few random view and spec edits that keep the view a partition
/// of the spec's live tasks.
fn edit(rng: &mut StdRng, spec: &mut WorkflowSpec, view: &mut WorkflowView) {
    for step in 0..rng.gen_range(0..8usize) {
        let ids: Vec<CompositeTaskId> = view.composite_ids().collect();
        match rng.gen_range(0..4u8) {
            0 => {
                let id = ids[rng.gen_range(0..ids.len())];
                let members: Vec<TaskId> = view
                    .composite(id)
                    .unwrap()
                    .members()
                    .iter()
                    .copied()
                    .collect();
                if members.len() >= 2 {
                    let cut = rng.gen_range(1..members.len());
                    let parts = vec![members[..cut].to_vec(), members[cut..].to_vec()];
                    view.split_composite(id, parts).unwrap();
                }
            }
            1 if ids.len() >= 2 => {
                let a = ids[rng.gen_range(0..ids.len())];
                let b = ids[rng.gen_range(0..ids.len())];
                if a != b {
                    view.merge_composites(&[a, b], format!("m{step}")).unwrap();
                }
            }
            2 if spec.task_count() >= 2 => {
                let live: Vec<TaskId> = spec.task_ids().collect();
                let task = live[rng.gen_range(0..live.len())];
                spec.apply(SpecMutation::RemoveTask { task }).unwrap();
                view.remove_member(task).unwrap();
            }
            _ => {
                // a new task past every slot the view's table has seen,
                // wired into the DAG from an older task
                let live: Vec<TaskId> = spec.task_ids().collect();
                let task = spec
                    .add_task(AtomicTask::new(format!("new{step}")))
                    .unwrap();
                let from = live[rng.gen_range(0..live.len())];
                spec.add_dependency(from, task, DataDependency::unnamed())
                    .unwrap();
                view.add_composite(format!("new{step}"), vec![task])
                    .unwrap();
            }
        }
    }
}

/// The composite owning `task`, found by scanning member sets rather than
/// through `composite_of`.
fn owner(view: &WorkflowView, task: TaskId) -> Option<CompositeTaskId> {
    view.composites()
        .find(|(_, composite)| composite.members().contains(&task))
        .map(|(id, _)| id)
}

/// The induced view-level edge set, from dependencies and member sets only.
fn reference_edges(
    spec: &WorkflowSpec,
    view: &WorkflowView,
) -> BTreeSet<(CompositeTaskId, CompositeTaskId)> {
    spec.dependencies()
        .filter_map(|(from, to)| Some((owner(view, from)?, owner(view, to)?)))
        .filter(|(a, b)| a != b)
        .collect()
}

/// The best answer a view can give: the members of every other composite
/// with a task path into the subject's composite `C`, the other members of
/// `C`, and the subject too when a task path leaves `C` and comes back.
fn composite_closed_truth(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    subject: TaskId,
) -> ProvenanceAnswer {
    let own = owner(view, subject).expect("subject is in the view");
    let members = view.composite(own).unwrap().members();
    let mut upstream: BTreeSet<TaskId> = BTreeSet::new();
    let mut downstream: BTreeSet<TaskId> = BTreeSet::new();
    for &member in members {
        upstream.extend(workflow_level_provenance(spec, member).tasks);
        downstream.extend(workflow_level_impact(spec, member).tasks);
    }
    let mut composites: BTreeSet<CompositeTaskId> = upstream
        .iter()
        .filter_map(|&task| owner(view, task))
        .filter(|&composite| composite != own)
        .collect();
    if upstream
        .intersection(&downstream)
        .any(|&task| !members.contains(&task))
    {
        composites.insert(own);
    }
    let mut tasks: BTreeSet<TaskId> = members.iter().copied().filter(|&t| t != subject).collect();
    for &composite in &composites {
        tasks.extend(view.composite(composite).unwrap().members().iter().copied());
    }
    ProvenanceAnswer {
        subject,
        tasks,
        composites,
        edges_traversed: 0,
    }
}

fn check(spec: &WorkflowSpec, view: &WorkflowView) {
    view.validate_against(spec).unwrap();
    // the dense table agrees with the member sets, tombstoned tasks included
    for index in 0..spec.graph().node_bound() + 2 {
        let task = TaskId::from_index(index);
        prop_assert_eq!(view.composite_of(task), owner(view, task));
    }

    let induced = view.induced_graph(spec);
    let nodes: BTreeSet<CompositeTaskId> = induced
        .graph
        .node_ids()
        .map(|node| induced.composite_of(node).unwrap())
        .collect();
    prop_assert_eq!(nodes, view.composite_ids().collect::<BTreeSet<_>>());
    let edges: Vec<(CompositeTaskId, CompositeTaskId)> = induced
        .graph
        .edges()
        .map(|(_, from, to, ())| {
            (
                induced.composite_of(from).unwrap(),
                induced.composite_of(to).unwrap(),
            )
        })
        .collect();
    let unique: BTreeSet<_> = edges.iter().copied().collect();
    prop_assert_eq!(edges.len(), unique.len(), "duplicate induced edges");
    prop_assert_eq!(unique, reference_edges(spec, view));

    let index = ViewProvenanceIndex::new(spec, view);
    let sound = validate(spec, view).is_sound();
    for subject in spec.task_ids() {
        let walked = view_level_provenance(spec, view, subject);
        let indexed = index.provenance(view, subject);
        prop_assert_eq!(&indexed.tasks, &walked.tasks);
        prop_assert_eq!(&indexed.composites, &walked.composites);
        let ids = index.provenance_tasks(view, subject);
        prop_assert!(ids.iter().copied().eq(walked.tasks.iter().copied()));

        let truth = workflow_level_provenance(spec, subject);
        prop_assert!(compare_to_ground_truth(&truth, &indexed).missing.is_empty());
        if sound {
            let closed = composite_closed_truth(spec, view, subject);
            let accuracy = compare_to_ground_truth(&closed, &indexed);
            prop_assert!((accuracy.recall - 1.0).abs() < 1e-9);
            prop_assert!(
                accuracy.spurious.is_empty(),
                "false positives on a sound view"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_matches_reference_on_edited_views(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut spec, mut view) = random_spec_and_view(&mut rng);
        check(&spec, &view);
        edit(&mut rng, &mut spec, &mut view);
        check(&spec, &view);
    }
}

/// Grouping the two ends of two parallel chains crosswise gives a
/// two-composite view-level cycle on a DAG: every subject's composite lies
/// on it, so every subject appears in its own answer.
#[test]
fn view_level_cycles_put_the_subject_in_its_own_answer() {
    let mut spec = WorkflowSpec::new("cycle");
    let t: Vec<TaskId> = (0..4)
        .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
        .collect();
    spec.add_dependency(t[0], t[1], DataDependency::unnamed())
        .unwrap();
    spec.add_dependency(t[2], t[3], DataDependency::unnamed())
        .unwrap();
    let view = WorkflowView::from_groups(
        &spec,
        "crosswise",
        vec![
            ("a".into(), vec![t[0], t[3]]),
            ("b".into(), vec![t[1], t[2]]),
        ],
    )
    .unwrap();
    check(&spec, &view);
    let index = ViewProvenanceIndex::new(&spec, &view);
    for &subject in &t {
        assert!(index.provenance_tasks(&view, subject).contains(&subject));
    }
}

/// Applies one random task or dependency edit that keeps the view a
/// partition — new tasks enter as singleton composites, as the serving
/// layer adds them — and returns what the edit can have changed in the
/// induced graph: the composites it may have added or emptied and the
/// ordered composite pairs whose link it may have made or broken.
fn spec_edit(
    rng: &mut StdRng,
    spec: &mut WorkflowSpec,
    view: &mut WorkflowView,
    step: usize,
) -> (
    Vec<CompositeTaskId>,
    Vec<(CompositeTaskId, CompositeTaskId)>,
) {
    let live: Vec<TaskId> = spec.task_ids().collect();
    let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
    let of = |view: &WorkflowView, task| view.composite_of(task).unwrap();
    match rng.gen_range(0..4u8) {
        0 => {
            // any orientation: back edges make the spec itself cyclic
            let (from, to) = (pick(rng), pick(rng));
            if from == to || spec.graph().find_edge(from, to).is_some() {
                return (Vec::new(), Vec::new());
            }
            spec.apply(SpecMutation::AddDependency { from, to })
                .unwrap();
            (Vec::new(), vec![(of(view, from), of(view, to))])
        }
        1 => {
            let deps: Vec<(TaskId, TaskId)> = spec.dependencies().collect();
            if deps.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let (from, to) = deps[rng.gen_range(0..deps.len())];
            spec.apply(SpecMutation::RemoveDependency { from, to })
                .unwrap();
            (Vec::new(), vec![(of(view, from), of(view, to))])
        }
        2 if live.len() >= 2 => {
            let task = pick(rng);
            let own = of(view, task);
            let pairs = spec
                .predecessors(task)
                .map(|prev| (of(view, prev), own))
                .chain(spec.successors(task).map(|next| (own, of(view, next))))
                .collect();
            view.remove_member(task).unwrap();
            spec.apply(SpecMutation::RemoveTask { task }).unwrap();
            (vec![own], pairs)
        }
        _ => {
            let name = format!("late{step}");
            let task = spec
                .apply(SpecMutation::AddTask { name: name.clone() })
                .unwrap()
                .task
                .unwrap();
            (
                vec![view.add_composite(name, vec![task]).unwrap()],
                Vec::new(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An index carried through random task and dependency edits by
    /// `carry` answers every subject exactly like an index
    /// built from scratch after each edit, on DAGs and on cyclic specs
    /// alike; the index it was cloned from keeps answering for the spec
    /// and view it was built on.
    #[test]
    fn an_updated_index_matches_a_fresh_build(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut spec, mut view) = random_spec_and_view(&mut rng);
        if rng.gen_bool(0.5) {
            // a few back edges close spec-level cycles
            let live: Vec<TaskId> = spec.task_ids().collect();
            for _ in 0..rng.gen_range(1..4usize) {
                let (a, b) = (rng.gen_range(0..live.len()), rng.gen_range(0..live.len()));
                if a > b && spec.graph().find_edge(live[a], live[b]).is_none() {
                    spec.add_dependency(live[a], live[b], DataDependency::unnamed())
                        .unwrap();
                }
            }
        }
        let original = (spec.clone(), view.clone());
        let first = Arc::new(ViewProvenanceIndex::new(&spec, &view));
        let mut index = Arc::clone(&first);
        for step in 0..rng.gen_range(1..24usize) {
            let (composites, pairs) = spec_edit(&mut rng, &mut spec, &mut view, step);
            prop_assert!(
                ViewProvenanceIndex::carry(&mut index, &spec, &view, &composites, &pairs),
                "step {}", step
            );
            let fresh = ViewProvenanceIndex::new(&spec, &view);
            for subject in spec.task_ids() {
                let updated = index.provenance(&view, subject);
                let rebuilt = fresh.provenance(&view, subject);
                prop_assert_eq!(&updated.tasks, &rebuilt.tasks, "step {}", step);
                prop_assert_eq!(&updated.composites, &rebuilt.composites, "step {}", step);
            }
        }
        let (spec, view) = original;
        let fresh = ViewProvenanceIndex::new(&spec, &view);
        for subject in spec.task_ids() {
            prop_assert_eq!(first.provenance(&view, subject).tasks, fresh.provenance(&view, subject).tasks);
        }
    }
}
