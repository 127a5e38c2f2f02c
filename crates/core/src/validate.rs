//! The Workflow View Validator (paper §2.1).
//!
//! Three checks are implemented:
//!
//! * [`validate`] — the efficient check of Proposition 2.1: a view is sound
//!   if every composite task is sound, which only requires examining each
//!   composite's `T.in × T.out` pairs against the workflow reachability
//!   matrix.
//! * [`validate_by_definition`] — Definition 2.1 applied with polynomial
//!   machinery: two composite-labelled closures, one over the workflow and
//!   one over the induced view graph, compared word by word. This is the
//!   reference the experiments, the CLI and the property suites check
//!   against; it keeps no state between calls.
//! * [`validate_naive`] — Definition 2.1 applied literally by enumerating
//!   simple paths (exponential in the worst case); only used by experiment
//!   E5 to illustrate why the paper's per-composite check matters.
//!
//! Note on Proposition 2.1: composite-level soundness *implies*
//! definition-level soundness (every view path is backed by a workflow path),
//! so [`validate`] never accepts a view that [`validate_by_definition`]
//! rejects. The converse can fail on contrived views (a composite may be
//! unsound while every view-level dependency happens to be realised through
//! other paths); the property-based tests pin down exactly this relationship.

use wolves_graph::{Csr, LabelledClosure};
use wolves_workflow::{CompositeTaskId, TaskId, WorkflowSpec, WorkflowView};

use crate::soundness::{soundness_verdict, SoundnessVerdict};

/// Soundness verdict for one composite task of a view.
#[derive(Debug, Clone)]
pub struct CompositeReport {
    /// The composite task.
    pub composite: CompositeTaskId,
    /// Name of the composite task.
    pub name: String,
    /// The detailed soundness verdict (boundary + witnesses).
    pub verdict: SoundnessVerdict,
}

/// Result of validating a view with the per-composite check
/// (Proposition 2.1).
#[derive(Debug, Clone)]
pub struct ValidationReport {
    per_composite: Vec<CompositeReport>,
}

impl ValidationReport {
    /// `true` iff every composite task is sound.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.per_composite.iter().all(|c| c.verdict.is_sound())
    }

    /// The ids of the unsound composite tasks, in view order.
    #[must_use]
    pub fn unsound_composites(&self) -> Vec<CompositeTaskId> {
        self.per_composite
            .iter()
            .filter(|c| !c.verdict.is_sound())
            .map(|c| c.composite)
            .collect()
    }

    /// Per-composite reports (sound and unsound alike).
    #[must_use]
    pub fn reports(&self) -> &[CompositeReport] {
        &self.per_composite
    }

    /// Number of composite tasks examined.
    #[must_use]
    pub fn composite_count(&self) -> usize {
        self.per_composite.len()
    }
}

/// Validates a view using Proposition 2.1: check each composite task's
/// soundness (Definition 2.3) against the workflow reachability matrix.
#[must_use]
pub fn validate(spec: &WorkflowSpec, view: &WorkflowView) -> ValidationReport {
    let per_composite = view
        .composites()
        .map(|(id, composite)| CompositeReport {
            composite: id,
            name: composite.name.clone(),
            verdict: soundness_verdict(spec, composite.members()),
        })
        .collect();
    ValidationReport { per_composite }
}

/// A pair of composite tasks whose view-level and workflow-level
/// connectivity disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DependencyMismatch {
    /// Source composite task.
    pub from: CompositeTaskId,
    /// Target composite task.
    pub to: CompositeTaskId,
}

/// Result of checking Definition 2.1 directly.
#[derive(Debug, Clone)]
pub struct DefinitionReport {
    /// Composite pairs connected in the view but not in the workflow —
    /// *spurious* dependencies that would mislead provenance analysis
    /// (e.g. composite 14 → 18 in the paper's Figure 1).
    pub spurious: Vec<DependencyMismatch>,
    /// Composite pairs connected in the workflow but not in the view —
    /// *missing* dependencies. These cannot occur for views that preserve
    /// all inter-composite edges, but imported views are checked anyway.
    pub missing: Vec<DependencyMismatch>,
}

impl DefinitionReport {
    /// `true` iff view-level and workflow-level connectivity agree exactly.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.spurious.is_empty() && self.missing.is_empty()
    }
}

/// Validates a view against Definition 2.1 using polynomial reachability
/// computations: there must be a view-level path between two composite tasks
/// iff some pair of their members is connected in the workflow.
///
/// Both connectivities are composite-labelled closures
/// ([`LabelledClosure`]) over the composite slots: on the specification,
/// each task is labelled with its composite, so composite `a`'s row holds
/// every composite some member of `a` reaches; on the induced view graph,
/// node `i` is composite slot `i` and is labelled with itself, so the row is
/// view-level reachability. Since a view partitions the tasks, a member of
/// `a` reaching a task of `b ≠ a` is a workflow path between *distinct*
/// tasks, so this is exactly the pairwise ∃-path check. With the self bit
/// cleared, spurious pairs are `view & !workflow` and missing pairs
/// `workflow & !view`, read word by word in ascending `(a, b)` order — in
/// O((V + E) · C/64) words for C composite slots.
#[must_use]
pub fn validate_by_definition(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
    let slots = view.composite_slot_count();
    let in_workflow = LabelledClosure::build(&spec.csr_snapshot(), slots, |task| {
        view.composite_of(task).map(CompositeTaskId::index)
    });
    let induced = view.induced_graph(spec);
    let in_view = LabelledClosure::build(&Csr::from_graph(&induced.graph), slots, |node| {
        Some(node.index())
    });
    let mut report = DefinitionReport {
        spurious: Vec::new(),
        missing: Vec::new(),
    };
    for a in 0..slots {
        let from = CompositeTaskId::from_index(a);
        for (w, (&v, &f)) in in_view.row(a).iter().zip(in_workflow.row(a)).enumerate() {
            let self_bit = if w == a / 64 { 1u64 << (a % 64) } else { 0 };
            for (mut bits, list) in [
                (v & !f & !self_bit, &mut report.spurious),
                (f & !v & !self_bit, &mut report.missing),
            ] {
                while bits != 0 {
                    let to = CompositeTaskId::from_index(w * 64 + bits.trailing_zeros() as usize);
                    list.push(DependencyMismatch { from, to });
                    bits &= bits - 1;
                }
            }
        }
    }
    report
}

/// Validates a view against Definition 2.1 by literally enumerating simple
/// paths (no transitive-closure data structures). Exponential in the worst
/// case; refuse large inputs with `None`.
///
/// `max_nodes` bounds the size of graphs this is willing to touch.
#[must_use]
pub fn validate_naive(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    max_nodes: usize,
) -> Option<DefinitionReport> {
    if spec.task_count() > max_nodes {
        return None;
    }
    let induced = view.induced_graph(spec);
    let composites: Vec<CompositeTaskId> = view.composite_ids().collect();

    let mut spurious = Vec::new();
    let mut missing = Vec::new();
    for &a in &composites {
        for &b in &composites {
            if a == b {
                continue;
            }
            let in_view = match (induced.node_of(a), induced.node_of(b)) {
                (Some(na), Some(nb)) => path_exists_by_enumeration(&induced.graph, na, nb),
                _ => false,
            };
            let members_a: Vec<TaskId> = view
                .composite(a)
                .map(|c| c.members().iter().copied().collect())
                .unwrap_or_default();
            let members_b: Vec<TaskId> = view
                .composite(b)
                .map(|c| c.members().iter().copied().collect())
                .unwrap_or_default();
            let in_workflow = members_a.iter().any(|&t1| {
                members_b
                    .iter()
                    .any(|&t2| path_exists_by_enumeration(spec.graph(), t1, t2))
            });
            match (in_view, in_workflow) {
                (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                _ => {}
            }
        }
    }
    Some(DefinitionReport { spurious, missing })
}

/// Naive DFS path enumeration without memoisation — deliberately the
/// textbook-exponential procedure the paper warns about.
fn path_exists_by_enumeration<N, E>(
    graph: &wolves_graph::DiGraph<N, E>,
    from: wolves_graph::NodeId,
    to: wolves_graph::NodeId,
) -> bool {
    fn dfs<N, E>(
        graph: &wolves_graph::DiGraph<N, E>,
        current: wolves_graph::NodeId,
        to: wolves_graph::NodeId,
        on_path: &mut Vec<wolves_graph::NodeId>,
    ) -> bool {
        if current == to {
            return true;
        }
        // deliberately naive: the per-call collect (and the absence of any
        // memoisation) IS the E5 baseline — do not optimise this path
        for next in graph.successors(current).collect::<Vec<_>>() {
            if on_path.contains(&next) {
                continue;
            }
            on_path.push(next);
            if dfs(graph, next, to, on_path) {
                return true;
            }
            on_path.pop();
        }
        false
    }
    let mut on_path = vec![from];
    dfs(graph, from, to, &mut on_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wolves_graph::traversal::{reachable_set, Direction};
    use wolves_workflow::builder::ViewBuilder;
    use wolves_workflow::WorkflowBuilder;

    fn figure1() -> (WorkflowSpec, WorkflowView, Vec<TaskId>) {
        let mut b = WorkflowBuilder::new("phylogenomics");
        let names = [
            "Select entries",
            "Split entries",
            "Extract annotations",
            "Curate annotations",
            "Format annotations",
            "Extract sequences",
            "Create alignment",
            "Format alignment",
            "Check other annotations",
            "Process annotations",
            "Build phylo tree",
            "Display tree",
        ];
        let t: Vec<TaskId> = names.iter().map(|n| b.task(*n)).collect();
        for (from, to) in [
            (0, 1),
            (1, 2),
            (1, 5),
            (2, 3),
            (3, 4),
            (4, 10),
            (5, 6),
            (6, 7),
            (7, 10),
            (8, 9),
            (9, 10),
            (10, 11),
        ] {
            b.edge(t[from], t[to]).unwrap();
        }
        let spec = b.build().unwrap();
        let view = ViewBuilder::new(&spec, "figure1b")
            .group("13".to_owned(), vec![t[0], t[1]])
            .group("14".to_owned(), vec![t[2]])
            .group("15".to_owned(), vec![t[5]])
            .group("16".to_owned(), vec![t[3], t[6]])
            .group("17".to_owned(), vec![t[4]])
            .group("18".to_owned(), vec![t[7]])
            .group("19".to_owned(), vec![t[8], t[9], t[10], t[11]])
            .build()
            .unwrap();
        (spec, view, t)
    }

    /// Definition 2.1 reimplemented on plain BFS, so the comparison is
    /// independent of the closures: a quadratic task-pair loop for
    /// workflow-level connectivity, per-pair BFS for view-level
    /// connectivity.
    fn pairwise_reference(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
        let induced = view.induced_graph(spec);
        let composites: Vec<CompositeTaskId> = view.composite_ids().collect();
        let tasks: Vec<TaskId> = spec.task_ids().collect();
        let mut connected: BTreeSet<(CompositeTaskId, CompositeTaskId)> = BTreeSet::new();
        for &u in &tasks {
            let reach = reachable_set(spec.graph(), &[u], Direction::Forward);
            for &v in &tasks {
                if u == v || !reach.contains(v.index()) {
                    continue;
                }
                let (Some(cu), Some(cv)) = (view.composite_of(u), view.composite_of(v)) else {
                    continue;
                };
                if cu != cv {
                    connected.insert((cu, cv));
                }
            }
        }
        let mut spurious = Vec::new();
        let mut missing = Vec::new();
        for &a in &composites {
            for &b in &composites {
                if a == b {
                    continue;
                }
                let in_view = match (induced.node_of(a), induced.node_of(b)) {
                    (Some(na), Some(nb)) => {
                        reachable_set(&induced.graph, &[na], Direction::Forward)
                            .contains(nb.index())
                    }
                    _ => false,
                };
                let in_workflow = connected.contains(&(a, b));
                match (in_view, in_workflow) {
                    (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                    (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                    _ => {}
                }
            }
        }
        DefinitionReport { spurious, missing }
    }

    /// Asserts that [`validate_by_definition`] returns exactly the
    /// [`pairwise_reference`] report, lists and order included.
    fn assert_matches_reference(spec: &WorkflowSpec, view: &WorkflowView) {
        let fast = validate_by_definition(spec, view);
        let reference = pairwise_reference(spec, view);
        assert_eq!(fast.spurious, reference.spurious);
        assert_eq!(fast.missing, reference.missing);
    }

    #[test]
    fn figure1_view_is_unsound_because_of_composite_16() {
        let (spec, view, _) = figure1();
        let report = validate(&spec, &view);
        assert!(!report.is_sound());
        let unsound = report.unsound_composites();
        assert_eq!(unsound.len(), 1);
        let detail = report
            .reports()
            .iter()
            .find(|r| r.composite == unsound[0])
            .unwrap();
        assert_eq!(detail.name, "16");
        // T.in = T.out = {Curate annotations, Create alignment}; neither can
        // reach the other, so both ordered pairs are reported.
        assert_eq!(detail.verdict.witnesses.len(), 2);
    }

    #[test]
    fn figure1_definition_check_finds_the_spurious_14_to_18_dependency() {
        let (spec, view, t) = figure1();
        let report = validate_by_definition(&spec, &view);
        assert!(!report.is_sound());
        assert!(report.missing.is_empty());
        let c14 = view.composite_of(t[2]).unwrap();
        let c18 = view.composite_of(t[7]).unwrap();
        assert!(report.spurious.iter().any(|m| m.from == c14 && m.to == c18));
    }

    #[test]
    fn definition_check_tracks_an_edit_loop() {
        use wolves_workflow::SpecMutation;
        let (mut spec, view, t) = figure1();
        let c14 = view.composite_of(t[2]).unwrap();
        let c18 = view.composite_of(t[7]).unwrap();
        let has_14_to_18 = |report: &DefinitionReport| {
            report.spurious.iter().any(|m| m.from == c14 && m.to == c18)
        };
        let baseline = validate_by_definition(&spec, &view);
        assert_eq!(baseline.spurious.len(), 2);
        assert!(has_14_to_18(&baseline));

        // the user repairs the workflow instead of the view: connecting
        // Curate annotations -> Create alignment realises the 14 -> 18 path
        spec.apply(SpecMutation::AddDependency {
            from: t[3],
            to: t[6],
        })
        .unwrap();
        let repaired = validate_by_definition(&spec, &view);
        assert!(!has_14_to_18(&repaired));
        // the unrelated 15 -> 17 spurious dependency is still reported
        assert_eq!(repaired.spurious.len(), 1);
        assert_matches_reference(&spec, &view);

        // undoing the edit brings the spurious dependency back
        spec.apply(SpecMutation::RemoveDependency {
            from: t[3],
            to: t[6],
        })
        .unwrap();
        let reverted = validate_by_definition(&spec, &view);
        assert_eq!(reverted.spurious, baseline.spurious);
        assert!(has_14_to_18(&reverted));
        assert_matches_reference(&spec, &view);
    }

    #[test]
    fn definition_check_follows_membership_only_view_edits() {
        use wolves_workflow::{AtomicTask, DataDependency};
        // t0, t1, t2 with the single edge t1 -> t2; view {t0, t1} | {t2}
        let mut spec = WorkflowSpec::new("membership");
        let t: Vec<TaskId> = (0..3)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        spec.add_dependency(t[1], t[2], DataDependency::unnamed())
            .unwrap();
        let mut view = WorkflowView::from_groups(
            &spec,
            "v",
            vec![("ab".into(), vec![t[0], t[1]]), ("c".into(), vec![t[2]])],
        )
        .unwrap();
        assert!(validate_by_definition(&spec, &view).is_sound());
        // dropping t1 from 'ab' keeps the composite-id set identical but
        // changes the membership: ab -> c is gone from both the view and
        // the workflow, and no path through the departed t1 may count
        view.remove_member(t[1]).unwrap();
        let report = validate_by_definition(&spec, &view);
        assert!(report.is_sound());
        assert_matches_reference(&spec, &view);
    }

    #[test]
    fn singleton_views_are_sound_under_all_checks() {
        let (spec, _, _) = figure1();
        let view = WorkflowView::singletons(&spec, "fine");
        assert!(validate(&spec, &view).is_sound());
        assert!(validate_by_definition(&spec, &view).is_sound());
        assert!(validate_naive(&spec, &view, 64).unwrap().is_sound());
    }

    #[test]
    fn naive_check_agrees_with_polynomial_definition_check() {
        let (spec, view, _) = figure1();
        let poly = validate_by_definition(&spec, &view);
        let naive = validate_naive(&spec, &view, 64).unwrap();
        assert_eq!(poly.is_sound(), naive.is_sound());
        assert_eq!(poly.spurious.len(), naive.spurious.len());
        assert_eq!(poly.missing.len(), naive.missing.len());
    }

    #[test]
    fn naive_check_refuses_oversized_inputs() {
        let (spec, view, _) = figure1();
        assert!(validate_naive(&spec, &view, 4).is_none());
    }

    #[test]
    fn proposition_2_1_soundness_implies_definition_soundness() {
        // the corrected Figure 1 view must be sound under both checks
        let (spec, view, _) = figure1();
        let (corrected, _) =
            crate::correct::correct_view(&spec, &view, &crate::correct::StrongCorrector::new())
                .unwrap();
        let prop = validate(&spec, &corrected);
        assert!(prop.is_sound());
        assert!(validate_by_definition(&spec, &corrected).is_sound());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use wolves_workflow::{AtomicTask, DataDependency};

        /// Arbitrary specs (DAG when `cyclic` is false, back edges permitted
        /// when true) with an arbitrary partition into composite tasks.
        fn arbitrary_spec_and_view(
            max_nodes: usize,
            cyclic: bool,
        ) -> impl Strategy<Value = (WorkflowSpec, WorkflowView)> {
            (3..max_nodes)
                .prop_flat_map(move |n| {
                    let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
                    let slots = proptest::collection::vec(0..n.div_ceil(2), n..(n + 1));
                    (Just(n), edges, slots)
                })
                .prop_map(move |(n, raw_edges, slots)| {
                    let mut spec = WorkflowSpec::new("prop");
                    let ids: Vec<TaskId> = (0..n)
                        .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
                        .collect();
                    for (a, b) in raw_edges {
                        let (from, to) = if cyclic {
                            (a, b)
                        } else {
                            // orient low → high to guarantee a DAG
                            if a < b {
                                (a, b)
                            } else {
                                (b, a)
                            }
                        };
                        if from != to {
                            let _ =
                                spec.add_dependency(ids[from], ids[to], DataDependency::unnamed());
                        }
                    }
                    let slot_count = slots.iter().copied().max().unwrap_or(0) + 1;
                    let mut buckets: Vec<Vec<TaskId>> = vec![Vec::new(); slot_count];
                    for (task, &slot) in ids.iter().zip(&slots) {
                        buckets[slot].push(*task);
                    }
                    let groups: Vec<(String, Vec<TaskId>)> = buckets
                        .into_iter()
                        .filter(|bucket| !bucket.is_empty())
                        .enumerate()
                        .map(|(index, bucket)| (format!("g{index}"), bucket))
                        .collect();
                    let view = WorkflowView::from_groups(&spec, "prop-view", groups)
                        .expect("buckets partition the tasks");
                    (spec, view)
                })
        }

        /// Drives a random mutation sequence through `spec.apply` and
        /// asserts the from-scratch report equals [`pairwise_reference`]
        /// after every step — edge inserts and removals in raw orientation,
        /// so SCC merges and splits through later removals are common.
        fn assert_matches_reference_through_spec_edits(
            spec: &mut WorkflowSpec,
            view: &WorkflowView,
            ops: Vec<(usize, usize, usize)>,
        ) {
            use wolves_workflow::SpecMutation;
            let tasks: Vec<TaskId> = spec.task_ids().collect();
            for (op, raw_a, raw_b) in ops {
                let from = tasks[raw_a % tasks.len()];
                let to = tasks[raw_b % tasks.len()];
                if from == to {
                    continue;
                }
                let mutation = if op % 3 == 0 {
                    SpecMutation::RemoveDependency { from, to }
                } else {
                    SpecMutation::AddDependency { from, to }
                };
                if spec.apply(mutation).is_err() {
                    continue; // duplicate insert or missing edge to remove
                }
                assert_matches_reference(spec, view);
            }
        }

        /// Like [`assert_matches_reference_through_spec_edits`], but the
        /// script also mutates the *view*: spec-level task removals tracked
        /// by `remove_member` (tombstoned task slots) and membership-only
        /// view edits (tasks dropped from the view, emptied composites).
        fn assert_matches_reference_through_spec_and_view_edits(
            spec: &mut WorkflowSpec,
            view: &mut WorkflowView,
            ops: Vec<(usize, usize, usize)>,
        ) {
            use wolves_workflow::SpecMutation;
            for (op, raw_a, raw_b) in ops {
                let tasks: Vec<TaskId> = spec.task_ids().collect();
                if tasks.len() < 4 {
                    break;
                }
                let from = tasks[raw_a % tasks.len()];
                let to = tasks[raw_b % tasks.len()];
                match op % 6 {
                    0 => {
                        if spec
                            .apply(SpecMutation::RemoveDependency { from, to })
                            .is_err()
                        {
                            continue;
                        }
                    }
                    4 => {
                        // spec-level task removal, tracked in the view
                        if spec.apply(SpecMutation::RemoveTask { task: from }).is_err() {
                            continue;
                        }
                        let _ = view.remove_member(from);
                    }
                    5 => {
                        // membership-only view edit (no spec change)
                        if view.remove_member(from).is_err() {
                            continue;
                        }
                    }
                    _ => {
                        if from == to
                            || spec
                                .apply(SpecMutation::AddDependency { from, to })
                                .is_err()
                        {
                            continue;
                        }
                    }
                }
                assert_matches_reference(spec, view);
            }
        }

        /// The literal path-enumeration check is a second oracle,
        /// independent of both closures and of BFS: it must return the same
        /// lists in the same order.
        fn assert_naive_agrees(spec: &WorkflowSpec, view: &WorkflowView) {
            let fast = validate_by_definition(spec, view);
            let naive = validate_naive(spec, view, 16).expect("at most 9 tasks");
            assert_eq!(fast.spurious, naive.spurious);
            assert_eq!(fast.missing, naive.missing);
        }

        proptest! {
            #[test]
            fn prop_definition_check_matches_pairwise_on_dags(
                (spec, view) in arbitrary_spec_and_view(14, false)
            ) {
                assert_matches_reference(&spec, &view);
            }

            #[test]
            fn prop_definition_check_matches_pairwise_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(12, true)
            ) {
                assert_matches_reference(&spec, &view);
            }

            #[test]
            fn prop_definition_check_tracks_spec_edits_on_dags(
                (spec, view) in arbitrary_spec_and_view(12, false),
                ops in proptest::collection::vec((0usize..3, 0usize..32, 0usize..32), 1..16)
            ) {
                let mut spec = spec;
                assert_matches_reference_through_spec_edits(&mut spec, &view, ops);
            }

            #[test]
            fn prop_definition_check_tracks_spec_edits_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(10, true),
                ops in proptest::collection::vec((0usize..3, 0usize..32, 0usize..32), 1..16)
            ) {
                let mut spec = spec;
                assert_matches_reference_through_spec_edits(&mut spec, &view, ops);
            }

            #[test]
            fn prop_definition_check_tracks_spec_and_view_edits_on_dags(
                (spec, view) in arbitrary_spec_and_view(12, false),
                ops in proptest::collection::vec((0usize..6, 0usize..32, 0usize..32), 1..20)
            ) {
                let (mut spec, mut view) = (spec, view);
                assert_matches_reference_through_spec_and_view_edits(&mut spec, &mut view, ops);
            }

            #[test]
            fn prop_definition_check_tracks_spec_and_view_edits_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(10, true),
                ops in proptest::collection::vec((0usize..6, 0usize..32, 0usize..32), 1..20)
            ) {
                let (mut spec, mut view) = (spec, view);
                assert_matches_reference_through_spec_and_view_edits(&mut spec, &mut view, ops);
            }

            #[test]
            fn prop_naive_check_lists_the_same_mismatches_on_dags(
                (spec, view) in arbitrary_spec_and_view(10, false)
            ) {
                assert_naive_agrees(&spec, &view);
            }

            #[test]
            fn prop_naive_check_lists_the_same_mismatches_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(10, true)
            ) {
                assert_naive_agrees(&spec, &view);
            }

            #[test]
            fn prop_proposition_2_1_never_accepts_what_the_definition_rejects(
                (spec, view) in arbitrary_spec_and_view(12, false)
            ) {
                // Proposition 2.1 soundness ⇒ Definition 2.1 soundness
                if validate(&spec, &view).is_sound() {
                    prop_assert!(validate_by_definition(&spec, &view).is_sound());
                }
            }
        }
    }
}
