//! Provenance (lineage) queries at the workflow level and at the view level.
//!
//! Both queries answer the question "which tasks are in the provenance of
//! the output of task X?" and additionally report how many graph edges the
//! traversal touched, so the paper's efficiency argument — view-level
//! transitive closures are cheaper because the view graph is much smaller —
//! can be measured directly (experiment E6).

use std::collections::BTreeSet;
use std::sync::Arc;

use wolves_graph::{Csr, FixedBitSet, GraphError, NodeId, ReachMatrix};
use wolves_workflow::{CompositeTaskId, InducedViewGraph, TaskId, WorkflowSpec, WorkflowView};

/// Result of a provenance query.
#[derive(Debug, Clone)]
pub struct ProvenanceAnswer {
    /// The task whose output was queried.
    pub subject: TaskId,
    /// Tasks reported to be in the provenance of the subject's output
    /// (excluding the subject itself).
    pub tasks: BTreeSet<TaskId>,
    /// Composite tasks reported in the provenance (empty for workflow-level
    /// queries).
    pub composites: BTreeSet<CompositeTaskId>,
    /// Number of directed edges traversed while answering.
    pub edges_traversed: usize,
}

/// Workflow-level provenance: the exact set of tasks with a directed path to
/// `subject`, computed by a backward traversal of the specification. This is
/// the ground truth every view-level answer is compared against.
#[must_use]
pub fn workflow_level_provenance(spec: &WorkflowSpec, subject: TaskId) -> ProvenanceAnswer {
    let mut visited: BTreeSet<TaskId> = BTreeSet::new();
    let mut stack = vec![subject];
    let mut edges = 0usize;
    while let Some(task) = stack.pop() {
        for pred in spec.predecessors(task) {
            edges += 1;
            if visited.insert(pred) {
                stack.push(pred);
            }
        }
    }
    visited.remove(&subject);
    ProvenanceAnswer {
        subject,
        tasks: visited,
        composites: BTreeSet::new(),
        edges_traversed: edges,
    }
}

/// Forward provenance (*impact*): the exact set of tasks whose inputs
/// transitively depend on `subject`'s output. Answered straight off the
/// specification's cached reachability matrix — one row borrow plus an O(V)
/// membership filter, no graph traversal at all (`edges_traversed` is 0).
#[must_use]
pub fn workflow_level_impact(spec: &WorkflowSpec, subject: TaskId) -> ProvenanceAnswer {
    let reach = spec.reachability();
    let tasks: BTreeSet<TaskId> = match reach.reachable_row(subject) {
        Some(row) => spec
            .task_ids()
            .filter(|&t| t != subject && row.contains(t))
            .collect(),
        None => BTreeSet::new(),
    };
    ProvenanceAnswer {
        subject,
        tasks,
        composites: BTreeSet::new(),
        edges_traversed: 0,
    }
}

/// A reusable, matrix-backed index answering view-level provenance queries.
///
/// [`view_level_provenance`] rebuilds the induced view graph and walks it on
/// every call; a server answering many queries against the same `(spec,
/// view)` pair should build this index once and reuse it.
///
/// * **Build** — O(V + E + C²/64) for the induced view graph (one pass
///   over the specification's dependencies through the view's dense task →
///   composite table, see [`WorkflowView::induced_graph`]) plus the
///   view-level [`ReachMatrix`] over the C live composites, which is small
///   because the view graph is.
/// * **Query** — O(C) row lookups find the composites that strictly reach
///   the subject's composite; their member lists are OR'd into a task
///   bitset, read back in ascending id order. O(C + answer + V/64), with no
///   graph construction and no ordered-set inserts.
/// * **Spec edits** — the index is kept, not rebuilt: after a task or
///   dependency edit, [`ViewProvenanceIndex::carry`] finds what the edit
///   did to the induced view graph and absorbs it through the matrix's
///   incremental maintenance. Cloning is cheap (both parts are
///   block-shared), so a copy-on-write holder clones the index and edits
///   the clone.
#[derive(Debug, Clone)]
pub struct ViewProvenanceIndex {
    /// The induced view graph: node `i` is composite slot `i`.
    induced: InducedViewGraph,
    /// Its closure (tombstoned slots are dead nodes the matrix leaves out).
    view_reach: ReachMatrix,
}

impl ViewProvenanceIndex {
    /// Builds the index: the induced view graph plus its reachability
    /// matrix.
    #[must_use]
    pub fn new(spec: &WorkflowSpec, view: &WorkflowView) -> Self {
        let induced = view.induced_graph(spec);
        let view_reach = ReachMatrix::build_from_csr(&Csr::from_graph(&induced.graph));
        ViewProvenanceIndex {
            induced,
            view_reach,
        }
    }

    /// Carries an index that was current before a spec edit to the spec
    /// and view after it. Returns `false` when it cannot, and the index
    /// must then be dropped and rebuilt.
    ///
    /// The edit may only have added or emptied the composites in
    /// `composites`, and made or broken the links between the ordered
    /// composite pairs in `pairs` (a link is one or more dependencies from
    /// a member of the first composite to a member of the second). The
    /// rule, per item, each absorbed in place by the matrix's incremental
    /// maintenance:
    ///
    /// * a live composite the index does not hold is new: a node insert;
    /// * a composite the index holds that the view no longer has was
    ///   emptied: a node removal (its links go with it);
    /// * two distinct live composites the index does not link, now joined
    ///   by a dependency: an edge insert;
    /// * two composites the index links with no dependency left between
    ///   them: an edge removal.
    ///
    /// A link check walks the dependencies of the smaller composite's
    /// members only. An edit that leaves the induced graph as it was (an
    /// edge inside one composite, or beside a parallel one) keeps the very
    /// same `Arc`; any other copies the index off other holders first.
    pub fn carry(
        index: &mut Arc<Self>,
        spec: &WorkflowSpec,
        view: &WorkflowView,
        composites: &[CompositeTaskId],
        pairs: &[(CompositeTaskId, CompositeTaskId)],
    ) -> bool {
        let changes = index.changes(spec, view, composites, pairs);
        changes.is_empty() || Arc::make_mut(index).apply(&changes).is_ok()
    }

    /// What the edit did to the induced view graph, by the rule of
    /// [`ViewProvenanceIndex::carry`].
    fn changes(
        &self,
        spec: &WorkflowSpec,
        view: &WorkflowView,
        composites: &[CompositeTaskId],
        pairs: &[(CompositeTaskId, CompositeTaskId)],
    ) -> Vec<InducedChange> {
        let mut changes = Vec::new();
        for &composite in composites {
            let live = view.composite(composite).is_ok();
            match (live, self.induced.node_of(composite).is_some()) {
                (true, false) => changes.push(InducedChange::AddComposite(composite)),
                (false, true) => changes.push(InducedChange::RemoveComposite(composite)),
                _ => {}
            }
        }
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        pairs.dedup();
        for (from, to) in pairs {
            if from == to || view.composite(from).is_err() || view.composite(to).is_err() {
                continue;
            }
            match (
                linked(spec, view, from, to),
                self.induced.has_edge(from, to),
            ) {
                (true, false) => changes.push(InducedChange::AddLink(from, to)),
                (false, true) => changes.push(InducedChange::RemoveLink(from, to)),
                _ => {}
            }
        }
        changes
    }

    /// Applies `changes` in order, to the induced graph and its matrix
    /// alike.
    ///
    /// # Errors
    /// Fails on a change the index cannot take: a new composite whose slot
    /// is not the next graph node, or a link or composite the induced graph
    /// does not hold. The index is then partly updated.
    fn apply(&mut self, changes: &[InducedChange]) -> Result<(), GraphError> {
        let node = |composite: CompositeTaskId| NodeId::from_index(composite.index());
        let graph = &mut self.induced.graph;
        for &change in changes {
            match change {
                InducedChange::AddComposite(composite) => {
                    if graph.node_bound() != composite.index() {
                        return Err(GraphError::InvalidNode(node(composite)));
                    }
                    let added = graph.add_node(composite);
                    self.view_reach.insert_node(added);
                }
                InducedChange::RemoveComposite(composite) => {
                    graph.remove_node(node(composite))?;
                    self.view_reach.remove_node(graph, node(composite))?;
                }
                InducedChange::AddLink(from, to) => {
                    graph.add_edge_unique(node(from), node(to), ())?;
                    self.view_reach
                        .insert_edge_in(graph, node(from), node(to))?;
                }
                InducedChange::RemoveLink(from, to) => {
                    let edge = graph
                        .find_edge(node(from), node(to))
                        .ok_or(GraphError::InvalidNode(node(from)))?;
                    graph.remove_edge(edge)?;
                    self.view_reach.remove_edge(graph, node(from), node(to))?;
                }
            }
        }
        Ok(())
    }

    /// Answers the same question as [`view_level_provenance`], from the
    /// index: every composite with a view-level path **to** the subject's
    /// composite (the subject's own composite included exactly when it lies
    /// on a view-level cycle), expanded to member tasks. `edges_traversed`
    /// is 0 — no edges are walked.
    #[must_use]
    pub fn provenance(&self, view: &WorkflowView, subject: TaskId) -> ProvenanceAnswer {
        let (composites, tasks) = self.answer(view, subject);
        ProvenanceAnswer {
            subject,
            tasks: tasks.into_iter().collect(),
            composites: composites.into_iter().collect(),
            edges_traversed: 0,
        }
    }

    /// The task ids of [`ViewProvenanceIndex::provenance`]'s answer, in
    /// ascending order — what a server renders, without building ordered
    /// sets.
    #[must_use]
    pub fn provenance_tasks(&self, view: &WorkflowView, subject: TaskId) -> Vec<TaskId> {
        self.answer(view, subject).1
    }

    /// The composites upstream of `subject` and the ascending task ids of
    /// the answer.
    fn answer(&self, view: &WorkflowView, subject: TaskId) -> (Vec<CompositeTaskId>, Vec<TaskId>) {
        let Some(start) = view.composite_of(subject) else {
            return (Vec::new(), Vec::new());
        };
        let mut tasks = FixedBitSet::with_capacity(view.task_bound());
        // the subject's own composite is an opaque unit to the user: its
        // other members are presented as provenance too
        if let Ok(own) = view.composite(start) {
            for &task in own.members() {
                tasks.insert(task.index());
            }
        }
        tasks.remove(subject.index());
        let mut composites = Vec::new();
        if let Some(target) = self.induced.node_of(start) {
            for node in self.induced.graph.node_ids() {
                // strictly_reachable makes the self query come out true
                // only when the composite sits on a view-level cycle,
                // matching the backward traversal of `view_level_provenance`
                if !self.view_reach.strictly_reachable(node, target) {
                    continue;
                }
                let Some(id) = self.induced.composite_of(node) else {
                    continue;
                };
                if let Ok(composite) = view.composite(id) {
                    composites.push(id);
                    for &task in composite.members() {
                        tasks.insert(task.index());
                    }
                }
            }
        }
        (composites, tasks.ones().map(TaskId::from_index).collect())
    }
}

/// One change a spec edit made to the induced view graph.
#[derive(Debug, Clone, Copy)]
enum InducedChange {
    /// A composite the index does not hold yet: a new node.
    AddComposite(CompositeTaskId),
    /// A composite the edit emptied: its node goes, and its links with it.
    RemoveComposite(CompositeTaskId),
    /// A dependency now joins two composites no dependency joined before.
    AddLink(CompositeTaskId, CompositeTaskId),
    /// The last dependency joining two composites went away.
    RemoveLink(CompositeTaskId, CompositeTaskId),
}

/// Whether a dependency of `spec` joins a member of `from` to a member of
/// `to`, found from the side with fewer members.
fn linked(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    from: CompositeTaskId,
    to: CompositeTaskId,
) -> bool {
    let (Ok(source), Ok(target)) = (view.composite(from), view.composite(to)) else {
        return false;
    };
    if source.len() <= target.len() {
        source.members().iter().any(|&task| {
            spec.successors(task)
                .any(|next| view.composite_of(next) == Some(to))
        })
    } else {
        target.members().iter().any(|&task| {
            spec.predecessors(task)
                .any(|prev| view.composite_of(prev) == Some(from))
        })
    }
}

/// View-level provenance: traverse the induced view graph backwards from the
/// composite containing `subject` and report every member task of every
/// composite reached — this is what a user analysing provenance *through the
/// view* would conclude (paper §1). For unsound views the answer may contain
/// tasks that are not really upstream of the subject.
#[must_use]
pub fn view_level_provenance(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    subject: TaskId,
) -> ProvenanceAnswer {
    let induced = view.induced_graph(spec);
    let Some(start_composite) = view.composite_of(subject) else {
        return ProvenanceAnswer {
            subject,
            tasks: BTreeSet::new(),
            composites: BTreeSet::new(),
            edges_traversed: 0,
        };
    };
    let mut composites: BTreeSet<CompositeTaskId> = BTreeSet::new();
    let mut edges = 0usize;
    if let Some(start_node) = induced.node_of(start_composite) {
        let mut visited: BTreeSet<wolves_graph::NodeId> = BTreeSet::new();
        let mut stack = vec![start_node];
        while let Some(node) = stack.pop() {
            for pred in induced.graph.predecessors(node) {
                edges += 1;
                if visited.insert(pred) {
                    stack.push(pred);
                }
            }
        }
        for node in visited {
            if let Some(composite) = induced.composite_of(node) {
                composites.insert(composite);
            }
        }
    }
    // Everything inside the subject's own composite (other than the subject)
    // is also presented as provenance by the view, since the composite is an
    // opaque unit to the user.
    let mut tasks: BTreeSet<TaskId> = BTreeSet::new();
    if let Ok(own) = view.composite(start_composite) {
        tasks.extend(own.members().iter().copied().filter(|&t| t != subject));
    }
    for &composite in &composites {
        if let Ok(c) = view.composite(composite) {
            tasks.extend(c.members().iter().copied());
        }
    }
    ProvenanceAnswer {
        subject,
        tasks,
        composites,
        edges_traversed: edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_core::correct::{correct_view, StrongCorrector};
    use wolves_repo::figure1;

    #[test]
    fn workflow_level_provenance_is_the_ancestor_set() {
        let fixture = figure1();
        // provenance of Format alignment (8): 1, 2, 6, 7
        let answer = workflow_level_provenance(&fixture.spec, fixture.task(8));
        let expected: BTreeSet<TaskId> = [
            fixture.task(1),
            fixture.task(2),
            fixture.task(6),
            fixture.task(7),
        ]
        .into_iter()
        .collect();
        assert_eq!(answer.tasks, expected);
        assert!(answer.edges_traversed >= expected.len());
    }

    #[test]
    fn unsound_view_reports_spurious_provenance() {
        // This is the paper's motivating example: through the unsound view,
        // the output of composite 18 (Format alignment) appears to depend on
        // composite 14 (Extract annotations), i.e. on task 3.
        let fixture = figure1();
        let answer = view_level_provenance(&fixture.spec, &fixture.view, fixture.task(8));
        assert!(
            answer.tasks.contains(&fixture.task(3)),
            "spurious task 3 reported"
        );
        let truth = workflow_level_provenance(&fixture.spec, fixture.task(8));
        assert!(!truth.tasks.contains(&fixture.task(3)));
        // composites 13, 14, 15, 16 are all reported, as the paper states
        assert_eq!(answer.composites.len(), 4);
    }

    #[test]
    fn corrected_view_answers_match_the_ground_truth() {
        let fixture = figure1();
        let (corrected, _) =
            correct_view(&fixture.spec, &fixture.view, &StrongCorrector::new()).unwrap();
        let answer = view_level_provenance(&fixture.spec, &corrected, fixture.task(8));
        let truth = workflow_level_provenance(&fixture.spec, fixture.task(8));
        assert_eq!(answer.tasks, truth.tasks);
    }

    #[test]
    fn view_level_queries_traverse_fewer_edges() {
        let fixture = figure1();
        let view_answer = view_level_provenance(&fixture.spec, &fixture.view, fixture.task(11));
        let workflow_answer = workflow_level_provenance(&fixture.spec, fixture.task(11));
        assert!(view_answer.edges_traversed <= workflow_answer.edges_traversed);
    }

    #[test]
    fn unknown_subjects_yield_empty_answers() {
        let fixture = figure1();
        let ghost = TaskId::from_index(500);
        let answer = view_level_provenance(&fixture.spec, &fixture.view, ghost);
        assert!(answer.tasks.is_empty());
        assert_eq!(answer.edges_traversed, 0);
        let index = ViewProvenanceIndex::new(&fixture.spec, &fixture.view);
        assert!(index.provenance(&fixture.view, ghost).tasks.is_empty());
        assert!(workflow_level_impact(&fixture.spec, ghost).tasks.is_empty());
    }

    #[test]
    fn impact_is_the_descendant_set() {
        let fixture = figure1();
        // impact of Create alignment (7): 8, 11, 12
        let answer = workflow_level_impact(&fixture.spec, fixture.task(7));
        let expected: BTreeSet<TaskId> = [fixture.task(8), fixture.task(11), fixture.task(12)]
            .into_iter()
            .collect();
        assert_eq!(answer.tasks, expected);
        assert_eq!(answer.edges_traversed, 0);
        // impact and provenance are converses
        for &t in &answer.tasks {
            let upstream = workflow_level_provenance(&fixture.spec, t);
            assert!(upstream.tasks.contains(&fixture.task(7)));
        }
    }

    #[test]
    fn index_answers_match_the_traversal_for_every_subject() {
        let fixture = figure1();
        let index = ViewProvenanceIndex::new(&fixture.spec, &fixture.view);
        for subject in fixture.spec.task_ids() {
            let walked = view_level_provenance(&fixture.spec, &fixture.view, subject);
            let indexed = index.provenance(&fixture.view, subject);
            assert_eq!(indexed.tasks, walked.tasks, "tasks for {subject:?}");
            assert_eq!(
                indexed.composites, walked.composites,
                "composites for {subject:?}"
            );
        }
    }

    #[test]
    fn index_matches_traversal_through_a_view_level_cycle() {
        // two composites with edges both ways: a <-> b at the view level
        // (the spec is a DAG; the cycle exists only after grouping)
        use wolves_workflow::{AtomicTask, DataDependency, WorkflowView};
        let mut spec = wolves_workflow::WorkflowSpec::new("viewcycle");
        let t: Vec<TaskId> = (0..4)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        // t0 -> t1 (a -> b), t2 -> t3 (b -> a)
        spec.add_dependency(t[0], t[1], DataDependency::unnamed())
            .unwrap();
        spec.add_dependency(t[2], t[3], DataDependency::unnamed())
            .unwrap();
        let view = WorkflowView::from_groups(
            &spec,
            "cyclic-view",
            vec![
                ("a".into(), vec![t[0], t[3]]),
                ("b".into(), vec![t[1], t[2]]),
            ],
        )
        .unwrap();
        let index = ViewProvenanceIndex::new(&spec, &view);
        for &subject in &t {
            let walked = view_level_provenance(&spec, &view, subject);
            let indexed = index.provenance(&view, subject);
            assert_eq!(indexed.tasks, walked.tasks);
            assert_eq!(indexed.composites, walked.composites);
            // both composites sit on the view-level cycle, so both appear
            assert_eq!(indexed.composites.len(), 2);
        }
    }
}
