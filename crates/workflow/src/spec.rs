//! Workflow specifications.

use std::sync::{Arc, OnceLock};

use wolves_graph::{Csr, DeltaClass, DeltaOutcome, DiGraph, DirtyRows, GraphError, ReachMatrix};

use crate::error::WorkflowError;
use crate::mutation::{MutationReport, SpecDelta, SpecDeltaKind, SpecMutation};
use crate::names::NameIndex;
use crate::persist::{check_slot_bound, MAX_SLOT_BOUND};
use crate::task::{AtomicTask, DataDependency, TaskId};

/// A workflow specification: a DAG of atomic tasks connected by data
/// dependencies (paper Figure 1(a)).
///
/// The specification owns a lazily computed all-pairs reachability matrix;
/// every soundness question ultimately reduces to `reach(t1, t2)` queries
/// against it. Mutations run through the epoch machinery (see
/// [`crate::mutation`]): each edit bumps the epoch, reports its own
/// [`SpecDelta`], and maintains the cached matrix *in place* where the
/// delta class allows — a dependency insert walks up the source's
/// predecessors and ORs the target's row into the rows that lack it,
/// removals run the decremental path (SCC split detection plus bounded
/// ancestor re-derivation over the post-removal graph), and a task without
/// dependencies comes and goes in one row write. No single edit pays a
/// full rebuild once the matrix exists. The spec keeps no history of its
/// edits: consumers take each delta from the [`MutationReport`] of the
/// edit that produced it.
///
/// Cloning preserves the epoch **and** the cached reachability matrix, so
/// copy-on-write holders (e.g. the serving layer's `Arc::make_mut`) stay
/// incremental across clones. The clone is also cheap: the graph's slots,
/// the matrix's rows and the name index's hash table all live in `Arc`'d
/// blocks ([`wolves_graph::BlockVec`]), so a clone copies block handles
/// plus the small per-component vectors — about 15 µs at 10k tasks instead
/// of a 9 ms deep copy. An edit after the clone copies only the blocks it
/// writes: an edge edit copies two node blocks, one edge block and the
/// matrix blocks whose rows changed; a task add or remove also copies the
/// one 4 KiB block of the name index it writes. Dropping the superseded
/// version frees just those blocks.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    name: String,
    graph: DiGraph<AtomicTask, DataDependency>,
    /// Task name → id, over the names the graph holds; clones share its
    /// blocks until a task add or remove writes one.
    names: NameIndex,
    reach: OnceLock<ReachMatrix>,
    epoch: u64,
}

impl WorkflowSpec {
    /// Creates an empty specification.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowSpec {
            name: name.into(),
            graph: DiGraph::new(),
            names: NameIndex::new(),
            reach: OnceLock::new(),
            epoch: 0,
        }
    }

    /// Rebuilds a specification from restored parts — the storage layer's
    /// recovery path. The graph must carry the exact slot layout (including
    /// tombstones) of the serialised spec so future task/dependency ids are
    /// assigned identically; `epoch` resumes the mutation counter.
    ///
    /// # Errors
    /// Fails if two live tasks share a name.
    pub(crate) fn restore(
        name: String,
        graph: DiGraph<AtomicTask, DataDependency>,
        epoch: u64,
    ) -> Result<Self, WorkflowError> {
        let names = NameIndex::from_graph(&graph).map_err(WorkflowError::DuplicateTaskName)?;
        Ok(WorkflowSpec {
            name,
            graph,
            names,
            reach: OnceLock::new(),
            epoch,
        })
    }

    /// Builds a specification in one step from its tasks, which get the ids
    /// `0..tasks.len()` in order, and its dependencies between those ids:
    /// the spec the same [`WorkflowSpec::add_task`] and
    /// [`WorkflowSpec::add_dependency`] calls would build, epoch included
    /// (tasks + dependencies), at the cost of one graph build and one name
    /// index build.
    ///
    /// # Errors
    /// Exactly the error the first failing call of that sequence would
    /// return: a duplicate task name or too many task slots, then, per
    /// dependency in order, too many dependency slots, a duplicate, a
    /// self-loop or an unknown endpoint.
    pub fn from_parts(
        name: impl Into<String>,
        mut tasks: Vec<AtomicTask>,
        mut dependencies: Vec<(TaskId, TaskId, DataDependency)>,
    ) -> Result<Self, WorkflowError> {
        let task_graph = |tasks: Vec<AtomicTask>, dependencies: Vec<_>| {
            DiGraph::from_slots(
                tasks.into_iter().map(Some).collect(),
                dependencies.into_iter().map(Some).collect(),
            )
        };
        if tasks.len() > MAX_SLOT_BOUND {
            // the add past the limit checks its name before its slot
            tasks.truncate(MAX_SLOT_BOUND + 1);
            NameIndex::from_graph(&task_graph(tasks, Vec::new())?)
                .map_err(WorkflowError::DuplicateTaskName)?;
            return Err(WorkflowError::SlotBoundTooLarge {
                what: "task",
                bound: MAX_SLOT_BOUND + 1,
            });
        }
        // the first dependency refused on its own (slot limit, self-loop,
        // unknown endpoint); only the ones before it are built, and a
        // duplicate among them is refused before it
        let task_count = tasks.len();
        let refused = dependencies
            .iter()
            .enumerate()
            .find_map(|(index, &(from, to, _))| {
                if index >= MAX_SLOT_BOUND {
                    Some(WorkflowError::SlotBoundTooLarge {
                        what: "edge",
                        bound: index + 1,
                    })
                } else if from == to {
                    Some(GraphError::SelfLoop(from).into())
                } else if from.index() >= task_count {
                    Some(GraphError::InvalidNode(from).into())
                } else if to.index() >= task_count {
                    Some(GraphError::InvalidNode(to).into())
                } else {
                    None
                }
                .map(|error| (index, error))
            });
        if let Some((index, _)) = refused {
            dependencies.truncate(index);
        }
        let epoch = (task_count + dependencies.len()) as u64;
        let graph = task_graph(tasks, dependencies)?;
        let names = NameIndex::from_graph(&graph).map_err(WorkflowError::DuplicateTaskName)?;
        if let Some(edge) = graph.first_parallel_edge() {
            let (from, to) = graph.edge_endpoints(edge)?;
            return Err(GraphError::DuplicateEdge(from, to).into());
        }
        if let Some((_, error)) = refused {
            return Err(error);
        }
        Ok(WorkflowSpec {
            name: name.into(),
            graph,
            names,
            reach: OnceLock::new(),
            epoch,
        })
    }

    /// The specification's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of atomic tasks.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of data dependencies.
    #[must_use]
    pub fn dependency_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Adds an atomic task.
    ///
    /// # Errors
    /// Fails if a task with the same name already exists, or if the task
    /// slots would pass [`crate::persist::MAX_SLOT_BOUND`].
    pub fn add_task(&mut self, task: AtomicTask) -> Result<TaskId, WorkflowError> {
        self.add_task_mutation(task)
            .map(|report| report.task.expect("AddTask reports the created task"))
    }

    /// Adds a data dependency `from -> to`.
    ///
    /// Duplicate dependencies between the same tasks are rejected — a data
    /// dependency either exists or it does not.
    ///
    /// # Errors
    /// Fails on unknown endpoints, self-loops and duplicates, and if the
    /// dependency slots would pass [`crate::persist::MAX_SLOT_BOUND`].
    pub fn add_dependency(
        &mut self,
        from: TaskId,
        to: TaskId,
        dependency: DataDependency,
    ) -> Result<(), WorkflowError> {
        self.add_dependency_mutation(from, to, dependency)
            .map(|_| ())
    }

    /// Removes the data dependency `from -> to`.
    ///
    /// # Errors
    /// Fails if no such dependency exists.
    pub fn remove_dependency(&mut self, from: TaskId, to: TaskId) -> Result<(), WorkflowError> {
        self.remove_dependency_mutation(from, to).map(|_| ())
    }

    /// Removes a task and every dependency touching it, returning its
    /// payload.
    ///
    /// # Errors
    /// Fails if the id does not belong to this specification.
    pub fn remove_task(&mut self, id: TaskId) -> Result<AtomicTask, WorkflowError> {
        self.remove_task_mutation(id).map(|(task, _)| task)
    }

    fn remove_task_mutation(
        &mut self,
        id: TaskId,
    ) -> Result<(AtomicTask, MutationReport), WorkflowError> {
        // a task without dependencies frees its own matrix row and reads no
        // other; checked while the task is still in the graph
        let isolated = self.graph.predecessors(id).next().is_none()
            && self.graph.successors(id).next().is_none();
        let task = self
            .graph
            .remove_node(id)
            .map_err(|_| WorkflowError::UnknownTask(id))?;
        self.names.remove(&self.graph, &task.name, id);
        let (class, dirty) = maintain(&mut self.reach, |matrix| {
            if isolated {
                matrix.remove_isolated_node(id)
            } else {
                matrix.remove_node(&self.graph, id)
            }
        });
        let report = self.record(SpecDeltaKind::TaskRemoved(id), class, dirty, None);
        Ok((task, report))
    }

    /// Applies one typed mutation, returning the epoch, delta, delta class
    /// and dirty rows the edit produced. This is the entry point the serving
    /// layer's `mutate` requests go through; the granular methods
    /// ([`WorkflowSpec::add_task`] etc.) share the same machinery.
    ///
    /// # Errors
    /// Propagates the underlying edit's failure (duplicate names, unknown
    /// endpoints, missing dependencies, a slot limit reached).
    pub fn apply(&mut self, mutation: SpecMutation) -> Result<MutationReport, WorkflowError> {
        match mutation {
            SpecMutation::AddTask { name } => self.add_task_mutation(AtomicTask::new(name)),
            SpecMutation::RemoveTask { task } => {
                self.remove_task_mutation(task).map(|(_, report)| report)
            }
            SpecMutation::AddDependency { from, to } => {
                self.add_dependency_mutation(from, to, DataDependency::unnamed())
            }
            SpecMutation::RemoveDependency { from, to } => {
                self.remove_dependency_mutation(from, to)
            }
        }
    }

    /// The specification's mutation epoch: 0 at creation, bumped by every
    /// successful mutation. Caches derived from the spec key their validity
    /// on this counter.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn add_task_mutation(&mut self, task: AtomicTask) -> Result<MutationReport, WorkflowError> {
        if self.task_by_name(&task.name).is_some() {
            return Err(WorkflowError::DuplicateTaskName(task.name));
        }
        check_slot_bound("task", self.graph.node_bound() + 1)?;
        let id = self.graph.add_node(task);
        self.names.insert(&self.graph, id);
        let (class, dirty) = maintain(&mut self.reach, |matrix| Ok(matrix.insert_node(id)));
        Ok(self.record(SpecDeltaKind::TaskAdded(id), class, dirty, Some(id)))
    }

    fn add_dependency_mutation(
        &mut self,
        from: TaskId,
        to: TaskId,
        dependency: DataDependency,
    ) -> Result<MutationReport, WorkflowError> {
        check_slot_bound("edge", self.graph.edge_bound() + 1)?;
        self.graph.add_edge_unique(from, to, dependency)?;
        let (class, dirty) = maintain(&mut self.reach, |matrix| {
            matrix.insert_edge_in(&self.graph, from, to)
        });
        Ok(self.record(SpecDeltaKind::DependencyAdded(from, to), class, dirty, None))
    }

    fn remove_dependency_mutation(
        &mut self,
        from: TaskId,
        to: TaskId,
    ) -> Result<MutationReport, WorkflowError> {
        let edge = self
            .graph
            .find_edge(from, to)
            .ok_or(WorkflowError::UnknownDependency(from, to))?;
        self.graph.remove_edge(edge)?;
        let (class, dirty) = maintain(&mut self.reach, |matrix| {
            matrix.remove_edge(&self.graph, from, to)
        });
        Ok(self.record(
            SpecDeltaKind::DependencyRemoved(from, to),
            class,
            dirty,
            None,
        ))
    }

    fn record(
        &mut self,
        kind: SpecDeltaKind,
        class: DeltaClass,
        dirty: DirtyRows,
        task: Option<TaskId>,
    ) -> MutationReport {
        self.epoch += 1;
        MutationReport {
            epoch: self.epoch,
            delta: SpecDelta {
                epoch: self.epoch,
                kind,
            },
            class,
            dirty,
            task,
        }
    }

    /// Looks up a task id by name.
    #[must_use]
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.names.get(&self.graph, name)
    }

    /// Returns the task payload for an id.
    ///
    /// # Errors
    /// Fails if the id does not belong to this specification.
    pub fn task(&self, id: TaskId) -> Result<&AtomicTask, WorkflowError> {
        self.graph
            .node_weight(id)
            .map_err(|_| WorkflowError::UnknownTask(id))
    }

    /// Returns `true` if `id` names a task of this specification.
    #[must_use]
    pub fn contains_task(&self, id: TaskId) -> bool {
        self.graph.contains_node(id)
    }

    /// Iterates over all task ids in id order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.graph.node_ids()
    }

    /// Iterates over `(id, task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &AtomicTask)> + '_ {
        self.graph.nodes()
    }

    /// Iterates over all `(from, to)` data dependencies.
    pub fn dependencies(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.graph.edges().map(|(_, s, t, _)| (s, t))
    }

    /// Direct successors (downstream tasks) of a task.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.graph.successors(id)
    }

    /// Direct predecessors (upstream tasks) of a task.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.graph.predecessors(id)
    }

    /// The underlying graph, for algorithms that need direct access (layout,
    /// DOT export, provenance simulation).
    #[must_use]
    pub fn graph(&self) -> &DiGraph<AtomicTask, DataDependency> {
        &self.graph
    }

    /// Checks that the specification is a DAG.
    ///
    /// # Errors
    /// Returns [`WorkflowError::CyclicSpecification`] naming a task on a
    /// cycle.
    pub fn ensure_acyclic(&self) -> Result<(), WorkflowError> {
        match wolves_graph::topo::topological_sort(&self.graph) {
            Ok(_) => Ok(()),
            Err(wolves_graph::GraphError::CycleDetected(n)) => {
                Err(WorkflowError::CyclicSpecification(n))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Returns the all-pairs reachability matrix, computing it on first use.
    ///
    /// `reachability().reachable(a, b)` is `true` iff there is a directed
    /// path (of length ≥ 0) from `a` to `b` in the specification — exactly
    /// the "directed path in the workflow specification" of Definitions 2.1
    /// and 2.3.
    #[must_use]
    pub fn reachability(&self) -> &ReachMatrix {
        self.reach
            .get_or_init(|| ReachMatrix::build_from_csr(&Csr::from_graph(&self.graph)))
    }

    /// A CSR snapshot of the current dependency graph, built fresh on each
    /// call: one O(V+E) pass for callers that run several whole-graph
    /// algorithms over the same spec.
    #[must_use]
    pub fn csr_snapshot(&self) -> Arc<Csr> {
        Arc::new(Csr::from_graph(&self.graph))
    }

    /// Convenience wrapper for a single reachability query.
    #[must_use]
    pub fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        self.reachability().reachable(from, to)
    }

    /// A deterministic topological order of the tasks.
    ///
    /// # Errors
    /// Fails if the specification is cyclic.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, WorkflowError> {
        wolves_graph::topo::topological_sort(&self.graph).map_err(Into::into)
    }
}

/// Runs one in-place maintenance step on the cached matrix, if one is
/// built. Without a matrix, or on a defensive failure (an endpoint the
/// matrix never saw, which cannot happen when tasks enter via `add_task`),
/// the edit is structural: the matrix is dropped and rebuilt on next use.
fn maintain(
    reach: &mut OnceLock<ReachMatrix>,
    step: impl FnOnce(&mut ReachMatrix) -> Result<DeltaOutcome, GraphError>,
) -> (DeltaClass, DirtyRows) {
    match reach.get_mut().map(step) {
        Some(Ok(outcome)) => (outcome.class, outcome.dirty),
        Some(Err(_)) => {
            *reach = OnceLock::new();
            (DeltaClass::Structural, DirtyRows::all())
        }
        None => (DeltaClass::Structural, DirtyRows::all()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_spec() -> (WorkflowSpec, Vec<TaskId>) {
        let mut spec = WorkflowSpec::new("linear");
        let ids: Vec<TaskId> = (0..4)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        for w in ids.windows(2) {
            spec.add_dependency(w[0], w[1], DataDependency::unnamed())
                .unwrap();
        }
        (spec, ids)
    }

    #[test]
    fn build_and_query_tasks() {
        let (spec, ids) = linear_spec();
        assert_eq!(spec.task_count(), 4);
        assert_eq!(spec.dependency_count(), 3);
        assert_eq!(spec.task(ids[0]).unwrap().name, "t0");
        assert_eq!(spec.task_by_name("t2"), Some(ids[2]));
        assert_eq!(spec.task_by_name("zzz"), None);
        assert!(spec.contains_task(ids[3]));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut spec = WorkflowSpec::new("dups");
        spec.add_task(AtomicTask::new("same")).unwrap();
        assert!(matches!(
            spec.add_task(AtomicTask::new("same")),
            Err(WorkflowError::DuplicateTaskName(_))
        ));
    }

    #[test]
    fn duplicate_dependencies_rejected() {
        let (mut spec, ids) = linear_spec();
        assert!(spec
            .add_dependency(ids[0], ids[1], DataDependency::unnamed())
            .is_err());
    }

    #[test]
    fn reachability_follows_paths() {
        let (spec, ids) = linear_spec();
        assert!(spec.reaches(ids[0], ids[3]));
        assert!(spec.reaches(ids[2], ids[2]));
        assert!(!spec.reaches(ids[3], ids[0]));
    }

    #[test]
    fn reachability_cache_invalidated_on_mutation() {
        let (mut spec, ids) = linear_spec();
        assert!(!spec.reaches(ids[3], ids[0]));
        let extra = spec.add_task(AtomicTask::new("extra")).unwrap();
        spec.add_dependency(ids[3], extra, DataDependency::unnamed())
            .unwrap();
        assert!(spec.reaches(ids[0], extra));
    }

    #[test]
    fn acyclicity_check() {
        let (spec, _) = linear_spec();
        assert!(spec.ensure_acyclic().is_ok());
        // the graph substrate allows cycles (imported workflows might have
        // them); ensure_acyclic must flag them
        let mut cyclic = WorkflowSpec::new("cyclic");
        let a = cyclic.add_task(AtomicTask::new("a")).unwrap();
        let b = cyclic.add_task(AtomicTask::new("b")).unwrap();
        cyclic
            .add_dependency(a, b, DataDependency::unnamed())
            .unwrap();
        cyclic
            .add_dependency(b, a, DataDependency::unnamed())
            .unwrap();
        assert!(matches!(
            cyclic.ensure_acyclic(),
            Err(WorkflowError::CyclicSpecification(_))
        ));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let (spec, ids) = linear_spec();
        let order = spec.topological_order().unwrap();
        assert_eq!(order, ids);
    }

    #[test]
    fn clone_preserves_structure() {
        let (spec, ids) = linear_spec();
        let cloned = spec.clone();
        assert_eq!(cloned.task_count(), 4);
        assert!(cloned.reaches(ids[0], ids[3]));
    }

    #[test]
    fn clone_preserves_the_reach_cache_and_epoch() {
        let (mut spec, ids) = linear_spec();
        let _ = spec.reachability();
        spec.add_dependency(ids[0], ids[2], DataDependency::unnamed())
            .unwrap();
        let epoch = spec.epoch();
        let mut cloned = spec.clone();
        assert_eq!(cloned.epoch(), epoch);
        // the clone answers from the carried-over matrix without a rebuild
        assert!(cloned.reaches(ids[0], ids[3]));
        // and keeps maintaining it in place: no structural edit
        let report = cloned
            .apply(SpecMutation::AddDependency {
                from: ids[1],
                to: ids[3],
            })
            .unwrap();
        assert_eq!(report.class, DeltaClass::MonotoneSafe);
    }

    #[test]
    fn epoch_counts_every_mutation() {
        let (mut spec, ids) = linear_spec();
        // 4 task adds + 3 dependency adds
        assert_eq!(spec.epoch(), 7);
        let report = spec
            .apply(SpecMutation::RemoveDependency {
                from: ids[0],
                to: ids[1],
            })
            .unwrap();
        assert_eq!(spec.epoch(), 8);
        assert_eq!(
            report.delta,
            SpecDelta {
                epoch: 8,
                kind: SpecDeltaKind::DependencyRemoved(ids[0], ids[1]),
            }
        );
        // failed mutations bump nothing
        assert!(spec.remove_dependency(ids[0], ids[1]).is_err());
        assert_eq!(spec.epoch(), 8);
    }

    #[test]
    fn apply_routes_all_four_mutations() {
        let (mut spec, ids) = linear_spec();
        let _ = spec.reachability();
        let report = spec
            .apply(SpecMutation::AddTask {
                name: "late".to_owned(),
            })
            .unwrap();
        let late = report.task.unwrap();
        assert_eq!(report.class, DeltaClass::MonotoneSafe);
        let report = spec
            .apply(SpecMutation::AddDependency {
                from: ids[3],
                to: late,
            })
            .unwrap();
        assert_eq!(report.class, DeltaClass::MonotoneSafe);
        assert!(spec.reaches(ids[0], late));
        let report = spec
            .apply(SpecMutation::RemoveDependency {
                from: ids[3],
                to: late,
            })
            .unwrap();
        assert_eq!(report.class, DeltaClass::Decremental);
        assert!(!report.dirty.is_all());
        assert!(!spec.reaches(ids[0], late));
        let report = spec.apply(SpecMutation::RemoveTask { task: late }).unwrap();
        assert_eq!(report.class, DeltaClass::Decremental);
        assert!(!report.dirty.is_all());
        assert_eq!(spec.task_by_name("late"), None);
        assert!(spec.apply(SpecMutation::RemoveTask { task: late }).is_err());
    }

    #[test]
    fn removals_maintain_the_matrix_in_place() {
        let (mut spec, ids) = linear_spec();
        let _ = spec.reachability();
        let report = spec
            .apply(SpecMutation::RemoveDependency {
                from: ids[1],
                to: ids[2],
            })
            .unwrap();
        assert_eq!(report.class, DeltaClass::Decremental);
        assert!(!spec.reaches(ids[0], ids[3]));
        assert!(spec.reaches(ids[0], ids[1]));
        assert!(spec.reaches(ids[2], ids[3]));
        // the ancestors of the cut point are dirty, the downstream rows not
        assert!(!report.dirty.is_all());
        assert!(report.dirty.count().unwrap_or(0) >= 1);
        assert_eq!(
            report.delta.kind,
            SpecDeltaKind::DependencyRemoved(ids[1], ids[2])
        );
        // removing a task decrementally keeps answering queries in place
        let report = spec
            .apply(SpecMutation::RemoveTask { task: ids[0] })
            .unwrap();
        assert_eq!(report.class, DeltaClass::Decremental);
        assert!(!report.dirty.is_all());
        assert_eq!(report.delta.kind, SpecDeltaKind::TaskRemoved(ids[0]));
        assert_eq!(report.delta.epoch, spec.epoch());
        assert!(spec.reaches(ids[2], ids[3]));
        assert!(!spec.reaches(ids[1], ids[2]));
    }

    #[test]
    fn incremental_edge_inserts_keep_the_matrix_live() {
        let (mut spec, ids) = linear_spec();
        let _ = spec.reachability();
        // a cross edge that changes nothing: t0 already reaches t2
        let report = spec
            .apply(SpecMutation::AddDependency {
                from: ids[0],
                to: ids[2],
            })
            .unwrap();
        assert_eq!(report.class, DeltaClass::MonotoneSafe);
        assert!(report.dirty.is_clean());
        // a back edge closes a cycle: local row merge, not a rebuild
        let report = spec
            .apply(SpecMutation::AddDependency {
                from: ids[3],
                to: ids[1],
            })
            .unwrap();
        assert_eq!(report.class, DeltaClass::LocalRebuild);
        assert!(!report.dirty.is_clean());
        assert!(spec.reaches(ids[3], ids[1]));
        assert!(spec.reachability().strictly_reachable(ids[2], ids[2]));
    }

    #[test]
    fn mutations_without_a_built_matrix_mark_everything_dirty() {
        let mut spec = WorkflowSpec::new("fresh");
        let a = spec.add_task(AtomicTask::new("a")).unwrap();
        let b = spec.add_task(AtomicTask::new("b")).unwrap();
        let report = spec
            .apply(SpecMutation::AddDependency { from: a, to: b })
            .unwrap();
        assert_eq!(report.class, DeltaClass::Structural);
        assert!(report.dirty.is_all());
        // first query builds the matrix; later additive edits are tracked
        assert!(spec.reaches(a, b));
        let report = spec
            .apply(SpecMutation::AddTask {
                name: "c".to_owned(),
            })
            .unwrap();
        assert!(!report.dirty.is_all());
        let c = report.task.unwrap();
        let report = spec
            .apply(SpecMutation::AddDependency { from: b, to: c })
            .unwrap();
        assert_eq!(report.class, DeltaClass::MonotoneSafe);
        assert!(!report.dirty.is_all());
        assert!(spec.reaches(a, c));
    }

    /// Everything a reader of a spec can observe: the name index, the
    /// dependencies, the epoch and every task's reachability.
    type Observed = (
        Vec<(String, TaskId)>,
        Vec<(TaskId, TaskId)>,
        u64,
        Vec<Vec<bool>>,
    );

    fn observe(spec: &WorkflowSpec) -> Observed {
        let ids: Vec<TaskId> = spec.task_ids().collect();
        let names = spec
            .tasks()
            .map(|(id, task)| (task.name.clone(), id))
            .collect();
        let rows = ids
            .iter()
            .map(|&u| ids.iter().map(|&v| spec.reaches(u, v)).collect())
            .collect();
        (names, spec.dependencies().collect(), spec.epoch(), rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Interleaved task adds, task removes and clones: every spec —
        /// the clones taken along the way, which share the name index's
        /// blocks with it, included — resolves every name exactly like a
        /// `BTreeMap` kept beside it, and refuses a name it already holds.
        #[test]
        fn prop_name_lookups_match_a_map_model_across_clones(
            ops in proptest::collection::vec((0usize..4, 0usize..48), 1..200)
        ) {
            use std::collections::BTreeMap;
            let mut spec = WorkflowSpec::new("names");
            let mut model: BTreeMap<String, TaskId> = BTreeMap::new();
            let mut frozen: Vec<(WorkflowSpec, BTreeMap<String, TaskId>)> = Vec::new();
            for (op, raw) in ops {
                let name = format!("n{raw}");
                match op {
                    0 | 1 => {
                        let added = spec.apply(SpecMutation::AddTask { name: name.clone() });
                        match model.get(&name) {
                            Some(_) => proptest::prop_assert!(added.is_err()),
                            None => {
                                model.insert(name, added.unwrap().task.unwrap());
                            }
                        }
                    }
                    2 => {
                        if let Some(task) = model.remove(&name) {
                            spec.apply(SpecMutation::RemoveTask { task }).unwrap();
                        }
                    }
                    _ => frozen.push((spec.clone(), model.clone())),
                }
                let snapshots = frozen.iter().map(|(s, m)| (s, m));
                for (s, m) in snapshots.chain(std::iter::once((&spec, &model))) {
                    proptest::prop_assert_eq!(s.task_count(), m.len());
                    for raw in 0..48 {
                        let name = format!("n{raw}");
                        proptest::prop_assert_eq!(s.task_by_name(&name), m.get(&name).copied());
                    }
                }
            }
        }

        /// A clone of a spec with a built matrix is independent of the
        /// original: random task and dependency edits on the clone keep its
        /// matrix equal to a from-scratch build and its name index in step
        /// with its tasks after every step, report their own delta, and
        /// leave everything the original answers — names, dependencies,
        /// epoch and reachability — unchanged. The specs span more than one block of
        /// task slots, and most span more than one block of dependency
        /// slots.
        #[test]
        fn prop_a_spec_clone_evolves_independently(
            start in 65usize..110,
            raw_edges in proptest::collection::vec((0usize..110, 0usize..110), 300..500),
            ops in proptest::collection::vec((0usize..4, 0usize..4096, 0usize..4096), 1..14)
        ) {
            let mut spec = WorkflowSpec::new("original");
            let ids: Vec<TaskId> = (0..start)
                .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
                .collect();
            for (a, b) in raw_edges {
                let (a, b) = (a % start, b % start);
                if a < b {
                    let _ = spec.add_dependency(ids[a], ids[b], DataDependency::unnamed());
                }
            }
            let _ = spec.reachability();
            let before = observe(&spec);
            let mut copy = spec.clone();
            let mut fresh = 0usize;
            for (op, raw_a, raw_b) in ops {
                let live: Vec<TaskId> = copy.task_ids().collect();
                let pick = |raw: usize| live[raw % live.len()];
                let mutation = match op {
                    0 => {
                        fresh += 1;
                        SpecMutation::AddTask { name: format!("fresh{fresh}") }
                    }
                    1 if live.len() > 2 => SpecMutation::RemoveTask { task: pick(raw_a) },
                    2 => {
                        let (a, b) = (pick(raw_a), pick(raw_b));
                        if a == b || copy.graph().find_edge(a, b).is_some() {
                            continue;
                        }
                        SpecMutation::AddDependency { from: a, to: b }
                    }
                    _ => {
                        let deps: Vec<_> = copy.dependencies().collect();
                        if deps.is_empty() {
                            continue;
                        }
                        let (from, to) = deps[raw_a % deps.len()];
                        SpecMutation::RemoveDependency { from, to }
                    }
                };
                let expected = mutation.clone();
                let report = copy.apply(mutation).unwrap();
                proptest::prop_assert_eq!(report.delta.epoch, copy.epoch());
                let names_the_op = match (expected, report.delta.kind) {
                    (SpecMutation::AddTask { .. }, SpecDeltaKind::TaskAdded(t)) => {
                        report.task == Some(t)
                    }
                    (SpecMutation::RemoveTask { task }, SpecDeltaKind::TaskRemoved(t)) => task == t,
                    (
                        SpecMutation::AddDependency { from, to },
                        SpecDeltaKind::DependencyAdded(f, t),
                    )
                    | (
                        SpecMutation::RemoveDependency { from, to },
                        SpecDeltaKind::DependencyRemoved(f, t),
                    ) => (from, to) == (f, t),
                    _ => false,
                };
                proptest::prop_assert!(names_the_op, "the delta does not name the op");
                let rebuilt = ReachMatrix::build(copy.graph()).unwrap();
                let live: Vec<TaskId> = copy.task_ids().collect();
                for &u in &live {
                    let name = &copy.task(u).unwrap().name;
                    proptest::prop_assert_eq!(copy.task_by_name(name), Some(u));
                    for &v in &live {
                        proptest::prop_assert_eq!(copy.reaches(u, v), rebuilt.reachable(u, v));
                    }
                }
                proptest::prop_assert!(observe(&spec) == before, "the original changed");
            }
            // the original still resolves every name it had, and none the clone added
            for i in 1..=fresh {
                proptest::prop_assert_eq!(spec.task_by_name(&format!("fresh{i}")), None);
            }
        }
    }

    /// The spec `add_task` and `add_dependency` calls build from the same
    /// parts, or the first error they return.
    fn built_one_by_one(
        tasks: &[AtomicTask],
        dependencies: &[(TaskId, TaskId, DataDependency)],
    ) -> Result<WorkflowSpec, WorkflowError> {
        let mut spec = WorkflowSpec::new("parts");
        for task in tasks {
            spec.add_task(task.clone())?;
        }
        for (from, to, dependency) in dependencies {
            spec.add_dependency(*from, *to, dependency.clone())?;
        }
        Ok(spec)
    }

    fn assert_same_build(
        tasks: Vec<AtomicTask>,
        dependencies: Vec<(TaskId, TaskId, DataDependency)>,
    ) {
        let expected = built_one_by_one(&tasks, &dependencies);
        let built = WorkflowSpec::from_parts("parts", tasks, dependencies);
        match (built, expected) {
            (Ok(built), Ok(expected)) => {
                let lines = crate::persist::spec_to_lines;
                assert_eq!(lines(&built), lines(&expected));
                for (id, task) in expected.tasks() {
                    assert_eq!(built.task_by_name(&task.name), Some(id));
                }
            }
            (built, expected) => assert_eq!(built.err(), expected.err()),
        }
    }

    #[test]
    fn from_parts_meets_the_slot_limits_where_the_adds_do() {
        let tasks = |n: usize, dup: Option<usize>| -> Vec<AtomicTask> {
            (0..n)
                .map(|i| AtomicTask::new(format!("t{}", if Some(i) == dup { 0 } else { i })))
                .collect()
        };
        // one task past the limit; its own name, or an earlier one, is a
        // duplicate
        assert_same_build(tasks(MAX_SLOT_BOUND + 1, None), Vec::new());
        assert_same_build(tasks(MAX_SLOT_BOUND + 1, Some(MAX_SLOT_BOUND)), Vec::new());
        assert_same_build(
            tasks(MAX_SLOT_BOUND + 2, Some(MAX_SLOT_BOUND + 1)),
            Vec::new(),
        );
        // one dependency past the limit, behind a duplicate or not
        let pair = |i: usize| (TaskId::from_index(i % 64), TaskId::from_index(64 + i / 64));
        let chain = |n: usize| -> Vec<_> {
            (0..n)
                .map(|i| (pair(i).0, pair(i).1, DataDependency::unnamed()))
                .collect()
        };
        assert_same_build(tasks(200, None), chain(MAX_SLOT_BOUND));
        assert_same_build(tasks(200, None), chain(MAX_SLOT_BOUND + 1));
        let mut repeated = chain(MAX_SLOT_BOUND + 1);
        repeated[MAX_SLOT_BOUND - 1] = repeated[0].clone();
        assert_same_build(tasks(200, None), repeated.clone());
        repeated[MAX_SLOT_BOUND - 1] = chain(MAX_SLOT_BOUND).pop().unwrap();
        repeated[MAX_SLOT_BOUND] = repeated[1].clone();
        assert_same_build(tasks(200, None), repeated);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `from_parts` builds what one-by-one adds build, epoch and slot
        /// layout included, or refuses with the first error they meet:
        /// duplicate names, duplicate dependencies, self-loops and unknown
        /// endpoints, in any order.
        #[test]
        fn prop_from_parts_matches_one_by_one_adds(
            names in proptest::collection::vec(0usize..600, 0..24),
            edges in proptest::collection::vec((0usize..25, 0usize..25, 0u8..60), 0..60)
        ) {
            let tasks: Vec<AtomicTask> =
                names.iter().map(|n| AtomicTask::new(format!("t{n}"))).collect();
            // endpoints range one past the tasks, so an unknown one is
            // drawn now and then; about one draw in sixty is a self-loop
            let span = tasks.len() + 1;
            let dependencies = edges
                .iter()
                .map(|&(from, to, kind)| {
                    let (from, to) = (from % span, to % span);
                    let to = match kind {
                        0 => from,
                        _ if to == from => (to + 1) % span,
                        _ => to,
                    };
                    let dependency = match kind % 3 {
                        0 => DataDependency::named("d"),
                        _ => DataDependency::unnamed(),
                    };
                    (TaskId::from_index(from), TaskId::from_index(to), dependency)
                })
                .collect();
            assert_same_build(tasks, dependencies);
        }
    }
}
