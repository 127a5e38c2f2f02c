//! Workflow specifications.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use wolves_graph::{Csr, DeltaClass, DiGraph, DirtyRows, ReachMatrix};

use crate::error::WorkflowError;
use crate::mutation::{MutationReport, SpecDelta, SpecDeltaKind, SpecMutation};
use crate::task::{AtomicTask, DataDependency, TaskId};

/// A workflow specification: a DAG of atomic tasks connected by data
/// dependencies (paper Figure 1(a)).
///
/// The specification owns a lazily computed all-pairs reachability matrix;
/// every soundness question ultimately reduces to `reach(t1, t2)` queries
/// against it. Mutations run through the epoch machinery (see
/// [`crate::mutation`]): each edit bumps the epoch, appends to the delta
/// log, and maintains the cached matrix *in place* where the delta class
/// allows — additive edits (task/dependency inserts) propagate rows
/// forward, removals run the decremental path (SCC split detection plus
/// bounded ancestor re-derivation over the cached CSR snapshot). No single
/// edit pays a full rebuild once the matrix exists.
///
/// Cloning preserves the epoch, the delta log **and** the cached
/// reachability matrix, so copy-on-write holders (e.g. the serving layer's
/// `Arc::make_mut`) stay incremental across clones. The clone is also
/// cheap: the graph's slots and the matrix's rows live in `Arc`'d blocks
/// ([`wolves_graph::BlockVec`]) and the name index and CSR snapshot behind
/// `Arc`s, so a clone copies block handles plus the small per-component
/// vectors and the bounded delta log — about 15 µs at 10k tasks instead of
/// a 9 ms deep copy. An edit after the clone copies only the blocks it
/// writes: an edge edit copies two node blocks, one edge block and the
/// matrix blocks whose rows changed; only task adds and removes copy the
/// name index. Dropping the superseded version frees just those blocks.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    name: String,
    graph: DiGraph<AtomicTask, DataDependency>,
    /// Task name → id, shared between clones until a task add or remove
    /// writes it.
    by_name: Arc<BTreeMap<String, TaskId>>,
    reach: OnceLock<ReachMatrix>,
    /// Shared CSR snapshot of `graph`, built on first demand and dropped by
    /// every mutation. The read-side graph algorithms (SCC, closure build,
    /// decremental reverse-BFS) reuse this one snapshot instead of
    /// re-walking the adjacency lists each.
    csr: OnceLock<Arc<Csr>>,
    epoch: u64,
    /// Matrix rows dirtied since the last [`WorkflowSpec::take_dirty`].
    dirty: DirtyRows,
    log: Vec<SpecDelta>,
    /// Upper bound on retained delta-log entries (see
    /// [`WorkflowSpec::set_delta_log_cap`]).
    log_cap: usize,
}

impl WorkflowSpec {
    /// Creates an empty specification.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowSpec {
            name: name.into(),
            graph: DiGraph::new(),
            by_name: Arc::new(BTreeMap::new()),
            reach: OnceLock::new(),
            csr: OnceLock::new(),
            epoch: 0,
            dirty: DirtyRows::clean(0),
            log: Vec::new(),
            log_cap: Self::DELTA_LOG_CAP,
        }
    }

    /// Rebuilds a specification from restored parts — the storage layer's
    /// recovery path. The graph must carry the exact slot layout (including
    /// tombstones) of the serialised spec so future task/dependency ids are
    /// assigned identically; `epoch` resumes the mutation counter and the
    /// delta log restarts empty (every retained delta was consumed by the
    /// write-ahead log before the snapshot was taken).
    pub(crate) fn restore(
        name: String,
        graph: DiGraph<AtomicTask, DataDependency>,
        by_name: BTreeMap<String, TaskId>,
        epoch: u64,
        log_cap: usize,
    ) -> Self {
        WorkflowSpec {
            name,
            graph,
            by_name: Arc::new(by_name),
            reach: OnceLock::new(),
            csr: OnceLock::new(),
            epoch,
            // a restored spec has no incremental history: consumers must
            // treat every derived row as dirty until they rebuild
            dirty: DirtyRows::all(),
            log: Vec::new(),
            log_cap,
        }
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
    /// Fails if a task with the same name already exists.
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
    /// Fails on unknown endpoints, self-loops and duplicates.
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
        // take the CSR snapshot *before* editing the graph: the decremental
        // path walks the pre-removal adjacency and skips the dead node
        let snapshot = std::mem::take(&mut self.csr).into_inner();
        let task = match self.graph.remove_node(id) {
            Ok(task) => task,
            Err(_) => {
                if let Some(csr) = snapshot {
                    let _ = self.csr.set(csr);
                }
                return Err(WorkflowError::UnknownTask(id));
            }
        };
        Arc::make_mut(&mut self.by_name).remove(&task.name);
        let (class, dirty) = match self.reach.get_mut() {
            Some(matrix) => {
                let outcome = match snapshot {
                    Some(csr) => matrix.remove_node_csr(&csr, id),
                    None => matrix.remove_node(&self.graph, id),
                };
                match outcome {
                    Ok(outcome) => (outcome.class, outcome.dirty),
                    // defensive: a node the matrix never saw forces a
                    // rebuild (cannot happen when tasks enter via add_task)
                    Err(_) => {
                        self.reach = OnceLock::new();
                        (DeltaClass::Structural, DirtyRows::all())
                    }
                }
            }
            None => (DeltaClass::Structural, DirtyRows::all()),
        };
        let report = self.record(SpecDeltaKind::TaskRemoved(id), class, dirty, None);
        Ok((task, report))
    }

    /// Applies one typed mutation, returning the epoch, delta class and
    /// dirty rows the edit produced. This is the entry point the serving
    /// layer's `mutate` requests go through; the granular methods
    /// ([`WorkflowSpec::add_task`] etc.) share the same machinery.
    ///
    /// # Errors
    /// Propagates the underlying edit's failure (duplicate names, unknown
    /// endpoints, missing dependencies).
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

    /// The typed delta log, in epoch order. The log is bounded: once it
    /// reaches the configured cap ([`WorkflowSpec::delta_log_cap`],
    /// default [`WorkflowSpec::DELTA_LOG_CAP`]) the oldest half is dropped,
    /// so long-lived specs (e.g. in the serving layer, where every
    /// copy-on-write clone copies the log) hold the most recent edits only —
    /// each entry still carries its epoch, so gaps are detectable. The log
    /// is a plain vector of small `Copy` entries: at the default cap a clone
    /// copies at most 1,024 of them (tens of KB, a few µs), which is why it
    /// is not block-shared like the graph and the matrix.
    #[must_use]
    pub fn delta_log(&self) -> &[SpecDelta] {
        &self.log
    }

    /// The contiguous slice of deltas newer than `epoch`, in epoch order —
    /// the fan-out hook for consumers that tail the bounded log (the serving
    /// layer's write-ahead log and its change-data-capture subscribers).
    /// Returns `None` when the bound already evicted part of the requested
    /// range, so a consumer that fell behind sees the gap instead of a
    /// silently holed stream.
    #[must_use]
    pub fn deltas_since(&self, epoch: u64) -> Option<Vec<SpecDelta>> {
        if self.epoch == epoch {
            return Some(Vec::new());
        }
        if self.epoch < epoch {
            return None;
        }
        let fresh: Vec<SpecDelta> = self
            .log
            .iter()
            .filter(|delta| delta.epoch > epoch)
            .cloned()
            .collect();
        let contiguous = fresh.first().map(|delta| delta.epoch) == Some(epoch + 1)
            && fresh.len() as u64 == self.epoch - epoch;
        contiguous.then_some(fresh)
    }

    /// Default upper bound on retained delta-log entries.
    pub const DELTA_LOG_CAP: usize = 1024;

    /// The configured upper bound on retained delta-log entries.
    #[must_use]
    pub fn delta_log_cap(&self) -> usize {
        self.log_cap
    }

    /// Reconfigures the delta-log bound (clamped to at least 2 so the
    /// drop-oldest-half eviction always retains the newest entry).
    ///
    /// Consumers that tail the log — the serving layer's write-ahead log
    /// consumes each delta synchronously under the shard write lock — can
    /// lower the cap to bound clone cost, or raise it when deltas are
    /// drained in larger batches. Eviction only ever drops entries that are
    /// older than the cap allows; a consumer that falls behind detects the
    /// gap through the per-entry epochs.
    pub fn set_delta_log_cap(&mut self, cap: usize) {
        self.log_cap = cap.max(2);
        if self.log.len() >= self.log_cap {
            let drop = self.log.len() - self.log_cap / 2;
            self.log.drain(..drop);
        }
    }

    /// The matrix rows dirtied since the last [`WorkflowSpec::take_dirty`]
    /// (union over all mutations in between).
    #[must_use]
    pub fn dirty_rows(&self) -> &DirtyRows {
        &self.dirty
    }

    /// Takes and resets the accumulated dirty-row set. Incremental
    /// consumers call this once per refresh; the returned set covers every
    /// mutation since the previous take.
    pub fn take_dirty(&mut self) -> DirtyRows {
        let comp_count = self.reach.get().map_or(0, ReachMatrix::comp_count);
        std::mem::replace(&mut self.dirty, DirtyRows::clean(comp_count))
    }

    fn add_task_mutation(&mut self, task: AtomicTask) -> Result<MutationReport, WorkflowError> {
        if self.by_name.contains_key(&task.name) {
            return Err(WorkflowError::DuplicateTaskName(task.name));
        }
        let name = task.name.clone();
        let id = self.graph.add_node(task);
        Arc::make_mut(&mut self.by_name).insert(name, id);
        self.csr = OnceLock::new();
        let (class, dirty) = match self.reach.get_mut() {
            Some(matrix) => {
                let outcome = matrix.insert_node(id);
                (outcome.class, outcome.dirty)
            }
            None => (DeltaClass::Structural, DirtyRows::all()),
        };
        Ok(self.record(SpecDeltaKind::TaskAdded(id), class, dirty, Some(id)))
    }

    fn add_dependency_mutation(
        &mut self,
        from: TaskId,
        to: TaskId,
        dependency: DataDependency,
    ) -> Result<MutationReport, WorkflowError> {
        self.graph.add_edge_unique(from, to, dependency)?;
        self.csr = OnceLock::new();
        let (class, dirty) = match self.reach.get_mut() {
            Some(matrix) => match matrix.insert_edge(from, to) {
                Ok(outcome) => (outcome.class, outcome.dirty),
                // defensive: an endpoint the matrix never saw forces a
                // rebuild (cannot happen when tasks enter via add_task)
                Err(_) => {
                    self.reach = OnceLock::new();
                    (DeltaClass::Structural, DirtyRows::all())
                }
            },
            None => (DeltaClass::Structural, DirtyRows::all()),
        };
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
        // the pre-removal CSR snapshot (if warm) drives the decremental
        // maintenance below; the removal invalidates it either way
        let snapshot = std::mem::take(&mut self.csr).into_inner();
        self.graph.remove_edge(edge)?;
        let (class, dirty) = match self.reach.get_mut() {
            Some(matrix) => {
                let outcome = match snapshot {
                    Some(csr) => matrix.remove_edge_csr(&csr, from, to),
                    None => matrix.remove_edge(&self.graph, from, to),
                };
                match outcome {
                    Ok(outcome) => (outcome.class, outcome.dirty),
                    Err(_) => {
                        self.reach = OnceLock::new();
                        (DeltaClass::Structural, DirtyRows::all())
                    }
                }
            }
            None => (DeltaClass::Structural, DirtyRows::all()),
        };
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
        if self.log.len() >= self.log_cap {
            // drop the oldest half in one move; amortised O(1) per mutation
            self.log.drain(..self.log_cap.div_ceil(2));
        }
        self.log.push(SpecDelta {
            epoch: self.epoch,
            kind,
        });
        self.dirty.union(&dirty);
        MutationReport {
            epoch: self.epoch,
            class,
            dirty,
            task,
        }
    }

    /// Looks up a task id by name.
    #[must_use]
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.by_name.get(name).copied()
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
            .get_or_init(|| ReachMatrix::build_from_csr(&self.csr_snapshot()))
    }

    /// A shared CSR snapshot of the current dependency graph, built on first
    /// demand and reused by the read-side graph algorithms (reachability
    /// builds, SCC, decremental removal maintenance) until the next
    /// mutation invalidates it.
    #[must_use]
    pub fn csr_snapshot(&self) -> Arc<Csr> {
        Arc::clone(
            self.csr
                .get_or_init(|| Arc::new(Csr::from_graph(&self.graph))),
        )
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
        let cloned = spec.clone();
        assert_eq!(cloned.epoch(), epoch);
        assert_eq!(cloned.delta_log().len(), spec.delta_log().len());
        // the clone answers from the carried-over matrix without a rebuild
        assert!(cloned.reaches(ids[0], ids[3]));
        assert!(!cloned.dirty_rows().is_clean());
    }

    #[test]
    fn epoch_counts_every_mutation() {
        let (mut spec, ids) = linear_spec();
        // 4 task adds + 3 dependency adds
        assert_eq!(spec.epoch(), 7);
        assert_eq!(spec.delta_log().len(), 7);
        spec.remove_dependency(ids[0], ids[1]).unwrap();
        assert_eq!(spec.epoch(), 8);
        assert!(matches!(
            spec.delta_log().last().unwrap().kind,
            SpecDeltaKind::DependencyRemoved(_, _)
        ));
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
        let _ = spec.take_dirty();
        // warm CSR snapshot: the removal must reuse it (and invalidate it)
        let snapshot = spec.csr_snapshot();
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
        // a fresh snapshot reflects the removal
        let fresh = spec.csr_snapshot();
        assert!(!Arc::ptr_eq(&snapshot, &fresh));
        // removing a task decrementally keeps answering queries in place
        let report = spec
            .apply(SpecMutation::RemoveTask { task: ids[0] })
            .unwrap();
        assert_eq!(report.class, DeltaClass::Decremental);
        assert!(spec.reaches(ids[2], ids[3]));
        assert!(!spec.reaches(ids[1], ids[2]));
    }

    #[test]
    fn incremental_edge_inserts_keep_the_matrix_live() {
        let (mut spec, ids) = linear_spec();
        let _ = spec.reachability();
        let _ = spec.take_dirty();
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
        // accumulated dirt covers both mutations and resets on take
        assert!(!spec.dirty_rows().is_clean());
        let taken = spec.take_dirty();
        assert!(!taken.is_clean());
        assert!(spec.dirty_rows().is_clean());
    }

    #[test]
    fn delta_log_is_bounded_but_epochs_keep_counting() {
        let mut spec = WorkflowSpec::new("bounded");
        let a = spec.add_task(AtomicTask::new("a")).unwrap();
        let b = spec.add_task(AtomicTask::new("b")).unwrap();
        for _ in 0..WorkflowSpec::DELTA_LOG_CAP {
            spec.add_dependency(a, b, DataDependency::unnamed())
                .unwrap();
            spec.remove_dependency(a, b).unwrap();
        }
        assert!(spec.delta_log().len() <= WorkflowSpec::DELTA_LOG_CAP);
        let expected_epoch = 2 + 2 * WorkflowSpec::DELTA_LOG_CAP as u64;
        assert_eq!(spec.epoch(), expected_epoch);
        // the retained tail is the newest contiguous run
        let log = spec.delta_log();
        assert_eq!(log.last().unwrap().epoch, expected_epoch);
        for window in log.windows(2) {
            assert_eq!(window[1].epoch, window[0].epoch + 1);
        }
    }

    #[test]
    fn delta_log_cap_is_configurable() {
        let mut spec = WorkflowSpec::new("capped");
        let a = spec.add_task(AtomicTask::new("a")).unwrap();
        let b = spec.add_task(AtomicTask::new("b")).unwrap();
        assert_eq!(spec.delta_log_cap(), WorkflowSpec::DELTA_LOG_CAP);
        spec.set_delta_log_cap(8);
        assert_eq!(spec.delta_log_cap(), 8);
        for _ in 0..16 {
            spec.add_dependency(a, b, DataDependency::unnamed())
                .unwrap();
            spec.remove_dependency(a, b).unwrap();
        }
        assert!(spec.delta_log().len() <= 8);
        // the retained tail stays contiguous and newest-first
        let log = spec.delta_log();
        assert_eq!(log.last().unwrap().epoch, spec.epoch());
        for window in log.windows(2) {
            assert_eq!(window[1].epoch, window[0].epoch + 1);
        }
        // shrinking below the current length trims immediately; the floor
        // of 2 keeps the newest entry alive
        spec.set_delta_log_cap(0);
        assert_eq!(spec.delta_log_cap(), 2);
        assert!(spec.delta_log().len() <= 2);
        assert_eq!(spec.delta_log().last().unwrap().epoch, spec.epoch());
        // the clone carries the configured cap
        assert_eq!(spec.clone().delta_log_cap(), 2);
    }

    #[test]
    fn mutations_without_a_built_matrix_mark_everything_dirty() {
        let mut spec = WorkflowSpec::new("fresh");
        let a = spec.add_task(AtomicTask::new("a")).unwrap();
        let b = spec.add_task(AtomicTask::new("b")).unwrap();
        spec.add_dependency(a, b, DataDependency::unnamed())
            .unwrap();
        assert!(spec.dirty_rows().is_all());
        // first query builds the matrix; later additive edits are tracked
        assert!(spec.reaches(a, b));
        let _ = spec.take_dirty();
        let c = spec.add_task(AtomicTask::new("c")).unwrap();
        spec.add_dependency(b, c, DataDependency::unnamed())
            .unwrap();
        assert!(!spec.dirty_rows().is_all());
        assert!(spec.reaches(a, c));
    }

    /// Everything a reader of a spec can observe: the name index, the
    /// dependencies, the epoch and delta log, and every task's
    /// reachability.
    type Observed = (
        Vec<(String, TaskId)>,
        Vec<(TaskId, TaskId)>,
        u64,
        Vec<SpecDelta>,
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
        (
            names,
            spec.dependencies().collect(),
            spec.epoch(),
            spec.delta_log().to_vec(),
            rows,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A clone of a spec with a built matrix is independent of the
        /// original: random task and dependency edits on the clone keep its
        /// matrix equal to a from-scratch build and its name index in step
        /// with its tasks after every step, and leave everything the
        /// original answers — names, dependencies, epoch, delta log and
        /// reachability — unchanged. The specs span more than one block of
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
                copy.apply(mutation).unwrap();
                let rebuilt = ReachMatrix::build(copy.graph()).unwrap();
                let live: Vec<TaskId> = copy.task_ids().collect();
                for &u in &live {
                    let name = &copy.task(u).unwrap().name;
                    proptest::prop_assert_eq!(copy.task_by_name(name), Some(u));
                    for &v in &live {
                        proptest::prop_assert_eq!(copy.reaches(u, v), rebuilt.reachable(u, v));
                    }
                }
                proptest::prop_assert_eq!(copy.delta_log().last().map(|d| d.epoch), Some(copy.epoch()));
                proptest::prop_assert!(observe(&spec) == before, "the original changed");
            }
            // the original still resolves every name it had, and none the clone added
            for i in 1..=fresh {
                proptest::prop_assert_eq!(spec.task_by_name(&format!("fresh{i}")), None);
            }
        }
    }
}
