//! Workflow views: partitions of a specification's tasks into composite
//! tasks, and the induced view-level graph.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use wolves_graph::{BlockVec, DiGraph, FixedBitSet, NodeId};

use crate::error::WorkflowError;
use crate::persist::check_slot_bound;
use crate::spec::WorkflowSpec;
use crate::task::TaskId;

/// Identifier of a composite task within a [`WorkflowView`].
///
/// Composite ids are stable: splitting or merging composites never renumbers
/// the untouched ones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompositeTaskId(u32);

impl CompositeTaskId {
    /// Creates a composite id from a raw index (mainly for tests / formats).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        CompositeTaskId(u32::try_from(index).expect("composite index exceeds u32"))
    }

    /// Raw index of the id.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CompositeTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CompositeTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A composite task: a named, non-empty set of atomic tasks (paper §1 —
/// "abstracting groups of tasks in a workflow into high level composite
/// tasks").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeTask {
    /// Display name of the composite task (e.g. *"Build Phylo Tree"*).
    pub name: String,
    members: BTreeSet<TaskId>,
}

impl CompositeTask {
    /// Creates a composite task from a name and member set.
    ///
    /// # Errors
    /// Fails if the member set is empty.
    pub fn new(
        name: impl Into<String>,
        members: impl IntoIterator<Item = TaskId>,
    ) -> Result<Self, WorkflowError> {
        let name = name.into();
        let members: BTreeSet<TaskId> = members.into_iter().collect();
        if members.is_empty() {
            return Err(WorkflowError::EmptyComposite(name));
        }
        Ok(CompositeTask { name, members })
    }

    /// The member atomic tasks, in ascending id order.
    #[must_use]
    pub fn members(&self) -> &BTreeSet<TaskId> {
        &self.members
    }

    /// Number of member atomic tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for composites wrapping exactly one atomic task.
    #[must_use]
    pub fn is_singleton(&self) -> bool {
        self.members.len() == 1
    }

    /// Never true — composites are non-empty by construction. Provided for
    /// API symmetry with collections.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, task: TaskId) -> bool {
        self.members.contains(&task)
    }
}

/// Entry of [`WorkflowView`]'s task → composite table for a task that
/// belongs to no composite.
const NO_COMPOSITE: u32 = u32::MAX;

/// A workflow view: a partition of the atomic tasks of one specification
/// into composite tasks (paper Figure 1(b)).
///
/// Cloning is cheap and structurally shared, for the serving layer's
/// copy-on-write commit: each composite sits behind its own `Arc` and the
/// task → composite table in `Arc`'d 4 KiB blocks ([`BlockVec`]), so a
/// clone copies one handle per composite slot and per table block. An edit
/// after the clone copies only what it writes: a task add or remove copies
/// one table block and at most the one composite whose members it changes;
/// a split or merge copies the table blocks of the members it moves.
#[derive(Debug, Clone)]
pub struct WorkflowView {
    name: String,
    composites: Vec<Option<Arc<CompositeTask>>>,
    /// Dense task → composite table indexed by `TaskId::index()`: the slot
    /// of the composite holding each task, or [`NO_COMPOSITE`]. Task ids
    /// are dense slot indices too, so this is one `u32` per task slot of
    /// the specification and every [`WorkflowView::composite_of`] is a
    /// block-and-offset load.
    composite_of_task: BlockVec<u32>,
}

impl WorkflowView {
    /// Builds a view from named groups of task ids.
    ///
    /// # Errors
    /// Fails if the groups are not a partition of the specification's tasks
    /// (some task missing or assigned twice), reference unknown tasks, or if
    /// any group is empty.
    pub fn from_groups(
        spec: &WorkflowSpec,
        name: impl Into<String>,
        groups: Vec<(String, Vec<TaskId>)>,
    ) -> Result<Self, WorkflowError> {
        let mut view = WorkflowView {
            name: name.into(),
            composites: Vec::with_capacity(groups.len()),
            composite_of_task: std::iter::repeat(NO_COMPOSITE)
                .take(spec.graph().node_bound())
                .collect(),
        };
        let mut duplicated = Vec::new();
        for (group_name, members) in groups {
            for &m in &members {
                if !spec.contains_task(m) {
                    return Err(WorkflowError::UnknownTask(m));
                }
            }
            let composite = CompositeTask::new(group_name, members)?;
            let id = CompositeTaskId::from_index(view.composites.len());
            for &m in composite.members() {
                if view.assign(m, id) {
                    duplicated.push(m);
                }
            }
            view.composites.push(Some(Arc::new(composite)));
        }
        let missing: Vec<TaskId> = spec
            .task_ids()
            .filter(|&t| view.composite_of(t).is_none())
            .collect();
        if !missing.is_empty() || !duplicated.is_empty() {
            return Err(WorkflowError::NotAPartition {
                missing,
                duplicated,
            });
        }
        Ok(view)
    }

    /// Builds the finest view: one composite task per atomic task, named
    /// after the task.
    #[must_use]
    pub fn singletons(spec: &WorkflowSpec, name: impl Into<String>) -> Self {
        let groups = spec
            .tasks()
            .map(|(id, task)| (task.name.clone(), vec![id]))
            .collect();
        Self::from_groups(spec, name, groups).expect("singleton view is always a partition")
    }

    /// The view's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live composite tasks.
    #[must_use]
    pub fn composite_count(&self) -> usize {
        self.composites.iter().flatten().count()
    }

    /// Number of composite slots ever allocated, including tombstones left
    /// by splits, merges and member removals. Composite ids are slot
    /// indices, so persistent storage must reproduce this bound exactly for
    /// ids assigned after a restore to match the live view's.
    #[must_use]
    pub fn composite_slot_count(&self) -> usize {
        self.composites.len()
    }

    /// Rebuilds a view from explicit composite slots, `None` marking a
    /// tombstone — the storage layer's recovery path, the slot-level inverse
    /// of [`WorkflowView::composites`] plus
    /// [`WorkflowView::composite_slot_count`]. Whether the slots partition a
    /// specification's tasks is *not* checked here (the spec is restored
    /// separately); callers follow up with
    /// [`WorkflowView::validate_against`].
    ///
    /// # Errors
    /// Fails if a task belongs to more than one slot, or if there are more
    /// slots than [`crate::persist::MAX_SLOT_BOUND`].
    pub fn from_slots(
        name: impl Into<String>,
        slots: Vec<Option<CompositeTask>>,
    ) -> Result<Self, WorkflowError> {
        check_slot_bound("slot", slots.len())?;
        let mut view = WorkflowView {
            name: name.into(),
            composites: Vec::new(),
            composite_of_task: BlockVec::new(),
        };
        let mut duplicated = Vec::new();
        for (index, slot) in slots.iter().enumerate() {
            let Some(composite) = slot else { continue };
            let id = CompositeTaskId::from_index(index);
            for &member in composite.members() {
                if view.assign(member, id) {
                    duplicated.push(member);
                }
            }
        }
        if !duplicated.is_empty() {
            return Err(WorkflowError::NotAPartition {
                missing: Vec::new(),
                duplicated,
            });
        }
        view.composites = slots.into_iter().map(|slot| slot.map(Arc::new)).collect();
        Ok(view)
    }

    /// Iterates over `(id, composite)` pairs in id order.
    pub fn composites(&self) -> impl Iterator<Item = (CompositeTaskId, &CompositeTask)> + '_ {
        self.composites
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_deref().map(|c| (CompositeTaskId::from_index(i), c)))
    }

    /// Iterates over live composite ids.
    pub fn composite_ids(&self) -> impl Iterator<Item = CompositeTaskId> + '_ {
        self.composites().map(|(id, _)| id)
    }

    /// Returns a composite task by id.
    ///
    /// # Errors
    /// Fails for unknown or removed ids.
    pub fn composite(&self, id: CompositeTaskId) -> Result<&CompositeTask, WorkflowError> {
        self.composites
            .get(id.index())
            .and_then(|c| c.as_deref())
            .ok_or(WorkflowError::UnknownComposite(id))
    }

    /// Returns the composite task containing `task`, if any. O(1): one
    /// load from the dense task → composite table.
    #[must_use]
    #[inline]
    pub fn composite_of(&self, task: TaskId) -> Option<CompositeTaskId> {
        match self.composite_of_task.get(task.index()) {
            Some(&slot) if slot != NO_COMPOSITE => Some(CompositeTaskId(slot)),
            _ => None,
        }
    }

    /// Upper bound (exclusive) on the indices of the tasks the view has
    /// assigned to composites — the capacity a task bitset over the view's
    /// members needs.
    #[must_use]
    pub fn task_bound(&self) -> usize {
        self.composite_of_task.len()
    }

    /// Records `task` as a member of `id` in the task → composite table,
    /// growing it as needed. Returns `true` if the task already belonged to
    /// a composite.
    fn assign(&mut self, task: TaskId, id: CompositeTaskId) -> bool {
        assert!(
            id.0 != NO_COMPOSITE,
            "composite slot {id} is the table's sentinel"
        );
        let index = task.index();
        if index >= self.composite_of_task.len() {
            self.composite_of_task.extend_to(index + 1, NO_COMPOSITE);
        }
        std::mem::replace(&mut self.composite_of_task[index], id.0) != NO_COMPOSITE
    }

    /// Checks that the view is still a partition of `spec`'s tasks (used
    /// after specs and views are loaded from separate files).
    ///
    /// # Errors
    /// Returns [`WorkflowError::NotAPartition`] describing the mismatch.
    pub fn validate_against(&self, spec: &WorkflowSpec) -> Result<(), WorkflowError> {
        let missing: Vec<TaskId> = spec
            .task_ids()
            .filter(|&t| self.composite_of(t).is_none())
            .collect();
        let unknown: Vec<TaskId> = self
            .composite_of_task
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_COMPOSITE)
            .map(|(index, _)| TaskId::from_index(index))
            .filter(|&t| !spec.contains_task(t))
            .collect();
        if missing.is_empty() && unknown.is_empty() {
            Ok(())
        } else {
            Err(WorkflowError::NotAPartition {
                missing,
                duplicated: unknown,
            })
        }
    }

    /// Replaces one composite task by several smaller ones covering exactly
    /// the same member tasks — the *split* operation used by the view
    /// correctors (paper §2.2).
    ///
    /// Part names are derived from the original name (`"name/1"`, `"name/2"`,
    /// …) unless only one part is supplied, which keeps the original name.
    ///
    /// # Errors
    /// Fails if the id is unknown, any part is empty, the parts do not
    /// partition the original member set, or the new composites would take
    /// the slots past [`crate::persist::MAX_SLOT_BOUND`].
    pub fn split_composite(
        &mut self,
        id: CompositeTaskId,
        parts: Vec<Vec<TaskId>>,
    ) -> Result<Vec<CompositeTaskId>, WorkflowError> {
        let original = self
            .composites
            .get(id.index())
            .and_then(Clone::clone)
            .ok_or(WorkflowError::UnknownComposite(id))?;
        // verify the parts partition the original members
        let mut seen: BTreeSet<TaskId> = BTreeSet::new();
        let mut duplicated = Vec::new();
        for part in &parts {
            if part.is_empty() {
                return Err(WorkflowError::EmptyComposite(original.name.clone()));
            }
            for &t in part {
                if !original.contains(t) {
                    return Err(WorkflowError::UnknownTask(t));
                }
                if !seen.insert(t) {
                    duplicated.push(t);
                }
            }
        }
        let missing: Vec<TaskId> = original
            .members()
            .iter()
            .copied()
            .filter(|t| !seen.contains(t))
            .collect();
        if !missing.is_empty() || !duplicated.is_empty() {
            return Err(WorkflowError::NotAPartition {
                missing,
                duplicated,
            });
        }
        check_slot_bound("slot", self.composites.len() + parts.len())?;
        // perform the replacement
        self.composites[id.index()] = None;
        let single = parts.len() == 1;
        let mut new_ids = Vec::with_capacity(parts.len());
        for (i, part) in parts.into_iter().enumerate() {
            let name = if single {
                original.name.clone()
            } else {
                format!("{}/{}", original.name, i + 1)
            };
            let composite = CompositeTask::new(name, part)?;
            let new_id = CompositeTaskId::from_index(self.composites.len());
            for &m in composite.members() {
                self.assign(m, new_id);
            }
            self.composites.push(Some(Arc::new(composite)));
            new_ids.push(new_id);
        }
        Ok(new_ids)
    }

    /// Merges several composite tasks into one — the *Create Composite Task*
    /// feedback operation of the demo (paper §3.2).
    ///
    /// # Errors
    /// Fails if fewer than one id is given, any id is unknown, or the new
    /// composite would take the slots past
    /// [`crate::persist::MAX_SLOT_BOUND`].
    pub fn merge_composites(
        &mut self,
        ids: &[CompositeTaskId],
        name: impl Into<String>,
    ) -> Result<CompositeTaskId, WorkflowError> {
        let name = name.into();
        if ids.is_empty() {
            return Err(WorkflowError::EmptyComposite(name));
        }
        let mut members: BTreeSet<TaskId> = BTreeSet::new();
        for &id in ids {
            let composite = self.composite(id)?;
            members.extend(composite.members().iter().copied());
        }
        check_slot_bound("slot", self.composites.len() + 1)?;
        for &id in ids {
            self.composites[id.index()] = None;
        }
        let composite = CompositeTask::new(name, members)?;
        let new_id = CompositeTaskId::from_index(self.composites.len());
        for &m in composite.members() {
            self.assign(m, new_id);
        }
        self.composites.push(Some(Arc::new(composite)));
        Ok(new_id)
    }

    /// Adds a new composite task covering `members`, none of which may
    /// already belong to a composite. This is how views track spec-level
    /// task additions: the serving layer wraps each freshly added task in a
    /// singleton composite so the view stays a partition.
    ///
    /// # Errors
    /// Fails on empty member sets, on members already assigned, and if the
    /// new composite would take the slots past
    /// [`crate::persist::MAX_SLOT_BOUND`].
    pub fn add_composite(
        &mut self,
        name: impl Into<String>,
        members: Vec<TaskId>,
    ) -> Result<CompositeTaskId, WorkflowError> {
        let composite = CompositeTask::new(name, members)?;
        let duplicated: Vec<TaskId> = composite
            .members()
            .iter()
            .copied()
            .filter(|&m| self.composite_of(m).is_some())
            .collect();
        if !duplicated.is_empty() {
            return Err(WorkflowError::NotAPartition {
                missing: Vec::new(),
                duplicated,
            });
        }
        check_slot_bound("slot", self.composites.len() + 1)?;
        let id = CompositeTaskId::from_index(self.composites.len());
        for &m in composite.members() {
            self.assign(m, id);
        }
        self.composites.push(Some(Arc::new(composite)));
        Ok(id)
    }

    /// Removes `task` from its composite (tracking a spec-level task
    /// removal). A composite left empty is dropped from the view. Returns
    /// the composite the task belonged to.
    ///
    /// # Errors
    /// Fails if the task belongs to no composite.
    pub fn remove_member(&mut self, task: TaskId) -> Result<CompositeTaskId, WorkflowError> {
        let id = self
            .composite_of(task)
            .ok_or(WorkflowError::UnknownTask(task))?;
        self.composite_of_task[task.index()] = NO_COMPOSITE;
        let slot = &mut self.composites[id.index()];
        match slot {
            Some(composite) if composite.len() > 1 => {
                Arc::make_mut(composite).members.remove(&task);
            }
            // the task was the last member: the composite goes without
            // being copied out of a clone that still shares it
            _ => *slot = None,
        }
        Ok(id)
    }

    /// Builds the induced view-level graph: one node per composite task, and
    /// an edge `A -> B` whenever the specification has a data dependency from
    /// a member of `A` to a member of `B` (A ≠ B). This is the graph users
    /// query for provenance at the view level.
    ///
    /// O(V + E + S + C²/64) for C live composites in S slots: one
    /// branch-free pass over the specification's dependencies marks each
    /// endpoint pair, read from a dense task → composite-rank table, in a C×C
    /// bitset over the live composites' ranks (plus one row and column for
    /// tasks outside the view); reading the bitset back drops the
    /// duplicates, the diagonal and that extra rank, and yields the edges in
    /// ascending `(A, B)` order. The bitset is no bigger than the view-level
    /// closure every consumer builds next. The pass reads the dependency
    /// slots rather than a CSR snapshot of the spec: taking one costs more
    /// than this whole pass.
    #[must_use]
    pub fn induced_graph(&self, spec: &WorkflowSpec) -> InducedViewGraph {
        let live: Vec<CompositeTaskId> = self.composite_ids().collect();
        let mut rank = vec![0; self.composites.len()];
        for (r, id) in live.iter().enumerate() {
            rank[id.index()] = r;
        }
        let outside = live.len();
        let width = outside + 1;
        // each task's composite rank, so an endpoint is one table read
        let task_rank: Vec<usize> = self
            .composite_of_task
            .iter()
            .map(|&slot| {
                if slot == NO_COMPOSITE {
                    outside
                } else {
                    rank[slot as usize]
                }
            })
            .collect();
        let rank_of = |task: TaskId| task_rank.get(task.index()).copied().unwrap_or(outside);
        let mut pairs = FixedBitSet::with_capacity(width * width);
        for (from, to) in spec.dependencies() {
            pairs.insert(rank_of(from) * width + rank_of(to));
        }
        let edges = pairs
            .ones()
            .map(|bit| (bit / width, bit % width))
            .filter(|&(from, to)| from != to && from < outside && to < outside)
            .map(|(from, to)| {
                Some((
                    NodeId::from_index(live[from].index()),
                    NodeId::from_index(live[to].index()),
                    (),
                ))
            })
            .collect();
        let nodes = self
            .composites
            .iter()
            .enumerate()
            .map(|(slot, c)| c.as_ref().map(|_| CompositeTaskId::from_index(slot)))
            .collect();
        let graph = DiGraph::from_slots(nodes, edges)
            .expect("induced edges join distinct live composite slots");
        InducedViewGraph { graph }
    }
}

/// The view-level graph induced by a [`WorkflowView`] over a specification.
/// Node `i` is composite slot `i` (a tombstoned slot is a tombstoned node),
/// so composite ids and graph nodes convert without a lookup table.
#[derive(Debug, Clone)]
pub struct InducedViewGraph {
    /// The induced graph; node payloads are composite ids.
    pub graph: DiGraph<CompositeTaskId, ()>,
}

impl InducedViewGraph {
    /// The graph node representing a composite task, if it is live.
    #[must_use]
    pub fn node_of(&self, composite: CompositeTaskId) -> Option<NodeId> {
        let node = NodeId::from_index(composite.index());
        self.graph.contains_node(node).then_some(node)
    }

    /// The composite task represented by a graph node.
    #[must_use]
    pub fn composite_of(&self, node: NodeId) -> Option<CompositeTaskId> {
        self.graph.node_weight(node).ok().copied()
    }

    /// `true` iff the view has a direct edge from one composite to another.
    #[must_use]
    pub fn has_edge(&self, from: CompositeTaskId, to: CompositeTaskId) -> bool {
        match (self.node_of(from), self.node_of(to)) {
            (Some(f), Some(t)) => self.graph.find_edge(f, t).is_some(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AtomicTask, DataDependency};

    fn spec_chain(n: usize) -> (WorkflowSpec, Vec<TaskId>) {
        let mut spec = WorkflowSpec::new("chain");
        let ids: Vec<TaskId> = (0..n)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        for w in ids.windows(2) {
            spec.add_dependency(w[0], w[1], DataDependency::unnamed())
                .unwrap();
        }
        (spec, ids)
    }

    #[test]
    fn from_groups_requires_a_partition() {
        let (spec, ids) = spec_chain(4);
        // missing ids[3]
        let err = WorkflowView::from_groups(
            &spec,
            "v",
            vec![
                ("a".into(), vec![ids[0], ids[1]]),
                ("b".into(), vec![ids[2]]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, WorkflowError::NotAPartition { .. }));
        // duplicated ids[1]
        let err = WorkflowView::from_groups(
            &spec,
            "v",
            vec![
                ("a".into(), vec![ids[0], ids[1]]),
                ("b".into(), vec![ids[1], ids[2], ids[3]]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, WorkflowError::NotAPartition { .. }));
    }

    #[test]
    fn from_groups_rejects_unknown_and_empty() {
        let (spec, ids) = spec_chain(2);
        let ghost = TaskId::from_index(99);
        assert!(matches!(
            WorkflowView::from_groups(&spec, "v", vec![("a".into(), vec![ids[0], ids[1], ghost])]),
            Err(WorkflowError::UnknownTask(_))
        ));
        assert!(matches!(
            WorkflowView::from_groups(
                &spec,
                "v",
                vec![("a".into(), vec![ids[0], ids[1]]), ("b".into(), vec![])]
            ),
            Err(WorkflowError::EmptyComposite(_))
        ));
    }

    #[test]
    fn singleton_view_covers_every_task() {
        let (spec, ids) = spec_chain(5);
        let view = WorkflowView::singletons(&spec, "fine");
        assert_eq!(view.composite_count(), 5);
        for id in ids {
            let c = view.composite_of(id).unwrap();
            assert!(view.composite(c).unwrap().is_singleton());
        }
    }

    #[test]
    fn induced_graph_preserves_cross_edges_only() {
        let (spec, ids) = spec_chain(4);
        let view = WorkflowView::from_groups(
            &spec,
            "v",
            vec![
                ("ab".into(), vec![ids[0], ids[1]]),
                ("cd".into(), vec![ids[2], ids[3]]),
            ],
        )
        .unwrap();
        let induced = view.induced_graph(&spec);
        assert_eq!(induced.graph.node_count(), 2);
        assert_eq!(induced.graph.edge_count(), 1);
        let a = view.composite_of(ids[0]).unwrap();
        let b = view.composite_of(ids[2]).unwrap();
        assert!(induced.has_edge(a, b));
        assert!(!induced.has_edge(b, a));
    }

    #[test]
    fn split_composite_replaces_and_keeps_partition() {
        let (spec, ids) = spec_chain(4);
        let mut view =
            WorkflowView::from_groups(&spec, "v", vec![("all".into(), ids.clone())]).unwrap();
        let target = view.composite_of(ids[0]).unwrap();
        let new_ids = view
            .split_composite(target, vec![vec![ids[0], ids[1]], vec![ids[2], ids[3]]])
            .unwrap();
        assert_eq!(new_ids.len(), 2);
        assert_eq!(view.composite_count(), 2);
        assert!(view.validate_against(&spec).is_ok());
        assert!(view.composite(target).is_err());
        assert_ne!(view.composite_of(ids[0]), view.composite_of(ids[3]));
        let names: Vec<&str> = view.composites().map(|(_, c)| c.name.as_str()).collect();
        assert!(names.contains(&"all/1"));
        assert!(names.contains(&"all/2"));
    }

    #[test]
    fn split_rejects_non_partitions_of_members() {
        let (spec, ids) = spec_chain(3);
        let mut view =
            WorkflowView::from_groups(&spec, "v", vec![("all".into(), ids.clone())]).unwrap();
        let target = view.composite_of(ids[0]).unwrap();
        // missing ids[2]
        assert!(view
            .split_composite(target, vec![vec![ids[0]], vec![ids[1]]])
            .is_err());
        // foreign task
        let (_, other_ids) = spec_chain(5);
        assert!(view
            .split_composite(target, vec![ids.clone(), vec![other_ids[4]]])
            .is_err());
        // the failed splits must not have corrupted the view
        assert!(view.validate_against(&spec).is_ok());
        assert_eq!(view.composite_count(), 1);
    }

    #[test]
    fn merge_composites_implements_feedback() {
        let (spec, ids) = spec_chain(4);
        let mut view = WorkflowView::singletons(&spec, "fine");
        let a = view.composite_of(ids[0]).unwrap();
        let b = view.composite_of(ids[1]).unwrap();
        let merged = view.merge_composites(&[a, b], "front").unwrap();
        assert_eq!(view.composite_count(), 3);
        assert_eq!(view.composite_of(ids[0]), Some(merged));
        assert_eq!(view.composite_of(ids[1]), Some(merged));
        assert_eq!(view.composite(merged).unwrap().len(), 2);
        assert!(view.validate_against(&spec).is_ok());
    }

    #[test]
    fn add_composite_and_remove_member_track_spec_edits() {
        let (mut spec, ids) = spec_chain(3);
        let mut view = WorkflowView::singletons(&spec, "fine");
        // a new spec task enters the view as a singleton composite
        let extra = spec
            .add_task(crate::task::AtomicTask::new("extra"))
            .unwrap();
        let added = view.add_composite("extra", vec![extra]).unwrap();
        assert_eq!(view.composite_of(extra), Some(added));
        assert!(view.validate_against(&spec).is_ok());
        // already-assigned members are rejected
        assert!(matches!(
            view.add_composite("dup", vec![ids[0]]),
            Err(WorkflowError::NotAPartition { .. })
        ));
        // removing the task's membership drops the emptied composite
        spec.remove_task(extra).unwrap();
        let removed_from = view.remove_member(extra).unwrap();
        assert_eq!(removed_from, added);
        assert!(view.composite(added).is_err());
        assert!(view.validate_against(&spec).is_ok());
        assert!(view.remove_member(extra).is_err());
    }

    #[test]
    fn remove_member_keeps_multi_member_composites() {
        let (spec, ids) = spec_chain(3);
        let mut view =
            WorkflowView::from_groups(&spec, "v", vec![("all".into(), ids.clone())]).unwrap();
        let all = view.composite_of(ids[1]).unwrap();
        view.remove_member(ids[1]).unwrap();
        assert_eq!(view.composite(all).unwrap().len(), 2);
        assert_eq!(view.composite_of(ids[1]), None);
    }

    /// What a reader of a view observes: every composite with its name and
    /// members, and the composite of every task slot.
    type ObservedView = (
        Vec<(CompositeTaskId, String, Vec<TaskId>)>,
        Vec<Option<CompositeTaskId>>,
    );

    fn observe(view: &WorkflowView, slots: usize) -> ObservedView {
        let composites = view
            .composites()
            .map(|(id, c)| (id, c.name.clone(), c.members().iter().copied().collect()))
            .collect();
        let owners = (0..slots)
            .map(|t| view.composite_of(TaskId::from_index(t)))
            .collect();
        (composites, owners)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Task adds and removes, splits and merges on a clone of a view
        /// over several blocks of task slots keep the clone a partition of
        /// its spec and leave the original's composites and task →
        /// composite table exactly as they were.
        #[test]
        fn prop_view_edits_on_a_clone_leave_the_original_alone(
            n in 1100usize..1300,
            group in 1usize..6,
            ops in proptest::collection::vec((0usize..4, 0usize..4096), 1..24)
        ) {
            let (mut spec, ids) = spec_chain(n);
            let groups = ids
                .chunks(group)
                .enumerate()
                .map(|(i, chunk)| (format!("g{i}"), chunk.to_vec()))
                .collect();
            let original = WorkflowView::from_groups(&spec, "v", groups).unwrap();
            let slots = n + ops.len() + 1;
            let before = observe(&original, slots);
            let mut copy = original.clone();
            for (step, (op, raw)) in ops.into_iter().enumerate() {
                let live: Vec<CompositeTaskId> = copy.composite_ids().collect();
                let target = live[raw % live.len()];
                match op {
                    0 => {
                        let task = spec.add_task(AtomicTask::new(format!("new{step}"))).unwrap();
                        copy.add_composite(format!("new{step}"), vec![task]).unwrap();
                    }
                    1 if spec.task_count() > 1 => {
                        let tasks: Vec<TaskId> = spec.task_ids().collect();
                        let task = tasks[raw % tasks.len()];
                        copy.remove_member(task).unwrap();
                        spec.remove_task(task).unwrap();
                    }
                    2 => {
                        let members: Vec<TaskId> =
                            copy.composite(target).unwrap().members().iter().copied().collect();
                        if members.len() > 1 {
                            let (a, b) = members.split_at(members.len() / 2);
                            copy.split_composite(target, vec![a.to_vec(), b.to_vec()]).unwrap();
                        }
                    }
                    _ => {
                        let other = live[(raw / 7) % live.len()];
                        if other != target {
                            copy.merge_composites(&[target, other], format!("m{step}")).unwrap();
                        }
                    }
                }
                proptest::prop_assert!(copy.validate_against(&spec).is_ok());
                proptest::prop_assert!(observe(&original, slots) == before, "the original changed");
            }
        }
    }

    #[test]
    fn composite_ids_are_stable_across_edits() {
        let (spec, ids) = spec_chain(4);
        let mut view = WorkflowView::singletons(&spec, "fine");
        let untouched = view.composite_of(ids[3]).unwrap();
        let a = view.composite_of(ids[0]).unwrap();
        let b = view.composite_of(ids[1]).unwrap();
        view.merge_composites(&[a, b], "front").unwrap();
        assert_eq!(view.composite_of(ids[3]), Some(untouched));
        assert_eq!(view.composite(untouched).unwrap().name, "t3");
    }
}
