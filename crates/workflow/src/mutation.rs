//! Typed spec mutations, their deltas and mutation epochs.
//!
//! The paper's correction loop is interactive: users iteratively refine a
//! workflow and its views. Each edit to a [`crate::WorkflowSpec`] is a small
//! delta whose impact on reachability is locally boundable, so instead of
//! throwing away every derived structure per edit, the spec
//!
//! * applies each [`SpecMutation`] through one entry point
//!   ([`crate::WorkflowSpec::apply`]),
//! * bumps a monotone **epoch** counter,
//! * maintains its cached reachability matrix *in place* where the delta
//!   class allows, and
//! * returns one [`MutationReport`] per edit: the edit's own [`SpecDelta`]
//!   and exactly which matrix rows changed.
//!
//! The spec keeps no history. Downstream caches (the serving layer's
//! per-composite verdict caches) key their entries on the epoch and consume
//! the report's dirty rows to invalidate only what an edit could have
//! changed; the serving layer's write-ahead log and watch fan-out take the
//! report's delta.

use wolves_graph::{DeltaClass, DirtyRows};

use crate::task::TaskId;

/// A typed edit to a workflow specification, applied through
/// [`crate::WorkflowSpec::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecMutation {
    /// Add a new atomic task with the given (unique) name.
    AddTask {
        /// Name of the new task.
        name: String,
    },
    /// Remove a task and every data dependency touching it.
    RemoveTask {
        /// The task to remove.
        task: TaskId,
    },
    /// Add a data dependency `from -> to`.
    AddDependency {
        /// Source task.
        from: TaskId,
        /// Target task.
        to: TaskId,
    },
    /// Remove the data dependency `from -> to`.
    RemoveDependency {
        /// Source task.
        from: TaskId,
        /// Target task.
        to: TaskId,
    },
}

/// What one mutation changed, and the epoch it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDelta {
    /// The epoch this delta produced.
    pub epoch: u64,
    /// What changed.
    pub kind: SpecDeltaKind,
}

/// The change recorded by a [`SpecDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecDeltaKind {
    /// A task was added.
    TaskAdded(TaskId),
    /// A task (and its incident dependencies) was removed.
    TaskRemoved(TaskId),
    /// A dependency was added.
    DependencyAdded(TaskId, TaskId),
    /// A dependency was removed.
    DependencyRemoved(TaskId, TaskId),
}

/// Outcome of applying one [`SpecMutation`].
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// The specification's epoch after the mutation.
    pub epoch: u64,
    /// What the mutation changed; `delta.epoch == epoch`.
    pub delta: SpecDelta,
    /// How the cached reachability matrix absorbed the delta: inserts are
    /// monotone-safe or local rebuilds, removals run the decremental path.
    /// [`DeltaClass::Structural`] means the matrix was discarded and will be
    /// rebuilt from scratch on next use (only reported when no matrix was
    /// cached yet, or on a defensive fallback).
    pub class: DeltaClass,
    /// Matrix rows (component indices) this mutation dirtied. `all` for
    /// structural deltas.
    pub dirty: DirtyRows,
    /// The task created by [`SpecMutation::AddTask`], if any.
    pub task: Option<TaskId>,
}
