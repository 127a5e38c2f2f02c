//! Composite-task boundaries (`T.in` / `T.out`, Definition 2.2).

use std::collections::BTreeSet;

use wolves_graph::FixedBitSet;

use crate::spec::WorkflowSpec;
use crate::task::TaskId;

/// The boundary of a set of atomic tasks with respect to a workflow
/// specification.
///
/// Following Definition 2.2 of the paper: for a composite task `T`,
/// `T.in` is the set of member tasks that receive input from some task
/// outside `T`, and `T.out` is the set of member tasks that send output to
/// some task outside `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boundary {
    /// `T.in` — members with at least one incoming dependency from outside.
    pub inputs: Vec<TaskId>,
    /// `T.out` — members with at least one outgoing dependency to outside.
    pub outputs: Vec<TaskId>,
}

impl Boundary {
    /// Computes the boundary of `members` within `spec`.
    ///
    /// Tasks that are sources of the whole workflow do **not** appear in
    /// `inputs` (they receive no input at all), and global sinks do not
    /// appear in `outputs`; this mirrors the paper's definition, which only
    /// considers inputs/outputs crossing the composite-task border.
    #[must_use]
    pub fn compute(spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Self {
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        // membership as a bitmap over the members' id span: one bit test
        // per neighbour instead of a tree search
        let (Some(first), Some(last)) = (members.first(), members.last()) else {
            return Boundary { inputs, outputs };
        };
        let (low, span) = (first.index(), last.index() - first.index() + 1);
        let mut inside = FixedBitSet::with_capacity(span);
        for task in members {
            inside.insert(task.index() - low);
        }
        let outside = |task: TaskId| {
            task.index()
                .checked_sub(low)
                .map_or(true, |i| i >= span || !inside.contains(i))
        };
        for &task in members {
            if spec.predecessors(task).any(outside) {
                inputs.push(task);
            }
            if spec.successors(task).any(outside) {
                outputs.push(task);
            }
        }
        Boundary { inputs, outputs }
    }

    /// `true` if the composite receives no external input (its soundness is
    /// then vacuous).
    #[must_use]
    pub fn has_no_inputs(&self) -> bool {
        self.inputs.is_empty()
    }

    /// `true` if the composite sends no external output.
    #[must_use]
    pub fn has_no_outputs(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Number of `(input, output)` pairs the soundness check must examine.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.inputs.len() * self.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AtomicTask, DataDependency};

    /// Builds the small workflow  s -> a -> b -> t  with an extra edge s -> b.
    fn spec() -> (WorkflowSpec, Vec<TaskId>) {
        let mut spec = WorkflowSpec::new("boundary-test");
        let ids: Vec<TaskId> = ["s", "a", "b", "t"]
            .iter()
            .map(|n| spec.add_task(AtomicTask::new(*n)).unwrap())
            .collect();
        spec.add_dependency(ids[0], ids[1], DataDependency::unnamed())
            .unwrap();
        spec.add_dependency(ids[1], ids[2], DataDependency::unnamed())
            .unwrap();
        spec.add_dependency(ids[2], ids[3], DataDependency::unnamed())
            .unwrap();
        spec.add_dependency(ids[0], ids[2], DataDependency::unnamed())
            .unwrap();
        (spec, ids)
    }

    #[test]
    fn boundary_of_interior_group() {
        let (spec, ids) = spec();
        let members: BTreeSet<TaskId> = [ids[1], ids[2]].into_iter().collect();
        let b = Boundary::compute(&spec, &members);
        // a receives from s (outside); b receives from s (outside)
        assert_eq!(b.inputs, vec![ids[1], ids[2]]);
        // only b sends outside (to t)
        assert_eq!(b.outputs, vec![ids[2]]);
        assert_eq!(b.pair_count(), 2);
    }

    #[test]
    fn sources_and_sinks_do_not_join_the_boundary() {
        let (spec, ids) = spec();
        let all: BTreeSet<TaskId> = ids.iter().copied().collect();
        let b = Boundary::compute(&spec, &all);
        assert!(b.has_no_inputs());
        assert!(b.has_no_outputs());
    }

    #[test]
    fn singleton_boundary() {
        let (spec, ids) = spec();
        let members: BTreeSet<TaskId> = [ids[2]].into_iter().collect();
        let b = Boundary::compute(&spec, &members);
        assert_eq!(b.inputs, vec![ids[2]]);
        assert_eq!(b.outputs, vec![ids[2]]);
    }

    #[test]
    fn source_only_group_has_outputs_but_no_inputs() {
        let (spec, ids) = spec();
        let members: BTreeSet<TaskId> = [ids[0]].into_iter().collect();
        let b = Boundary::compute(&spec, &members);
        assert!(b.has_no_inputs());
        assert_eq!(b.outputs, vec![ids[0]]);
    }
}
