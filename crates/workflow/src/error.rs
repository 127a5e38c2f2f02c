//! Errors of the workflow model layer.

use std::fmt;

use crate::task::TaskId;
use crate::view::CompositeTaskId;

/// Errors raised while building or manipulating workflow specifications and
/// views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// A task id does not belong to the specification.
    UnknownTask(TaskId),
    /// A task name was not found during name-based lookup.
    UnknownTaskName(String),
    /// Two tasks with the same name were added to one specification.
    DuplicateTaskName(String),
    /// No data dependency exists between the two tasks.
    UnknownDependency(TaskId, TaskId),
    /// A composite task id does not belong to the view.
    UnknownComposite(CompositeTaskId),
    /// A composite task would be empty.
    EmptyComposite(String),
    /// The groups supplied for a view do not partition the specification's
    /// tasks: `missing` lists uncovered tasks, `duplicated` lists tasks
    /// assigned to more than one composite.
    NotAPartition {
        /// Tasks of the specification not covered by any composite.
        missing: Vec<TaskId>,
        /// Tasks assigned to more than one composite.
        duplicated: Vec<TaskId>,
    },
    /// The workflow specification must be acyclic but a cycle was found.
    CyclicSpecification(TaskId),
    /// A persisted spec/view/mutation line could not be parsed (see
    /// [`crate::persist`]).
    Persist(String),
    /// A slot bound would exceed [`crate::persist::MAX_SLOT_BOUND`]: a
    /// persisted slot-count header (`tasks`, `edges` or `slots`), refused
    /// before any slot is allocated, or an edit that would create a slot
    /// past the limit, refused before it changes anything.
    SlotBoundTooLarge {
        /// Which bound: `task`, `edge` or `slot` (composite slots).
        what: &'static str,
        /// The bound the header asked for, or the edit would have left.
        bound: usize,
    },
    /// Error bubbled up from the graph substrate.
    Graph(wolves_graph::GraphError),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::UnknownTask(t) => write!(f, "unknown task {t}"),
            WorkflowError::UnknownTaskName(name) => write!(f, "unknown task name '{name}'"),
            WorkflowError::DuplicateTaskName(name) => {
                write!(f, "duplicate task name '{name}'")
            }
            WorkflowError::UnknownDependency(from, to) => {
                write!(f, "no data dependency {from} -> {to}")
            }
            WorkflowError::UnknownComposite(c) => write!(f, "unknown composite task {c}"),
            WorkflowError::EmptyComposite(name) => {
                write!(f, "composite task '{name}' has no members")
            }
            WorkflowError::NotAPartition {
                missing,
                duplicated,
            } => write!(
                f,
                "view is not a partition of the workflow tasks ({} missing, {} duplicated)",
                missing.len(),
                duplicated.len()
            ),
            WorkflowError::CyclicSpecification(t) => {
                write!(f, "workflow specification has a cycle through {t}")
            }
            WorkflowError::Persist(message) => write!(f, "persist error: {message}"),
            WorkflowError::SlotBoundTooLarge { what, bound } => write!(
                f,
                "{what} slot bound {bound} exceeds the limit of {} slots",
                crate::persist::MAX_SLOT_BOUND
            ),
            WorkflowError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkflowError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wolves_graph::GraphError> for WorkflowError {
    fn from(e: wolves_graph::GraphError) -> Self {
        WorkflowError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_messages() {
        let e = WorkflowError::UnknownTaskName("frobnicate".into());
        assert!(e.to_string().contains("frobnicate"));
        let e = WorkflowError::NotAPartition {
            missing: vec![TaskId::from_index(1)],
            duplicated: vec![],
        };
        assert!(e.to_string().contains("1 missing"));
    }

    #[test]
    fn graph_errors_convert() {
        let ge = wolves_graph::GraphError::SelfLoop(TaskId::from_index(0));
        let we: WorkflowError = ge.into();
        assert!(matches!(we, WorkflowError::Graph(_)));
    }
}
