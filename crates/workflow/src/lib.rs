//! # wolves-workflow
//!
//! Workflow specifications and workflow views — the data model of the WOLVES
//! system (Sun et al., VLDB 2009).
//!
//! * A [`WorkflowSpec`] is a directed acyclic graph whose nodes are
//!   [`AtomicTask`]s and whose edges are data dependencies (paper §1,
//!   Figure 1(a)).
//! * A [`WorkflowView`] partitions the atomic tasks of a specification into
//!   [`CompositeTask`]s and induces a view-level graph that preserves all
//!   inter-composite edges (Figure 1(b)).
//! * [`boundary`] computes `T.in` / `T.out` of a composite task
//!   (Definition 2.2), the ingredient of the soundness check implemented in
//!   `wolves-core`.
//!
//! ```
//! use wolves_workflow::{WorkflowBuilder, WorkflowView};
//!
//! let mut b = WorkflowBuilder::new("tiny");
//! let select = b.task("select");
//! let split = b.task("split");
//! let align = b.task("align");
//! b.edge(select, split).unwrap();
//! b.edge(split, align).unwrap();
//! let spec = b.build().unwrap();
//!
//! let view = WorkflowView::from_groups(
//!     &spec,
//!     "grouped",
//!     vec![("prepare".into(), vec![select, split]), ("analyse".into(), vec![align])],
//! ).unwrap();
//! assert_eq!(view.composite_count(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boundary;
pub mod builder;
pub mod error;
pub mod mutation;
mod names;
pub mod persist;
pub mod render;
pub mod spec;
pub mod task;
pub mod view;

pub use boundary::Boundary;
pub use builder::WorkflowBuilder;
pub use error::WorkflowError;
pub use mutation::{MutationReport, SpecDelta, SpecDeltaKind, SpecMutation};
pub use spec::WorkflowSpec;
pub use task::{AtomicTask, DataDependency, TaskId};
pub use view::{CompositeTask, CompositeTaskId, InducedViewGraph, WorkflowView};
