//! # wolves
//!
//! Umbrella crate of the WOLVES reproduction — *"WOLVES: Achieving Correct
//! Provenance Analysis by Detecting and Resolving Unsound Workflow Views"*
//! (Sun, Liu, Natarajan, Davidson, Chen — VLDB 2009).
//!
//! The crate re-exports the public API of the workspace members so
//! applications can depend on a single crate:
//!
//! * [`graph`] — directed-graph substrate (reachability, condensation, DOT).
//! * [`workflow`] — workflow specifications, views, composite-task
//!   boundaries.
//! * [`core`] — soundness theory, the validator and the three correctors
//!   (weak / strong local optimal, exact optimal).
//! * [`moml`] — MOML and native text import/export.
//! * [`repo`] — paper fixtures (Figures 1 and 3) and synthetic workload
//!   generators.
//! * [`provenance`] — execution simulation and view-level provenance
//!   analysis.
//! * [`service`] — the concurrent serving layer: sharded workflow store,
//!   line-framed TCP protocol, epoll event-loop server and client.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the system inventory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wolves_core as core;
pub use wolves_graph as graph;
pub use wolves_moml as moml;
pub use wolves_provenance as provenance;
pub use wolves_repo as repo;
pub use wolves_service as service;
pub use wolves_workflow as workflow;

/// Convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use wolves_core::correct::{
        correct_view, Corrector, OptimalCorrector, Split, Strategy, StrongCorrector, WeakCorrector,
    };
    pub use wolves_core::feedback::FeedbackSession;
    pub use wolves_core::validate::{validate, validate_by_definition};
    pub use wolves_provenance::{
        compare_to_ground_truth, view_level_provenance, workflow_level_provenance,
    };
    pub use wolves_workflow::builder::ViewBuilder;
    pub use wolves_workflow::{
        AtomicTask, CompositeTask, CompositeTaskId, SpecMutation, TaskId, WorkflowBuilder,
        WorkflowSpec, WorkflowView,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired_up() {
        let fixture = crate::repo::figure1();
        let report = crate::core::validate(&fixture.spec, &fixture.view);
        assert!(!report.is_sound());
    }
}
