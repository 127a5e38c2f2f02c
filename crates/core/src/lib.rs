//! # wolves-core
//!
//! Soundness theory and view-correction algorithms of the WOLVES system
//! ("WOLVES: Achieving Correct Provenance Analysis by Detecting and Resolving
//! Unsound Workflow Views", Sun et al., VLDB 2009).
//!
//! The crate provides the two central modules of the paper's architecture
//! (Figure 2):
//!
//! * **Workflow View Validator** ([`mod@validate`]) — detects unsound views in
//!   polynomial time using the per-composite-task criterion of
//!   Proposition 2.1, with slower definition-based checks for comparison.
//! * **Unsound View Corrector** ([`correct`]) — repairs unsound composite
//!   tasks by splitting them, with three interchangeable correctors: weakly
//!   local optimal, strongly local optimal (both polynomial) and optimal
//!   (exact, exponential — the underlying problem is NP-hard, Theorem 2.2).
//!
//! Supporting modules implement the quality metric ([`quality`]), the
//! correction-time estimator of the demo GUI ([`estimate`]), the interactive
//! feedback loop ([`feedback`]) and generators of provably hard instances
//! ([`hardness`]).
//!
//! ```
//! use wolves_core::correct::{correct_view, Strategy};
//! use wolves_core::validate::validate;
//! use wolves_workflow::{builder::ViewBuilder, WorkflowBuilder};
//!
//! // s -> a -> b -> t,  s -> c -> t : grouping {a, c} is unsound
//! let mut b = WorkflowBuilder::new("toy");
//! let s = b.task("s");
//! let a = b.task("a");
//! let x = b.task("b");
//! let c = b.task("c");
//! let t = b.task("t");
//! b.edge(s, a).unwrap();
//! b.edge(a, x).unwrap();
//! b.edge(x, t).unwrap();
//! b.edge(s, c).unwrap();
//! b.edge(c, t).unwrap();
//! let spec = b.build().unwrap();
//! let view = ViewBuilder::new(&spec, "bad")
//!     .group("grouped", vec![a, c])
//!     .singletons_for_rest()
//!     .build()
//!     .unwrap();
//!
//! assert!(!validate(&spec, &view).is_sound());
//! let corrector = Strategy::Strong.corrector();
//! let (fixed, report) = correct_view(&spec, &view, corrector.as_ref()).unwrap();
//! assert!(validate(&spec, &fixed).is_sound());
//! assert_eq!(report.corrections.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod correct;
pub mod error;
pub mod estimate;
pub mod feedback;
pub mod hardness;
pub mod quality;
pub mod soundness;
pub mod validate;

pub use correct::{
    correct_view, Corrector, OptimalCorrector, Split, Strategy, StrongCorrector, WeakCorrector,
};
pub use error::CoreError;
pub use soundness::{is_sound, soundness_verdict, UnsoundnessWitness};
pub use validate::{validate, validate_by_definition, ValidationReport};
