//! # wolves-moml
//!
//! Import/export of workflow specifications and views.
//!
//! The WOLVES demo loads workflows and pre-defined views written in MOML —
//! the Modeling Markup Language used by Ptolemy II and the Kepler workflow
//! system (paper §3.2). This crate implements:
//!
//! * [`xml`] — a small, dependency-free XML reader sufficient for MOML
//!   documents (elements, attributes, comments, processing instructions,
//!   the five predefined entities).
//! * [`model`] — the MOML document model: entities, relations and links.
//! * [`import`] — MOML → [`wolves_workflow::WorkflowSpec`] +
//!   [`wolves_workflow::WorkflowView`] (nested composite actors become
//!   composite tasks).
//! * [`export`] — the reverse direction, producing MOML that round-trips
//!   through the importer.
//! * [`textfmt`] — a minimal native text format (one declaration per line)
//!   used by the CLI and the test suite where XML would just be noise.
//! * [`scan`] — the word-at-a-time byte scan the text format and the
//!   service protocol find their delimiters with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod export;
pub mod import;
pub mod model;
pub mod scan;
pub mod textfmt;
pub mod xml;

pub use error::MomlError;
pub use export::to_moml;
pub use import::{from_moml, ImportedWorkflow};
pub use textfmt::{read_text_format, write_text_format};
