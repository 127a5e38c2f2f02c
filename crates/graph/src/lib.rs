//! # wolves-graph
//!
//! Directed-graph substrate used throughout the WOLVES workflow-view system.
//!
//! The crate provides the data structures and algorithms every other layer of
//! the reproduction is built on:
//!
//! * [`DiGraph`] — an adjacency-list directed graph with stable, typed
//!   [`NodeId`]/[`EdgeId`] indices, optional node/edge payloads and tombstone
//!   based removal.
//! * [`BlockVec`] — a block-shared vector: elements live in `Arc`'d
//!   blocks, a clone copies only the block handles and a write copies only
//!   the block it touches. `DiGraph`'s slots and `ReachMatrix`'s rows are
//!   stored in it, so a copy-on-write commit shares every block an edit
//!   leaves alone.
//! * [`FixedBitSet`] — a compact bit set used for partition masks and
//!   subset bookkeeping (the workspace deliberately avoids external graph or
//!   bitset crates; this substrate is part of the reproduction).
//! * [`Csr`] — a frozen compressed-sparse-row adjacency snapshot with
//!   contiguous successor/predecessor slices; the read-only algorithms below
//!   run over it instead of chasing `DiGraph`'s edge-slot indirection.
//! * [`topo`] — topological ordering and cycle detection.
//! * [`scc`] — Tarjan strongly-connected components and condensation, so that
//!   imported workflows that are not DAGs can still be analysed.
//! * [`reach`] — all-pairs reachability ([`ReachMatrix`]): a flat row-major
//!   bit matrix over the condensation, built by in-place row unions over a
//!   topological order, with row-level ops ([`reach::ReachRow`]) for
//!   bitset-algebra consumers and in-place delta maintenance for node and
//!   edge inserts; [`LabelledClosure`] runs the same propagation over node
//!   labels (e.g. composite tasks) instead of components.
//! * [`delta`] — the delta taxonomy for incremental maintenance
//!   ([`DeltaClass`]) and the [`DirtyRows`] change sets the maintenance
//!   routines report to downstream caches.
//! * [`kernels`] — blocked (4×64-bit) word kernels shared by every hot
//!   row/mask loop: unrolled OR/AND/intersect/popcount over flat `&[u64]`
//!   slices that autovectorise to 256-bit SIMD.
//! * [`algo`] — assorted DAG utilities (roots, leaves, layering, transitive
//!   reduction) used by the workload generators and renderers.
//! * [`dot`] — Graphviz DOT export for debugging and the CLI displayer.
//!
//! ## Quick start
//!
//! ```
//! use wolves_graph::{DiGraph, reach::ReachMatrix};
//!
//! let mut g: DiGraph<&str, ()> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, ());
//! g.add_edge(b, c, ());
//!
//! let reach = ReachMatrix::build(&g).unwrap();
//! assert!(reach.reachable(a, c));
//! assert!(!reach.reachable(c, a));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod bitset;
pub mod blockvec;
pub mod csr;
pub mod delta;
pub mod digraph;
pub mod dot;
pub mod error;
pub mod id;
pub mod kernels;
pub mod reach;
pub mod scc;
pub mod topo;
pub mod traversal;

pub use bitset::FixedBitSet;
pub use blockvec::BlockVec;
pub use csr::Csr;
pub use delta::{DeltaClass, DeltaOutcome, DirtyRows};
pub use digraph::DiGraph;
pub use error::GraphError;
pub use id::{EdgeId, NodeId};
pub use reach::{LabelledClosure, ReachMatrix, ReachRow};
