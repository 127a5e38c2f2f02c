//! All-pairs reachability.
//!
//! Soundness checking (Definition 2.3 of the paper) reduces to many
//! `reach(u, v)` queries over the workflow specification. [`ReachMatrix`]
//! answers each query in O(1) after an O(V·E/64) bit-set propagation over a
//! topological order; cyclic inputs are handled by condensing strongly
//! connected components first.
//!
//! ## Storage layout
//!
//! Row `i` (the set of components reachable from component `i`) is
//! `stride = pad_words(comp_count.div_ceil(64))` contiguous words — the
//! stride is padded to a multiple of [`crate::kernels::LANES`] so every row
//! op runs in whole 4-word SIMD blocks (see [`crate::kernels`]) with no
//! remainder loop. Rows are stored row-major in a [`BlockVec`] whose blocks
//! hold 64 whole rows each, so [`ReachMatrix::row_words`] still returns one
//! contiguous slice while a clone of the matrix copies only the block
//! handles: a copy-on-write holder that then edits the clone copies just
//! the blocks whose rows the edit changed. Building the matrix unions
//! successor rows *in place* through disjoint row slices — no per-edge row
//! clone, no per-row allocation — and consumers can borrow whole rows
//! ([`ReachMatrix::reachable_row`]) to run word-level bitset algebra
//! (popcounts, component scans) instead of per-node `reachable()` loops.
//!
//! [`LabelledClosure`] runs the same propagation with rows over node
//! *labels* instead of components: a label's row holds every label one of
//! its nodes reaches, which is how composite-level connectivity is computed
//! without a row per task.
//!
//! ## Incremental maintenance
//!
//! A built matrix can absorb *additive* deltas in place instead of being
//! rebuilt ([`ReachMatrix::insert_node`], [`ReachMatrix::insert_edge_in`],
//! [`ReachMatrix::insert_edge`]). Each delta is classified (see
//! [`crate::delta::DeltaClass`]) and returns the set of rows it changed as
//! [`crate::delta::DirtyRows`]:
//!
//! * a node append takes a singleton component row: the lowest dead slot
//!   a removal left behind, or a fresh row past the last;
//! * an edge insert that creates no cycle ORs the target's row into every
//!   row that reaches the source but not yet the target (monotone-safe
//!   propagation). Given the graph, those rows are found by walking
//!   predecessors up from the source and stopping at rows that already
//!   hold the target, so only the rows that change are read; without it,
//!   by testing the source's bit in every row (a column scan);
//! * an edge insert that closes a cycle, or whose walk meets a cyclic
//!   component, runs the column scan; a new cycle's condensation rows are
//!   merged in place — the component indices stay stable, the merged
//!   components simply carry identical rows and are flagged cyclic.
//!
//! Removals are maintained *decrementally* ([`ReachMatrix::remove_edge`],
//! [`ReachMatrix::remove_isolated_node`], [`ReachMatrix::remove_node`]):
//!
//! * a node without dependencies frees its own row and nothing else;
//! * a cross-component edge removal with a surviving alternate path is
//!   recognised as a closure no-op without touching any row;
//! * any other cross-component edge removal over an acyclic region is a
//!   change propagation: the edge lies on no cycle, so component indices
//!   stay put, and rows are recomputed sinks-first from the source only
//!   while they keep changing — the dirty set is exactly the changed rows;
//! * a removal whose propagation meets a cyclic component, an intra-SCC
//!   edge removal and any other node removal re-derive the region: SCC splits are
//!   detected by re-running Tarjan on the rows that could reach the deleted
//!   edge's source component (found by scanning its reachability column —
//!   the transposed form of a reverse BFS), split parts keep the old
//!   component index for one part and append fresh indices for the rest,
//!   and every region row is re-derived in topological order and marked
//!   dirty, so the dirty set is a superset of the changed rows.
//!
//! All of them walk the post-removal graph's adjacency, and only over the
//! affected rows. Only the graph-free insert, cycle-closing inserts, the
//! intra-SCC removals and the region re-derivation scan a column, reading
//! one word of every row.

use crate::bitset::FixedBitSet;
use crate::blockvec::BlockVec;
use crate::csr::Csr;
use crate::delta::{DeltaClass, DeltaOutcome, DirtyRows};
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::id::NodeId;
use crate::scc::{condense_to_csr, strongly_connected_components_csr, SccDecomposition};
use crate::topo::topological_sort_csr;
use crate::traversal::{shortest_path, Direction};

/// Matrix rows per shared block: a block of [`ReachMatrix`]'s storage is
/// `ROWS_PER_BLOCK × stride` words, so no row straddles two blocks.
const ROWS_PER_BLOCK: usize = 64;

/// Row storage adopting `blocks` of [`ROWS_PER_BLOCK`] rows with row
/// stride `stride` (a matrix without components has stride 0 and no
/// blocks; any positive block length works for it).
fn row_blocks(stride: usize, blocks: Vec<Vec<u64>>) -> BlockVec<u64> {
    BlockVec::from_blocks(ROWS_PER_BLOCK * stride.max(1), blocks)
}

/// Zeroed row blocks for `rows` rows of `stride` words, `rows_per_block`
/// rows to a block (the last block holds the remainder).
fn zeroed_blocks(rows: usize, stride: usize, rows_per_block: usize) -> Vec<Vec<u64>> {
    (0..rows)
        .step_by(rows_per_block.max(1))
        .map(|first| vec![0u64; (rows - first).min(rows_per_block) * stride])
        .collect()
}

/// Dense all-pairs reachability over a directed graph.
///
/// `reachable(u, v)` is `true` iff there is a directed path from `u` to `v`
/// of length **zero or more** — i.e. every node reaches itself. This matches
/// the paper's use of "directed path between t1 and t2" where a composite
/// task containing a single boundary node is always sound.
#[derive(Debug, Clone)]
pub struct ReachMatrix {
    /// Row-major reachability words in shared blocks of [`ROWS_PER_BLOCK`]
    /// rows: bit `j` of row `i` is set iff component `j` is reachable from
    /// component `i`.
    words: BlockVec<u64>,
    /// Words per row: `comp_count.div_ceil(64)` padded to a multiple of
    /// [`crate::kernels::LANES`]; pad words are always zero.
    stride: usize,
    /// Number of strongly connected components (= number of rows).
    comp_count: usize,
    /// Map from node index to component index (`usize::MAX` for removed nodes).
    component_of: Vec<usize>,
    /// Number of member nodes per component.
    comp_size: Vec<u32>,
    /// Components whose members lie on a cycle. At build time these are
    /// exactly the components with more than one member; incremental cycle
    /// merges ([`ReachMatrix::insert_edge`]) flag further components without
    /// renumbering them.
    cyclic: FixedBitSet,
    node_bound: usize,
}

impl ReachMatrix {
    /// Builds the reachability matrix for `graph`.
    ///
    /// Cycles are permitted: the matrix is computed on the condensation, and
    /// all members of a strongly connected component mutually reach each
    /// other.
    ///
    /// # Errors
    /// Currently infallible for any well-formed graph; the `Result` is kept
    /// so future storage strategies (e.g. external memory) can fail cleanly.
    pub fn build<N, E>(graph: &DiGraph<N, E>) -> Result<Self, GraphError> {
        Ok(Self::build_from_csr(&Csr::from_graph(graph)))
    }

    /// Builds the matrix from an existing CSR snapshot: SCC decomposition,
    /// condensation (also in CSR form) and one in-place bit-row propagation
    /// over the reverse topological order.
    #[must_use]
    pub fn build_from_csr(csr: &Csr) -> Self {
        let scc = strongly_connected_components_csr(csr);
        let comp_count = scc.len();
        let stride = crate::kernels::pad_words(comp_count.div_ceil(64));
        let blocks = propagate_closure(csr, &scc, stride, ROWS_PER_BLOCK, |comp, row| {
            row[comp / 64] |= 1u64 << (comp % 64);
        });
        let comp_size: Vec<u32> = scc
            .iter()
            .map(|members| u32::try_from(members.len()).expect("component size exceeds u32"))
            .collect();
        let mut cyclic = FixedBitSet::with_capacity(comp_count);
        for (comp, &size) in comp_size.iter().enumerate() {
            if size > 1 {
                cyclic.insert(comp);
            }
        }
        ReachMatrix {
            words: row_blocks(stride, blocks),
            stride,
            comp_count,
            component_of: scc.component_of,
            comp_size,
            cyclic,
            node_bound: csr.node_bound(),
        }
    }

    /// Returns `true` iff there is a directed path (possibly empty) from
    /// `from` to `to`.
    ///
    /// Unknown nodes are never reachable and reach nothing.
    #[inline]
    #[must_use]
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        let (Some(cf), Some(ct)) = (self.component_index(from), self.component_index(to)) else {
            return false;
        };
        self.row_has_bit(cf, ct)
    }

    /// Returns `true` iff there is a path of length **one or more** from
    /// `from` to `to` (excludes the trivial empty path, unless the two nodes
    /// are on a common cycle).
    #[must_use]
    pub fn strictly_reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            // a node strictly reaches itself iff it lies on a cycle: its
            // component was multi-member at build time, or an incremental
            // edge insert later closed a cycle through it (DiGraph rejects
            // self-loops, so non-cyclic components stay cycle-free)
            return self
                .component_index(from)
                .is_some_and(|c| self.cyclic.contains(c));
        }
        self.reachable(from, to)
    }

    /// Returns the number of nodes `from` can reach (including itself):
    /// a popcount over the node's reachability row, weighted by the member
    /// counts of the reached components. O(comp_count/64) words — no node
    /// list and no allocation.
    #[must_use]
    pub fn descendant_count(&self, from: NodeId) -> usize {
        self.reachable_row(from).map_or(0, |row| row.node_count())
    }

    /// Borrows the reachability row of `from`'s strongly connected component,
    /// or `None` for unknown nodes. The row supports word-level set algebra;
    /// see [`ReachRow`].
    #[must_use]
    pub fn reachable_row(&self, from: NodeId) -> Option<ReachRow<'_>> {
        let comp = self.component_index(from)?;
        Some(ReachRow {
            matrix: self,
            words: self.row_words(comp),
        })
    }

    /// Number of strongly connected components (rows of the matrix).
    #[must_use]
    pub fn comp_count(&self) -> usize {
        self.comp_count
    }

    /// Words per reachability row (`comp_count.div_ceil(64)` padded to a
    /// multiple of [`crate::kernels::LANES`]).
    #[must_use]
    pub fn row_stride(&self) -> usize {
        self.stride
    }

    /// The component index of a node, or `None` for unknown/removed nodes.
    /// Component indices address matrix rows and row bits.
    #[must_use]
    pub fn component_of(&self, node: NodeId) -> Option<usize> {
        self.component_index(node)
    }

    /// Number of member nodes of a component (components with more than one
    /// member are cycles).
    ///
    /// # Panics
    /// Panics if `comp >= comp_count()`.
    #[must_use]
    pub fn component_size(&self, comp: usize) -> usize {
        self.comp_size[comp] as usize
    }

    /// The raw reachability words of one component's row; bit `j` is set iff
    /// component `j` is reachable.
    ///
    /// # Panics
    /// Panics if `comp >= comp_count()`.
    #[inline]
    #[must_use]
    pub fn row_words(&self, comp: usize) -> &[u64] {
        self.words.block_slice(
            comp / ROWS_PER_BLOCK,
            (comp % ROWS_PER_BLOCK) * self.stride,
            self.stride,
        )
    }

    /// One component's row, writable: copies the row's block first if a
    /// clone of the matrix still shares it.
    fn row_mut(&mut self, comp: usize) -> &mut [u64] {
        let start = (comp % ROWS_PER_BLOCK) * self.stride;
        &mut self.words.block_mut(comp / ROWS_PER_BLOCK)[start..start + self.stride]
    }

    /// Upper bound on node indices this matrix was built for.
    #[must_use]
    pub fn node_bound(&self) -> usize {
        self.node_bound
    }

    /// Absorbs a freshly added, isolated node into the matrix in place: the
    /// node becomes a singleton component with a self-only row. Existing
    /// component indices are untouched.
    ///
    /// The component is the lowest dead slot a removal left behind, if any:
    /// its row is zeroed, its cyclic flag cleared and no row holds its bit,
    /// so it is as good as a fresh row. Only without one does the matrix
    /// grow by a row — and re-lay out every row when the word stride has to
    /// widen — so a task add after a task remove costs one row write.
    ///
    /// Nodes the matrix already knows are a no-op with an empty dirty set.
    pub fn insert_node(&mut self, node: NodeId) -> DeltaOutcome {
        let index = node.index();
        if self.component_index(node).is_some() {
            return DeltaOutcome {
                class: DeltaClass::MonotoneSafe,
                dirty: DirtyRows::clean(self.comp_count),
            };
        }
        let comp = match self.comp_size.iter().position(|&size| size == 0) {
            Some(dead) => dead,
            None => {
                let comp = self.comp_count;
                self.reserve_components(comp + 1);
                self.comp_size.push(0);
                self.comp_count = comp + 1;
                comp
            }
        };
        self.row_mut(comp)[comp / 64] |= 1u64 << (comp % 64);
        if index >= self.component_of.len() {
            self.component_of.resize(index + 1, usize::MAX);
        }
        self.component_of[index] = comp;
        self.comp_size[comp] = 1;
        self.node_bound = self.node_bound.max(index + 1);
        let mut dirty = DirtyRows::clean(self.comp_count);
        dirty.mark(comp);
        DeltaOutcome {
            class: DeltaClass::MonotoneSafe,
            dirty,
        }
    }

    /// Absorbs an edge insert `from -> to` into the matrix in place,
    /// classifying the delta:
    ///
    /// * the endpoints share a component, or `to` was already reachable from
    ///   `from` — the closure is unchanged (monotone-safe, empty dirty set);
    /// * no cycle is created — the target's row is OR'd into every row that
    ///   reaches the source's component (monotone-safe propagation);
    /// * the edge closes a cycle (`from` was reachable from `to`) — the same
    ///   propagation runs, and the components on the new cycle end up with
    ///   identical rows and are flagged cyclic without renumbering
    ///   (local rebuild of exactly the touched condensation rows).
    ///
    /// The dirty set lists every component row whose contents or cyclicity
    /// changed. A row that already holds the target's bit already holds the
    /// target's whole row (the matrix is transitively closed), so it is
    /// skipped after one bit test — neither ORed nor copied out of a block
    /// a clone still shares.
    ///
    /// This is the graph-free form: it finds the rows that reach the source
    /// by testing the source's bit in every row, one word of each row. A
    /// holder of the graph should call [`ReachMatrix::insert_edge_in`],
    /// which reads only the rows that change and falls back to this scan
    /// where it cannot.
    ///
    /// # Errors
    /// Both endpoints must already be known to the matrix (add nodes through
    /// [`ReachMatrix::insert_node`] first).
    pub fn insert_edge(&mut self, from: NodeId, to: NodeId) -> Result<DeltaOutcome, GraphError> {
        let cf = self
            .component_index(from)
            .ok_or(GraphError::InvalidNode(from))?;
        let ct = self
            .component_index(to)
            .ok_or(GraphError::InvalidNode(to))?;
        let mut dirty = DirtyRows::clean(self.comp_count);
        if cf == ct || self.row_has_bit(cf, ct) {
            return Ok(DeltaOutcome {
                class: DeltaClass::MonotoneSafe,
                dirty,
            });
        }
        // reach'(u, v) = reach(u, v) ∨ (reach(u, cf) ∧ reach(ct, v)): OR the
        // target's row into every row that reaches the source's component
        let creates_cycle = self.row_has_bit(ct, cf);
        let target_row: Vec<u64> = self.row_words(ct).to_vec();
        for u in 0..self.comp_count {
            if !self.row_has_bit(u, cf) {
                continue;
            }
            // pre-update membership test: u joins the new cycle iff it
            // reaches the source and the target reaches it
            let on_new_cycle = creates_cycle && target_row[u / 64] & (1u64 << (u % 64)) != 0;
            let mut changed =
                !self.row_has_bit(u, ct) && crate::kernels::or_into(self.row_mut(u), &target_row);
            if on_new_cycle && self.cyclic.insert(u) {
                changed = true;
            }
            if changed {
                dirty.mark(u);
            }
        }
        Ok(DeltaOutcome {
            class: if creates_cycle {
                DeltaClass::LocalRebuild
            } else {
                DeltaClass::MonotoneSafe
            },
            dirty,
        })
    }

    /// [`ReachMatrix::insert_edge`] for a holder of the graph: the same
    /// class, the same dirty set and the same rows, reading only the rows
    /// the insert changes. Call *after* the edge has been added to `graph`
    /// (the walk reads only predecessors above `from`, which an edge that
    /// closes no cycle does not change).
    ///
    /// An insert that closes no cycle changes exactly the rows that reach
    /// the source's component but not the target's. Every path between two
    /// such rows runs only through such rows — a row on it that held the
    /// target would hand the target to the row above — so a walk up the
    /// source's predecessors that stops at rows already holding the target
    /// finds all of them and nothing else. The rows found are sorted, and
    /// only the nonzero words of the target's row are ORed into them.
    ///
    /// An insert that closes a cycle, or whose walk meets a cyclic
    /// component (whose other members' predecessors the walk cannot see),
    /// falls back to [`ReachMatrix::insert_edge`].
    ///
    /// # Errors
    /// Both endpoints must already be known to the matrix.
    pub fn insert_edge_in<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        from: NodeId,
        to: NodeId,
    ) -> Result<DeltaOutcome, GraphError> {
        let cf = self
            .component_index(from)
            .ok_or(GraphError::InvalidNode(from))?;
        let ct = self
            .component_index(to)
            .ok_or(GraphError::InvalidNode(to))?;
        if cf == ct || self.row_has_bit(cf, ct) {
            return Ok(DeltaOutcome {
                class: DeltaClass::MonotoneSafe,
                dirty: DirtyRows::clean(self.comp_count),
            });
        }
        let Some(mut rows) = self.rows_gaining(graph, from, cf, ct) else {
            return self.insert_edge(from, to);
        };
        rows.sort_unstable();
        let target: Vec<(usize, u64)> = self
            .row_words(ct)
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, bits)| bits != 0)
            .collect();
        let mut dirty = DirtyRows::clean(self.comp_count);
        for u in rows {
            let row = self.row_mut(u);
            for &(w, bits) in &target {
                row[w] |= bits;
            }
            dirty.mark(u);
        }
        Ok(DeltaOutcome {
            class: DeltaClass::MonotoneSafe,
            dirty,
        })
    }

    /// The rows an insert of `from -> to` (components `cf` and `ct`, `cf`'s
    /// row without `ct`) changes: `cf` and every ancestor row without `ct`,
    /// found by a predecessor walk from `from` that stops at rows holding
    /// `ct`. `None` when the edge closes a cycle or the walk meets a cyclic
    /// component.
    fn rows_gaining<N, E>(
        &self,
        graph: &DiGraph<N, E>,
        from: NodeId,
        cf: usize,
        ct: usize,
    ) -> Option<Vec<usize>> {
        if self.cyclic.contains(cf) || self.row_has_bit(ct, cf) {
            return None;
        }
        let mut seen = FixedBitSet::with_capacity(self.comp_count);
        seen.insert(cf);
        let mut rows = vec![cf];
        let mut stack = vec![from];
        while let Some(node) = stack.pop() {
            for p in graph.predecessors(node) {
                let Some(cp) = self.component_index(p) else {
                    continue;
                };
                if !seen.insert(cp) || self.row_has_bit(cp, ct) {
                    continue;
                }
                if self.cyclic.contains(cp) {
                    return None;
                }
                rows.push(cp);
                stack.push(p);
            }
        }
        Some(rows)
    }

    /// Maintains the matrix across the removal of edge `from -> to`:
    /// the decremental counterpart of [`ReachMatrix::insert_edge`]. Call
    /// *after* the edge has been removed from `graph` (the post-removal
    /// adjacency is consulted for surviving paths).
    ///
    /// The delta is always absorbed in place ([`DeltaClass::Decremental`]):
    ///
    /// * a cross-component removal whose source still reaches the target
    ///   through another edge is a closure no-op (clean dirty set);
    /// * any other cross-component removal propagates the change from the
    ///   source row to the rows above it, sinks first, rewriting only rows
    ///   whose bits change; the dirty set is exactly those rows;
    /// * when that walk meets a cyclic component, the rows that could reach
    ///   the edge's source component — found by scanning its reachability
    ///   column, which is exactly the reverse-reachable set over the
    ///   condensation — are re-derived in topological order, and all of
    ///   them are marked dirty;
    /// * an intra-component removal re-runs Tarjan on that component's
    ///   members only; if the cycle survives nothing changes, and on a split
    ///   the region is re-derived: one part keeps the old component index
    ///   while the rest get fresh appended indices, so untouched rows stay
    ///   valid verbatim.
    ///
    /// # Errors
    /// Both endpoints must be known to the matrix.
    pub fn remove_edge<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        from: NodeId,
        to: NodeId,
    ) -> Result<DeltaOutcome, GraphError> {
        let cf = self
            .component_index(from)
            .ok_or(GraphError::InvalidNode(from))?;
        let ct = self
            .component_index(to)
            .ok_or(GraphError::InvalidNode(to))?;
        // Note on representation: after incremental cycle merges one
        // *semantic* SCC may span several component indices carrying
        // identical rows, so "same SCC" is tested through mutual row bits,
        // not index equality.
        let intra_scc = self.row_has_bit(cf, ct) && self.row_has_bit(ct, cf);
        if !intra_scc {
            // Cross-SCC removal. If the source still reaches the target some
            // other way, every old path through the removed edge can be
            // rerouted and the closure is unchanged. Witness: a surviving
            // successor of `from` outside `from`'s SCC whose row holds ct —
            // such a row cannot owe its ct bit to the removed edge (the
            // witness path would have to re-enter `from` after `to`, i.e.
            // ct reaches cf, contradicting the cross-SCC case).
            let still_reachable = graph.successors(from).any(|s| {
                self.component_index(s)
                    .is_some_and(|cs| self.row_has_bit(cs, ct) && !self.row_has_bit(cs, cf))
            });
            if still_reachable {
                return Ok(DeltaOutcome {
                    class: DeltaClass::Decremental,
                    dirty: DirtyRows::clean(self.comp_count),
                });
            }
            if let Some(dirty) = self.propagate_removal(graph, from, cf, ct) {
                return Ok(DeltaOutcome {
                    class: DeltaClass::Decremental,
                    dirty,
                });
            }
        } else {
            // Intra-SCC removal: if the SCC survives (the edge was internal
            // redundancy), its member set, successor set and hence the whole
            // closure are unchanged — detected by a Tarjan run restricted to
            // the SCC's members, which is tiny compared to the graph.
            let mut in_scc = vec![false; self.comp_count];
            for &c in &self.rows_reaching(cf) {
                if self.row_has_bit(cf, c) {
                    in_scc[c] = true;
                }
            }
            let members = self.members_of_comps(&in_scc);
            if scc_of_subset(&members, graph).len() == 1 {
                return Ok(DeltaOutcome {
                    class: DeltaClass::Decremental,
                    dirty: DirtyRows::clean(self.comp_count),
                });
            }
        }
        let dirty = self.rederive_region(cf, graph);
        Ok(DeltaOutcome {
            class: DeltaClass::Decremental,
            dirty,
        })
    }

    /// Maintains the matrix across the removal of `node` (and implicitly all
    /// its incident edges). Call *after* the node has been removed from
    /// `graph`.
    ///
    /// A singleton component becomes a dead slot: its row is zeroed and
    /// `comp_count` is unchanged — so surviving component indices stay
    /// stable — until [`ReachMatrix::insert_node`] reuses the slot. A
    /// multi-member (cyclic) component is re-decomposed over its surviving
    /// members exactly like an intra-component edge removal. Either way the
    /// rows that reached the node are found by scanning its column; a
    /// caller that knows the node had no edge can skip the scan through
    /// [`ReachMatrix::remove_isolated_node`].
    ///
    /// # Errors
    /// The node must be known to the matrix.
    pub fn remove_node<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        node: NodeId,
    ) -> Result<DeltaOutcome, GraphError> {
        let c = self
            .component_index(node)
            .ok_or(GraphError::InvalidNode(node))?;
        self.component_of[node.index()] = usize::MAX;
        let dirty = self.rederive_region(c, graph);
        Ok(DeltaOutcome {
            class: DeltaClass::Decremental,
            dirty,
        })
    }

    /// [`ReachMatrix::remove_node`] for a node that had no incident edge:
    /// the same outcome — [`DeltaClass::Decremental`], its row the only
    /// dirty one, and a dead slot [`ReachMatrix::insert_node`] reuses —
    /// without reading any other row. Such a node is a singleton,
    /// non-cyclic component that reaches only itself, and no other row
    /// holds its bit, so freeing the row is the whole edit.
    ///
    /// The caller vouches that the node had no predecessor: no other row is
    /// read to check it. Check the graph before removing the node from it.
    ///
    /// # Errors
    /// [`GraphError::InvalidNode`], with the matrix untouched, when the
    /// node is unknown or its component is not a singleton, non-cyclic
    /// row that reaches only itself.
    pub fn remove_isolated_node(&mut self, node: NodeId) -> Result<DeltaOutcome, GraphError> {
        let c = self
            .component_index(node)
            .ok_or(GraphError::InvalidNode(node))?;
        let self_only = self
            .row_words(c)
            .iter()
            .enumerate()
            .all(|(w, &bits)| bits == if w == c / 64 { 1u64 << (c % 64) } else { 0 });
        if self.comp_size[c] != 1 || self.cyclic.contains(c) || !self_only {
            return Err(GraphError::InvalidNode(node));
        }
        self.component_of[node.index()] = usize::MAX;
        self.comp_size[c] = 0;
        self.row_mut(c).fill(0);
        let mut dirty = DirtyRows::clean(self.comp_count);
        dirty.mark(c);
        Ok(DeltaOutcome {
            class: DeltaClass::Decremental,
            dirty,
        })
    }

    /// The cross-SCC removal of `from -> to` (components `cf` and `ct`) as a
    /// change propagation. The edge lies on no cycle, so the SCC structure,
    /// the component indices and `component_of` stay as they are; only row
    /// bits change, and only bits of the target's old row can be lost.
    ///
    /// A worklist ordered by each row's pre-edit popcount starts at the
    /// source. In an acyclic region a strict ancestor's closed row is
    /// strictly larger than its descendant's, so the order is sinks-first:
    /// every successor row is final when a row is recomputed. A row is
    /// recomputed from its successors' rows over the nonzero words of
    /// `row(ct)` only, written back and marked dirty only when it differs,
    /// and then its node's predecessors are queued — a row none of whose
    /// successors changed keeps its value, so the walk stops where the
    /// change does. The dirty set is exactly the rows that changed.
    ///
    /// Returns `None` as soon as the walk meets a cyclic component (a
    /// multi-member SCC needs its members' successors, which the walk does
    /// not collect); the caller then runs [`ReachMatrix::rederive_region`]
    /// on `cf`. That recomputes every row of the region, and the walk only
    /// wrote region rows with their exact values, so the partial writes are
    /// safe.
    fn propagate_removal<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        from: NodeId,
        cf: usize,
        ct: usize,
    ) -> Option<DirtyRows> {
        use std::cmp::Reverse;
        if self.cyclic.contains(cf) {
            return None;
        }
        let words: Vec<usize> = (0..self.stride)
            .filter(|&w| self.row_words(ct)[w] != 0)
            .collect();
        let mut scratch = vec![0u64; words.len()];
        let mut dirty = DirtyRows::clean(self.comp_count);
        let mut queued = FixedBitSet::with_capacity(self.comp_count);
        queued.insert(cf);
        let popcount = |m: &Self, c: usize| crate::kernels::popcount(m.row_words(c));
        let mut worklist =
            std::collections::BinaryHeap::from([Reverse((popcount(self, cf), from))]);
        while let Some(Reverse((_, node))) = worklist.pop() {
            let c = self.component_of[node.index()];
            for (slot, &w) in scratch.iter_mut().zip(&words) {
                *slot = if w == c / 64 { 1u64 << (c % 64) } else { 0 };
            }
            for s in graph.successors(node) {
                let Some(cs) = self.component_index(s) else {
                    continue;
                };
                let row = self.row_words(cs);
                for (slot, &w) in scratch.iter_mut().zip(&words) {
                    *slot |= row[w];
                }
            }
            let row = self.row_words(c);
            if words.iter().zip(&scratch).all(|(&w, &v)| row[w] == v) {
                continue;
            }
            let row = self.row_mut(c);
            for (&w, &v) in words.iter().zip(&scratch) {
                row[w] = v;
            }
            dirty.mark(c);
            for p in graph.predecessors(node) {
                let Some(cp) = self.component_index(p) else {
                    continue;
                };
                if self.cyclic.contains(cp) {
                    return None;
                }
                if queued.insert(cp) {
                    worklist.push(Reverse((popcount(self, cp), p)));
                }
            }
        }
        Some(dirty)
    }

    /// The removal slow path, for cyclic regions, intra-SCC edge removals
    /// and node removals: re-derives the *region* that can reach
    /// component `pivot` (everything else keeps its row verbatim — a row
    /// that never reached the pivot cannot lose any path through it).
    ///
    /// 1. The affected component set is read off the pivot's reachability
    ///    *column* — the transposed, already-transitively-closed form of a
    ///    reverse BFS over the condensation.
    /// 2. One Tarjan run restricted to the region's member nodes recomputes
    ///    the true SCC structure there (the region is closed under mutual
    ///    reachability, so induced SCCs are exact).
    /// 3. Indices are reassigned stably: an SCC that matches an old
    ///    component exactly keeps its index, shrunken/split groups reuse
    ///    their members' old indices where possible, genuinely new groups
    ///    get fresh appended indices, and old indices left without members
    ///    become dead slots. Unaffected rows stay valid under all of this
    ///    because they hold no bit of any region component.
    /// 4. Rows are rebuilt sinks-first (Tarjan emission order is reverse
    ///    topological), unioning successor rows — successors outside the
    ///    region contribute their final, untouched rows. Each row is derived
    ///    in a scratch buffer and written back only if it differs, so a
    ///    block a clone still shares is copied only for rows that changed.
    ///
    /// Every region row (and dead slot) is marked dirty.
    fn rederive_region<N, E>(&mut self, pivot: usize, graph: &DiGraph<N, E>) -> DirtyRows {
        let affected = self.rows_reaching(pivot);
        let mut in_region = vec![false; self.comp_count];
        for &c in &affected {
            in_region[c] = true;
        }
        let members = self.members_of_comps(&in_region);
        let parts = scc_of_subset(&members, graph);
        // --- index assignment ---
        let mut consumed = vec![false; self.comp_count];
        let mut assignment: Vec<usize> = vec![usize::MAX; parts.len()];
        // pass 1: exact matches keep their index (the common case: an
        // untouched ancestor component survives as an identical part)
        for (k, part) in parts.iter().enumerate() {
            let c0 = self.component_of[part[0]];
            if part.iter().all(|&n| self.component_of[n] == c0)
                && self.comp_size[c0] as usize == part.len()
                && !consumed[c0]
            {
                assignment[k] = c0;
                consumed[c0] = true;
            }
        }
        // pass 2: changed groups reuse the smallest unconsumed index among
        // their members' old components; genuinely new groups go fresh
        let mut fresh_needed = 0usize;
        for (k, part) in parts.iter().enumerate() {
            if assignment[k] != usize::MAX {
                continue;
            }
            let pick = part
                .iter()
                .map(|&n| self.component_of[n])
                .filter(|&c| !consumed[c])
                .min();
            if let Some(c) = pick {
                assignment[k] = c;
                consumed[c] = true;
            } else {
                fresh_needed += 1;
            }
        }
        if fresh_needed > 0 {
            self.reserve_components(self.comp_count + fresh_needed);
            for slot in assignment.iter_mut() {
                if *slot == usize::MAX {
                    *slot = self.comp_count;
                    self.comp_count += 1;
                    self.comp_size.push(0);
                }
            }
        }
        let mut dirty = DirtyRows::clean(self.comp_count);
        // dead slots: affected indices whose members all moved elsewhere (or
        // whose only member was just removed) — zeroed until insert_node
        // reuses them
        for &c in &affected {
            if !consumed[c] {
                self.comp_size[c] = 0;
                self.cyclic.remove(c);
                if self.row_words(c).iter().any(|&w| w != 0) {
                    self.row_mut(c).fill(0);
                }
                dirty.mark(c);
            }
        }
        // apply the assignment before any row math so successor lookups see
        // the final component indices
        for (k, part) in parts.iter().enumerate() {
            let c = assignment[k];
            for &n in part {
                self.component_of[n] = c;
            }
            self.comp_size[c] = u32::try_from(part.len()).expect("component size exceeds u32");
            if part.len() > 1 {
                self.cyclic.insert(c);
            } else {
                self.cyclic.remove(c);
            }
        }
        // --- row recomputation, sinks first ---
        let mut stamp = vec![usize::MAX; self.comp_count];
        let mut scratch = vec![0u64; self.stride];
        for (k, part) in parts.iter().enumerate() {
            let c = assignment[k];
            scratch.fill(0);
            scratch[c / 64] |= 1u64 << (c % 64);
            for &m in part {
                for s in graph.successors(NodeId::from_index(m)) {
                    let Some(cs) = self.component_index(s) else {
                        continue;
                    };
                    if cs == c || stamp[cs] == k {
                        continue;
                    }
                    stamp[cs] = k;
                    crate::kernels::or_into(&mut scratch, self.row_words(cs));
                }
            }
            if self.row_words(c) != scratch.as_slice() {
                self.row_mut(c).copy_from_slice(&scratch);
            }
            dirty.mark(c);
        }
        dirty
    }

    /// Component indices whose rows hold bit `comp` — everything that can
    /// reach `comp`, itself included.
    fn rows_reaching(&self, comp: usize) -> Vec<usize> {
        let word = comp / 64;
        let mask = 1u64 << (comp % 64);
        (0..self.comp_count)
            .filter(|&u| self.row_words(u)[word] & mask != 0)
            .collect()
    }

    /// Member node indices of the components marked in `in_set` (one scan
    /// over `component_of`; only used on the removal slow paths).
    fn members_of_comps(&self, in_set: &[bool]) -> Vec<usize> {
        self.component_of
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != usize::MAX && in_set.get(c).copied().unwrap_or(false))
            .map(|(n, _)| n)
            .collect()
    }

    /// Ensures the row buffer can hold `target` components, widening the
    /// (padded) stride when needed. `comp_count` itself is the caller's to
    /// update.
    fn reserve_components(&mut self, target: usize) {
        let new_stride = crate::kernels::pad_words(target.div_ceil(64));
        if new_stride != self.stride {
            // widen every row; component indices and row order are preserved
            let mut widened = zeroed_blocks(target, new_stride, ROWS_PER_BLOCK);
            for row in 0..self.comp_count {
                let start = (row % ROWS_PER_BLOCK) * new_stride;
                widened[row / ROWS_PER_BLOCK][start..start + self.stride]
                    .copy_from_slice(self.row_words(row));
            }
            self.words = row_blocks(new_stride, widened);
            self.stride = new_stride;
        } else {
            self.words.extend_to(target * self.stride, 0);
        }
        self.cyclic.grow(target);
    }

    #[inline]
    fn row_has_bit(&self, row: usize, comp: usize) -> bool {
        self.row_words(row)[comp / 64] & (1u64 << (comp % 64)) != 0
    }

    #[inline]
    fn component_index(&self, node: NodeId) -> Option<usize> {
        self.component_of
            .get(node.index())
            .copied()
            .filter(|&c| c != usize::MAX)
    }
}

/// Iterative Tarjan restricted to a node subset: edges leaving the subset
/// are ignored. Returns the strongly connected components of the induced
/// subgraph as lists of node indices. This is the split detector for
/// intra-component removals — O(|members| + induced edges), independent of
/// the full graph size.
fn scc_of_subset<N, E>(members: &[usize], graph: &DiGraph<N, E>) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    const UNVISITED: usize = usize::MAX;
    let local: HashMap<usize, usize> = members.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = members.len();
    // local successor lists materialised once, so the iterative DFS below
    // resumes each node's scan by a plain cursor
    let succs: Vec<Vec<usize>> = members
        .iter()
        .map(|&m| {
            graph
                .successors(NodeId::from_index(m))
                .filter_map(|s| local.get(&s.index()).copied())
                .collect()
        })
        .collect();
    let mut index_of = vec![UNVISITED; n];
    let mut low_link = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut parts: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index_of[root] != UNVISITED {
            continue;
        }
        index_of[root] = next_index;
        low_link[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call_stack.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
            if let Some(&w) = succs[v].get(*cursor) {
                *cursor += 1;
                if index_of[w] == UNVISITED {
                    index_of[w] = next_index;
                    low_link[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low_link[v] = low_link[v].min(index_of[w]);
                }
                continue;
            }
            call_stack.pop();
            if let Some(&(parent, _)) = call_stack.last() {
                low_link[parent] = low_link[parent].min(low_link[v]);
            }
            if low_link[v] == index_of[v] {
                let mut part = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    part.push(members[w]);
                    if w == v {
                        break;
                    }
                }
                parts.push(part);
            }
        }
    }
    parts
}

/// One borrowed row of a [`ReachMatrix`]: the set of components reachable
/// from a node, with word-level operations so consumers can answer
/// set-shaped questions (counts, intersections) without per-node queries.
#[derive(Debug, Clone, Copy)]
pub struct ReachRow<'a> {
    matrix: &'a ReachMatrix,
    words: &'a [u64],
}

impl ReachRow<'_> {
    /// Returns `true` iff `to` is reachable from the row's origin.
    #[must_use]
    pub fn contains(&self, to: NodeId) -> bool {
        self.matrix
            .component_index(to)
            .is_some_and(|c| self.words[c / 64] & (1u64 << (c % 64)) != 0)
    }

    /// Number of reachable *nodes* (origin included): popcount over the row,
    /// weighted by component member counts.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.components()
            .map(|c| self.matrix.comp_size[c] as usize)
            .sum()
    }

    /// Number of reachable *components* (a plain popcount).
    #[must_use]
    pub fn component_count(&self) -> usize {
        crate::kernels::popcount(self.words)
    }

    /// Iterates over the reachable component indices in ascending order.
    pub fn components(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            crate::bitset::OnesInWord { word }.map(move |bit| wi * 64 + bit)
        })
    }
}

/// Reachability between node *labels*: row `a` has bit `b` set iff some
/// node labelled `a` reaches some node labelled `b` by a path of length
/// zero or more. With `label = composite_of(task)` over a workflow this is
/// composite-level workflow connectivity; with every node labelled by its
/// own index it is plain reachability between the labelled nodes.
///
/// The build is [`ReachMatrix::build_from_csr`]'s propagation with a
/// different seed: each strongly connected component's row starts as the
/// labels of its members instead of the component's own bit, so rows are
/// `label_count` bits wide whatever the graph size. A label's row is then
/// the OR of its nodes' component rows — O((V + E) · L/64) words for L
/// labels.
#[derive(Debug, Clone)]
pub struct LabelledClosure {
    /// Row-major label rows: row `a` is `words[a*stride..(a+1)*stride]`.
    words: Vec<u64>,
    /// `label_count.div_ceil(64)` padded to a multiple of
    /// [`crate::kernels::LANES`]; pad words are always zero.
    stride: usize,
}

impl LabelledClosure {
    /// Builds the label rows of `csr`, where `label_of` names the label of
    /// each live node (`None` for an unlabelled node, which still carries
    /// paths between labelled ones).
    ///
    /// # Panics
    /// Panics if `label_of` returns a label `>= label_count`.
    #[must_use]
    pub fn build(
        csr: &Csr,
        label_count: usize,
        label_of: impl Fn(NodeId) -> Option<usize>,
    ) -> Self {
        let scc = strongly_connected_components_csr(csr);
        let stride = crate::kernels::pad_words(label_count.div_ceil(64));
        // every component row in one block
        let comp_rows = propagate_closure(csr, &scc, stride, scc.len(), |comp, row| {
            for label in scc.members_of(comp).iter().filter_map(|&n| label_of(n)) {
                row[label / 64] |= 1u64 << (label % 64);
            }
        })
        .pop()
        .unwrap_or_default();
        let mut words = vec![0u64; label_count * stride];
        for comp in 0..scc.len() {
            for label in scc.members_of(comp).iter().filter_map(|&n| label_of(n)) {
                crate::kernels::or_into(
                    &mut words[label * stride..(label + 1) * stride],
                    &comp_rows[comp * stride..(comp + 1) * stride],
                );
            }
        }
        LabelledClosure { words, stride }
    }

    /// The row of `label`: bit `b` is set iff `label` reaches label `b`.
    /// Every label with a node reaches itself.
    ///
    /// # Panics
    /// Panics if `label >= label_count`.
    #[must_use]
    pub fn row(&self, label: usize) -> &[u64] {
        &self.words[label * self.stride..(label + 1) * self.stride]
    }
}

/// The closure propagation shared by [`ReachMatrix::build_from_csr`] and
/// [`LabelledClosure::build`]: over the condensation of `csr`, in reverse
/// topological order so successor rows are complete before they are
/// unioned into their predecessors, each component's `stride`-word row is
/// seeded by `seed` and then ORed with its successors' rows in place. Rows
/// are returned in blocks of `rows_per_block` rows, row-major within each.
fn propagate_closure(
    csr: &Csr,
    scc: &SccDecomposition,
    stride: usize,
    rows_per_block: usize,
    mut seed: impl FnMut(usize, &mut [u64]),
) -> Vec<Vec<u64>> {
    let condensed = condense_to_csr(csr, scc);
    let order = topological_sort_csr(&condensed).expect("condensation is always acyclic");
    let mut blocks = zeroed_blocks(scc.len(), stride, rows_per_block);
    let place = |row: usize| (row / rows_per_block, (row % rows_per_block) * stride);
    for &comp in order.iter().rev() {
        let (b, start) = place(comp.index());
        seed(comp.index(), &mut blocks[b][start..start + stride]);
        for &succ in condensed.successors(comp) {
            union_rows(
                &mut blocks,
                stride,
                place(comp.index()),
                place(succ.index()),
            );
        }
    }
    blocks
}

/// ORs the row at `src` into the row at `dst` in place, each given as
/// (block, word offset). The rows are disjoint because the condensation is
/// acyclic and self-loop free, so `split_at_mut` yields one mutable and one
/// shared slice without copying either row.
fn union_rows(
    blocks: &mut [Vec<u64>],
    stride: usize,
    (dst_block, dst): (usize, usize),
    (src_block, src): (usize, usize),
) {
    let (dst_row, src_row) = if dst_block != src_block {
        let (low, high) = (dst_block.min(src_block), dst_block.max(src_block));
        let (head, tail) = blocks.split_at_mut(high);
        let (low, high) = (&mut head[low], &mut tail[0]);
        if dst_block < src_block {
            (&mut low[dst..dst + stride], &high[src..src + stride])
        } else {
            (&mut high[dst..dst + stride], &low[src..src + stride])
        }
    } else {
        debug_assert_ne!(dst, src, "condensation rows cannot self-union");
        let block = &mut blocks[dst_block];
        if dst < src {
            let (head, tail) = block.split_at_mut(src);
            (&mut head[dst..dst + stride], &tail[..stride])
        } else {
            let (head, tail) = block.split_at_mut(dst);
            (&mut tail[..stride], &head[src..src + stride])
        }
    };
    crate::kernels::or_into(dst_row, src_row);
}

/// Computes the set of ancestors of `node` (nodes that can reach it),
/// excluding the node itself.
pub fn ancestors<N, E>(graph: &DiGraph<N, E>, node: NodeId) -> Vec<NodeId> {
    let mut nodes = crate::traversal::bfs(graph, &[node], Direction::Backward);
    nodes.retain(|&n| n != node);
    nodes.sort_unstable();
    nodes
}

/// Computes the set of descendants of `node` (nodes it can reach), excluding
/// the node itself.
pub fn descendants<N, E>(graph: &DiGraph<N, E>, node: NodeId) -> Vec<NodeId> {
    let mut nodes = crate::traversal::bfs(graph, &[node], Direction::Forward);
    nodes.retain(|&n| n != node);
    nodes.sort_unstable();
    nodes
}

/// Produces one witness path demonstrating that `to` is reachable from
/// `from`, if any. Used by the validator to explain soundness violations and
/// spurious view dependencies to users.
pub fn witness_path<N, E>(graph: &DiGraph<N, E>, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    shortest_path(graph, from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> (DiGraph<(), ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ()).unwrap();
        g.add_edge(n[0], n[2], ()).unwrap();
        g.add_edge(n[1], n[3], ()).unwrap();
        g.add_edge(n[2], n[3], ()).unwrap();
        (g, n)
    }

    #[test]
    fn reachability_in_a_diamond() {
        let (g, n) = diamond();
        let r = ReachMatrix::build(&g).unwrap();
        assert!(r.reachable(n[0], n[3]));
        assert!(r.reachable(n[0], n[0]));
        assert!(!r.reachable(n[3], n[0]));
        assert!(!r.reachable(n[1], n[2]));
        assert!(r.strictly_reachable(n[0], n[1]));
        assert!(!r.strictly_reachable(n[1], n[1]));
    }

    #[test]
    fn reachability_through_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, b, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        let r = ReachMatrix::build(&g).unwrap();
        assert!(r.reachable(a, d));
        assert!(r.reachable(b, c));
        assert!(r.reachable(c, b));
        assert!(!r.reachable(d, a));
    }

    #[test]
    fn self_queries_are_strict_only_on_cycles() {
        // a -> b -> c -> b (b and c share a cycle), c -> d
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, b, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        let r = ReachMatrix::build(&g).unwrap();
        // on-cycle nodes strictly reach themselves (regression: this used to
        // unconditionally return false)
        assert!(r.strictly_reachable(b, b));
        assert!(r.strictly_reachable(c, c));
        // off-cycle nodes do not
        assert!(!r.strictly_reachable(a, a));
        assert!(!r.strictly_reachable(d, d));
        // unknown nodes do not
        assert!(!r.strictly_reachable(NodeId::from_index(50), NodeId::from_index(50)));
    }

    #[test]
    fn unknown_nodes_are_unreachable() {
        let (g, n) = diamond();
        let r = ReachMatrix::build(&g).unwrap();
        let ghost = NodeId::from_index(77);
        assert!(!r.reachable(ghost, n[0]));
        assert!(!r.reachable(n[0], ghost));
        assert!(r.reachable_row(ghost).is_none());
        assert_eq!(r.descendant_count(ghost), 0);
    }

    #[test]
    fn descendant_count_popcounts_scc_sizes() {
        // a -> {b <-> c} -> d: a reaches 4 nodes, b reaches 3, d reaches 1
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, b, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        let r = ReachMatrix::build(&g).unwrap();
        assert_eq!(r.descendant_count(a), 4);
        assert_eq!(r.descendant_count(b), 3);
        assert_eq!(r.descendant_count(c), 3);
        assert_eq!(r.descendant_count(d), 1);
    }

    #[test]
    fn rows_expose_word_level_algebra() {
        let (g, n) = diamond();
        let r = ReachMatrix::build(&g).unwrap();
        let row = r.reachable_row(n[0]).unwrap();
        assert!(row.contains(n[3]));
        assert_eq!(row.node_count(), 4);
        assert_eq!(row.component_count(), 4);
        assert_eq!(row.components().count(), 4);
        // the row of the sink holds nothing but itself
        let sink_row = r.reachable_row(n[3]).unwrap();
        assert_eq!(
            sink_row.components().collect::<Vec<_>>(),
            [r.component_of(n[3]).unwrap()]
        );
    }

    #[test]
    fn ancestors_and_descendants() {
        let (g, n) = diamond();
        assert_eq!(ancestors(&g, n[3]), vec![n[0], n[1], n[2]]);
        assert_eq!(descendants(&g, n[0]), vec![n[1], n[2], n[3]]);
        assert_eq!(ancestors(&g, n[0]), vec![]);
        assert_eq!(descendants(&g, n[3]), vec![]);
    }

    #[test]
    fn witness_path_matches_reachability() {
        let (g, n) = diamond();
        let r = ReachMatrix::build(&g).unwrap();
        let path = witness_path(&g, n[0], n[3]).unwrap();
        assert_eq!(path.first(), Some(&n[0]));
        assert_eq!(path.last(), Some(&n[3]));
        assert!(r.reachable(n[0], n[3]));
        assert!(witness_path(&g, n[3], n[0]).is_none());
    }

    #[test]
    fn matrix_handles_more_than_64_components() {
        // a 200-node chain spans multiple row words
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<NodeId> = (0..200).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let r = ReachMatrix::build(&g).unwrap();
        assert_eq!(r.row_stride(), 200usize.div_ceil(64));
        assert!(r.reachable(nodes[0], nodes[199]));
        assert!(!r.reachable(nodes[199], nodes[0]));
        assert_eq!(r.descendant_count(nodes[0]), 200);
        assert_eq!(r.descendant_count(nodes[120]), 80);
    }

    #[test]
    fn labelled_closure_unions_members_and_paths_through_unlabelled_nodes() {
        // a -> x -> b -> c <-> d; labels a: 0, b and d: 1, c: 2, x: none
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let [a, x, b, c, d] = [(); 5].map(|()| g.add_node(()));
        for (from, to) in [(a, x), (x, b), (b, c), (c, d), (d, c)] {
            g.add_edge(from, to, ()).unwrap();
        }
        let label = |n: NodeId| [Some(0), None, Some(1), Some(2), Some(1)][n.index()];
        let closure = LabelledClosure::build(&Csr::from_graph(&g), 4, label);
        let labels_of = |row: &[u64]| (0..4).filter(|&l| row[0] >> l & 1 == 1).collect::<Vec<_>>();
        assert_eq!(labels_of(closure.row(0)), [0, 1, 2]);
        assert_eq!(labels_of(closure.row(1)), [1, 2]);
        assert_eq!(labels_of(closure.row(2)), [1, 2]);
        // a label no node carries reaches nothing, not even itself
        assert_eq!(labels_of(closure.row(3)), [] as [usize; 0]);
    }

    fn arbitrary_dag(max_nodes: usize) -> impl Strategy<Value = DiGraph<(), ()>> {
        (2..max_nodes)
            .prop_flat_map(|n| {
                let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
                (Just(n), edges)
            })
            .prop_map(|(n, raw_edges)| {
                let mut g: DiGraph<(), ()> = DiGraph::new();
                let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
                for (a, b) in raw_edges {
                    // orient edges from lower to higher index to guarantee a DAG
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    if lo != hi {
                        let _ = g.add_edge_unique(nodes[lo], nodes[hi], ());
                    }
                }
                g
            })
    }

    /// Arbitrary digraphs *including cycles*: edges keep their raw
    /// orientation, so back edges (and thus non-trivial SCCs) are common.
    fn arbitrary_digraph(max_nodes: usize) -> impl Strategy<Value = DiGraph<(), ()>> {
        (2..max_nodes)
            .prop_flat_map(|n| {
                let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
                (Just(n), edges)
            })
            .prop_map(|(n, raw_edges)| {
                let mut g: DiGraph<(), ()> = DiGraph::new();
                let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
                for (a, b) in raw_edges {
                    if a != b {
                        let _ = g.add_edge_unique(nodes[a], nodes[b], ());
                    }
                }
                g
            })
    }

    fn assert_matrix_matches_bfs(g: &DiGraph<(), ()>) {
        let r = ReachMatrix::build(g).unwrap();
        let nodes: Vec<NodeId> = g.node_ids().collect();
        for &u in &nodes {
            let reach_bfs = crate::traversal::reachable_set(g, &[u], Direction::Forward);
            let row = r.reachable_row(u).unwrap();
            for &v in &nodes {
                assert_eq!(r.reachable(u, v), reach_bfs.contains(v.index()));
                assert_eq!(row.contains(v), reach_bfs.contains(v.index()));
            }
            assert_eq!(r.descendant_count(u), reach_bfs.count_ones());
            assert_eq!(row.node_count(), reach_bfs.count_ones());
        }
    }

    /// Asserts the incrementally maintained matrix answers every query
    /// exactly like a matrix rebuilt from scratch over the same graph.
    /// (Component *numbering* may differ after cycle merges; equality is
    /// checked on the query surface, which is what consumers observe.)
    fn assert_matches_fresh_build(incremental: &ReachMatrix, g: &DiGraph<(), ()>) {
        let fresh = ReachMatrix::build(g).unwrap();
        let nodes: Vec<NodeId> = g.node_ids().collect();
        for &u in &nodes {
            for &v in &nodes {
                assert_eq!(
                    incremental.reachable(u, v),
                    fresh.reachable(u, v),
                    "reachable({u:?}, {v:?})"
                );
                assert_eq!(
                    incremental.strictly_reachable(u, v),
                    fresh.strictly_reachable(u, v),
                    "strictly_reachable({u:?}, {v:?})"
                );
            }
            assert_eq!(
                incremental.descendant_count(u),
                fresh.descendant_count(u),
                "descendant_count({u:?})"
            );
            assert_eq!(
                incremental.reachable_row(u).unwrap().node_count(),
                fresh.reachable_row(u).unwrap().node_count(),
                "row node_count({u:?})"
            );
        }
    }

    /// Removes `victim` from `g` and `m` the way a workflow spec does: a
    /// node without edges through [`ReachMatrix::remove_isolated_node`]
    /// (isolation checked while it is still in the graph), any other
    /// through [`ReachMatrix::remove_node`].
    fn remove_node_as_a_spec_does(
        g: &mut DiGraph<(), ()>,
        m: &mut ReachMatrix,
        victim: NodeId,
    ) -> DeltaOutcome {
        let isolated =
            g.predecessors(victim).next().is_none() && g.successors(victim).next().is_none();
        g.remove_node(victim).unwrap();
        if isolated {
            m.remove_isolated_node(victim).unwrap()
        } else {
            m.remove_node(g, victim).unwrap()
        }
    }

    /// A graph over `n` nodes from raw index pairs: every edge oriented
    /// low → high when `acyclic`, raw (back edges, cycles) otherwise.
    fn graph_from(
        n: usize,
        raw_edges: impl IntoIterator<Item = (usize, usize)>,
        acyclic: bool,
    ) -> DiGraph<(), ()> {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for (a, b) in raw_edges {
            let (a, b) = (a % n, b % n);
            let (from, to) = if acyclic && a > b { (b, a) } else { (a, b) };
            if from != to {
                let _ = g.add_edge_unique(nodes[from], nodes[to], ());
            }
        }
        g
    }

    /// Asserts two matrices are identical: the same rows, component of
    /// every node slot up to `node_bound`, and component sizes.
    fn assert_same_matrix(a: &ReachMatrix, b: &ReachMatrix, node_bound: usize) {
        assert_eq!(a.comp_count(), b.comp_count());
        for c in 0..a.comp_count() {
            assert_eq!(a.row_words(c), b.row_words(c), "row {c}");
            assert_eq!(a.component_size(c), b.component_size(c), "size {c}");
        }
        for n in (0..node_bound).map(NodeId::from_index) {
            assert_eq!(a.component_of(n), b.component_of(n), "{n:?}");
            assert_eq!(a.strictly_reachable(n, n), b.strictly_reachable(n, n));
        }
    }

    #[test]
    fn insert_edge_propagates_to_ancestors() {
        // chain a -> b -> c, then insert c -> d (d appended after build)
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        let mut m = ReachMatrix::build(&g).unwrap();
        let d = g.add_node(());
        let out = m.insert_node(d);
        assert_eq!(out.class, DeltaClass::MonotoneSafe);
        assert_eq!(out.dirty.count(), Some(1));
        g.add_edge(c, d, ()).unwrap();
        let out = m.insert_edge(c, d).unwrap();
        assert_eq!(out.class, DeltaClass::MonotoneSafe);
        // a, b, c rows all gained d
        assert_eq!(out.dirty.count(), Some(3));
        assert_matches_fresh_build(&m, &g);
        assert!(m.reachable(a, d));
        assert!(!m.reachable(d, a));
    }

    #[test]
    fn insert_edge_already_reachable_is_a_clean_no_op() {
        let (mut g, n) = diamond();
        let mut m = ReachMatrix::build(&g).unwrap();
        // n0 already reaches n3 through both branches
        g.add_edge(n[0], n[3], ()).unwrap();
        let out = m.insert_edge(n[0], n[3]).unwrap();
        assert_eq!(out.class, DeltaClass::MonotoneSafe);
        assert!(out.dirty.is_clean());
        assert_matches_fresh_build(&m, &g);
    }

    #[test]
    fn insert_edge_closing_a_cycle_merges_rows_locally() {
        // a -> b -> c -> d, then insert d -> b: {b, c, d} become one cycle
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let mut m = ReachMatrix::build(&g).unwrap();
        assert!(!m.strictly_reachable(nodes[2], nodes[2]));
        g.add_edge(nodes[3], nodes[1], ()).unwrap();
        let out = m.insert_edge(nodes[3], nodes[1]).unwrap();
        assert_eq!(out.class, DeltaClass::LocalRebuild);
        assert_matches_fresh_build(&m, &g);
        for &on_cycle in &nodes[1..] {
            assert!(m.strictly_reachable(on_cycle, on_cycle));
            assert_eq!(m.descendant_count(on_cycle), 3);
        }
        assert!(!m.strictly_reachable(nodes[0], nodes[0]));
        assert!(m.reachable(nodes[3], nodes[1]));
        assert!(!m.reachable(nodes[1], nodes[0]));
    }

    #[test]
    fn insert_node_widens_the_stride_past_block_boundaries() {
        // the stride is padded to 4-word (256-bit) blocks: build at 255
        // nodes, then append nodes across the 256-component boundary
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<NodeId> = (0..255).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let mut m = ReachMatrix::build(&g).unwrap();
        assert_eq!(m.row_stride(), 4);
        for _ in 0..3 {
            let fresh = g.add_node(());
            m.insert_node(fresh);
            let tail = *g
                .node_ids()
                .collect::<Vec<_>>()
                .iter()
                .rev()
                .nth(1)
                .unwrap();
            g.add_edge(tail, fresh, ()).unwrap();
            m.insert_edge(tail, fresh).unwrap();
        }
        assert_eq!(m.row_stride(), 8);
        assert!(m.reachable(nodes[0], g.node_ids().last().unwrap()));
        assert_eq!(m.descendant_count(nodes[0]), 258);
        assert_eq!(m.descendant_count(nodes[254]), 4);
    }

    #[test]
    fn small_matrices_are_padded_to_one_block() {
        let (g, _) = diamond();
        let m = ReachMatrix::build(&g).unwrap();
        assert_eq!(m.row_stride(), 4);
        for comp in 0..m.comp_count() {
            assert_eq!(m.row_words(comp).len(), 4);
        }
    }

    #[test]
    fn remove_edge_with_alternate_path_is_a_clean_no_op() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2: removing the shortcut changes
        // nothing in the closure
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<NodeId> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ()).unwrap();
        g.add_edge(n[1], n[2], ()).unwrap();
        let shortcut = g.add_edge(n[0], n[2], ()).unwrap();
        let mut m = ReachMatrix::build(&g).unwrap();
        g.remove_edge(shortcut).unwrap();
        let out = m.remove_edge(&g, n[0], n[2]).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        assert!(out.dirty.is_clean());
        assert_matches_fresh_build(&m, &g);
    }

    #[test]
    fn remove_edge_prunes_exactly_the_ancestor_rows() {
        // chain a -> b -> c -> d, remove c -> d: rows a, b, c lose d
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let edge = g.find_edge(n[2], n[3]).unwrap();
        let mut m = ReachMatrix::build(&g).unwrap();
        assert!(m.reachable(n[0], n[3]));
        g.remove_edge(edge).unwrap();
        let out = m.remove_edge(&g, n[2], n[3]).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        assert_eq!(out.dirty.count(), Some(3));
        // d's own row was untouched
        let cd = m.component_of(n[3]).unwrap();
        assert!(!out.dirty.contains(cd));
        assert_matches_fresh_build(&m, &g);
        assert!(!m.reachable(n[0], n[3]));
        assert!(m.reachable(n[0], n[2]));
    }

    #[test]
    fn remove_edge_splits_a_cycle_into_stable_and_fresh_components() {
        // a -> b -> c -> d -> b: removing d -> b un-closes the cycle
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ()).unwrap();
        g.add_edge(n[1], n[2], ()).unwrap();
        g.add_edge(n[2], n[3], ()).unwrap();
        let back = g.add_edge(n[3], n[1], ()).unwrap();
        let mut m = ReachMatrix::build(&g).unwrap();
        assert!(m.strictly_reachable(n[1], n[1]));
        let comp_count_before = m.comp_count();
        g.remove_edge(back).unwrap();
        let out = m.remove_edge(&g, n[3], n[1]).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        // the 3-member cycle split into 3 singleton components: 2 appended
        assert_eq!(m.comp_count(), comp_count_before + 2);
        assert_matches_fresh_build(&m, &g);
        for &v in &n {
            assert!(!m.strictly_reachable(v, v));
        }
        assert!(m.reachable(n[1], n[3]));
        assert!(!m.reachable(n[3], n[1]));
    }

    #[test]
    fn remove_edge_inside_a_redundant_cycle_is_clean() {
        // b <-> c with both b -> c -> b and c -> b via an extra node d:
        // b -> c, c -> d, d -> b, c -> b; removing c -> b keeps the SCC
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        g.add_edge(d, b, ()).unwrap();
        let redundant = g.add_edge(c, b, ()).unwrap();
        let mut m = ReachMatrix::build(&g).unwrap();
        g.remove_edge(redundant).unwrap();
        let out = m.remove_edge(&g, c, b).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        assert!(out.dirty.is_clean());
        assert_matches_fresh_build(&m, &g);
        assert!(m.strictly_reachable(b, b));
    }

    #[test]
    fn remove_edge_propagation_falls_back_at_a_cyclic_ancestor() {
        // c1 <-> c2 -> x -> {y, z}: removing x -> y changes x's row, and
        // the walk then meets the cycle, which the region rederive takes over
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let [c1, c2, x, y, z] = [(); 5].map(|()| g.add_node(()));
        for (from, to) in [(c1, c2), (c2, c1), (c2, x), (x, y), (x, z)] {
            g.add_edge(from, to, ()).unwrap();
        }
        let mut m = ReachMatrix::build(&g).unwrap();
        let comp_count_before = m.comp_count();
        let edge = g.find_edge(x, y).unwrap();
        g.remove_edge(edge).unwrap();
        let out = m.remove_edge(&g, x, y).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        assert_matches_fresh_build(&m, &g);
        assert_eq!(m.comp_count(), comp_count_before);
        for lost in [c1, c2, x] {
            assert!(out.dirty.contains(m.component_of(lost).unwrap()));
            assert!(!m.reachable(lost, y));
            assert!(m.reachable(lost, z));
        }
        assert!(m.strictly_reachable(c1, c1));
    }

    #[test]
    fn remove_node_leaves_a_dead_slot() {
        let (mut g, n) = diamond();
        let mut m = ReachMatrix::build(&g).unwrap();
        let comp_count_before = m.comp_count();
        g.remove_node(n[1]).unwrap();
        let out = m.remove_node(&g, n[1]).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        // indices stay stable, the slot just dies
        assert_eq!(m.comp_count(), comp_count_before);
        assert!(m.component_of(n[1]).is_none());
        assert!(!m.reachable(n[0], n[1]));
        assert!(!m.reachable(n[1], n[3]));
        assert_matches_fresh_build(&m, &g);
        // the diamond still closes through the other branch
        assert!(m.reachable(n[0], n[3]));
        assert_eq!(m.descendant_count(n[0]), 3);
    }

    #[test]
    fn task_add_remove_pairs_reuse_one_dead_row() {
        // a chain of 300 nodes spans several row blocks and a stride of
        // more than one SIMD block
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let chain: Vec<NodeId> = (0..300).map(|_| g.add_node(())).collect();
        for w in chain.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let mut m = ReachMatrix::build(&g).unwrap();
        let (count, stride) = (m.comp_count(), m.row_stride());
        for round in 0..1000 {
            let fresh = g.add_node(());
            let out = m.insert_node(fresh);
            assert_eq!(out.dirty.count(), Some(1));
            if round % 3 == 0 {
                // a wired task leaves a dead row inside the region above it
                g.add_edge(chain[round % 300], fresh, ()).unwrap();
                m.insert_edge(chain[round % 300], fresh).unwrap();
            }
            g.remove_node(fresh).unwrap();
            m.remove_node(&g, fresh).unwrap();
            // the first pair appends one row; every later one reuses it
            assert_eq!(m.comp_count(), count + 1, "round {round}");
            assert_eq!(m.row_stride(), stride, "round {round}");
        }
        assert_matches_fresh_build(&m, &g);
        // a reused slot carries no stale bit: the new node reaches nothing
        // and nothing reaches it
        let late = g.add_node(());
        m.insert_node(late);
        assert_eq!(m.comp_count(), count + 1);
        assert_eq!(m.descendant_count(late), 1);
        assert!(!m.reachable(chain[0], late));
        assert!(!m.strictly_reachable(late, late));
    }

    #[test]
    fn remove_node_from_a_cycle_redecomposes_the_survivors() {
        // a -> b, cycle b -> c -> d -> b, d -> e; removing c splits the
        // cycle into singletons and breaks a's path to d and e... except
        // b -> d? no such edge, so a keeps only b
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ()).unwrap();
        g.add_edge(n[1], n[2], ()).unwrap();
        g.add_edge(n[2], n[3], ()).unwrap();
        g.add_edge(n[3], n[1], ()).unwrap();
        g.add_edge(n[3], n[4], ()).unwrap();
        let mut m = ReachMatrix::build(&g).unwrap();
        assert_eq!(m.descendant_count(n[0]), 5);
        g.remove_node(n[2]).unwrap();
        let out = m.remove_node(&g, n[2]).unwrap();
        assert_eq!(out.class, DeltaClass::Decremental);
        assert_matches_fresh_build(&m, &g);
        assert!(!m.strictly_reachable(n[1], n[1]));
        assert!(!m.reachable(n[1], n[3]));
        assert!(m.reachable(n[3], n[1]));
        assert_eq!(m.descendant_count(n[0]), 2);
    }

    #[test]
    fn removals_reject_unknown_endpoints() {
        let (g, n) = diamond();
        let mut m = ReachMatrix::build(&g).unwrap();
        let ghost = NodeId::from_index(77);
        assert!(m.remove_edge(&g, n[0], ghost).is_err());
        assert!(m.remove_edge(&g, ghost, n[0]).is_err());
        assert!(m.remove_node(&g, ghost).is_err());
    }

    #[test]
    fn insert_edge_rejects_unknown_endpoints() {
        let (g, n) = diamond();
        let mut m = ReachMatrix::build(&g).unwrap();
        let ghost = NodeId::from_index(77);
        assert!(m.insert_edge(n[0], ghost).is_err());
        assert!(m.insert_edge(ghost, n[0]).is_err());
        assert!(m.insert_edge_in(&g, n[0], ghost).is_err());
        assert!(m.insert_edge_in(&g, ghost, n[0]).is_err());
    }

    #[test]
    fn insert_edge_in_stops_at_rows_that_hold_the_target() {
        // r -> a -> s, r -> t: inserting s -> t changes s and a only, as r
        // already reaches t; x -> s sits beside the walk and gains t too
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let [r, a, s, t, x] = [(); 5].map(|()| g.add_node(()));
        for (from, to) in [(r, a), (a, s), (r, t), (x, s)] {
            g.add_edge(from, to, ()).unwrap();
        }
        let mut m = ReachMatrix::build(&g).unwrap();
        let before = m.clone();
        g.add_edge(s, t, ()).unwrap();
        let out = m.insert_edge_in(&g, s, t).unwrap();
        assert_eq!(out.class, DeltaClass::MonotoneSafe);
        let dirty: Vec<usize> = out.dirty.ones().collect();
        let mut expected: Vec<usize> = [s, a, x].map(|n| m.component_of(n).unwrap()).to_vec();
        expected.sort_unstable();
        assert_eq!(dirty, expected);
        let cr = m.component_of(r).unwrap();
        assert_eq!(m.row_words(cr), before.row_words(cr));
        assert_matches_fresh_build(&m, &g);
    }

    #[test]
    fn insert_edge_in_falls_back_on_a_new_cycle_and_a_cyclic_ancestor() {
        // c1 <-> c2 -> x, and y apart: x -> y meets the cycle on its walk
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let [c1, c2, x, y] = [(); 4].map(|()| g.add_node(()));
        for (from, to) in [(c1, c2), (c2, c1), (c2, x)] {
            g.add_edge(from, to, ()).unwrap();
        }
        let mut m = ReachMatrix::build(&g).unwrap();
        let mut scan = m.clone();
        g.add_edge(x, y, ()).unwrap();
        let out = m.insert_edge_in(&g, x, y).unwrap();
        let reference = scan.insert_edge(x, y).unwrap();
        assert_eq!(out.class, DeltaClass::MonotoneSafe);
        assert_eq!(
            out.dirty.ones().collect::<Vec<_>>(),
            reference.dirty.ones().collect::<Vec<_>>()
        );
        assert_matches_fresh_build(&m, &g);
        // y -> c1 closes the cycle c1 -> c2 -> x -> y -> c1
        g.add_edge(y, c1, ()).unwrap();
        let out = m.insert_edge_in(&g, y, c1).unwrap();
        assert_eq!(out.class, DeltaClass::LocalRebuild);
        assert_matches_fresh_build(&m, &g);
        assert!(m.strictly_reachable(y, y));
    }

    #[test]
    fn remove_isolated_node_refuses_a_node_with_edges() {
        let (g, n) = diamond();
        let mut m = ReachMatrix::build(&g).unwrap();
        let before = m.clone();
        // n[0] reaches the others; n[3] is reached but reaches only itself,
        // which the matrix cannot tell from isolation without a column scan,
        // so only the first is refused here
        assert_eq!(
            m.remove_isolated_node(n[0]).unwrap_err(),
            GraphError::InvalidNode(n[0])
        );
        assert!(m.remove_isolated_node(NodeId::from_index(77)).is_err());
        for c in 0..m.comp_count() {
            assert_eq!(m.row_words(c), before.row_words(c));
        }
        assert_eq!(m.component_of(n[0]), before.component_of(n[0]));
    }

    proptest! {
        #[test]
        fn prop_matrix_agrees_with_bfs(g in arbitrary_dag(24)) {
            assert_matrix_matches_bfs(&g);
        }

        /// Random mutation sequences (node appends + edge inserts, cycles
        /// allowed) keep the incrementally maintained matrix bit-identical
        /// in behaviour to a from-scratch rebuild after every single step —
        /// covering the monotone-safe and SCC-merge (local-rebuild) paths.
        #[test]
        fn prop_incremental_inserts_match_rebuild(
            start in 2usize..8,
            ops in proptest::collection::vec((0usize..3, 0usize..16, 0usize..16), 1..24)
        ) {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let mut nodes: Vec<NodeId> = (0..start).map(|_| g.add_node(())).collect();
            let mut m = ReachMatrix::build(&g).unwrap();
            for (op, raw_a, raw_b) in ops {
                if op == 0 {
                    let fresh = g.add_node(());
                    let out = m.insert_node(fresh);
                    prop_assert_eq!(out.class, DeltaClass::MonotoneSafe);
                    nodes.push(fresh);
                } else {
                    // op 1 biases towards DAG edges (low -> high), op 2 keeps
                    // the raw orientation so back edges (SCC merges) occur
                    let a = raw_a % nodes.len();
                    let b = raw_b % nodes.len();
                    let (from, to) = if op == 1 && a > b { (b, a) } else { (a, b) };
                    if from == to || g.find_edge(nodes[from], nodes[to]).is_some() {
                        continue;
                    }
                    g.add_edge(nodes[from], nodes[to], ()).unwrap();
                    let out = m.insert_edge(nodes[from], nodes[to]).unwrap();
                    // dirty rows must cover every row whose content changed:
                    // spot-check through the public surface below instead of
                    // reaching into the representation
                    prop_assert!(out.class != DeltaClass::Structural);
                }
                assert_matches_fresh_build(&m, &g);
            }
        }

        /// The dirty set is sound: rows NOT marked dirty answer identically
        /// before and after the delta.
        #[test]
        fn prop_clean_rows_are_really_unchanged(
            start in 3usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10), 1..16)
        ) {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let nodes: Vec<NodeId> = (0..start).map(|_| g.add_node(())).collect();
            let mut m = ReachMatrix::build(&g).unwrap();
            for (raw_a, raw_b) in edges {
                let (a, b) = (raw_a % start, raw_b % start);
                if a == b || g.find_edge(nodes[a], nodes[b]).is_some() {
                    continue;
                }
                let before = m.clone();
                g.add_edge(nodes[a], nodes[b], ()).unwrap();
                let out = m.insert_edge(nodes[a], nodes[b]).unwrap();
                for &u in &nodes {
                    let comp = m.component_of(u).unwrap();
                    if out.dirty.contains(comp) {
                        continue;
                    }
                    for &v in &nodes {
                        prop_assert_eq!(before.reachable(u, v), m.reachable(u, v));
                        prop_assert_eq!(
                            before.strictly_reachable(u, v),
                            m.strictly_reachable(u, v)
                        );
                    }
                }
            }
        }

        /// Random *add/remove-interleaved* mutation scripts (node appends,
        /// DAG-biased and back-edge inserts, edge removals, node removals)
        /// keep the decrementally maintained matrix behaviourally identical
        /// to a from-scratch rebuild after every step — covering SCC splits,
        /// cycle un-closing, dead component slots and alternate-path no-ops.
        /// Edges go in through the graph-aware insert and nodes leave the
        /// way a workflow spec removes them, so the predecessor walk, its
        /// cycle fallbacks and isolated removals all meet removals here.
        #[test]
        fn prop_interleaved_mutations_match_rebuild(
            start in 3usize..8,
            ops in proptest::collection::vec((0usize..5, 0usize..32, 0usize..32), 1..32)
        ) {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let mut nodes: Vec<NodeId> = (0..start).map(|_| g.add_node(())).collect();
            let mut m = ReachMatrix::build(&g).unwrap();
            for (op, raw_a, raw_b) in ops {
                match op {
                    0 => {
                        let fresh = g.add_node(());
                        let rows = m.comp_count();
                        let dead = (0..rows).any(|c| m.component_size(c) == 0);
                        m.insert_node(fresh);
                        // a dead slot is reused before the matrix grows
                        prop_assert_eq!(m.comp_count(), if dead { rows } else { rows + 1 });
                        nodes.push(fresh);
                    }
                    1 | 2 => {
                        let a = raw_a % nodes.len();
                        let b = raw_b % nodes.len();
                        // op 1 biases towards DAG edges, op 2 keeps the raw
                        // orientation so cycles form (and can later split)
                        let (from, to) = if op == 1 && a > b { (b, a) } else { (a, b) };
                        if from == to || g.find_edge(nodes[from], nodes[to]).is_some() {
                            continue;
                        }
                        g.add_edge(nodes[from], nodes[to], ()).unwrap();
                        m.insert_edge_in(&g, nodes[from], nodes[to]).unwrap();
                    }
                    3 => {
                        // remove an existing edge, selected by index
                        let edges: Vec<_> = g.edge_ids().collect();
                        if edges.is_empty() {
                            continue;
                        }
                        let edge = edges[raw_a % edges.len()];
                        let (from, to) = g.edge_endpoints(edge).unwrap();
                        g.remove_edge(edge).unwrap();
                        let out = m.remove_edge(&g, from, to).unwrap();
                        prop_assert_eq!(out.class, DeltaClass::Decremental);
                    }
                    _ => {
                        // remove a node (keep at least 2 so edges stay possible)
                        if nodes.len() <= 2 {
                            continue;
                        }
                        let victim = nodes.remove(raw_a % nodes.len());
                        let out = remove_node_as_a_spec_does(&mut g, &mut m, victim);
                        prop_assert_eq!(out.class, DeltaClass::Decremental);
                    }
                }
                assert_matches_fresh_build(&m, &g);
            }
        }

        /// The decremental dirty set is sound: rows NOT marked dirty answer
        /// identically before and after each removal.
        #[test]
        fn prop_clean_rows_survive_removals_unchanged(
            start in 3usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8), 4..20),
            removals in proptest::collection::vec(0usize..32, 1..12)
        ) {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let nodes: Vec<NodeId> = (0..start).map(|_| g.add_node(())).collect();
            for (raw_a, raw_b) in edges {
                let (a, b) = (raw_a % start, raw_b % start);
                if a != b {
                    let _ = g.add_edge_unique(nodes[a], nodes[b], ());
                }
            }
            let mut m = ReachMatrix::build(&g).unwrap();
            for pick in removals {
                let existing: Vec<_> = g.edge_ids().collect();
                if existing.is_empty() {
                    break;
                }
                let edge = existing[pick % existing.len()];
                let (from, to) = g.edge_endpoints(edge).unwrap();
                let before = m.clone();
                g.remove_edge(edge).unwrap();
                let out = m.remove_edge(&g, from, to).unwrap();
                for &u in &nodes {
                    let comp = m.component_of(u).unwrap();
                    if out.dirty.contains(comp) {
                        continue;
                    }
                    for &v in &nodes {
                        prop_assert_eq!(before.reachable(u, v), m.reachable(u, v));
                        prop_assert_eq!(
                            before.strictly_reachable(u, v),
                            m.strictly_reachable(u, v)
                        );
                    }
                }
            }
        }

        /// On a DAG every edge removal is cross-SCC: the component indices
        /// stay where they were, and the dirty set is exactly the rows
        /// whose words changed — no row is marked that kept its value.
        #[test]
        fn prop_cross_scc_removal_dirties_exactly_the_changed_rows(
            g in arbitrary_dag(24),
            removals in proptest::collection::vec(0usize..64, 1..8)
        ) {
            let mut g = g;
            let mut m = ReachMatrix::build(&g).unwrap();
            for pick in removals {
                let edges: Vec<_> = g.edge_ids().collect();
                if edges.is_empty() {
                    break;
                }
                let edge = edges[pick % edges.len()];
                let (from, to) = g.edge_endpoints(edge).unwrap();
                let before = m.clone();
                g.remove_edge(edge).unwrap();
                let out = m.remove_edge(&g, from, to).unwrap();
                prop_assert_eq!(m.comp_count(), before.comp_count());
                for n in g.node_ids() {
                    prop_assert_eq!(m.component_of(n), before.component_of(n));
                }
                for c in 0..m.comp_count() {
                    prop_assert_eq!(
                        out.dirty.contains(c),
                        m.row_words(c) != before.row_words(c),
                        "row {} removing {:?} -> {:?}",
                        c,
                        from,
                        to
                    );
                }
                assert_matches_fresh_build(&m, &g);
            }
        }

        /// The graph-aware insert is the column scan with fewer reads: on
        /// random DAGs and cyclic digraphs, under scripts that also remove
        /// edges and append nodes, it leaves the same rows, components and
        /// cyclicity as [`ReachMatrix::insert_edge`] on a clone and reports
        /// the same class and dirty set — on an insert that closes no cycle,
        /// exactly the rows whose words changed.
        #[test]
        fn prop_graph_aware_insert_matches_the_scan(
            n in 3usize..24,
            raw_edges in proptest::collection::vec((0usize..24, 0usize..24), 0..40),
            acyclic in 0usize..2,
            ops in proptest::collection::vec((0usize..4, 0usize..64, 0usize..64), 1..24)
        ) {
            let mut g = graph_from(n, raw_edges, acyclic == 1);
            let mut m = ReachMatrix::build(&g).unwrap();
            let mut nodes: Vec<NodeId> = g.node_ids().collect();
            for (op, raw_a, raw_b) in ops {
                match op {
                    0 | 1 => {
                        let (a, b) = (raw_a % nodes.len(), raw_b % nodes.len());
                        // op 0 keeps DAG orientation, op 1 may close a cycle
                        let (from, to) = if op == 0 && a > b { (b, a) } else { (a, b) };
                        let (from, to) = (nodes[from], nodes[to]);
                        if from == to || g.find_edge(from, to).is_some() {
                            continue;
                        }
                        let before = m.clone();
                        let mut scan = m.clone();
                        g.add_edge(from, to, ()).unwrap();
                        let out = m.insert_edge_in(&g, from, to).unwrap();
                        let reference = scan.insert_edge(from, to).unwrap();
                        prop_assert_eq!(out.class, reference.class);
                        prop_assert_eq!(
                            out.dirty.ones().collect::<Vec<_>>(),
                            reference.dirty.ones().collect::<Vec<_>>()
                        );
                        assert_same_matrix(&m, &scan, g.node_bound());
                        if out.class == DeltaClass::MonotoneSafe {
                            for c in 0..m.comp_count() {
                                prop_assert_eq!(
                                    out.dirty.contains(c),
                                    m.row_words(c) != before.row_words(c),
                                    "row {} inserting {:?} -> {:?}",
                                    c,
                                    from,
                                    to
                                );
                            }
                        }
                    }
                    2 => {
                        let edges: Vec<_> = g.edge_ids().collect();
                        if edges.is_empty() {
                            continue;
                        }
                        let edge = edges[raw_a % edges.len()];
                        let (from, to) = g.edge_endpoints(edge).unwrap();
                        g.remove_edge(edge).unwrap();
                        m.remove_edge(&g, from, to).unwrap();
                    }
                    _ => {
                        let fresh = g.add_node(());
                        m.insert_node(fresh);
                        nodes.push(fresh);
                    }
                }
                assert_matches_fresh_build(&m, &g);
            }
        }

        /// A node without edges leaves through
        /// [`ReachMatrix::remove_isolated_node`] exactly as through
        /// [`ReachMatrix::remove_node`] — the same class, dirty set, rows,
        /// components and sizes — on DAGs and cyclic digraphs that earlier
        /// removals left with dead slots, and the next node append reuses
        /// the same slot on both.
        #[test]
        fn prop_isolated_removal_is_remove_node(
            n in 2usize..16,
            raw_edges in proptest::collection::vec((0usize..16, 0usize..16), 0..30),
            acyclic in 0usize..2,
            removals in proptest::collection::vec((0usize..2, 0usize..64), 0..6),
            extra_and_pick in (1usize..4, 0usize..64)
        ) {
            let (extra, pick) = extra_and_pick;
            let mut g = graph_from(n, raw_edges, acyclic == 1);
            let mut m = ReachMatrix::build(&g).unwrap();
            for (kind, raw) in removals {
                if kind == 0 {
                    let edges: Vec<_> = g.edge_ids().collect();
                    if let Some(&edge) = edges.get(raw % edges.len().max(1)) {
                        let (from, to) = g.edge_endpoints(edge).unwrap();
                        g.remove_edge(edge).unwrap();
                        m.remove_edge(&g, from, to).unwrap();
                    }
                } else if g.node_count() > 1 {
                    let nodes: Vec<NodeId> = g.node_ids().collect();
                    let victim = nodes[raw % nodes.len()];
                    g.remove_node(victim).unwrap();
                    m.remove_node(&g, victim).unwrap();
                }
            }
            for _ in 0..extra {
                let fresh = g.add_node(());
                m.insert_node(fresh);
            }
            let isolated: Vec<NodeId> = g
                .node_ids()
                .filter(|&v| g.predecessors(v).next().is_none() && g.successors(v).next().is_none())
                .collect();
            let victim = isolated[pick % isolated.len()];
            let mut reference = m.clone();
            g.remove_node(victim).unwrap();
            let out = m.remove_isolated_node(victim).unwrap();
            let expected = reference.remove_node(&g, victim).unwrap();
            prop_assert_eq!(out.class, expected.class);
            prop_assert_eq!(
                out.dirty.ones().collect::<Vec<_>>(),
                expected.dirty.ones().collect::<Vec<_>>()
            );
            assert_same_matrix(&m, &reference, g.node_bound());
            let late = g.add_node(());
            m.insert_node(late);
            reference.insert_node(late);
            prop_assert_eq!(m.component_of(late), reference.component_of(late));
            assert_same_matrix(&m, &reference, g.node_bound());
            assert_matches_fresh_build(&m, &g);
        }

        #[test]
        fn prop_matrix_agrees_with_bfs_on_cyclic_graphs(g in arbitrary_digraph(20)) {
            assert_matrix_matches_bfs(&g);
        }

        #[test]
        fn prop_identity_labelled_closure_is_the_matrix(g in arbitrary_digraph(20)) {
            // every node labelled by its own index: label rows are node rows
            let r = ReachMatrix::build(&g).unwrap();
            let closure = LabelledClosure::build(&Csr::from_graph(&g), g.node_bound(), |n| {
                Some(n.index())
            });
            for u in g.node_ids() {
                let row = closure.row(u.index());
                for v in g.node_ids() {
                    let bit = row[v.index() / 64] >> (v.index() % 64) & 1 == 1;
                    prop_assert_eq!(bit, r.reachable(u, v));
                }
            }
        }

        #[test]
        fn prop_strict_self_reachability_detects_cycles(g in arbitrary_digraph(16)) {
            let r = ReachMatrix::build(&g).unwrap();
            for u in g.node_ids() {
                // u strictly reaches itself iff some successor path loops back
                let on_cycle = g
                    .successors(u)
                    .any(|s| {
                        crate::traversal::reachable_set(&g, &[s], Direction::Forward)
                            .contains(u.index())
                    });
                prop_assert_eq!(r.strictly_reachable(u, u), on_cycle);
            }
        }

        #[test]
        fn prop_reachability_is_transitive(g in arbitrary_digraph(16)) {
            let r = ReachMatrix::build(&g).unwrap();
            let nodes: Vec<NodeId> = g.node_ids().collect();
            for &a in &nodes {
                for &b in &nodes {
                    if !r.reachable(a, b) { continue; }
                    for &c in &nodes {
                        if r.reachable(b, c) {
                            prop_assert!(r.reachable(a, c));
                        }
                    }
                }
            }
        }
    }

    /// Everything a reader of `(g, m)` can observe: each component's row
    /// words, each node slot's component and each node's adjacency.
    type Observed = (
        Vec<Vec<u64>>,
        Vec<Option<usize>>,
        Vec<(Vec<NodeId>, Vec<NodeId>)>,
    );

    fn observe(g: &DiGraph<(), ()>, m: &ReachMatrix) -> Observed {
        let rows = (0..m.comp_count())
            .map(|c| m.row_words(c).to_vec())
            .collect();
        let slots = (0..g.node_bound()).map(NodeId::from_index);
        let comps = slots.clone().map(|n| m.component_of(n)).collect();
        let adjacency = slots
            .map(|n| (g.successors(n).collect(), g.predecessors(n).collect()))
            .collect();
        (rows, comps, adjacency)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A clone of a graph and its matrix is independent of the
        /// original: random insert/remove scripts on the clone — DAG-biased
        /// and cycle-forming, over more nodes, edges and components than
        /// one block of slots or rows holds — keep the clone equal to a
        /// from-scratch build after every step, and leave every row,
        /// component and adjacency list of the original exactly as it was.
        #[test]
        fn prop_a_clone_evolves_independently_of_its_original(
            start in 150usize..260,
            raw_edges in proptest::collection::vec((0usize..260, 0usize..260), 400..800),
            cyclic in 0usize..2,
            ops in proptest::collection::vec((0usize..5, 0usize..4096, 0usize..4096), 1..16)
        ) {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let nodes: Vec<NodeId> = (0..start).map(|_| g.add_node(())).collect();
            for (a, b) in raw_edges {
                let (a, b) = (a % start, b % start);
                // acyclic originals orient every edge low → high
                let (from, to) = if cyclic == 0 && a > b { (b, a) } else { (a, b) };
                if from != to {
                    let _ = g.add_edge_unique(nodes[from], nodes[to], ());
                }
            }
            let m = ReachMatrix::build(&g).unwrap();
            let before = observe(&g, &m);
            let (mut g2, mut m2) = (g.clone(), m.clone());
            let mut live = nodes.clone();
            for (op, raw_a, raw_b) in ops {
                match op {
                    0 => {
                        let fresh = g2.add_node(());
                        m2.insert_node(fresh);
                        live.push(fresh);
                    }
                    1 | 2 => {
                        let a = raw_a % live.len();
                        let b = raw_b % live.len();
                        let (from, to) = if op == 1 && a > b { (b, a) } else { (a, b) };
                        if from == to || g2.find_edge(live[from], live[to]).is_some() {
                            continue;
                        }
                        g2.add_edge(live[from], live[to], ()).unwrap();
                        m2.insert_edge_in(&g2, live[from], live[to]).unwrap();
                    }
                    3 => {
                        let edges: Vec<_> = g2.edge_ids().collect();
                        if edges.is_empty() {
                            continue;
                        }
                        let edge = edges[raw_a % edges.len()];
                        let (from, to) = g2.edge_endpoints(edge).unwrap();
                        g2.remove_edge(edge).unwrap();
                        m2.remove_edge(&g2, from, to).unwrap();
                    }
                    _ => {
                        if live.len() <= 2 {
                            continue;
                        }
                        let victim = live.remove(raw_a % live.len());
                        remove_node_as_a_spec_does(&mut g2, &mut m2, victim);
                    }
                }
                assert_matches_fresh_build(&m2, &g2);
                prop_assert!(observe(&g, &m) == before, "the original changed");
            }
        }
    }
}
