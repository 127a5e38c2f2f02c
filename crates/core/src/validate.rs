//! The Workflow View Validator (paper §2.1).
//!
//! Three checks are implemented:
//!
//! * [`validate`] — the efficient check of Proposition 2.1: a view is sound
//!   if every composite task is sound, which only requires examining each
//!   composite's `T.in × T.out` pairs against the workflow reachability
//!   matrix.
//! * [`validate_by_definition`] — Definition 2.1 applied with polynomial
//!   machinery: compare view-level reachability with the existence of
//!   workflow-level paths between members of composite pairs.
//! * [`validate_naive`] — Definition 2.1 applied literally by enumerating
//!   simple paths (exponential in the worst case); only used by experiment
//!   E5 to illustrate why the paper's per-composite check matters.
//!
//! Note on Proposition 2.1: composite-level soundness *implies*
//! definition-level soundness (every view path is backed by a workflow path),
//! so [`validate`] never accepts a view that [`validate_by_definition`]
//! rejects. The converse can fail on contrived views (a composite may be
//! unsound while every view-level dependency happens to be realised through
//! other paths); the property-based tests pin down exactly this relationship.

use wolves_graph::{DirtyRows, FixedBitSet, ReachMatrix};
use wolves_workflow::{CompositeTaskId, InducedViewGraph, TaskId, WorkflowSpec, WorkflowView};

use crate::soundness::{soundness_verdict, SoundnessVerdict};

/// Soundness verdict for one composite task of a view.
#[derive(Debug, Clone)]
pub struct CompositeReport {
    /// The composite task.
    pub composite: CompositeTaskId,
    /// Name of the composite task.
    pub name: String,
    /// The detailed soundness verdict (boundary + witnesses).
    pub verdict: SoundnessVerdict,
}

/// Result of validating a view with the per-composite check
/// (Proposition 2.1).
#[derive(Debug, Clone)]
pub struct ValidationReport {
    per_composite: Vec<CompositeReport>,
}

impl ValidationReport {
    /// `true` iff every composite task is sound.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.per_composite.iter().all(|c| c.verdict.is_sound())
    }

    /// The ids of the unsound composite tasks, in view order.
    #[must_use]
    pub fn unsound_composites(&self) -> Vec<CompositeTaskId> {
        self.per_composite
            .iter()
            .filter(|c| !c.verdict.is_sound())
            .map(|c| c.composite)
            .collect()
    }

    /// Per-composite reports (sound and unsound alike).
    #[must_use]
    pub fn reports(&self) -> &[CompositeReport] {
        &self.per_composite
    }

    /// Number of composite tasks examined.
    #[must_use]
    pub fn composite_count(&self) -> usize {
        self.per_composite.len()
    }
}

/// Validates a view using Proposition 2.1: check each composite task's
/// soundness (Definition 2.3) against the workflow reachability matrix.
#[must_use]
pub fn validate(spec: &WorkflowSpec, view: &WorkflowView) -> ValidationReport {
    let per_composite = view
        .composites()
        .map(|(id, composite)| CompositeReport {
            composite: id,
            name: composite.name.clone(),
            verdict: soundness_verdict(spec, composite.members()),
        })
        .collect();
    ValidationReport { per_composite }
}

/// A pair of composite tasks whose view-level and workflow-level
/// connectivity disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DependencyMismatch {
    /// Source composite task.
    pub from: CompositeTaskId,
    /// Target composite task.
    pub to: CompositeTaskId,
}

/// Result of checking Definition 2.1 directly.
#[derive(Debug, Clone)]
pub struct DefinitionReport {
    /// Composite pairs connected in the view but not in the workflow —
    /// *spurious* dependencies that would mislead provenance analysis
    /// (e.g. composite 14 → 18 in the paper's Figure 1).
    pub spurious: Vec<DependencyMismatch>,
    /// Composite pairs connected in the workflow but not in the view —
    /// *missing* dependencies. These cannot occur for views that preserve
    /// all inter-composite edges, but imported views are checked anyway.
    pub missing: Vec<DependencyMismatch>,
}

impl DefinitionReport {
    /// `true` iff view-level and workflow-level connectivity agree exactly.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.spurious.is_empty() && self.missing.is_empty()
    }
}

/// Validates a view against Definition 2.1 using polynomial reachability
/// computations: there must be a view-level path between two composite tasks
/// iff some pair of their members is connected in the workflow.
///
/// Workflow-level connectivity between composites is derived with bitset
/// algebra over the reachability matrix's component rows instead of a
/// quadratic task-pair loop: each composite gets a *member mask* (the SCC
/// components its members occupy) and a *reach row* (the OR of its members'
/// reachability rows), and `connected(a, b)` is one word-level
/// mask-intersection `reach(a) ∩ mask(b) ≠ ∅`. Since a view partitions the
/// tasks, any member of `a` whose reachable set touches a component holding
/// a member of `b ≠ a` witnesses a workflow path between *distinct* tasks,
/// so this is exactly the pairwise ∃-path check — in
/// O(members · V/64 + composites² · V/64) word operations (mask building
/// plus one stride-wide intersection per ordered composite pair).
///
/// For repeated checks against a mutating spec, build a [`DefinitionIndex`]
/// once and [`DefinitionIndex::refresh`] it with the spec's dirty rows — the
/// index re-derives masks, rows and pair verdicts only for composites an
/// edit could have changed.
#[must_use]
pub fn validate_by_definition(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
    DefinitionIndex::new(spec, view).report(spec, view)
}

/// Incremental flavour of [`validate_by_definition`]: refreshes `index`
/// against the spec's dirty rows and returns the merged report (unchanged
/// composite pairs keep their previous workflow-connectivity verdict).
#[must_use]
pub fn validate_by_definition_incremental(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    dirty: &DirtyRows,
    index: &mut DefinitionIndex,
) -> DefinitionReport {
    index.refresh(spec, view, dirty)
}

/// Reusable state of the definition-level check: per-composite member masks
/// and unioned reach rows (flat row-major word buffers over component
/// indices) plus the derived workflow-level connectivity matrix.
///
/// The masks/rows are the expensive part at scale (O(members · V/64) to
/// build); the index keeps them across spec mutations and re-derives only
/// the composites whose member components appear in the [`DirtyRows`] set a
/// mutation reported — including [`wolves_graph::DeltaClass::Decremental`]
/// deltas, whose splits can move members to *new* component indices, so a
/// touched slot re-derives its member mask along with its reach row and its
/// pair verdicts are refreshed in both directions.
///
/// The view-level side is incremental too: each composite's member set
/// carries a fingerprint, and membership-only view edits re-derive exactly
/// the slots whose fingerprint changed instead of rebuilding the index. The
/// induced view graph and its reachability matrix are cached under an
/// induced-edge fingerprint, so a refresh whose edit did not change the
/// view-level structure skips that rebuild entirely.
#[derive(Debug, Clone)]
pub struct DefinitionIndex {
    /// The view's composites at build time, with a fingerprint of each
    /// member set — membership-only view edits (e.g. `remove_member`) are
    /// detected per slot and re-derive just that slot.
    composites: Vec<(CompositeTaskId, u64)>,
    stride: usize,
    masks: Vec<u64>,
    rows: Vec<u64>,
    /// `in_workflow[a * n + b]`: some member of composite slot `a` reaches a
    /// member of slot `b` in the workflow.
    in_workflow: Vec<bool>,
    /// Cached view-level structure (induced graph + its closure), keyed by
    /// [`induced_fingerprint`]. `None` until the first cached report.
    view_side: Option<ViewSideCache>,
}

/// Cached view-level structure of a [`DefinitionIndex`]: the induced
/// composite graph and its reachability closure, keyed by a fingerprint of
/// the induced edge set so any spec or view edit that changes the view-level
/// structure invalidates it.
#[derive(Debug, Clone)]
struct ViewSideCache {
    fingerprint: u64,
    induced: InducedViewGraph,
    reach: ReachMatrix,
}

/// SplitMix64 finaliser — used to hash structural fingerprints below.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-independent fingerprint of the view-level structure: the composite
/// id list plus the deduplicated set of induced cross-composite edges
/// (slot pairs). O(composites + dependencies) with one n²-bit scratch set.
fn induced_fingerprint(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    composites: &[(CompositeTaskId, u64)],
) -> u64 {
    let n = composites.len();
    let slot_of: std::collections::BTreeMap<CompositeTaskId, usize> = composites
        .iter()
        .enumerate()
        .map(|(slot, &(id, _))| (id, slot))
        .collect();
    let mut hash = splitmix64(n as u64);
    for (slot, &(id, _)) in composites.iter().enumerate() {
        hash ^= splitmix64(0x5EED ^ ((slot as u64) << 32) ^ id.index() as u64);
    }
    let mut seen = FixedBitSet::with_capacity(n * n);
    for (from, to) in spec.dependencies() {
        let (Some(cf), Some(ct)) = (view.composite_of(from), view.composite_of(to)) else {
            continue;
        };
        if cf == ct {
            continue;
        }
        let (Some(&sa), Some(&sb)) = (slot_of.get(&cf), slot_of.get(&ct)) else {
            continue;
        };
        if seen.insert(sa * n + sb) {
            hash ^= splitmix64((sa * n + sb) as u64);
        }
    }
    hash
}

/// FNV-1a over the member task indices: cheap detection of membership-only
/// view edits between refreshes.
fn member_fingerprint(view: &WorkflowView, composite: CompositeTaskId) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    if let Ok(composite) = view.composite(composite) {
        for &task in composite.members() {
            hash ^= task.index() as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// The view's live composites with their member fingerprints.
fn fingerprinted_composites(view: &WorkflowView) -> Vec<(CompositeTaskId, u64)> {
    view.composite_ids()
        .map(|id| (id, member_fingerprint(view, id)))
        .collect()
}

impl DefinitionIndex {
    /// Builds the index from scratch for `(spec, view)`.
    #[must_use]
    pub fn new(spec: &WorkflowSpec, view: &WorkflowView) -> Self {
        let workflow_reach = spec.reachability();
        let composites = fingerprinted_composites(view);
        let stride = workflow_reach.row_stride();
        let mut index = DefinitionIndex {
            composites,
            stride,
            masks: Vec::new(),
            rows: Vec::new(),
            in_workflow: Vec::new(),
            view_side: None,
        };
        index.masks = vec![0u64; index.composites.len() * stride];
        index.rows = vec![0u64; index.composites.len() * stride];
        for slot in 0..index.composites.len() {
            index.derive_slot(spec, view, slot);
        }
        index.in_workflow = vec![false; index.composites.len() * index.composites.len()];
        for a in 0..index.composites.len() {
            index.derive_pairs_of(a);
        }
        index
    }

    /// Refreshes the index after spec mutations whose accumulated dirty rows
    /// are `dirty` (typically `spec.take_dirty()`), then reports. Structural
    /// dirt, a change to the view's composite *id* set or a changed row
    /// stride fall back to a full rebuild; otherwise exactly the composites
    /// holding a member in a dirty component — or whose membership
    /// fingerprint changed under a view edit — get their mask, row and pair
    /// verdicts (both directions) re-derived.
    pub fn refresh(
        &mut self,
        spec: &WorkflowSpec,
        view: &WorkflowView,
        dirty: &DirtyRows,
    ) -> DefinitionReport {
        let workflow_reach = spec.reachability();
        let fresh = fingerprinted_composites(view);
        let ids_changed = fresh.len() != self.composites.len()
            || fresh
                .iter()
                .zip(&self.composites)
                .any(|(new, old)| new.0 != old.0);
        if dirty.is_all() || ids_changed || workflow_reach.row_stride() != self.stride {
            *self = DefinitionIndex::new(spec, view);
        } else {
            let mut touched_slots = Vec::new();
            for (slot, fresh_entry) in fresh.iter().enumerate() {
                let membership_changed = fresh_entry.1 != self.composites[slot].1;
                let touched = membership_changed
                    || (!dirty.is_clean()
                        && view.composite(self.composites[slot].0).is_ok_and(|c| {
                            c.members().iter().any(|&task| {
                                workflow_reach
                                    .component_of(task)
                                    .map_or(true, |comp| dirty.contains(comp))
                            })
                        }));
                if touched {
                    // decremental splits can move members to new component
                    // indices, so the mask is re-derived along with the row
                    self.masks[slot * self.stride..(slot + 1) * self.stride].fill(0);
                    self.rows[slot * self.stride..(slot + 1) * self.stride].fill(0);
                    self.derive_slot(spec, view, slot);
                    self.composites[slot].1 = fresh_entry.1;
                    touched_slots.push(slot);
                }
            }
            for &slot in &touched_slots {
                self.derive_pairs_of(slot);
            }
            if !touched_slots.is_empty() {
                // a changed mask also flips verdicts where the touched slot
                // is the *target*; untouched sources re-test those pairs
                let n = self.composites.len();
                for a in 0..n {
                    if touched_slots.contains(&a) {
                        continue;
                    }
                    let row_a = &self.rows[a * self.stride..(a + 1) * self.stride];
                    for &b in &touched_slots {
                        if a == b {
                            continue;
                        }
                        let mask_b = &self.masks[b * self.stride..(b + 1) * self.stride];
                        self.in_workflow[a * n + b] = wolves_graph::kernels::and_any(row_a, mask_b);
                    }
                }
            }
        }
        self.refresh_view_side(spec, view);
        self.report(spec, view)
    }

    /// Combines the cached workflow-level connectivity with the view-level
    /// reachability into a [`DefinitionReport`]. The view side (induced
    /// graph + closure) is taken from the fingerprint-keyed cache when it is
    /// current and recomputed on the fly otherwise — this method never
    /// mutates the index, so ad-hoc callers can hold `&self`.
    #[must_use]
    pub fn report(&self, spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
        let fingerprint = induced_fingerprint(spec, view, &self.composites);
        let fallback;
        let (induced, view_reach) = match self
            .view_side
            .as_ref()
            .filter(|cache| cache.fingerprint == fingerprint)
        {
            Some(cache) => (&cache.induced, &cache.reach),
            None => {
                let induced = view.induced_graph(spec);
                let reach =
                    ReachMatrix::build_from_csr(&wolves_graph::Csr::from_graph(&induced.graph));
                fallback = (induced, reach);
                (&fallback.0, &fallback.1)
            }
        };
        let n = self.composites.len();
        let mut spurious = Vec::new();
        let mut missing = Vec::new();
        // hoist the per-composite induced-node lookups out of the n² pair
        // loop: each node_of probes a graph node slot, and 2·n² of them
        // would dominate the scan
        let induced_nodes: Vec<_> = self
            .composites
            .iter()
            .map(|&(id, _)| induced.node_of(id))
            .collect();
        for (sa, &(a, _)) in self.composites.iter().enumerate() {
            for (sb, &(b, _)) in self.composites.iter().enumerate() {
                if sa == sb {
                    continue;
                }
                let in_view = match (induced_nodes[sa], induced_nodes[sb]) {
                    (Some(na), Some(nb)) => view_reach.reachable(na, nb),
                    _ => false,
                };
                let in_workflow = self.in_workflow[sa * n + sb];
                match (in_view, in_workflow) {
                    (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                    (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                    _ => {}
                }
            }
        }
        DefinitionReport { spurious, missing }
    }

    /// Rebuilds the view-side cache iff the induced-edge fingerprint moved;
    /// an edit that left the view-level structure alone skips the induced
    /// graph and closure rebuild entirely.
    fn refresh_view_side(&mut self, spec: &WorkflowSpec, view: &WorkflowView) {
        let fingerprint = induced_fingerprint(spec, view, &self.composites);
        if self
            .view_side
            .as_ref()
            .is_some_and(|cache| cache.fingerprint == fingerprint)
        {
            return;
        }
        let induced = view.induced_graph(spec);
        let reach = ReachMatrix::build_from_csr(&wolves_graph::Csr::from_graph(&induced.graph));
        self.view_side = Some(ViewSideCache {
            fingerprint,
            induced,
            reach,
        });
    }

    /// (Re)derives the member mask and unioned reach row of one slot.
    fn derive_slot(&mut self, spec: &WorkflowSpec, view: &WorkflowView, slot: usize) {
        let workflow_reach = spec.reachability();
        let Ok(composite) = view.composite(self.composites[slot].0) else {
            return;
        };
        let mask = &mut self.masks[slot * self.stride..(slot + 1) * self.stride];
        for &task in composite.members() {
            if let Some(comp) = workflow_reach.component_of(task) {
                mask[comp / 64] |= 1u64 << (comp % 64);
            }
        }
        let row = &mut self.rows[slot * self.stride..(slot + 1) * self.stride];
        for &task in composite.members() {
            if let Some(reach_row) = workflow_reach.reachable_row(task) {
                wolves_graph::kernels::or_into(row, reach_row.words());
            }
        }
    }

    /// Recomputes `in_workflow` for every ordered pair with `a` as the
    /// source. Pairs with `a` as the *target* are handled by the refresh
    /// loop when `a`'s mask changed.
    fn derive_pairs_of(&mut self, a: usize) {
        let n = self.composites.len();
        let row_a = &self.rows[a * self.stride..(a + 1) * self.stride];
        for b in 0..n {
            if a == b {
                continue;
            }
            let mask_b = &self.masks[b * self.stride..(b + 1) * self.stride];
            self.in_workflow[a * n + b] = wolves_graph::kernels::and_any(row_a, mask_b);
        }
    }
}

/// Validates a view against Definition 2.1 by literally enumerating simple
/// paths (no transitive-closure data structures). Exponential in the worst
/// case; refuse large inputs with `None`.
///
/// `max_nodes` bounds the size of graphs this is willing to touch.
#[must_use]
pub fn validate_naive(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    max_nodes: usize,
) -> Option<DefinitionReport> {
    if spec.task_count() > max_nodes {
        return None;
    }
    let induced = view.induced_graph(spec);
    let composites: Vec<CompositeTaskId> = view.composite_ids().collect();

    let mut spurious = Vec::new();
    let mut missing = Vec::new();
    for &a in &composites {
        for &b in &composites {
            if a == b {
                continue;
            }
            let in_view = match (induced.node_of(a), induced.node_of(b)) {
                (Some(na), Some(nb)) => path_exists_by_enumeration(&induced.graph, na, nb),
                _ => false,
            };
            let members_a: Vec<TaskId> = view
                .composite(a)
                .map(|c| c.members().iter().copied().collect())
                .unwrap_or_default();
            let members_b: Vec<TaskId> = view
                .composite(b)
                .map(|c| c.members().iter().copied().collect())
                .unwrap_or_default();
            let in_workflow = members_a.iter().any(|&t1| {
                members_b
                    .iter()
                    .any(|&t2| path_exists_by_enumeration(spec.graph(), t1, t2))
            });
            match (in_view, in_workflow) {
                (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                _ => {}
            }
        }
    }
    Some(DefinitionReport { spurious, missing })
}

/// Naive DFS path enumeration without memoisation — deliberately the
/// textbook-exponential procedure the paper warns about.
fn path_exists_by_enumeration<N, E>(
    graph: &wolves_graph::DiGraph<N, E>,
    from: wolves_graph::NodeId,
    to: wolves_graph::NodeId,
) -> bool {
    fn dfs<N, E>(
        graph: &wolves_graph::DiGraph<N, E>,
        current: wolves_graph::NodeId,
        to: wolves_graph::NodeId,
        on_path: &mut Vec<wolves_graph::NodeId>,
    ) -> bool {
        if current == to {
            return true;
        }
        // deliberately naive: the per-call collect (and the absence of any
        // memoisation) IS the E5 baseline — do not optimise this path
        for next in graph.successors(current).collect::<Vec<_>>() {
            if on_path.contains(&next) {
                continue;
            }
            on_path.push(next);
            if dfs(graph, next, to, on_path) {
                return true;
            }
            on_path.pop();
        }
        false
    }
    let mut on_path = vec![from];
    dfs(graph, from, to, &mut on_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_workflow::builder::ViewBuilder;
    use wolves_workflow::WorkflowBuilder;

    fn figure1() -> (WorkflowSpec, WorkflowView, Vec<TaskId>) {
        let mut b = WorkflowBuilder::new("phylogenomics");
        let names = [
            "Select entries",
            "Split entries",
            "Extract annotations",
            "Curate annotations",
            "Format annotations",
            "Extract sequences",
            "Create alignment",
            "Format alignment",
            "Check other annotations",
            "Process annotations",
            "Build phylo tree",
            "Display tree",
        ];
        let t: Vec<TaskId> = names.iter().map(|n| b.task(*n)).collect();
        for (from, to) in [
            (0, 1),
            (1, 2),
            (1, 5),
            (2, 3),
            (3, 4),
            (4, 10),
            (5, 6),
            (6, 7),
            (7, 10),
            (8, 9),
            (9, 10),
            (10, 11),
        ] {
            b.edge(t[from], t[to]).unwrap();
        }
        let spec = b.build().unwrap();
        let view = ViewBuilder::new(&spec, "figure1b")
            .group("13".to_owned(), vec![t[0], t[1]])
            .group("14".to_owned(), vec![t[2]])
            .group("15".to_owned(), vec![t[5]])
            .group("16".to_owned(), vec![t[3], t[6]])
            .group("17".to_owned(), vec![t[4]])
            .group("18".to_owned(), vec![t[7]])
            .group("19".to_owned(), vec![t[8], t[9], t[10], t[11]])
            .build()
            .unwrap();
        (spec, view, t)
    }

    #[test]
    fn figure1_view_is_unsound_because_of_composite_16() {
        let (spec, view, _) = figure1();
        let report = validate(&spec, &view);
        assert!(!report.is_sound());
        let unsound = report.unsound_composites();
        assert_eq!(unsound.len(), 1);
        let detail = report
            .reports()
            .iter()
            .find(|r| r.composite == unsound[0])
            .unwrap();
        assert_eq!(detail.name, "16");
        // T.in = T.out = {Curate annotations, Create alignment}; neither can
        // reach the other, so both ordered pairs are reported.
        assert_eq!(detail.verdict.witnesses.len(), 2);
    }

    #[test]
    fn figure1_definition_check_finds_the_spurious_14_to_18_dependency() {
        let (spec, view, t) = figure1();
        let report = validate_by_definition(&spec, &view);
        assert!(!report.is_sound());
        assert!(report.missing.is_empty());
        let c14 = view.composite_of(t[2]).unwrap();
        let c18 = view.composite_of(t[7]).unwrap();
        assert!(report.spurious.iter().any(|m| m.from == c14 && m.to == c18));
    }

    #[test]
    fn incremental_definition_check_tracks_an_edit_loop() {
        use wolves_workflow::SpecMutation;
        let (mut spec, view, t) = figure1();
        let _ = spec.reachability();
        let _ = spec.take_dirty();
        let mut index = DefinitionIndex::new(&spec, &view);
        let baseline = index.report(&spec, &view);
        assert_eq!(baseline.spurious.len(), 2);

        let c14 = view.composite_of(t[2]).unwrap();
        let c18 = view.composite_of(t[7]).unwrap();

        // the user repairs the workflow instead of the view: connecting
        // Curate annotations -> Create alignment realises the 14 -> 18 path
        let report = spec
            .apply(SpecMutation::AddDependency {
                from: t[3],
                to: t[6],
            })
            .unwrap();
        assert_eq!(report.class, wolves_graph::DeltaClass::MonotoneSafe);
        let dirty = spec.take_dirty();
        let refreshed = validate_by_definition_incremental(&spec, &view, &dirty, &mut index);
        assert!(!refreshed
            .spurious
            .iter()
            .any(|m| m.from == c14 && m.to == c18));
        // the unrelated 15 -> 17 spurious dependency is still reported
        assert_eq!(refreshed.spurious.len(), 1);
        let fresh = validate_by_definition(&spec, &view);
        assert_eq!(refreshed.spurious, fresh.spurious);
        assert_eq!(refreshed.missing, fresh.missing);

        // undoing the edit runs the decremental path: the refresh re-derives
        // only the touched slots and the spurious dependency reappears
        let report = spec
            .apply(SpecMutation::RemoveDependency {
                from: t[3],
                to: t[6],
            })
            .unwrap();
        assert_eq!(report.class, wolves_graph::DeltaClass::Decremental);
        let dirty = spec.take_dirty();
        assert!(!dirty.is_all());
        let reverted = index.refresh(&spec, &view, &dirty);
        assert_eq!(reverted.spurious.len(), 2);
        let fresh = validate_by_definition(&spec, &view);
        assert_eq!(reverted.spurious, fresh.spurious);
    }

    #[test]
    fn refresh_detects_membership_only_view_edits() {
        use wolves_workflow::{AtomicTask, DataDependency};
        // t0, t1, t2 with the single edge t1 -> t2; view {t0, t1} | {t2}
        let mut spec = WorkflowSpec::new("membership");
        let t: Vec<TaskId> = (0..3)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        spec.add_dependency(t[1], t[2], DataDependency::unnamed())
            .unwrap();
        let mut view = WorkflowView::from_groups(
            &spec,
            "v",
            vec![("ab".into(), vec![t[0], t[1]]), ("c".into(), vec![t[2]])],
        )
        .unwrap();
        let _ = spec.reachability();
        let _ = spec.take_dirty();
        let mut index = DefinitionIndex::new(&spec, &view);
        // dropping t1 from 'ab' keeps the composite-id set identical but
        // changes the membership: the cached rows would still claim
        // ab -> c workflow connectivity through the departed t1
        view.remove_member(t[1]).unwrap();
        let refreshed = index.refresh(&spec, &view, &spec.dirty_rows().clone());
        let fresh = validate_by_definition(&spec, &view);
        assert_eq!(refreshed.spurious, fresh.spurious);
        assert_eq!(refreshed.missing, fresh.missing);
        assert!(refreshed.missing.is_empty());
    }

    #[test]
    fn singleton_views_are_sound_under_all_checks() {
        let (spec, _, _) = figure1();
        let view = WorkflowView::singletons(&spec, "fine");
        assert!(validate(&spec, &view).is_sound());
        assert!(validate_by_definition(&spec, &view).is_sound());
        assert!(validate_naive(&spec, &view, 64).unwrap().is_sound());
    }

    #[test]
    fn naive_check_agrees_with_polynomial_definition_check() {
        let (spec, view, _) = figure1();
        let poly = validate_by_definition(&spec, &view);
        let naive = validate_naive(&spec, &view, 64).unwrap();
        assert_eq!(poly.is_sound(), naive.is_sound());
        assert_eq!(poly.spurious.len(), naive.spurious.len());
        assert_eq!(poly.missing.len(), naive.missing.len());
    }

    #[test]
    fn naive_check_refuses_oversized_inputs() {
        let (spec, view, _) = figure1();
        assert!(validate_naive(&spec, &view, 4).is_none());
    }

    #[test]
    fn proposition_2_1_soundness_implies_definition_soundness() {
        // the corrected Figure 1 view must be sound under both checks
        let (spec, view, _) = figure1();
        let (corrected, _) =
            crate::correct::correct_view(&spec, &view, &crate::correct::StrongCorrector::new())
                .unwrap();
        let prop = validate(&spec, &corrected);
        assert!(prop.is_sound());
        assert!(validate_by_definition(&spec, &corrected).is_sound());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use wolves_graph::traversal::{reachable_set, Direction};
        use wolves_workflow::{AtomicTask, DataDependency};

        /// The pre-bitset-algebra semantics of `validate_by_definition`,
        /// reimplemented on plain BFS so the comparison is independent of
        /// `ReachMatrix`: a quadratic task-pair loop for workflow-level
        /// connectivity, per-pair BFS for view-level connectivity.
        fn pairwise_reference(spec: &WorkflowSpec, view: &WorkflowView) -> DefinitionReport {
            let induced = view.induced_graph(spec);
            let composites: Vec<CompositeTaskId> = view.composite_ids().collect();
            let tasks: Vec<TaskId> = spec.task_ids().collect();
            let mut connected: BTreeSet<(CompositeTaskId, CompositeTaskId)> = BTreeSet::new();
            for &u in &tasks {
                let reach = reachable_set(spec.graph(), &[u], Direction::Forward);
                for &v in &tasks {
                    if u == v || !reach.contains(v.index()) {
                        continue;
                    }
                    let (Some(cu), Some(cv)) = (view.composite_of(u), view.composite_of(v)) else {
                        continue;
                    };
                    if cu != cv {
                        connected.insert((cu, cv));
                    }
                }
            }
            let mut spurious = Vec::new();
            let mut missing = Vec::new();
            for &a in &composites {
                for &b in &composites {
                    if a == b {
                        continue;
                    }
                    let in_view = match (induced.node_of(a), induced.node_of(b)) {
                        (Some(na), Some(nb)) => {
                            reachable_set(&induced.graph, &[na], Direction::Forward)
                                .contains(nb.index())
                        }
                        _ => false,
                    };
                    let in_workflow = connected.contains(&(a, b));
                    match (in_view, in_workflow) {
                        (true, false) => spurious.push(DependencyMismatch { from: a, to: b }),
                        (false, true) => missing.push(DependencyMismatch { from: a, to: b }),
                        _ => {}
                    }
                }
            }
            DefinitionReport { spurious, missing }
        }

        /// Arbitrary specs (DAG when `cyclic` is false, back edges permitted
        /// when true) with an arbitrary partition into composite tasks.
        fn arbitrary_spec_and_view(
            max_nodes: usize,
            cyclic: bool,
        ) -> impl Strategy<Value = (WorkflowSpec, WorkflowView)> {
            (3..max_nodes)
                .prop_flat_map(move |n| {
                    let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
                    let slots = proptest::collection::vec(0..n.div_ceil(2), n..(n + 1));
                    (Just(n), edges, slots)
                })
                .prop_map(move |(n, raw_edges, slots)| {
                    let mut spec = WorkflowSpec::new("prop");
                    let ids: Vec<TaskId> = (0..n)
                        .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
                        .collect();
                    for (a, b) in raw_edges {
                        let (from, to) = if cyclic {
                            (a, b)
                        } else {
                            // orient low → high to guarantee a DAG
                            if a < b {
                                (a, b)
                            } else {
                                (b, a)
                            }
                        };
                        if from != to {
                            let _ =
                                spec.add_dependency(ids[from], ids[to], DataDependency::unnamed());
                        }
                    }
                    let slot_count = slots.iter().copied().max().unwrap_or(0) + 1;
                    let mut buckets: Vec<Vec<TaskId>> = vec![Vec::new(); slot_count];
                    for (task, &slot) in ids.iter().zip(&slots) {
                        buckets[slot].push(*task);
                    }
                    let groups: Vec<(String, Vec<TaskId>)> = buckets
                        .into_iter()
                        .filter(|bucket| !bucket.is_empty())
                        .enumerate()
                        .map(|(index, bucket)| (format!("g{index}"), bucket))
                        .collect();
                    let view = WorkflowView::from_groups(&spec, "prop-view", groups)
                        .expect("buckets partition the tasks");
                    (spec, view)
                })
        }

        fn assert_reports_agree(spec: &WorkflowSpec, view: &WorkflowView) {
            let fast = validate_by_definition(spec, view);
            let reference = pairwise_reference(spec, view);
            assert_eq!(fast.spurious, reference.spurious);
            assert_eq!(fast.missing, reference.missing);
        }

        /// Drives a random mutation sequence through `spec.apply`, refreshing
        /// a [`DefinitionIndex`] with the accumulated dirty rows after every
        /// step and asserting the incremental report is identical to a
        /// from-scratch [`validate_by_definition`] — the epoch-incremental
        /// pipeline end to end, over all three delta classes.
        fn assert_incremental_matches_rebuild(
            spec: &mut WorkflowSpec,
            view: &WorkflowView,
            ops: Vec<(usize, usize, usize)>,
        ) {
            use wolves_workflow::SpecMutation;
            let tasks: Vec<TaskId> = spec.task_ids().collect();
            let _ = spec.reachability();
            let _ = spec.take_dirty();
            let mut index = DefinitionIndex::new(spec, view);
            for (op, raw_a, raw_b) in ops {
                let from = tasks[raw_a % tasks.len()];
                let to = tasks[raw_b % tasks.len()];
                if from == to {
                    continue;
                }
                let mutation = if op % 3 == 0 {
                    SpecMutation::RemoveDependency { from, to }
                } else {
                    // raw orientation: back edges (SCC merges and splits
                    // through later removals) are common
                    SpecMutation::AddDependency { from, to }
                };
                if spec.apply(mutation).is_err() {
                    continue; // duplicate insert or missing edge to remove
                }
                let dirty = spec.take_dirty();
                let incremental = index.refresh(spec, view, &dirty);
                let fresh = validate_by_definition(spec, view);
                assert_eq!(incremental.spurious, fresh.spurious);
                assert_eq!(incremental.missing, fresh.missing);
            }
        }

        /// Like [`assert_incremental_matches_rebuild`], but the script also
        /// mutates the *view*: spec-level task removals tracked by
        /// `remove_member`, and membership-only view edits. Exercises the
        /// decremental spec path (SCC splits, cycle un-closing) interleaved
        /// with per-slot view-side re-derivation.
        fn assert_incremental_tracks_spec_and_view_edits(
            spec: &mut WorkflowSpec,
            view: &mut WorkflowView,
            ops: Vec<(usize, usize, usize)>,
        ) {
            use wolves_workflow::SpecMutation;
            let _ = spec.reachability();
            let _ = spec.take_dirty();
            let mut index = DefinitionIndex::new(spec, view);
            for (op, raw_a, raw_b) in ops {
                let tasks: Vec<TaskId> = spec.task_ids().collect();
                if tasks.len() < 4 {
                    break;
                }
                let from = tasks[raw_a % tasks.len()];
                let to = tasks[raw_b % tasks.len()];
                match op % 6 {
                    0 => {
                        if spec
                            .apply(SpecMutation::RemoveDependency { from, to })
                            .is_err()
                        {
                            continue;
                        }
                    }
                    4 => {
                        // spec-level task removal, tracked in the view
                        if spec.apply(SpecMutation::RemoveTask { task: from }).is_err() {
                            continue;
                        }
                        let _ = view.remove_member(from);
                    }
                    5 => {
                        // membership-only view edit (no spec change)
                        if view.remove_member(from).is_err() {
                            continue;
                        }
                    }
                    _ => {
                        if from == to
                            || spec
                                .apply(SpecMutation::AddDependency { from, to })
                                .is_err()
                        {
                            continue;
                        }
                    }
                }
                let dirty = spec.take_dirty();
                let incremental = index.refresh(spec, view, &dirty);
                let fresh = validate_by_definition(spec, view);
                assert_eq!(incremental.spurious, fresh.spurious);
                assert_eq!(incremental.missing, fresh.missing);
            }
        }

        proptest! {
            #[test]
            fn prop_bitset_algebra_matches_pairwise_on_dags(
                (spec, view) in arbitrary_spec_and_view(14, false)
            ) {
                assert_reports_agree(&spec, &view);
            }

            #[test]
            fn prop_incremental_definition_check_matches_rebuild_on_dags(
                (spec, view) in arbitrary_spec_and_view(12, false),
                ops in proptest::collection::vec((0usize..3, 0usize..32, 0usize..32), 1..16)
            ) {
                let mut spec = spec;
                assert_incremental_matches_rebuild(&mut spec, &view, ops);
            }

            #[test]
            fn prop_incremental_definition_check_matches_rebuild_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(10, true),
                ops in proptest::collection::vec((0usize..3, 0usize..32, 0usize..32), 1..16)
            ) {
                let mut spec = spec;
                assert_incremental_matches_rebuild(&mut spec, &view, ops);
            }

            #[test]
            fn prop_bitset_algebra_matches_pairwise_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(12, true)
            ) {
                assert_reports_agree(&spec, &view);
            }

            #[test]
            fn prop_incremental_tracks_spec_and_view_edits_on_dags(
                (spec, view) in arbitrary_spec_and_view(12, false),
                ops in proptest::collection::vec((0usize..6, 0usize..32, 0usize..32), 1..20)
            ) {
                let (mut spec, mut view) = (spec, view);
                assert_incremental_tracks_spec_and_view_edits(&mut spec, &mut view, ops);
            }

            #[test]
            fn prop_incremental_tracks_spec_and_view_edits_on_cyclic_specs(
                (spec, view) in arbitrary_spec_and_view(10, true),
                ops in proptest::collection::vec((0usize..6, 0usize..32, 0usize..32), 1..20)
            ) {
                let (mut spec, mut view) = (spec, view);
                assert_incremental_tracks_spec_and_view_edits(&mut spec, &mut view, ops);
            }

            #[test]
            fn prop_proposition_2_1_never_accepts_what_the_definition_rejects(
                (spec, view) in arbitrary_spec_and_view(12, false)
            ) {
                // Proposition 2.1 soundness ⇒ Definition 2.1 soundness
                if validate(&spec, &view).is_sound() {
                    prop_assert!(validate_by_definition(&spec, &view).is_sound());
                }
            }
        }
    }
}
