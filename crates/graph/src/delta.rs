//! Delta classification and dirty-row tracking for incremental reachability.
//!
//! Spec edits arrive as single-edge / single-node deltas. Instead of
//! rebuilding the [`crate::ReachMatrix`] from scratch on every edit, each
//! delta is classified into one of four maintenance classes
//! ([`DeltaClass`]), and the maintenance routine reports exactly which
//! matrix rows it touched as a [`DirtyRows`] bitset. Downstream consumers
//! (the serving layer's verdict caches) use the dirty set to re-check only
//! what the edit could have changed.

use crate::bitset::FixedBitSet;

/// How a single spec delta was (or must be) applied to a reachability
/// matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// The delta only *adds* reachability consistent with the existing
    /// component structure (edge insert that creates no new cycle, node
    /// append): handled by in-place row-OR propagation over the affected
    /// ancestor rows. O(ancestors × row words).
    MonotoneSafe,
    /// The delta is confined to one (new) strongly connected component:
    /// a cycle-creating edge insert merges the condensation rows on the new
    /// cycle in place — only the touched rows are re-derived, no Tarjan
    /// re-run over the full graph. O(components × row words).
    LocalRebuild,
    /// The delta shrinks reachability (edge/node removal) but was absorbed
    /// in place. An acyclic cross-component edge removal propagates the
    /// change from the source row upwards and rewrites only the rows that
    /// change, O(changed × (deg + row words)). Otherwise SCC splits are
    /// detected on the deleted edge's component only, and the rows that
    /// could reach the deleted edge's source component are re-derived in
    /// topological order, O(affected × (deg + row words)). Component
    /// indices stay stable (splits append fresh indices; emptied components
    /// become dead slots).
    Decremental,
    /// The delta could not be applied in place: the matrix is discarded and
    /// rebuilt from scratch on next use. O(V + E + V·E/64).
    Structural,
}

impl DeltaClass {
    /// Stable lowercase name (used on the service wire and in bench JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeltaClass::MonotoneSafe => "monotone-safe",
            DeltaClass::LocalRebuild => "local-rebuild",
            DeltaClass::Decremental => "decremental",
            DeltaClass::Structural => "structural",
        }
    }
}

impl std::fmt::Display for DeltaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of reachability-matrix rows (component indices) whose contents
/// changed under one or more deltas.
///
/// Inserts and acyclic cross-component edge removals mark exactly the rows
/// that changed. A removal that re-derives a region (a cyclic region, an
/// intra-SCC edge, a node) marks every region row, a superset: a marked row
/// may have kept its value, but an unmarked row never changed.
///
/// Component indices are stable across [`DeltaClass::MonotoneSafe`],
/// [`DeltaClass::LocalRebuild`] and [`DeltaClass::Decremental`] maintenance
/// (decremental splits only *append* fresh indices and never reuse old
/// ones), so dirty sets from consecutive deltas can be unioned. A
/// [`DeltaClass::Structural`] delta renumbers components wholesale; it is
/// represented by the `all` state, which absorbs everything in a union.
#[derive(Debug, Clone)]
pub struct DirtyRows {
    bits: FixedBitSet,
    all: bool,
}

impl DirtyRows {
    /// A clean set over `comp_count` rows (nothing dirty).
    #[must_use]
    pub fn clean(comp_count: usize) -> Self {
        DirtyRows {
            bits: FixedBitSet::with_capacity(comp_count),
            all: false,
        }
    }

    /// The "everything dirty" set — row identities are no longer meaningful
    /// (structural rebuild).
    #[must_use]
    pub fn all() -> Self {
        DirtyRows {
            bits: FixedBitSet::with_capacity(0),
            all: true,
        }
    }

    /// Marks one row dirty, growing the capacity as needed.
    pub fn mark(&mut self, comp: usize) {
        if self.all {
            return;
        }
        if comp >= self.bits.capacity() {
            self.bits.grow(comp + 1);
        }
        self.bits.insert(comp);
    }

    /// Collapses the set to "everything dirty".
    pub fn mark_all(&mut self) {
        self.all = true;
    }

    /// `true` when every row must be treated as dirty.
    #[must_use]
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// `true` when no row is dirty.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.all && self.bits.is_empty()
    }

    /// `true` if row `comp` is dirty (always `true` in the `all` state).
    #[must_use]
    pub fn contains(&self, comp: usize) -> bool {
        self.all || (comp < self.bits.capacity() && self.bits.contains(comp))
    }

    /// Number of dirty rows, or `None` in the `all` state.
    #[must_use]
    pub fn count(&self) -> Option<usize> {
        if self.all {
            None
        } else {
            Some(self.bits.count_ones())
        }
    }

    /// Iterates over the dirty row indices (empty iterator in the `all`
    /// state — callers must check [`DirtyRows::is_all`] first).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.ones()
    }

    /// Unions another dirty set into this one (`all` absorbs).
    pub fn union(&mut self, other: &DirtyRows) {
        if self.all {
            return;
        }
        if other.all {
            self.all = true;
            return;
        }
        if other.bits.capacity() > self.bits.capacity() {
            self.bits.grow(other.bits.capacity());
        }
        for bit in other.bits.ones() {
            self.bits.insert(bit);
        }
    }
}

/// Result of applying one delta to a [`crate::ReachMatrix`] in place.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// How the delta was applied.
    pub class: DeltaClass,
    /// The rows whose contents (or cyclicity) changed: exactly those on
    /// the insert and change-propagation paths, a superset of them when a
    /// removal re-derived a region (see [`DirtyRows`]).
    pub dirty: DirtyRows,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_contains_grow_on_demand() {
        let mut d = DirtyRows::clean(4);
        assert!(d.is_clean());
        d.mark(2);
        d.mark(100);
        assert!(d.contains(2));
        assert!(d.contains(100));
        assert!(!d.contains(3));
        assert!(!d.contains(5000));
        assert_eq!(d.count(), Some(2));
        assert_eq!(d.ones().collect::<Vec<_>>(), vec![2, 100]);
    }

    #[test]
    fn all_state_absorbs_everything() {
        let mut d = DirtyRows::all();
        assert!(d.is_all());
        assert!(d.contains(12345));
        assert_eq!(d.count(), None);
        d.mark(3); // no-op
        assert!(d.is_all());

        let mut clean = DirtyRows::clean(8);
        clean.mark(1);
        clean.union(&DirtyRows::all());
        assert!(clean.is_all());
    }

    #[test]
    fn union_merges_bits_across_capacities() {
        let mut a = DirtyRows::clean(4);
        a.mark(1);
        let mut b = DirtyRows::clean(100);
        b.mark(90);
        a.union(&b);
        assert!(a.contains(1));
        assert!(a.contains(90));
        assert_eq!(a.count(), Some(2));
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(DeltaClass::MonotoneSafe.name(), "monotone-safe");
        assert_eq!(DeltaClass::LocalRebuild.name(), "local-rebuild");
        assert_eq!(DeltaClass::Decremental.name(), "decremental");
        assert_eq!(DeltaClass::Structural.name(), "structural");
        assert_eq!(DeltaClass::Structural.to_string(), "structural");
    }
}
