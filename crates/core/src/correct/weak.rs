//! The weakly local optimal corrector (Definition 2.5).
//!
//! A split is *weak local optimal* when no two of its parts are combinable.
//! The corrector starts from the finest split (every atomic task in its own
//! part — always sound) and greedily merges combinable pairs until no pair
//! can be merged, which establishes the property by construction.

use std::collections::BTreeSet;

use wolves_workflow::{TaskId, WorkflowSpec};

use crate::correct::context::{or_into, SplitContext};
use crate::correct::split::Split;
use crate::correct::Corrector;
use crate::error::CoreError;

/// Polynomial-time corrector guaranteeing weak local optimality.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeakCorrector;

impl WeakCorrector {
    /// Creates the corrector.
    #[must_use]
    pub fn new() -> Self {
        WeakCorrector
    }
}

impl Corrector for WeakCorrector {
    fn name(&self) -> &'static str {
        "weak-local-optimal"
    }

    fn split(&self, spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Result<Split, CoreError> {
        let ctx = SplitContext::new(spec, members);
        let mut parts = ctx.singletons();
        merge_pairs_until_fixpoint(&ctx, &mut parts);
        Ok(Split::new(parts.iter().map(|p| ctx.tasks(p)).collect()))
    }
}

/// Repeatedly merges the first combinable pair of parts (member masks) until
/// no pair is combinable. Each candidate union is OR'd into one reused
/// buffer.
///
/// Shared by the weak and strong correctors.
pub(crate) fn merge_pairs_until_fixpoint(ctx: &SplitContext, parts: &mut Vec<Vec<u64>>) {
    let mut union = vec![0; ctx.words()];
    'rescan: loop {
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                union.copy_from_slice(&parts[i]);
                or_into(&mut union, &parts[j]);
                if ctx.is_sound(&union) {
                    parts[i].copy_from_slice(&union);
                    parts.swap_remove(j);
                    continue 'rescan;
                }
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::check::{is_sound_split, is_weak_local_optimal};
    use wolves_workflow::WorkflowBuilder;

    /// Composite {a, b, c} over  s -> a -> b -> t,  s -> c -> t.
    fn fork() -> (WorkflowSpec, BTreeSet<TaskId>) {
        let mut b = WorkflowBuilder::new("fork");
        let s = b.task("s");
        let a = b.task("a");
        let m = b.task("b");
        let c = b.task("c");
        let t = b.task("t");
        b.edge(s, a).unwrap();
        b.edge(a, m).unwrap();
        b.edge(m, t).unwrap();
        b.edge(s, c).unwrap();
        b.edge(c, t).unwrap();
        let spec = b.build().unwrap();
        let members = [a, m, c].into_iter().collect();
        (spec, members)
    }

    #[test]
    fn weak_corrector_merges_what_it_can() {
        let (spec, members) = fork();
        let split = WeakCorrector::new().split(&spec, &members).unwrap();
        // {a, b} merge into one sound part; c stays alone
        assert_eq!(split.part_count(), 2);
        assert!(is_sound_split(&spec, &members, &split));
        assert!(is_weak_local_optimal(&spec, &split));
    }

    #[test]
    fn sound_composite_collapses_to_one_part() {
        let mut b = WorkflowBuilder::new("chain");
        let s = b.task("s");
        let x = b.task("x");
        let y = b.task("y");
        let z = b.task("z");
        let t = b.task("t");
        b.chain(&[s, x, y, z, t]).unwrap();
        let spec = b.build().unwrap();
        let members: BTreeSet<TaskId> = [x, y, z].into_iter().collect();
        let split = WeakCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(split.part_count(), 1);
        assert!(is_sound_split(&spec, &members, &split));
    }

    #[test]
    fn singleton_composite_is_returned_unchanged() {
        let (spec, members) = fork();
        let single: BTreeSet<TaskId> = [*members.iter().next().unwrap()].into_iter().collect();
        let split = WeakCorrector::new().split(&spec, &single).unwrap();
        assert_eq!(split.part_count(), 1);
        assert!(split.is_partition_of(&single));
    }

    #[test]
    fn result_is_always_a_partition() {
        let (spec, members) = fork();
        let split = WeakCorrector::new().split(&spec, &members).unwrap();
        assert!(split.is_partition_of(&members));
    }
}
