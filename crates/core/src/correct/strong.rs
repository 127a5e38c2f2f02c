//! The strongly local optimal corrector (Definition 2.6).
//!
//! A split is *strong local optimal* when no subset of its parts is
//! combinable — a strictly stronger requirement than weak local optimality
//! (Definition 2.5): the paper's Figure 3 shows a case where no two parts are
//! combinable but four of them merge into one sound composite.
//!
//! The demo paper states that a polynomial `O(n³)` algorithm exists but
//! defers its description to the unavailable full paper. This module
//! implements a *closure-based* polynomial algorithm designed for the
//! reproduction (see `DESIGN.md` "Substitutions"):
//!
//! 1. merge combinable **pairs** until a fixpoint (as the weak corrector
//!    does), then
//! 2. for every remaining pair of parts, attempt a **boundary closure**: keep
//!    adding the parts that are forced in order to remove a violating
//!    `(input, output)` pair from the boundary — either all of the input's
//!    missing predecessors or all of the output's missing successors. Two
//!    deterministic policies (prefer-predecessors / prefer-successors) are
//!    tried. If a closure becomes sound, its parts are merged and the
//!    procedure restarts.
//!
//! Every closure terminates after at most `n` growth steps, so the whole
//! corrector is polynomial. The exhaustive verifier
//! [`crate::correct::check::is_strong_local_optimal`] is used by the test
//! suite and the quality experiment (E3) to confirm that the produced splits
//! satisfy Definition 2.6 on all evaluated instances.

use std::collections::BTreeSet;

use wolves_workflow::{TaskId, WorkflowSpec};

use crate::correct::context::{ones, or_into, SplitContext};
use crate::correct::split::Split;
use crate::correct::weak::merge_pairs_until_fixpoint;
use crate::correct::Corrector;
use crate::error::CoreError;

/// Polynomial-time corrector targeting strong local optimality.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrongCorrector;

impl StrongCorrector {
    /// Creates the corrector.
    #[must_use]
    pub fn new() -> Self {
        StrongCorrector
    }
}

/// Which side of a violating `(input, output)` pair the closure grows first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClosurePolicy {
    /// Prefer absorbing the input's missing predecessors.
    PreferPredecessors,
    /// Prefer absorbing the output's missing successors.
    PreferSuccessors,
}

impl Corrector for StrongCorrector {
    fn name(&self) -> &'static str {
        "strong-local-optimal"
    }

    fn split(&self, spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Result<Split, CoreError> {
        let ctx = SplitContext::new(spec, members);
        let parts = strong_parts(&ctx);
        Ok(Split::new(parts.iter().map(|p| ctx.tasks(p)).collect()))
    }
}

/// The strong corrector's parts of the composite behind `ctx`, as member
/// masks: pair merges to a fixpoint, then one closure merge, until no
/// closure merges. The optimal corrector bounds its search with the count.
pub(crate) fn strong_parts(ctx: &SplitContext) -> Vec<Vec<u64>> {
    let mut parts = ctx.singletons();
    loop {
        merge_pairs_until_fixpoint(ctx, &mut parts);
        if !closure_merge_once(ctx, &mut parts) {
            return parts;
        }
    }
}

/// Attempts one multi-part merge via boundary closures. Returns `true` if a
/// merge happened (in which case the caller should re-run the pair fixpoint).
fn closure_merge_once(ctx: &SplitContext, parts: &mut Vec<Vec<u64>>) -> bool {
    // member -> part, for "which part do we pull in"; parts only change
    // when a closure merges, which ends the pass
    let mut part_of = vec![0; ctx.len()];
    for (pi, part) in parts.iter().enumerate() {
        for m in ones(part) {
            part_of[m] = pi;
        }
    }
    for i in 0..parts.len() {
        for j in (i + 1)..parts.len() {
            for policy in [
                ClosurePolicy::PreferPredecessors,
                ClosurePolicy::PreferSuccessors,
            ] {
                if let Some((included, union)) = closure(ctx, parts, &part_of, [i, j], policy) {
                    // the included parts give way to their union, appended last
                    let mut pi = 0;
                    parts.retain(|_| {
                        pi += 1;
                        !included[pi - 1]
                    });
                    parts.push(union);
                    return true;
                }
            }
        }
    }
    false
}

/// Grows the union of the seed parts until it is sound or provably cannot be
/// made sound by adding more parts. On success returns which parts it
/// includes and their union.
fn closure(
    ctx: &SplitContext,
    parts: &[Vec<u64>],
    part_of: &[usize],
    seed: [usize; 2],
    policy: ClosurePolicy,
) -> Option<(Vec<bool>, Vec<u64>)> {
    let mut included = vec![false; parts.len()];
    let mut union = vec![0; ctx.words()];
    for pi in seed {
        included[pi] = true;
        or_into(&mut union, &parts[pi]);
    }
    loop {
        let Some((input, output)) = ctx.first_violation(&union) else {
            return Some((included, union));
        };
        let absorb =
            match (
                ctx.missing_preds(input, &union),
                ctx.missing_succs(output, &union),
                policy,
            ) {
                (Some(preds), Some(_), ClosurePolicy::PreferPredecessors)
                | (Some(preds), None, _) => preds,
                (Some(_), Some(succs), ClosurePolicy::PreferSuccessors)
                | (None, Some(succs), _) => succs,
                (None, None, _) => return None,
            };
        debug_assert!(
            absorb.iter().any(|&w| w != 0),
            "a boundary member always has at least one missing neighbour on its violating side"
        );
        for member in ones(&absorb) {
            let pi = part_of[member];
            if !included[pi] {
                included[pi] = true;
                or_into(&mut union, &parts[pi]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::check::{is_sound_split, is_strong_local_optimal, is_weak_local_optimal};
    use crate::correct::weak::WeakCorrector;
    use wolves_workflow::WorkflowBuilder;

    /// The reconstruction of paper Figure 3: a 12-task unsound composite
    /// where the weak corrector produces 8 parts and the strong corrector 5,
    /// merging {c, d, f, g} into one sound composite although no two of
    /// them are pairwise combinable.
    fn figure3() -> (WorkflowSpec, BTreeSet<TaskId>, Vec<TaskId>) {
        let mut builder = WorkflowBuilder::new("figure3");
        let source = builder.task("source");
        let sink = builder.task("sink");
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "m"];
        let tasks: Vec<TaskId> = names.iter().map(|n| builder.task(*n)).collect();
        let idx = |name: &str| tasks[names.iter().position(|&n| n == name).unwrap()];
        // four independent two-task chains: a->b, e->h, i->j, k->m
        for (x, y) in [("a", "b"), ("e", "h"), ("i", "j"), ("k", "m")] {
            builder.edge(source, idx(x)).unwrap();
            builder.edge(idx(x), idx(y)).unwrap();
            builder.edge(idx(y), sink).unwrap();
        }
        // the crossing component {c, d, f, g}: sound as a whole, but no pair
        // of its members is combinable
        builder.edge(source, idx("c")).unwrap();
        builder.edge(source, idx("f")).unwrap();
        builder.edge(idx("c"), idx("d")).unwrap();
        builder.edge(idx("c"), idx("g")).unwrap();
        builder.edge(idx("f"), idx("d")).unwrap();
        builder.edge(idx("f"), idx("g")).unwrap();
        builder.edge(idx("d"), sink).unwrap();
        builder.edge(idx("g"), sink).unwrap();
        let spec = builder.build().unwrap();
        let members: BTreeSet<TaskId> = tasks.iter().copied().collect();
        (spec, members, tasks)
    }

    #[test]
    fn figure3_weak_vs_strong_part_counts() {
        let (spec, members, _) = figure3();
        let weak = WeakCorrector::new().split(&spec, &members).unwrap();
        let strong = StrongCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(
            weak.part_count(),
            8,
            "weak corrector: 4 chains merged + 4 singletons"
        );
        assert_eq!(
            strong.part_count(),
            5,
            "strong corrector additionally merges {{c,d,f,g}}"
        );
        assert!(is_sound_split(&spec, &members, &weak));
        assert!(is_sound_split(&spec, &members, &strong));
        assert!(is_weak_local_optimal(&spec, &weak));
        assert!(!is_strong_local_optimal(&spec, &weak));
        assert!(is_strong_local_optimal(&spec, &strong));
    }

    #[test]
    fn figure3_strong_merges_the_crossing_component() {
        let (spec, members, tasks) = figure3();
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "m"];
        let idx = |name: &str| tasks[names.iter().position(|&n| n == name).unwrap()];
        let strong = StrongCorrector::new().split(&spec, &members).unwrap();
        let part_c = strong.part_of(idx("c")).unwrap();
        for name in ["d", "f", "g"] {
            assert!(part_c.contains(&idx(name)), "{name} must join c's part");
        }
        assert_eq!(part_c.len(), 4);
    }

    #[test]
    fn strong_equals_weak_when_no_multi_merge_exists() {
        // simple fork where weak already achieves the best local structure
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
        let members: BTreeSet<TaskId> = [a, m, c].into_iter().collect();
        let weak = WeakCorrector::new().split(&spec, &members).unwrap();
        let strong = StrongCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(weak.part_count(), strong.part_count());
        assert!(is_strong_local_optimal(&spec, &strong));
    }

    #[test]
    fn sound_composite_stays_whole() {
        let mut b = WorkflowBuilder::new("chain");
        let s = b.task("s");
        let x = b.task("x");
        let y = b.task("y");
        let t = b.task("t");
        b.chain(&[s, x, y, t]).unwrap();
        let spec = b.build().unwrap();
        let members: BTreeSet<TaskId> = [x, y].into_iter().collect();
        let split = StrongCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(split.part_count(), 1);
    }

    #[test]
    fn result_is_always_a_sound_partition() {
        let (spec, members, _) = figure3();
        let split = StrongCorrector::new().split(&spec, &members).unwrap();
        assert!(split.is_partition_of(&members));
        assert!(is_sound_split(&spec, &members, &split));
    }
}
