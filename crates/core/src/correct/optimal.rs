//! The exact (optimal) corrector.
//!
//! Splitting an unsound composite task into the *minimum* number of sound
//! composite tasks is NP-hard (Theorem 2.2 of the paper), so this corrector
//! performs an exponential search: a memoized dynamic program over bit masks
//! of the member set. It refuses composites larger than a configurable limit
//! and exists to (a) measure the quality of the polynomial correctors
//! (experiment E3) and (b) demonstrate the running-time gap (experiment E4).

use std::collections::{BTreeSet, HashMap};

use wolves_workflow::{TaskId, WorkflowSpec};

use crate::correct::context::SplitContext;
use crate::correct::split::Split;
use crate::correct::strong::strong_parts;
use crate::correct::Corrector;
use crate::error::CoreError;

/// Largest composite the one-word search keys admit, whatever `max_tasks`
/// says.
const MASK_LIMIT: usize = 60;

/// Exact minimum-split corrector (exponential time, NP-hard problem).
#[derive(Debug, Clone, Copy)]
pub struct OptimalCorrector {
    /// Largest composite (in atomic tasks) the corrector will attempt, up to
    /// 60. Larger inputs return [`CoreError::TooLargeForOptimal`].
    pub max_tasks: usize,
}

impl Default for OptimalCorrector {
    fn default() -> Self {
        OptimalCorrector { max_tasks: 18 }
    }
}

impl OptimalCorrector {
    /// Creates a corrector with the default size limit (18 tasks).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a corrector with a custom size limit (capped at 60 so masks
    /// fit into a `u64`).
    #[must_use]
    pub fn with_limit(max_tasks: usize) -> Self {
        OptimalCorrector {
            max_tasks: max_tasks.min(MASK_LIMIT),
        }
    }
}

impl Corrector for OptimalCorrector {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn split(&self, spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Result<Split, CoreError> {
        let limit = self.max_tasks.min(MASK_LIMIT);
        if members.len() > limit {
            return Err(CoreError::TooLargeForOptimal {
                tasks: members.len(),
                limit,
            });
        }
        let ctx = SplitContext::new(spec, members);
        // An upper bound from the polynomial strong corrector, on the same
        // rows, prunes the search considerably on easy instances.
        let upper_bound = strong_parts(&ctx).len();
        let mut solver = Solver {
            ctx: &ctx,
            memo: HashMap::new(),
            sound_cache: HashMap::new(),
        };
        let (_, parts) = solver.solve((1 << ctx.len()) - 1, upper_bound);
        Ok(Split::new(parts.iter().map(|&p| ctx.tasks(&[p])).collect()))
    }
}

struct Solver<'a> {
    ctx: &'a SplitContext,
    memo: HashMap<u64, (usize, Vec<u64>)>,
    sound_cache: HashMap<u64, bool>,
}

impl Solver<'_> {
    fn sound(&mut self, mask: u64) -> bool {
        if let Some(&s) = self.sound_cache.get(&mask) {
            return s;
        }
        let s = self.ctx.is_sound(&[mask]);
        self.sound_cache.insert(mask, s);
        s
    }

    /// Minimum number of sound parts partitioning `remaining`, bounded by
    /// `budget` (inclusive); returns `(count, parts)` where `count >
    /// budget` signals "no solution within budget" (parts then empty).
    fn solve(&mut self, remaining: u64, budget: usize) -> (usize, Vec<u64>) {
        if remaining == 0 {
            return (0, Vec::new());
        }
        if budget == 0 {
            return (usize::MAX, Vec::new());
        }
        if let Some((count, parts)) = self.memo.get(&remaining) {
            return (*count, parts.clone());
        }
        // quick win: the whole remainder is sound
        if self.sound(remaining) {
            let result = (1, vec![remaining]);
            self.memo.insert(remaining, result.clone());
            return result;
        }
        let lowest = remaining & remaining.wrapping_neg();
        let rest = remaining ^ lowest;
        let mut best_count = usize::MAX;
        let mut best_parts: Vec<u64> = Vec::new();
        // Enumerate every subset of `remaining` containing the lowest bit,
        // as the part that covers that member.
        let mut sub = rest;
        loop {
            let candidate = sub | lowest;
            if self.sound(candidate) {
                let inner_budget = best_count.saturating_sub(2).min(budget - 1);
                let (count, parts) = self.solve(remaining ^ candidate, inner_budget);
                if count != usize::MAX && count + 1 < best_count {
                    best_count = count + 1;
                    let mut all = vec![candidate];
                    all.extend(parts);
                    best_parts = all;
                    if best_count == 1 {
                        break;
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        // Only memoize exact results (unbounded-budget semantics); bounded
        // failures must not poison the cache.
        if best_count != usize::MAX {
            self.memo
                .insert(remaining, (best_count, best_parts.clone()));
            (best_count, best_parts)
        } else {
            (usize::MAX, Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::check::{is_sound_split, is_strong_local_optimal};
    use crate::correct::weak::WeakCorrector;
    use wolves_workflow::WorkflowBuilder;

    #[test]
    fn optimal_matches_manual_analysis_on_figure1_composite() {
        // Composite (16) of Figure 1(b) = {Curate annotations, Create
        // alignment}: the only sound split is two singletons.
        let mut b = WorkflowBuilder::new("f1");
        let t3 = b.task("3");
        let t4 = b.task("4");
        let t5 = b.task("5");
        let t6 = b.task("6");
        let t7 = b.task("7");
        let t8 = b.task("8");
        b.edge(t3, t4).unwrap();
        b.edge(t4, t5).unwrap();
        b.edge(t6, t7).unwrap();
        b.edge(t7, t8).unwrap();
        let spec = b.build().unwrap();
        let members: BTreeSet<TaskId> = [t4, t7].into_iter().collect();
        let split = OptimalCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(split.part_count(), 2);
        assert!(is_sound_split(&spec, &members, &split));
    }

    #[test]
    fn optimal_finds_the_five_part_solution_of_figure3() {
        let (spec, members) = figure3_like();
        let optimal = OptimalCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(optimal.part_count(), 5);
        assert!(is_sound_split(&spec, &members, &optimal));
        assert!(is_strong_local_optimal(&spec, &optimal));
        // and it is never worse than the polynomial correctors
        let weak = WeakCorrector::new().split(&spec, &members).unwrap();
        assert!(optimal.part_count() <= weak.part_count());
    }

    #[test]
    fn size_limit_is_enforced() {
        let mut b = WorkflowBuilder::new("big");
        let source = b.task("source");
        let mut members = BTreeSet::new();
        for i in 0..25 {
            let t = b.task(format!("t{i}"));
            b.edge(source, t).unwrap();
            members.insert(t);
        }
        let spec = b.build().unwrap();
        let err = OptimalCorrector::with_limit(10)
            .split(&spec, &members)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::TooLargeForOptimal {
                tasks: 25,
                limit: 10
            }
        ));
    }

    #[test]
    fn the_public_limit_field_cannot_pass_the_mask_width() {
        let mut b = WorkflowBuilder::new("wide");
        let source = b.task("source");
        let mut members = BTreeSet::new();
        for i in 0..65 {
            let t = b.task(format!("t{i}"));
            b.edge(source, t).unwrap();
            members.insert(t);
        }
        let spec = b.build().unwrap();
        let err = OptimalCorrector { max_tasks: 100 }
            .split(&spec, &members)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::TooLargeForOptimal {
                tasks: 65,
                limit: 60
            }
        ));
    }

    #[test]
    fn sound_composite_is_a_single_part() {
        let mut b = WorkflowBuilder::new("chain");
        let s = b.task("s");
        let x = b.task("x");
        let y = b.task("y");
        let t = b.task("t");
        b.chain(&[s, x, y, t]).unwrap();
        let spec = b.build().unwrap();
        let members: BTreeSet<TaskId> = [x, y].into_iter().collect();
        let split = OptimalCorrector::new().split(&spec, &members).unwrap();
        assert_eq!(split.part_count(), 1);
    }

    /// Same construction as the strong corrector's Figure 3 fixture.
    fn figure3_like() -> (WorkflowSpec, BTreeSet<TaskId>) {
        let mut builder = WorkflowBuilder::new("figure3");
        let source = builder.task("source");
        let sink = builder.task("sink");
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "m"];
        let tasks: Vec<TaskId> = names.iter().map(|n| builder.task(*n)).collect();
        let idx = |name: &str| tasks[names.iter().position(|&n| n == name).unwrap()];
        for (x, y) in [("a", "b"), ("e", "h"), ("i", "j"), ("k", "m")] {
            builder.edge(source, idx(x)).unwrap();
            builder.edge(idx(x), idx(y)).unwrap();
            builder.edge(idx(y), sink).unwrap();
        }
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
        (spec, members)
    }
}
