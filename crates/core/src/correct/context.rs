//! The subset-soundness oracle shared by the three correctors.
//!
//! Weak, strong and optimal correction all ask one question many times over:
//! is this subset of the composite's members sound (Definition 2.3)?
//! [`SplitContext`] answers it from per-member bit rows built once per
//! composite: the member's direct predecessors and successors inside the
//! composite, the members it reaches in the whole workflow, and whether it
//! has a predecessor or successor outside the composite.
//!
//! Members are numbered `0..len()` in ascending [`TaskId`] order. A subset
//! is a mask of [`SplitContext::words`] `u64` words, bit `i` standing for
//! member `i`; composites of more than 64 members run the same code over
//! more words. Member `i` of a subset `U` is in `U.in` iff it has a
//! predecessor outside the composite or a predecessor row bit outside `U`
//! (likewise `U.out`), and `U` is sound iff every input's reach row covers
//! the output mask.

use std::collections::BTreeSet;

use wolves_workflow::{TaskId, WorkflowSpec};

/// Masks of up to this many words (256 members) are checked without
/// allocating.
const INLINE_WORDS: usize = 4;

/// Per-member mask rows of one composite task.
#[derive(Debug)]
pub(crate) struct SplitContext {
    members: Vec<TaskId>,
    /// Words per mask and per row: `len().div_ceil(64)`.
    words: usize,
    /// Row `i` (`words` words from `i * words`): member `i`'s direct
    /// predecessors inside the composite.
    preds: Vec<u64>,
    /// Row `i`: member `i`'s direct successors inside the composite.
    succs: Vec<u64>,
    /// Row `i`: the members member `i` reaches in the workflow (paths may
    /// leave the composite), itself included.
    reach: Vec<u64>,
    /// Member has a predecessor outside the composite.
    ext_in: Vec<bool>,
    /// Member has a successor outside the composite.
    ext_out: Vec<bool>,
}

impl SplitContext {
    /// Builds the rows for the composite task with the given members.
    pub(crate) fn new(spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Self {
        let members: Vec<TaskId> = members.iter().copied().collect();
        let n = members.len();
        let words = n.div_ceil(64);
        let mut preds = vec![0; n * words];
        let mut succs = vec![0; n * words];
        let mut reach = vec![0; n * words];
        let mut ext_in = vec![false; n];
        let mut ext_out = vec![false; n];
        let reachability = spec.reachability();
        for (i, &task) in members.iter().enumerate() {
            let row = i * words..(i + 1) * words;
            for pred in spec.predecessors(task) {
                match members.binary_search(&pred) {
                    Ok(p) => set_bit(&mut preds[row.clone()], p),
                    Err(_) => ext_in[i] = true,
                }
            }
            for succ in spec.successors(task) {
                match members.binary_search(&succ) {
                    Ok(s) => set_bit(&mut succs[row.clone()], s),
                    Err(_) => ext_out[i] = true,
                }
            }
            // an unknown task reaches nothing, as in `soundness::first_witness`
            if let Some(reached) = reachability.reachable_row(task) {
                for (j, &other) in members.iter().enumerate() {
                    if reached.contains(other) {
                        set_bit(&mut reach[row.clone()], j);
                    }
                }
            }
        }
        SplitContext {
            members,
            words,
            preds,
            succs,
            reach,
            ext_in,
            ext_out,
        }
    }

    /// Number of member tasks.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Words per subset mask.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    fn row<'t>(&self, table: &'t [u64], i: usize) -> &'t [u64] {
        &table[i * self.words..(i + 1) * self.words]
    }

    /// The first `(input, output)` pair of `set` in `U.in × U.out` order
    /// (ascending member index, so ascending task id) whose input does not
    /// reach its output, or `None` if `set` is sound.
    pub(crate) fn first_violation(&self, set: &[u64]) -> Option<(usize, usize)> {
        debug_assert_eq!(set.len(), self.words);
        let mut inline = [0; INLINE_WORDS];
        let mut spilled = Vec::new();
        let outputs = if self.words <= INLINE_WORDS {
            &mut inline[..self.words]
        } else {
            spilled.resize(self.words, 0);
            &mut spilled[..]
        };
        for o in ones(set) {
            if self.ext_out[o] || escapes(self.row(&self.succs, o), set) {
                set_bit(outputs, o);
            }
        }
        let outputs = &*outputs;
        ones(set)
            .filter(|&i| self.ext_in[i] || escapes(self.row(&self.preds, i), set))
            .find_map(|i| {
                let reached = self.row(&self.reach, i);
                outputs
                    .iter()
                    .zip(reached)
                    .enumerate()
                    .find_map(|(w, (&out, &r))| {
                        let missed = out & !r;
                        (missed != 0).then(|| (i, w * 64 + missed.trailing_zeros() as usize))
                    })
            })
    }

    /// Soundness of a subset (Definition 2.3 restricted to the composite).
    pub(crate) fn is_sound(&self, set: &[u64]) -> bool {
        self.first_violation(set).is_none()
    }

    /// Member `i`'s direct predecessors inside the composite but outside
    /// `set`, or `None` if `i` also has a predecessor outside the composite
    /// (then no growth of `set` takes it out of `U.in`).
    pub(crate) fn missing_preds(&self, i: usize, set: &[u64]) -> Option<Vec<u64>> {
        (!self.ext_in[i]).then(|| and_not(self.row(&self.preds, i), set))
    }

    /// Member `i`'s direct successors inside the composite but outside
    /// `set`, or `None` if `i` also has a successor outside the composite.
    pub(crate) fn missing_succs(&self, i: usize, set: &[u64]) -> Option<Vec<u64>> {
        (!self.ext_out[i]).then(|| and_not(self.row(&self.succs, i), set))
    }

    /// The finest split: one single-member mask per member.
    pub(crate) fn singletons(&self) -> Vec<Vec<u64>> {
        (0..self.len())
            .map(|i| {
                let mut mask = vec![0; self.words];
                set_bit(&mut mask, i);
                mask
            })
            .collect()
    }

    /// The task ids of a subset mask.
    pub(crate) fn tasks(&self, set: &[u64]) -> BTreeSet<TaskId> {
        ones(set).map(|i| self.members[i]).collect()
    }
}

/// The set bits of a mask, ascending.
pub(crate) fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// `into |= from`, word by word.
pub(crate) fn or_into(into: &mut [u64], from: &[u64]) {
    for (a, &b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

fn set_bit(mask: &mut [u64], bit: usize) {
    mask[bit / 64] |= 1 << (bit % 64);
}

/// `true` iff `row` has a bit outside `set`.
fn escapes(row: &[u64], set: &[u64]) -> bool {
    row.iter().zip(set).any(|(&r, &s)| r & !s != 0)
}

fn and_not(row: &[u64], set: &[u64]) -> Vec<u64> {
    row.iter().zip(set).map(|(&r, &s)| r & !s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soundness::first_witness;
    use proptest::prelude::*;
    use wolves_workflow::{AtomicTask, DataDependency, WorkflowBuilder};

    /// s -> a -> b -> t,  s -> c -> t  (composite = {a, b, c}, members
    /// 0 = a, 1 = b, 2 = c)
    fn setup() -> (WorkflowSpec, BTreeSet<TaskId>) {
        let mut builder = WorkflowBuilder::new("ctx");
        let s = builder.task("s");
        let a = builder.task("a");
        let b = builder.task("b");
        let c = builder.task("c");
        let t = builder.task("t");
        builder.edge(s, a).unwrap();
        builder.edge(a, b).unwrap();
        builder.edge(b, t).unwrap();
        builder.edge(s, c).unwrap();
        builder.edge(c, t).unwrap();
        let spec = builder.build().unwrap();
        (spec, [a, b, c].into_iter().collect())
    }

    #[test]
    fn soundness_of_subsets() {
        let (spec, members) = setup();
        let ctx = SplitContext::new(&spec, &members);
        assert_eq!((ctx.len(), ctx.words()), (3, 1));
        // {a, b} is sound (a -> b), {a, c} and the whole set are not
        assert!(ctx.is_sound(&[0b011]));
        assert!(!ctx.is_sound(&[0b101]));
        // whole composite: in = {a, c}, out = {b, c}; a misses c first
        assert_eq!(ctx.first_violation(&[0b111]), Some((0, 2)));
        assert_eq!(ctx.tasks(&[0b101]).len(), 2);
    }

    #[test]
    fn missing_preds_and_succs() {
        let (spec, members) = setup();
        let ctx = SplitContext::new(&spec, &members);
        let only_b = [0b010];
        assert_eq!(ctx.missing_preds(1, &only_b), Some(vec![0b001]));
        assert_eq!(
            ctx.missing_preds(0, &only_b),
            None,
            "a's predecessor s is outside the composite"
        );
        assert_eq!(ctx.missing_succs(1, &only_b), None, "b feeds t");
    }

    /// A random spec over `tasks` tasks with forward edges, plus back edges
    /// when `cyclic`, and a random composite of `size` of its tasks.
    fn random_composite(
        tasks: usize,
        size: usize,
        cyclic: bool,
        seed: u64,
    ) -> (WorkflowSpec, BTreeSet<TaskId>) {
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut spec = WorkflowSpec::new("oracle");
        let ids: Vec<TaskId> = (0..tasks)
            .map(|i| spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap())
            .collect();
        for _ in 0..tasks * 2 {
            let (a, b) = (next(tasks), next(tasks));
            let (from, to) = if cyclic || a < b { (a, b) } else { (b, a) };
            if from != to {
                let _ = spec.add_dependency(ids[from], ids[to], DataDependency::unnamed());
            }
        }
        let mut pool = ids;
        let mut members = BTreeSet::new();
        while members.len() < size {
            members.insert(pool.swap_remove(next(pool.len())));
        }
        (spec, members)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The mask oracle names the same witness as the reference
        /// `soundness::first_witness`, on one- and multi-word composites.
        #[test]
        fn first_violation_matches_the_reference_witness(
            size in 1usize..=130,
            extra in 0usize..40,
            cyclic in 0u8..2,
            seed in 1u64..u64::MAX,
            subsets in proptest::collection::vec(
                proptest::collection::vec(0u64..u64::MAX, 3..4),
                8..9,
            ),
        ) {
            let (spec, members) = random_composite(size + extra, size, cyclic == 1, seed);
            let ctx = SplitContext::new(&spec, &members);
            let tail = if size % 64 == 0 { u64::MAX } else { (1 << (size % 64)) - 1 };
            for raw in subsets {
                let mut set = raw[..ctx.words()].to_vec();
                *set.last_mut().unwrap() &= tail;
                let tasks = ctx.tasks(&set);
                let expected = first_witness(&spec, &tasks).map(|w| (w.input, w.output));
                let got = ctx
                    .first_violation(&set)
                    .map(|(i, o)| (ctx.members[i], ctx.members[o]));
                prop_assert_eq!(got, expected);
            }
        }
    }
}
