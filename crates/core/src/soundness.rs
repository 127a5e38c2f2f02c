//! Soundness of composite tasks and combinability of task sets
//! (Definitions 2.2 – 2.4 of the paper).

use std::collections::BTreeSet;

use wolves_workflow::{Boundary, TaskId, WorkflowSpec};

/// A witness that a set of atomic tasks is *not* sound: an input boundary
/// task that cannot reach an output boundary task in the workflow
/// specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsoundnessWitness {
    /// The violating member of `T.in`.
    pub input: TaskId,
    /// The unreachable member of `T.out`.
    pub output: TaskId,
}

/// The soundness verdict for one set of atomic tasks.
#[derive(Debug, Clone)]
pub struct SoundnessVerdict {
    /// The boundary that was examined.
    pub boundary: Boundary,
    /// All violating `(input, output)` pairs, in deterministic order. Empty
    /// iff the set is sound.
    pub witnesses: Vec<UnsoundnessWitness>,
}

impl SoundnessVerdict {
    /// `true` iff the examined set is sound (Definition 2.3).
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// Checks whether a set of atomic tasks forms a sound composite task
/// (Definition 2.3): every member of `T.in` must reach every member of
/// `T.out` by a directed path in the workflow specification.
///
/// Sets with an empty input or output boundary are vacuously sound, as are
/// singletons (a task trivially reaches itself).
#[must_use]
pub fn is_sound(spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> bool {
    first_witness(spec, members).is_none()
}

/// Returns the first (in deterministic order) unsoundness witness, or `None`
/// if the set is sound. Cheaper than [`soundness_verdict`] when only a
/// yes/no answer plus one explanation is needed. The correctors do not call
/// it: they test many subsets of one composite against member masks built
/// once, which name the same witness as this reference.
#[must_use]
pub fn first_witness(
    spec: &WorkflowSpec,
    members: &BTreeSet<TaskId>,
) -> Option<UnsoundnessWitness> {
    witnesses(spec, &Boundary::compute(spec, members)).next()
}

/// Computes the full soundness verdict for a set of atomic tasks, listing
/// every violating `(input, output)` pair. The validator uses this to show
/// users *why* a composite task is unsound (the paper's GUI highlights the
/// offending tasks in red).
#[must_use]
pub fn soundness_verdict(spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> SoundnessVerdict {
    let boundary = Boundary::compute(spec, members);
    let witnesses = witnesses(spec, &boundary).collect();
    SoundnessVerdict {
        boundary,
        witnesses,
    }
}

/// The violating `(input, output)` pairs of `boundary`, lazily and in
/// `T.in × T.out` order: [`first_witness`] takes one, [`soundness_verdict`]
/// collects them all.
fn witnesses<'a>(
    spec: &'a WorkflowSpec,
    boundary: &'a Boundary,
) -> impl Iterator<Item = UnsoundnessWitness> + 'a {
    let reach = spec.reachability();
    boundary.inputs.iter().flat_map(move |&input| {
        // one row borrow per input; an unknown input reaches nothing
        let row = reach.reachable_row(input);
        boundary
            .outputs
            .iter()
            .filter(move |&&output| !row.is_some_and(|row| row.contains(output)))
            .map(move |&output| UnsoundnessWitness { input, output })
    })
}

/// Checks whether several disjoint task sets are *combinable*
/// (Definition 2.4): merging them into a single composite task yields a
/// sound composite.
#[must_use]
pub fn are_combinable<'a>(
    spec: &WorkflowSpec,
    sets: impl IntoIterator<Item = &'a BTreeSet<TaskId>>,
) -> bool {
    let union: BTreeSet<TaskId> = sets.into_iter().flatten().copied().collect();
    is_sound(spec, &union)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_workflow::WorkflowBuilder;

    /// The workflow of paper Figure 1(a): 12 tasks of the phylogenomic
    /// inference pipeline.
    fn figure1() -> (WorkflowSpec, Vec<TaskId>) {
        let mut b = WorkflowBuilder::new("phylogenomics");
        let names = [
            "Select entries",          // 1 (index 0)
            "Split entries",           // 2
            "Extract annotations",     // 3
            "Curate annotations",      // 4
            "Format annotations",      // 5
            "Extract sequences",       // 6
            "Create alignment",        // 7
            "Format alignment",        // 8
            "Check other annotations", // 9
            "Process annotations",     // 10
            "Build phylo tree",        // 11
            "Display tree",            // 12
        ];
        let t: Vec<TaskId> = names.iter().map(|n| b.task(*n)).collect();
        for (from, to) in [
            (0, 1),   // 1 -> 2
            (1, 2),   // 2 -> 3 annotations
            (1, 5),   // 2 -> 6 sequences
            (2, 3),   // 3 -> 4
            (3, 4),   // 4 -> 5
            (4, 10),  // 5 -> 11
            (5, 6),   // 6 -> 7
            (6, 7),   // 7 -> 8
            (7, 10),  // 8 -> 11
            (8, 9),   // 9 -> 10
            (9, 10),  // 10 -> 11
            (10, 11), // 11 -> 12
        ] {
            b.edge(t[from], t[to]).unwrap();
        }
        (b.build().unwrap(), t)
    }

    #[test]
    fn singletons_are_always_sound() {
        let (spec, t) = figure1();
        for &task in &t {
            let set: BTreeSet<TaskId> = [task].into_iter().collect();
            assert!(is_sound(&spec, &set), "singleton {task} must be sound");
        }
    }

    #[test]
    fn composite_16_of_the_paper_is_unsound() {
        // Composite task (16) of Figure 1(b) groups Curate annotations (4)
        // and Create alignment (7); there is no path 4 -> 7.
        let (spec, t) = figure1();
        let set: BTreeSet<TaskId> = [t[3], t[6]].into_iter().collect();
        assert!(!is_sound(&spec, &set));
        let witness = first_witness(&spec, &set).unwrap();
        assert_eq!(witness.input, t[3]);
        assert_eq!(witness.output, t[6]);
    }

    #[test]
    fn composite_19_of_the_paper_is_sound() {
        // Build Phylo Tree (19) groups tasks 9, 10, 11, 12; it has no
        // external outputs, so it is vacuously sound on the output side.
        let (spec, t) = figure1();
        let set: BTreeSet<TaskId> = [t[8], t[9], t[10], t[11]].into_iter().collect();
        assert!(is_sound(&spec, &set));
    }

    #[test]
    fn connected_chain_groups_are_sound() {
        let (spec, t) = figure1();
        // {3, 4, 5}: annotations processing chain
        let set: BTreeSet<TaskId> = [t[2], t[3], t[4]].into_iter().collect();
        assert!(is_sound(&spec, &set));
    }

    #[test]
    fn verdict_lists_every_violating_pair() {
        let (spec, t) = figure1();
        // {4, 7, 8}: T.in = {4, 7}, T.out = {4, 8}; 4 cannot reach 8 and 7
        // cannot reach 4, so exactly two violating pairs exist.
        let set: BTreeSet<TaskId> = [t[3], t[6], t[7]].into_iter().collect();
        let verdict = soundness_verdict(&spec, &set);
        assert!(!verdict.is_sound());
        assert_eq!(verdict.witnesses.len(), 2);
        let pairs: Vec<(TaskId, TaskId)> = verdict
            .witnesses
            .iter()
            .map(|w| (w.input, w.output))
            .collect();
        assert!(pairs.contains(&(t[3], t[7])));
        assert!(pairs.contains(&(t[6], t[3])));
    }

    #[test]
    fn combinability_follows_definition() {
        let (spec, t) = figure1();
        let a: BTreeSet<TaskId> = [t[2]].into_iter().collect(); // 3
        let b: BTreeSet<TaskId> = [t[3]].into_iter().collect(); // 4
        let c: BTreeSet<TaskId> = [t[6]].into_iter().collect(); // 7
        assert!(are_combinable(&spec, [&a, &b]));
        assert!(!are_combinable(&spec, [&b, &c]));
    }

    #[test]
    fn whole_workflow_is_vacuously_sound() {
        let (spec, t) = figure1();
        let all: BTreeSet<TaskId> = t.iter().copied().collect();
        assert!(is_sound(&spec, &all));
    }

    #[test]
    fn external_detours_do_not_rescue_soundness_in_a_dag() {
        // a -> x -> b with the set {a, b}: the definition does allow the
        // witness path a -> b to run through the external task x, but the
        // detour also puts a into T.out (edge to x) and b into T.in (edge
        // from x), and the extra pair (b, a) has no path. In a DAG this
        // always happens, so a composite whose only connections run outside
        // of it is unsound.
        let mut builder = WorkflowBuilder::new("reentrant");
        let a = builder.task("a");
        let x = builder.task("x");
        let b = builder.task("b");
        let s = builder.task("s");
        let t = builder.task("t");
        builder.edge(a, x).unwrap();
        builder.edge(x, b).unwrap();
        builder.edge(s, a).unwrap();
        builder.edge(b, t).unwrap();
        let spec = builder.build().unwrap();
        let set: BTreeSet<TaskId> = [a, b].into_iter().collect();
        assert!(!is_sound(&spec, &set));
        let witness = first_witness(&spec, &set).unwrap();
        assert_eq!((witness.input, witness.output), (b, a));
    }
}
