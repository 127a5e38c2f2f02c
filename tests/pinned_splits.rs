//! Pins the splits of all three correctors on a seeded corpus to one
//! digest, so a rewrite of their internals must reproduce every part of
//! every split, not only the guarantees the property tests check.
//!
//! The corpus is layered DAGs of 60, 200 and 500 tasks, a third of them
//! made cyclic by back edges, grouped into composites two ways: blocks of
//! consecutive task ids and random partitions. Every unsound composite
//! (up to 100 members, at least one wider than 64) goes through the
//! weak, strong and optimal correctors; the optimal one is limited to 12
//! members to keep its exponential search quick, and its refusals of wider
//! composites are folded in too. The digest is FNV-1a over each
//! split's parts, in the split's order, as ascending task indices.

use std::collections::BTreeSet;

use wolves::core::correct::{Corrector, OptimalCorrector, StrongCorrector, WeakCorrector};
use wolves::core::soundness::is_sound;
use wolves::repo::generate::{layered_workflow, LayeredConfig};
use wolves::workflow::{DataDependency, TaskId, WorkflowSpec};

/// The digest of the corpus below, computed with the set-based correctors
/// that preceded the shared member-mask oracle.
const PINNED_DIGEST: u64 = 14_086_533_546_500_606_776;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// xorshift64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

/// The composites of one spec: blocks of `block` consecutive task ids,
/// then a random partition into `tasks / block` groups.
fn composites(spec: &WorkflowSpec, block: usize, rng: &mut Rng) -> Vec<BTreeSet<TaskId>> {
    let ids: Vec<TaskId> = spec.task_ids().collect();
    let mut groups: Vec<BTreeSet<TaskId>> = ids
        .chunks(block)
        .map(|chunk| chunk.iter().copied().collect())
        .collect();
    let mut random = vec![BTreeSet::new(); (ids.len() / block).max(1)];
    for &task in &ids {
        let group = rng.below(random.len());
        random[group].insert(task);
    }
    groups.extend(random);
    groups
}

#[test]
fn corrector_splits_match_the_pinned_digest() {
    let correctors: [&dyn Corrector; 3] = [
        &WeakCorrector::new(),
        &StrongCorrector::new(),
        &OptimalCorrector::with_limit(12),
    ];
    let mut digest = Fnv::new();
    let (mut corrected, mut widest) = (0usize, 0usize);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for (case, (tasks, block)) in [(60, 6), (200, 12), (500, 30), (60, 90), (200, 70)]
        .into_iter()
        .enumerate()
    {
        for seed in 0..3u64 {
            let mut spec = layered_workflow(&LayeredConfig::sized(tasks), 2303 + seed);
            if seed == 2 {
                // back edges from later layers close cycles
                let ids: Vec<TaskId> = spec.task_ids().collect();
                for _ in 0..tasks / 10 {
                    let (a, b) = (rng.below(ids.len()), rng.below(ids.len()));
                    if a < b {
                        let _ = spec.add_dependency(ids[b], ids[a], DataDependency::unnamed());
                    }
                }
            }
            for members in composites(&spec, block, &mut rng) {
                if members.len() > 100 || is_sound(&spec, &members) {
                    continue;
                }
                corrected += 1;
                widest = widest.max(members.len());
                digest.word(case as u64);
                for corrector in correctors {
                    match corrector.split(&spec, &members) {
                        Ok(split) => {
                            digest.word(split.part_count() as u64);
                            for part in split.parts() {
                                digest.word(part.len() as u64);
                                for task in part {
                                    digest.word(task.index() as u64);
                                }
                            }
                        }
                        Err(_) => digest.word(u64::MAX),
                    }
                }
            }
        }
    }
    assert!(
        corrected > 100,
        "the corpus corrects {corrected} composites"
    );
    assert!(widest > 64, "the widest composite has {widest} members");
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "splits changed ({corrected} composites, widest {widest})"
    );
}
