//! Correction time & quality estimation (paper §3.2, "Workflow View
//! Corrector Module").
//!
//! "To make an estimation of the execution time of correcting the current
//! workflow, we group the workflows which have been corrected in the past
//! according to their sizes and substructures, and report the average running
//! time and quality of each approach for the group that the current workflow
//! belongs to."
//!
//! The registry groups past corrections by a [`WorkloadClass`] — a bucket of
//! composite-task size and internal edge density — and answers estimation
//! queries per corrector strategy.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::time::Duration;

use parking_lot::RwLock;
use wolves_workflow::{TaskId, WorkflowSpec};

use crate::correct::Strategy;

/// The substructure group a composite task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadClass {
    /// Composite size bucket: number of atomic tasks rounded up to a power
    /// of two (1, 2, 4, 8, 16, …).
    pub size_bucket: usize,
    /// Internal density decile (0–10): internal edges relative to the
    /// densest possible DAG on the same members.
    pub density_decile: usize,
}

impl WorkloadClass {
    /// Classifies a composite task of `spec` with the given members.
    #[must_use]
    pub fn classify(spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Self {
        let n = members.len();
        let size_bucket = n.max(1).next_power_of_two();
        let internal_edges = spec
            .dependencies()
            .filter(|(a, b)| members.contains(a) && members.contains(b))
            .count();
        let max_edges = if n < 2 { 1 } else { n * (n - 1) / 2 };
        let density = internal_edges as f64 / max_edges as f64;
        let density_decile = ((density * 10.0).round() as usize).min(10);
        WorkloadClass {
            size_bucket,
            density_decile,
        }
    }
}

/// One recorded correction.
#[derive(Debug, Clone, Copy)]
pub struct CorrectionSample {
    /// Which corrector produced the sample.
    pub strategy: Strategy,
    /// Wall-clock time of the split.
    pub elapsed: Duration,
    /// Quality of the produced split (1.0 when unknown / assumed optimal).
    pub quality: f64,
}

/// Aggregate estimate for one (class, strategy) group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Average running time over the recorded samples.
    pub avg_elapsed: Duration,
    /// Average quality over the recorded samples.
    pub avg_quality: f64,
    /// Number of samples backing the estimate.
    pub samples: usize,
}

/// Thread-safe registry of past corrections, grouped by workload class.
#[derive(Debug, Default)]
pub struct EstimationRegistry {
    groups: RwLock<BTreeMap<(WorkloadClass, &'static str), Vec<CorrectionSample>>>,
}

impl EstimationRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one correction outcome for the given workload class.
    pub fn record(&self, class: WorkloadClass, sample: CorrectionSample) {
        self.groups
            .write()
            .entry((class, sample.strategy.name()))
            .or_default()
            .push(sample);
    }

    /// Number of samples stored across all groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.read().values().map(Vec::len).sum()
    }

    /// `true` if nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the estimate for a workload class and strategy, if samples
    /// exist for that exact class. When the exact class has no samples, the
    /// nearest class (by size bucket, then density) with samples for the
    /// strategy is used; `None` only when the strategy was never recorded.
    #[must_use]
    pub fn estimate(&self, class: WorkloadClass, strategy: Strategy) -> Option<Estimate> {
        let groups = self.groups.read();
        // exact match first
        if let Some(samples) = groups.get(&(class, strategy.name())) {
            return Some(summarise(samples));
        }
        // fall back to the nearest recorded class for the same strategy
        let mut best: Option<(u64, &Vec<CorrectionSample>)> = None;
        for ((other, name), samples) in groups.iter() {
            if *name != strategy.name() || samples.is_empty() {
                continue;
            }
            let size_distance =
                (other.size_bucket as i64 - class.size_bucket as i64).unsigned_abs();
            let density_distance =
                (other.density_decile as i64 - class.density_decile as i64).unsigned_abs();
            let distance = size_distance * 100 + density_distance;
            if best.map_or(true, |(d, _)| distance < d) {
                best = Some((distance, samples));
            }
        }
        best.map(|(_, samples)| summarise(samples))
    }

    /// Produces estimates for all strategies at once — what the demo GUI
    /// shows next to the "Correct View" menu so users can pick an approach.
    #[must_use]
    pub fn estimate_all(&self, class: WorkloadClass) -> BTreeMap<&'static str, Estimate> {
        Strategy::ALL
            .iter()
            .filter_map(|&s| self.estimate(class, s).map(|e| (s.name(), e)))
            .collect()
    }
}

fn summarise(samples: &[CorrectionSample]) -> Estimate {
    let count = samples.len().max(1);
    let total_time: Duration = samples.iter().map(|s| s.elapsed).sum();
    let total_quality: f64 = samples.iter().map(|s| s.quality).sum();
    Estimate {
        avg_elapsed: total_time / count as u32,
        avg_quality: total_quality / count as f64,
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_workflow::WorkflowBuilder;

    fn sample(strategy: Strategy, micros: u64, quality: f64) -> CorrectionSample {
        CorrectionSample {
            strategy,
            elapsed: Duration::from_micros(micros),
            quality,
        }
    }

    #[test]
    fn classify_buckets_by_size_and_density() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.task("a");
        let c = b.task("b");
        let d = b.task("c");
        b.chain(&[a, c, d]).unwrap();
        let spec = b.build().unwrap();
        let members: BTreeSet<TaskId> = [a, c, d].into_iter().collect();
        let class = WorkloadClass::classify(&spec, &members);
        assert_eq!(class.size_bucket, 4);
        // 2 internal edges out of 3 possible -> density ~0.67 -> decile 7
        assert_eq!(class.density_decile, 7);
    }

    #[test]
    fn exact_estimates_average_recorded_samples() {
        let registry = EstimationRegistry::new();
        let class = WorkloadClass {
            size_bucket: 8,
            density_decile: 3,
        };
        registry.record(class, sample(Strategy::Weak, 100, 0.5));
        registry.record(class, sample(Strategy::Weak, 300, 0.7));
        let estimate = registry.estimate(class, Strategy::Weak).unwrap();
        assert_eq!(estimate.samples, 2);
        assert_eq!(estimate.avg_elapsed, Duration::from_micros(200));
        assert!((estimate.avg_quality - 0.6).abs() < 1e-9);
        assert!(registry.estimate(class, Strategy::Optimal).is_none());
    }

    #[test]
    fn nearest_class_fallback() {
        let registry = EstimationRegistry::new();
        let near = WorkloadClass {
            size_bucket: 8,
            density_decile: 3,
        };
        let far = WorkloadClass {
            size_bucket: 64,
            density_decile: 9,
        };
        registry.record(near, sample(Strategy::Strong, 50, 0.9));
        registry.record(far, sample(Strategy::Strong, 5000, 0.8));
        let query = WorkloadClass {
            size_bucket: 16,
            density_decile: 4,
        };
        let estimate = registry.estimate(query, Strategy::Strong).unwrap();
        assert_eq!(estimate.avg_elapsed, Duration::from_micros(50));
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        // the registry is shared behind a lock: many threads record
        // correction outcomes while others ask for estimates.
        // No sample may be lost, and the observable sample count must only
        // ever grow.
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 200;
        let registry = EstimationRegistry::new();
        let class_of = |w: usize| WorkloadClass {
            size_bucket: 1 << (w % 4),
            density_decile: w % 10,
        };
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let registry = &registry;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        registry.record(
                            class_of(writer),
                            sample(Strategy::ALL[i % 3], i as u64 + 1, 0.5),
                        );
                    }
                });
            }
            // concurrent readers: estimates and lengths stay consistent and
            // the sample count is monotone while writers are active
            for _ in 0..4 {
                let registry = &registry;
                scope.spawn(move || {
                    let mut last_len = 0;
                    for _ in 0..500 {
                        let len = registry.len();
                        assert!(len >= last_len, "sample count went backwards");
                        assert!(len <= WRITERS * PER_WRITER);
                        last_len = len;
                        if let Some(estimate) = registry.estimate(class_of(0), Strategy::Weak) {
                            assert!(estimate.samples > 0);
                            assert!(estimate.avg_elapsed > Duration::ZERO);
                        }
                    }
                });
            }
        });
        assert_eq!(registry.len(), WRITERS * PER_WRITER);
        // every (class, strategy) group the writers touched is queryable
        for writer in 0..WRITERS {
            for strategy in Strategy::ALL {
                let estimate = registry.estimate(class_of(writer), strategy).unwrap();
                assert!(estimate.samples > 0);
            }
        }
    }

    #[test]
    fn estimate_all_reports_each_recorded_strategy() {
        let registry = EstimationRegistry::new();
        let class = WorkloadClass {
            size_bucket: 4,
            density_decile: 5,
        };
        registry.record(class, sample(Strategy::Weak, 10, 0.6));
        registry.record(class, sample(Strategy::Strong, 20, 0.95));
        registry.record(class, sample(Strategy::Optimal, 4000, 1.0));
        let all = registry.estimate_all(class);
        assert_eq!(all.len(), 3);
        assert!(all["optimal"].avg_elapsed > all["strong"].avg_elapsed);
        assert!(!registry.is_empty());
        assert_eq!(registry.len(), 3);
    }
}
