//! Correction of unsound workflow views (paper §2.2).
//!
//! WOLVES repairs an unsound view by *splitting* each unsound composite task
//! into smaller, sound composite tasks. Three correctors are provided:
//!
//! | Corrector | Guarantee | Complexity |
//! |-----------|-----------|------------|
//! | [`WeakCorrector`]    | weak local optimality (Def. 2.5)   | polynomial |
//! | [`StrongCorrector`]  | strong local optimality (Def. 2.6) | polynomial |
//! | [`OptimalCorrector`] | minimum number of parts            | exponential (NP-hard) |
//!
//! [`correct_view`] drives a corrector over every unsound composite task of a
//! view and produces a corrected view plus a [`CorrectionReport`].

pub mod check;
mod context;
pub mod optimal;
pub mod split;
pub mod strong;
pub mod weak;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use wolves_workflow::{CompositeTaskId, TaskId, WorkflowSpec, WorkflowView};

use crate::error::CoreError;
use crate::validate::validate;

pub use optimal::OptimalCorrector;
pub use split::Split;
pub use strong::StrongCorrector;
pub use weak::WeakCorrector;

/// A strategy name for choosing a corrector at run time (CLI, experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Weak local optimality (Definition 2.5).
    Weak,
    /// Strong local optimality (Definition 2.6).
    Strong,
    /// Exact minimum split (exponential).
    Optimal,
}

impl Strategy {
    /// All strategies, in the order the paper discusses them.
    pub const ALL: [Strategy; 3] = [Strategy::Weak, Strategy::Strong, Strategy::Optimal];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Weak => "weak",
            Strategy::Strong => "strong",
            Strategy::Optimal => "optimal",
        }
    }

    /// Parses a strategy name (case-insensitive).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "weak" | "weak-local-optimal" => Some(Strategy::Weak),
            "strong" | "strong-local-optimal" => Some(Strategy::Strong),
            "optimal" | "exact" => Some(Strategy::Optimal),
            _ => None,
        }
    }

    /// Instantiates the corrector implementing this strategy.
    #[must_use]
    pub fn corrector(self) -> Box<dyn Corrector> {
        match self {
            Strategy::Weak => Box::new(WeakCorrector::new()),
            Strategy::Strong => Box::new(StrongCorrector::new()),
            Strategy::Optimal => Box::new(OptimalCorrector::new()),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A view-correction algorithm: splits one unsound composite task into sound
/// parts.
pub trait Corrector {
    /// Short identifier used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Splits the composite task with the given members into sound parts.
    ///
    /// # Errors
    /// Implementations may refuse inputs (e.g. the optimal corrector limits
    /// the composite size).
    fn split(&self, spec: &WorkflowSpec, members: &BTreeSet<TaskId>) -> Result<Split, CoreError>;
}

/// What happened to one composite task during view correction.
#[derive(Debug, Clone)]
pub struct CompositeCorrection {
    /// The unsound composite that was split.
    pub original: CompositeTaskId,
    /// Name of the original composite.
    pub original_name: String,
    /// Number of atomic tasks in the original composite.
    pub task_count: usize,
    /// The new composite tasks that replaced it.
    pub replacements: Vec<CompositeTaskId>,
    /// The split that was applied.
    pub split: Split,
    /// Wall-clock time spent inside the corrector for this composite.
    pub elapsed: Duration,
}

/// Summary of a whole-view correction run.
#[derive(Debug, Clone)]
pub struct CorrectionReport {
    /// Name of the corrector that was used.
    pub corrector: &'static str,
    /// Per-composite outcomes (empty when the view was already sound).
    pub corrections: Vec<CompositeCorrection>,
    /// Composite-task count of the view before correction.
    pub composites_before: usize,
    /// Composite-task count of the view after correction.
    pub composites_after: usize,
    /// Total corrector time (sum over composites).
    pub elapsed: Duration,
}

impl CorrectionReport {
    /// `true` if the view required no changes.
    #[must_use]
    pub fn was_already_sound(&self) -> bool {
        self.corrections.is_empty()
    }

    /// Total number of new composite tasks produced by splitting.
    #[must_use]
    pub fn parts_produced(&self) -> usize {
        self.corrections.iter().map(|c| c.replacements.len()).sum()
    }
}

/// Splits one composite task of a view using the given corrector, updating
/// the view in place.
///
/// # Errors
/// Propagates corrector errors (e.g. size limits) and view-manipulation
/// errors; the view is left untouched on error.
pub fn correct_composite(
    spec: &WorkflowSpec,
    view: &mut WorkflowView,
    composite: CompositeTaskId,
    corrector: &dyn Corrector,
) -> Result<CompositeCorrection, CoreError> {
    let original = view.composite(composite)?.clone();
    let start = Instant::now();
    let split = corrector.split(spec, original.members())?;
    let elapsed = start.elapsed();
    let replacements = view.split_composite(composite, split.to_groups())?;
    Ok(CompositeCorrection {
        original: composite,
        original_name: original.name.clone(),
        task_count: original.len(),
        replacements,
        split,
        elapsed,
    })
}

/// Corrects every unsound composite task of the view (Proposition 2.1: the
/// view is sound once every composite task is sound). Returns the corrected
/// view and a report; the input view is not modified.
///
/// # Errors
/// Propagates corrector errors; in that case no corrected view is produced.
pub fn correct_view(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    corrector: &dyn Corrector,
) -> Result<(WorkflowView, CorrectionReport), CoreError> {
    let report = validate(spec, view);
    let mut corrected = view.clone();
    let mut corrections = Vec::new();
    let mut total = Duration::ZERO;
    for composite in report.unsound_composites() {
        let outcome = correct_composite(spec, &mut corrected, composite, corrector)?;
        total += outcome.elapsed;
        corrections.push(outcome);
    }
    let report = CorrectionReport {
        corrector: corrector.name(),
        corrections,
        composites_before: view.composite_count(),
        composites_after: corrected.composite_count(),
        elapsed: total,
    };
    Ok((corrected, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use wolves_workflow::builder::ViewBuilder;
    use wolves_workflow::WorkflowBuilder;

    /// The Figure 1 workflow and its (unsound) Figure 1(b) view.
    fn figure1() -> (WorkflowSpec, WorkflowView) {
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
            .group("Retrieve data (13)".to_owned(), vec![t[0], t[1]])
            .group("Annotations (14)".to_owned(), vec![t[2]])
            .group("Sequences (15)".to_owned(), vec![t[5]])
            .group("Curate & align (16)".to_owned(), vec![t[3], t[6]])
            .group("Format annotations (17)".to_owned(), vec![t[4]])
            .group("Format alignment (18)".to_owned(), vec![t[7]])
            .group(
                "Build phylo tree (19)".to_owned(),
                vec![t[8], t[9], t[10], t[11]],
            )
            .build()
            .unwrap();
        (spec, view)
    }

    #[test]
    fn correct_view_fixes_the_figure1_view() {
        let (spec, view) = figure1();
        assert!(!validate(&spec, &view).is_sound());
        for strategy in Strategy::ALL {
            let corrector = strategy.corrector();
            let (corrected, report) = correct_view(&spec, &view, corrector.as_ref()).unwrap();
            assert!(
                validate(&spec, &corrected).is_sound(),
                "{strategy} must produce a sound view"
            );
            assert_eq!(report.corrections.len(), 1);
            assert_eq!(report.corrections[0].task_count, 2);
            assert_eq!(report.corrections[0].replacements.len(), 2);
            assert_eq!(report.composites_before, 7);
            assert_eq!(report.composites_after, 8);
            assert!(!report.was_already_sound());
        }
    }

    #[test]
    fn sound_views_are_untouched() {
        let (spec, _) = figure1();
        let singleton_view = WorkflowView::singletons(&spec, "fine");
        let (corrected, report) =
            correct_view(&spec, &singleton_view, &WeakCorrector::new()).unwrap();
        assert!(report.was_already_sound());
        assert_eq!(report.parts_produced(), 0);
        assert_eq!(
            corrected.composite_count(),
            singleton_view.composite_count()
        );
    }

    #[test]
    fn strategy_parsing_and_names() {
        assert_eq!(Strategy::parse("Weak"), Some(Strategy::Weak));
        assert_eq!(Strategy::parse("STRONG"), Some(Strategy::Strong));
        assert_eq!(Strategy::parse("exact"), Some(Strategy::Optimal));
        assert_eq!(Strategy::parse("nonsense"), None);
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
            assert!(!s.corrector().name().is_empty());
        }
    }

    #[test]
    fn correct_composite_reports_the_replacements() {
        let (spec, view) = figure1();
        let report = validate(&spec, &view);
        let unsound = report.unsound_composites()[0];
        let mut working = view.clone();
        let outcome =
            correct_composite(&spec, &mut working, unsound, &StrongCorrector::new()).unwrap();
        assert_eq!(outcome.original, unsound);
        assert_eq!(outcome.split.part_count(), outcome.replacements.len());
        assert!(outcome.original_name.contains("16"));
    }
}
