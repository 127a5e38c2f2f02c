//! A minimal native text format for workflows and views.
//!
//! One declaration per line, fields separated by a single TAB character,
//! `#` starts a comment. With `<TAB>` standing in for the tab byte (`\t`) —
//! the column gaps below are *not* spaces:
//!
//! ```text
//! workflow<TAB>phylogenomic-inference
//! task<TAB>Select entries
//! task<TAB>Split entries
//! edge<TAB>Select entries<TAB>Split entries
//! view<TAB>figure-1b
//! composite<TAB>Retrieve entries (13)<TAB>Select entries|Split entries
//! ```
//!
//! The format is what the CLI reads and writes by default; it is easier to
//! author by hand than MOML and diff-friendly for experiment fixtures.

use std::fmt::Write as _;

use wolves_workflow::{AtomicTask, DataDependency, TaskId, WorkflowSpec, WorkflowView};

use crate::error::MomlError;
use crate::import::ImportedWorkflow;

/// Serialises a workflow (and optional view) in the native text format.
#[must_use]
pub fn write_text_format(spec: &WorkflowSpec, view: Option<&WorkflowView>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workflow\t{}", spec.name());
    for (_, task) in spec.tasks() {
        let _ = writeln!(out, "task\t{}", task.name);
    }
    for (from, to) in spec.dependencies() {
        let from_name = spec.task(from).map(|t| t.name.clone()).unwrap_or_default();
        let to_name = spec.task(to).map(|t| t.name.clone()).unwrap_or_default();
        let _ = writeln!(out, "edge\t{from_name}\t{to_name}");
    }
    if let Some(view) = view {
        let _ = writeln!(out, "view\t{}", view.name());
        for (_, composite) in view.composites() {
            let members: Vec<String> = composite
                .members()
                .iter()
                .map(|&m| spec.task(m).map(|t| t.name.clone()).unwrap_or_default())
                .collect();
            let _ = writeln!(out, "composite\t{}\t{}", composite.name, members.join("|"));
        }
    }
    out
}

/// Parses the native text format.
///
/// # Errors
/// Reports the line number and reason for every malformed line, unknown task
/// reference, duplicate declaration or partition violation.
pub fn read_text_format(input: &str) -> Result<ImportedWorkflow, MomlError> {
    // the scan borrows every name from `input`; only the spec owns copies
    let mut spec_name = "imported-workflow";
    let mut view_name: Option<&str> = None;
    let mut tasks: Vec<&str> = Vec::new();
    let mut edges: Vec<(&str, &str)> = Vec::new();
    let mut composites: Vec<(&str, Vec<&str>)> = Vec::new();

    for (index, raw_line) in input.lines().enumerate() {
        let line_no = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let directive = fields.next().unwrap_or_default();
        let rest: Vec<&str> = fields.collect();
        let error = |message: &str| MomlError::Text {
            line: line_no,
            message: message.to_owned(),
        };
        match directive {
            "workflow" => {
                spec_name = rest.first().ok_or_else(|| error("workflow needs a name"))?;
            }
            "task" => {
                let name = rest.first().ok_or_else(|| error("task needs a name"))?;
                tasks.push(name);
            }
            "edge" => {
                if rest.len() != 2 {
                    return Err(error("edge needs exactly two task names"));
                }
                edges.push((rest[0], rest[1]));
            }
            "view" => {
                view_name = Some(rest.first().ok_or_else(|| error("view needs a name"))?);
            }
            "composite" => {
                if rest.len() != 2 {
                    return Err(error("composite needs a name and a member list"));
                }
                let members = rest[1]
                    .split('|')
                    .map(str::trim)
                    .filter(|m| !m.is_empty())
                    .collect::<Vec<_>>();
                if members.is_empty() {
                    return Err(error("composite has no members"));
                }
                composites.push((rest[0], members));
            }
            other => return Err(error(&format!("unknown directive '{other}'"))),
        }
    }

    let mut spec = WorkflowSpec::new(spec_name);
    for name in tasks {
        spec.add_task(AtomicTask::new(name))?;
    }
    // names resolve through the spec's own index: one lookup per reference
    let id_of = |spec: &WorkflowSpec, name: &str| {
        spec.task_by_name(name)
            .ok_or_else(|| MomlError::DanglingReference(name.to_owned()))
    };
    for &(from, to) in &edges {
        let from_id = id_of(&spec, from)?;
        let to_id = id_of(&spec, to)?;
        spec.add_dependency(from_id, to_id, DataDependency::unnamed())?;
    }
    spec.ensure_acyclic()?;

    let view = if composites.is_empty() {
        None
    } else {
        let mut groups: Vec<(String, Vec<TaskId>)> = Vec::new();
        let mut covered: std::collections::BTreeSet<TaskId> = std::collections::BTreeSet::new();
        for (name, members) in &composites {
            let member_ids = members
                .iter()
                .map(|m| id_of(&spec, m))
                .collect::<Result<Vec<_>, _>>()?;
            covered.extend(member_ids.iter().copied());
            groups.push(((*name).to_owned(), member_ids));
        }
        // uncovered tasks become singleton composites, like the MOML importer
        for (id, task) in spec.tasks() {
            if !covered.contains(&id) {
                groups.push((task.name.clone(), vec![id]));
            }
        }
        Some(WorkflowView::from_groups(
            &spec,
            view_name.unwrap_or("imported-view").to_owned(),
            groups,
        )?)
    };
    Ok(ImportedWorkflow { spec, view })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_repo::figure1;

    #[test]
    fn figure1_round_trips_through_the_text_format() {
        let fixture = figure1();
        let text = write_text_format(&fixture.spec, Some(&fixture.view));
        let imported = read_text_format(&text).unwrap();
        assert_eq!(imported.spec.task_count(), 12);
        assert_eq!(imported.spec.dependency_count(), 12);
        let view = imported.view.unwrap();
        assert_eq!(view.composite_count(), 7);
        let report = wolves_core::validate::validate(&imported.spec, &view);
        assert_eq!(report.unsound_composites().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a workflow\nworkflow\tdemo\n\ntask\ta\ntask\tb\nedge\ta\tb\n";
        let imported = read_text_format(text).unwrap();
        assert_eq!(imported.spec.name(), "demo");
        assert_eq!(imported.spec.task_count(), 2);
        assert!(imported.view.is_none());
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let text = "workflow\tdemo\ntask\ta\nedge\ta\n";
        let err = read_text_format(text).unwrap_err();
        assert!(matches!(err, MomlError::Text { line: 3, .. }));
        let text = "frobnicate\tx\n";
        let err = read_text_format(text).unwrap_err();
        assert!(matches!(err, MomlError::Text { line: 1, .. }));
    }

    #[test]
    fn unknown_task_references_are_rejected() {
        let text = "workflow\tdemo\ntask\ta\nedge\ta\tghost\n";
        let err = read_text_format(text).unwrap_err();
        assert!(matches!(err, MomlError::DanglingReference(name) if name == "ghost"));
        let text = "workflow\tdemo\ntask\ta\ncomposite\tc\ta|ghost\n";
        let err = read_text_format(text).unwrap_err();
        assert!(matches!(err, MomlError::DanglingReference(name) if name == "ghost"));
    }

    #[test]
    fn an_unknown_edge_source_is_a_dangling_reference() {
        // the source side resolves first; a name that only differs by case
        // is not the same task
        let text = "workflow\tdemo\ntask\ta\ntask\tb\nedge\tA\tb\n";
        let err = read_text_format(text).unwrap_err();
        assert!(matches!(err, MomlError::DanglingReference(name) if name == "A"));
    }

    #[test]
    fn partial_composites_are_padded_with_singletons() {
        let text = "workflow\tdemo\ntask\ta\ntask\tb\ntask\tc\nedge\ta\tb\nview\tv\ncomposite\tfront\ta|b\n";
        let imported = read_text_format(text).unwrap();
        let view = imported.view.unwrap();
        assert_eq!(view.composite_count(), 2);
    }
}
