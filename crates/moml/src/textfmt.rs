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

use std::collections::HashMap;

use wolves_workflow::{AtomicTask, DataDependency, TaskId, WorkflowSpec, WorkflowView};

use crate::error::MomlError;
use crate::import::ImportedWorkflow;
use crate::scan::ByteOffsets;

/// Checks that the text format can carry `name` back as a task name:
/// [`read_text_format`] refuses a `task` line that breaks this rule, and
/// the serving layer refuses to add such a task, so every spec it holds
/// exports as text that reads back.
///
/// A task name must not be empty, must not contain `|` (the separator of
/// a composite's member list), a TAB or a newline, and must not start or
/// end with whitespace (member names are trimmed, and so is a line).
///
/// # Errors
/// Describes the first rule `name` breaks.
pub fn check_task_name(name: &str) -> Result<(), String> {
    let reserved = name
        .bytes()
        .find(|byte| matches!(byte, b'|' | b'\t' | b'\n'));
    let problem = match reserved {
        _ if name.is_empty() => "is empty",
        Some(b'|') => "contains '|', the separator of composite member lists",
        Some(_) => "contains a TAB or a newline",
        None if name.starts_with(char::is_whitespace) || name.ends_with(char::is_whitespace) => {
            "starts or ends with whitespace"
        }
        None => return Ok(()),
    };
    Err(format!("task name {name:?} {problem}"))
}

/// Checks that the text format can carry `name` back as a composite name:
/// the serving layer refuses a merge that would name a composite so, so
/// every view it holds exports as text that reads back.
///
/// A composite name is the middle field of its line, so it may hold `|`
/// and surrounding whitespace, but not a TAB or a newline.
///
/// # Errors
/// Describes the rule `name` breaks.
pub fn check_composite_name(name: &str) -> Result<(), String> {
    if name.contains(['\t', '\n']) {
        return Err(format!(
            "composite name {name:?} contains a TAB or a newline"
        ));
    }
    Ok(())
}

/// Serialises a workflow (and optional view) in the native text format.
#[must_use]
pub fn write_text_format(spec: &WorkflowSpec, view: Option<&WorkflowView>) -> String {
    let name_of = |id: TaskId| spec.task(id).map_or("", |task| task.name.as_str());
    let mut out = String::new();
    push_line(&mut out, &["workflow", spec.name()]);
    for (_, task) in spec.tasks() {
        push_line(&mut out, &["task", &task.name]);
    }
    for (from, to) in spec.dependencies() {
        push_line(&mut out, &["edge", name_of(from), name_of(to)]);
    }
    if let Some(view) = view {
        push_line(&mut out, &["view", view.name()]);
        for (_, composite) in view.composites() {
            out.push_str("composite\t");
            out.push_str(&composite.name);
            let mut separator = '\t';
            for &member in composite.members() {
                out.push(separator);
                out.push_str(name_of(member));
                separator = '|';
            }
            out.push('\n');
        }
    }
    out
}

/// Appends one line of TAB-separated fields.
fn push_line(out: &mut String, fields: &[&str]) {
    for (index, field) in fields.iter().enumerate() {
        if index > 0 {
            out.push('\t');
        }
        out.push_str(field);
    }
    out.push('\n');
}

/// Calls `each` with every line of `input` that is neither blank nor a
/// comment: its 1-based number, its text trimmed of surrounding
/// whitespace, and the offsets of the TABs in that text. Lines end at `\n`,
/// as [`str::lines`] splits them; one word-at-a-time scan finds every TAB
/// and newline, and the TAB offsets of a line go into one buffer reused
/// for every line.
fn scan_lines<'a>(
    input: &'a str,
    mut each: impl FnMut(usize, &'a str, &[usize]) -> Result<(), MomlError>,
) -> Result<(), MomlError> {
    let bytes = input.as_bytes();
    let mut tabs: Vec<usize> = Vec::new();
    let mut start = 0;
    let mut number = 0;
    // the end of the input ends the last line
    for at in ByteOffsets::new(bytes, [b'\t', b'\n']).chain(std::iter::once(bytes.len())) {
        if at < bytes.len() && bytes[at] == b'\t' {
            tabs.push(at);
            continue;
        }
        number += 1;
        let raw = &input[start..at];
        let line = raw.trim();
        if !line.is_empty() && !line.starts_with('#') {
            // TABs in the trimmed whitespace are not field separators
            let from = start + (raw.len() - raw.trim_start().len());
            tabs.retain(|&tab| tab >= from && tab < from + line.len());
            tabs.iter_mut().for_each(|tab| *tab -= from);
            each(number, line, &tabs)?;
        }
        tabs.clear();
        start = at + 1;
    }
    Ok(())
}

/// Parses the native text format.
///
/// One scan over the lines borrows every name from `input`, then the spec
/// is built in one step ([`WorkflowSpec::from_parts`]), with every name
/// resolved through one map local to the parse.
///
/// # Errors
/// Reports the line number and reason for every malformed line (a task
/// name that [`check_task_name`] refuses included), then, as a build one
/// declaration at a time would meet them: duplicate names, too many
/// slots, unknown task references, duplicate or self-loop edges, cycles
/// and partition violations.
pub fn read_text_format(input: &str) -> Result<ImportedWorkflow, MomlError> {
    let mut spec_name = "imported-workflow";
    let mut view_name: Option<&str> = None;
    let mut tasks: Vec<&str> = Vec::new();
    let mut edges: Vec<(&str, &str)> = Vec::new();
    // each composite's name and the end of its members in `members`
    let mut composites: Vec<(&str, usize)> = Vec::new();
    let mut members: Vec<&str> = Vec::new();

    scan_lines(input, |number, line, tabs| {
        let error = |message: &str| MomlError::Text {
            line: number,
            message: message.to_owned(),
        };
        let end = line.len();
        let directive = &line[..tabs.first().map_or(end, |&tab| tab)];
        // the first field after the directive; later ones are ignored
        let first = || {
            let &tab = tabs.first()?;
            Some(&line[tab + 1..tabs.get(1).map_or(end, |&next| next)])
        };
        // exactly two fields after the directive
        let pair = || match *tabs {
            [first, second] => Some((&line[first + 1..second], &line[second + 1..])),
            _ => None,
        };
        match directive {
            "workflow" => spec_name = first().ok_or_else(|| error("workflow needs a name"))?,
            "task" => {
                let name = first().ok_or_else(|| error("task needs a name"))?;
                check_task_name(name).map_err(|message| error(&message))?;
                tasks.push(name);
            }
            "edge" => edges.push(pair().ok_or_else(|| error("edge needs exactly two task names"))?),
            "view" => view_name = Some(first().ok_or_else(|| error("view needs a name"))?),
            "composite" => {
                let (name, list) =
                    pair().ok_or_else(|| error("composite needs a name and a member list"))?;
                let start = members.len();
                members.extend(list.split('|').map(str::trim).filter(|m| !m.is_empty()));
                if members.len() == start {
                    return Err(error("composite has no members"));
                }
                composites.push((name, members.len()));
            }
            other => return Err(error(&format!("unknown directive '{other}'"))),
        }
        Ok(())
    })?;

    // names come from clients: the map's hash is keyed per parse
    let mut ids: HashMap<&str, TaskId> = HashMap::with_capacity(tasks.len());
    for (index, &name) in tasks.iter().enumerate() {
        ids.entry(name).or_insert(TaskId::from_index(index));
    }
    let id_of = |name: &str| {
        ids.get(name)
            .copied()
            .ok_or_else(|| MomlError::DanglingReference(name.to_owned()))
    };
    // edges resolve up to the first unknown name; the ones before it are
    // built first, so an error among them (or among the tasks) wins
    let mut dependencies = Vec::with_capacity(edges.len());
    let mut dangling = None;
    for &(from, to) in &edges {
        match id_of(from).and_then(|from| Ok((from, id_of(to)?))) {
            Ok((from, to)) => dependencies.push((from, to, DataDependency::unnamed())),
            Err(e) => {
                dangling = Some(e);
                break;
            }
        }
    }
    let spec = WorkflowSpec::from_parts(
        spec_name,
        tasks.iter().map(|&name| AtomicTask::new(name)).collect(),
        dependencies,
    )?;
    if let Some(e) = dangling {
        return Err(e);
    }
    spec.ensure_acyclic()?;

    let view = if composites.is_empty() {
        None
    } else {
        let mut groups: Vec<(String, Vec<TaskId>)> = Vec::with_capacity(composites.len());
        let mut covered = vec![false; tasks.len()];
        let mut start = 0;
        for &(name, end) in &composites {
            let member_ids = members[start..end]
                .iter()
                .map(|m| id_of(m))
                .collect::<Result<Vec<_>, _>>()?;
            start = end;
            for id in &member_ids {
                covered[id.index()] = true;
            }
            groups.push((name.to_owned(), member_ids));
        }
        // uncovered tasks become singleton composites, like the MOML importer
        for (id, task) in spec.tasks() {
            if !covered[id.index()] {
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

    #[test]
    fn names_the_format_cannot_carry_back_are_refused_on_their_line() {
        for (name, problem) in [
            ("a|b", "'|'"),
            (" padded", "whitespace"),
            ("\u{a0}nbsp", "whitespace"),
            ("", "empty"),
        ] {
            let text = format!("workflow\tdemo\ntask\tok\ntask\t{name}\textra\n");
            match read_text_format(&text).unwrap_err() {
                MomlError::Text { line: 3, message } => {
                    assert!(message.contains(problem), "{message}");
                    assert_eq!(Err(message), check_task_name(name));
                }
                other => panic!("{name:?}: {other:?}"),
            }
        }
        // a line's trailing whitespace is not part of the name
        let imported = read_text_format("task\ttrail \r\ntask\tx y\n").unwrap();
        let names: Vec<&str> = imported
            .spec
            .tasks()
            .map(|(_, t)| t.name.as_str())
            .collect();
        assert_eq!(names, ["trail", "x y"]);
        assert!(check_task_name("tab\there").is_err());
        assert!(check_task_name("line\nbreak").is_err());
        assert!(check_task_name("inner \u{e9} | ok").is_err());
        assert!(check_task_name("inner \u{e9} ok").is_ok());
    }

    #[test]
    fn composite_names_keep_their_bars_and_spaces_through_a_round_trip() {
        let text = "task\ta\ntask\tb\nedge\ta\tb\nview\tv\ncomposite\t x|y \ta | b\n";
        let imported = read_text_format(text).unwrap();
        let view = imported.view.unwrap();
        let again = read_text_format(&write_text_format(&imported.spec, Some(&view))).unwrap();
        let names = |v: &WorkflowView| -> Vec<String> {
            v.composites().map(|(_, c)| c.name.clone()).collect()
        };
        assert_eq!(names(&again.view.unwrap()), [" x|y "]);
        assert_eq!(check_composite_name(" x|y "), Ok(()));
        assert_eq!(check_composite_name(""), Ok(()));
        for name in ["tab\there", "line\nbreak"] {
            let err = check_composite_name(name).unwrap_err();
            assert!(err.contains("composite name"), "{err}");
        }
    }

    /// The parser this module shipped before the one-pass reader: one
    /// `add_task` / `add_dependency` call per declaration. The reader must
    /// build what it builds, or fail as it fails.
    mod reference {
        use super::*;

        pub(super) fn read_text_format(input: &str) -> Result<ImportedWorkflow, MomlError> {
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
                let mut covered = std::collections::BTreeSet::new();
                for (name, members) in &composites {
                    let member_ids = members
                        .iter()
                        .map(|m| id_of(&spec, m))
                        .collect::<Result<Vec<_>, _>>()?;
                    covered.extend(member_ids.iter().copied());
                    groups.push(((*name).to_owned(), member_ids));
                }
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
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use wolves_workflow::persist::{spec_to_lines, view_to_lines};

        /// Names the payloads draw from: plain, spaced and multi-byte ones,
        /// and the ones [`check_task_name`] refuses.
        const NAMES: [&str; 14] = [
            "a",
            "b",
            "c",
            "d",
            "e f",
            "\u{e9}t\u{e9}",
            "\u{20ac}",
            "\u{1d11e}x",
            "A",
            "t1",
            "a|b",
            " padded ",
            "trail ",
            " lead",
        ];

        /// Lines that break the grammar, or bend it: missing and extra
        /// fields, empty member lists, unknown directives, stray tabs.
        const ODD_LINES: [&str; 16] = [
            "edge\ta",
            "edge\ta\tb\tc",
            "composite\tc",
            "composite\tc\t",
            "composite\tc\t | |",
            "task",
            "task\t\tx",
            "frobnicate\tx",
            "workflow",
            "view",
            "\ttask\ta",
            "task\ta\t",
            "task\tb\textra",
            "edge\ta\tb\t",
            "  task\tc  ",
            "composite\tc\t\ta",
        ];

        /// Draws read front to back; zero once they run out.
        struct Tape<'a> {
            draws: &'a [u32],
            at: usize,
        }

        impl Tape<'_> {
            fn next(&mut self, bound: usize) -> usize {
                let draw = self.draws.get(self.at).copied().unwrap_or(0);
                self.at += 1;
                draw as usize % bound
            }

            fn name(&mut self) -> &'static str {
                NAMES[self.next(NAMES.len())]
            }
        }

        /// Lines drawn one by one from the name pool and the odd lines:
        /// mostly payloads that fail, each in its own way.
        fn drawn_lines(tape: &mut Tape<'_>) -> Vec<String> {
            let count = tape.next(40);
            (0..count)
                .map(|_| match tape.next(16) {
                    0..=3 => format!("task\t{}", tape.name()),
                    4..=6 => format!("edge\t{}\t{}", tape.name(), tape.name()),
                    7 => {
                        let name = tape.name();
                        format!("edge\t{name}\t{name}")
                    }
                    8 | 9 => {
                        let separator = ["|", " | ", "||"][tape.next(3)];
                        let members: Vec<&str> = (0..tape.next(4)).map(|_| tape.name()).collect();
                        format!("composite\t{}\t{}", tape.name(), members.join(separator))
                    }
                    10 => format!("workflow\t{}", tape.name()),
                    11 => format!("view\t{}", tape.name()),
                    12 => ["# a comment", "", "   ", "#task\tx"][tape.next(4)].to_owned(),
                    _ => ODD_LINES[tape.next(ODD_LINES.len())].to_owned(),
                })
                .collect()
        }

        /// A DAG with a block view, then a few edits: dropped, repeated and
        /// swapped lines, back edges (cycles), self-loops, unknown names,
        /// refused names and overlapping composites.
        fn edited_dag(tape: &mut Tape<'_>, tasks: usize) -> Vec<String> {
            let prefix = ["t", "\u{e9}", "\u{20ac} ", "\u{1d11e}"][tape.next(4)];
            let name = |i: usize| format!("{prefix}{i}");
            let mut lines = vec![format!("workflow\tw{}", tape.next(9))];
            lines.extend((0..tasks).map(|i| format!("task\t{}", name(i))));
            for i in 1..tasks {
                // one edge from an earlier task, sometimes two
                let from = tape.next(i);
                lines.push(format!("edge\t{}\t{}", name(from), name(i)));
                if from > 0 && tape.next(2) == 0 {
                    lines.push(format!("edge\t{}\t{}", name(tape.next(from)), name(i)));
                }
            }
            if tape.next(4) > 0 {
                lines.push(format!("view\tv{}", tape.next(9)));
                // blocks over a prefix of the tasks, the rest left to pad
                let mut next = 0;
                while next < tasks {
                    let size = 1 + tape.next(6);
                    let members: Vec<String> = (next..tasks.min(next + size)).map(name).collect();
                    lines.push(format!("composite\tblock {next}\t{}", members.join("|")));
                    next += size;
                    if tape.next(8) == 0 {
                        break;
                    }
                }
            }
            for _ in 0..tape.next(4) {
                let at = tape.next(lines.len());
                let far = tape.next(tasks);
                match tape.next(9) {
                    0 => {
                        lines.remove(at);
                    }
                    1 => lines.insert(tape.next(lines.len()), lines[at].clone()),
                    2 => {
                        let other = tape.next(lines.len());
                        lines.swap(at, other);
                    }
                    3 => lines.push(format!("edge\t{}\t{}", name(tasks - 1), name(far))),
                    4 => lines.insert(at, format!("edge\t{}\tghost", name(far))),
                    5 => lines.push(format!("edge\t{}\t{}", name(far), name(far))),
                    6 => lines.insert(at, format!("task\t{}", tape.name())),
                    7 => lines.push(format!("composite\tover\t{}|{}", name(far), name(0))),
                    _ => lines.insert(at, format!("# note {far}")),
                }
            }
            lines
        }

        /// A payload from the tape: drawn lines, an edited DAG, or a
        /// large one (up to 600 tasks, or names hundreds of bytes long);
        /// CRLF on some lines, and now and then cut short.
        fn payload(draws: &[u32]) -> String {
            let mut tape = Tape { draws, at: 0 };
            // drawn first, so a short tape (zeros after it) spares them
            let crlf = tape.next(3);
            let cut = (tape.next(5) == 0).then(|| tape.next(1000));
            let lines = match tape.next(16) {
                0..=5 => drawn_lines(&mut tape),
                6..=14 => {
                    let tasks = 1 + tape.next(40);
                    edited_dag(&mut tape, tasks)
                }
                _ => {
                    let tasks = 1 + tape.next(600);
                    let mut lines = edited_dag(&mut tape, tasks);
                    if tape.next(2) == 0 {
                        let long = "\u{e9}".repeat(300);
                        for line in lines.iter_mut().filter(|l| l.starts_with("task")) {
                            line.push_str(&long);
                        }
                    }
                    lines
                }
            };
            let mut text = String::new();
            for (index, line) in lines.iter().enumerate() {
                text.push_str(line);
                // CRLF on no line, every line or every third one
                let cr = crlf == 1 || (crlf == 2 && index % 3 == 0);
                text.push_str(if cr { "\r\n" } else { "\n" });
            }
            if let Some(per_mille) = cut {
                // cut at a character boundary: a line may lose its end
                let mut cut = text.len() * per_mille / 1000;
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
            }
            text
        }

        type Outcome = Result<(Vec<String>, Option<Vec<String>>), MomlError>;

        fn outcome(parsed: Result<ImportedWorkflow, MomlError>) -> Outcome {
            parsed.map(|imported| {
                (
                    spec_to_lines(&imported.spec),
                    imported.view.as_ref().map(view_to_lines),
                )
            })
        }

        /// The reader's outcome equals the reference parser's, except on a
        /// payload whose first malformed line is a task named against
        /// [`check_task_name`]: there the reader refuses that line.
        fn assert_reads_like_the_reference(text: &str) {
            let read = outcome(read_text_format(text));
            let expected = outcome(reference::read_text_format(text));
            if let Err(MomlError::Text { line, message }) = &read {
                let raw = text.lines().nth(line - 1).expect("the error names a line");
                let name = raw
                    .trim()
                    .strip_prefix("task\t")
                    .map(|rest| rest.split('\t').next());
                if let Some(Some(name)) = name {
                    if check_task_name(name).as_ref().err() == Some(message) {
                        // the lines before it scan clean for the reference too
                        let before: Vec<&str> = text.lines().take(line - 1).collect();
                        let earlier = reference::read_text_format(&before.join("\n"));
                        assert!(
                            !matches!(earlier, Err(MomlError::Text { .. })),
                            "an earlier line is malformed: {earlier:?}"
                        );
                        return;
                    }
                }
            }
            assert_eq!(read, expected, "payload {text:?}");
            if let Ok((spec, _)) = &read {
                let imported = read_text_format(text).expect("it read once");
                for (_, task) in imported.spec.tasks() {
                    assert_eq!(check_task_name(&task.name), Ok(()), "{spec:?}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Drawn, edited, large and cut payloads read as the reference
            /// parser reads them: the same spec and view lines, epoch and
            /// slot layout included, or the same error.
            #[test]
            fn prop_the_reader_matches_the_reference_parser(
                draws in proptest::collection::vec(0u32..u32::MAX, 0..120)
            ) {
                assert_reads_like_the_reference(&payload(&draws));
            }
        }

        #[test]
        fn the_reference_comparison_covers_every_outcome() {
            // a fixed sweep: count what the generated payloads come to, so
            // a generator that stops reaching an outcome fails here
            let mut seen = std::collections::BTreeMap::new();
            for seed in 0..1500u32 {
                // splitmix64 over (seed, index)
                let draws: Vec<u32> = (0..120u64)
                    .map(|i| {
                        let mut z = (u64::from(seed) << 32 | i).wrapping_add(0x9e37_79b9_7f4a_7c15);
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        (z ^ (z >> 31)) as u32
                    })
                    .collect();
                let text = payload(&draws);
                assert_reads_like_the_reference(&text);
                let kind = match read_text_format(&text) {
                    Ok(imported) if imported.view.is_some() => "ok with a view",
                    Ok(_) => "ok",
                    Err(MomlError::Text { message, .. }) if message.starts_with("task name") => {
                        "refused name"
                    }
                    Err(MomlError::Text { .. }) => "malformed line",
                    Err(MomlError::DanglingReference(_)) => "dangling",
                    Err(MomlError::Workflow(e)) => match e {
                        wolves_workflow::WorkflowError::DuplicateTaskName(_) => "duplicate name",
                        wolves_workflow::WorkflowError::CyclicSpecification(_) => "cycle",
                        wolves_workflow::WorkflowError::NotAPartition { .. } => "overlap",
                        wolves_workflow::WorkflowError::Graph(
                            wolves_graph::GraphError::DuplicateEdge(..),
                        ) => "duplicate edge",
                        wolves_workflow::WorkflowError::Graph(
                            wolves_graph::GraphError::SelfLoop(_),
                        ) => "self-loop",
                        _ => "other workflow error",
                    },
                    Err(_) => "other",
                };
                *seen.entry(kind).or_insert(0) += 1;
            }
            for kind in [
                "ok with a view",
                "ok",
                "refused name",
                "malformed line",
                "dangling",
                "duplicate name",
                "cycle",
                "overlap",
                "duplicate edge",
                "self-loop",
            ] {
                assert!(
                    seen.get(kind).copied().unwrap_or(0) > 0,
                    "{kind} never drawn: {seen:?}"
                );
            }
        }
    }
}
