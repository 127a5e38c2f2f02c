//! Canonical line-based (de)serialisation of specs, views and deltas — the
//! storage format of the durable serving layer.
//!
//! Unlike the human-facing text format of `wolves-moml` (which addresses
//! tasks by name and renumbers composites on import), this format is
//! **slot-exact**: it records the tombstone layout of the underlying graph
//! and of the view's composite vector, so a restored spec/view assigns
//! exactly the same [`TaskId`]s and [`crate::CompositeTaskId`]s to future edits as
//! the live one would have. That property is what lets a snapshot + replayed
//! write-ahead log reproduce a serving store bit-for-bit (same epochs, same
//! cache keying, same provenance answers).
//!
//! Every record is one line of TAB-separated fields. Free-form fields
//! (names, labels, descriptions, parameter values) are always the *last*
//! field of their line and parsed with `splitn`, so embedded TABs round-trip;
//! embedded newlines are rejected on write (they would break the framing).
//!
//! A spec carries no edit history, so none is serialised: the serving
//! layer's write-ahead log records each edit's delta, and a snapshot marks
//! the point where all of them have been absorbed. Specs written before the
//! in-memory delta log was removed carry a `log-cap` line; the reader
//! accepts and ignores it, so older data directories still recover.

use wolves_graph::DiGraph;

use crate::error::WorkflowError;
use crate::mutation::{SpecDelta, SpecDeltaKind};
use crate::spec::WorkflowSpec;
use crate::task::{AtomicTask, DataDependency, TaskId};
use crate::view::{CompositeTask, WorkflowView};

fn err(message: impl Into<String>) -> WorkflowError {
    WorkflowError::Persist(message.into())
}

fn check_single_line(what: &str, text: &str) -> Result<(), WorkflowError> {
    if text.contains('\n') || text.contains('\r') {
        return Err(err(format!("{what} contains a line break: {text:?}")));
    }
    Ok(())
}

fn parse_index(field: &str, what: &str) -> Result<usize, WorkflowError> {
    field
        .parse::<usize>()
        .map_err(|_| err(format!("invalid {what} '{field}'")))
}

/// Upper bound on the task slots and dependency slots of a spec and the
/// composite slots of a view, tombstones included. A reader allocates every
/// slot of a `tasks` / `edges` / `slots` header before it reads a record,
/// so it refuses a larger header first; tombstones let slots outnumber
/// records, so the limit is a constant rather than the line count.
///
/// The edits that create slots ([`WorkflowSpec::add_task`],
/// [`WorkflowSpec::add_dependency`], [`WorkflowSpec::apply`] and the view's
/// split, merge and add-composite) refuse to go past the same limit, so
/// every spec and view that exists in memory can be written and read back.
/// Slots are never reused: a workflow whose edits have used up a limit
/// refuses further slot-creating edits of that kind, and registering its
/// export starts again from dense slots.
///
/// Unit tests of this crate run with a small limit, so that a spec at the
/// limit is cheap to build; the checks are the same code.
pub const MAX_SLOT_BOUND: usize = if cfg!(test) { 1 << 12 } else { 1 << 24 };

/// Refuses a slot bound past [`MAX_SLOT_BOUND`]: a header being read, or
/// the bound an edit would leave behind.
pub(crate) fn check_slot_bound(what: &'static str, bound: usize) -> Result<(), WorkflowError> {
    if bound > MAX_SLOT_BOUND {
        return Err(WorkflowError::SlotBoundTooLarge { what, bound });
    }
    Ok(())
}

/// Parses a slot-count header, refusing one past [`MAX_SLOT_BOUND`].
fn parse_slot_bound(field: &str, what: &'static str) -> Result<usize, WorkflowError> {
    let bound = parse_index(field, &format!("{what} bound"))?;
    check_slot_bound(what, bound)?;
    Ok(bound)
}

fn parse_task_id(field: &str, what: &str) -> Result<TaskId, WorkflowError> {
    parse_index(field, what).map(TaskId::from_index)
}

/// Serialises a specification, slot layout included.
#[must_use]
pub fn spec_to_lines(spec: &WorkflowSpec) -> Vec<String> {
    let graph = spec.graph();
    let mut lines = Vec::with_capacity(4 + graph.node_count() + graph.edge_count());
    lines.push(format!("spec\t{}", spec.name()));
    lines.push(format!("epoch\t{}", spec.epoch()));
    lines.push(format!("tasks\t{}", graph.node_bound()));
    for (id, task) in spec.tasks() {
        lines.push(format!("task\t{}\t{}", id.index(), task.name));
        if let Some(description) = &task.description {
            lines.push(format!("task-desc\t{}\t{description}", id.index()));
        }
        for (key, value) in &task.params {
            lines.push(format!("task-param\t{}\t{key}\t{value}", id.index()));
        }
    }
    lines.push(format!("edges\t{}", graph.edge_bound()));
    for (edge, from, to, dependency) in graph.edges() {
        match &dependency.label {
            Some(label) => lines.push(format!(
                "edge-labelled\t{}\t{}\t{}\t{label}",
                edge.index(),
                from.index(),
                to.index()
            )),
            None => lines.push(format!(
                "edge\t{}\t{}\t{}",
                edge.index(),
                from.index(),
                to.index()
            )),
        }
    }
    lines
}

/// Checks that a spec is representable in the line format (no embedded
/// newlines in names, descriptions, labels or parameters).
///
/// # Errors
/// Names the offending field.
pub fn check_spec_serialisable(spec: &WorkflowSpec) -> Result<(), WorkflowError> {
    check_single_line("workflow name", spec.name())?;
    for (_, task) in spec.tasks() {
        check_single_line("task name", &task.name)?;
        if let Some(description) = &task.description {
            check_single_line("task description", description)?;
        }
        for (key, value) in &task.params {
            check_single_line("task parameter key", key)?;
            if key.contains('\t') {
                return Err(err(format!("task parameter key contains a TAB: {key:?}")));
            }
            check_single_line("task parameter value", value)?;
        }
    }
    for (_, _, _, dependency) in spec.graph().edges() {
        if let Some(label) = &dependency.label {
            check_single_line("dependency label", label)?;
        }
    }
    Ok(())
}

/// Restores a specification serialised by [`spec_to_lines`].
///
/// # Errors
/// Reports malformed lines, out-of-range slot indices, duplicate names and
/// inconsistent slot layouts.
pub fn spec_from_lines(lines: &[String]) -> Result<WorkflowSpec, WorkflowError> {
    let mut name: Option<String> = None;
    let mut epoch = 0u64;
    let mut nodes: Option<Vec<Option<AtomicTask>>> = None;
    let mut edges: Option<Vec<Option<(TaskId, TaskId, DataDependency)>>> = None;
    for line in lines {
        let directive = line.split('\t').next().unwrap_or_default();
        match directive {
            "spec" => {
                let (_, rest) = line
                    .split_once('\t')
                    .ok_or_else(|| err("spec needs a name"))?;
                name = Some(rest.to_owned());
            }
            "epoch" => {
                let (_, rest) = line
                    .split_once('\t')
                    .ok_or_else(|| err("epoch needs a value"))?;
                epoch = rest
                    .parse::<u64>()
                    .map_err(|_| err(format!("invalid epoch '{rest}'")))?;
            }
            // the retired delta-log cap of older writers
            "log-cap" => {}
            "tasks" => {
                let (_, rest) = line
                    .split_once('\t')
                    .ok_or_else(|| err("tasks needs a bound"))?;
                nodes = Some(vec![None; parse_slot_bound(rest, "task")?]);
            }
            "task" => {
                let mut fields = line.splitn(3, '\t');
                let _ = fields.next();
                let index = parse_index(
                    fields.next().ok_or_else(|| err("task needs an index"))?,
                    "task index",
                )?;
                let task_name = fields.next().ok_or_else(|| err("task needs a name"))?;
                let slot = nodes
                    .as_mut()
                    .and_then(|n| n.get_mut(index))
                    .ok_or_else(|| err(format!("task index {index} out of bounds")))?;
                if slot.is_some() {
                    return Err(err(format!("duplicate task slot {index}")));
                }
                *slot = Some(AtomicTask::new(task_name));
            }
            "task-desc" => {
                let mut fields = line.splitn(3, '\t');
                let _ = fields.next();
                let index = parse_index(
                    fields
                        .next()
                        .ok_or_else(|| err("task-desc needs an index"))?,
                    "task index",
                )?;
                let description = fields
                    .next()
                    .ok_or_else(|| err("task-desc needs a description"))?;
                let task = nodes
                    .as_mut()
                    .and_then(|n| n.get_mut(index))
                    .and_then(Option::as_mut)
                    .ok_or_else(|| err(format!("task-desc for unknown task slot {index}")))?;
                task.description = Some(description.to_owned());
            }
            "task-param" => {
                let mut fields = line.splitn(4, '\t');
                let _ = fields.next();
                let index = parse_index(
                    fields
                        .next()
                        .ok_or_else(|| err("task-param needs an index"))?,
                    "task index",
                )?;
                let key = fields.next().ok_or_else(|| err("task-param needs a key"))?;
                let value = fields
                    .next()
                    .ok_or_else(|| err("task-param needs a value"))?;
                let task = nodes
                    .as_mut()
                    .and_then(|n| n.get_mut(index))
                    .and_then(Option::as_mut)
                    .ok_or_else(|| err(format!("task-param for unknown task slot {index}")))?;
                task.params.insert(key.to_owned(), value.to_owned());
            }
            "edges" => {
                let (_, rest) = line
                    .split_once('\t')
                    .ok_or_else(|| err("edges needs a bound"))?;
                edges = Some(vec![None; parse_slot_bound(rest, "edge")?]);
            }
            "edge" | "edge-labelled" => {
                let labelled = directive == "edge-labelled";
                let mut fields = line.splitn(if labelled { 5 } else { 4 }, '\t');
                let _ = fields.next();
                let index = parse_index(
                    fields.next().ok_or_else(|| err("edge needs an index"))?,
                    "edge index",
                )?;
                let from = parse_task_id(
                    fields.next().ok_or_else(|| err("edge needs a source"))?,
                    "edge source",
                )?;
                let to = parse_task_id(
                    fields.next().ok_or_else(|| err("edge needs a target"))?,
                    "edge target",
                )?;
                let dependency = if labelled {
                    DataDependency::named(fields.next().ok_or_else(|| err("edge needs a label"))?)
                } else {
                    DataDependency::unnamed()
                };
                let slot = edges
                    .as_mut()
                    .and_then(|e| e.get_mut(index))
                    .ok_or_else(|| err(format!("edge index {index} out of bounds")))?;
                if slot.is_some() {
                    return Err(err(format!("duplicate edge slot {index}")));
                }
                *slot = Some((from, to, dependency));
            }
            other => return Err(err(format!("unknown spec directive '{other}'"))),
        }
    }
    let name = name.ok_or_else(|| err("missing spec header"))?;
    let nodes = nodes.ok_or_else(|| err("missing tasks bound"))?;
    let edges = edges.ok_or_else(|| err("missing edges bound"))?;
    let graph = DiGraph::from_slots(nodes, edges).map_err(|e| err(e.to_string()))?;
    WorkflowSpec::restore(name, graph, epoch).map_err(|e| err(e.to_string()))
}

/// Serialises a view, slot layout included (tombstones left by splits,
/// merges and removals are preserved so future composite ids match).
#[must_use]
pub fn view_to_lines(view: &WorkflowView) -> Vec<String> {
    let mut lines = Vec::with_capacity(2 + view.composite_count());
    lines.push(format!("view\t{}", view.name()));
    lines.push(format!("slots\t{}", view.composite_slot_count()));
    for (id, composite) in view.composites() {
        let members: Vec<String> = composite
            .members()
            .iter()
            .map(|m| m.index().to_string())
            .collect();
        lines.push(format!(
            "composite\t{}\t{}\t{}",
            id.index(),
            members.join(","),
            composite.name
        ));
    }
    lines
}

/// Checks that a view is representable in the line format.
///
/// # Errors
/// Names the offending field.
pub fn check_view_serialisable(view: &WorkflowView) -> Result<(), WorkflowError> {
    check_single_line("view name", view.name())?;
    for (_, composite) in view.composites() {
        check_single_line("composite name", &composite.name)?;
    }
    Ok(())
}

/// Restores a view serialised by [`view_to_lines`]. Whether it partitions a
/// spec's tasks is checked by the caller via
/// [`WorkflowView::validate_against`].
///
/// # Errors
/// Reports malformed lines and overlapping member sets.
pub fn view_from_lines(lines: &[String]) -> Result<WorkflowView, WorkflowError> {
    let mut name: Option<String> = None;
    let mut slots: Option<Vec<Option<CompositeTask>>> = None;
    for line in lines {
        let directive = line.split('\t').next().unwrap_or_default();
        match directive {
            "view" => {
                let (_, rest) = line
                    .split_once('\t')
                    .ok_or_else(|| err("view needs a name"))?;
                name = Some(rest.to_owned());
            }
            "slots" => {
                let (_, rest) = line
                    .split_once('\t')
                    .ok_or_else(|| err("slots needs a bound"))?;
                slots = Some(vec![None; parse_slot_bound(rest, "slot")?]);
            }
            "composite" => {
                let mut fields = line.splitn(4, '\t');
                let _ = fields.next();
                let index = parse_index(
                    fields
                        .next()
                        .ok_or_else(|| err("composite needs an index"))?,
                    "composite index",
                )?;
                let members = fields
                    .next()
                    .ok_or_else(|| err("composite needs a member list"))?
                    .split(',')
                    .map(|m| parse_task_id(m, "composite member"))
                    .collect::<Result<Vec<_>, _>>()?;
                let composite_name = fields.next().ok_or_else(|| err("composite needs a name"))?;
                let slot = slots
                    .as_mut()
                    .and_then(|s| s.get_mut(index))
                    .ok_or_else(|| err(format!("composite index {index} out of bounds")))?;
                if slot.is_some() {
                    return Err(err(format!("duplicate composite slot {index}")));
                }
                *slot = Some(CompositeTask::new(composite_name, members)?);
            }
            other => return Err(err(format!("unknown view directive '{other}'"))),
        }
    }
    let name = name.ok_or_else(|| err("missing view header"))?;
    let slots = slots.ok_or_else(|| err("missing slots bound"))?;
    WorkflowView::from_slots(name, slots)
}

/// Serialises one [`SpecDelta`] as a single line.
#[must_use]
pub fn delta_to_line(delta: &SpecDelta) -> String {
    match delta.kind {
        SpecDeltaKind::TaskAdded(task) => {
            format!("delta\t{}\ttask-added\t{}", delta.epoch, task.index())
        }
        SpecDeltaKind::TaskRemoved(task) => {
            format!("delta\t{}\ttask-removed\t{}", delta.epoch, task.index())
        }
        SpecDeltaKind::DependencyAdded(from, to) => format!(
            "delta\t{}\tdep-added\t{}\t{}",
            delta.epoch,
            from.index(),
            to.index()
        ),
        SpecDeltaKind::DependencyRemoved(from, to) => format!(
            "delta\t{}\tdep-removed\t{}\t{}",
            delta.epoch,
            from.index(),
            to.index()
        ),
    }
}

/// Parses one line written by [`delta_to_line`].
///
/// # Errors
/// Reports unknown kinds and malformed fields.
pub fn delta_from_line(line: &str) -> Result<SpecDelta, WorkflowError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.first() != Some(&"delta") || fields.len() < 4 {
        return Err(err(format!("malformed delta line '{line}'")));
    }
    let epoch = fields[1]
        .parse::<u64>()
        .map_err(|_| err(format!("invalid delta epoch '{}'", fields[1])))?;
    let one = |what| parse_task_id(fields[3], what);
    let two = |what| -> Result<(TaskId, TaskId), WorkflowError> {
        if fields.len() != 5 {
            return Err(err(format!("malformed delta line '{line}'")));
        }
        Ok((
            parse_task_id(fields[3], what)?,
            parse_task_id(fields[4], what)?,
        ))
    };
    let kind = match fields[2] {
        "task-added" => SpecDeltaKind::TaskAdded(one("task id")?),
        "task-removed" => SpecDeltaKind::TaskRemoved(one("task id")?),
        "dep-added" => {
            let (from, to) = two("dependency endpoint")?;
            SpecDeltaKind::DependencyAdded(from, to)
        }
        "dep-removed" => {
            let (from, to) = two("dependency endpoint")?;
            SpecDeltaKind::DependencyRemoved(from, to)
        }
        other => return Err(err(format!("unknown delta kind '{other}'"))),
    };
    Ok(SpecDelta { epoch, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use crate::mutation::SpecMutation;

    fn sample_spec() -> WorkflowSpec {
        let mut builder = WorkflowBuilder::new("sample");
        let a = builder.task("a");
        let b = builder.task("b");
        let c = builder.task("c");
        let d = builder.task("d");
        builder.edge(a, b).unwrap();
        builder.edge(b, c).unwrap();
        builder.edge(a, d).unwrap();
        let mut spec = builder.build().unwrap();
        // punch tombstones into both slot vectors
        spec.remove_dependency(a, d).unwrap();
        spec.remove_task(d).unwrap();
        spec
    }

    fn assert_specs_equivalent(left: &WorkflowSpec, right: &WorkflowSpec) {
        assert_eq!(left.name(), right.name());
        assert_eq!(left.epoch(), right.epoch());
        assert_eq!(left.graph().node_bound(), right.graph().node_bound());
        assert_eq!(left.graph().edge_bound(), right.graph().edge_bound());
        let tasks = |s: &WorkflowSpec| -> Vec<(usize, AtomicTask)> {
            s.tasks().map(|(id, t)| (id.index(), t.clone())).collect()
        };
        assert_eq!(tasks(left), tasks(right));
        let deps = |s: &WorkflowSpec| -> Vec<(usize, usize)> {
            s.dependencies()
                .map(|(f, t)| (f.index(), t.index()))
                .collect()
        };
        assert_eq!(deps(left), deps(right));
    }

    #[test]
    fn spec_round_trips_with_tombstones_and_metadata() {
        let spec = sample_spec();
        let lines = spec_to_lines(&spec);
        check_spec_serialisable(&spec).unwrap();
        let restored = spec_from_lines(&lines).unwrap();
        assert_specs_equivalent(&spec, &restored);
        // future id assignment matches: the next task gets the same id
        let mut live = spec.clone();
        let mut back = restored;
        assert_eq!(
            live.add_task(AtomicTask::new("next")).unwrap(),
            back.add_task(AtomicTask::new("next")).unwrap()
        );
        let a = live.task_by_name("a").unwrap();
        let next = live.task_by_name("next").unwrap();
        live.add_dependency(a, next, DataDependency::unnamed())
            .unwrap();
        back.add_dependency(a, next, DataDependency::unnamed())
            .unwrap();
        assert_eq!(
            live.graph().find_edge(a, next),
            back.graph().find_edge(a, next)
        );
    }

    #[test]
    fn spec_lines_with_a_log_cap_line_restore_to_the_same_spec() {
        let spec = sample_spec();
        // the line format of writers that still persisted a delta-log cap
        let legacy: Vec<String> = [
            "spec\tsample",
            "epoch\t9",
            "log-cap\t1024",
            "tasks\t4",
            "task\t0\ta",
            "task\t1\tb",
            "task\t2\tc",
            "edges\t3",
            "edge\t0\t0\t1",
            "edge\t1\t1\t2",
        ]
        .map(str::to_owned)
        .to_vec();
        assert_specs_equivalent(&spec, &spec_from_lines(&legacy).unwrap());
        // today's writer emits the same lines minus the cap
        let current: Vec<String> = legacy
            .iter()
            .filter(|line| !line.starts_with("log-cap\t"))
            .cloned()
            .collect();
        assert_eq!(spec_to_lines(&spec), current);
    }

    fn lines(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|&line| line.to_owned()).collect()
    }

    #[test]
    fn a_task_bound_past_the_limit_is_refused_before_allocating() {
        let refused = spec_from_lines(&lines(&["spec\tx", "tasks\t1000000000000", "edges\t0"]));
        assert_eq!(
            refused.unwrap_err(),
            WorkflowError::SlotBoundTooLarge {
                what: "task",
                bound: 1_000_000_000_000
            }
        );
    }

    #[test]
    fn an_edge_bound_past_the_limit_is_refused_before_allocating() {
        let refused = spec_from_lines(&lines(&["spec\tx", "tasks\t0", "edges\t1000000000000"]));
        assert_eq!(
            refused.unwrap_err(),
            WorkflowError::SlotBoundTooLarge {
                what: "edge",
                bound: 1_000_000_000_000
            }
        );
    }

    #[test]
    fn a_view_slot_bound_past_the_limit_is_refused_before_allocating() {
        let refused = view_from_lines(&lines(&["view\tv", "slots\t1000000000000"]));
        assert_eq!(
            refused.unwrap_err(),
            WorkflowError::SlotBoundTooLarge {
                what: "slot",
                bound: 1_000_000_000_000
            }
        );
        // bounds over the record count stay legal: tombstones
        let view = view_from_lines(&lines(&["view\tv", "slots\t64"])).unwrap();
        assert_eq!(view.composite_slot_count(), 64);
    }

    #[test]
    fn a_spec_at_the_slot_limit_round_trips_and_refuses_one_more_slot() {
        let mut spec = WorkflowSpec::new("full");
        let a = spec.add_task(AtomicTask::new("a")).unwrap();
        let b = spec.add_task(AtomicTask::new("b")).unwrap();
        // every re-add of a removed dependency takes a fresh slot
        spec.add_dependency(a, b, DataDependency::unnamed())
            .unwrap();
        while spec.graph().edge_bound() < MAX_SLOT_BOUND {
            spec.remove_dependency(a, b).unwrap();
            spec.add_dependency(a, b, DataDependency::unnamed())
                .unwrap();
        }
        for i in spec.graph().node_bound()..MAX_SLOT_BOUND {
            spec.add_task(AtomicTask::new(format!("t{i}"))).unwrap();
        }
        let restored = spec_from_lines(&spec_to_lines(&spec)).unwrap();
        assert_specs_equivalent(&spec, &restored);
        assert_eq!(restored.graph().node_bound(), MAX_SLOT_BOUND);
        assert_eq!(restored.graph().edge_bound(), MAX_SLOT_BOUND);

        // one slot more of either kind is refused and changes nothing
        spec.remove_dependency(a, b).unwrap();
        let before = spec.clone();
        assert_eq!(
            spec.add_task(AtomicTask::new("one more")).unwrap_err(),
            WorkflowError::SlotBoundTooLarge {
                what: "task",
                bound: MAX_SLOT_BOUND + 1
            }
        );
        assert_eq!(
            spec.apply(SpecMutation::AddDependency { from: a, to: b })
                .unwrap_err(),
            WorkflowError::SlotBoundTooLarge {
                what: "edge",
                bound: MAX_SLOT_BOUND + 1
            }
        );
        assert_specs_equivalent(&before, &spec);
        assert_eq!(spec.task_by_name("one more"), None);
        // what is still stored keeps round-tripping
        assert_specs_equivalent(&spec, &spec_from_lines(&spec_to_lines(&spec)).unwrap());
    }

    #[test]
    fn a_view_at_the_slot_limit_round_trips_and_refuses_one_more_composite() {
        let mut spec = WorkflowSpec::new("s");
        let tasks: Vec<TaskId> = ["a", "b", "c"]
            .into_iter()
            .map(|name| spec.add_task(AtomicTask::new(name)).unwrap())
            .collect();
        let mut view = WorkflowView::from_groups(
            &spec,
            "v",
            vec![
                ("pair".into(), vec![tasks[0], tasks[1]]),
                ("single".into(), vec![tasks[2]]),
            ],
        )
        .unwrap();
        let composite = |view: &WorkflowView, name: &str| {
            view.composites()
                .find(|(_, c)| c.name == name)
                .map(|(id, _)| id)
                .unwrap()
        };
        // a one-part split moves the composite to a fresh slot
        while view.composite_slot_count() < MAX_SLOT_BOUND {
            let pair = composite(&view, "pair");
            view.split_composite(pair, vec![vec![tasks[0], tasks[1]]])
                .unwrap();
        }
        let restored = view_from_lines(&view_to_lines(&view)).unwrap();
        assert_eq!(restored.composite_slot_count(), MAX_SLOT_BOUND);
        assert_eq!(view_to_lines(&restored), view_to_lines(&view));

        let refused = |bound| WorkflowError::SlotBoundTooLarge {
            what: "slot",
            bound,
        };
        let pair = composite(&view, "pair");
        let single = composite(&view, "single");
        let before = view_to_lines(&view);
        assert_eq!(
            view.split_composite(pair, vec![vec![tasks[0]], vec![tasks[1]]])
                .unwrap_err(),
            refused(MAX_SLOT_BOUND + 2)
        );
        assert_eq!(
            view.merge_composites(&[pair, single], "all").unwrap_err(),
            refused(MAX_SLOT_BOUND + 1)
        );
        let d = spec.add_task(AtomicTask::new("d")).unwrap();
        assert_eq!(
            view.add_composite("d", vec![d]).unwrap_err(),
            refused(MAX_SLOT_BOUND + 1)
        );
        assert_eq!(view_to_lines(&view), before);
        assert_eq!(view.composite_of(tasks[0]), Some(pair));
        assert_eq!(view.composite_of(d), None);
        assert_eq!(
            WorkflowView::from_slots("v", vec![None; MAX_SLOT_BOUND + 1]).unwrap_err(),
            refused(MAX_SLOT_BOUND + 1)
        );
    }

    #[test]
    fn spec_metadata_fields_round_trip() {
        let mut spec = WorkflowSpec::new("meta");
        let a = spec
            .add_task(
                AtomicTask::new("curate")
                    .with_description("manual pass")
                    .with_param("tool", "curator-2.1"),
            )
            .unwrap();
        let b = spec.add_task(AtomicTask::new("align")).unwrap();
        spec.add_dependency(a, b, DataDependency::named("alignment"))
            .unwrap();
        let restored = spec_from_lines(&spec_to_lines(&spec)).unwrap();
        assert_specs_equivalent(&spec, &restored);
        let task = restored.task(a).unwrap();
        assert_eq!(task.description.as_deref(), Some("manual pass"));
        assert_eq!(
            task.params.get("tool").map(String::as_str),
            Some("curator-2.1")
        );
        let (_, _, _, dependency) = restored.graph().edges().next().unwrap();
        assert_eq!(dependency.label.as_deref(), Some("alignment"));
    }

    #[test]
    fn view_round_trips_with_tombstones() {
        let spec = sample_spec();
        let ids: Vec<TaskId> = spec.task_ids().collect();
        let mut view = WorkflowView::singletons(&spec, "fine");
        let a = view.composite_of(ids[0]).unwrap();
        let b = view.composite_of(ids[1]).unwrap();
        view.merge_composites(&[a, b], "front").unwrap();
        let lines = view_to_lines(&view);
        check_view_serialisable(&view).unwrap();
        let restored = view_from_lines(&lines).unwrap();
        assert_eq!(restored.name(), view.name());
        assert_eq!(restored.composite_slot_count(), view.composite_slot_count());
        assert_eq!(restored.composite_count(), view.composite_count());
        for (id, composite) in view.composites() {
            let other = restored.composite(id).unwrap();
            assert_eq!(other.name, composite.name);
            assert_eq!(other.members(), composite.members());
        }
        assert!(restored.validate_against(&spec).is_ok());
        // future composite ids match: splitting the merged composite in
        // both views lands the parts on the same slots
        let mut live = view.clone();
        let mut back = restored;
        let merged = live.composite_of(ids[0]).unwrap();
        let split_live = live
            .split_composite(merged, vec![vec![ids[0]], vec![ids[1]]])
            .unwrap();
        let split_back = back
            .split_composite(merged, vec![vec![ids[0]], vec![ids[1]]])
            .unwrap();
        assert_eq!(split_live, split_back);
    }

    #[test]
    fn deltas_round_trip_through_lines() {
        let deltas = [
            SpecDelta {
                epoch: 1,
                kind: SpecDeltaKind::TaskAdded(TaskId::from_index(0)),
            },
            SpecDelta {
                epoch: 2,
                kind: SpecDeltaKind::TaskRemoved(TaskId::from_index(0)),
            },
            SpecDelta {
                epoch: 3,
                kind: SpecDeltaKind::DependencyAdded(TaskId::from_index(1), TaskId::from_index(2)),
            },
            SpecDelta {
                epoch: 4,
                kind: SpecDeltaKind::DependencyRemoved(
                    TaskId::from_index(2),
                    TaskId::from_index(1),
                ),
            },
        ];
        for delta in &deltas {
            let line = delta_to_line(delta);
            assert_eq!(&delta_from_line(&line).unwrap(), delta);
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let bad_specs: &[&[&str]] = &[
            &["frobnicate\tx"],
            &["spec\tx", "tasks\t1", "task\t5\ta", "edges\t0"],
            &[
                "spec\tx",
                "tasks\t2",
                "task\t0\ta",
                "task\t0\tb",
                "edges\t0",
            ],
            &[
                "spec\tx",
                "tasks\t1",
                "task\t0\ta",
                "edges\t1",
                "edge\t0\t0\t0",
            ],
            &[
                "spec\tx",
                "tasks\t2",
                "task\t0\tsame",
                "task\t1\tsame",
                "edges\t0",
            ],
            &["tasks\t0", "edges\t0"],
            &["spec\tx", "edges\t0"],
            &["spec\tx", "tasks\t0"],
        ];
        for lines in bad_specs {
            let owned: Vec<String> = lines.iter().map(|s| (*s).to_string()).collect();
            assert!(spec_from_lines(&owned).is_err(), "accepted {lines:?}");
        }
        let bad_views: &[&[&str]] = &[
            &["view\tx"],
            &[
                "view\tx",
                "slots\t1",
                "composite\t0\t0\ta",
                "composite\t0\t1\tb",
            ],
            &[
                "view\tx",
                "slots\t2",
                "composite\t0\t0\ta",
                "composite\t1\t0\tb",
            ],
            &["view\tx", "slots\t1", "composite\t9\t0\ta"],
            &["view\tx", "slots\t1", "composite\t0\t\ta"],
        ];
        for lines in bad_views {
            let owned: Vec<String> = lines.iter().map(|s| (*s).to_string()).collect();
            assert!(view_from_lines(&owned).is_err(), "accepted {lines:?}");
        }
        assert!(delta_from_line("delta\tnope\ttask-added\t0").is_err());
        assert!(delta_from_line("delta\t1\tdep-added\t0").is_err());
    }

    #[test]
    fn multi_line_names_are_rejected_before_serialisation() {
        let mut spec = WorkflowSpec::new("bad\nname");
        assert!(check_spec_serialisable(&spec).is_err());
        spec = WorkflowSpec::new("fine");
        spec.add_task(AtomicTask::new("task\nwith newline"))
            .unwrap();
        assert!(check_spec_serialisable(&spec).is_err());
        let ok = sample_spec();
        assert!(check_spec_serialisable(&ok).is_ok());
    }

    mod properties {
        use super::*;
        use crate::view::CompositeTaskId;
        use proptest::prelude::*;

        /// Random edit script: grows a spec task by task, wiring each new
        /// task to a random predecessor, with occasional removals — the
        /// resulting slot vectors contain tombstones in random places.
        fn spec_strategy() -> impl Strategy<Value = WorkflowSpec> {
            proptest::collection::vec((0u8..4, 0usize..8), 1..24).prop_map(|script| {
                let mut spec = WorkflowSpec::new("prop");
                let mut counter = 0usize;
                for (op, pick) in script {
                    let ids: Vec<TaskId> = spec.task_ids().collect();
                    match op {
                        0 | 1 => {
                            let id = spec
                                .add_task(AtomicTask::new(format!("t{counter}")))
                                .unwrap();
                            counter += 1;
                            if !ids.is_empty() {
                                let from = ids[pick % ids.len()];
                                let _ = spec.add_dependency(from, id, DataDependency::unnamed());
                            }
                        }
                        2 if ids.len() > 1 => {
                            let from = ids[pick % ids.len()];
                            let to = ids[(pick + 1) % ids.len()];
                            let _ = spec.remove_dependency(from, to);
                        }
                        _ if !ids.is_empty() => {
                            let _ = spec.remove_task(ids[pick % ids.len()]);
                        }
                        _ => {}
                    }
                }
                spec
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn random_specs_round_trip(spec in spec_strategy()) {
                let lines = spec_to_lines(&spec);
                let restored = spec_from_lines(&lines).unwrap();
                assert_specs_equivalent(&spec, &restored);
                // and the restored spec re-serialises identically
                prop_assert_eq!(spec_to_lines(&restored), lines);
            }

            #[test]
            fn random_views_round_trip(spec in spec_strategy(), seed in 0usize..64) {
                if spec.task_count() == 0 {
                    return;
                }
                let mut view = WorkflowView::singletons(&spec, "prop-view");
                // random merges leave tombstoned slots behind
                let ids: Vec<CompositeTaskId> = view.composite_ids().collect();
                if ids.len() >= 2 {
                    let a = ids[seed % ids.len()];
                    let b = ids[(seed / 2) % ids.len()];
                    if a != b {
                        view.merge_composites(&[a, b], "merged").unwrap();
                    }
                }
                let lines = view_to_lines(&view);
                let restored = view_from_lines(&lines).unwrap();
                prop_assert_eq!(view_to_lines(&restored), lines);
                prop_assert!(restored.validate_against(&spec).is_ok());
            }
        }
    }
}
