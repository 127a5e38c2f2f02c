//! # wolves-cli
//!
//! The WOLVES application: a command-line realisation of the demo
//! architecture (paper Figure 2). Each module of the figure maps to a
//! function in this crate:
//!
//! | Figure 2 module | Function |
//! |-----------------|----------|
//! | Import and Understand Workflow and View | [`import_command`], [`show_command`] |
//! | Workflow View Validator | [`validate_command`] |
//! | Workflow View Corrector | [`correct_command`] |
//! | Workflow View Feedback | [`merge_command`] |
//! | Workflow View Displayer | [`render_command`], [`show_command`] |
//!
//! Beyond Figure 2, the serving layer (`wolves-service`) is exposed through
//! `wolves serve` (see the binary) and the [`remote_register`],
//! [`remote_validate`], [`remote_correct`], [`remote_mutate`],
//! [`remote_provenance`], [`remote_export`], [`remote_snapshot`],
//! [`remote_heal`], [`remote_stats`] and [`remote_shutdown`] client
//! commands, plus [`fixture_command`] to materialise the paper fixtures as
//! input files. Every remote command takes an optional
//! [`RequestPolicy`] (the CLI's
//! `--timeout-ms`/`--retries` flags): with a policy, transient failures —
//! connection refused, timeouts, an overloaded or degraded server — are
//! retried with capped exponential backoff, and mutations retry
//! idempotently through expected-epoch CAS so a lost acknowledgement can
//! never double-apply an edit.
//! `wolves mutate` drives the interactive correction loop: registered
//! workflows are edited in place (add/remove task or edge, split or merge
//! composites) and the server invalidates only the cached verdicts the edit
//! could have changed; [`remote_export`] downloads the edited workflow back
//! in registrable form. [`recover_command`] (`wolves recover`) checks and
//! replays a `--data-dir` offline.
//!
//! The binary (`wolves`) parses arguments and dispatches to these functions;
//! they all return plain strings so they are directly testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

use wolves_core::correct::{correct_view, Strategy};
use wolves_core::validate::{validate, validate_by_definition, validate_naive};
use wolves_graph::dot::{to_dot, DotOptions};
use wolves_moml::{from_moml, read_text_format, to_moml, write_text_format, ImportedWorkflow};
use wolves_service::{
    MutateOp, MutateOutcome, Request, RequestPolicy, Response, ServiceClient, ServiceError,
    WatchEvent, WatchMode, WorkflowId,
};
use wolves_workflow::render::{describe_spec, describe_view};
use wolves_workflow::{WorkflowSpec, WorkflowView};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// The input file could not be read.
    Io(String, std::io::Error),
    /// The input could not be parsed as MOML or the native text format.
    Parse(String),
    /// The requested operation failed.
    Operation(String),
    /// A request to a `wolves serve` instance failed.
    Service(ServiceError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "cannot read '{path}': {e}"),
            CliError::Parse(message) => write!(f, "parse error: {message}"),
            CliError::Operation(message) => write!(f, "{message}"),
            CliError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl From<ServiceError> for CliError {
    fn from(e: ServiceError) -> Self {
        CliError::Service(e)
    }
}

impl std::error::Error for CliError {}

/// Loads a workflow (and optional view) from a file. Files ending in
/// `.xml` / `.moml` are parsed as MOML, everything else as the native text
/// format.
///
/// # Errors
/// Reports unreadable files and parse failures.
pub fn load_workflow(path: &str) -> Result<ImportedWorkflow, CliError> {
    let content = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))?;
    parse_workflow(path, &content)
}

/// Parses workflow content, choosing the format from the file name.
///
/// # Errors
/// Reports parse failures with the underlying message.
pub fn parse_workflow(path: &str, content: &str) -> Result<ImportedWorkflow, CliError> {
    let lower = path.to_ascii_lowercase();
    let imported = if lower.ends_with(".xml") || lower.ends_with(".moml") {
        from_moml(content)
    } else {
        read_text_format(content)
    };
    imported.map_err(|e| CliError::Parse(e.to_string()))
}

/// The *Import and Understand* module: loads a file and summarises it.
///
/// # Errors
/// Propagates load errors.
pub fn import_command(path: &str) -> Result<String, CliError> {
    let imported = load_workflow(path)?;
    Ok(show_command(&imported.spec, imported.view.as_ref()))
}

/// The *Displayer* module: a textual summary of a specification and view.
#[must_use]
pub fn show_command(spec: &WorkflowSpec, view: Option<&WorkflowView>) -> String {
    let mut out = describe_spec(spec);
    if let Some(view) = view {
        out.push('\n');
        out.push_str(&describe_view(spec, view));
    }
    out
}

/// The *Validator* module: reports per-composite soundness, highlighting the
/// unsound composite tasks the GUI would paint red, plus the definition-level
/// mismatches.
#[must_use]
pub fn validate_command(spec: &WorkflowSpec, view: &WorkflowView) -> String {
    let report = validate(spec, view);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "view '{}': {}",
        view.name(),
        if report.is_sound() {
            "SOUND"
        } else {
            "UNSOUND"
        }
    );
    for composite in report.reports() {
        if composite.verdict.is_sound() {
            let _ = writeln!(out, "  [sound]   {}", composite.name);
        } else {
            let _ = writeln!(
                out,
                "  [UNSOUND] {} ({} violating pairs)",
                composite.name,
                composite.verdict.witnesses.len()
            );
            for witness in &composite.verdict.witnesses {
                let input = spec
                    .task(witness.input)
                    .map(|t| t.name.clone())
                    .unwrap_or_default();
                let output = spec
                    .task(witness.output)
                    .map(|t| t.name.clone())
                    .unwrap_or_default();
                let _ = writeln!(out, "      no path: '{input}' -> '{output}'");
            }
        }
    }
    let definition = validate_by_definition(spec, view);
    let _ = writeln!(
        out,
        "definition check: {} spurious, {} missing view dependencies",
        definition.spurious.len(),
        definition.missing.len()
    );
    out
}

/// Cross-checks a view with the exponential path-enumeration check
/// (`wolves validate --naive`). The check is guarded by
/// [`validate_naive`]'s `max_nodes` refusal: oversized workflows are
/// declined with an explanatory message instead of hanging the process.
#[must_use]
pub fn naive_check_command(spec: &WorkflowSpec, view: &WorkflowView, max_nodes: usize) -> String {
    match validate_naive(spec, view, max_nodes) {
        Some(report) => format!(
            "naive definition check: {} spurious, {} missing view dependencies\n",
            report.spurious.len(),
            report.missing.len()
        ),
        None => format!(
            "naive check refused: {} tasks exceeds the --naive limit of {max_nodes} \
             (the check enumerates paths and is exponential; the polynomial checks \
             above already cover Definition 2.1)\n",
            spec.task_count()
        ),
    }
}

/// The *Corrector* module: corrects every unsound composite task with the
/// requested strategy and reports what changed.
///
/// # Errors
/// Reports unknown strategies and corrector failures.
pub fn correct_command(
    spec: &WorkflowSpec,
    view: &WorkflowView,
    strategy_name: &str,
) -> Result<(WorkflowView, String), CliError> {
    let strategy = Strategy::parse(strategy_name)
        .ok_or_else(|| CliError::Operation(format!("unknown corrector '{strategy_name}'")))?;
    let mut out = String::new();
    let corrector = strategy.corrector();
    let (corrected, report) = correct_view(spec, view, corrector.as_ref())
        .map_err(|e| CliError::Operation(e.to_string()))?;
    if report.was_already_sound() {
        let _ = writeln!(out, "view is already sound; nothing to correct");
    }
    for correction in &report.corrections {
        let _ = writeln!(
            out,
            "split '{}' ({} tasks) into {} sound composite tasks in {:.1?}",
            correction.original_name,
            correction.task_count,
            correction.replacements.len(),
            correction.elapsed
        );
    }
    let _ = writeln!(
        out,
        "composite tasks: {} -> {}",
        report.composites_before, report.composites_after
    );
    Ok((corrected, out))
}

/// The *Feedback* module: merges composite tasks ("Create Composite Task")
/// and reports whether the merged composite is sound.
///
/// # Errors
/// Reports unknown composite names.
pub fn merge_command(
    spec: &WorkflowSpec,
    view: &mut WorkflowView,
    composite_names: &[&str],
    merged_name: &str,
) -> Result<String, CliError> {
    let ids: Vec<_> = composite_names
        .iter()
        .map(|name| {
            view.composites()
                .find(|(_, c)| c.name == *name)
                .map(|(id, _)| id)
                .ok_or_else(|| CliError::Operation(format!("unknown composite '{name}'")))
        })
        .collect::<Result<_, _>>()?;
    let merged = view
        .merge_composites(&ids, merged_name)
        .map_err(|e| CliError::Operation(e.to_string()))?;
    let sound = wolves_core::is_sound(
        spec,
        view.composite(merged)
            .map_err(|e| CliError::Operation(e.to_string()))?
            .members(),
    );
    Ok(format!(
        "created composite '{merged_name}' from {} composites: {}\n",
        composite_names.len(),
        if sound {
            "sound"
        } else {
            "UNSOUND — run correct again"
        }
    ))
}

/// The *Displayer* module, graphical flavour: DOT output with one cluster per
/// composite task and unsound composites' members highlighted.
#[must_use]
pub fn render_command(spec: &WorkflowSpec, view: Option<&WorkflowView>) -> String {
    let mut options = DotOptions {
        graph_name: spec.name().to_owned(),
        ..DotOptions::default()
    };
    if let Some(view) = view {
        let report = validate(spec, view);
        let unsound = report.unsound_composites();
        for (id, composite) in view.composites() {
            options.clusters.push((
                composite.name.clone(),
                composite.members().iter().copied().collect(),
            ));
            if unsound.contains(&id) {
                options
                    .highlighted
                    .extend(composite.members().iter().copied());
            }
        }
    }
    to_dot(spec.graph(), &options, |_, task| task.name.clone())
}

/// Exports a workflow and view in the requested format (`"moml"` or
/// `"text"`).
///
/// # Errors
/// Reports unknown formats.
pub fn export_command(
    spec: &WorkflowSpec,
    view: Option<&WorkflowView>,
    format: &str,
) -> Result<String, CliError> {
    match format {
        "moml" | "xml" => Ok(to_moml(spec, view)),
        "text" | "txt" => Ok(write_text_format(spec, view)),
        other => Err(CliError::Operation(format!(
            "unknown export format '{other}'"
        ))),
    }
}

/// Materialises a paper fixture in the native text format, ready to be fed
/// back to `wolves validate` / `wolves request … register`.
///
/// # Errors
/// Reports unknown fixture names.
pub fn fixture_command(name: &str) -> Result<String, CliError> {
    match name {
        "figure1" => {
            let fixture = wolves_repo::figure1();
            Ok(write_text_format(&fixture.spec, Some(&fixture.view)))
        }
        "figure3" => {
            let fixture = wolves_repo::figure3();
            Ok(write_text_format(&fixture.spec, Some(&fixture.view)))
        }
        other => Err(CliError::Operation(format!(
            "unknown fixture '{other}' (expected figure1 or figure3)"
        ))),
    }
}

fn connect(addr: &str) -> Result<ServiceClient, CliError> {
    ServiceClient::connect(addr).map_err(CliError::from)
}

/// Runs `operation` against the server: once over a plain connection when
/// `policy` is `None`, or under the policy's per-attempt timeout and
/// transient-error retry loop (fresh connection per attempt) otherwise.
fn call_with<T>(
    addr: &str,
    policy: Option<&RequestPolicy>,
    mut operation: impl FnMut(&mut ServiceClient) -> Result<T, ServiceError>,
) -> Result<T, CliError> {
    match policy {
        Some(policy) => policy.call(addr, operation).map_err(CliError::from),
        None => operation(&mut connect(addr)?).map_err(CliError::from),
    }
}

/// `wolves request <addr> register <file>`: registers a workflow file with a
/// running server and prints the assigned id. Under a retry policy this is
/// at-least-once: a lost acknowledgement can leave a duplicate registration
/// (unlike `mutate`, which retries through an epoch CAS).
///
/// # Errors
/// Reports unreadable files and transport/server failures.
pub fn remote_register(
    addr: &str,
    path: &str,
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let imported = load_workflow(path)?;
    let payload = write_text_format(&imported.spec, imported.view.as_ref());
    let id = call_with(addr, policy, |client| client.register_text(&payload))?;
    Ok(format!("registered workflow {id}\n"))
}

/// `wolves request <addr> validate <id>`: validates a registered view and
/// prints the verdict, the view version and whether the shard cache answered.
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_validate(
    addr: &str,
    workflow: WorkflowId,
    version: Option<usize>,
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let verdict = call_with(addr, policy, |client| client.validate(workflow, version))?;
    let mut out = format!(
        "workflow {workflow} view version {}: {} (cache {})\n",
        verdict.version,
        if verdict.sound { "SOUND" } else { "UNSOUND" },
        if verdict.cached { "hit" } else { "miss" }
    );
    for name in &verdict.unsound {
        let _ = writeln!(out, "  [UNSOUND] {name}");
    }
    Ok(out)
}

/// `wolves request <addr> validate <id> --pipeline <depth>`: issues `depth`
/// validates of the same workflow pipelined over one connection — every
/// request frame leaves in a single write before any response is read — and
/// prints the verdict plus the measured pipelined round-trip cost.
///
/// # Errors
/// Reports transport/server failures; per-request server errors are counted
/// and the first one is reported.
pub fn remote_validate_pipelined(
    addr: &str,
    workflow: WorkflowId,
    version: Option<usize>,
    depth: usize,
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let depth = depth.max(1);
    let started = std::time::Instant::now();
    let outcomes = call_with(addr, policy, |client| {
        let requests: Vec<Request> = (0..depth)
            .map(|_| Request::Validate { workflow, version })
            .collect();
        client.pipeline(&requests)
    })?;
    let elapsed = started.elapsed();
    let ok = outcomes.iter().filter(|outcome| outcome.is_ok()).count();
    let errors = depth - ok;
    let mut out = String::new();
    let verdict = outcomes.iter().rev().find_map(|outcome| match outcome {
        Ok(Response::Verdict(verdict)) => Some(verdict),
        _ => None,
    });
    match verdict {
        Some(verdict) => {
            let _ = writeln!(
                out,
                "workflow {workflow} view version {}: {} (cache {})",
                verdict.version,
                if verdict.sound { "SOUND" } else { "UNSOUND" },
                if verdict.cached { "hit" } else { "miss" }
            );
            for name in &verdict.unsound {
                let _ = writeln!(out, "  [UNSOUND] {name}");
            }
        }
        None => {
            if let Some(Err(first)) = outcomes.iter().find(|outcome| outcome.is_err()) {
                return Err(CliError::from(ServiceError::Protocol(format!(
                    "all {depth} pipelined validates failed; first error: {first}"
                ))));
            }
        }
    }
    let _ = writeln!(
        out,
        "pipelined {depth} validates in one write: {ok} ok, {errors} err, {:.3} ms total \
         ({:.0} req/s)",
        elapsed.as_secs_f64() * 1e3,
        ok as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    Ok(out)
}

/// `wolves request <addr> correct <id>`: corrects the current view with the
/// given strategy; the corrected view becomes the workflow's current version
/// server-side and is optionally written to `out_path`.
///
/// # Errors
/// Reports unknown strategies, unwritable output paths and transport/server
/// failures.
pub fn remote_correct(
    addr: &str,
    workflow: WorkflowId,
    strategy_name: &str,
    out_path: Option<&str>,
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let strategy = Strategy::parse(strategy_name)
        .ok_or_else(|| CliError::Operation(format!("unknown corrector '{strategy_name}'")))?;
    let corrected = call_with(addr, policy, |client| client.correct(workflow, strategy))?;
    let mut out = format!(
        "workflow {workflow}: composite tasks {} -> {} (now view version {})\n",
        corrected.composites_before, corrected.composites_after, corrected.version
    );
    if let Some(path) = out_path {
        std::fs::write(path, &corrected.payload)
            .map_err(|e| CliError::Operation(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "corrected view written to {path}");
    }
    Ok(out)
}

/// `wolves request <addr> provenance <id> <task>`: prints the view-level
/// provenance of the named task through the workflow's current view.
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_provenance(
    addr: &str,
    workflow: WorkflowId,
    subject: &str,
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let tasks = call_with(addr, policy, |client| client.provenance(workflow, subject))?;
    let mut out = format!("provenance of '{subject}' ({} tasks):\n", tasks.len());
    for task in &tasks {
        let _ = writeln!(out, "  {task}");
    }
    Ok(out)
}

/// Parses the argument form of a mutation op, as accepted by
/// `wolves mutate <addr> <id> <op> …`:
///
/// ```text
/// add-task <name>            remove-task <name>
/// add-edge <from> <to>       remove-edge <from> <to>
/// split <composite> <a,b;c>  merge <new-name> <c1;c2>
/// ```
///
/// `split` parts are `;`-separated lists of `,`-separated member task
/// names; `merge` takes a `;`-separated composite list.
///
/// # Errors
/// Reports unknown ops and wrong arities.
pub fn parse_mutate_op(op: &str, args: &[String]) -> Result<MutateOp, CliError> {
    let arity = |want: usize| -> Result<(), CliError> {
        if args.len() == want {
            Ok(())
        } else {
            Err(CliError::Operation(format!(
                "mutate {op} takes {want} argument(s), got {}",
                args.len()
            )))
        }
    };
    match op {
        "add-task" => {
            arity(1)?;
            Ok(MutateOp::AddTask {
                name: args[0].clone(),
            })
        }
        "remove-task" => {
            arity(1)?;
            Ok(MutateOp::RemoveTask {
                name: args[0].clone(),
            })
        }
        "add-edge" => {
            arity(2)?;
            Ok(MutateOp::AddEdge {
                from: args[0].clone(),
                to: args[1].clone(),
            })
        }
        "remove-edge" => {
            arity(2)?;
            Ok(MutateOp::RemoveEdge {
                from: args[0].clone(),
                to: args[1].clone(),
            })
        }
        "split" => {
            arity(2)?;
            Ok(MutateOp::Split {
                composite: args[0].clone(),
                parts: args[1]
                    .split(';')
                    .map(|part| part.split(',').map(str::to_owned).collect())
                    .collect(),
            })
        }
        "merge" => {
            arity(2)?;
            Ok(MutateOp::Merge {
                name: args[0].clone(),
                composites: args[1].split(';').map(str::to_owned).collect(),
            })
        }
        other => Err(CliError::Operation(format!(
            "unknown mutate op '{other}' (expected add-task, remove-task, \
             add-edge, remove-edge, split or merge)"
        ))),
    }
}

/// `wolves mutate <addr> <id> <op> …`: edits a registered workflow in place
/// and reports the epoch, the delta class and how many cached composite
/// verdicts survived — the interactive correction loop without re-uploading
/// the workflow. Under a retry policy the edit is sent through the
/// expected-epoch CAS protocol: retries are idempotent, and a retry whose
/// earlier send applied (the acknowledgement was lost) reports the applied
/// epoch instead of double-applying.
///
/// # Errors
/// Reports malformed ops and transport/server failures.
pub fn remote_mutate(
    addr: &str,
    workflow: WorkflowId,
    op: &str,
    args: &[String],
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let op = parse_mutate_op(op, args)?;
    let outcome = match policy {
        Some(policy) => match policy.mutate(addr, workflow, op)? {
            MutateOutcome::Applied(outcome) => outcome,
            MutateOutcome::AppliedEarlier { epoch } => {
                return Ok(format!(
                    "workflow {workflow} epoch {epoch}: mutation already applied by an \
                     earlier attempt (its acknowledgement was lost in transit)\n"
                ));
            }
        },
        None => connect(addr)?.mutate(workflow, op)?,
    };
    Ok(format!(
        "workflow {workflow} epoch {}: {} delta; {} cached verdicts invalidated, \
         {} retained (view version {})\n",
        outcome.epoch, outcome.class, outcome.invalidated, outcome.retained, outcome.version
    ))
}

/// `wolves request <addr> export <id> [--out <file>]`: downloads the
/// workflow's current spec + view in registrable textfmt — the resync path
/// after server-side mutations and corrections.
///
/// # Errors
/// Reports unwritable output paths and transport/server failures.
pub fn remote_export(
    addr: &str,
    workflow: WorkflowId,
    out_path: Option<&str>,
    policy: Option<&RequestPolicy>,
) -> Result<String, CliError> {
    let payload = call_with(addr, policy, |client| client.export(workflow))?;
    match out_path {
        Some(path) => {
            std::fs::write(path, &payload)
                .map_err(|e| CliError::Operation(format!("cannot write '{path}': {e}")))?;
            Ok(format!("workflow {workflow} exported to {path}\n"))
        }
        None => Ok(payload),
    }
}

/// `wolves request <addr> snapshot`: forces a snapshot of every shard
/// (durable servers compact their write-ahead logs).
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_snapshot(addr: &str, policy: Option<&RequestPolicy>) -> Result<String, CliError> {
    let shards = call_with(addr, policy, ServiceClient::snapshot)?;
    Ok(format!("snapshotted {shards} shard(s)\n"))
}

/// `wolves request <addr> heal`: asks a degraded server to re-open writes.
/// Each degraded shard retries a compacting snapshot of its current
/// in-memory state; shards whose storage still fails stay read-only and are
/// reported so the operator can retry after fixing the disk.
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_heal(addr: &str, policy: Option<&RequestPolicy>) -> Result<String, CliError> {
    let (healed, still_degraded) = call_with(addr, policy, ServiceClient::heal)?;
    Ok(format!(
        "healed {healed} shard(s), {still_degraded} still degraded\n"
    ))
}

/// `wolves recover <dir>`: offline integrity check + replay report of a
/// durable data directory. Loads the directory's journal, replays it into a
/// store (through the same paths `wolves serve --data-dir` uses, including
/// the post-replay compaction snapshot) and reports what was recovered.
///
/// # Errors
/// Reports unreadable directories, corruption and replay divergence.
pub fn recover_command(dir: &str) -> Result<String, CliError> {
    let root = std::path::Path::new(dir);
    let recorded =
        wolves_service::FileBackend::recorded_shard_count(root).map_err(CliError::Service)?;
    let shards = recorded
        .ok_or_else(|| CliError::Operation(format!("'{dir}' is not a wolves data directory")))?;
    let (store, report) = wolves_service::open_data_dir(root, None).map_err(CliError::Service)?;
    let mut out = format!("data directory '{dir}' ({shards} shard(s)): intact\n{report}");
    let stats = store.stats();
    for shard in &stats.shards {
        let _ = writeln!(
            out,
            "shard {}: {} workflow(s)",
            shard.shard, shard.workflows
        );
    }
    let _ = writeln!(out, "log compacted; next start replays snapshots only");
    Ok(out)
}

/// `wolves request <addr> stats`: prints the per-shard serving counters.
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_stats(addr: &str, policy: Option<&RequestPolicy>) -> Result<String, CliError> {
    let stats = call_with(addr, policy, ServiceClient::stats)?;
    let mut out = String::new();
    for shard in &stats.shards {
        let _ = writeln!(
            out,
            "shard {}: {} workflows, {} requests, validate cache {} hits / {} misses \
             (composites {} / {}), {:.1?} validating, {} snapshots published, \
             {} watcher(s) ({} dropped)",
            shard.shard,
            shard.workflows,
            shard.requests,
            shard.validate_hits,
            shard.validate_misses,
            shard.composite_hits,
            shard.composite_misses,
            std::time::Duration::from_nanos(shard.validate_ns),
            shard.snapshot_publishes,
            shard.active_watchers,
            shard.dropped_watchers
        );
    }
    let _ = writeln!(
        out,
        "total: {} workflows, {} requests, {} snapshot publishes, {} active / {} dropped \
         watchers",
        stats.workflows(),
        stats.requests(),
        stats.snapshot_publishes(),
        stats.active_watchers(),
        stats.dropped_watchers()
    );
    Ok(out)
}

/// `wolves metrics <addr> [slow]`: fetches the server's telemetry — the
/// Prometheus-style text exposition (per-verb and per-commit-stage latency
/// histograms, serving counters, watch gauges, WAL timings), or the
/// slow-request dump when `slow` is set.
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_metrics(addr: &str, slow: bool) -> Result<String, CliError> {
    let mut client = connect(addr)?;
    let mut text = if slow {
        client.metrics_slow()?
    } else {
        client.metrics()?
    };
    if !text.ends_with('\n') {
        text.push('\n');
    }
    Ok(text)
}

/// `wolves request <addr> shutdown`: asks the server to exit.
///
/// # Errors
/// Reports transport/server failures.
pub fn remote_shutdown(addr: &str, policy: Option<&RequestPolicy>) -> Result<String, CliError> {
    call_with(addr, policy, ServiceClient::shutdown)?;
    Ok("server shutting down\n".to_owned())
}

/// Parses the `--mode` argument of `wolves watch`.
///
/// # Errors
/// Reports unknown modes (expected `tail`, `resync` or a sequence number).
pub fn parse_watch_mode(mode: &str) -> Result<WatchMode, CliError> {
    match mode {
        "tail" => Ok(WatchMode::Tail),
        "resync" => Ok(WatchMode::Resync),
        other => other.parse::<u64>().map(WatchMode::From).map_err(|_| {
            CliError::Operation(format!(
                "unknown watch mode '{other}' (expected tail, resync or a sequence number)"
            ))
        }),
    }
}

/// `wolves watch <addr> <id> [--mode tail|resync|<seq>] [--max-events N]`:
/// subscribes to a workflow's committed changes and streams one line per
/// event to `sink` until `max_events` events arrived (`None` = until the
/// stream ends). A `resync` event ends the subscription: the gap-free tail
/// is gone and the caller must re-`export`. Returns a closing summary.
///
/// # Errors
/// Reports transport/server failures and sink write failures.
pub fn remote_watch(
    addr: &str,
    workflow: WorkflowId,
    mode: WatchMode,
    max_events: Option<usize>,
    sink: &mut dyn std::io::Write,
) -> Result<String, CliError> {
    let emit = |sink: &mut dyn std::io::Write, line: &str| -> Result<(), CliError> {
        writeln!(sink, "{line}").map_err(|e| CliError::Operation(format!("cannot write: {e}")))
    };
    let mut stream = connect(addr)?.watch(workflow, mode)?;
    let ack = stream.ack();
    emit(
        sink,
        &format!(
            "watching workflow {} from seq {} (epoch {})",
            ack.workflow, ack.seq, ack.epoch
        ),
    )?;
    if let Some(payload) = &ack.payload {
        emit(
            sink,
            &format!(
                "-- consistent export ({} lines) --",
                payload.lines().count()
            ),
        )?;
        for line in payload.lines() {
            emit(sink, line)?;
        }
        emit(sink, "-- end of export; tailing --")?;
    }
    let mut received = 0usize;
    let mut lagged = false;
    while max_events.map_or(true, |max| received < max) {
        match stream.next_event()? {
            WatchEvent::Mutated {
                seq, op, outcome, ..
            } => {
                emit(
                    sink,
                    &format!(
                        "seq {seq} epoch {}: mutated ({}) — {}; {} invalidated, {} retained",
                        outcome.epoch,
                        op.to_tail().replace('\t', " "),
                        outcome.class,
                        outcome.invalidated,
                        outcome.retained
                    ),
                )?;
            }
            WatchEvent::Corrected { seq, version, .. } => {
                emit(
                    sink,
                    &format!("seq {seq}: corrected — now view version {version}"),
                )?;
            }
            WatchEvent::Resync { seq, .. } => {
                emit(
                    sink,
                    &format!(
                        "seq {seq}: resync — the gap-free tail ended; \
                         re-export and re-subscribe"
                    ),
                )?;
                lagged = true;
                received += 1;
                break;
            }
        }
        received += 1;
    }
    // safe after a resync too: the server is back in request mode and
    // answers the unwatch idempotently
    stream.stop()?;
    Ok(format!(
        "watched workflow {workflow}: {received} event(s){}\n",
        if lagged { ", ended by resync" } else { "" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_repo::figure1;

    #[test]
    fn validate_command_flags_composite_16() {
        let fixture = figure1();
        let output = validate_command(&fixture.spec, &fixture.view);
        assert!(output.contains("UNSOUND"));
        assert!(output.contains("Curate & align (16)"));
        assert!(output.contains("no path"));
        // two spurious view-level dependencies: 14 -> 18 and 15 -> 17
        assert!(output.contains("2 spurious"));
    }

    #[test]
    fn correct_command_reports_the_split() {
        let fixture = figure1();
        let (corrected, output) = correct_command(&fixture.spec, &fixture.view, "strong").unwrap();
        assert!(output.contains("split 'Curate & align (16)'"));
        assert!(output.contains("7 -> 8"));
        assert!(validate(&fixture.spec, &corrected).is_sound());
        assert!(correct_command(&fixture.spec, &fixture.view, "bogus").is_err());
    }

    #[test]
    fn merge_command_round_trips_through_names() {
        let fixture = figure1();
        let mut view = fixture.view.clone();
        let output = merge_command(
            &fixture.spec,
            &mut view,
            &["Retrieve entries (13)", "Annotations (14)"],
            "Front end",
        )
        .unwrap();
        assert!(output.contains("sound"));
        assert_eq!(view.composite_count(), 6);
        assert!(merge_command(&fixture.spec, &mut view, &["nope"], "x").is_err());
    }

    #[test]
    fn render_command_highlights_unsound_members() {
        let fixture = figure1();
        let dot = render_command(&fixture.spec, Some(&fixture.view));
        assert!(dot.contains("subgraph cluster_"));
        assert!(dot.contains("fillcolor"));
        assert!(dot.contains("Curate annotations"));
    }

    #[test]
    fn export_and_parse_round_trip() {
        let fixture = figure1();
        for format in ["moml", "text"] {
            let exported = export_command(&fixture.spec, Some(&fixture.view), format).unwrap();
            let suffix = if format == "moml" { "wf.xml" } else { "wf.txt" };
            let imported = parse_workflow(suffix, &exported).unwrap();
            assert_eq!(imported.spec.task_count(), 12);
            assert!(imported.view.is_some());
        }
        assert!(export_command(&fixture.spec, None, "yaml").is_err());
    }

    #[test]
    fn show_command_summarises_both_panels() {
        let fixture = figure1();
        let output = show_command(&fixture.spec, Some(&fixture.view));
        assert!(output.contains("workflow 'phylogenomic-inference'"));
        assert!(output.contains("view 'figure-1b'"));
    }

    #[test]
    fn fixture_command_round_trips_through_the_parser() {
        for name in ["figure1", "figure3"] {
            let text = fixture_command(name).unwrap();
            let imported = parse_workflow("fixture.txt", &text).unwrap();
            assert!(imported.view.is_some());
        }
        assert!(fixture_command("figure9").is_err());
    }

    #[test]
    fn remote_commands_drive_a_loopback_server() {
        let server = wolves_service::serve(&wolves_service::ServerConfig {
            shards: 2,
            workers: 2,
            ..wolves_service::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();

        let path = std::env::temp_dir().join("wolves-cli-remote-test.txt");
        std::fs::write(&path, fixture_command("figure1").unwrap()).unwrap();
        let registered = remote_register(&addr, &path.to_string_lossy(), None).unwrap();
        assert!(registered.contains("registered workflow 1"));

        let id = WorkflowId(1);
        let unsound = remote_validate(&addr, id, None, None).unwrap();
        assert!(unsound.contains("UNSOUND"));
        assert!(unsound.contains("cache miss"));

        let corrected = remote_correct(&addr, id, "strong", None, None).unwrap();
        assert!(corrected.contains("7 -> 8"));
        assert!(remote_correct(&addr, id, "bogus", None, None).is_err());

        // the same verbs also run under a retry policy (fresh connection,
        // per-attempt timeout) with identical output
        let policy = RequestPolicy::with_timeout_ms(5_000);
        let sound = remote_validate(&addr, id, None, Some(&policy)).unwrap();
        assert!(sound.contains("SOUND"));

        let provenance = remote_provenance(&addr, id, "Format alignment", None).unwrap();
        assert!(provenance.contains("Create alignment"));

        let mutated = remote_mutate(
            &addr,
            id,
            "add-edge",
            &[
                "Check additional annotations".to_owned(),
                "Build phylo tree".to_owned(),
            ],
            None,
        )
        .unwrap();
        assert!(mutated.contains("monotone-safe delta"));
        assert!(mutated.contains("retained"));
        assert!(remote_mutate(&addr, id, "frobnicate", &[], None).is_err());

        // a policy-driven mutate goes through the epoch-CAS protocol
        let mutated = remote_mutate(
            &addr,
            id,
            "add-edge",
            &[
                "Select entries from DB".to_owned(),
                "Extract sequences".to_owned(),
            ],
            Some(&policy),
        )
        .unwrap();
        assert!(mutated.contains("epoch 2"), "got: {mutated}");

        let stats = remote_stats(&addr, None).unwrap();
        assert!(stats.contains("total: 1 workflows"), "got: {stats}");

        // no shard is degraded, so heal is a no-op that still answers
        let healed = remote_heal(&addr, None).unwrap();
        assert!(healed.contains("healed 0 shard(s), 0 still degraded"));

        // export returns the *mutated* workflow in registrable form: the
        // re-registered copy has the extra edge and the corrected view
        let exported = remote_export(&addr, id, None, None).unwrap();
        assert!(exported.contains("edge\tCheck additional annotations\tBuild phylo tree"));
        let reimported = parse_workflow("resync.txt", &exported).unwrap();
        assert_eq!(reimported.spec.dependency_count(), 14);
        assert_eq!(reimported.view.unwrap().composite_count(), 8);
        let out_path = std::env::temp_dir().join("wolves-cli-remote-export.txt");
        let written = remote_export(&addr, id, Some(&out_path.to_string_lossy()), None).unwrap();
        assert!(written.contains("exported to"));
        assert!(std::fs::read_to_string(&out_path)
            .unwrap()
            .contains("workflow\tphylogenomic-inference"));

        // snapshot is a no-op on the in-memory server but still answers
        let snapshotted = remote_snapshot(&addr, None).unwrap();
        assert!(snapshotted.contains("snapshotted 2 shard(s)"));

        // the telemetry scrape reflects the requests issued above
        let metrics = remote_metrics(&addr, false).unwrap();
        assert!(metrics.contains("# TYPE wolves_request_duration_seconds histogram"));
        assert!(metrics.contains("wolves_request_duration_seconds_count{verb=\"validate\"} 2"));
        assert!(metrics.contains("wolves_request_duration_seconds_count{verb=\"mutate\"} 2"));
        let slow = remote_metrics(&addr, true).unwrap();
        assert!(slow.starts_with("slow-requests\t"));
        assert!(slow.contains("slow\tvalidate\t"));

        // server errors come back as their typed variants, not opaque text
        assert!(matches!(
            remote_validate(&addr, WorkflowId(77), None, None),
            Err(CliError::Service(ServiceError::UnknownWorkflow(
                WorkflowId(77)
            )))
        ));

        assert!(remote_shutdown(&addr, None).is_ok());
        server.join();
    }

    #[test]
    fn remote_watch_streams_mutation_events() {
        let server = wolves_service::serve(&wolves_service::ServerConfig {
            shards: 2,
            workers: 2,
            ..wolves_service::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let store = server.store();
        let fixture = figure1();
        let id = store.register(fixture.spec, Some(fixture.view));

        // mutate only once the subscription is registered, so both events
        // land inside the watch window deterministically
        let mutator_store = std::sync::Arc::clone(&store);
        let mutator = std::thread::spawn(move || {
            while mutator_store.stats().active_watchers() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let edge = |from: &str, to: &str| MutateOp::AddEdge {
                from: from.to_owned(),
                to: to.to_owned(),
            };
            mutator_store
                .mutate(id, edge("Check additional annotations", "Build phylo tree"))
                .unwrap();
            mutator_store
                .mutate(id, edge("Select entries from DB", "Extract sequences"))
                .unwrap();
        });

        let mut sink = Vec::new();
        let summary = remote_watch(&addr, id, WatchMode::Tail, Some(2), &mut sink).unwrap();
        mutator.join().unwrap();
        assert!(summary.contains("2 event(s)"), "got: {summary}");
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("watching workflow 1 from seq 0"), "{text}");
        assert!(
            text.contains("mutated (add-edge Check additional annotations Build phylo tree)"),
            "{text}"
        );
        assert!(text.contains("seq 1 epoch 1"), "{text}");
        assert!(text.contains("seq 2 epoch 2"), "{text}");

        assert!(parse_watch_mode("resync").is_ok());
        assert!(matches!(parse_watch_mode("17"), Ok(WatchMode::From(17))));
        assert!(parse_watch_mode("sideways").is_err());

        server.shutdown();
    }
}
