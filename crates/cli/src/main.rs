//! The `wolves` command-line application (paper Figure 2 as a CLI, plus the
//! serving layer of `wolves-service`).
//!
//! ```text
//! wolves show <file>                          summarise a workflow and view
//! wolves validate <file> [--naive <max-nodes>]  check view soundness
//! wolves correct <file> [--strategy weak|strong|optimal] [--out <file>]
//! wolves render <file>                        emit Graphviz DOT
//! wolves export <file> --format moml|text     convert between formats
//! wolves fixture figure1|figure3              print a paper fixture
//! wolves demo                                 run the Figure 1 walk-through
//! wolves serve [--addr A] [--shards N] [--threads N] [--data-dir D]
//! wolves recover <dir>                        offline check + replay report
//! wolves request <addr> <verb> …              talk to a running server
//! wolves mutate <addr> <id> <op> …            edit a registered workflow in place
//! wolves watch <addr> <id> [--mode M]         stream a workflow's committed changes
//! ```
//!
//! Unknown subcommands, unknown options and malformed arguments exit with
//! status 1 and print the usage text on stderr. `wolves serve` exits with
//! status 2 when it cannot bind its address and status 3 when a
//! `--data-dir` cannot be recovered (`wolves recover` shares status 3), so
//! supervisors can tell the failure modes apart. Input files ending in
//! `.xml`/`.moml` are parsed as MOML; everything else uses the native text
//! format (see `wolves-moml`).

use std::process::ExitCode;
use std::sync::Arc;

use wolves_cli::{
    correct_command, export_command, fixture_command, import_command, load_workflow,
    naive_check_command, parse_watch_mode, recover_command, remote_correct, remote_export,
    remote_heal, remote_metrics, remote_mutate, remote_provenance, remote_register,
    remote_shutdown, remote_snapshot, remote_stats, remote_validate, remote_validate_pipelined,
    remote_watch, render_command, show_command, validate_command,
};
use wolves_service::{
    open_data_dir, open_faulted_data_dir, serve_with_store, FaultPlan, RequestPolicy, ServerConfig,
    WorkflowId, WorkflowStore,
};

/// Exit code of malformed invocations and general operation failures.
const EXIT_GENERAL: u8 = 1;
/// Exit code when `wolves serve` cannot bind its address.
const EXIT_BIND: u8 = 2;
/// Exit code when a `--data-dir` cannot be recovered (corruption, replay
/// divergence, shard-count mismatch) — also used by `wolves recover`.
const EXIT_RECOVERY: u8 = 3;

/// A CLI failure: the message for stderr plus the process exit code.
#[derive(Debug)]
struct Failure {
    code: u8,
    message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure {
            code: EXIT_GENERAL,
            message,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("error: {}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}

/// `--flag value` pairs extracted by [`parse_args`].
type Flags = Vec<(String, String)>;

/// Splits `args` into positionals and `--flag value` pairs, rejecting flags
/// outside `allowed` — the malformed-argument guard of the CLI.
fn parse_args(
    command: &str,
    args: &[String],
    allowed: &[&str],
) -> Result<(Vec<String>, Flags), String> {
    let mut positionals = Vec::new();
    let mut flags = Vec::new();
    let mut index = 0;
    while index < args.len() {
        let arg = &args[index];
        if let Some(name) = arg.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(format!(
                    "unknown option '--{name}' for '{command}'\n{USAGE}"
                ));
            }
            let value = args
                .get(index + 1)
                .ok_or_else(|| format!("option '--{name}' needs a value\n{USAGE}"))?;
            flags.push((name.to_owned(), value.clone()));
            index += 2;
        } else {
            positionals.push(arg.clone());
            index += 1;
        }
    }
    Ok((positionals, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn one_positional(command: &str, positionals: &[String]) -> Result<String, String> {
    match positionals {
        [single] => Ok(single.clone()),
        [] => Err(format!("'{command}' needs an input file\n{USAGE}")),
        _ => Err(format!(
            "'{command}' takes exactly one input file, got {}\n{USAGE}",
            positionals.len()
        )),
    }
}

fn parse_number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("invalid {what} '{value}'\n{USAGE}"))
}

fn run(args: &[String]) -> Result<String, Failure> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    let rest = args.get(1..).unwrap_or_default();
    match command {
        // these two distinguish their failure modes through the exit code
        "serve" => serve_blocking(rest),
        "recover" => recover_blocking(rest),
        other => run_simple(other, rest).map_err(Failure::from),
    }
}

fn run_simple(command: &str, rest: &[String]) -> Result<String, String> {
    match command {
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        "demo" => {
            parse_args(command, rest, &[])?;
            Ok(demo())
        }
        "fixture" => {
            let (positionals, _) = parse_args(command, rest, &[])?;
            let name = match positionals.as_slice() {
                [single] => single.clone(),
                [] => return Err(format!("'fixture' needs a fixture name\n{USAGE}")),
                _ => {
                    return Err(format!(
                        "'fixture' takes exactly one fixture name, got {}\n{USAGE}",
                        positionals.len()
                    ))
                }
            };
            fixture_command(&name).map_err(|e| e.to_string())
        }
        "request" => request(rest),
        "mutate" => mutate(rest),
        "watch" => watch(rest),
        "metrics" => metrics(rest),
        "show" | "validate" | "correct" | "render" | "export" => {
            let allowed: &[&str] = match command {
                "correct" => &["strategy", "out"],
                "export" => &["format"],
                "validate" => &["naive"],
                _ => &[],
            };
            let (positionals, flags) = parse_args(command, rest, allowed)?;
            let path = one_positional(command, &positionals)?;
            let imported = load_workflow(&path).map_err(|e| e.to_string())?;
            let spec = imported.spec;
            let view = imported.view;
            match command {
                "show" => import_command(&path).map_err(|e| e.to_string()),
                "validate" => {
                    let view = view.ok_or("the input file defines no view to validate")?;
                    let mut output = validate_command(&spec, &view);
                    if let Some(limit) = flag(&flags, "naive") {
                        // the exponential path-enumeration check only runs
                        // under an explicit node budget, so a stray flag can
                        // never hang on a big workflow
                        let max_nodes: usize = parse_number(limit, "naive node limit")?;
                        output.push_str(&naive_check_command(&spec, &view, max_nodes));
                    }
                    Ok(output)
                }
                "correct" => {
                    let view = view.ok_or("the input file defines no view to correct")?;
                    let strategy = flag(&flags, "strategy").unwrap_or("strong");
                    let (corrected, mut output) =
                        correct_command(&spec, &view, strategy).map_err(|e| e.to_string())?;
                    if let Some(out_path) = flag(&flags, "out") {
                        let format = if out_path.ends_with(".xml") || out_path.ends_with(".moml") {
                            "moml"
                        } else {
                            "text"
                        };
                        let exported = export_command(&spec, Some(&corrected), format)
                            .map_err(|e| e.to_string())?;
                        std::fs::write(out_path, exported)
                            .map_err(|e| format!("cannot write '{out_path}': {e}"))?;
                        output.push_str(&format!("corrected view written to {out_path}\n"));
                    }
                    Ok(output)
                }
                "render" => Ok(render_command(&spec, view.as_ref())),
                "export" => {
                    let format = flag(&flags, "format").unwrap_or("text");
                    export_command(&spec, view.as_ref(), format).map_err(|e| e.to_string())
                }
                _ => unreachable!("outer match guards the command list"),
            }
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

/// `wolves serve`: starts the server and blocks until a client sends a
/// `shutdown` request. With `--data-dir` the store is recovered from (and
/// persisted to) the given directory.
///
/// Failure modes exit distinctly: recovery failures (corrupt or mismatched
/// data dir) with [`EXIT_RECOVERY`], bind failures with [`EXIT_BIND`] —
/// so supervisors can tell "fix the data" from "fix the address" apart.
fn serve_blocking(args: &[String]) -> Result<String, Failure> {
    let (positionals, flags) = parse_args(
        "serve",
        args,
        &["addr", "shards", "threads", "data-dir", "fault-plan"],
    )?;
    if !positionals.is_empty() {
        return Err(format!("'serve' takes no positional arguments\n{USAGE}").into());
    }
    let explicit_shards = flag(&flags, "shards")
        .map(|v| parse_number::<usize>(v, "shard count"))
        .transpose()?;
    let data_dir = flag(&flags, "data-dir");
    // --fault-plan scripts deterministic storage failures into the durable
    // backend — the chaos-testing mode of the serving layer
    let fault_plan = flag(&flags, "fault-plan")
        .map(|text| FaultPlan::parse(text).map_err(|e| format!("{e}\n{USAGE}")))
        .transpose()?;
    if fault_plan.is_some() && data_dir.is_none() {
        return Err(format!(
            "'--fault-plan' injects storage faults and needs '--data-dir'\n{USAGE}"
        )
        .into());
    }
    let recovery = |message: String| Failure {
        code: EXIT_RECOVERY,
        message,
    };
    // recover (or initialise) the store before binding anything
    let (store, banner) = match data_dir {
        Some(dir) => {
            // an existing data dir pins its own shard layout; it is honoured
            // unless --shards explicitly disagrees (then the meta check
            // fails loudly)
            let root = std::path::Path::new(dir);
            let (store, report) = match fault_plan {
                Some(plan) => open_faulted_data_dir(root, explicit_shards, plan),
                None => open_data_dir(root, explicit_shards),
            }
            .map_err(|e| recovery(format!("cannot recover '{dir}': {e}")))?;
            let banner = format!("durable store in '{dir}': {report}");
            (Arc::new(store), banner)
        }
        None => {
            let shards = explicit_shards.unwrap_or(4);
            (
                Arc::new(WorkflowStore::new(shards)),
                "in-memory store (no --data-dir: state is lost on exit)\n".to_owned(),
            )
        }
    };
    let config = ServerConfig {
        addr: flag(&flags, "addr").unwrap_or("127.0.0.1:7878").to_owned(),
        shards: store.shard_count(),
        workers: flag(&flags, "threads")
            .map(|v| parse_number(v, "thread count"))
            .transpose()?
            .unwrap_or(4),
        ..ServerConfig::default()
    };
    let handle = serve_with_store(&config, store).map_err(|e| Failure {
        code: EXIT_BIND,
        message: format!("cannot bind '{}': {e}", config.addr),
    })?;
    print!("{banner}");
    println!(
        "wolves-service listening on {} ({} shards, {} event loops)",
        handle.local_addr(),
        config.shards.max(1),
        config.workers.max(1),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    Ok("server stopped\n".to_owned())
}

/// `wolves recover <dir>`: offline integrity check + replay report; exits
/// with [`EXIT_RECOVERY`] when the directory cannot be recovered.
fn recover_blocking(args: &[String]) -> Result<String, Failure> {
    let (positionals, _) = parse_args("recover", args, &[])?;
    let [dir] = positionals.as_slice() else {
        return Err(format!("'recover' needs exactly one data directory\n{USAGE}").into());
    };
    recover_command(dir).map_err(|e| Failure {
        code: EXIT_RECOVERY,
        message: e.to_string(),
    })
}

/// Builds the retry policy of `--timeout-ms` / `--retries`, or `None` when
/// neither flag is given (plain single-attempt connection, no timeout).
fn request_policy(flags: &Flags) -> Result<Option<RequestPolicy>, String> {
    let timeout_ms = flag(flags, "timeout-ms")
        .map(|v| parse_number::<u64>(v, "timeout"))
        .transpose()?;
    let retries = flag(flags, "retries")
        .map(|v| parse_number::<u32>(v, "retry count"))
        .transpose()?;
    if timeout_ms.is_none() && retries.is_none() {
        return Ok(None);
    }
    let mut policy = RequestPolicy::with_timeout_ms(timeout_ms.unwrap_or(10_000));
    if let Some(retries) = retries {
        policy = policy.retries(retries);
    }
    Ok(Some(policy))
}

/// `wolves request <addr> <verb> …`: one-shot client requests.
fn request(args: &[String]) -> Result<String, String> {
    let (positionals, flags) = parse_args(
        "request",
        args,
        &[
            "strategy",
            "out",
            "view-version",
            "timeout-ms",
            "retries",
            "pipeline",
        ],
    )?;
    let [addr, verb, verb_args @ ..] = positionals.as_slice() else {
        return Err(format!("'request' needs an address and a verb\n{USAGE}"));
    };
    // each verb accepts only its own options (plus the policy flags every
    // verb shares); anything else is malformed
    let allowed_for_verb: &[&str] = match verb.as_str() {
        "validate" => &["view-version", "timeout-ms", "retries", "pipeline"],
        "correct" => &["strategy", "out", "timeout-ms", "retries"],
        "export" => &["out", "timeout-ms", "retries"],
        _ => &["timeout-ms", "retries"],
    };
    if let Some((name, _)) = flags
        .iter()
        .find(|(n, _)| !allowed_for_verb.contains(&n.as_str()))
    {
        return Err(format!(
            "unknown option '--{name}' for 'request {verb}'\n{USAGE}"
        ));
    }
    let parse_id = |text: Option<&String>| -> Result<WorkflowId, String> {
        let text = text.ok_or_else(|| format!("'{verb}' needs a workflow id\n{USAGE}"))?;
        parse_number::<u64>(text, "workflow id").map(WorkflowId)
    };
    let expect_args = |count: usize| -> Result<(), String> {
        if verb_args.len() == count {
            Ok(())
        } else {
            Err(format!(
                "'request {verb}' takes {count} argument(s), got {}\n{USAGE}",
                verb_args.len()
            ))
        }
    };
    let policy = request_policy(&flags)?;
    let policy = policy.as_ref();
    match verb.as_str() {
        "register" => {
            expect_args(1)?;
            remote_register(addr, &verb_args[0], policy).map_err(|e| e.to_string())
        }
        "validate" => {
            expect_args(1)?;
            let version = flag(&flags, "view-version")
                .map(|v| parse_number::<usize>(v, "view version"))
                .transpose()?;
            let workflow = parse_id(verb_args.first())?;
            match flag(&flags, "pipeline")
                .map(|v| parse_number::<usize>(v, "pipeline depth"))
                .transpose()?
            {
                // N validates coalesced into one write over one connection
                Some(depth) => remote_validate_pipelined(addr, workflow, version, depth, policy)
                    .map_err(|e| e.to_string()),
                None => remote_validate(addr, workflow, version, policy).map_err(|e| e.to_string()),
            }
        }
        "correct" => {
            expect_args(1)?;
            let strategy = flag(&flags, "strategy").unwrap_or("strong");
            remote_correct(
                addr,
                parse_id(verb_args.first())?,
                strategy,
                flag(&flags, "out"),
                policy,
            )
            .map_err(|e| e.to_string())
        }
        "provenance" => {
            expect_args(2)?;
            remote_provenance(addr, parse_id(verb_args.first())?, &verb_args[1], policy)
                .map_err(|e| e.to_string())
        }
        "export" => {
            expect_args(1)?;
            remote_export(
                addr,
                parse_id(verb_args.first())?,
                flag(&flags, "out"),
                policy,
            )
            .map_err(|e| e.to_string())
        }
        "snapshot" => {
            expect_args(0)?;
            remote_snapshot(addr, policy).map_err(|e| e.to_string())
        }
        "heal" => {
            expect_args(0)?;
            remote_heal(addr, policy).map_err(|e| e.to_string())
        }
        "stats" => {
            expect_args(0)?;
            remote_stats(addr, policy).map_err(|e| e.to_string())
        }
        "shutdown" => {
            expect_args(0)?;
            remote_shutdown(addr, policy).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown request verb '{other}'\n{USAGE}")),
    }
}

/// `wolves watch <addr> <id> [--mode tail|resync|<seq>] [--max-events N]`:
/// stream a workflow's committed changes to stdout.
fn watch(args: &[String]) -> Result<String, String> {
    let (positionals, flags) = parse_args("watch", args, &["mode", "max-events"])?;
    let [addr, id] = positionals.as_slice() else {
        return Err(format!(
            "'watch' needs an address and a workflow id\n{USAGE}"
        ));
    };
    let workflow = parse_number::<u64>(id, "workflow id").map(WorkflowId)?;
    let mode = flag(&flags, "mode")
        .map(parse_watch_mode)
        .transpose()
        .map_err(|e| e.to_string())?
        .unwrap_or(wolves_service::WatchMode::Tail);
    let max_events = flag(&flags, "max-events")
        .map(|v| parse_number::<usize>(v, "event count"))
        .transpose()?;
    // events stream to stdout as they arrive; the returned summary follows
    let mut stdout = std::io::stdout();
    remote_watch(addr, workflow, mode, max_events, &mut stdout).map_err(|e| e.to_string())
}

/// `wolves metrics <addr> [slow]`: scrape the server's telemetry.
fn metrics(args: &[String]) -> Result<String, String> {
    let (positionals, _) = parse_args("metrics", args, &[])?;
    let (addr, slow) = match positionals.as_slice() {
        [addr] => (addr, false),
        [addr, mode] if mode == "slow" => (addr, true),
        [_, mode] => {
            return Err(format!(
                "unknown metrics mode '{mode}' (expected 'slow')\n{USAGE}"
            ))
        }
        _ => return Err(format!("'metrics' needs a server address\n{USAGE}")),
    };
    remote_metrics(addr, slow).map_err(|e| e.to_string())
}

/// `wolves mutate <addr> <id> <op> …`: edit a registered workflow in place.
/// With `--timeout-ms`/`--retries` the edit retries idempotently through the
/// expected-epoch CAS protocol (a lost ack can never double-apply).
fn mutate(args: &[String]) -> Result<String, String> {
    let (positionals, flags) = parse_args("mutate", args, &["timeout-ms", "retries"])?;
    let [addr, id, op, op_args @ ..] = positionals.as_slice() else {
        return Err(format!(
            "'mutate' needs an address, a workflow id and an op\n{USAGE}"
        ));
    };
    let workflow = parse_number::<u64>(id, "workflow id").map(WorkflowId)?;
    let policy = request_policy(&flags)?;
    remote_mutate(addr, workflow, op, op_args, policy.as_ref()).map_err(|e| e.to_string())
}

/// The Figure 1 walk-through: what the paper's demonstration shows, end to
/// end, without needing an input file.
fn demo() -> String {
    let fixture = wolves_repo::figure1();
    let mut out = String::new();
    out.push_str(&show_command(&fixture.spec, Some(&fixture.view)));
    out.push('\n');
    out.push_str(&validate_command(&fixture.spec, &fixture.view));
    out.push('\n');
    let (corrected, report) =
        correct_command(&fixture.spec, &fixture.view, "strong").expect("demo correction");
    out.push_str(&report);
    out.push('\n');
    out.push_str(&validate_command(&fixture.spec, &corrected));
    out
}

const USAGE: &str = "\
WOLVES: detecting and resolving unsound workflow views

usage:
  wolves show <file>                          summarise a workflow and its view
  wolves validate <file> [--naive <max-nodes>]
                                              check the view for soundness; --naive
                                              additionally runs the exponential
                                              path-enumeration check, refused above
                                              the given task count
  wolves correct <file> [--strategy weak|strong|optimal] [--out <file>]
  wolves render <file>                        emit Graphviz DOT (unsound tasks highlighted)
  wolves export <file> --format moml|text     convert between formats
  wolves fixture figure1|figure3              print a paper fixture in the text format
  wolves demo                                 run the built-in Figure 1 walk-through

serving (wolves-service):
  wolves serve [--addr <host:port>] [--shards N] [--threads N] [--data-dir <dir>]
               [--fault-plan <plan>]
                                              serve validation/correction requests
                                              (default 127.0.0.1:7878, 4 shards, 4 threads:
                                              one epoll event loop per thread, Linux;
                                              idle connections cost no threads and
                                              pipelined frames share one write);
                                              --data-dir makes the store durable:
                                              snapshot + write-ahead log per shard,
                                              recovered on restart (exit 2: bind
                                              failure, exit 3: recovery failure);
                                              --fault-plan scripts deterministic
                                              storage faults for chaos testing, e.g.
                                              'append-err=2,snap-err=1,seed=7'
                                              (append-err=N[xC] torn=N sync-err=N[xC]
                                              snap-err=N[xC] full=K slow=N:MS[xC] seed=S)
  wolves recover <dir>                        offline integrity check + replay report
                                              of a --data-dir (exit 3 on corruption)
  wolves request <addr> register <file>       register a workflow, prints its id
  wolves request <addr> validate <id> [--view-version N] [--pipeline <depth>]
                                              --pipeline issues <depth> validates in
                                              one coalesced write (one round trip)
                                              and reports the aggregate rate
  wolves request <addr> correct <id> [--strategy weak|strong|optimal] [--out <file>]
  wolves request <addr> provenance <id> <task>
  wolves request <addr> export <id> [--out <file>]
                                              download the current spec+view in
                                              registrable textfmt (client resync)
  wolves request <addr> snapshot              force a snapshot (compacts the WAL)
  wolves request <addr> heal                  re-open writes on degraded shards
                                              (each retries a compacting snapshot)
  wolves request <addr> stats
  wolves request <addr> shutdown
  every request verb also accepts [--timeout-ms N] [--retries N]: per-attempt
  socket timeout plus capped-exponential-backoff retries of transient failures
  (connection refused, timeouts, overloaded or degraded server)
  wolves metrics <addr> [slow]                scrape the server's telemetry as
                                              Prometheus-style text: per-verb and
                                              per-commit-stage latency histograms,
                                              WAL timings and watch gauges; 'slow'
                                              dumps the worst requests with their
                                              stage breakdowns
  wolves watch <addr> <id> [--mode tail|resync|<seq>] [--max-events N]
                                              stream the workflow's committed
                                              changes (ops, spec deltas, verdict
                                              transitions) as they happen; resync
                                              mode first prints a consistent
                                              export, then tails gap-free

interactive editing (mutation epochs):
  wolves mutate <addr> <id> add-task <name>
  wolves mutate <addr> <id> remove-task <name>
  wolves mutate <addr> <id> add-edge <from> <to>
  wolves mutate <addr> <id> remove-edge <from> <to>
  wolves mutate <addr> <id> split <composite> <a,b;c>
  wolves mutate <addr> <id> merge <new-name> <c1;c2>
                                              edit a registered workflow in place;
                                              only cached verdicts the edit could
                                              have changed are recomputed; with
                                              [--timeout-ms N] [--retries N] the
                                              edit retries idempotently through an
                                              expected-epoch compare-and-set
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_walkthrough_runs() {
        let output = run(&["demo".to_owned()]).unwrap();
        assert!(output.contains("UNSOUND"));
        assert!(output.contains("SOUND"));
    }

    #[test]
    fn unknown_commands_report_usage() {
        let err = run(&["frobnicate".to_owned()]).unwrap_err().message;
        assert!(err.contains("usage"));
        assert!(run(&[]).unwrap().contains("usage"));
    }

    #[test]
    fn malformed_arguments_report_usage() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        // unknown option
        let err = run(&args(&["validate", "f.txt", "--bogus", "x"]))
            .unwrap_err()
            .message;
        assert!(err.contains("unknown option '--bogus'"));
        assert!(err.contains("usage"));
        // option without a value
        let err = run(&args(&["correct", "f.txt", "--strategy"]))
            .unwrap_err()
            .message;
        assert!(err.contains("needs a value"));
        // too many positionals
        let err = run(&args(&["validate", "a.txt", "b.txt"]))
            .unwrap_err()
            .message;
        assert!(err.contains("exactly one input file"));
        // request verb arity and id parsing
        let err = run(&args(&["request"])).unwrap_err().message;
        assert!(err.contains("needs an address"));
        let err = run(&args(&["request", "127.0.0.1:1", "validate", "nope"]))
            .unwrap_err()
            .message;
        assert!(err.contains("invalid workflow id"));
        let err = run(&args(&["request", "127.0.0.1:1", "frobnicate"]))
            .unwrap_err()
            .message;
        assert!(err.contains("unknown request verb"));
        // options foreign to the verb are rejected, not silently ignored
        let err = run(&args(&[
            "request",
            "127.0.0.1:1",
            "stats",
            "--strategy",
            "weak",
        ]))
        .unwrap_err()
        .message;
        assert!(err.contains("unknown option '--strategy' for 'request stats'"));
        let err = run(&args(&[
            "request",
            "127.0.0.1:1",
            "validate",
            "1",
            "--out",
            "f",
        ]))
        .unwrap_err()
        .message;
        assert!(err.contains("unknown option '--out' for 'request validate'"));
        // fixture arity errors name the actual problem
        let err = run(&args(&["fixture", "figure1", "figure3"]))
            .unwrap_err()
            .message;
        assert!(err.contains("exactly one fixture name"));
        // serve argument validation (no server is started on error paths)
        let err = run(&args(&["serve", "extra"])).unwrap_err().message;
        assert!(err.contains("no positional arguments"));
        let err = run(&args(&["serve", "--shards", "many"]))
            .unwrap_err()
            .message;
        assert!(err.contains("invalid shard count"));
        // fault plans only make sense against a durable backend…
        let err = run(&args(&["serve", "--fault-plan", "append-err=2"]))
            .unwrap_err()
            .message;
        assert!(err.contains("needs '--data-dir'"));
        // …and malformed plans are rejected before anything is opened
        let err = run(&args(&[
            "serve",
            "--fault-plan",
            "bogus",
            "--data-dir",
            "/tmp/never-created",
        ]))
        .unwrap_err()
        .message;
        assert!(err.contains("bad fault-plan directive"));
        // retry-policy flags validate their values
        let err = run(&args(&[
            "request",
            "127.0.0.1:1",
            "stats",
            "--timeout-ms",
            "lots",
        ]))
        .unwrap_err()
        .message;
        assert!(err.contains("invalid timeout"));
    }

    #[test]
    fn fixture_prints_parseable_text() {
        let output = run(&["fixture".to_owned(), "figure1".to_owned()]).unwrap();
        assert!(output.starts_with("workflow\tphylogenomic-inference"));
        assert!(run(&["fixture".to_owned(), "nope".to_owned()]).is_err());
        assert!(run(&["fixture".to_owned()]).is_err());
    }

    #[test]
    fn file_commands_round_trip_through_a_temp_file() {
        let fixture = wolves_repo::figure1();
        let text = wolves_moml::write_text_format(&fixture.spec, Some(&fixture.view));
        let path = std::env::temp_dir().join("wolves-cli-test.txt");
        std::fs::write(&path, text).unwrap();
        let path = path.to_string_lossy().to_string();
        let validated = run(&["validate".to_owned(), path.clone()]).unwrap();
        assert!(validated.contains("UNSOUND"));
        // --naive runs the path-enumeration cross-check under a node budget…
        let naive = run(&[
            "validate".to_owned(),
            path.clone(),
            "--naive".to_owned(),
            "60".to_owned(),
        ])
        .unwrap();
        assert!(naive.contains("naive definition check: 2 spurious"));
        // …and refuses budgets smaller than the workflow instead of hanging
        let refused = run(&[
            "validate".to_owned(),
            path.clone(),
            "--naive".to_owned(),
            "4".to_owned(),
        ])
        .unwrap();
        assert!(refused.contains("naive check refused"));
        assert!(run(&[
            "validate".to_owned(),
            path.clone(),
            "--naive".to_owned(),
            "lots".to_owned(),
        ])
        .unwrap_err()
        .message
        .contains("invalid naive node limit"));
        let corrected = run(&[
            "correct".to_owned(),
            path.clone(),
            "--strategy".to_owned(),
            "weak".to_owned(),
        ])
        .unwrap();
        assert!(corrected.contains("composite tasks: 7 -> 8"));
        let dot = run(&["render".to_owned(), path]).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn request_commands_drive_a_real_server() {
        // bind on an ephemeral port, then drive the whole verb set through
        // the same code paths the binary uses
        let handle = serve_with_store(
            &ServerConfig {
                shards: 2,
                workers: 4,
                ..ServerConfig::default()
            },
            Arc::new(WorkflowStore::new(2)),
        )
        .unwrap();
        let addr = handle.local_addr().to_string();
        let path = std::env::temp_dir().join("wolves-cli-main-request.txt");
        std::fs::write(
            &path,
            run(&["fixture".to_owned(), "figure1".to_owned()]).unwrap(),
        )
        .unwrap();
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let out = request(&args(&[&addr, "register", &path.to_string_lossy()])).unwrap();
        assert!(out.contains("registered workflow"));
        let out = request(&args(&[&addr, "validate", "1"])).unwrap();
        assert!(out.contains("UNSOUND"));
        let out = request(&args(&[&addr, "correct", "1", "--strategy", "strong"])).unwrap();
        assert!(out.contains("7 -> 8"));
        let out = request(&args(&[&addr, "validate", "1"])).unwrap();
        assert!(out.contains("SOUND"));
        let out = request(&args(&[&addr, "stats"])).unwrap();
        assert!(out.contains("total: 1 workflows"), "got: {out}");
        // nothing is degraded, so heal is an answered no-op
        let out = request(&args(&[&addr, "heal"])).unwrap();
        assert!(out.contains("healed 0 shard(s)"));
        // the policy flags ride along on any verb
        let out = request(&args(&[
            &addr,
            "validate",
            "1",
            "--timeout-ms",
            "5000",
            "--retries",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("SOUND"));
        // the interactive editing loop over `wolves mutate`
        let out = mutate(&args(&[
            &addr,
            "1",
            "add-edge",
            "Select entries from DB",
            "Extract sequences",
        ]))
        .unwrap();
        assert!(out.contains("monotone-safe delta"), "got: {out}");
        let out = mutate(&args(&[
            &addr,
            "1",
            "merge",
            "Front end",
            "Retrieve entries (13);Annotations (14)",
        ]))
        .unwrap();
        assert!(out.contains("view-edit delta"));
        // a retrying mutate goes through the expected-epoch CAS protocol
        let out = mutate(&args(&[
            &addr,
            "1",
            "remove-edge",
            "Select entries from DB",
            "Extract sequences",
            "--retries",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("epoch 3"), "got: {out}");
        let out = request(&args(&[&addr, "validate", "1"])).unwrap();
        assert!(out.contains("SOUND"));
        // malformed mutate invocations
        assert!(mutate(&args(&[&addr])).unwrap_err().contains("usage"));
        assert!(mutate(&args(&[&addr, "1", "frobnicate"]))
            .unwrap_err()
            .contains("unknown mutate op"));
        assert!(mutate(&args(&[&addr, "1", "add-edge", "only-one"]))
            .unwrap_err()
            .contains("takes 2 argument(s)"));
        let out = request(&args(&[&addr, "shutdown"])).unwrap();
        assert!(out.contains("shutting down"));
        handle.join();
    }
}
