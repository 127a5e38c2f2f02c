//! The wire protocol: typed requests and responses over a newline-delimited
//! framing.
//!
//! A *frame* is a sequence of text lines terminated by a line containing a
//! single `.` (SMTP-style; payload lines that start with `.` are escaped by
//! doubling the dot). The first line of a frame is a TAB-separated header;
//! any further lines are a payload in the native text format of
//! [`wolves_moml::textfmt`]:
//!
//! ```text
//! register                          ok<TAB>registered<TAB><id>
//! <textfmt lines…>                  .
//! .
//!
//! validate<TAB><id>[<TAB><ver>]    ok<TAB>verdict<TAB>sound|unsound<TAB><ver><TAB>hit|miss<TAB><n>
//!                                   <unsound composite names…>
//! correct<TAB><id><TAB><strategy>  ok<TAB>corrected<TAB><ver><TAB><before><TAB><after>
//!                                   <textfmt of the corrected view…>
//! provenance<TAB><id><TAB><task>   ok<TAB>provenance<TAB><n> + task names
//! mutate<TAB><id>[<TAB>@<epoch>]<TAB><op>…
//!                                   ok<TAB>mutated<TAB><epoch><TAB><class><TAB><inv><TAB><ret><TAB><ver>
//! export<TAB><id>                  ok<TAB>exported + the registrable textfmt
//! snapshot                          ok<TAB>snapshotted<TAB><shards>
//! stats                             ok<TAB>stats + one line per shard
//! epoch<TAB><id>                   ok<TAB>epoch<TAB><seq><TAB><epoch>
//! heal                              ok<TAB>healed<TAB><healed><TAB><still-degraded>
//! watch<TAB><id>[<TAB><mode>]      ok<TAB>watching<TAB><id><TAB><seq><TAB><epoch><TAB><mode>
//! unwatch                           ok<TAB>unwatched
//! shutdown                          ok<TAB>shutdown
//! ```
//!
//! A `mutate` with an `@<epoch>` marker is a compare-and-set: it applies
//! only while the workflow's mutation epoch still equals `<epoch>` and is
//! otherwise refused with an `epoch-conflict` error — the primitive that
//! makes client-side mutate retries idempotent (a retried mutation whose
//! first attempt actually committed bumps the epoch, so the retry conflicts
//! instead of applying twice). `epoch` reads the current cursor to arm the
//! CAS; `heal` retries the storage backend of every degraded shard and
//! re-opens writes on success.
//!
//! `watch` switches the connection into subscription mode: the server pushes
//! one [`WatchEvent`] frame (`event<TAB>…`) per committed change of the
//! watched workflow until the client sends another frame (conventionally
//! `unwatch`) or disconnects. The optional mode is `resync` (the ack carries
//! a full `export` payload consistent with the acked sequence number) or a
//! previously seen sequence number (the server emits an explicit `resync`
//! event first when that number is no longer current, because a watch can
//! only tail — it never replays history).
//!
//! `mutate` ops edit a registered spec/view in place (no re-upload):
//! `add-task <name>`, `remove-task <name>`, `add-edge <from> <to>`,
//! `remove-edge <from> <to>`, `split <composite> <a,b;c,…>` and
//! `merge <new-name> <c1;c2;…>` — task and composite names are
//! tab-free by construction; `split`/`merge` additionally reserve `,`
//! and `;` as list separators.
//!
//! Errors are reported as `err<TAB><typed tail>`, where the tail is the
//! [`ServiceError::to_wire`] encoding (`<kind>` + TAB-separated fields), so
//! clients decode the exact error variant instead of pattern-matching
//! message text. The format reuses the text serialisation the CLI already
//! speaks, so a workflow file can be piped to the server verbatim — no new
//! dependency, no binary encoding.

use std::io::Write;

use wolves_core::correct::Strategy;
use wolves_moml::scan::ByteOffsets;
use wolves_workflow::persist::{delta_from_line, delta_to_line};
use wolves_workflow::SpecDelta;

use crate::error::ServiceError;
use crate::store::WorkflowId;

/// Terminator line closing every frame.
pub const FRAME_END: &str = ".";

/// Upper bound on the wire bytes of one frame, enforced by both readers: a
/// peer streaming one endless line cannot grow the other side's memory past
/// it.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A request from client to server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register a workflow (and optional view) from a textfmt payload.
    Register {
        /// The workflow in the native text format.
        payload: String,
    },
    /// Validate a registered view, serving a cached verdict when available.
    Validate {
        /// The workflow to validate.
        workflow: WorkflowId,
        /// View version to validate; `None` means the current version.
        version: Option<usize>,
    },
    /// Correct the current view with the given strategy, registering the
    /// corrected view as a new version.
    Correct {
        /// The workflow to correct.
        workflow: WorkflowId,
        /// Corrector strategy to apply.
        strategy: Strategy,
    },
    /// Query view-level provenance of a task through the current view.
    Provenance {
        /// The workflow to query.
        workflow: WorkflowId,
        /// Name of the subject task.
        subject: String,
    },
    /// Edit a registered workflow in place (mutation epochs: caches covering
    /// unaffected composites survive the edit).
    Mutate {
        /// The workflow to edit.
        workflow: WorkflowId,
        /// The edit to apply.
        op: MutateOp,
        /// Compare-and-set guard: when set, the edit applies only while the
        /// workflow's mutation epoch still equals this value and is refused
        /// with [`ServiceError::EpochConflict`] otherwise. `None` (the
        /// historical wire format, unchanged) applies unconditionally.
        expect: Option<u64>,
    },
    /// Download a workflow's current spec + view in registrable textfmt —
    /// how clients resync after server-side mutations and corrections.
    Export {
        /// The workflow to export.
        workflow: WorkflowId,
    },
    /// Force a snapshot of every shard (durable backends truncate their
    /// write-ahead logs; a no-op on the in-memory backend).
    Snapshot,
    /// Fetch per-shard serving statistics.
    Stats,
    /// Read a workflow's change cursor (sequence number + mutation epoch) —
    /// how a client arms the compare-and-set guard of a retried mutation.
    Epoch {
        /// The workflow to read.
        workflow: WorkflowId,
    },
    /// Retry the storage backend of every degraded shard and re-open writes
    /// where the retry succeeds. A no-op (reported as 0/0) when nothing is
    /// degraded.
    Heal,
    /// Fetch the server's telemetry: the Prometheus-style text exposition,
    /// or (with `slow`) the slow-request ring dump.
    Metrics {
        /// `true` dumps the slow-request ring instead of the exposition.
        slow: bool,
    },
    /// Subscribe the connection to a workflow's change feed: the server
    /// pushes one [`WatchEvent`] frame per committed mutation/correction
    /// until the client sends another frame or disconnects.
    Watch {
        /// The workflow to watch.
        workflow: WorkflowId,
        /// How the subscription starts.
        mode: WatchMode,
    },
    /// Leave subscription mode (a no-op outside of it); answered with
    /// [`Response::Unwatched`] once the server stops pushing events.
    Unwatch,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// How a [`Request::Watch`] subscription starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchMode {
    /// Tail from the workflow's current state; the ack reports the base
    /// sequence number and epoch.
    Tail,
    /// Atomic export-and-tail: the ack additionally carries the workflow's
    /// full textfmt payload, consistent with the acked sequence number —
    /// the gap-free way to build a replica.
    Resync,
    /// Tail, claiming the client last saw this sequence number. When it is
    /// no longer the workflow's current one the server emits an explicit
    /// `resync` event before any change events (watches tail; they never
    /// replay history).
    From(u64),
}

/// One edit applied by a [`Request::Mutate`]. Tasks and composites are
/// addressed by name (clients never learn server-side ids beyond the
/// workflow id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateOp {
    /// Add an atomic task; the current view gains a singleton composite of
    /// the same name.
    AddTask {
        /// Name of the new task.
        name: String,
    },
    /// Remove a task (and its dependencies); the current view drops it from
    /// its composite.
    RemoveTask {
        /// Name of the task to remove.
        name: String,
    },
    /// Add a data dependency between two named tasks.
    AddEdge {
        /// Source task name.
        from: String,
        /// Target task name.
        to: String,
    },
    /// Remove the data dependency between two named tasks.
    RemoveEdge {
        /// Source task name.
        from: String,
        /// Target task name.
        to: String,
    },
    /// Split a composite task of the current view into the given parts
    /// (member task names; the parts must partition the composite).
    Split {
        /// Name of the composite to split.
        composite: String,
        /// The parts, each a list of member task names.
        parts: Vec<Vec<String>>,
    },
    /// Merge composite tasks of the current view into one.
    Merge {
        /// Name of the merged composite.
        name: String,
        /// Names of the composites to merge.
        composites: Vec<String>,
    },
}

impl MutateOp {
    /// The op's TAB-separated wire tail (`add-edge\tfrom\tto`, …), shared by
    /// `mutate` request headers and `mutated` watch events.
    #[must_use]
    pub fn to_tail(&self) -> String {
        match self {
            MutateOp::AddTask { name } => format!("add-task\t{name}"),
            MutateOp::RemoveTask { name } => format!("remove-task\t{name}"),
            MutateOp::AddEdge { from, to } => format!("add-edge\t{from}\t{to}"),
            MutateOp::RemoveEdge { from, to } => format!("remove-edge\t{from}\t{to}"),
            MutateOp::Split { composite, parts } => {
                let parts: Vec<String> = parts.iter().map(|p| p.join(",")).collect();
                format!("split\t{composite}\t{}", parts.join(";"))
            }
            MutateOp::Merge { name, composites } => {
                format!("merge\t{name}\t{}", composites.join(";"))
            }
        }
    }

    /// Parses an op from the TAB-split `fields` of a header line, with the
    /// op name at index `at`.
    ///
    /// # Errors
    /// Reports unknown op names and missing arguments.
    pub fn from_fields(fields: &[&str], at: usize) -> Result<Self, ServiceError> {
        let op_name = fields.get(at).copied().unwrap_or_default();
        let arg = |index: usize, what: &str| -> Result<String, ServiceError> {
            fields
                .get(at + index)
                .filter(|s| !s.is_empty())
                .map(|s| (*s).to_owned())
                .ok_or_else(|| ServiceError::Protocol(format!("mutate {op_name} needs a {what}")))
        };
        match op_name {
            "add-task" => Ok(MutateOp::AddTask {
                name: arg(1, "task name")?,
            }),
            "remove-task" => Ok(MutateOp::RemoveTask {
                name: arg(1, "task name")?,
            }),
            "add-edge" => Ok(MutateOp::AddEdge {
                from: arg(1, "source task")?,
                to: arg(2, "target task")?,
            }),
            "remove-edge" => Ok(MutateOp::RemoveEdge {
                from: arg(1, "source task")?,
                to: arg(2, "target task")?,
            }),
            "split" => Ok(MutateOp::Split {
                composite: arg(1, "composite name")?,
                parts: arg(2, "part list")?
                    .split(';')
                    .map(|part| part.split(',').map(str::to_owned).collect())
                    .collect(),
            }),
            "merge" => Ok(MutateOp::Merge {
                name: arg(1, "composite name")?,
                composites: arg(2, "composite list")?
                    .split(';')
                    .map(str::to_owned)
                    .collect(),
            }),
            other => Err(ServiceError::Protocol(format!(
                "unknown mutate op '{other}'"
            ))),
        }
    }
}

/// Result of a [`Request::Mutate`] as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutated {
    /// The workflow's mutation epoch after the edit.
    pub epoch: u64,
    /// Delta class the reachability maintenance used
    /// (`monotone-safe` / `local-rebuild` / `structural`).
    pub class: String,
    /// Cached composite verdicts invalidated by the edit.
    pub invalidated: usize,
    /// Cached composite verdicts that survived the edit.
    pub retained: usize,
    /// The current view version after the edit.
    pub version: usize,
}

/// Validation verdict as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// `true` iff every composite task of the view is sound.
    pub sound: bool,
    /// The view version that was validated.
    pub version: usize,
    /// `true` when the verdict came from the shard's validation cache.
    pub cached: bool,
    /// The workflow's mutation epoch the verdict was computed against.
    /// Readers observing a store under concurrent mutation see this advance
    /// monotonically — snapshots are published atomically, never torn.
    pub epoch: u64,
    /// Names of the unsound composite tasks.
    pub unsound: Vec<String>,
}

/// Result of a correction as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrected {
    /// Version under which the corrected view was registered (equals the
    /// validated version when the view was already sound).
    pub version: usize,
    /// Composite-task count before correction.
    pub composites_before: usize,
    /// Composite-task count after correction.
    pub composites_after: usize,
    /// The corrected workflow + view in the native text format.
    pub payload: String,
}

/// Schema version token leading every `stats` shard line, making the
/// positional field list self-describing. Bumped whenever the field list
/// changes; parsers reject a mismatched token with
/// [`ServiceError::SchemaVersion`] instead of silently misreading shifted
/// fields.
pub const STATS_SCHEMA_VERSION: &str = "v2";

/// One shard's serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// Shard index.
    pub shard: usize,
    /// Workflows stored in the shard.
    pub workflows: usize,
    /// Validation-cache hits (requests answered wholly from cache).
    pub validate_hits: u64,
    /// Validation-cache misses (requests that computed at least one
    /// composite verdict).
    pub validate_misses: u64,
    /// Composite-granular cache hits (individual composite verdicts served
    /// from cache).
    pub composite_hits: u64,
    /// Composite-granular cache misses (individual composite verdicts
    /// computed).
    pub composite_misses: u64,
    /// Total nanoseconds spent answering validate requests.
    pub validate_ns: u64,
    /// Requests of any kind routed to the shard.
    pub requests: u64,
    /// Copy-on-write state snapshots published by mutators (registrations,
    /// mutations, corrections, recovery installs).
    pub snapshot_publishes: u64,
    /// Watch subscriptions currently registered on the shard.
    pub active_watchers: u64,
    /// Watch subscriptions dropped because they could not keep up with the
    /// event stream (slow consumers).
    pub dropped_watchers: u64,
}

/// Store-wide statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Per-shard counters.
    pub shards: Vec<ShardStat>,
}

impl StatsReport {
    /// Total validation-cache hits across shards.
    #[must_use]
    pub fn validate_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.validate_hits).sum()
    }

    /// Total validation-cache misses across shards.
    #[must_use]
    pub fn validate_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.validate_misses).sum()
    }

    /// Total composite-granular cache hits across shards.
    #[must_use]
    pub fn composite_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.composite_hits).sum()
    }

    /// Total composite-granular cache misses across shards.
    #[must_use]
    pub fn composite_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.composite_misses).sum()
    }

    /// Total requests routed to any shard.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total workflows stored.
    #[must_use]
    pub fn workflows(&self) -> usize {
        self.shards.iter().map(|s| s.workflows).sum()
    }

    /// Total copy-on-write snapshot publishes across shards.
    #[must_use]
    pub fn snapshot_publishes(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot_publishes).sum()
    }

    /// Total active watch subscriptions across shards.
    #[must_use]
    pub fn active_watchers(&self) -> u64 {
        self.shards.iter().map(|s| s.active_watchers).sum()
    }

    /// Total slow-consumer watch subscriptions dropped across shards.
    #[must_use]
    pub fn dropped_watchers(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_watchers).sum()
    }
}

/// Acknowledgement of a [`Request::Watch`] subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watching {
    /// The watched workflow.
    pub workflow: WorkflowId,
    /// The workflow's change-sequence number at subscription time. The
    /// first pushed event carries `seq + 1`; a gap-free consumer checks
    /// contiguity from here.
    pub seq: u64,
    /// The workflow's mutation epoch at subscription time.
    pub epoch: u64,
    /// In [`WatchMode::Resync`], the workflow's full textfmt payload,
    /// consistent with `seq`.
    pub payload: Option<String>,
}

/// One change event pushed to a watching connection. Events are tagged with
/// the workflow's per-entry sequence number (`seq`, bumped by every
/// committed mutation *and* correction) and carry everything a replica
/// needs to reproduce the change — the CDC stream is lossless by
/// construction: replaying it from a resync payload reproduces `export`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// A mutation committed (and, on durable backends, was WAL-appended
    /// before this event was fanned out).
    Mutated {
        /// The watched workflow.
        workflow: WorkflowId,
        /// The workflow's change-sequence number after the mutation.
        seq: u64,
        /// The committed op, replayable via `mutate`.
        op: MutateOp,
        /// The mutation outcome (epoch, delta class, cache effect).
        outcome: Mutated,
        /// The typed spec deltas the op produced (empty for view-only
        /// edits).
        deltas: Vec<SpecDelta>,
    },
    /// A correction appended a new current view version.
    Corrected {
        /// The watched workflow.
        workflow: WorkflowId,
        /// The workflow's change-sequence number after the correction.
        seq: u64,
        /// The version the corrected view was appended as.
        version: usize,
        /// The corrected view, line-exact as persisted (slot-exact replay,
        /// not a textfmt round trip).
        view_lines: Vec<String>,
    },
    /// The stream cannot continue gap-free from what the client has (a
    /// stated sequence number that is no longer current, or a slow consumer
    /// whose queue overflowed): re-`export` (or re-subscribe in resync
    /// mode) to catch up.
    Resync {
        /// The watched workflow.
        workflow: WorkflowId,
        /// The workflow's current change-sequence number.
        seq: u64,
    },
}

impl WatchEvent {
    /// The watched workflow.
    #[must_use]
    pub fn workflow(&self) -> WorkflowId {
        match self {
            WatchEvent::Mutated { workflow, .. }
            | WatchEvent::Corrected { workflow, .. }
            | WatchEvent::Resync { workflow, .. } => *workflow,
        }
    }

    /// The event's change-sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            WatchEvent::Mutated { seq, .. }
            | WatchEvent::Corrected { seq, .. }
            | WatchEvent::Resync { seq, .. } => *seq,
        }
    }

    /// Serialises the event into frame lines (`event<TAB>…` header).
    #[must_use]
    pub fn to_lines(&self) -> Vec<String> {
        match self {
            WatchEvent::Mutated {
                workflow,
                seq,
                op,
                outcome,
                deltas,
            } => {
                let mut lines = vec![
                    format!(
                        "event\tmutated\t{workflow}\t{seq}\t{}\t{}\t{}\t{}\t{}",
                        outcome.epoch,
                        outcome.class,
                        outcome.invalidated,
                        outcome.retained,
                        outcome.version
                    ),
                    format!("op\t{}", op.to_tail()),
                ];
                lines.extend(deltas.iter().map(delta_to_line));
                lines
            }
            WatchEvent::Corrected {
                workflow,
                seq,
                version,
                view_lines,
            } => {
                let mut lines = vec![format!("event\tcorrected\t{workflow}\t{seq}\t{version}")];
                lines.extend(view_lines.iter().cloned());
                lines
            }
            WatchEvent::Resync { workflow, seq } => {
                vec![format!("event\tresync\t{workflow}\t{seq}")]
            }
        }
    }

    /// Parses an event from frame lines.
    ///
    /// # Errors
    /// Reports non-event frames and malformed fields.
    pub fn from_lines(lines: &[String]) -> Result<Self, ServiceError> {
        let header = lines
            .first()
            .ok_or_else(|| ServiceError::Protocol("empty event frame".to_owned()))?;
        let fields: Vec<&str> = header.split('\t').collect();
        if fields.first().copied() != Some("event") {
            return Err(ServiceError::Protocol(format!(
                "not a watch event frame: '{header}'"
            )));
        }
        let workflow = parse_id(fields.get(2).copied().unwrap_or_default())?;
        let seq = parse_u64(fields.get(3).copied().unwrap_or_default(), "sequence")?;
        match fields.get(1).copied() {
            Some("mutated") => {
                let outcome = Mutated {
                    epoch: parse_u64(fields.get(4).copied().unwrap_or_default(), "epoch")?,
                    class: fields.get(5).copied().unwrap_or_default().to_owned(),
                    invalidated: parse_usize(
                        fields.get(6).copied().unwrap_or_default(),
                        "invalidated count",
                    )?,
                    retained: parse_usize(
                        fields.get(7).copied().unwrap_or_default(),
                        "retained count",
                    )?,
                    version: parse_usize(fields.get(8).copied().unwrap_or_default(), "version")?,
                };
                let op_line = lines.get(1).ok_or_else(|| {
                    ServiceError::Protocol("mutated event misses its op line".to_owned())
                })?;
                let op_fields: Vec<&str> = op_line.split('\t').collect();
                if op_fields.first().copied() != Some("op") {
                    return Err(ServiceError::Protocol(format!(
                        "malformed event op line '{op_line}'"
                    )));
                }
                let op = MutateOp::from_fields(&op_fields, 1)?;
                let deltas = lines[2..]
                    .iter()
                    .map(|line| {
                        delta_from_line(line).map_err(|e| ServiceError::Protocol(e.to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(WatchEvent::Mutated {
                    workflow,
                    seq,
                    op,
                    outcome,
                    deltas,
                })
            }
            Some("corrected") => Ok(WatchEvent::Corrected {
                workflow,
                seq,
                version: parse_usize(fields.get(4).copied().unwrap_or_default(), "version")?,
                view_lines: lines[1..].to_vec(),
            }),
            Some("resync") => Ok(WatchEvent::Resync { workflow, seq }),
            other => Err(ServiceError::Protocol(format!(
                "unknown event kind '{}'",
                other.unwrap_or_default()
            ))),
        }
    }
}

/// The task names a [`Response::Provenance`] answer lists, as
/// [`Response::encode`] reads them: owned on the client (`Vec<String>`),
/// borrowed from the served spec on the server, which therefore writes each
/// name into the response frame without copying it first.
pub trait NameList {
    /// The names in answer order.
    fn names(&self) -> impl ExactSizeIterator<Item = &str>;
}

impl NameList for Vec<String> {
    fn names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.iter().map(String::as_str)
    }
}

/// A response from server to client. `N` holds a provenance answer's names:
/// `Vec<String>` everywhere a response is decoded, a borrowing list where
/// the server encodes one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response<N = Vec<String>> {
    /// The workflow was registered under this id.
    Registered(WorkflowId),
    /// Validation verdict.
    Verdict(Verdict),
    /// Correction outcome.
    Corrected(Corrected),
    /// Names of the tasks in the subject's view-level provenance.
    Provenance(N),
    /// Mutation outcome.
    Mutated(Mutated),
    /// The exported workflow in the native text format.
    Exported(String),
    /// Number of shards that were snapshotted.
    Snapshotted(usize),
    /// Statistics snapshot.
    Stats(StatsReport),
    /// A workflow's change cursor: sequence number and mutation epoch.
    Epoch {
        /// The workflow's change-sequence number (mutations + corrections).
        seq: u64,
        /// The workflow's mutation epoch.
        epoch: u64,
    },
    /// Outcome of a [`Request::Heal`]: shards re-opened for writes and
    /// shards still degraded after the retry.
    Healed {
        /// Shards whose backend retry succeeded (writes re-opened).
        healed: usize,
        /// Shards whose backend retry failed again (still read-only).
        still_degraded: usize,
    },
    /// Telemetry text: the Prometheus-style exposition, or the slow-request
    /// dump for `metrics slow`.
    Metrics(String),
    /// The connection is now subscribed to a workflow's change feed.
    Watching(Watching),
    /// The connection left subscription mode.
    Unwatched,
    /// The server acknowledged a shutdown request.
    ShuttingDown,
    /// The request failed server-side. The payload is the typed
    /// [`ServiceError::to_wire`] tail; [`ServiceError::from_wire`] decodes
    /// it back into the variant the server raised (free-form text decodes
    /// to [`ServiceError::Remote`]).
    Error(String),
}

/// Writes one frame: the given lines followed by the terminator. Lines
/// starting with `.` are dot-escaped. The frame is assembled in memory and
/// written in a single call so each request/response costs one TCP segment.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(writer: &mut W, lines: &[String]) -> std::io::Result<()> {
    let mut frame = String::with_capacity(lines.iter().map(|l| l.len() + 2).sum::<usize>() + 2);
    encode_frame(&mut frame, lines);
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// Appends one frame's wire bytes (dot-stuffed lines plus the terminator) to
/// `out` without touching a socket — how pipelined requests and their
/// responses coalesce many frames into a single `write`.
pub fn encode_frame(out: &mut String, lines: &[String]) {
    push_lines(out, lines.iter().map(String::as_str));
    end_frame(out);
}

/// Appends the frame of a `register` request for `payload`, the bytes
/// [`Request::encode`] writes for it, from a borrowed payload.
pub fn encode_register(out: &mut String, payload: &str) {
    out.push_str("register\n");
    push_lines(out, payload.lines());
    end_frame(out);
}

/// Appends frame lines, dot-stuffing each that starts with `.` so no line
/// can pass for the terminator.
fn push_lines<'a>(out: &mut String, lines: impl IntoIterator<Item = &'a str>) {
    for line in lines {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push('\n');
    }
}

fn end_frame(out: &mut String) {
    out.push_str(FRAME_END);
    out.push('\n');
}

/// Decodes one wire line (its `\n` already split off) by the line policy
/// the frame decoder applies to a whole frame: one trailing `\r` is trimmed,
/// the bytes must be UTF-8 (never replaced lossily: a mangled byte could
/// silently rename a task inside a `register` payload), and a dot-stuffed
/// line is un-escaped. `Ok(None)` is the frame terminator.
///
/// # Errors
/// Reports bytes that are not UTF-8.
pub fn decode_line(raw: &[u8]) -> Result<Option<&str>, std::str::Utf8Error> {
    if is_terminator(raw) {
        return Ok(None);
    }
    std::str::from_utf8(raw).map(|line| Some(unstuff(line)))
}

/// `true` for the line that ends a frame: `.`, with or without one `\r`.
fn is_terminator(raw: &[u8]) -> bool {
    matches!(raw, b"." | b".\r")
}

/// A payload line's text: one trailing `\r` trimmed, one stuffed `.`
/// removed.
fn unstuff(line: &str) -> &str {
    let line = line.strip_suffix('\r').unwrap_or(line);
    line.strip_prefix('.').unwrap_or(line)
}

/// Bytes of room a [`FrameDecoder`] makes for one read, at least. A small
/// frame arrives in one read; the first large frame a connection sees
/// arrives in reads of this size, and the later ones fill the room it left
/// in one read each.
const READ_ROOM: usize = 8 << 10;

/// The protocol's one frame decoder, shared by the server's per-connection
/// input and the client's [`FrameReader`].
///
/// Bytes are read straight into one buffer the decoder keeps between
/// frames. [`FrameDecoder::next_frame`] scans only the bytes that arrived
/// since its last call, a word at a time ([`ByteOffsets`], the scan the
/// text-format reader finds its delimiters with), counting lines until the
/// terminator line arrives. Only then is the frame built, in one more
/// pass: its bytes are checked as UTF-8 once, and each line is decoded
/// (one trailing `\r` trimmed, a stuffed `.` removed) into one `String` of
/// a `Vec` sized exactly from the count, or, behind a header whose payload
/// is text (see [`Frame::Text`]), appended to the one payload `String`.
/// Bytes after the terminator stay buffered for the next frame.
///
/// The buffer starts empty, is allocated on the first read, and holds at
/// most the largest frame (plus what was pipelined behind it) the decoder
/// has held and one read's room; the caller bounds it by what it asks
/// [`FrameDecoder::read_from`] to read.
#[derive(Default)]
pub(crate) struct FrameDecoder {
    /// Received bytes; those in `start..end` are not yet taken, and the
    /// rest of the buffer is room for reads.
    buf: Vec<u8>,
    /// Where the next frame starts.
    start: usize,
    /// End of the received bytes.
    end: usize,
    /// End of the bytes scanned for newlines.
    scanned: usize,
    /// Start of the first line of the next frame not yet ended by a
    /// newline.
    line: usize,
    /// Lines of the next frame before `line`.
    lines: usize,
}

impl std::fmt::Debug for FrameDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameDecoder")
            .field("buffered", &self.buffered())
            .field("capacity", &self.buf.len())
            .finish_non_exhaustive()
    }
}

impl FrameDecoder {
    /// Bytes received and not yet taken as part of a frame: the frames
    /// still waiting in the buffer and the start of the one after them.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Reads once from `reader` into the buffer's room, at most `limit`
    /// bytes (`limit` > 0), and returns what the reader returned: `Ok(0)`
    /// is the end of the stream.
    ///
    /// # Errors
    /// Propagates the reader's error, `WouldBlock` and `Interrupted`
    /// included; the decoder is unchanged by it.
    pub fn read_from<R: std::io::Read>(
        &mut self,
        reader: &mut R,
        limit: usize,
    ) -> std::io::Result<usize> {
        debug_assert!(limit > 0, "a read of nothing would look like the end");
        self.make_room(limit.min(READ_ROOM));
        let room = (self.buf.len() - self.end).min(limit);
        let n = reader.read(&mut self.buf[self.end..self.end + room])?;
        self.end += n;
        Ok(n)
    }

    /// Ensures at least `want` bytes of room after the received bytes:
    /// first by moving them to the front of the buffer, then by growing
    /// the buffer by the shortfall alone. The allocation grows by doubling,
    /// but memory past the room a read needs is never written, so the
    /// buffer touches at most the largest frame (plus what was pipelined
    /// behind it) and one read's room.
    fn make_room(&mut self, want: usize) {
        if self.start == self.end {
            // everything was taken: start over at the front
            self.start = 0;
            self.end = 0;
            self.scanned = 0;
            self.line = 0;
        }
        if self.buf.len() - self.end >= want {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.line -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
    }

    /// Takes the next complete frame off the buffer, or `None` while its
    /// terminator has not arrived. A frame whose bytes are not UTF-8 is
    /// taken all the same and reported as the error, so the frame after it
    /// decodes normally.
    pub fn next_frame(&mut self) -> Option<Result<Frame, std::str::Utf8Error>> {
        let (mut line, mut lines) = (self.line, self.lines);
        let mut terminator = None;
        for newline in ByteOffsets::new(&self.buf[self.scanned..self.end], [b'\n']) {
            let at = self.scanned + newline;
            if is_terminator(&self.buf[line..at]) {
                terminator = Some(at);
                break;
            }
            lines += 1;
            line = at + 1;
        }
        let Some(at) = terminator else {
            (self.line, self.lines, self.scanned) = (line, lines, self.end);
            return None;
        };
        let frame = build_frame(&self.buf[self.start..line], lines);
        self.start = at + 1;
        self.scanned = self.start;
        self.line = self.start;
        self.lines = 0;
        Some(frame)
    }
}

/// Builds a frame from its bytes (every line `\n`-ended, the terminator
/// excluded), which hold exactly `lines` lines: the header line first,
/// then the payload, as one string when the header says it is text.
fn build_frame(bytes: &[u8], lines: usize) -> Result<Frame, std::str::Utf8Error> {
    // `\n` and `\r` never occur inside a multi-byte character, so the frame
    // is UTF-8 exactly when each of its lines is
    let text = std::str::from_utf8(bytes)?;
    let mut line_ends = ByteOffsets::new(bytes, [b'\n']);
    let Some(header_end) = line_ends.next() else {
        return Ok(Frame::Lines(Vec::new()));
    };
    let header = unstuff(&text[..header_end]);
    let mut from = header_end + 1;
    if lines > 1 && has_text_payload(header) {
        // the payload's lines joined with `\n`: its bytes, less each
        // line's `\r` and stuffed dot and the last newline
        let mut payload = String::with_capacity(text.len() - from);
        for newline in line_ends {
            if from > header_end + 1 {
                payload.push('\n');
            }
            payload.push_str(unstuff(&text[from..newline]));
            from = newline + 1;
        }
        return Ok(Frame::Text {
            header: header.to_owned(),
            payload,
        });
    }
    let mut frame = Vec::with_capacity(lines);
    frame.push(header.to_owned());
    for newline in line_ends {
        frame.push(unstuff(&text[from..newline]).to_owned());
        from = newline + 1;
    }
    debug_assert_eq!(frame.len(), lines, "the scan counted every line");
    Ok(Frame::Lines(frame))
}

/// `true` for the header of a frame whose payload is one text: a
/// `register` request, or a `corrected`, `exported` or `metrics` response.
fn has_text_payload(header: &str) -> bool {
    let mut fields = header.split('\t');
    match fields.next() {
        Some("register") => true,
        Some("ok") => matches!(fields.next(), Some("corrected" | "exported" | "metrics")),
        _ => false,
    }
}

/// One frame as the protocol's frame decoder hands it over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Every line as one `String`, the header first (none for a frame that
    /// is only its terminator): provenance names, verdicts, watch events
    /// and every frame without a payload.
    Lines(Vec<String>),
    /// A frame with at least one payload line under a `register`,
    /// `ok<TAB>corrected`, `ok<TAB>exported` or `ok<TAB>metrics` header:
    /// the header, and the payload's lines joined with `\n` (each line
    /// decoded as [`decode_line`] decodes it).
    Text {
        /// The header line.
        header: String,
        /// The payload lines, joined.
        payload: String,
    },
}

impl Frame {
    /// The frame's lines, the header first; a text payload is split back
    /// at its newlines.
    #[must_use]
    pub fn into_lines(self) -> Vec<String> {
        match self {
            Frame::Lines(lines) => lines,
            Frame::Text { header, payload } => std::iter::once(header)
                .chain(payload.split('\n').map(str::to_owned))
                .collect(),
        }
    }
}

/// A stream read frame by frame through the protocol's one frame decoder
/// (the one the server's connections decode their input with): how clients,
/// watch streams and tests read responses. Bytes read past a frame stay
/// buffered for the next one, so a reader can change hands mid-stream (a
/// [`crate::client::WatchStream`] hands its reader back to the client).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    decoder: FrameDecoder,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a stream; the decoder's buffer is allocated on the first read.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            decoder: FrameDecoder::default(),
        }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads one frame as lines: [`FrameReader::next_frame`] with a text
    /// payload split back into its lines.
    ///
    /// # Errors
    /// As [`FrameReader::next_frame`].
    pub fn read_frame(&mut self) -> std::io::Result<Option<Vec<String>>> {
        self.next_frame().map(|frame| frame.map(Frame::into_lines))
    }

    /// Reads one frame, un-escaping dot-stuffed lines. Returns `None` on a
    /// clean end of stream before any byte of a frame. At most
    /// [`MAX_FRAME_BYTES`] are buffered for one frame.
    ///
    /// # Errors
    /// Propagates I/O errors (`Interrupted` reads are retried); a stream
    /// ending mid-frame is reported as `UnexpectedEof`, and a frame past
    /// the size bound or one that is not UTF-8 as `InvalidData`. A frame
    /// that is not UTF-8 is consumed, so the next read starts at the frame
    /// after it.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Frame>> {
        use std::io::{Error, ErrorKind};
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                return frame
                    .map(Some)
                    .map_err(|e| Error::new(ErrorKind::InvalidData, e));
            }
            let pending = self.decoder.buffered();
            if pending >= MAX_FRAME_BYTES {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                ));
            }
            match self
                .decoder
                .read_from(&mut self.inner, MAX_FRAME_BYTES - pending)
            {
                Ok(0) if pending == 0 => return Ok(None),
                Ok(0) => {
                    return Err(Error::new(
                        ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn parse_id(text: &str) -> Result<WorkflowId, ServiceError> {
    text.parse::<u64>()
        .map(WorkflowId)
        .map_err(|_| ServiceError::Protocol(format!("invalid workflow id '{text}'")))
}

fn parse_usize(text: &str, what: &str) -> Result<usize, ServiceError> {
    text.parse::<usize>()
        .map_err(|_| ServiceError::Protocol(format!("invalid {what} '{text}'")))
}

fn parse_u64(text: &str, what: &str) -> Result<u64, ServiceError> {
    text.parse::<u64>()
        .map_err(|_| ServiceError::Protocol(format!("invalid {what} '{text}'")))
}

/// Checks a header's line count against the payload lines that follow it.
fn check_count(field: Option<&str>, payload: usize, what: &str) -> Result<(), ServiceError> {
    let field = field.unwrap_or_default();
    match field.parse::<usize>() {
        Ok(count) if count == payload => Ok(()),
        Ok(count) => Err(ServiceError::Protocol(format!(
            "header announces {count} {what} lines, the frame holds {payload}"
        ))),
        Err(_) => Err(ServiceError::Protocol(format!(
            "invalid {what} count '{field}'"
        ))),
    }
}

impl Request {
    /// Serialises the request into frame lines (header + payload).
    #[must_use]
    pub fn to_lines(&self) -> Vec<String> {
        match self {
            Request::Register { payload } => {
                let mut lines = vec!["register".to_owned()];
                lines.extend(payload.lines().map(str::to_owned));
                lines
            }
            Request::Validate { workflow, version } => match version {
                Some(v) => vec![format!("validate\t{workflow}\t{v}")],
                None => vec![format!("validate\t{workflow}")],
            },
            Request::Correct { workflow, strategy } => {
                vec![format!("correct\t{workflow}\t{}", strategy.name())]
            }
            Request::Provenance { workflow, subject } => {
                vec![format!("provenance\t{workflow}\t{subject}")]
            }
            Request::Mutate {
                workflow,
                op,
                expect,
            } => match expect {
                Some(epoch) => vec![format!("mutate\t{workflow}\t@{epoch}\t{}", op.to_tail())],
                None => vec![format!("mutate\t{workflow}\t{}", op.to_tail())],
            },
            Request::Export { workflow } => vec![format!("export\t{workflow}")],
            Request::Snapshot => vec!["snapshot".to_owned()],
            Request::Stats => vec!["stats".to_owned()],
            Request::Epoch { workflow } => vec![format!("epoch\t{workflow}")],
            Request::Heal => vec!["heal".to_owned()],
            Request::Metrics { slow } => vec![if *slow {
                "metrics\tslow".to_owned()
            } else {
                "metrics".to_owned()
            }],
            Request::Watch { workflow, mode } => match mode {
                WatchMode::Tail => vec![format!("watch\t{workflow}")],
                WatchMode::Resync => vec![format!("watch\t{workflow}\tresync")],
                WatchMode::From(seq) => vec![format!("watch\t{workflow}\t{seq}")],
            },
            Request::Unwatch => vec!["unwatch".to_owned()],
            Request::Shutdown => vec!["shutdown".to_owned()],
        }
    }

    /// Appends the request's frame to `out`: the bytes
    /// `encode_frame(out, &to_lines())` would write, with a `register`
    /// payload written straight from its text.
    pub fn encode(&self, out: &mut String) {
        match self {
            Request::Register { payload } => encode_register(out, payload),
            request => encode_frame(out, &request.to_lines()),
        }
    }

    /// Parses a request from a decoded frame: the header parses as
    /// [`Request::from_lines`] parses it, and a [`Frame::Text`] payload is
    /// taken as it is for the `register` it carries.
    ///
    /// # Errors
    /// As [`Request::from_lines`].
    pub fn from_frame(frame: Frame) -> Result<Self, ServiceError> {
        match frame {
            Frame::Lines(lines) => Self::from_lines(&lines),
            Frame::Text { header, payload } => {
                let mut request = Self::from_lines(std::slice::from_ref(&header))?;
                if let Request::Register { payload: text } = &mut request {
                    *text = payload;
                }
                Ok(request)
            }
        }
    }

    /// Parses a request from frame lines.
    ///
    /// # Errors
    /// Reports empty frames, unknown verbs and malformed arguments.
    pub fn from_lines(lines: &[String]) -> Result<Self, ServiceError> {
        let header = lines
            .first()
            .ok_or_else(|| ServiceError::Protocol("empty request frame".to_owned()))?;
        let fields: Vec<&str> = header.split('\t').collect();
        match fields[0] {
            "register" => Ok(Request::Register {
                payload: lines[1..].join("\n"),
            }),
            "validate" => {
                let workflow = parse_id(fields.get(1).copied().unwrap_or_default())?;
                let version = match fields.get(2) {
                    Some(v) => Some(parse_usize(v, "view version")?),
                    None => None,
                };
                Ok(Request::Validate { workflow, version })
            }
            "correct" => {
                let workflow = parse_id(fields.get(1).copied().unwrap_or_default())?;
                let name = fields.get(2).copied().unwrap_or("strong");
                let strategy = Strategy::parse(name)
                    .ok_or_else(|| ServiceError::UnknownStrategy(name.to_owned()))?;
                Ok(Request::Correct { workflow, strategy })
            }
            "provenance" => {
                let workflow = parse_id(fields.get(1).copied().unwrap_or_default())?;
                let subject = fields
                    .get(2)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| ServiceError::Protocol("provenance needs a task".to_owned()))?;
                Ok(Request::Provenance {
                    workflow,
                    subject: (*subject).to_owned(),
                })
            }
            "mutate" => {
                let workflow = parse_id(fields.get(1).copied().unwrap_or_default())?;
                // optional CAS marker `@<epoch>` between the id and the op
                let (expect, at) = match fields.get(2).and_then(|f| f.strip_prefix('@')) {
                    Some(epoch) => (Some(parse_u64(epoch, "expected epoch")?), 3),
                    None => (None, 2),
                };
                let op = MutateOp::from_fields(&fields, at)?;
                Ok(Request::Mutate {
                    workflow,
                    op,
                    expect,
                })
            }
            "export" => Ok(Request::Export {
                workflow: parse_id(fields.get(1).copied().unwrap_or_default())?,
            }),
            "snapshot" => Ok(Request::Snapshot),
            "stats" => Ok(Request::Stats),
            "epoch" => Ok(Request::Epoch {
                workflow: parse_id(fields.get(1).copied().unwrap_or_default())?,
            }),
            "heal" => Ok(Request::Heal),
            "metrics" => match fields.get(1).copied() {
                None | Some("") => Ok(Request::Metrics { slow: false }),
                Some("slow") => Ok(Request::Metrics { slow: true }),
                Some(other) => Err(ServiceError::Protocol(format!(
                    "unknown metrics mode '{other}'"
                ))),
            },
            "watch" => {
                let workflow = parse_id(fields.get(1).copied().unwrap_or_default())?;
                let mode = match fields.get(2).copied() {
                    None | Some("") => WatchMode::Tail,
                    Some("resync") => WatchMode::Resync,
                    Some(seq) => WatchMode::From(parse_u64(seq, "watch sequence")?),
                };
                Ok(Request::Watch { workflow, mode })
            }
            "unwatch" => Ok(Request::Unwatch),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServiceError::Protocol(format!("unknown verb '{other}'"))),
        }
    }
}

impl<N: NameList> Response<N> {
    /// Appends the response's frame — header, dot-stuffed payload lines and
    /// terminator — to `out`: the bytes `encode_frame(out, &to_lines())`
    /// would write, with no line copied on the way. This is the one encoder
    /// the server writes responses with.
    pub fn encode(&self, out: &mut String) {
        use std::fmt::Write as _;
        // a header starts with `ok` or `err`, so it never needs stuffing;
        // writing to a `String` cannot fail
        match self {
            Response::Registered(id) => {
                let _ = writeln!(out, "ok\tregistered\t{id}");
            }
            Response::Verdict(v) => {
                let _ = writeln!(
                    out,
                    "ok\tverdict\t{}\t{}\t{}\t{}\t{}",
                    if v.sound { "sound" } else { "unsound" },
                    v.version,
                    if v.cached { "hit" } else { "miss" },
                    v.unsound.len(),
                    v.epoch
                );
                push_lines(out, v.unsound.iter().map(String::as_str));
            }
            Response::Corrected(c) => {
                let _ = writeln!(
                    out,
                    "ok\tcorrected\t{}\t{}\t{}",
                    c.version, c.composites_before, c.composites_after
                );
                push_lines(out, c.payload.lines());
            }
            Response::Provenance(tasks) => {
                let names = tasks.names();
                let _ = writeln!(out, "ok\tprovenance\t{}", names.len());
                push_lines(out, names);
            }
            Response::Mutated(m) => {
                let _ = writeln!(
                    out,
                    "ok\tmutated\t{}\t{}\t{}\t{}\t{}",
                    m.epoch, m.class, m.invalidated, m.retained, m.version
                );
            }
            Response::Exported(payload) => {
                out.push_str("ok\texported\n");
                push_lines(out, payload.lines());
            }
            Response::Snapshotted(shards) => {
                let _ = writeln!(out, "ok\tsnapshotted\t{shards}");
            }
            Response::Epoch { seq, epoch } => {
                let _ = writeln!(out, "ok\tepoch\t{seq}\t{epoch}");
            }
            Response::Healed {
                healed,
                still_degraded,
            } => {
                let _ = writeln!(out, "ok\thealed\t{healed}\t{still_degraded}");
            }
            Response::Stats(stats) => {
                out.push_str("ok\tstats\n");
                for s in &stats.shards {
                    let _ = writeln!(
                        out,
                        "shard\t{STATS_SCHEMA_VERSION}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                        s.shard,
                        s.workflows,
                        s.validate_hits,
                        s.validate_misses,
                        s.composite_hits,
                        s.composite_misses,
                        s.validate_ns,
                        s.requests,
                        s.snapshot_publishes,
                        s.active_watchers,
                        s.dropped_watchers
                    );
                }
            }
            Response::Metrics(text) => {
                out.push_str("ok\tmetrics\n");
                push_lines(out, text.lines());
            }
            Response::Watching(w) => {
                let mode = if w.payload.is_some() {
                    "resync"
                } else {
                    "tail"
                };
                let _ = writeln!(
                    out,
                    "ok\twatching\t{}\t{}\t{}\t{mode}",
                    w.workflow, w.seq, w.epoch
                );
                push_lines(out, w.payload.iter().flat_map(|payload| payload.lines()));
            }
            Response::Unwatched => out.push_str("ok\tunwatched\n"),
            Response::ShuttingDown => out.push_str("ok\tshutdown\n"),
            // the typed wire tail is TAB-structured — only newlines (which
            // would break the framing) are flattened
            Response::Error(message) => {
                let _ = writeln!(out, "err\t{}", message.replace('\n', " "));
            }
        }
        end_frame(out);
    }
}

impl Response {
    /// Serialises the response into frame lines (header + payload): the
    /// line-level form of [`Response::encode`], kept for tools that inspect
    /// frames line by line.
    #[must_use]
    pub fn to_lines(&self) -> Vec<String> {
        match self {
            Response::Registered(id) => vec![format!("ok\tregistered\t{id}")],
            Response::Verdict(v) => {
                let mut lines = vec![format!(
                    "ok\tverdict\t{}\t{}\t{}\t{}\t{}",
                    if v.sound { "sound" } else { "unsound" },
                    v.version,
                    if v.cached { "hit" } else { "miss" },
                    v.unsound.len(),
                    v.epoch
                )];
                lines.extend(v.unsound.iter().cloned());
                lines
            }
            Response::Corrected(c) => {
                let mut lines = vec![format!(
                    "ok\tcorrected\t{}\t{}\t{}",
                    c.version, c.composites_before, c.composites_after
                )];
                lines.extend(c.payload.lines().map(str::to_owned));
                lines
            }
            Response::Provenance(tasks) => {
                let mut lines = vec![format!("ok\tprovenance\t{}", tasks.len())];
                lines.extend(tasks.iter().cloned());
                lines
            }
            Response::Mutated(m) => {
                vec![format!(
                    "ok\tmutated\t{}\t{}\t{}\t{}\t{}",
                    m.epoch, m.class, m.invalidated, m.retained, m.version
                )]
            }
            Response::Exported(payload) => {
                let mut lines = vec!["ok\texported".to_owned()];
                lines.extend(payload.lines().map(str::to_owned));
                lines
            }
            Response::Snapshotted(shards) => vec![format!("ok\tsnapshotted\t{shards}")],
            Response::Epoch { seq, epoch } => vec![format!("ok\tepoch\t{seq}\t{epoch}")],
            Response::Healed {
                healed,
                still_degraded,
            } => vec![format!("ok\thealed\t{healed}\t{still_degraded}")],
            Response::Stats(stats) => {
                let mut lines = vec!["ok\tstats".to_owned()];
                for s in &stats.shards {
                    lines.push(format!(
                        "shard\t{STATS_SCHEMA_VERSION}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                        s.shard,
                        s.workflows,
                        s.validate_hits,
                        s.validate_misses,
                        s.composite_hits,
                        s.composite_misses,
                        s.validate_ns,
                        s.requests,
                        s.snapshot_publishes,
                        s.active_watchers,
                        s.dropped_watchers
                    ));
                }
                lines
            }
            Response::Metrics(text) => {
                let mut lines = vec!["ok\tmetrics".to_owned()];
                lines.extend(text.lines().map(str::to_owned));
                lines
            }
            Response::Watching(w) => {
                let mut lines = vec![format!(
                    "ok\twatching\t{}\t{}\t{}\t{}",
                    w.workflow,
                    w.seq,
                    w.epoch,
                    if w.payload.is_some() {
                        "resync"
                    } else {
                        "tail"
                    }
                )];
                if let Some(payload) = &w.payload {
                    lines.extend(payload.lines().map(str::to_owned));
                }
                lines
            }
            Response::Unwatched => vec!["ok\tunwatched".to_owned()],
            Response::ShuttingDown => vec!["ok\tshutdown".to_owned()],
            Response::Error(message) => {
                // the typed wire tail is TAB-structured — only newlines
                // (which would break the framing) are flattened
                vec![format!("err\t{}", message.replace('\n', " "))]
            }
        }
    }

    /// Parses a response from frame lines.
    ///
    /// # Errors
    /// Reports empty frames, unknown kinds and malformed fields, and a
    /// verdict or provenance frame whose payload is not as long as its
    /// header says.
    pub fn from_lines(lines: &[String]) -> Result<Self, ServiceError> {
        Self::parse(lines, lines.len().saturating_sub(1))
    }

    /// Parses a response from `lines` (its header, and its payload where
    /// the variant copies one) for a frame whose payload has `payload`
    /// lines.
    fn parse(lines: &[String], payload: usize) -> Result<Self, ServiceError> {
        let header = lines
            .first()
            .ok_or_else(|| ServiceError::Protocol("empty response frame".to_owned()))?;
        let fields: Vec<&str> = header.split('\t').collect();
        match (fields[0], fields.get(1).copied()) {
            ("err", _) => Ok(Response::Error(
                header
                    .split_once('\t')
                    .map(|(_, message)| message)
                    .unwrap_or_default()
                    .to_owned(),
            )),
            ("ok", Some("registered")) => Ok(Response::Registered(parse_id(
                fields.get(2).copied().unwrap_or_default(),
            )?)),
            ("ok", Some("verdict")) => {
                let sound = match fields.get(2).copied() {
                    Some("sound") => true,
                    Some("unsound") => false,
                    other => {
                        return Err(ServiceError::Protocol(format!(
                            "invalid verdict '{}'",
                            other.unwrap_or_default()
                        )))
                    }
                };
                let version = parse_usize(fields.get(3).copied().unwrap_or_default(), "version")?;
                let cached = fields.get(4).copied() == Some("hit");
                let epoch = parse_u64(fields.get(6).copied().unwrap_or_default(), "epoch")?;
                check_count(fields.get(5).copied(), payload, "unsound composite")?;
                Ok(Response::Verdict(Verdict {
                    sound,
                    version,
                    cached,
                    epoch,
                    unsound: lines[1..].to_vec(),
                }))
            }
            ("ok", Some("corrected")) => Ok(Response::Corrected(Corrected {
                version: parse_usize(fields.get(2).copied().unwrap_or_default(), "version")?,
                composites_before: parse_usize(
                    fields.get(3).copied().unwrap_or_default(),
                    "composite count",
                )?,
                composites_after: parse_usize(
                    fields.get(4).copied().unwrap_or_default(),
                    "composite count",
                )?,
                payload: lines[1..].join("\n"),
            })),
            ("ok", Some("provenance")) => {
                check_count(fields.get(2).copied(), payload, "provenance task")?;
                Ok(Response::Provenance(lines[1..].to_vec()))
            }
            ("ok", Some("mutated")) => Ok(Response::Mutated(Mutated {
                epoch: parse_u64(fields.get(2).copied().unwrap_or_default(), "epoch")?,
                class: fields.get(3).copied().unwrap_or_default().to_owned(),
                invalidated: parse_usize(
                    fields.get(4).copied().unwrap_or_default(),
                    "invalidated count",
                )?,
                retained: parse_usize(
                    fields.get(5).copied().unwrap_or_default(),
                    "retained count",
                )?,
                version: parse_usize(fields.get(6).copied().unwrap_or_default(), "version")?,
            })),
            ("ok", Some("exported")) => Ok(Response::Exported(lines[1..].join("\n"))),
            ("ok", Some("snapshotted")) => Ok(Response::Snapshotted(parse_usize(
                fields.get(2).copied().unwrap_or_default(),
                "shard count",
            )?)),
            ("ok", Some("epoch")) => Ok(Response::Epoch {
                seq: parse_u64(fields.get(2).copied().unwrap_or_default(), "sequence")?,
                epoch: parse_u64(fields.get(3).copied().unwrap_or_default(), "epoch")?,
            }),
            ("ok", Some("healed")) => Ok(Response::Healed {
                healed: parse_usize(fields.get(2).copied().unwrap_or_default(), "healed count")?,
                still_degraded: parse_usize(
                    fields.get(3).copied().unwrap_or_default(),
                    "degraded count",
                )?,
            }),
            ("ok", Some("stats")) => {
                let mut shards = Vec::new();
                for line in &lines[1..] {
                    let f: Vec<&str> = line.split('\t').collect();
                    if f.first().copied() != Some("shard") || f.len() < 2 {
                        return Err(ServiceError::Protocol(format!(
                            "malformed shard line '{line}'"
                        )));
                    }
                    if f[1] != STATS_SCHEMA_VERSION {
                        return Err(ServiceError::SchemaVersion {
                            expected: STATS_SCHEMA_VERSION,
                            found: f[1].to_owned(),
                        });
                    }
                    if f.len() != 13 {
                        return Err(ServiceError::Protocol(format!(
                            "malformed shard line '{line}'"
                        )));
                    }
                    shards.push(ShardStat {
                        shard: parse_usize(f[2], "shard index")?,
                        workflows: parse_usize(f[3], "workflow count")?,
                        validate_hits: parse_u64(f[4], "hit count")?,
                        validate_misses: parse_u64(f[5], "miss count")?,
                        composite_hits: parse_u64(f[6], "composite hit count")?,
                        composite_misses: parse_u64(f[7], "composite miss count")?,
                        validate_ns: parse_u64(f[8], "latency")?,
                        requests: parse_u64(f[9], "request count")?,
                        snapshot_publishes: parse_u64(f[10], "publish count")?,
                        active_watchers: parse_u64(f[11], "watcher count")?,
                        dropped_watchers: parse_u64(f[12], "dropped watcher count")?,
                    });
                }
                Ok(Response::Stats(StatsReport { shards }))
            }
            ("ok", Some("metrics")) => Ok(Response::Metrics(lines[1..].join("\n"))),
            ("ok", Some("watching")) => {
                let resync = match fields.get(5).copied() {
                    Some("resync") => true,
                    Some("tail") | None => false,
                    Some(other) => {
                        return Err(ServiceError::Protocol(format!(
                            "invalid watch mode '{other}'"
                        )))
                    }
                };
                Ok(Response::Watching(Watching {
                    workflow: parse_id(fields.get(2).copied().unwrap_or_default())?,
                    seq: parse_u64(fields.get(3).copied().unwrap_or_default(), "sequence")?,
                    epoch: parse_u64(fields.get(4).copied().unwrap_or_default(), "epoch")?,
                    payload: resync.then(|| lines[1..].join("\n")),
                }))
            }
            ("ok", Some("unwatched")) => Ok(Response::Unwatched),
            ("ok", Some("shutdown")) => Ok(Response::ShuttingDown),
            _ => Err(ServiceError::Protocol(format!(
                "unknown response header '{header}'"
            ))),
        }
    }

    /// Parses a response from a decoded frame — [`Response::from_lines`]
    /// without copying the payload: provenance and verdict names move into
    /// the answer, and export, correction and metrics text is the frame's
    /// own payload string.
    ///
    /// # Errors
    /// As [`Response::from_lines`].
    pub fn from_frame(frame: Frame) -> Result<Self, ServiceError> {
        let mut frame = match frame {
            Frame::Text { header, payload } => {
                let mut response = Self::parse(std::slice::from_ref(&header), 1)?;
                if let Response::Corrected(Corrected { payload: text, .. })
                | Response::Exported(text)
                | Response::Metrics(text) = &mut response
                {
                    *text = payload;
                }
                return Ok(response);
            }
            Frame::Lines(lines) => lines,
        };
        if frame.len() <= 1 {
            return Self::from_lines(&frame);
        }
        // the header alone parses every variant, with an empty payload
        // and its counts checked against the frame's
        let mut response = Self::parse(&frame[..1], frame.len() - 1)?;
        match &mut response {
            // dropping the header shifts the line handles once (≈2.5 µs
            // for a 5k-name answer), not the names
            Response::Provenance(names) => {
                frame.remove(0);
                *names = frame;
            }
            Response::Verdict(verdict) => {
                frame.remove(0);
                verdict.unsound = frame;
            }
            _ => return Self::from_lines(&frame),
        }
        Ok(response)
    }
}

/// Generated wire input and the decoding the line policy gives it: the
/// reference both frame readers are held to (the client's [`FrameReader`]
/// here, the server's per-connection input in `server`).
#[cfg(test)]
pub(crate) mod wire_cases {
    use super::{decode_line, Frame};
    use proptest::prelude::*;

    /// What lines are made of: dots, `\r`, tabs, `\x0b` (the byte a
    /// newline scan with false matches would flag after a `\n`), one- to
    /// four-byte characters, and — at the two highest indices — bytes that
    /// are not UTF-8 (a stray continuation byte and a cut-off character).
    const PIECES: [&[u8]; 12] = [
        b"",
        b".",
        b"..",
        b"\r",
        b"\t",
        b"\x0b",
        b"task7",
        "\u{e9}".as_bytes(),
        "\u{20ac}".as_bytes(),
        "\u{1d11e}".as_bytes(),
        b"\xff",
        b"\xe2\x82",
    ];

    /// Headers of the frames whose payload the decoder joins into one
    /// text (`\r` ended, or dot-stuffed, as a peer may send them), and two
    /// whose payload it keeps as lines.
    const HEADERS: [&[u8]; 7] = [
        b"register",
        b"register\r",
        b"ok\tcorrected\t2\t7\t9",
        b"ok\texported",
        b"ok\tmetrics",
        b".register",
        b"ok\tprovenance\t2",
    ];

    /// Wire bytes of a few frames: lines of up to four pieces (a bad piece
    /// is drawn about once in thirty), each frame ended by `.` or `.\r`,
    /// more than half of them behind one of the [`HEADERS`]. A line may
    /// come out as `.` or `.\r` itself and end its frame early, as raw
    /// input can.
    pub(crate) fn wire() -> impl Strategy<Value = Vec<u8>> {
        let piece = (0usize..64).prop_map(|draw| match draw {
            62 | 63 => PIECES[draw - 52],
            _ => PIECES[draw % 10],
        });
        let line = proptest::collection::vec(piece, 0..5).prop_map(|pieces| pieces.concat());
        let frame = (proptest::collection::vec(line, 0..7), 0u8..2, 0usize..12);
        proptest::collection::vec(frame, 1..5).prop_map(|frames| {
            let mut wire = Vec::new();
            for (lines, cr, header) in frames {
                if let Some(header) = HEADERS.get(header) {
                    wire.extend_from_slice(header);
                    wire.push(b'\n');
                }
                for line in lines {
                    wire.extend_from_slice(&line);
                    wire.push(b'\n');
                }
                wire.extend_from_slice(if cr == 1 { b".\r\n" } else { b".\n" });
            }
            wire
        })
    }

    /// Sizes of the reads a [`Chunked`] stream returns, cycled: small, so
    /// reads split lines, characters and `\r\n` pairs everywhere.
    pub(crate) fn read_sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(1usize..12, 1..8)
    }

    /// The frames `wire` holds, split line by line through [`decode_line`]:
    /// `None` for a frame with a line that is not UTF-8. `partial` is true
    /// when bytes follow the last terminator.
    pub(crate) struct Reference {
        pub(crate) frames: Vec<Option<Vec<String>>>,
        pub(crate) partial: bool,
    }

    pub(crate) fn reference(wire: &[u8]) -> Reference {
        let mut frames = Vec::new();
        let mut lines = Vec::new();
        let mut bad = false;
        let mut rest = wire;
        let mut partial = false;
        while let Some(newline) = rest.iter().position(|&byte| byte == b'\n') {
            partial = true;
            match decode_line(&rest[..newline]) {
                Ok(None) => {
                    frames.push((!bad).then(|| std::mem::take(&mut lines)));
                    lines.clear();
                    bad = false;
                    partial = false;
                }
                Ok(Some(text)) => lines.push(text.to_owned()),
                Err(_) => bad = true,
            }
            rest = &rest[newline + 1..];
        }
        Reference {
            frames,
            partial: partial || !rest.is_empty(),
        }
    }

    /// The frame the decoder must build of a frame's decoded `lines`: the
    /// payload of a `register`, `ok corrected`, `ok exported` or
    /// `ok metrics` frame joined into one text, the lines of any other.
    pub(crate) fn expected_frame(lines: &[String]) -> Frame {
        let fields: Vec<&str> = lines
            .first()
            .map_or(Vec::new(), |h| h.split('\t').collect());
        let text = match fields.as_slice() {
            ["register", ..] => true,
            ["ok", kind, ..] => ["corrected", "exported", "metrics"].contains(kind),
            _ => false,
        };
        if text && lines.len() > 1 {
            Frame::Text {
                header: lines[0].clone(),
                payload: lines[1..].join("\n"),
            }
        } else {
            Frame::Lines(lines.to_vec())
        }
    }

    /// A stream that returns `bytes` in reads of the given sizes, cycled.
    pub(crate) struct Chunked<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
    }

    impl<'a> Chunked<'a> {
        pub(crate) fn new(bytes: &'a [u8], sizes: &'a [usize]) -> Self {
            Chunked {
                bytes,
                sizes,
                reads: 0,
            }
        }
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// An endless frame: the same payload line forever (never a
    /// terminator), counting the bytes it hands out.
    pub(crate) struct Endless {
        line: Vec<u8>,
        at: usize,
        pub(crate) sent: usize,
    }

    impl Endless {
        pub(crate) fn new(line: &[u8]) -> Self {
            let mut line = [b"L", line, b"\n"].concat();
            line.retain(|&byte| byte != b'\n');
            line.push(b'\n');
            Endless {
                line,
                at: 0,
                sent: 0,
            }
        }
    }

    impl std::io::Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            for byte in out.iter_mut() {
                *byte = self.line[self.at];
                self.at = (self.at + 1) % self.line.len();
            }
            self.sent += out.len();
            Ok(out.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// Round-trips `request` through the line codec, and through the
    /// direct encoder and the frame decoder, which must write the line
    /// codec's bytes and read them back as it does.
    fn round_trip_request(request: &Request) {
        let lines = request.to_lines();
        let parsed = Request::from_lines(&lines).unwrap();
        assert_eq!(&parsed, request);
        let mut oracle = String::new();
        encode_frame(&mut oracle, &lines);
        let mut direct = String::new();
        request.encode(&mut direct);
        assert_eq!(direct, oracle, "encoder bytes for {request:?}");
        let frame = FrameReader::new(direct.as_bytes())
            .next_frame()
            .unwrap()
            .unwrap();
        assert_eq!(frame.clone().into_lines(), lines);
        assert_eq!(Request::from_frame(frame).unwrap(), parsed);
    }

    fn round_trip_response(response: &Response) {
        let lines = response.to_lines();
        let parsed = Response::from_lines(&lines).unwrap();
        assert_eq!(&parsed, response);
    }

    /// The variant's wire kind, matched exhaustively: a new variant fails
    /// to compile here until the codec test covers it.
    fn kind(response: &Response) -> &'static str {
        match response {
            Response::Registered(_) => "registered",
            Response::Verdict(_) => "verdict",
            Response::Corrected(_) => "corrected",
            Response::Provenance(_) => "provenance",
            Response::Mutated(_) => "mutated",
            Response::Exported(_) => "exported",
            Response::Snapshotted(_) => "snapshotted",
            Response::Stats(_) => "stats",
            Response::Epoch { .. } => "epoch",
            Response::Healed { .. } => "healed",
            Response::Metrics(_) => "metrics",
            Response::Watching(_) => "watching",
            Response::Unwatched => "unwatched",
            Response::ShuttingDown => "shutdown",
            Response::Error(_) => "error",
        }
    }

    #[test]
    fn requests_round_trip_through_lines() {
        round_trip_request(&Request::Register {
            payload: "workflow\tdemo\ntask\ta".to_owned(),
        });
        // dotted lines, an empty line, multi-byte names; a payload of one
        // empty line and an empty payload
        for payload in [".hidden\n\n..task\t\u{e9}\u{1d11e}\n.", "", " "] {
            round_trip_request(&Request::Register {
                payload: payload.to_owned(),
            });
        }
        let mut wire = String::new();
        encode_register(&mut wire, "task\ta\r\n.x");
        assert_eq!(wire, "register\ntask\ta\n..x\n.\n");
        round_trip_request(&Request::Validate {
            workflow: WorkflowId(7),
            version: None,
        });
        round_trip_request(&Request::Validate {
            workflow: WorkflowId(7),
            version: Some(2),
        });
        round_trip_request(&Request::Correct {
            workflow: WorkflowId(1),
            strategy: Strategy::Optimal,
        });
        round_trip_request(&Request::Provenance {
            workflow: WorkflowId(3),
            subject: "Build phylo tree".to_owned(),
        });
        round_trip_request(&Request::Export {
            workflow: WorkflowId(12),
        });
        round_trip_request(&Request::Snapshot);
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Epoch {
            workflow: WorkflowId(5),
        });
        round_trip_request(&Request::Heal);
        round_trip_request(&Request::Metrics { slow: false });
        round_trip_request(&Request::Metrics { slow: true });
        assert!(matches!(
            Request::from_lines(&["metrics\tfast".to_owned()]).unwrap_err(),
            ServiceError::Protocol(_)
        ));
        round_trip_request(&Request::Watch {
            workflow: WorkflowId(4),
            mode: WatchMode::Tail,
        });
        round_trip_request(&Request::Watch {
            workflow: WorkflowId(4),
            mode: WatchMode::Resync,
        });
        round_trip_request(&Request::Watch {
            workflow: WorkflowId(4),
            mode: WatchMode::From(31),
        });
        round_trip_request(&Request::Unwatch);
        round_trip_request(&Request::Shutdown);
    }

    #[test]
    fn mutate_requests_round_trip_through_lines() {
        let ops = [
            MutateOp::AddTask {
                name: "Fresh task".to_owned(),
            },
            MutateOp::RemoveTask {
                name: "Old task".to_owned(),
            },
            MutateOp::AddEdge {
                from: "Select entries".to_owned(),
                to: "Split entries".to_owned(),
            },
            MutateOp::RemoveEdge {
                from: "a".to_owned(),
                to: "b".to_owned(),
            },
            MutateOp::Split {
                composite: "Curate & align (16)".to_owned(),
                parts: vec![
                    vec!["Curate annotations".to_owned()],
                    vec!["Create alignment".to_owned()],
                ],
            },
            MutateOp::Merge {
                name: "Front end".to_owned(),
                composites: vec![
                    "Retrieve entries (13)".to_owned(),
                    "Annotations (14)".to_owned(),
                ],
            },
        ];
        for op in ops {
            round_trip_request(&Request::Mutate {
                workflow: WorkflowId(9),
                op: op.clone(),
                expect: None,
            });
            round_trip_request(&Request::Mutate {
                workflow: WorkflowId(9),
                op,
                expect: Some(41),
            });
        }
        // the CAS marker changes the wire only when present: the no-expect
        // form is the historical format, byte for byte
        assert_eq!(
            Request::Mutate {
                workflow: WorkflowId(3),
                op: MutateOp::AddTask {
                    name: "x".to_owned()
                },
                expect: None,
            }
            .to_lines(),
            vec!["mutate\t3\tadd-task\tx".to_owned()]
        );
        assert_eq!(
            Request::Mutate {
                workflow: WorkflowId(3),
                op: MutateOp::AddTask {
                    name: "x".to_owned()
                },
                expect: Some(7),
            }
            .to_lines(),
            vec!["mutate\t3\t@7\tadd-task\tx".to_owned()]
        );
        let bad = |line: &str| Request::from_lines(&[line.to_owned()]).unwrap_err();
        assert!(matches!(
            bad("mutate\t1\tfrobnicate"),
            ServiceError::Protocol(_)
        ));
        assert!(matches!(
            bad("mutate\t1\tadd-task"),
            ServiceError::Protocol(_)
        ));
        assert!(matches!(
            bad("mutate\t1\tadd-edge\ta"),
            ServiceError::Protocol(_)
        ));
        assert!(matches!(
            bad("mutate\t1\t@nope\tadd-task\tx"),
            ServiceError::Protocol(_)
        ));
    }

    #[test]
    fn responses_round_trip_through_lines() {
        round_trip_response(&Response::Registered(WorkflowId(42)));
        round_trip_response(&Response::Verdict(Verdict {
            sound: false,
            version: 0,
            cached: true,
            epoch: 3,
            unsound: vec!["Curate & align (16)".to_owned()],
        }));
        round_trip_response(&Response::Corrected(Corrected {
            version: 1,
            composites_before: 7,
            composites_after: 8,
            payload: "workflow\tdemo\ntask\ta".to_owned(),
        }));
        round_trip_response(&Response::Provenance(vec!["a".to_owned(), "b".to_owned()]));
        round_trip_response(&Response::Mutated(Mutated {
            epoch: 17,
            class: "monotone-safe".to_owned(),
            invalidated: 2,
            retained: 5,
            version: 1,
        }));
        round_trip_response(&Response::Stats(StatsReport {
            shards: vec![ShardStat {
                shard: 0,
                workflows: 3,
                validate_hits: 10,
                validate_misses: 2,
                composite_hits: 70,
                composite_misses: 14,
                validate_ns: 12345,
                requests: 15,
                snapshot_publishes: 9,
                active_watchers: 2,
                dropped_watchers: 1,
            }],
        }));
        round_trip_response(&Response::Exported(
            "workflow\tdemo\ntask\ta\ntask\tb\nedge\ta\tb".to_owned(),
        ));
        round_trip_response(&Response::Metrics(
            "# TYPE wolves_request_duration_seconds histogram\n\
             wolves_request_duration_seconds_bucket{verb=\"validate\",le=\"+Inf\"} 3"
                .to_owned(),
        ));
        round_trip_response(&Response::Snapshotted(4));
        round_trip_response(&Response::Watching(Watching {
            workflow: WorkflowId(6),
            seq: 12,
            epoch: 5,
            payload: None,
        }));
        round_trip_response(&Response::Watching(Watching {
            workflow: WorkflowId(6),
            seq: 12,
            epoch: 5,
            payload: Some("workflow\tdemo\ntask\ta".to_owned()),
        }));
        round_trip_response(&Response::Unwatched);
        round_trip_response(&Response::ShuttingDown);
        round_trip_response(&Response::Error("boom".to_owned()));
        round_trip_response(&Response::Epoch { seq: 12, epoch: 7 });
        round_trip_response(&Response::Healed {
            healed: 2,
            still_degraded: 1,
        });
        // typed error tails are TAB-structured and must survive the frame
        let wire = ServiceError::Degraded {
            shard: 1,
            reason: "disk full".to_owned(),
        }
        .to_wire();
        round_trip_response(&Response::Error(wire.clone()));
        let lines = Response::Error(wire).to_lines();
        match Response::from_lines(&lines).unwrap() {
            Response::Error(tail) => assert!(matches!(
                ServiceError::from_wire(&tail),
                ServiceError::Degraded { shard: 1, .. }
            )),
            other => panic!("not an error response: {other:?}"),
        }
    }

    #[test]
    fn the_direct_codec_matches_the_line_codec_for_every_variant() {
        let shard = |shard| ShardStat {
            shard,
            workflows: 3,
            validate_hits: 10,
            validate_misses: 2,
            composite_hits: 70,
            composite_misses: 14,
            validate_ns: 12345,
            requests: 15,
            snapshot_publishes: 9,
            active_watchers: 2,
            dropped_watchers: 1,
        };
        let dotted = ".\n.x\n..\nplain\r\n\n.";
        let names = |names: &[&str]| names.iter().map(|&n| n.to_owned()).collect::<Vec<_>>();
        let responses = [
            Response::Registered(WorkflowId(42)),
            Response::Verdict(Verdict {
                sound: false,
                version: 2,
                cached: false,
                epoch: 9,
                unsound: names(&[".", ".hidden", "Curate & align (16)"]),
            }),
            Response::Verdict(Verdict {
                sound: true,
                version: 0,
                cached: true,
                epoch: 0,
                unsound: Vec::new(),
            }),
            Response::Corrected(Corrected {
                version: 1,
                composites_before: 7,
                composites_after: 8,
                payload: dotted.to_owned(),
            }),
            Response::Provenance(names(&[".", ".x", "..", "", "a\tb"])),
            Response::Provenance(Vec::new()),
            Response::Mutated(Mutated {
                epoch: 17,
                class: "decremental".to_owned(),
                invalidated: 2,
                retained: 5,
                version: 1,
            }),
            Response::Exported(dotted.to_owned()),
            Response::Exported(String::new()),
            Response::Snapshotted(4),
            Response::Stats(StatsReport {
                shards: vec![shard(0), shard(1)],
            }),
            Response::Stats(StatsReport::default()),
            Response::Epoch { seq: 12, epoch: 7 },
            Response::Healed {
                healed: 2,
                still_degraded: 1,
            },
            Response::Metrics(format!("# TYPE x counter\n{dotted}")),
            Response::Watching(Watching {
                workflow: WorkflowId(6),
                seq: 12,
                epoch: 5,
                payload: Some(dotted.to_owned()),
            }),
            Response::Watching(Watching {
                workflow: WorkflowId(6),
                seq: 12,
                epoch: 5,
                payload: None,
            }),
            Response::Unwatched,
            Response::ShuttingDown,
            Response::Error("boom\nsecond line\t.field".to_owned()),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for response in &responses {
            kinds.insert(kind(response));
            let lines = response.to_lines();
            let mut oracle = String::new();
            encode_frame(&mut oracle, &lines);
            let mut direct = String::new();
            response.encode(&mut direct);
            assert_eq!(direct, oracle, "encoder bytes for {response:?}");
            let read = FrameReader::new(direct.as_bytes())
                .next_frame()
                .unwrap()
                .unwrap();
            assert_eq!(read.clone().into_lines(), lines);
            // not every value survives the line codec (payload text loses a
            // trailing newline and its `\r`s), so the two decoders are
            // compared with each other, not with the input
            assert_eq!(
                Response::from_frame(read).unwrap(),
                Response::from_lines(&lines).unwrap()
            );
        }
        assert_eq!(kinds.len(), 15, "every variant is covered: {kinds:?}");
        // headers that parse with an empty payload but not with theirs
        // fail the same way through both decoders
        let bad = vec!["ok\tstats".to_owned(), "shard\tv9".to_owned()];
        assert_eq!(
            Response::from_frame(Frame::Lines(bad.clone()))
                .unwrap_err()
                .to_string(),
            Response::from_lines(&bad).unwrap_err().to_string()
        );
        assert!(Response::from_frame(Frame::Lines(Vec::new())).is_err());
    }

    /// A hand-built frame of `header` and `lines`, whose header counts
    /// another number of lines, is refused by both decoders.
    fn assert_count_mismatch_is_refused(header: String, lines: &[&str]) {
        let mut frame = vec![header];
        frame.extend(lines.iter().map(|&line| line.to_owned()));
        for refused in [
            Response::from_lines(&frame).unwrap_err(),
            Response::from_frame(Frame::Lines(frame.clone())).unwrap_err(),
        ] {
            assert!(
                matches!(&refused, ServiceError::Protocol(message) if message.contains("holds")),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn a_provenance_frame_must_hold_the_names_its_header_counts() {
        let header = |count: usize| format!("ok\tprovenance\t{count}");
        assert_count_mismatch_is_refused(header(3), &["a", "b"]);
        assert_count_mismatch_is_refused(header(1), &["a", "b"]);
        assert_count_mismatch_is_refused(header(1), &[]);
        let frame = [header(2), "a".to_owned(), "b".to_owned()];
        assert!(Response::from_lines(&frame).is_ok());
        assert!(Response::from_frame(Frame::Lines(frame.to_vec())).is_ok());
    }

    #[test]
    fn a_verdict_frame_must_hold_the_composites_its_header_counts() {
        let header = |count: usize| format!("ok\tverdict\tunsound\t0\tmiss\t{count}\t4");
        assert_count_mismatch_is_refused(header(2), &["Curate & align (16)"]);
        assert_count_mismatch_is_refused(header(0), &["Curate & align (16)"]);
        assert_count_mismatch_is_refused(header(1), &[]);
        let frame = [header(1), "Curate & align (16)".to_owned()];
        assert!(Response::from_lines(&frame).is_ok());
        assert!(Response::from_frame(Frame::Lines(frame.to_vec())).is_ok());
    }

    #[test]
    fn a_borrowed_name_list_encodes_like_owned_names() {
        struct Borrowed<'a>(&'a [&'a str]);
        impl NameList for Borrowed<'_> {
            fn names(&self) -> impl ExactSizeIterator<Item = &str> {
                self.0.iter().copied()
            }
        }
        let names = [".", ".x", "plain"];
        let mut borrowed = String::new();
        Response::Provenance(Borrowed(&names)).encode(&mut borrowed);
        let owned = Response::Provenance(names.map(str::to_owned).to_vec());
        let mut oracle = String::new();
        encode_frame(&mut oracle, &owned.to_lines());
        assert_eq!(borrowed, oracle);
        assert_eq!(borrowed, "ok\tprovenance\t3\n..\n..x\nplain\n.\n");
    }

    #[test]
    fn stats_shard_lines_are_versioned_and_pin_the_field_count() {
        let report = StatsReport {
            shards: vec![ShardStat {
                shard: 1,
                workflows: 2,
                validate_hits: 3,
                validate_misses: 4,
                composite_hits: 5,
                composite_misses: 6,
                validate_ns: 7,
                requests: 8,
                snapshot_publishes: 9,
                active_watchers: 10,
                dropped_watchers: 11,
            }],
        };
        let lines = Response::Stats(report.clone()).to_lines();
        assert_eq!(lines[1], "shard\tv2\t1\t2\t3\t4\t5\t6\t7\t8\t9\t10\t11");
        assert_eq!(lines[1].split('\t').count(), 13);
        assert_eq!(
            Response::from_lines(&lines).unwrap(),
            Response::Stats(report)
        );
        // a mismatched schema version is rejected loudly, not misread
        let stale = vec![lines[0].clone(), lines[1].replacen("\tv2\t", "\tv1\t", 1)];
        assert!(matches!(
            Response::from_lines(&stale).unwrap_err(),
            ServiceError::SchemaVersion {
                expected: "v2",
                found
            } if found == "v1"
        ));
        // the version token alone is not enough: the field count is pinned
        let padded = vec![lines[0].clone(), format!("{}\t99", lines[1])];
        assert!(matches!(
            Response::from_lines(&padded).unwrap_err(),
            ServiceError::Protocol(_)
        ));
    }

    #[test]
    fn watch_events_round_trip_through_lines() {
        use wolves_workflow::{SpecDeltaKind, TaskId};

        let round_trip = |event: &WatchEvent| {
            let lines = event.to_lines();
            assert!(lines[0].starts_with("event\t"));
            let parsed = WatchEvent::from_lines(&lines).unwrap();
            assert_eq!(&parsed, event);
        };
        round_trip(&WatchEvent::Mutated {
            workflow: WorkflowId(3),
            seq: 8,
            op: MutateOp::AddEdge {
                from: "Split entries".to_owned(),
                to: "Display tree".to_owned(),
            },
            outcome: Mutated {
                epoch: 5,
                class: "monotone-safe".to_owned(),
                invalidated: 1,
                retained: 6,
                version: 0,
            },
            deltas: vec![SpecDelta {
                epoch: 5,
                kind: SpecDeltaKind::DependencyAdded(TaskId::from_index(2), TaskId::from_index(9)),
            }],
        });
        round_trip(&WatchEvent::Mutated {
            workflow: WorkflowId(3),
            seq: 9,
            op: MutateOp::Merge {
                name: "Front end".to_owned(),
                composites: vec!["a".to_owned(), "b".to_owned()],
            },
            outcome: Mutated {
                epoch: 5,
                class: "view-edit".to_owned(),
                invalidated: 2,
                retained: 5,
                version: 0,
            },
            deltas: Vec::new(),
        });
        round_trip(&WatchEvent::Corrected {
            workflow: WorkflowId(3),
            seq: 10,
            version: 2,
            view_lines: vec!["view\tdemo".to_owned(), "composite\tx\t0,1".to_owned()],
        });
        round_trip(&WatchEvent::Resync {
            workflow: WorkflowId(3),
            seq: 10,
        });

        // non-event frames are refused, so a client draining a watch stream
        // can tell responses from events by the header alone
        let err = WatchEvent::from_lines(&["ok\tunwatched".to_owned()]).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)));
    }

    #[test]
    fn frames_round_trip_with_dot_stuffing() {
        let lines = vec![
            "header\tx".to_owned(),
            ".starts with a dot".to_owned(),
            String::new(),
        ];
        let mut wire = Vec::new();
        write_frame(&mut wire, &lines).unwrap();
        let mut reader = FrameReader::new(wire.as_slice());
        let read = reader.read_frame().unwrap().unwrap();
        assert_eq!(read, lines);
        assert!(reader.read_frame().unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut reader = FrameReader::new(b"header\n".as_slice());
        let err = reader.read_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn line_decoding_trims_one_cr_unstuffs_and_rejects_bad_utf8() {
        assert_eq!(decode_line(b"validate\t1\r"), Ok(Some("validate\t1")));
        assert_eq!(decode_line(b"..hidden"), Ok(Some(".hidden")));
        assert_eq!(decode_line(b".\r"), Ok(None));
        assert!(decode_line(b"task\tA\xff").is_err());
    }

    #[test]
    fn invalid_utf8_is_invalid_data_not_a_lossy_rename() {
        let mut reader = FrameReader::new(b"register\ntask\tA\xffB\n.\nstats\n.\n".as_slice());
        let err = reader.read_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // the bad frame is consumed whole: the next one reads normally
        assert_eq!(reader.read_frame().unwrap().unwrap(), ["stats".to_owned()]);
    }

    #[test]
    fn an_endless_line_stops_at_the_frame_bound() {
        // one unterminated line a byte past the bound: the reader gives up
        // after MAX_FRAME_BYTES instead of buffering the whole stream
        let endless = std::io::repeat(b'x').take(MAX_FRAME_BYTES as u64 + 1);
        let mut reader = FrameReader::new(endless);
        let err = reader.read_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // a frame of many lines is bounded as a whole, not per line
        let wire = [b"y".repeat(1023), b"\n".to_vec()]
            .concat()
            .repeat(MAX_FRAME_BYTES / 1024 + 1);
        let mut reader = FrameReader::new(wire.as_slice());
        let err = reader.read_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    mod properties {
        use super::super::wire_cases::{
            expected_frame, read_sizes, reference, wire, Chunked, Endless,
        };
        use super::*;
        use proptest::prelude::*;
        use std::io::ErrorKind;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Frames read in any chunking equal the line policy's split of
            /// the same bytes, a text payload the split lines joined; a
            /// frame that is not UTF-8 is `InvalidData` and the frame after
            /// it still reads; a stream cut mid-frame ends in
            /// `UnexpectedEof`, one cut between frames in `None`.
            #[test]
            fn prop_the_reader_decodes_like_the_line_policy(
                wire in wire(),
                sizes in read_sizes(),
                (cut, at) in (0u8..3, 0usize..400)
            ) {
                let wire = if cut == 0 { &wire[..at.min(wire.len())] } else { &wire[..] };
                let expected = reference(wire);
                let mut reader = FrameReader::new(Chunked::new(wire, &sizes));
                for frame in &expected.frames {
                    match (reader.next_frame(), frame) {
                        (Ok(Some(read)), Some(lines)) => prop_assert_eq!(read, expected_frame(lines)),
                        (Err(e), None) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData),
                        (read, frame) => panic!("read {read:?}, expected {frame:?}"),
                    }
                }
                match reader.read_frame() {
                    Err(e) => {
                        prop_assert!(expected.partial, "{e}");
                        prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                    }
                    Ok(read) => prop_assert!(read.is_none() && !expected.partial),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            /// A frame that never ends is `InvalidData` once it reaches the
            /// bound, after the frames before it, and no byte past the
            /// bound is read for it.
            #[test]
            fn prop_an_oversized_frame_stops_at_the_bound(
                wire in wire(),
                line in wire()
            ) {
                let mut expected = reference(&wire).frames.into_iter();
                let mut reader = FrameReader::new(wire.as_slice().chain(Endless::new(&line)));
                loop {
                    match reader.next_frame() {
                        Ok(Some(read)) => {
                            let lines = expected.next().flatten();
                            prop_assert_eq!(Some(read), lines.as_deref().map(expected_frame));
                        }
                        Err(e) if e.kind() == ErrorKind::InvalidData => {
                            match expected.next() {
                                // a frame that is not UTF-8
                                Some(None) => continue,
                                None => break,
                                Some(frame) => panic!("expected {frame:?}, got {e}"),
                            }
                        }
                        other => panic!("{other:?}"),
                    }
                }
                // the endless frame is all the reader holds when it gives up
                let (_, endless) = reader.get_ref().get_ref();
                prop_assert_eq!(endless.sent, MAX_FRAME_BYTES);
            }
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let bad = |lines: &[&str]| {
            Request::from_lines(&lines.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
                .unwrap_err()
        };
        assert!(matches!(bad(&["frobnicate"]), ServiceError::Protocol(_)));
        assert!(matches!(
            bad(&["validate\tnope"]),
            ServiceError::Protocol(_)
        ));
        assert!(matches!(
            bad(&["correct\t1\tbogus"]),
            ServiceError::UnknownStrategy(_)
        ));
        assert!(matches!(bad(&["provenance\t1"]), ServiceError::Protocol(_)));
        assert!(Request::from_lines(&[]).is_err());
    }
}
