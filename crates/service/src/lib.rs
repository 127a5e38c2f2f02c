//! # wolves-service
//!
//! The concurrent serving layer of the WOLVES workspace: everything below
//! this crate is a pure in-memory theory library; this crate turns it into a
//! long-running process that serves validation, correction and provenance
//! requests to many clients at once.
//!
//! * [`store`] — a sharded [`store::WorkflowStore`]: workflows hashed over
//!   `N` shards, each publishing its state through a copy-on-write epoch
//!   snapshot cell — reads (`validate`, `provenance`, `export`, `stats`)
//!   never block behind mutators — with composite-granular, epoch-keyed
//!   verdict caching and reachability-matrix reuse (mutations maintain the
//!   matrix incrementally). `watch` subscriptions stream every committed
//!   change (op, typed spec deltas, verdict transition) gap-free to CDC
//!   consumers.
//! * [`proto`] — the typed request/response protocol, framed as
//!   newline-delimited text reusing the native format of
//!   [`wolves_moml::textfmt`].
//! * [`server`] — the TCP serving layer (plain `std::net`, no runtime
//!   dependency): one epoll event loop per worker thread, each answering
//!   its non-blocking connections' pipelined requests inline, with watch
//!   subscriptions as write sources, bounded frames, connection admission
//!   and graceful shutdown.
//! * [`poll`] — the minimal readiness-polling primitive under the event
//!   loops: raw `epoll`/`eventfd` syscalls behind a safe [`poll::Poller`] /
//!   [`poll::Waker`] API (Linux only; the server reports `Unsupported`
//!   elsewhere).
//! * [`client`] — a typed client plus the concurrent batch driver used by
//!   the `wolves request` CLI and the `service_bench` throughput benchmark.
//! * [`obs`] — the telemetry layer: lock-free log₂-bucketed latency
//!   histograms recorded per verb and per commit stage, a bounded
//!   slow-request ring, and the Prometheus-style text exposition served by
//!   the `metrics` protocol verb.
//! * [`storage`] — the [`storage::StorageBackend`] trait the store persists
//!   through: [`storage::MemoryBackend`] (zero-cost default) or…
//! * [`wal`] — …[`wal::FileBackend`], a per-shard snapshot + write-ahead
//!   log (`wolves serve --data-dir`): every register/mutate/correct is
//!   appended before it is acknowledged, segments rotate into compacting
//!   snapshots, and [`store::WorkflowStore::open`] replays the journal
//!   through the live mutation paths so a restarted server answers exactly
//!   like the one that crashed.
//!
//! Quickstart (in-process; the CLI wraps exactly this):
//!
//! ```
//! use wolves_service::client::ServiceClient;
//! use wolves_service::server::{serve, ServerConfig};
//! use wolves_core::correct::Strategy;
//!
//! let server = serve(&ServerConfig::default()).unwrap();
//! let mut client = ServiceClient::connect(server.local_addr()).unwrap();
//! let fixture = wolves_repo::figure1();
//! let id = client.register(&fixture.spec, Some(&fixture.view)).unwrap();
//! assert!(!client.validate(id, None).unwrap().sound);
//! client.correct(id, Strategy::Strong).unwrap();
//! assert!(client.validate(id, None).unwrap().sound);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
// unsafe is denied crate-wide; the one exception is the FFI layer of
// `poll`, which declares the raw epoll/eventfd syscalls (no external
// crates are available) and carries its own scoped allow
#![deny(unsafe_code)]

pub mod client;
mod epoch;
pub mod error;
pub mod obs;
pub mod poll;
pub mod proto;
pub mod server;
pub mod storage;
pub mod store;
pub mod wal;

pub use client::{
    validate_throughput, BatchConfig, MutateOutcome, RequestPolicy, ServiceClient,
    ThroughputReport, WatchStream,
};
pub use error::ServiceError;
pub use obs::{
    ErrorCounters, Histogram, HistogramSnapshot, ServerGauges, Stage, StorageObservation,
    Telemetry, Verb,
};
pub use poll::{Event, Interest, Poller, Waker};
pub use proto::{
    MutateOp, Mutated, Request, Response, StatsReport, Verdict, WatchEvent, WatchMode, Watching,
    STATS_SCHEMA_VERSION,
};
pub use server::{serve, serve_with_store, ServerConfig, ServerHandle};
pub use storage::{
    FaultDirective, FaultInjector, FaultPlan, MemoryBackend, RecoveryReport, StorageBackend,
};
pub use store::{
    DurabilityBarrier, DurabilityTicket, WatchSubscription, WorkflowId, WorkflowStore,
    WATCH_QUEUE_CAP,
};
pub use wal::{open_data_dir, open_faulted_data_dir, FileBackend, PersistConfig};
