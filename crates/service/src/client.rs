//! Client library: a typed connection to a running server, plus the batch
//! driver used by the CLI and the throughput benchmark.

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use wolves_core::correct::Strategy;
use wolves_moml::write_text_format;
use wolves_workflow::{WorkflowSpec, WorkflowView};

use crate::error::ServiceError;
use crate::proto::{
    encode_register, Corrected, Frame, FrameReader, MutateOp, Mutated, Request, Response,
    StatsReport, Verdict, WatchEvent, WatchMode, Watching,
};
use crate::store::WorkflowId;

/// A persistent connection to a `wolves-service` server. One request is in
/// flight at a time; responses arrive in request order.
#[derive(Debug)]
pub struct ServiceClient {
    reader: FrameReader<TcpStream>,
    writer: Writer,
}

/// A connection's sending side, with the buffer each request's frame is
/// encoded into, kept between requests.
#[derive(Debug)]
struct Writer {
    stream: TcpStream,
    wire: String,
}

impl Writer {
    /// Sends `requests` as one write of their frames.
    fn send(&mut self, requests: &[Request]) -> std::io::Result<()> {
        self.send_with(|wire| {
            for request in requests {
                request.encode(wire);
            }
        })
    }

    /// Sends the frames `encode` appends, as one write.
    fn send_with(&mut self, encode: impl FnOnce(&mut String)) -> std::io::Result<()> {
        self.wire.clear();
        encode(&mut self.wire);
        self.stream.write_all(self.wire.as_bytes())
    }
}

/// Reads the next frame, a clean close reported as `closed`.
fn take_frame(reader: &mut FrameReader<TcpStream>, closed: &str) -> Result<Frame, ServiceError> {
    reader
        .next_frame()?
        .ok_or_else(|| ServiceError::Protocol(closed.to_owned()))
}

impl ServiceClient {
    /// Connects to a server.
    ///
    /// # Errors
    /// Reports connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Self::connect_with(addr, None)
    }

    /// [`ServiceClient::connect`] with a socket read/write timeout: a
    /// request whose response does not arrive within `timeout` fails with
    /// an I/O timeout instead of blocking forever. `None` keeps the
    /// historical blocking behaviour.
    ///
    /// # Errors
    /// Reports connection failures.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        // see the server side: Nagle + delayed ACKs would add ~40ms to
        // every request/response exchange
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let reader = FrameReader::new(stream.try_clone()?);
        Ok(ServiceClient {
            reader,
            writer: Writer {
                stream,
                wire: String::new(),
            },
        })
    }

    /// Sends one request and reads its response. Server-side failures
    /// arrive as typed `err` frames and are decoded back into the
    /// [`ServiceError`] variant the server raised (unknown kinds fall back
    /// to [`ServiceError::Remote`]).
    ///
    /// # Errors
    /// Reports I/O failures, protocol violations and server-side errors.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.exchange(|wire| request.encode(wire))
    }

    /// Sends the request frame `encode` appends and reads its response.
    fn exchange(&mut self, encode: impl FnOnce(&mut String)) -> Result<Response, ServiceError> {
        self.writer.send_with(encode)?;
        let frame = take_frame(&mut self.reader, "server closed the connection")?;
        let response = Response::from_frame(frame)?;
        if let Response::Error(message) = response {
            return Err(ServiceError::from_wire(&message));
        }
        Ok(response)
    }

    /// Issues `requests` pipelined: every frame is coalesced into **one**
    /// socket write, then the responses are drained in request order — N
    /// round-trip latencies collapse into one. Per-request failures land in
    /// their slot (the connection stays usable); only transport failures
    /// abort the whole call, after which the connection's request/response
    /// pairing is unknowable and it should be dropped.
    ///
    /// Connection-control requests (`watch`, `unwatch`, `shutdown`) do not
    /// belong in a pipeline: a `shutdown` mid-pipeline stops the server
    /// before later responses are written.
    ///
    /// # Errors
    /// Reports I/O failures and protocol violations.
    #[allow(clippy::type_complexity)]
    pub fn pipeline(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, ServiceError>>, ServiceError> {
        self.writer.send(requests)?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            let frame = take_frame(
                &mut self.reader,
                "server closed the connection mid-pipeline",
            )?;
            responses.push(match Response::from_frame(frame)? {
                Response::Error(message) => Err(ServiceError::from_wire(&message)),
                other => Ok(other),
            });
        }
        Ok(responses)
    }

    /// Registers a workflow from a native text-format payload.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn register_text(&mut self, payload: &str) -> Result<WorkflowId, ServiceError> {
        // encoded from the borrowed payload: no copy of it is made first
        match self.exchange(|wire| encode_register(wire, payload))? {
            Response::Registered(id) => Ok(id),
            other => Err(unexpected("registered", &other)),
        }
    }

    /// Registers an in-memory workflow and view.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn register(
        &mut self,
        spec: &WorkflowSpec,
        view: Option<&WorkflowView>,
    ) -> Result<WorkflowId, ServiceError> {
        self.register_text(&write_text_format(spec, view))
    }

    /// Validates a view version (`None` = current).
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn validate(
        &mut self,
        workflow: WorkflowId,
        version: Option<usize>,
    ) -> Result<Verdict, ServiceError> {
        match self.call(&Request::Validate { workflow, version })? {
            Response::Verdict(verdict) => Ok(verdict),
            other => Err(unexpected("verdict", &other)),
        }
    }

    /// Corrects the current view with `strategy`.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn correct(
        &mut self,
        workflow: WorkflowId,
        strategy: Strategy,
    ) -> Result<Corrected, ServiceError> {
        match self.call(&Request::Correct { workflow, strategy })? {
            Response::Corrected(corrected) => Ok(corrected),
            other => Err(unexpected("corrected", &other)),
        }
    }

    /// Queries view-level provenance of the named task.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn provenance(
        &mut self,
        workflow: WorkflowId,
        subject: &str,
    ) -> Result<Vec<String>, ServiceError> {
        match self.call(&Request::Provenance {
            workflow,
            subject: subject.to_owned(),
        })? {
            Response::Provenance(tasks) => Ok(tasks),
            other => Err(unexpected("provenance", &other)),
        }
    }

    /// Applies one mutation to a registered workflow (edit in place — no
    /// re-upload; caches covering unaffected composites survive).
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn mutate(&mut self, workflow: WorkflowId, op: MutateOp) -> Result<Mutated, ServiceError> {
        self.mutate_cas(workflow, op, None)
    }

    /// [`ServiceClient::mutate`] with an optional expected-epoch CAS guard:
    /// with `Some(epoch)` the server applies the edit only if the workflow
    /// is still at that mutation epoch, making retries idempotent (see
    /// [`RequestPolicy::mutate`]).
    ///
    /// # Errors
    /// Propagates transport and server errors, including
    /// [`ServiceError::EpochConflict`] on a stale guard.
    pub fn mutate_cas(
        &mut self,
        workflow: WorkflowId,
        op: MutateOp,
        expect: Option<u64>,
    ) -> Result<Mutated, ServiceError> {
        match self.call(&Request::Mutate {
            workflow,
            op,
            expect,
        })? {
            Response::Mutated(mutated) => Ok(mutated),
            other => Err(unexpected("mutated", &other)),
        }
    }

    /// Fetches a workflow's change cursor `(seq, epoch)` — the CAS base
    /// for an idempotent mutate.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn epoch(&mut self, workflow: WorkflowId) -> Result<(u64, u64), ServiceError> {
        match self.call(&Request::Epoch { workflow })? {
            Response::Epoch { seq, epoch } => Ok((seq, epoch)),
            other => Err(unexpected("epoch", &other)),
        }
    }

    /// Asks the server to heal its degraded shards (retry the storage
    /// backend and re-open writes). Returns `(healed, still_degraded)`.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn heal(&mut self) -> Result<(usize, usize), ServiceError> {
        match self.call(&Request::Heal)? {
            Response::Healed {
                healed,
                still_degraded,
            } => Ok((healed, still_degraded)),
            other => Err(unexpected("healed", &other)),
        }
    }

    /// Downloads a workflow's current spec + view in registrable textfmt —
    /// resyncs a client after server-side mutations and corrections.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn export(&mut self, workflow: WorkflowId) -> Result<String, ServiceError> {
        match self.call(&Request::Export { workflow })? {
            Response::Exported(payload) => Ok(payload),
            other => Err(unexpected("exported", &other)),
        }
    }

    /// Forces a snapshot of every shard (durable servers compact their
    /// write-ahead logs). Returns the number of shards snapshotted.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn snapshot(&mut self) -> Result<usize, ServiceError> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshotted(shards) => Ok(shards),
            other => Err(unexpected("snapshotted", &other)),
        }
    }

    /// Fetches the per-shard serving statistics.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn stats(&mut self) -> Result<StatsReport, ServiceError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetches the server's telemetry as Prometheus-style text exposition:
    /// per-verb and per-commit-stage latency histograms, serving counters,
    /// watch gauges and WAL observation.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        match self.call(&Request::Metrics { slow: false })? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Fetches the server's slow-request dump: the worst-N requests with
    /// their commit-stage breakdowns, worst first.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn metrics_slow(&mut self) -> Result<String, ServiceError> {
        match self.call(&Request::Metrics { slow: true })? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Switches the connection into subscription mode: the server pushes
    /// one [`WatchEvent`] frame per committed change of `workflow` until
    /// [`WatchStream::stop`] (which hands the connection back) or drop.
    /// [`WatchMode::Resync`] makes the acknowledgement carry a full
    /// `export` payload consistent with the acknowledged sequence number —
    /// an atomic export-then-tail.
    ///
    /// # Errors
    /// Propagates transport and server errors (the connection is consumed
    /// either way; reconnect on failure).
    pub fn watch(
        mut self,
        workflow: WorkflowId,
        mode: WatchMode,
    ) -> Result<WatchStream, ServiceError> {
        match self.call(&Request::Watch { workflow, mode })? {
            Response::Watching(ack) => Ok(WatchStream {
                reader: self.reader,
                writer: self.writer,
                ack,
            }),
            other => Err(unexpected("watching", &other)),
        }
    }
}

/// A connection in subscription mode (see [`ServiceClient::watch`]).
#[derive(Debug)]
pub struct WatchStream {
    reader: FrameReader<TcpStream>,
    writer: Writer,
    ack: Watching,
}

impl WatchStream {
    /// The subscription acknowledgement: base sequence number, epoch, and
    /// the resync payload when the watch was opened in
    /// [`WatchMode::Resync`].
    #[must_use]
    pub fn ack(&self) -> &Watching {
        &self.ack
    }

    /// Blocks until the server pushes the next event. A
    /// [`WatchEvent::Resync`] means the gap-free tail ended (slow consumer
    /// or an unservable `from` cursor): re-export and re-subscribe.
    ///
    /// # Errors
    /// Reports transport failures and a server-closed connection.
    pub fn next_event(&mut self) -> Result<WatchEvent, ServiceError> {
        let frame = take_frame(&mut self.reader, "server closed the watch stream")?;
        WatchEvent::from_lines(&frame.into_lines())
    }

    /// Ends the subscription and hands the connection back as a
    /// [`ServiceClient`]. Events already in flight are drained and
    /// discarded (the server acknowledges the unwatch after them); the
    /// reader, with any bytes it buffered past the acknowledgement, goes
    /// back to the client.
    ///
    /// # Errors
    /// Reports transport failures and protocol violations.
    pub fn stop(mut self) -> Result<ServiceClient, ServiceError> {
        self.writer.send(&[Request::Unwatch])?;
        loop {
            let frame = take_frame(&mut self.reader, "server closed the watch stream")?;
            if let Frame::Lines(lines) = &frame {
                if lines
                    .first()
                    .is_some_and(|line| line.starts_with("event\t"))
                {
                    continue; // in-flight event racing the unwatch
                }
            }
            return match Response::from_frame(frame)? {
                Response::Unwatched => Ok(ServiceClient {
                    reader: self.reader,
                    writer: self.writer,
                }),
                other => Err(unexpected("unwatched", &other)),
            };
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServiceError {
    ServiceError::Protocol(format!("expected a {wanted} response, got {got:?}"))
}

/// Outcome of a policy-driven idempotent mutate
/// ([`RequestPolicy::mutate`]).
#[derive(Debug, Clone)]
pub enum MutateOutcome {
    /// The mutation applied on this attempt; the server's full outcome.
    Applied(Mutated),
    /// A retry found the expected epoch already consumed by exactly one
    /// mutation: an earlier send applied and its ack was lost in transit.
    /// The workflow's actual epoch is reported. (With concurrent writers
    /// on the same workflow the attribution is the caller's: the CAS only
    /// proves *some* single mutation consumed the epoch.)
    AppliedEarlier {
        /// The workflow's mutation epoch after the earlier apply.
        epoch: u64,
    },
}

/// Base of the retry backoff: the sleep before retry `n` is
/// `min(BACKOFF << n, BACKOFF_CAP)` plus jitter in `[0, sleep/2]`.
const BACKOFF: Duration = Duration::from_millis(50);
/// Upper bound of the exponential backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);
/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Client-side timeout/retry discipline: per-attempt socket timeouts, a
/// bounded number of retries on transient errors with capped exponential
/// backoff + deterministic jitter, and idempotent mutate retries via an
/// expected-epoch CAS.
///
/// Every attempt opens a fresh connection — after a timeout the old
/// connection's request/response pairing is unknowable, so it is never
/// reused. Only errors [`ServiceError::is_transient`] classifies as
/// retryable (I/O, overloaded, degraded, persistence) are retried;
/// model-level rejections fail fast.
#[derive(Debug, Clone)]
pub struct RequestPolicy {
    /// Per-attempt socket read/write timeout (`None` = block forever).
    pub timeout: Option<Duration>,
    /// Retries after the first attempt (0 = try exactly once).
    pub retries: u32,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        RequestPolicy {
            timeout: None,
            retries: 2,
        }
    }
}

impl RequestPolicy {
    /// The default policy with a per-attempt timeout of `ms` milliseconds
    /// (0 = no timeout) — what the CLI's `--timeout-ms` flag builds. The
    /// timeout bounds each attempt, not the whole call: a call makes at
    /// most `retries + 1` attempts, with a backoff sleep between them.
    #[must_use]
    pub fn with_timeout_ms(ms: u64) -> Self {
        RequestPolicy {
            timeout: (ms > 0).then(|| Duration::from_millis(ms)),
            ..RequestPolicy::default()
        }
    }

    /// Sets the retry budget (`--retries`).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The backoff before retry `attempt` (0-based): capped exponential
    /// plus deterministic jitter.
    fn backoff_before(attempt: u32) -> Duration {
        let base = BACKOFF
            .saturating_mul(1u32 << attempt.min(16))
            .min(BACKOFF_CAP);
        let base_ms = u64::try_from(base.as_millis()).unwrap_or(u64::MAX);
        let jitter = crate::storage::mix64(JITTER_SEED ^ u64::from(attempt)) % (base_ms / 2 + 1);
        base + Duration::from_millis(jitter)
    }

    /// `true` when a retry for `error` fits the policy: attempts remain
    /// and the error is transient.
    fn may_retry(&self, attempt: u32, error: &ServiceError) -> bool {
        attempt < self.retries && error.is_transient()
    }

    /// Runs `operation` against a fresh connection per attempt, retrying
    /// transient failures under the policy's retry budget and backoff.
    ///
    /// # Errors
    /// The last error once the policy gives up.
    pub fn call<T>(
        &self,
        addr: impl ToSocketAddrs,
        mut operation: impl FnMut(&mut ServiceClient) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut attempt = 0u32;
        loop {
            let result = ServiceClient::connect_with(&addr, self.timeout)
                .and_then(|mut c| operation(&mut c));
            match result {
                Ok(value) => return Ok(value),
                Err(e) if self.may_retry(attempt, &e) => {
                    std::thread::sleep(Self::backoff_before(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// An idempotent mutate: fetches the workflow's mutation epoch once,
    /// then retries the edit with that expected-epoch CAS guard — so the
    /// mutation applies **at most once** no matter how many sends the
    /// policy makes. A retry that finds the epoch consumed by exactly one
    /// mutation reports [`MutateOutcome::AppliedEarlier`] (the lost-ack
    /// case); a conflict on the very first send means a concurrent writer
    /// won and is reported as [`ServiceError::EpochConflict`].
    ///
    /// # Errors
    /// Transport and server errors once the policy gives up.
    pub fn mutate(
        &self,
        addr: impl ToSocketAddrs + Clone,
        workflow: WorkflowId,
        op: MutateOp,
    ) -> Result<MutateOutcome, ServiceError> {
        let base = self.call(addr.clone(), |c| c.epoch(workflow).map(|(_, e)| e))?;
        self.mutate_from(addr, workflow, op, base, false)
    }

    /// [`RequestPolicy::mutate`] with a caller-provided CAS base — resume
    /// a mutation whose earlier outcome is unknown (e.g. the process died
    /// after sending). `ambiguous` there is `true`, so an epoch conflict
    /// that consumed exactly the expected epoch resolves to
    /// [`MutateOutcome::AppliedEarlier`] even on the first attempt.
    ///
    /// # Errors
    /// Transport and server errors once the policy gives up.
    pub fn mutate_from(
        &self,
        addr: impl ToSocketAddrs,
        workflow: WorkflowId,
        op: MutateOp,
        base: u64,
        mut ambiguous: bool,
    ) -> Result<MutateOutcome, ServiceError> {
        let mut attempt = 0u32;
        loop {
            let result = ServiceClient::connect_with(&addr, self.timeout)
                .and_then(|mut c| c.mutate_cas(workflow, op.clone(), Some(base)));
            match result {
                Ok(mutated) => return Ok(MutateOutcome::Applied(mutated)),
                Err(ServiceError::EpochConflict { expected, actual })
                    if ambiguous && expected == base && actual == base + 1 =>
                {
                    // exactly one mutation consumed our epoch after a send
                    // whose ack we never saw: it was ours
                    return Ok(MutateOutcome::AppliedEarlier { epoch: actual });
                }
                Err(e) if self.may_retry(attempt, &e) => {
                    // once a send's fate is unknown, later conflicts on our
                    // epoch mean it applied
                    ambiguous = true;
                    std::thread::sleep(Self::backoff_before(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Configuration of the concurrent batch driver.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Number of concurrent client connections.
    pub clients: usize,
    /// Validate requests issued per client.
    pub requests_per_client: usize,
    /// Requests in flight per connection: 0 or 1 issues one request per
    /// round trip; a larger depth sends that many validates in one
    /// coalesced write ([`ServiceClient::pipeline`]) before draining the
    /// responses.
    pub pipeline: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            clients: 1,
            requests_per_client: 1,
            pipeline: 1,
        }
    }
}

/// Outcome of one [`validate_throughput`] run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that failed (transport or server error).
    pub errors: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl ThroughputReport {
    /// Successful requests per second.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        let seconds = self.elapsed.as_secs_f64();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / seconds
    }
}

/// The batch driver: spawns `clients` threads, each opening one connection
/// and issuing `requests_per_client` validate requests round-robin over the
/// given workflows. This is the workload behind `wolves-bench`'s
/// `service_bench` binary.
///
/// # Errors
/// Reports a failure to spawn or join client threads; per-request failures
/// are counted in the report instead.
pub fn validate_throughput(
    addr: impl ToSocketAddrs,
    workflows: &[WorkflowId],
    config: BatchConfig,
) -> Result<ThroughputReport, ServiceError> {
    let addrs: Vec<std::net::SocketAddr> = addr.to_socket_addrs()?.collect();
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.clients.max(1));
        for client_index in 0..config.clients.max(1) {
            let addrs = addrs.clone();
            handles.push(scope.spawn(move || {
                let mut completed = 0usize;
                let mut errors = 0usize;
                let Ok(mut client) = ServiceClient::connect(addrs.as_slice()) else {
                    return (0, config.requests_per_client);
                };
                let depth = config.pipeline.max(1);
                let mut request_index = 0usize;
                while request_index < config.requests_per_client {
                    if workflows.is_empty() {
                        errors += 1;
                        request_index += 1;
                        continue;
                    }
                    let window = depth.min(config.requests_per_client - request_index);
                    let requests: Vec<Request> = (0..window)
                        .map(|offset| Request::Validate {
                            workflow: workflows
                                [(client_index + request_index + offset) % workflows.len()],
                            version: None,
                        })
                        .collect();
                    match client.pipeline(&requests) {
                        Ok(outcomes) => {
                            for outcome in outcomes {
                                match outcome {
                                    Ok(_) => completed += 1,
                                    Err(_) => errors += 1,
                                }
                            }
                        }
                        // a transport failure loses the connection and
                        // every request this client had left
                        Err(_) => {
                            errors += config.requests_per_client - request_index;
                            break;
                        }
                    }
                    request_index += window;
                }
                (completed, errors)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((0, 0)))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed();
    Ok(ThroughputReport {
        completed: outcomes.iter().map(|(c, _)| c).sum(),
        errors: outcomes.iter().map(|(_, e)| e).sum(),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};
    use wolves_repo::figure1;

    #[test]
    fn client_round_trip_register_validate_correct() {
        let server = serve(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = ServiceClient::connect(server.local_addr()).unwrap();
        let fixture = figure1();
        let id = client.register(&fixture.spec, Some(&fixture.view)).unwrap();
        let verdict = client.validate(id, None).unwrap();
        assert!(!verdict.sound);
        let corrected = client.correct(id, Strategy::Strong).unwrap();
        assert_eq!(corrected.composites_after, 8);
        assert!(client.validate(id, None).unwrap().sound);
        // server-side errors come back as their typed variant, not an
        // opaque Remote string
        let err = client.validate(WorkflowId(999), None).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::UnknownWorkflow(WorkflowId(999))
        ));
        client.shutdown().unwrap();
        drop(client);
        server.join();
    }

    #[test]
    fn pipeline_answers_in_order_with_slotted_errors() {
        let server = serve(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = ServiceClient::connect(server.local_addr()).unwrap();
        let fixture = figure1();
        let id = client.register(&fixture.spec, Some(&fixture.view)).unwrap();
        let requests = [
            Request::Validate {
                workflow: id,
                version: None,
            },
            Request::Validate {
                workflow: WorkflowId(999),
                version: None,
            },
            Request::Epoch { workflow: id },
        ];
        // pipelined: one write, three responses in order, the bad
        // workflow's error in its slot
        let outcomes = client.pipeline(&requests).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(matches!(outcomes[0], Ok(Response::Verdict(_))));
        assert!(matches!(
            outcomes[1],
            Err(ServiceError::UnknownWorkflow(WorkflowId(999)))
        ));
        assert!(matches!(outcomes[2], Ok(Response::Epoch { .. })));
        // the connection stays usable for plain calls afterwards
        assert!(client.validate(id, None).is_ok());
        server.shutdown();
    }

    #[test]
    fn pipelined_throughput_driver_counts_every_request() {
        let server = serve(&ServerConfig {
            shards: 2,
            workers: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let store = server.store();
        let ids: Vec<WorkflowId> = (0..4)
            .map(|_| {
                let f = figure1();
                store.register(f.spec, Some(f.view))
            })
            .collect();
        let report = validate_throughput(
            server.local_addr(),
            &ids,
            BatchConfig {
                clients: 4,
                requests_per_client: 24,
                pipeline: 8,
            },
        )
        .unwrap();
        assert_eq!(report.completed, 96);
        assert_eq!(report.errors, 0);
        server.shutdown();
    }

    #[test]
    fn policy_mutates_are_idempotent_under_retry() {
        let server = serve(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let mut client = ServiceClient::connect(addr).unwrap();
        let fixture = figure1();
        let id = client.register(&fixture.spec, Some(&fixture.view)).unwrap();
        let policy = RequestPolicy::with_timeout_ms(5_000).retries(2);
        let op = MutateOp::AddEdge {
            from: "Check additional annotations".to_owned(),
            to: "Build phylo tree".to_owned(),
        };
        // the normal path: fetch the epoch, apply once
        match policy.mutate(addr, id, op.clone()).unwrap() {
            MutateOutcome::Applied(mutated) => assert_eq!(mutated.epoch, 1),
            MutateOutcome::AppliedEarlier { .. } => panic!("first apply cannot be earlier"),
        }
        // the lost-ack path: a send from CAS base 1 applied but its ack
        // never arrived; the resume resolves the conflict to AppliedEarlier
        // instead of applying twice
        let op2 = MutateOp::AddEdge {
            from: "Display tree".to_owned(),
            to: "Format alignment".to_owned(),
        };
        client.mutate_cas(id, op2.clone(), Some(1)).unwrap();
        match policy.mutate_from(addr, id, op2, 1, true).unwrap() {
            MutateOutcome::AppliedEarlier { epoch } => assert_eq!(epoch, 2),
            MutateOutcome::Applied(_) => panic!("the edit must not apply twice"),
        }
        assert_eq!(client.epoch(id).unwrap(), (2, 2));
        // a conflict on an unambiguous first send is a concurrent writer,
        // surfaced as the typed error
        let err = policy
            .mutate_from(
                addr,
                id,
                MutateOp::AddEdge {
                    from: "Display tree".to_owned(),
                    to: "Check additional annotations".to_owned(),
                },
                0,
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::EpochConflict { .. }), "{err}");
        server.shutdown();
    }

    #[test]
    fn policy_gives_up_after_the_retry_budget_on_dead_servers() {
        // a bound port that nothing listens on after drop
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let policy = RequestPolicy::default().retries(1);
        let err = policy.call(addr, |c| c.stats()).unwrap_err();
        assert!(matches!(err, ServiceError::Io(_)), "{err}");
    }

    #[test]
    fn throughput_driver_counts_all_requests() {
        let server = serve(&ServerConfig {
            shards: 2,
            workers: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let fixture = figure1();
        let store = server.store();
        let ids: Vec<WorkflowId> = (0..4)
            .map(|_| {
                let f = figure1();
                store.register(f.spec, Some(f.view))
            })
            .collect();
        drop(fixture);
        let report = validate_throughput(
            server.local_addr(),
            &ids,
            BatchConfig {
                clients: 4,
                requests_per_client: 25,
                pipeline: 1,
            },
        )
        .unwrap();
        assert_eq!(report.completed, 100);
        assert_eq!(report.errors, 0);
        assert!(report.requests_per_sec() > 0.0);
        // composite-granular counters are deterministic under concurrency:
        // exactly one compute per (workflow, composite) — 4 × 7 misses —
        // with every other composite check served from cache. Request-level
        // misses depend on which racing client computed a composite first,
        // but at least one per workflow and they partition the 100 requests.
        let stats = store.stats();
        assert_eq!(stats.composite_misses(), 4 * 7);
        assert_eq!(stats.composite_hits(), 100 * 7 - 4 * 7);
        assert!(stats.validate_misses() >= 4);
        assert_eq!(stats.validate_hits() + stats.validate_misses(), 100);
        server.shutdown();
    }
}
