//! The HTTP service: socket handling, routing, the submit flow, journal
//! replay, admission control, and graceful drain.
//!
//! One accept loop (non-blocking, polling the drain token every 10 ms)
//! hands each connection to its own thread, up to a connection cap;
//! connections are cheap because all heavy work runs on the shared
//! [`ServicePool`]. The router itself is a pure function over
//! [`ServeState`] ([`ServeState::handle`]), so integration tests exercise
//! the full API in-process without a socket.
//!
//! **Submit flow** (`POST /v1/jobs`): parse → admission gate
//! ([`Admission`]: per-kind caps and the memory watchdog's shed level —
//! rejections are `429` + `Retry-After`) → validate ([`JobRequest`]) →
//! consult the content-addressed cache. A hit answers immediately with a
//! `done` job backed by the cached document — no pool work — and, when a
//! journal is configured, appends one `hit` record before answering: a
//! reference to the body the journal already holds for the key, or the
//! body itself when it holds none yet. A key already in flight coalesces
//! onto the computing job's id, which is journaled already. Only a true
//! miss journals a `submitted` record, durable **before** the `202`
//! reaches the client, and enqueues pool work under a [`CancelToken`]
//! linked to the drain token and carrying the request deadline.
//!
//! **Crash recovery**: at boot, a configured journal is replayed
//! ([`crate::journal::replay`]) — jobs with terminal records become
//! resolvable results again (their ids never 404), jobs the crash
//! interrupted are re-enqueued with their original ids, and the torn
//! tail, if any, is truncated before appending resumes. Re-execution is
//! deterministic, so a replayed job's result is byte-identical to the
//! fault-free run — the property the CI crash drill checks with `cmp`.
//!
//! **Drain** (SIGINT/SIGTERM or [`ServeState::begin_drain`]): stop
//! accepting, fire the drain token (in-flight scans abort at their next
//! cancel poll), shut the pool down, fsync the journal, then give
//! connection threads a bounded grace period to flush their last
//! response. Drained jobs are *not* journaled as terminal: the next boot
//! re-enqueues them. A job the pool refuses (the drain shut it down
//! between the submit's drain check and the enqueue) parks as drained
//! the same way, releasing its admission slot and cache reservation.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use selfstab_campaign::chaos::{backoff, run_attempt};
use selfstab_campaign::telemetry::JobTelemetry;
use selfstab_campaign::{ChaosPlan, FsyncPolicy, Journal, ServicePool};
use selfstab_core::registry_row::{append_row, RegistryRow};
use selfstab_global::CancelToken;
use selfstab_telemetry::{prometheus, Registry, TraceCollector};
use serde_json::{json, Value};

use crate::admission::{spawn_watchdog, Admission, PendingCaps};
use crate::cache::{CachedDoc, Lookup, ResultCache};
use crate::http::{HttpError, Request, RequestReader, Response};
use crate::jobs::{execute, ExecOutcome, JobEntry, JobKind, JobRequest, JobState};
use crate::journal::{hit_event, submitted_event, terminal_event, ServeReplay};
use crate::trace::{JobTrace, TraceIdGen};

/// How long [`Server::run`] waits for connection threads to flush after
/// the drain token fires.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// `Retry-After` seconds suggested on shed (`429`) and overload (`503`)
/// responses — long enough to spread a retry storm, short enough that
/// clients fall back quickly once pressure clears.
const RETRY_AFTER_SECS: &str = "1";

/// `Retry-After` seconds suggested while draining: the process is going
/// away; point clients at its replacement on a drain-sized delay.
const DRAIN_RETRY_AFTER_SECS: &str = "5";

/// Server construction parameters (the CLI's `serve` flags).
pub struct ServeConfig {
    /// Interface to bind, e.g. `127.0.0.1`.
    pub host: String,
    /// Port to bind; `0` picks an ephemeral port.
    pub port: u16,
    /// Pool worker threads executing jobs.
    pub threads: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Durable job journal path (`--journal`); `None` disables
    /// durability.
    pub journal: Option<PathBuf>,
    /// Cache snapshot path (`--cache-snapshot`); `None` disables warm
    /// restarts.
    pub cache_snapshot: Option<PathBuf>,
    /// Fsync policy shared by the journal and the snapshot (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Extra execution attempts after a panicked one (`--retries`).
    pub retries: u32,
    /// Base of the deterministic exponential retry backoff
    /// (`--backoff-ms`; see [`backoff`]).
    pub backoff: Duration,
    /// Per-kind admission caps (`--max-pending` scales all three).
    pub caps: PendingCaps,
    /// Concurrent connection cap (`--max-connections`).
    pub max_connections: usize,
    /// RSS budget for the memory watchdog (`--max-rss-mb`); `None`
    /// disables it.
    pub max_rss_bytes: Option<u64>,
    /// How long an idle keep-alive connection may sit between requests.
    pub idle_timeout: Duration,
    /// Wall-clock budget for receiving one whole request (the
    /// slow-loris/dribble bound).
    pub request_deadline: Duration,
    /// Seed of the [`ChaosPlan`] fault injector (hidden `--chaos`); `None`
    /// disables it.
    pub chaos: Option<u64>,
    /// Server-wide Chrome-trace file (`--trace`), written at drain with
    /// every request's spans interleaved; `None` disables it.
    pub trace: Option<PathBuf>,
    /// Persistent results registry (`--registry`): every computed job
    /// appends one canonical JSONL row; `None` disables it.
    pub results_registry: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_owned(),
            port: 7878,
            threads: 2,
            cache_bytes: 64 * 1024 * 1024,
            journal: None,
            cache_snapshot: None,
            fsync: FsyncPolicy::Batch,
            retries: 2,
            backoff: Duration::from_millis(50),
            caps: PendingCaps::default(),
            max_connections: 256,
            max_rss_bytes: None,
            idle_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(10),
            chaos: None,
            trace: None,
            results_registry: None,
        }
    }
}

/// Everything the handlers share: the job table, the cache, the pool,
/// the admission gate, the journal, and the metrics registry (one
/// registry — cache, pool, and admission counters land in the same
/// `/v1/metrics` document).
pub struct ServeState {
    registry: Registry,
    cache: ResultCache,
    pool: ServicePool,
    admission: Admission,
    journal: Option<Journal>,
    chaos: Option<ChaosPlan>,
    retries: u32,
    backoff: Duration,
    jobs: Mutex<HashMap<u64, Arc<JobEntry>>>,
    next_id: AtomicU64,
    drain: Arc<CancelToken>,
    jobs_submitted: Arc<AtomicU64>,
    jobs_replayed: Arc<AtomicU64>,
    responses: AtomicU64,
    /// One origin instant for every trace timestamp, so lanes from
    /// different requests interleave on a single timeline.
    origin: Instant,
    trace_ids: TraceIdGen,
    trace_path: Option<PathBuf>,
    results_registry: Option<PathBuf>,
    active_connections: AtomicUsize,
}

impl ServeState {
    /// Fresh state for `config`: opens (or creates) the cache snapshot
    /// and job journal, replays both, re-enqueues the jobs a crash
    /// interrupted, and arms the memory watchdog.
    ///
    /// # Errors
    ///
    /// Returns a rendered diagnostic if the journal or snapshot exists
    /// but cannot be read/reopened, or the journal is from a newer binary
    /// — the CLI exits 1 with it.
    pub fn new(config: &ServeConfig) -> Result<Arc<Self>, String> {
        let registry = Registry::new();
        let cache = match &config.cache_snapshot {
            Some(path) => {
                ResultCache::with_snapshot(config.cache_bytes, &registry, path, config.fsync)?
            }
            None => ResultCache::new(config.cache_bytes, &registry),
        };
        let pool = ServicePool::with_registry(config.threads, Some(&registry));
        let admission = Admission::new(config.caps, &registry);
        if let Some(limit) = config.max_rss_bytes {
            spawn_watchdog(&admission.shed_handle(), limit, &registry);
        }
        let (journal, replayed) = config
            .journal
            .as_deref()
            .map(|path| crate::journal::open(path, config.fsync))
            .transpose()?
            .unzip();
        let jobs_submitted = registry.counter("serve/jobs_submitted");
        let jobs_replayed = registry.counter("serve/jobs_replayed");
        let next_id = replayed.as_ref().map_or(0, |r| r.next_id.saturating_sub(1));
        let state = Arc::new(ServeState {
            registry,
            cache,
            pool,
            admission,
            journal,
            chaos: config.chaos.map(ChaosPlan::from_seed),
            retries: config.retries,
            backoff: config.backoff,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(next_id),
            drain: Arc::new(CancelToken::new()),
            jobs_submitted,
            jobs_replayed,
            responses: AtomicU64::new(0),
            origin: Instant::now(),
            trace_ids: TraceIdGen::new(),
            trace_path: config.trace.clone(),
            results_registry: config.results_registry.clone(),
            active_connections: AtomicUsize::new(0),
        });
        if let Some(replayed) = replayed {
            state.restore(replayed);
        }
        Ok(state)
    }

    /// Folds a journal replay back into the live job table: terminal jobs
    /// become resolvable entries, non-terminal jobs re-enqueue with their
    /// original ids (answered from cache when a warm snapshot already has
    /// their document).
    fn restore(self: &Arc<Self>, replayed: ServeReplay) {
        // Boot-time appends are untimed: no request is waiting on them.
        let append = |id: u64, state: &JobState| {
            if let (Some(journal), Some(record)) =
                (&self.journal, terminal_event(id, state, json!({})))
            {
                journal.event(&record);
            }
        };
        for job in replayed.jobs.into_values() {
            self.jobs_replayed.fetch_add(1, Ordering::Relaxed);
            if let Some(state) = job.terminal {
                if let JobState::Done { doc } = &state {
                    // The result resolves again AND warms the cache,
                    // marked journaled: later hits refer to these bytes.
                    self.cache.insert_journaled(&job.key, Arc::clone(doc));
                }
                self.insert_replayed(job.id, job.kind, &job.key, state);
                continue;
            }
            match JobRequest::from_json(&job.request) {
                Ok(request) => {
                    let entry =
                        self.insert_replayed(job.id, request.kind, &job.key, JobState::Queued);
                    match self.cache.lookup_or_reserve(&job.key, job.id) {
                        Lookup::Hit { doc, .. } => {
                            // The snapshot (or an earlier replayed job)
                            // already has the bytes: terminal without pool
                            // work, journaled so the *next* restart needs
                            // no re-run either.
                            let done = JobState::Done { doc };
                            append(job.id, &done);
                            *entry.state.lock().expect("job state poisoned") = done;
                        }
                        Lookup::InFlight(_) | Lookup::Miss => {
                            // Accepted before the crash: admission caps
                            // never apply ("no accepted job is ever lost"
                            // outranks them).
                            self.admission.admit_replayed(request.kind);
                            self.enqueue(request, entry);
                        }
                    }
                }
                Err(e) => {
                    // Validated at the original submit, so this means the
                    // environment changed under the journal. Surface it as
                    // the job's terminal state instead of wedging the boot.
                    let failed = JobState::Failed {
                        status: 500,
                        message: format!("replayed request no longer valid: {}", e.message()),
                    };
                    append(job.id, &failed);
                    self.insert_replayed(job.id, job.kind, &job.key, failed);
                }
            }
        }
    }

    fn insert_replayed(&self, id: u64, kind: JobKind, key: &str, state: JobState) -> Arc<JobEntry> {
        let entry = Arc::new(JobEntry {
            id,
            kind,
            cache_key: key.to_owned(),
            state: Mutex::new(state),
            telemetry: JobTelemetry::default(),
            cached: false,
            trace: None,
        });
        self.jobs
            .lock()
            .expect("job table poisoned")
            .insert(id, Arc::clone(&entry));
        entry
    }

    /// The drain token: fire it (or call [`ServeState::begin_drain`]) to
    /// wind the service down.
    pub fn drain_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.drain)
    }

    /// `true` once a drain has started.
    pub fn draining(&self) -> bool {
        self.drain.is_cancelled()
    }

    /// Starts a drain: new submits are refused, in-flight jobs abort at
    /// their next cancel poll.
    pub fn begin_drain(&self) {
        self.drain.cancel();
    }

    /// Jobs actually executed on the pool (cache hits and coalesced
    /// submits do not count).
    pub fn executed(&self) -> u64 {
        self.pool.executed()
    }

    /// The admission gate — exposed so drills and tests can force shed
    /// levels and read occupancy.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Routes one parsed request. Pure over the state — no socket — so
    /// tests can drive the full API in-process.
    ///
    /// Every response carries an `X-Selfstab-Trace-Id` header minted at
    /// this ingress point; requests that create a job propagate the same
    /// id through the job's whole span tree. Routing latency (the
    /// time-to-first-byte the handler controls) is recorded per
    /// endpoint.
    pub fn handle(self: &Arc<Self>, req: &Request) -> Response {
        let trace_id = self.trace_ids.mint();
        let started = Instant::now();
        let response = self.route(req, &trace_id);
        self.registry
            .histogram(&format!(
                "serve/ttfb_us{{endpoint=\"{}\"}}",
                endpoint_label(req)
            ))
            .record(started.elapsed().as_micros() as u64);
        let class = match response.status {
            200..=299 => "http/2xx",
            400..=499 => "http/4xx",
            _ => "http/5xx",
        };
        self.registry.counter(class).fetch_add(1, Ordering::Relaxed);
        response.with_header("x-selfstab-trace-id", trace_id)
    }

    fn route(self: &Arc<Self>, req: &Request, trace_id: &str) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            // Liveness: answers 200 as long as the process can serve at
            // all (even while draining — the process is alive).
            ("GET", ["v1", "healthz"]) => json_response(
                200,
                json!({"status": if self.draining() { "draining" } else { "ok" }}),
            ),
            ("GET", ["v1", "readyz"]) => self.readyz(),
            ("GET", ["v1", "metrics"]) => {
                self.refresh_gauges();
                if req.query_is("format", "prometheus") {
                    Response::text(200, prometheus::render(&self.registry))
                } else {
                    json_response(200, self.registry.snapshot_json())
                }
            }
            ("GET", ["v1", "cache", "stats"]) => json_response(200, self.cache.stats_json()),
            ("POST", ["v1", "jobs"]) => self.submit(req, trace_id),
            ("GET", ["v1", "jobs", id]) => match self.job(id) {
                Some(entry) => json_response(200, entry.status_json()),
                None => not_found(),
            },
            ("GET", ["v1", "jobs", id, "result"]) => match self.job(id) {
                Some(entry) => result_response(&entry),
                None => not_found(),
            },
            ("GET", ["v1", "jobs", id, "trace"]) => match self.job(id) {
                Some(entry) => match &entry.trace {
                    Some(trace) => json_response(
                        200,
                        TraceCollector::document(trace.events(entry.kind.name())),
                    ),
                    // Replayed from a journal: the originating request
                    // predates this boot, so there is nothing to trace.
                    None => error_response(
                        404,
                        "no_trace",
                        "job was restored from the journal; no trace exists for this boot",
                    ),
                },
                None => not_found(),
            },
            (
                _,
                ["v1", "healthz"]
                | ["v1", "readyz"]
                | ["v1", "metrics"]
                | ["v1", "cache", "stats"]
                | ["v1", "jobs"]
                | ["v1", "jobs", _]
                | ["v1", "jobs", _, "result"]
                | ["v1", "jobs", _, "trace"],
            ) => error_response(405, "method_not_allowed", "method not allowed"),
            _ => not_found(),
        }
    }

    /// Updates the point-in-time gauges the exposition formats report:
    /// per-kind queue depth, active connections, and cache residency.
    /// (RSS is stored by the watchdog thread as it samples.)
    fn refresh_gauges(&self) {
        for kind in [JobKind::Verify, JobKind::Sweep, JobKind::Synthesize] {
            self.registry
                .gauge(&format!("serve/pending{{kind=\"{}\"}}", kind.name()))
                .store(self.admission.pending(kind), Ordering::Relaxed);
        }
        self.registry.gauge("serve/active_connections").store(
            self.active_connections.load(Ordering::Acquire) as u64,
            Ordering::Relaxed,
        );
        self.registry
            .gauge("serve/shed_level")
            .store(u64::from(self.admission.shed_level()), Ordering::Relaxed);
        self.registry
            .gauge("cache/bytes")
            .store(self.cache.bytes() as u64, Ordering::Relaxed);
    }

    /// Readiness: whether a load balancer should keep routing here.
    /// `503 draining` while winding down, `503 saturated` when the
    /// watchdog is shedding or any admission queue is at its cap, `200
    /// ready` otherwise — always with shed level and per-kind occupancy
    /// so routers can back off *before* the 429s start.
    fn readyz(&self) -> Response {
        let (status, label) = if self.draining() {
            (503, "draining")
        } else if self.admission.saturated() {
            (503, "saturated")
        } else {
            (200, "ready")
        };
        json_response(
            status,
            json!({
                "status": label,
                "shed_level": self.admission.shed_level(),
                "shedding": self.admission.shed_kinds(),
                "pending": self.admission.pending_json(),
            }),
        )
    }

    fn job(&self, id: &str) -> Option<Arc<JobEntry>> {
        let id: u64 = id.parse().ok()?;
        self.jobs
            .lock()
            .expect("job table poisoned")
            .get(&id)
            .cloned()
    }

    /// Appends the records `build` returns, timing the build and the
    /// appends (fsync included under `--fsync always`) as one
    /// `serve/journal_append_us` sample. `build` runs only when a journal
    /// is configured, since a computed job's `done` record copies the
    /// whole body (as does the first `hit` on a key the journal holds no
    /// body for); a site with nothing to append (a drained job) records
    /// no sample.
    fn journal_event<R: IntoIterator<Item = Value>>(&self, build: impl FnOnce() -> R) {
        let Some(journal) = &self.journal else {
            return;
        };
        let started = Instant::now();
        let mut appended = false;
        for record in build() {
            journal.event(&record);
            appended = true;
        }
        if appended {
            self.registry
                .histogram("serve/journal_append_us")
                .record(started.elapsed().as_micros() as u64);
        }
    }

    fn submit(self: &Arc<Self>, req: &Request, trace_id: &str) -> Response {
        if self.draining() {
            return error_response(503, "draining", "server is draining")
                .with_header("retry-after", DRAIN_RETRY_AFTER_SECS);
        }
        // The request root opens here; if the submit is rejected the
        // lane is simply dropped with it.
        let lane = TraceCollector::with_origin(self.origin);
        let body: Value = match std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_owned())
            .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                return error_response(400, "bad_json", &format!("invalid JSON: {e}"));
            }
        };
        // Admission gates on the cheap kind extraction, before the
        // expensive spec parse — shed traffic costs almost nothing.
        let admission_ts = lane.now_us();
        let admitted_kind = match body["kind"].as_str().and_then(JobKind::from_name) {
            Some(kind) => match self.admission.admit(kind) {
                Ok(()) => Some(kind),
                Err(shed) => {
                    return error_response(429, shed.code(), &shed.reason(kind))
                        .with_header("retry-after", RETRY_AFTER_SECS);
                }
            },
            // Missing/unknown kind: fall through so validation renders
            // its precise 400.
            None => None,
        };
        let admission_us = lane.now_us().saturating_sub(admission_ts);
        let admission_args = json!({"pending": self.admission.pending_json()});
        let release_on_reject = |response: Response| {
            if let Some(kind) = admitted_kind {
                self.admission.release(kind);
            }
            response
        };
        let request = match JobRequest::from_json(&body) {
            Ok(r) => r,
            Err(e) => {
                return release_on_reject(error_response(e.status(), e.code(), e.message()));
            }
        };
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);

        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let key = request.cache_key();
        // Spans record on `tid` = job id, so the admission span waits for
        // the id.
        let trace = JobTrace {
            trace_id: trace_id.to_owned(),
            job: id,
            lane,
        };
        trace.lane.complete(
            "admission",
            "admission",
            id,
            admission_ts,
            admission_us,
            admission_args,
        );
        // The table lock spans reserve + insert so a coalesced submit
        // never hands out a job id before that job is observable. Lock
        // order is always table → cache; the pool side touches the cache
        // alone, so the nesting cannot deadlock.
        let cache_ts = trace.lane.now_us();
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        match self.cache.lookup_or_reserve(&key, id) {
            Lookup::Hit { doc, journaled } => {
                // Served entirely from cache: a `done` job exists for
                // uniform polling, but nothing touches the pool. One `hit`
                // record makes the id resolve across a restart exactly
                // like a computed job's; it carries the body only when the
                // journal holds none for this key yet.
                trace.since("cache_lookup", "cache", cache_ts, json!({"outcome": "hit"}));
                let body = (!journaled).then_some(&*doc);
                self.journal_event(|| Some(hit_event(id, request.kind, &key, body)));
                let done = JobState::Done { doc };
                if let Some(kind) = admitted_kind {
                    self.admission.release(kind);
                }
                trace.lane.finish();
                let entry = Arc::new(JobEntry {
                    id,
                    kind: request.kind,
                    cache_key: key,
                    state: Mutex::new(done),
                    telemetry: JobTelemetry::default(),
                    cached: true,
                    trace: Some(trace),
                });
                jobs.insert(id, entry);
                json_response(200, json!({"id": id, "status": "done", "cached": true}))
            }
            Lookup::InFlight(job) => {
                // Coalesced onto an already-journaled job: this submit
                // holds no admission slot and needs no journal record.
                // The coalescing job keeps its own trace; this request's
                // id rides only in the response header, and the join is
                // visible as a span on the computing job's lane.
                if let Some(entry) = jobs.get(&job) {
                    if let Some(job_trace) = &entry.trace {
                        let args = json!({"coalesced_trace_id": trace_id});
                        job_trace.since("coalesced_submit", "cache", cache_ts, args);
                    }
                }
                if let Some(kind) = admitted_kind {
                    self.admission.release(kind);
                }
                json_response(
                    202,
                    json!({"id": job, "status": "queued", "coalesced": true}),
                )
            }
            Lookup::Miss => {
                trace.since(
                    "cache_lookup",
                    "cache",
                    cache_ts,
                    json!({"outcome": "miss"}),
                );
                // Durability point: the acceptance is on disk before the
                // client hears 202, so a crash after this line can only
                // delay the job, never lose it.
                self.journal_event(|| Some(submitted_event(id, request.kind, &key, &body)));
                let entry = Arc::new(JobEntry {
                    id,
                    kind: request.kind,
                    cache_key: key,
                    state: Mutex::new(JobState::Queued),
                    telemetry: JobTelemetry::default(),
                    cached: false,
                    trace: Some(trace),
                });
                jobs.insert(id, Arc::clone(&entry));
                drop(jobs);
                self.enqueue(request, entry);
                json_response(202, json!({"id": id, "status": "queued", "cached": false}))
            }
        }
    }

    fn enqueue(self: &Arc<Self>, request: JobRequest, entry: Arc<JobEntry>) {
        // Deadlines anchor at submit: queue wait burns request budget.
        let token = match request.deadline_from(Instant::now()) {
            Some(deadline) => CancelToken::linked_with_deadline(self.drain_token(), deadline),
            None => CancelToken::linked(self.drain_token()),
        };
        let state = Arc::clone(self);
        let refused = Arc::clone(&entry);
        let enqueued = Instant::now();
        let enqueued_us = entry.trace.as_ref().map(|t| t.lane.now_us());
        let accepted = self.pool.submit(move || {
            *entry.state.lock().expect("job state poisoned") = JobState::Running;
            // Queue wait: enqueue to first execution, one histogram
            // series per kind plus a span on the job's lane.
            let waited_us = enqueued.elapsed().as_micros() as u64;
            state
                .registry
                .histogram(&format!(
                    "serve/queue_wait_us{{kind=\"{}\"}}",
                    entry.kind.name()
                ))
                .record(waited_us);
            if let (Some(trace), Some(ts)) = (&entry.trace, enqueued_us) {
                trace.since("queue_wait", "pool", ts, Value::Null);
            }
            // Panic isolation with deterministic retry: a panicked attempt
            // (organic or chaos-injected) backs off and re-executes, up to
            // the retry budget — the campaign runner's own net and backoff.
            let key = &entry.cache_key;
            let mut attempt: u32 = 0;
            let exec_started = Instant::now();
            let outcome = loop {
                entry.telemetry.attempts.fetch_add(1, Ordering::Relaxed);
                let run = run_attempt(state.chaos.as_ref(), key, request.k_from, attempt, || {
                    execute(&request, &entry.telemetry, &token, entry.trace.as_ref())
                });
                match run {
                    Ok(outcome) => break outcome,
                    Err(_) if attempt < state.retries && !token.is_cancelled() => {
                        std::thread::sleep(backoff(state.backoff, attempt));
                        attempt += 1;
                    }
                    Err(_) => {
                        break ExecOutcome::Failed {
                            status: 500,
                            message: "job panicked".to_owned(),
                        }
                    }
                }
            };
            let next = match outcome {
                ExecOutcome::Done(doc) => {
                    let doc = Arc::new(doc);
                    state.cache.fulfill(key, Arc::clone(&doc));
                    JobState::Done { doc }
                }
                ExecOutcome::Cancelled { partial } => {
                    state.cache.abandon(key);
                    // A drain is a shutdown, not an outcome: never
                    // journaled, so the next boot re-enqueues.
                    if state.draining() {
                        JobState::Drained
                    } else {
                        JobState::TimedOut { partial }
                    }
                }
                ExecOutcome::Failed { status, message } => {
                    state.cache.abandon(key);
                    JobState::Failed { status, message }
                }
            };
            state.journal_event(|| {
                terminal_event(entry.id, &next, entry.telemetry.phases.snapshot().to_json())
            });
            if let JobState::Done { doc } = &next {
                // The `done` record is appended: later hits on this key
                // can refer to it. (A hit between `fulfill` and here found
                // the key unjournaled and carried the body.)
                state.cache.mark_journaled(key, doc);
                let wall_us = exec_started.elapsed().as_micros() as u64;
                state.append_registry_row(&request, &entry, doc, wall_us);
            }
            state
                .registry
                .histogram(&format!(
                    "serve/exec_us{{kind=\"{}\",outcome=\"{}\"}}",
                    entry.kind.name(),
                    next.label(),
                ))
                .record(exec_started.elapsed().as_micros() as u64);
            state.settle(&entry, next);
        });
        if !accepted {
            // The drain shut the pool after `submit` checked for it: park
            // the job as drained, like every job a drain cancels. It stays
            // journaled as accepted, so the next boot re-enqueues it.
            self.cache.abandon(&refused.cache_key);
            self.settle(&refused, JobState::Drained);
        }
    }

    /// Moves a job out of the pool's hands into its final `state`: closes
    /// its trace root, publishes the state, and frees its admission slot.
    fn settle(&self, entry: &JobEntry, state: JobState) {
        if let Some(trace) = &entry.trace {
            trace.lane.finish();
        }
        *entry.state.lock().expect("job state poisoned") = state;
        self.admission.release(entry.kind);
    }

    /// Appends one canonical registry row for a pool-computed `Done`
    /// outcome. Cache-hit submits never append (they measured nothing
    /// new), which keeps two identical fresh-boot runs byte-identical in
    /// the registry modulo `meta`. An append failure costs one
    /// measurement, never the job — it bumps `serve/registry_errors`.
    fn append_registry_row(
        &self,
        request: &JobRequest,
        entry: &JobEntry,
        doc: &CachedDoc,
        wall_us: u64,
    ) {
        let Some(path) = &self.results_registry else {
            return;
        };
        let symmetry = format!("{:?}", request.symmetry).to_lowercase();
        let mut kpis = json!({
            "exit_code": doc.exit_code,
            "body_bytes": doc.body.len() as u64,
            "attempts": entry.telemetry.attempts.load(Ordering::Relaxed),
        });
        if let (Some(counters), Value::Object(map)) = (entry.telemetry.counters(), &mut kpis) {
            map.insert("counters".to_owned(), counters.deterministic_json());
        }
        let row = RegistryRow {
            source: "serve".to_owned(),
            spec: request.hash.to_string(),
            kind: request.kind.name().to_owned(),
            k: match request.kind {
                JobKind::Synthesize => "-".to_owned(),
                _ => format!("{}..{}", request.k_from, request.k_to),
            },
            knobs: json!({"max_states": request.max_states, "symmetry": symmetry}),
            kpis,
            meta: RegistryRow::meta_now(wall_us),
        };
        if append_row(path, &row).is_err() {
            self.registry
                .counter("serve/registry_errors")
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes the server-wide interleaved Chrome-trace document
    /// (`--trace`) from every traced job's lane, ordered by job id so
    /// the file is stable for a given run. [`Server::run`] calls it once
    /// at drain; exposed so in-process tests (no socket) can drive it.
    pub fn write_trace_file(&self) {
        let Some(path) = &self.trace_path else {
            return;
        };
        let jobs = self.jobs.lock().expect("job table poisoned");
        let mut entries: Vec<&Arc<JobEntry>> = jobs.values().collect();
        entries.sort_by_key(|e| e.id);
        let events = entries
            .iter()
            .filter_map(|e| e.trace.as_ref().map(|t| t.events(e.kind.name())))
            .flatten()
            .collect();
        let doc = TraceCollector::document(events);
        if std::fs::write(path, format!("{doc}\n")).is_err() {
            self.registry
                .counter("serve/trace_write_errors")
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Should this response be torn by the chaos plan? Consumes one
    /// response index either way, so tear decisions stay deterministic
    /// per seed.
    fn chaos_tears_response(&self) -> bool {
        match &self.chaos {
            Some(chaos) => {
                let index = self.responses.fetch_add(1, Ordering::Relaxed);
                chaos.should_tear_response(index)
            }
            None => false,
        }
    }

    /// Winds the pool down after a drain and fsyncs the journal;
    /// queued-but-unstarted jobs run against the already-fired token and
    /// park as `drained`.
    pub fn shutdown_pool(&self) {
        self.pool.shutdown();
        if let Some(journal) = &self.journal {
            journal.sync();
        }
    }
}

/// A compact-JSON response body.
fn json_response(status: u16, value: Value) -> Response {
    Response::json(status, value.to_string())
}

/// The structured error body every non-2xx carries: `error` stays the
/// human-readable reason, `code` is the stable machine-readable
/// discriminator (`queue_full` vs `draining` vs `bad_spec` …), so
/// clients branch on `code`, never on prose.
fn error_response(status: u16, code: &str, reason: &str) -> Response {
    json_response(status, json!({"error": reason, "code": code}))
}

fn not_found() -> Response {
    error_response(404, "not_found", "not found")
}

/// The bounded endpoint label the TTFB histogram is keyed by — path
/// *templates*, never raw paths, so job ids cannot mint unbounded
/// metric series.
fn endpoint_label(req: &Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "healthz"] => "healthz",
        ["v1", "readyz"] => "readyz",
        ["v1", "metrics"] => "metrics",
        ["v1", "cache", "stats"] => "cache_stats",
        ["v1", "jobs"] => "submit",
        ["v1", "jobs", _] => "job_status",
        ["v1", "jobs", _, "result"] => "job_result",
        ["v1", "jobs", _, "trace"] => "job_trace",
        _ => "other",
    }
}

fn result_response(entry: &JobEntry) -> Response {
    let state = entry.state.lock().expect("job state poisoned");
    match &*state {
        JobState::Queued | JobState::Running => {
            json_response(202, json!({"id": entry.id, "status": state.label()}))
        }
        JobState::Done { doc } => Response {
            status: 200,
            headers: vec![("x-selfstab-exit-code".to_owned(), doc.exit_code.to_string())],
            body: doc.body.clone().into_bytes(),
        },
        JobState::TimedOut { partial } => Response {
            status: 504,
            headers: Vec::new(),
            body: partial.clone().into_bytes(),
        },
        JobState::Drained => error_response(503, "drained", "cancelled by server drain")
            .with_header("retry-after", DRAIN_RETRY_AFTER_SECS),
        JobState::Failed { status, message } => error_response(*status, "job_failed", message),
    }
}

/// A bound listener plus its shared state and connection limits.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    max_connections: usize,
    idle_timeout: Duration,
    request_deadline: Duration,
}

impl Server {
    /// Binds `config.host:config.port` and builds (replaying journal and
    /// snapshot, if configured) the shared state.
    ///
    /// # Errors
    ///
    /// Returns a rendered diagnostic on bind failure (port busy, bad
    /// interface) or journal/snapshot trouble so the CLI can exit 1
    /// instead of panicking.
    pub fn bind(config: &ServeConfig) -> Result<Self, String> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))
            .map_err(|e| format!("cannot bind {}:{}: {e}", config.host, config.port))?;
        Ok(Server {
            listener,
            state: ServeState::new(config)?,
            max_connections: config.max_connections.max(1),
            idle_timeout: config.idle_timeout,
            request_deadline: config.request_deadline,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (drain token, counters) — lets the CLI arm signal
    /// handling and lets tests drive the API in-process.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Accepts connections until the drain token fires, then winds down:
    /// pool shutdown + journal fsync, then a bounded grace period for
    /// connection threads.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (transient `accept` errors on one
    /// connection are swallowed).
    pub fn run(&self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _)) => self.spawn_connection(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.state.shutdown_pool();
        // All pool work is terminal now: lanes are complete, so the
        // server-wide trace file captures every request of this run.
        self.state.write_trace_file();
        let deadline = Instant::now() + DRAIN_GRACE;
        while self.state.active_connections.load(Ordering::Acquire) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    fn spawn_connection(&self, stream: TcpStream) {
        // Connection cap: refuse with a structured 503 instead of
        // accepting unboundedly many handler threads. The response is
        // written on the accept thread — it is one small buffered write.
        if self.state.active_connections.load(Ordering::Acquire) >= self.max_connections {
            self.state
                .registry
                .counter("serve/connections_refused")
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = error_response(503, "overloaded", "connection limit reached; retry shortly")
                .with_header("retry-after", RETRY_AFTER_SECS)
                .write_to(&mut stream, false);
            return;
        }
        let state = Arc::clone(&self.state);
        let idle_timeout = self.idle_timeout;
        let request_deadline = self.request_deadline;
        state.active_connections.fetch_add(1, Ordering::AcqRel);
        std::thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(idle_timeout));
            let _ = stream.set_write_timeout(Some(request_deadline));
            serve_connection(&state, &stream, request_deadline);
            state.active_connections.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// Drives one connection: reads requests (pipelining-aware, bounded by
/// the per-request deadline), routes each, writes responses, and closes
/// on error, on `Connection: close`, on a request timeout (after a
/// `408`), or when a drain begins.
fn serve_connection(state: &Arc<ServeState>, stream: &TcpStream, request_deadline: Duration) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = RequestReader::with_deadline(stream, request_deadline);
    loop {
        match reader.next_request() {
            Ok(Some(request)) => {
                let response = state.handle(&request);
                let keep_alive = request.keep_alive && !state.draining();
                if state.chaos_tears_response() {
                    // Chaos: send half the bytes and slam the connection
                    // — the client sees a torn response, but the job
                    // behind it is untouched and stays resolvable.
                    let mut bytes = Vec::new();
                    let _ = response.write_to(&mut bytes, keep_alive);
                    let _ = writer.write_all(&bytes[..bytes.len() / 2]);
                    return;
                }
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => return,
            Err(HttpError::Malformed(m)) => {
                let _ = error_response(400, "malformed", &m).write_to(&mut writer, false);
                return;
            }
            Err(HttpError::HeadTooLarge) => {
                let _ = error_response(400, "head_too_large", "request head too large")
                    .write_to(&mut writer, false);
                return;
            }
            Err(HttpError::BodyTooLarge) => {
                let _ = error_response(413, "body_too_large", "request body too large")
                    .write_to(&mut writer, false);
                return;
            }
            Err(HttpError::RequestTimedOut) => {
                // Slow-loris/stall/half-close: answer 408 so the peer
                // knows, then free this worker thread.
                let _ = error_response(408, "request_timeout", "request was not completed in time")
                    .write_to(&mut writer, false);
                return;
            }
            Err(HttpError::Io(_)) => return,
        }
    }
}
