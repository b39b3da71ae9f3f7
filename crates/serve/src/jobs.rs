//! Job requests, states, and execution.
//!
//! A job is one parsed, validated `POST /v1/jobs` body: a `.stab` spec
//! plus a kind (`verify` | `sweep` | `synthesize`), a K range, and
//! budgets. Validation happens **at submit** — malformed JSON or an
//! unparsable/over-budget spec is rejected with a structured error before
//! anything reaches the pool, so queued work is always runnable.
//!
//! Execution ([`execute`]) is the CLI's own pipeline under a
//! [`CancelToken`]: [`ConvergenceReport::check_metered`] per K (or
//! Section-6 synthesis), reporting its phase spans to the job's lane so
//! `GET /v1/jobs/:id` can show where the time went. A deadline that fires
//! mid-run yields the rows completed so far as a *partial* document —
//! served with 504, never cached.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use selfstab_campaign::telemetry::JobTelemetry;
use selfstab_core::{spec_hash, SpecHash};
use selfstab_global::check::ConvergenceReport;
use selfstab_global::{instance, CancelToken, EngineConfig, RingInstance, SymmetryMode};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_protocol::Protocol;
use selfstab_synth::{LocalSynthesizer, SynthesisConfig};
use selfstab_telemetry::{EngineCounters, PhaseLane, SynthesisCounters};
use serde_json::{json, Value};

use crate::cache::CachedDoc;
use crate::render;
use crate::trace::JobTrace;

/// What the job computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One fixed-K convergence check (`check --k K`).
    Verify,
    /// A K-range of convergence checks (`check --k FROM --to TO`).
    Sweep,
    /// Section-6 local synthesis (`synthesize`).
    Synthesize,
}

impl JobKind {
    /// The wire name, as it appears in request bodies and status
    /// documents.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Verify => "verify",
            JobKind::Sweep => "sweep",
            JobKind::Synthesize => "synthesize",
        }
    }

    /// A dense index ordered by typical cost — `verify` (0) is cheapest,
    /// `synthesize` (2) dearest. Admission control sheds the most
    /// expensive kinds first under memory pressure.
    pub fn index(self) -> usize {
        match self {
            JobKind::Verify => 0,
            JobKind::Sweep => 1,
            JobKind::Synthesize => 2,
        }
    }

    /// Parses a wire name back to a kind (request validation, the
    /// admission pre-check before it, and journal replay).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "verify" => Some(JobKind::Verify),
            "sweep" => Some(JobKind::Sweep),
            "synthesize" => Some(JobKind::Synthesize),
            _ => None,
        }
    }
}

/// Why a submit was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The request body itself is unusable (missing/ill-typed fields,
    /// unknown kind) — HTTP 400.
    BadRequest(String),
    /// The body is well-formed but the spec cannot run (parse error,
    /// over-budget instance) — HTTP 422.
    BadSpec(String),
}

impl SubmitError {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            SubmitError::BadRequest(_) => 400,
            SubmitError::BadSpec(_) => 422,
        }
    }

    /// The machine-readable `code` for the structured error body.
    pub fn code(&self) -> &'static str {
        match self {
            SubmitError::BadRequest(_) => "bad_request",
            SubmitError::BadSpec(_) => "bad_spec",
        }
    }

    /// The human-readable reason.
    pub fn message(&self) -> &str {
        match self {
            SubmitError::BadRequest(m) | SubmitError::BadSpec(m) => m,
        }
    }
}

/// A validated job request: everything execution needs, plus the spec's
/// canonical hash for cache addressing.
#[derive(Debug)]
pub struct JobRequest {
    /// What to compute.
    pub kind: JobKind,
    /// The parsed protocol.
    pub protocol: Protocol,
    /// Canonical parse-tree hash of the spec (see [`selfstab_core::hash`]).
    pub hash: SpecHash,
    /// First ring size (ignored by `synthesize`).
    pub k_from: usize,
    /// Last ring size, inclusive (equals `k_from` for `verify`).
    pub k_to: usize,
    /// Per-instance global-state budget, at most
    /// [`instance::DEFAULT_MAX_STATES`].
    pub max_states: u64,
    /// Rotation-symmetry policy for the scan.
    pub symmetry: SymmetryMode,
    /// Engine threads per job, at most the host's available parallelism
    /// (results are thread-count-invariant).
    pub threads: usize,
    /// Wall-clock deadline for the whole job.
    pub timeout: Option<Duration>,
    /// `synthesize` only: stop after this many accepted solutions.
    pub max_solutions: usize,
    /// `synthesize` only: candidate-combination budget.
    pub max_combinations: usize,
    /// `synthesize` only: `Resolve`-set budget.
    pub max_resolve_sets: usize,
    /// `synthesize` only: monotone lattice pruning (outcome-invariant).
    pub prune: bool,
}

/// The most engine threads one job may use: the host's available
/// parallelism, read once (the query costs syscalls and file reads).
fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

fn usize_field(body: &Value, key: &str) -> Result<Option<usize>, SubmitError> {
    match &body[key] {
        Value::Null => Ok(None),
        v => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
            SubmitError::BadRequest(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

impl JobRequest {
    /// Parses and validates a `POST /v1/jobs` body.
    ///
    /// # Errors
    ///
    /// [`SubmitError::BadRequest`] for structural problems (400),
    /// [`SubmitError::BadSpec`] for a spec that parses as JSON but cannot
    /// run (422).
    pub fn from_json(body: &Value) -> Result<Self, SubmitError> {
        let name = body["kind"].as_str().ok_or_else(|| {
            SubmitError::BadRequest("field `kind` is required and must be a string".to_owned())
        })?;
        let kind = JobKind::from_name(name).ok_or_else(|| {
            SubmitError::BadRequest(format!(
                "unknown kind `{name}` (expected verify, sweep, or synthesize)"
            ))
        })?;
        let spec = body["spec"].as_str().ok_or_else(|| {
            SubmitError::BadRequest("field `spec` is required and must be a string".to_owned())
        })?;
        let protocol = parse_protocol_file(spec)
            .map_err(|e| SubmitError::BadSpec(format!("spec does not parse: {e}")))?;
        let hash = spec_hash(&protocol);

        let (k_from, k_to) = match kind {
            JobKind::Synthesize => {
                // Synthesis quantifies over every ring size; a K field in
                // the body is a caller mistake worth flagging.
                if !body["k"].is_null() || !body["to"].is_null() {
                    return Err(SubmitError::BadRequest(
                        "`synthesize` takes no `k`/`to` fields".to_owned(),
                    ));
                }
                (0, 0)
            }
            JobKind::Verify => {
                if !body["to"].is_null() {
                    return Err(SubmitError::BadRequest(
                        "`verify` checks one size; use kind `sweep` for a range".to_owned(),
                    ));
                }
                let k = usize_field(body, "k")?
                    .ok_or_else(|| SubmitError::BadRequest("field `k` is required".to_owned()))?;
                (k, k)
            }
            JobKind::Sweep => {
                let from = usize_field(body, "k")?
                    .ok_or_else(|| SubmitError::BadRequest("field `k` is required".to_owned()))?;
                let to = usize_field(body, "to")?.unwrap_or(from);
                if to < from {
                    return Err(SubmitError::BadRequest(
                        "`to` must be at least `k`".to_owned(),
                    ));
                }
                (from, to)
            }
        };
        if kind != JobKind::Synthesize && k_from < 2 {
            return Err(SubmitError::BadRequest(
                "`k` must be at least 2 (a ring needs two processes)".to_owned(),
            ));
        }

        // `max_states` sizes the engine's allocations, so a request may
        // lower the default budget but never raise it.
        let max_states = match &body["max_states"] {
            Value::Null => instance::DEFAULT_MAX_STATES,
            v => v
                .as_u64()
                .filter(|&n| n <= instance::DEFAULT_MAX_STATES)
                .ok_or_else(|| {
                    SubmitError::BadRequest(format!(
                        "field `max_states` must be an integer in 0..={}",
                        instance::DEFAULT_MAX_STATES
                    ))
                })?,
        };
        // Budget precheck: reject a d^K blowup at submit instead of
        // queueing a job that can only fail.
        if kind != JobKind::Synthesize {
            let d = protocol.domain().size() as u64;
            let over = (d.checked_pow(k_to as u32)).is_none_or(|n| n > max_states);
            if over {
                return Err(SubmitError::BadSpec(format!(
                    "instance over budget: {d}^{k_to} global states exceeds max_states {max_states}"
                )));
            }
        }

        let symmetry: SymmetryMode = match body["symmetry"].as_str() {
            None if body["symmetry"].is_null() => SymmetryMode::Auto,
            None => {
                return Err(SubmitError::BadRequest(
                    "field `symmetry` must be a string".to_owned(),
                ))
            }
            Some(s) => s
                .parse()
                .map_err(|e| SubmitError::BadRequest(format!("field `symmetry`: {e}")))?,
        };
        // Synthesis knobs: meaningful only for `synthesize` jobs, so on
        // any other kind their presence is a caller mistake worth
        // flagging (they would otherwise be silently ignored).
        if kind != JobKind::Synthesize {
            for key in [
                "max_solutions",
                "max_combinations",
                "max_resolve_sets",
                "prune",
            ] {
                if !body[key].is_null() {
                    return Err(SubmitError::BadRequest(format!(
                        "field `{key}` applies only to `synthesize` jobs"
                    )));
                }
            }
        }
        let synth_defaults = SynthesisConfig::default();
        let max_solutions =
            usize_field(body, "max_solutions")?.unwrap_or(synth_defaults.max_solutions);
        if max_solutions == 0 {
            return Err(SubmitError::BadRequest(
                "field `max_solutions` must be at least 1".to_owned(),
            ));
        }
        let max_combinations =
            usize_field(body, "max_combinations")?.unwrap_or(synth_defaults.max_combinations);
        let max_resolve_sets =
            usize_field(body, "max_resolve_sets")?.unwrap_or(synth_defaults.max_resolve_sets);
        let prune = match &body["prune"] {
            Value::Null => synth_defaults.prune,
            v => v.as_bool().ok_or_else(|| {
                SubmitError::BadRequest("field `prune` must be a boolean".to_owned())
            })?,
        };

        // Documents are thread-count-invariant, so clamping to the host's
        // cores never shows in a result; it bounds what one request spawns.
        let threads = usize_field(body, "threads")?
            .unwrap_or(1)
            .clamp(1, max_threads());
        let timeout = match &body["timeout_ms"] {
            Value::Null => None,
            v => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                SubmitError::BadRequest(
                    "field `timeout_ms` must be a non-negative integer".to_owned(),
                )
            })?)),
        };

        Ok(JobRequest {
            kind,
            protocol,
            hash,
            k_from,
            k_to,
            max_states,
            symmetry,
            threads,
            timeout,
            max_solutions,
            max_combinations,
            max_resolve_sets,
            prune,
        })
    }

    /// The content address of this request's *completed* result: the
    /// canonical spec hash plus every input the rendered document depends
    /// on. Engine `threads` is deliberately excluded (documents are
    /// thread-count-invariant), as is `timeout_ms` (only completed,
    /// deadline-independent results are ever cached). `synthesize` keys
    /// additionally carry the synthesis budgets and the prune mode —
    /// differing budgets truncate the outcome differently, so they must
    /// not alias to the same cached bytes.
    pub fn cache_key(&self) -> String {
        let symmetry = match self.symmetry {
            SymmetryMode::Auto => "auto",
            SymmetryMode::Full => "full",
            SymmetryMode::Reduced => "reduced",
        };
        let mut key = format!(
            "{}:{}:{}..{}:{}:{}",
            self.hash,
            self.kind.name(),
            self.k_from,
            self.k_to,
            self.max_states,
            symmetry,
        );
        if self.kind == JobKind::Synthesize {
            key.push_str(&format!(
                ":s{}:c{}:r{}:{}",
                self.max_solutions,
                self.max_combinations,
                self.max_resolve_sets,
                if self.prune { "pruned" } else { "full" },
            ));
        }
        key
    }

    /// The job's deadline instant, if a timeout was requested. Anchored
    /// at submit time, not dequeue time: queue wait counts against the
    /// budget, matching what the client observes.
    pub fn deadline_from(&self, submitted: Instant) -> Option<Instant> {
        self.timeout.map(|t| submitted + t)
    }
}

/// Where a job currently is. The done, timed-out and failed states are
/// also what the journal records and replays
/// ([`crate::journal::terminal_event`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a pool worker.
    Queued,
    /// Executing.
    Running,
    /// Completed; `doc` is the canonical result document.
    Done { doc: Arc<CachedDoc> },
    /// Deadline fired mid-run; `partial` holds the rows completed before
    /// the cut (never cached).
    TimedOut { partial: String },
    /// Cancelled by server drain before completing.
    Drained,
    /// Could not run or panicked; `status` is the HTTP mapping.
    Failed { status: u16, message: String },
}

impl JobState {
    /// The status label shown by `GET /v1/jobs/:id`.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::TimedOut { .. } => "timed_out",
            JobState::Drained => "drained",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// One tracked job: identity, current state, and its telemetry
/// accumulator. Shared between the HTTP handlers and the pool closure.
pub struct JobEntry {
    /// The job id (`/v1/jobs/:id`).
    pub id: u64,
    /// What it computes.
    pub kind: JobKind,
    /// The request's content address.
    pub cache_key: String,
    /// Current state.
    pub state: Mutex<JobState>,
    /// Phase breakdown + engine counters, filled during execution.
    pub telemetry: JobTelemetry,
    /// `true` iff the submit was answered from cache (no pool work).
    pub cached: bool,
    /// The originating request's span collection. `None` for jobs
    /// restored from a journal replay — their request predates this
    /// boot, so there is no request to trace.
    pub trace: Option<JobTrace>,
}

impl JobEntry {
    /// The `GET /v1/jobs/:id` status document.
    pub fn status_json(&self) -> Value {
        let state = self.state.lock().expect("job state poisoned");
        let mut doc = json!({
            "id": self.id,
            "kind": self.kind.name(),
            "status": state.label(),
            "cached": self.cached,
            "cache_key": self.cache_key.clone(),
            "attempts": self.telemetry.attempts.load(std::sync::atomic::Ordering::Relaxed),
            "phases_us": self.telemetry.phases.snapshot().to_json(),
        });
        if let (Some(trace), Value::Object(map)) = (&self.trace, &mut doc) {
            map.insert("trace_id".to_owned(), Value::from(trace.trace_id.as_str()));
        }
        if let JobState::Failed { message, .. } = &*state {
            if let Value::Object(map) = &mut doc {
                map.insert("error".to_owned(), Value::String(message.clone()));
            }
        }
        doc
    }
}

/// How an execution ended.
pub enum ExecOutcome {
    /// Completed: the canonical document, cacheable.
    Done(CachedDoc),
    /// The cancel token fired mid-run (deadline or drain); `partial`
    /// holds the completed rows.
    Cancelled { partial: String },
    /// The job could not run.
    Failed { status: u16, message: String },
}

/// Runs a validated request to completion (or cancellation), timing each
/// phase into `telemetry` (and, when the job is traced, recording one
/// engine span per phase per K into `trace`). This is the exact CLI
/// pipeline: the returned `Done` document is byte-identical to
/// `selfstab check --json` / `selfstab synthesize --json` on the same
/// inputs.
pub fn execute(
    req: &JobRequest,
    telemetry: &JobTelemetry,
    cancel: &CancelToken,
    trace: Option<&JobTrace>,
) -> ExecOutcome {
    match req.kind {
        JobKind::Verify | JobKind::Sweep => execute_check(req, telemetry, cancel, trace),
        JobKind::Synthesize => execute_synthesis(req, telemetry, cancel, trace),
    }
}

fn execute_check(
    req: &JobRequest,
    telemetry: &JobTelemetry,
    cancel: &CancelToken,
    trace: Option<&JobTrace>,
) -> ExecOutcome {
    let engine = EngineConfig::with_threads(req.threads).with_symmetry(req.symmetry);
    let counters = EngineCounters::new();
    let mut rows = Vec::new();
    let mut all_ok = true;
    for k in req.k_from..=req.k_to {
        let ring = match RingInstance::symmetric_with_limit(&req.protocol, k, req.max_states) {
            Ok(ring) => ring,
            Err(e) => {
                return ExecOutcome::Failed {
                    status: 422,
                    message: format!("cannot instantiate K={k}: {e}"),
                }
            }
        };
        // The per-K passes carry `{"k": k}` when traced.
        let lane = PhaseLane {
            phases: &telemetry.phases,
            trace: trace.map(|t| &t.lane),
            tid: trace.map_or(0, |t| t.job),
            cat: "engine",
            args: trace.map_or(Value::Null, |_| json!({ "k": k })),
        };
        let Ok(report) =
            ConvergenceReport::check_metered(&ring, &engine, cancel, Some(&counters), Some(&lane))
        else {
            telemetry.set_counters(counters.snapshot());
            return ExecOutcome::Cancelled {
                partial: format!("{}\n", json!({ "partial": true, "rows": rows })),
            };
        };
        all_ok &= report.self_stabilizing();
        rows.push(render::convergence_report(&report));
    }
    telemetry.set_counters(counters.snapshot());
    ExecOutcome::Done(CachedDoc {
        body: render::check_document(rows),
        exit_code: if all_ok { 0 } else { 2 },
    })
}

fn execute_synthesis(
    req: &JobRequest,
    telemetry: &JobTelemetry,
    cancel: &CancelToken,
    trace: Option<&JobTrace>,
) -> ExecOutcome {
    // Mirrors `selfstab synthesize --json`, with the request's own
    // budgets and prune mode instead of hardcoded defaults.
    let config = SynthesisConfig {
        max_solutions: req.max_solutions,
        max_combinations: req.max_combinations,
        max_resolve_sets: req.max_resolve_sets,
        threads: req.threads,
        prune: req.prune,
        ..SynthesisConfig::default()
    };
    let counters = SynthesisCounters::new();
    let lane = PhaseLane {
        phases: &telemetry.phases,
        trace: trace.map(|t| &t.lane),
        tid: trace.map_or(0, |t| t.job),
        cat: "engine",
        args: Value::Null,
    };
    let result = LocalSynthesizer::new(config).synthesize_metered(
        &req.protocol,
        cancel,
        Some(&counters),
        Some(&lane),
    );
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            return ExecOutcome::Failed {
                status: 422,
                message: format!("synthesis cannot run: {e}"),
            }
        }
    };
    let value = render::synthesis_outcome(&req.protocol, &outcome, &counters.snapshot());
    if outcome.cancelled() {
        return ExecOutcome::Cancelled {
            partial: format!("{}\n", json!({ "partial": true, "outcome": value })),
        };
    }
    ExecOutcome::Done(CachedDoc {
        body: render::synthesis_document(&value),
        exit_code: if outcome.is_success() { 0 } else { 2 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_telemetry::Phase;

    const AGREEMENT: &str = "\
protocol agreement
domain x { 0 1 }
locality unidirectional
legit x[r] == x[r-1]
action x[r-1] == 1 && x[r] == 0 -> x[r] := 1
";

    fn body(json_text: &str) -> Value {
        serde_json::from_str(json_text).unwrap()
    }

    fn spec_body(extra: &str) -> Value {
        let spec = serde_json::Value::String(AGREEMENT.to_owned());
        body(&format!("{{\"spec\": {spec}, {extra}}}"))
    }

    #[test]
    fn verify_request_parses_and_keys() {
        let req = JobRequest::from_json(&spec_body("\"kind\": \"verify\", \"k\": 4")).unwrap();
        assert_eq!(req.kind, JobKind::Verify);
        assert_eq!((req.k_from, req.k_to), (4, 4));
        assert_eq!(req.threads, 1);
        let key = req.cache_key();
        assert!(key.contains(":verify:4..4:"), "key was {key}");
        assert!(key.ends_with(":auto"));
        assert!(key.starts_with(&req.hash.to_string()));
        // Threads clamp to the host and stay out of the key.
        let many = spec_body("\"kind\": \"verify\", \"k\": 4, \"threads\": 100000");
        let many = JobRequest::from_json(&many).unwrap();
        assert_eq!((many.threads, many.cache_key()), (max_threads(), key));
    }

    #[test]
    fn sweep_defaults_and_range_validation() {
        let req =
            JobRequest::from_json(&spec_body("\"kind\": \"sweep\", \"k\": 3, \"to\": 5")).unwrap();
        assert_eq!((req.k_from, req.k_to), (3, 5));
        let err = JobRequest::from_json(&spec_body("\"kind\": \"sweep\", \"k\": 5, \"to\": 3"))
            .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn structural_errors_are_400() {
        for extra in [
            "\"kind\": \"explode\", \"k\": 3",
            "\"kind\": \"verify\"",
            "\"kind\": \"verify\", \"k\": \"three\"",
            "\"kind\": \"verify\", \"k\": 3, \"to\": 5",
            "\"kind\": \"verify\", \"k\": 1",
            "\"kind\": \"synthesize\", \"k\": 3",
            "\"kind\": \"verify\", \"k\": 3, \"symmetry\": \"sideways\"",
            // A budget above the default would size allocations past it.
            "\"kind\": \"verify\", \"k\": 40, \"max_states\": 1099511627776",
        ] {
            let err = JobRequest::from_json(&spec_body(extra)).unwrap_err();
            assert_eq!(err.status(), 400, "case: {extra}");
        }
        let err = JobRequest::from_json(&body("{\"kind\": \"verify\", \"k\": 3}")).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn bad_specs_and_blowups_are_422() {
        let err = JobRequest::from_json(&body(
            "{\"kind\": \"verify\", \"k\": 3, \"spec\": \"not a protocol\"}",
        ))
        .unwrap_err();
        assert_eq!(err.status(), 422);
        // 2^40 states blows the default budget at submit, not at run time.
        let err = JobRequest::from_json(&spec_body("\"kind\": \"verify\", \"k\": 40")).unwrap_err();
        assert_eq!(err.status(), 422);
        assert!(err.message().contains("over budget"));
    }

    #[test]
    fn cache_key_is_spec_content_addressed() {
        let spec_b = AGREEMENT
            .replace("action", "  action")
            .replace("protocol agreement", "# a comment\nprotocol agreement");
        let a = JobRequest::from_json(&spec_body("\"kind\": \"verify\", \"k\": 4")).unwrap();
        let b = JobRequest::from_json(&body(&format!(
            "{{\"kind\": \"verify\", \"k\": 4, \"spec\": {}}}",
            serde_json::Value::String(spec_b)
        )))
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        // Different K → different address.
        let c = JobRequest::from_json(&spec_body("\"kind\": \"verify\", \"k\": 5")).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn synthesis_knobs_parse_and_never_alias_in_the_cache() {
        // Defaults mirror SynthesisConfig::default().
        let base = JobRequest::from_json(&spec_body("\"kind\": \"synthesize\"")).unwrap();
        assert_eq!(base.max_solutions, 64);
        assert_eq!(base.max_combinations, 4096);
        assert_eq!(base.max_resolve_sets, 32);
        assert!(base.prune);

        // Regression: every synthesis knob must perturb the cache key —
        // before they were keyed, a `max_combinations: 1` request was
        // answered with the full-budget document.
        let variants = [
            "\"kind\": \"synthesize\", \"max_solutions\": 1",
            "\"kind\": \"synthesize\", \"max_combinations\": 1",
            "\"kind\": \"synthesize\", \"max_resolve_sets\": 1",
            "\"kind\": \"synthesize\", \"prune\": false",
        ];
        let mut keys = vec![base.cache_key()];
        for extra in variants {
            let req = JobRequest::from_json(&spec_body(extra)).unwrap();
            keys.push(req.cache_key());
        }
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "aliased keys: {keys:?}");

        // An explicit default is the same address as an omitted knob.
        let explicit =
            JobRequest::from_json(&spec_body("\"kind\": \"synthesize\", \"prune\": true")).unwrap();
        assert_eq!(explicit.cache_key(), base.cache_key());
    }

    #[test]
    fn synthesis_knobs_are_rejected_on_other_kinds() {
        for extra in [
            "\"kind\": \"verify\", \"k\": 3, \"prune\": true",
            "\"kind\": \"sweep\", \"k\": 3, \"max_solutions\": 2",
            "\"kind\": \"verify\", \"k\": 3, \"max_combinations\": 10",
            "\"kind\": \"synthesize\", \"prune\": \"on\"",
            "\"kind\": \"synthesize\", \"max_solutions\": 0",
        ] {
            let err = JobRequest::from_json(&spec_body(extra)).unwrap_err();
            assert_eq!(err.status(), 400, "case: {extra}");
        }
    }

    #[test]
    fn execute_verify_matches_cli_render() {
        let req = JobRequest::from_json(&spec_body("\"kind\": \"verify\", \"k\": 4")).unwrap();
        let telemetry = JobTelemetry::default();
        let outcome = execute(&req, &telemetry, &CancelToken::new(), None);
        let ExecOutcome::Done(doc) = outcome else {
            panic!("expected completion");
        };
        assert_eq!(doc.exit_code, 0);
        // Byte-identity with the CLI path: same row builder, same framing.
        let ring = RingInstance::symmetric(&req.protocol, 4).unwrap();
        let report = ConvergenceReport::check(&ring);
        let expected = render::check_document(vec![render::convergence_report(&report)]);
        assert_eq!(doc.body, expected);
        // Phases were attributed.
        let phases = telemetry.phases.snapshot();
        assert!(phases.calls[Phase::FusedScan.index()] > 0);
        assert!(phases.calls[Phase::LivelockDfs.index()] > 0);
        assert!(telemetry.counters().is_some());
    }

    #[test]
    fn execute_respects_a_pre_fired_token() {
        let req =
            JobRequest::from_json(&spec_body("\"kind\": \"sweep\", \"k\": 3, \"to\": 8")).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let outcome = execute(&req, &JobTelemetry::default(), &token, None);
        let ExecOutcome::Cancelled { partial } = outcome else {
            panic!("expected cancellation");
        };
        let doc: Value = serde_json::from_str(&partial).unwrap();
        assert_eq!(doc["partial"], true);
        assert_eq!(doc["rows"].as_array().unwrap().len(), 0);
    }
}
