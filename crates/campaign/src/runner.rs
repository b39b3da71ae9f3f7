//! Campaign execution: budgets, shared local analysis, resume, merge —
//! plus the crash-resilience layer: panic isolation with deterministic
//! retry/backoff, cooperative interruption (SIGINT or chaos-injected
//! forced cancel), and journal durability.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use selfstab_core::report::StabilizationReport;
use selfstab_global::{CancelToken, ConvergenceReport, EngineConfig, GlobalError, RingInstance};
use selfstab_protocol::Protocol;
use selfstab_telemetry::{
    span, EngineCounters, Phase, PhaseLane, PhaseSink, Progress, TraceCollector,
};
use serde_json::{json, Value};

use crate::chaos::{self, ChaosPlan};
use crate::job::{JobResult, JobSpec, LocalVerdict, Outcome};
use crate::journal::{self, FsyncPolicy, Journal};
use crate::manifest::Manifest;
use crate::telemetry::{CampaignTelemetry, JobTelemetry};
use crate::{pool, report};

/// Errors of the campaign subsystem.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem trouble (manifest, spec, or journal IO).
    Io(String),
    /// The manifest is malformed.
    Manifest(String),
    /// The journal cannot be resumed (e.g. fingerprint mismatch).
    Journal(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(m) => write!(f, "{m}"),
            CampaignError::Manifest(m) => write!(f, "manifest error: {m}"),
            CampaignError::Journal(m) => write!(f, "journal error: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Knobs of one campaign invocation (the manifest holds the semantics;
/// this holds the mechanics, none of which can change a verdict).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Job-level worker threads (the work-stealing pool size).
    pub workers: usize,
    /// Override of the manifest's per-job engine threads, if any.
    pub engine_threads: Option<usize>,
    /// Override of the manifest's rotation-symmetry policy, if any.
    pub symmetry: Option<selfstab_global::SymmetryMode>,
    /// Journal file; `None` runs without journaling (not resumable).
    pub journal_path: Option<PathBuf>,
    /// Replay the journal first and run only jobs it does not complete.
    pub resume: bool,
    /// Retries for transiently-failed (panicked) jobs: a job makes up to
    /// `retries + 1` attempts before degrading to a failed outcome.
    pub retries: u32,
    /// Base delay of the deterministic exponential backoff between retry
    /// attempts ([`chaos::backoff`]). Pure mechanics: never recorded in
    /// the report.
    pub backoff: Duration,
    /// Journal durability policy (`fsync` per record or batched).
    pub fsync: FsyncPolicy,
    /// External interrupt token. When it fires (a SIGINT hook, a chaos
    /// forced-cancel), in-flight jobs abort via linked per-job tokens,
    /// queued jobs are skipped, the journal is synced, and the outcome
    /// comes back with [`CampaignOutcome::interrupted`] set.
    pub interrupt: Option<Arc<CancelToken>>,
    /// Deterministic fault injection (hidden `--chaos` flag / test API).
    pub chaos: Option<ChaosPlan>,
    /// Collect telemetry (phase times, engine counters, scheduling stats)
    /// into [`CampaignOutcome::metrics`]. Off by default: the job hot path
    /// then runs exactly as before, with no counters allocated.
    pub telemetry: bool,
    /// Additionally record Chrome trace events into
    /// [`CampaignOutcome::trace`]. Implies `telemetry`.
    pub trace: bool,
    /// Live progress sink (the CLI's stderr meter). The runner sets the
    /// total to the number of jobs this invocation will execute and
    /// records each completion; rendering is the caller's business.
    pub progress: Option<Arc<Progress>>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 1,
            engine_threads: None,
            symmetry: None,
            journal_path: None,
            resume: false,
            retries: 0,
            backoff: Duration::from_millis(50),
            fsync: FsyncPolicy::Batch,
            interrupt: None,
            chaos: None,
            telemetry: false,
            trace: false,
            progress: None,
        }
    }
}

/// Everything a finished campaign hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// All job results in manifest order (resumed and fresh merged). On an
    /// interrupted run, jobs that never completed are absent.
    pub results: Vec<JobResult>,
    /// Per-spec local verdicts.
    pub locals: BTreeMap<String, LocalVerdict>,
    /// The canonical report document (partial if `interrupted`).
    pub report: Value,
    /// The canonical rendering of `report` (pretty JSON + final newline);
    /// byte-identical for every worker count, resume split, retry budget
    /// and fault-injection seed — provided the run was not interrupted.
    pub rendered_report: String,
    /// How many jobs actually executed in this invocation (the rest were
    /// replayed from the journal).
    pub executed: usize,
    /// `true` when the interrupt token fired (SIGINT or chaos cancel)
    /// before every job completed. The journal is synced, so a `--resume`
    /// continues from exactly the completed set; the partial report should
    /// not be published.
    pub interrupted: bool,
    /// Worker panics caught (and isolated) during this invocation —
    /// telemetry, never part of `rendered_report`.
    pub panics_caught: u64,
    /// Wall-clock time of this invocation — telemetry only, never part of
    /// `rendered_report`.
    pub elapsed: Duration,
    /// The metrics document (phase times, engine counters, scheduling
    /// stats) when [`CampaignConfig::telemetry`] was on; `None` otherwise.
    /// Per-job *counter* values are deterministic across worker counts;
    /// durations and scheduling numbers are not and live in separate
    /// sections.
    pub metrics: Option<Value>,
    /// The Chrome trace-event document when [`CampaignConfig::trace`] was
    /// on; `None` otherwise. Loadable in Perfetto / `chrome://tracing`.
    pub trace: Option<Value>,
}

/// A spec's shared preparation: parsed protocol + local verdict, computed
/// once per spec and shared by all of its K-jobs, or the error that made
/// the spec unusable.
type SpecData = Result<(Arc<Protocol>, LocalVerdict), String>;

/// How one job attempt ended, before retry bookkeeping.
enum Attempt {
    /// The job ran to a recordable outcome (including budget exhaustion).
    Done(Box<JobResult>),
    /// The campaign's interrupt token fired mid-job; nothing is recorded
    /// and the job re-executes on resume.
    Interrupted,
}

/// Runs (or resumes) the campaign described by `manifest`.
///
/// Per-job failures degrade instead of aborting: parse errors, budget
/// exhaustion and failed verification become outcomes, and a worker panic
/// is caught ([`chaos::run_attempt`]), journaled as a `job_panicked`
/// event, and retried up to [`CampaignConfig::retries`] times with
/// deterministic exponential backoff before degrading to a failed outcome.
///
/// # Errors
///
/// Returns [`CampaignError`] on journal IO failures or a resume against a
/// journal written by a different manifest.
pub fn run_campaign(
    manifest: &Manifest,
    config: &CampaignConfig,
) -> Result<CampaignOutcome, CampaignError> {
    let started = Instant::now();
    let jobs = manifest.jobs();
    let fingerprint = manifest.fingerprint();
    let interrupt = config.interrupt.clone();
    let is_interrupted = || interrupt.as_deref().is_some_and(CancelToken::is_cancelled);

    // Replay the checkpoint.
    let replay = match (&config.journal_path, config.resume) {
        (Some(path), true) => journal::replay(path)?,
        _ => journal::Replay::default(),
    };
    if let Some(fp) = &replay.fingerprint {
        if *fp != fingerprint {
            return Err(CampaignError::Journal(format!(
                "journal was written by a different campaign \
                 (journal fingerprint {fp}, manifest fingerprint {fingerprint}); \
                 delete it or run without --resume"
            )));
        }
    }

    // Open the journal — dropping any torn tail first — and stamp the
    // header on a fresh file.
    let journal = match &config.journal_path {
        Some(path) if config.resume => Some(Journal::append(path, replay.valid_len, config.fsync)?),
        Some(path) => Some(Journal::create(path, config.fsync)?),
        None => None,
    };
    if let Some(j) = &journal {
        if replay.fingerprint.is_none() {
            j.event(&journal::campaign_event(&fingerprint, jobs.len()));
        }
    }

    // Queue what the checkpoint does not already complete.
    let pending: Vec<&JobSpec> = jobs
        .iter()
        .filter(|job| !replay.completed.contains_key(&(job.spec.clone(), job.k)))
        .collect();
    if let Some(j) = &journal {
        for job in &pending {
            j.event(&journal::queued_event(&job.spec, job.k));
        }
    }

    // One shared preparation slot per spec: the first worker to need a
    // spec parses and locally analyzes it; every other K-job of that spec
    // reuses the Arc.
    let slots: Vec<OnceLock<SpecData>> =
        (0..manifest.specs.len()).map(|_| OnceLock::new()).collect();
    let engine = EngineConfig::with_threads(
        config
            .engine_threads
            .unwrap_or(manifest.engine_threads)
            .max(1),
    )
    .with_symmetry(config.symmetry.unwrap_or(manifest.symmetry));

    // Telemetry sinks. `None` when neither `--metrics` nor `--trace` was
    // asked for: the job path then allocates no counters and times no
    // spans, exactly as before this subsystem existed.
    let tele = (config.telemetry || config.trace).then(|| CampaignTelemetry::new(config.trace));
    let pool_stats = tele
        .as_ref()
        .map(|t| pool::PoolStats::from_registry(&t.registry));
    let progress = config.progress.clone();
    if let Some(p) = &progress {
        p.set_total(pending.len() as u64);
    }
    let replayed = replay.completed.len();

    let panics_caught = std::sync::atomic::AtomicU64::new(0);
    let fresh: Vec<Option<JobResult>> = pool::run_jobs(
        config.workers,
        pending.len(),
        pool_stats.as_ref(),
        |worker, idx| {
            let job = pending[idx];
            if is_interrupted() {
                return None; // fast drain: skip everything still queued
            }
            if let Some(chaos) = &config.chaos {
                if chaos.should_cancel(&job.spec, job.k) {
                    if let Some(t) = &interrupt {
                        t.cancel();
                    }
                    return None;
                }
            }
            // Created OUTSIDE the panic net, so the phase time a panicking
            // attempt burned survives into the metrics document.
            let job_tele = tele.as_ref().map(|_| JobTelemetry::default());
            // The worker is the trace lane; the job rides in the args,
            // built only under `--trace`.
            let lane = tele
                .as_ref()
                .zip(job_tele.as_ref())
                .map(|(t, jt)| PhaseLane {
                    phases: &jt.phases,
                    trace: t.trace.as_ref(),
                    tid: worker as u64,
                    cat: "job",
                    args: t.trace.as_ref().map_or(
                        Value::Null,
                        |_| json!({"spec": job.spec.as_str(), "k": job.k}),
                    ),
                });
            let sink = lane.as_ref().map(|l| l as &dyn PhaseSink);
            let record = |result: JobResult| {
                if let (Some(t), Some(jt)) = (&tele, &job_tele) {
                    t.finish_job(&result, jt);
                }
                if let Some(p) = &progress {
                    p.record(matches!(
                        result.outcome,
                        Outcome::Failed { .. } | Outcome::Panicked { .. } | Outcome::Error { .. }
                    ));
                }
                Some(result)
            };
            let mut attempt: u32 = 0;
            loop {
                if is_interrupted() {
                    return None;
                }
                if let Some(jt) = &job_tele {
                    jt.attempts
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                if let Some(j) = &journal {
                    span(sink, Phase::JournalAppend, || {
                        j.event(&journal::started_event(&job.spec, job.k, worker, attempt));
                    });
                }
                let job_started = Instant::now();
                // The panic net: nothing a job does may unwind into the pool.
                let chaos = config.chaos.as_ref();
                let ran = chaos::run_attempt(chaos, &job.spec, job.k, attempt, || {
                    let data = slots[job.spec_index].get_or_init(|| {
                        let data = prepare_spec(manifest, job.spec_index, sink);
                        if let Some(j) = &journal {
                            let verdict = match &data {
                                Ok((_, verdict)) => verdict.clone(),
                                Err(_) => LocalVerdict::Error,
                            };
                            span(sink, Phase::JournalAppend, || {
                                j.event(&journal::analyzed_event(&job.spec, &verdict));
                            });
                        }
                        data
                    });
                    let jt = job_tele.as_ref();
                    execute_job(manifest, job, data, &engine, interrupt.as_ref(), jt, sink)
                });
                match ran {
                    Ok(Attempt::Done(result)) => {
                        if let Some(j) = &journal {
                            let phases = job_tele.as_ref().map(|jt| jt.phases.snapshot().to_json());
                            span(sink, Phase::JournalAppend, || {
                                j.event(&journal::finished_event_with_phases(
                                    &result,
                                    worker,
                                    job_started.elapsed(),
                                    phases,
                                ));
                            });
                        }
                        return record(*result);
                    }
                    Ok(Attempt::Interrupted) => return None,
                    Err(message) => {
                        panics_caught.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if let (Some(t), Some(lane)) = (&tele, &lane) {
                            if let Some(trace) = lane.trace {
                                let args = lane.args.clone();
                                trace.instant("job_panicked", lane.cat, lane.tid, args);
                            }
                            t.registry
                                .counter("campaign/panics")
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        if let Some(j) = &journal {
                            span(sink, Phase::JournalAppend, || {
                                j.event(&journal::panic_event(&job.spec, job.k, attempt, &message));
                            });
                        }
                        if attempt < config.retries {
                            if let Some(t) = &tele {
                                t.registry
                                    .counter("campaign/retries")
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            let delay = chaos::backoff(config.backoff, attempt);
                            if !delay.is_zero() {
                                span(sink, Phase::RetryBackoff, || std::thread::sleep(delay));
                            }
                            attempt += 1;
                            continue;
                        }
                        // Retries exhausted: degrade to a failed outcome.
                        // Deliberately NOT journaled as `finished` — a
                        // panic is a toolchain fault, so a resumed
                        // campaign gets to retry the job from scratch.
                        return record(JobResult {
                            spec: job.spec.clone(),
                            k: job.k,
                            outcome: Outcome::Panicked {
                                attempts: attempt as u64 + 1,
                                message,
                            },
                            states: 0,
                            legit: 0,
                        });
                    }
                }
            }
        },
    );

    let interrupted = is_interrupted();

    // Merge in manifest order: replayed results win their cell, fresh
    // results fill the rest. On an interrupted run, cells that never
    // completed are simply absent.
    let mut fresh_by_cell: BTreeMap<(String, usize), JobResult> = fresh
        .into_iter()
        .flatten()
        .map(|r| ((r.spec.clone(), r.k), r))
        .collect();
    let executed = fresh_by_cell.len();
    let mut results = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let cell = (job.spec.clone(), job.k);
        match replay
            .completed
            .get(&cell)
            .cloned()
            .or_else(|| fresh_by_cell.remove(&cell))
        {
            Some(result) => results.push(result),
            None if interrupted => {}
            None => unreachable!("every job is replayed or freshly executed"),
        }
    }

    // Local verdicts: replayed first, then whatever this invocation
    // computed, then a lazy fill for specs whose jobs were all replayed
    // from a journal predating the `analyzed` events. An interrupted run
    // skips the lazy fill — winding down fast matters more than report
    // completeness, and the partial report is not published anyway.
    let mut locals = replay.locals;
    for (spec_index, slot) in slots.iter().enumerate() {
        if let Some(data) = slot.get() {
            let verdict = match data {
                Ok((_, verdict)) => verdict.clone(),
                Err(_) => LocalVerdict::Error,
            };
            locals.insert(manifest.specs[spec_index].clone(), verdict);
        }
    }
    if !interrupted {
        for (spec_index, spec) in manifest.specs.iter().enumerate() {
            if !locals.contains_key(spec) {
                let verdict = match prepare_spec(manifest, spec_index, None) {
                    Ok((_, verdict)) => verdict,
                    Err(_) => LocalVerdict::Error,
                };
                locals.insert(spec.clone(), verdict);
            }
        }
    }

    // Durability point: everything journaled so far survives a kill, so a
    // `--resume` after SIGINT/SIGKILL loses no completed job.
    if let Some(j) = &journal {
        j.sync();
    }

    let report = report::build(manifest, &fingerprint, &results, &locals);
    let rendered_report = report::render(&report);
    let (metrics, trace) = match &tele {
        Some(t) => (
            Some(t.metrics_json(
                manifest,
                &fingerprint,
                config.workers.max(1),
                engine.threads.max(1),
                replayed,
            )),
            t.trace.as_ref().map(TraceCollector::to_json),
        ),
        None => (None, None),
    };
    Ok(CampaignOutcome {
        results,
        locals,
        report,
        rendered_report,
        executed,
        interrupted,
        panics_caught: panics_caught.into_inner(),
        elapsed: started.elapsed(),
        metrics,
        trace,
    })
}

/// Parses and locally analyzes one spec (the once-per-spec shared work).
/// The `parse` and `local_analysis` phases are attributed to the job whose
/// worker happened to trigger the shared preparation.
fn prepare_spec(manifest: &Manifest, spec_index: usize, sink: Option<&dyn PhaseSink>) -> SpecData {
    let path = manifest.spec_path(spec_index);
    let protocol = span(sink, Phase::Parse, || -> Result<Protocol, String> {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        selfstab_protocol::file::parse_protocol_file(&source)
            .map_err(|e| format!("{}: {e}", manifest.specs[spec_index]))
    })?;
    let local = span(sink, Phase::LocalAnalysis, || {
        StabilizationReport::analyze(&protocol)
    });
    let verdict = if local.is_self_stabilizing_for_all_k() {
        LocalVerdict::Proven
    } else {
        LocalVerdict::Unproven
    };
    Ok((Arc::new(protocol), verdict))
}

/// Runs one job within its budgets, degrading gracefully on every failure
/// mode: parse errors, `d^K` over the state budget, and blown deadlines
/// all become outcomes, never campaign aborts. A fired interrupt token is
/// the one non-outcome: the attempt reports [`Attempt::Interrupted`] and
/// the job is left for the resumed campaign.
fn execute_job(
    manifest: &Manifest,
    job: &JobSpec,
    data: &SpecData,
    engine: &EngineConfig,
    interrupt: Option<&Arc<CancelToken>>,
    job_tele: Option<&JobTelemetry>,
    sink: Option<&dyn PhaseSink>,
) -> Attempt {
    let mut result = JobResult {
        spec: job.spec.clone(),
        k: job.k,
        outcome: Outcome::Verified,
        states: 0,
        legit: 0,
    };
    let protocol = match data {
        Ok((protocol, _)) => protocol,
        Err(message) => {
            result.outcome = Outcome::Error {
                message: message.clone(),
            };
            return Attempt::Done(Box::new(result));
        }
    };

    // State budget: reject d^K > max_states before allocating anything.
    let d = protocol.domain().size() as u64;
    let within_budget = (d.checked_pow(job.k as u32))
        .map(|states| states <= manifest.max_states)
        .unwrap_or(false);
    if !within_budget {
        result.outcome = Outcome::OverBudget {
            reason: "states".into(),
        };
        return Attempt::Done(Box::new(result));
    }
    let ring = match RingInstance::symmetric_with_limit(protocol, job.k, manifest.max_states) {
        Ok(ring) => ring,
        Err(GlobalError::StateSpaceTooLarge { .. }) => {
            result.outcome = Outcome::OverBudget {
                reason: "states".into(),
            };
            return Attempt::Done(Box::new(result));
        }
        Err(e) => {
            result.outcome = Outcome::Error {
                message: e.to_string(),
            };
            return Attempt::Done(Box::new(result));
        }
    };

    // The per-job token: the manifest's wall-clock deadline, linked to the
    // campaign-wide interrupt so one SIGINT (or chaos cancel) aborts every
    // in-flight scan within a poll stride.
    let deadline = manifest
        .timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let token = match (interrupt, deadline) {
        (Some(parent), Some(d)) => CancelToken::linked_with_deadline(Arc::clone(parent), d),
        (Some(parent), None) => CancelToken::linked(Arc::clone(parent)),
        (None, Some(d)) => CancelToken::with_deadline(d),
        (None, None) => CancelToken::new(),
    };
    // Counters exist only when telemetry is on; `None` keeps the metered
    // engine on its zero-overhead path.
    let counters = job_tele.map(|_| EngineCounters::new());
    let counters = counters.as_ref();
    let Ok(report) = ConvergenceReport::check_metered(&ring, engine, &token, counters, sink) else {
        if interrupt.is_some_and(|t| t.is_cancelled()) {
            return Attempt::Interrupted;
        }
        result.outcome = Outcome::OverBudget {
            reason: "deadline".into(),
        };
        return Attempt::Done(Box::new(result));
    };
    result.states = report.state_count;
    result.legit = report.legit_count;
    result.outcome = if report.self_stabilizing() {
        Outcome::Verified
    } else {
        Outcome::Failed {
            closure_ok: report.closure_violation.is_none(),
            deadlocks: report.illegitimate_deadlocks.len() as u64,
            livelock_len: report.livelock.as_ref().map(|c| c.len() as u64),
        }
    };
    // Counters land on the job only once the check completed — a cancelled
    // scan flushed nothing and must not masquerade as a measurement.
    if let (Some(jt), Some(c)) = (job_tele, counters) {
        jt.set_counters(c.snapshot());
    }
    Attempt::Done(Box::new(result))
}
