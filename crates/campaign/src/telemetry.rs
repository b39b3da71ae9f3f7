//! Campaign-side telemetry: per-job phase breakdowns and engine counters,
//! scheduling metrics (pool steals, queue depth, retries, panics), and the
//! builders of the `--metrics` and `--trace` documents.
//!
//! The metrics document keeps the engine's **deterministic** counters
//! (identical for every worker count and engine thread count on a
//! completed job) strictly apart from **scheduling** numbers (steals,
//! queue depths, retries, `closure_checks`) and from durations — only the
//! first class is ever compared across runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use selfstab_telemetry::{
    EngineCountersSnapshot, Phase, PhaseSnapshot, PhaseTimes, Registry, TraceCollector,
};
use serde_json::Value;

use crate::job::JobResult;
use crate::manifest::Manifest;

/// Telemetry of one job, accumulated across all of its retry attempts.
/// The runner creates it *outside* the panic net, so the phase time a
/// panicking attempt burned survives into the metrics document.
#[derive(Debug, Default)]
pub struct JobTelemetry {
    /// Per-phase time of this job, all attempts pooled.
    pub phases: PhaseTimes,
    /// Attempts started (1 + retries actually taken).
    pub attempts: AtomicU64,
    /// Engine counters of the attempt that produced the recorded outcome;
    /// only completed checks (`verified`/`failed` rows) have one.
    counters: Mutex<Option<EngineCountersSnapshot>>,
}

impl JobTelemetry {
    /// Stores the engine counters of the deciding attempt.
    pub fn set_counters(&self, snapshot: EngineCountersSnapshot) {
        *self.counters.lock().expect("job counters poisoned") = Some(snapshot);
    }

    /// The stored engine counters, if the check completed.
    pub fn counters(&self) -> Option<EngineCountersSnapshot> {
        *self.counters.lock().expect("job counters poisoned")
    }
}

/// One executed job's record in the metrics document.
#[derive(Debug)]
struct JobRecord {
    outcome: &'static str,
    attempts: u64,
    states: u64,
    counters: Option<EngineCountersSnapshot>,
    phases: PhaseSnapshot,
}

/// Everything the campaign records when telemetry is on: campaign-wide
/// phase totals, the scheduling registry, per-job records, and (under
/// `--trace`) the Chrome trace-event collector.
#[derive(Debug)]
pub(crate) struct CampaignTelemetry {
    /// Campaign-wide phase totals (every job's phases merged in).
    pub phases: PhaseTimes,
    /// Scheduling-side counters and histograms.
    pub registry: Registry,
    /// Trace collector; `None` unless tracing was requested.
    pub trace: Option<TraceCollector>,
    jobs: Mutex<BTreeMap<(String, usize), JobRecord>>,
}

impl CampaignTelemetry {
    /// Fresh telemetry; `trace` additionally arms the trace collector.
    pub fn new(trace: bool) -> Self {
        CampaignTelemetry {
            phases: PhaseTimes::new(),
            registry: Registry::new(),
            trace: trace.then(TraceCollector::new),
            jobs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Folds one finished job into the campaign: merges its phases into
    /// the campaign totals, samples the per-phase and state-count
    /// histograms, aggregates the scheduling-dependent `closure_checks`,
    /// and files the per-job record for the metrics document.
    pub fn finish_job(&self, result: &JobResult, job: &JobTelemetry) {
        let phases = job.phases.snapshot();
        self.phases.merge(&phases);
        for phase in Phase::ALL {
            if phases.calls[phase.index()] > 0 {
                self.registry
                    .histogram(phase_histogram_name(phase))
                    .record(phases.micros[phase.index()]);
            }
        }
        let counters = job.counters();
        if let Some(c) = &counters {
            self.registry
                .histogram("job/states")
                .record(c.states_visited);
            self.registry
                .counter("engine/closure_checks")
                .fetch_add(c.closure_checks, Ordering::Relaxed);
        }
        self.jobs.lock().expect("job records poisoned").insert(
            (result.spec.clone(), result.k),
            JobRecord {
                outcome: result.outcome.tag(),
                attempts: job.attempts.load(Ordering::Relaxed).max(1),
                states: result.states,
                counters,
                phases,
            },
        );
    }

    /// Builds the metrics document. Jobs appear in manifest order (only
    /// the ones executed by this invocation — replayed cells carry no
    /// fresh telemetry), each with its outcome, attempt count, per-phase
    /// microseconds, and — for completed checks — the engine's
    /// deterministic counters.
    pub fn metrics_json(
        &self,
        manifest: &Manifest,
        fingerprint: &str,
        workers: usize,
        engine_threads: usize,
        replayed: usize,
    ) -> Value {
        let records = self.jobs.lock().expect("job records poisoned");
        let jobs = manifest.jobs();
        let mut rows = Vec::with_capacity(records.len());
        for job in &jobs {
            let Some(r) = records.get(&(job.spec.clone(), job.k)) else {
                continue;
            };
            let mut row = BTreeMap::new();
            row.insert("spec".to_owned(), Value::from(job.spec.as_str()));
            row.insert("k".to_owned(), Value::from(job.k as u64));
            row.insert("outcome".to_owned(), Value::from(r.outcome));
            row.insert("attempts".to_owned(), Value::from(r.attempts));
            row.insert("states".to_owned(), Value::from(r.states));
            row.insert(
                "counters".to_owned(),
                r.counters
                    .as_ref()
                    .map(EngineCountersSnapshot::deterministic_json)
                    .unwrap_or(Value::Null),
            );
            row.insert("phases_us".to_owned(), r.phases.to_json());
            rows.push(Value::Object(row));
        }
        let executed = rows.len();
        let mut campaign = BTreeMap::new();
        campaign.insert(
            "engine_threads".to_owned(),
            Value::from(engine_threads as u64),
        );
        campaign.insert("executed".to_owned(), Value::from(executed as u64));
        campaign.insert("fingerprint".to_owned(), Value::from(fingerprint));
        campaign.insert("jobs".to_owned(), Value::from(jobs.len() as u64));
        campaign.insert("replayed".to_owned(), Value::from(replayed as u64));
        campaign.insert("workers".to_owned(), Value::from(workers as u64));
        let mut doc = BTreeMap::new();
        doc.insert("campaign".to_owned(), Value::Object(campaign));
        doc.insert("jobs".to_owned(), Value::Array(rows));
        doc.insert(
            "phase_totals_us".to_owned(),
            self.phases.snapshot().to_json(),
        );
        doc.insert("scheduling".to_owned(), self.registry.snapshot_json());
        Value::Object(doc)
    }
}

/// The static name of a phase's per-job duration histogram.
fn phase_histogram_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Parse => "phase_us/parse",
        Phase::LocalAnalysis => "phase_us/local_analysis",
        Phase::FusedScan => "phase_us/fused_scan",
        Phase::LivelockDfs => "phase_us/livelock_dfs",
        Phase::JournalAppend => "phase_us/journal_append",
        Phase::RetryBackoff => "phase_us/retry_backoff",
        Phase::Synthesis => "phase_us/synthesis",
    }
}
