//! The in-process workloads: each job is one `JobRequest::from_json` plus
//! one `jobs::execute` on this thread — exactly the body of a serve pool
//! job, with no socket, poll or scheduler in between.
//!
//! The traced run calls each layer's public function in turn instead,
//! under a span per call, and must produce the same bytes.

use std::time::{Duration, Instant};

use selfstab_campaign::telemetry::JobTelemetry;
use selfstab_core::livelock::CertificateScope;
use selfstab_core::{spec_hash, DeadlockAnalysis, LivelockAnalysis};
use selfstab_global::check::ConvergenceReport;
use selfstab_global::engine::{find_livelock_metered, fused_scan_metered};
use selfstab_global::{CancelToken, EngineConfig, RingInstance};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_serve::jobs::{execute, ExecOutcome, JobRequest};
use selfstab_serve::render;
use selfstab_synth::{LocalSynthesizer, SynthesisConfig};
use selfstab_telemetry::{EngineCounters, EngineCountersSnapshot, Phase, SynthesisCounters};
use serde_json::{json, Value};

use crate::corpus::{catalogue, Job, Kind, Spec};
use crate::oracle::Oracle;
use crate::report::{e2e_metrics, latency_info, ratio, run_dir, Layer, Report};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{self, Workload};
use crate::Args;

/// The program's own per-process set-up for in-process execution: the
/// drain token and telemetry accumulator a serve pool job runs against.
/// There is nothing else — `jobs::execute` keeps no process-wide state.
pub fn set_up() -> (CancelToken, JobTelemetry) {
    (CancelToken::new(), JobTelemetry::default())
}

/// One untraced job: returns the document, its exit code and the
/// telemetry the program recorded while producing it, or why the program
/// refused the request.
pub fn run_job(body: &Value, cancel: &CancelToken) -> Result<(String, u8, JobTelemetry), String> {
    let req = JobRequest::from_json(body).map_err(|e| e.message().to_owned())?;
    let telemetry = JobTelemetry::default();
    match execute(&req, &telemetry, cancel, None) {
        ExecOutcome::Done(doc) => Ok((doc.body, doc.exit_code, telemetry)),
        ExecOutcome::Cancelled { .. } => Err("cancelled".to_owned()),
        ExecOutcome::Failed { status, message } => Err(format!("{status}: {message}")),
    }
}

/// What the traced, layer-by-layer run of one job did: the phases it ran
/// and the engine counters it read.
#[derive(Default)]
pub struct Work {
    scans: u64,
    dfs: u64,
    syntheses: u64,
    engine: Option<EngineCountersSnapshot>,
}

impl Work {
    /// Checks that the program's own `jobs::execute` did the same work on
    /// the same request — as many fused scans, livelock DFS runs and
    /// syntheses, and the same states visited, DFS steps and orbits — so
    /// the per-layer figures describe the program's pipeline and not a
    /// stale copy of it.
    fn matches(&self, program: &JobTelemetry) -> Result<(), String> {
        let engine = |c: Option<EngineCountersSnapshot>| {
            c.map(|c| (c.states_visited, c.dfs_steps, c.orbits_visited))
        };
        let phases = &program.phases;
        let ours = (
            phases.calls(Phase::FusedScan),
            phases.calls(Phase::LivelockDfs),
            phases.calls(Phase::Synthesis),
            engine(program.counters()),
        );
        let traced = (self.scans, self.dfs, self.syntheses, engine(self.engine));
        if ours == traced {
            return Ok(());
        }
        Err(format!(
            "the traced pipeline no longer does the program's work: (scans, DFS runs, \
             syntheses, (states, DFS steps, orbits)) {ours:?} in jobs::execute, {traced:?} traced"
        ))
    }
}

/// Work counts of a traced run, from the engines' public counters.
#[derive(Default)]
pub struct Counts {
    pub scan_states: u64,
    pub orbits: u64,
    pub dfs_steps: u64,
    pub verify_jobs: u64,
    pub certified_jobs: u64,
    pub resolve_sets: u64,
    pub combinations: u64,
    pub skipped: u64,
    pub cones_cut: u64,
    pub delta_reuses: u64,
    pub solutions: u64,
    pub render_bytes: u64,
}

/// One traced job. The `job` root span holds exactly the pipeline
/// `jobs::execute` runs; a sibling `local` root holds the layer calls that
/// are off that path today (the standalone parse and hash, and the local
/// theorems a local-first verifier would consult).
pub fn traced_job(
    rec: &mut Recorder,
    id: u64,
    job: &Job,
    catalogue: &[Spec],
    body: &Value,
    cancel: &CancelToken,
    counts: &mut Counts,
) -> Result<(String, u8, Work), String> {
    let text = &catalogue[job.spec].text;
    let (doc, code, work) = rec.span(crate::spans::ROOT, id, |rec| {
        let req = rec
            .span("serve.validate", id, |_| JobRequest::from_json(body))
            .map_err(|e| e.message().to_owned())?;
        match job.kind {
            Kind::Verify | Kind::Sweep => traced_check(rec, id, &req, cancel, counts),
            Kind::Synthesize => traced_synthesis(rec, id, &req, cancel, counts),
        }
    })?;
    rec.span("local", id, |rec| {
        let protocol = rec
            .span("protocol.parse", id, |_| parse_protocol_file(text))
            .map_err(|e| e.to_string())?;
        rec.span("core.spec_hash", id, |_| spec_hash(&protocol));
        if job.kind != Kind::Synthesize {
            let deadlock = rec.span("core.deadlock", id, |_| {
                DeadlockAnalysis::analyze(&protocol)
            });
            let livelock = rec.span("core.livelock", id, |_| {
                LivelockAnalysis::analyze(&protocol)
            });
            counts.verify_jobs += 1;
            if deadlock.is_free_for_all_k()
                && livelock.certified_free()
                && livelock.scope() == CertificateScope::AllLivelocks
            {
                counts.certified_jobs += 1;
            }
        }
        Ok::<(), String>(())
    })?;
    counts.render_bytes += doc.len() as u64;
    Ok((doc, code, work))
}

fn traced_check(
    rec: &mut Recorder,
    id: u64,
    req: &JobRequest,
    cancel: &CancelToken,
    counts: &mut Counts,
) -> Result<(String, u8, Work), String> {
    let engine = EngineConfig::with_threads(req.threads).with_symmetry(req.symmetry);
    let counters = EngineCounters::new();
    let mut work = Work::default();
    let mut rows = Vec::new();
    let mut all_ok = true;
    for k in req.k_from..=req.k_to {
        let ring = rec
            .span("global.instance", id, |_| {
                RingInstance::symmetric_with_limit(&req.protocol, k, req.max_states)
            })
            .map_err(|e| e.to_string())?;
        let scan = rec
            .span("global.scan", id, |_| {
                fused_scan_metered(&ring, &engine, cancel, Some(&counters))
            })
            .map_err(|e| e.to_string())?;
        work.scans += 1;
        let livelock = rec
            .span("global.dfs", id, |_| {
                find_livelock_metered(&ring, &scan, cancel, Some(&counters))
            })
            .map_err(|e| e.to_string())?;
        work.dfs += 1;
        let report = ConvergenceReport {
            ring_size: ring.ring_size(),
            state_count: ring.space().len(),
            legit_count: scan.legit_count,
            closure_violation: scan.first_closure_violation,
            illegitimate_deadlocks: scan.illegitimate_deadlocks,
            livelock,
        };
        all_ok &= report.self_stabilizing();
        rows.push(rec.span("serve.render", id, |_| render::convergence_report(&report)));
    }
    let snapshot = counters.snapshot();
    counts.scan_states += snapshot.states_visited;
    counts.orbits += snapshot.orbits_visited;
    counts.dfs_steps += snapshot.dfs_steps;
    work.engine = Some(snapshot);
    let body = rec.span("serve.render", id, |_| render::check_document(rows));
    Ok((body, if all_ok { 0 } else { 2 }, work))
}

fn traced_synthesis(
    rec: &mut Recorder,
    id: u64,
    req: &JobRequest,
    cancel: &CancelToken,
    counts: &mut Counts,
) -> Result<(String, u8, Work), String> {
    let config = SynthesisConfig {
        max_solutions: req.max_solutions,
        max_combinations: req.max_combinations,
        max_resolve_sets: req.max_resolve_sets,
        threads: req.threads,
        prune: req.prune,
        ..SynthesisConfig::default()
    };
    let counters = SynthesisCounters::new();
    let outcome = rec
        .span("synth.synthesize", id, |_| {
            LocalSynthesizer::new(config).synthesize_metered(
                &req.protocol,
                cancel,
                Some(&counters),
                None,
            )
        })
        .map_err(|e| e.to_string())?;
    let snapshot = counters.snapshot();
    counts.resolve_sets += snapshot.resolve_sets_examined;
    counts.combinations += snapshot.combinations_tried;
    counts.skipped += snapshot.candidates_skipped;
    counts.cones_cut += snapshot.cones_cut;
    counts.delta_reuses += snapshot.delta_reuses;
    counts.solutions += snapshot.solutions_found;
    let body = rec.span("serve.render", id, |_| {
        let value = render::synthesis_outcome(&req.protocol, &outcome, &snapshot);
        render::synthesis_document(&value)
    });
    let work = Work {
        syntheses: 1,
        ..Work::default()
    };
    Ok((body, if outcome.is_success() { 0 } else { 2 }, work))
}

/// Latency samples and failure accounting of one run.
#[derive(Default)]
pub struct Tally {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub decided: u64,
    /// Summed job wall time: the timed window of a closed loop whose
    /// oracle checks run between jobs, off the clock.
    pub busy: Duration,
    /// The window of every round, s.
    pub round_s: Vec<f64>,
    pub errors: Vec<String>,
}

impl Tally {
    /// Runs one round through `f` and records its window.
    pub fn round(&mut self, f: impl FnOnce(&mut Self)) {
        let before = self.busy;
        f(self);
        self.round_s.push((self.busy - before).as_secs_f64());
    }

    /// Checked jobs per second of a typical round: every round holds the
    /// same jobs, so the median round window discounts a round that a
    /// burst of host noise slowed.
    pub fn jobs_per_s(&self) -> f64 {
        let rounds = self.round_s.len().max(1) as f64;
        let checked = (self.attempted - self.failed) as f64;
        checked / rounds / crate::stats::median(&self.round_s)
    }

    /// Records one job that took `elapsed` and ended with `verdict`.
    pub fn record(&mut self, elapsed: Duration, verdict: Result<(), String>, limit_ms: f64) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.attempted += 1;
        self.busy += elapsed;
        self.latencies_ms.push(ms);
        match verdict {
            Ok(()) if ms <= limit_ms => self.decided += 1,
            Ok(()) => {}
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }
}

/// Runs one job untraced and checks its document; returns the program's
/// telemetry of the job when the document passed.
fn timed_job(
    job: &Job,
    body: &Value,
    cancel: &CancelToken,
    oracle: &mut Oracle,
    limit_ms: f64,
    tally: &mut Tally,
) -> Option<JobTelemetry> {
    let started = Instant::now();
    let out = run_job(body, cancel);
    let elapsed = started.elapsed();
    let (verdict, telemetry) = match out {
        Ok((doc, code, telemetry)) => (oracle.check(job, &doc, code), Some(telemetry)),
        Err(e) => (Err(e), None),
    };
    let passed = verdict.is_ok();
    tally.record(elapsed, verdict, limit_ms);
    telemetry.filter(|_| passed)
}

/// Runs `jobs` untraced, checking every document. The request bodies are
/// built before the first job, off the clock.
pub fn run_untraced(
    jobs: &[Job],
    cat: &[Spec],
    cancel: &CancelToken,
    oracle: &mut Oracle,
    limit_ms: f64,
    tally: &mut Tally,
) {
    let bodies: Vec<Value> = jobs.iter().map(|j| j.body(cat)).collect();
    for (job, body) in jobs.iter().zip(&bodies) {
        timed_job(job, body, cancel, oracle, limit_ms, tally);
    }
}

/// Per-call time of `set_up` over one batch of calls, so a set-up of
/// nanoseconds is resolved above the clock's granularity. The batch runs
/// on a thread of its own: a new thread's stack starts at the same offset
/// in every process, while the main thread's is randomized per process,
/// and on the main thread about one process in four read 26 ns where the
/// others read 12–18 ns.
fn setup_batch_s() -> f64 {
    const BATCH: u32 = 4096;
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let started = Instant::now();
                for _ in 0..BATCH {
                    std::hint::black_box(set_up());
                }
                started.elapsed().as_secs_f64() / f64::from(BATCH)
            })
            .join()
            .expect("set-up batch panicked")
    })
}

/// Runs one in-process workload: untraced for the end-to-end metrics, or
/// traced for the per-layer ones.
pub fn run(workload: Workload, args: &Args) -> Result<Report, String> {
    let cat = catalogue();
    let mut oracle = Oracle::new(&cat);
    let limit = workload.latency_limit_ms();
    let rounds = workload.rounds(args.seconds);
    let (distinct, list) = workloads::job_list(workload, &cat, args.seed, rounds);
    let (cancel, _) = set_up();
    // Warm-up, off the clock: every distinct job once, heaviest first, each
    // checked in full by the oracle. Timed rounds then run in a process
    // whose heap and caches are warm, as a long-lived pool worker's are.
    let mut warm = Tally::default();
    run_untraced(&distinct, &cat, &cancel, &mut oracle, limit, &mut warm);
    let mut tally = Tally::default();

    if !args.trace {
        // One set-up batch before every round: `setup_s` is their median,
        // taken over the same stretch of the run as the rounds.
        let mut setups = Vec::with_capacity(rounds);
        for jobs in list {
            setups.push(setup_batch_s());
            tally.round(|t| run_untraced(&jobs, &cat, &cancel, &mut oracle, limit, t));
        }
        return Ok(Report {
            attempted: warm.attempted + tally.attempted,
            failed: warm.failed + tally.failed,
            metrics: e2e_metrics(&tally, median(&setups)),
            info: json!({"rounds": rounds, "latency": latency_info(&tally)}),
            errors: warm.errors.into_iter().chain(tally.errors).collect(),
        });
    }

    // Traced: a quarter of the rounds, every job run both untraced and
    // traced, so the overhead ratio compares the same jobs, and the traced
    // run's work is checked against what the program recorded.
    let traced_rounds = (rounds / 4).max(1);
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut traced_tally = Tally::default();
    let mut id = 0u64;
    for jobs in list.take(traced_rounds) {
        for job in &jobs {
            id += 1;
            let body = job.body(&cat);
            // Alternate which side runs first, so neither inherits the
            // other's warm caches more often.
            let untraced_first = id.is_multiple_of(2);
            let mut program = None;
            if untraced_first {
                program = timed_job(job, &body, &cancel, &mut oracle, limit, &mut tally);
            }
            let started = Instant::now();
            let out = traced_job(&mut rec, id, job, &cat, &body, &cancel, &mut counts);
            let elapsed = started.elapsed();
            if !untraced_first {
                program = timed_job(job, &body, &cancel, &mut oracle, limit, &mut tally);
            }
            // Byte-identical to the untraced document, by the same work. A
            // failed untraced run is already counted in `tally`.
            let verdict = out.and_then(|(doc, code, work)| {
                oracle.check(job, &doc, code)?;
                program.map_or(Ok(()), |p| work.matches(&p))
            });
            traced_tally.record(elapsed, verdict, limit);
        }
    }
    let totals = rec.totals();
    let trace_path = run_dir().join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
    rec.write(&trace_path)
        .map_err(|e| format!("cannot write trace: {e}"))?;

    let untraced_ms = tally.busy.as_secs_f64() * 1e3;
    let job_wall = totals.job_wall_ms;
    let synth_ms = totals.self_ms("synth.synthesize");
    let verified = counts.combinations.saturating_sub(counts.skipped);
    let mut layer = Layer::default();
    layer.set("global.dfs_ms", totals.self_ms("global.dfs"));
    layer.set("global.dfs_steps", counts.dfs_steps as f64);
    layer.set(
        "global.dfs_share",
        ratio(totals.self_ms("global.dfs"), job_wall),
    );
    layer.set("global.scan_ms", totals.self_ms("global.scan"));
    layer.set("global.scan_states", counts.scan_states as f64);
    layer.set("global.orbits", counts.orbits as f64);
    layer.set("global.instance_ms", totals.self_ms("global.instance"));
    layer.set("core.deadlock_ms", totals.self_ms("core.deadlock"));
    layer.set("core.livelock_ms", totals.self_ms("core.livelock"));
    layer.set(
        "core.certified_share",
        ratio(counts.certified_jobs as f64, counts.verify_jobs as f64),
    );
    layer.set("synth.synthesize_ms", synth_ms);
    layer.set("synth.resolve_sets", counts.resolve_sets as f64);
    layer.set("synth.combinations", counts.combinations as f64);
    layer.set("synth.verified", verified as f64);
    layer.set("synth.skipped", counts.skipped as f64);
    layer.set("synth.cones_cut", counts.cones_cut as f64);
    layer.set("synth.delta_reuses", counts.delta_reuses as f64);
    layer.set("synth.ms_per_verified", ratio(synth_ms, verified as f64));
    layer.set(
        "synth.accept_ratio",
        ratio(counts.solutions as f64, verified as f64),
    );
    layer.set("protocol.parse_ms", totals.self_ms("protocol.parse"));
    layer.set("core.spec_hash_ms", totals.self_ms("core.spec_hash"));
    layer.set("serve.validate_ms", totals.self_ms("serve.validate"));
    layer.set("serve.render_ms", totals.self_ms("serve.render"));
    layer.set("serve.render_bytes", counts.render_bytes as f64);
    layer.set("telemetry.trace_overhead", ratio(job_wall, untraced_ms));
    layer.set("telemetry.layer_coverage", totals.coverage());
    Ok(Report {
        attempted: warm.attempted + tally.attempted + traced_tally.attempted,
        failed: warm.failed + tally.failed + traced_tally.failed,
        metrics: layer.finish(),
        info: json!({
            "rounds": traced_rounds,
            "trace": trace_path.display().to_string(),
            "untraced_ms": untraced_ms,
            "traced_job_wall_ms": job_wall,
        }),
        errors: warm
            .errors
            .into_iter()
            .chain(tally.errors)
            .chain(traced_tally.errors)
            .collect(),
    })
}
