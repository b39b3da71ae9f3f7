//! `selfstab sweep <manifest.json> [--jobs J] [--threads T]
//! [--symmetry MODE] [--resume] [--journal FILE] [--retries N]
//! [--backoff-ms MS] [--fsync always|batch] [--metrics FILE]
//! [--trace FILE] [-o report.json] [--json] [--verbose|--quiet]` —
//! batch verification of a whole spec corpus.
//!
//! The manifest names the specs (paths or `*` globs), the `K` range, and
//! the per-job budgets; the campaign runs the full spec × K matrix on a
//! work-stealing pool of `--jobs` workers, journaling every event to a
//! CRC-framed JSONL file that doubles as the checkpoint for `--resume`.
//! The report is canonical JSON — byte-identical for every worker count,
//! symmetry mode, resume split and retry budget — so it can be diffed,
//! archived, and gated on in CI. `--symmetry auto|full` overrides the
//! manifest's rotation-symmetry reduction policy for every job. Each job
//! runs on its worker's thread; `--threads T` still parses and has no
//! effect.
//!
//! Observability: `--metrics FILE` writes a metrics document (per-job
//! engine counters and phase breakdowns, campaign phase totals, pool
//! scheduling stats — see `selfstab stats`); `--trace FILE` writes a
//! Chrome trace-event file loadable in Perfetto / `chrome://tracing`;
//! `--registry FILE` appends one canonical row per job to the persistent
//! results registry (see `selfstab registry`) after a non-interrupted
//! run — deterministic KPIs (outcome, states, legit) keyed by spec hash
//! × K × knobs, volatile context isolated in `meta`.
//! Neither flag perturbs stdout: the `--json` report stays byte-identical
//! with or without them. When stderr is a terminal, a single-line live
//! meter shows jobs done/failed and an ETA.
//!
//! Resilience: a panicking job is isolated and retried `--retries` times
//! with exponential backoff (base `--backoff-ms`) before degrading to a
//! failed outcome; `--fsync always` makes every journal record durable the
//! moment it is written (batched fsync is the default). A SIGINT syncs the
//! journal, prints a resume hint, and exits 130 — `--resume` then loses no
//! completed job. The hidden `--chaos SEED` flag runs the sweep under the
//! deterministic fault-injection harness (see `selfstab_campaign::chaos`).
//!
//! Exit code 0 means every job verified; 2 means some job failed, errored,
//! panicked out of its retry budget, or contradicted its local proof
//! (over-budget jobs are inconclusive and do not fail the sweep).

use std::io::IsTerminal;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use selfstab_campaign::{
    report, run_campaign, CampaignConfig, CampaignOutcome, ChaosPlan, FsyncPolicy, Manifest,
};
use selfstab_core::registry_row::{append_row, RegistryRow};
use selfstab_telemetry::{logger, Progress};
use serde_json::{json, Value};

use crate::args::Args;
use crate::signal;

/// How often the live meter repaints. Slow enough to cost nothing, fast
/// enough that the ETA feels alive.
const METER_PERIOD: Duration = Duration::from_millis(200);

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw)?;
    logger::set_level_from_flags(args.flag("verbose"), args.flag("quiet"), args.flag("json"));
    let manifest_path: &Path = args
        .file()
        .map_err(|_| "missing <manifest.json> argument")?
        .as_ref();
    let manifest = Manifest::from_file(manifest_path)?;

    args.get_usize("threads", 1)?;
    let symmetry = match args.get("symmetry") {
        None => None,
        Some(mode) => Some(mode.parse::<selfstab_global::SymmetryMode>()?),
    };
    let journal_path: PathBuf = match args.get("journal") {
        Some(path) => path.into(),
        None => manifest_path.with_extension("journal.jsonl"),
    };
    let fsync = match args.get("fsync") {
        None => FsyncPolicy::default(),
        Some("always") => FsyncPolicy::Always,
        Some("batch") => FsyncPolicy::Batch,
        Some(other) => {
            return Err(format!("option --fsync expects `always` or `batch`, got `{other}`").into())
        }
    };
    let chaos = match args.get("chaos") {
        None => None,
        Some(_) => Some(ChaosPlan::from_seed(args.get_u64("chaos", 0)?)),
    };
    let metrics_path = args.get("metrics").map(PathBuf::from);
    let trace_path = args.get("trace").map(PathBuf::from);
    let progress = Arc::new(Progress::new());
    let config = CampaignConfig {
        workers: args.get_usize("jobs", 1)?,
        symmetry,
        journal_path: Some(journal_path.clone()),
        resume: args.flag("resume"),
        retries: args.get_usize("retries", 0)? as u32,
        backoff: Duration::from_millis(args.get_u64("backoff-ms", 100)?),
        fsync,
        interrupt: Some(signal::interrupt_token()),
        chaos,
        telemetry: metrics_path.is_some(),
        trace: trace_path.is_some(),
        progress: Some(Arc::clone(&progress)),
    };

    // Live meter: only when a human is plausibly watching — stderr is a
    // terminal and neither `--quiet` nor `--json` lowered the level.
    // Everything it paints stays on one line and is erased before any
    // final output, so it never contaminates captured stderr.
    let meter =
        (std::io::stderr().is_terminal() && logger::level() >= logger::Level::Info).then(|| {
            let progress = Arc::clone(&progress);
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    eprint!("\r\x1b[K{}", progress.render());
                    std::thread::sleep(METER_PERIOD);
                }
                eprint!("\r\x1b[K");
            });
            (stop, handle)
        });
    let outcome = run_campaign(&manifest, &config);
    if let Some((stop, handle)) = meter {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }
    let outcome = outcome?;

    if outcome.interrupted {
        // The journal is synced; nothing completed is lost. Skip the
        // report (it is partial and must not overwrite a published one)
        // and exit with the conventional SIGINT code.
        logger::warn(format!(
            "interrupted: {} job(s) completed and journaled to {}; \
             rerun with --resume to continue",
            outcome.results.len(),
            journal_path.display()
        ));
        std::process::exit(signal::EXIT_SIGINT as i32);
    }
    if let Some(path) = args.get("registry") {
        append_registry_rows(path.as_ref(), &manifest, symmetry, &outcome)?;
    }
    if let Some(path) = &metrics_path {
        write_json_doc(path, outcome.metrics.as_ref().expect("telemetry was on"))?;
    }
    if let Some(path) = &trace_path {
        write_json_doc(path, outcome.trace.as_ref().expect("tracing was on"))?;
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, &outcome.rendered_report)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        logger::info(format!("wrote {path}"));
    }
    if args.flag("json") {
        print!("{}", outcome.rendered_report);
        return Ok(report::is_clean(&outcome.report));
    }

    let r = &outcome.report;
    println!(
        "campaign {}: {} spec(s) × K={}..={} = {} job(s)",
        r["campaign"]["fingerprint"].as_str().unwrap_or("?"),
        manifest.specs.len(),
        manifest.k_from,
        manifest.k_to,
        r["campaign"]["job_count"]
    );
    println!(
        "  executed {} job(s) this run ({} replayed from {}), {:.2}s wall clock",
        outcome.executed,
        outcome.results.len() - outcome.executed,
        journal_path.display(),
        outcome.elapsed.as_secs_f64()
    );
    println!(
        "  verified {}  failed {}  over budget {}  errors {}  ({} states swept)",
        r["totals"]["verified"],
        r["totals"]["failed"],
        r["totals"]["over_budget"],
        r["totals"]["error"],
        r["states_swept"]
    );
    if outcome.panics_caught > 0 {
        logger::info(format!(
            "  caught {} worker panic(s); see job_panicked events in {}",
            outcome.panics_caught,
            journal_path.display()
        ));
    }
    for row in r["jobs"].as_array().into_iter().flatten() {
        if row["outcome"] == "verified" {
            continue;
        }
        let detail = match row["outcome"].as_str() {
            Some("over_budget") => format!("budget: {}", row["reason"].as_str().unwrap_or("?")),
            Some("error") => row["message"].as_str().unwrap_or("?").to_owned(),
            _ if row["panic"].as_str().is_some() => format!(
                "panicked on all {} attempt(s): {}",
                row["attempts"],
                row["panic"].as_str().unwrap_or("?")
            ),
            _ => format!(
                "deadlocks¬I {}, livelock {}, closure {}",
                row["deadlocks"],
                !row["livelock_len"].is_null(),
                row["closure_ok"]
            ),
        };
        println!(
            "  {} K={}: {} ({detail})",
            row["spec"].as_str().unwrap_or("?"),
            row["k"],
            row["outcome"].as_str().unwrap_or("?")
        );
    }
    let disagreements = r["soundness"]["disagreements"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    if disagreements.is_empty() {
        println!("  soundness: local verdicts and global outcomes agree on every job");
    } else {
        for d in disagreements {
            logger::warn(format!(
                "  SOUNDNESS VIOLATION: {} proven locally but fails globally at K={} — please report this",
                d["spec"].as_str().unwrap_or("?"),
                d["k"]
            ));
        }
    }
    Ok(report::is_clean(r))
}

/// Appends one registry row per job of a completed (non-interrupted)
/// sweep to the persistent results registry at `path` — source `sweep`,
/// joined on spec hash × K × knobs by `selfstab registry diff`. KPIs are
/// the deterministic per-job outcomes from the canonical report (states
/// visited, legitimate-state count, outcome); the campaign fingerprint
/// and wall clock land in volatile `meta`.
fn append_registry_rows(
    path: &Path,
    manifest: &Manifest,
    symmetry_override: Option<selfstab_global::SymmetryMode>,
    outcome: &CampaignOutcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let r = &outcome.report;
    let effective = symmetry_override.unwrap_or(manifest.symmetry);
    let symmetry = format!("{effective:?}").to_lowercase();
    let fingerprint = r["campaign"]["fingerprint"].as_str().unwrap_or("?");
    let wall_us = outcome.elapsed.as_micros() as u64;
    let mut appended = 0usize;
    for row in r["jobs"].as_array().into_iter().flatten() {
        let mut kpis = json!({
            "outcome": row["outcome"].clone(),
            "states": row["states"].clone(),
            "legit": row["legit"].clone(),
        });
        if let Value::Object(map) = &mut kpis {
            map.retain(|_, v| !v.is_null());
        }
        let mut meta = RegistryRow::meta_now(wall_us);
        if let Value::Object(map) = &mut meta {
            map.insert(
                "fingerprint".to_owned(),
                Value::String(fingerprint.to_owned()),
            );
        }
        let registry_row = RegistryRow {
            source: "sweep".to_owned(),
            spec: row["spec"].as_str().unwrap_or("?").to_owned(),
            kind: "check".to_owned(),
            k: format!("{}..{}", row["k"], row["k"]),
            knobs: json!({"max_states": manifest.max_states, "symmetry": symmetry.clone()}),
            kpis,
            meta,
        };
        append_row(path, &registry_row)
            .map_err(|e| format!("cannot append to `{}`: {e}", path.display()))?;
        appended += 1;
    }
    logger::info(format!(
        "appended {appended} registry row(s) to {}",
        path.display()
    ));
    Ok(())
}

/// Writes one telemetry document as pretty JSON with a trailing newline.
fn write_json_doc(path: &Path, doc: &Value) -> Result<(), Box<dyn std::error::Error>> {
    let mut text = serde_json::to_string_pretty(doc)?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    logger::info(format!("wrote {}", path.display()));
    Ok(())
}
