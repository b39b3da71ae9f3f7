//! Campaign telemetry tests: metrics shape, counter determinism, panicked
//! rows carrying their phase breakdown, trace export, and the progress
//! sink.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use selfstab_campaign::{journal, run_campaign, CampaignConfig, ChaosPlan, Manifest};
use selfstab_telemetry::Progress;
use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn manifest(text: &str) -> Manifest {
    Manifest::from_json_text(text, &repo_root()).expect("test manifest parses")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("selfstab-telemetry-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

const SMALL: &str =
    r#"{"specs": ["specs/agreement.stab", "specs/agreement_both.stab"], "k_from": 2, "k_to": 4}"#;

/// The deterministic projection of one metrics job row: everything except
/// durations and attempt bookkeeping.
fn deterministic_rows(metrics: &Value) -> Vec<String> {
    metrics["jobs"]
        .as_array()
        .expect("metrics has a jobs array")
        .iter()
        .map(|row| {
            format!(
                "{}|{}|{}|{}|{}",
                row["spec"], row["k"], row["outcome"], row["states"], row["counters"]
            )
        })
        .collect()
}

#[test]
fn metrics_document_has_the_canonical_shape() {
    let m = manifest(SMALL);
    let outcome = run_campaign(
        &m,
        &CampaignConfig {
            telemetry: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert!(outcome.trace.is_none(), "no trace unless asked");
    let metrics = outcome.metrics.expect("telemetry produces metrics");

    // Campaign section.
    assert_eq!(metrics["campaign"]["jobs"], 6u64);
    assert_eq!(metrics["campaign"]["executed"], 6u64);
    assert_eq!(metrics["campaign"]["replayed"], 0u64);
    assert_eq!(metrics["campaign"]["workers"], 1u64);
    assert_eq!(metrics["campaign"]["engine_threads"], 1u64);
    assert!(metrics["campaign"]["fingerprint"].as_str().is_some());

    // Jobs: manifest order, counters present on completed checks, all six
    // phases rendered per job.
    let rows = metrics["jobs"].as_array().unwrap();
    assert_eq!(rows.len(), 6);
    for row in rows {
        assert_eq!(row["attempts"], 1u64);
        let counters = &row["counters"];
        assert_eq!(counters["states_visited"], row["states"]);
        assert!(counters["cancel_polls"].as_u64().unwrap() > 0);
        assert!(row["phases_us"]["fused_scan"].as_u64().is_some());
        assert!(row["phases_us"]["retry_backoff"].as_u64().is_some());
    }

    // Phase totals and scheduling sections exist with the right keys.
    assert!(metrics["phase_totals_us"]["parse"].as_u64().is_some());
    assert!(metrics["phase_totals_us"]["livelock_dfs"]
        .as_u64()
        .is_some());
    let scheduling = &metrics["scheduling"];
    assert_eq!(
        scheduling["counters"]["pool/steals"], 0u64,
        "one worker never steals"
    );
    assert!(
        scheduling["counters"]["engine/closure_checks"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert_eq!(
        scheduling["histograms"]["job/states"]["count"], 6u64,
        "every completed check samples the state histogram"
    );
    assert_eq!(scheduling["histograms"]["pool/queue_depth"]["count"], 6u64);
}

#[test]
fn metric_counters_are_invariant_across_workers_and_engine_threads() {
    let m = manifest(SMALL);
    let run = |workers: usize, engine_threads: Option<usize>| {
        run_campaign(
            &m,
            &CampaignConfig {
                workers,
                engine_threads,
                telemetry: true,
                ..CampaignConfig::default()
            },
        )
        .unwrap()
        .metrics
        .expect("telemetry produces metrics")
    };
    let base = deterministic_rows(&run(1, None));
    for (workers, threads) in [(2, None), (4, None), (1, Some(3)), (3, Some(2))] {
        assert_eq!(
            deterministic_rows(&run(workers, threads)),
            base,
            "counters diverged at workers={workers} threads={threads:?}"
        );
    }
}

#[test]
fn panicked_rows_carry_their_phase_breakdown() {
    let m = manifest(r#"{"specs": ["specs/agreement.stab"], "k_from": 2, "k_to": 3}"#);
    let journal_path = tmp("panicked-phases.jsonl");
    let outcome = run_campaign(
        &m,
        &CampaignConfig {
            retries: 2,
            backoff: Duration::from_millis(1),
            journal_path: Some(journal_path.clone()),
            chaos: Some(ChaosPlan::always_panic()),
            telemetry: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.panics_caught, 6, "2 jobs x 3 attempts");
    let metrics = outcome.metrics.expect("telemetry produces metrics");
    let rows = metrics["jobs"].as_array().unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert_eq!(row["outcome"], "failed");
        assert_eq!(row["attempts"], 3u64);
        assert!(row["counters"].is_null(), "no completed check, no counters");
        // The phases burned up to the panic point survive: the retry
        // backoff slept twice and every started/panic event was journaled.
        assert!(
            row["phases_us"]["retry_backoff"].as_u64().unwrap() > 0,
            "retry backoff time recorded: {row}"
        );
        assert!(
            row["phases_us"]["journal_append"].as_u64().is_some(),
            "journal append phase rendered: {row}"
        );
    }
    assert_eq!(metrics["scheduling"]["counters"]["campaign/panics"], 6u64);
    assert_eq!(metrics["scheduling"]["counters"]["campaign/retries"], 4u64);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn trace_export_is_a_loadable_chrome_trace() {
    let m = manifest(SMALL);
    let outcome = run_campaign(
        &m,
        &CampaignConfig {
            workers: 2,
            trace: true,
            // One injected panic, retried, puts a `job_panicked` instant
            // beside the complete events.
            chaos: Some(ChaosPlan::with_budgets(2, 1, 0, 0)),
            retries: 1,
            backoff: Duration::from_millis(1),
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.panics_caught, 1);
    // `trace` implies metrics collection.
    assert!(outcome.metrics.is_some());
    let trace = outcome.trace.expect("trace requested");
    assert_eq!(trace["displayTimeUnit"], "ms");
    let events = trace["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty());
    let mut fused = 0;
    let mut panicked = 0;
    for e in events {
        assert!(e["name"].as_str().is_some());
        assert!(e["ts"].as_u64().is_some());
        assert_eq!(e["pid"], 1u64);
        assert!(e["tid"].as_u64().is_some());
        // The exact key set serve's job lanes share.
        let keys = match e["ph"].as_str().unwrap() {
            "X" => {
                assert!(e["dur"].as_u64().is_some());
                "args,cat,dur,name,ph,pid,tid,ts"
            }
            "i" => {
                assert_eq!(e["s"], "t");
                "args,cat,name,ph,pid,s,tid,ts"
            }
            ph => panic!("unexpected phase type {ph}"),
        };
        let Value::Object(map) = e else {
            panic!("event {e} is an object");
        };
        let key_set: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(key_set.join(","), keys, "{e}");
        panicked += usize::from(e["name"] == "job_panicked");
        if e["name"] == "fused_scan" {
            fused += 1;
            assert!(e["args"]["spec"].as_str().is_some());
            assert!(e["args"]["k"].as_u64().is_some());
        }
    }
    assert_eq!(fused, 6, "one fused_scan span per job");
    assert_eq!(panicked, 1, "one instant per caught panic");
}

#[test]
fn journal_finished_events_carry_phases_and_still_replay() {
    let m = manifest(SMALL);
    let journal_path = tmp("phases-journal.jsonl");
    run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path.clone()),
            telemetry: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    let text = std::fs::read_to_string(&journal_path).unwrap();
    assert!(
        text.contains("\"phases_us\":{"),
        "finished events carry the per-job phase breakdown"
    );
    // Replay treats the phase breakdown as telemetry: all six jobs resume
    // as completed, so a resumed campaign re-executes nothing.
    let replayed = journal::replay(&journal_path).unwrap();
    assert_eq!(replayed.completed.len(), 6);
    let resumed = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path.clone()),
            resume: true,
            telemetry: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, 0);
    let metrics = resumed.metrics.expect("telemetry produces metrics");
    assert_eq!(metrics["campaign"]["replayed"], 6u64);
    assert_eq!(metrics["jobs"].as_array().unwrap().len(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn progress_sink_sees_every_executed_job() {
    let m = manifest(SMALL);
    let progress = Arc::new(Progress::new());
    run_campaign(
        &m,
        &CampaignConfig {
            workers: 2,
            progress: Some(Arc::clone(&progress)),
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    let (total, done, failed) = progress.counts();
    assert_eq!(total, 6);
    assert_eq!(done, 6);
    // agreement_both livelocks at every K here, so some jobs fail.
    assert!(failed > 0 && failed < 6, "failed={failed}");
}
