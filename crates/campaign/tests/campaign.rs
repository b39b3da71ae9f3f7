//! End-to-end campaign tests over the real `specs/` corpus.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use selfstab_campaign::{
    journal, report, run_campaign, CampaignConfig, ChaosPlan, Manifest, Outcome,
};
use selfstab_global::CancelToken;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn manifest(text: &str) -> Manifest {
    Manifest::from_json_text(text, &repo_root()).expect("test manifest parses")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("selfstab-campaign-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

const CORPUS: &str = r#"{"specs": ["specs/*.stab"], "k_from": 2, "k_to": 5}"#;

#[test]
fn corpus_campaign_covers_the_whole_matrix() {
    let m = manifest(CORPUS);
    let outcome = run_campaign(&m, &CampaignConfig::default()).unwrap();
    assert_eq!(outcome.results.len(), m.specs.len() * 4);
    assert_eq!(outcome.executed, outcome.results.len());
    // The corpus contains both stabilizing and failing protocols.
    assert!(outcome.report["totals"]["verified"].as_u64().unwrap() > 0);
    assert!(outcome.report["totals"]["failed"].as_u64().unwrap() > 0);
    assert_eq!(outcome.report["totals"]["error"], 0u64);
    // Local soundness: no locally-proven spec may fail globally.
    assert_eq!(
        outcome.report["soundness"]["disagreements"]
            .as_array()
            .unwrap()
            .len(),
        0
    );
    // Results arrive in manifest order: specs sorted, K ascending.
    let jobs = outcome.report["jobs"].as_array().unwrap();
    let cells: Vec<(String, u64)> = jobs
        .iter()
        .map(|j| {
            (
                j["spec"].as_str().unwrap().to_owned(),
                j["k"].as_u64().unwrap(),
            )
        })
        .collect();
    let mut expected = Vec::new();
    for spec in &m.specs {
        for k in 2..=5u64 {
            expected.push((spec.clone(), k));
        }
    }
    assert_eq!(cells, expected);
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let m = manifest(CORPUS);
    let base = run_campaign(&m, &CampaignConfig::default()).unwrap();
    for workers in [2, 4] {
        let config = CampaignConfig {
            workers,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(&m, &config).unwrap();
        assert_eq!(
            outcome.rendered_report, base.rendered_report,
            "report diverged at {workers} workers"
        );
    }
}

#[test]
fn over_budget_jobs_degrade_without_aborting() {
    // 3^5 = 243 > 128, so the d=3 specs blow the budget at K=5 while the
    // d=2 specs (2^5 = 32) still verify.
    let m = manifest(r#"{"specs": ["specs/*.stab"], "k_from": 5, "k_to": 5, "max_states": 128}"#);
    let outcome = run_campaign(&m, &CampaignConfig::default()).unwrap();
    let over: Vec<&str> = outcome
        .results
        .iter()
        .filter(|r| matches!(&r.outcome, Outcome::OverBudget { reason } if reason == "states"))
        .map(|r| r.spec.as_str())
        .collect();
    assert!(
        over.contains(&"specs/sum_not_two.stab"),
        "expected the ternary specs over budget, got {over:?}"
    );
    assert!(outcome.report["totals"]["verified"].as_u64().unwrap() > 0);
    assert_eq!(
        outcome.report["totals"]["over_budget"].as_u64().unwrap() as usize,
        over.len()
    );
    // Over-budget rows report zero swept states.
    for r in &outcome.results {
        if matches!(r.outcome, Outcome::OverBudget { .. }) {
            assert_eq!((r.states, r.legit), (0, 0));
        }
    }
}

#[test]
fn journal_resume_reexecutes_only_the_remainder() {
    let m = manifest(CORPUS);
    let journal_path = tmp("resume.jsonl");

    // Uninterrupted baseline.
    let full = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path.clone()),
            ..CampaignConfig::default()
        },
    )
    .unwrap();

    // Simulate an interrupt: keep only a prefix of the journal.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines.len() / 3;
    std::fs::write(&journal_path, format!("{}\n", lines[..keep].join("\n"))).unwrap();
    let replayed = journal::replay(&journal_path).unwrap();
    let done = replayed.completed.len();
    assert!(done < full.results.len(), "prefix must leave work to do");

    let resumed = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path.clone()),
            resume: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.executed, full.results.len() - done);
    assert_eq!(resumed.rendered_report, full.rendered_report);

    // Resuming a *complete* journal executes nothing and still reproduces
    // the identical report.
    let idle = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path),
            resume: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(idle.executed, 0);
    assert_eq!(idle.rendered_report, full.rendered_report);
}

#[test]
fn resume_refuses_a_foreign_journal() {
    let m = manifest(CORPUS);
    let journal_path = tmp("foreign.jsonl");
    std::fs::write(
        &journal_path,
        journal::frame(&journal::campaign_event("0000000000000000", 1)),
    )
    .unwrap();
    let err = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path),
            resume: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("different campaign"), "{err}");
}

#[test]
fn unreadable_spec_becomes_an_error_outcome() {
    let dir = tmp("missing-spec-dir");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("broken.stab"),
        "protocol broken\nnot a declaration\n",
    )
    .unwrap();
    let m = Manifest::from_json_text(
        r#"{"specs": ["broken.stab", "missing.stab"], "k_from": 2, "k_to": 3}"#,
        &dir,
    )
    .unwrap();
    let outcome = run_campaign(&m, &CampaignConfig::default()).unwrap();
    assert_eq!(outcome.results.len(), 4);
    assert!(outcome
        .results
        .iter()
        .all(|r| matches!(r.outcome, Outcome::Error { .. })));
    assert_eq!(outcome.report["totals"]["error"], 4u64);
    assert!(!report::is_clean(&outcome.report));
    assert_eq!(
        outcome.report["soundness"]["local_verdicts"]["broken.stab"],
        "error"
    );
}

#[test]
fn always_panicking_job_fails_after_retries_instead_of_aborting() {
    // The acceptance adversary: every attempt of every job panics. The
    // sweep must complete (no pool abort), mark each job failed with
    // `retries + 1` attempts, and journal only telemetry — never a
    // `finished` event — so a later resume retries from scratch.
    let m = manifest(r#"{"specs": ["specs/agreement.stab"], "k_from": 2, "k_to": 4}"#);
    let journal_path = tmp("always-panic.jsonl");
    let retries = 2u32;
    let outcome = run_campaign(
        &m,
        &CampaignConfig {
            workers: 2,
            journal_path: Some(journal_path.clone()),
            retries,
            backoff: Duration::ZERO,
            chaos: Some(ChaosPlan::always_panic()),
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.results.len(), 3);
    for r in &outcome.results {
        assert!(
            matches!(
                &r.outcome,
                Outcome::Panicked { attempts, message }
                    if *attempts == (retries as u64 + 1) && message.contains("chaos")
            ),
            "got {:?}",
            r.outcome
        );
    }
    assert_eq!(
        outcome.report["totals"]["failed"].as_u64().unwrap(),
        3,
        "panicked jobs count as failed so the sweep exits 2"
    );
    assert!(!report::is_clean(&outcome.report));
    assert_eq!(outcome.panics_caught, 3 * (retries as u64 + 1));
    // Panicked jobs are a toolchain fault, not a verdict: they never count
    // as soundness disagreements.
    assert_eq!(
        outcome.report["soundness"]["disagreements"]
            .as_array()
            .unwrap()
            .len(),
        0
    );

    let replayed = journal::replay(&journal_path).unwrap();
    assert_eq!(
        replayed.completed.len(),
        0,
        "no finished events for panicked-out jobs"
    );
    assert_eq!(
        replayed.panics.values().sum::<u64>(),
        3 * (retries as u64 + 1)
    );

    // A resume without the chaos plan re-runs everything and converges to
    // the fault-free report.
    let reference = run_campaign(&m, &CampaignConfig::default()).unwrap();
    let healed = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path),
            resume: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert_eq!(healed.executed, 3);
    assert_eq!(healed.rendered_report, reference.rendered_report);
}

#[test]
fn a_fired_interrupt_token_stops_the_sweep_resumably() {
    let m = manifest(CORPUS);
    let journal_path = tmp("interrupted.jsonl");
    let token = Arc::new(CancelToken::new());
    token.cancel(); // SIGINT before the first job
    let outcome = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path.clone()),
            interrupt: Some(token),
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert!(outcome.interrupted);
    assert_eq!(outcome.executed, 0);
    assert!(outcome.results.is_empty());

    // The journal is valid and resumable: a fresh run completes the matrix
    // and matches the never-interrupted reference byte for byte.
    let reference = run_campaign(&m, &CampaignConfig::default()).unwrap();
    let resumed = run_campaign(
        &m,
        &CampaignConfig {
            journal_path: Some(journal_path),
            resume: true,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.rendered_report, reference.rendered_report);
}

#[test]
fn deadline_degrades_to_over_budget() {
    // A zero-millisecond deadline fires before any scan completes, so
    // every job that actually runs degrades to OverBudget("deadline").
    let m = manifest(
        r#"{"specs": ["specs/sum_not_two.stab"], "k_from": 8, "k_to": 8, "timeout_ms": 0}"#,
    );
    let outcome = run_campaign(&m, &CampaignConfig::default()).unwrap();
    assert_eq!(outcome.results.len(), 1);
    assert!(
        matches!(&outcome.results[0].outcome, Outcome::OverBudget { reason } if reason == "deadline"),
        "got {:?}",
        outcome.results[0].outcome
    );
}
