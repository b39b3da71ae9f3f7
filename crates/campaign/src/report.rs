//! The canonical campaign report.
//!
//! The report is a pure function of the manifest and the per-job results:
//! jobs appear in manifest order, objects render with sorted keys, and no
//! wall-clock measurement is part of the body — so the rendered document
//! is byte-identical for every worker count and every interrupt/resume
//! split of the same campaign.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::job::{JobResult, LocalVerdict, Outcome};
use crate::manifest::Manifest;

/// Builds the canonical report document.
pub fn build(
    manifest: &Manifest,
    fingerprint: &str,
    results: &[JobResult],
    locals: &BTreeMap<String, LocalVerdict>,
) -> Value {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut states_swept: u64 = 0;
    let mut cross: BTreeMap<&'static str, BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut disagreements: Vec<Value> = Vec::new();

    for r in results {
        *totals.entry(r.outcome.tag()).or_default() += 1;
        states_swept += r.states;
        let local = locals.get(&r.spec).unwrap_or(&LocalVerdict::Error);
        let row = match local {
            LocalVerdict::Proven => "local_proven",
            LocalVerdict::Unproven => "local_unproven",
            LocalVerdict::Error => "local_error",
        };
        *cross
            .entry(row)
            .or_default()
            .entry(r.outcome.tag())
            .or_default() += 1;
        // The soundness heart of the matter: the paper's local method is
        // sufficient, so a locally-proven spec must never fail globally.
        if *local == LocalVerdict::Proven && matches!(r.outcome, Outcome::Failed { .. }) {
            disagreements.push(json!({"spec": r.spec.as_str(), "k": r.k}));
        }
    }

    let totals_value = Value::Object(
        ["verified", "failed", "over_budget", "error"]
            .iter()
            .map(|tag| {
                (
                    (*tag).to_owned(),
                    json!(totals.get(tag).copied().unwrap_or(0)),
                )
            })
            .collect(),
    );
    let cross_value = Value::Object(
        ["local_proven", "local_unproven", "local_error"]
            .iter()
            .map(|row| {
                let cells = cross.get(row).cloned().unwrap_or_default();
                let row_value = Value::Object(
                    ["verified", "failed", "over_budget", "error"]
                        .iter()
                        .map(|tag| {
                            (
                                (*tag).to_owned(),
                                json!(cells.get(tag).copied().unwrap_or(0)),
                            )
                        })
                        .collect(),
                );
                ((*row).to_owned(), row_value)
            })
            .collect(),
    );
    let local_verdicts = Value::Object(
        manifest
            .specs
            .iter()
            .map(|spec| {
                let verdict = locals.get(spec).unwrap_or(&LocalVerdict::Error);
                (spec.clone(), json!(verdict.tag()))
            })
            .collect(),
    );

    json!({
        "campaign": {
            "fingerprint": fingerprint,
            "specs": manifest.specs.iter().map(String::as_str).collect::<Vec<_>>(),
            "k_from": manifest.k_from,
            "k_to": manifest.k_to,
            "max_states": manifest.max_states,
            "timeout_ms": manifest.timeout_ms,
            "job_count": results.len(),
        },
        "jobs": Value::Array(results.iter().map(JobResult::report_row).collect::<Vec<_>>()),
        "totals": totals_value,
        "states_swept": states_swept,
        "soundness": {
            "local_verdicts": local_verdicts,
            "cross_tab": cross_value,
            "disagreements": Value::Array(disagreements),
        },
    })
}

/// Renders a report canonically: pretty JSON, sorted keys (guaranteed by
/// the [`Value`] object representation), one trailing newline.
pub fn render(report: &Value) -> String {
    let mut text = serde_json::to_string_pretty(report).expect("report rendering is infallible");
    text.push('\n');
    text
}

/// `true` iff the campaign is clean for CI gating: no job failed
/// verification, no job errored, and no soundness disagreement was found.
/// Over-budget jobs do not taint the verdict — they are inconclusive, not
/// failures.
pub fn is_clean(report: &Value) -> bool {
    report["totals"]["failed"] == 0u64
        && report["totals"]["error"] == 0u64
        && report["soundness"]["disagreements"]
            .as_array()
            .is_some_and(Vec::is_empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn manifest() -> Manifest {
        Manifest {
            base_dir: Path::new(".").to_path_buf(),
            specs: vec!["a.stab".into(), "b.stab".into()],
            k_from: 2,
            k_to: 3,
            max_states: 1024,
            timeout_ms: None,
            engine_threads: 1,
            symmetry: selfstab_global::SymmetryMode::Auto,
        }
    }

    fn results() -> Vec<JobResult> {
        vec![
            JobResult {
                spec: "a.stab".into(),
                k: 2,
                outcome: Outcome::Verified,
                states: 4,
                legit: 2,
            },
            JobResult {
                spec: "a.stab".into(),
                k: 3,
                outcome: Outcome::Failed {
                    closure_ok: true,
                    deadlocks: 0,
                    livelock_len: Some(6),
                },
                states: 8,
                legit: 2,
            },
            JobResult {
                spec: "b.stab".into(),
                k: 2,
                outcome: Outcome::OverBudget {
                    reason: "states".into(),
                },
                states: 0,
                legit: 0,
            },
            JobResult {
                spec: "b.stab".into(),
                k: 3,
                outcome: Outcome::Verified,
                states: 8,
                legit: 3,
            },
        ]
    }

    #[test]
    fn report_counts_and_cross_tab() {
        let m = manifest();
        let locals = BTreeMap::from([
            ("a.stab".to_string(), LocalVerdict::Proven),
            ("b.stab".to_string(), LocalVerdict::Unproven),
        ]);
        let report = build(&m, "fp", &results(), &locals);
        assert_eq!(report["totals"]["verified"], 2u64);
        assert_eq!(report["totals"]["failed"], 1u64);
        assert_eq!(report["totals"]["over_budget"], 1u64);
        assert_eq!(report["states_swept"], 20u64);
        assert_eq!(
            report["soundness"]["cross_tab"]["local_proven"]["failed"],
            1u64
        );
        assert_eq!(
            report["soundness"]["cross_tab"]["local_unproven"]["over_budget"],
            1u64
        );
        // a.stab is locally proven but fails at K=3: a disagreement.
        let dis = report["soundness"]["disagreements"].as_array().unwrap();
        assert_eq!(dis.len(), 1);
        assert_eq!(dis[0]["spec"], "a.stab");
        assert_eq!(dis[0]["k"], 3u64);
        assert!(!is_clean(&report));
    }

    #[test]
    fn rendering_is_stable() {
        let m = manifest();
        let locals = BTreeMap::from([
            ("a.stab".to_string(), LocalVerdict::Unproven),
            ("b.stab".to_string(), LocalVerdict::Unproven),
        ]);
        let report = build(&m, "fp", &results(), &locals);
        let a = render(&report);
        let b = render(&build(&m, "fp", &results(), &locals));
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        // No wall-clock fields anywhere in the body.
        assert!(!a.contains("duration"));
        assert!(!a.contains("elapsed"));
    }

    #[test]
    fn panicked_jobs_fail_the_sweep_but_are_not_disagreements() {
        // A panicked-out job on a locally-proven spec: the sweep is dirty
        // (exit 2), but a toolchain crash is no *verification* refutation,
        // so the soundness section must stay empty.
        let m = manifest();
        let locals = BTreeMap::from([
            ("a.stab".to_string(), LocalVerdict::Proven),
            ("b.stab".to_string(), LocalVerdict::Proven),
        ]);
        let rs = vec![
            JobResult {
                spec: "a.stab".into(),
                k: 2,
                outcome: Outcome::Verified,
                states: 4,
                legit: 2,
            },
            JobResult {
                spec: "a.stab".into(),
                k: 3,
                outcome: Outcome::Panicked {
                    attempts: 3,
                    message: "chaos: injected worker panic (attempt 2)".into(),
                },
                states: 0,
                legit: 0,
            },
        ];
        let report = build(&m, "fp", &rs, &locals);
        assert_eq!(report["totals"]["failed"], 1u64);
        assert!(!is_clean(&report));
        assert_eq!(
            report["soundness"]["disagreements"]
                .as_array()
                .unwrap()
                .len(),
            0,
            "a panic is not a soundness disagreement"
        );
        assert_eq!(
            report["soundness"]["cross_tab"]["local_proven"]["failed"],
            1u64
        );
        // The row carries the panic detail for diagnosis.
        let row = &report["jobs"][1];
        assert_eq!(row["outcome"], "failed");
        assert_eq!(row["attempts"], 3u64);
        assert!(row["panic"].as_str().unwrap().contains("chaos"));
    }

    #[test]
    fn clean_report_is_clean() {
        let m = manifest();
        let locals = BTreeMap::from([
            ("a.stab".to_string(), LocalVerdict::Proven),
            ("b.stab".to_string(), LocalVerdict::Proven),
        ]);
        let ok: Vec<JobResult> = results()
            .into_iter()
            .map(|mut r| {
                r.outcome = Outcome::Verified;
                r
            })
            .collect();
        let report = build(&m, "fp", &ok, &locals);
        assert!(is_clean(&report));
    }
}
