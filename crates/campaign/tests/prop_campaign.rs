//! Property tests for campaign determinism: the rendered report is a pure
//! function of the manifest — independent of worker count and of where an
//! interrupt lands in the journal.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use selfstab_campaign::{run_campaign, CampaignConfig, Manifest};

const SPECS: [&str; 10] = [
    "specs/agreement.stab",
    "specs/agreement_both.stab",
    "specs/agreement_empty.stab",
    "specs/flip_token.stab",
    "specs/matching_generalizable.stab",
    "specs/matching_non_generalizable.stab",
    "specs/mis.stab",
    "specs/sum_not_two.stab",
    "specs/sum_not_two_empty.stab",
    "specs/three_coloring.stab",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A random small campaign: a non-empty spec subset, a K-range, and a
/// state budget that sometimes pushes jobs over budget. No wall-clock
/// deadline — deadlines are the one deliberately nondeterministic budget.
fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (1u32..1023, 2usize..=4, 0usize..=2, 0usize..3).prop_map(|(mask, k_from, k_extra, budget)| {
        let specs: Vec<String> = SPECS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| format!("\"{s}\""))
            .collect();
        let max_states = [64u64, 256, 1 << 20][budget];
        let text = format!(
            r#"{{"specs": [{}], "k_from": {k_from}, "k_to": {}, "max_states": {max_states}}}"#,
            specs.join(", "),
            k_from + k_extra,
        );
        Manifest::from_json_text(&text, &repo_root()).expect("generated manifest parses")
    })
}

fn fresh_journal() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("selfstab-prop-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}.jsonl", NEXT.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interrupting a campaign after a random prefix of journal lines and
    /// resuming yields a report byte-identical to the uninterrupted run.
    #[test]
    fn resume_after_random_interrupt_is_byte_identical(
        manifest in arb_manifest(),
        cut in 0u32..1000,
    ) {
        let journal_path = fresh_journal();
        let full = run_campaign(
            &manifest,
            &CampaignConfig {
                workers: 2,
                journal_path: Some(journal_path.clone()),
                ..CampaignConfig::default()
            },
        )
        .unwrap();

        // Cut the journal at a random line boundary (plus a ragged
        // half-line beyond it, which replay must skip).
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = (cut as usize * lines.len()) / 1000;
        let mut prefix = lines[..keep].join("\n");
        prefix.push('\n');
        if let Some(cropped) = lines.get(keep).and_then(|l| l.get(..l.len() / 2)) {
            prefix.push_str(cropped);
        }
        std::fs::write(&journal_path, prefix).unwrap();

        let resumed = run_campaign(
            &manifest,
            &CampaignConfig {
                workers: 2,
                journal_path: Some(journal_path.clone()),
                resume: true,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        std::fs::remove_file(&journal_path).ok();
        prop_assert_eq!(resumed.rendered_report, full.rendered_report);
    }

    /// The rendered report does not depend on the worker count.
    #[test]
    fn report_is_worker_count_invariant(manifest in arb_manifest()) {
        let base = run_campaign(&manifest, &CampaignConfig::default()).unwrap();
        for workers in [2, 4] {
            let outcome = run_campaign(
                &manifest,
                &CampaignConfig { workers, ..CampaignConfig::default() },
            )
            .unwrap();
            prop_assert_eq!(&outcome.rendered_report, &base.rendered_report);
        }
    }

    /// The metrics document's per-job engine counters (and outcomes, and
    /// state counts) are a pure function of the manifest — identical for
    /// every worker count. Durations, attempts and scheduling stats are
    /// exempt by construction: they live in fields this projection does
    /// not read.
    #[test]
    fn metric_counters_are_scheduling_invariant(manifest in arb_manifest()) {
        let deterministic_rows = |workers: usize| {
            let metrics = run_campaign(
                &manifest,
                &CampaignConfig {
                    workers,
                    telemetry: true,
                    ..CampaignConfig::default()
                },
            )
            .unwrap()
            .metrics
            .expect("telemetry produces metrics");
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
                .collect::<Vec<String>>()
        };
        let base = deterministic_rows(1);
        prop_assert!(!base.is_empty());
        for workers in [2, 4] {
            prop_assert_eq!(
                &deterministic_rows(workers),
                &base,
                "counters diverged at workers={}",
                workers
            );
        }
    }
}
