//! The chaos property: **interrupt anywhere, resume, converge**.
//!
//! A campaign is driven through rounds of seeded fault injection — worker
//! panics inside the `catch_unwind` net, forced cancellations through the
//! interrupt token, and torn-write truncation of the journal between
//! rounds — and then allowed to finish fault-free. The final rendered
//! report must be **byte-identical** to the report of a run that never saw
//! a fault. This is the toolchain-level mirror of the paper's convergence
//! property: from any reachable (faulty) configuration, the system returns
//! to the legitimate set and stays there.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use selfstab_campaign::{run_campaign, CampaignConfig, ChaosPlan, Manifest};
use selfstab_global::{CancelToken, SymmetryMode};

const SPECS: [&str; 6] = [
    "specs/agreement.stab",
    "specs/agreement_both.stab",
    "specs/flip_token.stab",
    "specs/mis.stab",
    "specs/sum_not_two.stab",
    "specs/three_coloring.stab",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A random small campaign over a non-empty spec subset (no wall-clock
/// deadline: the chaos suite pins byte-level determinism).
fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (1u32..63, 2usize..=3, 0usize..=1).prop_map(|(mask, k_from, k_extra)| {
        let specs: Vec<String> = SPECS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| format!("\"{s}\""))
            .collect();
        let text = format!(
            r#"{{"specs": [{}], "k_from": {k_from}, "k_to": {}, "max_states": 4096}}"#,
            specs.join(", "),
            k_from + k_extra,
        );
        Manifest::from_json_text(&text, &repo_root()).expect("generated manifest parses")
    })
}

fn fresh_journal() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("selfstab-chaos-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}.jsonl", NEXT.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos rounds (injected panics, forced cancels, torn journal tails)
    /// followed by fault-free rounds always converge to the byte-identical
    /// fault-free report.
    #[test]
    fn chaotic_runs_converge_to_the_fault_free_report(
        manifest in arb_manifest(),
        seed in 0u64..1_000_000,
    ) {
        // The fault-free reference, computed without any journal.
        let reference = run_campaign(&manifest, &CampaignConfig::default()).unwrap();

        let journal_path = fresh_journal();
        let mut final_report = None;
        // Bounded by construction: each plan injects finitely many faults,
        // and from round 3 on no new faults are injected, so the first
        // uninterrupted run completes the whole matrix.
        for round in 0u64..16 {
            let chaotic = round < 3;
            let outcome = run_campaign(
                &manifest,
                &CampaignConfig {
                    workers: 2,
                    journal_path: Some(journal_path.clone()),
                    resume: round > 0,
                    retries: 1,
                    backoff: Duration::ZERO,
                    interrupt: Some(Arc::new(CancelToken::new())),
                    chaos: chaotic.then(|| ChaosPlan::from_seed(seed.wrapping_add(round))),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
            if chaotic {
                // Torn-write injection between rounds: chop the journal at
                // a seeded byte offset. Replay must absorb the torn tail.
                ChaosPlan::truncate_journal(&journal_path, seed ^ round).unwrap();
            } else if !outcome.interrupted {
                final_report = Some(outcome.rendered_report);
                break;
            }
        }
        std::fs::remove_file(&journal_path).ok();
        let final_report = final_report.expect("a fault-free round completed");
        prop_assert_eq!(final_report, reference.rendered_report);
    }

    /// The chaos property holds unchanged under `symmetry: Full`: a sweep
    /// interrupted mid-run on the dense path resumes to the byte-identical
    /// fault-free dense report — which is itself byte-identical to the
    /// default (reduced) report, so the symmetry mode never leaks into the
    /// journal/resume story.
    #[test]
    fn full_chaotic_runs_converge_to_the_fault_free_report(
        manifest in arb_manifest(),
        seed in 0u64..1_000_000,
    ) {
        let reference = run_campaign(
            &manifest,
            &CampaignConfig {
                symmetry: Some(SymmetryMode::Full),
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        let default_mode = run_campaign(&manifest, &CampaignConfig::default()).unwrap();
        prop_assert_eq!(&reference.rendered_report, &default_mode.rendered_report);

        let journal_path = fresh_journal();
        let mut final_report = None;
        for round in 0u64..16 {
            let chaotic = round < 3;
            let outcome = run_campaign(
                &manifest,
                &CampaignConfig {
                    workers: 2,
                    symmetry: Some(SymmetryMode::Full),
                    journal_path: Some(journal_path.clone()),
                    resume: round > 0,
                    retries: 1,
                    backoff: Duration::ZERO,
                    interrupt: Some(Arc::new(CancelToken::new())),
                    chaos: chaotic.then(|| ChaosPlan::from_seed(seed.wrapping_add(round).rotate_left(7))),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
            if chaotic {
                ChaosPlan::truncate_journal(&journal_path, seed ^ round).unwrap();
            } else if !outcome.interrupted {
                final_report = Some(outcome.rendered_report);
                break;
            }
        }
        std::fs::remove_file(&journal_path).ok();
        let final_report = final_report.expect("a fault-free round completed");
        prop_assert_eq!(final_report, reference.rendered_report);
    }
}
