//! End-to-end tests of the `selfstab` binary against the `.stab` specs in
//! `specs/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn spec(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

fn selfstab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_selfstab"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn analyze_agreement_proves_stabilization() {
    let out = selfstab(&["analyze", spec("agreement.stab").to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("FREE for all K"));
    assert!(text.contains("CERTIFIED"));
    assert!(text.contains("strongly self-stabilizing for every ring size"));
}

#[test]
fn analyze_reports_witnesses_for_non_generalizable_matching() {
    let out = selfstab(&[
        "analyze",
        spec("matching_non_generalizable.stab").to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("NOT free"));
    assert!(text.contains("deadlock witness (ring size 4)"));
    assert!(text.contains("deadlocked ring sizes"));
}

#[test]
fn check_passes_and_fails_appropriately() {
    let ok = selfstab(&[
        "check",
        spec("agreement.stab").to_str().unwrap(),
        "--k",
        "3",
        "--to",
        "6",
    ]);
    assert!(ok.status.success(), "{}", stderr(&ok));
    assert!(stdout(&ok).contains("strongly self-stabilizing at every checked size"));

    let bad = selfstab(&[
        "check",
        spec("agreement_both.stab").to_str().unwrap(),
        "--k",
        "4",
    ]);
    // "ran, but verification failed" is exit 2, distinct from usage errors.
    assert_eq!(bad.status.code(), Some(2), "{}", stderr(&bad));
    assert!(stdout(&bad).contains("livelock"));
}

#[test]
fn check_renders_colliding_labels_unambiguously() {
    // `red` and `ready` share an initial; the compact rendering must keep
    // them distinguishable (shortest unique prefixes, not first letters).
    let dir = std::env::temp_dir().join("selfstab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("red_ready.stab");
    std::fs::write(
        &path,
        "protocol red-ready\n\
         domain x { red ready }\n\
         locality unidirectional\n\
         legit x[r] == x[r-1]\n\
         action x[r-1] == red && x[r] == ready -> x[r] := red\n\
         action x[r-1] == ready && x[r] == red -> x[r] := ready\n",
    )
    .unwrap();
    let out = selfstab(&["check", path.to_str().unwrap(), "--k", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stdout(&out);
    assert!(text.contains("livelock cycle:"), "{text}");
    assert!(text.contains("red") && text.contains("rea"), "{text}");
    // The regression: both labels collapsing to `r` made states like
    // `red,ready,ready` and `ready,red,red` print identically.
    assert!(!text.contains("r,r,r"), "{text}");
}

#[test]
fn synthesize_agreement_emits_two_solutions() {
    let out = selfstab(&["synthesize", spec("agreement_empty.stab").to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("# solution 1"));
    assert!(text.contains("# solution 2"));
    assert!(text.contains("action"));
    assert!(stderr(&out).contains("2 solution(s)"));
}

#[test]
fn synthesize_three_coloring_fails_with_explanation() {
    let out = selfstab(&["synthesize", spec("three_coloring.stab").to_str().unwrap()]);
    // "Ran, and the methodology declared failure" is exit 2, not a usage
    // error (exit 1) — the same convention the verification subcommands use.
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("synthesis failed"));
}

#[test]
fn synthesize_json_emits_schema_and_exit_codes() {
    let out = selfstab(&[
        "synthesize",
        spec("agreement_empty.stab").to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(doc["success"], true);
    assert_eq!(doc["truncated"], false);
    assert_eq!(doc["cancelled"], false);
    assert_eq!(doc["solutions"].as_array().unwrap().len(), 2);
    assert_eq!(doc["counters"]["solutions_found"], 2);
    assert_eq!(
        doc["solutions"][0]["verdict"].as_str().unwrap(),
        "no_pseudo_livelock"
    );
    assert!(doc["solutions"][0]["protocol_file"]
        .as_str()
        .unwrap()
        .contains("action"));

    // Failure keeps the document (success:false) and exits 2.
    let fail = selfstab(&[
        "synthesize",
        spec("three_coloring.stab").to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(fail.status.code(), Some(2));
    let doc: serde_json::Value = serde_json::from_str(&stdout(&fail)).unwrap();
    assert_eq!(doc["success"], false);
    assert_eq!(doc["counters"]["combinations_tried"], 8);
    assert_eq!(doc["counters"]["rejected_by_trail"], 8);
    assert!(doc["solutions"].as_array().unwrap().is_empty());
}

#[test]
fn synthesize_json_stdout_is_byte_identical_across_thread_counts() {
    let path = spec("sum_not_two_empty.stab");
    let baseline = selfstab(&["synthesize", path.to_str().unwrap(), "--json"]);
    assert!(baseline.status.success(), "{}", stderr(&baseline));
    let metrics_path = std::env::temp_dir().join("selfstab-synth-threads.metrics.json");
    for threads in ["1", "2", "8"] {
        let out = selfstab(&[
            "synthesize",
            path.to_str().unwrap(),
            "--json",
            "--threads",
            threads,
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert_eq!(
            out.stdout, baseline.stdout,
            "--threads {threads} changed the --json bytes"
        );
        // The sidecar keeps its `threads` key, which reads 1.
        let metrics: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(metrics["threads"], 1, "--threads {threads}");
    }
}

#[test]
fn synthesized_output_is_valid_input() {
    // Pipe a synthesized solution back through `analyze`.
    let out = selfstab(&[
        "synthesize",
        spec("agreement_empty.stab").to_str().unwrap(),
        "--first",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    let solution: String = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let dir = std::env::temp_dir().join("selfstab-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("synth.stab");
    std::fs::write(&path, solution).unwrap();
    let check = selfstab(&["analyze", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(stdout(&check).contains("strongly self-stabilizing"));
}

#[test]
fn sizes_reports_exact_set() {
    let out = selfstab(&[
        "sizes",
        spec("matching_non_generalizable.stab").to_str().unwrap(),
        "--max",
        "10",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("[4, 6, 7, 8, 9, 10]"), "{text}");
    assert!(text.contains("deadlock-free sizes in that range: [1, 2, 3, 5]"));
}

#[test]
fn simulate_reports_statistics() {
    let out = selfstab(&[
        "simulate",
        spec("agreement.stab").to_str().unwrap(),
        "--k",
        "8",
        "--trials",
        "100",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("converged: 100 (100.0%)"));
    assert!(text.contains("worst-case (adversarial daemon) recovery bound"));
}

#[test]
fn dot_outputs_graphviz() {
    let out = selfstab(&["dot", spec("agreement.stab").to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    let out = selfstab(&["dot", spec("agreement.stab").to_str().unwrap(), "--ltg"]);
    assert!(stdout(&out).contains("label=\"t\""));
}

#[test]
fn fmt_roundtrips() {
    let out = selfstab(&["fmt", spec("sum_not_two.stab").to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("protocol sum-not-two"));
    assert!(text.contains("domain x { 0 1 2 }"));
    assert!(text.contains("legit x[r] + x[r-1] != 2"));
}

#[test]
fn audit_combines_everything() {
    let out = selfstab(&[
        "audit",
        spec("agreement_both.stab").to_str().unwrap(),
        "--to",
        "4",
    ]);
    // The protocol is not self-stabilizing, so the audit exits 2 — but it
    // still prints the full battery first.
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("blocking trail"));
    assert!(text.contains("trail reconstructs: livelock"));
    assert!(text.contains("K=4: FAILS"));
    assert!(text.contains("not established for all K"));

    let out = selfstab(&[
        "audit",
        spec("agreement.stab").to_str().unwrap(),
        "--to",
        "5",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("PROVEN strongly self-stabilizing"));
}

#[test]
fn json_output_is_valid() {
    let out = selfstab(&[
        "analyze",
        spec("agreement.stab").to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["self_stabilizing_for_all_k"], true);
    assert_eq!(v["deadlock"]["free_for_all_k"], true);

    let out = selfstab(&[
        "check",
        spec("agreement.stab").to_str().unwrap(),
        "--k",
        "3",
        "--to",
        "5",
        "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v.as_array().unwrap().len(), 3);
    assert_eq!(v[0]["ring_size"], 3);
}

#[test]
fn helpful_errors() {
    let out = selfstab(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown subcommand"));
    assert!(stderr(&out).contains("EXIT CODES"));

    let out = selfstab(&["analyze", "/nonexistent/file.stab"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"));

    let out = selfstab(&["check", spec("agreement.stab").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--k"));

    let agreement = spec("agreement.stab");
    let check = |mode: &str| {
        selfstab(&[
            "check",
            agreement.to_str().unwrap(),
            "--k",
            "3",
            "--symmetry",
            mode,
        ])
    };
    let out = check("orbit");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("symmetry mode"));
    // `reduced` is another spelling of the default `auto`.
    assert_eq!(check("reduced").stdout, check("auto").stdout);
}

#[test]
fn a_closed_stdout_ends_a_command_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_selfstab"))
        .args(["check", spec("mis.stab").to_str().unwrap()])
        .args(["--k", "2", "--to", "12"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert_ne!(out.status.code(), Some(101));
}

#[test]
fn audit_sizes_simulate_emit_json() {
    let out = selfstab(&[
        "audit",
        spec("agreement.stab").to_str().unwrap(),
        "--to",
        "4",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["proven_for_all_k"], true);
    assert_eq!(v["soundness_disagreements"], 0u64);
    assert_eq!(v["global"].as_array().unwrap().len(), 3);
    assert_eq!(v["local"]["self_stabilizing_for_all_k"], true);

    let out = selfstab(&[
        "sizes",
        spec("matching_non_generalizable.stab").to_str().unwrap(),
        "--max",
        "10",
        "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["free_for_all_k"], false);
    assert_eq!(v["deadlocked_sizes"][0], 4u64);
    assert_eq!(v["free_sizes"].as_array().unwrap().len(), 4);

    let out = selfstab(&[
        "simulate",
        spec("agreement.stab").to_str().unwrap(),
        "--k",
        "6",
        "--trials",
        "50",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["converged"], 50u64);
    assert_eq!(v["failed"], 0u64);
    assert!(!v["worst_case_recovery"].is_null());
}

fn write_sweep_manifest(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn sweep_runs_a_campaign_and_exits_by_cleanliness() {
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    // A failing corpus member (agreement_both livelocks) → exit 2.
    let manifest = write_sweep_manifest(
        "mixed.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab", "{}/agreement_both.stab"], "k_from": 2, "k_to": 4}}"#,
            specs_dir.display(),
            specs_dir.display()
        ),
    );
    let out = selfstab(&["sweep", manifest.to_str().unwrap(), "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("verified 4"), "{text}");
    assert!(text.contains("failed 2"), "{text}");
    // agreement_both fails *by livelock*; the detail line must say so.
    assert!(text.contains("livelock true"), "{text}");
    assert!(text.contains("soundness: local verdicts and global outcomes agree"));

    // A clean corpus → exit 0, and --json prints the canonical report.
    let manifest = write_sweep_manifest(
        "clean.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab"], "k_from": 2, "k_to": 5}}"#,
            specs_dir.display()
        ),
    );
    let out = selfstab(&["sweep", manifest.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["totals"]["verified"], 4u64);
    assert_eq!(v["totals"]["failed"], 0u64);
    assert_eq!(v["soundness"]["disagreements"].as_array().unwrap().len(), 0);
}

#[test]
fn sweep_resume_reuses_the_journal_and_reports_identically() {
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let manifest = write_sweep_manifest(
        "resume.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab", "{}/flip_token.stab"], "k_from": 2, "k_to": 6}}"#,
            specs_dir.display(),
            specs_dir.display()
        ),
    );
    let report_a = std::env::temp_dir().join("selfstab-sweep-test/report_a.json");
    let report_b = std::env::temp_dir().join("selfstab-sweep-test/report_b.json");
    let journal = manifest.with_extension("journal.jsonl");

    let out = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "-o",
        report_a.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(journal.is_file(), "journal written next to the manifest");

    // Interrupt simulation: drop the second half of the journal, resume.
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines.len() / 2;
    std::fs::write(&journal, format!("{}\n", lines[..keep].join("\n"))).unwrap();
    let out = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--resume",
        "--jobs",
        "4",
        "-o",
        report_b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("replayed"), "{}", stdout(&out));

    let a = std::fs::read_to_string(&report_a).unwrap();
    let b = std::fs::read_to_string(&report_b).unwrap();
    assert_eq!(a, b, "resumed report must be byte-identical");
}

#[test]
fn sweep_rejects_an_empty_spec_expansion() {
    // `"specs": []` with a well-formed K range must exit 1 with a
    // diagnostic, not sweep nothing and report a clean campaign.
    let manifest = write_sweep_manifest("empty.json", r#"{"specs": [], "k_from": 2, "k_to": 4}"#);
    let out = selfstab(&["sweep", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("matched no spec files"),
        "{}",
        stderr(&out)
    );

    // Same for a glob that matches nothing.
    let manifest = write_sweep_manifest(
        "noglob.json",
        r#"{"specs": ["no_such_dir_*/x.stab"], "k_from": 2, "k_to": 4}"#,
    );
    let out = selfstab(&["sweep", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn sweep_rejects_a_bad_fsync_policy() {
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let manifest = write_sweep_manifest(
        "fsync.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab"], "k_from": 2, "k_to": 3}}"#,
            specs_dir.display()
        ),
    );
    let out = selfstab(&["sweep", manifest.to_str().unwrap(), "--fsync", "sometimes"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--fsync"), "{}", stderr(&out));
}

#[test]
fn sweep_under_chaos_heals_to_the_clean_report() {
    // Smoke-test the hidden --chaos flag end to end: a seeded chaotic
    // sweep (injected panics retried, maybe a forced cancel) followed by a
    // fault-free --resume must converge to the byte-identical report of a
    // sweep that never saw a fault.
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    let manifest = write_sweep_manifest(
        "chaos.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab", "{}/flip_token.stab"], "k_from": 2, "k_to": 5}}"#,
            specs_dir.display(),
            specs_dir.display()
        ),
    );
    let ref_journal = dir.join("chaos-ref.journal.jsonl");
    let ref_report = dir.join("chaos-ref.json");
    let out = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--journal",
        ref_journal.to_str().unwrap(),
        "-o",
        ref_report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let journal = dir.join("chaos-run.journal.jsonl");
    std::fs::remove_file(&journal).ok();
    let final_report = dir.join("chaos-final.json");
    let chaotic = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--chaos",
        "3",
        "--retries",
        "4",
        "--backoff-ms",
        "0",
        "--jobs",
        "2",
    ]);
    // Any outcome is legal under chaos: clean (0), failed-by-panic (2), or
    // interrupted by a forced cancel (130) — but never a crash/abort.
    assert!(
        matches!(chaotic.status.code(), Some(0 | 2 | 130)),
        "chaos run must degrade gracefully: {:?}\n{}",
        chaotic.status.code(),
        stderr(&chaotic)
    );
    if chaotic.status.code() == Some(130) {
        assert!(
            stderr(&chaotic).contains("--resume"),
            "interrupt hint: {}",
            stderr(&chaotic)
        );
    }

    let healed = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        "-o",
        final_report.to_str().unwrap(),
    ]);
    assert!(healed.status.success(), "{}", stderr(&healed));
    assert_eq!(
        std::fs::read_to_string(&ref_report).unwrap(),
        std::fs::read_to_string(&final_report).unwrap(),
        "healed report must match the fault-free reference byte for byte"
    );
}

#[cfg(unix)]
#[test]
fn sweep_sigint_syncs_the_journal_and_resumes_losslessly() {
    use std::io::Read;

    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    // Big enough that the debug binary is still mid-sweep when the signal
    // lands: 3^12 ≈ 5.3e5 states for the largest jobs.
    let manifest = write_sweep_manifest(
        "sigint.json",
        &format!(
            r#"{{"specs": ["{}/sum_not_two.stab"], "k_from": 2, "k_to": 12, "max_states": 2000000}}"#,
            specs_dir.display()
        ),
    );
    let journal = dir.join("sigint.journal.jsonl");
    std::fs::remove_file(&journal).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_selfstab"))
        .args([
            "sweep",
            manifest.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    std::thread::sleep(std::time::Duration::from_millis(500));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let status = child.wait().expect("child exits");
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();

    if status.code() == Some(130) {
        // Interrupted mid-sweep: the hint names --resume and the journal
        // replays cleanly (the sync happened before exit).
        assert!(err.contains("rerun with --resume"), "{err}");
        let report_resumed = dir.join("sigint-resumed.json");
        let out = selfstab(&[
            "sweep",
            manifest.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--resume",
            "-o",
            report_resumed.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));

        // Every job completed before the signal was replayed, not re-run.
        let text = stdout(&out);
        assert!(text.contains("replayed"), "{text}");

        // And the result is byte-identical to a never-interrupted sweep.
        let report_ref = dir.join("sigint-ref.json");
        let ref_journal = dir.join("sigint-ref.journal.jsonl");
        std::fs::remove_file(&ref_journal).ok();
        let out = selfstab(&[
            "sweep",
            manifest.to_str().unwrap(),
            "--journal",
            ref_journal.to_str().unwrap(),
            "-o",
            report_ref.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert_eq!(
            std::fs::read_to_string(&report_ref).unwrap(),
            std::fs::read_to_string(&report_resumed).unwrap(),
            "post-SIGINT resume must lose no completed job"
        );
    } else {
        // The machine was fast enough to finish before the signal landed;
        // the sweep must then have ended by verdict, not by crash.
        assert!(
            matches!(status.code(), Some(0 | 2)),
            "unexpected exit: {status:?}\n{err}"
        );
    }
}

#[test]
fn sweep_exports_metrics_and_trace_and_stats_tabulates_them() {
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    let manifest = write_sweep_manifest(
        "telemetry.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab", "{}/agreement_both.stab"], "k_from": 2, "k_to": 4}}"#,
            specs_dir.display(),
            specs_dir.display()
        ),
    );
    let metrics_path = dir.join("telemetry.metrics.json");
    let trace_path = dir.join("telemetry.trace.json");
    let out = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--jobs",
        "2",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    // agreement_both livelocks → exit 2, but telemetry is written anyway.
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap())
            .expect("metrics file is valid JSON");
    assert_eq!(metrics["campaign"]["executed"], 6u64);
    let rows = metrics["jobs"].as_array().unwrap();
    assert_eq!(rows.len(), 6);
    for row in rows {
        assert_eq!(row["counters"]["states_visited"], row["states"]);
        assert!(row["phases_us"]["fused_scan"].as_u64().is_some());
    }

    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap())
            .expect("trace file is valid JSON");
    assert_eq!(trace["displayTimeUnit"], "ms");
    let events = trace["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty());
    for e in events {
        assert!(e["name"].as_str().is_some());
        assert_eq!(e["pid"], 1u64);
    }

    // `stats` tabulates the metrics document: one row per spec × K plus a
    // totals line.
    let out = selfstab(&["stats", metrics_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("6 of 6 job(s) executed"), "{text}");
    assert!(text.contains("agreement_both.stab"), "{text}");
    assert!(text.contains("scan"), "{text}");
    assert!(text.contains("TOTAL"), "{text}");

    // And it rejects a non-metrics document with a usage error.
    let out = selfstab(&["stats", trace_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("not a sweep metrics document"));
}

#[test]
fn stats_renders_a_well_formed_cross_tab_for_an_empty_run() {
    // A fully replayed --resume executes zero jobs, so its metrics
    // document has an empty `jobs` array and no per-phase observations.
    // `stats` must still render the full cross-tab (header + TOTAL), and
    // `--json` must keep the identical schema as a non-empty document.
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    let manifest = write_sweep_manifest(
        "empty-stats.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab"], "k_from": 2, "k_to": 3}}"#,
            specs_dir.display()
        ),
    );
    let journal = dir.join("empty-stats.journal.jsonl");
    std::fs::remove_file(&journal).ok();
    let out = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let metrics_path = dir.join("empty-stats.metrics.json");
    let out = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        "--metrics",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(metrics["campaign"]["executed"], 0u64, "{metrics}");
    assert_eq!(metrics["jobs"].as_array().unwrap().len(), 0);

    let out = selfstab(&["stats", metrics_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0 of 2 job(s) executed"), "{text}");
    assert!(text.contains("spec"), "header row is present: {text}");
    assert!(text.contains("TOTAL"), "totals row is present: {text}");
    assert!(text.contains("no jobs executed this run"), "{text}");

    let out = selfstab(&["stats", metrics_path.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["jobs"].as_array().unwrap().len(), 0);
    assert_eq!(v["grand_total_us"], 0u64);
    for key in [
        "parse",
        "local_analysis",
        "fused_scan",
        "livelock_dfs",
        "journal_append",
        "retry_backoff",
        "synthesis",
    ] {
        assert_eq!(v["phase_totals_us"][key], 0u64, "phase `{key}`");
    }
}

/// `stats` prints a sweep metrics document and a serve journal as the same
/// table. Both texts are pinned byte for byte, the empty inputs included.
#[test]
fn stats_text_is_pinned_for_sweep_metrics_and_serve_journals() {
    use serde_json::json;

    let dir = std::env::temp_dir().join("selfstab-stats-pin");
    std::fs::create_dir_all(&dir).unwrap();
    let stats = |name: &str, text: &str| -> (PathBuf, String) {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = selfstab(&["stats", path.to_str().unwrap()]);
        assert!(out.status.success(), "{}", stderr(&out));
        (path, stdout(&out))
    };
    let footer = "(all figures ms of wall-clock phase time; counters, not durations, are the deterministic surface)\n";

    let metrics = json!({
        "campaign": {"fingerprint": "0123abcd", "executed": 2, "jobs": 3, "replayed": 1,
                     "workers": 2, "engine_threads": 1},
        "jobs": [
            json!({"spec": "agreement.stab", "k": 3, "outcome": "verified",
                   "phases_us": {"parse": 12, "local_analysis": 340, "fused_scan": 1500, "livelock_dfs": 2750}}),
            json!({"spec": "three_coloring.stab", "k": 12, "outcome": "failed",
                   "phases_us": {"parse": 9, "fused_scan": 123456, "journal_append": 80}}),
        ],
        "phase_totals_us": {"parse": 21, "local_analysis": 340, "fused_scan": 124956,
                            "livelock_dfs": 2750, "journal_append": 80},
    });
    let (_, text) = stats("metrics.json", &metrics.to_string());
    assert_eq!(
        text,
        "campaign 0123abcd: 2 of 3 job(s) executed (1 replayed), 2 worker(s), 1 engine thread(s)\n\
         spec                   K     parse     local      scan       dfs   journal   backoff     synth     total  outcome\n\
         agreement.stab         3     0.012     0.340     1.500     2.750     0.000     0.000     0.000     4.602  verified\n\
         three_coloring.stab   12     0.009     0.000   123.456     0.000     0.080     0.000     0.000   123.545  failed\n\
         TOTAL                        0.021     0.340   124.956     2.750     0.080     0.000     0.000   128.147\n"
            .to_owned()
            + footer
    );

    let empty = json!({
        "campaign": {"fingerprint": "0123abcd", "executed": 0, "jobs": 2, "replayed": 2,
                     "workers": 1, "engine_threads": 1},
        "jobs": [],
    });
    let (_, text) = stats("empty.metrics.json", &empty.to_string());
    assert_eq!(
        text,
        "campaign 0123abcd: 0 of 2 job(s) executed (2 replayed), 1 worker(s), 1 engine thread(s)\n\
         spec     K     parse     local      scan       dfs   journal   backoff     synth     total  outcome\n\
         TOTAL          0.000     0.000     0.000     0.000     0.000     0.000     0.000     0.000\n\
         (no jobs executed this run — totals cover journal replay only)\n"
            .to_owned()
            + footer
    );

    let header = json!({"ev": "serve", "version": 2});
    let events = [
        header.clone(),
        json!({"ev": "submitted", "id": 1, "kind": "verify", "key": "a"}),
        json!({"ev": "submitted", "id": 2, "kind": "synthesize", "key": "b"}),
        json!({"ev": "submitted", "id": 3, "kind": "sweep", "key": "c"}),
        json!({"ev": "done", "id": 1, "exit_code": 0, "body": "{}",
               "phases_us": {"parse": 15, "local_analysis": 220, "fused_scan": 4100, "livelock_dfs": 900}}),
        json!({"ev": "failed", "id": 2, "status": 500, "message": "x",
               "phases_us": {"synthesis": 12345}}),
        json!({"ev": "hit", "id": 4, "kind": "verify", "key": "a"}),
    ];
    let journal: String = events
        .iter()
        .map(selfstab_campaign::journal::frame)
        .collect();
    let (path, text) = stats("serve.jsonl", &journal);
    assert_eq!(
        text,
        format!(
            "serve journal {}: 4 job(s) accepted, 3 reached a terminal state\n",
            path.display()
        ) + "kind          id     parse     local      scan       dfs   journal   backoff     synth     total  outcome\n\
             verify         1     0.015     0.220     4.100     0.900     0.000     0.000     0.000     5.235  done\n\
             synthesize     2     0.000     0.000     0.000     0.000     0.000     0.000    12.345    12.345  failed\n\
             sweep          3     0.000     0.000     0.000     0.000     0.000     0.000     0.000     0.000  pending\n\
             verify         4     0.000     0.000     0.000     0.000     0.000     0.000     0.000     0.000  done\n\
             TOTAL                0.015     0.220     4.100     0.900     0.000     0.000    12.345    17.580\n"
            + footer
    );

    let (path, text) = stats(
        "header.serve.jsonl",
        &selfstab_campaign::journal::frame(&header),
    );
    assert_eq!(
        text,
        format!(
            "serve journal {}: 0 job(s) accepted, 0 reached a terminal state\n",
            path.display()
        ) + "kind     id     parse     local      scan       dfs   journal   backoff     synth     total  outcome\n\
             TOTAL           0.000     0.000     0.000     0.000     0.000     0.000     0.000     0.000\n\
             (no jobs journaled — header-only journal)\n"
            + footer
    );
}

#[test]
fn sweep_json_stdout_is_invariant_under_telemetry_and_verbosity_flags() {
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    let manifest = write_sweep_manifest(
        "telemetry-json.json",
        &format!(
            r#"{{"specs": ["{}/agreement.stab"], "k_from": 2, "k_to": 5}}"#,
            specs_dir.display()
        ),
    );
    let base = selfstab(&["sweep", manifest.to_str().unwrap(), "--json"]);
    assert!(base.status.success(), "{}", stderr(&base));

    let metrics_path = dir.join("telemetry-json.metrics.json");
    let trace_path = dir.join("telemetry-json.trace.json");
    let with_flags = selfstab(&[
        "sweep",
        manifest.to_str().unwrap(),
        "--json",
        "--verbose",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(with_flags.status.success(), "{}", stderr(&with_flags));
    assert_eq!(
        base.stdout, with_flags.stdout,
        "telemetry and verbosity flags must not perturb --json stdout"
    );
}

#[test]
fn sweep_metrics_counters_are_byte_identical_across_thread_counts() {
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let dir = std::env::temp_dir().join("selfstab-sweep-test");
    // Distinct journal per run so neither clobbers the other mid-test.
    let deterministic_rows = |label: &str, threads: &str| {
        let manifest = write_sweep_manifest(
            &format!("threads-{label}.json"),
            &format!(
                r#"{{"specs": ["{}/agreement.stab", "{}/flip_token.stab"], "k_from": 2, "k_to": 5}}"#,
                specs_dir.display(),
                specs_dir.display()
            ),
        );
        let metrics_path = dir.join(format!("threads-{label}.metrics.json"));
        let out = selfstab(&[
            "sweep",
            manifest.to_str().unwrap(),
            "--threads",
            threads,
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let metrics: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        // `--threads` parses and has no effect: every check runs on its
        // worker's thread.
        assert_eq!(
            metrics["campaign"]["engine_threads"], 1,
            "--threads {threads}"
        );
        let rows = metrics["jobs"].as_array().unwrap();
        assert_eq!(rows.len(), 8);
        rows.iter()
            .map(|row| {
                format!(
                    "{}|{}|{}|{}|{}",
                    row["spec"], row["k"], row["outcome"], row["states"], row["counters"]
                )
            })
            .collect::<Vec<String>>()
    };
    assert_eq!(
        deterministic_rows("one", "1"),
        deterministic_rows("four", "4"),
        "per-job engine counters must not depend on the engine thread count"
    );
}
