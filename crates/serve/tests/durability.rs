//! Durability and chaos tests: the crash-recovery contract of the job
//! journal, warm cache restarts, admission storms, and the seeded fault
//! injector — everything the CI crash drill checks with a literal
//! `SIGKILL`, exercised here in-process so failures localize.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use selfstab_campaign::{ChaosPlan, FsyncPolicy};
use selfstab_global::{check::ConvergenceReport, EngineConfig, RingInstance};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_serve::http::Request;
use selfstab_serve::journal::{frame_event, replay};
use selfstab_serve::{render, JobKind, JobRequest, PendingCaps, ServeConfig, ServeState};
use serde_json::{json, Value};

const AGREEMENT: &str = "\
protocol agreement
domain x { 0 1 }
locality unidirectional
legit x[r] == x[r-1]
action x[r-1] == 1 && x[r] == 0 -> x[r] := 1
";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("selfstab-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn state_with(config: ServeConfig) -> Arc<ServeState> {
    ServeState::new(&config).expect("state builds")
}

fn request(method: &str, path: &str, body: &str) -> Request {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn submit_body(kind: &str, extra: &str) -> String {
    let spec = Value::String(AGREEMENT.to_owned());
    format!("{{\"kind\": \"{kind}\", \"spec\": {spec}{extra}}}")
}

fn body_json(body: &[u8]) -> Value {
    serde_json::from_str(std::str::from_utf8(body).expect("response body is UTF-8"))
        .expect("response body is JSON")
}

fn await_job(state: &Arc<ServeState>, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = state.handle(&request("GET", &format!("/v1/jobs/{id}"), ""));
        assert_eq!(resp.status, 200, "job {id} must stay resolvable");
        let status = body_json(&resp.body)["status"].as_str().unwrap().to_owned();
        if status != "queued" && status != "running" {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn result_bytes(state: &Arc<ServeState>, id: u64) -> (u16, Vec<u8>) {
    let resp = state.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
    (resp.status, resp.body)
}

/// The `check --json` bytes the CLI would print for this spec at `k`.
fn cli_document(k: usize) -> String {
    let protocol = parse_protocol_file(AGREEMENT).unwrap();
    let ring = RingInstance::symmetric(&protocol, k).unwrap();
    let report = ConvergenceReport::check_with(&ring, &EngineConfig::sequential());
    render::check_document(vec![render::convergence_report(&report)])
}

fn journaled_config(journal: &Path) -> ServeConfig {
    ServeConfig {
        threads: 1,
        journal: Some(journal.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    }
}

#[test]
fn completed_jobs_resolve_after_restart_without_rerunning() {
    let journal = tmp("resolve.jsonl");
    let _ = std::fs::remove_file(&journal);

    let s = state_with(journaled_config(&journal));
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 4"),
    ));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");
    let (status, before) = result_bytes(&s, id);
    assert_eq!(status, 200);
    s.begin_drain();
    s.shutdown_pool();
    drop(s);

    // Same journal, fresh process: the id must not 404, the bytes must
    // not change, and nothing re-executes.
    let s = state_with(journaled_config(&journal));
    let (status, after) = result_bytes(&s, id);
    assert_eq!(status, 200, "completed job resolves across restart");
    assert_eq!(after, before, "byte-identical across restart");
    assert_eq!(String::from_utf8(after).unwrap(), cli_document(4));
    assert_eq!(s.executed(), 0, "terminal replay needs no pool work");

    // The id space continues past the replayed jobs.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("sweep", ", \"k\": 2, \"to\": 5"),
    ));
    let id2 = body_json(&resp.body)["id"].as_u64().unwrap();
    assert!(id2 > id, "fresh submits never reuse a journaled id");
    assert_eq!(await_job(&s, id2), "done");
}

#[test]
fn interrupted_jobs_reenqueue_at_boot_and_converge_to_fault_free_bytes() {
    // Hand-assemble the journal a crash would leave behind: an accepted
    // job whose terminal record never made it to disk.
    let journal = tmp("interrupted.jsonl");
    let body: Value = serde_json::from_str(&submit_body("verify", ", \"k\": 4")).unwrap();
    let key = JobRequest::from_json(&body).unwrap().cache_key();
    let wire = format!(
        "{}{}",
        frame_event(&json!({"ev": "serve", "version": 1})),
        frame_event(&json!({
            "ev": "submitted",
            "id": 1,
            "kind": "verify",
            "key": key.clone(),
            "request": body.clone(),
        })),
    );
    std::fs::write(&journal, wire).unwrap();

    let s = state_with(journaled_config(&journal));
    assert_eq!(await_job(&s, 1), "done", "the crash's collateral re-runs");
    let (status, bytes) = result_bytes(&s, 1);
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        cli_document(4),
        "replay + re-execution converges to the fault-free document"
    );
    assert_eq!(s.executed(), 1);
    // The re-run was journaled: the *next* restart replays it as terminal.
    s.begin_drain();
    s.shutdown_pool();
    drop(s);
    let s = state_with(journaled_config(&journal));
    let (status, bytes) = result_bytes(&s, 1);
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(bytes).unwrap(), cli_document(4));
    assert_eq!(s.executed(), 0);
}

#[test]
fn warm_cache_snapshot_answers_repeat_traffic_without_pool_work() {
    let snapshot = tmp("cache.snap");
    let _ = std::fs::remove_file(&snapshot);
    let config = || ServeConfig {
        threads: 1,
        cache_snapshot: Some(snapshot.clone()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    };

    let s = state_with(config());
    let body = submit_body("verify", ", \"k\": 4");
    let resp = s.handle(&request("POST", "/v1/jobs", &body));
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");
    let (_, before) = result_bytes(&s, id);
    s.begin_drain();
    s.shutdown_pool();
    drop(s);

    let s = state_with(config());
    let stats = body_json(&s.handle(&request("GET", "/v1/cache/stats", "")).body);
    assert!(stats["snapshot_restored"].as_u64().unwrap() >= 1, "{stats}");
    // A repeat submit is a warm hit: answered done, no pool work.
    let resp = s.handle(&request("POST", "/v1/jobs", &body));
    assert_eq!(resp.status, 200, "warm restart answers from the snapshot");
    let doc = body_json(&resp.body);
    assert_eq!(doc["cached"], true);
    let id2 = doc["id"].as_u64().unwrap();
    let (status, after) = result_bytes(&s, id2);
    assert_eq!(status, 200);
    assert_eq!(after, before, "snapshot preserved the exact bytes");
    assert_eq!(s.executed(), 0);
}

#[test]
fn chaos_panics_are_retried_to_the_fault_free_document() {
    // Find a seed whose plan kills this job's first attempt — the
    // decision is a pure function of (seed, key, k, attempt), so the probe
    // instance predicts the server instance exactly.
    let body = submit_body("verify", ", \"k\": 4");
    let parsed: Value = serde_json::from_str(&body).unwrap();
    let key = JobRequest::from_json(&parsed).unwrap().cache_key();
    let seed = (0..1024u64)
        .find(|&seed| ChaosPlan::from_seed(seed).should_panic(&key, 4, 0))
        .expect("some seed panics the first attempt");

    let s = state_with(ServeConfig {
        threads: 1,
        chaos: Some(seed),
        retries: 4,
        backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    let resp = s.handle(&request("POST", "/v1/jobs", &body));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(
        await_job(&s, id),
        "done",
        "retries outlast the chaos budget"
    );
    let status = body_json(
        &s.handle(&request("GET", &format!("/v1/jobs/{id}"), ""))
            .body,
    );
    assert!(
        status["attempts"].as_u64().unwrap() >= 2,
        "at least one injected panic was retried: {status}"
    );
    let (code, bytes) = result_bytes(&s, id);
    assert_eq!(code, 200);
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        cli_document(4),
        "a chaos-retried job serves the fault-free bytes"
    );
}

#[test]
fn a_shed_storm_loses_no_accepted_job() {
    let s = state_with(ServeConfig {
        threads: 2,
        caps: PendingCaps {
            verify: 2,
            sweep: 1,
            synthesize: 1,
        },
        ..ServeConfig::default()
    });
    // Saturate the verify queue by hand, then flood: every submit sheds
    // with a structured 429, and none of them ever reaches the table.
    s.admission().admit(JobKind::Verify).unwrap();
    s.admission().admit(JobKind::Verify).unwrap();
    for k in 3..=8 {
        let resp = s.handle(&request(
            "POST",
            "/v1/jobs",
            &submit_body("verify", &format!(", \"k\": {k}")),
        ));
        assert_eq!(resp.status, 429, "k={k}");
        assert_eq!(body_json(&resp.body)["code"], "queue_full");
        assert!(resp.headers.iter().any(|(n, _)| n == "retry-after"));
    }
    let metrics = body_json(&s.handle(&request("GET", "/v1/metrics", "")).body);
    assert!(
        metrics["counters"]["serve/shed"].as_u64().unwrap() >= 6,
        "{metrics}"
    );
    assert_eq!(s.executed(), 0, "shed traffic never reached the pool");

    // Pressure clears: the same flood is accepted, and every accepted
    // job reaches a terminal, correct state — no accepted job is lost.
    s.admission().release(JobKind::Verify);
    s.admission().release(JobKind::Verify);
    let ids: Vec<(usize, u64)> = (3..=8)
        .map(|k| {
            // The flood outruns the pool: a 429 here just means the
            // earlier accepted jobs have not released their slots yet.
            // Honor the Retry-After contract (bounded) — the property
            // under test is that *accepted* jobs are never lost.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let resp = s.handle(&request(
                    "POST",
                    "/v1/jobs",
                    &submit_body("verify", &format!(", \"k\": {k}")),
                ));
                match resp.status {
                    200 | 202 => break (k, body_json(&resp.body)["id"].as_u64().unwrap()),
                    429 if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    other => panic!("k={k}: {other}"),
                }
            }
        })
        .collect();
    for (k, id) in ids {
        assert_eq!(await_job(&s, id), "done", "k={k}");
        let (status, bytes) = result_bytes(&s, id);
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(bytes).unwrap(), cli_document(k));
    }
    // Occupancy fully drained once the storm settles.
    let ready = body_json(&s.handle(&request("GET", "/v1/readyz", "")).body);
    assert_eq!(ready["pending"]["verify"], 0u64);
}

// ---- property: journal replay under arbitrary truncation -----------------

/// One frame of the synthetic crash journal plus what it does to the
/// expected job table.
enum Ev {
    Header,
    Submitted(u64),
    Terminal(u64, &'static str),
}

/// A realistic interleaved journal: submits and terminals mixed, job 4
/// never finishing. Returns the wire bytes and, per frame, its end
/// offset and its event.
fn synthetic_journal() -> (Vec<u8>, Vec<(usize, Ev)>) {
    let frames = vec![
        (json!({"ev": "serve", "version": 1}), Ev::Header),
        (
            json!({"ev": "submitted", "id": 1, "kind": "verify", "key": "key-1", "request": {"kind": "verify", "k": 3}}),
            Ev::Submitted(1),
        ),
        (
            json!({"ev": "submitted", "id": 2, "kind": "sweep", "key": "key-2", "request": {"kind": "sweep", "k": 2}}),
            Ev::Submitted(2),
        ),
        (
            json!({"ev": "done", "id": 1, "exit_code": 0, "body": "doc-1"}),
            Ev::Terminal(1, "done"),
        ),
        (
            json!({"ev": "submitted", "id": 3, "kind": "synthesize", "key": "key-3", "request": {"kind": "synthesize"}}),
            Ev::Submitted(3),
        ),
        (
            json!({"ev": "failed", "id": 2, "status": 500, "message": "job panicked"}),
            Ev::Terminal(2, "failed"),
        ),
        (
            json!({"ev": "submitted", "id": 4, "kind": "verify", "key": "key-4", "request": {"kind": "verify", "k": 4}}),
            Ev::Submitted(4),
        ),
        (
            json!({"ev": "timed_out", "id": 3, "partial": "rows…"}),
            Ev::Terminal(3, "timed_out"),
        ),
    ];
    let mut wire = Vec::new();
    let mut events = Vec::new();
    for (value, ev) in frames {
        wire.extend_from_slice(frame_event(&value).as_bytes());
        events.push((wire.len(), ev));
    }
    (wire, events)
}

proptest! {
    /// Truncating the journal at *any* byte offset, replay recovers
    /// exactly the frames that fully survived: every completed result in
    /// the replay matches a terminal frame inside the valid prefix (none
    /// invented, none duplicated), and the re-enqueue set is exactly the
    /// submitted-but-not-terminal jobs of that prefix.
    #[test]
    fn truncated_replay_reenqueues_exactly_the_non_terminal_jobs(cut in 0usize..4096) {
        let (wire, events) = synthetic_journal();
        let cut = cut.min(wire.len());
        let path = tmp(&format!("truncated-{cut}.jsonl"));
        std::fs::write(&path, &wire[..cut]).unwrap();

        let replayed = replay(&path).expect("truncation is never a replay error");
        let _ = std::fs::remove_file(&path);

        // The valid prefix is the last whole frame at or before the cut.
        let expected_valid = events
            .iter()
            .map(|(end, _)| *end)
            .filter(|end| *end <= cut)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(replayed.valid_len as usize, expected_valid);

        // Fold the surviving frames into the expected table.
        let mut submitted: Vec<u64> = Vec::new();
        let mut terminal: Vec<(u64, &str)> = Vec::new();
        for (end, ev) in &events {
            if *end > expected_valid {
                break;
            }
            match ev {
                Ev::Header => {}
                Ev::Submitted(id) => submitted.push(*id),
                Ev::Terminal(id, label) => terminal.push((*id, label)),
            }
        }

        // Exactly the surviving submits are known — ids are unique, so a
        // completed result can never appear twice.
        let mut known: Vec<u64> = replayed.jobs.keys().copied().collect();
        known.sort_unstable();
        prop_assert_eq!(known, submitted.clone());

        // Terminal states match the surviving terminal frames 1:1.
        for &(id, label) in &terminal {
            let job = &replayed.jobs[&id];
            let got = match &job.terminal {
                Some(selfstab_serve::ReplayedTerminal::Done(_)) => "done",
                Some(selfstab_serve::ReplayedTerminal::Failed { .. }) => "failed",
                Some(selfstab_serve::ReplayedTerminal::TimedOut { .. }) => "timed_out",
                None => "pending",
            };
            prop_assert_eq!(got, label);
        }

        // And the re-enqueue set is exactly submitted minus terminal.
        let expected_pending: Vec<u64> = submitted
            .iter()
            .copied()
            .filter(|id| terminal.iter().all(|(t, _)| t != id))
            .collect();
        let pending: Vec<u64> = replayed.non_terminal().map(|j| j.id).collect();
        prop_assert_eq!(pending, expected_pending);

        // next_id never collides with a journaled submit.
        let max_submitted = submitted.iter().copied().max().unwrap_or(0);
        prop_assert!(replayed.next_id > max_submitted || submitted.is_empty());
    }
}
