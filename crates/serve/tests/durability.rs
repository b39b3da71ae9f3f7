//! Durability and chaos tests: the crash-recovery contract of the job
//! journal, warm cache restarts, admission storms, and the seeded fault
//! injector — everything the CI crash drill checks with a literal
//! `SIGKILL`, exercised here in-process so failures localize.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use selfstab_campaign::journal::frame;
use selfstab_campaign::{ChaosPlan, FsyncPolicy};
use selfstab_global::{check::ConvergenceReport, EngineConfig, RingInstance};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_serve::http::Request;
use selfstab_serve::journal::replay;
use selfstab_serve::{render, JobKind, JobRequest, JobState, PendingCaps, ServeConfig, ServeState};
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
    let report = ConvergenceReport::check_with(&ring, &EngineConfig::default());
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
        frame(&json!({"ev": "serve", "version": 1})),
        frame(&json!({
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

/// Submits `body`, which must be a cache hit; returns the job id it
/// answers with.
fn submit_hit(state: &Arc<ServeState>, body: &str) -> u64 {
    let resp = state.handle(&request("POST", "/v1/jobs", body));
    assert_eq!(resp.status, 200, "a repeat submit is answered from cache");
    let doc = body_json(&resp.body);
    assert_eq!(doc["cached"], true);
    assert_eq!(doc["status"], "done");
    doc["id"].as_u64().unwrap()
}

/// Submits `body` cold and waits for its job; then waits until the cache
/// names that job, since the pool publishes the job before the cache
/// does (a submit in between coalesces onto the same id). Returns the id.
fn computed(state: &Arc<ServeState>, body: &str) -> u64 {
    let resp = state.handle(&request("POST", "/v1/jobs", body));
    assert_eq!(resp.status, 202, "a cold submit is queued");
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(state, id), "done");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = state.handle(&request("POST", "/v1/jobs", body));
        assert_eq!(
            body_json(&resp.body)["id"],
            id,
            "every answer names job {id}"
        );
        if resp.status == 200 {
            return id;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached the cache"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The journal's `hit` records, in file order.
fn hit_records(journal: &Path) -> Vec<Value> {
    let frames = selfstab_campaign::journal::replay_frames(journal).unwrap();
    frames
        .events
        .into_iter()
        .filter(|ev| ev["ev"] == "hit")
        .collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

#[test]
fn a_hit_storm_answers_the_computing_jobs_id_and_writes_nothing() {
    let journal = tmp("hit-storm.jsonl");
    let _ = std::fs::remove_file(&journal);

    let s = state_with(journaled_config(&journal));
    let body = submit_body("verify", ", \"k\": 4");
    let id = computed(&s, &body);
    let len = file_len(&journal);
    for _ in 0..100 {
        assert_eq!(submit_hit(&s, &body), id, "a hit answers with the job's id");
    }
    assert_eq!(file_len(&journal), len, "a hit writes nothing");
    assert!(hit_records(&journal).is_empty());

    // Hits mint no id: the next cold submit gets the next one.
    let cold = submit_body("verify", ", \"k\": 5");
    let resp = s.handle(&request("POST", "/v1/jobs", &cold));
    assert_eq!(resp.status, 202);
    let next = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(next, id + 1);
    assert_eq!(await_job(&s, next), "done");
    s.begin_drain();
    s.shutdown_pool();
    drop(s);

    let s = state_with(journaled_config(&journal));
    let (status, bytes) = result_bytes(&s, id);
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(bytes).unwrap(), cli_document(4));
    assert_eq!(s.executed(), 0, "nothing re-runs");
}

#[test]
fn every_id_a_hit_hands_out_resolves_at_once() {
    // Resubmit a key from several threads while its job runs and
    // completes: the cache names the job only once it is done and
    // journaled, so every `200` answer's id serves its document at once.
    let journal = tmp("hit-race.jsonl");
    let _ = std::fs::remove_file(&journal);
    let s = state_with(journaled_config(&journal));
    let body = submit_body("sweep", ", \"k\": 2, \"to\": 7");
    let resp = s.handle(&request("POST", "/v1/jobs", &body));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    let served: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let mut served = Vec::new();
                    while served.len() < 20 {
                        let resp = s.handle(&request("POST", "/v1/jobs", &body));
                        let answer = body_json(&resp.body);
                        assert_eq!(answer["id"], id, "{answer}");
                        match resp.status {
                            200 => {
                                let (status, bytes) = result_bytes(&s, id);
                                assert_eq!(status, 200, "a hit's id resolves at once");
                                served.push(bytes);
                            }
                            202 => assert!(Instant::now() < deadline, "job {id} never finished"),
                            other => panic!("{other}: {answer}"),
                        }
                    }
                    served
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    assert_eq!(served.len(), 80);
    let (status, bytes) = result_bytes(&s, id);
    assert_eq!(status, 200);
    assert!(served.iter().all(|seen| *seen == bytes));
    assert!(hit_records(&journal).is_empty());
}

#[test]
fn a_hit_that_refers_to_a_journaled_body_resolves_after_restart() {
    let journal = tmp("hit-replayed.jsonl");
    let _ = std::fs::remove_file(&journal);

    let s = state_with(journaled_config(&journal));
    let body = submit_body("verify", ", \"k\": 4");
    let id = computed(&s, &body);
    let (_, before) = result_bytes(&s, id);
    s.begin_drain();
    s.shutdown_pool();
    drop(s);

    // Replay names the job in the cache: a hit answers with its id, reads
    // the same bytes, and neither runs nor journals anything.
    let len = file_len(&journal);
    let s = state_with(journaled_config(&journal));
    assert_eq!(submit_hit(&s, &body), id);
    let (status, after) = result_bytes(&s, id);
    assert_eq!(status, 200, "the id resolves across a restart");
    assert_eq!(after, before, "byte-identical across restart");
    assert_eq!(String::from_utf8(after).unwrap(), cli_document(4));
    assert_eq!(s.executed(), 0);
    assert_eq!(file_len(&journal), len);
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 5"),
    ));
    let next = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(next, id + 1, "fresh submits continue the id space");
}

#[test]
fn the_first_hit_into_a_fresh_journal_carries_the_body() {
    let snapshot = tmp("hit-carried.snap");
    let journal = tmp("hit-carried.jsonl");
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&journal);
    let body = submit_body("verify", ", \"k\": 4");

    // Warm the snapshot on a server without a journal.
    let s = state_with(ServeConfig {
        threads: 1,
        cache_snapshot: Some(snapshot.clone()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    });
    computed(&s, &body);
    s.begin_drain();
    s.shutdown_pool();
    drop(s);

    // Boot warm into a fresh journal: no job computed the restored
    // document, so the first hit adopts it under a new id and journals
    // the body once; later hits answer with that id and write nothing.
    let s = state_with(ServeConfig {
        cache_snapshot: Some(snapshot.clone()),
        ..journaled_config(&journal)
    });
    let first = submit_hit(&s, &body);
    let len = file_len(&journal);
    assert_eq!(submit_hit(&s, &body), first);
    assert_eq!(file_len(&journal), len);
    let (_, before) = result_bytes(&s, first);
    s.begin_drain();
    s.shutdown_pool();
    drop(s);
    let hits = hit_records(&journal);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0]["id"], first);
    assert_eq!(
        hits[0]["body"].as_str().map(str::as_bytes),
        Some(&before[..])
    );

    // The journal alone, without the snapshot, resolves the id and names
    // it in the cache.
    let s = state_with(journaled_config(&journal));
    let (status, after) = result_bytes(&s, first);
    assert_eq!(status, 200, "the adopted id resolves across a restart");
    assert_eq!(after, before);
    assert_eq!(String::from_utf8(before).unwrap(), cli_document(4));
    assert_eq!(submit_hit(&s, &body), first);
    assert_eq!(s.executed(), 0);
}

#[test]
fn a_journal_from_a_newer_binary_is_refused() {
    let journal = tmp("newer.jsonl");
    let wire = format!(
        "{}{}",
        frame(&json!({"ev": "serve", "version": 3})),
        frame(&json!({"ev": "verdict", "id": 1, "key": "k"})),
    );
    std::fs::write(&journal, &wire).unwrap();
    let err = match ServeState::new(&journaled_config(&journal)) {
        Ok(_) => panic!("a version 3 journal must not replay"),
        Err(err) => err,
    };
    assert!(err.contains("version 3"), "{err}");
    assert!(err.contains("version 2"), "{err}");
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap(),
        wire,
        "the refused journal is left as it was"
    );
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
    /// A cache hit and the body it must resolve to.
    Hit(u64, &'static str),
}

/// A realistic interleaved journal: submits, terminals and cache hits
/// mixed, job 4 never finishing. Hit 5 refers to job 1's body, hit 6
/// carries its own body for a key no earlier record holds, and hit 7
/// refers to hit 6's. Returns the wire bytes and, per frame, its end
/// offset and its event.
fn synthetic_journal() -> (Vec<u8>, Vec<(usize, Ev)>) {
    let frames = vec![
        (json!({"ev": "serve", "version": 2}), Ev::Header),
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
            json!({"ev": "hit", "id": 5, "kind": "verify", "key": "key-1"}),
            Ev::Hit(5, "doc-1"),
        ),
        (
            json!({"ev": "timed_out", "id": 3, "partial": "rows…"}),
            Ev::Terminal(3, "timed_out"),
        ),
        (
            json!({"ev": "hit", "id": 6, "kind": "sweep", "key": "key-6", "exit_code": 2, "body": "doc-6"}),
            Ev::Hit(6, "doc-6"),
        ),
        (
            json!({"ev": "hit", "id": 7, "kind": "sweep", "key": "key-6"}),
            Ev::Hit(7, "doc-6"),
        ),
    ];
    let mut wire = Vec::new();
    let mut events = Vec::new();
    for (value, ev) in frames {
        wire.extend_from_slice(frame(&value).as_bytes());
        events.push((wire.len(), ev));
    }
    (wire, events)
}

proptest! {
    /// Truncating the journal at *any* byte offset, replay recovers
    /// exactly the frames that fully survived: every completed result in
    /// the replay matches a terminal frame inside the valid prefix (none
    /// invented, none duplicated), every surviving hit resolves to the
    /// body it refers to, and the re-enqueue set is exactly the
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
        let mut hits: Vec<(u64, &str)> = Vec::new();
        for (end, ev) in &events {
            if *end > expected_valid {
                break;
            }
            match ev {
                Ev::Header => {}
                Ev::Submitted(id) => submitted.push(*id),
                Ev::Terminal(id, label) => terminal.push((*id, label)),
                Ev::Hit(id, body) => hits.push((*id, body)),
            }
        }

        // Exactly the surviving submits and hits are known: a hit is
        // known if and only if its own frame survived. Ids are unique, so
        // a completed result can never appear twice.
        let mut known: Vec<u64> = replayed.jobs.keys().copied().collect();
        known.sort_unstable();
        let mut expected_known: Vec<u64> =
            submitted.iter().chain(hits.iter().map(|(id, _)| id)).copied().collect();
        expected_known.sort_unstable();
        prop_assert_eq!(known, expected_known);

        // Every surviving hit is done, with the body it refers to.
        for &(id, body) in &hits {
            match &replayed.jobs[&id].terminal {
                Some(JobState::Done { doc }) => prop_assert_eq!(doc.body.as_str(), body),
                other => prop_assert!(false, "hit {} replayed as {:?}", id, other),
            }
        }

        // Terminal states match the surviving terminal frames 1:1.
        for &(id, label) in &terminal {
            let job = &replayed.jobs[&id];
            let got = job.terminal.as_ref().map_or("pending", JobState::label);
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

        // next_id never collides with a journaled submit or hit.
        let max_submitted = submitted.iter().copied().max().unwrap_or(0);
        prop_assert!(replayed.next_id > max_submitted || submitted.is_empty());
        for &(id, _) in &hits {
            prop_assert!(replayed.next_id > id);
        }
    }
}
