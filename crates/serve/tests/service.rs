//! End-to-end tests of the HTTP verification service.
//!
//! Most tests drive the router in-process through [`ServeState::handle`]
//! — the exact code path a socket request takes after parsing — because
//! that keeps them fast and deterministic. A second group opens real
//! `TcpStream`s against a bound [`Server`] to cover the transport
//! concerns (torn requests, oversized bodies, pipelining, drain).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use selfstab_global::{check::ConvergenceReport, EngineConfig, RingInstance};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_serve::http::Request;
use selfstab_serve::{render, PendingCaps, ServeConfig, ServeState, Server};
use serde_json::Value;

const AGREEMENT: &str = "\
protocol agreement
domain x { 0 1 }
locality unidirectional
legit x[r] == x[r-1]
action x[r-1] == 1 && x[r] == 0 -> x[r] := 1
";

fn state() -> Arc<ServeState> {
    state_with(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
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

/// Polls `/v1/jobs/:id` until the job leaves queued/running.
fn await_job(state: &Arc<ServeState>, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = state.handle(&request("GET", &format!("/v1/jobs/{id}"), ""));
        assert_eq!(resp.status, 200);
        let status = body_json(&resp.body)["status"].as_str().unwrap().to_owned();
        if status != "queued" && status != "running" {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The `check --json` bytes the CLI would print for this spec at `k`.
fn cli_document(k: usize) -> String {
    let protocol = parse_protocol_file(AGREEMENT).unwrap();
    let ring = RingInstance::symmetric(&protocol, k).unwrap();
    let report = ConvergenceReport::check_with(&ring, &EngineConfig::default());
    render::check_document(vec![render::convergence_report(&report)])
}

#[test]
fn healthz_and_metrics_respond() {
    let s = state();
    let resp = s.handle(&request("GET", "/v1/healthz", ""));
    assert_eq!(resp.status, 200);
    assert_eq!(body_json(&resp.body)["status"], "ok");
    let resp = s.handle(&request("GET", "/v1/metrics", ""));
    assert_eq!(resp.status, 200);
    assert!(!body_json(&resp.body)["counters"].is_null());
}

#[test]
fn verify_round_trip_is_byte_identical_to_cli_json() {
    let s = state();
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 4"),
    ));
    assert_eq!(
        resp.status,
        202,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");

    let resp = s.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers
            .iter()
            .find(|(n, _)| n == "x-selfstab-exit-code")
            .map(|(_, v)| v.as_str()),
        Some("0")
    );
    assert_eq!(String::from_utf8(resp.body).unwrap(), cli_document(4));

    // The status document carries the phase breakdown.
    let status = s.handle(&request("GET", &format!("/v1/jobs/{id}"), ""));
    let doc = body_json(&status.body);
    assert!(doc["phases_us"]["fused_scan"].as_u64().is_some(), "{doc}");
}

#[test]
fn repeated_submit_is_served_from_cache_without_pool_work() {
    let s = state();
    let body = submit_body("verify", ", \"k\": 4");
    let first = s.handle(&request("POST", "/v1/jobs", &body));
    assert_eq!(first.status, 202);
    let id = body_json(&first.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");
    let executed_before = s.executed();
    assert_eq!(executed_before, 1);
    let stats = body_json(&s.handle(&request("GET", "/v1/cache/stats", "")).body);
    let hits_before = stats["hits"].as_u64().unwrap();

    // Identical spec modulo whitespace/comments → same content address.
    let restyled = format!(
        "# resubmitted\n{}",
        AGREEMENT.replace("action", "   action")
    );
    let body2 = format!(
        "{{\"kind\": \"verify\", \"k\": 4, \"spec\": {}}}",
        Value::String(restyled)
    );
    let second = s.handle(&request("POST", "/v1/jobs", &body2));
    assert_eq!(second.status, 200, "cache hits answer immediately");
    let doc = body_json(&second.body);
    assert_eq!(doc["cached"], true);
    let id2 = doc["id"].as_u64().unwrap();
    assert_eq!(id2, id, "a hit answers with the computing job's id");

    // Hit counter moved; the pool executed nothing new.
    let stats = body_json(&s.handle(&request("GET", "/v1/cache/stats", "")).body);
    assert_eq!(stats["hits"].as_u64().unwrap(), hits_before + 1);
    assert_eq!(s.executed(), executed_before);

    // And the served document is the same bytes as the computed one.
    let r1 = s.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
    let r2 = s.handle(&request("GET", &format!("/v1/jobs/{id2}/result"), ""));
    assert_eq!(r1.body, r2.body);
    assert_eq!(String::from_utf8(r2.body).unwrap(), cli_document(4));
}

#[test]
fn concurrent_identical_submits_coalesce_to_one_pool_job() {
    let s = state();
    let body = submit_body("sweep", ", \"k\": 2, \"to\": 9");
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let body = body.clone();
                scope.spawn(move || {
                    let resp = s.handle(&request("POST", "/v1/jobs", &body));
                    assert!(resp.status == 200 || resp.status == 202, "{}", resp.status);
                    body_json(&resp.body)["id"].as_u64().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every submit resolved to a job; wait for each named job to settle.
    for &id in &ids {
        assert_eq!(await_job(&s, id), "done");
    }
    assert_eq!(s.executed(), 1, "single-flight: one pool job for 8 clients");
    let first = s.handle(&request("GET", &format!("/v1/jobs/{}/result", ids[0],), ""));
    assert_eq!(first.status, 200);
    for &id in &ids[1..] {
        let resp = s.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, first.body, "byte-identical across clients");
    }
}

#[test]
fn submit_errors_are_structured() {
    let s = state();
    // Malformed JSON → 400 with an error field.
    let resp = s.handle(&request("POST", "/v1/jobs", "{not json"));
    assert_eq!(resp.status, 400);
    assert!(!body_json(&resp.body)["error"].is_null());
    // Well-formed JSON, unparsable spec → 422.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        "{\"kind\": \"verify\", \"k\": 3, \"spec\": \"garbage\"}",
    ));
    assert_eq!(resp.status, 422);
    assert!(body_json(&resp.body)["error"]
        .as_str()
        .unwrap()
        .contains("does not parse"));
    // Over-budget K is refused at submit, before any queueing.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 64"),
    ));
    assert_eq!(resp.status, 422);
    assert_eq!(s.executed(), 0);
}

#[test]
fn unknown_routes_jobs_and_methods() {
    let s = state();
    assert_eq!(s.handle(&request("GET", "/nope", "")).status, 404);
    assert_eq!(s.handle(&request("GET", "/v1/jobs/999", "")).status, 404);
    assert_eq!(
        s.handle(&request("GET", "/v1/jobs/999/result", "")).status,
        404
    );
    assert_eq!(s.handle(&request("DELETE", "/v1/healthz", "")).status, 405);
    assert_eq!(s.handle(&request("GET", "/v1/jobs", "")).status, 405);
}

#[test]
fn expired_deadline_times_out_with_partial_rows() {
    let s = state();
    // timeout_ms 0: the deadline passes before the job is dequeued, so
    // the scan aborts at its first cancel poll.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("sweep", ", \"k\": 2, \"to\": 10, \"timeout_ms\": 0"),
    ));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "timed_out");
    let resp = s.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
    assert_eq!(resp.status, 504);
    let doc = body_json(&resp.body);
    assert_eq!(doc["partial"], true);
    assert!(doc["rows"].as_array().is_some());
    // A timed-out result is never cached: resubmitting without the
    // deadline computes fresh.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("sweep", ", \"k\": 2, \"to\": 10"),
    ));
    assert_eq!(resp.status, 202, "no stale in-flight reservation");
}

#[test]
fn synthesize_jobs_complete_with_solutions() {
    let s = state();
    let resp = s.handle(&request("POST", "/v1/jobs", &submit_body("synthesize", "")));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");
    let resp = s.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
    assert_eq!(resp.status, 200);
    let doc = body_json(&resp.body);
    assert_eq!(doc["protocol"], "agreement");
    assert!(!doc["solutions"].as_array().unwrap().is_empty());
}

#[test]
fn draining_state_refuses_submits_with_structured_retry_after() {
    let s = state();
    s.begin_drain();
    let resp = s.handle(&request("GET", "/v1/healthz", ""));
    assert_eq!(resp.status, 200, "liveness stays 200 while draining");
    assert_eq!(body_json(&resp.body)["status"], "draining");
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 3"),
    ));
    assert_eq!(resp.status, 503);
    let doc = body_json(&resp.body);
    assert_eq!(doc["code"], "draining", "{doc}");
    assert!(!doc["error"].is_null());
    assert!(
        resp.headers.iter().any(|(n, _)| n == "retry-after"),
        "503 drain carries Retry-After"
    );
}

#[test]
fn a_job_the_pool_refuses_parks_as_drained() {
    // A drain can shut the pool between the submit's drain check and the
    // enqueue. The refused job must not sit `queued` forever, holding its
    // admission slot and its in-flight cache reservation.
    let s = state();
    s.shutdown_pool();
    let body = submit_body("verify", ", \"k\": 4");
    let resp = s.handle(&request("POST", "/v1/jobs", &body));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "drained");
    let resp = s.handle(&request("GET", &format!("/v1/jobs/{id}/result"), ""));
    assert_eq!(resp.status, 503);
    assert_eq!(body_json(&resp.body)["code"], "drained");
    let ready = body_json(&s.handle(&request("GET", "/v1/readyz", "")).body);
    assert_eq!(ready["pending"]["verify"], 0u64, "{ready}");
    // The trace root is closed: its duration no longer grows.
    let root_dur = || {
        let trace = s.handle(&request("GET", &format!("/v1/jobs/{id}/trace"), ""));
        body_json(&trace.body)["traceEvents"][0]["dur"]
            .as_u64()
            .unwrap()
    };
    let dur = root_dur();
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(root_dur(), dur);
    // The reservation was abandoned: a resubmit is a fresh job, not a
    // coalesce onto the parked one.
    let doc = body_json(&s.handle(&request("POST", "/v1/jobs", &body)).body);
    assert!(doc["coalesced"].is_null(), "{doc}");
    assert_ne!(doc["id"].as_u64(), Some(id), "{doc}");
    assert_eq!(s.executed(), 0);
}

#[test]
fn readyz_reports_ready_saturated_and_draining() {
    let s = state();
    let resp = s.handle(&request("GET", "/v1/readyz", ""));
    assert_eq!(resp.status, 200);
    let doc = body_json(&resp.body);
    assert_eq!(doc["status"], "ready");
    assert_eq!(doc["shed_level"], 0u64);
    assert_eq!(doc["pending"]["verify"], 0u64);

    s.admission().force_shed_level(2);
    let resp = s.handle(&request("GET", "/v1/readyz", ""));
    assert_eq!(resp.status, 503);
    let doc = body_json(&resp.body);
    assert_eq!(doc["status"], "saturated");
    assert_eq!(doc["shed_level"], 2u64);
    let shedding: Vec<&str> = doc["shedding"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(shedding, ["synthesize", "sweep"]);
    s.admission().force_shed_level(0);

    s.begin_drain();
    let resp = s.handle(&request("GET", "/v1/readyz", ""));
    assert_eq!(resp.status, 503);
    assert_eq!(body_json(&resp.body)["status"], "draining");
}

#[test]
fn full_admission_queue_sheds_with_429_and_retry_after() {
    // A zero synthesize cap makes the queue-full path deterministic.
    let s = state_with(ServeConfig {
        caps: PendingCaps {
            verify: 256,
            sweep: 64,
            synthesize: 0,
        },
        ..ServeConfig::default()
    });
    let resp = s.handle(&request("POST", "/v1/jobs", &submit_body("synthesize", "")));
    assert_eq!(resp.status, 429);
    let doc = body_json(&resp.body);
    assert_eq!(doc["code"], "queue_full", "{doc}");
    assert!(doc["error"].as_str().unwrap().contains("synthesize"));
    assert!(
        resp.headers.iter().any(|(n, _)| n == "retry-after"),
        "429 carries Retry-After"
    );
    assert_eq!(s.executed(), 0, "shed traffic never reaches the pool");
    // Cheaper kinds are untouched by the synthesize cap.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 3"),
    ));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");
}

#[test]
fn memory_pressure_sheds_expensive_kinds_first() {
    let s = state();
    s.admission().force_shed_level(1);
    let resp = s.handle(&request("POST", "/v1/jobs", &submit_body("synthesize", "")));
    assert_eq!(resp.status, 429);
    assert_eq!(body_json(&resp.body)["code"], "memory_pressure");
    // Sweep and verify still flow at level 1.
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 3"),
    ));
    assert_eq!(resp.status, 202);
    let id = body_json(&resp.body)["id"].as_u64().unwrap();
    assert_eq!(await_job(&s, id), "done");

    s.admission().force_shed_level(3);
    let resp = s.handle(&request(
        "POST",
        "/v1/jobs",
        &submit_body("verify", ", \"k\": 4"),
    ));
    assert_eq!(resp.status, 429);
    assert_eq!(body_json(&resp.body)["code"], "memory_pressure");
    s.admission().force_shed_level(0);
    // Rejections released their admission slots: occupancy drained to 0.
    let doc = body_json(&s.handle(&request("GET", "/v1/readyz", "")).body);
    assert_eq!(doc["pending"]["verify"], 0u64);
    assert_eq!(doc["pending"]["synthesize"], 0u64);
}

// ---- transport-level tests over real sockets -----------------------------

fn spawn_server() -> (
    std::net::SocketAddr,
    Arc<ServeState>,
    std::thread::JoinHandle<()>,
) {
    spawn_server_with(ServeConfig {
        port: 0,
        threads: 1,
        ..ServeConfig::default()
    })
}

fn spawn_server_with(
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    Arc<ServeState>,
    std::thread::JoinHandle<()>,
) {
    let server = Server::bind(&config).expect("bind an ephemeral port");
    let addr = server.local_addr().unwrap();
    let state = server.state();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, state, handle)
}

fn talk(addr: std::net::SocketAddr, wire: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(wire).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn socket_requests_route_and_pipelined_requests_each_answer() {
    let (addr, state, handle) = spawn_server();
    let one = talk(addr, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(one.starts_with("HTTP/1.1 200 OK\r\n"), "{one}");
    // Two pipelined requests in one segment → two responses in order.
    let two = talk(
        addr,
        b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/cache/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(two.matches("HTTP/1.1 200 OK\r\n").count(), 2, "{two}");
    assert!(two.contains("budget_bytes"), "{two}");
    state.begin_drain();
    handle.join().unwrap();
}

#[test]
fn socket_rejects_malformed_oversized_and_torn_requests() {
    let (addr, state, handle) = spawn_server();
    // Malformed head → 400 and close, no panic.
    let resp = talk(addr, b"WHAT\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    // Declared body over the limit → 413.
    let resp = talk(
        addr,
        format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            64 * 1024 * 1024
        )
        .as_bytes(),
    );
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");
    // Torn mid-body (half-closed socket) → 408 and close.
    let resp = talk(
        addr,
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"kind\":",
    );
    assert!(resp.starts_with("HTTP/1.1 408 "), "{resp}");
    assert!(resp.contains("request_timeout"), "{resp}");
    // Malformed JSON body on a complete request → structured 400.
    let body = "{broken";
    let resp = talk(
        addr,
        format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    assert!(resp.contains("invalid JSON"), "{resp}");
    // The server survived all of it.
    let resp = talk(addr, b"GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    state.begin_drain();
    handle.join().unwrap();
}

/// The slow-loris trio: a header dribble, a stalled body, and a
/// half-closed socket each get a `408` within the connection deadlines
/// and free their worker (the server keeps answering afterwards).
#[test]
fn slow_clients_get_408_and_free_their_worker() {
    use std::io::{Read, Write};
    let (addr, state, handle) = spawn_server_with(ServeConfig {
        port: 0,
        threads: 1,
        idle_timeout: Duration::from_millis(150),
        request_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    });

    // 1. Header dribble: a few bytes of request head, then silence.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /v1/hea").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 408 "), "dribbled head: {out}");

    // 2. Stalled body: complete head promising bytes that never arrive,
    //    socket held open.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"ki")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 408 "), "stalled body: {out}");
    assert!(out.contains("request_timeout"), "{out}");

    // 3. Half-closed socket mid-body: EOF before the declared length.
    let out = talk(
        addr,
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"ki",
    );
    assert!(out.starts_with("HTTP/1.1 408 "), "half-closed: {out}");

    // Each 408 freed the worker: a healthy request still answers.
    let resp = talk(addr, b"GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    state.begin_drain();
    handle.join().unwrap();
}

#[test]
fn drain_stops_the_accept_loop() {
    let (addr, state, handle) = spawn_server();
    assert!(talk(addr, b"GET /v1/healthz HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 200"));
    state.begin_drain();
    handle.join().unwrap();
    // The listener is gone: connecting now fails (or is refused on read).
    let gone = TcpStream::connect(addr);
    if let Ok(mut stream) = gone {
        use std::io::{Read, Write};
        let _ = stream.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert_eq!(out, "", "no handler behind a drained listener");
    }
}

#[test]
fn busy_port_is_a_bind_error_not_a_panic() {
    let first = Server::bind(&ServeConfig {
        port: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let port = first.local_addr().unwrap().port();
    let second = Server::bind(&ServeConfig {
        port,
        ..ServeConfig::default()
    });
    assert!(second.is_err(), "second bind on {port} must fail cleanly");
}
