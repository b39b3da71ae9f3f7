//! `serve-warm`: the real `selfstab_serve::Server` over loopback, booted
//! from a prefilled journal and cache snapshot, driven by one keep-alive
//! client connection with one request outstanding, against one pool
//! thread.
//!
//! Hits are answered from the cache inside the POST and fetched with one
//! GET; cold jobs are polled at a fixed cadence until their document is
//! in hand.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use selfstab_campaign::FsyncPolicy;
use selfstab_serve::http::{Request, Response};
use selfstab_serve::{ServeConfig, ServeState, Server};
use serde_json::{json, Value};

use crate::corpus::{catalogue, Job, Spec};
use crate::inproc::Tally;
use crate::oracle::Oracle;
use crate::report::{e2e_metrics, latency_info, ratio, run_dir, Layer, Report};
use crate::spans::Recorder;
use crate::stats::{median, quantile};
use crate::workloads::{self, Workload};
use crate::Args;

/// Fixed poll cadence for cold jobs.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// Boots per run; `setup_s` is their median. The first boot starts the
/// server the run measures; the others start and stop a second server
/// from its own fresh copy of the prefill, spread between the rounds, so
/// the set-up samples come from the same stretch of the run as the
/// rounds.
const BOOTS: usize = 17;

const JOURNAL: &str = "journal.jsonl";
const SNAPSHOT: &str = "snapshot.jsonl";

/// A minimal HTTP/1.1 keep-alive client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct Reply {
    pub status: u16,
    pub exit_code: Option<u8>,
    pub body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n",
            body.len()
        )
        .into_bytes();
        if !body.is_empty() {
            req.extend_from_slice(b"content-type: application/json\r\n");
        }
        req.extend_from_slice(b"\r\n");
        req.extend_from_slice(body);
        self.writer.write_all(&req)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let mut length = 0usize;
        let mut exit_code = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-response"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => length = value.trim().parse().map_err(|_| bad("length"))?,
                    "x-selfstab-exit-code" => exit_code = value.trim().parse().ok(),
                    _ => {}
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            exit_code,
            body,
        })
    }

    fn json(&mut self, path: &str) -> Result<Value, String> {
        let reply = self.call("GET", path, b"").map_err(|e| e.to_string())?;
        parse_json(&reply.body).map_err(|e| format!("{path}: {e}"))
    }
}

fn parse_json(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        port: 0,
        threads: 1,
        journal: Some(dir.join(JOURNAL)),
        cache_snapshot: Some(dir.join(SNAPSHOT)),
        fsync: FsyncPolicy::Batch,
        ..ServeConfig::default()
    }
}

fn local(method: &str, path: &str, body: &[u8]) -> Request {
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: String::new(),
        headers: Vec::new(),
        body: body.to_vec(),
        keep_alive: true,
    }
}

fn reply_json(resp: &Response) -> Value {
    parse_json(&resp.body).unwrap_or(Value::Null)
}

/// Writes the prefill journal and snapshot into `dir`: every prefill
/// request submitted once and computed, its document checked against the
/// oracle. Driven through the router in-process, so the files are exactly
/// what the server writes.
fn prefill(
    dir: &Path,
    prefill: &[Job],
    catalogue: &[Spec],
    oracle: &mut Oracle,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let state = ServeState::new(&config(dir))?;
    for job in prefill {
        let body = job.body(catalogue).to_string();
        let resp = state.handle(&local("POST", "/v1/jobs", body.as_bytes()));
        let id = reply_json(&resp)["id"]
            .as_u64()
            .ok_or_else(|| format!("prefill submit answered {}", resp.status))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let resp = loop {
            let resp = state.handle(&local("GET", &format!("/v1/jobs/{id}/result"), b""));
            if resp.status != 202 || Instant::now() > deadline {
                break resp;
            }
            std::thread::sleep(POLL_EVERY);
        };
        let code = resp
            .headers
            .iter()
            .find(|(n, _)| n == "x-selfstab-exit-code")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(255);
        let doc = String::from_utf8(resp.body).map_err(|e| e.to_string())?;
        oracle.check(job, &doc, code)?;
    }
    state.begin_drain();
    state.shutdown_pool();
    Ok(())
}

fn fresh_copy(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for name in [JOURNAL, SNAPSHOT] {
        std::fs::copy(from.join(name), to.join(name)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Boots a server from a fresh copy of the prefill, waits for `readyz`,
/// hands the connected client to `work`, then closes the connection,
/// drains the server and joins it. Returns the set-up time — bind,
/// journal replay, snapshot restore and the first `readyz` — and what
/// `work` returned. The client connects before the accept loop starts,
/// so the loop's idle sleep never lands inside the measurement.
fn with_server<T>(
    prefill_dir: &Path,
    dir: &Path,
    work: impl FnOnce(&mut Client) -> T,
) -> Result<(Duration, T), String> {
    fresh_copy(prefill_dir, dir)?;
    let started = Instant::now();
    let server = Server::bind(&config(dir))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let state = server.state();
    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run());
        let result = await_ready(&mut client).map(|ready| (ready - started, work(&mut client)));
        drop(client);
        state.begin_drain();
        match running.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    })
}

/// Waits for `readyz` to answer `ready`; returns the moment it did.
fn await_ready(client: &mut Client) -> Result<Instant, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = client
            .call("GET", "/v1/readyz", b"")
            .map_err(|e| e.to_string())?;
        let ready = reply.status == 200
            && parse_json(&reply.body).is_ok_and(|v| v["status"].as_str() == Some("ready"));
        if ready {
            return Ok(Instant::now());
        }
        if Instant::now() > deadline {
            return Err("server never became ready".to_owned());
        }
        std::thread::sleep(POLL_EVERY);
    }
}

/// Client-side facts of a run besides the latency tally.
#[derive(Default)]
struct Side {
    pub cold_ids: Vec<u64>,
    pub polls: u64,
    pub non_2xx: u64,
    /// Round trips of every POST and of every GET, ms.
    pub post_ms: Vec<f64>,
    pub get_ms: Vec<f64>,
    /// Result documents delivered, kept when `keep_docs` is set (the
    /// traced run re-renders them from outside).
    pub keep_docs: bool,
    pub docs: Vec<Vec<u8>>,
}

/// One HTTP exchange, as a client span when traced.
fn exchange(
    client: &mut Client,
    rec: &mut Option<(&mut Recorder, u64)>,
    side: &mut Side,
    method: &str,
    path: &str,
    body: &[u8],
    name: &'static str,
) -> Result<Reply, String> {
    let started = Instant::now();
    let reply = match rec {
        Some((rec, id)) => rec.span(name, *id, |_| client.call(method, path, body)),
        None => client.call(method, path, body),
    }
    .map_err(|e| format!("{method} {path}: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if method == "POST" {
        side.post_ms.push(ms);
    } else {
        side.get_ms.push(ms);
    }
    if !(200..300).contains(&reply.status) {
        side.non_2xx += 1;
    }
    Ok(reply)
}

/// Submits one job and fetches its document: a hit with one GET, a cold
/// job by polling at [`POLL_EVERY`]. With a recorder, every POST, wait,
/// poll and final GET is a client span under the job's root.
fn request(
    client: &mut Client,
    body: &[u8],
    mut rec: Option<(&mut Recorder, u64)>,
    side: &mut Side,
) -> Result<Reply, String> {
    let post = exchange(
        client,
        &mut rec,
        side,
        "POST",
        "/v1/jobs",
        body,
        "client.post",
    )?;
    let ack = parse_json(&post.body)?;
    let id = ack["id"]
        .as_u64()
        .ok_or(format!("submit answered {}", post.status))?;
    let cold = match post.status {
        200 => false,
        202 => true,
        s => return Err(format!("submit answered {s}")),
    };
    let path = format!("/v1/jobs/{id}/result");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut polls = 0;
    loop {
        let name = if cold {
            match &mut rec {
                Some((rec, id)) => rec.span("client.wait", *id, |_| std::thread::sleep(POLL_EVERY)),
                None => std::thread::sleep(POLL_EVERY),
            }
            "client.poll"
        } else {
            "client.get"
        };
        let reply = exchange(client, &mut rec, side, "GET", &path, b"", name)?;
        if reply.status != 202 {
            if cold {
                side.cold_ids.push(id);
                side.polls += polls;
            }
            return Ok(reply);
        }
        polls += 1;
        if Instant::now() > deadline {
            return Err("job never finished".to_owned());
        }
    }
}

/// Runs `jobs` as a closed loop, checking every document. The request
/// bodies are built before the first request, off the clock. Traced runs
/// record each request under a `job` root span numbered from `next_id`.
#[allow(clippy::too_many_arguments)]
fn run_jobs(
    client: &mut Client,
    jobs: &[Job],
    cat: &[Spec],
    oracle: &mut Oracle,
    limit_ms: f64,
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
    next_id: &mut u64,
    side: &mut Side,
) {
    let bodies: Vec<Vec<u8>> = jobs
        .iter()
        .map(|j| j.body(cat).to_string().into_bytes())
        .collect();
    for (job, body) in jobs.iter().zip(&bodies) {
        *next_id += 1;
        let id = *next_id;
        let started = Instant::now();
        let reply = match rec.as_deref_mut() {
            Some(r) => r.span(crate::spans::ROOT, id, |r| {
                request(client, body, Some((r, id)), side)
            }),
            None => request(client, body, None, side),
        };
        let elapsed = started.elapsed();
        let verdict = reply.and_then(|reply| {
            if reply.status != 200 {
                return Err(format!("result answered {}", reply.status));
            }
            let doc = std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?;
            let checked = oracle.check(job, doc, reply.exit_code.unwrap_or(u8::MAX));
            if side.keep_docs {
                side.docs.push(reply.body);
            }
            checked
        });
        tally.record(elapsed, verdict, limit_ms);
    }
}

/// Sum and count of every histogram in a `/v1/metrics` document whose
/// name starts with `prefix`.
fn histogram(metrics: &Value, prefix: &str) -> (f64, f64) {
    let mut sum = 0.0;
    let mut count = 0.0;
    if let Value::Object(map) = &metrics["histograms"] {
        for (name, h) in map {
            if name.starts_with(prefix) {
                sum += h["sum"].as_f64().unwrap_or(0.0);
                count += h["count"].as_f64().unwrap_or(0.0);
            }
        }
    }
    (sum, count)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs serve-warm: untraced for the end-to-end metrics, or traced for
/// the per-layer ones.
pub fn run(args: &Args) -> Result<Report, String> {
    let workload = Workload::ServeWarm;
    let cat = catalogue();
    let mut oracle = Oracle::new(&cat);
    let limit = workload.latency_limit_ms();
    let state_dir = run_dir().join(format!("serve-{}", std::process::id()));
    let prefill_dir = state_dir.join("prefill");
    let boot_dir = state_dir.join("boot");
    let prefill_jobs = workloads::serve_prefill(&cat);

    // The traced run pairs an untraced and a traced round, each with its
    // own cold keys, over a quarter of the rounds.
    let rounds = workload.rounds(args.seconds);
    let rounds = if args.trace {
        2 * (rounds / 8).max(1)
    } else {
        rounds
    };
    let (distinct, mut list) = workloads::job_list(workload, &cat, args.seed, rounds);
    // Reference documents: every served document, the prefill's included,
    // must equal in-process `jobs::execute` on the same request, byte for
    // byte. A cold job's `max_states` leaves its document unchanged.
    let (cancel, _) = crate::inproc::set_up();
    for job in prefill_jobs.iter().chain(&distinct) {
        if oracle.accepted(job).is_none() {
            let (doc, code, _) = crate::inproc::run_job(&job.body(&cat), &cancel)?;
            oracle.check(job, &doc, code)?;
        }
    }
    prefill(&prefill_dir, &prefill_jobs, &cat, &mut oracle)?;
    let mut tally = Tally::default();
    let mut side = Side::default();

    if !args.trace {
        let spare_dir = state_dir.join("spare");
        let boot_every = (rounds / (BOOTS - 1)).max(1);
        let mut setups = Vec::new();
        let (setup, booted) = with_server(&prefill_dir, &boot_dir, |client| {
            let mut next_id = 0;
            for (r, jobs) in list.enumerate() {
                if r % boot_every == 0 && setups.len() < BOOTS - 1 {
                    let (setup, ()) = with_server(&prefill_dir, &spare_dir, |_| ())?;
                    setups.push(setup.as_secs_f64());
                }
                tally.round(|t| {
                    run_jobs(
                        client,
                        &jobs,
                        &cat,
                        &mut oracle,
                        limit,
                        t,
                        None,
                        &mut next_id,
                        &mut side,
                    )
                });
            }
            Ok::<(), String>(())
        })?;
        booted?;
        setups.push(setup.as_secs_f64());
        let _ = std::fs::remove_dir_all(&state_dir);
        return Ok(Report {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: e2e_metrics(&tally, median(&setups)),
            info: json!({
                "rounds": rounds,
                "boots": setups.len(),
                "latency": latency_info(&tally),
                "cold_jobs": side.cold_ids.len(),
                "polls_per_cold_job": ratio(side.polls as f64, side.cold_ids.len() as f64),
                "non_2xx": side.non_2xx,
            }),
            errors: tally.errors,
        });
    }

    // Traced: alternate untraced and traced rounds on one server; then
    // read the server's own histograms and phases, and time the boot
    // layers and per-request layers from outside on the same inputs.
    let mut rec = Recorder::new();
    let mut traced_tally = Tally::default();
    let mut traced_side = Side {
        keep_docs: true,
        ..Default::default()
    };
    let journal = boot_dir.join("journal.jsonl");
    let (_, server_view) = with_server(&prefill_dir, &boot_dir, |client| {
        let journal_before = file_len(&journal);
        let mut next_id = 0;
        while let (Some(untraced), Some(traced)) = (list.next(), list.next()) {
            run_jobs(
                client,
                &untraced,
                &cat,
                &mut oracle,
                limit,
                &mut tally,
                None,
                &mut next_id,
                &mut side,
            );
            run_jobs(
                client,
                &traced,
                &cat,
                &mut oracle,
                limit,
                &mut traced_tally,
                Some(&mut rec),
                &mut next_id,
                &mut traced_side,
            );
        }
        let untraced_ms = tally.busy.as_secs_f64() * 1e3;
        let journal_growth = file_len(&journal) - journal_before;
        let metrics = client.json("/v1/metrics")?;
        let cache = client.json("/v1/cache/stats")?;
        let mut phases = (0.0, 0.0, 0.0);
        for id in side.cold_ids.iter().chain(&traced_side.cold_ids) {
            let status = client.json(&format!("/v1/jobs/{id}"))?;
            let us = |phase: &str| status["phases_us"][phase].as_f64().unwrap_or(0.0);
            phases.0 += us("fused_scan");
            phases.1 += us("livelock_dfs");
            phases.2 += us("synthesis");
        }
        Ok::<_, String>((metrics, cache, phases, journal_growth, untraced_ms))
    })?;
    let (metrics, cache, phases, journal_growth, untraced_ms) = server_view?;
    let totals = rec.totals();

    // Boot layers from outside, on fresh copies of the same prefill.
    let outside = state_dir.join("outside");
    let copy = |name: &str| -> Result<PathBuf, String> {
        std::fs::create_dir_all(&outside).map_err(|e| e.to_string())?;
        let to = outside.join(name);
        std::fs::copy(prefill_dir.join(name), &to).map_err(|e| e.to_string())?;
        Ok(to)
    };
    let journal_copy = copy("journal.jsonl")?;
    let started = Instant::now();
    selfstab_serve::journal::replay(&journal_copy)?;
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    let snapshot_copy = copy("snapshot.jsonl")?;
    let registry = selfstab_telemetry::Registry::new();
    let started = Instant::now();
    selfstab_serve::ResultCache::with_snapshot(
        selfstab_serve::ServeConfig::default().cache_bytes,
        &registry,
        &snapshot_copy,
        selfstab_campaign::FsyncPolicy::Batch,
    )?;
    let restore_ms = started.elapsed().as_secs_f64() * 1e3;

    // Per-request layers from outside, on every request of the run:
    // validate (parse + hash + field checks), the parse and hash alone,
    // and the response framing of every document the traced rounds
    // delivered.
    let mut validate = Duration::ZERO;
    let mut parse = Duration::ZERO;
    let mut hash = Duration::ZERO;
    let (_, list) = workloads::job_list(workload, &cat, args.seed, rounds);
    for job in list.flatten() {
        let body = job.body(&cat);
        let started = Instant::now();
        std::hint::black_box(
            selfstab_serve::JobRequest::from_json(&body).map_err(|e| e.message().to_owned())?,
        );
        validate += started.elapsed();
        let started = Instant::now();
        let protocol = selfstab_protocol::file::parse_protocol_file(&cat[job.spec].text)
            .map_err(|e| e.to_string())?;
        parse += started.elapsed();
        let started = Instant::now();
        std::hint::black_box(selfstab_core::spec_hash(&protocol));
        hash += started.elapsed();
    }
    let mut render = Duration::ZERO;
    let mut render_bytes = 0u64;
    for doc in &traced_side.docs {
        let mut out = Vec::with_capacity(doc.len() + 256);
        let started = Instant::now();
        selfstab_serve::http::Response::json(200, doc.clone())
            .with_header("x-selfstab-exit-code", "0")
            .write_to(&mut out, true)
            .map_err(|e| e.to_string())?;
        render += started.elapsed();
        render_bytes += doc.len() as u64;
    }
    let trace_path = run_dir().join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
    rec.write(&trace_path)
        .map_err(|e| format!("cannot write trace: {e}"))?;
    let _ = std::fs::remove_dir_all(&state_dir);

    let (ttfb_sum, ttfb_n) = histogram(&metrics, "serve/ttfb_us{endpoint=\"submit\"}");
    let (append_sum, append_n) = histogram(&metrics, "serve/journal_append_us");
    let (wait_sum, wait_n) = histogram(&metrics, "serve/queue_wait_us");
    let (exec_sum, exec_n) = histogram(&metrics, "serve/exec_us");
    let all_cold = side.cold_ids.len() + traced_side.cold_ids.len();
    let requests = tally.attempted + traced_tally.attempted;
    let hits = cache["hits"].as_f64().unwrap_or(0.0);
    let misses = cache["misses"].as_f64().unwrap_or(0.0);
    let mut layer = Layer::default();
    layer.set("global.scan_ms", phases.0 / 1e3);
    layer.set("global.dfs_ms", phases.1 / 1e3);
    layer.set("synth.synthesize_ms", phases.2 / 1e3);
    layer.set("protocol.parse_ms", parse.as_secs_f64() * 1e3);
    layer.set("core.spec_hash_ms", hash.as_secs_f64() * 1e3);
    layer.set("serve.validate_ms", validate.as_secs_f64() * 1e3);
    layer.set("serve.render_ms", render.as_secs_f64() * 1e3);
    layer.set("serve.render_bytes", render_bytes as f64);
    layer.set("serve.post_ms_p50", median(&traced_side.post_ms));
    layer.set("serve.post_ms_p99", quantile(&traced_side.post_ms, 0.99));
    layer.set("serve.get_ms_p50", median(&traced_side.get_ms));
    layer.set("serve.ttfb_post_mean_us", ratio(ttfb_sum, ttfb_n));
    layer.set("serve.journal_append_mean_us", ratio(append_sum, append_n));
    layer.set(
        "serve.journal_bytes_per_job",
        ratio(journal_growth as f64, requests as f64),
    );
    layer.set("serve.journal_replay_ms", replay_ms);
    layer.set("serve.snapshot_restore_ms", restore_ms);
    layer.set("serve.queue_wait_mean_ms", ratio(wait_sum, wait_n) / 1e3);
    layer.set("serve.exec_mean_ms", ratio(exec_sum, exec_n) / 1e3);
    layer.set(
        "serve.polls_per_cold_job",
        ratio((side.polls + traced_side.polls) as f64, all_cold as f64),
    );
    layer.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    layer.set("serve.cache_bytes", cache["bytes"].as_f64().unwrap_or(0.0));
    layer.set("serve.non_2xx", (side.non_2xx + traced_side.non_2xx) as f64);
    layer.set(
        "telemetry.trace_overhead",
        ratio(totals.job_wall_ms, untraced_ms),
    );
    layer.set("telemetry.layer_coverage", totals.coverage());
    Ok(Report {
        attempted: tally.attempted + traced_tally.attempted,
        failed: tally.failed + traced_tally.failed,
        metrics: layer.finish(),
        info: json!({
            "rounds": rounds,
            "trace": trace_path.display().to_string(),
            "requests": requests,
            "cold_jobs": all_cold,
        }),
        errors: tally
            .errors
            .into_iter()
            .chain(traced_tally.errors)
            .collect(),
    })
}
