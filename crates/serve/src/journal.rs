//! The durable job journal: accepted jobs and their terminal results,
//! persisted through the campaign crate's CRC-32-framed torn-write-safe
//! [`Journal`] so a crashed or SIGKILLed server restarts without losing
//! work.
//!
//! This module owns no writer. It is the service's record vocabulary
//! over the one journal type the sweep checkpoint also uses: [`open`]
//! replays and reopens the file, [`submitted_event`], [`hit_event`] and
//! [`terminal_event`] build the records the server appends, and
//! [`replay`] folds them back into [`JobState`]s. Every record is one
//! `len crc payload\n` frame ([`selfstab_campaign::journal::frame`]);
//! the payloads are:
//!
//! ```text
//! {"ev":"serve","version":2}
//! {"ev":"submitted","id":3,"kind":"verify","key":"…","request":{…}}
//! {"ev":"done","id":3,"exit_code":0,"body":"…","phases_us":{…}}
//! {"ev":"failed","id":3,"status":500,"message":"…","phases_us":{…}}
//! {"ev":"timed_out","id":3,"partial":"…","phases_us":{…}}
//! {"ev":"hit","id":4,"kind":"verify","key":"…"}
//! {"ev":"hit","id":5,"kind":"verify","key":"…","exit_code":0,"body":"…"}
//! ```
//!
//! A `hit` is a submit the result cache answered: one record, written
//! before the response, that is the job's acceptance and its result at
//! once. It names the result by cache key and resolves to the last body
//! the journal held for that key before it (a `done` joined to its
//! `submitted` key, or an earlier body-carrying `hit`). It carries `body`
//! and `exit_code` only when the journal holds no body for the key yet,
//! as on the first hit after a boot that restored a cache snapshot into a
//! fresh journal. A reference therefore always points backwards in the
//! file, so a torn tail can drop a reference but never its target.
//!
//! Terminal records carry the job's per-phase time breakdown
//! (`phases_us`) so `selfstab stats` can cross-tab service traffic the
//! way it cross-tabs sweep metrics. Replay ignores unknown fields, so
//! journals written before this field replay unchanged.
//!
//! `submitted` is written **before** the 202 reaches the client, so every
//! job a client was told about is on disk; the `request` field is the
//! original validated POST body, which is everything needed to re-run the
//! job. The three terminal events carry the full response payload, so a
//! client polling `/v1/jobs/:id/result` across a restart reads the same
//! bytes it would have read before the crash.
//!
//! [`replay`] folds the longest valid frame prefix back into the job
//! table: jobs with a terminal event become resolvable results; jobs
//! without one are exactly the crash's collateral and are **re-enqueued**
//! by the server at boot. A job re-executed after a crash produces a
//! byte-identical document (the engines are deterministic), so replay
//! plus re-execution converges to the fault-free outcome — the property
//! the CI crash drill byte-diffs.
//!
//! Drained jobs are deliberately *not* terminal on disk: a drain is a
//! shutdown, and the next boot re-enqueues them.
//!
//! The header's `version` is the format: 2 added the `hit` record, and a
//! version-1 file (which has none) replays unchanged. [`open`] refuses a
//! journal from a newer binary. Older binaries never read the version
//! and skip `hit` records, so downgrading over a journal that holds them
//! is unsupported: its hit ids would 404 and could be handed out again.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use selfstab_campaign::journal::{replay_frames, Journal};
use selfstab_campaign::FsyncPolicy;
use serde_json::{json, Value};

use crate::cache::CachedDoc;
use crate::jobs::{JobKind, JobState};

/// Journal format version, bumped on incompatible payload changes
/// (2: the `hit` record).
const SERVE_JOURNAL_VERSION: u64 = 2;

/// Opens the server's journal at `path`: replays it, truncates the torn
/// tail (if any) so appends cannot merge into garbage, and writes the
/// header record only on an empty file.
///
/// # Errors
///
/// Propagates read/open/truncate failures as a rendered diagnostic so
/// the CLI can exit 1 with it, and refuses a journal whose header names
/// a newer format than this binary writes.
pub fn open(path: &Path, fsync: FsyncPolicy) -> Result<(Journal, ServeReplay), String> {
    let replayed = replay(path)?;
    if let Some(version) = replayed.version.filter(|v| *v > SERVE_JOURNAL_VERSION) {
        return Err(format!(
            "`{}` is a version {version} serve journal; this binary reads up to version {SERVE_JOURNAL_VERSION}",
            path.display()
        ));
    }
    let journal = Journal::append(path, replayed.valid_len, fsync).map_err(|e| e.to_string())?;
    if replayed.valid_len == 0 {
        journal.event(&json!({"ev": "serve", "version": SERVE_JOURNAL_VERSION}));
    }
    Ok((journal, replayed))
}

/// The acceptance record, journaled before the 202 is sent: id, kind,
/// cache key, and the full validated request body (everything
/// re-execution needs).
pub fn submitted_event(id: u64, kind: JobKind, key: &str, request: &Value) -> Value {
    json!({
        "ev": "submitted",
        "id": id,
        "kind": kind.name(),
        "key": key,
        "request": request.clone(),
    })
}

/// The record of a submit answered from cache: its acceptance and its
/// result in one. `body` is the cached document when the journal holds
/// no body for `key` yet, and `None` when the record can refer to one.
pub fn hit_event(id: u64, kind: JobKind, key: &str, body: Option<&CachedDoc>) -> Value {
    match body {
        None => json!({"ev": "hit", "id": id, "kind": kind.name(), "key": key}),
        Some(doc) => json!({
            "ev": "hit",
            "id": id,
            "kind": kind.name(),
            "key": key,
            "exit_code": doc.exit_code,
            "body": doc.body.as_str(),
        }),
    }
}

/// The terminal record of a job that reached `state`, carrying its
/// per-phase time breakdown. `None` for the states that are not
/// terminal on disk: queued, running, and drained (a drain is a
/// shutdown, and the next boot re-enqueues the job).
pub fn terminal_event(id: u64, state: &JobState, phases_us: Value) -> Option<Value> {
    Some(match state {
        JobState::Done { doc } => json!({
            "ev": "done",
            "id": id,
            "exit_code": doc.exit_code,
            "body": doc.body.clone(),
            "phases_us": phases_us,
        }),
        JobState::Failed { status, message } => json!({
            "ev": "failed",
            "id": id,
            "status": *status,
            "message": message.as_str(),
            "phases_us": phases_us,
        }),
        JobState::TimedOut { partial } => json!({
            "ev": "timed_out",
            "id": id,
            "partial": partial.as_str(),
            "phases_us": phases_us,
        }),
        JobState::Queued | JobState::Running | JobState::Drained => return None,
    })
}

/// The inverse of [`terminal_event`]: the state a terminal record
/// restores, or `None` for any other (or malformed) record.
fn terminal_state(ev: &Value) -> Option<JobState> {
    match ev["ev"].as_str()? {
        "done" => Some(JobState::Done {
            doc: carried_doc(ev)?,
        }),
        "failed" => Some(JobState::Failed {
            status: ev["status"].as_u64()? as u16,
            message: ev["message"].as_str().unwrap_or_default().to_owned(),
        }),
        "timed_out" => Some(JobState::TimedOut {
            partial: ev["partial"].as_str()?.to_owned(),
        }),
        _ => None,
    }
}

/// The result document a `done` or body-carrying `hit` record carries.
fn carried_doc(ev: &Value) -> Option<Arc<CachedDoc>> {
    Some(Arc::new(CachedDoc {
        body: ev["body"].as_str()?.to_owned(),
        exit_code: ev["exit_code"].as_u64()? as u8,
    }))
}

/// One job recovered from the journal.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// The job id (preserved across restarts).
    pub id: u64,
    /// The kind from the `submitted` or `hit` record (`verify` if
    /// unrecognised).
    pub kind: JobKind,
    /// The content-address key from the `submitted` or `hit` record.
    pub key: String,
    /// The original validated request body; `Null` for a cache hit, which
    /// is terminal from its first record and never re-runs.
    pub request: Value,
    /// The terminal state (done, failed, or timed out), or `None` for a
    /// job the crash interrupted — the server re-enqueues exactly these.
    pub terminal: Option<JobState>,
    /// The terminal record's per-phase breakdown, `Null` without one.
    pub phases_us: Value,
}

/// The journal folded back into boot state.
#[derive(Debug, Default)]
pub struct ServeReplay {
    /// The header record's format version; `None` when the file does not
    /// open with a serve header (empty, or not a serve journal).
    pub version: Option<u64>,
    /// Every journaled job in id order.
    pub jobs: BTreeMap<u64, ReplayedJob>,
    /// The next job id to hand out (max journaled id + 1, hits included).
    pub next_id: u64,
    /// Byte length of the valid frame prefix; [`open`] truncates the
    /// file to it.
    pub valid_len: u64,
}

impl ServeReplay {
    /// Jobs that never reached a terminal state, in id order — the set a
    /// restart re-enqueues.
    pub fn non_terminal(&self) -> impl Iterator<Item = &ReplayedJob> {
        self.jobs.values().filter(|j| j.terminal.is_none())
    }
}

/// Replays a serve journal: validates frames in order, truncates at the
/// first torn or corrupt record, and folds `submitted`/terminal events
/// into per-id job state. A terminal event for an unknown id (its
/// `submitted` record fell past the torn tail) is dropped — a result is
/// only resolvable if its acceptance survived too, so replay can never
/// invent a job the client was never told about.
///
/// Each `hit` becomes a `Done` job whose document is the last body the
/// journal held for its key before the hit, so a hit id resolves to the
/// same bytes across a restart. A reference with no body before it
/// restores no job, but its id still advances `next_id`.
///
/// # Errors
///
/// Propagates the underlying read failure; a missing file replays as
/// empty.
pub fn replay(path: &Path) -> Result<ServeReplay, String> {
    let frames = replay_frames(path).map_err(|e| e.to_string())?;
    let mut out = ServeReplay {
        valid_len: frames.valid_len,
        ..ServeReplay::default()
    };
    if let Some(header) = frames.events.first().filter(|ev| ev["ev"] == "serve") {
        out.version = header["version"].as_u64();
    }
    // The last body the journal held for each key, in file order: what a
    // reference `hit` resolves to.
    let mut bodies: HashMap<String, Arc<CachedDoc>> = HashMap::new();
    for ev in frames.events {
        let Some(id) = ev["id"].as_u64() else {
            continue; // header or unknown record
        };
        let key = ev["key"].as_str().unwrap_or_default();
        let named = |request: Value, terminal: Option<JobState>| ReplayedJob {
            id,
            kind: ev["kind"]
                .as_str()
                .and_then(JobKind::from_name)
                .unwrap_or(JobKind::Verify),
            key: key.to_owned(),
            request,
            terminal,
            phases_us: Value::Null,
        };
        match ev["ev"].as_str() {
            Some("submitted") => {
                out.jobs.insert(id, named(ev["request"].clone(), None));
                out.next_id = out.next_id.max(id + 1);
            }
            Some("hit") => {
                let doc = match carried_doc(&ev) {
                    Some(doc) => {
                        bodies.insert(key.to_owned(), Arc::clone(&doc));
                        Some(doc)
                    }
                    None => bodies.get(key).cloned(),
                };
                if let Some(doc) = doc {
                    let done = JobState::Done { doc };
                    out.jobs.insert(id, named(Value::Null, Some(done)));
                }
                out.next_id = out.next_id.max(id + 1);
            }
            _ => {
                if let (Some(job), Some(state)) = (out.jobs.get_mut(&id), terminal_state(&ev)) {
                    if let JobState::Done { doc } = &state {
                        bodies.insert(job.key.clone(), Arc::clone(doc));
                    }
                    job.terminal = Some(state);
                    job.phases_us = ev["phases_us"].clone();
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_campaign::journal::frame;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("selfstab-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn done(body: &str) -> JobState {
        JobState::Done {
            doc: Arc::new(CachedDoc {
                body: body.to_owned(),
                exit_code: 0,
            }),
        }
    }

    fn append(j: &Journal, id: u64, state: &JobState, phases_us: Value) {
        j.event(&terminal_event(id, state, phases_us).expect("terminal state"));
    }

    #[test]
    fn roundtrip_recovers_terminal_and_pending_jobs() {
        let path = tmp("roundtrip.jsonl");
        let (j, fresh) = open(&path, FsyncPolicy::Always).unwrap();
        assert!(fresh.jobs.is_empty());
        j.event(&submitted_event(
            1,
            JobKind::Verify,
            "h:verify:4..4",
            &json!({"kind": "verify", "k": 4}),
        ));
        j.event(&submitted_event(
            2,
            JobKind::Sweep,
            "h:sweep:2..9",
            &json!({"kind": "sweep", "k": 2, "to": 9}),
        ));
        j.event(&submitted_event(
            3,
            JobKind::Synthesize,
            "h:synthesize",
            &json!({"kind": "synthesize"}),
        ));
        append(&j, 1, &done("{\"rows\":[]}\n"), json!({"fused_scan": 12}));
        let failed = JobState::Failed {
            status: 500,
            message: "job panicked".to_owned(),
        };
        append(&j, 3, &failed, json!({}));
        j.sync();
        drop(j);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.jobs.len(), 3);
        assert_eq!(replayed.next_id, 4);
        assert_eq!(replayed.jobs[&1].terminal, Some(done("{\"rows\":[]}\n")));
        assert_eq!(replayed.jobs[&3].terminal, Some(failed));
        assert_eq!(replayed.jobs[&3].kind, JobKind::Synthesize);
        let pending: Vec<u64> = replayed.non_terminal().map(|job| job.id).collect();
        assert_eq!(pending, vec![2], "only the sweep never finished");
        assert_eq!(replayed.jobs[&2].request["to"], 9);
        assert_eq!(
            replayed.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "a clean journal is valid to its last byte"
        );
    }

    #[test]
    fn records_keep_their_on_disk_bytes() {
        // A restarted server replays the file the previous binary wrote,
        // so these frames are a format contract: a changed byte would
        // break replay of journals already on disk.
        let path = tmp("bytes.jsonl");
        let (j, _) = open(&path, FsyncPolicy::Always).unwrap();
        let request = json!({"kind": "verify", "k": 4, "spec": "protocol p\n# \"q\" …"});
        j.event(&submitted_event(
            1,
            JobKind::Verify,
            "h:verify:4..4:1000000:auto",
            &request,
        ));
        let doc = Arc::new(CachedDoc {
            body: "{\"rows\":[]}\n".to_owned(),
            exit_code: 2,
        });
        append(
            &j,
            1,
            &JobState::Done {
                doc: Arc::clone(&doc),
            },
            json!({"fused_scan": 12, "livelock_dfs": 3}),
        );
        let failed = JobState::Failed {
            status: 500,
            message: "job panicked".to_owned(),
        };
        append(&j, 2, &failed, json!({"fused_scan": 0}));
        let timed_out = JobState::TimedOut {
            partial: "{\"partial\":true,\"rows\":[]}\n".to_owned(),
        };
        append(&j, 3, &timed_out, json!({"livelock_dfs": 7}));
        j.event(&hit_event(
            4,
            JobKind::Verify,
            "h:verify:4..4:1000000:auto",
            None,
        ));
        j.event(&hit_event(
            5,
            JobKind::Verify,
            "h:verify:5..5:1000000:auto",
            Some(&doc),
        ));
        j.sync();
        drop(j);

        let written = std::fs::read_to_string(&path).unwrap();
        let expected = [
            r##"0000001a e12b35e8 {"ev":"serve","version":2}"##,
            r##"0000008f a015f918 {"ev":"submitted","id":1,"key":"h:verify:4..4:1000000:auto","kind":"verify","request":{"k":4,"kind":"verify","spec":"protocol p\n# \"q\" …"}}"##,
            r##"0000006a e67e1984 {"body":"{\"rows\":[]}\n","ev":"done","exit_code":2,"id":1,"phases_us":{"fused_scan":12,"livelock_dfs":3}}"##,
            r##"00000059 0b00fdb1 {"ev":"failed","id":2,"message":"job panicked","phases_us":{"fused_scan":0},"status":500}"##,
            r##"00000065 f2eec95d {"ev":"timed_out","id":3,"partial":"{\"partial\":true,\"rows\":[]}\n","phases_us":{"livelock_dfs":7}}"##,
            r##"00000046 847cb59d {"ev":"hit","id":4,"key":"h:verify:4..4:1000000:auto","kind":"verify"}"##,
            r##"0000006d 040f5790 {"body":"{\"rows\":[]}\n","ev":"hit","exit_code":2,"id":5,"key":"h:verify:5..5:1000000:auto","kind":"verify"}"##,
        ];
        assert_eq!(written.lines().collect::<Vec<_>>(), expected);

        for state in [JobState::Queued, JobState::Running, JobState::Drained] {
            assert_eq!(terminal_event(1, &state, json!({})), None, "{state:?}");
        }
    }

    #[test]
    fn a_version_1_journal_replays_unchanged() {
        // The first five frames a version-1 binary wrote, byte for byte.
        let path = tmp("v1.jsonl");
        let v1 = [
            r##"0000001a ca06662b {"ev":"serve","version":1}"##,
            r##"0000008f a015f918 {"ev":"submitted","id":1,"key":"h:verify:4..4:1000000:auto","kind":"verify","request":{"k":4,"kind":"verify","spec":"protocol p\n# \"q\" …"}}"##,
            r##"0000006a e67e1984 {"body":"{\"rows\":[]}\n","ev":"done","exit_code":2,"id":1,"phases_us":{"fused_scan":12,"livelock_dfs":3}}"##,
            r##"00000059 0b00fdb1 {"ev":"failed","id":2,"message":"job panicked","phases_us":{"fused_scan":0},"status":500}"##,
            r##"00000065 f2eec95d {"ev":"timed_out","id":3,"partial":"{\"partial\":true,\"rows\":[]}\n","phases_us":{"livelock_dfs":7}}"##,
        ];
        std::fs::write(&path, v1.map(|line| format!("{line}\n")).concat()).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.version, Some(1));
        assert_eq!(
            replayed.jobs.keys().copied().collect::<Vec<_>>(),
            vec![1],
            "the orphan terminals of ids 2 and 3 are dropped"
        );
        let doc = Arc::new(CachedDoc {
            body: "{\"rows\":[]}\n".to_owned(),
            exit_code: 2,
        });
        assert_eq!(replayed.jobs[&1].terminal, Some(JobState::Done { doc }));
        assert_eq!(replayed.next_id, 2);
        assert_eq!(replayed.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn hits_resolve_to_the_last_body_their_key_held_before_them() {
        let path = tmp("hits.jsonl");
        let (j, _) = open(&path, FsyncPolicy::Always).unwrap();
        let submit = |id, key| j.event(&submitted_event(id, JobKind::Verify, key, &json!({})));
        let hit = |id, key, body: Option<&CachedDoc>| {
            j.event(&hit_event(id, JobKind::Sweep, key, body));
        };
        submit(1, "k");
        append(&j, 1, &done("first"), json!({}));
        hit(2, "k", None);
        submit(3, "k");
        hit(4, "k", None); // job 3 has not finished: still job 1's body
        append(&j, 3, &done("second"), json!({}));
        hit(5, "k", None);
        let carried = CachedDoc {
            body: "snapshot".to_owned(),
            exit_code: 2,
        };
        hit(6, "warm", Some(&carried));
        hit(7, "warm", None);
        hit(8, "never-journaled", None);
        j.sync();
        drop(j);

        let replayed = replay(&path).unwrap();
        let body = |id: u64| match &replayed.jobs[&id].terminal {
            Some(JobState::Done { doc }) => (doc.body.as_str(), doc.exit_code),
            other => panic!("hit {id} replayed as {other:?}"),
        };
        assert_eq!(body(2), ("first", 0));
        assert_eq!(body(4), ("first", 0));
        assert_eq!(body(5), ("second", 0));
        assert_eq!(body(6), ("snapshot", 2));
        assert_eq!(body(7), ("snapshot", 2));
        assert_eq!(replayed.jobs[&7].kind, JobKind::Sweep);
        assert_eq!(replayed.jobs[&7].request, Value::Null);
        assert!(
            !replayed.jobs.contains_key(&8),
            "a reference with nothing before it restores no job"
        );
        assert_eq!(replayed.next_id, 9, "but its id is never handed out again");
        assert_eq!(replayed.non_terminal().count(), 0);
    }

    #[test]
    fn torn_tail_drops_the_last_record_only() {
        let path = tmp("torn.jsonl");
        let good = format!(
            "{}{}{}",
            frame(&json!({"ev": "serve", "version": 1})),
            frame(
                &json!({"ev": "submitted", "id": 1, "kind": "verify", "key": "k", "request": {}})
            ),
            frame(&json!({"ev": "done", "id": 1, "exit_code": 0, "body": "b"})),
        );
        let torn = frame(
            &json!({"ev": "submitted", "id": 2, "kind": "verify", "key": "k2", "request": {}}),
        );
        std::fs::write(&path, format!("{good}{}", &torn[..torn.len() / 2])).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.jobs.len(), 1);
        assert!(replayed.jobs[&1].terminal.is_some());
        assert_eq!(replayed.valid_len as usize, good.len());
        assert_eq!(replayed.next_id, 2, "the torn submit never happened");
    }

    #[test]
    fn terminal_without_submitted_is_dropped() {
        // A `done` whose `submitted` record was lost to an earlier
        // truncation must not resurrect a job nobody was told about.
        let path = tmp("orphan.jsonl");
        std::fs::write(
            &path,
            frame(&json!({"ev": "done", "id": 9, "exit_code": 0, "body": "b"})),
        )
        .unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.jobs.is_empty());
        assert_eq!(replayed.next_id, 0);
    }

    #[test]
    fn append_after_replay_continues_the_id_space() {
        let path = tmp("append.jsonl");
        let (j, _) = open(&path, FsyncPolicy::Batch).unwrap();
        j.event(&submitted_event(1, JobKind::Verify, "k1", &json!({})));
        j.sync();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"01234567 89abcdef torn");
        std::fs::write(&path, bytes).unwrap();

        let (j, replayed) = open(&path, FsyncPolicy::Batch).unwrap();
        assert_eq!(replayed.jobs.len(), 1);
        j.event(&submitted_event(
            replayed.next_id,
            JobKind::Verify,
            "k2",
            &json!({}),
        ));
        j.sync();
        drop(j);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.jobs.len(), 2, "torn tail gone, both jobs in");
        assert_eq!(replayed.valid_len, std::fs::metadata(&path).unwrap().len());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"serve\"").count(), 1, "one header only");
    }
}
