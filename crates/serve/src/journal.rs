//! The durable job journal: accepted jobs and their terminal results,
//! persisted through the campaign crate's CRC-32-framed torn-write-safe
//! [`Journal`] so a crashed or SIGKILLed server restarts without losing
//! work.
//!
//! This module owns no writer. It is the service's record vocabulary
//! over the one journal type the sweep checkpoint also uses: [`open`]
//! replays and reopens the file, [`submitted_event`] and
//! [`terminal_event`] build the records the server appends, and
//! [`replay`] folds them back into [`JobState`]s. Every record is one
//! `len crc payload\n` frame ([`selfstab_campaign::journal::frame`]);
//! the payloads are:
//!
//! ```text
//! {"ev":"serve","version":1}
//! {"ev":"submitted","id":3,"kind":"verify","key":"…","request":{…}}
//! {"ev":"done","id":3,"exit_code":0,"body":"…","phases_us":{…}}
//! {"ev":"failed","id":3,"status":500,"message":"…","phases_us":{…}}
//! {"ev":"timed_out","id":3,"partial":"…","phases_us":{…}}
//! ```
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

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use selfstab_campaign::journal::{replay_frames, Journal};
use selfstab_campaign::FsyncPolicy;
use serde_json::{json, Value};

use crate::cache::CachedDoc;
use crate::jobs::{JobKind, JobState};

/// Journal format version, bumped on incompatible payload changes.
const SERVE_JOURNAL_VERSION: u64 = 1;

/// Opens the server's journal at `path`: replays it, truncates the torn
/// tail (if any) so appends cannot merge into garbage, and writes the
/// header record only on an empty file.
///
/// # Errors
///
/// Propagates read/open/truncate failures as a rendered diagnostic so
/// the CLI can exit 1 with it.
pub fn open(path: &Path, fsync: FsyncPolicy) -> Result<(Journal, ServeReplay), String> {
    let replayed = replay(path)?;
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
            doc: Arc::new(CachedDoc {
                body: ev["body"].as_str()?.to_owned(),
                exit_code: ev["exit_code"].as_u64()? as u8,
            }),
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

/// One job recovered from the journal.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// The job id (preserved across restarts).
    pub id: u64,
    /// The kind from the `submitted` record (`verify` if unrecognised).
    pub kind: JobKind,
    /// The content-address key from the `submitted` record.
    pub key: String,
    /// The original validated request body.
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
    /// The next job id to hand out (max journaled id + 1).
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
    for ev in frames.events {
        let Some(id) = ev["id"].as_u64() else {
            continue; // header or unknown record
        };
        if ev["ev"] == "submitted" {
            let kind = ev["kind"].as_str().and_then(JobKind::from_name);
            out.jobs.insert(
                id,
                ReplayedJob {
                    id,
                    kind: kind.unwrap_or(JobKind::Verify),
                    key: ev["key"].as_str().unwrap_or_default().to_owned(),
                    request: ev["request"].clone(),
                    terminal: None,
                    phases_us: Value::Null,
                },
            );
            out.next_id = out.next_id.max(id + 1);
        } else if let (Some(job), Some(state)) = (out.jobs.get_mut(&id), terminal_state(&ev)) {
            job.terminal = Some(state);
            job.phases_us = ev["phases_us"].clone();
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
            &JobState::Done { doc },
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
        j.sync();
        drop(j);

        let written = std::fs::read_to_string(&path).unwrap();
        let expected = [
            r##"0000001a ca06662b {"ev":"serve","version":1}"##,
            r##"0000008f a015f918 {"ev":"submitted","id":1,"key":"h:verify:4..4:1000000:auto","kind":"verify","request":{"k":4,"kind":"verify","spec":"protocol p\n# \"q\" …"}}"##,
            r##"0000006a e67e1984 {"body":"{\"rows\":[]}\n","ev":"done","exit_code":2,"id":1,"phases_us":{"fused_scan":12,"livelock_dfs":3}}"##,
            r##"00000059 0b00fdb1 {"ev":"failed","id":2,"message":"job panicked","phases_us":{"fused_scan":0},"status":500}"##,
            r##"00000065 f2eec95d {"ev":"timed_out","id":3,"partial":"{\"partial\":true,\"rows\":[]}\n","phases_us":{"livelock_dfs":7}}"##,
        ];
        assert_eq!(written.lines().collect::<Vec<_>>(), expected);

        for state in [JobState::Queued, JobState::Running, JobState::Drained] {
            assert_eq!(terminal_event(1, &state, json!({})), None, "{state:?}");
        }
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
