//! The append-only, torn-write-safe event journal — the campaign's log
//! *and* its checkpoint.
//!
//! Every record is one line with a self-describing frame around a compact
//! JSON payload (the vendored renderer escapes control characters, so a
//! payload never contains a raw newline):
//!
//! ```text
//! <len:08x> <crc32:08x> <payload-json>\n
//! ```
//!
//! * `len` — byte length of the payload;
//! * `crc32` — CRC-32 (IEEE) of the payload bytes;
//! * the trailing newline is part of the frame: a record without it is a
//!   torn tail, not a record.
//!
//! The payload is one self-contained JSON object with an `ev` tag:
//!
//! ```text
//! {"ev":"campaign","fingerprint":"9a6b…","jobs":70}
//! {"ev":"analyzed","local":"proven","spec":"specs/agreement.stab"}
//! {"ev":"queued","k":2,"spec":"specs/agreement.stab"}
//! {"ev":"started","attempt":0,"k":2,"spec":"specs/agreement.stab","worker":1}
//! {"ev":"job_panicked","attempt":0,"error":"…","k":2,"spec":"specs/agreement.stab"}
//! {"ev":"finished","duration_us":184,"k":2,"legit":2,"outcome":"verified",
//!  "spec":"specs/agreement.stab","states":4,"worker":1}
//! ```
//!
//! Records are appended under a mutex and flushed one at a time; fsync is
//! governed by [`FsyncPolicy`]. A crash — even one that tears a record in
//! half, or a stray bit flip — can therefore only damage a *suffix* of the
//! file: [`replay`] validates each frame in order and **truncates at the
//! first corrupt or partial record**, never erroring on a torn tail, and
//! [`Journal::append`] physically truncates the file to that valid prefix
//! so resumed appends cannot merge into torn garbage.
//!
//! [`replay`] folds the valid prefix back into the set of completed jobs
//! and per-spec local verdicts; everything else (`queued`, `started`,
//! `job_panicked`, timing fields) is telemetry and is deliberately ignored
//! on resume, which is what makes the final report independent of
//! scheduling, retries, and fault injection.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use serde_json::{json, Value};

use crate::job::{JobResult, LocalVerdict};
use crate::runner::CampaignError;

/// How often [`FsyncPolicy::Batch`] forces records to stable storage.
const BATCH_SYNC_EVERY: usize = 64;

/// When the journal calls `fsync`.
///
/// Every policy still *flushes* each record to the OS as it is written (so
/// a process crash loses nothing); fsync only matters for power loss and
/// kernel crashes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: maximum durability, one syscall per job
    /// event.
    Always,
    /// `fsync` every 64 records (`BATCH_SYNC_EVERY`) and on
    /// [`Journal::sync`] (the campaign syncs at the end of every run and on
    /// interrupt).
    #[default]
    Batch,
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time — no external hash dependencies.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32 (IEEE) checksum of `bytes`, as used by the record framing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames one event as a full journal line (including the trailing
/// newline): `len crc payload\n`.
pub fn frame(v: &Value) -> String {
    let payload = v.to_string();
    format!(
        "{:08x} {:08x} {payload}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Parses one journal line (without its newline). Returns the payload on a
/// valid frame, `None` on anything torn or corrupt.
fn unframe(line: &str) -> Option<Value> {
    // "llllllll cccccccc " is 18 bytes of frame header.
    if line.len() < 18 || line.as_bytes()[8] != b' ' || line.as_bytes()[17] != b' ' {
        return None;
    }
    let len = usize::from_str_radix(&line[..8], 16).ok()?;
    let crc = u32::from_str_radix(&line[9..17], 16).ok()?;
    let payload = &line[18..];
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return None;
    }
    serde_json::from_str(payload).ok()
}

/// State behind the journal's mutex: the buffered writer plus the count of
/// records flushed but not yet fsynced (for [`FsyncPolicy::Batch`]).
#[derive(Debug)]
struct Inner {
    writer: BufWriter<std::fs::File>,
    unsynced: usize,
}

/// A live, append-only framed journal.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Inner>,
    path: PathBuf,
    fsync: FsyncPolicy,
}

impl Journal {
    /// Creates (truncating) a fresh journal.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] if the file cannot be created.
    pub fn create(path: &Path, fsync: FsyncPolicy) -> Result<Self, CampaignError> {
        let file = std::fs::File::create(path)
            .map_err(|e| CampaignError::Io(format!("cannot create `{}`: {e}", path.display())))?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                writer: BufWriter::new(file),
                unsynced: 0,
            }),
            path: path.to_path_buf(),
            fsync,
        })
    }

    /// Opens an existing journal for appending (creating it if absent),
    /// first truncating it to `valid_len` — the byte length of the valid
    /// record prefix reported by [`replay`] — so a torn tail left by a
    /// crash can never merge with freshly appended records.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] if the file cannot be opened or
    /// truncated.
    pub fn append(path: &Path, valid_len: u64, fsync: FsyncPolicy) -> Result<Self, CampaignError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| CampaignError::Io(format!("cannot open `{}`: {e}", path.display())))?;
        file.set_len(valid_len).map_err(|e| {
            CampaignError::Io(format!(
                "cannot drop torn tail of `{}`: {e}",
                path.display()
            ))
        })?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                writer: BufWriter::new(file),
                unsynced: 0,
            }),
            path: path.to_path_buf(),
            fsync,
        })
    }

    /// The journal's location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed event line and flushes it, so a crash after
    /// `event` returns can lose at most events that were never reported
    /// written; fsyncs per the journal's [`FsyncPolicy`].
    pub fn event(&self, v: &Value) {
        let line = frame(v);
        let mut inner = self.inner.lock().expect("journal writer poisoned");
        // A write failure must not take the whole campaign down mid-job;
        // the journal degrades to telemetry and the report is still built
        // from in-memory results.
        let _ = inner.writer.write_all(line.as_bytes());
        let _ = inner.writer.flush();
        inner.unsynced += 1;
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => inner.unsynced >= BATCH_SYNC_EVERY,
        };
        if due {
            let _ = inner.writer.get_ref().sync_data();
            inner.unsynced = 0;
        }
    }

    /// Flushes and fsyncs everything written so far. Called by the runner
    /// at the end of every campaign and when a sweep is interrupted, so a
    /// subsequent `--resume` loses no completed job.
    pub fn sync(&self) {
        let mut inner = self.inner.lock().expect("journal writer poisoned");
        let _ = inner.writer.flush();
        let _ = inner.writer.get_ref().sync_data();
        inner.unsynced = 0;
    }
}

/// Builds the `campaign` header event.
pub fn campaign_event(fingerprint: &str, jobs: usize) -> Value {
    json!({"ev": "campaign", "fingerprint": fingerprint, "jobs": jobs})
}

/// Builds an `analyzed` event carrying a spec's shared local verdict.
pub fn analyzed_event(spec: &str, verdict: &LocalVerdict) -> Value {
    json!({"ev": "analyzed", "spec": spec, "local": verdict.tag()})
}

/// Builds a `queued` event.
pub fn queued_event(spec: &str, k: usize) -> Value {
    json!({"ev": "queued", "spec": spec, "k": k})
}

/// Builds a `started` event (re-emitted per retry attempt).
pub fn started_event(spec: &str, k: usize, worker: usize, attempt: u32) -> Value {
    json!({"ev": "started", "spec": spec, "k": k, "worker": worker, "attempt": attempt})
}

/// Builds a `job_panicked` event: a worker panic was caught and isolated
/// instead of unwinding the pool. Telemetry only — replay never treats a
/// panicked attempt as completing its job, so a resumed campaign retries
/// it from scratch.
pub fn panic_event(spec: &str, k: usize, attempt: u32, error: &str) -> Value {
    json!({"ev": "job_panicked", "spec": spec, "k": k, "attempt": attempt, "error": error})
}

/// Builds a `finished` event: the job's full result (so replay can rebuild
/// the report without re-running anything) plus telemetry that the report
/// never copies (worker id, duration).
pub fn finished_event(result: &JobResult, worker: usize, duration: Duration) -> Value {
    finished_event_with_phases(result, worker, duration, None)
}

/// [`finished_event`] plus an optional `phases_us` telemetry object (the
/// job's per-phase microseconds, as rendered by the telemetry crate's
/// `PhaseSnapshot::to_json`). Replay ignores it like every other
/// telemetry field, so journals with and without phase breakdowns resume
/// identically.
pub fn finished_event_with_phases(
    result: &JobResult,
    worker: usize,
    duration: Duration,
    phases_us: Option<Value>,
) -> Value {
    let mut row = result.report_row();
    let Value::Object(map) = &mut row else {
        unreachable!("report_row returns an object");
    };
    map.insert("ev".into(), json!("finished"));
    map.insert("worker".into(), json!(worker));
    map.insert("duration_us".into(), json!(duration.as_micros() as u64));
    if let Some(phases) = phases_us {
        map.insert("phases_us".into(), phases);
    }
    row
}

/// The raw frame-level view of a journal: every event payload in the
/// longest valid prefix, plus that prefix's byte length. This is the
/// format-agnostic layer under [`replay`] — other subsystems (the serve
/// daemon's job journal, the cache snapshot) share the framing and fold
/// the events with their own semantics.
#[derive(Debug, Default)]
pub struct FrameReplay {
    /// Every valid event payload, in append order.
    pub events: Vec<Value>,
    /// Byte length of the valid framed prefix; everything beyond it is a
    /// torn or corrupt tail.
    pub valid_len: u64,
}

/// Replays a framed file at the record level: validates each frame
/// (length + CRC-32) in order and stops at the first torn or corrupt
/// record, returning the surviving payloads and the valid prefix length.
/// A missing file replays as empty.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] only if the file exists but cannot be
/// read.
pub fn replay_frames(path: &Path) -> Result<FrameReplay, CampaignError> {
    let mut out = FrameReplay::default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => {
            return Err(CampaignError::Io(format!(
                "cannot read journal `{}`: {e}",
                path.display()
            )))
        }
    };
    for chunk in text.split_inclusive('\n') {
        let Some(line) = chunk.strip_suffix('\n') else {
            break; // torn tail: the final record never got its newline
        };
        let Some(ev) = unframe(line) else {
            break; // corrupt record: everything at and past it is dropped
        };
        out.events.push(ev);
        out.valid_len += chunk.len() as u64;
    }
    Ok(out)
}

/// A journal folded back into campaign state.
#[derive(Debug, Default)]
pub struct Replay {
    /// The fingerprint from the `campaign` header, if one was recorded.
    pub fingerprint: Option<String>,
    /// Completed jobs keyed by `(spec, k)`.
    pub completed: BTreeMap<(String, usize), JobResult>,
    /// Replayed per-spec local verdicts.
    pub locals: BTreeMap<String, LocalVerdict>,
    /// Caught worker panics per `(spec, k)` — telemetry; panicked attempts
    /// never complete a job, so these cells re-execute on resume.
    pub panics: BTreeMap<(String, usize), u64>,
    /// Byte length of the valid framed prefix. Everything beyond it is a
    /// torn or corrupt tail that [`Journal::append`] drops before
    /// appending.
    pub valid_len: u64,
}

/// Replays a journal file, validating each record's frame (length +
/// CRC-32) in order and stopping at the first torn or corrupt record — a
/// crash mid-write, a `SIGKILL`, or a chaos-injected truncation leaves a
/// valid prefix that replays cleanly, never an error. A later `finished`
/// for the same `(spec, k)` wins, making replay idempotent.
///
/// # Errors
///
/// Returns [`CampaignError::Io`] only if the journal cannot be read at all;
/// a missing file replays as empty.
pub fn replay(path: &Path) -> Result<Replay, CampaignError> {
    let frames = replay_frames(path)?;
    let mut out = Replay {
        valid_len: frames.valid_len,
        ..Replay::default()
    };
    for ev in frames.events {
        match ev["ev"].as_str() {
            Some("campaign") => {
                if let Some(fp) = ev["fingerprint"].as_str() {
                    out.fingerprint = Some(fp.to_owned());
                }
            }
            Some("analyzed") => {
                if let Some(spec) = ev["spec"].as_str() {
                    let verdict = match ev["local"].as_str() {
                        Some("proven") => LocalVerdict::Proven,
                        Some("unproven") => LocalVerdict::Unproven,
                        _ => LocalVerdict::Error,
                    };
                    out.locals.insert(spec.to_owned(), verdict);
                }
            }
            Some("job_panicked") => {
                if let (Some(spec), Some(k)) = (ev["spec"].as_str(), ev["k"].as_u64()) {
                    *out.panics.entry((spec.to_owned(), k as usize)).or_default() += 1;
                }
            }
            Some("finished") => {
                if let Some(result) = JobResult::from_event(&ev) {
                    out.completed
                        .insert((result.spec.clone(), result.k), result);
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Outcome;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("selfstab-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn result(spec: &str, k: usize) -> JobResult {
        JobResult {
            spec: spec.into(),
            k,
            outcome: Outcome::Verified,
            states: 4,
            legit: 2,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let ev = queued_event("a.stab", 2);
        let line = frame(&ev);
        assert!(line.ends_with('\n'));
        let back = unframe(line.strip_suffix('\n').unwrap()).expect("valid frame");
        assert_eq!(back, ev);

        // Flip one payload byte: the CRC catches it.
        let mut bad = line.strip_suffix('\n').unwrap().to_owned();
        let last = bad.pop().unwrap();
        bad.push(if last == '}' { ')' } else { '}' });
        assert!(unframe(&bad).is_none());
        // Truncate mid-payload: the length catches it.
        assert!(unframe(&line[..line.len() - 4]).is_none());
        // A legacy unframed JSON line is not a record.
        assert!(unframe(&ev.to_string()).is_none());
    }

    #[test]
    fn journal_roundtrips_through_replay() {
        let path = tmp("roundtrip.jsonl");
        let j = Journal::create(&path, FsyncPolicy::Always).unwrap();
        j.event(&campaign_event("deadbeef", 2));
        j.event(&analyzed_event("a.stab", &LocalVerdict::Proven));
        j.event(&queued_event("a.stab", 2));
        j.event(&started_event("a.stab", 2, 0, 0));
        j.event(&panic_event("a.stab", 2, 0, "chaos"));
        let result = result("a.stab", 2);
        j.event(&finished_event(&result, 0, Duration::from_micros(55)));
        j.sync();
        drop(j);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.fingerprint.as_deref(), Some("deadbeef"));
        assert_eq!(replayed.completed.len(), 1);
        assert_eq!(replayed.completed[&("a.stab".into(), 2)], result);
        assert_eq!(replayed.locals["a.stab"], LocalVerdict::Proven);
        assert_eq!(replayed.panics[&("a.stab".into(), 2)], 1);
        assert_eq!(
            replayed.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "a clean journal is valid to its last byte"
        );
    }

    #[test]
    fn replay_truncates_at_torn_tail_and_handles_missing_files() {
        let path = tmp("truncated.jsonl");
        let good = format!(
            "{}{}",
            frame(&campaign_event("fp", 2)),
            frame(&finished_event(&result("a.stab", 3), 1, Duration::ZERO))
        );
        let torn = frame(&finished_event(&result("a.stab", 4), 1, Duration::ZERO));
        std::fs::write(&path, format!("{good}{}", &torn[..torn.len() / 2])).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.completed.len(), 1);
        assert!(replayed.completed.contains_key(&("a.stab".into(), 3)));
        assert_eq!(replayed.valid_len as usize, good.len());

        let missing = replay(&tmp("never-written.jsonl")).unwrap();
        assert!(missing.completed.is_empty());
        assert!(missing.fingerprint.is_none());
        assert_eq!(missing.valid_len, 0);
    }

    #[test]
    fn replay_stops_at_a_corrupt_middle_record() {
        // A bit flip in the middle invalidates that record AND the valid
        // records after it: resume-safety demands a contiguous prefix, so
        // later records are deliberately dropped and re-executed.
        let path = tmp("bitflip.jsonl");
        let first = frame(&finished_event(&result("a.stab", 2), 0, Duration::ZERO));
        let second = frame(&finished_event(&result("a.stab", 3), 0, Duration::ZERO));
        let third = frame(&finished_event(&result("a.stab", 4), 0, Duration::ZERO));
        let mut bytes = format!("{first}{second}{third}").into_bytes();
        bytes[first.len() + 30] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.completed.len(), 1);
        assert!(replayed.completed.contains_key(&("a.stab".into(), 2)));
        assert_eq!(replayed.valid_len as usize, first.len());
    }

    #[test]
    fn append_drops_the_torn_tail_before_writing() {
        let path = tmp("append-truncates.jsonl");
        let good = frame(&finished_event(&result("a.stab", 2), 0, Duration::ZERO));
        std::fs::write(&path, format!("{good}01234567 89abcdef torn")).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.valid_len as usize, good.len());
        let j = Journal::append(&path, replayed.valid_len, FsyncPolicy::Batch).unwrap();
        j.event(&finished_event(&result("a.stab", 3), 0, Duration::ZERO));
        j.sync();
        drop(j);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.completed.len(), 2, "torn tail gone, both jobs in");
        assert_eq!(
            replayed.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "no garbage left behind the appended record"
        );
    }
}
