//! `selfstab stats <metrics.json|serve.journal> [--json]` — phase-time
//! cross-tab of a sweep's `--metrics` document or a serve `--journal`.
//!
//! The input format is auto-detected: a file that parses as one JSON
//! document is a sweep metrics document; anything else is replayed as a
//! CRC-framed serve journal (the terminal records carry each job's
//! `phases_us` breakdown). Either way the output is the same cross-tab:
//! one row per job with the instrumented phases as columns
//! (milliseconds), plus a TOTAL row. The cross-tab shape is
//! unconditional: a metrics document with zero executed jobs (a fully
//! replayed `--resume`, say) still renders the header and TOTAL row, and
//! an all-zero phase column renders as `0.000`, never as a hole.
//! `--json` emits the same cross-tab as a machine-readable document with
//! the identical schema for empty and non-empty inputs. Durations here
//! are wall-clock observations — scheduling-dependent by design; the
//! deterministic story lives in the per-job `counters` (see DESIGN.md §8).

use std::collections::BTreeMap;

use selfstab_serve::journal::ServeReplay;
use selfstab_serve::JobState;
use serde_json::{json, Value};

use crate::args::Args;

/// Phase columns in execution order, with the compact header used for
/// each (the full names are unwieldy at 80 columns).
const PHASES: [(&str, &str); 7] = [
    ("parse", "parse"),
    ("local_analysis", "local"),
    ("fused_scan", "scan"),
    ("livelock_dfs", "dfs"),
    ("journal_append", "journal"),
    ("retry_backoff", "backoff"),
    ("synthesis", "synth"),
];

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw)?;
    let path = args.file().map_err(|_| "missing <metrics.json> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // Auto-detect the input: a sweep --metrics file is one JSON document;
    // a serve --journal is CRC-framed lines that are not valid JSON as a
    // whole. Anything that parses but has no `jobs` array is neither.
    let Ok(doc) = serde_json::from_str(&text) else {
        return serve_journal_stats(std::path::Path::new(path), &args);
    };
    let doc: Value = doc;
    let jobs = doc["jobs"]
        .as_array()
        .ok_or_else(|| format!("{path}: not a sweep metrics document (no `jobs` array)"))?;

    let tab = cross_tab(&doc, jobs);
    if args.flag("json") {
        println!("{}", serde_json::to_string_pretty(&tab)?);
        return Ok(true);
    }
    let c = &doc["campaign"];
    let title = format!(
        "campaign {}: {} of {} job(s) executed ({} replayed), {} worker(s), {} engine thread(s)",
        c["fingerprint"].as_str().unwrap_or("?"),
        c["executed"],
        c["jobs"],
        c["replayed"],
        c["workers"],
        c["engine_threads"]
    );
    print_cross_tab(
        &title,
        &tab,
        KeyColumns {
            headers: ["spec", "K"],
            id_field: "k",
            id_width: 3,
        },
        "(no jobs executed this run — totals cover journal replay only)",
    );
    Ok(true)
}

/// The serve-journal path: replays the journal with the server's own
/// boot replay ([`selfstab_serve::journal::replay`]) and cross-tabs the
/// `phases_us` carried by the terminal `done`/`failed`/`timed_out`
/// records. Jobs without a terminal state render as `pending` with zero
/// phase time — they are the restart's re-enqueue set, not measured
/// work. A `hit` record renders as `done` with zero phase time: the cache
/// answered it, and no phase ran. Servers write one only for a job that
/// adopts a snapshot-restored document (older journals hold one per hit).
fn serve_journal_stats(
    path: &std::path::Path,
    args: &Args,
) -> Result<bool, Box<dyn std::error::Error>> {
    let replay = selfstab_serve::journal::replay(path)?;
    if replay.version.is_none() {
        return Err(format!(
            "{}: neither a sweep metrics document nor a serve journal",
            path.display()
        )
        .into());
    }
    let tab = serve_cross_tab(&replay);

    if args.flag("json") {
        println!("{}", serde_json::to_string_pretty(&tab)?);
        return Ok(true);
    }

    let title = format!(
        "serve journal {}: {} job(s) accepted, {} reached a terminal state",
        path.display(),
        tab["serve"]["jobs"],
        tab["serve"]["terminal"]
    );
    print_cross_tab(
        &title,
        &tab,
        KeyColumns {
            headers: ["kind", "id"],
            id_field: "id",
            id_width: 4,
        },
        "(no jobs journaled — header-only journal)",
    );
    Ok(true)
}

/// The two columns that name a cross-tab's rows.
struct KeyColumns {
    /// The name and id headers; the name header is also the job field.
    headers: [&'static str; 2],
    /// The job field that holds the numeric id.
    id_field: &'static str,
    /// The width of the right-aligned id column.
    id_width: usize,
}

/// Prints a cross-tab document ([`cross_tab`] or [`serve_cross_tab`]) as
/// text: the title, a header row, one row per job, a TOTAL row, the
/// `empty_note` when there is no job, and the footer. Sweeps and serve
/// journals differ only in the title, the key columns and the note.
fn print_cross_tab(title: &str, tab: &Value, keys: KeyColumns, empty_note: &str) {
    let KeyColumns {
        headers: [name, id],
        id_field,
        id_width,
    } = keys;
    let jobs = tab["jobs"].as_array().map(Vec::as_slice).unwrap_or(&[]);
    let width = jobs
        .iter()
        .map(|row| row[name].as_str().unwrap_or("?").len())
        .max()
        .unwrap_or(4)
        .max("TOTAL".len());
    println!("{title}");
    print!("{name:<width$}  {id:>id_width$}");
    for (_, header) in PHASES {
        print!("  {header:>8}");
    }
    println!("  {:>8}  outcome", "total");
    for row in jobs {
        print!(
            "{:<width$}  {:>id_width$}",
            row[name].as_str().unwrap_or("?"),
            row[id_field].as_u64().unwrap_or(0)
        );
        for (key, _) in PHASES {
            print!(
                "  {:>8}",
                millis(row["phases_us"][key].as_u64().unwrap_or(0))
            );
        }
        println!(
            "  {:>8}  {}",
            millis(row["total_us"].as_u64().unwrap_or(0)),
            row["outcome"].as_str().unwrap_or("?")
        );
    }
    print!("{:<width$}  {:>id_width$}", "TOTAL", "");
    for (key, _) in PHASES {
        print!(
            "  {:>8}",
            millis(tab["phase_totals_us"][key].as_u64().unwrap_or(0))
        );
    }
    println!(
        "  {:>8}",
        millis(tab["grand_total_us"].as_u64().unwrap_or(0))
    );
    if jobs.is_empty() {
        println!("{empty_note}");
    }
    println!("(all figures ms of wall-clock phase time; counters, not durations, are the deterministic surface)");
}

/// Folds a replayed serve journal into the cross-tab document: one entry
/// per accepted job (id order), per-phase and total microseconds from
/// its terminal record, and phase totals across the journal. The schema
/// mirrors the sweep cross-tab with a `serve` header in place of
/// `campaign`.
fn serve_cross_tab(replay: &ServeReplay) -> Value {
    let mut phase_totals: BTreeMap<&str, u64> = PHASES.iter().map(|(key, _)| (*key, 0)).collect();
    let mut grand_us = 0u64;
    let job_rows: Vec<Value> = replay
        .jobs
        .values()
        .map(|job| {
            let mut phases = BTreeMap::new();
            let mut total_us = 0;
            for (key, _) in PHASES {
                let us = job.phases_us[key].as_u64().unwrap_or(0);
                total_us += us;
                *phase_totals.get_mut(key).expect("seeded above") += us;
                phases.insert(key.to_owned(), json!(us));
            }
            grand_us += total_us;
            json!({
                "id": job.id,
                "kind": job.kind.name(),
                "outcome": job.terminal.as_ref().map_or("pending", JobState::label),
                "phases_us": Value::Object(phases),
                "total_us": total_us,
            })
        })
        .collect();
    let totals: BTreeMap<String, Value> = phase_totals
        .into_iter()
        .map(|(key, us)| (key.to_owned(), json!(us)))
        .collect();
    let terminal = replay.jobs.values().filter(|j| j.terminal.is_some());
    json!({
        "serve": {
            "jobs": replay.jobs.len() as u64,
            "terminal": terminal.count() as u64,
        },
        "jobs": Value::Array(job_rows),
        "phase_totals_us": Value::Object(totals),
        "grand_total_us": grand_us,
    })
}

/// The machine-readable cross-tab: same campaign header, one entry per
/// job with per-phase and total microseconds, and the campaign-wide
/// totals. Every phase key is always present (0 when unobserved) so the
/// schema is identical for empty and non-empty documents.
fn cross_tab(doc: &Value, jobs: &[Value]) -> Value {
    let job_rows: Vec<Value> = jobs
        .iter()
        .map(|row| {
            let mut phases = BTreeMap::new();
            let mut total_us = 0;
            for (key, _) in PHASES {
                let us = row["phases_us"][key].as_u64().unwrap_or(0);
                total_us += us;
                phases.insert(key.to_owned(), json!(us));
            }
            json!({
                "spec": row["spec"].as_str().unwrap_or("?"),
                "k": row["k"].as_u64().unwrap_or(0),
                "outcome": row["outcome"].as_str().unwrap_or("?"),
                "phases_us": Value::Object(phases),
                "total_us": total_us,
            })
        })
        .collect();
    let mut totals = BTreeMap::new();
    let mut grand_us = 0;
    for (key, _) in PHASES {
        let us = doc["phase_totals_us"][key].as_u64().unwrap_or(0);
        grand_us += us;
        totals.insert(key.to_owned(), json!(us));
    }
    json!({
        "campaign": doc["campaign"].clone(),
        "jobs": job_rows,
        "phase_totals_us": Value::Object(totals),
        "grand_total_us": grand_us,
    })
}

/// Microseconds rendered as fixed-point milliseconds.
fn millis(us: u64) -> String {
    format!("{}.{:03}", us / 1000, us % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_is_fixed_point() {
        assert_eq!(millis(0), "0.000");
        assert_eq!(millis(999), "0.999");
        assert_eq!(millis(12_345), "12.345");
    }

    #[test]
    fn cross_tab_schema_is_stable_on_empty_input() {
        // A fully replayed resume produces a metrics document with zero
        // executed jobs and no `phase_totals_us` — the cross-tab must
        // still carry every phase key with a zero, not collapse.
        let doc = json!({"campaign": {"executed": 0}, "jobs": []});
        let tab = cross_tab(&doc, &[]);
        assert_eq!(tab["jobs"].as_array().unwrap().len(), 0);
        assert_eq!(tab["grand_total_us"], 0);
        for (key, _) in PHASES {
            assert_eq!(tab["phase_totals_us"][key], 0, "phase `{key}`");
        }
    }

    /// Frames `events` into a journal file and replays it, as `stats`
    /// does with a serve `--journal`.
    fn replayed(name: &str, events: &[Value]) -> ServeReplay {
        let path =
            std::env::temp_dir().join(format!("selfstab-stats-{}-{name}", std::process::id()));
        let text: String = events
            .iter()
            .map(selfstab_campaign::journal::frame)
            .collect();
        std::fs::write(&path, text).unwrap();
        let replay = selfstab_serve::journal::replay(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        replay
    }

    #[test]
    fn serve_cross_tab_joins_submits_with_terminals() {
        let events = [
            json!({"ev": "serve", "version": 1}),
            json!({"ev": "submitted", "id": 1, "kind": "verify", "key": "a"}),
            json!({"ev": "submitted", "id": 2, "kind": "sweep", "key": "b"}),
            json!({"ev": "submitted", "id": 3, "kind": "synthesize", "key": "c"}),
            json!({"ev": "submitted", "id": 4, "kind": "verify", "key": "d"}),
            json!({"ev": "done", "id": 1, "exit_code": 0, "body": "{}",
                   "phases_us": {"parse": 5, "fused_scan": 95}}),
            json!({"ev": "failed", "id": 3, "status": 500, "message": "x",
                   "phases_us": {"synthesis": 40}}),
            // A `done` without its body restores nothing, so boot replay
            // re-enqueues the job: stats must not call it done.
            json!({"ev": "done", "id": 4, "exit_code": 0, "phases_us": {"parse": 7}}),
            // A cache hit on job 1's key: done, and no phase ran.
            json!({"ev": "hit", "id": 5, "kind": "verify", "key": "a"}),
        ];
        let tab = serve_cross_tab(&replayed("joins.jsonl", &events));
        assert_eq!(tab["serve"]["jobs"], 5u64);
        assert_eq!(tab["serve"]["terminal"], 3u64);
        let jobs = tab["jobs"].as_array().unwrap();
        assert_eq!(jobs[0]["outcome"], "done");
        assert_eq!(jobs[0]["total_us"], 100u64);
        assert_eq!(
            jobs[0]["phases_us"]["livelock_dfs"], 0u64,
            "absent phase is 0"
        );
        assert_eq!(jobs[1]["outcome"], "pending", "the crash's collateral");
        assert_eq!(jobs[1]["total_us"], 0u64);
        assert_eq!(jobs[2]["outcome"], "failed");
        assert_eq!(jobs[3]["outcome"], "pending", "a body-less done");
        assert_eq!(jobs[3]["total_us"], 0u64);
        assert_eq!(jobs[4]["outcome"], "done", "a cache hit");
        assert_eq!(jobs[4]["kind"], "verify");
        assert_eq!(jobs[4]["total_us"], 0u64);
        assert_eq!(tab["phase_totals_us"]["synthesis"], 40u64);
        assert_eq!(tab["grand_total_us"], 140u64);
    }

    #[test]
    fn serve_cross_tab_is_well_formed_for_a_header_only_journal() {
        let header = [json!({"ev": "serve", "version": 1})];
        let tab = serve_cross_tab(&replayed("header.jsonl", &header));
        assert_eq!(tab["serve"]["jobs"], 0u64);
        assert!(tab["jobs"].as_array().unwrap().is_empty());
        for (key, _) in PHASES {
            assert_eq!(tab["phase_totals_us"][key], 0u64, "phase `{key}`");
        }
    }

    #[test]
    fn cross_tab_totals_each_job() {
        let doc = json!({
            "campaign": {"executed": 1},
            "phase_totals_us": {"parse": 10, "fused_scan": 90}
        });
        let jobs = vec![json!({
            "spec": "a.stab", "k": 3, "outcome": "verified",
            "phases_us": {"parse": 10, "fused_scan": 90}
        })];
        let tab = cross_tab(&doc, &jobs);
        let job = &tab["jobs"][0];
        assert_eq!(job["total_us"], 100);
        assert_eq!(job["phases_us"]["livelock_dfs"], 0, "absent phase is 0");
        assert_eq!(tab["grand_total_us"], 100);
    }
}
