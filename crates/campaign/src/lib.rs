//! `selfstab-campaign` — batch verification of whole `.stab` corpora.
//!
//! A **campaign** is the job matrix (spec × ring size) described by a
//! [`Manifest`]: every spec named by the manifest's paths/globs is checked
//! at every `K` in the manifest's range. Jobs run on a work-stealing pool
//! of scoped worker threads ([`pool`]), with per-job budgets (a state-count
//! cap and an optional wall-clock deadline) that degrade oversized `d^K`
//! instances to an [`Outcome::OverBudget`] instead of wedging the pool.
//!
//! Every job emits `queued`/`started`/`finished` events to an append-only
//! JSONL [`Journal`] that doubles as the checkpoint: replaying the journal
//! ([`journal::replay`]) recovers the set of completed jobs, so an
//! interrupted campaign resumes from where it stopped and re-executes only
//! the remainder. Each record is length- and CRC32-framed, so replay
//! tolerates a torn tail from a mid-write crash — it truncates at the
//! first corrupt record instead of erroring (see [`journal`]).
//!
//! The runner is chaos-hardened: a panicking job is caught
//! ([`chaos::run_attempt`]), journaled as `job_panicked` telemetry,
//! retried up to [`CampaignConfig::retries`] times with deterministic
//! exponential backoff, and finally degraded to a failed
//! [`Outcome::Panicked`] rather than aborting the sweep. A campaign-wide
//! interrupt token ([`CampaignConfig::interrupt`]) winds the pool down
//! cooperatively — the SIGINT path of the CLI and the forced-cancel path
//! of the deterministic fault-injection harness ([`chaos`]) share it.
//!
//! The final [`report`] is canonical JSON: jobs are merged in manifest
//! order and no wall-clock time is stamped into the body, so the rendered
//! report is **byte-identical for every worker count and every
//! interrupt/resume split**. On top of the per-job verdicts it carries a
//! soundness section cross-tabulating the paper's *local* verdict (Theorems
//! 4.2 / 5.14, one analysis shared by all of a spec's jobs) against the
//! *global* model-checking outcome of every job — any `local proven` ×
//! `global failed` cell is a soundness disagreement and is listed
//! explicitly.
//!
//! ```no_run
//! use selfstab_campaign::{run_campaign, CampaignConfig, Manifest};
//!
//! let manifest = Manifest::from_file("campaign.json".as_ref())?;
//! let outcome = run_campaign(&manifest, &CampaignConfig::default())?;
//! println!("{}", outcome.rendered_report);
//! # Ok::<(), selfstab_campaign::CampaignError>(())
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod job;
pub mod journal;
pub mod manifest;
pub mod pool;
pub mod report;
pub mod runner;
pub mod telemetry;

pub use chaos::ChaosPlan;
pub use job::{JobResult, JobSpec, LocalVerdict, Outcome};
pub use journal::{FrameReplay, FsyncPolicy, Journal, Replay};
pub use manifest::Manifest;
pub use pool::ServicePool;
pub use runner::{run_campaign, CampaignConfig, CampaignError, CampaignOutcome};
