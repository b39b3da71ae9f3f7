//! `selfstab-serve` — a long-running HTTP verification service over the
//! selfstab compute core.
//!
//! The CLI model is one process per question; this crate amortizes the
//! process across many questions. `selfstab serve` binds a threaded,
//! std-only HTTP/1.1 server (the workspace is offline, so the protocol
//! layer is hand-rolled in [`http`] — no tokio/hyper) exposing a small
//! JSON API:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | submit a spec + kind (`verify`\|`sweep`\|`synthesize`) + K range + budgets |
//! | `GET /v1/jobs/:id` | status + per-phase time breakdown |
//! | `GET /v1/jobs/:id/result` | the result document, **byte-identical** to the CLI's `--json` output |
//! | `GET /v1/jobs/:id/trace` | the job's request-scoped Chrome-trace document (Perfetto-loadable) |
//! | `GET /v1/cache/stats` | content-addressed cache counters |
//! | `GET /v1/metrics` | the full telemetry registry (`?format=prometheus` for text exposition) |
//! | `GET /v1/healthz` | liveness (`ok` / `draining`) |
//! | `GET /v1/readyz` | readiness: `ready` / `draining` / `saturated`, with shed level and queue occupancy |
//!
//! **Observability** is request-scoped and out-of-band: every response
//! carries an `X-Selfstab-Trace-Id` header minted at ingress, jobs
//! collect span lanes ([`trace`]) covering admission, cache lookup,
//! queue wait, and the engine's phases, and the server can interleave
//! every lane into one `--trace` file at drain. Latency histograms
//! (time-to-first-byte per endpoint, queue wait and execution per kind,
//! journal appends) land in the same registry `/v1/metrics` serves; with
//! `--registry`, every computed result also appends one canonical row to
//! the persistent results registry
//! ([`selfstab_core::registry_row`]). Result documents never change:
//! the determinism contract (`/v1/jobs/:id/result` byte-identity) holds
//! with all of this enabled.
//!
//! The headline mechanism is the **content-addressed result cache**
//! ([`cache`]): requests are keyed by the canonical parse-tree hash of
//! the spec ([`selfstab_core::spec_hash`] — whitespace-, comment- and
//! declaration-order-invariant) combined with every input the document
//! depends on (kind, K range, state budget, symmetry mode). A repeated
//! question is answered from memory without touching the worker pool,
//! and N clients racing the same cold key coalesce onto one pool job.
//!
//! Work runs on a persistent FIFO pool
//! ([`selfstab_campaign::ServicePool`]) under per-request deadlines via
//! [`selfstab_global::CancelToken`]; a deadline that fires mid-check
//! degrades to HTTP 504 carrying the rows completed so far. SIGINT /
//! SIGTERM drain gracefully: stop accepting, cancel in-flight work
//! cooperatively, exit 130.
//!
//! The service is **crash-durable and overload-safe**:
//!
//! * [`journal`] persists every accepted job and terminal result through
//!   the campaign crate's CRC-framed torn-write-safe journal — a
//!   SIGKILLed server restarts with the same job ids resolvable and
//!   re-enqueues exactly the jobs the crash interrupted;
//! * [`cache`] optionally writes completed documents through to a
//!   snapshot file, so a restarted server answers repeat traffic warm;
//! * [`admission`] bounds per-kind acceptance (`429` + `Retry-After`
//!   past the caps) and degrades gracefully under a memory watchdog —
//!   `synthesize` sheds before `sweep` before `verify`;
//! * the hidden `--chaos` flag arms the campaign crate's seeded
//!   [`ChaosPlan`](selfstab_campaign::ChaosPlan) (injected job panics,
//!   torn responses), complementing the CI crash drill's literal
//!   `SIGKILL`.
//!
//! Module map: [`http`] (parser/writer, slow-loris defenses), [`render`]
//! (the canonical JSON rendering shared with the CLI), [`jobs`]
//! (validation + execution), [`cache`] (content-addressed store + warm
//! snapshot), [`journal`] (durable job journal), [`admission`]
//! (backpressure + watchdog), [`trace`]
//! (request-scoped span lanes + Chrome-trace rendering), [`server`]
//! (routing, submit flow, replay, drain).

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod render;
pub mod server;
pub mod trace;

pub use admission::{Admission, PendingCaps, Shed};
pub use cache::{CachedDoc, ResultCache};
pub use jobs::{JobKind, JobRequest, JobState};
pub use journal::{ReplayedJob, ServeReplay};
pub use server::{ServeConfig, ServeState, Server};
pub use trace::{JobTrace, TraceIdGen};
