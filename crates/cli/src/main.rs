//! `selfstab` — the command-line front end of the selfstab toolkit.
//!
//! ```text
//! selfstab analyze    <file.stab>                  local proofs (Theorems 4.2 / 5.14)
//! selfstab audit      <file.stab> [--to 6] [--symmetry M]  proofs + global cross-checks + reconstruction
//! selfstab check      <file.stab> --k 5 [--to 8] [--symmetry M]  global model checking at fixed sizes
//! selfstab sweep      <manifest.json> [--jobs J] [--symmetry M]  batch campaign over a spec corpus
//! selfstab stats      <metrics.json|journal>         phase-time cross-tab of a sweep --metrics file or serve journal
//! selfstab registry   <show|tab|diff> <registry.jsonl> [...]  query the persistent results registry
//! selfstab synthesize <file.stab> [--first] [--prune on|off] [--metrics FILE] [--json]  Section 6 synthesis methodology
//! selfstab serve      [--port P] [--threads T] [--cache-mb M] [--journal F] [--cache-snapshot F]  HTTP verification service with result caching and crash durability
//! selfstab sizes      <file.stab> [--max 20]       exact deadlocked ring sizes
//! selfstab simulate   <file.stab> --k 10 [...]     random-daemon convergence runs
//! selfstab dot        <file.stab> [--ltg] [-o F]   Graphviz export of the RCG/LTG
//! selfstab fmt        <file.stab>                  reprint the canonical .stab form
//! ```
//!
//! Verification subcommands distinguish "I could not run" from "I ran and
//! the protocol is not self-stabilizing" in the exit code: `0` means
//! verified, `1` means a usage or IO error, `2` means verification failed
//! (or, for `audit`/`sweep`, a soundness disagreement was detected).
//!
//! One check or synthesis runs on one thread; whole jobs run in parallel
//! in the `sweep --jobs` and `serve --threads` pools. `--threads T` on
//! `check`, `audit`, `sweep` and `synthesize` still parses and has no
//! effect.

mod args;
mod commands;
mod json;
mod signal;

use std::process::ExitCode;

/// Exit code for "the tool ran, but verification failed".
const EXIT_UNVERIFIED: u8 = 2;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) != Some("serve") {
        signal::default_sigpipe();
    }
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_UNVERIFIED),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches one subcommand. `Ok(true)` means verified (exit 0),
/// `Ok(false)` means the command ran but verification failed (exit 2),
/// `Err` means usage or IO trouble (exit 1).
fn run(argv: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "analyze" => commands::analyze::run(rest),
        "audit" => commands::audit::run(rest),
        "check" => commands::check::run(rest),
        "sweep" => commands::sweep::run(rest),
        "stats" => commands::stats::run(rest),
        "registry" => commands::registry::run(rest),
        "synthesize" => commands::synthesize::run(rest),
        "serve" => commands::serve::run(rest),
        "sizes" => commands::sizes::run(rest),
        "simulate" => commands::simulate::run(rest),
        "dot" => commands::dot::run(rest),
        "fmt" => commands::fmt::run(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(true)
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand `{other}`").into())
        }
    }
}

fn print_usage() {
    eprintln!(
        "selfstab — self-stabilization of parameterized rings by local reasoning

USAGE:
    selfstab <SUBCOMMAND> <file.stab> [OPTIONS]

SUBCOMMANDS:
    analyze     Theorem 4.2 / 5.14 local analysis (all ring sizes at once)
    audit       local proofs + global cross-checks + trail reconstruction
                ([--to K] [--symmetry auto|full] [--json])
    check       explicit-state global check at fixed ring sizes
                (--k N [--to M] [--symmetry auto|full]
                 — `auto`, the default, scans one state per rotation orbit
                 and lifts counts by orbit size; `full` scans every state;
                 the report is byte-identical)
    sweep       batch campaign over a manifest's spec × K matrix
                (--jobs J worker threads, one job per worker at a time,
                 --symmetry auto|full overrides the manifest policy,
                 --resume to continue from the journal, --journal FILE,
                 --retries N retry panicked jobs with exponential backoff,
                 --backoff-ms MS base retry delay (default 100),
                 --fsync always|batch journal durability (default batch),
                 --metrics FILE per-job counters + phase breakdown JSON,
                 --trace FILE Chrome trace-event file (Perfetto-loadable),
                 --registry FILE append per-job rows to the persistent
                 results registry (see `selfstab registry`),
                 [-o report.json] [--json] [--verbose|--quiet]; SIGINT
                 syncs the journal and exits 130 so --resume loses no
                 completed job)
    stats       phase-time cross-tab per spec × K from a sweep --metrics file
                or a serve --journal file (auto-detected) ([--json]
                 machine-readable cross-tab; well-formed even for a run
                 that executed zero jobs)
    registry    query the persistent results registry (JSONL rows appended
                by serve --registry, sweep --registry, and the scaling
                bench under SELFSTAB_REGISTRY):
                 show FILE [--source S] [--kind K] [--spec SUBSTR]
                   [--limit N] [--json]   filter and print rows
                 tab FILE --kpi PATH [--by source|kind|k|spec] [--json]
                   cross-tab one KPI (dotted path, e.g.
                   counters.states_visited) over a grouping column
                 diff FILE --baseline FILE [--kpi a,b,…]
                   [--tolerance-pct P] [--higher-is-better a,b,…]
                   [--json]   compare KPIs against a baseline registry;
                   exits 2 when any KPI moved beyond the tolerance in
                   its bad direction (default 10%; KPIs ending in _us,
                   _bytes or _wait are lower-is-better, others default
                   to lower-is-better unless listed in
                   --higher-is-better)
    synthesize  add convergence via the Section 6 methodology
                ([--first] stop at one solution,
                 [--prune on|off] monotone lattice pruning, default on —
                 identical outcome either way, fewer candidates verified,
                 [--metrics FILE] full counter snapshot sidecar including
                 the pruning tallies,
                 [--json] machine-readable outcome; exit 2 when the
                 methodology declares failure)
    serve       long-running HTTP verification service (JSON job API)
                ([--port P] default 7878, 0 = ephemeral; [--host H] default
                 127.0.0.1; [--threads T] pool workers, default 2;
                 [--cache-mb M] content-addressed result cache budget,
                 default 64; results are byte-identical to the CLI --json
                 output and repeated submissions are answered from cache;
                 [--journal F] durable job journal — restart with the same
                 path after any crash and accepted jobs survive;
                 [--cache-snapshot F] warm-restart cache snapshot;
                 [--fsync always|batch] journal durability, default batch;
                 [--retries N] panic retries per job, default 2;
                 [--backoff-ms MS] retry backoff base, default 50;
                 [--max-pending N] admission cap base (shed with 429);
                 [--max-connections N] connection cap, default 256;
                 [--max-rss-mb M] memory watchdog budget — sheds
                 synthesize, then sweep, then verify as RSS climbs;
                 [--trace F] server-wide Chrome trace-event file written
                 on drain (per-job traces are always available at
                 GET /v1/jobs/:id/trace);
                 [--registry F] append one canonical JSONL row per
                 computed job to the persistent results registry;
                 GET /v1/metrics?format=prometheus for text exposition;
                 SIGINT/SIGTERM drain gracefully and exit 130)
    sizes       exact deadlocked ring sizes ([--max N], default 20) ([--json])
    simulate    random-daemon convergence statistics (--k N [--trials T] [--steps S] [--seed X]) ([--json])
    dot         Graphviz export of the RCG ([--ltg] for the LTG, [-o FILE])
    fmt         reprint the canonical .stab form
    help        this message

EXIT CODES:
    0   verified (or nothing to verify)
    1   usage or IO error
    2   verification failed — a checked size is not self-stabilizing, a
        campaign job failed or errored, or a soundness disagreement between
        the local proof and the global check was detected"
    );
}
