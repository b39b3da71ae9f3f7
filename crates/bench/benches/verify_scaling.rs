//! Experiment E12 (verification): the local method's cost is independent
//! of the ring size, while explicit-state global checking grows as `d^K`.
//! This bench regenerates the crossover table of EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfstab_bench::timing::{fmt_us, timed_min};
use selfstab_core::report::StabilizationReport;
use selfstab_global::engine::{find_livelock_metered, fused_scan_metered, CancelToken};
use selfstab_global::{check, DeadlockSummary, EngineConfig, RingInstance, SymmetryMode};
use selfstab_protocols::{agreement, sum_not_two};
use selfstab_telemetry::{EngineCounters, Phase, PhaseTimes};

fn bench_local_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify_local");
    let cases = [
        ("agreement_t01", agreement::binary_agreement_one_sided()),
        ("sum_not_two", sum_not_two::sum_not_two_solution()),
        ("max_agreement5", agreement::max_agreement(5)),
    ];
    for (name, p) in &cases {
        g.bench_function(*name, |b| b.iter(|| StabilizationReport::analyze(p)));
    }
    g.finish();
}

fn bench_global_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify_global");
    g.sample_size(10);
    let p = agreement::binary_agreement_one_sided();
    for k in [6usize, 10, 14, 18] {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        g.bench_with_input(BenchmarkId::new("agreement_t01", k), &ring, |b, ring| {
            b.iter(|| check::ConvergenceReport::check(ring));
        });
    }
    let p = sum_not_two::sum_not_two_solution();
    for k in [4usize, 6, 8, 10] {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        g.bench_with_input(BenchmarkId::new("sum_not_two", k), &ring, |b, ring| {
            b.iter(|| check::ConvergenceReport::check(ring));
        });
    }
    g.finish();
}

fn bench_livelock_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("livelock_detection_global");
    g.sample_size(10);
    let p = agreement::binary_agreement_both();
    for k in [6usize, 10, 14] {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        g.bench_with_input(BenchmarkId::new("agreement_both", k), &ring, |b, ring| {
            b.iter(|| check::find_livelock(ring));
        });
    }
    g.finish();
}

/// The seed's sequential formulation of the full convergence check: three
/// separate sweeps (legitimacy count, closure violations materialized,
/// illegitimate deadlocks) plus the livelock DFS — with legitimacy
/// evaluated the way the seed's `RingInstance::is_legit` did it, by running
/// the local predicate over every process's freshly derived window (one
/// `pow`-based `local_state_of` per digit). This is the exact work
/// `ConvergenceReport::check` performed before the fused engine and its
/// memoized class tables existed.
fn seed_style_check(
    p: &selfstab_protocol::Protocol,
    ring: &RingInstance,
) -> (u64, DeadlockSummary, bool, bool) {
    let k = ring.ring_size();
    let legit = |s: selfstab_global::GlobalStateId| {
        (0..k).all(|i| p.legit().holds(ring.local_state_of(s, i)))
    };
    let legit_count = ring.space().ids().filter(|&s| legit(s)).count() as u64;
    let closure = check::closure_violations_where(ring, legit);
    let deadlocks = check::illegitimate_deadlocks_where(ring, legit);
    let livelock = check::find_livelock_where(ring, legit);
    (
        legit_count,
        DeadlockSummary::of(&deadlocks),
        closure.is_empty(),
        livelock.is_none(),
    )
}

/// Seed-vs-fused-vs-reduced comparison at K=10, d=3 (59049 states),
/// recording the measured speedups to `BENCH_verify_scaling.json` at the
/// repo root. The full-scan baseline pins `SymmetryMode::Full`, so it
/// cannot silently become a reduced scan (the default `Auto` reduces
/// every rotation-symmetric ring).
fn bench_engine_comparison(_c: &mut Criterion) {
    let p = sum_not_two::sum_not_two_solution();
    let k = 10;
    let ring = RingInstance::symmetric(&p, k).unwrap();
    let full_seq = EngineConfig::default().with_symmetry(SymmetryMode::Full);
    let reduced_cfg = EngineConfig::default();

    // The engines must agree before their timings mean anything.
    let seed = seed_style_check(&p, &ring);
    for config in [&full_seq, &reduced_cfg] {
        let r = check::ConvergenceReport::check_with(&ring, config);
        assert_eq!(seed.0, r.legit_count);
        assert_eq!(seed.1, r.illegitimate_deadlocks);
        assert_eq!(seed.2, r.closure_violation.is_none());
        assert_eq!(seed.3, r.livelock.is_none());
    }

    // Best-of-N: interference on a shared host only adds time, so the
    // fastest observed run is the honest per-engine cost.
    let reps = 5;
    let seed_us = timed_min(reps, || {
        std::hint::black_box(seed_style_check(&p, &ring));
    });
    let fused_seq_us = timed_min(reps, || {
        std::hint::black_box(check::ConvergenceReport::check_with(&ring, &full_seq));
    });
    let fused_reduced_us = timed_min(reps, || {
        std::hint::black_box(check::ConvergenceReport::check_with(&ring, &reduced_cfg));
    });

    // Telemetry cost, both ways. Disabled (`counters: None`) must be free:
    // the metered entry points ARE the engine now, so any overhead here is
    // overhead every caller pays. Enabled flushes plain locals into
    // atomics once per pass — the contract is "counters cost nothing
    // inside the loop".
    let seq = &full_seq;
    let token = CancelToken::new();
    let full_check = |counters: Option<&EngineCounters>| {
        let scan = fused_scan_metered(&ring, seq, &token, counters).expect("no deadline");
        let live = find_livelock_metered(&ring, &scan, &token, counters).expect("no deadline");
        (scan, live)
    };
    let disabled_us = timed_min(reps, || {
        std::hint::black_box(full_check(None));
    });
    let counters = EngineCounters::new();
    let enabled_us = timed_min(reps, || {
        std::hint::black_box(full_check(Some(&counters)));
    });
    let disabled_overhead = disabled_us / fused_seq_us;
    let enabled_overhead = enabled_us / disabled_us;

    // Phase totals for one fully metered check, as `sweep --metrics`
    // would attribute them — once per symmetry mode, so the scan and DFS
    // phases can be compared full-vs-reduced individually.
    let phases = PhaseTimes::new();
    let scan = phases.time(Phase::FusedScan, || {
        fused_scan_metered(&ring, seq, &token, Some(&counters)).expect("no deadline")
    });
    let _ = phases.time(Phase::LivelockDfs, || {
        find_livelock_metered(&ring, &scan, &token, Some(&counters)).expect("no deadline")
    });
    let snap = phases.snapshot();
    let phases_red = PhaseTimes::new();
    let scan_red = phases_red.time(Phase::FusedScan, || {
        fused_scan_metered(&ring, &reduced_cfg, &token, Some(&counters)).expect("no deadline")
    });
    let _ = phases_red.time(Phase::LivelockDfs, || {
        find_livelock_metered(&ring, &scan_red, &token, Some(&counters)).expect("no deadline")
    });
    let snap_red = phases_red.snapshot();
    let scan_full_us = snap.micros[Phase::FusedScan.index()] as f64;
    let scan_red_us = snap_red.micros[Phase::FusedScan.index()] as f64;
    let speedup_reduced_scan = scan_full_us / scan_red_us.max(1.0);

    // The raised ceiling: K=12 (531441 states) is where the full scan
    // stops being interactive; the reduced engine keeps it there.
    let k_max = 12;
    let ring_max = RingInstance::symmetric(&p, k_max).unwrap();
    let full_max = check::ConvergenceReport::check_with(&ring_max, &full_seq);
    let red_max = check::ConvergenceReport::check_with(&ring_max, &reduced_cfg);
    assert_eq!(full_max.legit_count, red_max.legit_count);
    assert_eq!(
        full_max.illegitimate_deadlocks,
        red_max.illegitimate_deadlocks
    );
    assert_eq!(
        full_max.illegitimate_deadlocks,
        DeadlockSummary::of(&check::illegitimate_deadlocks(&ring_max))
    );
    assert_eq!(full_max.livelock, red_max.livelock);
    let max_full_us = timed_min(reps, || {
        std::hint::black_box(check::ConvergenceReport::check_with(&ring_max, &full_seq));
    });
    let max_reduced_us = timed_min(reps, || {
        std::hint::black_box(check::ConvergenceReport::check_with(
            &ring_max,
            &reduced_cfg,
        ));
    });

    let speedup_seq = seed_us / fused_seq_us;
    let speedup_reduced = seed_us / fused_reduced_us;
    let speedup_reduced_vs_full = fused_seq_us / fused_reduced_us;
    println!(
        "engine_comparison sum_not_two K={k}: seed {} | fused(seq) {} ({speedup_seq:.1}x) | \
         reduced {} ({speedup_reduced:.1}x, {speedup_reduced_vs_full:.1}x over full)",
        fmt_us(seed_us),
        fmt_us(fused_seq_us),
        fmt_us(fused_reduced_us),
    );
    println!(
        "scan phase full {} vs reduced {} ({speedup_reduced_scan:.1}x); \
         K={k_max}: full {} vs reduced {} ({:.1}x)",
        fmt_us(scan_full_us),
        fmt_us(scan_red_us),
        fmt_us(max_full_us),
        fmt_us(max_reduced_us),
        max_full_us / max_reduced_us.max(1.0),
    );
    println!(
        "telemetry: disabled {} ({disabled_overhead:.3}x of plain engine) | \
         enabled {} ({enabled_overhead:.3}x of disabled)",
        fmt_us(disabled_us),
        fmt_us(enabled_us),
    );

    let json = format!(
        "{{\n  \"bench\": \"verify_scaling/engine_comparison\",\n  \"protocol\": \"sum_not_two\",\n  \
         \"ring_size\": {k},\n  \"domain_size\": 3,\n  \"states\": {},\n  \
         \"seed_sequential_us\": {seed_us:.1},\n  \"fused_sequential_us\": {fused_seq_us:.1},\n  \
         \"fused_reduced_us\": {fused_reduced_us:.1},\n  \
         \"speedup_fused_sequential\": {speedup_seq:.2},\n  \
         \"speedup_reduced\": {speedup_reduced:.2},\n  \
         \"speedup_reduced_vs_full\": {speedup_reduced_vs_full:.2},\n  \
         \"speedup_reduced_scan\": {speedup_reduced_scan:.2},\n  \
         \"telemetry_disabled_us\": {disabled_us:.1},\n  \"telemetry_enabled_us\": {enabled_us:.1},\n  \
         \"telemetry_disabled_overhead\": {disabled_overhead:.3},\n  \
         \"telemetry_enabled_overhead\": {enabled_overhead:.3},\n  \
         \"phase_totals_us\": {{\"fused_scan\": {}, \"livelock_dfs\": {}}},\n  \
         \"reduced_phase_totals_us\": {{\"fused_scan\": {}, \"livelock_dfs\": {}}},\n  \
         \"max_k\": {{\"ring_size\": {k_max}, \"states\": {}, \"fused_full_us\": {max_full_us:.1}, \
         \"fused_reduced_us\": {max_reduced_us:.1}, \"speedup_reduced_vs_full\": {:.2}}},\n  \
         \"note\": \"best of {reps} runs per engine, each on one thread; timings depend on \
         the host\"\n}}\n",
        ring.space().len(),
        snap.micros[Phase::FusedScan.index()],
        snap.micros[Phase::LivelockDfs.index()],
        snap_red.micros[Phase::FusedScan.index()],
        snap_red.micros[Phase::LivelockDfs.index()],
        ring_max.space().len(),
        max_full_us / max_reduced_us.max(1.0),
    );
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_verify_scaling.json");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("could not write {}: {e}", out.display());
    }

    // Persistent registry row, gated on SELFSTAB_REGISTRY so ad-hoc bench
    // runs do not pollute a committed registry. The headline numbers of
    // BENCH_verify_scaling.json land in `kpis` — timing KPIs, so `selfstab
    // registry diff` can reproduce the headline table from rows alone
    // (report them; gate CI on the deterministic `states` only).
    if let Ok(registry) = std::env::var("SELFSTAB_REGISTRY") {
        use selfstab_core::registry_row::{append_row, RegistryRow};
        use serde_json::json;
        let row = RegistryRow {
            source: "bench".to_owned(),
            spec: "sum_not_two".to_owned(),
            kind: "verify_scaling".to_owned(),
            k: format!("{k}..{k_max}"),
            knobs: json!({"domain_size": 3, "reps": reps as u64}),
            kpis: json!({
                "states": ring.space().len() as u64,
                "seed_sequential_us": seed_us,
                "fused_sequential_us": fused_seq_us,
                "fused_reduced_us": fused_reduced_us,
                "speedup_fused_sequential": speedup_seq,
                "speedup_reduced": speedup_reduced,
                "speedup_reduced_vs_full": speedup_reduced_vs_full,
            }),
            meta: RegistryRow::meta_now((seed_us + fused_seq_us + fused_reduced_us) as u64),
        };
        let path = std::path::Path::new(&registry);
        if let Err(e) = append_row(path, &row) {
            eprintln!("could not append to {}: {e}", path.display());
        } else {
            println!("appended bench registry row to {}", path.display());
        }
    }
}

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_local_verification,
    bench_global_verification,
    bench_livelock_detection,
    bench_engine_comparison
}
criterion_main!(benches);
