//! Paper-style reproduction of every experiment (E1–E13 + ablations).
//!
//! Each function prints the rows EXPERIMENTS.md records. The assertions in
//! `crates/protocols/tests/experiments.rs` are the machine-checked twins of
//! these tables.

use selfstab_core::{
    deadlock::DeadlockAnalysis,
    livelock::LivelockAnalysis,
    local_closure_check,
    ltg::Ltg,
    rcg::Rcg,
    report::StabilizationReport,
    trail::{find_contiguous_trail, TrailQuery},
};
use selfstab_global::{
    check,
    schedule::{equivalent_schedules, Schedule},
    RingInstance, Simulator,
};
use selfstab_protocol::{LocalTransition, Protocol};
use selfstab_protocols::{agreement, coloring, dijkstra, matching, sum_not_two};
use selfstab_synth::{GlobalSynthesizer, LocalSynthesizer, SynthesisConfig};

use crate::timing::{fmt_us, timed, timed_mean};

fn header(id: &str, title: &str) {
    println!("\n==================== {id}: {title} ====================");
}

/// E1 (Fig. 1): RCG of maximal matching over the full local state space.
pub fn e1() {
    header("E1", "RCG of maximal matching (Fig. 1)");
    let p = matching::matching_empty();
    let (rcg, us) = timed(|| Rcg::build(&p));
    println!(
        "local states: {}   s-arcs: {}   legitimate: {}   built in {}",
        rcg.graph().vertex_count(),
        rcg.graph().arc_count(),
        p.legit().len(),
        fmt_us(us)
    );
    println!("paper: 27 states, 3 continuations each, 7 legitimate local states");
}

/// E2 (Fig. 2 / Ex. 4.2): generalizable matching is deadlock-free for all K.
pub fn e2() {
    header("E2", "generalizable matching A1..A5 (Fig. 2, Ex. 4.2)");
    let p = matching::matching_generalizable();
    let (da, us) = timed(|| DeadlockAnalysis::analyze(&p));
    println!(
        "Theorem 4.2 verdict: {} (local deadlocks {}, illegitimate {})  [{}]",
        if da.is_free_for_all_k() {
            "FREE for all K"
        } else {
            "NOT FREE"
        },
        da.local_deadlock_count(),
        da.illegitimate_deadlock_count(),
        fmt_us(us)
    );
    println!("closure: {:?}", local_closure_check(&p).is_ok());
    println!(
        "{:<4} {:>10} {:>12} {:>10} {:>12}",
        "K", "states", "deadlocks¬I", "livelock", "time"
    );
    for k in 3..=8 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let (rep, us) = timed(|| check::ConvergenceReport::check(&ring));
        println!(
            "{:<4} {:>10} {:>12} {:>10} {:>12}",
            k,
            rep.state_count,
            rep.illegitimate_deadlocks.count,
            rep.livelock.is_some(),
            fmt_us(us)
        );
    }
    println!("paper: model-checked deadlock-free for K = 5, 6, 7, 8");
}

/// E3 (Fig. 3 / Ex. 4.3): non-generalizable matching — witness cycles and
/// the exact deadlocked ring sizes (paper erratum).
pub fn e3() {
    header("E3", "non-generalizable matching B1..B4 (Fig. 3, Ex. 4.3)");
    let p = matching::matching_non_generalizable();
    let da = DeadlockAnalysis::analyze(&p);
    println!("Theorem 4.2 verdict: NOT FREE (as expected)");
    for w in da.witnesses().0 {
        let states: Vec<String> = w
            .cycle
            .iter()
            .map(|&s| p.space().format_compact(s, p.domain()))
            .collect();
        println!(
            "  witness cycle len {}: {}",
            w.base_ring_size,
            states.join("->")
        );
    }
    println!(
        "exact deadlocked ring sizes <= 14: {:?}",
        da.deadlocked_ring_sizes(14)
    );
    println!("paper claims: multiples of 4 or 6 only — ERRATUM: closed walks");
    println!("combine cycles, so K = 7 and every K >= 6 deadlock. Global check:");
    for k in 3..=9 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let n = check::illegitimate_deadlocks(&ring).len();
        print!("  K={k}:{n}");
    }
    println!();
    let lls = p.space().encode(&[0, 0, 2]);
    let fixed = p
        .with_added_transitions("fixed", [LocalTransition::new(lls, 1)])
        .unwrap();
    println!(
        "after resolving ⟨left,left,self⟩: free_for_all_k = {}",
        DeadlockAnalysis::analyze(&fixed).is_free_for_all_k()
    );
}

/// E4 (Fig. 4): LTG of the generalizable matching protocol.
pub fn e4() {
    header("E4", "LTG of Ex. 4.2 (Fig. 4)");
    let p = matching::matching_generalizable();
    let (ltg, us) = timed(|| Ltg::build(&p));
    println!(
        "t-arcs: {}   s-arcs: {}   built in {}",
        ltg.transitions().len(),
        ltg.s_arcs().arc_count(),
        fmt_us(us)
    );
}

/// E5 (Figs. 5–6 / Ex. 5.2): the agreement livelock's precedence class.
pub fn e5() {
    header(
        "E5",
        "agreement livelock precedence class (Figs. 5-6, Ex. 5.2)",
    );
    let p = agreement::binary_agreement_both();
    let ring = RingInstance::symmetric(&p, 4).unwrap();
    let cycle: Vec<_> = [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
        [1, 0, 1, 1],
        [1, 0, 0, 1],
    ]
    .iter()
    .map(|w| ring.space().encode(w))
    .collect();
    let sch = Schedule::from_cycle(&ring, &cycle);
    let class = equivalent_schedules(&ring, &sch, 1000);
    println!(
        "livelock length: {}   precedence-preserving permutations: {} (paper: 2^3 = 8)",
        cycle.len(),
        class.len()
    );
    println!(
        "all permutations replay as livelocks: {}",
        class.iter().all(|s| s.is_cyclic(&ring))
    );
}

/// E6 (Fig. 7 / Lemma 5.5): enablement conservation in livelocks.
pub fn e6() {
    header("E6", "enablement conservation (Fig. 7, Lemma 5.5)");
    let p = matching::gouda_acharya_fragment();
    println!("{:<4} {:>14} {:>8}", "K", "livelock len", "|E|");
    for k in 3..=7 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        match check::find_livelock(&ring) {
            Some(c) => {
                let e = check::livelock_enablement_count(&ring, &c);
                println!(
                    "{:<4} {:>14} {:>8}",
                    k,
                    c.len(),
                    e.map_or("?".into(), |e| e.to_string())
                );
            }
            None => println!("{:<4} {:>14} {:>8}", k, "-", "-"),
        }
    }
}

/// E7 (Fig. 8): the Gouda–Acharya livelock and its contiguous trail.
pub fn e7() {
    header("E7", "Gouda-Acharya matching fragment (Fig. 8)");
    let p = matching::gouda_acharya_fragment();
    let la = LivelockAnalysis::analyze(&p);
    println!(
        "Theorem 5.14 certificate: certified_free = {}",
        la.certified_free()
    );
    if let Some(t) = la.trail() {
        println!("blocking trail: {}", t.display(&p));
    }
    let ring = RingInstance::symmetric(&p, 5).unwrap();
    let c = check::find_livelock(&ring).expect("paper's K=5 livelock");
    println!(
        "global livelock at K=5: length {} |E| = {:?} (paper: 10 transitions, |E| = 1)",
        c.len(),
        check::livelock_enablement_count(&ring, &c)
    );
}

/// E8 (Fig. 9 / §6.1): 3-coloring synthesis failure is genuine.
pub fn e8() {
    header("E8", "3-coloring synthesis (Fig. 9, §6.1)");
    let p = coloring::three_coloring_empty();
    let (out, us) = timed(|| LocalSynthesizer::default().synthesize(&p).unwrap());
    println!(
        "combinations: {}   rejected by trail: {}   solutions: {}   [{}]",
        out.combinations_tried(),
        out.rejected_by_trail(),
        out.solutions().len(),
        fmt_us(us)
    );
    println!("paper: all 2^3 = 8 candidate sets rejected — declare failure");
    println!("{:<16} {:>22}", "candidate", "first global livelock");
    for a in [1u8, 2] {
        for b in [0u8, 2] {
            for c in [0u8, 1] {
                let cand = coloring::three_coloring_candidate([a, b, c]).unwrap();
                let mut first = None;
                for k in 2..=6 {
                    let ring = RingInstance::symmetric(&cand, k).unwrap();
                    if check::find_livelock(&ring).is_some() {
                        first = Some(k);
                        break;
                    }
                }
                println!(
                    "{:<16} {:>22}",
                    format!("t0{a},t1{b},t2{c}"),
                    first.map_or("none<=6".into(), |k| format!("K={k}"))
                );
            }
        }
    }
}

/// E9 (Fig. 10 / §6.2): agreement synthesis.
pub fn e9() {
    header("E9", "agreement synthesis (Fig. 10, §6.2)");
    let p = agreement::binary_agreement_empty();
    let (out, us) = timed(|| LocalSynthesizer::default().synthesize(&p).unwrap());
    println!(
        "solutions: {} (paper: Resolve = {{01}} or {{10}}, one t-arc each)  [{}]",
        out.solutions().len(),
        fmt_us(us)
    );
    for s in out.solutions() {
        for t in &s.added {
            println!("  {}", t.display(p.space(), p.locality(), p.domain()));
        }
        let ok = selfstab_synth::global::verify_up_to(&s.protocol, 10).is_ok();
        println!("    globally self-stabilizing K=2..=10: {ok}");
    }
    let both = agreement::binary_agreement_both();
    println!(
        "including BOTH t-arcs: certified = {} (and livelocks at K=4: {})",
        LivelockAnalysis::analyze(&both).certified_free(),
        check::find_livelock(&RingInstance::symmetric(&both, 4).unwrap()).is_some()
    );
}

/// E10 (Fig. 11 / §6.2): 2-coloring is inconclusive for the method.
pub fn e10() {
    header("E10", "2-coloring (Fig. 11, §6.2)");
    let p = coloring::two_coloring_empty();
    let out = LocalSynthesizer::default().synthesize(&p).unwrap();
    println!(
        "synthesis success: {} (paper: cannot conclude; in fact impossible [25])",
        out.is_success()
    );
    let resolved = coloring::two_coloring_resolved();
    let la = LivelockAnalysis::analyze(&resolved);
    println!("resolved {{t01, t10}}: certified = {}", la.certified_free());
    if let Some(t) = la.trail() {
        println!(
            "blocking trail: {} (paper: ≪00,t,01,s,11,t,10,s≫)",
            t.display(&resolved)
        );
    }
    for k in 3..=6 {
        let ring = RingInstance::symmetric(&resolved, k).unwrap();
        let legit = ring.space().ids().filter(|&s| ring.is_legit(s)).count();
        let ll = check::find_livelock(&ring).is_some();
        println!("  K={k}: |I|={legit} livelock={ll}");
    }
}

/// E11 (Fig. 12 / §6.2): sum-not-two — acceptance, gap, and erratum.
pub fn e11() {
    header("E11", "sum-not-two (Fig. 12, §6.2)");
    let p = sum_not_two::sum_not_two_empty();
    let out = LocalSynthesizer::default().synthesize(&p).unwrap();
    println!(
        "combinations: {}   rejected: {}   solutions: {}",
        out.combinations_tried(),
        out.rejected_by_trail(),
        out.solutions().len()
    );
    println!("paper: rejects {{t21,t10,t02}} and {{t01,t12,t20}} only.");
    println!(
        "{:<18} {:>10} {:>22}",
        "candidate", "certified", "global livelock<=7"
    );
    let cands = [
        ("t21,t10,t01", (1u8, 0u8, 1u8)),
        ("t21,t10,t02", (1, 0, 2)),
        ("t21,t12,t01", (1, 2, 1)),
        ("t21,t12,t02", (1, 2, 2)),
        ("t20,t10,t01", (0, 0, 1)),
        ("t20,t10,t02", (0, 0, 2)),
        ("t20,t12,t01", (0, 2, 1)),
        ("t20,t12,t02", (0, 2, 2)),
    ];
    for (name, (a, b, c)) in cands {
        let cand = sum_not_two::sum_not_two_candidate(a, b, c).unwrap();
        let cert = LivelockAnalysis::analyze(&cand).certified_free();
        let mut first = None;
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&cand, k).unwrap();
            if check::find_livelock(&ring).is_some() {
                first = Some(k);
                break;
            }
        }
        println!(
            "{:<18} {:>10} {:>22}",
            name,
            cert,
            first.map_or("none".into(), |k| format!("K={k}"))
        );
    }
    println!("ERRATUM: {{t20,t10,t02}} and {{t20,t12,t02}} really livelock (K>=3);");
    println!("this implementation rejects exactly the four unsound-or-unprovable sets.");
}

/// E12: the scaling contrast — K-independent local reasoning vs d^K global
/// exploration (verification and synthesis).
pub fn e12() {
    header("E12", "scaling: local reasoning vs global exploration");
    let protocols: Vec<(&str, Protocol)> = vec![
        ("agreement(t01)", agreement::binary_agreement_one_sided()),
        ("sum-not-two", sum_not_two::sum_not_two_solution()),
        ("max-agreement(4)", agreement::max_agreement(4)),
    ];
    for (name, p) in &protocols {
        let local_us = timed_mean(20, || {
            let _ = StabilizationReport::analyze(p);
        });
        println!(
            "\n{name}: local full report = {} (independent of K)",
            fmt_us(local_us)
        );
        println!("{:<6} {:>12} {:>14}", "K", "states", "global check");
        let d = p.domain().size() as u64;
        for k in [4usize, 6, 8, 10, 12] {
            if d.pow(k as u32) > (1 << 24) {
                println!("{:<6} {:>12} {:>14}", k, d.pow(k as u32), "(skipped)");
                continue;
            }
            let ring = RingInstance::symmetric(p, k).unwrap();
            let us = timed_mean(3, || {
                let _ = check::ConvergenceReport::check(&ring);
            });
            println!("{:<6} {:>12} {:>14}", k, ring.space().len(), fmt_us(us));
        }
    }

    println!("\nsynthesis (sum-not-two): local once vs global baseline per K");
    let input = sum_not_two::sum_not_two_empty();
    let (_, us) = timed(|| LocalSynthesizer::default().synthesize(&input).unwrap());
    println!("{:<22} {:>12}", "local methodology", fmt_us(us));
    for k in [3usize, 5, 7, 9, 11] {
        let (_, us) = timed(|| {
            GlobalSynthesizer::new(k, SynthesisConfig::default())
                .synthesize(&input)
                .unwrap()
        });
        println!(
            "{:<22} {:>12}",
            format!("global baseline K={k}"),
            fmt_us(us)
        );
    }
}

/// E13: Dijkstra's token ring — convergence despite corrupting actions.
pub fn e13() {
    header("E13", "Dijkstra K-state token ring (§5 remark)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "(K, m)", "deadlock", "livelock", "closed", "time"
    );
    for (k, m) in [(3usize, 3usize), (4, 4), (4, 5), (5, 5), (4, 2)] {
        let ps = dijkstra::dijkstra_processes(k, m);
        let refs: Vec<&Protocol> = ps.iter().collect();
        let ring = RingInstance::heterogeneous(&refs, 1 << 24).unwrap();
        let legit =
            |s: selfstab_global::GlobalStateId| dijkstra::token_count(&ring.space().decode(s)) == 1;
        let (res, us) = timed(|| {
            (
                !check::illegitimate_deadlocks_where(&ring, legit).is_empty(),
                check::find_livelock_where(&ring, legit).is_some(),
                check::first_closure_violation_where(&ring, legit).is_none(),
            )
        });
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            format!("({k}, {m})"),
            res.0,
            res.1,
            res.2,
            fmt_us(us)
        );
    }
    println!("(m >= K stabilizes, m = 2 < K = 4 livelocks — Dijkstra's bound)");

    // Convergence-time statistics under a random daemon.
    let ps = dijkstra::dijkstra_processes(6, 6);
    let refs: Vec<&Protocol> = ps.iter().collect();
    let ring = RingInstance::heterogeneous(&refs, 1 << 24).unwrap();
    let mut sim = Simulator::new(&ring, 11);
    let mut total = 0usize;
    let mut max = 0usize;
    let trials = 200;
    for _ in 0..trials {
        let mut s = sim.random_state();
        let mut steps = 0;
        while dijkstra::token_count(&ring.space().decode(s)) != 1 && steps < 100_000 {
            let moves = ring.moves_from(s);
            s = ring.apply(s, moves[steps % moves.len()]);
            steps += 1;
        }
        total += steps;
        max = max.max(steps);
    }
    println!(
        "K=6, m=6: mean steps to one token = {:.1}, max = {max} over {trials} random starts",
        total as f64 / trials as f64
    );
}

/// Extension X1 (beyond the paper): fault spans and worst-case recovery
/// times of the convergent protocols, per fault budget.
pub fn x1() {
    header("X1", "fault spans and worst-case recovery (extension)");
    let cases: Vec<(&str, Protocol, usize)> = vec![
        ("agreement(t01)", agreement::binary_agreement_one_sided(), 8),
        ("sum-not-two", sum_not_two::sum_not_two_solution(), 6),
        ("max-agreement(3)", agreement::max_agreement(3), 6),
    ];
    for (name, p, k) in cases {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let wc = selfstab_global::faults::worst_case_recovery(&ring)
            .expect("convergent protocols have a bound");
        println!("\n{name} at K={k}: worst-case recovery from ANY state = {wc} steps");
        println!(
            "{:<8} {:>14} {:>18}",
            "faults", "span states", "worst recovery"
        );
        for f in 0..=3usize {
            let span = selfstab_global::faults::fault_span(&ring, f);
            let starts: Vec<_> = ring.space().ids().filter(|s| span[s.index()]).collect();
            let count = starts.len();
            let wc = selfstab_global::faults::worst_case_recovery_from(&ring, starts).unwrap();
            println!("{:<8} {:>14} {:>18}", f, count, wc);
        }
    }
}

/// Extension X2 (beyond the paper): weak vs strong convergence — the flip
/// token ring and bidirectional coloring converge under a random daemon
/// but can be livelocked by an adversarial one.
pub fn x2() {
    header("X2", "weak vs strong convergence (extension)");
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let p = selfstab_protocols::token::flip_token_ring();
    println!("flip token ring (token iff x_i == x_{{i-1}}; odd rings):");
    println!(
        "{:<4} {:>18} {:>14} {:>18}",
        "K", "adversarial", "weak conv", "random mean steps"
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for k in [3usize, 5, 7, 9] {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let legit = |s: selfstab_global::GlobalStateId| {
            selfstab_protocols::token::token_count(&ring.space().decode(s)) == 1
        };
        let ll = check::find_livelock_where(&ring, legit).is_some();
        // Weak convergence: every state can reach a one-token state —
        // token parity means it holds (odd K); measure the random daemon.
        let mut total = 0usize;
        let trials = 200;
        let mut sim = Simulator::new(&ring, 5);
        for _ in 0..trials {
            let mut s = sim.random_state();
            let mut steps = 0;
            while !legit(s) && steps < 100_000 {
                let moves = ring.moves_from(s);
                s = ring.apply(s, *moves.as_slice().choose(&mut rng).unwrap());
                steps += 1;
            }
            total += steps;
        }
        println!(
            "{:<4} {:>18} {:>14} {:>18.1}",
            k,
            if ll { "livelocks" } else { "converges" },
            "yes",
            total as f64 / trials as f64
        );
    }

    let p = selfstab_protocols::coloring::bidirectional_coloring(3);
    println!("\nbidirectional 3-coloring with nondeterministic repaint:");
    println!(
        "{:<4} {:>12} {:>12} {:>12}",
        "K", "deadlocks", "adversarial", "weak conv"
    );
    for k in 3..=6 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let rep = check::ConvergenceReport::check(&ring);
        let weak = check::weakly_converges(&ring);
        println!(
            "{:<4} {:>12} {:>12} {:>12}",
            k,
            rep.illegitimate_deadlocks.count,
            if rep.livelock.is_some() {
                "livelocks"
            } else {
                "converges"
            },
            weak
        );
    }
}

/// Ablation A1: the Theorem 4.2 verdict (`analyze_prepared`: the induced
/// RCG and its SCCs) vs the witness cycles a caller asks for afterwards
/// (`witnesses()`: Johnson's enumeration).
pub fn ablate_a1() {
    header("A1", "deadlock check: SCC verdict vs witness enumeration");
    let p = matching::matching_non_generalizable();
    let rcg = Rcg::build(&p);
    let verdict_us = timed_mean(50, || {
        let _ = DeadlockAnalysis::analyze_prepared(&p, &rcg);
    });
    let analysis = DeadlockAnalysis::analyze_prepared(&p, &rcg);
    let witnesses_us = timed_mean(50, || {
        let _ = analysis.witnesses();
    });
    println!(
        "verdict (analyze_prepared): {}   witnesses(): {}",
        fmt_us(verdict_us),
        fmt_us(witnesses_us)
    );
}

/// Ablation A2: livelock certificate — exact subset enumeration vs the
/// coarse support-only search (the latter over-rejects).
pub fn ablate_a2() {
    header("A2", "trail search: subset-exact vs support-only");
    let mut exact_rejects = 0;
    let mut coarse_rejects = 0;
    for (a, b, c) in [
        (1u8, 0u8, 1u8),
        (1, 0, 2),
        (1, 2, 1),
        (1, 2, 2),
        (0, 0, 1),
        (0, 0, 2),
        (0, 2, 1),
        (0, 2, 2),
    ] {
        let cand = sum_not_two::sum_not_two_candidate(a, b, c).unwrap();
        if !LivelockAnalysis::analyze(&cand).certified_free() {
            exact_rejects += 1;
        }
        // Coarse: any trail over the whole support.
        let ts: Vec<LocalTransition> = cand.transitions().collect();
        let support =
            selfstab_core::pseudo::pseudo_livelock_support(&ts, cand.space(), cand.locality());
        let ltg = Ltg::build(&cand);
        let illegit = cand.legit().negated();
        if find_contiguous_trail(
            &ltg,
            &cand,
            &TrailQuery {
                allowed: &support,
                must_visit: illegit.as_bitset(),
                cover_all: false,
            },
        )
        .is_some()
        {
            coarse_rejects += 1;
        }
    }
    println!("sum-not-two candidates rejected: exact = {exact_rejects}/8, support-only = {coarse_rejects}/8");
    println!("(ground truth: 2 really livelock, 2 are unprovable by Theorem 5.14 => 4 is right)");
}

/// Ablation A3: RCG construction — prefix-grouped vs naive quadratic.
pub fn ablate_a3() {
    header("A3", "RCG construction: prefix-grouped vs naive O(n^2)");
    for d in [3usize, 4, 5] {
        let p = Protocol::builder(
            "bench",
            selfstab_protocol::Domain::numeric("x", d),
            selfstab_protocol::Locality::bidirectional(),
        )
        .legit_all()
        .build()
        .unwrap();
        let grouped = timed_mean(10, || {
            let _ = Rcg::build(&p);
        });
        let naive = timed_mean(10, || {
            let sp = p.space();
            let ov = p.locality().overlap();
            let mut g = selfstab_graph::DiGraph::new(sp.len());
            for a in sp.ids() {
                for b in sp.ids() {
                    if sp.is_right_continuation(a, b, ov) {
                        g.add_arc(a.index(), b.index());
                    }
                }
            }
        });
        println!(
            "d={d} ({} states): grouped = {}, naive = {}",
            d * d * d,
            fmt_us(grouped),
            fmt_us(naive)
        );
    }
}

/// Runs every experiment in order.
pub fn run_all() {
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
    e13();
    x1();
    x2();
    ablate_a1();
    ablate_a2();
    ablate_a3();
}
