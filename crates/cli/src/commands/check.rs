//! `selfstab check <file.stab> --k N [--to M] [--threads T] [--symmetry MODE]` —
//! explicit-state global model checking at fixed ring sizes.
//!
//! `--symmetry auto|full` selects the rotation-symmetry reduction policy:
//! `auto` (the default; `reduced` is another spelling of it) scans one
//! necklace per rotation orbit and lifts counts by orbit size, producing
//! the byte-identical report at a fraction of the work; `full` scans every
//! dense state. The check runs on one thread; `--threads T` still parses
//! (a non-negative number) and has no effect.

use selfstab_global::{check::ConvergenceReport, EngineConfig, RingInstance, SymmetryMode};

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw)?;
    let protocol = load_protocol(&args)?;
    let from = args.require_usize("k")?;
    let to = args.get_usize("to", from)?;
    if to < from {
        return Err("--to must be at least --k".into());
    }
    let symmetry: SymmetryMode = args.get("symmetry").unwrap_or("auto").parse()?;
    args.get_usize("threads", 1)?;
    let engine = EngineConfig::default().with_symmetry(symmetry);

    let mut all_ok = true;
    let mut json_rows = Vec::new();
    for k in from..=to {
        let ring = RingInstance::symmetric(&protocol, k)?;
        let report = ConvergenceReport::check_with(&ring, &engine);
        if args.flag("json") {
            json_rows.push(crate::json::convergence_report(&report));
            if !report.self_stabilizing() {
                all_ok = false;
            }
            continue;
        }
        print!("{report}");
        if let Some(cycle) = &report.livelock {
            let rendered: Vec<String> = cycle
                .iter()
                .take(12)
                .map(|&s| protocol.domain().format_values(&ring.space().decode(s)))
                .collect();
            println!(
                "  livelock cycle: {}{}",
                rendered.join(" -> "),
                if cycle.len() > 12 { " ..." } else { "" }
            );
        }
        if !report.self_stabilizing() {
            all_ok = false;
        }
    }
    if args.flag("json") {
        // The shared renderer frames the document, so the HTTP service's
        // cached results stay byte-identical to this output.
        print!("{}", selfstab_serve::render::check_document(json_rows));
    } else if all_ok {
        println!("strongly self-stabilizing at every checked size");
    } else {
        println!("some checked size fails");
    }
    Ok(all_ok)
}
