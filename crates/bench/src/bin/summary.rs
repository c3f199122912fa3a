//! Runs **every** paper experiment back to back and prints the complete
//! paper-vs-measured summary recorded in `EXPERIMENTS.md`, including the
//! architectural refresh-interference study (A1).
//!
//! With `--stats` it additionally prints per-design solver statistics
//! for the worst-case search transient, recovery-ladder rescues included.

use tcam_arch::energy_model::OperationCosts;
use tcam_arch::refresh_sched::{compare_policies, RefreshSimConfig};
use tcam_bench::{banner, has_flag, spec_from_args};
use tcam_core::experiments::{
    all_designs, fig6_write, fig7_search, mismatch_key, pattern_word, refresh_study,
    table1_measurements,
};
use tcam_core::metrics::{
    format_search_table, format_write_table, search_edp_ratios, search_latency_ratios,
    write_energy_ratios,
};
use tcam_core::ops::run_search;
use tcam_core::osr::V_REFRESH;
use tcam_spice::units::format_si;

fn main() {
    let spec = spec_from_args();
    banner("nem-tcam: full paper reproduction summary", &spec);

    // T1 — Table I.
    println!("\n[T1] Table I device parameters");
    match table1_measurements() {
        Ok(t) => println!(
            "  V_PI {:.3} V (0.53)  V_PO {:.3} V (0.13)  C_on {} (20 aF)  C_off {} (15 aF)  tau {} (2 ns)",
            t.v_pi,
            t.v_po,
            format_si(t.c_on, "F"),
            format_si(t.c_off, "F"),
            format_si(t.tau_mech, "s"),
        ),
        Err(e) => println!("  FAILED: {e}"),
    }

    // F6 — write.
    println!("\n[F6] write latency / energy per row");
    let writes = match fig6_write(&spec) {
        Ok(w) => {
            print!("{}", format_write_table(&w));
            Some(w)
        }
        Err(e) => {
            println!("  FAILED: {e}");
            None
        }
    };
    if let Some(w) = &writes {
        let r = write_energy_ratios(w, "3T2N");
        println!("  paper write-energy ratios: SRAM 2.31x, RRAM 131x, FeFET 13.5x");
        print!("  measured:                 ");
        for (name, v) in &r {
            print!(" {name} {v:.2}x ");
        }
        println!();
    }

    // F7 — search.
    println!("\n[F7] search latency / energy / EDP");
    match fig7_search(&spec) {
        Ok(s) => {
            print!("{}", format_search_table(&s));
            let lat = search_latency_ratios(&s, "3T2N");
            let edp = search_edp_ratios(&s, "3T2N");
            println!(
                "  paper: speedups SRAM 5.50x RRAM 1.47x FeFET 3.36x; EDP 12.7x / 1.30x / 2.83x"
            );
            print!("  measured speedups:");
            for (n, v) in &lat {
                print!(" {n} {v:.2}x");
            }
            print!("\n  measured EDP:     ");
            for (n, v) in &edp {
                print!(" {n} {v:.2}x");
            }
            println!();
        }
        Err(e) => println!("  FAILED: {e}"),
    }

    // R1–R3 + F4 — refresh.
    println!("\n[R1-R3] one-shot refresh / retention / refresh power");
    match refresh_study(&spec, V_REFRESH) {
        Ok(r) => {
            println!(
                "  OSR energy {} (paper 520 fJ), states {}",
                format_si(r.osr.energy_array, "J"),
                if r.osr.states_preserved {
                    "preserved"
                } else {
                    "CORRUPT"
                }
            );
            match r.retention.retention {
                Some(t) => println!("  retention {} (paper 26.5 µs)", format_si(t, "s")),
                None => println!("  retention > simulated window"),
            }
            if let Some(p) = r.refresh_power {
                println!("  refresh power {} (paper 19.6 nW)", format_si(p, "W"));
            }
        }
        Err(e) => println!("  FAILED: {e}"),
    }

    // A1 — architectural refresh interference.
    println!("\n[A1] refresh interference under 50 Msearch/s (1 ms simulated)");
    let a1 = RefreshSimConfig {
        rows: spec.rows,
        costs: OperationCosts::paper_3t2n(),
        search_rate: 50e6,
        search_time: 5e-9,
        duration: 1e-3,
        seed: 42,
    };
    let (rbr, osr) = compare_policies(&a1, 10e-9);
    println!(
        "  row-by-row: {} refresh ops, {} delayed searches, mean wait {}, energy {}, {} delayed by refresh",
        rbr.refresh_ops,
        rbr.delayed_searches,
        format_si(rbr.mean_wait, "s"),
        format_si(rbr.refresh_energy, "J"),
        rbr.refresh_delayed_searches
    );
    println!(
        "  one-shot:   {} refresh ops, {} delayed searches, mean wait {}, energy {}, {} delayed by refresh",
        osr.refresh_ops,
        osr.delayed_searches,
        format_si(osr.mean_wait, "s"),
        format_si(osr.refresh_energy, "J"),
        osr.refresh_delayed_searches
    );
    // Optional: per-design solver statistics for the F7 mismatch search,
    // showing the cached-LU path at work (fresh factorizations stay in the
    // low single digits; refactorizations track the NR iteration count),
    // the fill the column order left (factor nnz over matrix nnz), and
    // whether the recovery ladder had to step in: a run a rung rescued
    // succeeds quietly, so Newton rejections and rescues are shown.
    if has_flag("stats") {
        println!("\n[--stats] solver statistics, worst-case search transient");
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>11} {:>11} {:>8}",
            "design",
            "fresh",
            "refactor",
            "nr iters",
            "accepted",
            "rejected",
            "unknowns",
            "matrix_nnz",
            "factor_nnz",
            "newton rej",
            "rescued"
        );
        let stored = pattern_word(spec.cols);
        let key = mismatch_key(spec.cols);
        for design in all_designs() {
            let outcome = design
                .build_search(&spec, &stored, &key)
                .and_then(run_search);
            match outcome.as_ref().map(|r| r.waveform.solver_trace()) {
                Ok(Some(t)) => println!(
                    "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>11} {:>11} {:>8}",
                    design.name(),
                    t.stats.fresh_factorizations,
                    t.stats.refactorizations,
                    t.stats.nr_iterations,
                    t.stats.steps_accepted,
                    t.stats.steps_rejected,
                    t.stats.unknowns,
                    t.stats.matrix_nnz,
                    t.stats.factor_nnz,
                    t.reject_newton,
                    t.ladder_recoveries
                ),
                Ok(None) => println!("{:<12} (no stats recorded)", design.name()),
                Err(e) => println!("{:<12} failed: {e}", design.name()),
            }
        }
    }

    println!("\ndone.");
}
