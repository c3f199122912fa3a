//! Runs **every** paper experiment back to back and prints the complete
//! paper-vs-measured summary recorded in `EXPERIMENTS.md`, including the
//! architectural refresh-interference study (A1).
//!
//! With `--aggregate FILE...` it instead merges the JSON lines of the
//! listed bench record files (`BENCH_obs.json`, `BENCH_trace.json`, …):
//! exact duplicate lines are counted **once** no matter how many files
//! repeat them, records are grouped by their `"bench"` field (file stem
//! when absent), and the phase-breakdown fields (`phase_<name>_ns` /
//! `phase_<name>_count`, the unified scheme of DESIGN.md §10 emitted by
//! `obs_bench`) are folded into one cross-bench
//! per-phase total/share table with per-bench subtotals — the quick way
//! to see where a batch of runs spent its time without re-running
//! anything. `trace_bench` records additionally get an SLO/tracing
//! digest of the latest record.
//!
//! With `--stats` it additionally prints per-design solver statistics
//! and, when `BENCH_acam.json` is present, a digest of the recorded
//! `acam_bench` runs (kernel speedup spread, classifier accuracy, and
//! the latest behavioral accuracy-vs-σ curve).

use tcam_arch::refresh_sched::compare_policies;
use tcam_bench::{banner, has_flag, spec_from_args};
use tcam_core::experiments::{
    all_designs, fig6_write, fig7_search, mismatch_key, pattern_word, refresh_study,
    table1_measurements,
};
use tcam_core::ops::run_search;
use tcam_core::metrics::{
    format_search_table, format_write_table, search_edp_ratios, search_latency_ratios,
    write_energy_ratios,
};
use tcam_core::osr::V_REFRESH;
use tcam_spice::units::format_si;

/// Merges bench record files: dedupes identical lines, groups by the
/// `"bench"` field (file stem when absent), folds `phase_*_ns` /
/// `phase_*_count` pairs into cross-bench totals with per-bench
/// subtotals, and digests the latest `trace_bench` record. Exits nonzero
/// when a file cannot be read or no line parses.
#[allow(clippy::too_many_lines)]
fn aggregate(paths: &[String]) -> ! {
    use tcam_bench::jsonline::{num, parse_flat_object, str_of, FlatObject};

    let mut phases: Vec<(String, f64, f64)> = Vec::new(); // (name, ns, count)
    // Per-bench rollup: (bench, records, phase ns subtotal).
    let mut benches: Vec<(String, u64, f64)> = Vec::new();
    let mut latest_trace: Option<FlatObject> = None;
    // A record appended to two files (or twice to one) is one run, not
    // two: count every distinct line exactly once.
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut duplicates = 0u64;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("summary --aggregate: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let stem = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !seen.insert(line.to_string()) {
                duplicates += 1;
                continue;
            }
            let obj = match parse_flat_object(line) {
                Ok(obj) => obj,
                Err(e) => {
                    eprintln!("summary --aggregate: {path}:{}: skipping unparseable line ({e})",
                        lineno + 1);
                    continue;
                }
            };
            let bench = str_of(&obj, "bench").unwrap_or(&stem).to_string();
            let mut line_phase_ns = 0.0;
            for (key, value) in &obj {
                let Some(v) = value.as_num() else { continue };
                let Some(rest) = key.strip_prefix("phase_") else {
                    continue;
                };
                let (name, is_ns) = if let Some(n) = rest.strip_suffix("_ns") {
                    (n, true)
                } else if let Some(n) = rest.strip_suffix("_count") {
                    (n, false)
                } else {
                    continue;
                };
                let slot = match phases.iter().position(|(n, _, _)| n == name) {
                    Some(i) => &mut phases[i],
                    None => {
                        phases.push((name.to_string(), 0.0, 0.0));
                        phases.last_mut().expect("just pushed")
                    }
                };
                if is_ns {
                    slot.1 += v;
                    line_phase_ns += v;
                } else {
                    slot.2 += v;
                }
            }
            let slot = match benches.iter().position(|(n, _, _)| *n == bench) {
                Some(i) => &mut benches[i],
                None => {
                    benches.push((bench.clone(), 0, 0.0));
                    benches.last_mut().expect("just pushed")
                }
            };
            slot.1 += 1;
            slot.2 += line_phase_ns;
            if bench == "trace_bench" {
                latest_trace = Some(obj);
            }
        }
    }
    if benches.is_empty() {
        eprintln!("summary --aggregate: no records found in {paths:?}");
        std::process::exit(1);
    }
    let records: u64 = benches.iter().map(|(_, n, _)| n).sum();
    println!(
        "=== bench aggregate: {} bench(es), {records} record(s), {duplicates} duplicate line(s) skipped ===",
        benches.len()
    );
    println!("{:<20} {:>10} {:>14}", "bench", "records", "phase total");
    for (bench, n, ns) in &benches {
        let total = if *ns > 0.0 {
            format_si(ns * 1e-9, "s")
        } else {
            "-".to_string()
        };
        println!("{bench:<20} {n:>10} {total:>14}");
    }
    if !phases.is_empty() {
        phases.sort_by(|a, b| b.1.total_cmp(&a.1));
        let total_ns: f64 = phases.iter().map(|(_, ns, _)| ns).sum();
        println!("\n=== cross-bench phase totals: {} phase(s) ===", phases.len());
        println!(
            "{:<20} {:>14} {:>10} {:>14} {:>7}",
            "phase", "total", "count", "mean", "share"
        );
        for (name, ns, count) in &phases {
            let mean = if *count > 0.0 { ns / count } else { 0.0 };
            println!(
                "{name:<20} {:>14} {count:>10.0} {:>14} {:>6.1}%",
                format_si(ns * 1e-9, "s"),
                format_si(mean * 1e-9, "s"),
                ns / total_ns.max(1.0) * 100.0
            );
        }
        println!("{:<20} {:>14}", "total", format_si(total_ns * 1e-9, "s"));
    }
    if let Some(obj) = &latest_trace {
        println!("\n=== trace_bench digest (latest record) ===");
        if num(obj, "quick").unwrap_or(0.0) > 0.0 {
            println!("  quick record: overhead windows skipped");
        } else if let (Some(over), Some(aa)) =
            (num(obj, "trace_overhead_pct"), num(obj, "trace_aa_pct"))
        {
            println!("  tracing overhead {over:+.2}% (A/A null {aa:+.2}%)");
        }
        if let (Some(cover), Some(n)) =
            (num(obj, "span_cover_pct_median"), num(obj, "sampled_traces"))
        {
            println!("  span cover median {cover:.1}% over {n:.0} sampled trace(s)");
        }
        if let (Some(total), Some(good), Some(burn)) = (
            num(obj, "slo_net_request_60s_total"),
            num(obj, "slo_net_request_60s_good"),
            num(obj, "slo_net_request_60s_burn_rate"),
        ) {
            println!(
                "  slo net_request 60s window: {total:.0} request(s), {good:.0} in objective, burn rate {burn:.2}"
            );
        }
        if let Some(cause) = str_of(obj, "fault_dump_cause") {
            println!("  latest injected-fault dump cause: {cause}");
        }
    }
    std::process::exit(0);
}

/// Folds the `acam_bench` records in `BENCH_acam.json` (if present next
/// to the working directory) into a compact accuracy/throughput digest:
/// record count, kernel-speedup spread, and the latest behavioral
/// accuracy-vs-σ curve.
fn acam_stats() {
    use tcam_bench::jsonline::{num, parse_flat_object};

    let path = "BENCH_acam.json";
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("\n[--stats] acam: no {path} (seed it with `acam_bench --record {path}`)");
        return;
    };
    let records: Vec<_> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| parse_flat_object(l.trim()).ok())
        .filter(|o| o.iter().any(|(k, _)| k == "clf_accuracy"))
        .collect();
    let Some(last) = records.last() else {
        println!("\n[--stats] acam: {path} holds no acam_bench records");
        return;
    };
    println!("\n[--stats] acam bench digest ({} record(s) in {path})", records.len());
    let speedups: Vec<f64> = records
        .iter()
        .filter_map(|o| num(o, "kernel_speedup"))
        .collect();
    if !speedups.is_empty() {
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "  kernel speedup vs scalar: mean {mean:.2}x, min {min:.2}x over {} timed record(s)",
            speedups.len()
        );
    }
    if let Some(acc) = num(last, "clf_accuracy") {
        println!("  latest classifier accuracy: {acc:.4}");
    }
    let mut curve = String::new();
    for i in 0.. {
        let (Some(s), Some(a)) = (
            num(last, &format!("behav_sigma_s{i}")),
            num(last, &format!("behav_acc_s{i}")),
        ) else {
            break;
        };
        if !curve.is_empty() {
            curve.push_str("  ");
        }
        curve.push_str(&format!("σ={s}: {a:.3}"));
    }
    if !curve.is_empty() {
        println!("  latest behavioral accuracy vs σ: {curve}");
    }
    if let (Some(mono), Some(agree)) = (num(last, "cal_monotone"), num(last, "cal_agree")) {
        println!(
            "  latest circuit calibration: monotone {}, behavioral/circuit verdicts {}",
            if mono > 0.0 { "yes" } else { "NO" },
            if agree > 0.0 { "agree" } else { "DIVERGE" }
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--aggregate") {
        if args.len() < 2 {
            eprintln!("usage: summary --aggregate FILE...");
            std::process::exit(1);
        }
        aggregate(&args[1..]);
    }
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
    let (rbr, osr) = compare_policies(
        spec.rows, 26.5e-6, 10e-9, 0.7e-12, 10e-9, 520e-15, 50e6, 5e-9, 1e-3, 42,
    );
    println!(
        "  row-by-row: {} refresh ops, {} delayed searches, mean wait {}, energy {}",
        rbr.refresh_ops,
        rbr.delayed_searches,
        format_si(rbr.mean_wait, "s"),
        format_si(rbr.refresh_energy, "J")
    );
    println!(
        "  one-shot:   {} refresh ops, {} delayed searches, mean wait {}, energy {}",
        osr.refresh_ops,
        osr.delayed_searches,
        format_si(osr.mean_wait, "s"),
        format_si(osr.refresh_energy, "J")
    );
    // Optional: per-design solver statistics for the F7 mismatch search,
    // showing the cached-LU path at work (fresh factorizations stay in the
    // low single digits; refactorizations track the NR iteration count).
    if has_flag("stats") {
        println!("\n[--stats] solver statistics, worst-case search transient");
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "design", "fresh", "refactor", "nr iters", "accepted", "rejected"
        );
        let stored = pattern_word(spec.cols);
        let key = mismatch_key(spec.cols);
        for design in all_designs() {
            let outcome = design
                .build_search(&spec, &stored, &key)
                .and_then(run_search);
            match outcome.map(|r| r.waveform.stats()) {
                Ok(Some(s)) => println!(
                    "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    design.name(),
                    s.fresh_factorizations,
                    s.refactorizations,
                    s.nr_iterations,
                    s.steps_accepted,
                    s.steps_rejected
                ),
                Ok(None) => println!("{:<12} (no stats recorded)", design.name()),
                Err(e) => println!("{:<12} failed: {e}", design.name()),
            }
        }
        acam_stats();
    }

    println!("\ndone.");
}
