//! Gates the Monte-Carlo margin study's robustness at scale.
//!
//! One measurement, one JSON record: a 1000-trial NEM margin study
//! (`EXPERIMENTS.md`'s Fig. 6/7-style distribution) with every 97th
//! trial *forced non-convergent* via the chaos probe. The study must
//! complete with zero aborts, the sabotaged trials counted with causes
//! retained, and the clean margins intact; its wall time is recorded as
//! `study_wall_ms`.
//!
//! With `--check`, the binary asserts the gate and exits nonzero on any
//! violation; tier-1 runs this in full mode.

use std::time::Instant;

use tcam_core::designs::ArraySpec;
use tcam_core::variation::{search_margin_study, MarginStudy, VariationSpec, VariedDesign};
use tcam_numeric::stats::SortedSamples;

fn ascii_histogram(study: &MarginStudy) {
    let Ok(sorted) = SortedSamples::new(&study.margins) else {
        return;
    };
    let (lo, hi) = (sorted.min(), sorted.max());
    let qs = sorted
        .percentiles(&[5.0, 50.0, 95.0])
        .expect("valid quantiles");
    let (p5, p50, p95) = (qs[0], qs[1], qs[2]);
    // The 3T2N margin saturates near VDD (the relay's mechanical on/off
    // makes the settled ML nearly variation-immune — the paper's
    // Fig. 7c point), so the spread lives many decades below the median.
    // Plot bin edges as offsets from the median in an auto-scaled unit
    // so the figure shows that structure instead of twelve identical
    // voltages.
    let spread = (hi - lo).max(1e-15);
    let (unit, scale) = [("V", 1.0), ("mV", 1e3), ("uV", 1e6), ("nV", 1e9)]
        .into_iter()
        .find(|(_, s)| spread * s >= 10.0)
        .unwrap_or(("pV", 1e12));
    println!(
        "# 1000-trial 3T2N sense-margin distribution \
         (median {p50:.9} V, bin edges as offset in {unit}):"
    );
    let bins = 12usize;
    let width = ((hi - lo) / bins as f64).max(1e-15);
    let mut counts = vec![0usize; bins];
    for &m in study.margins.iter() {
        let b = (((m - lo) / width) as usize).min(bins - 1);
        counts[b] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (b, &c) in counts.iter().enumerate() {
        let lo_edge = lo + b as f64 * width;
        let bar = "#".repeat((c * 48).div_ceil(peak).min(48));
        println!(
            "# {:>+9.1}..{:>+9.1} {c:>5} {bar}",
            (lo_edge - p50) * scale,
            (lo_edge + width - p50) * scale
        );
    }
    println!(
        "# p5 = {p5:.9} V, median = {p50:.9} V, p95 = {p95:.9} V, \
         sim failures = {} (causes retained)",
        study.sim_failures
    );
}

fn main() {
    let check = tcam_bench::has_flag("check");
    let bail = |msg: String| -> ! {
        eprintln!("sweep_bench --check FAILED: {msg}");
        std::process::exit(1);
    };

    let study_cfg = VariationSpec {
        design: VariedDesign::Nem3t2n,
        sigma: 0.10,
        trials: 1000,
        seed: 42,
        sabotage_every: 97,
    };
    let small = ArraySpec::small();
    let t = Instant::now();
    let study = search_margin_study(&small, &study_cfg).expect("study survives its own trials");
    let study_wall = t.elapsed().as_secs_f64();

    println!(
        "{{\"bench\":\"sweep_bench\",\
         \"study_trials\":{},\"study_wall_ms\":{:.1},\
         \"study_margins\":{},\"study_sim_failures\":{},\
         \"study_mean\":{:.6},\"study_std\":{:.6},\"study_min\":{:.6}}}",
        study_cfg.trials,
        study_wall * 1e3,
        study.margins.len(),
        study.sim_failures,
        study.mean,
        study.std_dev,
        study.min,
    );
    ascii_histogram(&study);

    if !check {
        return;
    }

    let feasible = study.margins.len() + study.sim_failures;
    let expected_hostile = feasible / study_cfg.sabotage_every;
    if study.sim_failures != expected_hostile {
        bail(format!(
            "expected {expected_hostile} sabotaged trials to fail, saw {}",
            study.sim_failures
        ));
    }
    if expected_hostile == 0 {
        bail("fault injection produced no hostile trials".into());
    }
    if study.failure_causes.len() != study.sim_failures
        || study.failure_causes.iter().any(|(_, c)| c.is_empty())
    {
        bail("sim-failure causes were not retained".into());
    }
    if study.margins.len() < 900 {
        bail(format!(
            "only {} of 1000 trials produced margins",
            study.margins.len()
        ));
    }
    if study.failures != (study_cfg.trials - feasible) + study.sim_failures {
        bail(format!(
            "unexpected functional failures: {} total failures, {} sim, {} infeasible",
            study.failures,
            study.sim_failures,
            study_cfg.trials - feasible
        ));
    }
    if study.min <= 0.5 {
        bail(format!("clean-trial margins degraded: min {:.3} V", study.min));
    }
    eprintln!(
        "sweep_bench --check: ok ({} sabotaged trials contained in {:.1} s)",
        study.sim_failures, study_wall
    );
}
