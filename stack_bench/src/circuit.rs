//! `fig7_mc`: the circuit side, no network — the paper's own artefact.
//!
//! `tcam_core::experiments::fig7_search` at the paper's 64×64 runs all
//! four designs through the scalar `transient`; `search_margin_study` on
//! 16×16 with 32 trials runs the batched engine. The two halves pin the
//! two engines separately, so a merge of them is judged on both. This is
//! the only workload where `tcam-spice`, `tcam-numeric` and `tcam-devices`
//! do the work. Like the others it runs on one CPU, so the designs of a
//! figure and the shards of a study run one after another.

use crate::measure::{spanned, Quiet};
use crate::report::Record;
use crate::stats;
use std::process::Command;
use std::time::Instant;
use tcam_core::designs::ArraySpec;
use tcam_core::experiments::{all_designs, fig7_search, mismatch_key, pattern_word, SearchRow};
use tcam_core::ops::run_search;
use tcam_core::variation::{
    search_margin_study, search_margin_study_per_trial, MarginStudy, VariationSpec, VariedDesign,
};
use tcam_numeric::rng::SplitMix64;

pub const NAME: &str = "fig7_mc";

const SMALL: ArraySpec = ArraySpec {
    rows: 16,
    cols: 16,
    vdd: 1.0,
};
const MC_TRIALS: usize = 32;
const SETUP_TRIALS: usize = 8;
/// Cold passes per timed run (`setup_s` is their lower quartile).
const SETUP_REPS: usize = 5;
const SIGMA: f64 = 0.05;
/// Share of the measured time given to `fig7_search` repetitions.
const FIG7_SHARE: f64 = 0.65;

/// Counts the figure's transients and its headline claim as operations:
/// every design must detect the mismatch and keep the match, and 3T2N
/// must search fastest.
fn check_fig7(rows: &[SearchRow], rec: &mut Record) {
    for row in rows {
        rec.count(1, u64::from(!(row.mismatch_ok && row.latency.is_finite())));
        rec.count(1, u64::from(!row.match_ok));
    }
    let nem = rows
        .iter()
        .find(|r| r.design == "3T2N")
        .map_or(f64::NAN, |r| r.latency);
    let fastest = rows
        .iter()
        .filter(|r| r.design != "3T2N")
        .all(|r| nem < r.latency);
    rec.count(1, u64::from(!(rows.len() == 4 && fastest)));
}

fn timed_fig7(spec: &ArraySpec, rec: &mut Record) -> f64 {
    let t0 = Instant::now();
    let rows = fig7_search(spec);
    let wall = t0.elapsed().as_secs_f64();
    match rows {
        Ok(rows) => check_fig7(&rows, rec),
        Err(_) => rec.count(1, 1),
    }
    wall
}

/// One Monte-Carlo study; a trial whose simulation failed is a failed
/// operation (yield loss of a sampled device is not).
fn timed_study(
    run: fn(&ArraySpec, &VariationSpec) -> tcam_spice::error::Result<MarginStudy>,
    trials: usize,
    seed: u64,
    rec: &mut Record,
) -> (f64, Option<MarginStudy>) {
    let cfg = VariationSpec {
        design: VariedDesign::Nem3t2n,
        sigma: SIGMA,
        trials,
        seed,
        sabotage_every: 0,
    };
    let t0 = Instant::now();
    let study = run(&SMALL, &cfg).ok();
    let wall = t0.elapsed().as_secs_f64();
    rec.count(
        trials as u64,
        study.as_ref().map_or(trials, |s| s.sim_failures) as u64,
    );
    (wall, study)
}

/// One cold pass of both halves at 16×16: pays relay calibration, the
/// first symbolic factorizations and thread start. Relay calibration is
/// memoized per process, so only a process's first pass is cold.
fn set_up(seeds: &mut SplitMix64, rec: &mut Record) -> f64 {
    let t0 = Instant::now();
    timed_fig7(&SMALL, rec);
    timed_study(search_margin_study, SETUP_TRIALS, seeds.next_u64(), rec);
    t0.elapsed().as_secs_f64()
}

/// `stack_bench --cold-pass`: this process's one cold pass, printed as
/// `cold_pass <seconds> <attempted> <failed>` for the parent that times
/// set-up (see [`cold_pass_in_child`]).
pub fn print_cold_pass(seed: u64) {
    let mut rec = Record::new(NAME, seed, false);
    let seconds = set_up(&mut SplitMix64::new(seed), &mut rec);
    println!("cold_pass {seconds} {} {}", rec.attempted, rec.failed);
}

/// The same cold pass in a fresh child process of this binary (which
/// inherits the one-CPU affinity). A child that cannot be run or read is
/// one failed operation and gives no time.
fn cold_pass_in_child(seed: u64, rec: &mut Record) -> Option<f64> {
    let parsed = std::env::current_exe()
        .and_then(|exe| {
            Command::new(exe)
                .args(["--cold-pass", "--seed", &seed.to_string()])
                .output()
        })
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            let mut fields = text.strip_prefix("cold_pass ")?.split_whitespace();
            let seconds: f64 = fields.next()?.parse().ok()?;
            let attempted: u64 = fields.next()?.parse().ok()?;
            let failed: u64 = fields.next()?.parse().ok()?;
            Some((seconds, attempted, failed))
        });
    match parsed {
        Some((seconds, attempted, failed)) => {
            rec.count(attempted, failed);
            Some(seconds)
        }
        None => {
            rec.count(1, 1);
            None
        }
    }
}

/// Measures a first repetition, then as many more as fit `budget_s`.
fn fill(
    quiet: &mut Quiet,
    budget_s: f64,
    at_least: usize,
    at_most: usize,
    mut rep: impl FnMut() -> f64,
) -> Vec<f64> {
    let started = Instant::now();
    let mut values = quiet.windows(1, &mut rep);
    let each = started.elapsed().as_secs_f64();
    let planned = ((budget_s / each).round() as usize).clamp(at_least, at_most);
    values.extend(quiet.windows(planned - 1, &mut rep));
    values
}

pub fn run_timed(seed: u64, seconds: f64, rec: &mut Record) {
    // Set-up is cold once per process: this process's own pass, then the
    // same pass in fresh children. One 0.5-s pass alone moved by 36 %
    // between the medians of two sets of ten runs.
    let mut seeds = SplitMix64::new(seed);
    let mut setups = vec![set_up(&mut seeds, rec)];
    setups.extend((1..SETUP_REPS).filter_map(|_| cold_pass_in_child(seed, rec)));
    rec.set("setup_s", stats::lower_quartile(&setups));
    rec.note_windows("setup_s_reps", &setups);

    let mut quiet = Quiet::new();
    let started = Instant::now();
    let paper = ArraySpec::paper();
    let walls = fill(&mut quiet, seconds * FIG7_SHARE, 3, 5, || {
        timed_fig7(&paper, rec)
    });
    rec.set("latency_us", stats::lower_quartile(&walls) * 1e6);
    rec.note_windows("fig7_wall_s_reps", &walls);
    rec.note("latency_samples", walls.len() as f64);

    let left = seconds - started.elapsed().as_secs_f64();
    let rates = fill(&mut quiet, left, 8, 16, || {
        let (wall, _) = timed_study(search_margin_study, MC_TRIALS, seeds.next_u64(), rec);
        MC_TRIALS as f64 / wall
    });
    rec.set("throughput_per_s", stats::upper_quartile(&rates));
    rec.note_windows("throughput_windows", &rates);
    quiet.note(rec);
}

/// The traced run: one worst-case search per design through
/// `build_search` + `run_search`, the 3T2N one opened up into solver
/// counts and phase self-times, and one study through both engines.
pub fn run_traced(seed: u64, rec: &mut Record) {
    let mut seeds = SplitMix64::new(seed);
    set_up(&mut seeds, rec);
    let spec = ArraySpec::paper();
    let (stored, key) = (pattern_word(spec.cols), mismatch_key(spec.cols));

    const SEARCH_MS: [&str; 4] = [
        "core_search_ms_3t2n",
        "core_search_ms_sram",
        "core_search_ms_rram",
        "core_search_ms_fefet",
    ];
    let mut simulated = Vec::with_capacity(4); // (latency, edp) per design
    for (design, metric) in all_designs().iter().zip(SEARCH_MS) {
        let (built, build_ns) = spanned("bench_core_build_search", || {
            design.build_search(&spec, &stored, &key)
        });
        let (searched, search_ns) = spanned("bench_core_run_search", || built.and_then(run_search));
        let (build_ms, search_ms) = (build_ns as f64 / 1e6, search_ns as f64 / 1e6);
        rec.set(metric, search_ms);
        let Ok(result) = searched else {
            rec.count(1, 1);
            simulated.push((f64::NAN, f64::NAN));
            continue;
        };
        rec.count(1, u64::from(!result.functional_ok));
        simulated.push((
            result.latency.unwrap_or(f64::NAN),
            result.edp().unwrap_or(f64::NAN),
        ));
        if design.name() != "3T2N" {
            continue;
        }
        rec.set("core_build_search_ms", build_ms);
        let (stats, trace) = (result.waveform.stats(), result.waveform.solver_trace());
        if let (Some(stats), Some(trace)) = (stats, trace) {
            rec.set("spice_steps_accepted", stats.steps_accepted as f64);
            rec.set("spice_steps_rejected", stats.steps_rejected as f64);
            rec.set("spice_nr_iterations", stats.nr_iterations as f64);
            rec.set(
                "numeric_fresh_factorizations",
                stats.fresh_factorizations as f64,
            );
            rec.set("numeric_refactorizations", stats.refactorizations as f64);
            rec.set(
                "spice_us_per_nr_iteration",
                search_ms * 1e3 / stats.nr_iterations as f64,
            );
            let phase_ms = |names: &[&str]| -> f64 {
                let ns: f64 = trace
                    .phases()
                    .iter()
                    .filter(|(key, _)| names.iter().any(|n| *key == format!("phase_{n}_ns")))
                    .map(|(_, ns)| ns)
                    .sum();
                ns / 1e6
            };
            rec.set("spice_phase_mna_stamp_ms", phase_ms(&["mna_stamp"]));
            rec.set("devices_phase_eval_ms", phase_ms(&["device_eval"]));
            rec.set(
                "numeric_phase_lu_ms",
                phase_ms(&["lu_factorize", "lu_refactorize"]),
            );
            rec.set("numeric_phase_back_solve_ms", phase_ms(&["back_solve"]));
            rec.set("spice_phase_nr_update_ms", phase_ms(&["nr_update"]));
            rec.set("spice_phase_lte_ms", phase_ms(&["lte_estimate"]));
            rec.set("spice_phase_step_control_ms", phase_ms(&["step_control"]));
            rec.set("spice_phase_commit_ms", phase_ms(&["commit_record"]));
            let all_ns: f64 = trace
                .phases()
                .iter()
                .filter(|(key, _)| key.ends_with("_ns"))
                .map(|(_, ns)| ns)
                .sum();
            rec.set("spice_phase_cover_pct", all_ns / 1e4 / search_ms);
        }
    }
    let (nem_latency, nem_edp) = simulated[0];
    const RATIOS: [(&str, &str); 3] = [
        ("core_fig7_latency_ratio_sram", "core_fig7_edp_ratio_sram"),
        ("core_fig7_latency_ratio_rram", "core_fig7_edp_ratio_rram"),
        ("core_fig7_latency_ratio_fefet", "core_fig7_edp_ratio_fefet"),
    ];
    for ((latency, edp), (latency_ratio, edp_ratio)) in simulated[1..].iter().zip(RATIOS) {
        rec.set(latency_ratio, latency / nem_latency);
        rec.set(edp_ratio, edp / nem_edp);
    }

    // The same 32 sampled trials through the batched and the per-trial engine.
    let mc_seed = seeds.next_u64();
    let (batched_s, batched) = timed_study(search_margin_study, MC_TRIALS, mc_seed, rec);
    let (per_trial_s, _) = timed_study(search_margin_study_per_trial, MC_TRIALS, mc_seed, rec);
    rec.set(
        "spice_batched_ms_per_trial",
        batched_s * 1e3 / MC_TRIALS as f64,
    );
    rec.set(
        "spice_per_trial_ms_per_trial",
        per_trial_s * 1e3 / MC_TRIALS as f64,
    );
    if let Some(study) = batched {
        rec.set("core_mc_sim_failures", study.sim_failures as f64);
        rec.set("core_mc_margin_mean", study.mean);
    }
    crate::report::note_harness_phases(rec);
}
