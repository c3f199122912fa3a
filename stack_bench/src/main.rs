//! `stack_bench` — the repo's one benchmark: four long, quiet workloads
//! that measure the stack end to end and layer by layer, and repeat.
//!
//! ```text
//! stack_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--check]
//! stack_bench [--seed N] [--seconds S] [--trace 0|1] [--check]     every workload
//! stack_bench --aa K [--seed N] [--seconds S]                      A/A repeatability
//! stack_bench --print-benchmark-json
//! stack_bench --cold-pass [--seed N]        fig7_mc's set-up once (its timed run calls this)
//! ```
//!
//! One workload runs per process: the suite and A/A modes re-execute this
//! binary once per workload, so caches, allocator state and thread pools
//! never leak from one workload into the next. A run prints one flat JSON
//! line (`tcam_bench::jsonline` dialect) with every metric, sample counts
//! and raw windows, a table, and last the result object the benchmark
//! driver reads. `--trace 1` is the separate traced run that times the
//! calls into each layer on the same seeded inputs. See README.md.

mod churn;
mod circuit;
mod measure;
mod report;
mod serving;
mod stats;
mod sys;

use report::{Metric, Record, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use tcam_bench::jsonline;

/// `run_seconds` of BENCHMARK.json: what one run measures when `--seconds`
/// is not given, and the length ladder sizes are quoted at.
pub const REFERENCE_SECONDS: f64 = 20.0;

/// Workload names (permanent) and why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lpm_scan_4k",
        "512-key frames on 4096 routes: the row scan in the match kernel is most of a request, so a kernel change must show here and a wire or queue change must not",
    ),
    (
        "lpm_frames_64",
        "64-key frames on 64 routes: framing, codec, admission, queue hand-off and wake-ups are the whole cost, so serving-core and wire work shows here and a kernel change must not",
    ),
    (
        "churn_rounds_1k",
        "16-change batches beside depth-1 reads on 1024 routes, one thread in fixed rounds: dearer row writes, a lazier normalize or a slower snapshot swap pays here",
    ),
    (
        "fig7_mc",
        "the paper's Fig. 7 search at 64x64 (scalar transient) and 32-trial Monte-Carlo margin studies (batched engine): the only workload where spice, numeric and devices do the work",
    ),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
    aa: Option<usize>,
    print_benchmark_json: bool,
    cold_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        traced: false,
        check: false,
        aa: None,
        print_benchmark_json: false,
        cold_pass: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--check" => args.check = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--cold-pass" => args.cold_pass = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within 1..=60, not {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Runs one workload in this process and prints its record.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let name = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })?;
    let mut rec = Record::new(name, args.seed, args.traced);
    rec.note("seconds", args.seconds);
    report::note_host(&mut rec);
    let (seed, seconds) = (args.seed, args.seconds);
    // Every workload runs on one CPU (see `sys::pin_to_one_cpu`).
    rec.note(
        "pinned_cpu",
        sys::pin_to_one_cpu().map_or(-1.0, |cpu| cpu as f64),
    );
    let lpm = [&serving::LPM_SCAN_4K, &serving::LPM_FRAMES_64]
        .into_iter()
        .find(|s| s.name == name);
    match (lpm, name, args.traced) {
        (Some(spec), _, false) => serving::run_timed(spec, seed, seconds, &mut rec),
        (Some(spec), _, true) => serving::run_traced(spec, seed, seconds, &mut rec),
        (None, churn::NAME, false) => churn::run_timed(seed, seconds, &mut rec),
        (None, churn::NAME, true) => churn::run_traced(seed, seconds, &mut rec),
        (None, circuit::NAME, false) => circuit::run_timed(seed, seconds, &mut rec),
        (None, circuit::NAME, true) => circuit::run_traced(seed, &mut rec),
        _ => unreachable!("{name} is in WORKLOADS but has no runner"),
    }
    let line = rec.flat_line();
    println!("{line}");
    print!("{}", rec.table_text());
    let mut problems = rec.problems();
    if let Err(e) = report::check_flat_line(&line) {
        problems.push(format!("printed record does not parse back: {e}"));
    }
    for p in &problems {
        eprintln!("stack_bench: {name}: {p}");
    }
    println!("{}", rec.result_line());
    Ok(problems.is_empty())
}

/// Re-executes this binary for one workload; returns its flat record and
/// whether the child exited clean.
fn run_child(name: &str, seed: u64, args: &Args) -> Result<(jsonline::FlatObject, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--check")
        .stdout(Stdio::piped());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("{\"bench\":\"stack_bench\""))
        .ok_or_else(|| format!("{name} printed no record ({})", out.status))?;
    Ok((report::check_flat_line(line)?, out.status.success()))
}

/// Every workload once, each in a fresh child process.
fn run_suite(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        let (_, ok) = run_child(name, args.seed, args)?;
        all_ok &= ok;
    }
    Ok(all_ok)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// A/A: per workload, 2·K runs of the same code as two interleaved sets
/// (A B A B …), each run on another seed — the driver's own acceptance
/// procedure. Fails when a set median is worse than the other's by more
/// than the metric's bound, or (from K = 4, where quartiles mean
/// something) when a set's interquartile spread exceeds the bound.
fn run_aa(k: usize, args: &Args) -> Result<bool, String> {
    if k < 2 {
        return Err("--aa needs at least 2 runs per set".into());
    }
    let mut all_ok = true;
    let mut table = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}\n",
        "workload", "metric", "median_a", "median_b", "diff_%", "spread_a%", "spread_b%", "bound%"
    );
    for (name, _) in WORKLOADS {
        let mut sets: [Vec<jsonline::FlatObject>; 2] = [Vec::new(), Vec::new()];
        for run in 0..2 * k {
            let (obj, ok) = run_child(name, args.seed + run as u64, args)?;
            all_ok &= ok;
            sets[run % 2].push(obj);
        }
        for m in &END_TO_END {
            let values = |set: &[jsonline::FlatObject]| -> Vec<f64> {
                set.iter()
                    .filter_map(|obj| jsonline::num(obj, m.name))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let diff = worsening(m, med_a, med_b).abs();
            let (spread_a, spread_b) = (stats::iqr_share(&a), stats::iqr_share(&b));
            let spread_counts = k >= 4 && m.name != "setup_s";
            let excess = diff > m.bound || (spread_counts && spread_a.max(spread_b) > m.bound);
            all_ok &= !excess;
            table.push_str(&format!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>8.2} {:>9.2} {:>9.2} {:>6.0}{}\n",
                name,
                m.name,
                med_a,
                med_b,
                100.0 * diff,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * m.bound,
                if excess { "  EXCESS" } else { "" }
            ));
        }
    }
    println!("=== A/A: two interleaved sets of {k} runs per workload ===\n{table}");
    Ok(all_ok)
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift
/// (a unit test holds the committed file to this text).
fn benchmark_json() -> String {
    let better = |m: &Metric| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"stack_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"stack_bench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        REFERENCE_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.print_benchmark_json {
            print!("{}", benchmark_json());
            return Ok(true);
        }
        if args.cold_pass {
            // `fig7_mc`'s set-up, once, in this fresh process (its parent
            // is a timed `fig7_mc` run, whose affinity this one inherits).
            circuit::print_cold_pass(args.seed);
            return Ok(true);
        }
        // The driver reads the result object whatever it says; `--check`
        // additionally turns a failed check into a nonzero exit.
        let enforce = args.check || args.aa.is_some();
        let ok = match (&args.workload, args.aa) {
            (Some(name), _) => run_workload(name, &args)?,
            (None, Some(k)) => run_aa(k, &args)?,
            (None, None) => run_suite(&args)?,
        };
        Ok(ok || !enforce)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stack_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn workload_table_is_within_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(
                name.len() <= 64 && why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let (rate, time) = (&END_TO_END[1], &END_TO_END[2]);
        assert!(rate.higher_is_better && !time.higher_is_better);
        assert!((worsening(rate, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(time, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }
}
