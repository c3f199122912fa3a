//! Metric names, units, directions and bounds — and the record one
//! workload run prints.
//!
//! The two tables here are the benchmark's contract with later PRs and
//! must equal `BENCHMARK.json` at the repo root (a unit test compares
//! them). Every workload reports every end-to-end metric; a per-layer
//! metric reads 0 on a workload that does not exercise its layer.

use tcam_bench::jsonline::{self, FlatObject};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// What a user of the stack sees. `throughput_per_s` counts the
/// workload's own unit of work and `latency_us` times its own blocking
/// request; README.md says which per workload. Every bound is the widest
/// the driver's contract allows: for minutes at a time the reference box
/// runs everything but a register-only loop 20–45 % slower, and no
/// estimator inside a 20-s run sees through that.
pub const END_TO_END: [Metric; 3] = [
    gated("setup_s", "s", false, 0.25),
    gated("throughput_per_s", "1/s", true, 0.25),
    gated("latency_us", "us", false, 0.25),
];

/// The ladders of the traced run, named `<module>_…`.
pub const PER_LAYER: [Metric; 70] = [
    // Serving ladder: median µs per frame of the workload's own keys, depth 1.
    lower("arch_scalar_us_per_frame", "us"),
    lower("arch_kernel_us_per_frame", "us"),
    lower("arch_mean_hit_row", "count"),
    lower("serve_submit_us_per_frame", "us"),
    lower("net_node_lookup_us_per_frame", "us"),
    lower("net_codec_us_per_frame", "us"),
    lower("net_wire_us_per_frame", "us"),
    lower("net_wire_p99_us", "us"),
    lower("serve_queue_cost_us", "us"),
    lower("net_node_cost_us", "us"),
    lower("net_wire_cost_us", "us"),
    lower("arch_kernel_share_pct", "%"),
    higher("serve_match_busy_pct", "%"),
    lower("serve_idle_pct", "%"),
    lower("net_shed_requests", "count"),
    lower("net_bringup_ms", "ms"),
    lower("obs_traced_overhead_pct", "%"),
    // Offered-load curve (open loop, timed from when each request was due).
    lower("net_paced_p50_us_at_1mlps", "us"),
    lower("net_paced_p50_us_at_2mlps", "us"),
    lower("net_paced_p50_us_at_3mlps", "us"),
    lower("net_paced_p50_us_at_4mlps", "us"),
    lower("net_paced_p99_us_at_1mlps", "us"),
    lower("net_paced_p99_us_at_2mlps", "us"),
    lower("net_paced_p99_us_at_3mlps", "us"),
    lower("net_paced_p99_us_at_4mlps", "us"),
    lower("net_paced_late_max_us", "us"),
    // Update ladder: median µs per 16-change batch.
    lower("update_delta_compile_us", "us"),
    lower("update_updater_apply_us", "us"),
    lower("update_publish_us", "us"),
    lower("net_wal_apply_us", "us"),
    lower("net_node_apply_us", "us"),
    lower("net_node_apply_cpu_us", "us"),
    lower("net_node_apply_idle_us", "us"),
    lower("net_node_apply_p99_us", "us"),
    lower("net_churn_rtt_p50_us", "us"),
    lower("net_churn_rtt_p99_us", "us"),
    higher("update_changes_per_s", "1/s"),
    lower("update_row_ops_per_change", "count"),
    lower("net_wal_bytes_per_change", "B"),
    lower("serve_epoch_lag_reads", "count"),
    // Circuit ladder: counts that must repeat exactly.
    lower("spice_steps_accepted", "count"),
    lower("spice_steps_rejected", "count"),
    lower("spice_nr_iterations", "count"),
    lower("numeric_fresh_factorizations", "count"),
    lower("numeric_refactorizations", "count"),
    lower("core_mc_sim_failures", "count"),
    // Circuit ladder: solver phase self-times of one 3T2N 64x64 search.
    lower("spice_phase_mna_stamp_ms", "ms"),
    lower("devices_phase_eval_ms", "ms"),
    lower("numeric_phase_lu_ms", "ms"),
    lower("numeric_phase_back_solve_ms", "ms"),
    lower("spice_phase_nr_update_ms", "ms"),
    lower("spice_phase_lte_ms", "ms"),
    lower("spice_phase_step_control_ms", "ms"),
    lower("spice_phase_commit_ms", "ms"),
    higher("spice_phase_cover_pct", "%"),
    // Circuit ladder: timed from outside.
    lower("core_build_search_ms", "ms"),
    lower("core_search_ms_3t2n", "ms"),
    lower("core_search_ms_sram", "ms"),
    lower("core_search_ms_rram", "ms"),
    lower("core_search_ms_fefet", "ms"),
    lower("spice_us_per_nr_iteration", "us"),
    lower("spice_batched_ms_per_trial", "ms"),
    lower("spice_per_trial_ms_per_trial", "ms"),
    // Simulated statistics: a simulator-only change leaves them bit-identical.
    higher("core_fig7_latency_ratio_sram", "ratio"),
    higher("core_fig7_latency_ratio_rram", "ratio"),
    higher("core_fig7_latency_ratio_fefet", "ratio"),
    higher("core_fig7_edp_ratio_sram", "ratio"),
    higher("core_fig7_edp_ratio_rram", "ratio"),
    higher("core_fig7_edp_ratio_fefet", "ratio"),
    higher("core_mc_margin_mean", "V"),
];

/// What one run of one workload measured.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted (keys looked up, batches applied, transients
    /// and Monte-Carlo trials run) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Extra flat-JSON fields (sample counts, raw windows, fingerprint),
    /// values already rendered.
    notes: Vec<(String, String)>,
}

impl Record {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn table(&self) -> &'static [Metric] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Records a metric of this run's table.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not hold, or one set twice: both
    /// are bugs in the harness, not measurements.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table().iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_string(), json_num(value)));
    }

    pub fn note_str(&mut self, key: &str, value: &str) {
        self.notes.push((
            key.to_string(),
            format!("\"{}\"", value.replace(['"', '\\'], "'")),
        ));
    }

    /// Raw windows, as one string so the line stays a flat object.
    pub fn note_windows(&mut self, key: &str, windows: &[f64]) {
        let joined: Vec<String> = windows.iter().map(|w| json_num(*w)).collect();
        self.note_str(key, &joined.join(" "));
    }

    /// Counts `n` operations, `bad` of which failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Every reason this record is not a valid, all-correct measurement.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.attempted == 0 {
            out.push("no operation was attempted".into());
        }
        if self.failed > 0 {
            out.push(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        for m in self.table() {
            match self.get(m.name) {
                // End-to-end metrics are chosen never to be 0.
                Some(v) if !v.is_finite() || (!self.traced && v <= 0.0) => {
                    out.push(format!("metric {} is {v}", m.name));
                }
                None if !self.traced => out.push(format!("metric {} is missing", m.name)),
                _ => {}
            }
        }
        out
    }

    fn value_or_zero(&self, name: &str) -> f64 {
        self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0)
    }

    /// The flat line in the `tcam_bench::jsonline` dialect.
    pub fn flat_line(&self) -> String {
        let mut fields = vec![
            "\"bench\":\"stack_bench\"".to_string(),
            format!("\"workload\":\"{}\"", self.workload),
            format!("\"seed\":{}", self.seed),
            format!("\"traced\":{}", self.traced),
            format!("\"attempted\":{}", self.attempted),
            format!("\"failed\":{}", self.failed),
        ];
        for m in self.table() {
            fields.push(format!(
                "\"{}\":{}",
                m.name,
                json_num(self.value_or_zero(m.name))
            ));
        }
        for (k, v) in &self.notes {
            fields.push(format!("\"{k}\":{v}"));
        }
        format!("{{{}}}", fields.join(","))
    }

    /// The human-readable table.
    pub fn table_text(&self) -> String {
        let mut out = format!(
            "--- {} (seed {}, {}) — {} attempted, {} failed ---\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced run"
            } else {
                "timed run"
            },
            self.attempted,
            self.failed
        );
        for m in self.table() {
            if let Some(v) = self.get(m.name) {
                out.push_str(&format!("  {:<34} {:>16.4} {}\n", m.name, v, m.unit));
            }
        }
        out
    }

    /// The result object the benchmark driver reads from the last line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .table()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(self.value_or_zero(m.name)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems().is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A float as a JSON number with all its digits (non-finite reads 0; the
/// record's `problems` report it).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Parses a flat line back and checks it holds every metric of its table
/// as a finite number — what `--check` re-validates after printing.
pub fn check_flat_line(line: &str) -> Result<FlatObject, String> {
    let obj = jsonline::parse_flat_object(line)?;
    if jsonline::str_of(&obj, "bench") != Some("stack_bench") {
        return Err("\"bench\" is not \"stack_bench\"".into());
    }
    let traced = obj
        .iter()
        .find(|(k, _)| k == "traced")
        .is_some_and(|(_, v)| *v == jsonline::JsonValue::Bool(true));
    let table: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    for m in table {
        match jsonline::num(&obj, m.name) {
            Some(v) if v.is_finite() => {}
            _ => return Err(format!("metric {} missing from the record", m.name)),
        }
    }
    Ok(obj)
}

/// `nproc` and `rustc -V`, as record notes (taken before any pinning).
pub fn note_host(rec: &mut Record) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    rec.note("nproc", nproc as f64);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    rec.note_str("rustc", &rustc);
}

/// Writes the harness's own spans out: total self-time and count per rung.
pub fn note_harness_phases(rec: &mut Record) {
    for (name, stat) in tcam_obs::snapshot().phases {
        if name.starts_with("bench_") {
            rec.note(&format!("phase_{name}_ns"), stat.ns as f64);
            rec.note(&format!("phase_{name}_count"), stat.count as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_record() -> Record {
        let mut rec = Record::new("lpm_scan_4k", 7, false);
        rec.set("setup_s", 1.25);
        rec.set("throughput_per_s", 730_000.5);
        rec.set("latency_us", 74.25);
        rec.count(1000, 0);
        rec
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{} is not snake_case",
                m.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a metric name is used twice");
    }

    #[test]
    fn a_clean_record_round_trips_and_passes() {
        let mut rec = full_record();
        rec.note_windows("throughput_windows", &[1.5, 2.5]);
        rec.note_str("rustc", "rustc 1.0 \"quoted\"");
        assert!(rec.problems().is_empty(), "{:?}", rec.problems());
        let obj = check_flat_line(&rec.flat_line()).expect("parses");
        assert_eq!(jsonline::num(&obj, "latency_us"), Some(74.25));
        assert_eq!(
            jsonline::str_of(&obj, "throughput_windows"),
            Some("1.5 2.5")
        );
        assert!(rec
            .result_line()
            .starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
    }

    #[test]
    fn one_wrong_answer_fails_the_check() {
        let mut rec = full_record();
        rec.count(64, 1);
        assert_eq!(rec.problems().len(), 1);
        assert!(rec.result_line().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn a_missing_or_nan_metric_fails_the_check() {
        let mut rec = Record::new("fig7_mc", 1, false);
        rec.set("setup_s", 0.5);
        rec.set("latency_us", f64::NAN);
        rec.count(1, 0);
        let problems = rec.problems();
        assert!(problems
            .iter()
            .any(|p| p.contains("throughput_per_s is missing")));
        assert!(problems.iter().any(|p| p.contains("latency_us is NaN")));
        // The printed line still parses: NaN reads 0 there.
        assert!(check_flat_line(&rec.flat_line()).is_ok());
    }

    #[test]
    fn a_traced_record_reads_zero_where_a_layer_did_no_work() {
        let mut rec = Record::new("fig7_mc", 1, true);
        rec.set("spice_nr_iterations", 1234.0);
        rec.count(1, 0);
        assert!(rec.problems().is_empty());
        let obj = check_flat_line(&rec.flat_line()).expect("parses");
        assert_eq!(jsonline::num(&obj, "net_wire_us_per_frame"), Some(0.0));
        assert_eq!(jsonline::num(&obj, "spice_nr_iterations"), Some(1234.0));
    }
}
