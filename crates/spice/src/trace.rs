//! Structured solver telemetry: what the transient/OP drivers actually did.
//!
//! A [`SolverTrace`] is the one solver record of a run: the transient
//! system's [`SolveStats`] (steps, Newton iterations, factorizations —
//! each counted once, where it happens) beside the step controller's own
//! aggregates (rejection reasons, recovery-ladder engagements, dt extrema).
//! The transient engine attaches the finished trace to the
//! [`crate::waveform::Waveform`], where it is queryable by counter name
//! (the same ergonomics as `.meas`) and can be dumped as a single-line
//! JSON record. The *sequence* of recent rejections and rung engagements
//! lives in the process-wide flight recorder (`step_reject` and
//! `rung_engaged` events), which the solver dumps on terminal
//! non-convergence.

use crate::mna::SolveStats;
use std::fmt::Write as _;

/// Why a proposed transient step was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Newton failed to converge at the proposed (time, dt).
    Newton,
    /// The local truncation error estimate exceeded `lte_tol`.
    Lte,
}

/// A recovery-ladder rung, in escalation order.
///
/// Each rung's flight-recorder event code (see
/// [`SolverTrace::rung_engaged`]) is fixed: `DtShrink` keeps code 3 and
/// code 2 stays unused, so a code in a dump names the same rung whichever
/// version of the engine wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Retry with extra conductance to ground, ramped back down in decades.
    GminRamp,
    /// Scale all independent sources 0 → 1 (initial operating point only).
    SourceStepping,
    /// The last resort: shrink dt and retry.
    DtShrink,
}

/// Aggregate solver telemetry of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverTrace {
    /// The transient system's counters at the end of the run: accepted and
    /// rejected steps, and every Newton iteration and factorization on that
    /// system — ramp stages and failed rungs included. The exported
    /// `steps_accepted` / `steps_rejected` / `nr_iterations` read these.
    pub stats: SolveStats,
    /// Rejections caused by Newton non-convergence.
    pub reject_newton: u64,
    /// Rejections caused by the LTE estimate.
    pub reject_lte: u64,
    /// Steps whose size was bounded by a device timestep hint (hints limit
    /// dt; they never reject a solved step).
    pub device_hint_limited: u64,
    /// Individual gmin-ramp stage solves attempted.
    pub gmin_events: u64,
    /// Individual source-stepping stage solves attempted.
    pub source_step_events: u64,
    /// dt-shrink retries (the ladder's last rung).
    pub dt_shrinks: u64,
    /// Failures rescued by a ladder rung above dt shrink.
    pub ladder_recoveries: u64,
    /// Smallest accepted dt (infinity if nothing was accepted).
    pub min_dt_used: f64,
    /// Largest accepted dt (0 if nothing was accepted).
    pub max_dt_used: f64,
    /// Worst-converging unknown reported by the most recent Newton failure.
    pub last_worst_unknown: Option<String>,
    /// Wall-time phase attribution for the run that produced this trace
    /// (`phase_<name>_ns`/`phase_<name>_count` pairs from the span layer),
    /// queryable through [`SolverTrace::counter`] exactly like the exact
    /// counters above. Empty when observability was disabled.
    phases: Vec<(String, f64)>,
}

impl Default for SolverTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        SolverTrace {
            stats: SolveStats::default(),
            reject_newton: 0,
            reject_lte: 0,
            device_hint_limited: 0,
            gmin_events: 0,
            source_step_events: 0,
            dt_shrinks: 0,
            ladder_recoveries: 0,
            min_dt_used: f64::INFINITY,
            max_dt_used: 0.0,
            last_worst_unknown: None,
            phases: Vec::new(),
        }
    }

    /// Records an accepted step of size `dt`; `recovered` says a ladder
    /// rung above the dt shrink was needed to converge it.
    pub fn accept(&mut self, dt: f64, recovered: bool) {
        self.min_dt_used = self.min_dt_used.min(dt);
        self.max_dt_used = self.max_dt_used.max(dt);
        if recovered {
            self.ladder_recoveries += 1;
        }
    }

    /// Records a rejected step proposal. The rejection also lands in the
    /// flight recorder (`step_reject` events, first payload = reason code:
    /// 0 Newton, 1 LTE; second = Newton iterations of the rejected solve),
    /// so the dump taken on terminal non-convergence shows the last steps.
    pub fn reject(
        &mut self,
        iterations: usize,
        reason: RejectReason,
        worst_unknown: Option<String>,
    ) {
        let code = match reason {
            RejectReason::Newton => {
                self.reject_newton += 1;
                0
            }
            RejectReason::Lte => {
                self.reject_lte += 1;
                1
            }
        };
        tcam_obs::flight_record("step_reject", code, iterations as u64);
        if worst_unknown.is_some() {
            self.last_worst_unknown = worst_unknown;
        }
    }

    /// Counts one rung engagement (a retry attempt, successful or not).
    ///
    /// Every engagement also lands in the flight recorder (`rung_engaged`
    /// events, first payload = rung code: 0 gmin ramp, 1 source stepping,
    /// 3 dt shrink; second = rejections so far) so a post-mortem dump
    /// shows the escalation ladder that preceded a failure.
    pub fn rung_engaged(&mut self, rung: Rung) {
        let code = match rung {
            Rung::GminRamp => 0,
            Rung::SourceStepping => 1,
            Rung::DtShrink => {
                self.dt_shrinks += 1;
                3
            }
        };
        tcam_obs::flight_record("rung_engaged", code, self.reject_newton + self.reject_lte);
    }

    /// Counts one gmin-ramp stage solve.
    pub fn gmin_stage(&mut self) {
        self.gmin_events += 1;
    }

    /// Counts one source-stepping stage solve.
    pub fn source_stage(&mut self) {
        self.source_step_events += 1;
    }

    /// Counts a step whose size was limited by a device hint.
    pub fn device_hint(&mut self) {
        self.device_hint_limited += 1;
    }

    /// Attaches the run's wall-time phase breakdown: `(key, value)` pairs
    /// in the unified scheme (`phase_<name>_ns`, `phase_<name>_count`).
    /// Replaces any previous attachment.
    pub fn set_phases(&mut self, phases: Vec<(String, f64)>) {
        self.phases = phases;
    }

    /// The attached phase breakdown (empty when observability was off).
    #[must_use]
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// All aggregate counters as `(name, value)` pairs — the query surface
    /// mirrored by [`SolverTrace::counter`].
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        #[allow(clippy::cast_precision_loss)]
        let c = |v: u64| v as f64;
        vec![
            ("steps_accepted", c(self.stats.steps_accepted as u64)),
            ("steps_rejected", c(self.stats.steps_rejected as u64)),
            ("reject_newton", c(self.reject_newton)),
            ("reject_lte", c(self.reject_lte)),
            ("device_hint_limited", c(self.device_hint_limited)),
            ("nr_iterations", c(self.stats.nr_iterations as u64)),
            ("gmin_events", c(self.gmin_events)),
            ("source_step_events", c(self.source_step_events)),
            ("dt_shrinks", c(self.dt_shrinks)),
            ("ladder_recoveries", c(self.ladder_recoveries)),
            ("min_dt_used", self.min_dt_used),
            ("max_dt_used", self.max_dt_used),
        ]
    }

    /// Looks up one aggregate counter — or an attached `phase_*` entry —
    /// by name, `.meas`-style.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters()
            .into_iter()
            .find_map(|(n, v)| (n == name).then_some(v))
            .or_else(|| {
                self.phases
                    .iter()
                    .find_map(|(n, v)| (n == name).then_some(*v))
            })
    }

    /// The trace as one line of JSON. The worst unknown's node name is
    /// escaped and length-bounded (see `safe_node_name`), so a netlist node
    /// named `v("odd")` — or a pathologically long generated name — cannot
    /// corrupt the record.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{\"trace\":\"solver\"");
        for (name, value) in self.counters() {
            // u64-backed counters print as integers; dt extrema as floats.
            if name.ends_with("dt_used") {
                let v = if value.is_finite() { value } else { 0.0 };
                let _ = write!(s, ",\"{name}\":{v:.3e}");
            } else {
                let _ = write!(s, ",\"{name}\":{value:.0}");
            }
        }
        for (name, value) in &self.phases {
            let _ = write!(s, ",\"{name}\":{value:.0}");
        }
        match &self.last_worst_unknown {
            Some(w) => {
                let _ = write!(s, ",\"worst_unknown\":\"{}\"", safe_node_name(w));
            }
            None => s.push_str(",\"worst_unknown\":null"),
        }
        s.push('}');
        s
    }
}

/// Longest node name interpolated into a JSON record before truncation.
const MAX_NODE_NAME_JSON: usize = 96;

/// A node name made safe for direct interpolation between JSON quotes:
/// escaped (quotes, backslashes, control characters) and bounded to
/// [`MAX_NODE_NAME_JSON`] characters (a `..` suffix marks truncation) so
/// hierarchical generated names can't bloat one-line records.
fn safe_node_name(s: &str) -> String {
    let mut bounded = String::with_capacity(s.len().min(MAX_NODE_NAME_JSON + 2));
    for (taken, ch) in s.chars().enumerate() {
        if taken == MAX_NODE_NAME_JSON {
            bounded.push_str("..");
            break;
        }
        bounded.push(ch);
    }
    tcam_obs::json_escape(&bounded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_accepts_and_rejects() {
        let mut t = SolverTrace::new();
        t.accept(1e-12, false);
        t.reject(100, RejectReason::Newton, Some("v(ml)".into()));
        t.rung_engaged(Rung::DtShrink);
        t.accept(5e-13, true);
        assert_eq!(t.reject_newton, 1);
        assert_eq!(t.dt_shrinks, 1);
        assert_eq!(t.ladder_recoveries, 1);
        assert_eq!(t.last_worst_unknown.as_deref(), Some("v(ml)"));
        assert_eq!(t.counter("nope"), None);
        assert_eq!(t.min_dt_used, 5e-13);
        assert_eq!(t.max_dt_used, 1e-12);
        // Steps and iterations are the transient system's, under the same
        // exported names.
        t.stats = SolveStats {
            steps_accepted: 2,
            steps_rejected: 1,
            nr_iterations: 107,
            ..SolveStats::default()
        };
        assert_eq!(t.counter("steps_accepted"), Some(2.0));
        assert_eq!(t.counter("steps_rejected"), Some(1.0));
        assert_eq!(t.counter("nr_iterations"), Some(107.0));
    }

    #[test]
    fn json_line_is_single_line_and_complete() {
        let mut t = SolverTrace::new();
        t.stats.steps_accepted = 1;
        t.accept(1e-12, false);
        t.reject(50, RejectReason::Lte, Some("v(\"odd\")".into()));
        let line = t.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"trace\":\"solver\""));
        assert!(line.contains("\"steps_accepted\":1"));
        assert!(line.contains("\"reject_lte\":1"));
        assert!(line.contains("\\\"odd\\\""), "{line}");
        assert!(line.ends_with('}'));
    }

    #[test]
    fn empty_trace_json_has_no_infinities() {
        let line = SolverTrace::new().to_json_line();
        assert!(!line.contains("inf"), "{line}");
        assert!(line.contains("\"worst_unknown\":null"));
    }

    #[test]
    fn phases_are_queryable() {
        let mut t = SolverTrace::new();
        t.set_phases(vec![
            ("phase_lu_factorize_ns".into(), 1200.0),
            ("phase_device_eval_ns".into(), 800.0),
        ]);
        assert_eq!(t.counter("phase_lu_factorize_ns"), Some(1200.0));
        assert_eq!(t.counter("steps_accepted"), Some(0.0), "counters still win");
        let line = t.to_json_line();
        assert!(line.contains("\"phase_lu_factorize_ns\":1200"), "{line}");
    }

    #[test]
    fn json_line_escapes_and_bounds_the_worst_unknown() {
        let mut t = SolverTrace::new();
        t.reject(9, RejectReason::Newton, Some("v(\"quoted\")".into()));
        let quoted = t.to_json_line();
        assert!(quoted.contains("\\\"quoted\\\""), "{quoted}");
        t.reject(7, RejectReason::Newton, Some("x".repeat(300)));
        let long = t.to_json_line();
        assert!(
            long.contains(&format!("\"{}..\"", "x".repeat(MAX_NODE_NAME_JSON))),
            "long node name must be truncated with a marker: {long}"
        );
        for line in [&quoted, &long] {
            assert!(!line.contains('\n'));
            // Raw interior quotes would break the line: every quote in the
            // payload must be escaped, so stripping \" leaves none inside.
            let stripped = line.replace("\\\"", "");
            let interior = &stripped[1..stripped.len() - 1];
            assert_eq!(
                interior.matches('"').count() % 2,
                0,
                "unbalanced quotes: {line}"
            );
        }
    }
}
