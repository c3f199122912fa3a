//! Simulation results: named traces sampled on a shared (possibly
//! non-uniform) time axis, with CSV export.

use crate::error::{Result, SpiceError};
use crate::mna::SolveStats;
use crate::trace::SolverTrace;
use std::collections::HashMap;
use std::io::Write;

/// A set of signals sampled at common instants. For transient runs the axis
/// is time in seconds; for DC sweeps it is the swept value.
#[derive(Debug, Clone, Default)]
pub struct Waveform {
    axis_name: String,
    axis: Vec<f64>,
    names: Vec<String>,
    data: Vec<Vec<f64>>,
    by_name: HashMap<String, usize>,
    solver_trace: Option<SolverTrace>,
}

impl Waveform {
    /// Creates an empty waveform with the given signal names.
    ///
    /// # Panics
    ///
    /// Panics on duplicate signal names (an engine bug, not user input).
    #[must_use]
    pub fn new(axis_name: impl Into<String>, names: Vec<String>) -> Self {
        let mut by_name = HashMap::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            let prev = by_name.insert(n.clone(), i);
            assert!(prev.is_none(), "duplicate signal name '{n}'");
        }
        let count = names.len();
        Self {
            axis_name: axis_name.into(),
            axis: Vec::new(),
            names,
            data: vec![Vec::new(); count],
            by_name,
            solver_trace: None,
        }
    }

    /// Solver statistics for the producing run — the [`SolveStats`] its
    /// [`SolverTrace`] carries (transient records one; other analyses may
    /// not).
    #[must_use]
    pub fn stats(&self) -> Option<SolveStats> {
        self.solver_trace.as_ref().map(|t| t.stats)
    }

    /// Attaches the solver record of the producing run.
    pub fn set_solver_trace(&mut self, trace: SolverTrace) {
        self.solver_trace = Some(trace);
    }

    /// The solver record of the producing run (transient records one;
    /// other analyses may not).
    #[must_use]
    pub fn solver_trace(&self) -> Option<&SolverTrace> {
        self.solver_trace.as_ref()
    }

    /// Looks up one solver-trace counter by name (`.meas`-style access to
    /// the telemetry, e.g. `"steps_rejected"` or `"gmin_events"`).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SignalUnavailable`] when no trace was recorded
    /// or the counter name is unknown.
    pub fn meas_solver(&self, counter: &str) -> Result<f64> {
        self.solver_trace
            .as_ref()
            .and_then(|t| t.counter(counter))
            .ok_or_else(|| SpiceError::SignalUnavailable(format!("solver trace '{counter}'")))
    }

    /// Appends one sample row.
    ///
    /// # Panics
    ///
    /// Panics when `values.len()` differs from the signal count (engine bug).
    pub fn push(&mut self, axis_value: f64, values: &[f64]) {
        assert_eq!(values.len(), self.names.len(), "sample width mismatch");
        self.axis.push(axis_value);
        for (col, &v) in self.data.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// The axis samples (time or sweep value).
    #[must_use]
    pub fn axis(&self) -> &[f64] {
        &self.axis
    }

    /// The axis name.
    #[must_use]
    pub fn axis_name(&self) -> &str {
        &self.axis_name
    }

    /// Number of sample rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.axis.len()
    }

    /// Returns `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.axis.is_empty()
    }

    /// All signal names.
    #[must_use]
    pub fn signal_names(&self) -> &[String] {
        &self.names
    }

    /// The samples of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SignalUnavailable`] for unknown names.
    pub fn trace(&self, name: &str) -> Result<&[f64]> {
        self.by_name
            .get(name)
            .map(|&i| self.data[i].as_slice())
            .ok_or_else(|| SpiceError::SignalUnavailable(name.to_string()))
    }

    /// Value of a signal at the last sample.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SignalUnavailable`] for unknown names or an
    /// empty waveform.
    pub fn last(&self, name: &str) -> Result<f64> {
        let t = self.trace(name)?;
        t.last()
            .copied()
            .ok_or_else(|| SpiceError::SignalUnavailable(format!("{name} (empty waveform)")))
    }

    /// Linear interpolation of a signal at `at` (clamped to the span).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SignalUnavailable`] for unknown names or empty
    /// data.
    pub fn sample(&self, name: &str, at: f64) -> Result<f64> {
        let ys = self.trace(name)?;
        if ys.is_empty() {
            return Err(SpiceError::SignalUnavailable(format!(
                "{name} (empty waveform)"
            )));
        }
        let xs = &self.axis;
        if at <= xs[0] {
            return Ok(ys[0]);
        }
        if at >= xs[xs.len() - 1] {
            return Ok(ys[ys.len() - 1]);
        }
        let i = match xs.partition_point(|&v| v <= at) {
            0 => 0,
            p => p - 1,
        };
        let f = (at - xs[i]) / (xs[i + 1] - xs[i]);
        Ok(ys[i] + f * (ys[i + 1] - ys[i]))
    }

    /// Writes the waveform as CSV (axis first column).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] wrapping I/O failures (this
    /// engine has no I/O error variant; CSV export is a debugging aid).
    pub fn to_csv<W: Write>(&self, mut w: W) -> Result<()> {
        let io_err = |e: std::io::Error| SpiceError::InvalidCircuit(format!("csv write: {e}"));
        write!(w, "{}", self.axis_name).map_err(io_err)?;
        for n in &self.names {
            write!(w, ",{n}").map_err(io_err)?;
        }
        writeln!(w).map_err(io_err)?;
        for (i, t) in self.axis.iter().enumerate() {
            write!(w, "{t:.9e}").map_err(io_err)?;
            for col in &self.data {
                write!(w, ",{:.9e}", col[i]).map_err(io_err)?;
            }
            writeln!(w).map_err(io_err)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf() -> Waveform {
        let mut w = Waveform::new("time", vec!["v(a)".into(), "v(b)".into()]);
        w.push(0.0, &[0.0, 1.0]);
        w.push(1.0, &[1.0, 0.5]);
        w.push(2.0, &[4.0, 0.0]);
        w
    }

    #[test]
    fn traces_accessible_by_name() {
        let w = wf();
        assert_eq!(w.trace("v(a)").unwrap(), &[0.0, 1.0, 4.0]);
        assert_eq!(w.last("v(b)").unwrap(), 0.0);
        assert!(w.trace("v(c)").is_err());
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn sample_interpolates_and_clamps() {
        let w = wf();
        assert!((w.sample("v(a)", 0.5).unwrap() - 0.5).abs() < 1e-12);
        assert!((w.sample("v(a)", 1.5).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(w.sample("v(a)", -1.0).unwrap(), 0.0);
        assert_eq!(w.sample("v(a)", 99.0).unwrap(), 4.0);
    }

    #[test]
    fn csv_roundtrip_structure() {
        let w = wf();
        let mut buf = Vec::new();
        w.to_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "time,v(a),v(b)");
        assert!(lines[1].starts_with("0.0"));
    }

    #[test]
    #[should_panic(expected = "sample width mismatch")]
    fn push_width_checked() {
        let mut w = Waveform::new("time", vec!["a".into()]);
        w.push(0.0, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_names_panic() {
        let _ = Waveform::new("time", vec!["a".into(), "a".into()]);
    }

    #[test]
    fn empty_waveform_behaviour() {
        let w = Waveform::new("time", vec!["a".into()]);
        assert!(w.is_empty());
        assert!(w.last("a").is_err());
        assert!(w.sample("a", 0.0).is_err());
    }

    #[test]
    fn solver_trace_queryable_like_meas() {
        let mut w = wf();
        assert!(w.solver_trace().is_none());
        assert!(w.meas_solver("steps_accepted").is_err());
        assert!(w.stats().is_none());
        let mut t = SolverTrace::new();
        t.stats.steps_accepted = 1;
        t.stats.nr_iterations = 3;
        w.set_solver_trace(t);
        assert_eq!(w.stats().unwrap().steps_accepted, 1);
        assert_eq!(w.meas_solver("steps_accepted").unwrap(), 1.0);
        assert_eq!(w.meas_solver("nr_iterations").unwrap(), 3.0);
        assert!(w.meas_solver("not_a_counter").is_err());
    }
}
