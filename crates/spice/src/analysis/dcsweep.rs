//! Quasi-static DC sweep.
//!
//! Solves a sequence of operating points while stepping one voltage source,
//! committing hysteretic device state between points — which is exactly how
//! a quasi-static `I_DS`–`V_GB` hysteresis curve (paper Fig. 3b) is traced:
//! sweep up, then sweep down, and the relay's pull-in/pull-out state carries
//! across points.

use crate::device::{AnalysisKind, CommitCtx};
use crate::element::VoltageSource;
use crate::error::{Result, SpiceError};
use crate::mna::MnaSystem;
use crate::netlist::Circuit;
use crate::newton::solve_point;
use crate::options::SimOptions;
use crate::source::Waveshape;
use crate::waveform::Waveform;

/// DC sweep specification.
#[derive(Debug, Clone)]
pub struct DcSweepSpec {
    /// Name of the [`VoltageSource`] to sweep.
    pub source: String,
    /// The sweep points, visited in order (may be non-monotonic, e.g. a
    /// triangle up-then-down for hysteresis tracing).
    pub points: Vec<f64>,
}

impl DcSweepSpec {
    /// Linear sweep from `from` to `to` in `n` points (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn linear(source: impl Into<String>, from: f64, to: f64, n: usize) -> Self {
        assert!(n >= 2, "a sweep needs at least two points");
        let step = (to - from) / (n - 1) as f64;
        Self {
            source: source.into(),
            points: (0..n).map(|i| from + step * i as f64).collect(),
        }
    }

    /// Triangle sweep `from → to → from`, `n` points per leg — the standard
    /// hysteresis stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn triangle(source: impl Into<String>, from: f64, to: f64, n: usize) -> Self {
        let mut up = Self::linear(source, from, to, n);
        let down: Vec<f64> = up.points.iter().rev().skip(1).copied().collect();
        up.points.extend(down);
        up
    }
}

/// Runs the sweep and records every node voltage and branch current at each
/// point, plus device probes. The axis is the swept source value.
///
/// # Errors
///
/// * [`SpiceError::NotFound`] when the named source does not exist or is not
///   a [`VoltageSource`].
/// * [`SpiceError::NonConvergence`] when a point fails to solve.
pub fn dc_sweep(circuit: &mut Circuit, spec: &DcSweepSpec, opts: &SimOptions) -> Result<Waveform> {
    if spec.points.is_empty() {
        return Err(SpiceError::InvalidCircuit("sweep has no points".into()));
    }
    // Verify the source exists and is the right type up front.
    circuit.device_as::<VoltageSource>(&spec.source)?;

    let index = circuit.unknown_index();
    let mut names: Vec<String> = Vec::new();
    for (id, name) in circuit.nodes().iter() {
        if !id.is_ground() {
            names.push(format!("v({name})"));
        }
    }
    names.extend(circuit.branch_names().iter().cloned());
    let mut probe_list: Vec<(usize, &'static str)> = Vec::new();
    for (di, dev) in circuit.devices().iter().enumerate() {
        for p in dev.probe_names() {
            names.push(format!("{}.{p}", dev.name()));
            probe_list.push((di, p));
        }
    }
    let mut wave = Waveform::new(spec.source.clone(), names);

    let mut sys = MnaSystem::build(circuit, AnalysisKind::DcSweep, opts)?;
    let n = sys.index().n_unknowns();
    let zeros = vec![0.0; n];
    let mut guess = zeros.clone();

    for &value in &spec.points {
        circuit
            .device_as_mut::<VoltageSource>(&spec.source)?
            .set_shape(Waveshape::Dc(value));
        let outcome = solve_point(circuit, &mut sys, 0.0, 0.0, &zeros, &guess, opts, opts.gmin)?;
        // Commit quasi-static state (hysteresis!).
        let ctx = CommitCtx {
            analysis: AnalysisKind::DcSweep,
            time: 0.0,
            dt: 0.0,
            x: &outcome.x,
            x_prev: &guess,
            index,
        };
        for dev in circuit.devices_mut() {
            dev.commit(&ctx);
        }
        let mut row = Vec::with_capacity(n + probe_list.len());
        row.extend_from_slice(&outcome.x);
        for &(di, p) in &probe_list {
            row.push(circuit.devices()[di].probe(p).unwrap_or(f64::NAN));
        }
        wave.push(value, &row);
        guess = outcome.x;
    }
    Ok(wave)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VSwitch};

    #[test]
    fn linear_spec_endpoints() {
        let s = DcSweepSpec::linear("v1", 0.0, 1.0, 5);
        assert_eq!(s.points.len(), 5);
        assert_eq!(s.points[0], 0.0);
        assert_eq!(s.points[4], 1.0);
    }

    #[test]
    fn triangle_spec_shape() {
        let s = DcSweepSpec::triangle("v1", 0.0, 1.0, 3);
        assert_eq!(s.points, vec![0.0, 0.5, 1.0, 0.5, 0.0]);
    }

    #[test]
    fn resistive_divider_tracks_sweep() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vin, gnd, 0.0)).unwrap();
        ckt.add(Resistor::new("r1", vin, out, 1e3).unwrap())
            .unwrap();
        ckt.add(Resistor::new("r2", out, gnd, 1e3).unwrap())
            .unwrap();
        let spec = DcSweepSpec::linear("v1", 0.0, 2.0, 11);
        let wave = dc_sweep(&mut ckt, &spec, &SimOptions::default()).unwrap();
        let vout = wave.trace("v(out)").unwrap();
        for (i, &v) in wave.axis().iter().enumerate() {
            assert!((vout[i] - v / 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn switch_hysteresis_traced() {
        // Switch turns on at 0.6 V, off at 0.2 V: a triangle sweep shows
        // different up/down transitions.
        let mut ckt = Circuit::new();
        let ctl = ckt.node("ctl");
        let out = ckt.node("out");
        let vdd = ckt.node("vdd");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vc", ctl, gnd, 0.0)).unwrap();
        ckt.add(VoltageSource::dc("vdd", vdd, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("rl", vdd, out, 1e3).unwrap())
            .unwrap();
        ckt.add(VSwitch::new("s1", out, gnd, ctl, gnd, 1.0, 1e12, 0.6, 0.2).unwrap())
            .unwrap();
        let spec = DcSweepSpec::triangle("vc", 0.0, 1.0, 11);
        let wave = dc_sweep(&mut ckt, &spec, &SimOptions::default()).unwrap();
        let state = wave.trace("s1.state").unwrap();
        let axis = wave.axis();
        // Upward leg: off below 0.6 V.
        let idx_up_05 = axis.iter().position(|&v| (v - 0.5).abs() < 1e-9).unwrap();
        assert_eq!(state[idx_up_05], 0.0);
        // Downward leg: still on at 0.5 V and 0.3 V (hysteresis).
        let idx_down_05 = axis.len()
            - 1
            - axis
                .iter()
                .rev()
                .position(|&v| (v - 0.5).abs() < 1e-9)
                .unwrap();
        assert_eq!(state[idx_down_05], 1.0);
        assert!(idx_down_05 > idx_up_05);
    }

    #[test]
    fn unknown_source_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(Resistor::new("r1", a, gnd, 1e3).unwrap()).unwrap();
        ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).unwrap();
        let spec = DcSweepSpec::linear("nope", 0.0, 1.0, 3);
        assert!(dc_sweep(&mut ckt, &spec, &SimOptions::default()).is_err());
    }
}
