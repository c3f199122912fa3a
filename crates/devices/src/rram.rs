//! A bipolar RRAM (memristive) cell model.
//!
//! Filament growth is abstracted as a state `s ∈ [0, 1]` with exponential
//! resistance interpolation `ln R = (1−s)·ln R_off + s·ln R_on` and
//! threshold-driven first-order switching dynamics: above `V_SET` the state
//! relaxes toward 1, below `−V_RESET` toward 0, with a rate that scales
//! quadratically with overdrive so the published `t_write ≈ 10 ns` at the
//! nominal write voltage is met. The current-driven write mechanism — the
//! reason RRAM TCAM write energy is ~two orders above the capacitive
//! alternatives — emerges directly: during SET the cell conducts
//! `V²/R(s)` the whole time.

use crate::companion::CompanionCap;
use crate::params::RramParams;
use tcam_spice::device::{AnalysisKind, CommitCtx, Device, EvalCtx, Stamps};
use tcam_spice::node::NodeId;

/// Number of characteristic time constants in a "full" write: the state
/// reaches `1 − e⁻³ ≈ 95 %` within `t_write` at nominal voltage.
const WRITE_TAU_FACTOR: f64 = 3.0;

/// Top-electrode (MIM stack + via) capacitance to substrate, farads. This
/// is what a matchline sees per attached cell.
pub const C_ELECTRODE: f64 = 50e-18;

/// A two-terminal RRAM element (top electrode, bottom electrode); positive
/// voltage at the top electrode SETs (filament grows).
#[derive(Debug, Clone)]
pub struct Rram {
    name: String,
    top: NodeId,
    bottom: NodeId,
    params: RramParams,
    /// Filament state in `[0, 1]` (1 = low-resistance / ON).
    state: f64,
    /// Top-electrode parasitic capacitance.
    c_top: CompanionCap,
}

impl Rram {
    /// Creates a cell in the fully-reset (high-resistance) state.
    #[must_use]
    pub fn new(name: impl Into<String>, top: NodeId, bottom: NodeId, params: RramParams) -> Self {
        Self {
            name: name.into(),
            top,
            bottom,
            params,
            state: 0.0,
            c_top: CompanionCap::new(C_ELECTRODE),
        }
    }

    /// Sets the initial filament state (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_state(mut self, s: f64) -> Self {
        self.state = s.clamp(0.0, 1.0);
        self
    }

    /// Convenience: fully SET (`true`) or fully RESET (`false`).
    #[must_use]
    pub fn with_bit(self, on: bool) -> Self {
        self.with_state(if on { 1.0 } else { 0.0 })
    }

    /// Present filament state.
    #[must_use]
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Present resistance.
    #[must_use]
    pub fn resistance(&self) -> f64 {
        let ln_r = (1.0 - self.state) * self.params.r_off.ln() + self.state * self.params.r_on.ln();
        ln_r.exp()
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &RramParams {
        &self.params
    }

    fn advance_state(&mut self, v: f64, dt: f64) {
        let p = &self.params;
        if v >= p.v_set {
            let k = WRITE_TAU_FACTOR / p.t_write * (v / p.v_set).powi(2);
            self.state = 1.0 - (1.0 - self.state) * (-k * dt).exp();
        } else if v <= -p.v_reset {
            let k = WRITE_TAU_FACTOR / p.t_write * (v / p.v_reset).powi(2);
            self.state *= (-k * dt).exp();
        }
        self.state = self.state.clamp(0.0, 1.0);
    }
}

impl Device for Rram {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.top, self.bottom]
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        stamps.conductance(self.top, self.bottom, 1.0 / self.resistance());
        self.c_top.load(ctx, stamps, self.top, NodeId::GROUND);
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let v_now = ctx.v(self.top) - ctx.v(self.bottom);
        match ctx.analysis {
            AnalysisKind::Op | AnalysisKind::DcSweep => {
                // Quasi-static: a held DC bias beyond threshold switches
                // fully (each sweep point dwells ≫ t_write).
                if v_now >= self.params.v_set {
                    self.state = 1.0;
                } else if v_now <= -self.params.v_reset {
                    self.state = 0.0;
                }
            }
            AnalysisKind::Transient => {
                if ctx.dt > 0.0 {
                    let v_prev = ctx.v_prev(self.top) - ctx.v_prev(self.bottom);
                    self.advance_state(0.5 * (v_now + v_prev), ctx.dt);
                }
            }
        }
    }

    fn dt_hint(&self, _t: f64) -> f64 {
        // Resolve switching transients; generous when static.
        self.params.t_write / 20.0
    }

    fn probe_names(&self) -> Vec<&'static str> {
        vec!["state", "resistance"]
    }

    fn probe(&self, name: &str) -> Option<f64> {
        match name {
            "state" => Some(self.state),
            "resistance" => Some(self.resistance()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_spice::prelude::*;

    #[test]
    fn resistance_interpolates_between_states() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let r = Rram::new("z1", a, ckt.gnd(), RramParams::default());
        assert!((r.resistance() - 2e6).abs() < 1.0);
        let r_on = r.clone().with_bit(true);
        assert!((r_on.resistance() - 20e3).abs() < 0.1);
        let r_half = Rram::new("z2", a, ckt.gnd(), RramParams::default()).with_state(0.5);
        let geo_mean = (2e6_f64 * 20e3).sqrt();
        assert!((r_half.resistance() - geo_mean).abs() / geo_mean < 1e-9);
    }

    #[test]
    fn set_completes_near_t_write() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "vw",
            a,
            gnd,
            Waveshape::step(0.0, 1.8, 1e-9, 0.2e-9),
        ))
        .unwrap();
        ckt.add(Rram::new("z1", a, gnd, RramParams::default()))
            .unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(25e-9), &SimOptions::default()).unwrap();
        let s_10ns = wave.sample("z1.state", 11e-9).unwrap();
        assert!(s_10ns > 0.9, "state after t_write = {s_10ns}");
        let s_early = wave.sample("z1.state", 2e-9).unwrap();
        assert!(s_early < 0.5, "switching must take finite time: {s_early}");
    }

    #[test]
    fn below_threshold_does_not_disturb() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vr", a, gnd, 1.0)).unwrap(); // read bias < v_set
        ckt.add(Rram::new("z1", a, gnd, RramParams::default()).with_state(0.3))
            .unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(100e-9), &SimOptions::default()).unwrap();
        let s = wave.last("z1.state").unwrap();
        assert!((s - 0.3).abs() < 1e-9, "read disturb: {s}");
    }

    #[test]
    fn reset_with_negative_bias() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "vw",
            a,
            gnd,
            Waveshape::step(0.0, -1.5, 1e-9, 0.2e-9),
        ))
        .unwrap();
        ckt.add(Rram::new("z1", a, gnd, RramParams::default()).with_bit(true))
            .unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(30e-9), &SimOptions::default()).unwrap();
        assert!(wave.last("z1.state").unwrap() < 0.1);
    }

    #[test]
    fn set_energy_is_current_driven_and_large() {
        // The defining RRAM property: writing costs ~pJ because the cell
        // conducts during the whole SET.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "vw",
            a,
            gnd,
            Waveshape::step(0.0, 1.8, 0.0, 0.2e-9),
        ))
        .unwrap();
        ckt.add(Rram::new("z1", a, gnd, RramParams::default()))
            .unwrap();
        let _ = transient(&mut ckt, TransientSpec::to(20e-9), &SimOptions::default()).unwrap();
        let e = ckt.total_source_energy();
        // After SET the cell sits at 20 kΩ under 1.8 V: 162 µW sustained.
        // Over 20 ns that alone is ~2 pJ.
        assert!(e > 0.5e-12, "SET energy = {e:.3e} J");
    }

    #[test]
    fn dc_sweep_traces_pinched_hysteresis() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vs", a, gnd, 0.0)).unwrap();
        ckt.add(Rram::new("z1", a, gnd, RramParams::default()))
            .unwrap();
        // 0 → +2 → 0 → −2 → 0 triangle.
        let mut pts = Vec::new();
        for i in 0..=40 {
            pts.push(2.0 * i as f64 / 40.0);
        }
        for i in (0..40).rev() {
            pts.push(2.0 * i as f64 / 40.0);
        }
        for i in 1..=40 {
            pts.push(-2.0 * i as f64 / 40.0);
        }
        for i in (0..40).rev() {
            pts.push(-2.0 * i as f64 / 40.0);
        }
        let spec = DcSweepSpec {
            source: "vs".into(),
            points: pts,
        };
        let wave = dc_sweep(&mut ckt, &spec, &SimOptions::default()).unwrap();
        let state = wave.trace("z1.state").unwrap();
        assert_eq!(state[0], 0.0);
        // After crossing +1.8 V: SET.
        let max_state = state.iter().cloned().fold(0.0, f64::max);
        assert_eq!(max_state, 1.0);
        // Final point (after the negative excursion): RESET again.
        assert_eq!(*state.last().unwrap(), 0.0);
    }
}
