//! Built-in linear elements and independent sources.
//!
//! Nonlinear semiconductor and MEMS devices live in the `tcam-devices`
//! crate; this module provides the elements every netlist needs: resistors,
//! capacitors, inductors, independent voltage/current sources, and a
//! hysteretic voltage-controlled switch.

use crate::device::{AnalysisKind, BranchId, CommitCtx, Device, EvalCtx, Stamps};
use crate::error::{Result, SpiceError};
use crate::node::NodeId;
use crate::source::Waveshape;

/// An ideal linear resistor.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    conductance: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] unless `ohms` is finite and
    /// positive.
    pub fn new(name: impl Into<String>, a: NodeId, b: NodeId, ohms: f64) -> Result<Self> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(SpiceError::InvalidCircuit(format!(
                "resistor must have finite positive resistance, got {ohms}"
            )));
        }
        Ok(Self {
            name: name.into(),
            a,
            b,
            conductance: 1.0 / ohms,
        })
    }

    /// Resistance in ohms.
    #[must_use]
    pub fn resistance(&self) -> f64 {
        1.0 / self.conductance
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn load(&self, _ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        stamps.conductance(self.a, self.b, self.conductance);
    }
}

/// An ideal linear capacitor with an optional initial condition.
///
/// During OP/DC analyses the capacitor is open unless an initial condition
/// is set, in which case it is forced to that voltage through a 1 S
/// pseudo-conductance (the SPICE `.ic` idiom).
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    farads: f64,
    ic: Option<f64>,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] unless `farads` is finite and
    /// non-negative.
    pub fn new(name: impl Into<String>, a: NodeId, b: NodeId, farads: f64) -> Result<Self> {
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(SpiceError::InvalidCircuit(format!(
                "capacitance must be finite and non-negative, got {farads}"
            )));
        }
        Ok(Self {
            name: name.into(),
            a,
            b,
            farads,
            ic: None,
        })
    }

    /// Sets the initial voltage across the capacitor for the operating
    /// point (`v(a) − v(b)`).
    #[must_use]
    pub fn with_ic(mut self, volts: f64) -> Self {
        self.ic = Some(volts);
        self
    }

    /// Capacitance in farads.
    #[must_use]
    pub fn capacitance(&self) -> f64 {
        self.farads
    }
}

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        match ctx.analysis {
            AnalysisKind::Op | AnalysisKind::DcSweep => {
                if let Some(ic) = self.ic {
                    // Force v_ab = ic through a strong Norton source.
                    let g = 1.0;
                    stamps.conductance(self.a, self.b, g);
                    stamps.current(self.a, self.b, -g * ic);
                }
            }
            AnalysisKind::Transient => {
                // Backward Euler: i = C/dt (v − v_prev).
                let v_prev = ctx.v_prev(self.a) - ctx.v_prev(self.b);
                let geq = self.farads / ctx.dt;
                stamps.conductance(self.a, self.b, geq);
                stamps.current(self.a, self.b, -geq * v_prev);
            }
        }
    }
}

/// An ideal linear inductor (companion-model transient, short at DC).
#[derive(Debug, Clone)]
pub struct Inductor {
    name: String,
    a: NodeId,
    b: NodeId,
    henries: f64,
    branch: Option<BranchId>,
}

impl Inductor {
    /// Creates an inductor of `henries` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] unless `henries` is finite and
    /// positive.
    pub fn new(name: impl Into<String>, a: NodeId, b: NodeId, henries: f64) -> Result<Self> {
        if !(henries.is_finite() && henries > 0.0) {
            return Err(SpiceError::InvalidCircuit(format!(
                "inductance must be finite and positive, got {henries}"
            )));
        }
        Ok(Self {
            name: name.into(),
            a,
            b,
            henries,
            branch: None,
        })
    }

    fn branch(&self) -> BranchId {
        self.branch.expect("inductor branch assigned by circuit")
    }
}

impl Device for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn assign_branches(&mut self, branches: &[BranchId]) {
        self.branch = Some(branches[0]);
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        let br = self.branch();
        stamps.branch_incidence(self.a, self.b, br);
        match ctx.analysis {
            AnalysisKind::Op | AnalysisKind::DcSweep => {
                // v_ab = 0 (ideal short): branch row is v_a − v_b = 0.
            }
            AnalysisKind::Transient => {
                // Backward Euler: v = L/dt (i − i_prev)
                // ⇒ v_a − v_b − (L/dt) i = −(L/dt) i_prev.
                let req = self.henries / ctx.dt;
                stamps.mat_branch_branch(br, -req);
                stamps.rhs_branch(br, -req * ctx.i_prev(br));
            }
        }
    }
}

/// Independent voltage source with an arbitrary [`Waveshape`] and cumulative
/// delivered-energy accounting.
#[derive(Debug, Clone)]
pub struct VoltageSource {
    name: String,
    pos: NodeId,
    neg: NodeId,
    shape: Waveshape,
    branch: Option<BranchId>,
    energy: f64,
    sourced: f64,
}

impl VoltageSource {
    /// Creates a source driving `v(pos) − v(neg)` to the waveform value.
    #[must_use]
    pub fn new(name: impl Into<String>, pos: NodeId, neg: NodeId, shape: Waveshape) -> Self {
        Self {
            name: name.into(),
            pos,
            neg,
            shape,
            branch: None,
            energy: 0.0,
            sourced: 0.0,
        }
    }

    /// DC source shorthand.
    #[must_use]
    pub fn dc(name: impl Into<String>, pos: NodeId, neg: NodeId, volts: f64) -> Self {
        Self::new(name, pos, neg, Waveshape::Dc(volts))
    }

    /// Replaces the waveform (used by DC sweeps); resets no accounting.
    pub fn set_shape(&mut self, shape: Waveshape) {
        self.shape = shape;
    }

    /// Energy this source has *sourced*: the sum of positive power
    /// excursions only, never crediting energy pushed back into the source.
    /// This is the "supply energy" of a CMOS driver, which cannot recover
    /// charge, and the figure the TCAM energy comparisons use.
    #[must_use]
    pub fn sourced_energy(&self) -> f64 {
        self.sourced
    }

    /// Resets the energy accumulators (e.g. between experiment phases).
    pub fn reset_accounting(&mut self) {
        self.energy = 0.0;
        self.sourced = 0.0;
    }

    fn branch(&self) -> BranchId {
        self.branch.expect("source branch assigned by circuit")
    }
}

impl Device for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.pos, self.neg]
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn assign_branches(&mut self, branches: &[BranchId]) {
        self.branch = Some(branches[0]);
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        let br = self.branch();
        stamps.branch_incidence(self.pos, self.neg, br);
        // `source_scale` is 1.0 except inside the recovery ladder's
        // source-stepping rung, which ramps every independent source 0 → 1.
        stamps.rhs_branch(br, ctx.source_scale * self.shape.eval(ctx.time));
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        if ctx.analysis == AnalysisKind::Transient && ctx.dt > 0.0 {
            let br = self.branch();
            // MNA branch current flows INTO the + terminal; the power the
            // source delivers to the circuit is therefore −v·i.
            let i1 = ctx.i(br);
            let i0 = ctx.x_prev[ctx.index.branch(br)];
            let v1 = self.shape.eval(ctx.time);
            let v0 = self.shape.eval(ctx.time - ctx.dt);
            let de = -0.5 * (v1 * i1 + v0 * i0) * ctx.dt;
            self.energy += de;
            if de > 0.0 {
                self.sourced += de;
            }
        }
    }

    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        self.shape.breakpoints(t_stop)
    }

    fn dt_hint(&self, t: f64) -> f64 {
        self.shape.dt_hint(t)
    }

    fn delivered_energy(&self) -> Option<f64> {
        Some(self.energy)
    }

    fn sourced_energy(&self) -> Option<f64> {
        Some(self.sourced)
    }
}

/// Independent current source (current flows from `pos` through the source
/// to `neg`, i.e. it *injects* into `neg`).
#[derive(Debug, Clone)]
pub struct CurrentSource {
    name: String,
    pos: NodeId,
    neg: NodeId,
    shape: Waveshape,
}

impl CurrentSource {
    /// Creates a current source pushing the waveform current from `pos` to
    /// `neg` through itself.
    #[must_use]
    pub fn new(name: impl Into<String>, pos: NodeId, neg: NodeId, shape: Waveshape) -> Self {
        Self {
            name: name.into(),
            pos,
            neg,
            shape,
        }
    }

    /// DC source shorthand.
    #[must_use]
    pub fn dc(name: impl Into<String>, pos: NodeId, neg: NodeId, amps: f64) -> Self {
        Self::new(name, pos, neg, Waveshape::Dc(amps))
    }
}

impl Device for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.pos, self.neg]
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        stamps.current(
            self.pos,
            self.neg,
            ctx.source_scale * self.shape.eval(ctx.time),
        );
    }

    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        self.shape.breakpoints(t_stop)
    }

    fn dt_hint(&self, t: f64) -> f64 {
        self.shape.dt_hint(t)
    }
}

/// A hysteretic voltage-controlled switch: `r_on` when on, `r_off` when off;
/// turns on when the control voltage exceeds `v_on`, off below `v_off`
/// (`v_off < v_on` gives hysteresis). State changes only on accepted
/// solutions.
#[derive(Debug, Clone)]
pub struct VSwitch {
    name: String,
    a: NodeId,
    b: NodeId,
    ctrl_pos: NodeId,
    ctrl_neg: NodeId,
    r_on: f64,
    r_off: f64,
    v_on: f64,
    v_off: f64,
    on: bool,
}

impl VSwitch {
    /// Creates a switch between `a` and `b` controlled by
    /// `v(ctrl_pos) − v(ctrl_neg)`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] when resistances are not
    /// positive/finite or when `v_off > v_on`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
        ctrl_pos: NodeId,
        ctrl_neg: NodeId,
        r_on: f64,
        r_off: f64,
        v_on: f64,
        v_off: f64,
    ) -> Result<Self> {
        if !(r_on.is_finite() && r_on > 0.0 && r_off.is_finite() && r_off > 0.0) {
            return Err(SpiceError::InvalidCircuit(
                "switch resistances must be finite and positive".into(),
            ));
        }
        if v_off > v_on {
            return Err(SpiceError::InvalidCircuit(format!(
                "switch hysteresis reversed: v_off ({v_off}) > v_on ({v_on})"
            )));
        }
        Ok(Self {
            name: name.into(),
            a,
            b,
            ctrl_pos,
            ctrl_neg,
            r_on,
            r_off,
            v_on,
            v_off,
            on: false,
        })
    }

    /// Sets the initial switch state.
    #[must_use]
    pub fn with_state(mut self, on: bool) -> Self {
        self.on = on;
        self
    }

    /// Current switch state.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }
}

impl Device for VSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b, self.ctrl_pos, self.ctrl_neg]
    }

    fn load(&self, _ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        let g = if self.on {
            1.0 / self.r_on
        } else {
            1.0 / self.r_off
        };
        stamps.conductance(self.a, self.b, g);
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let vc = ctx.v(self.ctrl_pos) - ctx.v(self.ctrl_neg);
        if vc > self.v_on {
            self.on = true;
        } else if vc < self.v_off {
            self.on = false;
        }
    }

    fn probe_names(&self) -> Vec<&'static str> {
        vec!["state"]
    }

    fn probe(&self, name: &str) -> Option<f64> {
        (name == "state").then(|| f64::from(u8::from(self.on)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn resistor_validation() {
        assert!(Resistor::new("r1", n(1), n(0), 100.0).is_ok());
        assert!(Resistor::new("r1", n(1), n(0), 0.0).is_err());
        assert!(Resistor::new("r1", n(1), n(0), -5.0).is_err());
        assert!(Resistor::new("r1", n(1), n(0), f64::INFINITY).is_err());
        assert_eq!(
            Resistor::new("r1", n(1), n(0), 100.0).unwrap().resistance(),
            100.0
        );
    }

    #[test]
    fn capacitor_validation() {
        assert!(Capacitor::new("c1", n(1), n(0), 1e-12).is_ok());
        assert!(Capacitor::new("c1", n(1), n(0), -1e-12).is_err());
        assert!(Capacitor::new("c1", n(1), n(0), f64::NAN).is_err());
        let c = Capacitor::new("c1", n(1), n(0), 1e-12)
            .unwrap()
            .with_ic(0.5);
        assert_eq!(c.capacitance(), 1e-12);
        assert_eq!(c.ic, Some(0.5));
    }

    #[test]
    fn inductor_validation() {
        assert!(Inductor::new("l1", n(1), n(0), 1e-9).is_ok());
        assert!(Inductor::new("l1", n(1), n(0), 0.0).is_err());
    }

    #[test]
    fn switch_validation() {
        assert!(VSwitch::new("s1", n(1), n(2), n(3), n(0), 1e3, 1e12, 0.5, 0.1).is_ok());
        assert!(VSwitch::new("s1", n(1), n(2), n(3), n(0), 1e3, 1e12, 0.1, 0.5).is_err());
        assert!(VSwitch::new("s1", n(1), n(2), n(3), n(0), 0.0, 1e12, 0.5, 0.1).is_err());
        let s = VSwitch::new("s1", n(1), n(2), n(3), n(0), 1e3, 1e12, 0.5, 0.1)
            .unwrap()
            .with_state(true);
        assert!(s.is_on());
        assert_eq!(s.probe("state"), Some(1.0));
        assert_eq!(s.probe("nope"), None);
    }

    #[test]
    fn source_shapes_expose_breakpoints() {
        let v = VoltageSource::new("vdd", n(1), n(0), Waveshape::step(0.0, 1.0, 1e-9, 0.1e-9));
        assert!(!v.breakpoints(10e-9).is_empty());
        assert!(v.dt_hint(1e-9) < 1e-9);
        assert_eq!(v.delivered_energy(), Some(0.0));
    }

    #[test]
    fn dc_shorthands() {
        let v = VoltageSource::dc("v1", n(1), n(0), 1.0);
        assert!(matches!(v.shape, Waveshape::Dc(x) if x == 1.0));
        let i = CurrentSource::dc("i1", n(1), n(0), 1e-6);
        assert!(matches!(i.shape, Waveshape::Dc(x) if x == 1e-6));
    }
}
