//! A ferroelectric FET model in the Preisach spirit.
//!
//! The gate stack's remanent polarization `p ∈ [−1, +1]` shifts the
//! transistor threshold by `∓ vth_window/2`. Polarization moves only when
//! the gate–source voltage exceeds the coercive distribution: on positive
//! drive `p` can only rise toward `tanh((v − v_c)/σ)`, on negative drive
//! only fall toward `tanh((v + v_c)/σ)` — the min/max envelope form of a
//! Preisach hysteron ensemble with a logistic coercive-field distribution.
//! First-order kinetics with `τ_switch` reproduce the published
//! ±4 V / 10 ns write.
//!
//! Reads at 1 V cannot move `p` (the envelope is already below/above the
//! stored value), so the model is read-disturb free at search voltages —
//! matching the paper's use of the low-voltage search regime. The
//! ferroelectric switching charge is represented by an additional linear
//! gate capacitance `q_switch / (2·4 V)`, which books the polarization
//! energy to the 4 V write driver (see DESIGN.md substitutions).

use crate::companion::CompanionCap;
use crate::mosfet::{load_transistor, terminal_caps, MosParams};
use crate::params::FefetParams;
use tcam_spice::device::{AnalysisKind, CommitCtx, Device, EvalCtx, Stamps};
use tcam_spice::node::NodeId;

/// A four-terminal FeFET (drain, gate, source, body).
#[derive(Debug, Clone)]
pub struct Fefet {
    name: String,
    /// Terminals `[d, g, s, b]`.
    nodes: [NodeId; 4],
    fe: FefetParams,
    base: MosParams,
    /// Remanent polarization in `[−1, 1]`; +1 = low-V_T ("1").
    p: f64,
    c_fe: CompanionCap,
    /// The baseline transistor's terminal capacitors. Loaded, never
    /// committed: see [`Device::load`] below.
    caps: [CompanionCap; 5],
}

impl Fefet {
    /// Creates a FeFET over the given baseline transistor.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        base: MosParams,
        fe: FefetParams,
    ) -> Self {
        let c_fe = CompanionCap::new(fe.q_switch / (2.0 * 4.0));
        Self {
            name: name.into(),
            nodes: [d, g, s, b],
            fe,
            base,
            p: -1.0,
            c_fe,
            caps: terminal_caps(&base),
        }
    }

    /// Sets the stored polarization: `true` = low-V_T ("erased to 1").
    #[must_use]
    pub fn with_bit(mut self, one: bool) -> Self {
        self.p = if one { 1.0 } else { -1.0 };
        self
    }

    /// Present polarization.
    #[must_use]
    pub fn polarization(&self) -> f64 {
        self.p
    }

    /// Overrides the stored polarization (clamped to `[−1, 1]`).
    pub fn set_polarization(&mut self, p: f64) {
        self.p = p.clamp(-1.0, 1.0);
    }

    /// Effective threshold voltage at the present polarization.
    #[must_use]
    pub fn vth_eff(&self) -> f64 {
        self.base.vth0 - self.p * self.fe.vth_window / 2.0
    }

    /// The baseline transistor at the present polarization's threshold.
    fn channel_params(&self) -> MosParams {
        MosParams {
            vth0: self.vth_eff(),
            ..self.base
        }
    }

    /// Polarization envelope target for gate drive `v`.
    fn target(&self, v: f64) -> f64 {
        if v >= 0.0 {
            let up = ((v - self.fe.v_coercive) / self.fe.v_sigma).tanh();
            self.p.max(up)
        } else {
            let down = ((v + self.fe.v_coercive) / self.fe.v_sigma).tanh();
            self.p.min(down)
        }
    }
}

impl Device for Fefet {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.nodes.to_vec()
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        // The embedded transistor's five terminal capacitors are
        // history-less: `commit` never advances them, so their trapezoidal
        // current history stays zero. Invisible under the default backward
        // Euler; under trapezoidal a modelling quirk kept as it always was
        // (giving them state would move every FeFET waveform).
        load_transistor(ctx, stamps, self.nodes, &self.channel_params(), &self.caps);
        let [_, g, _, b] = self.nodes;
        self.c_fe.load(ctx, stamps, g, b);
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let [_, g, s, b] = self.nodes;
        self.c_fe.commit(ctx, g, b);
        let v_now = ctx.v(g) - ctx.v(s);
        match ctx.analysis {
            AnalysisKind::Op | AnalysisKind::DcSweep => {
                self.p = self.target(v_now);
            }
            AnalysisKind::Transient => {
                if ctx.dt > 0.0 {
                    let v_prev = ctx.v_prev(g) - ctx.v_prev(s);
                    let v = 0.5 * (v_now + v_prev);
                    let target = self.target(v);
                    let alpha = 1.0 - (-ctx.dt / self.fe.tau_switch).exp();
                    self.p += (target - self.p) * alpha;
                }
            }
        }
        self.p = self.p.clamp(-1.0, 1.0);
    }

    fn dt_hint(&self, _t: f64) -> f64 {
        self.fe.tau_switch / 10.0
    }

    fn probe_names(&self) -> Vec<&'static str> {
        vec!["p", "vth"]
    }

    fn probe(&self, name: &str) -> Option<f64> {
        match name {
            "p" => Some(self.p),
            "vth" => Some(self.vth_eff()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::channel;
    use tcam_spice::prelude::*;

    fn fefet_at(gnd_all: &mut Circuit) -> (NodeId, NodeId) {
        let d = gnd_all.node("d");
        let g = gnd_all.node("g");
        let gnd = gnd_all.gnd();
        let f = Fefet::new(
            "f1",
            d,
            g,
            gnd,
            gnd,
            MosParams::nmos_45lp(),
            FefetParams::default(),
        );
        gnd_all.add(f).unwrap();
        (d, g)
    }

    #[test]
    fn vth_window_is_centred() {
        let mut ckt = Circuit::new();
        let _ = fefet_at(&mut ckt);
        let f = ckt.device_as::<Fefet>("f1").unwrap();
        let base = MosParams::nmos_45lp().vth0;
        let win = FefetParams::default().vth_window;
        assert!((f.vth_eff() - (base + win / 2.0)).abs() < 1e-12); // starts at p=−1
        let f1 = f.clone().with_bit(true);
        assert!((f1.vth_eff() - (base - win / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn positive_write_sets_low_vth() {
        let mut ckt = Circuit::new();
        let (d, g) = fefet_at(&mut ckt);
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "vg",
            g,
            gnd,
            Waveshape::Pulse {
                v1: 0.0,
                v2: 4.0,
                delay: 1e-9,
                rise: 0.5e-9,
                fall: 0.5e-9,
                width: 10e-9,
                period: f64::INFINITY,
            },
        ))
        .unwrap();
        ckt.add(Resistor::new("rd", d, gnd, 1e6).unwrap()).unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(20e-9), &SimOptions::default()).unwrap();
        let p = wave.last("f1.p").unwrap();
        assert!(p > 0.95, "polarization after +4 V/10 ns write: {p}");
    }

    #[test]
    fn negative_write_resets() {
        let mut ckt = Circuit::new();
        let (d, g) = fefet_at(&mut ckt);
        let gnd = ckt.gnd();
        ckt.device_as_mut::<Fefet>("f1")
            .unwrap()
            .set_polarization(1.0);
        ckt.add(VoltageSource::new(
            "vg",
            g,
            gnd,
            Waveshape::Pulse {
                v1: 0.0,
                v2: -4.0,
                delay: 1e-9,
                rise: 0.5e-9,
                fall: 0.5e-9,
                width: 10e-9,
                period: f64::INFINITY,
            },
        ))
        .unwrap();
        ckt.add(Resistor::new("rd", d, gnd, 1e6).unwrap()).unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(20e-9), &SimOptions::default()).unwrap();
        assert!(wave.last("f1.p").unwrap() < -0.95);
    }

    #[test]
    fn one_volt_read_does_not_disturb() {
        for bit in [false, true] {
            let mut ckt = Circuit::new();
            let (d, g) = fefet_at(&mut ckt);
            let gnd = ckt.gnd();
            ckt.device_as_mut::<Fefet>("f1")
                .unwrap()
                .set_polarization(if bit { 1.0 } else { -1.0 });
            ckt.add(VoltageSource::dc("vg", g, gnd, 1.0)).unwrap();
            ckt.add(VoltageSource::dc("vd", d, gnd, 1.0)).unwrap();
            let wave =
                transient(&mut ckt, TransientSpec::to(100e-9), &SimOptions::default()).unwrap();
            let p = wave.last("f1.p").unwrap();
            let expect = if bit { 1.0 } else { -1.0 };
            // The logistic coercive distribution has a tail at 1 V, so a
            // sub-percent drift is physical; anything more is a disturb.
            assert!((p - expect).abs() < 0.01, "read disturb: p = {p}");
        }
    }

    #[test]
    fn stored_bit_separates_read_current() {
        // At V_G = 1 V the low-V_T state conducts strongly, the high-V_T
        // state is (nearly) off — the TCAM sensing contrast.
        let mut ckt = Circuit::new();
        let (_d, _g) = fefet_at(&mut ckt);
        let f = ckt.device_as::<Fefet>("f1").unwrap();
        let on = f.clone().with_bit(true);
        let off = f.clone().with_bit(false);
        let i_on = channel(&on.channel_params(), 1.0, 0.5, 0.0, 0.0).0;
        let i_off = channel(&off.channel_params(), 1.0, 0.5, 0.0, 0.0).0;
        assert!(
            i_on / i_off > 1e4,
            "on/off read contrast = {:.2e}",
            i_on / i_off
        );
    }
}
