//! A compact MOSFET model in the EKV style.
//!
//! The drain current uses the symmetric forward/reverse interpolation
//! `I_D = I_S · (F(v_f) − F(v_r)) · (1 + λ|V_DS|)` with
//! `F(u) = ln²(1 + e^{u/2})`, which is smooth from deep subthreshold to
//! strong inversion — both ends matter here: ON-resistance sets TCAM search
//! delay, OFF-leakage sets the dynamic cell's retention time.
//!
//! Parameters approximate a 45 nm low-power (PTM-LP-like) process; see
//! [`MosParams::nmos_45lp`]/[`MosParams::pmos_45lp`].
//!
//! # The Jacobian
//!
//! [`channel`] returns the current and its four partials from one pass:
//! `F′(u) = softplus(u/2)·σ(u/2)` falls out of the `exp` that `F` already
//! takes (two `exp`, two `ln_1p`, two `sqrt` per transistor per Newton
//! iteration), and it differentiates exactly the current that is stamped.
//! On each of the model's three kinks it is a valid one-sided derivative:
//! at `V_DS = 0` the `|V_DS|` term multiplies `F_f − F_r = 0`; where
//! `V_SB = V_DB` swaps the terminal that carries the body effect, that term
//! multiplies `F′_f − F′_r = 0`; below the body clamp (`V_XB < −0.4φ`) the
//! threshold no longer moves. The central difference it replaced is the
//! oracle of `tests::analytic_jacobian_matches_central_difference`.

use crate::companion::CompanionCap;
use crate::params::VT_300K;
use tcam_spice::device::{Device, EvalCtx, Stamps};
use tcam_spice::node::NodeId;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// MOSFET model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Zero-bias threshold voltage magnitude, volts.
    pub vth0: f64,
    /// Transconductance parameter `µ·Cox`, A/V².
    pub kp: f64,
    /// Subthreshold slope factor (n ≈ 1 + Cd/Cox).
    pub n: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// Body-effect coefficient, √V.
    pub gamma: f64,
    /// Surface potential `2φ_F`, volts.
    pub phi: f64,
    /// Channel width, metres.
    pub w: f64,
    /// Channel length, metres.
    pub l: f64,
    /// Gate–source capacitance (overlap + channel share), farads.
    pub cgs: f64,
    /// Gate–drain capacitance, farads.
    pub cgd: f64,
    /// Gate–body capacitance, farads.
    pub cgb: f64,
    /// Drain junction capacitance, farads.
    pub cdb: f64,
    /// Source junction capacitance, farads.
    pub csb: f64,
}

impl MosParams {
    /// Minimum-size 45 nm low-power NMOS (W = 90 nm, L = 45 nm), calibrated
    /// for ~29 µA on-current at V_GS = 1 V and sub-femtoamp off-leakage —
    /// the LP corner the paper's retention figure implies.
    #[must_use]
    pub fn nmos_45lp() -> Self {
        Self {
            polarity: Polarity::Nmos,
            vth0: 0.70,
            kp: 4.0e-4,
            n: 1.25,
            lambda: 0.15,
            gamma: 0.35,
            phi: 0.85,
            w: 90e-9,
            l: 45e-9,
            cgs: 0.040e-15,
            cgd: 0.040e-15,
            cgb: 0.070e-15,
            cdb: 0.080e-15,
            csb: 0.080e-15,
        }
    }

    /// Minimum-size 45 nm low-power PMOS (W = 135 nm, L = 45 nm).
    #[must_use]
    pub fn pmos_45lp() -> Self {
        Self {
            polarity: Polarity::Pmos,
            vth0: 0.70,
            kp: 2.0e-4,
            n: 1.30,
            lambda: 0.18,
            gamma: 0.30,
            phi: 0.85,
            w: 135e-9,
            l: 45e-9,
            cgs: 0.055e-15,
            cgd: 0.055e-15,
            cgb: 0.090e-15,
            cdb: 0.110e-15,
            csb: 0.110e-15,
        }
    }

    /// Scales the channel width (and width-proportional capacitances) by
    /// `factor`.
    #[must_use]
    pub fn scaled_width(mut self, factor: f64) -> Self {
        self.w *= factor;
        self.cgs *= factor;
        self.cgd *= factor;
        self.cgb *= factor;
        self.cdb *= factor;
        self.csb *= factor;
        self
    }

    /// W/L ratio.
    #[must_use]
    pub fn w_over_l(&self) -> f64 {
        self.w / self.l
    }
}

/// `ln(1 + e^x)` and its derivative, the logistic `σ(x)`, from one `exp`.
fn softplus(x: f64) -> (f64, f64) {
    if x > 40.0 {
        (x, 1.0)
    } else if x < -40.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        (e.ln_1p(), e / (1.0 + e))
    }
}

/// The channel model, body-referenced EKV with body-effect Vth shift and
/// CLM: the drain current (D → S) and its partials `[gm, gd, gs, gb]` with
/// respect to the gate, drain, source and body voltages. The one
/// implementation of both (see the module docs for the closed form).
#[must_use]
pub fn channel(p: &MosParams, vg: f64, vd: f64, vs: f64, vb: f64) -> (f64, [f64; 4]) {
    // I_p(v) = −I_n(−v): the NMOS form at mirrored biases; the current
    // flips back, its partials do not.
    let mirror = match p.polarity {
        Polarity::Nmos => 1.0,
        Polarity::Pmos => -1.0,
    };
    let vgb = mirror * (vg - vb);
    let vsb = mirror * (vs - vb);
    let vdb = mirror * (vd - vb);
    // Body effect referenced to the *lower* channel terminal so the model
    // stays drain/source symmetric (clamped so the sqrt stays real under
    // forward body bias).
    let vxb = vsb.min(vdb);
    let clamp = -0.4 * p.phi;
    let root = (p.phi + vxb.max(clamp)).sqrt();
    let vth = p.vth0 + p.gamma * (root - p.phi.sqrt());
    let vp = (vgb - vth) / p.n;
    let i_s = 2.0 * p.n * p.kp * p.w_over_l() * VT_300K * VT_300K;
    // F = softplus² and F′ = softplus·σ, forward (source) and reverse (drain).
    let (sp_f, sg_f) = softplus((vp - vsb) / VT_300K * 0.5);
    let (sp_r, sg_r) = softplus((vp - vdb) / VT_300K * 0.5);
    let f = sp_f * sp_f - sp_r * sp_r;
    let (df_f, df_r) = (sp_f * sg_f, sp_r * sg_r);
    let vds = mirror * (vd - vs);
    let clm = 1.0 + p.lambda * vds.abs();

    let k = i_s * clm / VT_300K;
    let gm = k * (df_f - df_r) / p.n;
    // ∂vth/∂vxb is zero below the clamp; the lower terminal carries it.
    let body = if vxb > clamp {
        -gm * p.gamma / (2.0 * root)
    } else {
        0.0
    };
    let (body_d, body_s) = if vdb < vsb { (body, 0.0) } else { (0.0, body) };
    let g_clm = i_s * f * p.lambda * vds.signum();
    let gd = k * df_r + body_d + g_clm;
    let gs = -k * df_f + body_s - g_clm;
    // The current depends on terminal differences only.
    (mirror * i_s * f * clm, [gm, gd, gs, -(gm + gd + gs)])
}

/// The ends of a transistor's five terminal capacitors, in stamping order
/// (C_gs, C_gd, C_gb, C_db, C_sb), as indices into `[d, g, s, b]`.
const CAP_ENDS: [(usize, usize); 5] = [(1, 2), (1, 0), (1, 3), (0, 3), (2, 3)];

/// The capacitors of `CAP_ENDS` for a transistor with parameters `p`.
pub(crate) fn terminal_caps(p: &MosParams) -> [CompanionCap; 5] {
    [p.cgs, p.cgd, p.cgb, p.cdb, p.csb].map(CompanionCap::new)
}

/// A transistor's whole load — the linearized channel current and the five
/// terminal capacitors — for terminals `[d, g, s, b]`. Shared with the
/// FeFET, whose threshold moves with its polarization.
pub(crate) fn load_transistor(
    ctx: &EvalCtx<'_>,
    stamps: &mut Stamps<'_>,
    nodes: [NodeId; 4],
    p: &MosParams,
    caps: &[CompanionCap; 5],
) {
    let [d, g, s, b] = nodes;
    let (vg, vd, vs, vb) = (ctx.v(g), ctx.v(d), ctx.v(s), ctx.v(b));
    let (id, [gm, gd, gs, gb]) = channel(p, vg, vd, vs, vb);
    // I_D flows D → S. Linearize against each terminal voltage
    // (ground-referenced VCCS entries).
    stamps.transconductance(d, s, g, NodeId::GROUND, gm);
    stamps.transconductance(d, s, d, NodeId::GROUND, gd);
    stamps.transconductance(d, s, s, NodeId::GROUND, gs);
    stamps.transconductance(d, s, b, NodeId::GROUND, gb);
    let i_eq = id - gm * vg - gd * vd - gs * vs - gb * vb;
    stamps.current(d, s, i_eq);
    for (cap, (i, j)) in caps.iter().zip(CAP_ENDS) {
        cap.load(ctx, stamps, nodes[i], nodes[j]);
    }
}

/// A four-terminal MOSFET (drain, gate, source, body).
///
/// It exposes no probe: the drain current of a recorded point is
/// [`Mosfet::ids`] at the four recorded node voltages.
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    /// Terminals `[d, g, s, b]`.
    nodes: [NodeId; 4],
    params: MosParams,
    caps: [CompanionCap; 5],
}

impl Mosfet {
    /// Creates a MOSFET with the given terminals and parameters.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosParams,
    ) -> Self {
        Self {
            name: name.into(),
            nodes: [d, g, s, b],
            params,
            caps: terminal_caps(&params),
        }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    /// Analytic drain current for terminal voltages (positive = current
    /// into the drain for NMOS, out of the drain for PMOS mirrored).
    #[must_use]
    pub fn ids(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> f64 {
        channel(&self.params, vg, vd, vs, vb).0
    }

    /// Effective small-signal on-resistance at the given bias (numeric
    /// derivative dV_DS/dI_D); used by tests and sizing helpers.
    #[must_use]
    pub fn r_on(&self, vg: f64, vds: f64) -> f64 {
        let h = 1e-4;
        let i1 = self.ids(vg, vds + h, 0.0, 0.0);
        let i0 = self.ids(vg, vds - h, 0.0, 0.0);
        2.0 * h / (i1 - i0)
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.nodes.to_vec()
    }

    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        load_transistor(ctx, stamps, self.nodes, &self.params, &self.caps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_spice::prelude::*;

    fn mosfet(params: MosParams) -> Mosfet {
        let gnd = NodeId::GROUND;
        Mosfet::new("m1", gnd, gnd, gnd, gnd, params)
    }

    fn nmos() -> Mosfet {
        mosfet(MosParams::nmos_45lp())
    }

    #[test]
    fn on_current_in_expected_range() {
        let m = nmos();
        let id = m.ids(1.0, 1.0, 0.0, 0.0);
        assert!(id > 15e-6 && id < 60e-6, "Id(sat) = {id:.3e}");
    }

    #[test]
    fn off_leakage_subfemtoamp() {
        let m = nmos();
        let leak = m.ids(0.0, 0.5, 0.0, 0.0);
        assert!(leak > 0.0 && leak < 2e-15, "Ioff = {leak:.3e}");
        assert!(leak > 1e-17, "leakage unrealistically low: {leak:.3e}");
    }

    #[test]
    fn triode_resistance_few_kilohm() {
        let m = nmos();
        let r = m.r_on(1.0, 0.05);
        assert!(r > 2e3 && r < 10e3, "Ron = {r:.3e}");
    }

    #[test]
    fn current_is_smooth_and_monotone_in_vgs() {
        let m = nmos();
        let mut prev = 0.0;
        for i in 0..=100 {
            let vg = i as f64 * 0.012;
            let id = m.ids(vg, 0.8, 0.0, 0.0);
            assert!(id >= prev, "non-monotone at vg = {vg}");
            prev = id;
        }
    }

    #[test]
    fn symmetric_in_drain_source() {
        let m = nmos();
        let fwd = m.ids(1.0, 0.6, 0.2, 0.0);
        let rev = m.ids(1.0, 0.2, 0.6, 0.0);
        assert!((fwd + rev).abs() < 1e-9 * fwd.abs().max(rev.abs()) + 1e-12);
    }

    #[test]
    fn body_effect_raises_vth() {
        let m = nmos();
        let id_no_bias = m.ids(0.8, 0.8, 0.0, 0.0);
        let id_reverse_body = m.ids(0.8, 0.8, 0.0, -0.5);
        assert!(id_reverse_body < id_no_bias);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = Mosfet::new(
            "mp",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            MosParams::pmos_45lp(),
        );
        // PMOS with source at 1 V, gate at 0, drain at 0: strongly on,
        // current flows source→drain, i.e. ids (D→S) negative.
        let id = p.ids(0.0, 0.0, 1.0, 1.0);
        assert!(id < -5e-6, "PMOS on-current = {id:.3e}");
        // Gate high: off.
        let off = p.ids(1.0, 0.0, 1.0, 1.0);
        assert!(off.abs() < 1e-14);
    }

    #[test]
    fn scaled_width_scales_current_and_caps() {
        let p = MosParams::nmos_45lp().scaled_width(2.0);
        let m2 = Mosfet::new(
            "m2",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            p,
        );
        let m1 = nmos();
        let r = m2.ids(1.0, 1.0, 0.0, 0.0) / m1.ids(1.0, 1.0, 0.0, 0.0);
        assert!((r - 2.0).abs() < 1e-9);
        assert!((p.cgs - 2.0 * MosParams::nmos_45lp().cgs).abs() < 1e-24);
    }

    const H: f64 = 1e-6;

    /// The Jacobian `Mosfet::load` stamped before [`channel`] had a closed
    /// form, verbatim: central finite differences of `ids`.
    fn central_difference(m: &Mosfet, [vg, vd, vs, vb]: [f64; 4]) -> [f64; 4] {
        let h = H;
        let gm = (m.ids(vg + h, vd, vs, vb) - m.ids(vg - h, vd, vs, vb)) / (2.0 * h);
        let gd = (m.ids(vg, vd + h, vs, vb) - m.ids(vg, vd - h, vs, vb)) / (2.0 * h);
        let gs = (m.ids(vg, vd, vs + h, vb) - m.ids(vg, vd, vs - h, vb)) / (2.0 * h);
        let gb = (m.ids(vg, vd, vs, vb + h) - m.ids(vg, vd, vs, vb - h)) / (2.0 * h);
        [gm, gd, gs, gb]
    }

    /// `(backward, forward)` one-sided differences of `ids` along terminal
    /// `k`. First-order, so the step is shorter than the oracle's: at `H`
    /// their own truncation error, `h·f″/2 ≈ h/(2nV_T)·f′`, is 1.6e-5 of the
    /// partial — above the tolerance they are held to.
    fn one_sided(m: &Mosfet, v: [f64; 4], k: usize) -> (f64, f64) {
        let h = 1e-8;
        let at = |dv: f64| {
            let mut w = v;
            w[k] += dv;
            m.ids(w[0], w[1], w[2], w[3])
        };
        ((at(0.0) - at(-h)) / h, (at(h) - at(0.0)) / h)
    }

    fn largest(g: &[f64]) -> f64 {
        g.iter().fold(0.0, |m, x| x.abs().max(m))
    }

    #[test]
    fn analytic_jacobian_matches_central_difference() {
        let eval = |m: &Mosfet, [vg, vd, vs, vb]: [f64; 4]| {
            let (id, g) = channel(m.params(), vg, vd, vs, vb);
            // One implementation, not two.
            assert_eq!(m.ids(vg, vd, vs, vb).to_bits(), id.to_bits());
            // Translation invariance.
            assert!(g.iter().sum::<f64>().abs() <= 1e-12 * largest(&g), "{g:?}");
            (id, g)
        };
        for (params, sign) in [
            (MosParams::nmos_45lp(), 1.0),
            (MosParams::pmos_45lp(), -1.0),
        ] {
            let m = mosfet(params);
            let as_nmos = mosfet(MosParams {
                polarity: Polarity::Nmos,
                ..params
            });
            let clamp = -0.4 * params.phi;

            // Away from the kinks: the closed form against the oracle. The
            // ranges are the NMOS's; the PMOS sees them negated.
            let mut rng = tcam_numeric::rng::SplitMix64::new(20);
            let mut compared = 0;
            for _ in 0..25_000 {
                let n = [
                    rng.uniform(-0.5, 4.5), // the FeFET's write reaches x > 40
                    rng.uniform(-0.3, 1.3),
                    rng.uniform(-0.3, 1.3),
                    rng.uniform(-0.6, 0.6), // crosses the −0.4φ body clamp
                ];
                let v = n.map(|x| sign * x);
                let (id, g) = eval(&m, v);
                // I_p(v) = −I_n(−v): same partials, no sign change.
                assert_eq!((sign * id, g), eval(&as_nmos, n));
                let vxb = n[1].min(n[2]) - n[3];
                if (n[1] - n[2]).abs() < 2.0 * H || (vxb - clamp).abs() < 2.0 * H {
                    continue;
                }
                let oracle = central_difference(&m, v);
                for k in 0..4 {
                    assert!(
                        (g[k] - oracle[k]).abs() <= 1e-6 * largest(&oracle),
                        "partial {k} at {v:?}: {g:?} against {oracle:?}"
                    );
                }
                compared += 1;
            }
            assert!(compared >= 20_000, "{compared}");

            // Exactly on the kinks every partial lies between the two
            // one-sided differences. `vd == vs` is both the |vds| kink and
            // the one where the body effect changes terminal; `vxb` sits at
            // and one ulp either side of the body clamp.
            let mut kinks = Vec::new();
            for vg in [0.2, 0.7, 1.0, 4.0] {
                for vb in [-0.5, 0.0, 0.5] {
                    kinks.push([vg, 0.4, 0.4, vb]);
                }
                for vs in [clamp.next_down(), clamp, clamp.next_up()] {
                    kinks.push([vg, 0.5, vs, 0.0]);
                }
            }
            for n in kinks {
                let v = n.map(|x| sign * x);
                let (_, g) = eval(&m, v);
                let sides: Vec<_> = (0..4).map(|k| one_sided(&m, v, k)).collect();
                let tol = 1e-6
                    * sides
                        .iter()
                        .fold(0.0, |t, (b, f)| b.abs().max(f.abs()).max(t));
                for (k, (b, f)) in sides.into_iter().enumerate() {
                    assert!(
                        b.min(f) - tol <= g[k] && g[k] <= b.max(f) + tol,
                        "partial {k} at {v:?}: {} outside [{b}, {f}]",
                        g[k]
                    );
                }
            }
        }
    }

    #[test]
    fn common_source_inverter_op() {
        // NMOS with 100 kΩ load: gate high → output pulled low.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let gate = ckt.node("gate");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vdd", vdd, gnd, 1.0)).unwrap();
        ckt.add(VoltageSource::dc("vg", gate, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("rl", vdd, out, 100e3).unwrap())
            .unwrap();
        ckt.add(Mosfet::new(
            "m1",
            out,
            gate,
            gnd,
            gnd,
            MosParams::nmos_45lp(),
        ))
        .unwrap();
        let op = operating_point(&mut ckt, &SimOptions::default()).unwrap();
        let vout = op.voltage(&ckt, "out").unwrap();
        assert!(vout < 0.2, "inverter output = {vout}");

        // Gate low → output high.
        ckt.device_as_mut::<VoltageSource>("vg")
            .unwrap()
            .set_shape(Waveshape::Dc(0.0));
        let op = operating_point(&mut ckt, &SimOptions::default()).unwrap();
        let vout = op.voltage(&ckt, "out").unwrap();
        assert!(vout > 0.95, "inverter output = {vout}");
    }

    #[test]
    fn pass_transistor_transient_settles() {
        // NMOS pass gate charging a capacitor: output reaches VDD − Vth-ish.
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let gate = ckt.node("gate");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("vsrc", src, gnd, 1.0)).unwrap();
        ckt.add(VoltageSource::new(
            "vg",
            gate,
            gnd,
            Waveshape::step(0.0, 1.0, 1e-9, 0.1e-9),
        ))
        .unwrap();
        ckt.add(Mosfet::new(
            "m1",
            src,
            gate,
            out,
            gnd,
            MosParams::nmos_45lp(),
        ))
        .unwrap();
        ckt.add(Capacitor::new("cl", out, gnd, 5e-15).unwrap())
            .unwrap();
        let wave = transient(&mut ckt, TransientSpec::to(40e-9), &SimOptions::default()).unwrap();
        let v_end = wave.last("v(out)").unwrap();
        // Vth drop: final voltage well below VDD but above 0.
        assert!(v_end > 0.1 && v_end < 0.5, "pass-gate output = {v_end}");
    }
}
