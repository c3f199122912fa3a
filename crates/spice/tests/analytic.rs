//! Engine accuracy against closed-form circuit theory: second-order RLC
//! response, superposition and Thévenin equivalence.

use tcam_spice::prelude::*;

/// Builds a series RLC driven by a voltage step; returns the capacitor
/// voltage waveform.
fn rlc_step(r: f64, l: f64, c: f64, t_stop: f64, opts: &SimOptions) -> (Waveform, Circuit) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("vin");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    let gnd = ckt.gnd();
    ckt.add(VoltageSource::new(
        "v1",
        vin,
        gnd,
        Waveshape::step(0.0, 1.0, 0.0, t_stop / 2000.0),
    ))
    .expect("adds");
    ckt.add(Resistor::new("r1", vin, mid, r).expect("valid"))
        .expect("adds");
    ckt.add(Inductor::new("l1", mid, out, l).expect("valid"))
        .expect("adds");
    ckt.add(Capacitor::new("c1", out, gnd, c).expect("valid"))
        .expect("adds");
    let wave = transient(&mut ckt, TransientSpec::to(t_stop), opts).expect("simulates");
    (wave, ckt)
}

#[test]
fn underdamped_rlc_rings_at_the_analytic_frequency() {
    // L = 1 µH, C = 1 nF → ω0 = 1/√(LC) ≈ 31.6 Mrad/s, f0 ≈ 5.03 MHz.
    // R = 10 Ω → ζ = (R/2)√(C/L) ≈ 0.158: clearly underdamped.
    let (l, c, r) = (1e-6, 1e-9, 10.0);
    let opts = SimOptions {
        lte_tol: 1e-4,
        ..SimOptions::default()
    };
    let (wave, _) = rlc_step(r, l, c, 3e-6, &opts);

    // First overshoot peak of a step response: v_peak = 1 + e^{−ζπ/√(1−ζ²)}.
    let zeta = (r / 2.0) * (c / l).sqrt();
    let v_peak_expect = 1.0 + (-zeta * std::f64::consts::PI / (1.0 - zeta * zeta).sqrt()).exp();
    let (_, v_max) = min_max(&wave, "v(out)", 0.0, 3e-6).expect("recorded");
    assert!(
        (v_max - v_peak_expect).abs() < 0.02,
        "peak {v_max:.4} vs analytic {v_peak_expect:.4}"
    );

    // Peak time t_p = π/(ω0·√(1−ζ²)).
    let w0 = 1.0 / (l * c).sqrt();
    let t_peak_expect = std::f64::consts::PI / (w0 * (1.0 - zeta * zeta).sqrt());
    let t_cross = cross_time(&wave, "v(out)", 1.0, Edge::Rising, 0.0).expect("crosses");
    // The first upward crossing of the final value happens at t_p/… — use
    // the peak instead: find it by scanning.
    let ts = wave.axis();
    let vs = wave.trace("v(out)").expect("recorded");
    let (mut t_peak, mut v_peak) = (0.0, 0.0);
    for (t, v) in ts.iter().zip(vs) {
        if *v > v_peak {
            v_peak = *v;
            t_peak = *t;
        }
    }
    assert!(
        (t_peak - t_peak_expect).abs() / t_peak_expect < 0.03,
        "t_peak {t_peak:.3e} vs analytic {t_peak_expect:.3e}"
    );
    assert!(t_cross < t_peak);
}

#[test]
fn critically_damped_rlc_does_not_overshoot() {
    // ζ = 1: R = 2√(L/C) = 63.25 Ω for L = 1 µH, C = 1 nF.
    let (l, c): (f64, f64) = (1e-6, 1e-9);
    let r = 2.0 * (l / c).sqrt();
    let (wave, _) = rlc_step(r, l, c, 5e-6, &SimOptions::default());
    let (_, v_max) = min_max(&wave, "v(out)", 0.0, 5e-6).expect("recorded");
    assert!(v_max < 1.02, "overshoot at critical damping: {v_max:.4}");
    assert!((wave.last("v(out)").expect("recorded") - 1.0).abs() < 0.01);
}

#[test]
fn superposition_of_two_sources() {
    // Node driven by two Thévenin branches: V1 = 1 V via 1 kΩ and
    // V2 = −0.5 V via 2 kΩ → v = (1/1k − 0.5/2k)/(1/1k + 1/2k) = 0.5 V.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let out = ckt.node("out");
    let gnd = ckt.gnd();
    ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).expect("adds");
    ckt.add(VoltageSource::dc("v2", b, gnd, -0.5))
        .expect("adds");
    ckt.add(Resistor::new("r1", a, out, 1e3).expect("valid"))
        .expect("adds");
    ckt.add(Resistor::new("r2", b, out, 2e3).expect("valid"))
        .expect("adds");
    let op = operating_point(&mut ckt, &SimOptions::default()).expect("solves");
    let v = op.voltage(&ckt, "out").expect("exists");
    assert!((v - 0.5).abs() < 1e-7, "v = {v}");
}

#[test]
fn hard_operating_point_uses_gmin_stepping() {
    // A floating capacitive node chain with only subthreshold-ish
    // conductances: the OP still solves (gmin ladder reports stages only
    // when the direct solve fails; either way the answer must be sane).
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let gnd = ckt.gnd();
    ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).expect("adds");
    ckt.add(Resistor::new("r1", a, b, 1e12).expect("valid"))
        .expect("adds");
    ckt.add(Capacitor::new("c1", b, gnd, 1e-15).expect("valid"))
        .expect("adds");
    let op = operating_point(&mut ckt, &SimOptions::default()).expect("solves");
    let v = op.voltage(&ckt, "b").expect("exists");
    // 1 TΩ against gmin (1 pS ≡ 1 TΩ): divider splits the volt.
    assert!((v - 0.5).abs() < 0.01, "v = {v}");
}
