//! Convergence torture netlists (DESIGN.md §8): circuits built to break
//! plain damped Newton so the recovery ladder has something real to rescue.
//!
//! The transient engine's dt shrink hides most Newton trouble (the
//! capacitor companion conductance `C/dt` regularizes the system as dt
//! falls), so the genuinely dt-proof failure here is the *cold-start
//! operating point at full overdrive*: from an all-zeros guess the EKV
//! exponential must be traversed in one solve, which a starved iteration
//! budget cannot do — and shunting with gmin does not tame the traversal
//! either. Source stepping does: each λ stage moves the bias a little and
//! starts warm. Each case shows the ladder converging to a physically sane
//! waveform, checked with `.meas`-style assertions, and the run's
//! `SolverTrace` counters showing the rungs that the plain solve's failure
//! engaged.

use tcam_devices::fefet::Fefet;
use tcam_devices::mosfet::{MosParams, Mosfet};
use tcam_devices::nem::NemRelay;
use tcam_devices::params::{FefetParams, NemTargets};
use tcam_spice::prelude::*;

/// A deliberately starved iteration budget: enough for a warm-started
/// ladder stage, not enough for a cold Newton solve through the
/// exponential at full drive.
fn tight_options() -> SimOptions {
    SimOptions {
        max_nr_iters: 4,
        ..SimOptions::default()
    }
}

/// Abrupt NEM pull-in at high drive: a pass transistor overdriven at
/// 3.5 V charges the relay gate, so the OP must resolve the EKV source
/// follower at full overdrive from a cold start. The rail idles at 0.4 V
/// (below the 0.53 V pull-in) and steps to 2.5 V at 0.5 ns, slamming the
/// beam into contact mid-transient (R_ds drops ~10 decades at touchdown).
fn relay_overdrive_circuit() -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = ckt.gnd();
    let (rail, vg, g) = (ckt.node("rail"), ckt.node("vg"), ckt.node("g"));
    let (d, s, vdd) = (ckt.node("d"), ckt.node("s"), ckt.node("vdd"));
    ckt.add(VoltageSource::new(
        "vrail",
        rail,
        gnd,
        Waveshape::step(0.4, 2.5, 0.5e-9, 50e-12),
    ))
    .unwrap();
    ckt.add(Mosfet::new(
        "mpass",
        rail,
        vg,
        g,
        gnd,
        MosParams::nmos_45lp(),
    ))
    .unwrap();
    ckt.add(Capacitor::new("cg", g, gnd, 2e-15).unwrap())
        .unwrap();
    ckt.add(VoltageSource::dc("vgs", vg, gnd, 3.5)).unwrap();
    ckt.add(NemRelay::new("n1", d, s, g, gnd, &NemTargets::paper()).expect("calibrates"))
        .expect("adds");
    ckt.add(VoltageSource::dc("vdd", vdd, gnd, 1.0)).unwrap();
    ckt.add(Resistor::new("rd", vdd, d, 10e3).unwrap()).unwrap();
    ckt.add(Resistor::new("rs", s, gnd, 10e3).unwrap()).unwrap();
    ckt.add(Capacitor::new("cs", s, gnd, 1e-15).unwrap())
        .unwrap();
    ckt
}

#[test]
fn relay_overdrive_recovers_with_ladder() {
    let mut ckt = relay_overdrive_circuit();
    let wave = transient(&mut ckt, TransientSpec::to(6e-9), &tight_options())
        .expect("source stepping rescues the overdriven OP");

    // Physically sane: the relay pulls in and the 10k/10k divider sets
    // v(s) ≈ 0.5 V (contact resistance ≪ 10 kΩ); before contact the
    // source floats near 0.
    let v_after = wave.last("v(s)").unwrap();
    assert!(
        (v_after - 0.5).abs() < 0.05,
        "v(s) post-contact = {v_after}"
    );
    assert_eq!(wave.last("n1.contact").unwrap(), 1.0);
    // Before the rail step the beam is released and the source floats.
    let v_idle = wave.sample("v(s)", 0.4e-9).unwrap();
    assert!(v_idle.abs() < 0.05, "v(s) pre-step = {v_idle}");
    // Pull-in lands after the 0.5 ns rail edge by a mechanically plausible
    // delay (sub-ns beam flight, well inside the window).
    let t_on = cross_time(&wave, "v(s)", 0.25, Edge::Rising, 0.0).unwrap();
    assert!(t_on > 0.6e-9 && t_on < 6e-9, "t_on = {t_on:.3e}");

    // The ladder actually did the rescue, and the trace shows which rung.
    let trace = wave.solver_trace().expect("trace recorded");
    assert!(
        trace.source_step_events > 0,
        "source stepping engaged: {trace:?}"
    );
    assert!(
        trace.gmin_events > 0,
        "gmin rung was tried first: {trace:?}"
    );
    assert!(wave.meas_solver("source_step_events").unwrap() >= 1.0);
}

/// Stiff FeFET write: the OP must resolve the channel at V_G = +4 V cold
/// (which also sets the polarization positive), then the gate swings to
/// −4 V at 2 ns and the transient must track the reverse write through
/// the ferroelectric switching dynamics (τ_switch = 2 ns).
fn fefet_overdrive_circuit() -> Circuit {
    let mut ckt = Circuit::new();
    let (d, g) = (ckt.node("d"), ckt.node("g"));
    let gnd = ckt.gnd();
    ckt.add(
        Fefet::new(
            "f1",
            d,
            g,
            gnd,
            gnd,
            MosParams::nmos_45lp(),
            FefetParams::default(),
        )
        .with_bit(false),
    )
    .unwrap();
    let vdd = ckt.node("vdd");
    ckt.add(VoltageSource::dc("vdd", vdd, gnd, 1.0)).unwrap();
    ckt.add(Resistor::new("rd", vdd, d, 100e3).unwrap())
        .unwrap();
    ckt.add(Capacitor::new("cd", d, gnd, 1e-15).unwrap())
        .unwrap();
    ckt.add(VoltageSource::new(
        "vg",
        g,
        gnd,
        Waveshape::step(4.0, -4.0, 2e-9, 50e-12),
    ))
    .unwrap();
    ckt
}

#[test]
fn fefet_write_recovers_with_ladder() {
    let mut ckt = fefet_overdrive_circuit();
    let wave = transient(&mut ckt, TransientSpec::to(10e-9), &tight_options())
        .expect("ladder rescues the stiff write");

    // The +4 V OP leaves the polarization positive; the −4 V swing then
    // writes it back negative, raising the threshold by the Vth window.
    let p_start = wave.sample("f1.p", 0.0).unwrap();
    assert!(p_start > 0.99, "OP sets p positive: {p_start}");
    let p_end = wave.last("f1.p").unwrap();
    assert!(p_end < -0.9, "reverse write completed: p = {p_end}");
    let vth_end = wave.last("f1.vth").unwrap();
    let expected_vth = MosParams::nmos_45lp().vth0 + FefetParams::default().vth_window / 2.0;
    assert!(
        (vth_end - expected_vth).abs() < 0.1,
        "vth = {vth_end}, expected {expected_vth}"
    );
    // Switching happens on the ferroelectric timescale after the 2 ns
    // edge, not instantly.
    let t_half = cross_time(&wave, "f1.p", 0.0, Edge::Falling, 0.0).unwrap();
    assert!(
        t_half > 2.2e-9 && t_half < 8e-9,
        "p zero-crossing at {t_half:.3e}"
    );

    let trace = wave.solver_trace().expect("trace recorded");
    assert!(
        trace.source_step_events > 0,
        "source stepping engaged: {trace:?}"
    );
}

/// Floating-node OP: a node reachable only through a capacitor has an
/// all-zero MNA row at DC when gmin is disabled. Plain Newton must report
/// a unified `NonConvergence` naming the offending unknown (not a raw
/// numeric error), and the gmin ladder must still deliver an OP by
/// falling back to its tightest converged stage.
#[test]
fn floating_node_op_names_unknown_and_gmin_ladder_rescues() {
    let build = || {
        let mut ckt = Circuit::new();
        let (a, fl) = (ckt.node("a"), ckt.node("float"));
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).unwrap();
        ckt.add(Capacitor::new("c1", a, fl, 1e-15).unwrap())
            .unwrap();
        ckt
    };
    let opts = SimOptions {
        gmin: 0.0,
        ..SimOptions::default()
    };

    // The gmin ladder's intermediate stages converge (they shunt the
    // floating node), so the OP succeeds via the ladder's fallback even
    // though the final gmin=0 refinement is singular.
    let mut ckt = build();
    let op = operating_point(&mut ckt, &opts).expect("gmin ladder rescues");
    assert!(op.gmin_steps > 0, "{op:?}");
    let vf = op.voltage(&ckt, "float").unwrap();
    assert!(vf.is_finite());

    // With the gmin ramp disabled (start already at the target) source
    // stepping cannot help either — the row is empty at any drive — and the
    // failure surfaces as NonConvergence carrying the singular-matrix
    // cause and the floating unknown's name.
    let no_ramp = SimOptions {
        gmin: 0.0,
        gmin_step_start: 0.0,
        gmin_step_decades: 0,
        ..SimOptions::default()
    };
    let mut ckt = build();
    let err = operating_point(&mut ckt, &no_ramp).unwrap_err();
    match err {
        SpiceError::NonConvergence {
            worst_unknown,
            cause,
            ..
        } => {
            assert_eq!(
                worst_unknown.as_deref(),
                Some("v(float)"),
                "cause {cause:?}"
            );
            assert!(cause.is_some(), "singular cause attached");
        }
        other => panic!("expected unified NonConvergence, got {other:?}"),
    }
}
