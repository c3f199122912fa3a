//! Property-style tests on the compact device models' physical invariants.
//!
//! Randomized with the in-tree [`SplitMix64`] generator (fixed seeds) so the
//! suite builds with no registry access.

use tcam_devices::mosfet::{MosParams, Mosfet};
use tcam_devices::nem::calibrate;
use tcam_devices::params::{NemTargets, RramParams};
use tcam_devices::rram::Rram;
use tcam_numeric::rng::SplitMix64;
use tcam_spice::node::NodeId;

const ROUNDS: usize = 256;

fn nmos() -> Mosfet {
    Mosfet::new(
        "m",
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        MosParams::nmos_45lp(),
    )
}

/// I_D is monotone non-decreasing in V_GS at fixed V_DS.
#[test]
fn mosfet_monotone_in_vgs() {
    let mut rng = SplitMix64::new(21);
    let m = nmos();
    for _ in 0..ROUNDS {
        let vd = rng.uniform(0.05, 1.2);
        let vg = rng.uniform(0.0, 1.2);
        let dv = rng.uniform(0.001, 0.2);
        let lo = m.ids(vg, vd, 0.0, 0.0);
        let hi = m.ids(vg + dv, vd, 0.0, 0.0);
        assert!(hi >= lo - 1e-18);
    }
}

/// Exchanging drain and source negates the current exactly.
#[test]
fn mosfet_ds_antisymmetry() {
    let mut rng = SplitMix64::new(22);
    let m = nmos();
    for _ in 0..ROUNDS {
        let vg = rng.uniform(0.0, 1.2);
        let va = rng.uniform(0.0, 1.2);
        let vb = rng.uniform(0.0, 1.2);
        let fwd = m.ids(vg, va, vb, 0.0);
        let rev = m.ids(vg, vb, va, 0.0);
        assert!((fwd + rev).abs() <= 1e-9 * fwd.abs().max(rev.abs()) + 1e-18);
    }
}

/// Current at zero V_DS is zero (no spontaneous power).
#[test]
fn mosfet_zero_vds_zero_current() {
    let mut rng = SplitMix64::new(23);
    let m = nmos();
    for _ in 0..ROUNDS {
        let vg = rng.uniform(0.0, 1.2);
        let vs = rng.uniform(0.0, 0.8);
        let id = m.ids(vg, vs, vs, 0.0);
        assert!(id.abs() < 1e-15);
    }
}

/// RRAM resistance is bounded by [R_on, R_off] and monotone in state.
#[test]
fn rram_resistance_bounds() {
    let mut rng = SplitMix64::new(24);
    for _ in 0..ROUNDS {
        let s1 = rng.next_f64();
        let s2 = rng.next_f64();
        let p = RramParams::default();
        let mk = |s: f64| Rram::new("z", NodeId::GROUND, NodeId::GROUND, p).with_state(s);
        let (lo_s, hi_s) = (s1.min(s2), s1.max(s2));
        let r_lo_state = mk(lo_s).resistance();
        let r_hi_state = mk(hi_s).resistance();
        assert!(r_hi_state <= r_lo_state + 1e-6); // more filament = less R
        assert!(r_hi_state >= p.r_on - 1e-6);
        assert!(r_lo_state <= p.r_off + 1e-6);
    }
}

/// Relay calibration succeeds across a range of physically consistent
/// targets and reproduces V_PI/V_PO closed-form.
#[test]
fn relay_calibration_tracks_targets() {
    let mut rng = SplitMix64::new(25);
    for _ in 0..64 {
        let v_pi = rng.uniform(0.3, 0.8);
        let v_po_frac = rng.uniform(0.1, 0.8);
        let tau_ns = rng.uniform(1.0, 6.0);
        let targets = NemTargets {
            v_pi,
            v_po: v_po_frac * v_pi * 0.9,
            c_on: 20e-18,
            c_off: 15e-18,
            r_on: 1e3,
            tau_mech: tau_ns * 1e-9,
        };
        let beam = calibrate(&targets).expect("feasible targets");
        assert!((beam.v_pull_in() - targets.v_pi).abs() < 2e-3);
        assert!((beam.v_pull_out() - targets.v_po).abs() < 2e-3);
        assert!((beam.c_gb(0.0) - targets.c_off).abs() < 1e-20);
        assert!((beam.c_gb(beam.g_contact) - targets.c_on).abs() < 1e-20);
    }
}

/// The relay's quasi-static equilibrium exists below V_PI, not above,
/// and the capacitance stays inside [C_off, C_on].
#[test]
fn relay_equilibrium_and_capacitance() {
    let mut rng = SplitMix64::new(26);
    let beam = calibrate(&NemTargets::paper()).expect("paper targets");
    for _ in 0..ROUNDS {
        let v = rng.next_f64();
        match beam.equilibrium(v) {
            Some(x) => {
                assert!(v < beam.v_pull_in() + 1e-6);
                assert!((0.0..=beam.g0 / 3.0 + 1e-12).contains(&x));
                let c = beam.c_gb(x);
                assert!(c >= beam.c_gb(0.0) - 1e-21);
                assert!(c <= beam.c_gb(beam.g_contact) + 1e-21);
            }
            None => assert!(v >= beam.v_pull_in() - 1e-6),
        }
    }
}

/// The cached-refactorization solver path must reproduce the NEM-relay
/// search transient bit for bit — covering a strongly nonlinear, hysteretic
/// device where pivot magnitudes swing over decades during contact events.
#[test]
fn nem_relay_transient_bitwise_identical_with_cached_solver() {
    use tcam_devices::nem::NemRelay;
    use tcam_spice::prelude::*;

    let run = |reuse: bool| {
        let mut ckt = Circuit::new();
        let (d, s, g) = (ckt.node("d"), ckt.node("s"), ckt.node("g"));
        let gnd = ckt.gnd();
        ckt.add(NemRelay::new("n1", d, s, g, gnd, &NemTargets::paper()).expect("calibrates"))
            .expect("adds");
        // Gate pulse through pull-in and back out through pull-out.
        ckt.add(VoltageSource::new(
            "vg",
            g,
            gnd,
            Waveshape::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-9,
                rise: 2e-9,
                fall: 2e-9,
                width: 8e-9,
                period: f64::INFINITY,
            },
        ))
        .expect("adds");
        ckt.add(VoltageSource::dc("vd", d, gnd, 0.05))
            .expect("adds");
        ckt.add(Resistor::new("rs", s, gnd, 1e3).expect("valid"))
            .expect("adds");
        let opts = SimOptions {
            reuse_factorization: reuse,
            dt_max: 20e-12,
            lte_tol: 2e-4,
            ..SimOptions::default()
        };
        transient(&mut ckt, TransientSpec::to(20e-9), &opts).expect("simulates")
    };
    let cached = run(true);
    let fresh = run(false);
    assert_eq!(cached.len(), fresh.len());
    for (a, b) in cached.axis().iter().zip(fresh.axis()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for name in cached.signal_names() {
        let ta = cached.trace(name).expect("trace");
        let tb = fresh.trace(name).expect("trace");
        for (a, b) in ta.iter().zip(tb) {
            assert_eq!(a.to_bits(), b.to_bits(), "trace {name} diverged");
        }
    }
}
