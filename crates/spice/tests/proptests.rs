//! Property-style tests on the circuit engine: conservation laws and
//! analytic agreement on randomized linear circuits.
//!
//! Randomized with the in-tree [`SplitMix64`] generator (fixed seeds, exact
//! reproducibility) instead of an external property-testing crate, so the
//! suite builds with no registry access.

use tcam_numeric::rng::SplitMix64;
use tcam_spice::prelude::*;
use tcam_spice::units::format_si;

/// Random resistive dividers solve to the analytic node voltage.
#[test]
fn divider_matches_analytic() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..32 {
        let v = rng.uniform(0.1, 10.0);
        let r1 = rng.uniform(1.0, 1e6);
        let r2 = rng.uniform(1.0, 1e6);
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vin, gnd, v)).expect("adds");
        ckt.add(Resistor::new("r1", vin, out, r1).expect("valid"))
            .expect("adds");
        ckt.add(Resistor::new("r2", out, gnd, r2).expect("valid"))
            .expect("adds");
        let op = operating_point(&mut ckt, &SimOptions::default()).expect("solves");
        let expect = v * r2 / (r1 + r2);
        let got = op.voltage(&ckt, "out").expect("exists");
        assert!((got - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }
}

/// RC charging ends at the source level and the supply books ≈ C·V²
/// (half stored, half dissipated), independent of R and C.
#[test]
fn rc_energy_conservation() {
    let mut rng = SplitMix64::new(12);
    for _ in 0..8 {
        let r = rng.uniform(100.0, 100e3);
        let c = rng.uniform(0.1, 100.0) * 1e-12;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "v1",
            vin,
            gnd,
            Waveshape::step(0.0, 1.0, 0.0, tau / 100.0),
        ))
        .expect("adds");
        ckt.add(Resistor::new("r1", vin, out, r).expect("valid"))
            .expect("adds");
        ckt.add(Capacitor::new("c1", out, gnd, c).expect("valid"))
            .expect("adds");
        let wave = transient(
            &mut ckt,
            TransientSpec::to(12.0 * tau),
            &SimOptions::default(),
        )
        .expect("simulates");
        assert!((wave.last("v(out)").expect("recorded") - 1.0).abs() < 0.01);
        let e = ckt.total_source_energy();
        assert!((e - c).abs() / c < 0.08, "E = {e:.3e}, CV² = {c:.3e}");
    }
}

/// Units: format → parse round-trips within formatting precision.
#[test]
fn si_format_parse_roundtrip() {
    let mut rng = SplitMix64::new(13);
    for _ in 0..256 {
        let mantissa = rng.uniform(1.0, 999.0);
        let exp = rng.below(24) as i32 - 15; // −15..9
        let v = mantissa * 10f64.powi(exp);
        let s = format_si(v, "");
        let num: f64 = s
            .split(' ')
            .next()
            .expect("number")
            .parse()
            .expect("parses");
        let prefix = s.split(' ').nth(1).unwrap_or("");
        let mult = match prefix {
            "T" => 1e12,
            "G" => 1e9,
            "M" => 1e6,
            "k" => 1e3,
            "m" => 1e-3,
            "µ" => 1e-6,
            "n" => 1e-9,
            "p" => 1e-12,
            "f" => 1e-15,
            "a" => 1e-18,
            _ => 1.0,
        };
        let back = num * mult;
        assert!((back - v).abs() <= 6e-3 * v.abs(), "{v} -> '{s}' -> {back}");
    }
}

/// Pulse sources never leave the [v1, v2] envelope.
#[test]
fn pulse_bounded() {
    let mut rng = SplitMix64::new(14);
    for _ in 0..512 {
        let v1 = rng.uniform(-2.0, 2.0);
        let v2 = rng.uniform(-2.0, 2.0);
        let t = rng.uniform(0.0, 20e-9);
        let w = Waveshape::Pulse {
            v1,
            v2,
            delay: 1e-9,
            rise: 0.5e-9,
            fall: 0.5e-9,
            width: 3e-9,
            period: 8e-9,
        };
        let v = w.eval(t);
        let (lo, hi) = (v1.min(v2), v1.max(v2));
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}

/// Current divider: KCL at the output node for random conductances.
/// (Ranges keep node voltages in the engine's intended few-volt domain:
/// Newton damping advances 1 V per iteration, so a hundreds-of-volts
/// operating point would exhaust the iteration budget.)
#[test]
fn current_divider_kcl() {
    let mut rng = SplitMix64::new(15);
    for _ in 0..32 {
        let i = rng.uniform(0.01, 1.0) * 1e-3;
        let r1 = rng.uniform(10.0, 1e4);
        let r2 = rng.uniform(10.0, 1e4);
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(CurrentSource::dc("i1", gnd, out, i)).expect("adds");
        ckt.add(Resistor::new("r1", out, gnd, r1).expect("valid"))
            .expect("adds");
        ckt.add(Resistor::new("r2", out, gnd, r2).expect("valid"))
            .expect("adds");
        let op = operating_point(&mut ckt, &SimOptions::default()).expect("solves");
        let v = op.voltage(&ckt, "out").expect("exists");
        // The engine adds gmin (1 pS) on every node, so allow that bias.
        let g = 1.0 / r1 + 1.0 / r2;
        assert!((v - i / g).abs() < 1e-7 * (i / g));
    }
}
