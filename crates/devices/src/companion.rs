//! A reusable linear-capacitor companion model for embedding inside
//! composite devices (MOSFET terminal caps, the NEM relay's gate–body
//! capacitance, the FeFET gate stack).
//!
//! Stamps what [`tcam_spice::element::Capacitor`] stamps, as a plain
//! `load` method so a device can own several instances and vary their
//! capacitance between steps (piecewise-constant-C approximation for
//! voltage/state-dependent capacitors). Backward Euler reads only the
//! previous accepted solution, so the companion carries no history and
//! has nothing to commit.

use tcam_spice::device::{AnalysisKind, EvalCtx, Stamps};
use tcam_spice::node::NodeId;

/// Embedded linear capacitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompanionCap {
    /// Present capacitance in farads. Owners may update this between steps
    /// (never inside a Newton loop) to model state-dependent capacitance.
    pub farads: f64,
}

impl CompanionCap {
    /// Creates a companion capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or non-finite (device-construction
    /// bug, not user input).
    #[must_use]
    pub fn new(farads: f64) -> Self {
        assert!(
            farads.is_finite() && farads >= 0.0,
            "capacitance must be finite and non-negative"
        );
        Self { farads }
    }

    /// Stamps the companion between `a` and `b`. Call from the owner's
    /// `Device::load`. During OP/DC the capacitor is open but still emits
    /// its (zero-valued) stamps so the matrix pattern stays fixed.
    pub fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>, a: NodeId, b: NodeId) {
        match ctx.analysis {
            AnalysisKind::Op | AnalysisKind::DcSweep => {
                stamps.conductance(a, b, 0.0);
            }
            AnalysisKind::Transient => {
                // Backward Euler: i = C/dt (v − v_prev).
                let v_prev = ctx.v_prev(a) - ctx.v_prev(b);
                let geq = self.farads / ctx.dt;
                stamps.conductance(a, b, geq);
                stamps.current(a, b, -geq * v_prev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_spice::device::{Device, EvalCtx, Stamps};
    use tcam_spice::prelude::*;

    /// Wrap a CompanionCap as a standalone device and check it matches the
    /// built-in Capacitor in an RC circuit.
    #[derive(Debug)]
    struct WrappedCap {
        name: String,
        a: NodeId,
        b: NodeId,
        cap: CompanionCap,
    }

    impl Device for WrappedCap {
        fn name(&self) -> &str {
            &self.name
        }
        fn nodes(&self) -> Vec<NodeId> {
            vec![self.a, self.b]
        }
        fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
            self.cap.load(ctx, stamps, self.a, self.b);
        }
    }

    fn rc_with(use_wrapped: bool) -> f64 {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "v1",
            vin,
            gnd,
            Waveshape::step(0.0, 1.0, 0.0, 1e-12),
        ))
        .unwrap();
        ckt.add(Resistor::new("r1", vin, out, 1e3).unwrap())
            .unwrap();
        if use_wrapped {
            ckt.add(WrappedCap {
                name: "c1".into(),
                a: out,
                b: gnd,
                cap: CompanionCap::new(1e-9),
            })
            .unwrap();
        } else {
            ckt.add(Capacitor::new("c1", out, gnd, 1e-9).unwrap())
                .unwrap();
        }
        let wave = transient(&mut ckt, TransientSpec::to(2e-6), &SimOptions::default()).unwrap();
        wave.sample("v(out)", 1e-6).unwrap()
    }

    #[test]
    fn matches_builtin_capacitor_be() {
        let a = rc_with(true);
        let b = rc_with(false);
        assert!((a - b).abs() < 1e-6, "wrapped {a} vs builtin {b}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacitance_panics() {
        let _ = CompanionCap::new(-1e-15);
    }
}
