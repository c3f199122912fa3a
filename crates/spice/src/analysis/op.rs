//! DC operating-point analysis: plain Newton, then the gmin ramp, then
//! source stepping.

use crate::device::{AnalysisKind, CommitCtx};
use crate::error::Result;
use crate::mna::MnaSystem;
use crate::netlist::Circuit;
use crate::newton::{gmin_ramp, solve_point, NewtonOutcome};
use crate::options::SimOptions;
use crate::trace::SolverTrace;

/// A solved operating point.
#[derive(Debug, Clone)]
pub struct OpSolution {
    /// The unknown vector (node voltages then branch currents).
    pub x: Vec<f64>,
    /// Newton iterations of the final (target-gmin) solve.
    pub iterations: usize,
    /// Number of gmin-ramp stages needed (0 = direct).
    pub gmin_steps: usize,
    /// Number of source-stepping stages needed (0 unless the gmin ramp
    /// also failed).
    pub source_steps: usize,
}

impl OpSolution {
    /// Voltage of a named node.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpiceError::NotFound`] for unknown node names.
    pub fn voltage(&self, circuit: &Circuit, node: &str) -> Result<f64> {
        circuit.voltage_of(&self.x, node)
    }
}

/// Computes the DC operating point of `circuit` and commits it into the
/// devices (initializing their histories and quasi-static states).
///
/// On a direct Newton failure the solver walks the gmin ramp from
/// [`SimOptions::gmin_step_start`] down to the target gmin, warm-starting
/// each stage from the last and settling for the tightest converged stage
/// when the final refinement fails — better a slightly soft OP than none.
/// When a ramp stage fails too, every independent source is ramped 0 → 1.
///
/// # Errors
///
/// Returns [`crate::SpiceError::NonConvergence`] when even the recovery ladder
/// fails (after a `non_convergence` flight dump), and propagates structural
/// errors from system assembly.
pub fn operating_point(circuit: &mut Circuit, opts: &SimOptions) -> Result<OpSolution> {
    let mut trace = SolverTrace::new();
    operating_point_traced(circuit, opts, &mut trace)
}

/// [`operating_point`] with ladder telemetry recorded into `trace`
/// (gmin-ramp and source-stepping stage counts). The transient engine uses
/// this to fold initial-OP recovery work into the run's
/// [`SolverTrace`].
///
/// # Errors
///
/// As [`operating_point`].
pub fn operating_point_traced(
    circuit: &mut Circuit,
    opts: &SimOptions,
    trace: &mut SolverTrace,
) -> Result<OpSolution> {
    let mut sys = MnaSystem::build(circuit, AnalysisKind::Op, opts)?;
    let n = sys.index().n_unknowns();
    let zeros = vec![0.0; n];

    let direct = solve_point(
        circuit,
        &mut sys,
        0.0,
        0.0,
        opts.integrator,
        &zeros,
        &zeros,
        opts,
        opts.gmin,
    );

    let (outcome, gmin_steps, source_steps) = match direct {
        Ok(o) => (o, 0, 0),
        Err(_) => {
            let mut x = Vec::new();
            match gmin_ramp(
                circuit,
                &mut sys,
                0.0,
                0.0,
                opts.integrator,
                &zeros,
                &mut x,
                &mut Vec::new(),
                opts,
                trace,
            ) {
                Ok(ramp) => {
                    let iterations = ramp.iterations;
                    (NewtonOutcome { x, iterations }, ramp.stages, 0)
                }
                // Rung 2, initial OP only: walk the solution in from the
                // trivial all-sources-off point.
                Err(gmin_err) => match source_stepping(circuit, &mut sys, &zeros, opts, trace) {
                    Ok((o, stages)) => (o, opts.gmin_step_decades, stages),
                    // The gmin ramp's error names the worst unknown at
                    // full drive, which is the more actionable report.
                    Err(_) => {
                        let _ = tcam_obs::flight_dump(
                            "non_convergence",
                            &format!(
                                "operating point failed after full recovery ladder: {gmin_err}"
                            ),
                        );
                        return Err(gmin_err);
                    }
                },
            }
        }
    };

    commit_op(circuit, &outcome.x, &zeros);
    Ok(OpSolution {
        x: outcome.x,
        iterations: outcome.iterations,
        gmin_steps,
        source_steps,
    })
}

/// Source-stepping stages of an even 0 → 1 ramp (bisection adds more).
const SOURCE_STEP_POINTS: usize = 10;

/// Ramps every independent source 0 → 1, warm-starting each stage from the
/// previous one. On a stage failure the increment is halved (continuation
/// bisection); the ramp aborts once the increment underflows. The system's
/// source scale is always restored to 1.0 on exit.
fn source_stepping(
    circuit: &Circuit,
    sys: &mut MnaSystem,
    zeros: &[f64],
    opts: &SimOptions,
    trace: &mut SolverTrace,
) -> Result<(NewtonOutcome, usize)> {
    let _obs = tcam_obs::span!("rung_source_stepping");
    #[allow(clippy::cast_precision_loss)]
    let dl0 = 1.0 / SOURCE_STEP_POINTS as f64;
    let mut guess = zeros.to_vec();
    let mut lambda = 0.0_f64;
    let mut dl = dl0;
    let mut stages = 0usize;
    let mut full: Option<NewtonOutcome> = None;
    let result = loop {
        let target = (lambda + dl).min(1.0);
        sys.set_source_scale(target);
        trace.source_stage();
        stages += 1;
        match solve_point(
            circuit,
            sys,
            0.0,
            0.0,
            opts.integrator,
            zeros,
            &guess,
            opts,
            opts.gmin,
        ) {
            Ok(out) => {
                guess.clone_from(&out.x);
                lambda = target;
                if lambda >= 1.0 {
                    full = Some(out);
                    break Ok(());
                }
                // Recover the pace gently after bisections.
                dl = (dl * 1.5).min(dl0.max(0.25));
            }
            Err(e) => {
                dl *= 0.5;
                if dl * 64.0 < dl0 {
                    break Err(e);
                }
            }
        }
    };
    sys.set_source_scale(1.0);
    result?;
    Ok((full.expect("full-drive solve present on Ok"), stages))
}

pub(crate) fn commit_op(circuit: &mut Circuit, x: &[f64], x_prev: &[f64]) {
    let index = circuit.unknown_index();
    let ctx = CommitCtx {
        analysis: AnalysisKind::Op,
        time: 0.0,
        dt: 0.0,
        integrator: crate::options::Integrator::BackwardEuler,
        x,
        x_prev,
        index,
    };
    for dev in circuit.devices_mut() {
        dev.commit(&ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Capacitor, Resistor, VoltageSource};

    #[test]
    fn divider_op() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vdd, gnd, 1.8)).unwrap();
        ckt.add(Resistor::new("r1", vdd, out, 2e3).unwrap())
            .unwrap();
        ckt.add(Resistor::new("r2", out, gnd, 1e3).unwrap())
            .unwrap();
        let op = operating_point(&mut ckt, &SimOptions::default()).unwrap();
        assert!((op.voltage(&ckt, "out").unwrap() - 0.6).abs() < 1e-6);
        assert_eq!(op.gmin_steps, 0);
    }

    #[test]
    fn capacitor_open_at_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("r1", a, b, 1e3).unwrap()).unwrap();
        ckt.add(Capacitor::new("c1", b, gnd, 1e-12).unwrap())
            .unwrap();
        let op = operating_point(&mut ckt, &SimOptions::default()).unwrap();
        // No DC path through C ⇒ b floats to a through R (no current).
        assert!((op.voltage(&ckt, "b").unwrap() - 1.0).abs() < 1e-3);
    }

    /// Sharp exponential diode (small thermal voltage). From a cold start
    /// at high drive, damped Newton walks down roughly one `vt` per
    /// iteration, so a tight iteration budget fails both direct and
    /// gmin-laddered solves; ramping the source in lets every stage start
    /// warm and converge in a handful of iterations.
    #[derive(Debug)]
    struct SteepDiode {
        name: String,
        a: crate::node::NodeId,
        vt: f64,
    }

    impl crate::device::Device for SteepDiode {
        fn name(&self) -> &str {
            &self.name
        }
        fn nodes(&self) -> Vec<crate::node::NodeId> {
            vec![self.a]
        }
        fn load(&self, ctx: &crate::device::EvalCtx<'_>, stamps: &mut crate::device::Stamps<'_>) {
            let v = ctx.v(self.a).clamp(-2.0, 2.0);
            let i_sat = 1e-14;
            let e = (v / self.vt).exp();
            let i = i_sat * (e - 1.0);
            let g = (i_sat / self.vt * e).max(1e-12);
            stamps.nonlinear_current(self.a, crate::node::NodeId::GROUND, i, g, v);
        }
    }

    fn steep_diode_circuit(vt: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vdd, gnd, 5.0)).unwrap();
        ckt.add(Resistor::new("r1", vdd, d, 1e3).unwrap()).unwrap();
        ckt.add(SteepDiode {
            name: "d1".into(),
            a: d,
            vt,
        })
        .unwrap();
        ckt
    }

    #[test]
    fn source_stepping_rescues_steep_diode_op() {
        let tight = SimOptions {
            max_nr_iters: 10,
            ..SimOptions::default()
        };
        let vt = 0.012;

        let mut ckt = steep_diode_circuit(vt);
        let mut trace = SolverTrace::new();
        let op = operating_point_traced(&mut ckt, &tight, &mut trace).unwrap();
        assert!(op.source_steps > 0, "{op:?}");
        assert!(trace.source_step_events > 0);
        // Physically sane: diode drop vt·ln(i/i_sat) with i ≈ 5 V / 1 kΩ.
        let vd = op.voltage(&ckt, "d").unwrap();
        let expected = vt * (5.0_f64 / 1e3 / 1e-14).ln();
        assert!((vd - expected).abs() < 0.05, "v(d) = {vd}, exp {expected}");
        // And the source scale was restored: re-solving with generous
        // iterations from the committed state sees full drive.
        let relaxed = SimOptions::default();
        let op2 = operating_point(&mut ckt, &relaxed).unwrap();
        let vd2 = op2.voltage(&ckt, "d").unwrap();
        assert!((vd2 - vd).abs() < 1e-3);
    }

    #[test]
    fn capacitor_ic_forced_at_op() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("r1", a, b, 1e9).unwrap()).unwrap();
        ckt.add(Capacitor::new("c1", b, gnd, 1e-12).unwrap().with_ic(0.25))
            .unwrap();
        let op = operating_point(&mut ckt, &SimOptions::default()).unwrap();
        assert!((op.voltage(&ckt, "b").unwrap() - 0.25).abs() < 1e-3);
    }
}
