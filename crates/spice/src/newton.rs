//! Damped Newton–Raphson solution of one nonlinear circuit point, and the
//! gmin ramp that retries a failed one.

use crate::error::{Result, SpiceError};
use crate::mna::MnaSystem;
use crate::netlist::Circuit;
use crate::options::{Integrator, SimOptions};
use crate::trace::SolverTrace;
use tcam_numeric::NumericError;

/// Relative convergence tolerance on unknowns (SPICE `RELTOL`).
const RELTOL: f64 = 1e-4;
/// Absolute node-voltage tolerance in volts (SPICE `VNTOL`).
const VNTOL: f64 = 1e-7;
/// Absolute branch-current tolerance in amps (SPICE `ABSTOL`).
const ABSTOL: f64 = 1e-12;
/// Largest Newton update applied per iteration (per unknown, volts or
/// amps); a larger proposed update damps the whole step.
const NR_DAMPING_LIMIT: f64 = 1.0;

/// Names the unknown a numeric failure points at, when it points at one.
fn numeric_worst_unknown(circuit: &Circuit, e: &NumericError) -> Option<String> {
    match e {
        NumericError::SingularMatrix { column } | NumericError::PivotDegraded { column } => {
            circuit.unknown_name(*column)
        }
        _ => None,
    }
}

/// Result of a converged Newton solve.
#[derive(Debug, Clone)]
pub struct NewtonOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
}

/// Solves the circuit at one (time, dt) point starting from `x_guess`.
///
/// Each iteration refills the MNA system at the current iterate and solves
/// the linearized system; updates larger than `NR_DAMPING_LIMIT` (∞-norm)
/// are uniformly scaled down. Convergence requires every unknown's update
/// to satisfy `|Δ| ≤ RELTOL·max(|x|, |x'|) + atol` with `atol` = `VNTOL`
/// for node voltages and `ABSTOL` for branch currents, on an *undamped*
/// iteration.
///
/// # Errors
///
/// Returns [`SpiceError::NonConvergence`] for every failure mode — budget
/// exhaustion, a non-finite iterate, or a singular matrix (carried in
/// `cause`) — naming the worst-converging unknown when it can.
#[allow(clippy::too_many_arguments)]
pub fn solve_point(
    circuit: &Circuit,
    sys: &mut MnaSystem,
    time: f64,
    dt: f64,
    integrator: Integrator,
    x_prev: &[f64],
    x_guess: &[f64],
    opts: &SimOptions,
    gmin: f64,
) -> Result<NewtonOutcome> {
    let mut x = x_guess.to_vec();
    let mut scratch = Vec::new();
    let iterations = solve_point_in_place(
        circuit,
        sys,
        time,
        dt,
        integrator,
        x_prev,
        &mut x,
        &mut scratch,
        opts,
        gmin,
    )?;
    Ok(NewtonOutcome { x, iterations })
}

/// Allocation-free Newton solve: `x` carries the guess in and the solution
/// out; `x_new` is a caller-held scratch buffer ping-ponged with `x` on each
/// undamped iteration. With both buffers warm (and the sparse factorization
/// cached in `sys`) an iteration performs no heap allocation.
///
/// Newton iterations are recorded in the system's
/// [`crate::mna::SolveStats`].
///
/// # Errors
///
/// Returns [`SpiceError::NonConvergence`] for every failure mode — budget
/// exhaustion, a non-finite iterate, or a singular matrix (carried in
/// `cause`) — naming the worst-converging unknown when it can.
#[allow(clippy::too_many_arguments)]
pub fn solve_point_in_place(
    circuit: &Circuit,
    sys: &mut MnaSystem,
    time: f64,
    dt: f64,
    integrator: Integrator,
    x_prev: &[f64],
    x: &mut Vec<f64>,
    x_new: &mut Vec<f64>,
    opts: &SimOptions,
    gmin: f64,
) -> Result<usize> {
    let n_nodes = sys.index().n_node_unknowns();
    let mut max_delta = f64::INFINITY;
    // Unknown with the largest tolerance-relative update on the last
    // iteration: named in the NonConvergence diagnostic.
    let mut worst_idx: Option<usize> = None;

    for iter in 1..=opts.max_nr_iters {
        sys.refill(circuit, time, dt, integrator, x, x_prev, gmin);
        sys.stats_mut().nr_iterations += 1;
        if let Err(e) = sys.solve_into(x_new) {
            // A singular (or otherwise failed) linear point is one more way
            // the nonlinear solve dies: fold it into NonConvergence so the
            // recovery ladder and callers see a single error surface, and
            // keep the pivot column (as a signal name) instead of
            // discarding it.
            let (worst_unknown, cause) = match &e {
                SpiceError::Numeric(ne) => (numeric_worst_unknown(circuit, ne), Some(ne.clone())),
                _ => (None, None),
            };
            return Err(SpiceError::NonConvergence {
                time,
                iterations: iter,
                max_delta: f64::INFINITY,
                worst_unknown,
                cause,
            });
        }
        let _obs = tcam_obs::span!("nr_update");
        if let Some(bad) = x_new.iter().position(|v| !v.is_finite()) {
            return Err(SpiceError::NonConvergence {
                time,
                iterations: iter,
                max_delta: f64::INFINITY,
                worst_unknown: circuit.unknown_name(bad),
                cause: None,
            });
        }

        // Damping: uniformly scale oversized updates.
        max_delta = x_new
            .iter()
            .zip(x.iter())
            .fold(0.0_f64, |m, (n, o)| m.max((n - o).abs()));
        let scale = if max_delta > NR_DAMPING_LIMIT {
            NR_DAMPING_LIMIT / max_delta
        } else {
            1.0
        };

        let mut converged = scale == 1.0;
        let mut worst_ratio = 0.0_f64;
        worst_idx = None;
        for (i, (xn, xo)) in x_new.iter().zip(x.iter()).enumerate() {
            let atol = if i < n_nodes { VNTOL } else { ABSTOL };
            let tol = atol + RELTOL * xn.abs().max(xo.abs());
            let ratio = (xn - xo).abs() / tol;
            if ratio > 1.0 {
                converged = false;
                // Keep scanning so partial updates below still apply.
            }
            if ratio > worst_ratio {
                worst_ratio = ratio;
                worst_idx = Some(i);
            }
        }

        if scale == 1.0 {
            std::mem::swap(x, x_new);
        } else {
            for (xi, xn) in x.iter_mut().zip(x_new.iter()) {
                *xi += scale * (xn - *xi);
            }
        }

        if converged {
            return Ok(iter);
        }
    }
    Err(SpiceError::NonConvergence {
        time,
        iterations: opts.max_nr_iters,
        max_delta,
        worst_unknown: worst_idx.and_then(|i| circuit.unknown_name(i)),
        cause: None,
    })
}

/// How a [`gmin_ramp`] ended.
#[derive(Debug)]
pub(crate) struct GminRamp {
    /// Stages that converged above the target gmin.
    pub stages: usize,
    /// Newton iterations of the solve whose solution `x` holds.
    pub iterations: usize,
    /// Whether the final solve at the target gmin converged. When it did
    /// not, `x` holds the tightest converged stage instead, and the caller
    /// decides whether a slightly soft point beats none.
    pub refined: bool,
}

/// The recovery ladder's gmin ramp at one `(time, dt)` point: solve with
/// [`SimOptions::gmin_step_start`] to ground on every node, warm-start each
/// decade down (at most [`SimOptions::gmin_step_decades`] + 1 stages), then
/// refine at the target [`SimOptions::gmin`]. Extra conductance to ground
/// tames an exponential device long enough to walk the iterate into its
/// basin of attraction. The ramp starts cold from `x_prev` and leaves its
/// result in `x`; every solve is counted as one `gmin_events` in `trace`.
///
/// # Errors
///
/// The failing solve's [`SpiceError::NonConvergence`] when a stage fails,
/// or the refinement fails with no stage converged (`x` is then garbage).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gmin_ramp(
    circuit: &Circuit,
    sys: &mut MnaSystem,
    time: f64,
    dt: f64,
    integrator: Integrator,
    x_prev: &[f64],
    x: &mut Vec<f64>,
    x_new: &mut Vec<f64>,
    opts: &SimOptions,
    trace: &mut SolverTrace,
) -> Result<GminRamp> {
    let _obs = tcam_obs::span!("rung_gmin_ramp");
    let mut ramp = GminRamp {
        stages: 0,
        iterations: 0,
        refined: false,
    };
    x.clear();
    x.extend_from_slice(x_prev);
    let mut gmin = opts.gmin_step_start;
    while gmin > opts.gmin && ramp.stages <= opts.gmin_step_decades {
        trace.gmin_stage();
        ramp.iterations = solve_point_in_place(
            circuit, sys, time, dt, integrator, x_prev, x, x_new, opts, gmin,
        )?;
        ramp.stages += 1;
        gmin *= 0.1;
    }
    // The in-place solve clobbers its guess, so keep the tightest stage.
    let stage_x = x.clone();
    trace.gmin_stage();
    match solve_point_in_place(
        circuit, sys, time, dt, integrator, x_prev, x, x_new, opts, opts.gmin,
    ) {
        Ok(iterations) => {
            ramp.iterations = iterations;
            ramp.refined = true;
        }
        Err(e) if ramp.stages == 0 => return Err(e),
        Err(_) => *x = stage_x,
    }
    Ok(ramp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{AnalysisKind, Device, EvalCtx, Stamps};
    use crate::element::{Resistor, VoltageSource};
    use crate::node::NodeId;

    /// A diode-like nonlinear element for exercising the NR loop:
    /// i = Is (exp(v/vt) − 1), anode → cathode.
    #[derive(Debug)]
    struct Diode {
        name: String,
        a: NodeId,
        b: NodeId,
        i_sat: f64,
        vt: f64,
    }

    impl Device for Diode {
        fn name(&self) -> &str {
            &self.name
        }
        fn nodes(&self) -> Vec<NodeId> {
            vec![self.a, self.b]
        }
        fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
            let v = (ctx.v(self.a) - ctx.v(self.b)).clamp(-5.0, 1.0);
            let e = (v / self.vt).exp();
            let i0 = self.i_sat * (e - 1.0);
            let g = (self.i_sat / self.vt * e).max(1e-12);
            stamps.nonlinear_current(self.a, self.b, i0, g, v);
        }
    }

    #[test]
    fn diode_divider_converges() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let mid = ckt.node("mid");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vdd, gnd, 5.0)).unwrap();
        ckt.add(Resistor::new("r1", vdd, mid, 1e3).unwrap())
            .unwrap();
        ckt.add(Diode {
            name: "d1".into(),
            a: mid,
            b: gnd,
            i_sat: 1e-14,
            vt: 0.02585,
        })
        .unwrap();

        let opts = SimOptions::default();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let zeros = vec![0.0; sys.index().n_unknowns()];
        let out = solve_point(
            &ckt,
            &mut sys,
            0.0,
            0.0,
            opts.integrator,
            &zeros,
            &zeros,
            &opts,
            opts.gmin,
        )
        .unwrap();
        let vd = ckt.voltage_of(&out.x, "mid").unwrap();
        // Forward drop of a silicon-like diode at ~4.3 mA.
        assert!(vd > 0.6 && vd < 0.8, "vd = {vd}");
        // KCL: resistor current equals diode current.
        let ir = (5.0 - vd) / 1e3;
        let id = 1e-14 * ((vd / 0.02585).exp() - 1.0);
        assert!(((ir - id) / ir).abs() < 1e-3);
        assert!(out.iterations >= 2);
    }

    #[test]
    fn linear_circuit_converges_fast() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("r1", a, gnd, 1e3).unwrap()).unwrap();
        let opts = SimOptions::default();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let zeros = vec![0.0; sys.index().n_unknowns()];
        let out = solve_point(
            &ckt,
            &mut sys,
            0.0,
            0.0,
            opts.integrator,
            &zeros,
            &zeros,
            &opts,
            opts.gmin,
        )
        .unwrap();
        assert!(out.iterations <= 3);
        assert!((out.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_reports() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", a, gnd, 5.0)).unwrap();
        ckt.add(Diode {
            name: "d1".into(),
            a,
            b: gnd,
            i_sat: 1e-14,
            vt: 0.02585,
        })
        .unwrap();
        let opts = SimOptions {
            max_nr_iters: 1,
            ..SimOptions::default()
        };
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let zeros = vec![0.0; sys.index().n_unknowns()];
        let err = solve_point(
            &ckt,
            &mut sys,
            0.0,
            0.0,
            opts.integrator,
            &zeros,
            &zeros,
            &opts,
            opts.gmin,
        );
        match err {
            Err(SpiceError::NonConvergence {
                worst_unknown,
                cause,
                ..
            }) => {
                assert!(worst_unknown.is_some(), "budget exhaustion names a signal");
                assert_eq!(cause, None);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn singular_matrix_is_unified_into_nonconvergence() {
        // Two ideal voltage sources in parallel: the two branch rows are
        // identical, so the MNA matrix is singular at every iteration.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", a, gnd, 1.0)).unwrap();
        ckt.add(VoltageSource::dc("v2", a, gnd, 2.0)).unwrap();
        let opts = SimOptions::default();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let zeros = vec![0.0; sys.index().n_unknowns()];
        let err = solve_point(
            &ckt,
            &mut sys,
            0.0,
            0.0,
            opts.integrator,
            &zeros,
            &zeros,
            &opts,
            opts.gmin,
        )
        .unwrap_err();
        match err {
            SpiceError::NonConvergence {
                worst_unknown,
                cause,
                ..
            } => {
                assert!(
                    matches!(cause, Some(NumericError::SingularMatrix { .. })),
                    "cause = {cause:?}"
                );
                let w = worst_unknown.expect("pivot column resolves to a name");
                assert!(w == "v(a)" || w.starts_with("i(v"), "unexpected name {w}");
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }
}
