//! Adaptive-timestep transient analysis.
//!
//! The engine starts from a committed operating point, then advances with a
//! step controlled by three mechanisms:
//!
//! 1. **Breakpoints** — source corner times are landed on exactly, and the
//!    step restarts small afterwards so edges are resolved.
//! 2. **Local truncation error** — a curvature estimate from the last three
//!    solutions rejects steps whose per-node LTE exceeds
//!    [`SimOptions::lte_tol`] and sizes the next step.
//! 3. **Device hints** — any device can bound the next step via
//!    [`crate::device::Device::dt_hint`] (the NEM relay uses this while its
//!    beam is in flight).
//!
//! A Newton failure engages the convergence-recovery ladder — (1) a gmin
//! ramp at the same step, (2) a TR→BE integrator fallback for the failing
//! step — before the dt shrink; underflow of [`SimOptions::dt_min`] aborts
//! with [`SpiceError::TimestepUnderflow`]. Every proposal is counted once,
//! in the [`SolverTrace`] attached to the returned waveform.

use crate::analysis::op::operating_point_traced;
use crate::device::{AnalysisKind, CommitCtx};
use crate::error::{Result, SpiceError};
use crate::mna::MnaSystem;
use crate::netlist::Circuit;
use crate::newton::{gmin_ramp, solve_point_in_place, GminRamp};
use crate::options::{Integrator, SimOptions};
use crate::trace::{RejectReason, Rung, SolverTrace};
use crate::waveform::Waveform;
use std::mem;

/// Transient run specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// End time in seconds.
    pub t_stop: f64,
}

impl TransientSpec {
    /// Runs to `t_stop` seconds.
    #[must_use]
    pub fn to(t_stop: f64) -> Self {
        Self { t_stop }
    }
}

/// Hard cap on accepted+rejected step attempts, to bound runaway runs.
const MAX_STEP_ATTEMPTS: usize = 50_000_000;

/// Initial step as a fraction of the span (when
/// [`SimOptions::dt_initial`] ≤ 0).
const DT_INITIAL_FRACTION: f64 = 1e-4;
/// The step grows by at most this factor after an accepted solve.
const DT_GROW: f64 = 1.6;
/// The step shrinks by this factor after a Newton rejection no rung rescued.
const DT_SHRINK: f64 = 0.25;
/// Relative breakpoint-dedup tolerance: two breakpoints closer than
/// `BP_RELTOL · t_stop` are merged. An absolute tolerance (the seed's
/// 1e-18 s) fails at µs timescales — corners 1e-17 s apart are distinct
/// floats, survive, and force a sub-attosecond step — and the Newton
/// `RELTOL` (1e-4) would merge genuine sub-ns edges of a 100 µs run. 1e-12
/// keeps any edge a transient could resolve and merges the twins that
/// accumulated float error makes (`microsecond_breakpoint_twins_merge`).
const BP_RELTOL: f64 = 1e-12;

/// Runs a transient analysis, recording every node voltage, branch current,
/// device probe, and source energy meter at each accepted step.
///
/// The circuit's devices are left in their end-of-run state (energy meters
/// hold run totals; hysteretic devices hold final states).
///
/// # Errors
///
/// * [`SpiceError::NonConvergence`] if the initial operating point fails.
/// * [`SpiceError::TimestepUnderflow`] when Newton/LTE rejection drives the
///   step below [`SimOptions::dt_min`].
/// * [`SpiceError::InvalidCircuit`] for structural problems.
pub fn transient(
    circuit: &mut Circuit,
    spec: TransientSpec,
    opts: &SimOptions,
) -> Result<Waveform> {
    if !(spec.t_stop.is_finite() && spec.t_stop > 0.0) {
        return Err(SpiceError::InvalidCircuit(format!(
            "transient t_stop must be finite and positive, got {}",
            spec.t_stop
        )));
    }

    // Wall-time phase attribution for this run: spans opened below (and in
    // newton/mna) accumulate thread-local self-times; the delta since this
    // mark is attached to the trace at the end.
    let obs_mark = tcam_obs::phase_mark();

    // 1. Operating point (also commits device initial states). Recovery
    //    work done for the OP (gmin/source stepping) lands in the trace.
    let mut trace = SolverTrace::new();
    let op = operating_point_traced(circuit, opts, &mut trace)?;

    // 2. Signal list.
    let index = circuit.unknown_index();
    let mut names: Vec<String> = Vec::new();
    for (id, name) in circuit.nodes().iter() {
        if !id.is_ground() {
            names.push(format!("v({name})"));
        }
    }
    names.extend(circuit.branch_names().iter().cloned());
    let mut probe_list: Vec<(usize, &'static str)> = Vec::new();
    for (di, dev) in circuit.devices().iter().enumerate() {
        for p in dev.probe_names() {
            names.push(format!("{}.{p}", dev.name()));
            probe_list.push((di, p));
        }
    }
    let mut energy_list: Vec<usize> = Vec::new();
    for (di, dev) in circuit.devices().iter().enumerate() {
        if dev.delivered_energy().is_some() {
            names.push(format!("e({})", dev.name()));
            energy_list.push(di);
        }
    }
    let mut wave = Waveform::new("time", names);

    // 3. Transient MNA system.
    let mut sys = MnaSystem::build(circuit, AnalysisKind::Transient, opts)?;

    // 4. Breakpoints.
    let mut breakpoints: Vec<f64> = Vec::new();
    for dev in circuit.devices() {
        breakpoints.extend(dev.breakpoints(spec.t_stop));
    }
    breakpoints.push(spec.t_stop);
    breakpoints.retain(|&t| t > 0.0 && t <= spec.t_stop);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    let bp_tol = (BP_RELTOL * spec.t_stop).max(f64::MIN_POSITIVE);
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < bp_tol);

    // Record t = 0. `row` is a hoisted scratch buffer so each recorded step
    // reuses one allocation.
    let mut row: Vec<f64> = Vec::new();
    let record = |wave: &mut Waveform, row: &mut Vec<f64>, t: f64, x: &[f64], circuit: &Circuit| {
        row.clear();
        row.extend_from_slice(x);
        for &(di, p) in &probe_list {
            row.push(circuit.devices()[di].probe(p).unwrap_or(f64::NAN));
        }
        for &di in &energy_list {
            let dev = &circuit.devices()[di];
            row.push(
                dev.sourced_energy()
                    .or_else(|| dev.delivered_energy())
                    .unwrap_or(f64::NAN),
            );
        }
        wave.push(t, row);
    };
    record(&mut wave, &mut row, 0.0, &op.x, circuit);

    // 5. Time loop.
    let dt0 = if opts.dt_initial > 0.0 {
        opts.dt_initial
    } else {
        spec.t_stop * DT_INITIAL_FRACTION
    };
    let mut t = 0.0_f64;
    let mut dt = dt0;
    let mut x_prev = op.x;
    // Second-back history for the LTE curvature estimate. The buffers
    // rotate via `mem::swap` instead of cloning: `x_prev2`/`dt_prev` are
    // only meaningful while `hist_valid` is set.
    let mut x_prev2: Vec<f64> = vec![0.0; x_prev.len()];
    let mut dt_prev = 0.0_f64;
    let mut hist_valid = false;
    // Newton iterate and scratch buffers, ping-ponged by the in-place solve.
    let mut x_cur: Vec<f64> = Vec::with_capacity(x_prev.len());
    let mut x_scratch: Vec<f64> = Vec::with_capacity(x_prev.len());
    let mut bp_cursor = 0usize;
    let n_nodes = index.n_node_unknowns();

    let mut attempts = 0usize;
    while t < spec.t_stop * (1.0 - 1e-15) {
        attempts += 1;
        if attempts > MAX_STEP_ATTEMPTS {
            return Err(SpiceError::non_convergence(t, attempts, f64::NAN));
        }

        // Advance past consumed breakpoints, then select the step size.
        let obs_step_control = tcam_obs::span!("step_control");
        while bp_cursor < breakpoints.len() && breakpoints[bp_cursor] <= t * (1.0 + 1e-15) {
            bp_cursor += 1;
        }
        let mut dt_lim = opts.dt_max.min(spec.t_stop - t);
        let mut hint_lim = f64::INFINITY;
        for dev in circuit.devices() {
            hint_lim = hint_lim.min(dev.dt_hint(t));
        }
        if hint_lim < dt.min(dt_lim) {
            trace.device_hint();
        }
        dt_lim = dt_lim.min(hint_lim);
        let mut step = dt.min(dt_lim).max(opts.dt_min);
        let mut hit_bp = false;
        if bp_cursor < breakpoints.len() {
            let bp = breakpoints[bp_cursor];
            if t + step >= bp - opts.dt_min {
                step = bp - t;
                hit_bp = true;
            }
        }
        let t_new = t + step;
        drop(obs_step_control);

        // Newton solve: guess is the previous accepted state. On failure
        // the recovery ladder retries at the *same* (t, dt) — gmin ramp,
        // then TR→BE — before falling back to the dt shrink.
        x_cur.clear();
        x_cur.extend_from_slice(&x_prev);
        let mut recovered = false;
        let mut step_integrator = opts.integrator;
        let iterations = match solve_point_in_place(
            circuit,
            &mut sys,
            t_new,
            step,
            opts.integrator,
            &x_prev,
            &mut x_cur,
            &mut x_scratch,
            opts,
            opts.gmin,
        ) {
            Ok(iters) => iters,
            Err(SpiceError::NonConvergence {
                iterations,
                worst_unknown,
                ..
            }) => {
                trace.reject(iterations, RejectReason::Newton, worst_unknown);
                sys.stats_mut().steps_rejected += 1;
                match recover_step(
                    circuit,
                    &mut sys,
                    t_new,
                    step,
                    &x_prev,
                    &mut x_cur,
                    &mut x_scratch,
                    opts,
                    &mut trace,
                ) {
                    Some((iters, integrator)) => {
                        recovered = true;
                        step_integrator = integrator;
                        iters
                    }
                    None => {
                        trace.rung_engaged(Rung::DtShrink);
                        dt = step * DT_SHRINK;
                        if dt < opts.dt_min {
                            let _ = tcam_obs::flight_dump(
                                "non_convergence",
                                &format!(
                                    "transient timestep underflow at t={t:.6e}: dt={dt:.3e} below dt_min after Newton rejection"
                                ),
                            );
                            return Err(SpiceError::TimestepUnderflow { time: t, dt });
                        }
                        hist_valid = false;
                        continue;
                    }
                }
            }
            Err(e) => return Err(e),
        };

        // LTE estimate and acceptance.
        let obs_lte = tcam_obs::span!("lte_estimate");
        let mut lte_max = 0.0_f64;
        if hist_valid {
            for i in 0..n_nodes {
                let d1 = (x_cur[i] - x_prev[i]) / step;
                let d0 = (x_prev[i] - x_prev2[i]) / dt_prev;
                let curvature = 2.0 * (d1 - d0) / (step + dt_prev);
                lte_max = lte_max.max((curvature * step * step * 0.5).abs());
            }
            if lte_max > 4.0 * opts.lte_tol && step > 4.0 * opts.dt_min && !hit_bp {
                trace.reject(iterations, RejectReason::Lte, None);
                sys.stats_mut().steps_rejected += 1;
                dt = step * (0.9 * (opts.lte_tol / lte_max).sqrt()).clamp(0.1, 0.5);
                continue;
            }
        }
        drop(obs_lte);

        // Accept: commit devices, record. The commit must see the
        // integrator that actually produced the solution (a TR→BE fallback
        // changes the companion-history update).
        let obs_commit = tcam_obs::span!("commit_record");
        let ctx = CommitCtx {
            analysis: AnalysisKind::Transient,
            time: t_new,
            dt: step,
            integrator: step_integrator,
            x: &x_cur,
            x_prev: &x_prev,
            index,
        };
        for dev in circuit.devices_mut() {
            dev.commit(&ctx);
        }
        record(&mut wave, &mut row, t_new, &x_cur, circuit);
        drop(obs_commit);
        sys.stats_mut().steps_accepted += 1;
        trace.accept(step, recovered);

        // Next step size; never grow straight out of a rescued point.
        let mut grow = if lte_max > 0.0 {
            (0.9 * (opts.lte_tol / lte_max).sqrt()).clamp(0.3, DT_GROW)
        } else {
            DT_GROW
        };
        if recovered {
            grow = grow.min(1.0);
        }
        let iter_factor = if iterations > 20 { 0.5 } else { 1.0 };
        dt = (step * grow * iter_factor).max(opts.dt_min);

        if hit_bp {
            // Restart small after a corner; drop stale curvature history.
            dt = dt0.min(dt);
            hist_valid = false;
        } else {
            // Rotate: old x_prev becomes x_prev2 (no clone).
            mem::swap(&mut x_prev2, &mut x_prev);
            dt_prev = step;
            hist_valid = true;
        }
        // New accepted state; the displaced buffer becomes next scratch.
        mem::swap(&mut x_prev, &mut x_cur);
        t = t_new;
    }

    // Attach this run's phase breakdown (unified key scheme) so it is
    // queryable via `meas_solver("phase_<name>_ns")` and lands in the
    // trace's JSON line alongside the exact counters.
    #[allow(clippy::cast_precision_loss)]
    let phases: Vec<(String, f64)> = tcam_obs::phases_since(&obs_mark)
        .into_iter()
        .flat_map(|(name, stat)| {
            [
                (format!("phase_{name}_ns"), stat.ns as f64),
                (format!("phase_{name}_count"), stat.count as f64),
            ]
        })
        .collect();
    trace.set_phases(phases);
    trace.stats = sys.stats();
    wave.set_solver_trace(trace);
    Ok(wave)
}

/// The transient recovery ladder, engaged at a fixed `(t_new, step)` after a
/// plain Newton failure. Returns the converged iteration count and the
/// integrator that produced the solution (left in `x_cur`), or `None` when
/// every rung failed and the caller should fall back to the dt shrink.
#[allow(clippy::too_many_arguments)]
fn recover_step(
    circuit: &Circuit,
    sys: &mut MnaSystem,
    t_new: f64,
    step: f64,
    x_prev: &[f64],
    x_cur: &mut Vec<f64>,
    x_scratch: &mut Vec<f64>,
    opts: &SimOptions,
    trace: &mut SolverTrace,
) -> Option<(usize, Integrator)> {
    // Rung 1: gmin ramp at the same step and integrator. A ramp that
    // cannot refine to the target gmin is no solution of this step.
    trace.rung_engaged(Rung::GminRamp);
    if let Ok(GminRamp {
        refined: true,
        iterations,
        ..
    }) = gmin_ramp(
        circuit,
        sys,
        t_new,
        step,
        opts.integrator,
        x_prev,
        x_cur,
        x_scratch,
        opts,
        trace,
    ) {
        return Some((iterations, opts.integrator));
    }

    // Rung 3: TR→BE fallback for this one step — trapezoidal ringing around
    // an abrupt event (relay pull-in) can defeat Newton outright; backward
    // Euler's L-stability damps it. (Rung 2, source stepping, applies only
    // to the initial operating point and lives in the OP driver.)
    if opts.integrator == Integrator::Trapezoidal {
        trace.rung_engaged(Rung::IntegratorFallback);
        let _obs = tcam_obs::span!("rung_integrator_fallback");
        x_cur.clear();
        x_cur.extend_from_slice(x_prev);
        if let Ok(iters) = solve_point_in_place(
            circuit,
            sys,
            t_new,
            step,
            Integrator::BackwardEuler,
            x_prev,
            x_cur,
            x_scratch,
            opts,
            opts.gmin,
        ) {
            return Some((iters, Integrator::BackwardEuler));
        }
        if let Ok(GminRamp {
            refined: true,
            iterations,
            ..
        }) = gmin_ramp(
            circuit,
            sys,
            t_new,
            step,
            Integrator::BackwardEuler,
            x_prev,
            x_cur,
            x_scratch,
            opts,
            trace,
        ) {
            return Some((iterations, Integrator::BackwardEuler));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AnalysisKind;
    use crate::element::{Capacitor, Inductor, Resistor, VoltageSource};
    use crate::error::SpiceError;
    use crate::options::{Integrator, SimOptions};
    use crate::source::Waveshape;

    fn rc_circuit(tau_r: f64, tau_c: f64) -> Circuit {
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
        ckt.add(Resistor::new("r1", vin, out, tau_r).unwrap())
            .unwrap();
        ckt.add(Capacitor::new("c1", out, gnd, tau_c).unwrap())
            .unwrap();
        ckt
    }

    #[test]
    fn rc_step_response_be() {
        // R = 1k, C = 1n → tau = 1 µs.
        let mut ckt = rc_circuit(1e3, 1e-9);
        let wave = transient(&mut ckt, TransientSpec::to(5e-6), &SimOptions::default()).unwrap();
        // After 5 tau the output has settled.
        assert!((wave.last("v(out)").unwrap() - 1.0).abs() < 1e-2);
        // At exactly one tau: 1 − e⁻¹ ≈ 0.632 (BE is 1st order, so be loose).
        let v_tau = wave.sample("v(out)", 1e-6).unwrap();
        assert!((v_tau - 0.632).abs() < 0.03, "v(tau) = {v_tau}");
    }

    #[test]
    fn rc_step_response_trapezoidal_is_tighter() {
        let mut ckt = rc_circuit(1e3, 1e-9);
        let opts = SimOptions::with_integrator(Integrator::Trapezoidal);
        let wave = transient(&mut ckt, TransientSpec::to(5e-6), &opts).unwrap();
        let v_tau = wave.sample("v(out)", 1e-6).unwrap();
        assert!(
            (v_tau - (1.0 - (-1.0_f64).exp())).abs() < 5e-3,
            "v(tau) = {v_tau}"
        );
    }

    #[test]
    fn source_energy_matches_theory() {
        // Charging C through R from a step: source delivers C·V² total
        // (half stored, half dissipated).
        let mut ckt = rc_circuit(1e3, 1e-9);
        let _ = transient(&mut ckt, TransientSpec::to(20e-6), &SimOptions::default()).unwrap();
        let e = ckt.total_source_energy();
        let expected = 1e-9 * 1.0 * 1.0;
        assert!(
            ((e - expected) / expected).abs() < 0.05,
            "E = {e}, expected {expected}"
        );
    }

    #[test]
    fn rl_circuit_current_rises() {
        // V step into series R-L: i(t) = V/R (1 − e^{−tR/L}).
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::new(
            "v1",
            vin,
            gnd,
            Waveshape::step(0.0, 1.0, 0.0, 1e-12),
        ))
        .unwrap();
        ckt.add(Resistor::new("r1", vin, mid, 100.0).unwrap())
            .unwrap();
        ckt.add(Inductor::new("l1", mid, gnd, 1e-6).unwrap())
            .unwrap();
        // tau = L/R = 10 ns.
        let wave = transient(&mut ckt, TransientSpec::to(100e-9), &SimOptions::default()).unwrap();
        let i_end = wave.last("i(l1)").unwrap();
        assert!((i_end - 0.01).abs() < 2e-4, "i_end = {i_end}");
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut ckt = rc_circuit(1e3, 1e-12);
        // Pulse with corners at 2, 3, 5, 6 ns.
        ckt.device_as_mut::<VoltageSource>("v1")
            .unwrap()
            .set_shape(Waveshape::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 2e-9,
                rise: 1e-9,
                fall: 1e-9,
                width: 2e-9,
                period: f64::INFINITY,
            });
        let wave = transient(&mut ckt, TransientSpec::to(10e-9), &SimOptions::default()).unwrap();
        for corner in [2e-9, 3e-9, 5e-9, 6e-9] {
            assert!(
                wave.axis().iter().any(|&t| (t - corner).abs() < 1e-15),
                "corner {corner} missed"
            );
        }
    }

    #[test]
    fn solver_stats_show_refactorization_reuse() {
        let mut ckt = rc_circuit(1e3, 1e-9);
        let wave = transient(&mut ckt, TransientSpec::to(5e-6), &SimOptions::default()).unwrap();
        let stats = wave.stats().expect("transient records stats");
        assert!(stats.steps_accepted > 10);
        assert_eq!(stats.steps_accepted + 1, wave.len());
        assert!(stats.nr_iterations >= stats.steps_accepted);
        // Every solve is either fresh or a symbolic reuse...
        assert_eq!(
            stats.fresh_factorizations + stats.refactorizations,
            stats.nr_iterations
        );
        // ...and fresh ones happen only at the first solve plus rare
        // pivot-degradation fallbacks: O(fallbacks), not O(steps).
        assert!(
            stats.fresh_factorizations <= 1 + stats.nr_iterations / 50,
            "expected O(fallbacks) fresh factorizations, got {stats:?}"
        );
    }

    #[test]
    fn disabling_reuse_forces_fresh_factorizations() {
        let mut ckt = rc_circuit(1e3, 1e-9);
        let opts = SimOptions {
            reuse_factorization: false,
            ..SimOptions::default()
        };
        let wave = transient(&mut ckt, TransientSpec::to(5e-6), &opts).unwrap();
        let stats = wave.stats().unwrap();
        assert_eq!(stats.refactorizations, 0);
        assert_eq!(stats.fresh_factorizations, stats.nr_iterations);
    }

    #[test]
    fn cached_solver_waveform_is_bitwise_identical() {
        // The cached-refactorization path must not change a single bit of
        // the produced waveform relative to factorize-every-solve.
        let run = |reuse: bool| {
            let mut ckt = rc_circuit(1e3, 1e-9);
            let opts = SimOptions {
                reuse_factorization: reuse,
                ..SimOptions::default()
            };
            transient(&mut ckt, TransientSpec::to(5e-6), &opts).unwrap()
        };
        let cached = run(true);
        let fresh = run(false);
        assert_eq!(cached.len(), fresh.len());
        for (a, b) in cached.axis().iter().zip(fresh.axis()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for name in cached.signal_names() {
            let ta = cached.trace(name).unwrap();
            let tb = fresh.trace(name).unwrap();
            for (a, b) in ta.iter().zip(tb) {
                assert_eq!(a.to_bits(), b.to_bits(), "trace {name} diverged");
            }
        }
    }

    #[test]
    fn rejects_bad_t_stop() {
        let mut ckt = rc_circuit(1e3, 1e-12);
        assert!(transient(&mut ckt, TransientSpec::to(0.0), &SimOptions::default()).is_err());
        assert!(transient(
            &mut ckt,
            TransientSpec::to(f64::NAN),
            &SimOptions::default()
        )
        .is_err());
    }

    #[test]
    fn microsecond_breakpoint_twins_merge() {
        use tcam_numeric::interp::PiecewiseLinear;
        // Two PWL corners 10 attoseconds apart at t = 2 µs: the old absolute
        // 1e-18 dedup tolerance left them distinct, forcing the engine to
        // land two breakpoints an ulp-scale step apart. The relative
        // tolerance (bp_reltol · t_stop = 1e-16 s here) merges them.
        let twin = 2e-6 + 1e-17;
        assert!(twin > 2e-6, "twin corner must be a distinct float");
        let mut ckt = rc_circuit(1e3, 1e-9);
        ckt.device_as_mut::<VoltageSource>("v1")
            .unwrap()
            .set_shape(Waveshape::Pwl(
                PiecewiseLinear::new(
                    vec![0.0, 2e-6, twin, 50e-6, 100e-6],
                    vec![0.0, 0.0, 0.0, 1.0, 0.0],
                )
                .unwrap(),
            ));
        let wave = transient(&mut ckt, TransientSpec::to(100e-6), &SimOptions::default()).unwrap();
        let near_twin = wave
            .axis()
            .iter()
            .filter(|&&t| (t - 2e-6).abs() < 1e-12)
            .count();
        assert_eq!(near_twin, 1, "twin corners must merge to one sample");
        // A genuinely distinct corner is still landed exactly.
        assert!(wave.axis().iter().any(|&t| (t - 50e-6).abs() < 1e-15));
    }

    /// A device that is unsolvable under trapezoidal integration during the
    /// transient (its injected current flips sign with the iterate, so
    /// Newton oscillates at any dt) but benign during the OP and — unless
    /// `breaks_be` — under backward Euler. Exercises the TR→BE ladder rung
    /// in isolation, or with `breaks_be` a step no rung rescues.
    #[derive(Debug)]
    struct TrapBreaker {
        name: String,
        a: crate::node::NodeId,
        breaks_be: bool,
    }

    impl crate::device::Device for TrapBreaker {
        fn name(&self) -> &str {
            &self.name
        }
        fn nodes(&self) -> Vec<crate::node::NodeId> {
            vec![self.a]
        }
        fn load(&self, ctx: &crate::device::EvalCtx<'_>, stamps: &mut crate::device::Stamps<'_>) {
            let v = ctx.v(self.a);
            let hostile = ctx.analysis == AnalysisKind::Transient
                && (self.breaks_be || ctx.integrator == Integrator::Trapezoidal);
            // Identical stamp structure on both branches (device contract).
            if hostile {
                let i0 = if v > 0.25 { 1e-3 } else { -1e-3 };
                stamps.nonlinear_current(self.a, crate::node::NodeId::GROUND, i0, 1e-9, v);
            } else {
                stamps.nonlinear_current(self.a, crate::node::NodeId::GROUND, 1e-3 * v, 1e-3, v);
            }
        }
    }

    fn trap_breaker_circuit(breaks_be: bool) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vin, gnd, 1.0)).unwrap();
        ckt.add(Resistor::new("r1", vin, a, 1e3).unwrap()).unwrap();
        ckt.add(TrapBreaker {
            name: "x1".into(),
            a,
            breaks_be,
        })
        .unwrap();
        ckt
    }

    #[test]
    fn unrescuable_step_underflows_with_a_readable_dump() {
        let mut ckt = trap_breaker_circuit(true);
        let opts = SimOptions {
            integrator: Integrator::Trapezoidal,
            max_nr_iters: 12,
            dt_min: 1e-15,
            ..SimOptions::default()
        };
        let err = transient(&mut ckt, TransientSpec::to(1e-9), &opts).unwrap_err();
        assert!(
            matches!(err, SpiceError::TimestepUnderflow { .. }),
            "got {err:?}"
        );
        // The dump taken on the way out shows the last steps: Newton
        // rejections, each answered by the gmin ramp, the BE fallback and,
        // both failing, a dt shrink. The dump store is process-global, but
        // a later dump by a concurrent test still snapshots this thread's
        // ring, so look this thread up in it.
        let (cause, dump) = tcam_obs::flight_last_dump().expect("underflow takes a dump");
        assert_eq!(cause, "non_convergence");
        let me = std::thread::current();
        let label = format!("{}\",", me.name().unwrap_or("unnamed"));
        let ring = dump
            .split("{\"thread\":\"")
            .find(|ring| ring.starts_with(&label))
            .unwrap_or_else(|| panic!("no ring for {label} in {dump}"));
        let last = |event: &str| ring.rfind(event);
        let reject = last("\"kind\":\"step_reject\",\"a\":0,\"b\":12}");
        let gmin = last("\"kind\":\"rung_engaged\",\"a\":0,");
        let fallback = last("\"kind\":\"rung_engaged\",\"a\":2,");
        let shrink = last("\"kind\":\"rung_engaged\",\"a\":3,");
        assert!(
            reject.is_some() && reject < gmin && gmin < fallback && fallback < shrink,
            "the run ends in a Newton rejection (12 iterations), then the gmin \
             ramp, the BE fallback and the dt shrink: {ring}"
        );
    }

    #[test]
    fn tr_to_be_rung_rescues_trapezoidal_pathology() {
        let mut ckt = trap_breaker_circuit(false);
        let opts = SimOptions {
            integrator: Integrator::Trapezoidal,
            max_nr_iters: 12,
            dt_min: 1e-15,
            dt_initial: 1e-10,
            ..SimOptions::default()
        };
        let wave = transient(&mut ckt, TransientSpec::to(1e-9), &opts).unwrap();
        // Under BE the device is a 1 mS load: v(a) settles to the divider.
        let va = wave.last("v(a)").unwrap();
        assert!((va - 0.5).abs() < 1e-3, "v(a) = {va}");
        let trace = wave.solver_trace().expect("transient records a trace");
        assert!(trace.integrator_fallbacks > 0, "{trace:?}");
        assert!(trace.ladder_recoveries > 0, "{trace:?}");
        assert!(trace.reject_newton > 0);
        assert!(trace.gmin_events > 0, "gmin rung tried before TR→BE");
        assert!(wave.meas_solver("integrator_fallbacks").unwrap() >= 1.0);
        // One ledger: each name has one value, and it holds the work of
        // the ramp stages and failed rungs, not only of the solves that
        // ended a proposal.
        let stats = wave.stats().expect("the trace carries the stats");
        for (name, value) in [
            ("steps_accepted", stats.steps_accepted),
            ("steps_rejected", stats.steps_rejected),
            ("nr_iterations", stats.nr_iterations),
        ] {
            assert_eq!(wave.meas_solver(name).unwrap(), value as f64, "{name}");
        }
        // A rejected proposal spent the whole 12-iteration budget and an
        // accepted one a single BE iteration (the device is linear there).
        let final_solves = 12 * stats.steps_rejected + stats.steps_accepted;
        assert!(
            stats.nr_iterations > final_solves,
            "{} iterations must include the failed gmin stages on top of {final_solves}",
            stats.nr_iterations
        );
        // The JSON line parses shallowly: single line, balanced braces.
        let line = trace.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}') && !line.contains('\n'));
    }

    #[test]
    fn phase_breakdown_is_attached_and_measurable() {
        let mut ckt = rc_circuit(1e3, 1e-9);
        let wave = transient(&mut ckt, TransientSpec::to(5e-6), &SimOptions::default()).unwrap();
        let trace = wave.solver_trace().unwrap();
        if !tcam_obs::enabled() {
            assert!(trace.phases().is_empty());
            return;
        }
        // The run spent real time in every leaf phase of the hot loop, and
        // the spans fired once per Newton iteration / accepted step.
        for phase in ["device_eval", "mna_stamp", "back_solve", "nr_update"] {
            let key = format!("phase_{phase}_ns");
            let ns = wave.meas_solver(&key).unwrap_or(0.0);
            assert!(ns > 0.0, "{key} missing from {:?}", trace.phases());
        }
        let evals = wave.meas_solver("phase_device_eval_count").unwrap();
        assert!(
            evals >= trace.stats.nr_iterations as f64,
            "one device_eval per NR iteration at minimum"
        );
        // Phases ride into the JSON line next to the exact counters.
        let line = trace.to_json_line();
        assert!(line.contains("\"phase_device_eval_ns\":"), "{line}");
    }

    #[test]
    fn easy_run_trace_is_clean() {
        let mut ckt = rc_circuit(1e3, 1e-9);
        let wave = transient(&mut ckt, TransientSpec::to(5e-6), &SimOptions::default()).unwrap();
        let trace = wave.solver_trace().unwrap();
        assert_eq!(trace.stats.steps_accepted + 1, wave.len());
        assert_eq!(trace.ladder_recoveries, 0);
        assert_eq!(trace.integrator_fallbacks, 0);
        assert_eq!(trace.gmin_events, 0);
        assert!(trace.min_dt_used > 0.0 && trace.min_dt_used <= trace.max_dt_used);
    }

    #[test]
    fn waveform_records_energy_signal() {
        let mut ckt = rc_circuit(1e3, 1e-9);
        let wave = transient(&mut ckt, TransientSpec::to(1e-6), &SimOptions::default()).unwrap();
        let e = wave.trace("e(v1)").unwrap();
        // Energy is monotone non-decreasing for a charging RC.
        assert!(e.windows(2).all(|w| w[1] >= w[0] - 1e-18));
        assert!(*e.last().unwrap() > 0.0);
    }
}
