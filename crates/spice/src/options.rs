//! Simulation tolerances and engine configuration.

/// Numerical integration method for the transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first order. Damps the NEM contact event
    /// without ringing; the default.
    #[default]
    BackwardEuler,
    /// Trapezoidal: A-stable, second order, can ring on discontinuities.
    Trapezoidal,
}

/// Engine options. [`SimOptions::default`] matches SPICE defaults where they
/// exist and conservative values elsewhere; the TCAM experiments override
/// only `dt_max`/`lte_tol`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Relative convergence tolerance on unknowns (SPICE `RELTOL`).
    pub reltol: f64,
    /// Absolute node-voltage tolerance in volts (SPICE `VNTOL`).
    pub vntol: f64,
    /// Absolute branch-current tolerance in amps (SPICE `ABSTOL`).
    pub abstol: f64,
    /// Conductance added from every node to ground for conditioning.
    pub gmin: f64,
    /// Newton iteration budget per solve.
    pub max_nr_iters: usize,
    /// Largest Newton update applied per iteration (per unknown, volts);
    /// larger proposed updates damp the whole step.
    pub nr_damping_limit: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Reuse the sparse symbolic factorization across Newton iterations and
    /// time steps (refactorizing values only, with a pivot-growth fallback
    /// to a fresh full-pivoting factorization). Disable as a safety valve to
    /// force a fresh factorization on every solve.
    pub reuse_factorization: bool,
    /// Initial transient step as a fraction of the span (if `dt_initial` ≤ 0).
    pub dt_initial_fraction: f64,
    /// Explicit initial step (overrides the fraction when > 0).
    pub dt_initial: f64,
    /// Smallest transient step before declaring underflow.
    pub dt_min: f64,
    /// Largest transient step.
    pub dt_max: f64,
    /// Target local truncation error per step, in volts.
    pub lte_tol: f64,
    /// Grow the step by this factor after an easy (few-iteration) solve.
    pub dt_grow: f64,
    /// Shrink the step by this factor on rejection.
    pub dt_shrink: f64,
    /// Gmin-stepping ladder for hard operating points: start value.
    pub gmin_step_start: f64,
    /// Number of gmin-stepping decades.
    pub gmin_step_decades: usize,
    /// Enable the convergence-recovery ladder (gmin ramp, source stepping
    /// for the initial OP, TR→BE integrator fallback) before the plain dt
    /// shrink. Off by default so existing flows are bit-identical.
    pub recovery_ladder: bool,
    /// Source-stepping stages when the ladder ramps independent sources
    /// 0 → 1 for a hard initial operating point.
    pub source_step_points: usize,
    /// Relative breakpoint-dedup tolerance: two breakpoints closer than
    /// `bp_reltol · t_stop` are merged. Kept far below `reltol` so genuine
    /// sub-ns source corners in µs-scale runs stay distinct.
    pub bp_reltol: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            reltol: 1e-4,
            vntol: 1e-7,
            abstol: 1e-12,
            gmin: 1e-12,
            max_nr_iters: 100,
            nr_damping_limit: 1.0,
            integrator: Integrator::default(),
            reuse_factorization: true,
            dt_initial_fraction: 1e-4,
            dt_initial: 0.0,
            dt_min: 1e-18,
            dt_max: f64::INFINITY,
            lte_tol: 1e-3,
            dt_grow: 1.6,
            dt_shrink: 0.25,
            gmin_step_start: 1e-3,
            gmin_step_decades: 10,
            recovery_ladder: false,
            source_step_points: 10,
            bp_reltol: 1e-12,
        }
    }
}

impl SimOptions {
    /// Convenience: default options with the given integrator.
    #[must_use]
    pub fn with_integrator(integrator: Integrator) -> Self {
        Self {
            integrator,
            ..Self::default()
        }
    }

    /// Returns options tightened for sub-nanosecond TCAM transients
    /// (smaller max step, tighter LTE).
    #[must_use]
    pub fn fast_transient() -> Self {
        Self {
            dt_max: 20e-12,
            lte_tol: 2e-4,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SimOptions::default();
        assert!(o.reltol > 0.0 && o.reltol < 1.0);
        assert!(o.gmin > 0.0);
        assert!(o.dt_shrink < 1.0 && o.dt_grow > 1.0);
        assert_eq!(o.integrator, Integrator::BackwardEuler);
        // The ladder is opt-in and the breakpoint tolerance must sit far
        // below the Newton reltol or µs-scale runs merge real source edges.
        assert!(!o.recovery_ladder);
        assert!(o.source_step_points >= 2);
        assert!(o.bp_reltol < o.reltol);
    }

    #[test]
    fn with_integrator_overrides_only_method() {
        let o = SimOptions::with_integrator(Integrator::Trapezoidal);
        assert_eq!(o.integrator, Integrator::Trapezoidal);
        assert_eq!(o.reltol, SimOptions::default().reltol);
    }

    #[test]
    fn fast_transient_tightens() {
        let o = SimOptions::fast_transient();
        assert!(o.dt_max < 1e-9);
        assert!(o.lte_tol < SimOptions::default().lte_tol);
    }
}
