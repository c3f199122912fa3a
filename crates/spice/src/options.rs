//! Engine configuration: the ten values some caller sets.
//!
//! A field is here because code in this repository assigns it a value
//! other than its default — an experiment (`gmin`, `dt_max`, `lte_tol`:
//! the retention study runs at `1e-18` / `t_max/500` / `5e-3`) or a test
//! that has to build the circuit a kept behaviour needs (a starved
//! `max_nr_iters`, the trapezoidal `integrator`, `reuse_factorization`
//! off as the bit-identity oracle, an explicit `dt_initial` / `dt_min`,
//! a disabled gmin ramp). Every other tolerance of the engine has one
//! value and is a private constant documented where it is read: the
//! Newton convergence test and damping limit in [`crate::newton`], the
//! step-size control and breakpoint merge in `analysis::transient`, the
//! source-stepping stage count in `analysis::op`. The convergence-recovery
//! ladder is not configurable: every analysis walks it on a Newton failure.

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
/// exist and conservative values elsewhere; of the TCAM experiments only the
/// retention study overrides anything (`gmin`, `dt_max`, `lte_tol`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Conductance added from every node to ground for conditioning.
    pub gmin: f64,
    /// Newton iteration budget per solve.
    pub max_nr_iters: usize,
    /// Integration method.
    pub integrator: Integrator,
    /// Reuse the sparse symbolic factorization across Newton iterations and
    /// time steps (refactorizing values only, with a pivot-growth fallback
    /// to a fresh full-pivoting factorization). Disable as a safety valve to
    /// force a fresh factorization on every solve.
    pub reuse_factorization: bool,
    /// Explicit initial transient step (when ≤ 0, a fixed fraction of the
    /// span).
    pub dt_initial: f64,
    /// Smallest transient step before declaring underflow.
    pub dt_min: f64,
    /// Largest transient step.
    pub dt_max: f64,
    /// Target local truncation error per step, in volts.
    pub lte_tol: f64,
    /// Gmin ramp of the recovery ladder: start value.
    pub gmin_step_start: f64,
    /// Number of gmin-ramp decades.
    pub gmin_step_decades: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            gmin: 1e-12,
            max_nr_iters: 100,
            integrator: Integrator::default(),
            reuse_factorization: true,
            dt_initial: 0.0,
            dt_min: 1e-18,
            dt_max: f64::INFINITY,
            lte_tol: 1e-3,
            gmin_step_start: 1e-3,
            gmin_step_decades: 10,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SimOptions::default();
        assert!(o.gmin > 0.0 && o.gmin < o.gmin_step_start);
        assert!(o.dt_min > 0.0 && o.dt_min < o.dt_max);
        assert_eq!(o.integrator, Integrator::BackwardEuler);
    }

    #[test]
    fn with_integrator_overrides_only_method() {
        let o = SimOptions::with_integrator(Integrator::Trapezoidal);
        assert_eq!(o.integrator, Integrator::Trapezoidal);
        assert_eq!(o.lte_tol, SimOptions::default().lte_tol);
    }
}
