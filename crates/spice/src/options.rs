//! Engine configuration: the eight values some caller sets.
//!
//! A field is here because code in this repository assigns it a value
//! other than its default; the doc of each field names who does. Every
//! other tolerance of the engine has one value and is a private constant
//! documented where it is read: the Newton convergence test and damping
//! limit in [`crate::newton`], the first step, step-size control and
//! breakpoint merge in `analysis::transient`, the source-stepping stage
//! count in `analysis::op`. The integration method is backward Euler,
//! the only one the engine has. The convergence-recovery ladder is not
//! configurable: every analysis walks it on a Newton failure.

/// Engine options. [`SimOptions::default`] matches SPICE defaults where they
/// exist and conservative values elsewhere; of the TCAM experiments only the
/// retention study overrides anything (`gmin`, `dt_max`, `lte_tol`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Conductance added from every node to ground for conditioning. Set by
    /// the retention study (`1e-18`) and, at `0`, by `torture.rs`'s
    /// floating-node test.
    pub gmin: f64,
    /// Newton iteration budget per solve. Starved by the Newton, operating
    /// point, transient-ladder and `torture.rs` tests so a solve fails.
    pub max_nr_iters: usize,
    /// Reuse the sparse symbolic factorization across Newton iterations and
    /// time steps (refactorizing values only, with a pivot-growth fallback
    /// to a fresh full-pivoting factorization). Disable as a safety valve to
    /// force a fresh factorization on every solve; the bit-identity tests
    /// (`cached_solver_waveform_is_bitwise_identical`, `prop_models.rs`)
    /// use it as their oracle.
    pub reuse_factorization: bool,
    /// Smallest transient step before declaring underflow. Raised by the
    /// transient recovery-ladder tests so an unrescuable step underflows
    /// quickly.
    pub dt_min: f64,
    /// Largest transient step. Set by the retention study (`t_max/500`)
    /// and `prop_models.rs`.
    pub dt_max: f64,
    /// Target local truncation error per step, in volts. Set by the
    /// retention study (`5e-3`), `prop_models.rs` and the underdamped-RLC
    /// check in `tests/analytic.rs`.
    pub lte_tol: f64,
    /// Gmin ramp of the recovery ladder: start value. Set to the target by
    /// `torture.rs` to disable the ramp.
    pub gmin_step_start: f64,
    /// Number of gmin-ramp decades. Zeroed by `torture.rs` with
    /// `gmin_step_start`.
    pub gmin_step_decades: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            gmin: 1e-12,
            max_nr_iters: 100,
            reuse_factorization: true,
            dt_min: 1e-18,
            dt_max: f64::INFINITY,
            lte_tol: 1e-3,
            gmin_step_start: 1e-3,
            gmin_step_decades: 10,
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
    }
}
