//! Scalar root finding.
//!
//! Device calibration reduces to 1-D root problems — e.g. "find the beam
//! stiffness whose pull-in voltage is 0.53 V" or "find the gap at which the
//! electrostatic and spring forces balance". [`brent`] is the workhorse;
//! [`bisect`] is the slow-but-certain fallback the tests cross-check against.

use crate::{NumericError, Result};

/// Options controlling a root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootOptions {
    /// Absolute tolerance on the root location.
    pub x_tol: f64,
    /// Absolute tolerance on the function value.
    pub f_tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for RootOptions {
    fn default() -> Self {
        Self {
            x_tol: 1e-12,
            f_tol: 1e-12,
            max_iter: 200,
        }
    }
}

fn check_bracket(fa: f64, fb: f64) -> Result<()> {
    if fa.is_nan() || fb.is_nan() {
        return Err(NumericError::InvalidInput(
            "function returned NaN at a bracket endpoint".into(),
        ));
    }
    if fa * fb > 0.0 {
        return Err(NumericError::InvalidInput(format!(
            "bracket does not straddle a root: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )));
    }
    Ok(())
}

/// Bisection on a bracketing interval `[a, b]` with `f(a)·f(b) ≤ 0`.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a non-bracketing interval and
/// [`NumericError::NoConvergence`] when the budget runs out.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    opt: RootOptions,
) -> Result<f64> {
    let mut fa = f(a);
    let fb = f(b);
    check_bracket(fa, fb)?;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    for _ in 0..opt.max_iter {
        let m = 0.5 * (a + b);
        let fm = f(m);
        if fm == 0.0 || (b - a).abs() < opt.x_tol || fm.abs() < opt.f_tol {
            return Ok(m);
        }
        if fa * fm < 0.0 {
            b = m;
        } else {
            a = m;
            fa = fm;
        }
    }
    Err(NumericError::NoConvergence {
        iterations: opt.max_iter,
        residual: (b - a).abs(),
    })
}

/// Brent's method: inverse-quadratic interpolation with bisection safeguard.
///
/// Converges superlinearly on smooth functions while never leaving the
/// bracket; the standard choice for robust scalar root finding.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a non-bracketing interval and
/// [`NumericError::NoConvergence`] when the budget runs out.
///
/// ```
/// use tcam_numeric::roots::{brent, RootOptions};
/// # fn main() -> Result<(), tcam_numeric::NumericError> {
/// let root = brent(|x| x * x - 2.0, 0.0, 2.0, RootOptions::default())?;
/// assert!((root - 2.0_f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    opt: RootOptions,
) -> Result<f64> {
    let mut fa = f(a);
    let mut fb = f(b);
    check_bracket(fa, fb)?;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..opt.max_iter {
        if fb.abs() < opt.f_tol || (b - a).abs() < opt.x_tol {
            return Ok(b);
        }
        let s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant step.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let cond1 = !((lo.min(b) < s) && (s < lo.max(b)));
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= d.abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < opt.x_tol;
        let cond5 = !mflag && d.abs() < opt.x_tol;

        let s = if cond1 || cond2 || cond3 || cond4 || cond5 {
            mflag = true;
            0.5 * (a + b)
        } else {
            mflag = false;
            s
        };
        let fs = f(s);
        d = b - c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumericError::NoConvergence {
        iterations: opt.max_iter,
        residual: fb.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_sqrt2() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, RootOptions::default()).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_matches_brent() {
        let f = |x: f64| x.exp() - 3.0;
        let rb = brent(f, 0.0, 2.0, RootOptions::default()).unwrap();
        let ri = bisect(f, 0.0, 2.0, RootOptions::default()).unwrap();
        assert!((rb - ri).abs() < 1e-8);
        assert!((rb - 3.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn endpoint_roots_returned_directly() {
        assert_eq!(brent(|x| x, 0.0, 1.0, RootOptions::default()).unwrap(), 0.0);
        assert_eq!(
            bisect(|x| x - 1.0, 0.0, 1.0, RootOptions::default()).unwrap(),
            1.0
        );
    }

    #[test]
    fn non_bracketing_rejected() {
        assert!(brent(|x| x * x + 1.0, -1.0, 1.0, RootOptions::default()).is_err());
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, RootOptions::default()).is_err());
    }

    #[test]
    fn nan_endpoint_rejected() {
        assert!(brent(|_| f64::NAN, 0.0, 1.0, RootOptions::default()).is_err());
    }

    #[test]
    fn brent_handles_steep_function() {
        // Nearly-discontinuous function, like a pull-in threshold.
        let f = |x: f64| ((x - 0.53) * 1e6).tanh();
        let r = brent(f, 0.0, 1.0, RootOptions::default()).unwrap();
        assert!((r - 0.53).abs() < 1e-6);
    }

    #[test]
    fn budget_exhaustion_reports_no_convergence() {
        let opt = RootOptions {
            x_tol: 0.0,
            f_tol: 0.0,
            max_iter: 3,
        };
        // With zero tolerances and a tiny budget, bisection must fail.
        assert!(matches!(
            bisect(|x| x - 0.3, 0.0, 1.0, opt),
            Err(NumericError::NoConvergence { .. })
        ));
    }
}
