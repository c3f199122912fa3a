//! Numerical kernels for the `nem-tcam` circuit simulator.
//!
//! This crate provides the math substrate that `tcam-spice` builds on:
//!
//! * [`dense`] — dense row-major matrices with a direct solve, the oracle
//!   the sparse solver is tested against.
//! * [`sparse`] — triplet assembly and compressed-sparse-column storage
//!   for large circuit matrices.
//! * [`sparse_lu`] — a left-looking (Gilbert–Peierls style) sparse LU
//!   factorization with a fill-reducing column order, partial pivoting and
//!   a reusable symbolic pattern.
//! * [`roots`] — scalar root finding (bisection, Brent) used for device
//!   calibration (e.g. solving pull-in voltage for a beam stiffness).
//! * [`interp`] — piecewise-linear evaluation used by PWL sources and
//!   waveform post-processing.
//! * [`stats`] — summary statistics for Monte-Carlo and architectural
//!   experiments.
//! * [`rng`] — a seedable SplitMix64 generator with uniform, normal
//!   (Box–Muller) and exponential draws, so the Monte-Carlo studies need
//!   no external `rand` dependency.
//! * [`parallel`] — a scoped-thread, share-nothing `parallel_map` for
//!   fanning independent trials across cores.
//!
//! The crate is dependency-free and deterministic: identical inputs produce
//! bit-identical outputs, which the reproducibility tests rely on.
//!
//! # Example
//!
//! ```
//! use tcam_numeric::dense::DenseMatrix;
//!
//! # fn main() -> Result<(), tcam_numeric::NumericError> {
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = a.solve(&[1.0, 2.0])?;
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod dense;
pub mod interp;
pub mod parallel;
pub mod rng;
pub mod roots;
pub mod sparse;
pub mod sparse_lu;
pub mod stats;

use std::fmt;

/// Error type for every fallible operation in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// Matrix dimensions do not agree with the requested operation.
    DimensionMismatch {
        /// What was expected (e.g. "square matrix", "len 4").
        expected: String,
        /// What was provided.
        found: String,
    },
    /// A factorization encountered an (numerically) singular pivot.
    SingularMatrix {
        /// Column of the matrix (in the caller's numbering, whatever order
        /// the factorization eliminates in) whose elimination broke down.
        column: usize,
    },
    /// A reused (symbolic) pivot order degraded on the new values; the
    /// caller should fall back to a fresh factorization.
    PivotDegraded {
        /// Column of the matrix (in the caller's numbering) whose reused
        /// pivot failed the growth check.
        column: usize,
    },
    /// An iterative routine failed to converge within its budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual or bracket width at the final iterate.
        residual: f64,
    },
    /// Input values were invalid (NaN, empty, non-monotonic, ...).
    InvalidInput(String),
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumericError::SingularMatrix { column } => {
                write!(f, "singular matrix at pivot column {column}")
            }
            NumericError::PivotDegraded { column } => {
                write!(
                    f,
                    "reused pivot degraded at column {column}; refactorize needs a fresh factorization"
                )
            }
            NumericError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            NumericError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for NumericError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NumericError>;

/// Returns `true` when `a` and `b` agree to within `rel` relative tolerance
/// or `abs` absolute tolerance (whichever is looser), the standard
/// mixed-tolerance comparison used throughout the simulator.
///
/// ```
/// assert!(tcam_numeric::approx_eq(1.0, 1.0 + 1e-13, 1e-9, 1e-12));
/// assert!(!tcam_numeric::approx_eq(1.0, 1.1, 1e-9, 1e-12));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_branch() {
        assert!(approx_eq(0.0, 1e-13, 1e-9, 1e-12));
        assert!(!approx_eq(0.0, 1e-11, 1e-9, 1e-12));
    }

    #[test]
    fn approx_eq_relative_branch() {
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-10), 1e-9, 1e-12));
        assert!(!approx_eq(1e6, 1e6 * (1.0 + 1e-8), 1e-9, 1e-12));
    }

    #[test]
    fn error_display_is_informative() {
        let e = NumericError::SingularMatrix { column: 3 };
        assert!(e.to_string().contains("column 3"));
        let e = NumericError::NoConvergence {
            iterations: 10,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("10"));
    }
}
