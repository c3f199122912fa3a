//! Dense row-major matrices with a direct solve.
//!
//! The circuit engine solves every system through [`crate::sparse_lu`]; this
//! module is the independent oracle the sparse solver is tested against
//! (plain Gaussian elimination with partial pivoting, short enough to check
//! by eye).

use crate::{NumericError, Result};
use std::ops::{Index, IndexMut};

/// A dense row-major `n_rows × n_cols` matrix of `f64`.
///
/// ```
/// use tcam_numeric::dense::DenseMatrix;
/// # fn main() -> Result<(), tcam_numeric::NumericError> {
/// let mut m = DenseMatrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n_rows × n_cols` matrix of zeros.
    #[must_use]
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if rows have unequal
    /// lengths, and [`NumericError::InvalidInput`] for an empty row set.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(NumericError::InvalidInput("no rows provided".into()));
        }
        let n_cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != n_cols {
                return Err(NumericError::DimensionMismatch {
                    expected: format!("row of len {n_cols}"),
                    found: format!("row {i} of len {}", r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            n_rows: rows.len(),
            n_cols,
            data,
        })
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n_cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.n_cols),
                found: format!("len {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for non-square input or
    /// `b.len() != n`, and [`NumericError::SingularMatrix`] when a pivot
    /// underflows.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.n_rows != self.n_cols {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.n_rows, self.n_cols),
            });
        }
        let n = self.n_rows;
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {n}"),
                found: format!("len {}", b.len()),
            });
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut p = k;
            let mut pmax = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < f64::MIN_POSITIVE || !pmax.is_finite() {
                return Err(NumericError::SingularMatrix { column: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                x.swap(k, p);
            }
            for i in (k + 1)..n {
                let factor = a[i * n + k] / a[k * n + k];
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        a[i * n + j] -= factor * a[k * n + j];
                    }
                    x[i] -= factor * x[k];
                }
            }
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= a[i * n + j] * x[j];
            }
            x[i] = s / a[i * n + i];
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.n_rows && c < self.n_cols, "index out of bounds");
        &self.data[r * self.n_cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.n_rows && c < self.n_cols, "index out of bounds");
        &mut self.data[r * self.n_cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        ax.iter()
            .zip(b)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()))
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the (0,0) diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]).unwrap();
        let x = a.solve(&[4.0, 5.0]).unwrap();
        assert!(residual(&a, &x, &[4.0, 5.0]) < 1e-12);
    }

    #[test]
    fn solve_3x3_known_solution() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]])
            .unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn from_rows_ragged_errors() {
        let r0: &[f64] = &[1.0, 2.0];
        let r1: &[f64] = &[3.0];
        assert!(DenseMatrix::from_rows(&[r0, r1]).is_err());
    }

    #[test]
    fn dimension_checks() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        assert!(DenseMatrix::zeros(2, 2).solve(&[1.0]).is_err());
    }

    #[test]
    fn random_solve_roundtrip() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x2545F4914F6CDD1D_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for n in [1usize, 2, 5, 17, 40] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += 2.0; // diagonal dominance => well-conditioned
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.solve(&b).unwrap();
            assert!(residual(&a, &x, &b) < 1e-9, "n={n}");
        }
    }
}
