//! Sparse matrix storage: triplet assembly and compressed sparse column.
//!
//! Circuit matrices are assembled by *stamping* — many small additive
//! contributions at `(row, col)` pairs, with heavy duplication (every device
//! touching a node adds to the same diagonal). [`TripletMatrix`] collects the
//! stamps; [`CscMatrix`] is the de-duplicated column-compressed form consumed
//! by the LU factorization in [`crate::sparse_lu`].
//!
//! Because the MNA pattern is fixed across Newton iterations and time steps,
//! [`TripletMatrix::to_csc`] also returns a [`StampMap`] that lets the engine
//! re-fill the CSC values array in O(nnz) without re-sorting.

use crate::{NumericError, Result};

/// Coordinate-format (COO) sparse matrix builder with duplicate-summing.
///
/// ```
/// use tcam_numeric::sparse::TripletMatrix;
/// let mut t = TripletMatrix::new(2, 2);
/// t.add(0, 0, 1.0);
/// t.add(0, 0, 2.0); // duplicates are summed on compression
/// t.add(1, 1, 4.0);
/// let (csc, _map) = t.to_csc().unwrap();
/// assert_eq!(csc.get(0, 0), 3.0);
/// assert_eq!(csc.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TripletMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty `n_rows × n_cols` builder.
    #[must_use]
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of raw (pre-deduplication) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Returns `true` when no entries have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Records an additive stamp at `(row, col)` and returns its stamp index
    /// (the position in the [`StampMap`]).
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of bounds — stamping out of range
    /// is a programming error in the netlist builder, not a runtime input.
    pub fn add(&mut self, row: usize, col: usize, val: f64) -> usize {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "stamp ({row},{col}) outside {}x{} matrix",
            self.n_rows,
            self.n_cols
        );
        let idx = self.vals.len();
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        idx
    }

    /// Compresses to CSC, summing duplicates, and returns the map from stamp
    /// index to CSC value slot.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] when the builder is empty.
    pub fn to_csc(&self) -> Result<(CscMatrix, StampMap)> {
        if self.is_empty() {
            return Err(NumericError::InvalidInput(
                "cannot compress an empty triplet matrix".into(),
            ));
        }
        // Sort entry indices by (col, row).
        let mut order: Vec<usize> = (0..self.vals.len()).collect();
        order.sort_unstable_by_key(|&i| (self.cols[i], self.rows[i]));

        let mut col_ptr = vec![0usize; self.n_cols + 1];
        let mut row_idx: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut slot_of_stamp = vec![0usize; self.vals.len()];

        let mut prev: Option<(usize, usize)> = None;
        for &i in &order {
            let key = (self.cols[i], self.rows[i]);
            if prev == Some(key) {
                let slot = values.len() - 1;
                values[slot] += self.vals[i];
                slot_of_stamp[i] = slot;
            } else {
                row_idx.push(self.rows[i]);
                values.push(self.vals[i]);
                slot_of_stamp[i] = values.len() - 1;
                col_ptr[key.0 + 1] += 1;
                prev = Some(key);
            }
        }
        for c in 0..self.n_cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        Ok((
            CscMatrix {
                n_rows: self.n_rows,
                n_cols: self.n_cols,
                col_ptr,
                row_idx,
                values,
            },
            StampMap { slot_of_stamp },
        ))
    }
}

/// Maps stamp indices (returned by [`TripletMatrix::add`]) to value slots in
/// the compressed matrix, enabling O(nnz) refills of [`CscMatrix::values_mut`]
/// with an unchanged sparsity pattern.
#[derive(Debug, Clone)]
pub struct StampMap {
    slot_of_stamp: Vec<usize>,
}

impl StampMap {
    /// The CSC value slot for stamp `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a stamp index from the originating builder.
    #[must_use]
    pub fn slot(&self, i: usize) -> usize {
        self.slot_of_stamp[i]
    }

    /// Number of stamps recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slot_of_stamp.len()
    }

    /// Returns `true` when no stamps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slot_of_stamp.is_empty()
    }

    /// Scatters per-stamp values into a zeroed CSC values array.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `stamp_vals.len()`
    /// differs from the stamp count.
    pub fn scatter(&self, stamp_vals: &[f64], csc_values: &mut [f64]) -> Result<()> {
        if stamp_vals.len() != self.slot_of_stamp.len() {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.slot_of_stamp.len()),
                found: format!("len {}", stamp_vals.len()),
            });
        }
        csc_values.fill(0.0);
        for (v, &slot) in stamp_vals.iter().zip(&self.slot_of_stamp) {
            csc_values[slot] += v;
        }
        Ok(())
    }
}

/// Compressed sparse column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structurally nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (`n_cols + 1` entries).
    #[must_use]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array, parallel to [`Self::values`].
    #[must_use]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to stored values for in-place refill via [`StampMap`].
    #[must_use]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Value at `(row, col)`; zero when the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "index out of bounds"
        );
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        match self.row_idx[lo..hi].binary_search(&row) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] when `x.len() != n_cols`.
    #[allow(clippy::needless_range_loop)] // CSC traversal is column-indexed
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n_cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.n_cols),
                found: format!("len {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for col in 0..self.n_cols {
            let xc = x[col];
            if xc == 0.0 {
                continue;
            }
            for k in self.col_ptr[col]..self.col_ptr[col + 1] {
                y[self.row_idx[k]] += self.values[k] * xc;
            }
        }
        Ok(y)
    }

    /// Converts to a dense matrix (test/debug helper; O(n_rows · n_cols)).
    #[must_use]
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.n_rows, self.n_cols);
        for col in 0..self.n_cols {
            for k in self.col_ptr[col]..self.col_ptr[col + 1] {
                d[(self.row_idx[k], col)] = self.values[k];
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(1, 1, 2.0);
        t.add(1, 1, 3.0);
        t.add(0, 2, -1.0);
        let (csc, _) = t.to_csc().unwrap();
        assert_eq!(csc.nnz(), 2);
        assert_eq!(csc.get(1, 1), 5.0);
        assert_eq!(csc.get(0, 2), -1.0);
        assert_eq!(csc.get(2, 2), 0.0);
    }

    #[test]
    fn empty_compression_errors() {
        let t = TripletMatrix::new(2, 2);
        assert!(t.to_csc().is_err());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_stamp_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(2, 0, 1.0);
    }

    #[test]
    fn stamp_map_refill_matches_rebuild() {
        let mut t = TripletMatrix::new(2, 2);
        let s0 = t.add(0, 0, 1.0);
        let s1 = t.add(0, 0, 2.0);
        let s2 = t.add(1, 0, 4.0);
        let s3 = t.add(1, 1, 8.0);
        let (mut csc, map) = t.to_csc().unwrap();
        // Refill with new stamp values.
        let mut vals = vec![0.0; map.len()];
        vals[s0] = 10.0;
        vals[s1] = 20.0;
        vals[s2] = 40.0;
        vals[s3] = 80.0;
        map.scatter(&vals, csc.values_mut()).unwrap();
        assert_eq!(csc.get(0, 0), 30.0);
        assert_eq!(csc.get(1, 0), 40.0);
        assert_eq!(csc.get(1, 1), 80.0);
    }

    #[test]
    fn scatter_length_check() {
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 1.0);
        let (mut csc, map) = t.to_csc().unwrap();
        assert!(map.scatter(&[1.0, 2.0], csc.values_mut()).is_err());
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 3.0);
        t.add(2, 2, -1.0);
        t.add(0, 2, 5.0);
        let (csc, _) = t.to_csc().unwrap();
        let x = [1.0, 2.0, 3.0];
        let y_sparse = csc.mul_vec(&x).unwrap();
        let y_dense = csc.to_dense().mul_vec(&x).unwrap();
        assert_eq!(y_sparse, y_dense);
    }

    #[test]
    fn col_ptr_is_monotone_and_complete() {
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.add(i, i, 1.0);
        }
        t.add(3, 0, 2.0);
        let (csc, _) = t.to_csc().unwrap();
        let cp = csc.col_ptr();
        assert_eq!(cp.len(), 5);
        assert!(cp.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cp.last().unwrap(), csc.nnz());
    }
}
