//! Sparse LU factorization `P·A·Q = L·U` (left-looking, fill-reducing
//! column order, partial pivoting) with a reusable symbolic phase.
//!
//! This is a Gilbert–Peierls-style factorization specialized for circuit
//! matrices: column-by-column elimination with a dense working column
//! (a SPAX vector), partial pivoting by magnitude, and L/U stored in CSC
//! form, verified against the dense oracle [`crate::dense::DenseMatrix::solve`].
//!
//! **Column order.** `Q` is a permutation `q` computed once per
//! [`SparseLu::factorize`] from the pattern alone: greedy minimum degree on
//! the graph of `A + Aᵀ`, ties to the lowest index, so it is deterministic.
//! Step k eliminates column `q[k]`; the row permutation `P` is still chosen
//! numerically inside that column. An MNA matrix is a set of ladders hanging
//! off a few shared lines, and eliminating in the natural (node-numbering)
//! order fills it in almost completely — 29–48× nnz(A) on the 64×64 search
//! arrays — while the minimum-degree order keeps nnz(L+U) near 1.2× nnz(A),
//! which is what every refactorization and back-solve then works on.
//!
//! The order lives here rather than in the circuit layer's system assembly
//! so that it exists in one place and serves every caller: the unknown
//! numbering, stamp maps and waveform node order above never see `q`,
//! [`SparseLu::solve`] returns `x` in the caller's numbering, and the
//! `column` of [`NumericError::SingularMatrix`] /
//! [`NumericError::PivotDegraded`] is mapped back to the original index
//! exactly once, below.
//!
//! Circuit matrices have a **fixed sparsity pattern** across Newton
//! iterations and time steps — only the values change. [`SparseLu::factorize`]
//! therefore captures the full symbolic result (column elimination
//! patterns, pivot order, preallocated L/U storage), and
//! [`SparseLu::refactorize`] redoes only the numeric elimination over that
//! pattern with **zero allocation**, which is the production-SPICE
//! (KLU-style) split between symbolic and numeric factorization. A pivot
//! growth check guards the reused pivot order: when the new values make a
//! reused pivot relatively tiny, `refactorize` reports
//! [`NumericError::PivotDegraded`] and the caller falls back to a fresh
//! [`SparseLu::factorize`], which recomputes the same `q` and re-pivots.

use crate::sparse::CscMatrix;
use crate::{NumericError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Relative pivot-growth threshold for [`SparseLu::refactorize`]: a reused
/// pivot smaller than this fraction of the largest candidate magnitude in
/// its column triggers the full-pivoting fallback. The same 1e-3 default as
/// KLU's partial-pivot tolerance.
const REFACTOR_PIVOT_TOL: f64 = 1e-3;

/// Greedy minimum-degree elimination order on the graph of `A + Aᵀ`,
/// ties to the lowest index.
///
/// The elimination graph is explicit (one adjacency list per vertex,
/// eliminating `v` joins its neighbours into a clique) under a lazy-deletion
/// degree heap, so the cost is proportional to the fill the order produces —
/// near-linear on the ladder-like patterns it is for.
fn min_degree_order(a: &CscMatrix) -> Vec<usize> {
    let n = a.n_cols();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        for &i in &a.row_idx()[a.col_ptr()[j]..a.col_ptr()[j + 1]] {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    // Heap key: degree in the high half, vertex in the low, so one integer
    // compare orders by (degree, index).
    assert!(n <= u32::MAX as usize, "matrix too large to order");
    let key = |degree: usize, v: usize| Reverse((degree as u64) << 32 | v as u64);
    let mut heap: BinaryHeap<Reverse<u64>> = adj
        .iter()
        .enumerate()
        .map(|(v, list)| key(list.len(), v))
        .collect();
    let mut eliminated = vec![false; n];
    // seen[w] == stamp ⇔ w is already in the list being extended.
    let mut seen = vec![0usize; n];
    let mut stamp = 0usize;
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Reverse(popped) = heap.pop().expect("a live entry per remaining vertex");
        let v = (popped & u64::from(u32::MAX)) as usize;
        // Every degree change pushes a new entry; older ones are stale.
        if eliminated[v] || Reverse(popped) != key(adj[v].len(), v) {
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        let clique = std::mem::take(&mut adj[v]);
        for &u in &clique {
            stamp += 1;
            seen[u] = stamp;
            adj[u].retain(|&w| w != v);
            for &w in &adj[u] {
                seen[w] = stamp;
            }
            for &w in &clique {
                if seen[w] != stamp {
                    adj[u].push(w);
                }
            }
            heap.push(key(adj[u].len(), u));
        }
    }
    order
}

/// A sparse LU factorization `P·A·Q = L·U` of a square [`CscMatrix`].
///
/// The L/U **pattern** stored here is structural: every position reachable
/// by the elimination is kept even when its first numeric value happens to
/// be zero, so the pattern stays valid for any later value assignment with
/// the same sparsity — the invariant [`SparseLu::refactorize`] relies on.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column-compressed unit-lower-triangular factor (diagonal implicit).
    l_col_ptr: Vec<usize>,
    l_row_idx: Vec<usize>,
    l_values: Vec<f64>,
    /// Column-compressed upper-triangular factor: off-diagonals sorted by
    /// ascending pivot row, diagonal stored last per column.
    u_col_ptr: Vec<usize>,
    u_row_idx: Vec<usize>,
    u_values: Vec<f64>,
    /// Row permutation: `perm[k]` is the original row index placed at row k.
    perm: Vec<usize>,
    /// Column order: `q[k]` is the original column eliminated at step k.
    q: Vec<usize>,
    /// Dense working column (original-row indexed), kept zeroed between
    /// calls so `refactorize` allocates nothing.
    work: Vec<f64>,
    /// Gather buffer for `solve_in_place`.
    scratch: Vec<f64>,
}

impl SparseLu {
    /// Factorizes `a` from scratch: computes the fill-reducing column order
    /// from the pattern, chooses a fresh pivot row in each column by partial
    /// (magnitude) pivoting and captures the symbolic pattern for later
    /// [`SparseLu::refactorize`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for non-square input and
    /// [`NumericError::SingularMatrix`] (naming the original column) when
    /// no usable pivot exists in a column.
    pub fn factorize(a: &CscMatrix) -> Result<Self> {
        if a.n_rows() != a.n_cols() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.n_rows(), a.n_cols()),
            });
        }
        let n = a.n_rows();
        let q = min_degree_order(a);
        // pinv[orig_row] = factored position, or usize::MAX while unpivoted.
        let mut pinv = vec![usize::MAX; n];
        let mut perm = vec![usize::MAX; n];

        let mut l_col_ptr = vec![0usize];
        let mut l_row_idx: Vec<usize> = Vec::new();
        let mut l_values: Vec<f64> = Vec::new();
        let mut u_col_ptr = vec![0usize];
        let mut u_row_idx: Vec<usize> = Vec::new();
        let mut u_values: Vec<f64> = Vec::new();

        // Dense working column indexed by *original* row id.
        let mut work = vec![0.0_f64; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);
        let mut in_pattern = vec![false; n];
        // Scratch for sorting one U column by pivot row.
        let mut u_col_sort: Vec<(usize, f64)> = Vec::with_capacity(n);

        let col_ptr = a.col_ptr();
        let row_idx = a.row_idx();
        let values = a.values();

        for (k, &col) in q.iter().enumerate() {
            // Scatter column q[k] of A into the working vector.
            pattern.clear();
            for idx in col_ptr[col]..col_ptr[col + 1] {
                let r = row_idx[idx];
                work[r] = values[idx];
                if !in_pattern[r] {
                    in_pattern[r] = true;
                    pattern.push(r);
                }
            }

            // Left-looking update: eliminate with every previous pivot column
            // j < k whose pivot row appears in the working pattern, in
            // ascending pivot order so fill-in cascades correctly. The merge
            // is purely structural — a numerically zero multiplier still
            // contributes its fill pattern, so the captured pattern stays
            // valid for any later values (refactorize depends on this).
            for j in 0..k {
                let pr = perm[j];
                if !in_pattern[pr] {
                    continue;
                }
                let ujk = work[pr];
                for idx in l_col_ptr[j]..l_col_ptr[j + 1] {
                    let r = l_row_idx[idx];
                    if !in_pattern[r] {
                        in_pattern[r] = true;
                        pattern.push(r);
                    }
                    work[r] -= l_values[idx] * ujk;
                }
            }

            // Partial pivot among not-yet-pivoted rows in the pattern.
            let mut piv_row = usize::MAX;
            let mut piv_mag = 0.0_f64;
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    let m = work[r].abs();
                    if m > piv_mag {
                        piv_mag = m;
                        piv_row = r;
                    }
                }
            }
            if piv_row == usize::MAX || piv_mag < f64::MIN_POSITIVE || !piv_mag.is_finite() {
                return Err(NumericError::SingularMatrix { column: col });
            }
            let pivot = work[piv_row];
            perm[k] = piv_row;
            pinv[piv_row] = k;

            // Emit U column k: every structurally reached pivoted row (even
            // if its value is currently zero), sorted ascending so the
            // refactorize elimination replays in pivot order; diagonal last.
            u_col_sort.clear();
            for &r in &pattern {
                let p = pinv[r];
                if p != usize::MAX && p < k {
                    u_col_sort.push((p, work[r]));
                }
            }
            u_col_sort.sort_unstable_by_key(|&(p, _)| p);
            for &(p, v) in &u_col_sort {
                u_row_idx.push(p);
                u_values.push(v);
            }
            u_row_idx.push(k);
            u_values.push(pivot);
            u_col_ptr.push(u_row_idx.len());

            // Emit L column k (all unpivoted pattern rows), scaled by pivot.
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    l_row_idx.push(r);
                    l_values.push(work[r] / pivot);
                }
            }
            l_col_ptr.push(l_row_idx.len());

            // Clear the working vector.
            for &r in &pattern {
                work[r] = 0.0;
                in_pattern[r] = false;
            }
        }

        Ok(Self {
            n,
            l_col_ptr,
            l_row_idx,
            l_values,
            u_col_ptr,
            u_row_idx,
            u_values,
            perm,
            q,
            work,
            scratch: vec![0.0; n],
        })
    }

    /// Recomputes the numeric factors for `a` reusing the stored symbolic
    /// pattern and pivot order — zero allocation, no pattern recomputation.
    ///
    /// `a` must have the same sparsity pattern as the matrix this
    /// factorization was created from (the fixed-pattern invariant of MNA
    /// systems); entries outside the captured pattern would be silently
    /// mis-handled, which is why the circuit layer owns that contract.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] when `a` has a different size.
    /// * [`NumericError::PivotDegraded`] when a reused pivot fails the
    ///   relative growth check (or became exactly zero / non-finite); it
    ///   names the original column. The
    ///   factorization content is unspecified afterwards; the caller must
    ///   fall back to [`SparseLu::factorize`].
    pub fn refactorize(&mut self, a: &CscMatrix) -> Result<()> {
        if a.n_rows() != self.n || a.n_cols() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{0}x{0} matrix", self.n),
                found: format!("{}x{}", a.n_rows(), a.n_cols()),
            });
        }
        let col_ptr = a.col_ptr();
        let row_idx = a.row_idx();
        let values = a.values();

        for k in 0..self.n {
            // Scatter column q[k] of A (work is zeroed between columns).
            let col = self.q[k];
            for idx in col_ptr[col]..col_ptr[col + 1] {
                self.work[row_idx[idx]] = values[idx];
            }

            // Eliminate along the stored U pattern, ascending pivot order.
            let ulo = self.u_col_ptr[k];
            let uhi = self.u_col_ptr[k + 1];
            for uidx in ulo..uhi - 1 {
                let j = self.u_row_idx[uidx];
                let ujk = self.work[self.perm[j]];
                self.u_values[uidx] = ujk;
                if ujk != 0.0 {
                    for lidx in self.l_col_ptr[j]..self.l_col_ptr[j + 1] {
                        self.work[self.l_row_idx[lidx]] -= self.l_values[lidx] * ujk;
                    }
                }
            }

            // Reused pivot with growth check: candidates for this column
            // under full pivoting would be the pivot row plus every L row.
            let piv_row = self.perm[k];
            let pivot = self.work[piv_row];
            let mut cand_max = pivot.abs();
            for lidx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                cand_max = cand_max.max(self.work[self.l_row_idx[lidx]].abs());
            }
            if !pivot.is_finite()
                || pivot.abs() < f64::MIN_POSITIVE
                || pivot.abs() < REFACTOR_PIVOT_TOL * cand_max
            {
                // Leave the workspace clean for the next attempt.
                self.work.fill(0.0);
                return Err(NumericError::PivotDegraded { column: col });
            }
            self.u_values[uhi - 1] = pivot;

            // Emit L column k and clear the touched work entries.
            for lidx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                let r = self.l_row_idx[lidx];
                self.l_values[lidx] = self.work[r] / pivot;
                self.work[r] = 0.0;
            }
            self.work[piv_row] = 0.0;
            for uidx in ulo..uhi - 1 {
                self.work[self.perm[self.u_row_idx[uidx]]] = 0.0;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` with the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.n),
                found: format!("len {}", b.len()),
            });
        }
        let mut x = b.to_vec();
        let mut gather = vec![0.0; self.n];
        self.solve_buffers(&mut x, &mut gather);
        Ok(x)
    }

    /// Solves `A x = b` in place: `b` enters as the right-hand side and
    /// exits as the solution. Uses the preallocated internal gather buffer,
    /// so the hot loop performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<()> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.n),
                found: format!("len {}", b.len()),
            });
        }
        // Split-borrow the scratch out so `self` stays shareable.
        let mut gather = std::mem::take(&mut self.scratch);
        self.solve_buffers(b, &mut gather);
        self.scratch = gather;
        Ok(())
    }

    /// Core triangular solves over caller-provided buffers. `x` holds `b`
    /// on entry and the solution on exit; `gather` is overwritten.
    fn solve_buffers(&self, x: &mut [f64], gather: &mut [f64]) {
        // A x = b ⇔ L U (Qᵀ x) = P b.
        // Forward solve L y = P b. y is kept in *original-row* space to
        // match L's row indices.
        for k in 0..self.n {
            let pr = self.perm[k];
            let yk = x[pr];
            if yk != 0.0 {
                for idx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                    x[self.l_row_idx[idx]] -= self.l_values[idx] * yk;
                }
            }
        }
        // Gather into pivot order.
        for k in 0..self.n {
            gather[k] = x[self.perm[k]];
        }
        // Back solve U (Qᵀ x) = y. U column k: off-diagonals (rows < k)
        // then diagonal last.
        for k in (0..self.n).rev() {
            let lo = self.u_col_ptr[k];
            let hi = self.u_col_ptr[k + 1];
            let diag = self.u_values[hi - 1];
            let xk = gather[k] / diag;
            gather[k] = xk;
            if xk != 0.0 {
                for idx in lo..hi - 1 {
                    gather[self.u_row_idx[idx]] -= self.u_values[idx] * xk;
                }
            }
        }
        // gather[k] is the unknown of column q[k].
        for k in 0..self.n {
            x[self.q[k]] = gather[k];
        }
    }

    /// System dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total stored entries in L and U (fill-in metric).
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.l_values.len() + self.u_values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::sparse::TripletMatrix;

    fn residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        ax.iter()
            .zip(b)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()))
    }

    #[test]
    fn diagonal_solve() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(1, 1, 4.0);
        t.add(2, 2, 8.0);
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        let x = lu.solve(&[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn pivoting_required() {
        // (0,0) is zero; factorization must swap rows.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 2.0);
        t.add(1, 0, 3.0);
        t.add(1, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        let b = [4.0, 5.0];
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 2.0);
        t.add(0, 1, 2.0);
        t.add(1, 1, 4.0);
        let (a, _) = t.to_csc().unwrap();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn structurally_missing_column_is_singular() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 1.0); // column 1 entirely empty except we must add something somewhere
        t.add(0, 1, 0.0);
        let (a, _) = t.to_csc().unwrap();
        assert!(SparseLu::factorize(&a).is_err());
    }

    /// A circuit-flavoured random pattern: dominant diagonal plus ring
    /// couplings, values drawn from `rng`.
    fn ring_system(n: usize, rng: &mut SplitMix64) -> (CscMatrix, Vec<f64>) {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 3.0 + rng.uniform(-0.5, 0.5));
            let j = (i + 1) % n;
            t.add(i, j, rng.uniform(-0.5, 0.5));
            t.add(j, i, rng.uniform(-0.5, 0.5));
        }
        let (a, _) = t.to_csc().unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        (a, b)
    }

    #[test]
    fn matches_dense_on_random_systems() {
        let mut rng = SplitMix64::new(0x9E37_79B9);
        for n in [2usize, 5, 12, 30, 64] {
            let (a, b) = ring_system(n, &mut rng);
            let xs = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
            let xd = a.to_dense().solve(&b).unwrap();
            for (s, d) in xs.iter().zip(&xd) {
                assert!((s - d).abs() < 1e-9, "n={n}");
            }
        }
    }

    /// Diagonal 4, off-diagonals 1, on a pattern whose minimum-degree order
    /// is `[3, 0, 1, 2]`: column 2 is eliminated last, at step 3. With
    /// `col2` false the column is structurally empty (row 2 is not).
    fn late_column_two(col2: bool) -> CscMatrix {
        let mut t = TripletMatrix::new(4, 4);
        for i in [0, 1, 3] {
            t.add(i, i, 4.0);
            t.add(2, i, 1.0);
        }
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        if col2 {
            t.add(2, 2, 4.0);
            t.add(0, 2, 1.0);
        }
        t.to_csc().unwrap().0
    }

    #[test]
    fn errors_name_the_original_column_not_the_step() {
        assert_eq!(
            SparseLu::factorize(&late_column_two(false)).unwrap_err(),
            NumericError::SingularMatrix { column: 2 }
        );

        let healthy = late_column_two(true);
        let mut lu = SparseLu::factorize(&healthy).unwrap();
        assert_eq!(lu.q, [3, 0, 1, 2]);
        let mut zeroed = healthy.clone();
        let (lo, hi) = (healthy.col_ptr()[2], healthy.col_ptr()[3]);
        zeroed.values_mut()[lo..hi].fill(0.0);
        assert_eq!(
            lu.refactorize(&zeroed).unwrap_err(),
            NumericError::PivotDegraded { column: 2 }
        );
    }

    #[test]
    fn arrow_matrix_factors_without_fill() {
        // Dense first row and column: eliminating column 0 first fills all
        // n² positions; ordered last-but-one it fills none. The diagonal
        // dominates, so every pivot stays on it and the count is exact.
        let n = 64;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 100.0);
            if i > 0 {
                t.add(0, i, 1.0);
                t.add(i, 0, 1.0);
            }
        }
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        assert_eq!(a.nnz(), 3 * n - 2);
        assert_eq!(lu.factor_nnz(), 3 * n - 2);
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 20.0).collect();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-9);
    }

    /// An MNA-shaped system: `n - n/4` node unknowns with a dominant
    /// diagonal and one-sided (unsymmetric) couplings, then voltage-source
    /// branch unknowns whose diagonal is structurally zero, each tied to a
    /// distinct node by a ±1 pair — those pivots must come off the diagonal.
    /// The pattern depends on `n` alone; the values come from `rng`.
    fn mna_like_system(n: usize, rng: &mut SplitMix64) -> (CscMatrix, Vec<f64>) {
        let branches = (n / 4).max(1);
        let nodes = n - branches;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..nodes {
            t.add(i, i, 3.0 + rng.uniform(-0.5, 0.5));
            if nodes > 1 {
                t.add(i, (i + 1) % nodes, rng.uniform(-0.5, 0.5));
                t.add(i, (i * 7 + 3) % nodes, rng.uniform(-0.5, 0.5));
            }
        }
        for k in 0..branches {
            let (node, branch) = (k * nodes / branches, nodes + k);
            t.add(node, branch, 1.0);
            t.add(branch, node, 1.0);
        }
        let (a, _) = t.to_csc().unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        (a, b)
    }

    #[test]
    fn ordered_factorization_matches_dense_on_mna_like_systems() {
        let mut rng = SplitMix64::new(0x0C0_FFEE);
        for n in [2usize, 5, 12, 30, 64, 150] {
            let (a0, b0) = mna_like_system(n, &mut rng);
            let mut lu = SparseLu::factorize(&a0).unwrap();
            let x0 = lu.solve(&b0).unwrap();
            assert!(residual_inf(&a0, &x0, &b0) < 1e-9, "n={n}");
            let xd = a0.to_dense().solve(&b0).unwrap();
            for (s, d) in x0.iter().zip(&xd) {
                assert!((s - d).abs() < 1e-9, "n={n}: {s} vs {d}");
            }

            // New values on the same pattern: the reused order and pivots
            // agree with a from-scratch factorization.
            for _round in 0..8 {
                let (a, b) = mna_like_system(n, &mut rng);
                lu.refactorize(&a).unwrap();
                let x_re = lu.solve(&b).unwrap();
                let x_fresh = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
                for (p, q) in x_re.iter().zip(&x_fresh) {
                    assert!((p - q).abs() < 1e-12, "n={n}: {p} vs {q}");
                }
            }

            // Back on the first values, the factors are bit-identical to
            // the fresh ones (DESIGN.md §5's pinned property).
            lu.refactorize(&a0).unwrap();
            let x1 = lu.solve(&b0).unwrap();
            for (p, q) in x0.iter().zip(&x1) {
                assert_eq!(p.to_bits(), q.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn factorize_is_deterministic() {
        // Same matrix, same order, same pivots, same bits — what keeps a
        // `parallel_map` sweep `==` to a serial loop.
        let (a, _) = mna_like_system(64, &mut SplitMix64::new(5));
        let (lu1, lu2) = (
            SparseLu::factorize(&a).unwrap(),
            SparseLu::factorize(&a).unwrap(),
        );
        assert_eq!(lu1.q, lu2.q);
        assert_eq!(lu1.perm, lu2.perm);
        assert_eq!(lu1.l_row_idx, lu2.l_row_idx);
        assert_eq!(lu1.u_row_idx, lu2.u_row_idx);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lu1.l_values), bits(&lu2.l_values));
        assert_eq!(bits(&lu1.u_values), bits(&lu2.u_values));
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let mut rng = SplitMix64::new(11);
        let (a, b) = ring_system(20, &mut rng);
        let mut lu = SparseLu::factorize(&a).unwrap();
        let x_ref = lu.solve(&b).unwrap();
        let mut x = b.clone();
        lu.solve_in_place(&mut x).unwrap();
        assert_eq!(x, x_ref);
        // And the scratch reuse survives a second call.
        let mut x2 = b.clone();
        lu.solve_in_place(&mut x2).unwrap();
        assert_eq!(x2, x_ref);
    }

    #[test]
    fn refactorize_identical_values_is_identity() {
        let mut rng = SplitMix64::new(21);
        let (a, b) = ring_system(24, &mut rng);
        let mut lu = SparseLu::factorize(&a).unwrap();
        let x1 = lu.solve(&b).unwrap();
        lu.refactorize(&a).unwrap();
        let x2 = lu.solve(&b).unwrap();
        assert_eq!(x1, x2, "same values must reproduce bit-identical factors");
    }

    #[test]
    fn refactorize_matches_fresh_factorization() {
        // Property test: fixed pattern, randomized values. The cached
        // symbolic refactorization must agree with a from-scratch
        // factorization to 1e-12 on every solve.
        let mut rng = SplitMix64::new(0xD1CE);
        for n in [4usize, 9, 33, 80] {
            let (a0, _) = ring_system(n, &mut rng);
            let mut lu = SparseLu::factorize(&a0).unwrap();
            for _round in 0..25 {
                // New values on the same pattern (keep diagonals dominant so
                // the reused pivot order stays healthy).
                let mut a = a0.clone();
                let nv = a.values().len();
                for idx in 0..nv {
                    let on_diag = a0.values()[idx].abs() >= 2.0;
                    a.values_mut()[idx] = if on_diag {
                        3.0 + rng.uniform(-0.5, 0.5)
                    } else {
                        rng.uniform(-0.5, 0.5)
                    };
                }
                let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
                lu.refactorize(&a).unwrap();
                let x_re = lu.solve(&b).unwrap();
                let x_fresh = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
                for (p, q) in x_re.iter().zip(&x_fresh) {
                    assert!((p - q).abs() < 1e-12, "n={n}: {p} vs {q}");
                }
            }
        }
    }

    #[test]
    fn refactorize_captures_fill_that_was_numerically_zero() {
        // The first factorization sees a value of exactly 0.0 on a
        // structural entry; a later refactorize makes it nonzero. The
        // structural pattern must have kept the slot.
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(1, 0, 0.0); // structurally present, numerically zero
        t.add(1, 1, 2.0);
        t.add(2, 1, 1.0);
        t.add(0, 2, 1.0);
        t.add(2, 2, 2.0);
        let (a0, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a0).unwrap();

        let mut a1 = a0.clone();
        // Flip the zero entry on: fill at (1,2) now matters.
        for (idx, _) in a0.values().iter().enumerate() {
            if a1.values()[idx] == 0.0 {
                a1.values_mut()[idx] = 1.5;
            }
        }
        let b = [1.0, -2.0, 0.5];
        lu.refactorize(&a1).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a1, &x, &b) < 1e-12);
    }

    #[test]
    fn degraded_pivot_reports_fallback_not_wrong_answer() {
        // Factorize with a dominant (0,0); then shrink it so the reused
        // pivot order is catastrophically bad for the new values.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 10.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 10.0);
        let (a0, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a0).unwrap();

        let mut a1 = a0.clone();
        for idx in 0..a1.values().len() {
            let (r, v) = (a0.row_idx()[idx], a0.values()[idx]);
            // Column-major CSC: identify (0,0) by column 0 / row 0.
            if idx < a0.col_ptr()[1] && r == 0 && v == 10.0 {
                a1.values_mut()[idx] = 1e-9;
            }
        }
        match lu.refactorize(&a1) {
            Err(NumericError::PivotDegraded { .. }) => {
                // The documented fallback path must still solve correctly.
                let fresh = SparseLu::factorize(&a1).unwrap();
                let b = [1.0, 2.0];
                let x = fresh.solve(&b).unwrap();
                assert!(residual_inf(&a1, &x, &b) < 1e-9);
            }
            other => panic!("expected PivotDegraded, got {other:?}"),
        }
        // After the failed refactorize, the workspace must be clean enough
        // for a subsequent successful refactorize on the original values.
        lu.refactorize(&a0).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        assert!(residual_inf(&a0, &x, &[1.0, 2.0]) < 1e-12);
    }

    #[test]
    fn refactorize_dimension_check() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a).unwrap();
        let mut t3 = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t3.add(i, i, 1.0);
        }
        let (a3, _) = t3.to_csc().unwrap();
        assert!(matches!(
            lu.refactorize(&a3),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn fill_in_reported() {
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t.add(i, i, 1.0);
        }
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        assert_eq!(lu.factor_nnz(), 3); // diagonal only: U diag, empty L
        assert_eq!(lu.n(), 3);
    }

    #[test]
    fn solve_length_check() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        let mut short = [1.0];
        assert!(lu.solve_in_place(&mut short).is_err());
    }
}
