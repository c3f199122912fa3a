//! Cell-major SoA layout and the block-batched similarity kernel.
//!
//! [`AcamArray`] answers one key at a time over row-major `Vec<AcamCell>`
//! rows — fine as an oracle, but a serving worker draining a batch of
//! distance queries pays a pointer-chasing row walk once **per key**.
//! [`PackedAcamArray`] stores the bounds as *cell-major planes* — for
//! each cell position `c`, one contiguous `u16` vector of that cell's
//! `lo` bound across all rows, and one of `hi` — and the batched kernel
//! restructures the loop nest into row blocks × key tiles:
//!
//! ```text
//! for each block of ACAM_BLOCK_ROWS rows:       // 2 u16 planes ≈ 256 B/cell
//!     for each cell c (one lo/hi plane pair):
//!         for each key in the tile (ACAM_TILE_KEYS):
//!             counts[key][row] += miss(key[c], lo[row], hi[row])
//!     fold counts into per-key (distance, id) min-reductions
//! ```
//!
//! * **Cache blocking.** One block of one cell's planes is
//!   `2 × 64 × 2 B = 256 B`; the whole tile of keys scans it before the
//!   next plane streams in, amortizing the row-bound loads 16-fold.
//! * **Branchless lane loops.** The per-cell inner loop is a pure
//!   `u16` compare/`saturating_sub` accumulation over a 64-row slice —
//!   no data-dependent branches, a shape the autovectorizer maps onto
//!   wide integer lanes.
//! * **Min-reduce duality.** Every query mode folds the per-row
//!   mismatch counts the same way: best-match packs `(distance, id)`
//!   into one `u64` and takes the minimum (ties break to the smaller
//!   id for free); threshold-match min-reduces ids over rows whose
//!   count clears the threshold. Unlike the ternary kernel there is no
//!   ordered early-exit — a *distance* needs every row's count — so
//!   the scan is always the full-array min-reduce.
//!
//! Results are bit-identical to the scalar [`AcamArray`] oracle; the
//! property tests below pin that across widths, level depths, removals
//! (storage-order churn), metrics, and batch lengths straddling the tile.

use super::{AcamArray, AcamMatch, AcamMetric};

/// Rows per cache block: matches the ternary kernel's block so one
/// lo/hi plane pair per cell stays a few cache lines.
pub const ACAM_BLOCK_ROWS: usize = 64;

/// Keys matched per block pass: each key's 64 `u32` row counts are one
/// 256 B lane, so a tile's accumulators (4 KiB) stay L1-resident beside
/// the planes.
const ACAM_TILE_KEYS: usize = 16;

/// Cell-major packed analog-CAM array: per cell position, contiguous
/// `lo`/`hi` bound planes across rows, plus the row-id plane. Built from
/// (and semantically identical to) an [`AcamArray`].
#[derive(Debug, Clone)]
pub struct PackedAcamArray {
    width: usize,
    levels: u16,
    ids: Vec<u32>,
    /// `lo[c][r]` = lower bound of cell `c` in row `r`.
    lo: Vec<Vec<u16>>,
    /// `hi[c][r]` = upper bound of cell `c` in row `r`.
    hi: Vec<Vec<u16>>,
}

impl PackedAcamArray {
    /// Packs a functional array into cell-major planes.
    #[must_use]
    pub fn from_array(array: &AcamArray) -> Self {
        let width = array.width();
        let mut packed = Self {
            width,
            levels: array.levels(),
            ids: Vec::with_capacity(array.len()),
            lo: vec![Vec::with_capacity(array.len()); width],
            hi: vec![Vec::with_capacity(array.len()); width],
        };
        for i in 0..array.len() {
            let (id, row) = array.row(i).expect("in-range row");
            packed.ids.push(id);
            for (c, cell) in row.iter().enumerate() {
                packed.lo[c].push(cell.lo());
                packed.hi[c].push(cell.hi());
            }
        }
        packed
    }

    /// Cells per word.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Quantization levels per cell.
    #[must_use]
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// Stored row count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Accumulates one cell's mismatch contribution over a row block for
    /// one key level, into `counts[j]` for row `block + j`.
    #[inline]
    fn accumulate(metric: AcamMetric, counts: &mut [u32], lo: &[u16], hi: &[u16], k: u16) {
        debug_assert!(counts.len() == lo.len() && counts.len() == hi.len());
        match metric {
            AcamMetric::Hamming => {
                for (cnt, (&l, &h)) in counts.iter_mut().zip(lo.iter().zip(hi)) {
                    *cnt += u32::from(k < l || h < k);
                }
            }
            AcamMetric::Interval => {
                for (cnt, (&l, &h)) in counts.iter_mut().zip(lo.iter().zip(hi)) {
                    *cnt += u32::from(l.saturating_sub(k)) + u32::from(k.saturating_sub(h));
                }
            }
        }
    }

    /// The shared tile/block loop nest: accumulates per-row mismatch
    /// counts for each tile of keys and folds every finished block into
    /// one `u64` min-reduction slot per key (`u64::MAX` = nothing
    /// admitted). `fold_block(counts, ids, slot)` defines the query
    /// mode.
    fn batch_scan<F>(&self, keys: &[Vec<u16>], metric: AcamMetric, fold_block: F) -> Vec<u64>
    where
        F: Fn(&[u32], &[u32], &mut u64),
    {
        for key in keys {
            assert!(
                key.len() == self.width,
                "key width {} != array width {}",
                key.len(),
                self.width
            );
        }
        let mut best = vec![u64::MAX; keys.len()];
        let rows = self.ids.len();
        if rows == 0 || keys.is_empty() {
            return best;
        }
        // One flat count buffer reused across blocks: `tile × block` u32
        // accumulators — L1-resident alongside the planes.
        let mut counts = vec![0u32; ACAM_TILE_KEYS * ACAM_BLOCK_ROWS];
        for (t, tile_keys) in keys.chunks(ACAM_TILE_KEYS).enumerate() {
            let base = t * ACAM_TILE_KEYS;
            let mut block = 0;
            while block < rows {
                let end = (block + ACAM_BLOCK_ROWS).min(rows);
                let blen = end - block;
                counts[..tile_keys.len() * ACAM_BLOCK_ROWS].fill(0);
                for c in 0..self.width {
                    let lo = &self.lo[c][block..end];
                    let hi = &self.hi[c][block..end];
                    for (k, key) in tile_keys.iter().enumerate() {
                        let cnt = &mut counts[k * ACAM_BLOCK_ROWS..k * ACAM_BLOCK_ROWS + blen];
                        Self::accumulate(metric, cnt, lo, hi, key[c]);
                    }
                }
                let ids = &self.ids[block..end];
                for k in 0..tile_keys.len() {
                    let cnt = &counts[k * ACAM_BLOCK_ROWS..k * ACAM_BLOCK_ROWS + blen];
                    fold_block(cnt, ids, &mut best[base + k]);
                }
                block = end;
            }
        }
        best
    }

    /// Batched **best match** (see [`AcamArray::best_match`]): `out[i]`
    /// is the `(distance, id)`-minimal row for `keys[i]`, bit-identical
    /// to the scalar oracle.
    #[must_use]
    pub fn best_match_batch(&self, keys: &[Vec<u16>], metric: AcamMetric) -> Vec<Option<AcamMatch>> {
        let mut out = Vec::new();
        self.best_match_batch_into(keys, metric, &mut out);
        out
    }

    /// [`Self::best_match_batch`] into a caller-owned output buffer — the
    /// entry point the shard workers call.
    ///
    /// # Panics
    ///
    /// Panics when a key's width differs from the array's.
    pub fn best_match_batch_into(
        &self,
        keys: &[Vec<u16>],
        metric: AcamMetric,
        out: &mut Vec<Option<AcamMatch>>,
    ) {
        // Pack (distance, id) so the plain u64 min is the lexicographic
        // minimum: smaller distance first, then smaller id.
        let best = self.batch_scan(keys, metric, |counts, ids, slot| {
            for (&d, &id) in counts.iter().zip(ids) {
                let cand = (u64::from(d) << 32) | u64::from(id);
                if cand < *slot {
                    *slot = cand;
                }
            }
        });
        out.clear();
        out.extend(best.into_iter().map(|b| {
            (b != u64::MAX).then_some(AcamMatch {
                id: b as u32,
                distance: (b >> 32) as u32,
            })
        }));
    }

    /// Batched **distance-threshold match** (see
    /// [`AcamArray::threshold_match`]): `out[i]` is the smallest id
    /// among rows with at most `d` cells out of range for `keys[i]`;
    /// `d = 0` is the batched exact threshold-match.
    #[must_use]
    pub fn threshold_match_batch(&self, keys: &[Vec<u16>], d: u32) -> Vec<Option<u32>> {
        let mut out = Vec::new();
        self.threshold_match_batch_into(keys, d, &mut out);
        out
    }

    /// [`Self::threshold_match_batch`] into a caller-owned output buffer.
    ///
    /// # Panics
    ///
    /// Panics when a key's width differs from the array's.
    pub fn threshold_match_batch_into(
        &self,
        keys: &[Vec<u16>],
        d: u32,
        out: &mut Vec<Option<u32>>,
    ) {
        let best = self.batch_scan(keys, AcamMetric::Hamming, |counts, ids, slot| {
            for (&c, &id) in counts.iter().zip(ids) {
                if c <= d {
                    *slot = (*slot).min(u64::from(id));
                }
            }
        });
        out.clear();
        out.extend(best.into_iter().map(|b| (b != u64::MAX).then_some(b as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acam::AcamCell;
    use tcam_numeric::rng::SplitMix64;

    /// A random interval word: mix of tight, wide, degenerate `[x, x]`,
    /// and full-domain don't-care cells.
    fn random_word(rng: &mut SplitMix64, width: usize, levels: u16) -> Vec<AcamCell> {
        (0..width)
            .map(|_| {
                let roll = rng.next_f64();
                if roll < 0.15 {
                    AcamCell::any(levels)
                } else if roll < 0.30 {
                    AcamCell::exact(rng.below(u64::from(levels)) as u16)
                } else {
                    let a = rng.below(u64::from(levels)) as u16;
                    let b = rng.below(u64::from(levels)) as u16;
                    AcamCell::new(a.min(b), a.max(b)).unwrap()
                }
            })
            .collect()
    }

    fn random_key(rng: &mut SplitMix64, width: usize, levels: u16) -> Vec<u16> {
        (0..width)
            .map(|_| rng.below(u64::from(levels)) as u16)
            .collect()
    }

    /// A random array of `rows` words; when `churn`, a random subset is
    /// swap-removed so storage order diverges from id order.
    fn random_array(
        rng: &mut SplitMix64,
        width: usize,
        levels: u16,
        rows: usize,
        churn: bool,
    ) -> AcamArray {
        let mut a = AcamArray::new(width, levels).unwrap();
        for id in 0..rows {
            a.push(&random_word(rng, width, levels), id as u32 * 3).unwrap();
        }
        if churn {
            for _ in 0..rows / 3 {
                let id = rng.below(rows as u64) as u32 * 3;
                let _ = a.remove(id);
            }
        }
        a
    }

    /// The tentpole property test: the batched kernel is bit-identical
    /// to the scalar oracle across widths, level depths, row counts
    /// (partial and multiple blocks), storage churn, both metrics, and
    /// batch lengths straddling the key tile.
    #[test]
    fn batch_kernel_matches_scalar_oracle() {
        let mut rng = SplitMix64::new(0xACA0);
        for &(width, levels) in &[(1usize, 4u16), (3, 16), (8, 256), (16, 4096)] {
            for &churn in &[false, true] {
                for &rows in &[1usize, 7, 64, 65, 150] {
                    let a = random_array(&mut rng, width, levels, rows, churn);
                    let packed = PackedAcamArray::from_array(&a);
                    assert_eq!(packed.len(), a.len());
                    let pool: Vec<Vec<u16>> =
                        (0..37).map(|_| random_key(&mut rng, width, levels)).collect();
                    // Around the 16-key tile: a single key, one short, exact,
                    // one over, two tiles and one over, a ragged third.
                    for n in [1usize, 15, 16, 17, 33, 37] {
                        let keys = &pool[..n];
                        for metric in [AcamMetric::Hamming, AcamMetric::Interval] {
                            let oracle: Vec<_> = keys
                                .iter()
                                .map(|k| a.best_match(k, metric).unwrap())
                                .collect();
                            assert_eq!(
                                packed.best_match_batch(keys, metric),
                                oracle,
                                "best {metric:?} w{width} l{levels} r{rows} churn {churn} n {n}"
                            );
                        }
                        for d in [0u32, 1, 2] {
                            let oracle: Vec<_> = keys
                                .iter()
                                .map(|k| a.threshold_match(k, d).unwrap())
                                .collect();
                            assert_eq!(
                                packed.threshold_match_batch(keys, d),
                                oracle,
                                "thresh d{d} w{width} l{levels} r{rows} churn {churn} n {n}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_kernel_on_empty_inputs() {
        let mut rng = SplitMix64::new(5);
        let a = random_array(&mut rng, 4, 16, 10, false);
        let packed = PackedAcamArray::from_array(&a);
        assert!(packed.best_match_batch(&[], AcamMetric::Hamming).is_empty());
        let empty = PackedAcamArray::from_array(&AcamArray::new(4, 16).unwrap());
        assert!(empty.is_empty());
        let keys = vec![random_key(&mut rng, 4, 16)];
        assert_eq!(empty.best_match_batch(&keys, AcamMetric::Interval), vec![None]);
        assert_eq!(empty.threshold_match_batch(&keys, 3), vec![None]);
    }

    #[test]
    fn full_domain_rows_tie_break_to_smallest_id() {
        // All-don't-care rows are distance 0 from every key; the winner
        // must be the smallest id under any storage order.
        let mut a = AcamArray::new(2, 64).unwrap();
        for id in [9u32, 4, 7] {
            a.push(&[AcamCell::any(64), AcamCell::any(64)], id).unwrap();
        }
        a.remove(9).unwrap();
        let packed = PackedAcamArray::from_array(&a);
        let got = packed.best_match_batch(&[vec![10, 50]], AcamMetric::Interval);
        assert_eq!(got[0], Some(AcamMatch { id: 4, distance: 0 }));
        assert_eq!(packed.threshold_match_batch(&[vec![10, 50]], 0), vec![Some(4)]);
    }

    #[test]
    #[should_panic(expected = "key width")]
    fn mismatched_key_width_is_rejected() {
        let a = AcamArray::new(3, 16).unwrap();
        let packed = PackedAcamArray::from_array(&a);
        let _ = packed.best_match_batch(&[vec![1, 2]], AcamMetric::Hamming);
    }
}
