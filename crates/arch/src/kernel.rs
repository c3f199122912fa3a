//! The block-batched SoA match kernel: the serving path's hot loop.
//!
//! [`PackedTcamArray::first_match`] answers one key at a time — fine as a
//! reference, but a worker draining a [`SearchBatch`] of hundreds of keys
//! pays the whole row-plane memory stream once **per key**. This module
//! adds [`PackedTcamArray::first_match_batch_into`], which restructures
//! the loop nest so the row stream is paid once per *tile* of keys:
//!
//! ```text
//! for each block of BLOCK_ROWS rows:          // ~2–4 cache lines/plane
//!     for each key in the tile (TILE_KEYS):
//!         hits: u64 bitmask over the block    // branchless, unrolled
//! ```
//!
//! * **Cache blocking.** A block is [`BLOCK_ROWS`] = 64 rows × (2 or 4)
//!   `u64` planes = 1–2 KiB — resident in L1 while every key of the tile
//!   scans it, so row loads are amortized [`TILE_KEYS`]-fold.
//! * **Branchless hit masks with ILP.** Per key per block the kernel
//!   builds one `u64` whose bit `j` says "row `block+j` matches", via four
//!   independent accumulators (manual 4× unroll of the AND/XOR/CMP chain
//!   — stable Rust, zero deps, and a shape the autovectorizer maps onto
//!   `u64` SIMD lanes). The only branch per (key, block) is `hits != 0`.
//! * **Single-limb specialization.** Words ≤ 64 bits (the 32-bit router
//!   workload) have all-zero limb-1 planes; the kernel skips them,
//!   halving the work — decided once per call, not per row.
//! * **Early-exit / min-reduce duality.** While the array is id-ordered
//!   (see [`PackedTcamArray::is_ordered`]) the first set bit of the first
//!   non-zero block mask *is* the winner: `hits.trailing_zeros()` and the
//!   key retires from the tile (per-key pending bitmask; a block whose
//!   tile has fully retired ends the scan). After an order-breaking
//!   `remove` the kernel scans every block and min-reduces matching ids
//!   in an epilogue — exactly the scalar path's duality.
//!
//! Semantics are bit-identical to per-key [`PackedTcamArray::first_match`]
//! on ordered and unordered arrays; the property tests below pin that,
//! including X-laden rules, partially-masked keys, post-`remove` storage
//! orders, and ragged final tiles.
//!
//! [`SearchBatch`]: ../../tcam_serve/service/struct.SearchBatch.html

use crate::packed::{PackedTcamArray, PackedWord};

/// Rows per cache block: 64 matches the hit-mask word width, and keeps a
/// dual-limb block at 2 KiB (four `u64` planes) — comfortably L1-resident.
pub const BLOCK_ROWS: usize = 64;

/// Key-tile width: 16 keys balances row-load amortization against the
/// registers/L1 the per-key masks occupy (pending/retire state is a `u32`
/// bitmask, so the tile must stay below 32).
pub const TILE_KEYS: usize = 16;
const _: () = assert!(TILE_KEYS < 32);

/// 4-bit hit pattern for one quad of rows against one key (single-limb):
/// bit `i` set ⇔ row `i` of the quad matches. The four XOR/AND/CMP chains
/// are independent, so they retire together (the manual-unroll ILP shape).
#[inline(always)]
fn quad_hits_one(m: &[u64; 4], v: &[u64; 4], km0: u64, kv0: u64) -> u64 {
    u64::from((v[0] ^ kv0) & m[0] & km0 == 0)
        | (u64::from((v[1] ^ kv0) & m[1] & km0 == 0) << 1)
        | (u64::from((v[2] ^ kv0) & m[2] & km0 == 0) << 2)
        | (u64::from((v[3] ^ kv0) & m[3] & km0 == 0) << 3)
}

/// 4-bit hit pattern for one quad of rows against one key (dual-limb).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn quad_hits_two(
    m0: &[u64; 4],
    v0: &[u64; 4],
    m1: &[u64; 4],
    v1: &[u64; 4],
    km0: u64,
    kv0: u64,
    km1: u64,
    kv1: u64,
) -> u64 {
    // One row's miss bits across both limbs: zero ⇔ the row matches.
    let miss =
        |i: usize| ((v0[i] ^ kv0) & m0[i] & km0) | ((v1[i] ^ kv1) & m1[i] & km1);
    u64::from(miss(0) == 0)
        | (u64::from(miss(1) == 0) << 1)
        | (u64::from(miss(2) == 0) << 2)
        | (u64::from(miss(3) == 0) << 3)
}

/// First matching row offset within one block (single-limb), or `None`.
/// Quad-stepped early exit: rows are tested four at a time branchlessly,
/// with one branch per quad — the ordered-array fast path, where the
/// first hit in the first non-empty quad is the final answer.
#[inline]
fn block_first_hit_one(m0: &[u64], v0: &[u64], km0: u64, kv0: u64) -> Option<usize> {
    let mut j = 0usize;
    for (m, v) in m0.chunks_exact(4).zip(v0.chunks_exact(4)) {
        let b = quad_hits_one(m.try_into().unwrap(), v.try_into().unwrap(), km0, kv0);
        if b != 0 {
            return Some(j + b.trailing_zeros() as usize);
        }
        j += 4;
    }
    for (&m, &v) in m0[j..].iter().zip(&v0[j..]) {
        if (v ^ kv0) & m & km0 == 0 {
            return Some(j);
        }
        j += 1;
    }
    None
}

/// First matching row offset within one block (dual-limb), or `None`.
#[inline]
fn block_first_hit_two(
    planes: (&[u64], &[u64], &[u64], &[u64]),
    km0: u64,
    kv0: u64,
    km1: u64,
    kv1: u64,
) -> Option<usize> {
    let (m0, v0, m1, v1) = planes;
    let mut j = 0usize;
    for (((m0q, v0q), m1q), v1q) in m0
        .chunks_exact(4)
        .zip(v0.chunks_exact(4))
        .zip(m1.chunks_exact(4))
        .zip(v1.chunks_exact(4))
    {
        let b = quad_hits_two(
            m0q.try_into().unwrap(),
            v0q.try_into().unwrap(),
            m1q.try_into().unwrap(),
            v1q.try_into().unwrap(),
            km0,
            kv0,
            km1,
            kv1,
        );
        if b != 0 {
            return Some(j + b.trailing_zeros() as usize);
        }
        j += 4;
    }
    while j < m0.len() {
        let miss = ((v0[j] ^ kv0) & m0[j] & km0) | ((v1[j] ^ kv1) & m1[j] & km1);
        if miss == 0 {
            return Some(j);
        }
        j += 1;
    }
    None
}

/// Hit mask over one block for a single-limb (width ≤ 64) array: bit `j`
/// set ⇔ row `j` of the block matches the key. Fully branchless (the
/// unordered min-reduce path must inspect every row anyway);
/// `chunks_exact` keeps the quad bodies bounds-check-free.
#[inline]
fn block_hits_one(m0: &[u64], v0: &[u64], km0: u64, kv0: u64) -> u64 {
    debug_assert_eq!(m0.len(), v0.len());
    debug_assert!(m0.len() <= BLOCK_ROWS);
    let mut hits = 0u64;
    let mut j = 0u32;
    for (m, v) in m0.chunks_exact(4).zip(v0.chunks_exact(4)) {
        let b = quad_hits_one(m.try_into().unwrap(), v.try_into().unwrap(), km0, kv0);
        hits |= b << j;
        j += 4;
    }
    for (m, v) in m0
        .chunks_exact(4)
        .remainder()
        .iter()
        .zip(v0.chunks_exact(4).remainder())
    {
        hits |= u64::from((v ^ kv0) & m & km0 == 0) << j;
        j += 1;
    }
    hits
}

/// Hit mask over one block for a dual-limb (width > 64) array.
#[inline]
fn block_hits_two(
    planes: (&[u64], &[u64], &[u64], &[u64]),
    km0: u64,
    kv0: u64,
    km1: u64,
    kv1: u64,
) -> u64 {
    let (m0, v0, m1, v1) = planes;
    debug_assert!(m0.len() == v0.len() && m0.len() == m1.len() && m0.len() == v1.len());
    debug_assert!(m0.len() <= BLOCK_ROWS);
    let mut hits = 0u64;
    let mut j = 0u32;
    for (((m0q, v0q), m1q), v1q) in m0
        .chunks_exact(4)
        .zip(v0.chunks_exact(4))
        .zip(m1.chunks_exact(4))
        .zip(v1.chunks_exact(4))
    {
        let b = quad_hits_two(
            m0q.try_into().unwrap(),
            v0q.try_into().unwrap(),
            m1q.try_into().unwrap(),
            v1q.try_into().unwrap(),
            km0,
            kv0,
            km1,
            kv1,
        );
        hits |= b << j;
        j += 4;
    }
    let mut i = m0.len() - m0.chunks_exact(4).remainder().len();
    while i < m0.len() {
        let miss = ((v0[i] ^ kv0) & m0[i] & km0) | ((v1[i] ^ kv1) & m1[i] & km1);
        hits |= u64::from(miss == 0) << j;
        i += 1;
        j += 1;
    }
    hits
}

impl PackedTcamArray {
    /// Batched [`Self::first_match`]: the winning (numerically smallest)
    /// matching id for each key, bit-identical to the scalar path.
    ///
    /// Convenience wrapper over [`Self::first_match_batch_into`].
    #[must_use]
    pub fn first_match_batch(&self, keys: &[PackedWord]) -> Vec<Option<u32>> {
        let mut out = Vec::new();
        self.first_match_batch_into(keys, &mut out);
        out
    }

    /// Batched first-match with a caller-owned output buffer (the serving
    /// worker reuses one buffer across batches). `out` is cleared and
    /// resized to `keys.len()`; `out[i]` is the winner for `keys[i]`.
    ///
    /// Keys are scanned in tiles of [`TILE_KEYS`]; see the module docs for
    /// the kernel structure.
    pub fn first_match_batch_into(&self, keys: &[PackedWord], out: &mut Vec<Option<u32>>) {
        out.clear();
        out.resize(keys.len(), None);
        let rows = self.ids.len();
        if rows == 0 {
            return;
        }
        let single_limb = self.width() <= 64;
        for (t, tile_keys) in keys.chunks(TILE_KEYS).enumerate() {
            let base = t * TILE_KEYS;
            // Bit k set ⇔ tile key k still needs a winner (ordered scan).
            let mut pending: u32 = (1u32 << tile_keys.len()) - 1;
            // Min-reduction state for the unordered path (u64 sentinel so
            // a genuine id of u32::MAX stays representable).
            let mut best = [u64::MAX; TILE_KEYS];
            let mut block = 0;
            while block < rows {
                let end = (block + BLOCK_ROWS).min(rows);
                let (bm0, bv0) = (&self.m0[block..end], &self.v0[block..end]);
                let (bm1, bv1) = (&self.m1[block..end], &self.v1[block..end]);
                for (k, key) in tile_keys.iter().enumerate() {
                    if pending & (1 << k) == 0 {
                        continue;
                    }
                    if self.ordered {
                        // Ascending ids: the first matching row of the
                        // first non-empty block = smallest id, so the scan
                        // early-exits per quad inside the block.
                        let hit = if single_limb {
                            block_first_hit_one(bm0, bv0, key.mask[0], key.value[0])
                        } else {
                            block_first_hit_two(
                                (bm0, bv0, bm1, bv1),
                                key.mask[0],
                                key.value[0],
                                key.mask[1],
                                key.value[1],
                            )
                        };
                        if let Some(row) = hit {
                            out[base + k] = Some(self.ids[block + row]);
                            pending &= !(1 << k);
                        }
                    } else {
                        // Unordered: every row must be inspected anyway,
                        // so the mask is built fully branchlessly.
                        let hits = if single_limb {
                            block_hits_one(bm0, bv0, key.mask[0], key.value[0])
                        } else {
                            block_hits_two(
                                (bm0, bv0, bm1, bv1),
                                key.mask[0],
                                key.value[0],
                                key.mask[1],
                                key.value[1],
                            )
                        };
                        let mut h = hits;
                        while h != 0 {
                            let row = block + h.trailing_zeros() as usize;
                            best[k] = best[k].min(u64::from(self.ids[row]));
                            h &= h - 1;
                        }
                    }
                }
                if self.ordered && pending == 0 {
                    break; // whole tile retired: skip the remaining blocks
                }
                block = end;
            }
            if !self.ordered {
                for (k, &b) in best.iter().enumerate().take(tile_keys.len()) {
                    if b != u64::MAX {
                        out[base + k] = Some(u32::try_from(b).expect("ids are u32"));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::TernaryBit;
    use tcam_numeric::rng::SplitMix64;

    fn random_word(rng: &mut SplitMix64, width: usize, x_prob: f64) -> Vec<TernaryBit> {
        (0..width)
            .map(|_| {
                if rng.next_f64() < x_prob {
                    TernaryBit::X
                } else {
                    TernaryBit::from_bool(rng.next_u64() & 1 == 1)
                }
            })
            .collect()
    }

    /// A random array of `rows` X-laden words; when `churn`, a random
    /// subset is then swap-removed so storage order breaks (the
    /// `ordered = false` min-id path).
    fn random_array(rng: &mut SplitMix64, width: usize, rows: usize, churn: bool) -> PackedTcamArray {
        let mut packed = PackedTcamArray::new(width);
        for id in 0..rows {
            packed.push(&random_word(rng, width, 0.35), id as u32 * 3);
        }
        if churn {
            for _ in 0..rows / 3 {
                let id = rng.below(rows as u64) as u32 * 3;
                packed.remove(id);
            }
        }
        packed
    }

    /// The satellite property test: the batch kernel is bit-identical to
    /// the scalar `first_match` oracle across widths (single and dual
    /// limb), X-laden rules, partially-masked keys, ordered and
    /// post-remove unordered arrays, and batch lengths straddling
    /// [`TILE_KEYS`] (one key, a full tile ± 1, ragged final tiles).
    #[test]
    fn batch_kernel_matches_scalar_oracle() {
        let mut rng = SplitMix64::new(0xB10C);
        for &width in &[1usize, 13, 32, 63, 64, 65, 88, 128] {
            for &churn in &[false, true] {
                for &rows in &[1usize, 7, 64, 65, 150] {
                    let packed = random_array(&mut rng, width, rows, churn);
                    let keys: Vec<PackedWord> = (0..37)
                        .map(|_| PackedWord::pack(&random_word(&mut rng, width, 0.15)))
                        .collect();
                    let oracle: Vec<Option<u32>> =
                        keys.iter().map(|k| packed.first_match(k)).collect();
                    for len in [1usize, 15, 16, 17, 33, 37] {
                        assert_eq!(
                            packed.first_match_batch(&keys[..len]),
                            oracle[..len],
                            "width {width} rows {rows} churn {churn} batch {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_kernel_on_empty_inputs() {
        let mut rng = SplitMix64::new(5);
        let packed = random_array(&mut rng, 32, 10, false);
        assert!(packed.first_match_batch(&[]).is_empty());
        let empty = PackedTcamArray::new(32);
        let keys = [PackedWord::pack(&random_word(&mut rng, 32, 0.0))];
        assert_eq!(empty.first_match_batch(&keys), vec![None]);
    }

    #[test]
    fn all_x_keys_match_the_minimum_id_row() {
        // An all-X key matches every row; the winner must be the smallest
        // id under both storage orders.
        let mut rng = SplitMix64::new(9);
        for churn in [false, true] {
            let packed = random_array(&mut rng, 72, 90, churn);
            let min_id = (0..packed.len())
                .map(|i| packed.row(i).unwrap().0)
                .min()
                .unwrap();
            let key = PackedWord::pack(&[TernaryBit::X; 72]);
            assert_eq!(packed.first_match_batch(&[key]), vec![Some(min_id)]);
        }
    }

    #[test]
    fn normalized_array_keeps_kernel_results() {
        // normalize() flips the kernel from min-reduce to early-exit; the
        // answers must not change.
        let mut rng = SplitMix64::new(0xAB);
        let mut packed = random_array(&mut rng, 48, 120, true);
        assert!(!packed.is_ordered());
        let keys: Vec<PackedWord> = (0..64)
            .map(|_| PackedWord::pack(&random_word(&mut rng, 48, 0.1)))
            .collect();
        let before = packed.first_match_batch(&keys);
        packed.normalize();
        assert!(packed.is_ordered());
        assert_eq!(packed.first_match_batch(&keys), before);
    }
}
