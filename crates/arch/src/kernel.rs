//! The bit-sliced match-line kernel: the serving path's hot loop.
//!
//! A hardware TCAM drives the key down the columns and every row's match
//! line resolves at once; a priority encoder picks the first row.
//! `MatchLines` is that picture in `u64`s. Rows are cut into blocks of
//! 64, and for each block and each bit column `c` the index keeps two
//! row bitmaps (bit `j` = row `64·block + j`):
//!
//! ```text
//! zero[block][c] = rows matching a key 0 at c = !(care & value)
//! one [block][c] = rows matching a key 1 at c = !care | value
//! ```
//!
//! A stored `X` sets both; the bits of absent rows in the last block are
//! zero. Words are block-major — `(block · width + c) · 2 + key_bit` — so
//! one block's `2·width` words (512 B at width 32) are contiguous.
//!
//! [`PackedTcamArray::first_match_batch_into`] answers one key by
//!
//! 1. listing the word offsets of the columns the key cares about,
//!    leading column first, in one branch-free pass over the columns.
//!    This per-key fixed cost is what a small table pays for, so a fully
//!    specified single-limb key — an ordinary lookup — takes a pass
//!    without the running count, which vectorises;
//! 2. per block, ANDing those bitmaps into a match-line word — 64 rows
//!    per AND — and testing it for zero every eight columns. A block
//!    whose line dies is left at once; on a longest-prefix table that is
//!    after the first eight columns for about four blocks in five;
//! 3. priority-encoding the first non-zero line with `trailing_zeros`.
//!    Rows are stored in ascending id order (see [`crate::packed`]), so
//!    the first set bit of the first live block *is* the winner.
//!
//! The worst case (no early exit: X-heavy rules, or a key that matches
//! late) is `width` ANDs per 64 rows. Key care bits at positions ≥ the
//! array width — which a hostile wire frame can carry — are never read,
//! exactly as the stored planes' zero care bits ignore them in the scalar
//! scan.
//!
//! The write side keeps the bitmaps in step with the row planes: an
//! append sets `2·width` bits; a mid-table insert or remove opens or
//! closes a one-bit hole by a shift-with-carry over the blocks from that
//! row on — O(rows · width / 64) word operations; a replace rewrites
//! `2·width` bits.
//!
//! Semantics are bit-identical to per-key [`PackedTcamArray::first_match`],
//! which stays a row-at-a-time scan over the row planes and never reads
//! this index: it is the oracle the property tests below (and the
//! benchmark) check every kernel answer against.

use crate::packed::{PackedTcamArray, PackedWord, MAX_PACKED_WIDTH};

/// Rows per block: the bits of one match-line word.
const BLOCK_ROWS: usize = 64;

/// Columns ANDed between zero tests of the match-line word.
const COLUMN_GROUP: usize = 8;

/// The bit-sliced search index of a [`PackedTcamArray`]: two row bitmaps
/// per 64-row block and bit column (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MatchLines {
    width: usize,
    rows: usize,
    /// Block-major bitmaps: word `(block * width + column) * 2 + key_bit`.
    bits: Vec<u64>,
}

impl MatchLines {
    pub(crate) fn new(width: usize) -> Self {
        Self {
            width,
            rows: 0,
            bits: Vec::new(),
        }
    }

    /// Inserts `word` as row `row`, moving rows `row..` up by one.
    pub(crate) fn insert(&mut self, row: usize, word: &PackedWord) {
        let stride = 2 * self.width;
        if self.rows.is_multiple_of(BLOCK_ROWS) {
            self.bits.resize(self.bits.len() + stride, 0);
        }
        self.rows += 1;
        let (first, pos) = (row / BLOCK_ROWS, row % BLOCK_ROWS);
        // Later blocks shift up one row, last block first, each taking the
        // top row of the block below it.
        for block in (first + 1..self.rows.div_ceil(BLOCK_ROWS)).rev() {
            let (below, this) =
                self.bits[(block - 1) * stride..(block + 1) * stride].split_at_mut(stride);
            for (w, b) in this.iter_mut().zip(below) {
                *w = *w << 1 | *b >> 63;
            }
        }
        let low = (1u64 << pos) - 1;
        for w in &mut self.bits[first * stride..(first + 1) * stride] {
            *w = (*w & low) | (*w & !low) << 1;
        }
        self.write(row, word);
    }

    /// Removes row `row`, moving rows `row + 1..` down by one.
    pub(crate) fn remove(&mut self, row: usize) {
        let stride = 2 * self.width;
        let (first, pos) = (row / BLOCK_ROWS, row % BLOCK_ROWS);
        let low = (1u64 << pos) - 1;
        for w in &mut self.bits[first * stride..(first + 1) * stride] {
            *w = (*w & low) | (*w >> 1 & !low);
        }
        // Each later block hands its bottom row to the block below it.
        for block in first + 1..self.rows.div_ceil(BLOCK_ROWS) {
            let (below, this) =
                self.bits[(block - 1) * stride..(block + 1) * stride].split_at_mut(stride);
            for (w, b) in this.iter_mut().zip(below) {
                *b |= *w << 63;
                *w >>= 1;
            }
        }
        self.rows -= 1;
        self.bits.truncate(self.rows.div_ceil(BLOCK_ROWS) * stride);
    }

    /// Rewrites the `2 * width` bits of row `row` to store `word`.
    pub(crate) fn write(&mut self, row: usize, word: &PackedWord) {
        let stride = 2 * self.width;
        let bit = 1u64 << (row % BLOCK_ROWS);
        let block = &mut self.bits[row / BLOCK_ROWS * stride..][..stride];
        for (c, pair) in block.chunks_exact_mut(2).enumerate() {
            let shift = 63 - c % 64;
            let care = word.mask[c / 64] >> shift & 1;
            let value = word.value[c / 64] >> shift & 1;
            for (w, on) in pair
                .iter_mut()
                .zip([care & value == 0, care == 0 || value == 1])
            {
                *w = if on { *w | bit } else { *w & !bit };
            }
        }
    }

    /// Fills `offsets` with the in-block word offset of each column `key`
    /// cares about, leading column first, and returns how many groups of
    /// [`COLUMN_GROUP`] they fill. The last group is padded with repeats
    /// of the last offset: ANDing a bitmap in twice changes nothing.
    fn key_offsets(&self, key: &PackedWord, offsets: &mut [u16; MAX_PACKED_WIDTH]) -> usize {
        // The top `width` bits of limb 0 (all of it from 64 columns up).
        let every = !(u64::MAX.checked_shr(self.width as u32).unwrap_or(0));
        let mut n = 0;
        if self.width <= 64 && key.mask[0] & every == every {
            // A fully specified single-limb key — a plain lookup — keeps
            // every column: no running count, so the pass vectorises.
            for (c, o) in offsets[..self.width].iter_mut().enumerate() {
                *o = (2 * c) as u16 + (key.value[0] >> (63 - c) & 1) as u16;
            }
            n = self.width;
        } else {
            // Every column writes its offset; only a cared-for one keeps it.
            for limb in 0..2 {
                let (value, care) = (key.value[limb], key.mask[limb]);
                for c in 0..self.width.saturating_sub(64 * limb).min(64) {
                    offsets[n] = (2 * (64 * limb + c)) as u16 + (value >> (63 - c) & 1) as u16;
                    n += (care >> (63 - c) & 1) as usize;
                }
            }
        }
        let padded = n.next_multiple_of(COLUMN_GROUP);
        if let Some(&last) = offsets[..n].last() {
            offsets[n..padded].fill(last);
        }
        padded / COLUMN_GROUP
    }

    /// The first (lowest) row matching `key`, or `None`. `offsets` is
    /// scratch space, reused across the keys of a batch.
    fn first_row(&self, key: &PackedWord, offsets: &mut [u16; MAX_PACKED_WIDTH]) -> Option<usize> {
        let stride = 2 * self.width;
        let groups = self.key_offsets(key, offsets);
        let groups = &offsets.as_chunks::<COLUMN_GROUP>().0[..groups];
        'blocks: for block in 0..self.rows.div_ceil(BLOCK_ROWS) {
            let bits = &self.bits[block * stride..][..stride];
            // Absent rows of the last block are zero in every bitmap, and
            // a key that cares about no column stops at the block's first
            // row, which is always present.
            let mut line = !0u64;
            for group in groups {
                for &o in group {
                    line &= bits[usize::from(o)];
                }
                if line == 0 {
                    continue 'blocks;
                }
            }
            return Some(block * BLOCK_ROWS + line.trailing_zeros() as usize);
        }
        None
    }
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
    /// filled to `keys.len()`; `out[i]` is the winner for `keys[i]`. See
    /// the module docs for the kernel structure.
    pub fn first_match_batch_into(&self, keys: &[PackedWord], out: &mut Vec<Option<u32>>) {
        out.clear();
        let mut offsets = [0; MAX_PACKED_WIDTH];
        out.extend(
            keys.iter()
                .map(|key| Some(self.ids[self.lines.first_row(key, &mut offsets)?])),
        );
    }
}

#[cfg(test)]
impl MatchLines {
    /// Test-only: the index holds exactly `rows`, each bitmap bit derived
    /// afresh through the scalar rule ([`PackedWord::matches`] against a
    /// one-column key), with no word beyond the last block and the bits
    /// of absent rows zero.
    pub(crate) fn assert_stores(&self, rows: &[PackedWord]) {
        assert_eq!(self.rows, rows.len());
        let mut want = vec![0u64; rows.len().div_ceil(BLOCK_ROWS) * 2 * self.width];
        for (r, row) in rows.iter().enumerate() {
            for c in 0..self.width {
                let mut key = PackedWord {
                    mask: [0; 2],
                    value: [0; 2],
                };
                key.mask[c / 64] = 1 << (63 - c % 64);
                for key_bit in 0..2 {
                    key.value[c / 64] = key.mask[c / 64] * key_bit;
                    if row.matches(&key) {
                        let word = (r / BLOCK_ROWS * self.width + c) * 2 + key_bit as usize;
                        want[word] |= 1 << (r % BLOCK_ROWS);
                    }
                }
            }
        }
        assert_eq!(self.bits, want, "width {} rows {}", self.width, self.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::TcamArray;
    use tcam_core::bit::TernaryBit;
    use tcam_numeric::rng::SplitMix64;

    /// The top `n` bits of a limb (`n` saturates at 64).
    fn leading_bits(n: usize) -> u64 {
        match n {
            0 => 0,
            1..=63 => !0 << (64 - n),
            _ => !0,
        }
    }

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
    /// third is then removed and half of those re-pushed below their
    /// neighbours, so the rows have been through mid-table holes both
    /// ways.
    fn random_array(
        rng: &mut SplitMix64,
        width: usize,
        rows: usize,
        churn: bool,
    ) -> PackedTcamArray {
        let mut packed = PackedTcamArray::new(width);
        for id in 0..rows {
            packed.push(&random_word(rng, width, 0.35), id as u32 * 3);
        }
        if churn {
            for n in 0..rows / 3 {
                let id = rng.below(rows as u64) as u32 * 3;
                if packed.remove(id) && n % 2 == 0 {
                    packed.push(&random_word(rng, width, 0.35), id + 1);
                }
            }
        }
        packed.assert_planes_consistent();
        packed
    }

    /// The batch kernel is bit-identical to the scalar `first_match`
    /// oracle across widths (single and dual limb), X-laden rules,
    /// partially-masked keys, appended and churned arrays, row counts
    /// around the block boundary, and a spread of batch lengths.
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
        // id, appended or churned.
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
    fn churned_array_keeps_id_order_and_kernel_results() {
        // Removes and mid-table pushes leave rows in ascending id order,
        // so the kernel's first set bit is still the scalar scan's winner.
        let mut rng = SplitMix64::new(0xAB);
        let packed = random_array(&mut rng, 48, 120, true);
        for i in 1..packed.len() {
            assert!(packed.row(i).unwrap().0 > packed.row(i - 1).unwrap().0);
        }
        let keys: Vec<PackedWord> = (0..64)
            .map(|_| PackedWord::pack(&random_word(&mut rng, 48, 0.1)))
            .collect();
        let scalar: Vec<Option<u32>> = keys.iter().map(|k| packed.first_match(k)).collect();
        assert_eq!(packed.first_match_batch(&keys), scalar);
    }

    /// Kernel ≡ scalar `first_match` ≡ `TcamArray` on the cases with no
    /// column early exit and on degenerate keys: rule sets ≥ 90 % X,
    /// all-X keys, keys masked in the leading columns, a width-0 array,
    /// and batch lengths 0/1/17/512.
    #[test]
    fn kernel_scalar_and_functional_array_agree_without_early_exit() {
        let mut rng = SplitMix64::new(0x0E17);
        for width in [0usize, 1, 13, 32, 64, 65, 128] {
            for rows in [1usize, 63, 64, 65, 200] {
                let mut array = TcamArray::new(rows, width);
                for row in 0..rows {
                    // The first rows are the X-heaviest, so a hit is late
                    // and every block before it runs all its columns.
                    let x_prob = if row < rows / 2 { 0.9 } else { 0.97 };
                    array
                        .write(row, random_word(&mut rng, width, x_prob))
                        .unwrap();
                }
                let packed = PackedTcamArray::from_array(&array).unwrap();
                packed.assert_planes_consistent();
                let keys: Vec<Vec<TernaryBit>> = (0..512)
                    .map(|i| match i % 4 {
                        0 => vec![TernaryBit::X; width],
                        1 => {
                            let mut key = random_word(&mut rng, width, 0.0);
                            let masked = rng.below(width as u64 + 1) as usize;
                            key[..masked].fill(TernaryBit::X);
                            key
                        }
                        2 => random_word(&mut rng, width, 0.0),
                        _ => random_word(&mut rng, width, 0.5),
                    })
                    .collect();
                let want: Vec<Option<u32>> = keys
                    .iter()
                    .map(|k| array.first_match(k).map(|r| r as u32))
                    .collect();
                let packed_keys: Vec<PackedWord> =
                    keys.iter().map(|k| PackedWord::pack(k)).collect();
                let scalar: Vec<Option<u32>> =
                    packed_keys.iter().map(|k| packed.first_match(k)).collect();
                assert_eq!(scalar, want, "width {width} rows {rows}");
                for len in [0usize, 1, 17, 512] {
                    assert_eq!(
                        packed.first_match_batch(&packed_keys[..len]),
                        want[..len],
                        "width {width} rows {rows} batch {len}"
                    );
                }
            }
        }
    }

    /// A hostile wire frame can carry care (and value) bits at positions
    /// ≥ the array width, and value bits under a zero care bit: both
    /// paths must ignore them alike, answering as for the clean key.
    #[test]
    fn care_bits_beyond_the_width_are_ignored_by_both_paths() {
        let mut rng = SplitMix64::new(0xBAD);
        for width in [0usize, 1, 13, 32, 63, 64, 65, 100, 128] {
            let packed = random_array(&mut rng, width, 100, true);
            for x_prob in [0.0, 0.3] {
                let clean: Vec<PackedWord> = (0..64)
                    .map(|_| PackedWord::pack(&random_word(&mut rng, width, x_prob)))
                    .collect();
                let inside = [leading_bits(width), leading_bits(width.saturating_sub(64))];
                let hostile: Vec<PackedWord> = clean
                    .iter()
                    .map(|k| {
                        let mut k = *k;
                        for (limb, &inside) in inside.iter().enumerate() {
                            k.mask[limb] |= rng.next_u64() & !inside;
                            k.value[limb] |= rng.next_u64() & !(k.mask[limb] & inside);
                        }
                        k
                    })
                    .collect();
                let want: Vec<Option<u32>> = clean.iter().map(|k| packed.first_match(k)).collect();
                let scalar: Vec<Option<u32>> =
                    hostile.iter().map(|k| packed.first_match(k)).collect();
                assert_eq!(scalar, want, "scalar, width {width}");
                assert_eq!(
                    packed.first_match_batch(&hostile),
                    want,
                    "kernel, width {width}"
                );
                assert_eq!(
                    packed.first_match_batch(&clean),
                    want,
                    "kernel, width {width}"
                );
            }
        }
    }
}
