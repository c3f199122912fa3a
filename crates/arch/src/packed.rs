//! Bit-packed ternary words for high-rate matching.
//!
//! [`crate::array::TcamArray`] stores one enum per ternary bit, which is the
//! right representation for circuit-level studies but far too slow for a
//! serving path that must sustain millions of lookups per second. This
//! module packs a ternary word of up to 128 bits into two `u64` limb pairs
//! — a *care mask* (1 where the bit is `0`/`1`, 0 where it is `X`) and a
//! *value* (the cared-for bits) — so a stored/key match is four ANDs, two
//! XORs and two compares:
//!
//! ```text
//! matches ⇔ (value_s ^ value_k) & mask_s & mask_k == 0   (per limb)
//! ```
//!
//! This implements exactly [`tcam_core::bit::TernaryBit::matches`]: `X` on
//! *either* side matches everything. [`PackedTcamArray`] keeps rows in
//! structure-of-arrays layout — four `u64` *planes* (`mask` limb 0, mask
//! limb 1, value limb 0, value limb 1), one entry per row — which the
//! scalar [`PackedTcamArray::first_match`] scans row by row, and beside
//! them the bit-sliced `MatchLines` index (`2·width` bits per row) that
//! the batch kernel in [`crate::kernel`] searches 64 rows per AND.
//!
//! Each row carries a caller-supplied id that **is its match priority**
//! (lower id wins) — the serving layer stores *global* rule indices there
//! so sharded lookups report the same winner as a monolithic array. Rows
//! are **always stored in ascending id order**: a push of the largest id
//! so far (every static build and table load) appends, any other push
//! inserts at its sorted position, and a remove closes the hole. Both
//! search paths therefore stop at the first matching row, and a snapshot
//! of a churned table is a plain clone.

use crate::array::TcamArray;
use crate::kernel::MatchLines;
use tcam_core::bit::TernaryBit;

/// Maximum word width a [`PackedWord`] can hold (two 64-bit limbs).
pub const MAX_PACKED_WIDTH: usize = 128;

/// A ternary word packed into care-mask/value limb pairs.
///
/// Logical bit `j` (0 = leftmost, matching the `Vec<TernaryBit>` order used
/// everywhere else) lives in limb `j / 64` at bit position `63 - (j % 64)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedWord {
    /// Care bits: 1 where the ternary bit is `0` or `1`, 0 where it is `X`.
    pub mask: [u64; 2],
    /// Bit values at cared-for positions (0 elsewhere).
    pub value: [u64; 2],
}

impl PackedWord {
    /// Packs a ternary word.
    ///
    /// # Panics
    ///
    /// Panics when `bits.len() > MAX_PACKED_WIDTH` (serving-path words are
    /// validated at table-build time).
    #[must_use]
    pub fn pack(bits: &[TernaryBit]) -> Self {
        assert!(
            bits.len() <= MAX_PACKED_WIDTH,
            "word of {} bits exceeds packed width {MAX_PACKED_WIDTH}",
            bits.len()
        );
        let mut mask = [0u64; 2];
        let mut value = [0u64; 2];
        for (j, bit) in bits.iter().enumerate() {
            let limb = j / 64;
            let pos = 63 - (j % 64);
            match bit {
                TernaryBit::Zero => mask[limb] |= 1 << pos,
                TernaryBit::One => {
                    mask[limb] |= 1 << pos;
                    value[limb] |= 1 << pos;
                }
                TernaryBit::X => {}
            }
        }
        Self { mask, value }
    }

    /// Whether a stored `self` matches a searched `key`, per the TCAM rule
    /// (`X` on either side matches everything).
    #[inline]
    #[must_use]
    pub fn matches(&self, key: &PackedWord) -> bool {
        ((self.value[0] ^ key.value[0]) & self.mask[0] & key.mask[0]) == 0
            && ((self.value[1] ^ key.value[1]) & self.mask[1] & key.mask[1]) == 0
    }
}

/// A bit-packed TCAM with id-encoded priority: the serving-path
/// counterpart of [`TcamArray`].
///
/// Each row carries a caller-supplied id, and the **numerically smallest
/// matching id wins** — ids are priorities (a shard stores global rule
/// indices; [`PackedTcamArray::from_array`] stores the source array's row
/// numbers, so "smallest id" is exactly the functional array's priority
/// encoder). Rows are kept in ascending id order through every
/// [`push`](Self::push), [`remove`](Self::remove) and
/// [`replace`](Self::replace), so the first matching row is the winner.
#[derive(Debug, Clone)]
pub struct PackedTcamArray {
    width: usize,
    /// Care-mask limb-0 plane: `m0[i]` is row `i`'s `mask[0]`.
    m0: Vec<u64>,
    /// Care-mask limb-1 plane (all zero when `width <= 64`).
    m1: Vec<u64>,
    /// Value limb-0 plane.
    v0: Vec<u64>,
    /// Value limb-1 plane (all zero when `width <= 64`).
    v1: Vec<u64>,
    /// Row ids (= priorities, lower wins), strictly ascending.
    pub(crate) ids: Vec<u32>,
    /// The bit-sliced search index over the same rows, kept in step by
    /// every mutation.
    pub(crate) lines: MatchLines,
}

impl Default for PackedTcamArray {
    fn default() -> Self {
        Self::new(0)
    }
}

impl PackedTcamArray {
    /// An empty packed array for `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics when `width > MAX_PACKED_WIDTH`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(
            width <= MAX_PACKED_WIDTH,
            "width {width} exceeds packed width {MAX_PACKED_WIDTH}"
        );
        Self {
            width,
            m0: Vec::new(),
            m1: Vec::new(),
            v0: Vec::new(),
            v1: Vec::new(),
            ids: Vec::new(),
            lines: MatchLines::new(width),
        }
    }

    /// Packs the occupied rows of a functional array, preserving priority
    /// order and recording each source row number as the id.
    ///
    /// Returns `None` when the array is wider than [`MAX_PACKED_WIDTH`].
    #[must_use]
    pub fn from_array(array: &TcamArray) -> Option<Self> {
        if array.width() > MAX_PACKED_WIDTH {
            return None;
        }
        let mut packed = Self::new(array.width());
        for row in 0..array.rows() {
            if let Some(word) = array.entry(row) {
                packed.push(word, u32::try_from(row).ok()?);
            }
        }
        Some(packed)
    }

    /// Inserts a stored word with the given id (lowest id = highest
    /// priority) at its place in id order: an id above every stored one
    /// appends, any other moves the rows after it up by one.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or a duplicate id, before anything is
    /// stored.
    pub fn push(&mut self, word: &[TernaryBit], id: u32) {
        assert_eq!(word.len(), self.width, "word width mismatch");
        let row = match self.ids.binary_search(&id) {
            Ok(_) => panic!("duplicate row id {id}"),
            Err(row) => row,
        };
        let p = PackedWord::pack(word);
        self.m0.insert(row, p.mask[0]);
        self.m1.insert(row, p.mask[1]);
        self.v0.insert(row, p.value[0]);
        self.v1.insert(row, p.value[1]);
        self.ids.insert(row, id);
        self.lines.insert(row, &p, (&self.m0, &self.v0));
    }

    /// Removes the row with `id`, moving the rows after it down by one;
    /// returns whether it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let Ok(row) = self.ids.binary_search(&id) else {
            return false;
        };
        let gone = PackedWord {
            mask: [self.m0.remove(row), self.m1.remove(row)],
            value: [self.v0.remove(row), self.v1.remove(row)],
        };
        self.ids.remove(row);
        self.lines.remove(row, &gone, (&self.m0, &self.v0));
        true
    }

    /// Replaces the stored word of `id` in place, returning whether the id
    /// was present.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn replace(&mut self, id: u32, word: &[TernaryBit]) -> bool {
        assert_eq!(word.len(), self.width, "word width mismatch");
        let Ok(row) = self.ids.binary_search(&id) else {
            return false;
        };
        let (_, old) = self.row(row).expect("present");
        let p = PackedWord::pack(word);
        self.m0[row] = p.mask[0];
        self.m1[row] = p.mask[1];
        self.v0[row] = p.value[0];
        self.v1[row] = p.value[1];
        self.lines.replace(row, &old, &p);
        true
    }

    /// Word width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether stored row `i` matches `key` — THE row comparison, shared
    /// by [`Self::first_match`] and [`Self::matches`], and the reference
    /// semantics of the bit-sliced kernel in [`crate::kernel`].
    #[inline(always)]
    fn row_hit(&self, i: usize, key: &PackedWord) -> bool {
        ((self.v0[i] ^ key.value[0]) & self.m0[i] & key.mask[0]) == 0
            && ((self.v1[i] ^ key.value[1]) & self.m1[i] & key.mask[1]) == 0
    }

    /// The highest-priority (numerically smallest) matching id, or `None`:
    /// the first matching row, since rows are in ascending id order.
    ///
    /// This is the scalar reference path, a row-at-a-time scan over the
    /// row planes that never reads the bit-sliced index; the serving
    /// layer batches keys through
    /// [`Self::first_match_batch_into`](crate::kernel), which is
    /// property-tested bit-identical to this.
    #[inline]
    #[must_use]
    pub fn first_match(&self, key: &PackedWord) -> Option<u32> {
        (0..self.ids.len())
            .find(|&i| self.row_hit(i, key))
            .map(|i| self.ids[i])
    }

    /// Ids of all matching rows in priority (ascending id) order. Uses the
    /// same per-row comparison as [`Self::first_match`].
    #[must_use]
    pub fn matches(&self, key: &PackedWord) -> Vec<u32> {
        (0..self.ids.len())
            .filter(|&i| self.row_hit(i, key))
            .map(|i| self.ids[i])
            .collect()
    }

    /// The `i`-th stored row in id order as `(id, packed word)`.
    #[must_use]
    pub fn row(&self, i: usize) -> Option<(u32, PackedWord)> {
        Some((
            *self.ids.get(i)?,
            PackedWord {
                mask: [self.m0[i], self.m1[i]],
                value: [self.v0[i], self.v1[i]],
            },
        ))
    }
}

#[cfg(test)]
impl PackedTcamArray {
    /// Test-only: ids are strictly ascending, every plane has one entry
    /// per row, and the bit-sliced index equals one rebuilt from the row
    /// planes (absent rows of the last block zero).
    pub(crate) fn assert_planes_consistent(&self) {
        assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "ids not strictly ascending"
        );
        for plane in [&self.m0, &self.m1, &self.v0, &self.v1] {
            assert_eq!(plane.len(), self.ids.len());
        }
        let rows: Vec<PackedWord> = (0..self.len()).map(|i| self.row(i).unwrap().1).collect();
        self.lines.assert_stores(&rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tcam_core::bit::{parse_ternary, word_matches};
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

    #[test]
    fn pack_matches_truth_table() {
        let stored = PackedWord::pack(&parse_ternary("1X0").unwrap());
        assert!(stored.matches(&PackedWord::pack(&parse_ternary("110").unwrap())));
        assert!(stored.matches(&PackedWord::pack(&parse_ternary("100").unwrap())));
        assert!(!stored.matches(&PackedWord::pack(&parse_ternary("101").unwrap())));
        // X in the key matches any stored bit.
        assert!(stored.matches(&PackedWord::pack(&parse_ternary("XXX").unwrap())));
    }

    #[test]
    fn packed_match_equals_reference_rule() {
        let mut rng = SplitMix64::new(71);
        for width in [1usize, 7, 32, 63, 64, 65, 88, 128] {
            for _ in 0..200 {
                let stored = random_word(&mut rng, width, 0.3);
                let key = random_word(&mut rng, width, 0.1);
                assert_eq!(
                    PackedWord::pack(&stored).matches(&PackedWord::pack(&key)),
                    word_matches(&stored, &key),
                    "width {width} stored {stored:?} key {key:?}"
                );
            }
        }
    }

    #[test]
    fn packed_array_agrees_with_functional_array() {
        let mut rng = SplitMix64::new(72);
        for _ in 0..100 {
            let width = 1 + rng.below(100) as usize;
            let rows = 1 + rng.below(20) as usize;
            let mut array = TcamArray::new(rows, width);
            for row in 0..rows {
                if rng.next_f64() < 0.7 {
                    array.write(row, random_word(&mut rng, width, 0.3)).unwrap();
                }
            }
            let packed = PackedTcamArray::from_array(&array).expect("width fits");
            assert_eq!(packed.len(), array.occupancy());
            for _ in 0..50 {
                let key = random_word(&mut rng, width, 0.05);
                let packed_key = PackedWord::pack(&key);
                assert_eq!(
                    packed.first_match(&packed_key),
                    array.first_match(&key).map(|r| r as u32)
                );
                let all: Vec<u32> = array.matches(&key).iter().map(|&r| r as u32).collect();
                assert_eq!(packed.matches(&packed_key), all);
            }
        }
    }

    #[test]
    fn from_array_rejects_wide_words() {
        let array = TcamArray::new(2, MAX_PACKED_WIDTH + 1);
        assert!(PackedTcamArray::from_array(&array).is_none());
    }

    #[test]
    fn out_of_order_pushes_land_in_id_order() {
        let mut packed = PackedTcamArray::new(4);
        // Pushed out of id order: the smaller id is stored first and wins.
        packed.push(&parse_ternary("1XXX").unwrap(), 42);
        packed.push(&parse_ternary("XXXX").unwrap(), 7);
        packed.push(&parse_ternary("10XX").unwrap(), 20);
        packed.assert_planes_consistent();
        let ids: Vec<u32> = (0..3).map(|i| packed.row(i).unwrap().0).collect();
        assert_eq!(ids, [7, 20, 42]);
        assert_eq!(
            packed.row(1).unwrap().1,
            PackedWord::pack(&parse_ternary("10XX").unwrap())
        );
        assert!(packed.row(5).is_none());
        let key = PackedWord::pack(&parse_ternary("1000").unwrap());
        assert_eq!(packed.first_match(&key), Some(7));
        assert_eq!(packed.first_match_batch(&[key]), vec![Some(7)]);
        assert_eq!(packed.matches(&key), vec![7, 20, 42]);
        assert!(packed.remove(7));
        assert_eq!(packed.first_match(&key), Some(20));
        assert_eq!(packed.first_match_batch(&[key]), vec![Some(20)]);
    }

    #[test]
    fn remove_and_replace_update_matches() {
        let mut packed = PackedTcamArray::new(3);
        packed.push(&parse_ternary("1X0").unwrap(), 0);
        packed.push(&parse_ternary("1XX").unwrap(), 1);
        packed.push(&parse_ternary("XXX").unwrap(), 2);
        let key = PackedWord::pack(&parse_ternary("100").unwrap());
        assert_eq!(packed.first_match(&key), Some(0));
        assert!(packed.remove(0));
        assert!(!packed.remove(0), "double remove reports absence");
        assert_eq!(packed.len(), 2);
        assert_eq!(packed.row(0).unwrap().0, 1, "id 0's row is gone");
        assert_eq!(packed.first_match(&key), Some(1));
        assert!(packed.replace(1, &parse_ternary("0XX").unwrap()));
        assert_eq!(packed.first_match(&key), Some(2));
        assert!(!packed.replace(9, &parse_ternary("0XX").unwrap()));
    }

    #[test]
    fn rows_stay_in_id_order_through_mutation() {
        let mut rng = SplitMix64::new(0x0B0B);
        for width in [24usize, 80] {
            let mut packed = PackedTcamArray::new(width);
            let ascending = |packed: &PackedTcamArray| {
                (1..packed.len()).all(|i| packed.row(i).unwrap().0 > packed.row(i - 1).unwrap().0)
            };
            for id in 0..40u32 {
                packed.push(&random_word(&mut rng, width, 0.3), id * 2);
            }
            for id in [6u32, 34, 10, 60, 0, 78] {
                assert!(packed.remove(id));
                assert!(ascending(&packed));
            }
            // Re-announce below, between and above the stored ids.
            for id in [10u32, 0, 33, 79, 100, 6] {
                packed.push(&random_word(&mut rng, width, 0.3), id);
                assert!(ascending(&packed));
            }
            assert!(packed.replace(33, &random_word(&mut rng, width, 0.2)));
            assert!(ascending(&packed));
            packed.assert_planes_consistent();
            assert_eq!(packed.len(), 40);
            // Stored order is priority order: the first hit of a full
            // listing is the first match, on both search paths.
            for _ in 0..100 {
                let pk = PackedWord::pack(&random_word(&mut rng, width, 0.1));
                let first = packed.matches(&pk).first().copied();
                assert_eq!(packed.first_match(&pk), first);
                assert_eq!(packed.first_match_batch(&[pk]), vec![first]);
            }
        }
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut packed = PackedTcamArray::new(2);
        packed.push(&parse_ternary("1X").unwrap(), 3);
        packed.push(&parse_ternary("XX").unwrap(), 9);
        // A duplicate panics before any plane, id or bitmap is touched —
        // whether it would have landed mid-table or at the back.
        for id in [3u32, 9] {
            let mut victim = packed.clone();
            let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                victim.push(&parse_ternary("0X").unwrap(), id);
            }));
            let message = *unwind
                .expect_err("duplicate push must panic")
                .downcast::<String>()
                .unwrap();
            assert_eq!(message, format!("duplicate row id {id}"));
            victim.assert_planes_consistent();
            assert_eq!(victim.len(), 2);
            assert_eq!(victim.row(0), packed.row(0));
            assert_eq!(victim.row(1), packed.row(1));
            for (key, want) in [("10", Some(3)), ("01", Some(9)), ("11", Some(3))] {
                let key = PackedWord::pack(&parse_ternary(key).unwrap());
                assert_eq!(victim.first_match(&key), want);
                assert_eq!(victim.first_match_batch(&[key]), vec![want]);
            }
        }
    }

    /// The bitmaps follow the row planes through every kind of write:
    /// pushes below, between and above the stored ids, removes and
    /// replaces, with the row count swept across the 64- and 128-row
    /// block boundaries in both directions so carries cross blocks and
    /// the last block is created and dropped.
    #[test]
    fn bitmaps_track_row_planes_through_mutation() {
        let mut rng = SplitMix64::new(0xB175);
        for width in [1usize, 13, 32, 63, 64, 65, 88, 128] {
            let mut packed = PackedTcamArray::new(width);
            let mut model: BTreeMap<u32, Vec<TernaryBit>> = BTreeMap::new();
            packed.assert_planes_consistent();
            for target in [131usize, 62, 130, 0] {
                while model.len() != target {
                    let ids: Vec<u32> = model.keys().copied().collect();
                    let grow = model.len() < target;
                    // One step in four runs against the sweep, so each
                    // boundary is crossed back and forth, not just once.
                    let push = ids.is_empty() || (grow != (rng.below(4) == 0));
                    if push {
                        let (lo, hi) = (
                            ids.first().map_or(1 << 30, |&i| i),
                            *ids.last().unwrap_or(&(1 << 30)),
                        );
                        let id = match rng.below(3) {
                            0 => lo - 1 - rng.below(8) as u32,
                            1 => hi + 1 + rng.below(8) as u32,
                            _ => lo + rng.below(u64::from(hi - lo) + 1) as u32,
                        };
                        let word = random_word(&mut rng, width, 0.3);
                        if model.contains_key(&id) {
                            assert!(packed.replace(id, &word));
                        } else {
                            packed.push(&word, id);
                        }
                        model.insert(id, word);
                    } else {
                        let id = match rng.below(3) {
                            0 => ids[0],
                            1 => ids[ids.len() - 1],
                            _ => ids[rng.below(ids.len() as u64) as usize],
                        };
                        assert!(packed.remove(id));
                        model.remove(&id);
                    }
                    packed.assert_planes_consistent();
                    assert_eq!(packed.len(), model.len());
                    let key = random_word(&mut rng, width, 0.05);
                    let want = model
                        .iter()
                        .find(|(_, w)| word_matches(w, &key))
                        .map(|(&id, _)| id);
                    let pk = PackedWord::pack(&key);
                    assert_eq!(packed.first_match(&pk), want, "width {width}");
                    assert_eq!(packed.first_match_batch(&[pk]), vec![want], "width {width}");
                }
            }
            assert!(packed.is_empty());
        }
    }

    /// Interleaved push/remove/replace/search stays bit-identical to the
    /// functional `TcamArray` oracle, with packed id = oracle row (so
    /// min-id = the oracle's priority encoder).
    #[test]
    fn interleaved_mutation_agrees_with_functional_oracle() {
        let mut rng = SplitMix64::new(0x0D17);
        for trial in 0..30 {
            let width = 1 + rng.below(100) as usize;
            let rows = 4 + rng.below(24) as usize;
            let mut oracle = TcamArray::new(rows, width);
            let mut packed = PackedTcamArray::new(width);
            for step in 0..300 {
                let row = rng.below(rows as u64) as usize;
                match rng.below(5) {
                    0 | 1 => {
                        let word = random_word(&mut rng, width, 0.3);
                        if oracle.entry(row).is_some() {
                            packed.replace(row as u32, &word);
                        } else {
                            packed.push(&word, row as u32);
                        }
                        oracle.write(row, word).unwrap();
                    }
                    2 => {
                        let was = oracle.entry(row).is_some();
                        oracle.erase(row).unwrap();
                        assert_eq!(packed.remove(row as u32), was);
                    }
                    _ => {
                        let key = random_word(&mut rng, width, 0.05);
                        assert_eq!(
                            packed.first_match(&PackedWord::pack(&key)),
                            oracle.first_match(&key).map(|r| r as u32),
                            "trial {trial} step {step}"
                        );
                        let all: Vec<u32> =
                            oracle.matches(&key).iter().map(|&r| r as u32).collect();
                        assert_eq!(packed.matches(&PackedWord::pack(&key)), all);
                    }
                }
                assert_eq!(packed.len(), oracle.occupancy());
            }
            packed.assert_planes_consistent();
        }
    }
}
