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
//! (lower id wins) — the serving layer stores *global* rule indices there.
//! Rows sit in *slots* in **ascending id order**, and a slot may be a
//! **hole**: a removed row's slot, invalidated rather than closed, whose
//! bitmaps are zero in every column and whose valid bit is clear. A hole
//! keeps an id between its neighbours', so the slot ids stay strictly
//! ascending and one binary search finds a row or the place for one.
//!
//! * `remove` invalidates its row and moves nothing.
//! * `push` of an id takes a hole next to its sorted place; otherwise the
//!   rows between that place and the **nearest hole**, on either side,
//!   move one slot towards the hole. Only a table with no hole gains a
//!   slot, at the back, so a push of the largest id so far (every static
//!   build and table load) appends, and a table loaded that way has no
//!   hole.
//! * When a remove leaves more holes than rows, the table is
//!   **compacted**: the rows close up in order and the holes go.
//!
//! In a physical TCAM each moved row is a row write, so `push` and
//! `remove` return the rows they moved and the update layer prices them.
//! Both search paths stop at the first valid matching row: the kernel's
//! AND drops a hole by its zero bitmaps, and the scalar scan checks the
//! valid bit of a slot that hit. A snapshot of a churned table is a plain
//! clone.

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
        // Branch-free: a random word's bits would defeat a branch per bit,
        // and every rule write packs one.
        for ((mask, value), limb) in mask.iter_mut().zip(&mut value).zip(bits.chunks(64)) {
            for (i, bit) in limb.iter().enumerate() {
                *mask |= u64::from(*bit != TernaryBit::X) << (63 - i);
                *value |= u64::from(*bit == TernaryBit::One) << (63 - i);
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
/// matching id wins** — ids are priorities (a rule set stores global rule
/// indices; [`PackedTcamArray::from_array`] stores the source array's row
/// numbers, so "smallest id" is exactly the functional array's priority
/// encoder). Rows sit in slots in ascending id order, with holes between
/// them (see the module docs), so the first matching valid row is the
/// winner. [`push`](Self::push) and [`remove`](Self::remove) return the
/// rows they moved: each is a row write in a physical array.
#[derive(Debug, Clone)]
pub struct PackedTcamArray {
    width: usize,
    /// Care-mask limb-0 plane: `m0[i]` is slot `i`'s `mask[0]`. A hole's
    /// entries keep the word it last held.
    m0: Vec<u64>,
    /// Care-mask limb-1 plane (all zero when `width <= 64`).
    m1: Vec<u64>,
    /// Value limb-0 plane.
    v0: Vec<u64>,
    /// Value limb-1 plane (all zero when `width <= 64`).
    v1: Vec<u64>,
    /// Slot ids (= priorities, lower wins), strictly ascending over every
    /// slot: a hole keeps an id between its neighbours'.
    pub(crate) ids: Vec<u32>,
    /// Slots that hold no row; never more than the rows.
    holes: usize,
    /// The bit-sliced search index over the same slots, kept in step by
    /// every mutation; its valid words say which slots are holes.
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
            holes: 0,
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

    /// Stores a word with the given id (lowest id = highest priority) at
    /// its place in id order and returns the rows moved to make room: a
    /// hole next to that place takes it; otherwise the rows between it
    /// and the nearest hole, on either side, move one slot towards that
    /// hole; a table with no hole first gains one at the back, so an id
    /// above every stored one moves nothing and any other moves every row
    /// after its place.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or a duplicate id, before anything is
    /// stored.
    pub fn push(&mut self, word: &[TernaryBit], id: u32) -> usize {
        assert_eq!(word.len(), self.width, "word width mismatch");
        let (slot, moves) = match self.ids.binary_search(&id) {
            Ok(slot) if self.lines.is_valid(slot) => panic!("duplicate row id {id}"),
            // A hole that kept this very id.
            Ok(slot) => (slot, 0),
            Err(at) => self.open_hole(at, id),
        };
        self.fill(slot, id, &PackedWord::pack(word));
        moves
    }

    /// Appends a hole at the back, keeping `id` until it is filled.
    fn push_hole(&mut self, id: u32) {
        for plane in [&mut self.m0, &mut self.m1, &mut self.v0, &mut self.v1] {
            plane.push(0);
        }
        self.ids.push(id);
        self.holes += 1;
        self.lines.push_hole();
    }

    /// Stores `p` with `id` in the hole at `slot`.
    fn fill(&mut self, slot: usize, id: u32, p: &PackedWord) {
        self.set_planes(slot, p);
        self.ids[slot] = id;
        self.holes -= 1;
        self.lines.fill(slot, p);
    }

    /// Writes `p` into slot `slot` of the row planes.
    fn set_planes(&mut self, slot: usize, p: &PackedWord) {
        self.m0[slot] = p.mask[0];
        self.m1[slot] = p.mask[1];
        self.v0[slot] = p.value[0];
        self.v1[slot] = p.value[1];
    }

    /// Brings a hole to where `id` sorts, between slots `at - 1` and `at`,
    /// and returns its slot and the rows moved.
    fn open_hole(&mut self, at: usize, id: u32) -> (usize, usize) {
        if self.holes == 0 {
            self.push_hole(id);
        }
        let after = self.lines.hole_from(at).map(|hole| (hole, hole - at));
        let before = self.lines.hole_before(at).map(|hole| (hole, at - 1 - hole));
        let (hole, moves) = [after, before]
            .into_iter()
            .flatten()
            .min_by_key(|&(_, moves)| moves)
            .expect("the table has a hole");
        let to = if hole < at { at - 1 } else { at };
        self.move_hole(hole, to);
        (to, moves)
    }

    /// Moves the hole at slot `from` to slot `to`, the rows between moving
    /// one slot towards `from`.
    fn move_hole(&mut self, from: usize, to: usize) {
        let (src, dst) = if to < from {
            (to..from, to + 1)
        } else {
            (from + 1..to + 1, from)
        };
        for plane in [&mut self.m0, &mut self.m1, &mut self.v0, &mut self.v1] {
            plane.copy_within(src.clone(), dst);
        }
        self.ids.copy_within(src, dst);
        self.lines.move_hole(from, to, (&self.m0, &self.v0));
    }

    /// Removes the row with `id`, leaving a hole; returns `None` when it
    /// was absent, else the rows moved — none, unless the holes now
    /// outnumber the rows and the table is compacted.
    pub fn remove(&mut self, id: u32) -> Option<usize> {
        let slot = self.slot_of(id)?;
        let (_, gone) = self.slot(slot);
        self.lines.clear(slot, &gone);
        self.holes += 1;
        Some(if self.holes > self.len() {
            self.compact()
        } else {
            0
        })
    }

    /// Closes every hole, keeping the rows in order, and returns the rows
    /// that changed slot.
    fn compact(&mut self) -> usize {
        let kept: Vec<usize> = (0..self.ids.len())
            .filter(|&s| self.lines.is_valid(s))
            .collect();
        let moves = kept.iter().enumerate().filter(|&(r, &s)| r != s).count();
        let mut packed = Self::new(self.width);
        for (row, &s) in kept.iter().enumerate() {
            let (id, word) = self.slot(s);
            packed.push_hole(id);
            packed.fill(row, id, &word);
        }
        *self = packed;
        moves
    }

    /// Replaces the stored word of `id` in place, returning whether the id
    /// was present.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn replace(&mut self, id: u32, word: &[TernaryBit]) -> bool {
        assert_eq!(word.len(), self.width, "word width mismatch");
        let Some(slot) = self.slot_of(id) else {
            return false;
        };
        let (_, old) = self.slot(slot);
        let p = PackedWord::pack(word);
        self.set_planes(slot, &p);
        self.lines.replace(slot, &old, &p);
        true
    }

    /// Whether a row with `id` is stored.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.slot_of(id).is_some()
    }

    /// The slot of the row with `id`, if one is stored.
    fn slot_of(&self, id: u32) -> Option<usize> {
        let slot = self.ids.binary_search(&id).ok()?;
        self.lines.is_valid(slot).then_some(slot)
    }

    /// Slot `i`'s id and word (for a hole, the last ones it held).
    fn slot(&self, i: usize) -> (u32, PackedWord) {
        (
            self.ids[i],
            PackedWord {
                mask: [self.m0[i], self.m1[i]],
                value: [self.v0[i], self.v1[i]],
            },
        )
    }

    /// Word width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows (holes not counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len() - self.holes
    }

    /// `true` when no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots: the stored rows and the holes between them.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.ids.len()
    }

    /// Whether stored slot `i` matches `key` — THE row comparison, shared
    /// by [`Self::first_match`] and [`Self::matches`], and the reference
    /// semantics of the bit-sliced kernel in [`crate::kernel`]. A hole may
    /// hit too: callers test validity after a hit.
    #[inline(always)]
    fn row_hit(&self, i: usize, key: &PackedWord) -> bool {
        ((self.v0[i] ^ key.value[0]) & self.m0[i] & key.mask[0]) == 0
            && ((self.v1[i] ^ key.value[1]) & self.m1[i] & key.mask[1]) == 0
    }

    /// The highest-priority (numerically smallest) matching id, or `None`:
    /// the first matching valid row, since rows are in ascending id order.
    ///
    /// This is the scalar reference path, a row-at-a-time scan over the
    /// row planes that reads the bit-sliced index only for the valid bit
    /// of a slot that hit; the serving layer batches keys through
    /// [`Self::first_match_batch_into`](crate::kernel), which is
    /// property-tested bit-identical to this.
    #[inline]
    #[must_use]
    pub fn first_match(&self, key: &PackedWord) -> Option<u32> {
        (0..self.ids.len())
            .find(|&i| self.row_hit(i, key) && self.lines.is_valid(i))
            .map(|i| self.ids[i])
    }

    /// Ids of all matching rows in priority (ascending id) order. Uses the
    /// same per-row comparison as [`Self::first_match`].
    #[must_use]
    pub fn matches(&self, key: &PackedWord) -> Vec<u32> {
        (0..self.ids.len())
            .filter(|&i| self.row_hit(i, key) && self.lines.is_valid(i))
            .map(|i| self.ids[i])
            .collect()
    }

    /// The stored rows in id order as `(id, packed word)`.
    pub fn rows(&self) -> impl Iterator<Item = (u32, PackedWord)> + '_ {
        (0..self.ids.len())
            .filter(|&i| self.lines.is_valid(i))
            .map(|i| self.slot(i))
    }

    /// The `i`-th stored row in id order as `(id, packed word)`: slot `i`
    /// of a table with no hole, else a walk over the slots.
    #[must_use]
    pub fn row(&self, i: usize) -> Option<(u32, PackedWord)> {
        if self.holes == 0 {
            (i < self.ids.len()).then(|| self.slot(i))
        } else {
            self.rows().nth(i)
        }
    }
}

#[cfg(test)]
impl PackedTcamArray {
    /// Test-only: ids are strictly ascending over every slot, every plane
    /// has one entry per slot, the holes are counted and never outnumber
    /// the rows, and the bit-sliced index equals one rebuilt from the row
    /// planes and the holes.
    pub(crate) fn assert_planes_consistent(&self) {
        assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "ids not strictly ascending"
        );
        for plane in [&self.m0, &self.m1, &self.v0, &self.v1] {
            assert_eq!(plane.len(), self.ids.len());
        }
        let slots: Vec<Option<PackedWord>> = (0..self.ids.len())
            .map(|i| self.lines.is_valid(i).then(|| self.slot(i).1))
            .collect();
        assert_eq!(self.holes, slots.iter().filter(|s| s.is_none()).count());
        assert!(
            self.holes <= self.len(),
            "{} holes, {} rows",
            self.holes,
            self.len()
        );
        self.lines.assert_stores(&slots);
    }

    /// Test-only: the slots that are holes.
    pub(crate) fn hole_slots(&self) -> Vec<usize> {
        (0..self.ids.len())
            .filter(|&i| !self.lines.is_valid(i))
            .collect()
    }

    /// Test-only: which placements of a hole the table shows — at the
    /// first slot, at slot 63 (the top of block 0), at the last slot, as
    /// the first row of a later block, and filling a whole block.
    pub(crate) fn hole_shapes(&self) -> [bool; 5] {
        let holes = self.hole_slots();
        let hole = |s: usize| holes.contains(&s);
        let (slots, blocks) = (self.slots(), self.slots().div_ceil(64));
        [
            hole(0),
            hole(63),
            slots > 0 && hole(slots - 1),
            (1..blocks).any(|b| hole(64 * b)),
            (0..blocks).any(|b| (64 * b..slots.min(64 * b + 64)).all(hole)),
        ]
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
        let rows: Vec<(u32, PackedWord)> = packed.rows().collect();
        let ids: Vec<u32> = rows.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [7, 20, 42]);
        assert_eq!(rows[1].1, PackedWord::pack(&parse_ternary("10XX").unwrap()));
        assert_eq!(packed.row(1), Some(rows[1]));
        assert!(packed.row(3).is_none());
        let key = PackedWord::pack(&parse_ternary("1000").unwrap());
        assert_eq!(packed.first_match(&key), Some(7));
        assert_eq!(packed.first_match_batch(&[key]), vec![Some(7)]);
        assert_eq!(packed.matches(&key), vec![7, 20, 42]);
        assert_eq!(packed.remove(7), Some(0));
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
        assert!(packed.contains(0) && !packed.contains(3));
        assert_eq!(packed.remove(0), Some(0));
        assert_eq!(packed.remove(0), None, "double remove reports absence");
        assert!(!packed.contains(0), "a hole keeps id 0 but holds no row");
        assert!(packed.contains(1) && packed.contains(2));
        assert_eq!(packed.len(), 2);
        assert_eq!(packed.row(0).unwrap().0, 1, "id 0's row is gone");
        assert_eq!(packed.row(1).unwrap().0, 2);
        assert!(packed.row(2).is_none());
        assert_eq!(packed.first_match(&key), Some(1));
        assert!(packed.replace(1, &parse_ternary("0XX").unwrap()));
        assert_eq!(packed.first_match(&key), Some(2));
        assert!(!packed.replace(9, &parse_ternary("0XX").unwrap()));
        assert!(!packed.contains(9));
    }

    #[test]
    fn rows_stay_in_id_order_through_mutation() {
        let mut rng = SplitMix64::new(0x0B0B);
        for width in [24usize, 80] {
            let mut packed = PackedTcamArray::new(width);
            let ascending = |packed: &PackedTcamArray| {
                let ids: Vec<u32> = packed.rows().map(|(id, _)| id).collect();
                ids.windows(2).all(|w| w[0] < w[1])
            };
            for id in 0..40u32 {
                packed.push(&random_word(&mut rng, width, 0.3), id * 2);
            }
            for id in [6u32, 34, 10, 60, 0, 78] {
                assert!(packed.remove(id).is_some());
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
            assert!(victim.rows().eq(packed.rows()));
            for (key, want) in [("10", Some(3)), ("01", Some(9)), ("11", Some(3))] {
                let key = PackedWord::pack(&parse_ternary(key).unwrap());
                assert_eq!(victim.first_match(&key), want);
                assert_eq!(victim.first_match_batch(&[key]), vec![want]);
            }
        }
    }

    /// What a write moves. In a hole-free table of R rows the
    /// highest-priority push moves all R and an append none; a remove
    /// leaves a hole and moves none; a push beside a hole moves none, and
    /// any other moves the rows between its place and the nearest hole,
    /// on the nearer side, without opening a slot.
    #[test]
    fn pushes_move_rows_only_to_the_nearest_hole() {
        const R: u32 = 100;
        let word = parse_ternary("1X0X").unwrap();
        let table = || {
            let mut packed = PackedTcamArray::new(4);
            for i in 1..=R {
                assert_eq!(packed.push(&word, 10 * i), 0, "an append moves nothing");
            }
            packed
        };
        let mut packed = table();
        assert_eq!(packed.push(&word, 1), R as usize);
        assert_eq!(
            (packed.slots(), packed.hole_slots()),
            (R as usize + 1, vec![])
        );
        packed.assert_planes_consistent();

        let mut packed = table();
        assert_eq!(packed.remove(500), Some(0));
        assert_eq!(packed.hole_slots(), [49]);
        // Beside the hole, on either side of its kept id, or at that id.
        for id in [495, 505, 500] {
            let mut beside = packed.clone();
            assert_eq!(beside.push(&word, id), 0, "id {id}");
            assert_eq!((beside.slots(), beside.hole_slots()), (R as usize, vec![]));
            beside.assert_planes_consistent();
        }
        // 255 sorts at slot 25: the hole is 24 rows up.
        let mut one_hole = packed.clone();
        assert_eq!(one_hole.push(&word, 255), 24);
        one_hole.assert_planes_consistent();
        // With a second hole at slot 10 the nearer one is 14 rows down.
        assert_eq!(packed.remove(110), Some(0));
        assert_eq!(packed.clone().push(&word, 255), 14);
        // The largest id so far takes the nearest hole, 50 rows down,
        // rather than a new slot.
        assert_eq!(packed.push(&word, 5000), 50);
        assert_eq!(
            (packed.slots(), packed.hole_slots()),
            (R as usize, vec![10])
        );
        packed.assert_planes_consistent();
        let ids: Vec<u32> = packed.rows().map(|(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), R as usize - 1);
    }

    /// Removes past the compaction rule and pushes back: a table closes up
    /// when its holes outnumber its rows, reporting every row that changed
    /// slot, and a push fills a hole before the table grows a slot. Every
    /// step agrees with the functional array on random keys and the
    /// all-`X` key.
    #[test]
    fn removes_compact_past_the_rule_and_pushes_refill() {
        const WIDTH: usize = 20;
        let mut rng = SplitMix64::new(0xC0C0);
        let mut packed = PackedTcamArray::new(WIDTH);
        let mut model: BTreeMap<u32, Vec<TernaryBit>> = BTreeMap::new();
        let check = |packed: &PackedTcamArray,
                     model: &BTreeMap<u32, Vec<TernaryBit>>,
                     rng: &mut SplitMix64| {
            packed.assert_planes_consistent();
            assert_eq!(packed.len(), model.len());
            let mut array = TcamArray::new(model.len().max(1), WIDTH);
            for (row, word) in model.values().enumerate() {
                array.write(row, word.clone()).unwrap();
            }
            let ids: Vec<u32> = model.keys().copied().collect();
            let mut keys = vec![vec![TernaryBit::X; WIDTH]];
            keys.extend((0..8).map(|_| random_word(rng, WIDTH, 0.1)));
            for key in keys {
                let want = array.first_match(&key).map(|r| ids[r]);
                let pk = PackedWord::pack(&key);
                assert_eq!(packed.first_match(&pk), want);
                assert_eq!(packed.first_match_batch(&[pk]), vec![want]);
            }
        };
        for id in 0..150u32 {
            let word = random_word(&mut rng, WIDTH, 0.4);
            packed.push(&word, 2 * id);
            model.insert(2 * id, word);
        }
        let mut compactions = 0;
        while model.len() > 20 {
            let ids: Vec<u32> = model.keys().copied().collect();
            let id = ids[rng.below(ids.len() as u64) as usize];
            let holes = packed.hole_slots();
            let kept: Vec<usize> = (0..packed.slots())
                .filter(|s| !holes.contains(s) && packed.ids[*s] != id)
                .collect();
            let slots = packed.slots();
            let moves = packed.remove(id).unwrap();
            model.remove(&id);
            if slots - model.len() > model.len() {
                compactions += 1;
                let closed_up = kept.iter().enumerate().filter(|&(r, s)| r != *s).count();
                assert_eq!(moves, closed_up);
                assert!(moves > 0);
                assert_eq!((packed.slots(), packed.hole_slots()), (model.len(), vec![]));
            } else {
                assert_eq!((moves, packed.slots()), (0, slots));
            }
            check(&packed, &model, &mut rng);
        }
        // 150 rows close up at 74 (76 holes) and again at 36 (38 holes).
        assert_eq!(compactions, 2);
        while model.len() < 150 {
            let id = rng.below(1000) as u32;
            if model.contains_key(&id) {
                continue;
            }
            let (holes, slots) = (packed.hole_slots().len(), packed.slots());
            let word = random_word(&mut rng, WIDTH, 0.4);
            packed.push(&word, id);
            model.insert(id, word);
            assert_eq!(packed.slots(), slots + usize::from(holes == 0));
            check(&packed, &model, &mut rng);
        }
    }

    /// The bitmaps follow the row planes through every kind of write:
    /// pushes below, between and above the stored ids, removes and
    /// replaces, with the row count swept across the 64- and 128-row
    /// block boundaries in both directions so moves carry rows across
    /// blocks, holes open at the first, 63rd and last slot, as a block's
    /// first row and across a whole block, and compaction drops the last
    /// block. Each step is checked on a random key and the all-`X` key.
    #[test]
    fn bitmaps_track_row_planes_through_mutation() {
        let mut rng = SplitMix64::new(0xB175);
        for width in [1usize, 13, 32, 63, 64, 65, 88, 128] {
            let mut packed = PackedTcamArray::new(width);
            let mut model: BTreeMap<u32, Vec<TernaryBit>> = BTreeMap::new();
            let (mut shapes, mut compacted) = ([false; 5], false);
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
                        let blocks = packed.slots().div_ceil(64);
                        assert!(packed.remove(id).is_some());
                        compacted |= packed.slots().div_ceil(64) < blocks;
                        model.remove(&id);
                    }
                    packed.assert_planes_consistent();
                    assert_eq!(packed.len(), model.len());
                    for (seen, now) in shapes.iter_mut().zip(packed.hole_shapes()) {
                        *seen |= now;
                    }
                    let keys = [
                        random_word(&mut rng, width, 0.05),
                        vec![TernaryBit::X; width],
                    ];
                    for key in keys {
                        let want = model
                            .iter()
                            .find(|(_, w)| word_matches(w, &key))
                            .map(|(&id, _)| id);
                        let pk = PackedWord::pack(&key);
                        assert_eq!(packed.first_match(&pk), want, "width {width}");
                        assert_eq!(packed.first_match_batch(&[pk]), vec![want], "width {width}");
                    }
                }
            }
            assert!(packed.is_empty());
            assert_eq!((shapes, compacted), ([true; 5], true), "width {width}");
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
                        assert_eq!(packed.remove(row as u32).is_some(), was);
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
