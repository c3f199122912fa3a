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
//! A stored `X` sets both; the bits of a hole (a slot whose row was
//! removed, see [`crate::packed`]) and of absent rows in the last block
//! are zero in every column, and a valid word per block marks the slots
//! that hold a row. Words are block-major — `(block · width + c) · 2 +
//! key_bit` — so one block's `2·width` words (512 B at width 32) are
//! contiguous. After the last block come `256 − 2·width` zero words, so
//! that from the start of any block 256 words can be read.
//!
//! Beside the bitmaps sit two block summaries, one per leading column
//! group: group 0 is keyed by the k₀ = min(12, width) leading columns,
//! group 1 by the next k₁ = min(8, width − k₀). For each of a group's
//! 2^k values `v`, a bitmap over blocks has a block's bit set exactly
//! when some row of the block matches `v` on the group's columns (at
//! width ≤ 12 group 1 has no column, and its one value lists the blocks
//! that hold a row). That is a group's ANDs of every block done ahead of
//! time and reduced to "line ≠ 0"; it is the software form of a
//! partitioned TCAM's bank pre-selection, where a few key bits choose
//! which banks are searched at all.
//!
//! [`PackedTcamArray::first_match_batch_into`] answers one key by
//!
//! 1. listing the word offsets of the columns the key cares about,
//!    leading column first, one byte each. This per-key fixed cost is
//!    what a small table pays for, so a fully specified single-limb key —
//!    an ordinary lookup — is prepared a key byte at a time: one load
//!    from a 256-entry table gives a byte's eight offsets, and the
//!    columns after the last full byte take the per-column formula. Any
//!    other key takes one branch-free pass over the columns with a
//!    running count of the cared-for ones;
//! 2. per candidate block, in ascending order, ANDing those bitmaps into
//!    a match-line word — 64 rows per AND — and testing it for zero every
//!    eight columns. The bitmaps end in a zero tail, so every block's
//!    words start a view of `2·MAX_PACKED_WIDTH` = 256 words, and a `u8`
//!    offset indexes it with no bounds check. The candidates are the
//!    blocks both summaries list under the key's values on their groups,
//!    `live₀[v₀] & live₁[v₁]`, one shift of the key's first limb giving
//!    both values; a key with an `X` in a group skips that group's
//!    summary, and one with an `X` in both gets every block. A row that
//!    matches the key matches it on each group, so its block survives
//!    both summaries: a block no row of which agrees with the key's first
//!    20 columns is never visited. On the 4,097-row longest-prefix table
//!    of `lpm_scan_4k` a key has a mean of 3.3 candidate blocks and
//!    visits 1.19 of 65 (3.0 with two summaries keyed by the key's first
//!    two bytes), where a scan visits 37.6. A visited block whose line
//!    dies is left at once;
//! 3. priority-encoding the first non-zero line with `trailing_zeros`.
//!    Rows are stored in ascending id order (see [`crate::packed`]), so
//!    the first set bit of the first live block *is* the winner.
//!
//! A hole drops out at the key's first column, so the loop reads no
//! valid word; a key that cares about no column matches every row and is
//! answered from the valid words alone.
//!
//! The worst case (no early exit: X-heavy rules, or a key that matches
//! late) is `width` ANDs per 64 rows. Key care bits at positions ≥ the
//! array width — which a hostile wire frame can carry — are never read,
//! exactly as the stored planes' zero care bits ignore them in the scalar
//! scan.
//!
//! The write side keeps the bitmaps in step with the row planes: filling
//! a hole, or emptying a row into one, sets or clears `2·width` bits and
//! a valid bit, and a replace rewrites `2·width` bits. Moving a hole —
//! how a push brings the nearest hole to its place — shifts the rows
//! between by one slot with a masked shift-with-carry over the blocks
//! they span, O(moved · width / 64) word operations, the valid words
//! shifted alike. The summaries follow without a rebuild, by one loop
//! over the groups, and depend on the bitmaps alone. A row joining a
//! block sets the block's bit under each of its 2^x values of a group (x
//! its `X`s among the group's columns). A row leaving a block rechecks
//! each of its values against the block's bitmaps as they stand after
//! the write: the AND of the value's bitmaps over the group's columns,
//! started from the block's valid word, and the bit is cleared when that
//! line is zero. A prefix's values, group 0's plus group 1's, number
//! 1 + 1 at /20 or longer, 1 + 16 at /16, 1 + 256 at /12, 16 + 256 at
//! /8 and 4,096 + 256 for a default route. A move changes only the
//! blocks whose edge a row crosses, one row per edge (its leading
//! columns read from the row planes' first limb). The summaries stay
//! exact, and a block of holes has no live bit.
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

/// The most columns each block summary is keyed by, one summary per
/// leading column group: the key's first 12 columns, then the next 8.
const SUMMARY_WIDTHS: [usize; 2] = [12, 8];

/// Block summaries, one per leading column group.
const SUMMARY_GROUPS: usize = SUMMARY_WIDTHS.len();

/// Blocks per block-summary word.
const SUMMARY_BLOCKS: usize = 64;

/// Words of a block view: the most words a block can have, and the most
/// values a `u8` offset can take.
const BLOCK_VIEW: usize = 2 * MAX_PACKED_WIDTH;

/// The offsets of one key byte's eight columns, packed a byte each, the
/// byte's first column lowest: byte `i` of entry `v` is `2·i` plus bit
/// `7 − i` of `v`, the key bit of column `i`. Adding `16·b` to every byte
/// moves them to key byte `b`; no byte carries, as `16·7 + 15 = 127`.
static BYTE_OFFSETS: [u64; 256] = const {
    let mut table = [0; 256];
    let mut v = 0;
    while v < 256 {
        let mut i = 0;
        while i < 8 {
            table[v] |= ((2 * i + (v >> (7 - i) & 1)) as u64) << (8 * i);
            i += 1;
        }
        v += 1;
    }
    table
};

/// `16·b` in every byte of a [`BYTE_OFFSETS`] entry is this times `b`.
const BYTE_STEP: u64 = 0x1010_1010_1010_1010;

/// A word's pattern on the summaries' columns, `(care, value)`: the
/// columns of every group in key order, the last one lowest. One group's
/// part of it has the same shape.
type Lead = (usize, usize);

/// Limb 0 of the row planes, `(mask, value)`, one entry per row: where the
/// write path reads a row's leading columns.
pub(crate) type Limb0<'a> = (&'a [u64], &'a [u64]);

/// The values of the `lead` columns that pattern `(care, value)` matches:
/// 2^x of them for x `X`s, ascending from `value`'s own.
fn lead_values(lead: usize, (care, value): Lead) -> impl Iterator<Item = usize> {
    let xs = !care & ((1 << lead) - 1);
    let mut next = Some(0);
    std::iter::from_fn(move || {
        let sub = next?;
        next = (sub != xs).then(|| (sub | !xs).wrapping_add(1) & xs);
        Some(value | sub)
    })
}

/// One block summary: for each value of one group of columns, which
/// blocks hold a row matching it there (see the module docs).
#[derive(Debug, Clone)]
struct Summary {
    /// The group's first column: the columns of the groups before it.
    first: usize,
    /// Columns the summary is keyed by, from `first`: for group `g`,
    /// `min(SUMMARY_WIDTHS[g], width − first)`, or none.
    lead: usize,
    /// Where the group's last column sits in a [`Lead`].
    low: usize,
    /// Bit `block % 64` of word `(block / 64) << lead | v` is set exactly
    /// when some row of `block` matches `v` on the group's columns.
    live: Vec<u64>,
}

impl Summary {
    /// The `lead` low bits.
    fn ones(&self) -> usize {
        (1 << self.lead) - 1
    }

    /// This group's part of a pattern.
    fn part(&self, (care, value): Lead) -> Lead {
        let ones = self.ones();
        (care >> self.low & ones, value >> self.low & ones)
    }

    /// Opens block `block`: every 64th opens an empty summary word.
    fn open(&mut self, block: usize) {
        if block.is_multiple_of(SUMMARY_BLOCKS) {
            self.live.resize(self.live.len() + (1 << self.lead), 0);
        }
    }

    /// Brings `block` up to date after a row with pattern `enter` joined
    /// it and one with `leave` left it; `bits` and `valid` are the block's
    /// bitmaps and valid word as they now stand. Each value `enter`
    /// matches on the group is live. Each value `leave` matched stays
    /// live while another row of the block matches it: the AND of its
    /// bitmaps over the group's columns, started from the valid word so
    /// that a group with no column asks whether the block holds a row.
    fn resummarize(
        &mut self,
        block: usize,
        (bits, valid): (&[u64], u64),
        enter: Option<Lead>,
        leave: Option<Lead>,
    ) {
        let (enter, leave) = (enter.map(|p| self.part(p)), leave.map(|p| self.part(p)));
        if enter == leave {
            return;
        }
        let lead = self.lead;
        let live = &mut self.live[(block / SUMMARY_BLOCKS) << lead..][..1 << lead];
        let bit = 1u64 << (block % SUMMARY_BLOCKS);
        for v in enter.into_iter().flat_map(|p| lead_values(lead, p)) {
            live[v] |= bit;
        }
        // A value's last column is its lowest bit.
        let columns = bits[2 * self.first..][..2 * lead].as_chunks::<2>().0;
        for v in leave.into_iter().flat_map(|p| lead_values(lead, p)) {
            let line = (columns.iter().rev())
                .enumerate()
                .fold(valid, |line, (i, pair)| line & pair[v >> i & 1]);
            if line == 0 {
                live[v] &= !bit;
            }
        }
    }
}

/// Scratch space of [`MatchLines::first_row`], reused across the keys of a
/// batch.
struct Scratch {
    /// The word offsets of the columns a key cares about, a byte each:
    /// the largest is `2·127 + 1 = 255`.
    offsets: [u8; MAX_PACKED_WIDTH],
    /// Blocks visited so far: what the block summaries save shows here.
    visited: usize,
}

impl Scratch {
    fn new() -> Self {
        Self {
            offsets: [0; MAX_PACKED_WIDTH],
            visited: 0,
        }
    }
}

/// The bits of rows `lo..hi` that fall in `block`.
fn rows_mask(block: usize, lo: usize, hi: usize) -> u64 {
    let base = block * BLOCK_ROWS;
    let below = |row: usize| {
        let n = row.clamp(base, base + BLOCK_ROWS) - base;
        u64::MAX.checked_shr((BLOCK_ROWS - n) as u32).unwrap_or(0)
    };
    below(hi) & !below(lo)
}

/// Moves the hole at row `from` to row `to` in block-major bitmaps of
/// `stride` words per block: the rows between move one row towards
/// `from`, and `to`'s bits are cleared.
fn carry_hole(words: &mut [u64], stride: usize, from: usize, to: usize) {
    let (first, last) = (from.min(to) / BLOCK_ROWS, from.max(to) / BLOCK_ROWS);
    if to < from {
        // Rows `to..from` move up one, the last block first: each block
        // past the first takes the top row of the block below it.
        for block in (first..=last).rev() {
            let moved = rows_mask(block, to + 1, from + 1);
            let keep = !(moved | rows_mask(block, to, to + 1));
            if block > first {
                let (below, this) =
                    words[(block - 1) * stride..(block + 1) * stride].split_at_mut(stride);
                for (w, b) in this.iter_mut().zip(below.iter()) {
                    *w = *w & keep | (*w << 1 | *b >> 63) & moved;
                }
            } else {
                for w in &mut words[block * stride..(block + 1) * stride] {
                    *w = *w & keep | *w << 1 & moved;
                }
            }
        }
    } else {
        // Rows `from + 1..=to` move down one, the first block first: each
        // block before the last takes the bottom row of the block above.
        for block in first..=last {
            let moved = rows_mask(block, from, to);
            let keep = !(moved | rows_mask(block, to, to + 1));
            if block < last {
                let (this, above) =
                    words[block * stride..(block + 2) * stride].split_at_mut(stride);
                for (w, a) in this.iter_mut().zip(above.iter()) {
                    *w = *w & keep | (*w >> 1 | *a << 63) & moved;
                }
            } else {
                for w in &mut words[block * stride..(block + 1) * stride] {
                    *w = *w & keep | *w >> 1 & moved;
                }
            }
        }
    }
}

/// The bit-sliced search index of a [`PackedTcamArray`]: two row bitmaps
/// per 64-row block and bit column, a valid word per block, and per
/// leading column group a summary of which blocks can match each value
/// of its columns (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MatchLines {
    width: usize,
    /// Slots: rows and holes.
    rows: usize,
    /// Block-major bitmaps: word `(block * width + column) * 2 + key_bit`.
    /// A hole's bits are zero in every word. A zero tail follows the last
    /// block, so `bits[block * 2 * width..]` holds at least [`BLOCK_VIEW`]
    /// words for every block.
    bits: Vec<u64>,
    /// Bit `j` of word `block` is set when slot `64 * block + j` holds a
    /// row; holes and the slots past the last are clear.
    valid: Vec<u64>,
    /// A limb shifted right by this many bits holds a word's [`Lead`]
    /// columns and nothing past them (at width 0, where there are none,
    /// 63 rather than 64, so that the shift stays in range).
    shift: u32,
    /// Ones on every [`Lead`] column: a key's care bits there when it
    /// cares about all of them.
    cared: usize,
    /// The block summaries of the leading column groups.
    summaries: [Summary; SUMMARY_GROUPS],
}

impl MatchLines {
    pub(crate) fn new(width: usize) -> Self {
        let leads: [usize; SUMMARY_GROUPS] = std::array::from_fn(|g| {
            let before: usize = SUMMARY_WIDTHS[..g].iter().sum();
            width.saturating_sub(before).min(SUMMARY_WIDTHS[g])
        });
        let lead: usize = leads.iter().sum();
        Self {
            width,
            rows: 0,
            bits: Vec::new(),
            valid: Vec::new(),
            shift: (64 - lead as u32).min(63),
            cared: (1 << lead) - 1,
            summaries: std::array::from_fn(|g| Summary {
                first: leads[..g].iter().sum(),
                lead: leads[g],
                low: leads[g + 1..].iter().sum(),
                live: Vec::new(),
            }),
        }
    }

    fn blocks(&self) -> usize {
        self.rows.div_ceil(BLOCK_ROWS)
    }

    /// Appends a hole at the back; every 64th opens a zeroed block, out of
    /// the zero tail, which then grows to end [`BLOCK_VIEW`] words past
    /// the new block's start.
    pub(crate) fn push_hole(&mut self) {
        if self.rows.is_multiple_of(BLOCK_ROWS) {
            self.bits
                .resize(self.blocks() * 2 * self.width + BLOCK_VIEW, 0);
            self.valid.push(0);
            let block = self.blocks();
            for summary in &mut self.summaries {
                summary.open(block);
            }
        }
        self.rows += 1;
    }

    /// Whether slot `row` holds a row (and is not a hole).
    #[inline]
    pub(crate) fn is_valid(&self, row: usize) -> bool {
        self.valid[row / BLOCK_ROWS] >> (row % BLOCK_ROWS) & 1 == 1
    }

    /// The first hole at or after slot `row`.
    pub(crate) fn hole_from(&self, row: usize) -> Option<usize> {
        let mut block = row / BLOCK_ROWS;
        let mut free = !self.valid.get(block)? & u64::MAX << (row % BLOCK_ROWS);
        while free == 0 {
            block += 1;
            free = !*self.valid.get(block)?;
        }
        let slot = block * BLOCK_ROWS + free.trailing_zeros() as usize;
        // The slots past the last are clear too, and come after every hole.
        (slot < self.rows).then_some(slot)
    }

    /// The last hole before slot `row`.
    pub(crate) fn hole_before(&self, row: usize) -> Option<usize> {
        let mut block = row / BLOCK_ROWS;
        let below = (1u64 << (row % BLOCK_ROWS)) - 1;
        let mut free = self.valid.get(block).map_or(0, |&w| !w & below);
        while free == 0 {
            block = block.checked_sub(1)?;
            free = !self.valid[block];
        }
        Some(block * BLOCK_ROWS + 63 - free.leading_zeros() as usize)
    }

    /// Stores `word` in the hole at slot `row`.
    pub(crate) fn fill(&mut self, row: usize, word: &PackedWord) {
        self.set_row(row, Some(word));
        self.valid[row / BLOCK_ROWS] |= 1 << (row % BLOCK_ROWS);
        let enter = self.pattern(word.mask[0], word.value[0]);
        self.resummarize(row / BLOCK_ROWS, Some(enter), None);
    }

    /// Empties slot `row`, which stored `old`, into a hole.
    pub(crate) fn clear(&mut self, row: usize, old: &PackedWord) {
        self.set_row(row, None);
        self.valid[row / BLOCK_ROWS] &= !(1 << (row % BLOCK_ROWS));
        let leave = self.pattern(old.mask[0], old.value[0]);
        self.resummarize(row / BLOCK_ROWS, None, Some(leave));
    }

    /// Moves the hole at slot `from` to slot `to`, the rows between moving
    /// one slot towards `from`; `limb0` is the row planes after the move.
    pub(crate) fn move_hole(&mut self, from: usize, to: usize, limb0: Limb0) {
        if from == to {
            return;
        }
        carry_hole(&mut self.bits, 2 * self.width, from, to);
        carry_hole(&mut self.valid, 1, from, to);
        // One row crosses each block edge between the two: up into the
        // block above when the hole moves down, else down into the block
        // below. The hole itself counts nowhere.
        let (first, last) = (from.min(to) / BLOCK_ROWS, from.max(to) / BLOCK_ROWS);
        for block in first..last {
            let edge = (block + 1) * BLOCK_ROWS;
            let (gains, loses, row) = if to < from {
                (block + 1, block, edge)
            } else {
                (block, block + 1, edge - 1)
            };
            let crossed = self.pattern_of(limb0, row);
            self.resummarize(gains, Some(crossed), None);
            self.resummarize(loses, None, Some(crossed));
        }
    }

    /// Rewrites row `row`, which stored `old`, to store `word`.
    pub(crate) fn replace(&mut self, row: usize, old: &PackedWord, word: &PackedWord) {
        self.set_row(row, Some(word));
        let enter = self.pattern(word.mask[0], word.value[0]);
        let leave = self.pattern(old.mask[0], old.value[0]);
        self.resummarize(row / BLOCK_ROWS, Some(enter), Some(leave));
    }

    /// Rewrites the `2 * width` bitmap bits of slot `row` to store `word`,
    /// or to a hole's zeros.
    fn set_row(&mut self, row: usize, word: Option<&PackedWord>) {
        let stride = 2 * self.width;
        let bit = 1u64 << (row % BLOCK_ROWS);
        let block = &mut self.bits[row / BLOCK_ROWS * stride..][..stride];
        for (c, pair) in block.chunks_exact_mut(2).enumerate() {
            let shift = 63 - c % 64;
            let on = word.map_or([false; 2], |word| {
                let care = word.mask[c / 64] >> shift & 1;
                let value = word.value[c / 64] >> shift & 1;
                [care & value == 0, care == 0 || value == 1]
            });
            for (w, on) in pair.iter_mut().zip(on) {
                *w = if on { *w | bit } else { *w & !bit };
            }
        }
    }

    /// A limb's bits on the [`Lead`] columns.
    fn lead(&self, limb: u64) -> usize {
        (limb >> self.shift) as usize & self.cared
    }

    /// The [`Lead`] pattern of a word with limb 0 `(mask, value)`.
    fn pattern(&self, mask: u64, value: u64) -> Lead {
        (self.lead(mask), self.lead(value & mask))
    }

    /// The [`Lead`] pattern of row `row` of the row planes.
    fn pattern_of(&self, (mask, value): Limb0, row: usize) -> Lead {
        self.pattern(mask[row], value[row])
    }

    /// Brings `block`'s summaries up to date after a row with pattern
    /// `enter` joined it and one with `leave` left it.
    fn resummarize(&mut self, block: usize, enter: Option<Lead>, leave: Option<Lead>) {
        let stride = 2 * self.width;
        let words = (&self.bits[block * stride..][..stride], self.valid[block]);
        for summary in &mut self.summaries {
            summary.resummarize(block, words, enter, leave);
        }
    }

    /// Fills `offsets` with the in-block word offset of each column `key`
    /// cares about, leading column first, and returns how many groups of
    /// [`COLUMN_GROUP`] they fill. The last group is padded with repeats
    /// of the last offset: ANDing a bitmap in twice changes nothing.
    fn key_offsets(&self, key: &PackedWord, offsets: &mut [u8; MAX_PACKED_WIDTH]) -> usize {
        // The top `width` bits of limb 0 (all of it from 64 columns up).
        let every = !(u64::MAX.checked_shr(self.width as u32).unwrap_or(0));
        let mut n = 0;
        if self.width <= 64 && key.mask[0] & every == every {
            // A fully specified single-limb key — a plain lookup — keeps
            // every column: one table load per full key byte, then the
            // columns after the last full byte one at a time.
            let full = self.width / 8;
            let bytes = key.value[0].to_be_bytes();
            let chunks = offsets.as_chunks_mut::<8>().0;
            for (b, (chunk, &byte)) in chunks.iter_mut().zip(&bytes[..full]).enumerate() {
                *chunk = (BYTE_OFFSETS[usize::from(byte)] + BYTE_STEP * b as u64).to_le_bytes();
            }
            for (c, o) in (8 * full..).zip(&mut offsets[8 * full..self.width]) {
                *o = (2 * c) as u8 + (key.value[0] >> (63 - c) & 1) as u8;
            }
            n = self.width;
        } else {
            // Every column writes its offset; only a cared-for one keeps it.
            for limb in 0..2 {
                let (value, care) = (key.value[limb], key.mask[limb]);
                for c in 0..self.width.saturating_sub(64 * limb).min(64) {
                    offsets[n] = (2 * (64 * limb + c)) as u8 + (value >> (63 - c) & 1) as u8;
                    n += (care >> (63 - c) & 1) as usize;
                }
            }
        }
        // Pad a part-filled last group in one word write: a `fill` here
        // is a `memset` call per key, even for no byte.
        if !n.is_multiple_of(COLUMN_GROUP) {
            let repeat = u64::from(offsets[n - 1]) * 0x0101_0101_0101_0101;
            let group = &mut offsets.as_chunks_mut::<COLUMN_GROUP>().0[n / COLUMN_GROUP];
            let pad = u64::MAX << (8 * (n % COLUMN_GROUP));
            *group = (u64::from_le_bytes(*group) & !pad | repeat & pad).to_le_bytes();
        }
        n.div_ceil(COLUMN_GROUP)
    }

    /// The blocks `key` can match in, ascending: those every summary lists
    /// under the key's value on its group, skipping the summary of a
    /// group in which the key leaves a column `X`, or every block when it
    /// leaves one in each. Key care bits at columns ≥ the width are never
    /// read.
    fn candidates(&self, key: &PackedWord) -> impl Iterator<Item = usize> + '_ {
        // One shift of limb 0 gives both groups' columns, and one compare
        // finds the ordinary key that cares about all of them. A group in
        // which the key leaves an `X` passes every block: its summary word
        // is or-ed with ones.
        let (care, value) = (self.lead(key.mask[0]), self.lead(key.value[0]));
        let [zero, one] = &self.summaries;
        let (v0, v1) = (value >> zero.low, value & one.ones());
        let [pass0, pass1] = if care == self.cared {
            [0, 0]
        } else {
            self.summaries.each_ref().map(|s| {
                if s.part((care, value)).0 == s.ones() {
                    0
                } else {
                    u64::MAX
                }
            })
        };
        let blocks = self.blocks();
        let filter = move |word: usize| {
            // Bits past the last block stay clear when both groups pass.
            let held = (blocks - word * SUMMARY_BLOCKS).min(SUMMARY_BLOCKS);
            (zero.live[word << zero.lead | v0] | pass0)
                & (one.live[word << one.lead | v1] | pass1)
                & u64::MAX >> (SUMMARY_BLOCKS - held)
        };
        let words = blocks.div_ceil(SUMMARY_BLOCKS);
        let (mut word, mut live) = (0, if words > 0 { filter(0) } else { 0 });
        std::iter::from_fn(move || {
            while live == 0 {
                word += 1;
                if word >= words {
                    return None;
                }
                live = filter(word);
            }
            let bit = live.trailing_zeros() as usize;
            live &= live - 1;
            Some(word * SUMMARY_BLOCKS + bit)
        })
    }

    /// The first (lowest) row matching `key`, or `None`.
    fn first_row(&self, key: &PackedWord, scratch: &mut Scratch) -> Option<usize> {
        let stride = 2 * self.width;
        let groups = self.key_offsets(key, &mut scratch.offsets);
        if groups == 0 {
            // A key that cares about no column matches every row: the
            // first valid slot wins.
            let block = self.valid.iter().position(|&w| w != 0)?;
            return Some(block * BLOCK_ROWS + self.valid[block].trailing_zeros() as usize);
        }
        let groups = &scratch.offsets.as_chunks::<COLUMN_GROUP>().0[..groups];
        'blocks: for block in self.candidates(key) {
            scratch.visited += 1;
            // The block's words and whatever follows them, the zero tail
            // at the last block: a `u8` offset is always in bounds.
            let bits: &[u64; BLOCK_VIEW] = self.bits[block * stride..]
                .first_chunk()
                .expect("a zero tail follows the last block");
            // Holes and the slots past the last are zero in every bitmap,
            // so the key's first column already drops them.
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
        let mut scratch = Scratch::new();
        out.extend(
            keys.iter()
                .map(|key| Some(self.ids[self.lines.first_row(key, &mut scratch)?])),
        );
    }
}

#[cfg(test)]
impl MatchLines {
    /// Test-only: the index holds exactly `slots` (`None` a hole). Each
    /// bitmap bit and summary bit is derived afresh through the scalar
    /// rule ([`PackedWord::matches`] against a key that cares about one
    /// column, or about one summary's column group only, its columns
    /// derived from [`SUMMARY_WIDTHS`]), and each valid bit from the
    /// slots, with the bits of holes and absent rows and blocks zero, the
    /// bitmaps' zero tail in place after the last block, and no word
    /// beyond it or either summary's last word.
    pub(crate) fn assert_stores(&self, slots: &[Option<PackedWord>]) {
        assert_eq!(self.rows, slots.len());
        let cared = |columns: std::ops::Range<usize>, value: usize| {
            let mut key = PackedWord {
                mask: [0; 2],
                value: [0; 2],
            };
            for (i, c) in columns.clone().enumerate() {
                let bit = 1 << (63 - c % 64);
                key.mask[c / 64] |= bit;
                if value >> (columns.len() - 1 - i) & 1 == 1 {
                    key.value[c / 64] |= bit;
                }
            }
            key
        };
        let columns: Vec<[PackedWord; 2]> = (0..self.width)
            .map(|c| [0, 1].map(|key_bit| cared(c..c + 1, key_bit)))
            .collect();
        let blocks = slots.len().div_ceil(BLOCK_ROWS);
        let mut want = vec![0u64; blocks * 2 * self.width];
        let mut valid = vec![0u64; blocks];
        for (r, row) in slots.iter().enumerate() {
            let Some(row) = row else { continue };
            valid[r / BLOCK_ROWS] |= 1 << (r % BLOCK_ROWS);
            for (c, keys) in columns.iter().enumerate() {
                for (key_bit, key) in keys.iter().enumerate() {
                    if row.matches(key) {
                        let word = (r / BLOCK_ROWS * self.width + c) * 2 + key_bit;
                        want[word] |= 1 << (r % BLOCK_ROWS);
                    }
                }
            }
        }
        if blocks > 0 {
            // The zero tail: `BLOCK_VIEW` words from the last block's start.
            want.resize((blocks - 1) * 2 * self.width + BLOCK_VIEW, 0);
        }
        assert_eq!(self.bits, want, "width {} slots {}", self.width, self.rows);
        assert_eq!(self.valid, valid, "valid, slots {}", self.rows);
        for (g, summary) in self.summaries.iter().enumerate() {
            let first = SUMMARY_WIDTHS[..g].iter().sum::<usize>().min(self.width);
            let lead = SUMMARY_WIDTHS[g].min(self.width - first);
            assert_eq!((summary.first, summary.lead), (first, lead), "group {g}");
            let mut want = vec![0u64; blocks.div_ceil(SUMMARY_BLOCKS) << lead];
            let keys: Vec<PackedWord> = (0..1 << lead)
                .map(|v| cared(first..first + lead, v))
                .collect();
            for (block, rows) in slots.chunks(BLOCK_ROWS).enumerate() {
                for (v, key) in keys.iter().enumerate() {
                    if rows.iter().flatten().any(|row| row.matches(key)) {
                        want[(block / SUMMARY_BLOCKS) << lead | v] |= 1 << (block % SUMMARY_BLOCKS);
                    }
                }
            }
            assert_eq!(
                summary.live, want,
                "summary {g}, width {} slots {}",
                self.width, self.rows
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::TcamArray;
    use std::collections::{BTreeMap, BTreeSet};
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
                if packed.remove(id).is_some() && n % 2 == 0 {
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
            let min_id = packed.rows().map(|(id, _)| id).min().unwrap();
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
        let ids: Vec<u32> = packed.rows().map(|(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
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

    /// The byte-table prep gives the per-column list `2·c + key_bit(c)`,
    /// padding included: every value of every key byte, the other bytes
    /// random, at widths around the byte and limb edges. A key with care
    /// and value bits past the width, as a hostile wire frame can carry,
    /// gets the same offsets.
    #[test]
    fn byte_table_prep_equals_the_per_column_list() {
        let mut rng = SplitMix64::new(0xB17E);
        let mut offsets = [0u8; MAX_PACKED_WIDTH];
        for width in [1usize, 7, 8, 13, 32, 56, 63, 64] {
            let lines = MatchLines::new(width);
            let inside = leading_bits(width);
            for byte in 0..width.div_ceil(8) {
                let shift = 56 - 8 * byte;
                for v in 0..=255u64 {
                    let value = rng.next_u64() & !(0xFF << shift) | v << shift;
                    let mut want: Vec<u8> = (0..width)
                        .map(|c| (2 * c) as u8 + (value >> (63 - c) & 1) as u8)
                        .collect();
                    want.resize(width.next_multiple_of(COLUMN_GROUP), want[width - 1]);
                    let clean = PackedWord {
                        mask: [inside, 0],
                        value: [value & inside, 0],
                    };
                    let hostile = PackedWord {
                        mask: [inside | rng.next_u64(), rng.next_u64()],
                        value: [value, rng.next_u64()],
                    };
                    for key in [clean, hostile] {
                        offsets.fill(0);
                        let groups = lines.key_offsets(&key, &mut offsets);
                        assert_eq!(
                            (groups * COLUMN_GROUP, &offsets[..want.len()]),
                            (want.len(), &want[..]),
                            "width {width} byte {byte} value {v:#04x}"
                        );
                    }
                }
            }
        }
    }

    /// The blocks summary `g` lists under key `word`'s value on group
    /// `g`, read off the summary by the ternary word rather than by the
    /// limb shifts `candidates` uses; `None` when `word` leaves a column
    /// of the group `X`.
    fn group_candidates(lines: &MatchLines, g: usize, word: &[TernaryBit]) -> Option<Vec<usize>> {
        let summary = &lines.summaries[g];
        let v = word
            .iter()
            .skip(summary.first)
            .take(summary.lead)
            .try_fold(0, |v, bit| match bit {
                TernaryBit::X => None,
                bit => Some(v << 1 | usize::from(*bit == TernaryBit::One)),
            })?;
        Some(
            (0..lines.blocks())
                .filter(|&b| {
                    summary.live[(b / SUMMARY_BLOCKS) << summary.lead | v] >> (b % SUMMARY_BLOCKS)
                        & 1
                        == 1
                })
                .collect(),
        )
    }

    /// The block summaries at widths 1–21, so that group 0 is keyed by
    /// every column count from one to twelve and group 1 by every count
    /// from none (widths up to 12, where it lists the blocks that hold a
    /// row) to eight: a key leaving an `X` in both groups visits every
    /// block, one leaving an `X` in one group visits the other group's
    /// candidates, and a key caring about both visits the blocks both
    /// list. Hostile care bits beyond the width inside
    /// the leading bytes move no candidate, and kernel ≡ scalar on
    /// churned tables of one to three blocks.
    #[test]
    fn block_summary_at_narrow_widths() {
        let mut rng = SplitMix64::new(0x5EED);
        for width in 1..=21usize {
            for rows in [1usize, 64, 65, 190] {
                let packed = random_array(&mut rng, width, rows, true);
                let lines = &packed.lines;
                let groups = lines.summaries.each_ref().map(|s| (s.first, s.lead));
                let blocks = packed.slots().div_ceil(BLOCK_ROWS);
                for i in 0..256 {
                    // Which groups the key leaves an `X` in: none, group
                    // 0, group 1 or both.
                    let open = [i % 4 == 1 || i % 4 == 3, i % 4 >= 2];
                    let mut word = random_word(&mut rng, width, 0.0);
                    for (&open, (first, lead)) in open.iter().zip(groups) {
                        if open && lead > 0 {
                            word[first + rng.below(lead as u64) as usize] = TernaryBit::X;
                        }
                    }
                    let key = PackedWord::pack(&word);
                    let mut hostile = key;
                    hostile.mask[0] |= rng.next_u64() & !leading_bits(width);
                    hostile.value[0] |= rng.next_u64() & !(key.mask[0] & leading_bits(width));
                    let want = packed.first_match(&key);
                    assert_eq!(
                        packed.first_match_batch(&[key, hostile]),
                        [want, want],
                        "width {width} rows {rows}"
                    );
                    let candidates: Vec<usize> = lines.candidates(&key).collect();
                    assert_eq!(lines.candidates(&hostile).collect::<Vec<_>>(), candidates);
                    let by_group = [0, 1].map(|g| group_candidates(lines, g, &word));
                    let expected: Vec<usize> = match by_group {
                        [None, None] => (0..blocks).collect(),
                        [Some(only), None] | [None, Some(only)] => only,
                        [Some(zero), Some(one)] => {
                            zero.into_iter().filter(|b| one.contains(b)).collect()
                        }
                    };
                    assert_eq!(candidates, expected, "width {width} rows {rows} key {i}");
                }
            }
        }
    }

    /// The summaries are sound: on random X-laden arrays, appended and
    /// churned, at widths around the group and limb edges, every block
    /// that holds a row matching a key — by the scalar rule — is among
    /// the key's candidates, for fully specified and X-laden keys.
    #[test]
    fn candidates_hold_every_block_with_a_matching_row() {
        let mut rng = SplitMix64::new(0xC0DE);
        for width in [1usize, 8, 9, 11, 12, 13, 16, 17, 20, 21, 32, 64, 65, 128] {
            for churn in [false, true] {
                for rows in [64usize, 150, 300] {
                    let packed = random_array(&mut rng, width, rows, churn);
                    for x_prob in [0.0, 0.15, 0.35] {
                        for _ in 0..64 {
                            let key = PackedWord::pack(&random_word(&mut rng, width, x_prob));
                            let candidates: Vec<usize> = packed.lines.candidates(&key).collect();
                            for id in packed.matches(&key) {
                                let slot = packed.ids.binary_search(&id).unwrap();
                                assert!(
                                    candidates.contains(&(slot / BLOCK_ROWS)),
                                    "width {width} rows {rows} churn {churn} slot {slot}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Rows with `X`s in the leading columns — a default route, a /4 —
    /// carried across the block edge by mid-table pushes keep the summary
    /// exact, and a block emptied by removes, into holes, leaves no live
    /// bit behind.
    #[test]
    fn wildcard_leading_rows_cross_the_block_edge() {
        use crate::array::{prefix_to_word, value_to_word};
        let keys: Vec<PackedWord> = (0..=255u64)
            .map(|top| PackedWord::pack(&value_to_word(top << 24 | 0x12_3456, 32)))
            .collect();
        let check = |packed: &PackedTcamArray| {
            packed.assert_planes_consistent();
            let scalar: Vec<Option<u32>> = keys.iter().map(|k| packed.first_match(k)).collect();
            assert_eq!(packed.first_match_batch(&keys), scalar);
        };
        let block_1_dead = |packed: &PackedTcamArray| {
            let [zero, one] = &packed.lines.summaries;
            assert_eq!((zero.live.len(), one.live.len()), (1 << 12, 1 << 8));
            for summary in [zero, one] {
                assert!(summary.live.iter().all(|&w| w & !1 == 0));
            }
        };
        let default_route = prefix_to_word(0, 0, 32);
        let mut packed = PackedTcamArray::new(32);
        // Block 0: 64 /16s under leading bytes 0x40..0x80; block 1: the
        // default route.
        for i in 0..64u32 {
            let word = prefix_to_word(u64::from(0x40 + i) << 24, 16, 32);
            packed.push(&word, 10 * (i + 1));
        }
        packed.push(&default_route, 1000);
        check(&packed);
        // A /4 at the front finds no hole: a slot opens at the back and
        // every row moves up one, block 0's top row into block 1. A
        // second default route mid-block moves the rows after it.
        assert_eq!(packed.push(&prefix_to_word(0xA000_0000, 4, 32), 1), 65);
        check(&packed);
        assert_eq!(packed.push(&default_route, 205), 45);
        check(&packed);
        // Removes leave holes and move nothing.
        for id in [10, 1] {
            assert_eq!(packed.remove(id), Some(0));
            check(&packed);
        }
        assert_eq!(packed.hole_slots(), [0, 1]);
        // Block 1 holds ids 630, 640 and 1000: removing them empties it.
        for id in [640, 1000, 630] {
            assert_eq!(packed.remove(id), Some(0));
            check(&packed);
        }
        assert_eq!(packed.slots(), 67);
        block_1_dead(&packed);
        // A default route at the back takes block 1's last hole without a
        // move, then leaves it again.
        assert_eq!(packed.push(&default_route, 2000), 0);
        check(&packed);
        assert_eq!(packed.remove(2000), Some(0));
        check(&packed);
        block_1_dead(&packed);
        // With the last default route gone, only the /16s' leading 12
        // bits stay live: their first byte and a zero nibble.
        assert_eq!(packed.remove(205), Some(0));
        check(&packed);
        let live: Vec<usize> = (0..1 << 12)
            .filter(|&v| packed.lines.summaries[0].live[v] != 0)
            .collect();
        assert_eq!(live, (0x41..=0x7D).map(|b| b << 4).collect::<Vec<_>>());
    }

    /// A row that leaves a block clears only the values no other row of
    /// the block still matches: removing 10/8 beside 10.64/10 keeps the 4
    /// of its 16 group-0 values the /10 covers and clears the other 12,
    /// and removing the default route from a block of /20s clears every
    /// value of either group that no /20 holds.
    #[test]
    fn a_leaving_row_keeps_the_values_another_row_covers() {
        use crate::array::prefix_to_word;
        let live = |packed: &PackedTcamArray, g: usize| -> BTreeSet<usize> {
            let summary = &packed.lines.summaries[g];
            (0..1 << summary.lead)
                .filter(|&v| summary.live[v] & 1 == 1)
                .collect()
        };
        let mut packed = PackedTcamArray::new(32);
        packed.push(&prefix_to_word(0x0A40_0000, 10, 32), 1);
        packed.push(&prefix_to_word(0x0A00_0000, 8, 32), 2);
        packed.assert_planes_consistent();
        assert_eq!(live(&packed, 0), (0x0A0..=0x0AF).collect());
        assert_eq!(packed.remove(2), Some(0));
        packed.assert_planes_consistent();
        assert_eq!(live(&packed, 0), (0x0A4..=0x0A7).collect());
        assert_eq!(live(&packed, 1).len(), 1 << 8);

        let mut rng = SplitMix64::new(0x20);
        let mut packed = PackedTcamArray::new(32);
        let mut want = [BTreeSet::new(), BTreeSet::new()];
        for id in 0..40 {
            let addr = rng.next_u64() & 0xFFFF_F000;
            packed.push(&prefix_to_word(addr, 20, 32), id);
            want[0].insert((addr >> 20) as usize);
            want[1].insert((addr >> 12 & 0xFF) as usize);
        }
        packed.push(&prefix_to_word(0, 0, 32), 1000);
        assert_eq!(
            [live(&packed, 0).len(), live(&packed, 1).len()],
            [1 << 12, 1 << 8]
        );
        assert_eq!(packed.remove(1000), Some(0));
        packed.assert_planes_consistent();
        assert_eq!([live(&packed, 0), live(&packed, 1)], want);
    }

    /// The summaries are what make the kernel fast, not what makes it
    /// right: one that degraded to all-ones, or a kernel that stopped
    /// reading it, would keep every answer and lose the gain. So pin the
    /// blocks `first_row` visits on the benchmark's router table — 4,096
    /// random /8–/28 prefixes, longest first, and a default route: 65
    /// blocks, of which a scan without the summaries visits a mean of
    /// about 37.6 per key, two summaries on the key's first two bytes
    /// 3.00 (6.91 candidates) and the 12- and 8-column groups 1.19 (3.27
    /// candidates). The table and keys follow
    /// `Workload::router_lpm(4096, 65_536, 1)` in `tcam-serve` draw for
    /// draw.
    #[test]
    fn router_keys_visit_few_blocks() {
        use crate::array::{prefix_to_word, value_to_word};
        let mut rng = SplitMix64::new(1);
        let (mut rule_rng, mut key_rng) = (rng.fork(), rng.fork());
        let mut prefixes: Vec<(u32, usize)> = (0..4096)
            .map(|_| {
                let len = 8 + rule_rng.below(21) as usize;
                (rule_rng.next_u64() as u32 & u32::MAX << (32 - len), len)
            })
            .collect();
        prefixes.sort_by_key(|&(addr, len)| (std::cmp::Reverse(len), addr));
        let mut packed = PackedTcamArray::new(32);
        for (id, &(addr, len)) in prefixes.iter().enumerate() {
            packed.push(&prefix_to_word(u64::from(addr), len, 32), id as u32);
        }
        packed.push(&prefix_to_word(0, 0, 32), prefixes.len() as u32);
        let keys: Vec<PackedWord> = (0..65_536)
            .map(|_| {
                let addr = if key_rng.next_f64() < 0.8 {
                    let (base, len) = prefixes[key_rng.below(prefixes.len() as u64) as usize];
                    base | (key_rng.next_u64() as u32 & u32::MAX >> len)
                } else {
                    key_rng.next_u64() as u32
                };
                PackedWord::pack(&value_to_word(u64::from(addr), 32))
            })
            .collect();
        let lines = &packed.lines;
        assert_eq!(lines.blocks(), 65);
        let mut scratch = Scratch::new();
        let (mut scanned, mut candidates) = (0, 0);
        for key in &keys {
            candidates += lines.candidates(key).count();
            // A scan without the summary visits every block up to the
            // winner's, or all of them on a miss.
            scanned += lines
                .first_row(key, &mut scratch)
                .map_or(lines.blocks(), |row| row / BLOCK_ROWS + 1);
        }
        let mean = |total: usize| total as f64 / keys.len() as f64;
        assert!(mean(scanned) > 30.0, "scan {}", mean(scanned));
        assert!(
            mean(scratch.visited) <= 1.25 && mean(candidates) <= 3.4,
            "visited {} candidates {}",
            mean(scratch.visited),
            mean(candidates)
        );
    }

    /// Every ternary word of `width` bits, all 3^width of them.
    fn all_words(width: usize) -> Vec<Vec<TernaryBit>> {
        (0..width).fold(vec![vec![]], |words, _| {
            words
                .iter()
                .flat_map(|w| {
                    [TernaryBit::Zero, TernaryBit::One, TernaryBit::X].map(|b| {
                        let mut w = w.clone();
                        w.push(b);
                        w
                    })
                })
                .collect()
        })
    }

    /// The index is consistent with the row planes, and kernel ≡ scalar
    /// `first_match` ≡ a `TcamArray` built from `model` on every key.
    fn assert_agrees(
        packed: &PackedTcamArray,
        model: &BTreeMap<u32, Vec<TernaryBit>>,
        keys: &[Vec<TernaryBit>],
    ) {
        packed.assert_planes_consistent();
        let width = packed.width();
        let mut array = TcamArray::new(model.len(), width);
        for (row, word) in model.values().enumerate() {
            array.write(row, word.clone()).unwrap();
        }
        let ids: Vec<u32> = model.keys().copied().collect();
        let want: Vec<Option<u32>> = keys
            .iter()
            .map(|k| array.first_match(k).map(|r| ids[r]))
            .collect();
        let packed_keys: Vec<PackedWord> = keys.iter().map(|k| PackedWord::pack(k)).collect();
        let scalar: Vec<Option<u32>> = packed_keys.iter().map(|k| packed.first_match(k)).collect();
        assert_eq!(scalar, want, "scalar, width {width} rows {}", model.len());
        assert_eq!(
            packed.first_match_batch(&packed_keys),
            want,
            "kernel, width {width} rows {}",
            model.len()
        );
    }

    /// Every sequence of up to four writes across the first block edge at
    /// widths 0–3, where the summary is keyed by the whole word: a table
    /// of 62 or 63 all-`0` rows (ids 32 apart, so block 0 starts live at
    /// one value only and every change to its summary shows) takes each
    /// of push / remove / replace of the first, the 64th and the last
    /// row in id order, the word of each push or replace the next of all
    /// 3^w in turn. Removes leave holes, and the sequences reach a hole
    /// at the first, 63rd and last slot, as block 1's first row and
    /// across all of block 1, with pushes moving rows to them from either
    /// side. After every step the index, summary and valid words
    /// included, is rebuilt from the row planes and compared, and every
    /// one of the 3^w keys, the all-`X` key among them, is answered alike
    /// by the kernel, the scalar scan and `TcamArray`.
    #[test]
    fn every_short_write_sequence_across_the_block_edge() {
        #[derive(Clone, Copy)]
        enum Op {
            Push,
            Remove,
            Replace,
        }
        struct Walk {
            words: Vec<Vec<TernaryBit>>,
            next_word: usize,
            shapes: [bool; 5],
        }
        impl Walk {
            fn word(&mut self) -> Vec<TernaryBit> {
                self.next_word = (self.next_word + 1) % self.words.len();
                self.words[self.next_word].clone()
            }

            fn visit(
                &mut self,
                packed: &PackedTcamArray,
                model: &BTreeMap<u32, Vec<TernaryBit>>,
                depth: usize,
            ) {
                if depth == 4 {
                    return;
                }
                for op in [Op::Push, Op::Remove, Op::Replace] {
                    for at in [0, 63, usize::MAX] {
                        let (mut packed, mut model) = (packed.clone(), model.clone());
                        let ids: Vec<u32> = model.keys().copied().collect();
                        match op {
                            Op::Push => {
                                let row = at.min(ids.len());
                                let lo = if row == 0 { 0 } else { ids[row - 1] };
                                let hi = ids.get(row).copied().unwrap_or(lo + 64);
                                let (id, word) = ((lo + hi) / 2, self.word());
                                assert!(lo < id && id < hi, "ids run out");
                                packed.push(&word, id);
                                model.insert(id, word);
                            }
                            _ if ids.is_empty() => continue,
                            Op::Remove => {
                                let id = ids[at.min(ids.len() - 1)];
                                assert!(packed.remove(id).is_some());
                                model.remove(&id);
                            }
                            Op::Replace => {
                                let (id, word) = (ids[at.min(ids.len() - 1)], self.word());
                                assert!(packed.replace(id, &word));
                                model.insert(id, word);
                            }
                        }
                        assert_agrees(&packed, &model, &self.words);
                        for (seen, now) in self.shapes.iter_mut().zip(packed.hole_shapes()) {
                            *seen |= now;
                        }
                        self.visit(&packed, &model, depth + 1);
                    }
                }
            }
        }
        for width in 0..=3 {
            let words = all_words(width);
            for prefill in [62usize, 63] {
                let mut packed = PackedTcamArray::new(width);
                let mut model = BTreeMap::new();
                for i in 0..prefill {
                    let (id, word) = (32 * (i as u32 + 1), words[0].clone());
                    packed.push(&word, id);
                    model.insert(id, word);
                }
                assert_agrees(&packed, &model, &words);
                let mut walk = Walk {
                    words: words.clone(),
                    next_word: 0,
                    shapes: [false; 5],
                };
                walk.visit(&packed, &model, 0);
                assert_eq!(walk.shapes, [true; 5], "width {width} prefill {prefill}");
            }
        }
    }
}
