//! The rule set one namespace serves: one bit-packed table, shared
//! copy-on-write.
//!
//! Every rule lives in exactly one row of one [`PackedTcamArray`], at its
//! global priority (lower id wins), so a lookup is one first match over
//! the whole table. Pre-selection — which 64-row blocks a key searches at
//! all — is the match kernel's: its block summaries, keyed by the key's
//! first two bytes, are bank pre-selection done inside the table, with
//! no rule replicated.
//!
//! The table is the only copy of the rules: it finds an id by binary
//! search over its id-ordered slots, so no id → word map sits beside it.
//! It is held behind an `Arc` and changed through [`Arc::make_mut`], so
//! the `Arc` [`ShardedRuleSet::shared`] hands out is an immutable
//! snapshot: the next mutation clones the table once if that snapshot is
//! still held, and changes it in place if not.
//!
//! The type keeps the name and the `shard_bits` argument of the
//! prefix-sharded set it replaced, so that code built against that
//! signature (the `stack_bench` package) still compiles: `0` is the only
//! accepted value, and [`ShardedRuleSet::shard`] takes only index 0.

use crate::error::{Result, ServeError};
use std::sync::Arc;
use tcam_arch::array::TcamArray;
use tcam_arch::packed::{PackedTcamArray, PackedWord, MAX_PACKED_WIDTH};
use tcam_core::bit::TernaryBit;

/// Physical row operations one logical mutation performed — the quantity
/// the update layer prices through `OperationCosts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowOps {
    /// Rows written (inserts and in-place replacements).
    pub writes: u64,
    /// Rows erased.
    pub erases: u64,
    /// Rows moved to another slot to make room for an insert, or by a
    /// compaction: each is one more row write.
    pub moves: u64,
}

impl RowOps {
    /// One row written, none moved: an insert beside a hole, or a
    /// replacement.
    pub const WRITE: RowOps = RowOps {
        writes: 1,
        erases: 0,
        moves: 0,
    };

    /// One row erased, none moved.
    pub const ERASE: RowOps = RowOps {
        writes: 0,
        erases: 1,
        moves: 0,
    };

    /// These operations plus `moves` moved rows.
    #[must_use]
    pub fn moving(self, moves: usize) -> RowOps {
        RowOps {
            moves: self.moves + moves as u64,
            ..self
        }
    }

    /// Accumulates another count into this one.
    pub fn add(&mut self, other: RowOps) {
        self.writes += other.writes;
        self.erases += other.erases;
        self.moves += other.moves;
    }
}

/// A ternary rule set in one packed table.
///
/// The set is **mutable**: [`insert`](Self::insert),
/// [`remove`](Self::remove) and [`replace`](Self::replace) change the
/// table, the one copy of the rules, one row operation each plus the
/// rows the table moved to make room or to compact. Rule ids are
/// priorities (lower wins), matching the packed array's id-priority
/// contract. A clone shares the table until either side mutates it.
#[derive(Debug, Clone)]
pub struct ShardedRuleSet {
    width: usize,
    table: Arc<PackedTcamArray>,
}

impl ShardedRuleSet {
    /// Builds the set from `words` in priority order (index = id = match
    /// priority, lower wins).
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRuleSet`], [`ServeError::TooWide`],
    /// [`ServeError::BadShardBits`] when `shard_bits` is not 0, or
    /// [`ServeError::WidthMismatch`] when a word's width differs from the
    /// first word's.
    pub fn build(words: &[Vec<TernaryBit>], shard_bits: u32) -> Result<Self> {
        let width = words.first().ok_or(ServeError::EmptyRuleSet)?.len();
        let mut set = Self::empty(width, shard_bits)?;
        for (id, word) in words.iter().enumerate() {
            set.insert(id as u32, word.clone())?;
        }
        Ok(set)
    }

    /// Builds the set from explicitly prioritized rules (`id` = priority,
    /// lower wins) — the constructor the online-update layer uses, where
    /// priorities carry gaps for future insertions.
    ///
    /// # Errors
    ///
    /// As [`Self::build`], plus [`ServeError::DuplicateRuleId`].
    pub fn from_prioritized(rules: &[(u32, Vec<TernaryBit>)], shard_bits: u32) -> Result<Self> {
        let width = rules.first().ok_or(ServeError::EmptyRuleSet)?.1.len();
        let mut set = Self::empty(width, shard_bits)?;
        for (id, word) in rules {
            set.insert(*id, word.clone())?;
        }
        Ok(set)
    }

    /// An empty rule set for `width`-bit words (online inserts fill it).
    ///
    /// # Errors
    ///
    /// [`ServeError::TooWide`], or [`ServeError::BadShardBits`] when
    /// `shard_bits` is not 0.
    pub fn empty(width: usize, shard_bits: u32) -> Result<Self> {
        if width > MAX_PACKED_WIDTH {
            return Err(ServeError::TooWide {
                width,
                max: MAX_PACKED_WIDTH,
            });
        }
        if shard_bits != 0 {
            return Err(ServeError::BadShardBits {
                bits: shard_bits,
                max: 0,
            });
        }
        Ok(Self {
            width,
            table: Arc::new(PackedTcamArray::new(width)),
        })
    }

    /// Inserts a rule at priority `id`: one row written, plus the rows
    /// moved to bring a hole to its place.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] or [`ServeError::DuplicateRuleId`].
    pub fn insert(&mut self, id: u32, word: impl AsRef<[TernaryBit]>) -> Result<RowOps> {
        let word = word.as_ref();
        self.check_width(word)?;
        if self.table.contains(id) {
            return Err(ServeError::DuplicateRuleId { id });
        }
        let moves = Arc::make_mut(&mut self.table).push(word, id);
        Ok(RowOps::WRITE.moving(moves))
    }

    /// Removes the rule at priority `id` — one row erased, plus the rows a
    /// compaction moved — or returns `None` when no such rule exists.
    pub fn remove(&mut self, id: u32) -> Option<RowOps> {
        if !self.table.contains(id) {
            return None;
        }
        let moves = Arc::make_mut(&mut self.table).remove(id)?;
        Some(RowOps::ERASE.moving(moves))
    }

    /// Replaces the word of rule `id` in place: one row written.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] or [`ServeError::UnknownRuleId`].
    pub fn replace(&mut self, id: u32, word: impl AsRef<[TernaryBit]>) -> Result<RowOps> {
        let word = word.as_ref();
        self.check_width(word)?;
        if !self.table.contains(id) {
            return Err(ServeError::UnknownRuleId { id });
        }
        Arc::make_mut(&mut self.table).replace(id, word);
        Ok(RowOps::WRITE)
    }

    fn check_width(&self, word: &[TernaryBit]) -> Result<()> {
        if word.len() == self.width {
            Ok(())
        } else {
            Err(ServeError::WidthMismatch {
                expected: self.width,
                found: word.len(),
            })
        }
    }

    /// Whether rule `id` is present.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.table.contains(id)
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rules (= stored rows).
    #[must_use]
    pub fn rules(&self) -> usize {
        self.table.len()
    }

    /// The packed table.
    #[must_use]
    pub fn table(&self) -> &PackedTcamArray {
        &self.table
    }

    /// The packed table as the shared snapshot: the `Arc` itself, no row
    /// copied. It stays as it is now; the set's next mutation clones the
    /// table while this `Arc` is held.
    #[must_use]
    pub fn shared(&self) -> Arc<PackedTcamArray> {
        Arc::clone(&self.table)
    }

    /// The packed table, by the index the sharded set took.
    ///
    /// # Panics
    ///
    /// Panics when `s` is not 0.
    #[must_use]
    pub fn shard(&self, s: usize) -> &PackedTcamArray {
        assert_eq!(s, 0, "a rule set is one table: shard {s} does not exist");
        &self.table
    }

    /// Gives up the packed table — how a service takes ownership of a rule
    /// set without copying a row, unless a clone or a [`Self::shared`]
    /// snapshot still holds it.
    #[must_use]
    pub fn into_table(self) -> PackedTcamArray {
        Arc::unwrap_or_clone(self.table)
    }

    /// Single-threaded lookup: the winning rule's id. This is the
    /// reference path the concurrent service and the property tests are
    /// checked against.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] on a key of another width.
    pub fn search(&self, key: &[TernaryBit]) -> Result<Option<u32>> {
        self.check_width(key)?;
        Ok(self.table.first_match(&PackedWord::pack(key)))
    }

    /// The monolithic oracle: every rule in one functional array, priority
    /// = id. [`Self::search`] must be bit-identical to
    /// `oracle.first_match`.
    #[must_use]
    pub fn oracle(words: &[Vec<TernaryBit>]) -> TcamArray {
        let width = words.first().map_or(0, Vec::len);
        let mut array = TcamArray::new(words.len().max(1), width);
        for (i, w) in words.iter().enumerate() {
            array.write(i, w.clone()).expect("uniform widths");
        }
        array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::parse_ternary;

    fn words(specs: &[&str]) -> Vec<Vec<TernaryBit>> {
        specs.iter().map(|s| parse_ternary(s).unwrap()).collect()
    }

    #[test]
    fn search_equals_oracle() {
        let rules = words(&["110X", "0X11", "1XXX", "XXXX"]);
        let set = ShardedRuleSet::build(&rules, 0).unwrap();
        let oracle = ShardedRuleSet::oracle(&rules);
        for v in 0..16u64 {
            let key = tcam_arch::array::value_to_word(v, 4);
            assert_eq!(
                set.search(&key).unwrap(),
                oracle.first_match(&key).map(|r| r as u32),
                "key {v:04b}"
            );
        }
    }

    #[test]
    fn each_mutation_is_one_row_operation_plus_the_rows_it_moves() {
        let word = |s| parse_ternary(s).unwrap();
        let mut set =
            ShardedRuleSet::from_prioritized(&[(10, word("1100")), (20, word("XXXX"))], 0).unwrap();
        // An append moves nothing; an insert at the front moves every row.
        assert_eq!(set.insert(30, word("0X11")), Ok(RowOps::WRITE));
        assert_eq!(set.insert(5, word("0X11")), Ok(RowOps::WRITE.moving(3)));
        assert_eq!(set.replace(10, word("1X00")), Ok(RowOps::WRITE));
        // A remove leaves a hole, and an insert beside it moves nothing.
        assert_eq!(set.remove(20), Some(RowOps::ERASE));
        assert_eq!(set.remove(20), None);
        assert_eq!(set.insert(15, word("0000")), Ok(RowOps::WRITE));
        assert_eq!((set.rules(), set.table().len()), (4, 4));
        assert_eq!(set.search(&word("1000")), Ok(Some(10)));
        assert!(matches!(
            set.replace(9, word("0000")),
            Err(ServeError::UnknownRuleId { id: 9 })
        ));
        assert!(matches!(
            set.insert(5, word("0000")),
            Err(ServeError::DuplicateRuleId { id: 5 })
        ));
        // Three holes beside one rule compact the table: rule 30 moves
        // down three slots, one row move.
        assert_eq!(set.remove(5), Some(RowOps::ERASE));
        assert_eq!(set.remove(10), Some(RowOps::ERASE));
        assert_eq!(set.remove(15), Some(RowOps::ERASE.moving(1)));
        assert_eq!(set.table().slots(), 1);
        assert_eq!(set.search(&word("0011")), Ok(Some(30)));
    }

    #[test]
    fn build_validates_inputs() {
        assert!(matches!(
            ShardedRuleSet::build(&[], 0),
            Err(ServeError::EmptyRuleSet)
        ));
        assert!(matches!(
            ShardedRuleSet::build(&words(&["10", "100"]), 0),
            Err(ServeError::WidthMismatch { .. })
        ));
        let wide = vec![vec![TernaryBit::X; MAX_PACKED_WIDTH + 1]];
        assert!(matches!(
            ShardedRuleSet::build(&wide, 0),
            Err(ServeError::TooWide { .. })
        ));
        let empty = ShardedRuleSet::empty(4, 0).unwrap();
        assert!(matches!(
            empty.search(&parse_ternary("101").unwrap()),
            Err(ServeError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn nonzero_shard_bits_are_refused() {
        let rules = words(&["1010"]);
        for bits in [1u32, 2, 12] {
            let bad = Some(ServeError::BadShardBits { bits, max: 0 });
            assert_eq!(ShardedRuleSet::build(&rules, bits).err(), bad);
            let prioritized = [(3, rules[0].clone())];
            assert_eq!(
                ShardedRuleSet::from_prioritized(&prioritized, bits).err(),
                bad
            );
            assert_eq!(ShardedRuleSet::empty(4, bits).err(), bad);
        }
    }

    #[test]
    #[should_panic(expected = "shard 1 does not exist")]
    fn only_shard_zero_exists() {
        let set = ShardedRuleSet::build(&words(&["1010"]), 0).unwrap();
        let _ = set.shard(1);
    }
}
