//! Prefix-range sharding of a ternary rule set.
//!
//! The shard selector is the top `shard_bits` bits of the word, so a
//! fully-specified key routes by reading those bits directly — `2^bits`
//! shards, one shard per key. A *rule* may carry don't-cares in the
//! selector; it is then **replicated** into every shard its selector
//! covers (an `X` doubles the cover set), carrying its *global* priority
//! index. That gives the correctness invariant the property tests pin
//! down:
//!
//! > every rule that can match key `k` is present in `shard(k)` with its
//! > global priority, so a shard-local first match over global ids equals
//! > the monolithic array's first match.
//!
//! Prefix-range sharding is the natural fit for the ternary rule sets the
//! paper's applications use (LPM tables, ACLs): prefixes of length ≥
//! `shard_bits` land in exactly one shard, and only broad rules (e.g. the
//! default route) pay replication.

use crate::error::{Result, ServeError};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use tcam_arch::array::TcamArray;
use tcam_arch::packed::{PackedTcamArray, PackedWord, MAX_PACKED_WIDTH};
use tcam_core::bit::TernaryBit;

/// Replication guard: an all-`X` selector replicates a rule `2^bits`
/// times, so selector widths are capped.
pub const MAX_SHARD_BITS: u32 = 12;

/// Physical row operations one logical mutation performed across shards
/// (replication included) — the quantity the update layer prices through
/// `OperationCosts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowOps {
    /// Rows written (inserts and in-place replacements).
    pub writes: u64,
    /// Rows erased.
    pub erases: u64,
}

impl RowOps {
    /// Accumulates another count into this one.
    pub fn add(&mut self, other: RowOps) {
        self.writes += other.writes;
        self.erases += other.erases;
    }

    /// Counts one row operation (a rewrite is a row write).
    pub fn count(&mut self, op: RowOp) {
        match op {
            RowOp::Write | RowOp::Rewrite => self.writes += 1,
            RowOp::Erase => self.erases += 1,
        }
    }
}

/// What one shard's copy of a rule needs when the rule's word changes
/// (see [`cover_diff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    /// The shard is newly covered: write the rule's row.
    Write,
    /// The shard is in both covers: rewrite the row in place.
    Rewrite,
    /// Only the old cover held the shard: erase the row.
    Erase,
}

/// Where a key goes: the word width and selector width of a
/// [`ShardedRuleSet`], without its tables. The running service keeps only
/// this (the tables live in the pool's published cells), so routing a key
/// never touches — or keeps alive — a rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    width: usize,
    shard_bits: u32,
}

impl ShardRouter {
    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of shards keys route across (`2^shard_bits`).
    #[must_use]
    pub fn shards(&self) -> usize {
        1 << self.shard_bits
    }

    /// Routes an already-packed key: the selector is the top `shard_bits`
    /// bits of limb 0, so routing is one shift of the value limb, guarded
    /// by a leading-ones test on the care mask (an `X` in the selector is
    /// a care-mask hole). This is the hot-path form — callers that pack a
    /// key for matching route it with no second pass over the bits.
    ///
    /// The key is **not** width-checked (a `PackedWord` carries no
    /// width); [`ShardedRuleSet::route`] and [`ShardedRuleSet::search`]
    /// validate width first.
    ///
    /// # Errors
    ///
    /// [`ServeError::AmbiguousKey`] when a selector bit is `X`.
    #[inline]
    pub fn route_packed(&self, key: &PackedWord) -> Result<usize> {
        let bits = self.shard_bits;
        if bits == 0 {
            return Ok(0);
        }
        // Selector bits live at the top of limb 0 (MAX_SHARD_BITS <= 12 <
        // 64, and shard_bits <= width). All of them must be cared for.
        let lead = key.mask[0].leading_ones();
        if lead < bits {
            return Err(ServeError::AmbiguousKey { bit: lead as usize });
        }
        Ok((key.value[0] >> (64 - bits)) as usize)
    }
}

/// A ternary rule set sharded by its top `shard_bits` bits.
///
/// The set is **mutable**: [`insert`](Self::insert),
/// [`remove`](Self::remove) and [`replace`](Self::replace) keep every
/// shard consistent with the logical rule map (the id → word
/// `BTreeMap` held here is the source of truth), performing the minimal
/// per-shard row operations [`cover_diff`] walks out. Rule ids are
/// global priorities (lower wins), matching the packed arrays'
/// id-priority contract.
#[derive(Debug, Clone)]
pub struct ShardedRuleSet {
    shard_bits: u32,
    width: usize,
    words: BTreeMap<u32, Vec<TernaryBit>>,
    shards: Vec<PackedTcamArray>,
}

impl ShardedRuleSet {
    /// Builds shards from `words` in priority order (index = global id =
    /// match priority, lower wins).
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRuleSet`], [`ServeError::TooWide`],
    /// [`ServeError::BadShardBits`], or [`ServeError::WidthMismatch`] when
    /// a word's width differs from the first word's.
    pub fn build(words: &[Vec<TernaryBit>], shard_bits: u32) -> Result<Self> {
        let width = words.first().ok_or(ServeError::EmptyRuleSet)?.len();
        let mut set = Self::empty(width, shard_bits)?;
        for (id, word) in words.iter().enumerate() {
            set.insert(id as u32, word.clone())?;
        }
        Ok(set)
    }

    /// Builds shards from explicitly prioritized rules (`id` = priority,
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
    /// [`ServeError::TooWide`] or [`ServeError::BadShardBits`].
    pub fn empty(width: usize, shard_bits: u32) -> Result<Self> {
        if width > MAX_PACKED_WIDTH {
            return Err(ServeError::TooWide {
                width,
                max: MAX_PACKED_WIDTH,
            });
        }
        let max_bits = MAX_SHARD_BITS.min(u32::try_from(width).unwrap_or(u32::MAX));
        if shard_bits > max_bits {
            return Err(ServeError::BadShardBits {
                bits: shard_bits,
                max: max_bits,
            });
        }
        Ok(Self {
            shard_bits,
            width,
            words: BTreeMap::new(),
            shards: vec![PackedTcamArray::new(width); 1 << shard_bits],
        })
    }

    /// Inserts a rule at priority `id`, replicating it into every shard
    /// its selector covers. Returns the physical rows written.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] or [`ServeError::DuplicateRuleId`].
    pub fn insert(&mut self, id: u32, word: Vec<TernaryBit>) -> Result<RowOps> {
        if word.len() != self.width {
            return Err(ServeError::WidthMismatch {
                expected: self.width,
                found: word.len(),
            });
        }
        if self.words.contains_key(&id) {
            return Err(ServeError::DuplicateRuleId { id });
        }
        Ok(self.move_rule(id, None, Some(word)))
    }

    /// Removes the rule at priority `id` from every covered shard,
    /// returning the physical rows erased — or `None` when no such rule
    /// exists.
    pub fn remove(&mut self, id: u32) -> Option<RowOps> {
        let old = self.words.remove(&id)?;
        Some(self.move_rule(id, Some(old), None))
    }

    /// Replaces the word of rule `id` with the minimal physical work:
    /// shards covered by both old and new selectors get an in-place row
    /// rewrite, shards only the old selector covered get an erase, newly
    /// covered shards get a row write.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] or [`ServeError::UnknownRuleId`].
    pub fn replace(&mut self, id: u32, word: Vec<TernaryBit>) -> Result<RowOps> {
        if word.len() != self.width {
            return Err(ServeError::WidthMismatch {
                expected: self.width,
                found: word.len(),
            });
        }
        let Some(old) = self.words.remove(&id) else {
            return Err(ServeError::UnknownRuleId { id });
        };
        Ok(self.move_rule(id, Some(old), Some(word)))
    }

    /// Moves rule `id`'s rows from the shards its `old` word (already out
    /// of the word map) covers to those its `new` word covers, either
    /// absent, by [`cover_diff`] — the only code that changes a shard's
    /// rows — then stores `new` and returns the row work.
    fn move_rule(
        &mut self,
        id: u32,
        old: Option<Vec<TernaryBit>>,
        new: Option<Vec<TernaryBit>>,
    ) -> RowOps {
        const NEW: &str = "cover_diff writes only shards a new word covers";
        let (sel, word) = (self.shard_bits as usize, new.as_deref());
        let selectors = (old.as_deref().map(|w| &w[..sel]), word.map(|w| &w[..sel]));
        let mut ops = RowOps::default();
        cover_diff(selectors.0, selectors.1, |s, op| {
            let present = match op {
                RowOp::Write => {
                    self.shards[s].push(word.expect(NEW), id);
                    true
                }
                RowOp::Rewrite => self.shards[s].replace(id, word.expect(NEW)),
                RowOp::Erase => self.shards[s].remove(id),
            };
            debug_assert!(present, "shard {s} missing rule {id}");
            ops.count(op);
        });
        if let Some(new) = new {
            self.words.insert(id, new);
        }
        ops
    }

    /// The stored word of rule `id`, if present.
    #[must_use]
    pub fn word(&self, id: u32) -> Option<&[TernaryBit]> {
        self.words.get(&id).map(Vec::as_slice)
    }

    /// Number of shards (`2^shard_bits`).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Selector width in bits.
    #[must_use]
    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of logical rules (before replication).
    #[must_use]
    pub fn rules(&self) -> usize {
        self.words.len()
    }

    /// Total stored rows across shards (after replication).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(PackedTcamArray::len).sum()
    }

    /// The packed rule array of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: usize) -> &PackedTcamArray {
        &self.shards[s]
    }

    /// Routes a key to its shard by reading the selector bits.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] on a short key,
    /// [`ServeError::AmbiguousKey`] when a selector bit is `X`.
    pub fn route(&self, key: &[TernaryBit]) -> Result<usize> {
        if key.len() != self.width {
            return Err(ServeError::WidthMismatch {
                expected: self.width,
                found: key.len(),
            });
        }
        // Pack only the selector bits; the extraction itself is one
        // shift/mask on the packed limbs.
        self.router()
            .route_packed(&PackedWord::pack(&key[..self.shard_bits as usize]))
    }

    /// This set's router (two integers).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        ShardRouter {
            width: self.width,
            shard_bits: self.shard_bits,
        }
    }

    /// Gives up the shard tables (ascending shard index) with the router
    /// that addresses them — how a service takes ownership of a rule set
    /// without copying a row.
    #[must_use]
    pub fn into_shards(self) -> (ShardRouter, Vec<PackedTcamArray>) {
        (self.router(), self.shards)
    }

    /// Single-threaded sharded lookup: route, then shard-local first match.
    /// Returns the winning rule's global id. This is the reference path the
    /// concurrent service and the property tests are checked against.
    ///
    /// # Errors
    ///
    /// Same as [`Self::route`].
    pub fn search(&self, key: &[TernaryBit]) -> Result<Option<u32>> {
        if key.len() != self.width {
            return Err(ServeError::WidthMismatch {
                expected: self.width,
                found: key.len(),
            });
        }
        let packed = PackedWord::pack(key);
        let shard = self.router().route_packed(&packed)?;
        Ok(self.shards[shard].first_match(&packed))
    }

    /// The monolithic oracle: every rule in one functional array, priority
    /// = global id. Sharded search must be bit-identical to
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

/// All shard indices a selector (possibly containing `X`) covers, in
/// ascending order — each `X` doubles the cover set.
fn covered_shards(selector: &[TernaryBit]) -> Vec<usize> {
    let mut cover = vec![0usize];
    for bit in selector {
        match bit {
            TernaryBit::Zero => {
                for s in &mut cover {
                    *s <<= 1;
                }
            }
            TernaryBit::One => {
                for s in &mut cover {
                    *s = (*s << 1) | 1;
                }
            }
            TernaryBit::X => {
                let mut doubled = Vec::with_capacity(cover.len() * 2);
                for s in &cover {
                    doubled.push(s << 1);
                    doubled.push((s << 1) | 1);
                }
                cover = doubled;
            }
        }
    }
    cover
}

/// The one diff of a rule's old shard cover against its new one: calls
/// `each` once per shard either selector covers, in ascending shard
/// order — [`RowOp::Rewrite`] where both cover it, [`RowOp::Erase`] where
/// only `old` does, [`RowOp::Write`] where only `new` does. An absent
/// selector covers nothing (`old: None` is an insert, `new: None` a
/// remove). [`ShardedRuleSet`] mutates its shards by this walk and the
/// online-update layer's delta compiler counts by it, so a plan and the
/// work that realizes it cannot disagree about replication.
pub fn cover_diff(
    old: Option<&[TernaryBit]>,
    new: Option<&[TernaryBit]>,
    mut each: impl FnMut(usize, RowOp),
) {
    let old = old.map_or_else(Vec::new, covered_shards);
    let new = new.map_or_else(Vec::new, covered_shards);
    // Both covers are ascending: merge-walk. An exhausted cover reads as
    // `usize::MAX`, past every shard index (< 2^MAX_SHARD_BITS).
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let o = old.get(i).copied().unwrap_or(usize::MAX);
        let n = new.get(j).copied().unwrap_or(usize::MAX);
        match o.cmp(&n) {
            Ordering::Equal => {
                each(o, RowOp::Rewrite);
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                each(o, RowOp::Erase);
                i += 1;
            }
            Ordering::Greater => {
                each(n, RowOp::Write);
                j += 1;
            }
        }
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
    fn selector_cover_expands_dont_cares() {
        assert_eq!(covered_shards(&parse_ternary("10").unwrap()), vec![2]);
        assert_eq!(covered_shards(&parse_ternary("1X").unwrap()), vec![2, 3]);
        assert_eq!(
            covered_shards(&parse_ternary("XX").unwrap()),
            vec![0, 1, 2, 3]
        );
        assert_eq!(covered_shards(&[]), vec![0]);
    }

    #[test]
    fn cover_diff_is_the_set_difference_in_shard_order() {
        // Every equal-length pair of absent-or-≤3-bit selectors: rewrite
        // = old ∩ new, erase = old ∖ new, write = new ∖ old, each covered
        // shard visited once, ascending.
        let bits = [TernaryBit::Zero, TernaryBit::One, TernaryBit::X];
        for len in 0..=3u32 {
            let selectors: Vec<Vec<TernaryBit>> = (0..3usize.pow(len))
                .map(|n| (0..len).map(|i| bits[n / 3usize.pow(i) % 3]).collect())
                .collect();
            let options: Vec<Option<&[TernaryBit]>> = std::iter::once(None)
                .chain(selectors.iter().map(|s| Some(s.as_slice())))
                .collect();
            // A selector covers shard `s` when it matches `s`'s bits.
            let covers = |sel: Option<&[TernaryBit]>, s: usize| {
                let key = tcam_arch::array::value_to_word(s as u64, len as usize);
                sel.is_some_and(|sel| tcam_core::bit::word_matches(sel, &key))
            };
            for &old in &options {
                for &new in &options {
                    let mut visited = Vec::new();
                    cover_diff(old, new, |s, op| visited.push((s, op)));
                    let expected: Vec<(usize, RowOp)> = (0..1usize << len)
                        .filter_map(|s| match (covers(old, s), covers(new, s)) {
                            (true, true) => Some((s, RowOp::Rewrite)),
                            (true, false) => Some((s, RowOp::Erase)),
                            (false, true) => Some((s, RowOp::Write)),
                            (false, false) => None,
                        })
                        .collect();
                    assert_eq!(visited, expected, "{old:?} → {new:?}");
                }
            }
        }
    }

    #[test]
    fn rules_land_in_covered_shards_with_global_ids() {
        let rules = words(&["1100", "0X11", "XXXX"]);
        let set = ShardedRuleSet::build(&rules, 2).unwrap();
        assert_eq!(set.shards(), 4);
        assert_eq!(set.rules(), 3);
        // rule 0 → shard 3; rule 1 → shards 0,1; rule 2 → all four.
        assert_eq!(set.total_rows(), 1 + 2 + 4);
        let in_shard3 = set.shard(3).matches(&PackedWord::pack(&rules[0]));
        assert_eq!(in_shard3, vec![0, 2]);
    }

    #[test]
    fn sharded_search_equals_oracle() {
        let rules = words(&["110X", "0X11", "1XXX", "XXXX"]);
        let set = ShardedRuleSet::build(&rules, 2).unwrap();
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
    fn routing_requires_concrete_selector_bits() {
        let set = ShardedRuleSet::build(&words(&["1010"]), 2).unwrap();
        assert_eq!(set.route(&parse_ternary("1010").unwrap()).unwrap(), 2);
        assert_eq!(
            set.route(&parse_ternary("1X10").unwrap()),
            Err(ServeError::AmbiguousKey { bit: 1 })
        );
        // X beyond the selector is fine.
        assert_eq!(set.route(&parse_ternary("10XX").unwrap()).unwrap(), 2);
        assert!(matches!(
            set.route(&parse_ternary("101").unwrap()),
            Err(ServeError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn route_packed_agrees_with_bitwise_route() {
        use tcam_numeric::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x0F0F);
        for shard_bits in [0u32, 1, 2, 4, 7] {
            let rules = vec![vec![TernaryBit::X; 16]];
            let set = ShardedRuleSet::build(&rules, shard_bits).unwrap();
            for _ in 0..200 {
                let key: Vec<TernaryBit> = (0..16)
                    .map(|_| match rng.below(8) {
                        0 => TernaryBit::X, // X anywhere, incl. selector
                        n => TernaryBit::from_bool(n & 1 == 1),
                    })
                    .collect();
                let packed = PackedWord::pack(&key);
                assert_eq!(
                    set.route(&key),
                    set.router().route_packed(&packed),
                    "bits {shard_bits} key {key:?}"
                );
            }
        }
    }

    #[test]
    fn build_validates_inputs() {
        assert!(matches!(
            ShardedRuleSet::build(&[], 1),
            Err(ServeError::EmptyRuleSet)
        ));
        assert!(matches!(
            ShardedRuleSet::build(&words(&["10", "100"]), 1),
            Err(ServeError::WidthMismatch { .. })
        ));
        assert!(matches!(
            ShardedRuleSet::build(&words(&["10"]), 3),
            Err(ServeError::BadShardBits { .. })
        ));
        let wide = vec![vec![TernaryBit::X; MAX_PACKED_WIDTH + 1]];
        assert!(matches!(
            ShardedRuleSet::build(&wide, 1),
            Err(ServeError::TooWide { .. })
        ));
    }

    #[test]
    fn zero_shard_bits_is_the_monolithic_case() {
        let rules = words(&["110X", "XXXX"]);
        let set = ShardedRuleSet::build(&rules, 0).unwrap();
        assert_eq!(set.shards(), 1);
        assert_eq!(set.total_rows(), 2);
        let key = parse_ternary("1101").unwrap();
        assert_eq!(set.route(&key).unwrap(), 0);
        assert_eq!(set.search(&key).unwrap(), Some(0));
    }
}
