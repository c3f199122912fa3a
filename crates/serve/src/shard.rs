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
/// per-shard row operations — a replace only rewrites shards whose cover
/// changed. Rule ids are global priorities (lower wins), matching the
/// packed arrays' id-priority contract.
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
        let cover = covered_shards(&word[..self.shard_bits as usize]);
        for &shard in &cover {
            self.shards[shard].push(&word, id);
        }
        self.words.insert(id, word);
        Ok(RowOps {
            writes: cover.len() as u64,
            erases: 0,
        })
    }

    /// Removes the rule at priority `id` from every covered shard,
    /// returning the physical rows erased — or `None` when no such rule
    /// exists.
    pub fn remove(&mut self, id: u32) -> Option<RowOps> {
        let word = self.words.remove(&id)?;
        let cover = covered_shards(&word[..self.shard_bits as usize]);
        for &shard in &cover {
            let present = self.shards[shard].remove(id);
            debug_assert!(present, "shard {shard} missing rule {id}");
        }
        Some(RowOps {
            writes: 0,
            erases: cover.len() as u64,
        })
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
        let Some(old) = self.words.get(&id) else {
            return Err(ServeError::UnknownRuleId { id });
        };
        let sel = self.shard_bits as usize;
        let old_cover = covered_shards(&old[..sel]);
        let new_cover = covered_shards(&word[..sel]);
        let mut ops = RowOps::default();
        // Both covers are ascending (see `covered_shards`): merge-walk.
        let (mut i, mut j) = (0, 0);
        while i < old_cover.len() || j < new_cover.len() {
            match (old_cover.get(i), new_cover.get(j)) {
                (Some(&o), Some(&n)) if o == n => {
                    self.shards[o].replace(id, &word);
                    ops.writes += 1;
                    i += 1;
                    j += 1;
                }
                (Some(&o), Some(&n)) if o < n => {
                    self.shards[o].remove(id);
                    ops.erases += 1;
                    i += 1;
                }
                (Some(&o), None) => {
                    self.shards[o].remove(id);
                    ops.erases += 1;
                    i += 1;
                }
                (_, Some(&n)) => {
                    self.shards[n].push(&word, id);
                    ops.writes += 1;
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.words.insert(id, word);
        Ok(ops)
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

    /// Average copies per rule (1.0 = no replication).
    #[must_use]
    pub fn replication_factor(&self) -> f64 {
        if self.words.is_empty() {
            1.0
        } else {
            self.total_rows() as f64 / self.words.len() as f64
        }
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
        self.route_packed(&PackedWord::pack(&key[..self.shard_bits as usize]))
    }

    /// [`ShardRouter::route_packed`] with this set's widths.
    ///
    /// # Errors
    ///
    /// [`ServeError::AmbiguousKey`] when a selector bit is `X`.
    #[inline]
    pub fn route_packed(&self, key: &PackedWord) -> Result<usize> {
        self.router().route_packed(key)
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
        let shard = self.route_packed(&packed)?;
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
/// ascending order — each `X` doubles the cover set. Public because the
/// online-update layer's delta compiler uses the same sharding function to
/// plan per-shard row operations.
#[must_use]
pub fn covered_shards(selector: &[TernaryBit]) -> Vec<usize> {
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
    fn rules_land_in_covered_shards_with_global_ids() {
        let rules = words(&["1100", "0X11", "XXXX"]);
        let set = ShardedRuleSet::build(&rules, 2).unwrap();
        assert_eq!(set.shards(), 4);
        assert_eq!(set.rules(), 3);
        // rule 0 → shard 3; rule 1 → shards 0,1; rule 2 → all four.
        assert_eq!(set.total_rows(), 1 + 2 + 4);
        assert!((set.replication_factor() - 7.0 / 3.0).abs() < 1e-12);
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
                    set.route_packed(&packed),
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
