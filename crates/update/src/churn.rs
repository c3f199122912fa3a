//! Deterministic churn workload generator: a rule-update stream shaped
//! like the router application the paper benchmarks TCAMs on.
//!
//! [`BgpChurn`] is BGP-like prefix churn for an LPM table: a mix of
//! announcements (inserts), withdrawals (removes) and re-advertisements
//! (in-place modifies) over random prefixes. Priorities are **banded by
//! prefix length** — `priority = (width - len) << 20 | counter` — so a
//! longer (more specific) prefix always carries a numerically lower
//! priority and longest-prefix-match ordering survives arbitrary
//! interleavings of inserts and removes without renumbering.
//!
//! It is driven by [`SplitMix64`] forks, so a seed fully determines the
//! initial table, every batch, and every probe key — the property the
//! epoch-verified churn tests rely on.

use crate::store::{prefix_word, RuleChange};
use tcam_core::bit::TernaryBit;
use tcam_numeric::rng::SplitMix64;

/// Priority banding: `(width - len) << BAND_SHIFT | counter`. The
/// counter space bounds how many announcements one band can see over a
/// generator's lifetime.
const BAND_SHIFT: u32 = 20;

/// BGP-like prefix churn over a `width`-bit address space.
#[derive(Debug)]
pub struct BgpChurn {
    width: usize,
    min_len: usize,
    rng: SplitMix64,
    key_rng: SplitMix64,
    /// Live rules: (priority, word) — indexed for O(1) random pick,
    /// swap-removed on withdrawal.
    active: Vec<(u32, Vec<TernaryBit>)>,
    /// Per-band announcement counters (band = width - len).
    counters: Vec<u32>,
    initial: Vec<(u32, Vec<TernaryBit>)>,
}

impl BgpChurn {
    /// A generator over `width`-bit addresses (≤ 32) with `initial_rules`
    /// seeded routes, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds 32, or `initial_rules` is 0.
    #[must_use]
    pub fn new(width: usize, initial_rules: usize, seed: u64) -> Self {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        assert!(initial_rules > 0, "need at least one seed route");
        let mut rng = SplitMix64::new(seed);
        let key_rng = rng.fork();
        // Prefix lengths mimic a core table scaled to `width`: mostly
        // long-ish prefixes, a few broad aggregates, one default route.
        let min_len = (width / 4).max(1);
        let mut churn = Self {
            width,
            min_len,
            rng,
            key_rng,
            active: Vec::new(),
            counters: vec![0; width + 1],
            initial: Vec::new(),
        };
        // Default route: all-X word at the weakest priority band.
        churn.announce_default();
        while churn.active.len() < initial_rules {
            churn.announce();
        }
        churn.initial = churn.active.clone();
        churn
    }

    fn announce_default(&mut self) {
        let band = self.width; // len 0
        let priority = next_priority(&mut self.counters, band);
        self.active
            .push((priority, vec![TernaryBit::X; self.width]));
    }

    /// Announces a fresh random prefix, returning the inserted rule.
    fn announce(&mut self) -> (u32, Vec<TernaryBit>) {
        let span = (self.width - self.min_len + 1) as u64;
        // Skew toward longer prefixes (max of two draws), like real
        // tables where /24s dominate.
        let a = self.rng.below(span) as usize;
        let b = self.rng.below(span) as usize;
        let len = self.min_len + a.max(b);
        let addr = if len == 0 {
            0
        } else {
            self.rng.next_u64() >> (64 - len) << (self.width - len)
        };
        let band = self.width - len;
        let priority = next_priority(&mut self.counters, band);
        let word = prefix_word(addr, len, self.width);
        self.active.push((priority, word.clone()));
        (priority, word)
    }

    /// Picks a random non-default live rule index (None when only the
    /// default route remains).
    fn pick_victim(&mut self) -> Option<usize> {
        if self.active.len() <= 1 {
            return None;
        }
        // Index 0 is the default route; never withdraw it.
        Some(1 + self.rng.below(self.active.len() as u64 - 1) as usize)
    }
}

/// Allocates the next priority in `band`, panicking when the band's
/// counter space is exhausted.
fn next_priority(counters: &mut [u32], band: usize) -> u32 {
    let counter = counters[band];
    assert!(
        counter < 1 << BAND_SHIFT,
        "band {band} exhausted its 2^{BAND_SHIFT} announcement budget"
    );
    counters[band] = counter + 1;
    (band as u32) << BAND_SHIFT | counter
}

impl BgpChurn {
    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The initial (priority, word) table the store is seeded with.
    #[must_use]
    pub fn initial(&self) -> Vec<(u32, Vec<TernaryBit>)> {
        self.initial.clone()
    }

    /// The next batch of logical changes (valid against a store that has
    /// applied every prior batch in order).
    pub fn next_batch(&mut self, size: usize) -> Vec<RuleChange> {
        let mut batch = Vec::with_capacity(size);
        for _ in 0..size {
            match self.rng.below(10) {
                // ~50% announcements, ~30% withdrawals, ~20% re-ads.
                0..=4 => {
                    let (priority, word) = self.announce();
                    batch.push(RuleChange::Insert { priority, word });
                }
                5..=7 => {
                    if let Some(i) = self.pick_victim() {
                        let (priority, _) = self.active.swap_remove(i);
                        batch.push(RuleChange::Remove { priority });
                    } else {
                        let (priority, word) = self.announce();
                        batch.push(RuleChange::Insert { priority, word });
                    }
                }
                _ => {
                    if let Some(i) = self.pick_victim() {
                        // Re-advertisement: same priority (and so same
                        // band/length), fresh address bits.
                        let len = self.width - (self.active[i].0 >> BAND_SHIFT) as usize;
                        let addr = if len == 0 {
                            0
                        } else {
                            self.rng.next_u64() >> (64 - len) << (self.width - len)
                        };
                        let word = prefix_word(addr, len, self.width);
                        self.active[i].1.clone_from(&word);
                        batch.push(RuleChange::Modify {
                            priority: self.active[i].0,
                            word,
                        });
                    } else {
                        let (priority, word) = self.announce();
                        batch.push(RuleChange::Insert { priority, word });
                    }
                }
            }
        }
        batch
    }

    /// A fully-specified probe key, biased toward the live rules.
    pub fn random_key(&mut self) -> Vec<TernaryBit> {
        // 3 in 4 keys concretize a live prefix (traffic follows routes);
        // the rest are uniform (default-route traffic).
        let template = if self.key_rng.below(4) < 3 && !self.active.is_empty() {
            let i = self.key_rng.below(self.active.len() as u64) as usize;
            Some(self.active[i].1.clone())
        } else {
            None
        };
        (0..self.width)
            .map(|i| match template.as_ref().map(|t| t[i]) {
                Some(TernaryBit::Zero) => TernaryBit::Zero,
                Some(TernaryBit::One) => TernaryBit::One,
                _ => {
                    if self.key_rng.below(2) == 0 {
                        TernaryBit::Zero
                    } else {
                        TernaryBit::One
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RuleStore;

    fn drive(mut workload: BgpChurn, batches: usize) -> (u64, RuleStore) {
        let mut store = RuleStore::from_rules(&workload.initial()).unwrap();
        let mut fingerprint = 0u64;
        for _ in 0..batches {
            let batch = workload.next_batch(8);
            assert!(!batch.is_empty());
            store.apply(&batch).unwrap();
            for change in &batch {
                fingerprint = fingerprint
                    .wrapping_mul(0x100_0000_01B3)
                    .wrapping_add(u64::from(change.priority()));
            }
            let key = workload.random_key();
            assert_eq!(key.len(), workload.width());
            assert!(key.iter().all(|b| *b != TernaryBit::X));
            fingerprint = fingerprint.wrapping_add(
                key.iter()
                    .fold(0u64, |acc, b| acc << 1 | u64::from(*b == TernaryBit::One)),
            );
        }
        (fingerprint, store)
    }

    #[test]
    fn bgp_batches_apply_cleanly_and_deterministically() {
        let (fp1, store1) = drive(BgpChurn::new(16, 64, 42), 100);
        let (fp2, store2) = drive(BgpChurn::new(16, 64, 42), 100);
        assert_eq!(fp1, fp2, "same seed must replay identically");
        assert_eq!(store1.version(), 100);
        assert_eq!(store1.len(), store2.len());
        let (fp3, _) = drive(BgpChurn::new(16, 64, 43), 100);
        assert_ne!(fp1, fp3, "different seeds must diverge");
    }

    #[test]
    fn bgp_priorities_preserve_lpm_order() {
        let churn = BgpChurn::new(16, 128, 7);
        for (priority, word) in churn.initial() {
            let len = word.iter().filter(|b| **b != TernaryBit::X).count();
            let band = (priority >> BAND_SHIFT) as usize;
            assert_eq!(band, 16 - len, "band must encode prefix length");
        }
        // Longer prefix ⇒ smaller band ⇒ numerically lower priority:
        // any /24-analog beats any /16-analog, which beats the default.
        let p_long = (16u32 - 12) << BAND_SHIFT;
        let p_short = (16u32 - 6) << BAND_SHIFT;
        assert!(p_long < p_short);
    }
}
