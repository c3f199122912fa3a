//! The versioned rule store: the logical source of truth for a rule set
//! that changes while it is being served.
//!
//! A [`RuleStore`] maps a **priority** (the global rule id, lower wins —
//! the same id-priority contract the packed arrays enforce) to a ternary
//! word. Mutations arrive as *batches* of [`RuleChange`]s and apply
//! **atomically**: the whole batch is validated against a staged view
//! first, and a batch that would fail leaves the store (and its version
//! counter) untouched. Each applied batch bumps the version by exactly
//! one — the version is what epoch-snapshot publication ties search
//! results back to.
//!
//! The module also carries [`prefix_word`], which turns a routing-table
//! update's CIDR prefix into a ternary word (port ranges expand through
//! [`range_to_prefixes`](tcam_arch::apps::classifier::range_to_prefixes)).

use std::collections::BTreeMap;
use tcam_arch::array::prefix_to_word;
use tcam_core::bit::TernaryBit;
use tcam_serve::error::{Result, ServeError};

/// One logical rule mutation. `priority` is the global rule id (lower
/// wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleChange {
    /// Add a rule at a priority that must not be occupied.
    Insert {
        /// The new rule's priority (= id).
        priority: u32,
        /// The ternary match word.
        word: Vec<TernaryBit>,
    },
    /// Delete the rule at a priority that must be occupied.
    Remove {
        /// The doomed rule's priority.
        priority: u32,
    },
    /// Rewrite the word of an existing rule, keeping its priority.
    Modify {
        /// The rule's priority (must be occupied).
        priority: u32,
        /// The replacement word.
        word: Vec<TernaryBit>,
    },
}

impl RuleChange {
    /// The priority this change targets.
    #[must_use]
    pub fn priority(&self) -> u32 {
        match self {
            RuleChange::Insert { priority, .. }
            | RuleChange::Remove { priority }
            | RuleChange::Modify { priority, .. } => *priority,
        }
    }
}

/// The versioned logical rule set (priority → word), mutated in atomic
/// batches.
#[derive(Debug, Clone)]
pub struct RuleStore {
    width: usize,
    rules: BTreeMap<u32, Vec<TernaryBit>>,
    version: u64,
}

impl RuleStore {
    /// An empty store for `width`-bit words, at version 0.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            rules: BTreeMap::new(),
            version: 0,
        }
    }

    /// A store seeded with `rules` (priority, word), still at version 0 —
    /// the seed is the baseline snapshot, not an update.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRuleSet`], [`ServeError::WidthMismatch`], or
    /// [`ServeError::DuplicateRuleId`].
    pub fn from_rules(rules: &[(u32, Vec<TernaryBit>)]) -> Result<Self> {
        let width = rules.first().ok_or(ServeError::EmptyRuleSet)?.1.len();
        Self::restore(width, rules, 0)
    }

    /// Rebuilds a store from recovered state: `rules` as they stood at
    /// `version` applied batches. This is the **recovery constructor** —
    /// unlike [`Self::from_rules`] it takes the width explicitly (a
    /// recovered store may legitimately be empty) and restores the version
    /// counter, so epochs continue exactly where the crashed process
    /// stopped.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] or [`ServeError::DuplicateRuleId`].
    pub fn restore(width: usize, rules: &[(u32, Vec<TernaryBit>)], version: u64) -> Result<Self> {
        let mut store = Self::new(width);
        for (priority, word) in rules {
            if word.len() != width {
                return Err(ServeError::WidthMismatch {
                    expected: width,
                    found: word.len(),
                });
            }
            if store.rules.insert(*priority, word.clone()).is_some() {
                return Err(ServeError::DuplicateRuleId { id: *priority });
            }
        }
        store.version = version;
        Ok(store)
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// How many batches have been applied since the seed.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of rules currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the store holds no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The word at `priority`, if present.
    #[must_use]
    pub fn word(&self, priority: u32) -> Option<&[TernaryBit]> {
        self.rules.get(&priority).map(Vec::as_slice)
    }

    /// All rules in ascending priority order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[TernaryBit])> + '_ {
        self.rules.iter().map(|(p, w)| (*p, w.as_slice()))
    }

    /// Snapshot of the rules as owned (priority, word) pairs, ascending.
    #[must_use]
    pub fn rules_vec(&self) -> Vec<(u32, Vec<TernaryBit>)> {
        self.rules.iter().map(|(p, w)| (*p, w.clone())).collect()
    }

    /// Validates `batch` against the current state **without applying
    /// it** — exactly the checks [`Self::apply`] performs before its
    /// commit phase.
    ///
    /// # Errors
    ///
    /// As [`Self::apply`].
    pub fn validate(&self, batch: &[RuleChange]) -> Result<()> {
        stage(batch, self.width, |p| self.rules.contains_key(&p), |_| {})
    }

    /// Applies `batch` atomically and returns the new version.
    ///
    /// Changes are validated **in order against a staged view** (see
    /// [`Self::validate`]), so a batch may insert a priority and then
    /// modify or remove it; a batch that fails validation at any step
    /// applies nothing.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`], [`ServeError::DuplicateRuleId`]
    /// (insert over an occupied priority), or
    /// [`ServeError::UnknownRuleId`] (remove/modify of a vacant one). An
    /// empty batch is rejected as [`ServeError::EmptyRuleSet`] so version
    /// numbers always certify real mutations.
    pub fn apply(&mut self, batch: &[RuleChange]) -> Result<u64> {
        self.apply_logged(batch, |_| Ok(()))
    }

    /// [`Self::apply`] with `log` run between the validation and the
    /// commit, given the version the batch will commit as: a durability
    /// layer appends its log record there, so a batch is validated once
    /// and logged only when it is certain to apply (a write-ahead log
    /// must never hold a record its own replay would reject). An error
    /// from `log` is returned and commits nothing.
    ///
    /// # Errors
    ///
    /// As [`Self::apply`], then `log`'s.
    pub fn apply_logged<E: From<ServeError>>(
        &mut self,
        batch: &[RuleChange],
        log: impl FnOnce(u64) -> std::result::Result<(), E>,
    ) -> std::result::Result<u64, E> {
        self.validate(batch)?;
        log(self.version + 1)?;
        // Commit: infallible after validation.
        for change in batch {
            match change {
                RuleChange::Insert { priority, word } | RuleChange::Modify { priority, word } => {
                    self.rules.insert(*priority, word.clone());
                }
                RuleChange::Remove { priority } => {
                    self.rules.remove(priority);
                }
            }
        }
        self.version += 1;
        Ok(self.version)
    }
}

/// The one walk over a rule batch: stages `batch` in order over the
/// priorities `present` reports (a batch may insert a priority and then
/// modify or remove it) and calls `each(present_after)` with whether every
/// change leaves its priority present. Only presence is staged: no change
/// reads a word it does not carry. [`RuleStore::validate`] is this walk
/// with an empty visitor and
/// [`DeltaCompiler::compile`](crate::delta::DeltaCompiler::compile) the
/// same walk with a counting one, which is why they accept and reject the
/// same batches. A failed batch may already have been visited in part.
///
/// # Errors
///
/// The first failure, checked in this order: an empty batch
/// ([`ServeError::EmptyRuleSet`]), then per change an insert or modify
/// word that is not `width` bits ([`ServeError::WidthMismatch`]), an
/// insert over a present priority ([`ServeError::DuplicateRuleId`]), a
/// remove or modify of an absent one ([`ServeError::UnknownRuleId`]).
pub(crate) fn stage(
    batch: &[RuleChange],
    width: usize,
    present: impl Fn(u32) -> bool,
    mut each: impl FnMut(bool),
) -> Result<()> {
    if batch.is_empty() {
        return Err(ServeError::EmptyRuleSet);
    }
    let mut staged: BTreeMap<u32, bool> = BTreeMap::new();
    for change in batch {
        let id = change.priority();
        let slot = staged.entry(id).or_insert_with(|| present(id));
        let before = *slot;
        let after = match change {
            RuleChange::Insert { word, .. } | RuleChange::Modify { word, .. }
                if word.len() != width =>
            {
                return Err(ServeError::WidthMismatch {
                    expected: width,
                    found: word.len(),
                });
            }
            RuleChange::Insert { .. } if before => {
                return Err(ServeError::DuplicateRuleId { id });
            }
            RuleChange::Remove { .. } | RuleChange::Modify { .. } if !before => {
                return Err(ServeError::UnknownRuleId { id });
            }
            RuleChange::Insert { .. } | RuleChange::Modify { .. } => true,
            RuleChange::Remove { .. } => false,
        };
        each(after);
        *slot = after;
    }
    Ok(())
}

/// The ternary word matching every `width`-bit value whose top
/// `prefix_len` bits equal those of `addr`: concrete prefix bits, then
/// don't-cares — the CIDR-prefix encoding LPM tables use
/// ([`prefix_to_word`] once `addr` is known to fit the width).
///
/// # Panics
///
/// Panics when `width > 64`, `prefix_len > width`, or `addr` has bits
/// set outside the width.
#[must_use]
pub fn prefix_word(addr: u64, prefix_len: usize, width: usize) -> Vec<TernaryBit> {
    assert!(width >= 64 || addr >> width == 0, "addr outside width");
    prefix_to_word(addr, prefix_len, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::parse_ternary;

    fn w(s: &str) -> Vec<TernaryBit> {
        parse_ternary(s).unwrap()
    }

    #[test]
    fn batches_apply_atomically_and_bump_version_once() {
        let mut store = RuleStore::new(4);
        let v = store
            .apply(&[
                RuleChange::Insert {
                    priority: 10,
                    word: w("10XX"),
                },
                RuleChange::Insert {
                    priority: 20,
                    word: w("0XXX"),
                },
            ])
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.len(), 2);

        // A failing batch rolls back completely: the first change alone
        // would be valid, but the second is not.
        let err = store.apply(&[
            RuleChange::Remove { priority: 10 },
            RuleChange::Remove { priority: 99 },
        ]);
        assert_eq!(err, Err(ServeError::UnknownRuleId { id: 99 }));
        assert_eq!(store.version(), 1);
        assert!(store.word(10).is_some(), "failed batch must not apply");

        // In-batch sequencing: insert then modify then remove the same
        // priority is valid and nets out to absence.
        let v = store
            .apply(&[
                RuleChange::Insert {
                    priority: 30,
                    word: w("1111"),
                },
                RuleChange::Modify {
                    priority: 30,
                    word: w("0000"),
                },
                RuleChange::Remove { priority: 30 },
            ])
            .unwrap();
        assert_eq!(v, 2);
        assert!(store.word(30).is_none());
    }

    #[test]
    fn validation_errors_name_the_offender() {
        let mut store = RuleStore::new(4);
        store
            .apply(&[RuleChange::Insert {
                priority: 1,
                word: w("1010"),
            }])
            .unwrap();
        assert_eq!(
            store.apply(&[RuleChange::Insert {
                priority: 1,
                word: w("0101"),
            }]),
            Err(ServeError::DuplicateRuleId { id: 1 })
        );
        assert_eq!(
            store.apply(&[RuleChange::Modify {
                priority: 2,
                word: w("0101"),
            }]),
            Err(ServeError::UnknownRuleId { id: 2 })
        );
        assert!(matches!(
            store.apply(&[RuleChange::Insert {
                priority: 3,
                word: w("010"),
            }]),
            Err(ServeError::WidthMismatch { .. })
        ));
        assert_eq!(store.apply(&[]), Err(ServeError::EmptyRuleSet));
        assert_eq!(store.version(), 1);
    }

    #[test]
    fn seeding_stays_at_version_zero() {
        let store = RuleStore::from_rules(&[(5, w("10XX")), (9, w("XXXX"))]).unwrap();
        assert_eq!(store.version(), 0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.word(5).unwrap(), w("10XX").as_slice());
        assert!(matches!(
            RuleStore::from_rules(&[(5, w("10XX")), (5, w("XXXX"))]),
            Err(ServeError::DuplicateRuleId { id: 5 })
        ));
    }

    #[test]
    fn validate_is_apply_without_the_commit() {
        let mut store = RuleStore::new(4);
        let batch = vec![RuleChange::Insert {
            priority: 1,
            word: w("10XX"),
        }];
        store.validate(&batch).unwrap();
        assert_eq!(store.len(), 0, "validate must not mutate");
        assert_eq!(store.version(), 0);
        store.apply(&batch).unwrap();
        // Now the same batch fails validation the same way apply would.
        assert_eq!(
            store.validate(&batch),
            Err(ServeError::DuplicateRuleId { id: 1 })
        );
        assert_eq!(store.validate(&[]), Err(ServeError::EmptyRuleSet));
    }

    /// The log hook runs once, after validation and before the commit: a
    /// batch that fails validation is never logged, and a failed log
    /// commits nothing.
    #[test]
    fn apply_logged_logs_only_valid_batches_and_commits_only_logged_ones() {
        let mut store = RuleStore::new(4);
        let batch = [RuleChange::Insert {
            priority: 1,
            word: w("10XX"),
        }];
        let mut logged = Vec::new();
        let refused = store.apply_logged(&[RuleChange::Remove { priority: 1 }], |v| {
            logged.push(v);
            Ok::<(), ServeError>(())
        });
        assert_eq!(refused, Err(ServeError::UnknownRuleId { id: 1 }));
        let failed = store.apply_logged(&batch, |v| {
            logged.push(v);
            Err(ServeError::EmptyRuleSet)
        });
        assert_eq!(failed, Err(ServeError::EmptyRuleSet));
        assert_eq!((store.len(), store.version()), (0, 0));
        let applied = store.apply_logged(&batch, |v| {
            logged.push(v);
            Ok::<(), ServeError>(())
        });
        assert_eq!(applied, Ok(1));
        assert_eq!(logged, [1, 1]);
        assert_eq!(store.word(1), Some(w("10XX").as_slice()));
    }

    #[test]
    fn restore_rebuilds_state_and_version() {
        let mut store = RuleStore::new(4);
        store
            .apply(&[RuleChange::Insert {
                priority: 7,
                word: w("1X0X"),
            }])
            .unwrap();
        store
            .apply(&[RuleChange::Insert {
                priority: 9,
                word: w("0000"),
            }])
            .unwrap();
        let recovered = RuleStore::restore(4, &store.rules_vec(), store.version()).unwrap();
        assert_eq!(recovered.version(), 2);
        assert_eq!(recovered.rules_vec(), store.rules_vec());
        // A recovered store may be empty — that is the point of the
        // explicit width.
        let empty = RuleStore::restore(8, &[], 5).unwrap();
        assert_eq!(empty.width(), 8);
        assert_eq!(empty.version(), 5);
        assert!(empty.is_empty());
    }

    #[test]
    fn prefix_word_encodes_cidr_style() {
        assert_eq!(prefix_word(0b1010_0000, 3, 8), w("101XXXXX"));
        assert_eq!(prefix_word(0, 0, 4), w("XXXX"));
        assert_eq!(prefix_word(0b1111, 4, 4), w("1111"));
    }

    #[test]
    #[should_panic(expected = "addr outside width")]
    fn prefix_word_refuses_an_address_outside_the_width() {
        let _ = prefix_word(0b10000, 2, 4);
    }
}
