//! The delta compiler: logical rule changes → minimal per-shard physical
//! row operations, priced through the paper's cost model.
//!
//! A TCAM update is expensive in rows, not rules: a rule whose shard
//! selector carries don't-cares is **replicated** into every shard it
//! covers, so one logical change can touch many physical rows. The
//! compiler plans that work *before* anything mutates:
//!
//! * an **insert** writes one row in every covered shard;
//! * a **remove** erases one row in every covered shard;
//! * a **modify** is diffed cover-against-cover: shards in both covers
//!   get an in-place rewrite, shards only the old cover held get an
//!   erase, newly covered shards get a write.
//!
//! All three are one [`cover_diff`] (an insert has no old cover, a remove
//! no new one) — the walk the sharding layer mutates its shards by — run
//! inside the batch walk [`RuleStore::validate`](crate::store::RuleStore::validate)
//! uses. The plan is priced through [`OperationCosts`] — a NEM-relay row
//! erase is physically a row write (the care mask is overwritten), so
//! erases cost `write_latency`/`write_energy` too.

use crate::store::{stage, RuleChange};
use tcam_arch::energy_model::OperationCosts;
use tcam_serve::error::Result;
use tcam_serve::shard::{cover_diff, RowOps, ShardedRuleSet};

/// Time and energy one compiled delta costs the array, assuming the
/// serial row-update port the paper's 3T2N design has (writes do not
/// overlap searches on a shard, and a shard has one write port).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaCost {
    /// Wall time to apply every row op serially, seconds.
    pub latency: f64,
    /// Total row-op energy, joules.
    pub energy: f64,
}

/// A compiled update batch: the physical work plan for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDelta {
    /// Row writes/erases per shard (index = shard).
    pub per_shard: Vec<RowOps>,
    /// Batch totals across shards.
    pub total: RowOps,
    /// The plan priced through the cost model.
    pub cost: DeltaCost,
}

impl CompiledDelta {
    /// Shards this delta touches, ascending.
    #[must_use]
    pub fn touched(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .enumerate()
            .filter(|(_, ops)| ops.writes + ops.erases > 0)
            .map(|(s, _)| s)
            .collect()
    }
}

/// Compiles [`RuleChange`] batches against a rule set snapshot without
/// mutating it.
#[derive(Debug)]
pub struct DeltaCompiler<'a> {
    rules: &'a ShardedRuleSet,
    costs: OperationCosts,
}

impl<'a> DeltaCompiler<'a> {
    /// A compiler planning against `rules`, pricing through `costs`.
    #[must_use]
    pub fn new(rules: &'a ShardedRuleSet, costs: OperationCosts) -> Self {
        Self { rules, costs }
    }

    /// Compiles `batch` into per-shard row operations. Changes are
    /// staged in order (a batch may insert a priority and then modify
    /// it) by the same walk [`RuleStore::validate`](crate::store::RuleStore::validate)
    /// is — a batch this function accepts will apply cleanly.
    ///
    /// # Errors
    ///
    /// As [`RuleStore::validate`](crate::store::RuleStore::validate).
    pub fn compile(&self, batch: &[RuleChange]) -> Result<CompiledDelta> {
        let sel = self.rules.shard_bits() as usize;
        let mut per_shard = vec![RowOps::default(); self.rules.shards()];
        let word = |p| self.rules.word(p);
        stage(batch, self.rules.width(), word, |before, after| {
            let selectors = (before.map(|w| &w[..sel]), after.map(|w| &w[..sel]));
            cover_diff(selectors.0, selectors.1, |s, op| per_shard[s].count(op));
        })?;

        let mut total = RowOps::default();
        for ops in &per_shard {
            total.add(*ops);
        }
        let ops = total.writes + total.erases;
        let cost = DeltaCost {
            latency: ops as f64 * self.costs.write_latency,
            energy: ops as f64 * self.costs.write_energy,
        };
        Ok(CompiledDelta {
            per_shard,
            total,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::{parse_ternary, TernaryBit};
    use tcam_serve::error::ServeError;

    fn w(s: &str) -> Vec<TernaryBit> {
        parse_ternary(s).unwrap()
    }

    fn base() -> ShardedRuleSet {
        // 2 shard bits → 4 shards. Rule 10 covers shard 3; rule 20
        // covers shards 0 and 1; rule 30 covers all four.
        ShardedRuleSet::from_prioritized(
            &[(10, w("1100")), (20, w("0X11")), (30, w("XXXX"))],
            2,
        )
        .unwrap()
    }

    #[test]
    fn insert_and_remove_count_replicated_rows() {
        let rules = base();
        let compiler = DeltaCompiler::new(&rules, OperationCosts::paper_3t2n());
        let delta = compiler
            .compile(&[
                RuleChange::Insert {
                    priority: 15,
                    word: w("X011"), // covers shards 0b00 and 0b10
                },
                RuleChange::Remove { priority: 30 }, // erases 4 rows
            ])
            .unwrap();
        assert_eq!(delta.total, RowOps { writes: 2, erases: 4 });
        assert_eq!(delta.per_shard[0], RowOps { writes: 1, erases: 1 });
        assert_eq!(delta.per_shard[2], RowOps { writes: 1, erases: 1 });
        assert_eq!(delta.per_shard[3], RowOps { writes: 0, erases: 1 });
        assert_eq!(delta.touched(), vec![0, 1, 2, 3]);
        let costs = OperationCosts::paper_3t2n();
        assert!((delta.cost.latency - 6.0 * costs.write_latency).abs() < 1e-18);
        assert!((delta.cost.energy - 6.0 * costs.write_energy).abs() < 1e-24);
    }

    #[test]
    fn modify_diffs_covers_minimally() {
        let rules = base();
        let compiler = DeltaCompiler::new(&rules, OperationCosts::paper_3t2n());
        // 20: cover {0,1} → {1,3}: rewrite 1, erase 0, write 3.
        let delta = compiler
            .compile(&[RuleChange::Modify {
                priority: 20,
                word: w("X111"),
            }])
            .unwrap();
        assert_eq!(delta.total, RowOps { writes: 2, erases: 1 });
        assert_eq!(delta.per_shard[0], RowOps { writes: 0, erases: 1 });
        assert_eq!(delta.per_shard[1], RowOps { writes: 1, erases: 0 });
        assert_eq!(delta.per_shard[3], RowOps { writes: 1, erases: 0 });
    }

    #[test]
    fn staged_view_sequences_changes_within_a_batch() {
        let rules = base();
        let compiler = DeltaCompiler::new(&rules, OperationCosts::paper_3t2n());
        // Insert at 15 then remove it: the remove must see the staged
        // word.
        let delta = compiler
            .compile(&[
                RuleChange::Insert {
                    priority: 15,
                    word: w("11XX"),
                },
                RuleChange::Remove { priority: 15 },
            ])
            .unwrap();
        assert_eq!(delta.total, RowOps { writes: 1, erases: 1 });
        // Removing a priority twice in one batch must fail.
        assert_eq!(
            compiler.compile(&[
                RuleChange::Remove { priority: 10 },
                RuleChange::Remove { priority: 10 },
            ]),
            Err(ServeError::UnknownRuleId { id: 10 })
        );
    }
}
