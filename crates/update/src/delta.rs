//! The delta compiler: logical rule changes → physical row operations,
//! priced through the paper's cost model.
//!
//! A TCAM update is priced in rows, and every rule is one row of the
//! namespace's table, so the compiler plans that work *before* anything
//! mutates:
//!
//! * an **insert** writes one row;
//! * a **remove** erases one row;
//! * a **modify** rewrites one row in place.
//!
//! The plan is counted inside the batch walk
//! [`RuleStore::validate`](crate::store::RuleStore::validate) uses, by the
//! same [`RowOps`] constants the rule set's mutations return. It is priced
//! through [`OperationCosts`] — a NEM-relay row erase is physically a row
//! write (the care mask is overwritten), so erases cost
//! `write_latency`/`write_energy` too.
//!
//! The plan cannot know placement: an insert may also move rows to bring
//! a hole of the table to its place, and a remove may compact the table
//! (see [`tcam_arch::packed`]). The rule set's mutations count those
//! moves, and [`Updater`](crate::publish::Updater) prices each as one
//! more row write in the realized cost ([`DeltaCost::of`]).

use crate::store::{stage, RuleChange};
use tcam_arch::energy_model::OperationCosts;
use tcam_serve::error::Result;
use tcam_serve::shard::{RowOps, ShardedRuleSet};

/// Time and energy one compiled delta costs the array, assuming the
/// serial row-update port the paper's 3T2N design has (writes do not
/// overlap searches, and the table has one write port).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaCost {
    /// Wall time to apply every row op serially, seconds.
    pub latency: f64,
    /// Total row-op energy, joules.
    pub energy: f64,
}

impl DeltaCost {
    /// What `ops` cost through `costs`: each write, erase and move is one
    /// row write.
    #[must_use]
    pub fn of(ops: RowOps, costs: &OperationCosts) -> Self {
        let rows = (ops.writes + ops.erases + ops.moves) as f64;
        Self {
            latency: rows * costs.write_latency,
            energy: rows * costs.write_energy,
        }
    }
}

/// A compiled update batch: the physical work plan for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDelta {
    /// Row writes/erases of the whole batch (no moves: placement is the
    /// table's).
    pub total: RowOps,
    /// The plan priced through the cost model.
    pub cost: DeltaCost,
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

    /// Compiles `batch` into row operations. Changes are staged in order
    /// (a batch may insert a priority and then modify it) by the same walk
    /// [`RuleStore::validate`](crate::store::RuleStore::validate) is — a
    /// batch this function accepts will apply cleanly.
    ///
    /// # Errors
    ///
    /// As [`RuleStore::validate`](crate::store::RuleStore::validate).
    pub fn compile(&self, batch: &[RuleChange]) -> Result<CompiledDelta> {
        let mut total = RowOps::default();
        let present = |p| self.rules.contains(p);
        stage(batch, self.rules.width(), present, |after| {
            total.add(if after { RowOps::WRITE } else { RowOps::ERASE });
        })?;
        let cost = DeltaCost::of(total, &self.costs);
        Ok(CompiledDelta { total, cost })
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
        ShardedRuleSet::from_prioritized(&[(10, w("1100")), (20, w("0X11")), (30, w("XXXX"))], 0)
            .unwrap()
    }

    #[test]
    fn insert_writes_a_row_and_remove_erases_one() {
        let rules = base();
        let compiler = DeltaCompiler::new(&rules, OperationCosts::paper_3t2n());
        let delta = compiler
            .compile(&[
                RuleChange::Insert {
                    priority: 15,
                    word: w("X011"),
                },
                RuleChange::Remove { priority: 30 },
            ])
            .unwrap();
        assert_eq!(
            delta.total,
            RowOps {
                writes: 1,
                erases: 1,
                moves: 0
            }
        );
        let costs = OperationCosts::paper_3t2n();
        assert!((delta.cost.latency - 2.0 * costs.write_latency).abs() < 1e-18);
        assert!((delta.cost.energy - 2.0 * costs.write_energy).abs() < 1e-24);
    }

    #[test]
    fn modify_rewrites_one_row() {
        let rules = base();
        let compiler = DeltaCompiler::new(&rules, OperationCosts::paper_3t2n());
        let delta = compiler
            .compile(&[RuleChange::Modify {
                priority: 20,
                word: w("X111"),
            }])
            .unwrap();
        assert_eq!(delta.total, RowOps::WRITE);
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
        assert_eq!(
            delta.total,
            RowOps {
                writes: 1,
                erases: 1,
                moves: 0
            }
        );
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
