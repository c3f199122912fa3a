//! Epoch-snapshot publication: applying compiled deltas to a shadow rule
//! set and swapping the result into a live service.
//!
//! The [`Updater`] is the single writer of the serving stack. It owns one
//! **shadow** [`ShardedRuleSet`]: one packed table behind an `Arc`, the
//! one copy of the rules the writer keeps (a [`RuleStore`] only seeds
//! it, and a durable copy, where there is one, is the WAL layer's).
//!
//! [`Updater::apply`] stages one batch: it compiles the plan (by the same
//! batch walk [`RuleStore::validate`] is — the
//! `validate_and_compile_agree` property test), mutates the shadow one
//! row operation per change, checks that the realized writes and erases
//! equal the plan's, prices them with the rows the table moved (each
//! move one more row write), and bumps the **epoch**.
//!
//! [`Updater::publish`] then stores the shadow's own `Arc` into the
//! service's published cell
//! ([`publish`](tcam_serve::pool::ShardPool::publish)): publication is
//! **copy-on-write**. The shadow changes through
//! [`Arc::make_mut`](std::sync::Arc::make_mut), so the first change after
//! a publish, while the cell still holds that `Arc`, clones the table
//! once and leaves the published epoch as it was; later changes before
//! the next publish change that unpublished copy in place. Readers load the cell between batches only, so a search is
//! always served from exactly one epoch — and because every reply
//! reports that epoch, `tests/concurrent_churn.rs` verifies the
//! zero-torn-snapshot property against a history of references that
//! share no table with the ones published, while checkers and the
//! updater run concurrently.

use crate::delta::{CompiledDelta, DeltaCompiler, DeltaCost};
use crate::store::{RuleChange, RuleStore};
use tcam_arch::energy_model::OperationCosts;
use tcam_serve::error::Result;
use tcam_serve::service::TcamService;
use tcam_serve::shard::{RowOps, ShardedRuleSet};

/// One applied-but-possibly-unpublished update batch: the planned and
/// realized row work behind one epoch.
#[derive(Debug, Clone)]
pub struct StagedDelta {
    /// The epoch this batch produced (lookup replies report it).
    pub epoch: u64,
    /// The physical work plan the compiler produced.
    pub planned: CompiledDelta,
    /// Row operations the shadow actually performed: its writes and
    /// erases are checked equal to `planned.total`'s, and its moves are
    /// what the plan could not know.
    pub realized: RowOps,
    /// `realized` priced through the cost model, each move one more row
    /// write.
    pub realized_cost: DeltaCost,
}

/// The serving stack's single writer: the shadow rule set, published
/// copy-on-write and advanced one epoch per applied batch.
#[derive(Debug)]
pub struct Updater {
    shadow: ShardedRuleSet,
    epoch: u64,
    costs: OperationCosts,
}

impl Updater {
    /// Builds the shadow rule set from `store`'s rules (the store itself
    /// is dropped), starting at epoch 0. `shard_bits` is the argument the
    /// sharded updater took; 0 is the only value accepted.
    ///
    /// # Errors
    ///
    /// Rule-set construction errors ([`tcam_serve::ServeError::TooWide`],
    /// [`tcam_serve::ServeError::BadShardBits`] when `shard_bits` is not
    /// 0).
    pub fn new(store: RuleStore, shard_bits: u32, costs: OperationCosts) -> Result<Self> {
        Self::at_epoch(&store, shard_bits, costs, 0)
    }

    /// Like [`Self::new`], but resumes at `store.version()` as the boot
    /// epoch — the constructor recovery uses after a write-ahead-log
    /// replay, so published epochs continue exactly where the crashed
    /// process stopped instead of restarting from 0 (a restarted epoch
    /// counter would make pre-crash linearizability tags ambiguous).
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn resume(store: RuleStore, shard_bits: u32, costs: OperationCosts) -> Result<Self> {
        Self::at_epoch(&store, shard_bits, costs, store.version())
    }

    fn at_epoch(
        store: &RuleStore,
        shard_bits: u32,
        costs: OperationCosts,
        epoch: u64,
    ) -> Result<Self> {
        let mut shadow = ShardedRuleSet::empty(store.width(), shard_bits)?;
        for (priority, word) in store.iter() {
            shadow.insert(priority, word)?;
        }
        Ok(Self {
            shadow,
            epoch,
            costs,
        })
    }

    /// The shadow rule set at the current epoch.
    ///
    /// A clone of it shares the table with the published snapshot until
    /// the next `apply`, so it is no independent reference: a checker that
    /// holds epoch-tagged replies to account keeps its own copy (a table
    /// rebuilt from the applied rules, or a deep copy of this one).
    #[must_use]
    pub fn snapshot(&self) -> &ShardedRuleSet {
        &self.shadow
    }

    /// The current epoch (0 = the boot snapshot, +1 per applied batch).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts a service on the shadow's table (its `Arc` itself — no table
    /// is copied), booting at the current epoch: epoch 0 for a fresh
    /// updater, the recovered version for a [resumed](Self::resume) one.
    ///
    /// # Errors
    ///
    /// None today: the `Result` is what every caller already propagates.
    pub fn start_service(
        &self,
        config: &tcam_serve::service::ServiceConfig,
    ) -> Result<TcamService> {
        Ok(TcamService::start_at(
            self.shadow.width(),
            self.shadow.shared(),
            self.epoch,
            config,
        ))
    }

    /// Applies one update batch: compile (validates) → shadow → bump
    /// epoch. The first batch after a publish clones the table (the cell
    /// still holds the published one); a batch after an unpublished one
    /// changes the same unpublished copy.
    ///
    /// The plan counts one row operation per change and the shadow's
    /// mutations perform one each, so the realized writes and erases must
    /// equal the plan's; a mismatch means the shadow is not the rule set
    /// the batch was compiled against — a bug — so it panics rather than
    /// serving rules whose physical cost is misaccounted. The rows the
    /// table moved on top are priced into `realized_cost`.
    ///
    /// # Errors
    ///
    /// Validation errors from the compiler; the updater is unchanged when
    /// an error is returned.
    ///
    /// # Panics
    ///
    /// Panics when the realized writes or erases differ from the plan's.
    pub fn apply(&mut self, batch: &[RuleChange]) -> Result<StagedDelta> {
        let _obs = tcam_obs::span!("update_apply");
        let planned = DeltaCompiler::new(&self.shadow, self.costs).compile(batch)?;
        let mut realized = RowOps::default();
        for change in batch {
            // Infallible now: compile validated the batch, in order,
            // against the same staged view these mutations build.
            let ops = match change {
                RuleChange::Insert { priority, word } => self
                    .shadow
                    .insert(*priority, word)
                    .expect("validated insert"),
                RuleChange::Remove { priority } => {
                    self.shadow.remove(*priority).expect("validated remove")
                }
                RuleChange::Modify { priority, word } => self
                    .shadow
                    .replace(*priority, word)
                    .expect("validated modify"),
            };
            realized.add(ops);
        }
        assert_eq!(
            (realized.writes, realized.erases),
            (planned.total.writes, planned.total.erases),
            "shadow diverged from its plan"
        );
        self.epoch += 1;
        tcam_obs::flight_record("update_apply", self.epoch, batch.len() as u64);
        tcam_obs::counter_add("update_batches_applied", 1);
        #[allow(clippy::cast_precision_loss)]
        tcam_obs::gauge_set("update_epoch", self.epoch as f64);
        Ok(StagedDelta {
            epoch: self.epoch,
            planned,
            realized,
            realized_cost: DeltaCost::of(realized, &self.costs),
        })
    }

    /// Publishes the current epoch's snapshot into `service`'s cell — one
    /// store of the shadow's own `Arc` (a pointer, not a copy), never
    /// blocking. The next `apply` leaves this snapshot as it is: it
    /// clones the table before it changes a row.
    /// Publishing the same epoch twice is idempotent (the cell refuses
    /// it). Once this returns, every lookup submitted afterwards is served
    /// at this epoch or a later one.
    ///
    /// # Errors
    ///
    /// None today — a live `&TcamService` cannot have shut down. The
    /// `Result` is what every caller already propagates.
    pub fn publish(&self, service: &TcamService) -> Result<()> {
        let _obs = tcam_obs::span!("update_publish");
        service.publish(self.epoch, self.shadow.shared());
        tcam_obs::flight_record("update_publish", self.epoch, 1);
        tcam_obs::counter_add("update_epochs_published", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::prefix_word;
    use std::sync::Arc;
    use tcam_arch::packed::PackedTcamArray;
    use tcam_core::bit::{parse_ternary, TernaryBit};

    fn w(s: &str) -> Vec<TernaryBit> {
        parse_ternary(s).unwrap()
    }

    fn seeded_store() -> RuleStore {
        RuleStore::from_rules(&[(10, w("1100")), (20, w("0X11")), (30, w("XXXX"))]).unwrap()
    }

    fn seeded_updater() -> Updater {
        Updater::new(seeded_store(), 0, OperationCosts::paper_3t2n()).unwrap()
    }

    /// A reference rebuilt from `store`'s rules: a table that shares no
    /// allocation with the updater's.
    fn rebuilt(store: &RuleStore) -> ShardedRuleSet {
        ShardedRuleSet::from_prioritized(&store.rules_vec(), 0).unwrap()
    }

    #[test]
    fn apply_advances_epoch_and_matches_plan() {
        let mut updater = seeded_updater();
        assert_eq!(updater.epoch(), 0);
        let staged = updater
            .apply(&[
                RuleChange::Insert {
                    priority: 5,
                    word: w("110X"),
                },
                RuleChange::Remove { priority: 30 },
            ])
            .unwrap();
        assert_eq!(staged.epoch, 1);
        // Priority 5 goes in front of all three rules, moving each; the
        // remove leaves a hole.
        assert_eq!(
            staged.planned.total,
            RowOps {
                writes: 1,
                erases: 1,
                moves: 0
            }
        );
        assert_eq!(
            staged.realized,
            RowOps {
                writes: 1,
                erases: 1,
                moves: 3
            }
        );
        let costs = OperationCosts::paper_3t2n();
        assert_eq!(
            staged.planned.cost,
            DeltaCost::of(staged.planned.total, &costs)
        );
        assert!((staged.realized_cost.energy - 5.0 * costs.write_energy).abs() < 1e-24);
        assert!((staged.realized_cost.latency - 5.0 * costs.write_latency).abs() < 1e-18);
        // The shadow answers with the new rules.
        assert_eq!(updater.snapshot().search(&w("1101")).unwrap(), Some(5));
        assert_eq!(updater.snapshot().search(&w("0000")).unwrap(), None);
        // A failed batch changes nothing.
        assert!(updater
            .apply(&[RuleChange::Remove { priority: 99 }])
            .is_err());
        assert_eq!(updater.epoch(), 1);
        assert_eq!(updater.snapshot().rules(), 3);
    }

    /// The fact that lets `apply` validate a batch once, through `compile`,
    /// and lets a node log a batch its durable store validated and then
    /// apply it here with no second way to fail: on the same rules,
    /// `RuleStore::validate` and `DeltaCompiler::compile` accept the same
    /// batches and reject the rest with the same error.
    #[test]
    fn validate_and_compile_agree() {
        const WIDTH: usize = 6;
        let costs = OperationCosts::paper_3t2n();
        let mut rng = tcam_numeric::rng::SplitMix64::new(0xDE17A);
        let mut store = RuleStore::new(WIDTH);
        let mut updater = Updater::new(store.clone(), 0, costs).unwrap();
        let (mut accepted, mut errors) = (0u32, std::collections::HashMap::new());
        for trial in 0..4000 {
            // Ten priorities, up to five changes: repeats within a batch
            // (insert-then-remove, double removes, insert over a staged
            // insert) and unknown ids are the common case; one word in
            // twelve has the wrong width; one batch in six is empty.
            let batch: Vec<RuleChange> = (0..rng.below(6))
                .map(|_| {
                    let priority = rng.below(10) as u32;
                    let len = WIDTH - usize::from(rng.below(12) == 0);
                    let bits = [TernaryBit::Zero, TernaryBit::One, TernaryBit::X];
                    let word = (0..len).map(|_| bits[rng.below(3) as usize]).collect();
                    match rng.below(3) {
                        0 => RuleChange::Insert { priority, word },
                        1 => RuleChange::Remove { priority },
                        _ => RuleChange::Modify { priority, word },
                    }
                })
                .collect();
            let validated = store.validate(&batch);
            let compiled = DeltaCompiler::new(updater.snapshot(), costs).compile(&batch);
            assert_eq!(validated, compiled.map(|_| ()), "trial {trial}: {batch:?}");
            match validated {
                Ok(()) => {
                    // Both move to the same next state.
                    accepted += 1;
                    let version = store.apply(&batch).unwrap();
                    assert_eq!(updater.apply(&batch).unwrap().epoch, version);
                }
                Err(e) => *errors.entry(std::mem::discriminant(&e)).or_insert(0u32) += 1,
            }
        }
        // Empty batch, wrong width, duplicate id, unknown id — each often.
        assert!(accepted > 100 && errors.len() == 4 && errors.values().all(|&n| n > 100));
    }

    #[test]
    fn apply_records_update_phase_and_epoch_gauge() {
        tcam_obs::set_enabled(true);
        let mark = tcam_obs::phase_mark();
        let mut updater = seeded_updater();
        updater
            .apply(&[RuleChange::Insert {
                priority: 5,
                word: w("110X"),
            }])
            .unwrap();
        let phases = tcam_obs::phases_since(&mark);
        assert!(
            phases
                .iter()
                .any(|(n, s)| *n == "update_apply" && s.count == 1),
            "apply span recorded on this thread: {phases:?}"
        );
        let snap = tcam_obs::snapshot();
        assert_eq!(snap.gauge("update_epoch"), Some(1.0));
        assert!(snap.counter("update_batches_applied") >= 1);
    }

    #[test]
    fn resume_continues_epochs_from_the_store_version() {
        // Simulate a recovery: a store that has already applied batches.
        let mut recovered = seeded_store();
        recovered
            .apply(&[RuleChange::Insert {
                priority: 5,
                word: w("110X"),
            }])
            .unwrap();
        recovered
            .apply(&[RuleChange::Remove { priority: 5 }])
            .unwrap();
        let mut resumed = Updater::resume(recovered, 0, OperationCosts::paper_3t2n()).unwrap();
        assert_eq!(resumed.epoch(), 2, "epoch resumes at the WAL'd version");
        // The next applied batch continues the sequence.
        let staged = resumed
            .apply(&[RuleChange::Insert {
                priority: 6,
                word: w("0110"),
            }])
            .unwrap();
        assert_eq!(staged.epoch, 3);
        // And the shadow agrees with the pre-crash reference.
        assert_eq!(resumed.snapshot().search(&w("0110")).unwrap(), Some(6));
    }

    #[test]
    fn nonzero_shard_bits_are_refused() {
        let costs = OperationCosts::paper_3t2n();
        let bad = Some(tcam_serve::ServeError::BadShardBits { bits: 2, max: 0 });
        assert_eq!(Updater::new(seeded_store(), 2, costs).err(), bad);
        assert_eq!(Updater::resume(seeded_store(), 2, costs).err(), bad);
    }

    #[test]
    fn published_snapshots_are_id_ordered_after_churn() {
        let mut updater = seeded_updater();
        let mut mirror = seeded_store();
        // Removing priority 10 leaves a hole ahead of later rows, 40 is
        // announced behind them and 15 between them: every published
        // snapshot must still come out id-ordered, which is what lets the
        // serving kernel stop at the first matching row.
        let batch = [
            RuleChange::Remove { priority: 10 },
            RuleChange::Insert {
                priority: 40,
                word: w("11XX"),
            },
            RuleChange::Insert {
                priority: 15,
                word: w("X1XX"),
            },
        ];
        updater.apply(&batch).unwrap();
        mirror.apply(&batch).unwrap();
        // What `publish` would hand the cell.
        let table = updater.snapshot().shared();
        let ids: Vec<u32> = table.rows().map(|(id, _)| id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "published table not id-ordered: {ids:?}"
        );
        // Snapshot results agree with a reference rebuilt from the rules.
        let reference = rebuilt(&mirror);
        for key in ["1100", "1111", "0011", "0000"] {
            let key = w(key);
            let via_snapshot = table.first_match(&tcam_arch::packed::PackedWord::pack(&key));
            assert_eq!(via_snapshot, reference.search(&key).unwrap());
        }
    }

    /// Publication is copy-on-write: the first `apply` after a publish
    /// clones the table and leaves the published one as it was, and a
    /// second `apply` before the next publish changes that same clone.
    #[test]
    fn apply_after_publish_copies_the_table_once() {
        let mut updater = seeded_updater();
        let config = tcam_serve::service::ServiceConfig {
            refresh: tcam_arch::bank::BankRefresh::None,
            ..Default::default()
        };
        let service = updater.start_service(&config).unwrap();
        updater
            .apply(&[RuleChange::Insert {
                priority: 5,
                word: w("110X"),
            }])
            .unwrap();
        updater.publish(&service).unwrap();
        let published = updater.snapshot().shared();
        let rows: Vec<_> = published.rows().collect();

        updater
            .apply(&[
                RuleChange::Remove { priority: 5 },
                RuleChange::Modify {
                    priority: 10,
                    word: w("0000"),
                },
            ])
            .unwrap();
        assert_eq!(published.rows().collect::<Vec<_>>(), rows);
        assert!(!Arc::ptr_eq(&published, &updater.snapshot().shared()));
        // The cell still serves epoch 1's rules.
        assert_eq!(service.search_with_epoch(&w("1101")).unwrap(), (1, Some(5)));
        drop(published);

        let unpublished: *const PackedTcamArray = updater.snapshot().table();
        updater
            .apply(&[RuleChange::Insert {
                priority: 40,
                word: w("1111"),
            }])
            .unwrap();
        assert!(std::ptr::eq(updater.snapshot().table(), unpublished));
        assert_eq!(updater.snapshot().search(&w("1111")).unwrap(), Some(30));
        assert_eq!(updater.snapshot().search(&w("0000")).unwrap(), Some(10));
        updater.publish(&service).unwrap();
        assert_eq!(
            service.search_with_epoch(&w("0000")).unwrap(),
            (3, Some(10))
        );
        let _ = service.shutdown();
    }

    #[test]
    fn live_service_serves_each_published_epoch_consistently() {
        // The zero-torn integration check in miniature: apply + publish a
        // run of batches while searching, verifying every epoch-tagged
        // result against that epoch's recorded reference.
        let width = 8usize;
        let rules: Vec<(u32, Vec<TernaryBit>)> = (0..16u32)
            .map(|i| (i * 8, prefix_word(u64::from(i) * 16, 5, width)))
            .collect();
        let mut mirror = RuleStore::from_rules(&rules).unwrap();
        let mut updater = Updater::new(mirror.clone(), 0, OperationCosts::paper_3t2n()).unwrap();
        let config = tcam_serve::service::ServiceConfig {
            refresh: tcam_arch::bank::BankRefresh::None,
            ..Default::default()
        };
        let service = updater.start_service(&config).unwrap();
        // Each epoch's reference is rebuilt from the applied rules: a
        // clone of the shadow would share the published table and so
        // check it against itself.
        let mut history = vec![rebuilt(&mirror)]; // epoch 0

        let mut rng = tcam_numeric::rng::SplitMix64::new(7);
        for round in 0..20u32 {
            let priority = 128 + round; // fresh priorities, insert/remove churn
            let addr = rng.below(1 << width);
            let batch = [RuleChange::Insert {
                priority,
                word: prefix_word(addr, 6, width),
            }];
            updater.apply(&batch).unwrap();
            mirror.apply(&batch).unwrap();
            history.push(rebuilt(&mirror));
            updater.publish(&service).unwrap();
            for _ in 0..16 {
                let key: Vec<TernaryBit> = (0..width)
                    .map(|_| {
                        if rng.below(2) == 0 {
                            TernaryBit::Zero
                        } else {
                            TernaryBit::One
                        }
                    })
                    .collect();
                let (epoch, hit) = service.search_with_epoch(&key).unwrap();
                assert_eq!(epoch, u64::from(round) + 1, "publish returned first");
                let reference = &history[usize::try_from(epoch).unwrap()];
                assert_eq!(
                    hit,
                    reference.search(&key).unwrap(),
                    "round {round}: result inconsistent with its epoch {epoch}"
                );
            }
        }
        let report = service.shutdown();
        assert_eq!(report.stats.epoch, 20);
    }
}
