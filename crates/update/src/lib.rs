//! `tcam-update`: online rule updates for the TCAM serving stack —
//! versioned rule store, delta compiler, epoch-snapshot publication, and
//! a deterministic churn workload generator.
//!
//! The serving layer (`tcam-serve`) answers *how fast can a dynamic TCAM
//! look things up while refreshing*. This crate answers the companion
//! question every deployed match engine faces: **how do the rules change
//! while the engine is serving?** Routing tables churn continuously
//! (BGP announcements and withdrawals), ACLs get rewritten on policy
//! pushes — and a TCAM update is physical row work whose cost the
//! paper's numbers let us price exactly.
//!
//! The pieces, in pipeline order:
//!
//! * [`store::RuleStore`] — the versioned logical source of truth:
//!   priority → ternary word, mutated in **atomic batches** of
//!   [`store::RuleChange`]s, plus the CIDR-prefix encoder
//!   [`store::prefix_word`].
//! * [`delta::DeltaCompiler`] — compiles a batch into its **row
//!   writes/erases** (one per change, counted inside the batch walk
//!   [`RuleStore::validate`](store::RuleStore::validate) uses), priced
//!   through [`OperationCosts`](tcam_arch::energy_model::OperationCosts).
//! * [`publish::Updater`] — applies batches to a shadow
//!   [`ShardedRuleSet`](tcam_serve::shard::ShardedRuleSet), cross-checks
//!   realized row work against the compiled plan, prices the rows the
//!   table moved on top of it, and publishes the shadow's own table,
//!   copy-on-write, as **epoch-tagged immutable snapshots** into a live
//!   [`TcamService`](tcam_serve::service::TcamService) — whose lookups
//!   each load one snapshot before they match, so no search ever
//!   observes a torn table.
//! * [`churn`] — the deterministic BGP-like prefix churn generator
//!   [`churn::BgpChurn`], the fuel for the epoch-verified concurrency
//!   test (`tests/concurrent_churn.rs`).
//!
//! ```
//! use tcam_arch::energy_model::OperationCosts;
//! use tcam_update::churn::BgpChurn;
//! use tcam_update::publish::Updater;
//! use tcam_update::store::RuleStore;
//!
//! let mut churn = BgpChurn::new(16, 64, 42);
//! let store = RuleStore::from_rules(&churn.initial()).unwrap();
//! let mut updater = Updater::new(store, 0, OperationCosts::paper_3t2n()).unwrap();
//! let staged = updater.apply(&churn.next_batch(8)).unwrap();
//! assert_eq!(staged.epoch, 1);
//! assert_eq!(staged.realized.writes + staged.realized.erases, 8);
//! assert!(staged.planned.cost.energy > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod churn;
pub mod delta;
pub mod publish;
pub mod store;

pub use churn::BgpChurn;
pub use delta::{CompiledDelta, DeltaCompiler, DeltaCost};
pub use publish::{StagedDelta, Updater};
pub use store::{prefix_word, RuleChange, RuleStore};

// The update layer speaks the serving layer's error vocabulary: every
// validation failure maps onto an existing `ServeError` variant.
pub use tcam_serve::error::{Result, ServeError};
