//! The node: one process serving many tenant namespaces, each backed by
//! its own table, all sharing one durable store.
//!
//! A [`TcamNode`] owns
//!
//! * the [`DurableStore`] — WAL + snapshots, one
//!   [`RuleStore`](tcam_update::store::RuleStore) per namespace (the
//!   logical source of truth that survives restarts) — and, under the
//!   same mutex, the count of batches since its last snapshot, and
//! * one [`NamespaceGroup`] per provisioned namespace — a live
//!   [`TcamService`] (its refresh clock and published cell) plus the
//!   single-writer [`Updater`] whose one packed table the cell holds,
//!   copy-on-write, as the published epoch snapshot.
//!
//! A namespace therefore holds its rules twice: in its `RuleStore` and in
//! that one table.
//!
//! Namespaces are the multi-tenancy boundary: each maps to its own table,
//! so one tenant's rule churn or traffic burst contends with another's
//! only for CPU, never for tables or refresh schedules.
//!
//! **Write path** (admin plane): [`TcamNode::apply`] holds the store lock
//! across *durable apply → updater apply → publish*, so the WAL, the
//! in-memory store, and the published epoch move in lockstep — the
//! epoch a lookup reply carries always equals a WAL-durable version.
//!
//! **Read path** (wire plane): [`TcamNode::lookup`] and the wire server
//! share one path, [`NamespaceGroup::submit_traced`]: the calling thread
//! checks the keys against the namespace's width and matches them itself
//! against the published snapshot
//! ([`answer_here`](tcam_serve::pool::ShardPool::answer_here), the pool's
//! one match path) — no hand-off. The response epoch is the snapshot's, which is at or
//! after the last epoch whose [`TcamNode::apply`] had returned at
//! submission.
//!
//! **Recovery**: [`TcamNode::open`] replays the store (snapshot + WAL),
//! then rebuilds every namespace's group with [`Updater::resume`], whose
//! [`start_service`](Updater::start_service) publishes the table at the
//! recovered version, so the first reply after a restart already carries
//! the exact pre-crash epoch.

use crate::error::{NetError, Result};
use crate::wal::DurableStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use tcam_arch::packed::PackedWord;
use tcam_obs::RequestTrace;
use tcam_serve::error::ServeError;
use tcam_serve::service::{ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::telemetry::ServeReport;
use tcam_update::publish::Updater;
use tcam_update::store::RuleChange;

/// Node-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Per-namespace service configuration (the refresh schedule; its
    /// `costs` also price the updater's row work).
    pub service: ServiceConfig,
    /// Write a snapshot and compact the WAL every this many applied
    /// batches (node-wide); `0` disables automatic snapshots (explicit
    /// [`TcamNode::snapshot`] still works).
    pub snapshot_every_batches: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            snapshot_every_batches: 1024,
        }
    }
}

/// One namespace's serving stack: a live service and its single writer.
pub struct NamespaceGroup {
    /// The table (and its refresh clock) answering this namespace's
    /// lookups.
    service: TcamService,
    /// The namespace's single writer (guards the shadow + epoch).
    updater: Mutex<Updater>,
}

impl NamespaceGroup {
    /// Builds the group from a recovered (or just-written) rule store,
    /// publishing the table at the store's version so even the very first
    /// reply after a restart carries the exact pre-crash epoch.
    fn start(store: tcam_update::store::RuleStore, config: &NodeConfig) -> Result<Self> {
        let updater = Updater::resume(store, 0, config.service.costs)?;
        let service = updater.start_service(&config.service)?;
        Ok(Self {
            service,
            updater: Mutex::new(updater),
        })
    }

    /// The namespace's live service.
    #[must_use]
    pub fn service(&self) -> &TcamService {
        &self.service
    }

    /// The namespace's current epoch (== its durable store version).
    ///
    /// # Panics
    ///
    /// Panics if the updater mutex is poisoned (a writer panicked).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.updater.lock().expect("updater lock").epoch()
    }

    /// One lookup of packed keys, matched right here, on the calling
    /// thread ([`ShardPool::answer_here`]): returns `(epoch, results)`,
    /// results in key order. A sampled request passes its hop collector
    /// as `trace`, and the match records a `serve_match` hop into it.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] when a key cares about a column at or
    /// past the namespace's width (`found` is the key's cared width): a
    /// packed key carries no width, and the kernel ignores columns past
    /// the table's, so such a key would otherwise be answered from its
    /// leading columns alone. Don't-cares past the width are not cares
    /// and pass.
    ///
    /// [`ShardPool::answer_here`]: tcam_serve::pool::ShardPool::answer_here
    pub fn submit_traced(
        &self,
        keys: &[PackedWord],
        trace: Option<&RequestTrace>,
    ) -> Result<(u64, Vec<Option<u32>>)> {
        let width = self.service.width();
        if let Some(found) = keys.iter().map(cared_width).find(|&w| w > width) {
            return Err(ServeError::WidthMismatch {
                expected: width,
                found,
            }
            .into());
        }
        let reply = self.service.answer_here(keys, trace);
        Ok((reply.epoch, reply.results))
    }

    /// [`Self::submit_traced`], untraced.
    ///
    /// # Errors
    ///
    /// As [`Self::submit_traced`].
    pub fn lookup(&self, keys: &[PackedWord]) -> Result<(u64, Vec<Option<u32>>)> {
        self.submit_traced(keys, None)
    }
}

/// One past the last column `key` cares about (0 for an all-`X` key).
/// Column `j` is bit `63 - j % 64` of limb `j / 64`.
fn cared_width(key: &PackedWord) -> usize {
    match key.mask {
        [_, high] if high != 0 => 128 - high.trailing_zeros() as usize,
        [low, _] if low != 0 => 64 - low.trailing_zeros() as usize,
        _ => 0,
    }
}

/// The durable store and its auto-compaction counter, under one mutex.
struct Durable {
    store: DurableStore,
    /// Batches applied since the last snapshot.
    batches_since_snapshot: u64,
}

/// The multi-tenant, durable, network-servable TCAM node.
pub struct TcamNode {
    durable: Mutex<Durable>,
    groups: RwLock<BTreeMap<u16, Arc<NamespaceGroup>>>,
    config: NodeConfig,
}

impl TcamNode {
    /// Opens (or creates) the node's durable store in `dir`, recovering
    /// every namespace to its exact pre-crash version and starting a
    /// serving group for each.
    ///
    /// # Errors
    ///
    /// Recovery errors from [`DurableStore::open`], or rule-set
    /// construction errors.
    pub fn open(dir: &Path, config: NodeConfig) -> Result<Self> {
        let store = DurableStore::open(dir)?;
        let mut groups = BTreeMap::new();
        for ns in store.namespaces() {
            let rules = store.store(ns).expect("listed namespace").clone();
            groups.insert(ns, Arc::new(NamespaceGroup::start(rules, &config)?));
        }
        #[allow(clippy::cast_precision_loss)]
        tcam_obs::gauge_set("node_namespaces", groups.len() as f64);
        Ok(Self {
            durable: Mutex::new(Durable {
                store,
                batches_since_snapshot: 0,
            }),
            groups: RwLock::new(groups),
            config,
        })
    }

    /// The node configuration.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The provisioned namespaces, ascending.
    ///
    /// # Panics
    ///
    /// Panics if the group map lock is poisoned.
    #[must_use]
    pub fn namespaces(&self) -> Vec<u16> {
        self.groups
            .read()
            .expect("groups lock")
            .keys()
            .copied()
            .collect()
    }

    /// The serving group for `namespace`, if provisioned.
    ///
    /// # Panics
    ///
    /// Panics if the group map lock is poisoned.
    #[must_use]
    pub fn group(&self, namespace: u16) -> Option<Arc<NamespaceGroup>> {
        self.groups
            .read()
            .expect("groups lock")
            .get(&namespace)
            .cloned()
    }

    /// Per-namespace `(namespace, width, version, rules)` summary for the
    /// admin plane.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    #[must_use]
    pub fn namespace_summaries(&self) -> Vec<(u16, usize, u64, usize)> {
        let durable = self.durable.lock().expect("store lock");
        let store = &durable.store;
        store
            .namespaces()
            .into_iter()
            .map(|ns| {
                let s = store.store(ns).expect("listed namespace");
                (ns, s.width(), s.version(), s.len())
            })
            .collect()
    }

    /// Applies one rule batch to `namespace` **durably and visibly**:
    /// WAL append + fsync, in-memory store apply, updater apply, epoch
    /// publication to the namespace's table — all under the store lock,
    /// so versions and epochs stay in lockstep. A new namespace is
    /// provisioned (with word width `width`) by its first *applied* batch;
    /// a rejected one provisions nothing.
    ///
    /// Returns the namespace's new version — the epoch every lookup
    /// submitted after this call returns is served at (or a later one).
    ///
    /// # Errors
    ///
    /// Validation, I/O, or rule-set construction errors; on any error the
    /// store, WAL, and live tables are all unchanged (the durable store
    /// validates before it logs, and the updater's one validation accepts
    /// exactly what that one does — `tcam-update`'s
    /// `validate_and_compile_agree`).
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned, or if the durable store and the
    /// updater disagree on the resulting version (a lockstep bug).
    pub fn apply(&self, namespace: u16, width: usize, batch: &[RuleChange]) -> Result<u64> {
        let mut durable = self.durable.lock().expect("store lock");
        let existing = self.group(namespace);
        if existing.is_none() {
            // A new namespace must be servable BEFORE its first batch
            // becomes durable: the rule store accepts any width, but the
            // packed table caps it, and a WAL record the group
            // construction rejects would fail every later `open`.
            ShardedRuleSet::empty(width, 0)?;
        }
        let version = durable.store.apply(namespace, width, batch)?;
        if let Some(group) = existing {
            let mut updater = group.updater.lock().expect("updater lock");
            let staged = updater.apply(batch)?;
            assert_eq!(
                staged.epoch, version,
                "durable store and updater fell out of lockstep"
            );
            updater.publish(&group.service)?;
        } else {
            // First batch of a new namespace: build its group from the
            // just-applied store state (epoch resumes at `version`).
            let rules = durable
                .store
                .store(namespace)
                .expect("just applied")
                .clone();
            let group = Arc::new(NamespaceGroup::start(rules, &self.config)?);
            let mut groups = self.groups.write().expect("groups lock");
            groups.insert(namespace, group);
            #[allow(clippy::cast_precision_loss)]
            tcam_obs::gauge_set("node_namespaces", groups.len() as f64);
        }
        tcam_obs::counter_add("node_batches_applied", 1);
        durable.batches_since_snapshot += 1;
        let every = self.config.snapshot_every_batches;
        if every > 0 && durable.batches_since_snapshot >= every {
            durable.store.snapshot()?;
            durable.batches_since_snapshot = 0;
        }
        Ok(version)
    }

    /// One wire lookup batch against `namespace` (see
    /// [`NamespaceGroup::lookup`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Status`] with
    /// [`UnknownNamespace`](crate::wire::Status::UnknownNamespace) for an
    /// unprovisioned namespace; otherwise as [`NamespaceGroup::lookup`].
    pub fn lookup(&self, namespace: u16, keys: &[PackedWord]) -> Result<(u64, Vec<Option<u32>>)> {
        let group = self
            .group(namespace)
            .ok_or(NetError::Status(crate::wire::Status::UnknownNamespace))?;
        group.lookup(keys)
    }

    /// Arms WAL fault injection: the next `n` applied batches fail
    /// mid-append and roll back, each leaving a flight-recorder dump (see
    /// [`DurableStore::chaos_fail_appends`]). Testing/benchmark hook.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    pub fn chaos_fail_appends(&self, n: u32) {
        self.durable
            .lock()
            .expect("store lock")
            .store
            .chaos_fail_appends(n);
    }

    /// Forces a snapshot + WAL compaction now.
    ///
    /// # Errors
    ///
    /// I/O errors from the snapshot write.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    pub fn snapshot(&self) -> Result<()> {
        let mut durable = self.durable.lock().expect("store lock");
        durable.store.snapshot()?;
        durable.batches_since_snapshot = 0;
        Ok(())
    }

    /// Current WAL size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the store lock is poisoned.
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.durable.lock().expect("store lock").store.wal_bytes()
    }

    /// Shuts every namespace group down and returns per-namespace serving
    /// reports. Idempotent: a second call returns an empty list. A group
    /// still referenced elsewhere (e.g. a connection handler mid-batch)
    /// reports `None` — its service closes when the last reference drops.
    ///
    /// # Panics
    ///
    /// Panics if the group map lock is poisoned.
    pub fn shutdown(&self) -> Vec<(u16, Option<ServeReport>)> {
        let groups = std::mem::take(&mut *self.groups.write().expect("groups lock"));
        groups
            .into_iter()
            .map(|(ns, group)| match Arc::try_unwrap(group) {
                Ok(g) => (ns, Some(g.service.shutdown())),
                Err(_still_shared) => (ns, None),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_arch::bank::BankRefresh;
    use tcam_core::bit::{parse_ternary, TernaryBit};

    fn w(s: &str) -> Vec<TernaryBit> {
        parse_ternary(s).unwrap()
    }

    fn key(s: &str) -> PackedWord {
        PackedWord::pack(&w(s))
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcam-node-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quiet_config() -> NodeConfig {
        NodeConfig {
            service: ServiceConfig {
                refresh: BankRefresh::None,
                ..ServiceConfig::default()
            },
            snapshot_every_batches: 0,
        }
    }

    #[test]
    fn apply_then_lookup_reports_the_durable_version_as_epoch() {
        let dir = tmpdir("epoch");
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        node.apply(
            0,
            4,
            &[
                RuleChange::Insert {
                    priority: 1,
                    word: w("10XX"),
                },
                RuleChange::Insert {
                    priority: 2,
                    word: w("XXXX"),
                },
            ],
        )
        .unwrap();
        // `apply` returned version 1, so the very next lookup is served
        // at epoch 1 — and so is the first one after a later batch.
        let (epoch, results) = node.lookup(0, &[key("1011"), key("0100")]).unwrap();
        assert_eq!((epoch, results), (1, vec![Some(1), Some(2)]));
        node.apply(0, 4, &[RuleChange::Remove { priority: 1 }])
            .unwrap();
        let (epoch, results) = node.lookup(0, &[key("1011"), key("0100")]).unwrap();
        assert_eq!((epoch, results), (2, vec![Some(2), Some(2)]));
        // Unknown namespace is an explicit status, not a panic.
        assert!(matches!(
            node.lookup(9, &[key("0000")]),
            Err(NetError::Status(crate::wire::Status::UnknownNamespace))
        ));
        node.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_resumes_exact_epochs_per_namespace() {
        let dir = tmpdir("restart");
        {
            let node = TcamNode::open(&dir, quiet_config()).unwrap();
            for p in 0..3u32 {
                node.apply(
                    0,
                    4,
                    &[RuleChange::Insert {
                        priority: p,
                        word: w("1XX0"),
                    }],
                )
                .unwrap();
            }
            node.apply(
                5,
                8,
                &[RuleChange::Insert {
                    priority: 9,
                    word: w("1010XXXX"),
                }],
            )
            .unwrap();
            node.shutdown();
        }
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        assert_eq!(node.namespaces(), vec![0, 5]);
        // Replies carry the pre-crash epoch from the very first lookup:
        // recovery republished before serving.
        let (epoch, results) = node.lookup(0, &[key("1010")]).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(results, vec![Some(0)]);
        let (epoch, results) = node.lookup(5, &[key("10101111")]).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(results, vec![Some(9)]);
        // And the next batch continues the sequence.
        assert_eq!(
            node.apply(0, 4, &[RuleChange::Remove { priority: 2 }])
                .unwrap(),
            4
        );
        node.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cared_width_is_one_past_the_last_cared_column() {
        let packed = |bits: &str| PackedWord::pack(&w(bits));
        assert_eq!(cared_width(&packed("XXXX")), 0);
        assert_eq!(cared_width(&packed("1XXX")), 1);
        assert_eq!(cared_width(&packed("X0X1XX")), 4);
        let mut wide = vec![TernaryBit::X; 128];
        for (col, want) in [(63, 64), (64, 65), (127, 128)] {
            wide[col] = TernaryBit::Zero;
            assert_eq!(cared_width(&PackedWord::pack(&wide)), want);
        }
    }

    #[test]
    fn auto_snapshot_compacts_the_wal() {
        let dir = tmpdir("autosnap");
        let mut config = quiet_config();
        config.snapshot_every_batches = 4;
        let node = TcamNode::open(&dir, config).unwrap();
        for p in 0..4u32 {
            node.apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority: p,
                    word: w("10XX"),
                }],
            )
            .unwrap();
        }
        assert_eq!(node.wal_bytes(), 0, "4th batch triggered compaction");
        node.apply(0, 4, &[RuleChange::Remove { priority: 0 }])
            .unwrap();
        assert!(node.wal_bytes() > 0);
        node.shutdown();
        // Recovery = snapshot + the one post-compaction record.
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        let (epoch, results) = node.lookup(0, &[key("1000")]).unwrap();
        assert_eq!(epoch, 5);
        assert_eq!(results, vec![Some(1)]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An explicit snapshot restarts the count of batches towards the next
    /// automatic one.
    #[test]
    fn explicit_snapshot_restarts_the_auto_snapshot_count() {
        let dir = tmpdir("snapcount");
        let mut config = quiet_config();
        config.snapshot_every_batches = 2;
        let node = TcamNode::open(&dir, config).unwrap();
        let insert = |priority| {
            node.apply(
                0,
                4,
                &[RuleChange::Insert {
                    priority,
                    word: w("10XX"),
                }],
            )
            .unwrap()
        };
        insert(0);
        assert!(node.wal_bytes() > 0);
        node.snapshot().unwrap();
        assert_eq!(node.wal_bytes(), 0);
        insert(1);
        assert!(node.wal_bytes() > 0, "one batch since the snapshot");
        insert(2);
        assert_eq!(node.wal_bytes(), 0, "second batch since the snapshot");
        node.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unservable_namespace_is_rejected_before_it_becomes_durable() {
        let dir = tmpdir("unservable");
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        // 200-bit words fit the rule store and the WAL's u16 width field,
        // but not the packed serving path — the batch must be rejected
        // with the WAL untouched, not logged and then fail group start.
        let wide = vec![TernaryBit::X; 200];
        assert!(matches!(
            node.apply(
                3,
                200,
                &[RuleChange::Insert {
                    priority: 1,
                    word: wide,
                }],
            ),
            Err(NetError::Serve(ServeError::TooWide { .. }))
        ));
        assert_eq!(node.wal_bytes(), 0, "rejected batch left a WAL record");
        assert!(node.namespaces().is_empty());
        // A valid namespace still works, and — critically — the node can
        // restart (a durable unservable record would fail every open).
        node.apply(
            0,
            4,
            &[RuleChange::Insert {
                priority: 1,
                word: w("10XX"),
            }],
        )
        .unwrap();
        node.shutdown();
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        assert_eq!(node.namespaces(), vec![0]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_first_batch_provisions_nothing() {
        let dir = tmpdir("phantom");
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        // Removing from a namespace that does not exist yet is refused —
        // and must not leave a 4-bit ns 7 behind to refuse the real
        // first batch or to come back from a snapshot.
        let refused = node.apply(7, 4, &[RuleChange::Remove { priority: 1 }]);
        assert!(matches!(
            refused,
            Err(NetError::Serve(ServeError::UnknownRuleId { id: 1 }))
        ));
        assert!(node.namespace_summaries().is_empty());
        node.apply(
            7,
            8,
            &[RuleChange::Insert {
                priority: 1,
                word: w("1010XXXX"),
            }],
        )
        .unwrap();
        node.snapshot().unwrap();
        node.shutdown();
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        assert_eq!(node.namespace_summaries(), vec![(7, 8, 1, 1)]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let dir = tmpdir("shutdown");
        let node = TcamNode::open(&dir, quiet_config()).unwrap();
        node.apply(
            0,
            4,
            &[RuleChange::Insert {
                priority: 1,
                word: w("10XX"),
            }],
        )
        .unwrap();
        let reports = node.shutdown();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].1.is_some());
        assert!(node.shutdown().is_empty(), "second shutdown is a no-op");
        // Lookups after shutdown are UnknownNamespace (groups are gone).
        assert!(node.lookup(0, &[key("1000")]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
