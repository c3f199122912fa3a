//! The exact-match lookup service: the shard-worker pool of
//! [`crate::pool`] plus the **route-to-one** plan.
//!
//! A fully-specified key belongs to exactly one shard — the one its top
//! `shard_bits` select ([`ShardRouter`]) — so a lookup is: pack, route,
//! submit one [`SearchBatch`] to that shard's queue, and wait for the
//! worker's [`BatchReply`]. Everything else (queues and admission,
//! `workers_per_shard`, the refresh clock, epoch-snapshot publication,
//! telemetry, shutdown) is the pool's and is documented there. The shard
//! kernel is the bit-sliced match-line kernel
//! ([`PackedTcamArray::first_match_batch_into`]), which resolves 64 rows
//! per AND.

use crate::error::{Result, ServeError};
use crate::pool::ShardPool;
use crate::shard::{ShardRouter, ShardedRuleSet};
use crate::telemetry::ServeReport;
use std::sync::Arc;
use std::time::Instant;
use tcam_arch::packed::{PackedTcamArray, PackedWord};

pub use crate::pool::{BatchReply, SearchBatch, ServiceConfig};

/// The running service: a [`ShardPool`] of packed ternary tables — whose
/// `submit`, `try_submit`, `answer_here`, `publish` and `shards` it derefs
/// to — and the router that says which shard a key belongs to. It holds
/// no rule set: the tables live in the pool's published cells, so after
/// the first publication nothing here can answer from a stale one.
pub struct TcamService {
    pool: ShardPool,
    router: ShardRouter,
}

impl std::ops::Deref for TcamService {
    type Target = ShardPool;

    fn deref(&self) -> &Self::Target {
        &self.pool
    }
}

impl TcamService {
    /// Starts serving `rules` at epoch 0, moving its shard tables into the
    /// pool (no row is copied).
    ///
    /// # Errors
    ///
    /// None today: the `Result` is what every caller already propagates.
    pub fn start(rules: ShardedRuleSet, config: &ServiceConfig) -> Result<Self> {
        let (router, shards) = rules.into_shards();
        let tables = shards.into_iter().map(Arc::new).collect();
        Ok(Self::start_at(router, tables, 0, config))
    }

    /// Starts serving `tables` (one per shard `router` addresses), every
    /// worker booting at `epoch` — how a writer that already holds the
    /// snapshots starts its service, and how a recovered node makes its
    /// very first reply carry the exact pre-crash epoch.
    ///
    /// # Panics
    ///
    /// Panics when `tables` has fewer or more entries than `router` has
    /// shards.
    #[must_use]
    pub fn start_at(
        router: ShardRouter,
        tables: Vec<Arc<PackedTcamArray>>,
        epoch: u64,
        config: &ServiceConfig,
    ) -> Self {
        assert_eq!(tables.len(), router.shards(), "one table per routed shard");
        Self {
            pool: ShardPool::start(tables, epoch, config),
            router,
        }
    }

    /// The router for this service's keys (word width, selector bits).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// One closed-loop lookup: routes `key`, waits for the worker's reply,
    /// returns the winning rule's global id.
    ///
    /// # Errors
    ///
    /// Routing errors, or [`ServeError::ServiceClosed`].
    pub fn search_blocking(&self, key: &[tcam_core::bit::TernaryBit]) -> Result<Option<u32>> {
        Ok(self.search_with_epoch(key)?.1)
    }

    /// One closed-loop lookup that also reports the epoch of the table
    /// snapshot that served it — the hook the epoch-verified churn tests
    /// use to check that every result is consistent with exactly one
    /// published epoch.
    ///
    /// # Errors
    ///
    /// Routing errors, or [`ServeError::ServiceClosed`].
    pub fn search_with_epoch(
        &self,
        key: &[tcam_core::bit::TernaryBit],
    ) -> Result<(u64, Option<u32>)> {
        if key.len() != self.router.width() {
            return Err(ServeError::WidthMismatch {
                expected: self.router.width(),
                found: key.len(),
            });
        }
        // Pack once; routing reads the selector off the packed limbs.
        let packed = PackedWord::pack(key);
        let shard = self.router.route_packed(&packed)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit(
            shard,
            SearchBatch {
                keys: vec![packed],
                submitted: Instant::now(),
                reply: Some(tx),
                trace: None,
            },
        )?;
        let mut reply = rx.recv().map_err(|_| ServeError::ServiceClosed)?;
        Ok((reply.epoch, reply.results.pop().flatten()))
    }

    /// [`ShardPool::shutdown`]: drains the queues, joins every worker and
    /// returns the merged telemetry. Dropping the service instead does the
    /// same and discards the report.
    #[must_use]
    pub fn shutdown(self) -> ServeReport {
        self.pool.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::time::Duration;
    use tcam_arch::bank::BankRefresh;

    fn tiny_service(refresh: BankRefresh) -> (Workload, TcamService) {
        let w = Workload::router_lpm(64, 128, 21);
        let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
        let config = ServiceConfig {
            refresh,
            refresh_interval: Duration::from_millis(1),
            ..ServiceConfig::default()
        };
        let service = TcamService::start(rules, &config).unwrap();
        (w, service)
    }

    #[test]
    fn closed_loop_results_match_reference_path() {
        let (w, service) = tiny_service(BankRefresh::None);
        let reference = ShardedRuleSet::build(&w.words, 2).unwrap();
        for key in w.keys.iter().take(64) {
            assert_eq!(
                service.search_blocking(key).unwrap(),
                reference.search(key).unwrap()
            );
        }
        let report = service.shutdown();
        assert_eq!(report.searches(), 64);
        assert_eq!(report.meter.searches, 64);
        assert_eq!(report.refresh_events(), 0);
        assert!(report.latency.count() == 64);
        assert!(report.latency.quantile(50.0) > 0);
    }

    #[test]
    fn refresh_events_fire_while_serving() {
        let (w, service) = tiny_service(BankRefresh::OneShot { op_time: 10e-9 });
        let deadline = Instant::now() + Duration::from_millis(30);
        let mut i = 0;
        while Instant::now() < deadline {
            let _ = service.search_blocking(&w.keys[i % w.keys.len()]).unwrap();
            i += 1;
        }
        let report = service.shutdown();
        assert!(report.refresh_events() > 0, "no refresh events in 30 ms");
        assert_eq!(report.refresh_ops(), report.refresh_events()); // one-shot
        assert!(report.meter.refreshes == report.refresh_ops());
        assert!(report.refresh_stall() > Duration::ZERO);
        assert!(report.meter.energy > 0.0);
    }

    #[test]
    fn row_by_row_runs_rows_ops_per_event() {
        let (_, service) = tiny_service(BankRefresh::RowByRow { op_time: 10e-9 });
        std::thread::sleep(Duration::from_millis(10));
        let report = service.shutdown();
        assert!(report.refresh_events() > 0);
        let per_shard_rows: u64 = report.shards.iter().map(|s| s.rows as u64).sum();
        assert!(per_shard_rows > 0);
        for s in &report.shards {
            if s.refresh_events > 0 {
                assert_eq!(s.refresh_ops, s.refresh_events * s.rows as u64);
            }
        }
    }

    #[test]
    fn published_snapshots_swap_atomically_with_epoch() {
        let (w, service) = tiny_service(BankRefresh::None);
        // Epoch 0 serves the original rules.
        let (epoch, _) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 0);

        // Publish an empty replacement table to every shard: the cell is
        // loaded after the dequeue, so the very next lookup is served from
        // it — nothing matches and the reply reports epoch 1.
        let width = w.words[0].len();
        for shard in 0..service.shards() {
            assert!(service.publish(shard, 1, Arc::new(PackedTcamArray::new(width))));
        }
        let (epoch, hit) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 1, "a lookup submitted after publish returned");
        assert_eq!(hit, None, "epoch 1 table is empty but key matched");

        // An epoch published right before shutdown is not lost: every
        // worker loads its cell once more on the way out.
        for shard in 0..service.shards() {
            assert!(service.publish(shard, 2, Arc::new(PackedTcamArray::new(width))));
        }
        let report = service.shutdown();
        assert_eq!(report.last_epoch(), 2);
        for s in &report.shards {
            // 0 -> 1 -> 2 where the lookup (or an idle poll) came between
            // the two publications, 0 -> 2 in one jump where nothing did,
            // no swap at all for a thread that first ran after them.
            assert!(s.epoch == 2 && s.updates_applied <= 2, "{s:?}");
        }
        assert_eq!(report.update_latency.count(), report.updates_applied());
    }

    /// Batches submitted without waiting are not lost at shutdown: the
    /// queues drain, so every key is served and timed.
    #[test]
    fn shutdown_drains_queued_multi_key_batches() {
        let (w, service) = tiny_service(BankRefresh::None);
        let mut per_shard: Vec<Vec<PackedWord>> = vec![Vec::new(); service.shards()];
        for key in &w.keys {
            let packed = PackedWord::pack(key);
            per_shard[service.router().route_packed(&packed).unwrap()].push(packed);
        }
        for _ in 0..8 {
            for (shard, keys) in per_shard.iter().enumerate() {
                let batch = SearchBatch {
                    keys: keys.clone(),
                    submitted: Instant::now(),
                    reply: None,
                    trace: None,
                };
                service.submit(shard, batch).unwrap();
            }
        }
        let report = service.shutdown();
        let submitted = 8 * w.keys.len() as u64;
        assert_eq!(
            report.searches(),
            submitted,
            "shutdown must drain the queues"
        );
        assert_eq!(report.latency.count(), submitted);
    }

    #[test]
    fn worker_pool_serves_correctly_and_converges_on_epochs() {
        let w = Workload::router_lpm(64, 128, 33);
        let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
        let config = ServiceConfig {
            refresh: BankRefresh::None,
            workers_per_shard: 3,
            ..ServiceConfig::default()
        };
        let service = TcamService::start(rules, &config).unwrap();

        // Results stay bit-identical to the single-threaded reference no
        // matter which of a shard's workers serves the batch.
        let reference = ShardedRuleSet::build(&w.words, 2).unwrap();
        for key in w.keys.iter().take(64) {
            assert_eq!(
                service.search_blocking(key).unwrap(),
                reference.search(key).unwrap()
            );
        }

        // A published epoch reaches every worker of the shard: after the
        // swap no worker can ever serve the old table.
        let width = w.words[0].len();
        for shard in 0..service.shards() {
            assert!(service.publish(shard, 1, Arc::new(PackedTcamArray::new(width))));
        }
        let shards = service.shards();
        let report = service.shutdown();
        assert_eq!(report.searches(), 64);
        // One ShardStats entry per worker, shard-major, each tagged.
        assert_eq!(report.shards.len(), shards * 3);
        for (i, s) in report.shards.iter().enumerate() {
            assert_eq!(s.shard, i / 3);
            assert_eq!(s.worker, i % 3);
        }
        // One publication: every worker ends on epoch 1, by one swap (at
        // an idle poll or on the way out) or — a thread that first ran
        // after the publication — by booting from the cell as it stood.
        for s in &report.shards {
            assert!(s.epoch == 1 && s.updates_applied <= 1, "{s:?}");
            assert_eq!(s.refresh_events, 0);
        }
    }

    #[test]
    fn try_submit_sheds_when_the_queue_is_full() {
        let w = Workload::router_lpm(64, 128, 5);
        let rules = ShardedRuleSet::build(&w.words, 0).unwrap(); // one shard
        let config = ServiceConfig {
            refresh: BankRefresh::None,
            queue_capacity: 1,
            ..ServiceConfig::default()
        };
        let service = TcamService::start(rules, &config).unwrap();
        // Fill the single-slot queue faster than the worker can drain it:
        // at least one try_submit must shed with Overloaded, and shedding
        // must leave the queued-keys gauge consistent (drains back to 0).
        let key = tcam_arch::packed::PackedWord::pack(&w.keys[0]);
        let mut shed = 0u32;
        let mut accepted = 0u64;
        for _ in 0..10_000 {
            let batch = SearchBatch {
                keys: vec![key; 64],
                submitted: Instant::now(),
                reply: None,
                trace: None,
            };
            match service.try_submit(0, batch) {
                Ok(()) => accepted += 64,
                Err(ServeError::Overloaded { shard }) => {
                    assert_eq!(shard, 0);
                    shed += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(shed > 0, "a 1-slot queue never shed under a tight loop");
        let report = service.shutdown();
        assert_eq!(report.searches(), accepted, "shed batches must not serve");
        assert_eq!(report.workers_panicked, 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        // Plain drop without shutdown: must close queues, join workers,
        // and not hang or panic.
        let (_, service) = tiny_service(BankRefresh::None);
        drop(service);

        // Workers already exited (queues closed underneath them):
        // shutdown must still join cleanly and report zero panics.
        let (w, service) = tiny_service(BankRefresh::None);
        let _ = service.search_blocking(&w.keys[0]).unwrap();
        for shard in &service.pool.shards {
            shard.queue.close();
        }
        std::thread::sleep(Duration::from_millis(20));
        let report = service.shutdown();
        assert_eq!(report.workers_panicked, 0);
        assert_eq!(report.searches(), 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        // `shutdown` consumes the service, so close the queues under a
        // live handle: that is all a submitter can observe of a shutdown.
        let (w, service) = tiny_service(BankRefresh::None);
        for shard in &service.pool.shards {
            shard.queue.close();
        }
        assert!(matches!(
            service.search_blocking(&w.keys[0]),
            Err(ServeError::ServiceClosed)
        ));
        assert_eq!(service.shutdown().searches(), 0);
    }
}
