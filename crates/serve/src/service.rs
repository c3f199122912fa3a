//! The exact-match lookup service: the serving pool of [`crate::pool`]
//! over one packed table, plus the table's word width.
//!
//! A lookup is: check the width, pack, submit one [`SearchBatch`] to the
//! queue, and wait for the worker's [`BatchReply`]. Everything else
//! (the queue and admission, the refresh clock, epoch-snapshot
//! publication, telemetry, shutdown) is the pool's and is documented
//! there. The kernel is the bit-sliced match-line kernel
//! ([`PackedTcamArray::first_match_batch_into`]), which resolves 64 rows
//! per AND and visits only the 64-row blocks its block summary keeps for
//! the key.

use crate::error::{Result, ServeError};
use crate::pool::ShardPool;
use crate::shard::ShardedRuleSet;
use crate::telemetry::ServeReport;
use std::sync::Arc;
use std::time::Instant;
use tcam_arch::packed::{PackedTcamArray, PackedWord};

pub use crate::pool::{BatchReply, SearchBatch, ServiceConfig};

/// The running service: a [`ShardPool`] over one packed ternary table —
/// whose `submit`, `try_submit`, `answer_here` and `publish` it derefs
/// to — and the table's word width. It holds no rule set: the table lives
/// in the pool's published cell, so after the first publication nothing
/// here can answer from a stale one.
pub struct TcamService {
    pool: ShardPool,
    width: usize,
}

impl std::ops::Deref for TcamService {
    type Target = ShardPool;

    fn deref(&self) -> &Self::Target {
        &self.pool
    }
}

impl TcamService {
    /// Starts serving `rules` at epoch 0, moving its table into the pool
    /// (no row is copied).
    ///
    /// # Errors
    ///
    /// None today: the `Result` is what every caller already propagates.
    pub fn start(rules: ShardedRuleSet, config: &ServiceConfig) -> Result<Self> {
        let width = rules.width();
        let table = Arc::new(rules.into_table());
        Ok(Self::start_at(width, table, 0, config))
    }

    /// Starts serving `table` of `width`-bit words, the worker booting at
    /// `epoch` — how a writer that already holds the snapshot starts its
    /// service, and how a recovered node makes its very first reply carry
    /// the exact pre-crash epoch.
    #[must_use]
    pub fn start_at(
        width: usize,
        table: Arc<PackedTcamArray>,
        epoch: u64,
        config: &ServiceConfig,
    ) -> Self {
        Self {
            pool: ShardPool::start(table, epoch, config),
            width,
        }
    }

    /// The word width of this service's rules and keys.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// One closed-loop lookup: waits for the worker's reply, returns the
    /// winning rule's id.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`], or [`ServeError::ServiceClosed`].
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
    /// [`ServeError::WidthMismatch`], or [`ServeError::ServiceClosed`].
    pub fn search_with_epoch(
        &self,
        key: &[tcam_core::bit::TernaryBit],
    ) -> Result<(u64, Option<u32>)> {
        if key.len() != self.width {
            return Err(ServeError::WidthMismatch {
                expected: self.width,
                found: key.len(),
            });
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit(
            0,
            SearchBatch {
                keys: vec![PackedWord::pack(key)],
                submitted: Instant::now(),
                reply: Some(tx),
                trace: None,
            },
        )?;
        let mut reply = rx.recv().map_err(|_| ServeError::ServiceClosed)?;
        Ok((reply.epoch, reply.results.pop().flatten()))
    }

    /// [`ShardPool::shutdown`]: drains the queue, joins the worker and
    /// returns its telemetry. Dropping the service instead does the same
    /// and discards the report.
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
        let rules = ShardedRuleSet::build(&w.words, 0).unwrap();
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
        let reference = ShardedRuleSet::build(&w.words, 0).unwrap();
        for key in w.keys.iter().take(64) {
            assert_eq!(
                service.search_blocking(key).unwrap(),
                reference.search(key).unwrap()
            );
        }
        assert!(matches!(
            service.search_blocking(&w.keys[0][1..]),
            Err(ServeError::WidthMismatch { .. })
        ));
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
        let [s] = report.shards.as_slice() else {
            panic!("one worker: {report:?}");
        };
        assert!(s.rows > 0);
        assert_eq!(s.refresh_ops, s.refresh_events * s.rows as u64);
    }

    #[test]
    fn published_snapshots_swap_atomically_with_epoch() {
        let (w, service) = tiny_service(BankRefresh::None);
        // Epoch 0 serves the original rules.
        let (epoch, _) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 0);

        // Publish an empty replacement table: the cell is loaded after the
        // dequeue, so the very next lookup is served from it — nothing
        // matches and the reply reports epoch 1.
        let width = w.words[0].len();
        assert!(service.publish(1, Arc::new(PackedTcamArray::new(width))));
        let (epoch, hit) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 1, "a lookup submitted after publish returned");
        assert_eq!(hit, None, "epoch 1 table is empty but key matched");

        // An epoch published right before shutdown is not lost: the
        // worker loads the cell once more on the way out.
        assert!(service.publish(2, Arc::new(PackedTcamArray::new(width))));
        assert!(!service.publish(2, Arc::new(PackedTcamArray::new(width))));
        let report = service.shutdown();
        assert_eq!(report.last_epoch(), 2);
        for s in &report.shards {
            // 1 -> 2 at the idle poll or on the way out (the lookup made
            // it swap to 1 already).
            assert!(s.epoch == 2 && s.updates_applied == 2, "{s:?}");
        }
        assert_eq!(report.update_latency.count(), report.updates_applied());
    }

    /// Batches submitted without waiting are not lost at shutdown: the
    /// queues drain, so every key is served and timed.
    #[test]
    fn shutdown_drains_queued_multi_key_batches() {
        let (w, service) = tiny_service(BankRefresh::None);
        let keys: Vec<PackedWord> = w.keys.iter().map(|k| PackedWord::pack(k)).collect();
        for _ in 0..8 {
            let batch = SearchBatch {
                keys: keys.clone(),
                submitted: Instant::now(),
                reply: None,
                trace: None,
            };
            service.submit(0, batch).unwrap();
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
    fn try_submit_sheds_when_the_queue_is_full() {
        let w = Workload::router_lpm(64, 128, 5);
        let rules = ShardedRuleSet::build(&w.words, 0).unwrap();
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
            match service.try_submit(batch) {
                Ok(()) => accepted += 64,
                Err(ServeError::Overloaded) => shed += 1,
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

        // The worker already exited (queue closed underneath it):
        // shutdown must still join cleanly and report zero panics.
        let (w, service) = tiny_service(BankRefresh::None);
        let _ = service.search_blocking(&w.keys[0]).unwrap();
        service.pool.shard.queue.close();
        std::thread::sleep(Duration::from_millis(20));
        let report = service.shutdown();
        assert_eq!(report.workers_panicked, 0);
        assert_eq!(report.searches(), 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        // `shutdown` consumes the service, so close the queue under a
        // live handle: that is all a submitter can observe of a shutdown.
        let (w, service) = tiny_service(BankRefresh::None);
        service.pool.shard.queue.close();
        assert!(matches!(
            service.search_blocking(&w.keys[0]),
            Err(ServeError::ServiceClosed)
        ));
        assert_eq!(service.shutdown().searches(), 0);
    }
}
