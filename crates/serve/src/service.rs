//! The exact-match lookup service: the serving pool of [`crate::pool`]
//! over one packed table, plus the table's word width.
//!
//! A lookup is: check the width, pack, and match on the calling thread
//! ([`ShardPool::answer_here`]). Everything else (the refresh clock,
//! epoch-snapshot publication, telemetry, shutdown) is the pool's and is
//! documented there. The kernel is the bit-sliced match-line kernel
//! ([`PackedTcamArray::first_match_batch_into`]), which resolves 64 rows
//! per AND and visits only the 64-row blocks its block summary keeps for
//! the key.

use crate::error::{Result, ServeError};
use crate::pool::ShardPool;
use crate::shard::ShardedRuleSet;
use crate::telemetry::ServeReport;
use std::sync::Arc;
use tcam_arch::packed::{PackedTcamArray, PackedWord};

pub use crate::pool::{BatchReply, SearchBatch, ServiceConfig};

/// The running service: a [`ShardPool`] over one packed ternary table —
/// whose `answer_here`, `submit` and `publish` it derefs to — and the
/// table's word width. It holds no rule set: the table lives in the pool's
/// published cell, so after the first publication nothing here can answer
/// from a stale one.
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

    /// Starts serving `table` of `width`-bit words, published at
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

    /// One lookup on the calling thread: returns the winning rule's id.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`].
    pub fn search_blocking(&self, key: &[tcam_core::bit::TernaryBit]) -> Result<Option<u32>> {
        Ok(self.search_with_epoch(key)?.1)
    }

    /// One lookup that also reports the epoch of the table snapshot that
    /// served it — the hook the epoch-verified churn tests use to check
    /// that every result is consistent with exactly one published epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`].
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
        let mut reply = self.answer_here(&[PackedWord::pack(key)], None);
        Ok((reply.epoch, reply.results.pop().flatten()))
    }

    /// [`ShardPool::shutdown`]: stops the refresh clock and returns the
    /// table's telemetry. Dropping the service instead does the same
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
    use std::time::{Duration, Instant};
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
        let s = service.shutdown().stats;
        assert_eq!(s.searches, 64);
        assert_eq!(s.meter.searches, 64);
        assert_eq!(s.refresh_events, 0);
        assert!(s.latency.count() == 64);
        assert!(s.latency.quantile(50.0) > 0);
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
        let s = service.shutdown().stats;
        assert!(s.refresh_events > 0, "no refresh events in 30 ms");
        assert_eq!(s.refresh_ops, s.refresh_events); // one-shot
        assert!(s.meter.refreshes == s.refresh_ops);
        assert!(s.refresh_stall > Duration::ZERO);
        assert!(s.meter.energy > 0.0);
    }

    #[test]
    fn row_by_row_runs_rows_ops_per_event() {
        let (_, service) = tiny_service(BankRefresh::RowByRow { op_time: 10e-9 });
        std::thread::sleep(Duration::from_millis(10));
        let s = service.shutdown().stats;
        assert!(s.refresh_events > 0);
        assert!(s.rows > 0);
        assert_eq!(s.refresh_ops, s.refresh_events * s.rows as u64);
        // Each row op is priced as a read and a write-back, as the
        // interference simulation prices it — not as a whole-array OSR.
        assert_eq!(s.meter.refreshes, s.refresh_ops);
        let op_energy = 2.0 * ServiceConfig::default().costs.write_energy;
        let expected = s.refresh_ops as f64 * op_energy;
        assert!(
            (s.meter.energy - expected).abs() <= 1e-9 * expected,
            "metered {} J, {} ops at {op_energy} J",
            s.meter.energy,
            s.refresh_ops
        );
    }

    /// Every refresh event records its lateness once: on an idle pool,
    /// and under one caller matching back to back, which can hold events
    /// off — they are then fewer and later, but each is recorded.
    #[test]
    fn refresh_lateness_records_every_event() {
        for busy in [false, true] {
            let (w, service) = tiny_service(BankRefresh::OneShot { op_time: 10e-9 });
            let keys: Vec<PackedWord> = w.keys.iter().map(|k| PackedWord::pack(k)).collect();
            let deadline = Instant::now() + Duration::from_millis(20);
            while Instant::now() < deadline {
                if busy {
                    service.answer_here(&keys, None);
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let s = service.shutdown().stats;
            assert!(s.refresh_events > 0, "busy {busy}: no refresh event");
            assert_eq!(s.refresh_lateness.count(), s.refresh_events, "busy {busy}");
        }
    }

    #[test]
    fn published_snapshots_swap_atomically_with_epoch() {
        let (w, service) = tiny_service(BankRefresh::None);
        // Epoch 0 serves the original rules.
        let (epoch, _) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 0);

        // Publish an empty replacement table: the cell is loaded before
        // the match, so the very next lookup is served from it — nothing
        // matches and the reply reports epoch 1.
        let width = w.words[0].len();
        assert!(service.publish(1, Arc::new(PackedTcamArray::new(width))));
        let (epoch, hit) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 1, "a lookup that started after publish returned");
        assert_eq!(hit, None, "epoch 1 table is empty but key matched");

        // An epoch published right before shutdown is the report's: the
        // cell is read on the way out. A repeated epoch is not counted.
        assert!(service.publish(2, Arc::new(PackedTcamArray::new(width))));
        assert!(!service.publish(2, Arc::new(PackedTcamArray::new(width))));
        let s = service.shutdown().stats;
        assert_eq!((s.epoch, s.updates_applied, s.rows), (2, 2, 0), "{s:?}");
    }

    /// The `submit` shim is `answer_here` behind a batch: the same epoch
    /// and results for the same keys, and a batch without a reply channel
    /// is still matched and counted.
    #[test]
    fn submit_replies_as_answer_here() {
        let (w, service) = tiny_service(BankRefresh::None);
        let table = ShardedRuleSet::build(&w.words, 0).unwrap().into_table();
        assert!(service.publish(1, Arc::new(table)));
        let keys: Vec<PackedWord> = w.keys.iter().map(|k| PackedWord::pack(k)).collect();
        let here = service.answer_here(&keys, None);
        let batch = |reply| SearchBatch {
            keys: keys.clone(),
            submitted: Instant::now(),
            reply,
            trace: None,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        service.submit(0, batch(Some(tx))).unwrap();
        let shim = rx.recv().expect("the shim replies before returning");
        assert_eq!((shim.epoch, &shim.results), (here.epoch, &here.results));
        assert_eq!(here.epoch, 1);
        assert!(here.results.iter().any(Option::is_some));
        service.submit(0, batch(None)).unwrap();
        let s = service.shutdown().stats;
        assert_eq!((s.batches, s.searches), (3, 3 * keys.len() as u64));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        // Plain drop without shutdown: must stop and join the refresh
        // clock, and not hang or panic.
        let (_, service) = tiny_service(BankRefresh::OneShot { op_time: 10e-9 });
        drop(service);

        // Shutdown, then the drop it leaves behind: one report, no panic.
        let (w, service) = tiny_service(BankRefresh::None);
        let _ = service.search_blocking(&w.keys[0]).unwrap();
        let report = service.shutdown();
        assert!(!report.clock_panicked);
        assert_eq!(report.stats.searches, 1);
    }
}
