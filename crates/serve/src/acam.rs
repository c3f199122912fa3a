//! Opt-in similarity-search serving: the shard-worker pool of
//! [`crate::pool`] plus the **scatter-all + min-reduce** plan.
//!
//! Exact ternary lookups route a key to *one* shard by its prefix bits
//! ([`crate::shard::ShardedRuleSet`]). A distance query cannot be routed
//! — the nearest row can live in any shard — so the acam path uses the
//! other classic plan: **scatter/gather**. Rows are round-robin
//! partitioned across shards ([`AcamShards`]); a query batch is
//! scattered to *every* shard's bounded queue, each shard worker answers
//! with its local winners through the block-batched kernel
//! ([`PackedAcamArray::best_match_batch_into`]), and the gather step
//! min-reduces the per-shard winners — `(distance, id)` for best-match,
//! smallest id for threshold-match — which is exactly the cross-shard
//! reduction the scalar oracle's full scan performs, so results are
//! bit-identical to a monolithic [`AcamArray`] (property-tested below).
//!
//! Queues, workers, admission, telemetry and shutdown are the pool's —
//! the same code [`crate::service::TcamService`] runs on. What differs
//! is the fan-out economics: an exact lookup costs one shard's scan, a
//! distance query costs every shard's scan (the win is latency and
//! multi-core parallelism, not total work). 6T2M cells are non-volatile,
//! so the pool runs with no refresh clock, and nothing publishes to its
//! cells: every reply is epoch 0.

use crate::error::{Result, ServeError};
use crate::pool::{Batch, ServiceConfig, ShardPool, ShardTable};
use crate::telemetry::ServeReport;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use tcam_arch::acam::kernel::PackedAcamArray;
use tcam_arch::acam::{AcamArray, AcamMatch, AcamMetric};
use tcam_arch::bank::BankRefresh;

/// A similarity query mode served by [`AcamService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcamQuery {
    /// Best match under a metric: smallest `(distance, id)` wins.
    Best(AcamMetric),
    /// Distance-threshold match: smallest id among rows with at most
    /// this many cells out of range (`0` = exact threshold-match).
    Threshold(u32),
}

/// Row-partitioned acam shards: rows are dealt round-robin by storage
/// position, keeping ids (= priorities) global, so a cross-shard
/// min-reduce reconstructs the monolithic answer exactly.
#[derive(Debug, Clone)]
pub struct AcamShards {
    shards: Vec<PackedAcamArray>,
}

impl AcamShards {
    /// Partitions `array` into `shards` packed shard arrays.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRuleSet`] when the array holds no rows or
    /// `shards` is 0.
    pub fn build(array: &AcamArray, shards: usize) -> Result<Self> {
        if array.is_empty() || shards == 0 {
            return Err(ServeError::EmptyRuleSet);
        }
        let mut parts: Vec<AcamArray> = (0..shards.min(array.len()))
            .map(|_| AcamArray::new(array.width(), array.levels()).expect("valid parent shape"))
            .collect();
        let n = parts.len();
        for i in 0..array.len() {
            let (id, row) = array.row(i).expect("in-range row");
            parts[i % n]
                .push(row, id)
                .expect("parent rows are valid and ids unique");
        }
        Ok(Self {
            shards: parts.iter().map(PackedAcamArray::from_array).collect(),
        })
    }

    /// Shard count (capped at the row count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether there are no shards (never true for a built set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// A shard's query is the key block every shard of the scatter shares,
/// plus the query mode. A threshold winner's reported distance is 0 (the
/// threshold kernel does not compute it).
impl ShardTable for PackedAcamArray {
    type Keys = Self::Query;
    type Query = (Arc<Vec<Vec<u16>>>, AcamQuery);
    type Answer = Vec<Option<AcamMatch>>;

    fn rows(&self) -> usize {
        self.len()
    }

    fn keys(query: &Self::Query) -> usize {
        query.0.len()
    }

    fn answer(&self, (keys, query): &Self::Query, out: &mut Self::Answer) -> u64 {
        match *query {
            AcamQuery::Best(metric) => self.best_match_batch_into(keys, metric, out),
            AcamQuery::Threshold(d) => {
                out.clear();
                out.extend(
                    self.threshold_match_batch(keys, d)
                        .into_iter()
                        .map(|w| w.map(|id| AcamMatch { id, distance: 0 })),
                );
            }
        }
        out.iter().flatten().count() as u64
    }
}

/// The sharded similarity-search service: a [`ShardPool`] of packed acam
/// shards, scatter on submit, min-reduce on gather.
pub struct AcamService {
    pool: ShardPool<PackedAcamArray>,
    width: usize,
}

impl AcamService {
    /// Starts one worker thread per shard, each behind a queue of
    /// `queue_capacity` jobs (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRuleSet`] when `shards` is empty.
    pub fn start(shards: AcamShards, queue_capacity: usize) -> Result<Self> {
        if shards.is_empty() {
            return Err(ServeError::EmptyRuleSet);
        }
        let config = ServiceConfig {
            queue_capacity,
            ..ServiceConfig::default()
        };
        Ok(Self::with_config(shards, &config))
    }

    /// 6T2M cells are non-volatile: whatever `config` says, no refresh
    /// clock runs.
    fn with_config(shards: AcamShards, config: &ServiceConfig) -> Self {
        let config = ServiceConfig {
            refresh: BankRefresh::None,
            ..*config
        };
        let width = shards.shards[0].width();
        let tables = shards.shards.into_iter().map(Arc::new).collect();
        Self {
            pool: ShardPool::start(tables, 0, &config),
            width,
        }
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.pool.shards()
    }

    /// Serves one batch of similarity queries end to end: scatter to
    /// every shard, block for the replies, gather by min-reduction.
    /// `out[i]` is bit-identical to the monolithic scalar answer for
    /// `keys[i]` (for [`AcamQuery::Threshold`] the winner's reported
    /// distance is 0: the threshold kernel does not compute it).
    ///
    /// # Errors
    ///
    /// [`ServeError::WidthMismatch`] on a malformed key and
    /// [`ServeError::ServiceClosed`] once [`Self::shutdown`] ran.
    pub fn search_blocking(
        &self,
        keys: &[Vec<u16>],
        query: AcamQuery,
    ) -> Result<Vec<Option<AcamMatch>>> {
        for key in keys {
            if key.len() != self.width {
                return Err(ServeError::WidthMismatch {
                    expected: self.width,
                    found: key.len(),
                });
            }
        }
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let shards = self.pool.shards();
        let shared = Arc::new(keys.to_vec());
        let (tx, rx) = mpsc::sync_channel(shards);
        let submitted = Instant::now();
        for shard in 0..shards {
            self.pool.submit(
                shard,
                Batch {
                    keys: (Arc::clone(&shared), query),
                    submitted,
                    reply: Some(tx.clone()),
                    trace: None,
                },
            )?;
        }
        drop(tx);
        // Gather: element-wise min-reduce over the per-shard winners, in
        // any reply order (the reduction is commutative). `(distance, id)`
        // orders both modes: a threshold winner's distance is 0, so there
        // it is the smallest id.
        let mut merged: Vec<Option<AcamMatch>> = vec![None; keys.len()];
        for _ in 0..shards {
            let local = rx.recv().map_err(|_| ServeError::ServiceClosed)?.results;
            for (slot, cand) in merged.iter_mut().zip(local) {
                let Some(c) = cand else { continue };
                if slot.is_none_or(|b| (c.distance, c.id) < (b.distance, b.id)) {
                    *slot = Some(c);
                }
            }
        }
        Ok(merged)
    }

    /// Single-key convenience over [`Self::search_blocking`].
    ///
    /// # Errors
    ///
    /// See [`Self::search_blocking`].
    pub fn best_match_blocking(
        &self,
        key: &[u16],
        metric: AcamMetric,
    ) -> Result<Option<AcamMatch>> {
        Ok(self
            .search_blocking(std::slice::from_ref(&key.to_vec()), AcamQuery::Best(metric))?
            .pop()
            .flatten())
    }

    /// [`ShardPool::shutdown`]: closes the queues, joins every worker and
    /// folds their telemetry. One [`ShardStats`](crate::telemetry::ShardStats)
    /// per shard; a batch of `n` keys scattered over `s` shards counts `n`
    /// searches on each. The report's `meter` prices those searches with
    /// the default (3T2N) cost model — there is no 6T2M cost table — so
    /// only its counts mean anything here.
    #[must_use]
    pub fn shutdown(self) -> ServeReport {
        self.pool.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_arch::acam::AcamCell;
    use tcam_numeric::rng::SplitMix64;

    fn random_array(rng: &mut SplitMix64, width: usize, levels: u16, rows: usize) -> AcamArray {
        let mut a = AcamArray::new(width, levels).unwrap();
        for id in 0..rows {
            let word: Vec<AcamCell> = (0..width)
                .map(|_| {
                    let x = rng.below(u64::from(levels)) as u16;
                    let y = rng.below(u64::from(levels)) as u16;
                    AcamCell::new(x.min(y), x.max(y)).unwrap()
                })
                .collect();
            a.push(&word, id as u32 * 7).unwrap();
        }
        // Swap-remove a few rows so shard storage order churns.
        for k in 0..rows / 4 {
            let _ = a.remove((k * 21) as u32);
        }
        a
    }

    /// The serving property test: scatter/gather over 1..=4 shards, one
    /// and two workers each, is bit-identical to the monolithic scalar
    /// oracle for both query modes and both metrics.
    #[test]
    fn sharded_service_matches_monolithic_oracle() {
        let mut rng = SplitMix64::new(0x5EA7);
        let array = random_array(&mut rng, 6, 64, 41);
        let keys: Vec<Vec<u16>> = (0..53)
            .map(|_| (0..6).map(|_| rng.below(64) as u16).collect())
            .collect();
        for (shards, workers) in [(1usize, 1usize), (2, 1), (3, 2), (4, 1), (4, 2)] {
            let config = ServiceConfig {
                queue_capacity: 8,
                workers_per_shard: workers,
                ..ServiceConfig::default()
            };
            let service =
                AcamService::with_config(AcamShards::build(&array, shards).unwrap(), &config);
            for metric in [AcamMetric::Hamming, AcamMetric::Interval] {
                let got = service
                    .search_blocking(&keys, AcamQuery::Best(metric))
                    .unwrap();
                let want: Vec<_> = keys
                    .iter()
                    .map(|k| array.best_match(k, metric).unwrap())
                    .collect();
                assert_eq!(got, want, "shards {shards}x{workers} metric {metric:?}");
            }
            for d in [0u32, 1, 2, 3] {
                let got = service
                    .search_blocking(&keys, AcamQuery::Threshold(d))
                    .unwrap();
                let want: Vec<_> = keys
                    .iter()
                    .map(|k| {
                        let id = array.threshold_match(k, d).unwrap();
                        id.map(|id| AcamMatch { id, distance: 0 })
                    })
                    .collect();
                assert_eq!(got, want, "shards {shards}x{workers} d {d}");
            }
            let report = service.shutdown();
            assert_eq!(report.shards.len(), shards * workers);
            // Six scattered batches of 53 keys, each served once per shard.
            assert_eq!(report.searches(), (6 * keys.len() * shards) as u64);
            assert_eq!(report.refresh_events(), 0, "6T2M cells need no refresh");
        }
    }

    #[test]
    fn single_key_and_width_validation() {
        let mut rng = SplitMix64::new(3);
        let array = random_array(&mut rng, 4, 16, 10);
        let service = AcamService::start(AcamShards::build(&array, 2).unwrap(), 4).unwrap();
        let key = vec![3u16, 7, 1, 12];
        assert_eq!(
            service.best_match_blocking(&key, AcamMetric::Interval).unwrap(),
            array.best_match(&key, AcamMetric::Interval).unwrap()
        );
        assert!(matches!(
            service.search_blocking(&[vec![1, 2]], AcamQuery::Threshold(0)),
            Err(ServeError::WidthMismatch { .. })
        ));
        assert!(service
            .search_blocking(&[], AcamQuery::Threshold(0))
            .unwrap()
            .is_empty());
        let report = service.shutdown();
        assert_eq!(report.shards.len(), 2);
    }

    /// Dropping a started service (no `shutdown`) must still stop its
    /// workers: each worker owns a clone of its shard's `Arc`, so the
    /// shard is freed only once the worker thread has exited.
    #[test]
    fn drop_without_shutdown_stops_the_workers() {
        let mut rng = SplitMix64::new(5);
        let array = random_array(&mut rng, 4, 16, 10);
        // Capacity 0 is clamped, not a panic inside `BoundedQueue::new`.
        let service = AcamService::start(AcamShards::build(&array, 2).unwrap(), 0).unwrap();
        let key = vec![3u16, 7, 1, 12];
        assert_eq!(
            service.best_match_blocking(&key, AcamMetric::Hamming).unwrap(),
            array.best_match(&key, AcamMetric::Hamming).unwrap()
        );
        let shards: Vec<_> = service.pool.shards.iter().map(Arc::downgrade).collect();
        drop(service);
        assert!(
            shards.iter().all(|s| s.upgrade().is_none()),
            "a shard worker outlived the dropped service"
        );
    }

    #[test]
    fn panicked_worker_is_reported_not_propagated() {
        let mut rng = SplitMix64::new(6);
        let array = random_array(&mut rng, 4, 16, 10);
        let service = AcamService::start(AcamShards::build(&array, 2).unwrap(), 4).unwrap();
        // A short key (which `search_blocking` would reject) submitted
        // straight to shard 0's pool panics that worker in the kernel.
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Batch {
            keys: (
                Arc::new(vec![vec![1u16]]),
                AcamQuery::Best(AcamMetric::Hamming),
            ),
            submitted: Instant::now(),
            reply: Some(tx),
            trace: None,
        };
        service.pool.submit(0, job).unwrap();
        assert!(rx.recv().is_err(), "the panicking worker drops the reply slot");
        let report = service.shutdown();
        assert_eq!(report.workers_panicked, 1);
        assert_eq!(report.shards.len(), 1);
    }

    /// Admission control comes with the pool: a full shard queue sheds a
    /// `try_submit` with `Overloaded` instead of blocking the caller, and
    /// what was shed is never served.
    #[test]
    fn try_submit_sheds_when_the_queue_is_full() {
        let mut rng = SplitMix64::new(7);
        let array = random_array(&mut rng, 6, 64, 150);
        let service = AcamService::start(AcamShards::build(&array, 1).unwrap(), 1).unwrap();
        // 512 keys x 113 rows is milliseconds of scanning per batch; the
        // submit loop offers the next one microseconds later.
        let keys: Arc<Vec<Vec<u16>>> = Arc::new(
            (0..512)
                .map(|_| (0..6).map(|_| rng.below(64) as u16).collect())
                .collect(),
        );
        let (mut shed, mut accepted) = (0u32, 0u64);
        for _ in 0..64 {
            let job = Batch {
                keys: (Arc::clone(&keys), AcamQuery::Threshold(1)),
                submitted: Instant::now(),
                reply: None,
                trace: None,
            };
            match service.pool.try_submit(0, job) {
                Ok(()) => accepted += keys.len() as u64,
                Err(ServeError::Overloaded { shard: 0 }) => shed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(shed > 0, "a 1-slot queue never shed under a tight loop");
        let report = service.shutdown();
        assert_eq!(report.searches(), accepted, "shed batches must not serve");
        assert_eq!(report.workers_panicked, 0);
    }

    #[test]
    fn empty_array_and_zero_shards_rejected() {
        let empty = AcamArray::new(4, 16).unwrap();
        assert!(matches!(
            AcamShards::build(&empty, 2),
            Err(ServeError::EmptyRuleSet)
        ));
        let mut rng = SplitMix64::new(4);
        let array = random_array(&mut rng, 4, 16, 5);
        assert!(matches!(
            AcamShards::build(&array, 0),
            Err(ServeError::EmptyRuleSet)
        ));
        // More shards than rows: capped, still exact.
        let shards = AcamShards::build(&array, 64).unwrap();
        assert!(shards.len() <= 5);
    }
}
