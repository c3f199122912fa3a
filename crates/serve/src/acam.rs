//! Opt-in similarity-search serving: distance queries through a sharded
//! worker pool.
//!
//! Exact ternary lookups route a key to *one* shard by its prefix bits
//! ([`crate::shard::ShardedRuleSet`]). A distance query cannot be routed
//! — the nearest row can live in any shard — so the acam path uses the
//! other classic plan: **scatter/gather**. Rows are round-robin
//! partitioned across shards ([`AcamShards`]); a query batch is
//! scattered to *every* shard's bounded queue, each shard worker answers
//! with its local winners through the block-batched kernel
//! ([`PackedAcamArray::best_match_batch`]), and the gather step
//! min-reduces the per-shard winners — `(distance, id)` for best-match,
//! smallest id for threshold-match — which is exactly the cross-shard
//! reduction the scalar oracle's full scan performs, so results are
//! bit-identical to a monolithic [`AcamArray`] (property-tested below).
//!
//! The plumbing deliberately mirrors [`crate::service::TcamService`]:
//! bounded queues as backpressure, one worker thread per shard, replies
//! over a rendezvous channel, per-shard telemetry folded into a report
//! at shutdown. It stays a separate, opt-in service because the
//! fan-out economics differ: an exact lookup costs one shard's scan,
//! a distance query costs every shard's scan (the win is latency and
//! multi-core parallelism, not total work).

use crate::error::{Result, ServeError};
use crate::queue::BoundedQueue;
use crate::telemetry::LatencyHistogram;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcam_arch::acam::kernel::PackedAcamArray;
use tcam_arch::acam::{AcamArray, AcamMatch, AcamMetric};

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
    width: usize,
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
            width: array.width(),
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

    /// Cells per word.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }
}

/// One scattered query batch: the shared key block, the query mode, and
/// the reply slot the gather step drains.
struct AcamJob {
    keys: Arc<Vec<Vec<u16>>>,
    query: AcamQuery,
    reply: mpsc::SyncSender<Vec<Option<AcamMatch>>>,
    /// Scatter time, for the `acam_queue` trace hop.
    submitted: Instant,
    /// Request trace to record per-shard `acam_queue`/`acam_match` hops
    /// against (`None` on the untraced fast path — no clock reads added).
    trace: Option<Arc<tcam_obs::RequestTrace>>,
}

/// Per-shard serving statistics, folded into [`AcamServeReport`].
#[derive(Debug, Clone)]
struct AcamShardStats {
    searches: u64,
    batches: u64,
    service: LatencyHistogram,
}

/// Shutdown report of an [`AcamService`].
#[derive(Debug, Clone)]
pub struct AcamServeReport {
    /// Distance lookups served (per shard scan; a batch of `n` keys over
    /// `s` shards counts `n` on each shard).
    pub shard_searches: Vec<u64>,
    /// Scattered batches served per shard.
    pub batches: u64,
    /// Per-shard batch service time, nanoseconds (all shards merged).
    pub service: LatencyHistogram,
    /// Workers that panicked instead of returning stats; their shards'
    /// telemetry is absent from the fields above.
    pub workers_panicked: u64,
}

impl AcamServeReport {
    /// Total per-shard lookups across the pool.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.shard_searches.iter().sum()
    }
}

/// The sharded similarity-search service: one worker thread per shard
/// behind a bounded queue, scatter on submit, min-reduce on gather.
pub struct AcamService {
    queues: Vec<Arc<BoundedQueue<AcamJob>>>,
    workers: Vec<JoinHandle<AcamShardStats>>,
    width: usize,
}

/// Max jobs a worker drains per queue visit (scattered batches are
/// fan-out amplified, so drains stay small).
const DRAIN_JOBS: usize = 8;

/// Worker poll timeout while idle.
const POLL: Duration = Duration::from_millis(5);

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
        let width = shards.width();
        let mut queues = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        for (i, table) in shards.shards.into_iter().enumerate() {
            let queue = Arc::new(BoundedQueue::new(queue_capacity.max(1)));
            queues.push(Arc::clone(&queue));
            let shard_label = u32::try_from(i).unwrap_or(u32::MAX);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("acam-shard-{i}"))
                    .spawn(move || run_worker(&table, &queue, shard_label))
                    .expect("spawn acam shard worker"),
            );
        }
        Ok(Self {
            queues,
            workers,
            width,
        })
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.queues.len()
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
        self.search_blocking_traced(keys, query, None)
    }

    /// As [`Self::search_blocking`], recording trace hops against `trace`
    /// when one is supplied: a top-level `acam_scatter` span over the
    /// fan-out, per-shard `acam_queue`/`acam_match` spans from the worker
    /// side, and a top-level `acam_gather` span over the min-reduction.
    ///
    /// # Errors
    ///
    /// See [`Self::search_blocking`].
    pub fn search_blocking_traced(
        &self,
        keys: &[Vec<u16>],
        query: AcamQuery,
        trace: Option<&Arc<tcam_obs::RequestTrace>>,
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
        let shards = self.queues.len();
        let shared = Arc::new(keys.to_vec());
        let (tx, rx) = mpsc::sync_channel(shards);
        let scatter_start = Instant::now();
        for queue in &self.queues {
            let job = AcamJob {
                keys: Arc::clone(&shared),
                query,
                reply: tx.clone(),
                submitted: scatter_start,
                trace: trace.cloned(),
            };
            if queue.push(job).is_err() {
                return Err(ServeError::ServiceClosed);
            }
        }
        drop(tx);
        let scattered = Instant::now();
        if let Some(trace) = trace {
            trace.hop("acam_scatter", scatter_start, scattered);
        }
        // Gather: element-wise min-reduce over the per-shard winners.
        // Reply order doesn't matter — both reductions are commutative.
        let mut merged: Vec<Option<AcamMatch>> = vec![None; keys.len()];
        for _ in 0..shards {
            let local = rx.recv().map_err(|_| ServeError::ServiceClosed)?;
            for (slot, cand) in merged.iter_mut().zip(local) {
                let Some(c) = cand else { continue };
                let better = match (&query, &slot) {
                    (_, None) => true,
                    (AcamQuery::Best(_), Some(b)) => (c.distance, c.id) < (b.distance, b.id),
                    (AcamQuery::Threshold(_), Some(b)) => c.id < b.id,
                };
                if better {
                    *slot = Some(c);
                }
            }
        }
        if let Some(trace) = trace {
            trace.hop("acam_gather", scattered, Instant::now());
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

    /// Closes the queues, joins every worker, and folds their telemetry.
    /// A worker that panicked is counted in
    /// [`AcamServeReport::workers_panicked`] instead of poisoning the
    /// caller.
    #[must_use]
    pub fn shutdown(mut self) -> AcamServeReport {
        self.shutdown_in_place()
    }

    /// The idempotent core of [`Self::shutdown`], shared with `Drop`:
    /// after the first call the worker list is empty, so a later call
    /// returns an empty report instead of blocking.
    fn shutdown_in_place(&mut self) -> AcamServeReport {
        for queue in &self.queues {
            queue.close();
        }
        let mut report = AcamServeReport {
            shard_searches: Vec::with_capacity(self.workers.len()),
            batches: 0,
            service: LatencyHistogram::new(),
            workers_panicked: 0,
        };
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(stats) => {
                    report.shard_searches.push(stats.searches);
                    report.batches += stats.batches;
                    report.service.merge(&stats.service);
                }
                Err(_) => report.workers_panicked += 1,
            }
        }
        report
    }
}

impl Drop for AcamService {
    /// Dropping without [`AcamService::shutdown`] still closes the queues
    /// and joins the workers (so no thread outlives the service), it just
    /// discards the telemetry. After an explicit shutdown this is a no-op.
    fn drop(&mut self) {
        let _ = self.shutdown_in_place();
    }
}

/// The shard worker loop: drain scattered jobs, answer each through the
/// batched kernel, reply with the shard-local winners.
fn run_worker(
    table: &PackedAcamArray,
    queue: &BoundedQueue<AcamJob>,
    shard_label: u32,
) -> AcamShardStats {
    let mut stats = AcamShardStats {
        searches: 0,
        batches: 0,
        service: LatencyHistogram::new(),
    };
    let mut best = Vec::new();
    let mut ids = Vec::new();
    loop {
        let (jobs, closed) = queue.pop_batch(DRAIN_JOBS, POLL);
        for job in jobs {
            let dequeued = Instant::now();
            let local: Vec<Option<AcamMatch>> = match job.query {
                AcamQuery::Best(metric) => {
                    table.best_match_batch_tiled(
                        &job.keys,
                        metric,
                        tcam_arch::acam::kernel::ACAM_TILE_KEYS,
                        &mut best,
                    );
                    best.clone()
                }
                AcamQuery::Threshold(d) => {
                    table.threshold_match_batch_tiled(
                        &job.keys,
                        d,
                        tcam_arch::acam::kernel::ACAM_TILE_KEYS,
                        &mut ids,
                    );
                    ids.iter()
                        .map(|w| w.map(|id| AcamMatch { id, distance: 0 }))
                        .collect()
                }
            };
            let done = Instant::now();
            if let Some(trace) = &job.trace {
                trace.hop_labeled("acam_queue", Some(shard_label), job.submitted, dequeued);
                trace.hop_labeled("acam_match", Some(shard_label), dequeued, done);
            }
            stats.searches += job.keys.len() as u64;
            stats.batches += 1;
            stats
                .service
                .record(u64::try_from(done.saturating_duration_since(dequeued).as_nanos()).unwrap_or(u64::MAX));
            // A gather that gave up (caller dropped) is not an error.
            let _ = job.reply.send(local);
        }
        if closed && queue.is_empty() {
            return stats;
        }
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

    /// The serving property test: scatter/gather over 1..=4 shards is
    /// bit-identical to the monolithic scalar oracle for both query
    /// modes and both metrics.
    #[test]
    fn sharded_service_matches_monolithic_oracle() {
        let mut rng = SplitMix64::new(0x5EA7);
        let array = random_array(&mut rng, 6, 64, 41);
        let keys: Vec<Vec<u16>> = (0..53)
            .map(|_| (0..6).map(|_| rng.below(64) as u16).collect())
            .collect();
        for shards in [1usize, 2, 3, 4] {
            let service =
                AcamService::start(AcamShards::build(&array, shards).unwrap(), 8).unwrap();
            for metric in [AcamMetric::Hamming, AcamMetric::Interval] {
                let got = service
                    .search_blocking(&keys, AcamQuery::Best(metric))
                    .unwrap();
                let want: Vec<_> = keys
                    .iter()
                    .map(|k| array.best_match(k, metric).unwrap())
                    .collect();
                assert_eq!(got, want, "shards {shards} metric {metric:?}");
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
                assert_eq!(got, want, "shards {shards} d {d}");
            }
            let report = service.shutdown();
            assert_eq!(report.shard_searches.len(), shards.min(array.len()));
            assert!(report.searches() > 0 && report.batches > 0);
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
        assert_eq!(report.shard_searches.len(), 2);
    }

    /// Dropping a started service (no `shutdown`) must still stop its
    /// workers: each worker owns a clone of its queue's `Arc`, so the
    /// queue is freed only once the worker thread has exited.
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
        let queues: Vec<_> = service.queues.iter().map(Arc::downgrade).collect();
        drop(service);
        assert!(
            queues.iter().all(|q| q.upgrade().is_none()),
            "a shard worker outlived the dropped service"
        );
    }

    #[test]
    fn panicked_worker_is_reported_not_propagated() {
        let mut rng = SplitMix64::new(6);
        let array = random_array(&mut rng, 4, 16, 10);
        let service = AcamService::start(AcamShards::build(&array, 2).unwrap(), 4).unwrap();
        // A short key (which `search_blocking` would reject) pushed
        // straight onto shard 0's queue panics that worker in the kernel.
        let (tx, rx) = mpsc::sync_channel(1);
        let job = AcamJob {
            keys: Arc::new(vec![vec![1u16]]),
            query: AcamQuery::Best(AcamMetric::Hamming),
            reply: tx,
            submitted: Instant::now(),
            trace: None,
        };
        assert!(service.queues[0].push(job).is_ok());
        assert!(rx.recv().is_err(), "the panicking worker drops the reply slot");
        let report = service.shutdown();
        assert_eq!(report.workers_panicked, 1);
        assert_eq!(report.shard_searches.len(), 1);
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
