//! Latency/throughput telemetry for the lookup service.
//!
//! The histogram type is [`tcam_obs::LatencyHistogram`], re-exported here
//! — this crate no longer defines its own (it moved to `tcam-obs` so the
//! solver, serving, and bench layers share one implementation and one set
//! of correctness tests).
//!
//! [`ShardStats`] is the per-shard counter block each worker owns (no
//! sharing, no atomics on the hot path) and [`ServeReport`] is the
//! shutdown-time merge across shards. Workers also mirror coarse
//! aggregates into the global `tcam-obs` registry at batch-boundary
//! flushes (see `service.rs`), so a long-running serve loop is observable
//! before shutdown; the report stays the exact, complete record.

use std::time::Duration;
use tcam_arch::energy_model::WorkloadMeter;

pub use tcam_obs::hist::{bucket_of, value_of, LatencyHistogram};

/// Counters one shard worker accumulates privately and returns at join.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Worker index within the shard (0 when the shard runs a single
    /// worker; the report carries one entry per worker, not per shard,
    /// when `workers_per_shard > 1`).
    pub worker: usize,
    /// Rules stored in this shard (after replication).
    pub rows: usize,
    /// Searches completed.
    pub searches: u64,
    /// Searches that produced a match.
    pub matched: u64,
    /// Batches processed.
    pub batches: u64,
    /// Searches whose batch waited longer than the configured delay
    /// threshold before a worker picked it up.
    pub delayed_searches: u64,
    /// Keys observed waiting in the queue at the end of refresh events —
    /// traffic directly stalled behind refresh.
    pub stalled_searches: u64,
    /// Table updates (epoch snapshots) applied by this shard's worker.
    pub updates_applied: u64,
    /// Last published epoch this shard serves from (0 = the initial
    /// table) — the per-shard epoch gauge.
    pub epoch: u64,
    /// Largest epoch jump observed at a snapshot swap: newest pending
    /// epoch minus the epoch served before the swap. 1 = the shard always
    /// caught the next epoch promptly; larger = publications piled up
    /// between batch boundaries; 0 = no update was ever applied.
    pub max_epoch_lag: u64,
    /// Wall time spent applying snapshot swaps (draining the update
    /// mailbox between batches).
    pub swap_stall: Duration,
    /// Refresh events executed (one per deadline).
    pub refresh_events: u64,
    /// Refresh operations executed (1/event one-shot, rows/event
    /// row-by-row).
    pub refresh_ops: u64,
    /// Wall time spent inside refresh events.
    pub refresh_stall: Duration,
    /// Largest queue depth (in batches) observed at dequeue.
    pub max_queue_depth: usize,
    /// Wall time spent processing batches.
    pub busy: Duration,
    /// End-to-end per-lookup latency (submit → result), nanoseconds.
    pub latency: LatencyHistogram,
    /// Batch queue-wait latency (submit → dequeue), nanoseconds.
    pub queue_wait: LatencyHistogram,
    /// Update publication latency (publish → swap applied), nanoseconds —
    /// the staleness window of an epoch snapshot.
    pub update_latency: LatencyHistogram,
    /// Modeled per-operation energy/time accounting.
    pub meter: WorkloadMeter,
}

impl ShardStats {
    /// Fresh counters for shard `shard` holding `rows` rules.
    #[must_use]
    pub fn new(shard: usize, rows: usize) -> Self {
        Self {
            shard,
            worker: 0,
            rows,
            searches: 0,
            matched: 0,
            batches: 0,
            delayed_searches: 0,
            stalled_searches: 0,
            updates_applied: 0,
            epoch: 0,
            max_epoch_lag: 0,
            swap_stall: Duration::ZERO,
            refresh_events: 0,
            refresh_ops: 0,
            refresh_stall: Duration::ZERO,
            max_queue_depth: 0,
            busy: Duration::ZERO,
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            update_latency: LatencyHistogram::new(),
            meter: WorkloadMeter::new(),
        }
    }
}

/// Shutdown-time service report: per-shard stats plus aggregates.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-worker counters, one entry per worker thread in spawn order
    /// (shard-major). With one worker per shard — the default — this is
    /// exactly one entry per shard.
    pub shards: Vec<ShardStats>,
    /// Service wall-clock uptime.
    pub wall: Duration,
    /// All shards' lookup latencies merged.
    pub latency: LatencyHistogram,
    /// All shards' queue waits merged.
    pub queue_wait: LatencyHistogram,
    /// All shards' update publication latencies merged.
    pub update_latency: LatencyHistogram,
    /// Table updates rejected because the service had already begun
    /// shutdown when they were published.
    pub updates_dropped: u64,
    /// Worker threads that panicked (or were otherwise unjoinable) at
    /// shutdown — their stats are missing from [`Self::shards`]. Always 0
    /// in a healthy run; shutdown reports it instead of panicking so the
    /// service lifecycle stays drop-safe.
    pub workers_panicked: u64,
    /// All shards' meters merged.
    pub meter: WorkloadMeter,
}

impl ServeReport {
    /// Builds the aggregate view from per-shard stats.
    #[must_use]
    pub fn from_shards(shards: Vec<ShardStats>, wall: Duration, updates_dropped: u64) -> Self {
        let mut latency = LatencyHistogram::new();
        let mut queue_wait = LatencyHistogram::new();
        let mut update_latency = LatencyHistogram::new();
        let mut meter = WorkloadMeter::new();
        for s in &shards {
            latency.merge(&s.latency);
            queue_wait.merge(&s.queue_wait);
            update_latency.merge(&s.update_latency);
            meter.searches += s.meter.searches;
            meter.writes += s.meter.writes;
            meter.refreshes += s.meter.refreshes;
            meter.energy += s.meter.energy;
            meter.busy_time += s.meter.busy_time;
        }
        Self {
            shards,
            wall,
            latency,
            queue_wait,
            update_latency,
            updates_dropped,
            workers_panicked: 0,
            meter,
        }
    }

    /// Total searches completed across shards.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.shards.iter().map(|s| s.searches).sum()
    }

    /// Total searches that found a match.
    #[must_use]
    pub fn matched(&self) -> u64 {
        self.shards.iter().map(|s| s.matched).sum()
    }

    /// Total delayed searches (queue wait above threshold).
    #[must_use]
    pub fn delayed_searches(&self) -> u64 {
        self.shards.iter().map(|s| s.delayed_searches).sum()
    }

    /// Total keys observed stalled behind refresh events.
    #[must_use]
    pub fn stalled_searches(&self) -> u64 {
        self.shards.iter().map(|s| s.stalled_searches).sum()
    }

    /// Total table updates applied across shards.
    #[must_use]
    pub fn updates_applied(&self) -> u64 {
        self.shards.iter().map(|s| s.updates_applied).sum()
    }

    /// Highest epoch any shard reached (0 when no update was ever
    /// published).
    #[must_use]
    pub fn last_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch).max().unwrap_or(0)
    }

    /// Largest epoch lag any shard observed at a snapshot swap.
    #[must_use]
    pub fn max_epoch_lag(&self) -> u64 {
        self.shards.iter().map(|s| s.max_epoch_lag).max().unwrap_or(0)
    }

    /// Total wall time spent applying snapshot swaps across shards.
    #[must_use]
    pub fn swap_stall(&self) -> Duration {
        self.shards.iter().map(|s| s.swap_stall).sum()
    }

    /// Total refresh events across shards.
    #[must_use]
    pub fn refresh_events(&self) -> u64 {
        self.shards.iter().map(|s| s.refresh_events).sum()
    }

    /// Total refresh operations across shards.
    #[must_use]
    pub fn refresh_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.refresh_ops).sum()
    }

    /// Total wall time spent refreshing across shards.
    #[must_use]
    pub fn refresh_stall(&self) -> Duration {
        self.shards.iter().map(|s| s.refresh_stall).sum()
    }

    /// Achieved throughput, lookups/second over the uptime.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.searches() as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Histogram correctness tests live with the type in `tcam-obs`
    // (`crates/obs/src/hist.rs`); these cover the serve-side aggregation.

    #[test]
    fn report_aggregates_shards() {
        let mut s0 = ShardStats::new(0, 10);
        let mut s1 = ShardStats::new(1, 12);
        s0.searches = 100;
        s1.searches = 50;
        s0.delayed_searches = 3;
        s1.stalled_searches = 4;
        s0.latency.record(100);
        s1.latency.record(300);
        s0.updates_applied = 5;
        s0.epoch = 5;
        s1.updates_applied = 3;
        s1.epoch = 7;
        s1.max_epoch_lag = 2;
        s0.swap_stall = Duration::from_micros(5);
        s1.swap_stall = Duration::from_micros(7);
        s0.update_latency.record(2_000);
        let report = ServeReport::from_shards(vec![s0, s1], Duration::from_millis(100), 2);
        assert_eq!(report.searches(), 150);
        assert_eq!(report.delayed_searches(), 3);
        assert_eq!(report.stalled_searches(), 4);
        assert_eq!(report.latency.count(), 2);
        assert_eq!(report.updates_applied(), 8);
        assert_eq!(report.last_epoch(), 7);
        assert_eq!(report.max_epoch_lag(), 2);
        assert_eq!(report.swap_stall(), Duration::from_micros(12));
        assert_eq!(report.updates_dropped, 2);
        assert_eq!(report.update_latency.count(), 1);
        assert!((report.throughput() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn shared_histogram_is_the_obs_type() {
        // The re-export is the single histogram type: quantiles come back
        // midpoint-reported with the exact-max clamp, same as `tcam-obs`.
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(50.0), 502, "midpoint convention");
        assert_eq!(h.quantile(100.0), 1000, "exact max clamp");
        assert_eq!(value_of(bucket_of(77)), 77);
    }
}
