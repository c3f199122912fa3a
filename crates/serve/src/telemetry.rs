//! Latency/throughput telemetry for the lookup service.
//!
//! The histogram type is [`tcam_obs::LatencyHistogram`], re-exported here
//! — this crate no longer defines its own (it moved to `tcam-obs` so the
//! solver, serving, and bench layers share one implementation and one set
//! of correctness tests).
//!
//! [`ShardStats`] is the counter block the serving worker owns (no
//! sharing, no atomics on the hot path) and [`ServeReport`] is the
//! shutdown-time report built from it. The worker also mirrors coarse
//! aggregates into the global `tcam-obs` registry at batch-boundary
//! flushes (see `pool.rs`), so a long-running serve loop is observable
//! before shutdown; the report stays the exact, complete record.

use std::time::Duration;
use tcam_arch::energy_model::WorkloadMeter;

pub use tcam_obs::hist::{bucket_of, value_of, LatencyHistogram};

/// Counters the serving worker accumulates privately and returns at join.
/// At shutdown, the block also takes in the lookups answered on callers'
/// threads ([`ShardPool::answer_here`]), so the report counts every key
/// the table served.
///
/// [`ShardPool::answer_here`]: crate::pool::ShardPool::answer_here
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Table index (0: a pool serves one table).
    pub shard: usize,
    /// Rules stored in the table.
    pub rows: usize,
    /// Searches completed.
    pub searches: u64,
    /// Searches that produced a match.
    pub matched: u64,
    /// Batches processed.
    pub batches: u64,
    /// Keys observed waiting in the queue at the end of refresh events,
    /// plus caller-run keys that waited for an event to end — traffic
    /// directly stalled behind refresh.
    pub stalled_searches: u64,
    /// Snapshot swaps this worker made: times it found a newer epoch in
    /// the published cell and switched to it. At most the number
    /// of publications — epochs that superseded each other between two of
    /// the worker's swap points cost one swap, not one each.
    pub updates_applied: u64,
    /// The epoch this worker serves from (0 = the initial table) — after
    /// shutdown, the last epoch published.
    pub epoch: u64,
    /// Largest epoch jump observed at a snapshot swap: the published
    /// epoch minus the epoch served before the swap. 1 = the worker always
    /// caught the next epoch; larger = publications superseded each other
    /// between its swap points; 0 = it never swapped.
    pub max_epoch_lag: u64,
    /// Refresh events executed (one per deadline).
    pub refresh_events: u64,
    /// Refresh operations executed (1/event one-shot, rows/event
    /// row-by-row).
    pub refresh_ops: u64,
    /// Wall time spent inside refresh events.
    pub refresh_stall: Duration,
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
    /// Fresh counters for table `shard` holding `rows` rules.
    #[must_use]
    pub fn new(shard: usize, rows: usize) -> Self {
        Self {
            shard,
            rows,
            ..Self::default()
        }
    }

    /// Adds what caller-run lookups accounted (searches, matches, batches,
    /// refresh stalls, latency and energy) to this block.
    pub(crate) fn absorb(&mut self, caller_run: &ShardStats) {
        self.searches += caller_run.searches;
        self.matched += caller_run.matched;
        self.batches += caller_run.batches;
        self.stalled_searches += caller_run.stalled_searches;
        self.latency.merge(&caller_run.latency);
        self.meter.merge(&caller_run.meter);
    }
}

/// Shutdown-time service report: the worker's stats plus aggregates.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The worker's counters: one entry, or none when the worker
    /// panicked.
    pub shards: Vec<ShardStats>,
    /// The entries' lookup latencies merged.
    pub latency: LatencyHistogram,
    /// The entries' queue waits merged.
    pub queue_wait: LatencyHistogram,
    /// The entries' update publication latencies merged.
    pub update_latency: LatencyHistogram,
    /// Worker threads that panicked (or were otherwise unjoinable) at
    /// shutdown — their stats are missing from [`Self::shards`]. Always 0
    /// in a healthy run; shutdown reports it instead of panicking so the
    /// service lifecycle stays drop-safe.
    pub workers_panicked: u64,
    /// The entries' meters merged.
    pub meter: WorkloadMeter,
}

impl ServeReport {
    /// Builds the aggregate view from per-shard stats.
    #[must_use]
    pub fn from_shards(shards: Vec<ShardStats>) -> Self {
        let mut latency = LatencyHistogram::new();
        let mut queue_wait = LatencyHistogram::new();
        let mut update_latency = LatencyHistogram::new();
        let mut meter = WorkloadMeter::new();
        for s in &shards {
            latency.merge(&s.latency);
            queue_wait.merge(&s.queue_wait);
            update_latency.merge(&s.update_latency);
            meter.merge(&s.meter);
        }
        Self {
            shards,
            latency,
            queue_wait,
            update_latency,
            workers_panicked: 0,
            meter,
        }
    }

    /// Total searches completed across shards.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.shards.iter().map(|s| s.searches).sum()
    }

    /// Total keys observed stalled behind refresh events.
    #[must_use]
    pub fn stalled_searches(&self) -> u64 {
        self.shards.iter().map(|s| s.stalled_searches).sum()
    }

    /// Total snapshot swaps across workers.
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
        s1.stalled_searches = 4;
        s0.latency.record(100);
        s1.latency.record(300);
        s0.updates_applied = 5;
        s0.epoch = 5;
        s1.updates_applied = 3;
        s1.epoch = 7;
        s0.update_latency.record(2_000);
        let report = ServeReport::from_shards(vec![s0, s1]);
        assert_eq!(report.searches(), 150);
        assert_eq!(report.stalled_searches(), 4);
        assert_eq!(report.latency.count(), 2);
        assert_eq!(report.updates_applied(), 8);
        assert_eq!(report.last_epoch(), 7);
        assert_eq!(report.update_latency.count(), 1);
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
