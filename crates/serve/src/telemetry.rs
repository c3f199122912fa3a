//! Latency/throughput telemetry for the lookup service.
//!
//! The histogram type is [`tcam_obs::LatencyHistogram`], re-exported here
//! — this crate no longer defines its own (it moved to `tcam-obs` so the
//! solver, serving, and bench layers share one implementation and one set
//! of correctness tests).
//!
//! [`ShardStats`] is the table's counter block: lookups, publications and
//! refresh events write it under one lock, each once per call or event,
//! never per key. [`ServeReport`] is what shutdown takes from it. Shutdown
//! also mirrors the counters into the global `tcam-obs` registry (see
//! `pool.rs`); the report stays the exact, complete record.

use std::time::Duration;
use tcam_arch::energy_model::WorkloadMeter;

pub use tcam_obs::hist::{bucket_of, value_of, LatencyHistogram};

/// The table's counters, written by every lookup
/// ([`ShardPool::answer_here`]), every accepted publication and every
/// refresh event.
///
/// [`ShardPool::answer_here`]: crate::pool::ShardPool::answer_here
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Rules stored in the table at shutdown.
    pub rows: usize,
    /// Searches completed.
    pub searches: u64,
    /// Searches that produced a match.
    pub matched: u64,
    /// Lookup calls answered (one per batch of keys).
    pub batches: u64,
    /// Keys whose lookup waited for a refresh event to end — traffic
    /// directly stalled behind refresh.
    pub stalled_searches: u64,
    /// Publications the cell accepted (a stale or repeated epoch is
    /// refused and not counted).
    pub updates_applied: u64,
    /// The epoch the cell held at shutdown: the last one published (0 =
    /// the initial table).
    pub epoch: u64,
    /// Refresh events executed (one per deadline).
    pub refresh_events: u64,
    /// Refresh operations executed (1/event one-shot, rows/event
    /// row-by-row).
    pub refresh_ops: u64,
    /// Wall time spent inside refresh events.
    pub refresh_stall: Duration,
    /// Per-lookup latency (the match call, refresh wait included),
    /// nanoseconds.
    pub latency: LatencyHistogram,
    /// Modeled per-operation energy/time accounting.
    pub meter: WorkloadMeter,
}

/// Shutdown-time service report.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// The table's counters.
    pub stats: ShardStats,
    /// Whether the refresh clock thread panicked (or was otherwise
    /// unjoinable) at shutdown. Shutdown reports it instead of panicking
    /// so the service lifecycle stays drop-safe.
    pub clock_panicked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    // Histogram correctness tests live with the type in `tcam-obs`
    // (`crates/obs/src/hist.rs`).

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
