//! Latency/throughput telemetry for the lookup service.
//!
//! The histogram type is [`tcam_obs::LatencyHistogram`]: the solver,
//! serving, and bench layers share one implementation and one set of
//! correctness tests.
//!
//! [`ShardStats`] is the table's counter block: lookups, publications and
//! refresh events write it under one lock, each once per call or event,
//! never per key. [`ServeReport`] is what shutdown takes from it. Shutdown
//! also mirrors the counters into the global `tcam-obs` registry (see
//! `pool.rs`); the report stays the exact, complete record.

use std::time::Duration;
use tcam_arch::energy_model::WorkloadMeter;
use tcam_obs::LatencyHistogram;

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
    /// How late each refresh event began: the moment the clock held the
    /// refresh lock minus the event's deadline, nanoseconds, one value
    /// per event. A clock that lookups keep off the lock shows here.
    pub refresh_lateness: LatencyHistogram,
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
