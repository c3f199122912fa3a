//! `tcam-obs`: the workspace's observability substrate — one histogram
//! type, one metrics registry, one span tracer, one set of exporters.
//!
//! Zero external dependencies (the offline-build rule), zero atomics on
//! the recording hot path (thread-local buffers merged at
//! [`registry::flush`]), and one switch to make it free: the runtime
//! [`registry::set_enabled`] (one relaxed atomic load per recording
//! call).
//!
//! * [`hist`] — the shared [`LatencyHistogram`] (moved from `tcam-serve`).
//! * [`registry`] — named counters/gauges/histograms + phase totals,
//!   [`registry::snapshot`] to read.
//! * [`mod@span`] — `let _g = span!("lu_factorize");` RAII phase timing with
//!   self-time accounting.
//! * [`export`] — Prometheus text and flat JSON (parseable by
//!   `tcam_bench::jsonline`).
//!
//! The contract: phase self-times cover ≥ 90 % of wall time on the hot
//! stacks (`cargo test`s in `tcam-core` and `tcam-serve`), and what
//! watching costs is a `stack_bench` metric (`obs_traced_overhead_pct`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod export;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use export::json_escape;
pub use flight::{
    flight_dump, flight_dump_count, flight_last_dump, flight_record, flight_reset,
    install_panic_hook, FlightEvent,
};
pub use hist::LatencyHistogram;
pub use registry::{
    counter_add, enabled, flush, gauge_set, hist_merge, hist_record, phase_mark, phases_since,
    set_enabled, snapshot, PhaseMark, PhaseStat, Snapshot,
};
pub use slo::{
    slo_flat_fragment, slo_json_array, slo_prometheus, slo_record, slo_report, slo_reset,
    SloWindow, SLO_WINDOWS_SECS,
};
pub use span::SpanGuard;
pub use trace::{
    next_trace_id, trace_exemplars, trace_exemplars_json, trace_lookup, trace_recent,
    trace_store_reset, Hop, RequestTrace, TraceContext, TraceRecord, TRACE_CONTEXT_BYTES,
};

/// Serializes tests that toggle the global enabled flag or read global
/// totals, so parallel test threads can't interleave.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
