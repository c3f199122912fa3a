//! `tcam-serve`: a sharded, batched TCAM lookup service with
//! refresh-aware scheduling and latency/throughput telemetry.
//!
//! The lower layers of this workspace establish *device-level* numbers
//! for the paper's 3T2N NEM-relay dynamic TCAM — search energy, refresh
//! cost, retention — and simulate refresh interference event by event. This
//! crate asks the system-level question those numbers exist to answer:
//! **what does a dynamic TCAM look like as a serving component**, where
//! refresh is not a line in a trace but a recurring deadline competing
//! with live traffic for the array?
//!
//! The pieces:
//!
//! * [`shard::ShardedRuleSet`] — prefix-range sharding of a ternary rule
//!   set with don't-care replication, provably equivalent to a monolithic
//!   array (property-tested against the oracle).
//! * [`pool::ShardPool`] — the one serving core: per shard, a bounded
//!   [`queue::BoundedQueue`] (blocking push = backpressure, `try_submit`
//!   = load shedding), `workers_per_shard` worker threads draining
//!   batched searches through the table's kernel, refresh events on
//!   schedule per [`BankRefresh`] policy, and a published-snapshot cell
//!   that rule updates swap whole tables through.
//! * [`service::TcamService`] — the pool over bit-packed ternary tables
//!   plus the *route-to-one* plan (a key's prefix bits name its shard).
//! * [`telemetry`] — HDR-style log-bucketed latency histograms
//!   (p50/p95/p99/p999), per-shard counters, refresh-stall gauges, and
//!   energy via the arch crate's `WorkloadMeter`.
//! * [`workload`] — router-LPM and ACL-classifier rule/key generators.
//!
//! `stack_bench` (the repo's one benchmark, its own package) measures
//! these layers end to end and one by one.
//!
//! ```
//! use tcam_serve::service::{ServiceConfig, TcamService};
//! use tcam_serve::shard::ShardedRuleSet;
//! use tcam_serve::workload::Workload;
//!
//! let w = Workload::router_lpm(128, 256, 42);
//! let reference = ShardedRuleSet::build(&w.words, 2).unwrap();
//! let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
//! let service = TcamService::start(rules, &ServiceConfig::default()).unwrap();
//! for key in &w.keys {
//!     assert_eq!(service.search_blocking(key).unwrap(), reference.search(key).unwrap());
//! }
//! let report = service.shutdown();
//! assert_eq!(report.searches(), 256);
//! assert!(report.latency.quantile(99.0) >= report.latency.quantile(50.0));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod pool;
pub mod queue;
pub mod service;
pub mod shard;
pub mod telemetry;
pub mod workload;

pub use error::{Result, ServeError};
pub use pool::ShardPool;
pub use queue::{BoundedQueue, TryPushError};
pub use service::{BatchReply, SearchBatch, ServiceConfig, TcamService};
pub use shard::{RowOps, ShardRouter, ShardedRuleSet};
pub use telemetry::{LatencyHistogram, ServeReport, ShardStats};
pub use workload::Workload;

// Re-exported so service configuration reads naturally at the call site.
pub use tcam_arch::bank::BankRefresh;
