//! `tcam-serve`: a batched TCAM lookup service with
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
//! * [`shard::ShardedRuleSet`] — a ternary rule set: one bit-packed
//!   table, the rules' only copy, shared copy-on-write with the snapshot
//!   it publishes, property-tested against the monolithic `TcamArray`
//!   oracle. The match kernel's block summary pre-selects the
//!   64-row blocks a key searches.
//! * [`pool::ShardPool`] — the one serving core: lookups matched on the
//!   caller's own thread (`answer_here`) through the table's kernel, one
//!   thread that keeps the refresh clock per
//!   [`BankRefresh`](tcam_arch::bank::BankRefresh) policy, and
//!   a published-snapshot cell that rule updates swap whole tables
//!   through.
//! * [`service::TcamService`] — the pool over one packed table plus the
//!   table's word width.
//! * [`telemetry`] — HDR-style log-bucketed latency histograms
//!   (p50/p95/p99/p999), the table's counters, refresh stalls, and
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
//! let reference = ShardedRuleSet::build(&w.words, 0).unwrap();
//! let rules = reference.clone();
//! let service = TcamService::start(rules, &ServiceConfig::default()).unwrap();
//! for key in &w.keys {
//!     assert_eq!(service.search_blocking(key).unwrap(), reference.search(key).unwrap());
//! }
//! let stats = service.shutdown().stats;
//! assert_eq!(stats.searches, 256);
//! assert!(stats.latency.quantile(99.0) >= stats.latency.quantile(50.0));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod pool;
pub mod service;
pub mod shard;
pub mod telemetry;
pub mod workload;

pub use error::{Result, ServeError};
pub use pool::ShardPool;
pub use service::{BatchReply, SearchBatch, ServiceConfig, TcamService};
pub use shard::{RowOps, ShardedRuleSet};
pub use telemetry::{ServeReport, ShardStats};
pub use workload::Workload;
