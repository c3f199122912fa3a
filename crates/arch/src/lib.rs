//! Architectural layer of the `nem-tcam` project.
//!
//! Where `tcam-core` answers "how fast/expensive is one operation at
//! circuit level", this crate answers the system questions:
//!
//! * [`mod@array`] — a functional ternary CAM with priority encoding, the
//!   abstraction applications program against.
//! * [`energy_model`] — per-operation costs (paper values or `tcam-core`
//!   measurements) and workload accounting.
//! * [`packed`] — bit-packed ternary words and arrays for the serving path
//!   (`tcam-serve`), matching millions of keys per second; rows are
//!   always stored in ascending id (= priority) order, a removed row
//!   leaves a hole, and an insert moves rows only as far as the nearest
//!   hole.
//! * [`kernel`] — the bit-sliced match-line kernel behind
//!   [`packed::PackedTcamArray::first_match_batch`]: two row bitmaps per
//!   64-row block and bit column, so one AND resolves a column for 64
//!   rows; per-block summaries of the first two column groups skip blocks
//!   that cannot match before touching them, a dead block is left early,
//!   and `trailing_zeros` is the priority encoder.
//! * [`bank`] — [`bank::BankRefresh`], the one refresh model (none /
//!   one-shot / row-by-row): operations per event, the time of one and its
//!   energy from [`OperationCosts`]. The `tcam-serve` refresh clock and
//!   [`refresh_sched`] both run on it.
//! * [`refresh_sched`] — event-driven simulation of refresh interference:
//!   row-by-row refresh vs the paper's one-shot refresh under search
//!   traffic, counting the searches each policy's refresh delays.
//! * [`apps`] — longest-prefix-match routing and ACL packet
//!   classification with range-to-prefix expansion.
//!
//! # Example — one-shot refresh barely interferes with traffic
//!
//! ```
//! use tcam_arch::refresh_sched::{compare_policies, RefreshSimConfig};
//! use tcam_arch::OperationCosts;
//!
//! let config = RefreshSimConfig {
//!     rows: 64,
//!     costs: OperationCosts::paper_3t2n(), // 26.5 µs retention, 520 fJ OSR
//!     search_rate: 50e6,                   // 50 Msearch/s
//!     search_time: 5e-9,
//!     duration: 1e-3, // simulate 1 ms
//!     seed: 1,
//! };
//! let (row_by_row, one_shot) = compare_policies(&config, 10e-9); // 10 ns ops
//! assert!(one_shot.refresh_delayed_searches * 10 < row_by_row.refresh_delayed_searches);
//! assert!(one_shot.refresh_energy < row_by_row.refresh_energy);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod apps;
pub mod array;
pub mod bank;
pub mod energy_model;
pub mod kernel;
pub mod packed;
pub mod refresh_sched;

pub use array::{ArchError, TcamArray};
pub use bank::BankRefresh;
pub use energy_model::{OperationCosts, WorkloadMeter};
pub use packed::{PackedTcamArray, PackedWord};
pub use refresh_sched::{simulate, RefreshSimConfig, RefreshSimReport};
