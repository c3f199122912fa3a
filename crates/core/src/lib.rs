//! The 3T2N NEM-relay dynamic TCAM and its benchmarking baselines.
//!
//! This crate implements the paper's contribution at circuit level:
//!
//! * [`bit`] — ternary values and the TCAM match rule.
//! * [`parasitics`] — cell footprints and line-capacitance scaling.
//! * [`designs`] — SPICE-level experiment builders for the **3T2N** cell
//!   (the paper's design) and the **16T SRAM**, **2T2R RRAM** and
//!   **2FeFET** baselines.
//! * [`ops`] — running write/search experiments and extracting latency,
//!   energy and EDP.
//! * [`array_search`] — full-array parallel search (Fig. 1b): many words,
//!   shared search lines, one matchline each.
//! * [`osr`] — the one-shot refresh scheme (§III-D) and its array energy.
//! * [`disturb`] — the 2FeFET half-select write-disturb study (§II's
//!   "vulnerable to read and write disturbances"), with the 3T2N
//!   disturb-free counterpart.
//! * [`fault`] — deterministic fault injection (the chaos probe) for
//!   sweep-robustness tests and benches.
//! * [`retention`] — dynamic-cell hold time under subthreshold leakage.
//! * [`experiments`] — orchestration of every table/figure in the paper.
//! * [`metrics`] — ratio computation and report formatting.
//! * [`variation`] — Monte-Carlo device-variation study of the sensing
//!   margin (the paper's Fig. 7c caveat, quantified).
//!
//! # Example — search a word on the 3T2N matchline
//!
//! ```no_run
//! use tcam_core::bit::parse_ternary;
//! use tcam_core::designs::{ArraySpec, Nem3t2n, TcamDesign};
//! use tcam_core::ops::run_search;
//!
//! # fn main() -> Result<(), tcam_spice::SpiceError> {
//! let spec = ArraySpec { rows: 8, cols: 4, vdd: 1.0 };
//! let stored = parse_ternary("1X01").expect("valid ternary");
//! let key = parse_ternary("1101").expect("valid ternary");
//! let design = Nem3t2n::default();
//! let result = run_search(design.build_search(&spec, &stored, &key)?)?;
//! assert!(result.functional_ok);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod array_search;
pub mod bit;
pub mod designs;
pub mod disturb;
pub mod experiments;
pub mod fault;
pub mod metrics;
pub mod ops;
pub mod osr;
pub mod parasitics;
pub mod retention;
pub mod variation;

pub use bit::TernaryBit;
pub use designs::{ArraySpec, Fefet2f, Nem3t2n, Rram2t2r, Sram16t, TcamDesign};
