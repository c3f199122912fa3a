//! # nem-tcam
//!
//! A from-scratch Rust reproduction of *"Dynamic Ternary Content-Addressable
//! Memory Is Indeed Promising: Design and Benchmarking Using
//! Nanoelectromechanical Relays"* (DATE 2021): the 3T2N NEM-relay dynamic
//! TCAM, its one-shot refresh scheme, the SRAM/RRAM/FeFET baselines, and the
//! full analog-simulation substrate they are evaluated on.
//!
//! This facade crate re-exports the workspace layers:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | [`numeric`] | `tcam-numeric` | sparse linear algebra, roots, statistics |
//! | [`spice`] | `tcam-spice` | MNA circuit engine: OP, DC sweep, transient |
//! | [`devices`] | `tcam-devices` | NEM relay, MOSFET, RRAM, FeFET models |
//! | [`core`] | `tcam-core` | the TCAM designs + paper experiments |
//! | [`arch`] | `tcam-arch` | functional arrays, refresh scheduling, apps |
//! | [`serve`] | `tcam-serve` | batched lookup service + telemetry |
//! | [`update`] | `tcam-update` | online rule updates: epoch snapshots, churn |
//!
//! # Quickstart
//!
//! ```
//! use nem_tcam::core::bit::parse_ternary;
//! use nem_tcam::arch::TcamArray;
//!
//! # fn main() -> Result<(), nem_tcam::arch::ArchError> {
//! let mut tcam = TcamArray::new(8, 4);
//! tcam.write(0, parse_ternary("1X01").expect("valid"))?;
//! assert_eq!(tcam.first_match(&parse_ternary("1101").expect("valid")), Some(0));
//! # Ok(())
//! # }
//! ```
//!
//! Circuit-level experiments live in [`core::experiments`]; see the
//! `examples/` directory and the `tcam-bench` binaries for the paper's
//! figures.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use tcam_arch as arch;
pub use tcam_core as core;
pub use tcam_devices as devices;
pub use tcam_net as net;
pub use tcam_numeric as numeric;
pub use tcam_serve as serve;
pub use tcam_spice as spice;
pub use tcam_update as update;
