//! A SPICE-class analog circuit simulation engine.
//!
//! `tcam-spice` provides the simulation substrate for the `nem-tcam`
//! project: modified nodal analysis (MNA) with damped Newton–Raphson,
//! adaptive-timestep transient integration (Backward Euler / Trapezoidal),
//! DC operating point, quasi-static DC sweeps for hysteresis tracing,
//! energy-metered sources, waveform capture, `.meas` style measurements,
//! and a SPICE-like netlist parser.
//!
//! There is one solver configuration. A Newton failure always walks the
//! recovery ladder — gmin ramp, source stepping (operating point),
//! TR→BE fallback (transient), dt shrink — and each step, iteration and
//! factorization is counted once, in the [`trace::SolverTrace`] a
//! transient [`waveform::Waveform`] carries. [`options::SimOptions`] holds
//! the ten values some caller in this repository sets (`gmin`,
//! `max_nr_iters`, `integrator`, `reuse_factorization`, `dt_initial`,
//! `dt_min`, `dt_max`, `lte_tol`, `gmin_step_start`, `gmin_step_decades`);
//! a tolerance with one value everywhere is a constant beside the code
//! that reads it.
//!
//! Circuit elements implement the [`device::Device`] trait; the built-in
//! linear elements live in [`element`], while the nonlinear NEM relay,
//! MOSFET, RRAM and FeFET models live in the `tcam-devices` crate.
//!
//! # Quick example — RC step response
//!
//! ```
//! use tcam_spice::prelude::*;
//!
//! # fn main() -> std::result::Result<(), tcam_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("vin");
//! let out = ckt.node("out");
//! let gnd = ckt.gnd();
//! ckt.add(VoltageSource::new("v1", vin, gnd, Waveshape::step(0.0, 1.0, 0.0, 1e-12)))?;
//! ckt.add(Resistor::new("r1", vin, out, 1e3)?)?;
//! ckt.add(Capacitor::new("c1", out, gnd, 1e-9)?)?;
//!
//! let wave = transient(&mut ckt, TransientSpec::to(5e-6), &SimOptions::default())?;
//! assert!((wave.last("v(out)")? - 1.0).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod device;
pub mod element;
pub mod error;
pub mod measure;
pub mod mna;
pub mod netlist;
pub mod newton;
pub mod node;
pub mod options;
pub mod parser;
pub mod source;
pub mod trace;
pub mod units;
pub mod waveform;

pub use error::{Result, SpiceError};

/// Convenient glob import for application code.
pub mod prelude {
    pub use crate::analysis::{dc_sweep, operating_point, transient, DcSweepSpec, TransientSpec};
    pub use crate::device::{
        AnalysisKind, BranchId, CommitCtx, Device, EvalCtx, Stamps, UnknownIndex,
    };
    pub use crate::element::{
        Capacitor, CurrentSource, Inductor, Resistor, VSwitch, VoltageSource,
    };
    pub use crate::error::{Result, SpiceError};
    pub use crate::measure::{cross_time, delta, integral, min_max, settled, Edge};
    pub use crate::mna::{MnaSystem, SolveStats};
    pub use crate::netlist::Circuit;
    pub use crate::node::NodeId;
    pub use crate::options::{Integrator, SimOptions};
    pub use crate::source::Waveshape;
    pub use crate::trace::{RejectReason, Rung, SolverTrace};
    pub use crate::waveform::Waveform;
}
