//! Circuit analyses: operating point, DC sweep, transient.

mod dcsweep;
mod op;
mod transient;

pub use dcsweep::{dc_sweep, DcSweepSpec};
pub use op::{operating_point, operating_point_traced, OpSolution};
pub use transient::{transient, TransientSpec};
