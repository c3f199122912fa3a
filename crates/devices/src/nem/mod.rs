//! The nanoelectromechanical (NEM) relay model.
//!
//! * [`mechanics`] — the lumped beam physics (spring–mass–damper with
//!   electrostatic drive, contact capture, adhesive release).
//! * [`mod@calibrate`] — solves beam parameters from the paper's Table I
//!   electrical targets.
//! * [`relay`] — the circuit-level [`NemRelay`] device.

pub mod calibrate;
pub mod mechanics;
pub mod relay;

pub use calibrate::{calibrate, calibrate_cached, CalibrateNemError};
pub use mechanics::{BeamParams, BeamState};
pub use relay::{NemRelay, R_OFF_LEAK};
