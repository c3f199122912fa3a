//! Retention-time measurement of the dynamic 3T2N cell (paper §IV-B).
//!
//! After a one-shot refresh the storage node of a stored '1' sits at
//! `V_R`; the OFF write transistor's subthreshold leakage then drains the
//! relay's gate capacitance toward the grounded bitline. The bit is lost
//! when the gate–body voltage falls below the pull-out voltage and the
//! relay releases. Retention time is the interval from refresh to release.

use crate::bit::TernaryBit;
use crate::designs::{ArraySpec, Nem3t2n};
use tcam_spice::analysis::{transient, TransientSpec};
use tcam_spice::element::VoltageSource;
use tcam_spice::error::Result;
use tcam_spice::measure::{cross_time, Edge};
use tcam_spice::netlist::Circuit;
use tcam_spice::options::SimOptions;
use tcam_spice::waveform::Waveform;

/// Outcome of the retention experiment.
#[derive(Debug)]
pub struct RetentionResult {
    /// Time from the refresh level to relay release, seconds; `None` when
    /// the state survived the whole simulated window.
    pub retention: Option<f64>,
    /// Storage-node voltage at the end of the window.
    pub v_final: f64,
    /// The simulation record.
    pub waveform: Waveform,
}

impl RetentionResult {
    /// Average refresh power of a whole array: one OSR of `osr_energy`
    /// joules every retention interval.
    ///
    /// Returns `None` when retention exceeded the simulated window (the
    /// honest answer is then a lower bound, not a number).
    #[must_use]
    pub fn refresh_power(&self, osr_energy: f64) -> Option<f64> {
        self.retention.map(|t| osr_energy / t)
    }
}

/// Measures the hold time of a stored '1' starting from the refresh level
/// `v_start`, simulating up to `t_max` seconds.
///
/// The cell hangs on grounded word/bit/search lines exactly as in the hold
/// state of a real array.
///
/// # Errors
///
/// [`tcam_spice::SpiceError::InvalidCircuit`] for a degenerate `spec`;
/// propagates circuit-simulation failures.
pub fn run_retention(
    design: &Nem3t2n,
    spec: &ArraySpec,
    v_start: f64,
    t_max: f64,
) -> Result<RetentionResult> {
    let mut ckt = Circuit::new();
    let gnd = ckt.gnd();

    // One held cell; all lines quiet at ground. Lines still get their wire
    // capacitance (they couple leakage realistically).
    let (wls, bl, blb) =
        design.build_held_slice(&mut ckt, spec, &[TernaryBit::One], v_start, 0.0)?;
    let wl = wls[0];
    ckt.add(VoltageSource::dc("vwl", wl, gnd, 0.0))?;
    ckt.add(VoltageSource::dc("vbl", bl, gnd, 0.0))?;
    ckt.add(VoltageSource::dc("vblb", blb, gnd, 0.0))?;

    // Long-horizon run: loosen the LTE knob (the decay is a µs-scale ramp)
    // and let steps grow.
    // The default gmin (1 pS) would swamp the picoamp subthreshold leakage
    // that sets retention; drop it to attosiemens for this analysis. The
    // decay is a µs-scale ramp, so the LTE knob loosens and steps grow.
    let opts = SimOptions {
        dt_max: t_max / 500.0,
        lte_tol: 5e-3,
        gmin: 1e-18,
        ..SimOptions::default()
    };
    let wave = transient(&mut ckt, TransientSpec::to(t_max), &opts)?;

    let retention = match cross_time(&wave, "r0_n1.contact", 0.5, Edge::Falling, 0.0) {
        Ok(t) => Some(t),
        Err(tcam_spice::SpiceError::NotFound(_)) => None,
        Err(e) => return Err(e),
    };
    let v_final = wave.last("v(r0_q)")?;
    Ok(RetentionResult {
        retention,
        v_final,
        waveform: wave,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_one_decays_and_releases() {
        let d = Nem3t2n::default();
        let spec = ArraySpec::paper();
        let res = run_retention(&d, &spec, crate::osr::V_REFRESH, 100e-6).unwrap();
        let t = res.retention.expect("leakage must eventually release");
        // Paper: ≈ 26.5 µs. Same order of magnitude is the target here;
        // the exact value is a leakage calibration.
        assert!(
            t > 5e-6 && t < 90e-6,
            "retention = {t:.3e}s, expected tens of µs"
        );
        let p = res.refresh_power(520e-15).unwrap();
        assert!(p > 1e-9 && p < 2e-7, "refresh power = {p:.3e} W");
    }

    #[test]
    fn degenerate_spec_is_an_error() {
        let spec = ArraySpec {
            cols: 0,
            ..ArraySpec::small()
        };
        let res = run_retention(&Nem3t2n::default(), &spec, crate::osr::V_REFRESH, 1e-6);
        assert!(matches!(
            res,
            Err(tcam_spice::SpiceError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn short_window_reports_survival() {
        let d = Nem3t2n::default();
        let spec = ArraySpec::paper();
        let res = run_retention(&d, &spec, crate::osr::V_REFRESH, 1e-6).unwrap();
        assert!(res.retention.is_none(), "1 µs is far below retention");
        assert!(res.v_final > 0.3, "barely any decay after 1 µs");
        assert!(res.refresh_power(520e-15).is_none());
    }
}
