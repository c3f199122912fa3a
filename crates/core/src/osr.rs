//! One-shot refresh (OSR) of the 3T2N array — the paper's §III-D / §IV-B.
//!
//! OSR exploits the relay's hysteresis window: charging *every* storage
//! node to a refresh voltage `V_R` with `V_PO < V_R < V_PI` restores the
//! charge of stored '1's without disturbing stored '0's, so the whole array
//! refreshes in a single operation (all wordlines up, all bitlines at
//! `V_R`) instead of row-by-row read–write cycles.
//!
//! The experiment simulates a full **column slice** (`rows` cells sharing
//! one bitline pair, each with its own wordline carrying the full row's
//! gate load). Array cost is then assembled without double counting:
//! wordline energy is complete in the slice; bitline energy multiplies by
//! the column count.

use crate::bit::TernaryBit;
use crate::designs::{add_pulse_driver, ArraySpec, Nem3t2n};
use tcam_numeric::parallel::parallel_map;
use tcam_spice::analysis::{transient, TransientSpec};
use tcam_spice::element::VoltageSource;
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::options::SimOptions;
use tcam_spice::waveform::Waveform;

/// Default refresh voltage: a little below V_PI for noise margin (§IV-B).
pub const V_REFRESH: f64 = 0.5;

/// Worst-case decayed storage level of a '1' entering the refresh (just
/// above V_PO, about to be restored to V_R).
const V_STORE_DECAYED: f64 = 0.3;

/// Bitline drive instant.
const T_BL: f64 = 0.8e-9;
/// Wordline pulse instant and width.
const T_WL: f64 = 1.0e-9;
const WL_WIDTH: f64 = 4e-9;
/// Experiment end (after lines restore).
const T_STOP: f64 = 7e-9;

/// Outcome of the OSR experiment.
#[derive(Debug)]
pub struct OsrResult {
    /// Energy of one OSR of the whole `rows × cols` array, joules.
    pub energy_array: f64,
    /// Wordline-driver share (already whole-array), joules.
    pub energy_wordlines: f64,
    /// Bitline-driver share (whole-array: slice × cols), joules.
    pub energy_bitlines: f64,
    /// Whether every relay kept its state through the refresh.
    pub states_preserved: bool,
    /// Lowest / highest storage-node voltage right after the refresh
    /// (both should sit near `V_R`).
    pub q_after: (f64, f64),
    /// The slice simulation record.
    pub waveform: Waveform,
}

/// Runs the one-shot refresh experiment on a column slice of the array.
///
/// `pattern(row)` gives each row's stored bit (defaults alternate 1/0 when
/// you pass [`osr_default_pattern`]). `v_refresh` must lie inside the
/// relay's hysteresis window or states will flip (which the result
/// reports rather than hides — that *is* the V_R design-margin experiment).
///
/// # Errors
///
/// [`tcam_spice::SpiceError::InvalidCircuit`] for a degenerate `spec`;
/// propagates circuit-simulation failures.
pub fn run_osr(
    design: &Nem3t2n,
    spec: &ArraySpec,
    v_refresh: f64,
    pattern: impl Fn(usize) -> TernaryBit,
) -> Result<OsrResult> {
    let (mut ckt, stored) = build_osr_slice(design, spec, v_refresh, &pattern)?;
    let wave = transient(&mut ckt, TransientSpec::to(T_STOP), &SimOptions::default())?;
    measure_osr(&ckt, wave, spec, &stored)
}

/// Builds the OSR column-slice circuit at one refresh voltage.
fn build_osr_slice(
    design: &Nem3t2n,
    spec: &ArraySpec,
    v_refresh: f64,
    pattern: &impl Fn(usize) -> TernaryBit,
) -> Result<(Circuit, Vec<TernaryBit>)> {
    let mut ckt = Circuit::new();
    let stored: Vec<TernaryBit> = (0..spec.rows).map(pattern).collect();

    // Each wordline also carries the OTHER columns' write-transistor gates,
    // two per cell (this column's are in the cell devices).
    let tw = tcam_devices::mosfet::MosParams::nmos_45lp().scaled_width(design.tw_width);
    let wl_load = 2.0 * (tw.cgs + tw.cgd + tw.cgb);
    let (wls, bl, blb) =
        design.build_held_slice(&mut ckt, spec, &stored, V_STORE_DECAYED, wl_load)?;

    for (r, &wl) in wls.iter().enumerate() {
        let name = format!("vwl{r}");
        add_pulse_driver(
            &mut ckt,
            &name,
            wl,
            0.0,
            design.v_pp_refresh,
            T_WL,
            WL_WIDTH,
        )?;
    }
    // Bitline pair at V_R for the refresh window, back to 0 after.
    for (name, line) in [("vbl", bl), ("vblb", blb)] {
        add_pulse_driver(
            &mut ckt,
            name,
            line,
            0.0,
            v_refresh,
            T_BL,
            WL_WIDTH + 0.6e-9,
        )?;
    }
    Ok((ckt, stored))
}

/// Extracts the OSR metrics from a completed slice transient.
fn measure_osr(
    ckt: &Circuit,
    wave: Waveform,
    spec: &ArraySpec,
    stored: &[TernaryBit],
) -> Result<OsrResult> {
    // State preservation + storage levels at the end of the WL pulse.
    let t_check = T_WL + WL_WIDTH - 0.2e-9;
    let mut preserved = true;
    let mut q_min = f64::INFINITY;
    let mut q_max = f64::NEG_INFINITY;
    for (r, bit) in stored.iter().enumerate() {
        let (s, sb) = bit.differential();
        for (relay, expect_on) in [("n1", s), ("n2", sb)] {
            let c = wave.last(&format!("r{r}_{relay}.contact"))?;
            if (c > 0.5) != expect_on {
                preserved = false;
            }
        }
        for node in ["q", "qb"] {
            let v = wave.sample(&format!("v(r{r}_{node})"), t_check)?;
            q_min = q_min.min(v);
            q_max = q_max.max(v);
        }
    }

    // Energy assembly (see module docs).
    let mut e_wl = 0.0;
    for r in 0..spec.rows {
        e_wl += ckt
            .device_as::<VoltageSource>(&format!("vwl{r}"))?
            .sourced_energy();
    }
    let e_bl_slice = ckt.device_as::<VoltageSource>("vbl")?.sourced_energy()
        + ckt.device_as::<VoltageSource>("vblb")?.sourced_energy();
    let e_bl = e_bl_slice * spec.cols as f64;

    Ok(OsrResult {
        energy_array: e_wl + e_bl,
        energy_wordlines: e_wl,
        energy_bitlines: e_bl,
        states_preserved: preserved,
        q_after: (q_min, q_max),
        waveform: wave,
    })
}

/// Sweeps the refresh voltage across `v_levels` — the V_R design-margin
/// experiment. Each level is an independent [`run_osr`] on the worker
/// pool; results come back per level in input order, identical to running
/// the levels serially. A level that fails (circuit construction or a
/// non-convergent corner) is an `Err` entry and never aborts the other
/// levels.
#[must_use]
pub fn osr_refresh_window(
    design: &Nem3t2n,
    spec: &ArraySpec,
    v_levels: &[f64],
    pattern: impl Fn(usize) -> TernaryBit + Sync,
) -> Vec<(f64, Result<OsrResult>)> {
    parallel_map(v_levels.to_vec(), |vr| {
        (vr, run_osr(design, spec, vr, &pattern))
    })
}

/// The default test pattern: rows alternate stored '1' / '0', with every
/// fourth row a don't-care.
#[must_use]
pub fn osr_default_pattern(row: usize) -> TernaryBit {
    match row % 4 {
        0 | 2 => TernaryBit::One,
        1 => TernaryBit::Zero,
        _ => TernaryBit::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ArraySpec {
        ArraySpec {
            rows: 8,
            cols: 8,
            vdd: 1.0,
        }
    }

    #[test]
    fn osr_preserves_both_states() {
        let d = Nem3t2n::default();
        let res = run_osr(&d, &small_spec(), V_REFRESH, osr_default_pattern).unwrap();
        assert!(res.states_preserved);
        // Every storage node ends near V_R.
        assert!(
            res.q_after.0 > 0.4 && res.q_after.1 < 0.6,
            "q range = {:?}",
            res.q_after
        );
        assert!(res.energy_array > 0.0);
        assert!(res.energy_wordlines > 0.0);
        assert!(res.energy_bitlines > 0.0);
    }

    /// Zero columns must stop at the spec check, before any `cols − 1` line
    /// load is computed.
    #[test]
    fn degenerate_spec_is_an_error() {
        let spec = ArraySpec {
            cols: 0,
            ..ArraySpec::small()
        };
        let res = run_osr(&Nem3t2n::default(), &spec, V_REFRESH, osr_default_pattern);
        assert!(matches!(
            res,
            Err(tcam_spice::SpiceError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn refresh_window_equals_scalar_runs() {
        // Three V_R levels spanning the window: every level must equal an
        // independent scalar run exactly.
        let d = Nem3t2n::default();
        let levels = [0.05, V_REFRESH, 0.8];
        let window = osr_refresh_window(&d, &small_spec(), &levels, osr_default_pattern);
        assert_eq!(window.len(), levels.len());
        for (vr, res) in window {
            let swept = res.expect("level completes");
            let scalar = run_osr(&d, &small_spec(), vr, osr_default_pattern).unwrap();
            assert_eq!(
                swept.states_preserved, scalar.states_preserved,
                "V_R = {vr}"
            );
            assert_eq!(swept.q_after, scalar.q_after, "V_R = {vr}");
            assert_eq!(swept.energy_array, scalar.energy_array, "V_R = {vr}");
            assert!(swept.energy_array > 0.0);
        }
    }

    #[test]
    fn refresh_above_pull_in_corrupts_zeros() {
        // Ablation: V_R beyond V_PI pulls in released relays — exactly the
        // failure OSR's window constraint prevents.
        let d = Nem3t2n::default();
        let res = run_osr(&d, &small_spec(), 0.8, osr_default_pattern).unwrap();
        assert!(!res.states_preserved, "0.8 V > V_PI must corrupt");
    }

    #[test]
    fn refresh_below_pull_out_would_drop_ones() {
        // V_R below V_PO releases contacted relays once their stored charge
        // is replaced by the too-low refresh level.
        let d = Nem3t2n::default();
        let res = run_osr(&d, &small_spec(), 0.05, osr_default_pattern).unwrap();
        assert!(!res.states_preserved, "0.05 V < V_PO must drop ones");
    }
}
