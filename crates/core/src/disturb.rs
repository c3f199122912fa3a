//! Write-disturb study for the 2FeFET baseline.
//!
//! The paper's §II singles out the 2FeFET TCAM's weakness: "the 2-FeFET
//! design is denser but is vulnerable to read and write disturbances
//! \[9\]". Under the V_DD/2 write scheme, the *selected* row's gate stacks
//! see the full ±V_W, but every **unselected** row sharing the driven
//! search-line columns sees ±V_W/2 — inside the tail of the coercive-field
//! distribution, so each aggressor write nudges victim polarization toward
//! `tanh((V_W/2 − V_c)/σ)`. This module builds a two-row slice (aggressor +
//! victim), replays `cycles` full write cycles, and reports the victim's
//! cumulative polarization drift and threshold-margin loss.
//!
//! The 3T2N design has no analogous mechanism: unselected wordlines keep
//! their write transistors off, and the relay's mechanical hysteresis
//! ignores sub-window excursions — which the companion check verifies.

use crate::bit::TernaryBit;
use crate::designs::{
    add_driver, add_line_cap, check_spec, drive_pulse, ArraySpec, Fefet2f, TcamDesign,
};
use crate::parasitics::Line;
use tcam_spice::analysis::{transient, TransientSpec};
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::options::SimOptions;
use tcam_spice::source::Waveshape;
use tcam_spice::waveform::Waveform;

/// One aggressor write cycle: positive phase, gap, negative phase, gap.
const CYCLE: f64 = 26e-9;
const T_POS: f64 = 1e-9;
const POS_WIDTH: f64 = 10.5e-9;
const T_NEG: f64 = 13e-9;
const NEG_WIDTH: f64 = 10.5e-9;

/// Outcome of the disturb study.
#[derive(Debug)]
pub struct DisturbResult {
    /// Victim polarization per monitored element before any write.
    pub victim_p_start: f64,
    /// Victim polarization after `cycles` aggressor writes.
    pub victim_p_end: f64,
    /// Equivalent victim threshold-voltage shift, volts.
    pub victim_vth_shift: f64,
    /// Whether the victim's stored bit still decodes correctly
    /// (polarization sign preserved).
    pub victim_bit_ok: bool,
    /// Whether the aggressor write completed correctly.
    pub aggressor_ok: bool,
    /// The simulation record.
    pub waveform: Waveform,
}

/// Runs `cycles` aggressor write cycles on row 0 while row 1 (storing all
/// ones) shares the search-line columns with its plate held at ground —
/// the classic half-select disturb pattern.
///
/// # Errors
///
/// [`tcam_spice::SpiceError::InvalidCircuit`] for a degenerate `spec`;
/// propagates netlist/simulation failures.
pub fn run_fefet_write_disturb(
    design: &Fefet2f,
    spec: &ArraySpec,
    cycles: usize,
) -> Result<DisturbResult> {
    let mut ckt = build_disturb_slice(design, spec, cycles)?;
    let t_stop = cycles as f64 * CYCLE;
    let wave = transient(&mut ckt, TransientSpec::to(t_stop), &SimOptions::default())?;
    measure_disturb(design, wave)
}

/// Builds the two-row half-select disturb slice.
fn build_disturb_slice(design: &Fefet2f, spec: &ArraySpec, cycles: usize) -> Result<Circuit> {
    check_spec(spec, &[])?;
    let cols = spec.cols;
    let half = design.v_write / 2.0;
    let mut ckt = Circuit::new();
    let geom = design.geometry();
    // Wire only: the slice leaves the other rows' gate load off its lines.
    let c_line = geom.line_cap(Line::Column, spec.rows, 0.0);
    let c_row = geom.line_cap(Line::Row, cols, 0.0);

    // Shared columns. The aggressor writes the pattern "all ZEROS" — the
    // polarity that stresses a victim storing ones: SL gets the +V/2 phase
    // (driving F1 low-V_T on the selected row), SLB the −V/2 phase.
    for j in 0..cols {
        let sl = ckt.node(&format!("sl{j}"));
        let slb = ckt.node(&format!("slb{j}"));
        add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_line)?;
        add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_line)?;
        let pos = drive_pulse(0.0, half, T_POS, POS_WIDTH, CYCLE);
        add_driver(&mut ckt, &format!("vsl{j}"), sl, pos)?;
        let neg = drive_pulse(0.0, -half, T_NEG, NEG_WIDTH, CYCLE);
        add_driver(&mut ckt, &format!("vslb{j}"), slb, neg)?;
    }

    // Row plates: aggressor's plate swings ∓V/2 (selected); victim's plate
    // is grounded (unselected) — so victim gates see only ±V/2.
    let src_a = ckt.node("src_a");
    add_line_cap(&mut ckt, "csrc_a", src_a, c_row)?;
    let plate = design.plate_waveform(
        cycles,
        CYCLE,
        (T_POS, POS_WIDTH),
        (T_NEG, NEG_WIDTH),
        0.1e-9,
    )?;
    add_driver(&mut ckt, "vsrc_a", src_a, plate)?;
    let src_v = ckt.node("src_v");
    add_line_cap(&mut ckt, "csrc_v", src_v, c_row)?;
    add_driver(&mut ckt, "vsrc_v", src_v, Waveshape::Dc(0.0))?;

    // Floating matchlines (one per row).
    let ml_a = ckt.node("ml_a");
    let ml_v = ckt.node("ml_v");
    add_line_cap(&mut ckt, "cml_a", ml_a, c_row)?;
    add_line_cap(&mut ckt, "cml_v", ml_v, c_row)?;

    // Cells. Both rows start storing all-ones; the aggressor is rewritten
    // to all-zeros (a full flip) while the victim must keep its ones.
    let ones = TernaryBit::One;
    for j in 0..cols {
        let sl = ckt.find_node(&format!("sl{j}"))?;
        let slb = ckt.find_node(&format!("slb{j}"))?;
        for (row, ml, src) in [("a", ml_a, src_a), ("v", ml_v, src_v)] {
            let prefix = format!("r{row}c{j}");
            design.place_search_cell(&mut ckt, &prefix, ones, spec.vdd, ml, sl, slb, src)?;
        }
    }

    Ok(ckt)
}

/// Extracts the disturb metrics from a completed slice transient.
fn measure_disturb(design: &Fefet2f, wave: Waveform) -> Result<DisturbResult> {
    // Victim f2 (stores the '1', p = +1) is pushed by the −V/2 phases on
    // its shared SLB; track its drift. The aggressor must have flipped to
    // stored Zero (f1 → low-V_T i.e. p > 0, f2 → high-V_T i.e. p < 0).
    let victim_sig = "rvc0_f2.p";
    let victim_p_start = wave.sample(victim_sig, 0.0)?;
    let victim_p_end = wave.last(victim_sig)?;
    let victim_vth_shift = (victim_p_start - victim_p_end) * design.fe.vth_window / 2.0;
    let victim_bit_ok = victim_p_end > 0.0 && wave.last("rvc0_f1.p")? < 0.0;
    // The aggressor's own opposite-phase elements also ride the ±V/2
    // envelope (they are half-selected during the other phase), so the
    // pass criterion is the decoded bit, not full saturation.
    let aggressor_ok = wave.last("rac0_f1.p")? > 0.5 && wave.last("rac0_f2.p")? < -0.5;

    Ok(DisturbResult {
        victim_p_start,
        victim_p_end,
        victim_vth_shift,
        victim_bit_ok,
        aggressor_ok,
        waveform: wave,
    })
}

/// Runs [`run_fefet_write_disturb`] for every cycle count in
/// `cycle_counts` on a scoped-thread work pool. Each point simulates an
/// independent two-row slice, so the sweep is share-nothing; results come
/// back in input order and are identical to running the points serially.
///
/// Failures are contained per point: an `Err` entry (e.g. a degenerate
/// cycle count or a non-convergent corner) never disturbs the other
/// points, and consumers must report it as a counted failure rather than
/// aborting the sweep.
#[must_use]
pub fn fefet_disturb_cycle_sweep(
    design: &Fefet2f,
    spec: &ArraySpec,
    cycle_counts: &[usize],
) -> Vec<(usize, Result<DisturbResult>)> {
    tcam_numeric::parallel::parallel_map(cycle_counts.to_vec(), |cycles| {
        (cycles, run_fefet_write_disturb(design, spec, cycles))
    })
}

/// Sweeps the aggressor write voltage at a fixed cycle count: the
/// disturb-vs-drive design curve, the half-select envelope
/// `tanh((V_W/2 − V_c)/σ)`. Each level is an independent
/// [`run_fefet_write_disturb`] on the worker pool, with the same ordering
/// and per-point failure containment as [`fefet_disturb_cycle_sweep`]: a
/// level whose slice cannot be built or simulated (including a zero
/// `cycles`, which makes `t_stop` degenerate) is an `Err` entry and the
/// other levels complete.
#[must_use]
pub fn fefet_disturb_vwrite_sweep(
    design: &Fefet2f,
    spec: &ArraySpec,
    cycles: usize,
    v_writes: &[f64],
) -> Vec<(f64, Result<DisturbResult>)> {
    tcam_numeric::parallel::parallel_map(v_writes.to_vec(), |v_write| {
        let variant = Fefet2f {
            v_write,
            ..design.clone()
        };
        (v_write, run_fefet_write_disturb(&variant, spec, cycles))
    })
}

/// The 3T2N counterpart: the victim cell's relays see only the sub-window
/// search-line excursions during a neighbour's write (its wordline stays
/// low), so its mechanical state cannot move. Returns `true` when the
/// victim survives `cycles` neighbour writes untouched.
///
/// # Errors
///
/// [`tcam_spice::SpiceError::InvalidCircuit`] for a degenerate `spec`;
/// propagates simulation failures.
pub fn nem_victim_survives_neighbour_writes(
    design: &crate::designs::Nem3t2n,
    spec: &ArraySpec,
    cycles: usize,
) -> Result<bool> {
    use crate::designs::add_pulse_driver;
    let mut ckt = Circuit::new();

    // One victim cell storing '1', wordline held low, bitlines toggling
    // with the aggressor's data every cycle (the shared-column disturb).
    let (wls, bl, blb) = design.build_held_slice(&mut ckt, spec, &[TernaryBit::One], 0.8, 0.0)?;
    let wl = wls[0];
    add_driver(&mut ckt, "vwl", wl, Waveshape::Dc(0.0))?;
    // Bitlines pulse to VDD every cycle (the neighbour's write data).
    for (name, node, delay) in [("vbl", bl, 1e-9), ("vblb", blb, 4e-9)] {
        add_pulse_driver(&mut ckt, name, node, 0.0, spec.vdd, delay, 2e-9)?;
    }

    let t_stop = cycles as f64 * 8e-9;
    let wave = transient(&mut ckt, TransientSpec::to(t_stop), &SimOptions::default())?;
    let n1 = wave.last("r0_n1.contact")?;
    let n2 = wave.last("r0_n2.contact")?;
    Ok(n1 > 0.5 && n2 < 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::Nem3t2n;

    fn spec() -> ArraySpec {
        ArraySpec {
            rows: 8,
            cols: 2,
            vdd: 1.0,
        }
    }

    #[test]
    fn fefet_victim_drifts_under_neighbour_writes() {
        let d = Fefet2f::default();
        let res = run_fefet_write_disturb(&d, &spec(), 3).unwrap();
        assert!(res.aggressor_ok, "selected row must write correctly");
        // Half-select stress measurably erodes the victim's polarization...
        assert!(
            res.victim_p_end < res.victim_p_start - 0.05,
            "p: {} -> {}",
            res.victim_p_start,
            res.victim_p_end
        );
        assert!(res.victim_vth_shift > 0.02);
        // ...but a handful of cycles does not yet flip the bit.
        assert!(res.victim_bit_ok);
    }

    #[test]
    fn disturb_saturates_at_the_half_select_envelope() {
        // The Preisach envelope bounds the drift at tanh((V_W/2 − V_c)/σ):
        // more cycles approach but never cross it.
        let d = Fefet2f::default();
        let few = run_fefet_write_disturb(&d, &spec(), 2).unwrap();
        let many = run_fefet_write_disturb(&d, &spec(), 5).unwrap();
        let envelope = ((d.v_write / 2.0 - d.fe.v_coercive) / d.fe.v_sigma).tanh();
        // Drift target for a +1-stored victim under −V/2 stress is the
        // mirrored envelope.
        let floor = -envelope; // positive number below 1
        assert!(many.victim_p_end <= few.victim_p_end + 1e-9);
        assert!(
            many.victim_p_end >= floor - 0.05,
            "p_end {} vs envelope {}",
            many.victim_p_end,
            floor
        );
    }

    #[test]
    fn cycle_sweep_contains_per_point_failures() {
        // A degenerate point (0 cycles → t_stop = 0) must come back as an
        // Err entry while the valid points still complete.
        let d = Fefet2f::default();
        let sweep = fefet_disturb_cycle_sweep(&d, &spec(), &[0, 2]);
        assert_eq!(sweep.len(), 2);
        assert!(sweep[0].1.is_err(), "0 cycles is a per-point failure");
        let ok = sweep[1].1.as_ref().expect("2 cycles completes");
        assert!(ok.victim_bit_ok);
    }

    #[test]
    fn vwrite_sweep_equals_scalar_runs_and_orders_by_stress() {
        let d = Fefet2f::default();
        let levels = [3.0, 4.0, 5.0];
        let sweep = fefet_disturb_vwrite_sweep(&d, &spec(), 2, &levels);
        assert_eq!(sweep.len(), 3);
        let mut drifts = Vec::new();
        for (vw, res) in sweep {
            let swept = res.expect("level completes");
            let variant = Fefet2f {
                v_write: vw,
                ..d.clone()
            };
            let scalar = run_fefet_write_disturb(&variant, &spec(), 2).unwrap();
            assert_eq!(swept.victim_p_start, scalar.victim_p_start, "V_W = {vw}");
            assert_eq!(swept.victim_p_end, scalar.victim_p_end, "V_W = {vw}");
            assert_eq!(
                swept.victim_vth_shift, scalar.victim_vth_shift,
                "V_W = {vw}"
            );
            drifts.push(swept.victim_p_start - swept.victim_p_end);
        }
        // Higher write voltage → deeper half-select stress → more drift.
        assert!(
            drifts[0] <= drifts[1] + 1e-6 && drifts[1] <= drifts[2] + 1e-6,
            "drifts {drifts:?}"
        );
    }

    #[test]
    fn vwrite_sweep_contains_an_unbuildable_level() {
        // A NaN write voltage cannot even build its slice (the plate PWL
        // rejects non-finite points): that level is an Err entry and the
        // levels on either side still complete.
        let d = Fefet2f::default();
        let sweep = fefet_disturb_vwrite_sweep(&d, &spec(), 2, &[3.0, f64::NAN, 4.0]);
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].1.is_ok() && sweep[2].1.is_ok());
        assert!(sweep[1].1.is_err(), "NaN level is a per-level failure");
    }

    fn zero_columns() -> ArraySpec {
        ArraySpec {
            cols: 0,
            ..ArraySpec::small()
        }
    }

    #[test]
    fn fefet_study_rejects_a_degenerate_spec() {
        let res = run_fefet_write_disturb(&Fefet2f::default(), &zero_columns(), 2);
        assert!(matches!(
            res,
            Err(tcam_spice::SpiceError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn nem_study_rejects_a_degenerate_spec() {
        let res = nem_victim_survives_neighbour_writes(&Nem3t2n::default(), &zero_columns(), 2);
        assert!(matches!(
            res,
            Err(tcam_spice::SpiceError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn nem_cell_is_disturb_free() {
        let d = Nem3t2n::default();
        assert!(nem_victim_survives_neighbour_writes(&d, &spec(), 5).unwrap());
    }
}
