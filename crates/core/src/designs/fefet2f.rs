//! The ultra-dense 2-FeFET TCAM baseline (paper Fig. 2d, after [8]).
//!
//! Cell topology per bit:
//!
//! ```text
//!   ML ── F1 (gate = SL)  ── SRC
//!   ML ── F2 (gate = SLB) ── SRC
//! ```
//!
//! The SLB-side F2 holds S and the SL-side F1 holds S̄ of
//! [`TernaryBit::differential`] (low-V_T = 1), as in the 3T2N cell: stored
//! `1 → (F1, F2) = (high-V_T, low-V_T)`, `0 → (low-V_T, high-V_T)`,
//! `X → (high, high)`. A mismatch drives the
//! low-V_T FeFET's gate to V_DD and discharges ML; the high-V_T state stays
//! off at 1 V search (read-disturb-free, per the Preisach envelope).
//!
//! Writing uses the V_DD/2-style scheme of [2]: gate lines swing ±V_W/2
//! while the cell's source/body plate swings ∓V_W/2, so each line carries
//! only half the write voltage but the gate stack sees the full ±4 V.
//! Like RRAM, polarity makes the write two-phase.

use crate::bit::TernaryBit;
use crate::designs::{
    add_driver, add_line_cap, add_pulse_driver, check_spec, worst_case_prior, ArraySpec, RowRail,
    SearchCell, StateProbe, TcamDesign, WriteExperiment, DRIVE_RISE,
};
use crate::parasitics::{fefet2f_geometry, CellGeometry, Line};
use tcam_devices::fefet::Fefet;
use tcam_devices::mosfet::MosParams;
use tcam_devices::params::FefetParams;
use tcam_numeric::interp::PiecewiseLinear;
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;
use tcam_spice::source::Waveshape;

/// The 2FeFET design.
#[derive(Debug, Clone, PartialEq)]
pub struct Fefet2f {
    /// Ferroelectric stack parameters.
    pub fe: FefetParams,
    /// Underlying transistor (thicker gate stack than the logic device:
    /// lower transconductance).
    pub channel: MosParams,
    /// Total write voltage across the gate stack, volts (±4 V per paper).
    pub v_write: f64,
}

impl Default for Fefet2f {
    fn default() -> Self {
        // The MFIS stack degrades drive relative to the logic transistor
        // (thicker effective oxide, interface scattering).
        let channel = MosParams {
            kp: 0.33e-4,
            ..MosParams::nmos_45lp()
        };
        let fe = FefetParams {
            vth_window: 1.0, // low-V_T = 0.2 V, high-V_T = 1.2 V
            q_switch: 4e-16, // scaled-area ferroelectric stack
            ..FefetParams::default()
        };
        Self {
            fe,
            channel,
            v_write: 4.0,
        }
    }
}

/// Positive-polarization phase window.
const T_POS: f64 = 1e-9;
const POS_WIDTH: f64 = 11e-9;
/// Negative-polarization phase window.
const T_NEG: f64 = 14e-9;
const NEG_WIDTH: f64 = 11e-9;
/// Write-experiment end.
const T_WRITE_STOP: f64 = 27e-9;

/// Sense window (≈ 4× the expected 2FeFET worst-case t₅₀).
const SENSE_WINDOW: f64 = 1.6e-9;

impl Fefet2f {
    /// The plate (source/body) line over `cycles` write cycles of the
    /// V_DD/2 scheme, cycle `k` starting at `k · period`: −V_W/2 through the
    /// positive-polarization phase `pos = (start, width)`, +V_W/2 through
    /// the negative phase `neg` (so each selected stack sees the full
    /// ±V_W), 0 V between, behind `edge`-second ramps — a PWL laid out
    /// cycle by cycle beside the gate lines' periodic pulses.
    pub(crate) fn plate_waveform(
        &self,
        cycles: usize,
        period: f64,
        pos: (f64, f64),
        neg: (f64, f64),
        edge: f64,
    ) -> Result<Waveshape> {
        let half = self.v_write / 2.0;
        let mut xs = vec![0.0];
        let mut ys = vec![0.0];
        for k in 0..cycles {
            let base = k as f64 * period;
            for ((t_on, width), level) in [(pos, -half), (neg, half)] {
                let t = base + t_on;
                xs.extend([t, t + edge, t + width, t + width + edge]);
                ys.extend([0.0, level, level, 0.0]);
            }
        }
        let pwl = PiecewiseLinear::new(xs, ys).map_err(tcam_spice::SpiceError::from)?;
        Ok(Waveshape::Pwl(pwl))
    }
}

impl TcamDesign for Fefet2f {
    fn name(&self) -> &'static str {
        "2FeFET"
    }

    fn geometry(&self) -> CellGeometry {
        fefet2f_geometry()
    }

    fn build_write(&self, spec: &ArraySpec, data: &[TernaryBit]) -> Result<WriteExperiment> {
        check_spec(spec, &[data])?;
        let mut ckt = Circuit::new();
        let ml = ckt.node("ml");
        let src = ckt.node("src");
        let geom = self.geometry();
        let c_gate = geom.line_cap(Line::Column, spec.rows, self.search_cell().sl_load_per_row);
        let c_row = geom.line_cap(Line::Row, spec.cols, 0.0);
        let half = self.v_write / 2.0;
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let prefix = format!("c{j}");
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            let prior = worst_case_prior(bit);
            self.place_search_cell(&mut ckt, &prefix, prior, spec.vdd, ml, sl, slb, src)?;
            add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_gate)?;
            add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_gate)?;

            let (f2_low, f1_low) = bit.differential();
            // Gate lines swing +V/2 in the phase that polarizes their FeFET
            // positive (low-V_T), −V/2 in the other phase.
            for (line, name, low_vt) in [
                (sl, format!("vsl{j}"), f1_low),
                (slb, format!("vslb{j}"), f2_low),
            ] {
                let (t_on, width, level) = if low_vt {
                    (T_POS, POS_WIDTH, half)
                } else {
                    (T_NEG, NEG_WIDTH, -half)
                };
                add_pulse_driver(&mut ckt, &name, line, 0.0, level, t_on, width)?;
            }
            probes.push(StateProbe {
                signal: format!("{prefix}_f1.p"),
                threshold: 0.0,
                expect_high: f1_low,
            });
            probes.push(StateProbe {
                signal: format!("{prefix}_f2.p"),
                threshold: 0.0,
                expect_high: f2_low,
            });
        }

        add_line_cap(&mut ckt, "csrc", src, c_row)?;
        let (pos, neg) = ((T_POS, POS_WIDTH), (T_NEG, NEG_WIDTH));
        let plate = self.plate_waveform(1, T_WRITE_STOP, pos, neg, DRIVE_RISE)?;
        add_driver(&mut ckt, "vsrc", src, plate)?;
        // ML floats during writes (its capacitance equalizes to the plate
        // through the turned-on channels): grounding it would create a DC
        // path from the plate through every low-V_T channel — exactly the
        // disturb current the V_DD/2 scheme avoids.
        add_line_cap(&mut ckt, "cml", ml, c_row)?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_POS,
            t_stop: T_WRITE_STOP,
            probes,
        })
    }

    fn search_cell(&self) -> SearchCell {
        let ch = self.channel;
        // The ferroelectric stack as a line load: its switched charge
        // `q_switch` linearised over the full −V_W … +V_W polarization
        // swing, `2·v_write` (the device model books the same charge to
        // its own gate capacitor).
        let c_fe = self.fe.q_switch / (2.0 * self.v_write);
        SearchCell {
            // Every row's FeFET gate — channel plus ferroelectric stack —
            // rides on the search line.
            sl_load_per_row: ch.cgs + ch.cgd + ch.cgb + c_fe,
            row_rail: RowRail::SourceLine,
            sense_window: SENSE_WINDOW,
            match_retention: 0.8,
        }
    }

    /// The two FeFETs of one cell — the same placement in a search, in a
    /// write row and in the disturb slice, none of which has a further line.
    fn place_search_cell(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        stored: TernaryBit,
        _vdd: f64,
        ml: NodeId,
        sl: NodeId,
        slb: NodeId,
        src: NodeId,
    ) -> Result<()> {
        let (f2_low, f1_low) = stored.differential();
        for (branch, gate, low_vt) in [(1, sl, f1_low), (2, slb, f2_low)] {
            ckt.add(
                Fefet::new(
                    format!("{prefix}_f{branch}"),
                    ml,
                    gate,
                    src,
                    src,
                    self.channel,
                    self.fe,
                )
                .with_bit(low_vt),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_voltage_split() {
        let d = Fefet2f::default();
        assert_eq!(d.v_write, 4.0);
        // Channel drive is degraded vs the logic NMOS.
        assert!(d.channel.kp < MosParams::nmos_45lp().kp);
    }
}
