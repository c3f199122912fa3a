//! The ultra-dense 2-FeFET TCAM baseline (paper Fig. 2d, after [8]).
//!
//! Cell topology per bit:
//!
//! ```text
//!   ML ── F1 (gate = SL)  ── SRC
//!   ML ── F2 (gate = SLB) ── SRC
//! ```
//!
//! Encoding: stored `1 → (F1, F2) = (high-V_T, low-V_T)`,
//! `0 → (low-V_T, high-V_T)`, `X → (high, high)`. A mismatch drives the
//! low-V_T FeFET's gate to V_DD and discharges ML; the high-V_T state stays
//! off at 1 V search (read-disturb-free, per the Preisach envelope).
//!
//! Writing uses the V_DD/2-style scheme of [2]: gate lines swing ±V_W/2
//! while the cell's source/body plate swings ∓V_W/2, so each line carries
//! only half the write voltage but the gate stack sees the full ±4 V.
//! Like RRAM, polarity makes the write two-phase.

use crate::bit::TernaryBit;
use crate::designs::{
    add_line_cap, add_ml_precharge, add_pulse_driver, add_step_driver, check_spec, search_drive,
    ArraySpec, SearchExperiment, StateProbe, TcamDesign, WriteExperiment,
};
use crate::parasitics::{fefet2f_geometry, CellGeometry};
use tcam_devices::fefet::Fefet;
use tcam_devices::mosfet::MosParams;
use tcam_devices::params::FefetParams;
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;

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

/// Precharge release in the search experiment.
const T_PC_RELEASE: f64 = 0.8e-9;
/// Search drive instant.
const T_SEARCH: f64 = 1.0e-9;
/// Sense window (≈ 4× the expected 2FeFET worst-case t₅₀).
const SENSE_WINDOW: f64 = 1.6e-9;

/// `(f1_low_vt, f2_low_vt)` encoding of a stored ternary bit.
fn encode(bit: TernaryBit) -> (bool, bool) {
    match bit {
        TernaryBit::One => (false, true),
        TernaryBit::Zero => (true, false),
        TernaryBit::X => (false, false),
    }
}

/// Worst-case prior bit (every defined element switches).
fn write_initial(target: TernaryBit) -> TernaryBit {
    match target {
        TernaryBit::Zero => TernaryBit::One,
        TernaryBit::One => TernaryBit::Zero,
        TernaryBit::X => TernaryBit::One,
    }
}

impl Fefet2f {
    #[allow(clippy::too_many_arguments)]
    fn build_cell(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        initial: TernaryBit,
        ml: NodeId,
        sl: NodeId,
        slb: NodeId,
        src: NodeId,
    ) -> Result<()> {
        let (f1_low, f2_low) = encode(initial);
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

    fn c_gate_line(&self, spec: &ArraySpec) -> f64 {
        let ch = self.channel;
        let c_fe = self.fe.q_switch / (2.0 * 4.0);
        fefet2f_geometry().column_wire_cap(spec.rows)
            + (spec.rows - 1) as f64 * (ch.cgs + ch.cgd + ch.cgb + c_fe)
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
        let c_gate = self.c_gate_line(spec);
        let half = self.v_write / 2.0;
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let prefix = format!("c{j}");
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            self.build_cell(&mut ckt, &prefix, write_initial(bit), ml, sl, slb, src)?;
            add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_gate)?;
            add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_gate)?;

            let (f1_low, f2_low) = encode(bit);
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

        // Plate line: −V/2 during the positive phase, +V/2 during the
        // negative phase (so each stack sees the full ±V_W).
        add_line_cap(&mut ckt, "csrc", src, geom.row_wire_cap(spec.cols))?;
        {
            use tcam_numeric::interp::PiecewiseLinear;
            use tcam_spice::source::Waveshape;
            let e = crate::designs::DRIVE_RISE;
            let pwl = PiecewiseLinear::new(
                vec![
                    0.0,
                    T_POS,
                    T_POS + e,
                    T_POS + POS_WIDTH,
                    T_POS + POS_WIDTH + e,
                    T_NEG,
                    T_NEG + e,
                    T_NEG + NEG_WIDTH,
                    T_NEG + NEG_WIDTH + e,
                ],
                vec![0.0, 0.0, -half, -half, 0.0, 0.0, half, half, 0.0],
            )
            .map_err(tcam_spice::SpiceError::from)?;
            crate::designs::add_driver(&mut ckt, "vsrc", src, Waveshape::Pwl(pwl))?;
        }
        // ML floats during writes (its capacitance equalizes to the plate
        // through the turned-on channels): grounding it would create a DC
        // path from the plate through every low-V_T channel — exactly the
        // disturb current the V_DD/2 scheme avoids.
        add_line_cap(&mut ckt, "cml", ml, geom.row_wire_cap(spec.cols))?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_POS,
            t_stop: T_WRITE_STOP,
            probes,
        })
    }

    fn build_search(
        &self,
        spec: &ArraySpec,
        stored: &[TernaryBit],
        key: &[TernaryBit],
    ) -> Result<SearchExperiment> {
        check_spec(spec, &[stored, key])?;
        let mut ckt = Circuit::new();
        let gnd = ckt.gnd();
        let ml = ckt.node("ml");
        let src = ckt.node("src");
        let geom = self.geometry();
        let c_gate = self.c_gate_line(spec);

        for (j, (&bit, &kbit)) in stored.iter().zip(key).enumerate() {
            let prefix = format!("c{j}");
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            self.build_cell(&mut ckt, &prefix, bit, ml, sl, slb, src)?;
            add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_gate)?;
            add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_gate)?;
            let (v_sl, v_slb) = search_drive(kbit, spec.vdd);
            add_step_driver(&mut ckt, &format!("vsl{j}"), sl, 0.0, v_sl, T_SEARCH)?;
            add_step_driver(&mut ckt, &format!("vslb{j}"), slb, 0.0, v_slb, T_SEARCH)?;
        }

        add_line_cap(&mut ckt, "csrc", src, geom.row_wire_cap(spec.cols))?;
        ckt.add(tcam_spice::element::VoltageSource::dc(
            "vsrc", src, gnd, 0.0,
        ))?;

        add_ml_precharge(
            &mut ckt,
            ml,
            spec.vdd,
            geom.row_wire_cap(spec.cols),
            T_PC_RELEASE,
        )?;

        Ok(SearchExperiment {
            circuit: ckt,
            ml_signal: "v(ml)".into(),
            t_search: T_SEARCH,
            t_stop: T_SEARCH + SENSE_WINDOW + 0.5e-9,
            expect_match: crate::bit::word_matches(stored, key),
            t_sense: T_SEARCH + SENSE_WINDOW,
            v_match_min: 0.8 * spec.vdd,
            vdd: spec.vdd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::TernaryBit::{One, Zero, X};

    #[test]
    fn encoding_rule() {
        assert_eq!(encode(One), (false, true));
        assert_eq!(encode(Zero), (true, false));
        assert_eq!(encode(X), (false, false));
        assert_eq!(write_initial(Zero), One);
    }

    #[test]
    fn write_structure() {
        let d = Fefet2f::default();
        let spec = ArraySpec::small();
        let data = vec![One, Zero, X, One];
        let exp = d.build_write(&spec, &data).unwrap();
        exp.circuit.validate().unwrap();
        assert_eq!(exp.probes.len(), 2 * spec.cols);
        // 2 FeFETs + 2 caps + 2 two-part drivers per cell, plus the
        // floating-ML cap, SRC cap and its two-part plate driver.
        assert_eq!(exp.circuit.devices().len(), spec.cols * 8 + 4);
    }

    #[test]
    fn search_structure() {
        let d = Fefet2f::default();
        let spec = ArraySpec::small();
        let stored = vec![One, Zero, X, One];
        let mut key = stored.clone();
        key[0] = Zero;
        let exp = d.build_search(&spec, &stored, &key).unwrap();
        exp.circuit.validate().unwrap();
        assert!(!exp.expect_match);
    }

    #[test]
    fn write_voltage_split() {
        let d = Fefet2f::default();
        assert_eq!(d.v_write, 4.0);
        // Channel drive is degraded vs the logic NMOS.
        assert!(d.channel.kp < MosParams::nmos_45lp().kp);
    }
}
