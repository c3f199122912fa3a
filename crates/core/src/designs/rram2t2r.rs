//! The 2-transistor 2-RRAM TCAM baseline (paper Fig. 2b, after [6]).
//!
//! Cell topology per bit (one branch per stored element):
//!
//! ```text
//!   ML ── R1 ── mid1 ── T1 (gate = SL)  ── SRC
//!   ML ── R2 ── mid2 ── T2 (gate = SLB) ── SRC
//! ```
//!
//! `SRC` is the shared source/write line (0 V during search). Encoding:
//! stored `1 → (R1, R2) = (HRS, LRS)`, `0 → (LRS, HRS)`, `X → (HRS, HRS)`.
//! A mismatch turns on the branch whose RRAM is LRS, discharging ML through
//! `R_on + R_T1`; matched cells still leak through HRS — the thin nominal
//! margin the paper attributes RRAM's array-size limit to, visible here as
//! ML droop that forces a lower [`SearchExperiment::v_match_min`].
//!
//! Writing is bipolar and therefore two-phase: a SET phase with ML at
//! `V_SET` sourcing current into selected branches, then a RESET phase with
//! the source line at `V_RESET` and ML grounded. We charge the design the
//! full two-phase cost (the paper quotes the single-phase device time; the
//! ordering against the other designs is unaffected — see EXPERIMENTS.md).

use crate::bit::TernaryBit;
use crate::designs::{
    add_line_cap, add_ml_precharge, add_pulse_driver, add_step_driver, check_spec, search_drive,
    ArraySpec, SearchExperiment, StateProbe, TcamDesign, WriteExperiment,
};
use crate::parasitics::{rram2t2r_geometry, CellGeometry};
use tcam_devices::mosfet::{MosParams, Mosfet};
use tcam_devices::params::RramParams;
use tcam_devices::rram::Rram;
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;

/// The 2T2R design.
#[derive(Debug, Clone, PartialEq)]
pub struct Rram2t2r {
    /// RRAM cell parameters (paper §IV-A values by default).
    pub rram: RramParams,
    /// Access-transistor width factor.
    pub access_width: f64,
    /// Gate overdrive level used during writes, volts.
    pub v_gate_write: f64,
    /// Matchline drive during the SET phase, volts. Must exceed `V_SET`
    /// by the access-transistor drop so the cell itself sees the full SET
    /// voltage.
    pub v_ml_write: f64,
    /// Source-line drive during the RESET phase, volts (same margin logic).
    pub v_src_write: f64,
}

impl Default for Rram2t2r {
    fn default() -> Self {
        Self {
            rram: RramParams::default(),
            access_width: 1.0,
            v_gate_write: 3.2,
            v_ml_write: 2.2,
            v_src_write: 1.6,
        }
    }
}

/// SET phase window.
const T_SET: f64 = 1e-9;
const SET_WIDTH: f64 = 9.5e-9;
/// RESET phase window.
const T_RESET: f64 = 12e-9;
const RESET_WIDTH: f64 = 9.5e-9;
/// Write-experiment end.
const T_WRITE_STOP: f64 = 23e-9;

/// Precharge release in the search experiment.
const T_PC_RELEASE: f64 = 0.8e-9;
/// Search drive instant.
const T_SEARCH: f64 = 1.0e-9;
/// Sense window for 2T2R: long enough for the worst-case mismatch, short
/// enough that HRS leakage has not yet collapsed a matching ML — the thin
/// sensing margin the paper blames for RRAM's array-size limit.
const SENSE_WINDOW: f64 = 0.45e-9;

/// `(r1_on, r2_on)` encoding of a stored ternary bit.
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

impl Rram2t2r {
    fn access(&self) -> MosParams {
        MosParams::nmos_45lp().scaled_width(self.access_width)
    }

    /// Builds the two branches of one cell with the given *initial* states.
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
        let gnd = ckt.gnd();
        let (r1_on, r2_on) = encode(initial);
        for (branch, gate, on) in [(1, sl, r1_on), (2, slb, r2_on)] {
            let mid = ckt.node(&format!("{prefix}_m{branch}"));
            ckt.add(Rram::new(format!("{prefix}_r{branch}"), ml, mid, self.rram).with_bit(on))?;
            ckt.add(Mosfet::new(
                format!("{prefix}_t{branch}"),
                mid,
                gate,
                src,
                gnd,
                self.access(),
            ))?;
        }
        Ok(())
    }

    fn c_gate_line(&self, spec: &ArraySpec) -> f64 {
        let acc = self.access();
        rram2t2r_geometry().column_wire_cap(spec.rows)
            + (spec.rows - 1) as f64 * (acc.cgs + acc.cgd + acc.cgb)
    }
}

impl TcamDesign for Rram2t2r {
    fn name(&self) -> &'static str {
        "2T2R RRAM"
    }

    fn geometry(&self) -> CellGeometry {
        rram2t2r_geometry()
    }

    fn build_write(&self, spec: &ArraySpec, data: &[TernaryBit]) -> Result<WriteExperiment> {
        check_spec(spec, &[data])?;
        let mut ckt = Circuit::new();
        let ml = ckt.node("ml");
        let src = ckt.node("src");
        let geom = self.geometry();
        let c_gate = self.c_gate_line(spec);
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let prefix = format!("c{j}");
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            self.build_cell(&mut ckt, &prefix, write_initial(bit), ml, sl, slb, src)?;
            add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_gate)?;
            add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_gate)?;

            let (r1_target, r2_target) = encode(bit);
            // Each gate line pulses in exactly one phase: SET when its RRAM
            // must become LRS, RESET otherwise.
            for (line, name, target_on) in [
                (sl, format!("vsl{j}"), r1_target),
                (slb, format!("vslb{j}"), r2_target),
            ] {
                let (t_on, width) = if target_on {
                    (T_SET, SET_WIDTH)
                } else {
                    (T_RESET, RESET_WIDTH)
                };
                add_pulse_driver(&mut ckt, &name, line, 0.0, self.v_gate_write, t_on, width)?;
            }
            probes.push(StateProbe {
                signal: format!("{prefix}_r1.state"),
                threshold: 0.5,
                expect_high: r1_target,
            });
            probes.push(StateProbe {
                signal: format!("{prefix}_r2.state"),
                threshold: 0.5,
                expect_high: r2_target,
            });
        }

        // Row write drivers carry the summed milliamp-scale programming
        // current of the whole row, so they are sized far stronger than the
        // capacitive line drivers.
        let r_write_driver = 10.0;
        add_line_cap(&mut ckt, "cml", ml, geom.row_wire_cap(spec.cols))?;
        crate::designs::add_driver_r(
            &mut ckt,
            "vml",
            ml,
            tcam_spice::source::Waveshape::Pulse {
                v1: 0.0,
                v2: self.v_ml_write,
                delay: T_SET,
                rise: crate::designs::DRIVE_RISE,
                fall: crate::designs::DRIVE_RISE,
                width: SET_WIDTH,
                period: f64::INFINITY,
            },
            r_write_driver,
        )?;
        add_line_cap(&mut ckt, "csrc", src, geom.row_wire_cap(spec.cols))?;
        crate::designs::add_driver_r(
            &mut ckt,
            "vsrc",
            src,
            tcam_spice::source::Waveshape::Pulse {
                v1: 0.0,
                v2: self.v_src_write,
                delay: T_RESET,
                rise: crate::designs::DRIVE_RISE,
                fall: crate::designs::DRIVE_RISE,
                width: RESET_WIDTH,
                period: f64::INFINITY,
            },
            r_write_driver,
        )?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_SET,
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

        // Source/write line held at ground during search.
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
            // HRS leakage droops the ML even on a match: accept 0.42·V_DD.
            v_match_min: 0.42 * spec.vdd,
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
        assert_eq!(write_initial(X), One);
    }

    #[test]
    fn write_structure() {
        let d = Rram2t2r::default();
        let spec = ArraySpec::small();
        let data = vec![One, Zero, X, One];
        let exp = d.build_write(&spec, &data).unwrap();
        exp.circuit.validate().unwrap();
        assert_eq!(exp.probes.len(), 2 * spec.cols);
        // 4 cell devices + 2 caps + 2 two-part drivers per cell, plus the
        // ML/SRC caps and their two-part write drivers.
        assert_eq!(exp.circuit.devices().len(), spec.cols * 10 + 6);
    }

    #[test]
    fn search_structure_and_droop_margin() {
        let d = Rram2t2r::default();
        let spec = ArraySpec::small();
        let stored = vec![One, Zero, X, One];
        let exp = d.build_search(&spec, &stored, &stored).unwrap();
        exp.circuit.validate().unwrap();
        assert!(exp.expect_match);
        // RRAM accepts heavy droop relative to the CMOS/NEM designs.
        assert!(exp.v_match_min < 0.5 * spec.vdd);
    }
}
