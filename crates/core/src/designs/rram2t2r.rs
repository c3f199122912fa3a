//! The 2-transistor 2-RRAM TCAM baseline (paper Fig. 2b, after [6]).
//!
//! Cell topology per bit (one branch per stored element):
//!
//! ```text
//!   ML ── R1 ── mid1 ── T1 (gate = SL)  ── SRC
//!   ML ── R2 ── mid2 ── T2 (gate = SLB) ── SRC
//! ```
//!
//! `SRC` is the shared source/write line (0 V during search). The
//! SLB-side element R2 holds S and the SL-side R1 holds S̄ of
//! [`TernaryBit::differential`] (LRS = 1), as in the 3T2N cell: stored
//! `1 → (R1, R2) = (HRS, LRS)`, `0 → (LRS, HRS)`, `X → (HRS, HRS)`.
//! A mismatch turns on the branch whose RRAM is LRS, discharging ML through
//! `R_on + R_T1`; matched cells still leak through HRS — the thin nominal
//! margin the paper attributes RRAM's array-size limit to, visible here as
//! ML droop that forces a lower [`SearchCell::match_retention`].
//!
//! Writing is bipolar and therefore two-phase: a SET phase with ML at
//! `V_SET` sourcing current into selected branches, then a RESET phase with
//! the source line at `V_RESET` and ML grounded. We charge the design the
//! full two-phase cost (the paper quotes the single-phase device time; the
//! ordering against the other designs is unaffected — see EXPERIMENTS.md).

use crate::bit::TernaryBit;
use crate::designs::{
    add_driver_r, add_line_cap, add_pulse_driver, check_spec, drive_pulse, worst_case_prior,
    ArraySpec, RowRail, SearchCell, StateProbe, TcamDesign, WriteExperiment,
};
use crate::parasitics::{rram2t2r_geometry, CellGeometry, Line};
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

/// Sense window for 2T2R: long enough for the worst-case mismatch, short
/// enough that HRS leakage has not yet collapsed a matching ML — the thin
/// sensing margin the paper blames for RRAM's array-size limit.
const SENSE_WINDOW: f64 = 0.45e-9;

impl Rram2t2r {
    fn access(&self) -> MosParams {
        MosParams::nmos_45lp().scaled_width(self.access_width)
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
        let c_gate = geom.line_cap(Line::Column, spec.rows, self.search_cell().sl_load_per_row);
        let c_row = geom.line_cap(Line::Row, spec.cols, 0.0);
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let prefix = format!("c{j}");
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            let prior = worst_case_prior(bit);
            self.place_search_cell(&mut ckt, &prefix, prior, spec.vdd, ml, sl, slb, src)?;
            add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_gate)?;
            add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_gate)?;

            let (r2_target, r1_target) = bit.differential();
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
        add_line_cap(&mut ckt, "cml", ml, c_row)?;
        let set = drive_pulse(0.0, self.v_ml_write, T_SET, SET_WIDTH, f64::INFINITY);
        add_driver_r(&mut ckt, "vml", ml, set, r_write_driver)?;
        add_line_cap(&mut ckt, "csrc", src, c_row)?;
        let reset = drive_pulse(0.0, self.v_src_write, T_RESET, RESET_WIDTH, f64::INFINITY);
        add_driver_r(&mut ckt, "vsrc", src, reset, r_write_driver)?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_SET,
            t_stop: T_WRITE_STOP,
            probes,
        })
    }

    fn search_cell(&self) -> SearchCell {
        let acc = self.access();
        SearchCell {
            // Every row's access-transistor gate rides on the search line.
            sl_load_per_row: acc.cgs + acc.cgd + acc.cgb,
            row_rail: RowRail::SourceLine,
            sense_window: SENSE_WINDOW,
            // HRS leakage droops the ML even on a match: accept 0.42·V_DD.
            match_retention: 0.42,
        }
    }

    /// The two branches of one cell — the same placement in a search and in
    /// a write row, which has no further line.
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
        let gnd = ckt.gnd();
        let (r2_on, r1_on) = stored.differential();
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
}
