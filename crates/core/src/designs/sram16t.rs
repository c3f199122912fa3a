//! The 16-transistor SRAM TCAM baseline (paper Fig. 2a, after [3]).
//!
//! Each cell holds two 6T SRAM halves (`d1`, `d2`) plus a 4T NOR-style
//! compare stack. Pull-down path A is gated by `(SL, d1)`, path B by
//! `(SLB, d2)`, so the SLB-side half `d2` holds S and the SL-side half
//! `d1` holds S̄ of [`TernaryBit::differential`] (the 3T2N cell's
//! arrangement): stored `1 → (d1, d2) = (0, 1)`, `0 → (1, 0)`,
//! `X → (0, 0)`.
//!
//! SRAM bitlines idle *precharged high* (standard practice); a write pulls
//! the low-going side to ground and the precharge restore afterwards is
//! where the write energy goes — four bitlines per column, two of which
//! toggle per written cell.

use crate::bit::TernaryBit;
use crate::designs::{
    add_line_cap, add_pulse_driver, check_spec, ArraySpec, RowRail, SearchCell, StateProbe,
    TcamDesign, WriteExperiment,
};
use crate::parasitics::{sram16t_geometry, CellGeometry, Line};
use tcam_devices::mosfet::{MosParams, Mosfet};
use tcam_spice::element::{Capacitor, VoltageSource};
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;

/// The 16T SRAM TCAM design.
#[derive(Debug, Clone, PartialEq)]
pub struct Sram16t {
    /// Access-transistor width factor (write margin).
    pub access_width: f64,
    /// Compare-stack transistor width factor.
    pub compare_width: f64,
}

impl Default for Sram16t {
    fn default() -> Self {
        Self {
            access_width: 1.3,
            compare_width: 1.0,
        }
    }
}

/// Bitline data drive instant.
const T_BL: f64 = 0.3e-9;
/// Wordline rise instant.
const T_WL: f64 = 0.6e-9;
/// Wordline pulse width.
const WL_WIDTH: f64 = 1.5e-9;
/// Bitline restore (precharge) instant — after WL falls.
const T_RESTORE: f64 = 2.4e-9;
/// Write-experiment end.
const T_WRITE_STOP: f64 = 3.5e-9;

/// Sense window (≈ 4× the expected SRAM worst-case t₅₀).
const SENSE_WINDOW: f64 = 2.0e-9;

impl Sram16t {
    fn nmos(&self) -> MosParams {
        MosParams::nmos_45lp()
    }

    fn pmos(&self) -> MosParams {
        MosParams::pmos_45lp()
    }

    /// Builds one 6T half storing `value`; returns the data node.
    #[allow(clippy::too_many_arguments)]
    fn build_half(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        value: bool,
        vdd_rail: NodeId,
        vdd: f64,
        wl: NodeId,
        bl: NodeId,
        blb: NodeId,
    ) -> Result<NodeId> {
        let gnd = ckt.gnd();
        let d = ckt.node(&format!("{prefix}_d"));
        let db = ckt.node(&format!("{prefix}_db"));
        // Cross-coupled inverters.
        ckt.add(Mosfet::new(
            format!("{prefix}_pu1"),
            d,
            db,
            vdd_rail,
            vdd_rail,
            self.pmos(),
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_pd1"),
            d,
            db,
            gnd,
            gnd,
            self.nmos(),
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_pu2"),
            db,
            d,
            vdd_rail,
            vdd_rail,
            self.pmos(),
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_pd2"),
            db,
            d,
            gnd,
            gnd,
            self.nmos(),
        ))?;
        // Access transistors.
        let acc = self.nmos().scaled_width(self.access_width);
        ckt.add(Mosfet::new(format!("{prefix}_ax1"), bl, wl, d, gnd, acc))?;
        ckt.add(Mosfet::new(format!("{prefix}_ax2"), blb, wl, db, gnd, acc))?;
        // Initial state, forced only during the operating point.
        ckt.add(
            Capacitor::new(format!("{prefix}_icd"), d, gnd, 1e-18)?.with_ic(if value {
                vdd
            } else {
                0.0
            }),
        )?;
        ckt.add(
            Capacitor::new(format!("{prefix}_icdb"), db, gnd, 1e-18)?.with_ic(if value {
                0.0
            } else {
                vdd
            }),
        )?;
        Ok(d)
    }

    /// Builds the 4T compare stack for one cell.
    #[allow(clippy::too_many_arguments)]
    fn build_compare(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        ml: NodeId,
        sl: NodeId,
        slb: NodeId,
        d1: NodeId,
        d2: NodeId,
    ) -> Result<()> {
        let gnd = ckt.gnd();
        let cmp = MosParams::nmos_45lp().scaled_width(self.compare_width);
        let mid_a = ckt.node(&format!("{prefix}_ma"));
        let mid_b = ckt.node(&format!("{prefix}_mb"));
        ckt.add(Mosfet::new(
            format!("{prefix}_ca1"),
            ml,
            sl,
            mid_a,
            gnd,
            cmp,
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_ca2"),
            mid_a,
            d1,
            gnd,
            gnd,
            cmp,
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_cb1"),
            ml,
            slb,
            mid_b,
            gnd,
            cmp,
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_cb2"),
            mid_b,
            d2,
            gnd,
            gnd,
            cmp,
        ))?;
        Ok(())
    }
}

impl TcamDesign for Sram16t {
    fn name(&self) -> &'static str {
        "16T SRAM"
    }

    fn geometry(&self) -> CellGeometry {
        sram16t_geometry()
    }

    fn build_write(&self, spec: &ArraySpec, data: &[TernaryBit]) -> Result<WriteExperiment> {
        check_spec(spec, &[data])?;
        let mut ckt = Circuit::new();
        let gnd = ckt.gnd();
        let wl = ckt.node("wl");
        let vdd_rail = ckt.node("vddr");
        ckt.add(VoltageSource::dc("vdd", vdd_rail, gnd, spec.vdd))?;

        // Every other row's access transistor hangs its junction on the
        // bitline.
        let acc = self.nmos().scaled_width(self.access_width);
        let c_bl = self.geometry().line_cap(Line::Column, spec.rows, acc.cdb);
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let prefix = format!("c{j}");
            let (t2, t1) = bit.differential();
            // Worst-case prior: invert both target halves.
            let (i1, i2) = (!t1, !t2);
            let mut bls = Vec::new();
            for (half, init, target) in [(1, i1, t1), (2, i2, t2)] {
                let bl = ckt.node(&format!("bl{half}_{j}"));
                let blb = ckt.node(&format!("blb{half}_{j}"));
                let d = self.build_half(
                    &mut ckt,
                    &format!("{prefix}h{half}"),
                    init,
                    vdd_rail,
                    spec.vdd,
                    wl,
                    bl,
                    blb,
                )?;
                bls.push((bl, blb, target, d));
            }
            let d1 = bls[0].3;
            let d2 = bls[1].3;
            self.build_compare(&mut ckt, &prefix, gnd, gnd, gnd, d1, d2)?;

            for (half, (bl, blb, target, _)) in bls.iter().enumerate() {
                let h = half + 1;
                add_line_cap(&mut ckt, &format!("cbl{h}_{j}"), *bl, c_bl)?;
                add_line_cap(&mut ckt, &format!("cblb{h}_{j}"), *blb, c_bl)?;
                // Bitlines idle at V_DD; the low-going side pulses to 0 for
                // the write window and restores afterwards.
                let width = T_RESTORE - T_BL;
                let (low_going, steady, low_name, steady_name) = if *target {
                    // d goes high: pull BLB low.
                    (*blb, *bl, format!("vblb{h}_{j}"), format!("vbl{h}_{j}"))
                } else {
                    (*bl, *blb, format!("vbl{h}_{j}"), format!("vblb{h}_{j}"))
                };
                add_pulse_driver(&mut ckt, &low_name, low_going, spec.vdd, 0.0, T_BL, width)?;
                crate::designs::add_driver(
                    &mut ckt,
                    &steady_name,
                    steady,
                    tcam_spice::source::Waveshape::Dc(spec.vdd),
                )?;
            }
            probes.push(StateProbe {
                signal: format!("v({prefix}h1_d)"),
                threshold: spec.vdd / 2.0,
                expect_high: t1,
            });
            probes.push(StateProbe {
                signal: format!("v({prefix}h2_d)"),
                threshold: spec.vdd / 2.0,
                expect_high: t2,
            });
        }

        let c_wl = self.geometry().line_cap(Line::Row, spec.cols, 0.0);
        add_line_cap(&mut ckt, "cwl", wl, c_wl)?;
        add_pulse_driver(&mut ckt, "vwl", wl, 0.0, spec.vdd, T_WL, WL_WIDTH)?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_WL,
            t_stop: T_WRITE_STOP,
            probes,
        })
    }

    fn search_cell(&self) -> SearchCell {
        SearchCell {
            // A compare-stack gate of every row sits on each search line;
            // the line is nevertheless modelled wire only.
            sl_load_per_row: 0.0,
            row_rail: RowRail::LatchSupply,
            sense_window: SENSE_WINDOW,
            match_retention: 0.85,
        }
    }

    fn place_search_cell(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        stored: TernaryBit,
        vdd: f64,
        ml: NodeId,
        sl: NodeId,
        slb: NodeId,
        vdd_rail: NodeId,
    ) -> Result<()> {
        let gnd = ckt.gnd();
        let (v2, v1) = stored.differential();
        let h1 = format!("{prefix}h1");
        let h2 = format!("{prefix}h2");
        let d1 = self.build_half(ckt, &h1, v1, vdd_rail, vdd, gnd, gnd, gnd)?;
        let d2 = self.build_half(ckt, &h2, v2, vdd_rail, vdd, gnd, gnd, gnd)?;
        self.build_compare(ckt, prefix, ml, sl, slb, d1, d2)
    }
}
