//! The 16-transistor SRAM TCAM baseline (paper Fig. 2a, after [3]).
//!
//! Each cell holds two 6T SRAM halves (`d1`, `d2`) plus a 4T NOR-style
//! compare stack. Encoding: stored `1 → (d1, d2) = (0, 1)`,
//! `0 → (1, 0)`, `X → (0, 0)`; pull-down path A is gated by `(SL, d1)`,
//! path B by `(SLB, d2)`.
//!
//! SRAM bitlines idle *precharged high* (standard practice); a write pulls
//! the low-going side to ground and the precharge restore afterwards is
//! where the write energy goes — four bitlines per column, two of which
//! toggle per written cell.

use crate::bit::TernaryBit;
use crate::designs::{
    add_line_cap, add_ml_precharge, add_pulse_driver, add_step_driver, check_spec, search_drive,
    ArraySpec, SearchExperiment, StateProbe, TcamDesign, WriteExperiment,
};
use crate::parasitics::{sram16t_geometry, CellGeometry};
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

/// Precharge release in the search experiment.
const T_PC_RELEASE: f64 = 0.8e-9;
/// Search-line drive instant.
const T_SEARCH: f64 = 1.0e-9;
/// Sense window (≈ 4× the expected SRAM worst-case t₅₀).
const SENSE_WINDOW: f64 = 2.0e-9;

/// The `(d1, d2)` encoding of a stored ternary bit.
fn encode(bit: TernaryBit) -> (bool, bool) {
    match bit {
        TernaryBit::One => (false, true),
        TernaryBit::Zero => (true, false),
        TernaryBit::X => (false, false),
    }
}

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

    fn c_bitline(&self, spec: &ArraySpec) -> f64 {
        let acc = self.nmos().scaled_width(self.access_width);
        sram16t_geometry().column_wire_cap(spec.rows) + (spec.rows - 1) as f64 * acc.cdb
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

        let c_bl = self.c_bitline(spec);
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let prefix = format!("c{j}");
            let (t1, t2) = encode(bit);
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

        add_line_cap(&mut ckt, "cwl", wl, self.geometry().row_wire_cap(spec.cols))?;
        add_pulse_driver(&mut ckt, "vwl", wl, 0.0, spec.vdd, T_WL, WL_WIDTH)?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_WL,
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
        let vdd_rail = ckt.node("vddr");
        ckt.add(VoltageSource::dc("vdd", vdd_rail, gnd, spec.vdd))?;
        let geom = self.geometry();
        let c_sl = geom.column_wire_cap(spec.rows);

        for (j, (&bit, &kbit)) in stored.iter().zip(key).enumerate() {
            let prefix = format!("c{j}");
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            let (v1, v2) = encode(bit);
            let d1 = self.build_half(
                &mut ckt,
                &format!("{prefix}h1"),
                v1,
                vdd_rail,
                spec.vdd,
                gnd,
                gnd,
                gnd,
            )?;
            let d2 = self.build_half(
                &mut ckt,
                &format!("{prefix}h2"),
                v2,
                vdd_rail,
                spec.vdd,
                gnd,
                gnd,
                gnd,
            )?;
            self.build_compare(&mut ckt, &prefix, ml, sl, slb, d1, d2)?;
            add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_sl)?;
            add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_sl)?;
            let (v_sl, v_slb) = search_drive(kbit, spec.vdd);
            add_step_driver(&mut ckt, &format!("vsl{j}"), sl, 0.0, v_sl, T_SEARCH)?;
            add_step_driver(&mut ckt, &format!("vslb{j}"), slb, 0.0, v_slb, T_SEARCH)?;
        }

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
            v_match_min: 0.85 * spec.vdd,
            vdd: spec.vdd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::TernaryBit::{One, Zero, X};

    #[test]
    fn encoding_matches_nor_tcam_rule() {
        // Mismatch (stored 1, search 0) requires the SLB/d2 path on.
        let (d1, d2) = encode(One);
        assert!(!d1 && d2);
        let (d1, d2) = encode(Zero);
        assert!(d1 && !d2);
        let (d1, d2) = encode(X);
        assert!(!d1 && !d2);
    }

    #[test]
    fn write_structure() {
        let d = Sram16t::default();
        let spec = ArraySpec::small();
        let data = vec![One, Zero, X, One];
        let exp = d.build_write(&spec, &data).unwrap();
        exp.circuit.validate().unwrap();
        assert_eq!(exp.probes.len(), 2 * spec.cols);
        // 16 FETs + 4 ic caps + 4 line caps + 4 two-part drivers per
        // cell, plus vdd, wl cap, two-part wl driver.
        assert_eq!(exp.circuit.devices().len(), spec.cols * 32 + 4);
    }

    #[test]
    fn search_structure() {
        let d = Sram16t::default();
        let spec = ArraySpec::small();
        let stored = vec![One, Zero, X, One];
        let exp = d.build_search(&spec, &stored, &stored).unwrap();
        assert!(exp.expect_match);
        exp.circuit.validate().unwrap();
    }
}
