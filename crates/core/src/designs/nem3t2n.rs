//! The paper's contribution: the 3-transistor, 2-NEM-relay dynamic TCAM
//! cell (Fig. 1).
//!
//! Cell topology per bit:
//!
//! ```text
//!   BL ──Tw1── q  = N1.gate      BLB ──Tw2── qb = N2.gate
//!   N1: drain = SLB, source = sn        (stores S)
//!   N2: drain = SL,  source = sn        (stores S̄)
//!   Ts: drain = ML, gate = sn, source = GND
//! ```
//!
//! The stored bit lives as charge on the relays' gate–body capacitance
//! (dynamic storage); the relays' zero threshold drop passes the full
//! search-line level to Ts's gate, and their 1 kΩ contact makes the Ts
//! gate swing fast — the properties behind the paper's search-speed claim.
//! Write wordlines are boosted to `V_PP` (standard DRAM practice) so a
//! stored '1' reaches the full V_DD despite the NMOS pass transistor.

use crate::bit::TernaryBit;
use crate::designs::{
    add_line_cap, add_ml_precharge, add_pulse_driver, add_step_driver, check_spec, search_drive,
    ArraySpec, SearchExperiment, StateProbe, TcamDesign, WriteExperiment,
};
use crate::parasitics::{nem3t2n_geometry, CellGeometry};
use tcam_devices::mosfet::{MosParams, Mosfet};
use tcam_devices::nem::NemRelay;
use tcam_devices::params::NemTargets;
use tcam_spice::element::Capacitor;
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;

/// The 3T2N design with its sizing/drive knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Nem3t2n {
    /// NEM relay targets (Table I by default).
    pub relay: NemTargets,
    /// Boosted write wordline level, volts.
    pub v_pp: f64,
    /// Wordline level during one-shot refresh, volts — only `V_R` plus a
    /// threshold of headroom is needed, so refresh wordlines swing less
    /// than write wordlines.
    pub v_pp_refresh: f64,
    /// Width factor of the matchline pull-down transistor Ts.
    pub ts_width: f64,
    /// Width factor of the write transistors.
    pub tw_width: f64,
}

impl Default for Nem3t2n {
    fn default() -> Self {
        Self {
            relay: NemTargets::paper(),
            v_pp: 1.8,
            v_pp_refresh: 1.3,
            ts_width: 2.0,
            tw_width: 1.0,
        }
    }
}

/// Instant the bitline data is driven in the write experiment.
const T_BL: f64 = 0.3e-9;
/// Instant the wordline rises.
const T_WL: f64 = 0.6e-9;
/// Wordline pulse width (must exceed τ_mech with margin).
const WL_WIDTH: f64 = 5e-9;
/// Write-experiment end.
const T_WRITE_STOP: f64 = 7e-9;

/// Precharge release instant in the search experiment.
const T_PC_RELEASE: f64 = 0.8e-9;
/// Search-line drive instant.
const T_SEARCH: f64 = 1.0e-9;
/// Sense window after the search edge (≈ 4× the expected worst-case t₅₀).
const SENSE_WINDOW: f64 = 0.6e-9;

impl Nem3t2n {
    /// The write transistor: a minimum, thin-overlap device. The storage
    /// node is only tens of attofarads, so the WL fall edge couples
    /// `c_gd/C_store · V_PP` into it — overlap capacitance must be small
    /// for the dip to stay inside the relay's hysteresis window. Its
    /// subthreshold leakage is the cell's retention clock, calibrated to
    /// the paper's ~26.5 µs (§IV-B): a standard-V_T device leaking ~1 pA,
    /// not the LP corner (whose femtoamps would give millisecond retention).
    #[allow(clippy::field_reassign_with_default)]
    fn tw_params(&self) -> MosParams {
        let mut p = MosParams::nmos_45lp().scaled_width(self.tw_width);
        p.vth0 = 0.46;
        p.cgs = 10e-18;
        p.cgd = 10e-18;
        p.cgb = 15e-18;
        p.cdb = 120e-18; // bitline-side junction (contact + via stack)
        p.csb = 40e-18; // storage-side junction

        p
    }

    fn ts_params(&self) -> MosParams {
        MosParams::nmos_45lp().scaled_width(self.ts_width)
    }

    /// Builds one cell. `stored` sets the *initial* relay/charge state;
    /// `sl`/`slb`/`bl`/`blb`/`wl`/`ml` may be ground for undriven lines.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_cell(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        stored: TernaryBit,
        vdd: f64,
        ml: NodeId,
        wl: NodeId,
        bl: NodeId,
        blb: NodeId,
        sl: NodeId,
        slb: NodeId,
    ) -> Result<()> {
        let gnd = ckt.gnd();
        let q = ckt.node(&format!("{prefix}_q"));
        let qb = ckt.node(&format!("{prefix}_qb"));
        let sn = ckt.node(&format!("{prefix}_sn"));
        let (s, sb) = stored.differential();

        ckt.add(Mosfet::new(
            format!("{prefix}_tw1"),
            bl,
            wl,
            q,
            gnd,
            self.tw_params(),
        ))?;
        ckt.add(Mosfet::new(
            format!("{prefix}_tw2"),
            blb,
            wl,
            qb,
            gnd,
            self.tw_params(),
        ))?;
        ckt.add(
            NemRelay::new(format!("{prefix}_n1"), slb, sn, q, gnd, &self.relay)
                .map_err(|e| tcam_spice::SpiceError::InvalidCircuit(e.to_string()))?
                .with_contact(s),
        )?;
        ckt.add(
            NemRelay::new(format!("{prefix}_n2"), sl, sn, qb, gnd, &self.relay)
                .map_err(|e| tcam_spice::SpiceError::InvalidCircuit(e.to_string()))?
                .with_contact(sb),
        )?;
        ckt.add(Mosfet::new(
            format!("{prefix}_ts"),
            ml,
            sn,
            gnd,
            gnd,
            self.ts_params(),
        ))?;
        // Initial storage charge, forced only during the operating point.
        ckt.add(
            Capacitor::new(format!("{prefix}_icq"), q, gnd, 1e-18)?.with_ic(if s {
                vdd
            } else {
                0.0
            }),
        )?;
        ckt.add(
            Capacitor::new(format!("{prefix}_icqb"), qb, gnd, 1e-18)?.with_ic(if sb {
                vdd
            } else {
                0.0
            }),
        )?;
        Ok(())
    }

    /// Builds one cell wired for the OSR column-slice experiment (matchline
    /// and search lines grounded), with stored-'1' gate nodes initialized to
    /// the decayed level `v_store` that the refresh must restore.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    #[allow(clippy::too_many_arguments)]
    pub fn build_cell_for_osr(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        stored: TernaryBit,
        v_store: f64,
        wl: NodeId,
        bl: NodeId,
        blb: NodeId,
    ) -> Result<()> {
        let gnd = ckt.gnd();
        self.build_cell(ckt, prefix, stored, v_store, gnd, wl, bl, blb, gnd, gnd)
    }

    /// Worst-case prior bit for a write: every defined bit flips; X starts
    /// as a stored '1'.
    fn write_initial(target: TernaryBit) -> TernaryBit {
        match target {
            TernaryBit::Zero => TernaryBit::One,
            TernaryBit::One => TernaryBit::Zero,
            TernaryBit::X => TernaryBit::One,
        }
    }
}

impl TcamDesign for Nem3t2n {
    fn name(&self) -> &'static str {
        "3T2N"
    }

    fn geometry(&self) -> CellGeometry {
        nem3t2n_geometry()
    }

    fn build_write(&self, spec: &ArraySpec, data: &[TernaryBit]) -> Result<WriteExperiment> {
        check_spec(spec, &[data])?;
        let mut ckt = Circuit::new();
        let gnd = ckt.gnd();
        let wl = ckt.node("wl");
        let geom = self.geometry();

        let tw = self.tw_params();
        let c_col = geom.column_wire_cap(spec.rows) + (spec.rows - 1) as f64 * tw.cdb;
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let bl = ckt.node(&format!("bl{j}"));
            let blb = ckt.node(&format!("blb{j}"));
            let prefix = format!("c{j}");
            self.build_cell(
                &mut ckt,
                &prefix,
                Self::write_initial(bit),
                spec.vdd,
                gnd,
                wl,
                bl,
                blb,
                gnd,
                gnd,
            )?;
            add_line_cap(&mut ckt, &format!("cbl{j}"), bl, c_col)?;
            add_line_cap(&mut ckt, &format!("cblb{j}"), blb, c_col)?;

            let (s, sb) = bit.differential();
            add_step_driver(
                &mut ckt,
                &format!("vbl{j}"),
                bl,
                0.0,
                if s { spec.vdd } else { 0.0 },
                T_BL,
            )?;
            add_step_driver(
                &mut ckt,
                &format!("vblb{j}"),
                blb,
                0.0,
                if sb { spec.vdd } else { 0.0 },
                T_BL,
            )?;
            probes.push(StateProbe {
                signal: format!("{prefix}_n1.contact"),
                threshold: 0.5,
                expect_high: s,
            });
            probes.push(StateProbe {
                signal: format!("{prefix}_n2.contact"),
                threshold: 0.5,
                expect_high: sb,
            });
        }

        add_line_cap(&mut ckt, "cwl", wl, geom.row_wire_cap(spec.cols))?;
        add_pulse_driver(&mut ckt, "vwl", wl, 0.0, self.v_pp, T_WL, WL_WIDTH)?;

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
        let geom = self.geometry();
        let c_sl = geom.column_wire_cap(spec.rows);

        for (j, (&bit, &kbit)) in stored.iter().zip(key).enumerate() {
            let sl = ckt.node(&format!("sl{j}"));
            let slb = ckt.node(&format!("slb{j}"));
            let prefix = format!("c{j}");
            self.build_cell(&mut ckt, &prefix, bit, spec.vdd, ml, gnd, gnd, gnd, sl, slb)?;
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

        let expect_match = crate::bit::word_matches(stored, key);
        Ok(SearchExperiment {
            circuit: ckt,
            ml_signal: "v(ml)".into(),
            t_search: T_SEARCH,
            t_stop: T_SEARCH + SENSE_WINDOW + 0.5e-9,
            expect_match,
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
    fn write_experiment_structure() {
        let d = Nem3t2n::default();
        let spec = ArraySpec::small();
        let data = vec![One, Zero, X, One];
        let exp = d.build_write(&spec, &data).unwrap();
        // 2 probes per cell.
        assert_eq!(exp.probes.len(), 2 * spec.cols);
        // 5 FETs/relays + 2 ic caps per cell, plus 2 line caps and 2
        // two-part drivers per column, plus WL cap + two-part WL driver.
        assert_eq!(exp.circuit.devices().len(), spec.cols * 13 + 3);
        exp.circuit.validate().unwrap();
    }

    #[test]
    fn search_experiment_structure() {
        let d = Nem3t2n::default();
        let spec = ArraySpec::small();
        let stored = vec![One, Zero, X, One];
        let key = vec![One, Zero, One, One];
        let exp = d.build_search(&spec, &stored, &key).unwrap();
        assert!(exp.expect_match); // X matches 1
        assert_eq!(exp.ml_signal, "v(ml)");
        exp.circuit.validate().unwrap();

        let key2 = vec![Zero, Zero, One, One];
        let exp2 = d.build_search(&spec, &stored, &key2).unwrap();
        assert!(!exp2.expect_match);
    }

    #[test]
    fn width_mismatch_rejected() {
        let d = Nem3t2n::default();
        let spec = ArraySpec::small();
        assert!(d.build_write(&spec, &[One]).is_err());
        assert!(d.build_search(&spec, &[One], &[One]).is_err());
    }

    #[test]
    fn worst_case_initial_flips_every_defined_bit() {
        assert_eq!(Nem3t2n::write_initial(One), Zero);
        assert_eq!(Nem3t2n::write_initial(Zero), One);
        assert_eq!(Nem3t2n::write_initial(X), One);
    }
}
