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
    add_line_cap, add_pulse_driver, add_step_driver, check_spec, worst_case_prior, ArraySpec,
    RowRail, SearchCell, StateProbe, TcamDesign, WriteExperiment,
};
use crate::parasitics::{nem3t2n_geometry, CellGeometry, Line};
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

    /// Builds a column slice of *held* cells — the circuit under the OSR,
    /// retention and neighbour-disturb experiments. Cell `r{r}` stores
    /// `stored[r]` on its own wordline `wl{r}`; all share the bitline pair
    /// `bl`/`blb`; matchline and search lines are grounded and stored-'1'
    /// gate nodes start at `v_store`. Each wordline's lumped `cwl{r}` is
    /// the full-row wire plus `wl_load_per_col` farads for every *other*
    /// column's write-transistor gates; `cbl`/`cblb` are wire only (the
    /// slice's own cells are attached as devices). Returns the wordlines
    /// and the bitline pair for the caller to drive.
    ///
    /// # Errors
    ///
    /// [`tcam_spice::SpiceError::InvalidCircuit`] for a degenerate `spec`;
    /// netlist-construction failures.
    pub(crate) fn build_held_slice(
        &self,
        ckt: &mut Circuit,
        spec: &ArraySpec,
        stored: &[TernaryBit],
        v_store: f64,
        wl_load_per_col: f64,
    ) -> Result<(Vec<NodeId>, NodeId, NodeId)> {
        check_spec(spec, &[])?;
        let gnd = ckt.gnd();
        let geom = self.geometry();
        let wls: Vec<NodeId> = (0..stored.len())
            .map(|r| ckt.node(&format!("wl{r}")))
            .collect();
        let bl = ckt.node("bl");
        let blb = ckt.node("blb");
        for (r, (&bit, &wl)) in stored.iter().zip(&wls).enumerate() {
            self.build_cell(
                ckt,
                &format!("r{r}"),
                bit,
                v_store,
                gnd,
                wl,
                bl,
                blb,
                gnd,
                gnd,
            )?;
        }
        let c_wl = geom.line_cap(Line::Row, spec.cols, wl_load_per_col);
        for (r, &wl) in wls.iter().enumerate() {
            add_line_cap(ckt, &format!("cwl{r}"), wl, c_wl)?;
        }
        let c_bl = geom.line_cap(Line::Column, spec.rows, 0.0);
        add_line_cap(ckt, "cbl", bl, c_bl)?;
        add_line_cap(ckt, "cblb", blb, c_bl)?;
        Ok((wls, bl, blb))
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

        // Every other row's write transistor hangs its bitline-side junction
        // on the column.
        let c_col = geom.line_cap(Line::Column, spec.rows, self.tw_params().cdb);
        let mut probes = Vec::new();

        for (j, &bit) in data.iter().enumerate() {
            let bl = ckt.node(&format!("bl{j}"));
            let blb = ckt.node(&format!("blb{j}"));
            let prefix = format!("c{j}");
            self.build_cell(
                &mut ckt,
                &prefix,
                worst_case_prior(bit),
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

        add_line_cap(
            &mut ckt,
            "cwl",
            wl,
            geom.line_cap(Line::Row, spec.cols, 0.0),
        )?;
        add_pulse_driver(&mut ckt, "vwl", wl, 0.0, self.v_pp, T_WL, WL_WIDTH)?;

        Ok(WriteExperiment {
            circuit: ckt,
            t_drive: T_WL,
            t_stop: T_WRITE_STOP,
            probes,
        })
    }

    fn search_cell(&self) -> SearchCell {
        SearchCell {
            // A relay drain of every row sits on each search line, but the
            // relay model has no drain junction to scale: wire only.
            sl_load_per_row: 0.0,
            row_rail: RowRail::None,
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
        _rail: NodeId,
    ) -> Result<()> {
        let gnd = ckt.gnd();
        self.build_cell(ckt, prefix, stored, vdd, ml, gnd, gnd, gnd, sl, slb)
    }
}
