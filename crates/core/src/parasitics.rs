//! Cell geometry and line-parasitic estimation.
//!
//! The paper (§IV-A) adds "a parasitic capacitor scaled by the TCAM cell
//! size" to every array line; this module reproduces that methodology. Each
//! design declares a cell footprint (width × height); a line's wire
//! capacitance is `length × C_WIRE_PER_UM`, and device loading (junction or
//! gate capacitance per attached cell, which the experiment builders read
//! from the device models' own parameters) is added on top — both in
//! [`CellGeometry::line_cap`], the only place a line's load is decided.
//!
//! Footprints are analytic estimates for a 45 nm process, chosen so the
//! *relative* line loads track transistor count — the quantity the paper's
//! energy comparison hinges on: 16T SRAM ≫ 3T2N > 2T2R ≈ 2FeFET.

/// Wire capacitance per micrometre of routed line (typical mid-level metal
/// at 45 nm), farads.
pub const C_WIRE_PER_UM: f64 = 0.20e-15;

/// A TCAM cell footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// Cell width (along word/match lines), micrometres.
    pub width_um: f64,
    /// Cell height (along bit/search lines), micrometres.
    pub height_um: f64,
}

impl CellGeometry {
    /// Cell area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.width_um * self.height_um
    }

    /// Lumped capacitance of an array line spanning `cells` cells: the wire
    /// plus, for every cell but the one an experiment instantiates as
    /// devices, `per_cell` farads of attached device load. The one place
    /// the paper's "parasitic capacitor scaled by the TCAM cell size" is
    /// computed; `per_cell = 0.0` is a wire-only line.
    #[must_use]
    pub fn line_cap(&self, line: Line, cells: usize, per_cell: f64) -> f64 {
        let pitch_um = match line {
            Line::Row => self.width_um,
            Line::Column => self.height_um,
        };
        pitch_um * cells as f64 * C_WIRE_PER_UM + cells.saturating_sub(1) as f64 * per_cell
    }
}

/// The direction an array line runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line {
    /// Along a word: wordline, matchline, source line (one cell width per
    /// column).
    Row,
    /// Along a bit position: bitline, search line (one cell height per row).
    Column,
}

/// 16T SRAM TCAM cell (12T storage + 4T compare) at 45 nm.
#[must_use]
pub fn sram16t_geometry() -> CellGeometry {
    CellGeometry {
        width_um: 1.60,
        height_um: 0.52,
    }
}

/// 3T2N NEM-relay cell — three transistors with both relays integrated
/// above in BEOL, so the footprint is set by the transistors alone.
#[must_use]
pub fn nem3t2n_geometry() -> CellGeometry {
    CellGeometry {
        width_um: 0.62,
        height_um: 0.26,
    }
}

/// 2T2R RRAM cell (RRAMs stacked over the transistors).
#[must_use]
pub fn rram2t2r_geometry() -> CellGeometry {
    CellGeometry {
        width_um: 0.50,
        height_um: 0.21,
    }
}

/// 2FeFET cell — the densest of the four.
#[must_use]
pub fn fefet2f_geometry() -> CellGeometry {
    CellGeometry {
        width_um: 0.45,
        height_um: 0.19,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_ordering_matches_paper() {
        let sram = sram16t_geometry().area_um2();
        let nem = nem3t2n_geometry().area_um2();
        let rram = rram2t2r_geometry().area_um2();
        let fefet = fefet2f_geometry().area_um2();
        assert!(sram > nem, "16T must be the largest cell");
        assert!(nem > rram, "3T2N larger than 2T2R");
        assert!(rram > fefet, "2T2R larger than 2FeFET");
        // The paper's headline density claim: 3T2N ≪ 16T (≈5x here).
        assert!(sram / nem > 4.0, "ratio = {}", sram / nem);
    }

    #[test]
    fn line_caps_scale_with_span() {
        let g = nem3t2n_geometry();
        let c64 = g.line_cap(Line::Row, 64, 0.0);
        let c128 = g.line_cap(Line::Row, 128, 0.0);
        assert!((c128 / c64 - 2.0).abs() < 1e-12);
        // 64-cell NEM matchline wire: 64·0.62 µm·0.2 fF/µm ≈ 7.9 fF.
        assert!((c64 - 7.936e-15).abs() < 1e-17);
        let cc = g.line_cap(Line::Column, 64, 0.0);
        assert!((cc - 64.0 * 0.26 * 0.2e-15).abs() < 1e-18);
        // Device load rides on every cell but the instantiated one.
        assert_eq!(g.line_cap(Line::Column, 64, 1e-16), cc + 63.0 * 1e-16);
        assert_eq!(g.line_cap(Line::Column, 0, 1e-16), 0.0);
    }
}
