//! The four TCAM designs benchmarked by the paper.
//!
//! Each design builds two SPICE-level experiment circuits mirroring the
//! paper's methodology (§IV-A):
//!
//! * **write** — one full row of a `rows × cols` array is rewritten; every
//!   column line carries the lumped wire + device capacitance of the whole
//!   column, so driver energy reflects the real array. The four write
//!   protocols are genuinely different circuits (one wordline pulse vs
//!   two-phase bipolar), so each design writes its own `build_write`.
//! * **search** — one matchline with `cols` cells, pre-charged through a
//!   clocked switch, then searched with a key; the worst case is a single
//!   mismatching cell discharging the full ML capacitance. Only the cell
//!   differs between designs, so there is one row scaffold,
//!   `build_search_rows`: a design states what differs as plain data
//!   ([`TcamDesign::search_cell`]) and places one cell
//!   ([`TcamDesign::place_search_cell`]); [`TcamDesign::build_search`] is
//!   the scaffold with one word, [`crate::array_search`] the same call
//!   with several.
//!
//! Every lumped line capacitance is a
//! [`CellGeometry::line_cap`](crate::parasitics::CellGeometry::line_cap).
//!
//! Designs: [`Nem3t2n`] (the paper's contribution), [`Sram16t`],
//! [`Rram2t2r`], [`Fefet2f`]. All four are simulated under one solver
//! set-up, as in the paper: [`crate::ops::run_write`] and
//! [`crate::ops::run_search`] run every experiment with
//! `SimOptions::default()`, so an experiment carries no solver options.

mod fefet2f;
mod nem3t2n;
mod rram2t2r;
mod sram16t;

pub use fefet2f::Fefet2f;
pub use nem3t2n::Nem3t2n;
pub use rram2t2r::Rram2t2r;
pub use sram16t::Sram16t;

use crate::bit::{word_matches, TernaryBit};
use crate::parasitics::{CellGeometry, Line};
use tcam_spice::element::{Capacitor, Resistor, VSwitch, VoltageSource};
use tcam_spice::error::{Result, SpiceError};
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;
use tcam_spice::source::Waveshape;

/// Array dimensions and supply for an experiment (the paper uses 64×64 at
/// V_DD = 1 V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArraySpec {
    /// Number of words (rows).
    pub rows: usize,
    /// Bits per word (columns).
    pub cols: usize,
    /// Supply voltage, volts.
    pub vdd: f64,
}

impl ArraySpec {
    /// The paper's 64×64 (4 Kb) array at 1 V.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            rows: 64,
            cols: 64,
            vdd: 1.0,
        }
    }

    /// A reduced array for fast unit tests.
    #[must_use]
    pub fn small() -> Self {
        Self {
            rows: 8,
            cols: 4,
            vdd: 1.0,
        }
    }
}

/// Edge rate of every line driver, seconds (models driver slew).
pub const DRIVE_RISE: f64 = 50e-12;

/// Output resistance of every line driver, ohms. This is what makes the
/// energy accounting physical: each line toggle burns the classic ½CV² in
/// the driver on top of the ½CV² stored (and recovers nothing on the way
/// down), so a full pulse costs CV² from the supply — without it, ideal
/// sources would losslessly recover the stored energy.
pub const DRIVE_RESISTANCE: f64 = 500.0;

/// Precharge release instant of every search experiment, seconds.
const T_PC_RELEASE: f64 = 0.8e-9;
/// Search-line drive instant of every search experiment, seconds.
const T_SEARCH: f64 = 1.0e-9;

/// The row-wide rail a design's search cell hangs on besides its matchline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowRail {
    /// None: matchline and search lines only (3T2N).
    None,
    /// The latches' V_DD supply — one ideal source for the whole array
    /// (16T SRAM).
    LatchSupply,
    /// The row's source line, carrying the row's wire capacitance and held
    /// at ground through a search (2T2R, 2FeFET).
    SourceLine,
}

/// What differs between the designs in a search experiment, as plain data;
/// the scaffold builds everything else the same way for all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCell {
    /// Device capacitance each *other* row of the array hangs on a search
    /// line, farads (the rows under test are there as devices); `0.0` is a
    /// wire-only line.
    pub sl_load_per_row: f64,
    /// The rail [`TcamDesign::place_search_cell`] receives.
    pub row_rail: RowRail,
    /// Sense window after the search edge, seconds (≈ 4× the design's
    /// expected worst-case t₅₀).
    pub sense_window: f64,
    /// Fraction of V_DD a *matching* row must still hold at the sense
    /// instant — [`SearchExperiment::v_match_min`] over V_DD, and the level
    /// an array search decodes every matchline against.
    pub match_retention: f64,
}

/// A per-cell state-validity check used to time write completion.
#[derive(Debug, Clone)]
pub struct StateProbe {
    /// Waveform signal name (e.g. `"r0c3_n1.contact"`).
    pub signal: String,
    /// Threshold the signal must end up beyond.
    pub threshold: f64,
    /// `true`: final value must exceed the threshold (and the crossing time
    /// counts toward latency if the signal started below); `false`: the
    /// reverse.
    pub expect_high: bool,
}

/// A built write-row experiment, ready for [`crate::ops::run_write`].
#[derive(Debug)]
pub struct WriteExperiment {
    /// The circuit (consumed by the run).
    pub circuit: Circuit,
    /// Instant the write drive begins (latency reference).
    pub t_drive: f64,
    /// Simulation end time.
    pub t_stop: f64,
    /// Per-cell state checks.
    pub probes: Vec<StateProbe>,
}

/// A built search experiment, ready for [`crate::ops::run_search`].
#[derive(Debug)]
pub struct SearchExperiment {
    /// The circuit (consumed by the run).
    pub circuit: Circuit,
    /// The matchline voltage signal (e.g. `"v(ml)"`).
    pub ml_signal: String,
    /// Instant the search-line drive begins (latency reference).
    pub t_search: f64,
    /// Simulation end time.
    pub t_stop: f64,
    /// Whether the stored word matches the key (functional check).
    pub expect_match: bool,
    /// Sense instant: the matchline is evaluated here. A matching row must
    /// still be above [`SearchExperiment::v_match_min`]; a mismatching row
    /// must have crossed V_DD/2 earlier.
    pub t_sense: f64,
    /// Minimum ML voltage a *match* must retain at `t_sense` (designs with
    /// ML leakage paths — RRAM — tolerate droop here).
    pub v_match_min: f64,
    /// Supply voltage (ML threshold reference).
    pub vdd: f64,
}

/// A TCAM design: cell geometry plus experiment-circuit constructors.
///
/// `Send` lets boxed designs be distributed across the scoped worker
/// threads of the Monte-Carlo and per-design sweeps; implementations hold
/// plain owned parameter data, so this costs nothing.
pub trait TcamDesign: Send {
    /// Human-readable design name (`"3T2N"`, `"16T SRAM"`, ...).
    fn name(&self) -> &'static str;

    /// Cell footprint used for line-parasitic scaling.
    fn geometry(&self) -> CellGeometry;

    /// Builds the write-one-row experiment. `data` holds the target word
    /// (`data.len() == spec.cols`); the row is initialized to the
    /// *worst-case* prior state (every defined bit flips).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent specs or netlist failures.
    fn build_write(&self, spec: &ArraySpec, data: &[TernaryBit]) -> Result<WriteExperiment>;

    /// What this design's search cell needs of the row scaffold.
    fn search_cell(&self) -> SearchCell;

    /// Places one cell storing `stored` as a search sees it: pull-down on
    /// `ml`, compared against `sl`/`slb`, any write-only line (wordline,
    /// bitlines) grounded. `rail` is the node [`SearchCell::row_rail`]
    /// asked for (ground for [`RowRail::None`]); node and device names start
    /// with `prefix`.
    ///
    /// # Errors
    ///
    /// Propagates netlist failures.
    #[allow(clippy::too_many_arguments)]
    fn place_search_cell(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        stored: TernaryBit,
        vdd: f64,
        ml: NodeId,
        sl: NodeId,
        slb: NodeId,
        rail: NodeId,
    ) -> Result<()>;

    /// Builds the search experiment for one matchline storing `stored` and
    /// searched with `key`: the row scaffold with one word, under the
    /// single-row names (`v(ml)`, cells `c{j}`).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent specs or netlist failures.
    fn build_search(
        &self,
        spec: &ArraySpec,
        stored: &[TernaryBit],
        key: &[TernaryBit],
    ) -> Result<SearchExperiment> {
        build_search_rows(self, spec, &[stored], key, RowNaming::Single)
    }
}

/// How the row scaffold names what belongs to one row. The caller states
/// it; it is never inferred from the word count, so a one-word array search
/// keeps its indexed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowNaming {
    /// One row, bare names: `ml`, `src`, cells `c{j}`.
    Single,
    /// Row `r`: `ml{r}`, `src{r}`, cells `r{r}c{j}`.
    Indexed,
}

impl RowNaming {
    /// Suffix of row `r`'s own nodes and devices (matchline, source line,
    /// precharge network).
    fn row(self, r: usize) -> String {
        match self {
            RowNaming::Single => String::new(),
            RowNaming::Indexed => r.to_string(),
        }
    }

    /// Name prefix of the cell at row `r`, column `j`.
    fn cell(self, r: usize, j: usize) -> String {
        match self {
            RowNaming::Single => format!("c{j}"),
            RowNaming::Indexed => format!("r{r}c{j}"),
        }
    }

    /// Waveform signal of row `r`'s matchline voltage.
    pub(crate) fn ml_signal(self, r: usize) -> String {
        format!("v(ml{})", self.row(r))
    }
}

/// The row scaffold: `words.len()` matchlines of `design`'s cells on shared
/// search lines, searched with `key` — the one body that wires rails,
/// search lines, cells, line capacitors, drivers, the source-line hold and
/// the precharge, and sets the timing. The returned experiment's
/// `ml_signal` and `expect_match` are row 0's; further rows' matchlines are
/// [`RowNaming::ml_signal`].
///
/// Unknowns are created in a fixed order — matchlines, rail, then per
/// column `sl`, `slb`, the column's cells, `csl`, `cslb`, `vsl`, `vslb`,
/// then the source-line holds, then the precharge networks — because the
/// numbering feeds the sparse LU's tie-breaks and the stamp summation
/// order, and with them the last bits of every pinned figure.
///
/// # Errors
///
/// [`SpiceError::InvalidCircuit`] for a degenerate spec, a word or key
/// whose width is not `spec.cols`, no words, more words than `spec.rows`,
/// or several words under [`RowNaming::Single`]; netlist failures.
pub(crate) fn build_search_rows<D: TcamDesign + ?Sized>(
    design: &D,
    spec: &ArraySpec,
    words: &[&[TernaryBit]],
    key: &[TernaryBit],
    naming: RowNaming,
) -> Result<SearchExperiment> {
    let mut all = words.to_vec();
    all.push(key);
    check_spec(spec, &all)?;
    let rows = words.len();
    if rows == 0 || rows > spec.rows || (naming == RowNaming::Single && rows != 1) {
        return Err(SpiceError::InvalidCircuit(format!(
            "{rows} words on a {}-row array ({naming:?} naming)",
            spec.rows
        )));
    }
    let cell = design.search_cell();
    let geom = design.geometry();
    let mut ckt = Circuit::new();
    let gnd = ckt.gnd();

    let mls: Vec<NodeId> = (0..rows)
        .map(|r| ckt.node(&format!("ml{}", naming.row(r))))
        .collect();
    let rails: Vec<NodeId> = match cell.row_rail {
        RowRail::None => vec![gnd; rows],
        RowRail::LatchSupply => {
            let rail = ckt.node("vddr");
            ckt.add(VoltageSource::dc("vdd", rail, gnd, spec.vdd))?;
            vec![rail; rows]
        }
        RowRail::SourceLine => (0..rows)
            .map(|r| ckt.node(&format!("src{}", naming.row(r))))
            .collect(),
    };

    // The wire spans the whole column; the device load of every row not
    // placed as cells below is lumped on it, so no row is counted twice.
    let c_sl = geom.line_cap(Line::Column, spec.rows, 0.0)
        + (spec.rows - rows) as f64 * cell.sl_load_per_row;
    for (j, &kbit) in key.iter().enumerate() {
        let sl = ckt.node(&format!("sl{j}"));
        let slb = ckt.node(&format!("slb{j}"));
        for (r, word) in words.iter().enumerate() {
            let (prefix, ml, rail) = (naming.cell(r, j), mls[r], rails[r]);
            design.place_search_cell(&mut ckt, &prefix, word[j], spec.vdd, ml, sl, slb, rail)?;
        }
        add_line_cap(&mut ckt, &format!("csl{j}"), sl, c_sl)?;
        add_line_cap(&mut ckt, &format!("cslb{j}"), slb, c_sl)?;
        let (v_sl, v_slb) = search_drive(kbit, spec.vdd);
        add_step_driver(&mut ckt, &format!("vsl{j}"), sl, 0.0, v_sl, T_SEARCH)?;
        add_step_driver(&mut ckt, &format!("vslb{j}"), slb, 0.0, v_slb, T_SEARCH)?;
    }

    let c_row = geom.line_cap(Line::Row, spec.cols, 0.0);
    if cell.row_rail == RowRail::SourceLine {
        for (r, &src) in rails.iter().enumerate() {
            let row = naming.row(r);
            add_line_cap(&mut ckt, &format!("csrc{row}"), src, c_row)?;
            ckt.add(VoltageSource::dc(format!("vsrc{row}"), src, gnd, 0.0))?;
        }
    }
    for (r, &ml) in mls.iter().enumerate() {
        add_ml_precharge(&mut ckt, &naming.row(r), ml, spec.vdd, c_row)?;
    }

    let t_sense = T_SEARCH + cell.sense_window;
    Ok(SearchExperiment {
        circuit: ckt,
        ml_signal: naming.ml_signal(0),
        t_search: T_SEARCH,
        t_stop: t_sense + 0.5e-9,
        expect_match: word_matches(words[0], key),
        t_sense,
        v_match_min: cell.match_retention * spec.vdd,
        vdd: spec.vdd,
    })
}

// ---------------------------------------------------------------------
// Shared construction helpers used by all four design modules.
// ---------------------------------------------------------------------

/// Adds a lumped line capacitor `name` from `node` to ground.
pub(crate) fn add_line_cap(ckt: &mut Circuit, name: &str, node: NodeId, farads: f64) -> Result<()> {
    ckt.add(Capacitor::new(name, node, NodeId::GROUND, farads)?)
}

/// Adds a source behind an explicit output resistance driving `node`.
pub(crate) fn add_driver_r(
    ckt: &mut Circuit,
    name: &str,
    node: NodeId,
    shape: Waveshape,
    resistance: f64,
) -> Result<()> {
    let internal = ckt.node(&format!("{name}_o"));
    ckt.add(VoltageSource::new(name, internal, NodeId::GROUND, shape))?;
    ckt.add(Resistor::new(
        format!("{name}_r"),
        internal,
        node,
        resistance,
    )?)
}

/// Adds a source behind [`DRIVE_RESISTANCE`] driving `node` with `shape`.
pub(crate) fn add_driver(
    ckt: &mut Circuit,
    name: &str,
    node: NodeId,
    shape: Waveshape,
) -> Result<()> {
    add_driver_r(ckt, name, node, shape, DRIVE_RESISTANCE)
}

/// Adds a stepped line driver: `idle` volts until `t_on`, then `active`.
pub(crate) fn add_step_driver(
    ckt: &mut Circuit,
    name: &str,
    node: NodeId,
    idle: f64,
    active: f64,
    t_on: f64,
) -> Result<()> {
    add_driver(
        ckt,
        name,
        node,
        Waveshape::step(idle, active, t_on, DRIVE_RISE),
    )
}

/// A line driver's pulse: `idle`, then `active` during
/// `[t_on, t_on + width]` behind [`DRIVE_RISE`] edges, back to `idle`,
/// repeating every `period` seconds (`f64::INFINITY`: once).
pub(crate) fn drive_pulse(idle: f64, active: f64, t_on: f64, width: f64, period: f64) -> Waveshape {
    Waveshape::Pulse {
        v1: idle,
        v2: active,
        delay: t_on,
        rise: DRIVE_RISE,
        fall: DRIVE_RISE,
        width,
        period,
    }
}

/// Adds a line driver pulsing once: [`drive_pulse`] behind
/// [`DRIVE_RESISTANCE`].
pub(crate) fn add_pulse_driver(
    ckt: &mut Circuit,
    name: &str,
    node: NodeId,
    idle: f64,
    active: f64,
    t_on: f64,
    width: f64,
) -> Result<()> {
    let shape = drive_pulse(idle, active, t_on, width, f64::INFINITY);
    add_driver(ckt, name, node, shape)
}

/// Adds a matchline precharge network whose names end in `suffix` (empty
/// for a single matchline; arrays instantiate one per row): a V_DD rail, a
/// clocked switch from the rail to `ml` that opens at [`T_PC_RELEASE`], and
/// the ML wire capacitance.
fn add_ml_precharge(
    ckt: &mut Circuit,
    suffix: &str,
    ml: NodeId,
    vdd: f64,
    c_ml_wire: f64,
) -> Result<()> {
    let rail = ckt.node(&format!("pc_rail{suffix}"));
    let clk = ckt.node(&format!("pc_clk{suffix}"));
    let gnd = ckt.gnd();
    ckt.add(VoltageSource::dc(
        format!("vml_rail{suffix}"),
        rail,
        gnd,
        vdd,
    ))?;
    // Clock high from t=0, drops at the release.
    ckt.add(VoltageSource::new(
        format!("vpc_clk{suffix}"),
        clk,
        gnd,
        Waveshape::step(vdd, 0.0, T_PC_RELEASE, DRIVE_RISE),
    ))?;
    ckt.add(
        VSwitch::new(
            format!("spc{suffix}"),
            ml,
            rail,
            clk,
            gnd,
            2e3,
            1e13,
            0.6 * vdd,
            0.4 * vdd,
        )?
        .with_state(true),
    )?;
    add_line_cap(ckt, &format!("cml_wire{suffix}"), ml, c_ml_wire)
}

/// Differential search-line drive values for a key bit at `v_search`:
/// `(sl, slb)` — `1 → (V, 0)`, `0 → (0, V)`, `X → (0, 0)`.
pub(crate) fn search_drive(key: TernaryBit, v_search: f64) -> (f64, f64) {
    let (s, sb) = key.differential();
    (
        if s { v_search } else { 0.0 },
        if sb { v_search } else { 0.0 },
    )
}

/// Worst-case prior bit for a write: every defined bit flips, and an `X`
/// target starts as a stored `1` (one element has to switch).
pub(crate) fn worst_case_prior(target: TernaryBit) -> TernaryBit {
    match target {
        TernaryBit::Zero => TernaryBit::One,
        TernaryBit::One => TernaryBit::Zero,
        TernaryBit::X => TernaryBit::One,
    }
}

/// Validates experiment inputs: word widths must equal `spec.cols` and the
/// spec must be non-degenerate.
pub(crate) fn check_spec(spec: &ArraySpec, words: &[&[TernaryBit]]) -> Result<()> {
    if spec.rows == 0 || spec.cols == 0 {
        return Err(SpiceError::InvalidCircuit(format!(
            "degenerate array {}x{}",
            spec.rows, spec.cols
        )));
    }
    if !(spec.vdd.is_finite() && spec.vdd > 0.0) {
        return Err(SpiceError::InvalidCircuit(format!(
            "bad supply voltage {}",
            spec.vdd
        )));
    }
    for w in words {
        if w.len() != spec.cols {
            return Err(SpiceError::InvalidCircuit(format!(
                "word width {} != array cols {}",
                w.len(),
                spec.cols
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::TernaryBit::{One, Zero, X};
    use crate::experiments::{all_designs, pattern_word};

    /// Lumped capacitance, in fF, of the line capacitor `name` of `ckt`.
    fn line_ff(ckt: &Circuit, name: &str) -> f64 {
        ckt.device_as::<Capacitor>(name).unwrap().capacitance() * 1e15
    }

    /// One row per design: what the scaffold is told, what the lines of a
    /// 64-row array end up carrying, which element holds the bit, and how
    /// many devices a write row is made of.
    #[test]
    fn every_design_over_the_one_scaffold() {
        // (name, rail, match retention, 64-row search line fF, 64-row write
        // column fF and its capacitor, first write probe holds S not S̄,
        // write devices per cell, write devices per row)
        let table = [
            // 5 FETs/relays + 2 ic caps per cell, 2 line caps and 2 two-part
            // drivers per column; WL cap + two-part WL driver.
            (
                "3T2N",
                RowRail::None,
                0.85,
                3.328,
                10.888,
                "cbl0",
                true,
                13,
                3,
            ),
            // 16 FETs + 4 ic caps + 4 line caps + 4 two-part drivers per
            // cell; vdd, WL cap, two-part WL driver.
            (
                "16T SRAM",
                RowRail::LatchSupply,
                0.85,
                6.656,
                13.208,
                "cbl1_0",
                false,
                32,
                4,
            ),
            // 4 cell devices + 2 caps + 2 two-part drivers per cell; the
            // ML/SRC caps and their two-part write drivers.
            (
                "2T2R RRAM",
                RowRail::SourceLine,
                0.42,
                12.138,
                12.138,
                "csl0",
                false,
                10,
                6,
            ),
            // 2 FeFETs + 2 caps + 2 two-part drivers per cell; the
            // floating-ML cap, SRC cap and its two-part plate driver.
            (
                "2FeFET",
                RowRail::SourceLine,
                0.8,
                15.032,
                15.032,
                "csl0",
                false,
                8,
                4,
            ),
        ];
        let small = ArraySpec::small();
        let paper = ArraySpec::paper();
        let stored = vec![One, Zero, X, One];
        let hit = vec![One, Zero, One, One]; // the stored X matches the 1
        let miss = vec![Zero, Zero, One, One];
        for (d, (name, rail, retention, sl_ff, col_ff, col_cap, s_first, per_cell, per_row)) in
            all_designs().iter().zip(table)
        {
            assert_eq!(d.name(), name);
            let cell = d.search_cell();
            assert_eq!(
                (cell.row_rail, cell.match_retention),
                (rail, retention),
                "{name}"
            );

            let exp = d.build_search(&small, &stored, &hit).unwrap();
            exp.circuit.validate().unwrap();
            assert!(exp.expect_match, "{name}");
            assert_eq!(exp.ml_signal, "v(ml)");
            assert_eq!(exp.t_sense, T_SEARCH + cell.sense_window);
            assert_eq!(exp.v_match_min, retention * small.vdd);
            assert!(
                !d.build_search(&small, &stored, &miss).unwrap().expect_match,
                "{name}"
            );
            assert!(d.build_search(&small, &[One], &[One]).is_err(), "{name}");
            assert!(d.build_write(&small, &[One]).is_err(), "{name}");

            let search = d
                .build_search(&paper, &pattern_word(64), &pattern_word(64))
                .unwrap();
            assert!(
                (line_ff(&search.circuit, "csl0") - sl_ff).abs() < 1e-6,
                "{name}"
            );
            assert_eq!(
                line_ff(&search.circuit, "cslb63"),
                line_ff(&search.circuit, "csl0")
            );
            let write = d.build_write(&paper, &pattern_word(64)).unwrap();
            assert!(
                (line_ff(&write.circuit, col_cap) - col_ff).abs() < 1e-6,
                "{name}"
            );

            let write = d.build_write(&small, &stored).unwrap();
            write.circuit.validate().unwrap();
            assert_eq!(
                write.circuit.devices().len(),
                small.cols * per_cell + per_row,
                "{name}"
            );
            // One stored-bit encoding, two probes per cell: the element
            // named first holds S in the 3T2N cell (N1, on SLB) and S̄ in the
            // other three (their first element is the SL-side one).
            assert_eq!(write.probes.len(), 2 * small.cols);
            for (j, bit) in stored.iter().enumerate() {
                let (s, sb) = bit.differential();
                let held = (
                    write.probes[2 * j].expect_high,
                    write.probes[2 * j + 1].expect_high,
                );
                assert_eq!(
                    held,
                    if s_first { (s, sb) } else { (sb, s) },
                    "{name} cell {j}"
                );
            }
        }
        assert_eq!([One, Zero, X].map(worst_case_prior), [Zero, One, One]);
    }

    /// `build_search` is the scaffold with one word: a cell placed for a
    /// two-word array is the same device list under another prefix, and
    /// the naming is what the caller says, whatever the word count.
    #[test]
    fn scaffold_rows_hold_the_cells_build_search_places() {
        let d = Nem3t2n::default();
        let spec = ArraySpec::small();
        let word = vec![One, Zero, X, One];
        let cell_devices = |exp: &SearchExperiment, prefix: &str| -> Vec<String> {
            let names = exp
                .circuit
                .devices()
                .iter()
                .map(|dev| dev.name().to_string());
            names
                .filter_map(|n| n.strip_prefix(prefix).map(str::to_string))
                .collect()
        };
        let one = d.build_search(&spec, &word, &word).unwrap();
        let two = build_search_rows(&d, &spec, &[&word, &word], &word, RowNaming::Indexed).unwrap();
        two.circuit.validate().unwrap();
        let per_cell = cell_devices(&one, "c2_");
        assert_eq!(per_cell, ["tw1", "tw2", "n1", "n2", "ts", "icq", "icqb"]);
        assert_eq!(cell_devices(&two, "r0c2_"), per_cell);
        assert_eq!(cell_devices(&two, "r1c2_"), per_cell);
        assert_eq!(
            two.circuit.devices().len(),
            one.circuit.devices().len() + 4 * 7 + 4
        );

        let indexed_one =
            build_search_rows(&d, &spec, &[&word], &word, RowNaming::Indexed).unwrap();
        assert_eq!(indexed_one.ml_signal, "v(ml0)");
        assert_eq!(cell_devices(&indexed_one, "r0c2_"), per_cell);
        assert!(build_search_rows(&d, &spec, &[&word, &word], &word, RowNaming::Single).is_err());
        assert!(build_search_rows(&d, &spec, &[], &word, RowNaming::Indexed).is_err());
    }

    /// A search line carries each row's device load once: as cells for the
    /// k rows the scaffold places, in the lump for the other `rows − k`.
    /// Designs whose search line has no per-row load keep one value at
    /// every k.
    #[test]
    fn search_line_lump_excludes_the_explicit_rows() {
        let spec = ArraySpec::small();
        let word = vec![One, Zero, X, One];
        for d in all_designs() {
            let per_row = d.search_cell().sl_load_per_row;
            let lone = line_ff(
                &d.build_search(&spec, &word, &word).unwrap().circuit,
                "csl0",
            );
            for k in [2, 4] {
                let words = vec![word.as_slice(); k];
                let exp = build_search_rows(d.as_ref(), &spec, &words, &word, RowNaming::Indexed)
                    .unwrap();
                let csl = line_ff(&exp.circuit, "csl0");
                let want = lone - (k - 1) as f64 * per_row * 1e15;
                assert!(
                    (csl - want).abs() < 1e-9,
                    "{} k={k}: {csl} fF, want {want}",
                    d.name()
                );
                if per_row == 0.0 {
                    assert_eq!(csl, lone, "{} k={k}", d.name());
                }
            }
        }
    }

    #[test]
    fn spec_constructors() {
        let p = ArraySpec::paper();
        assert_eq!((p.rows, p.cols), (64, 64));
        assert_eq!(p.vdd, 1.0);
        let s = ArraySpec::small();
        assert!(s.rows < p.rows && s.cols < p.cols);
    }

    #[test]
    fn search_drive_encoding() {
        assert_eq!(search_drive(One, 1.0), (1.0, 0.0));
        assert_eq!(search_drive(Zero, 1.0), (0.0, 1.0));
        assert_eq!(search_drive(X, 1.0), (0.0, 0.0));
    }

    #[test]
    fn check_spec_validation() {
        let spec = ArraySpec::small();
        let word = vec![One; spec.cols];
        assert!(check_spec(&spec, &[&word]).is_ok());
        let short = vec![One; spec.cols - 1];
        assert!(check_spec(&spec, &[&short]).is_err());
        let degenerate = ArraySpec {
            rows: 0,
            cols: 4,
            vdd: 1.0,
        };
        assert!(check_spec(&degenerate, &[]).is_err());
        let bad_vdd = ArraySpec {
            rows: 4,
            cols: 4,
            vdd: -1.0,
        };
        assert!(check_spec(&bad_vdd, &[]).is_err());
    }
}
