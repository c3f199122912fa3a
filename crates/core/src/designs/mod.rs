//! The four TCAM designs benchmarked by the paper.
//!
//! Each design builds two SPICE-level experiment circuits mirroring the
//! paper's methodology (§IV-A):
//!
//! * **write** — one full row of a `rows × cols` array is rewritten; every
//!   column line carries the lumped wire + device capacitance of the whole
//!   column, so driver energy reflects the real array.
//! * **search** — one matchline with `cols` cells, pre-charged through a
//!   clocked switch, then searched with a key; the worst case is a single
//!   mismatching cell discharging the full ML capacitance.
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

use crate::bit::TernaryBit;
use crate::parasitics::CellGeometry;
use tcam_spice::element::{Capacitor, Resistor, VSwitch, VoltageSource};
use tcam_spice::error::Result;
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

    /// Builds the search experiment for one matchline storing `stored` and
    /// searched with `key`.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent specs or netlist failures.
    fn build_search(
        &self,
        spec: &ArraySpec,
        stored: &[TernaryBit],
        key: &[TernaryBit],
    ) -> Result<SearchExperiment>;
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

/// Adds a pulsed line driver: `idle`, then `active` during
/// `[t_on, t_on + width]`, back to `idle`.
pub(crate) fn add_pulse_driver(
    ckt: &mut Circuit,
    name: &str,
    node: NodeId,
    idle: f64,
    active: f64,
    t_on: f64,
    width: f64,
) -> Result<()> {
    add_driver(
        ckt,
        name,
        node,
        Waveshape::Pulse {
            v1: idle,
            v2: active,
            delay: t_on,
            rise: DRIVE_RISE,
            fall: DRIVE_RISE,
            width,
            period: f64::INFINITY,
        },
    )
}

/// Adds a matchline precharge network with a name `suffix` (so multi-ML
/// arrays can instantiate one per row): a V_DD rail, a clocked switch from
/// the rail to `ml` that opens at `t_release`, and the ML wire capacitance.
pub(crate) fn add_ml_precharge_named(
    ckt: &mut Circuit,
    suffix: &str,
    ml: NodeId,
    vdd: f64,
    c_ml_wire: f64,
    t_release: f64,
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
    // Clock high from t=0, drops at t_release.
    ckt.add(VoltageSource::new(
        format!("vpc_clk{suffix}"),
        clk,
        gnd,
        Waveshape::step(vdd, 0.0, t_release, DRIVE_RISE),
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

/// Single-ML convenience wrapper over [`add_ml_precharge_named`].
pub(crate) fn add_ml_precharge(
    ckt: &mut Circuit,
    ml: NodeId,
    vdd: f64,
    c_ml_wire: f64,
    t_release: f64,
) -> Result<()> {
    add_ml_precharge_named(ckt, "", ml, vdd, c_ml_wire, t_release)
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

/// Validates experiment inputs: word widths must equal `spec.cols` and the
/// spec must be non-degenerate.
pub(crate) fn check_spec(spec: &ArraySpec, words: &[&[TernaryBit]]) -> Result<()> {
    use tcam_spice::error::SpiceError;
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
