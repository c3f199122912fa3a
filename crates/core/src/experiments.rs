//! Orchestration of the paper's experiments (Table I, Fig. 3b, Fig. 6,
//! Fig. 7, §IV-B refresh) across all four designs.
//!
//! Each `figN_*` function returns plain-data rows that the `tcam-bench`
//! binaries format; `EXPERIMENTS.md` records the resulting numbers against
//! the paper's.

use crate::bit::TernaryBit;
use crate::designs::{ArraySpec, Fefet2f, Nem3t2n, Rram2t2r, Sram16t, TcamDesign};
use crate::ops::{run_search, run_write};
use crate::osr::{osr_default_pattern, run_osr, OsrResult};
use crate::retention::{run_retention, RetentionResult};
use tcam_devices::nem::NemRelay;
use tcam_devices::params::NemTargets;
use tcam_numeric::parallel::parallel_map;
use tcam_spice::analysis::{dc_sweep, DcSweepSpec};
use tcam_spice::element::{Resistor, VoltageSource};
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::options::SimOptions;
use tcam_spice::waveform::Waveform;

/// The four benchmarked designs, in the paper's reporting order.
#[must_use]
pub fn all_designs() -> Vec<Box<dyn TcamDesign>> {
    vec![
        Box::new(Nem3t2n::default()),
        Box::new(Sram16t::default()),
        Box::new(Rram2t2r::default()),
        Box::new(Fefet2f::default()),
    ]
}

/// The data word written/stored in comparisons: a repeating `1 0 X 1`
/// pattern exercising both polarities and the don't-care state.
#[must_use]
pub fn pattern_word(cols: usize) -> Vec<TernaryBit> {
    (0..cols)
        .map(|i| match i % 4 {
            0 | 3 => TernaryBit::One,
            1 => TernaryBit::Zero,
            _ => TernaryBit::X,
        })
        .collect()
}

/// A search key with exactly one mismatching bit against
/// [`pattern_word`] (the paper's worst-case single-bit mismatch).
#[must_use]
pub fn mismatch_key(cols: usize) -> Vec<TernaryBit> {
    let mut key = pattern_word(cols);
    key[0] = TernaryBit::Zero; // stored One at position 0 → mismatch
    key
}

/// One row of the Fig. 6 (write) comparison.
#[derive(Debug, Clone)]
pub struct WriteRow {
    /// Design name.
    pub design: String,
    /// Worst-case row write latency, seconds.
    pub latency: f64,
    /// Row write energy, joules.
    pub energy: f64,
    /// All cells reached their target state.
    pub valid: bool,
}

/// Reproduces Fig. 6: write latency and energy for one row of the array,
/// for every design.
///
/// # Errors
///
/// Propagates simulation failures from any design.
pub fn fig6_write(spec: &ArraySpec) -> Result<Vec<WriteRow>> {
    let data = pattern_word(spec.cols);
    // Each design builds and simulates its own circuit — share-nothing, so
    // the four designs run concurrently (results stay in reporting order).
    let outcomes = parallel_map(all_designs(), |design| {
        let exp = design.build_write(spec, &data)?;
        let res = run_write(exp)?;
        Ok(WriteRow {
            design: design.name().to_string(),
            latency: res.latency,
            energy: res.energy,
            valid: res.all_valid,
        })
    });
    outcomes.into_iter().collect()
}

/// One row of the Fig. 7 (search) comparison.
#[derive(Debug, Clone)]
pub struct SearchRow {
    /// Design name.
    pub design: String,
    /// Worst-case (1-bit mismatch) search latency, seconds.
    pub latency: f64,
    /// Per-search energy, joules.
    pub energy: f64,
    /// Energy–delay product, J·s.
    pub edp: f64,
    /// The mismatch was detected within the sense window.
    pub mismatch_ok: bool,
    /// A matching search kept its ML above the design's sense margin.
    pub match_ok: bool,
}

/// Reproduces Fig. 7: worst-case search latency, energy, and EDP for every
/// design, plus the functional match/mismatch checks.
///
/// # Errors
///
/// Propagates simulation failures from any design.
pub fn fig7_search(spec: &ArraySpec) -> Result<Vec<SearchRow>> {
    let stored = pattern_word(spec.cols);
    let key_miss = mismatch_key(spec.cols);
    let outcomes = parallel_map(all_designs(), |design| {
        let miss = run_search(design.build_search(spec, &stored, &key_miss)?)?;
        let hit = run_search(design.build_search(spec, &stored, &stored)?)?;
        let latency = miss.latency.unwrap_or(f64::NAN);
        Ok(SearchRow {
            design: design.name().to_string(),
            latency,
            energy: miss.energy,
            edp: latency * miss.energy,
            mismatch_ok: miss.functional_ok,
            match_ok: hit.functional_ok,
        })
    });
    outcomes.into_iter().collect()
}

/// The §IV-B refresh study: OSR energy, retention, refresh power.
#[derive(Debug)]
pub struct RefreshReport {
    /// The OSR slice experiment (array-assembled energies inside).
    pub osr: OsrResult,
    /// The retention experiment.
    pub retention: RetentionResult,
    /// Average refresh power `E_OSR / t_retention`, watts (`None` when the
    /// retention window was not long enough to observe release).
    pub refresh_power: Option<f64>,
}

/// Runs the refresh study at the given refresh voltage (use
/// [`crate::osr::V_REFRESH`] for the paper's 0.5 V).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn refresh_study(spec: &ArraySpec, v_refresh: f64) -> Result<RefreshReport> {
    let design = Nem3t2n::default();
    let osr = run_osr(&design, spec, v_refresh, osr_default_pattern)?;
    let retention = run_retention(&design, spec, v_refresh, 100e-6)?;
    let refresh_power = retention.refresh_power(osr.energy_array);
    Ok(RefreshReport {
        osr,
        retention,
        refresh_power,
    })
}

/// Traces the relay's quasi-static `I_DS`–`V_GB` hysteresis loop
/// (Fig. 3b): a triangle gate sweep with a 50 mV drain read bias. The
/// returned waveform's axis is the gate voltage; `"i(vd)"` carries the
/// (negated MNA-convention) drain source current and `"n1.contact"` the
/// contact state.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig3b_hysteresis(points_per_leg: usize) -> Result<Waveform> {
    let mut ckt = Circuit::new();
    let gnd = ckt.gnd();
    let d = ckt.node("d");
    let s = ckt.node("s");
    let g = ckt.node("g");
    ckt.add(
        NemRelay::new("n1", d, s, g, gnd, &NemTargets::paper())
            .map_err(|e| tcam_spice::SpiceError::InvalidCircuit(e.to_string()))?,
    )?;
    ckt.add(VoltageSource::dc("vg", g, gnd, 0.0))?;
    ckt.add(VoltageSource::dc("vd", d, gnd, 0.05))?;
    ckt.add(Resistor::new("rs", s, gnd, 1.0)?)?;
    let sweep = DcSweepSpec::triangle("vg", 0.0, 1.0, points_per_leg);
    dc_sweep(&mut ckt, &sweep, &SimOptions::default())
}

/// Measured Table I parameters of the calibrated relay, for the
/// `table1_device` report.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Measured pull-in voltage, volts.
    pub v_pi: f64,
    /// Measured pull-out voltage, volts.
    pub v_po: f64,
    /// ON-state gate capacitance, farads.
    pub c_on: f64,
    /// OFF-state gate capacitance, farads.
    pub c_off: f64,
    /// Contact resistance, ohms.
    pub r_on: f64,
    /// Simulated switching time at 1 V, seconds.
    pub tau_mech: f64,
}

/// Measures the calibrated relay against Table I.
///
/// # Errors
///
/// Returns calibration failures as [`tcam_spice::SpiceError::InvalidCircuit`].
pub fn table1_measurements() -> Result<Table1Row> {
    use tcam_devices::nem::mechanics::time_to_contact;
    let targets = NemTargets::paper();
    let beam = tcam_devices::nem::calibrate(&targets)
        .map_err(|e| tcam_spice::SpiceError::InvalidCircuit(e.to_string()))?;
    let tau = time_to_contact(&beam, 1.0, 100e-9)
        .ok_or_else(|| tcam_spice::SpiceError::NotFound("pull-in at 1 V".into()))?;
    Ok(Table1Row {
        v_pi: beam.v_pull_in(),
        v_po: beam.v_pull_out(),
        c_on: beam.c_gb(beam.g_contact),
        c_off: beam.c_gb(0.0),
        r_on: targets.r_on,
        tau_mech: tau,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{search_edp_ratios, search_latency_ratios};

    #[test]
    fn pattern_words_are_consistent() {
        let w = pattern_word(8);
        assert_eq!(w.len(), 8);
        let k = mismatch_key(8);
        assert!(!crate::bit::word_matches(&w, &k));
        assert!(crate::bit::word_matches(&w, &w));
    }

    #[test]
    fn table1_measurements_match_paper() {
        let t = table1_measurements().unwrap();
        assert!((t.v_pi - 0.53).abs() < 5e-3);
        assert!((t.v_po - 0.13).abs() < 5e-3);
        assert!((t.c_on - 20e-18).abs() < 1e-20);
        assert!((t.c_off - 15e-18).abs() < 1e-20);
        assert!((t.tau_mech - 2e-9).abs() < 0.1e-9);
    }

    #[test]
    fn hysteresis_loop_shows_window() {
        let wave = fig3b_hysteresis(51).unwrap();
        let contact = wave.trace("n1.contact").unwrap();
        let axis = wave.axis();
        // Pulls in on the way up near V_PI, releases on the way down near
        // V_PO.
        let on_at = axis[contact.iter().position(|&c| c > 0.5).unwrap()];
        assert!((on_at - 0.53).abs() < 0.03, "on at {on_at}");
        let off_at = (1..contact.len())
            .rev()
            .find(|&i| contact[i] < 0.5 && contact[i - 1] > 0.5)
            .map(|i| axis[i])
            .unwrap();
        assert!(off_at < 0.2, "off at {off_at}");
    }

    /// The cross-design figures at reduced size; Fig. 7 at the paper's own
    /// 64×64 is [`fig7_at_the_papers_size`].
    #[test]
    fn fig6_and_fig7_small_array() {
        let spec = ArraySpec {
            rows: 8,
            cols: 4,
            vdd: 1.0,
        };
        let writes = fig6_write(&spec).unwrap();
        assert_eq!(writes.len(), 4);
        for w in &writes {
            assert!(w.valid, "{} write failed validation", w.design);
            assert!(w.latency > 0.0 && w.energy > 0.0, "{:?}", w);
        }
        // Ordering: SRAM fastest, then 3T2N, then the NVM designs.
        let lat: std::collections::HashMap<_, _> = writes
            .iter()
            .map(|w| (w.design.clone(), w.latency))
            .collect();
        assert!(lat["16T SRAM"] < lat["3T2N"]);
        assert!(lat["3T2N"] < lat["2T2R RRAM"]);
        assert!(lat["3T2N"] < lat["2FeFET"]);

        let searches = fig7_search(&spec).unwrap();
        assert_eq!(searches.len(), 4);
        for s in &searches {
            assert!(s.mismatch_ok, "{} mismatch undetected", s.design);
            assert!(s.match_ok, "{} match corrupted", s.design);
            assert!(s.latency > 0.0 && s.energy > 0.0);
        }
        let lat: std::collections::HashMap<_, _> = searches
            .iter()
            .map(|s| (s.design.clone(), s.latency))
            .collect();
        // The headline claim: 3T2N searches fastest.
        assert!(lat["3T2N"] < lat["16T SRAM"]);
        assert!(lat["3T2N"] < lat["2T2R RRAM"]);
        assert!(lat["3T2N"] < lat["2FeFET"]);
    }

    /// Waveform of `design` searching `key` against [`pattern_word`].
    fn search_waveform(design: &dyn TcamDesign, spec: &ArraySpec, key: &[TernaryBit]) -> Waveform {
        let exp = design
            .build_search(spec, &pattern_word(spec.cols), key)
            .unwrap();
        run_search(exp).unwrap().waveform
    }

    /// Waveform of `design`'s worst-case (1-bit mismatch) search.
    fn worst_case_search(design: &dyn TcamDesign, spec: &ArraySpec) -> Waveform {
        search_waveform(design, spec, &mismatch_key(spec.cols))
    }

    /// The stamp sink's two passes mean the same thing on a real cell: what
    /// a refill scatters into the compressed matrix is the pattern pass's
    /// triplets at the same iterate summed per position, plus the gmin
    /// diagonal (the two sum in different orders, hence the tolerance).
    #[test]
    fn refill_assembles_what_the_pattern_pass_records() {
        use tcam_spice::prelude::{operating_point, AnalysisKind, EvalCtx, MnaSystem};
        let spec = ArraySpec {
            rows: 8,
            cols: 8,
            vdd: 1.0,
        };
        let exp = Nem3t2n::default()
            .build_search(&spec, &pattern_word(8), &mismatch_key(8))
            .unwrap();
        let (mut ckt, opts) = (exp.circuit, SimOptions::default());
        let op = operating_point(&mut ckt, &opts).unwrap().x;
        let moved: Vec<f64> = (0..op.len())
            .map(|i| op[i] + 0.02 * (i % 7) as f64)
            .collect();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Transient, &opts).unwrap();
        let index = sys.index();
        for (x, dt) in [(&op, 1e-12), (&moved, 3e-12)] {
            let (time, integrator) = (exp.t_search, opts.integrator);
            sys.refill(&ckt, time, dt, integrator, x, &op, opts.gmin);
            let ctx = EvalCtx {
                analysis: AnalysisKind::Transient,
                time,
                dt,
                integrator,
                x,
                x_prev: &op,
                index,
                source_scale: 1.0,
            };
            let mut triplets = MnaSystem::record_stamps(&ckt, &ctx);
            for i in 0..index.n_node_unknowns() {
                triplets.add(i, i, opts.gmin);
            }
            let (reference, _) = triplets.to_csc().unwrap();
            let a = sys.matrix();
            assert!(reference.nnz() > 8 * 8 && reference.nnz() <= a.nnz());
            for col in 0..a.n_cols() {
                for slot in a.col_ptr()[col]..a.col_ptr()[col + 1] {
                    let (got, want) = (a.values()[slot], reference.get(a.row_idx()[slot], col));
                    assert!(
                        (got - want).abs() <= 1e-10 * want.abs(),
                        "({}, {col}) at dt {dt}: refilled {got}, recorded {want}",
                        a.row_idx()[slot]
                    );
                }
            }
        }
    }

    /// The regression net for `SparseLu`'s column order: in the natural MNA
    /// order the 64×64 factors hold 29–48× the matrix's nonzeros, ordered
    /// 1.09–1.21×.
    #[test]
    fn column_order_keeps_search_fill_under_twice_the_matrix() {
        let small = ArraySpec {
            rows: 16,
            cols: 16,
            vdd: 1.0,
        };
        for spec in [small, ArraySpec::paper()] {
            for design in all_designs() {
                let s = worst_case_search(design.as_ref(), &spec).stats().unwrap();
                assert!(s.unknowns > spec.rows && s.matrix_nnz > s.unknowns, "{s:?}");
                assert!(
                    s.factor_nnz <= 2 * s.matrix_nnz,
                    "{} at {}x{}: {s:?}",
                    design.name(),
                    spec.rows,
                    spec.cols
                );
            }
        }
    }

    /// Fig. 7 as the paper ran it. The pinned ratios were recorded at the
    /// commit before `SparseLu` gained its column order: a simulator-only
    /// change may move them by rounding (1e-6 relative), not more, and the
    /// solver's work counts not at all.
    #[test]
    fn fig7_at_the_papers_size() {
        let spec = ArraySpec::paper();
        let rows = fig7_search(&spec).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.mismatch_ok, "{} mismatch undetected", r.design);
            assert!(r.match_ok, "{} match corrupted", r.design);
        }
        // The headline claim, in both of the paper's senses.
        let nem = &rows[0];
        assert_eq!(nem.design, "3T2N");
        for other in &rows[1..] {
            assert!(nem.latency < other.latency, "{other:?}");
            assert!(nem.edp < other.edp, "{other:?}");
        }

        // (design, measured at the parent commit, the paper's value if the
        // magnitude is held to a −20 … +10 % band of it).
        type Pin<'a> = (&'a str, f64, Option<f64>);
        let check = |what: &str, measured: Vec<(String, f64)>, pins: [Pin<'_>; 3]| {
            for ((design, got), (name, pinned, paper)) in measured.into_iter().zip(pins) {
                assert_eq!(design, name);
                assert!(
                    ((got - pinned) / pinned).abs() < 1e-6,
                    "{what} over {name}: {got} moved from {pinned}"
                );
                if let Some(paper) = paper {
                    assert!(
                        (0.8 * paper..=1.1 * paper).contains(&got),
                        "{what} over {name}: {got} outside the band of the paper's {paper}"
                    );
                }
            }
        };
        check(
            "search speedup",
            search_latency_ratios(&rows, "3T2N"),
            [
                ("16T SRAM", 5.732692375057333, Some(5.50)),
                ("2T2R RRAM", 1.3004785227563107, Some(1.47)),
                ("2FeFET", 3.1549966175040205, Some(3.36)),
            ],
        );
        // The RRAM / FeFET EDP ratios are pinned but not banded: the paper
        // reports 1.30 / 2.83, reachable only if search-line load scales
        // with cell size alone, whereas these search lines carry every
        // row's access-gate capacitance (EXPERIMENTS.md, F7 "known
        // divergence").
        check(
            "search EDP",
            search_edp_ratios(&rows, "3T2N"),
            [
                ("16T SRAM", 12.519629271484806, Some(12.7)),
                ("2T2R RRAM", 5.460118940551449, None),
                ("2FeFET", 17.16144648122769, None),
            ],
        );

        // Search work per design, the worst-case miss and then the matching
        // key — all eight transients of `fig7_search`: (nr_iterations,
        // steps_accepted, steps_rejected, fresh_factorizations,
        // refactorizations). The rejections are LTE only: no recovery rung
        // fires at the paper's size, so the always-on ladder costs these
        // runs nothing.
        let miss = [
            (228, 111, 2, 1, 227),
            (304, 121, 2, 1, 303),
            (454, 185, 2, 1, 453),
            (253, 123, 0, 1, 252),
        ];
        let hit = [
            (131, 83, 0, 1, 130),
            (227, 100, 0, 1, 226),
            (356, 157, 2, 1, 355),
            (176, 103, 0, 1, 175),
        ];
        let keys = [
            ("miss", mismatch_key(spec.cols), miss),
            ("hit", pattern_word(spec.cols), hit),
        ];
        for (key_name, key, counts) in &keys {
            for (design, pinned) in all_designs().iter().zip(counts) {
                let wave = search_waveform(design.as_ref(), &spec, key);
                let (s, t) = (wave.stats().unwrap(), wave.solver_trace().unwrap());
                let name = format!("{} {key_name}", design.name());
                assert_eq!(
                    (
                        s.nr_iterations,
                        s.steps_accepted,
                        s.steps_rejected,
                        s.fresh_factorizations,
                        s.refactorizations
                    ),
                    *pinned,
                    "{name}"
                );
                assert_eq!(t.reject_newton, 0, "{name}");
                assert_eq!(
                    (
                        t.gmin_events,
                        t.source_step_events,
                        t.integrator_fallbacks,
                        t.dt_shrinks,
                        t.ladder_recoveries
                    ),
                    (0, 0, 0, 0, 0),
                    "{name}: a recovery rung fired"
                );
            }
        }
    }
}
