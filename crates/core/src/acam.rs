//! Circuit spine of the analog/range-CAM layer: a 6T2M-style cell
//! netlist, a matchline-discharge vs interval-distance calibration, and
//! a conductance-variation study.
//!
//! The behavioral acam layer (`tcam-arch`) stores an acceptance interval
//! `[lo, hi]` per cell and counts out-of-range cells. The canonical
//! hardware realization (the 6T2M aCAM of the in-memory-computing
//! literature) encodes each bound as a programmable **memristor divider**
//! and compares the analog data-line voltage against the two divider
//! taps, discharging the matchline when the key falls outside the
//! stored window. This module builds exactly that cell from the
//! workspace device library:
//!
//! ```text
//!   vdd ── M_lo ── ref_lo ── R_REF ── gnd     (divider: V = vdd·R/(R+R_mem))
//!   vdd ── M_hi ── ref_hi ── R_REF ── gnd
//!   ML  ── S_lo(on: ref_lo − DL > v_on) ── gnd   ("key below lo" pull-down)
//!   ML  ── S_hi(on: DL − ref_hi > v_on) ── gnd   ("key above hi" pull-down)
//! ```
//!
//! `M_lo`/`M_hi` are [`Rram`] cells whose filament state programs the
//! bound; the two comparator+pull-down branches (three transistors each
//! in the reference cell, abstracted here as threshold [`VSwitch`]es
//! with the pull-down on-resistance) complete the 6T2M budget. Bounds
//! are programmed **half a quantization step outside** the stored
//! interval so an exact-bound key sits a clean half-step away from the
//! comparator threshold instead of inside its hysteresis window; this is
//! also why the circuit reference design caps its level count
//! ([`MAX_CIRCUIT_LEVELS`]) — beyond it the half-step margin dips under
//! the comparator threshold. An analog don't-care is simply the full
//! window (`[0, levels−1]`), which programs the dividers to the window
//! edges and can never fire either branch.
//!
//! Search timing mirrors the TCAM designs, with one twist: the data
//! lines carry *analog levels*, not differential rails, and a key level
//! below a stored `lo` bound closes `S_lo` while the lines are still
//! settling. The experiment therefore drives the data lines from `t = 0`
//! and releases the matchline precharge only after they have settled —
//! the release instant is the search/latency reference. Each out-of-range
//! cell adds one pull-down path, so the ML discharge rate is monotone in
//! the **interval-violation count**: [`calibrate_distance`] measures
//! `ML(t_sense)` per distance and fits the sense threshold the
//! behavioral match/mismatch verdict maps onto.
//!
//! [`acam_noise_study`] is the variation companion (same shape as
//! [`crate::variation`]): conductance noise on every bound memristor,
//! every trial an independent pair of scalar [`run_search`] transients on
//! the worker pool, per-trial failures contained with causes retained,
//! bit-identical to a serial trial loop for any worker count.
//! [`AcamCellDesign::perturbed_bound`] exposes the calibrated
//! noise→bound transfer so `tcam_arch::apps::knn` can turn the same σ
//! grid into a classification accuracy-vs-noise curve without transients.
//!
//! [`Rram`]: tcam_devices::rram::Rram
//! [`VSwitch`]: tcam_spice::element::VSwitch

use crate::designs::{
    add_line_cap, add_ml_precharge, add_step_driver, SearchExperiment, T_PC_RELEASE,
};
use crate::fault::ChaosProbe;
use crate::ops::run_search;
use crate::variation::assemble;
use tcam_devices::params::RramParams;
use tcam_devices::rram::Rram;
use tcam_numeric::parallel::parallel_map;
use tcam_numeric::rng::SplitMix64;
use tcam_spice::element::VSwitch;
use tcam_spice::error::{Result, SpiceError};
use tcam_spice::netlist::Circuit;

/// Most levels the circuit reference design resolves: the half-step
/// programming margin `vdd·(V_WINDOW_HI − V_WINDOW_LO)/(2·(levels−1))`
/// must stay above the comparator threshold, which caps a 1 V design
/// near 19 levels; 16 keeps a clean margin. (The behavioral layer in
/// `tcam-arch` goes to 4096 levels; a hardware mapping at that depth
/// needs a wider window or a sharper comparator.)
pub const MAX_CIRCUIT_LEVELS: u16 = 16;

/// Analog-CAM row shape for a circuit experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcamSpec {
    /// Cells per word (one matchline).
    pub cols: usize,
    /// Quantization levels per cell (`2..=`[`MAX_CIRCUIT_LEVELS`]).
    pub levels: u16,
    /// Supply voltage, volts.
    pub vdd: f64,
}

impl AcamSpec {
    /// The reference design the calibration and bench gates run on:
    /// 8 cells × 16 levels at 1 V.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            cols: 8,
            levels: 16,
            vdd: 1.0,
        }
    }

    /// A reduced row for fast unit tests.
    #[must_use]
    pub fn small() -> Self {
        Self {
            cols: 4,
            levels: 16,
            vdd: 1.0,
        }
    }
}

/// Sense window after the precharge release — the search reference here
/// ([`T_PC_RELEASE`]): the data lines settle first (they are driven from
/// `t = 0`), then the ML floats. One violating cell must cross
/// `V_DD/2` inside it (`τ_1 = R_PD·C_ML = 0.6 ns` crosses at ≈ 0.4 ns).
const SENSE_WINDOW: f64 = 0.45e-9;

/// Fraction of V_DD at the bottom of the level→voltage window. The
/// window floor keeps the bound memristor resistance inside
/// `[r_on, r_off]` at both extremes (with the half-step overshoot).
const V_WINDOW_LO: f64 = 0.15;
/// Fraction of V_DD at the top of the level→voltage window.
const V_WINDOW_HI: f64 = 0.88;

/// The 6T2M analog-CAM cell design: memristor parameters plus the fixed
/// divider/comparator/pull-down component values.
#[derive(Debug, Clone, PartialEq)]
pub struct AcamCellDesign {
    /// Bound-memristor parameters (defaults shared with the 2T2R TCAM).
    pub rram: RramParams,
    /// Divider reference resistance to ground, ohms.
    pub r_ref: f64,
    /// Pull-down on-resistance of one comparator branch, ohms. With
    /// [`Self::c_ml`] this sets the per-violation discharge time
    /// constant the distance calibration resolves.
    pub r_pd: f64,
    /// Lumped matchline capacitance of the row, farads.
    pub c_ml: f64,
    /// Comparator switching threshold (and hysteresis half-width),
    /// volts: a branch closes above `+v_comp_on` overdrive and reopens
    /// below `−v_comp_on`.
    pub v_comp_on: f64,
}

impl Default for AcamCellDesign {
    fn default() -> Self {
        Self {
            rram: RramParams::default(),
            r_ref: 240e3,
            r_pd: 120e3,
            c_ml: 5e-15,
            v_comp_on: 0.02,
        }
    }
}

/// Data-line wire capacitance per cell, farads.
const C_DL: f64 = 2e-15;

impl AcamCellDesign {
    /// Quantization step of the level→voltage map, volts.
    #[must_use]
    pub fn level_step(&self, spec: &AcamSpec) -> f64 {
        spec.vdd * (V_WINDOW_HI - V_WINDOW_LO) / f64::from(spec.levels - 1)
    }

    /// Linear level→voltage map over the design window (continuous:
    /// fractional levels are meaningful for noise-shifted bounds).
    #[must_use]
    pub fn level_voltage(&self, level: f64, spec: &AcamSpec) -> f64 {
        spec.vdd * V_WINDOW_LO + level * self.level_step(spec)
    }

    /// Inverse of [`Self::level_voltage`], clamped to the level domain.
    #[must_use]
    pub fn voltage_level(&self, volts: f64, spec: &AcamSpec) -> f64 {
        ((volts - spec.vdd * V_WINDOW_LO) / self.level_step(spec))
            .clamp(0.0, f64::from(spec.levels - 1))
    }

    /// Memristor resistance that programs a divider tap of `volts`:
    /// `V = vdd·R_ref/(R_ref + R)` solved for `R`, clamped to the
    /// device's `[r_on, r_off]` range.
    #[must_use]
    pub fn bound_resistance(&self, volts: f64, spec: &AcamSpec) -> f64 {
        (self.r_ref * (spec.vdd / volts - 1.0)).clamp(self.rram.r_on, self.rram.r_off)
    }

    /// Filament state programming resistance `r` (inverse of the RRAM
    /// model's exponential interpolation), clamped to `[0, 1]`.
    #[must_use]
    pub fn resistance_state(&self, r: f64) -> f64 {
        ((self.rram.r_off / r).ln() / (self.rram.r_off / self.rram.r_on).ln()).clamp(0.0, 1.0)
    }

    /// The noise→bound transfer function of the calibrated cell: a
    /// stored bound at (continuous) `level` whose memristor conductance
    /// is perturbed by the lognormal factor `exp(sigma·z)` lands at the
    /// returned effective level. Pure behavioral arithmetic (no
    /// transient) — this is what turns a σ grid into an accuracy curve.
    #[must_use]
    pub fn perturbed_bound(&self, level: f64, sigma: f64, z: f64, spec: &AcamSpec) -> f64 {
        let r = self.bound_resistance(self.level_voltage(level, spec), spec);
        let noisy = (r * (sigma * z).exp()).clamp(self.rram.r_on, self.rram.r_off);
        self.voltage_level(spec.vdd * self.r_ref / (self.r_ref + noisy), spec)
    }

    /// Filament states `(s_lo, s_hi)` programming one cell's interval,
    /// with the half-step overshoot that keeps exact-bound keys out of
    /// the comparator hysteresis window.
    fn interval_states(&self, lo: u16, hi: u16, spec: &AcamSpec) -> (f64, f64) {
        let half = 0.5 * self.level_step(spec);
        let v_lo = self.level_voltage(f64::from(lo), spec) - half;
        let v_hi = self.level_voltage(f64::from(hi), spec) + half;
        (
            self.resistance_state(self.bound_resistance(v_lo, spec)),
            self.resistance_state(self.bound_resistance(v_hi, spec)),
        )
    }

    /// Builds the search experiment for one analog row storing the
    /// intervals `stored` (inclusive `[lo, hi]` levels) and searched
    /// with the quantized `key`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidCircuit`] for degenerate specs, mismatched
    /// widths, inverted or out-of-domain bounds, or out-of-domain keys.
    pub fn build_search(
        &self,
        spec: &AcamSpec,
        stored: &[(u16, u16)],
        key: &[u16],
    ) -> Result<SearchExperiment> {
        check_acam(spec, stored, key)?;
        let states: Vec<(f64, f64)> = stored
            .iter()
            .map(|&(lo, hi)| self.interval_states(lo, hi, spec))
            .collect();
        let expect_match = stored
            .iter()
            .zip(key)
            .all(|(&(lo, hi), &k)| lo <= k && k <= hi);
        self.build_row(spec, &states, key, expect_match)
    }

    /// Netlist construction shared by the public builder (nominal
    /// states) and the noise study (perturbed states).
    fn build_row(
        &self,
        spec: &AcamSpec,
        states: &[(f64, f64)],
        key: &[u16],
        expect_match: bool,
    ) -> Result<SearchExperiment> {
        let mut ckt = Circuit::new();
        let gnd = ckt.gnd();
        let ml = ckt.node("ml");
        let rail = ckt.node("acam_rail");
        ckt.add(tcam_spice::element::VoltageSource::dc(
            "vrail", rail, gnd, spec.vdd,
        ))?;

        for (j, (&(s_lo, s_hi), &k)) in states.iter().zip(key).enumerate() {
            let dl = ckt.node(&format!("dl{j}"));
            let ref_lo = ckt.node(&format!("ref_lo{j}"));
            let ref_hi = ckt.node(&format!("ref_hi{j}"));
            for (suffix, tap, state) in [("lo", ref_lo, s_lo), ("hi", ref_hi, s_hi)] {
                ckt.add(Rram::new(format!("m_{suffix}{j}"), rail, tap, self.rram).with_state(state))?;
                ckt.add(tcam_spice::element::Resistor::new(
                    format!("rref_{suffix}{j}"),
                    tap,
                    gnd,
                    self.r_ref,
                )?)?;
            }
            // Analog key level, driven from t = 0 so the comparators
            // settle before the precharge release.
            add_line_cap(&mut ckt, &format!("cdl{j}"), dl, C_DL)?;
            add_step_driver(
                &mut ckt,
                &format!("vdl{j}"),
                dl,
                0.0,
                self.level_voltage(f64::from(k), spec),
                0.0,
            )?;
            // Comparator pull-downs; every node idles at 0 V, so both
            // branches start open consistently.
            ckt.add(
                VSwitch::new(
                    format!("s_lo{j}"),
                    ml,
                    gnd,
                    ref_lo,
                    dl,
                    self.r_pd,
                    1e13,
                    self.v_comp_on,
                    -self.v_comp_on,
                )?
                .with_state(false),
            )?;
            ckt.add(
                VSwitch::new(
                    format!("s_hi{j}"),
                    ml,
                    gnd,
                    dl,
                    ref_hi,
                    self.r_pd,
                    1e13,
                    self.v_comp_on,
                    -self.v_comp_on,
                )?
                .with_state(false),
            )?;
        }

        add_ml_precharge(&mut ckt, "", ml, spec.vdd, self.c_ml)?;

        Ok(SearchExperiment {
            circuit: ckt,
            ml_signal: "v(ml)".into(),
            t_search: T_PC_RELEASE,
            t_stop: T_PC_RELEASE + SENSE_WINDOW + 0.5e-9,
            expect_match,
            t_sense: T_PC_RELEASE + SENSE_WINDOW,
            // A matching ML has no discharge path at all; 0.8·V_DD
            // tolerates only the precharge-contention dip.
            v_match_min: 0.8 * spec.vdd,
            vdd: spec.vdd,
        })
    }
}

/// Validates an acam experiment's inputs.
fn check_acam(spec: &AcamSpec, stored: &[(u16, u16)], key: &[u16]) -> Result<()> {
    if spec.cols == 0 || !(2..=MAX_CIRCUIT_LEVELS).contains(&spec.levels) {
        return Err(SpiceError::InvalidCircuit(format!(
            "degenerate acam spec: {} cols x {} levels (circuit design resolves 2..={})",
            spec.cols, spec.levels, MAX_CIRCUIT_LEVELS
        )));
    }
    if !(spec.vdd.is_finite() && spec.vdd > 0.0) {
        return Err(SpiceError::InvalidCircuit(format!(
            "bad supply voltage {}",
            spec.vdd
        )));
    }
    if stored.len() != spec.cols || key.len() != spec.cols {
        return Err(SpiceError::InvalidCircuit(format!(
            "word width {} / key width {} != {} cols",
            stored.len(),
            key.len(),
            spec.cols
        )));
    }
    for &(lo, hi) in stored {
        if lo > hi || hi >= spec.levels {
            return Err(SpiceError::InvalidCircuit(format!(
                "bad interval [{lo}, {hi}] for {} levels",
                spec.levels
            )));
        }
    }
    if let Some(&k) = key.iter().find(|&&k| k >= spec.levels) {
        return Err(SpiceError::InvalidCircuit(format!(
            "key level {k} out of domain ({} levels)",
            spec.levels
        )));
    }
    Ok(())
}

/// Result of [`calibrate_distance`]: the measured discharge-vs-distance
/// curve and the sense threshold fitted to it.
#[derive(Debug, Clone)]
pub struct DistanceCalibration {
    /// `ml_at_sense[d]` — matchline voltage at the sense instant with
    /// exactly `d` out-of-range cells.
    pub ml_at_sense: Vec<f64>,
    /// Fitted sense threshold: midpoint of the match (`d = 0`) and
    /// single-violation (`d = 1`) levels.
    pub v_threshold: f64,
    /// Whether `ml_at_sense` decreases strictly with distance (each
    /// extra violation adds a parallel pull-down path).
    pub monotone: bool,
    /// Whether every circuit verdict (ML above/below the design's sense
    /// criteria) agreed with the behavioral model's `d == 0` verdict.
    pub verdicts_agree: bool,
}

impl DistanceCalibration {
    /// The verdict the calibrated threshold assigns to a measured sense
    /// voltage (`true` = match).
    #[must_use]
    pub fn verdict(&self, ml_at_sense: f64) -> bool {
        ml_at_sense >= self.v_threshold
    }
}

/// Measures the matchline level at the sense instant for interval
/// distances `0..=max_d` (one independent [`run_search`] per distance, on
/// the worker pool), checks the monotone distance→discharge ordering, and
/// fits the behavioral sense threshold. The stored word is a mid-window
/// exact interval per cell; distance `d` drives the first `d` data
/// lines above their window.
///
/// # Errors
///
/// Propagates build/simulation failures (the calibration runs on the
/// clean reference design, so a failing distance is a real defect) and
/// rejects `max_d > spec.cols`.
pub fn calibrate_distance(
    design: &AcamCellDesign,
    spec: &AcamSpec,
    max_d: usize,
) -> Result<DistanceCalibration> {
    if max_d > spec.cols {
        return Err(SpiceError::InvalidCircuit(format!(
            "max_d {max_d} exceeds {} cols",
            spec.cols
        )));
    }
    let mid = spec.levels / 2;
    let stored: Vec<(u16, u16)> = vec![(mid, mid); spec.cols];
    let runs = parallel_map((0..=max_d).collect(), |d| {
        let key: Vec<u16> = (0..spec.cols)
            .map(|j| if j < d { spec.levels - 2 } else { mid })
            .collect();
        run_search(design.build_search(spec, &stored, &key)?)
    });

    let mut ml_at_sense = Vec::with_capacity(max_d + 1);
    let mut verdicts_agree = true;
    for run in runs {
        let res = run?;
        ml_at_sense.push(res.ml_at_sense);
        // The circuit's own sense criteria (hold vs timely discharge)
        // must reproduce the behavioral d == 0 verdict; `expect_match`
        // was set behaviorally, so agreement == functional_ok.
        if !res.functional_ok {
            verdicts_agree = false;
        }
    }
    let monotone = ml_at_sense.windows(2).all(|w| w[1] < w[0]);
    let v_threshold = 0.5 * (ml_at_sense[0] + ml_at_sense.get(1).copied().unwrap_or(0.0));
    Ok(DistanceCalibration {
        ml_at_sense,
        v_threshold,
        monotone,
        verdicts_agree,
    })
}

/// Configuration of an acam conductance-variation study.
#[derive(Debug, Clone, Copy)]
pub struct AcamNoiseSpec {
    /// Relative 1-sigma of every bound memristor's resistance
    /// (lognormal, e.g. `0.1` = 10 %).
    pub sigma: f64,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fault injection: force every k-th trial's transients to be
    /// non-convergent (`0` disables); when non-zero every trial carries
    /// the chaos probe (inert unless hostile) so sabotaged and clean
    /// trials keep one circuit topology.
    pub sabotage_every: usize,
}

/// Outcome of [`acam_noise_study`].
#[derive(Debug, Clone)]
pub struct AcamNoiseStudy {
    /// Sense margin `ML_match − ML_mismatch` of every completed trial,
    /// volts.
    pub margins: Vec<f64>,
    /// Mean margin over completed trials.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Worst (smallest) margin observed.
    pub min: f64,
    /// Trials whose hit or miss verdict flipped under noise, plus
    /// simulation failures.
    pub failures: usize,
    /// Trials whose *simulation* errored (subset of [`Self::failures`]);
    /// excluded from the margins, never fatal to the study.
    pub sim_failures: usize,
    /// Retained cause of every simulation failure, as
    /// `(trial index, error description)`.
    pub failure_causes: Vec<(usize, String)>,
}

/// One trial: the perturbed filament states per cell, plus the hostile
/// flag.
type NoiseTrial = (Vec<(f64, f64)>, bool);

/// Runs the conductance-variation study on the acam cell: every trial
/// perturbs each bound memristor's resistance lognormally, then runs an
/// in-window search and a worst-case one-cell-violation search as two
/// independent scalar transients on the worker pool. Per-trial failures
/// of any kind are counted with simulation causes retained.
///
/// Sampling happens up front from the seeded generator and results are
/// collected in trial order, so the study is bit-identical to a serial
/// trial loop at any worker count.
///
/// # Errors
///
/// Returns an error only for invalid inputs (degenerate spec); every
/// per-trial failure is contained in the returned study.
pub fn acam_noise_study(
    design: &AcamCellDesign,
    spec: &AcamSpec,
    cfg: &AcamNoiseSpec,
) -> Result<AcamNoiseStudy> {
    let q = spec.levels / 4;
    // Stored word: the mid-half window per cell; hit key dead-center,
    // miss key one cell far above its upper bound (worst case: a single
    // pull-down path, the smallest discharge signal).
    let stored: Vec<(u16, u16)> = vec![(q, 3 * q - 1); spec.cols];
    let hit_key: Vec<u16> = vec![2 * q; spec.cols];
    let mut miss_key = hit_key.clone();
    miss_key[0] = spec.levels - 1;
    check_acam(spec, &stored, &miss_key)?;

    // Phase 1 (serial): sample every trial's perturbed states.
    let trials = sample_noise_trials(design, spec, cfg, &stored);

    // Phase 2 (parallel): independent trials, collected in trial order.
    let outcomes = parallel_map(trials, |trial| {
        run_noise_trial(design, spec, cfg, &trial, &hit_key, &miss_key).map_err(|e| e.to_string())
    });

    // Phase 3 (serial): the margin study's fold, with no infeasible
    // samples (every perturbed state is clamped into the device range).
    let study = assemble(0, outcomes);
    Ok(AcamNoiseStudy {
        margins: study.margins,
        mean: study.mean,
        std_dev: study.std_dev,
        min: study.min,
        failures: study.failures,
        sim_failures: study.sim_failures,
        failure_causes: study.failure_causes,
    })
}

/// Samples every trial's perturbed filament states serially from one
/// seeded generator, so the draws do not depend on how the trials are
/// later scheduled.
fn sample_noise_trials(
    design: &AcamCellDesign,
    spec: &AcamSpec,
    cfg: &AcamNoiseSpec,
    stored: &[(u16, u16)],
) -> Vec<NoiseTrial> {
    let mut rng = SplitMix64::new(cfg.seed);
    (0..cfg.trials)
        .map(|t| {
            let states = stored
                .iter()
                .map(|&(lo, hi)| {
                    let lo_lvl = design.perturbed_bound(
                        f64::from(lo) - 0.5,
                        cfg.sigma,
                        rng.normal(),
                        spec,
                    );
                    let hi_lvl = design.perturbed_bound(
                        f64::from(hi) + 0.5,
                        cfg.sigma,
                        rng.normal(),
                        spec,
                    );
                    let v_lo = design.level_voltage(lo_lvl, spec);
                    let v_hi = design.level_voltage(hi_lvl, spec);
                    (
                        design.resistance_state(design.bound_resistance(v_lo, spec)),
                        design.resistance_state(design.bound_resistance(v_hi, spec)),
                    )
                })
                .collect();
            let hostile = cfg.sabotage_every != 0 && (t + 1).is_multiple_of(cfg.sabotage_every);
            (states, hostile)
        })
        .collect()
}

/// One trial: the one-violation mismatch search and the in-window match
/// search on the trial's perturbed row, as margin and functional verdict.
/// With fault injection on, both circuits carry the chaos probe (inert
/// unless the trial is hostile).
fn run_noise_trial(
    design: &AcamCellDesign,
    spec: &AcamSpec,
    cfg: &AcamNoiseSpec,
    (states, hostile): &NoiseTrial,
    hit_key: &[u16],
    miss_key: &[u16],
) -> Result<(f64, bool)> {
    let search = |key: &[u16], expect_match: bool| {
        let mut exp = design.build_row(spec, states, key, expect_match)?;
        if cfg.sabotage_every != 0 {
            ChaosProbe::plant(&mut exp.circuit, "chaos", *hostile)?;
        }
        run_search(exp)
    };
    let miss = search(miss_key, false)?;
    let hit = search(hit_key, true)?;
    Ok((
        hit.ml_at_sense - miss.ml_at_sense,
        miss.functional_ok && hit.functional_ok,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_validation() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::small();
        let ok_word = vec![(2u16, 9u16); spec.cols];
        let ok_key = vec![5u16; spec.cols];
        assert!(d.build_search(&spec, &ok_word, &ok_key).is_ok());
        // Inverted interval, out-of-domain bound and key, bad widths.
        let mut bad = ok_word.clone();
        bad[1] = (9, 2);
        assert!(d.build_search(&spec, &bad, &ok_key).is_err());
        bad[1] = (2, 16);
        assert!(d.build_search(&spec, &bad, &ok_key).is_err());
        let mut bad_key = ok_key.clone();
        bad_key[0] = 16;
        assert!(d.build_search(&spec, &ok_word, &bad_key).is_err());
        assert!(d.build_search(&spec, &ok_word[..3], &ok_key).is_err());
        let deep = AcamSpec {
            levels: 64,
            ..spec
        };
        assert!(
            d.build_search(&deep, &ok_word, &ok_key).is_err(),
            "circuit design must reject levels beyond its comparator margin"
        );
    }

    #[test]
    fn level_maps_round_trip_and_programmed_resistance_in_range() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::reference();
        for lvl in [0u16, 7, 15] {
            let v = d.level_voltage(f64::from(lvl), &spec);
            assert!((d.voltage_level(v, &spec) - f64::from(lvl)).abs() < 1e-9);
        }
        // Half-step overshoot beyond both window edges stays programmable.
        let half = 0.5 * d.level_step(&spec);
        for v in [
            d.level_voltage(0.0, &spec) - half,
            d.level_voltage(15.0, &spec) + half,
        ] {
            let r = d.bound_resistance(v, &spec);
            assert!(r > d.rram.r_on && r < d.rram.r_off, "R = {r:.3e}");
            let s = d.resistance_state(r);
            assert!((0.0..=1.0).contains(&s));
        }
        // Exact-bound margin: the half step clears the comparator window.
        assert!(half > d.v_comp_on, "half-step {half} vs v_on {}", d.v_comp_on);
    }

    #[test]
    fn perturbed_bound_is_identity_at_zero_noise_and_monotone() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::reference();
        let lvl = 7.5;
        assert!((d.perturbed_bound(lvl, 0.0, 1.7, &spec) - lvl).abs() < 1e-9);
        assert!((d.perturbed_bound(lvl, 0.3, 0.0, &spec) - lvl).abs() < 1e-9);
        // More resistance → lower divider tap → lower effective level.
        let up = d.perturbed_bound(lvl, 0.2, 1.0, &spec);
        let down = d.perturbed_bound(lvl, 0.2, -1.0, &spec);
        assert!(up < lvl && lvl < down, "{up} < {lvl} < {down}");
    }

    #[test]
    fn in_window_key_holds_ml_and_violation_discharges() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::small();
        let stored = vec![(4u16, 11u16); spec.cols];
        let hit = run_search(d.build_search(&spec, &stored, &[8, 4, 11, 6]).unwrap()).unwrap();
        assert!(hit.functional_ok, "ml at sense = {}", hit.ml_at_sense);
        assert!(hit.latency.is_none());

        let miss_exp = d.build_search(&spec, &stored, &[14, 4, 11, 6]).unwrap();
        assert!(!miss_exp.expect_match);
        let miss = run_search(miss_exp).unwrap();
        assert!(miss.functional_ok, "ml at sense = {}", miss.ml_at_sense);
        let lat = miss.latency.expect("violation must discharge");
        assert!(lat > 0.0 && lat < SENSE_WINDOW, "latency {lat:.3e}");

        // Below-window violation fires the other comparator branch.
        let low = run_search(d.build_search(&spec, &stored, &[8, 1, 11, 6]).unwrap()).unwrap();
        assert!(low.functional_ok && low.latency.is_some());
    }

    #[test]
    fn full_window_cell_is_analog_dont_care() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::small();
        let mut stored = vec![(4u16, 11u16); spec.cols];
        stored[0] = (0, spec.levels - 1);
        for k in [0u16, 15] {
            let exp = d.build_search(&spec, &stored, &[k, 8, 8, 8]).unwrap();
            assert!(exp.expect_match);
            let res = run_search(exp).unwrap();
            assert!(res.functional_ok, "key {k}: ml = {}", res.ml_at_sense);
        }
    }

    #[test]
    fn calibration_is_monotone_and_verdicts_agree() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::small();
        let cal = calibrate_distance(&d, &spec, 3).unwrap();
        assert_eq!(cal.ml_at_sense.len(), 4);
        assert!(cal.monotone, "ml curve {:?}", cal.ml_at_sense);
        assert!(cal.verdicts_agree);
        assert!(cal.verdict(cal.ml_at_sense[0]));
        for &ml in &cal.ml_at_sense[1..] {
            assert!(!cal.verdict(ml), "threshold {} vs {ml}", cal.v_threshold);
        }
        assert!(calibrate_distance(&d, &spec, spec.cols + 1).is_err());

        // The curve is exactly what per-distance scalar searches measure.
        let mid = spec.levels / 2;
        let stored = vec![(mid, mid); spec.cols];
        for (dist, &ml) in cal.ml_at_sense.iter().enumerate() {
            let mut key = vec![mid; spec.cols];
            key[..dist].fill(spec.levels - 2);
            let solo = run_search(d.build_search(&spec, &stored, &key).unwrap()).unwrap();
            assert_eq!(ml, solo.ml_at_sense, "distance {dist}");
        }
    }

    #[test]
    fn noise_study_is_deterministic_and_clean_at_low_sigma() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::small();
        let cfg = AcamNoiseSpec {
            sigma: 0.05,
            trials: 4,
            seed: 9,
            sabotage_every: 0,
        };
        let a = acam_noise_study(&d, &spec, &cfg).unwrap();
        let b = acam_noise_study(&d, &spec, &cfg).unwrap();
        assert_eq!(a.margins, b.margins);
        // ...and equal to a plain serial loop over the trials.
        let q = spec.levels / 4;
        let stored = vec![(q, 3 * q - 1); spec.cols];
        let hit_key = vec![2 * q; spec.cols];
        let mut miss_key = hit_key.clone();
        miss_key[0] = spec.levels - 1;
        let mut serial = Vec::new();
        for trial in sample_noise_trials(&d, &spec, &cfg, &stored) {
            let (margin, _) = run_noise_trial(&d, &spec, &cfg, &trial, &hit_key, &miss_key).unwrap();
            serial.push(margin);
        }
        assert_eq!(a.margins, serial);
        assert_eq!(a.failures, 0, "5% conductance spread must not flip verdicts");
        assert_eq!(a.margins.len(), 4);
        assert!(a.min > 0.4, "worst margin {:.3}", a.min);

        // The same draws scaled up only ever flip more verdicts: circuit
        // reliability is non-increasing in σ, and σ = 0.8 does bite.
        let flipped: Vec<usize> = [0.3, 0.8]
            .iter()
            .map(|&sigma| {
                let study = acam_noise_study(&d, &spec, &AcamNoiseSpec { sigma, ..cfg }).unwrap();
                assert_eq!(study.sim_failures, 0);
                study.failures
            })
            .collect();
        assert!(
            flipped[0] <= flipped[1] && flipped[1] > 0,
            "verdict flips at σ = 0.05/0.3/0.8: 0/{}/{}",
            flipped[0],
            flipped[1]
        );
    }

    #[test]
    fn sabotaged_noise_trial_is_counted_not_fatal() {
        let d = AcamCellDesign::default();
        let spec = AcamSpec::small();
        let study = acam_noise_study(
            &d,
            &spec,
            &AcamNoiseSpec {
                sigma: 0.02,
                trials: 3,
                seed: 5,
                sabotage_every: 2,
            },
        )
        .unwrap();
        assert_eq!(study.sim_failures, 1, "exactly trial #2 dies");
        assert_eq!(study.failures, 1);
        assert_eq!(study.margins.len(), 2, "survivors keep margins");
        let (trial, cause) = &study.failure_causes[0];
        assert_eq!(*trial, 1);
        assert!(!cause.is_empty());
    }
}
