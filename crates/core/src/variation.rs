//! Monte-Carlo device-variation study of the search sensing margin.
//!
//! The paper's Fig. 7c discussion ends with the key caveat: the RRAM TCAM's
//! EDP is quoted "at the assumption of no device variations", and with
//! variations "the settling of the matchline … will be more difficult to
//! identify". This module makes that quantitative: it samples device
//! parameters, runs the match and worst-case-mismatch searches, and reports
//! the distribution of the **sensing margin**
//! `ML_match(t_sense) − ML_mismatch(t_sense)` — the voltage a sense
//! amplifier actually has to work with.
//!
//! Variations are applied as correlated (per-trial) parameter shifts, which
//! is the pessimistic corner for threshold-type devices and a good proxy
//! for the dominant D2D component without per-cell netlist rebuild.
//!
//! Every feasible trial is an independent pair of scalar transients
//! ([`run_search`] on the mismatch and the match circuit), fanned out over
//! the scoped worker pool and collected in trial order, so a study is
//! bit-identical to a serial loop over its trials for any worker count.
//!
//! The study **contains per-trial failures**: a trial whose simulation
//! errors (non-convergence, timestep underflow — including deliberately
//! sabotaged trials, see [`crate::fault`]) is recorded as a counted
//! failure with its cause retained, excluded from the margin statistics,
//! and never aborts the rest of the study.

use std::result::Result as StdResult;

use crate::bit::TernaryBit;
use crate::designs::{ArraySpec, Nem3t2n, Rram2t2r, TcamDesign};
use crate::experiments::{mismatch_key, pattern_word};
use crate::fault::SabotagedDesign;
use crate::ops::run_search;
use tcam_numeric::parallel::parallel_map;
use tcam_numeric::rng::SplitMix64;
use tcam_numeric::stats::Running;
use tcam_spice::error::Result;

/// Which design a variation trial perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariedDesign {
    /// 3T2N with V_PI/V_PO/R_on spreads.
    Nem3t2n,
    /// 2T2R with lognormal R_on/R_off spreads.
    Rram2t2r,
}

/// Configuration of a variation study.
#[derive(Debug, Clone, Copy)]
pub struct VariationSpec {
    /// Design under test.
    pub design: VariedDesign,
    /// Relative 1-sigma of the varied parameters (e.g. 0.1 = 10 %).
    pub sigma: f64,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fault injection: force every k-th *feasible* trial's transient to be
    /// non-convergent (see [`crate::fault`]); `0` disables. When non-zero,
    /// every feasible trial carries the (inert) chaos probe so sabotaged
    /// and clean trials keep one shared circuit topology.
    pub sabotage_every: usize,
}

/// Outcome of a variation study.
#[derive(Debug, Clone)]
pub struct MarginStudy {
    /// Sense margin of every *completed* trial, volts.
    pub margins: Vec<f64>,
    /// Mean margin (over completed trials).
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Worst (smallest) margin observed.
    pub min: f64,
    /// Total failed trials: infeasible samples (yield loss), functional
    /// failures (missed mismatch or corrupted match), and simulation
    /// failures.
    pub failures: usize,
    /// Trials whose *simulation* errored (a subset of [`Self::failures`]):
    /// these are excluded from `margins` and the statistics, but never
    /// abort the study.
    pub sim_failures: usize,
    /// Retained cause of every simulation failure, as
    /// `(feasible-trial index, error description)`.
    pub failure_causes: Vec<(usize, String)>,
}

/// Samples all trial designs serially from one seeded generator.
///
/// Pulling the sampling out of the simulation loop keeps the draw order —
/// and therefore every sampled parameter set — identical regardless of how
/// many worker threads later run the trials. Infeasible
/// samples come back as `None` (yield loss). With
/// [`VariationSpec::sabotage_every`] non-zero, every feasible design is
/// wrapped in a [`SabotagedDesign`] — hostile on every k-th feasible draw,
/// inert ballast otherwise.
#[must_use]
pub fn sample_varied_designs(cfg: &VariationSpec) -> Vec<Option<Box<dyn TcamDesign>>> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut feasible_seen = 0_usize;
    (0..cfg.trials)
        .map(|_| -> Option<Box<dyn TcamDesign>> {
            let sampled: Option<Box<dyn TcamDesign>> = match cfg.design {
                VariedDesign::Nem3t2n => {
                    let mut d = Nem3t2n::default();
                    d.relay.v_pi *= 1.0 + cfg.sigma * rng.normal();
                    d.relay.v_po *= 1.0 + cfg.sigma * rng.normal();
                    d.relay.r_on *= (cfg.sigma * rng.normal()).exp();
                    if d.relay.v_po >= d.relay.v_pi * 0.9 || d.relay.v_po <= 0.0 {
                        None // infeasible sample = yield loss
                    } else {
                        Some(Box::new(d))
                    }
                }
                VariedDesign::Rram2t2r => {
                    let mut d = Rram2t2r::default();
                    d.rram.r_on *= (cfg.sigma * rng.normal()).exp();
                    d.rram.r_off *= (cfg.sigma * rng.normal()).exp();
                    Some(Box::new(d))
                }
            };
            sampled.map(|d| -> Box<dyn TcamDesign> {
                if cfg.sabotage_every == 0 {
                    return d;
                }
                feasible_seen += 1;
                let hostile = feasible_seen.is_multiple_of(cfg.sabotage_every);
                Box::new(SabotagedDesign::new(d, hostile))
            })
        })
        .collect()
}

/// One trial of the study: worst-case mismatch and match searches, margin
/// and functional verdict.
fn one_trial(
    design: &dyn TcamDesign,
    spec: &ArraySpec,
    stored: &[TernaryBit],
    key_miss: &[TernaryBit],
) -> Result<(f64, bool)> {
    let miss = run_search(design.build_search(spec, stored, key_miss)?)?;
    let hit = run_search(design.build_search(spec, stored, stored)?)?;
    let margin = hit.ml_at_sense - miss.ml_at_sense;
    Ok((margin, miss.functional_ok && hit.functional_ok))
}

/// Folds per-trial outcomes (in feasible-trial order) into the study
/// summary. `infeasible` seeds the failure count.
fn assemble(infeasible: usize, outcomes: Vec<StdResult<(f64, bool), String>>) -> MarginStudy {
    let mut failures = infeasible;
    let mut sim_failures = 0;
    let mut failure_causes = Vec::new();
    let mut margins = Vec::with_capacity(outcomes.len());
    let mut stats = Running::new();
    for (trial, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((margin, ok)) => {
                if !ok {
                    failures += 1;
                }
                margins.push(margin);
                stats.push(margin);
            }
            Err(cause) => {
                failures += 1;
                sim_failures += 1;
                failure_causes.push((trial, cause));
            }
        }
    }
    MarginStudy {
        mean: stats.mean(),
        std_dev: stats.sample_std_dev(),
        min: if margins.is_empty() { 0.0 } else { stats.min() },
        failures,
        sim_failures,
        failure_causes,
        margins,
    }
}

/// Runs the study on a reduced array (variation trials are full transient
/// simulations; keep `spec` modest). Parameter sets are sampled up front
/// from the seeded generator; every feasible trial then runs as an
/// independent share-nothing pair of scalar transient searches on the
/// worker pool, with results collected in trial order — bit-identical to
/// a serial run for any worker count.
///
/// Per-trial failures of any kind — infeasible samples, functional
/// failures, simulation errors — are counted, with simulation causes
/// retained in [`MarginStudy::failure_causes`]; no single trial can abort
/// the study.
///
/// # Errors
///
/// None today: every per-trial error is counted in the returned study.
pub fn search_margin_study(spec: &ArraySpec, cfg: &VariationSpec) -> Result<MarginStudy> {
    let stored = pattern_word(spec.cols);
    let key_miss = mismatch_key(spec.cols);

    let sampled = sample_varied_designs(cfg);
    let infeasible = sampled.iter().filter(|d| d.is_none()).count();
    let feasible: Vec<Box<dyn TcamDesign>> = sampled.into_iter().flatten().collect();

    let outcomes = parallel_map(feasible, |design| {
        one_trial(design.as_ref(), spec, &stored, &key_miss).map_err(|e| e.to_string())
    });

    Ok(assemble(infeasible, outcomes))
}

/// Forwards to [`search_margin_study`]. `stack_bench` (off-limits to the
/// PR that removed the batched engine) is the sole caller; the benchmark
/// PR that drops its `spice_batched_ms_per_trial` /
/// `spice_per_trial_ms_per_trial` pair deletes this with them.
#[doc(hidden)]
pub fn search_margin_study_per_trial(spec: &ArraySpec, cfg: &VariationSpec) -> Result<MarginStudy> {
    search_margin_study(spec, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArraySpec {
        ArraySpec {
            rows: 8,
            cols: 4,
            vdd: 1.0,
        }
    }

    #[test]
    fn nem_margin_robust_under_variation() {
        let study = search_margin_study(
            &spec(),
            &VariationSpec {
                design: VariedDesign::Nem3t2n,
                sigma: 0.05,
                trials: 5,
                seed: 7,
                sabotage_every: 0,
            },
        )
        .unwrap();
        assert_eq!(study.failures, 0, "5% spread must not break 3T2N sensing");
        assert_eq!(study.sim_failures, 0);
        assert!(study.min > 0.7, "worst margin {:.3}", study.min);
    }

    #[test]
    fn rram_margin_degrades_faster() {
        let nem = search_margin_study(
            &spec(),
            &VariationSpec {
                design: VariedDesign::Nem3t2n,
                sigma: 0.15,
                trials: 5,
                seed: 11,
                sabotage_every: 0,
            },
        )
        .unwrap();
        let rram = search_margin_study(
            &spec(),
            &VariationSpec {
                design: VariedDesign::Rram2t2r,
                sigma: 0.15,
                trials: 5,
                seed: 11,
                sabotage_every: 0,
            },
        )
        .unwrap();
        // The paper's caveat: RRAM's margin is both smaller and softer.
        assert!(
            rram.min < nem.min,
            "RRAM worst margin {:.3} vs NEM {:.3}",
            rram.min,
            nem.min
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = VariationSpec {
            design: VariedDesign::Rram2t2r,
            sigma: 0.1,
            trials: 3,
            seed: 3,
            sabotage_every: 0,
        };
        let a = search_margin_study(&spec(), &cfg).unwrap();
        let b = search_margin_study(&spec(), &cfg).unwrap();
        assert_eq!(a.margins, b.margins);
    }

    #[test]
    fn study_is_bit_identical_to_serial_trial_loop() {
        let spec = spec();
        let stored = pattern_word(spec.cols);
        let key_miss = mismatch_key(spec.cols);
        for design in [VariedDesign::Nem3t2n, VariedDesign::Rram2t2r] {
            let cfg = VariationSpec {
                design,
                sigma: 0.08,
                trials: 6,
                seed: 21,
                sabotage_every: 0,
            };
            let study = search_margin_study(&spec, &cfg).unwrap();
            let mut serial = Vec::new();
            for d in sample_varied_designs(&cfg).into_iter().flatten() {
                let miss = run_search(d.build_search(&spec, &stored, &key_miss).unwrap()).unwrap();
                let hit = run_search(d.build_search(&spec, &stored, &stored).unwrap()).unwrap();
                serial.push(hit.ml_at_sense - miss.ml_at_sense);
            }
            assert_eq!(study.margins, serial, "{design:?}");
            assert_eq!(study.sim_failures, 0, "{design:?}");
        }
    }

    #[test]
    fn injected_nonconvergent_trial_is_counted_not_fatal() {
        // Every 2nd feasible trial is forced non-convergent; the study must
        // still complete, with the sabotaged trials counted (cause kept)
        // and the clean trials' margins intact.
        let cfg = VariationSpec {
            design: VariedDesign::Nem3t2n,
            sigma: 0.02,
            trials: 3,
            seed: 5,
            sabotage_every: 2,
        };
        let study = search_margin_study(&spec(), &cfg).unwrap();
        assert_eq!(study.sim_failures, 1, "exactly trial #2 dies");
        assert_eq!(study.failures, 1);
        assert_eq!(study.margins.len(), 2, "survivors keep margins");
        assert_eq!(study.failure_causes.len(), 1);
        let (trial, cause) = &study.failure_causes[0];
        assert_eq!(*trial, 1, "0-based feasible index of trial #2");
        assert!(!cause.is_empty(), "cause retained");
        assert!(study.min > 0.7, "clean margins intact");

        // At scale: every 7th feasible trial of 42 at a 10 % spread.
        // Each failure is contained at its own index, and the failure
        // arithmetic adds up around the clean trials' margins.
        let cfg = VariationSpec {
            sigma: 0.10,
            trials: 42,
            seed: 42,
            sabotage_every: 7,
            ..cfg
        };
        let study = search_margin_study(&spec(), &cfg).unwrap();
        let feasible = study.margins.len() + study.sim_failures;
        assert!(study.sim_failures > 0);
        assert_eq!(study.sim_failures, feasible / 7);
        let hostile: Vec<usize> = (1..=study.sim_failures).map(|k| 7 * k - 1).collect();
        let contained: Vec<usize> = study.failure_causes.iter().map(|(t, _)| *t).collect();
        assert_eq!(contained, hostile);
        assert!(study
            .failure_causes
            .iter()
            .all(|(_, cause)| !cause.is_empty()));
        assert_eq!(study.failures, (cfg.trials - feasible) + study.sim_failures);
        assert!(
            study.min > 0.5,
            "clean margins degraded: min {:.3} V",
            study.min
        );
    }
}
