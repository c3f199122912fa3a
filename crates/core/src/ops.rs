//! Running write/search experiments and extracting the paper's metrics.

use crate::designs::{SearchExperiment, WriteExperiment};
use tcam_spice::analysis::{transient, TransientSpec};
use tcam_spice::error::{Result, SpiceError};
use tcam_spice::measure::{cross_time, Edge};
use tcam_spice::options::SimOptions;
use tcam_spice::waveform::Waveform;

/// Outcome of a write-row experiment.
#[derive(Debug)]
pub struct WriteResult {
    /// Worst-case (slowest cell) write latency from the drive edge, seconds.
    pub latency: f64,
    /// Total energy drawn from all drivers for the operation, joules.
    pub energy: f64,
    /// Whether every cell ended in its target state.
    pub all_valid: bool,
    /// The full simulation record (for plotting/debugging).
    pub waveform: Waveform,
}

/// Runs a write experiment to completion.
///
/// Latency is the latest state-validity crossing among cells whose state
/// had to change, measured from [`WriteExperiment::t_drive`]. Energy is the
/// total delivered by every source over the full operation (data setup,
/// wordline pulse, line restore).
///
/// # Errors
///
/// Propagates simulation failures; returns
/// [`SpiceError::NotFound`] if a probe signal was never recorded.
pub fn run_write(exp: WriteExperiment) -> Result<WriteResult> {
    let mut circuit = exp.circuit;
    let wave = transient(
        &mut circuit,
        TransientSpec::to(exp.t_stop),
        &SimOptions::default(),
    )?;

    let mut latency: f64 = 0.0;
    let mut all_valid = true;
    for probe in &exp.probes {
        let trace = wave.trace(&probe.signal)?;
        let first = *trace.first().expect("non-empty transient record");
        let last = *trace.last().expect("non-empty transient record");
        let ends_high = last > probe.threshold;
        if ends_high != probe.expect_high {
            all_valid = false;
            continue;
        }
        let starts_high = first > probe.threshold;
        if starts_high == probe.expect_high {
            continue; // state already valid; no transition to time
        }
        let edge = if probe.expect_high {
            Edge::Rising
        } else {
            Edge::Falling
        };
        let t = cross_time(&wave, &probe.signal, probe.threshold, edge, exp.t_drive)?;
        latency = latency.max(t - exp.t_drive);
    }

    let energy = circuit.total_sourced_energy();
    Ok(WriteResult {
        latency,
        energy,
        all_valid,
        waveform: wave,
    })
}

/// Outcome of a search experiment.
#[derive(Debug)]
pub struct SearchResult {
    /// Time for the matchline to fall to V_DD/2 after the search edge
    /// (`None` for a matching search, which must not discharge).
    pub latency: Option<f64>,
    /// Total energy drawn from all drivers for one search cycle, joules.
    pub energy: f64,
    /// Matchline voltage at the sense instant.
    pub ml_at_sense: f64,
    /// Whether the outcome agrees with the expected match/mismatch.
    pub functional_ok: bool,
    /// The full simulation record.
    pub waveform: Waveform,
}

impl SearchResult {
    /// Energy–delay product (only defined for a mismatch, which has a
    /// latency).
    #[must_use]
    pub fn edp(&self) -> Option<f64> {
        self.latency.map(|t| t * self.energy)
    }
}

/// Runs a search experiment.
///
/// For an expected mismatch, latency is the ML half-V_DD crossing after
/// [`SearchExperiment::t_search`] and the functional check requires the
/// crossing to land before the sense instant. For an expected match the ML
/// must still exceed [`SearchExperiment::v_match_min`] at the sense
/// instant.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_search(exp: SearchExperiment) -> Result<SearchResult> {
    let mut circuit = exp.circuit;
    let wave = transient(
        &mut circuit,
        TransientSpec::to(exp.t_stop),
        &SimOptions::default(),
    )?;
    let ml_at_sense = wave.sample(&exp.ml_signal, exp.t_sense)?;
    let energy = circuit.total_sourced_energy();

    let (latency, functional_ok) = if exp.expect_match {
        (None, ml_at_sense >= exp.v_match_min)
    } else {
        match cross_time(
            &wave,
            &exp.ml_signal,
            exp.vdd / 2.0,
            Edge::Falling,
            exp.t_search,
        ) {
            Ok(t) => {
                let lat = t - exp.t_search;
                (Some(lat), t <= exp.t_sense)
            }
            Err(SpiceError::NotFound(_)) => (None, false),
            Err(e) => return Err(e),
        }
    };

    Ok(SearchResult {
        latency,
        energy,
        ml_at_sense,
        functional_ok,
        waveform: wave,
    })
}

#[cfg(test)]
mod tests {
    use crate::bit::TernaryBit::{One, Zero, X};
    use crate::designs::{ArraySpec, Nem3t2n, TcamDesign};

    use super::*;

    fn spec() -> ArraySpec {
        ArraySpec {
            rows: 8,
            cols: 4,
            vdd: 1.0,
        }
    }

    #[test]
    fn nem_write_completes_and_validates() {
        let d = Nem3t2n::default();
        let data = vec![One, Zero, X, One];
        let exp = d.build_write(&spec(), &data).unwrap();
        let res = run_write(exp).unwrap();
        assert!(res.all_valid, "all cells must hold their target state");
        // Write latency is dominated by τ_mech = 2 ns.
        assert!(
            res.latency > 1.0e-9 && res.latency < 4.0e-9,
            "latency = {:.3e}",
            res.latency
        );
        assert!(res.energy > 0.0);
    }

    #[test]
    fn nem_search_mismatch_discharges() {
        let d = Nem3t2n::default();
        let stored = vec![One, Zero, X, One];
        let mut key = stored.clone();
        key[1] = One; // single-bit mismatch (worst case)
        let exp = d.build_search(&spec(), &stored, &key).unwrap();
        let res = run_search(exp).unwrap();
        assert!(res.functional_ok, "ml at sense = {}", res.ml_at_sense);
        let lat = res.latency.expect("mismatch must have a latency");
        assert!(lat > 0.0 && lat < 0.4e-9, "latency = {lat:.3e}");
        assert!(res.edp().is_some());
    }

    #[test]
    fn nem_search_match_holds() {
        let d = Nem3t2n::default();
        let stored = vec![One, Zero, X, One];
        let key = vec![One, Zero, Zero, One]; // X matches the 0
        let exp = d.build_search(&spec(), &stored, &key).unwrap();
        assert!(exp.expect_match);
        let res = run_search(exp).unwrap();
        assert!(res.functional_ok, "ml at sense = {}", res.ml_at_sense);
        assert!(res.latency.is_none());
    }

    #[test]
    fn nem_search_all_x_key_matches_everything() {
        let d = Nem3t2n::default();
        let stored = vec![One, Zero, One, Zero];
        let key = vec![X, X, X, X];
        let exp = d.build_search(&spec(), &stored, &key).unwrap();
        assert!(exp.expect_match);
        let res = run_search(exp).unwrap();
        assert!(res.functional_ok);
    }

    /// The reference 16×16 single-bit-mismatch search converges plainly:
    /// a recovery-ladder rung firing here is a solver regression even if
    /// the run still succeeds. Its phase self-times cover the wall clock.
    #[test]
    fn reference_search_needs_no_recovery_rung() {
        use crate::experiments::{mismatch_key, pattern_word};
        let spec = ArraySpec {
            rows: 16,
            cols: 16,
            vdd: 1.0,
        };
        let exp = Nem3t2n::default()
            .build_search(&spec, &pattern_word(16), &mismatch_key(16))
            .unwrap();
        let t0 = std::time::Instant::now();
        let res = run_search(exp).unwrap();
        let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
        assert!(res.functional_ok, "ml at sense = {}", res.ml_at_sense);
        let trace = res
            .waveform
            .solver_trace()
            .expect("transient records a trace");
        assert!(trace.stats.steps_accepted > 0);
        assert!(trace.stats.nr_iterations >= trace.stats.steps_accepted);
        assert!(
            0.0 < trace.min_dt_used && trace.min_dt_used <= trace.max_dt_used,
            "dt extrema: min={:e}, max={:e}",
            trace.min_dt_used,
            trace.max_dt_used
        );
        assert_eq!(
            (
                trace.gmin_events,
                trace.source_step_events,
                trace.integrator_fallbacks
            ),
            (0, 0, 0),
            "a recovery-ladder rung fired on the reference array"
        );
        // The waveform's own phase breakdown accounts for the run: a hot
        // region that lost its span shows up as unattributed wall time.
        let phase_ns: f64 = trace
            .phases()
            .iter()
            .filter(|(key, _)| key.ends_with("_ns"))
            .map(|(_, ns)| ns)
            .sum();
        assert!(
            phase_ns >= 0.90 * wall_ns,
            "phases attribute {phase_ns:.0} of {wall_ns:.0} ns: {:?}",
            trace.phases()
        );
        assert!(trace.counter("phase_device_eval_count") > Some(0.0));
    }
}
