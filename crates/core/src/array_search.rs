//! Full-array parallel search at circuit level (paper Fig. 1b).
//!
//! Where [`crate::ops::run_search`] times a single matchline, this module
//! builds several complete words sharing the same search lines — the real
//! array operation — and decodes *all* matchlines at the sense instant.
//! It demonstrates what the single-ML experiments assume: the searched key
//! settles every ML independently and in parallel, and the priority
//! encoder can pick the first high ML.

use crate::bit::{word_matches, TernaryBit};
use crate::designs::{build_search_rows, ArraySpec, RowNaming, TcamDesign};
use tcam_spice::analysis::{transient, TransientSpec};
use tcam_spice::error::Result;
use tcam_spice::options::SimOptions;
use tcam_spice::waveform::Waveform;

/// Outcome of a parallel array search.
#[derive(Debug)]
pub struct ArraySearchResult {
    /// Per-word matchline state at the sense instant (`true` = ML high =
    /// match).
    pub match_flags: Vec<bool>,
    /// Matchline voltages at the sense instant.
    pub ml_at_sense: Vec<f64>,
    /// Index of the first matching word (the priority encoder output).
    pub first_match: Option<usize>,
    /// Whether every ML agrees with the ternary match semantics.
    pub functional_ok: bool,
    /// Total search energy for the whole array operation, joules.
    pub energy: f64,
    /// The simulation record (`v(ml0)`, `v(ml1)`, ... traces).
    pub waveform: Waveform,
}

/// Builds and runs a parallel search of `key` against `words` on `design`:
/// all words share the search lines; each word has its own matchline
/// (`v(ml{r})`, cells `r{r}c{j}`) and precharge network — the row scaffold
/// of [`TcamDesign::build_search`] with several words. Every matchline is
/// sensed at the design's own window and decoded against its own
/// match-retention level (a matching 2T2R row droops below V_DD/2).
///
/// # Errors
///
/// Propagates netlist and simulation failures; word widths must equal
/// `spec.cols` and `words.len()` must be between 1 and `spec.rows`.
pub fn run_array_search(
    design: &dyn TcamDesign,
    spec: &ArraySpec,
    words: &[Vec<TernaryBit>],
    key: &[TernaryBit],
) -> Result<ArraySearchResult> {
    let word_refs: Vec<&[TernaryBit]> = words.iter().map(Vec::as_slice).collect();
    let exp = build_search_rows(design, spec, &word_refs, key, RowNaming::Indexed)?;
    let mut ckt = exp.circuit;
    let wave = transient(
        &mut ckt,
        TransientSpec::to(exp.t_stop),
        &SimOptions::default(),
    )?;

    let mut match_flags = Vec::with_capacity(words.len());
    let mut ml_at_sense = Vec::with_capacity(words.len());
    let mut functional_ok = true;
    for (r, word) in words.iter().enumerate() {
        let v = wave.sample(&RowNaming::Indexed.ml_signal(r), exp.t_sense)?;
        let matched = v >= exp.v_match_min;
        let expected = word_matches(word, key);
        if matched != expected {
            functional_ok = false;
        }
        match_flags.push(matched);
        ml_at_sense.push(v);
    }
    let first_match = match_flags.iter().position(|&m| m);
    let energy = ckt.total_sourced_energy();

    Ok(ArraySearchResult {
        match_flags,
        ml_at_sense,
        first_match,
        functional_ok,
        energy,
        waveform: wave,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::parse_ternary;
    use crate::designs::Nem3t2n;
    use crate::experiments::all_designs;

    /// Every design, not only the 3T2N cell whose matchline a V_DD/2
    /// decode happens to suit: the all-X 2T2R row holds ≈ 0.495 V at its
    /// sense instant and is a match.
    #[test]
    fn parallel_search_decodes_every_matchline_of_every_design() {
        let words = vec![
            parse_ternary("1010").unwrap(),
            parse_ternary("1X10").unwrap(),
            parse_ternary("0101").unwrap(),
            parse_ternary("XXXX").unwrap(),
        ];
        let key = parse_ternary("1110").unwrap();
        for d in all_designs() {
            let res = run_array_search(d.as_ref(), &ArraySpec::small(), &words, &key).unwrap();
            assert!(res.functional_ok, "{}: {:?}", d.name(), res.ml_at_sense);
            assert_eq!(
                res.match_flags,
                vec![false, true, false, true],
                "{}",
                d.name()
            );
            assert_eq!(res.first_match, Some(1), "{}", d.name());
            assert!(res.energy > 0.0);
            assert!(res.waveform.trace("v(ml3)").is_ok());
        }
    }

    #[test]
    fn no_match_reports_none() {
        let d = Nem3t2n::default();
        let words = vec![
            parse_ternary("1111").unwrap(),
            parse_ternary("0000").unwrap(),
        ];
        let key = parse_ternary("1001").unwrap();
        let res = run_array_search(&d, &ArraySpec::small(), &words, &key).unwrap();
        assert!(res.functional_ok);
        assert_eq!(res.first_match, None);
    }

    #[test]
    fn too_many_words_rejected() {
        let d = Nem3t2n::default();
        let small = ArraySpec {
            rows: 1,
            cols: 2,
            vdd: 1.0,
        };
        let words = vec![parse_ternary("10").unwrap(), parse_ternary("01").unwrap()];
        let key = parse_ternary("10").unwrap();
        assert!(run_array_search(&d, &small, &words, &key).is_err());
    }
}
