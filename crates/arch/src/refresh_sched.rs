//! Event-driven simulation of refresh interference with search traffic —
//! the paper's motivating architectural argument (§I, §III-D).
//!
//! A conventional dynamic TCAM refreshes **row by row**: every retention
//! interval, `N` read–write operations must be interleaved with normal
//! traffic, and each one stalls concurrent searches. One-shot refresh
//! replaces them with a **single** short operation per interval.
//!
//! The simulator models one TCAM bank as a non-preemptive server: refresh
//! operations are released on their schedule with priority (data integrity
//! cannot wait), searches arrive as a Poisson process and queue FIFO. It
//! reports search waiting-time statistics, the searches refresh delayed,
//! and refresh energy for each policy. The policy is a
//! [`BankRefresh`], the type the serving pool's refresh clock sizes,
//! times and meters its events by, priced from the design's
//! [`OperationCosts`].

use crate::bank::BankRefresh;
use crate::energy_model::OperationCosts;
use tcam_numeric::rng::SplitMix64;
use tcam_numeric::stats::{percentile, Running};

/// The bank and traffic under test; the refresh policy is the second
/// argument of [`simulate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshSimConfig {
    /// Number of rows in the bank (sizes a row-by-row interval).
    pub rows: usize,
    /// The design's costs: `retention` spaces the refresh operations, and
    /// [`BankRefresh::op_energy`] prices each from them.
    pub costs: OperationCosts,
    /// Mean Poisson search arrival rate, searches/second.
    pub search_rate: f64,
    /// Search service time, seconds.
    pub search_time: f64,
    /// Simulated wall time, seconds.
    pub duration: f64,
    /// RNG seed (deterministic runs).
    pub seed: u64,
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct RefreshSimReport {
    /// Searches completed.
    pub searches: u64,
    /// Searches that had to wait (arrived while the bank was busy, with a
    /// search or a refresh).
    pub delayed_searches: u64,
    /// Searches delayed by refresh: they arrived before the bank had
    /// finished the last refresh operation released before them.
    pub refresh_delayed_searches: u64,
    /// Refresh operations performed.
    pub refresh_ops: u64,
    /// Mean search waiting time, seconds.
    pub mean_wait: f64,
    /// 99th-percentile search waiting time, seconds.
    pub p99_wait: f64,
    /// Worst search waiting time, seconds.
    pub max_wait: f64,
    /// Total refresh energy, joules.
    pub refresh_energy: f64,
    /// Fraction of wall time the bank spent refreshing.
    pub refresh_utilization: f64,
}

/// Runs the refresh-interference simulation of `config`'s bank under
/// `refresh`: [`BankRefresh::ops_per_event`] operations per retention
/// interval, spread evenly, each lasting [`BankRefresh::op_time`] and
/// costing [`BankRefresh::op_energy`].
///
/// # Panics
///
/// Panics on non-positive rates/durations (configuration bugs).
#[must_use]
pub fn simulate(config: &RefreshSimConfig, refresh: BankRefresh) -> RefreshSimReport {
    let retention = config.costs.retention;
    assert!(retention > 0.0, "retention must be positive");
    assert!(config.duration > 0.0, "duration must be positive");
    assert!(config.search_rate >= 0.0, "rate must be non-negative");

    let mut rng = SplitMix64::new(config.seed);

    // Refresh release spacing and per-op parameters over the horizon (no
    // refresh: an infinite spacing releases none).
    let op_time = refresh.op_time();
    let op_energy = refresh.op_energy(&config.costs);
    let refresh_spacing = retention / refresh.ops_per_event(config.rows) as f64;

    // Merge two ordered streams: refresh releases (deterministic) and
    // search arrivals (Poisson). The bank serves refreshes with priority.
    let mut t_bank_free = 0.0_f64; // when the bank next becomes idle
    let mut t_refresh_done = 0.0_f64; // when the last released refresh ends
    let mut next_refresh = refresh_spacing;
    let mut next_search = rng.exp(config.search_rate);

    let mut waits = Vec::new();
    let mut stats = Running::new();
    let mut delayed = 0_u64;
    let mut refresh_delayed = 0_u64;
    let mut refresh_ops = 0_u64;
    let mut refresh_busy = 0.0_f64;

    while next_refresh <= config.duration || next_search <= config.duration {
        if next_refresh <= next_search {
            if next_refresh > config.duration {
                break;
            }
            // Refresh has release priority: it begins as soon as the bank
            // frees up after its release time.
            let start = t_bank_free.max(next_refresh);
            t_bank_free = start + op_time;
            t_refresh_done = t_bank_free;
            refresh_busy += op_time;
            refresh_ops += 1;
            next_refresh += refresh_spacing;
        } else {
            if next_search > config.duration {
                break;
            }
            let start = t_bank_free.max(next_search);
            let wait = start - next_search;
            if wait > 0.0 {
                delayed += 1;
            }
            if t_refresh_done > next_search {
                refresh_delayed += 1;
            }
            waits.push(wait);
            stats.push(wait);
            t_bank_free = start + config.search_time;
            next_search += rng.exp(config.search_rate);
        }
    }

    let p99 = if waits.is_empty() {
        0.0
    } else {
        percentile(&waits, 99.0).expect("non-empty finite waits")
    };
    RefreshSimReport {
        searches: stats.count(),
        delayed_searches: delayed,
        refresh_delayed_searches: refresh_delayed,
        refresh_ops,
        mean_wait: stats.mean(),
        p99_wait: p99,
        max_wait: if stats.count() == 0 { 0.0 } else { stats.max() },
        refresh_energy: refresh_ops as f64 * op_energy,
        refresh_utilization: refresh_busy / config.duration,
    }
}

/// The paper-flavoured comparison: row-by-row against one-shot refresh on
/// the same bank and traffic load, each operation lasting `op_time`.
/// Returns `(row_by_row, one_shot)`.
///
/// Both simulations seed their RNG with `config.seed`, and a simulation
/// draws only search arrivals from it, so the two policies serve the
/// very same arrival stream (common random numbers): every difference
/// between the reports is the policy's, none is sampling noise. Nothing
/// is drawn from a shared stream, so the result is bit-identical no
/// matter how many threads [`parallel_map`](tcam_numeric::parallel)
/// schedules the two simulations across.
#[must_use]
pub fn compare_policies(
    config: &RefreshSimConfig,
    op_time: f64,
) -> (RefreshSimReport, RefreshSimReport) {
    let runs = vec![
        BankRefresh::RowByRow { op_time },
        BankRefresh::OneShot { op_time },
    ];
    let mut reports =
        tcam_numeric::parallel::parallel_map(runs, |refresh| simulate(config, refresh));
    let osr = reports.pop().expect("two simulations");
    let rbr = reports.pop().expect("two simulations");
    (rbr, osr)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OP_TIME: f64 = 10e-9;
    const ONE_SHOT: BankRefresh = BankRefresh::OneShot { op_time: OP_TIME };
    const ROW_BY_ROW: BankRefresh = BankRefresh::RowByRow { op_time: OP_TIME };

    fn config() -> RefreshSimConfig {
        RefreshSimConfig {
            rows: 64,
            costs: OperationCosts::paper_3t2n(), // 26.5 µs retention
            search_rate: 50e6,                   // 50 Msearch/s
            search_time: 5e-9,
            duration: 2e-3,
            seed: 42,
        }
    }

    #[test]
    fn osr_runs_one_op_per_interval() {
        let r = simulate(&config(), ONE_SHOT);
        let expected_ops = (2e-3 / 26.5e-6) as u64;
        assert!((r.refresh_ops as i64 - expected_ops as i64).abs() <= 1);
        assert!(r.searches > 50_000);
    }

    #[test]
    fn row_by_row_runs_n_ops_per_interval() {
        let r = simulate(&config(), ROW_BY_ROW);
        let expected = 64.0 * 2e-3 / 26.5e-6;
        assert!((r.refresh_ops as f64 - expected).abs() / expected < 0.01);
    }

    #[test]
    fn no_refresh_releases_no_ops() {
        let r = simulate(&config(), BankRefresh::None);
        assert_eq!((r.refresh_ops, r.refresh_delayed_searches), (0, 0));
        assert_eq!(r.refresh_energy, 0.0);
        assert_eq!(r.refresh_utilization, 0.0);
        assert!(
            r.delayed_searches > 0,
            "searches still queue behind searches"
        );
    }

    #[test]
    fn osr_interferes_less_than_row_by_row() {
        let (rbr, osr) = compare_policies(
            &RefreshSimConfig {
                seed: 7,
                ..config()
            },
            OP_TIME,
        );
        assert_eq!(osr.searches, rbr.searches, "one arrival stream");
        assert!(
            osr.delayed_searches < rbr.delayed_searches,
            "osr {} vs rbr {}",
            osr.delayed_searches,
            rbr.delayed_searches
        );
        // Most delayed searches wait behind other searches (the bank is
        // 25 % busy with searches alone); those refresh delayed are where
        // the policies differ by an order of magnitude.
        assert!(
            osr.refresh_delayed_searches * 10 < rbr.refresh_delayed_searches,
            "osr {} vs rbr {} delayed by refresh",
            osr.refresh_delayed_searches,
            rbr.refresh_delayed_searches
        );
        assert!(osr.mean_wait <= rbr.mean_wait);
        assert!(osr.refresh_utilization < rbr.refresh_utilization);
        // Energy: 1 op of 520 fJ vs 64 ops of 0.7 pJ per interval.
        assert!(osr.refresh_energy < rbr.refresh_energy / 10.0);
    }

    /// A1 as `summary` prints it (64 rows, 26.5 µs, 10 ns ops,
    /// 50 Msearch/s, 5 ns searches, 1 ms, seed 42), pinned to the bit.
    /// Both policies serve one arrival stream, so their search counts are
    /// equal.
    #[test]
    fn a1_pinned_at_summary_configuration() {
        let a1 = RefreshSimConfig {
            duration: 1e-3,
            ..config()
        };
        let (rbr, osr) = compare_policies(&a1, OP_TIME);
        let counts = |r: &RefreshSimReport| (r.searches, r.delayed_searches, r.refresh_ops);
        assert_eq!(counts(&rbr), (50_204, 13_597, 2_415));
        assert_eq!(
            rbr.mean_wait.to_bits(),
            1.001_900_245_444_064e-9_f64.to_bits()
        );
        assert_eq!(
            rbr.refresh_energy.to_bits(),
            1.690_500_000_000_000_1e-9_f64.to_bits()
        );
        assert_eq!(counts(&osr), (50_204, 12_461, 37));
        assert_eq!(
            osr.mean_wait.to_bits(),
            8.286_516_973_822_922e-10_f64.to_bits()
        );
        assert_eq!(osr.refresh_energy.to_bits(), 1.924e-11_f64.to_bits());
        assert_eq!(rbr.refresh_delayed_searches, 1_244);
        assert_eq!(osr.refresh_delayed_searches, 16);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&config(), ONE_SHOT);
        let b = simulate(&config(), ONE_SHOT);
        assert_eq!(a.searches, b.searches);
        assert_eq!(a.mean_wait, b.mean_wait);
    }

    /// `compare_policies` returns bit-identical reports on every
    /// invocation: each simulation owns its RNG, so scheduling and thread
    /// count cannot perturb the streams.
    #[test]
    fn compare_policies_deterministic_across_runs() {
        for seed in [3u64, 9001] {
            let c = RefreshSimConfig {
                search_rate: 80e6,
                duration: 1e-3,
                seed,
                ..config()
            };
            let (rbr_a, osr_a) = compare_policies(&c, OP_TIME);
            let (rbr_b, osr_b) = compare_policies(&c, OP_TIME);
            for (a, b) in [(&rbr_a, &rbr_b), (&osr_a, &osr_b)] {
                assert_eq!(a.searches, b.searches, "seed {seed}");
                assert_eq!(a.delayed_searches, b.delayed_searches, "seed {seed}");
                assert_eq!(
                    a.refresh_delayed_searches, b.refresh_delayed_searches,
                    "seed {seed}"
                );
                assert_eq!(a.refresh_ops, b.refresh_ops, "seed {seed}");
                assert!(a.mean_wait == b.mean_wait, "seed {seed}");
                assert!(a.p99_wait == b.p99_wait, "seed {seed}");
                assert!(a.max_wait == b.max_wait, "seed {seed}");
            }
            // Both policies serve the arrival stream of `seed` itself: a
            // direct simulation with it gives the same report, and the
            // two count the same searches.
            let direct_rbr = simulate(&c, ROW_BY_ROW);
            assert_eq!(direct_rbr.searches, rbr_a.searches, "seed {seed}");
            assert!(direct_rbr.mean_wait == rbr_a.mean_wait, "seed {seed}");
            assert_eq!(rbr_a.searches, osr_a.searches, "seed {seed}");
        }
    }

    #[test]
    fn zero_traffic_still_refreshes() {
        let r = simulate(
            &RefreshSimConfig {
                search_rate: 0.0,
                ..config()
            },
            ONE_SHOT,
        );
        assert_eq!(r.searches, 0);
        assert!(r.refresh_ops > 0);
        assert_eq!(r.mean_wait, 0.0);
        assert_eq!(r.max_wait, 0.0);
    }
}
