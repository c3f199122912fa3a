//! Per-operation latency/energy costs and workload accounting.
//!
//! [`OperationCosts`] carries the circuit-level figures of merit for one
//! design — either the paper's published values ([`OperationCosts::paper_3t2n`]
//! and friends) or numbers measured by `tcam-core` experiments
//! ([`OperationCosts::from_measurements`]). [`WorkloadMeter`] accumulates
//! operation counts into total energy/time for architectural studies.

use crate::bank::BankRefresh;
use tcam_core::experiments::{SearchRow, WriteRow};

/// Circuit-level cost of each TCAM operation for one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationCosts {
    /// Row write latency, seconds.
    pub write_latency: f64,
    /// Row write energy, joules.
    pub write_energy: f64,
    /// Worst-case search latency, seconds.
    pub search_latency: f64,
    /// Per-search energy, joules.
    pub search_energy: f64,
    /// Whole-array refresh-operation energy, joules (0 for non-volatile
    /// or static designs).
    pub refresh_energy: f64,
    /// Retention interval between refreshes, seconds (∞ when no refresh
    /// is needed).
    pub retention: f64,
}

impl OperationCosts {
    /// The paper's published 3T2N figures (64×64 array).
    #[must_use]
    pub fn paper_3t2n() -> Self {
        Self {
            write_latency: 2e-9,
            write_energy: 0.35e-12,
            search_latency: 40e-12,
            search_energy: 10e-15,
            refresh_energy: 520e-15,
            retention: 26.5e-6,
        }
    }

    /// Builds costs from measured experiment rows (returns `None` when the
    /// design name is missing from either set).
    #[must_use]
    pub fn from_measurements(
        design: &str,
        writes: &[WriteRow],
        searches: &[SearchRow],
        refresh_energy: f64,
        retention: f64,
    ) -> Option<Self> {
        let w = writes.iter().find(|r| r.design == design)?;
        let s = searches.iter().find(|r| r.design == design)?;
        Some(Self {
            write_latency: w.latency,
            write_energy: w.energy,
            search_latency: s.latency,
            search_energy: s.energy,
            refresh_energy,
            retention,
        })
    }

    /// Average refresh power, watts (0 when no refresh is needed).
    #[must_use]
    pub fn refresh_power(&self) -> f64 {
        if self.retention.is_finite() && self.retention > 0.0 {
            self.refresh_energy / self.retention
        } else {
            0.0
        }
    }
}

/// Accumulates operation counts and totals for a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadMeter {
    /// Searches performed.
    pub searches: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Total energy, joules.
    pub energy: f64,
    /// Total device-busy time, seconds.
    pub busy_time: f64,
}

impl WorkloadMeter {
    /// A fresh meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one search.
    pub fn search(&mut self, costs: &OperationCosts) {
        self.searches += 1;
        self.energy += costs.search_energy;
        self.busy_time += costs.search_latency;
    }

    /// Records `n` searches in O(1) — the batched serving path meters a
    /// whole drained batch at once instead of per key.
    #[allow(clippy::cast_precision_loss)]
    pub fn search_n(&mut self, costs: &OperationCosts, n: u64) {
        self.searches += n;
        self.energy += costs.search_energy * n as f64;
        self.busy_time += costs.search_latency * n as f64;
    }

    /// Records one refresh event of `ops` operations under `refresh`, each
    /// priced by [`BankRefresh::op_energy`] and lasting
    /// [`BankRefresh::op_time`].
    #[allow(clippy::cast_precision_loss)]
    pub fn refresh(&mut self, costs: &OperationCosts, refresh: &BankRefresh, ops: u64) {
        self.refreshes += ops;
        self.energy += refresh.op_energy(costs) * ops as f64;
        self.busy_time += refresh.op_time() * ops as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs_are_consistent() {
        let c = OperationCosts::paper_3t2n();
        // 520 fJ / 26.5 µs ≈ 19.6 nW — the paper's §IV-B refresh power.
        assert!((c.refresh_power() - 19.6e-9).abs() < 0.3e-9);
    }

    #[test]
    fn meter_accumulates() {
        let c = OperationCosts::paper_3t2n();
        let mut m = WorkloadMeter::new();
        for _ in 0..1000 {
            m.search(&c);
        }
        m.refresh(&c, &BankRefresh::OneShot { op_time: 10e-9 }, 1);
        assert_eq!(m.searches, 1000);
        assert_eq!(m.refreshes, 1);
        let expected = 1000.0 * c.search_energy + c.refresh_energy;
        assert!((m.energy - expected).abs() < 1e-18);

        // A row-by-row event of 64 ops: 64 refreshes at 2 × write_energy.
        let before = m.energy;
        m.refresh(&c, &BankRefresh::RowByRow { op_time: 10e-9 }, 64);
        assert_eq!(m.refreshes, 65);
        assert!((m.energy - before - 64.0 * 2.0 * c.write_energy).abs() < 1e-18);

        // Bulk accounting: search_n(n) equals n searches to fp tolerance.
        let mut bulk = WorkloadMeter::new();
        bulk.search_n(&c, 1000);
        assert_eq!(bulk.searches, 1000);
        assert!((bulk.energy - 1000.0 * c.search_energy).abs() < 1e-18);
        assert!((bulk.busy_time - 1000.0 * c.search_latency).abs() < 1e-15);
        bulk.search_n(&c, 0);
        assert_eq!(bulk.searches, 1000);
    }

    #[test]
    fn from_measurements_finds_design() {
        let writes = vec![WriteRow {
            design: "3T2N".into(),
            latency: 2e-9,
            energy: 0.4e-12,
            valid: true,
        }];
        let searches = vec![SearchRow {
            design: "3T2N".into(),
            latency: 50e-12,
            energy: 9e-15,
            edp: 4.5e-25,
            mismatch_ok: true,
            match_ok: true,
        }];
        let c =
            OperationCosts::from_measurements("3T2N", &writes, &searches, 1e-12, 20e-6).unwrap();
        assert_eq!(c.write_energy, 0.4e-12);
        assert!(OperationCosts::from_measurements("nope", &writes, &searches, 0.0, 1.0).is_none());
    }
}
