//! The refresh policy of a TCAM bank: how many refresh operations one
//! retention event costs, how long each takes and what each costs in
//! energy (one-shot for the 3T2N; none for SRAM/NVM). It is the one
//! refresh model of the workspace: the `tcam-serve` refresh clock sizes,
//! times and meters its events by it, and [`crate::refresh_sched`]
//! simulates the paper's §III-D interference argument with it.

use crate::energy_model::OperationCosts;

/// Refresh handling for the bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BankRefresh {
    /// No refresh needed (SRAM / non-volatile designs).
    None,
    /// One-shot refresh: one operation of `op_time` per retention interval
    /// (the 3T2N scheme). Energy comes from
    /// [`crate::energy_model::OperationCosts::refresh_energy`].
    OneShot {
        /// OSR operation duration, seconds.
        op_time: f64,
    },
    /// Row-by-row refresh: `rows` operations per retention interval, each
    /// a read and a write-back of one row.
    RowByRow {
        /// Duration of one row refresh (read + write back), seconds.
        op_time: f64,
    },
}

impl BankRefresh {
    /// Refresh operations a single retention event costs on a bank of
    /// `rows` rows: 0 (none), 1 (one-shot) or `rows` (row-by-row).
    #[must_use]
    pub fn ops_per_event(&self, rows: usize) -> u64 {
        match self {
            BankRefresh::None => 0,
            BankRefresh::OneShot { .. } => 1,
            BankRefresh::RowByRow { .. } => rows.max(1) as u64,
        }
    }

    /// Duration of one refresh operation, seconds (0 when no refresh).
    #[must_use]
    pub fn op_time(&self) -> f64 {
        match self {
            BankRefresh::None => 0.0,
            BankRefresh::OneShot { op_time } | BankRefresh::RowByRow { op_time } => *op_time,
        }
    }

    /// Energy of one refresh operation, joules: 0 with no refresh, the
    /// whole-array [`OperationCosts::refresh_energy`] one-shot, and one
    /// read plus one write-back row-by-row, the read priced as a row
    /// write (`2 × write_energy`).
    #[must_use]
    pub fn op_energy(&self, costs: &OperationCosts) -> f64 {
        match self {
            BankRefresh::None => 0.0,
            BankRefresh::OneShot { .. } => costs.refresh_energy,
            BankRefresh::RowByRow { .. } => 2.0 * costs.write_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_energy_prices_each_policy() {
        let c = OperationCosts::paper_3t2n();
        assert_eq!(BankRefresh::None.op_energy(&c), 0.0);
        let one_shot = BankRefresh::OneShot { op_time: 10e-9 };
        assert_eq!(one_shot.op_energy(&c).to_bits(), 520e-15_f64.to_bits());
        // A row refresh is a read and a write-back at 0.35 pJ each: the
        // 0.7 pJ the interference study has always charged, to the bit.
        let row_by_row = BankRefresh::RowByRow { op_time: 10e-9 };
        assert_eq!(row_by_row.op_energy(&c).to_bits(), 0.7e-12_f64.to_bits());
    }
}
