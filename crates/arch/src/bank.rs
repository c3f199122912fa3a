//! The refresh policy of a TCAM bank: how many refresh operations one
//! retention event costs and how long each takes (one-shot for the 3T2N;
//! none for SRAM/NVM). The `tcam-serve` worker sizes its refresh events
//! by it; the paper's §III-D interference argument is reproduced by
//! [`crate::refresh_sched`].

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
    /// Row-by-row refresh: `rows` operations per retention interval.
    RowByRow {
        /// Duration of one row refresh, seconds.
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
}
