//! TCAM application workloads: route lookup and packet classification.

pub mod classifier;
pub mod router;
