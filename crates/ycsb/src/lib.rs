//! A YCSB-style workload generator and benchmark driver.
//!
//! The paper evaluates its GDPR-compliant Redis with the Yahoo! Cloud
//! Serving Benchmark: the load phases of workloads A and E plus the run
//! phases of workloads A–F (Figure 1). This crate re-implements the parts
//! of YCSB those experiments need, in Rust:
//!
//! * the core **request distributions** (uniform, zipfian, scrambled
//!   zipfian, latest, hotspot) in [`generator`];
//! * the **core workload** model — record/operation counts, field
//!   count/length, operation mix, scan lengths — and the standard workload
//!   presets A–F in [`workload`];
//! * a single-threaded **driver** that runs a load phase and a transaction
//!   phase against anything implementing [`client::KvInterface`],
//!   collecting throughput and latency percentiles in [`stats`].
//!
//! The crate is deliberately storage-agnostic: the adapters for the GDPR
//! layer and the simulated network client live next to the paper
//! reproductions in the `bench` crate, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod generator;
pub mod stats;
pub mod workload;

use std::error::Error;
use std::fmt;

/// Error type for workload execution: wraps whatever the underlying store
/// adapter reports.
#[derive(Debug)]
pub struct WorkloadError {
    /// Human-readable description of what failed.
    pub message: String,
}

impl WorkloadError {
    /// Create an error from anything displayable.
    pub fn new(message: impl fmt::Display) -> Self {
        WorkloadError {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload error: {}", self.message)
    }
}

impl Error for WorkloadError {}

/// Result alias for workload operations.
pub type Result<T> = std::result::Result<T, WorkloadError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(WorkloadError::new("boom").to_string().contains("boom"));
    }
}
