//! Flush policies: the real-time vs eventual compliance knob.
//!
//! The paper's §4.1 experiment is precisely this policy choice applied to
//! the monitoring log: fsync every record synchronously (real-time
//! compliance, ~5 % of baseline throughput) or batch for up to one second
//! (eventual compliance, ~30 % of baseline, at the risk of losing the last
//! second of evidence).

/// How long [`FlushPolicy::Periodic`] lets records sit in the buffer, in
/// milliseconds: the paper's one-second window.
pub(crate) const PERIODIC_INTERVAL_MS: u64 = 1_000;

/// When buffered audit records are forced to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush and fsync after every record — real-time compliance.
    Synchronous,
    /// Flush and fsync at most once per second — eventual compliance with
    /// a bounded evidence-loss window.
    Periodic,
    /// Never flush automatically (only on explicit `flush()` / drop). Used
    /// as the "monitoring disabled" baseline in benchmarks.
    Manual,
}

impl FlushPolicy {
    /// The paper's strict real-time configuration.
    #[must_use]
    pub fn real_time() -> Self {
        FlushPolicy::Synchronous
    }

    /// The paper's relaxed configuration (fsync once per second).
    #[must_use]
    pub fn every_second() -> Self {
        FlushPolicy::Periodic
    }

    /// Whether this policy satisfies the paper's definition of *real-time*
    /// compliance for monitoring (no interaction is acknowledged before its
    /// audit record is durable).
    #[must_use]
    pub fn is_real_time(&self) -> bool {
        matches!(self, FlushPolicy::Synchronous)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_relaxed_point() {
        assert_eq!(FlushPolicy::every_second(), FlushPolicy::Periodic);
        assert_eq!(PERIODIC_INTERVAL_MS, 1_000);
    }

    #[test]
    fn real_time_classification() {
        assert!(FlushPolicy::real_time().is_real_time());
        assert!(!FlushPolicy::every_second().is_real_time());
        assert!(!FlushPolicy::Manual.is_real_time());
    }
}
