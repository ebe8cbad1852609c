//! Retention enforcement (Articles 5(e), 13(2)(a) and 17).
//!
//! "Storage limitation" means every piece of personal data has a lifetime,
//! and the paper's Figure 2 shows why that is a storage-system problem:
//! with Redis' stock probabilistic expiry, data that should be gone lingers
//! for hours once the keyspace is large. This module wraps the engine's
//! expiry machinery in compliance terms: run retention sweeps, measure the
//! erasure lag and report the backlog of overdue keys.

use kvstore::clock::SimClock;
use kvstore::expire::{ActiveExpireConfig, ErasureSimulator, ExpiryMode};

use crate::store::GdprStore;
use crate::Result;

/// Outcome of one retention sweep over the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionSweepReport {
    /// Data keys erased by this sweep.
    pub erased_keys: Vec<String>,
    /// Keys whose retention deadline has passed but which are still
    /// present after the sweep (non-zero only under the lazy policy).
    pub overdue_remaining: usize,
    /// Number of expiry cycles executed.
    pub cycles: u64,
}

impl GdprStore {
    /// Run retention sweeps until either no overdue key remains or
    /// `max_cycles` cycles have executed (the latter only matters under the
    /// lazy probabilistic policy, which may need many cycles).
    ///
    /// # Errors
    ///
    /// Propagates engine and audit errors.
    pub fn enforce_retention(&self, max_cycles: u64) -> Result<RetentionSweepReport> {
        let mut report = RetentionSweepReport::default();
        for _ in 0..max_cycles.max(1) {
            let outcome = self.tick()?;
            report.cycles += 1;
            report.erased_keys.extend(outcome.removed);
            if self.kv.pending_expired() == 0 {
                break;
            }
        }
        report.overdue_remaining = self.kv.pending_expired();
        Ok(report)
    }

    /// Number of keys whose retention deadline has already passed but
    /// which have not been physically erased — the quantity Figure 2 of the
    /// paper tracks.
    #[must_use]
    pub fn overdue_keys(&self) -> usize {
        self.kv.pending_expired()
    }
}

/// Configuration of a Figure 2-style erasure-delay experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErasureDelayExperiment {
    /// Total number of keys loaded into the store.
    pub total_keys: usize,
    /// Fraction of keys with the short TTL (the paper uses 0.2).
    pub short_fraction: f64,
    /// Short TTL in milliseconds (the paper uses 5 minutes).
    pub short_ttl_ms: u64,
    /// Long TTL in milliseconds (the paper uses 5 days).
    pub long_ttl_ms: u64,
    /// Expiry policy under test.
    pub mode: ExpiryMode,
}

impl ErasureDelayExperiment {
    /// The paper's Figure 2 parameters for a given key count and policy.
    #[must_use]
    pub fn figure2(total_keys: usize, mode: ExpiryMode) -> Self {
        ErasureDelayExperiment {
            total_keys,
            short_fraction: 0.2,
            short_ttl_ms: 5 * 60 * 1_000,
            long_ttl_ms: 5 * 24 * 3_600 * 1_000,
            mode,
        }
    }

    /// Run the experiment on a simulated clock: populate a fresh engine,
    /// jump to just past the short TTL, and measure how long (in simulated
    /// time) the policy takes to erase every expired key.
    #[must_use]
    pub fn run(&self, seed: u64) -> kvstore::expire::ErasureReport {
        use kvstore::db::Db;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;

        let clock = SimClock::new(0);
        let mut db = Db::new(Arc::new(clock.clone()));
        let short_count = (self.total_keys as f64 * self.short_fraction).round() as usize;
        for i in 0..self.total_keys {
            let key = format!("user{i:012}");
            db.set(&key, vec![0u8; 100]);
            let ttl = if i < short_count {
                self.short_ttl_ms
            } else {
                self.long_ttl_ms
            };
            db.expire_in_millis(&key, ttl);
        }
        // Jump to the moment the short-term keys have just expired, which
        // is where the paper starts its stopwatch.
        clock.advance_millis(self.short_ttl_ms);

        let mut rng = StdRng::seed_from_u64(seed);
        let simulator = ErasureSimulator::new(self.mode, ActiveExpireConfig::default());
        simulator.run(&mut db, &clock, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Grant;
    use crate::metadata::PersonalMetadata;
    use crate::policy::CompliancePolicy;
    use crate::store::AccessContext;
    use kvstore::config::StoreConfig;

    fn ctx() -> AccessContext {
        AccessContext::new("app", "billing")
    }

    #[test]
    fn enforce_retention_erases_expired_data_and_metadata() {
        let clock = SimClock::new(1_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone()),
            Box::new(audit::sink::MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing"));
        for i in 0..20 {
            let meta = PersonalMetadata::new("alice")
                .with_purpose("billing")
                .with_ttl_millis(500);
            store
                .put(&ctx(), &format!("k{i}"), b"v".to_vec(), meta)
                .unwrap();
        }
        assert_eq!(store.overdue_keys(), 0);
        clock.advance_millis(1_000);
        assert!(store.overdue_keys() > 0);
        let report = store.enforce_retention(10).unwrap();
        assert_eq!(report.erased_keys.len(), 20);
        assert_eq!(report.overdue_remaining, 0);
        assert_eq!(store.len(), 0);
        assert!(store.stats().erased_by_retention >= 20);
    }

    #[test]
    fn lazy_policy_may_leave_overdue_keys_after_few_cycles() {
        let clock = SimClock::new(1_000);
        let mut policy = CompliancePolicy::eventual();
        policy.expiry_mode = ExpiryMode::LazyProbabilistic;
        policy.enforce_access_control = false;
        let store = GdprStore::open(
            policy,
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone())
                .rng_seed(7),
            Box::new(audit::sink::MemorySink::new()),
        )
        .unwrap();
        for i in 0..1_000 {
            let meta = PersonalMetadata::new("s")
                .with_purpose("billing")
                .with_ttl_millis(100);
            store
                .put(&ctx(), &format!("k{i:04}"), b"v".to_vec(), meta)
                .unwrap();
        }
        clock.advance_millis(500);
        let report = store.enforce_retention(2).unwrap();
        // Two probabilistic cycles sample at most 2 x 16 x 20 keys: over
        // 1000 expired keys a backlog must remain.
        assert!(
            report.overdue_remaining > 0,
            "lazy expiry cannot clear 1000 keys in 2 cycles"
        );
        assert!(report.cycles <= 2);
    }

    #[test]
    fn figure2_experiment_strict_is_subsecond_and_lazy_is_not() {
        let strict = ErasureDelayExperiment::figure2(4_000, ExpiryMode::Strict).run(1);
        assert_eq!(strict.erased_keys, 800);
        assert!(strict.erase_seconds() < 1.0);

        let lazy = ErasureDelayExperiment::figure2(4_000, ExpiryMode::LazyProbabilistic).run(1);
        assert_eq!(lazy.erased_keys, 800);
        assert!(
            lazy.erase_seconds() > 30.0,
            "lazy erasure of 800/4000 keys should take tens of simulated seconds, got {}",
            lazy.erase_seconds()
        );
    }

    #[test]
    fn figure2_delay_grows_with_database_size() {
        let small = ErasureDelayExperiment::figure2(1_000, ExpiryMode::LazyProbabilistic).run(2);
        let large = ErasureDelayExperiment::figure2(8_000, ExpiryMode::LazyProbabilistic).run(2);
        assert!(
            large.erase_seconds() > small.erase_seconds() * 3.0,
            "8k keys ({}) should take much longer than 1k keys ({})",
            large.erase_seconds(),
            small.erase_seconds()
        );
    }
}
