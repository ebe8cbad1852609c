//! Expiration policies and the active-expiry cycle.
//!
//! The paper's Figure 2 contrasts two behaviours:
//!
//! * **Lazy / probabilistic** — stock Redis: ten times a second, sample 20
//!   random keys that carry a TTL, delete the expired ones, and only repeat
//!   immediately if at least a quarter of the sample had expired. Expired
//!   keys that are never sampled (or accessed) linger — for hours once the
//!   database holds ≥100k keys.
//! * **Strict** — the paper's modified Redis: enumerate every key whose
//!   deadline has passed and erase it in the same cycle, which our engine
//!   serves from a per-shard deadline index in `O(expired)`.
//!
//! The deadline index behind strict mode is a **hierarchical timer wheel**
//! ([`crate::ttl_wheel`]): 4 levels × 256 slots at 1 ms base resolution,
//! so registering or rescheduling a TTL is `O(1)`. Advancing the wheel
//! visits only the slots the cursor passes, **cascading** entries from
//! coarse levels into finer ones (at most 3 cascades per entry);
//! deadlines beyond the top level (~50 days) park in an overflow heap and
//! fire straight from it. The wheel only points at the keyspace's slots,
//! which hold each key's one deadline: an entry fires only while its slot
//! still carries that deadline and the clock has reached it, so an
//! overwritten TTL can never fire at its stale deadline, nor a TTL before
//! its time after the clock steps back. `tests/ttl_wheel_differential.rs`
//! pins the sweep to a model of the deadlines.
//!
//! [`run_expire_cycle`] executes one 100 ms tick of either policy;
//! [`ErasureSimulator`] replays the whole Figure 2 experiment on a
//! simulated clock.

use rand::Rng;

use crate::clock::{Clock, SimClock};
use crate::db::Db;

/// How aggressively the engine erases keys whose TTL has elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpiryMode {
    /// Redis' default probabilistic sampling (eventual compliance).
    #[default]
    LazyProbabilistic,
    /// Full sweep of the expired-deadline index on every cycle (the paper's
    /// strict / real-time compliance modification).
    Strict,
}

/// Tunables of the probabilistic cycle, defaulting to the values stock
/// Redis 4.x uses (and the paper quotes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveExpireConfig {
    /// Period between cycles in milliseconds (Redis: 100 ms, i.e. 10 Hz).
    pub period_ms: u64,
    /// Keys sampled per iteration (Redis: 20).
    pub sample_size: usize,
    /// Iteration repeats immediately while at least this many of the
    /// sampled keys were expired (Redis: a quarter of the sample, i.e. 5).
    pub repeat_threshold: usize,
    /// Upper bound on immediate repeats within one cycle, standing in for
    /// Redis' 25 ms CPU-time cap so a single cycle cannot monopolise the
    /// server.
    pub max_iterations_per_cycle: usize,
}

impl Default for ActiveExpireConfig {
    fn default() -> Self {
        ActiveExpireConfig {
            period_ms: 100,
            sample_size: 20,
            repeat_threshold: 5,
            max_iterations_per_cycle: 16,
        }
    }
}

/// Outcome of one expiry cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Keys physically erased during this cycle.
    pub removed: Vec<String>,
    /// Number of sampling iterations performed (1 for strict mode).
    pub iterations: usize,
    /// Number of keys examined.
    pub examined: usize,
}

/// Run one expiry cycle at the database's current time.
///
/// For [`ExpiryMode::LazyProbabilistic`] this is the inner loop the paper
/// describes; for [`ExpiryMode::Strict`] it is a full sweep of the expired
/// deadlines.
pub fn run_expire_cycle<R: Rng + ?Sized>(
    db: &mut Db,
    mode: ExpiryMode,
    config: &ActiveExpireConfig,
    rng: &mut R,
) -> CycleOutcome {
    match mode {
        ExpiryMode::Strict => {
            let removed = db.strict_expire_sweep();
            CycleOutcome {
                examined: removed.len(),
                iterations: 1,
                removed,
            }
        }
        ExpiryMode::LazyProbabilistic => {
            let mut outcome = CycleOutcome::default();
            loop {
                outcome.iterations += 1;
                let (sampled, removed) = db.active_expire_sample(rng, config.sample_size);
                outcome.examined += sampled;
                let removed_now = removed.len();
                outcome.removed.extend(removed);
                let keep_going = removed_now >= config.repeat_threshold
                    && outcome.iterations < config.max_iterations_per_cycle
                    && db.expires_len() > 0;
                if !keep_going {
                    break;
                }
            }
            outcome
        }
    }
}

/// Result of an [`ErasureSimulator`] run: how long it took (in simulated
/// time) until every key that had already expired was physically erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErasureReport {
    /// Simulated milliseconds from the start of the measurement until the
    /// last expired key was erased.
    pub erase_millis: u64,
    /// Number of keys that had to be erased.
    pub erased_keys: usize,
    /// Number of expiry cycles that ran.
    pub cycles: u64,
    /// Total keys examined by the sampling across all cycles.
    pub keys_examined: u64,
}

impl ErasureReport {
    /// Erasure delay in simulated seconds (the unit Figure 2 uses).
    #[must_use]
    pub fn erase_seconds(&self) -> f64 {
        self.erase_millis as f64 / 1000.0
    }
}

/// Drives the expiry cycle against a simulated clock until no expired key
/// remains, reporting the simulated delay — the exact measurement behind
/// Figure 2 of the paper.
#[derive(Debug)]
pub struct ErasureSimulator {
    mode: ExpiryMode,
    config: ActiveExpireConfig,
    /// Safety valve so a mis-configured run cannot loop forever
    /// (simulated milliseconds).
    pub max_simulated_millis: u64,
}

impl ErasureSimulator {
    /// Create a simulator for the given policy.
    #[must_use]
    pub fn new(mode: ExpiryMode, config: ActiveExpireConfig) -> Self {
        ErasureSimulator {
            mode,
            config,
            max_simulated_millis: 1_000 * 3600 * 24 * 30,
        }
    }

    /// Advance simulated time in `period_ms` steps, running one expiry
    /// cycle per step, until no already-expired key remains (or the safety
    /// limit is hit). Keys that expire *during* the simulation are erased
    /// too, and counted.
    pub fn run<R: Rng + ?Sized>(
        &self,
        db: &mut Db,
        clock: &SimClock,
        rng: &mut R,
    ) -> ErasureReport {
        let start = clock.now_millis();
        let mut cycles = 0u64;
        let mut erased = 0usize;
        let mut examined = 0u64;
        let mut last_erase_offset = 0u64;

        while db.pending_expired_len() > 0 {
            if clock.now_millis() - start > self.max_simulated_millis {
                break;
            }
            clock.advance_millis(self.config.period_ms);
            let outcome = run_expire_cycle(db, self.mode, &self.config, rng);
            cycles += 1;
            examined += outcome.examined as u64;
            if !outcome.removed.is_empty() {
                erased += outcome.removed.len();
                last_erase_offset = clock.now_millis() - start;
            }
        }

        ErasureReport {
            erase_millis: last_erase_offset,
            erased_keys: erased,
            cycles,
            keys_examined: examined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Build a DB with `total` keys, a `short_frac` fraction expiring after
    /// `short_ttl_ms` and the rest after `long_ttl_ms` (the Figure 2 setup:
    /// 20 % at 5 minutes, 80 % at 5 days).
    fn populate(
        total: usize,
        short_frac: f64,
        short_ttl_ms: u64,
        long_ttl_ms: u64,
    ) -> (Db, SimClock) {
        let clock = SimClock::new(0);
        let mut db = Db::new(Arc::new(clock.clone()));
        let short_count = (total as f64 * short_frac).round() as usize;
        for i in 0..total {
            let key = format!("key{i:08}");
            db.set(&key, vec![0u8; 16]);
            let ttl = if i < short_count {
                short_ttl_ms
            } else {
                long_ttl_ms
            };
            db.expire_in_millis(&key, ttl);
        }
        (db, clock)
    }

    #[test]
    fn strict_mode_erases_everything_in_one_cycle() {
        let (mut db, clock) = populate(1_000, 0.2, 1_000, 10_000_000);
        clock.advance_millis(1_001);
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_expire_cycle(
            &mut db,
            ExpiryMode::Strict,
            &ActiveExpireConfig::default(),
            &mut rng,
        );
        assert_eq!(out.removed.len(), 200);
        assert_eq!(out.iterations, 1);
        assert_eq!(db.pending_expired_len(), 0);
    }

    #[test]
    fn lazy_mode_repeats_while_many_expired() {
        // Everything expired: the cycle should iterate more than once.
        let (mut db, clock) = populate(500, 1.0, 10, 10);
        clock.advance_millis(100);
        let mut rng = StdRng::seed_from_u64(7);
        let out = run_expire_cycle(
            &mut db,
            ExpiryMode::LazyProbabilistic,
            &ActiveExpireConfig::default(),
            &mut rng,
        );
        assert!(
            out.iterations > 1,
            "expired-heavy sample must trigger repeats"
        );
        assert!(!out.removed.is_empty());
    }

    #[test]
    fn simulator_strict_is_subsecond() {
        let (mut db, clock) = populate(10_000, 0.2, 300_000, 432_000_000);
        clock.advance_millis(300_000); // jump to just past the short TTL
        let mut rng = StdRng::seed_from_u64(3);
        let sim = ErasureSimulator::new(ExpiryMode::Strict, ActiveExpireConfig::default());
        let report = sim.run(&mut db, &clock, &mut rng);
        assert_eq!(report.erased_keys, 2_000);
        assert!(
            report.erase_seconds() < 1.0,
            "strict erasure must be sub-second"
        );
    }

    #[test]
    fn simulator_lazy_delay_grows_with_db_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut delays = Vec::new();
        for &total in &[1_000usize, 4_000] {
            let (mut db, clock) = populate(total, 0.2, 300_000, 432_000_000);
            clock.advance_millis(300_000);
            let sim =
                ErasureSimulator::new(ExpiryMode::LazyProbabilistic, ActiveExpireConfig::default());
            let report = sim.run(&mut db, &clock, &mut rng);
            assert_eq!(report.erased_keys, total / 5);
            delays.push(report.erase_seconds());
        }
        assert!(
            delays[1] > delays[0] * 2.0,
            "erasure delay should grow super-linearly-ish with DB size: {delays:?}"
        );
    }

    #[test]
    fn simulator_counts_cycles_and_examined_keys() {
        let (mut db, clock) = populate(200, 0.5, 1_000, 100_000_000);
        clock.advance_millis(1_500);
        let mut rng = StdRng::seed_from_u64(5);
        let sim =
            ErasureSimulator::new(ExpiryMode::LazyProbabilistic, ActiveExpireConfig::default());
        let report = sim.run(&mut db, &clock, &mut rng);
        assert!(report.cycles > 0);
        assert!(report.keys_examined >= report.erased_keys as u64);
        assert_eq!(db.pending_expired_len(), 0);
    }

    #[test]
    fn default_config_matches_redis_constants() {
        let c = ActiveExpireConfig::default();
        assert_eq!(c.period_ms, 100);
        assert_eq!(c.sample_size, 20);
        assert_eq!(c.repeat_threshold, 5);
    }
}
