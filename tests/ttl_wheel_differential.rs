//! The deadline-index model suite: a keyspace's strict sweep (its slots
//! hold the deadlines, its timer wheel indexes them) against a plain map
//! of the keys and their deadlines.
//!
//! * a proptest drives a `Db` on a `SimClock` through random histories —
//!   deadlines in the past, near and beyond the wheel's horizon,
//!   reschedules (A→B→A included), `PERSIST`, a delete followed by
//!   re-creating the key with the same deadline, `FLUSHALL`, and the
//!   clock advancing and stepping back — and after every sweep compares
//!   the sorted fired set, `pending_expired_len()` and `expires_len()`
//!   with the model;
//! * `run_expire_cycle` in strict mode and a 4-shard `KvStore` are held
//!   to the same model at every tick, and lazy mode must remove only
//!   overdue keys, identically under one seed;
//! * the Figure 2 replay is pinned to its exact reports;
//! * regressions: a TTL overwrite must not fire at its stale deadline, a
//!   persisted deadline must not fire at all.

use std::collections::BTreeMap;
use std::sync::Arc;

use gdpr_storage::gdpr_core::retention::ErasureDelayExperiment;
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::db::Db;
use gdpr_storage::kvstore::expire::{
    run_expire_cycle, ActiveExpireConfig, ErasureReport, ExpiryMode,
};
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::kvstore::ttl_wheel::DeadlineIndexKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const START: u64 = 1_000_000;

/// The model: every key present, with its deadline if it has one.
type Model = BTreeMap<String, Option<u64>>;

/// One step of a random history. Deadline offsets are relative to the
/// *current* simulated time, and may be negative (already overdue).
#[derive(Debug, Clone)]
enum Op {
    /// Give key `k` the deadline `now + offset`, creating the key if it is
    /// absent (an existing deadline makes this a reschedule).
    Expire(u8, i64),
    /// The same, beyond the wheel's top-level horizon (overflow).
    ExpireFar(u8, u32),
    /// Reschedule key `k` to `now + 1 + offset` and straight back to the
    /// deadline it has (A→B→A).
    Bounce(u8, u16),
    /// Drop key `k`'s deadline.
    Persist(u8),
    /// Delete key `k` and create it again with the deadline it had.
    Recreate(u8),
    /// Remove every key.
    FlushAll,
    /// Advance the clock by `step` ms (0 = another sweep at the same
    /// time) and sweep.
    Advance(u16),
    /// Step the clock back by `step` ms and sweep.
    StepBack(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deadlines and forward steps are listed twice: twice as likely.
    prop_oneof![
        (0u8..24, -400i64..4_000).prop_map(|(k, off)| Op::Expire(k, off)),
        (0u8..24, -400i64..4_000).prop_map(|(k, off)| Op::Expire(k, off)),
        (0u8..24, any::<u32>()).prop_map(|(k, off)| Op::ExpireFar(k, off)),
        (0u8..24, 0u16..4_000).prop_map(|(k, off)| Op::Bounce(k, off)),
        (0u8..24).prop_map(Op::Persist),
        (0u8..24).prop_map(Op::Recreate),
        Just(Op::FlushAll),
        (0u16..700).prop_map(Op::Advance),
        (0u16..700).prop_map(Op::Advance),
        (0u16..700).prop_map(Op::StepBack),
    ]
}

/// Canonical order for comparing fired sets.
fn sorted(mut keys: Vec<String>) -> Vec<String> {
    keys.sort();
    keys
}

/// What the model says must fire at `now`: every key with a deadline
/// `<= now`, in canonical (sorted) order; they leave the model.
fn model_fire(model: &mut Model, now: u64) -> Vec<String> {
    let due: Vec<String> = model
        .iter()
        .filter(|(_, at)| at.is_some_and(|at| at <= now))
        .map(|(k, _)| k.clone())
        .collect();
    for key in &due {
        model.remove(key);
    }
    due
}

/// Number of keys with a deadline in the model.
fn model_deadlines(model: &Model) -> usize {
    model.values().filter(|at| at.is_some()).count()
}

/// Lazy expiry as a command sees it: a key whose deadline is `<= now`
/// leaves the model. Returns whether `key` is live afterwards.
fn model_touch(model: &mut Model, key: &str, now: u64) -> bool {
    match model.get(key) {
        Some(Some(at)) if *at <= now => {
            model.remove(key);
            false
        }
        Some(_) => true,
        None => false,
    }
}

/// Sweep `db` at the clock's time and hold the outcome to the model.
fn check_sweep(db: &mut Db, model: &mut Model, now: u64) -> Result<(), TestCaseError> {
    let due = model
        .values()
        .filter(|at| at.is_some_and(|at| at <= now))
        .count();
    prop_assert_eq!(db.pending_expired_len(), due);
    let fired = sorted(db.strict_expire_sweep());
    prop_assert_eq!(fired, model_fire(model, now));
    prop_assert_eq!(db.pending_expired_len(), 0);
    prop_assert_eq!(db.expires_len(), model_deadlines(model));
    Ok(())
}

/// Give key `k` the deadline `at`, creating the key if it is absent.
fn expire(db: &mut Db, model: &mut Model, k: u8, at: u64, now: u64) -> Result<(), TestCaseError> {
    let key = format!("key{k:02}");
    let live = model_touch(model, &key, now);
    prop_assert_eq!(db.exists(&key), live);
    if !live {
        db.set(&key, vec![0]);
    }
    prop_assert!(db.expire_at(&key, at));
    model.insert(key, Some(at));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The keyspace and the model agree on every sweep's fired set, on the
    /// overdue count before and after it, and on the keys and deadlines
    /// held after every operation.
    #[test]
    fn db_matches_model_under_random_histories(
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        // Beyond the top wheel level (≈ 2^32 ms) entries go to overflow.
        let far_horizon: u64 = 1 << 32;
        let clock = SimClock::new(START);
        let mut db = Db::new(Arc::new(clock.clone()));
        let mut model = Model::new();
        let mut now = START;

        for op in &ops {
            match op {
                Op::Expire(k, off) => {
                    let at = now.saturating_add_signed(*off);
                    expire(&mut db, &mut model, *k, at, now)?;
                }
                Op::ExpireFar(k, off) => {
                    let at = now + far_horizon + u64::from(*off);
                    expire(&mut db, &mut model, *k, at, now)?;
                }
                Op::Bounce(k, off) => {
                    let key = format!("key{k:02}");
                    let live = model_touch(&mut model, &key, now);
                    prop_assert_eq!(db.exists(&key), live);
                    if let (true, Some(&Some(a))) = (live, model.get(&key)) {
                        prop_assert!(db.expire_at(&key, now + 1 + u64::from(*off)));
                        prop_assert!(db.expire_at(&key, a));
                    }
                }
                Op::Persist(k) => {
                    let key = format!("key{k:02}");
                    let had = model.get(&key).is_some_and(|at| at.is_some());
                    prop_assert_eq!(db.persist(&key), had);
                    if had {
                        model.insert(key, None);
                    }
                }
                Op::Recreate(k) => {
                    let key = format!("key{k:02}");
                    let deadline = model.get(&key).copied().flatten();
                    let live = model_touch(&mut model, &key, now);
                    prop_assert_eq!(db.delete(&key), live);
                    model.remove(&key);
                    db.set(&key, vec![1]);
                    if let Some(at) = deadline {
                        prop_assert!(db.expire_at(&key, at));
                    }
                    model.insert(key, deadline);
                }
                Op::FlushAll => {
                    prop_assert_eq!(db.flush_all(), model.len());
                    model.clear();
                }
                Op::Advance(step) => {
                    now += u64::from(*step);
                    clock.set(now);
                    check_sweep(&mut db, &mut model, now)?;
                }
                Op::StepBack(step) => {
                    now -= u64::from(*step).min(now - START);
                    clock.set(now);
                    check_sweep(&mut db, &mut model, now)?;
                }
            }
            prop_assert_eq!(db.expires_len(), model_deadlines(&model));
            prop_assert_eq!(db.len(), model.len());
        }

        // Final drain far past every deadline (including overflow).
        now += 2 * far_horizon;
        clock.set(now);
        check_sweep(&mut db, &mut model, now)?;
        prop_assert_eq!(db.expires_len(), 0);
    }
}

/// A Db with a mixed TTL population, including reschedules (stale
/// deadlines) and deletions (removed deadlines), with its model.
fn populated_db() -> (Db, SimClock, Model) {
    let clock = SimClock::new(START);
    let mut db = Db::new(Arc::new(clock.clone()));
    let mut model = Model::new();
    for i in 0..2_000u64 {
        let key = format!("key{i:04}");
        db.set(&key, vec![0u8; 8]);
        let mut ttl = (i * 37) % 5_000 + 1;
        db.expire_in_millis(&key, ttl);
        if i % 5 == 0 {
            // Rescheduled: the original deadline must never fire.
            ttl = (i * 53) % 7_000 + 500;
            db.expire_in_millis(&key, ttl);
        }
        model.insert(key.clone(), Some(START + ttl));
        if i % 7 == 0 {
            // Deleted: its deadline entry must never fire either.
            db.delete(&key);
            model.remove(&key);
        }
    }
    (db, clock, model)
}

#[test]
fn strict_cycle_outcomes_match_at_every_tick() {
    let (mut db, clock, mut model) = populated_db();
    let config = ActiveExpireConfig::default();
    let mut rng = StdRng::seed_from_u64(11);

    let mut total_removed = 0;
    for tick in 0..80 {
        let now = clock.advance_millis(config.period_ms);
        let mut out = run_expire_cycle(&mut db, ExpiryMode::Strict, &config, &mut rng);
        // The wheel fires in slot order: canonicalise before comparing.
        out.removed.sort();
        assert_eq!(out.removed, model_fire(&mut model, now), "tick {tick}");
        assert_eq!((out.iterations, out.examined), (1, out.removed.len()));
        total_removed += out.removed.len();
        assert_eq!(db.pending_expired_len(), 0);
        assert_eq!(db.len(), model.len());
        assert_eq!(db.expires_len(), model_deadlines(&model));
    }
    assert!(total_removed > 1_000, "the population must actually expire");
    assert_eq!(db.len(), 0, "everything TTL'd eventually goes");
}

#[test]
fn lazy_cycles_match_with_identical_seeds() {
    // The probabilistic sampler reads the keys with a deadline, not the
    // wheel: under one seed two identical keyspaces remove the same keys,
    // every one of them overdue.
    let (mut db, clock, mut model) = populated_db();
    let (mut twin, twin_clock, _) = populated_db();
    let config = ActiveExpireConfig::default();
    let mut rng = StdRng::seed_from_u64(23);
    let mut twin_rng = StdRng::seed_from_u64(23);

    for _ in 0..50 {
        let now = clock.advance_millis(config.period_ms);
        twin_clock.advance_millis(config.period_ms);
        let out = run_expire_cycle(&mut db, ExpiryMode::LazyProbabilistic, &config, &mut rng);
        let twin_out = run_expire_cycle(
            &mut twin,
            ExpiryMode::LazyProbabilistic,
            &config,
            &mut twin_rng,
        );
        assert_eq!(out, twin_out);
        for key in &out.removed {
            let at = model
                .remove(key)
                .flatten()
                .expect("a removed key had a deadline");
            assert!(at <= now, "{key} removed before its deadline");
        }
        let overdue = model
            .values()
            .filter(|at| at.is_some_and(|at| at <= now))
            .count();
        assert_eq!(db.pending_expired_len(), overdue);
        assert_eq!(twin.pending_expired_len(), overdue);
    }
}

#[test]
fn figure2_erasure_simulator_reports_are_identical() {
    // Pinned: the exact reports of 4 000 keys under seed 7.
    let strict = ErasureDelayExperiment::figure2(4_000, ExpiryMode::Strict).run(7);
    assert_eq!(
        strict,
        ErasureReport {
            erase_millis: 100,
            erased_keys: 800,
            cycles: 1,
            keys_examined: 800,
        }
    );
    let lazy = ErasureDelayExperiment::figure2(4_000, ExpiryMode::LazyProbabilistic).run(7);
    assert_eq!(
        lazy,
        ErasureReport {
            erase_millis: 107_900,
            erased_keys: 800,
            cycles: 1_079,
            keys_examined: 22_080,
        }
    );
    // The paper's headline: strict is sub-second, lazy is not.
    assert!(strict.erase_seconds() < 1.0);
    assert!(lazy.erase_seconds() > 30.0);
}

#[test]
fn ttl_overwrite_must_not_fire_at_stale_deadline() {
    let clock = SimClock::new(START);
    let store = KvStore::open(
        StoreConfig::in_memory()
            .clock(clock.clone())
            .expiry_mode(ExpiryMode::Strict),
    )
    .unwrap();
    store.set("k", b"v".to_vec()).unwrap();
    store.expire_at("k", START + 100).unwrap();
    store.expire_at("k", START + 100_000).unwrap();
    clock.advance_millis(1_000); // past the stale deadline only
    let outcome = store.tick().unwrap();
    assert!(
        outcome.removed.is_empty(),
        "stale deadline fired: {:?}",
        outcome.removed
    );
    assert_eq!(store.get("k").unwrap(), Some(b"v".to_vec()));
    let ttl = store.ttl("k").unwrap().expect("TTL survives");
    assert_eq!(ttl.as_millis() as u64, 100_000 - 1_000);
    // The rewritten (later) deadline still fires on time.
    clock.advance_millis(100_000);
    let outcome = store.tick().unwrap();
    assert_eq!(outcome.removed, vec!["k".to_string()]);
}

#[test]
fn persist_then_reexpire_fires_only_the_new_deadline() {
    let clock = SimClock::new(START);
    let mut db = Db::new(Arc::new(clock.clone()));
    db.set("k", b"v".to_vec());
    db.expire_in_millis("k", 200);
    assert!(db.persist("k"));
    clock.advance_millis(1_000);
    assert!(db.strict_expire_sweep().is_empty());
    assert!(db.exists("k"));
    db.expire_in_millis("k", 500);
    clock.advance_millis(501);
    assert_eq!(db.strict_expire_sweep(), vec!["k".to_string()]);
    assert_eq!(db.stats().expired_keys, 1);
}

#[test]
fn sharded_store_outcomes_match_the_model() {
    // The engine-level check: a workload on a 4-shard store, every tick's
    // merged removals against the model.
    let clock = SimClock::new(START);
    let store = KvStore::open(
        StoreConfig::in_memory()
            .shards(4)
            .clock(clock.clone())
            .expiry_mode(ExpiryMode::Strict),
    )
    .unwrap();
    let mut model = Model::new();
    for i in 0..600u64 {
        let key = format!("user{i:03}");
        store.set(&key, vec![1]).unwrap();
        let mut at = START + (i * 13) % 3_000 + 1;
        store.expire_at(&key, at).unwrap();
        if i % 4 == 0 {
            at = START + (i * 29) % 4_000 + 1;
            store.expire_at(&key, at).unwrap();
        }
        model.insert(key.clone(), Some(at));
        if i % 9 == 0 {
            store.delete(&key).unwrap();
            model.remove(&key);
        }
    }
    for tick in 0..45 {
        let now = clock.advance_millis(100);
        let mut outcome = store.tick().unwrap();
        outcome.removed.sort();
        assert_eq!(outcome.removed, model_fire(&mut model, now), "tick {tick}");
        assert_eq!(store.len(), model.len());
    }
    assert_eq!(store.pending_expired(), 0);
    assert!(model.is_empty());
}

#[test]
fn wheel_store_surfaces_wheel_stats() {
    let clock = SimClock::new(START);
    // Pinned to the wheel: the assertions below are about the wheel's own
    // counters.
    let store = KvStore::open(
        StoreConfig::in_memory()
            .shards(2)
            .clock(clock.clone())
            .expiry_mode(ExpiryMode::Strict)
            .deadline_index(DeadlineIndexKind::Wheel),
    )
    .unwrap();
    for i in 0..100u64 {
        let key = format!("k{i:02}");
        store.set(&key, vec![0]).unwrap();
        store
            .expire_in(&key, std::time::Duration::from_millis(70_000))
            .unwrap();
        store
            .expire_in(&key, std::time::Duration::from_millis(90_000))
            .unwrap();
    }
    let stats = store.stats().deadline_index;
    assert_eq!(stats.kind, DeadlineIndexKind::Wheel);
    assert_eq!(stats.entries, 100);
    assert_eq!(stats.inserts, 100);
    assert_eq!(stats.reschedules, 100);
    assert_eq!(
        stats.level_entries.iter().sum::<u64>(),
        200,
        "100 live + 100 stale parked"
    );

    clock.advance_millis(91_000);
    let outcome = store.tick().unwrap();
    assert_eq!(outcome.removed.len(), 100);
    let stats = store.stats().deadline_index;
    assert_eq!(stats.fired, 100);
    assert_eq!(stats.stale_dropped, 100, "every stale reschedule dropped");
    assert_eq!(stats.entries, 0);
}
