//! The differential/property battery pinning the timer wheel to the BTree
//! deadline index's semantics:
//!
//! * a proptest drives the wheel, the BTree index and a plain `BTreeMap`
//!   model with random insert/reschedule/remove/advance sequences
//!   (same-tick reschedules, deadlines in the past and far-future
//!   overflow deadlines included) — the fired key sets of every advance
//!   must be identical across all three (the wheel fires in slot order,
//!   so outputs are canonicalised by sorting before comparison);
//! * the Figure 2 `ErasureSimulator` experiment and `run_expire_cycle`
//!   strict mode are replayed with both `DeadlineIndex` implementations —
//!   removed-key lists and `CycleOutcome` counters must match exactly at
//!   every tick;
//! * regressions: a TTL overwrite must not fire at its stale deadline,
//!   and lazy-mode sampling behaves identically on both indexes.

use std::collections::BTreeMap;
use std::sync::Arc;

use gdpr_storage::gdpr_core::retention::ErasureDelayExperiment;
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::db::Db;
use gdpr_storage::kvstore::expire::{run_expire_cycle, ActiveExpireConfig, ExpiryMode};
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::kvstore::ttl_wheel::{build_deadline_index, DeadlineIndexKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const START: u64 = 1_000_000;

/// One step of a random index history. Deadline offsets are relative to
/// the *current* simulated time, and may be negative (already overdue).
#[derive(Debug, Clone)]
enum IndexOp {
    /// Upsert key `k` at `now + offset` (an existing deadline makes this a
    /// reschedule; repeating it without an advance is a same-tick
    /// reschedule).
    Insert(u8, i64),
    /// Upsert key `k` beyond the wheel's top-level horizon (overflow).
    InsertFar(u8, u32),
    /// Forget key `k`'s deadline.
    Remove(u8),
    /// Advance time by `step` ms (0 = another advance within the same
    /// tick) and fire everything due.
    Advance(u16),
}

fn op_strategy() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        (0u8..24, -400i64..4_000).prop_map(|(k, off)| IndexOp::Insert(k, off)),
        (0u8..24, any::<u32>()).prop_map(|(k, off)| IndexOp::InsertFar(k, off)),
        (0u8..24).prop_map(IndexOp::Remove),
        (0u16..700).prop_map(IndexOp::Advance),
    ]
}

/// Canonical order for comparing fired sets across implementations.
fn sorted(mut keys: Vec<String>) -> Vec<String> {
    keys.sort();
    keys
}

/// What the model says must fire at `now`: every key with `at <= now`,
/// in canonical (sorted) order.
fn model_fire(model: &mut BTreeMap<String, u64>, now: u64) -> Vec<String> {
    let due: Vec<String> = model
        .iter()
        .filter(|(_, &at)| at <= now)
        .map(|(k, _)| k.clone())
        .collect();
    for key in &due {
        model.remove(key);
    }
    due
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wheel, BTree index and model map agree on every advance's fired
    /// set and on the live-entry count after every operation.
    #[test]
    fn wheel_and_btree_match_model_under_random_histories(
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        // Beyond the top wheel level (≈ 2^32 ms) entries go to overflow.
        let far_horizon: u64 = 1 << 32;
        let mut wheel = build_deadline_index(DeadlineIndexKind::Wheel, START);
        let mut btree = build_deadline_index(DeadlineIndexKind::BTree, START);
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        let mut now = START;

        for op in &ops {
            match op {
                IndexOp::Insert(k, off) => {
                    let key = format!("key{k:02}");
                    let at = now.saturating_add_signed(*off);
                    wheel.insert(&key, at);
                    btree.insert(&key, at);
                    model.insert(key, at);
                }
                IndexOp::InsertFar(k, off) => {
                    let key = format!("key{k:02}");
                    let at = now + far_horizon + u64::from(*off);
                    wheel.insert(&key, at);
                    btree.insert(&key, at);
                    model.insert(key, at);
                }
                IndexOp::Remove(k) => {
                    let key = format!("key{k:02}");
                    wheel.remove(&key);
                    btree.remove(&key);
                    model.remove(&key);
                }
                IndexOp::Advance(step) => {
                    now += u64::from(*step);
                    let expected = model_fire(&mut model, now);
                    let fired_wheel = sorted(wheel.advance(now));
                    let fired_btree = sorted(btree.advance(now));
                    prop_assert_eq!(&fired_wheel, &expected);
                    prop_assert_eq!(&fired_btree, &expected);
                    // Nothing may stay overdue after an advance.
                    prop_assert_eq!(wheel.pending_expired(now), 0);
                }
            }
            prop_assert_eq!(wheel.len(), model.len());
            prop_assert_eq!(btree.len(), model.len());
        }

        // Final drain far past every deadline (including overflow).
        now += 2 * far_horizon;
        let expected = model_fire(&mut model, now);
        prop_assert_eq!(sorted(wheel.advance(now)), expected.clone());
        prop_assert_eq!(sorted(btree.advance(now)), expected);
        prop_assert!(wheel.is_empty());
        prop_assert!(btree.is_empty());
    }
}

/// Build a Db on the given index with a mixed TTL population, including
/// reschedules (stale deadlines) and deletions (removed deadlines).
fn populated_db(kind: DeadlineIndexKind) -> (Db, SimClock) {
    let clock = SimClock::new(START);
    let mut db = Db::with_deadline_index(Arc::new(clock.clone()), kind);
    for i in 0..2_000u64 {
        let key = format!("key{i:04}");
        db.set(&key, vec![0u8; 8]);
        db.expire_in_millis(&key, (i * 37) % 5_000 + 1);
        if i % 5 == 0 {
            // Rescheduled: the original deadline must never fire.
            db.expire_in_millis(&key, (i * 53) % 7_000 + 500);
        }
        if i % 7 == 0 {
            // Deleted: its deadline entry must never fire either.
            db.delete(&key);
        }
    }
    (db, clock)
}

#[test]
fn strict_cycle_outcomes_match_at_every_tick() {
    let (mut wheel_db, wheel_clock) = populated_db(DeadlineIndexKind::Wheel);
    let (mut btree_db, btree_clock) = populated_db(DeadlineIndexKind::BTree);
    let config = ActiveExpireConfig::default();
    let mut rng_w = StdRng::seed_from_u64(11);
    let mut rng_b = StdRng::seed_from_u64(11);

    let mut total_removed = 0;
    for tick in 0..80 {
        wheel_clock.advance_millis(config.period_ms);
        btree_clock.advance_millis(config.period_ms);
        let mut wheel_out =
            run_expire_cycle(&mut wheel_db, ExpiryMode::Strict, &config, &mut rng_w);
        let mut btree_out =
            run_expire_cycle(&mut btree_db, ExpiryMode::Strict, &config, &mut rng_b);
        // The wheel fires in slot order: canonicalise before the exact
        // CycleOutcome comparison (counters must already agree).
        wheel_out.removed.sort();
        btree_out.removed.sort();
        assert_eq!(wheel_out, btree_out, "CycleOutcome diverged at tick {tick}");
        total_removed += wheel_out.removed.len();
        assert_eq!(wheel_db.pending_expired_len(), 0);
        assert_eq!(btree_db.pending_expired_len(), 0);
        assert_eq!(wheel_db.len(), btree_db.len());
        assert_eq!(wheel_db.expires_len(), btree_db.expires_len());
    }
    assert!(total_removed > 1_000, "the population must actually expire");
    assert_eq!(wheel_db.len(), 0, "everything TTL'd eventually goes");
}

#[test]
fn lazy_cycles_match_with_identical_seeds() {
    // The probabilistic sampler reads the shared sample pool, not the
    // deadline index — with the same seed both stores must remove the
    // same keys, proving the index swap leaves lazy mode untouched.
    let (mut wheel_db, wheel_clock) = populated_db(DeadlineIndexKind::Wheel);
    let (mut btree_db, btree_clock) = populated_db(DeadlineIndexKind::BTree);
    let config = ActiveExpireConfig::default();
    let mut rng_w = StdRng::seed_from_u64(23);
    let mut rng_b = StdRng::seed_from_u64(23);

    for _ in 0..50 {
        wheel_clock.advance_millis(config.period_ms);
        btree_clock.advance_millis(config.period_ms);
        let wheel_out = run_expire_cycle(
            &mut wheel_db,
            ExpiryMode::LazyProbabilistic,
            &config,
            &mut rng_w,
        );
        let btree_out = run_expire_cycle(
            &mut btree_db,
            ExpiryMode::LazyProbabilistic,
            &config,
            &mut rng_b,
        );
        assert_eq!(wheel_out, btree_out);
        assert_eq!(
            wheel_db.pending_expired_len(),
            btree_db.pending_expired_len()
        );
    }
}

#[test]
fn figure2_erasure_simulator_reports_are_identical() {
    for mode in [ExpiryMode::Strict, ExpiryMode::LazyProbabilistic] {
        let wheel = ErasureDelayExperiment::figure2(4_000, mode)
            .with_index(DeadlineIndexKind::Wheel)
            .run(7);
        let btree = ErasureDelayExperiment::figure2(4_000, mode)
            .with_index(DeadlineIndexKind::BTree)
            .run(7);
        assert_eq!(
            wheel, btree,
            "Figure 2 replay diverged between indexes under {mode:?}"
        );
        assert_eq!(wheel.erased_keys, 800);
    }
    // And the paper's headline still holds on the wheel: strict is
    // sub-second, lazy is not.
    let strict = ErasureDelayExperiment::figure2(4_000, ExpiryMode::Strict).run(7);
    let lazy = ErasureDelayExperiment::figure2(4_000, ExpiryMode::LazyProbabilistic).run(7);
    assert!(strict.erase_seconds() < 1.0);
    assert!(lazy.erase_seconds() > 30.0);
}

#[test]
fn ttl_overwrite_must_not_fire_at_stale_deadline() {
    for kind in [DeadlineIndexKind::Wheel, DeadlineIndexKind::BTree] {
        let clock = SimClock::new(START);
        let store = KvStore::open(
            StoreConfig::in_memory()
                .clock(clock.clone())
                .deadline_index(kind)
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
            "{kind:?}: stale deadline fired: {:?}",
            outcome.removed
        );
        assert_eq!(store.get("k").unwrap(), Some(b"v".to_vec()));
        let ttl = store.ttl("k").unwrap().expect("TTL survives");
        assert_eq!(ttl.as_millis() as u64, 100_000 - 1_000);
        // The rewritten (later) deadline still fires on time.
        clock.advance_millis(100_000);
        let outcome = store.tick().unwrap();
        assert_eq!(outcome.removed, vec!["k".to_string()], "{kind:?}");
    }
}

#[test]
fn persist_then_reexpire_fires_only_the_new_deadline() {
    for kind in [DeadlineIndexKind::Wheel, DeadlineIndexKind::BTree] {
        let clock = SimClock::new(START);
        let mut db = Db::with_deadline_index(Arc::new(clock.clone()), kind);
        db.set("k", b"v".to_vec());
        db.expire_in_millis("k", 200);
        assert!(db.persist("k"));
        clock.advance_millis(1_000);
        assert!(db.strict_expire_sweep().is_empty(), "{kind:?}");
        assert!(db.exists("k"));
        db.expire_in_millis("k", 500);
        clock.advance_millis(501);
        assert_eq!(db.strict_expire_sweep(), vec!["k".to_string()], "{kind:?}");
        assert_eq!(db.stats().expired_keys, 1);
    }
}

#[test]
fn sharded_store_outcomes_match_between_indexes() {
    // The engine-level differential: same workload on a 4-shard store
    // with each index; every tick's merged removals must agree (ticks
    // visit shards in order, and each shard fires in (deadline, key)
    // order, so the merged lists are directly comparable).
    let run = |kind: DeadlineIndexKind| {
        let clock = SimClock::new(START);
        let store = KvStore::open(
            StoreConfig::in_memory()
                .shards(4)
                .clock(clock.clone())
                .deadline_index(kind)
                .expiry_mode(ExpiryMode::Strict),
        )
        .unwrap();
        for i in 0..600u64 {
            let key = format!("user{i:03}");
            store.set(&key, vec![1]).unwrap();
            store.expire_at(&key, START + (i * 13) % 3_000 + 1).unwrap();
            if i % 4 == 0 {
                store.expire_at(&key, START + (i * 29) % 4_000 + 1).unwrap();
            }
            if i % 9 == 0 {
                store.delete(&key).unwrap();
            }
        }
        let mut per_tick = Vec::new();
        for _ in 0..45 {
            clock.advance_millis(100);
            let mut outcome = store.tick().unwrap();
            outcome.removed.sort();
            per_tick.push(outcome);
        }
        assert_eq!(store.pending_expired(), 0);
        (per_tick, store.len())
    };
    let (wheel_ticks, wheel_len) = run(DeadlineIndexKind::Wheel);
    let (btree_ticks, btree_len) = run(DeadlineIndexKind::BTree);
    assert_eq!(wheel_ticks, btree_ticks);
    assert_eq!(wheel_len, btree_len);
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
