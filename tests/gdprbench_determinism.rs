//! Generator determinism (satellite of the GDPRbench suite).
//!
//! Property 1: a [`BenchSpec`] expands to exactly the same op stream every
//! time — generation is a pure function of (seed, config).
//!
//! Property 2: shard count never changes the workload. The spec has no
//! shard field *by construction*, so the proof obligation is about the
//! run, not the stream: driving the identical stream against stores with
//! different shard counts yields identical per-op outcomes and identical
//! final state digests — sharding routes, it never reorders or rewrites.

use std::sync::Arc;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::gdpr_server::dispatch::Dispatcher;
use gdpr_storage::gdprbench::ops::{load_ops, transaction_ops};
use gdpr_storage::gdprbench::{drive, BenchSpec, InProcessFactory, Role};
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use proptest::prelude::*;

fn role_strategy() -> impl Strategy<Value = Role> {
    prop_oneof![
        Just(Role::Customer),
        Just(Role::Controller),
        Just(Role::Processor),
        Just(Role::Regulator),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_seed_and_config_expand_to_identical_op_streams(
        role in role_strategy(),
        subjects in 1u64..50,
        keys in 1u64..6,
        ops in 1u64..300,
        seed in any::<u64>(),
    ) {
        let spec = BenchSpec::new(role, subjects, keys, ops).seed(seed);
        prop_assert_eq!(load_ops(&spec), load_ops(&spec));
        prop_assert_eq!(transaction_ops(&spec), transaction_ops(&spec));
    }

    #[test]
    fn different_seeds_diverge(
        role in role_strategy(),
        seed in any::<u64>(),
    ) {
        // Not a strict guarantee op-by-op, but with 200 ops over 20 subjects
        // two different seeds colliding on the whole stream would mean the
        // seed is not actually feeding the generator.
        let a = BenchSpec::new(role, 20, 4, 200).seed(seed);
        let b = BenchSpec::new(role, 20, 4, 200).seed(seed ^ 0x9e37_79b9_7f4a_7c15);
        prop_assert!(transaction_ops(&a) != transaction_ops(&b));
    }
}

/// A pinned-clock in-memory compliance store with all bench grants.
fn open_store(shards: usize) -> Arc<GdprStore> {
    let config = StoreConfig::in_memory()
        .aof_in_memory()
        .shards(shards)
        .clock(SimClock::new(1_000_000));
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        config,
        Box::new(gdpr_storage::audit::sink::NullSink::new()),
    )
    .expect("store opens");
    for (actor, purpose) in BenchSpec::grants() {
        store.grant(Grant::new(actor, purpose));
    }
    Arc::new(store)
}

/// Drive the spec's load + transactions single-threaded and return
/// (load outcomes, txn outcomes, final state digest).
fn run_on_shards(
    spec: &BenchSpec,
    shards: usize,
) -> (
    Vec<gdpr_storage::gdprbench::Outcome>,
    Vec<gdpr_storage::gdprbench::Outcome>,
    String,
) {
    let store = open_store(shards);
    let load = drive(
        &load_ops(spec),
        &InProcessFactory::for_load(Arc::clone(&store)),
    )
    .expect("load runs");
    let txn = drive(
        &transaction_ops(spec),
        &InProcessFactory::for_role(Arc::clone(&store), spec.role),
    )
    .expect("txns run");
    let digest = Dispatcher::gdpr(store).state_digest_hex();
    (load, txn, digest)
}

#[test]
fn shard_count_only_routes_outcomes_and_digest_are_invariant() {
    // Mutating roles included on purpose: erasures and re-stamps are where
    // a shard-dependent generator or router would betray itself.
    for role in Role::all() {
        let spec = BenchSpec::new(role, 24, 3, 400).seed(1234);
        let (load1, txn1, digest1) = run_on_shards(&spec, 1);
        let (load4, txn4, digest4) = run_on_shards(&spec, 4);
        assert_eq!(
            load1, load4,
            "{role}: load outcomes differ across shard counts"
        );
        assert_eq!(
            txn1, txn4,
            "{role}: txn outcomes differ across shard counts"
        );
        assert_eq!(
            digest1, digest4,
            "{role}: final digests differ across shard counts"
        );
    }
}
