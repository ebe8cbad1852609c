//! Integration tests of retention enforcement (Figure 2 behaviour) and the
//! data-subject rights working together across the compliance layer, the
//! engine's expiry machinery and the audit trail.

use std::time::Duration;

use gdpr_storage::audit::sink::MemorySink;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::retention::ErasureDelayExperiment;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::{EvictionPolicy, StoreConfig};
use gdpr_storage::kvstore::expire::ExpiryMode;

fn ctx() -> AccessContext {
    AccessContext::new("app", "service")
}

fn strict_store_with_clock(clock: &SimClock) -> (GdprStore, MemorySink) {
    let sink = MemorySink::new();
    let trail_view = sink.share();
    let store = GdprStore::open(
        CompliancePolicy::strict(),
        StoreConfig::in_memory()
            .aof_in_memory()
            .clock(clock.clone()),
        Box::new(sink),
    )
    .unwrap();
    store.grant(Grant::new("app", "service")).unwrap();
    (store, trail_view)
}

#[test]
fn retention_erases_only_what_has_expired() {
    let clock = SimClock::new(1_000);
    let (store, trail_view) = strict_store_with_clock(&clock);
    // 30 short-lived keys, 20 long-lived ones.
    for i in 0..50 {
        let ttl = if i < 30 { 1_000 } else { 1_000_000 };
        let meta = PersonalMetadata::new(&format!("s{i}"))
            .with_purpose("service")
            .with_ttl_millis(ttl);
        store
            .put(&ctx(), &format!("k{i:02}"), b"v".to_vec(), meta)
            .unwrap();
    }
    clock.advance_millis(2_000);
    let report = store.enforce_retention(5).unwrap();
    assert_eq!(report.erased_keys.len(), 30);
    assert_eq!(report.overdue_remaining, 0);
    assert_eq!(store.len(), 20);
    // The erasures are audited as retention-driven deletions.
    let trail = trail_view.lines().join("\n");
    assert!(trail.contains("retention period elapsed"));
}

#[test]
fn expired_data_is_invisible_even_before_the_sweep_runs() {
    let clock = SimClock::new(1_000);
    let (store, _trail) = strict_store_with_clock(&clock);
    let meta = PersonalMetadata::new("s")
        .with_purpose("service")
        .with_ttl_millis(500);
    store.put(&ctx(), "ephemeral", b"v".to_vec(), meta).unwrap();
    clock.advance_millis(1_000);
    // A key name is personal data too: a scan does not list it, though
    // nothing has touched or removed it yet.
    assert_eq!(store.scan(&ctx(), "", 10).unwrap(), Vec::<String>::new());
    // Lazy expiration on access hides the key even though no cycle ran.
    assert_eq!(store.get(&ctx(), "ephemeral").unwrap(), None);
}

#[test]
fn figure2_shape_holds_in_miniature() {
    // Strict erasure is sub-second at every size; lazy erasure grows
    // roughly linearly with the keyspace (the paper's headline).
    let sizes = [1_000usize, 2_000, 4_000];
    let mut lazy_delays = Vec::new();
    for &size in &sizes {
        let lazy = ErasureDelayExperiment::figure2(size, ExpiryMode::LazyProbabilistic).run(5);
        let strict = ErasureDelayExperiment::figure2(size, ExpiryMode::Strict).run(5);
        assert!(
            strict.erase_seconds() < 1.0,
            "strict at {size}: {}",
            strict.erase_seconds()
        );
        assert_eq!(lazy.erased_keys, size / 5);
        lazy_delays.push(lazy.erase_seconds());
    }
    assert!(lazy_delays[1] > lazy_delays[0] * 1.5);
    assert!(lazy_delays[2] > lazy_delays[1] * 1.5);
}

#[test]
fn rights_interact_correctly_with_retention() {
    let clock = SimClock::new(1_000);
    let (store, _trail) = strict_store_with_clock(&clock);
    // Alice has one key about to expire and one long-lived key.
    store
        .put(
            &ctx(),
            "user:alice:session",
            b"token".to_vec(),
            PersonalMetadata::new("alice")
                .with_purpose("service")
                .with_ttl_millis(500),
        )
        .unwrap();
    store
        .put(
            &ctx(),
            "user:alice:email",
            b"a@b.c".to_vec(),
            PersonalMetadata::new("alice").with_purpose("service"),
        )
        .unwrap();

    clock.advance_millis(1_000);
    store.enforce_retention(3).unwrap();

    // The access report only lists what still exists.
    let report = store.right_of_access(&ctx(), "alice").unwrap();
    assert_eq!(report.items.len(), 1);
    assert_eq!(report.items[0].key, "user:alice:email");

    // Erasure then removes the rest; afterwards nothing is indexed.
    let erasure = store.right_to_erasure(&ctx(), "alice").unwrap();
    assert_eq!(erasure.erased_keys, vec!["user:alice:email".to_string()]);
    assert!(store.keys_of_subject("alice").unwrap().is_empty());
}

#[test]
fn objection_and_portability_work_under_the_eventual_policy_too() {
    let store = GdprStore::open_in_memory(CompliancePolicy::eventual()).unwrap();
    store.grant(Grant::new("app", "service")).unwrap();
    store.grant(Grant::new("app", "analytics")).unwrap();
    let meta = PersonalMetadata::new("bob")
        .with_purpose("service")
        .with_purpose("analytics")
        .with_location(Region::Eu);
    store
        .put(&ctx(), "user:bob:profile", b"profile".to_vec(), meta)
        .unwrap();

    // Portability export contains the value.
    let export = store.right_to_portability(&ctx(), "bob").unwrap();
    assert!(export.contains("profile"));

    // After an objection to analytics, analytics reads fail but service
    // reads keep working.
    store.right_to_object(&ctx(), "bob", "analytics").unwrap();
    assert!(store
        .get(&AccessContext::new("app", "analytics"), "user:bob:profile")
        .is_err());
    assert!(store.get(&ctx(), "user:bob:profile").is_ok());
}

#[test]
fn location_inventory_tracks_regions_and_violations() {
    // A policy that allows EU and US, with data in both.
    let mut policy = CompliancePolicy::eventual();
    policy.location_policy =
        gdpr_storage::gdpr_core::location::LocationPolicy::restricted_to([Region::Eu, Region::Us]);
    policy.enforce_access_control = false;
    let store = GdprStore::open_in_memory(policy).unwrap();
    for (i, region) in [Region::Eu, Region::Eu, Region::Us].iter().enumerate() {
        let meta = PersonalMetadata::new("s")
            .with_purpose("service")
            .with_location(*region);
        store
            .put(&ctx(), &format!("k{i}"), b"v".to_vec(), meta)
            .unwrap();
    }
    let inventory = store.location_inventory().unwrap();
    assert_eq!(inventory.count(Region::Eu), 2);
    assert_eq!(inventory.count(Region::Us), 1);
    assert_eq!(inventory.total(), 3);
    // Against an EU-only policy, the US copy is a violation.
    let eu_only = gdpr_storage::gdpr_core::location::LocationPolicy::eu_only();
    assert_eq!(inventory.violations(&eu_only), vec![(Region::Us, 1)]);

    // And an APAC write is refused outright by the active policy.
    let apac = PersonalMetadata::new("s")
        .with_purpose("service")
        .with_location(Region::Apac);
    assert!(store.put(&ctx(), "k-apac", b"v".to_vec(), apac).is_err());
}

#[test]
fn ttl_visible_through_engine_matches_metadata_deadline() {
    // A realistic epoch so the `with_ttl_millis` convenience (a value far
    // below "now") is resolved as a relative TTL.
    let epoch = 1_700_000_000_000u64;
    let clock = SimClock::new(epoch);
    let (store, _trail) = strict_store_with_clock(&clock);
    let meta = PersonalMetadata::new("s")
        .with_purpose("service")
        .with_ttl_millis(60_000);
    store.put(&ctx(), "k", b"v".to_vec(), meta).unwrap();
    let ttl = store.engine().ttl("k").unwrap().unwrap();
    assert!(ttl <= Duration::from_millis(60_000));
    assert!(ttl > Duration::from_millis(59_000));
    let stored = store.metadata(&ctx(), "k").unwrap().unwrap();
    assert_eq!(stored.expires_at_ms, Some(epoch + 60_000));
    assert_eq!(stored.created_at_ms, epoch);
}

#[test]
fn keys_the_engine_evicts_or_expires_leave_the_subject_index() {
    // 2 000 puts for one subject under a 64 KiB ceiling: the evictor keeps
    // a few hundred, and the subject's keys are exactly those.
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        StoreConfig::in_memory()
            .shards(4)
            .max_memory(64 * 1024)
            .eviction_policy(EvictionPolicy::SampledLru),
        Box::new(MemorySink::new()),
    )
    .unwrap();
    store.grant(Grant::new("app", "service")).unwrap();
    for i in 0..2_000 {
        let meta = PersonalMetadata::new("alice").with_purpose("service");
        store
            .put(&ctx(), &format!("user:alice:{i:04}"), vec![b'x'; 100], meta)
            .unwrap();
    }
    let held = store.engine().len();
    assert!(held < 2_000, "the evictor ran");
    let listed = store.keys_of_subject("alice").unwrap();
    assert_eq!(listed.len(), held);
    assert!(listed.iter().all(|key| store.engine().exists(key).unwrap()));

    // Ten keys with a 500 ms retention, read after their deadline: lazy
    // expiry removes them before any tick, so no tick reports them.
    let clock = SimClock::new(1_700_000_000_000);
    let (store, _trail) = strict_store_with_clock(&clock);
    for i in 0..10 {
        let meta = PersonalMetadata::new("bob")
            .with_purpose("service")
            .with_ttl_millis(500);
        store
            .put(&ctx(), &format!("user:bob:{i}"), b"v".to_vec(), meta)
            .unwrap();
    }
    clock.advance_millis(1_000);
    for i in 0..10 {
        assert_eq!(store.get(&ctx(), &format!("user:bob:{i}")).unwrap(), None);
    }
    store.tick().unwrap();
    store.tick().unwrap();
    assert_eq!(store.engine().len(), 0);
    assert!(store.keys_of_subject("bob").unwrap().is_empty());
    assert!(!store
        .right_to_portability(&ctx(), "bob")
        .unwrap()
        .contains("user:bob"));
}
