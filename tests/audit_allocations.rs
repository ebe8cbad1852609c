//! Monitoring a read allocates nothing: under an eventual policy an
//! operation's audit record is rendered from its borrowed fields straight
//! into its shard's reused buffer, so a monitored `get` makes exactly as
//! many heap allocations as the same `get` with monitoring off — on a
//! hot-cache hit and on a miss that visits the engine.
//!
//! This binary installs a counting global allocator; it counts the
//! allocations of the thread that reads, so threads the store runs do not
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gdpr_storage::audit::sink::NullSink;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::hot_cache::HotCacheConfig;
use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::kvstore::config::StoreConfig;

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Reads measured per leg: enough to drain every shard's buffer into the
/// log several times over (128 records per shard).
const READS: usize = 2_000;
const KEYS: usize = 8;

fn key(i: usize) -> String {
    format!("user:{i}")
}

/// An eventual store holding `KEYS` keys, monitored or not, with its hot
/// cache on or off.
fn store(monitored: bool, hot_cache: bool) -> GdprStore {
    let policy = CompliancePolicy {
        monitor_all_operations: monitored,
        ..CompliancePolicy::eventual()
    };
    let config = StoreConfig::in_memory().shards(4).aof_in_memory();
    let mut store = GdprStore::open(policy, config, Box::new(NullSink::new())).unwrap();
    store.set_hot_cache(HotCacheConfig::default().enabled(hot_cache));
    store.grant(Grant::new("app", "billing")).unwrap();
    let ctx = AccessContext::new("app", "billing");
    for i in 0..KEYS {
        let meta = PersonalMetadata::new(&format!("subject-{i}")).with_purpose("billing");
        store.put(&ctx, &key(i), vec![b'v'; 100], meta).unwrap();
    }
    store
}

/// Allocations `READS` gets make once the buffers they fill have grown.
fn allocations_per_run(store: &GdprStore) -> u64 {
    let ctx = AccessContext::new("app", "billing");
    let keys: Vec<String> = (0..KEYS).map(key).collect();
    let run = || {
        for i in 0..READS {
            let value = store.get(&ctx, &keys[i % KEYS]).unwrap();
            assert_eq!(value.map(|v| v.len()), Some(100));
        }
    };
    run();
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_monitored_eventual_get_allocates_as_often_as_an_unmonitored_one() {
    for hot_cache in [true, false] {
        let leg = if hot_cache { "hot-cache hit" } else { "miss" };
        let monitored = store(true, hot_cache);
        let unmonitored = store(false, hot_cache);
        let with = allocations_per_run(&monitored);
        let without = allocations_per_run(&unmonitored);
        assert_eq!(with, without, "{leg}: {with} allocations monitored");
        assert!(with > 0, "{leg}: a get hands out an owned value");

        let hits = monitored.hot_cache_stats().hits;
        if hot_cache {
            assert!(hits >= READS as u64, "{leg}: {hits} hits");
        } else {
            assert_eq!(hits, 0, "{leg}");
        }
        let records = monitored.stats().audit_records;
        assert_eq!(records, (KEYS + 2 * READS) as u64 + 1, "{leg}");
        assert_eq!(unmonitored.stats().audit_records, 0, "{leg}");
    }
}
