//! A guard on what one record costs in live heap allocations, in the
//! subject index and in the engine. Live allocations are counted rather
//! than bytes: the count does not depend on the allocator's size classes.
//!
//! This binary installs a counting global allocator, so it holds one test
//! only: a second test running on another thread would count into the
//! same totals.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use gdpr_storage::gdpr_core::index::ShardedMetadataIndex;
use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
use gdpr_storage::kvstore::commands::Command;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::shard::ShardRouter;
use gdpr_storage::kvstore::store::KvStore;

/// The system allocator, counting the allocations alive at any moment.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RECORDS: usize = 10_000;
const SHARDS: usize = 4;

/// Live allocations `work` leaves behind, per record.
fn allocations_per_record(work: impl FnOnce()) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    work();
    let after = LIVE.load(Ordering::Relaxed);
    (after - before) as f64 / RECORDS as f64
}

fn key(i: usize) -> String {
    format!("user{i:08}")
}

#[test]
fn a_record_costs_a_bounded_number_of_live_allocations() {
    // The subject index: self-subject postings, as a plain SET makes them.
    let index = ShardedMetadataIndex::new(ShardRouter::new(SHARDS, 7));
    let keys: Vec<String> = (0..RECORDS).map(key).collect();
    let per_posting = allocations_per_record(|| {
        for key in &keys {
            index.insert(key, key);
        }
    });
    assert!(
        per_posting <= 2.25,
        "{per_posting:.2} live allocations per self-subject posting"
    );

    // The engine: governed 100-byte strings, metadata encoded per key.
    let engine = KvStore::open(StoreConfig::in_memory().shards(SHARDS)).unwrap();
    let per_record = allocations_per_record(|| {
        for i in 0..RECORDS {
            let key = key(i);
            let governed = PersonalMetadata::new(&key).with_purpose("kv").encode();
            engine
                .execute(Command::SetGoverned {
                    key,
                    value: vec![b'v'; 100],
                    governed: governed.into(),
                })
                .unwrap();
        }
    });
    assert!(
        per_record <= 3.5,
        "{per_record:.2} live allocations per governed record"
    );
    assert_eq!(engine.len(), RECORDS);
    println!("index {per_posting:.2}, engine {per_record:.2} live allocations per record");
}
