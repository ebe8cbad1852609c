//! The subject index against a full scan of the engine.
//!
//! A proptest runs random histories on a 4-shard store with a simulated
//! clock — puts (some with a retention period, some large enough to make
//! the `maxmemory` evictor run), re-puts and metadata re-stamps of a key
//! under another subject, deletes, erasure and objection requests,
//! retention ticks past deadlines with reads, and index rebuilds. After
//! every step, for every subject used so far, `keys_of_subject` must equal
//! the sorted keys whose stored metadata names that subject, and no key it
//! lists may be missing from the engine.

use std::collections::BTreeSet;

use gdpr_storage::audit::sink::MemorySink;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::{EvictionPolicy, StoreConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const PURPOSE: &str = "service";
/// Small enough that one large value pushes its shard over budget.
const MAX_MEMORY: u64 = 8 * 1024;

/// One step of a random history. Keys and subjects are small indexes;
/// subject 4 names the key itself (the convention of a plain `SET`).
#[derive(Debug, Clone)]
enum Step {
    /// Put key `k` for subject `s`, with a retention period when given.
    Put(u8, u8, Option<u16>),
    /// Put a value large enough to make the evictor run.
    PutLarge(u8, u8),
    /// Put key `k` again, for the subject after the one it names now.
    Reput(u8),
    /// Re-stamp key `k`'s metadata to subject `s`.
    SetMeta(u8, u8),
    Delete(u8),
    /// Erase subject `s` (of key `k`, when `s` names the key).
    Erase(u8, u8),
    /// Record an objection for subject `s` (of key `k`, likewise).
    Object(u8, u8),
    /// Move the clock, read every key, then run two retention ticks.
    Advance(u16),
    Rebuild,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Puts are listed twice: they are the common step.
    prop_oneof![
        (0u8..24, 0u8..5, proptest::option::of(100u16..2_000))
            .prop_map(|(k, s, ttl)| Step::Put(k, s, ttl)),
        (0u8..24, 0u8..5, proptest::option::of(100u16..2_000))
            .prop_map(|(k, s, ttl)| Step::Put(k, s, ttl)),
        (0u8..24, 0u8..5).prop_map(|(k, s)| Step::PutLarge(k, s)),
        (0u8..24).prop_map(Step::Reput),
        (0u8..24, 0u8..5).prop_map(|(k, s)| Step::SetMeta(k, s)),
        (0u8..24).prop_map(Step::Delete),
        (0u8..5, 0u8..24).prop_map(|(s, k)| Step::Erase(s, k)),
        (0u8..5, 0u8..24).prop_map(|(s, k)| Step::Object(s, k)),
        (0u16..1_500).prop_map(Step::Advance),
        Just(Step::Rebuild),
    ]
}

fn key(k: u8) -> String {
    format!("user:{k:02}")
}

fn subject(s: u8, key: &str) -> String {
    match s {
        4 => key.to_string(),
        s => format!("subject:{s}"),
    }
}

fn ctx() -> AccessContext {
    AccessContext::new("app", PURPOSE)
}

fn open(clock: &SimClock) -> GdprStore {
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        StoreConfig::in_memory()
            .shards(4)
            .clock(clock.clone())
            .max_memory(MAX_MEMORY)
            .eviction_policy(EvictionPolicy::SampledLru)
            .rng_seed(7),
        Box::new(MemorySink::new()),
    )
    .unwrap();
    store.grant(Grant::new("app", PURPOSE)).unwrap();
    store
}

/// The subject `key`'s stored metadata names, if the engine holds it.
fn owner(store: &GdprStore, key: &str) -> Option<String> {
    store
        .metadata(&ctx(), key)
        .unwrap()
        .map(|meta| meta.subject)
}

fn put(store: &GdprStore, key: &str, owner: &str, len: usize, ttl: Option<u16>) {
    let mut meta = PersonalMetadata::new(owner).with_purpose(PURPOSE);
    if let Some(ttl) = ttl {
        meta = meta.with_ttl_millis(u64::from(ttl));
    }
    store.put(&ctx(), key, vec![b'v'; len], meta).unwrap();
}

fn apply(store: &GdprStore, clock: &SimClock, step: &Step, used: &mut BTreeSet<String>) {
    match *step {
        Step::Put(k, s, ttl) => {
            let key = key(k);
            used.insert(subject(s, &key));
            put(store, &key, &subject(s, &key), 16, ttl);
        }
        Step::PutLarge(k, s) => {
            let key = key(k);
            used.insert(subject(s, &key));
            put(store, &key, &subject(s, &key), 1_500, None);
        }
        Step::Reput(k) => {
            let key = key(k);
            let next = match owner(store, &key) {
                Some(name) => (0..5)
                    .map(|s| subject(s, &key))
                    .skip_while(|s| *s != name)
                    .nth(1)
                    .unwrap_or_else(|| subject(0, &key)),
                None => subject(0, &key),
            };
            used.insert(next.clone());
            put(store, &key, &next, 16, None);
        }
        Step::SetMeta(k, s) => {
            let key = key(k);
            let meta = PersonalMetadata::new(&subject(s, &key)).with_purpose(PURPOSE);
            if store.set_metadata(&ctx(), &key, meta).is_ok() {
                used.insert(subject(s, &key));
            }
        }
        Step::Delete(k) => {
            store.delete(&ctx(), &key(k)).unwrap();
        }
        Step::Erase(s, k) => {
            store
                .right_to_erasure(&ctx(), &subject(s, &key(k)))
                .unwrap();
        }
        Step::Object(s, k) => {
            store
                .right_to_object(&ctx(), &subject(s, &key(k)), "marketing")
                .unwrap();
        }
        Step::Advance(ms) => {
            clock.advance_millis(u64::from(ms));
            for k in 0..24 {
                store.get(&ctx(), &key(k)).unwrap();
            }
            store.tick().unwrap();
            store.tick().unwrap();
        }
        Step::Rebuild => store.rebuild_index().unwrap(),
    }
}

/// Every subject's postings against a scan of what the engine holds.
fn check(store: &GdprStore, used: &BTreeSet<String>) -> Result<(), TestCaseError> {
    let mut held: Vec<(String, String)> = Vec::new();
    store
        .engine()
        .for_each_governed(|key, encoded| {
            let meta = PersonalMetadata::decode(encoded).expect("decodable metadata");
            held.push((meta.subject, key.to_string()));
            Ok::<(), ()>(())
        })
        .unwrap();
    held.sort();
    for name in used {
        let listed = store.keys_of_subject(name).unwrap();
        let expected: Vec<String> = held
            .iter()
            .filter(|(owner, _)| owner == name)
            .map(|(_, key)| key.clone())
            .collect();
        prop_assert_eq!(&listed, &expected);
        for key in &listed {
            prop_assert!(store.engine().holds(key), "{name} lists {key}, gone");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn subject_index_matches_a_full_scan(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let clock = SimClock::new(1_000_000);
        let store = open(&clock);
        let mut used = BTreeSet::new();
        for step in &steps {
            apply(&store, &clock, step, &mut used);
            check(&store, &used)?;
        }
    }
}
