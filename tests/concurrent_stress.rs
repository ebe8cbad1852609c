//! Concurrency stress tests for the sharded stack: N threads performing
//! puts, gets, erasures and objections at once, with the invariants that
//! matter for compliance checked afterwards:
//!
//! * the metadata index stays consistent with the keyspace (every indexed
//!   key exists and carries metadata naming the right subject; every data
//!   key in the keyspace is indexed under its subject);
//! * denied operations never mutate state (an actor without a grant leaves
//!   no keys, no metadata and no index postings behind);
//! * under the strict (real-time) policy the audit hash chain still
//!   verifies end to end after concurrent emission;
//! * a value and its metadata appear and disappear together, however puts,
//!   erasures and deletes race.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::gdpr_core::GdprError;
use gdpr_storage::kvstore::config::StoreConfig;

const WRITER_THREADS: usize = 4;
const KEYS_PER_WRITER: usize = 120;

fn ctx() -> AccessContext {
    AccessContext::new("app", "service")
}

fn subject(thread: usize) -> String {
    format!("subject{thread}")
}

fn meta(thread: usize) -> PersonalMetadata {
    PersonalMetadata::new(&subject(thread))
        .with_purpose("service")
        .with_purpose("analytics")
        .with_location(Region::Eu)
}

fn open_sharded(policy: CompliancePolicy) -> GdprStore {
    let store = GdprStore::open(
        policy,
        StoreConfig::in_memory().aof_in_memory().shards(8),
        Box::new(gdpr_storage::audit::sink::MemorySink::new()),
    )
    .unwrap();
    store.grant(Grant::new("app", "service")).unwrap();
    store.grant(Grant::new("app", "analytics")).unwrap();
    store
}

#[test]
fn concurrent_put_get_erasure_objection_keeps_index_consistent() {
    let store = open_sharded(CompliancePolicy::eventual());
    let denied_attempts = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Writers: each owns a subject and fills its key range, reading
        // back as it goes.
        for t in 0..WRITER_THREADS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..KEYS_PER_WRITER {
                    let key = format!("user:{}:k{i:03}", subject(t));
                    store
                        .put(&ctx(), &key, format!("v{i}").into_bytes(), meta(t))
                        .unwrap();
                    if i % 3 == 0 {
                        let _ = store.get(&ctx(), &key);
                    }
                }
            });
        }

        // Eraser: repeatedly exercises the right to be forgotten against
        // writer 0's subject while that writer is still inserting.
        {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..20 {
                    store.right_to_erasure(&ctx(), &subject(0)).unwrap();
                    std::thread::yield_now();
                }
            });
        }

        // Objector: races metadata rewrites against writer 1.
        {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..20 {
                    store
                        .right_to_object(&ctx(), &subject(1), "analytics")
                        .unwrap();
                    std::thread::yield_now();
                }
            });
        }

        // Rogue: no grant — every attempt must be denied and must not
        // mutate anything.
        {
            let store = &store;
            let denied = &denied_attempts;
            scope.spawn(move || {
                let rogue = AccessContext::new("rogue", "service");
                for i in 0..100 {
                    let key = format!("user:mallory:k{i:03}");
                    let meta = PersonalMetadata::new("mallory")
                        .with_purpose("service")
                        .with_location(Region::Eu);
                    let err = store
                        .put(&rogue, &key, b"stolen".to_vec(), meta)
                        .unwrap_err();
                    assert!(matches!(err, GdprError::AccessDenied { .. }));
                    denied.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Background duties run concurrently too (expiry cycles, audit
        // buffer drains).
        {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..50 {
                    store.tick().unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });

    // --- invariant: denied ops never mutate state -------------------------
    assert_eq!(denied_attempts.load(Ordering::Relaxed), 100);
    assert!(store.stats().denied_ops >= 100);
    assert!(store.keys_of_subject("mallory").unwrap().is_empty());
    let all_keys = store.scan(&ctx(), "", 10_000).unwrap();
    assert!(
        all_keys.iter().all(|k| !k.contains("mallory")),
        "denied writes must leave no keys behind"
    );

    // --- invariant: index ↔ keyspace consistency --------------------------
    // Every indexed key exists with metadata naming the right subject.
    for t in 0..WRITER_THREADS {
        for key in store.keys_of_subject(&subject(t)).unwrap() {
            let meta = store
                .metadata(&ctx(), &key)
                .unwrap()
                .unwrap_or_else(|| panic!("indexed key {key} has no metadata"));
            assert_eq!(meta.subject, subject(t));
            assert!(
                store.get(&ctx(), &key).unwrap().is_some(),
                "indexed key {key} missing from keyspace"
            );
        }
    }
    // Every data key in the keyspace is indexed under its subject.
    for key in &all_keys {
        let meta = store
            .metadata(&ctx(), key)
            .unwrap()
            .expect("data key without metadata");
        assert!(
            store.keys_of_subject(&meta.subject).unwrap().contains(key),
            "key {key} not indexed for subject {}",
            meta.subject
        );
    }

    // --- erasure settles deterministically once writers stop --------------
    let report = store.right_to_erasure(&ctx(), &subject(0)).unwrap();
    let _ = report;
    assert!(store.keys_of_subject(&subject(0)).unwrap().is_empty());
    assert!(store
        .scan(&ctx(), "", 10_000)
        .unwrap()
        .iter()
        .all(|k| !k.contains(&subject(0))));

    // Untouched writers keep their full key range.
    for t in 2..WRITER_THREADS {
        assert_eq!(
            store.keys_of_subject(&subject(t)).unwrap().len(),
            KEYS_PER_WRITER
        );
    }

    // Objections stuck: analytics reads on subject 1 are refused, service
    // reads still work. One settle pass covers keys inserted after the
    // objector thread's final concurrent pass.
    store
        .right_to_object(&ctx(), &subject(1), "analytics")
        .unwrap();
    let analytics = AccessContext::new("app", "analytics");
    if let Some(key) = store.keys_of_subject(&subject(1)).unwrap().first() {
        assert!(
            store.get(&analytics, key).is_err(),
            "objection must block analytics reads"
        );
        assert!(store.get(&ctx(), key).is_ok());
    }

    assert!(store.stats().allowed_ops > 0);
    assert!(store.stats().erased_by_request > 0);
}

#[test]
fn strict_policy_audit_chain_survives_concurrent_emission() {
    let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
    store.grant(Grant::new("app", "service")).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..25 {
                    let key = format!("user:{}:k{i:02}", subject(t));
                    let meta = PersonalMetadata::new(&subject(t))
                        .with_purpose("service")
                        .with_location(Region::Eu);
                    store.put(&ctx(), &key, b"v".to_vec(), meta).unwrap();
                    store.get(&ctx(), &key).unwrap();
                }
            });
        }
    });

    // 4 threads × 25 puts+gets, plus the grant record.
    let trail = store.audit_trail().unwrap();
    assert!(
        trail.len() >= 201,
        "expected ≥201 audit lines, got {}",
        trail.len()
    );

    // The hash chain must verify end to end despite interleaved writers,
    // up to the tip the store reports.
    let parsed = gdpr_storage::audit::reader::parse_trail(&trail.join("\n")).unwrap();
    let tip = gdpr_storage::audit::chain::verify_chain(&parsed).unwrap();
    assert_eq!(store.audit_chain_tip(), tip);

    assert_eq!(store.len(), 100);
    assert_eq!(store.stats().denied_ops, 0);
}

#[test]
fn group_commit_under_compliance_hammering_keeps_state_and_journal_aligned() {
    // Real-time durability (fsync=always) on a file-backed journal, with
    // the per-shard segments' group committers coalescing the concurrent
    // writers: nothing may be lost, nothing reordered within a key, and a
    // crash-replay must land on exactly the surviving state.
    let dir = std::env::temp_dir().join(format!("gdpr-stress-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.aof");

    let config = StoreConfig::with_aof(&path).shards(8);
    // The compliance layer stamps its own journal fsync policy onto the
    // engine config, so real-time durability is selected there.
    let mut policy = CompliancePolicy::eventual();
    policy.journal_fsync = gdpr_storage::kvstore::aof::FsyncPolicy::Always;
    {
        let store = GdprStore::open(
            policy.clone(),
            config.clone(),
            Box::new(gdpr_storage::audit::sink::MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "service")).unwrap();
        store.grant(Grant::new("app", "analytics")).unwrap();

        std::thread::scope(|scope| {
            for t in 0..WRITER_THREADS {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..KEYS_PER_WRITER {
                        let key = format!("user:{}:k{}", subject(t), i % 30);
                        store
                            .put(&ctx(), &key, format!("{i:06}").into_bytes(), meta(t))
                            .unwrap();
                    }
                });
            }
            // One eraser racing the writers exercises erasure + journal
            // scrub against the group committer.
            let store = &store;
            scope.spawn(move || {
                for _ in 0..3 {
                    store.right_to_erasure(&ctx(), &subject(0)).unwrap();
                    std::thread::yield_now();
                }
            });
        });

        let aof = store.aof_stats().unwrap();
        assert_eq!(aof.unsynced_records, 0, "always: nothing at risk");
        assert!(aof.group_commits > 0, "group committer must have run");
        let per_segment = store.aof_segment_stats().unwrap();
        assert_eq!(per_segment.len(), 8, "one journal segment per shard");
        assert!(per_segment.iter().all(|s| s.unsynced_records == 0));
        // "Crash": dropped without a clean shutdown.
    }

    let reopened = GdprStore::open(
        policy,
        config,
        Box::new(gdpr_storage::audit::sink::MemorySink::new()),
    )
    .unwrap();
    // Grants live in the in-memory ACL, not the journal; reinstall them.
    reopened.grant(Grant::new("app", "service")).unwrap();
    reopened.grant(Grant::new("app", "analytics")).unwrap();
    // Writers other than thread 0 (raced by the eraser) must have all 30
    // slots, each holding the last value written to it.
    for t in 1..WRITER_THREADS {
        let keys = reopened.keys_of_subject(&subject(t)).unwrap();
        assert_eq!(keys.len(), 30, "subject{t} keys after replay");
        for k in 0..30 {
            let last = (0..KEYS_PER_WRITER).rev().find(|i| i % 30 == k).unwrap();
            assert_eq!(
                reopened
                    .get(&ctx(), &format!("user:{}:k{k}", subject(t)))
                    .unwrap(),
                Some(format!("{last:06}").into_bytes()),
                "per-key order must survive group commit + crash replay"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_reader_sees_a_value_without_its_shadow_while_puts_race_erasures() {
    // A key's value and metadata are one engine entry, written by one
    // record and removed by one, so the engine's one-visit read of a key
    // sees both present or both absent, never a half-written or
    // half-erased state in between.
    use gdpr_storage::kvstore::store::ValuePart;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const KEYS: usize = 16;
    const ROUNDS: usize = 150;
    let store = open_sharded(CompliancePolicy::eventual());
    let key = |i: usize| format!("user:{}:k{i:02}", subject(0));
    let done = AtomicBool::new(false);
    let start = Barrier::new(4);
    let observed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let (store, start, done, observed) = (&store, &start, &done, &observed);
        scope.spawn(move || {
            start.wait();
            for round in 0..ROUNDS {
                for i in 0..KEYS {
                    let value = format!("r{round}").into_bytes();
                    store.put(&ctx(), &key(i), value, meta(0)).unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        scope.spawn(move || {
            start.wait();
            while !done.load(Ordering::SeqCst) {
                store.right_to_erasure(&ctx(), &subject(0)).unwrap();
            }
        });
        scope.spawn(move || {
            start.wait();
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                store.delete(&ctx(), &key(i % KEYS)).unwrap();
                i += 1;
            }
        });
        scope.spawn(move || {
            start.wait();
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                let data = key(i % KEYS);
                let read = store.engine().read(&data, ValuePart::Fetch).unwrap();
                let (value, meta) = (read.value.is_some(), read.governed.is_some());
                assert_eq!(value, meta, "{data}: value {value}, metadata {meta}");
                observed.fetch_add(u64::from(value), Ordering::Relaxed);
                i += 1;
            }
        });
    });
    assert!(
        observed.load(Ordering::Relaxed) > 0,
        "the reader never caught a key between a put and its erasure"
    );
    // And once the dust settles the index agrees with the keyspace.
    let posted = store.keys_of_subject(&subject(0)).unwrap();
    assert_eq!(posted.len(), store.len());
    for key in posted {
        assert!(store.get(&ctx(), &key).unwrap().is_some(), "{key}");
    }
}

#[test]
fn a_read_is_authorised_against_the_metadata_of_the_value_it_returns() {
    // A writer flips one key between subject A (value tagged `A:`) and
    // subject B (value tagged `B:`). A reader granted subject A alone may
    // be refused, but a value it is handed must be an `A:` value: value and
    // metadata come from the one entry a put writes both into. (Read from
    // two places, the metadata of the A generation could authorise the
    // value of the B generation.) Runs once with the hot tier and once
    // without: a resident entry must be such a pair too.
    use gdpr_storage::gdpr_core::hot_cache::HotCacheConfig;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const FLIPS: usize = 30_000;
    for hot in [true, false] {
        let mut store = open_sharded(CompliancePolicy::eventual());
        store.set_hot_cache(HotCacheConfig::default().enabled(hot));
        store
            .grant(Grant::new("reader", "service").for_subject("A"))
            .unwrap();
        let owned_by = |subject: &str| {
            PersonalMetadata::new(subject)
                .with_purpose("service")
                .with_location(Region::Eu)
        };
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let (mut served, mut refused) = (0u64, 0u64);

        std::thread::scope(|scope| {
            let (store, start, done) = (&store, &start, &done);
            scope.spawn(move || {
                start.wait();
                for flip in 0..FLIPS {
                    let subject = if flip % 2 == 0 { "A" } else { "B" };
                    let value = format!("{subject}:{flip}").into_bytes();
                    store
                        .put(&ctx(), "shared", value, owned_by(subject))
                        .unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            let reader = AccessContext::new("reader", "service");
            start.wait();
            while !done.load(Ordering::SeqCst) {
                match store.get(&reader, "shared") {
                    Ok(Some(value)) => {
                        assert!(
                            value.starts_with(b"A:"),
                            "hot={hot}: a reader granted subject A was served {:?}",
                            String::from_utf8_lossy(&value)
                        );
                        served += 1;
                    }
                    Ok(None) => {}
                    Err(GdprError::AccessDenied { .. }) => refused += 1,
                    Err(other) => panic!("hot={hot}: {other}"),
                }
            }
        });
        assert!(
            served > 0 && refused > 0,
            "hot={hot}: the reader never saw both generations ({served} served, {refused} refused)"
        );
    }
}

#[test]
fn writers_racing_strict_wheel_tick_never_double_fire_or_miss_deadlines() {
    // The timer-wheel strict-expiry path under contention: writers keep
    // inserting TTL'd keys (including reschedules that leave stale wheel
    // entries behind) while a ticker runs the strict sweep. Invariants:
    //
    // * no double fire — every key appears at most once across all tick
    //   outcomes (the slot's deadline sequence check must hold under
    //   racing reschedules);
    // * no stale fire — a key whose TTL was rewritten far into the future
    //   must survive every sweep;
    // * no missed deadline beyond one tick — once writers stop, a single
    //   final sweep (after the short TTLs elapsed) leaves nothing overdue.
    use gdpr_storage::kvstore::expire::ExpiryMode;
    use gdpr_storage::kvstore::store::KvStore;
    use std::time::Duration;

    const WRITERS: usize = 4;
    const KEYS: usize = 200;

    let store = KvStore::open(
        StoreConfig::in_memory()
            .shards(8)
            .expiry_mode(ExpiryMode::Strict),
    )
    .unwrap();
    let fired = Mutex::new(Vec::<String>::new());

    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..KEYS {
                    let key = format!("t{t}:k{i:03}");
                    store.set(&key, vec![t as u8]).unwrap();
                    match i % 3 {
                        0 => {
                            // Expires almost immediately: must be swept.
                            store.expire_in(&key, Duration::from_millis(1)).unwrap();
                        }
                        1 => {
                            // Rescheduled far out: the first deadline goes
                            // stale in the wheel and must never fire.
                            store.expire_in(&key, Duration::from_secs(10)).unwrap();
                            store.expire_in(&key, Duration::from_secs(3_600)).unwrap();
                        }
                        _ => {} // no TTL at all
                    }
                }
            });
        }
        {
            let store = store.clone();
            let fired = &fired;
            scope.spawn(move || {
                for _ in 0..300 {
                    let outcome = store.tick().unwrap();
                    fired.lock().unwrap().extend(outcome.removed);
                    std::thread::yield_now();
                }
            });
        }
    });

    // Writers and the racing ticker are done; give the last short TTLs
    // their millisecond, then one final sweep bounds the miss window.
    std::thread::sleep(Duration::from_millis(20));
    let outcome = store.tick().unwrap();
    fired.lock().unwrap().extend(outcome.removed);
    let fired = fired.into_inner().unwrap();

    // No double fire.
    let mut sorted = fired.clone();
    sorted.sort();
    let before = sorted.len();
    sorted.dedup();
    assert_eq!(sorted.len(), before, "a key fired twice: {fired:?}");

    // Exactly the short-TTL keys fired; rescheduled and TTL-less keys
    // survived with their values.
    assert_eq!(
        store.pending_expired(),
        0,
        "missed deadline beyond one tick"
    );
    for t in 0..WRITERS {
        for i in 0..KEYS {
            let key = format!("t{t}:k{i:03}");
            match i % 3 {
                0 => {
                    assert!(sorted.binary_search(&key).is_ok(), "{key} never swept");
                    assert_eq!(store.get(&key).unwrap(), None, "{key} still present");
                }
                1 => {
                    assert!(sorted.binary_search(&key).is_err(), "{key} fired stale");
                    assert_eq!(store.get(&key).unwrap(), Some(vec![t as u8]), "{key} lost");
                    assert!(store.ttl(&key).unwrap().unwrap() > Duration::from_secs(3_000));
                }
                _ => {
                    assert!(sorted.binary_search(&key).is_err());
                    assert_eq!(store.get(&key).unwrap(), Some(vec![t as u8]));
                }
            }
        }
    }

    // The keyspace expiry counter agrees with the fired list: index and
    // keyspace stayed consistent throughout.
    assert_eq!(store.stats().db.expired_keys, sorted.len() as u64);
    let rescued = (0..KEYS).filter(|i| i % 3 == 1).count() * WRITERS;
    assert_eq!(store.stats().deadline_index.entries as usize, rescued);
}
