//! The compliance pipeline contract: every public data-path and rights
//! operation of `GdprStore` is counted once and audited once, whichever
//! way it ends.
//!
//! * allowed: one `allowed_ops` increment, one `Allowed` record;
//! * denied (location, access, reader purpose, writer purpose): one
//!   `denied_ops` increment, one `Denied` record naming the operation, and
//!   keyspace, metadata index and hot cache exactly as they were;
//! * under `CompliancePolicy::strict()` that record is committed in the
//!   engine journal before the call returns, and the trail is its archive:
//!   a sink outage fails no operation and loses no record, and an operation
//!   the journal refuses reports failure and changed nothing.

use std::collections::BTreeMap;

use gdpr_storage::audit::log::parse_chained_line;
use gdpr_storage::audit::reader::{parse_trail, verify_trail};
use gdpr_storage::audit::record::{Operation, Outcome};
use gdpr_storage::audit::sink::{AuditSink, MemorySink, SinkStats};
use gdpr_storage::audit::AuditError;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::gdpr_core::GdprError;
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::device::{DeviceStats, MemoryDevice, StorageDevice};
use gdpr_storage::kvstore::StoreError;
use proptest::prelude::*;

/// Holds grants for `billing` and `marketing`; the seeded keys whitelist
/// only `billing`.
fn app(purpose: &str) -> AccessContext {
    AccessContext::new("app", purpose)
}

/// Holds no grant at all.
fn stranger() -> AccessContext {
    AccessContext::new("stranger", "billing")
}

fn meta(subject: &str) -> PersonalMetadata {
    PersonalMetadata::new(subject)
        .with_purpose("billing")
        .with_location(Region::Eu)
}

/// Placement the strict policy's EU-only location rule refuses.
fn us() -> PersonalMetadata {
    meta("alice").with_location(Region::Us)
}

/// Metadata that does not whitelist the writer's own purpose (`billing`).
fn analytics_only() -> PersonalMetadata {
    PersonalMetadata::new("alice").with_purpose("analytics")
}

fn fields() -> BTreeMap<String, Vec<u8>> {
    BTreeMap::from([("f".to_string(), b"v".to_vec())])
}

/// A strict store over a sink the test can read, seeded
/// with alice's string keys `k` (heated into the hot tier) and `c` (never
/// read) and her record `r`.
fn fixture() -> (GdprStore, MemorySink) {
    let sink = MemorySink::new();
    let view = sink.share();
    let config = StoreConfig::in_memory().aof_in_memory().shards(2);
    let store = GdprStore::open(CompliancePolicy::strict(), config, Box::new(sink)).unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    store.grant(Grant::new("app", "marketing")).unwrap();
    let billing = app("billing");
    store
        .put(&billing, "k", b"value".to_vec(), meta("alice"))
        .unwrap();
    store
        .put(&billing, "c", b"value".to_vec(), meta("alice"))
        .unwrap();
    store
        .put_record(&billing, "r", &fields(), meta("alice"))
        .unwrap();
    for _ in 0..3 {
        store.get(&billing, "k").unwrap();
    }
    (store, view)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Allowed,
    Location,
    Access,
    Purpose,
}

type Run = fn(&GdprStore) -> Result<(), GdprError>;

/// operation × {allowed, location, access, reader purpose, writer purpose}:
/// every cell the operation has a check for.
fn matrix() -> Vec<(&'static str, Operation, Expect, Run)> {
    use Expect::{Access, Allowed, Location, Purpose};
    use Operation::{Delete, Read, RightsRequest, Write};
    vec![
        ("put", Write, Allowed, |s| {
            s.put(&app("billing"), "n", b"v".to_vec(), meta("bob"))
        }),
        ("put/location", Write, Location, |s| {
            s.put(&app("billing"), "n", b"v".to_vec(), us())
        }),
        ("put/access", Write, Access, |s| {
            s.put(&stranger(), "n", b"v".to_vec(), meta("bob"))
        }),
        ("put/writer-purpose", Write, Purpose, |s| {
            s.put(&app("billing"), "n", b"v".to_vec(), analytics_only())
        }),
        ("put_record", Write, Allowed, |s| {
            s.put_record(&app("billing"), "n", &fields(), meta("bob"))
        }),
        ("put_record/location", Write, Location, |s| {
            s.put_record(&app("billing"), "n", &fields(), us())
        }),
        ("put_record/access", Write, Access, |s| {
            s.put_record(&stranger(), "n", &fields(), meta("bob"))
        }),
        ("put_record/writer-purpose", Write, Purpose, |s| {
            s.put_record(&app("billing"), "n", &fields(), analytics_only())
        }),
        ("update_record", Write, Allowed, |s| {
            s.update_record(&app("billing"), "r", &fields())
        }),
        ("update_record/access", Write, Access, |s| {
            s.update_record(&stranger(), "r", &fields())
        }),
        ("update_record/reader-purpose", Write, Purpose, |s| {
            s.update_record(&app("marketing"), "r", &fields())
        }),
        ("get (hot)", Read, Allowed, |s| {
            s.get(&app("billing"), "k").map(drop)
        }),
        ("get (hot)/access", Read, Access, |s| {
            s.get(&stranger(), "k").map(drop)
        }),
        ("get (hot)/reader-purpose", Read, Purpose, |s| {
            s.get(&app("marketing"), "k").map(drop)
        }),
        ("get (cold)", Read, Allowed, |s| {
            s.get(&app("billing"), "c").map(drop)
        }),
        ("get (cold)/access", Read, Access, |s| {
            s.get(&stranger(), "c").map(drop)
        }),
        ("get (cold)/reader-purpose", Read, Purpose, |s| {
            s.get(&app("marketing"), "c").map(drop)
        }),
        ("get (absent)", Read, Allowed, |s| {
            s.get(&app("billing"), "nope").map(drop)
        }),
        ("get_record", Read, Allowed, |s| {
            s.get_record(&app("billing"), "r").map(drop)
        }),
        ("get_record/access", Read, Access, |s| {
            s.get_record(&stranger(), "r").map(drop)
        }),
        ("get_record/reader-purpose", Read, Purpose, |s| {
            s.get_record(&app("marketing"), "r").map(drop)
        }),
        ("set_metadata", Write, Allowed, |s| {
            s.set_metadata(&app("billing"), "k", meta("bob"))
        }),
        ("set_metadata/location", Write, Location, |s| {
            s.set_metadata(&app("billing"), "k", us())
        }),
        ("set_metadata/access", Write, Access, |s| {
            s.set_metadata(&stranger(), "k", meta("bob"))
        }),
        ("set_metadata/writer-purpose", Write, Purpose, |s| {
            s.set_metadata(&app("billing"), "k", analytics_only())
        }),
        ("metadata", Read, Allowed, |s| {
            s.metadata(&app("billing"), "k").map(drop)
        }),
        ("delete", Delete, Allowed, |s| {
            s.delete(&app("billing"), "k").map(drop)
        }),
        ("delete/access", Delete, Access, |s| {
            s.delete(&stranger(), "k").map(drop)
        }),
        ("scan", Read, Allowed, |s| {
            s.scan(&app("billing"), "", 10).map(drop)
        }),
        ("right_of_access", RightsRequest, Allowed, |s| {
            s.right_of_access(&app("billing"), "alice").map(drop)
        }),
        ("right_to_erasure", RightsRequest, Allowed, |s| {
            s.right_to_erasure(&app("billing"), "alice").map(drop)
        }),
        ("right_to_portability", RightsRequest, Allowed, |s| {
            s.right_to_portability(&app("billing"), "alice").map(drop)
        }),
        ("export_page", RightsRequest, Allowed, |s| {
            s.export_page(&app("billing"), "alice", None, 1).map(drop)
        }),
        ("right_to_object", RightsRequest, Allowed, |s| {
            s.right_to_object(&app("billing"), "alice", "billing")
                .map(drop)
        }),
    ]
}

#[test]
fn every_operation_is_counted_once_and_audited_once() {
    for (name, operation, expect, run) in matrix() {
        let (store, sink) = fixture();
        store.flush_audit().unwrap();
        let stats = store.stats();
        let lines = sink.lines().len();
        let keyspace = store.engine().canonical_state();
        let postings = |store: &GdprStore| {
            ["alice", "bob"].map(|subject| store.keys_of_subject(subject).unwrap())
        };
        let posted = postings(&store);

        let result = run(&store);

        match (expect, &result) {
            (Expect::Allowed, Ok(()))
            | (Expect::Location, Err(GdprError::LocationViolation { .. }))
            | (Expect::Access, Err(GdprError::AccessDenied { .. }))
            | (Expect::Purpose, Err(GdprError::PurposeViolation { .. })) => {}
            _ => panic!("{name}: expected {expect:?}, got {result:?}"),
        }
        let allowed = u64::from(expect == Expect::Allowed);
        let after = store.stats();
        assert_eq!(after.allowed_ops, stats.allowed_ops + allowed, "{name}");
        assert_eq!(after.denied_ops, stats.denied_ops + 1 - allowed, "{name}");
        assert_eq!(after.audit_records, stats.audit_records + 1, "{name}");

        // The one record is in the journal; the flush archives it.
        store.flush_audit().unwrap();
        let trail = sink.lines();
        assert_eq!(trail.len(), lines + 1, "{name}: records in the sink");
        let record = parse_chained_line(trail.last().unwrap()).unwrap().record;
        assert_eq!(record.operation, operation, "{name}");
        let outcome = if allowed == 1 {
            Outcome::Allowed
        } else {
            Outcome::Denied
        };
        assert_eq!(record.outcome, outcome, "{name}");

        if allowed == 0 {
            assert_eq!(
                store.engine().canonical_state(),
                keyspace,
                "{name}: keyspace"
            );
            assert_eq!(postings(&store), posted, "{name}: index");
            let hot = store.hot_cache_stats();
            assert_eq!(hot.admissions, stats.cache_admissions, "{name}: hot tier");
            assert_eq!(
                hot.invalidations, stats.cache_invalidations,
                "{name}: hot tier"
            );
        }
    }
}

/// Engine visits so far: every keyed visit of a shard — a read, a command,
/// a batch — samples `shard_lock_hold` exactly once.
fn engine_visits(store: &GdprStore) -> u64 {
    store.engine().stage_latencies()[0].1.count()
}

/// The visit in which the strict policy commits the evidence of an
/// operation without a bracket of its own (a read, a denial, a rights
/// request). A bracket's batch carries its evidence.
const EVIDENCE: u64 = 1;

#[test]
fn a_read_visits_the_engine_once_per_key() {
    use gdpr_storage::gdpr_core::hot_cache::HotCacheConfig;

    let (mut store, _sink) = fixture();
    // A fresh, empty hot tier.
    store.set_hot_cache(HotCacheConfig::default());
    let billing = app("billing");
    let visits_of = |run: &dyn Fn()| {
        let before = engine_visits(&store);
        run();
        engine_visits(&store) - before
    };

    // A miss reads value and metadata from one entry in one visit (and is
    // admitted: the tier has room); the hit that follows touches no shard.
    let reads = store.engine().stats().reads;
    let get_c = || drop(store.get(&billing, "c").unwrap());
    assert_eq!(visits_of(&get_c), 1 + EVIDENCE);
    assert_eq!(store.engine().stats().reads, reads + 1, "one key looked at");
    assert_eq!(visits_of(&get_c), EVIDENCE);
    assert_eq!(store.hot_cache_stats().hits, 1);

    assert_eq!(
        visits_of(&|| drop(store.get_record(&billing, "r").unwrap())),
        1 + EVIDENCE
    );
    assert_eq!(
        visits_of(&|| drop(store.metadata(&billing, "k").unwrap())),
        1 + EVIDENCE
    );
    // Alice owns `c`, `k` and `r`; the index names them without a visit.
    let export = || drop(store.right_to_portability(&billing, "alice").unwrap());
    assert_eq!(visits_of(&export), 3 + EVIDENCE);
    let access = || drop(store.right_of_access(&billing, "alice").unwrap());
    assert_eq!(visits_of(&access), 3 + EVIDENCE);
    // A write's checks are one visit each — before the bracket, inside
    // it — and the bracket's batch, evidence and all, is the third.
    let restamp = || store.set_metadata(&billing, "k", meta("alice")).unwrap();
    assert_eq!(visits_of(&restamp), 3);
    let update = || store.update_record(&billing, "r", &fields()).unwrap();
    assert_eq!(visits_of(&update), 3);
    // Per key, an objection reads the metadata and writes it back.
    let object = || drop(store.right_to_object(&billing, "alice", "ads").unwrap());
    assert_eq!(visits_of(&object), 3 * 2 + EVIDENCE);

    // A refused read made its one visit and kept nothing of it: no value
    // comes back, and none went into the hot tier — the next read of `k`
    // is a miss again.
    let hot = store.hot_cache_stats();
    let refused = || {
        let result = store.get(&stranger(), "k");
        assert!(
            matches!(result, Err(GdprError::AccessDenied { .. })),
            "{result:?}"
        );
    };
    assert_eq!(visits_of(&refused), 1 + EVIDENCE);
    assert_eq!(store.hot_cache_stats().admissions, hot.admissions);
    assert_eq!(
        visits_of(&|| drop(store.get(&billing, "k").unwrap())),
        1 + EVIDENCE
    );
    assert_eq!(store.hot_cache_stats().misses, hot.misses + 2);

    // Under read-logging that visit is one journaled `GET`, beside the
    // evidence.
    let config = StoreConfig::in_memory().aof_in_memory().log_reads(true);
    let logged = GdprStore::open(
        CompliancePolicy::strict(),
        config,
        Box::new(MemorySink::new()),
    );
    let logged = logged.unwrap();
    logged.grant(Grant::new("app", "billing")).unwrap();
    logged
        .put(&billing, "k", b"value".to_vec(), meta("alice"))
        .unwrap();
    let journaled = || logged.aof_stats().unwrap().records_appended;
    let before = journaled();
    assert_eq!(logged.get(&billing, "k").unwrap(), Some(b"value".to_vec()));
    assert_eq!(journaled(), before + 1 + EVIDENCE);
}

/// How a key's metadata was named before it moved into the key's entry:
/// since then, an ordinary key like any other.
const LEGACY_SHADOW_PREFIX: &str = "__gdpr_meta__:";

#[test]
fn a_key_named_like_a_legacy_shadow_cannot_touch_another_keys_metadata() {
    use gdpr_storage::kvstore::shard::hash_key;

    let config = StoreConfig::in_memory().aof_in_memory().shards(4);
    let store = GdprStore::open(
        CompliancePolicy::strict(),
        config,
        Box::new(MemorySink::new()),
    );
    let store = store.unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    // Granted `marketing` only, on any subject's data.
    store.grant(Grant::new("mallory", "marketing")).unwrap();
    let mallory = AccessContext::new("mallory", "marketing");

    // A victim whose old shadow key shares a shard with that key's own
    // shadow: a routing that co-locates a shadow with its data key sent
    // both writes of a put on the old shadow key to one shard (about one
    // key in four here), so the put went through.
    let router = store.engine().router();
    let mask = router.shard_count() as u64 - 1;
    let shard = |key: &str| hash_key(router.seed(), key) & mask;
    let victim = (0..)
        .map(|i| format!("victim{i}"))
        .find(|v| shard(v) == shard(&format!("{LEGACY_SHADOW_PREFIX}{v}")))
        .unwrap();
    store
        .put(&app("billing"), &victim, b"secret".to_vec(), meta("alice"))
        .unwrap();

    // Mallory stores, as data of their own, metadata whitelisting their
    // purpose under the victim's old shadow key...
    let forged = PersonalMetadata::new("mallory").with_purpose("marketing");
    let shadow = format!("{LEGACY_SHADOW_PREFIX}{victim}");
    store
        .put(&mallory, &shadow, forged.encode(), forged.clone())
        .unwrap();
    // ...and is refused the victim's value all the same.
    let refused = |store: &GdprStore| {
        let result = store.get(&mallory, &victim);
        assert!(
            matches!(result, Err(GdprError::PurposeViolation { .. })),
            "{result:?}"
        );
    };
    refused(&store);
    let stored = store.metadata(&app("billing"), &victim).unwrap().unwrap();
    assert_eq!(stored.subject, "alice");
    // Deleting the key strips nothing either.
    assert!(store.delete(&mallory, &shadow).unwrap());
    refused(&store);
    assert_eq!(
        store.get(&app("billing"), &victim).unwrap(),
        Some(b"secret".to_vec())
    );
    assert_eq!(store.keys_of_subject("alice").unwrap(), vec![victim]);
}

#[test]
fn a_current_journal_holding_a_key_named_like_a_shadow_reopens_untouched() {
    let dir = std::env::temp_dir().join(format!("gdpr-pipeline-shadowlike-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.aof");
    let open = || {
        let config = StoreConfig::with_aof(&path).shards(2);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            config,
            Box::new(MemorySink::new()),
        );
        let store = store.unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store.grant(Grant::new("mallory", "marketing")).unwrap();
        store
    };
    let forged = PersonalMetadata::new("mallory").with_purpose("marketing");
    let shadow = format!("{LEGACY_SHADOW_PREFIX}x");
    let epoch = {
        let store = open();
        store
            .put(&app("billing"), "x", b"v".to_vec(), meta("alice"))
            .unwrap();
        let mallory = AccessContext::new("mallory", "marketing");
        store
            .put(&mallory, &shadow, forged.encode(), forged.clone())
            .unwrap();
        store.engine().aof_epoch()
    };
    // The fold runs for journals older than governed entries only: this
    // one reopens as it was written.
    let store = open();
    assert_eq!(store.engine().aof_epoch(), epoch, "no rewrite on reopen");
    assert_eq!(store.len(), 2);
    let stored = store.metadata(&app("billing"), "x").unwrap().unwrap();
    assert_eq!(stored.subject, "alice");
    let mallory = AccessContext::new("mallory", "marketing");
    assert_eq!(store.get(&mallory, &shadow).unwrap(), Some(forged.encode()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_takes_a_value_and_its_metadata_together() {
    use gdpr_storage::kvstore::config::EvictionPolicy;

    const BUDGET: u64 = 16 * 1024;
    // Each put costs its entry ~250 B of the budget: 4x over it.
    const KEYS: usize = 4 * BUDGET as usize / 250;
    for policy in [EvictionPolicy::SampledRandom, EvictionPolicy::SampledLru] {
        let config = StoreConfig::in_memory()
            .aof_in_memory()
            .shards(2)
            .rng_seed(3)
            .max_memory(BUDGET)
            .eviction_policy(policy);
        let store = GdprStore::open(
            CompliancePolicy::eventual(),
            config,
            Box::new(MemorySink::new()),
        );
        let store = store.unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        let billing = app("billing");
        let key = |i: usize| format!("user:{i:04}");
        for i in 0..KEYS {
            store
                .put(&billing, &key(i), vec![b'x'; 100], meta("alice"))
                .unwrap();
        }
        let evicted = store.engine().stats().db.evicted_keys;
        assert!(evicted as usize > KEYS / 2, "{policy}: {evicted} evicted");

        let mut present = 0;
        for i in 0..KEYS {
            let value = store.get(&billing, &key(i));
            let value = value.unwrap_or_else(|e| panic!("{policy}, {}: {e}", key(i)));
            let meta = store.metadata(&billing, &key(i)).unwrap();
            assert_eq!(meta.is_some(), value.is_some(), "{policy}, {}", key(i));
            present += usize::from(value.is_some());
        }
        assert!(present > 0, "{policy}");
        assert_eq!(present, store.len(), "{policy}");
    }
}

/// How a [`FlakySink`] is failing right now.
const SINK_UP: u8 = 0;
const SINK_REFUSES_WRITES: u8 = 1;
const SINK_REFUSES_SYNCS: u8 = 2;
/// Takes six lines, refuses the seventh offered, and so on: every
/// hand-over of more than six lines stops part-way.
const SINK_REFUSES_EVERY_SEVENTH_WRITE: u8 = 3;

/// A `MemorySink` the test can take down.
#[derive(Debug)]
struct FlakySink {
    inner: MemorySink,
    state: std::sync::Arc<std::sync::atomic::AtomicU8>,
    /// Lines offered, refused ones included.
    offered: u64,
}

impl FlakySink {
    fn check(&self, failing: u8) -> gdpr_storage::audit::Result<()> {
        if self.state.load(std::sync::atomic::Ordering::SeqCst) == failing {
            return Err(AuditError::Io(std::io::Error::other("sink is down")));
        }
        Ok(())
    }
}

impl AuditSink for FlakySink {
    fn write_line(&mut self, line: &str) -> gdpr_storage::audit::Result<()> {
        self.check(SINK_REFUSES_WRITES)?;
        self.offered += 1;
        if self.offered.is_multiple_of(7) {
            self.check(SINK_REFUSES_EVERY_SEVENTH_WRITE)?;
        }
        self.inner.write_line(line)
    }

    fn sync(&mut self) -> gdpr_storage::audit::Result<()> {
        self.check(SINK_REFUSES_SYNCS)?;
        self.inner.sync()
    }

    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

#[test]
fn a_sink_outage_fails_no_strict_operation_and_loses_no_record() {
    for outage in [SINK_REFUSES_WRITES, SINK_REFUSES_SYNCS] {
        let inner = MemorySink::new();
        let view = inner.share();
        let state = std::sync::Arc::new(std::sync::atomic::AtomicU8::new(SINK_UP));
        let sink = FlakySink {
            inner,
            state: std::sync::Arc::clone(&state),
            offered: 0,
        };
        let clock = SimClock::new(1_000);
        let config = StoreConfig::in_memory()
            .aof_in_memory()
            .shards(2)
            .clock(clock.clone());
        let store = GdprStore::open(CompliancePolicy::strict(), config, Box::new(sink)).unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        let billing = app("billing");
        store
            .put(&billing, "k", b"value".to_vec(), meta("alice"))
            .unwrap();
        for key in ["e1", "e2"] {
            store
                .put(&billing, key, b"v".to_vec(), meta("carol"))
                .unwrap();
        }
        let short = meta("dave").with_ttl_millis(1_000);
        store.put(&billing, "t", b"v".to_vec(), short).unwrap();
        store.flush_audit().unwrap();
        let durable = view.lines().len();

        // The evidence commits in the journal: an allowed write, an
        // allowed read, a denial, a delete and an erasure request (both of
        // which scrub the journal, archiving first) and a retention
        // erasure answer as they would with the sink up.
        state.store(outage, std::sync::atomic::Ordering::SeqCst);
        store
            .put(&billing, "n", b"v".to_vec(), meta("bob"))
            .unwrap();
        assert_eq!(store.get(&billing, "k").unwrap(), Some(b"value".to_vec()));
        let denied = store.get(&stranger(), "k");
        assert!(
            matches!(denied, Err(GdprError::AccessDenied { .. })),
            "{denied:?}"
        );
        assert!(store.delete(&billing, "n").unwrap(), "outage {outage}");
        let erasure = store.right_to_erasure(&billing, "carol").unwrap();
        assert_eq!(erasure.erased_keys, ["e1", "e2"]);
        assert!(erasure.journal_records_scrubbed > 0);
        clock.advance_millis(2_000);
        store.tick().unwrap();
        for key in ["n", "e1", "e2", "t"] {
            assert!(
                store.get(&billing, key).unwrap().is_none(),
                "outage {outage}: {key}"
            );
        }
        // The archive cannot be made durable while the outage lasts.
        for _ in 0..2 {
            let flushed = store.flush_audit();
            assert!(
                matches!(flushed, Err(GdprError::Audit(AuditError::Io(_)))),
                "outage {outage}: {flushed:?}"
            );
        }

        // The sink recovers: the trail takes every record once, in order.
        state.store(SINK_UP, std::sync::atomic::Ordering::SeqCst);
        store.flush_audit().unwrap();
        let trail = view.lines();
        assert_eq!(trail.len() as u64, store.stats().audit_records);
        let parsed = parse_trail(&trail.join("\n")).unwrap();
        verify_trail(&parsed).unwrap();
        let records: Vec<(Operation, Outcome, Option<&str>)> = parsed[durable..]
            .iter()
            .map(|r| {
                (
                    r.record.operation,
                    r.record.outcome,
                    r.record.key.as_deref(),
                )
            })
            .collect();
        let (allowed, denied) = (Outcome::Allowed, Outcome::Denied);
        assert_eq!(
            records,
            [
                (Operation::Write, allowed, Some("n")),
                (Operation::Read, allowed, Some("k")),
                (Operation::Read, denied, Some("k")),
                // One per key the gets after the tick looked for.
                (Operation::Delete, allowed, Some("n")),
                (Operation::RightsRequest, allowed, None),
                (Operation::Delete, allowed, Some("t")),
                (Operation::Read, allowed, Some("n")),
                (Operation::Read, allowed, Some("e1")),
                (Operation::Read, allowed, Some("e2")),
                (Operation::Read, allowed, Some("t")),
            ],
            "outage {outage}"
        );
    }
}

/// A journal segment device the test can take down: an append or a sync
/// fails while it is.
#[derive(Debug)]
struct FlakyDevice {
    inner: MemoryDevice,
    down: std::sync::Arc<std::sync::atomic::AtomicBool>,
    /// Refuses only the whole-content replace of a rewrite.
    rewrite_down: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl FlakyDevice {
    fn check(&self) -> gdpr_storage::kvstore::Result<()> {
        if self.down.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(StoreError::Io(std::io::Error::other("journal is down")));
        }
        Ok(())
    }
}

impl StorageDevice for FlakyDevice {
    fn append(&mut self, data: &[u8]) -> gdpr_storage::kvstore::Result<()> {
        self.check()?;
        self.inner.append(data)
    }

    fn sync(&mut self) -> gdpr_storage::kvstore::Result<()> {
        self.check()?;
        self.inner.sync()
    }

    fn read_all(&mut self) -> gdpr_storage::kvstore::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn replace(&mut self, data: &[u8]) -> gdpr_storage::kvstore::Result<()> {
        self.check()?;
        if self.rewrite_down.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(StoreError::Io(std::io::Error::other("rewrite refused")));
        }
        self.inner.replace(data)
    }

    fn logical_len(&self) -> u64 {
        self.inner.logical_len()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[test]
fn a_strict_put_the_journal_refuses_changes_nothing() {
    let down = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let devices = std::sync::Arc::clone(&down);
    let config = StoreConfig::in_memory().shards(2).aof_devices(move |_| {
        Box::new(FlakyDevice {
            inner: MemoryDevice::new(),
            down: std::sync::Arc::clone(&devices),
            rewrite_down: std::sync::Arc::default(),
        })
    });
    let sink = MemorySink::new();
    let view = sink.share();
    let store = GdprStore::open(CompliancePolicy::strict(), config, Box::new(sink)).unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    let billing = app("billing");
    store
        .put(&billing, "k", b"value".to_vec(), meta("bob"))
        .unwrap();
    let stats = store.stats();

    // A fresh key and an overwrite, both refused by the journal.
    down.store(true, std::sync::atomic::Ordering::SeqCst);
    for (key, value) in [("n", b"new".to_vec()), ("k", b"overwrite".to_vec())] {
        let result = store.put(&billing, key, value, meta("bob"));
        assert!(
            matches!(result, Err(GdprError::Store(_))),
            "{key}: {result:?}"
        );
    }
    assert_eq!(store.stats(), stats, "nothing counted");
    // Nor does an access-control change take effect without its record.
    assert!(store.grant(Grant::new("stranger", "billing")).is_err());
    assert!(store.revoke("app", "billing").is_err());
    down.store(false, std::sync::atomic::Ordering::SeqCst);
    assert!(!store.has_grant("stranger", "billing"));
    assert!(store.has_grant("app", "billing"));

    assert_eq!(store.get(&billing, "n").unwrap(), None);
    assert_eq!(store.get(&billing, "k").unwrap(), Some(b"value".to_vec()));
    assert_eq!(store.keys_of_subject("bob").unwrap(), vec!["k"]);
    store.flush_audit().unwrap();
    let trail = parse_trail(&view.lines().join("\n")).unwrap();
    verify_trail(&trail).unwrap();
    let writes: Vec<&str> = trail
        .iter()
        .filter(|r| r.record.operation == Operation::Write)
        .filter_map(|r| r.record.key.as_deref())
        .collect();
    assert_eq!(writes, ["k"], "only the put that committed is in the trail");
    assert!(
        trail
            .iter()
            .filter(|r| r.record.operation == Operation::AccessControl)
            .all(|r| r.record.actor == "app"),
        "no record of the refused grant or revoke"
    );
}

#[test]
fn a_strict_erasure_whose_scrub_fails_is_recorded_and_counted() {
    let rewrite_down = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let devices = std::sync::Arc::clone(&rewrite_down);
    let config = StoreConfig::in_memory().shards(2).aof_devices(move |_| {
        Box::new(FlakyDevice {
            inner: MemoryDevice::new(),
            down: std::sync::Arc::default(),
            rewrite_down: std::sync::Arc::clone(&devices),
        })
    });
    let sink = MemorySink::new();
    let view = sink.share();
    let store = GdprStore::open(CompliancePolicy::strict(), config, Box::new(sink)).unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    let billing = app("billing");
    for (key, subject) in [("b", "bob"), ("c1", "carol"), ("c2", "carol")] {
        store
            .put(&billing, key, b"v".to_vec(), meta(subject))
            .unwrap();
    }
    let stats = store.stats();

    // The deletes commit; the scrub behind each fails and says so.
    rewrite_down.store(true, std::sync::atomic::Ordering::SeqCst);
    assert!(matches!(
        store.delete(&billing, "b"),
        Err(GdprError::Store(_))
    ));
    assert!(matches!(
        store.right_to_erasure(&billing, "carol"),
        Err(GdprError::Store(_))
    ));
    rewrite_down.store(false, std::sync::atomic::Ordering::SeqCst);
    for key in ["b", "c1", "c2"] {
        assert_eq!(store.get(&billing, key).unwrap(), None, "{key}");
    }
    let after = store.stats();
    assert_eq!(
        after.allowed_ops,
        stats.allowed_ops + 2 + 3,
        "two requests, three gets"
    );
    store.flush_audit().unwrap();
    let trail = parse_trail(&view.lines().join("\n")).unwrap();
    verify_trail(&trail).unwrap();
    assert_eq!(trail.len() as u64, store.stats().audit_records);
    let delete = trail
        .iter()
        .find(|r| r.record.operation == Operation::Delete)
        .expect("the delete is recorded");
    assert_eq!(delete.record.detail, "DEL (existed)");
    let erasure = trail
        .iter()
        .find(|r| r.record.operation == Operation::RightsRequest)
        .expect("the erasure request is recorded");
    assert!(
        erasure
            .record
            .detail
            .starts_with("art.17 erasure: 2 keys erased, then failed:"),
        "{}",
        erasure.record.detail
    );
}

/// A `MemorySink` that counts its syncs where the test can see them.
#[derive(Debug)]
struct CountingSink {
    inner: MemorySink,
    syncs: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl AuditSink for CountingSink {
    fn write_line(&mut self, line: &str) -> gdpr_storage::audit::Result<()> {
        self.inner.write_line(line)
    }

    fn sync(&mut self) -> gdpr_storage::audit::Result<()> {
        self.syncs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.sync()
    }

    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

#[test]
fn a_strict_operation_costs_at_most_one_journal_fsync_and_no_sink_sync() {
    use std::sync::atomic::Ordering::SeqCst;
    const OPS: u64 = 200;
    let dir = std::env::temp_dir().join(format!("gdpr-pipeline-fsyncs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let inner = MemorySink::new();
    let view = inner.share();
    let syncs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = CountingSink {
        inner,
        syncs: std::sync::Arc::clone(&syncs),
    };
    let config = StoreConfig::with_aof(dir.join("journal.aof")).shards(2);
    let store = GdprStore::open(CompliancePolicy::strict(), config, Box::new(sink)).unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    let billing = app("billing");
    let fsyncs = || store.aof_stats().unwrap().fsyncs;
    let before = fsyncs();
    for i in 0..OPS {
        let key = format!("user{i:03}");
        store
            .put(&billing, &key, vec![b'v'; 64], meta("alice"))
            .unwrap();
        assert!(store.get(&billing, &key).unwrap().is_some());
    }
    let spent = fsyncs() - before;
    assert!(
        spent <= 2 * OPS,
        "{spent} journal fsyncs for {} ops",
        2 * OPS
    );
    assert_eq!(syncs.load(SeqCst), 0, "no sink sync on a request path");

    store.flush_audit().unwrap();
    assert_eq!(syncs.load(SeqCst), 1, "one sync for the archive pass");
    let trail = view.lines();
    assert_eq!(trail.len() as u64, store.stats().audit_records);
    assert_eq!(trail.len() as u64, 1 + 2 * OPS);
    verify_trail(&parse_trail(&trail.join("\n")).unwrap()).unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_eventual_store_outlives_a_sink_outage_without_losing_or_repeating_a_line() {
    use std::sync::atomic::Ordering::SeqCst;
    let inner = MemorySink::new();
    let view = inner.share();
    let state = std::sync::Arc::new(std::sync::atomic::AtomicU8::new(SINK_UP));
    let sink = FlakySink {
        inner,
        state: std::sync::Arc::clone(&state),
        offered: 0,
    };
    let config = StoreConfig::in_memory().aof_in_memory().shards(2);
    let store = GdprStore::open(CompliancePolicy::eventual(), config, Box::new(sink)).unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    let billing = app("billing");
    store
        .put(&billing, "k", b"value".to_vec(), meta("alice"))
        .unwrap();
    store.tick().unwrap();
    let durable = view.lines().len();

    // The sink goes down for far more than the 64 KiB of lines the log
    // holds before it hands them over: emission stays infallible, every
    // hand-over inside it fails, the lines pile up in the log.
    state.store(SINK_REFUSES_WRITES, SeqCst);
    for i in 0..1_500 {
        let ctx = if i % 10 == 0 {
            stranger()
        } else {
            app("billing")
        };
        let denied = store.get(&ctx, "k").is_err();
        assert_eq!(denied, i % 10 == 0, "op {i}: only the stranger is refused");
    }
    for _ in 0..3 {
        let flushed = store.tick();
        assert!(
            matches!(flushed, Err(GdprError::Audit(AuditError::Io(_)))),
            "the flush reports the outage while it lasts: {flushed:?}"
        );
    }
    assert_eq!(view.lines().len(), durable, "nothing got through");

    // It comes back, badly: every hand-over stops at a refused line, which
    // must stay at the head of what the next one offers.
    state.store(SINK_REFUSES_EVERY_SEVENTH_WRITE, SeqCst);
    let mut stopped = 0;
    while store.tick().is_err() {
        stopped += 1;
        assert!(stopped < 1_000, "the flushes make no progress");
    }
    assert!(stopped > 100, "hand-overs stopped part-way: {stopped}");
    state.store(SINK_UP, SeqCst);
    store.get(&billing, "k").unwrap();
    store.tick().unwrap();

    // Every record once, in the order the log numbered them, chain whole.
    let trail = view.lines();
    assert_eq!(trail.len() as u64, store.stats().audit_records);
    assert_eq!(trail.len(), durable + 1_501);
    let parsed = parse_trail(&trail.join("\n")).unwrap();
    verify_trail(&parsed).unwrap();
    for (at, chained) in parsed.iter().enumerate() {
        assert_eq!(chained.record.sequence, at as u64, "line {at}");
    }
    let denied = parsed
        .iter()
        .filter(|r| r.record.outcome == Outcome::Denied)
        .count();
    assert_eq!(denied, 150);
}

#[test]
fn rewriting_a_key_under_a_new_subject_moves_its_posting() {
    // put k→alice, put k→bob, erase alice: bob's data must survive.
    let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    let ctx = app("billing");
    store
        .put(&ctx, "k", b"hers".to_vec(), meta("alice"))
        .unwrap();
    store.put(&ctx, "k", b"his".to_vec(), meta("bob")).unwrap();
    assert!(store.keys_of_subject("alice").unwrap().is_empty());
    let report = store.right_to_erasure(&ctx, "alice").unwrap();
    assert!(report.erased_keys.is_empty(), "{report:?}");
    assert_eq!(store.get(&ctx, "k").unwrap(), Some(b"his".to_vec()));
    assert_eq!(store.keys_of_subject("bob").unwrap(), vec!["k"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over a random mix of operations, contexts and metadata, every call
    /// that ran the pipeline to an end is counted exactly once as allowed
    /// or denied and leaves exactly one record, and the chain verifies.
    #[test]
    fn allowed_plus_denied_equals_operations_issued(
        ops in proptest::collection::vec(((0u8..12, 0u8..4), (0u8..3, 0u8..4)), 1..80),
    ) {
        let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store.grant(Grant::new("app", "marketing")).unwrap();
        let control_plane = store.stats().audit_records;
        let mut issued = 0u64;
        for ((op, key), (who, shape)) in ops {
            // Strings and records live in separate key spaces: a type
            // clash is an engine error, not a compliance outcome.
            let record_op = matches!(op, 2 | 3 | 6) || (op >= 7 && shape % 2 == 1);
            let key = format!("{}:{key}", if record_op { "rec" } else { "str" });
            let ctx = match who {
                0 => stranger(),
                1 => app("marketing"),
                _ => app("billing"),
            };
            let subject = format!("subject:{}", shape % 2);
            let stamp = match shape {
                0 | 1 => meta(&subject),
                2 => meta(&subject).with_location(Region::Us),
                _ => PersonalMetadata::new(&subject).with_purpose("analytics"),
            };
            let result = match op {
                0 | 1 => store.put(&ctx, &key, b"v".to_vec(), stamp),
                2 => store.put_record(&ctx, &key, &fields(), stamp),
                3 => store.update_record(&ctx, &key, &fields()),
                4 | 5 => store.get(&ctx, &key).map(drop),
                6 => store.get_record(&ctx, &key).map(drop),
                7 => store.set_metadata(&ctx, &key, stamp),
                8 => store.metadata(&ctx, &key).map(drop),
                9 => store.delete(&ctx, &key).map(drop),
                10 => store.scan(&ctx, "", 5).map(drop),
                _ => store.right_to_erasure(&ctx, &subject).map(drop),
            };
            match result {
                Ok(())
                | Err(
                    GdprError::AccessDenied { .. }
                    | GdprError::PurposeViolation { .. }
                    | GdprError::LocationViolation { .. },
                ) => issued += 1,
                // Neither allowed nor denied: the request itself was
                // malformed (no such key, no metadata to update under).
                Err(GdprError::NoSuchKey { .. } | GdprError::MissingMetadata { .. }) => {}
                Err(other) => panic!("unexpected failure: {other}"),
            }
        }
        let stats = store.stats();
        prop_assert_eq!(stats.allowed_ops + stats.denied_ops, issued);
        prop_assert_eq!(stats.audit_records, control_plane + issued);
        let trail = store.audit_trail().unwrap();
        prop_assert_eq!(trail.len() as u64, stats.audit_records);
        let parsed = parse_trail(&trail.join("\n")).unwrap();
        verify_trail(&parsed).unwrap();
        let denied = parsed.iter().filter(|r| r.record.outcome == Outcome::Denied).count();
        prop_assert_eq!(denied as u64, stats.denied_ops);
    }
}
