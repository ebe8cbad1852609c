//! Every `CompliancePolicy` field changes what the store does.
//!
//! One row per field: flip it on one preset and assert one observable
//! change: a denial, a trail record count, where the evidence goes, a
//! journal fsync count, plaintext on disk, journal records scrubbed, keys
//! left after an expiry cycle, or index against scan. The policy is
//! destructured with no `..`, so a new field does not compile until it
//! gets a row here.

use gdpr_storage::audit::policy::FlushPolicy;
use gdpr_storage::audit::sink::MemorySink;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::location::LocationPolicy;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::kvstore::aof::FsyncPolicy;
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::commands::Command;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::expire::ExpiryMode;

fn billing() -> AccessContext {
    AccessContext::new("app", "billing")
}

fn meta(subject: &str) -> PersonalMetadata {
    PersonalMetadata::new(subject)
        .with_purpose("billing")
        .with_location(Region::Eu)
}

/// A store over `config` and a sink the row can read, with `app` granted
/// `billing` and `marketing`.
fn open(policy: CompliancePolicy, config: StoreConfig) -> (GdprStore, MemorySink) {
    let sink = MemorySink::new();
    let view = sink.share();
    let store = GdprStore::open(policy, config, Box::new(sink)).unwrap();
    for purpose in ["billing", "marketing"] {
        store.grant(Grant::new("app", purpose)).unwrap();
    }
    (store, view)
}

fn in_memory(policy: CompliancePolicy) -> (GdprStore, MemorySink) {
    open(policy, StoreConfig::in_memory().aof_in_memory().shards(2))
}

/// What `observe` sees under `preset` and under `preset` with `flip`.
fn both<T>(
    preset: CompliancePolicy,
    flip: impl FnOnce(&mut CompliancePolicy),
    observe: impl Fn(CompliancePolicy) -> T,
) -> (T, T) {
    let mut flipped = preset.clone();
    flip(&mut flipped);
    assert_ne!(flipped, preset, "the row flips nothing");
    (observe(preset), observe(flipped))
}

fn monitor_all_operations() {
    // Trail records for a grant pair, a put and a get.
    let records = both(
        CompliancePolicy::eventual(),
        |p| p.monitor_all_operations = false,
        |policy| {
            let (store, _) = in_memory(policy);
            store
                .put(&billing(), "k", b"v".to_vec(), meta("alice"))
                .unwrap();
            store.get(&billing(), "k").unwrap();
            store.flush_audit().unwrap();
            store.stats().audit_records
        },
    );
    assert_eq!(records, (4, 0), "monitor_all_operations");
}

fn audit_flush() {
    // (journal records a get appends, sink lines after a tick): a
    // real-time policy commits the evidence in the journal and archives it
    // later; an eventual one hands it to the sink.
    let placement = both(
        CompliancePolicy::strict(),
        |p| p.audit_flush = FlushPolicy::every_second(),
        |policy| {
            let (store, sink) = in_memory(policy);
            store
                .put(&billing(), "k", b"v".to_vec(), meta("alice"))
                .unwrap();
            let appended = || store.aof_stats().unwrap().records_appended;
            let before = appended();
            store.get(&billing(), "k").unwrap();
            let journaled = appended() - before;
            store.tick().unwrap();
            (journaled, sink.lines().len())
        },
    );
    assert_eq!(placement, ((1, 0), (0, 4)), "audit_flush");
}

fn expiry_mode() {
    // Keys left after one expiry cycle, of 2 000 with a retention period
    // where 20 have lapsed: the strict sweep erases every lapsed key, the
    // sampled cycle (20 keys a pass) at most a few.
    let left = both(
        CompliancePolicy::eventual(),
        |p| p.expiry_mode = ExpiryMode::LazyProbabilistic,
        |policy| {
            let clock = SimClock::new(1_000_000);
            let config = StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone());
            let (store, _) = open(policy, config);
            for i in 0..2_000 {
                let ttl = if i % 100 == 0 { 1_000 } else { 3_600_000 };
                let meta = meta("alice").with_ttl_millis(ttl);
                store
                    .put(&billing(), &format!("k{i}"), b"v".to_vec(), meta)
                    .unwrap();
            }
            clock.advance_millis(2_000);
            // Lapsed keys are invisible to reads under either mode.
            assert_eq!(store.get(&billing(), "k0").unwrap(), None);
            store.tick().unwrap();
            store.engine().len()
        },
    );
    assert_eq!(left.0, 1_980, "expiry_mode: strict sweep");
    assert!(
        left.1 > 1_980,
        "expiry_mode: the sampled cycle left {}",
        left.1
    );
}

fn scrub_aof_on_erasure() {
    // Journal records an erasure scrubs.
    let scrubbed = both(
        CompliancePolicy::strict(),
        |p| p.scrub_aof_on_erasure = false,
        |policy| {
            let (store, _) = in_memory(policy);
            store
                .put(&billing(), "k", b"v".to_vec(), meta("alice"))
                .unwrap();
            store
                .put(&billing(), "k", b"w".to_vec(), meta("alice"))
                .unwrap();
            let report = store.right_to_erasure(&billing(), "alice").unwrap();
            (
                report.journal_records_scrubbed > 0,
                report.completed_in_real_time,
            )
        },
    );
    assert_eq!(
        scrubbed,
        ((true, true), (false, false)),
        "scrub_aof_on_erasure"
    );
}

fn journal_fsync() {
    // Journal fsyncs for ten puts within one second of the clock.
    let fsyncs = both(
        CompliancePolicy::eventual(),
        |p| p.journal_fsync = FsyncPolicy::Always,
        |policy| {
            let config = StoreConfig::in_memory()
                .aof_in_memory()
                .clock(SimClock::new(1_000_000));
            let (store, _) = open(policy, config);
            let fsyncs = || store.aof_stats().unwrap().fsyncs;
            let before = fsyncs();
            for i in 0..10 {
                store
                    .put(&billing(), &format!("k{i}"), b"v".to_vec(), meta("alice"))
                    .unwrap();
            }
            fsyncs() - before
        },
    );
    assert_eq!(fsyncs, (0, 10), "journal_fsync");
}

fn encrypt_at_rest() {
    // Whether a stored value reads back from the journal files in plain.
    const CANARY: &[u8] = b"canary-5e1f-plaintext";
    let dir = std::env::temp_dir().join(format!("gdpr-policy-fields-{}", std::process::id()));
    let plaintext = both(
        CompliancePolicy::eventual(),
        |p| p.encrypt_at_rest = false,
        |policy| {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            {
                let (store, _) = open(policy, StoreConfig::with_aof(dir.join("j.aof")));
                store
                    .put(&billing(), "k", CANARY.to_vec(), meta("alice"))
                    .unwrap();
            }
            std::fs::read_dir(&dir).unwrap().any(|file| {
                let bytes = std::fs::read(file.unwrap().path()).unwrap();
                bytes.windows(CANARY.len()).any(|w| w == CANARY)
            })
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(plaintext, (false, true), "encrypt_at_rest");
}

fn enforce_access_control() {
    // Whether an actor holding no grant may write.
    let denied = both(
        CompliancePolicy::strict(),
        |p| p.enforce_access_control = false,
        |policy| {
            let (store, _) = in_memory(policy);
            let stranger = AccessContext::new("stranger", "billing");
            store
                .put(&stranger, "k", b"v".to_vec(), meta("alice"))
                .is_err()
        },
    );
    assert_eq!(denied, (true, false), "enforce_access_control");
}

fn enforce_purpose_limitation() {
    // Whether a granted purpose the key does not whitelist may read it.
    let denied = both(
        CompliancePolicy::strict(),
        |p| p.enforce_purpose_limitation = false,
        |policy| {
            let (store, _) = in_memory(policy);
            store
                .put(&billing(), "k", b"v".to_vec(), meta("alice"))
                .unwrap();
            store
                .get(&AccessContext::new("app", "marketing"), "k")
                .is_err()
        },
    );
    assert_eq!(denied, (true, false), "enforce_purpose_limitation");
}

fn maintain_indexes() {
    // The index learns a key from the store's write path; the scan reads
    // the engine. A governed key written straight into the engine shows in
    // the subject's keys only when they come from a scan.
    let keys = both(
        CompliancePolicy::eventual(),
        |p| p.maintain_indexes = false,
        |policy| {
            let (store, _) = in_memory(policy);
            store
                .put(&billing(), "k", b"v".to_vec(), meta("alice"))
                .unwrap();
            store
                .engine()
                .execute(Command::SetGoverned {
                    key: "side".into(),
                    value: b"v".to_vec(),
                    governed: meta("alice").encode().into(),
                })
                .unwrap();
            store.keys_of_subject("alice").unwrap()
        },
    );
    assert_eq!(keys.0, ["k"], "maintain_indexes: the index");
    assert_eq!(keys.1, ["k", "side"], "maintain_indexes: the scan");
}

fn location_policy() {
    // Whether a key placed outside the EU may be written.
    let denied = both(
        CompliancePolicy::strict(),
        |p| p.location_policy = LocationPolicy::unrestricted(),
        |policy| {
            let (store, _) = in_memory(policy);
            let us = meta("alice").with_location(Region::Us);
            store.put(&billing(), "k", b"v".to_vec(), us).is_err()
        },
    );
    assert_eq!(denied, (true, false), "location_policy");
}

#[test]
fn every_policy_field_changes_what_the_store_does() {
    // No `..`: a field added to the policy needs a row before this builds.
    let CompliancePolicy {
        name: _,
        monitor_all_operations: _,
        audit_flush: _,
        expiry_mode: _,
        scrub_aof_on_erasure: _,
        journal_fsync: _,
        encrypt_at_rest: _,
        enforce_access_control: _,
        enforce_purpose_limitation: _,
        maintain_indexes: _,
        location_policy: _,
    } = CompliancePolicy::strict();
    let rows: [fn(); 10] = [
        monitor_all_operations,
        audit_flush,
        expiry_mode,
        scrub_aof_on_erasure,
        journal_fsync,
        encrypt_at_rest,
        enforce_access_control,
        enforce_purpose_limitation,
        maintain_indexes,
        location_policy,
    ];
    for row in rows {
        row();
    }
}
