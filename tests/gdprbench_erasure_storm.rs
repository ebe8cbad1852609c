//! Erasure-storm regression (satellite of the GDPRbench suite).
//!
//! A regulator-triggered mass-erasure sweep (`GDPR.ERASE` per subject, the
//! Art. 17 storm) races concurrent processor reads. Two invariants:
//!
//! * **no resurrection**: once a subject's erasure has *returned*, no
//!   subsequent purpose-checked read may serve that subject's data;
//! * **no orphans**: after the storm, every subject-to-keys index posting
//!   is gone and the keyspace (values *and* their metadata) is
//!   empty — an erased subject must not leave index litter behind.
//!
//! Two variants: erasures issued in-process, and erasures issued over live
//! TCP against the same store the readers hit in-process (the cross-layer
//! case where a stale dispatcher-side cache or buffer could resurrect
//! data).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::gdpr_server::client::TcpRemoteClient;
use gdpr_storage::gdpr_server::dispatch::Dispatcher;
use gdpr_storage::gdpr_server::tcp::{ServerConfig, TcpServer};
use gdpr_storage::gdprbench::ops::{key_name, subject_name};
use gdpr_storage::gdprbench::spec::{LOAD_ACTOR, LOAD_PURPOSE};
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::Frame;

const SUBJECTS: u64 = 32;
const KEYS_PER_SUBJECT: u64 = 8;
const READERS: usize = 3;

fn storm_store() -> Arc<GdprStore> {
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        StoreConfig::in_memory().aof_in_memory().shards(4),
        Box::new(gdpr_storage::audit::sink::NullSink::new()),
    )
    .expect("store opens");
    store.grant(Grant::new(LOAD_ACTOR, LOAD_PURPOSE));
    store.grant(Grant::new("processor", "processing"));
    store.grant(Grant::new("regulator", "audit"));
    let loader = AccessContext::new(LOAD_ACTOR, LOAD_PURPOSE);
    for s in 0..SUBJECTS {
        for k in 0..KEYS_PER_SUBJECT {
            let mut meta = PersonalMetadata::new(&subject_name(s));
            meta.purposes.insert(LOAD_PURPOSE.to_string());
            // Every record is processor-readable, so a post-erasure hit
            // cannot hide behind a purpose denial.
            meta.purposes.insert("processing".to_string());
            store
                .put(&loader, &key_name(s, k), b"storm-payload".to_vec(), meta)
                .expect("load put");
        }
    }
    Arc::new(store)
}

/// Run `erase` (which must only flip each subject's flag *after* that
/// subject's erasure call returned) while reader threads hammer
/// purpose-checked gets, then assert both invariants.
fn run_storm(store: &Arc<GdprStore>, erase: impl FnOnce(&[AtomicBool]) + Send) {
    let erased: Vec<AtomicBool> = (0..SUBJECTS).map(|_| AtomicBool::new(false)).collect();
    let done = AtomicBool::new(false);
    let violations = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..READERS {
            let store = Arc::clone(store);
            let erased = &erased;
            let done = &done;
            readers.push(scope.spawn(move || {
                let ctx = AccessContext::new("processor", "processing");
                let mut violations = 0u64;
                let mut i = r as u64;
                while !done.load(Ordering::Acquire) {
                    let s = i % SUBJECTS;
                    let k = (i / SUBJECTS) % KEYS_PER_SUBJECT;
                    // Order matters: sample the flag *before* the read. If
                    // the flag was already set and the read still returns
                    // data, the store served erased data.
                    let was_erased = erased[s as usize].load(Ordering::Acquire);
                    let got = store.get(&ctx, &key_name(s, k));
                    if was_erased {
                        if let Ok(Some(_)) = got {
                            violations += 1;
                        }
                    }
                    i += 1;
                }
                violations
            }));
        }
        erase(&erased);
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .sum::<u64>()
    });
    assert_eq!(violations, 0, "processor reads served erased data");

    // No orphans: every index posting gone, keyspace (values and their
    // metadata) completely empty.
    for s in 0..SUBJECTS {
        let keys = store
            .keys_of_subject(&subject_name(s))
            .expect("keysof scans");
        assert!(
            keys.is_empty(),
            "subject {s} still has index postings: {keys:?}"
        );
    }
    assert_eq!(store.len(), 0, "values remain after the storm");
    let leftovers = store.engine().keys("*").expect("keyspace scan");
    assert!(
        leftovers.is_empty(),
        "raw keyspace still holds {} entries (orphan metadata?): {:?}",
        leftovers.len(),
        &leftovers[..leftovers.len().min(8)]
    );
}

#[test]
fn in_process_erasure_storm_never_serves_erased_data_and_leaves_no_orphans() {
    let store = storm_store();
    let eraser = Arc::clone(&store);
    run_storm(&store, move |erased| {
        let ctx = AccessContext::new("regulator", "audit");
        for s in 0..SUBJECTS {
            eraser
                .right_to_erasure(&ctx, &subject_name(s))
                .expect("erasure completes");
            erased[s as usize].store(true, Ordering::Release);
        }
    });
}

#[test]
fn tcp_erasure_storm_never_serves_erased_data_and_leaves_no_orphans() {
    let store = storm_store();
    let handle = TcpServer::bind(
        Dispatcher::gdpr(Arc::clone(&store)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("tcp server binds");
    let addr = handle.local_addr();
    run_storm(&store, move |erased| {
        let mut client = TcpRemoteClient::connect(addr).expect("eraser connects");
        client.auth("regulator", "audit").expect("eraser auth");
        for s in 0..SUBJECTS {
            let reply = client
                .gdpr(&GdprRequest::Erase {
                    subject: subject_name(s),
                })
                .expect("erase roundtrip");
            assert!(
                matches!(reply, Frame::Integer(_)),
                "unexpected ERASE reply {reply:?}"
            );
            erased[s as usize].store(true, Ordering::Release);
        }
    });
    handle.shutdown();
}
