//! Cross-crate integration tests: the full stack (compliance layer, audit
//! trail, engine journal, encrypted device) working against real files,
//! including crash-recovery by replaying the append-only file.

use std::path::{Path, PathBuf};

use gdpr_storage::audit::reader::{parse_trail, verify_trail_segments, TrailQuery};
use gdpr_storage::audit::record::Operation;
use gdpr_storage::audit::sink::FileSink;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::compliance::assess;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::kvstore::config::StoreConfig;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdpr-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Concatenated raw bytes of the whole journal layout: the manifest plus
/// every per-shard segment file (`engine.aof.e<epoch>.s<idx>`).
fn journal_bytes(dir: &Path) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut files = 0;
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with("engine.aof")
        {
            raw.extend(std::fs::read(entry.path()).unwrap());
            files += 1;
        }
    }
    assert!(files >= 2, "expected a manifest plus at least one segment");
    raw
}

fn ctx() -> AccessContext {
    AccessContext::new("integration-app", "integration-testing")
}

fn metadata(subject: &str) -> PersonalMetadata {
    PersonalMetadata::new(subject)
        .with_purpose("integration-testing")
        .with_location(Region::Eu)
}

fn open_store(dir: &Path, policy: CompliancePolicy) -> GdprStore {
    let kv_config = StoreConfig::with_aof(dir.join("engine.aof"));
    let sink = FileSink::open(dir.join("audit.trail")).unwrap();
    let store = GdprStore::open(policy, kv_config, Box::new(sink)).unwrap();
    store
        .grant(Grant::new("integration-app", "integration-testing"))
        .unwrap();
    store
}

#[test]
fn full_lifecycle_with_file_persistence_and_recovery() {
    let dir = test_dir("lifecycle");

    // Phase 1: write data under the strict policy, then drop the store.
    {
        let store = open_store(&dir, CompliancePolicy::strict());
        for i in 0..50 {
            let subject = format!("subject-{}", i % 5);
            store
                .put(
                    &ctx(),
                    &format!("user:{i:03}"),
                    format!("value-{i}").into_bytes(),
                    metadata(&subject),
                )
                .unwrap();
        }
        store.delete(&ctx(), "user:007").unwrap();
        assert_eq!(store.len(), 49);
    }

    // Phase 2: reopen — the engine replays its (encrypted) AOF, the index
    // is rebuilt from the metadata in the replayed entries.
    {
        let store = open_store(&dir, CompliancePolicy::strict());
        assert_eq!(store.len(), 49, "state must survive a restart");
        assert_eq!(
            store.get(&ctx(), "user:001").unwrap(),
            Some(b"value-1".to_vec())
        );
        assert_eq!(
            store.get(&ctx(), "user:007").unwrap(),
            None,
            "deletes must survive too"
        );
        // Subject index rebuilt: each of the 5 subjects owns ~10 keys.
        let keys = store.keys_of_subject("subject-1").unwrap();
        assert!(!keys.is_empty());
        assert!(keys.iter().all(|k| store.get(&ctx(), k).unwrap().is_some()));
    }

    // Phase 3: the on-disk journal (manifest + every segment) must not
    // contain plaintext personal data (the strict policy encrypts at rest).
    let raw = journal_bytes(&dir);
    assert!(
        !raw.windows(7).any(|w| w == b"value-1"),
        "AOF must be encrypted at rest"
    );

    // Phase 4: the audit trail on disk parses, verifies (one hash chain per
    // process lifetime) and contains the whole history.
    let trail_text = std::fs::read_to_string(dir.join("audit.trail")).unwrap();
    let trail = parse_trail(&trail_text).unwrap();
    assert_eq!(
        verify_trail_segments(&trail).unwrap(),
        2,
        "two sessions appended to the trail"
    );
    let writes = TrailQuery::any().operation(Operation::Write).select(&trail);
    assert!(writes.len() >= 50);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn erasure_request_survives_restart_and_scrubs_the_journal() {
    let dir = test_dir("erasure");
    {
        let store = open_store(&dir, CompliancePolicy::strict());
        for subject in ["alice", "bob"] {
            for attr in ["email", "phone"] {
                store
                    .put(
                        &ctx(),
                        &format!("user:{subject}:{attr}"),
                        format!("{subject}-{attr}").into_bytes(),
                        metadata(subject),
                    )
                    .unwrap();
            }
        }
        let report = store.right_to_erasure(&ctx(), "alice").unwrap();
        assert_eq!(report.erased_keys.len(), 2);
        assert!(report.journal_records_scrubbed > 0);
    }
    // After restart alice stays gone and bob stays present.
    {
        let store = open_store(&dir, CompliancePolicy::strict());
        assert_eq!(store.get(&ctx(), "user:alice:email").unwrap(), None);
        assert_eq!(
            store.get(&ctx(), "user:bob:email").unwrap(),
            Some(b"bob-email".to_vec())
        );
        assert!(store.keys_of_subject("alice").unwrap().is_empty());
    }
    // No trace of alice's values in any journal segment (they were
    // scrubbed and the journal is encrypted anyway).
    let raw = journal_bytes(&dir);
    assert!(!raw.windows(11).any(|w| w == b"alice-email"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eventual_policy_defers_scrub_but_strict_does_not() {
    let dir = test_dir("spectrum");
    let strict = open_store(&test_dir("spectrum-strict"), CompliancePolicy::strict());
    let eventual = open_store(&dir, CompliancePolicy::eventual());
    for store in [&strict, &eventual] {
        store
            .put(
                &ctx(),
                "user:x:email",
                b"x@example.com".to_vec(),
                metadata("x"),
            )
            .unwrap();
    }
    assert!(strict.policy().scrub_aof_on_erasure);
    assert!(!eventual.policy().scrub_aof_on_erasure);
    let scrubbed = |store: &GdprStore| {
        store
            .right_to_erasure(&ctx(), "x")
            .unwrap()
            .journal_records_scrubbed
    };
    assert!(scrubbed(&strict) > 0);
    assert_eq!(scrubbed(&eventual), 0);
}

#[test]
fn compliance_assessment_matches_policy_capabilities() {
    // The unmodified baseline has gaps for every article. Eventual and
    // strict leave only the articles that need encryption in transit,
    // which no socket provides.
    assert_eq!(assess(&CompliancePolicy::unmodified()).gaps().len(), 13);
    for policy in [CompliancePolicy::eventual(), CompliancePolicy::strict()] {
        let gaps: Vec<&str> = assess(&policy).gaps().iter().map(|m| m.article).collect();
        assert_eq!(gaps, ["5.2", "13", "25", "32"], "{}", policy.name);
    }
}

#[test]
fn denied_operations_leave_evidence_in_the_trail() {
    let dir = test_dir("denied");
    let store = open_store(&dir, CompliancePolicy::strict());
    store
        .put(
            &ctx(),
            "user:eve:email",
            b"eve@example.com".to_vec(),
            metadata("eve"),
        )
        .unwrap();

    // An actor with no grant is refused and the refusal is audited.
    let rogue = AccessContext::new("rogue-service", "exfiltration");
    assert!(store.get(&rogue, "user:eve:email").is_err());

    // The file trail is the archive of the journal's evidence: flush it
    // before reading the file.
    store.flush_audit().unwrap();
    let trail_text = std::fs::read_to_string(dir.join("audit.trail")).unwrap();
    let trail = parse_trail(&trail_text).unwrap();
    let denied = TrailQuery::any()
        .outcome(gdpr_storage::audit::record::Outcome::Denied)
        .select(&trail);
    assert_eq!(denied.len(), 1);
    assert_eq!(denied[0].actor, "rogue-service");
    let _ = std::fs::remove_dir_all(&dir);
}
