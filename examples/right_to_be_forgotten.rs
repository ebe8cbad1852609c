//! The right to be forgotten (Article 17), end to end.
//!
//! This example mirrors the paper's §4.3 discussion: deleting a key is not
//! enough — the data also lingers in the append-only file until
//! compaction, and the erasure has to cover *every* key of the data
//! subject. It populates a store with several subjects, exports one
//! subject's data (Article 20), then erases them and shows what remains.
//!
//! Run with:
//!
//! ```text
//! cargo run --example right_to_be_forgotten
//! ```

use std::error::Error;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};

fn main() -> Result<(), Box<dyn Error>> {
    let store = GdprStore::open_in_memory(CompliancePolicy::strict())?;
    store.grant(Grant::new("crm", "customer-relationship"))?;
    let ctx = AccessContext::new("crm", "customer-relationship");

    // Populate three data subjects with a handful of keys each.
    for subject in ["alice", "bob", "carol"] {
        for attribute in ["email", "address", "phone", "preferences"] {
            let metadata = PersonalMetadata::new(subject)
                .with_purpose("customer-relationship")
                .with_location(Region::Eu);
            store.put(
                &ctx,
                &format!("user:{subject}:{attribute}"),
                format!("{attribute} of {subject}").into_bytes(),
                metadata,
            )?;
        }
    }
    println!("loaded {} keys for 3 data subjects", store.len());
    println!(
        "engine journal currently holds {} bytes\n",
        store.engine().aof_len()
    );

    // Article 20 first: hand bob a machine-readable copy of his data.
    let export = store.right_to_portability(&ctx, "bob")?;
    println!(
        "portability export for bob ({} bytes of JSON):\n{export}\n",
        export.len()
    );

    // Article 15: what does the store know about alice?
    let access = store.right_of_access(&ctx, "alice")?;
    println!(
        "access report for alice lists {} items:",
        access.items.len()
    );
    for item in &access.items {
        println!(
            "  {:<28} purposes={:?} expires={:?}",
            item.key,
            item.metadata.purposes.iter().collect::<Vec<_>>(),
            item.metadata.expires_at_ms
        );
    }

    // Article 17: erase alice. Under the strict policy the journal is
    // compacted synchronously so no tombstone of her data survives.
    let before = store.engine().aof_len();
    let report = store.right_to_erasure(&ctx, "alice")?;
    let after = store.engine().aof_len();
    println!(
        "\nerasure of alice: {} keys erased, {} journal records scrubbed, journal {} → {} bytes",
        report.erased_keys.len(),
        report.journal_records_scrubbed,
        before,
        after
    );

    // The other subjects are untouched, and alice is really gone.
    println!("remaining keys: {}", store.len());
    println!(
        "alice lookup now returns: {:?}",
        store.get(&ctx, "user:alice:email")?
    );
    println!(
        "bob lookup still returns:  {:?}",
        store
            .get(&ctx, "user:bob:email")?
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    );

    // And the whole episode is in the audit trail (Article 5(2): be able to
    // demonstrate compliance).
    let trail = store.audit_trail().unwrap_or_default();
    let erasure_records = trail.iter().filter(|l| l.contains("art.17")).count();
    println!(
        "\naudit trail holds {} records, {} of them about the erasure request",
        trail.len(),
        erasure_records
    );
    Ok(())
}
