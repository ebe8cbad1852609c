//! Quickstart: store personal data under the strict GDPR policy, exercise
//! the compliance checks, and print the Table 1-style self-assessment.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::error::Error;
use std::time::Duration;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::compliance::assess;
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Open a store enforcing the strict end of the compliance spectrum:
    //    every feature on, every GDPR task it enforces performed in real
    //    time. Its encryption is at rest only, so it is not strict in the
    //    paper's sense.
    let store = GdprStore::open_in_memory(CompliancePolicy::strict())?;
    println!(
        "opened store with policy {:?} (strict: {})",
        store.policy().name,
        assess(store.policy()).strict
    );

    // 2. Access is closed by default (Article 25). Grant the web frontend
    //    the right to process data for account management.
    store.grant(Grant::new("web-frontend", "account-management"))?;
    let ctx = AccessContext::new("web-frontend", "account-management");

    // 3. Personal data always carries metadata: whose it is, why it may be
    //    processed, how long it may be kept and where it lives.
    let metadata = PersonalMetadata::new("alice")
        .with_purpose("account-management")
        .with_recipient("email-delivery-provider")
        .with_ttl_millis(Duration::from_secs(30 * 24 * 3600).as_millis() as u64)
        .with_location(Region::Eu);
    store.put(
        &ctx,
        "user:alice:email",
        b"alice@example.com".to_vec(),
        metadata,
    )?;
    println!("stored user:alice:email with a 30-day retention period");

    // 4. Reads are checked against the purpose whitelist and audited.
    let value = store.get(&ctx, "user:alice:email")?;
    println!(
        "read back: {:?}",
        value.map(|v| String::from_utf8_lossy(&v).into_owned())
    );

    // 5. A different purpose is refused — purpose limitation (Article 5).
    store.grant(Grant::new("ad-service", "marketing"))?;
    let marketing = AccessContext::new("ad-service", "marketing");
    match store.get(&marketing, "user:alice:email") {
        Err(e) => println!("marketing read refused as expected: {e}"),
        Ok(_) => println!("unexpected: marketing read allowed"),
    }

    // 6. The right to be forgotten (Article 17) erases everything about the
    //    subject, including journal tombstones under the strict policy.
    let report = store.right_to_erasure(&ctx, "alice")?;
    println!(
        "erasure: {} keys removed, {} journal records scrubbed, real-time: {}",
        report.erased_keys.len(),
        report.journal_records_scrubbed,
        store.policy().scrub_aof_on_erasure
    );

    // 7. Everything that happened above is evidence (Article 30).
    let trail = store.audit_trail().unwrap_or_default();
    println!(
        "audit trail holds {} records; chain tip {}",
        trail.len(),
        store.audit_chain_tip()
    );

    // 8. Print the compliance self-assessment (the paper's Table 1).
    println!("\n{}", assess(store.policy()).render_table());
    Ok(())
}
