//! Breach notification (Articles 33 and 34): reconstruct, within the
//! 72-hour window, which personal data a compromised credential touched —
//! straight from the tamper-evident audit trail.
//!
//! Run with:
//!
//! ```text
//! cargo run --example breach_notification
//! ```

use std::error::Error;

use gdpr_storage::audit::reader::parse_trail;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::breach::{analyze_breach, BreachWindow};
use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};

fn main() -> Result<(), Box<dyn Error>> {
    let store = GdprStore::open_in_memory(CompliancePolicy::strict())?;

    // Normal operation: the billing service writes and reads customer data.
    store.grant(Grant::new("billing-service", "billing"))?;
    let billing = AccessContext::new("billing-service", "billing");
    for (i, subject) in ["alice", "bob", "carol", "dave"].iter().enumerate() {
        let metadata = PersonalMetadata::new(subject)
            .with_purpose("billing")
            .with_location(Region::Eu);
        store.put(
            &billing,
            &format!("user:{subject}:card"),
            vec![b'0' + i as u8; 16],
            metadata,
        )?;
    }

    // The incident: a compromised support credential reads several records
    // and probes others it has no grant for.
    let breach_started = store.now_ms();
    store.grant(Grant::new("support-tool", "billing"))?;
    let compromised = AccessContext::new("support-tool", "billing");
    store.get(&compromised, "user:alice:card")?;
    store.get(&compromised, "user:bob:card")?;
    let marketing_probe = AccessContext::new("support-tool", "marketing");
    let _ = store.get(&marketing_probe, "user:carol:card"); // denied, but recorded
    let breach_ended = store.now_ms();

    // Incident response: pull the trail, verify its integrity, and build
    // the Article 33 report for the suspicion window.
    let trail_text = store.audit_trail().unwrap_or_default().join("\n");
    let trail = parse_trail(&trail_text)?;
    let window = BreachWindow {
        from_ms: breach_started,
        until_ms: breach_ended,
        suspected_actor: Some("support-tool".to_string()),
    };
    let report = analyze_breach(&trail, &window, store.now_ms())?;

    println!("breach analysis over {} audit records:", trail.len());
    println!("  trail integrity verified: {}", report.trail_verified);
    println!("  affected data subjects:   {:?}", report.affected_subjects);
    println!("  affected records:         {:?}", report.affected_keys);
    println!(
        "  reads / writes / deletes: {} / {} / {}",
        report.reads, report.writes, report.deletes
    );
    println!("  denied access attempts:   {}", report.denied_accesses);
    println!(
        "  time left to notify the supervisory authority: {:.1} hours",
        report.time_remaining_ms(store.now_ms()).unwrap_or(0) as f64 / 3_600_000.0
    );

    println!("\nArticle 33 notification payload:\n{}", report.to_json());
    Ok(())
}
