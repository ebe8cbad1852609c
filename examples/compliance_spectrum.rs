//! The compliance spectrum, measured: run the same small YCSB-style
//! workload under the unmodified baseline, eventual compliance and strict
//! compliance, and print the throughput cost of each step — a miniature of
//! the paper's Figure 1 that completes in seconds.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compliance_spectrum
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::compliance::assess;
use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RECORDS: usize = 2_000;
const OPERATIONS: usize = 10_000;

fn run_workload(store: &GdprStore) -> Result<f64, Box<dyn Error>> {
    store.grant(Grant::new("app", "service"))?;
    let ctx = AccessContext::new("app", "service");
    let mut rng = StdRng::seed_from_u64(7);

    // Load phase.
    let mut fields = BTreeMap::new();
    fields.insert("field0".to_string(), vec![b'x'; 100]);
    for i in 0..RECORDS {
        let meta = PersonalMetadata::new(&format!("subject-{i}")).with_purpose("service");
        store.put_record(&ctx, &format!("user{i:08}"), &fields, meta)?;
    }

    // Transaction phase: 50/50 reads and updates over a uniform keyspace.
    let started = Instant::now();
    for _ in 0..OPERATIONS {
        let key = format!("user{:08}", rng.gen_range(0..RECORDS));
        if rng.gen_bool(0.5) {
            store.get_record(&ctx, &key)?;
        } else {
            store.update_record(&ctx, &key, &fields)?;
        }
    }
    Ok(OPERATIONS as f64 / started.elapsed().as_secs_f64())
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("compliance spectrum — {RECORDS} records, {OPERATIONS} operations (50% reads / 50% updates)\n");
    let mut baseline = 0.0f64;
    for policy in [
        CompliancePolicy::unmodified(),
        CompliancePolicy::eventual(),
        CompliancePolicy::strict(),
    ] {
        let name = policy.name.clone();
        let assessment = assess(&policy);
        let store = GdprStore::open_in_memory(policy)?;
        let throughput = run_workload(&store)?;
        if baseline == 0.0 {
            baseline = throughput;
        }
        println!(
            "{:<12} {:>10.0} ops/s  ({:>5.1}% of baseline)   gaps: {:<2}  strict: {}",
            name,
            throughput,
            throughput / baseline * 100.0,
            assessment.gaps().len(),
            assessment.strict
        );
    }
    println!("\npaper reference: monitoring w/ sync fsync ≈5% of baseline; everysec ≈30%; encryption ≈30%");
    Ok(())
}
