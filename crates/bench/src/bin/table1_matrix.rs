//! Reproduces **Table 1** of the paper: the mapping from GDPR articles to
//! required storage features, combined with a self-assessment of how each
//! compliance policy preset supports them.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin table1_matrix
//! ```
//!
//! It takes no arguments: any argument is printed back and the process
//! exits with status 2.

use gdpr_core::compliance::assess;
use gdpr_core::policy::CompliancePolicy;

fn main() {
    let _ = bench::args_or_exit(&[]);
    println!("Table 1 reproduction — GDPR articles, storage features, and per-policy support\n");
    for policy in [
        CompliancePolicy::unmodified(),
        CompliancePolicy::eventual(),
        CompliancePolicy::strict(),
    ] {
        let assessment = assess(&policy);
        println!("{}", assessment.render_table());
        let gaps = assessment.gaps();
        println!("compliance gaps ({}):", gaps.len());
        for gap in gaps {
            println!("  Art. {:<6} {}", gap.article, gap.title);
        }
        println!();
        println!("{}\n", "=".repeat(100));
    }
}
