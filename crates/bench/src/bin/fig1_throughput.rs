//! Reproduces **Figure 1** of the paper: YCSB throughput (Load-A, A, B, C,
//! D, Load-E, E, F) for the unmodified engine, the monitoring-on-AOF
//! configurations (everysec and sync), the LUKS+TLS encryption
//! configuration and the full strict GDPR layer.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin fig1_throughput [records=N] [ops=N] [seed=N]
//! ```
//!
//! Every column is a `TcpServer` with one event loop on loopback, driven
//! over a real socket; `luks+tls` goes through the sealed relay pair of
//! `bench::tunnel`. Any other argument, or a value that is not an
//! unsigned integer, is printed back and the process exits with status 2.

use bench::fig1::{render_table, run_figure1, Fig1Config, Fig1Params};
use bench::{arg_value, args_or_exit, cleanup_scratch, scratch_dir};

fn main() {
    let args = args_or_exit(&["records", "ops", "seed"]);
    let params = Fig1Params {
        record_count: arg_value(&args, "records").unwrap_or(5_000),
        operation_count: arg_value(&args, "ops").unwrap_or(10_000),
        seed: arg_value(&args, "seed").unwrap_or(42),
    };

    println!("Figure 1 reproduction — YCSB throughput under GDPR compliance configurations");
    println!(
        "records per workload: {}   operations per phase: {}   every column over loopback TCP\n",
        params.record_count, params.operation_count
    );

    let dir = scratch_dir("fig1");
    let configs = Fig1Config::all();
    let cells = run_figure1(&configs, &dir, &params);

    println!("{}", render_table(&cells));

    println!("per-phase details:");
    for cell in &cells {
        println!("  [{:>12}] {}", cell.config.label(), cell.report.summary());
    }

    // The paper's headline claims, checked against this run.
    let ratio = |phase: &str, config: Fig1Config| -> Option<f64> {
        let base = cells
            .iter()
            .find(|c| c.phase == phase && c.config == Fig1Config::Unmodified)?
            .throughput;
        let other = cells
            .iter()
            .find(|c| c.phase == phase && c.config == config)?
            .throughput;
        if base > 0.0 {
            Some(other / base)
        } else {
            None
        }
    };
    println!("\nheadline ratios (workload A, fraction of unmodified throughput):");
    for config in [
        Fig1Config::AofEverySec,
        Fig1Config::AofSync,
        Fig1Config::LuksTls,
        Fig1Config::StrictGdpr,
    ] {
        if let Some(r) = ratio("A", config) {
            println!(
                "  {:<14} {:>6.1}%   (paper: everysec ≈30%, sync ≈5%, luks+tls ≈30%)",
                config.label(),
                r * 100.0
            );
        }
    }

    cleanup_scratch(&dir);
}
