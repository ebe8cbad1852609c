//! Figure 1: YCSB throughput of the compliance configurations.
//!
//! The paper runs the load phases of workloads A and E plus the run phases
//! of A–F against three Redis configurations (unmodified, AOF with
//! synchronous fsync carrying the monitoring log, LUKS + TLS encryption)
//! and reports throughput. [`run_figure1`] reproduces the sweep over this
//! repository's equivalents and adds the full GDPR layer ("strict") as a
//! fifth column. Every column is a `TcpServer` on loopback (the `server`
//! module) driven through one [`WireAdapter`] (the `client` module);
//! `luks+tls` reaches its server through the sealed
//! [`Tunnel`](crate::tunnel::Tunnel), in the place of the paper's Stunnel
//! proxies.

use std::path::Path;

use ycsb::client::Driver;
use ycsb::stats::RunReport;
use ycsb::workload::WorkloadSpec;

use crate::adapters::WireAdapter;
use crate::client::connect;
use crate::server::serve;

/// The YCSB phases of Figure 1, in the paper's order.
pub const FIGURE1_PHASES: &[&str] = &["Load-A", "A", "B", "C", "D", "Load-E", "E", "F"];

/// The configurations compared in Figure 1 (plus the full GDPR layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig1Config {
    /// Stock engine, no persistence, plaintext network — the baseline.
    Unmodified,
    /// Monitoring piggybacked on the AOF, fsync once per second (the
    /// paper's relaxed §4.1 point).
    AofEverySec,
    /// Monitoring piggybacked on the AOF, fsync on every operation (the
    /// paper's strict §4.1 point).
    AofSync,
    /// Encryption at rest (LUKS stand-in) and in transit (the sealed
    /// tunnel), no monitoring (the paper's §4.2 configuration).
    LuksTls,
    /// The complete GDPR compliance layer in its strict configuration.
    StrictGdpr,
}

impl Fig1Config {
    /// All configurations, in presentation order.
    #[must_use]
    pub fn all() -> Vec<Fig1Config> {
        vec![
            Fig1Config::Unmodified,
            Fig1Config::AofEverySec,
            Fig1Config::AofSync,
            Fig1Config::LuksTls,
            Fig1Config::StrictGdpr,
        ]
    }

    /// Column label used in the report.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Fig1Config::Unmodified => "unmodified",
            Fig1Config::AofEverySec => "aof-everysec",
            Fig1Config::AofSync => "aof-sync",
            Fig1Config::LuksTls => "luks+tls",
            Fig1Config::StrictGdpr => "strict-gdpr",
        }
    }
}

/// Parameters of a Figure 1 run.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Params {
    /// Records loaded per workload.
    pub record_count: u64,
    /// Operations per transaction phase.
    pub operation_count: u64,
    /// Seed shared by every configuration so they see the same request
    /// stream.
    pub seed: u64,
}

impl Default for Fig1Params {
    fn default() -> Self {
        Fig1Params {
            record_count: 5_000,
            operation_count: 10_000,
            seed: 42,
        }
    }
}

/// One cell of the Figure 1 table.
#[derive(Debug, Clone)]
pub struct Fig1Cell {
    /// Configuration the cell belongs to.
    pub config: Fig1Config,
    /// Phase label ("Load-A", "A", …).
    pub phase: String,
    /// Measured throughput in operations per second.
    pub throughput: f64,
    /// Full phase report (latencies, errors).
    pub report: RunReport,
}

/// Serve `config` from `dir`, run `phases` against it over the wire, then
/// hang up and stop the server.
fn on_column(config: Fig1Config, dir: &Path, phases: impl FnOnce(&mut WireAdapter)) {
    let server = serve(config, dir);
    let mut adapter = connect(config, server.local_addr());
    phases(&mut adapter);
    drop(adapter);
    server.shutdown();
}

/// Run one configuration through all Figure 1 phases.
///
/// The phase sequence mirrors YCSB practice (and the paper): load the A
/// dataset, run A–D against it, then reload for E and run E and F.
#[must_use]
pub fn run_config(config: Fig1Config, dir: &Path, params: &Fig1Params) -> Vec<Fig1Cell> {
    let mut cells = Vec::new();
    let mut record = |phase: &str, report: RunReport| {
        cells.push(Fig1Cell {
            config,
            phase: phase.to_string(),
            throughput: report.throughput(),
            report,
        });
    };

    // Load-A then workloads A, B, C, D on the same dataset.
    on_column(config, dir, |adapter| {
        let mut driver = Driver::new(
            WorkloadSpec::workload_a(params.record_count, params.operation_count),
            params.seed,
        );
        record("Load-A", driver.run_load(adapter).expect("load A"));
        for name in ["A", "B", "C", "D"] {
            let mut driver = Driver::new(
                WorkloadSpec::by_name(name, params.record_count, params.operation_count),
                params.seed,
            );
            record(name, driver.run_transactions(adapter).expect("run phase"));
        }
    });

    // A fresh server (fresh dataset) for Load-E, E, then F.
    let dir_e = dir.join("phase-e");
    std::fs::create_dir_all(&dir_e).expect("create phase-e dir");
    on_column(config, &dir_e, |adapter| {
        let mut driver = Driver::new(
            WorkloadSpec::workload_e(params.record_count, params.operation_count),
            params.seed,
        );
        record("Load-E", driver.run_load(adapter).expect("load E"));
        record("E", driver.run_transactions(adapter).expect("run E"));
        let mut driver = Driver::new(
            WorkloadSpec::workload_f(params.record_count, params.operation_count),
            params.seed,
        );
        record("F", driver.run_transactions(adapter).expect("run F"));
    });

    cells
}

/// Run the full Figure 1 sweep.
#[must_use]
pub fn run_figure1(configs: &[Fig1Config], dir: &Path, params: &Fig1Params) -> Vec<Fig1Cell> {
    let mut all = Vec::new();
    for config in configs {
        let config_dir = dir.join(config.label());
        std::fs::create_dir_all(&config_dir).expect("create config dir");
        all.extend(run_config(*config, &config_dir, params));
    }
    all
}

/// Render the Figure 1 table: one row per phase, one column per
/// configuration, each cell showing ops/s and the fraction of the baseline.
#[must_use]
pub fn render_table(cells: &[Fig1Cell]) -> String {
    let configs: Vec<Fig1Config> = {
        let mut seen = Vec::new();
        for cell in cells {
            if !seen.contains(&cell.config) {
                seen.push(cell.config);
            }
        }
        seen
    };
    let mut out = String::new();
    out.push_str(&format!("{:<8}", "phase"));
    for config in &configs {
        out.push_str(&format!(" | {:>24}", config.label()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(8 + configs.len() * 27));
    out.push('\n');

    for phase in FIGURE1_PHASES {
        let baseline = cells
            .iter()
            .find(|c| c.phase == *phase && c.config == Fig1Config::Unmodified)
            .map(|c| c.throughput);
        out.push_str(&format!("{phase:<8}"));
        for config in &configs {
            match cells
                .iter()
                .find(|c| c.phase == *phase && c.config == *config)
            {
                Some(cell) => {
                    let relative = baseline
                        .filter(|b| *b > 0.0)
                        .map(|b| cell.throughput / b)
                        .unwrap_or(1.0);
                    out.push_str(&format!(
                        " | {:>12.0} ops/s {:>4.0}%",
                        cell.throughput,
                        relative * 100.0
                    ));
                }
                None => out.push_str(&format!(" | {:>24}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_figure1_run_produces_all_phases_and_sane_ordering() {
        let dir = crate::scratch_dir("fig1-test");
        let params = Fig1Params {
            record_count: 200,
            operation_count: 300,
            seed: 1,
        };
        let configs = Fig1Config::all();
        let cells = run_figure1(&configs, &dir, &params);
        assert_eq!(cells.len(), FIGURE1_PHASES.len() * configs.len());
        // Every phase present for every config, each op answered.
        for phase in FIGURE1_PHASES {
            for config in &configs {
                let cell = cells
                    .iter()
                    .find(|c| c.phase == *phase && c.config == *config)
                    .unwrap();
                assert!(cell.throughput > 0.0, "{phase} {}", config.label());
                assert_eq!(cell.report.errors, 0, "{phase} {}", config.label());
            }
        }
        // Synchronous fsync must not be faster than the baseline on the
        // write-heavy load phase.
        let base = cells
            .iter()
            .find(|c| c.phase == "Load-A" && c.config == Fig1Config::Unmodified)
            .unwrap();
        let sync = cells
            .iter()
            .find(|c| c.phase == "Load-A" && c.config == Fig1Config::AofSync)
            .unwrap();
        assert!(
            sync.throughput <= base.throughput * 1.5,
            "sync {} vs base {}",
            sync.throughput,
            base.throughput
        );
        let table = render_table(&cells);
        assert!(table.contains("Load-A"));
        for config in &configs {
            assert!(table.contains(config.label()));
        }
        crate::cleanup_scratch(&dir);
    }
}
