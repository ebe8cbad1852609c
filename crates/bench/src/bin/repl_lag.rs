//! Replication propagation-window benchmark: how long does a write — and,
//! GDPR-critically, an **erasure** — take to reach a replica?
//!
//! The paper's compliance obligations are obligations per *copy*; a
//! deployment serving reads from replicas is only compliant within the
//! window this benchmark measures. A real TCP primary streams its journal
//! to in-process replica runners; per cell (replica shard count sweep) we
//! record:
//!
//! * full-sync time (snapshot transfer + restore + index rebuild);
//! * write propagation: per burst of writes, the time from the last
//!   acknowledged write on the primary until the replica's applied
//!   sequence reaches the primary watermark (p50/p99 over bursts);
//! * erasure propagation: the time from `GDPR.ERASE` returning on the
//!   primary until every erased key, metadata and all, is gone on the
//!   replica.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin repl_lag \
//!     [records=N] [bursts=N] [burst=N] [shards=N] [maxreplshards=N]
//! ```
//!
//! Emits a human table and writes `BENCH_repl_lag.json` (`host_cores`
//! recorded — on a single-core container primary, feeder and replica
//! timeshare one CPU, so windows are upper bounds).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::arg_value;
use gdpr_core::acl::Grant;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::GdprStore;
use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::replication;
use gdpr_server::tcp::{ServerConfig, TcpServer};
use kvstore::config::StoreConfig;
use resp::command::GdprRequest;

const ACTOR: &str = "repl-bench";
const PURPOSE: &str = "benchmarking";

struct Cell {
    replica_shards: usize,
    full_sync_ms: f64,
    write_p50_ms: f64,
    write_p99_ms: f64,
    erase_ms: f64,
    records_streamed: u64,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn wait_for(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) -> Duration {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
    start.elapsed()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = arg_value(&args, "records").unwrap_or(5_000);
    let bursts = arg_value(&args, "bursts").unwrap_or(20);
    let burst = arg_value(&args, "burst").unwrap_or(100);
    let shards = arg_value(&args, "shards").unwrap_or(4) as usize;
    let max_repl_shards = arg_value(&args, "maxreplshards").unwrap_or(8);
    let cores = bench::host_cores();
    let deadline = Duration::from_secs(120);

    println!(
        "repl_lag — erasure/write propagation over a live stream, \
         records={records}, bursts={bursts}x{burst}, primary_shards={shards}, cores={cores}"
    );
    if cores == 1 {
        println!("  note: single-core host — all windows include timesharing overhead");
    }

    let mut cells = Vec::new();
    let mut replica_shards = 1usize;
    while replica_shards as u64 <= max_repl_shards.max(1) {
        // Fresh primary per cell.
        let store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory().aof_in_memory().shards(shards),
                Box::new(audit::sink::NullSink::new()),
            )
            .expect("open primary"),
        );
        store.grant(Grant::new(ACTOR, PURPOSE));
        let server = TcpServer::bind(
            Dispatcher::gdpr(Arc::clone(&store)),
            "127.0.0.1:0",
            ServerConfig {
                poll_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .expect("bind primary");
        let mut client = TcpRemoteClient::connect(server.local_addr()).expect("connect");
        client.auth(ACTOR, PURPOSE).expect("auth");

        // Preload the keyspace the full sync must carry.
        for i in 0..records {
            client
                .gdpr(&GdprRequest::Put {
                    key: format!("user:preload:{i:06}"),
                    subject: "preload".to_string(),
                    purposes: vec![PURPOSE.to_string()],
                    value: vec![0xab; 64],
                    ttl_ms: None,
                })
                .expect("preload put");
        }

        // Attach the replica and time the full sync.
        let replica_store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory()
                    .aof_in_memory()
                    .shards(replica_shards),
                Box::new(audit::sink::NullSink::new()),
            )
            .expect("open replica"),
        );
        let replica = Dispatcher::gdpr(Arc::clone(&replica_store));
        let handle = replication::start_replica(replica.clone(), &server.local_addr().to_string());
        let primary_engine = server.dispatcher().raw_engine();
        let full_sync = wait_for("full sync", deadline, || {
            let info = replica.replication().info();
            info.connected && info.lag_records == 0 && info.applied_seq > 0
        });

        // Write bursts: ack on the primary, then clock the replica catch-up.
        let mut burst_ms: Vec<f64> = Vec::with_capacity(bursts as usize);
        for b in 0..bursts {
            for i in 0..burst {
                client
                    .gdpr(&GdprRequest::Put {
                        key: format!("user:burst:{b:03}:{i:04}"),
                        subject: format!("burst{b:03}"),
                        purposes: vec![PURPOSE.to_string()],
                        value: vec![0xcd; 64],
                        ttl_ms: None,
                    })
                    .expect("burst put");
            }
            let target = primary_engine.replication_snapshot().map(|(_, wm)| wm);
            let target_seq = target.map_or(0, |wm| wm.last_seq);
            let elapsed = wait_for("burst propagation", deadline, || {
                replica.replication().info().applied_seq >= target_seq
            });
            burst_ms.push(elapsed.as_secs_f64() * 1e3);
        }

        // The erasure propagation window.
        let erased_subject = "burst000";
        let erase_start = Instant::now();
        let erased = client.erase_subject(erased_subject).expect("erase");
        assert_eq!(erased, burst, "every key of the subject erased");
        wait_for("erasure propagation", deadline, || {
            replica_store
                .keys_of_subject(erased_subject)
                .map(|keys| keys.is_empty())
                .unwrap_or(false)
                && replica
                    .raw_engine()
                    .get("user:burst:000:0000")
                    .map(|v| v.is_none())
                    .unwrap_or(false)
        });
        // The compliance window: ERASE issued on the primary → last copy
        // (entry with its metadata, index posting) gone on the replica.
        let erase_ms = erase_start.elapsed().as_secs_f64() * 1e3;

        burst_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let info = replica.replication().info();
        let cell = Cell {
            replica_shards,
            full_sync_ms: full_sync.as_secs_f64() * 1e3,
            write_p50_ms: percentile(&burst_ms, 0.50),
            write_p99_ms: percentile(&burst_ms, 0.99),
            erase_ms,
            records_streamed: info.records_applied,
        };
        println!(
            "  replica_shards={:<2}  full_sync {:>8.1} ms   write p50 {:>7.2} ms  p99 {:>7.2} ms   \
             erase {:>7.2} ms   applied {}",
            cell.replica_shards,
            cell.full_sync_ms,
            cell.write_p50_ms,
            cell.write_p99_ms,
            cell.erase_ms,
            cell.records_streamed,
        );
        handle.stop();
        server.shutdown();
        cells.push(cell);
        replica_shards *= 2;
    }

    let json = render_json(records, bursts, burst, shards, &cells);
    std::fs::write("BENCH_repl_lag.json", &json).expect("write BENCH_repl_lag.json");
    println!("\nwrote BENCH_repl_lag.json ({} cells)", cells.len());
}

fn render_json(records: u64, bursts: u64, burst: u64, shards: usize, cells: &[Cell]) -> String {
    let mut out = bench::json_envelope("repl_lag");
    out.push_str("  \"transport\": \"tcp-loopback\",\n");
    out.push_str("  \"policy\": \"eventual\",\n");
    out.push_str(&format!("  \"preload_records\": {records},\n"));
    out.push_str(&format!("  \"bursts\": {bursts},\n"));
    out.push_str(&format!("  \"burst_size\": {burst},\n"));
    out.push_str(&format!("  \"primary_shards\": {shards},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"replica_shards\": {}, \"full_sync_ms\": {:.2}, \"write_p50_ms\": {:.3}, \
             \"write_p99_ms\": {:.3}, \"erase_propagation_ms\": {:.3}, \"records_applied\": {}}}{}\n",
            cell.replica_shards,
            cell.full_sync_ms,
            cell.write_p50_ms,
            cell.write_p99_ms,
            cell.erase_ms,
            cell.records_streamed,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
