//! Connection-scaling sweep: how many *live* client connections can one
//! `gdpr-server` hold, and what does each one cost? The sweep opens N
//! mostly-idle connections (timing connect-to-first-response for each),
//! reads the server's resident-set growth per connection, then drives a
//! hot pipelined subset for throughput and latency — on both the reactor
//! and the thread-per-connection transport.
//!
//! The server runs as a subprocess so its RSS is measured in isolation
//! (and so 10k descriptors on each side fit under one process's limit).
//! Build it first:
//!
//! ```text
//! cargo build --release -p gdpr-server
//! cargo run -p bench --release --bin conn_scaling \
//!     [conns=100,1000,10000] [threadscap=1000] [hot=32] [hotops=4096] \
//!     [latops=256] [transports=reactor,threads] [workers=0]
//! ```
//!
//! `workers` is handed to the server as its `workers=` flag: the reactor's
//! event-loop threads (0 = the server's default, `min(cores, shards)`).
//! `threadscap` bounds the thread-per-connection sweep (10k OS threads on
//! a small host is an eviction, not a measurement). Emits a human table
//! and writes `BENCH_conn_scaling.json`; `host_cores` is recorded — on a
//! single-core container the hot-subset numbers show parity, not
//! parallel speedup, and the RSS-per-connection axis is the headline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use resp::encode::encode_frame;
use resp::Frame;

const PING: &[u8] = b"*1\r\n$4\r\nPING\r\n";
const PONG: &[u8] = b"+PONG\r\n";
const OK: &[u8] = b"+OK\r\n";
const BATCH: usize = 16;

struct Cell {
    transport: &'static str,
    connections: usize,
    accept_p50_micros: u64,
    accept_p99_micros: u64,
    rss_base_bytes: u64,
    rss_per_conn_bytes: u64,
    hot_ops_per_sec: f64,
    hot_p50_micros: u64,
    hot_p99_micros: u64,
    errors: u64,
}

fn arg_str<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(&format!("{key}=")))
}

fn arg_list(args: &[String], key: &str, default: &[usize]) -> Vec<usize> {
    arg_str(args, key)
        .map(|v| v.split(',').filter_map(|n| n.parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The server binary sits next to this bench binary in `target/release`;
/// `GDPR_SERVER_BIN` overrides the path.
fn server_binary() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("GDPR_SERVER_BIN") {
        return path.into();
    }
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name("gdpr-server");
    if !path.exists() {
        panic!(
            "server binary not found at {} — run `cargo build --release -p gdpr-server` first \
             (or set GDPR_SERVER_BIN)",
            path.display()
        );
    }
    path
}

/// Spawn a raw-engine server and return (child, addr) once it reports the
/// port it bound. A drain thread keeps consuming the child's stdout so it
/// never blocks on a full pipe.
fn spawn_server(transport: &str, maxconns: usize, workers: usize) -> (Child, String) {
    let mut child = Command::new(server_binary())
        .args([
            "addr=127.0.0.1:0",
            "compliance=0",
            "fsync=none",
            "aof=none",
            "readtimeout=600",
            &format!("transport={transport}"),
            &format!("maxconns={maxconns}"),
            &format!("workers={workers}"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gdpr-server");
    let stdout = child.stdout.take().expect("child stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            if let Some(rest) = line.split("listening on ").nth(1) {
                if let Some(addr) = rest.split(" (").next() {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
            line.clear();
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server did not report its address");
    (child, addr)
}

/// Resident set of the server process, in bytes (`VmRSS` from procfs).
fn resident_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .and_then(|l| l.trim().parse::<u64>().ok())
        .expect("VmRSS line")
        * 1024
}

fn roundtrip(stream: &mut TcpStream, request: &[u8], reply_len: usize) -> std::io::Result<()> {
    stream.write_all(request)?;
    let mut reply = vec![0u8; reply_len];
    stream.read_exact(&mut reply)
}

fn run_cell(
    transport: &'static str,
    n: usize,
    workers: usize,
    hot: usize,
    hotops: usize,
    latops: usize,
) -> Cell {
    // Thread-per-connection needs headroom above the sweep point; the
    // reactor cell runs with the cap off, its shipping default.
    let maxconns = if transport == "reactor" { 0 } else { n + 64 };
    let (mut child, addr) = spawn_server(transport, maxconns, workers);
    std::thread::sleep(Duration::from_millis(100));
    let rss_base = resident_bytes(child.id());

    // Idle phase: open N connections, timing connect-to-first-response
    // (one PING each), then hold them all open.
    let mut errors = 0u64;
    let mut sockets = Vec::with_capacity(n);
    let mut accept_micros = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        if roundtrip(&mut stream, PING, PONG.len()).is_err() {
            errors += 1;
            continue;
        }
        accept_micros.push(started.elapsed().as_micros() as u64);
        sockets.push(stream);
    }
    std::thread::sleep(Duration::from_millis(200));
    let rss_idle = resident_bytes(child.id());
    let rss_per_conn = rss_idle.saturating_sub(rss_base) / sockets.len().max(1) as u64;
    accept_micros.sort_unstable();

    // Hot phase: a pipelined subset hammers SETs while the rest stay
    // idle. Single-op roundtrips sample latency; full batches of
    // `BATCH` measure throughput.
    let hot = hot.min(sockets.len());
    let started = Instant::now();
    let mut total_ops = 0u64;
    let mut hot_micros = Vec::new();
    let workers: Vec<_> = sockets
        .drain(..hot)
        .enumerate()
        .map(|(t, mut stream)| {
            std::thread::spawn(move || {
                let set = encode_frame(&Frame::command(["SET", &format!("hot:{t}"), "v"]));
                let batch: Vec<u8> = set.repeat(BATCH);
                let mut micros = Vec::with_capacity(latops);
                let mut ops = 0u64;
                let mut errors = 0u64;
                for _ in 0..latops {
                    let begun = Instant::now();
                    match roundtrip(&mut stream, &set, OK.len()) {
                        Ok(()) => {
                            ops += 1;
                            micros.push(begun.elapsed().as_micros() as u64);
                        }
                        Err(_) => errors += 1,
                    }
                }
                for _ in 0..hotops / BATCH {
                    match roundtrip(&mut stream, &batch, OK.len() * BATCH) {
                        Ok(()) => ops += BATCH as u64,
                        Err(_) => errors += 1,
                    }
                }
                (micros, ops, errors, stream)
            })
        })
        .collect();
    for worker in workers {
        let (micros, ops, errs, stream) = worker.join().expect("hot worker");
        hot_micros.extend(micros);
        total_ops += ops;
        errors += errs;
        sockets.push(stream); // keep it open until the cell ends
    }
    let hot_secs = started.elapsed().as_secs_f64();
    hot_micros.sort_unstable();

    drop(sockets);
    let mut control = TcpStream::connect(&addr).expect("connect control");
    let _ = roundtrip(&mut control, b"*1\r\n$8\r\nSHUTDOWN\r\n", OK.len());
    drop(control);
    child.wait().expect("server exit");

    Cell {
        transport,
        connections: n,
        accept_p50_micros: percentile(&accept_micros, 0.50),
        accept_p99_micros: percentile(&accept_micros, 0.99),
        rss_base_bytes: rss_base,
        rss_per_conn_bytes: rss_per_conn,
        hot_ops_per_sec: total_ops as f64 / hot_secs.max(f64::EPSILON),
        hot_p50_micros: percentile(&hot_micros, 0.50),
        hot_p99_micros: percentile(&hot_micros, 0.99),
        errors,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let conns = arg_list(&args, "conns", &[100, 1_000, 10_000]);
    let threads_cap = arg_list(&args, "threadscap", &[1_000])[0];
    let hot = arg_list(&args, "hot", &[32])[0];
    let hotops = arg_list(&args, "hotops", &[4_096])[0];
    let latops = arg_list(&args, "latops", &[256])[0];
    let workers = arg_list(&args, "workers", &[0])[0];
    let transports: Vec<&'static str> = arg_str(&args, "transports")
        .unwrap_or("reactor,threads")
        .split(',')
        .filter_map(|t| match t {
            "reactor" => Some("reactor"),
            "threads" => Some("threads"),
            other => {
                eprintln!("  ignoring unknown transport {other:?}");
                None
            }
        })
        .collect();

    // The bench side holds N client sockets too.
    let _ = polling::raise_nofile_limit(65_536);
    let cores = bench::host_cores();
    println!(
        "conn_scaling — idle-heavy connection sweep, conns={conns:?} (threads transport capped \
         at {threads_cap}), hot={hot}, hotops={hotops}, workers={workers}, cores={cores}"
    );

    let mut cells = Vec::new();
    for transport in &transports {
        for &n in &conns {
            if *transport == "threads" && n > threads_cap {
                println!("  threads   conns={n:>6}  skipped (threadscap={threads_cap})");
                continue;
            }
            let cell = run_cell(transport, n, workers, hot, hotops, latops);
            println!(
                "  {:<8}  conns={:>6}  accept p50/p99 {:>5}/{:>6} µs   rss/conn {:>7} B   \
                 hot {:>8.0} ops/s   p99 {:>5} µs   errors {}",
                cell.transport,
                cell.connections,
                cell.accept_p50_micros,
                cell.accept_p99_micros,
                cell.rss_per_conn_bytes,
                cell.hot_ops_per_sec,
                cell.hot_p99_micros,
                cell.errors,
            );
            cells.push(cell);
        }
    }

    // Headline ratio: reactor vs threads residency per connection at the
    // largest point both transports ran.
    let pairs: Vec<(u64, u64, usize)> = cells
        .iter()
        .filter(|c| c.transport == "reactor")
        .filter_map(|r| {
            cells
                .iter()
                .find(|t| t.transport == "threads" && t.connections == r.connections)
                .map(|t| (r.rss_per_conn_bytes, t.rss_per_conn_bytes, r.connections))
        })
        .collect();
    if let Some((reactor_rss, threads_rss, at)) = pairs.iter().max_by_key(|p| p.2) {
        println!(
            "\n  rss/conn at {at} connections: reactor {reactor_rss} B vs threads {threads_rss} B \
             ({:.1}x)",
            *threads_rss as f64 / (*reactor_rss).max(1) as f64
        );
    }

    let json = render_json(hot, hotops, workers, &cells);
    std::fs::write("BENCH_conn_scaling.json", &json).expect("write BENCH_conn_scaling.json");
    println!("wrote BENCH_conn_scaling.json ({} cells)", cells.len());
}

fn render_json(hot: usize, hotops: usize, workers: usize, cells: &[Cell]) -> String {
    let mut out = bench::json_envelope("conn_scaling");
    out.push_str("  \"transport\": \"tcp-loopback\",\n");
    out.push_str("  \"policy\": \"none\",\n");
    out.push_str(&format!("  \"hot_connections\": {hot},\n"));
    out.push_str(&format!("  \"hot_ops_per_connection\": {hotops},\n"));
    out.push_str(&format!("  \"server_workers\": {workers},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"transport\": \"{}\", \"connections\": {}, \
             \"accept_to_first_response_p50_micros\": {}, \
             \"accept_to_first_response_p99_micros\": {}, \
             \"rss_base_bytes\": {}, \"rss_per_connection_bytes\": {}, \
             \"hot_ops_per_sec\": {:.1}, \"hot_p50_micros\": {}, \"hot_p99_micros\": {}, \
             \"errors\": {}}}{}\n",
            cell.transport,
            cell.connections,
            cell.accept_p50_micros,
            cell.accept_p99_micros,
            cell.rss_base_bytes,
            cell.rss_per_conn_bytes,
            cell.hot_ops_per_sec,
            cell.hot_p50_micros,
            cell.hot_p99_micros,
            cell.errors,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
