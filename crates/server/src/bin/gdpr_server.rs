//! The `gdpr-server` binary: a real RESP-over-TCP server over the
//! reproduction's storage engine, with the compliance layer optional.
//!
//! Usage (all arguments optional, `key=value` form):
//!
//! ```text
//! gdpr-server [addr=127.0.0.1:6379] [shards=1] [fsync=everysec]
//!             [compliance=1] [transport=reactor|threads] [workers=0]
//!             [maxconns=0|N] [readtimeout=secs] [aof=mem|none|<path>]
//!             [audit=<path>]
//!             [replicaof=host:port] [backlog=records]
//!             [grant=actor:purpose[,actor:purpose...]] [duration=secs]
//!             [metrics=host:port] [slowlog=micros] [slowlogmax=N]
//!             [maxmemory=bytes] [evict=noeviction|lru|random] [hotcache=1]
//! ```
//!
//! * `compliance` — 0 = raw engine (plain Redis surface only), 1 =
//!   eventual policy, 2 = strict policy. The strict policy commits each
//!   operation's evidence in the journal, so it runs on a journal synced on
//!   every commit that a crash leaves on disk: with `compliance=2`, `fsync`
//!   defaults to `always`, and `fsync=everysec`, `fsync=none`, `aof=none`
//!   and `aof=mem` (so also a missing `aof=`) are refused (exit 2).
//! * `transport` — `reactor` (default): the event-driven connection layer
//!   (symmetric epoll event loops that run each request to completion),
//!   or `threads`: one OS thread per connection.
//! * `workers` — reactor event-loop threads (0 = `min(cores, shards)`);
//!   each serves its share of the connections from read to reply.
//! * `maxconns` — connection cap; over-limit clients receive a final
//!   `-ERR max connections reached` frame. Defaults to unlimited (0) on
//!   the reactor and 1024 on the threads transport.
//! * `readtimeout` — idle timeout in seconds, measured from the last
//!   *complete* request frame (default 30).
//! * `fsync` — `always`, `everysec` or `none` (journal fsync policy;
//!   default `everysec`, and `always` under `compliance=2`).
//!   Under `fsync=always` each journal segment's group committer lets
//!   concurrent connections share fsyncs instead of re-serializing on one
//!   journal writer; with one writer it is one fsync per record.
//! * `aof` — `mem` (default: in-memory journal), `none`, or a file path
//!   (the path becomes the segment-set manifest; segments live next to
//!   it as `<path>.e<epoch>.s<shard>`); `compliance=2` needs a path. A
//!   journal that cannot be opened
//!   (a damaged manifest, one older than version 3) is refused: the
//!   server prints `gdpr-server: cannot open journal <path>: <error>`,
//!   touches no file and exits with status 1.
//! * `audit` — where the compliance engine keeps its hash-chained audit
//!   trail: a file (created if absent; a trail already there is resumed,
//!   and each start begins a new chain in it). The default is
//!   `<aof>.audit` beside a file journal, and an in-memory trail with
//!   `aof=mem` or `aof=none` under `compliance=1` (it grows with every
//!   operation served).
//!   Under `compliance=1` the trail's last lines reach the file at `TICK`,
//!   when buffers fill, and at `SHUTDOWN`; under `compliance=2` each
//!   operation's evidence is in the journal first and the file is its
//!   archive, written at a journal rewrite and at `SHUTDOWN`. A journal
//!   that is refused leaves no trail file behind. Ignored with
//!   `compliance=0`.
//! * `replicaof` — follow a primary at `host:port`: full-sync on connect,
//!   then apply its journal stream; writes to this server are rejected
//!   with a redirect error. Replication lag is in `INFO`/`GDPR.STATS`.
//! * `backlog` — records the primary retains in memory for replica
//!   tailing (a replica lagging further full-resyncs; default 65536).
//! * `grant` — access grants to install at startup, e.g.
//!   `grant=ycsb:benchmarking` (grants can also be installed over the wire
//!   with `GDPR.GRANT`). On a replica, grants stay node-local: install
//!   them on each replica its readers authenticate against.
//! * `duration` — auto-shutdown after N seconds (0 = run until a client
//!   sends `SHUTDOWN` or the process is signalled).
//! * `metrics` — serve Prometheus text exposition at
//!   `http://host:port/metrics` from a tiny accept thread (off unless
//!   given; `metrics=127.0.0.1:0` picks a free port and prints it).
//! * `slowlog` — slow-request threshold in microseconds (default 10000;
//!   0 logs every request, negative disables). Query over the wire with
//!   `SLOWLOG GET|LEN|RESET`.
//! * `slowlogmax` — retained slowlog entries (default 128).
//! * `maxmemory` — keyspace memory ceiling in bytes, split evenly across
//!   shards (0 = unlimited, the default). Over the ceiling the behaviour
//!   is `evict`'s choice; evictions are journaled as deletes, so replicas
//!   and crash replay converge byte-for-byte.
//! * `evict` — over-`maxmemory` policy: `noeviction` (default; growth
//!   commands get Redis' `-OOM` reply), `lru` (sampled least-recently
//!   accessed) or `random` (sampled random).
//! * `hotcache` — 1 (default) enables the compliance layer's TinyLFU
//!   hot-read cache, 0 disables it. Ignored with `compliance=0` (the raw engine
//!   has no compliance slow path to cache around).
//!
//! An argument that is not one of the keys above, or whose value does not
//! parse, is printed back and the process exits with status 2: on a
//! compliance server a typo (`fsync=alway`, `shard=8`) must not silently
//! run with a weaker configuration than the operator asked for.
//!
//! The server exits cleanly when a client sends `SHUTDOWN`: in-flight
//! requests are answered, every connection thread is joined, and the final
//! request counters are printed.

use std::sync::Arc;
use std::time::Duration;

use audit::sink::{AuditSink, FileSink, MemorySink};
use gdpr_core::acl::Grant;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::GdprStore;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, Transport};
use kvstore::aof::FsyncPolicy;
use kvstore::config::StoreConfig;
use kvstore::store::KvStore;

/// Every `key=value` argument the binary understands.
const KNOWN_FLAGS: &[&str] = &[
    "addr",
    "shards",
    "fsync",
    "compliance",
    "transport",
    "workers",
    "maxconns",
    "readtimeout",
    "aof",
    "audit",
    "replicaof",
    "backlog",
    "grant",
    "duration",
    "metrics",
    "slowlog",
    "slowlogmax",
    "maxmemory",
    "evict",
    "hotcache",
];

/// Refuse to start: print the offending `key=value` and exit 2.
fn reject(arg: &str, why: &str) -> ! {
    eprintln!("gdpr-server: bad argument {arg:?}: {why}");
    std::process::exit(2);
}

/// Refuse to serve a journal the engine cannot open (damaged, or from an
/// older format): print why and exit 1. The engine has touched no file.
fn cannot_open(journal: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("gdpr-server: cannot open journal {journal}: {error}");
    std::process::exit(1);
}

fn arg_str<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(&format!("{key}=")))
}

/// The value of `key` run through `parse`; a value it refuses is fatal.
fn arg_with<T>(
    args: &[String],
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
    want: &str,
) -> Option<T> {
    arg_str(args, key).map(|value| {
        parse(value).unwrap_or_else(|| reject(&format!("{key}={value}"), &format!("want {want}")))
    })
}

fn arg_u64(args: &[String], key: &str) -> Option<u64> {
    arg_with(args, key, |v| v.parse().ok(), "an unsigned integer")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        let known = arg
            .split_once('=')
            .is_some_and(|(key, _)| KNOWN_FLAGS.contains(&key));
        if !known {
            reject(
                arg,
                "unknown flag (see the usage at the top of gdpr_server.rs)",
            );
        }
    }
    let addr = arg_str(&args, "addr")
        .unwrap_or("127.0.0.1:6379")
        .to_string();
    let shards = arg_u64(&args, "shards").unwrap_or(1) as usize;
    let parse_level = |v: &str| v.parse().ok().filter(|level: &u64| *level <= 2);
    let compliance = arg_with(&args, "compliance", parse_level, "0|1|2").unwrap_or(1);
    let transport =
        arg_with(&args, "transport", Transport::parse, "reactor|threads").unwrap_or_default();
    // The reactor holds a connection for the cost of one descriptor, so
    // its default is uncapped; thread-per-connection defaults to 1024.
    let max_connections = arg_u64(&args, "maxconns").unwrap_or(match transport {
        Transport::Reactor => 0,
        Transport::Threads => 1024,
    }) as usize;
    let duration_secs = arg_u64(&args, "duration").unwrap_or(0);
    // "10k connections" dies at the distro-default 1024 descriptors
    // without this; best effort (the hard limit caps it). Raised for both
    // transports so `maxconns` is an honest knob on either.
    let _ = polling::raise_nofile_limit(65536);

    let parse_fsync = |label: &str| match label {
        "always" => Some(FsyncPolicy::Always),
        "everysec" => Some(FsyncPolicy::EverySec),
        "none" | "never" | "no" => Some(FsyncPolicy::Never),
        _ => None,
    };
    let strict = compliance == 2;
    let fsync =
        arg_with(&args, "fsync", parse_fsync, "always|everysec|none").unwrap_or(if strict {
            FsyncPolicy::Always
        } else {
            FsyncPolicy::EverySec
        });
    // Strict evidence is durable when the journal is: refuse to weaken it.
    let strict_needs = "compliance=2 commits evidence in the journal; want fsync=always";
    if strict && fsync != FsyncPolicy::Always {
        reject(
            &format!("fsync={}", arg_str(&args, "fsync").unwrap_or("")),
            strict_needs,
        );
    }

    let max_memory = arg_u64(&args, "maxmemory").unwrap_or(0);
    let evict = arg_with(
        &args,
        "evict",
        kvstore::config::EvictionPolicy::parse,
        "noeviction|lru|random",
    )
    .unwrap_or_default();
    let mut config = StoreConfig::in_memory()
        .shards(shards)
        .fsync(fsync)
        .max_memory(max_memory)
        .eviction_policy(evict);
    if let Some(records) = arg_u64(&args, "backlog") {
        config = config.repl_backlog(records);
    }
    let journal = arg_str(&args, "aof").unwrap_or("mem");
    if strict && matches!(journal, "mem" | "none") {
        reject(
            &format!("aof={journal}"),
            "compliance=2 commits evidence in the journal; want aof=<path>",
        );
    }
    match journal {
        "mem" => config = config.aof_in_memory(),
        "none" => {}
        path => config.persistence = kvstore::config::Persistence::AofFile(path.into()),
    }
    if max_memory > 0 {
        println!("gdpr-server: maxmemory {max_memory} bytes, eviction policy {evict}");
    }

    let dispatcher = if compliance == 0 {
        let store = KvStore::open(config).unwrap_or_else(|e| cannot_open(journal, e));
        println!("gdpr-server: raw engine, {shards} shard(s), fsync {fsync:?}");
        Dispatcher::kv(store)
    } else {
        let policy = if strict {
            CompliancePolicy::strict()
        } else {
            CompliancePolicy {
                journal_fsync: fsync,
                ..CompliancePolicy::eventual()
            }
        };
        println!(
            "gdpr-server: compliance policy '{}', {shards} shard(s), fsync {fsync:?}",
            policy.name
        );
        let trail = arg_str(&args, "audit")
            .map(str::to_string)
            .or_else(|| (!matches!(journal, "mem" | "none")).then(|| format!("{journal}.audit")));
        // Whether opening the trail creates it: checked before it does.
        let created = trail
            .clone()
            .filter(|path| !std::path::Path::new(path).exists());
        let sink: Box<dyn AuditSink> = match &trail {
            Some(path) => Box::new(FileSink::open(path).unwrap_or_else(|e| {
                eprintln!("gdpr-server: cannot open audit trail {path}: {e}");
                std::process::exit(1);
            })),
            None => Box::new(MemorySink::new()),
        };
        let mut store = GdprStore::open(policy, config, sink).unwrap_or_else(|e| {
            // A refused journal leaves no trail file behind either.
            if let Some(path) = created {
                let _ = std::fs::remove_file(path);
            }
            cannot_open(journal, e)
        });
        println!("  audit trail: {}", trail.as_deref().unwrap_or("in memory"));
        if let Some(hotcache) = arg_u64(&args, "hotcache") {
            store.set_hot_cache(
                gdpr_core::hot_cache::HotCacheConfig::default().enabled(hotcache != 0),
            );
        }
        println!(
            "  hot-read cache {}",
            if store.hot_cache_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        );
        if let Some(grants) = arg_str(&args, "grant") {
            for pair in grants.split(',').filter(|p| !p.is_empty()) {
                let Some((actor, purpose)) = pair.split_once(':') else {
                    reject(
                        &format!("grant={grants}"),
                        "want actor:purpose[,actor:purpose...]",
                    );
                };
                if let Err(e) = store.grant(Grant::new(actor, purpose)) {
                    eprintln!("gdpr-server: cannot install grant {actor}:{purpose}: {e}");
                    std::process::exit(1);
                }
                println!("  grant installed: {actor} -> {purpose}");
            }
        }
        Dispatcher::gdpr(Arc::new(store))
    };
    let slowlog_threshold = arg_with(&args, "slowlog", |v| v.parse().ok(), "an integer")
        .unwrap_or(gdpr_server::metrics::DEFAULT_SLOWLOG_THRESHOLD_MICROS);
    let slowlog_max = arg_u64(&args, "slowlogmax")
        .unwrap_or(gdpr_server::metrics::DEFAULT_SLOWLOG_MAX_LEN as u64)
        as usize;
    let dispatcher = dispatcher.with_metrics(Arc::new(gdpr_server::metrics::ServerMetrics::new(
        slowlog_threshold,
        slowlog_max,
    )));

    let mut server_config = ServerConfig {
        transport,
        max_connections,
        workers: arg_u64(&args, "workers").unwrap_or(0) as usize,
        ..ServerConfig::default()
    };
    if let Some(secs) = arg_u64(&args, "readtimeout") {
        server_config.read_timeout = Duration::from_secs(secs);
    }
    let server = TcpServer::bind(dispatcher, addr.as_str(), server_config).expect("bind listener");
    let metrics_handle = arg_str(&args, "metrics").map(|metrics_addr| {
        let listener = gdpr_server::metrics_http::MetricsServer::start(
            metrics_addr,
            server.dispatcher().clone(),
        )
        .expect("bind metrics listener");
        println!(
            "gdpr-server: Prometheus metrics at http://{}/metrics",
            listener.local_addr()
        );
        listener
    });
    let replica_handle = arg_str(&args, "replicaof").map(|primary| {
        println!("gdpr-server: replica of {primary} (writes will be redirected)");
        gdpr_server::replication::start_replica(server.dispatcher().clone(), primary)
    });
    println!(
        "gdpr-server: listening on {} (transport={transport}, maxconns={max_connections}); \
         send SHUTDOWN to stop",
        server.local_addr()
    );

    if duration_secs > 0 {
        let deadline = std::time::Instant::now() + Duration::from_secs(duration_secs);
        while !server.is_shutdown_requested() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
        }
        server.request_shutdown();
    } else {
        server.wait_for_shutdown_request(Duration::from_millis(100));
    }

    if let Some(handle) = replica_handle {
        handle.stop();
    }
    if let Some(listener) = metrics_handle {
        listener.shutdown();
    }
    let dispatch = server.dispatcher().stats();
    let transport = server.transport_stats();
    server.shutdown();
    println!(
        "gdpr-server: stopped; {} requests ({} errors), {} connections accepted, {} rejected",
        dispatch.requests, dispatch.errors, transport.accepted, transport.rejected
    );
}
