//! The `gdpr-server` binary: a real RESP-over-TCP server over the
//! reproduction's storage engine, with the compliance layer optional.
//!
//! Usage (all arguments optional, `key=value` form):
//!
//! ```text
//! gdpr-server [addr=127.0.0.1:6379] [shards=1] [fsync=everysec]
//!             [compliance=1] [transport=reactor|threads] [workers=0]
//!             [maxconns=0|N] [readtimeout=secs] [aof=mem|none|<path>]
//!             [groupcommit=1] [gcwait=2]
//!             [replicaof=host:port] [backlog=records]
//!             [grant=actor:purpose[,actor:purpose...]] [duration=secs]
//!             [metrics=host:port] [slowlog=micros] [slowlogmax=N]
//!             [maxmemory=bytes] [evict=noeviction|lru|random] [hotcache=1]
//! ```
//!
//! * `compliance` — 0 = raw engine (plain Redis surface only), 1 =
//!   eventual policy, 2 = strict policy.
//! * `transport` — `reactor` (default; also via `GDPR_TRANSPORT`): the
//!   event-driven connection layer (symmetric epoll event loops that run
//!   each request to completion), or `threads`: one OS thread per
//!   connection.
//! * `workers` — reactor event-loop threads (0 = `min(cores, shards)`);
//!   each serves its share of the connections from read to reply.
//! * `maxconns` — connection cap; over-limit clients receive a final
//!   `-ERR max connections reached` frame. Defaults to unlimited (0) on
//!   the reactor and 1024 on the threads transport.
//! * `readtimeout` — idle timeout in seconds, measured from the last
//!   *complete* request frame (default 30).
//! * `fsync` — `always`, `everysec` or `none` (journal fsync policy).
//!   With per-shard journal segments and group commit, `fsync=always` is
//!   now a viable serving configuration: concurrent connections share
//!   fsyncs instead of re-serializing on one journal writer.
//! * `aof` — `mem` (default: in-memory journal), `none`, or a file path
//!   (the path becomes the segment-set manifest; segments live next to
//!   it as `<path>.e<epoch>.s<shard>`).
//! * `groupcommit` — 1 (default) batches concurrent `always` fsyncs per
//!   segment; 0 reverts to one fsync per record.
//! * `gcwait` — group-commit follower wait bound in milliseconds.
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

use audit::sink::NullSink;
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
    "groupcommit",
    "gcwait",
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
    let transport = arg_with(&args, "transport", Transport::parse, "reactor|threads")
        .unwrap_or_else(Transport::from_env_or_default);
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
    let fsync = arg_with(&args, "fsync", parse_fsync, "always|everysec|none")
        .unwrap_or(FsyncPolicy::EverySec);

    let group_commit = arg_u64(&args, "groupcommit").unwrap_or(1) != 0;
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
        .group_commit(group_commit)
        .max_memory(max_memory)
        .eviction_policy(evict);
    if let Some(wait_ms) = arg_u64(&args, "gcwait") {
        config = config.group_commit_wait_ms(wait_ms);
    }
    if let Some(records) = arg_u64(&args, "backlog") {
        config = config.repl_backlog(records);
    }
    match arg_str(&args, "aof").unwrap_or("mem") {
        "mem" => config = config.aof_in_memory(),
        "none" => {}
        path => config.persistence = kvstore::config::Persistence::AofFile(path.into()),
    }
    if max_memory > 0 {
        println!("gdpr-server: maxmemory {max_memory} bytes, eviction policy {evict}");
    }

    let dispatcher = if compliance == 0 {
        let store = KvStore::open(config).expect("open storage engine");
        println!(
            "gdpr-server: raw engine, {shards} shard(s), fsync {fsync:?}, group commit {}",
            if group_commit { "on" } else { "off" }
        );
        Dispatcher::kv(store)
    } else {
        let mut policy = if compliance == 2 {
            CompliancePolicy::strict()
        } else {
            CompliancePolicy::eventual()
        };
        policy.journal_fsync = fsync;
        println!(
            "gdpr-server: compliance policy '{}', {shards} shard(s), fsync {fsync:?}",
            policy.name
        );
        let mut store =
            GdprStore::open(policy, config, Box::new(NullSink::new())).expect("open GDPR store");
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
                store.grant(Grant::new(actor, purpose));
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
