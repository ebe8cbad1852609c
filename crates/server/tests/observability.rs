//! End-to-end observability tests: a real server on a real socket, a
//! real HTTP scrape of `/metrics`, and the wire-visible `SLOWLOG` /
//! `INFO` / `GDPR.STATS` surfaces.
//!
//! The Prometheus exposition is validated against the text-format
//! grammar (HELP/TYPE once per metric, well-formed sample lines, no
//! duplicate series, cumulative histogram buckets), and the histogram
//! counts scraped over HTTP are cross-checked against the latency lines
//! `GDPR.STATS` reports for the same traffic.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::GdprStore;
use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::metrics::ServerMetrics;
use gdpr_server::metrics_http::MetricsServer;
use gdpr_server::tcp::{ServerConfig, TcpServer, TcpServerHandle};
use kvstore::config::StoreConfig;
use kvstore::store::KvStore;
use resp::command::GdprRequest;
use resp::Frame;

fn kv_server(metrics: Arc<ServerMetrics>) -> TcpServerHandle {
    let dispatcher =
        Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap()).with_metrics(metrics);
    TcpServer::bind(dispatcher, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn gdpr_server() -> TcpServerHandle {
    let store = Arc::new(GdprStore::open_in_memory(CompliancePolicy::eventual()).unwrap());
    let dispatcher = Dispatcher::gdpr(store).with_metrics(Arc::new(ServerMetrics::new(-1, 16)));
    TcpServer::bind(dispatcher, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .write_all(format!("GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn info_text(client: &mut TcpRemoteClient) -> String {
    match client.roundtrip(&Frame::command(["INFO"])).unwrap() {
        Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
        other => panic!("INFO returned {other:?}"),
    }
}

fn gdpr_stats_lines(client: &mut TcpRemoteClient) -> Vec<String> {
    match client.gdpr(&GdprRequest::Stats).unwrap() {
        Frame::Array(items) => items
            .into_iter()
            .map(|f| match f {
                Frame::Bulk(b) => String::from_utf8(b).unwrap(),
                other => panic!("unexpected stats item {other:?}"),
            })
            .collect(),
        other => panic!("GDPR.STATS returned {other:?}"),
    }
}

/// One parsed Prometheus sample: metric name, the raw label string
/// (normalized to `""` when absent), and the value.
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

fn is_valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// Parse a Prometheus text-exposition body, panicking on any grammar
/// violation: unknown line shapes, malformed names, HELP/TYPE repeated
/// for a name, samples for a name without a preceding TYPE, or an exact
/// duplicate (name, labels) series.
fn parse_prometheus(body: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut helped = HashSet::new();
    let mut typed = HashSet::new();
    let mut seen_series = HashSet::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(is_valid_metric_name(name), "bad HELP name in {line:?}");
            assert!(helped.insert(name.to_string()), "duplicate HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(is_valid_metric_name(name), "bad TYPE name in {line:?}");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "bad TYPE kind in {line:?}"
            );
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line {line:?}");
        // Sample line: `name value` or `name{labels} value`.
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in {line:?}"));
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated labels in {line:?}"));
                (name, labels)
            }
            None => (series, ""),
        };
        assert!(is_valid_metric_name(name), "bad metric name in {line:?}");
        // The base name of a histogram's component series is the TYPE'd name.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains(*b))
            .unwrap_or(name);
        assert!(typed.contains(base), "sample {name} has no TYPE");
        assert!(helped.contains(base), "sample {name} has no HELP");
        assert!(
            seen_series.insert((name.to_string(), labels.to_string())),
            "duplicate series {name}{{{labels}}}"
        );
        samples.push(Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    assert!(!samples.is_empty(), "empty exposition");
    samples
}

/// Check every `<name>_bucket` family: cumulative counts, a `+Inf`
/// bucket, and `+Inf == <name>_count` for the same label set.
fn check_histograms(samples: &[Sample]) {
    let mut buckets: HashMap<(String, String), Vec<(String, f64)>> = HashMap::new();
    for s in samples.iter().filter(|s| s.name.ends_with("_bucket")) {
        let base = s.name.trim_end_matches("_bucket").to_string();
        let mut le = String::new();
        let rest: Vec<&str> = s
            .labels
            .split(',')
            .filter(|part| match part.strip_prefix("le=\"") {
                Some(v) => {
                    le = v.trim_end_matches('"').to_string();
                    false
                }
                None => true,
            })
            .collect();
        assert!(!le.is_empty(), "bucket without le label: {}", s.labels);
        buckets
            .entry((base, rest.join(",")))
            .or_default()
            .push((le, s.value));
    }
    assert!(!buckets.is_empty(), "no histogram series in exposition");
    for ((base, labels), series) in buckets {
        let mut prev = 0.0;
        for (le, count) in &series {
            assert!(
                *count >= prev,
                "{base}{{{labels}}} bucket le={le} not cumulative"
            );
            prev = *count;
        }
        let (last_le, last_count) = series.last().unwrap();
        assert_eq!(last_le, "+Inf", "{base}{{{labels}}} missing +Inf");
        let count_name = format!("{base}_count");
        let total = samples
            .iter()
            .find(|s| s.name == count_name && s.labels == labels)
            .unwrap_or_else(|| panic!("{count_name}{{{labels}}} missing"))
            .value;
        assert_eq!(*last_count, total, "{base}{{{labels}}} +Inf != _count");
    }
}

/// Extract `count=N` from a `latency_*=p50=..,..,count=N` stats line.
fn stats_latency_count(lines: &[String], prefix: &str) -> u64 {
    let line = lines
        .iter()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix} line in GDPR.STATS"));
    line.rsplit("count=")
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable {line}"))
}

fn histogram_count(samples: &[Sample], name: &str, label: &str) -> u64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.contains(label))
        .unwrap_or_else(|| panic!("no {name} series with {label}"))
        .value as u64
}

#[test]
fn info_reports_server_and_latency_sections() {
    let server = kv_server(Arc::new(ServerMetrics::new(-1, 16)));
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    client.set("k", b"v").unwrap();
    assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));

    let info = info_text(&mut client);
    assert!(info.contains("# Server"), "{info}");
    assert!(info.contains(&format!("version:{}\n", env!("CARGO_PKG_VERSION"))));
    assert!(info.contains("uptime_seconds:"));
    assert!(info.contains("transport:reactor\n"), "{info}");
    assert!(info.contains("host_cores:"));
    assert!(info.contains("# Latency"));
    // The SET and GET above are already recorded by INFO time.
    assert!(info.contains("latency_cmd_read:"), "{info}");
    assert!(info.contains("latency_cmd_write:"));
    assert!(info.contains("latency_stage_shard_lock_hold:"), "{info}");
    server.shutdown();
}

#[test]
fn prometheus_scrape_parses_and_matches_gdpr_stats() {
    let server = gdpr_server();
    let metrics = MetricsServer::start("127.0.0.1:0", server.dispatcher().clone()).unwrap();
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();

    // Traffic: a grant install + auth, writes and reads carrying GDPR
    // metadata defaults, and one subject-rights call.
    client
        .roundtrip(&Frame::command(["GDPR.GRANT", "app", "billing"]))
        .unwrap();
    client.auth("app", "billing").unwrap();
    for i in 0..7 {
        client.set(&format!("k{i}"), b"v").unwrap();
    }
    for i in 0..11 {
        client.get(&format!("k{i}")).unwrap();
    }
    let erased = client.erase_subject("nobody").unwrap();
    assert_eq!(erased, 0);

    // GDPR.STATS reports the same histograms as `latency_*=` lines.
    let stats_lines = gdpr_stats_lines(&mut client);
    let stats_reads = stats_latency_count(&stats_lines, "latency_cmd_read=");
    let stats_writes = stats_latency_count(&stats_lines, "latency_cmd_write=");
    let stats_rights = stats_latency_count(&stats_lines, "latency_cmd_gdpr_right=");
    let stats_erase = stats_latency_count(&stats_lines, "latency_right_erase=");
    assert_eq!(stats_reads, 11);
    assert_eq!(stats_writes, 7);
    assert_eq!(stats_rights, 1);
    assert_eq!(stats_erase, 1);

    // A real HTTP scrape must parse per the exposition grammar and agree
    // with GDPR.STATS on every count for traffic that has stopped.
    let response = http_get(metrics.local_addr(), "/metrics");
    let (headers, body) = response.split_once("\r\n\r\n").expect("header split");
    assert!(headers.starts_with("HTTP/1.0 200 OK"), "{headers}");
    assert!(headers.contains("text/plain; version=0.0.4"), "{headers}");

    let samples = parse_prometheus(body);
    check_histograms(&samples);
    let prom =
        |label: &str| histogram_count(&samples, "gdpr_server_command_latency_seconds_count", label);
    assert_eq!(prom("family=\"read\""), stats_reads);
    assert_eq!(prom("family=\"write\""), stats_writes);
    assert_eq!(prom("family=\"gdpr_right\""), stats_rights);
    assert_eq!(
        histogram_count(
            &samples,
            "gdpr_right_latency_seconds_count",
            "right=\"erase\""
        ),
        stats_erase
    );
    // The command-latency series carry the event loops' transport label.
    assert!(
        samples
            .iter()
            .any(|s| s.name == "gdpr_server_command_latency_seconds_count"
                && s.labels.contains("transport=\"reactor\"")),
        "transport label missing"
    );
    // Counters from the pre-existing surfaces ride along.
    assert!(samples.iter().any(|s| s.name == "clients_connected"));
    assert!(samples.iter().any(|s| s.name == "gdpr_server_requests"));
    assert!(samples
        .iter()
        .any(|s| s.name == "engine_commands_processed"));

    metrics.shutdown();
    server.shutdown();
}

/// `(name, value)` pairs of `lines`, split at the first `sep`; panics on
/// a line without one.
fn name_values<'a>(lines: impl Iterator<Item = &'a str>, sep: char) -> Vec<(&'a str, &'a str)> {
    lines
        .map(|l| {
            l.split_once(sep)
                .unwrap_or_else(|| panic!("no {sep:?} in {l:?}"))
        })
        .collect()
}

fn assert_unique(surface: &str, pairs: &[(&str, &str)]) {
    let mut seen = HashSet::new();
    for (name, _) in pairs {
        assert!(seen.insert(*name), "{surface} lists {name} twice");
    }
}

#[test]
fn info_gdpr_stats_and_metrics_render_one_table() {
    let store = Arc::new(
        GdprStore::open(
            CompliancePolicy::eventual(),
            StoreConfig::in_memory().aof_in_memory().shards(2),
            Box::new(audit::sink::NullSink::new()),
        )
        .unwrap(),
    );
    let dispatcher = Dispatcher::gdpr(store).with_metrics(Arc::new(ServerMetrics::new(-1, 16)));
    let server = TcpServer::bind(dispatcher, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let metrics = MetricsServer::start("127.0.0.1:0", server.dispatcher().clone()).unwrap();
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();

    // Mixed traffic: plain KV reads, writes and deletes, GDPR
    // puts with retention, a denied put, and the subject rights.
    client
        .roundtrip(&Frame::command(["GDPR.GRANT", "app", "billing"]))
        .unwrap();
    client.auth("app", "billing").unwrap();
    for i in 0..6 {
        client.set(&format!("k{i}"), b"v").unwrap();
        client.get(&format!("k{i}")).unwrap();
        client.get(&format!("k{i}")).unwrap();
    }
    client.delete("k0").unwrap();
    for i in 0..4 {
        let put = GdprRequest::Put {
            key: format!("alice:{i}"),
            subject: "alice".into(),
            purposes: vec!["billing".into()],
            value: b"x".to_vec(),
            ttl_ms: Some(60_000),
        };
        assert_eq!(client.gdpr(&put).unwrap(), Frame::Simple("OK".into()));
    }
    // A put whose purposes exclude the session's is denied.
    let denied = GdprRequest::Put {
        key: "bob:0".into(),
        subject: "bob".into(),
        purposes: vec!["marketing".into()],
        value: b"y".to_vec(),
        ttl_ms: None,
    };
    assert!(client.gdpr(&denied).is_err());
    client.export_subject("alice").unwrap();
    assert_eq!(client.erase_subject("alice").unwrap(), 4);
    client.tick().unwrap();

    // Traffic has stopped: read the three surfaces.
    let info = info_text(&mut client);
    let stats = gdpr_stats_lines(&mut client);
    let response = http_get(metrics.local_addr(), "/metrics");
    let (_, body) = response.split_once("\r\n\r\n").expect("header split");
    let samples = parse_prometheus(body);

    // INFO minus its headers and its `# Server` identity lines.
    let mut in_server = false;
    let info_rows: Vec<&str> = info
        .lines()
        .filter(|l| {
            if let Some(section) = l.strip_prefix("# ") {
                in_server = section == "Server";
                return false;
            }
            !in_server
        })
        .collect();
    let info_pairs = name_values(info_rows.into_iter(), ':');
    let stats_pairs = name_values(stats.iter().map(String::as_str), '=');
    assert_unique("INFO", &info_pairs);
    assert_unique("GDPR.STATS", &stats_pairs);
    let info_names: HashSet<&str> = info_pairs.iter().map(|(n, _)| *n).collect();
    let stats_names: HashSet<&str> = stats_pairs.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        info_names, stats_names,
        "INFO and GDPR.STATS name sets differ"
    );

    // Every numeric row is a /metrics series with the same value, apart
    // from the readings the scrape itself or the clock moves.
    let moving = [
        "gdpr_server_uptime_seconds",
        "gdpr_server_metrics_scrapes",
        "clients_reactor_wakeups",
    ];
    let mut numeric = 0;
    for (name, value) in &stats_pairs {
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        numeric += 1;
        let sample = samples
            .iter()
            .find(|s| s.name == *name)
            .unwrap_or_else(|| panic!("{name} missing from /metrics"));
        if !moving.contains(name) {
            assert_eq!(sample.value as u64, value, "{name}");
        }
    }
    assert!(numeric > 50, "only {numeric} numeric rows");
    // The traffic above moved the rows it should have.
    let value = |name: &str| {
        stats_pairs
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{name} not numeric in GDPR.STATS"))
    };
    assert_eq!(value("gdpr_erased_by_request"), 4);
    assert!(value("gdpr_denied_ops") >= 1);
    assert!(value("engine_writes") >= 10);
    assert!(value("aof_records") > 0);
    assert!(value("gdpr_cache_hits") > 0);
    assert!(stats_names.contains("aof_seg1"), "{stats:?}");
    // The one labelled row keeps its label.
    assert!(samples
        .iter()
        .any(|s| s.name == "evicted_keys" && s.labels == "policy=\"noeviction\""));

    metrics.shutdown();
    server.shutdown();
}

#[test]
fn slowlog_captures_slow_commands_and_honors_the_ring_bound() {
    // Threshold 0 logs every request; the ring keeps only 4.
    let server = kv_server(Arc::new(ServerMetrics::new(0, 4)));
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    for i in 0..10 {
        client.set(&format!("key{i}"), b"v").unwrap();
    }

    let len = match client
        .roundtrip(&Frame::command(["SLOWLOG", "LEN"]))
        .unwrap()
    {
        Frame::Integer(n) => n,
        other => panic!("SLOWLOG LEN returned {other:?}"),
    };
    assert_eq!(len, 4, "ring bound holds");

    let entries = match client
        .roundtrip(&Frame::command(["SLOWLOG", "GET", "10"]))
        .unwrap()
    {
        Frame::Array(entries) => entries,
        other => panic!("SLOWLOG GET returned {other:?}"),
    };
    assert_eq!(entries.len(), 4);
    // Newest first: the LEN query itself, then the last three SETs, with
    // monotonically decreasing ids and the captured command text.
    let mut last_id = i64::MAX;
    for entry in &entries {
        let Frame::Array(fields) = entry else {
            panic!("entry shape {entry:?}");
        };
        assert_eq!(fields.len(), 4);
        let Frame::Integer(id) = fields[0] else {
            panic!("id shape")
        };
        assert!(id < last_id, "ids newest-first");
        last_id = id;
        assert!(matches!(fields[1], Frame::Integer(ts) if ts > 0));
        assert!(matches!(fields[2], Frame::Integer(d) if d >= 0));
    }
    let Frame::Array(newest) = &entries[0] else {
        panic!()
    };
    let Frame::Array(cmd) = &newest[3] else {
        panic!()
    };
    assert_eq!(cmd[0], Frame::Bulk(b"SLOWLOG".to_vec()));
    let Frame::Array(prev) = &entries[1] else {
        panic!()
    };
    let Frame::Array(cmd) = &prev[3] else {
        panic!()
    };
    assert_eq!(cmd[0], Frame::Bulk(b"SET".to_vec()));
    assert_eq!(cmd[1], Frame::Bulk(b"key9".to_vec()));

    // RESET clears the ring (only the RESET itself is re-captured).
    client
        .roundtrip(&Frame::command(["SLOWLOG", "RESET"]))
        .unwrap();
    let len = match client
        .roundtrip(&Frame::command(["SLOWLOG", "LEN"]))
        .unwrap()
    {
        Frame::Integer(n) => n,
        other => panic!("SLOWLOG LEN returned {other:?}"),
    };
    assert_eq!(len, 1, "ring holds only the RESET that followed the clear");
    server.shutdown();
}

#[test]
fn negative_threshold_disables_the_slowlog() {
    let server = kv_server(Arc::new(ServerMetrics::new(-1, 4)));
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    for i in 0..5 {
        client.set(&format!("key{i}"), b"v").unwrap();
    }
    let len = match client
        .roundtrip(&Frame::command(["SLOWLOG", "LEN"]))
        .unwrap()
    {
        Frame::Integer(n) => n,
        other => panic!("SLOWLOG LEN returned {other:?}"),
    };
    assert_eq!(len, 0);
    server.shutdown();
}
