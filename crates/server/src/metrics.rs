//! The server's always-on observability state and its exposition.
//!
//! [`ServerMetrics`] is shared (via `Arc`) by every clone of the
//! dispatcher, both transports and the replication runner. It holds:
//!
//! * one latency histogram per **command family** (fed by
//!   [`crate::dispatch::Dispatcher::handle_frame`], which also feeds the
//!   [`obs::Slowlog`]);
//! * the connection-layer **stage histograms** the engine cannot see —
//!   the wait between decoding a batch and its event loop starting to
//!   execute it, and replication apply time (the engine
//!   keeps shard-lock hold and group-commit wait itself);
//! * server identity (start time, transport label) for the `# Server`
//!   `INFO` section.
//!
//! [`Dispatcher::render_prometheus`] renders all of it — plus every
//! pre-existing counter surface (engine, GDPR, clients, replication) —
//! as one Prometheus text-exposition document for the `/metrics`
//! listener in [`crate::metrics_http`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use obs::{AtomicHistogram, LatencyHistogram, PromWriter, Slowlog};

use crate::dispatch::{Dispatcher, CLIENT_STAT_FIELDS};

/// Default `SLOWLOG` threshold: 10 ms, Redis'
/// `slowlog-log-slower-than` default.
pub const DEFAULT_SLOWLOG_THRESHOLD_MICROS: i64 = 10_000;
/// Default `SLOWLOG` ring capacity (Redis' `slowlog-max-len`).
pub const DEFAULT_SLOWLOG_MAX_LEN: usize = 128;

/// The command families latency is tracked per. Coarser than one
/// histogram per command name (bounded label cardinality for Prometheus)
/// but fine enough to separate the paper's cost centres: plain reads,
/// journaled writes, keyspace scans, expiry management, GDPR data-path
/// commands and GDPR rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandFamily {
    /// Per-key reads (`GET`, `HGETALL`, `SISMEMBER`, …).
    Read,
    /// Data writes (`SET`, `DEL`, `HSET`, `SADD`, `FLUSHALL`, …).
    Write,
    /// Keyspace-wide queries (`KEYS`, `SCAN`, `DBSIZE`).
    Scan,
    /// Expiry management (`EXPIRE`, `PEXPIREAT`, `TTL`, `PERSIST`, …).
    Expire,
    /// GDPR data path (`GDPR.PUT`, `GDPR.GET`, `GDPR.SETMETA`, …).
    GdprData,
    /// GDPR subject rights (`GDPR.ERASE`, `GDPR.EXPORT`, `GDPR.KEYSOF`,
    /// `GDPR.GETMETA`, `GDPR.OBJECT`) — the rights also record into
    /// per-right histograms inside `gdpr-core`.
    GdprRight,
    /// Protocol and introspection (`PING`, `INFO`, `SLOWLOG`, `TICK`,
    /// `DIGEST`, `GDPR.AUTH`, `GDPR.STATS`, …).
    Admin,
    /// Anything unrecognised (still timed; the reply is an error).
    Other,
}

impl CommandFamily {
    /// Every family, in the fixed rendering order.
    pub const ALL: [CommandFamily; 8] = [
        CommandFamily::Read,
        CommandFamily::Write,
        CommandFamily::Scan,
        CommandFamily::Expire,
        CommandFamily::GdprData,
        CommandFamily::GdprRight,
        CommandFamily::Admin,
        CommandFamily::Other,
    ];

    /// The family of an upper-cased wire command name.
    #[must_use]
    pub fn classify(name: &str) -> Self {
        match name {
            "GET" | "MGET" | "EXISTS" | "TYPE" | "STRLEN" | "HGET" | "HGETALL" | "HLEN"
            | "SMEMBERS" | "SISMEMBER" | "SCARD" => CommandFamily::Read,
            "SET" | "SETEX" | "PSETEX" | "APPEND" | "INCR" | "DECR" | "INCRBY" | "DECRBY"
            | "DEL" | "UNLINK" | "HSET" | "HMSET" | "HDEL" | "SADD" | "SREM" | "FLUSHALL"
            | "FLUSHDB" => CommandFamily::Write,
            "KEYS" | "SCAN" | "DBSIZE" => CommandFamily::Scan,
            "EXPIRE" | "PEXPIRE" | "EXPIREAT" | "PEXPIREAT" | "PERSIST" | "TTL" | "PTTL" => {
                CommandFamily::Expire
            }
            "GDPR.PUT" | "GDPR.GET" | "GDPR.DEL" | "GDPR.SETMETA" => CommandFamily::GdprData,
            "GDPR.ERASE" | "GDPR.EXPORT" | "GDPR.KEYSOF" | "GDPR.GETMETA" | "GDPR.OBJECT" => {
                CommandFamily::GdprRight
            }
            "PING" | "INFO" | "SHUTDOWN" | "TICK" | "DIGEST" | "REPLSYNC" | "SLOWLOG" => {
                CommandFamily::Admin
            }
            other if other.starts_with("GDPR.") => CommandFamily::Admin,
            _ => CommandFamily::Other,
        }
    }

    /// The stable label value (`family="…"`, `latency_cmd_…`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CommandFamily::Read => "read",
            CommandFamily::Write => "write",
            CommandFamily::Scan => "scan",
            CommandFamily::Expire => "expire",
            CommandFamily::GdprData => "gdpr_data",
            CommandFamily::GdprRight => "gdpr_right",
            CommandFamily::Admin => "admin",
            CommandFamily::Other => "other",
        }
    }
}

/// Always-on server observability state, shared by dispatcher clones.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    /// Unix timestamp (seconds) the server started, for `# Server`.
    started_unix_secs: u64,
    /// Transport label, set once by the transport that binds.
    transport: OnceLock<&'static str>,
    families: [AtomicHistogram; CommandFamily::ALL.len()],
    /// Time from a batch being decoded to its first frame starting to
    /// execute on its event loop (≈ 0 unless the loop is busy with
    /// another connection).
    pub(crate) worker_queue_wait: AtomicHistogram,
    /// Time a replica spends applying one streamed journal record.
    pub(crate) repl_apply: AtomicHistogram,
    /// The `SLOWLOG` ring.
    pub slowlog: Slowlog,
    /// `/metrics` scrapes served (itself exported, Prometheus-style).
    pub(crate) scrapes: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new(DEFAULT_SLOWLOG_THRESHOLD_MICROS, DEFAULT_SLOWLOG_MAX_LEN)
    }
}

impl ServerMetrics {
    /// Create the metrics state with an explicit slowlog configuration.
    #[must_use]
    pub fn new(slowlog_threshold_micros: i64, slowlog_max_len: usize) -> Self {
        ServerMetrics {
            started: Instant::now(),
            started_unix_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            transport: OnceLock::new(),
            families: std::array::from_fn(|_| AtomicHistogram::new()),
            worker_queue_wait: AtomicHistogram::new(),
            repl_apply: AtomicHistogram::new(),
            slowlog: Slowlog::new(slowlog_threshold_micros, slowlog_max_len),
            scrapes: AtomicU64::new(0),
        }
    }

    /// Seconds since the server (strictly: this metrics state) started.
    #[must_use]
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Unix timestamp (seconds) of server start.
    #[must_use]
    pub fn started_unix_secs(&self) -> u64 {
        self.started_unix_secs
    }

    /// Record which transport is serving (first caller wins; both
    /// transports set it at bind).
    pub fn set_transport(&self, label: &'static str) {
        let _ = self.transport.set(label);
    }

    /// The transport label, `"unbound"` before any transport bound.
    #[must_use]
    pub fn transport(&self) -> &'static str {
        self.transport.get().copied().unwrap_or("unbound")
    }

    /// Record one completed request into its family histogram.
    pub fn record_command(&self, family: CommandFamily, latency: Duration) {
        self.families[family as usize].record(latency);
    }

    /// Record how long one decoded batch waited for its event loop to
    /// start executing it.
    pub fn record_worker_queue_wait(&self, wait: Duration) {
        self.worker_queue_wait.record(wait);
    }

    /// Record how long applying one streamed journal record took.
    pub fn record_repl_apply(&self, took: Duration) {
        self.repl_apply.record(took);
    }

    /// Per-family histogram snapshots, in [`CommandFamily::ALL`] order.
    #[must_use]
    pub fn family_snapshots(&self) -> Vec<(&'static str, LatencyHistogram)> {
        CommandFamily::ALL
            .iter()
            .map(|f| (f.label(), self.families[*f as usize].snapshot()))
            .collect()
    }

    /// Connection-layer stage histogram snapshots (`worker_queue_wait`,
    /// `repl_apply`), in fixed order.
    #[must_use]
    pub fn stage_snapshots(&self) -> Vec<(&'static str, LatencyHistogram)> {
        vec![
            ("worker_queue_wait", self.worker_queue_wait.snapshot()),
            ("repl_apply", self.repl_apply.snapshot()),
        ]
    }
}

impl Dispatcher {
    /// The latency report shared verbatim (same names, same order, same
    /// per-line payload) by `INFO`'s `# Latency` section and the
    /// `latency_*` lines of `GDPR.STATS`; only the name/value separator
    /// differs between the two surfaces.
    #[must_use]
    pub fn latency_lines(&self, sep: char) -> Vec<String> {
        let mut lines = Vec::new();
        for (family, hist) in self.metrics().family_snapshots() {
            lines.push(format!(
                "latency_cmd_{family}{sep}{}",
                hist.summary_fields()
            ));
        }
        if let Some(store) = self.gdpr_store() {
            for (right, hist) in store.right_latencies() {
                lines.push(format!(
                    "latency_right_{right}{sep}{}",
                    hist.summary_fields()
                ));
            }
        }
        for (stage, hist) in self
            .raw_engine()
            .stage_latencies()
            .into_iter()
            .chain(self.metrics().stage_snapshots())
        {
            lines.push(format!(
                "latency_stage_{stage}{sep}{}",
                hist.summary_fields()
            ));
        }
        lines
    }

    /// Render the full Prometheus text-exposition document: the latency
    /// histograms plus every counter the text surfaces (`INFO`,
    /// `GDPR.STATS`) already expose — engine, journal, TTL index, GDPR,
    /// clients and replication — under the same names those surfaces use.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics();
        metrics.scrapes.fetch_add(1, Ordering::Relaxed);
        let transport = metrics.transport();
        let mut w = PromWriter::new();

        // --- server identity -------------------------------------------------
        w.gauge(
            "gdpr_server_uptime_seconds",
            "Seconds since the server started.",
            &[],
            metrics.uptime_seconds(),
        );
        w.counter(
            "gdpr_server_metrics_scrapes",
            "Prometheus scrapes served (this one included).",
            &[],
            metrics.scrapes.load(Ordering::Relaxed),
        );

        // --- latency histograms ----------------------------------------------
        for (family, hist) in metrics.family_snapshots() {
            w.histogram(
                "gdpr_server_command_latency_seconds",
                "Request latency through the dispatcher, by command family.",
                &[("family", family), ("transport", transport)],
                &hist,
            );
        }
        if let Some(store) = self.gdpr_store() {
            for (right, hist) in store.right_latencies() {
                w.histogram(
                    "gdpr_right_latency_seconds",
                    "GDPR subject-right fulfilment latency, by right.",
                    &[("right", right)],
                    &hist,
                );
            }
        }
        for (stage, hist) in self
            .raw_engine()
            .stage_latencies()
            .into_iter()
            .chain(metrics.stage_snapshots())
        {
            w.histogram(
                "gdpr_server_stage_latency_seconds",
                "Time spent in one internal request-path stage.",
                &[("stage", stage)],
                &hist,
            );
        }

        // --- dispatcher + slowlog --------------------------------------------
        let dispatch = self.stats();
        w.counter(
            "gdpr_server_requests",
            "Requests handled (including errors).",
            &[],
            dispatch.requests,
        );
        w.counter(
            "gdpr_server_request_errors",
            "Requests answered with an error reply.",
            &[],
            dispatch.errors,
        );
        w.gauge(
            "gdpr_server_slowlog_len",
            "Entries currently retained in the SLOWLOG ring.",
            &[],
            metrics.slowlog.len() as u64,
        );

        // --- connection layer (same descriptor table as INFO/GDPR.STATS) -----
        let clients = self.client_stats();
        for (name, is_gauge, get) in CLIENT_STAT_FIELDS {
            let help = "Connection-layer counter; see the # Clients INFO section.";
            if *is_gauge {
                w.gauge(name, help, &[], get(&clients));
            } else {
                w.counter(name, help, &[], get(&clients));
            }
        }

        // --- engine ----------------------------------------------------------
        let engine = self.raw_engine().stats();
        let counters: &[(&str, &str, u64)] = &[
            (
                "engine_commands_processed",
                "Commands executed by the storage engine.",
                engine.commands_processed,
            ),
            ("engine_reads", "Read commands executed.", engine.reads),
            ("engine_writes", "Write commands executed.", engine.writes),
            (
                "keyspace_hits",
                "Lookups that found a live key.",
                engine.db.keyspace_hits,
            ),
            (
                "keyspace_misses",
                "Lookups that missed.",
                engine.db.keyspace_misses,
            ),
            (
                "expired_keys",
                "Keys removed by expiry.",
                engine.db.expired_keys,
            ),
            (
                "deleted_keys",
                "Keys removed by explicit deletion.",
                engine.db.deleted_keys,
            ),
            (
                "expire_cycles",
                "Active-expiry cycles run.",
                engine.expire_cycles,
            ),
            (
                "ttl_inserts",
                "Deadline-index insertions.",
                engine.deadline_index.inserts,
            ),
            (
                "ttl_fired",
                "Deadlines fired by the index.",
                engine.deadline_index.fired,
            ),
            (
                "ttl_wheel_cascades",
                "Timer-wheel level cascades.",
                engine.deadline_index.cascades,
            ),
            (
                "ttl_wheel_stale_dropped",
                "Stale wheel entries dropped lazily.",
                engine.deadline_index.stale_dropped,
            ),
            (
                "aof_records",
                "Records appended to the journal.",
                engine.aof.records_appended,
            ),
            ("aof_fsyncs", "Journal fsyncs issued.", engine.aof.fsyncs),
            (
                "aof_rewrites",
                "Journal rewrites completed.",
                engine.aof.rewrites,
            ),
            (
                "aof_group_commits",
                "Group-commit fsync batches.",
                engine.aof.group_commits,
            ),
            (
                "aof_group_commit_records",
                "Records covered by group commits.",
                engine.aof.group_commit_records,
            ),
            (
                "device_bytes_written",
                "Bytes written to the storage device.",
                engine.device.bytes_written,
            ),
            (
                "device_syncs",
                "Device sync operations.",
                engine.device.syncs,
            ),
        ];
        for (name, help, value) in counters {
            w.counter(name, help, &[], *value);
        }
        let gauges: &[(&str, &str, u64)] = &[
            (
                "ttl_entries",
                "Live entries in the deadline index.",
                engine.deadline_index.entries,
            ),
            (
                "aof_segments",
                "Journal segments (one per shard).",
                engine.aof_segments,
            ),
            (
                "aof_unsynced_records",
                "Appended records not yet durable (the crash-loss window).",
                engine.aof.unsynced_records,
            ),
            (
                "device_bytes_on_device",
                "Bytes currently occupying the device.",
                engine.device.bytes_on_device,
            ),
        ];
        for (name, help, value) in gauges {
            w.gauge(name, help, &[], *value);
        }
        // Bounded-memory accounting: the live footprint against the
        // configured ceiling, and the evictor's counter labelled with the
        // policy that produced the evictions.
        w.gauge(
            "mem_bytes",
            "Approximate bytes resident in the keyspace.",
            &[],
            engine.db.mem_bytes,
        );
        w.gauge(
            "maxmemory",
            "Configured maxmemory ceiling in bytes (0 = unlimited).",
            &[],
            engine.max_memory,
        );
        w.counter(
            "evicted_keys",
            "Keys evicted to stay under maxmemory.",
            &[("policy", engine.eviction_policy.label())],
            engine.db.evicted_keys,
        );

        // --- compliance layer ------------------------------------------------
        if let Some(store) = self.gdpr_store() {
            let stats = store.stats();
            let gdpr: &[(&str, &str, u64)] = &[
                (
                    "gdpr_allowed_ops",
                    "Operations admitted by the compliance checks.",
                    stats.allowed_ops,
                ),
                (
                    "gdpr_denied_ops",
                    "Operations rejected by the compliance checks.",
                    stats.denied_ops,
                ),
                (
                    "gdpr_audit_records",
                    "Audit records emitted.",
                    stats.audit_records,
                ),
                (
                    "gdpr_erased_by_request",
                    "Keys erased through the right to be forgotten.",
                    stats.erased_by_request,
                ),
                (
                    "gdpr_erased_by_retention",
                    "Keys erased because retention elapsed.",
                    stats.erased_by_retention,
                ),
                (
                    "gdpr_cache_hits",
                    "GETs served from the TinyLFU hot-read cache.",
                    stats.cache_hits,
                ),
                (
                    "gdpr_cache_misses",
                    "GETs that took the full compliance slow path.",
                    stats.cache_misses,
                ),
                (
                    "gdpr_cache_admissions",
                    "Values admitted into the hot tier by TinyLFU.",
                    stats.cache_admissions,
                ),
                (
                    "gdpr_cache_invalidations",
                    "Hot entries dropped by mutation, erasure or expiry.",
                    stats.cache_invalidations,
                ),
            ];
            for (name, help, value) in gdpr {
                w.counter(name, help, &[], *value);
            }
            w.gauge(
                "gdpr_hot_cache_enabled",
                "1 while the TinyLFU hot-read cache is enabled.",
                &[],
                u64::from(store.hot_cache_enabled()),
            );
        }

        // --- replication -----------------------------------------------------
        let repl = self.replication().info();
        if repl.is_replica {
            w.gauge(
                "repl_connected",
                "1 while the replica's stream to its primary is up.",
                &[],
                u64::from(repl.connected),
            );
            w.gauge(
                "repl_applied_seq",
                "Last journal sequence applied locally.",
                &[],
                repl.applied_seq,
            );
            w.gauge(
                "repl_primary_seq",
                "Primary's journal sequence as last advertised.",
                &[],
                repl.primary_seq,
            );
            w.gauge(
                "repl_lag_records",
                "Records the replica is behind its primary.",
                &[],
                repl.lag_records,
            );
            w.counter(
                "repl_full_syncs",
                "Full resynchronisations performed.",
                &[],
                repl.full_syncs,
            );
            w.counter(
                "repl_records_applied",
                "Streamed records applied.",
                &[],
                repl.records_applied,
            );
        } else {
            w.gauge(
                "repl_connected_replicas",
                "Replication streams currently attached.",
                &[],
                repl.connected_replicas as u64,
            );
            w.counter(
                "repl_records_streamed",
                "Journal records streamed to replicas.",
                &[],
                repl.records_streamed,
            );
            w.counter(
                "repl_lost_streams",
                "Replica streams dropped (backlog overrun or error).",
                &[],
                repl.lost_streams,
            );
        }

        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_the_wire_surface() {
        assert_eq!(CommandFamily::classify("GET"), CommandFamily::Read);
        assert_eq!(CommandFamily::classify("SET"), CommandFamily::Write);
        assert_eq!(CommandFamily::classify("KEYS"), CommandFamily::Scan);
        assert_eq!(CommandFamily::classify("PEXPIREAT"), CommandFamily::Expire);
        assert_eq!(CommandFamily::classify("GDPR.PUT"), CommandFamily::GdprData);
        assert_eq!(
            CommandFamily::classify("GDPR.ERASE"),
            CommandFamily::GdprRight
        );
        assert_eq!(CommandFamily::classify("SLOWLOG"), CommandFamily::Admin);
        assert_eq!(CommandFamily::classify("GDPR.AUTH"), CommandFamily::Admin);
        assert_eq!(CommandFamily::classify("BOGUS"), CommandFamily::Other);
    }

    #[test]
    fn family_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            CommandFamily::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), CommandFamily::ALL.len());
    }

    #[test]
    fn metrics_record_and_snapshot() {
        let m = ServerMetrics::default();
        m.record_command(CommandFamily::Read, Duration::from_micros(100));
        m.record_command(CommandFamily::Read, Duration::from_micros(200));
        m.record_command(CommandFamily::Write, Duration::from_micros(5_000));
        let snaps = m.family_snapshots();
        assert_eq!(snaps[0].0, "read");
        assert_eq!(snaps[0].1.count(), 2);
        assert_eq!(snaps[1].0, "write");
        assert_eq!(snaps[1].1.count(), 1);
        assert_eq!(
            m.slowlog.threshold_micros(),
            DEFAULT_SLOWLOG_THRESHOLD_MICROS
        );
    }

    #[test]
    fn transport_label_first_set_wins() {
        let m = ServerMetrics::default();
        assert_eq!(m.transport(), "unbound");
        m.set_transport("reactor");
        m.set_transport("threads");
        assert_eq!(m.transport(), "reactor");
    }
}
