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
//! [`Dispatcher::render_prometheus`] renders the histograms and every
//! numeric row of the stats table ([`crate::stats`]) as one Prometheus
//! text-exposition document for the `/metrics` listener in
//! [`crate::metrics_http`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use obs::{AtomicHistogram, LatencyHistogram, PromWriter, Slowlog};

use crate::dispatch::Dispatcher;
use crate::stats::StatValue;

/// Default `SLOWLOG` threshold: 10 ms, Redis'
/// `slowlog-log-slower-than` default.
pub const DEFAULT_SLOWLOG_THRESHOLD_MICROS: i64 = 10_000;
/// Default `SLOWLOG` ring capacity (Redis' `slowlog-max-len`).
pub const DEFAULT_SLOWLOG_MAX_LEN: usize = 128;

/// The command families latency is tracked per. Coarser than one
/// histogram per command name (bounded label cardinality for Prometheus)
/// but fine enough to separate the paper's cost centres: plain reads,
/// journaled writes, keyspace scans, expiry management, GDPR data-path
/// commands and GDPR rights. Each command's family is a column of the
/// server's command table (`commands.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandFamily {
    /// Per-key reads (`GET`, `HGETALL`, …).
    Read,
    /// Data writes (`SET`, `DEL`, `HSET`, `SADD`, `FLUSHALL`, …).
    Write,
    /// Keyspace-wide queries (`KEYS`, `SCAN`, `DBSIZE`).
    Scan,
    /// Expiry management (`EXPIRE`, `PEXPIREAT`, `TTL`, `PERSIST`, …).
    Expire,
    /// GDPR data path (`GDPR.PUT`, `GDPR.SETMETA`).
    GdprData,
    /// GDPR subject rights (`GDPR.ERASE`, `GDPR.EXPORT`, `GDPR.KEYSOF`,
    /// `GDPR.GETMETA`, `GDPR.OBJECT`) — the rights also record into
    /// per-right histograms inside `gdpr-core`.
    GdprRight,
    /// Protocol and introspection (`PING`, `INFO`, `SLOWLOG`, `TICK`,
    /// `DIGEST`, `GDPR.AUTH`, `GDPR.STATS`, …).
    Admin,
    /// A name the command table does not hold (still timed; the reply is
    /// an error).
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

    /// Render the full Prometheus text-exposition document: every numeric
    /// row of [`Dispatcher::stat_rows`] as a counter or gauge under its
    /// table name, then the latency histograms.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics();
        metrics.scrapes.fetch_add(1, Ordering::Relaxed);
        let mut w = PromWriter::new();
        for row in self.stat_rows() {
            let labels = row.label.as_slice();
            match row.value {
                StatValue::Counter(v) => w.counter(&row.name, row.help, labels, v),
                StatValue::Gauge(v) => w.gauge(&row.name, row.help, labels, v),
                StatValue::Text(_) => {}
            }
        }
        let transport = metrics.transport();
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
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
