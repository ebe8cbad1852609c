//! The server's one stats table.
//!
//! [`Dispatcher::stat_rows`] takes one snapshot of every counter source —
//! the dispatcher and its slowlog, the storage engine, the compliance
//! store, the connection cells, replication and the journal segments —
//! and returns it as ordered [`StatRow`]s. Every exported name is written
//! once, in that function. `INFO` ([`Dispatcher::render_info`]),
//! `GDPR.STATS` ([`Dispatcher::stats_lines`]) and `/metrics`
//! ([`Dispatcher::render_prometheus`]) are formatters over the same rows,
//! so the three surfaces carry the same names and the same values.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::dispatch::{Dispatcher, Engine};

/// A row's value; the numeric variants also give its Prometheus type.
#[derive(Debug)]
pub enum StatValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A level that can go down as well as up.
    Gauge(u64),
    /// A label or compound reading (index kind, role, per-segment line);
    /// rendered by `INFO` and `GDPR.STATS` only.
    Text(String),
}

impl fmt::Display for StatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatValue::Counter(v) | StatValue::Gauge(v) => write!(f, "{v}"),
            StatValue::Text(s) => f.write_str(s),
        }
    }
}

/// One exported reading.
#[derive(Debug)]
pub struct StatRow {
    /// The `INFO` section it is listed under (`# <section>`).
    pub section: &'static str,
    /// The name on every surface.
    pub name: Cow<'static, str>,
    /// The reading.
    pub value: StatValue,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// A Prometheus label the series carries (`/metrics` only).
    pub label: Option<(&'static str, &'static str)>,
}

/// One table row as written in [`Dispatcher::stat_rows`]: name, value, help.
type Row = (&'static str, StatValue, &'static str);

/// Collects rows section by section.
#[derive(Default)]
struct Rows(Vec<StatRow>);

impl Rows {
    fn push(
        &mut self,
        section: &'static str,
        name: impl Into<Cow<'static, str>>,
        value: StatValue,
        help: &'static str,
    ) {
        self.0.push(StatRow {
            section,
            name: name.into(),
            value,
            help,
            label: None,
        });
    }

    fn section(&mut self, section: &'static str, rows: impl IntoIterator<Item = Row>) {
        for (name, value, help) in rows {
            self.push(section, name, value, help);
        }
    }
}

impl Dispatcher {
    /// Every exported counter, gauge and text reading, in rendering order.
    /// One row per line: left unformatted so the table reads as one.
    #[must_use]
    #[rustfmt::skip]
    pub fn stat_rows(&self) -> Vec<StatRow> {
        use StatValue::{Counter, Gauge, Text};
        let metrics = self.metrics();
        let dispatch = self.stats();
        let engine = self.raw_engine();
        let e = engine.stats();
        let (ttl, aof) = (e.deadline_index, e.aof);
        let mut t = Rows::default();

        t.section("Stats", [
            ("gdpr_server_uptime_seconds", Gauge(metrics.uptime_seconds()), "Seconds since the server started."),
            ("gdpr_server_requests", Counter(dispatch.requests), "Requests handled (including errors)."),
            ("gdpr_server_request_errors", Counter(dispatch.errors), "Requests answered with an error reply."),
            ("gdpr_server_slowlog_len", Gauge(metrics.slowlog.len() as u64), "Entries in the SLOWLOG ring."),
            ("gdpr_server_metrics_scrapes", Counter(metrics.scrapes.load(Ordering::Relaxed)), "Prometheus scrapes served."),
            ("engine_commands_processed", Counter(e.commands_processed), "Commands executed by the storage engine."),
            ("engine_reads", Counter(e.reads), "Read commands executed."),
            ("engine_writes", Counter(e.writes), "Write commands executed."),
            ("keyspace_hits", Counter(e.db.keyspace_hits), "Lookups that found a live key."),
            ("keyspace_misses", Counter(e.db.keyspace_misses), "Lookups that missed."),
            ("expired_keys", Counter(e.db.expired_keys), "Keys removed by expiry."),
            ("deleted_keys", Counter(e.db.deleted_keys), "Keys removed by explicit deletion."),
            ("expire_cycles", Counter(e.expire_cycles), "Active-expiry cycles run."),
            ("keys_expired_by_cycles", Counter(e.keys_expired_by_cycles), "Keys removed by active-expiry cycles."),
        ]);
        t.section("Memory", [
            ("mem_bytes", Gauge(e.db.mem_bytes), "Approximate bytes resident in the keyspace."),
            ("maxmemory", Gauge(e.max_memory), "Configured maxmemory ceiling in bytes (0 = unlimited)."),
            ("maxmemory_policy", Text(e.eviction_policy.to_string()), "Over-maxmemory eviction policy."),
            ("evicted_keys", Counter(e.db.evicted_keys), "Keys evicted to stay under maxmemory."),
        ]);
        if let Some(evicted) = t.0.last_mut() {
            evicted.label = Some(("policy", e.eviction_policy.label()));
        }
        t.section("Expiry", [
            ("ttl_index", Text(ttl.kind.to_string()), "Deadline index kind (always wheel)."),
            ("ttl_entries", Gauge(ttl.entries), "Keys with a deadline."),
            ("ttl_inserts", Counter(ttl.inserts), "Deadline-index insertions."),
            ("ttl_reschedules", Counter(ttl.reschedules), "Deadlines replaced for keys that had one."),
            ("ttl_removes", Counter(ttl.removes), "Deadlines removed explicitly."),
            ("ttl_fired", Counter(ttl.fired), "Deadlines fired by the index."),
            ("ttl_wheel_cascades", Counter(ttl.cascades), "Timer-wheel level cascades."),
            ("ttl_wheel_stale_dropped", Counter(ttl.stale_dropped), "Stale wheel entries dropped lazily."),
            ("ttl_wheel_overflow", Gauge(ttl.overflow_entries), "Wheel entries parked in the far-future overflow heap."),
            ("ttl_wheel_ready", Gauge(ttl.ready_entries), "Expired wheel entries not yet collected."),
            ("ttl_wheel_levels", Text(ttl.level_entries.map(|n| n.to_string()).join("/")), "Wheel entries per level, finest first."),
        ]);
        t.section("Aof", [
            ("aof_segments", Gauge(e.aof_segments), "Journal segments (one per shard)."),
            ("aof_records", Counter(aof.records_appended), "Records appended to the journal."),
            ("aof_fsyncs", Counter(aof.fsyncs), "Journal fsyncs issued."),
            ("aof_rewrites", Counter(aof.rewrites), "Journal rewrites completed."),
            ("auto_rewrites", Counter(e.auto_rewrites), "Journal rewrites triggered by the record threshold."),
            ("aof_unsynced_records", Gauge(aof.unsynced_records), "Appended records not yet durable (the crash-loss window)."),
            ("aof_group_commits", Counter(aof.group_commits), "Group-commit fsync batches."),
            ("aof_group_commit_records", Counter(aof.group_commit_records), "Records covered by group commits."),
            ("aof_max_group_commit_batch", Gauge(aof.max_group_commit_batch), "Largest group-commit batch so far."),
            ("device_bytes_written", Counter(e.device.bytes_written), "Bytes written to the storage device."),
            ("device_bytes_on_device", Gauge(e.device.bytes_on_device), "Bytes currently occupying the device."),
            ("device_syncs", Counter(e.device.syncs), "Device sync operations."),
        ]);
        if let Some(segments) = engine.aof_segment_stats() {
            let epoch = engine.aof_epoch().unwrap_or_default();
            t.push("Aof", "aof_epoch", Gauge(epoch), "Epoch of the live journal segment set.");
            for (idx, seg) in segments.iter().enumerate() {
                let line = format!(
                    "records={},fsyncs={},unsynced={},group_commits={},group_commit_records={},max_batch={}",
                    seg.records_appended, seg.fsyncs, seg.unsynced_records,
                    seg.group_commits, seg.group_commit_records, seg.max_group_commit_batch,
                );
                t.push("Aof", format!("aof_seg{idx}"), Text(line), "One journal segment's counters.");
            }
        }
        if let Some(store) = self.gdpr_store() {
            let g = store.stats();
            t.section("Gdpr", [
                ("gdpr_allowed_ops", Counter(g.allowed_ops), "Operations admitted by the compliance checks."),
                ("gdpr_denied_ops", Counter(g.denied_ops), "Operations rejected by the compliance checks."),
                ("gdpr_audit_records", Counter(g.audit_records), "Audit records emitted."),
                ("gdpr_erased_by_request", Counter(g.erased_by_request), "Keys erased through the right to be forgotten."),
                ("gdpr_erased_by_retention", Counter(g.erased_by_retention), "Keys erased because retention elapsed."),
                ("gdpr_hot_cache_enabled", Gauge(u64::from(store.hot_cache_enabled())), "1 while the TinyLFU hot-read cache is enabled."),
                ("gdpr_cache_hits", Counter(g.cache_hits), "GETs served from the TinyLFU hot-read cache."),
                ("gdpr_cache_misses", Counter(g.cache_misses), "GETs that took the full compliance slow path."),
                ("gdpr_cache_admissions", Counter(g.cache_admissions), "Values admitted into the hot tier by TinyLFU."),
                ("gdpr_cache_invalidations", Counter(g.cache_invalidations), "Hot entries dropped by mutation, erasure or expiry."),
            ]);
        }
        let c = self.client_stats();
        t.section("Clients", [
            ("clients_connected", Gauge(c.connected), "Connections currently open."),
            ("clients_accepted", Counter(c.accepted), "Connections accepted since start."),
            ("clients_rejected_over_limit", Counter(c.rejected_over_limit), "Connections refused at the connection limit."),
            ("clients_idle_timeouts", Counter(c.idle_timeouts), "Connections closed for exceeding the idle timeout."),
            ("clients_reactor_wakeups", Counter(c.reactor_wakeups), "Event-loop wakeups, summed over the loops."),
            ("clients_worker_queue_hwm", Gauge(c.worker_queue_hwm), "Most connections with unexecuted frames on one loop at once."),
        ]);
        let r = self.replication().info();
        let role = if r.is_replica { "replica" } else { "primary" };
        t.push("Replication", "repl_role", Text(role.into()), "Replication role.");
        if r.is_replica {
            let primary = r.primary_addr.unwrap_or_else(|| "?".into());
            t.section("Replication", [
                ("repl_primary", Text(primary), "Address of the followed primary."),
                ("repl_connected", Gauge(u64::from(r.connected)), "1 while the replica's stream to its primary is up."),
                ("repl_applied_seq", Gauge(r.applied_seq), "Last journal sequence applied locally."),
                ("repl_primary_seq", Gauge(r.primary_seq), "Primary's journal sequence as last advertised."),
                ("repl_lag_records", Gauge(r.lag_records), "Records the replica is behind its primary."),
                ("repl_full_syncs", Counter(r.full_syncs), "Full resynchronisations performed."),
                ("repl_records_applied", Counter(r.records_applied), "Streamed records applied."),
            ]);
        } else {
            t.section("Replication", [
                ("repl_connected_replicas", Gauge(r.connected_replicas as u64), "Replication streams currently attached."),
                ("repl_records_streamed", Counter(r.records_streamed), "Journal records streamed to replicas."),
                ("repl_lost_streams", Counter(r.lost_streams), "Replica streams dropped (backlog overrun or error)."),
            ]);
        }
        t.0
    }

    /// Render the `INFO` reply: the server's identity, then every stats
    /// row as `name:value` under its `# <section>` header, then the
    /// latency report.
    #[must_use]
    pub fn render_info(&self) -> String {
        let mut out = format!(
            "# Server\nversion:{}\npid:{}\ntransport:{}\nshards:{}\nhost_cores:{}\nengine:{}\n",
            env!("CARGO_PKG_VERSION"),
            std::process::id(),
            crate::metrics::TRANSPORT,
            self.raw_engine().shard_count(),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            match self.engine() {
                Engine::Kv(_) => "kv",
                Engine::Gdpr(_) => "gdpr",
            },
        );
        let mut section = "";
        for row in self.stat_rows() {
            if row.section != section {
                section = row.section;
                let _ = writeln!(out, "# {section}");
            }
            let _ = writeln!(out, "{}:{}", row.name, row.value);
        }
        out.push_str("# Latency\n");
        for line in self.latency_lines(':') {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The `GDPR.STATS` reply lines: every stats row as `name=value`, then
    /// the latency report.
    #[must_use]
    pub fn stats_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .stat_rows()
            .into_iter()
            .map(|row| format!("{}={}", row.name, row.value))
            .collect();
        lines.extend(self.latency_lines('='));
        lines
    }
}
