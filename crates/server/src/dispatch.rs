//! The single RESP → engine command mapper.
//!
//! Both RESP front-ends — the in-process simulated server in
//! `netsim::server` and the real TCP server in [`crate::tcp`] — delegate
//! every decoded frame to [`Dispatcher`], so the two paths execute the
//! same commands the same way and cannot drift. The dispatcher serves one
//! of two engines:
//!
//! * [`Engine::Kv`] — the raw storage engine, speaking the plain Redis
//!   command surface (the paper's unmodified baseline);
//! * [`Engine::Gdpr`] — the full compliance layer, where data commands
//!   run through access control, purpose limitation, metadata and audit,
//!   and the `GDPR.*` commands (see [`resp::command::GdprRequest`])
//!   expose grants, session auth, metadata get/set and the Chapter 3
//!   subject rights on the wire.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gdpr_core::acl::Grant;
use gdpr_core::export::{ExportCursor, DEFAULT_EXPORT_PAGE_ITEMS};
use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::store::{AccessContext, GdprStore};
use gdpr_crypto::sha256::Sha256;
use kvstore::commands::{Command, Reply};
use kvstore::store::KvStore;
use resp::command::{GdprRequest, WireCommand};
use resp::Frame;

use crate::metrics::{CommandFamily, ServerMetrics};
use crate::replication::ReplicationState;

/// Counters describing dispatcher activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Requests handled (including errors).
    pub requests: u64,
    /// Requests that produced an error reply.
    pub errors: u64,
}

#[derive(Debug, Default)]
struct DispatchStatsCells {
    requests: AtomicU64,
    errors: AtomicU64,
}

/// Snapshot of the connection-layer counters surfaced under `# Clients`
/// in `INFO` and as `clients_*=` lines in `GDPR.STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections currently open (gauge).
    pub connected: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections refused with `-ERR max connections reached`.
    pub rejected_over_limit: u64,
    /// Connections closed for exceeding the idle timeout.
    pub idle_timeouts: u64,
    /// Event-loop wakeups, summed over the reactor's loops (0 on the
    /// thread-per-connection transport, which has no event loop).
    pub reactor_wakeups: u64,
    /// Most connections that held decoded-but-unexecuted frames on one
    /// event loop at once (0 on the thread-per-connection transport).
    pub worker_queue_hwm: u64,
}

/// The shared atomic cells behind [`ClientStats`]. Both transports (for
/// the reactor, every event loop) update these through the dispatcher so
/// the stats surfaces read one place regardless of transport.
#[derive(Debug, Default)]
pub struct ClientStatsCells {
    connected: AtomicU64,
    accepted: AtomicU64,
    rejected_over_limit: AtomicU64,
    idle_timeouts: AtomicU64,
    reactor_wakeups: AtomicU64,
    worker_queue_hwm: AtomicU64,
}

impl ClientStatsCells {
    /// A consistent-enough snapshot (individual relaxed loads).
    #[must_use]
    pub fn snapshot(&self) -> ClientStats {
        ClientStats {
            connected: self.connected.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_over_limit: self.rejected_over_limit.load(Ordering::Relaxed),
            idle_timeouts: self.idle_timeouts.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            worker_queue_hwm: self.worker_queue_hwm.load(Ordering::Relaxed),
        }
    }

    /// A connection was accepted and is now being served.
    pub fn connection_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.connected.fetch_add(1, Ordering::Relaxed);
    }

    /// A previously opened connection closed (any reason).
    pub fn connection_closed(&self) {
        self.connected.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was refused because the limit was reached.
    pub fn connection_rejected(&self) {
        self.rejected_over_limit.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was closed by the idle-timeout sweep.
    pub fn idle_timeout(&self) {
        self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// An event loop woke from its wait.
    pub fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how many connections hold unexecuted frames on one event
    /// loop right now; keeps the maximum. Called once per batch, so the
    /// shared cell is only written when the mark actually rises.
    pub fn observe_worker_queue_depth(&self, depth: u64) {
        if depth > self.worker_queue_hwm.load(Ordering::Relaxed) {
            self.worker_queue_hwm.fetch_max(depth, Ordering::Relaxed);
        }
    }
}

/// Per-connection state: the access context bound by `GDPR.AUTH`.
///
/// The simulated server keeps one session for its single in-process
/// client; the TCP server keeps one per connection.
#[derive(Debug, Clone, Default)]
pub struct Session {
    ctx: Option<AccessContext>,
}

impl Session {
    /// A fresh, unauthenticated session.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// The access context bound to this session, if authenticated.
    #[must_use]
    pub fn context(&self) -> Option<&AccessContext> {
        self.ctx.as_ref()
    }
}

/// The storage engine a dispatcher serves.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The raw key-value engine (plain Redis surface).
    Kv(KvStore),
    /// The full GDPR compliance layer.
    Gdpr(Arc<GdprStore>),
}

/// Maps decoded RESP frames onto engine commands and executes them.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    engine: Engine,
    stats: Arc<DispatchStatsCells>,
    clients: Arc<ClientStatsCells>,
    repl: Arc<ReplicationState>,
    metrics: Arc<ServerMetrics>,
}

impl Dispatcher {
    /// Dispatch onto the raw key-value engine.
    #[must_use]
    pub fn kv(store: KvStore) -> Self {
        Dispatcher {
            engine: Engine::Kv(store),
            stats: Arc::new(DispatchStatsCells::default()),
            clients: Arc::new(ClientStatsCells::default()),
            repl: Arc::new(ReplicationState::default()),
            metrics: Arc::new(ServerMetrics::default()),
        }
    }

    /// Dispatch onto the GDPR compliance layer.
    #[must_use]
    pub fn gdpr(store: Arc<GdprStore>) -> Self {
        Dispatcher {
            engine: Engine::Gdpr(store),
            stats: Arc::new(DispatchStatsCells::default()),
            clients: Arc::new(ClientStatsCells::default()),
            repl: Arc::new(ReplicationState::default()),
            metrics: Arc::new(ServerMetrics::default()),
        }
    }

    /// Replace the default metrics state (used by the binary to apply
    /// `slowlog=` / `slowlogmax=` flags). Call before cloning: clones
    /// made earlier keep the state they were created with.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<ServerMetrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The observability state shared by this dispatcher's clones.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The replication state shared by this dispatcher's clones, the TCP
    /// stream feeders and (on a replica) the replica runner.
    #[must_use]
    pub fn replication(&self) -> &Arc<ReplicationState> {
        &self.repl
    }

    /// The connection-layer counter cells shared by this dispatcher's
    /// clones; the transports write them, the stats surfaces read them.
    #[must_use]
    pub fn client_cells(&self) -> &Arc<ClientStatsCells> {
        &self.clients
    }

    /// Snapshot of the connection-layer counters.
    #[must_use]
    pub fn client_stats(&self) -> ClientStats {
        self.clients.snapshot()
    }

    /// The engine being served.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The underlying raw engine, whichever front the dispatcher serves
    /// (the compliance layer wraps the same engine type).
    #[must_use]
    pub fn raw_engine(&self) -> &KvStore {
        match &self.engine {
            Engine::Kv(store) => store,
            Engine::Gdpr(store) => store.engine(),
        }
    }

    /// The compliance store, when the dispatcher serves one.
    #[must_use]
    pub fn gdpr_store(&self) -> Option<&Arc<GdprStore>> {
        match &self.engine {
            Engine::Kv(_) => None,
            Engine::Gdpr(store) => Some(store),
        }
    }

    /// Dispatcher activity counters.
    #[must_use]
    pub fn stats(&self) -> DispatchStats {
        DispatchStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
        }
    }

    /// Run the engine's background duties (expiry cycle, batched fsyncs,
    /// audit flush). Exposed on the wire as the `TICK` command so remote
    /// drivers can exercise the same duty cycle embedded drivers do.
    ///
    /// # Errors
    ///
    /// Propagates engine (and, for the compliance engine, audit) errors as
    /// a displayable message.
    pub fn tick(&self) -> std::result::Result<u64, String> {
        match &self.engine {
            Engine::Kv(store) => store
                .tick()
                .map(|o| o.removed.len() as u64)
                .map_err(|e| e.to_string()),
            Engine::Gdpr(store) => store
                .tick()
                .map(|o| o.removed.len() as u64)
                .map_err(|e| e.to_string()),
        }
    }

    /// Hex SHA-256 over the engine's canonical keyspace rendering — the
    /// `DIGEST` wire command. Two servers hold equivalent state (keys,
    /// values, absolute expiry deadlines, the metadata in each entry) iff
    /// their digests are equal, regardless of shard count or journal
    /// layout; CI's replication smoke compares primary and replica with it.
    #[must_use]
    pub fn state_digest_hex(&self) -> String {
        let digest = Sha256::digest(&self.raw_engine().canonical_state());
        let mut hex = String::with_capacity(digest.len() * 2);
        for byte in digest {
            hex.push_str(&format!("{byte:02x}"));
        }
        hex
    }

    /// Handle one decoded request frame and produce the reply frame: a
    /// copy of `frame` goes through [`Self::handle_owned_frame`]. The
    /// transports own the frames they decode and call that directly.
    pub fn handle_frame(&self, frame: &Frame, session: &mut Session) -> Frame {
        self.handle_owned_frame(frame.clone(), session)
    }

    /// Handle one decoded request frame, taking it over: the arguments
    /// move into the parsed command, and the payload of a write moves on
    /// into the store.
    ///
    /// This is the observability interception point: every parsed
    /// command is timed into its family histogram and, over the
    /// configured threshold, captured into the `SLOWLOG` ring (a payload
    /// that moved into the store shows there as an empty argument).
    pub fn handle_owned_frame(&self, frame: Frame, session: &mut Session) -> Frame {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (reply, timed) = match WireCommand::from_frame(frame) {
            Ok(mut cmd) => {
                let family = CommandFamily::classify(&cmd.name);
                (self.dispatch(&mut cmd, session), Some((family, cmd)))
            }
            Err(e) => (Frame::Error(format!("ERR {e}")), None),
        };
        if matches!(reply, Frame::Error(_)) {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((family, cmd)) = timed {
            let elapsed = started.elapsed();
            self.metrics.record_command(family, elapsed);
            let micros = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            if self.metrics.slowlog.should_log(micros) {
                self.metrics.slowlog.push(micros, &cmd.name, &cmd.args);
            }
        }
        reply
    }

    /// The `SLOWLOG GET [n] | RESET | LEN` container command, with
    /// Redis-shaped replies (`GET` returns `[id, unix_seconds,
    /// duration_micros, [command…]]` entries, newest first).
    fn slowlog_command(&self, cmd: &WireCommand) -> Frame {
        let slowlog = &self.metrics.slowlog;
        let sub = match cmd.subcommand() {
            Ok(sub) => sub,
            Err(_) => return Frame::Error("ERR SLOWLOG requires GET|RESET|LEN".to_string()),
        };
        match sub.as_str() {
            "GET" => {
                let count = match cmd.arity() {
                    1 => 10,
                    2 => match cmd.arg_u64(1) {
                        Ok(n) => n as usize,
                        Err(e) => return Frame::Error(format!("ERR {e}")),
                    },
                    _ => {
                        return Frame::Error("ERR SLOWLOG GET takes at most one count".to_string())
                    }
                };
                let entries = slowlog
                    .entries(count)
                    .into_iter()
                    .map(|entry| {
                        Frame::Array(vec![
                            Frame::Integer(entry.id as i64),
                            Frame::Integer(entry.unix_secs as i64),
                            Frame::Integer(entry.duration_micros as i64),
                            Frame::Array(
                                entry
                                    .command
                                    .into_iter()
                                    .map(|arg| Frame::Bulk(arg.into_bytes()))
                                    .collect(),
                            ),
                        ])
                    })
                    .collect();
                Frame::Array(entries)
            }
            "RESET" => {
                slowlog.reset();
                Frame::Simple("OK".to_string())
            }
            "LEN" => Frame::Integer(slowlog.len() as i64),
            other => Frame::Error(format!("ERR unknown SLOWLOG subcommand '{other}'")),
        }
    }

    /// Handle one parsed wire command; a write takes its payload out of
    /// `cmd` ([`WireCommand::take_arg`]).
    pub fn dispatch(&self, cmd: &mut WireCommand, session: &mut Session) -> Frame {
        // Protocol-level commands, identical for both engines.
        match cmd.name.as_str() {
            "PING" => return Frame::Simple("PONG".to_string()),
            "INFO" => return Frame::Bulk(self.render_info().into_bytes()),
            "SLOWLOG" => return self.slowlog_command(cmd),
            // SHUTDOWN is acknowledged here; the transport layer watches
            // for the name and begins its graceful shutdown after the
            // reply is flushed.
            "SHUTDOWN" => return Frame::Simple("OK".to_string()),
            "TICK" => {
                return match self.tick() {
                    Ok(removed) => Frame::Integer(removed as i64),
                    Err(e) => Frame::Error(format!("ERR {e}")),
                }
            }
            // On the compliance engine the digest summarizes every
            // subject's data and metadata, and computing it serializes the
            // whole keyspace under all shard locks — an authenticated
            // session is required (the raw engine has no auth concept).
            "DIGEST" => {
                if self.gdpr_store().is_some() && session.context().is_none() {
                    return Frame::Error(
                        "NOAUTH authenticate with GDPR.AUTH actor purpose first".to_string(),
                    );
                }
                return Frame::Bulk(self.state_digest_hex().into_bytes());
            }
            // The TCP transport intercepts REPLSYNC before dispatch and
            // turns the connection into a replication stream; seeing it
            // here means the front-end cannot serve one (netsim).
            "REPLSYNC" => {
                return Frame::Error("ERR REPLSYNC is only served on the TCP transport".to_string())
            }
            _ => {}
        }
        // A replica serves reads and redirects every data write to its
        // primary. GDPR.GRANT / GDPR.REVOKE stay local: grants are
        // node-local control-plane state (each replica authenticates its
        // own readers), not replicated data.
        if self.repl.is_replica() && is_write_command(&cmd.name) {
            return Frame::Error(format!(
                "READONLY replica; write commands must go to the primary at {}",
                self.repl.primary_addr().unwrap_or_else(|| "?".to_string())
            ));
        }
        if let Some(parsed) = GdprRequest::from_wire(cmd) {
            let request = match parsed {
                Ok(request) => request,
                Err(e) => return Frame::Error(format!("ERR {e}")),
            };
            return match &self.engine {
                Engine::Kv(_) => {
                    Frame::Error("ERR compliance layer not enabled on this server".to_string())
                }
                Engine::Gdpr(store) => dispatch_gdpr(self, store, request, session),
            };
        }
        match &self.engine {
            Engine::Kv(store) => match translate(cmd) {
                Ok(command) => match store.execute(command) {
                    Ok(reply) => reply_to_frame(reply),
                    Err(e) => store_err_frame(&e),
                },
                Err(message) => Frame::Error(message),
            },
            Engine::Gdpr(store) => dispatch_gdpr_kv(store, cmd, session),
        }
    }
}

/// Whether a wire command mutates data (and must therefore be redirected
/// to the primary when this server is a replica). `GDPR.GRANT`/`REVOKE`
/// are deliberately absent: ACL state is node-local.
fn is_write_command(name: &str) -> bool {
    matches!(
        name,
        "SET"
            | "DEL"
            | "UNLINK"
            | "EXPIRE"
            | "PEXPIRE"
            | "PEXPIREAT"
            | "PERSIST"
            | "HSET"
            | "HMSET"
            | "HDEL"
            | "SADD"
            | "SREM"
            | "FLUSHALL"
            | "FLUSHDB"
            | "GDPR.PUT"
            | "GDPR.SETMETA"
            | "GDPR.ERASE"
            | "GDPR.OBJECT"
    )
}

/// Translate a plain Redis wire command into an engine command, moving
/// the values it carries out of it.
///
/// This is the mapping formerly private to `netsim::server`; it is shared
/// here so the simulated and TCP servers accept exactly the same surface.
///
/// # Errors
///
/// Returns a ready-to-send RESP error message for unknown commands, bad
/// arity and malformed arguments.
pub fn translate(cmd: &mut WireCommand) -> std::result::Result<Command, String> {
    fn arity_err(cmd: &WireCommand, need: usize) -> std::result::Result<Command, String> {
        Err(format!(
            "ERR wrong number of arguments for '{}' ({} given, {need} needed)",
            cmd.name,
            cmd.arity()
        ))
    }
    fn text(cmd: &WireCommand, i: usize) -> std::result::Result<String, String> {
        cmd.arg_str(i)
            .map(str::to_string)
            .map_err(|e| format!("ERR {e}"))
    }
    // A value is moved out of the command, not copied.
    fn payload(cmd: &mut WireCommand, i: usize) -> std::result::Result<Vec<u8>, String> {
        cmd.take_arg(i).map_err(|e| format!("ERR {e}"))
    }
    fn number(cmd: &WireCommand, i: usize) -> std::result::Result<u64, String> {
        cmd.arg_u64(i).map_err(|e| format!("ERR {e}"))
    }

    let command = match cmd.name.as_str() {
        "SET" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::Set {
                key: text(cmd, 0)?,
                value: payload(cmd, 1)?,
            }
        }
        "GET" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::Get { key: text(cmd, 0)? }
        }
        "DEL" | "UNLINK" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::Del { key: text(cmd, 0)? }
        }
        "EXISTS" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::Exists { key: text(cmd, 0)? }
        }
        "PEXPIRE" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::Expire {
                key: text(cmd, 0)?,
                ttl_ms: number(cmd, 1)?,
            }
        }
        "EXPIRE" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::Expire {
                key: text(cmd, 0)?,
                ttl_ms: number(cmd, 1)? * 1_000,
            }
        }
        "PEXPIREAT" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::ExpireAt {
                key: text(cmd, 0)?,
                at_ms: number(cmd, 1)?,
            }
        }
        "PTTL" | "TTL" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::Ttl { key: text(cmd, 0)? }
        }
        "PERSIST" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::Persist { key: text(cmd, 0)? }
        }
        "HSET" => {
            if cmd.arity() != 3 {
                return arity_err(cmd, 3);
            }
            Command::HSet {
                key: text(cmd, 0)?,
                field: text(cmd, 1)?,
                value: payload(cmd, 2)?,
            }
        }
        "HMSET" => {
            if cmd.arity() < 3 || cmd.arity().is_multiple_of(2) {
                return arity_err(cmd, 3);
            }
            let key = text(cmd, 0)?;
            let mut fields = BTreeMap::new();
            let mut i = 1;
            while i < cmd.arity() {
                fields.insert(text(cmd, i)?, payload(cmd, i + 1)?);
                i += 2;
            }
            Command::HSetMulti { key, fields }
        }
        "HGET" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::HGet {
                key: text(cmd, 0)?,
                field: text(cmd, 1)?,
            }
        }
        "HGETALL" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::HGetAll { key: text(cmd, 0)? }
        }
        "HDEL" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::HDel {
                key: text(cmd, 0)?,
                field: text(cmd, 1)?,
            }
        }
        "SADD" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::SAdd {
                key: text(cmd, 0)?,
                member: payload(cmd, 1)?,
            }
        }
        "SREM" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::SRem {
                key: text(cmd, 0)?,
                member: payload(cmd, 1)?,
            }
        }
        "SMEMBERS" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::SMembers { key: text(cmd, 0)? }
        }
        "KEYS" => {
            if cmd.arity() != 1 {
                return arity_err(cmd, 1);
            }
            Command::Keys {
                pattern: text(cmd, 0)?,
            }
        }
        "SCAN" => {
            if cmd.arity() != 2 {
                return arity_err(cmd, 2);
            }
            Command::Scan {
                start: text(cmd, 0)?,
                count: number(cmd, 1)?,
            }
        }
        "DBSIZE" => Command::DbSize,
        "FLUSHALL" | "FLUSHDB" => Command::FlushAll,
        other => return Err(format!("ERR unknown command '{other}'")),
    };
    Ok(command)
}

/// Convert an engine reply into a RESP frame.
#[must_use]
pub fn reply_to_frame(reply: Reply) -> Frame {
    match reply {
        Reply::Ok => Frame::Simple("OK".to_string()),
        Reply::Nil => Frame::Null,
        Reply::Int(i) => Frame::Integer(i),
        Reply::Bytes(b) => Frame::Bulk(b),
        Reply::Array(items) => Frame::Array(items.into_iter().map(Frame::Bulk).collect()),
        Reply::StringArray(keys) => Frame::Array(
            keys.into_iter()
                .map(|k| Frame::Bulk(k.into_bytes()))
                .collect(),
        ),
        Reply::Map(map) => {
            let mut items = Vec::with_capacity(map.len() * 2);
            for (field, value) in map {
                items.push(Frame::Bulk(field.into_bytes()));
                items.push(Frame::Bulk(value));
            }
            Frame::Array(items)
        }
        _ => Frame::Error("ERR unsupported reply".to_string()),
    }
}

fn string_array_frame<I: IntoIterator<Item = String>>(items: I) -> Frame {
    Frame::Array(
        items
            .into_iter()
            .map(|s| Frame::Bulk(s.into_bytes()))
            .collect(),
    )
}

/// Ready-to-send error message for a compliance-layer failure. A write
/// rejected by the engine's `noeviction` maxmemory policy keeps Redis'
/// `-OOM` error class (clients special-case that prefix); everything else
/// is `-ERR`.
fn gdpr_err_string(e: &gdpr_core::GdprError) -> String {
    match e {
        gdpr_core::GdprError::Store(oom @ kvstore::StoreError::Oom { .. }) => format!("OOM {oom}"),
        other => format!("ERR {other}"),
    }
}

fn gdpr_err(e: &gdpr_core::GdprError) -> Frame {
    Frame::Error(gdpr_err_string(e))
}

/// RESP error frame for a raw-engine failure (`-OOM` for maxmemory
/// rejections, `-ERR` otherwise).
fn store_err_frame(e: &kvstore::StoreError) -> Frame {
    match e {
        kvstore::StoreError::Oom { .. } => Frame::Error(format!("OOM {e}")),
        other => Frame::Error(format!("ERR {other}")),
    }
}

/// The session context, or the ready-to-send `NOAUTH` error.
fn require_ctx(session: &Session) -> std::result::Result<&AccessContext, Frame> {
    session.ctx.as_ref().ok_or_else(|| {
        Frame::Error("NOAUTH authenticate with GDPR.AUTH actor purpose first".to_string())
    })
}

/// Metadata attached to data written through the plain Redis surface on
/// the compliance engine: the key doubles as the subject id and the
/// session purpose is whitelisted (the same convention the embedded YCSB
/// adapter uses).
fn default_metadata(key: &str, ctx: &AccessContext) -> PersonalMetadata {
    PersonalMetadata::new(key).with_purpose(&ctx.purpose)
}

fn metadata_from_request(
    subject: &str,
    purposes: &[String],
    ttl_ms: Option<u64>,
) -> PersonalMetadata {
    let mut meta = PersonalMetadata::new(subject);
    for purpose in purposes {
        meta.purposes.insert(purpose.clone());
    }
    if let Some(ttl) = ttl_ms {
        meta = meta.with_ttl_millis(ttl);
    }
    meta
}

/// Render a metadata record as an array of `field=value` bulk strings.
fn metadata_frame(meta: &PersonalMetadata) -> Frame {
    let join = |set: &std::collections::BTreeSet<String>| {
        set.iter().cloned().collect::<Vec<_>>().join(",")
    };
    string_array_frame(vec![
        format!("subject={}", meta.subject),
        format!("purposes={}", join(&meta.purposes)),
        format!("objections={}", join(&meta.objections)),
        format!("origin={}", meta.origin),
        format!("location={}", meta.location),
        format!("created_at_ms={}", meta.created_at_ms),
        format!(
            "expires_at_ms={}",
            meta.expires_at_ms
                .map_or_else(|| "-".to_string(), |at| at.to_string())
        ),
    ])
}

/// Execute a `GDPR.*` request against the compliance layer. Takes the
/// dispatcher itself so the `GDPR.STATS` arm can render the server-wide
/// stats table and latency report.
fn dispatch_gdpr(
    dispatcher: &Dispatcher,
    store: &GdprStore,
    request: GdprRequest,
    session: &mut Session,
) -> Frame {
    match request {
        GdprRequest::Auth { actor, purpose } => {
            if !store.has_grant(&actor, &purpose) {
                return Frame::Error(format!(
                    "ERR no grant covers actor {actor:?} purpose {purpose:?}"
                ));
            }
            session.ctx = Some(AccessContext { actor, purpose });
            Frame::Simple("OK".to_string())
        }
        GdprRequest::Grant { actor, purpose } => {
            store.grant(Grant::new(&actor, &purpose));
            Frame::Simple("OK".to_string())
        }
        GdprRequest::Revoke { actor, purpose } => {
            Frame::Integer(store.revoke(&actor, &purpose) as i64)
        }
        GdprRequest::Stats => string_array_frame(dispatcher.stats_lines()),
        // Everything else acts on personal data (listing a subject's keys
        // reveals where it lives) and needs an authenticated session.
        request => match require_ctx(session) {
            Ok(ctx) => dispatch_gdpr_data(store, request, ctx),
            Err(noauth) => noauth,
        },
    }
}

/// The `GDPR.*` requests that run under the session's access context.
fn dispatch_gdpr_data(store: &GdprStore, request: GdprRequest, ctx: &AccessContext) -> Frame {
    let ok = |result: gdpr_core::Result<()>| match result {
        Ok(()) => Frame::Simple("OK".to_string()),
        Err(e) => gdpr_err(&e),
    };
    match request {
        GdprRequest::Put {
            key,
            subject,
            purposes,
            value,
            ttl_ms,
        } => {
            let meta = metadata_from_request(&subject, &purposes, ttl_ms);
            ok(store.put(ctx, &key, value, meta))
        }
        GdprRequest::GetMeta { key } => match store.metadata(ctx, &key) {
            Ok(Some(meta)) => metadata_frame(&meta),
            Ok(None) => Frame::Null,
            Err(e) => gdpr_err(&e),
        },
        GdprRequest::SetMeta {
            key,
            subject,
            purposes,
            ttl_ms,
        } => {
            let meta = metadata_from_request(&subject, &purposes, ttl_ms);
            ok(store.set_metadata(ctx, &key, meta))
        }
        GdprRequest::KeysOf { subject } => match store.keys_of_subject(&subject) {
            Ok(keys) => string_array_frame(keys),
            Err(e) => gdpr_err(&e),
        },
        GdprRequest::Erase { subject } => match store.right_to_erasure(ctx, &subject) {
            Ok(report) => Frame::Integer(report.erased_keys.len() as i64),
            Err(e) => gdpr_err(&e),
        },
        GdprRequest::Export {
            subject,
            cursor,
            count,
        } => match cursor {
            // Monolithic form: one bulk reply with the whole document.
            None => match store.right_to_portability(ctx, &subject) {
                Ok(json) => Frame::Bulk(json.into_bytes()),
                Err(e) => gdpr_err(&e),
            },
            // Paged form: `[next_cursor, chunk]`, SCAN-style ("0" ends).
            Some(token) => match ExportCursor::parse(&token) {
                None => Frame::Error("ERR invalid export cursor".to_string()),
                Some(resume) => {
                    let count = count.map_or(DEFAULT_EXPORT_PAGE_ITEMS, |n| n as usize);
                    match store.export_page(ctx, &subject, resume.as_ref(), count) {
                        Ok(page) => Frame::Array(vec![
                            Frame::Bulk(
                                page.next_cursor
                                    .map_or_else(|| "0".to_string(), |c| c.encode())
                                    .into_bytes(),
                            ),
                            Frame::Bulk(page.chunk.into_bytes()),
                        ]),
                        Err(e) => gdpr_err(&e),
                    }
                }
            },
        },
        GdprRequest::Object { subject, purpose } => {
            match store.right_to_object(ctx, &subject, &purpose) {
                Ok(report) => Frame::Integer(report.updated_keys.len() as i64),
                Err(e) => gdpr_err(&e),
            }
        }
        // `GdprRequest` is non-exhaustive: a newer wire surface than this
        // server understands is a protocol error, not a panic.
        _ => Frame::Error("ERR unsupported GDPR command".to_string()),
    }
}

/// Execute a plain Redis command against the compliance layer: the subset
/// the remote YCSB adapter needs, each call running through access
/// control, purpose limitation, metadata and audit.
fn dispatch_gdpr_kv(store: &GdprStore, cmd: &mut WireCommand, session: &Session) -> Frame {
    // Commands that need no access context.
    if cmd.name == "DBSIZE" {
        return Frame::Integer(store.len() as i64);
    }
    let ctx = match require_ctx(session) {
        Ok(ctx) => ctx,
        Err(e) => return e,
    };
    fn arg(cmd: &WireCommand, i: usize) -> std::result::Result<&str, String> {
        cmd.arg_str(i).map_err(|e| format!("ERR {e}"))
    }
    let result: std::result::Result<Frame, String> = (|| {
        let frame = match cmd.name.as_str() {
            "SET" => {
                if cmd.arity() != 2 {
                    return Err(format!("ERR wrong number of arguments for '{}'", cmd.name));
                }
                // The value moves out of the command and on into the store.
                let value = cmd.take_arg(1).map_err(|e| format!("ERR {e}"))?;
                let key = arg(cmd, 0)?;
                store
                    .put(ctx, key, value, default_metadata(key, ctx))
                    .map_err(|e| gdpr_err_string(&e))?;
                Frame::Simple("OK".to_string())
            }
            "GET" => {
                if cmd.arity() != 1 {
                    return Err(format!("ERR wrong number of arguments for '{}'", cmd.name));
                }
                match store
                    .get(ctx, arg(cmd, 0)?)
                    .map_err(|e| gdpr_err_string(&e))?
                {
                    Some(value) => Frame::Bulk(value),
                    None => Frame::Null,
                }
            }
            "DEL" | "UNLINK" => {
                if cmd.arity() != 1 {
                    return Err(format!("ERR wrong number of arguments for '{}'", cmd.name));
                }
                let existed = store
                    .delete(ctx, arg(cmd, 0)?)
                    .map_err(|e| gdpr_err_string(&e))?;
                Frame::Integer(i64::from(existed))
            }
            "HMSET" => {
                if cmd.arity() < 3 || cmd.arity().is_multiple_of(2) {
                    return Err(format!("ERR wrong number of arguments for '{}'", cmd.name));
                }
                let key = arg(cmd, 0)?;
                let mut fields = BTreeMap::new();
                let mut i = 1;
                while i < cmd.arity() {
                    fields.insert(
                        arg(cmd, i)?.to_string(),
                        cmd.arg_bytes(i + 1)
                            .map_err(|e| format!("ERR {e}"))?
                            .to_vec(),
                    );
                    i += 2;
                }
                store
                    .put_record(ctx, key, &fields, default_metadata(key, ctx))
                    .map_err(|e| gdpr_err_string(&e))?;
                Frame::Simple("OK".to_string())
            }
            "HGETALL" => {
                if cmd.arity() != 1 {
                    return Err(format!("ERR wrong number of arguments for '{}'", cmd.name));
                }
                match store
                    .get_record(ctx, arg(cmd, 0)?)
                    .map_err(|e| gdpr_err_string(&e))?
                {
                    Some(map) => reply_to_frame(Reply::Map(map)),
                    None => Frame::Null,
                }
            }
            "SCAN" => {
                if cmd.arity() != 2 {
                    return Err(format!("ERR wrong number of arguments for '{}'", cmd.name));
                }
                let count = cmd.arg_u64(1).map_err(|e| format!("ERR {e}"))? as usize;
                let keys = store
                    .scan(ctx, arg(cmd, 0)?, count)
                    .map_err(|e| gdpr_err_string(&e))?;
                string_array_frame(keys)
            }
            other => {
                return Err(format!(
                    "ERR command '{other}' is not available under the compliance layer"
                ))
            }
        };
        Ok(frame)
    })();
    match result {
        Ok(frame) => frame,
        Err(message) => Frame::Error(message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::policy::CompliancePolicy;
    use kvstore::config::StoreConfig;

    fn kv_dispatcher() -> Dispatcher {
        Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap())
    }

    fn gdpr_dispatcher() -> (Dispatcher, Arc<GdprStore>) {
        let store = Arc::new(GdprStore::open_in_memory(CompliancePolicy::eventual()).unwrap());
        (Dispatcher::gdpr(Arc::clone(&store)), store)
    }

    fn authed_session(dispatcher: &Dispatcher) -> Session {
        let mut session = Session::new();
        assert_eq!(
            dispatcher.handle_frame(
                &GdprRequest::Grant {
                    actor: "app".into(),
                    purpose: "billing".into()
                }
                .to_frame(),
                &mut session,
            ),
            Frame::Simple("OK".into())
        );
        assert_eq!(
            dispatcher.handle_frame(
                &GdprRequest::Auth {
                    actor: "app".into(),
                    purpose: "billing".into()
                }
                .to_frame(),
                &mut session,
            ),
            Frame::Simple("OK".into())
        );
        session
    }

    #[test]
    fn kv_engine_serves_the_plain_surface() {
        let d = kv_dispatcher();
        let mut session = Session::new();
        assert_eq!(
            d.handle_frame(&Frame::command(["PING"]), &mut session),
            Frame::Simple("PONG".into())
        );
        assert_eq!(
            d.handle_frame(&Frame::command(["SET", "k", "v"]), &mut session),
            Frame::Simple("OK".into())
        );
        assert_eq!(
            d.handle_frame(&Frame::command(["GET", "k"]), &mut session),
            Frame::Bulk(b"v".to_vec())
        );
        assert_eq!(d.stats().requests, 3);
        assert_eq!(d.stats().errors, 0);
        assert_eq!(d.raw_engine().len(), 1);
        assert!(d.gdpr_store().is_none());
    }

    #[test]
    fn kv_engine_rejects_gdpr_commands() {
        let d = kv_dispatcher();
        let mut session = Session::new();
        let reply = d.handle_frame(&GdprRequest::Stats.to_frame(), &mut session);
        assert!(matches!(reply, Frame::Error(_)));
        assert_eq!(d.stats().errors, 1);
    }

    #[test]
    fn gdpr_engine_requires_auth_for_data_commands() {
        let (d, _) = gdpr_dispatcher();
        let mut session = Session::new();
        let reply = d.handle_frame(&Frame::command(["SET", "k", "v"]), &mut session);
        match reply {
            Frame::Error(message) => assert!(message.starts_with("NOAUTH"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        // Subject-data reads through the GDPR surface are guarded too:
        // KEYSOF would enumerate where a subject's personal data lives.
        let reply = d.handle_frame(
            &GdprRequest::KeysOf {
                subject: "alice".into(),
            }
            .to_frame(),
            &mut session,
        );
        assert!(
            matches!(reply, Frame::Error(ref m) if m.starts_with("NOAUTH")),
            "{reply:?}"
        );
        // DBSIZE and PING stay open (liveness probes).
        assert_eq!(
            d.handle_frame(&Frame::command(["DBSIZE"]), &mut session),
            Frame::Integer(0)
        );
    }

    #[test]
    fn setmeta_cannot_wash_away_an_objection() {
        let (d, store) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        let put = GdprRequest::Put {
            key: "k".into(),
            subject: "alice".into(),
            purposes: vec!["billing".into()],
            value: b"v".to_vec(),
            ttl_ms: None,
        };
        assert_eq!(
            d.handle_frame(&put.to_frame(), &mut session),
            Frame::Simple("OK".into())
        );
        assert_eq!(
            d.handle_frame(
                &GdprRequest::Object {
                    subject: "alice".into(),
                    purpose: "marketing".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Integer(1)
        );
        // Re-stamping the metadata over the wire keeps the objection.
        let setmeta = GdprRequest::SetMeta {
            key: "k".into(),
            subject: "alice".into(),
            purposes: vec!["billing".into()],
            ttl_ms: None,
        };
        assert_eq!(
            d.handle_frame(&setmeta.to_frame(), &mut session),
            Frame::Simple("OK".into())
        );
        let ctx = AccessContext::new("app", "billing");
        let meta = store.metadata(&ctx, "k").unwrap().unwrap();
        assert!(meta.objections.contains("marketing"), "{meta:?}");
    }

    #[test]
    fn gdpr_auth_rejects_unknown_actor() {
        let (d, _) = gdpr_dispatcher();
        let mut session = Session::new();
        let reply = d.handle_frame(
            &GdprRequest::Auth {
                actor: "ghost".into(),
                purpose: "billing".into(),
            }
            .to_frame(),
            &mut session,
        );
        assert!(matches!(reply, Frame::Error(_)));
        assert!(session.context().is_none());
    }

    #[test]
    fn gdpr_engine_runs_kv_commands_through_compliance() {
        let (d, store) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        assert_eq!(
            d.handle_frame(&Frame::command(["SET", "user:1", "alice"]), &mut session),
            Frame::Simple("OK".into())
        );
        assert_eq!(
            d.handle_frame(&Frame::command(["GET", "user:1"]), &mut session),
            Frame::Bulk(b"alice".to_vec())
        );
        // The write carried metadata: the key doubles as its subject.
        assert_eq!(store.keys_of_subject("user:1").unwrap(), vec!["user:1"]);
        assert_eq!(
            d.handle_frame(&Frame::command(["DEL", "user:1"]), &mut session),
            Frame::Integer(1)
        );
        assert!(store.keys_of_subject("user:1").unwrap().is_empty());
        assert!(store.stats().allowed_ops > 0);
    }

    #[test]
    fn gdpr_records_roundtrip_with_scan_and_dbsize() {
        let (d, _) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        assert_eq!(
            d.handle_frame(
                &Frame::command(["HMSET", "user:1", "f0", "a", "f1", "b"]),
                &mut session
            ),
            Frame::Simple("OK".into())
        );
        match d.handle_frame(&Frame::command(["HGETALL", "user:1"]), &mut session) {
            Frame::Array(items) => assert_eq!(items.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            d.handle_frame(&Frame::command(["SCAN", "", "10"]), &mut session),
            Frame::Array(vec![Frame::Bulk(b"user:1".to_vec())])
        );
        assert_eq!(
            d.handle_frame(&Frame::command(["DBSIZE"]), &mut session),
            Frame::Integer(1)
        );
    }

    #[test]
    fn gdpr_wire_surface_covers_metadata_and_rights() {
        let (d, _) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        let put = GdprRequest::Put {
            key: "user:alice:email".into(),
            subject: "alice".into(),
            purposes: vec!["billing".into(), "analytics".into()],
            value: b"a@example.com".to_vec(),
            ttl_ms: None,
        };
        assert_eq!(
            d.handle_frame(&put.to_frame(), &mut session),
            Frame::Simple("OK".into())
        );
        // A key and its metadata are one key.
        let dbsize = |session: &mut Session| d.handle_frame(&Frame::command(["DBSIZE"]), session);
        assert_eq!(dbsize(&mut session), Frame::Integer(1));

        // Metadata read.
        match d.handle_frame(
            &GdprRequest::GetMeta {
                key: "user:alice:email".into(),
            }
            .to_frame(),
            &mut session,
        ) {
            Frame::Array(items) => {
                assert!(
                    items.contains(&Frame::Bulk(b"subject=alice".to_vec())),
                    "{items:?}"
                );
                assert!(
                    items.contains(&Frame::Bulk(b"purposes=analytics,billing".to_vec())),
                    "{items:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        // Metadata replace (subject transfer) and index consistency.
        let setmeta = GdprRequest::SetMeta {
            key: "user:alice:email".into(),
            subject: "bob".into(),
            purposes: vec!["billing".into()],
            ttl_ms: None,
        };
        assert_eq!(
            d.handle_frame(&setmeta.to_frame(), &mut session),
            Frame::Simple("OK".into())
        );
        assert_eq!(
            d.handle_frame(
                &GdprRequest::KeysOf {
                    subject: "bob".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Array(vec![Frame::Bulk(b"user:alice:email".to_vec())])
        );

        // Objection, export, erasure.
        assert_eq!(
            d.handle_frame(
                &GdprRequest::Object {
                    subject: "bob".into(),
                    purpose: "analytics".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Integer(1)
        );
        match d.handle_frame(
            &GdprRequest::Export {
                subject: "bob".into(),
                cursor: None,
                count: None,
            }
            .to_frame(),
            &mut session,
        ) {
            Frame::Bulk(json) => {
                let json = String::from_utf8(json).unwrap();
                assert!(json.contains("\"subject\":\"bob\""), "{json}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            d.handle_frame(
                &GdprRequest::Erase {
                    subject: "bob".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Integer(1)
        );
        assert_eq!(
            d.handle_frame(
                &GdprRequest::KeysOf {
                    subject: "bob".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Array(vec![])
        );
        assert_eq!(dbsize(&mut session), Frame::Integer(0));

        // Stats surface: the compliance counters plus the per-segment
        // journal lines (the in-memory store persists to an in-memory AOF).
        match d.handle_frame(&GdprRequest::Stats.to_frame(), &mut session) {
            Frame::Array(items) => {
                assert!(items.len() > 5, "{items:?}");
                let text: Vec<String> = items
                    .iter()
                    .map(|f| match f {
                        Frame::Bulk(b) => String::from_utf8_lossy(b).into_owned(),
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect();
                for needle in [
                    "gdpr_allowed_ops=",
                    "ttl_index=wheel",
                    "ttl_entries=",
                    "ttl_wheel_stale_dropped=",
                    "aof_segments=1",
                    "aof_unsynced_records=",
                    "aof_seg0=records=",
                    "mem_bytes=",
                    "maxmemory=0",
                    "maxmemory_policy=noeviction",
                    "evicted_keys=",
                    "gdpr_cache_hits=",
                    "gdpr_cache_invalidations=",
                ] {
                    assert!(
                        text.iter().any(|l| l.starts_with(needle)),
                        "{needle}: {text:?}"
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn info_renders_engine_journal_and_gdpr_sections() {
        let (d, _) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        assert_eq!(
            d.handle_frame(&Frame::command(["SET", "user:1", "v"]), &mut session),
            Frame::Simple("OK".into())
        );
        let info = match d.handle_frame(&Frame::command(["INFO"]), &mut session) {
            Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        for needle in [
            "# Stats",
            "engine_commands_processed:",
            "# Expiry",
            "ttl_index:wheel",
            "ttl_wheel_cascades:",
            "# Aof",
            "aof_segments:",
            "aof_group_commits:",
            "aof_epoch:",
            "aof_seg0:records=",
            "# Memory",
            "mem_bytes:",
            "maxmemory_policy:noeviction",
            "# Gdpr",
            "gdpr_allowed_ops:",
            "gdpr_hot_cache_enabled:",
            "gdpr_cache_hits:",
            "gdpr_cache_invalidations:",
            "# Replication",
            "repl_role:primary",
            "repl_connected_replicas:0",
        ] {
            assert!(info.contains(needle), "INFO missing {needle}: {info}");
        }
        // The raw engine serves INFO too, without the GDPR section.
        let raw = kv_dispatcher();
        let info = match raw.handle_frame(&Frame::command(["INFO"]), &mut Session::new()) {
            Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(info.contains("# Stats"));
        assert!(!info.contains("# Gdpr"));
    }

    #[test]
    fn oom_keeps_its_redis_error_class() {
        // One byte of maxmemory under `noeviction`: the first SET lands
        // (the shard was empty), every later growth command is rejected
        // with the `-OOM` class Redis clients special-case.
        let d = Dispatcher::kv(KvStore::open(StoreConfig::in_memory().max_memory(1)).unwrap());
        let mut session = Session::new();
        assert_eq!(
            d.handle_frame(&Frame::command(["SET", "k", "v"]), &mut session),
            Frame::Simple("OK".into())
        );
        match d.handle_frame(&Frame::command(["SET", "k", "v2"]), &mut session) {
            Frame::Error(message) => assert!(message.starts_with("OOM "), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        // Reads and deletes stay allowed over the ceiling.
        assert_eq!(
            d.handle_frame(&Frame::command(["GET", "k"]), &mut session),
            Frame::Bulk(b"v".to_vec())
        );
        assert_eq!(
            d.handle_frame(&Frame::command(["DEL", "k"]), &mut session),
            Frame::Integer(1)
        );
        // The compliance layer's error wrapper preserves the class.
        let wrapped = gdpr_core::GdprError::from(kvstore::StoreError::Oom { used: 9, limit: 1 });
        assert!(gdpr_err_string(&wrapped).starts_with("OOM "), "{wrapped}");
        assert!(matches!(gdpr_err(&wrapped), Frame::Error(m) if m.starts_with("OOM ")));
    }

    #[test]
    fn protocol_commands_work_on_both_engines() {
        let (gdpr, _) = gdpr_dispatcher();
        for d in [kv_dispatcher(), gdpr] {
            let mut session = Session::new();
            assert_eq!(
                d.handle_frame(&Frame::command(["PING"]), &mut session),
                Frame::Simple("PONG".into())
            );
            assert_eq!(
                d.handle_frame(&Frame::command(["SHUTDOWN"]), &mut session),
                Frame::Simple("OK".into())
            );
            assert!(matches!(
                d.handle_frame(&Frame::command(["TICK"]), &mut session),
                Frame::Integer(_)
            ));
        }
    }

    #[test]
    fn error_counting_matches_the_simulated_server_contract() {
        let d = kv_dispatcher();
        let mut session = Session::new();
        for frame in [
            Frame::command(["BOGUS"]),
            Frame::command(["GET"]),
            Frame::command(["SET", "only-key"]),
            Frame::Integer(3),
        ] {
            assert!(matches!(
                d.handle_frame(&frame, &mut session),
                Frame::Error(_)
            ));
        }
        assert_eq!(d.stats().errors, 4);
        assert_eq!(d.stats().requests, 4);
    }

    #[test]
    fn replica_mode_rejects_writes_with_a_redirect() {
        let (d, _) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        d.replication().set_replica_of("10.0.0.1:6379");
        for frame in [
            Frame::command(["SET", "k", "v"]),
            Frame::command(["DEL", "k"]),
            Frame::command(["HMSET", "k", "f", "v"]),
            GdprRequest::Put {
                key: "k".into(),
                subject: "alice".into(),
                purposes: vec!["billing".into()],
                value: b"v".to_vec(),
                ttl_ms: None,
            }
            .to_frame(),
            GdprRequest::Erase {
                subject: "alice".into(),
            }
            .to_frame(),
        ] {
            match d.handle_frame(&frame, &mut session) {
                Frame::Error(message) => {
                    assert!(message.starts_with("READONLY"), "{message}");
                    assert!(message.contains("10.0.0.1:6379"), "{message}");
                }
                other => panic!("write must be redirected, got {other:?}"),
            }
        }
        // Reads, liveness probes and node-local ACL control stay served.
        assert_eq!(
            d.handle_frame(&Frame::command(["GET", "missing"]), &mut session),
            Frame::Null
        );
        assert_eq!(
            d.handle_frame(&Frame::command(["PING"]), &mut session),
            Frame::Simple("PONG".into())
        );
        assert_eq!(
            d.handle_frame(
                &GdprRequest::Grant {
                    actor: "reader".into(),
                    purpose: "support".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Simple("OK".into())
        );
        // The replica role is visible on the stats surfaces.
        let info = match d.handle_frame(&Frame::command(["INFO"]), &mut session) {
            Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(info.contains("role:replica"), "{info}");
        assert!(info.contains("primary:10.0.0.1:6379"), "{info}");
        assert!(info.contains("repl_lag_records:"), "{info}");
        match d.handle_frame(&GdprRequest::Stats.to_frame(), &mut session) {
            Frame::Array(items) => {
                let text: Vec<String> = items
                    .iter()
                    .map(|f| match f {
                        Frame::Bulk(b) => String::from_utf8_lossy(b).into_owned(),
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect();
                assert!(text.iter().any(|l| l == "repl_role=replica"), "{text:?}");
                assert!(
                    text.iter().any(|l| l.starts_with("repl_lag_records=")),
                    "{text:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn digest_is_equal_iff_state_is_equal() {
        let a = kv_dispatcher();
        let b = kv_dispatcher();
        let mut session = Session::new();
        let digest = |d: &Dispatcher, session: &mut Session| match d
            .handle_frame(&Frame::command(["DIGEST"]), session)
        {
            Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(digest(&a, &mut session), digest(&b, &mut session));
        a.handle_frame(&Frame::command(["SET", "k", "v"]), &mut session);
        assert_ne!(digest(&a, &mut session), digest(&b, &mut session));
        b.handle_frame(&Frame::command(["SET", "k", "v"]), &mut session);
        assert_eq!(digest(&a, &mut session), digest(&b, &mut session));
        // 64 lowercase hex characters (SHA-256).
        let d = digest(&a, &mut session);
        assert_eq!(d.len(), 64);
        assert!(d.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn digest_requires_auth_on_the_compliance_engine() {
        let (d, _) = gdpr_dispatcher();
        let reply = d.handle_frame(&Frame::command(["DIGEST"]), &mut Session::new());
        assert!(
            matches!(reply, Frame::Error(ref m) if m.starts_with("NOAUTH")),
            "{reply:?}"
        );
        let mut session = authed_session(&d);
        assert!(matches!(
            d.handle_frame(&Frame::command(["DIGEST"]), &mut session),
            Frame::Bulk(_)
        ));
    }

    #[test]
    fn replsync_is_refused_off_the_tcp_transport() {
        let d = kv_dispatcher();
        let reply = d.handle_frame(&Frame::command(["REPLSYNC"]), &mut Session::new());
        assert!(
            matches!(reply, Frame::Error(ref m) if m.contains("TCP")),
            "{reply:?}"
        );
    }

    #[test]
    fn revoke_closes_the_wire_session_path() {
        let (d, store) = gdpr_dispatcher();
        let mut session = authed_session(&d);
        assert_eq!(
            d.handle_frame(
                &GdprRequest::Revoke {
                    actor: "app".into(),
                    purpose: "billing".into()
                }
                .to_frame(),
                &mut session
            ),
            Frame::Integer(1)
        );
        // The session context survives, but per-operation checks now deny.
        assert!(matches!(
            d.handle_frame(&Frame::command(["SET", "k", "v"]), &mut session),
            Frame::Error(_)
        ));
        assert!(store.stats().denied_ops > 0);
    }
}
