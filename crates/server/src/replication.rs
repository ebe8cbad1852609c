//! Primary → replica streaming replication.
//!
//! The GDPR-critical property replication must preserve is that an
//! obligation discharged on the primary — above all an erasure — reaches
//! *every* copy of the datum: the paper's compliance costs are costs per
//! copy, and a deployment that serves reads from replicas must honor
//! `GDPR.ERASE` and retention expiry on all of them ("Analyzing the Impact
//! of GDPR on Storage Systems", §4.3). The design here leans on what the
//! journal already provides:
//!
//! * every journaled engine command carries a **global sequence number**
//!   (the per-shard AOF of PR 3), which doubles as the replication offset;
//! * a replica opens an ordinary RESP connection and sends `REPLSYNC`; the
//!   primary answers with a **full sync** — a portable snapshot blob plus
//!   the journal watermark captured atomically with it — and then *pushes*
//!   the live journal stream over the same connection (records merged by
//!   sequence across segments, exactly the linearization journal replay
//!   uses);
//! * the replica applies each record through the normal engine dispatch
//!   path (and, under the compliance layer, keeps the metadata index
//!   bracketed with the engine write via
//!   [`gdpr_core::store::GdprStore::apply_replicated`]), so an `ERASE` or
//!   an expiry `DEL` on the primary removes the value *and its metadata
//!   postings* on the replica within the propagation window;
//! * replicas serve reads and reject writes with a redirect error; their
//!   lag (primary watermark minus applied sequence) is on the wire via
//!   `INFO` and `GDPR.STATS`, and `tests/replication.rs` checks erasure
//!   propagation end to end.
//!
//! A primary that cannot serve a replica's cursor any more — the bounded
//! in-memory backlog was overrun, or a journal rewrite renumbered the
//! stream (epoch bump) — sends a `REPLLOST` error; the replica reconnects
//! and full-resyncs. The same recovery path covers a crashed/restarted
//! primary: the replica's connect loop retries until the primary is back,
//! then runs a fresh `REPLSYNC` against the replayed journal.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvstore::commands::Command;
use parking_lot::Mutex;
use resp::encode::encode_frame;
use resp::repl::{ReplFrame, REPLLOST, REPLSYNC};
use resp::Frame;

use crate::client::TcpRemoteClient;
use crate::dispatch::Dispatcher;
use crate::ServerError;

/// Most records pushed per feeder poll (bounds the burst a slow replica
/// must buffer).
const FEEDER_BATCH: usize = 512;
/// How long the feeder tolerates a sequence gap (an append that allocated
/// its sequence number but has not reached the backlog) before declaring
/// the stream lost. Gaps close in microseconds unless a writer died.
const GAP_TIMEOUT: Duration = Duration::from_secs(1);
/// Replica-side read timeout; heartbeats arrive every feeder poll, so a
/// silent stream this long means the primary is gone.
const REPLICA_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Backoff between replica reconnect attempts.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// Shared replication state of one server process: the role, the stream
/// counters, and — on a replica — the connection/lag gauges. One instance
/// is shared by the dispatcher (which renders it into `INFO` and
/// `GDPR.STATS` and enforces read-only mode), the TCP feeder threads and
/// the replica runner.
#[derive(Debug, Default)]
pub struct ReplicationState {
    is_replica: AtomicBool,
    primary_addr: Mutex<Option<String>>,
    /// Replica: currently attached to the primary's stream.
    connected: AtomicBool,
    /// Replica: highest journal sequence applied locally.
    applied_seq: AtomicU64,
    /// Replica: the primary's watermark as of the last record/heartbeat.
    primary_seq: AtomicU64,
    /// Replica: full syncs run (1 = the initial sync; more mean the stream
    /// was lost and re-established).
    full_syncs: AtomicU64,
    /// Replica: records applied from the stream.
    records_applied: AtomicU64,
    /// Primary: replicas currently attached.
    connected_replicas: AtomicUsize,
    /// Primary: records pushed to replicas (all streams summed).
    records_streamed: AtomicU64,
    /// Primary: streams terminated with `REPLLOST` (cursor unserviceable).
    lost_streams: AtomicU64,
}

/// A point-in-time copy of [`ReplicationState`] for rendering and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationInfo {
    /// `true` when this server is a replica.
    pub is_replica: bool,
    /// The primary address a replica follows.
    pub primary_addr: Option<String>,
    /// Replica: attached to the stream right now.
    pub connected: bool,
    /// Replica: highest sequence applied locally.
    pub applied_seq: u64,
    /// Replica: the primary's watermark as last observed.
    pub primary_seq: u64,
    /// Replica: applied-vs-watermark distance in records.
    pub lag_records: u64,
    /// Replica: full syncs run.
    pub full_syncs: u64,
    /// Replica: records applied from the stream.
    pub records_applied: u64,
    /// Primary: replicas currently attached.
    pub connected_replicas: usize,
    /// Primary: records streamed to replicas.
    pub records_streamed: u64,
    /// Primary: streams terminated with `REPLLOST`.
    pub lost_streams: u64,
}

impl ReplicationState {
    /// Switch this server into replica mode, following `primary`.
    pub fn set_replica_of(&self, primary: &str) {
        *self.primary_addr.lock() = Some(primary.to_string());
        self.is_replica.store(true, Ordering::SeqCst);
    }

    /// Whether this server is a replica (writes must be redirected).
    #[must_use]
    pub fn is_replica(&self) -> bool {
        self.is_replica.load(Ordering::SeqCst)
    }

    /// The primary this replica follows, if in replica mode.
    #[must_use]
    pub fn primary_addr(&self) -> Option<String> {
        self.primary_addr.lock().clone()
    }

    /// Point-in-time copy of every gauge.
    #[must_use]
    pub fn info(&self) -> ReplicationInfo {
        let applied_seq = self.applied_seq.load(Ordering::Relaxed);
        let primary_seq = self.primary_seq.load(Ordering::Relaxed);
        ReplicationInfo {
            is_replica: self.is_replica(),
            primary_addr: self.primary_addr(),
            connected: self.connected.load(Ordering::Relaxed),
            applied_seq,
            primary_seq,
            lag_records: primary_seq.saturating_sub(applied_seq),
            full_syncs: self.full_syncs.load(Ordering::Relaxed),
            records_applied: self.records_applied.load(Ordering::Relaxed),
            connected_replicas: self.connected_replicas.load(Ordering::Relaxed),
            records_streamed: self.records_streamed.load(Ordering::Relaxed),
            lost_streams: self.lost_streams.load(Ordering::Relaxed),
        }
    }
}

/// Primary side: serve one replication stream over `stream`. Called by the
/// connection thread when it sees `REPLSYNC`; the connection belongs to
/// the stream from then on (the replica sends nothing further).
pub(crate) fn serve_stream(
    stream: &mut TcpStream,
    dispatcher: &Dispatcher,
    shutdown: &AtomicBool,
    poll: Duration,
) {
    let engine = dispatcher.raw_engine();
    let state = dispatcher.replication();
    // Register the stream FIRST: appends are only mirrored into the
    // tailing backlog while a stream is registered, and the watermark
    // below is captured under every shard lock, i.e. after registration
    // became visible to all writers. Refusing up front (no journal, or
    // backlog=0) beats handing out a cursor that can never be served —
    // that would put the replica into a full-resync storm.
    let Some(_stream_guard) = engine.begin_repl_stream() else {
        let _ = stream.write_all(&encode_frame(&Frame::Error(
            "ERR replication requires a journal with a tailing backlog (start the \
             primary with aof=mem or a path, and backlog > 0)"
                .to_string(),
        )));
        return;
    };
    let Some((snapshot, watermark)) = engine.replication_snapshot() else {
        let _ = stream.write_all(&encode_frame(&Frame::Error(
            "ERR replication requires a journal (start the primary with aof=mem or a path)"
                .to_string(),
        )));
        return;
    };
    let full_sync = ReplFrame::FullSync {
        epoch: watermark.epoch,
        last_seq: watermark.last_seq,
        snapshot,
    };
    if stream
        .write_all(&encode_frame(&full_sync.to_frame()))
        .is_err()
    {
        return;
    }

    state.connected_replicas.fetch_add(1, Ordering::SeqCst);
    let result = feed_stream(stream, dispatcher, shutdown, poll, watermark.epoch, {
        watermark.last_seq
    });
    state.connected_replicas.fetch_sub(1, Ordering::SeqCst);
    if let StreamEnd::Lost(reason) = result {
        state.lost_streams.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&encode_frame(&Frame::Error(format!("{REPLLOST} {reason}"))));
    }
}

enum StreamEnd {
    /// Connection closed, server shutdown, or clean exit.
    Closed,
    /// The cursor became unserviceable; the replica must full-resync.
    Lost(&'static str),
}

fn feed_stream(
    stream: &mut TcpStream,
    dispatcher: &Dispatcher,
    shutdown: &AtomicBool,
    poll: Duration,
    epoch: u64,
    mut cursor: u64,
) -> StreamEnd {
    let engine = dispatcher.raw_engine();
    let state = dispatcher.replication();
    let mut gap_since: Option<Instant> = None;
    while !shutdown.load(Ordering::SeqCst) {
        let Some(tail) = engine.repl_tail(epoch, cursor, FEEDER_BATCH) else {
            return StreamEnd::Closed;
        };
        if tail.lost {
            return StreamEnd::Lost("cursor outran the backlog or the journal was rewritten");
        }
        if tail.records.is_empty() {
            if tail.gapped {
                let since = *gap_since.get_or_insert_with(Instant::now);
                if since.elapsed() > GAP_TIMEOUT {
                    return StreamEnd::Lost("journal sequence gap did not close");
                }
            } else {
                gap_since = None;
            }
            let heartbeat = ReplFrame::Heartbeat {
                last_seq: tail.last_seq,
            };
            if stream
                .write_all(&encode_frame(&heartbeat.to_frame()))
                .is_err()
            {
                return StreamEnd::Closed;
            }
            std::thread::sleep(poll);
            continue;
        }
        gap_since = None;
        let mut out = Vec::new();
        for (seq, record) in tail.records {
            cursor = seq;
            out.extend_from_slice(&encode_frame(
                &ReplFrame::Record {
                    seq,
                    watermark: tail.last_seq,
                    record,
                }
                .to_frame(),
            ));
            state.records_streamed.fetch_add(1, Ordering::Relaxed);
        }
        if stream.write_all(&out).is_err() {
            return StreamEnd::Closed;
        }
    }
    StreamEnd::Closed
}

/// Handle to a running replica runner; joins the thread on [`Self::stop`].
#[derive(Debug)]
pub struct ReplicaHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReplicaHandle {
    /// Signal the runner to stop and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Replica side: start following `primary`. The dispatcher is switched
/// into replica mode (writes rejected with a redirect) and a background
/// thread keeps the stream alive: connect → `REPLSYNC` → apply the full
/// sync → apply records as they arrive; on any disconnect, backlog
/// overrun or journal rewrite it reconnects and full-resyncs.
#[must_use]
pub fn start_replica(dispatcher: Dispatcher, primary: &str) -> ReplicaHandle {
    dispatcher.replication().set_replica_of(primary);
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let primary = primary.to_string();
    let thread = std::thread::Builder::new()
        .name("gdpr-replica".to_string())
        .spawn(move || {
            let state = Arc::clone(dispatcher.replication());
            while !thread_stop.load(Ordering::SeqCst) {
                let _ = replicate_once(&dispatcher, &primary, &thread_stop);
                state.connected.store(false, Ordering::SeqCst);
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(RECONNECT_BACKOFF);
            }
        })
        .expect("spawn replica thread");
    ReplicaHandle {
        stop,
        thread: Some(thread),
    }
}

/// One stream lifetime: full sync, then apply until the stream ends.
fn replicate_once(dispatcher: &Dispatcher, primary: &str, stop: &AtomicBool) -> crate::Result<()> {
    let state = dispatcher.replication();
    let addr: SocketAddr = primary
        .to_socket_addrs()
        .map_err(ServerError::Io)?
        .next()
        .ok_or_else(|| ServerError::Server("primary address resolves to nothing".to_string()))?;
    let mut client = TcpRemoteClient::connect_timeout(&addr, REPLICA_READ_TIMEOUT)?;
    client.send_batch(&[Frame::command([REPLSYNC])])?;

    // Full sync: restore the snapshot, then tail from its watermark.
    let first = client.read_replies(1)?.pop().ok_or(ServerError::Closed)?;
    if let Frame::Error(message) = &first {
        return Err(ServerError::Server(message.clone()));
    }
    let ReplFrame::FullSync {
        epoch: _,
        last_seq,
        snapshot,
    } = ReplFrame::from_frame(&first)?
    else {
        return Err(ServerError::Server(
            "primary did not open with FULLSYNC".to_string(),
        ));
    };
    // Counted and marked attached before the snapshot lands, so nobody
    // can read the synced keyspace next to gauges that predate the sync.
    state.full_syncs.fetch_add(1, Ordering::SeqCst);
    state.connected.store(true, Ordering::SeqCst);
    dispatcher
        .raw_engine()
        .restore_snapshot(&snapshot)
        .map_err(|e| ServerError::Server(e.to_string()))?;
    if let Some(gdpr) = dispatcher.gdpr_store() {
        gdpr.rebuild_index()
            .map_err(|e| ServerError::Server(e.to_string()))?;
    }
    state.applied_seq.store(last_seq, Ordering::SeqCst);
    state.primary_seq.store(last_seq, Ordering::SeqCst);

    // Stream phase: apply records in sequence order as they are pushed.
    while !stop.load(Ordering::SeqCst) {
        let frame = client.read_replies(1)?.pop().ok_or(ServerError::Closed)?;
        if let Frame::Error(message) = &frame {
            // REPLLOST (and anything else fatal): reconnect + full resync.
            return Err(ServerError::Server(message.clone()));
        }
        match ReplFrame::from_frame(&frame)? {
            ReplFrame::Record {
                seq,
                watermark,
                record,
            } => {
                // Surface the primary's watermark *before* applying: lag
                // must read truthfully while a burst is still draining.
                state.primary_seq.fetch_max(watermark, Ordering::SeqCst);
                apply_record(dispatcher, &record)?;
                state.applied_seq.store(seq, Ordering::SeqCst);
                state.records_applied.fetch_add(1, Ordering::Relaxed);
            }
            ReplFrame::Heartbeat { last_seq } => {
                state.primary_seq.fetch_max(last_seq, Ordering::SeqCst);
            }
            ReplFrame::FullSync { .. } => {
                return Err(ServerError::Server(
                    "unexpected FULLSYNC mid-stream".to_string(),
                ));
            }
        }
    }
    Ok(())
}

/// Apply one streamed journal record through the normal dispatch path:
/// engine command execution, plus metadata-index maintenance under the
/// compliance layer.
fn apply_record(dispatcher: &Dispatcher, record: &[u8]) -> crate::Result<()> {
    let cmd = Command::decode(record).map_err(|e| ServerError::Server(e.to_string()))?;
    // Read-log records (the GDPR monitoring retrofit journals reads too)
    // carry no state change.
    if !cmd.is_write() {
        return Ok(());
    }
    let applied = std::time::Instant::now();
    let result = apply_write(dispatcher, cmd);
    dispatcher.metrics().record_repl_apply(applied.elapsed());
    result
}

/// The state-changing half of [`apply_record`], split out so apply time
/// (decode and read-log skips excluded) lands in the `repl_apply` stage
/// histogram.
fn apply_write(dispatcher: &Dispatcher, cmd: Command) -> crate::Result<()> {
    match dispatcher.gdpr_store() {
        Some(gdpr) => gdpr
            .apply_replicated(cmd)
            .map(|_| ())
            .map_err(|e| ServerError::Server(e.to_string())),
        None => dispatcher
            .raw_engine()
            .execute(cmd)
            .map(|_| ())
            .map_err(|e| ServerError::Server(e.to_string())),
    }
}
