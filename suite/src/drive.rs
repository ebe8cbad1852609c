//! Executing chunks of ops at each level of the stack, timing every call
//! with `Instant` (exact nanoseconds, not histogram buckets) and checking
//! every reply against the stream's model.
//!
//! The levels, top to bottom: full TCP ([`exec_tcp`]), the dispatcher with
//! the RESP codec on either side ([`DispatchCaller`]), direct `GdprStore`
//! calls ([`CoreCaller`]) and `KvStore::execute` on a raw engine
//! ([`exec_kv`]). The untraced run uses only the top level of its workload;
//! the traced run rotates through all of them.

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdpr_core::store::{AccessContext, GdprStore};
use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::{Dispatcher, Session};
use gdpr_server::ServerError;
use gdprbench::client::{
    classify_error_message, classify_gdpr_error, ClientFactory, GdprBenchClient, InProcessFactory,
};
use gdprbench::ops::{GdprOp, Outcome};
use gdprbench::spec::Role;
use kvstore::commands::Command;
use kvstore::store::KvStore;
use resp::command::GdprRequest;
use resp::decode::Decoder;
use resp::encode::encode_frame;
use resp::Frame;

use crate::env::Env;
use crate::gen::{
    key_name, request_frame, user_bytes, value, value_into, Chunk, Expect, Item, Kind, Op, Spec,
    KV_ACTOR, KV_PURPOSE, LANES,
};
use crate::stats::{fnv1a, process_cpu_ns, FNV_OFFSET, SLICE_NS};

/// A reply that has not arrived after this long is a failure: the connection
/// is dropped and replaced. This is what keeps the suite from hanging on the
/// reactor's lost-wake-up stall (see the README).
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Outcomes per lane folded into the outcome hash. A fixed prefix, because
/// the number of ops a timed run completes varies.
pub const HASH_PREFIX: u64 = 1_024;
/// A wave slower than this is counted as a stall.
pub const STALL: Duration = Duration::from_millis(500);
/// Requests in flight per connection while finishing a chunk off the clock.
const DRAIN_DEPTH: usize = 64;
/// Failure descriptions kept for the report.
const ERRORS_KEPT: usize = 5;

// ---------------------------------------------------------------------------
// Spans

/// One timed call. Spans of one op share `op_id`; `parent` names the span
/// that encloses this one in the ladder
/// `tcp.roundtrip > resp.decode | server.dispatch > core.op > kvstore.exec`
/// `| resp.encode`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: &'static str,
    parent: &'static str,
    op_id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
    cap: usize,
}

impl SpanLog {
    /// A log that keeps the first `cap` spans.
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            next_op: 0,
            cap,
        }
    }

    /// A fresh op identifier.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record one span.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                parent,
                op_id,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans that still fit.
    pub fn capacity_left(&self) -> usize {
        self.cap - self.spans.len()
    }

    /// Append the spans of a per-thread log, giving its ops fresh
    /// identifiers. Both logs must share roughly one epoch: `other` is
    /// created right before the threads start.
    pub fn absorb(&mut self, other: &SpanLog) {
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        for span in other.spans.iter().take(self.capacity_left()) {
            self.spans.push(Span {
                op_id: self.next_op + span.op_id,
                start_ns: span.start_ns + shift,
                end_ns: span.end_ns + shift,
                ..*span
            });
        }
        self.next_op += other.next_op;
    }

    /// Write one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"op_id\": {}, \"parent\": \"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.parent
            )?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------------
// Bookkeeping

/// Counts of what was attempted and how it went.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Ops issued.
    pub attempted: u64,
    /// Ops whose reply failed validation, was an unexpected error frame, or
    /// never arrived.
    pub failed: u64,
    /// Waves lost to a transport error or time-out (each also fails its ops).
    pub timeouts: u64,
    /// Ops that mutate stored data.
    pub writes: u64,
    /// Key plus value bytes handed to the store by writes.
    pub user_bytes: u64,
    /// Subject fan-out rights issued (KEYSOF, EXPORT, ERASE, OBJECT).
    pub fan_attempts: u64,
    /// Those that found at least one key.
    pub fan_live: u64,
    /// FNV-1a over the first [`HASH_PREFIX`] outcomes of each lane.
    pub hash: [u64; LANES],
    /// Outcomes folded into `hash` so far.
    pub hashed: [u64; LANES],
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            timeouts: 0,
            writes: 0,
            user_bytes: 0,
            fan_attempts: 0,
            fan_live: 0,
            hash: [FNV_OFFSET; LANES],
            hashed: [0; LANES],
            errors: Vec::new(),
        }
    }
}

impl Tally {
    /// Account for one op and its verdict.
    pub fn note(&mut self, lane: usize, item: &Item, verdict: &Verdict, value_len: usize) {
        self.count(item, value_len);
        if let Some(held) = item.fanout {
            self.fan_attempts += 1;
            self.fan_live += u64::from(held > 0);
        }
        if self.hashed[lane] < HASH_PREFIX {
            self.hashed[lane] += 1;
            let (tag, n) = match verdict.outcome {
                Outcome::Ok(n) => (0u8, n),
                Outcome::Denied => (1, 0),
                Outcome::Failed => (2, 0),
            };
            let mut bytes = [0u8; 10];
            bytes[0] = item.op.kind() as u8;
            bytes[1] = tag;
            bytes[2..].copy_from_slice(&n.to_le_bytes());
            self.hash[lane] = fnv1a(self.hash[lane], &bytes);
        }
        if !verdict.pass {
            self.fail(|| {
                format!(
                    "{:?}: expected {:?}, saw {}",
                    item.op.kind(),
                    item.expect,
                    verdict.saw
                )
            });
        }
    }

    fn count(&mut self, item: &Item, value_len: usize) {
        self.attempted += 1;
        self.writes += u64::from(item.op.kind().is_write());
        self.user_bytes += user_bytes(&item.op, value_len);
    }

    /// Account for an op whose reply never arrived.
    pub fn lost(&mut self, item: &Item, value_len: usize, why: &str) {
        self.count(item, value_len);
        self.fail(|| format!("{:?}: {why}", item.op.kind()));
    }

    /// The measured loop ran out of wall time: count it as one failed op, so
    /// the run cannot pass.
    pub fn overran(&mut self) {
        self.attempted += 1;
        self.fail(|| "the measured loop overran its wall-time limit".to_string());
    }

    fn fail(&mut self, describe: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(describe());
        }
    }

    /// Fold another tally into this one. A lane's hash comes from whichever
    /// side hashed more of that lane (concurrent callers each hash their own).
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.timeouts += other.timeouts;
        self.writes += other.writes;
        self.user_bytes += other.user_bytes;
        for lane in 0..LANES {
            if other.hashed[lane] > self.hashed[lane] {
                self.hash[lane] = other.hash[lane];
                self.hashed[lane] = other.hashed[lane];
            }
        }
        self.fan_attempts += other.fan_attempts;
        self.fan_live += other.fan_live;
        let room = ERRORS_KEPT.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.iter().take(room).cloned());
    }

    /// The lanes' hashes combined into one printable value.
    pub fn outcome_hash(&self) -> String {
        let mut combined = FNV_OFFSET;
        for lane in 0..LANES {
            combined = fnv1a(combined, &self.hash[lane].to_le_bytes());
        }
        format!("{combined:016x}")
    }
}

/// Per-op durations in nanoseconds: all of them, by kind, and for the
/// fan-out rights per key the subject held.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Every sample, in issue order.
    pub all: Vec<u64>,
    /// Samples by [`Kind`].
    pub by_kind: [Vec<u64>; Kind::COUNT],
    /// Duration divided by keys held, for fan-out rights that found any.
    pub per_key: [Vec<u64>; Kind::COUNT],
}

impl Timings {
    /// Record the duration of one op.
    pub fn push(&mut self, item: &Item, ns: u64) {
        self.all.push(ns);
        let kind = item.op.kind() as usize;
        self.by_kind[kind].push(ns);
        if let Some(held @ 1..) = item.fanout {
            self.per_key[kind].push(ns / u64::from(held));
        }
    }

    /// Typical duration of one op of this mix, in microseconds: the median
    /// of each kind weighted by the kind's share of the samples. Unlike the
    /// mean it ignores the once-a-second flush an `everysec` policy lands on
    /// whichever op comes next, and unlike the plain median it still moves
    /// when the rarer, dearer kind does.
    pub fn typical_us(&self) -> f64 {
        let weighted: f64 = self
            .by_kind
            .iter()
            .map(|samples| samples.len() as f64 * crate::stats::median_us(samples))
            .sum();
        crate::stats::ratio(weighted, self.all.len() as f64)
    }

    /// Samples of one kind.
    pub fn of(&self, kind: Kind) -> &[u64] {
        &self.by_kind[kind as usize]
    }

    /// Samples of every read kind (or every write kind).
    pub fn reads_or_writes(&self, writes: bool) -> Vec<u64> {
        let mut out = Vec::new();
        for (kind, samples) in Kind::ALL.iter().zip(&self.by_kind) {
            if kind.is_write() == writes {
                out.extend_from_slice(samples);
            }
        }
        out
    }
}

/// One slice of a measured phase: the waves (closed-loop steps — every lane
/// sends its next `depth` requests, then every reply is read) that put
/// [`SLICE_NS`] on the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Sum of the slice's wave durations, first send to last reply.
    pub dur_ns: u64,
    /// Requests completed in the slice.
    pub ops: u64,
    /// CPU time the whole process spent while the slice ran — generation
    /// and checking between the waves, and any concurrent caller, included.
    pub cpu_ns: u64,
    /// Length of `Recorder::lat.all` when the slice closed.
    pub lat_end: usize,
}

/// Everything one generator records during a measured phase.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// The closed slices, in order.
    pub slices: Vec<Slice>,
    /// Client-observed latencies: per request at depth 1, per pipelined
    /// batch otherwise.
    pub lat: Timings,
    /// Counts.
    pub tally: Tally,
    /// The slice being filled.
    open: Slice,
    /// Process CPU clock when the open slice began.
    cpu_mark: u64,
    timed_ns: u64,
    ops: u64,
    stalled: usize,
}

impl Default for Recorder {
    /// A recorder whose first slice begins now.
    fn default() -> Recorder {
        Recorder {
            slices: Vec::new(),
            lat: Timings::default(),
            tally: Tally::default(),
            open: Slice::default(),
            cpu_mark: process_cpu_ns(),
            timed_ns: 0,
            ops: 0,
            stalled: 0,
        }
    }
}

impl Recorder {
    /// Time on the clock so far.
    pub fn timed_ns(&self) -> u64 {
        self.timed_ns
    }

    /// Waves that took longer than [`STALL`]: on a healthy loop-back server
    /// nothing does, so these count the reactor's lost wake-ups.
    pub fn stalled_waves(&self) -> usize {
        self.stalled
    }

    /// Ops completed in recorded waves.
    pub fn wave_ops(&self) -> u64 {
        self.ops
    }

    /// Record a wave of `ops` requests that took `dur_ns`, and close the
    /// slice once it is full.
    pub fn push_wave(&mut self, dur_ns: u64, ops: usize) {
        self.timed_ns += dur_ns;
        self.ops += ops as u64;
        self.stalled += usize::from(u128::from(dur_ns) > STALL.as_nanos());
        self.open.dur_ns += dur_ns;
        self.open.ops += ops as u64;
        if self.open.dur_ns >= SLICE_NS {
            let cpu_now = process_cpu_ns();
            self.slices.push(Slice {
                cpu_ns: cpu_now.saturating_sub(self.cpu_mark),
                lat_end: self.lat.all.len(),
                ..self.open
            });
            self.open = Slice::default();
            self.cpu_mark = cpu_now;
        }
    }

    /// The slices to summarise: the closed ones, or — for a run too short to
    /// fill one — what there is of the first.
    pub fn slices_or_rest(&self) -> Vec<Slice> {
        if self.slices.is_empty() && self.open.ops > 0 {
            vec![Slice {
                cpu_ns: process_cpu_ns().saturating_sub(self.cpu_mark),
                lat_end: self.lat.all.len(),
                ..self.open
            }]
        } else {
            self.slices.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Judging replies

/// How an op went.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The reply, reduced to the GDPRbench outcome space.
    pub outcome: Outcome,
    /// Whether it is the reply the model expects.
    pub pass: bool,
    /// What was seen, for failure reports.
    pub saw: String,
}

/// Compares replies with expectations; owns the scratch buffer expected
/// values are rendered into.
#[derive(Debug)]
pub struct Judge {
    value_len: usize,
    scratch: Vec<u8>,
}

impl Judge {
    /// A judge for values of `value_len` bytes.
    pub fn new(value_len: usize) -> Judge {
        Judge {
            value_len,
            scratch: Vec::with_capacity(value_len),
        }
    }

    fn classify(kind: Kind, reply: &Frame) -> Outcome {
        match (kind, reply) {
            (Kind::Set | Kind::Put | Kind::SetMeta, Frame::Simple(_)) => Outcome::Ok(1),
            (Kind::Get, Frame::Bulk(_)) => Outcome::Ok(1),
            (Kind::Get | Kind::GetMeta, Frame::Null) => Outcome::Ok(0),
            (Kind::GetMeta, Frame::Array(_)) => Outcome::Ok(1),
            (Kind::KeysOf, Frame::Array(items)) => Outcome::Ok(items.len() as u64),
            (Kind::Export, Frame::Bulk(json)) => Outcome::Ok(json.len() as u64),
            (Kind::Erase | Kind::Object, Frame::Integer(n)) => Outcome::Ok((*n).max(0) as u64),
            (_, Frame::Error(message)) => classify_error_message(message),
            _ => Outcome::Failed,
        }
    }

    /// Judge a wire reply.
    pub fn frame(&mut self, item: &Item, reply: &Frame) -> Verdict {
        let bytes = match reply {
            Frame::Bulk(bytes) => Some(bytes.as_slice()),
            _ => None,
        };
        self.judge(
            item,
            Judge::classify(item.op.kind(), reply),
            bytes,
            || match reply {
                Frame::Error(message) => format!("error frame {message:?}"),
                Frame::Bulk(bytes) => format!("bulk of {} bytes", bytes.len()),
                other => format!("{other:?}"),
            },
        )
    }

    /// Judge the result of a direct call: its outcome and, for reads, the
    /// bytes returned.
    pub fn judge(
        &mut self,
        item: &Item,
        outcome: Outcome,
        bytes: Option<&[u8]>,
        describe: impl FnOnce() -> String,
    ) -> Verdict {
        let pass = match item.expect {
            Expect::Value { key, version } => {
                value_into(&mut self.scratch, key, version, self.value_len);
                bytes == Some(self.scratch.as_slice())
            }
            Expect::Exactly(expected) => outcome == expected,
            Expect::AnyOk => matches!(outcome, Outcome::Ok(_)),
        };
        Verdict {
            outcome,
            pass,
            saw: if pass { String::new() } else { describe() },
        }
    }
}

// ---------------------------------------------------------------------------
// Level: full TCP

/// The generator's connections, one per lane.
pub struct Conns {
    addr: SocketAddr,
    clients: Vec<TcpRemoteClient>,
    role: Option<Role>,
}

fn credentials(role: Option<Role>) -> (&'static str, &'static str) {
    role.map_or((KV_ACTOR, KV_PURPOSE), |r| (r.actor(), r.purpose()))
}

impl Conns {
    /// Open and authenticate one connection per lane.
    pub fn connect(addr: SocketAddr, role: Option<Role>) -> Result<Conns, String> {
        let mut conns = Conns {
            addr,
            clients: Vec::new(),
            role,
        };
        conns.reconnect()?;
        Ok(conns)
    }

    /// Drop every connection and open fresh ones under the current role.
    pub fn reconnect(&mut self) -> Result<(), String> {
        self.clients.clear();
        let (actor, purpose) = credentials(self.role);
        for _ in 0..LANES {
            let mut client = TcpRemoteClient::connect_timeout(&self.addr, READ_TIMEOUT)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            client
                .auth(actor, purpose)
                .map_err(|e| format!("auth as {actor}: {e}"))?;
            self.clients.push(client);
        }
        Ok(())
    }

    /// Close every connection now (before the server they point at goes).
    pub fn hang_up(&mut self) {
        self.clients.clear();
    }

    /// Point at another server and connect under the current role.
    pub fn move_to(&mut self, addr: SocketAddr) -> Result<(), String> {
        self.addr = addr;
        self.reconnect()
    }

    /// Re-authenticate both connections if the chunk needs another role.
    pub fn ensure_role(&mut self, role: Option<Role>) -> Result<(), String> {
        if role != self.role {
            self.role = role;
            let (actor, purpose) = credentials(role);
            for client in &mut self.clients {
                if client.auth(actor, purpose).is_err() {
                    return self.reconnect();
                }
            }
        }
        Ok(())
    }
}

struct WaveTimes {
    start: Instant,
    sent: [Instant; LANES],
    done: [Instant; LANES],
}

/// Send every lane's batch, then read every lane's replies.
fn roundtrip_wave(
    clients: &mut [TcpRemoteClient],
    batches: [&[Frame]; LANES],
) -> Result<([Vec<Frame>; LANES], WaveTimes), ServerError> {
    let start = Instant::now();
    let mut times = WaveTimes {
        start,
        sent: [start; LANES],
        done: [start; LANES],
    };
    for lane in 0..LANES {
        if !batches[lane].is_empty() {
            times.sent[lane] = Instant::now();
            clients[lane].send_batch(batches[lane])?;
        }
    }
    let mut replies: [Vec<Frame>; LANES] = Default::default();
    for lane in 0..LANES {
        if !batches[lane].is_empty() {
            replies[lane] = clients[lane].read_replies(batches[lane].len())?;
            times.done[lane] = Instant::now();
        }
    }
    Ok((replies, times))
}

/// Run one chunk over TCP in lock-step waves: each lane keeps `spec.depth`
/// requests in flight and the generator waits for every reply before the
/// next wave. Request frames are built before the clock starts.
///
/// Once `done` says the run has what it needs, the rest of the chunk is
/// still sent — the model has already seen those ops — but off the clock
/// and [`DRAIN_DEPTH`] deep, so that a server answering once a second (the
/// stall described in the README) cannot hold the run for minutes.
///
/// A wave that errors or times out fails all its ops; the connections are
/// replaced and the wave's writes are re-sent off the clock so the model and
/// the store agree again (every write of these streams is idempotent).
pub fn exec_tcp(
    conns: &mut Conns,
    chunk: &Chunk,
    spec: &Spec,
    rec: &mut Recorder,
    mut spans: Option<&mut SpanLog>,
    done: &dyn Fn(&Recorder) -> bool,
) -> Result<(), String> {
    conns.ensure_role(chunk.role)?;
    let frames: [Vec<Frame>; LANES] = std::array::from_fn(|lane| {
        chunk.lanes[lane]
            .iter()
            .map(|item| request_frame(&item.op, spec.value_len))
            .collect()
    });
    let mut judge = Judge::new(spec.value_len);
    let mut pos = [0usize; LANES];
    let mut draining = false;
    while (0..LANES).any(|lane| pos[lane] < frames[lane].len()) {
        draining = draining || (pos != [0; LANES] && done(rec));
        let depth = if draining { DRAIN_DEPTH } else { spec.depth };
        let end: [usize; LANES] =
            std::array::from_fn(|lane| (pos[lane] + depth).min(frames[lane].len()));
        let batches: [&[Frame]; LANES] =
            std::array::from_fn(|lane| &frames[lane][pos[lane]..end[lane]]);
        let ops: usize = batches.iter().map(|b| b.len()).sum();
        match roundtrip_wave(&mut conns.clients, batches) {
            Ok((replies, times)) => {
                let last = times.done.iter().max().copied().unwrap_or(times.start);
                for lane in 0..LANES {
                    let items = &chunk.lanes[lane][pos[lane]..end[lane]];
                    if items.is_empty() {
                        continue;
                    }
                    let ns = times.done[lane].duration_since(times.sent[lane]).as_nanos() as u64;
                    if draining {
                        // Off the clock: judged, not timed.
                    } else if spec.depth == 1 {
                        rec.lat.push(&items[0], ns);
                    } else {
                        rec.lat.all.push(ns);
                    }
                    for (item, reply) in items.iter().zip(&replies[lane]) {
                        if let Some(log) = spans.as_deref_mut().filter(|_| !draining) {
                            let op_id = log.op();
                            log.push(
                                "tcp.roundtrip",
                                "",
                                op_id,
                                times.sent[lane],
                                times.done[lane],
                            );
                        }
                        let verdict = judge.frame(item, reply);
                        rec.tally.note(lane, item, &verdict, spec.value_len);
                    }
                }
                if !draining {
                    rec.push_wave(last.duration_since(times.start).as_nanos() as u64, ops);
                }
            }
            Err(e) => {
                rec.tally.timeouts += 1;
                let why = format!("wave lost: {e}");
                for lane in 0..LANES {
                    for item in &chunk.lanes[lane][pos[lane]..end[lane]] {
                        rec.tally.lost(item, spec.value_len, &why);
                    }
                }
                conns.reconnect()?;
                for lane in 0..LANES {
                    for (item, frame) in chunk.lanes[lane][pos[lane]..end[lane]]
                        .iter()
                        .zip(batches[lane])
                    {
                        if item.op.kind().is_write() {
                            let _ = conns.clients[lane].pipeline(std::slice::from_ref(frame));
                        }
                    }
                }
            }
        }
        pos = end;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Level: dispatcher + codec

/// Durations of one op pushed through decode, dispatch and encode in
/// process, with the bytes that would have crossed the wire.
#[derive(Debug, Clone, Default)]
pub struct CodecTimings {
    /// `Decoder::feed` + `next_frame` on the encoded request.
    pub decode: Vec<u64>,
    /// `Dispatcher::handle_frame`.
    pub dispatch: Timings,
    /// `encode_frame` on the reply.
    pub encode: Vec<u64>,
    /// Encoded request bytes.
    pub req_bytes: u64,
    /// Encoded reply bytes.
    pub reply_bytes: u64,
}

/// Calls the dispatcher the way a connection handler does, minus sockets.
pub struct DispatchCaller {
    dispatcher: Dispatcher,
    session: Session,
    role: Option<Option<Role>>,
    decoder: Decoder,
}

impl DispatchCaller {
    /// A caller with its own session on `dispatcher`.
    pub fn new(dispatcher: Dispatcher) -> DispatchCaller {
        DispatchCaller {
            dispatcher,
            session: Session::new(),
            role: None,
            decoder: Decoder::new(),
        }
    }

    fn ensure_role(&mut self, role: Option<Role>) -> Result<(), String> {
        if self.role != Some(role) {
            let (actor, purpose) = credentials(role);
            let auth = GdprRequest::Auth {
                actor: actor.to_string(),
                purpose: purpose.to_string(),
            }
            .to_frame();
            match self.dispatcher.handle_frame(&auth, &mut self.session) {
                Frame::Simple(_) => self.role = Some(role),
                other => return Err(format!("in-process auth as {actor}: {other:?}")),
            }
        }
        Ok(())
    }

    /// Run one chunk, lanes interleaved, every reply judged.
    pub fn exec(
        &mut self,
        chunk: &Chunk,
        spec: &Spec,
        out: &mut CodecTimings,
        tally: &mut Tally,
        spans: &mut SpanLog,
    ) -> Result<(), String> {
        self.ensure_role(chunk.role)?;
        let mut judge = Judge::new(spec.value_len);
        for (lane, item) in interleaved(chunk) {
            let wire = encode_frame(&request_frame(&item.op, spec.value_len));
            let t0 = Instant::now();
            self.decoder.feed(&wire);
            let request = self
                .decoder
                .next_frame()
                .map_err(|e| format!("decode of an own request: {e}"))?
                .ok_or("own request did not decode to a frame")?;
            let t1 = Instant::now();
            let reply = self.dispatcher.handle_frame(&request, &mut self.session);
            let t2 = Instant::now();
            let encoded = encode_frame(&reply);
            let t3 = Instant::now();
            out.decode.push((t1 - t0).as_nanos() as u64);
            out.dispatch.push(item, (t2 - t1).as_nanos() as u64);
            out.encode.push((t3 - t2).as_nanos() as u64);
            out.req_bytes += wire.len() as u64;
            out.reply_bytes += encoded.len() as u64;
            let op_id = spans.op();
            spans.push("resp.decode", "tcp.roundtrip", op_id, t0, t1);
            spans.push("server.dispatch", "tcp.roundtrip", op_id, t1, t2);
            spans.push("resp.encode", "tcp.roundtrip", op_id, t2, t3);
            let verdict = judge.frame(item, &reply);
            tally.note(lane, item, &verdict, spec.value_len);
        }
        Ok(())
    }
}

/// The chunk's items in the order a lock-step generator issues them.
fn interleaved(chunk: &Chunk) -> impl Iterator<Item = (usize, &Item)> {
    let longest = chunk.lanes.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |i| {
        (0..LANES).filter_map(move |lane| chunk.lanes[lane].get(i).map(|item| (lane, item)))
    })
}

// ---------------------------------------------------------------------------
// Level: GdprStore

/// Calls `GdprStore` directly: `get`/`put` for the key-value ops, the
/// GDPRbench in-process client for the rights.
pub struct CoreCaller {
    store: Arc<GdprStore>,
    ctx: AccessContext,
    rights: Vec<(Role, Box<dyn GdprBenchClient + Send>)>,
    judge: Judge,
}

impl CoreCaller {
    /// A caller on `store` for values of `value_len` bytes.
    pub fn new(store: &Arc<GdprStore>, value_len: usize) -> Result<CoreCaller, String> {
        let mut rights = Vec::new();
        for role in [Role::Controller, Role::Customer] {
            rights.push((
                role,
                InProcessFactory::for_role(Arc::clone(store), role).connect()?,
            ));
        }
        Ok(CoreCaller {
            store: Arc::clone(store),
            ctx: Env::kv_ctx(),
            rights,
            judge: Judge::new(value_len),
        })
    }

    /// Execute one op; returns its verdict and when the call started and
    /// ended. Arguments are built
    /// before the clock starts: parsing them out of a frame is the
    /// dispatcher's work, not the store's.
    pub fn call(
        &mut self,
        item: &Item,
        role: Option<Role>,
        value_len: usize,
    ) -> (Verdict, [Instant; 2]) {
        match &item.op {
            Op::Get { key } => {
                let name = key_name(*key);
                let t0 = Instant::now();
                let result = self.store.get(&self.ctx, &name);
                let t1 = Instant::now();
                let (outcome, bytes) = match &result {
                    Ok(Some(bytes)) => (Outcome::Ok(1), Some(bytes.as_slice())),
                    Ok(None) => (Outcome::Ok(0), None),
                    Err(e) => (classify_gdpr_error(e), None),
                };
                let verdict = self
                    .judge
                    .judge(item, outcome, bytes, || format!("{result:?}"));
                (verdict, [t0, t1])
            }
            Op::Set { key, version } => {
                let name = key_name(*key);
                let payload = value(*key, *version, value_len);
                let meta = Env::kv_meta(&name);
                let t0 = Instant::now();
                let result = self.store.put(&self.ctx, &name, payload, meta);
                let t1 = Instant::now();
                let outcome = match &result {
                    Ok(()) => Outcome::Ok(1),
                    Err(e) => classify_gdpr_error(e),
                };
                let verdict = self
                    .judge
                    .judge(item, outcome, None, || format!("{result:?}"));
                (verdict, [t0, t1])
            }
            Op::Rights(op) => {
                let client = self
                    .rights
                    .iter_mut()
                    .find(|(r, _)| Some(*r) == role)
                    .map(|(_, client)| client)
                    .expect("rights ops come with a controller or customer role");
                let t0 = Instant::now();
                let outcome = client.apply(op);
                let t1 = Instant::now();
                let verdict = self
                    .judge
                    .judge(item, outcome, None, || format!("{outcome:?}"));
                (verdict, [t0, t1])
            }
        }
    }

    /// Run one chunk, lanes interleaved.
    pub fn exec(
        &mut self,
        chunk: &Chunk,
        spec: &Spec,
        out: &mut Timings,
        tally: &mut Tally,
        spans: &mut SpanLog,
    ) {
        for (lane, item) in interleaved(chunk) {
            let (verdict, [t0, t1]) = self.call(item, chunk.role, spec.value_len);
            out.push(item, (t1 - t0).as_nanos() as u64);
            let op_id = spans.op();
            spans.push("core.op", "server.dispatch", op_id, t0, t1);
            tally.note(lane, item, &verdict, spec.value_len);
        }
    }
}

// ---------------------------------------------------------------------------
// Level: raw engine

/// Replay the chunk's engine-level equivalents on a raw `KvStore`: GET and
/// GETMETA as `Get`, SET and PUT as `Set`; fan-out rights have none.
pub fn exec_kv(
    kv: &KvStore,
    chunk: &Chunk,
    spec: &Spec,
    reads: &mut Vec<u64>,
    writes: &mut Vec<u64>,
    spans: &mut SpanLog,
) -> Result<(), String> {
    for (_, item) in interleaved(chunk) {
        let command = match &item.op {
            Op::Get { key } => Command::Get {
                key: key_name(*key),
            },
            Op::Set { key, version } => Command::Set {
                key: key_name(*key),
                value: value(*key, *version, spec.value_len),
            },
            Op::Rights(GdprOp::GetMeta { key }) => Command::Get { key: key.clone() },
            Op::Rights(GdprOp::Put { key, value, .. }) => Command::Set {
                key: key.clone(),
                value: value.clone(),
            },
            Op::Rights(_) => continue,
        };
        let is_write = matches!(command, Command::Set { .. });
        let t0 = Instant::now();
        let result = kv.execute(command);
        let t1 = Instant::now();
        result.map_err(|e| format!("raw engine: {e}"))?;
        let samples = if is_write { &mut *writes } else { &mut *reads };
        samples.push((t1 - t0).as_nanos() as u64);
        let op_id = spans.op();
        spans.push("kvstore.exec", "core.op", op_id, t0, t1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Stream, Workload};

    fn item(op: Op, expect: Expect) -> Item {
        Item {
            op,
            expect,
            fanout: None,
        }
    }

    #[test]
    fn judge_checks_bytes_counts_and_expected_errors() {
        let mut judge = Judge::new(32);
        let get = item(Op::Get { key: 4 }, Expect::Value { key: 4, version: 2 });
        assert!(judge.frame(&get, &Frame::Bulk(value(4, 2, 32))).pass);
        assert!(
            !judge.frame(&get, &Frame::Bulk(value(4, 1, 32))).pass,
            "stale read"
        );
        assert!(!judge.frame(&get, &Frame::Null).pass);

        let keysof = item(
            Op::Rights(GdprOp::KeysOf {
                subject: "subject000001".into(),
            }),
            Expect::Exactly(Outcome::Ok(2)),
        );
        let two = Frame::Array(vec![Frame::bulk("a"), Frame::bulk("b")]);
        assert!(judge.frame(&keysof, &two).pass);
        assert!(!judge.frame(&keysof, &Frame::Array(vec![])).pass);

        let setmeta = item(
            Op::Rights(GdprOp::SetMeta {
                key: "user000001:k0000".into(),
                subject: "subject000001".into(),
                purposes: vec![],
            }),
            Expect::Exactly(Outcome::Failed),
        );
        let gone = Frame::Error("ERR key \"user000001:k0000\" does not exist".into());
        assert!(
            judge.frame(&setmeta, &gone).pass,
            "erased subject: the error is the right answer"
        );
        assert!(!judge.frame(&setmeta, &Frame::Simple("OK".into())).pass);
        let denied =
            Frame::Error("ERR access denied for actor \"x\" (purpose \"y\"): no grant".into());
        let v = judge.frame(&setmeta, &denied);
        assert_eq!(v.outcome, Outcome::Denied);
        assert!(!v.pass, "a denial the model does not predict is a failure");
    }

    #[test]
    fn tally_hash_is_a_function_of_the_outcome_stream() {
        let run = |seed: u64| {
            let spec = Workload::KvTcpUpdate.spec().tiny();
            let mut stream = Stream::new(&spec, seed);
            let mut tally = Tally::default();
            for _ in 0..64 {
                let chunk = stream.next_chunk();
                for (lane, item) in interleaved(&chunk) {
                    let verdict = Verdict {
                        outcome: Outcome::Ok(u64::from(item.op.kind().is_write())),
                        pass: true,
                        saw: String::new(),
                    };
                    tally.note(lane, item, &verdict, spec.value_len);
                }
            }
            (tally.outcome_hash(), tally.attempted, tally.user_bytes)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(7).0);
        assert!(run(42).2 > 0);
    }

    #[test]
    fn recorder_cuts_the_clock_into_seconds() {
        let mut rec = Recorder::default();
        // 25 waves of 100 ms with 2 ops and 1 latency sample each: two full
        // slices and half a third.
        for _ in 0..25 {
            rec.lat.all.push(1);
            rec.push_wave(100_000_000, 2);
        }
        assert_eq!(rec.slices.len(), 2);
        assert_eq!(
            (
                rec.slices[0].ops,
                rec.slices[0].dur_ns,
                rec.slices[0].lat_end
            ),
            (20, SLICE_NS, 10)
        );
        assert_eq!(rec.slices[1].lat_end, 20);
        assert_eq!((rec.timed_ns(), rec.wave_ops()), (2_500_000_000, 50));
        assert_eq!(
            rec.slices_or_rest().len(),
            2,
            "the unfinished slice is left out"
        );
        assert_eq!(rec.stalled_waves(), 0);
        rec.push_wave(600_000_000, 2);
        assert_eq!(rec.stalled_waves(), 1);
        assert_eq!(
            rec.slices[2].dur_ns, 1_100_000_000,
            "a slice ends with the wave that fills it"
        );

        // A run too short to fill a slice is summarised as what there is.
        let mut short = Recorder::default();
        short.lat.all.push(1);
        short.push_wave(1_000, 3);
        assert!(short.slices.is_empty());
        let rest = short.slices_or_rest();
        assert_eq!((rest.len(), rest[0].ops, rest[0].lat_end), (1, 3, 1));
        assert!(Recorder::default().slices_or_rest().is_empty());
    }

    #[test]
    fn timings_split_by_kind_and_per_key() {
        let mut t = Timings::default();
        let mut export = item(
            Op::Rights(GdprOp::Export {
                subject: "subject000002".into(),
            }),
            Expect::AnyOk,
        );
        export.fanout = Some(4);
        t.push(&export, 4_000);
        export.fanout = Some(0);
        t.push(&export, 500);
        t.push(&item(Op::Get { key: 0 }, Expect::AnyOk), 100);
        assert_eq!(t.all, vec![4_000, 500, 100]);
        assert_eq!(t.of(Kind::Export), &[4_000, 500]);
        assert_eq!(t.per_key[Kind::Export as usize], vec![1_000]);
        assert_eq!(t.reads_or_writes(false).len(), 3);
        assert!(t.reads_or_writes(true).is_empty());
    }
}
