//! The event-driven connection layer: N symmetric run-to-completion
//! event loops.
//!
//! The thread-per-connection transport in [`crate::tcp`] costs one OS
//! thread (stack, scheduler state, context switches) per client, which
//! collapses under the thousands of mostly idle sessions a
//! GDPRbench-style regulator/processor workload holds open. This module
//! serves them the way Redis does, once per core:
//!
//! * each **event loop** is one thread with its own level-triggered
//!   [`polling::Poller`] (epoll on Linux, `poll(2)` elsewhere) and its own
//!   non-blocking connection sockets. There are `min(cores, engine
//!   shards)` loops unless [`ServerConfig::workers`] says otherwise;
//! * **loop 0** also owns the listener and deals accepted sockets
//!   round-robin to the loops through a per-loop inbox plus
//!   [`polling::Poller::notify`]. A connection stays on its loop for life;
//! * a loop **runs every request to completion**: it reads, decodes with
//!   the incremental [`Decoder`], executes [`Dispatcher::handle_owned_frame`]
//!   itself, encodes the reply straight into the connection's outbox and
//!   writes it at once. There is no hand-off to another thread, and
//!   write-readiness is armed only after a write returned `WouldBlock`;
//! * a slow command (a big `GDPR.EXPORT`, a strict-fsync write) therefore
//!   stalls the connections that share its loop and no others, and within
//!   a loop a fixed per-turn frame budget bounds how many frames one
//!   connection executes before its neighbours get their turn.
//!
//! Idle connections cost one registered descriptor and a ~100-byte state
//! machine — no thread, no pinned read buffer (a scratch buffer per loop
//! serves all reads). The transport semantics match the threads
//! implementation exactly: same pipelining, same
//! `-ERR max connections reached` refusal, same idle timeout measured
//! from the last *complete* frame, same drain-on-shutdown guarantee
//! (every request whose bytes reached the server is answered), and the
//! same `REPLSYNC` handoff — the socket is quiesced, deregistered and
//! given to a blocking replication feeder thread.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use polling::{Event, Poller};
use resp::decode::Decoder;
use resp::encode::encode_into;
use resp::Frame;

use crate::dispatch::{Dispatcher, Session};
use crate::tcp::{
    at_connection_limit, is_shutdown_command, reject_over_limit, shrink_buffer, ServerConfig,
};

/// Poller key of the listening socket (loop 0); connection slot `i` maps
/// to key `i + 1` on its loop's poller.
const LISTENER_KEY: usize = 0;

/// Cap on decoded-but-unexecuted frames per connection. A pipelining
/// flood beyond this pauses reads for that connection (level-triggered
/// polling resumes them as soon as the backlog shrinks) so one client
/// cannot buffer unbounded work.
pub(crate) const MAX_PENDING_FRAMES: usize = 4096;

/// Cap on read syscalls per connection per wakeup, so one firehose client
/// cannot monopolize the event loop; remaining bytes re-report on the
/// next wait (level-triggered).
const MAX_READ_PASSES: usize = 8;

/// Cap on frames one connection executes per turn of its loop. A deeper
/// pipeline keeps its place on the ready list and the loop polls with a
/// zero timeout until the list is empty, so a neighbour's request waits
/// for at most this many frames of each busy connection, not for its
/// whole backlog.
pub(crate) const TURN_FRAME_BUDGET: usize = 128;

/// How long the drain phase waits for unread input and final flushes
/// before force-closing survivors.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Event-loop threads: explicit config, else `min(cores, shards)` — more
/// loops than engine shards only adds lock contention.
fn loop_count(config: &ServerConfig, dispatcher: &Dispatcher) -> usize {
    if config.workers != 0 {
        return config.workers;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.min(dispatcher.raw_engine().shard_count()).max(1)
}

/// Per-connection state machine. Note what is *not* here: no thread, no
/// read buffer (reads go through the loop's scratch buffer) — an idle
/// connection is this struct plus a registered descriptor.
struct Conn {
    stream: TcpStream,
    decoder: Decoder,
    session: Session,
    /// Complete frames decoded but not yet executed.
    pending: VecDeque<Frame>,
    /// When the oldest batch in `pending` was decoded; taken when its
    /// first frame starts to execute (the `worker_queue_wait` stage).
    batch_decoded_at: Option<Instant>,
    /// The connection is on its loop's ready list.
    queued: bool,
    /// Encoded replies awaiting the socket; `out_pos` marks how far the
    /// kernel has accepted them.
    outbox: Vec<u8>,
    out_pos: usize,
    /// Interest currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
    /// No more input will be read (EOF, protocol error, drain, REPLSYNC).
    input_closed: bool,
    /// Close once the outbox is flushed.
    close_after_flush: bool,
    /// The socket errored; drop it at the next bookkeeping pass.
    dead: bool,
    /// A `REPLSYNC` arrived: once quiesced, hand the socket to a blocking
    /// replication feeder instead of closing it.
    replsync: bool,
    /// Protocol-error reply to append *after* the replies of every frame
    /// decoded ahead of the error, preserving reply order.
    error_reply: Option<Frame>,
    /// When the last complete request frame arrived (idle timeout is
    /// measured from here, so slow-loris byte-tricklers still idle out).
    last_frame: Instant,
}

impl Conn {
    fn new(stream: TcpStream, max_frame_bytes: usize) -> Self {
        Conn {
            stream,
            decoder: Decoder::with_max_frame_bytes(max_frame_bytes),
            session: Session::new(),
            pending: VecDeque::new(),
            batch_decoded_at: None,
            queued: false,
            outbox: Vec::new(),
            out_pos: 0,
            reg_read: true,
            reg_write: false,
            input_closed: false,
            close_after_flush: false,
            dead: false,
            replsync: false,
            error_reply: None,
            last_frame: Instant::now(),
        }
    }

    fn outbox_flushed(&self) -> bool {
        self.out_pos >= self.outbox.len()
    }

    /// The connection has nothing queued anywhere: no unexecuted frames,
    /// no unflushed replies.
    fn quiesced(&self) -> bool {
        self.pending.is_empty() && self.outbox_flushed()
    }
}

/// What an event loop exposes to the other threads: the poller they wake
/// it through and the inbox loop 0 deals accepted sockets into.
struct LoopPort {
    poller: Poller,
    inbox: Mutex<Vec<TcpStream>>,
}

/// State shared by the loops and the server handle.
struct Shared {
    dispatcher: Dispatcher,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Loop 0 still holds the listener and may deal sockets. The other
    /// loops finish draining only once this is down, so no dealt socket
    /// is left in the inbox of a loop that has already exited.
    accepting: AtomicBool,
    ports: Vec<LoopPort>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for port in &self.ports {
            port.poller.notify();
        }
    }
}

/// Handle to a running reactor transport (constructed through
/// [`crate::tcp::TcpServer::bind`]).
pub(crate) struct ReactorServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    loops: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorServer {
    pub(crate) fn start(
        dispatcher: Dispatcher,
        listener: TcpListener,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let ports = (0..loop_count(&config, &dispatcher))
            .map(|_| {
                Ok(LoopPort {
                    poller: Poller::new()?,
                    inbox: Mutex::new(Vec::new()),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        ports[0]
            .poller
            .add(&listener, Event::readable(LISTENER_KEY))?;
        let mut server = ReactorServer {
            shared: Arc::new(Shared {
                dispatcher,
                config,
                shutdown: AtomicBool::new(false),
                accepting: AtomicBool::new(true),
                ports,
            }),
            addr,
            loops: Vec::new(),
        };
        let mut listener = Some(listener);
        for index in 0..server.shared.ports.len() {
            let event_loop = EventLoop::new(index, listener.take(), Arc::clone(&server.shared));
            let spawned = std::thread::Builder::new()
                .name(format!("gdpr-server-loop-{index}"))
                .spawn(move || event_loop.run());
            match spawned {
                Ok(handle) => server.loops.push(handle),
                Err(e) => {
                    // The loop that failed to start took the listener (or
                    // never had it) with it; nothing accepts any more.
                    server.shared.accepting.store(false, Ordering::SeqCst);
                    server.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn dispatcher(&self) -> &Dispatcher {
        &self.shared.dispatcher
    }

    pub(crate) fn is_shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    pub(crate) fn shutdown(&mut self) {
        self.request_shutdown();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One event-loop thread's whole world.
struct EventLoop {
    /// This loop's position in [`Shared::ports`].
    index: usize,
    shared: Arc<Shared>,
    /// Loop 0 only, until it starts to drain.
    listener: Option<TcpListener>,
    /// The loop the next accepted socket is dealt to.
    next_loop: usize,
    /// Connection slab: slot `i` serves poller key `i + 1`.
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    /// Connections with frames left over from their last turn, in the
    /// order they take the next one.
    ready: VecDeque<usize>,
    /// Shared read buffer — connections do not pin per-connection read
    /// memory while idle, which is most of the reactor's RSS win.
    scratch: Vec<u8>,
    feeders: Vec<std::thread::JoinHandle<()>>,
    draining: bool,
    drain_deadline: Instant,
    last_sweep: Instant,
    wait_error_reported: bool,
}

impl EventLoop {
    fn new(index: usize, listener: Option<TcpListener>, shared: Arc<Shared>) -> Self {
        EventLoop {
            index,
            shared,
            listener,
            next_loop: 0,
            conns: Vec::new(),
            free_slots: Vec::new(),
            ready: VecDeque::new(),
            scratch: vec![0u8; 64 * 1024],
            feeders: Vec::new(),
            draining: false,
            drain_deadline: Instant::now(),
            last_sweep: Instant::now(),
            wait_error_reported: false,
        }
    }

    /// Idle sweeps (and therefore shutdown-flag checks with no events)
    /// happen at least this often.
    fn sweep_interval(&self) -> Duration {
        let config = &self.shared.config;
        (config.read_timeout / 4)
            .min(Duration::from_secs(1))
            .max(config.poll_interval)
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Connections owed a turn since before this iteration's events.
            let backlog = self.ready.len();
            let timeout = if backlog != 0 {
                Duration::ZERO // frames to execute: only look, never sleep
            } else if self.draining {
                self.shared
                    .config
                    .poll_interval
                    .min(Duration::from_millis(25))
            } else {
                self.sweep_interval()
            };
            let poller = &self.shared.ports[self.index].poller;
            // A time-out is `Ok` with no events; an error means no wait
            // happened, so without the pause this loop would spin.
            if let Err(e) = poller.wait(&mut events, Some(timeout)) {
                if !std::mem::replace(&mut self.wait_error_reported, true) {
                    eprintln!("gdpr-server: event loop {}: poller wait: {e}", self.index);
                }
                std::thread::sleep(self.shared.config.poll_interval);
            }
            self.shared.dispatcher.client_cells().reactor_wakeup();

            for &event in &events {
                if event.key == LISTENER_KEY {
                    self.accept_pass();
                    continue;
                }
                let slot = event.key - 1;
                if self.conns.get(slot).is_none_or(Option::is_none) {
                    continue; // closed earlier this iteration
                }
                if event.readable {
                    self.read_pass(slot);
                }
                self.serve(slot);
            }
            self.adopt_inbox();
            // Fresh requests were served above, each up to the budget; now
            // the older backlogs get their next helping, one each.
            for _ in 0..backlog {
                let Some(slot) = self.ready.pop_front() else {
                    break;
                };
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.queued = false;
                }
                self.serve(slot);
            }

            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.drain_tick() {
                break;
            }
            if self.last_sweep.elapsed() >= self.sweep_interval() {
                self.idle_sweep();
                self.last_sweep = Instant::now();
            }
        }
        for feeder in self.feeders.drain(..) {
            let _ = feeder.join();
        }
    }

    /// Accept every queued connection (the listener is level-triggered)
    /// and deal each to the next loop in turn.
    fn accept_pass(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let clients = self.shared.dispatcher.client_cells();
                    if at_connection_limit(
                        self.shared.config.max_connections,
                        clients.snapshot().connected,
                    ) {
                        reject_over_limit(stream, clients);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Counted here, not when its loop adopts it, so the
                    // limit check above sees sockets still in an inbox.
                    clients.connection_opened();
                    let target = self.next_loop;
                    self.next_loop = (target + 1) % self.shared.ports.len();
                    let port = &self.shared.ports[target];
                    port.inbox.lock().push(stream);
                    if target != self.index {
                        port.poller.notify();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Register the sockets loop 0 dealt to this loop.
    fn adopt_inbox(&mut self) {
        let port = &self.shared.ports[self.index];
        let streams = std::mem::take(&mut *port.inbox.lock());
        for stream in streams {
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            if port.poller.add(&stream, Event::readable(slot + 1)).is_err() {
                self.free_slots.push(slot);
                self.shared.dispatcher.client_cells().connection_closed();
                continue;
            }
            self.conns[slot] = Some(Conn::new(stream, self.shared.config.max_frame_bytes));
        }
    }

    /// Read until the socket runs dry (or the pass/backpressure caps
    /// kick in), decoding complete frames into the pending batch.
    fn read_pass(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.input_closed || conn.dead {
            return;
        }
        let mut decoded_any = false;
        for _ in 0..MAX_READ_PASSES {
            if conn.pending.len() >= MAX_PENDING_FRAMES {
                break; // backpressure: pause reads until the backlog shrinks
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.input_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.feed(&self.scratch[..n]);
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => {
                                decoded_any = true;
                                if resp::repl::is_replsync_command(&frame) {
                                    // Quiesce, then hand the socket to a
                                    // blocking replication feeder; bytes
                                    // after the handshake belong to the
                                    // replication protocol, not RESP.
                                    conn.replsync = true;
                                    conn.input_closed = true;
                                    break;
                                }
                                conn.pending.push_back(frame);
                            }
                            Ok(None) => break,
                            Err(e) => {
                                // Protocol error: the stream offset is
                                // unrecoverable. Answer everything decoded
                                // before it, then this error, then close.
                                conn.error_reply = Some(Frame::Error(format!("ERR {e}")));
                                conn.input_closed = true;
                                break;
                            }
                        }
                    }
                    if conn.input_closed {
                        break;
                    }
                    // A short read very likely drained the socket. The
                    // drain phase wants proof, and reads on to WouldBlock.
                    if n < self.scratch.len() && !self.draining {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Draining: everything that had reached the socket is
                    // now decoded, so nothing later will be answered.
                    conn.input_closed = self.draining;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if decoded_any {
            let now = Instant::now();
            conn.last_frame = now;
            if !conn.pending.is_empty() {
                conn.batch_decoded_at.get_or_insert(now);
            }
        }
    }

    /// One connection's turn: execute up to [`TURN_FRAME_BUDGET`] of its
    /// pending frames, write what it owes at once, then the bookkeeping.
    fn serve(&mut self, slot: usize) {
        self.execute(slot);
        self.flush(slot);
        self.finish_io(slot);
    }

    /// Execute a connection's oldest frames, encoding each reply straight
    /// into the outbox; with frames left over it joins the ready list. A
    /// connection already on the list waits for its turn there.
    fn execute(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.queued || conn.pending.is_empty() {
            return;
        }
        let dispatcher = &self.shared.dispatcher;
        // This connection plus the ones still waiting for their turn.
        dispatcher
            .client_cells()
            .observe_worker_queue_depth(self.ready.len() as u64 + 1);
        if let Some(decoded_at) = conn.batch_decoded_at.take() {
            dispatcher
                .metrics()
                .record_worker_queue_wait(decoded_at.elapsed());
        }
        let mut shutdown_seen = false;
        let turn = conn.pending.len().min(TURN_FRAME_BUDGET);
        for frame in conn.pending.drain(..turn) {
            shutdown_seen |= is_shutdown_command(&frame);
            let reply = dispatcher.handle_owned_frame(frame, &mut conn.session);
            encode_into(&reply, &mut conn.outbox);
        }
        conn.queued = !conn.pending.is_empty();
        if conn.queued {
            self.ready.push_back(slot);
        } else {
            // An idle connection keeps no backlog allocation, whether its
            // last pipeline was one frame deep or thousands.
            conn.pending = VecDeque::new();
        }
        if shutdown_seen {
            self.shared.request_shutdown();
        }
    }

    /// Write as much of the outbox as the socket accepts right now.
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        while conn.out_pos < conn.outbox.len() {
            match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.dead {
            conn.outbox.clear();
            conn.out_pos = 0;
            conn.pending.clear();
            conn.input_closed = true;
        } else if conn.outbox_flushed() && !conn.outbox.is_empty() {
            // Batch fully delivered: reuse the buffer, but never let one
            // oversized reply (a big export) pin memory for the
            // connection's lifetime.
            conn.out_pos = 0;
            shrink_buffer(&mut conn.outbox, self.shared.config.buffer_cap_bytes);
        }
    }

    /// Post-I/O bookkeeping for a connection: attach a deferred protocol
    /// error once the replies ahead of it are encoded, re-register
    /// interest, close or hand off when fully quiesced.
    fn finish_io(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.pending.is_empty() {
            if let Some(err) = conn.error_reply.take() {
                encode_into(&err, &mut conn.outbox);
                conn.close_after_flush = true;
                self.flush(slot);
            }
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.dead || (conn.quiesced() && (conn.close_after_flush || conn.input_closed)) {
            if conn.replsync && !conn.dead {
                self.handoff_replsync(slot);
            } else {
                self.close_conn(slot);
            }
            return;
        }
        // Keep the poller's interest set in line with what the state
        // machine can use: reads unless the backlog is at its cap, writes
        // only while a write is owed after a `WouldBlock`.
        let want_read = !conn.input_closed && conn.pending.len() < MAX_PENDING_FRAMES;
        let want_write = !conn.outbox_flushed();
        if want_read != conn.reg_read || want_write != conn.reg_write {
            let event = Event {
                key: slot + 1,
                readable: want_read,
                writable: want_write,
            };
            let poller = &self.shared.ports[self.index].poller;
            if poller.modify(&conn.stream, event).is_ok() {
                conn.reg_read = want_read;
                conn.reg_write = want_write;
            }
        }
    }

    /// Take a connection out of the slab, the poller and the ready list.
    fn release(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.conns[slot].take()?;
        let _ = self.shared.ports[self.index].poller.delete(&conn.stream);
        if conn.queued {
            self.ready.retain(|&queued| queued != slot);
        }
        self.free_slots.push(slot);
        Some(conn)
    }

    fn close_conn(&mut self, slot: usize) {
        if self.release(slot).is_some() {
            self.shared.dispatcher.client_cells().connection_closed();
        }
    }

    /// Turn a quiesced `REPLSYNC` connection back into a blocking socket
    /// and hand it to a replication feeder thread (the stream protocol is
    /// long-lived and blocking by design; the feeder watches the shutdown
    /// flag just like the threads transport's handler does).
    fn handoff_replsync(&mut self, slot: usize) {
        let Some(conn) = self.release(slot) else {
            return;
        };
        let mut stream = conn.stream;
        let shared = Arc::clone(&self.shared);
        let feeder = std::thread::Builder::new()
            .name("gdpr-server-replfeed".to_string())
            .spawn(move || {
                let poll_interval = shared.config.poll_interval;
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(poll_interval));
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                crate::replication::serve_stream(
                    &mut stream,
                    &shared.dispatcher,
                    &shared.shutdown,
                    poll_interval,
                );
                shared.dispatcher.client_cells().connection_closed();
            })
            .expect("spawn replication feeder");
        self.feeders.push(feeder);
    }

    /// Sweep for connections idle past the read timeout. Only truly idle
    /// connections qualify: anything with queued frames or unflushed
    /// replies is working, not idle.
    fn idle_sweep(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if !conn.quiesced() || conn.input_closed || conn.dead {
                continue;
            }
            if conn.last_frame.elapsed() > self.shared.config.read_timeout {
                self.shared.dispatcher.client_cells().idle_timeout();
                encode_into(&Frame::Error("ERR idle timeout".into()), &mut conn.outbox);
                conn.close_after_flush = true;
                conn.input_closed = true;
                self.serve(slot);
            }
        }
    }

    /// Enter the drain phase: stop accepting. [`Self::drain_tick`] reads
    /// what is left on the sockets.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Instant::now() + DRAIN_DEADLINE;
        if let Some(listener) = self.listener.take() {
            let _ = self.shared.ports[self.index].poller.delete(&listener);
            self.shared.accepting.store(false, Ordering::SeqCst);
        }
    }

    /// One drain iteration: read every connection whose input is still
    /// open — a read pass while draining closes the input only on
    /// `WouldBlock` or EOF, so bytes that had reached the socket are
    /// answered however deep the backlog — and report true once every
    /// connection is gone (or the deadline forces the stragglers).
    fn drain_tick(&mut self) -> bool {
        let expired = Instant::now() >= self.drain_deadline;
        if self.shared.accepting.load(Ordering::SeqCst) && !expired {
            return false; // loop 0 may still deal a socket to this loop
        }
        self.adopt_inbox();
        for slot in 0..self.conns.len() {
            if expired {
                self.close_conn(slot);
            } else if self.conns[slot].as_ref().is_some_and(|c| !c.input_closed) {
                self.read_pass(slot);
                self.serve(slot);
            }
        }
        self.conns.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::Transport;
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;

    fn kv_dispatcher(shards: usize) -> Dispatcher {
        Dispatcher::kv(KvStore::open(StoreConfig::in_memory().shards(shards)).unwrap())
    }

    #[test]
    fn loop_count_is_min_of_cores_and_shards_unless_configured() {
        let config = ServerConfig::default();
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(loop_count(&config, &kv_dispatcher(1)), 1);
        let wide = loop_count(&config, &kv_dispatcher(64));
        assert_eq!(wide, cores.clamp(1, 64));
        let explicit = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        assert_eq!(loop_count(&explicit, &kv_dispatcher(64)), 3);
    }

    #[test]
    fn transport_default_is_reactor() {
        // GDPR_TRANSPORT is unset in unit tests unless CI injects it; the
        // parse table is what this pins down.
        assert_eq!(Transport::parse("reactor"), Some(Transport::Reactor));
        assert_eq!(Transport::parse("threads"), Some(Transport::Threads));
        assert_eq!(Transport::parse("bogus"), None);
        assert_eq!(Transport::default(), Transport::Reactor);
    }
}
