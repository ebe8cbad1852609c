//! The RESP2 TCP front-end: one listener, two interchangeable transports.
//!
//! * [`Transport::Reactor`] (default) — the event-driven connection layer
//!   in [`crate::reactor`]: N symmetric run-to-completion event loops,
//!   each polling its own non-blocking connection sockets and executing
//!   their [`Dispatcher`] batches itself; loop 0 also accepts and deals
//!   the sockets out. Thousands of mostly idle connections cost one
//!   registered descriptor each instead of one OS thread each.
//! * [`Transport::Threads`] — the classic Redis-era shape kept as a
//!   baseline and fallback: one accept thread, one OS thread per
//!   connection, blocking reads with a short poll timeout so every
//!   thread notices the shutdown flag promptly.
//!
//! Both transports share [`ServerConfig`], the connection counters on the
//! dispatcher (`# Clients` in `INFO`), pipelining (each command is run
//! straight from the incremental [`Decoder`]'s buffer, as a borrowed view,
//! and the whole batch of replies is written back together), the
//! idle-timeout rule (measured from the last
//! *complete* request frame, so a byte-trickling client cannot hold a
//! slot open), and the shutdown protocol:
//! [`TcpServerHandle::request_shutdown`] raises a flag, the transport
//! answers every request whose bytes already reached the server, then
//! closes. [`TcpServerHandle::shutdown`] joins all transport threads.
//!
//! The transport is selected by [`ServerConfig::transport`] (default: the
//! reactor); the integration suites pin each transport explicitly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use resp::decode::Decoder;
use resp::encode::{encode_frame, encode_into};
use resp::repl::REPLSYNC;
use resp::Frame;

use crate::dispatch::{ClientStatsCells, Dispatcher, Session};

/// Which connection layer serves the listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Run-to-completion event loops (see [`crate::reactor`]).
    #[default]
    Reactor,
    /// One OS thread per connection (the original transport).
    Threads,
}

impl Transport {
    /// Parse a transport label (`reactor` / `threads`).
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "reactor" | "epoll" | "event" => Some(Transport::Reactor),
            "threads" | "thread" => Some(Transport::Threads),
            _ => None,
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Reactor => write!(f, "reactor"),
            Transport::Threads => write!(f, "threads"),
        }
    }
}

/// Tunables of the TCP front-end, shared by both transports.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The connection layer to serve with (default: the reactor).
    pub transport: Transport,
    /// Maximum concurrently served connections; further clients receive a
    /// final `-ERR max connections reached` frame and are disconnected.
    /// `0` means unlimited (useful on the reactor, whose per-connection
    /// cost is a registered descriptor rather than an OS thread).
    pub max_connections: usize,
    /// Event-loop threads of the reactor transport, each serving its
    /// share of the connections from read to reply; `0` means
    /// `min(available cores, engine shards)`.
    pub workers: usize,
    /// Drop a connection after this long without receiving a complete
    /// request frame (partial frames do not count — see the slow-loris
    /// tests).
    pub read_timeout: Duration,
    /// Socket write timeout for replies.
    pub write_timeout: Duration,
    /// Largest request frame accepted before the connection is dropped
    /// with a protocol error (see [`resp::decode::Decoder`]).
    pub max_frame_bytes: usize,
    /// How often blocked reads (threads transport) or the event loop
    /// (reactor) wake up to check the shutdown flag.
    pub poll_interval: Duration,
    /// Per-connection reply buffers are reused across pipelined batches
    /// and shrunk back to this capacity after a larger reply (e.g. a big
    /// `GDPR.EXPORT`) so one burst does not pin memory forever.
    pub buffer_cap_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            transport: Transport::default(),
            max_connections: 1024,
            workers: 0,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: 8 * 1024 * 1024,
            poll_interval: Duration::from_millis(25),
            buffer_cap_bytes: 64 * 1024,
        }
    }
}

/// Counters describing transport-level activity (the dispatcher keeps the
/// request/error counters). Backed by the dispatcher's shared
/// [`crate::dispatch::ClientStats`] cells, so both transports report
/// through the same counters that `INFO` / `GDPR.STATS` surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections refused because the limit was reached.
    pub rejected: u64,
    /// Connections currently open.
    pub active: usize,
}

/// A running TCP server over either transport.
///
/// Dropping the handle requests shutdown but does not wait for the
/// threads; call [`TcpServerHandle::shutdown`] for a clean join.
pub struct TcpServer {
    backend: Backend,
}

enum Backend {
    Threads(ThreadsServer),
    Reactor(crate::reactor::ReactorServer),
}

/// Public alias: the value returned by [`TcpServer::bind`] acts as the
/// handle to the running server.
pub type TcpServerHandle = TcpServer;

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.local_addr())
            .field("transport", &self.transport())
            .field("active", &self.transport_stats().active)
            .finish()
    }
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// the dispatcher's engine on [`ServerConfig::transport`].
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error (or, on the reactor, the poller
    /// creation error).
    pub fn bind(
        dispatcher: Dispatcher,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<TcpServerHandle> {
        let listener = TcpListener::bind(addr)?;
        dispatcher.metrics().set_transport(match config.transport {
            Transport::Threads => "threads",
            Transport::Reactor => "reactor",
        });
        let backend = match config.transport {
            Transport::Threads => {
                Backend::Threads(ThreadsServer::start(dispatcher, listener, config)?)
            }
            Transport::Reactor => Backend::Reactor(crate::reactor::ReactorServer::start(
                dispatcher, listener, config,
            )?),
        };
        Ok(TcpServer { backend })
    }

    /// The transport actually serving this listener.
    #[must_use]
    pub fn transport(&self) -> Transport {
        match &self.backend {
            Backend::Threads(_) => Transport::Threads,
            Backend::Reactor(_) => Transport::Reactor,
        }
    }

    /// The address the server actually listens on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        match &self.backend {
            Backend::Threads(s) => s.shared.addr,
            Backend::Reactor(s) => s.local_addr(),
        }
    }

    /// The dispatcher serving this listener.
    #[must_use]
    pub fn dispatcher(&self) -> &Dispatcher {
        match &self.backend {
            Backend::Threads(s) => &s.shared.dispatcher,
            Backend::Reactor(s) => s.dispatcher(),
        }
    }

    /// Whether shutdown has been requested (by [`Self::request_shutdown`]
    /// or a client's `SHUTDOWN` command).
    #[must_use]
    pub fn is_shutdown_requested(&self) -> bool {
        match &self.backend {
            Backend::Threads(s) => s.shared.shutdown.load(Ordering::SeqCst),
            Backend::Reactor(s) => s.is_shutdown_requested(),
        }
    }

    /// Transport-level counters.
    #[must_use]
    pub fn transport_stats(&self) -> TransportStats {
        let clients = self.dispatcher().client_stats();
        TransportStats {
            accepted: clients.accepted,
            rejected: clients.rejected_over_limit,
            active: usize::try_from(clients.connected).unwrap_or(usize::MAX),
        }
    }

    /// Raise the shutdown flag and wake the transport. Safe to call from
    /// any thread (including connection handlers); returns immediately.
    pub fn request_shutdown(&self) {
        match &self.backend {
            Backend::Threads(s) => request_shutdown(&s.shared),
            Backend::Reactor(s) => s.request_shutdown(),
        }
    }

    /// Request shutdown and join every transport thread. In-flight
    /// requests already received by the server are answered before their
    /// connections close.
    pub fn shutdown(mut self) {
        match &mut self.backend {
            Backend::Threads(s) => s.shutdown(),
            Backend::Reactor(s) => s.shutdown(),
        }
    }

    /// Block until shutdown is requested (used by the server binary's main
    /// thread), polling every `interval`.
    pub fn wait_for_shutdown_request(&self, interval: Duration) {
        while !self.is_shutdown_requested() {
            std::thread::sleep(interval);
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // Best effort: stop the threads, but do not block in drop.
        self.request_shutdown();
    }
}

// ---------------------------------------------------------------------------
// Thread-per-connection transport
// ---------------------------------------------------------------------------

struct Shared {
    dispatcher: Dispatcher,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
}

impl Shared {
    fn clients(&self) -> &ClientStatsCells {
        self.dispatcher.client_cells()
    }
}

/// The thread-per-connection backend.
struct ThreadsServer {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ThreadsServer {
    fn start(
        dispatcher: Dispatcher,
        listener: TcpListener,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            dispatcher,
            config,
            addr: local,
            shutdown: AtomicBool::new(false),
        });
        let connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_connections = Arc::clone(&connections);
        let accept_thread = std::thread::Builder::new()
            .name("gdpr-server-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_connections))?;

        Ok(ThreadsServer {
            shared,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    fn shutdown(&mut self) {
        request_shutdown(&self.shared);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.connections.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn request_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake the accept loop with a throwaway loopback connection.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(250));
}

/// Whether the connection count is at the configured cap (`0` = never).
pub(crate) fn at_connection_limit(limit: usize, connected: u64) -> bool {
    limit != 0 && connected >= limit as u64
}

/// Refuse a connection with a final `-ERR max connections reached` frame
/// (best effort — the peer may already be gone) and record the rejection.
pub(crate) fn reject_over_limit(mut stream: TcpStream, clients: &ClientStatsCells) {
    clients.connection_rejected();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(&encode_frame(&Frame::Error(
        "ERR max connections reached".to_string(),
    )));
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let clients = shared.clients();
        if at_connection_limit(shared.config.max_connections, clients.snapshot().connected) {
            reject_over_limit(stream, clients);
            continue;
        }
        clients.connection_opened();
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("gdpr-server-conn".to_string())
            .spawn(move || {
                serve_connection(stream, &conn_shared);
                conn_shared.clients().connection_closed();
            })
            .expect("spawn connection thread");
        let mut conns = connections.lock();
        // Reap finished handlers so long-running servers do not accumulate
        // one JoinHandle per historical connection.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Serve one connection until the client disconnects, errors, idles out or
/// the server shuts down. Every read drains the decoder completely and the
/// whole batch of replies is written back in one syscall (pipelining); the
/// reply buffer is reused across batches and shrunk back to the configured
/// cap after an oversized reply.
fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));

    let mut decoder = Decoder::with_max_frame_bytes(shared.config.max_frame_bytes);
    let mut session = Session::new();
    let mut read_buf = [0u8; 16 * 1024];
    let mut replies: Vec<u8> = Vec::new();
    let mut last_frame = Instant::now();

    loop {
        // Sample the flag *before* reading: when shutdown is requested we
        // still perform one more read, so bytes already queued on the
        // socket are served before the connection closes.
        let stopping = shared.shutdown.load(Ordering::SeqCst);
        match stream.read(&mut read_buf) {
            Ok(0) => return,
            Ok(n) => {
                decoder.feed(&read_buf[..n]);
                replies.clear();
                let mut decoded_any = false;
                let mut shutdown_seen = false;
                loop {
                    match decoder.next_request() {
                        Ok(Some(request)) => {
                            decoded_any = true;
                            if request.is_command(REPLSYNC) {
                                // The connection becomes a replication
                                // stream: answer everything already
                                // pipelined ahead of the handshake, then
                                // hand the socket to the feeder until the
                                // replica disconnects or we shut down.
                                if !replies.is_empty() && stream.write_all(&replies).is_err() {
                                    return;
                                }
                                crate::replication::serve_stream(
                                    &mut stream,
                                    &shared.dispatcher,
                                    &shared.shutdown,
                                    shared.config.poll_interval,
                                );
                                return;
                            }
                            shutdown_seen |= request.is_command(SHUTDOWN);
                            let reply = shared.dispatcher.handle_request(request, &mut session);
                            encode_into(&reply, &mut replies);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Protocol error: answer with an error frame and
                            // drop the connection (the stream offset is
                            // unrecoverable).
                            encode_into(&Frame::Error(format!("ERR {e}")), &mut replies);
                            let _ = stream.write_all(&replies);
                            return;
                        }
                    }
                }
                // Only a *complete* request frame counts as activity: a
                // client trickling a frame byte-by-byte still idles out.
                if decoded_any {
                    last_frame = Instant::now();
                }
                if !replies.is_empty() {
                    if stream.write_all(&replies).is_err() {
                        return;
                    }
                    shrink_buffer(&mut replies, shared.config.buffer_cap_bytes);
                }
                if shutdown_seen {
                    request_shutdown(shared);
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stopping {
                    return;
                }
                if last_frame.elapsed() > shared.config.read_timeout {
                    shared.clients().idle_timeout();
                    let _ = stream
                        .write_all(&encode_frame(&Frame::Error("ERR idle timeout".to_string())));
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Drop an oversized reusable buffer back to the configured capacity cap
/// once its contents are consumed, so one huge reply (a large export, a
/// deep pipeline) does not pin memory for the connection's lifetime.
pub(crate) fn shrink_buffer(buf: &mut Vec<u8>, cap: usize) {
    debug_assert!(buf.is_empty() || buf.len() <= buf.capacity());
    if buf.capacity() > cap {
        buf.clear();
        buf.shrink_to(cap);
    } else {
        buf.clear();
    }
}

/// The command the transports intercept to stop the server once its
/// reply is written.
pub(crate) const SHUTDOWN: &str = "SHUTDOWN";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpRemoteClient;
    use crate::reactor::{MAX_PENDING_BYTES, TURN_FRAME_BUDGET};
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;

    fn kv_server(config: ServerConfig) -> TcpServerHandle {
        let dispatcher = Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap());
        TcpServer::bind(dispatcher, "127.0.0.1:0", config).unwrap()
    }

    /// Every transport-behavior test in this module runs against the
    /// reactor at one and at three event loops and against the threads
    /// transport; a test overrides further fields of the config it gets.
    fn for_each_transport(mut test: impl FnMut(ServerConfig, &str)) {
        for (transport, workers) in [
            (Transport::Reactor, 1),
            (Transport::Reactor, 3),
            (Transport::Threads, 0),
        ] {
            let config = ServerConfig {
                transport,
                workers,
                ..ServerConfig::default()
            };
            test(config, &format!("{transport}, workers={workers}"));
        }
    }

    #[test]
    fn serves_basic_roundtrips_over_a_real_socket() {
        for_each_transport(|config, label| {
            let transport = config.transport;
            let server = kv_server(config);
            let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
            client.set("k", b"v").unwrap();
            assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
            assert_eq!(client.get("missing").unwrap(), None);
            assert!(client.delete("k").unwrap());
            assert_eq!(server.dispatcher().stats().requests, 4, "{label}");
            assert_eq!(server.transport(), transport);
            server.shutdown();
        });
    }

    #[test]
    fn pipelined_batch_returns_every_reply_in_order() {
        for_each_transport(|config, label| {
            let server = kv_server(config);
            let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
            let frames: Vec<Frame> = (0..50)
                .map(|i| Frame::command(["SET", &format!("k{i}"), &format!("v{i}")]))
                .collect();
            let replies = client.pipeline(&frames).unwrap();
            assert_eq!(replies.len(), 50, "{label}");
            assert!(replies.iter().all(|r| *r == Frame::Simple("OK".into())));
            let frames: Vec<Frame> = (0..50)
                .map(|i| Frame::command(["GET", &format!("k{i}")]))
                .collect();
            let replies = client.pipeline(&frames).unwrap();
            for (i, reply) in replies.iter().enumerate() {
                assert_eq!(*reply, Frame::Bulk(format!("v{i}").into_bytes()));
            }
            server.shutdown();
        });
    }

    #[test]
    fn connection_limit_rejects_excess_clients() {
        for_each_transport(|config, label| {
            let config = ServerConfig {
                max_connections: 1,
                ..config
            };
            let server = kv_server(config);
            let mut first = TcpRemoteClient::connect(server.local_addr()).unwrap();
            first.ping().unwrap();
            // The second client is rejected with a final error frame.
            let mut second = TcpRemoteClient::connect(server.local_addr()).unwrap();
            let err = second.ping().unwrap_err();
            assert!(
                matches!(err, crate::ServerError::Server(ref m) if m.contains("max connections")),
                "{label}: {err}"
            );
            assert_eq!(server.transport_stats().rejected, 1, "{label}");
            server.shutdown();
        });
    }

    #[test]
    fn idle_connections_are_dropped_after_the_read_timeout() {
        for_each_transport(|config, label| {
            let config = ServerConfig {
                read_timeout: Duration::from_millis(100),
                poll_interval: Duration::from_millis(10),
                ..config
            };
            let server = kv_server(config);
            let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
            std::thread::sleep(Duration::from_millis(400));
            // The server has either sent the idle-timeout error or closed
            // the socket; either way the next roundtrip fails.
            assert!(client.ping().is_err(), "{label}");
            assert_eq!(server.dispatcher().client_stats().idle_timeouts, 1);
            server.shutdown();
        });
    }

    #[test]
    fn oversized_frames_poison_only_their_connection() {
        for_each_transport(|config, label| {
            let config = ServerConfig {
                max_frame_bytes: 1024,
                ..config
            };
            let server = kv_server(config);
            let mut bad = TcpRemoteClient::connect(server.local_addr()).unwrap();
            let huge = vec![b'x'; 4096];
            let err = bad
                .roundtrip(&Frame::command([b"SET".to_vec(), b"k".to_vec(), huge]))
                .unwrap_err();
            assert!(
                matches!(err, crate::ServerError::Server(_)),
                "{label}: {err}"
            );
            // A fresh connection still works.
            let mut good = TcpRemoteClient::connect(server.local_addr()).unwrap();
            good.set("k", b"small").unwrap();
            server.shutdown();
        });
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        for_each_transport(|config, label| {
            let server = kv_server(config);
            let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
            client.set("k", b"v").unwrap();
            client.shutdown_server().unwrap();
            server.wait_for_shutdown_request(Duration::from_millis(5));
            assert!(server.is_shutdown_requested(), "{label}");
            server.shutdown();
        });
    }

    #[test]
    fn shutdown_drains_requests_already_on_the_wire() {
        for_each_transport(|config, label| {
            let server = kv_server(config);
            let addr = server.local_addr();
            let mut client = TcpRemoteClient::connect(addr).unwrap();
            // Write a large pipelined batch and only then request
            // shutdown: the bytes are already queued on the server socket,
            // so every reply must still arrive.
            let frames: Vec<Frame> = (0..200)
                .map(|i| Frame::command(["SET", &format!("k{i}"), "v"]))
                .collect();
            client.send_batch(&frames).unwrap();
            // Give loopback delivery a moment so the batch is queued on
            // the server socket before the flag goes up; the drain
            // guarantee is about bytes the server has already received.
            std::thread::sleep(Duration::from_millis(50));
            server.request_shutdown();
            let replies = client.read_replies(frames.len()).unwrap();
            assert_eq!(replies.len(), 200, "{label}");
            assert!(replies.iter().all(|r| *r == Frame::Simple("OK".into())));
            server.shutdown();
        });
    }

    fn reactor_server(workers: usize) -> TcpServerHandle {
        kv_server(ServerConfig {
            transport: Transport::Reactor,
            workers,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn a_deep_pipeline_yields_to_its_neighbours_every_turn_budget() {
        for workers in [1, 3] {
            let server = reactor_server(workers);
            let addr = server.local_addr();
            let requests = || server.dispatcher().stats().requests;
            // Sockets are dealt round-robin in accept order, so the
            // streamer shares a loop with the connection accepted
            // `workers` places after it and with none in between.
            let mut streamer = TcpRemoteClient::connect(addr).unwrap();
            let mut neighbours: Vec<TcpRemoteClient> = (0..workers)
                .map(|_| TcpRemoteClient::connect(addr).unwrap())
                .collect();
            // A keyspace walk per frame: slow next to the PING round
            // trips that sample the request counter below, tiny replies.
            let keys: Vec<Frame> = (0..20_000)
                .map(|i| Frame::command(["SET", &format!("key:{i}"), "v"]))
                .collect();
            streamer.pipeline(&keys).unwrap();
            for neighbour in &mut neighbours {
                neighbour.ping().unwrap();
            }
            let walk = vec![Frame::command(["KEYS", "nomatch*"]); MAX_PENDING_BYTES];
            let done = requests() + walk.len() as u64;
            streamer.send_batch(&walk).unwrap();

            // A neighbour on another loop waits for nothing but its own
            // PING; the last one shares the streamer's loop and waits for
            // the turn in progress when its PING arrived, no more.
            for (i, neighbour) in neighbours.iter_mut().enumerate() {
                let budget = TURN_FRAME_BUDGET as u64;
                let bound = if i + 1 == workers {
                    2 * budget
                } else {
                    budget / 4
                };
                let before = requests();
                neighbour.ping().unwrap();
                let waited = requests() - before;
                assert!(before + waited < done, "workers={workers}: walk over");
                assert!(
                    waited <= bound,
                    "workers={workers}, neighbour {i}: PING waited for {waited} frames"
                );
            }
            // Hang up on the rest of the walk instead of waiting for it.
            drop(streamer);
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_on_any_loop_answers_every_backlog_however_deep() {
        for workers in [1, 3] {
            let server = reactor_server(workers);
            let addr = server.local_addr();
            // Accepted first, second, third: loops 0, 1 and 2 of three.
            let mut deep = TcpRemoteClient::connect(addr).unwrap();
            let mut stopper = TcpRemoteClient::connect(addr).unwrap();
            let mut bystander = TcpRemoteClient::connect(addr).unwrap();
            for client in [&mut deep, &mut stopper, &mut bystander] {
                client.ping().unwrap();
            }
            // Deeper than the backpressure cap plus a turn budget, in
            // frames large enough that reads stop at the cap with the
            // tail still unread on the socket when SHUTDOWN is executed.
            let depth = MAX_PENDING_BYTES + TURN_FRAME_BUDGET + 1000;
            let value = "v".repeat(100);
            let backlog: Vec<Frame> = (0..depth)
                .map(|i| Frame::command(["SET", &format!("key:{i}"), &value]))
                .collect();
            let few: Vec<Frame> = (0..50).map(|_| Frame::command(["PING"])).collect();
            deep.send_batch(&backlog).unwrap();
            bystander.send_batch(&few).unwrap();
            // From a second connection — on a loop other than 0 when
            // there are three — while the backlog is being worked off.
            stopper.shutdown_server().unwrap();

            let replies = deep.read_replies(depth).unwrap();
            assert_eq!(replies.len(), depth, "workers={workers}");
            assert!(replies.iter().all(|r| *r == Frame::Simple("OK".into())));
            assert_eq!(bystander.read_replies(few.len()).unwrap().len(), few.len());
            server.shutdown();
        }
    }

    #[test]
    fn accept_after_shutdown_is_refused() {
        for_each_transport(|config, label| {
            let server = kv_server(config);
            let addr = server.local_addr();
            server.shutdown();
            // The listener is gone; connecting now fails (or is dropped
            // immediately by the OS backlog).
            let client = TcpRemoteClient::connect(addr);
            if let Ok(mut c) = client {
                assert!(c.ping().is_err(), "{label}");
            }
        });
    }

    #[test]
    fn shrink_buffer_drops_oversized_capacity_back_to_the_cap() {
        let mut buf = Vec::with_capacity(1 << 20);
        buf.extend_from_slice(&[0u8; 1 << 20]);
        shrink_buffer(&mut buf, 4096);
        assert!(buf.is_empty());
        assert!(buf.capacity() <= 8192, "{}", buf.capacity());
        // A buffer under the cap keeps its capacity (no thrash).
        let mut small = Vec::with_capacity(1024);
        small.extend_from_slice(b"xyz");
        shrink_buffer(&mut small, 4096);
        assert!(small.is_empty());
        assert!(small.capacity() >= 1024);
    }
}
