//! The RESP2 TCP front-end: one listener served by the run-to-completion
//! event loops in [`crate::reactor`]. Loop 0 accepts and deals the
//! sockets out; each loop polls its own non-blocking connections and
//! executes their [`Dispatcher`] batches itself, so a mostly idle
//! connection costs one registered descriptor, not one OS thread.
//!
//! [`ServerConfig`] holds the tunables: the connection cap, the event-loop
//! count, the idle timeout (measured from the last *complete* request
//! frame, so a byte-trickling client cannot hold a slot open) and the
//! buffer caps. The connection counters live on the dispatcher
//! (`# Clients` in `INFO`). Pipelined commands run straight from the
//! incremental decoder's buffer, as borrowed views, and their replies are
//! written back together. Shutdown:
//! [`TcpServerHandle::request_shutdown`] raises a flag, the loops answer
//! every request whose bytes already reached the server, then close;
//! [`TcpServerHandle::shutdown`] joins every loop.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use resp::encode::encode_frame;
use resp::Frame;

use crate::dispatch::{ClientStatsCells, Dispatcher};
use crate::reactor;

/// The connection layer: the event loops are the only one. The type and
/// [`ServerConfig::transport`] remain because the contract benchmark's
/// server setup names them; a declared suite-adaptation commit removes
/// both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Run-to-completion event loops (see [`crate::reactor`]).
    #[default]
    Reactor,
}

/// Tunables of the TCP front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The connection layer (the reactor is the only one; the field stays
    /// for the contract benchmark's server setup, and a declared
    /// suite-adaptation commit removes it).
    pub transport: Transport,
    /// Maximum concurrently served connections; further clients receive a
    /// final `-ERR max connections reached` frame and are disconnected.
    /// `0` (the default) means unlimited: a connection costs a registered
    /// descriptor, not an OS thread.
    pub max_connections: usize,
    /// Event-loop threads, each serving its share of the connections from
    /// read to reply; `0` means `min(available cores, engine shards)`.
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
    /// How often an idle event loop, and a replication feeder's blocked
    /// read, wake up to check the shutdown flag.
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
            max_connections: 0,
            workers: 0,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: 8 * 1024 * 1024,
            poll_interval: Duration::from_millis(25),
            buffer_cap_bytes: 64 * 1024,
        }
    }
}

/// A running TCP server: the event loops and the state they share.
///
/// Dropping the handle requests shutdown but does not wait for the
/// threads; call [`TcpServerHandle::shutdown`] for a clean join.
pub struct TcpServer {
    pub(crate) shared: Arc<reactor::Shared>,
    pub(crate) addr: SocketAddr,
    pub(crate) loops: Vec<std::thread::JoinHandle<()>>,
}

/// Public alias: the value returned by [`TcpServer::bind`] acts as the
/// handle to the running server.
pub type TcpServerHandle = TcpServer;

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .field("loops", &self.loops.len())
            .field("connected", &self.dispatcher().client_stats().connected)
            .finish()
    }
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the event
    /// loops serving the dispatcher's engine.
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error, the poller creation error or the
    /// error of a loop thread that could not be spawned.
    pub fn bind(
        dispatcher: Dispatcher,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<TcpServerHandle> {
        reactor::start(dispatcher, TcpListener::bind(addr)?, config)
    }

    /// The address the server actually listens on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dispatcher serving this listener.
    #[must_use]
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.shared.dispatcher
    }

    /// Whether shutdown has been requested (by [`Self::request_shutdown`]
    /// or a client's `SHUTDOWN` command).
    #[must_use]
    pub fn is_shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Raise the shutdown flag and wake every loop. Safe to call from any
    /// thread; returns immediately.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Request shutdown and join every event loop. In-flight requests
    /// already received by the server are answered before their
    /// connections close.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
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

/// The command the event loops intercept to stop the server once its
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

    /// Every transport-behavior test in this module runs at one and at
    /// three event loops; a test overrides further fields of the config
    /// it gets.
    fn for_each_loop_count(mut test: impl FnMut(ServerConfig, &str)) {
        for workers in [1, 3] {
            let config = ServerConfig {
                workers,
                ..ServerConfig::default()
            };
            test(config, &format!("workers={workers}"));
        }
    }

    #[test]
    fn serves_basic_roundtrips_over_a_real_socket() {
        for_each_loop_count(|config, label| {
            let server = kv_server(config);
            let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
            client.set("k", b"v").unwrap();
            assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
            assert_eq!(client.get("missing").unwrap(), None);
            assert!(client.delete("k").unwrap());
            assert_eq!(server.dispatcher().stats().requests, 4, "{label}");
            server.shutdown();
        });
    }

    #[test]
    fn pipelined_batch_returns_every_reply_in_order() {
        for_each_loop_count(|config, label| {
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
        for_each_loop_count(|config, label| {
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
            assert_eq!(
                server.dispatcher().client_stats().rejected_over_limit,
                1,
                "{label}"
            );
            server.shutdown();
        });
    }

    #[test]
    fn idle_connections_are_dropped_after_the_read_timeout() {
        for_each_loop_count(|config, label| {
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
        for_each_loop_count(|config, label| {
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
        for_each_loop_count(|config, label| {
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
        for_each_loop_count(|config, label| {
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
        for_each_loop_count(|config, label| {
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
