//! Figure 1's stand-in for the paper's Stunnel proxies: a pair of loopback
//! relays between the YCSB client and an unmodified server.
//!
//! ```text
//! client ──plain──► client relay ══sealed records══► server relay ──plain──► TcpServer
//! ```
//!
//! Each relay seals what it reads into records for the hop between them
//! and opens what arrives from it (the record layer in `secure`).
//! A record on the hop is a 4-byte big-endian length and that many bytes
//! of ChaCha20-Poly1305 output. Every relay runs one thread per direction.
//! A thread that meets end of stream, an I/O error or a record that does
//! not open forwards nothing more and shuts both of its sockets down, which
//! ends the other thread of its relay and, through the hop, the other
//! relay: whichever end hangs up, all four threads end.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use gdpr_server::client::TcpRemoteClient;

use crate::secure::{self, RecordCipher, FRAME_OVERHEAD};

/// Largest plaintext sealed into one record.
const MAX_RECORD: usize = 16 * 1024;

/// How long the tunnelled client waits for a reply before it fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The two relays of one tunnelled connection.
#[derive(Debug)]
pub struct Tunnel {
    /// The client relay's plaintext socket, shut down on drop.
    front: TcpStream,
    relays: Vec<JoinHandle<()>>,
}

impl Tunnel {
    /// Open a tunnel to the server at `server` under `shared_secret` and
    /// return a client connected through it.
    ///
    /// # Errors
    ///
    /// Returns the socket or thread error that stopped the set-up.
    pub fn connect(
        server: SocketAddr,
        shared_secret: &[u8],
    ) -> gdpr_server::Result<(TcpRemoteClient, Tunnel)> {
        Self::connect_via(server, shared_secret, Ok)
    }

    /// [`Self::connect`], with the client relay dialling `hop(server
    /// relay's address)` for the hop.
    fn connect_via(
        server: SocketAddr,
        shared_secret: &[u8],
        hop: impl FnOnce(SocketAddr) -> std::io::Result<SocketAddr>,
    ) -> gdpr_server::Result<(TcpRemoteClient, Tunnel)> {
        let front = TcpListener::bind("127.0.0.1:0")?;
        let back = TcpListener::bind("127.0.0.1:0")?;
        let dial = hop(back.local_addr()?)?;
        let client = TcpRemoteClient::connect_timeout(&front.local_addr()?, REPLY_TIMEOUT)?;
        let (client_plain, _) = front.accept()?;
        let client_hop = TcpStream::connect(dial)?;
        let (server_hop, _) = back.accept()?;
        let server_plain = TcpStream::connect(server)?;
        let (client_end, server_end) = secure::channel(shared_secret);
        let mut tunnel = Tunnel {
            front: client_plain.try_clone()?,
            relays: Vec::with_capacity(4),
        };
        for (from, to, step) in [
            (&client_plain, &client_hop, sealing(client_end.send)),
            (&client_hop, &client_plain, opening(client_end.recv)),
            (&server_hop, &server_plain, opening(server_end.recv)),
            (&server_plain, &server_hop, sealing(server_end.send)),
        ] {
            let (from, to) = (from.try_clone()?, to.try_clone()?);
            tunnel.relays.push(
                std::thread::Builder::new()
                    .name("tunnel-relay".to_string())
                    .spawn(move || relay(from, to, step))?,
            );
        }
        Ok((client, tunnel))
    }

    /// Wait for every relay thread; they end once either end hangs up.
    ///
    /// # Panics
    ///
    /// When a relay thread panicked.
    pub fn join(mut self) {
        for relay in self.relays.drain(..) {
            relay.join().expect("a relay thread panicked");
        }
    }
}

impl Drop for Tunnel {
    /// Hang up on the client's behalf, then join every relay thread.
    fn drop(&mut self) {
        let _ = self.front.shutdown(Shutdown::Both);
        for relay in self.relays.drain(..) {
            let _ = relay.join();
        }
    }
}

/// What one relay direction forwards next: `None` ends it.
type Step = Box<dyn FnMut(&mut TcpStream) -> Option<Vec<u8>> + Send>;

/// Forward `step`'s output from `from` to `to` until it ends, then shut
/// both sockets down.
fn relay(mut from: TcpStream, mut to: TcpStream, mut step: Step) {
    while let Some(bytes) = step(&mut from) {
        if to.write_all(&bytes).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Read plaintext and frame it as one sealed record.
fn sealing(mut cipher: RecordCipher) -> Step {
    let mut buf = vec![0u8; MAX_RECORD];
    Box::new(move |from| {
        let n = from.read(&mut buf).ok().filter(|&n| n > 0)?;
        let sealed = cipher.seal(&buf[..n]);
        let mut record = Vec::with_capacity(4 + sealed.len());
        record.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
        record.extend_from_slice(&sealed);
        Some(record)
    })
}

/// Read one sealed record and open it.
fn opening(mut cipher: RecordCipher) -> Step {
    Box::new(move |from| {
        let mut len = [0u8; 4];
        from.read_exact(&mut len).ok()?;
        let len = u32::from_be_bytes(len) as usize;
        if len > MAX_RECORD + FRAME_OVERHEAD {
            return None;
        }
        let mut sealed = vec![0u8; len];
        from.read_exact(&mut sealed).ok()?;
        cipher.open(&sealed).ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Instant;

    use gdpr_server::dispatch::Dispatcher;
    use gdpr_server::tcp::{ServerConfig, TcpServer};
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;
    use resp::Frame;

    fn server() -> TcpServer {
        let dispatcher = Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        TcpServer::bind(dispatcher, "127.0.0.1:0", config).unwrap()
    }

    /// A man in the middle of the hop. It forwards both directions, keeps
    /// a copy of every byte it carries, and flips the client-to-server
    /// byte at stream offset `flip`. Returns the hop routing for
    /// [`Tunnel::connect_via`], the copy, and the thread to join.
    #[allow(clippy::type_complexity)]
    fn tap(
        flip: Option<usize>,
    ) -> (
        impl FnOnce(SocketAddr) -> std::io::Result<SocketAddr>,
        Arc<Mutex<Vec<u8>>>,
        JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let copy = Arc::clone(&seen);
        let thread = std::thread::spawn(move || {
            let (client_side, _) = listener.accept().unwrap();
            let server_side = TcpStream::connect(rx.recv().unwrap()).unwrap();
            let upstream = {
                let from = client_side.try_clone().unwrap();
                let to = server_side.try_clone().unwrap();
                let copy = Arc::clone(&copy);
                std::thread::spawn(move || forward(from, to, &copy, flip))
            };
            forward(server_side, client_side, &copy, None);
            upstream.join().unwrap();
        });
        let route = move |back| {
            tx.send(back).unwrap();
            Ok(addr)
        };
        (route, seen, thread)
    }

    fn forward(mut from: TcpStream, mut to: TcpStream, seen: &Mutex<Vec<u8>>, flip: Option<usize>) {
        let mut offset = 0;
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = from.read(&mut buf) {
            let chunk = &mut buf[..n];
            if let Some(i) = flip.and_then(|f| f.checked_sub(offset)).filter(|&i| i < n) {
                chunk[i] ^= 1;
            }
            seen.lock().unwrap().extend_from_slice(chunk);
            offset += n;
            if to.write_all(chunk).is_err() {
                break;
            }
        }
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    }

    /// Join every relay thread, failing the test after ten seconds.
    fn join_within_timeout(tunnel: Tunnel) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            tunnel.join();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("every relay thread ends");
    }

    /// Wait until the server has closed every connection.
    fn server_side_closed(server: &TcpServer) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.dispatcher().client_stats().connected > 0 {
            assert!(
                Instant::now() < deadline,
                "the server kept the relay's connection"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn secure_roundtrip_matches_plain_semantics() {
        let (plain_server, tunnelled_server) = (server(), server());
        let mut plain = TcpRemoteClient::connect(plain_server.local_addr()).unwrap();
        let (mut tunnelled, tunnel) =
            Tunnel::connect(tunnelled_server.local_addr(), b"secret").unwrap();
        let frames = [
            Frame::command(["SET", "k", "v"]),
            Frame::command(["GET", "k"]),
            Frame::command(["PEXPIRE", "k", "60000"]),
            Frame::command(["SCAN", "", "10"]),
            Frame::command(["HSET", "h", "f", "v"]),
            Frame::command(["GET", "h"]),
            Frame::command(["NOPE"]),
        ];
        for frame in &frames {
            let want = plain.pipeline(std::slice::from_ref(frame)).unwrap();
            let got = tunnelled.pipeline(std::slice::from_ref(frame)).unwrap();
            assert_eq!(got, want, "{frame:?}");
        }
        // A server error frame comes back through the tunnel as an error.
        assert!(tunnelled.get("h").is_err());
        drop(tunnelled);
        join_within_timeout(tunnel);
    }

    #[test]
    fn canary_never_crosses_the_hop_in_clear() {
        let server = server();
        let (route, seen, tap_thread) = tap(None);
        let (mut client, tunnel) =
            Tunnel::connect_via(server.local_addr(), b"secret", route).unwrap();
        let canary = b"canary-7f3a9c-alice@example.com";
        client.set("user:1", canary).unwrap();
        assert_eq!(client.get("user:1").unwrap().as_deref(), Some(&canary[..]));
        drop(client);
        join_within_timeout(tunnel);
        tap_thread.join().unwrap();
        let seen = seen.lock().unwrap();
        assert!(!seen.windows(canary.len()).any(|w| w == canary));
        // The hop carries every record's length and tag on top of the
        // two requests and two replies.
        let plain = resp::encode::encode_frame(&Frame::command([&b"SET"[..], b"user:1", canary]))
            .len()
            + "+OK\r\n".len()
            + resp::encode::encode_frame(&Frame::command(["GET", "user:1"])).len()
            + resp::encode::encode_frame(&Frame::Bulk(canary.to_vec())).len();
        assert!(seen.len() > plain, "{} vs {plain}", seen.len());
    }

    #[test]
    fn a_flipped_record_byte_closes_both_sides_unforwarded() {
        let server = server();
        // Offset 6 lies in the first record's ciphertext, past its length.
        let (route, _, tap_thread) = tap(Some(6));
        let (mut client, tunnel) =
            Tunnel::connect_via(server.local_addr(), b"secret", route).unwrap();
        assert!(
            client.ping().is_err(),
            "the client gets an error, not a reply"
        );
        join_within_timeout(tunnel);
        tap_thread.join().unwrap();
        server_side_closed(&server);
        assert_eq!(server.dispatcher().stats().requests, 0);
    }

    #[test]
    fn relays_exit_when_the_client_hangs_up() {
        let server = server();
        let (mut client, tunnel) = Tunnel::connect(server.local_addr(), b"secret").unwrap();
        client.ping().unwrap();
        drop(client);
        join_within_timeout(tunnel);
        server_side_closed(&server);
        assert_eq!(server.dispatcher().stats().requests, 1);
    }
}
