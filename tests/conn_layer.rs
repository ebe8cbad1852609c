//! Connection-layer regression battery, run against BOTH transports —
//! the reactor at one and at three event loops: over-limit refusal with
//! a final error frame, slow-loris idle enforcement,
//! partial-frame-at-shutdown drain semantics, the `# Clients` /
//! `clients_*=` stats surfaces, and what a loop of its own buys a
//! connection (a neighbour's slow export does not delay it, a `SHUTDOWN`
//! seen by any loop drains them all).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, TcpServerHandle, Transport};
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::encode::encode_frame;
use gdpr_storage::resp::Frame;

/// One way of serving: a transport and its `workers` setting (event
/// loops on the reactor; the threads transport ignores it).
#[derive(Clone, Copy)]
struct Leg {
    transport: Transport,
    workers: usize,
}

impl Leg {
    const fn new(transport: Transport, workers: usize) -> Leg {
        Leg { transport, workers }
    }

    fn config(self) -> ServerConfig {
        ServerConfig {
            transport: self.transport,
            workers: self.workers,
            ..ServerConfig::default()
        }
    }
}

impl std::fmt::Display for Leg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}, workers={}", self.transport, self.workers)
    }
}

const REACTOR_LEGS: [Leg; 2] = [
    Leg::new(Transport::Reactor, 1),
    Leg::new(Transport::Reactor, 3),
];

const BOTH: [Leg; 3] = [
    REACTOR_LEGS[0],
    REACTOR_LEGS[1],
    Leg::new(Transport::Threads, 0),
];

fn kv_server(leg: Leg, mutate: impl FnOnce(&mut ServerConfig)) -> TcpServerHandle {
    let mut config = leg.config();
    mutate(&mut config);
    let dispatcher = Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap());
    TcpServer::bind(dispatcher, "127.0.0.1:0", config).unwrap()
}

/// Wait (bounded) until `probe` returns true; panics with `what` if not.
fn eventually(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn over_limit_clients_get_a_final_error_frame_then_the_slot_frees_up() {
    for leg in BOTH {
        let server = kv_server(leg, |c| c.max_connections = 2);
        let addr = server.local_addr();
        let mut a = TcpRemoteClient::connect(addr).unwrap();
        let mut b = TcpRemoteClient::connect(addr).unwrap();
        a.ping().unwrap();
        b.ping().unwrap();

        // The third client is not silently dropped: it receives a final
        // RESP error frame before the close.
        let mut refused = TcpStream::connect(addr).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = Vec::new();
        refused.read_to_end(&mut raw).unwrap(); // close follows the frame
        assert_eq!(
            String::from_utf8_lossy(&raw),
            "-ERR max connections reached\r\n",
            "{leg}"
        );
        assert_eq!(server.transport_stats().rejected, 1, "{leg}");

        // Closing one served connection frees the slot for a newcomer.
        drop(b);
        eventually("freed slot is accepted again", || {
            TcpRemoteClient::connect(addr)
                .ok()
                .is_some_and(|mut c| c.ping().is_ok())
        });
        a.ping().unwrap();
        server.shutdown();
    }
}

#[test]
fn slow_loris_trickler_is_timed_out_without_stalling_other_connections() {
    for leg in BOTH {
        let server = kv_server(leg, |c| {
            c.read_timeout = Duration::from_millis(200);
            c.poll_interval = Duration::from_millis(10);
        });
        let addr = server.local_addr();

        // The trickler drips a single PING frame one byte at a time, each
        // byte well inside the idle timeout but the complete frame far
        // outside it. Only complete frames count as activity, so it must
        // be disconnected on schedule.
        let trickler = std::thread::spawn(move || {
            let mut socket = TcpStream::connect(addr).unwrap();
            for byte in b"*1\r\n$4\r\nPING\r\n" {
                if socket.write_all(&[*byte]).is_err() {
                    return; // server already closed us: expected
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });

        // Meanwhile other connections are served normally: existing ones
        // keep round-tripping and brand-new ones are still accepted (the
        // trickler must not pin the accept loop or the event loop).
        let mut steady = TcpRemoteClient::connect(addr).unwrap();
        for i in 0..10 {
            steady.set(&format!("k{i}"), b"v").unwrap();
            std::thread::sleep(Duration::from_millis(30));
        }
        let mut fresh = TcpRemoteClient::connect(addr).unwrap();
        fresh.ping().unwrap();

        eventually("trickler idle timeout recorded", || {
            server.dispatcher().client_stats().idle_timeouts >= 1
        });
        trickler.join().unwrap();
        steady.ping().unwrap();
        server.shutdown();
    }
}

#[test]
fn shutdown_answers_the_complete_frame_and_drops_the_partial_one() {
    for leg in BOTH {
        let server = kv_server(leg, |_| {});
        let addr = server.local_addr();

        // One complete SET plus the dangling prefix of a second frame in
        // a single segment: the complete request must be answered, the
        // partial one dropped, and the drain must not wait for its
        // missing bytes.
        let mut socket = TcpStream::connect(addr).unwrap();
        let mut payload = encode_frame(&Frame::command(["SET", "k", "v"]));
        payload.extend_from_slice(b"*3\r\n$3\r\nSET\r\n$7\r\npartial");
        socket.write_all(&payload).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        let started = Instant::now();
        server.request_shutdown();
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = Vec::new();
        socket.read_to_end(&mut raw).unwrap();
        assert_eq!(String::from_utf8_lossy(&raw), "+OK\r\n", "{leg}");
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{leg}: drain hung on a partial frame"
        );
    }
}

#[test]
fn client_counters_surface_in_info_and_gdpr_stats() {
    for leg in BOTH {
        let store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory().aof_in_memory(),
                Box::new(gdpr_storage::audit::sink::MemorySink::new()),
            )
            .unwrap(),
        );
        store.grant(Grant::new("app", "billing"));
        let server = TcpServer::bind(
            Dispatcher::gdpr(Arc::clone(&store)),
            "127.0.0.1:0",
            leg.config(),
        )
        .unwrap();
        let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
        client.auth("app", "billing").unwrap();
        client.set("k", b"v").unwrap();

        let info = match client.roundtrip(&Frame::command(["INFO"])).unwrap() {
            Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        for needle in [
            "# Clients",
            "clients_connected:1",
            "clients_accepted:1",
            "clients_rejected_over_limit:0",
            "clients_idle_timeouts:0",
        ] {
            assert!(info.contains(needle), "{leg}: missing {needle}\n{info}");
        }

        let stats: Vec<String> = match client.gdpr(&GdprRequest::Stats).unwrap() {
            Frame::Array(items) => items
                .iter()
                .map(|f| match f {
                    Frame::Bulk(b) => String::from_utf8_lossy(b).into_owned(),
                    other => panic!("unexpected {other:?}"),
                })
                .collect(),
            other => panic!("unexpected {other:?}"),
        };
        let line_value = |prefix: &str| -> u64 {
            stats
                .iter()
                .find_map(|l| l.strip_prefix(prefix))
                .unwrap_or_else(|| panic!("{leg}: no {prefix} line in {stats:?}"))
                .parse()
                .unwrap()
        };
        assert_eq!(line_value("clients_connected="), 1, "{leg}");
        assert_eq!(line_value("clients_accepted="), 1, "{leg}");
        let wakeups = line_value("clients_reactor_wakeups=");
        let queue_hwm = line_value("clients_worker_queue_hwm=");
        let queue_waits = server
            .dispatcher()
            .metrics()
            .stage_snapshots()
            .into_iter()
            .find(|(stage, _)| *stage == "worker_queue_wait")
            .map(|(_, waits)| waits.count())
            .unwrap();
        match leg.transport {
            // Some loop woke for the accept and for every request; one
            // connection was all that ever waited for its loop, once per
            // batch it sent (AUTH, SET, INFO and this GDPR.STATS).
            Transport::Reactor => {
                assert!(wakeups >= 4, "{leg}");
                assert_eq!(queue_hwm, 1, "{leg}");
                assert_eq!(queue_waits, 4, "{leg}");
            }
            // Thread-per-connection has neither an event loop nor a
            // ready list.
            Transport::Threads => {
                assert_eq!(wakeups, 0, "{leg}");
                assert_eq!(queue_hwm, 0, "{leg}");
                assert_eq!(queue_waits, 0, "{leg}");
            }
        }
        server.shutdown();
    }
}

#[test]
fn a_slow_export_delays_only_the_connections_on_its_loop() {
    for leg in REACTOR_LEGS {
        let store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory().aof_in_memory(),
                Box::new(gdpr_storage::audit::sink::MemorySink::new()),
            )
            .unwrap(),
        );
        store.grant(Grant::new("app", "billing"));
        let server = TcpServer::bind(Dispatcher::gdpr(store), "127.0.0.1:0", leg.config()).unwrap();
        let addr = server.local_addr();
        // Accepted first and second: loops 0 and 1 when there are three.
        let mut exporter = TcpRemoteClient::connect(addr).unwrap();
        let mut pinger = TcpRemoteClient::connect(addr).unwrap();
        exporter.auth("app", "billing").unwrap();
        pinger.ping().unwrap();

        // A subject large enough that its monolithic export outlasts a
        // PING round trip many times over.
        let keys = 3000;
        let puts: Vec<Frame> = (0..keys)
            .map(|i| {
                GdprRequest::Put {
                    key: format!("user:big:{i}"),
                    subject: "big".into(),
                    purposes: vec!["billing".into()],
                    value: vec![b'x'; 200],
                    ttl_ms: None,
                }
                .to_frame()
            })
            .collect();
        let stored = exporter.pipeline(&puts).unwrap();
        assert!(stored.iter().all(|r| *r == Frame::Simple("OK".into())));

        // Commands are timed into their family histogram when they
        // complete, so the histograms' total counts completions.
        let completed = || -> u64 {
            let families = server.dispatcher().metrics().family_snapshots();
            families.iter().map(|(_, family)| family.count()).sum()
        };
        let before = completed();
        let export = GdprRequest::Export {
            subject: "big".into(),
            cursor: None,
            count: None,
        };
        exporter.send_batch(&[export.to_frame()]).unwrap();
        pinger.ping().unwrap();
        if leg.workers > 1 {
            // PONG came back from another loop with the export still
            // running: only the PING has completed.
            assert_eq!(completed() - before, 1, "{leg}");
        }
        // Sharing the one loop, the PING may have had to wait; either
        // way both are answered.
        match exporter.read_replies(1).unwrap().pop() {
            Some(Frame::Bulk(document)) => assert!(document.len() > keys * 200, "{leg}"),
            other => panic!("{leg}: unexpected {other:?}"),
        }
        server.shutdown();
    }
}
