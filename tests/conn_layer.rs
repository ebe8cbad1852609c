//! Connection-layer regression battery, run at one and at three event
//! loops: over-limit refusal with a final error frame, slow-loris idle
//! enforcement, partial-frame-at-shutdown drain semantics, the
//! `# Clients` / `clients_*=` stats surfaces, and what a loop of its own
//! buys a connection (a neighbour's slow export does not delay it, a
//! `SHUTDOWN` seen by any loop drains them all).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, TcpServerHandle};
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::encode::encode_frame;
use gdpr_storage::resp::Frame;

/// Every test runs at one and at three event loops (`workers`).
const LOOPS: [usize; 2] = [1, 3];

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

fn kv_server(workers: usize, mutate: impl FnOnce(&mut ServerConfig)) -> TcpServerHandle {
    let mut config = config(workers);
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
    for workers in LOOPS {
        let server = kv_server(workers, |c| c.max_connections = 2);
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
            "workers={workers}"
        );
        assert_eq!(
            server.dispatcher().client_stats().rejected_over_limit,
            1,
            "workers={workers}"
        );

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
    for workers in LOOPS {
        let server = kv_server(workers, |c| {
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
        // Hung up before it could idle out: a close is not a timeout.
        drop(fresh);

        // `steady` keeps round-tripping, far inside the timeout, until the
        // trickler is joined, so the trickler is the one connection that
        // idles out.
        eventually("trickler idle timeout recorded", || {
            steady.ping().unwrap();
            server.dispatcher().client_stats().idle_timeouts >= 1
        });
        while !trickler.is_finished() {
            steady.ping().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        trickler.join().unwrap();
        assert_eq!(
            server.dispatcher().client_stats().idle_timeouts,
            1,
            "workers={workers}: only the trickler idles out"
        );
        steady.ping().unwrap();
        server.shutdown();
    }
}

#[test]
fn shutdown_answers_the_complete_frame_and_drops_the_partial_one() {
    for workers in LOOPS {
        let server = kv_server(workers, |_| {});
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
        assert_eq!(
            String::from_utf8_lossy(&raw),
            "+OK\r\n",
            "workers={workers}"
        );
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "workers={workers}: drain hung on a partial frame"
        );
    }
}

#[test]
fn client_counters_surface_in_info_and_gdpr_stats() {
    for workers in LOOPS {
        let store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory().aof_in_memory(),
                Box::new(gdpr_storage::audit::sink::MemorySink::new()),
            )
            .unwrap(),
        );
        store.grant(Grant::new("app", "billing")).unwrap();
        let server = TcpServer::bind(
            Dispatcher::gdpr(Arc::clone(&store)),
            "127.0.0.1:0",
            config(workers),
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
            assert!(
                info.contains(needle),
                "workers={workers}: missing {needle}\n{info}"
            );
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
                .unwrap_or_else(|| panic!("workers={workers}: no {prefix} line in {stats:?}"))
                .parse()
                .unwrap()
        };
        assert_eq!(line_value("clients_connected="), 1, "workers={workers}");
        assert_eq!(line_value("clients_accepted="), 1, "workers={workers}");
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
        // Some loop woke for the accept and for every request; one
        // connection was all that ever waited for its loop, once per batch
        // it sent (AUTH, SET, INFO and this GDPR.STATS).
        assert!(wakeups >= 4, "workers={workers}");
        assert_eq!(queue_hwm, 1, "workers={workers}");
        assert_eq!(queue_waits, 4, "workers={workers}");
        server.shutdown();
    }
}

#[test]
fn a_slow_export_delays_only_the_connections_on_its_loop() {
    for workers in LOOPS {
        let store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory().aof_in_memory(),
                Box::new(gdpr_storage::audit::sink::MemorySink::new()),
            )
            .unwrap(),
        );
        store.grant(Grant::new("app", "billing")).unwrap();
        let server =
            TcpServer::bind(Dispatcher::gdpr(store), "127.0.0.1:0", config(workers)).unwrap();
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
        if workers > 1 {
            // PONG came back from another loop with the export still
            // running: only the PING has completed.
            assert_eq!(completed() - before, 1, "workers={workers}");
        }
        // Sharing the one loop, the PING may have had to wait; either
        // way both are answered.
        match exporter.read_replies(1).unwrap().pop() {
            Some(Frame::Bulk(document)) => {
                assert!(document.len() > keys * 200, "workers={workers}")
            }
            other => panic!("workers={workers}: unexpected {other:?}"),
        }
        server.shutdown();
    }
}
