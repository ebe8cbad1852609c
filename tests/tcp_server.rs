//! Integration tests of the real TCP data path: a live `gdpr-server`
//! listener on an ephemeral port, driven by concurrent pipelined clients
//! mixing plain KV and `GDPR.*` commands, with clean-shutdown guarantees.

use std::sync::Arc;

use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, TcpServerHandle};
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::Frame;

const ACTOR: &str = "app";
const PURPOSE: &str = "billing";

fn gdpr_server(shards: usize) -> (TcpServerHandle, Arc<GdprStore>) {
    let store = Arc::new(
        GdprStore::open(
            CompliancePolicy::eventual(),
            StoreConfig::in_memory().aof_in_memory().shards(shards),
            Box::new(gdpr_storage::audit::sink::MemorySink::new()),
        )
        .unwrap(),
    );
    store.grant(Grant::new(ACTOR, PURPOSE)).unwrap();
    let server = TcpServer::bind(
        Dispatcher::gdpr(Arc::clone(&store)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    (server, store)
}

#[test]
fn concurrent_pipelined_clients_mix_kv_and_gdpr_commands() {
    let (server, store) = gdpr_server(4);
    let addr = server.local_addr();
    const CLIENTS: usize = 4;
    const KEYS_PER_CLIENT: usize = 25;

    // Each thread owns one connection, authenticates it, and sends its
    // whole mixed workload as pipelined batches, asserting every reply.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = TcpRemoteClient::connect(addr).unwrap();
                client.auth(ACTOR, PURPOSE).unwrap();

                // Batch 1: plain KV writes through the compliance layer.
                let sets: Vec<Frame> = (0..KEYS_PER_CLIENT)
                    .map(|i| Frame::command(["SET", &format!("user:{t}:{i}"), "v"]))
                    .collect();
                let replies = client.pipeline(&sets).unwrap();
                assert!(
                    replies.iter().all(|r| *r == Frame::Simple("OK".into())),
                    "thread {t}: {replies:?}"
                );

                // Batch 2: GDPR puts with explicit subjects + reads back.
                let gdpr_frames: Vec<Frame> = (0..KEYS_PER_CLIENT)
                    .map(|i| {
                        GdprRequest::Put {
                            key: format!("subject-data:{t}:{i}"),
                            subject: format!("subject-{t}"),
                            purposes: vec![PURPOSE.to_string()],
                            value: format!("value-{t}-{i}").into_bytes(),
                            ttl_ms: None,
                        }
                        .to_frame()
                    })
                    .chain(
                        (0..KEYS_PER_CLIENT)
                            .map(|i| Frame::command(["GET", &format!("subject-data:{t}:{i}")])),
                    )
                    .collect();
                let replies = client.pipeline(&gdpr_frames).unwrap();
                assert_eq!(replies.len(), 2 * KEYS_PER_CLIENT);
                for (i, reply) in replies.iter().take(KEYS_PER_CLIENT).enumerate() {
                    assert_eq!(*reply, Frame::Simple("OK".into()), "put {t}:{i}");
                }
                for (i, reply) in replies.iter().skip(KEYS_PER_CLIENT).enumerate() {
                    assert_eq!(
                        *reply,
                        Frame::Bulk(format!("value-{t}-{i}").into_bytes()),
                        "get {t}:{i}"
                    );
                }

                // Metadata is visible over the wire.
                match client
                    .gdpr(&GdprRequest::GetMeta {
                        key: format!("subject-data:{t}:0"),
                    })
                    .unwrap()
                {
                    Frame::Array(items) => assert!(
                        items.contains(&Frame::Bulk(format!("subject=subject-{t}").into_bytes())),
                        "{items:?}"
                    ),
                    other => panic!("unexpected {other:?}"),
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Cross-client consistency checks from a fresh connection.
    let mut client = TcpRemoteClient::connect(addr).unwrap();
    client.auth(ACTOR, PURPOSE).unwrap();

    // The metadata index agrees with the keyspace for every subject.
    for t in 0..CLIENTS {
        let mut keys = client.keys_of_subject(&format!("subject-{t}")).unwrap();
        keys.sort();
        let expected: Vec<String> = {
            let mut v: Vec<String> = (0..KEYS_PER_CLIENT)
                .map(|i| format!("subject-data:{t}:{i}"))
                .collect();
            v.sort();
            v
        };
        assert_eq!(keys, expected, "index postings for subject-{t}");
    }
    // ... and matches the store's own view exactly.
    assert_eq!(
        store.keys_of_subject("subject-0").unwrap().len(),
        KEYS_PER_CLIENT
    );

    // Objection + export + erasure over the wire.
    let objected = client
        .gdpr(&GdprRequest::Object {
            subject: "subject-0".into(),
            purpose: "marketing".into(),
        })
        .unwrap();
    assert_eq!(objected, Frame::Integer(KEYS_PER_CLIENT as i64));
    let export = client.export_subject("subject-1").unwrap();
    assert!(export.contains("\"subject\":\"subject-1\""), "{export}");
    assert!(export.contains(&format!("\"item_count\":{KEYS_PER_CLIENT}")));

    assert_eq!(
        client.erase_subject("subject-2").unwrap(),
        KEYS_PER_CLIENT as u64
    );
    assert!(client.keys_of_subject("subject-2").unwrap().is_empty());
    assert_eq!(client.get("subject-data:2:0").unwrap(), None);
    assert!(store.keys_of_subject("subject-2").unwrap().is_empty());
    assert!(store.stats().erased_by_request >= KEYS_PER_CLIENT as u64);

    // No request errored server-side beyond what we asserted above.
    assert_eq!(server.dispatcher().stats().errors, 0);
    let clients = server.dispatcher().client_stats();
    assert_eq!(clients.accepted, CLIENTS as u64 + 1);
    assert_eq!(clients.rejected_over_limit, 0);
    server.shutdown();
}

#[test]
fn shutdown_answers_in_flight_pipelines_before_closing() {
    let (server, _) = gdpr_server(1);
    let addr = server.local_addr();
    let mut client = TcpRemoteClient::connect(addr).unwrap();
    client.auth(ACTOR, PURPOSE).unwrap();

    // Queue a deep pipeline, give loopback delivery a moment, then raise
    // the shutdown flag: every queued request must still be answered.
    let frames: Vec<Frame> = (0..300)
        .map(|i| Frame::command(["SET", &format!("k{i}"), "v"]))
        .collect();
    client.send_batch(&frames).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.request_shutdown();
    let replies = client.read_replies(frames.len()).unwrap();
    assert_eq!(replies.len(), 300);
    assert!(replies.iter().all(|r| *r == Frame::Simple("OK".into())));
    server.shutdown();
}

#[test]
fn shutdown_command_from_a_client_stops_a_raw_engine_server() {
    let dispatcher = Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap());
    let server = TcpServer::bind(dispatcher, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    client.set("k", b"v").unwrap();
    assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
    client.shutdown_server().unwrap();
    server.wait_for_shutdown_request(std::time::Duration::from_millis(5));
    server.shutdown();
}

#[test]
fn record_blobs_survive_the_wire_roundtrip() {
    let (server, _) = gdpr_server(2);
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    client.auth(ACTOR, PURPOSE).unwrap();
    // A serialized record is opaque binary: every byte value, including
    // the CR LF that frames RESP, must come back unchanged.
    let blob: Vec<u8> = (0..=255u8).chain(*b"\r\n$-1\r\n").collect();
    client.set("user:blob", &blob).unwrap();
    assert_eq!(client.get("user:blob").unwrap(), Some(blob.clone()));
    let rewritten: Vec<u8> = blob.iter().rev().copied().collect();
    client.set("user:blob", &rewritten).unwrap();
    assert_eq!(client.get("user:blob").unwrap(), Some(rewritten));
    server.shutdown();
}
