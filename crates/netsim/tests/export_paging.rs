//! Cross-transport paged-export battery.
//!
//! The paged `GDPR.EXPORT subject CURSOR c [COUNT n]` form must produce
//! chunks whose in-order concatenation is byte-identical to the
//! monolithic export, on every path a client can reach the dispatcher:
//! in-process (core API), the simulated RESP server, and both live TCP
//! transports (reactor and thread-per-connection). Every leg loads the
//! same data under the same pinned clock, so the documents must agree
//! byte-for-byte *across* legs too.

use std::sync::Arc;

use gdpr_core::acl::Grant;
use gdpr_core::export::ExportCursor;
use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::{AccessContext, GdprStore};
use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, Transport};
use kvstore::clock::SimClock;
use kvstore::config::StoreConfig;
use netsim::server::RespKvServer;
use resp::command::GdprRequest;
use resp::Frame;

const SUBJECT: &str = "alice";
const KEYS: u64 = 57;
const PAGE: u64 = 10;

fn ctx() -> AccessContext {
    AccessContext::new("app", "billing")
}

/// A compliance store with a pinned clock and a deterministic keyspace:
/// every leg of the battery gets an identical one.
fn loaded_store() -> Arc<GdprStore> {
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        StoreConfig::in_memory()
            .aof_in_memory()
            .shards(4)
            .clock(SimClock::new(1_000_000)),
        Box::new(audit::sink::NullSink::new()),
    )
    .unwrap();
    store.grant(Grant::new("app", "billing")).unwrap();
    for i in 0..KEYS {
        let meta = PersonalMetadata::new(SUBJECT).with_purpose("billing");
        store
            .put(
                &ctx(),
                &format!("user:{SUBJECT}:{i:04}"),
                format!("value-{i}").into_bytes(),
                meta,
            )
            .unwrap();
    }
    Arc::new(store)
}

fn bulk(frame: Frame) -> String {
    match frame {
        Frame::Bulk(bytes) => String::from_utf8(bytes).unwrap(),
        other => panic!("expected bulk, got {other:?}"),
    }
}

/// Drive the paged export through an arbitrary frame round trip.
fn paged_via_frames(mut roundtrip: impl FnMut(Frame) -> Frame) -> String {
    let mut out = String::new();
    let mut cursor = "0".to_string();
    let mut pages = 0;
    loop {
        let reply = roundtrip(
            GdprRequest::Export {
                subject: SUBJECT.into(),
                cursor: Some(cursor),
                count: Some(PAGE),
            }
            .to_frame(),
        );
        let Frame::Array(items) = reply else {
            panic!("expected [cursor, chunk] array");
        };
        let mut items = items.into_iter();
        cursor = bulk(items.next().unwrap());
        out.push_str(&bulk(items.next().unwrap()));
        pages += 1;
        assert!(pages <= KEYS + 1, "paged export failed to terminate");
        if cursor == "0" {
            break;
        }
    }
    assert_eq!(pages, KEYS.div_ceil(PAGE));
    out
}

#[test]
fn paged_export_is_byte_identical_on_every_transport() {
    // Reference document: the in-process monolithic export.
    let reference = loaded_store()
        .right_to_portability(&ctx(), SUBJECT)
        .unwrap();
    assert!(reference.contains("\"item_count\":57"));

    // In-process paged (core API).
    {
        let store = loaded_store();
        let mut out = String::new();
        let mut cursor: Option<ExportCursor> = None;
        loop {
            let page = store
                .export_page(&ctx(), SUBJECT, cursor.as_ref(), PAGE as usize)
                .unwrap();
            out.push_str(&page.chunk);
            match page.next_cursor {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        assert_eq!(out, reference, "in-process paged export diverged");
    }

    // Simulated RESP server (same dispatcher as TCP, no sockets).
    {
        let server = RespKvServer::gdpr(loaded_store());
        let auth = server.handle_frame(
            &GdprRequest::Auth {
                actor: "app".into(),
                purpose: "billing".into(),
            }
            .to_frame(),
        );
        assert_eq!(auth, Frame::Simple("OK".into()));
        let monolithic = bulk(
            server.handle_frame(
                &GdprRequest::Export {
                    subject: SUBJECT.into(),
                    cursor: None,
                    count: None,
                }
                .to_frame(),
            ),
        );
        assert_eq!(monolithic, reference, "netsim monolithic export diverged");
        let out = paged_via_frames(|frame| server.handle_frame(&frame));
        assert_eq!(out, reference, "netsim paged export diverged");
    }

    // Both live TCP transports.
    for transport in [Transport::Reactor, Transport::Threads] {
        let store = loaded_store();
        let config = ServerConfig {
            transport,
            ..ServerConfig::default()
        };
        let handle = TcpServer::bind(Dispatcher::gdpr(store), "127.0.0.1:0", config).unwrap();
        let mut client = TcpRemoteClient::connect(handle.local_addr()).unwrap();
        client.auth("app", "billing").unwrap();
        assert_eq!(
            client.export_subject(SUBJECT).unwrap(),
            reference,
            "{transport:?} monolithic export diverged"
        );
        assert_eq!(
            client.export_subject_paged(SUBJECT, PAGE).unwrap(),
            reference,
            "{transport:?} paged export (helper) diverged"
        );
        let out = paged_via_frames(|frame| client.roundtrip(&frame).unwrap());
        assert_eq!(out, reference, "{transport:?} paged export diverged");
        handle.shutdown();
    }
}

#[test]
fn invalid_cursor_is_rejected_on_the_wire() {
    let server = RespKvServer::gdpr(loaded_store());
    server.handle_frame(
        &GdprRequest::Auth {
            actor: "app".into(),
            purpose: "billing".into(),
        }
        .to_frame(),
    );
    let reply = server.handle_frame(
        &GdprRequest::Export {
            subject: SUBJECT.into(),
            cursor: Some("not-a-cursor".into()),
            count: None,
        }
        .to_frame(),
    );
    match reply {
        Frame::Error(message) => assert!(message.contains("invalid export cursor")),
        other => panic!("expected error frame, got {other:?}"),
    }
}
