//! `SLOWLOG` keeps stored values out: golden entries for every command
//! that carries a payload (the value of `SET`, `HSET` and `GDPR.PUT`, the
//! values of `HMSET`, the member of `SADD`/`SREM`), captured at
//! `slowlog=0` on both engines.
//!
//! The expected entries were recorded when a payload still moved out of
//! the parsed command into the store and so showed as an empty argument.
//! The command table now names each row's payload arguments and the
//! capture blanks them; the entries must not change.

use std::sync::Arc;

use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::metrics::ServerMetrics;
use gdpr_server::tcp::{ServerConfig, TcpServer};
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::Frame;

/// Run `requests` on a fresh server at `slowlog=0`, each expected to
/// succeed, and render the ring oldest first: one line per entry, the
/// command and its captured arguments.
fn captured(dispatcher: Dispatcher, requests: &[Frame]) -> String {
    let dispatcher = dispatcher.with_metrics(Arc::new(ServerMetrics::new(0, 128)));
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = TcpServer::bind(dispatcher, "127.0.0.1:0", config).unwrap();
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    for request in requests {
        let reply = client.roundtrip(request);
        assert!(reply.is_ok(), "{request:?} -> {reply:?}");
    }
    let entries = match client.roundtrip(&Frame::command(["SLOWLOG", "GET", "128"])) {
        Ok(Frame::Array(entries)) => entries,
        other => panic!("SLOWLOG GET returned {other:?}"),
    };
    server.shutdown();
    let mut lines: Vec<String> = entries
        .iter()
        .map(|entry| {
            let Frame::Array(fields) = entry else {
                panic!("entry shape {entry:?}");
            };
            let Some(Frame::Array(command)) = fields.get(3) else {
                panic!("entry shape {entry:?}");
            };
            command
                .iter()
                .map(|arg| match arg {
                    Frame::Bulk(bytes) => format!("{:?}", String::from_utf8_lossy(bytes)),
                    other => panic!("argument shape {other:?}"),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    lines.reverse();
    lines.join("\n")
}

fn check_golden(dispatcher: Dispatcher, requests: &[Frame], golden: &str) {
    let got = captured(dispatcher, requests);
    assert_eq!(got, golden.trim(), "\n{got}");
}

#[test]
fn raw_engine_entries_keep_keys_and_fields_and_blank_stored_values() {
    let long_key = format!("key:{}", "k".repeat(200));
    let requests = vec![
        Frame::command(["SET", "user:1", "alice@example.com"]),
        Frame::command(["set", "user:2", ""]),
        Frame::command(["SeT", long_key.as_str(), "v"]),
        Frame::command(["HSET", "h", "email", "bob@example.com"]),
        Frame::command(["HMSET", "h", "name", "bob", "city", "Paris", "zip", "75001"]),
        Frame::command(["hmset", "h2", "f", "v"]),
        Frame::command(["SADD", "tags", "red"]),
        Frame::command(["SREM", "tags", "red"]),
        Frame::command(["sadd", "tags", "blue"]),
        Frame::command(["GET", "user:1"]),
        Frame::command(["HGET", "h", "email"]),
        Frame::command(["PEXPIRE", "user:1", "60000"]),
    ];
    let golden = r#"
"SET" "user:1" ""
"SET" "user:2" ""
"SET" "key:kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk... (76 more bytes)" ""
"HSET" "h" "email" ""
"HMSET" "h" "name" "" "city" "" "zip" ""
"HMSET" "h2" "f" ""
"SADD" "tags" ""
"SREM" "tags" ""
"SADD" "tags" ""
"GET" "user:1"
"HGET" "h" "email"
"PEXPIRE" "user:1" "60000"
"#;
    check_golden(
        Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap()),
        &requests,
        golden,
    );
}

#[test]
fn compliance_engine_entries_keep_keys_and_metadata_and_blank_stored_values() {
    let grant = GdprRequest::Grant {
        actor: "app".into(),
        purpose: "billing".into(),
    };
    let auth = GdprRequest::Auth {
        actor: "app".into(),
        purpose: "billing".into(),
    };
    let put = |key: &str, ttl_ms| GdprRequest::Put {
        key: key.into(),
        subject: "alice".into(),
        purposes: vec!["billing".into(), "support".into()],
        value: b"alice@example.com".to_vec(),
        ttl_ms,
    };
    let requests = vec![
        grant.to_frame(),
        auth.to_frame(),
        put("user:alice:email", None).to_frame(),
        put("user:alice:phone", Some(60_000)).to_frame(),
        Frame::command(["SET", "user:1", "alice"]),
        Frame::command(["HMSET", "user:2", "name", "bob", "city", "Paris"]),
        Frame::command(["GET", "user:1"]),
        Frame::command(["gdpr.getmeta", "user:alice:email"]),
    ];
    let golden = r#"
"GDPR.GRANT" "app" "billing"
"GDPR.AUTH" "app" "billing"
"GDPR.PUT" "user:alice:email" "alice" "billing,support" ""
"GDPR.PUT" "user:alice:phone" "alice" "billing,support" "" "60000"
"SET" "user:1" ""
"HMSET" "user:2" "name" "" "city" ""
"GET" "user:1"
"GDPR.GETMETA" "user:alice:email"
"#;
    let store = GdprStore::open_in_memory(CompliancePolicy::eventual()).unwrap();
    check_golden(Dispatcher::gdpr(Arc::new(store)), &requests, golden);
}
