//! `gdpr-server` keeps the audit trail its policy promises: on a file
//! journal the trail is a file beside it (`<aof>.audit`), and after a
//! `SHUTDOWN` it holds one verifiable record per operation served plus one
//! per grant installed at startup.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use audit::reader::{parse_trail, verify_trail};
use audit::record::Operation;
use gdpr_server::client::TcpRemoteClient;

/// Start a server with `args`, wait for its `listening on` line and
/// return the process and its address.
fn start(args: &[&str]) -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdpr-server"))
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gdpr-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("the server prints its address")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("gdpr-server: listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr)
}

/// Serve a mix of operations at `compliance` on a file journal, shut the
/// server down, and check its trail file.
fn trail_after_shutdown(compliance: &str) {
    let dir = std::env::temp_dir().join(format!(
        "gdpr-server-trail-{}-{compliance}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let aof = dir.join("j.aof");
    let (mut server, addr) = start(&[
        "addr=127.0.0.1:0",
        "shards=2",
        "fsync=always",
        compliance,
        &format!("aof={}", aof.display()),
        "grant=app:billing,ops:support",
        "duration=60",
    ]);

    let mut client = TcpRemoteClient::connect(addr.as_str()).unwrap();
    client.auth("app", "billing").unwrap();
    let mut ops = 0;
    for i in 0..20 {
        let key = format!("user:{i:02}");
        client.set(&key, format!("value {i}").as_bytes()).unwrap();
        assert_eq!(
            client.get(&key).unwrap(),
            Some(format!("value {i}").into_bytes())
        );
        ops += 2;
        if i % 4 == 0 {
            assert!(client.delete(&key).unwrap());
            assert_eq!(client.get(&key).unwrap(), None);
            ops += 2;
        }
    }
    assert_eq!(client.scan("user:", 100).unwrap().len(), 15);
    ops += 1;
    client.shutdown_server().unwrap();
    let status = server.wait().unwrap();
    assert!(status.success(), "{compliance}: {status}");

    let trail_path = format!("{}.audit", aof.display());
    assert!(
        Path::new(&trail_path).exists(),
        "{compliance}: no trail file"
    );
    let text = std::fs::read_to_string(&trail_path).unwrap();
    let trail = parse_trail(&text).unwrap();
    verify_trail(&trail).unwrap();
    assert_eq!(trail.len(), ops + 2, "{compliance}: {text}");
    let grants = trail
        .iter()
        .filter(|chained| chained.record.operation == Operation::AccessControl)
        .count();
    assert_eq!(grants, 2, "{compliance}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_eventual_server_keeps_a_verifiable_trail_file() {
    trail_after_shutdown("compliance=1");
}

#[test]
fn the_strict_server_archives_a_verifiable_trail_file() {
    trail_after_shutdown("compliance=2");
}
