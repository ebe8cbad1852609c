//! A write-only driver for crash-replay smoke tests: connects to a running
//! `gdpr-server`, authenticates, writes a deterministic batch of keys, and
//! exits **without** sending `SHUTDOWN` — so a harness can `kill -9` the
//! server afterwards knowing exactly which writes were acknowledged (under
//! `fsync=always` every acknowledged write must survive the replay).
//!
//! ```text
//! cargo run --release --example crash_writer -- 127.0.0.1:16381 [count]
//! cargo run --release --example crash_writer -- 127.0.0.1:16382 [count] verify
//! cargo run --release --example crash_writer -- 127.0.0.1:16382 [count] digest
//! cargo run --release --example crash_writer -- 127.0.0.1:16382 [count] wait-applied
//! ```
//!
//! Prints `crash_writer: N writes acknowledged` on success. In `verify`
//! mode it reads the batch back instead (against a server reopened on the
//! crashed journal) and fails unless every key (`cw000`, `cw001`, …, each
//! holding its own index as ASCII) replayed intact, with its metadata
//! (subject: the key; purpose: `smoke-testing`). In `digest` mode it
//! prints the server's `DIGEST` reply — the canonical keyspace SHA-256 —
//! on a line of its own, so a harness can compare a primary and a replica
//! for byte-equivalent state. In `wait-applied` mode it polls `INFO`
//! until the server (a replica) reports a connected stream with zero lag.

use std::error::Error;

use gdpr_storage::gdpr_server::client::TcpRemoteClient;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::Frame;

fn main() -> Result<(), Box<dyn Error>> {
    let addr = std::env::args()
        .nth(1)
        .ok_or("usage: crash_writer <addr> [count] [verify|digest|wait-applied]")?;
    let count: usize = std::env::args()
        .nth(2)
        .map(|c| c.parse())
        .transpose()?
        .unwrap_or(50);

    let mode = std::env::args().nth(3).unwrap_or_default();
    let verify = mode == "verify";

    if mode == "digest" {
        // Print the canonical keyspace digest and exit. DIGEST needs an
        // authenticated session on a compliance server; grants are
        // node-local, so install one here (works on replicas too).
        let mut client = TcpRemoteClient::connect(addr.as_str())?;
        client.gdpr(&GdprRequest::Grant {
            actor: "crash-writer".into(),
            purpose: "smoke-testing".into(),
        })?;
        client.auth("crash-writer", "smoke-testing")?;
        match client.roundtrip(&Frame::command(["DIGEST"]))? {
            Frame::Bulk(hex) => println!("{}", String::from_utf8_lossy(&hex)),
            other => return Err(format!("unexpected DIGEST reply {other:?}").into()),
        }
        return Ok(());
    }
    if mode == "wait-applied" {
        // Poll a replica's INFO until its stream is connected and drained.
        // Drained must hold across two polls ≥500ms apart with an
        // unchanged applied sequence: the lag gauge reads zero while the
        // feeder's last poll-interval of records is still in flight, and
        // only a quiet period longer than the feeder poll proves the
        // stream is truly dry.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut stable_since: Option<(String, std::time::Instant)> = None;
        loop {
            let mut client = TcpRemoteClient::connect(addr.as_str())?;
            if let Frame::Bulk(info) = client.roundtrip(&Frame::command(["INFO"]))? {
                let info = String::from_utf8_lossy(&info).into_owned();
                let applied = info
                    .lines()
                    .find_map(|l| l.strip_prefix("repl_applied_seq:"))
                    .unwrap_or("")
                    .to_string();
                let drained =
                    info.contains("repl_connected:1") && info.contains("repl_lag_records:0");
                match (&stable_since, drained) {
                    (Some((seq, since)), true) if *seq == applied => {
                        if since.elapsed() >= std::time::Duration::from_millis(500) {
                            println!(
                                "crash_writer: replica stream connected and drained \
                                 (applied_seq={applied})"
                            );
                            return Ok(());
                        }
                    }
                    (_, true) => {
                        stable_since = Some((applied, std::time::Instant::now()));
                    }
                    (_, false) => stable_since = None,
                }
            }
            if std::time::Instant::now() > deadline {
                return Err("replica never reported a drained stream".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }

    let mut client = TcpRemoteClient::connect(addr.as_str())?;
    client.ping()?;
    client.gdpr(&GdprRequest::Grant {
        actor: "crash-writer".into(),
        purpose: "smoke-testing".into(),
    })?;
    client.auth("crash-writer", "smoke-testing")?;

    if verify {
        for i in 0..count {
            let key = format!("cw{i:03}");
            let value = client.get(&key)?;
            if value.as_deref() != Some(format!("{i}").as_bytes()) {
                return Err(format!("key {key} did not replay: {value:?}").into());
            }
            let meta = client.gdpr(&GdprRequest::GetMeta { key: key.clone() })?;
            let expected = [format!("subject={key}"), "purposes=smoke-testing".into()];
            let replayed = match &meta {
                Frame::Array(items) => expected
                    .iter()
                    .all(|line| items.contains(&Frame::Bulk(line.as_bytes().to_vec()))),
                _ => false,
            };
            if !replayed {
                return Err(format!("metadata of {key} did not replay: {meta:?}").into());
            }
        }
        println!("crash_writer: {count} keys and their metadata verified");
        return Ok(());
    }

    for i in 0..count {
        client.set(&format!("cw{i:03}"), format!("{i}").as_bytes())?;
    }
    // Read one key back so the acknowledgements are known to have been
    // processed in order, then drop the connection with the server alive.
    let back = client.get("cw000")?;
    assert_eq!(back.as_deref(), Some(b"0".as_ref()), "readback failed");
    println!("crash_writer: {count} writes acknowledged");
    Ok(())
}
