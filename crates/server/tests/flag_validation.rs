//! `gdpr-server` must refuse a mistyped flag instead of starting with a
//! weaker configuration than the operator asked for, and a journal it
//! cannot open instead of starting empty.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gdpr-server"))
        .args(args)
        .output()
        .expect("spawn gdpr-server");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_bad_flag_is_named_and_exits_2() {
    for bad in [
        // An unparseable value must not fall back to the default policy.
        "fsync=alway",
        "shards=two",
        "compliance=3",
        "transport=fibers",
        // The deadline index and group commit are no longer choices.
        "index=btree",
        "groupcommit=1",
        "gcwait=1",
        "evict=lfu",
        "slowlog=fast",
        // An unknown key must not be silently ignored.
        "shard=8",
        "--help",
    ] {
        let (code, stderr) = run(&["addr=127.0.0.1:0", "duration=1", bad]);
        assert_eq!(code, Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(bad), "{bad} not named in: {stderr}");
    }
}

#[test]
fn strict_compliance_refuses_a_journal_that_does_not_sync_every_commit() {
    let aof = std::env::temp_dir().join(format!("gdpr-server-weaker-{}.aof", std::process::id()));
    let aof = format!("aof={}", aof.display());
    // (extra flags, the flag the refusal must name). A bare compliance=2
    // gets the default journal, aof=mem, which a crash takes with it.
    for (weaker, named) in [
        (vec!["fsync=everysec", aof.as_str()], "fsync=everysec"),
        (vec!["fsync=none", aof.as_str()], "fsync=none"),
        (vec!["aof=none"], "aof=none"),
        (vec!["aof=mem"], "aof=mem"),
        (vec![], "aof=mem"),
    ] {
        let mut args = vec!["addr=127.0.0.1:0", "duration=1", "compliance=2"];
        args.extend(&weaker);
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{weaker:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{weaker:?}: {stderr}");
        assert!(stderr.contains(named), "{named} not named in: {stderr}");
        if named == "aof=mem" || named == "aof=none" {
            assert!(stderr.contains("want aof=<path>"), "{stderr}");
        }
    }
}

#[test]
fn every_documented_flag_is_accepted() {
    // compliance=2 needs a file journal: aof=mem and aof=none are refused
    // (see above), so this run names one.
    let dir = std::env::temp_dir().join(format!("gdpr-server-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trail = dir.join("flags.audit");
    let audit = format!("audit={}", trail.display());
    let aof = format!("aof={}", dir.join("flags.aof").display());
    let (code, stderr) = run(&[
        "addr=127.0.0.1:0",
        "shards=2",
        "fsync=always",
        "compliance=2",
        "transport=threads",
        "workers=1",
        "maxconns=8",
        "readtimeout=5",
        &aof,
        &audit,
        "backlog=16",
        "grant=app:billing,ops:support",
        "duration=1",
        "metrics=127.0.0.1:0",
        "slowlog=-1",
        "slowlogmax=4",
        "maxmemory=0",
        "evict=lru",
        "hotcache=0",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(trail.exists(), "audit= names the trail file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_it_cannot_open_is_refused_with_status_1() {
    let dir = std::env::temp_dir().join(format!("gdpr-server-refuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("j.aof");
    let damaged = b"FDPRAOFM not a manifest".to_vec();
    std::fs::write(&manifest, &damaged).unwrap();
    for compliance in ["compliance=0", "compliance=1"] {
        let aof = format!("aof={}", manifest.display());
        let (code, stderr) = run(&["addr=127.0.0.1:0", "duration=1", compliance, &aof]);
        assert_eq!(code, Some(1), "{compliance}: {stderr}");
        let want = format!("gdpr-server: cannot open journal {}: ", manifest.display());
        assert!(stderr.starts_with(&want), "{compliance}: {stderr}");
        assert!(stderr.contains("bad magic"), "{compliance}: {stderr}");
        assert_eq!(std::fs::read(&manifest).unwrap(), damaged);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no file added");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
