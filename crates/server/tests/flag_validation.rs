//! `gdpr-server` must refuse a mistyped flag instead of starting with a
//! weaker configuration than the operator asked for.

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
        // The deadline index is no longer a choice.
        "index=btree",
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
fn every_documented_flag_is_accepted() {
    let (code, stderr) = run(&[
        "addr=127.0.0.1:0",
        "shards=2",
        "fsync=always",
        "compliance=2",
        "transport=threads",
        "workers=1",
        "maxconns=8",
        "readtimeout=5",
        "aof=mem",
        "groupcommit=1",
        "gcwait=1",
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
}
