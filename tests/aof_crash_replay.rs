//! Crash-replay tests for the per-shard journal segments: a "crash" drops
//! the engine without any clean shutdown, then a fresh engine must replay
//! the segment set back to equivalent state — including when the shard
//! count changed in between, when a segment-set swap was torn mid-rewrite,
//! while concurrent writers and rewriters were racing, when the crash tore
//! the last append at any byte, and when the segment set predates governed
//! entries (a key's metadata kept as a "shadow" key of its own).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gdpr_storage::kvstore::aof::FsyncPolicy;
use gdpr_storage::kvstore::config::{EvictionPolicy, StoreConfig};
use gdpr_storage::kvstore::sharded_aof::segment_path;
use gdpr_storage::kvstore::store::{KvStore, ValuePart};
use gdpr_storage::kvstore::StoreError;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdpr-aofcrash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The canonical state of a store: every key (sorted) with its value
/// fields, governing bytes and TTL deadline. Two stores replaying the same
/// journal must produce byte-for-byte identical digests regardless of
/// shard count.
fn state_digest(store: &KvStore) -> Vec<u8> {
    let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for key in store.keys("*").unwrap() {
        let mut entry = Vec::new();
        if let Ok(Some(value)) = store.get(&key) {
            entry.extend_from_slice(b"str:");
            entry.extend_from_slice(&value);
        } else if let Ok(Some(fields)) = store.hgetall(&key) {
            entry.extend_from_slice(b"hash:");
            for (field, value) in fields {
                entry.extend_from_slice(field.as_bytes());
                entry.push(b'=');
                entry.extend_from_slice(&value);
                entry.push(b';');
            }
        } else {
            panic!("key {key} is neither string nor hash");
        }
        if let Some(governed) = store.read(&key, ValuePart::Exists).unwrap().governed {
            entry.extend_from_slice(b"governed:");
            entry.extend_from_slice(&governed);
        }
        if let Some(ttl) = store.ttl(&key).unwrap() {
            // Remaining TTL is measured against the wall clock, so digest
            // it at minute granularity to absorb the few ms between opens.
            entry.extend_from_slice(format!("ttl:{}m", ttl.as_millis() / 60_000).as_bytes());
        }
        map.insert(key, entry);
    }
    let mut digest = Vec::new();
    for (key, entry) in map {
        digest.extend_from_slice(key.as_bytes());
        digest.push(0);
        digest.extend_from_slice(&entry);
        digest.push(b'\n');
    }
    digest
}

fn write_fixture(store: &KvStore) {
    for i in 0..60 {
        store
            .set(&format!("user{i:03}"), vec![i as u8, 0xaa])
            .unwrap();
    }
    for i in 0..10 {
        store.delete(&format!("user{i:03}")).unwrap();
    }
    store
        .hset("profile:alice", "email", b"a@example.com".to_vec())
        .unwrap();
    store
        .hset("profile:alice", "phone", b"555-0100".to_vec())
        .unwrap();
    store.set("ttl-key", b"expiring".to_vec()).unwrap();
    store.expire_at("ttl-key", 10_000_000_000_000).unwrap();
    store.set("overwritten", b"old".to_vec()).unwrap();
    store.set("overwritten", b"new".to_vec()).unwrap();
    store.fsync().unwrap();
    // "Crash": the store is dropped by the caller without a clean close.
}

#[test]
fn crash_replay_matrix_is_portable_across_shard_counts() {
    for write_shards in [1usize, 4, 8] {
        let dir = test_dir(&format!("matrix-w{write_shards}"));
        let path = dir.join("journal.aof");
        {
            let store = KvStore::open(StoreConfig::with_aof(&path).shards(write_shards)).unwrap();
            write_fixture(&store);
        }
        let mut digests = Vec::new();
        for reopen_shards in [1usize, 4, 8] {
            let store = KvStore::open(StoreConfig::with_aof(&path).shards(reopen_shards)).unwrap();
            assert_eq!(
                store.len(),
                53,
                "written with {write_shards} shards, reopened with {reopen_shards}"
            );
            assert_eq!(store.get("user000").unwrap(), None, "delete must replay");
            assert_eq!(store.get("user059").unwrap(), Some(vec![59, 0xaa]));
            assert_eq!(
                store.hget("profile:alice", "email").unwrap(),
                Some(b"a@example.com".to_vec())
            );
            assert_eq!(store.get("overwritten").unwrap(), Some(b"new".to_vec()));
            assert!(store.ttl("ttl-key").unwrap().is_some());
            digests.push(state_digest(&store));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "replayed state must be byte-for-byte equivalent at 1, 4 and 8 shards \
             (written with {write_shards})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_segment_swap_recovers_the_old_set() {
    let dir = test_dir("torn-swap");
    let path = dir.join("journal.aof");
    {
        let store = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
        write_fixture(&store);
        assert_eq!(store.aof_epoch(), Some(1));
    }
    // Simulate a crash mid-rewrite: the next epoch's segment files were
    // staged (with garbage — nothing about them is trustworthy) but the
    // manifest rename never committed them.
    for idx in 0..4 {
        std::fs::write(segment_path(&path, 2, idx), b"half-written garbage").unwrap();
    }
    let store = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
    assert_eq!(store.aof_epoch(), Some(1), "old manifest must win");
    assert_eq!(store.len(), 53);
    assert_eq!(store.get("overwritten").unwrap(), Some(b"new".to_vec()));
    for idx in 0..4 {
        assert!(
            !segment_path(&path, 2, idx).exists(),
            "staged epoch-2 files must be cleaned up"
        );
    }
    // A completed rewrite afterwards swaps cleanly to epoch 2.
    assert!(store.rewrite_aof().unwrap() > 0);
    assert_eq!(store.aof_epoch(), Some(2));
    drop(store);
    let reopened = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
    assert_eq!(reopened.len(), 53);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_hammering_loses_and_reorders_nothing() {
    let dir = test_dir("gc-hammer");
    let path = dir.join("journal.aof");
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 150;
    {
        let store = KvStore::open(
            StoreConfig::with_aof(&path)
                .shards(4)
                .fsync(FsyncPolicy::Always),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = store.clone();
                scope.spawn(move || {
                    // Each thread writes a monotonically increasing value
                    // per key; last-write-wins order within a shard is the
                    // reordering detector.
                    for i in 0..OPS_PER_THREAD {
                        let key = format!("t{t}:k{}", i % 25);
                        store.set(&key, format!("{i:06}").into_bytes()).unwrap();
                    }
                });
            }
        });
        let stats = store.aof_stats().unwrap();
        assert_eq!(
            stats.records_appended,
            (THREADS * OPS_PER_THREAD) as u64,
            "every write journaled"
        );
        assert_eq!(
            stats.unsynced_records, 0,
            "fsync=always: nothing may be at risk once calls returned"
        );
        assert!(stats.group_commits > 0, "group committer must have run");
        assert_eq!(
            stats.group_commit_records, stats.records_appended,
            "every record covered by exactly one group commit"
        );
        // "Crash" without a clean close.
    }
    let replayed = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
    assert_eq!(replayed.len(), THREADS * 25);
    for t in 0..THREADS {
        for k in 0..25 {
            // The last write to slot k is the highest i with i % 25 == k.
            let last = (0..OPS_PER_THREAD).rev().find(|i| i % 25 == k).unwrap();
            assert_eq!(
                replayed.get(&format!("t{t}:k{k}")).unwrap(),
                Some(format!("{last:06}").into_bytes()),
                "per-key journal order must match apply order (t{t}, k{k})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rewrite_racing_concurrent_writers_stays_consistent() {
    let dir = test_dir("rewrite-race");
    let path = dir.join("journal.aof");
    const WRITERS: usize = 4;
    const OPS_PER_WRITER: usize = 200;
    {
        let store = KvStore::open(
            StoreConfig::with_aof(&path)
                .shards(4)
                .fsync(FsyncPolicy::Always),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..WRITERS {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..OPS_PER_WRITER {
                        let key = format!("w{t}:k{}", i % 40);
                        store.set(&key, format!("{i:06}").into_bytes()).unwrap();
                    }
                });
            }
            // A rewriter compacting the segment set while writes land.
            let store = store.clone();
            scope.spawn(move || {
                for _ in 0..8 {
                    store.rewrite_aof().unwrap();
                    std::thread::yield_now();
                }
            });
        });
        let stats = store.aof_stats().unwrap();
        assert!(stats.rewrites >= 8 * 4, "8 rewrites × 4 segments");
        store.fsync().unwrap();
    }
    let replayed = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
    assert_eq!(replayed.len(), WRITERS * 40);
    for t in 0..WRITERS {
        for k in 0..40 {
            let last = (0..OPS_PER_WRITER).rev().find(|i| i % 40 == k).unwrap();
            assert_eq!(
                replayed.get(&format!("w{t}:k{k}")).unwrap(),
                Some(format!("{last:06}").into_bytes()),
                "rewrite must never lose or reorder a racing write (w{t}, k{k})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_deadline_entries_do_not_resurrect_after_cross_shard_replay() {
    // Regression for the timer-wheel replay path: the journal carries the
    // full TTL history of a key (original deadline, reschedules,
    // deletions), so replaying it rebuilds the wheel *including* entries
    // that were later superseded. After a crash and an M→N-shard replay,
    // a deadline that was overwritten must not fire, and an erased key
    // must not resurrect (e.g. by journaling a spurious DEL that a later
    // replay could misorder).
    use gdpr_storage::kvstore::clock::SimClock;
    use gdpr_storage::kvstore::expire::ExpiryMode;

    for (write_shards, reopen_shards) in [(4usize, 1usize), (2, 8)] {
        let dir = test_dir(&format!("stale-ttl-{write_shards}-{reopen_shards}"));
        let path = dir.join("journal.aof");
        let base = 1_000_000u64;
        {
            let clock = SimClock::new(base);
            let store = KvStore::open(
                StoreConfig::with_aof(&path)
                    .shards(write_shards)
                    .clock(clock)
                    .expiry_mode(ExpiryMode::Strict),
            )
            .unwrap();
            for i in 0..40 {
                let erased = format!("erased{i:02}");
                store.set(&erased, b"pii".to_vec()).unwrap();
                store.expire_at(&erased, base + 2_000).unwrap();
                store.delete(&erased).unwrap();

                let rescheduled = format!("moved{i:02}");
                store.set(&rescheduled, b"keep".to_vec()).unwrap();
                store.expire_at(&rescheduled, base + 2_000).unwrap();
                store.expire_at(&rescheduled, base + 10_000_000).unwrap();

                let due = format!("due{i:02}");
                store.set(&due, b"short".to_vec()).unwrap();
                store.expire_at(&due, base + 2_000).unwrap();
            }
            store.fsync().unwrap();
            // "Crash": dropped without a clean shutdown.
        }

        let clock = SimClock::new(base);
        let store = KvStore::open(
            StoreConfig::with_aof(&path)
                .shards(reopen_shards)
                .clock(clock.clone())
                .expiry_mode(ExpiryMode::Strict),
        )
        .unwrap();
        assert_eq!(store.len(), 80, "40 rescheduled + 40 due keys replay");
        clock.advance_millis(3_000); // past the stale/original deadline only
        let outcome = store.tick().unwrap();
        let mut removed = outcome.removed.clone();
        removed.sort();
        let expected: Vec<String> = (0..40).map(|i| format!("due{i:02}")).collect();
        assert_eq!(
            removed, expected,
            "exactly the untouched deadlines fire after {write_shards}→{reopen_shards} replay"
        );
        for i in 0..40 {
            assert_eq!(
                store.get(&format!("erased{i:02}")).unwrap(),
                None,
                "erased key resurrected"
            );
            assert_eq!(
                store.get(&format!("moved{i:02}")).unwrap(),
                Some(b"keep".to_vec()),
                "rescheduled key fired at its stale deadline"
            );
        }
        // A second tick finds nothing: no double fire, no lingering
        // stale entries, and pending-expired settles to zero.
        let outcome = store.tick().unwrap();
        assert!(outcome.removed.is_empty());
        assert_eq!(store.pending_expired(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn legacy_single_file_journal_migrates_on_open() {
    let dir = test_dir("legacy-migrate");
    let path = dir.join("journal.aof");
    // Produce a legacy single-file AOF with the old framing by writing it
    // directly (raw length-prefixed command records, no manifest, no
    // sequence numbers).
    {
        use gdpr_storage::kvstore::aof::AofLog;
        use gdpr_storage::kvstore::clock::SystemClock;
        use gdpr_storage::kvstore::commands::Command;
        use gdpr_storage::kvstore::device::PlainFileDevice;
        let mut log = AofLog::new(
            Box::new(PlainFileDevice::open(&path).unwrap()),
            FsyncPolicy::Never,
            std::sync::Arc::new(SystemClock),
        );
        for i in 0..30 {
            log.append(
                &Command::Set {
                    key: format!("old{i:02}"),
                    value: vec![i as u8],
                }
                .encode(),
            )
            .unwrap();
        }
        log.append(
            &Command::Del {
                key: "old00".to_string(),
            }
            .encode(),
        )
        .unwrap();
        log.fsync().unwrap();
    }
    let store = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
    assert_eq!(store.len(), 29, "legacy records replay through the router");
    assert_eq!(store.get("old00").unwrap(), None);
    assert_eq!(store.get("old29").unwrap(), Some(vec![29]));
    // The layout is migrated: the path now holds a manifest and new
    // appends survive a reopen of the segmented layout.
    store.set("new-key", b"fresh".to_vec()).unwrap();
    store.fsync().unwrap();
    drop(store);
    assert!(segment_path(Path::new(&path), 1, 0).exists());
    let reopened = KvStore::open(StoreConfig::with_aof(&path).shards(2)).unwrap();
    assert_eq!(reopened.len(), 30);
    assert_eq!(reopened.get("new-key").unwrap(), Some(b"fresh".to_vec()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_deletes_replay_to_the_same_bounded_state() {
    let dir = test_dir("evict");
    let path = dir.join("journal.aof");
    let ceiling = 16 * 1024u64;
    let digest_before;
    {
        let store = KvStore::open(
            StoreConfig::with_aof(&path)
                .shards(4)
                .max_memory(ceiling)
                .eviction_policy(EvictionPolicy::SampledLru),
        )
        .unwrap();
        // Several ceilings' worth of writes: the evictor must shed keys
        // and journal each shed as a DEL.
        for i in 0..600 {
            store
                .set(&format!("evict{i:04}"), vec![i as u8; 100])
                .unwrap();
        }
        let stats = store.stats();
        assert!(stats.db.evicted_keys > 0, "{stats:?}");
        assert!(stats.db.mem_bytes <= ceiling, "{stats:?}");
        store.fsync().unwrap();
        digest_before = state_digest(&store);
        // "Crash": dropped without a clean close.
    }
    // Replay WITHOUT a ceiling and at a different shard count: the
    // journal's eviction DELs alone must reproduce the bounded state —
    // no resurrected keys, nothing extra missing.
    let store = KvStore::open(StoreConfig::with_aof(&path).shards(2)).unwrap();
    assert_eq!(
        state_digest(&store),
        digest_before,
        "replayed state must match the pre-crash bounded state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The crash-point battery: what a crash can leave of the last append.

/// The file at `path` as a crash would leave it right now: read while its
/// writer is still open, extended tail included.
fn crash_image(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

/// Where each whole chunk (`u32 length || body`) of a segment image
/// starts, then where the log ends: at the first zero length word.
fn chunk_bounds(image: &[u8]) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut pos = 0;
    while let Some(header) = image.get(pos..pos + 4) {
        let len = u32::from_le_bytes(header.try_into().unwrap()) as usize;
        if len == 0 || pos + 4 + len > image.len() {
            break;
        }
        pos += 4 + len;
        bounds.push(pos);
    }
    bounds
}

fn log_end(image: &[u8]) -> usize {
    *chunk_bounds(image).last().unwrap()
}

/// The byte offsets to cut a file at: every offset of its final append
/// (`from..to`, where a cut loses the append) and a few inside and at the
/// end of the extended tail behind it (where it does not).
fn cut_points(from: usize, to: usize, file_len: usize) -> Vec<usize> {
    assert!(from < to && to < file_len, "{from}..{to} of {file_len}");
    let tail = [to, to + 1, to + 3, to + 4096, file_len - 1, file_len];
    (from..to)
        .chain(tail.into_iter().filter(|cut| *cut <= file_len))
        .collect()
}

/// Write `image` cut at `cut` to `path`; with `refill`, re-extended to its
/// old length with a hole — the torn append a crash leaves in a file that
/// was extended ahead, where a plain cut is what one leaves at the end of
/// an append-mode file. Returns whether the append that ends at `end`
/// survived (a refilled cut through its trailing zero bytes cuts nothing).
fn write_cut(path: &Path, image: &[u8], cut: usize, refill: bool, end: usize) -> bool {
    std::fs::write(path, &image[..cut]).unwrap();
    if refill {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(image.len() as u64).unwrap();
    }
    cut >= end || (refill && image[cut..end].iter().all(|byte| *byte == 0))
}

#[test]
fn a_cut_anywhere_in_the_final_frame_loses_that_frame_and_nothing_else() {
    for encrypted in [true, false] {
        let dir = test_dir(&format!("cuts-{encrypted}"));
        let path = dir.join("journal.aof");
        let config = || {
            let config = StoreConfig::with_aof(&path).fsync(FsyncPolicy::Always);
            if encrypted {
                config.encrypted(b"battery")
            } else {
                config
            }
        };
        let segment = segment_path(&path, 1, 0);
        let store = KvStore::open(config()).unwrap();
        for i in 0..20 {
            store
                .set(&format!("kept{i:02}"), vec![i as u8; 40])
                .unwrap();
        }
        let before = log_end(&crash_image(&segment));
        store.set("last", b"the final append".to_vec()).unwrap();
        let image = crash_image(&segment);
        let end = log_end(&image);
        assert!(image.len() > end, "the open segment is extended ahead");
        drop(store);

        for cut in cut_points(before, end, image.len()) {
            for refill in [false, true] {
                let whole = write_cut(&segment, &image, cut, refill, end);
                let store = KvStore::open(config())
                    .unwrap_or_else(|e| panic!("cut {cut} refill {refill}: {e}"));
                assert_eq!(
                    store.get("last").unwrap().is_some(),
                    whole,
                    "cut {cut} refill {refill}"
                );
                assert_eq!(store.len(), 20 + usize::from(whole));
                assert_eq!(store.get("kept19").unwrap(), Some(vec![19; 40]));
                // The log goes on where the surviving frames end.
                store.set("after", b"crash".to_vec()).unwrap();
                drop(store);
                let reopened = KvStore::open(config()).unwrap();
                assert_eq!(reopened.get("after").unwrap(), Some(b"crash".to_vec()));
                assert_eq!(reopened.len(), 21 + usize::from(whole));
            }
        }

        // Damage that is not at the end is not a torn append: a flipped
        // byte in the body of the third frame, with valid frames behind
        // it, fails the frame's tag or checksum.
        let third_frame = chunk_bounds(&image)[2];
        let mut damaged = image[..end].to_vec();
        damaged[third_frame + 4 + 20] ^= 0x01;
        std::fs::write(&segment, &damaged).unwrap();
        match KvStore::open(config()) {
            Err(StoreError::Corrupt { .. } | StoreError::Crypto(_)) => {}
            other => panic!("a damaged frame before valid ones opened: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_torn_bracket_leaves_value_and_shadow_or_neither_and_a_trail_that_verifies() {
    use gdpr_storage::audit::log::AuditLog;
    use gdpr_storage::audit::policy::FlushPolicy;
    use gdpr_storage::audit::reader::{parse_trail, verify_trail, verify_trail_segments};
    use gdpr_storage::audit::record::{AuditRecord, Operation};
    use gdpr_storage::audit::sink::{FileSink, NullSink};
    use gdpr_storage::gdpr_core::acl::Grant;
    use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
    use gdpr_storage::gdpr_core::policy::CompliancePolicy;
    use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};

    const SHARDS: usize = 2;
    // Strict, except that an erasure does not rewrite the journal: the
    // rewrite would replace the segment whose last frame is under test.
    // With and without encryption at rest: a bracket is one frame either
    // way, sealed by a tag or by a checksum.
    let policy = |encrypt_at_rest: bool| CompliancePolicy {
        scrub_aof_on_erasure: false,
        encrypt_at_rest,
        ..CompliancePolicy::strict()
    };
    let ctx = AccessContext::new("app", "billing");
    let meta = |subject: &str| PersonalMetadata::new(subject).with_purpose("billing");
    type FinalOp = fn(&GdprStore, &AccessContext);
    let final_ops: [(&str, FinalOp); 4] = [
        ("put", |store, ctx| {
            let meta = PersonalMetadata::new("alice").with_purpose("billing");
            store.put(ctx, "last", b"v".to_vec(), meta).unwrap();
        }),
        ("put with retention", |store, ctx| {
            let meta = PersonalMetadata::new("alice")
                .with_purpose("billing")
                .with_ttl_millis(3_600_000);
            store.put(ctx, "last", b"v".to_vec(), meta).unwrap();
        }),
        ("delete", |store, ctx| {
            assert!(store.delete(ctx, "user03").unwrap());
        }),
        ("set_metadata", |store, ctx| {
            let meta = PersonalMetadata::new("bob").with_purpose("billing");
            store.set_metadata(ctx, "user04", meta).unwrap();
        }),
    ];

    let journals = [(true, "encrypted"), (false, "checksummed")];
    for ((name, final_op), (encrypt, journal)) in final_ops
        .into_iter()
        .flat_map(|op| journals.map(|journal| (op, journal)))
    {
        let name = format!("{name}, {journal}");
        let policy = || policy(encrypt);
        let dir = test_dir("bracket-cuts");
        let path = dir.join("journal.aof");
        let trail_path = dir.join("audit.log");
        let config = || StoreConfig::with_aof(&path).shards(SHARDS);
        let segments: Vec<PathBuf> = (0..SHARDS).map(|i| segment_path(&path, 1, i)).collect();
        let images = || -> Vec<Vec<u8>> { segments.iter().map(|s| crash_image(s)).collect() };

        let sink = Box::new(FileSink::open(&trail_path).unwrap());
        let store = GdprStore::open(policy(), config(), sink).unwrap();
        store.grant(Grant::new("app", "billing"));
        for i in 0..8 {
            let subject = if i % 2 == 0 { "alice" } else { "bob" };
            store
                .put(&ctx, &format!("user{i:02}"), vec![i; 24], meta(subject))
                .unwrap();
        }
        let before = images();
        let trail_before = crash_image(&trail_path);
        final_op(&store, &ctx);
        let after = images();
        let trail_after = crash_image(&trail_path);
        drop(store);

        // One bracket is one frame in one segment.
        let touched: Vec<usize> = (0..SHARDS).filter(|i| before[*i] != after[*i]).collect();
        assert_eq!(touched.len(), 1, "{name}: one segment took the bracket");
        let (segment, image) = (&segments[touched[0]], &after[touched[0]]);
        let (from, to) = (log_end(&before[touched[0]]), log_end(image));

        for cut in cut_points(from, to, image.len()) {
            let whole = write_cut(segment, image, cut, cut % 2 == 0, to);
            let reopened = GdprStore::open(policy(), config(), Box::new(NullSink::new()))
                .unwrap_or_else(|e| panic!("{name}, cut {cut}: {e}"));
            reopened.grant(Grant::new("app", "billing"));
            // Value and metadata, or neither: every key's entry holds both.
            for key in reopened.engine().keys("*").unwrap() {
                let entry = reopened.engine().read(&key, ValuePart::Fetch).unwrap();
                assert!(entry.governed.is_some(), "{name}, cut {cut}: {key} alone");
            }
            // The index the entries rebuild and the values agree.
            let mut listed = Vec::new();
            for subject in ["alice", "bob"] {
                for key in reopened.keys_of_subject(subject).unwrap() {
                    assert!(
                        reopened.get(&ctx, &key).unwrap().is_some(),
                        "{name}, cut {cut}: {key} is posted but holds no value"
                    );
                    listed.push(key);
                }
            }
            assert_eq!(listed.len(), reopened.len(), "{name}, cut {cut}");
            // All of the bracket, or none of it.
            match name.split(',').next().unwrap() {
                "put" | "put with retention" => {
                    assert_eq!(listed.contains(&"last".to_string()), whole);
                }
                "delete" => assert_eq!(!listed.contains(&"user03".to_string()), whole),
                _ => assert_eq!(
                    reopened.keys_of_subject("bob").unwrap().len(),
                    4 + usize::from(whole)
                ),
            }
        }

        // The same cuts through the trail's last line.
        let ends_at = |trail: &[u8]| trail.iter().position(|b| *b == 0).unwrap();
        let (from, to) = (ends_at(&trail_before), ends_at(&trail_after));
        // Two pages of the extended tail are as good as all of it.
        let trail_after = &trail_after[..to + 8192];
        let whole = parse_trail(std::str::from_utf8(trail_after).unwrap()).unwrap();
        // Beside the cuts, the line torn the other way round: its back on
        // disk, newline and all, and a hole where its front should be.
        let cuts = cut_points(from, to, trail_after.len());
        let holes = [1, (to - from) / 2];
        let shapes = cuts
            .into_iter()
            .map(|cut| (cut, 0))
            .chain(holes.map(|hole| (from, hole)));
        for (cut, hole) in shapes {
            if hole == 0 {
                write_cut(&trail_path, trail_after, cut, cut % 2 == 0, to);
            } else {
                let mut holed = trail_after[..to].to_vec();
                holed[from..from + hole].fill(0);
                write_cut(&trail_path, &holed, to, false, to);
            }
            let text = std::fs::read_to_string(&trail_path).unwrap();
            let survived = parse_trail(&text).unwrap();
            // Cut behind the digest, only the newline is missing.
            let kept = whole.len() - usize::from(cut < to - 1);
            assert_eq!(survived, whole[..kept], "{name}, trail cut {cut}");
            verify_trail(&survived).unwrap();

            // A reopened sink goes on behind the last complete line.
            let sink = Box::new(FileSink::open(&trail_path).unwrap());
            let mut log = AuditLog::new(sink, FlushPolicy::real_time());
            log.record(AuditRecord::new(1, "restarted", Operation::Maintenance))
                .unwrap();
            drop(log);
            let text = std::fs::read_to_string(&trail_path).unwrap();
            assert!(!text.contains('\0'), "{name}, trail cut {cut}");
            let resumed = parse_trail(&text).unwrap();
            let complete = whole.len() - usize::from(cut < to);
            assert_eq!(resumed.len(), complete + 1, "{name}, trail cut {cut}");
            assert_eq!(resumed[..complete], whole[..complete]);
            assert_eq!(verify_trail_segments(&resumed).unwrap(), 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_cut_anywhere_in_a_block_of_lines_keeps_the_whole_lines_ahead_of_it() {
    use gdpr_storage::audit::log::AuditLog;
    use gdpr_storage::audit::policy::FlushPolicy;
    use gdpr_storage::audit::reader::{parse_trail, verify_trail, verify_trail_segments};
    use gdpr_storage::audit::record::{AuditRecord, Operation};
    use gdpr_storage::audit::sink::{AuditSink, FileSink};

    const PAGE: usize = 4096;
    let dir = test_dir("block-cuts");
    let trail_path = dir.join("audit.log");
    let record = |i: u64| {
        AuditRecord::new(1_700_000_000_000 + i, "app", Operation::Read)
            .key(&format!("user{i:04}"))
            .subject("alice")
            .purpose("billing")
            .detail("GET 24 bytes")
    };

    // Under an eventual policy a flush writes every line since the last
    // one as one block. The last block here is five lines across a page
    // boundary: a crash can leave any prefix of it (the file is extended
    // ahead, so what is missing reads as zeros).
    let sink = Box::new(FileSink::open(&trail_path).unwrap());
    let mut log = AuditLog::new(sink, FlushPolicy::Manual);
    let mut written = 0;
    let mut flush_lines = |log: &mut AuditLog, lines: u64| {
        for i in written..written + lines {
            log.record(record(i)).unwrap();
        }
        written += lines;
        log.flush().unwrap();
        crash_image(&trail_path)
    };
    let trail_before = flush_lines(&mut log, 28);
    let trail_after = flush_lines(&mut log, 5);
    drop(log);
    let ends_at = |trail: &[u8]| trail.iter().position(|b| *b == 0).unwrap();
    let (from, to) = (ends_at(&trail_before), ends_at(&trail_after));
    assert!(from < PAGE - 1 && PAGE + 1 < to, "block {from}..{to}");
    let trail_after = &trail_after[..to + 2 * PAGE];
    let whole = parse_trail(std::str::from_utf8(trail_after).unwrap()).unwrap();
    assert_eq!(whole.len(), 33);
    let line_ends: Vec<usize> = (0..to).filter(|at| trail_after[*at] == b'\n').collect();
    assert!(line_ends.iter().filter(|end| **end >= from).count() >= 3);

    for cut in cut_points(from, to, trail_after.len()) {
        write_cut(&trail_path, trail_after, cut, true, to);
        // What the reader keeps: the lines whose newline landed, and one
        // that is whole but for its newline.
        let text = std::fs::read_to_string(&trail_path).unwrap();
        let survived = parse_trail(&text).unwrap();
        let complete = line_ends.iter().filter(|end| **end < cut).count();
        let kept = complete + usize::from(line_ends.contains(&cut));
        assert_eq!(survived, whole[..kept], "cut {cut}");
        verify_trail(&survived).unwrap();

        // Where a reopened sink resumes: behind the last newline that
        // landed, which is where the reader's whole lines end.
        drop(FileSink::open(&trail_path).unwrap());
        let resumed_at = std::fs::metadata(&trail_path).unwrap().len() as usize;
        assert_eq!(resumed_at, line_ends[complete - 1] + 1, "cut {cut}");

        // And it goes on from there without a gap or a hole.
        let sink = Box::new(FileSink::open(&trail_path).unwrap());
        let mut log = AuditLog::new(sink, FlushPolicy::every_second());
        for i in 0..3 {
            log.record(AuditRecord::new(i, "restarted", Operation::Maintenance))
                .unwrap();
        }
        drop(log);
        let text = std::fs::read_to_string(&trail_path).unwrap();
        assert!(!text.contains('\0'), "cut {cut}");
        let resumed = parse_trail(&text).unwrap();
        assert_eq!(resumed.len(), complete + 3, "cut {cut}");
        assert_eq!(resumed[..complete], whole[..complete]);
        assert_eq!(verify_trail_segments(&resumed).unwrap(), 2);
    }

    // Lines a sink has taken are its to write: dropped with a block partly
    // filled and never synced, it writes the block first.
    std::fs::remove_file(&trail_path).unwrap();
    let mut sink = FileSink::open(&trail_path).unwrap();
    for line in ["one", "two", "three"] {
        sink.write_line(line).unwrap();
    }
    assert_eq!(std::fs::metadata(&trail_path).unwrap().len(), 0);
    drop(sink);
    assert_eq!(std::fs::read(&trail_path).unwrap(), b"one\ntwo\nthree\n");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Journals laid out before governed entries (manifest versions 1 and 2),
// which kept a key's metadata as a shadow key of its own.

#[test]
fn a_version_1_segment_set_replays_through_the_router() {
    use gdpr_storage::kvstore::aof::AofLog;
    use gdpr_storage::kvstore::clock::SystemClock;
    use gdpr_storage::kvstore::commands::Command;
    use gdpr_storage::kvstore::device::PlainFileDevice;
    use gdpr_storage::kvstore::legacy::META_PREFIX;
    use gdpr_storage::kvstore::shard::{hash_key, DEFAULT_HASH_SEED};

    const SHARDS: usize = 4;
    let dir = test_dir("manifest-v1");
    let path = dir.join("journal.aof");

    // A history in which a key and its shadow interleave, so that replay
    // is only right if it follows the global sequence across segments.
    let mut history = Vec::new();
    for i in 0..24 {
        let key = format!("user{i:02}");
        let shadow = format!("{META_PREFIX}{key}");
        let set = |key: &str, value: &[u8]| Command::Set {
            key: key.to_string(),
            value: value.to_vec(),
        };
        history.push(set(&key, b"first"));
        history.push(set(&shadow, b"subject=alice"));
        history.push(set(&key, b"second"));
        if i % 3 == 0 {
            history.push(Command::ExpireAt {
                key: key.clone(),
                at_ms: 10_000_000_000_000,
            });
            history.push(Command::ExpireAt {
                key: shadow.clone(),
                at_ms: 10_000_000_000_000,
            });
        }
        if i % 4 == 0 {
            history.push(Command::Del { key });
            history.push(Command::Del { key: shadow });
        } else if i % 4 == 1 {
            history.push(set(&shadow, b"subject=bob"));
        }
    }

    // The parent's layout: every record in the segment of its *whole* key's
    // hash, `sequence || command` in the journal's record framing, under a
    // version-1 manifest.
    let mut logs: Vec<AofLog> = (0..SHARDS)
        .map(|idx| {
            let device = PlainFileDevice::open(segment_path(&path, 1, idx)).unwrap();
            AofLog::new(
                Box::new(device),
                FsyncPolicy::Never,
                std::sync::Arc::new(SystemClock),
            )
        })
        .collect();
    let mut counts = [0u64; SHARDS];
    let mut scattered = 0;
    for (seq, command) in (1u64..).zip(&history) {
        let key = command.primary_key().unwrap();
        let segment = (hash_key(DEFAULT_HASH_SEED, key) & (SHARDS as u64 - 1)) as usize;
        let data_key = key.strip_prefix(META_PREFIX).unwrap_or(key);
        let data_segment = (hash_key(DEFAULT_HASH_SEED, data_key) & (SHARDS as u64 - 1)) as usize;
        scattered += usize::from(segment != data_segment);
        let mut record = seq.to_le_bytes().to_vec();
        record.extend_from_slice(&command.encode());
        logs[segment].append(&record).unwrap();
        counts[segment] += 1;
    }
    assert!(scattered > 10, "the fixture must exercise the re-route");
    for log in &mut logs {
        log.fsync().unwrap();
    }
    drop(logs);
    let mut manifest = b"GDPRAOFM".to_vec();
    for word in [1, 1, DEFAULT_HASH_SEED, SHARDS as u64]
        .into_iter()
        .chain(counts)
    {
        manifest.extend_from_slice(&word.to_le_bytes());
    }
    std::fs::write(&path, manifest).unwrap();

    // What the history amounts to, folded: every surviving shadow becomes
    // the governing bytes of its data key's entry.
    let fresh = KvStore::open(StoreConfig::in_memory().shards(SHARDS)).unwrap();
    for command in &history {
        fresh.execute(command.clone()).unwrap();
    }
    for shadow in fresh.keys(&format!("{META_PREFIX}*")).unwrap() {
        let governed = fresh.get(&shadow).unwrap().unwrap();
        fresh.delete(&shadow).unwrap();
        let key = shadow[META_PREFIX.len()..].to_string();
        let govern = Command::Govern {
            key,
            governed: governed.into(),
        };
        fresh.execute(govern).unwrap();
    }
    assert!(fresh.keys(&format!("{META_PREFIX}*")).unwrap().is_empty());

    let reopened = KvStore::open(StoreConfig::with_aof(&path).shards(SHARDS)).unwrap();
    assert_eq!(state_digest(&reopened), state_digest(&fresh));
    assert_eq!(
        reopened.aof_epoch(),
        Some(2),
        "rewritten into the next epoch under a current manifest"
    );
    // From here on the set is current: an entry written with its governing
    // bytes survives a reopen, which no longer rewrites.
    let put = Command::SetGoverned {
        key: "user99".to_string(),
        value: b"v".to_vec(),
        governed: b"m".to_vec().into(),
    };
    reopened.execute(put.clone()).unwrap();
    fresh.execute(put).unwrap();
    reopened.fsync().unwrap();
    drop(reopened);
    let again = KvStore::open(StoreConfig::with_aof(&path).shards(SHARDS)).unwrap();
    assert_eq!(again.aof_epoch(), Some(2));
    assert_eq!(state_digest(&again), state_digest(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_2_journal_folds_its_shadows_once_and_serves_what_a_native_one_does() {
    use gdpr_storage::audit::sink::NullSink;
    use gdpr_storage::gdpr_core::acl::Grant;
    use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
    use gdpr_storage::gdpr_core::policy::CompliancePolicy;
    use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
    use gdpr_storage::kvstore::clock::SimClock;
    use gdpr_storage::kvstore::legacy::META_PREFIX;

    const KEYS: usize = 12;
    let now = 1_700_000_000_000u64;
    let dir = test_dir("fold-v2");
    let (legacy_path, native_path) = (dir.join("legacy.aof"), dir.join("native.aof"));
    let config = |path: &Path| {
        StoreConfig::with_aof(path)
            .shards(2)
            .clock(SimClock::new(now))
            .encrypted(b"fold")
    };
    let ctx = AccessContext::new("app", "billing");
    let key = |i: usize| format!("user{i:02}");
    let value = |i: usize| vec![i as u8; 16];
    let stamp = |i: usize| {
        let subject = if i.is_multiple_of(2) { "alice" } else { "bob" };
        let meta = PersonalMetadata::new(subject)
            .with_purpose("billing")
            .with_recipient("payments-inc");
        if i.is_multiple_of(3) {
            meta.with_expiry_at(now + 3_600_000)
        } else {
            meta
        }
    };
    let open = |path: &Path| {
        let store = GdprStore::open(
            CompliancePolicy::eventual(),
            config(path),
            Box::new(NullSink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing"));
        store
    };

    // Written natively...
    {
        let native = open(&native_path);
        for i in 0..KEYS {
            native.put(&ctx, &key(i), value(i), stamp(i)).unwrap();
        }
        native.engine().fsync().unwrap();
    }
    // ...and in the old layout, through a raw engine, as a version-2
    // bracket wrote it: value, deadline, shadow, the shadow's own deadline.
    {
        let raw = KvStore::open(config(&legacy_path)).unwrap();
        for i in 0..KEYS {
            let (key, shadow) = (key(i), format!("{META_PREFIX}{}", key(i)));
            let mut meta = stamp(i);
            meta.created_at_ms = now;
            raw.set(&key, value(i)).unwrap();
            raw.set(&shadow, meta.encode()).unwrap();
            if let Some(at) = meta.expires_at_ms {
                raw.expire_at(&key, at).unwrap();
                raw.expire_at(&shadow, at).unwrap();
            }
        }
        raw.fsync().unwrap();
    }
    let mut manifest = std::fs::read(&legacy_path).unwrap();
    manifest[8..16].copy_from_slice(&2u64.to_le_bytes());
    std::fs::write(&legacy_path, manifest).unwrap();

    let (legacy, native) = (open(&legacy_path), open(&native_path));
    assert!(legacy
        .engine()
        .keys(&format!("{META_PREFIX}*"))
        .unwrap()
        .is_empty());
    assert_eq!(
        legacy.engine().canonical_state(),
        native.engine().canonical_state()
    );
    for i in 0..KEYS {
        let key = key(i);
        assert_eq!(legacy.get(&ctx, &key).unwrap(), Some(value(i)), "{key}");
        assert_eq!(
            legacy.metadata(&ctx, &key).unwrap(),
            native.metadata(&ctx, &key).unwrap(),
            "{key}"
        );
    }
    for subject in ["alice", "bob"] {
        let keys = legacy.keys_of_subject(subject).unwrap();
        assert_eq!(keys.len(), KEYS / 2, "{subject}");
        assert_eq!(keys, native.keys_of_subject(subject).unwrap());
        assert_eq!(
            legacy.right_to_portability(&ctx, subject).unwrap(),
            native.right_to_portability(&ctx, subject).unwrap()
        );
    }

    // Folded once: a second reopen changes nothing.
    let (epoch, state) = (
        legacy.engine().aof_epoch(),
        legacy.engine().canonical_state(),
    );
    assert_eq!(epoch, Some(2), "one rewrite");
    drop(legacy);
    let again = open(&legacy_path);
    assert_eq!(again.engine().aof_epoch(), epoch);
    assert_eq!(again.engine().canonical_state(), state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_key_keeps_its_metadata_when_reopened_at_another_shard_count() {
    use gdpr_storage::audit::sink::NullSink;
    use gdpr_storage::gdpr_core::acl::Grant;
    use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
    use gdpr_storage::gdpr_core::policy::CompliancePolicy;
    use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};

    let ctx = AccessContext::new("app", "billing");
    for (write_shards, reopen_shards) in [(4usize, 1usize), (1, 8), (2, 4)] {
        let dir = test_dir(&format!("meta-{write_shards}-{reopen_shards}"));
        let path = dir.join("journal.aof");
        let open = |shards: usize| {
            let config = StoreConfig::with_aof(&path).shards(shards);
            let store = GdprStore::open(
                CompliancePolicy::eventual(),
                config,
                Box::new(NullSink::new()),
            )
            .unwrap();
            store.grant(Grant::new("app", "billing"));
            store
        };
        let keys: Vec<String> = (0..40).map(|i| format!("user{i:02}")).collect();
        let written: Vec<_> = {
            let store = open(write_shards);
            for (i, key) in keys.iter().enumerate() {
                let subject = ["alice", "bob", "carol"][i % 3];
                let mut meta = PersonalMetadata::new(subject)
                    .with_purpose("billing")
                    .with_purpose("marketing");
                if i % 5 == 0 {
                    meta = meta.with_ttl_millis(3_600_000);
                }
                store.put(&ctx, key, vec![i as u8; 32], meta).unwrap();
            }
            let carol = PersonalMetadata::new("carol").with_purpose("billing");
            store.set_metadata(&ctx, "user01", carol).unwrap();
            store.right_to_object(&ctx, "alice", "marketing").unwrap();
            store.delete(&ctx, "user02").unwrap();
            store.engine().fsync().unwrap();
            keys.iter()
                .map(|key| store.metadata(&ctx, key).unwrap())
                .collect()
            // "Crash": dropped without a clean close.
        };

        let store = open(reopen_shards);
        let name = format!("{write_shards} -> {reopen_shards} shards");
        for (key, meta) in keys.iter().zip(&written) {
            assert_eq!(&store.metadata(&ctx, key).unwrap(), meta, "{name}: {key}");
            let value = store.get(&ctx, key).unwrap();
            assert_eq!(value.is_some(), meta.is_some(), "{name}: {key}");
        }
        assert_eq!(store.len(), 39, "{name}");
        for subject in ["alice", "bob", "carol"] {
            let posted = store.keys_of_subject(subject).unwrap();
            let owned = keys
                .iter()
                .zip(&written)
                .filter(|(_, meta)| meta.as_ref().is_some_and(|m| m.subject == subject))
                .count();
            assert_eq!(posted.len(), owned, "{name}: {subject}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
