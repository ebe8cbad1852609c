//! Property-based tests over the core data structures and invariants:
//! the keyspace behaves like a model map (an entry's governing bytes
//! living and dying with its value), serialization layers roundtrip,
//! the AOF replays to the same state, expiry never leaves overdue keys
//! under the strict policy, and the crypto layer always roundtrips.

use std::collections::HashMap;
use std::sync::Arc;

use gdpr_storage::gdpr_core::metadata::{PersonalMetadata, Region};
use gdpr_storage::gdpr_crypto::aead::ChaCha20Poly1305;
use gdpr_storage::kvstore::clock::{Clock, SimClock};
use gdpr_storage::kvstore::commands::Command;
use gdpr_storage::kvstore::config::{EvictionPolicy, StoreConfig};
use gdpr_storage::kvstore::db::{glob_match, Db};
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::decode::decode_one;
use gdpr_storage::resp::encode::{encode_frame, encode_into};
use gdpr_storage::resp::Frame;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// RESP frames

/// Frames nested up to `depth` arrays deep.
fn frame_strategy(depth: u32) -> Box<dyn Strategy<Value = Frame>> {
    let text = "[a-zA-Z0-9 .:-]{0,12}";
    let leaf = prop_oneof![
        text.prop_map(Frame::Simple),
        text.prop_map(Frame::Error),
        any::<i64>().prop_map(Frame::Integer),
        Just(Frame::Integer(i64::MIN)),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Frame::Bulk),
        Just(Frame::Null),
    ];
    if depth == 0 {
        return Box::new(leaf);
    }
    Box::new(prop_oneof![
        leaf,
        proptest::collection::vec(frame_strategy(depth - 1), 0..5).prop_map(Frame::Array),
    ])
}

/// RESP2 written the obvious way, one `to_string()` per number.
fn reference_encode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Simple(s) => format!("+{s}\r\n").into_bytes(),
        Frame::Error(s) => format!("-{s}\r\n").into_bytes(),
        Frame::Integer(i) => format!(":{i}\r\n").into_bytes(),
        Frame::Bulk(data) => {
            let mut out = format!("${}\r\n", data.len()).into_bytes();
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
            out
        }
        Frame::Null => b"$-1\r\n".to_vec(),
        Frame::Array(items) => {
            let mut out = format!("*{}\r\n", items.len()).into_bytes();
            for item in items {
                out.extend_from_slice(&reference_encode(item));
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Keyspace vs model

/// Operations a random test case may apply to the keyspace.
#[derive(Debug, Clone)]
enum Op {
    Set(String, Vec<u8>),
    Govern(String, Vec<u8>),
    Del(String),
    ExpireFar(String),
    Persist(String),
}

/// [`Op`], plus the steps only the bare keyspace model takes: deadlines
/// that elapse, and the three ways the engine removes keys on its own.
#[derive(Debug, Clone)]
enum DbOp {
    Op(Op),
    ExpireShort(String, u64),
    Advance(u64),
    SampleExpiry,
    Evict(EvictionPolicy),
    Sweep,
}

fn key_strategy() -> impl Strategy<Value = String> {
    // A small key universe so operations actually collide.
    (0u8..20).prop_map(|i| format!("key{i}"))
}

fn set_strategy() -> impl Strategy<Value = Op> {
    (
        key_strategy(),
        proptest::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(k, v)| Op::Set(k, v))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        set_strategy(),
        (
            key_strategy(),
            proptest::collection::vec(any::<u8>(), 0..16)
        )
            .prop_map(|(k, g)| Op::Govern(k, g)),
        key_strategy().prop_map(Op::Del),
        key_strategy().prop_map(Op::ExpireFar),
        key_strategy().prop_map(Op::Persist),
    ]
}

fn db_op_strategy() -> impl Strategy<Value = DbOp> {
    // Two extra set arms keep the keyspace from draining: a third of the
    // steps add or overwrite a key.
    prop_oneof![
        op_strategy().prop_map(DbOp::Op),
        set_strategy().prop_map(DbOp::Op),
        set_strategy().prop_map(DbOp::Op),
        (key_strategy(), 1u64..50).prop_map(|(k, ttl)| DbOp::ExpireShort(k, ttl)),
        (1u64..40).prop_map(DbOp::Advance),
        prop_oneof![
            Just(DbOp::SampleExpiry),
            Just(DbOp::Evict(EvictionPolicy::SampledLru)),
            Just(DbOp::Evict(EvictionPolicy::SampledRandom)),
            Just(DbOp::Sweep),
        ],
    ]
}

/// What the model holds for a key: its value and its deadline.
type Model = HashMap<String, (Vec<u8>, Option<u64>)>;

/// Whether the model holds `key` with a deadline at or before `now`.
fn overdue(model: &Model, key: &str, now: u64) -> bool {
    model
        .get(key)
        .is_some_and(|(_, deadline)| deadline.is_some_and(|at| at <= now))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keyspace agrees with a plain HashMap model, deadlines included,
    /// under any sequence of sets, re-governings, deletes, expirations that
    /// do and do not elapse, persists, clock advances, active-expiry
    /// samples, evictions under both sampled policies and strict sweeps:
    /// an entry's governing bytes exist exactly while its value does, a
    /// plain set clears them, an access to an overdue key removes it, and
    /// every key the engine removes on its own is one the model held
    /// (overdue, for expiry).
    #[test]
    fn db_matches_model(
        ops in proptest::collection::vec(db_op_strategy(), 1..160),
        seed in any::<u64>(),
    ) {
        let clock = SimClock::new(1_000_000);
        let mut db = Db::new(Arc::new(clock.clone()));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Model::new();
        let mut governance: HashMap<String, Vec<u8>> = HashMap::new();

        for op in &ops {
            let now = clock.now_millis();
            // An access to an overdue key removes it first.
            let mut lazy_expire = |model: &mut Model, key: &str| {
                if overdue(model, key, now) {
                    model.remove(key);
                    governance.remove(key);
                }
            };
            match op {
                DbOp::Op(Op::Set(k, v)) => {
                    db.set(k, v.clone());
                    model.insert(k.clone(), (v.clone(), None));
                    governance.remove(k);
                }
                DbOp::Op(Op::Govern(k, g)) => {
                    lazy_expire(&mut model, k);
                    let governed = db.govern(k, g.clone().into());
                    prop_assert_eq!(governed, model.contains_key(k));
                    if governed {
                        governance.insert(k.clone(), g.clone());
                    }
                }
                DbOp::Op(Op::Del(k)) => {
                    lazy_expire(&mut model, k);
                    let existed = db.delete(k);
                    prop_assert_eq!(existed, model.remove(k).is_some());
                    governance.remove(k);
                }
                DbOp::Op(Op::ExpireFar(k)) => {
                    // A TTL far in the future never elapses during the test.
                    lazy_expire(&mut model, k);
                    let at = now + 1_000_000_000;
                    prop_assert_eq!(db.expire_at(k, at), model.contains_key(k));
                    if let Some(entry) = model.get_mut(k) {
                        entry.1 = Some(at);
                    }
                }
                DbOp::ExpireShort(k, ttl) => {
                    lazy_expire(&mut model, k);
                    prop_assert_eq!(db.expire_in_millis(k, *ttl), model.contains_key(k));
                    if let Some(entry) = model.get_mut(k) {
                        entry.1 = Some(now + ttl);
                    }
                }
                DbOp::Op(Op::Persist(k)) => {
                    // PERSIST lifts a deadline without lazy expiry.
                    let had = model.get_mut(k).and_then(|entry| entry.1.take()).is_some();
                    prop_assert_eq!(db.persist(k), had);
                }
                DbOp::Advance(ms) => {
                    clock.advance_millis(*ms);
                }
                DbOp::SampleExpiry => {
                    let (_, removed) = db.active_expire_sample(&mut rng, 5);
                    for key in &removed {
                        prop_assert!(overdue(&model, key, now), "sampled {} not overdue", key);
                        model.remove(key);
                        governance.remove(key);
                    }
                }
                DbOp::Evict(policy) => {
                    let victim = db.evict_one(&mut rng, *policy, 3);
                    prop_assert_eq!(victim.is_some(), !model.is_empty());
                    if let Some(key) = victim {
                        prop_assert!(model.remove(&key).is_some(), "evicted {} not held", key);
                        governance.remove(&key);
                    }
                }
                DbOp::Sweep => {
                    let mut removed = db.strict_expire_sweep();
                    removed.sort();
                    let mut due: Vec<String> = model
                        .keys()
                        .filter(|key| overdue(&model, key, now))
                        .cloned()
                        .collect();
                    due.sort();
                    prop_assert_eq!(&removed, &due);
                    for key in &removed {
                        model.remove(key);
                        governance.remove(key);
                    }
                }
            }
            prop_assert_eq!(db.len(), model.len());
            let expiring = model.values().filter(|(_, deadline)| deadline.is_some()).count();
            prop_assert_eq!(db.expires_len(), expiring);
        }

        // Every key's TTL matches (reading it removes the overdue ones).
        let now = clock.now_millis();
        for i in 0u8..20 {
            let k = format!("key{i}");
            if overdue(&model, &k, now) {
                model.remove(&k);
                governance.remove(&k);
            }
            let ttl = model.get(&k).and_then(|(_, deadline)| *deadline).map(|at| at - now);
            prop_assert_eq!(db.ttl_millis(&k), ttl);
        }
        prop_assert_eq!(db.len(), model.len());
        for (k, (v, _)) in &model {
            prop_assert_eq!(db.get(k).unwrap(), Some(v.clone()));
            let governed = db.lookup(k).and_then(|entry| entry.governed.clone());
            prop_assert_eq!(governed.as_deref(), governance.get(k).map(Vec::as_slice));
        }
        // Scan returns exactly the model's keys, sorted.
        let mut expected: Vec<String> = model.keys().cloned().collect();
        expected.sort();
        prop_assert_eq!(db.scan_range("", 1_000), expected);
    }

    /// Replaying the write commands journaled by the engine reproduces the
    /// exact same keyspace (the recovery invariant behind the AOF).
    #[test]
    fn aof_replay_reproduces_state(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let store = KvStore::open(StoreConfig::in_memory().aof_in_memory()).unwrap();
        for op in &ops {
            match op {
                Op::Set(k, v) => store.set(k, v.clone()).unwrap(),
                Op::Govern(k, g) => {
                    let govern = Command::Govern { key: k.clone(), governed: g.clone().into() };
                    store.execute(govern).unwrap();
                }
                Op::Del(k) => { store.delete(k).unwrap(); }
                Op::ExpireFar(k) => { store.expire_at(k, 10_000_000_000_000).unwrap(); }
                Op::Persist(k) => {
                    let _ = store.execute(Command::Persist { key: k.clone() }).unwrap();
                }
            }
        }
        // Snapshot-based comparison after replay through a fresh store.
        let snapshot = store.snapshot();
        let replayed = KvStore::open(StoreConfig::in_memory()).unwrap();
        replayed.restore_snapshot(&snapshot).unwrap();
        prop_assert_eq!(replayed.len(), store.len());
        for key in store.keys("*").unwrap() {
            prop_assert_eq!(replayed.get(&key).unwrap(), store.get(&key).unwrap());
        }
        prop_assert_eq!(replayed.canonical_state(), store.canonical_state());
    }

    /// Strict expiry leaves no overdue key behind, no matter how TTLs are
    /// assigned.
    #[test]
    fn strict_expiry_never_leaves_overdue_keys(
        ttls in proptest::collection::vec(1u64..5_000, 1..80),
    ) {
        let clock = SimClock::new(0);
        let store = KvStore::open(
            StoreConfig::in_memory()
                .clock(clock.clone())
                .expiry_mode(gdpr_storage::kvstore::expire::ExpiryMode::Strict),
        )
        .unwrap();
        for (i, ttl) in ttls.iter().enumerate() {
            let key = format!("k{i}");
            store.set(&key, b"v".to_vec()).unwrap();
            store.expire_at(&key, *ttl).unwrap();
        }
        clock.advance_millis(10_000);
        store.tick().unwrap();
        prop_assert_eq!(store.pending_expired(), 0);
        prop_assert_eq!(store.len(), 0);
    }

    // -----------------------------------------------------------------------
    // Serialization roundtrips

    /// Command encoding roundtrips for arbitrary keys/values.
    #[test]
    fn command_encoding_roundtrips(key in "[a-zA-Z0-9:_-]{1,32}", value in proptest::collection::vec(any::<u8>(), 0..200), ttl in any::<u64>()) {
        for cmd in [
            Command::Set { key: key.clone(), value: value.clone() },
            Command::Get { key: key.clone() },
            Command::ExpireAt { key: key.clone(), at_ms: ttl },
            Command::HSet { key: key.clone(), field: key.clone(), value: value.clone() },
            Command::SetGoverned { key: key.clone(), value: value.clone(), governed: value.clone().into() },
            Command::Govern { key: key.clone(), governed: value.into() },
        ] {
            let decoded = Command::decode(&cmd.encode()).unwrap();
            prop_assert_eq!(decoded, cmd);
        }
    }

    /// RESP frames roundtrip for arbitrary bulk payloads and integers.
    #[test]
    fn resp_roundtrips(payload in proptest::collection::vec(any::<u8>(), 0..300), n in any::<i64>()) {
        let frames = vec![
            Frame::Bulk(payload.clone()),
            Frame::Integer(n),
            Frame::Array(vec![Frame::Bulk(payload), Frame::Integer(n), Frame::Null]),
        ];
        for frame in frames {
            prop_assert_eq!(decode_one(&encode_frame(&frame)).unwrap(), frame);
        }
    }

    /// Encoding straight into a caller's buffer — how the server loops
    /// fill a connection's outbox — appends exactly the bytes of
    /// `encode_frame`, which are the bytes a `to_string()`-built reference
    /// encoder produces, for arbitrarily nested frames.
    #[test]
    fn resp_encoding_is_byte_identical_on_every_path(
        frame in frame_strategy(3),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let standalone = encode_frame(&frame);
        prop_assert_eq!(&standalone, &reference_encode(&frame));
        let mut outbox = prefix.clone();
        encode_into(&frame, &mut outbox);
        prop_assert_eq!(&outbox[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&outbox[prefix.len()..], &standalone[..]);
        prop_assert_eq!(decode_one(&standalone).unwrap(), frame);
    }

    /// GDPR metadata roundtrips for arbitrary contents.
    #[test]
    fn metadata_roundtrips(
        subject in "[a-z0-9@.-]{1,24}",
        purposes in proptest::collection::btree_set("[a-z-]{1,12}", 0..5),
        objections in proptest::collection::btree_set("[a-z-]{1,12}", 0..5),
        expiry in proptest::option::of(any::<u64>()),
        automated in any::<bool>(),
    ) {
        let mut meta = PersonalMetadata::new(&subject).with_location(Region::Apac).with_automated_decisions(automated);
        for p in &purposes { meta = meta.with_purpose(p); }
        for o in &objections { meta = meta.with_objection(o); }
        meta.expires_at_ms = expiry;
        meta.created_at_ms = 123;
        let decoded = PersonalMetadata::decode(&meta.encode()).unwrap();
        prop_assert_eq!(decoded, meta);
    }

    /// The AEAD decrypts exactly what it encrypted, for any key, nonce and
    /// payload — and refuses a flipped bit.
    #[test]
    fn aead_roundtrips_and_detects_tampering(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        flip in any::<usize>(),
    ) {
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, b"aad", &payload);
        prop_assert_eq!(aead.open(&nonce, b"aad", &sealed).unwrap(), payload);
        let mut tampered = sealed.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 0x01;
        prop_assert!(aead.open(&nonce, b"aad", &tampered).is_err());
    }

    /// The glob matcher agrees with simple oracle cases: a pattern equal to
    /// the text always matches, `*` always matches, and a pattern with a
    /// different first literal never matches.
    #[test]
    fn glob_matcher_basic_laws(text in "[a-z]{0,12}") {
        prop_assert!(glob_match(&text, &text));
        prop_assert!(glob_match("*", &text));
        let with_star = format!("{text}*");
        prop_assert!(glob_match(&with_star, &text));
        if !text.is_empty() {
            let different = format!("Z{}", &text[1..]);
            prop_assert!(!glob_match(&different, &text));
        }
    }

    /// YCSB zipfian generator always stays within its configured range.
    #[test]
    fn zipfian_stays_in_range(items in 1u64..10_000, seed in any::<u64>()) {
        use gdpr_storage::ycsb::generator::{NumberGenerator, ZipfianGenerator};
        let mut g = ZipfianGenerator::new(items);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(g.next_value(&mut rng) < items);
        }
    }
}
