//! Hot-cache differential battery: the TinyLFU hot-read tier must be
//! invisible to every observer except the latency profile.
//!
//! * a proptest drives [`CountMinSketch`] against a plain `BTreeMap`
//!   count model with random touch/peek sequences across several aging
//!   windows — estimates must dominate the (halving-aged) true counts,
//!   and two sketches with the same seed must agree bit-for-bit;
//! * twin [`HotCache`] instances replay the same random access/invalidate
//!   history and must make identical hit/admit decisions (admission is
//!   deterministic for a fixed seed, by construction);
//! * two full `GdprStore`s — hot cache on vs off — replay the same random
//!   compliance history (puts, purpose-mismatched reads, deletes, subject
//!   erasures, retention-clock advances) and every single response must
//!   be identical, including denials and error shapes;
//! * over a live TCP server, on BOTH transports: a heated key must stop
//!   being served the instant its subject is erased, and the instant its
//!   retention deadline passes — even before any expiry cycle runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use gdpr_server::client::TcpRemoteClient;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, TcpServerHandle, Transport};
use gdpr_storage::audit::sink::MemorySink;
use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::hot_cache::{
    CountMinSketch, HotCache, HotCacheConfig, HotEntry, Probe,
};
use gdpr_storage::gdpr_core::metadata::PersonalMetadata;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::{AccessContext, GdprStore};
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::shard::ShardRouter;
use gdpr_storage::resp::command::GdprRequest;
use gdpr_storage::resp::Frame;
use proptest::prelude::*;

const ACTOR: &str = "app";
const PURPOSE: &str = "billing";
const START: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// Count-min sketch vs a halving-aware exact model
// ---------------------------------------------------------------------------

/// One step of a random sketch history.
#[derive(Debug, Clone)]
enum SketchOp {
    /// Record one access of key `k`.
    Touch(u8),
    /// Read key `k`'s estimate without counting the read.
    Peek(u8),
}

fn sketch_op() -> impl Strategy<Value = SketchOp> {
    prop_oneof![
        (0u8..32).prop_map(SketchOp::Touch),
        (0u8..32).prop_map(SketchOp::Peek),
    ]
}

fn sketch_key(k: u8) -> String {
    format!("key{k:02}")
}

// ---------------------------------------------------------------------------
// Twin hot caches under a shared random history
// ---------------------------------------------------------------------------

/// One step of a random cache history.
#[derive(Debug, Clone)]
enum CacheOp {
    /// Probe key `k`; on a miss, offer it for admission.
    Access(u8),
    /// Run key `k`'s mutation bracket (invalidate + epoch bump).
    Invalidate(u8),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u8..16).prop_map(CacheOp::Access),
        (0u8..16).prop_map(CacheOp::Invalidate),
    ]
}

/// Probe-then-admit one key; returns `(hit, admitted)` so two caches can
/// be compared decision-by-decision. A hit must return the value the
/// history admitted for that key.
fn cache_step(cache: &HotCache, key: &str) -> (bool, bool) {
    match cache.probe(key) {
        Probe::Hit(entry) => {
            assert_eq!(
                entry.value,
                key.as_bytes().to_vec(),
                "hit returned a foreign value"
            );
            (true, false)
        }
        Probe::Miss(token) => {
            let entry = HotEntry {
                value: key.as_bytes().to_vec(),
                meta: None,
            };
            (false, cache.admit(key, entry, token))
        }
    }
}

// ---------------------------------------------------------------------------
// Cache-on vs cache-off GdprStore differential
// ---------------------------------------------------------------------------

/// One step of a random compliance history, applied to both stores.
#[derive(Debug, Clone)]
enum StoreOp {
    /// `put` of key `k` for subject `s`; `for_billing` controls whether
    /// the metadata's purposes cover the reading context (a mismatch must
    /// deny identically on both stores); `ttl_ds` ≠ 0 attaches a
    /// retention deadline of that many deciseconds.
    Put {
        k: u8,
        s: u8,
        for_billing: bool,
        v: u8,
        ttl_ds: u16,
    },
    /// `get` of key `k` (hot path on one store, slow path on the other).
    Get(u8),
    /// `delete` of key `k`.
    Delete(u8),
    /// Article 17 erasure of subject `s`.
    Erase(u8),
    /// Advance the shared retention clock and run both expiry cycles.
    AdvanceAndTick(u16),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        ((0u8..12, 0u8..4, any::<bool>()), (any::<u8>(), 0u16..4_000)).prop_map(
            |((k, s, for_billing), (v, ttl_ds))| StoreOp::Put {
                k,
                s,
                for_billing,
                v,
                ttl_ds,
            }
        ),
        (0u8..12).prop_map(StoreOp::Get),
        (0u8..12).prop_map(StoreOp::Delete),
        (0u8..4).prop_map(StoreOp::Erase),
        (0u16..2_000).prop_map(StoreOp::AdvanceAndTick),
    ]
}

fn store_with_cache(enabled: bool, clock: SimClock) -> GdprStore {
    let mut store = GdprStore::open(
        CompliancePolicy::strict(),
        StoreConfig::in_memory()
            .aof_in_memory()
            .shards(2)
            .clock(clock),
        Box::new(MemorySink::new()),
    )
    .expect("open GDPR store");
    // A tiny segment capacity forces TinyLFU displacement decisions even
    // over the test's small key pool.
    store.set_hot_cache(
        HotCacheConfig::default()
            .enabled(enabled)
            .capacity_per_segment(4),
    );
    store.grant(Grant::new(ACTOR, PURPOSE));
    store
}

/// Canonical rendering of any store response: success payloads and error
/// shapes must match byte-for-byte across the cache-on/cache-off pair.
fn render<T: std::fmt::Debug, E: std::fmt::Debug>(result: &Result<T, E>) -> String {
    format!("{result:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sketch estimates never undercount: after any touch/peek sequence,
    /// every key's estimate dominates its exact count as aged by the same
    /// halvings the sketch performed.
    #[test]
    fn sketch_estimates_dominate_the_halving_model(
        ops in proptest::collection::vec(sketch_op(), 1..400),
        seed in any::<u64>(),
    ) {
        // halve_every=96 forces several aging windows inside one case.
        let mut sketch = CountMinSketch::new(64, 96, seed);
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        let mut halvings = 0u64;
        for op in &ops {
            match op {
                SketchOp::Touch(k) => {
                    let key = sketch_key(*k);
                    let count = {
                        let count = model.entry(key.clone()).or_insert(0);
                        *count += 1;
                        *count
                    };
                    // increment() reports the pre-halving estimate, so it
                    // must dominate the pre-halving exact count.
                    let returned = sketch.increment(&key);
                    prop_assert!(
                        returned >= count,
                        "{key}: increment returned {returned} < exact count {count}"
                    );
                    if sketch.halvings() > halvings {
                        halvings = sketch.halvings();
                        for count in model.values_mut() {
                            *count /= 2;
                        }
                    }
                }
                SketchOp::Peek(k) => {
                    let key = sketch_key(*k);
                    let want = model.get(&key).copied().unwrap_or(0);
                    let got = sketch.estimate(&key);
                    prop_assert!(
                        got >= want,
                        "{key}: estimate {got} < aged exact count {want}"
                    );
                }
            }
        }
        for (key, want) in &model {
            let got = sketch.estimate(key);
            prop_assert!(got >= *want, "{key}: final estimate {got} < {want}");
        }
    }

    /// Two sketches with the same seed replaying the same stream agree on
    /// every returned estimate, every final estimate and the halving
    /// count — the determinism TinyLFU admission relies on.
    #[test]
    fn sketch_is_deterministic_for_a_fixed_seed(
        touches in proptest::collection::vec(0u8..32, 1..300),
        seed in any::<u64>(),
    ) {
        let mut a = CountMinSketch::new(128, 64, seed);
        let mut b = CountMinSketch::new(128, 64, seed);
        for k in &touches {
            let key = sketch_key(*k);
            prop_assert_eq!(a.increment(&key), b.increment(&key));
        }
        for k in 0u8..32 {
            let key = sketch_key(k);
            prop_assert_eq!(a.estimate(&key), b.estimate(&key));
        }
        prop_assert_eq!(a.halvings(), b.halvings());
        prop_assert_eq!(a.width(), b.width());
    }

    /// Twin caches replaying one history make identical hit/admit
    /// decisions and end with identical residency and counters.
    #[test]
    fn twin_caches_replay_identically(
        ops in proptest::collection::vec(cache_op(), 1..300),
    ) {
        let config = HotCacheConfig {
            enabled: true,
            capacity_per_segment: 2,
            sketch_width: 64,
            halve_every: 48,
            seed: 0xfeed,
        };
        let a = HotCache::new(config.clone(), ShardRouter::new(2, 7));
        let b = HotCache::new(config, ShardRouter::new(2, 7));
        for (i, op) in ops.iter().enumerate() {
            match op {
                CacheOp::Access(k) => {
                    let key = sketch_key(*k);
                    let left = cache_step(&a, &key);
                    let right = cache_step(&b, &key);
                    prop_assert!(
                        left == right,
                        "step {i}: {op:?} diverged: {left:?} vs {right:?}"
                    );
                }
                CacheOp::Invalidate(k) => {
                    let key = sketch_key(*k);
                    a.invalidate(&key);
                    b.invalidate(&key);
                }
            }
        }
        prop_assert_eq!(a.resident(), b.resident());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// The hot cache changes no observable response: a cache-on and a
    /// cache-off store replaying the same compliance history (sharing one
    /// retention clock) answer every operation identically — values,
    /// denials, erasure reports and expiry-cycle outcomes included.
    #[test]
    fn cache_on_and_cache_off_stores_answer_identically(
        ops in proptest::collection::vec(store_op(), 1..120),
    ) {
        let clock = SimClock::new(START);
        let on = store_with_cache(true, clock.clone());
        let off = store_with_cache(false, clock.clone());
        let ctx = AccessContext::new(ACTOR, PURPOSE);
        for (i, op) in ops.iter().enumerate() {
            let (left, right) = match op {
                StoreOp::Put { k, s, for_billing, v, ttl_ds } => {
                    let key = format!("rec{k:02}");
                    let mut meta = PersonalMetadata::new(&format!("subject-{s}"))
                        .with_purpose(if *for_billing { PURPOSE } else { "analytics" });
                    if *ttl_ds != 0 {
                        meta = meta.with_ttl_millis(u64::from(*ttl_ds) * 100);
                    }
                    let value = vec![*v; 16];
                    (
                        render(&on.put(&ctx, &key, value.clone(), meta.clone())),
                        render(&off.put(&ctx, &key, value, meta)),
                    )
                }
                StoreOp::Get(k) => {
                    let key = format!("rec{k:02}");
                    (render(&on.get(&ctx, &key)), render(&off.get(&ctx, &key)))
                }
                StoreOp::Delete(k) => {
                    let key = format!("rec{k:02}");
                    (render(&on.delete(&ctx, &key)), render(&off.delete(&ctx, &key)))
                }
                StoreOp::Erase(s) => {
                    let subject = format!("subject-{s}");
                    (
                        render(&on.right_to_erasure(&ctx, &subject)),
                        render(&off.right_to_erasure(&ctx, &subject)),
                    )
                }
                StoreOp::AdvanceAndTick(ms) => {
                    // One shared clock: a single advance moves both stores.
                    clock.advance_millis(u64::from(*ms));
                    (render(&on.tick()), render(&off.tick()))
                }
            };
            prop_assert!(
                left == right,
                "step {i}: {op:?} diverged:\n  on:  {left}\n  off: {right}"
            );
        }
        // The pair only proves anything if the cached store actually
        // cached: gets must have probed the hot tier on one side only.
        let (on_stats, off_stats) = (on.stats(), off.stats());
        prop_assert_eq!(off_stats.cache_hits, 0);
        prop_assert_eq!(off_stats.cache_misses, 0);
        if ops.iter().any(|op| matches!(op, StoreOp::Get(_))) {
            prop_assert!(
                on_stats.cache_hits + on_stats.cache_misses > 0,
                "cache-on store never probed the hot tier"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Erasure and retention over live TCP, on both transports
// ---------------------------------------------------------------------------

const BOTH: [Transport; 2] = [Transport::Reactor, Transport::Threads];

/// A live GDPR server with the hot cache force-enabled and a simulated
/// retention clock.
fn hot_gdpr_server(transport: Transport, clock: SimClock) -> (TcpServerHandle, Arc<GdprStore>) {
    let mut store = GdprStore::open(
        CompliancePolicy::eventual(),
        StoreConfig::in_memory()
            .aof_in_memory()
            .shards(2)
            .clock(clock),
        Box::new(MemorySink::new()),
    )
    .expect("open GDPR store");
    store.set_hot_cache(HotCacheConfig::default().enabled(true));
    store.grant(Grant::new(ACTOR, PURPOSE));
    let store = Arc::new(store);
    let server = TcpServer::bind(
        Dispatcher::gdpr(Arc::clone(&store)),
        "127.0.0.1:0",
        ServerConfig {
            transport,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    (server, store)
}

/// Put one record over the wire and heat it until the hot tier serves it.
fn put_and_heat(client: &mut TcpRemoteClient, store: &GdprStore, key: &str, ttl_ms: Option<u64>) {
    let reply = client
        .gdpr(&GdprRequest::Put {
            key: key.to_string(),
            subject: "alice".to_string(),
            purposes: vec![PURPOSE.to_string()],
            value: b"secret".to_vec(),
            ttl_ms,
        })
        .expect("put");
    assert_eq!(reply, Frame::Simple("OK".into()));
    for _ in 0..8 {
        assert_eq!(
            client.get(key).expect("get"),
            Some(b"secret".to_vec()),
            "heated read must return the stored value"
        );
    }
    assert!(
        store.stats().cache_hits >= 1,
        "the hot tier never served the heated key"
    );
}

#[test]
fn erased_subject_is_never_served_from_the_hot_tier_over_tcp() {
    for transport in BOTH {
        let (server, store) = hot_gdpr_server(transport, SimClock::new(START));
        let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
        client.auth(ACTOR, PURPOSE).unwrap();
        put_and_heat(&mut client, &store, "pii:alice", None);
        assert!(client.erase_subject("alice").unwrap() >= 1, "{transport}");
        assert_eq!(
            client.get("pii:alice").unwrap(),
            None,
            "{transport}: erased value served from the hot tier"
        );
        drop(client);
        server.shutdown();
    }
}

#[test]
fn expired_keys_are_never_served_from_the_hot_tier_over_tcp() {
    for transport in BOTH {
        let clock = SimClock::new(START);
        let (server, store) = hot_gdpr_server(transport, clock.clone());
        let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
        client.auth(ACTOR, PURPOSE).unwrap();
        put_and_heat(&mut client, &store, "pii:ttl", Some(5_000));
        clock.advance_millis(6_000);
        // No expiry cycle has run yet, so the entry may still sit in the
        // hot map — the hit path must notice the cached retention
        // deadline on its own.
        assert_eq!(
            client.get("pii:ttl").unwrap(),
            None,
            "{transport}: expired value served from the hot tier before the cycle"
        );
        client.tick().unwrap();
        assert_eq!(
            client.get("pii:ttl").unwrap(),
            None,
            "{transport}: expired value served after the expiry cycle"
        );
        drop(client);
        server.shutdown();
    }
}
