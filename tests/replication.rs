//! End-to-end primary → replica streaming replication.
//!
//! The paper's obligations are obligations *per copy*: timely deletion
//! only holds if an erasure on the primary reaches every replica. These
//! tests run a real TCP primary and in-process replica runners and pin:
//!
//! * full sync is portable across shard counts — primary at M shards,
//!   replica at N, byte-equivalent canonical state for all (M, N);
//! * `GDPR.ERASE` on the primary removes the key *and its metadata
//!   postings* on every connected replica;
//! * retention expiry (journaled `DEL`s from the primary's tick) reaches
//!   replicas whose own clocks never advanced;
//! * replicas reject writes with a redirect and expose their lag;
//! * a journal rewrite on the primary (which renumbers the stream)
//!   forces a full resync and the replica still converges.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::gdpr_server::client::TcpRemoteClient;
use gdpr_storage::gdpr_server::dispatch::Dispatcher;
use gdpr_storage::gdpr_server::replication::{self, ReplicaHandle};
use gdpr_storage::gdpr_server::tcp::{ServerConfig, TcpServer, TcpServerHandle};
use gdpr_storage::kvstore::config::{EvictionPolicy, StoreConfig};
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::command::GdprRequest;
use std::sync::Arc;

const CONVERGE_DEADLINE: Duration = Duration::from_secs(20);

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + CONVERGE_DEADLINE;
    while !done() {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for: {what} (after {CONVERGE_DEADLINE:?})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fast_server_config() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    }
}

fn kv_primary(shards: usize) -> (TcpServerHandle, KvStore) {
    let store = KvStore::open(StoreConfig::in_memory().aof_in_memory().shards(shards)).unwrap();
    let server = TcpServer::bind(
        Dispatcher::kv(store.clone()),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();
    (server, store)
}

fn kv_replica(shards: usize, primary: SocketAddr) -> (Dispatcher, ReplicaHandle) {
    let store = KvStore::open(StoreConfig::in_memory().aof_in_memory().shards(shards)).unwrap();
    let dispatcher = Dispatcher::kv(store);
    let handle = replication::start_replica(dispatcher.clone(), &primary.to_string());
    (dispatcher, handle)
}

fn converged(primary: &Dispatcher, replica: &Dispatcher) -> bool {
    primary.raw_engine().canonical_state() == replica.raw_engine().canonical_state()
}

#[test]
fn full_sync_matrix_is_portable_across_shard_counts() {
    for primary_shards in [1usize, 4, 8] {
        let (server, store) = kv_primary(primary_shards);
        // A fixture with every value shape the engine supports, deletes,
        // overwrites and a TTL.
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
        store.set("overwritten", b"old".to_vec()).unwrap();
        store.set("overwritten", b"new".to_vec()).unwrap();
        store.set("ttl-key", b"expiring".to_vec()).unwrap();
        store.expire_at("ttl-key", 10_000_000_000_000).unwrap();

        let mut replicas = Vec::new();
        for replica_shards in [1usize, 4, 8] {
            replicas.push((
                replica_shards,
                kv_replica(replica_shards, server.local_addr()),
            ));
        }
        // Writes that land *after* the replicas attached travel over the
        // live stream rather than the full sync.
        for i in 0..30 {
            store.set(&format!("late{i:02}"), vec![i as u8]).unwrap();
        }
        for (replica_shards, (dispatcher, _handle)) in &replicas {
            wait_until(
                &format!("replica at {replica_shards} shards of a {primary_shards}-shard primary"),
                || converged(server.dispatcher(), dispatcher),
            );
            assert_eq!(
                server.dispatcher().state_digest_hex(),
                dispatcher.state_digest_hex(),
                "digest must match at {primary_shards}→{replica_shards} shards"
            );
            let info = dispatcher.replication().info();
            assert!(info.connected, "{info:?}");
            assert_eq!(info.full_syncs, 1, "{info:?}");
        }
        for (_, (_, handle)) in replicas {
            handle.stop();
        }
        server.shutdown();
    }
}

#[test]
fn erasure_on_the_primary_reaches_every_replica() {
    let config = StoreConfig::in_memory().aof_in_memory().shards(4);
    let primary_store = Arc::new(
        GdprStore::open(
            CompliancePolicy::eventual(),
            config,
            Box::new(gdpr_storage::audit::sink::NullSink::new()),
        )
        .unwrap(),
    );
    primary_store.grant(Grant::new("app", "billing")).unwrap();
    let server = TcpServer::bind(
        Dispatcher::gdpr(Arc::clone(&primary_store)),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();

    // Two compliance-layer replicas at different shard counts.
    let mut replicas = Vec::new();
    for shards in [2usize, 8] {
        let store = Arc::new(
            GdprStore::open(
                CompliancePolicy::eventual(),
                StoreConfig::in_memory().aof_in_memory().shards(shards),
                Box::new(gdpr_storage::audit::sink::NullSink::new()),
            )
            .unwrap(),
        );
        let dispatcher = Dispatcher::gdpr(Arc::clone(&store));
        let handle =
            replication::start_replica(dispatcher.clone(), &server.local_addr().to_string());
        replicas.push((store, dispatcher, handle));
    }

    // Write personal data for two subjects over the wire.
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    client.auth("app", "billing").unwrap();
    for i in 0..20 {
        for subject in ["alice", "bob"] {
            client
                .gdpr(&GdprRequest::Put {
                    key: format!("user:{subject}:rec{i:02}"),
                    subject: subject.to_string(),
                    purposes: vec!["billing".to_string()],
                    value: format!("pii-{subject}-{i}").into_bytes(),
                    ttl_ms: None,
                })
                .unwrap();
        }
    }
    for (store, dispatcher, _) in &replicas {
        wait_until("replica converged after puts", || {
            converged(server.dispatcher(), dispatcher)
        });
        // The streamed metadata shadow writes maintained the replica's
        // index: subject lookups work on the replica without a rebuild.
        assert_eq!(store.keys_of_subject("alice").unwrap().len(), 20);
        assert_eq!(store.keys_of_subject("bob").unwrap().len(), 20);
    }

    // The right to be forgotten, exercised once, on the primary.
    let erased = client.erase_subject("alice").unwrap();
    assert_eq!(erased, 20);

    for (store, dispatcher, _) in &replicas {
        wait_until("erasure propagated to replica", || {
            converged(server.dispatcher(), dispatcher)
        });
        // The keys, their values, their metadata shadow records and their
        // index postings are all gone on the replica...
        assert!(store.keys_of_subject("alice").unwrap().is_empty());
        let engine = dispatcher.raw_engine();
        for i in 0..20 {
            let key = format!("user:alice:rec{i:02}");
            assert_eq!(engine.get(&key).unwrap(), None, "{key} value survived");
            assert_eq!(
                engine.get(&format!("__gdpr_meta__:{key}")).unwrap(),
                None,
                "{key} metadata shadow survived"
            );
        }
        // ...while the other subject's data is untouched.
        assert_eq!(store.keys_of_subject("bob").unwrap().len(), 20);
        assert_eq!(
            server.dispatcher().state_digest_hex(),
            dispatcher.state_digest_hex()
        );
    }
    for (_, _, handle) in replicas {
        handle.stop();
    }
    server.shutdown();
}

#[test]
fn a_strict_primarys_evidence_stays_on_the_primary() {
    let open = |shards: usize| {
        Arc::new(
            GdprStore::open(
                CompliancePolicy::strict(),
                StoreConfig::in_memory().aof_in_memory().shards(shards),
                Box::new(gdpr_storage::audit::sink::NullSink::new()),
            )
            .unwrap(),
        )
    };
    let primary_store = open(4);
    primary_store.grant(Grant::new("app", "billing")).unwrap();
    let server = TcpServer::bind(
        Dispatcher::gdpr(Arc::clone(&primary_store)),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();
    let replica_store = open(2);
    let replica = Dispatcher::gdpr(Arc::clone(&replica_store));
    let handle = replication::start_replica(replica.clone(), &server.local_addr().to_string());

    // Puts, gets and a denial: every one commits evidence on the primary.
    let mut client = TcpRemoteClient::connect(server.local_addr()).unwrap();
    client.auth("app", "billing").unwrap();
    let put = |key: &str, purpose: &str| GdprRequest::Put {
        key: key.to_string(),
        subject: "alice".to_string(),
        purposes: vec![purpose.to_string()],
        value: b"pii".to_vec(),
        ttl_ms: None,
    };
    for i in 0..10 {
        let key = format!("user:alice:rec{i:02}");
        client.gdpr(&put(&key, "billing")).unwrap();
        assert_eq!(client.get(&key).unwrap(), Some(b"pii".to_vec()));
    }
    // A writer whose purpose the metadata does not whitelist is refused.
    let refused = client.gdpr(&put("user:alice:denied", "analytics"));
    assert!(refused.is_err(), "{refused:?}");
    let evidence_before = primary_store.stats().audit_records;
    assert!(evidence_before >= 21, "{evidence_before}");

    wait_until("replica converged on a strict primary", || {
        converged(server.dispatcher(), &replica)
    });
    assert_eq!(
        server.dispatcher().state_digest_hex(),
        replica.state_digest_hex()
    );
    // The replica applied the data and journaled none of the evidence.
    assert_eq!(replica_store.keys_of_subject("alice").unwrap().len(), 10);
    assert_eq!(replica_store.stats().audit_records, 0);
    let journaled = replica_store.aof_stats().unwrap().records_appended;
    assert!(journaled <= 10, "the data writes only: {journaled} records");
    handle.stop();
    server.shutdown();
}

#[test]
fn retention_expiry_on_the_primary_reaches_replicas_with_cold_clocks() {
    use gdpr_storage::kvstore::clock::SimClock;
    use gdpr_storage::kvstore::expire::ExpiryMode;

    let clock = SimClock::new(1_000_000);
    let store = KvStore::open(
        StoreConfig::in_memory()
            .aof_in_memory()
            .shards(4)
            .clock(clock.clone())
            .expiry_mode(ExpiryMode::Strict),
    )
    .unwrap();
    let server = TcpServer::bind(
        Dispatcher::kv(store.clone()),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();
    // The replica's own clock sits at 0 forever: it can never expire
    // these keys locally — only the primary's journaled DELs remove them.
    let (replica, handle) = kv_replica(2, server.local_addr());

    for i in 0..32 {
        let key = format!("retained{i:02}");
        store.set(&key, b"pii".to_vec()).unwrap();
        store.expire_at(&key, 1_002_000).unwrap();
    }
    store.set("keeper", b"stays".to_vec()).unwrap();
    wait_until("replica loaded the retained keys", || {
        converged(server.dispatcher(), &replica)
    });
    assert_eq!(replica.raw_engine().len(), 33);

    clock.advance_millis(3_000);
    let outcome = store.tick().unwrap();
    assert_eq!(outcome.removed.len(), 32, "primary expired the batch");

    wait_until("expiry DELs propagated", || replica.raw_engine().len() == 1);
    assert_eq!(
        replica.raw_engine().get("keeper").unwrap(),
        Some(b"stays".to_vec())
    );
    assert_eq!(
        server.dispatcher().state_digest_hex(),
        replica.state_digest_hex()
    );
    handle.stop();
    server.shutdown();
}

#[test]
fn replica_rejects_writes_over_the_wire_with_a_redirect() {
    let (primary, _store) = kv_primary(2);
    let replica_store = KvStore::open(StoreConfig::in_memory().aof_in_memory().shards(2)).unwrap();
    let replica_dispatcher = Dispatcher::kv(replica_store);
    let replica_server = TcpServer::bind(
        replica_dispatcher.clone(),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();
    let handle = replication::start_replica(replica_dispatcher, &primary.local_addr().to_string());

    let mut client = TcpRemoteClient::connect(replica_server.local_addr()).unwrap();
    let err = client.set("k", b"v").unwrap_err();
    let message = err.to_string();
    assert!(message.contains("READONLY"), "{message}");
    assert!(
        message.contains(&primary.local_addr().to_string()),
        "redirect must name the primary: {message}"
    );
    // Reads and probes still served.
    client.ping().unwrap();
    assert_eq!(client.get("missing").unwrap(), None);

    handle.stop();
    replica_server.shutdown();
    primary.shutdown();
}

#[test]
fn primary_without_a_tailing_backlog_refuses_replication() {
    // backlog=0 disables tailing; REPLSYNC must be refused outright
    // instead of handing out a cursor that can never be served (which
    // would put the replica into a full-resync storm).
    let store = KvStore::open(
        StoreConfig::in_memory()
            .aof_in_memory()
            .shards(2)
            .repl_backlog(0),
    )
    .unwrap();
    let server = TcpServer::bind(
        Dispatcher::kv(store.clone()),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();
    let (replica, handle) = kv_replica(2, server.local_addr());
    store.set("k", b"v".to_vec()).unwrap();
    // Give the runner several connect attempts: every one must be
    // refused before the snapshot is even produced.
    std::thread::sleep(Duration::from_millis(800));
    let info = replica.replication().info();
    assert_eq!(info.full_syncs, 0, "{info:?}");
    assert!(!info.connected, "{info:?}");
    assert!(replica.raw_engine().is_empty());
    handle.stop();
    server.shutdown();
}

#[test]
fn journal_rewrite_forces_a_full_resync_and_replica_reconverges() {
    let (server, store) = kv_primary(4);
    let (replica, handle) = kv_replica(4, server.local_addr());
    for i in 0..50 {
        store.set(&format!("gen1:{i:02}"), vec![i as u8]).unwrap();
        if i % 2 == 0 {
            store.delete(&format!("gen1:{i:02}")).unwrap();
        }
    }
    wait_until("replica caught generation 1", || {
        converged(server.dispatcher(), &replica)
    });
    assert_eq!(replica.replication().info().full_syncs, 1);

    // The rewrite renumbers the journal stream; the feeder must declare
    // the replica's cursor lost and the replica must full-resync.
    assert!(store.rewrite_aof().unwrap() > 0);
    for i in 0..25 {
        store.set(&format!("gen2:{i:02}"), vec![i as u8]).unwrap();
    }
    wait_until("replica re-synced past the rewrite", || {
        converged(server.dispatcher(), &replica)
    });
    let info = replica.replication().info();
    assert!(
        info.full_syncs >= 2,
        "rewrite must have forced a fresh full sync: {info:?}"
    );
    assert!(info.connected, "{info:?}");
    assert_eq!(info.lag_records, 0, "{info:?}");
    assert!(
        server.dispatcher().replication().info().lost_streams >= 1,
        "primary must have counted the lost stream"
    );
    handle.stop();
    server.shutdown();
}

#[test]
fn replica_survives_a_primary_restart_and_resyncs() {
    // In-process stand-in for CI's kill -9 smoke: the primary server goes
    // away mid-stream (socket dies), a new primary comes up with more
    // data, and the replica's reconnect loop full-resyncs against it.
    let (server, store) = kv_primary(4);
    let addr = server.local_addr();
    for i in 0..40 {
        store.set(&format!("pre{i:02}"), vec![i as u8]).unwrap();
    }
    let (replica, handle) = kv_replica(2, addr);
    wait_until("replica synced against the first primary", || {
        converged(server.dispatcher(), &replica)
    });
    // "Crash": take the listener down without touching the replica.
    server.shutdown();

    // Restart on the same port with evolved state (the journal of a real
    // restart would replay; an in-memory store stands in for it here).
    let store2 = KvStore::open(StoreConfig::in_memory().aof_in_memory().shards(4)).unwrap();
    for i in 0..40 {
        store2.set(&format!("pre{i:02}"), vec![i as u8]).unwrap();
    }
    for i in 0..15 {
        store2.set(&format!("post{i:02}"), vec![i as u8]).unwrap();
    }
    let server2 = TcpServer::bind(Dispatcher::kv(store2), addr, fast_server_config()).unwrap();
    wait_until("replica resynced against the restarted primary", || {
        converged(server2.dispatcher(), &replica)
    });
    let info = replica.replication().info();
    assert!(info.full_syncs >= 2, "{info:?}");
    assert_eq!(
        server2.dispatcher().state_digest_hex(),
        replica.state_digest_hex()
    );
    handle.stop();
    server2.shutdown();
}

#[test]
fn maxmemory_evictions_replicate_as_journaled_deletes() {
    // A bounded primary evicts under write pressure; the replica runs
    // UNbounded, so it only converges if every eviction travels the
    // stream as an explicit journaled DEL rather than happening silently
    // inside the primary's shards.
    let ceiling = 16 * 1024u64;
    let store = KvStore::open(
        StoreConfig::in_memory()
            .aof_in_memory()
            .shards(4)
            .max_memory(ceiling)
            .eviction_policy(EvictionPolicy::SampledLru),
    )
    .unwrap();
    let server = TcpServer::bind(
        Dispatcher::kv(store.clone()),
        "127.0.0.1:0",
        fast_server_config(),
    )
    .unwrap();
    let (replica, handle) = kv_replica(2, server.local_addr());

    // Several ceilings' worth of values written while the replica tails
    // the live stream — evictions race the feed, not just the full sync.
    for i in 0..600 {
        store.set(&format!("evict{i:04}"), vec![b'x'; 100]).unwrap();
    }
    let stats = store.stats();
    assert!(stats.db.evicted_keys > 0, "{stats:?}");
    assert!(stats.db.mem_bytes <= ceiling, "{stats:?}");

    wait_until("replica converges past the evictions", || {
        converged(server.dispatcher(), &replica)
    });
    assert_eq!(
        server.dispatcher().state_digest_hex(),
        replica.state_digest_hex(),
        "digests must be byte-equivalent with eviction enabled"
    );
    handle.stop();
    server.shutdown();
}
