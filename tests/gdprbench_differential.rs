//! The cross-transport differential battery (GDPRbench tentpole pin).
//!
//! One seeded customer + regulator workload is driven through three
//! different paths to the *same kind* of store:
//!
//! 1. in-process calls on [`GdprStore`];
//! 2. RESP frames over live TCP to the event-loop server at one loop;
//! 3. the same at three loops.
//!
//! Every leg gets its own pinned-clock store (`SimClock`, so exports and
//! metadata timestamps are identical by construction), the same grants and
//! the same op stream. The legs must agree twice over:
//!
//! * **per-op**: the captured [`Outcome`] vectors are equal element-wise —
//!   every denial, every miss, every fan-out size, every export byte
//!   count matches across transports;
//! * **final state**: the `DIGEST` of each store (SHA-256 over the
//!   canonical keyspace serialization) is byte-identical.
//!
//! [`GdprStore`]: gdpr_storage::gdpr_core::store::GdprStore

use std::sync::Arc;

use gdpr_storage::gdpr_core::acl::Grant;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::gdpr_server::client::TcpRemoteClient;
use gdpr_storage::gdpr_server::dispatch::Dispatcher;
use gdpr_storage::gdpr_server::tcp::{ServerConfig, TcpServer};
use gdpr_storage::gdprbench::ops::{load_ops, transaction_ops};
use gdpr_storage::gdprbench::{
    drive, BenchSpec, ClientFactory, InProcessFactory, Outcome, Role, TcpFactory,
};
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::resp::Frame;

const SHARDS: usize = 2;
const CLOCK_MS: u64 = 1_000_000;

fn open_store() -> Arc<GdprStore> {
    let config = StoreConfig::in_memory()
        .aof_in_memory()
        .shards(SHARDS)
        .clock(SimClock::new(CLOCK_MS));
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        config,
        Box::new(gdpr_storage::audit::sink::NullSink::new()),
    )
    .expect("store opens");
    for (actor, purpose) in BenchSpec::grants() {
        store.grant(Grant::new(actor, purpose)).unwrap();
    }
    Arc::new(store)
}

fn specs() -> Vec<BenchSpec> {
    vec![
        BenchSpec::new(Role::Customer, 16, 4, 300).seed(77),
        BenchSpec::new(Role::Regulator, 16, 4, 300).seed(77),
    ]
}

/// One leg's observable behaviour: outcome vectors per phase + digest.
#[derive(Debug, PartialEq, Eq)]
struct LegResult {
    load: Vec<Outcome>,
    phases: Vec<Vec<Outcome>>,
    digest: String,
}

/// Drive load + both role phases through `factories` and digest via
/// `digest_fn`. The factory for each phase carries its own credentials.
fn drive_leg(
    load_factory: &dyn ClientFactory,
    role_factory: impl Fn(Role) -> Box<dyn ClientFactory>,
    digest_fn: impl FnOnce() -> String,
) -> LegResult {
    let all = specs();
    let load = drive(&load_ops(&all[0]), load_factory).expect("load runs");
    let phases = all
        .iter()
        .map(|spec| {
            drive(&transaction_ops(spec), role_factory(spec.role).as_ref()).expect("txns run")
        })
        .collect();
    LegResult {
        load,
        phases,
        digest: digest_fn(),
    }
}

fn in_process_leg() -> LegResult {
    let store = open_store();
    let digest_store = Arc::clone(&store);
    drive_leg(
        &InProcessFactory::for_load(Arc::clone(&store)),
        move |role| Box::new(InProcessFactory::for_role(Arc::clone(&store), role)),
        move || Dispatcher::gdpr(digest_store).state_digest_hex(),
    )
}

fn tcp_leg(loops: usize) -> LegResult {
    let store = open_store();
    let config = ServerConfig {
        workers: loops,
        ..ServerConfig::default()
    };
    let handle =
        TcpServer::bind(Dispatcher::gdpr(store), "127.0.0.1:0", config).expect("tcp server binds");
    let addr = handle.local_addr();
    let result = drive_leg(
        &TcpFactory::for_load(addr),
        move |role| Box::new(TcpFactory::for_role(addr, role)),
        move || {
            let mut client = TcpRemoteClient::connect(addr).expect("digest connection");
            client
                .auth(Role::Regulator.actor(), Role::Regulator.purpose())
                .expect("auth for digest");
            match client
                .roundtrip(&Frame::command(["DIGEST"]))
                .expect("digest")
            {
                Frame::Bulk(hex) => String::from_utf8(hex).expect("utf8 digest"),
                other => panic!("unexpected DIGEST reply {other:?}"),
            }
        },
    );
    handle.shutdown();
    result
}

#[test]
fn all_transports_agree_per_op_and_on_the_final_digest() {
    let reference = in_process_leg();
    assert!(
        reference.load.iter().all(|o| *o == Outcome::Ok(1)),
        "the load phase must succeed everywhere"
    );
    // Sanity: the customer phase actually exercised denials/fan-outs, so
    // the agreement below is about a non-trivial stream.
    assert!(reference.phases[0]
        .iter()
        .any(|o| matches!(o, Outcome::Ok(n) if *n > 1)));

    let legs = [("tcp/1 loop", tcp_leg(1)), ("tcp/3 loops", tcp_leg(3))];
    for (name, leg) in &legs {
        assert_eq!(
            &reference.load, &leg.load,
            "{name}: load outcomes diverge from in-process"
        );
        for (i, (a, b)) in reference.phases.iter().zip(leg.phases.iter()).enumerate() {
            assert_eq!(a, b, "{name}: phase {i} outcomes diverge from in-process");
        }
        assert_eq!(
            &reference.digest, &leg.digest,
            "{name}: final state digest diverges from in-process"
        );
    }
}
