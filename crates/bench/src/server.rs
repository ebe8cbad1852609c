//! Figure 1's servers: every column is a `TcpServer` with one event loop
//! on loopback, serving the engine configuration the column names.

use std::path::Path;
use std::sync::Arc;

use audit::sink::FileSink;
use gdpr_core::acl::Grant;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::GdprStore;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer};
use kvstore::aof::FsyncPolicy;
use kvstore::config::StoreConfig;
use kvstore::store::KvStore;

use crate::fig1::Fig1Config;

/// The actor the YCSB driver authenticates as on the compliance engine.
pub const ACTOR: &str = "ycsb-driver";

/// The purpose the YCSB driver states, and its records are stamped with.
pub const PURPOSE: &str = "benchmarking";

/// Open `config`'s store with its files under `dir` and serve it on an
/// ephemeral loopback port. The compliance engine is served with the
/// `ACTOR`/`PURPOSE` grant installed.
///
/// # Panics
///
/// When the store cannot be opened or the port cannot be bound.
#[must_use]
pub fn serve(config: Fig1Config, dir: &Path) -> TcpServer {
    let kv = |store: StoreConfig| Dispatcher::kv(KvStore::open(store).expect("open engine"));
    let dispatcher = match config {
        Fig1Config::Unmodified => kv(StoreConfig::in_memory()),
        Fig1Config::AofEverySec => kv(StoreConfig::with_aof(dir.join("everysec.aof"))
            .fsync(FsyncPolicy::EverySec)
            .log_reads(true)),
        Fig1Config::AofSync => kv(StoreConfig::with_aof(dir.join("sync.aof"))
            .fsync(FsyncPolicy::Always)
            .log_reads(true)),
        Fig1Config::LuksTls => kv(StoreConfig::with_aof(dir.join("luks.aof"))
            .fsync(FsyncPolicy::EverySec)
            .encrypted(b"figure1-luks-passphrase")),
        Fig1Config::StrictGdpr => {
            let sink = FileSink::open(dir.join("strict.audit")).expect("open audit trail");
            let store = GdprStore::open(
                CompliancePolicy::strict(),
                StoreConfig::with_aof(dir.join("strict.aof")),
                Box::new(sink),
            )
            .expect("open gdpr store");
            store
                .grant(Grant::new(ACTOR, PURPOSE))
                .expect("the benchmark grant is recorded");
            Dispatcher::gdpr(Arc::new(store))
        }
    };
    let one_loop = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    TcpServer::bind(dispatcher, "127.0.0.1:0", one_loop).expect("bind a loopback port")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_server::client::TcpRemoteClient;
    use resp::Frame;

    /// The unmodified column's server and one client of it.
    struct Unmodified {
        server: TcpServer,
        client: TcpRemoteClient,
    }

    impl Unmodified {
        fn serve() -> Self {
            let server = serve(Fig1Config::Unmodified, &std::env::temp_dir());
            let client = TcpRemoteClient::connect(server.local_addr()).unwrap();
            Unmodified { server, client }
        }

        /// One request; an error frame is returned as it came.
        fn send<const N: usize>(&mut self, args: [&str; N]) -> Frame {
            self.client
                .pipeline(&[Frame::command(args)])
                .unwrap()
                .remove(0)
        }
    }

    #[test]
    fn ping_pong() {
        let mut s = Unmodified::serve();
        assert_eq!(s.send(["PING"]), Frame::Simple("PONG".into()));
    }

    #[test]
    fn set_get_del_over_resp() {
        let mut s = Unmodified::serve();
        assert_eq!(
            s.send(["SET", "user:1", "alice"]),
            Frame::Simple("OK".into())
        );
        assert_eq!(s.send(["GET", "user:1"]), Frame::Bulk(b"alice".to_vec()));
        assert_eq!(s.send(["DEL", "user:1"]), Frame::Integer(1));
        assert_eq!(s.send(["GET", "user:1"]), Frame::Null);
        assert_eq!(s.server.dispatcher().stats().requests, 4);
        assert_eq!(s.server.dispatcher().stats().errors, 0);
    }

    #[test]
    fn hash_commands_over_resp() {
        let mut s = Unmodified::serve();
        s.send(["HMSET", "u", "f0", "a", "f1", "b"]);
        assert_eq!(s.send(["HGET", "u", "f1"]), Frame::Bulk(b"b".to_vec()));
        match s.send(["HGETALL", "u"]) {
            Frame::Array(items) => assert_eq!(items.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.send(["HDEL", "u", "f0"]), Frame::Integer(1));
    }

    #[test]
    fn ttl_commands_over_resp() {
        let mut s = Unmodified::serve();
        s.send(["SET", "k", "v"]);
        assert_eq!(s.send(["PEXPIRE", "k", "5000"]), Frame::Integer(1));
        match s.send(["PTTL", "k"]) {
            Frame::Integer(ms) => assert!(ms > 0 && ms <= 5_000),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.send(["PERSIST", "k"]), Frame::Integer(1));
        assert_eq!(s.send(["EXPIRE", "k", "10"]), Frame::Integer(1));
    }

    #[test]
    fn scan_keys_dbsize_flush() {
        let mut s = Unmodified::serve();
        for i in 0..4 {
            s.send(["SET", &format!("key{i}"), "v"]);
        }
        assert_eq!(s.send(["DBSIZE"]), Frame::Integer(4));
        match s.send(["SCAN", "key1", "2"]) {
            Frame::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        match s.send(["KEYS", "key*"]) {
            Frame::Array(items) => assert_eq!(items.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.send(["FLUSHALL"]), Frame::Integer(4));
        assert_eq!(s.send(["DBSIZE"]), Frame::Integer(0));
    }

    #[test]
    fn errors_for_unknown_commands_and_bad_arity() {
        let mut s = Unmodified::serve();
        assert!(matches!(s.send(["BOGUS"]), Frame::Error(_)));
        assert!(matches!(s.send(["GET"]), Frame::Error(_)));
        assert!(matches!(s.send(["SET", "only-key"]), Frame::Error(_)));
        let not_a_command = s.client.pipeline(&[Frame::Integer(3)]).unwrap();
        assert!(matches!(not_a_command[..], [Frame::Error(_)]));
        assert_eq!(s.server.dispatcher().stats().errors, 4);
    }

    #[test]
    fn wrongtype_error_propagates_as_resp_error() {
        let mut s = Unmodified::serve();
        s.send(["HSET", "h", "f", "v"]);
        assert!(matches!(s.send(["GET", "h"]), Frame::Error(_)));
    }

    #[test]
    fn set_commands_over_resp() {
        let mut s = Unmodified::serve();
        assert_eq!(s.send(["SADD", "tags", "red"]), Frame::Integer(1));
        assert_eq!(s.send(["SADD", "tags", "red"]), Frame::Integer(0));
        match s.send(["SMEMBERS", "tags"]) {
            Frame::Array(items) => assert_eq!(items, vec![Frame::Bulk(b"red".to_vec())]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.send(["SREM", "tags", "red"]), Frame::Integer(1));
    }
}
