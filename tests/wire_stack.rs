//! Integration tests of the networked data path: RESP encoding, the
//! sealed tunnel of Figure 1 and the event-loop server working together
//! over the storage engine, each test run plain and tunnelled.

use std::net::SocketAddr;

use bench::adapters::WireAdapter;
use bench::tunnel::Tunnel;
use gdpr_storage::gdpr_server::client::TcpRemoteClient;
use gdpr_storage::gdpr_server::dispatch::Dispatcher;
use gdpr_storage::gdpr_server::tcp::{ServerConfig, TcpServer};
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::Frame;
use gdpr_storage::ycsb::client::Driver;
use gdpr_storage::ycsb::workload::WorkloadSpec;

fn server() -> TcpServer {
    let dispatcher = Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap());
    TcpServer::bind(dispatcher, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

/// A client of `addr`, direct (`tunnelled: false`) or through a tunnel.
fn client(addr: SocketAddr, tunnelled: bool) -> (TcpRemoteClient, Option<Tunnel>) {
    if tunnelled {
        let (client, tunnel) = Tunnel::connect(addr, b"wire-stack").unwrap();
        (client, Some(tunnel))
    } else {
        (TcpRemoteClient::connect(addr).unwrap(), None)
    }
}

#[test]
fn plain_and_secure_clients_agree_on_semantics() {
    for tunnelled in [false, true] {
        let server = server();
        let (mut client, _tunnel) = client(server.local_addr(), tunnelled);
        client.set("user:1", b"alice").unwrap();
        client.set("user:2", b"bob").unwrap();
        assert_eq!(client.get("user:1").unwrap(), Some(b"alice".to_vec()));
        assert_eq!(client.get("user:3").unwrap(), None);
        assert_eq!(client.scan("user:", 10).unwrap().len(), 2);
        assert!(client.delete("user:2").unwrap());
        assert_eq!(client.scan("user:", 10).unwrap().len(), 1);
        assert_eq!(
            client
                .roundtrip(&Frame::command(["PEXPIRE", "user:1", "60000"]))
                .unwrap(),
            Frame::Integer(1)
        );
    }
}

#[test]
fn raw_resp_frames_roundtrip_through_the_whole_stack() {
    for tunnelled in [false, true] {
        let server = server();
        let (mut client, _tunnel) = client(server.local_addr(), tunnelled);
        let reply = client
            .roundtrip(&Frame::command(["SET", "k", "v"]))
            .unwrap();
        assert_eq!(reply, Frame::Simple("OK".into()));
        let reply = client.roundtrip(&Frame::command(["GET", "k"])).unwrap();
        assert_eq!(reply, Frame::Bulk(b"v".to_vec()));
        // A server-side error frame surfaces as an error on the client.
        assert!(client.roundtrip(&Frame::command(["NOPE"])).is_err());
        // Protocol statistics reflect the traffic.
        assert_eq!(client.requests(), 3);
        assert_eq!(server.dispatcher().stats().requests, 3);
        assert_eq!(server.dispatcher().stats().errors, 1);
    }
}

#[test]
fn ycsb_workloads_run_cleanly_over_tcp_and_the_tunnel() {
    for workload in ["A", "B", "C", "D", "E", "F"] {
        for tunnelled in [false, true] {
            let server = server();
            let (client, tunnel) = client(server.local_addr(), tunnelled);
            let mut adapter = WireAdapter::new(client, tunnel);
            let mut driver = Driver::new(WorkloadSpec::by_name(workload, 100, 200), 99);
            let load = driver.run_load(&mut adapter).unwrap();
            assert_eq!(load.errors, 0, "workload {workload} load phase");
            let run = driver.run_transactions(&mut adapter).unwrap();
            assert_eq!(run.errors, 0, "workload {workload} run phase");
            assert!(run.throughput() > 0.0);
        }
    }
}
