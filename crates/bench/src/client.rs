//! Figure 1's client side: how the YCSB driver reaches each column's
//! server (the `server` module). Every column is one RESP connection;
//! `luks+tls` runs it through the sealed [`Tunnel`], and the compliance
//! engine is sent `GDPR.AUTH` before the first operation.

use std::net::SocketAddr;

use gdpr_server::client::TcpRemoteClient;

use crate::adapters::WireAdapter;
use crate::fig1::Fig1Config;
use crate::server::{ACTOR, PURPOSE};
use crate::tunnel::Tunnel;

/// The secret both relays of the `luks+tls` tunnel derive their keys from.
const TLS_SECRET: &[u8] = b"figure1-tls-secret";

/// Open a client to `config`'s server at `addr`, with the tunnel it talks
/// through for `luks+tls` and authenticated for the compliance engine.
///
/// # Panics
///
/// When the connection or the authentication fails.
#[must_use]
pub(crate) fn open(config: Fig1Config, addr: SocketAddr) -> (TcpRemoteClient, Option<Tunnel>) {
    let (mut client, tunnel) = match config {
        Fig1Config::LuksTls => {
            let (client, tunnel) = Tunnel::connect(addr, TLS_SECRET).expect("open the tunnel");
            (client, Some(tunnel))
        }
        _ => (TcpRemoteClient::connect(addr).expect("connect"), None),
    };
    if config == Fig1Config::StrictGdpr {
        client.auth(ACTOR, PURPOSE).expect("GDPR.AUTH");
    }
    (client, tunnel)
}

/// [`open`], wrapped for the YCSB driver.
///
/// # Panics
///
/// When the connection or the authentication fails.
#[must_use]
pub(crate) fn connect(config: Fig1Config, addr: SocketAddr) -> WireAdapter {
    let (client, tunnel) = open(config, addr);
    WireAdapter::new(client, tunnel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use gdpr_server::tcp::TcpServer;
    use gdpr_server::ServerError;
    use resp::Frame;
    use ycsb::client::KvInterface;

    use crate::server::serve;

    /// Serve `config` from a scratch directory and hand the server to
    /// `body`; the server is stopped and the directory removed after.
    fn on_column(config: Fig1Config, body: impl FnOnce(&TcpServer)) {
        let dir = crate::scratch_dir(&format!("client-{}", config.label()));
        let server = serve(config, &dir);
        body(&server);
        server.shutdown();
        crate::cleanup_scratch(&dir);
    }

    #[test]
    fn field_blob_roundtrip() {
        let mut fields = BTreeMap::new();
        fields.insert("field0".to_string(), b"v0".to_vec());
        fields.insert("field1".to_string(), b"v1".to_vec());
        for config in [Fig1Config::Unmodified, Fig1Config::LuksTls] {
            on_column(config, |server| {
                let (mut client, tunnel) = open(config, server.local_addr());
                client.set("junk", b"garbage").unwrap();
                let mut adapter = WireAdapter::new(client, tunnel);
                adapter.insert("user1", &fields).unwrap();
                assert_eq!(adapter.read("user1").unwrap(), Some(fields.clone()));
                // A value that is not a field blob reads as no record.
                assert_eq!(adapter.read("junk").unwrap(), None);
            });
        }
    }

    #[test]
    fn plain_roundtrip() {
        on_column(Fig1Config::Unmodified, |server| {
            let (mut client, tunnel) = open(Fig1Config::Unmodified, server.local_addr());
            assert!(tunnel.is_none());
            client.set("user:1", b"alice").unwrap();
            assert_eq!(client.get("user:1").unwrap(), Some(b"alice".to_vec()));
            assert_eq!(client.get("missing").unwrap(), None);
            assert!(client.delete("user:1").unwrap());
            assert_eq!(client.requests(), 4);
            assert_eq!(server.dispatcher().stats().requests, 4);
        });
    }

    #[test]
    fn secure_roundtrip_matches_plain_semantics() {
        on_column(Fig1Config::LuksTls, |server| {
            let (mut client, tunnel) = open(Fig1Config::LuksTls, server.local_addr());
            assert!(tunnel.is_some());
            client.set("k", b"v").unwrap();
            assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
            assert_eq!(
                client
                    .roundtrip(&Frame::command(["PEXPIRE", "k", "60000"]))
                    .unwrap(),
                Frame::Integer(1)
            );
            assert_eq!(client.scan("", 10).unwrap(), vec!["k".to_string()]);
            assert_eq!(server.dispatcher().stats().requests, 4);
        });
    }

    #[test]
    fn server_error_is_surfaced() {
        for config in [Fig1Config::Unmodified, Fig1Config::LuksTls] {
            on_column(config, |server| {
                let (mut client, _tunnel) = open(config, server.local_addr());
                client
                    .roundtrip(&Frame::command(["HSET", "h", "f", "v"]))
                    .unwrap();
                let err = client.get("h").unwrap_err();
                assert!(matches!(err, ServerError::Server(_)), "{config:?}: {err}");
                // The error ends neither the connection nor the tunnel.
                client.set("k", b"v").unwrap();
            });
        }
    }
}
