//! The remote client: the full request/reply data path in one object.
//!
//! A call on [`RemoteClient`] goes through exactly the stages a YCSB
//! request went through in the paper's encrypted setup:
//!
//! 1. the request is RESP-encoded,
//! 2. optionally sealed by the client end of the [`SecureEndpoint`] pair
//!    (the Stunnel TLS simulation),
//! 3. transferred across the request [`Link`] (bandwidth/latency model),
//! 4. opened and handled by the [`RespKvServer`],
//! 5. and the reply takes the mirror path back.
//!
//! Everything happens in-process, so the CPU costs (encoding, encryption)
//! are real while the wire is modelled.
//!
//! A YCSB record travels as one opaque `SET` value: [`encode_fields`]
//! packs its field map into that blob and [`decode_fields`] unpacks it.

use std::collections::BTreeMap;

use kvstore::object::Value;
use kvstore::serialize::{decode_value, encode_value, Reader};
use resp::decode::decode_one;
use resp::encode::encode_frame;
use resp::Frame;

use crate::link::{Link, LinkConfig, LinkStats};
use crate::secure::{SecureChannel, SecureEndpoint};
use crate::server::RespKvServer;
use crate::{NetError, Result};

/// Serialize a YCSB field map into the single opaque blob that travels as
/// a `SET` value.
#[must_use]
pub fn encode_fields(fields: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&mut out, &Value::Hash(fields.clone()));
    out
}

/// Decode a blob produced by [`encode_fields`].
#[must_use]
pub fn decode_fields(bytes: &[u8]) -> Option<BTreeMap<String, Vec<u8>>> {
    let mut reader = Reader::new(bytes);
    match decode_value(&mut reader, "ycsb record").ok()? {
        Value::Hash(map) => Some(map),
        _ => None,
    }
}

/// A client connected to a [`RespKvServer`] through the simulated network.
#[derive(Debug)]
pub struct RemoteClient {
    server: RespKvServer,
    request_link: Link,
    reply_link: Link,
    secure: Option<(SecureEndpoint, SecureEndpoint)>,
    requests: u64,
}

impl RemoteClient {
    /// Connect a plaintext client (the paper's unencrypted baseline).
    #[must_use]
    pub fn connect_plain(server: RespKvServer, link: LinkConfig) -> Self {
        RemoteClient {
            server,
            request_link: Link::new(link),
            reply_link: Link::new(link),
            secure: None,
            requests: 0,
        }
    }

    /// Connect through the TLS-simulation channel with the given shared
    /// secret (the paper's Stunnel configuration).
    #[must_use]
    pub fn connect_secure(server: RespKvServer, link: LinkConfig, shared_secret: &[u8]) -> Self {
        let (client_end, server_end) = SecureChannel::pair(shared_secret);
        RemoteClient {
            server,
            request_link: Link::new(link),
            reply_link: Link::new(link),
            secure: Some((client_end, server_end)),
            requests: 0,
        }
    }

    /// Whether the channel encrypts traffic.
    #[must_use]
    pub fn is_encrypted(&self) -> bool {
        self.secure.is_some()
    }

    /// Number of round trips performed.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Link statistics for the request and reply directions.
    #[must_use]
    pub fn link_stats(&self) -> (LinkStats, LinkStats) {
        (self.request_link.stats(), self.reply_link.stats())
    }

    /// The server this client talks to.
    #[must_use]
    pub fn server(&self) -> &RespKvServer {
        &self.server
    }

    /// Perform one request/reply round trip.
    ///
    /// # Errors
    ///
    /// Returns protocol, crypto or server errors; a RESP error frame from
    /// the server is surfaced as [`NetError::Server`].
    pub fn roundtrip(&mut self, request: &Frame) -> Result<Frame> {
        self.requests += 1;

        // --- request path ---
        let encoded = encode_frame(request);
        let on_wire = match &mut self.secure {
            Some((client_end, _)) => client_end.seal(&encoded),
            None => encoded,
        };
        self.request_link.transfer(on_wire.len());
        let at_server = match &mut self.secure {
            Some((_, server_end)) => server_end.open(&on_wire)?,
            None => on_wire,
        };
        let request_frame = decode_one(&at_server)?;

        // --- server ---
        let reply = self.server.handle_frame(&request_frame);

        // --- reply path ---
        let encoded_reply = encode_frame(&reply);
        let reply_on_wire = match &mut self.secure {
            Some((_, server_end)) => server_end.seal(&encoded_reply),
            None => encoded_reply,
        };
        self.reply_link.transfer(reply_on_wire.len());
        let at_client = match &mut self.secure {
            Some((client_end, _)) => client_end.open(&reply_on_wire)?,
            None => reply_on_wire,
        };
        let reply_frame = decode_one(&at_client)?;

        if let Frame::Error(message) = &reply_frame {
            return Err(NetError::Server(message.clone()));
        }
        Ok(reply_frame)
    }

    // ---- convenience wrappers used by the YCSB adapter -------------------

    /// `SET key value`.
    pub fn set(&mut self, key: &str, value: &[u8]) -> Result<()> {
        self.roundtrip(&Frame::command([
            key_bytes("SET"),
            key_bytes(key),
            value.to_vec(),
        ]))
        .map(|_| ())
    }

    /// `GET key`.
    pub fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(
            match self.roundtrip(&Frame::command([key_bytes("GET"), key_bytes(key)]))? {
                Frame::Bulk(b) => Some(b),
                _ => None,
            },
        )
    }

    /// `DEL key`; returns whether the key existed.
    pub fn delete(&mut self, key: &str) -> Result<bool> {
        Ok(matches!(
            self.roundtrip(&Frame::command([key_bytes("DEL"), key_bytes(key)]))?,
            Frame::Integer(1)
        ))
    }

    /// `PEXPIRE key ttl_ms`.
    pub fn pexpire(&mut self, key: &str, ttl_ms: u64) -> Result<bool> {
        Ok(matches!(
            self.roundtrip(&Frame::command([
                key_bytes("PEXPIRE"),
                key_bytes(key),
                ttl_ms.to_string().into_bytes(),
            ]))?,
            Frame::Integer(1)
        ))
    }

    /// `SCAN start count`; returns the matching keys.
    pub fn scan(&mut self, start: &str, count: usize) -> Result<Vec<String>> {
        match self.roundtrip(&Frame::command([
            key_bytes("SCAN"),
            key_bytes(start),
            count.to_string().into_bytes(),
        ]))? {
            Frame::Array(items) => Ok(items
                .into_iter()
                .filter_map(|f| match f {
                    Frame::Bulk(b) => Some(String::from_utf8_lossy(&b).into_owned()),
                    _ => None,
                })
                .collect()),
            _ => Ok(Vec::new()),
        }
    }
}

fn key_bytes(s: &str) -> Vec<u8> {
    s.as_bytes().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;

    fn server() -> RespKvServer {
        RespKvServer::new(KvStore::open(StoreConfig::in_memory()).unwrap())
    }

    #[test]
    fn field_blob_roundtrip() {
        let mut f = BTreeMap::new();
        f.insert("field0".to_string(), b"v0".to_vec());
        f.insert("field1".to_string(), b"v1".to_vec());
        assert_eq!(decode_fields(&encode_fields(&f)).unwrap(), f);
        assert!(decode_fields(b"garbage").is_none());
    }

    #[test]
    fn plain_roundtrip() {
        let mut client = RemoteClient::connect_plain(server(), LinkConfig::plain_44gbps());
        assert!(!client.is_encrypted());
        client.set("user:1", b"alice").unwrap();
        assert_eq!(client.get("user:1").unwrap(), Some(b"alice".to_vec()));
        assert_eq!(client.get("missing").unwrap(), None);
        assert!(client.delete("user:1").unwrap());
        assert_eq!(client.requests(), 4);
        let (req, rep) = client.link_stats();
        assert_eq!(req.messages, 4);
        assert_eq!(rep.messages, 4);
    }

    #[test]
    fn secure_roundtrip_matches_plain_semantics() {
        let mut client =
            RemoteClient::connect_secure(server(), LinkConfig::tls_proxied_4_9gbps(), b"secret");
        assert!(client.is_encrypted());
        client.set("k", b"v").unwrap();
        assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
        assert!(client.pexpire("k", 60_000).unwrap());
        assert_eq!(client.scan("", 10).unwrap(), vec!["k".to_string()]);
    }

    #[test]
    fn secure_channel_carries_more_bytes_than_plain() {
        let mut plain = RemoteClient::connect_plain(server(), LinkConfig::plain_44gbps());
        let mut secure =
            RemoteClient::connect_secure(server(), LinkConfig::plain_44gbps(), b"secret");
        plain.set("key", &[7u8; 256]).unwrap();
        secure.set("key", &[7u8; 256]).unwrap();
        let plain_bytes = plain.link_stats().0.payload_bytes;
        let secure_bytes = secure.link_stats().0.payload_bytes;
        assert!(
            secure_bytes > plain_bytes,
            "{secure_bytes} vs {plain_bytes}"
        );
    }

    #[test]
    fn server_error_is_surfaced() {
        let mut client = RemoteClient::connect_plain(server(), LinkConfig::plain_44gbps());
        client
            .roundtrip(&Frame::command(["HSET", "h", "f", "v"]))
            .unwrap();
        let err = client.get("h").unwrap_err();
        assert!(matches!(err, NetError::Server(_)));
    }

    #[test]
    fn link_models_accumulate_modelled_time() {
        let mut client =
            RemoteClient::connect_secure(server(), LinkConfig::tls_proxied_4_9gbps(), b"s");
        for i in 0..50 {
            client.set(&format!("k{i}"), &[0u8; 1024]).unwrap();
        }
        let (req, rep) = client.link_stats();
        assert!(req.modelled_nanos > 0);
        assert!(rep.modelled_nanos > 0);
        assert!(req.payload_bytes > 50 * 1024);
    }
}
