//! Blocking client side of the TCP data path.
//!
//! [`TcpRemoteClient`] is the real-socket sibling of
//! `netsim::client::RemoteClient`: one connection, RESPframing both ways,
//! explicit pipelining. [`TcpRemoteAdapter`] lifts it to
//! [`SharedKvInterface`] over a pool of connections, so
//! [`ycsb::concurrent::ConcurrentDriver`] can drive a live server from
//! many client threads — the deployment shape the paper's YCSB + Redis
//! (+ Stunnel) measurements used.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use kvstore::object::Value;
use kvstore::serialize::{decode_value, encode_value, Reader};
use parking_lot::Mutex;
use resp::command::GdprRequest;
use resp::decode::Decoder;
use resp::encode::encode_into;
use resp::Frame;
use ycsb::concurrent::SharedKvInterface;
use ycsb::WorkloadError;

use crate::{Result, ServerError};

/// Serialize a YCSB field map into the single opaque blob that travels as
/// a `SET` value (shared with the simulated path via `bench::adapters`).
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

/// A blocking RESP2 client over one TCP connection.
#[derive(Debug)]
pub struct TcpRemoteClient {
    stream: TcpStream,
    decoder: Decoder,
    requests: u64,
}

impl TcpRemoteClient {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpRemoteClient {
            stream,
            decoder: Decoder::new(),
            requests: 0,
        })
    }

    /// Connect with a timeout on both the connection attempt and later
    /// reads (a hung server then surfaces as an error instead of blocking
    /// the caller forever).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Self> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(TcpRemoteClient {
            stream,
            decoder: Decoder::new(),
            requests: 0,
        })
    }

    /// Number of requests sent so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Send a batch of frames without waiting for replies (explicit
    /// pipelining; pair with [`Self::read_replies`]).
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn send_batch(&mut self, frames: &[Frame]) -> Result<()> {
        let mut out = Vec::new();
        for frame in frames {
            encode_into(frame, &mut out);
        }
        self.requests += frames.len() as u64;
        self.stream.write_all(&out)?;
        Ok(())
    }

    /// Read exactly `count` reply frames.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Closed`] if the connection ends early and
    /// protocol errors for malformed replies. Error *frames* are returned
    /// as values (a pipelined batch can mix successes and errors).
    pub fn read_replies(&mut self, count: usize) -> Result<Vec<Frame>> {
        let mut replies = Vec::with_capacity(count);
        let mut buf = [0u8; 16 * 1024];
        while replies.len() < count {
            while replies.len() < count {
                match self.decoder.next_frame()? {
                    Some(frame) => replies.push(frame),
                    None => break,
                }
            }
            if replies.len() == count {
                break;
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ServerError::Closed);
            }
            self.decoder.feed(&buf[..n]);
        }
        Ok(replies)
    }

    /// Send a pipelined batch and collect all replies in order. A RESP
    /// error frame is returned in place, not raised.
    ///
    /// # Errors
    ///
    /// Returns transport and protocol errors.
    pub fn pipeline(&mut self, frames: &[Frame]) -> Result<Vec<Frame>> {
        self.send_batch(frames)?;
        self.read_replies(frames.len())
    }

    /// One request/reply round trip. A RESP error frame from the server is
    /// raised as [`ServerError::Server`].
    ///
    /// # Errors
    ///
    /// Returns transport, protocol and server errors.
    pub fn roundtrip(&mut self, request: &Frame) -> Result<Frame> {
        self.send_batch(std::slice::from_ref(request))?;
        let reply = self.read_replies(1)?.pop().ok_or(ServerError::Closed)?;
        match reply {
            Frame::Error(message) => Err(ServerError::Server(message)),
            other => Ok(other),
        }
    }

    // ---- plain Redis convenience wrappers --------------------------------

    /// `PING`.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn ping(&mut self) -> Result<()> {
        self.roundtrip(&Frame::command(["PING"])).map(|_| ())
    }

    /// `SET key value`.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn set(&mut self, key: &str, value: &[u8]) -> Result<()> {
        self.roundtrip(&Frame::command([
            b"SET".to_vec(),
            key.as_bytes().to_vec(),
            value.to_vec(),
        ]))
        .map(|_| ())
    }

    /// `GET key`.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(match self.roundtrip(&Frame::command(["GET", key]))? {
            Frame::Bulk(b) => Some(b),
            _ => None,
        })
    }

    /// `DEL key`; returns whether the key existed.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn delete(&mut self, key: &str) -> Result<bool> {
        Ok(matches!(
            self.roundtrip(&Frame::command(["DEL", key]))?,
            Frame::Integer(1)
        ))
    }

    /// `SCAN start count`; returns the matching keys.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn scan(&mut self, start: &str, count: usize) -> Result<Vec<String>> {
        match self.roundtrip(&Frame::command([
            "SCAN".to_string(),
            start.to_string(),
            count.to_string(),
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

    /// `TICK` — run the server engine's background duty cycle; returns how
    /// many keys the expiry cycle removed.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn tick(&mut self) -> Result<u64> {
        match self.roundtrip(&Frame::command(["TICK"]))? {
            Frame::Integer(n) => Ok(n.max(0) as u64),
            _ => Ok(0),
        }
    }

    /// `SHUTDOWN` — ask the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.roundtrip(&Frame::command(["SHUTDOWN"])).map(|_| ())
    }

    // ---- GDPR surface ----------------------------------------------------

    /// Send one [`GdprRequest`] and return the raw reply frame.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn gdpr(&mut self, request: &GdprRequest) -> Result<Frame> {
        self.roundtrip(&request.to_frame())
    }

    /// `GDPR.AUTH actor purpose` — bind this connection to an access
    /// context.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn auth(&mut self, actor: &str, purpose: &str) -> Result<()> {
        self.gdpr(&GdprRequest::Auth {
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        })
        .map(|_| ())
    }

    /// `GDPR.KEYSOF subject` — the subject's keys per the metadata index.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn keys_of_subject(&mut self, subject: &str) -> Result<Vec<String>> {
        match self.gdpr(&GdprRequest::KeysOf {
            subject: subject.to_string(),
        })? {
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

    /// `GDPR.ERASE subject` — returns how many keys were erased.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn erase_subject(&mut self, subject: &str) -> Result<u64> {
        match self.gdpr(&GdprRequest::Erase {
            subject: subject.to_string(),
        })? {
            Frame::Integer(n) => Ok(n.max(0) as u64),
            _ => Ok(0),
        }
    }

    /// `GDPR.EXPORT subject` — the Article 20 JSON export.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`].
    pub fn export_subject(&mut self, subject: &str) -> Result<String> {
        match self.gdpr(&GdprRequest::Export {
            subject: subject.to_string(),
            cursor: None,
            count: None,
        })? {
            Frame::Bulk(json) => Ok(String::from_utf8_lossy(&json).into_owned()),
            other => Err(ServerError::Server(format!(
                "unexpected export reply {other:?}"
            ))),
        }
    }

    /// `GDPR.EXPORT subject CURSOR cursor [COUNT n]` — one page of the
    /// Article 20 export. Returns `(next_cursor, chunk)`; pass `"0"` as
    /// `cursor` for the first page and keep calling with the returned
    /// cursor until it is `"0"` again.
    ///
    /// # Errors
    ///
    /// As for [`Self::roundtrip`], plus a server error for an unexpected
    /// reply shape.
    pub fn export_subject_page(
        &mut self,
        subject: &str,
        cursor: &str,
        count: Option<u64>,
    ) -> Result<(String, String)> {
        match self.gdpr(&GdprRequest::Export {
            subject: subject.to_string(),
            cursor: Some(cursor.to_string()),
            count,
        })? {
            Frame::Array(items) => match <[Frame; 2]>::try_from(items) {
                Ok([Frame::Bulk(next), Frame::Bulk(chunk)]) => Ok((
                    String::from_utf8_lossy(&next).into_owned(),
                    String::from_utf8_lossy(&chunk).into_owned(),
                )),
                other => Err(ServerError::Server(format!(
                    "unexpected export page reply {other:?}"
                ))),
            },
            other => Err(ServerError::Server(format!(
                "unexpected export page reply {other:?}"
            ))),
        }
    }

    /// Drive a paged export to completion, concatenating every chunk —
    /// the result is byte-identical to [`Self::export_subject`] on a
    /// quiescent subject.
    ///
    /// # Errors
    ///
    /// As for [`Self::export_subject_page`].
    pub fn export_subject_paged(&mut self, subject: &str, count: u64) -> Result<String> {
        let mut out = String::new();
        let mut cursor = "0".to_string();
        loop {
            let (next, chunk) = self.export_subject_page(subject, &cursor, Some(count))?;
            out.push_str(&chunk);
            if next == "0" {
                return Ok(out);
            }
            cursor = next;
        }
    }
}

/// How a [`TcpRemoteAdapter`] authenticates the connections it opens.
#[derive(Debug, Clone)]
pub struct AdapterAuth {
    /// Actor presented in `GDPR.AUTH`.
    pub actor: String,
    /// Purpose presented in `GDPR.AUTH`.
    pub purpose: String,
}

/// [`SharedKvInterface`] over a pool of real TCP connections.
///
/// Each driver thread borrows a pooled connection per operation (creating
/// one on first use), so M client threads fan out over up to M sockets —
/// the same shape as M YCSB client threads against a live Redis.
#[derive(Debug)]
pub struct TcpRemoteAdapter {
    addr: SocketAddr,
    auth: Option<AdapterAuth>,
    connect_timeout: Duration,
    pool: Mutex<Vec<TcpRemoteClient>>,
}

impl TcpRemoteAdapter {
    /// Create an adapter for a plain (raw-engine) server.
    ///
    /// # Errors
    ///
    /// Returns address-resolution errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ServerError::Server("address resolves to nothing".to_string()))?;
        Ok(TcpRemoteAdapter {
            addr,
            auth: None,
            connect_timeout: Duration::from_secs(5),
            pool: Mutex::new(Vec::new()),
        })
    }

    /// Builder-style: authenticate every pooled connection with
    /// `GDPR.AUTH actor purpose` (required against a compliance server).
    #[must_use]
    pub fn with_auth(mut self, actor: &str, purpose: &str) -> Self {
        self.auth = Some(AdapterAuth {
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        });
        self
    }

    /// The server address the adapter drives.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of idle pooled connections.
    #[must_use]
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().len()
    }

    fn checkout(&self) -> Result<TcpRemoteClient> {
        if let Some(client) = self.pool.lock().pop() {
            return Ok(client);
        }
        let mut client = TcpRemoteClient::connect_timeout(&self.addr, self.connect_timeout)?;
        if let Some(auth) = &self.auth {
            client.auth(&auth.actor, &auth.purpose)?;
        }
        Ok(client)
    }

    /// Run `f` on a pooled connection. The connection returns to the pool
    /// on success and on clean RESP error replies (the stream stays in
    /// sync — one reply per request); it is discarded only on transport
    /// or protocol errors, where the stream offset is suspect.
    fn with_conn<R>(&self, f: impl FnOnce(&mut TcpRemoteClient) -> Result<R>) -> Result<R> {
        let mut client = self.checkout()?;
        let result = f(&mut client);
        if matches!(&result, Ok(_) | Err(ServerError::Server(_))) {
            self.pool.lock().push(client);
        }
        result
    }
}

fn to_workload_error(e: ServerError) -> WorkloadError {
    WorkloadError::new(e)
}

impl SharedKvInterface for TcpRemoteAdapter {
    fn insert(&self, key: &str, fields: &BTreeMap<String, Vec<u8>>) -> ycsb::Result<()> {
        self.with_conn(|c| c.set(key, &encode_fields(fields)))
            .map_err(to_workload_error)
    }

    fn read(&self, key: &str) -> ycsb::Result<Option<BTreeMap<String, Vec<u8>>>> {
        let bytes = self.with_conn(|c| c.get(key)).map_err(to_workload_error)?;
        Ok(bytes.as_deref().and_then(decode_fields))
    }

    fn update(&self, key: &str, fields: &BTreeMap<String, Vec<u8>>) -> ycsb::Result<()> {
        // The single-blob encoding forces the same read-merge-write the
        // simulated remote adapter performs.
        self.with_conn(|c| {
            let mut merged = c
                .get(key)?
                .as_deref()
                .and_then(decode_fields)
                .unwrap_or_default();
            for (f, v) in fields {
                merged.insert(f.clone(), v.clone());
            }
            c.set(key, &encode_fields(&merged))
        })
        .map_err(to_workload_error)
    }

    fn scan(&self, start_key: &str, count: usize) -> ycsb::Result<Vec<String>> {
        self.with_conn(|c| c.scan(start_key, count))
            .map_err(to_workload_error)
    }

    fn tick(&self) -> ycsb::Result<()> {
        self.with_conn(|c| c.tick().map(|_| ()))
            .map_err(to_workload_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Dispatcher;
    use crate::tcp::{ServerConfig, TcpServer};
    use gdpr_core::acl::Grant;
    use gdpr_core::policy::CompliancePolicy;
    use gdpr_core::store::GdprStore;
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;
    use std::sync::Arc;

    fn fields() -> BTreeMap<String, Vec<u8>> {
        let mut f = BTreeMap::new();
        f.insert("field0".to_string(), b"v0".to_vec());
        f.insert("field1".to_string(), b"v1".to_vec());
        f
    }

    #[test]
    fn field_blob_roundtrip() {
        let f = fields();
        assert_eq!(decode_fields(&encode_fields(&f)).unwrap(), f);
        assert!(decode_fields(b"garbage").is_none());
    }

    #[test]
    fn adapter_drives_a_raw_engine_server() {
        let server = TcpServer::bind(
            Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).unwrap()),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let adapter = TcpRemoteAdapter::connect(server.local_addr()).unwrap();
        adapter.insert("user1", &fields()).unwrap();
        assert_eq!(adapter.read("user1").unwrap().unwrap().len(), 2);
        let mut update = BTreeMap::new();
        update.insert("field0".to_string(), b"new".to_vec());
        adapter.update("user1", &update).unwrap();
        assert_eq!(
            adapter.read("user1").unwrap().unwrap()["field0"],
            b"new".to_vec()
        );
        assert_eq!(adapter.scan("user", 10).unwrap(), vec!["user1"]);
        adapter.tick().unwrap();
        assert!(adapter.pooled_connections() >= 1);
        server.shutdown();
    }

    #[test]
    fn adapter_authenticates_against_a_compliance_server() {
        let store = Arc::new(GdprStore::open_in_memory(CompliancePolicy::eventual()).unwrap());
        store.grant(Grant::new("ycsb", "benchmarking"));
        let server = TcpServer::bind(
            Dispatcher::gdpr(Arc::clone(&store)),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let adapter = TcpRemoteAdapter::connect(server.local_addr())
            .unwrap()
            .with_auth("ycsb", "benchmarking");
        adapter.insert("user1", &fields()).unwrap();
        assert_eq!(adapter.read("user1").unwrap().unwrap().len(), 2);
        // Compliance really ran: the key is indexed under its subject.
        assert_eq!(store.keys_of_subject("user1").unwrap(), vec!["user1"]);
        // Without auth, operations are refused — and the clean RESP error
        // keeps the (still in-sync) connection in the pool rather than
        // forcing a reconnect per denial.
        let unauthenticated = TcpRemoteAdapter::connect(server.local_addr()).unwrap();
        assert!(unauthenticated.insert("user2", &fields()).is_err());
        assert_eq!(unauthenticated.pooled_connections(), 1);
        server.shutdown();
    }
}
