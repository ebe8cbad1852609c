//! Transport abstraction: one [`GdprBenchClient`] per connection, one
//! [`ClientFactory`] per store-under-test.
//!
//! Three implementations drive the exact same [`GdprOp`] stream:
//!
//! * [`InProcessFactory`] — straight calls on an [`Arc<GdprStore>`];
//! * [`NetsimFactory`] — RESP frames through the simulated network link
//!   into the shared dispatcher ([`netsim::server::RespKvServer`]);
//! * [`TcpFactory`] — RESP frames over a real socket to a live
//!   [`gdpr_server::tcp::TcpServer`] (either transport).
//!
//! Every implementation classifies results into the same [`Outcome`]
//! space, so a differential harness can compare runs op-by-op across
//! transports. Compliance refusals (`access denied`, purpose limitation,
//! location policy, missing auth) classify as [`Outcome::Denied`] whether
//! they arrive as a typed [`GdprError`] or as a `-ERR`/`-NOAUTH` wire
//! frame.

use std::net::SocketAddr;
use std::sync::Arc;

use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::store::{AccessContext, GdprStore};
use gdpr_core::GdprError;
use gdpr_server::client::TcpRemoteClient;
use netsim::client::RemoteClient;
use netsim::link::LinkConfig;
use netsim::server::RespKvServer;
use resp::command::GdprRequest;
use resp::Frame;

use crate::ops::{GdprOp, Outcome};
use crate::spec::Role;

/// One driving connection: applies ops, classifies outcomes.
pub trait GdprBenchClient {
    /// Execute `op` and classify its result.
    fn apply(&mut self, op: &GdprOp) -> Outcome;
}

/// Produces driving connections. Implementations authenticate each
/// connection for their configured actor/purpose before returning it.
pub trait ClientFactory: Sync {
    /// Open (and authenticate) one driving connection.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the transport cannot be
    /// established (socket refused, auth rejected).
    fn connect(&self) -> Result<Box<dyn GdprBenchClient + Send>, String>;
}

/// Classify a wire error message the way the in-process path classifies
/// typed [`GdprError`]s: the strings are produced by the dispatcher from
/// those same errors, so the two classifications agree by construction.
#[must_use]
pub fn classify_error_message(message: &str) -> Outcome {
    if message.starts_with("NOAUTH") {
        return Outcome::Denied;
    }
    let m = message.to_ascii_lowercase();
    if m.contains("access denied")
        || m.contains("is not permitted")
        || m.contains("violates the location policy")
    {
        Outcome::Denied
    } else {
        Outcome::Failed
    }
}

/// Classify a typed compliance error.
#[must_use]
pub fn classify_gdpr_error(error: &GdprError) -> Outcome {
    match error {
        GdprError::AccessDenied { .. }
        | GdprError::PurposeViolation { .. }
        | GdprError::LocationViolation { .. } => Outcome::Denied,
        _ => Outcome::Failed,
    }
}

/// Build the metadata a `Put`/`SetMeta` op carries — the exact
/// construction the wire dispatcher uses for `GDPR.PUT`/`GDPR.SETMETA`,
/// so in-process and wire runs stamp identical metadata.
fn metadata_for(subject: &str, purposes: &[String]) -> PersonalMetadata {
    let mut meta = PersonalMetadata::new(subject);
    for purpose in purposes {
        meta.purposes.insert(purpose.clone());
    }
    meta
}

// ---------------------------------------------------------------------------
// In-process

/// Factory for direct [`GdprStore`] calls under one actor/purpose.
#[derive(Debug, Clone)]
pub struct InProcessFactory {
    store: Arc<GdprStore>,
    actor: String,
    purpose: String,
}

impl InProcessFactory {
    /// Drive `store` as `actor` under `purpose` (a matching grant must be
    /// installed, e.g. via [`crate::spec::BenchSpec::grants`]).
    #[must_use]
    pub fn new(store: Arc<GdprStore>, actor: &str, purpose: &str) -> Self {
        InProcessFactory {
            store,
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        }
    }

    /// Factory authenticated for `role`.
    #[must_use]
    pub fn for_role(store: Arc<GdprStore>, role: Role) -> Self {
        Self::new(store, role.actor(), role.purpose())
    }

    /// Factory authenticated as the load-phase actor.
    #[must_use]
    pub fn for_load(store: Arc<GdprStore>) -> Self {
        Self::new(store, crate::spec::LOAD_ACTOR, crate::spec::LOAD_PURPOSE)
    }
}

impl ClientFactory for InProcessFactory {
    fn connect(&self) -> Result<Box<dyn GdprBenchClient + Send>, String> {
        Ok(Box::new(InProcessClient {
            store: Arc::clone(&self.store),
            ctx: AccessContext::new(&self.actor, &self.purpose),
        }))
    }
}

struct InProcessClient {
    store: Arc<GdprStore>,
    ctx: AccessContext,
}

impl GdprBenchClient for InProcessClient {
    fn apply(&mut self, op: &GdprOp) -> Outcome {
        let store = &self.store;
        let ctx = &self.ctx;
        let result: Result<u64, GdprError> = match op {
            GdprOp::Put {
                key,
                subject,
                purposes,
                value,
            } => store
                .put(ctx, key, value.clone(), metadata_for(subject, purposes))
                .map(|()| 1),
            GdprOp::Read { key } => store.get(ctx, key).map(|v| u64::from(v.is_some())),
            GdprOp::GetMeta { key } => store.metadata(ctx, key).map(|m| u64::from(m.is_some())),
            GdprOp::SetMeta {
                key,
                subject,
                purposes,
            } => store
                .set_metadata(ctx, key, metadata_for(subject, purposes))
                .map(|()| 1),
            GdprOp::KeysOf { subject } => {
                store.keys_of_subject(subject).map(|keys| keys.len() as u64)
            }
            GdprOp::Export { subject } => store
                .right_to_portability(ctx, subject)
                .map(|json| json.len() as u64),
            GdprOp::Erase { subject } => store
                .right_to_erasure(ctx, subject)
                .map(|report| report.erased_keys.len() as u64),
            GdprOp::Object { subject, purpose } => store
                .right_to_object(ctx, subject, purpose)
                .map(|report| report.updated_keys.len() as u64),
            GdprOp::Stats => {
                let _ = store.stats();
                Ok(0)
            }
        };
        match result {
            Ok(n) => Outcome::Ok(n),
            Err(e) => classify_gdpr_error(&e),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire mapping (shared by netsim and TCP)

/// The RESP frame an op travels as.
fn op_frame(op: &GdprOp) -> Frame {
    match op {
        GdprOp::Put {
            key,
            subject,
            purposes,
            value,
        } => GdprRequest::Put {
            key: key.clone(),
            subject: subject.clone(),
            purposes: purposes.clone(),
            value: value.clone(),
            ttl_ms: None,
        }
        .to_frame(),
        GdprOp::Read { key } => Frame::command(["GET", key]),
        GdprOp::GetMeta { key } => GdprRequest::GetMeta { key: key.clone() }.to_frame(),
        GdprOp::SetMeta {
            key,
            subject,
            purposes,
        } => GdprRequest::SetMeta {
            key: key.clone(),
            subject: subject.clone(),
            purposes: purposes.clone(),
            ttl_ms: None,
        }
        .to_frame(),
        GdprOp::KeysOf { subject } => GdprRequest::KeysOf {
            subject: subject.clone(),
        }
        .to_frame(),
        GdprOp::Export { subject } => GdprRequest::Export {
            subject: subject.clone(),
            cursor: None,
            count: None,
        }
        .to_frame(),
        GdprOp::Erase { subject } => GdprRequest::Erase {
            subject: subject.clone(),
        }
        .to_frame(),
        GdprOp::Object { subject, purpose } => GdprRequest::Object {
            subject: subject.clone(),
            purpose: purpose.clone(),
        }
        .to_frame(),
        GdprOp::Stats => GdprRequest::Stats.to_frame(),
    }
}

/// Classify a successful reply frame into the same summary values the
/// in-process client produces.
fn classify_reply(op: &GdprOp, reply: &Frame) -> Outcome {
    match (op, reply) {
        (GdprOp::Put { .. } | GdprOp::SetMeta { .. }, Frame::Simple(_)) => Outcome::Ok(1),
        (GdprOp::Read { .. }, Frame::Bulk(_)) => Outcome::Ok(1),
        (GdprOp::Read { .. } | GdprOp::GetMeta { .. }, Frame::Null) => Outcome::Ok(0),
        (GdprOp::GetMeta { .. }, Frame::Array(_)) => Outcome::Ok(1),
        (GdprOp::KeysOf { .. }, Frame::Array(items)) => Outcome::Ok(items.len() as u64),
        (GdprOp::Export { .. }, Frame::Bulk(json)) => Outcome::Ok(json.len() as u64),
        (GdprOp::Erase { .. } | GdprOp::Object { .. }, Frame::Integer(n)) => {
            Outcome::Ok((*n).max(0) as u64)
        }
        (GdprOp::Stats, Frame::Array(_)) => Outcome::Ok(0),
        _ => Outcome::Failed,
    }
}

/// One wire round trip, normalised: `Ok(frame)` for replies, `Err(msg)`
/// for server error frames, `Err("transport: …")` otherwise.
fn wire_apply<F>(op: &GdprOp, mut roundtrip: F) -> Outcome
where
    F: FnMut(&Frame) -> Result<Frame, WireFailure>,
{
    match roundtrip(&op_frame(op)) {
        Ok(reply) => classify_reply(op, &reply),
        Err(WireFailure::Server(message)) => classify_error_message(&message),
        Err(WireFailure::Transport) => Outcome::Failed,
    }
}

/// A wire-level failure, reduced to what outcome classification needs.
enum WireFailure {
    /// The server answered with a RESP error frame.
    Server(String),
    /// The transport itself failed (socket, protocol, crypto).
    Transport,
}

// ---------------------------------------------------------------------------
// Netsim (simulated network)

/// Factory for connections through the in-process simulated network. Each
/// connection owns a [`RemoteClient`] onto a clone of the shared server
/// (the netsim server models a single logical session, so all clones
/// share session state — re-authentication on connect keeps the last
/// factory's role active, which is exactly right for the sequential
/// phases the differential battery drives).
pub struct NetsimFactory {
    server: RespKvServer,
    link: LinkConfig,
    secret: Option<Vec<u8>>,
    actor: String,
    purpose: String,
}

impl NetsimFactory {
    /// Plaintext-link factory for `role` against `server`.
    #[must_use]
    pub fn new(server: RespKvServer, link: LinkConfig, actor: &str, purpose: &str) -> Self {
        NetsimFactory {
            server,
            link,
            secret: None,
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        }
    }

    /// Factory authenticated for `role`.
    #[must_use]
    pub fn for_role(server: RespKvServer, link: LinkConfig, role: Role) -> Self {
        Self::new(server, link, role.actor(), role.purpose())
    }

    /// Factory authenticated as the load-phase actor.
    #[must_use]
    pub fn for_load(server: RespKvServer, link: LinkConfig) -> Self {
        Self::new(
            server,
            link,
            crate::spec::LOAD_ACTOR,
            crate::spec::LOAD_PURPOSE,
        )
    }

    /// Builder-style: route through the TLS-simulation channel.
    #[must_use]
    pub fn secure(mut self, shared_secret: &[u8]) -> Self {
        self.secret = Some(shared_secret.to_vec());
        self
    }
}

impl ClientFactory for NetsimFactory {
    fn connect(&self) -> Result<Box<dyn GdprBenchClient + Send>, String> {
        let mut inner = match &self.secret {
            Some(secret) => RemoteClient::connect_secure(self.server.clone(), self.link, secret),
            None => RemoteClient::connect_plain(self.server.clone(), self.link),
        };
        let auth = GdprRequest::Auth {
            actor: self.actor.clone(),
            purpose: self.purpose.clone(),
        };
        inner
            .roundtrip(&auth.to_frame())
            .map_err(|e| format!("netsim auth failed: {e}"))?;
        Ok(Box::new(NetsimClient { inner }))
    }
}

struct NetsimClient {
    inner: RemoteClient,
}

impl GdprBenchClient for NetsimClient {
    fn apply(&mut self, op: &GdprOp) -> Outcome {
        let inner = &mut self.inner;
        wire_apply(op, |frame| {
            inner.roundtrip(frame).map_err(|e| match e {
                netsim::NetError::Server(message) => WireFailure::Server(message),
                _ => WireFailure::Transport,
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Live TCP

/// Factory for real socket connections to a running TCP server. Each
/// `connect` opens a new connection, authenticated on connect.
#[derive(Debug, Clone)]
pub struct TcpFactory {
    addr: SocketAddr,
    actor: String,
    purpose: String,
}

impl TcpFactory {
    /// Factory for `actor`/`purpose` against the server at `addr`.
    #[must_use]
    pub fn new(addr: SocketAddr, actor: &str, purpose: &str) -> Self {
        TcpFactory {
            addr,
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        }
    }

    /// Factory authenticated for `role`.
    #[must_use]
    pub fn for_role(addr: SocketAddr, role: Role) -> Self {
        Self::new(addr, role.actor(), role.purpose())
    }

    /// Factory authenticated as the load-phase actor.
    #[must_use]
    pub fn for_load(addr: SocketAddr) -> Self {
        Self::new(addr, crate::spec::LOAD_ACTOR, crate::spec::LOAD_PURPOSE)
    }
}

impl ClientFactory for TcpFactory {
    fn connect(&self) -> Result<Box<dyn GdprBenchClient + Send>, String> {
        let mut inner = TcpRemoteClient::connect(self.addr)
            .map_err(|e| format!("tcp connect to {} failed: {e}", self.addr))?;
        inner
            .auth(&self.actor, &self.purpose)
            .map_err(|e| format!("tcp auth failed: {e}"))?;
        Ok(Box::new(TcpClient { inner }))
    }
}

struct TcpClient {
    inner: TcpRemoteClient,
}

impl GdprBenchClient for TcpClient {
    fn apply(&mut self, op: &GdprOp) -> Outcome {
        let inner = &mut self.inner;
        wire_apply(op, |frame| {
            inner.roundtrip(frame).map_err(|e| match e {
                gdpr_server::ServerError::Server(message) => WireFailure::Server(message),
                _ => WireFailure::Transport,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_message_classification_matches_typed_classification() {
        // The dispatcher renders typed errors as `ERR {Display}`; both
        // classifiers must agree on every compliance-refusal variant.
        let denied = GdprError::AccessDenied {
            actor: "a".into(),
            purpose: "p".into(),
            reason: "no grant".into(),
        };
        assert_eq!(classify_gdpr_error(&denied), Outcome::Denied);
        assert_eq!(
            classify_error_message(&format!("ERR {denied}")),
            Outcome::Denied
        );
        let purpose = GdprError::PurposeViolation {
            key: "k".into(),
            purpose: "marketing".into(),
        };
        assert_eq!(classify_gdpr_error(&purpose), Outcome::Denied);
        assert_eq!(
            classify_error_message(&format!("ERR {purpose}")),
            Outcome::Denied
        );
        let location = GdprError::LocationViolation {
            region: "apac".into(),
        };
        assert_eq!(classify_gdpr_error(&location), Outcome::Denied);
        assert_eq!(
            classify_error_message(&format!("ERR {location}")),
            Outcome::Denied
        );
        let missing = GdprError::NoSuchKey { key: "k".into() };
        assert_eq!(classify_gdpr_error(&missing), Outcome::Failed);
        assert_eq!(
            classify_error_message(&format!("ERR {missing}")),
            Outcome::Failed
        );
        assert_eq!(
            classify_error_message("NOAUTH authenticate with GDPR.AUTH actor purpose first"),
            Outcome::Denied
        );
    }

    #[test]
    fn reply_classification_covers_the_wire_surface() {
        let keysof = GdprOp::KeysOf {
            subject: "s".into(),
        };
        let reply = Frame::Array(vec![
            Frame::Bulk(b"k1".to_vec()),
            Frame::Bulk(b"k2".to_vec()),
        ]);
        assert_eq!(classify_reply(&keysof, &reply), Outcome::Ok(2));
        let read = GdprOp::Read { key: "k".into() };
        assert_eq!(
            classify_reply(&read, &Frame::Bulk(b"v".to_vec())),
            Outcome::Ok(1)
        );
        assert_eq!(classify_reply(&read, &Frame::Null), Outcome::Ok(0));
        let erase = GdprOp::Erase {
            subject: "s".into(),
        };
        assert_eq!(classify_reply(&erase, &Frame::Integer(3)), Outcome::Ok(3));
        let export = GdprOp::Export {
            subject: "s".into(),
        };
        assert_eq!(
            classify_reply(&export, &Frame::Bulk(vec![b'x'; 40])),
            Outcome::Ok(40)
        );
        // A shape mismatch is a failure, never a silent success.
        assert_eq!(classify_reply(&erase, &Frame::Null), Outcome::Failed);
    }
}
