//! The real networked deployment shape of the reproduction.
//!
//! The paper measures GDPR overheads with YCSB clients talking to Redis
//! over an actual network (including the Stunnel/TLS proxy configuration).
//! The `netsim` crate reproduces the *costs* of that data path in-process;
//! this crate provides the data path itself:
//!
//! * [`dispatch`] — the single RESP → engine command mapper, shared by the
//!   simulated server in `netsim` and the TCP server here, so the two
//!   front-ends cannot drift. It serves either the raw [`kvstore`] engine
//!   or the full [`gdpr_core`] compliance layer, including the `GDPR.*`
//!   wire surface (session auth, grants, metadata get/set, subject
//!   rights). Every command it accepts is declared once, in the
//!   private `commands` table: name, usage, arity, flags and metrics
//!   family.
//! * [`tcp`] — the RESP2 server facade over `std::net::TcpListener`:
//!   incremental decoding, pipelined requests, connection limits,
//!   read/write timeouts and graceful shutdown that drains in-flight
//!   requests, served by either of two transports.
//! * [`reactor`] — the default transport: N symmetric readiness-driven
//!   event loops (epoll via the `polling` shim), each
//!   owning its share of the connection sockets and running their
//!   requests to completion — thousands of idle connections without one
//!   thread each, and no hand-off between reading a request and
//!   answering it.
//! * [`stats`] — the one stats table `INFO`, `GDPR.STATS` and `/metrics`
//!   render: every exported counter named once.
//! * [`client`] — [`client::TcpRemoteClient`], a blocking client over one
//!   connection with explicit pipelining and the `GDPR.*` calls.
//!
//! The `gdpr-server` binary ties it together: `cargo run -p gdpr-server --
//! addr=127.0.0.1:6379 shards=4 compliance=1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod commands;
pub mod dispatch;
pub mod metrics;
pub mod metrics_http;
pub mod reactor;
pub mod replication;
pub mod stats;
pub mod tcp;

use std::error::Error;
use std::fmt;

/// Errors produced by the TCP server and its client.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The peer sent bytes that are not valid RESP.
    Protocol(resp::RespError),
    /// The server answered with a RESP error frame.
    Server(String),
    /// The connection closed before a complete reply arrived.
    Closed,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io error: {e}"),
            ServerError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServerError::Server(msg) => write!(f, "server error: {msg}"),
            ServerError::Closed => write!(f, "connection closed mid-reply"),
        }
    }
}

impl Error for ServerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Protocol(e) => Some(e),
            ServerError::Server(_) | ServerError::Closed => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<resp::RespError> for ServerError {
    fn from(e: resp::RespError) -> Self {
        ServerError::Protocol(e)
    }
}

/// Result alias for server/client operations.
pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let errs = vec![
            ServerError::Io(std::io::Error::other("x")),
            ServerError::Protocol(resp::RespError::Protocol("y".into())),
            ServerError::Server("ERR z".into()),
            ServerError::Closed,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(ServerError::Closed.source().is_none());
        assert!(ServerError::Io(std::io::Error::other("x"))
            .source()
            .is_some());
    }
}
