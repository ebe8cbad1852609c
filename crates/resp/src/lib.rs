//! RESP2 — the REdis Serialization Protocol.
//!
//! The paper measures the in-transit encryption overhead (Stunnel TLS
//! proxies in front of Redis) with YCSB clients talking to the server over
//! the network. This repository reproduces that data path with a real
//! TCP server (`crates/server`), and Figure 1 puts a sealed relay pair in
//! the proxies' place; this crate provides the wire format: [`Frame`] values, an incremental
//! [`decode::Decoder`] (owned frames, or commands as borrowed
//! [`command::CommandView`]s of its buffer), an [`encode`] module, and the
//! typed [`command::GdprRequest`] surface.
//!
//! # Example
//!
//! ```
//! use resp::{Frame, encode::encode_frame, decode::Decoder};
//!
//! let frame = Frame::Array(vec![
//!     Frame::Bulk(b"SET".to_vec()),
//!     Frame::Bulk(b"user:1".to_vec()),
//!     Frame::Bulk(b"alice".to_vec()),
//! ]);
//! let bytes = encode_frame(&frame);
//! let mut decoder = Decoder::new();
//! decoder.feed(&bytes);
//! assert_eq!(decoder.next_frame().unwrap(), Some(frame));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod command;
pub mod decode;
pub mod encode;
pub mod repl;

use std::error::Error;
use std::fmt;

/// A RESP2 protocol value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `+OK\r\n` — a simple (non-binary-safe) string.
    Simple(String),
    /// `-ERR ...\r\n` — an error string.
    Error(String),
    /// `:42\r\n` — a signed 64-bit integer.
    Integer(i64),
    /// `$5\r\nhello\r\n` — a binary-safe bulk string.
    Bulk(Vec<u8>),
    /// `$-1\r\n` — the RESP2 null bulk string.
    Null,
    /// `*N\r\n...` — an array of frames.
    Array(Vec<Frame>),
}

impl Frame {
    /// Build a bulk frame from anything byte-like.
    pub fn bulk(data: impl Into<Vec<u8>>) -> Self {
        Frame::Bulk(data.into())
    }

    /// Build a command array from string-ish parts.
    pub fn command<I, S>(parts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Vec<u8>>,
    {
        Frame::Array(parts.into_iter().map(|p| Frame::Bulk(p.into())).collect())
    }

    /// Approximate serialized size in bytes (the encoder sizes its buffer
    /// with it).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Simple(s) | Frame::Error(s) => s.len() + 3,
            Frame::Integer(_) => 16,
            Frame::Bulk(b) => b.len() + 16,
            Frame::Null => 5,
            Frame::Array(items) => 16 + items.iter().map(Frame::wire_len).sum::<usize>(),
        }
    }
}

/// Errors produced while decoding or interpreting RESP data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RespError {
    /// The input is not valid RESP (unknown type byte, bad integer, …).
    Protocol(String),
    /// A command array was structurally valid RESP but not a command we
    /// understand (unknown name or wrong arity).
    InvalidCommand(String),
}

impl fmt::Display for RespError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RespError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            RespError::InvalidCommand(msg) => write!(f, "invalid command: {msg}"),
        }
    }
}

impl Error for RespError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_constructors() {
        assert_eq!(Frame::bulk("abc"), Frame::Bulk(b"abc".to_vec()));
        let cmd = Frame::command(["GET", "k"]);
        assert_eq!(
            cmd,
            Frame::Array(vec![
                Frame::Bulk(b"GET".to_vec()),
                Frame::Bulk(b"k".to_vec())
            ])
        );
    }

    #[test]
    fn wire_len_is_positive_and_monotonic() {
        let small = Frame::bulk("ab").wire_len();
        let big = Frame::bulk(vec![0u8; 1000]).wire_len();
        assert!(big > small);
        assert!(Frame::Null.wire_len() > 0);
        assert!(Frame::command(["SET", "k", "v"]).wire_len() > Frame::bulk("SET").wire_len());
    }

    #[test]
    fn error_display() {
        assert!(!RespError::Protocol("x".into()).to_string().is_empty());
        assert!(!RespError::InvalidCommand("y".into()).to_string().is_empty());
    }
}
