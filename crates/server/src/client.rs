//! Blocking client side of the TCP data path.
//!
//! [`TcpRemoteClient`] is the real-socket sibling of
//! `netsim::client::RemoteClient`: one connection, RESP framing both ways,
//! explicit pipelining, and typed wrappers for the plain Redis commands
//! and the `GDPR.*` surface.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use resp::command::GdprRequest;
use resp::decode::Decoder;
use resp::encode::encode_into;
use resp::Frame;

use crate::{Result, ServerError};

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
