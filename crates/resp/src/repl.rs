//! The replication wire surface.
//!
//! A replica opens an ordinary RESP connection to its primary and sends
//! `REPLSYNC`. The primary answers with one [`ReplFrame::FullSync`] frame
//! (a portable snapshot blob plus the journal watermark it corresponds
//! to), then keeps the connection and *pushes* the journal stream:
//! [`ReplFrame::Record`] frames carrying `(sequence, engine command
//! bytes)` in order, and [`ReplFrame::Heartbeat`] frames whenever the
//! stream is idle so the replica can keep measuring its lag against the
//! primary's watermark. A primary that can no longer serve the replica's
//! cursor (backlog overrun, or a journal rewrite renumbered the stream)
//! sends a RESP error starting with [`REPLLOST`]; the replica reacts by
//! running a fresh `REPLSYNC`.
//!
//! Every frame is plain RESP2, so the stream survives any RESP-aware
//! middlebox and the replica can reuse the ordinary client decoder.

use crate::{Frame, RespError};

/// The wire command a replica sends to begin replication.
pub const REPLSYNC: &str = "REPLSYNC";

/// Error-reply prefix telling the replica its cursor is gone and it must
/// run a fresh full sync.
pub const REPLLOST: &str = "REPLLOST";

const FULLSYNC_TAG: &[u8] = b"FULLSYNC";
const RECORD_TAG: &[u8] = b"REPLREC";
const HEARTBEAT_TAG: &[u8] = b"REPLHB";

/// One frame of the primary → replica replication stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame {
    /// The full-sync payload opening every stream: apply `snapshot`, then
    /// tail from (`epoch`, `last_seq`).
    FullSync {
        /// Journal epoch the watermark belongs to.
        epoch: u64,
        /// Highest journal sequence number covered by the snapshot.
        last_seq: u64,
        /// Portable keyspace snapshot blob (`kvstore::snapshot` format,
        /// loadable at any shard count).
        snapshot: Vec<u8>,
    },
    /// One journal record: `seq` is the global sequence number, `record`
    /// the encoded engine command. `watermark` is the primary's highest
    /// allocated sequence as of the send — it rides on every record so
    /// the replica's lag gauge stays honest *while* a burst is applying
    /// (heartbeats alone queue behind the records in FIFO order and
    /// would only correct the lag after the burst drained).
    Record {
        /// Global journal sequence number of this record.
        seq: u64,
        /// The primary's highest allocated sequence at send time.
        watermark: u64,
        /// Encoded engine command bytes.
        record: Vec<u8>,
    },
    /// Idle-stream keepalive carrying the primary's current watermark.
    Heartbeat {
        /// Highest journal sequence number allocated on the primary.
        last_seq: u64,
    },
}

impl ReplFrame {
    /// Encode into the RESP frame that travels on the wire.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        match self {
            ReplFrame::FullSync {
                epoch,
                last_seq,
                snapshot,
            } => Frame::Array(vec![
                Frame::Bulk(FULLSYNC_TAG.to_vec()),
                Frame::Integer(*epoch as i64),
                Frame::Integer(*last_seq as i64),
                Frame::Bulk(snapshot.clone()),
            ]),
            ReplFrame::Record {
                seq,
                watermark,
                record,
            } => Frame::Array(vec![
                Frame::Bulk(RECORD_TAG.to_vec()),
                Frame::Integer(*seq as i64),
                Frame::Integer(*watermark as i64),
                Frame::Bulk(record.clone()),
            ]),
            ReplFrame::Heartbeat { last_seq } => Frame::Array(vec![
                Frame::Bulk(HEARTBEAT_TAG.to_vec()),
                Frame::Integer(*last_seq as i64),
            ]),
        }
    }

    /// Parse a frame received from the primary.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::Protocol`] for anything that is not a
    /// well-formed replication stream frame.
    pub fn from_frame(frame: &Frame) -> Result<Self, RespError> {
        let bad = |detail: &str| RespError::Protocol(format!("replication stream: {detail}"));
        let Frame::Array(items) = frame else {
            return Err(bad("expected an array frame"));
        };
        let tag = match items.first() {
            Some(Frame::Bulk(tag)) => tag.as_slice(),
            _ => return Err(bad("missing tag")),
        };
        let int = |i: usize, what: &str| -> Result<u64, RespError> {
            match items.get(i) {
                Some(Frame::Integer(v)) if *v >= 0 => Ok(*v as u64),
                _ => Err(bad(&format!("missing or negative {what}"))),
            }
        };
        let bulk = |i: usize, what: &str| -> Result<Vec<u8>, RespError> {
            match items.get(i) {
                Some(Frame::Bulk(bytes)) => Ok(bytes.clone()),
                _ => Err(bad(&format!("missing {what}"))),
            }
        };
        match tag {
            t if t == FULLSYNC_TAG => {
                if items.len() != 4 {
                    return Err(bad("FULLSYNC arity"));
                }
                Ok(ReplFrame::FullSync {
                    epoch: int(1, "epoch")?,
                    last_seq: int(2, "watermark")?,
                    snapshot: bulk(3, "snapshot blob")?,
                })
            }
            t if t == RECORD_TAG => {
                if items.len() != 4 {
                    return Err(bad("REPLREC arity"));
                }
                Ok(ReplFrame::Record {
                    seq: int(1, "sequence")?,
                    watermark: int(2, "watermark")?,
                    record: bulk(3, "record bytes")?,
                })
            }
            t if t == HEARTBEAT_TAG => {
                if items.len() != 2 {
                    return Err(bad("REPLHB arity"));
                }
                Ok(ReplFrame::Heartbeat {
                    last_seq: int(1, "watermark")?,
                })
            }
            other => Err(bad(&format!(
                "unknown tag {:?}",
                String::from_utf8_lossy(other)
            ))),
        }
    }
}

/// Whether a RESP error message is the stream-lost signal.
#[must_use]
pub fn is_repllost_error(message: &str) -> bool {
    message.starts_with(REPLLOST)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_frames_roundtrip() {
        for frame in [
            ReplFrame::FullSync {
                epoch: 3,
                last_seq: 999,
                snapshot: b"GDPRKV01...blob".to_vec(),
            },
            ReplFrame::Record {
                seq: 1_000,
                watermark: 1_024,
                record: b"\x00binary\r\ncommand".to_vec(),
            },
            ReplFrame::Heartbeat { last_seq: 1_000 },
        ] {
            let parsed = ReplFrame::from_frame(&frame.to_frame()).unwrap();
            assert_eq!(parsed, frame);
        }
    }

    #[test]
    fn malformed_stream_frames_are_rejected() {
        for frame in [
            Frame::Integer(1),
            Frame::Array(vec![]),
            Frame::Array(vec![Frame::Bulk(b"BOGUS".to_vec())]),
            Frame::Array(vec![Frame::Bulk(b"REPLREC".to_vec()), Frame::Integer(1)]),
            Frame::Array(vec![
                Frame::Bulk(b"REPLREC".to_vec()),
                Frame::Integer(-4),
                Frame::Integer(7),
                Frame::Bulk(Vec::new()),
            ]),
            Frame::Array(vec![
                Frame::Bulk(b"FULLSYNC".to_vec()),
                Frame::Integer(1),
                Frame::Integer(2),
            ]),
        ] {
            assert!(ReplFrame::from_frame(&frame).is_err(), "{frame:?}");
        }
    }

    #[test]
    fn replsync_detection_is_case_insensitive() {
        // The transports check each request they take off the decoder.
        let is_replsync = |frame: &Frame| {
            let mut decoder = crate::decode::Decoder::new();
            decoder.feed(&crate::encode::encode_frame(frame));
            decoder
                .next_request()
                .unwrap()
                .unwrap()
                .is_command(REPLSYNC)
        };
        assert!(is_replsync(&Frame::command(["replsync"])));
        assert!(is_replsync(&Frame::command(["REPLSYNC"])));
        assert!(!is_replsync(&Frame::command(["GET", "k"])));
        assert!(!is_replsync(&Frame::Integer(3)));
        // A frame the view does not take still counts by its first element.
        assert!(is_replsync(&Frame::Array(vec![
            Frame::bulk("ReplSync"),
            Frame::Integer(1)
        ])));
    }

    #[test]
    fn repllost_detection() {
        assert!(is_repllost_error("REPLLOST backlog overrun"));
        assert!(!is_repllost_error("ERR other"));
    }
}
