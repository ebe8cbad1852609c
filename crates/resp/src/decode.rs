//! Incremental RESP2 decoding.
//!
//! [`Decoder`] accumulates bytes as they arrive from a transport and yields
//! each frame as soon as its last byte is in — the shape a streaming
//! network server needs, and the reason the decoder keeps its own buffer
//! rather than requiring the whole message up front. Two ways out:
//!
//! * [`Decoder::next_frame`] decodes the next frame into an owned
//!   [`Frame`] (clients, the simulated server, tests);
//! * [`Decoder::next_request`] is the server's: a command — an array of
//!   bulk (or simple) strings — comes back as a [`CommandView`] of byte
//!   slices inside the decoder's buffer, with nothing allocated or copied;
//!   any other shape comes back as its owned [`Frame`].
//!
//! Bytes a caller has taken leave the buffer in one compaction at the
//! next [`Decoder::feed`], not one memmove per frame. A frame that arrives
//! in pieces is scanned once: every attempt resumes at the element, and
//! every line scan at the byte, where the last one stopped, and nothing
//! of a frame is allocated before its last byte has arrived and checked.

use crate::command::CommandView;
use crate::{Frame, RespError};

/// Result alias for decoding operations.
pub type Result<T> = std::result::Result<T, RespError>;

/// Default cap on the size of a single frame accepted by [`Decoder`]
/// (64 MiB). A remote peer must not be able to make the server buffer
/// unboundedly by declaring a huge bulk length or never finishing a line.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Arrays nest at most this deep in one frame. Requests never nest and
/// replies nest two levels; the cap keeps a frame of `*1\r\n*1\r\n…` from
/// recursing the builder off its stack.
pub const MAX_NESTING: usize = 64;

/// What [`Decoder::next_request`] yields.
#[derive(Debug)]
pub enum Request<'a> {
    /// A non-empty array of bulk (or valid UTF-8 simple) strings: the
    /// command's name and arguments, borrowed from the decoder's buffer.
    Command(CommandView<'a>),
    /// Every other complete frame (a nested array, an integer or null
    /// element, `*0`, a non-array frame), decoded as [`Decoder::next_frame`]
    /// would decode it.
    Frame(Frame),
}

impl Request<'_> {
    /// Whether this is the command `name`, compared ASCII
    /// case-insensitively: what a transport checks to intercept
    /// `SHUTDOWN` and `REPLSYNC`. A frame the view does not take counts
    /// when it is an array whose first element is a bulk string `name`.
    #[must_use]
    pub fn is_command(&self, name: &str) -> bool {
        match self {
            Request::Command(cmd) => cmd.name().eq_ignore_ascii_case(name.as_bytes()),
            Request::Frame(Frame::Array(items)) => matches!(
                items.first(),
                Some(Frame::Bulk(first)) if first.eq_ignore_ascii_case(name.as_bytes())
            ),
            Request::Frame(_) => false,
        }
    }
}

/// One element of the frame being scanned: where it lies, as offsets from
/// the frame's first byte, or its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// `+…`: the line's bytes.
    Simple(usize, usize),
    /// `-…`: the line's bytes.
    Error(usize, usize),
    /// `$n`: the payload's bytes.
    Bulk(usize, usize),
    /// `:n`.
    Integer(i64),
    /// `$-1` or `*-1`.
    Null,
    /// A nested array, built from the frame's bytes.
    Array,
}

/// How far the frame at the front of the buffer has been checked. The
/// offsets count from the frame's first byte, so a compaction that moves
/// the frame to the buffer's front leaves them valid.
#[derive(Debug, Default)]
struct Scan {
    /// Offset of the next item to read.
    pos: usize,
    /// Where the search for the CRLF ending the line at `pos` resumes.
    line_from: usize,
    /// Elements still owed by each open array, outermost first.
    open: Vec<usize>,
    /// The frame's top-level parts: the frame itself when it is not an
    /// array, else the array's elements.
    parts: Vec<Part>,
    /// The frame is an array.
    array: bool,
    /// Some element of the array is an array itself.
    nested: bool,
}

impl Scan {
    /// Check the frame in `data` (which starts at the frame's first byte)
    /// from where the last call stopped, to its end if it is all there.
    /// Returns the frame's length once it is complete.
    fn advance(&mut self, data: &[u8], limit: usize) -> Result<Option<usize>> {
        if self.pos == 0 {
            // A new frame: forget the one before it.
            self.parts.clear();
            self.array = false;
            self.nested = false;
        }
        loop {
            let pos = self.pos;
            let Some(&tag) = data.get(pos) else {
                return Ok(None);
            };
            let Some(cr) = find_crlf(data, self.line_from.max(pos + 1)) else {
                // A CR at the very end may pair with the next byte.
                self.line_from = data.len().saturating_sub(1).max(pos + 1);
                return Ok(None);
            };
            // A bulk whose payload is still arriving re-reads its header
            // from here, without rescanning the line.
            self.line_from = cr;
            let line = &data[pos + 1..cr];
            let mut next = cr + 2;
            let depth = self.open.len();
            let part = match tag {
                b'+' => Part::Simple(pos + 1, cr),
                b'-' => Part::Error(pos + 1, cr),
                b':' => Part::Integer(parse_int(line)?),
                b'$' => match usize::try_from(parse_int(line)?) {
                    Err(_) => Part::Null,
                    Ok(len) => {
                        if len > limit {
                            return Err(RespError::Protocol(format!(
                                "bulk string of {len} bytes exceeds the {limit} byte limit"
                            )));
                        }
                        if data.len() - next < len.saturating_add(2) {
                            return Ok(None);
                        }
                        if &data[next + len..next + len + 2] != b"\r\n" {
                            return Err(RespError::Protocol(
                                "bulk string missing terminator".to_string(),
                            ));
                        }
                        next += len + 2;
                        Part::Bulk(cr + 2, cr + 2 + len)
                    }
                },
                b'*' => match usize::try_from(parse_int(line)?) {
                    Err(_) => Part::Null,
                    Ok(count) => {
                        // Every element needs at least MIN_FRAME_BYTES on
                        // the wire, so a count this large can never fit
                        // inside the frame limit.
                        if count > limit / MIN_FRAME_BYTES {
                            return Err(RespError::Protocol(format!(
                                "array of {count} elements exceeds the {limit} byte limit"
                            )));
                        }
                        if depth >= MAX_NESTING {
                            return Err(RespError::Protocol(format!(
                                "arrays nested more than {MAX_NESTING} deep"
                            )));
                        }
                        if depth == 0 {
                            self.array = true;
                            // Reserve no more than the buffered bytes
                            // could hold: a huge declared count on a short
                            // buffer reserves nothing unbounded.
                            let plausible = (data.len() - next) / MIN_FRAME_BYTES;
                            self.parts.reserve(count.min(plausible));
                        } else {
                            self.nested = true;
                        }
                        if count > 0 {
                            if depth == 1 {
                                self.parts.push(Part::Array);
                            }
                            self.open.push(count);
                            self.pos = next;
                            self.line_from = next;
                            continue;
                        }
                        Part::Array
                    }
                },
                other => {
                    return Err(RespError::Protocol(format!(
                        "unknown type byte 0x{other:02x}"
                    )))
                }
            };
            let keep = match depth {
                0 => !self.array,
                1 => true,
                _ => false,
            };
            if keep {
                self.parts.push(part);
            }
            self.pos = next;
            self.line_from = next;
            // The item completes its array when it was the last one owed,
            // and that array may complete the one around it.
            loop {
                match self.open.last_mut() {
                    None => return Ok(Some(next)),
                    Some(owed) => {
                        *owed -= 1;
                        if *owed > 0 {
                            break;
                        }
                        self.open.pop();
                    }
                }
            }
        }
    }

    /// The next frame starts afresh; `parts` stays readable until then.
    fn finish(&mut self) {
        self.pos = 0;
        self.line_from = 0;
    }

    /// The scanned frame is a command the view takes: a non-empty array
    /// of bulk strings and simple strings that are valid UTF-8.
    fn is_command(&self, frame: &[u8]) -> bool {
        self.array
            && !self.nested
            && !self.parts.is_empty()
            && self.parts.iter().all(|part| match *part {
                Part::Bulk(..) => true,
                Part::Simple(start, end) => std::str::from_utf8(&frame[start..end]).is_ok(),
                _ => false,
            })
    }

    /// Build the owned frame of the complete, checked `frame`.
    fn build(&self, frame: &[u8]) -> Result<Frame> {
        if self.nested {
            // Nested arrays (replies such as `SLOWLOG GET`) are rare; the
            // recursive parser builds them, depth-capped by the scan.
            let mut pos = 0;
            return parse_frame(frame, &mut pos)?
                .ok_or_else(|| RespError::Protocol("nested frame ended early".to_string()));
        }
        let part = |part: &Part| match *part {
            Part::Simple(start, end) => {
                Frame::Simple(String::from_utf8_lossy(&frame[start..end]).into_owned())
            }
            Part::Error(start, end) => {
                Frame::Error(String::from_utf8_lossy(&frame[start..end]).into_owned())
            }
            Part::Bulk(start, end) => Frame::Bulk(frame[start..end].to_vec()),
            Part::Integer(value) => Frame::Integer(value),
            Part::Null => Frame::Null,
            Part::Array => Frame::Array(Vec::new()),
        };
        if self.array {
            Ok(Frame::Array(self.parts.iter().map(part).collect()))
        } else {
            Ok(part(&self.parts[0]))
        }
    }
}

/// An incremental frame decoder.
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes before `start` belong to frames already handed out; the next
    /// [`Decoder::feed`] drops them.
    start: usize,
    max_frame_bytes: usize,
    scan: Scan,
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

impl Decoder {
    /// Create an empty decoder with the default frame-size limit
    /// ([`DEFAULT_MAX_FRAME_BYTES`]).
    #[must_use]
    pub fn new() -> Self {
        Decoder::with_max_frame_bytes(DEFAULT_MAX_FRAME_BYTES)
    }

    /// Create an empty decoder that rejects frames larger than
    /// `max_frame_bytes` with a protocol error.
    #[must_use]
    pub fn with_max_frame_bytes(max_frame_bytes: usize) -> Self {
        Decoder {
            buf: Vec::new(),
            start: 0,
            max_frame_bytes: max_frame_bytes.max(1),
            scan: Scan::default(),
        }
    }

    /// The configured frame-size limit in bytes.
    #[must_use]
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// Append newly received bytes, first dropping the bytes of every
    /// frame already handed out (one compaction per feed).
    pub fn feed(&mut self, data: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed bytes.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Drop every buffered byte (a connection whose stream offset is lost,
    /// or that stops speaking RESP).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scan.finish();
        self.scan.open.clear();
    }

    /// Try to decode the next complete frame. Returns `Ok(None)` if more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::Protocol`] on malformed input, on a frame that
    /// declares a payload larger than the configured limit, and when the
    /// buffer grows past the limit without containing a complete frame.
    /// The buffer is left untouched after an error (the connection should
    /// be dropped).
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let Some(len) = self.complete()? else {
            return Ok(None);
        };
        let frame = self.scan.build(&self.buf[self.start..self.start + len])?;
        self.start += len;
        self.scan.finish();
        Ok(Some(frame))
    }

    /// Try to take the next complete request: a command as a view of the
    /// buffer, any other frame owned. Returns `Ok(None)` if more bytes
    /// are needed. The limits and errors are [`Self::next_frame`]'s.
    ///
    /// # Errors
    ///
    /// As [`Self::next_frame`].
    pub fn next_request(&mut self) -> Result<Option<Request<'_>>> {
        let Some(len) = self.complete()? else {
            return Ok(None);
        };
        let frame = &self.buf[self.start..self.start + len];
        self.start += len;
        self.scan.finish();
        if self.scan.is_command(frame) {
            Ok(Some(Request::Command(CommandView::wire(
                frame,
                &self.scan.parts,
            ))))
        } else {
            Ok(Some(Request::Frame(self.scan.build(frame)?)))
        }
    }

    /// Carry the scan of the frame at the front on; its length once the
    /// frame is complete.
    fn complete(&mut self) -> Result<Option<usize>> {
        let data = &self.buf[self.start..];
        match self.scan.advance(data, self.max_frame_bytes)? {
            Some(len) => Ok(Some(len)),
            None if data.len() > self.max_frame_bytes => Err(RespError::Protocol(format!(
                "frame exceeds the {} byte limit",
                self.max_frame_bytes
            ))),
            None => Ok(None),
        }
    }
}

/// Decode a single frame from a complete buffer.
///
/// # Errors
///
/// Returns [`RespError::Protocol`] if the buffer does not contain exactly
/// one well-formed frame.
pub fn decode_one(data: &[u8]) -> Result<Frame> {
    let mut scan = Scan::default();
    match scan.advance(data, usize::MAX)? {
        Some(len) if len == data.len() => scan.build(data),
        Some(len) => Err(RespError::Protocol(format!(
            "{} trailing bytes",
            data.len() - len
        ))),
        None => Err(RespError::Protocol("incomplete frame".to_string())),
    }
}

/// Find the next CRLF starting at `from`; returns the index of the `\r`.
fn find_crlf(data: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 1 < data.len() {
        match data[i..data.len() - 1].iter().position(|&b| b == b'\r') {
            Some(offset) => i += offset,
            None => return None,
        }
        if data[i + 1] == b'\n' {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn parse_line<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let end = find_crlf(data, *pos)?;
    let line = &data[*pos..end];
    *pos = end + 2;
    Some(line)
}

fn parse_int(line: &[u8]) -> Result<i64> {
    // Every length and count a client sends: a short run of digits.
    if !line.is_empty() && line.len() <= 18 && line.iter().all(u8::is_ascii_digit) {
        return Ok(line
            .iter()
            .fold(0, |value, &digit| value * 10 + i64::from(digit - b'0')));
    }
    std::str::from_utf8(line)
        .ok()
        .and_then(|s| s.parse::<i64>().ok())
        .ok_or_else(|| {
            RespError::Protocol(format!(
                "invalid integer {:?}",
                String::from_utf8_lossy(line)
            ))
        })
}

/// The smallest possible encoded frame (`+\r\n`) is three bytes; used to
/// bound the believable element count of an array header.
const MIN_FRAME_BYTES: usize = 3;

/// The recursive parser of a frame with nested arrays, once the scan has
/// checked it to its end (and capped its depth).
fn parse_frame(data: &[u8], pos: &mut usize) -> Result<Option<Frame>> {
    if *pos >= data.len() {
        return Ok(None);
    }
    let type_byte = data[*pos];
    *pos += 1;
    match type_byte {
        b'+' => {
            Ok(parse_line(data, pos)
                .map(|l| Frame::Simple(String::from_utf8_lossy(l).into_owned())))
        }
        b'-' => Ok(
            parse_line(data, pos).map(|l| Frame::Error(String::from_utf8_lossy(l).into_owned()))
        ),
        b':' => match parse_line(data, pos) {
            Some(line) => Ok(Some(Frame::Integer(parse_int(line)?))),
            None => Ok(None),
        },
        b'$' => {
            let Some(line) = parse_line(data, pos) else {
                return Ok(None);
            };
            let Ok(len) = usize::try_from(parse_int(line)?) else {
                return Ok(Some(Frame::Null));
            };
            if data.len() - *pos < len.saturating_add(2) {
                return Ok(None);
            }
            if &data[*pos + len..*pos + len + 2] != b"\r\n" {
                return Err(RespError::Protocol(
                    "bulk string missing terminator".to_string(),
                ));
            }
            let payload = data[*pos..*pos + len].to_vec();
            *pos += len + 2;
            Ok(Some(Frame::Bulk(payload)))
        }
        b'*' => {
            let Some(line) = parse_line(data, pos) else {
                return Ok(None);
            };
            let Ok(count) = usize::try_from(parse_int(line)?) else {
                return Ok(Some(Frame::Null));
            };
            let plausible = (data.len() - *pos) / MIN_FRAME_BYTES;
            let mut items = Vec::with_capacity(count.min(plausible));
            for _ in 0..count {
                match parse_frame(data, pos)? {
                    Some(frame) => items.push(frame),
                    None => return Ok(None),
                }
            }
            Ok(Some(Frame::Array(items)))
        }
        other => Err(RespError::Protocol(format!(
            "unknown type byte 0x{other:02x}"
        ))),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_frame;

    #[test]
    fn roundtrip_all_frame_kinds() {
        let frames = vec![
            Frame::Simple("OK".into()),
            Frame::Error("ERR nope".into()),
            Frame::Integer(-12345),
            Frame::bulk("binary\r\nsafe"),
            Frame::Null,
            Frame::Array(vec![Frame::Integer(1), Frame::bulk("two"), Frame::Null]),
            Frame::Array(vec![]),
        ];
        for frame in frames {
            assert_eq!(
                decode_one(&encode_frame(&frame)).unwrap(),
                frame,
                "{frame:?}"
            );
        }
    }

    #[test]
    fn incremental_decoding_across_chunks() {
        let frame = Frame::command(["SET", "key", "a longer value to split"]);
        let bytes = encode_frame(&frame);
        let mut decoder = Decoder::new();
        for chunk in bytes.chunks(3) {
            decoder.feed(chunk);
        }
        assert_eq!(decoder.next_frame().unwrap(), Some(frame));
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let mut decoder = Decoder::new();
        decoder.feed(b"+OK\r\n:7\r\n$2\r\nhi\r\n");
        assert_eq!(
            decoder.next_frame().unwrap(),
            Some(Frame::Simple("OK".into()))
        );
        assert_eq!(decoder.next_frame().unwrap(), Some(Frame::Integer(7)));
        assert_eq!(decoder.next_frame().unwrap(), Some(Frame::bulk("hi")));
        assert_eq!(decoder.next_frame().unwrap(), None);
    }

    #[test]
    fn partial_frame_returns_none_until_complete() {
        let mut decoder = Decoder::new();
        decoder.feed(b"$10\r\nhello");
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.feed(b"world\r\n");
        assert_eq!(
            decoder.next_frame().unwrap(),
            Some(Frame::bulk("helloworld"))
        );
    }

    #[test]
    fn protocol_errors() {
        assert!(decode_one(b"!bogus\r\n").is_err());
        assert!(decode_one(b":notanumber\r\n").is_err());
        assert!(decode_one(b"$3\r\nabcX\r").is_err());
        // Trailing garbage after a complete frame.
        assert!(decode_one(b"+OK\r\nextra").is_err());
        // Incomplete input to decode_one is an error (unlike the Decoder).
        assert!(decode_one(b"$10\r\nhel").is_err());
    }

    #[test]
    fn null_array_decodes_to_null() {
        assert_eq!(decode_one(b"*-1\r\n").unwrap(), Frame::Null);
        assert_eq!(decode_one(b"$-1\r\n").unwrap(), Frame::Null);
    }

    #[test]
    fn oversized_declared_bulk_is_rejected_immediately() {
        // The header alone declares a payload beyond the limit; the decoder
        // must error without waiting for (or buffering) the payload.
        let mut decoder = Decoder::with_max_frame_bytes(1024);
        decoder.feed(b"$1000000000\r\n");
        assert!(matches!(decoder.next_frame(), Err(RespError::Protocol(_))));
    }

    #[test]
    fn oversized_array_count_is_rejected_immediately() {
        let mut decoder = Decoder::with_max_frame_bytes(1024);
        decoder.feed(b"*999999999\r\n");
        assert!(matches!(decoder.next_frame(), Err(RespError::Protocol(_))));
    }

    #[test]
    fn unterminated_frame_cannot_buffer_past_the_limit() {
        // A simple string that never sends its CRLF must not make the
        // decoder accumulate bytes forever.
        let mut decoder = Decoder::with_max_frame_bytes(64);
        decoder.feed(b"+");
        decoder.feed(&[b'x'; 128]);
        assert!(matches!(decoder.next_frame(), Err(RespError::Protocol(_))));
    }

    #[test]
    fn frames_under_the_limit_still_decode() {
        let mut decoder = Decoder::with_max_frame_bytes(1024);
        assert_eq!(decoder.max_frame_bytes(), 1024);
        let frame = Frame::command(["SET", "key", "value"]);
        decoder.feed(&encode_frame(&frame));
        assert_eq!(decoder.next_frame().unwrap(), Some(frame));
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn default_limit_is_applied_by_new() {
        let decoder = Decoder::new();
        assert_eq!(decoder.max_frame_bytes(), DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(
            Decoder::default().max_frame_bytes(),
            DEFAULT_MAX_FRAME_BYTES
        );
    }
}
