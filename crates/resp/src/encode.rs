//! RESP2 encoding.

use bytes::BufMut;

use crate::Frame;

/// Encode one frame to a standalone byte vector.
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame.wire_len());
    encode_into(frame, &mut buf);
    buf
}

/// Encode one frame, appending to an existing buffer: the server loops
/// encode every reply of a batch straight into the connection's outbox.
pub fn encode_into<B: BufMut>(frame: &Frame, buf: &mut B) {
    match frame {
        Frame::Simple(s) => put_line(buf, b'+', s.as_bytes()),
        Frame::Error(s) => put_line(buf, b'-', s.as_bytes()),
        Frame::Integer(i) => {
            buf.put_u8(b':');
            if *i < 0 {
                buf.put_u8(b'-');
            }
            put_decimal_line(buf, i.unsigned_abs());
        }
        Frame::Bulk(data) => {
            buf.put_u8(b'$');
            put_decimal_line(buf, data.len() as u64);
            buf.put_slice(data);
            buf.put_slice(b"\r\n");
        }
        Frame::Null => buf.put_slice(b"$-1\r\n"),
        Frame::Array(items) => {
            buf.put_u8(b'*');
            put_decimal_line(buf, items.len() as u64);
            for item in items {
                encode_into(item, buf);
            }
        }
    }
}

fn put_line<B: BufMut>(buf: &mut B, tag: u8, text: &[u8]) {
    buf.put_u8(tag);
    buf.put_slice(text);
    buf.put_slice(b"\r\n");
}

/// Append `value` in decimal followed by CRLF, formatted on the stack:
/// every bulk and array header passes through here, so no `String`.
fn put_decimal_line<B: BufMut>(buf: &mut B, mut value: u64) {
    // 20 digits hold u64::MAX; the last two bytes are the CRLF.
    let mut text = [0u8; 22];
    text[20..].copy_from_slice(b"\r\n");
    let mut start = 20;
    loop {
        start -= 1;
        text[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    buf.put_slice(&text[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_and_error() {
        assert_eq!(encode_frame(&Frame::Simple("OK".into())), b"+OK\r\n");
        assert_eq!(
            encode_frame(&Frame::Error("ERR boom".into())),
            b"-ERR boom\r\n"
        );
    }

    #[test]
    fn integers() {
        assert_eq!(encode_frame(&Frame::Integer(42)), b":42\r\n");
        assert_eq!(encode_frame(&Frame::Integer(-7)), b":-7\r\n");
        assert_eq!(encode_frame(&Frame::Integer(0)), b":0\r\n");
        for i in [i64::MIN, i64::MAX] {
            assert_eq!(
                encode_frame(&Frame::Integer(i)),
                format!(":{i}\r\n").into_bytes()
            );
        }
    }

    #[test]
    fn bulk_and_null() {
        assert_eq!(encode_frame(&Frame::bulk("hello")), b"$5\r\nhello\r\n");
        assert_eq!(encode_frame(&Frame::bulk("")), b"$0\r\n\r\n");
        assert_eq!(encode_frame(&Frame::Null), b"$-1\r\n");
    }

    #[test]
    fn binary_safe_bulk() {
        let data = vec![0u8, 13, 10, 255];
        let encoded = encode_frame(&Frame::Bulk(data.clone()));
        assert_eq!(&encoded[..4], b"$4\r\n");
        assert_eq!(&encoded[4..8], &data[..]);
    }

    #[test]
    fn nested_array() {
        let frame = Frame::Array(vec![
            Frame::Integer(1),
            Frame::Array(vec![Frame::bulk("x")]),
            Frame::Null,
        ]);
        assert_eq!(
            encode_frame(&frame),
            b"*3\r\n:1\r\n*1\r\n$1\r\nx\r\n$-1\r\n"
        );
    }

    #[test]
    fn encode_into_appends_to_either_buffer_type() {
        let frame = Frame::Array(vec![Frame::bulk("x"), Frame::Integer(-12), Frame::Null]);
        let mut vec = b"+OK\r\n".to_vec();
        let mut bytes_mut = bytes::BytesMut::from(&vec[..]);
        encode_into(&frame, &mut vec);
        encode_into(&frame, &mut bytes_mut);
        assert_eq!(vec, [b"+OK\r\n", &encode_frame(&frame)[..]].concat());
        assert_eq!(&bytes_mut[..], &vec[..]);
    }

    #[test]
    fn command_encoding_matches_redis_wire_format() {
        let cmd = Frame::command(["SET", "key", "value"]);
        assert_eq!(
            encode_frame(&cmd),
            b"*3\r\n$3\r\nSET\r\n$3\r\nkey\r\n$5\r\nvalue\r\n"
        );
    }
}
