//! A small, self-describing binary encoding used by the AOF and snapshot
//! files.
//!
//! The format is deliberately simple (type tag + length-prefixed payloads)
//! so that the persistence experiments measure fsync and encryption cost
//! rather than serialization cleverness — matching the spirit of Redis'
//! RESP-based AOF and RDB encodings.

use std::collections::{BTreeMap, BTreeSet};

use crate::object::{Bytes, Value};
use crate::{Result, StoreError};

/// Type tags used on the wire (`0x03` is unassigned).
const TAG_STR: u8 = 0x01;
const TAG_HASH: u8 = 0x02;
const TAG_SET: u8 = 0x04;

/// Append a `u32` length prefix followed by the bytes.
pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over an encoded buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer for reading.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining to be read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed the whole buffer.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt {
                context,
                detail: format!("need {n} bytes, only {} remain", self.remaining()),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u32` length prefix followed by that many bytes.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<Bytes> {
        Ok(self.get_slice(context)?.to_vec())
    }

    /// [`Self::get_bytes`], borrowed from the buffer.
    pub fn get_slice(&mut self, context: &'static str) -> Result<&'a [u8]> {
        let len_bytes = self.take(4, context)?;
        let len =
            u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        self.take(len, context)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<String> {
        let bytes = self.get_bytes(context)?;
        String::from_utf8(bytes).map_err(|e| StoreError::Corrupt {
            context,
            detail: format!("invalid utf-8: {e}"),
        })
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a single byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }
}

/// Encode a [`Value`] into `out`.
pub fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Str(b) => {
            out.push(TAG_STR);
            put_bytes(out, b);
        }
        Value::Hash(map) => {
            out.push(TAG_HASH);
            put_u64(out, map.len() as u64);
            for (field, v) in map {
                put_str(out, field);
                put_bytes(out, v);
            }
        }
        Value::Set(members) => {
            out.push(TAG_SET);
            put_u64(out, members.len() as u64);
            for member in members {
                put_bytes(out, member);
            }
        }
    }
}

/// Decode a [`Value`] from the reader.
pub fn decode_value(reader: &mut Reader<'_>, context: &'static str) -> Result<Value> {
    let tag = reader.get_u8(context)?;
    match tag {
        TAG_STR => Ok(Value::Str(reader.get_bytes(context)?)),
        TAG_HASH => {
            let n = reader.get_u64(context)?;
            let mut map = BTreeMap::new();
            for _ in 0..n {
                let field = reader.get_str(context)?;
                let value = reader.get_bytes(context)?;
                map.insert(field, value);
            }
            Ok(Value::Hash(map))
        }
        TAG_SET => {
            let n = reader.get_u64(context)?;
            let mut members = BTreeSet::new();
            for _ in 0..n {
                members.insert(reader.get_bytes(context)?);
            }
            Ok(Value::Set(members))
        }
        other => Err(StoreError::Corrupt {
            context,
            detail: format!("unknown value tag 0x{other:02x}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&mut buf, v);
        let mut r = Reader::new(&buf);
        let decoded = decode_value(&mut r, "test").unwrap();
        assert!(r.is_at_end());
        decoded
    }

    #[test]
    fn roundtrip_string() {
        let v = Value::from("hello world");
        assert_eq!(roundtrip(&v), v);
        let empty = Value::Str(Vec::new());
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn roundtrip_hash() {
        let mut map = BTreeMap::new();
        map.insert("field0".to_string(), vec![1, 2, 3]);
        map.insert("field1".to_string(), Vec::new());
        let v = Value::Hash(map);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn roundtrip_list_and_set() {
        let mut set = BTreeSet::new();
        set.insert(b"m1".to_vec());
        set.insert(b"m2".to_vec());
        let v = Value::Set(set);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::from("hello"));
        let mut r = Reader::new(&buf[..buf.len() - 2]);
        assert!(decode_value(&mut r, "test").is_err());
    }

    #[test]
    fn unknown_tag_is_an_error() {
        // 0x03 once tagged a list, a type no command creates.
        for tag in [0xEEu8, 0x03] {
            let buf = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
            let mut r = Reader::new(&buf);
            assert!(matches!(
                decode_value(&mut r, "test"),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn strings_and_u64_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "key name");
        put_u64(&mut buf, u64::MAX);
        put_bytes(&mut buf, b"");
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str("t").unwrap(), "key name");
        assert_eq!(r.get_u64("t").unwrap(), u64::MAX);
        assert_eq!(r.get_bytes("t").unwrap(), Vec::<u8>::new());
        assert!(r.is_at_end());
    }

    #[test]
    fn invalid_utf8_key_is_reported() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert!(r.get_str("t").is_err());
    }
}
