//! Offline stand-in for the `bytes` crate: a growable byte buffer with the
//! [`Buf`]/[`BufMut`] trait subset the RESP codec consumes.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

/// Types that hold readable bytes which can be consumed from the front.
pub trait Buf {
    /// Number of readable bytes remaining.
    fn remaining(&self) -> usize;

    /// Discard the next `cnt` readable bytes.
    fn advance(&mut self, cnt: usize);

    /// The readable bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
}

/// Types that accept appended bytes.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, b: u8);

    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// A growable, contiguous byte buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `capacity` bytes pre-allocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(capacity),
        }
    }

    /// Number of readable bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    /// Copy the readable bytes into a `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.clone()
    }

    /// Remove every byte.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.inner.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.inner.len(), "advance past end of buffer");
        self.inner.drain(..cnt);
    }

    fn chunk(&self) -> &[u8] {
        &self.inner
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, b: u8) {
        self.inner.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(inner: Vec<u8>) -> Self {
        BytesMut { inner }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        BytesMut {
            inner: src.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_advance() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(b'+');
        buf.put_slice(b"OK\r\n");
        assert_eq!(&buf[..], b"+OK\r\n");
        assert_eq!(buf.remaining(), 5);
        buf.advance(3);
        assert_eq!(&buf[..], b"\r\n");
        assert_eq!(buf.to_vec(), b"\r\n".to_vec());
    }

    #[test]
    fn vec_accepts_appended_bytes() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(b'$');
        buf.put_slice(b"-1\r\n");
        assert_eq!(buf, b"$-1\r\n");
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut buf = BytesMut::new();
        buf.advance(1);
    }
}
