//! The record layer of Figure 1's TLS stand-in: authenticated encryption
//! of every record that crosses the tunnel's inter-relay hop.
//!
//! A real TLS stack negotiates keys with a handshake; for the paper's
//! measurement only the *record layer* matters (per-byte encryption work
//! plus per-record overhead), so the channel derives its two directional
//! keys from a shared secret with HKDF and seals each record with
//! ChaCha20-Poly1305 under a counter nonce.

use gdpr_crypto::aead::ChaCha20Poly1305;
use gdpr_crypto::kdf::derive_key;
use gdpr_crypto::CryptoError;

/// Bytes a sealed record adds to its plaintext (the nonce counter is
/// implicit; the tag is carried).
pub const FRAME_OVERHEAD: usize = ChaCha20Poly1305::TAG_LEN;

/// One direction of a channel: its key and its record counter.
#[derive(Debug)]
pub struct RecordCipher {
    cipher: ChaCha20Poly1305,
    counter: u64,
}

impl RecordCipher {
    fn new(shared_secret: &[u8], direction: &[u8]) -> Self {
        RecordCipher {
            cipher: ChaCha20Poly1305::new(&derive_key(b"bench-tunnel", shared_secret, direction)),
            counter: 0,
        }
    }

    fn nonce(&self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.counter.to_le_bytes());
        nonce
    }

    /// Seal the next outgoing record.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let sealed = self.cipher.seal(&self.nonce(), b"tunnel", plaintext);
        self.counter += 1;
        sealed
    }

    /// Open the next incoming record.
    ///
    /// # Errors
    ///
    /// Returns a crypto error if the record was tampered with or arrives
    /// out of order (the counter nonce enforces ordering, as TLS does).
    /// The counter then stays put, so the channel cannot resynchronise.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let plain = self.cipher.open(&self.nonce(), b"tunnel", sealed)?;
        self.counter += 1;
        Ok(plain)
    }
}

/// One end of a channel: it seals with `send` and opens with `recv`.
#[derive(Debug)]
pub struct SecureEndpoint {
    /// The outgoing direction.
    pub send: RecordCipher,
    /// The incoming direction.
    pub recv: RecordCipher,
}

/// A connected endpoint pair (client side, server side) from a shared
/// secret.
#[must_use]
pub fn channel(shared_secret: &[u8]) -> (SecureEndpoint, SecureEndpoint) {
    let to_server = || RecordCipher::new(shared_secret, b"client->server");
    let to_client = || RecordCipher::new(shared_secret, b"server->client");
    let client = SecureEndpoint {
        send: to_server(),
        recv: to_client(),
    };
    let server = SecureEndpoint {
        send: to_client(),
        recv: to_server(),
    };
    (client, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bidirectional_roundtrip() {
        let (mut client, mut server) = channel(b"session secret");
        let request = client.send.seal(b"GET user:1");
        assert_ne!(request, b"GET user:1");
        assert_eq!(server.recv.open(&request).unwrap(), b"GET user:1");
        let reply = server.send.seal(b"alice@example.com");
        assert_eq!(client.recv.open(&reply).unwrap(), b"alice@example.com");
    }

    #[test]
    fn frames_cannot_be_replayed_or_reordered() {
        let (mut client, mut server) = channel(b"s");
        let first = client.send.seal(b"one");
        let second = client.send.seal(b"two");
        // Deliver out of order: the counter nonce makes the second record
        // undecryptable first.
        assert!(server.recv.open(&second).is_err());
        // In order works.
        assert_eq!(server.recv.open(&first).unwrap(), b"one");
        assert_eq!(server.recv.open(&second).unwrap(), b"two");
        // Replay of an already-consumed record fails.
        assert!(server.recv.open(&first).is_err());
    }

    #[test]
    fn different_secrets_cannot_talk() {
        let (mut client, _) = channel(b"alpha");
        let (_, mut server) = channel(b"beta");
        let record = client.send.seal(b"hello");
        assert!(server.recv.open(&record).is_err());
    }

    #[test]
    fn tampering_is_detected() {
        let (mut client, mut server) = channel(b"s");
        let mut record = client.send.seal(b"sensitive");
        record[0] ^= 1;
        assert!(server.recv.open(&record).is_err());
    }

    #[test]
    fn overhead_is_exactly_the_tag() {
        let (mut client, _) = channel(b"s");
        let sealed = client.send.seal(b"12345");
        assert_eq!(sealed.len(), 5 + FRAME_OVERHEAD);
    }
}
