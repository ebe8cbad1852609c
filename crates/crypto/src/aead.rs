//! The ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).
//!
//! This is the unit of encryption used throughout the workspace:
//!
//! * the `kvstore` device layer seals every persisted chunk with it
//!   (simulating LUKS full-disk encryption), and
//! * the `netsim` TLS-proxy simulation seals every wire frame with it
//!   (simulating the Stunnel record layer).

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::CryptoError;

/// An authenticated-encryption cipher bound to a long-lived 256-bit key.
///
/// # Example
///
/// ```
/// use gdpr_crypto::aead::ChaCha20Poly1305;
///
/// # fn main() -> Result<(), gdpr_crypto::CryptoError> {
/// let aead = ChaCha20Poly1305::new(&[0x42; 32]);
/// let sealed = aead.seal(&[0; 12], b"aad", b"plaintext");
/// assert_eq!(aead.open(&[0; 12], b"aad", &sealed)?, b"plaintext");
/// assert!(aead.open(&[0; 12], b"wrong aad", &sealed).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; KEY_LEN],
}

impl ChaCha20Poly1305 {
    /// Length of the appended authentication tag in bytes.
    pub const TAG_LEN: usize = TAG_LEN;
    /// Length of the nonce in bytes.
    pub const NONCE_LEN: usize = NONCE_LEN;

    /// Create an AEAD instance from a 256-bit key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    /// Derive the Poly1305 one-time key for a nonce (keystream block 0).
    fn one_time_key(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
        let mut key = [0u8; 32];
        ChaCha20::new(&self.key, nonce, 0).apply_keystream(&mut key);
        key
    }

    /// Encrypt `plaintext`, authenticating `aad` alongside it. Returns
    /// `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// [`Self::seal`], appending `ciphertext || tag` to `out`: a caller
    /// that frames the sealed bytes builds its frame in one buffer.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        ChaCha20::new(&self.key, nonce, 1).apply_keystream(&mut out[start..]);
        let tag = self.compute_tag(nonce, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Decrypt `sealed` (as produced by [`Self::seal`]), verifying the tag
    /// and the associated data.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TruncatedCiphertext`] if `sealed` is shorter
    /// than a tag, and [`CryptoError::TagMismatch`] if authentication fails.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(sealed.len().saturating_sub(TAG_LEN));
        self.open_into(nonce, aad, sealed, &mut out)?;
        Ok(out)
    }

    /// [`Self::open`], appending the plaintext to `out`.
    ///
    /// # Errors
    ///
    /// As [`Self::open`]; `out` is then as it was.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let Some((ciphertext, tag)) = sealed.split_last_chunk::<TAG_LEN>() else {
            return Err(CryptoError::TruncatedCiphertext {
                got: sealed.len(),
                need: TAG_LEN,
            });
        };
        let expected = self.compute_tag(nonce, aad, ciphertext);
        if !crate::constant_time_eq(&expected, tag) {
            return Err(CryptoError::TagMismatch);
        }
        let start = out.len();
        out.extend_from_slice(ciphertext);
        ChaCha20::new(&self.key, nonce, 1).apply_keystream(&mut out[start..]);
        Ok(())
    }

    /// RFC 8439 tag computation: Poly1305 over `aad || pad || ct || pad ||
    /// len(aad) || len(ct)`.
    fn compute_tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let otk = self.one_time_key(nonce);
        let mut mac = Poly1305::new(&otk);
        mac.update(aad);
        mac.update(zero_pad(aad.len()));
        mac.update(ciphertext);
        mac.update(zero_pad(ciphertext.len()));
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }
}

/// Zero padding to the next 16-byte boundary, as required by the AEAD MAC.
fn zero_pad(len: usize) -> &'static [u8] {
    &[0u8; 16][..(16 - len % 16) % 16]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(hex: &str) -> Vec<u8> {
        let hex: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
        (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; 12] = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad = hex_to_bytes("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            crate::sha256::to_hex(&ct[..16]),
            "d31a8d34648e60db7b86afbc53ef7ec2"
        );
        assert_eq!(
            crate::sha256::to_hex(tag),
            "1ae10b594f09e26a7e902ecbd0600691"
        );
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let aead = ChaCha20Poly1305::new(&[7u8; 32]);
        for size in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
            let plaintext = vec![0xa5u8; size];
            let nonce = [size as u8; 12];
            let sealed = aead.seal(&nonce, b"hdr", &plaintext);
            assert_eq!(sealed.len(), size + TAG_LEN);
            assert_eq!(aead.open(&nonce, b"hdr", &sealed).unwrap(), plaintext);
        }
    }

    #[test]
    fn tamper_detection() {
        let aead = ChaCha20Poly1305::new(&[7u8; 32]);
        let mut sealed = aead.seal(&[0u8; 12], b"", b"some personal data");
        sealed[3] ^= 0x01;
        assert_eq!(
            aead.open(&[0u8; 12], b"", &sealed),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let sealed = ChaCha20Poly1305::new(&[1u8; 32]).seal(&[0u8; 12], b"", b"data");
        assert!(ChaCha20Poly1305::new(&[2u8; 32])
            .open(&[0u8; 12], b"", &sealed)
            .is_err());
    }

    #[test]
    fn wrong_nonce_fails() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        let sealed = aead.seal(&[0u8; 12], b"", b"data");
        assert!(aead.open(&[1u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn truncated_ciphertext_is_reported() {
        let aead = ChaCha20Poly1305::new(&[1u8; 32]);
        assert_eq!(
            aead.open(&[0u8; 12], b"", &[1, 2, 3]),
            Err(CryptoError::TruncatedCiphertext {
                got: 3,
                need: TAG_LEN
            })
        );
    }
}
