//! From-scratch cryptographic primitives for the GDPR storage study.
//!
//! The paper ("Analyzing the Impact of GDPR on Storage Systems", HotStorage
//! '19) adds encryption to Redis in two places: at rest via LUKS full-disk
//! encryption, and in transit via a Stunnel TLS proxy. Reproducing those
//! exact components is not possible in a self-contained Rust workspace, so
//! this crate provides the primitives needed to *simulate* both: a stream
//! cipher ([`chacha20::ChaCha20`]), an authenticated-encryption
//! construction ([`aead::ChaCha20Poly1305`]), a hash
//! ([`sha256::Sha256`]), a MAC ([`hmac::HmacSha256`]) and a key-derivation
//! function ([`kdf`]). The persistence layer of the key-value engine uses
//! the AEAD to encrypt every byte written to disk (the LUKS substitute),
//! and the network simulator uses it to encrypt every frame on the wire
//! (the TLS substitute). What matters for the reproduction is that the
//! *same code path* — CPU work proportional to the number of bytes moved —
//! is exercised.
//!
//! # Two paths, one output
//!
//! The scalar code in [`sha256`] and [`chacha20`] is the reference, and the
//! only path on anything but x86-64. On x86-64 the private `accel` module
//! holds a SHA-extensions compression function and a row-wise AVX2
//! ChaCha20 (two interleaved two-block states, 256 bytes per iteration,
//! taken whenever the keystream position is block-aligned). Which one runs
//! is decided per call by `is_x86_feature_detected!` — a cached atomic
//! load; there is no flag and no environment variable — and the output is
//! byte-identical: the `differential` tests compare the two for every
//! length up to 600 bytes, every split of a message into two and three
//! calls and block counters around `u32::MAX`, and run the FIPS 180-4 and
//! RFC 8439 vectors against both.
//!
//! Measured on the build host (one pinned vCPU with `sha_ni` and `avx2`;
//! the run-to-run spread there is about 15 %):
//!
//! | | scalar | accelerated |
//! |---|---|---|
//! | SHA-256, 222-byte message (4 blocks) | 1 070 ns, 4.2 ns/B | 215 ns, 0.85 ns/B |
//! | ChaCha20 keystream, 1 KiB | 1.8 ns/B | 0.5 ns/B |
//! | [`aead::ChaCha20Poly1305::seal`], 1 KiB | 2.8 ns/B | 1.3 ns/B |
//! | the same, 128 B | 3.8 ns/B | 2.8 ns/B |
//!
//! Poly1305 (0.6 ns/B, scalar, 26-bit limbs) and the one scalar block that
//! yields its one-time key are what is left of an accelerated seal.
//!
//! `unsafe` is denied crate-wide and allowed in `accel` alone: calling a
//! `#[target_feature]` function and loading an unaligned vector are the
//! two things here that safe Rust has no operation for, and every such
//! block names the feature check or the length that makes it sound.
//!
//! # Security disclaimer
//!
//! These implementations are written for benchmarking and educational
//! purposes. They follow the RFC 8439 / FIPS 180-4 algorithms and pass the
//! published test vectors, but they are **not** constant-time audited and
//! must not be used to protect real personal data.
//!
//! # Example
//!
//! ```
//! use gdpr_crypto::aead::ChaCha20Poly1305;
//!
//! # fn main() -> Result<(), gdpr_crypto::CryptoError> {
//! let key = [7u8; 32];
//! let aead = ChaCha20Poly1305::new(&key);
//! let nonce = [1u8; 12];
//! let sealed = aead.seal(&nonce, b"record header", b"personal data");
//! let opened = aead.open(&nonce, b"record header", &sealed)?;
//! assert_eq!(opened, b"personal data");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod accel;
pub mod aead;
pub mod chacha20;
#[cfg(test)]
mod differential;
pub mod hmac;
pub mod kdf;
pub mod poly1305;
pub mod sha256;

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic primitives in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// The authentication tag did not match: the ciphertext (or its
    /// associated data) was corrupted or tampered with.
    TagMismatch,
    /// The ciphertext is too short to even contain an authentication tag.
    TruncatedCiphertext {
        /// Number of bytes that were provided.
        got: usize,
        /// Minimum number of bytes required.
        need: usize,
    },
    /// A key, nonce or other parameter had an invalid length.
    InvalidLength {
        /// What the parameter was.
        what: &'static str,
        /// Number of bytes that were provided.
        got: usize,
        /// Number of bytes expected.
        expected: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
            CryptoError::TruncatedCiphertext { got, need } => {
                write!(
                    f,
                    "ciphertext too short: got {got} bytes, need at least {need}"
                )
            }
            CryptoError::InvalidLength {
                what,
                got,
                expected,
            } => {
                write!(
                    f,
                    "invalid {what} length: got {got} bytes, expected {expected}"
                )
            }
        }
    }
}

impl Error for CryptoError {}

/// Constant-time byte-slice equality.
///
/// Compares every byte regardless of where the first difference occurs so
/// that MAC verification does not leak the position of a mismatch through
/// timing.
#[must_use]
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Fill `buf` with random bytes from the thread-local RNG.
///
/// Used for nonce generation in the storage and network layers. The quality
/// requirement here is uniqueness, not unpredictability, since this crate is
/// a benchmarking substitute for LUKS/TLS.
pub fn fill_random(buf: &mut [u8]) {
    use rand::RngCore;
    rand::thread_rng().fill_bytes(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_time_eq_equal() {
        assert!(constant_time_eq(b"abcdef", b"abcdef"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn constant_time_eq_unequal() {
        assert!(!constant_time_eq(b"abcdef", b"abcdeg"));
        assert!(!constant_time_eq(b"abc", b"abcd"));
        assert!(!constant_time_eq(b"abc", b""));
    }

    #[test]
    fn fill_random_changes_buffer() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        fill_random(&mut a);
        fill_random(&mut b);
        // Two 256-bit random draws colliding is astronomically unlikely.
        assert_ne!(a, b);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            CryptoError::TagMismatch,
            CryptoError::TruncatedCiphertext { got: 3, need: 16 },
            CryptoError::InvalidLength {
                what: "key",
                got: 5,
                expected: 32,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
