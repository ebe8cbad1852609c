//! SHA-256 (FIPS 180-4).
//!
//! Used by the audit log's hash chain (tamper-evident records for GDPR
//! Article 30/33 evidence) and by [`crate::hmac`] / [`crate::kdf`] for key
//! derivation in the LUKS-simulation device layer.

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;
/// Length of the block the compression function folds in.
const BLOCK_LEN: usize = 64;

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use gdpr_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"personal ");
/// h.update(b"data");
/// assert_eq!(h.finalize(), Sha256::digest(b"personal data"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block.
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    /// Total number of message bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// A compression function: folds a whole number of 64-byte blocks into the
/// state.
pub(crate) type Compress = fn(&mut [u32; 8], &[u8]);

/// The compression function [`Sha256`] runs: the SHA-extension kernel
/// where the CPU has it, the scalar reference elsewhere.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    if !compress_accelerated(state, blocks) {
        compress_scalar(state, blocks);
    }
}

#[cfg(target_arch = "x86_64")]
use crate::accel::sha256_compress as compress_accelerated;

/// No kernel on this architecture: nothing done.
#[cfg(not(target_arch = "x86_64"))]
fn compress_accelerated(_state: &mut [u32; 8], _blocks: &[u8]) -> bool {
    false
}

impl Sha256 {
    /// Create a new hasher with the FIPS 180-4 initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finish the hash and return the digest, consuming nothing (the hasher
    /// is taken by value conceptually; call on a clone to continue hashing).
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finalize_with(compress)
    }

    /// [`Self::update`] over a given compression function.
    pub(crate) fn update_with(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill the partial block first, if any.
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // The whole blocks, as one run straight from the input.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// [`Self::finalize`] over a given compression function.
    pub(crate) fn finalize_with(mut self, compress: Compress) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: 0x80, zeros, then the 64-bit big-endian length closing
        // a block — this one if the length still fits, else the next.
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len + 1 > BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The scalar compression function: the reference the accelerated kernel
/// is tested against, and the one that runs where there is none.
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Hex-encode a digest (or any byte slice); handy for audit-log chaining.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        s.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    s
}

/// Hex-encode a digest into a fixed array of ASCII digits: what
/// [`to_hex`] returns, without the allocation.
#[must_use]
pub fn digest_to_hex(digest: &[u8; DIGEST_LEN]) -> [u8; 2 * DIGEST_LEN] {
    let mut hex = [0u8; 2 * DIGEST_LEN];
    for (pair, b) in hex.chunks_exact_mut(2).zip(digest) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
    }
    hex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS 180-4 example: 448-bit message spanning the padding boundary.
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn to_hex_roundtrip_shape() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
        let digest = Sha256::digest(b"abc");
        assert_eq!(
            digest_to_hex(&digest).as_slice(),
            to_hex(&digest).as_bytes()
        );
    }
}
