//! The ChaCha20 stream cipher (RFC 8439).
//!
//! This is the work-horse of both encryption paths in the reproduction:
//! the "LUKS" device layer XORs every persisted block with a ChaCha20
//! keystream, and the "TLS" proxy in the network simulator encrypts every
//! frame with [`crate::aead::ChaCha20Poly1305`], which is built on top of
//! this module.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (the IETF 96-bit variant).
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

#[cfg(target_arch = "x86_64")]
use crate::accel::chacha20_xor_blocks as xor_blocks_wide;

/// No wide kernel on this architecture: nothing done.
#[cfg(not(target_arch = "x86_64"))]
fn xor_blocks_wide(_state: &mut [u32; 16], _data: &mut [u8]) -> usize {
    0
}

/// The ChaCha20 quarter round, operating on four words of the state.
#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);

    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);

    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);

    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

/// A ChaCha20 cipher instance bound to a key and nonce.
///
/// The cipher is a pure keystream generator: encryption and decryption are
/// the same XOR operation, exposed as [`ChaCha20::apply_keystream`].
///
/// # Example
///
/// ```
/// use gdpr_crypto::chacha20::ChaCha20;
///
/// let key = [0u8; 32];
/// let nonce = [0u8; 12];
/// let mut data = *b"attack at dawn";
/// ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut data);
/// assert_ne!(&data, b"attack at dawn");
/// ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    /// The 16-word initial state (constants, key, counter, nonce).
    state: [u32; 16],
    /// Leftover keystream bytes from the current block.
    keystream: [u8; BLOCK_LEN],
    /// Number of keystream bytes already consumed from `keystream`
    /// (BLOCK_LEN means "none available").
    used: usize,
}

impl ChaCha20 {
    /// Create a cipher from a 256-bit key, a 96-bit nonce and an initial
    /// 32-bit block counter.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 {
            state,
            keystream: [0u8; BLOCK_LEN],
            used: BLOCK_LEN,
        }
    }

    /// Compute one 64-byte keystream block for the *current* counter value
    /// and advance the counter.
    fn next_block(&mut self) {
        let block = chacha20_block(&self.state);
        self.keystream = block;
        self.used = 0;
        // Counter wrap is allowed by the RFC for our purposes (the device
        // layer re-nonces well before 256 GiB of keystream).
        self.state[12] = self.state[12].wrapping_add(1);
    }

    /// XOR the keystream into `data` in place (encrypts or decrypts).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.apply(data, true);
    }

    /// [`Self::apply_keystream`] on the scalar block function alone: the
    /// reference the wide kernel is tested against.
    #[cfg(test)]
    pub(crate) fn apply_keystream_scalar(&mut self, data: &mut [u8]) {
        self.apply(data, false);
    }

    fn apply(&mut self, data: &mut [u8], wide: bool) {
        // What is left of the current block first.
        let left = (BLOCK_LEN - self.used).min(data.len());
        let (head, mut rest) = data.split_at_mut(left);
        xor(head, &self.keystream[self.used..self.used + left]);
        self.used += left;
        // The position is now block-aligned, or `rest` is empty: whole
        // double blocks go to the wide kernel where the CPU has one. It
        // advances the counter and leaves `used` at `BLOCK_LEN` (nothing
        // left of a current block), as the scalar loop below does behind
        // whole blocks.
        if wide {
            let done = xor_blocks_wide(&mut self.state, rest);
            rest = &mut rest[done..];
        }
        for chunk in rest.chunks_mut(BLOCK_LEN) {
            self.next_block();
            xor(chunk, &self.keystream[..chunk.len()]);
            self.used = chunk.len();
        }
    }

    /// Produce `len` keystream bytes.
    #[must_use]
    pub fn keystream_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.apply_keystream(&mut out);
        out
    }
}

/// `data ^= keystream`, over slices of one length.
fn xor(data: &mut [u8], keystream: &[u8]) {
    for (byte, k) in data.iter_mut().zip(keystream) {
        *byte ^= k;
    }
}

/// The ChaCha20 block function: 20 rounds over the given state, followed by
/// the feed-forward addition, serialized little-endian.
#[must_use]
pub fn chacha20_block(initial: &[u32; 16]) -> [u8; BLOCK_LEN] {
    let mut working = *initial;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// RFC 8439 §2.1.1 quarter-round test vector.
    #[test]
    fn quarter_round_vector() {
        let mut state = [0u32; 16];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn block_function_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = chacha20_block(&cipher.state);
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 8439 §2.4.2 encryption test vector ("sunscreen" plaintext).
    #[test]
    fn encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        assert_eq!(
            to_hex(&data[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
        // Round-trip.
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        assert_eq!(&data[..], &plaintext[..]);
    }

    #[test]
    fn keystream_is_deterministic_and_splittable() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let mut whole = vec![0u8; 300];
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut whole);

        let mut split = vec![0u8; 300];
        let mut c = ChaCha20::new(&key, &nonce, 0);
        c.apply_keystream(&mut split[..1]);
        c.apply_keystream(&mut split[1..65]);
        c.apply_keystream(&mut split[65..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn different_nonce_gives_different_stream() {
        let key = [9u8; 32];
        let a = ChaCha20::new(&key, &[0u8; 12], 0).keystream_bytes(64);
        let b = ChaCha20::new(&key, &[1u8; 12], 0).keystream_bytes(64);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let first = c.keystream_bytes(64);
        let second = c.keystream_bytes(64);
        assert_ne!(first, second);
    }
}
