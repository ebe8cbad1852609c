//! x86-64 kernels for the two primitives on every operation's path: the
//! SHA-256 compression function on the SHA extensions and the ChaCha20
//! keystream on AVX2.
//!
//! This is the only module of the crate that may hold `unsafe`: calling a
//! `#[target_feature]` function on a CPU without the feature is undefined
//! behaviour, and the unaligned vector loads and stores take raw pointers.
//! Both stay behind the two safe entry points below, which check the CPU
//! with `is_x86_feature_detected!` (one cached atomic load) and report
//! whether they did the work. The scalar code in [`crate::sha256`] and
//! [`crate::chacha20`] is the reference they are tested against, and what
//! runs when they decline.

use core::arch::x86_64::*;

use crate::chacha20::BLOCK_LEN;
use crate::sha256::K;

/// Bytes of two ChaCha20 blocks: the unit the AVX2 kernel works in.
const DOUBLE_BLOCK_LEN: usize = 2 * BLOCK_LEN;

/// Whether [`sha256_compress`] does the work on this CPU.
pub(crate) fn has_sha() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Whether [`chacha20_xor_blocks`] does the work on this CPU.
pub(crate) fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Fold the 64-byte blocks of `blocks` (a whole number of them) into
/// `state` with the SHA extensions. Returns `false`, having done nothing,
/// on a CPU without them.
pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    debug_assert_eq!(blocks.len() % 64, 0);
    if !has_sha() {
        return false;
    }
    // SAFETY: `has_sha()` just confirmed the `sha`, `sse2`, `ssse3` and
    // `sse4.1` features `compress_sha_ni` is compiled for.
    unsafe { compress_sha_ni(state, blocks) };
    true
}

/// XOR ChaCha20 keystream into the longest prefix of `data` that is a
/// whole number of 128-byte double blocks, starting at the block counter
/// in `state[12]`, and advance that counter (wrapping, as the scalar code
/// does) by the blocks consumed. Returns the length of that prefix: 0 on
/// a CPU without AVX2.
pub(crate) fn chacha20_xor_blocks(state: &mut [u32; 16], data: &mut [u8]) -> usize {
    let wide = data.len() - data.len() % DOUBLE_BLOCK_LEN;
    if wide == 0 || !has_avx2() {
        return 0;
    }
    // SAFETY: `has_avx2()` just confirmed the `avx2` feature
    // `xor_keystream_avx2` is compiled for.
    unsafe { xor_keystream_avx2(state, &mut data[..wide]) };
    state[12] = state[12].wrapping_add((wide / BLOCK_LEN) as u32);
    wide
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian words to lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let abcd = _mm_set_epi32(
        state[3] as i32,
        state[2] as i32,
        state[1] as i32,
        state[0] as i32,
    );
    let efgh = _mm_set_epi32(
        state[7] as i32,
        state[6] as i32,
        state[5] as i32,
        state[4] as i32,
    );
    // The round instruction wants the state as (ABEF, CDGH).
    let cdab = _mm_shuffle_epi32(abcd, 0xb1);
    let hgfe = _mm_shuffle_epi32(efgh, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The sixteen most recent schedule words, four to a register.
        let mut w = [_mm_setzero_si128(); 4];
        for i in 0..16 {
            if i < 4 {
                // SAFETY: `block` is 64 bytes and `i < 4`, so the 16 bytes
                // at `16 i` are inside it; `loadu` needs no alignment.
                let words = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
                w[i] = _mm_shuffle_epi8(words, byte_swap);
            } else {
                // W[4i..4i+4] from the sixteen words before them.
                let sigma0 = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                let w_minus_7 = _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4);
                w[i % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w[(i + 3) % 4]);
            }
            // SAFETY: `K` is 64 words and `i < 16`, so the 4 words at
            // `4 i` are inside it; `loadu` needs no alignment.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY (both stores): `state` is 8 `u32`s, so 16 bytes are writable
    // at word 0 and at word 4; `storeu` needs no alignment.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// Two ChaCha20 blocks, row-wise: register `r` holds row `r` of block `n`
/// in its low lane and of block `n + 1` in its high lane.
type DoubleBlock = [__m256i; 4];

/// The ten double rounds over `N` independent double blocks, step by step
/// across all of them so that one's additions overlap another's rotations.
#[inline]
#[target_feature(enable = "avx2")]
fn double_rounds<const N: usize>(blocks: &mut [DoubleBlock; N]) {
    let rotl16 = _mm256_set_epi64x(
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
    );
    let rotl8 = _mm256_set_epi64x(
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
    );
    // Four quarter rounds at once: the columns of both lanes.
    macro_rules! quarter_rounds {
        () => {
            for s in blocks.iter_mut() {
                s[0] = _mm256_add_epi32(s[0], s[1]);
                s[3] = _mm256_shuffle_epi8(_mm256_xor_si256(s[3], s[0]), rotl16);
            }
            for s in blocks.iter_mut() {
                s[2] = _mm256_add_epi32(s[2], s[3]);
                let t = _mm256_xor_si256(s[1], s[2]);
                s[1] = _mm256_or_si256(_mm256_slli_epi32(t, 12), _mm256_srli_epi32(t, 20));
            }
            for s in blocks.iter_mut() {
                s[0] = _mm256_add_epi32(s[0], s[1]);
                s[3] = _mm256_shuffle_epi8(_mm256_xor_si256(s[3], s[0]), rotl8);
            }
            for s in blocks.iter_mut() {
                s[2] = _mm256_add_epi32(s[2], s[3]);
                let t = _mm256_xor_si256(s[1], s[2]);
                s[1] = _mm256_or_si256(_mm256_slli_epi32(t, 7), _mm256_srli_epi32(t, 25));
            }
        };
    }
    for _ in 0..10 {
        quarter_rounds!();
        // Rotate rows 1..3 so that the diagonals stand in the columns.
        for s in blocks.iter_mut() {
            s[1] = _mm256_shuffle_epi32(s[1], 0x39);
            s[2] = _mm256_shuffle_epi32(s[2], 0x4e);
            s[3] = _mm256_shuffle_epi32(s[3], 0x93);
        }
        quarter_rounds!();
        for s in blocks.iter_mut() {
            s[1] = _mm256_shuffle_epi32(s[1], 0x93);
            s[2] = _mm256_shuffle_epi32(s[2], 0x4e);
            s[3] = _mm256_shuffle_epi32(s[3], 0x39);
        }
    }
}

/// Run the block function on the `N` double blocks of `input` and XOR
/// their keystream into `out`, `N` times 128 bytes.
#[inline]
#[target_feature(enable = "avx2")]
fn xor_double_blocks<const N: usize>(input: &[DoubleBlock; N], out: &mut [u8]) {
    assert_eq!(out.len(), N * DOUBLE_BLOCK_LEN);
    let mut rounds = *input;
    double_rounds(&mut rounds);
    for (n, (rounds, input)) in rounds.iter().zip(input).enumerate() {
        let row = [
            _mm256_add_epi32(rounds[0], input[0]),
            _mm256_add_epi32(rounds[1], input[1]),
            _mm256_add_epi32(rounds[2], input[2]),
            _mm256_add_epi32(rounds[3], input[3]),
        ];
        // A block is rows 0..3 of one lane: 0x20 gathers the low lanes of
        // two registers, 0x31 their high lanes.
        let keystream = [
            _mm256_permute2x128_si256(row[0], row[1], 0x20),
            _mm256_permute2x128_si256(row[2], row[3], 0x20),
            _mm256_permute2x128_si256(row[0], row[1], 0x31),
            _mm256_permute2x128_si256(row[2], row[3], 0x31),
        ];
        for (i, k) in keystream.into_iter().enumerate() {
            // SAFETY: `out` is `N` times 128 bytes (asserted above),
            // `n < N` and `i < 4`, so the 32 bytes at `128 n + 32 i` are
            // inside it; `loadu` and `storeu` need no alignment.
            unsafe {
                let at = out
                    .as_mut_ptr()
                    .add(DOUBLE_BLOCK_LEN * n + 32 * i)
                    .cast::<__m256i>();
                _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), k));
            }
        }
    }
}

/// XOR keystream into `data`, a whole number of 128-byte double blocks,
/// from the counter in `state[12]` (which the caller advances).
#[target_feature(enable = "avx2")]
fn xor_keystream_avx2(state: &[u32; 16], data: &mut [u8]) {
    let row = |r: usize| {
        let w = |i: usize| state[4 * r + i] as i32;
        _mm256_set_epi32(w(3), w(2), w(1), w(0), w(3), w(2), w(1), w(0))
    };
    // The high lane is one block ahead of the low one. A 32-bit lane add
    // wraps like the scalar `wrapping_add` and never carries into the
    // nonce words beside the counter.
    let one_ahead = _mm256_set_epi32(0, 0, 0, 1, 0, 0, 0, 0);
    let two_blocks = _mm256_set_epi32(0, 0, 0, 2, 0, 0, 0, 2);
    let four_blocks = _mm256_set_epi32(0, 0, 0, 4, 0, 0, 0, 4);
    let first = [row(0), row(1), row(2), _mm256_add_epi32(row(3), one_ahead)];
    let mut pair = [first, first];
    pair[1][3] = _mm256_add_epi32(first[3], two_blocks);

    let mut quads = data.chunks_exact_mut(2 * DOUBLE_BLOCK_LEN);
    for quad in &mut quads {
        xor_double_blocks(&pair, quad);
        for block in &mut pair {
            block[3] = _mm256_add_epi32(block[3], four_blocks);
        }
    }
    let last = quads.into_remainder();
    if !last.is_empty() {
        xor_double_blocks(&[pair[0]], last);
    }
}
