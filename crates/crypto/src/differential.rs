//! The accelerated kernels against the scalar reference, and the published
//! vectors against both, each path called directly: nothing turns
//! acceleration off, so this is the only place the scalar code is certain
//! to run on a CPU that has the kernels.

use crate::aead::ChaCha20Poly1305;
use crate::chacha20::ChaCha20;
use crate::poly1305::Poly1305;
use crate::sha256::{compress_scalar, to_hex, Compress, Sha256};

/// The accelerated compression function, or `None` (said on stderr) where
/// the CPU has none: the accelerated leg of a test is then skipped.
fn accelerated_compress() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    if crate::accel::has_sha() {
        return Some(|state, blocks| {
            assert!(crate::accel::sha256_compress(state, blocks));
        });
    }
    eprintln!("skipped: no SHA extensions on this CPU, accelerated leg not run");
    None
}

/// Whether `apply_keystream` reaches the wide kernel; says so when not.
fn wide_keystream() -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::accel::has_avx2() {
        return true;
    }
    eprintln!("skipped: no AVX2 on this CPU, accelerated leg not run");
    false
}

/// Deterministic filler (xorshift64*).
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
        })
        .collect()
}

fn digest_with(parts: &[&[u8]], compress: Compress) -> [u8; 32] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update_with(part, compress);
    }
    hasher.finalize_with(compress)
}

#[test]
fn fips_180_4_vectors_hold_on_both_compression_functions() {
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for compress in [Some(compress_scalar as Compress), accelerated_compress()]
        .into_iter()
        .flatten()
    {
        for (message, digest) in vectors {
            assert_eq!(to_hex(&digest_with(&[message], compress)), digest);
        }
    }
}

#[test]
fn accelerated_compress_matches_scalar() {
    let Some(accelerated) = accelerated_compress() else {
        return;
    };
    // Runs of blocks from arbitrary states, as `update` hands them over.
    for blocks in 0..=9 {
        let data = random_bytes(blocks, 64 * blocks as usize);
        let seed = random_bytes(100 + blocks, 32);
        let mut scalar: [u32; 8] =
            std::array::from_fn(|i| u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap()));
        let mut fast = scalar;
        compress_scalar(&mut scalar, &data);
        accelerated(&mut fast, &data);
        assert_eq!(scalar, fast, "{blocks} blocks");
    }
    // Every length across the padding boundaries of ten blocks.
    for len in 0..=600 {
        let data = random_bytes(len as u64, len);
        assert_eq!(
            digest_with(&[&data], compress_scalar),
            digest_with(&[&data], accelerated),
            "length {len}"
        );
    }
    // Every way to feed 300 bytes in two and in three calls.
    let data = random_bytes(7, 300);
    let whole = digest_with(&[&data], compress_scalar);
    for first in 0..=300 {
        let (a, rest) = data.split_at(first);
        assert_eq!(digest_with(&[a, rest], accelerated), whole, "split {first}");
        for second in 0..=rest.len() {
            let (b, c) = rest.split_at(second);
            assert_eq!(
                digest_with(&[a, b, c], accelerated),
                whole,
                "splits {first}, {second}"
            );
        }
    }
}

fn hex_to_bytes(hex: &str) -> Vec<u8> {
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16).unwrap())
        .collect()
}

#[test]
fn rfc_8439_keystream_vectors_hold_on_both_paths() {
    // Appendix A.1 vectors #1 and #2: blocks 0 and 1 under the zero key
    // and nonce — one double block, the unit of the wide kernel.
    let expected = hex_to_bytes(concat!(
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7",
        "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586",
        "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed",
        "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
    ));
    let mut scalar = vec![0u8; 128];
    ChaCha20::new(&[0; 32], &[0; 12], 0).apply_keystream_scalar(&mut scalar);
    assert_eq!(scalar, expected);
    if wide_keystream() {
        let mut wide = vec![0u8; 128];
        ChaCha20::new(&[0; 32], &[0; 12], 0).apply_keystream(&mut wide);
        assert_eq!(wide, expected);
    }

    // §2.4.2 ("sunscreen"), padded with zeros to three double blocks: the
    // first 114 bytes are the RFC's ciphertext on either path.
    let key: [u8; 32] = core::array::from_fn(|i| i as u8);
    let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let mut plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
        .to_vec();
    plaintext.resize(384, 0);
    let ciphertext = hex_to_bytes(concat!(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b",
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8",
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736",
        "5af90bbf74a35be6b40b8eedf2785e42874d",
    ));
    let mut scalar = plaintext.clone();
    ChaCha20::new(&key, &nonce, 1).apply_keystream_scalar(&mut scalar);
    assert_eq!(scalar[..114], ciphertext);
    if wide_keystream() {
        let mut wide = plaintext.clone();
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut wide);
        assert_eq!(wide[..114], ciphertext);
        assert_eq!(wide, scalar);
    }
}

/// Apply the keystream to `data` in the given pieces on both paths and
/// compare, leaving both ciphers to be compared by what they produce next.
fn assert_same_keystream(counter: u32, data: &[u8], cuts: &[usize], what: &str) {
    let key: [u8; 32] = random_bytes(11, 32).try_into().unwrap();
    let nonce: [u8; 12] = random_bytes(12, 12).try_into().unwrap();
    let mut scalar_cipher = ChaCha20::new(&key, &nonce, counter);
    let mut wide_cipher = scalar_cipher.clone();
    let (mut scalar, mut wide) = (data.to_vec(), data.to_vec());
    let mut from = 0;
    for to in cuts.iter().copied().chain([data.len()]) {
        scalar_cipher.apply_keystream_scalar(&mut scalar[from..to]);
        wide_cipher.apply_keystream(&mut wide[from..to]);
        from = to;
    }
    assert_eq!(scalar, wide, "{what}");
    // The position both are left at: an unaligned call, then an aligned.
    let (mut scalar_next, mut wide_next) = ([0u8; 200], [0u8; 200]);
    scalar_cipher.apply_keystream_scalar(&mut scalar_next);
    wide_cipher.apply_keystream(&mut wide_next);
    assert_eq!(scalar_next, wide_next, "{what}: the stream behind it");
}

#[test]
fn wide_keystream_matches_scalar() {
    if !wide_keystream() {
        return;
    }
    for len in 0..=600 {
        let data = random_bytes(len as u64, len);
        assert_same_keystream(0, &data, &[], &format!("length {len}"));
    }
    // Every way to apply 300 bytes in two and in three calls.
    let data = random_bytes(7, 300);
    for first in 0..=300 {
        assert_same_keystream(3, &data, &[first], &format!("split {first}"));
        for second in first..=300 {
            let what = format!("splits {first}, {second}");
            assert_same_keystream(3, &data, &[first, second], &what);
        }
    }
    // The block counter wraps inside a double block, between two, and
    // inside the second of a four-block step; the nonce is not carried into.
    let data = random_bytes(9, 1_000);
    for back in 0..=9 {
        let counter = u32::MAX - back;
        assert_same_keystream(counter, &data, &[], &format!("counter {counter}"));
        assert_same_keystream(counter, &data, &[70], &format!("counter {counter}, cut"));
    }
}

/// `seal` as it was before `seal_into` and the kernels: the plaintext
/// copied, the scalar keystream from block 1, the one-time key from block
/// 0, the MAC input padded with allocated zeros, the tag appended.
fn reference_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    ChaCha20::new(key, nonce, 1).apply_keystream_scalar(&mut out);
    let mut one_time_key = [0u8; 32];
    ChaCha20::new(key, nonce, 0).apply_keystream_scalar(&mut one_time_key);
    let mut mac = Poly1305::new(&one_time_key);
    for part in [aad, &out] {
        mac.update(part);
        mac.update(&vec![0u8; (16 - part.len() % 16) % 16]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(out.len() as u64).to_le_bytes());
    out.extend_from_slice(&mac.finalize());
    out
}

#[test]
fn seal_into_and_open_into_match_the_reference_seal() {
    // On a CPU without AVX2 this still pins `seal_into` to the old `seal`.
    let _ = wide_keystream();
    let key: [u8; 32] = random_bytes(21, 32).try_into().unwrap();
    let aead = ChaCha20Poly1305::new(&key);
    for len in 0..=600 {
        let plaintext = random_bytes(len as u64, len);
        let aad = random_bytes(1_000 + len as u64, len % 37);
        let nonce: [u8; 12] = random_bytes(2_000 + len as u64, 12).try_into().unwrap();
        let reference = reference_seal(&key, &nonce, &aad, &plaintext);
        assert_eq!(aead.seal(&nonce, &aad, &plaintext), reference, "{len}");

        // Appended behind what the buffer holds, which stays untouched.
        let mut frame = b"frame header".to_vec();
        aead.seal_into(&nonce, &aad, &plaintext, &mut frame);
        assert_eq!(&frame[..12], b"frame header");
        assert_eq!(frame[12..], reference, "length {len}");

        let mut opened = b"before".to_vec();
        aead.open_into(&nonce, &aad, &reference, &mut opened)
            .unwrap();
        assert_eq!(&opened[..6], b"before");
        assert_eq!(opened[6..], plaintext, "length {len}");

        // A failed open leaves the buffer as it was.
        let mut tampered = reference.clone();
        tampered[len / 2] ^= 1;
        assert!(aead
            .open_into(&nonce, &aad, &tampered, &mut opened)
            .is_err());
        assert_eq!(opened.len(), 6 + len);
    }
}
