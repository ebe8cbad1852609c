//! The device layer: where persisted bytes actually go.
//!
//! The paper encrypts data at rest by putting Redis' working directory on a
//! LUKS volume, so *every byte* the engine persists is encrypted by the
//! block layer. We reproduce that with a [`StorageDevice`] abstraction: the
//! AOF and snapshot writers talk to a device, and the
//! [`EncryptedFileDevice`] seals each appended chunk with
//! ChaCha20-Poly1305 before it reaches the file — same code path
//! (CPU per persisted byte), different mechanism.
//!
//! The implementations:
//!
//! * [`MemoryDevice`] — a growable buffer, for tests and for benchmarks
//!   that want to isolate CPU cost from disk cost.
//! * [`PlainFileDevice`] — a file of raw chunks with explicit `fsync`, its
//!   length extended ahead of the data so a sync flushes data only.
//! * [`FramedDevice`] over either of them — one checked frame per append:
//!   [`EncryptedFileDevice`], the LUKS stand-in, and [`ChecksummedDevice`],
//!   what a journal file gets when it is not encrypted.
//!
//! # What a journal file holds
//!
//! A [`PlainFileDevice`] holds a sequence of *chunks*, `u32-LE length ||
//! body` with a non-zero length. The file is longer than its content: its
//! length is extended ahead ([`extfile`]; sparse, never written), so the
//! tail reads as zeros and **a zero length word, or the end of the file,
//! ends the log**. A final chunk whose body runs past the end of the file
//! is a torn append and is dropped when the file is opened.
//!
//! That rule alone does not find every torn append: in a file extended
//! ahead a crash can leave the length word of the last chunk on disk and a
//! hole in its body. So every journal file is written through a
//! [`FramedDevice`], whose chunks are frames that carry a check over their
//! content — the AEAD tag, or a CRC-32 — and **a final frame that fails its
//! check is a torn append and is dropped at open; one that fails with
//! whole frames behind it is [`StoreError::Corrupt`]**. One append is one
//! frame, so what a caller appends in one call survives a crash whole or
//! not at all.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use extfile::ExtendedFile;
use gdpr_crypto::aead::ChaCha20Poly1305;
use gdpr_crypto::kdf::derive_key;
use parking_lot::Mutex;

use crate::{Result, StoreError};

/// Counters describing device activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of `append` calls.
    pub appends: u64,
    /// Logical bytes handed to the device by callers.
    pub bytes_written: u64,
    /// Physical bytes written to the backing store (larger than
    /// `bytes_written` for the encrypted device because of nonces/tags).
    pub bytes_on_device: u64,
    /// Number of `sync` calls that reached the backing store.
    pub syncs: u64,
}

/// A byte sink with explicit durability and full-content reads.
///
/// The engine only needs append, sync, full read (for recovery) and full
/// replace (for AOF rewrite / snapshot), which keeps the trait small enough
/// for an encrypted implementation to wrap every operation.
pub trait StorageDevice: Send + std::fmt::Debug {
    /// Append a chunk of bytes to the device.
    fn append(&mut self, data: &[u8]) -> Result<()>;

    /// Force all previously appended bytes to durable storage.
    fn sync(&mut self) -> Result<()>;

    /// Read the entire logical content of the device (decrypted).
    fn read_all(&mut self) -> Result<Vec<u8>>;

    /// Atomically replace the device content with `data` (used by AOF
    /// rewrite and snapshot save).
    fn replace(&mut self, data: &[u8]) -> Result<()>;

    /// Logical size in bytes (what `read_all` would return).
    fn logical_len(&self) -> u64;

    /// Activity counters.
    fn stats(&self) -> DeviceStats;
}

/// A device whose content can be cut back to a prefix: what a
/// [`FramedDevice`] needs from its backing store to drop a torn final frame.
pub trait TruncatableDevice: StorageDevice {
    /// Discard everything after the first `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<()>;
}

// ---------------------------------------------------------------------------

/// An in-memory device; never durable, infinitely fast.
#[derive(Debug, Default, Clone)]
pub struct MemoryDevice {
    buf: Arc<Mutex<Vec<u8>>>,
    stats: DeviceStats,
}

impl MemoryDevice {
    /// Create an empty in-memory device.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle sharing the same backing buffer (lets tests inspect what a
    /// writer persisted).
    #[must_use]
    pub fn share(&self) -> MemoryDevice {
        MemoryDevice {
            buf: Arc::clone(&self.buf),
            stats: DeviceStats::default(),
        }
    }
}

impl StorageDevice for MemoryDevice {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.buf.lock().extend_from_slice(data);
        self.stats.appends += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.bytes_on_device += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.buf.lock().clone())
    }

    fn replace(&mut self, data: &[u8]) -> Result<()> {
        let mut buf = self.buf.lock();
        buf.clear();
        buf.extend_from_slice(data);
        self.stats.bytes_written += data.len() as u64;
        self.stats.bytes_on_device = data.len() as u64;
        Ok(())
    }

    fn logical_len(&self) -> u64 {
        self.buf.lock().len() as u64
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

impl TruncatableDevice for MemoryDevice {
    fn truncate(&mut self, len: u64) -> Result<()> {
        self.buf.lock().truncate(len as usize);
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// A file of raw chunks with explicit `fsync` (see the module docs for the
/// chunk layout and the end-of-log rule).
///
/// What is appended must be whole chunks with non-zero lengths — the frames
/// of a [`FramedDevice`], or length-prefixed records that are never empty:
/// that is what `open` reads back. The device checks no chunk's content; a
/// journal file is always written through a [`FramedDevice`].
#[derive(Debug)]
pub struct PlainFileDevice {
    path: PathBuf,
    file: ExtendedFile,
    /// The content found by `open`, until the first `read_all` takes it or
    /// a write outdates it — recovery reads the file once.
    opened_content: Option<Vec<u8>>,
    stats: DeviceStats,
}

/// Read the whole chunks at the front of `file`, stopping at a zero length
/// word, at the end of the file, or at a chunk the file is too short for
/// (never the extended tail: it can be a megabyte per segment).
fn read_whole_chunks(file: &File, file_len: u64) -> Result<Vec<u8>> {
    let mut reader = BufReader::with_capacity(64 << 10, file);
    let mut content = Vec::new();
    loop {
        let mut header = [0u8; 4];
        match reader.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let len = u64::from(u32::from_le_bytes(header));
        let chunk_start = content.len();
        if len == 0 || chunk_start as u64 + 4 + len > file_len {
            break;
        }
        content.extend_from_slice(&header);
        if (&mut reader).take(len).read_to_end(&mut content)? as u64 != len {
            content.truncate(chunk_start);
            break;
        }
    }
    Ok(content)
}

impl PlainFileDevice {
    /// Open (creating if necessary) the file at `path`, find the end of its
    /// log and cut the file back to it: an extended tail left by a crash
    /// and a final chunk the file is too short for both go.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = ExtendedFile::open(&path)?;
        let content = read_whole_chunks(file.file(), file.end())?;
        file.truncate(content.len() as u64)?;
        Ok(PlainFileDevice {
            path,
            file,
            opened_content: Some(content),
            stats: DeviceStats::default(),
        })
    }

    /// Path of the backing file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl StorageDevice for PlainFileDevice {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.opened_content = None;
        self.file.append(data)?;
        self.stats.appends += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.bytes_on_device += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        match self.opened_content.take() {
            Some(content) => Ok(content),
            None => Ok(self.file.read_content()?),
        }
    }

    fn replace(&mut self, data: &[u8]) -> Result<()> {
        // Write to a temporary sibling file and rename over the original so
        // a crash mid-rewrite never loses the old AOF — the same strategy
        // Redis' BGREWRITEAOF uses.
        let tmp_path = self.path.with_extension("rewrite.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(data)?;
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = ExtendedFile::open(&self.path)?;
        self.opened_content = None;
        self.stats.bytes_written += data.len() as u64;
        self.stats.bytes_on_device = data.len() as u64;
        Ok(())
    }

    fn logical_len(&self) -> u64 {
        self.file.end()
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

impl TruncatableDevice for PlainFileDevice {
    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file.truncate(len)?;
        self.opened_content = None;
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// What turns an append into the body of a frame and back, with a check
/// that a damaged body fails.
pub trait FrameSeal: Send + std::fmt::Debug {
    /// Names the device in a [`StoreError::Corrupt`].
    const CONTEXT: &'static str;

    /// Whether recovery may take a frame that fails its check for a torn
    /// append when no whole frame precedes it.
    const LONE_FAILURE_IS_TORN: bool;

    /// Append the frame body for `payload` to `frame`.
    fn seal(&mut self, payload: &[u8], frame: &mut Vec<u8>);

    /// Check `body` and append the payload it carries to `out`.
    ///
    /// # Errors
    ///
    /// Returns why the body is not one [`Self::seal`] produced.
    fn open(&self, body: &[u8], out: &mut Vec<u8>) -> Result<()>;

    /// Recovery found `frames` frames already on the device.
    fn resume_after(&mut self, _frames: u64) {}
}

/// Authenticated encryption: `12-byte nonce || ciphertext || 16-byte tag`.
#[derive(Debug)]
pub struct AeadSeal {
    aead: ChaCha20Poly1305,
    /// Monotonic counter mixed into each nonce so frames never reuse one.
    frame_counter: u64,
}

impl FrameSeal for AeadSeal {
    const CONTEXT: &'static str = "encrypted device";

    // A wrong passphrase fails the first frame the same way a torn append
    // does, and cutting that frame off would destroy the data.
    const LONE_FAILURE_IS_TORN: bool = false;

    fn seal(&mut self, payload: &[u8], frame: &mut Vec<u8>) {
        self.frame_counter += 1;
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.frame_counter.to_le_bytes());
        gdpr_crypto::fill_random(&mut nonce[8..]);
        frame.extend_from_slice(&nonce);
        self.aead
            .seal_into(&nonce, b"kvstore-frame", payload, frame);
    }

    fn open(&self, body: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let Some((nonce, sealed)) = body.split_first_chunk::<12>() else {
            return Err(StoreError::Corrupt {
                context: Self::CONTEXT,
                detail: format!("frame of {} bytes cannot hold a nonce", body.len()),
            });
        };
        Ok(self.aead.open_into(nonce, b"kvstore-frame", sealed, out)?)
    }

    fn resume_after(&mut self, frames: u64) {
        // Resume the nonce counter past anything already on the device.
        self.frame_counter = self.frame_counter.max(frames);
    }
}

/// Integrity without secrecy: `payload || CRC-32 of the payload (u32 LE)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrcSeal;

/// CRC-32 (IEEE 802.3, reflected) of `data`.
fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    !data.iter().fold(!0u32, |crc, byte| {
        TABLE[((crc ^ u32::from(*byte)) & 0xff) as usize] ^ (crc >> 8)
    })
}

impl FrameSeal for CrcSeal {
    const CONTEXT: &'static str = "checksummed device";

    const LONE_FAILURE_IS_TORN: bool = true;

    fn seal(&mut self, payload: &[u8], frame: &mut Vec<u8>) {
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
    }

    fn open(&self, body: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match body.split_last_chunk::<4>() {
            Some((payload, sum)) if crc32(payload) == u32::from_le_bytes(*sum) => {
                out.extend_from_slice(payload);
                Ok(())
            }
            _ => Err(StoreError::Corrupt {
                context: Self::CONTEXT,
                detail: format!("frame of {} bytes fails its checksum", body.len()),
            }),
        }
    }
}

/// One checked frame per append, over any inner device.
///
/// Every `append` becomes one chunk on the inner device: `u32 body length
/// || body`, the body made by the device's [`FrameSeal`]. `read_all` walks
/// the frames, checks and opens each, and returns the concatenated
/// payloads. One append is one frame, so what a caller appends in one call
/// survives a crash whole or not at all.
#[derive(Debug)]
pub struct FramedDevice<D: TruncatableDevice, S: FrameSeal> {
    inner: D,
    seal: S,
    logical_len: u64,
    /// The payloads recovered at construction, until the first `read_all`
    /// takes them or a write outdates them — recovery opens the frames
    /// once.
    opened_payload: Option<Vec<u8>>,
    /// The frame of the append in progress; kept between appends so that
    /// sealing allocates nothing.
    frame: Vec<u8>,
    stats: DeviceStats,
}

/// The frame buffer is kept from one append to the next up to this
/// capacity: a rewrite's one huge frame must not stay allocated.
const RETAINED_FRAME_BYTES: usize = 64 << 10;

/// Framed, authenticated encryption — the LUKS simulation:
/// `u32 frame_len || 12-byte nonce || ciphertext || 16-byte tag`.
pub type EncryptedFileDevice<D> = FramedDevice<D, AeadSeal>;

/// Framed, checksummed plaintext — a journal file without encryption at
/// rest: `u32 frame_len || payload || CRC-32`.
pub type ChecksummedDevice<D> = FramedDevice<D, CrcSeal>;

impl<D: TruncatableDevice> FramedDevice<D, AeadSeal> {
    /// Wrap `inner`, deriving the data key from a passphrase the way LUKS
    /// derives a volume key, and recover what it holds (see
    /// [`FramedDevice`]'s recovery rule; a lone frame that fails
    /// authentication is an error, not a torn append: a wrong passphrase
    /// looks the same).
    ///
    /// # Errors
    ///
    /// Propagates device errors; fails on a frame that does not
    /// authenticate and is not a torn final append.
    pub fn new(inner: D, passphrase: &[u8]) -> Result<Self> {
        let key = derive_key(b"gdpr-kvstore-device", passphrase, b"data-at-rest");
        let seal = AeadSeal {
            aead: ChaCha20Poly1305::new(&key),
            frame_counter: 0,
        };
        Self::recover(inner, seal)
    }
}

impl<D: TruncatableDevice> FramedDevice<D, CrcSeal> {
    /// Wrap `inner` and recover what it holds.
    ///
    /// # Errors
    ///
    /// Propagates device errors; fails on a frame that fails its checksum
    /// with whole frames behind it.
    pub fn new(inner: D) -> Result<Self> {
        Self::recover(inner, CrcSeal)
    }
}

impl<D: TruncatableDevice, S: FrameSeal> FramedDevice<D, S> {
    /// Open every frame on `inner` once: keep the payloads for the first
    /// `read_all`, tell the seal how many frames there are, and — when the
    /// final frame is incomplete, or fails its check (after an earlier one
    /// passed, unless the seal lets a lone one go) — cut that torn append
    /// off the inner device.
    fn recover(inner: D, seal: S) -> Result<Self> {
        let mut device = FramedDevice {
            inner,
            seal,
            logical_len: 0,
            opened_payload: None,
            frame: Vec::new(),
            stats: DeviceStats::default(),
        };
        let raw = device.inner.read_all()?;
        let (payload, whole) = device.decode_all(&raw, true)?;
        if whole < raw.len() {
            device.inner.truncate(whole as u64)?;
        }
        device.logical_len = payload.len() as u64;
        device.opened_payload = Some(payload);
        Ok(device)
    }

    /// Build the frame of `payload` in `self.frame`, the one buffer every
    /// append seals into.
    fn encode_frame(&mut self, payload: &[u8]) {
        self.frame.clear();
        self.frame.extend_from_slice(&[0; 4]);
        self.seal.seal(payload, &mut self.frame);
        let body_len = (self.frame.len() - 4) as u32;
        self.frame[..4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Done with the frame: keep the buffer for the next append unless it
    /// grew past [`RETAINED_FRAME_BYTES`].
    fn release_frame(&mut self) {
        if self.frame.capacity() > RETAINED_FRAME_BYTES {
            self.frame = Vec::new();
        }
    }

    /// Open the frames of `raw`; returns the payloads and how many bytes
    /// of `raw` they came from. With `drop_torn_tail` (recovery) a torn
    /// final frame ends the log, see [`Self::recover`]; without, every
    /// byte of `raw` must belong to a valid frame.
    fn decode_all(&mut self, raw: &[u8], drop_torn_tail: bool) -> Result<(Vec<u8>, usize)> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut frames = 0u64;
        while pos < raw.len() {
            let body = raw[pos..]
                .split_first_chunk::<4>()
                .and_then(|(header, rest)| rest.get(..u32::from_le_bytes(*header) as usize));
            let Some(body) = body else {
                if drop_torn_tail {
                    break;
                }
                return Err(StoreError::Corrupt {
                    context: S::CONTEXT,
                    detail: format!("truncated frame at byte {pos}"),
                });
            };
            let next = pos + 4 + body.len();
            let whole_so_far = out.len();
            if let Err(e) = self.seal.open(body, &mut out) {
                let lone_ok = frames > 0 || S::LONE_FAILURE_IS_TORN;
                if drop_torn_tail && lone_ok && next == raw.len() {
                    out.truncate(whole_so_far);
                    break;
                }
                return Err(e);
            }
            pos = next;
            frames += 1;
        }
        self.seal.resume_after(frames);
        Ok((out, pos))
    }
}

impl<D: TruncatableDevice, S: FrameSeal> StorageDevice for FramedDevice<D, S> {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.encode_frame(data);
        self.inner.append(&self.frame)?;
        self.opened_payload = None;
        self.logical_len += data.len() as u64;
        self.stats.appends += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.bytes_on_device += self.frame.len() as u64;
        self.release_frame();
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()?;
        self.stats.syncs += 1;
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        if let Some(payload) = self.opened_payload.take() {
            return Ok(payload);
        }
        let raw = self.inner.read_all()?;
        self.decode_all(&raw, false).map(|(payload, _)| payload)
    }

    fn replace(&mut self, data: &[u8]) -> Result<()> {
        self.encode_frame(data);
        self.inner.replace(&self.frame)?;
        self.opened_payload = None;
        self.logical_len = data.len() as u64;
        self.stats.bytes_written += data.len() as u64;
        self.stats.bytes_on_device = self.frame.len() as u64;
        self.release_frame();
        Ok(())
    }

    fn logical_len(&self) -> u64 {
        self.logical_len
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_device_roundtrip() {
        let mut d = MemoryDevice::new();
        d.append(b"hello ").unwrap();
        d.append(b"world").unwrap();
        d.sync().unwrap();
        assert_eq!(d.read_all().unwrap(), b"hello world");
        assert_eq!(d.logical_len(), 11);
        assert_eq!(d.stats().appends, 2);
        assert_eq!(d.stats().syncs, 1);
        d.replace(b"new").unwrap();
        assert_eq!(d.read_all().unwrap(), b"new");
    }

    #[test]
    fn memory_device_share_sees_writes() {
        let mut d = MemoryDevice::new();
        let mut view = d.share();
        d.append(b"abc").unwrap();
        assert_eq!(view.read_all().unwrap(), b"abc");
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kvstore-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn chunk(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        crate::serialize::put_bytes(&mut out, body);
        out
    }

    #[test]
    fn plain_file_device_roundtrip() {
        let path = temp_file("plain.aof");
        let (one, two, three) = (chunk(b"line1"), chunk(b"line2"), chunk(b"line3"));
        let compacted = chunk(b"compacted");
        {
            let mut d = PlainFileDevice::open(&path).unwrap();
            d.append(&one).unwrap();
            d.append(&two).unwrap();
            d.sync().unwrap();
            assert_eq!(d.read_all().unwrap(), [one.clone(), two.clone()].concat());
            d.replace(&compacted).unwrap();
            d.append(&three).unwrap();
            assert_eq!(
                d.read_all().unwrap(),
                [compacted.clone(), three.clone()].concat()
            );
            assert_eq!(d.path(), path.as_path());
        }
        // Re-open: data survives.
        let mut d = PlainFileDevice::open(&path).unwrap();
        assert_eq!(d.read_all().unwrap(), [compacted, three].concat());
        assert_eq!(d.logical_len(), 13 + 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plain_file_device_extends_ahead_and_closes_to_its_logical_end() {
        let path = temp_file("ahead.aof");
        let mut d = PlainFileDevice::open(&path).unwrap();
        d.append(&chunk(b"first")).unwrap();
        d.sync().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            extfile::EXTENT_CHUNK
        );
        assert_eq!(d.logical_len(), 9, "the logical length is not the file's");
        assert_eq!(d.stats().bytes_on_device, 9, "nor is the byte counter");
        // A second handle (a crash leaves exactly this file) stops reading
        // at the zero length word and cuts the tail.
        {
            let mut crashed = PlainFileDevice::open(&path).unwrap();
            assert_eq!(crashed.read_all().unwrap(), chunk(b"first"));
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 9);
        }
        drop(d);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 9, "clean close");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plain_file_device_drops_a_torn_final_chunk() {
        let path = temp_file("torn.aof");
        let whole = [chunk(b"kept-1"), chunk(b"kept-2")].concat();
        let torn = chunk(b"never finished");
        for cut in 1..torn.len() {
            std::fs::write(&path, [&whole[..], &torn[..cut]].concat()).unwrap();
            let mut d = PlainFileDevice::open(&path).unwrap();
            assert_eq!(d.read_all().unwrap(), whole, "cut {cut}");
            // The next append lands where the torn one began.
            d.append(&chunk(b"next")).unwrap();
            drop(d);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                [&whole[..], &chunk(b"next")[..]].concat(),
                "cut {cut}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn encrypted_device_roundtrip_and_opacity() {
        let inner = MemoryDevice::new();
        let view = inner.share();
        let mut d = EncryptedFileDevice::new(inner, b"passphrase").unwrap();
        d.append(b"personal data 1").unwrap();
        d.append(b"personal data 2").unwrap();
        assert_eq!(d.read_all().unwrap(), b"personal data 1personal data 2");
        assert_eq!(d.logical_len(), 30);

        // Ciphertext on the inner device must not contain the plaintext.
        let mut view = view;
        let raw = view.read_all().unwrap();
        assert!(raw.len() > 30, "frames add nonce+tag overhead");
        assert!(!raw.windows(8).any(|w| w == b"personal"));
    }

    #[test]
    fn encrypted_device_reopen_with_same_passphrase() {
        let inner = MemoryDevice::new();
        let shared = inner.share();
        {
            let mut d = EncryptedFileDevice::new(inner, b"pw").unwrap();
            d.append(b"abc").unwrap();
            d.append(b"def").unwrap();
        }
        let mut reopened = EncryptedFileDevice::new(shared, b"pw").unwrap();
        assert_eq!(reopened.read_all().unwrap(), b"abcdef");
        assert_eq!(reopened.logical_len(), 6);
        // New appends after reopen still decrypt.
        reopened.append(b"ghi").unwrap();
        assert_eq!(reopened.read_all().unwrap(), b"abcdefghi");
    }

    #[test]
    fn encrypted_device_wrong_passphrase_fails() {
        let inner = MemoryDevice::new();
        let shared = inner.share();
        {
            let mut d = EncryptedFileDevice::new(inner, b"correct").unwrap();
            d.append(b"secret").unwrap();
        }
        let err = EncryptedFileDevice::new(shared, b"wrong").err();
        assert!(
            err.is_some(),
            "opening with the wrong passphrase must fail authentication"
        );
    }

    #[test]
    fn encrypted_device_detects_corruption() {
        let inner = MemoryDevice::new();
        let shared = inner.share();
        let mut d = EncryptedFileDevice::new(inner, b"pw").unwrap();
        d.append(b"important").unwrap();
        // Corrupt a ciphertext byte behind the device's back.
        {
            let mut raw = shared.buf.lock();
            let last = raw.len() - 1;
            raw[last] ^= 0xff;
        }
        assert!(d.read_all().is_err());
    }

    #[test]
    fn encrypted_device_drops_a_torn_final_frame_but_not_a_damaged_earlier_one() {
        let inner = MemoryDevice::new();
        let shared = inner.share();
        let frame_two_start;
        {
            let mut d = EncryptedFileDevice::new(inner, b"pw").unwrap();
            d.append(b"one").unwrap();
            frame_two_start = shared.buf.lock().len();
            d.append(b"two").unwrap();
        }
        let intact = shared.buf.lock().clone();
        // Every cut inside the final frame, and a flipped byte in it, ends
        // the log after frame one; the tail is cut off the inner device.
        for cut in frame_two_start..intact.len() {
            *shared.buf.lock() = intact[..cut].to_vec();
            let mut d = EncryptedFileDevice::new(shared.share(), b"pw").unwrap();
            assert_eq!(d.read_all().unwrap(), b"one", "cut {cut}");
            assert_eq!(shared.buf.lock().len(), frame_two_start);
            d.append(b"again").unwrap();
            assert_eq!(d.read_all().unwrap(), b"oneagain");
        }
        let mut flipped = intact.clone();
        *flipped.last_mut().unwrap() ^= 1;
        *shared.buf.lock() = flipped;
        let mut d = EncryptedFileDevice::new(shared.share(), b"pw").unwrap();
        assert_eq!(d.read_all().unwrap(), b"one");
        // The same flip in frame one is followed by a valid frame: corrupt.
        let mut damaged = intact.clone();
        damaged[frame_two_start - 1] ^= 1;
        *shared.buf.lock() = damaged;
        assert!(EncryptedFileDevice::new(shared.share(), b"pw").is_err());
        assert_eq!(shared.buf.lock().len(), intact.len(), "nothing was cut");
    }

    #[test]
    fn crc32_matches_the_published_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksummed_device_tells_a_torn_final_frame_from_damage_before_whole_ones() {
        let path = temp_file("checksummed.aof");
        let open = || ChecksummedDevice::new(PlainFileDevice::open(&path).unwrap());
        let frame_two_start;
        {
            let mut d = open().unwrap();
            d.append(b"one").unwrap();
            frame_two_start = d.stats().bytes_on_device as usize;
            d.append(b"the second append").unwrap();
            assert_eq!(d.read_all().unwrap(), b"onethe second append");
            assert_eq!(d.stats().bytes_on_device, (3 + 17 + 2 * 8) as u64);
        }
        let intact = std::fs::read(&path).unwrap();
        // What a crash leaves of an append into a file extended ahead: the
        // frame cut anywhere, or whole in length with a hole behind the cut.
        for cut in frame_two_start..intact.len() {
            for hole in [false, true] {
                let mut torn = intact[..cut].to_vec();
                if hole {
                    torn.resize(intact.len() + 100, 0);
                }
                let survives = torn.starts_with(&intact);
                std::fs::write(&path, &torn).unwrap();
                let mut d = open().unwrap();
                let kept: &[u8] = if survives {
                    b"onethe second append"
                } else {
                    b"one"
                };
                assert_eq!(d.read_all().unwrap(), kept, "cut {cut} hole {hole}");
                // The next append lands where the whole frames end.
                d.append(b"+").unwrap();
                drop(d);
                assert_eq!(
                    open().unwrap().read_all().unwrap(),
                    [kept, b"+"].concat(),
                    "cut {cut} hole {hole}"
                );
            }
        }
        // A lone frame with a hole is a torn first append, not an error:
        // no passphrase can be wrong here.
        let mut lone = intact[..frame_two_start].to_vec();
        lone[5] = 0;
        std::fs::write(&path, &lone).unwrap();
        assert_eq!(open().unwrap().read_all().unwrap(), b"");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // The same hole with a whole frame behind it is damage.
        let mut damaged = intact.clone();
        damaged[5] = 0;
        std::fs::write(&path, &damaged).unwrap();
        assert!(open().is_err());
        assert_eq!(std::fs::read(&path).unwrap(), damaged, "nothing was cut");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn encrypted_device_replace_resets_content() {
        let mut d = EncryptedFileDevice::new(MemoryDevice::new(), b"pw").unwrap();
        d.append(b"old old old").unwrap();
        d.replace(b"fresh").unwrap();
        assert_eq!(d.read_all().unwrap(), b"fresh");
        assert_eq!(d.logical_len(), 5);
    }
}
