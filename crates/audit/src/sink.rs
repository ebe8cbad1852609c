//! Audit sinks: where trail lines are persisted.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use extfile::ExtendedFile;
use parking_lot::Mutex;

use crate::Result;

/// Counters describing sink activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Lines written to the sink.
    pub lines: u64,
    /// Bytes written to the sink.
    pub bytes: u64,
    /// Durable sync operations performed.
    pub syncs: u64,
}

/// A destination for audit-trail lines.
pub trait AuditSink: Send + std::fmt::Debug {
    /// Persist one line (without trailing newline; the sink adds it).
    fn write_line(&mut self, line: &str) -> Result<()>;

    /// Force previously written lines to durable storage.
    fn sync(&mut self) -> Result<()>;

    /// Activity counters.
    fn stats(&self) -> SinkStats;
}

/// A sink that discards everything (the "monitoring off" baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink {
    stats: SinkStats,
}

impl NullSink {
    /// Create a null sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AuditSink for NullSink {
    fn write_line(&mut self, line: &str) -> Result<()> {
        self.stats.lines += 1;
        self.stats.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> SinkStats {
        self.stats
    }
}

/// An in-memory sink, shareable so tests can read back what was written.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
    stats: SinkStats,
}

impl MemorySink {
    /// Create an empty in-memory sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the same underlying line buffer.
    #[must_use]
    pub fn share(&self) -> MemorySink {
        MemorySink {
            lines: Arc::clone(&self.lines),
            stats: SinkStats::default(),
        }
    }

    /// A copy of every line written so far.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }
}

impl AuditSink for MemorySink {
    fn write_line(&mut self, line: &str) -> Result<()> {
        self.lines.lock().push(line.to_string());
        self.stats.lines += 1;
        self.stats.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> SinkStats {
        self.stats
    }
}

/// An append-only file sink with explicit fsync.
///
/// While the sink is open the file is longer than the trail: its length is
/// extended ahead ([`extfile`]; sparse, never written), so the tail reads
/// as NUL bytes. No line holds a NUL ([`crate::record::AuditRecord`]
/// escapes it), so **the trail ends behind the last newline that ends a
/// line without one** — the rule by which [`crate::reader::parse_trail`]
/// reads the file. A clean close cuts the file back to the trail. After a
/// crash the next open cuts it back further, behind the last line that
/// seals a block of the chain ([`crate::chain`]): with the tail it drops
/// what the crash tore, a last line that no newline ends, one with a hole
/// in it, and the whole lines of a block whose seal never landed.
///
/// Lines are collected and reach the file in **one positional write per
/// 64 KiB or less**: at [`AuditSink::sync`] (so a line synced is a line
/// written, and under a real-time policy a write is one line), when the
/// collected lines pass 64 KiB, and when the sink is dropped. A crash can
/// tear a write anywhere: the sealed blocks ahead of the tear survive and
/// the next open cuts the rest.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    file: ExtendedFile,
    /// The lines taken and not yet written, each with its newline.
    pending: Vec<u8>,
    stats: SinkStats,
}

/// How many bytes of lines a [`FileSink`] collects before it writes them
/// without being asked to sync.
const WRITE_BYTES: usize = 64 << 10;

/// Where the trail in `bytes` (which start at the start of a line) ends:
/// behind the last newline that ends a line holding no NUL byte, 0 if there
/// is none. What lies behind that is the extended tail of an open file, a
/// line a crash tore a hole in, or an append that never got its newline.
pub(crate) fn trail_end(bytes: &[u8]) -> usize {
    end_behind(bytes, |_| true)
}

/// Where a reopened sink resumes in `bytes`: behind the last whole line, as
/// for [`trail_end`], that does not end in `#`. Every line the log writes
/// ends in `#` but the one that seals its block, so this is the end of the
/// last sealed block, and what lies behind it is a block a crash cut short.
fn sealed_end(bytes: &[u8]) -> usize {
    end_behind(bytes, |line| !line.ends_with(b"#"))
}

/// Behind the last newline in `bytes` that ends a line holding no NUL byte
/// and that `ends_a_block` accepts; 0 if there is none.
fn end_behind(bytes: &[u8], ends_a_block: impl Fn(&[u8]) -> bool) -> usize {
    let mut end = bytes.len();
    while let Some(newline) = bytes[..end].iter().rposition(|b| *b == b'\n') {
        let line_start = bytes[..newline]
            .iter()
            .rposition(|b| *b == b'\n')
            .map_or(0, |previous| previous + 1);
        let line = &bytes[line_start..newline];
        if !line.contains(&0) && ends_a_block(line) {
            return newline + 1;
        }
        end = newline;
    }
    0
}

/// [`sealed_end`] of the file, found from the back: O(tail), however long
/// the trail is.
fn find_sealed_end(mut file: &File, len: u64) -> std::io::Result<u64> {
    let mut read_back = |buf: &mut Vec<u8>, from: u64, to: u64| {
        buf.resize((to - from) as usize, 0);
        file.seek(SeekFrom::Start(from))?;
        file.read_exact(buf)
    };
    // Step back over the extended tail in fixed blocks.
    let mut buf = Vec::new();
    let mut content_end = len;
    while content_end > 0 {
        let from = content_end.saturating_sub(64 << 10);
        read_back(&mut buf, from, content_end)?;
        match buf.iter().rposition(|b| *b != 0) {
            Some(last) => {
                content_end = from + last as u64 + 1;
                break;
            }
            None => content_end = from,
        }
    }
    // Then look at a window that ends there, widened until it holds the
    // end of the last sealed block: blocks are at most some 64 KiB, the
    // first or second window almost always does.
    let mut window = 64 << 10;
    loop {
        let from = content_end.saturating_sub(window);
        read_back(&mut buf, from, content_end)?;
        // A window that does not begin the file begins inside a line.
        let line_start = match buf.iter().position(|b| *b == b'\n') {
            _ if from == 0 => 0,
            Some(newline) => newline + 1,
            None => buf.len(),
        };
        let end = sealed_end(&buf[line_start..]);
        if end > 0 || from == 0 {
            return Ok(from + (line_start + end) as u64);
        }
        window *= 2;
    }
}

impl FileSink {
    /// Open (creating if necessary) a trail file at `path` and resume
    /// behind its last sealed block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = ExtendedFile::open(&path)?;
        let end = find_sealed_end(file.file(), file.end())?;
        file.truncate(end)?;
        Ok(FileSink {
            path,
            file,
            pending: Vec::new(),
            stats: SinkStats::default(),
        })
    }

    /// Write the collected lines at the end of the trail.
    fn write_pending(&mut self) -> Result<()> {
        if !self.pending.is_empty() {
            self.file.append(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Path of the trail file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AuditSink for FileSink {
    fn write_line(&mut self, line: &str) -> Result<()> {
        let taken = self.pending.len();
        self.pending.extend_from_slice(line.as_bytes());
        self.pending.push(b'\n');
        if self.pending.len() >= WRITE_BYTES {
            if let Err(e) = self.write_pending() {
                // Refused: the caller keeps this line and offers it again.
                self.pending.truncate(taken);
                return Err(e);
            }
        }
        self.stats.lines += 1;
        self.stats.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.write_pending()?;
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> SinkStats {
        self.stats
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        // The lines taken are the sink's to write; errors cannot be
        // reported from drop. The file then cuts itself back to the trail.
        let _ = self.write_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_counts_but_stores_nothing() {
        let mut s = NullSink::new();
        s.write_line("one").unwrap();
        s.write_line("two").unwrap();
        s.sync().unwrap();
        assert_eq!(s.stats().lines, 2);
        assert_eq!(s.stats().syncs, 1);
        assert!(s.stats().bytes > 0);
    }

    #[test]
    fn memory_sink_roundtrip_and_share() {
        let mut s = MemorySink::new();
        let view = s.share();
        s.write_line("alpha").unwrap();
        s.write_line("beta").unwrap();
        assert_eq!(view.lines(), vec!["alpha", "beta"]);
        assert_eq!(s.stats().lines, 2);
    }

    #[test]
    fn file_sink_appends_lines() {
        let dir = std::env::temp_dir().join(format!("audit-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trail.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileSink::open(&path).unwrap();
            s.write_line("first").unwrap();
            s.write_line("second").unwrap();
            s.sync().unwrap();
            assert_eq!(s.path(), path.as_path());
            assert_eq!(s.stats().lines, 2);
        }
        // Re-open and append more.
        {
            let mut s = FileSink::open(&path).unwrap();
            s.write_line("third").unwrap();
            s.sync().unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "first\nsecond\nthird\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_sink_extends_ahead_and_resumes_behind_the_last_complete_line() {
        let dir = std::env::temp_dir().join(format!("audit-sink-ahead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trail.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FileSink::open(&path).unwrap();
        s.write_line("first").unwrap();
        s.sync().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            extfile::EXTENT_CHUNK
        );
        assert_eq!(s.stats().bytes, 6, "bytes written, not the file length");
        let open = std::fs::read(&path).unwrap();
        assert!(open.starts_with(b"first\n\0"), "a NUL ends the open trail");
        drop(s);
        assert_eq!(std::fs::read(&path).unwrap(), b"first\n", "clean close");

        // What a crash leaves, for every way the next line can be torn: the
        // whole lines, a fragment of the next one, the extended tail.
        for torn in [
            "",
            "s",
            "second",
            "second\0\0half",
            "sec\0\0ond\n",
            "\0\0ond\n",
        ] {
            let mut crashed = format!("first\n{torn}").into_bytes();
            crashed.resize(4096, 0);
            std::fs::write(&path, &crashed).unwrap();
            let mut s = FileSink::open(&path).unwrap();
            s.write_line("next").unwrap();
            drop(s);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                b"first\nnext\n",
                "torn {torn:?}"
            );
        }
        // A fragment longer than the window `open` first looks at.
        let long = "x".repeat(100 << 10);
        for (crashed, trail) in [
            (format!("first\n{long}\0\0"), "first\nnext\n".to_string()),
            (
                format!("first\n{long}\n\0\0"),
                format!("first\n{long}\nnext\n"),
            ),
        ] {
            std::fs::write(&path, crashed).unwrap();
            let mut s = FileSink::open(&path).unwrap();
            s.write_line("next").unwrap();
            drop(s);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), trail);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_sink_resumes_behind_the_last_sealed_block() {
        let seal = "0f".repeat(32);
        let sealed = format!("a#{seal}\n");
        for (bytes, end) in [
            (format!("{sealed}b#\nc#"), sealed.len()),
            (format!("{sealed}b#\nc#{seal}\n"), 2 * sealed.len() + 3),
            (format!("{sealed}b#\nc#{}", &seal[..9]), sealed.len()),
            (format!("{sealed}b#\nc#\0\0"), sealed.len()),
            ("a#\nb#\n".to_string(), 0),
            // Lines no log wrote end no block of one: they are kept.
            ("first\nsecond\n".to_string(), 13),
        ] {
            assert_eq!(sealed_end(bytes.as_bytes()), end, "{bytes:?}");
        }

        let dir = std::env::temp_dir().join(format!("audit-sink-sealed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trail.log");
        let mut crashed = format!("{sealed}b#\nc#\n").into_bytes();
        crashed.resize(4096, 0);
        std::fs::write(&path, &crashed).unwrap();
        drop(FileSink::open(&path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), sealed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_trail_ends_behind_the_last_whole_line() {
        for (bytes, end) in [
            (&b""[..], 0),
            (b"\0\0\0", 0),
            (b"unfinished", 0),
            (b"one\n", 4),
            (b"one\ntwo\n\0\0", 8),
            (b"one\ntw", 4),
            (b"one\nt\0o\n\0", 4),
            (b"\0ne\n", 0),
            // A hole with whole lines behind it is not the end: the reader
            // reports it.
            (b"one\n\0\0\0\nthree\n", 14),
        ] {
            assert_eq!(trail_end(bytes), end, "{bytes:?}");
        }
    }
}
