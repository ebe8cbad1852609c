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
/// line without one** — the one rule by which this sink resumes and
/// [`crate::reader::parse_trail`] reads the file. A clean close cuts the file back to the
/// trail; after a crash the next open does, and with the tail drops what
/// the crash tore: a last line that no newline ends, or one with a hole in
/// it.
///
/// Lines are collected in a block and reach the file in **one positional
/// write per block**: at [`AuditSink::sync`] (so a line synced is a line
/// written, and under a real-time policy a block is one line), when the
/// block passes 64 KiB, and when the sink is dropped. A crash can tear a
/// block of many lines anywhere: by the rule above the whole lines ahead of
/// the tear survive and the rest is dropped.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    file: ExtendedFile,
    /// The lines taken and not yet written, each with its newline.
    block: Vec<u8>,
    stats: SinkStats,
}

/// How many bytes of lines a [`FileSink`] collects before it writes them
/// without being asked to sync.
const BLOCK_BYTES: usize = 64 << 10;

/// Where the trail in `bytes` (which start at the start of a line) ends:
/// behind the last newline that ends a line holding no NUL byte, 0 if there
/// is none. What lies behind that is the extended tail of an open file, a
/// line a crash tore a hole in, or an append that never got its newline.
pub(crate) fn trail_end(bytes: &[u8]) -> usize {
    let mut end = bytes.len();
    while let Some(newline) = bytes[..end].iter().rposition(|b| *b == b'\n') {
        let line_start = bytes[..newline]
            .iter()
            .rposition(|b| *b == b'\n')
            .map_or(0, |previous| previous + 1);
        if !bytes[line_start..newline].contains(&0) {
            return newline + 1;
        }
        end = newline;
    }
    0
}

/// [`trail_end`] of the file, found from the back: O(tail), however long
/// the trail is.
fn find_trail_end(mut file: &File, len: u64) -> std::io::Result<u64> {
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
    // end of the trail: lines are short, the first one almost always does.
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
        let end = trail_end(&buf[line_start..]);
        if end > 0 || from == 0 {
            return Ok(from + (line_start + end) as u64);
        }
        window *= 2;
    }
}

impl FileSink {
    /// Open (creating if necessary) a trail file at `path` and resume
    /// where its trail ends.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = ExtendedFile::open(&path)?;
        let end = find_trail_end(file.file(), file.end())?;
        file.truncate(end)?;
        Ok(FileSink {
            path,
            file,
            block: Vec::new(),
            stats: SinkStats::default(),
        })
    }

    /// Write the collected block at the end of the trail.
    fn write_block(&mut self) -> Result<()> {
        if !self.block.is_empty() {
            self.file.append(&self.block)?;
            self.block.clear();
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
        let taken = self.block.len();
        self.block.extend_from_slice(line.as_bytes());
        self.block.push(b'\n');
        if self.block.len() >= BLOCK_BYTES {
            if let Err(e) = self.write_block() {
                // Refused: the caller keeps this line and offers it again.
                self.block.truncate(taken);
                return Err(e);
            }
        }
        self.stats.lines += 1;
        self.stats.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.write_block()?;
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
        let _ = self.write_block();
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
