//! A log file whose length runs ahead of its content.
//!
//! An appending `fdatasync` has to commit the new file size through the
//! filesystem journal; a write into a region the file already covers is a
//! pure data flush. [`ExtendedFile`] therefore extends the file length
//! ahead of the log in [`EXTENT_CHUNK`] steps (`set_len`: sparse, nothing
//! is written), writes at a tracked logical end and cuts the file back to
//! that end on a clean close. The journal segments (`kvstore::device`) and
//! the audit trail (`audit::sink`) are both such files.
//!
//! What the extended region holds reads as zero bytes, so the owner's
//! format must make a zero byte at the start of an entry mean "no entry":
//! after a crash the file is still extended, and the owner finds the end of
//! its log by reading and calls [`ExtendedFile::truncate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// How far ahead of its content an [`ExtendedFile`] extends the file
/// length.
pub const EXTENT_CHUNK: u64 = 1 << 20;

/// A file written only at its logical end, with its length extended ahead.
#[derive(Debug)]
pub struct ExtendedFile {
    file: File,
    /// Logical end: the content is what lies before it, the next append
    /// lands here.
    end: u64,
    /// Length of the file (at least `end`; the difference reads as zeros).
    allocated: u64,
}

impl ExtendedFile {
    /// Open (creating if necessary) the file at `path`. Its logical end
    /// starts at the file's length: an owner that may find a crashed file
    /// reads it through [`Self::file`] and [`Self::truncate`]s to where its
    /// log ends before it appends.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the file.
    pub fn open(path: &Path) -> io::Result<Self> {
        // Not in append mode: under `O_APPEND` every write goes to the end
        // of the file, which is past the logical end.
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(ExtendedFile {
            file,
            end: len,
            allocated: len,
        })
    }

    /// The logical end: how many bytes of content the file holds.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The file, for reading (`&File` reads and seeks).
    #[must_use]
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Cut the file to its first `end` bytes, extended tail included.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error; the file is then unchanged.
    pub fn truncate(&mut self, end: u64) -> io::Result<()> {
        if self.allocated != end {
            self.file.set_len(end)?;
            self.allocated = end;
        }
        self.end = end;
        Ok(())
    }

    /// Write `data` at the logical end and advance it, extending the file
    /// first if `data` does not fit the extended region.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error; the logical end has then not moved, and
    /// whatever part of `data` landed is cut off so that it cannot sit
    /// behind the next, possibly shorter, append.
    pub fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let new_end = self.end + data.len() as u64;
        if new_end > self.allocated {
            let target = new_end.div_ceil(EXTENT_CHUNK) * EXTENT_CHUNK;
            self.file.set_len(target)?;
            self.allocated = target;
        }
        // Positional: no seek, and readers of `file()` may leave the cursor
        // wherever they like.
        if let Err(e) = self.file.write_all_at(data, self.end) {
            if self.file.set_len(self.end).is_ok() {
                self.allocated = self.end;
            }
            return Err(e);
        }
        self.end = new_end;
        Ok(())
    }

    /// Flush written data to stable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Read the content: everything before the logical end.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn read_content(&mut self) -> io::Result<Vec<u8>> {
        let mut content = Vec::with_capacity(self.end as usize);
        self.file.seek(SeekFrom::Start(0))?;
        (&self.file).take(self.end).read_to_end(&mut content)?;
        Ok(content)
    }
}

impl Drop for ExtendedFile {
    fn drop(&mut self) {
        // A clean close leaves no extended tail; errors cannot be reported
        // from drop, and the owner's next open cuts the tail just the same.
        if self.allocated != self.end {
            let _ = self.file.set_len(self.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("extfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn appends_land_at_the_logical_end_of_a_file_extended_ahead() {
        let path = temp_file("ahead.log");
        let mut f = ExtendedFile::open(&path).unwrap();
        f.append(b"one").unwrap();
        f.append(b"two").unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.end(), 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), EXTENT_CHUNK);
        assert_eq!(f.read_content().unwrap(), b"onetwo");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.starts_with(b"onetwo\0"), "the tail reads as zeros");
        // An append that does not fit extends to the next chunk boundary.
        f.append(&vec![7u8; EXTENT_CHUNK as usize]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * EXTENT_CHUNK);
        drop(f);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            6 + EXTENT_CHUNK,
            "a clean close cuts the file to its content"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_owner_cuts_a_crashed_file_to_where_its_log_ends() {
        let path = temp_file("crashed.log");
        let mut crashed = b"whole".to_vec();
        crashed.resize(4096, 0);
        std::fs::write(&path, &crashed).unwrap();
        let mut f = ExtendedFile::open(&path).unwrap();
        assert_eq!(f.end(), 4096, "the file's length until the owner knows");
        f.truncate(5).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5);
        f.append(b"+next").unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"whole+next");
        let _ = std::fs::remove_file(&path);
    }
}
