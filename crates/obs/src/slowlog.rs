//! Bounded ring of the slowest requests, Redis-`SLOWLOG` style.
//!
//! The dispatcher times every request; when a request's duration meets
//! the configured threshold it is pushed here with a redacted command
//! representation. The ring keeps only the most recent `max_len`
//! entries; ids are monotonic for the life of the process so a client
//! polling `SLOWLOG GET` can detect entries it has already seen even
//! across a `RESET` (reset clears entries, not the id counter — matching
//! Redis).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Cap on each captured argument's length; longer args are truncated
/// with a `... (N more bytes)` marker, as Redis does, so one giant SET
/// cannot bloat the ring.
const MAX_ARG_LEN: usize = 128;
/// Cap on captured argument count per entry.
const MAX_ARGS: usize = 16;

/// One slow request.
#[derive(Debug, Clone)]
pub struct SlowlogEntry {
    /// Monotonic id, unique for the life of the process.
    pub id: u64,
    /// Unix timestamp (seconds) when the request finished.
    pub unix_secs: u64,
    /// Request duration in microseconds.
    pub duration_micros: u64,
    /// Command name plus (truncated) arguments.
    pub command: Vec<String>,
}

/// Thread-safe bounded slow-request log.
///
/// The threshold is signed, Redis-style: negative disables logging
/// entirely, zero logs every request, positive logs requests that take
/// at least that many microseconds.
#[derive(Debug)]
pub struct Slowlog {
    threshold_micros: AtomicI64,
    next_id: AtomicU64,
    max_len: usize,
    ring: Mutex<VecDeque<SlowlogEntry>>,
}

impl Slowlog {
    /// Create a slowlog with the given threshold (µs, negative =
    /// disabled) holding at most `max_len` entries.
    #[must_use]
    pub fn new(threshold_micros: i64, max_len: usize) -> Self {
        Slowlog {
            threshold_micros: AtomicI64::new(threshold_micros),
            next_id: AtomicU64::new(0),
            max_len: max_len.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Current threshold in microseconds (negative = disabled).
    #[must_use]
    pub fn threshold_micros(&self) -> i64 {
        self.threshold_micros.load(Ordering::Relaxed)
    }

    /// Change the threshold at runtime.
    pub fn set_threshold_micros(&self, micros: i64) {
        self.threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// Maximum number of retained entries.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Cheap hot-path check: should a request of this duration be logged?
    #[must_use]
    pub fn should_log(&self, duration_micros: u64) -> bool {
        let threshold = self.threshold_micros.load(Ordering::Relaxed);
        threshold >= 0 && duration_micros >= threshold as u64
    }

    /// Record a slow request. `name` is the command name; `args` the raw
    /// argument bytes (lossily decoded and truncated for capture).
    pub fn push<I>(&self, duration_micros: u64, name: &str, args: I)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: AsRef<[u8]>,
    {
        let args = args.into_iter();
        let total = args.len();
        let mut command = Vec::with_capacity(1 + total.min(MAX_ARGS + 1));
        command.push(name.to_string());
        for arg in args.take(MAX_ARGS) {
            command.push(render_arg(arg.as_ref()));
        }
        if total > MAX_ARGS {
            command.push(format!("... ({} more arguments)", total - MAX_ARGS));
        }
        let entry = SlowlogEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            unix_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            duration_micros,
            command,
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.max_len {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The most recent `count` entries, newest first (Redis order).
    #[must_use]
    pub fn entries(&self, count: usize) -> Vec<SlowlogEntry> {
        let ring = self.ring.lock().unwrap();
        ring.iter().rev().take(count).cloned().collect()
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// True when no entries are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained entries (ids keep counting up).
    pub fn reset(&self) {
        self.ring.lock().unwrap().clear();
    }
}

fn render_arg(arg: &[u8]) -> String {
    if arg.len() <= MAX_ARG_LEN {
        String::from_utf8_lossy(arg).into_owned()
    } else {
        format!(
            "{}... ({} more bytes)",
            String::from_utf8_lossy(&arg[..MAX_ARG_LEN]),
            arg.len() - MAX_ARG_LEN
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_semantics() {
        let log = Slowlog::new(100, 8);
        assert!(!log.should_log(99));
        assert!(log.should_log(100));
        assert!(log.should_log(5_000));

        log.set_threshold_micros(-1);
        assert!(!log.should_log(u64::MAX), "negative threshold disables");

        log.set_threshold_micros(0);
        assert!(log.should_log(0), "zero threshold logs everything");
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let log = Slowlog::new(0, 3);
        for i in 0..10u64 {
            log.push(i, "GET", &[format!("key{i}").into_bytes()]);
        }
        assert_eq!(log.len(), 3);
        let entries = log.entries(10);
        assert_eq!(entries.len(), 3);
        // Newest first: durations 9, 8, 7; ids 9, 8, 7.
        assert_eq!(
            entries
                .iter()
                .map(|e| e.duration_micros)
                .collect::<Vec<_>>(),
            vec![9, 8, 7]
        );
        assert_eq!(entries[0].id, 9);
        assert_eq!(entries[0].command, vec!["GET", "key9"]);
    }

    #[test]
    fn reset_clears_entries_but_not_ids() {
        let log = Slowlog::new(0, 8);
        log.push(1, "PING", &[] as &[&[u8]]);
        log.push(2, "PING", &[] as &[&[u8]]);
        log.reset();
        assert!(log.is_empty());
        log.push(3, "PING", &[] as &[&[u8]]);
        assert_eq!(log.entries(1)[0].id, 2, "id counter survives reset");
    }

    #[test]
    fn oversized_args_are_truncated() {
        let log = Slowlog::new(0, 4);
        let big = vec![b'x'; 4096];
        let args: Vec<Vec<u8>> = (0..40).map(|i| vec![b'a' + (i % 26)]).collect();
        log.push(10, "SET", std::slice::from_ref(&big));
        log.push(11, "DEL", &args);
        let entries = log.entries(2);
        let set = &entries[1];
        assert!(set.command[1].len() < big.len());
        assert!(set.command[1].ends_with("... (3968 more bytes)"));
        let del = &entries[0];
        assert_eq!(del.command.len(), 1 + MAX_ARGS + 1);
        assert_eq!(*del.command.last().unwrap(), "... (24 more arguments)");
    }
}
