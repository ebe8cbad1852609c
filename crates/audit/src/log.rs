//! The audit log front object.
//!
//! [`AuditLog`] assigns sequence numbers, maintains the optional hash
//! chain, buffers lines and flushes them to an [`AuditSink`] according to a
//! [`FlushPolicy`]. For deployments that want the logging cost off the
//! request path entirely (at the price of a wider evidence-loss window),
//! [`AsyncAuditLog`] moves the sink behind a crossbeam channel and a
//! background writer thread.

use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender};

use crate::chain::{ChainState, ChainedRecord};
use crate::policy::FlushPolicy;
use crate::record::AuditRecord;
use crate::sink::{AuditSink, SinkStats};
use crate::Result;

/// Counters describing audit-log activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditLogStats {
    /// Records accepted by the log.
    pub records: u64,
    /// Flush operations performed (each ends in a sink sync).
    pub flushes: u64,
    /// Records currently buffered and therefore volatile.
    pub buffered: usize,
}

/// A synchronous audit log writing to a single sink.
#[derive(Debug)]
pub struct AuditLog {
    sink: Box<dyn AuditSink>,
    policy: FlushPolicy,
    chain: Option<ChainState>,
    buffer: Vec<String>,
    /// Lines the sink has taken but not yet synced.
    unsynced: bool,
    next_sequence: u64,
    last_flush_ms: u64,
    stats: AuditLogStats,
}

impl AuditLog {
    /// Create a log over `sink` with the given flush policy. Hash chaining
    /// is enabled by default; disable it with [`Self::without_chain`] to
    /// measure its cost.
    pub fn new(sink: Box<dyn AuditSink>, policy: FlushPolicy) -> Self {
        AuditLog {
            sink,
            policy,
            chain: Some(ChainState::new()),
            buffer: Vec::new(),
            unsynced: false,
            next_sequence: 0,
            last_flush_ms: 0,
            stats: AuditLogStats::default(),
        }
    }

    /// Builder-style: disable hash chaining.
    #[must_use]
    pub fn without_chain(mut self) -> Self {
        self.chain = None;
        self
    }

    /// The configured flush policy.
    #[must_use]
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Change the flush policy at runtime.
    pub fn set_policy(&mut self, policy: FlushPolicy) {
        self.policy = policy;
    }

    /// Activity counters (includes current buffer occupancy).
    #[must_use]
    pub fn stats(&self) -> AuditLogStats {
        AuditLogStats {
            buffered: self.buffer.len(),
            ..self.stats
        }
    }

    /// Counters of the underlying sink.
    #[must_use]
    pub fn sink_stats(&self) -> SinkStats {
        self.sink.stats()
    }

    /// Digest of the chain tip, if chaining is enabled.
    #[must_use]
    pub fn chain_tip(&self) -> Option<String> {
        self.chain.as_ref().map(|c| c.tip().to_string())
    }

    /// Record one interaction. Returns the sequence number assigned.
    ///
    /// # Errors
    ///
    /// Propagates sink errors raised while flushing.
    pub fn record(&mut self, mut record: AuditRecord) -> Result<u64> {
        record.sequence = self.next_sequence;
        self.next_sequence += 1;
        self.stats.records += 1;

        // Serialize exactly once: the same line feeds the chain digest and
        // the sink, so this is byte-identical to hashing the record itself.
        let mut line = record.to_line();
        if let Some(chain) = &mut self.chain {
            let digest = chain.append_line(&line);
            line.push('#');
            line.push_str(&digest);
        }
        let timestamp = record.timestamp_ms;
        self.buffer.push(line);

        match self.policy {
            FlushPolicy::Synchronous => self.flush()?,
            FlushPolicy::Periodic { interval_ms } => {
                if timestamp.saturating_sub(self.last_flush_ms) >= interval_ms {
                    self.flush()?;
                    self.last_flush_ms = timestamp;
                }
            }
            FlushPolicy::Batched { max_records } => {
                if self.buffer.len() >= max_records {
                    self.flush()?;
                }
            }
            FlushPolicy::Manual => {}
        }
        Ok(record.sequence)
    }

    /// Flush all buffered lines to the sink and sync it.
    ///
    /// # Errors
    ///
    /// Propagates sink errors. The lines the sink did not take stay
    /// buffered, and a failed sync stays owed, so the next flush retries
    /// both: no record is dropped because the sink was down.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() && !self.unsynced {
            return Ok(());
        }
        let mut taken = 0;
        let mut written = Ok(());
        for line in &self.buffer {
            written = self.sink.write_line(line);
            if written.is_err() {
                break;
            }
            taken += 1;
        }
        self.buffer.drain(..taken);
        self.unsynced |= taken > 0;
        written?;
        self.sink.sync()?;
        self.unsynced = false;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Number of records accepted but not yet durable.
    #[must_use]
    pub fn at_risk(&self) -> usize {
        self.buffer.len()
    }
}

impl Drop for AuditLog {
    fn drop(&mut self) {
        // Best-effort final flush; errors cannot be reported from drop.
        let _ = self.flush();
    }
}

/// Parse a persisted line back into `(record, digest)`; the digest part is
/// absent when chaining was disabled.
#[must_use]
pub fn parse_chained_line(line: &str) -> Option<ChainedRecord> {
    match line.rsplit_once('#') {
        Some((record_part, digest)) if digest.len() == 64 => AuditRecord::from_line(record_part)
            .map(|record| ChainedRecord {
                record,
                digest: digest.to_string(),
            }),
        _ => AuditRecord::from_line(line).map(|record| ChainedRecord {
            record,
            digest: String::new(),
        }),
    }
}

// ---------------------------------------------------------------------------

enum WriterMessage {
    Line(String),
    Flush,
    Shutdown,
}

/// An audit log whose sink runs on a background thread.
///
/// Records are handed over through a bounded channel, so a slow disk
/// back-pressures the caller instead of growing memory without bound. The
/// loss window is "whatever is still in the channel plus the writer's
/// buffer", which is why this variant only qualifies as *eventual*
/// compliance.
#[derive(Debug)]
pub struct AsyncAuditLog {
    sender: Sender<WriterMessage>,
    handle: Option<JoinHandle<()>>,
    next_sequence: u64,
    chain: Option<ChainState>,
}

impl std::fmt::Debug for WriterMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriterMessage::Line(_) => f.write_str("Line"),
            WriterMessage::Flush => f.write_str("Flush"),
            WriterMessage::Shutdown => f.write_str("Shutdown"),
        }
    }
}

impl AsyncAuditLog {
    /// Spawn the background writer over `sink`. `queue_depth` bounds the
    /// number of in-flight records.
    pub fn spawn(mut sink: Box<dyn AuditSink>, queue_depth: usize) -> Self {
        let (sender, receiver) = bounded::<WriterMessage>(queue_depth.max(1));
        let handle = std::thread::spawn(move || {
            while let Ok(message) = receiver.recv() {
                match message {
                    WriterMessage::Line(line) => {
                        let _ = sink.write_line(&line);
                    }
                    WriterMessage::Flush => {
                        let _ = sink.sync();
                    }
                    WriterMessage::Shutdown => {
                        let _ = sink.sync();
                        break;
                    }
                }
            }
        });
        AsyncAuditLog {
            sender,
            handle: Some(handle),
            next_sequence: 0,
            chain: Some(ChainState::new()),
        }
    }

    /// Record one interaction; returns the assigned sequence number.
    pub fn record(&mut self, mut record: AuditRecord) -> u64 {
        record.sequence = self.next_sequence;
        self.next_sequence += 1;
        // Serialize exactly once: the same line feeds the chain digest and
        // the sink, so this is byte-identical to hashing the record itself.
        let mut line = record.to_line();
        if let Some(chain) = &mut self.chain {
            let digest = chain.append_line(&line);
            line.push('#');
            line.push_str(&digest);
        }
        // A full queue blocks, which is the intended back-pressure.
        let _ = self.sender.send(WriterMessage::Line(line));
        record.sequence
    }

    /// Ask the writer to sync its sink.
    pub fn request_flush(&self) {
        let _ = self.sender.send(WriterMessage::Flush);
    }

    /// Shut the writer down, waiting for all queued records to be written.
    pub fn shutdown(mut self) {
        let _ = self.sender.send(WriterMessage::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AsyncAuditLog {
    fn drop(&mut self) {
        let _ = self.sender.send(WriterMessage::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Operation, Outcome};
    use crate::sink::MemorySink;

    fn rec(ts: u64) -> AuditRecord {
        AuditRecord::new(ts, "tester", Operation::Read)
            .key("k")
            .outcome(Outcome::Allowed)
    }

    #[test]
    fn synchronous_policy_flushes_every_record() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Synchronous);
        log.record(rec(1)).unwrap();
        log.record(rec(2)).unwrap();
        assert_eq!(view.lines().len(), 2);
        assert_eq!(log.at_risk(), 0);
        assert_eq!(log.stats().flushes, 2);
        assert_eq!(log.sink_stats().syncs, 2);
    }

    #[test]
    fn periodic_policy_batches_within_the_window() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::every_second());
        for ts in [10, 20, 30] {
            log.record(rec(ts)).unwrap();
        }
        // Note: the very first record flushes because last_flush_ms starts
        // at 0 and 10 - 0 >= 1000 is false — so nothing flushed yet.
        assert_eq!(view.lines().len(), 0);
        assert_eq!(log.at_risk(), 3);
        log.record(rec(1_500)).unwrap();
        assert_eq!(view.lines().len(), 4, "window elapsed, everything flushed");
        assert_eq!(log.at_risk(), 0);
    }

    #[test]
    fn batched_policy_flushes_at_capacity() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Batched { max_records: 3 });
        log.record(rec(1)).unwrap();
        log.record(rec(2)).unwrap();
        assert_eq!(view.lines().len(), 0);
        log.record(rec(3)).unwrap();
        assert_eq!(view.lines().len(), 3);
    }

    #[test]
    fn manual_policy_needs_explicit_flush_and_drop_flushes() {
        let sink = MemorySink::new();
        let view = sink.share();
        {
            let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
            log.record(rec(1)).unwrap();
            assert_eq!(view.lines().len(), 0);
            log.flush().unwrap();
            assert_eq!(view.lines().len(), 1);
            log.record(rec(2)).unwrap();
            // dropped here
        }
        assert_eq!(view.lines().len(), 2, "drop flushes the remainder");
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut log = AuditLog::new(Box::new(MemorySink::new()), FlushPolicy::Manual);
        let a = log.record(rec(1)).unwrap();
        let b = log.record(rec(2)).unwrap();
        let c = log.record(rec(3)).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(log.stats().records, 3);
    }

    #[test]
    fn chained_lines_roundtrip_and_verify() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Synchronous);
        for ts in 0..5 {
            log.record(rec(ts)).unwrap();
        }
        let tip = log.chain_tip().unwrap();
        let chained: Vec<_> = view
            .lines()
            .iter()
            .map(|l| parse_chained_line(l).unwrap())
            .collect();
        let verified_tip = crate::chain::verify_chain(&chained).unwrap();
        assert_eq!(verified_tip, tip);
    }

    #[test]
    fn without_chain_lines_have_no_digest() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Synchronous).without_chain();
        log.record(rec(7)).unwrap();
        assert!(log.chain_tip().is_none());
        let line = view.lines()[0].clone();
        let parsed = parse_chained_line(&line).unwrap();
        assert!(parsed.digest.is_empty());
        assert_eq!(parsed.record.timestamp_ms, 7);
    }

    #[test]
    fn policy_can_be_changed_at_runtime() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
        log.record(rec(1)).unwrap();
        assert_eq!(view.lines().len(), 0);
        log.set_policy(FlushPolicy::Synchronous);
        assert!(log.policy().is_real_time());
        log.record(rec(2)).unwrap();
        assert_eq!(
            view.lines().len(),
            2,
            "flush drains earlier buffered records too"
        );
    }

    #[test]
    fn async_log_writes_everything_by_shutdown() {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AsyncAuditLog::spawn(Box::new(sink), 64);
        for ts in 0..100 {
            log.record(rec(ts));
        }
        log.request_flush();
        log.shutdown();
        assert_eq!(view.lines().len(), 100);
        // Chain verifies across the async path too.
        let chained: Vec<_> = view
            .lines()
            .iter()
            .map(|l| parse_chained_line(l).unwrap())
            .collect();
        assert!(crate::chain::verify_chain(&chained).is_ok());
    }
}
