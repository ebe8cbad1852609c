//! The audit log front object.
//!
//! [`AuditLog`] assigns sequence numbers, maintains the optional hash
//! chain, renders each line in place into one buffer and flushes that to an
//! [`AuditSink`] according to a [`FlushPolicy`]. For deployments that want
//! the logging cost off the request path entirely (at the price of a wider
//! evidence-loss window), [`AsyncAuditLog`] moves the sink behind a
//! channel and a background writer thread.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

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
    /// Records accepted but not yet durable: every one since the last
    /// successful sync, still in the log's buffer or already in the sink.
    pub buffered: usize,
}

/// How many bytes of rendered lines the log holds before it hands them to
/// the sink without waiting for the flush policy. The policy still decides
/// alone when the sink is synced; this only bounds the memory that a
/// second of traffic takes.
const HAND_OVER_BYTES: usize = 64 << 10;

/// Render `record` as one trail line at the end of `out`: the record and,
/// under a chain, `#` and the digest that chains the line onto its
/// predecessor. Serialized exactly once: the chain hashes the bytes the
/// sink will get.
fn render_line(record: &AuditRecord, chain: Option<&mut ChainState>, out: &mut String) {
    let start = out.len();
    record.write_line(out);
    if let Some(chain) = chain {
        let digest = chain.append_line(&out[start..]);
        out.push('#');
        out.push_str(digest);
    }
}

/// A synchronous audit log writing to a single sink.
#[derive(Debug)]
pub struct AuditLog {
    sink: Box<dyn AuditSink>,
    policy: FlushPolicy,
    chain: Option<ChainState>,
    /// The rendered lines the sink has not taken yet, a newline behind
    /// each, in one contiguous buffer.
    buffer: String,
    /// Records accepted since the last successful sync: the lines in
    /// `buffer` and those the sink has taken but not synced.
    at_risk: usize,
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
            buffer: String::new(),
            at_risk: 0,
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

    /// Activity counters (includes the records currently at risk).
    #[must_use]
    pub fn stats(&self) -> AuditLogStats {
        AuditLogStats {
            buffered: self.at_risk,
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
    /// Propagates sink errors raised while flushing or handing lines over.
    /// The record is accepted all the same: its line stays buffered and
    /// goes out, in order, with the next flush that succeeds.
    pub fn record(&mut self, mut record: AuditRecord) -> Result<u64> {
        record.sequence = self.next_sequence;
        self.next_sequence += 1;
        self.stats.records += 1;

        render_line(&record, self.chain.as_mut(), &mut self.buffer);
        self.buffer.push('\n');
        self.at_risk += 1;

        match self.policy {
            FlushPolicy::Synchronous => self.flush()?,
            FlushPolicy::Periodic { interval_ms } => {
                if record.timestamp_ms.saturating_sub(self.last_flush_ms) >= interval_ms {
                    self.flush()?;
                    self.last_flush_ms = record.timestamp_ms;
                }
            }
            FlushPolicy::Batched { max_records } => {
                if self.at_risk >= max_records {
                    self.flush()?;
                }
            }
            FlushPolicy::Manual => {}
        }
        if self.buffer.len() >= HAND_OVER_BYTES {
            self.hand_over()?;
        }
        Ok(record.sequence)
    }

    /// Give the sink every buffered line, in order, without syncing it.
    /// The line the sink refuses, and those behind it, stay buffered.
    fn hand_over(&mut self) -> Result<()> {
        let mut taken = 0;
        let mut written = Ok(());
        for line in self.buffer.split_terminator('\n') {
            written = self.sink.write_line(line);
            if written.is_err() {
                break;
            }
            taken += line.len() + 1;
        }
        self.buffer.drain(..taken);
        written
    }

    /// Flush all buffered lines to the sink and sync it.
    ///
    /// # Errors
    ///
    /// Propagates sink errors. The lines the sink did not take stay
    /// buffered, and a failed sync stays owed, so the next flush retries
    /// both: no record is dropped because the sink was down.
    pub fn flush(&mut self) -> Result<()> {
        if self.at_risk == 0 {
            return Ok(());
        }
        self.hand_over()?;
        self.sink.sync()?;
        self.at_risk = 0;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Number of records accepted but not yet durable: every one since
    /// the last successful sync, whether the sink has its line or not.
    #[must_use]
    pub fn at_risk(&self) -> usize {
        self.at_risk
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
    sender: SyncSender<WriterMessage>,
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
        let (sender, receiver) = sync_channel::<WriterMessage>(queue_depth.max(1));
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
        let mut line = String::new();
        render_line(&record, self.chain.as_mut(), &mut line);
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

    /// A `MemorySink` whose syncs fail while the flag is up.
    #[derive(Debug)]
    struct SyncFails {
        inner: MemorySink,
        down: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl AuditSink for SyncFails {
        fn write_line(&mut self, line: &str) -> Result<()> {
            self.inner.write_line(line)
        }

        fn sync(&mut self) -> Result<()> {
            if self.down.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("sink cannot sync").into());
            }
            self.inner.sync()
        }

        fn stats(&self) -> SinkStats {
            self.inner.stats()
        }
    }

    #[test]
    fn evidence_at_risk_counts_every_line_since_the_last_successful_sync() {
        let inner = MemorySink::new();
        let view = inner.share();
        let down = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink = SyncFails {
            inner,
            down: std::sync::Arc::clone(&down),
        };
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
        for ts in 0..10_000 {
            log.record(rec(ts)).unwrap();
        }
        // The log hands lines over in 64 KiB runs: most are in the sink
        // already, none is synced, all are at risk.
        let handed_over = view.lines().len();
        assert!((5_000..10_000).contains(&handed_over), "{handed_over}");
        assert!(log.buffer.len() < HAND_OVER_BYTES);
        assert_eq!(log.sink_stats().syncs, 0);
        assert_eq!(log.at_risk(), 10_000);
        assert_eq!(log.stats().buffered, 10_000);

        // A sync that fails takes every line and leaves the count.
        down.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(log.flush().is_err());
        assert_eq!(view.lines().len(), 10_000);
        assert_eq!(log.at_risk(), 10_000);
        log.record(rec(10_000)).unwrap();
        assert_eq!(log.at_risk(), 10_001);

        down.store(false, std::sync::atomic::Ordering::SeqCst);
        log.flush().unwrap();
        assert_eq!(log.at_risk(), 0);
        assert_eq!(log.stats().buffered, 0);
        assert_eq!(log.stats().flushes, 1);
        let lines = view.lines();
        assert_eq!(lines.len(), 10_001);
        let chained: Vec<_> = lines
            .iter()
            .map(|l| parse_chained_line(l).unwrap())
            .collect();
        crate::chain::verify_chain(&chained).unwrap();
    }

    #[test]
    fn the_rendered_trail_is_what_it_was_before_lines_were_rendered_in_place() {
        // Written by the commit before this renderer, digests included.
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
        log.record(rec(1_700_000_000_000)).unwrap();
        log.record(
            AuditRecord::new(1_700_000_000_001, "pipe|actor", Operation::RightsRequest)
                .subject("subject-42")
                .purpose("analytics")
                .outcome(Outcome::Denied)
                .detail("weird|detail\nwith newline \\ and backslash, \0 too"),
        )
        .unwrap();
        log.record(AuditRecord::new(u64::MAX, "engine", Operation::Maintenance))
            .unwrap();
        log.flush().unwrap();
        assert_eq!(view.lines(), GOLDEN_TRAIL);
        let mut async_log = AsyncAuditLog::spawn(Box::new(MemorySink::new()), 4);
        async_log.record(rec(1_700_000_000_000));
        let (_, digest) = GOLDEN_TRAIL[0].rsplit_once('#').unwrap();
        assert_eq!(async_log.chain.as_ref().unwrap().tip(), digest);
    }

    const GOLDEN_TRAIL: [&str; 3] = [
        "0|1700000000000|tester|read|k|||allowed|\
         #33a1898f682b2a1d9852c7267050364afb9faee0d2af9bbb9e46b6679826136d",
        "1|1700000000001|pipe\\pactor|rights||subject-42|analytics|denied|\
         weird\\pdetail\\nwith newline \\\\ and backslash, \\0 too\
         #226effdeb933e9bfc027e4d8bf2f84aed64e81643d98ad0554dad3fe9448beeb",
        "2|18446744073709551615|engine|maintenance||||allowed|\
         #952709b8a7f465849172c61efbdb87b55853d6c163a2b3d311f1fb336a067862",
    ];

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
