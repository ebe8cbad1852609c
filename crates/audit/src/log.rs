//! The audit log front object.
//!
//! [`AuditLog`] assigns sequence numbers, maintains the hash chain,
//! renders each line in place into one buffer and flushes that to an
//! [`AuditSink`] according to a [`FlushPolicy`]. The lines it hands over
//! at once are one block of the chain ([`crate::chain`]): the last of them
//! carries the block's seal. Callers that want the sink's cost off their
//! critical section batch through per-shard buffers in front of it (the
//! compliance pipeline does).

use crate::chain::{ChainState, ChainedRecord, LINE_END};
use crate::policy::{FlushPolicy, PERIODIC_INTERVAL_MS};
use crate::record::{AuditEvent, AuditRecord, Decimal};
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
/// second of traffic takes, and the length of a block of the chain.
const HAND_OVER_BYTES: usize = 64 << 10;

/// Events rendered as their trail lines less the sequence numbers, waiting
/// for a log to number and chain them: what a caller that batches in front
/// of the log keeps instead of record objects. Its buffers are kept from
/// batch to batch.
#[derive(Debug, Default)]
pub struct EventBatch {
    /// The rendered lines, back to back.
    lines: Vec<u8>,
    /// Each line's timestamp (for the flush policy) and where it ends.
    ends: Vec<(u64, usize)>,
}

impl EventBatch {
    /// Render `event` at the end of the batch.
    pub fn push(&mut self, event: &AuditEvent<'_>) {
        event.write_unsequenced(&mut self.lines);
        self.ends.push((event.timestamp_ms, self.lines.len()));
    }

    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A synchronous audit log writing to a single sink.
#[derive(Debug)]
pub struct AuditLog {
    sink: Box<dyn AuditSink>,
    policy: FlushPolicy,
    chain: ChainState,
    /// The rendered lines the sink has not taken yet, `#` and a newline
    /// behind each, in one contiguous buffer. The lines of the chain's open
    /// block are its last ones.
    buffer: Vec<u8>,
    /// Records accepted since the last successful sync: the lines in
    /// `buffer` and those the sink has taken but not synced.
    at_risk: usize,
    next_sequence: u64,
    last_flush_ms: u64,
    stats: AuditLogStats,
}

impl AuditLog {
    /// Create a log over `sink` with the given flush policy. Every block of
    /// lines it hands over is hash-chained to the one before it.
    pub fn new(sink: Box<dyn AuditSink>, policy: FlushPolicy) -> Self {
        AuditLog {
            sink,
            policy,
            chain: ChainState::new(),
            buffer: Vec::new(),
            at_risk: 0,
            next_sequence: 0,
            last_flush_ms: 0,
            stats: AuditLogStats::default(),
        }
    }

    /// The configured flush policy.
    #[must_use]
    pub fn policy(&self) -> FlushPolicy {
        self.policy
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

    /// Digest of the chain tip, covering every record so far: the open
    /// block is sealed first.
    #[must_use]
    pub fn chain_tip(&mut self) -> String {
        self.seal();
        self.chain.tip().to_string()
    }

    /// Record one interaction. Returns the sequence number assigned.
    ///
    /// # Errors
    ///
    /// Propagates sink errors raised while flushing or handing lines over.
    /// The record is accepted all the same: its line stays buffered and
    /// goes out, in order, with the next flush that succeeds.
    pub fn record(&mut self, record: AuditRecord) -> Result<u64> {
        self.record_event(&record.event())
    }

    /// [`Self::record`] of an event that borrows its fields.
    ///
    /// # Errors
    ///
    /// As for [`Self::record`].
    pub fn record_event(&mut self, event: &AuditEvent<'_>) -> Result<u64> {
        self.append(event.timestamp_ms, |out| event.write_unsequenced(out))
    }

    /// [`Self::record`] of every event in `batch`, in order, which is left
    /// empty: the log only numbers and chains the lines rendered there.
    ///
    /// # Errors
    ///
    /// The first sink error, as for [`Self::record`]; every event is taken
    /// all the same.
    pub fn record_batch(&mut self, batch: &mut EventBatch) -> Result<()> {
        let mut outcome = Ok(());
        let mut start = 0;
        for &(timestamp_ms, end) in &batch.ends {
            let line = &batch.lines[start..end];
            let appended = self.append(timestamp_ms, |out| out.extend_from_slice(line));
            if outcome.is_ok() {
                outcome = appended.map(drop);
            }
            start = end;
        }
        batch.lines.clear();
        batch.ends.clear();
        outcome
    }

    /// Number the line `render` writes after its sequence number, fold it
    /// into the open block (the chain hashes the bytes the sink will get)
    /// and apply the flush policy.
    fn append(&mut self, timestamp_ms: u64, render: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.stats.records += 1;

        let start = self.buffer.len();
        self.buffer
            .extend_from_slice(Decimal::new(sequence).as_bytes());
        self.buffer.push(b'|');
        render(&mut self.buffer);
        self.chain.append_line(&self.buffer[start..]);
        self.buffer.extend_from_slice(LINE_END);
        self.at_risk += 1;

        match self.policy {
            FlushPolicy::Synchronous => self.flush()?,
            FlushPolicy::Periodic => {
                if timestamp_ms.saturating_sub(self.last_flush_ms) >= PERIODIC_INTERVAL_MS {
                    self.flush()?;
                    self.last_flush_ms = timestamp_ms;
                }
            }
            FlushPolicy::Manual => {}
        }
        if self.buffer.len() >= HAND_OVER_BYTES {
            self.hand_over()?;
        }
        Ok(sequence)
    }

    /// Close the open block: its seal goes behind the `#` of its last line,
    /// the buffer's last.
    fn seal(&mut self) {
        if let Some(seal) = self.chain.seal() {
            let newline = self.buffer.pop();
            debug_assert_eq!(newline, Some(b'\n'));
            self.buffer.extend_from_slice(seal);
            self.buffer.push(b'\n');
        }
    }

    /// Seal the open block and give the sink every buffered line, in order,
    /// without syncing it. The line the sink refuses, and those behind it,
    /// stay buffered.
    fn hand_over(&mut self) -> Result<()> {
        self.seal();
        let lines = std::str::from_utf8(&self.buffer)
            .expect("the log renders UTF-8 fields and ASCII separators");
        let mut taken = 0;
        let mut written = Ok(());
        for line in lines.split_terminator('\n') {
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

/// Parse a persisted line back into `(record, seal)`. A line that ends its
/// block ends in `#` and the seal's 64 hex digits; any other ends in `#`
/// alone and parses with an empty seal, as does a line with neither.
#[must_use]
pub fn parse_chained_line(line: &str) -> Option<ChainedRecord> {
    let (record, digest) = match line.rsplit_once('#') {
        Some((record, seal)) if seal.len() == 64 && seal.bytes().all(|b| b.is_ascii_hexdigit()) => {
            (record, seal)
        }
        Some((record, "")) => (record, ""),
        _ => (line, ""),
    };
    AuditRecord::from_line(record).map(|record| ChainedRecord {
        record,
        digest: digest.to_string(),
    })
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

    /// The three records of the golden trails, as `record` takes them.
    fn golden_records() -> [AuditRecord; 3] {
        [
            rec(1_700_000_000_000),
            AuditRecord::new(1_700_000_000_001, "pipe|actor", Operation::RightsRequest)
                .subject("subject-42")
                .purpose("analytics")
                .outcome(Outcome::Denied)
                .detail("weird|detail\nwith newline \\ and backslash, \0 too"),
            AuditRecord::new(u64::MAX, "engine", Operation::Maintenance),
        ]
    }

    /// The lines `policy` has a log over a memory sink write for the
    /// golden records, flushed once at the end.
    fn golden_lines(policy: FlushPolicy) -> Vec<String> {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), policy);
        for record in golden_records() {
            log.record(record).unwrap();
        }
        log.flush().unwrap();
        view.lines()
    }

    #[test]
    fn the_rendered_trail_is_what_it_was_before_lines_were_rendered_in_place() {
        // Written by the commit before this renderer, digests included: a
        // synchronous log seals every line, as every log did then.
        assert_eq!(golden_lines(FlushPolicy::Synchronous), GOLDEN_TRAIL);
        let parsed: Vec<_> = GOLDEN_TRAIL
            .iter()
            .map(|line| parse_chained_line(line).unwrap())
            .collect();
        assert_eq!(
            crate::chain::verify_chain(&parsed).unwrap(),
            &GOLDEN_TRAIL[2][GOLDEN_TRAIL[2].len() - 64..]
        );
    }

    /// A trail that sealed every line.
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
    fn a_flush_writes_its_lines_as_one_block_with_one_seal() {
        let lines = golden_lines(FlushPolicy::Manual);
        assert_eq!(lines, GOLDEN_BLOCK);
        let block = GOLDEN_BLOCK.join("\n");
        let parsed = crate::reader::parse_trail(&block).unwrap();
        assert_eq!(parsed.len(), 3);
        assert!(parsed[..2].iter().all(|line| line.digest.is_empty()));
        assert_eq!(
            crate::chain::verify_chain(&parsed).unwrap(),
            &GOLDEN_BLOCK[2][GOLDEN_BLOCK[2].len() - 64..]
        );
    }

    /// The same records flushed once: one block, sealed by
    /// SHA-256(genesis ‖ `\n` ‖ its lines up to the final `#`).
    const GOLDEN_BLOCK: [&str; 3] = [
        "0|1700000000000|tester|read|k|||allowed|#",
        "1|1700000000001|pipe\\pactor|rights||subject-42|analytics|denied|\
         weird\\pdetail\\nwith newline \\\\ and backslash, \\0 too#",
        "2|18446744073709551615|engine|maintenance||||allowed|\
         #ecc84a8fcb8727497acdaea8861a7c98cdd32d3d1717fd48b77f81b9bed22d04",
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
        let tip = log.chain_tip();
        let chained: Vec<_> = view
            .lines()
            .iter()
            .map(|l| parse_chained_line(l).unwrap())
            .collect();
        let verified_tip = crate::chain::verify_chain(&chained).unwrap();
        assert_eq!(verified_tip, tip);
    }
}
