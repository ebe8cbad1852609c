//! The trail's front: per-shard buffers under eventual compliance, the
//! archive under real-time compliance.
//!
//! The paper's monitoring retrofit (§4.1) funnels every interaction into
//! one log — which, naively shared, would re-serialize the sharded engine
//! on its hottest path. [`AuditPipeline`] keeps the single [`AuditLog`]
//! (sequence numbers and the tamper-evident hash chain need one writer)
//! and never puts it on a request path that must wait for it:
//!
//! * under **eventual** compliance a record is rendered, from the
//!   operation's borrowed fields, into its shard's buffer as its trail line
//!   less the sequence number (shard-local lock only; no record object is
//!   built) and the log, which only numbers and chains those lines, is
//!   only touched when the buffer fills, on the periodic
//!   [`AuditPipeline::flush`] from `tick`,
//!   or when the trail is read back — so the loss window stays bounded by
//!   `MAX_BUFFERED_PER_SHARD` records per shard plus the flush policy's
//!   own window, which is exactly the "bounded lag" the eventual end of
//!   the compliance spectrum admits;
//! * under **real-time** compliance (an `audit_flush` that
//!   [`is_real_time`](audit::policy::FlushPolicy::is_real_time)) a record
//!   is durable before its operation returns because it is an `EVIDENCE`
//!   record committed in the engine journal, with the operation or on its
//!   own; the log here is the archive the journal is copied into
//!   behind that commit (its [`Archiver`] implementation, which renders
//!   each line from the evidence bytes it borrows), one sink sync per pass.

use audit::log::{AuditLog, AuditLogStats, EventBatch};
use audit::record::AuditEvent;
use audit::sink::SinkStats;
use kvstore::store::{ArchiveResult, Archiver};
use parking_lot::Mutex;

/// Cap on records parked in one shard's buffer before it drains into the
/// log (bounds the evidence-loss window of eventual compliance).
pub const MAX_BUFFERED_PER_SHARD: usize = 128;

/// The sharded front of the audit trail.
#[derive(Debug)]
pub struct AuditPipeline {
    log: Mutex<AuditLog>,
    /// Each shard's parked records, rendered in place in one reused
    /// buffer (see [`EventBatch`]).
    buffers: Vec<Mutex<EventBatch>>,
    /// The journal position `(epoch, sequence)` of the newest evidence
    /// record the log has taken from an archive pass.
    archived: Mutex<(u64, u64)>,
}

impl AuditPipeline {
    /// Build a pipeline over `log` with one buffer per engine shard.
    #[must_use]
    pub fn new(log: AuditLog, shards: usize) -> Self {
        AuditPipeline {
            log: Mutex::new(log),
            buffers: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            archived: Mutex::new((0, 0)),
        }
    }

    /// Record one interaction in the shard's buffer, rendered there.
    /// Recording cannot fail; sink errors surface on flush.
    pub fn emit(&self, shard: usize, event: &AuditEvent<'_>) {
        let mut buffer = self.buffers[shard % self.buffers.len()].lock();
        buffer.push(event);
        if buffer.len() >= MAX_BUFFERED_PER_SHARD {
            self.append_batch(&mut buffer);
        }
    }

    /// Move every buffered record into the log (assigning sequence numbers
    /// and chain digests) without forcing a sink flush.
    pub fn drain(&self) {
        for buffer in &self.buffers {
            self.append_batch(&mut buffer.lock());
        }
    }

    /// Hand a shard's batch to the log, which numbers and chains its lines
    /// and leaves it empty. Lock order: a shard buffer, then the log; no
    /// path holds two buffers or takes a buffer under the log.
    fn append_batch(&self, batch: &mut EventBatch) {
        if !batch.is_empty() {
            // The log keeps a line its sink refused and retries it on flush.
            let _ = self.log.lock().record_batch(batch);
        }
    }

    /// Drain all buffers and flush the log to its sink.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn flush(&self) -> audit::Result<()> {
        self.drain();
        self.log.lock().flush()
    }

    /// Digest of the chain tip (drains first so the tip covers everything
    /// emitted so far).
    #[must_use]
    pub fn chain_tip(&self) -> String {
        self.drain();
        self.log.lock().chain_tip()
    }

    /// Log counters (drains first so `records` reflects emissions).
    #[must_use]
    pub fn log_stats(&self) -> AuditLogStats {
        self.drain();
        self.log.lock().stats()
    }

    /// Counters of the underlying sink.
    #[must_use]
    pub fn sink_stats(&self) -> SinkStats {
        self.log.lock().sink_stats()
    }

    /// Records currently parked in shard buffers (not yet in the log).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(|b| b.lock().len()).sum()
    }
}

impl Drop for AuditPipeline {
    fn drop(&mut self) {
        // Best-effort: push parked evidence into the log; the log's own
        // Drop then flushes it to the sink.
        self.drain();
    }
}

/// The archive of real-time evidence: an archive pass streams the
/// journal's evidence into the log, a record at a time in journal order,
/// then flushes it — one sink sync per pass.
impl Archiver for AuditPipeline {
    /// Give the log the record at `(epoch, seq)` unless it already took it
    /// (a failed pass hands its evidence over again).
    ///
    /// # Errors
    ///
    /// [`audit::AuditError::Corrupt`] for a payload that does not decode.
    fn take(&self, epoch: u64, seq: u64, key: &str, payload: &[u8]) -> ArchiveResult {
        let mut archived = self.archived.lock();
        if archived.0 != epoch {
            *archived = (epoch, 0);
        }
        if seq <= archived.1 {
            return Ok(());
        }
        let event = AuditEvent::decode(Some(key).filter(|key| !key.is_empty()), payload)?;
        // The log keeps a line its sink refused and retries it on flush.
        let _ = self.log.lock().record_event(&event);
        archived.1 = seq;
        Ok(())
    }

    /// Flush the log: the sink sync of the pass.
    ///
    /// # Errors
    ///
    /// Sink errors, after which the log keeps what it took and the next
    /// pass retries only the flush.
    fn seal(&self) -> ArchiveResult {
        Ok(self.log.lock().flush()?)
    }

    /// Follow the records it took into the rewritten journal, so that a
    /// pass over it does not take them again.
    fn renumbered(&self, epoch: u64, new_epoch: u64, renumber: &dyn Fn(u64) -> u64) {
        let mut archived = self.archived.lock();
        if archived.0 == epoch {
            *archived = (new_epoch, renumber(archived.1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit::policy::FlushPolicy;
    use audit::record::{AuditRecord, Operation};
    use audit::sink::MemorySink;

    fn record(ts: u64) -> AuditRecord {
        AuditRecord::new(ts, "tester", Operation::Read).key("k")
    }

    #[test]
    fn archive_takes_each_evidence_record_once_and_syncs_once_per_pass() {
        let sink = MemorySink::new();
        let view = sink.share();
        let pipeline = AuditPipeline::new(AuditLog::new(Box::new(sink), FlushPolicy::Manual), 4);
        let pass = |epoch: u64, seqs: &[u64]| -> ArchiveResult {
            for &seq in seqs {
                pipeline.take(epoch, seq, "k", &record(seq).encode())?;
            }
            pipeline.seal()
        };
        pass(1, &[3, 5]).unwrap();
        assert_eq!(view.lines().len(), 2);
        // A pass handed what an earlier one took skips it.
        pass(1, &[3, 5, 8]).unwrap();
        assert_eq!(view.lines().len(), 3);
        // A new epoch renumbers the journal.
        pass(2, &[1]).unwrap();
        let lines = view.lines();
        assert_eq!(lines.len(), 4);
        assert_eq!(pipeline.log_stats().flushes, 3);
        let parsed = audit::reader::parse_trail(&lines.join("\n")).unwrap();
        let stamps: Vec<u64> = parsed.iter().map(|r| r.record.timestamp_ms).collect();
        assert_eq!(stamps, [3, 5, 8, 1]);
        assert!(parsed.iter().all(|r| r.record.key.as_deref() == Some("k")));
        audit::reader::verify_trail(&parsed).unwrap();
        assert!(pipeline.take(2, 2, "k", b"junk").is_err());
        assert_eq!(view.lines().len(), 4);
        // A rewrite that carried seq 1 of epoch 2 over as seq 11 of epoch 3.
        pipeline.renumbered(2, 3, &|seq| if seq >= 1 { 11 } else { 10 });
        pass(3, &[11, 12]).unwrap();
        let parsed = audit::reader::parse_trail(&view.lines().join("\n")).unwrap();
        let stamps: Vec<u64> = parsed.iter().map(|r| r.record.timestamp_ms).collect();
        assert_eq!(stamps, [3, 5, 8, 1, 12]);
    }

    #[test]
    fn eventual_pipeline_buffers_until_flush() {
        let sink = MemorySink::new();
        let view = sink.share();
        let pipeline = AuditPipeline::new(AuditLog::new(Box::new(sink), FlushPolicy::Manual), 4);
        for i in 0..10 {
            pipeline.emit(i % 4, &record(i as u64).event());
        }
        assert_eq!(pipeline.buffered(), 10);
        assert_eq!(view.lines().len(), 0);
        pipeline.flush().unwrap();
        assert_eq!(pipeline.buffered(), 0);
        assert_eq!(view.lines().len(), 10);
    }

    #[test]
    fn full_buffer_drains_itself() {
        let sink = MemorySink::new();
        let pipeline = AuditPipeline::new(AuditLog::new(Box::new(sink), FlushPolicy::Manual), 1);
        for i in 0..MAX_BUFFERED_PER_SHARD as u64 + 5 {
            pipeline.emit(0, &record(i).event());
        }
        assert!(
            pipeline.buffered() < MAX_BUFFERED_PER_SHARD,
            "hitting the cap must hand the batch to the log"
        );
        assert_eq!(
            pipeline.log_stats().records,
            MAX_BUFFERED_PER_SHARD as u64 + 5
        );
    }

    #[test]
    fn chain_stays_verifiable_across_buffered_emission() {
        let sink = MemorySink::new();
        let view = sink.share();
        let pipeline = AuditPipeline::new(AuditLog::new(Box::new(sink), FlushPolicy::Manual), 4);
        for i in 0..20 {
            pipeline.emit(i % 4, &record(i as u64).event());
        }
        let tip = pipeline.chain_tip();
        pipeline.flush().unwrap();
        let parsed = audit::reader::parse_trail(&view.lines().join("\n")).unwrap();
        assert_eq!(audit::chain::verify_chain(&parsed).unwrap(), tip);
    }
}
