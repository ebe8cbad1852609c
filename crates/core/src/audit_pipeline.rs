//! Per-shard buffered audit emission.
//!
//! The paper's monitoring retrofit (§4.1) funnels every interaction into
//! one log — which, naively shared, would re-serialize the sharded engine
//! on its hottest path. [`AuditPipeline`] keeps the single [`AuditLog`]
//! (sequence numbers and the tamper-evident hash chain need one writer)
//! but puts a small per-shard buffer in front of it:
//!
//! * under **real-time** compliance ([`crate::policy::ResponseMode::is_real_time`]) every
//!   record still goes straight to the log — durability before
//!   acknowledgement is the whole point of that policy, and the cost is
//!   what Figure 1 measures;
//! * under **eventual** compliance a record is appended to its shard's
//!   buffer (shard-local lock only) and the log is only touched when the
//!   buffer fills, on the periodic [`AuditPipeline::flush`] from `tick`,
//!   or when the trail is read back — so the loss window stays bounded by
//!   `MAX_BUFFERED_PER_SHARD` records per shard plus the flush policy's
//!   own window, which is exactly the "bounded lag" the eventual end of
//!   the compliance spectrum admits.

use audit::log::{AuditLog, AuditLogStats};
use audit::record::AuditRecord;
use audit::sink::SinkStats;
use parking_lot::Mutex;

/// Cap on records parked in one shard's buffer before it drains into the
/// log (bounds the evidence-loss window of eventual compliance).
pub const MAX_BUFFERED_PER_SHARD: usize = 128;

/// The sharded front of the audit trail.
#[derive(Debug)]
pub struct AuditPipeline {
    log: Mutex<AuditLog>,
    buffers: Vec<Mutex<Vec<AuditRecord>>>,
    real_time: bool,
}

impl AuditPipeline {
    /// Build a pipeline over `log` with one buffer per engine shard.
    /// `real_time` short-circuits buffering entirely.
    #[must_use]
    pub fn new(log: AuditLog, shards: usize, real_time: bool) -> Self {
        AuditPipeline {
            log: Mutex::new(log),
            buffers: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            real_time,
        }
    }

    /// Record one interaction, routed through the shard's buffer unless the
    /// policy is real-time. Recording into a buffer cannot fail; sink
    /// errors surface on flush.
    ///
    /// # Errors
    ///
    /// Under a real-time policy, the sink error that kept the record from
    /// becoming durable (the log keeps the line and retries it with the
    /// next record).
    pub fn emit(&self, shard: usize, record: AuditRecord) -> audit::Result<()> {
        if self.real_time {
            return self.log.lock().record(record).map(|_| ());
        }
        let drained = {
            let mut buffer = self.buffers[shard % self.buffers.len()].lock();
            buffer.push(record);
            if buffer.len() >= MAX_BUFFERED_PER_SHARD {
                Some(std::mem::take(&mut *buffer))
            } else {
                None
            }
        };
        if let Some(records) = drained {
            self.append_batch(records);
        }
        Ok(())
    }

    fn append_batch(&self, records: Vec<AuditRecord>) {
        if records.is_empty() {
            return;
        }
        // Lock order: a shard buffer is never held while taking the log
        // lock with another buffer lock outstanding; batches are handed
        // over after the buffer guard drops.
        let mut log = self.log.lock();
        for record in records {
            let _ = log.record(record);
        }
    }

    /// Move every buffered record into the log (assigning sequence numbers
    /// and chain digests) without forcing a sink flush.
    pub fn drain(&self) {
        for buffer in &self.buffers {
            let records = std::mem::take(&mut *buffer.lock());
            self.append_batch(records);
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
    /// emitted so far), if chaining is enabled.
    #[must_use]
    pub fn chain_tip(&self) -> Option<String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use audit::policy::FlushPolicy;
    use audit::record::Operation;
    use audit::sink::MemorySink;

    fn record(ts: u64) -> AuditRecord {
        AuditRecord::new(ts, "tester", Operation::Read).key("k")
    }

    #[test]
    fn real_time_pipeline_writes_through() {
        let sink = MemorySink::new();
        let view = sink.share();
        let pipeline = AuditPipeline::new(
            AuditLog::new(Box::new(sink), FlushPolicy::Synchronous),
            4,
            true,
        );
        pipeline.emit(0, record(1)).unwrap();
        pipeline.emit(3, record(2)).unwrap();
        assert_eq!(
            view.lines().len(),
            2,
            "real-time records are durable immediately"
        );
        assert_eq!(pipeline.buffered(), 0);
    }

    #[test]
    fn eventual_pipeline_buffers_until_flush() {
        let sink = MemorySink::new();
        let view = sink.share();
        let pipeline = AuditPipeline::new(
            AuditLog::new(Box::new(sink), FlushPolicy::Batched { max_records: 1_000 }),
            4,
            false,
        );
        for i in 0..10 {
            pipeline.emit(i % 4, record(i as u64)).unwrap();
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
        let pipeline = AuditPipeline::new(
            AuditLog::new(
                Box::new(sink),
                FlushPolicy::Batched {
                    max_records: 10_000,
                },
            ),
            1,
            false,
        );
        for i in 0..MAX_BUFFERED_PER_SHARD as u64 + 5 {
            pipeline.emit(0, record(i)).unwrap();
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
        let pipeline = AuditPipeline::new(
            AuditLog::new(Box::new(sink), FlushPolicy::Batched { max_records: 1_000 }),
            4,
            false,
        );
        for i in 0..20 {
            pipeline.emit(i % 4, record(i as u64)).unwrap();
        }
        let tip = pipeline.chain_tip().unwrap();
        assert!(!tip.is_empty());
        pipeline.flush().unwrap();
        let parsed = audit::reader::parse_trail(&view.lines().join("\n")).unwrap();
        audit::reader::verify_trail(&parsed).unwrap();
    }
}
