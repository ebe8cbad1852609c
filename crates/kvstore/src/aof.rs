//! Append-only-file persistence.
//!
//! Redis journals every state-changing command into the AOF and fsyncs it
//! according to `appendfsync` (`always`, `everysec`, `no`). The paper's
//! GDPR retrofit piggybacks on the AOF for its audit trail — extending it
//! to record *reads* as well — and measures the cost of the three fsync
//! policies (§4.1: `always` drops throughput to ~5 % of baseline,
//! `everysec` to ~30 %).
//!
//! [`AofLog`] reproduces that mechanism over any [`StorageDevice`], so the
//! same code path can run unencrypted, or through the LUKS-simulation
//! encrypted device, or purely in memory for micro-benchmarks.

use crate::clock::SharedClock;
use crate::device::StorageDevice;
use crate::serialize::{put_bytes, Reader};
use crate::{Result, StoreError};

/// When the AOF forces its writes to durable storage.
///
/// Mirrors Redis `appendfsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `appendfsync always`: fsync after every record. The paper's
    /// *real-time* compliance point.
    Always,
    /// `appendfsync everysec`: fsync at most once per second. The paper's
    /// *eventual* compliance point (may lose up to one second of log).
    #[default]
    EverySec,
    /// `appendfsync no`: leave flushing to the OS.
    Never,
}

impl FsyncPolicy {
    /// Parse the Redis configuration spelling (`always`/`everysec`/`no`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Config`] for unknown spellings.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "everysec" => Ok(FsyncPolicy::EverySec),
            "no" | "never" => Ok(FsyncPolicy::Never),
            other => Err(StoreError::Config(format!(
                "unknown fsync policy {other:?}"
            ))),
        }
    }

    /// The Redis configuration spelling.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::EverySec => "everysec",
            FsyncPolicy::Never => "no",
        }
    }
}

/// Counters describing AOF activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AofStats {
    /// Records appended since the log was opened.
    pub records_appended: u64,
    /// Logical bytes appended (record payloads plus framing).
    pub bytes_appended: u64,
    /// Number of fsync operations issued.
    pub fsyncs: u64,
    /// Number of rewrite (compaction) operations performed.
    pub rewrites: u64,
    /// Records dropped from the log by rewrites (deleted/expired data that
    /// was still physically present — the §4.3 concern).
    pub records_compacted_away: u64,
    /// Records appended but not yet fsynced at snapshot time — the paper's
    /// "risk window" (how much log a crash right now would lose).
    pub unsynced_records: u64,
    /// Fsyncs issued by the group committer (a subset of `fsyncs`).
    pub group_commits: u64,
    /// Records made durable by group commits (batch sizes summed).
    pub group_commit_records: u64,
    /// Largest single group-commit batch observed.
    pub max_group_commit_batch: u64,
}

impl AofStats {
    /// Fold another segment's counters into this one (used to aggregate
    /// per-shard AOF segments into one engine-wide view).
    pub fn absorb(&mut self, other: &AofStats) {
        self.records_appended += other.records_appended;
        self.bytes_appended += other.bytes_appended;
        self.fsyncs += other.fsyncs;
        self.rewrites += other.rewrites;
        self.records_compacted_away += other.records_compacted_away;
        self.unsynced_records += other.unsynced_records;
        self.group_commits += other.group_commits;
        self.group_commit_records += other.group_commit_records;
        self.max_group_commit_batch = self
            .max_group_commit_batch
            .max(other.max_group_commit_batch);
    }

    /// Average records made durable per group-commit fsync; `None` until a
    /// group commit has happened. Under `always` fsync this is the batching
    /// factor: values above 1.0 mean writers shared fsyncs.
    #[must_use]
    pub fn avg_group_commit_batch(&self) -> Option<f64> {
        if self.group_commits == 0 {
            None
        } else {
            Some(self.group_commit_records as f64 / self.group_commits as f64)
        }
    }
}

/// The append-only log.
#[derive(Debug)]
pub struct AofLog {
    device: Box<dyn StorageDevice>,
    policy: FsyncPolicy,
    clock: SharedClock,
    last_fsync_ms: u64,
    /// Records appended since the last fsync (at risk on crash).
    unsynced_records: u64,
    /// Records currently in the log (including ones that a rewrite would
    /// drop); used to size rewrite savings.
    live_records: u64,
    stats: AofStats,
}

impl AofLog {
    /// Create a log over `device` with the given fsync policy.
    pub fn new(device: Box<dyn StorageDevice>, policy: FsyncPolicy, clock: SharedClock) -> Self {
        let now = clock.now_millis();
        AofLog {
            device,
            policy,
            clock,
            last_fsync_ms: now,
            unsynced_records: 0,
            live_records: 0,
            stats: AofStats::default(),
        }
    }

    /// Current fsync policy.
    #[must_use]
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Activity counters (with the live unsynced-records gauge filled in).
    #[must_use]
    pub fn stats(&self) -> AofStats {
        AofStats {
            unsynced_records: self.unsynced_records,
            ..self.stats
        }
    }

    /// Number of records appended but not yet fsynced — the paper's "risk
    /// of losing one second worth of logs" quantified.
    #[must_use]
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced_records
    }

    /// Bytes currently on the underlying device.
    #[must_use]
    pub fn device_len(&self) -> u64 {
        self.device.logical_len()
    }

    /// Activity counters of the underlying device (distinguishes logical
    /// bytes from physical bytes — the encrypting device's frame overhead
    /// shows up here).
    #[must_use]
    pub fn device_stats(&self) -> crate::device::DeviceStats {
        self.device.stats()
    }

    /// Append one record (an encoded command or audit entry) and apply the
    /// fsync policy.
    ///
    /// # Errors
    ///
    /// Propagates device I/O or encryption errors.
    pub fn append(&mut self, record: &[u8]) -> Result<()> {
        let mut framed = Vec::with_capacity(record.len() + 4);
        put_bytes(&mut framed, record);
        self.append_framed_unsynced(&framed, 1)?;
        self.maybe_fsync()
    }

    /// Append `records` records that are already framed (each
    /// `u32 length || payload`, back to back in `framed`) in **one** device
    /// append, **without** applying the fsync policy; returns the position
    /// of the last one (1-based count of records appended so far). One
    /// device append is one frame of a [`crate::device::FramedDevice`], so
    /// after a crash the log holds all of them or none.
    ///
    /// The sharded journal uses this to decouple the append (which must
    /// happen under the owning shard's lock to preserve per-key order) from
    /// durability (which a group committer batches after the lock drops).
    ///
    /// # Errors
    ///
    /// Propagates device I/O or encryption errors.
    pub fn append_framed_unsynced(&mut self, framed: &[u8], records: u64) -> Result<u64> {
        self.device.append(framed)?;
        self.stats.records_appended += records;
        self.stats.bytes_appended += framed.len() as u64;
        self.live_records += records;
        self.unsynced_records += records;
        Ok(self.stats.records_appended)
    }

    /// Position of the most recently appended record (cumulative count;
    /// monotonic across rewrites). A group committer that fsyncs now covers
    /// every position up to and including this one.
    #[must_use]
    pub fn appended_pos(&self) -> u64 {
        self.stats.records_appended
    }

    /// Apply the fsync policy given the current time. Called internally by
    /// [`Self::append`]; callers using `EverySec` should also invoke it
    /// periodically from their event loop (the engine's `tick`).
    pub fn maybe_fsync(&mut self) -> Result<()> {
        match self.policy {
            FsyncPolicy::Always => self.fsync(),
            FsyncPolicy::EverySec => {
                let now = self.clock.now_millis();
                if now.saturating_sub(self.last_fsync_ms) >= 1_000 {
                    self.fsync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Force an fsync regardless of policy.
    pub fn fsync(&mut self) -> Result<()> {
        self.device.sync()?;
        self.stats.fsyncs += 1;
        self.unsynced_records = 0;
        self.last_fsync_ms = self.clock.now_millis();
        Ok(())
    }

    /// Read every record currently in the log, in append order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] if the framing is damaged, and
    /// propagates device errors.
    pub fn load(&mut self) -> Result<Vec<Vec<u8>>> {
        let raw = self.device.read_all()?;
        let mut reader = Reader::new(&raw);
        let mut records = Vec::new();
        while !reader.is_at_end() {
            records.push(reader.get_bytes("aof record")?);
        }
        self.live_records = records.len() as u64;
        Ok(records)
    }

    /// Rewrite (compact) the log so it contains exactly `records`, dropping
    /// everything else — including tombstones of deleted personal data that
    /// §4.3 of the paper worries about. Returns the number of records that
    /// were compacted away.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn rewrite<'a>(&mut self, records: impl Iterator<Item = &'a [u8]>) -> Result<u64> {
        let mut content = Vec::new();
        let mut kept = 0u64;
        for record in records {
            put_bytes(&mut content, record);
            kept += 1;
        }
        self.device.replace(&content)?;
        self.device.sync()?;
        let dropped = self.live_records.saturating_sub(kept);
        self.live_records = kept;
        self.stats.rewrites += 1;
        self.stats.records_compacted_away += dropped;
        self.stats.fsyncs += 1;
        self.unsynced_records = 0;
        self.last_fsync_ms = self.clock.now_millis();
        Ok(dropped)
    }

    /// Swap in an already-written, already-synced replacement device (the
    /// segment-set rewrite protocol builds the new segment files first,
    /// commits them atomically through the manifest, then swaps each log
    /// onto its new device). Counters carry over so stats stay cumulative
    /// across rewrites; `kept` is the number of records on the new device.
    pub fn swap_rewritten(&mut self, device: Box<dyn StorageDevice>, kept: u64) {
        self.device = device;
        let dropped = self.live_records.saturating_sub(kept);
        self.live_records = kept;
        self.stats.rewrites += 1;
        self.stats.records_compacted_away += dropped;
        self.stats.fsyncs += 1;
        self.unsynced_records = 0;
        self.last_fsync_ms = self.clock.now_millis();
    }

    /// Consume the log and hand back its device (used by the rewrite
    /// protocol, which stages new segment content through a scratch log).
    #[must_use]
    pub fn into_device(self) -> Box<dyn StorageDevice> {
        self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimClock, SystemClock};
    use crate::device::MemoryDevice;
    use std::sync::Arc;

    fn mem_log(policy: FsyncPolicy, clock: SimClock) -> AofLog {
        AofLog::new(Box::new(MemoryDevice::new()), policy, Arc::new(clock))
    }

    #[test]
    fn fsync_policy_parse_and_display() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(
            FsyncPolicy::parse("everysec").unwrap(),
            FsyncPolicy::EverySec
        );
        assert_eq!(FsyncPolicy::parse("no").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Always.as_str(), "always");
        assert_eq!(FsyncPolicy::EverySec.as_str(), "everysec");
        assert_eq!(FsyncPolicy::Never.as_str(), "no");
    }

    #[test]
    fn append_and_load_roundtrip() {
        let mut log = mem_log(FsyncPolicy::Never, SimClock::new(0));
        log.append(b"record one").unwrap();
        log.append(b"record two").unwrap();
        log.append(b"").unwrap();
        let records = log.load().unwrap();
        assert_eq!(
            records,
            vec![b"record one".to_vec(), b"record two".to_vec(), Vec::new()]
        );
        assert_eq!(log.stats().records_appended, 3);
    }

    #[test]
    fn always_policy_fsyncs_every_record() {
        let mut log = mem_log(FsyncPolicy::Always, SimClock::new(0));
        for i in 0..5u8 {
            log.append(&[i]).unwrap();
        }
        assert_eq!(log.stats().fsyncs, 5);
        assert_eq!(log.unsynced_records(), 0);
    }

    #[test]
    fn everysec_policy_batches_fsyncs() {
        let clock = SimClock::new(0);
        let mut log = AofLog::new(
            Box::new(MemoryDevice::new()),
            FsyncPolicy::EverySec,
            Arc::new(clock.clone()),
        );
        for i in 0..10u8 {
            log.append(&[i]).unwrap();
        }
        assert_eq!(log.stats().fsyncs, 0, "no fsync inside the first second");
        assert_eq!(log.unsynced_records(), 10);
        clock.advance_millis(1_001);
        log.append(&[99]).unwrap();
        assert_eq!(log.stats().fsyncs, 1);
        assert_eq!(log.unsynced_records(), 0);
    }

    #[test]
    fn never_policy_never_fsyncs_on_append() {
        let mut log = mem_log(FsyncPolicy::Never, SimClock::new(0));
        for _ in 0..100 {
            log.append(b"x").unwrap();
        }
        assert_eq!(log.stats().fsyncs, 0);
        log.fsync().unwrap();
        assert_eq!(log.stats().fsyncs, 1);
    }

    #[test]
    fn rewrite_drops_stale_records() {
        let mut log = mem_log(FsyncPolicy::Never, SimClock::new(0));
        for i in 0..10u8 {
            log.append(&[i]).unwrap();
        }
        // Compact down to 3 surviving records.
        let survivors: Vec<Vec<u8>> = vec![vec![0], vec![1], vec![2]];
        let dropped = log.rewrite(survivors.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(dropped, 7);
        assert_eq!(log.load().unwrap(), survivors);
        assert_eq!(log.stats().rewrites, 1);
        assert_eq!(log.stats().records_compacted_away, 7);
    }

    #[test]
    fn works_with_system_clock_too() {
        let mut log = AofLog::new(
            Box::new(MemoryDevice::new()),
            FsyncPolicy::Always,
            Arc::new(SystemClock),
        );
        log.append(b"r").unwrap();
        assert_eq!(log.load().unwrap(), vec![b"r".to_vec()]);
    }

    #[test]
    fn corrupt_framing_is_detected() {
        let mut device = MemoryDevice::new();
        device.append(&[0xff, 0xff, 0xff, 0xff, 1, 2]).unwrap(); // absurd length prefix
        let mut log = AofLog::new(
            Box::new(device),
            FsyncPolicy::Never,
            Arc::new(SimClock::new(0)),
        );
        assert!(log.load().is_err());
    }
}
