//! Aggregated engine statistics.

use crate::aof::AofStats;
use crate::config::EvictionPolicy;
use crate::db::DbStats;
use crate::device::DeviceStats;
use crate::ttl_wheel::DeadlineIndexStats;

/// A point-in-time view of engine activity, combining keyspace, AOF and
/// device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total commands executed through the store façade.
    pub commands_processed: u64,
    /// Read commands executed.
    pub reads: u64,
    /// Write commands executed.
    pub writes: u64,
    /// Number of expiry cycles run.
    pub expire_cycles: u64,
    /// Keys removed by expiry cycles.
    pub keys_expired_by_cycles: u64,
    /// Automatic AOF rewrites triggered by the record threshold.
    pub auto_rewrites: u64,
    /// The configured `maxmemory` ceiling in bytes (0 = unlimited).
    pub max_memory: u64,
    /// The configured over-`maxmemory` eviction policy.
    pub eviction_policy: EvictionPolicy,
    /// Keyspace counters.
    pub db: DbStats,
    /// Deadline-index (strict-expiry) counters summed over shards: wheel
    /// occupancy, cascades, stale-entry drops and overflow parking.
    pub deadline_index: DeadlineIndexStats,
    /// AOF counters aggregated over all journal segments (zeroed when
    /// persistence is disabled).
    pub aof: AofStats,
    /// Number of journal segments (one per shard; 0 when persistence is
    /// disabled).
    pub aof_segments: u64,
    /// Device counters (zeroed when persistence is disabled).
    pub device: DeviceStats,
}

impl EngineStats {
    /// Keyspace hit ratio in `[0, 1]`; `None` when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.db.keyspace_hits + self.db.keyspace_misses;
        if total == 0 {
            None
        } else {
            Some(self.db.keyspace_hits as f64 / total as f64)
        }
    }

    /// Average fsyncs per command — a quick way to see which compliance
    /// point (`always` vs `everysec`) a run was operating at.
    #[must_use]
    pub fn fsyncs_per_command(&self) -> f64 {
        if self.commands_processed == 0 {
            0.0
        } else {
            self.aof.fsyncs as f64 / self.commands_processed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_edge_cases() {
        let mut s = EngineStats::default();
        assert_eq!(s.hit_ratio(), None);
        s.db.keyspace_hits = 3;
        s.db.keyspace_misses = 1;
        assert_eq!(s.hit_ratio(), Some(0.75));
    }

    #[test]
    fn fsyncs_per_command() {
        let mut s = EngineStats::default();
        assert_eq!(s.fsyncs_per_command(), 0.0);
        s.commands_processed = 10;
        s.aof.fsyncs = 10;
        assert!((s.fsyncs_per_command() - 1.0).abs() < f64::EPSILON);
    }
}
