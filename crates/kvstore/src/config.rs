//! Engine configuration.
//!
//! The paper's experiments are all, at heart, configuration sweeps over the
//! same engine: AOF on/off, fsync policy, read-logging on/off (the
//! monitoring retrofit), encryption at rest on/off (LUKS), and the expiry
//! mode (stock lazy vs strict). [`StoreConfig`] captures exactly those
//! knobs so the benchmark harness can express each Figure 1 / Figure 2
//! configuration as a value.

use std::path::PathBuf;
use std::sync::Arc;

use crate::aof::FsyncPolicy;
use crate::clock::{Clock, SharedClock, SystemClock};
use crate::device::StorageDevice;
use crate::expire::{ActiveExpireConfig, ExpiryMode};
use crate::shard::DEFAULT_HASH_SEED;
use crate::ttl_wheel::DeadlineIndexKind;

/// Where the append-only file lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Persistence {
    /// No persistence at all (pure cache, the unmodified-Redis baseline for
    /// workloads that do not enable AOF).
    #[default]
    None,
    /// Append-only file held in memory (isolates CPU/fsync-call cost from
    /// disk latency; useful for micro-benchmarks and tests).
    AofInMemory,
    /// Append-only file on disk at the given path.
    AofFile(PathBuf),
    /// Journal segments on devices the caller supplies, one per shard,
    /// kept like in-memory ones (no manifest; encryption at rest does not
    /// wrap them). Lets a test put a device it can fail under the journal,
    /// the way an audit sink is handed to the trail.
    AofDevices(SegmentDevices),
}

/// Builds the device of segment `i` (see [`Persistence::AofDevices`]).
#[derive(Clone)]
pub struct SegmentDevices(pub Arc<dyn Fn(usize) -> Box<dyn StorageDevice> + Send + Sync>);

impl std::fmt::Debug for SegmentDevices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SegmentDevices")
    }
}

impl PartialEq for SegmentDevices {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for SegmentDevices {}

/// At-rest encryption settings (the LUKS simulation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptionAtRest {
    /// Passphrase from which the device key is derived.
    pub passphrase: Vec<u8>,
}

/// What the engine does when a shard's memory footprint exceeds its slice
/// of [`StoreConfig::max_memory`] (the `maxmemory-policy` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Reject further writes with an OOM error (Redis' default).
    #[default]
    Noeviction,
    /// Sample a handful of keys and evict the least recently accessed
    /// (Redis `allkeys-lru`, with the same sampled approximation).
    SampledLru,
    /// Sample a handful of keys and evict one at random
    /// (Redis `allkeys-random`).
    SampledRandom,
}

impl EvictionPolicy {
    /// Parse a policy label as used by the `evict=` server flag.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "noeviction" | "none" => Some(EvictionPolicy::Noeviction),
            "lru" | "allkeys-lru" | "sampled-lru" => Some(EvictionPolicy::SampledLru),
            "random" | "allkeys-random" | "sampled-random" => Some(EvictionPolicy::SampledRandom),
            _ => None,
        }
    }

    /// The stable label used on every stats surface (`INFO`, `GDPR.STATS`,
    /// Prometheus).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::Noeviction => "noeviction",
            EvictionPolicy::SampledLru => "sampled-lru",
            EvictionPolicy::SampledRandom => "sampled-random",
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Persistence mode for the AOF.
    pub persistence: Persistence,
    /// Fsync policy applied to the AOF (`appendfsync`).
    pub fsync: FsyncPolicy,
    /// Whether read commands are journaled too. Stock Redis only journals
    /// writes; the paper's GDPR monitoring retrofit journals *every*
    /// interaction (Article 30).
    pub log_reads: bool,
    /// Encrypt everything that reaches the device (LUKS simulation).
    pub encryption: Option<EncryptionAtRest>,
    /// Active-expiry behaviour.
    pub expiry_mode: ExpiryMode,
    /// Tunables of the probabilistic expiry cycle.
    pub active_expire: ActiveExpireConfig,
    /// Deadline index serving strict expiry. The timer wheel is the only
    /// one; the field stays because the contract benchmark's store setup
    /// sets it.
    pub deadline_index: DeadlineIndexKind,
    /// Trigger an automatic AOF rewrite once the log holds at least this
    /// many records more than after the previous rewrite (0 disables).
    pub aof_rewrite_threshold_records: u64,
    /// Maximum journal records retained in the in-memory replication
    /// backlog that connected replicas tail (0 disables tailing; a replica
    /// that falls further behind than this is forced into a full resync).
    pub repl_backlog_records: u64,
    /// Clock used by the engine (system clock by default; benchmarks inject
    /// a [`crate::clock::SimClock`]).
    pub clock: SharedClock,
    /// Seed for the engine's internal RNG (expiry sampling); `None` uses a
    /// nondeterministic seed.
    pub rng_seed: Option<u64>,
    /// Number of keyspace shards (rounded up to a power of two; minimum 1).
    /// Each shard owns its own dictionary, expiry state and lock, so
    /// operations on different shards run in parallel. The default of 1
    /// reproduces the paper's single-threaded Redis behaviour exactly.
    pub shards: usize,
    /// Seed of the key → shard hash. Deterministic by default so replay
    /// partitioning and tests are reproducible.
    pub shard_hash_seed: u64,
    /// Memory ceiling in bytes across the whole keyspace (0 = unlimited).
    /// Each shard is budgeted `max_memory / shard_count` so enforcement
    /// stays entirely under the shard's own lock.
    pub max_memory: u64,
    /// What to do when a shard exceeds its slice of `max_memory`.
    pub eviction_policy: EvictionPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            persistence: Persistence::None,
            fsync: FsyncPolicy::EverySec,
            log_reads: false,
            encryption: None,
            expiry_mode: ExpiryMode::LazyProbabilistic,
            active_expire: ActiveExpireConfig::default(),
            deadline_index: DeadlineIndexKind::default(),
            aof_rewrite_threshold_records: 0,
            repl_backlog_records: 65_536,
            clock: Arc::new(SystemClock),
            rng_seed: None,
            shards: 1,
            shard_hash_seed: DEFAULT_HASH_SEED,
            max_memory: 0,
            eviction_policy: EvictionPolicy::Noeviction,
        }
    }
}

impl StoreConfig {
    /// A purely in-memory, persistence-free configuration (the unmodified
    /// baseline).
    #[must_use]
    pub fn in_memory() -> Self {
        StoreConfig::default()
    }

    /// Configuration matching stock Redis with `appendonly yes` and the
    /// default `everysec` fsync.
    #[must_use]
    pub fn with_aof(path: impl Into<PathBuf>) -> Self {
        StoreConfig {
            persistence: Persistence::AofFile(path.into()),
            ..StoreConfig::default()
        }
    }

    /// Builder-style: set the fsync policy.
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Builder-style: journal read commands as well (GDPR monitoring).
    #[must_use]
    pub fn log_reads(mut self, enabled: bool) -> Self {
        self.log_reads = enabled;
        self
    }

    /// Builder-style: enable at-rest encryption with the given passphrase.
    #[must_use]
    pub fn encrypted(mut self, passphrase: &[u8]) -> Self {
        self.encryption = Some(EncryptionAtRest {
            passphrase: passphrase.to_vec(),
        });
        self
    }

    /// Builder-style: select the expiry mode.
    #[must_use]
    pub fn expiry_mode(mut self, mode: ExpiryMode) -> Self {
        self.expiry_mode = mode;
        self
    }

    /// Builder-style: select the deadline index (the wheel is the only
    /// one; see [`StoreConfig::deadline_index`]).
    #[must_use]
    pub fn deadline_index(mut self, kind: DeadlineIndexKind) -> Self {
        self.deadline_index = kind;
        self
    }

    /// Builder-style: use an in-memory AOF (CPU-cost-only persistence).
    #[must_use]
    pub fn aof_in_memory(mut self) -> Self {
        self.persistence = Persistence::AofInMemory;
        self
    }

    /// Builder-style: journal segments on the devices `device` builds, by
    /// segment index (see [`Persistence::AofDevices`]).
    #[must_use]
    pub fn aof_devices(
        mut self,
        device: impl Fn(usize) -> Box<dyn StorageDevice> + Send + Sync + 'static,
    ) -> Self {
        self.persistence = Persistence::AofDevices(SegmentDevices(Arc::new(device)));
        self
    }

    /// Builder-style: inject a clock.
    #[must_use]
    pub fn clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Arc::new(clock);
        self
    }

    /// Builder-style: seed the internal RNG for deterministic expiry
    /// sampling.
    #[must_use]
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = Some(seed);
        self
    }

    /// Builder-style: automatic AOF rewrite threshold in records.
    #[must_use]
    pub fn aof_rewrite_threshold(mut self, records: u64) -> Self {
        self.aof_rewrite_threshold_records = records;
        self
    }

    /// Builder-style: cap the in-memory replication backlog (records).
    #[must_use]
    pub fn repl_backlog(mut self, records: u64) -> Self {
        self.repl_backlog_records = records;
        self
    }

    /// Builder-style: shard the keyspace `shards` ways (rounded up to a
    /// power of two).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style: seed the key → shard hash.
    #[must_use]
    pub fn shard_hash_seed(mut self, seed: u64) -> Self {
        self.shard_hash_seed = seed;
        self
    }

    /// Builder-style: cap keyspace memory at `bytes` (0 = unlimited).
    #[must_use]
    pub fn max_memory(mut self, bytes: u64) -> Self {
        self.max_memory = bytes;
        self
    }

    /// Builder-style: select the over-`maxmemory` eviction policy.
    #[must_use]
    pub fn eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.eviction_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    #[test]
    fn default_matches_stock_redis_defaults() {
        let c = StoreConfig::default();
        assert_eq!(c.persistence, Persistence::None);
        assert_eq!(c.fsync, FsyncPolicy::EverySec);
        assert!(!c.log_reads);
        assert!(c.encryption.is_none());
        assert_eq!(c.expiry_mode, ExpiryMode::LazyProbabilistic);
        assert_eq!(c.deadline_index, DeadlineIndexKind::Wheel);
    }

    #[test]
    fn deadline_index_builder() {
        let c = StoreConfig::in_memory().deadline_index(DeadlineIndexKind::Wheel);
        assert_eq!(c.deadline_index, DeadlineIndexKind::Wheel);
    }

    #[test]
    fn builders_compose() {
        let c = StoreConfig::with_aof("/tmp/x.aof")
            .fsync(FsyncPolicy::Always)
            .log_reads(true)
            .encrypted(b"pw")
            .expiry_mode(ExpiryMode::Strict)
            .rng_seed(7)
            .aof_rewrite_threshold(1_000)
            .clock(SimClock::new(5));
        assert_eq!(
            c.persistence,
            Persistence::AofFile(PathBuf::from("/tmp/x.aof"))
        );
        assert_eq!(c.fsync, FsyncPolicy::Always);
        assert!(c.log_reads);
        assert!(c.encryption.is_some());
        assert_eq!(c.expiry_mode, ExpiryMode::Strict);
        assert_eq!(c.rng_seed, Some(7));
        assert_eq!(c.aof_rewrite_threshold_records, 1_000);
        assert_eq!(c.clock.now_millis(), 5);
    }

    #[test]
    fn in_memory_aof_builder() {
        let c = StoreConfig::in_memory().aof_in_memory();
        assert_eq!(c.persistence, Persistence::AofInMemory);
    }

    #[test]
    fn memory_builders() {
        let c = StoreConfig::default();
        assert_eq!(c.max_memory, 0, "default is unlimited, like stock Redis");
        assert_eq!(c.eviction_policy, EvictionPolicy::Noeviction);
        let c = StoreConfig::in_memory()
            .max_memory(1 << 20)
            .eviction_policy(EvictionPolicy::SampledLru);
        assert_eq!(c.max_memory, 1 << 20);
        assert_eq!(c.eviction_policy, EvictionPolicy::SampledLru);
    }

    #[test]
    fn eviction_policy_labels_round_trip() {
        for p in [
            EvictionPolicy::Noeviction,
            EvictionPolicy::SampledLru,
            EvictionPolicy::SampledRandom,
        ] {
            assert_eq!(EvictionPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(
            EvictionPolicy::parse("LRU"),
            Some(EvictionPolicy::SampledLru)
        );
        assert_eq!(
            EvictionPolicy::parse("allkeys-random"),
            Some(EvictionPolicy::SampledRandom)
        );
        assert_eq!(EvictionPolicy::parse("bogus"), None);
    }

    #[test]
    fn shard_builders() {
        let c = StoreConfig::default();
        assert_eq!(c.shards, 1, "default is the paper-faithful single shard");
        assert_eq!(c.shard_hash_seed, DEFAULT_HASH_SEED);
        let c = StoreConfig::in_memory().shards(6).shard_hash_seed(42);
        assert_eq!(c.shards, 6, "rounding happens at router construction");
        assert_eq!(c.shard_hash_seed, 42);
    }
}
