//! TinyLFU-admitted hot-read cache in front of the compliance pipeline.
//!
//! The paper's compliance features tax every read: a `GET` must load the
//! key's metadata, walk the ACL and check purposes before it may touch the
//! value. For skewed (zipfian) read mixes most of
//! that work is repeated on a handful of hot keys, so the store keeps a
//! small per-segment **slab** of fully-admitted `(value, metadata)` pairs
//! in front of the pipeline: a key → slot map over a dense `Vec` of
//! residents, so that a victim sample is a fixed number of indexed probes
//! whatever the capacity. Admission is gated by a **TinyLFU** frequency
//! filter (a count-min sketch with periodic halving, after Einziger et
//! al.), so one-hit-wonder keys in the long tail cannot churn the resident
//! set. A read that misses pays one key hash for the filter and, when the
//! segment is full, the sample's counter loads; the entry — and the copy
//! of the value in it — is built only once admission is decided.
//!
//! Correctness contract (the erasure-sensitive part):
//!
//! * every per-key mutation bracket of the store (`put`, `set_metadata`,
//!   `delete`, erasure, objection, TTL cleanup, replicated applies) calls
//!   [`HotCache::invalidate`] *inside* the bracket, so a completed
//!   mutation can never leave a stale hot entry behind;
//! * invalidation also bumps a per-segment **epoch**; a read that missed
//!   carries the epoch it observed ([`AdmissionToken`]) and admission is
//!   refused if any invalidation happened in between — an in-flight `GET`
//!   racing an erasure cannot re-admit the value it read before the
//!   erasure;
//! * engine-internal removals that bypass the compliance brackets —
//!   `maxmemory` eviction, lazy and active expiry — invalidate through
//!   the engine's removal listener (installed by the store at open time),
//!   which fires while the owning shard's lock is still held; a hit
//!   therefore needs no engine revalidation at all. The cached metadata
//!   carries its retention deadline for the one case no listener can
//!   deliver (a deadline that has passed but not yet fired), and
//!   access-control and purpose checks always re-run on the cached
//!   metadata, so grant revocations and objections take effect
//!   immediately.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kvstore::object::Bytes;
use kvstore::shard::{hash_key, ShardRouter};
use parking_lot::Mutex;

/// Default number of resident entries per segment. At ~a few hundred
/// bytes per entry a full segment stays around 100 KiB — big enough to
/// absorb the head of a zipfian keyspace, small enough to be noise next
/// to the engine's own footprint.
pub const DEFAULT_CAPACITY_PER_SEGMENT: usize = 512;
/// Default count-min sketch width (counters per row; rounded to a power
/// of two).
pub const DEFAULT_SKETCH_WIDTH: usize = 1024;
/// Default number of sketch increments between halvings (the TinyLFU
/// "reset" aging window).
pub const DEFAULT_HALVE_EVERY: u64 = 16_384;

const SKETCH_ROWS: usize = 4;
const DEFAULT_SEED: u64 = 0x0051_7f1f_u64;
/// Residents examined per displacement attempt. A full min-frequency scan
/// would make every refused admission O(capacity × rows) counter loads —
/// on a miss-heavy zipfian tail that costs more than the slow path the
/// cache exists to avoid. A rotating sample keeps admission O(1) and
/// deterministic while still finding a cold victim with high probability.
const VICTIM_SAMPLE: usize = 8;

/// A count-min frequency sketch with periodic halving — the frequency
/// half of TinyLFU. Estimates never undercount (`estimate >= true count`
/// within one aging window); halving every [`CountMinSketch::halve_every`]
/// increments ages out yesterday's hot keys.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// `SKETCH_ROWS` rows of `width` counters, stored flat.
    counters: Vec<u32>,
    width_mask: u64,
    seed: u64,
    increments: u64,
    halve_every: u64,
    halvings: u64,
}

impl CountMinSketch {
    /// A sketch with at least `width` counters per row (rounded up to a
    /// power of two, minimum 8), halving after `halve_every` increments.
    #[must_use]
    pub fn new(width: usize, halve_every: u64, seed: u64) -> Self {
        let width = width.max(8).next_power_of_two();
        CountMinSketch {
            counters: vec![0; width * SKETCH_ROWS],
            width_mask: width as u64 - 1,
            seed,
            increments: 0,
            halve_every: halve_every.max(1),
            halvings: 0,
        }
    }

    /// Counters per row.
    #[must_use]
    pub fn width(&self) -> usize {
        (self.width_mask + 1) as usize
    }

    /// Number of increments between halvings.
    #[must_use]
    pub fn halve_every(&self) -> u64 {
        self.halve_every
    }

    /// How many halvings have happened so far.
    #[must_use]
    pub fn halvings(&self) -> u64 {
        self.halvings
    }

    /// The one hash of `key` every row's counter is derived from. Callers
    /// that come back to a key (the cache keeps it per resident and per
    /// admission token) pass it to the `*_hashed` methods and never hash
    /// the key again.
    fn key_hash(&self, key: &str) -> u64 {
        hash_key(self.seed, key)
    }

    /// Counter of `hash` in `row`. Each row reads its column from its own
    /// 16 bits of the (avalanched) hash, so up to a width of 65 536 the
    /// rows of a key are independent: two keys share all their counters
    /// with probability width⁻⁴, as with a hash per row.
    fn slot(&self, row: usize, hash: u64) -> usize {
        let column = hash.rotate_right(16 * row as u32) & self.width_mask;
        (row as u64 * (self.width_mask + 1) + column) as usize
    }

    /// Record one access of `key` and return its new estimate. Triggers a
    /// halving pass once `halve_every` increments have accumulated.
    pub fn increment(&mut self, key: &str) -> u32 {
        self.increment_hashed(self.key_hash(key))
    }

    fn increment_hashed(&mut self, hash: u64) -> u32 {
        let mut estimate = u32::MAX;
        for row in 0..SKETCH_ROWS {
            let slot = self.slot(row, hash);
            self.counters[slot] = self.counters[slot].saturating_add(1);
            estimate = estimate.min(self.counters[slot]);
        }
        self.increments += 1;
        if self.increments >= self.halve_every {
            self.increments = 0;
            self.halvings += 1;
            for counter in &mut self.counters {
                *counter >>= 1;
            }
        }
        estimate
    }

    /// Frequency estimate for `key` (minimum over the rows; never less
    /// than the true count recorded since the last halving).
    #[must_use]
    pub fn estimate(&self, key: &str) -> u32 {
        self.estimate_hashed(self.key_hash(key))
    }

    fn estimate_hashed(&self, hash: u64) -> u32 {
        (0..SKETCH_ROWS)
            .map(|row| self.counters[self.slot(row, hash)])
            .min()
            .unwrap_or(0)
    }
}

/// Tunables for the hot-read cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotCacheConfig {
    /// Master switch; a disabled cache never hits and never admits.
    pub enabled: bool,
    /// Resident entries per segment (segments align with engine shards).
    pub capacity_per_segment: usize,
    /// Count-min sketch width per row.
    pub sketch_width: usize,
    /// Sketch increments between halvings.
    pub halve_every: u64,
    /// Hash seed for the sketch (admission is deterministic for a given
    /// seed and access sequence).
    pub seed: u64,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        HotCacheConfig {
            enabled: true,
            capacity_per_segment: DEFAULT_CAPACITY_PER_SEGMENT,
            sketch_width: DEFAULT_SKETCH_WIDTH,
            halve_every: DEFAULT_HALVE_EVERY,
            seed: DEFAULT_SEED,
        }
    }
}

impl HotCacheConfig {
    /// A disabled cache (probes always miss, admission is a no-op).
    #[must_use]
    pub fn disabled() -> Self {
        HotCacheConfig {
            enabled: false,
            ..HotCacheConfig::default()
        }
    }

    /// Builder-style: set the master switch.
    #[must_use]
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Builder-style: set the per-segment capacity.
    #[must_use]
    pub fn capacity_per_segment(mut self, capacity: usize) -> Self {
        self.capacity_per_segment = capacity.max(1);
        self
    }
}

/// A fully-admitted hot entry: the value together with the metadata the
/// compliance checks need, so a hit re-runs access-control and purpose
/// checks without touching the engine.
#[derive(Debug, Clone)]
pub struct HotEntry {
    /// The cached value bytes.
    pub value: Bytes,
    /// The cached encoded metadata (`None` when the key legitimately has
    /// none under a lax policy), read through a
    /// [`crate::metadata::MetaView`]. The engine entry's own bytes,
    /// shared: caching them costs a pointer, and a hit clones a pointer.
    pub meta: Option<Arc<[u8]>>,
}

/// Proof of the segment state a missing read observed; admission with a
/// stale token (any invalidation in between) is refused.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionToken {
    epoch: u64,
    /// The candidate's sketch hash and the frequency estimate recorded at
    /// probe time, so admission does not have to re-hash the key.
    hash: u64,
    freq: u32,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum Probe {
    /// The key is resident. Mutation brackets and the engine's removal
    /// listener keep residency honest; the caller only checks the cached
    /// retention deadline and re-runs the compliance checks.
    Hit(HotEntry),
    /// Not resident; pass the token back to [`HotCache::admit`] after the
    /// slow path resolved the value.
    Miss(AdmissionToken),
}

/// One resident of a segment's slab.
#[derive(Debug)]
struct Resident {
    /// Shared with the slot map, which finds the resident by it.
    key: Arc<str>,
    /// The key's sketch hash: a victim sample reads the resident's
    /// frequency from the counters without touching the key.
    hash: u64,
    entry: HotEntry,
}

#[derive(Debug)]
struct HotSegment {
    /// Key → position in `slots`.
    index: HashMap<Arc<str>, usize>,
    /// The residents, dense: removal swaps the last one into the hole, so
    /// every index below `len` is occupied and a freed slot is the next
    /// one filled.
    slots: Vec<Resident>,
    sketch: CountMinSketch,
    /// Bumped on every invalidation (even of non-resident keys), so an
    /// in-flight miss cannot admit a value read before a racing mutation.
    epoch: u64,
    /// Rotating start position of the victim sample, so successive
    /// displacement attempts examine different residents.
    victim_cursor: u64,
}

/// Point-in-time counters of the hot cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCacheStats {
    /// Probes served from the hot tier (before engine revalidation).
    pub hits: u64,
    /// Probes that fell through to the full compliance pipeline.
    pub misses: u64,
    /// Entries admitted (TinyLFU accepted the key).
    pub admissions: u64,
    /// Entries removed by mutation-bracket invalidation (including
    /// failed revalidations and full clears).
    pub invalidations: u64,
}

/// The sharded TinyLFU hot-read cache. Segments align with the engine's
/// key routing so a probe contends only with mutations of its own shard.
#[derive(Debug)]
pub struct HotCache {
    config: HotCacheConfig,
    router: ShardRouter,
    segments: Vec<Mutex<HotSegment>>,
    hits: AtomicU64,
    misses: AtomicU64,
    admissions: AtomicU64,
    invalidations: AtomicU64,
}

impl HotCache {
    /// A cache whose segments align with `router`'s shard layout.
    #[must_use]
    pub fn new(config: HotCacheConfig, router: ShardRouter) -> Self {
        let segments = (0..router.shard_count())
            .map(|i| {
                Mutex::new(HotSegment {
                    index: HashMap::new(),
                    slots: Vec::new(),
                    sketch: CountMinSketch::new(
                        config.sketch_width,
                        config.halve_every,
                        // Per-segment seed derivation keeps the rows of
                        // different segments decorrelated.
                        config.seed.wrapping_add(i as u64),
                    ),
                    epoch: 0,
                    victim_cursor: 0,
                })
            })
            .collect();
        HotCache {
            config,
            router,
            segments,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether the cache is live.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Look `key` up in the hot tier, recording the access in the
    /// frequency sketch either way.
    #[must_use]
    pub fn probe(&self, key: &str) -> Probe {
        if !self.config.enabled {
            return Probe::Miss(AdmissionToken {
                epoch: 0,
                hash: 0,
                freq: 0,
            });
        }
        let mut segment = self.segments[self.router.shard_of(key)].lock();
        let hash = segment.sketch.key_hash(key);
        let freq = segment.sketch.increment_hashed(hash);
        match segment.index.get(key) {
            Some(&slot) => {
                let entry = segment.slots[slot].entry.clone();
                drop(segment);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Probe::Hit(entry)
            }
            None => {
                let token = AdmissionToken {
                    epoch: segment.epoch,
                    hash,
                    freq,
                };
                drop(segment);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Probe::Miss(token)
            }
        }
    }

    /// Offer `key` for residency after a slow-path read. TinyLFU decides:
    /// a segment with room admits outright; a full segment admits only if
    /// the candidate's sketched frequency beats the coldest entry of a
    /// small rotating resident sample (ties broken by key order, so
    /// admission is deterministic for a given seed and access sequence).
    /// Admission is refused when the segment epoch moved past `token` — a
    /// mutation raced the read. Returns whether the entry is now resident.
    pub fn admit(&self, key: &str, entry: HotEntry, token: AdmissionToken) -> bool {
        self.admit_with(key, token, || entry)
    }

    /// [`Self::admit`], with the entry built by `build` only once admission
    /// is decided: a refused candidate costs no copy of its value.
    pub fn admit_with(
        &self,
        key: &str,
        token: AdmissionToken,
        build: impl FnOnce() -> HotEntry,
    ) -> bool {
        if !self.config.enabled {
            return false;
        }
        let mut segment = self.segments[self.router.shard_of(key)].lock();
        if segment.epoch != token.epoch {
            return false;
        }
        if segment.index.contains_key(key) {
            // A concurrent read of the same key admitted it first; both
            // observed the same epoch, so both values are current.
            return true;
        }
        let segment = &mut *segment;
        let len = segment.slots.len();
        let slot = if len < self.config.capacity_per_segment {
            len
        } else {
            // A candidate seen once can never beat a resident (ties are
            // refused), so the long zipfian tail of one-hit wonders skips
            // the victim sample entirely.
            if token.freq <= 1 || len == 0 {
                return false;
            }
            let start = (segment.victim_cursor % len as u64) as usize;
            segment.victim_cursor = segment.victim_cursor.wrapping_add(VICTIM_SAMPLE as u64);
            let (victim_freq, _, victim) = (0..VICTIM_SAMPLE.min(len))
                .map(|step| {
                    let slot = (start + step) % len;
                    let sampled = &segment.slots[slot];
                    (
                        segment.sketch.estimate_hashed(sampled.hash),
                        &sampled.key,
                        slot,
                    )
                })
                .min()
                .expect("full segment has a victim");
            if token.freq <= victim_freq {
                return false;
            }
            victim
        };
        let key: Arc<str> = Arc::from(key);
        let admitted = Resident {
            key: Arc::clone(&key),
            hash: token.hash,
            entry: build(),
        };
        match segment.slots.get_mut(slot) {
            Some(victim) => {
                segment.index.remove(&victim.key);
                *victim = admitted;
            }
            None => segment.slots.push(admitted),
        }
        segment.index.insert(key, slot);
        self.admissions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drop `key`'s hot entry (if resident) and bump the segment epoch so
    /// in-flight misses of any key on this segment cannot admit stale
    /// data. Call this inside the key's mutation bracket.
    pub fn invalidate(&self, key: &str) {
        if !self.config.enabled {
            return;
        }
        let mut segment = self.segments[self.router.shard_of(key)].lock();
        segment.epoch += 1;
        let Some(slot) = segment.index.remove(key) else {
            return;
        };
        segment.slots.swap_remove(slot);
        // The last resident now sits in the freed slot (unless it was the
        // one removed).
        if let Some(moved) = segment.slots.get(slot) {
            let moved = Arc::clone(&moved.key);
            segment.index.insert(moved, slot);
        }
        drop(segment);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every resident entry (FLUSHALL, index rebuilds).
    pub fn clear(&self) {
        if !self.config.enabled {
            return;
        }
        let mut removed = 0u64;
        for segment in &self.segments {
            let mut segment = segment.lock();
            segment.epoch += 1;
            removed += segment.slots.len() as u64;
            segment.slots.clear();
            segment.index.clear();
        }
        self.invalidations.fetch_add(removed, Ordering::Relaxed);
    }

    /// Number of resident entries across all segments.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.segments.iter().map(|s| s.lock().slots.len()).sum()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> HotCacheStats {
        HotCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: &[u8]) -> HotEntry {
        HotEntry {
            value: value.to_vec(),
            meta: None,
        }
    }

    fn cache(capacity: usize) -> HotCache {
        HotCache::new(
            HotCacheConfig::default().capacity_per_segment(capacity),
            ShardRouter::new(2, 7),
        )
    }

    /// Drive `key` through probe until `admit` succeeds (TinyLFU may need
    /// the key to out-count a resident victim first).
    fn force_in(cache: &HotCache, key: &str, value: &[u8]) {
        for _ in 0..64 {
            if let Probe::Miss(token) = cache.probe(key) {
                if cache.admit(key, entry(value), token) {
                    return;
                }
            } else {
                return;
            }
        }
        panic!("{key} never admitted");
    }

    #[test]
    fn sketch_never_undercounts_and_halves() {
        let mut sketch = CountMinSketch::new(64, 1_000, 42);
        for _ in 0..10 {
            sketch.increment("hot");
        }
        sketch.increment("other");
        assert!(sketch.estimate("hot") >= 10);
        assert!(sketch.estimate("other") >= 1);
        // Force a halving pass.
        for i in 0..1_000 {
            sketch.increment(&format!("filler{i}"));
        }
        assert_eq!(sketch.halvings(), 1);
        assert!(sketch.estimate("hot") <= 5 + 1_000);
    }

    #[test]
    fn probe_miss_admit_then_hit() {
        let cache = cache(4);
        let Probe::Miss(token) = cache.probe("k") else {
            panic!("cold probe must miss");
        };
        assert!(cache.admit("k", entry(b"v"), token));
        match cache.probe("k") {
            Probe::Hit(e) => assert_eq!(e.value, b"v".to_vec()),
            Probe::Miss(_) => panic!("admitted key must hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.admissions), (1, 1, 1));
    }

    #[test]
    fn invalidation_bumps_epoch_and_blocks_stale_admission() {
        let cache = cache(4);
        let Probe::Miss(token) = cache.probe("k") else {
            panic!()
        };
        // A mutation bracket runs between the miss and the admission —
        // even though "k" was never resident, the admission must fail.
        cache.invalidate("k");
        assert!(!cache.admit("k", entry(b"stale"), token));
        assert!(matches!(cache.probe("k"), Probe::Miss(_)));
    }

    #[test]
    fn invalidate_removes_resident_entries() {
        let cache = cache(4);
        force_in(&cache, "k", b"v");
        cache.invalidate("k");
        assert!(matches!(cache.probe("k"), Probe::Miss(_)));
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn tinylfu_prefers_frequent_keys_over_cold_residents() {
        // Capacity 1 per segment; keys routed to the same segment fight
        // for the slot and the hotter key must win.
        let cache = HotCache::new(
            HotCacheConfig::default().capacity_per_segment(1),
            ShardRouter::new(1, 7),
        );
        force_in(&cache, "cold", b"c");
        // Heat up "hot" well past "cold"'s frequency.
        let mut admitted = false;
        for _ in 0..16 {
            if let Probe::Miss(token) = cache.probe("hot") {
                admitted = cache.admit("hot", entry(b"h"), token);
                if admitted {
                    break;
                }
            }
        }
        assert!(admitted, "frequent key must displace the cold resident");
        assert!(matches!(cache.probe("hot"), Probe::Hit(_)));
        assert!(matches!(cache.probe("cold"), Probe::Miss(_)));
    }

    /// The slab of every segment, in slot order.
    fn residents(cache: &HotCache) -> Vec<Vec<String>> {
        let keys = |segment: &Mutex<HotSegment>| {
            let segment = segment.lock();
            let keys: Vec<String> = segment.slots.iter().map(|r| r.key.to_string()).collect();
            // The slot map and the slab describe the same residents.
            assert_eq!(segment.index.len(), keys.len());
            for (slot, key) in keys.iter().enumerate() {
                assert_eq!(segment.index.get(key.as_str()), Some(&slot), "{key}");
            }
            keys
        };
        cache.segments.iter().map(keys).collect()
    }

    /// A fixed pseudo-random history over 200 keys, skewed towards the low
    /// ones, with an invalidation every seventh step; `check` runs after
    /// every step.
    fn replay(cache: &HotCache, mut check: impl FnMut(&HotCache)) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = state >> 33;
            let key = format!("key{:03}", (draw % 200).min(draw % 37));
            if step % 7 == 0 {
                cache.invalidate(&key);
            } else if let Probe::Miss(token) = cache.probe(&key) {
                cache.admit(&key, entry(key.as_bytes()), token);
            }
            check(cache);
        }
    }

    #[test]
    fn same_seed_and_history_give_the_same_slab() {
        let (a, b) = (cache(16), cache(16));
        replay(&a, |_| {});
        replay(&b, |_| {});
        assert_eq!(residents(&a), residents(&b));
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().admissions > 32, "{:?}", a.stats());
    }

    #[test]
    fn residency_never_exceeds_capacity() {
        let cache = cache(16);
        let mut fullest = 0;
        replay(&cache, |cache| {
            for segment in &cache.segments {
                assert!(segment.lock().slots.len() <= 16);
            }
            fullest = fullest.max(cache.resident());
        });
        assert_eq!(fullest, 2 * 16, "the history fills both segments");
    }

    #[test]
    fn a_scan_over_cold_keys_does_not_evict_a_hot_set() {
        // Four segments, as the engine's default four shards give: the scan
        // then stays inside two aging windows per segment (past that, a set
        // nobody reads any more is meant to age out). Fill every segment,
        // then read every resident 100 times in all.
        let cache = HotCache::new(
            HotCacheConfig::default().capacity_per_segment(64),
            ShardRouter::new(4, 7),
        );
        let mut hot = Vec::new();
        for i in 0.. {
            if cache.resident() == 4 * 64 {
                break;
            }
            let key = format!("hot{i:03}");
            if let Probe::Miss(token) = cache.probe(&key) {
                if cache.admit(&key, entry(key.as_bytes()), token) {
                    hot.push(key);
                }
            }
        }
        for _ in 1..100 {
            for key in &hot {
                assert!(matches!(cache.probe(key), Probe::Hit(_)), "{key}");
            }
        }
        let resident_before = residents(&cache);
        for i in 0..50_000 {
            let key = format!("cold{i:05}");
            let Probe::Miss(token) = cache.probe(&key) else {
                panic!("{key} was never admitted");
            };
            assert!(
                !cache.admit_with(&key, token, || panic!("built an entry for refused {key}")),
                "{key} displaced a hot key"
            );
        }
        assert_eq!(residents(&cache), resident_before);
        for key in &hot {
            assert!(matches!(cache.probe(key), Probe::Hit(_)), "{key}");
        }
    }

    #[test]
    fn invalidating_a_resident_frees_its_slot_for_reuse() {
        let cache = HotCache::new(
            HotCacheConfig::default().capacity_per_segment(3),
            ShardRouter::new(1, 7),
        );
        for key in ["a", "b", "c"] {
            force_in(&cache, key, key.as_bytes());
        }
        // The last resident moves into the freed slot.
        cache.invalidate("a");
        assert_eq!(
            residents(&cache),
            vec![vec!["c".to_string(), "b".to_string()]]
        );
        // A segment with room admits outright: the first offer of a key
        // seen once takes the free slot, and nobody is displaced.
        let Probe::Miss(token) = cache.probe("d") else {
            panic!("cold probe must miss");
        };
        assert!(cache.admit("d", entry(b"d"), token));
        assert_eq!(cache.resident(), 3);
        for key in ["b", "c", "d"] {
            match cache.probe(key) {
                Probe::Hit(e) => assert_eq!(e.value, key.as_bytes().to_vec()),
                Probe::Miss(_) => panic!("{key} lost its slot"),
            }
        }
        assert!(matches!(cache.probe("a"), Probe::Miss(_)));
        // Removing the resident in the last slot moves nothing.
        cache.invalidate("d");
        assert_eq!(
            residents(&cache),
            vec![vec!["c".to_string(), "b".to_string()]]
        );
    }

    #[test]
    fn disabled_cache_never_hits_or_admits() {
        let cache = HotCache::new(HotCacheConfig::disabled(), ShardRouter::new(2, 7));
        assert!(!cache.is_enabled());
        let Probe::Miss(token) = cache.probe("k") else {
            panic!()
        };
        assert!(!cache.admit("k", entry(b"v"), token));
        assert!(matches!(cache.probe("k"), Probe::Miss(_)));
        cache.invalidate("k");
        cache.clear();
        assert_eq!(cache.stats(), HotCacheStats::default());
    }

    #[test]
    fn clear_empties_every_segment() {
        let cache = cache(8);
        for i in 0..8 {
            force_in(&cache, &format!("k{i}"), b"v");
        }
        assert!(cache.resident() > 0);
        cache.clear();
        assert_eq!(cache.resident(), 0);
        for i in 0..8 {
            assert!(matches!(cache.probe(&format!("k{i}")), Probe::Miss(_)));
        }
    }

    #[test]
    fn env_gate_parses_common_spellings() {
        // Not testing via real env mutation (process-global); the parser
        // logic is exercised through the match arm shape instead.
        for off in ["off", "0", "false", "no"] {
            assert!(matches!(off, "off" | "0" | "false" | "no"));
        }
        let config = HotCacheConfig::default();
        assert!(config.enabled);
        assert!(!HotCacheConfig::disabled().enabled);
    }
}
