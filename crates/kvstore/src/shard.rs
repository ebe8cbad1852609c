//! Key → shard routing.
//!
//! The engine splits its keyspace into N independent shards (N a power of
//! two), each owning its own dictionary, expiry state and lock, so that
//! operations on different shards proceed in parallel. Routing is a seeded
//! FNV-1a hash of the key masked down to the shard count — cheap, stable
//! within a process, and uniform enough for YCSB-style key populations.

/// Routes keys to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    mask: u64,
    seed: u64,
}

/// Default hash seed (an arbitrary odd 64-bit constant). Deterministic so
/// that replay partitioning and tests are reproducible.
pub const DEFAULT_HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl ShardRouter {
    /// A router over `shards` shards (rounded **up** to the next power of
    /// two; zero is treated as one).
    #[must_use]
    pub fn new(shards: usize, seed: u64) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardRouter {
            mask: shards as u64 - 1,
            seed,
        }
    }

    /// Number of shards this router distributes over.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// The hash seed this router was built with (persisted in the journal
    /// manifest so recovery can tell whether segments map 1:1 onto
    /// shards).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `key`.
    #[must_use]
    pub fn shard_of(&self, key: &str) -> usize {
        (hash_key(self.seed, key) & self.mask) as usize
    }
}

/// Seeded 64-bit FNV-1a over the key bytes, finished with an avalanche mix
/// so the low bits (the ones the mask keeps) depend on every input byte.
#[must_use]
pub fn hash_key(seed: u64, key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardRouter::new(0, 0).shard_count(), 1);
        assert_eq!(ShardRouter::new(1, 0).shard_count(), 1);
        assert_eq!(ShardRouter::new(3, 0).shard_count(), 4);
        assert_eq!(ShardRouter::new(8, 0).shard_count(), 8);
        assert_eq!(ShardRouter::new(9, 0).shard_count(), 16);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = ShardRouter::new(8, DEFAULT_HASH_SEED);
        for i in 0..1_000 {
            let key = format!("user{i:08}");
            let shard = router.shard_of(&key);
            assert!(shard < 8);
            assert_eq!(
                shard,
                router.shard_of(&key),
                "routing must be deterministic"
            );
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let router = ShardRouter::new(8, DEFAULT_HASH_SEED);
        let mut counts = [0usize; 8];
        for i in 0..8_000 {
            counts[router.shard_of(&format!("user{i:012}"))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&count),
                "shard {shard} holds {count} of 8000 keys — skewed routing"
            );
        }
    }

    #[test]
    fn seed_changes_the_layout() {
        let a = ShardRouter::new(8, 1);
        let b = ShardRouter::new(8, 2);
        let moved = (0..1_000)
            .filter(|i| {
                let key = format!("k{i}");
                a.shard_of(&key) != b.shard_of(&key)
            })
            .count();
        assert!(
            moved > 500,
            "different seeds should reshuffle most keys, moved {moved}"
        );
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1, DEFAULT_HASH_SEED);
        assert_eq!(router.shard_of("anything"), 0);
        assert_eq!(router.shard_of(""), 0);
    }
}
