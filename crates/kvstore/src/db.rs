//! The in-memory keyspace: a dictionary of typed objects plus the expiry
//! bookkeeping.
//!
//! [`Db`] is deliberately single-threaded (like a Redis database); the
//! [`crate::store::KvStore`] wraps it in a lock and adds persistence. All
//! methods take `&mut self` and are infallible unless a type error or
//! decoding problem can occur.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use rand::Rng;

use crate::clock::{SharedClock, UnixMillis};
use crate::config::EvictionPolicy;
use crate::object::{Bytes, Object, Value};
use crate::ttl_wheel::{
    build_deadline_index, DeadlineIndex, DeadlineIndexKind, DeadlineIndexStats,
};
use crate::{Result, StoreError};

/// Why a key was removed — used by the caller to decide what to propagate
/// to the AOF and to the audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalCause {
    /// An explicit `DEL`/`UNLINK` issued by a client.
    Explicit,
    /// Lazy expiration triggered by an access to an expired key.
    LazyExpiry,
    /// The active expiration cycle (probabilistic or strict).
    ActiveExpiry,
    /// `FLUSHDB`/`FLUSHALL`.
    Flush,
    /// The `maxmemory` evictor reclaiming space (journaled as a `DEL`).
    Eviction,
}

/// Callback invoked after the engine removes a key for any per-key cause
/// (explicit delete, lazy/active expiry, `maxmemory` eviction) — wholesale
/// flushes do not fire it. Runs while the owning shard's lock is held:
/// implementations must be cheap and must not call back into the engine.
pub type RemovalListener = std::sync::Arc<dyn Fn(&str, RemovalCause) + Send + Sync>;

/// Holder for an optional [`RemovalListener`] (closures have no useful
/// `Debug`, so the slot renders just its occupancy).
#[derive(Clone, Default)]
pub struct RemovalListenerSlot(Option<RemovalListener>);

impl std::fmt::Debug for RemovalListenerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "RemovalListenerSlot(set)"
        } else {
            "RemovalListenerSlot(unset)"
        })
    }
}

/// Counters describing keyspace activity (a subset of Redis `INFO stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Number of successful lookups.
    pub keyspace_hits: u64,
    /// Number of failed lookups.
    pub keyspace_misses: u64,
    /// Keys removed because their TTL elapsed (lazy + active).
    pub expired_keys: u64,
    /// Keys removed by explicit deletion commands.
    pub deleted_keys: u64,
    /// Keys removed by the `maxmemory` evictor.
    pub evicted_keys: u64,
    /// Total write operations applied.
    pub writes: u64,
    /// Approximate resident bytes of the keyspace — a live gauge, summed
    /// from [`Object::footprint`] deltas at every mutation. This is what the
    /// `maxmemory` budget is enforced against.
    pub mem_bytes: u64,
}

/// A single logical database (keyspace).
#[derive(Debug)]
pub struct Db {
    dict: HashMap<String, Object>,
    /// Absolute expiration time per key, in Unix milliseconds.
    expires: HashMap<String, UnixMillis>,
    /// Keys that have an expiration, laid out in a vector for O(1) random
    /// sampling by the probabilistic active-expiry cycle (Redis samples
    /// random dict entries; a vector plus position map is the moral
    /// equivalent for our hash map).
    expires_sample_pool: Vec<String>,
    expires_pool_index: HashMap<String, usize>,
    /// *All* keys, laid out the same way for O(1) random sampling by the
    /// `maxmemory` evictor (Redis samples the main dict for `allkeys-*`
    /// policies).
    keys_sample_pool: Vec<String>,
    keys_pool_index: HashMap<String, usize>,
    /// Secondary index over expiration deadlines, used by the *strict*
    /// expiry mode the paper's modified Redis implements: a hierarchical
    /// timer wheel by default, or the original BTree index (see
    /// [`crate::ttl_wheel`]).
    deadline_index: Box<dyn DeadlineIndex>,
    /// All keys in lexicographic order, used to serve YCSB-style scans.
    sorted_keys: BTreeSet<String>,
    clock: SharedClock,
    stats: DbStats,
    /// Number of keyspace changes since the last persistence checkpoint.
    dirty: u64,
    /// Notified after every per-key removal (see [`RemovalListener`]).
    removal_listener: RemovalListenerSlot,
}

impl Db {
    /// Create an empty database reading time from `clock`, with the
    /// default deadline index (the timer wheel).
    #[must_use]
    pub fn new(clock: SharedClock) -> Self {
        Db::with_deadline_index(clock, DeadlineIndexKind::default())
    }

    /// Create an empty database with an explicit deadline-index
    /// implementation (the BTree variant exists for differential testing
    /// and as a paper-faithful baseline).
    #[must_use]
    pub fn with_deadline_index(clock: SharedClock, index: DeadlineIndexKind) -> Self {
        let deadline_index = build_deadline_index(index, clock.now_millis());
        Db {
            dict: HashMap::new(),
            expires: HashMap::new(),
            expires_sample_pool: Vec::new(),
            expires_pool_index: HashMap::new(),
            keys_sample_pool: Vec::new(),
            keys_pool_index: HashMap::new(),
            deadline_index,
            sorted_keys: BTreeSet::new(),
            clock,
            stats: DbStats::default(),
            dirty: 0,
            removal_listener: RemovalListenerSlot::default(),
        }
    }

    /// Current time according to the database clock.
    #[must_use]
    pub fn now_millis(&self) -> UnixMillis {
        self.clock.now_millis()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Number of keyspace changes since the counter was last reset (used by
    /// snapshot/AOF-rewrite triggers).
    #[must_use]
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    /// Reset the dirty counter (called after a snapshot or AOF rewrite).
    pub fn reset_dirty(&mut self) {
        self.dirty = 0;
    }

    /// Approximate resident bytes of this keyspace (the `maxmemory` gauge).
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.stats.mem_bytes
    }

    // ----- internal index maintenance -------------------------------------

    fn mem_add(&mut self, bytes: usize) {
        self.stats.mem_bytes += bytes as u64;
    }

    fn mem_sub(&mut self, bytes: usize) {
        self.stats.mem_bytes = self.stats.mem_bytes.saturating_sub(bytes as u64);
    }

    /// Register a newly created key in the evictor's sampling pool.
    fn index_key(&mut self, key: &str) {
        let pos = self.keys_sample_pool.len();
        self.keys_sample_pool.push(key.to_string());
        self.keys_pool_index.insert(key.to_string(), pos);
    }

    /// Drop a removed key from the evictor's sampling pool (same
    /// swap-remove idiom as the expiry pool).
    fn unindex_key(&mut self, key: &str) {
        if let Some(pos) = self.keys_pool_index.remove(key) {
            let last = self.keys_sample_pool.len() - 1;
            self.keys_sample_pool.swap_remove(pos);
            if pos != last {
                let moved = self.keys_sample_pool[pos].clone();
                self.keys_pool_index.insert(moved, pos);
            }
        }
    }

    fn index_expiry(&mut self, key: &str, at: UnixMillis) {
        if self.expires.insert(key.to_string(), at).is_none() {
            let pos = self.expires_sample_pool.len();
            self.expires_sample_pool.push(key.to_string());
            self.expires_pool_index.insert(key.to_string(), pos);
        }
        // The index upserts: a previous deadline for the key is replaced
        // (the wheel tombstones it, the BTree removes the old posting).
        self.deadline_index.insert(key, at);
    }

    fn unindex_expiry(&mut self, key: &str) {
        if self.expires.remove(key).is_some() {
            self.deadline_index.remove(key);
            if let Some(pos) = self.expires_pool_index.remove(key) {
                let last = self.expires_sample_pool.len() - 1;
                self.expires_sample_pool.swap_remove(pos);
                if pos != last {
                    let moved = self.expires_sample_pool[pos].clone();
                    self.expires_pool_index.insert(moved, pos);
                }
            }
        }
    }

    fn remove_key(&mut self, key: &str, cause: RemovalCause) -> Option<Object> {
        let removed = self.dict.remove(key);
        if let Some(obj) = &removed {
            self.mem_sub(obj.footprint(key));
            self.sorted_keys.remove(key);
            self.unindex_key(key);
            self.unindex_expiry(key);
            self.dirty += 1;
            match cause {
                RemovalCause::LazyExpiry | RemovalCause::ActiveExpiry => {
                    self.stats.expired_keys += 1;
                }
                RemovalCause::Explicit | RemovalCause::Flush => {
                    self.stats.deleted_keys += 1;
                }
                RemovalCause::Eviction => {
                    self.stats.evicted_keys += 1;
                }
            }
            if let Some(listener) = &self.removal_listener.0 {
                (**listener)(key, cause);
            }
        }
        removed
    }

    /// Install (or clear) the removal listener. The listener fires for
    /// every per-key removal — explicit deletes, lazy and active expiry,
    /// and `maxmemory` eviction — but not for wholesale flushes.
    pub fn set_removal_listener(&mut self, listener: Option<RemovalListener>) {
        self.removal_listener = RemovalListenerSlot(listener);
    }

    /// Delete the key if its TTL has elapsed (Redis' `expireIfNeeded`).
    /// Returns `true` if the key was expired and removed by this call.
    pub fn expire_if_needed(&mut self, key: &str) -> bool {
        let now = self.now_millis();
        self.expire_if_due(key, now)
    }

    /// [`Self::expire_if_needed`] against a clock reading the caller
    /// already took.
    fn expire_if_due(&mut self, key: &str, now: UnixMillis) -> bool {
        match self.expires.get(key) {
            Some(&at) if at <= now => {
                self.remove_key(key, RemovalCause::LazyExpiry);
                true
            }
            _ => false,
        }
    }

    // ----- string commands -------------------------------------------------

    /// Set `key` to a string value, clearing any previous TTL and
    /// governing bytes (Redis `SET`). The value is the caller's buffer
    /// moved in, so its spare capacity is given back first: the keyspace
    /// holds what `mem_bytes` counts.
    pub fn set(&mut self, key: &str, value: Bytes) {
        self.set_governed(key, value, None);
    }

    /// [`Self::set`], with `governed` as the entry's governing bytes: the
    /// value and what governs it are written as one entry.
    pub fn set_governed(&mut self, key: &str, mut value: Bytes, governed: Option<Arc<[u8]>>) {
        value.shrink_to_fit();
        self.set_entry(key, Value::Str(value), governed);
    }

    /// Make `value` and `governed` the entry at `key`, clearing any
    /// previous TTL.
    pub(crate) fn set_entry(&mut self, key: &str, value: Value, governed: Option<Arc<[u8]>>) {
        let now = self.now_millis();
        self.unindex_expiry(key);
        match self.dict.get_mut(key) {
            Some(obj) => {
                let old_size = obj.footprint(key);
                obj.value = value;
                obj.governed = governed;
                obj.mark_written(now);
                let new_size = obj.footprint(key);
                self.mem_sub(old_size);
                self.mem_add(new_size);
            }
            None => {
                let obj = Object {
                    governed,
                    ..Object::new(value, now)
                };
                self.mem_add(obj.footprint(key));
                self.dict.insert(key.to_string(), obj);
                self.sorted_keys.insert(key.to_string());
                self.index_key(key);
            }
        }
        self.stats.writes += 1;
        self.dirty += 1;
    }

    /// Replace the governing bytes of the entry at `key`, leaving its
    /// value and TTL alone. Returns `false` (and changes nothing) when the
    /// key does not exist.
    pub fn govern(&mut self, key: &str, governed: Arc<[u8]>) -> bool {
        self.expire_if_needed(key);
        let now = self.now_millis();
        let Some(obj) = self.dict.get_mut(key) else {
            return false;
        };
        let old_size = obj.footprint(key);
        obj.governed = Some(governed);
        obj.mark_written(now);
        let new_size = obj.footprint(key);
        self.mem_sub(old_size);
        self.mem_add(new_size);
        self.stats.writes += 1;
        self.dirty += 1;
        true
    }

    /// Look `key` up on behalf of a read (Redis' `lookupKeyRead`): lazy
    /// expiry first, then the access-time touch and the keyspace hit or
    /// miss. Every whole-value read goes through here, so a value costs
    /// the same bookkeeping whichever call fetched it.
    pub fn lookup_read(&mut self, key: &str) -> Option<&Object> {
        let now = self.now_millis();
        self.expire_if_due(key, now);
        match self.dict.get_mut(key) {
            Some(obj) => {
                obj.touch(now);
                self.stats.keyspace_hits += 1;
                Some(obj)
            }
            None => {
                self.stats.keyspace_misses += 1;
                None
            }
        }
    }

    /// The entry at `key` after lazy expiry, with no access-time touch and
    /// no hit or miss counted (Redis `EXISTS`).
    pub fn lookup(&mut self, key: &str) -> Option<&Object> {
        self.expire_if_needed(key);
        self.dict.get(key)
    }

    /// Get the string value of `key` (Redis `GET`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::WrongType`] if the key holds a non-string.
    pub fn get(&mut self, key: &str) -> Result<Option<Bytes>> {
        match self.lookup_read(key).map(|obj| &obj.value) {
            Some(Value::Str(b)) => Ok(Some(b.clone())),
            Some(other) => Err(other.wrong_type(key, "string")),
            None => Ok(None),
        }
    }

    /// Whether `key` exists (after lazy expiry).
    pub fn exists(&mut self, key: &str) -> bool {
        self.lookup(key).is_some()
    }

    /// Delete a key (Redis `DEL`/`UNLINK`). Returns `true` if it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        self.expire_if_needed(key);
        self.remove_key(key, RemovalCause::Explicit).is_some()
    }

    /// Remove every key (Redis `FLUSHALL`). Returns the number removed.
    pub fn flush_all(&mut self) -> usize {
        let n = self.dict.len();
        self.dict.clear();
        self.expires.clear();
        self.expires_sample_pool.clear();
        self.expires_pool_index.clear();
        self.keys_sample_pool.clear();
        self.keys_pool_index.clear();
        self.deadline_index.clear();
        self.sorted_keys.clear();
        self.stats.deleted_keys += n as u64;
        self.stats.mem_bytes = 0;
        self.dirty += n as u64;
        n
    }

    // ----- hash commands ---------------------------------------------------

    /// Set a field of the hash at `key` (Redis `HSET`). Creates the hash if
    /// missing. Returns `true` if the field was newly created.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::WrongType`] if the key holds a non-hash.
    pub fn hset(&mut self, key: &str, field: &str, mut value: Bytes) -> Result<bool> {
        value.shrink_to_fit();
        self.expire_if_needed(key);
        let now = self.now_millis();
        let value_len = value.len();
        let obj = self
            .dict
            .entry(key.to_string())
            .or_insert_with(|| Object::new(Value::Hash(BTreeMap::new()), now));
        match &mut obj.value {
            Value::Hash(map) => {
                let prev = map.insert(field.to_string(), value);
                let fresh = prev.is_none();
                obj.mark_written(now);
                if self.sorted_keys.insert(key.to_string()) {
                    self.index_key(key);
                    self.mem_add(crate::object::PER_KEY_OVERHEAD + key.len());
                }
                if let Some(old) = prev {
                    self.mem_sub(field.len() + old.len());
                }
                self.mem_add(field.len() + value_len);
                self.stats.writes += 1;
                self.dirty += 1;
                Ok(fresh)
            }
            other => Err(StoreError::WrongType {
                key: key.to_string(),
                actual: other.type_name(),
                expected: "hash",
            }),
        }
    }

    /// Set many fields at once (Redis `HMSET`). Returns the number of new
    /// fields.
    pub fn hset_multi(&mut self, key: &str, fields: BTreeMap<String, Bytes>) -> Result<usize> {
        let mut created = 0;
        for (f, v) in fields {
            if self.hset(key, &f, v)? {
                created += 1;
            }
        }
        Ok(created)
    }

    /// Get one field of a hash (Redis `HGET`).
    pub fn hget(&mut self, key: &str, field: &str) -> Result<Option<Bytes>> {
        self.expire_if_needed(key);
        let now = self.now_millis();
        match self.dict.get_mut(key) {
            Some(obj) => {
                obj.touch(now);
                match &obj.value {
                    Value::Hash(map) => {
                        let hit = map.get(field).cloned();
                        if hit.is_some() {
                            self.stats.keyspace_hits += 1;
                        } else {
                            self.stats.keyspace_misses += 1;
                        }
                        Ok(hit)
                    }
                    other => Err(StoreError::WrongType {
                        key: key.to_string(),
                        actual: other.type_name(),
                        expected: "hash",
                    }),
                }
            }
            None => {
                self.stats.keyspace_misses += 1;
                Ok(None)
            }
        }
    }

    /// Get all fields of a hash (Redis `HGETALL`).
    pub fn hgetall(&mut self, key: &str) -> Result<Option<BTreeMap<String, Bytes>>> {
        match self.lookup_read(key).map(|obj| &obj.value) {
            Some(Value::Hash(map)) => Ok(Some(map.clone())),
            Some(other) => Err(other.wrong_type(key, "hash")),
            None => Ok(None),
        }
    }

    /// Delete a field from a hash (Redis `HDEL`). Removes the key entirely
    /// when the last field goes away, like Redis does.
    pub fn hdel(&mut self, key: &str, field: &str) -> Result<bool> {
        self.expire_if_needed(key);
        let now = self.now_millis();
        let Some(obj) = self.dict.get_mut(key) else {
            return Ok(false);
        };
        let removed = match &mut obj.value {
            Value::Hash(map) => {
                let prev = map.remove(field);
                let removed = prev.is_some();
                if let Some(old) = prev {
                    obj.mark_written(now);
                    self.mem_sub(field.len() + old.len());
                    self.stats.writes += 1;
                    self.dirty += 1;
                }
                removed
            }
            other => {
                return Err(StoreError::WrongType {
                    key: key.to_string(),
                    actual: other.type_name(),
                    expected: "hash",
                })
            }
        };
        if removed && self.dict.get(key).is_some_and(|o| o.value.is_empty()) {
            self.remove_key(key, RemovalCause::Explicit);
        }
        Ok(removed)
    }

    // ----- set commands (used by the GDPR metadata indexes) ----------------

    /// Add a member to the set at `key` (Redis `SADD`). Returns `true` if
    /// newly added.
    pub fn sadd(&mut self, key: &str, mut member: Bytes) -> Result<bool> {
        member.shrink_to_fit();
        self.expire_if_needed(key);
        let now = self.now_millis();
        let member_len = member.len();
        let obj = self
            .dict
            .entry(key.to_string())
            .or_insert_with(|| Object::new(Value::Set(BTreeSet::new()), now));
        match &mut obj.value {
            Value::Set(members) => {
                let added = members.insert(member);
                if added {
                    obj.mark_written(now);
                }
                if self.sorted_keys.insert(key.to_string()) {
                    self.index_key(key);
                    self.mem_add(crate::object::PER_KEY_OVERHEAD + key.len());
                }
                if added {
                    self.mem_add(member_len);
                    self.stats.writes += 1;
                    self.dirty += 1;
                }
                Ok(added)
            }
            other => Err(StoreError::WrongType {
                key: key.to_string(),
                actual: other.type_name(),
                expected: "set",
            }),
        }
    }

    /// Remove a member from a set (Redis `SREM`).
    pub fn srem(&mut self, key: &str, member: &[u8]) -> Result<bool> {
        self.expire_if_needed(key);
        let now = self.now_millis();
        let Some(obj) = self.dict.get_mut(key) else {
            return Ok(false);
        };
        let removed = match &mut obj.value {
            Value::Set(members) => {
                let removed = members.remove(member);
                if removed {
                    obj.mark_written(now);
                    self.mem_sub(member.len());
                    self.stats.writes += 1;
                    self.dirty += 1;
                }
                removed
            }
            other => {
                return Err(StoreError::WrongType {
                    key: key.to_string(),
                    actual: other.type_name(),
                    expected: "set",
                })
            }
        };
        if removed && self.dict.get(key).is_some_and(|o| o.value.is_empty()) {
            self.remove_key(key, RemovalCause::Explicit);
        }
        Ok(removed)
    }

    /// All members of a set (Redis `SMEMBERS`), empty if the key is absent.
    pub fn smembers(&mut self, key: &str) -> Result<Vec<Bytes>> {
        self.expire_if_needed(key);
        match self.dict.get(key) {
            Some(obj) => match &obj.value {
                Value::Set(members) => Ok(members.iter().cloned().collect()),
                other => Err(StoreError::WrongType {
                    key: key.to_string(),
                    actual: other.type_name(),
                    expected: "set",
                }),
            },
            None => Ok(Vec::new()),
        }
    }

    // ----- TTL commands ----------------------------------------------------

    /// Set an absolute expiration time (Redis `PEXPIREAT`). Returns `false`
    /// if the key does not exist.
    pub fn expire_at(&mut self, key: &str, at: UnixMillis) -> bool {
        self.expire_if_needed(key);
        if !self.dict.contains_key(key) {
            return false;
        }
        self.index_expiry(key, at);
        self.dirty += 1;
        true
    }

    /// Set a relative TTL in milliseconds (Redis `PEXPIRE`).
    pub fn expire_in_millis(&mut self, key: &str, ttl_ms: u64) -> bool {
        let at = self.now_millis().saturating_add(ttl_ms);
        self.expire_at(key, at)
    }

    /// Remaining TTL in milliseconds, `None` if the key has no TTL or does
    /// not exist (Redis `PTTL`, collapsing the -1/-2 distinction into the
    /// richer [`Option`] returned by [`Db::exists`]).
    pub fn ttl_millis(&mut self, key: &str) -> Option<u64> {
        self.expire_if_needed(key);
        let now = self.now_millis();
        self.expires.get(key).map(|&at| at.saturating_sub(now))
    }

    /// Absolute expiration deadline of a key, if any.
    #[must_use]
    pub fn expire_deadline(&self, key: &str) -> Option<UnixMillis> {
        self.expires.get(key).copied()
    }

    /// Remove the TTL from a key (Redis `PERSIST`). Returns `true` if a TTL
    /// was removed.
    pub fn persist(&mut self, key: &str) -> bool {
        if self.expires.contains_key(key) {
            self.unindex_expiry(key);
            self.dirty += 1;
            true
        } else {
            false
        }
    }

    // ----- expiry cycles ---------------------------------------------------

    /// One iteration of Redis' probabilistic active-expiry sampling: look at
    /// up to `sample_size` random keys that carry a TTL and remove the
    /// expired ones. Returns `(sampled, removed_keys)`.
    ///
    /// This is the algorithm the paper describes for stock Redis: *"once
    /// every 100ms, it samples 20 random keys from the set of keys with
    /// expire flag set; if any of these twenty have expired, they are
    /// actively deleted; if less than 5 keys got deleted, then wait till the
    /// next iteration, else repeat the loop immediately."*
    pub fn active_expire_sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        sample_size: usize,
    ) -> (usize, Vec<String>) {
        let now = self.now_millis();
        let pool_len = self.expires_sample_pool.len();
        if pool_len == 0 {
            return (0, Vec::new());
        }
        let samples = sample_size.min(pool_len);
        let mut expired = Vec::new();
        for _ in 0..samples {
            // Sample with replacement, as the Redis dict sampling effectively
            // does across buckets.
            let idx = rng.gen_range(0..self.expires_sample_pool.len());
            let key = self.expires_sample_pool[idx].clone();
            if let Some(&at) = self.expires.get(&key) {
                if at <= now {
                    self.remove_key(&key, RemovalCause::ActiveExpiry);
                    expired.push(key);
                    if self.expires_sample_pool.is_empty() {
                        break;
                    }
                }
            }
        }
        (samples, expired)
    }

    /// Strict expiry sweep: remove **every** key whose deadline is `<= now`,
    /// using the deadline index. This is the paper's modification ("we
    /// modify Redis to iterate through the entire list of keys with
    /// associated EXPIRE"), served in `O(expired)` by the timer wheel (or
    /// the BTree reference index — the paper's §5.1 *Efficient Deletion*
    /// suggestion). The order of the returned keys is
    /// implementation-defined but deterministic — the BTree sweeps in
    /// `(deadline, key)` order, the wheel in slot order; callers needing
    /// a canonical order must sort.
    pub fn strict_expire_sweep(&mut self) -> Vec<String> {
        let now = self.now_millis();
        let removed = self.deadline_index.advance(now);
        for key in &removed {
            self.remove_key(key, RemovalCause::ActiveExpiry);
        }
        removed
    }

    // ----- maxmemory eviction ----------------------------------------------

    /// Pick and remove one eviction victim according to `policy`, sampling
    /// up to `sample` random keys from the whole keyspace (the
    /// `maxmemory-samples` approximation Redis uses instead of a true LRU
    /// list). Returns the evicted key so the caller can journal a `DEL`,
    /// or `None` if the keyspace is empty or the policy never evicts.
    pub fn evict_one<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        policy: EvictionPolicy,
        sample: usize,
    ) -> Option<String> {
        if self.keys_sample_pool.is_empty() {
            return None;
        }
        let victim = match policy {
            EvictionPolicy::Noeviction => return None,
            EvictionPolicy::SampledRandom => {
                let idx = rng.gen_range(0..self.keys_sample_pool.len());
                self.keys_sample_pool[idx].clone()
            }
            EvictionPolicy::SampledLru => {
                // Approximated LRU: among `sample` random keys, evict the
                // one idle the longest (smallest last-access timestamp).
                let mut best: Option<(UnixMillis, String)> = None;
                for _ in 0..sample.max(1) {
                    let idx = rng.gen_range(0..self.keys_sample_pool.len());
                    let key = &self.keys_sample_pool[idx];
                    let last = self.dict.get(key).map_or(0, |o| o.last_access_ms);
                    if best.as_ref().is_none_or(|(b, _)| last < *b) {
                        best = Some((last, key.clone()));
                    }
                }
                best?.1
            }
        };
        self.remove_key(&victim, RemovalCause::Eviction);
        Some(victim)
    }

    /// Number of keys currently carrying a TTL.
    #[must_use]
    pub fn expires_len(&self) -> usize {
        self.expires.len()
    }

    /// Number of keys whose TTL deadline has already passed but which are
    /// still present in the keyspace (i.e. not yet physically erased). This
    /// is exactly the quantity Figure 2 of the paper tracks. Takes `&mut`
    /// because the wheel advances its cursor to answer it.
    pub fn pending_expired_len(&mut self) -> usize {
        let now = self.clock.now_millis();
        self.deadline_index.pending_expired(now)
    }

    /// Which deadline-index implementation this keyspace runs on.
    #[must_use]
    pub fn deadline_index_kind(&self) -> DeadlineIndexKind {
        self.deadline_index.kind()
    }

    /// Occupancy and activity counters of the deadline index.
    #[must_use]
    pub fn deadline_index_stats(&self) -> DeadlineIndexStats {
        self.deadline_index.stats()
    }

    // ----- keyspace queries -------------------------------------------------

    /// Number of keys (including not-yet-expired ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether the keyspace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// All keys matching a glob-style pattern (Redis `KEYS`). Supports `*`
    /// and `?` wildcards.
    #[must_use]
    pub fn keys(&self, pattern: &str) -> Vec<String> {
        self.sorted_keys
            .iter()
            .filter(|k| glob_match(pattern, k))
            .cloned()
            .collect()
    }

    /// Ordered scan starting at `start` (inclusive), returning up to `count`
    /// keys — the primitive the YCSB scan workload (workload E) maps to.
    #[must_use]
    pub fn scan_range(&self, start: &str, count: usize) -> Vec<String> {
        self.sorted_keys
            .range(start.to_string()..)
            .take(count)
            .cloned()
            .collect()
    }

    /// Iterate over all `(key, object)` pairs (used by snapshot and AOF
    /// rewrite).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Object)> {
        self.dict.iter()
    }
}

/// Minimal glob matcher supporting `*` (any run) and `?` (any single char),
/// the subset Redis `KEYS`/`SCAN MATCH` patterns use in practice.
#[must_use]
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some(b'*'), _) => {
                // Try to consume zero or more characters.
                inner(&p[1..], t) || (!t.is_empty() && inner(p, &t[1..]))
            }
            (Some(b'?'), Some(_)) => inner(&p[1..], &t[1..]),
            (Some(a), Some(b)) if a == b => inner(&p[1..], &t[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, SimClock};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn sim_db() -> (Db, SimClock) {
        let clock = SimClock::new(1_000_000);
        (Db::new(Arc::new(clock.clone())), clock)
    }

    #[test]
    fn set_get_roundtrip() {
        let (mut db, _) = sim_db();
        db.set("k", b"v".to_vec());
        assert_eq!(db.get("k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.get("missing").unwrap(), None);
        assert_eq!(db.stats().keyspace_hits, 1);
        assert_eq!(db.stats().keyspace_misses, 1);
    }

    #[test]
    fn set_overwrites_and_clears_ttl() {
        let (mut db, _) = sim_db();
        db.set("k", b"v1".to_vec());
        db.expire_in_millis("k", 5_000);
        assert!(db.ttl_millis("k").is_some());
        db.set("k", b"v2".to_vec());
        assert_eq!(db.ttl_millis("k"), None, "SET clears the TTL like Redis");
        assert_eq!(db.get("k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn wrong_type_errors() {
        let (mut db, _) = sim_db();
        db.hset("h", "f", b"v".to_vec()).unwrap();
        assert!(matches!(db.get("h"), Err(StoreError::WrongType { .. })));
        db.set("s", b"v".to_vec());
        assert!(matches!(
            db.hget("s", "f"),
            Err(StoreError::WrongType { .. })
        ));
        assert!(matches!(
            db.sadd("s", b"m".to_vec()),
            Err(StoreError::WrongType { .. })
        ));
    }

    #[test]
    fn delete_and_exists() {
        let (mut db, _) = sim_db();
        db.set("k", b"v".to_vec());
        assert!(db.exists("k"));
        assert!(db.delete("k"));
        assert!(!db.delete("k"));
        assert!(!db.exists("k"));
        assert_eq!(db.stats().deleted_keys, 1);
    }

    #[test]
    fn lazy_expiry_on_access() {
        let (mut db, clock) = sim_db();
        db.set("k", b"v".to_vec());
        db.expire_in_millis("k", 100);
        clock.advance_millis(101);
        assert_eq!(db.get("k").unwrap(), None);
        assert_eq!(db.stats().expired_keys, 1);
        assert_eq!(db.expires_len(), 0);
    }

    #[test]
    fn ttl_reports_remaining_time() {
        let (mut db, clock) = sim_db();
        db.set("k", b"v".to_vec());
        db.expire_in_millis("k", 500);
        clock.advance_millis(200);
        assert_eq!(db.ttl_millis("k"), Some(300));
        assert!(db.persist("k"));
        assert_eq!(db.ttl_millis("k"), None);
        assert!(!db.persist("k"));
    }

    #[test]
    fn expire_on_missing_key_is_false() {
        let (mut db, _) = sim_db();
        assert!(!db.expire_in_millis("nope", 100));
        assert!(!db.expire_at("nope", 42));
    }

    #[test]
    fn hash_operations() {
        let (mut db, _) = sim_db();
        assert!(db.hset("h", "f1", b"a".to_vec()).unwrap());
        assert!(!db.hset("h", "f1", b"b".to_vec()).unwrap());
        assert!(db.hset("h", "f2", b"c".to_vec()).unwrap());
        assert_eq!(db.hget("h", "f1").unwrap(), Some(b"b".to_vec()));
        assert_eq!(db.hget("h", "missing").unwrap(), None);
        let all = db.hgetall("h").unwrap().unwrap();
        assert_eq!(all.len(), 2);
        assert!(db.hdel("h", "f1").unwrap());
        assert!(db.hdel("h", "f2").unwrap());
        assert!(!db.exists("h"), "hash removed when last field deleted");
    }

    #[test]
    fn set_operations() {
        let (mut db, _) = sim_db();
        assert!(db.sadd("s", b"a".to_vec()).unwrap());
        assert!(!db.sadd("s", b"a".to_vec()).unwrap());
        db.sadd("s", b"b".to_vec()).unwrap();
        assert_eq!(db.smembers("s").unwrap().len(), 2);
        assert!(db.srem("s", b"a").unwrap());
        assert!(!db.srem("s", b"zzz").unwrap());
        assert_eq!(db.smembers("nothere").unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn flush_all_clears_everything() {
        let (mut db, _) = sim_db();
        for i in 0..10 {
            db.set(&format!("k{i}"), vec![i as u8]);
            db.expire_in_millis(&format!("k{i}"), 1000);
        }
        assert_eq!(db.flush_all(), 10);
        assert!(db.is_empty());
        assert_eq!(db.expires_len(), 0);
        assert_eq!(db.scan_range("", 100).len(), 0);
    }

    #[test]
    fn strict_sweep_removes_all_expired() {
        let (mut db, clock) = sim_db();
        for i in 0..100 {
            let key = format!("k{i:03}");
            db.set(&key, b"v".to_vec());
            // Half expire soon, half much later.
            let ttl = if i % 2 == 0 { 100 } else { 1_000_000 };
            db.expire_in_millis(&key, ttl);
        }
        clock.advance_millis(200);
        assert_eq!(db.pending_expired_len(), 50);
        let removed = db.strict_expire_sweep();
        assert_eq!(removed.len(), 50);
        assert_eq!(db.pending_expired_len(), 0);
        assert_eq!(db.len(), 50);
        assert_eq!(db.stats().expired_keys, 50);
    }

    #[test]
    fn active_sample_removes_only_expired() {
        let (mut db, clock) = sim_db();
        for i in 0..50 {
            let key = format!("k{i:02}");
            db.set(&key, b"v".to_vec());
            db.expire_in_millis(&key, if i < 25 { 10 } else { 1_000_000 });
        }
        clock.advance_millis(20);
        let mut rng = rand::thread_rng();
        let mut total_removed = 0;
        for _ in 0..500 {
            let (_, removed) = db.active_expire_sample(&mut rng, 20);
            total_removed += removed.len();
        }
        assert_eq!(
            total_removed, 25,
            "eventually all expired keys are sampled away"
        );
        assert_eq!(db.len(), 25);
    }

    #[test]
    fn scan_range_is_ordered_and_bounded() {
        let (mut db, _) = sim_db();
        for i in [3, 1, 2, 5, 4] {
            db.set(&format!("user{i}"), b"v".to_vec());
        }
        let scanned = db.scan_range("user2", 3);
        assert_eq!(scanned, vec!["user2", "user3", "user4"]);
    }

    #[test]
    fn keys_glob_patterns() {
        let (mut db, _) = sim_db();
        db.set("user:1:email", b"".to_vec());
        db.set("user:2:email", b"".to_vec());
        db.set("order:1", b"".to_vec());
        assert_eq!(db.keys("user:*").len(), 2);
        assert_eq!(db.keys("user:?:email").len(), 2);
        assert_eq!(db.keys("*").len(), 3);
        assert_eq!(db.keys("order:1").len(), 1);
        assert_eq!(db.keys("nothing*").len(), 0);
    }

    #[test]
    fn glob_match_edge_cases() {
        assert!(glob_match("", ""));
        assert!(glob_match("*", ""));
        assert!(!glob_match("?", ""));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b", "ac"));
    }

    #[test]
    fn dirty_counter_tracks_changes() {
        let (mut db, _) = sim_db();
        assert_eq!(db.dirty(), 0);
        db.set("a", b"1".to_vec());
        db.set("b", b"2".to_vec());
        db.delete("a");
        assert!(db.dirty() >= 3);
        db.reset_dirty();
        assert_eq!(db.dirty(), 0);
    }

    #[test]
    fn mem_bytes_tracks_mutations() {
        use crate::object::PER_KEY_OVERHEAD;
        let (mut db, _) = sim_db();
        assert_eq!(db.mem_bytes(), 0);
        db.set("k", b"abcd".to_vec());
        let one = (PER_KEY_OVERHEAD + 1 + 4) as u64;
        assert_eq!(db.mem_bytes(), one);
        // Overwrite re-charges only the payload difference.
        db.set("k", b"ab".to_vec());
        assert_eq!(db.mem_bytes(), one - 2);
        // Hash fields charge field + value bytes; key overhead once.
        db.hset("h", "f1", b"v1".to_vec()).unwrap();
        db.hset("h", "f2", b"v2".to_vec()).unwrap();
        let h = (PER_KEY_OVERHEAD + 1 + 4 + 4) as u64;
        assert_eq!(db.mem_bytes(), one - 2 + h);
        // Overwriting a field swaps its payload.
        db.hset("h", "f1", b"longer".to_vec()).unwrap();
        assert_eq!(db.mem_bytes(), one - 2 + h + 4);
        db.hdel("h", "f1").unwrap();
        db.hdel("h", "f2").unwrap();
        // Last hdel removes the key entirely, refunding the overhead.
        assert_eq!(db.mem_bytes(), one - 2);
        // Sets charge member bytes.
        db.sadd("s", b"mmm".to_vec()).unwrap();
        assert_eq!(db.mem_bytes(), one - 2 + (PER_KEY_OVERHEAD + 1 + 3) as u64);
        db.srem("s", b"mmm").unwrap();
        assert_eq!(db.mem_bytes(), one - 2);
        db.delete("k");
        assert_eq!(db.mem_bytes(), 0);
    }

    #[test]
    fn governing_bytes_live_and_die_with_their_entry() {
        use crate::object::PER_KEY_OVERHEAD;
        let (mut db, _) = sim_db();
        let charged = |payload: usize| (PER_KEY_OVERHEAD + 1 + payload) as u64;
        let governed = |bytes: &[u8]| Some(Arc::<[u8]>::from(bytes));
        db.set_governed("k", b"abcd".to_vec(), governed(b"meta"));
        assert_eq!(db.mem_bytes(), charged(4 + 4));
        assert_eq!(db.lookup("k").unwrap().governed, governed(b"meta"));
        // Re-governing leaves value and TTL alone; a plain SET clears it.
        db.expire_in_millis("k", 1_000);
        assert!(db.govern("k", Arc::from(&b"longer"[..])));
        assert_eq!(db.mem_bytes(), charged(4 + 6));
        assert_eq!(db.get("k").unwrap(), Some(b"abcd".to_vec()));
        assert!(db.ttl_millis("k").is_some());
        db.hset("h", "f", b"v".to_vec()).unwrap();
        assert!(db.govern("h", Arc::from(&b"meta"[..])));
        db.hset("h", "g", b"w".to_vec()).unwrap();
        assert_eq!(db.lookup("h").unwrap().governed, governed(b"meta"));
        db.set("k", b"abcd".to_vec());
        assert_eq!(db.lookup("k").unwrap().governed, None);
        assert!(!db.govern("absent", Arc::from(&b"meta"[..])));
        assert!(!db.exists("absent"));
        db.delete("k");
        db.delete("h");
        assert_eq!(db.mem_bytes(), 0);
    }

    #[test]
    fn mem_bytes_zero_after_flush_and_expiry() {
        let (mut db, clock) = sim_db();
        for i in 0..8 {
            db.set(&format!("k{i}"), vec![0u8; 100]);
            db.expire_in_millis(&format!("k{i}"), 50);
        }
        assert!(db.mem_bytes() > 0);
        clock.advance_millis(100);
        db.strict_expire_sweep();
        assert_eq!(db.mem_bytes(), 0, "expiry refunds the footprint");
        db.set("k", b"v".to_vec());
        db.flush_all();
        assert_eq!(db.mem_bytes(), 0, "flush resets the gauge");
    }

    #[test]
    fn evict_one_lru_prefers_idle_keys() {
        let (mut db, clock) = sim_db();
        db.set("cold", b"v".to_vec());
        clock.advance_millis(10_000);
        db.set("hot", b"v".to_vec());
        // Keep "hot" hot.
        db.get("hot").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Sample size 8 over a 2-key pool: both keys are sampled, so LRU
        // must pick the idle one deterministically.
        let victim = db
            .evict_one(&mut rng, EvictionPolicy::SampledLru, 8)
            .unwrap();
        assert_eq!(victim, "cold");
        assert_eq!(db.stats().evicted_keys, 1);
        assert!(db.exists("hot"));
    }

    #[test]
    fn evict_one_policies_and_empty_pool() {
        let (mut db, _) = sim_db();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(db.evict_one(&mut rng, EvictionPolicy::SampledLru, 5), None);
        db.set("k", b"v".to_vec());
        assert_eq!(
            db.evict_one(&mut rng, EvictionPolicy::Noeviction, 5),
            None,
            "noeviction never evicts"
        );
        let victim = db
            .evict_one(&mut rng, EvictionPolicy::SampledRandom, 5)
            .unwrap();
        assert_eq!(victim, "k");
        assert!(db.is_empty());
        assert_eq!(db.mem_bytes(), 0);
    }

    #[test]
    fn pending_expired_len_respects_clock() {
        let (mut db, clock) = sim_db();
        db.set("k", b"v".to_vec());
        db.expire_in_millis("k", 1_000);
        assert_eq!(db.pending_expired_len(), 0);
        clock.advance_millis(2_000);
        assert_eq!(db.pending_expired_len(), 1);
        assert_eq!(clock.now_millis(), db.now_millis());
    }
}
