//! The in-memory keyspace: one slot per key, holding the key's typed
//! object and its expiry deadline.
//!
//! A command finds its key's slot once and applies lazy expiry there (an
//! entry past its deadline is removed and reads as absent); `KEYS` and
//! `SCAN` leave such entries out without removing them, and `DBSIZE`
//! counts them until they are removed, as in Redis.
//!
//! The slot is the one authority for a key's deadline. Strict expiry finds
//! the expired keys through a timer wheel ([`crate::ttl_wheel`]) that only
//! indexes the slots: each deadline set parks one entry pointing back at
//! its slot, and the keyspace decides whether that entry still holds.
//!
//! [`Db`] is deliberately single-threaded (like a Redis database); the
//! [`crate::store::KvStore`] wraps it in a lock and adds persistence. All
//! methods take `&mut self` and are infallible unless a type error or
//! decoding problem can occur.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use rand::Rng;

use crate::clock::{SharedClock, UnixMillis};
use crate::config::EvictionPolicy;
use crate::object::{Bytes, Object, Value};
use crate::ttl_wheel::{DeadlineIndexStats, Entry, TtlWheel};
use crate::Result;

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

/// One key of the keyspace with everything the engine keeps about it: the
/// entry, its deadline and, while it has one, where it sits in
/// `Db::expiring`.
#[derive(Debug)]
struct Slot {
    key: Arc<str>,
    obj: Object,
    /// Absolute expiration time, in Unix milliseconds.
    deadline: Option<UnixMillis>,
    /// Position of this slot's number in `expiring`; meaningful only
    /// while `deadline` is set.
    expiring_pos: u32,
    /// Bumped by every deadline set: a wheel entry parked under an older
    /// number is stale.
    deadline_seq: u32,
}

// The sequence number sits in the padding beside `expiring_pos`.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Slot>() == 96);

/// A single logical database (keyspace).
///
/// Each key is one `Slot` in a dense vector; `index` maps a key to its
/// slot and `expiring` lists the slots that carry a deadline. Both vectors
/// are sampled directly — the evictor draws from `slots`, active expiry
/// from `expiring` — and a removal swap-removes, re-pointing the slot that
/// moved into the gap. The key is allocated once, as an `Arc<str>` shared
/// by its slot, `index`, `sorted_keys` and its wheel entries.
#[derive(Debug)]
pub struct Db {
    slots: Vec<Slot>,
    index: HashMap<Arc<str>, u32>,
    /// Slot numbers of the keys with a deadline: the paper's "set of keys
    /// with expire flag set" that active expiry samples (Redis samples
    /// the `expires` dict).
    expiring: Vec<u32>,
    /// Index over the slots' deadlines, used by the *strict* expiry mode
    /// the paper's modified Redis implements (see [`crate::ttl_wheel`]).
    wheel: TtlWheel,
    /// Deadlines set on keys that had none.
    deadline_inserts: u64,
    /// Deadlines replaced on keys that had one.
    deadline_reschedules: u64,
    /// Deadlines cleared before they fired (`PERSIST`, removal, overwrite).
    deadline_removes: u64,
    /// All keys in lexicographic order, used to serve YCSB-style scans.
    sorted_keys: BTreeSet<Arc<str>>,
    clock: SharedClock,
    stats: DbStats,
    /// Number of keyspace changes since the last persistence checkpoint.
    dirty: u64,
    /// Notified after every per-key removal (see [`RemovalListener`]).
    removal_listener: RemovalListenerSlot,
}

/// A position in `slots` or `expiring`, stored as a `u32`.
fn position(pos: usize) -> u32 {
    u32::try_from(pos).expect("a keyspace holds fewer than 2^32 keys")
}

impl Db {
    /// Create an empty database reading time from `clock`.
    #[must_use]
    pub fn new(clock: SharedClock) -> Self {
        Db {
            slots: Vec::new(),
            index: HashMap::new(),
            expiring: Vec::new(),
            wheel: TtlWheel::new(clock.now_millis()),
            deadline_inserts: 0,
            deadline_reschedules: 0,
            deadline_removes: 0,
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

    // ----- slot maintenance ------------------------------------------------

    fn mem_add(&mut self, bytes: usize) {
        self.stats.mem_bytes += bytes as u64;
    }

    fn mem_sub(&mut self, bytes: usize) {
        self.stats.mem_bytes = self.stats.mem_bytes.saturating_sub(bytes as u64);
    }

    /// The slot holding `key`, past its deadline or not.
    fn slot_of(&self, key: &str) -> Option<usize> {
        self.index.get(key).map(|&pos| pos as usize)
    }

    /// The slot holding `key` after lazy expiry (Redis' `expireIfNeeded`):
    /// an entry whose deadline is `<= now` is removed here and reads as
    /// absent.
    fn live_slot(&mut self, key: &str, now: UnixMillis) -> Option<usize> {
        let pos = self.slot_of(key)?;
        if self.slots[pos].deadline.is_some_and(|at| at <= now) {
            self.remove_at(pos, RemovalCause::LazyExpiry);
            return None;
        }
        Some(pos)
    }

    /// Whether `key` is held and its deadline, if any, is after `now`.
    fn is_live(&self, key: &str, now: UnixMillis) -> bool {
        self.expire_deadline(key).is_none_or(|at| now < at)
    }

    /// Add `obj` at `key`, which the keyspace does not hold, as a new last
    /// slot: the key is allocated here, once. Returns the slot.
    fn insert_new(&mut self, key: &str, obj: Object) -> usize {
        let key: Arc<str> = Arc::from(key);
        let pos = self.slots.len();
        self.sorted_keys.insert(Arc::clone(&key));
        self.index.insert(Arc::clone(&key), position(pos));
        self.slots.push(Slot {
            key,
            obj,
            deadline: None,
            expiring_pos: 0,
            deadline_seq: 0,
        });
        pos
    }

    /// The live slot of `key`, created holding `empty()` when there is
    /// none (the container commands' implicit create).
    fn live_or_create(
        &mut self,
        key: &str,
        empty: impl FnOnce() -> Value,
        now: UnixMillis,
    ) -> usize {
        if let Some(pos) = self.live_slot(key, now) {
            return pos;
        }
        self.mem_add(crate::object::PER_KEY_OVERHEAD + key.len());
        self.insert_new(key, Object::new(empty(), now))
    }

    /// The wheel, with the test of whether the slots still vouch for one
    /// of its entries: the key's slot exists, holds the same key
    /// allocation, and carries the entry's deadline under the entry's
    /// sequence number.
    fn wheel_and_vouch(&mut self) -> (&mut TtlWheel, impl Fn(&Entry) -> bool + '_) {
        let (index, slots) = (&self.index, &self.slots);
        let vouch = move |entry: &Entry| {
            index.get(entry.key.as_ref()).is_some_and(|&pos| {
                let slot = &slots[pos as usize];
                Arc::ptr_eq(&slot.key, &entry.key)
                    && slot.deadline == Some(entry.at)
                    && slot.deadline_seq == entry.seq
            })
        };
        (&mut self.wheel, vouch)
    }

    /// Rewrite the wheel from its live entries once stale ones dominate.
    fn compact_wheel(&mut self) {
        let live = self.expiring.len();
        let (wheel, vouch) = self.wheel_and_vouch();
        wheel.compact(live, vouch);
    }

    /// Give the slot at `pos` the deadline `at`, parking it in the wheel;
    /// the entry parked for a previous deadline goes stale.
    fn set_deadline(&mut self, pos: usize, at: UnixMillis) {
        let slot = &mut self.slots[pos];
        if slot.deadline.is_none() {
            slot.expiring_pos = position(self.expiring.len());
            self.expiring.push(position(pos));
            self.deadline_inserts += 1;
        } else {
            self.deadline_reschedules += 1;
        }
        slot.deadline = Some(at);
        slot.deadline_seq = slot.deadline_seq.wrapping_add(1);
        self.wheel.insert(Entry {
            at,
            key: Arc::clone(&slot.key),
            seq: slot.deadline_seq,
        });
        self.compact_wheel();
    }

    /// Take the deadline of the slot at `pos` out of `expiring`, leaving
    /// its wheel entry to go stale. Returns whether it had one.
    fn take_deadline(&mut self, pos: usize) -> bool {
        let slot = &mut self.slots[pos];
        if slot.deadline.take().is_none() {
            return false;
        }
        let at = slot.expiring_pos as usize;
        self.expiring.swap_remove(at);
        if let Some(&moved) = self.expiring.get(at) {
            self.slots[moved as usize].expiring_pos = position(at);
        }
        true
    }

    /// Drop the deadline of the slot at `pos` before it fires. Returns
    /// whether it had one.
    fn clear_deadline(&mut self, pos: usize) -> bool {
        if !self.take_deadline(pos) {
            return false;
        }
        self.deadline_removes += 1;
        self.compact_wheel();
        true
    }

    /// Remove the slot at `pos` by swap-remove, re-pointing the slot that
    /// moves into its place, and account for the removal. Returns the
    /// removed key.
    fn remove_at(&mut self, pos: usize, cause: RemovalCause) -> Arc<str> {
        self.clear_deadline(pos);
        let Slot { key, obj, .. } = self.slots.swap_remove(pos);
        self.index.remove(&key);
        self.sorted_keys.remove(&key);
        if let Some(moved) = self.slots.get(pos) {
            if let Some(slot) = self.index.get_mut(&moved.key) {
                *slot = position(pos);
            }
            if moved.deadline.is_some() {
                self.expiring[moved.expiring_pos as usize] = position(pos);
            }
        }
        self.mem_sub(obj.footprint(&key));
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
            (**listener)(&key, cause);
        }
        key
    }

    /// Remove the slot at `pos` when its container value has become empty
    /// (Redis drops an aggregate with its last element).
    fn remove_if_empty(&mut self, pos: usize) {
        if self.slots[pos].obj.value.is_empty() {
            self.remove_at(pos, RemovalCause::Explicit);
        }
    }

    /// Install (or clear) the removal listener. The listener fires for
    /// every per-key removal — explicit deletes, lazy and active expiry,
    /// and `maxmemory` eviction — but not for wholesale flushes.
    pub fn set_removal_listener(&mut self, listener: Option<RemovalListener>) {
        self.removal_listener = RemovalListenerSlot(listener);
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
        match self.slot_of(key) {
            Some(pos) => {
                self.clear_deadline(pos);
                let obj = &mut self.slots[pos].obj;
                let old_size = obj.footprint(key);
                obj.value = value;
                obj.governed = governed;
                obj.touch(now);
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
                self.insert_new(key, obj);
            }
        }
        self.stats.writes += 1;
        self.dirty += 1;
    }

    /// Replace the governing bytes of the entry at `key`, leaving its
    /// value and TTL alone. Returns `false` (and changes nothing) when the
    /// key does not exist.
    pub fn govern(&mut self, key: &str, governed: Arc<[u8]>) -> bool {
        let now = self.now_millis();
        let Some(pos) = self.live_slot(key, now) else {
            return false;
        };
        let obj = &mut self.slots[pos].obj;
        let old_size = obj.footprint(key);
        obj.governed = Some(governed);
        obj.touch(now);
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
        match self.live_slot(key, now) {
            Some(pos) => {
                self.stats.keyspace_hits += 1;
                let obj = &mut self.slots[pos].obj;
                obj.touch(now);
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
        let now = self.now_millis();
        let pos = self.live_slot(key, now)?;
        Some(&self.slots[pos].obj)
    }

    /// Get the string value of `key` (Redis `GET`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::WrongType`] if the key holds a non-string.
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
        let now = self.now_millis();
        let Some(pos) = self.live_slot(key, now) else {
            return false;
        };
        self.remove_at(pos, RemovalCause::Explicit);
        true
    }

    /// Remove every key (Redis `FLUSHALL`). Returns the number removed.
    pub fn flush_all(&mut self) -> usize {
        let n = self.slots.len();
        self.slots.clear();
        self.index.clear();
        self.expiring.clear();
        self.wheel.clear();
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
    /// Returns [`crate::StoreError::WrongType`] if the key holds a non-hash.
    pub fn hset(&mut self, key: &str, field: &str, mut value: Bytes) -> Result<bool> {
        value.shrink_to_fit();
        let now = self.now_millis();
        let value_len = value.len();
        let pos = self.live_or_create(key, || Value::Hash(BTreeMap::new()), now);
        let obj = &mut self.slots[pos].obj;
        let Value::Hash(map) = &mut obj.value else {
            return Err(obj.value.wrong_type(key, "hash"));
        };
        let prev = map.insert(field.to_string(), value);
        obj.touch(now);
        if let Some(old) = &prev {
            self.mem_sub(field.len() + old.len());
        }
        self.mem_add(field.len() + value_len);
        self.stats.writes += 1;
        self.dirty += 1;
        Ok(prev.is_none())
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
        let now = self.now_millis();
        let Some(pos) = self.live_slot(key, now) else {
            self.stats.keyspace_misses += 1;
            return Ok(None);
        };
        let obj = &mut self.slots[pos].obj;
        obj.touch(now);
        let Value::Hash(map) = &obj.value else {
            return Err(obj.value.wrong_type(key, "hash"));
        };
        let hit = map.get(field).cloned();
        if hit.is_some() {
            self.stats.keyspace_hits += 1;
        } else {
            self.stats.keyspace_misses += 1;
        }
        Ok(hit)
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
        let now = self.now_millis();
        let Some(pos) = self.live_slot(key, now) else {
            return Ok(false);
        };
        let obj = &mut self.slots[pos].obj;
        let Value::Hash(map) = &mut obj.value else {
            return Err(obj.value.wrong_type(key, "hash"));
        };
        let Some(old) = map.remove(field) else {
            return Ok(false);
        };
        obj.touch(now);
        self.mem_sub(field.len() + old.len());
        self.stats.writes += 1;
        self.dirty += 1;
        self.remove_if_empty(pos);
        Ok(true)
    }

    // ----- set commands (used by the GDPR metadata indexes) ----------------

    /// Add a member to the set at `key` (Redis `SADD`). Returns `true` if
    /// newly added.
    pub fn sadd(&mut self, key: &str, mut member: Bytes) -> Result<bool> {
        member.shrink_to_fit();
        let now = self.now_millis();
        let member_len = member.len();
        let pos = self.live_or_create(key, || Value::Set(BTreeSet::new()), now);
        let obj = &mut self.slots[pos].obj;
        let Value::Set(members) = &mut obj.value else {
            return Err(obj.value.wrong_type(key, "set"));
        };
        let added = members.insert(member);
        if added {
            obj.touch(now);
            self.mem_add(member_len);
            self.stats.writes += 1;
            self.dirty += 1;
        }
        Ok(added)
    }

    /// Remove a member from a set (Redis `SREM`).
    pub fn srem(&mut self, key: &str, member: &[u8]) -> Result<bool> {
        let now = self.now_millis();
        let Some(pos) = self.live_slot(key, now) else {
            return Ok(false);
        };
        let obj = &mut self.slots[pos].obj;
        let Value::Set(members) = &mut obj.value else {
            return Err(obj.value.wrong_type(key, "set"));
        };
        if !members.remove(member) {
            return Ok(false);
        }
        obj.touch(now);
        self.mem_sub(member.len());
        self.stats.writes += 1;
        self.dirty += 1;
        self.remove_if_empty(pos);
        Ok(true)
    }

    /// All members of a set (Redis `SMEMBERS`), empty if the key is absent.
    pub fn smembers(&mut self, key: &str) -> Result<Vec<Bytes>> {
        match self.lookup(key).map(|obj| &obj.value) {
            Some(Value::Set(members)) => Ok(members.iter().cloned().collect()),
            Some(other) => Err(other.wrong_type(key, "set")),
            None => Ok(Vec::new()),
        }
    }

    // ----- TTL commands ----------------------------------------------------

    /// Set an absolute expiration time (Redis `PEXPIREAT`). Returns `false`
    /// if the key does not exist.
    pub fn expire_at(&mut self, key: &str, at: UnixMillis) -> bool {
        let now = self.now_millis();
        let Some(pos) = self.live_slot(key, now) else {
            return false;
        };
        self.set_deadline(pos, at);
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
        let now = self.now_millis();
        let pos = self.live_slot(key, now)?;
        self.slots[pos].deadline.map(|at| at.saturating_sub(now))
    }

    /// Absolute expiration deadline of a key, if any.
    #[must_use]
    pub fn expire_deadline(&self, key: &str) -> Option<UnixMillis> {
        self.slots[self.slot_of(key)?].deadline
    }

    /// Remove the TTL from a key (Redis `PERSIST`). Returns `true` if a TTL
    /// was removed.
    pub fn persist(&mut self, key: &str) -> bool {
        let removed = self
            .slot_of(key)
            .is_some_and(|pos| self.clear_deadline(pos));
        if removed {
            self.dirty += 1;
        }
        removed
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
        let samples = sample_size.min(self.expiring.len());
        let mut expired = Vec::new();
        for _ in 0..samples {
            // Sample with replacement, as the Redis dict sampling effectively
            // does across buckets.
            let pos = self.expiring[rng.gen_range(0..self.expiring.len())] as usize;
            if self.slots[pos].deadline.is_some_and(|at| at <= now) {
                let key = self.remove_at(pos, RemovalCause::ActiveExpiry);
                expired.push(key.to_string());
                if self.expiring.is_empty() {
                    break;
                }
            }
        }
        (samples, expired)
    }

    /// Strict expiry sweep: remove **every** key whose deadline is `<= now`,
    /// and no other. This is the paper's modification ("we modify Redis to
    /// iterate through the entire list of keys with associated EXPIRE"),
    /// served in `O(expired)` by the timer wheel — the paper's §5.1
    /// *Efficient Deletion* suggestion. The keys come back in the wheel's
    /// slot order, which is deterministic; callers needing a canonical
    /// order must sort.
    pub fn strict_expire_sweep(&mut self) -> Vec<String> {
        let now = self.now_millis();
        let (wheel, vouch) = self.wheel_and_vouch();
        let due = wheel.advance(now, vouch);
        due.into_iter()
            .map(|key| {
                let pos = self.slot_of(&key).expect("a live wheel entry has a slot");
                self.take_deadline(pos);
                self.remove_at(pos, RemovalCause::ActiveExpiry);
                key.to_string()
            })
            .collect()
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
        if self.slots.is_empty() {
            return None;
        }
        let victim = match policy {
            EvictionPolicy::Noeviction => return None,
            EvictionPolicy::SampledRandom => rng.gen_range(0..self.slots.len()),
            EvictionPolicy::SampledLru => {
                // Approximated LRU: among `sample` random keys, evict the
                // one idle the longest (smallest last-access timestamp).
                let mut best: Option<(UnixMillis, usize)> = None;
                for _ in 0..sample.max(1) {
                    let pos = rng.gen_range(0..self.slots.len());
                    let last = self.slots[pos].obj.last_access_ms;
                    if best.is_none_or(|(b, _)| last < b) {
                        best = Some((last, pos));
                    }
                }
                best?.1
            }
        };
        Some(self.remove_at(victim, RemovalCause::Eviction).to_string())
    }

    /// Number of keys currently carrying a TTL.
    #[must_use]
    pub fn expires_len(&self) -> usize {
        self.expiring.len()
    }

    /// Number of keys whose TTL deadline has already passed but which are
    /// still present in the keyspace (i.e. not yet physically erased). This
    /// is exactly the quantity Figure 2 of the paper tracks. Takes `&mut`
    /// because the wheel advances its cursor to answer it.
    pub fn pending_expired_len(&mut self) -> usize {
        let now = self.clock.now_millis();
        let (wheel, vouch) = self.wheel_and_vouch();
        wheel.pending_expired(now, vouch)
    }

    /// The keyspace's deadline counters with the wheel's occupancy and
    /// activity counters.
    #[must_use]
    pub fn deadline_index_stats(&self) -> DeadlineIndexStats {
        DeadlineIndexStats {
            entries: self.expiring.len() as u64,
            inserts: self.deadline_inserts,
            reschedules: self.deadline_reschedules,
            removes: self.deadline_removes,
            ..self.wheel.stats()
        }
    }

    // ----- keyspace queries -------------------------------------------------

    /// Number of keys, counting those past their deadline until they are
    /// removed (Redis `DBSIZE`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the keyspace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All keys matching a glob-style pattern (Redis `KEYS`), leaving out
    /// those past their deadline. Supports `*` and `?` wildcards.
    #[must_use]
    pub fn keys(&self, pattern: &str) -> Vec<String> {
        let now = self.now_millis();
        self.sorted_keys
            .iter()
            .filter(|k| glob_match(pattern, k) && self.is_live(k, now))
            .map(|k| k.to_string())
            .collect()
    }

    /// Ordered scan starting at `start` (inclusive), returning up to `count`
    /// keys that are not past their deadline — the primitive the YCSB scan
    /// workload (workload E) maps to.
    #[must_use]
    pub fn scan_range(&self, start: &str, count: usize) -> Vec<String> {
        let now = self.now_millis();
        self.sorted_keys
            .range::<str, _>((Bound::Included(start), Bound::Unbounded))
            .filter(|k| self.is_live(k, now))
            .take(count)
            .map(|k| k.to_string())
            .collect()
    }

    /// Iterate over every entry with its deadline, past it or not (used by
    /// snapshot and AOF rewrite).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Object, Option<UnixMillis>)> {
        self.slots
            .iter()
            .map(|slot| (&*slot.key, &slot.obj, slot.deadline))
    }

    /// Whether the keyspace holds an entry at `key`, past its deadline or
    /// not (no lazy expiry).
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
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
    use crate::StoreError;
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
    fn keys_and_scan_leave_out_keys_past_their_deadline() {
        let (mut db, clock) = sim_db();
        for key in ["a", "b", "c"] {
            db.set(key, b"v".to_vec());
        }
        db.expire_in_millis("b", 100);
        clock.advance_millis(100);
        assert_eq!(db.keys("*"), vec!["a", "c"]);
        assert_eq!(db.scan_range("", 2), vec!["a", "c"]);
        assert_eq!(db.scan_range("b", 10), vec!["c"]);
        // Listing removes nothing: the entry waits for expiry.
        assert_eq!(db.len(), 3);
        assert_eq!(db.stats().expired_keys, 0);
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
    fn a_clock_stepped_back_holds_the_sweep_to_the_slot_deadline() {
        let (mut db, clock) = sim_db();
        db.set("k", b"v".to_vec());
        assert!(db.expire_at("k", 1_000_500));
        clock.set(1_001_000);
        assert_eq!(db.pending_expired_len(), 1);
        // The wall clock steps back behind the deadline the wheel's
        // cursor has already passed: the key is live again.
        clock.set(1_000_200);
        assert!(db.lookup("k").is_some());
        assert_eq!(db.strict_expire_sweep(), Vec::<String>::new());
        assert_eq!(db.pending_expired_len(), 0);
        assert_eq!(db.deadline_index_stats().ready_entries, 1, "still parked");
        // A deadline set behind the cursor waits for the clock too.
        db.set("j", b"v".to_vec());
        assert!(db.expire_at("j", 1_000_800));
        assert_eq!(db.strict_expire_sweep(), Vec::<String>::new());
        clock.set(1_000_500);
        assert_eq!(db.pending_expired_len(), 1);
        assert_eq!(db.strict_expire_sweep(), vec!["k"]);
        clock.set(1_000_800);
        assert_eq!(db.strict_expire_sweep(), vec!["j"]);
        assert_eq!(db.stats().expired_keys, 2);
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
