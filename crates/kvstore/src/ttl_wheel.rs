//! The deadline index behind strict expiry: a hierarchical timer wheel,
//! with the original BTree index retained as a differential-testing
//! reference.
//!
//! The paper's strict (real-time) expiry needs to answer one question
//! cheaply: *which keys' deadlines have passed?* The engine originally
//! served that from a `BTreeSet<(deadline, key)>`, which costs `O(log n)`
//! per TTL insert/reschedule — so every write to a TTL'd key pays tree
//! rebalancing under the shard lock. A hierarchical timer wheel (the
//! classic Varghese & Lauck scheme, as used by kernel timers) makes the
//! same operations `O(1)`:
//!
//! * [`WHEEL_LEVELS`] levels of [`WHEEL_SLOTS`] slots each, at a base
//!   resolution of 1 ms. Level `l` spans deadlines up to `256^(l+1)` ms
//!   from the cursor (level 3 ≈ 49.7 days).
//! * Deadlines beyond the top level live in an **overflow min-heap** and
//!   fire straight from it.
//! * Advancing the cursor visits only the slots the cursor passes and
//!   **cascades** entries from coarse levels into finer ones; each entry
//!   cascades at most [`WHEEL_LEVELS`]-1 times over its lifetime.
//! * Remove/reschedule is **lazy**: the authoritative `key → generation`
//!   map is updated in `O(1)` and stale wheel entries are dropped
//!   (generation mismatch) when their slot is next visited, so no slot
//!   scan is ever needed. A compaction backstop rewrites the wheel from
//!   the live entries once the stale backlog exceeds twice the live
//!   count, bounding memory at `O(live)` even under TTL-refresh
//!   workloads (amortized `O(1)` per mutation).
//!
//! Both implementations sit behind the [`DeadlineIndex`] trait, selected
//! by [`crate::config::StoreConfig::deadline_index`]; the wheel is the
//! default, and the BTree is kept so the differential/property suites in
//! `tests/ttl_wheel_differential.rs` can pin the wheel to the original
//! semantics by comparing the fired key *sets* of every advance (the
//! BTree fires in `(deadline, key)` order, the wheel in slot order).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::clock::UnixMillis;

/// Number of levels in the hierarchical wheel.
pub const WHEEL_LEVELS: usize = 4;

/// Slots per level (a power of two; slot index is a byte of the deadline).
pub const WHEEL_SLOTS: usize = 256;

/// log2([`WHEEL_SLOTS`]): how many deadline bits one level consumes.
const SLOT_BITS: u32 = WHEEL_SLOTS.trailing_zeros();

/// Millisecond span covered by levels `0..=level`: deltas below this fit
/// into `level`.
fn level_horizon(level: usize) -> u64 {
    1u64 << (SLOT_BITS as u64 * (level as u64 + 1))
}

/// Which [`DeadlineIndex`] implementation a store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeadlineIndexKind {
    /// The hierarchical timer wheel (`O(1)` insert/reschedule/remove).
    #[default]
    Wheel,
    /// The original `BTreeSet<(deadline, key)>` index (`O(log n)` per
    /// mutation), retained as the differential-testing reference.
    BTree,
}

impl DeadlineIndexKind {
    /// Stable lowercase label (the `ttl_index` stats row).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeadlineIndexKind::Wheel => "wheel",
            DeadlineIndexKind::BTree => "btree",
        }
    }
}

impl fmt::Display for DeadlineIndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so width/alignment format specs apply.
        f.pad(self.label())
    }
}

/// Occupancy and activity counters of a deadline index (the wheel-specific
/// gauges are zero for the BTree implementation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineIndexStats {
    /// Which implementation produced these counters.
    pub kind: DeadlineIndexKind,
    /// Keys currently tracked (live deadlines).
    pub entries: u64,
    /// Deadlines registered for keys that had none.
    pub inserts: u64,
    /// Deadlines replaced for keys that already had one.
    pub reschedules: u64,
    /// Deadlines explicitly removed (`PERSIST`, `DEL`, overwrite-by-SET).
    pub removes: u64,
    /// Keys returned by [`DeadlineIndex::advance`] as expired.
    pub fired: u64,
    /// Entries moved from a coarse wheel level into a finer one.
    pub cascades: u64,
    /// Stale (removed/rescheduled) wheel entries dropped lazily.
    pub stale_dropped: u64,
    /// Entries currently parked in the far-future overflow heap.
    pub overflow_entries: u64,
    /// Entries currently in the expired-but-not-yet-collected ready list.
    pub ready_entries: u64,
    /// Entries currently stored per wheel level (including stale ones not
    /// yet dropped) — the wheel occupancy gauge.
    pub level_entries: [u64; WHEEL_LEVELS],
}

impl DeadlineIndexStats {
    /// Accumulate another index's counters (used to merge per-shard stats
    /// into one engine-wide view).
    pub fn absorb(&mut self, other: &DeadlineIndexStats) {
        self.entries += other.entries;
        self.inserts += other.inserts;
        self.reschedules += other.reschedules;
        self.removes += other.removes;
        self.fired += other.fired;
        self.cascades += other.cascades;
        self.stale_dropped += other.stale_dropped;
        self.overflow_entries += other.overflow_entries;
        self.ready_entries += other.ready_entries;
        for (mine, theirs) in self.level_entries.iter_mut().zip(other.level_entries) {
            *mine += theirs;
        }
    }
}

/// The deadline index contract shared by the wheel and the BTree: map keys
/// to absolute expiration deadlines and pop everything whose deadline has
/// passed.
///
/// Implementations own their bookkeeping; callers never tell them *where*
/// an entry currently sits. For identical histories the two
/// implementations fire identical key *sets* at every advance (the
/// property the differential suite pins down), though not necessarily in
/// the same order.
pub trait DeadlineIndex: Send + fmt::Debug {
    /// Which implementation this is.
    fn kind(&self) -> DeadlineIndexKind;

    /// Register or replace the deadline of `key` (upsert). A deadline at
    /// or before the current cursor is legal and fires on the next
    /// [`DeadlineIndex::advance`].
    fn insert(&mut self, key: &str, at: UnixMillis);

    /// Forget `key`'s deadline; a no-op if it has none.
    fn remove(&mut self, key: &str);

    /// Move the cursor to `now` and pop every key whose deadline is
    /// `<= now`. The order is implementation-defined but deterministic
    /// (the BTree fires in `(deadline, key)` order, the wheel in slot
    /// order); callers needing a canonical order sort the result. The
    /// cursor never moves backwards; an earlier `now` still collects what
    /// is already due.
    fn advance(&mut self, now: UnixMillis) -> Vec<String>;

    /// Number of keys whose deadline is `<= now` without popping them
    /// (Figure 2's overdue gauge).
    fn pending_expired(&mut self, now: UnixMillis) -> usize;

    /// Number of keys currently tracked.
    fn len(&self) -> usize;

    /// Whether no key is tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (`FLUSHALL`); cumulative counters survive.
    fn clear(&mut self);

    /// Occupancy and activity counters.
    fn stats(&self) -> DeadlineIndexStats;
}

/// Construct the configured index implementation. `start_millis` seeds the
/// wheel cursor (the engine clock's current time); the BTree ignores it.
#[must_use]
pub fn build_deadline_index(
    kind: DeadlineIndexKind,
    start_millis: UnixMillis,
) -> Box<dyn DeadlineIndex> {
    match kind {
        DeadlineIndexKind::Wheel => Box::new(TtlWheel::new(start_millis)),
        DeadlineIndexKind::BTree => Box::new(BTreeDeadlineIndex::new()),
    }
}

/// A parked wheel entry. `gen` snapshots the generation of the insert that
/// created it; the entry is live only while the map still carries the same
/// generation for the key.
#[derive(Debug, Clone)]
struct Entry {
    at: UnixMillis,
    gen: u64,
    /// Shared with the `live` map key: one allocation per insert, and
    /// refcount bumps thereafter.
    key: Arc<str>,
}

/// The hierarchical timer wheel (see the module docs for the scheme).
#[derive(Debug)]
pub struct TtlWheel {
    /// Cursor: the wheel has collected everything with `at <= cur`.
    cur: UnixMillis,
    /// `levels[l][slot]` parks entries expiring when the cursor reaches
    /// that slot of level `l`.
    levels: Vec<Vec<Vec<Entry>>>,
    /// Far-future entries (beyond the top level's horizon), fired straight
    /// from the heap.
    overflow: BinaryHeap<Reverse<(UnixMillis, u64, Arc<str>)>>,
    /// Entries already due but not yet popped by `advance`.
    ready: Vec<Entry>,
    /// Authoritative `key → generation of its newest insert`: only parked
    /// entries matching their key's current generation are real.
    live: HashMap<Arc<str>, u64>,
    next_gen: u64,
    inserts: u64,
    reschedules: u64,
    removes: u64,
    fired: u64,
    cascades: u64,
    stale_dropped: u64,
    level_entries: [u64; WHEEL_LEVELS],
}

impl TtlWheel {
    /// Create a wheel whose cursor starts at `start_millis`.
    #[must_use]
    pub fn new(start_millis: UnixMillis) -> Self {
        TtlWheel {
            cur: start_millis,
            levels: (0..WHEEL_LEVELS)
                .map(|_| (0..WHEEL_SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            live: HashMap::new(),
            next_gen: 0,
            inserts: 0,
            reschedules: 0,
            removes: 0,
            fired: 0,
            cascades: 0,
            stale_dropped: 0,
            level_entries: [0; WHEEL_LEVELS],
        }
    }

    /// The current cursor position.
    #[must_use]
    pub fn cursor(&self) -> UnixMillis {
        self.cur
    }

    fn is_live(&self, entry: &Entry) -> bool {
        self.live.get(entry.key.as_ref()) == Some(&entry.gen)
    }

    /// Park an entry according to its distance from the cursor. Placement
    /// uses absolute deadline bits for the slot index, so an entry placed
    /// at level `l` is drained exactly when the cursor's level-`l` index
    /// reaches the deadline's.
    fn place(&mut self, entry: Entry) {
        if entry.at <= self.cur {
            self.ready.push(entry);
            return;
        }
        let delta = entry.at - self.cur;
        for level in 0..WHEEL_LEVELS {
            if delta < level_horizon(level) {
                let shift = SLOT_BITS as u64 * level as u64;
                let slot = ((entry.at >> shift) & (WHEEL_SLOTS as u64 - 1)) as usize;
                self.level_entries[level] += 1;
                self.levels[level][slot].push(entry);
                return;
            }
        }
        self.overflow
            .push(Reverse((entry.at, entry.gen, entry.key)));
    }

    /// Drain one slot: due entries go to `ready` (validated later, at
    /// collection time), not-yet-due live ones cascade into finer levels,
    /// not-yet-due stale ones are dropped.
    ///
    /// Re-placement is safe mid-sweep: an entry with `at > now` always
    /// lands in a slot whose absolute index at its (finer) level lies
    /// beyond `now`, so no slot is ever re-filled after — or before — this
    /// advance visits it.
    fn drain_slot(&mut self, level: usize, slot: usize, now: UnixMillis) {
        if self.levels[level][slot].is_empty() {
            return;
        }
        let drained = std::mem::take(&mut self.levels[level][slot]);
        self.level_entries[level] -= drained.len() as u64;
        for entry in drained {
            if entry.at <= now {
                self.ready.push(entry);
            } else if !self.is_live(&entry) {
                self.stale_dropped += 1;
            } else {
                self.cascades += 1;
                self.place(entry);
            }
        }
    }

    /// Entries currently parked anywhere in the wheel structures — live
    /// ones plus stale ones not yet dropped.
    fn parked(&self) -> u64 {
        self.level_entries.iter().sum::<u64>()
            + self.overflow.len() as u64
            + self.ready.len() as u64
    }

    /// Bound the stale backlog: lazy tombstoning alone would let a
    /// TTL-refresh workload (the same key rescheduled over and over, each
    /// time parking a new entry while the old one waits for its possibly
    /// far-future slot) grow memory with *write rate* instead of key
    /// count. Once parked entries exceed twice the live count (plus a
    /// floor covering the slot scan), rewrite the wheel from the live
    /// entries only — amortized O(1) per mutation.
    fn maybe_compact(&mut self) {
        let slack = 2 * self.live.len() as u64 + (WHEEL_LEVELS * WHEEL_SLOTS) as u64;
        if self.parked() <= slack {
            return;
        }
        let mut retained = Vec::with_capacity(self.live.len());
        for level in 0..WHEEL_LEVELS {
            for slot in 0..WHEEL_SLOTS {
                for entry in std::mem::take(&mut self.levels[level][slot]) {
                    if self.live.get(entry.key.as_ref()) == Some(&entry.gen) {
                        retained.push(entry);
                    } else {
                        self.stale_dropped += 1;
                    }
                }
            }
        }
        self.level_entries = [0; WHEEL_LEVELS];
        for Reverse((at, gen, key)) in std::mem::take(&mut self.overflow) {
            let entry = Entry { at, gen, key };
            if self.live.get(entry.key.as_ref()) == Some(&entry.gen) {
                retained.push(entry);
            } else {
                self.stale_dropped += 1;
            }
        }
        let live = &self.live;
        let mut dropped = 0u64;
        self.ready.retain(
            |entry| match live.get(entry.key.as_ref()) == Some(&entry.gen) {
                true => true,
                false => {
                    dropped += 1;
                    false
                }
            },
        );
        self.stale_dropped += dropped;
        for entry in retained {
            self.place(entry);
        }
    }

    /// Move the cursor to `now`, draining every slot it passes.
    fn cascade_to(&mut self, now: UnixMillis) {
        if now <= self.cur {
            return;
        }
        let prev = self.cur;
        self.cur = now;
        for level in 0..WHEEL_LEVELS {
            let shift = SLOT_BITS as u64 * level as u64;
            let prev_idx = prev >> shift;
            let now_idx = now >> shift;
            if now_idx == prev_idx {
                // Coarser levels share this prefix: nothing to visit.
                break;
            }
            if self.level_entries[level] == 0 {
                // Every slot of this level is empty: the cursor can pass
                // without visiting them, which makes idle ticks O(levels)
                // instead of O(slots passed).
                continue;
            }
            if now_idx - prev_idx >= WHEEL_SLOTS as u64 {
                // The cursor lapped the whole level: everything drains.
                for slot in 0..WHEEL_SLOTS {
                    self.drain_slot(level, slot, now);
                }
            } else {
                for idx in (prev_idx + 1)..=now_idx {
                    let slot = (idx & (WHEEL_SLOTS as u64 - 1)) as usize;
                    self.drain_slot(level, slot, now);
                }
            }
        }
        while let Some(Reverse((at, _, _))) = self.overflow.peek() {
            if *at > now {
                break;
            }
            let Reverse((at, gen, key)) = self.overflow.pop().expect("peeked entry");
            // Validation is deferred to collection, like slot drains.
            self.ready.push(Entry { at, gen, key });
        }
    }
}

impl DeadlineIndex for TtlWheel {
    fn kind(&self) -> DeadlineIndexKind {
        DeadlineIndexKind::Wheel
    }

    fn insert(&mut self, key: &str, at: UnixMillis) {
        self.next_gen += 1;
        let gen = self.next_gen;
        // One allocation per insert: map key and parked entry share it.
        let key: Arc<str> = Arc::from(key);
        let previous = self.live.insert(Arc::clone(&key), gen);
        if previous.is_some() {
            self.reschedules += 1;
        } else {
            self.inserts += 1;
        }
        self.place(Entry { at, gen, key });
        self.maybe_compact();
    }

    fn remove(&mut self, key: &str) {
        if self.live.remove(key).is_some() {
            // The parked entry stays behind and is dropped as stale when
            // its slot is next visited (or by the compaction backstop).
            self.removes += 1;
            self.maybe_compact();
        }
    }

    fn advance(&mut self, now: UnixMillis) -> Vec<String> {
        self.cascade_to(now);
        let mut due: Vec<String> = Vec::new();
        for entry in std::mem::take(&mut self.ready) {
            // Single-lookup validation: speculatively remove, and restore
            // the mapping in the (rare) case the entry was stale but the
            // key has a newer live deadline.
            match self.live.remove(entry.key.as_ref()) {
                Some(gen) if gen == entry.gen => {
                    self.fired += 1;
                    due.push(entry.key.to_string());
                }
                Some(newer) => {
                    self.live.insert(entry.key, newer);
                    self.stale_dropped += 1;
                }
                None => self.stale_dropped += 1,
            }
        }
        due
    }

    fn pending_expired(&mut self, now: UnixMillis) -> usize {
        self.cascade_to(now);
        // Compact the ready list while counting: stale entries would
        // otherwise inflate the gauge until the next advance.
        let live = &self.live;
        let mut dropped = 0u64;
        self.ready.retain(|entry| {
            let keep = live.get(entry.key.as_ref()) == Some(&entry.gen);
            if !keep {
                dropped += 1;
            }
            keep
        });
        self.stale_dropped += dropped;
        self.ready.len()
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn clear(&mut self) {
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.overflow.clear();
        self.ready.clear();
        self.live.clear();
        self.level_entries = [0; WHEEL_LEVELS];
    }

    fn stats(&self) -> DeadlineIndexStats {
        DeadlineIndexStats {
            kind: DeadlineIndexKind::Wheel,
            entries: self.live.len() as u64,
            inserts: self.inserts,
            reschedules: self.reschedules,
            removes: self.removes,
            fired: self.fired,
            cascades: self.cascades,
            stale_dropped: self.stale_dropped,
            overflow_entries: self.overflow.len() as u64,
            ready_entries: self.ready.len() as u64,
            level_entries: self.level_entries,
        }
    }
}

/// The original deadline index: a `BTreeSet<(deadline, key)>` plus a
/// `key → deadline` map, `O(log n)` per mutation. Kept as the semantic
/// reference the wheel is differentially tested against (and selectable
/// via [`DeadlineIndexKind::BTree`]).
#[derive(Debug, Default)]
pub struct BTreeDeadlineIndex {
    by_deadline: BTreeSet<(UnixMillis, String)>,
    deadlines: HashMap<String, UnixMillis>,
    inserts: u64,
    reschedules: u64,
    removes: u64,
    fired: u64,
}

impl BTreeDeadlineIndex {
    /// Create an empty index.
    #[must_use]
    pub fn new() -> Self {
        BTreeDeadlineIndex::default()
    }
}

impl DeadlineIndex for BTreeDeadlineIndex {
    fn kind(&self) -> DeadlineIndexKind {
        DeadlineIndexKind::BTree
    }

    fn insert(&mut self, key: &str, at: UnixMillis) {
        match self.deadlines.insert(key.to_string(), at) {
            Some(old) => {
                self.by_deadline.remove(&(old, key.to_string()));
                self.reschedules += 1;
            }
            None => self.inserts += 1,
        }
        self.by_deadline.insert((at, key.to_string()));
    }

    fn remove(&mut self, key: &str) {
        if let Some(at) = self.deadlines.remove(key) {
            self.by_deadline.remove(&(at, key.to_string()));
            self.removes += 1;
        }
    }

    fn advance(&mut self, now: UnixMillis) -> Vec<String> {
        let mut due = Vec::new();
        while let Some((at, key)) = self.by_deadline.iter().next().cloned() {
            if at > now {
                break;
            }
            self.by_deadline.remove(&(at, key.clone()));
            self.deadlines.remove(&key);
            self.fired += 1;
            due.push(key);
        }
        due
    }

    fn pending_expired(&mut self, now: UnixMillis) -> usize {
        self.by_deadline
            .iter()
            .take_while(|(at, _)| *at <= now)
            .count()
    }

    fn len(&self) -> usize {
        self.deadlines.len()
    }

    fn clear(&mut self) {
        self.by_deadline.clear();
        self.deadlines.clear();
    }

    fn stats(&self) -> DeadlineIndexStats {
        DeadlineIndexStats {
            kind: DeadlineIndexKind::BTree,
            entries: self.deadlines.len() as u64,
            inserts: self.inserts,
            reschedules: self.reschedules,
            removes: self.removes,
            fired: self.fired,
            ..DeadlineIndexStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(start: UnixMillis) -> [Box<dyn DeadlineIndex>; 2] {
        [
            build_deadline_index(DeadlineIndexKind::Wheel, start),
            build_deadline_index(DeadlineIndexKind::BTree, start),
        ]
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in [DeadlineIndexKind::Wheel, DeadlineIndexKind::BTree] {
            assert_eq!(format!("{kind}"), kind.label());
        }
        assert_eq!(DeadlineIndexKind::default(), DeadlineIndexKind::Wheel);
    }

    fn sorted(mut keys: Vec<String>) -> Vec<String> {
        keys.sort();
        keys
    }

    #[test]
    fn fires_exactly_the_due_set() {
        for mut index in both(0) {
            index.insert("b", 50);
            index.insert("a", 50);
            index.insert("c", 10);
            index.insert("later", 1_000);
            assert_eq!(sorted(index.advance(100)), vec!["a", "b", "c"]);
            assert_eq!(index.len(), 1, "{:?}", index.kind());
            assert_eq!(index.advance(2_000), vec!["later"]);
            assert!(index.is_empty());
        }
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        for mut index in both(1_000) {
            index.insert("overdue", 10);
            index.insert("now", 1_000);
            assert_eq!(index.pending_expired(1_000), 2);
            assert_eq!(sorted(index.advance(1_000)), vec!["now", "overdue"]);
        }
    }

    #[test]
    fn reschedule_does_not_fire_stale_deadline() {
        for mut index in both(0) {
            index.insert("k", 100);
            index.insert("k", 500_000); // rescheduled far out (level 2)
            assert!(index.advance(200).is_empty(), "{:?}", index.kind());
            assert_eq!(index.len(), 1);
            assert_eq!(index.advance(500_000), vec!["k"]);
        }
    }

    #[test]
    fn reschedule_to_same_deadline_fires_once() {
        for mut index in both(0) {
            index.insert("k", 300);
            index.insert("k", 400);
            index.insert("k", 300);
            assert_eq!(index.advance(1_000), vec!["k"]);
            assert!(index.advance(2_000).is_empty());
        }
    }

    #[test]
    fn removed_key_never_fires() {
        for mut index in both(0) {
            index.insert("gone", 100);
            index.remove("gone");
            index.remove("never-there");
            assert_eq!(index.len(), 0);
            assert!(index.advance(1_000).is_empty());
        }
    }

    #[test]
    fn far_future_deadlines_live_in_overflow_and_fire() {
        let horizon = level_horizon(WHEEL_LEVELS - 1);
        let mut wheel = TtlWheel::new(0);
        wheel.insert("far", horizon + 5);
        wheel.insert("near", 5);
        assert_eq!(wheel.stats().overflow_entries, 1);
        assert_eq!(wheel.advance(10), vec!["near"]);
        assert!(wheel.advance(horizon).is_empty());
        assert_eq!(wheel.advance(horizon + 5), vec!["far"]);
        assert_eq!(wheel.stats().overflow_entries, 0);
    }

    #[test]
    fn overflow_respects_removal_and_reschedule() {
        let horizon = level_horizon(WHEEL_LEVELS - 1);
        let mut wheel = TtlWheel::new(0);
        wheel.insert("dropped", horizon + 1);
        wheel.insert("pulled-in", horizon + 1);
        wheel.remove("dropped");
        wheel.insert("pulled-in", 100); // rescheduled into the wheel proper
        assert_eq!(wheel.advance(200), vec!["pulled-in"]);
        assert!(wheel.advance(horizon + 10).is_empty());
        assert!(wheel.stats().stale_dropped >= 2);
    }

    #[test]
    fn big_jump_drains_every_level() {
        let mut wheel = TtlWheel::new(0);
        let mut expected = Vec::new();
        for level in 0..WHEEL_LEVELS {
            let at = level_horizon(level) - 3;
            let key = format!("l{level}");
            wheel.insert(&key, at);
            expected.push((at, key));
        }
        expected.sort();
        let jump = level_horizon(WHEEL_LEVELS - 1);
        let fired = sorted(wheel.advance(jump));
        let mut expected: Vec<String> = expected.into_iter().map(|(_, k)| k).collect();
        expected.sort();
        assert_eq!(fired, expected);
        assert_eq!(wheel.stats().level_entries, [0; WHEEL_LEVELS]);
    }

    #[test]
    fn small_steps_cascade_entries_down() {
        let mut wheel = TtlWheel::new(0);
        wheel.insert("k", 70_000); // 70 000 ms > level 1's 65 536 ms horizon
        assert_eq!(wheel.stats().level_entries[2], 1);
        // Stepping to within 256 ms of the deadline cascades it 2 → 1 → 0.
        let mut now = 0;
        while now < 69_900 {
            now += 100;
            assert!(wheel.advance(now).is_empty());
        }
        assert_eq!(wheel.stats().level_entries[0], 1);
        assert!(wheel.stats().cascades >= 2);
        assert_eq!(wheel.advance(70_000), vec!["k"]);
    }

    #[test]
    fn cursor_never_moves_backwards() {
        let mut wheel = TtlWheel::new(5_000);
        wheel.insert("k", 5_500);
        assert!(wheel.advance(1_000).is_empty());
        assert_eq!(wheel.cursor(), 5_000);
        assert_eq!(wheel.advance(6_000), vec!["k"]);
        assert_eq!(wheel.cursor(), 6_000);
    }

    #[test]
    fn pending_expired_counts_without_popping() {
        for mut index in both(0) {
            for i in 0..10 {
                index.insert(&format!("k{i}"), 100 + i);
            }
            assert_eq!(index.pending_expired(104), 5);
            assert_eq!(index.pending_expired(104), 5, "counting must not pop");
            assert_eq!(index.advance(104).len(), 5);
            assert_eq!(index.pending_expired(104), 0);
            assert_eq!(index.len(), 5);
        }
    }

    #[test]
    fn clear_drops_entries_but_keeps_activity_counters() {
        for mut index in both(0) {
            index.insert("a", 10);
            index.insert("b", 20);
            index.clear();
            assert!(index.is_empty());
            assert!(index.advance(1_000).is_empty());
            let stats = index.stats();
            assert_eq!(stats.entries, 0);
            assert_eq!(stats.inserts, 2);
        }
    }

    #[test]
    fn stats_track_inserts_reschedules_removes_and_fires() {
        for mut index in both(0) {
            index.insert("a", 10);
            index.insert("a", 20);
            index.insert("b", 30);
            index.remove("b");
            index.advance(100);
            let stats = index.stats();
            assert_eq!(stats.kind, index.kind());
            assert_eq!(stats.inserts, 2);
            assert_eq!(stats.reschedules, 1);
            assert_eq!(stats.removes, 1);
            assert_eq!(stats.fired, 1);
        }
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let mut a = DeadlineIndexStats {
            entries: 1,
            cascades: 2,
            level_entries: [1, 0, 0, 0],
            ..DeadlineIndexStats::default()
        };
        let b = DeadlineIndexStats {
            entries: 4,
            cascades: 5,
            level_entries: [0, 2, 0, 0],
            ..DeadlineIndexStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.entries, 5);
        assert_eq!(a.cascades, 7);
        assert_eq!(a.level_entries, [1, 2, 0, 0]);
    }

    #[test]
    fn ttl_refresh_workload_keeps_parked_entries_bounded() {
        // Sliding-expiration sessions: the same keys rescheduled far into
        // the future over and over. Lazy tombstoning alone would park one
        // stale entry per refresh until the (month-out) deadline passes;
        // the compaction backstop must keep memory O(live keys).
        let mut wheel = TtlWheel::new(0);
        let month = 30 * 24 * 3_600 * 1_000u64;
        for round in 0..20_000u64 {
            for k in 0..5 {
                wheel.insert(&format!("session{k}"), month + round);
            }
        }
        let stats = wheel.stats();
        assert_eq!(stats.entries, 5);
        let parked =
            stats.level_entries.iter().sum::<u64>() + stats.overflow_entries + stats.ready_entries;
        assert!(
            parked <= 2 * stats.entries + (WHEEL_LEVELS * WHEEL_SLOTS) as u64,
            "stale refresh backlog must stay bounded, got {parked} parked"
        );
        assert!(stats.stale_dropped > 90_000, "{stats:?}");
        // Removing far-future deadlines is bounded the same way.
        for k in 0..5 {
            wheel.remove(&format!("session{k}"));
        }
        assert_eq!(wheel.len(), 0);
        assert!(wheel.advance(2 * month).is_empty());
    }

    #[test]
    fn dense_same_deadline_burst_fires_exactly_once_each() {
        for mut index in both(0) {
            for i in 0..500 {
                index.insert(&format!("k{i:03}"), 1_000);
            }
            let fired = index.advance(1_000);
            assert_eq!(fired.len(), 500);
            let mut sorted = fired.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 500, "no double fire");
            assert!(index.advance(2_000).is_empty());
        }
    }
}
