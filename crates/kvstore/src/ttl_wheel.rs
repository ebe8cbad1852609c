//! The deadline index behind strict expiry: a hierarchical timer wheel
//! over the engine's slots.
//!
//! The paper's strict (real-time) expiry needs to answer one question
//! cheaply: *which keys' deadlines have passed?* A hierarchical timer
//! wheel (the classic Varghese & Lauck scheme, as used by kernel timers)
//! parks a deadline in `O(1)` and finds the expired ones in `O(expired)`:
//!
//! * [`WHEEL_LEVELS`] levels of [`WHEEL_SLOTS`] slots each, at a base
//!   resolution of 1 ms. Level `l` spans deadlines up to `256^(l+1)` ms
//!   from the cursor (level 3 ≈ 49.7 days).
//! * Deadlines beyond the top level live in an **overflow min-heap** and
//!   fire straight from it.
//! * Advancing the cursor visits only the slots the cursor passes and
//!   **cascades** entries from coarse levels into finer ones; each entry
//!   cascades at most [`WHEEL_LEVELS`]-1 times over its lifetime.
//!
//! The wheel owns no deadline. A key's deadline lives in its slot of
//! [`crate::db::Db`], and a parked [`Entry`] only points at it: the slot's
//! own `Arc<str>` key (a refcount bump, not an allocation), the deadline
//! it was parked for and the slot's deadline sequence number at the time.
//! Every operation that looks at entries takes the owner's verdict on
//! whether an entry is still live, so a reschedule, `PERSIST` or removal
//! costs the wheel nothing: the entry the slot no longer vouches for is
//! dropped as stale when its slot is next visited. A compaction backstop
//! rewrites the wheel from the live entries once the parked backlog
//! exceeds twice the live count, bounding memory at `O(live)` even under
//! TTL-refresh workloads (amortized `O(1)` per mutation).
//!
//! A live entry fires only once the clock, not just the cursor, has
//! reached its deadline. The cursor never moves backwards, so after the
//! wall clock steps back an entry can be due by the cursor and not by the
//! clock: it waits in the ready list for the clock to catch up.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// The deadline index a store runs. The wheel is the only one; the type
/// and [`crate::config::StoreConfig::deadline_index`] remain because the
/// contract benchmark's store setup names them, and the `ttl_index` stats
/// row prints the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeadlineIndexKind {
    /// The hierarchical timer wheel.
    #[default]
    Wheel,
}

impl DeadlineIndexKind {
    /// Stable lowercase label (the `ttl_index` stats row).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeadlineIndexKind::Wheel => "wheel",
        }
    }
}

impl fmt::Display for DeadlineIndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so width/alignment format specs apply.
        f.pad(self.label())
    }
}

/// Occupancy and activity counters of a keyspace's deadlines and the
/// wheel that indexes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineIndexStats {
    /// Which implementation produced these counters.
    pub kind: DeadlineIndexKind,
    /// Keys currently carrying a deadline.
    pub entries: u64,
    /// Deadlines registered for keys that had none.
    pub inserts: u64,
    /// Deadlines replaced for keys that already had one.
    pub reschedules: u64,
    /// Deadlines explicitly removed (`PERSIST`, `DEL`, overwrite-by-SET).
    pub removes: u64,
    /// Keys returned by [`TtlWheel::advance`] as expired.
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

/// A parked wheel entry: a pointer to the slot that owns a deadline. It
/// is live while that slot still holds `key` (the same allocation) with
/// deadline `at` under sequence number `seq`; the owner decides.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// The deadline the entry was parked for.
    pub at: UnixMillis,
    /// The owning slot's key, shared with the slot.
    pub key: Arc<str>,
    /// The slot's deadline sequence number when the entry was parked.
    pub seq: u32,
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
    /// from the heap in `(deadline, key)` order.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Entries due by the cursor but not yet fired.
    ready: Vec<Entry>,
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

    /// Park `entry` according to its distance from the cursor; a deadline
    /// at or before the cursor goes straight to the ready list. Placement
    /// uses absolute deadline bits for the slot index, so an entry placed
    /// at level `l` is drained exactly when the cursor's level-`l` index
    /// reaches the deadline's.
    pub fn insert(&mut self, entry: Entry) {
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
        self.overflow.push(Reverse(entry));
    }

    /// Drain one slot: due entries go to `ready` (validated later, at
    /// collection time), not-yet-due live ones cascade into finer levels,
    /// not-yet-due stale ones are dropped.
    ///
    /// Re-placement is safe mid-sweep: an entry with `at > now` always
    /// lands in a slot whose absolute index at its (finer) level lies
    /// beyond `now`, so no slot is ever re-filled after — or before — this
    /// advance visits it.
    fn drain_slot(
        &mut self,
        level: usize,
        slot: usize,
        now: UnixMillis,
        is_live: &impl Fn(&Entry) -> bool,
    ) {
        if self.levels[level][slot].is_empty() {
            return;
        }
        let drained = std::mem::take(&mut self.levels[level][slot]);
        self.level_entries[level] -= drained.len() as u64;
        for entry in drained {
            if entry.at <= now {
                self.ready.push(entry);
            } else if !is_live(&entry) {
                self.stale_dropped += 1;
            } else {
                self.cascades += 1;
                self.insert(entry);
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
    /// count. Once parked entries exceed twice the `live` count (plus a
    /// floor covering the slot scan), rewrite the wheel from the live
    /// entries only — amortized O(1) per mutation.
    pub fn compact(&mut self, live: usize, is_live: impl Fn(&Entry) -> bool) {
        let slack = 2 * live as u64 + (WHEEL_LEVELS * WHEEL_SLOTS) as u64;
        let parked = self.parked();
        if parked <= slack {
            return;
        }
        let overflow = std::mem::take(&mut self.overflow)
            .into_iter()
            .map(|Reverse(entry)| entry);
        let retained: Vec<Entry> = self
            .levels
            .iter_mut()
            .flatten()
            .flat_map(std::mem::take)
            .chain(overflow)
            .filter(|entry| is_live(entry))
            .collect();
        self.level_entries = [0; WHEEL_LEVELS];
        self.ready.retain(|entry| is_live(entry));
        self.stale_dropped += parked - (retained.len() + self.ready.len()) as u64;
        for entry in retained {
            self.insert(entry);
        }
    }

    /// Move the cursor to `now`, draining every slot it passes.
    fn cascade_to(&mut self, now: UnixMillis, is_live: &impl Fn(&Entry) -> bool) {
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
                    self.drain_slot(level, slot, now, is_live);
                }
            } else {
                for idx in (prev_idx + 1)..=now_idx {
                    let slot = (idx & (WHEEL_SLOTS as u64 - 1)) as usize;
                    self.drain_slot(level, slot, now, is_live);
                }
            }
        }
        while self.overflow.peek().is_some_and(|Reverse(e)| e.at <= now) {
            let Reverse(entry) = self.overflow.pop().expect("peeked entry");
            // Validation is deferred to collection, like slot drains.
            self.ready.push(entry);
        }
    }

    /// Move the cursor to `now` and pop the key of every live entry whose
    /// deadline is `<= now`, in slot order (callers needing a canonical
    /// order sort). Stale entries are dropped; a live entry due by the
    /// cursor but not by `now` stays ready.
    pub fn advance(&mut self, now: UnixMillis, is_live: impl Fn(&Entry) -> bool) -> Vec<Arc<str>> {
        self.cascade_to(now, &is_live);
        let mut due = Vec::new();
        for entry in std::mem::take(&mut self.ready) {
            if !is_live(&entry) {
                self.stale_dropped += 1;
            } else if entry.at <= now {
                self.fired += 1;
                due.push(entry.key);
            } else {
                self.ready.push(entry);
            }
        }
        due
    }

    /// Number of live entries whose deadline is `<= now`, without popping
    /// them (Figure 2's overdue gauge). Stale ready entries are dropped
    /// while counting, so they cannot inflate the gauge.
    pub fn pending_expired(&mut self, now: UnixMillis, is_live: impl Fn(&Entry) -> bool) -> usize {
        self.cascade_to(now, &is_live);
        let ready_before = self.ready.len();
        self.ready.retain(|entry| is_live(entry));
        self.stale_dropped += (ready_before - self.ready.len()) as u64;
        self.ready.iter().filter(|entry| entry.at <= now).count()
    }

    /// Drop every entry (`FLUSHALL`); cumulative counters survive.
    pub fn clear(&mut self) {
        for slot in self.levels.iter_mut().flatten() {
            slot.clear();
        }
        self.overflow.clear();
        self.ready.clear();
        self.level_entries = [0; WHEEL_LEVELS];
    }

    /// The wheel's own occupancy and activity counters; the deadline
    /// counts (`entries`, `inserts`, `reschedules`, `removes`) are the
    /// owner's and read zero here.
    #[must_use]
    pub fn stats(&self) -> DeadlineIndexStats {
        DeadlineIndexStats {
            fired: self.fired,
            cascades: self.cascades,
            stale_dropped: self.stale_dropped,
            overflow_entries: self.overflow.len() as u64,
            ready_entries: self.ready.len() as u64,
            level_entries: self.level_entries,
            ..DeadlineIndexStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::db::Db;

    /// A keyspace on a simulated clock: its slots own the deadlines its
    /// wheel indexes.
    fn keyspace(start: UnixMillis) -> (Db, SimClock) {
        let clock = SimClock::new(start);
        (Db::new(Arc::new(clock.clone())), clock)
    }

    /// Give `key` the deadline `at`, creating the key if it is absent.
    fn expire(db: &mut Db, key: &str, at: UnixMillis) {
        if !db.contains(key) {
            db.set(key, Vec::new());
        }
        assert!(db.expire_at(key, at), "{key}");
    }

    /// Set the clock to `now` and run a strict sweep; the fired keys come
    /// back sorted.
    fn sweep(db: &mut Db, clock: &SimClock, now: UnixMillis) -> Vec<String> {
        clock.set(now);
        let mut fired = db.strict_expire_sweep();
        fired.sort();
        fired
    }

    #[test]
    fn kind_labels_roundtrip() {
        let kind = DeadlineIndexKind::Wheel;
        assert_eq!(format!("{kind}"), kind.label());
        assert_eq!(DeadlineIndexKind::default(), DeadlineIndexKind::Wheel);
    }

    #[test]
    fn fires_exactly_the_due_set() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "b", 50);
        expire(&mut db, "a", 50);
        expire(&mut db, "c", 10);
        expire(&mut db, "later", 1_000);
        assert_eq!(sweep(&mut db, &clock, 100), vec!["a", "b", "c"]);
        assert_eq!(db.expires_len(), 1);
        assert_eq!(sweep(&mut db, &clock, 2_000), vec!["later"]);
        assert_eq!(db.expires_len(), 0);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let (mut db, clock) = keyspace(1_000);
        expire(&mut db, "overdue", 10);
        expire(&mut db, "now", 1_000);
        assert_eq!(db.pending_expired_len(), 2);
        assert_eq!(sweep(&mut db, &clock, 1_000), vec!["now", "overdue"]);
    }

    #[test]
    fn reschedule_does_not_fire_stale_deadline() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "k", 100);
        expire(&mut db, "k", 500_000); // rescheduled far out (level 2)
        assert!(sweep(&mut db, &clock, 200).is_empty());
        assert_eq!(db.expires_len(), 1);
        assert_eq!(sweep(&mut db, &clock, 500_000), vec!["k"]);
    }

    #[test]
    fn reschedule_to_same_deadline_fires_once() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "k", 300);
        expire(&mut db, "k", 400);
        expire(&mut db, "k", 300);
        assert_eq!(db.pending_expired_len(), 0);
        clock.set(1_000);
        assert_eq!(db.pending_expired_len(), 1, "one live entry of three");
        assert_eq!(sweep(&mut db, &clock, 1_000), vec!["k"]);
        assert!(sweep(&mut db, &clock, 2_000).is_empty());
    }

    #[test]
    fn removed_key_never_fires() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "gone", 100);
        assert!(db.delete("gone"));
        assert!(!db.persist("never-there"));
        assert_eq!(db.expires_len(), 0);
        assert!(sweep(&mut db, &clock, 1_000).is_empty());
        assert_eq!(db.stats().expired_keys, 0);
    }

    #[test]
    fn far_future_deadlines_live_in_overflow_and_fire() {
        let horizon = level_horizon(WHEEL_LEVELS - 1);
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "far", horizon + 5);
        expire(&mut db, "near", 5);
        assert_eq!(db.deadline_index_stats().overflow_entries, 1);
        assert_eq!(sweep(&mut db, &clock, 10), vec!["near"]);
        assert!(sweep(&mut db, &clock, horizon).is_empty());
        assert_eq!(sweep(&mut db, &clock, horizon + 5), vec!["far"]);
        assert_eq!(db.deadline_index_stats().overflow_entries, 0);
    }

    #[test]
    fn overflow_respects_removal_and_reschedule() {
        let horizon = level_horizon(WHEEL_LEVELS - 1);
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "dropped", horizon + 1);
        expire(&mut db, "pulled-in", horizon + 1);
        assert!(db.persist("dropped"));
        expire(&mut db, "pulled-in", 100); // rescheduled into the wheel proper
        assert_eq!(sweep(&mut db, &clock, 200), vec!["pulled-in"]);
        assert!(sweep(&mut db, &clock, horizon + 10).is_empty());
        assert!(db.deadline_index_stats().stale_dropped >= 2);
    }

    #[test]
    fn big_jump_drains_every_level() {
        let (mut db, clock) = keyspace(0);
        let mut expected = Vec::new();
        for level in 0..WHEEL_LEVELS {
            let key = format!("l{level}");
            expire(&mut db, &key, level_horizon(level) - 3);
            expected.push(key);
        }
        let jump = level_horizon(WHEEL_LEVELS - 1);
        assert_eq!(sweep(&mut db, &clock, jump), expected);
        assert_eq!(db.deadline_index_stats().level_entries, [0; WHEEL_LEVELS]);
    }

    #[test]
    fn small_steps_cascade_entries_down() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "k", 70_000); // 70 000 ms > level 1's 65 536 ms horizon
        assert_eq!(db.deadline_index_stats().level_entries[2], 1);
        // Stepping to within 256 ms of the deadline cascades it 2 → 1 → 0.
        let mut now = 0;
        while now < 69_900 {
            now += 100;
            assert!(sweep(&mut db, &clock, now).is_empty());
        }
        let stats = db.deadline_index_stats();
        assert_eq!(stats.level_entries[0], 1);
        assert!(stats.cascades >= 2);
        assert_eq!(sweep(&mut db, &clock, 70_000), vec!["k"]);
    }

    #[test]
    fn cursor_never_moves_backwards() {
        let entry = |key: &str, at| Entry {
            at,
            key: Arc::from(key),
            seq: 0,
        };
        let mut wheel = TtlWheel::new(5_000);
        wheel.insert(entry("k", 5_500));
        assert!(wheel.advance(1_000, |_| true).is_empty());
        assert_eq!(wheel.cursor(), 5_000);
        assert_eq!(wheel.advance(6_000, |_| true), vec![Arc::from("k")]);
        assert_eq!(wheel.cursor(), 6_000);
        // Behind the cursor an entry is ready at once, but it fires only
        // when the clock reaches its deadline.
        wheel.insert(entry("late", 5_800));
        assert_eq!(wheel.pending_expired(5_500, |_| true), 0);
        assert!(wheel.advance(5_500, |_| true).is_empty());
        assert_eq!(wheel.stats().ready_entries, 1);
        assert_eq!(wheel.advance(5_800, |_| true), vec![Arc::from("late")]);
        assert_eq!(wheel.cursor(), 6_000);
    }

    #[test]
    fn pending_expired_counts_without_popping() {
        let (mut db, clock) = keyspace(0);
        for i in 0..10 {
            expire(&mut db, &format!("k{i}"), 100 + i);
        }
        clock.set(104);
        assert_eq!(db.pending_expired_len(), 5);
        assert_eq!(db.pending_expired_len(), 5, "counting must not pop");
        assert_eq!(sweep(&mut db, &clock, 104).len(), 5);
        assert_eq!(db.pending_expired_len(), 0);
        assert_eq!(db.expires_len(), 5);
    }

    #[test]
    fn clear_drops_entries_but_keeps_activity_counters() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "a", 10);
        expire(&mut db, "b", 20);
        db.flush_all();
        assert_eq!(db.expires_len(), 0);
        assert!(sweep(&mut db, &clock, 1_000).is_empty());
        let stats = db.deadline_index_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.level_entries, [0; WHEEL_LEVELS]);
    }

    #[test]
    fn stats_track_inserts_reschedules_removes_and_fires() {
        let (mut db, clock) = keyspace(0);
        expire(&mut db, "a", 10);
        expire(&mut db, "a", 20);
        expire(&mut db, "b", 30);
        assert!(db.persist("b"));
        sweep(&mut db, &clock, 100);
        let stats = db.deadline_index_stats();
        assert_eq!(stats.kind, DeadlineIndexKind::Wheel);
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.reschedules, 1);
        assert_eq!(stats.removes, 1);
        assert_eq!(stats.fired, 1);
        assert_eq!(stats.entries, 0);
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
        let (mut db, clock) = keyspace(0);
        let month = 30 * 24 * 3_600 * 1_000u64;
        for round in 0..20_000u64 {
            for k in 0..5 {
                expire(&mut db, &format!("session{k}"), month + round);
            }
        }
        let stats = db.deadline_index_stats();
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
            assert!(db.persist(&format!("session{k}")));
        }
        assert_eq!(db.expires_len(), 0);
        assert!(sweep(&mut db, &clock, 2 * month).is_empty());
    }

    #[test]
    fn dense_same_deadline_burst_fires_exactly_once_each() {
        let (mut db, clock) = keyspace(0);
        for i in 0..500 {
            expire(&mut db, &format!("k{i:03}"), 1_000);
        }
        let mut fired = sweep(&mut db, &clock, 1_000);
        assert_eq!(fired.len(), 500);
        fired.dedup();
        assert_eq!(fired.len(), 500, "no double fire");
        assert!(sweep(&mut db, &clock, 2_000).is_empty());
    }
}
