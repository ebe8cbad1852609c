//! The engine façade: [`KvStore`] ties the sharded keyspace, the AOF, the
//! device layer and the expiry machinery together behind a thread-safe
//! handle.
//!
//! # Execution model
//!
//! The keyspace is split into N shards (power of two, configurable via
//! [`StoreConfig::shards`]); each shard owns its own [`Db`] (dictionary,
//! expiry indexes, keyspace counters), its own expiry-sampling RNG and its
//! own lock. A seeded hash of the key ([`crate::shard::ShardRouter`])
//! decides the owning shard, so operations on different shards execute in
//! parallel:
//!
//! 1. every operation is a [`Command`], or — for the reads on the request
//!    path — a [`KvStore::read`]: the same visit from a borrowed key, which
//!    builds no command and returns a key's value together with the bytes
//!    that govern it, both from the one entry that holds them;
//! 2. per-key commands lock **only the owning shard** and execute against
//!    its [`Db`] — one at a time, or several on one key (or on keys that
//!    share a shard) as one batch ([`KvStore::execute_batch`]; a
//!    compliance bracket is such a batch);
//!    keyspace-wide commands (`KEYS`, `SCAN`, `DBSIZE`, `FLUSHALL`) visit
//!    every shard and merge;
//! 3. every write — or *any* command when read-logging is enabled (the
//!    GDPR monitoring retrofit) — is appended to the **owning shard's own
//!    journal segment** ([`ShardedAof`]) while the shard lock is held (so
//!    the journal order of each key matches its apply order), a batch and
//!    the evictions it caused in **one** device append; durability then
//!    settles *after* the lock drops — under `always` fsync a per-segment
//!    group committer coalesces concurrent writers into one fsync, so
//!    persistence scales with the shard count instead of re-serializing
//!    it;
//! 4. time-driven work (active expiry per shard, the `everysec` fsync
//!    timer of **every** segment, auto-rewrite) runs from
//!    [`KvStore::tick`], which a server loop or benchmark calls
//!    periodically — 10 Hz matches Redis' `serverCron`;
//! 5. on open, journal segments are loaded in parallel and their records
//!    merged by global sequence number, then routed through the current
//!    [`ShardRouter`] — so a journal written with M shards replays
//!    correctly into N shards, the way snapshots already do — and a set
//!    laid out any other way is rewritten (after a
//!    [legacy fold](crate::legacy) when it predates governed entries).
//!
//! Lock order (deadlock freedom): shard locks are only ever taken in
//! ascending index order, and a segment's log lock is only taken while
//! holding shard locks or from the group committer (which holds no shard
//! lock) — never shard-after-log. Engine-wide statistics are lock-free
//! atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obs::{AtomicHistogram, LatencyHistogram};

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aof::AofStats;
use crate::clock::{SharedClock, UnixMillis};
use crate::commands::{encode_keyed, Command, Reply, OP_DEL, OP_EXISTS, OP_GET};
use crate::config::{EvictionPolicy, StoreConfig};
use crate::db::{Db, DbStats};
use crate::expire::{run_expire_cycle, CycleOutcome};
use crate::object::{Bytes, Value};
use crate::shard::ShardRouter;
use crate::sharded_aof::{
    LoadedJournal, RecordBatch, ReplTail, ReplWatermark, ShardedAof, MANIFEST_VERSION,
};
use crate::snapshot;
use crate::stats::EngineStats;
use crate::ttl_wheel::DeadlineIndexStats;
use crate::{Result, StoreError};

/// How many random keys the sampled eviction policies examine per victim
/// (Redis' `maxmemory-samples` default).
const EVICTION_SAMPLES: usize = 5;

/// One slice of the keyspace: a dictionary plus its expiry-sampling RNG,
/// and the buffer a visit reuses instead of allocating.
struct Shard {
    db: Db,
    rng: StdRng,
    /// The records of the visit in progress, on their way to the shard's
    /// journal segment.
    journal: RecordBatch,
}

/// How much of an entry a [`KvStore::read`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValuePart {
    /// Whether the key holds a value, and what governs it (`EXISTS`).
    Exists,
    /// The typed value too (`GET`, whatever the type).
    Fetch,
}

/// What one [`KvStore::read`] visit found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRead {
    /// Whether the key holds a value.
    pub exists: bool,
    /// The key's value, when the visit fetched it.
    pub value: Option<Value>,
    /// The bytes governing the value, shared with the entry.
    pub governed: Option<Arc<[u8]>>,
}

/// RAII registration of a replication stream (see
/// [`KvStore::begin_repl_stream`]); dropping it deregisters the stream
/// and lets an idle primary drop the backlog.
#[derive(Debug)]
pub struct ReplStreamGuard<'a> {
    aof: &'a ShardedAof,
}

impl Drop for ReplStreamGuard<'_> {
    fn drop(&mut self) {
        self.aof.end_tailing();
    }
}

/// Engine-wide counters, kept lock-free so hot-path bookkeeping never
/// serializes shards against each other.
#[derive(Debug, Default)]
struct EngineCounters {
    commands: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    expire_cycles: AtomicU64,
    keys_expired_by_cycles: AtomicU64,
    auto_rewrites: AtomicU64,
    records_since_rewrite: AtomicU64,
    last_tick_ms: AtomicU64,
}

struct Inner {
    shards: Vec<Mutex<Shard>>,
    /// The sharded journal: one append-only segment per shard.
    aof: Option<ShardedAof>,
    router: ShardRouter,
    config: StoreConfig,
    counters: EngineCounters,
    /// How long per-key commands hold their shard lock (execute + journal
    /// append), the engine's main contention signal.
    shard_lock_hold: AtomicHistogram,
}

/// A thread-safe handle to the storage engine.
///
/// Cloning the handle is cheap and shares the same underlying state.
#[derive(Clone)]
pub struct KvStore {
    inner: Arc<Inner>,
    clock: SharedClock,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("shards", &self.inner.shards.len())
            .field("keys", &self.len())
            .field("aof", &self.inner.aof.is_some())
            .finish()
    }
}

impl KvStore {
    /// Open an engine with the given configuration, replaying any existing
    /// journal (segments loaded in parallel, records routed through the
    /// current router, shards rebuilt in parallel). A journal laid out for
    /// another router or by an older writer is rewritten before this
    /// returns; one from before governed entries is folded first (see
    /// [`crate::legacy`]).
    ///
    /// # Errors
    ///
    /// Returns configuration, I/O, decryption or corruption errors
    /// encountered while opening or replaying persistence.
    pub fn open(config: StoreConfig) -> Result<Self> {
        let clock = Arc::clone(&config.clock);
        let router = ShardRouter::new(config.shards, config.shard_hash_seed);
        let shard_count = router.shard_count();

        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|idx| Shard {
                db: Db::with_deadline_index(Arc::clone(&clock), config.deadline_index),
                rng: match config.rng_seed {
                    Some(seed) => StdRng::seed_from_u64(seed.wrapping_add(idx as u64)),
                    None => StdRng::from_entropy(),
                },
                journal: RecordBatch::default(),
            })
            .collect();

        let mut relayout = false;
        let aof = match ShardedAof::open(&config, &router)? {
            Some((aof, loaded)) => {
                relayout = loaded.needs_rewrite(&router);
                let legacy = loaded.writer_version < MANIFEST_VERSION;
                let partitions = Self::partition_journal(loaded, &router)?;
                Self::replay(partitions, &mut shards)?;
                if legacy {
                    let mut dbs: Vec<&mut Db> = shards.iter_mut().map(|s| &mut s.db).collect();
                    crate::legacy::fold_shadows(&mut dbs, |key| router.shard_of(key));
                }
                Some(aof)
            }
            None => None,
        };

        let inner = Inner {
            shards: shards.into_iter().map(Mutex::new).collect(),
            aof,
            router,
            config,
            counters: EngineCounters::default(),
            shard_lock_hold: AtomicHistogram::new(),
        };
        let store = KvStore {
            inner: Arc::new(inner),
            clock,
        };
        if relayout {
            store.rewrite_aof()?;
        }
        Ok(store)
    }

    /// Route recovered journal records to the shards that own them now.
    ///
    /// Fast path: the journal was written with this exact layout (same
    /// segment count, same router seed), so segment `i`'s records already
    /// belong to shard `i` — including its own copy of every broadcast.
    /// Otherwise the segments are merged by global sequence number (which
    /// reconstructs a valid linearization and deduplicates broadcast
    /// copies) and each record is re-routed through the current router.
    fn partition_journal(loaded: LoadedJournal, router: &ShardRouter) -> Result<Vec<Vec<Command>>> {
        let shard_count = router.shard_count();
        let same_layout =
            loaded.segments.len() == shard_count && loaded.writer_seed == router.seed();

        if same_layout {
            let mut partitions = Vec::with_capacity(shard_count);
            for records in loaded.segments {
                let mut commands = Vec::with_capacity(records.len());
                for (_seq, record) in records {
                    let cmd = Command::decode(&record)?;
                    if cmd.is_write() {
                        commands.push(cmd);
                    }
                }
                partitions.push(commands);
            }
            return Ok(partitions);
        }

        let mut merged: Vec<(u64, Vec<u8>)> = loaded.segments.into_iter().flatten().collect();
        merged.sort_by_key(|(seq, _)| *seq);
        let mut partitions: Vec<Vec<Command>> = (0..shard_count).map(|_| Vec::new()).collect();
        let mut last_seq = None;
        for (seq, record) in merged {
            // Broadcast records were written once per writer segment under
            // a shared sequence number; keep one copy.
            if last_seq == Some(seq) {
                continue;
            }
            last_seq = Some(seq);
            let cmd = Command::decode(&record)?;
            if !cmd.is_write() {
                continue;
            }
            match cmd.primary_key() {
                Some(key) => partitions[router.shard_of(key)].push(cmd),
                // FLUSHALL (the only key-less write) clears every shard;
                // relative order within each partition is preserved.
                None => {
                    for partition in &mut partitions {
                        partition.push(cmd.clone());
                    }
                }
            }
        }
        Ok(partitions)
    }

    /// Rebuild every shard from its partition — in parallel when there is
    /// more than one.
    fn replay(partitions: Vec<Vec<Command>>, shards: &mut [Shard]) -> Result<()> {
        fn apply(shard: &mut Shard, commands: Vec<Command>) -> Result<()> {
            for cmd in commands {
                cmd.execute(&mut shard.db)?;
            }
            shard.db.reset_dirty();
            Ok(())
        }

        if shards.len() > 1 {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(shards.len());
                for (shard, commands) in shards.iter_mut().zip(partitions) {
                    handles.push(scope.spawn(move || apply(shard, commands)));
                }
                for handle in handles {
                    handle.join().expect("replay thread panicked")?;
                }
                Ok(())
            })
        } else {
            for (shard, commands) in shards.iter_mut().zip(partitions) {
                apply(shard, commands)?;
            }
            Ok(())
        }
    }

    /// The clock this engine reads time from.
    #[must_use]
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// Number of keyspace shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard index owning `key` (stable for the life of the store).
    #[must_use]
    pub fn shard_of(&self, key: &str) -> usize {
        self.inner.router.shard_of(key)
    }

    /// The key → shard router (shared with the compliance layer so its
    /// per-shard structures line up with the engine's).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.inner.router
    }

    // ----- command execution ------------------------------------------------

    /// Execute a command, journaling it according to the configuration.
    ///
    /// Per-key commands lock only the owning shard (they are the
    /// one-element case of [`Self::execute_batch`]); keyspace-wide commands
    /// (`KEYS`, `SCAN`, `DBSIZE`, `FLUSHALL`) visit every shard.
    ///
    /// # Errors
    ///
    /// Propagates execution and persistence errors.
    pub fn execute(&self, command: Command) -> Result<Reply> {
        if let Some(key) = command.primary_key() {
            let shard_idx = self.inner.router.shard_of(key);
            let mut only = None;
            self.run_on_shard(shard_idx, std::iter::once(command), |reply| {
                only = Some(reply);
            })?;
            return Ok(only.expect("a command that did not fail has replied"));
        }

        let is_write = command.is_write();
        let journal = self.inner.aof.is_some() && (is_write || self.inner.config.log_reads);
        let mut ticket = None;
        let reply = {
            let mut guards = self.lock_all_shards();
            let reply = match &command {
                Command::Keys { .. } | Command::Scan { .. } => {
                    self.merge_key_query(&command, &mut guards)?
                }
                Command::DbSize => Reply::Int(guards.iter().map(|g| g.db.len() as i64).sum()),
                _ => {
                    // FLUSHALL and any future keyspace-wide write.
                    let mut total = 0i64;
                    let mut last = Reply::Ok;
                    for guard in guards.iter_mut() {
                        last = command.clone().execute(&mut guard.db)?;
                        if let Reply::Int(n) = last {
                            total += n;
                        }
                    }
                    if matches!(last, Reply::Int(_)) {
                        Reply::Int(total)
                    } else {
                        last
                    }
                }
            };
            if journal {
                // Keyspace-wide writes go to every segment under one
                // shared sequence number, while all shards are locked;
                // key-less reads (read-logging of KEYS/SCAN/DBSIZE)
                // need only one copy, kept in segment 0 — the same
                // convention the legacy-migration path uses.
                if let Some(aof) = &self.inner.aof {
                    ticket = if is_write {
                        aof.append_broadcast(&command.encode())?
                    } else {
                        aof.append(0, &command.encode())?
                    };
                }
            }
            reply
        };

        // With the shard locks released, wait for durability.
        if let (Some(ticket), Some(aof)) = (ticket, &self.inner.aof) {
            aof.commit(ticket)?;
        }
        self.count_executed(
            u64::from(!is_write),
            u64::from(is_write),
            u64::from(journal),
        )?;
        Ok(reply)
    }

    /// Execute `commands` — every one keyed, all owned by one shard — as a
    /// unit: one shard-lock acquisition, one journal append (one frame on
    /// the segment's device, so a crash keeps the whole batch or none of
    /// it) and one group-commit wait. Replies, statistics, `maxmemory`
    /// evictions and the replication stream are what issuing the commands
    /// one by one would produce.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidCommand`], before anything executes, when a
    /// command has no key or the keys do not share a shard. An execution
    /// error ends the batch there: as when issued one by one, the commands
    /// before it stay applied and journaled.
    pub fn execute_batch(&self, commands: Vec<Command>) -> Result<Vec<Reply>> {
        let Some(first) = commands.first() else {
            return Ok(Vec::new());
        };
        let shard_of = |command: &Command| command.primary_key().map(|key| self.shard_of(key));
        let shared = shard_of(first).filter(|idx| {
            commands
                .iter()
                .all(|command| shard_of(command) == Some(*idx))
        });
        let Some(shard_idx) = shared else {
            return Err(StoreError::InvalidCommand(
                "a batch must hold keyed commands that share one shard".to_string(),
            ));
        };
        let mut replies = Vec::with_capacity(commands.len());
        self.run_on_shard(shard_idx, commands, |reply| replies.push(reply))?;
        Ok(replies)
    }

    /// The one keyed execution path: run `commands` (all owned by shard
    /// `shard_idx`) under one acquisition of its lock, journal what ran in
    /// one append, wait for durability once. A command is encoded into the
    /// shard's journal batch first and consumed by its execution, so the
    /// payload of a write is copied into the journal and moved into the
    /// keyspace.
    fn run_on_shard(
        &self,
        shard_idx: usize,
        commands: impl IntoIterator<Item = Command>,
        mut reply: impl FnMut(Reply),
    ) -> Result<()> {
        let aof = self.inner.aof.as_ref();
        let log_reads = self.inner.config.log_reads;
        // `noeviction` rejects growth up front; a command that can only
        // shrink the keyspace is always allowed.
        let growth_limit = self
            .shard_mem_budget()
            .filter(|_| self.inner.config.eviction_policy == EvictionPolicy::Noeviction);

        let mut guard = self.inner.shards[shard_idx].lock();
        let held = Instant::now();
        let shard = &mut *guard;
        // The journal gets, in apply order: each command, and behind each
        // write the victims its eviction pass shed.
        let (mut reads, mut writes, mut journaled) = (0u64, 0u64, 0u64);
        let mut failure = None;
        for command in commands {
            let is_write = command.is_write();
            let used = shard.db.mem_bytes();
            if let Some(limit) = growth_limit.filter(|l| command.may_grow_memory() && used > *l) {
                failure = Some(StoreError::Oom { used, limit });
                break;
            }
            let before = shard.journal.mark();
            let journal = aof.is_some() && (is_write || log_reads);
            if journal {
                shard
                    .journal
                    .push_with(|record| command.encode_into(record));
            }
            match command.execute(&mut shard.db) {
                Ok(r) => reply(r),
                Err(e) => {
                    // A command that failed is not journaled.
                    shard.journal.rewind(before);
                    failure = Some(e);
                    break;
                }
            }
            journaled += u64::from(journal);
            if is_write {
                writes += 1;
                // The sampled policies reclaim space right after the
                // write, under the same shard lock, and journal each
                // eviction as a DEL — so replicas and crash-replay see
                // the eviction at exactly this point of the key's
                // command stream and stay byte-convergent.
                self.evict_to_budget(shard);
            } else {
                reads += 1;
            }
        }
        self.finish_visit(shard_idx, guard, held, reads, writes, journaled)?;
        failure.map_or(Ok(()), Err)
    }

    /// The end of every keyed visit: append what it journaled to the
    /// shard's segment while the shard is still locked (so the journal
    /// order of its keys matches their apply order), unlock, and only then
    /// wait for durability — group commit coalesces the wait with every
    /// other writer of the segment.
    fn finish_visit(
        &self,
        shard_idx: usize,
        mut shard: MutexGuard<'_, Shard>,
        held: Instant,
        reads: u64,
        writes: u64,
        journaled: u64,
    ) -> Result<()> {
        let aof = self.inner.aof.as_ref();
        let ticket = match aof {
            Some(aof) => aof.append_batch(shard_idx, &mut shard.journal)?,
            None => None,
        };
        drop(shard);
        self.inner.shard_lock_hold.record(held.elapsed());
        if let (Some(ticket), Some(aof)) = (ticket, aof) {
            aof.commit(ticket)?;
        }
        self.count_executed(reads, writes, journaled)
    }

    /// Read `key` in one visit of its shard: one lock acquisition, one
    /// dictionary lookup, nothing allocated for the key, no [`Command`]
    /// built. The value (when `part` fetches it) and the bytes governing it
    /// come from the one entry that holds both, so they are what a single
    /// write left there. The visit is one read, with lazy expiry, and —
    /// for a fetch — the access-time touch and hit-or-miss count of `GET`;
    /// under read-logging it journals the record its command would: `GET`
    /// for a fetch, `EXISTS` for a probe.
    ///
    /// # Errors
    ///
    /// Persistence errors from journaling the read.
    pub fn read(&self, key: &str, part: ValuePart) -> Result<KeyRead> {
        let journal = self.inner.aof.is_some() && self.inner.config.log_reads;
        let shard_idx = self.inner.router.shard_of(key);
        let mut guard = self.inner.shards[shard_idx].lock();
        let held = Instant::now();
        let Shard {
            db,
            journal: records,
            ..
        } = &mut *guard;

        let (entry, opcode) = match part {
            ValuePart::Exists => (db.lookup(key), OP_EXISTS),
            ValuePart::Fetch => (db.lookup_read(key), OP_GET),
        };
        let read = KeyRead {
            exists: entry.is_some(),
            value: entry
                .filter(|_| part == ValuePart::Fetch)
                .map(|obj| obj.value.clone()),
            governed: entry.and_then(|obj| obj.governed.clone()),
        };
        if journal {
            records.push_with(|record| encode_keyed(record, opcode, key));
        }
        self.finish_visit(shard_idx, guard, held, 1, 0, u64::from(journal))?;
        Ok(read)
    }

    /// Show `visit` every live entry that carries governing bytes, with
    /// them: each shard's entries are collected under its lock and visited
    /// after it is released, so `visit` may take locks of its own.
    ///
    /// # Errors
    ///
    /// Whatever `visit` returns, which ends the walk.
    pub fn for_each_governed<E>(
        &self,
        mut visit: impl FnMut(&str, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let now = self.clock.now_millis();
        for shard in &self.inner.shards {
            let governed: Vec<(String, Arc<[u8]>)> = {
                let shard = shard.lock();
                let live = |key: &str| shard.db.expire_deadline(key).is_none_or(|at| now < at);
                shard
                    .db
                    .iter()
                    .filter(|(key, _)| live(key))
                    .filter_map(|(key, obj)| {
                        Some((key.clone(), Arc::clone(obj.governed.as_ref()?)))
                    })
                    .collect()
            };
            for (key, bytes) in &governed {
                visit(key, bytes)?;
            }
        }
        Ok(())
    }

    /// Account for executed commands, `journaled` of which reached the
    /// journal, and let the auto-rewrite threshold see them.
    fn count_executed(&self, reads: u64, writes: u64, journaled: u64) -> Result<()> {
        let counters = &self.inner.counters;
        counters
            .commands
            .fetch_add(reads + writes, Ordering::Relaxed);
        counters.reads.fetch_add(reads, Ordering::Relaxed);
        counters.writes.fetch_add(writes, Ordering::Relaxed);
        if journaled > 0 {
            counters
                .records_since_rewrite
                .fetch_add(journaled, Ordering::Relaxed);
            self.maybe_auto_rewrite()?;
        }
        Ok(())
    }

    /// Acquire every shard lock in ascending index order (the global lock
    /// order that keeps multi-shard operations deadlock-free).
    fn lock_all_shards(&self) -> Vec<MutexGuard<'_, Shard>> {
        self.inner.shards.iter().map(Mutex::lock).collect()
    }

    /// Each shard's slice of the `maxmemory` budget, or `None` when the
    /// ceiling is unlimited.
    fn shard_mem_budget(&self) -> Option<u64> {
        match self.inner.config.max_memory {
            0 => None,
            max => Some((max / self.inner.shards.len() as u64).max(1)),
        }
    }

    /// Evict sampled victims from the locked shard until it is back under
    /// its budget (or nothing is left to evict), adding each eviction as a
    /// `DEL` to the shard's journal batch, behind the write that caused it.
    /// No-op under `noeviction` or without a `maxmemory` ceiling.
    fn evict_to_budget(&self, shard: &mut Shard) {
        let policy = self.inner.config.eviction_policy;
        if policy == EvictionPolicy::Noeviction {
            return;
        }
        let Some(budget) = self.shard_mem_budget() else {
            return;
        };
        let Shard {
            db, rng, journal, ..
        } = shard;
        while db.mem_bytes() > budget {
            match db.evict_one(rng, policy, EVICTION_SAMPLES) {
                Some(victim) if self.inner.aof.is_some() => {
                    journal.push_with(|record| encode_keyed(record, OP_DEL, &victim));
                }
                Some(_) => {}
                None => break,
            }
        }
    }

    fn merge_key_query(
        &self,
        command: &Command,
        guards: &mut [MutexGuard<'_, Shard>],
    ) -> Result<Reply> {
        let mut merged: Vec<String> = Vec::new();
        for guard in guards.iter_mut() {
            if let Reply::StringArray(keys) = command.clone().execute(&mut guard.db)? {
                merged.extend(keys);
            }
        }
        merged.sort();
        if let Command::Scan { count, .. } = command {
            merged.truncate(*count as usize);
        }
        Ok(Reply::StringArray(merged))
    }

    fn maybe_auto_rewrite(&self) -> Result<()> {
        let threshold = self.inner.config.aof_rewrite_threshold_records;
        if threshold == 0 {
            return Ok(());
        }
        let counter = &self.inner.counters.records_since_rewrite;
        if counter.load(Ordering::Relaxed) < threshold {
            return Ok(());
        }
        // Claim the rewrite by swapping the counter out: of several threads
        // crossing the threshold together, only the one that observes a
        // value still >= threshold performs the (stop-the-world) rewrite;
        // losers put their observation back and carry on.
        let observed = counter.swap(0, Ordering::Relaxed);
        if observed < threshold {
            counter.fetch_add(observed, Ordering::Relaxed);
            return Ok(());
        }
        self.rewrite_aof()?;
        self.inner
            .counters
            .auto_rewrites
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ----- convenience wrappers ----------------------------------------------

    /// Set a string key.
    pub fn set(&self, key: &str, value: Bytes) -> Result<()> {
        self.execute(Command::Set {
            key: key.to_string(),
            value,
        })
        .map(|_| ())
    }

    /// Read a string key.
    pub fn get(&self, key: &str) -> Result<Option<Bytes>> {
        let value = self.read(key, ValuePart::Fetch)?.value;
        value.map(|value| value.into_string(key)).transpose()
    }

    /// Delete a key; returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool> {
        Ok(self.execute(Command::Del {
            key: key.to_string(),
        })? == Reply::Int(1))
    }

    /// Install `listener` on every shard (replacing any previous one), or
    /// clear it with `None`. The engine calls it after each per-key
    /// removal — explicit deletes, lazy and active expiry, `maxmemory`
    /// eviction — while the owning shard's lock is held, so caches layered
    /// above the engine can invalidate synchronously even for removals
    /// that never pass through their own write path. The listener must be
    /// cheap and must not call back into the engine.
    pub fn set_removal_listener(&self, listener: Option<crate::db::RemovalListener>) {
        for shard in &self.inner.shards {
            shard.lock().db.set_removal_listener(listener.clone());
        }
    }

    /// Whether the key exists.
    pub fn exists(&self, key: &str) -> Result<bool> {
        Ok(self.read(key, ValuePart::Exists)?.exists)
    }

    /// Set a TTL relative to now.
    pub fn expire_in(&self, key: &str, ttl: std::time::Duration) -> Result<bool> {
        Ok(self.execute(Command::Expire {
            key: key.to_string(),
            ttl_ms: ttl.as_millis() as u64,
        })? == Reply::Int(1))
    }

    /// Set an absolute expiration deadline in Unix milliseconds.
    pub fn expire_at(&self, key: &str, at_ms: UnixMillis) -> Result<bool> {
        Ok(self.execute(Command::ExpireAt {
            key: key.to_string(),
            at_ms,
        })? == Reply::Int(1))
    }

    /// Remaining TTL, if the key exists and has one.
    pub fn ttl(&self, key: &str) -> Result<Option<std::time::Duration>> {
        Ok(
            match self.execute(Command::Ttl {
                key: key.to_string(),
            })? {
                Reply::Int(ms) => Some(std::time::Duration::from_millis(ms as u64)),
                _ => None,
            },
        )
    }

    /// Set a hash field.
    pub fn hset(&self, key: &str, field: &str, value: Bytes) -> Result<()> {
        self.execute(Command::HSet {
            key: key.to_string(),
            field: field.to_string(),
            value,
        })
        .map(|_| ())
    }

    /// Set several hash fields at once.
    pub fn hset_multi(
        &self,
        key: &str,
        fields: &std::collections::BTreeMap<String, Bytes>,
    ) -> Result<()> {
        self.execute(Command::HSetMulti {
            key: key.to_string(),
            fields: fields.clone(),
        })
        .map(|_| ())
    }

    /// Read a hash field.
    pub fn hget(&self, key: &str, field: &str) -> Result<Option<Bytes>> {
        Ok(self
            .execute(Command::HGet {
                key: key.to_string(),
                field: field.to_string(),
            })?
            .into_bytes())
    }

    /// Read a whole hash.
    pub fn hgetall(&self, key: &str) -> Result<Option<std::collections::BTreeMap<String, Bytes>>> {
        Ok(
            match self.execute(Command::HGetAll {
                key: key.to_string(),
            })? {
                Reply::Map(m) => Some(m),
                _ => None,
            },
        )
    }

    /// Keys matching a glob pattern, merged across shards in lexicographic
    /// order.
    pub fn keys(&self, pattern: &str) -> Result<Vec<String>> {
        Ok(
            match self.execute(Command::Keys {
                pattern: pattern.to_string(),
            })? {
                Reply::StringArray(keys) => keys,
                _ => Vec::new(),
            },
        )
    }

    /// Ordered scan of up to `count` keys starting at `start`, merged
    /// across shards.
    pub fn scan(&self, start: &str, count: usize) -> Result<Vec<String>> {
        Ok(
            match self.execute(Command::Scan {
                start: start.to_string(),
                count: count as u64,
            })? {
                Reply::StringArray(keys) => keys,
                _ => Vec::new(),
            },
        )
    }

    /// Number of keys in the keyspace (summed over shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().db.len()).sum()
    }

    /// Whether the keyspace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys whose TTL deadline has passed but which have not been
    /// physically erased yet (Figure 2's quantity), summed over shards.
    #[must_use]
    pub fn pending_expired(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().db.pending_expired_len())
            .sum()
    }

    // ----- time-driven work ---------------------------------------------------

    /// Run one iteration of the engine's background duties: an expiry cycle
    /// per shard (per the configured mode) and, under `everysec`, a
    /// possible fsync. Returns the merged expiry-cycle outcome so callers
    /// (e.g. the GDPR layer) can audit the erased keys.
    ///
    /// # Errors
    ///
    /// Propagates persistence errors from the fsync or from journaling the
    /// expiry deletions.
    pub fn tick(&self) -> Result<CycleOutcome> {
        let mode = self.inner.config.expiry_mode;
        let expire_cfg = self.inner.config.active_expire;
        let mut merged = CycleOutcome::default();

        for (shard_idx, shard) in self.inner.shards.iter().enumerate() {
            let mut shard = shard.lock();
            let Shard { db, rng, .. } = &mut *shard;
            let outcome = run_expire_cycle(db, mode, &expire_cfg, rng);

            // Propagate expiry deletions into this shard's journal segment
            // (under the shard lock, like any other write, and under one
            // log-lock acquisition for the whole batch) so that replaying
            // it cannot resurrect erased personal data.
            let mut ticket = None;
            if let Some(aof) = &self.inner.aof {
                for key in &outcome.removed {
                    shard
                        .journal
                        .push_with(|record| encode_keyed(record, OP_DEL, key));
                }
                ticket = aof.append_batch(shard_idx, &mut shard.journal)?;
            }
            drop(shard);
            if let (Some(ticket), Some(aof)) = (ticket, &self.inner.aof) {
                aof.commit(ticket)?;
            }

            merged.removed.extend(outcome.removed);
            merged.iterations += outcome.iterations;
            merged.examined += outcome.examined;
        }

        let counters = &self.inner.counters;
        counters.expire_cycles.fetch_add(1, Ordering::Relaxed);
        counters
            .keys_expired_by_cycles
            .fetch_add(merged.removed.len() as u64, Ordering::Relaxed);

        // Service the `everysec` timer of *every* segment, including the
        // ones this tick appended nothing to — a shard with no expiring
        // keys must still get its pending appends flushed on schedule.
        if let Some(aof) = &self.inner.aof {
            aof.maybe_fsync_all()?;
        }
        counters
            .last_tick_ms
            .store(self.clock.now_millis(), Ordering::Relaxed);
        Ok(merged)
    }

    /// Rewrite (compact) the whole journal segment set from the live
    /// dataset — `BGREWRITEAOF`. Each shard's segment is regenerated from
    /// that shard's minimal command stream and the set is swapped
    /// atomically through the manifest. Returns the number of records
    /// dropped, i.e. how much stale (including deleted-but-persisting)
    /// data was purged.
    ///
    /// Holds every shard lock for the duration, so the rewritten segment
    /// set is a consistent point-in-time image.
    ///
    /// # Errors
    ///
    /// Propagates persistence errors. Returns `Ok(0)` when persistence is
    /// disabled.
    pub fn rewrite_aof(&self) -> Result<u64> {
        let Some(aof) = &self.inner.aof else {
            return Ok(0);
        };
        let mut guards = self.lock_all_shards();

        let per_segment: Vec<Vec<Vec<u8>>> = guards
            .iter()
            .map(|guard| {
                snapshot::rewrite_commands(&guard.db)
                    .iter()
                    .map(Command::encode)
                    .collect()
            })
            .collect();
        let dropped = aof.rewrite(&per_segment)?;
        self.inner
            .counters
            .records_since_rewrite
            .store(0, Ordering::Relaxed);
        for guard in guards.iter_mut() {
            guard.db.reset_dirty();
        }
        Ok(dropped)
    }

    /// Force an fsync of every journal segment regardless of policy.
    pub fn fsync(&self) -> Result<()> {
        if let Some(aof) = &self.inner.aof {
            aof.fsync_all()?;
        }
        Ok(())
    }

    // ----- snapshots -----------------------------------------------------------

    /// Serialize the current keyspace (all shards) to a snapshot byte blob.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let guards = self.lock_all_shards();
        let dbs: Vec<&Db> = guards.iter().map(|g| &g.db).collect();
        snapshot::save_shards_to_bytes(&dbs)
    }

    /// Replace the keyspace with the contents of a snapshot blob, routing
    /// every key to its owning shard (snapshots are portable across shard
    /// counts).
    ///
    /// # Errors
    ///
    /// Returns corruption errors from decoding.
    pub fn restore_snapshot(&self, bytes: &[u8]) -> Result<()> {
        let router = self.inner.router;
        let mut guards = self.lock_all_shards();
        let mut dbs: Vec<&mut Db> = guards.iter_mut().map(|g| &mut g.db).collect();
        snapshot::load_into_shards(&mut dbs, |key| router.shard_of(key), bytes)
    }

    // ----- replication -----------------------------------------------------------

    /// Register a replication stream for its lifetime (RAII). While at
    /// least one guard is alive, appends are mirrored into the in-memory
    /// backlog that [`Self::repl_tail`] serves — the no-replica case pays
    /// nothing on the append path. Returns `None` when persistence is
    /// disabled or the backlog is configured away
    /// (`repl_backlog_records = 0`): callers must refuse the stream
    /// rather than hand out a cursor that can never be served.
    #[must_use]
    pub fn begin_repl_stream(&self) -> Option<ReplStreamGuard<'_>> {
        let aof = self.inner.aof.as_ref()?;
        if !aof.tailing_enabled() {
            return None;
        }
        aof.begin_tailing();
        Some(ReplStreamGuard { aof })
    }

    /// Full-sync source for a replica: a portable snapshot blob plus the
    /// journal watermark it corresponds to, captured atomically under every
    /// shard lock (sequence allocation happens under shard locks, so no
    /// append can land between the snapshot and the watermark read).
    /// Returns `None` when persistence is disabled — replication needs the
    /// journal's global sequence numbers as its stream offsets.
    #[must_use]
    pub fn replication_snapshot(&self) -> Option<(Vec<u8>, ReplWatermark)> {
        let aof = self.inner.aof.as_ref()?;
        let guards = self.lock_all_shards();
        let dbs: Vec<&Db> = guards.iter().map(|g| &g.db).collect();
        let blob = snapshot::save_shards_to_bytes(&dbs);
        Some((
            blob,
            ReplWatermark {
                epoch: aof.epoch(),
                last_seq: aof.last_seq(),
            },
        ))
    }

    /// Poll the replication stream from a cursor (see
    /// [`ShardedAof::tail_since`]). `None` when persistence is disabled.
    #[must_use]
    pub fn repl_tail(&self, epoch: u64, after_seq: u64, max: usize) -> Option<ReplTail> {
        self.inner
            .aof
            .as_ref()
            .map(|aof| aof.tail_since(epoch, after_seq, max))
    }

    /// A canonical byte rendering of the whole keyspace: every entry in
    /// lexicographic key order, as a snapshot encodes it — key, absolute
    /// expiry deadline, value, governing bytes. Two stores hold equivalent
    /// state iff these bytes are equal — the primary/replica convergence
    /// check (shard count and journal layout do not influence it).
    #[must_use]
    pub fn canonical_state(&self) -> Vec<u8> {
        let guards = self.lock_all_shards();
        let mut entries: Vec<(&String, &Db, &crate::object::Object)> = guards
            .iter()
            .flat_map(|guard| guard.db.iter().map(|(key, obj)| (key, &guard.db, obj)))
            .collect();
        entries.sort_unstable_by_key(|(key, _, _)| *key);
        let mut out = Vec::new();
        for (key, db, object) in entries {
            snapshot::encode_entry(&mut out, db, key, object);
        }
        out
    }

    // ----- introspection --------------------------------------------------------

    /// Snapshots of the engine's stage-latency histograms, in a fixed
    /// order: how long per-key commands held their shard lock, and how
    /// long writers waited in [`ShardedAof::commit`] for group-commit
    /// durability (empty when persistence is off or fsync is not
    /// per-write).
    #[must_use]
    pub fn stage_latencies(&self) -> Vec<(&'static str, LatencyHistogram)> {
        vec![
            ("shard_lock_hold", self.inner.shard_lock_hold.snapshot()),
            (
                "aof_commit_wait",
                self.inner
                    .aof
                    .as_ref()
                    .map(ShardedAof::commit_wait_snapshot)
                    .unwrap_or_default(),
            ),
        ]
    }

    /// A point-in-time statistics snapshot (keyspace counters summed over
    /// shards).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut db = DbStats::default();
        let mut deadline_index = DeadlineIndexStats {
            kind: self.inner.config.deadline_index,
            ..DeadlineIndexStats::default()
        };
        for shard in &self.inner.shards {
            let shard = shard.lock();
            let s = shard.db.stats();
            db.keyspace_hits += s.keyspace_hits;
            db.keyspace_misses += s.keyspace_misses;
            db.expired_keys += s.expired_keys;
            db.deleted_keys += s.deleted_keys;
            db.evicted_keys += s.evicted_keys;
            db.writes += s.writes;
            db.mem_bytes += s.mem_bytes;
            deadline_index.absorb(&shard.db.deadline_index_stats());
        }
        let counters = &self.inner.counters;
        EngineStats {
            commands_processed: counters.commands.load(Ordering::Relaxed),
            reads: counters.reads.load(Ordering::Relaxed),
            writes: counters.writes.load(Ordering::Relaxed),
            expire_cycles: counters.expire_cycles.load(Ordering::Relaxed),
            keys_expired_by_cycles: counters.keys_expired_by_cycles.load(Ordering::Relaxed),
            auto_rewrites: counters.auto_rewrites.load(Ordering::Relaxed),
            max_memory: self.inner.config.max_memory,
            eviction_policy: self.inner.config.eviction_policy,
            db,
            deadline_index,
            aof: self
                .inner
                .aof
                .as_ref()
                .map(ShardedAof::stats)
                .unwrap_or_default(),
            aof_segments: self
                .inner
                .aof
                .as_ref()
                .map_or(0, |aof| aof.segment_count() as u64),
            device: self
                .inner
                .aof
                .as_ref()
                .map(ShardedAof::device_stats)
                .unwrap_or_default(),
        }
    }

    /// AOF statistics aggregated over all segments, if persistence is
    /// enabled.
    #[must_use]
    pub fn aof_stats(&self) -> Option<AofStats> {
        self.inner.aof.as_ref().map(ShardedAof::stats)
    }

    /// Per-segment AOF statistics (index `i` is shard `i`'s segment), if
    /// persistence is enabled — the paper's risk-window metric observable
    /// per shard.
    #[must_use]
    pub fn aof_segment_stats(&self) -> Option<Vec<AofStats>> {
        self.inner.aof.as_ref().map(ShardedAof::segment_stats)
    }

    /// Current journal manifest epoch (bumps on every segment-set
    /// rewrite), if persistence is enabled.
    #[must_use]
    pub fn aof_epoch(&self) -> Option<u64> {
        self.inner.aof.as_ref().map(ShardedAof::epoch)
    }

    /// Bytes currently occupied by the journal across all segment devices.
    #[must_use]
    pub fn aof_len(&self) -> u64 {
        self.inner.aof.as_ref().map_or(0, ShardedAof::device_len)
    }

    /// The configured `maxmemory` ceiling in bytes (0 = unlimited).
    #[must_use]
    pub fn max_memory(&self) -> u64 {
        self.inner.config.max_memory
    }

    /// The configured over-`maxmemory` eviction policy.
    #[must_use]
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.inner.config.eviction_policy
    }

    /// Approximate resident bytes of the keyspace, summed over shards.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().db.mem_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::expire::ExpiryMode;
    use std::time::Duration;

    #[test]
    fn basic_set_get_delete() {
        let store = KvStore::open(StoreConfig::in_memory()).unwrap();
        store.set("k", b"v".to_vec()).unwrap();
        assert_eq!(store.get("k").unwrap(), Some(b"v".to_vec()));
        assert!(store.exists("k").unwrap());
        assert!(store.delete("k").unwrap());
        assert!(!store.exists("k").unwrap());
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn clone_shares_state() {
        let store = KvStore::open(StoreConfig::in_memory()).unwrap();
        let other = store.clone();
        store.set("shared", b"1".to_vec()).unwrap();
        assert_eq!(other.get("shared").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn ttl_and_expiry_via_tick() {
        let clock = SimClock::new(0);
        let store = KvStore::open(
            StoreConfig::in_memory()
                .clock(clock.clone())
                .expiry_mode(ExpiryMode::Strict),
        )
        .unwrap();
        store.set("k", b"v".to_vec()).unwrap();
        store.expire_in("k", Duration::from_millis(500)).unwrap();
        assert!(store.ttl("k").unwrap().is_some());
        clock.advance_millis(600);
        assert_eq!(store.pending_expired(), 1);
        let outcome = store.tick().unwrap();
        assert_eq!(outcome.removed, vec!["k".to_string()]);
        assert_eq!(store.pending_expired(), 0);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn aof_replay_recovers_state() {
        let dir = std::env::temp_dir().join(format!("kvstore-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.aof");
        let _ = std::fs::remove_file(&path);
        {
            let store = KvStore::open(StoreConfig::with_aof(&path)).unwrap();
            store.set("persistent", b"yes".to_vec()).unwrap();
            store.set("deleted", b"no".to_vec()).unwrap();
            store.delete("deleted").unwrap();
            store.hset("user", "email", b"a@b.c".to_vec()).unwrap();
            store.fsync().unwrap();
        }
        let reopened = KvStore::open(StoreConfig::with_aof(&path)).unwrap();
        assert_eq!(reopened.get("persistent").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(reopened.get("deleted").unwrap(), None);
        assert_eq!(
            reopened.hget("user", "email").unwrap(),
            Some(b"a@b.c".to_vec())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_aof_replay_recovers_state() {
        let dir = std::env::temp_dir().join(format!("kvstore-shardrep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sharded.aof");
        let _ = std::fs::remove_file(&path);
        {
            let store = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
            for i in 0..64 {
                store.set(&format!("user{i:03}"), vec![i as u8]).unwrap();
            }
            store.delete("user000").unwrap();
            store.fsync().unwrap();
        }
        // Replay at a different shard count: routing is a runtime choice.
        {
            let reopened = KvStore::open(StoreConfig::with_aof(&path).shards(8)).unwrap();
            assert_eq!(reopened.shard_count(), 8);
            assert_eq!(reopened.len(), 63);
            assert_eq!(reopened.get("user000").unwrap(), None);
            assert_eq!(reopened.get("user063").unwrap(), Some(vec![63]));
            // The journal is re-sharded on open, so shards beyond the old
            // segment count journal their writes too.
            assert_eq!(reopened.aof_segment_stats().unwrap().len(), 8);
            for i in 64..96 {
                reopened.set(&format!("user{i:03}"), vec![i as u8]).unwrap();
            }
            reopened.fsync().unwrap();
        }
        let regrown = KvStore::open(StoreConfig::with_aof(&path).shards(8)).unwrap();
        assert_eq!(regrown.len(), 95);
        assert_eq!(regrown.get("user095").unwrap(), Some(vec![95]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flushall_order_survives_shard_count_change() {
        let dir = std::env::temp_dir().join(format!("kvstore-flushrep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush.aof");
        let _ = std::fs::remove_file(&path);
        {
            let store = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
            for i in 0..16 {
                store.set(&format!("before{i:02}"), b"x".to_vec()).unwrap();
            }
            store.execute(Command::FlushAll).unwrap();
            for i in 0..8 {
                store.set(&format!("after{i:02}"), b"y".to_vec()).unwrap();
            }
            store.fsync().unwrap();
        }
        // Merging segments written by 4 shards into 1 must keep the
        // broadcast FLUSHALL ordered between the two write generations.
        let narrow = KvStore::open(StoreConfig::with_aof(&path).shards(1)).unwrap();
        assert_eq!(narrow.len(), 8);
        assert_eq!(narrow.get("before00").unwrap(), None);
        assert_eq!(narrow.get("after07").unwrap(), Some(b"y".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encrypted_aof_replay_recovers_state() {
        let dir = std::env::temp_dir().join(format!("kvstore-store-enc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc.aof");
        let _ = std::fs::remove_file(&path);
        {
            let store = KvStore::open(StoreConfig::with_aof(&path).encrypted(b"vault pw")).unwrap();
            store.set("secret", b"pii".to_vec()).unwrap();
            store.fsync().unwrap();
        }
        // Plaintext must not be on disk — neither in the manifest nor in
        // any segment file of the layout.
        let mut scanned = 0;
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            if entry.file_name().to_string_lossy().starts_with("enc.aof") {
                let raw = std::fs::read(entry.path()).unwrap();
                assert!(!raw.windows(3).any(|w| w == b"pii"), "{:?}", entry.path());
                scanned += 1;
            }
        }
        assert!(scanned >= 2, "manifest plus at least one segment");
        let reopened = KvStore::open(StoreConfig::with_aof(&path).encrypted(b"vault pw")).unwrap();
        assert_eq!(reopened.get("secret").unwrap(), Some(b"pii".to_vec()));
        // Wrong passphrase fails.
        assert!(KvStore::open(StoreConfig::with_aof(&path).encrypted(b"wrong")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_journal_honors_encryption_at_rest() {
        let store = KvStore::open(
            StoreConfig::in_memory()
                .aof_in_memory()
                .shards(2)
                .encrypted(b"mem pw"),
        )
        .unwrap();
        for i in 0..16 {
            store.set(&format!("k{i}"), b"personal".to_vec()).unwrap();
        }
        let device = store.stats().device;
        assert!(device.bytes_written > 0);
        assert!(
            device.bytes_on_device > device.bytes_written,
            "encrypting device frames (nonce+tag) must show up even for \
             in-memory segments: {device:?}"
        );

        let plain = KvStore::open(StoreConfig::in_memory().aof_in_memory().shards(2)).unwrap();
        plain.set("k", b"v".to_vec()).unwrap();
        let device = plain.stats().device;
        assert_eq!(device.bytes_on_device, device.bytes_written);
    }

    #[test]
    fn read_logging_journals_reads() {
        let store =
            KvStore::open(StoreConfig::in_memory().aof_in_memory().log_reads(true)).unwrap();
        store.set("k", b"v".to_vec()).unwrap();
        store.get("k").unwrap();
        store.get("k").unwrap();
        let stats = store.aof_stats().unwrap();
        assert_eq!(stats.records_appended, 3, "1 write + 2 reads journaled");

        let plain = KvStore::open(StoreConfig::in_memory().aof_in_memory()).unwrap();
        plain.set("k", b"v".to_vec()).unwrap();
        plain.get("k").unwrap();
        assert_eq!(
            plain.aof_stats().unwrap().records_appended,
            1,
            "reads not journaled by default"
        );
    }

    #[test]
    fn keyless_read_logging_journals_one_copy_not_a_broadcast() {
        let store = KvStore::open(
            StoreConfig::in_memory()
                .aof_in_memory()
                .shards(4)
                .log_reads(true),
        )
        .unwrap();
        let before = store.aof_stats().unwrap().records_appended;
        store.keys("*").unwrap();
        store.scan("", 10).unwrap();
        assert_eq!(
            store.aof_stats().unwrap().records_appended,
            before + 2,
            "a key-less read is one journal record, not one per segment"
        );
        // Keyspace-wide writes are still broadcast (one copy per segment).
        let before = store.aof_stats().unwrap().records_appended;
        store.execute(Command::FlushAll).unwrap();
        assert_eq!(store.aof_stats().unwrap().records_appended, before + 4);
    }

    #[test]
    fn rewrite_compacts_overwrites_and_deletes() {
        let store = KvStore::open(StoreConfig::in_memory().aof_in_memory()).unwrap();
        for i in 0..50 {
            store.set("hot", vec![i as u8]).unwrap();
        }
        store.set("cold", b"keep".to_vec()).unwrap();
        store.set("gone", b"delete me".to_vec()).unwrap();
        store.delete("gone").unwrap();
        let before = store.aof_stats().unwrap().records_appended;
        assert!(before >= 53);
        let dropped = store.rewrite_aof().unwrap();
        assert!(dropped > 0);
        // After rewrite the log replays to exactly the live dataset.
        let snapshot_before = store.snapshot();
        let replayed = KvStore::open(StoreConfig::in_memory()).unwrap();
        replayed.restore_snapshot(&snapshot_before).unwrap();
        assert_eq!(replayed.get("hot").unwrap(), Some(vec![49]));
        assert_eq!(replayed.get("cold").unwrap(), Some(b"keep".to_vec()));
        assert_eq!(replayed.get("gone").unwrap(), None);
    }

    #[test]
    fn auto_rewrite_triggers_at_threshold() {
        let store = KvStore::open(
            StoreConfig::in_memory()
                .aof_in_memory()
                .aof_rewrite_threshold(10),
        )
        .unwrap();
        for i in 0..25 {
            store.set("k", vec![i as u8]).unwrap();
        }
        let stats = store.stats();
        assert!(
            stats.auto_rewrites >= 2,
            "expected at least 2 auto rewrites, got {}",
            stats.auto_rewrites
        );
    }

    #[test]
    fn expiry_deletions_are_journaled() {
        let clock = SimClock::new(0);
        let store = KvStore::open(
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone())
                .expiry_mode(ExpiryMode::Strict),
        )
        .unwrap();
        store.set("temp", b"v".to_vec()).unwrap();
        store.expire_in("temp", Duration::from_millis(10)).unwrap();
        let before = store.aof_stats().unwrap().records_appended;
        clock.advance_millis(20);
        store.tick().unwrap();
        let after = store.aof_stats().unwrap().records_appended;
        assert_eq!(after, before + 1, "expiry must journal a DEL");
    }

    #[test]
    fn snapshot_roundtrip_via_store() {
        let store = KvStore::open(StoreConfig::in_memory()).unwrap();
        store.set("a", b"1".to_vec()).unwrap();
        store.hset("h", "f", b"2".to_vec()).unwrap();
        let blob = store.snapshot();
        let restored = KvStore::open(StoreConfig::in_memory()).unwrap();
        restored.restore_snapshot(&blob).unwrap();
        assert_eq!(restored.get("a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(restored.hget("h", "f").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn snapshot_is_portable_across_shard_counts() {
        let sharded = KvStore::open(StoreConfig::in_memory().shards(4)).unwrap();
        for i in 0..40 {
            sharded.set(&format!("user{i:02}"), vec![i as u8]).unwrap();
        }
        sharded.expire_at("user00", 10_000_000_000_000).unwrap();
        let blob = sharded.snapshot();

        let single = KvStore::open(StoreConfig::in_memory()).unwrap();
        single.restore_snapshot(&blob).unwrap();
        assert_eq!(single.len(), 40);
        assert_eq!(single.get("user39").unwrap(), Some(vec![39]));
        assert!(single.ttl("user00").unwrap().is_some());

        let wider = KvStore::open(StoreConfig::in_memory().shards(16)).unwrap();
        wider.restore_snapshot(&blob).unwrap();
        assert_eq!(wider.len(), 40);
    }

    #[test]
    fn stats_track_reads_writes_and_hits() {
        let store = KvStore::open(StoreConfig::in_memory()).unwrap();
        store.set("k", b"v".to_vec()).unwrap();
        store.get("k").unwrap();
        store.get("missing").unwrap();
        let stats = store.stats();
        assert_eq!(stats.commands_processed, 3);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.db.keyspace_hits, 1);
        assert_eq!(stats.db.keyspace_misses, 1);
        assert!(stats.hit_ratio().unwrap() > 0.49);
    }

    #[test]
    fn scan_and_keys_via_store() {
        let store = KvStore::open(StoreConfig::in_memory()).unwrap();
        for i in 0..5 {
            store.set(&format!("user{i}"), b"v".to_vec()).unwrap();
        }
        assert_eq!(store.keys("user*").unwrap().len(), 5);
        assert_eq!(store.scan("user2", 2).unwrap(), vec!["user2", "user3"]);
    }

    #[test]
    fn scan_and_keys_merge_across_shards_in_order() {
        let store = KvStore::open(StoreConfig::in_memory().shards(8)).unwrap();
        for i in 0..50 {
            store.set(&format!("user{i:02}"), b"v".to_vec()).unwrap();
        }
        assert_eq!(store.shard_count(), 8);
        let keys = store.keys("user*").unwrap();
        assert_eq!(keys.len(), 50);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged KEYS must stay globally ordered");
        assert_eq!(
            store.scan("user10", 4).unwrap(),
            vec!["user10", "user11", "user12", "user13"]
        );
    }

    #[test]
    fn flushall_clears_every_shard() {
        let store = KvStore::open(StoreConfig::in_memory().shards(4)).unwrap();
        for i in 0..32 {
            store.set(&format!("k{i}"), b"v".to_vec()).unwrap();
        }
        let reply = store.execute(Command::FlushAll).unwrap();
        assert_eq!(reply, Reply::Int(32));
        assert!(store.is_empty());
    }

    #[test]
    fn sharded_strict_expiry_sweeps_every_shard() {
        let clock = SimClock::new(0);
        let store = KvStore::open(
            StoreConfig::in_memory()
                .shards(4)
                .clock(clock.clone())
                .expiry_mode(ExpiryMode::Strict),
        )
        .unwrap();
        for i in 0..64 {
            let key = format!("temp{i:02}");
            store.set(&key, b"v".to_vec()).unwrap();
            store.expire_in(&key, Duration::from_millis(100)).unwrap();
        }
        clock.advance_millis(200);
        assert_eq!(store.pending_expired(), 64);
        let outcome = store.tick().unwrap();
        assert_eq!(outcome.removed.len(), 64);
        assert!(store.is_empty());
    }

    #[test]
    fn noeviction_rejects_growth_with_oom_but_allows_reclaim() {
        let store = KvStore::open(StoreConfig::in_memory().max_memory(512)).unwrap();
        // Fill past the ceiling (each entry ~64 + key + 100 bytes).
        let mut stored = 0;
        loop {
            match store.set(&format!("k{stored:03}"), vec![0u8; 100]) {
                Ok(()) => stored += 1,
                Err(StoreError::Oom { used, limit }) => {
                    assert!(used > limit, "used={used} limit={limit}");
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(stored < 100, "OOM never hit");
        }
        assert!(stored >= 2, "at least a few writes fit under 512 bytes");
        // Reads, deletions and TTL changes stay allowed over budget.
        assert!(store.get("k000").unwrap().is_some());
        assert!(store.expire_in("k000", Duration::from_secs(60)).unwrap());
        assert!(store.delete("k000").unwrap());
        assert_eq!(store.stats().db.evicted_keys, 0);
    }

    #[test]
    fn sampled_eviction_keeps_shards_under_budget() {
        for policy in [EvictionPolicy::SampledLru, EvictionPolicy::SampledRandom] {
            let store = KvStore::open(
                StoreConfig::in_memory()
                    .shards(4)
                    .rng_seed(11)
                    .max_memory(16 * 1024)
                    .eviction_policy(policy),
            )
            .unwrap();
            for i in 0..400 {
                store.set(&format!("k{i:04}"), vec![0u8; 100]).unwrap();
            }
            let stats = store.stats();
            assert!(
                stats.db.mem_bytes <= 16 * 1024,
                "{policy}: mem {} exceeds ceiling",
                stats.db.mem_bytes
            );
            assert!(stats.db.evicted_keys > 0, "{policy}: nothing evicted");
            assert_eq!(store.len() as u64 + stats.db.evicted_keys, 400);
        }
    }

    #[test]
    fn evictions_are_journaled_and_replay_to_same_state() {
        let dir = std::env::temp_dir().join(format!("kvstore-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evict.aof");
        let _ = std::fs::remove_file(&path);
        let canonical = {
            let store = KvStore::open(
                StoreConfig::with_aof(&path)
                    .shards(2)
                    .rng_seed(7)
                    .max_memory(8 * 1024)
                    .eviction_policy(EvictionPolicy::SampledLru),
            )
            .unwrap();
            for i in 0..200 {
                store.set(&format!("k{i:04}"), vec![1u8; 100]).unwrap();
            }
            assert!(store.stats().db.evicted_keys > 0);
            store.fsync().unwrap();
            store.canonical_state()
        };
        // Crash-replay of a journal containing eviction DELs reproduces
        // the same keyspace — the replayer itself never evicts (the DELs
        // carry the decisions), so replay with no maxmemory must converge.
        let reopened = KvStore::open(StoreConfig::with_aof(&path).shards(2)).unwrap();
        assert_eq!(reopened.canonical_state(), canonical);
        assert_eq!(reopened.stats().db.evicted_keys, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two keys of `store` that live on different shards.
    fn keys_on_two_shards(store: &KvStore) -> (String, String) {
        let first = "key0".to_string();
        let other = (1..)
            .map(|i| format!("key{i}"))
            .find(|key| store.shard_of(key) != store.shard_of(&first))
            .unwrap();
        (first, other)
    }

    fn set(key: &str, value: &[u8]) -> Command {
        Command::Set {
            key: key.to_string(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn a_batch_that_does_not_share_a_shard_is_rejected_before_anything_executes() {
        let store = KvStore::open(StoreConfig::in_memory().aof_in_memory().shards(4)).unwrap();
        let (here, there) = keys_on_two_shards(&store);
        for batch in [
            vec![set(&here, b"1"), set(&there, b"2")],
            vec![set(&here, b"1"), Command::FlushAll],
            vec![Command::DbSize],
        ] {
            let err = store.execute_batch(batch).unwrap_err();
            assert!(matches!(err, StoreError::InvalidCommand(_)), "{err}");
        }
        assert!(
            store.is_empty(),
            "the command before the stray one never ran"
        );
        assert_eq!(store.stats().commands_processed, 0);
        assert_eq!(store.aof_stats().unwrap().records_appended, 0);
        assert_eq!(
            store.execute_batch(Vec::new()).unwrap(),
            Vec::<Reply>::new()
        );
    }

    #[test]
    fn a_batch_is_its_commands_issued_one_by_one_in_one_journal_frame() {
        // Small enough a ceiling that the sampled evictor sheds keys in the
        // middle of batches; a pinned clock, so that both stores see the
        // same idle times and pick the same victims.
        let open = || {
            KvStore::open(
                StoreConfig::in_memory()
                    .clock(SimClock::new(1_000_000))
                    .aof_in_memory()
                    .encrypted(b"pw")
                    .shards(4)
                    .rng_seed(5)
                    .log_reads(true)
                    .max_memory(8 * 1024)
                    .eviction_policy(EvictionPolicy::SampledLru),
            )
            .unwrap()
        };
        let (batched, single) = (open(), open());
        let _streams = (
            batched.begin_repl_stream().unwrap(),
            single.begin_repl_stream().unwrap(),
        );
        let mut batches = 0;
        for i in 0..120u64 {
            let key = format!("user{i:03}");
            let bracket = vec![
                Command::SetGoverned {
                    key: key.clone(),
                    value: vec![i as u8; 90],
                    governed: Arc::from(&b"subject=alice"[..]),
                },
                Command::ExpireAt {
                    key: key.clone(),
                    at_ms: 10_000_000_000_000 + i,
                },
                Command::Govern {
                    key: key.clone(),
                    governed: Arc::from(&b"subject=bob"[..]),
                },
                Command::Get { key: key.clone() },
                Command::Persist { key: key.clone() },
                Command::Del {
                    key: format!("user{:03}", i / 2),
                },
            ];
            // The DEL names another key: keep the brackets that still
            // share a shard, which is what a batch requires.
            let shard = batched.shard_of(&key);
            let bracket: Vec<Command> = bracket
                .into_iter()
                .filter(|c| batched.shard_of(c.primary_key().unwrap()) == shard)
                .collect();
            let replies = batched.execute_batch(bracket.clone()).unwrap();
            let one_by_one: Vec<Reply> = bracket
                .iter()
                .map(|c| single.execute(c.clone()).unwrap())
                .collect();
            assert_eq!(replies, one_by_one, "bracket {i}");
            batches += 1;
        }
        let (a, b) = (batched.stats(), single.stats());
        assert!(a.db.evicted_keys > 0, "the ceiling never bit: {a:?}");
        assert_eq!(a.db, b.db, "keyspace counters, evictions included");
        assert_eq!(
            (a.commands_processed, a.reads, a.writes),
            (b.commands_processed, b.reads, b.writes)
        );
        assert_eq!(a.aof.records_appended, b.aof.records_appended);
        assert_eq!(a.aof.bytes_appended, b.aof.bytes_appended);
        assert_eq!(batched.canonical_state(), single.canonical_state());
        // The replication stream: same records under the same sequence
        // numbers, eviction DELs where one-by-one execution puts them.
        let tail = |store: &KvStore| {
            let tail = store
                .repl_tail(store.aof_epoch().unwrap(), 0, usize::MAX)
                .unwrap();
            assert!(!tail.lost && !tail.gapped);
            tail.records
        };
        let stream = tail(&batched);
        assert_eq!(stream.len() as u64, a.aof.records_appended);
        assert_eq!(stream, tail(&single));
        // What differs is the price: one device append — one frame — per
        // batch instead of per command (a command's eviction victims ride
        // in its frame either way).
        assert_eq!(a.device.appends, batches);
        assert_eq!(b.device.appends, b.commands_processed);
        assert!(a.device.bytes_on_device < b.device.bytes_on_device);
    }

    /// Engine visits so far: every keyed visit samples `shard_lock_hold`
    /// exactly once.
    fn visits(store: &KvStore) -> u64 {
        store.stage_latencies()[0].1.count()
    }

    #[test]
    fn a_read_is_one_visit_whatever_it_looks_at() {
        let store = KvStore::open(StoreConfig::in_memory().shards(4)).unwrap();
        let governed: Arc<[u8]> = Arc::from(&b"subject=alice"[..]);
        store
            .execute(Command::SetGoverned {
                key: "k".to_string(),
                value: b"value".to_vec(),
                governed: Arc::clone(&governed),
            })
            .unwrap();
        let hash = Command::HSet {
            key: "h".to_string(),
            field: "f".to_string(),
            value: b"v".to_vec(),
        };
        store.execute(hash).unwrap();
        let (before, visited) = (store.stats(), visits(&store));

        let entry = store.read("k", ValuePart::Fetch).unwrap();
        assert_eq!(entry.value, Some(Value::Str(b"value".to_vec())));
        assert_eq!(entry.governed, Some(Arc::clone(&governed)));
        assert!(entry.exists);
        assert_eq!(
            visits(&store),
            visited + 1,
            "value and governance: one visit"
        );
        let after = store.stats();
        assert_eq!(after.reads, before.reads + 1, "one key looked at");
        assert_eq!(after.db.keyspace_hits, before.db.keyspace_hits + 1);

        // The value comes back typed: a hash is not an error here.
        let typed = store.read("h", ValuePart::Fetch).unwrap();
        assert!(matches!(typed.value, Some(Value::Hash(_))));
        assert_eq!(typed.governed, None);
        // Only whether the key is there, and what governs it.
        let probe = store.read("k", ValuePart::Exists).unwrap();
        assert_eq!(
            (probe.exists, probe.value, probe.governed),
            (true, None, Some(governed))
        );
        let absent = store.read("nobody", ValuePart::Fetch).unwrap();
        assert_eq!(absent, KeyRead::default());
        assert_eq!(visits(&store), visited + 4);

        // `get` and `exists` are such visits too.
        assert_eq!(store.get("k").unwrap(), Some(b"value".to_vec()));
        assert!(store.exists("k").unwrap());
        assert!(matches!(
            store.get("h"),
            Err(StoreError::WrongType {
                expected: "string",
                ..
            })
        ));
        assert_eq!(visits(&store), visited + 7);
    }

    #[test]
    fn read_logging_journals_a_read_visit_as_the_commands_it_stands_for() {
        // The paper's monitoring retrofit: with `log_reads` every read is a
        // journal record. The borrowed-key visit must leave the records the
        // command path leaves — `GET` for a fetch, `EXISTS` for a probe —
        // and one per read, governed or not.
        let open = || {
            let store = KvStore::open(
                StoreConfig::in_memory()
                    .aof_in_memory()
                    .shards(4)
                    .log_reads(true),
            )
            .unwrap();
            store
                .execute(Command::SetGoverned {
                    key: "k".to_string(),
                    value: b"value".to_vec(),
                    governed: Arc::from(&b"meta"[..]),
                })
                .unwrap();
            store
        };
        let (visit, command) = (open(), open());
        let _streams = (
            visit.begin_repl_stream().unwrap(),
            command.begin_repl_stream().unwrap(),
        );
        let get = |key: &str| Command::Get {
            key: key.to_string(),
        };

        visit.get("k").unwrap();
        visit.exists("k").unwrap();
        visit.get("absent").unwrap();
        visit.read("k", ValuePart::Fetch).unwrap();
        visit.read("k", ValuePart::Exists).unwrap();

        let exists = || Command::Exists {
            key: "k".to_string(),
        };
        command.execute(get("k")).unwrap();
        command.execute(exists()).unwrap();
        command.execute(get("absent")).unwrap();
        command.execute(get("k")).unwrap();
        command.execute(exists()).unwrap();

        // The stream starts behind the record `open` wrote.
        let tail = |store: &KvStore| {
            let tail = store
                .repl_tail(store.aof_epoch().unwrap(), 1, usize::MAX)
                .unwrap();
            assert!(!tail.lost && !tail.gapped);
            tail.records
        };
        assert_eq!(tail(&visit).len(), 5);
        assert_eq!(tail(&visit), tail(&command));
        let (a, b) = (visit.stats(), command.stats());
        assert_eq!(a.aof.records_appended, b.aof.records_appended);
        assert_eq!(a.aof.bytes_appended, b.aof.bytes_appended);
        assert_eq!(a.device.appends, b.device.appends);
        assert_eq!((a.reads, a.db), (b.reads, b.db));

        // Without read-logging a read leaves the journal alone.
        let quiet = KvStore::open(StoreConfig::in_memory().aof_in_memory()).unwrap();
        quiet.set("k", b"v".to_vec()).unwrap();
        quiet.read("k", ValuePart::Fetch).unwrap();
        assert_eq!(quiet.aof_stats().unwrap().records_appended, 1);
    }

    #[test]
    fn governing_bytes_travel_with_their_entry_through_every_copy() {
        let dir = std::env::temp_dir().join(format!("kvstore-governed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("governed.aof");
        let meta = |subject: &str| -> Arc<[u8]> { Arc::from(subject.as_bytes()) };
        let governed_of =
            |store: &KvStore, key: &str| store.read(key, ValuePart::Exists).unwrap().governed;
        let canonical = {
            let store = KvStore::open(StoreConfig::with_aof(&path).shards(4)).unwrap();
            let replies = store
                .execute_batch(vec![
                    Command::SetGoverned {
                        key: "s".to_string(),
                        value: b"v".to_vec(),
                        governed: meta("alice"),
                    },
                    Command::ExpireAt {
                        key: "s".to_string(),
                        at_ms: 10_000_000_000_000,
                    },
                ])
                .unwrap();
            assert_eq!(replies, vec![Reply::Ok, Reply::Int(1)]);
            store.hset("h", "f", b"v".to_vec()).unwrap();
            let govern = |key: &str| Command::Govern {
                key: key.to_string(),
                governed: meta("bob"),
            };
            assert_eq!(store.execute(govern("h")).unwrap(), Reply::Int(1));
            assert_eq!(store.execute(govern("absent")).unwrap(), Reply::Int(0));
            assert!(!store.exists("absent").unwrap());
            store.set("plain", b"v".to_vec()).unwrap();
            store.execute(govern("plain")).unwrap();
            store.set("plain", b"w".to_vec()).unwrap();
            assert_eq!(governed_of(&store, "plain"), None, "SET clears it");
            store.fsync().unwrap();

            // A snapshot carries it, to any shard count.
            let copy = KvStore::open(StoreConfig::in_memory().shards(2)).unwrap();
            copy.restore_snapshot(&store.snapshot()).unwrap();
            assert_eq!(copy.canonical_state(), store.canonical_state());
            store.canonical_state()
        };
        // So does the journal: replayed at another shard count (which
        // rewrites it) and again from the rewritten set.
        for shards in [2, 2, 8] {
            let reopened = KvStore::open(StoreConfig::with_aof(&path).shards(shards)).unwrap();
            assert_eq!(reopened.canonical_state(), canonical, "{shards} shards");
            assert_eq!(governed_of(&reopened, "s"), Some(meta("alice")));
            assert_eq!(governed_of(&reopened, "h"), Some(meta("bob")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_command_ends_its_batch_and_keeps_what_ran_before_it() {
        let store = KvStore::open(StoreConfig::in_memory().aof_in_memory()).unwrap();
        let wrong_type = Command::HSet {
            key: "s".to_string(),
            field: "f".to_string(),
            value: b"v".to_vec(),
        };
        let err = store
            .execute_batch(vec![set("s", b"1"), wrong_type, set("t", b"2")])
            .unwrap_err();
        assert!(matches!(err, StoreError::WrongType { .. }), "{err}");
        assert_eq!(store.get("s").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get("t").unwrap(), None);
        assert_eq!(store.aof_stats().unwrap().records_appended, 1);
        assert_eq!(store.stats().writes, 1);
    }

    #[test]
    fn concurrent_writers_on_different_shards() {
        let store = KvStore::open(StoreConfig::in_memory().shards(8)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("t{t}:k{i}");
                        store.set(&key, vec![t as u8]).unwrap();
                        assert_eq!(store.get(&key).unwrap(), Some(vec![t as u8]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 8 * 200);
        let stats = store.stats();
        assert_eq!(stats.writes, 8 * 200);
        assert_eq!(stats.reads, 8 * 200);
    }
}
