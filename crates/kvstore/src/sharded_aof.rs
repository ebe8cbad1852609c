//! Per-shard append-only journal segments with group-commit fsync.
//!
//! PR 1 sharded the keyspace but left persistence serialized: every shard
//! funneled its writes through one `Mutex<AofLog>`, so under
//! `appendfsync always` the journal re-serialized all shards — exactly the
//! compliance bottleneck the paper measures (§4.1: `always` drops
//! throughput to ~5 % of baseline). [`ShardedAof`] removes that last
//! global serialization point:
//!
//! * **one [`AofLog`] segment per shard**, each over its own
//!   [`StorageDevice`] (plain file, in-memory, or encrypted — the same
//!   device spectrum the single log had);
//! * a **manifest** (segment count, shard-router seed, per-segment record
//!   counts, monotonic epoch) so recovery can open segments in parallel
//!   and a rewrite can atomically swap the whole segment set;
//! * **global sequence numbers** stamped on every record so a journal
//!   written with M shards replays correctly into N shards (records are
//!   merged by sequence and re-routed through the current router, the way
//!   snapshots already are);
//! * **group commit** for [`FsyncPolicy::Always`]: a per-segment committer
//!   coalesces concurrent appends into one fsync that all blocked writers
//!   observe (condvar ticket scheme with a bounded wait), so real-time
//!   durability costs one fsync per *batch* instead of per record (with one
//!   writer, a batch is one record);
//! * **one device append per call**: the records of one
//!   [`ShardedAof::append_batch`] reach the segment's device together, as
//!   one frame (encrypted, or checksummed) — a crash keeps all of them
//!   or none.
//!
//! # On-disk layout (file persistence)
//!
//! For `Persistence::AofFile(path)`:
//!
//! ```text
//! <path>              the manifest (layout metadata only, no user data)
//! <path>.e<E>.s<i>    segment i of epoch E, one per shard
//! ```
//!
//! The manifest is replaced via write-to-temp + rename, so a crash during
//! a rewrite leaves the old epoch's manifest — and therefore the old,
//! complete segment set — in effect (new-epoch files that were staged but
//! never committed are deleted on the next open). A file at `<path>` that
//! is not a manifest of version [`OLDEST_MANIFEST_VERSION`] to
//! [`MANIFEST_VERSION`] (bad magic, empty, truncated, another version) is
//! refused, and the open touches no file. An older readable manifest is
//! stamped with the current version once its segments are loaded.
//! A segment set laid out for another router is read but not appended to
//! ([`LoadedJournal::needs_rewrite`]): the engine replays its records
//! through the current router and rewrites the set as the next epoch
//! before anything is appended. Segment files are longer than their
//! content while open (see [`crate::device`]).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Duration;

use parking_lot::Mutex;

use crate::aof::{AofLog, AofStats, FsyncPolicy};
use crate::clock::SharedClock;
use crate::config::{Persistence, SegmentDevices, StoreConfig};
use crate::device::{
    ChecksummedDevice, EncryptedFileDevice, MemoryDevice, PlainFileDevice, StorageDevice,
};
use crate::serialize::{put_u64, Reader};
use crate::shard::ShardRouter;
use crate::{Result, StoreError};

/// How many records a segment's reader may run ahead of an ordered walk
/// ([`ShardedAof::for_each_record_after`]).
pub const WALK_READ_AHEAD: usize = 256;

/// File-format magic for the segment-set manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"GDPRAOFM";
/// Manifest format version this build writes: a governed key's metadata
/// travels in its entry's own records, an unencrypted segment file holds
/// checksummed frames (see [`crate::device`]), and the segments may hold
/// `EVIDENCE` and `ARCHIVED` records. [`ShardedAof::open`] also reads
/// [`OLDEST_MANIFEST_VERSION`] (a journal without evidence, decoded the
/// same way) and stamps the manifest with this version, so that a build
/// that cannot read evidence refuses the journal at its manifest.
pub const MANIFEST_VERSION: u64 = 4;

/// The oldest manifest version [`ShardedAof::open`] reads.
pub const OLDEST_MANIFEST_VERSION: u64 = 3;

/// How long a group-commit follower sleeps before it re-checks whether it
/// must take over as leader: a guard against a lost wakeup or a leader
/// that died, not a batching window.
const FOLLOWER_WAIT: Duration = Duration::from_millis(2);

/// The segment-set manifest: which epoch's files are authoritative and how
/// the writer's journal was laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AofManifest {
    /// The format version the segment set was laid out under, from
    /// [`OLDEST_MANIFEST_VERSION`] to [`MANIFEST_VERSION`].
    pub version: u64,
    /// Monotonic epoch; bumped by every segment-set rewrite. Only files of
    /// this epoch are part of the journal.
    pub epoch: u64,
    /// The shard-router hash seed the writer used (recovery compares it to
    /// its own to decide whether segments map 1:1 onto shards).
    pub shard_hash_seed: u64,
    /// Records per segment as of the last rewrite or clean open. Advisory:
    /// appends since then are counted by reading the segments themselves.
    pub record_counts: Vec<u64>,
}

impl AofManifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * (4 + self.record_counts.len()));
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u64(&mut out, self.version);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.shard_hash_seed);
        put_u64(&mut out, self.record_counts.len() as u64);
        for count in &self.record_counts {
            put_u64(&mut out, *count);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        const CTX: &str = "aof manifest";
        if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt {
                context: CTX,
                detail: format!(
                    "bad magic {:?}",
                    String::from_utf8_lossy(&bytes[..bytes.len().min(MANIFEST_MAGIC.len())])
                ),
            });
        }
        let mut reader = Reader::new(&bytes[MANIFEST_MAGIC.len()..]);
        let version = reader.get_u64(CTX)?;
        if !(OLDEST_MANIFEST_VERSION..=MANIFEST_VERSION).contains(&version) {
            return Err(StoreError::Corrupt {
                context: CTX,
                detail: format!(
                    "manifest version {version}; this build reads versions \
                     {OLDEST_MANIFEST_VERSION} to {MANIFEST_VERSION}"
                ),
            });
        }
        let epoch = reader.get_u64(CTX)?;
        let shard_hash_seed = reader.get_u64(CTX)?;
        let segments = reader.get_u64(CTX)?;
        if segments == 0 || segments > 1 << 20 {
            return Err(StoreError::Corrupt {
                context: CTX,
                detail: format!("implausible segment count {segments}"),
            });
        }
        let mut record_counts = Vec::with_capacity(segments as usize);
        for _ in 0..segments {
            record_counts.push(reader.get_u64(CTX)?);
        }
        if !reader.is_at_end() {
            return Err(StoreError::Corrupt {
                context: CTX,
                detail: format!("{} trailing bytes", reader.remaining()),
            });
        }
        Ok(AofManifest {
            version,
            epoch,
            shard_hash_seed,
            record_counts,
        })
    }
}

/// Path of segment `idx` for `epoch`, derived from the manifest path.
#[must_use]
pub fn segment_path(manifest: &Path, epoch: u64, idx: usize) -> PathBuf {
    let mut name = manifest
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(&format!(".e{epoch}.s{idx}"));
    manifest.with_file_name(name)
}

/// Where segment devices come from.
#[derive(Debug)]
enum SegmentBackend {
    /// In-memory segments (CPU-cost-only persistence; nothing survives the
    /// process, so there is no on-disk manifest either). Encryption at
    /// rest still applies, so the crypto CPU cost stays measurable in
    /// isolation from disk latency.
    Memory { passphrase: Option<Vec<u8>> },
    /// File-backed segments around the manifest at this path: encrypted
    /// frames with a passphrase, checksummed frames without.
    File {
        manifest: PathBuf,
        passphrase: Option<Vec<u8>>,
    },
    /// Segments on caller-supplied devices, kept like in-memory ones.
    Devices(SegmentDevices),
}

impl SegmentBackend {
    fn from_config(config: &StoreConfig) -> Option<Self> {
        let passphrase = config.encryption.as_ref().map(|e| e.passphrase.clone());
        match &config.persistence {
            Persistence::None => None,
            Persistence::AofInMemory => Some(SegmentBackend::Memory { passphrase }),
            Persistence::AofFile(path) => Some(SegmentBackend::File {
                manifest: path.clone(),
                passphrase,
            }),
            Persistence::AofDevices(devices) => Some(SegmentBackend::Devices(devices.clone())),
        }
    }

    /// The device of segment `idx` of `epoch`.
    fn build_device(&self, epoch: u64, idx: usize) -> Result<Box<dyn StorageDevice>> {
        match self {
            SegmentBackend::Memory { passphrase } => Ok(match passphrase {
                None => Box::new(MemoryDevice::new()),
                Some(pw) => Box::new(EncryptedFileDevice::new(MemoryDevice::new(), pw)?),
            }),
            SegmentBackend::File {
                manifest,
                passphrase,
            } => open_journal_file(&segment_path(manifest, epoch, idx), passphrase.as_deref()),
            SegmentBackend::Devices(devices) => Ok((devices.0)(idx)),
        }
    }
}

/// Group-commit bookkeeping for one segment.
#[derive(Debug, Default)]
struct CommitState {
    /// Highest record position known durable.
    synced_pos: u64,
    /// Whether a leader is currently fsyncing on everyone's behalf.
    leader_active: bool,
    /// Group-commit fsyncs issued.
    group_commits: u64,
    /// Records covered by those fsyncs (batch sizes summed).
    group_commit_records: u64,
    /// Largest batch one fsync covered.
    max_batch: u64,
}

#[derive(Debug)]
struct Segment {
    log: Mutex<AofLog>,
    commit: StdMutex<CommitState>,
    commit_cond: Condvar,
}

impl Segment {
    fn new(log: AofLog) -> Self {
        Segment {
            log: Mutex::new(log),
            commit: StdMutex::new(CommitState::default()),
            commit_cond: Condvar::new(),
        }
    }

    fn commit_state(&self) -> std::sync::MutexGuard<'_, CommitState> {
        // A panic while holding the state poisons the std mutex; the state
        // is plain counters, so the data is still usable.
        self.commit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record that everything appended so far is durable (after a direct
    /// fsync or a rewrite) and release any group-commit waiters.
    fn mark_all_synced(&self, appended_pos: u64) {
        let mut st = self.commit_state();
        st.synced_pos = st.synced_pos.max(appended_pos);
        st.leader_active = false;
        self.commit_cond.notify_all();
    }
}

/// The journal position a full sync corresponds to: the replica applies
/// the snapshot, then tails the stream from `last_seq` within `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplWatermark {
    /// Journal epoch the cursor belongs to (a rewrite bumps it and
    /// invalidates every outstanding cursor).
    pub epoch: u64,
    /// Highest global sequence number covered by the snapshot.
    pub last_seq: u64,
}

/// One poll of the replication stream (see [`ShardedAof::tail_since`]).
#[derive(Debug, Default)]
pub struct ReplTail {
    /// Records with sequence numbers strictly greater than the caller's
    /// cursor, in sequence order, gap-free.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Highest sequence number allocated so far (the primary's watermark —
    /// lets a replica compute its lag even when `records` is empty).
    pub last_seq: u64,
    /// The cursor is no longer serviceable from the backlog (evicted
    /// records, or a segment-set rewrite renumbered the journal). The
    /// replica must run a fresh full sync.
    pub lost: bool,
    /// A sequence number after the cursor was allocated but its record has
    /// not reached the backlog yet (an append still in flight). The caller
    /// should poll again shortly; a gap that never closes means a writer
    /// died mid-append and the replica should full-resync.
    pub gapped: bool,
}

/// The bounded in-memory replication backlog: recent journal records in
/// global-sequence order, shared by every segment (pushes happen after the
/// per-segment append, so two writers may arrive slightly out of order —
/// the insert keeps the deque sorted and [`ShardedAof::tail_since`] only
/// serves the gap-free prefix).
#[derive(Debug)]
struct BacklogInner {
    records: VecDeque<(u64, Vec<u8>)>,
    /// Lowest sequence still serviceable; anything older was evicted and
    /// forces a tailing replica into a full resync.
    start_seq: u64,
}

/// What a record carries in front of its payload in a segment:
/// `u32 length || global sequence (u64 LE)`, the length covering sequence
/// and payload.
const RECORD_HEADER: usize = 12;

/// A [`RecordBatch`] keeps its buffer from one append to the next, up to
/// this capacity: one oversized batch must not pin its size for good.
const RETAINED_BATCH_BYTES: usize = 64 << 10;

/// Records on their way into one segment, laid out in one buffer exactly
/// as the segment stores them, so that [`ShardedAof::append_batch`] hands
/// the device what was encoded, with no record copied in between. The
/// sequence numbers are stamped in by the append.
#[derive(Debug, Default)]
pub struct RecordBatch {
    framed: Vec<u8>,
    records: u64,
}

/// A position in a [`RecordBatch`] to [`RecordBatch::rewind`] to.
#[derive(Debug, Clone, Copy)]
pub struct BatchMark {
    bytes: usize,
    records: u64,
}

impl RecordBatch {
    /// Whether the batch holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Add the record whose payload `encode` appends to the buffer it is
    /// handed.
    pub fn push_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = self.framed.len();
        self.framed.extend_from_slice(&[0; RECORD_HEADER]);
        encode(&mut self.framed);
        let length = (self.framed.len() - start - 4) as u32;
        self.framed[start..start + 4].copy_from_slice(&length.to_le_bytes());
        self.records += 1;
    }

    /// Add a record that is already encoded.
    pub fn push(&mut self, record: &[u8]) {
        self.push_with(|framed| framed.extend_from_slice(record));
    }

    /// Where the batch ends now.
    #[must_use]
    pub fn mark(&self) -> BatchMark {
        BatchMark {
            bytes: self.framed.len(),
            records: self.records,
        }
    }

    /// Drop every record added since `mark` was taken.
    pub fn rewind(&mut self, mark: BatchMark) {
        self.framed.truncate(mark.bytes);
        self.records = mark.records;
    }

    /// Number the records from `first_seq` up, in place, and show each
    /// `(sequence, payload)` to `visit`.
    fn stamp(&mut self, first_seq: u64, mut visit: impl FnMut(u64, &[u8])) {
        let mut seq = first_seq;
        let mut rest = self.framed.as_mut_slice();
        while let Some((length, tail)) = rest.split_first_chunk_mut::<4>() {
            let (record, next) = tail.split_at_mut(u32::from_le_bytes(*length) as usize);
            record[..8].copy_from_slice(&seq.to_le_bytes());
            visit(seq, &record[8..]);
            seq += 1;
            rest = next;
        }
    }

    fn clear(&mut self) {
        self.records = 0;
        if self.framed.capacity() > RETAINED_BATCH_BYTES {
            self.framed = Vec::new();
        } else {
            self.framed.clear();
        }
    }
}

/// A durability ticket: the segment positions a writer must observe synced
/// before its command can be acknowledged. Only issued under
/// `FsyncPolicy::Always`; other policies settle durability inside the
/// append itself.
#[derive(Debug)]
pub struct Ticket {
    waits: Vec<(usize, u64)>,
}

/// Records recovered from an existing journal, still in the writer's
/// segment layout: `segments[i]` holds `(global sequence, command bytes)`
/// pairs in append order.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Per-writer-segment record streams.
    pub segments: Vec<Vec<(u64, Vec<u8>)>>,
    /// The shard-router seed the writer used.
    pub writer_seed: u64,
}

impl LoadedJournal {
    fn empty(segments: usize, writer_seed: u64) -> Self {
        LoadedJournal {
            segments: (0..segments).map(|_| Vec::new()).collect(),
            writer_seed,
        }
    }

    /// Whether the records must be rewritten once replayed: they were laid
    /// out for another shard count or router seed. Until the rewrite
    /// commits, the journal has nowhere to append.
    #[must_use]
    pub fn needs_rewrite(&self, router: &ShardRouter) -> bool {
        self.segments.len() != router.shard_count() || self.writer_seed != router.seed()
    }
}

/// The sharded append-only journal: one segment per shard, group-commit
/// durability, manifest-governed atomic rewrites.
#[derive(Debug)]
pub struct ShardedAof {
    segments: Vec<Segment>,
    backend: SegmentBackend,
    policy: FsyncPolicy,
    clock: SharedClock,
    shard_hash_seed: u64,
    /// Next global record sequence number.
    next_seq: AtomicU64,
    /// Current manifest epoch.
    epoch: AtomicU64,
    /// Recent records for replica tailing, in sequence order.
    backlog: Mutex<BacklogInner>,
    /// Maximum records retained in the backlog (0 disables tailing).
    backlog_cap: usize,
    /// Active replication streams. The backlog is only populated while
    /// this is non-zero, so the common no-replica case pays nothing on
    /// the append path (no global lock, no record copy).
    tailers: std::sync::atomic::AtomicUsize,
    /// How long writers block in [`ShardedAof::commit`] waiting for
    /// group-commit durability (only populated under per-write fsync).
    commit_wait: obs::AtomicHistogram,
}

impl ShardedAof {
    /// Open (or create) the journal for `config`, with one segment per
    /// shard of `router`. Returns `None` when persistence is disabled;
    /// otherwise the journal plus every record recovered from it, still in
    /// the writer's segment layout (see [`LoadedJournal`]). When the
    /// records [need a rewrite](LoadedJournal::needs_rewrite) — another
    /// shard layout — the caller must [`Self::rewrite`] before appending.
    ///
    /// Segments are loaded and decoded in parallel when there is more than
    /// one.
    ///
    /// # Errors
    ///
    /// Returns configuration, I/O, decryption or corruption errors. A file
    /// at the manifest path that is not a readable manifest (see the
    /// module docs) is [`StoreError::Corrupt`], naming the path and the bad
    /// magic or version; no file is deleted, renamed or written first.
    pub fn open(
        config: &StoreConfig,
        router: &ShardRouter,
    ) -> Result<Option<(ShardedAof, LoadedJournal)>> {
        let Some(backend) = SegmentBackend::from_config(config) else {
            return Ok(None);
        };
        let shard_count = router.shard_count();
        let clock = std::sync::Arc::clone(&config.clock);

        let fresh = |epoch: u64| -> Result<Vec<AofLog>> {
            (0..shard_count)
                .map(|idx| {
                    backend
                        .build_device(epoch, idx)
                        .map(|d| AofLog::new(d, config.fsync, std::sync::Arc::clone(&clock)))
                })
                .collect()
        };
        let (epoch, loaded, logs) = match &backend {
            SegmentBackend::Memory { .. } | SegmentBackend::Devices(_) => (
                1,
                LoadedJournal::empty(shard_count, router.seed()),
                fresh(1)?,
            ),
            SegmentBackend::File { manifest, .. } => match read_manifest(manifest)? {
                Some(man) => {
                    cleanup_stale_segments(manifest, Some(man.epoch));
                    let (segments, logs) = load_segments(&backend, &man, config.fsync, &clock)?;
                    if man.version < MANIFEST_VERSION {
                        write_manifest(
                            manifest,
                            &AofManifest {
                                version: MANIFEST_VERSION,
                                ..man.clone()
                            },
                        )?;
                    }
                    let loaded = LoadedJournal {
                        segments,
                        writer_seed: man.shard_hash_seed,
                    };
                    (man.epoch, loaded, logs)
                }
                None => {
                    // A fresh journal: an empty epoch-1 set, committed
                    // before anything is appended to it. Stale segment
                    // files of an interrupted earlier attempt go first.
                    cleanup_stale_segments(manifest, None);
                    let logs = fresh(1)?;
                    write_manifest(
                        manifest,
                        &AofManifest {
                            version: MANIFEST_VERSION,
                            epoch: 1,
                            shard_hash_seed: router.seed(),
                            record_counts: vec![0; shard_count],
                        },
                    )?;
                    (1, LoadedJournal::empty(shard_count, router.seed()), logs)
                }
            },
        };
        // A set laid out for another router is read but never appended
        // to: the opener replays it and rewrites it before any append, and
        // the rewrite swaps these placeholders for the segments it commits.
        let logs = if loaded.needs_rewrite(router) {
            let placeholder = || {
                let device: Box<dyn StorageDevice> = Box::new(MemoryDevice::new());
                AofLog::new(device, config.fsync, std::sync::Arc::clone(&clock))
            };
            (0..shard_count).map(|_| placeholder()).collect()
        } else {
            logs
        };

        let next_seq = loaded
            .segments
            .iter()
            .flat_map(|records| records.iter().map(|(seq, _)| *seq))
            .max()
            .unwrap_or(0)
            + 1;

        let aof = ShardedAof {
            segments: logs.into_iter().map(Segment::new).collect(),
            backend,
            policy: config.fsync,
            clock,
            shard_hash_seed: router.seed(),
            next_seq: AtomicU64::new(next_seq),
            epoch: AtomicU64::new(epoch),
            // Records recovered from disk are not tailable; a replica
            // attaching later full-syncs first and only tails from its
            // watermark, which is at or past this point.
            backlog: Mutex::new(BacklogInner {
                records: VecDeque::new(),
                start_seq: next_seq,
            }),
            backlog_cap: config.repl_backlog_records as usize,
            tailers: std::sync::atomic::AtomicUsize::new(0),
            commit_wait: obs::AtomicHistogram::new(),
        };
        Ok(Some((aof, loaded)))
    }

    /// Number of journal segments (always equals the shard count).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Current manifest epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The configured fsync policy.
    #[must_use]
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Append one record to `segment` (the owning shard's index). Must be
    /// called while holding that shard's lock so journal order matches
    /// apply order. Returns a durability ticket when the caller must
    /// [`Self::commit`] after releasing the shard lock (only under
    /// `always`); all other policies settle durability here.
    ///
    /// # Errors
    ///
    /// Propagates device I/O or encryption errors.
    pub fn append(&self, segment: usize, record: &[u8]) -> Result<Option<Ticket>> {
        let mut batch = RecordBatch::default();
        batch.push(record);
        self.append_batch(segment, &mut batch)
    }

    /// Append the records of `batch` to `segment` in one device append —
    /// one frame on a journal file, so the batch is crash-atomic — with
    /// one sequence number each and one ticket for all of them (a mutation
    /// bracket, a shard's expiry deletions and eviction victims are
    /// journaled this way). The batch comes back empty, its buffer kept
    /// for the next one. Same locking contract as [`Self::append`].
    ///
    /// # Errors
    ///
    /// Propagates device I/O or encryption errors.
    pub fn append_batch(&self, segment: usize, batch: &mut RecordBatch) -> Result<Option<Ticket>> {
        if batch.is_empty() {
            return Ok(None);
        }
        let first_seq = self.next_seq.fetch_add(batch.records, Ordering::Relaxed);
        let mirror = self.mirroring();
        let mut mirrored = Vec::new();
        batch.stamp(first_seq, |seq, record| {
            if mirror {
                mirrored.push((seq, record.to_vec()));
            }
        });
        let appended = self.append_framed(segment, &batch.framed, batch.records);
        batch.clear();
        let wait = appended?;
        for (seq, record) in mirrored {
            self.backlog_push_owned(seq, record);
        }
        Ok(wait.map(|pos| Ticket {
            waits: vec![(segment, pos)],
        }))
    }

    /// Append one record to **every** segment under a single global
    /// sequence number (keyspace-wide writes such as `FLUSHALL`). Must be
    /// called while holding every shard lock. Replay deduplicates the
    /// copies by sequence when merging segments.
    ///
    /// # Errors
    ///
    /// Propagates device I/O or encryption errors.
    pub fn append_broadcast(&self, record: &[u8]) -> Result<Option<Ticket>> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut batch = RecordBatch::default();
        batch.push(record);
        batch.stamp(seq, |_, _| {});
        let mut waits = Vec::new();
        for segment in 0..self.segments.len() {
            if let Some(pos) = self.append_framed(segment, &batch.framed, 1)? {
                waits.push((segment, pos));
            }
        }
        // One backlog copy for the whole broadcast: the stream replays it
        // once, the way merge-by-seq deduplicates the segment copies.
        if self.mirroring() {
            self.backlog_push_owned(seq, record.to_vec());
        }
        Ok(if waits.is_empty() {
            None
        } else {
            Some(Ticket { waits })
        })
    }

    /// One device append of `records` framed records, then the fsync
    /// policy: the position to wait on under group commit, `None` once
    /// durability is settled here.
    fn append_framed(&self, segment: usize, framed: &[u8], records: u64) -> Result<Option<u64>> {
        let seg = &self.segments[segment];
        let mut log = seg.log.lock();
        let pos = log.append_framed_unsynced(framed, records)?;
        match self.policy {
            FsyncPolicy::Always => Ok(Some(pos)),
            FsyncPolicy::EverySec => {
                log.maybe_fsync()?;
                Ok(None)
            }
            FsyncPolicy::Never => Ok(None),
        }
    }

    /// Whether replica tailing is possible at all (`repl_backlog_records`
    /// was non-zero).
    #[must_use]
    pub fn tailing_enabled(&self) -> bool {
        self.backlog_cap > 0
    }

    /// Register a replication stream. While at least one stream is
    /// registered, every append is mirrored into the backlog; the first
    /// registration resets the backlog to start at the current sequence
    /// (in-flight appends that raced the registration are excluded, but a
    /// stream's cursor starts at a watermark taken *after* registration
    /// under every shard lock, which is past them by construction).
    pub fn begin_tailing(&self) {
        if self.tailers.fetch_add(1, Ordering::SeqCst) == 0 {
            let mut inner = self.backlog.lock();
            inner.records.clear();
            inner.start_seq = self.next_seq.load(Ordering::SeqCst);
        }
    }

    /// Deregister a replication stream; the last one out drops the
    /// backlog so an idle primary retains nothing.
    pub fn end_tailing(&self) {
        if self.tailers.fetch_sub(1, Ordering::SeqCst) == 1 {
            let mut inner = self.backlog.lock();
            inner.records.clear();
            inner.start_seq = self.next_seq.load(Ordering::SeqCst);
        }
    }

    /// Whether appends are mirrored into the backlog right now (tailing is
    /// configured and at least one stream is registered).
    fn mirroring(&self) -> bool {
        self.backlog_cap > 0 && self.tailers.load(Ordering::SeqCst) > 0
    }

    fn backlog_push_owned(&self, seq: u64, record: Vec<u8>) {
        if !self.mirroring() {
            return;
        }
        let mut inner = self.backlog.lock();
        // Sequence numbers are allocated under shard locks but pushed after
        // the segment append, so two writers can arrive inverted; keep the
        // deque sorted (inversions are rare and land near the back).
        let pos = inner.records.partition_point(|(s, _)| *s < seq);
        if pos == inner.records.len() {
            inner.records.push_back((seq, record));
        } else {
            inner.records.insert(pos, (seq, record));
        }
        while inner.records.len() > self.backlog_cap {
            if let Some((evicted, _)) = inner.records.pop_front() {
                inner.start_seq = inner.start_seq.max(evicted + 1);
            }
        }
    }

    /// Highest global sequence number allocated so far (0 when nothing was
    /// ever journaled).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Poll the replication stream: every record with a sequence number
    /// strictly greater than `after_seq`, in order and gap-free, up to
    /// `max` records. `epoch` is the journal epoch the caller's cursor
    /// belongs to — a segment-set rewrite renumbers the journal (and bumps
    /// the epoch), which invalidates all outstanding cursors.
    #[must_use]
    pub fn tail_since(&self, epoch: u64, after_seq: u64, max: usize) -> ReplTail {
        let mut tail = ReplTail {
            last_seq: self.last_seq(),
            ..ReplTail::default()
        };
        if epoch != self.epoch.load(Ordering::Relaxed) {
            tail.lost = true;
            return tail;
        }
        if self.backlog_cap == 0 && after_seq < tail.last_seq {
            tail.lost = true;
            return tail;
        }
        let inner = self.backlog.lock();
        if after_seq + 1 < inner.start_seq {
            tail.lost = true;
            return tail;
        }
        let start = inner.records.partition_point(|(s, _)| *s <= after_seq);
        for (expected, (seq, record)) in (after_seq + 1..).zip(inner.records.iter().skip(start)) {
            if *seq != expected || tail.records.len() >= max {
                break;
            }
            tail.records.push((*seq, record.clone()));
        }
        // If we stopped short of the watermark without hitting `max`, the
        // next record after the served prefix is allocated but not pushed
        // yet — an append still in flight.
        let served_upto = after_seq + tail.records.len() as u64;
        tail.gapped = tail.records.len() < max && served_upto < tail.last_seq;
        tail
    }

    /// Block until every position in `ticket` is durable, joining (or
    /// leading) a group commit per segment. Call **after** releasing the
    /// shard lock, so other writers can append into the batch the leader's
    /// fsync will cover.
    ///
    /// # Errors
    ///
    /// Propagates the leader's fsync error to the caller that led.
    pub fn commit(&self, ticket: Ticket) -> Result<()> {
        let waited = std::time::Instant::now();
        for (segment, pos) in ticket.waits {
            self.commit_segment(segment, pos)?;
        }
        self.commit_wait.record(waited.elapsed());
        Ok(())
    }

    /// Snapshot of the group-commit wait histogram (see `commit`).
    #[must_use]
    pub fn commit_wait_snapshot(&self) -> obs::LatencyHistogram {
        self.commit_wait.snapshot()
    }

    fn commit_segment(&self, segment: usize, pos: u64) -> Result<()> {
        let seg = &self.segments[segment];
        let mut st = seg.commit_state();
        loop {
            if st.synced_pos >= pos {
                return Ok(());
            }
            if st.leader_active {
                // Follower: wait for the leader's broadcast, bounded so a
                // lost wakeup or a died leader cannot strand us — on
                // timeout we re-check and may take over as leader.
                let (guard, _timeout) = seg
                    .commit_cond
                    .wait_timeout(st, FOLLOWER_WAIT)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = guard;
                continue;
            }
            // Leader: fsync once on behalf of everything appended so far.
            st.leader_active = true;
            drop(st);
            let synced_upto = {
                let mut log = seg.log.lock();
                let upto = log.appended_pos();
                log.fsync().map(|()| upto)
            };
            st = seg.commit_state();
            st.leader_active = false;
            match synced_upto {
                Ok(upto) => {
                    let batch = upto.saturating_sub(st.synced_pos);
                    st.synced_pos = st.synced_pos.max(upto);
                    st.group_commits += 1;
                    st.group_commit_records += batch;
                    st.max_batch = st.max_batch.max(batch);
                    seg.commit_cond.notify_all();
                }
                Err(e) => {
                    // Let the waiters retry with their own leader; this
                    // writer reports the failure.
                    seg.commit_cond.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Force an fsync of every segment regardless of policy.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn fsync_all(&self) -> Result<()> {
        for seg in &self.segments {
            let mut log = seg.log.lock();
            let pos = log.appended_pos();
            log.fsync()?;
            drop(log);
            seg.mark_all_synced(pos);
        }
        Ok(())
    }

    /// Service each segment's fsync timer (the `everysec` policy), whether
    /// or not this tick appended anything to that segment. Idle segments
    /// with nothing unsynced are skipped.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn maybe_fsync_all(&self) -> Result<()> {
        for seg in &self.segments {
            let mut log = seg.log.lock();
            if log.unsynced_records() > 0 {
                log.maybe_fsync()?;
                let pos = log.appended_pos();
                if log.unsynced_records() == 0 {
                    drop(log);
                    seg.mark_all_synced(pos);
                }
            }
        }
        Ok(())
    }

    /// Rewrite (compact) the whole segment set so segment `i` contains
    /// exactly `per_segment[i]`, swapping the set atomically through the
    /// manifest. The caller must hold every shard lock (the rewritten set
    /// is a consistent point-in-time image). Returns the records dropped.
    ///
    /// File persistence stages the new epoch's files completely (content
    /// written and fsynced) before the manifest rename commits them; a
    /// crash anywhere before the rename leaves the old segment set in
    /// effect.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn rewrite(&self, per_segment: &[Vec<Vec<u8>>]) -> Result<u64> {
        assert_eq!(
            per_segment.len(),
            self.segments.len(),
            "rewrite must supply one record stream per segment"
        );
        let mut next_seq = 0u64;
        let mut framed_segments = Vec::with_capacity(per_segment.len());
        for records in per_segment {
            let framed: Vec<Vec<u8>> = records
                .iter()
                .map(|r| {
                    next_seq += 1;
                    frame(next_seq, r)
                })
                .collect();
            framed_segments.push(framed);
        }

        let mut dropped = 0u64;
        match &self.backend {
            SegmentBackend::Memory { .. } | SegmentBackend::Devices(_) => {
                for (seg, framed) in self.segments.iter().zip(&framed_segments) {
                    let mut log = seg.log.lock();
                    dropped += log.rewrite(framed.iter().map(Vec::as_slice))?;
                    let pos = log.appended_pos();
                    drop(log);
                    seg.mark_all_synced(pos);
                }
                self.epoch.fetch_add(1, Ordering::Relaxed);
            }
            SegmentBackend::File { manifest, .. } => {
                let old_epoch = self.epoch.load(Ordering::Relaxed);
                let new_epoch = old_epoch + 1;
                // Stage: write every new segment fully (rewrite syncs).
                let mut staged = Vec::with_capacity(framed_segments.len());
                for (idx, framed) in framed_segments.iter().enumerate() {
                    // A stale file from an interrupted earlier swap must
                    // not leak old records into the new epoch.
                    let _ = std::fs::remove_file(segment_path(manifest, new_epoch, idx));
                    let device = self.backend.build_device(new_epoch, idx)?;
                    let mut scratch =
                        AofLog::new(device, self.policy, std::sync::Arc::clone(&self.clock));
                    scratch.rewrite(framed.iter().map(Vec::as_slice))?;
                    staged.push(scratch.into_device());
                }
                // Commit: the manifest rename is the atomic switch point.
                write_manifest(
                    manifest,
                    &AofManifest {
                        version: MANIFEST_VERSION,
                        epoch: new_epoch,
                        shard_hash_seed: self.shard_hash_seed,
                        record_counts: framed_segments.iter().map(|f| f.len() as u64).collect(),
                    },
                )?;
                self.epoch.store(new_epoch, Ordering::Relaxed);
                // Swap the live logs onto the new devices and retire the
                // old epoch's files.
                for ((seg, device), framed) in
                    self.segments.iter().zip(staged).zip(&framed_segments)
                {
                    let mut log = seg.log.lock();
                    let before = log.stats().records_compacted_away;
                    log.swap_rewritten(device, framed.len() as u64);
                    dropped += log.stats().records_compacted_away - before;
                    let pos = log.appended_pos();
                    drop(log);
                    seg.mark_all_synced(pos);
                }
                cleanup_stale_segments(manifest, Some(new_epoch));
            }
        }
        self.next_seq.store(next_seq + 1, Ordering::Relaxed);
        // The rewrite renumbered every record, so outstanding replication
        // cursors are meaningless: drop the backlog. Tailing replicas see
        // the epoch bump and run a fresh full sync.
        {
            let mut inner = self.backlog.lock();
            inner.records.clear();
            inner.start_seq = next_seq + 1;
        }
        Ok(dropped)
    }

    /// Show `visit` every record past sequence `after` whose payload
    /// `keep` accepts, as `(sequence, payload)`, across the segments in
    /// sequence order, a broadcast record once. With several segments each
    /// is read by a thread of its own, at most [`WALK_READ_AHEAD`] records
    /// ahead of the merge, so the walk holds that many records per segment
    /// in memory, not the journal. The caller holds every shard lock, so no
    /// append lands meanwhile.
    ///
    /// # Errors
    ///
    /// Device and decoding errors, and whatever `visit` returns; either
    /// ends the walk, after which `visit` has seen a prefix of the records
    /// in sequence order.
    pub fn for_each_record_after(
        &self,
        after: u64,
        keep: impl Fn(&[u8]) -> bool + Sync,
        mut visit: impl FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<()> {
        if let [only] = self.segments.as_slice() {
            return only.log.lock().for_each_record(|record| {
                let (seq, payload) = split_frame(record)?;
                if seq > after && keep(payload) {
                    visit(seq, payload)?;
                }
                Ok(())
            });
        }
        std::thread::scope(|scope| {
            let keep = &keep;
            let mut readers: Vec<_> = self
                .segments
                .iter()
                .map(|seg| {
                    let (tx, rx) = std::sync::mpsc::sync_channel(WALK_READ_AHEAD);
                    let reader = scope.spawn(move || {
                        seg.log.lock().for_each_record(|record| {
                            let (seq, payload) = split_frame(record)?;
                            if seq > after && keep(payload) {
                                // A closed channel: the walk ended early.
                                tx.send((seq, payload.to_vec())).map_err(|_| {
                                    StoreError::Io(std::io::Error::other("journal walk ended"))
                                })?;
                            }
                            Ok(())
                        })
                    });
                    (rx, Some(reader))
                })
                .collect();
            // The next record of segment `i`; at its end, its reader's
            // error, before any later record is visited.
            let mut next = |i: usize| -> Result<Option<(u64, Vec<u8>)>> {
                let (rx, reader) = &mut readers[i];
                match rx.recv() {
                    Ok(record) => Ok(Some(record)),
                    Err(_) => {
                        if let Some(reader) = reader.take() {
                            reader.join().expect("journal reader panicked")?;
                        }
                        Ok(None)
                    }
                }
            };
            let mut heads = Vec::with_capacity(self.segments.len());
            for i in 0..self.segments.len() {
                heads.push(next(i)?);
            }
            let mut last = None;
            loop {
                let lowest = heads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, head)| Some((head.as_ref()?.0, i)))
                    .min();
                let Some((seq, i)) = lowest else {
                    return Ok(());
                };
                let (_, payload) = heads[i].take().expect("the lowest head is there");
                if last != Some(seq) {
                    visit(seq, &payload)?;
                    last = Some(seq);
                }
                heads[i] = next(i)?;
            }
        })
    }

    /// Per-segment activity counters (group-commit numbers merged in).
    #[must_use]
    pub fn segment_stats(&self) -> Vec<AofStats> {
        self.segments
            .iter()
            .map(|seg| {
                let mut stats = seg.log.lock().stats();
                let st = seg.commit_state();
                stats.group_commits = st.group_commits;
                stats.group_commit_records = st.group_commit_records;
                stats.max_group_commit_batch = st.max_batch;
                stats
            })
            .collect()
    }

    /// Aggregate counters over all segments.
    #[must_use]
    pub fn stats(&self) -> AofStats {
        let mut total = AofStats::default();
        for stats in self.segment_stats() {
            total.absorb(&stats);
        }
        total
    }

    /// Records appended but not yet fsynced, summed over segments — the
    /// paper's crash-loss "risk window".
    #[must_use]
    pub fn unsynced_records(&self) -> u64 {
        self.segments
            .iter()
            .map(|seg| seg.log.lock().unsynced_records())
            .sum()
    }

    /// Bytes currently occupied on all segment devices.
    #[must_use]
    pub fn device_len(&self) -> u64 {
        self.segments
            .iter()
            .map(|seg| seg.log.lock().device_len())
            .sum()
    }

    /// Device counters summed over all segments (physical vs logical bytes
    /// expose the encrypting device's overhead).
    #[must_use]
    pub fn device_stats(&self) -> crate::device::DeviceStats {
        let mut total = crate::device::DeviceStats::default();
        for seg in &self.segments {
            let stats = seg.log.lock().device_stats();
            total.appends += stats.appends;
            total.bytes_written += stats.bytes_written;
            total.bytes_on_device += stats.bytes_on_device;
            total.syncs += stats.syncs;
        }
        total
    }
}

/// Frame a record for a segment: `global sequence (u64 LE) || payload`.
fn frame(seq: u64, record: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(8 + record.len());
    framed.extend_from_slice(&seq.to_le_bytes());
    framed.extend_from_slice(record);
    framed
}

/// Split a stored segment record back into `(sequence, payload)`.
fn unframe(record: &[u8]) -> Result<(u64, Vec<u8>)> {
    split_frame(record).map(|(seq, payload)| (seq, payload.to_vec()))
}

/// [`unframe`], borrowing the payload.
fn split_frame(record: &[u8]) -> Result<(u64, &[u8])> {
    let Some((seq, payload)) = record.split_first_chunk::<8>() else {
        return Err(StoreError::Corrupt {
            context: "aof segment",
            detail: format!("record of {} bytes cannot hold a sequence", record.len()),
        });
    };
    Ok((u64::from_le_bytes(*seq), payload))
}

/// Read and parse the manifest, `Ok(None)` when there is no file at
/// `path`. Any file there that does not decode — bad magic, empty,
/// truncated, another version — is an error naming `path`.
fn read_manifest(path: &Path) -> Result<Option<AofManifest>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    AofManifest::decode(&bytes).map(Some).map_err(|e| match e {
        StoreError::Corrupt { context, detail } => StoreError::Corrupt {
            context,
            detail: format!("{}: {detail}", path.display()),
        },
        other => other,
    })
}

/// Persist the manifest via write-to-temp + rename (the atomic switch the
/// segment-set swap relies on).
fn write_manifest(path: &Path, manifest: &AofManifest) -> Result<()> {
    let tmp = path.with_extension("manifest.tmp");
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&manifest.encode())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Remove segment files that do not belong to `keep_epoch` (all of them
/// when `None`) — leftovers of an interrupted segment-set swap or of an
/// interrupted fresh start. Best-effort: cleanup failures are not fatal.
fn cleanup_stale_segments(manifest: &Path, keep_epoch: Option<u64>) {
    let Some(parent) = manifest.parent() else {
        return;
    };
    let Some(base) = manifest
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
    else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    }) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(suffix) = name.strip_prefix(&base) else {
            continue;
        };
        let Some(rest) = suffix.strip_prefix(".e") else {
            continue;
        };
        let Some((epoch_str, seg)) = rest.split_once(".s") else {
            continue;
        };
        let (Ok(epoch), Ok(_idx)) = (epoch_str.parse::<u64>(), seg.parse::<u64>()) else {
            continue;
        };
        if keep_epoch != Some(epoch) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Open a journal file: encrypted frames with a passphrase, checksummed
/// frames without.
fn open_journal_file(path: &Path, passphrase: Option<&[u8]>) -> Result<Box<dyn StorageDevice>> {
    let file = PlainFileDevice::open(path)?;
    Ok(match passphrase {
        Some(pw) => Box::new(EncryptedFileDevice::new(file, pw)?),
        None => Box::new(ChecksummedDevice::new(file)?),
    })
}

/// Open and load every segment `manifest` names, in parallel when there is
/// more than one. Returns the parsed `(sequence, payload)` streams and the
/// live `AofLog` handles (positioned to append).
#[allow(clippy::type_complexity)]
fn load_segments(
    backend: &SegmentBackend,
    manifest: &AofManifest,
    policy: FsyncPolicy,
    clock: &SharedClock,
) -> Result<(Vec<Vec<(u64, Vec<u8>)>>, Vec<AofLog>)> {
    let count = manifest.record_counts.len();
    let load_one = |idx: usize| -> Result<(Vec<(u64, Vec<u8>)>, AofLog)> {
        let device = backend.build_device(manifest.epoch, idx)?;
        let mut log = AofLog::new(device, policy, std::sync::Arc::clone(clock));
        let mut records = Vec::new();
        for raw in log.load()? {
            records.push(unframe(&raw)?);
        }
        Ok((records, log))
    };

    let results: Vec<Result<(Vec<(u64, Vec<u8>)>, AofLog)>> = if count > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..count)
                .map(|idx| scope.spawn(move || load_one(idx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("segment load thread panicked"))
                .collect()
        })
    } else {
        (0..count).map(load_one).collect()
    };

    let mut loaded = Vec::with_capacity(count);
    let mut logs = Vec::with_capacity(count);
    for result in results {
        let (records, log) = result?;
        loaded.push(records);
        logs.push(log);
    }
    Ok((loaded, logs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::commands::Command;
    use std::sync::Arc;

    fn test_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kvstore-shardedaof-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_config(path: &Path, shards: usize, policy: FsyncPolicy) -> StoreConfig {
        StoreConfig::with_aof(path).shards(shards).fsync(policy)
    }

    #[test]
    fn manifest_roundtrip() {
        let man = AofManifest {
            version: MANIFEST_VERSION,
            epoch: 7,
            shard_hash_seed: 0xdead_beef,
            record_counts: vec![3, 0, 12, 5],
        };
        let decoded = AofManifest::decode(&man.encode()).unwrap();
        assert_eq!(decoded, man);
        assert!(AofManifest::decode(b"NOTMAGIC").is_err());
        let older = AofManifest {
            version: 2,
            ..man.clone()
        };
        let err = AofManifest::decode(&older.encode()).unwrap_err();
        assert!(err.to_string().contains("manifest version 2"), "{err}");
        let mut trailing = man.encode();
        trailing.push(9);
        assert!(AofManifest::decode(&trailing).is_err());
    }

    #[test]
    fn open_fresh_append_reload() {
        let dir = test_dir("fresh");
        let path = dir.join("j.aof");
        let config = file_config(&path, 4, FsyncPolicy::Never);
        let router = ShardRouter::new(4, config.shard_hash_seed);
        {
            let (aof, loaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
            assert_eq!(aof.segment_count(), 4);
            assert_eq!(aof.epoch(), 1);
            assert!(loaded.segments.iter().all(Vec::is_empty));
            assert!(aof.append(2, b"alpha").unwrap().is_none());
            assert!(aof.append(0, b"beta").unwrap().is_none());
            aof.fsync_all().unwrap();
        }
        let (aof, loaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
        assert_eq!(loaded.segments[2], vec![(1u64, b"alpha".to_vec())]);
        assert_eq!(loaded.segments[0], vec![(2u64, b"beta".to_vec())]);
        assert_eq!(loaded.writer_seed, config.shard_hash_seed);
        // Sequence allocation resumes past everything recovered.
        assert!(aof.append(1, b"gamma").unwrap().is_none());
        aof.fsync_all().unwrap();
        let (_aof, reloaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
        assert_eq!(reloaded.segments[1], vec![(3u64, b"gamma".to_vec())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broadcast_shares_one_sequence() {
        let dir = test_dir("broadcast");
        let path = dir.join("j.aof");
        let config = file_config(&path, 4, FsyncPolicy::Never);
        let router = ShardRouter::new(4, config.shard_hash_seed);
        {
            let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
            let record = Command::FlushAll.encode();
            assert!(aof.append_broadcast(&record).unwrap().is_none());
            aof.fsync_all().unwrap();
        }
        let (_aof, loaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
        let seqs: Vec<u64> = loaded.segments.iter().map(|records| records[0].0).collect();
        assert_eq!(seqs, vec![1, 1, 1, 1], "one sequence, every segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_coalesces_concurrent_always_writers() {
        let dir = test_dir("groupcommit");
        let path = dir.join("j.aof");
        let config = file_config(&path, 1, FsyncPolicy::Always);
        let router = ShardRouter::new(1, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        let aof = Arc::new(aof);
        let threads = 8;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let aof = Arc::clone(&aof);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let record = format!("t{t}i{i}");
                        let ticket = aof.append(0, record.as_bytes()).unwrap().unwrap();
                        aof.commit(ticket).unwrap();
                    }
                });
            }
        });
        let stats = aof.stats();
        assert_eq!(stats.records_appended, (threads * per_thread) as u64);
        assert_eq!(stats.unsynced_records, 0, "every commit returned durable");
        assert!(stats.group_commits > 0);
        assert_eq!(
            stats.group_commit_records,
            (threads * per_thread) as u64,
            "every record was covered by exactly one group commit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn everysec_serviced_by_maybe_fsync_all() {
        let clock = SimClock::new(0);
        let config = StoreConfig::in_memory()
            .aof_in_memory()
            .shards(4)
            .fsync(FsyncPolicy::EverySec)
            .clock(clock.clone());
        let router = ShardRouter::new(4, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        for segment in 0..4 {
            aof.append(segment, b"r").unwrap();
        }
        assert_eq!(aof.unsynced_records(), 4);
        clock.advance_millis(1_001);
        // No appends this tick — the timer alone must flush every segment.
        aof.maybe_fsync_all().unwrap();
        assert_eq!(aof.unsynced_records(), 0);
        assert_eq!(aof.stats().fsyncs, 4);
    }

    #[test]
    fn rewrite_swaps_the_segment_set_atomically() {
        let dir = test_dir("rewrite");
        let path = dir.join("j.aof");
        let config = file_config(&path, 2, FsyncPolicy::Never);
        let router = ShardRouter::new(2, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        for i in 0..10u8 {
            aof.append((i % 2) as usize, &[i]).unwrap();
        }
        let dropped = aof
            .rewrite(&[vec![b"keep0".to_vec()], vec![b"keep1".to_vec()]])
            .unwrap();
        assert_eq!(dropped, 8, "10 live records compacted down to 2");
        assert_eq!(aof.epoch(), 2);
        assert!(segment_path(&path, 2, 0).exists());
        assert!(segment_path(&path, 2, 1).exists());
        assert!(
            !segment_path(&path, 1, 0).exists(),
            "old epoch files retired"
        );
        // Reload sees exactly the rewritten records.
        drop(aof);
        let (aof, loaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
        assert_eq!(loaded.segments[0], vec![(1u64, b"keep0".to_vec())]);
        assert_eq!(loaded.segments[1], vec![(2u64, b"keep1".to_vec())]);
        // And appends after a reload continue the sequence without clashes.
        aof.append(0, b"later").unwrap();
        aof.fsync_all().unwrap();
        let (_aof, reloaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
        assert_eq!(
            reloaded.segments[0].last().unwrap(),
            &(3u64, b"later".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_swap_keeps_the_old_segment_set() {
        let dir = test_dir("torn");
        let path = dir.join("j.aof");
        let config = file_config(&path, 2, FsyncPolicy::Never);
        let router = ShardRouter::new(2, config.shard_hash_seed);
        {
            let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
            aof.append(0, b"committed").unwrap();
            aof.fsync_all().unwrap();
        }
        // Simulate a crash mid-swap: epoch-2 segment files were staged but
        // the manifest rename never happened.
        std::fs::write(segment_path(&path, 2, 0), b"torn garbage").unwrap();
        std::fs::write(segment_path(&path, 2, 1), b"torn garbage").unwrap();
        let (aof, loaded) = ShardedAof::open(&config, &router).unwrap().unwrap();
        assert_eq!(aof.epoch(), 1, "old manifest still authoritative");
        assert_eq!(loaded.segments[0], vec![(1u64, b"committed".to_vec())]);
        assert!(
            !segment_path(&path, 2, 0).exists(),
            "staged files of the torn swap are cleaned up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_serves_the_live_stream_in_sequence_order() {
        let config = StoreConfig::in_memory().aof_in_memory().shards(4);
        let router = ShardRouter::new(4, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        aof.begin_tailing();
        let epoch = aof.epoch();
        // Writes land on different segments but the stream is one ordered
        // sequence.
        aof.append(2, b"a").unwrap();
        aof.append(0, b"b").unwrap();
        aof.append(3, b"c").unwrap();
        let tail = aof.tail_since(epoch, 0, 16);
        assert!(!tail.lost && !tail.gapped);
        assert_eq!(
            tail.records,
            vec![(1, b"a".to_vec()), (2, b"b".to_vec()), (3, b"c".to_vec())]
        );
        assert_eq!(tail.last_seq, 3);
        // Cursor advance: only newer records are served.
        let tail = aof.tail_since(epoch, 2, 16);
        assert_eq!(tail.records, vec![(3, b"c".to_vec())]);
        // Broadcasts appear once in the stream despite N segment copies.
        aof.append_broadcast(b"flush").unwrap();
        let tail = aof.tail_since(epoch, 3, 16);
        assert_eq!(tail.records, vec![(4, b"flush".to_vec())]);
        // `max` bounds a poll; the next poll resumes.
        let tail = aof.tail_since(epoch, 0, 2);
        assert_eq!(tail.records.len(), 2);
        assert!(!tail.gapped, "stopping at max is not a gap");
    }

    #[test]
    fn backlog_is_only_populated_while_a_stream_is_registered() {
        let config = StoreConfig::in_memory().aof_in_memory().shards(1);
        let router = ShardRouter::new(1, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        // No registered stream: appends are journaled but not mirrored
        // (the no-replica hot path pays no backlog cost).
        for i in 0..5u8 {
            aof.append(0, &[i]).unwrap();
        }
        assert!(aof.backlog.lock().records.is_empty());
        // Registration starts mirroring from the current sequence on.
        aof.begin_tailing();
        aof.append(0, b"live").unwrap();
        let tail = aof.tail_since(aof.epoch(), 5, 16);
        assert!(!tail.lost);
        assert_eq!(tail.records, vec![(6, b"live".to_vec())]);
        // The last stream out drops the backlog again.
        aof.end_tailing();
        assert!(aof.backlog.lock().records.is_empty());
        aof.append(0, b"idle").unwrap();
        assert!(aof.backlog.lock().records.is_empty());
    }

    #[test]
    fn tail_detects_overrun_and_rewrite_invalidation() {
        let config = StoreConfig::in_memory()
            .aof_in_memory()
            .repl_backlog(4)
            .shards(1);
        let router = ShardRouter::new(1, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        aof.begin_tailing();
        let epoch = aof.epoch();
        for i in 0..10u8 {
            aof.append(0, &[i]).unwrap();
        }
        // Only the 4 newest records are retained: a cursor inside the
        // retained window still works, an older one is lost.
        let tail = aof.tail_since(epoch, 6, 16);
        assert!(!tail.lost);
        assert_eq!(tail.records.len(), 4);
        let tail = aof.tail_since(epoch, 2, 16);
        assert!(tail.lost, "evicted cursor must force a resync");
        // A wrong-epoch cursor (journal rewritten) is lost too.
        let tail = aof.tail_since(epoch + 1, 9, 16);
        assert!(tail.lost);
        // A real rewrite renumbers the stream and drops the backlog.
        aof.rewrite(&[vec![b"only".to_vec()]]).unwrap();
        let tail = aof.tail_since(epoch, 9, 16);
        assert!(tail.lost, "pre-rewrite cursors are invalid");
        let tail = aof.tail_since(aof.epoch(), aof.last_seq(), 16);
        assert!(!tail.lost, "a fresh post-rewrite cursor works");
        assert!(tail.records.is_empty());
    }

    #[test]
    fn tail_under_concurrent_writers_is_gap_free_and_complete() {
        let config = StoreConfig::in_memory().aof_in_memory().shards(4);
        let router = ShardRouter::new(4, config.shard_hash_seed);
        let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
        aof.begin_tailing();
        let aof = Arc::new(aof);
        let epoch = aof.epoch();
        let total = 4 * 200u64;
        let collector = {
            let aof = Arc::clone(&aof);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut cursor = 0u64;
                while (seen.len() as u64) < total {
                    let tail = aof.tail_since(epoch, cursor, 64);
                    assert!(!tail.lost);
                    for (seq, _) in tail.records {
                        assert_eq!(seq, cursor + 1, "stream must be dense");
                        cursor = seq;
                        seen.push(seq);
                    }
                    std::thread::yield_now();
                }
                seen
            })
        };
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let aof = Arc::clone(&aof);
                scope.spawn(move || {
                    for i in 0..200 {
                        aof.append(t, format!("t{t}i{i}").as_bytes()).unwrap();
                    }
                });
            }
        });
        let seen = collector.join().unwrap();
        assert_eq!(seen.len() as u64, total);
        assert_eq!(*seen.last().unwrap(), total);
    }

    #[test]
    fn corrupt_segment_record_is_detected() {
        let dir = test_dir("corrupt");
        let path = dir.join("j.aof");
        let config = file_config(&path, 1, FsyncPolicy::Never);
        let router = ShardRouter::new(1, config.shard_hash_seed);
        {
            let (aof, _) = ShardedAof::open(&config, &router).unwrap().unwrap();
            aof.append(0, b"fine").unwrap();
            aof.fsync_all().unwrap();
        }
        // A record too short to hold its sequence header, in a frame that
        // is whole.
        {
            let file = PlainFileDevice::open(segment_path(&path, 1, 0)).unwrap();
            let mut log = AofLog::new(
                Box::new(ChecksummedDevice::new(file).unwrap()),
                FsyncPolicy::Never,
                Arc::new(SimClock::new(0)),
            );
            log.append(b"xy").unwrap();
            log.fsync().unwrap();
        }
        assert!(ShardedAof::open(&config, &router).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
