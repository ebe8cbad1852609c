//! [`GdprStore`]: the compliant store façade.
//!
//! Every operation runs the same pipeline — the one the paper's modified
//! Redis spreads across its §4.1–§4.3 changes — and each stage exists
//! exactly once in this file:
//!
//! 1. **authorize** — `authorize_write` (location policy, Article 46 →
//!    access control, Articles 25/32 → the writer's purpose is whitelisted,
//!    Article 5) or `authorize_read` (access control → purpose limitation
//!    and objections, Articles 5/21). Every refusal goes through `deny`:
//!    one `denied_ops` increment and one `Denied` audit record.
//! 2. **bracket** — the engine work under the key's index-segment lock:
//!    `install` for writes, `purge` for removals (Articles 5(e)/13/17),
//!    keeping the metadata indexes in step so subject rights are answered
//!    without scanning (Articles 15/17/20/21). A key's value and its
//!    encoded metadata are one engine entry, written by one record (a
//!    put's `SETGOVERNED`, a re-stamp's `GOVERN`) and read, expired,
//!    evicted and deleted together; the records a bracket writes — with
//!    the retention deadline — go to the engine as one batch: one journal
//!    frame, one durability wait, and after a crash all of it or none.
//! 3. **record** — `complete`: one `allowed_ops` increment and one audit
//!    record (monitoring, Articles 30/33/34). Under real-time compliance
//!    either outcome's record is durable before the call returns: it is an
//!    `EVIDENCE` record in the engine journal, committed in the bracket's
//!    own batch (`attest`: the mutation and its evidence are one frame and
//!    one group-commit wait) or, for reads, denials and keyless requests,
//!    alone on the key's shard (shard 0 without a key). The chained text
//!    trail is an archive copied from the journal behind those commits:
//!    before a rewrite drops frames, at a clean close, and on
//!    [`GdprStore::flush_audit`]. An operation that returns `Err` has
//!    committed nothing — except a journal scrub that fails after its
//!    delete or erasure committed (and was recorded), and an erasure
//!    request that fails part way, whose record says how far it got.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use audit::log::AuditLog;
use audit::policy::FlushPolicy;
use audit::record::{AuditEvent, Detail, Operation, Outcome};
use audit::sink::{AuditSink, MemorySink};
use kvstore::aof::FsyncPolicy;
use kvstore::clock::SharedClock;
use kvstore::commands::{Command, Reply};
use kvstore::config::{Persistence, StoreConfig};
use kvstore::db::RemovalCause;
use kvstore::expire::CycleOutcome;
use kvstore::object::Bytes;
use kvstore::store::{Archiver, KeyRead, KvStore, ValuePart};
use parking_lot::RwLock;

use crate::acl::{AccessController, AccessDecision, Grant};
use crate::audit_pipeline::AuditPipeline;
use crate::hot_cache::{HotCache, HotCacheConfig, HotCacheStats, HotEntry, Probe};
use crate::index::{MetadataIndex, ShardedMetadataIndex};
use crate::location::LocationInventory;
use crate::metadata::{MetaView, PersonalMetadata};
use crate::policy::CompliancePolicy;
use crate::{GdprError, Result};

/// Who is asking, and why — attached to every operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessContext {
    /// The acting entity (application, service, processor).
    pub actor: String,
    /// The declared processing purpose.
    pub purpose: String,
}

impl AccessContext {
    /// Build a context.
    #[must_use]
    pub fn new(actor: &str, purpose: &str) -> Self {
        AccessContext {
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        }
    }
}

/// Counters specific to the compliance layer (the engine keeps its own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GdprStats {
    /// Operations admitted by the compliance checks.
    pub allowed_ops: u64,
    /// Operations rejected (access, purpose or location violations).
    pub denied_ops: u64,
    /// Audit records emitted.
    pub audit_records: u64,
    /// Keys erased through the right to be forgotten.
    pub erased_by_request: u64,
    /// Keys erased because their retention period elapsed.
    pub erased_by_retention: u64,
    /// Reads served from the TinyLFU hot tier.
    pub cache_hits: u64,
    /// Reads that went through the full compliance pipeline.
    pub cache_misses: u64,
    /// Hot-tier admissions.
    pub cache_admissions: u64,
    /// Hot-tier entries dropped by mutation-bracket invalidation.
    pub cache_invalidations: u64,
}

/// Always-on per-right latency recorders. The paper (and the GDPRbench
/// follow-up) make rights-fulfilment latency the headline compliance
/// metric, so each right records into its own histogram on every
/// invocation — allowed, denied or failed alike.
#[derive(Debug, Default)]
pub(crate) struct RightsTimers {
    pub(crate) erase: obs::AtomicHistogram,
    pub(crate) export: obs::AtomicHistogram,
    pub(crate) keysof: obs::AtomicHistogram,
    pub(crate) getmeta: obs::AtomicHistogram,
    pub(crate) object: obs::AtomicHistogram,
}

/// Lock-free compliance counters (snapshotted by [`GdprStore::stats`]).
#[derive(Debug, Default)]
pub(crate) struct GdprStatsCells {
    allowed_ops: AtomicU64,
    denied_ops: AtomicU64,
    audit_records: AtomicU64,
    pub(crate) erased_by_request: AtomicU64,
    erased_by_retention: AtomicU64,
}

/// One operation on its way through the compliance pipeline: what every
/// stage needs to name it in an audit record, whichever way it ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op<'a> {
    pub(crate) kind: Operation,
    pub(crate) actor: &'a str,
    pub(crate) purpose: &'a str,
    pub(crate) key: Option<&'a str>,
    /// When the operation entered the pipeline (Unix milliseconds).
    pub(crate) now: u64,
}

/// The subject an audit record names for a key that may have no metadata.
fn subject_of<'a>(meta: Option<&MetaView<'a>>) -> &'a str {
    meta.map_or("", MetaView::subject)
}

/// Append the command that gives `key` the retention deadline `at_ms`,
/// when there is one.
fn push_deadline(batch: &mut Vec<Command>, key: &str, at_ms: Option<u64>) {
    if let Some(at_ms) = at_ms {
        batch.push(Command::ExpireAt {
            key: key.to_string(),
            at_ms,
        });
    }
}

/// The description of a delete, by whether the key was there.
fn del_detail(existed: bool) -> Detail<'static> {
    Detail::Text(if existed {
        "DEL (existed)"
    } else {
        "DEL (missing)"
    })
}

/// The GDPR-compliant store.
///
/// Per-key operations take **no global exclusive lock**: the engine routes
/// the key to its owning shard, the metadata index locks only the owning
/// segment, compliance counters are atomics, the ACL check holds a shared
/// read lock, and audit emission goes through the per-shard buffers of
/// [`AuditPipeline`] — or, under real-time compliance, into the owning
/// shard's journal segment, where group commit batches it.
pub struct GdprStore {
    pub(crate) kv: KvStore,
    pub(crate) hot: Arc<HotCache>,
    pub(crate) audit: Arc<AuditPipeline>,
    /// Evidence is committed in the engine journal (a real-time audit
    /// policy that monitors).
    pub(crate) journal_evidence: bool,
    pub(crate) acl: RwLock<AccessController>,
    pub(crate) index: ShardedMetadataIndex,
    pub(crate) policy: CompliancePolicy,
    pub(crate) clock: SharedClock,
    pub(crate) stats: GdprStatsCells,
    pub(crate) rights_timing: RightsTimers,
    /// When the store was opened with an in-memory audit sink, a shared
    /// view of it (lets examples and the breach module read the trail back
    /// without going through the filesystem).
    pub(crate) audit_mirror: Option<MemorySink>,
}

impl std::fmt::Debug for GdprStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GdprStore")
            .field("policy", &self.policy.name)
            .field("keys", &self.kv.len())
            .finish()
    }
}

impl GdprStore {
    /// Open a fully in-memory store (in-memory engine journal if the policy
    /// journals writes, in-memory audit sink). The configuration of the
    /// engine is derived from the compliance policy.
    ///
    /// # Errors
    ///
    /// Propagates engine-open errors.
    pub fn open_in_memory(policy: CompliancePolicy) -> Result<Self> {
        let mut config = StoreConfig::in_memory();
        if policy.journal_writes || policy.monitor_all_operations {
            config = config.aof_in_memory();
        }
        let sink = MemorySink::new();
        let mirror = sink.share();
        Self::open(policy, config, Box::new(sink)).map(|mut store| {
            store.audit_mirror = Some(mirror);
            store
        })
    }

    /// Open a store over an explicit engine configuration and audit sink
    /// (used by the benchmark harness to point both at real files). Under a
    /// real-time audit policy the sink receives the archive of the
    /// journal's evidence (see the module docs).
    ///
    /// # Errors
    ///
    /// [`GdprError::RealTimeAuditWithoutJournal`] for a real-time audit
    /// policy over an engine configuration with no journal, or with a
    /// `journal_fsync` other than `always`; otherwise engine-open errors.
    pub fn open(
        policy: CompliancePolicy,
        mut kv_config: StoreConfig,
        audit_sink: Box<dyn AuditSink>,
    ) -> Result<Self> {
        let journal_evidence = policy.monitor_all_operations && policy.audit_flush.is_real_time();
        let journal = kv_config.persistence != Persistence::None;
        if journal_evidence && (!journal || policy.journal_fsync != FsyncPolicy::Always) {
            return Err(GdprError::RealTimeAuditWithoutJournal {
                journal,
                journal_fsync: policy.journal_fsync,
            });
        }
        // The engine-level knobs follow the compliance policy.
        kv_config.fsync = policy.journal_fsync;
        kv_config.expiry_mode = policy.expiry_mode;
        if policy.encrypt_at_rest && kv_config.encryption.is_none() {
            kv_config = kv_config.encrypted(b"gdpr-store-default-passphrase");
        }
        let clock = Arc::clone(&kv_config.clock);
        let kv = KvStore::open(kv_config)?;

        // Under real-time compliance the log is the archive: a pass syncs
        // the sink once, not once per record.
        let flush = if journal_evidence {
            FlushPolicy::Manual
        } else {
            policy.audit_flush
        };
        let mut audit_log = AuditLog::new(audit_sink, flush);
        if !policy.audit_chaining {
            audit_log = audit_log.without_chain();
        }
        let audit = Arc::new(AuditPipeline::new(audit_log, kv.shard_count()));
        if journal_evidence {
            kv.set_archiver(Some(Arc::clone(&audit) as Arc<dyn Archiver>));
        }

        let hot = Arc::new(HotCache::new(HotCacheConfig::default(), kv.router()));
        let index = ShardedMetadataIndex::over(&kv);
        Self::hook_engine_removals(&kv, &hot, &index);
        let store = GdprStore {
            index,
            hot,
            kv,
            audit,
            journal_evidence,
            acl: RwLock::new(AccessController::new()),
            policy,
            clock,
            stats: GdprStatsCells::default(),
            rights_timing: RightsTimers::default(),
            audit_mirror: None,
        };
        store.rebuild_index()?;
        Ok(store)
    }

    /// The compliance policy this store enforces.
    #[must_use]
    pub fn policy(&self) -> &CompliancePolicy {
        &self.policy
    }

    /// The underlying engine (for benchmarks that need engine statistics).
    #[must_use]
    pub fn engine(&self) -> &KvStore {
        &self.kv
    }

    /// Compliance-layer counters (including the hot-read cache's, which
    /// live on the cache itself).
    #[must_use]
    pub fn stats(&self) -> GdprStats {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let hot = self.hot.stats();
        GdprStats {
            allowed_ops: load(&self.stats.allowed_ops),
            denied_ops: load(&self.stats.denied_ops),
            audit_records: load(&self.stats.audit_records),
            erased_by_request: load(&self.stats.erased_by_request),
            erased_by_retention: load(&self.stats.erased_by_retention),
            cache_hits: hot.hits,
            cache_misses: hot.misses,
            cache_admissions: hot.admissions,
            cache_invalidations: hot.invalidations,
        }
    }

    /// Replace the hot-read cache configuration (takes effect on an empty
    /// cache; used by the server's `hotcache=` flag and the benches).
    pub fn set_hot_cache(&mut self, config: HotCacheConfig) {
        self.hot = Arc::new(HotCache::new(config, self.kv.router()));
        Self::hook_engine_removals(&self.kv, &self.hot, &self.index);
    }

    /// Route engine-internal removals — `maxmemory` eviction, lazy and
    /// active expiry — into hot-cache invalidation and the index's
    /// departure queue. The engine fires the listener while the owning
    /// shard's lock is still held, so the stale entry is gone (and
    /// in-flight admissions are epoch-fenced) before any later read can
    /// observe the removal. This is what lets a cache hit skip engine
    /// revalidation entirely. The posting goes at the next bracket or query
    /// on the key's segment; an explicit delete is retired by the bracket
    /// that issued it.
    fn hook_engine_removals(kv: &KvStore, hot: &Arc<HotCache>, index: &ShardedMetadataIndex) {
        let cache = Arc::clone(hot);
        let depart = index.departure_hook();
        kv.set_removal_listener(Some(Arc::new(move |key: &str, cause| {
            cache.invalidate(key);
            if cause != RemovalCause::Explicit {
                depart(key);
            }
        })));
    }

    /// Whether the TinyLFU hot-read cache is live.
    #[must_use]
    pub fn hot_cache_enabled(&self) -> bool {
        self.hot.is_enabled()
    }

    /// Hot-read cache counters.
    #[must_use]
    pub fn hot_cache_stats(&self) -> HotCacheStats {
        self.hot.stats()
    }

    /// Snapshots of the per-right latency histograms, in a fixed order
    /// (`erase`, `export`, `keysof`, `getmeta`, `object`). Every
    /// invocation of the corresponding right is counted, whether it was
    /// allowed, denied or errored.
    #[must_use]
    pub fn right_latencies(&self) -> Vec<(&'static str, obs::LatencyHistogram)> {
        let t = &self.rights_timing;
        vec![
            ("erase", t.erase.snapshot()),
            ("export", t.export.snapshot()),
            ("keysof", t.keysof.snapshot()),
            ("getmeta", t.getmeta.snapshot()),
            ("object", t.object.snapshot()),
        ]
    }

    /// Journal statistics aggregated over the engine's per-shard AOF
    /// segments, if persistence is enabled — the compliance layer's view
    /// of the paper's journaling cost (fsyncs, group-commit batching, the
    /// crash-loss risk window).
    #[must_use]
    pub fn aof_stats(&self) -> Option<kvstore::aof::AofStats> {
        self.kv.aof_stats()
    }

    /// Per-segment journal statistics (index `i` is shard `i`'s segment),
    /// if persistence is enabled — the risk window observable per shard.
    #[must_use]
    pub fn aof_segment_stats(&self) -> Option<Vec<kvstore::aof::AofStats>> {
        self.kv.aof_segment_stats()
    }

    /// Current time in Unix milliseconds (from the engine clock).
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.clock.now_millis()
    }

    /// A copy of the audit trail lines, if the store was opened with the
    /// in-memory sink ([`Self::open_in_memory`]). Every record so far is
    /// pushed to the sink first ([`Self::flush_audit`]) so the trail is
    /// complete.
    #[must_use]
    pub fn audit_trail(&self) -> Option<Vec<String>> {
        if self.audit_mirror.is_some() {
            let _ = self.flush_audit();
        }
        self.audit_mirror.as_ref().map(MemorySink::lines)
    }

    /// Current tip digest of the audit hash chain, if chaining is enabled,
    /// covering every record so far.
    #[must_use]
    pub fn audit_chain_tip(&self) -> Option<String> {
        let _ = self.kv.archive();
        self.audit.chain_tip()
    }

    /// Put every audit record so far in the trail, synced: archive the
    /// evidence the journal holds past its last mark (one pass under every
    /// shard lock, one sink sync), then drain the eventual policy's buffers
    /// and flush.
    ///
    /// # Errors
    ///
    /// Sink errors, as [`GdprError::Audit`]; the records stay in the
    /// journal or the log and the next flush retries them.
    pub fn flush_audit(&self) -> Result<()> {
        self.kv.archive()?;
        Ok(self.audit.flush()?)
    }

    /// Install an access grant (Article 25: restrict access by default,
    /// open it explicitly). The grant takes effect once its record is
    /// committed (see [`Self::revoke`]).
    ///
    /// # Errors
    ///
    /// Under a real-time audit policy, a journal failure committing the
    /// record; the grant is then not installed.
    pub fn grant(&self, grant: Grant) -> Result<()> {
        let mut acl = self.acl.write();
        self.audit_acl_change(&grant.actor, &grant.purpose, "grant installed")?;
        acl.grant(grant);
        Ok(())
    }

    /// Record an access-control change, which the caller applies once this
    /// returns `Ok`, still holding the ACL's write lock: no check sees the
    /// change before its evidence is committed.
    fn audit_acl_change(&self, actor: &str, purpose: &str, detail: &str) -> Result<()> {
        self.emit_audit(&AuditEvent {
            purpose: Some(purpose),
            detail: Detail::Text(detail),
            ..AuditEvent::new(self.now_ms(), actor, Operation::AccessControl)
        })
    }

    /// Whether `actor` currently holds any unexpired grant for `purpose`
    /// (always `true` when the policy does not enforce access control).
    /// Used by the RESP server's `GDPR.AUTH` to reject a session up front;
    /// per-operation checks still apply afterwards.
    #[must_use]
    pub fn has_grant(&self, actor: &str, purpose: &str) -> bool {
        if !self.policy.enforce_access_control {
            return true;
        }
        let now = self.now_ms();
        self.acl.read().has_grant(actor, purpose, now)
    }

    /// Revoke every grant of `actor` for `purpose`. Returns how many were
    /// removed. Like [`Self::grant`], the change takes effect once its
    /// record is committed; checks wait for it meanwhile.
    ///
    /// # Errors
    ///
    /// Under a real-time audit policy, a journal failure committing the
    /// record; the grants are then kept.
    pub fn revoke(&self, actor: &str, purpose: &str) -> Result<usize> {
        let mut acl = self.acl.write();
        let mut revoked = acl.clone();
        let removed = revoked.revoke(actor, purpose);
        self.audit_acl_change(actor, purpose, &format!("{removed} grants revoked"))?;
        *acl = revoked;
        Ok(removed)
    }

    // ---- internal helpers ---------------------------------------------------

    /// Make `event` evidence, counted once it is. Under a real-time
    /// audit policy it is one `EVIDENCE` record committed to the journal
    /// when this returns `Ok`, and a journal failure is returned; otherwise
    /// it is rendered into a buffer. Keyed records go to the key's shard;
    /// keyless control-plane records (grants, rights requests) ride on
    /// shard 0.
    fn emit_audit(&self, event: &AuditEvent<'_>) -> Result<()> {
        // Under the unmodified policy nothing is monitored at all.
        if !self.policy.monitor_all_operations {
            return Ok(());
        }
        if self.journal_evidence {
            self.kv.execute(Self::evidence(event))?;
        } else {
            let shard = event.key.map_or(0, |key| self.kv.shard_of(key));
            self.audit.emit(shard, event);
        }
        self.stats.audit_records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The journal record carrying `event`, encoded straight into its
    /// payload.
    fn evidence(event: &AuditEvent<'_>) -> Command {
        Command::Evidence {
            key: event.key.unwrap_or_default().to_string(),
            payload: event.encode(),
        }
    }

    fn corrupt(key: &str, encoded: &[u8]) -> GdprError {
        GdprError::CorruptMetadata {
            key: key.to_string(),
            detail: format!("{} bytes", encoded.len()),
        }
    }

    pub(crate) fn decode_metadata(key: &str, encoded: &[u8]) -> Result<PersonalMetadata> {
        PersonalMetadata::decode(encoded).ok_or_else(|| Self::corrupt(key, encoded))
    }

    /// The view a read authorizes through, of `key`'s encoded metadata.
    fn view<'a>(key: &str, encoded: Option<&'a [u8]>) -> Result<Option<MetaView<'a>>> {
        encoded
            .map(|bytes| MetaView::parse(bytes).ok_or_else(|| Self::corrupt(key, bytes)))
            .transpose()
    }

    /// `key`'s encoded metadata, from one engine visit that fetches no
    /// value.
    fn governed(&self, key: &str) -> Result<Option<Arc<[u8]>>> {
        Ok(self.kv.read(key, ValuePart::Exists)?.governed)
    }

    pub(crate) fn load_metadata(&self, key: &str) -> Result<Option<PersonalMetadata>> {
        self.governed(key)?
            .map(|encoded| Self::decode_metadata(key, &encoded))
            .transpose()
    }

    /// `key`'s entry — typed value and the encoded metadata governing a
    /// read of it — from one lookup: the metadata is required while the
    /// key holds a value.
    fn load_governed(&self, key: &str) -> Result<KeyRead> {
        let read = self.kv.read(key, ValuePart::Fetch)?;
        if read.exists && read.governed.is_none() && self.policy.enforce_purpose_limitation {
            return Err(GdprError::MissingMetadata {
                key: key.to_string(),
            });
        }
        Ok(read)
    }

    /// Make `meta` the metadata of `key`'s entry (its value untouched).
    pub(crate) fn store_metadata(&self, key: &str, meta: &PersonalMetadata) -> Result<()> {
        self.kv.execute(Command::Govern {
            key: key.to_string(),
            governed: meta.encode().into(),
        })?;
        Ok(())
    }

    fn require_metadata(&self, key: &str) -> Result<Option<Arc<[u8]>>> {
        match self.governed(key)? {
            Some(meta) => Ok(Some(meta)),
            None if self.policy.enforce_purpose_limitation => Err(GdprError::MissingMetadata {
                key: key.to_string(),
            }),
            None => Ok(None),
        }
    }

    /// Every governed entry of the engine, as `(key, metadata)` — the full
    /// walk behind index rebuilds, the location inventory and the
    /// unindexed subject lookup.
    pub(crate) fn for_each_governed(
        &self,
        mut visit: impl FnMut(&str, PersonalMetadata),
    ) -> Result<()> {
        self.kv.for_each_governed(|key, encoded| {
            visit(key, Self::decode_metadata(key, encoded)?);
            Ok(())
        })
    }

    /// Resolve the retention deadline carried in freshly supplied metadata:
    /// values smaller than the current clock are interpreted as *relative*
    /// TTLs (the convenient `with_ttl_millis` spelling), larger ones as
    /// absolute deadlines.
    fn resolve_retention(&self, meta: &mut PersonalMetadata) {
        let now = self.now_ms();
        if meta.created_at_ms == 0 {
            meta.created_at_ms = now;
        }
        if let Some(value) = meta.expires_at_ms {
            if value < now {
                meta.expires_at_ms = Some(now.saturating_add(value));
            }
        }
    }

    // ---- the pipeline stages (see the module docs) ----------------------------

    /// Enter the pipeline: stamp the operation with the engine clock.
    pub(crate) fn begin<'a>(
        &self,
        kind: Operation,
        ctx: &'a AccessContext,
        key: Option<&'a str>,
    ) -> Op<'a> {
        Op {
            kind,
            actor: &ctx.actor,
            purpose: &ctx.purpose,
            key,
            now: self.now_ms(),
        }
    }

    /// Refuse `op`: the only place a denial is counted and recorded.
    /// Returns the error the caller hands back.
    fn deny(&self, op: &Op<'_>, subject: &str, error: GdprError) -> GdprError {
        let reason = match &error {
            GdprError::AccessDenied { reason, .. } => reason.as_str(),
            GdprError::LocationViolation { .. } => "location policy violation",
            GdprError::PurposeViolation { .. } => "purpose not permitted for this key",
            _ => "denied",
        };
        // No durable evidence of the refusal: that failure outranks it.
        match self.record(op, subject, Outcome::Denied, Detail::Text(reason)) {
            Ok(()) => {
                self.stats.denied_ops.fetch_add(1, Ordering::Relaxed);
                error
            }
            Err(audit_failure) => audit_failure,
        }
    }

    /// Articles 25/32: the actor must hold a grant covering the purpose
    /// and the data subject.
    fn authorize_access(&self, op: &Op<'_>, subject: &str) -> Result<()> {
        if !self.policy.enforce_access_control {
            return Ok(());
        }
        let decision = self.acl.read().check(op.actor, op.purpose, subject, op.now);
        match decision {
            AccessDecision::Allow => Ok(()),
            AccessDecision::Deny { reason } => Err(self.deny(
                op,
                subject,
                GdprError::AccessDenied {
                    actor: op.actor.to_string(),
                    purpose: op.purpose.to_string(),
                    reason,
                },
            )),
        }
    }

    fn deny_purpose(&self, op: &Op<'_>, subject: &str) -> GdprError {
        let error = GdprError::PurposeViolation {
            key: op.key.unwrap_or_default().to_string(),
            purpose: op.purpose.to_string(),
        };
        self.deny(op, subject, error)
    }

    /// Authorize placing data under `meta`: location policy (Article 46),
    /// access control, then the writer must itself be acting under a
    /// purpose the metadata whitelists (Article 5).
    fn authorize_write(&self, op: &Op<'_>, meta: &PersonalMetadata) -> Result<()> {
        if !self.policy.location_policy.allows(meta.location) {
            let error = GdprError::LocationViolation {
                region: meta.location.to_string(),
            };
            return Err(self.deny(op, &meta.subject, error));
        }
        self.authorize_access(op, &meta.subject)?;
        if self.policy.enforce_purpose_limitation && !meta.purposes.contains(op.purpose) {
            return Err(self.deny_purpose(op, &meta.subject));
        }
        Ok(())
    }

    /// Authorize using data stored under `meta` (a key without metadata
    /// has nothing to check): access control, then the purpose must be
    /// whitelisted and not objected to (Articles 5/21).
    fn authorize_read(&self, op: &Op<'_>, meta: Option<&MetaView<'_>>) -> Result<()> {
        let Some(meta) = meta else {
            return Ok(());
        };
        self.authorize_access(op, meta.subject())?;
        if self.policy.enforce_purpose_limitation && !meta.allows_purpose(op.purpose) {
            return Err(self.deny_purpose(op, meta.subject()));
        }
        Ok(())
    }

    /// Bring `key`'s index posting (and through it the subject-presence
    /// bit) in line with its metadata; `None` when the key has none.
    fn repost(&self, segment: &mut MetadataIndex, key: &str, meta: Option<&PersonalMetadata>) {
        if !self.policy.maintain_indexes {
            return;
        }
        match meta {
            Some(meta) => segment.insert(key, &meta.subject),
            None => segment.remove(key),
        }
    }

    /// The install bracket behind every write: value, metadata, retention
    /// deadline, index posting and hot entry of `key` change together
    /// under the key's segment lock (segment → engine shard, the lock order
    /// of every bracket), so a concurrent erasure of the key cannot
    /// interleave. `prepare` runs first, inside the bracket, and fills the
    /// batch the engine then runs as one visit; `restamp`, when given, is
    /// the new metadata the batch stores, and becomes the key's posting.
    fn install<R>(
        &self,
        key: &str,
        restamp: Option<&PersonalMetadata>,
        prepare: impl FnOnce(&mut Vec<Command>) -> Result<R>,
    ) -> Result<R> {
        self.index.with_key_segment(key, |segment| {
            let mut batch = Vec::with_capacity(2);
            let prepared = prepare(&mut batch)?;
            self.kv.execute_batch(batch)?;
            if restamp.is_some() {
                self.repost(segment, key, restamp);
            }
            // Last step of the bracket: drop any hot entry and fence
            // in-flight admissions of the pre-write state.
            self.hot.invalidate(key);
            Ok(prepared)
        })
    }

    /// The purge bracket behind every removal (`DEL`, erasure, retention):
    /// the entry, posting and hot entry of `key` go together, so an
    /// in-flight write cannot resurrect erased data and no later read is
    /// served a cached copy. Returns whether a value was removed.
    /// `engine_expired` is the retention path: the engine removed the
    /// entry when its deadline fired, and a concurrent put may have
    /// re-created the key since — then only the hot entry is dropped.
    /// `attest`, for a `DEL` that is itself the operation, is that
    /// operation and its subject: the `DEL` and its evidence commit
    /// together.
    pub(crate) fn purge(
        &self,
        key: &str,
        engine_expired: bool,
        attest: Option<(&Op<'_>, &str)>,
    ) -> Result<bool> {
        self.index.with_key_segment(key, |segment| {
            let removed = match attest.filter(|_| self.journal_evidence) {
                _ if engine_expired => !self.kv.exists(key)?,
                Some((op, subject)) => {
                    // The evidence says whether the key was there; no
                    // bracket writes it while its segment is locked.
                    let existed = self.kv.exists(key)?;
                    let mut batch = vec![Command::Del {
                        key: key.to_string(),
                    }];
                    self.attest(&mut batch, op, subject, del_detail(existed));
                    self.kv.execute_batch(batch)?;
                    existed
                }
                None => self.kv.delete(key)?,
            };
            let recreated = engine_expired && !removed;
            if !recreated {
                self.repost(segment, key, None);
            }
            self.hot.invalidate(key);
            Ok(removed)
        })
    }

    /// The one audit record of `op`, borrowing its fields.
    fn audit_event<'a>(
        op: &Op<'a>,
        subject: &'a str,
        outcome: Outcome,
        detail: Detail<'a>,
    ) -> AuditEvent<'a> {
        AuditEvent {
            timestamp_ms: op.now,
            actor: op.actor,
            operation: op.kind,
            key: op.key,
            subject: Some(subject),
            purpose: Some(op.purpose),
            outcome,
            detail,
        }
    }

    /// Write the one audit record of `op`; under a real-time audit policy
    /// it is committed (and a journal failure surfaces) before this
    /// returns.
    fn record(
        &self,
        op: &Op<'_>,
        subject: &str,
        outcome: Outcome,
        detail: Detail<'_>,
    ) -> Result<()> {
        self.emit_audit(&Self::audit_event(op, subject, outcome, detail))
    }

    /// The success epilogue of every data-path operation and rights
    /// request whose bracket did not [`Self::attest`] it: recorded once,
    /// then counted once.
    pub(crate) fn complete(&self, op: &Op<'_>, subject: &str, detail: Detail<'_>) -> Result<()> {
        self.record(op, subject, Outcome::Allowed, detail)?;
        self.stats.allowed_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Under a real-time audit policy, add the evidence of `op`'s success
    /// to the batch of the bracket that commits it: one frame, one
    /// group-commit wait, and after a crash both or neither.
    /// [`Self::complete_attested`] then counts it.
    fn attest(&self, batch: &mut Vec<Command>, op: &Op<'_>, subject: &str, detail: Detail<'_>) {
        if self.journal_evidence {
            let event = Self::audit_event(op, subject, Outcome::Allowed, detail);
            batch.push(Self::evidence(&event));
        }
    }

    /// The success epilogue of a bracket that ran [`Self::attest`].
    fn complete_attested(&self, op: &Op<'_>, subject: &str, detail: Detail<'_>) -> Result<()> {
        if !self.journal_evidence {
            return self.complete(op, subject, detail);
        }
        self.stats.audit_records.fetch_add(1, Ordering::Relaxed);
        self.stats.allowed_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ---- data-path operations -----------------------------------------------

    /// Store personal data under `key` with its GDPR metadata.
    ///
    /// # Errors
    ///
    /// Returns access, purpose, location or storage errors; on any denial a
    /// `Denied` audit record is emitted (when monitoring is enabled).
    pub fn put(
        &self,
        ctx: &AccessContext,
        key: &str,
        value: Bytes,
        mut meta: PersonalMetadata,
    ) -> Result<()> {
        let op = self.begin(Operation::Write, ctx, Some(key));
        self.authorize_write(&op, &meta)?;
        self.resolve_retention(&mut meta);
        let detail = Detail::SetBytes(value.len() as u64);
        self.install(key, Some(&meta), |batch| {
            batch.push(Command::SetGoverned {
                key: key.to_string(),
                value,
                governed: meta.encode().into(),
            });
            push_deadline(batch, key, meta.expires_at_ms);
            self.attest(batch, &op, &meta.subject, detail);
            Ok(())
        })?;
        self.complete_attested(&op, &meta.subject, detail)
    }

    /// Store a multi-field record (the YCSB record shape) with metadata.
    ///
    /// # Errors
    ///
    /// As for [`Self::put`].
    pub fn put_record(
        &self,
        ctx: &AccessContext,
        key: &str,
        fields: &BTreeMap<String, Bytes>,
        mut meta: PersonalMetadata,
    ) -> Result<()> {
        let op = self.begin(Operation::Write, ctx, Some(key));
        self.authorize_write(&op, &meta)?;
        self.resolve_retention(&mut meta);
        let detail = Detail::HmsetFields(fields.len() as u64);
        self.install(key, Some(&meta), |batch| {
            batch.push(Command::HSetMulti {
                key: key.to_string(),
                fields: fields.clone(),
            });
            batch.push(Command::Govern {
                key: key.to_string(),
                governed: meta.encode().into(),
            });
            push_deadline(batch, key, meta.expires_at_ms);
            self.attest(batch, &op, &meta.subject, detail);
            Ok(())
        })?;
        self.complete_attested(&op, &meta.subject, detail)
    }

    /// Update fields of an existing record, re-using its stored metadata.
    ///
    /// # Errors
    ///
    /// Returns [`GdprError::MissingMetadata`] if the key has no metadata
    /// and the policy enforces purpose limitation.
    pub fn update_record(
        &self,
        ctx: &AccessContext,
        key: &str,
        fields: &BTreeMap<String, Bytes>,
    ) -> Result<()> {
        let op = self.begin(Operation::Write, ctx, Some(key));
        let stored = self.require_metadata(key)?;
        self.authorize_read(&op, Self::view(key, stored.as_deref())?.as_ref())?;
        let detail = Detail::HmsetUpdate(fields.len() as u64);
        let stored = self.install(key, None, |batch| {
            // Re-check inside the bracket: an erasure may have removed the
            // key (and its metadata) between the check above and now; the
            // update must not resurrect data for an erased subject. The
            // stored deadline is restored on the key.
            let stored = self.require_metadata(key)?;
            batch.push(Command::HSetMulti {
                key: key.to_string(),
                fields: fields.clone(),
            });
            let view = Self::view(key, stored.as_deref())?;
            push_deadline(batch, key, view.as_ref().and_then(MetaView::expires_at_ms));
            self.attest(batch, &op, subject_of(view.as_ref()), detail);
            Ok(stored)
        })?;
        let view = Self::view(key, stored.as_deref())?;
        self.complete_attested(&op, subject_of(view.as_ref()), detail)
    }

    /// Read the string value stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns access/purpose violations, missing-metadata errors (when the
    /// policy demands metadata) and storage errors.
    pub fn get(&self, ctx: &AccessContext, key: &str) -> Result<Option<Bytes>> {
        let op = self.begin(Operation::Read, ctx, Some(key));

        // Hot tier first: a resident entry carries value and metadata, so
        // a hit touches no engine shard at all — every mutation bracket
        // invalidates synchronously, and removals that bypass the brackets
        // (maxmemory eviction, lazy and active expiry) invalidate through
        // the engine's removal listener while the shard lock is still
        // held. The one removal no listener can deliver is a retention
        // deadline that has passed but not yet fired; the cached metadata
        // carries that deadline, checked here. Hit and miss then run the
        // same authorize and record stages — on the cached metadata, so
        // revocations and objections are never bypassed — and the trail
        // does not depend on cache state.
        let token = match self.hot.probe(key) {
            Probe::Hit(HotEntry { value, meta }) => {
                let view = Self::view(key, meta.as_deref())?;
                let deadline = view.and_then(|v| v.expires_at_ms());
                if deadline.is_none_or(|at| op.now < at) {
                    self.authorize_read(&op, view.as_ref())?;
                    return self.served(&op, view.as_ref(), Some(value));
                }
                // Retention elapsed under the resident entry; drop it. The
                // authoritative path below lazily expires the entry.
                self.hot.invalidate(key);
                None
            }
            Probe::Miss(token) => Some(token),
        };
        // One engine visit: the value comes with the metadata that governs
        // it, and is dropped unseen if that refuses.
        let KeyRead {
            value, governed, ..
        } = self.load_governed(key)?;
        let view = Self::view(key, governed.as_deref())?;
        self.authorize_read(&op, view.as_ref())?;
        let value = value.map(|value| value.into_string(key)).transpose()?;
        if let (Some(value), Some(token)) = (&value, token) {
            // TinyLFU decides residency; the token refuses admission if any
            // mutation bracket on this segment ran since the probe.
            self.hot.admit_with(key, token, || HotEntry {
                value: value.clone(),
                meta: governed.clone(),
            });
        }
        self.served(&op, view.as_ref(), value)
    }

    /// The end of an authorized `get`: recorded, then handed out.
    fn served(
        &self,
        op: &Op<'_>,
        meta: Option<&MetaView<'_>>,
        value: Option<Bytes>,
    ) -> Result<Option<Bytes>> {
        let detail = Detail::GetBytes(value.as_ref().map_or(0, Vec::len) as u64);
        self.complete(op, subject_of(meta), detail)?;
        Ok(value)
    }

    /// Read a multi-field record.
    ///
    /// # Errors
    ///
    /// As for [`Self::get`].
    pub fn get_record(
        &self,
        ctx: &AccessContext,
        key: &str,
    ) -> Result<Option<BTreeMap<String, Bytes>>> {
        let op = self.begin(Operation::Read, ctx, Some(key));
        let KeyRead {
            value, governed, ..
        } = self.load_governed(key)?;
        let view = Self::view(key, governed.as_deref())?;
        self.authorize_read(&op, view.as_ref())?;
        let record = value.map(|value| value.into_hash(key)).transpose()?;
        self.complete(&op, subject_of(view.as_ref()), Detail::Text("HGETALL"))?;
        Ok(record)
    }

    /// Replace the GDPR metadata of an existing key (subject transfer,
    /// purpose re-consent, retention change) without rewriting its value.
    /// The metadata in the key's entry, its retention deadline and the
    /// key's subject posting change together under the key's segment lock.
    ///
    /// The actor must be permitted to act on the key's *current* subject
    /// as well as the new one (re-stamping someone else's data to a
    /// subject you hold a grant for is itself an access to their data),
    /// the writer's purpose must be whitelisted in the new metadata
    /// (Article 5, as for [`Self::put`]), and recorded objections survive
    /// the replacement (Article 21: a rights request cannot be undone by a
    /// writer re-stamping metadata).
    ///
    /// # Errors
    ///
    /// Returns [`GdprError::NoSuchKey`] when the key holds no value, plus
    /// access, purpose, location and storage errors.
    pub fn set_metadata(
        &self,
        ctx: &AccessContext,
        key: &str,
        mut meta: PersonalMetadata,
    ) -> Result<()> {
        let op = self.begin(Operation::Write, ctx, Some(key));
        if let Some(stored) = self.governed(key)? {
            let current = Self::view(key, Some(&stored))?;
            self.authorize_access(&op, subject_of(current.as_ref()))?;
        }
        self.authorize_write(&op, &meta)?;
        self.resolve_retention(&mut meta);
        self.install(key, Some(&meta), |batch| {
            // Article 21: objections outlive metadata replacement. Re-read
            // inside the bracket so a racing objection cannot be lost.
            let read = self.kv.read(key, ValuePart::Exists)?;
            if !read.exists {
                return Err(GdprError::NoSuchKey {
                    key: key.to_string(),
                });
            }
            let stored = read
                .governed
                .map(|encoded| Self::decode_metadata(key, &encoded));
            let governed = match stored.transpose()? {
                Some(stored) if !stored.objections.is_subset(&meta.objections) => {
                    let mut kept = meta.clone();
                    kept.objections.extend(stored.objections);
                    kept.encode()
                }
                _ => meta.encode(),
            };
            batch.push(Command::Govern {
                key: key.to_string(),
                governed: governed.into(),
            });
            // Lifting retention must also clear the key's old engine-level
            // deadline, or the engine would still erase it while the
            // metadata claims indefinite retention.
            if meta.expires_at_ms.is_none() {
                batch.push(Command::Persist {
                    key: key.to_string(),
                });
            }
            push_deadline(batch, key, meta.expires_at_ms);
            self.attest(batch, &op, &meta.subject, Detail::Text("metadata replaced"));
            Ok(())
        })?;
        self.complete_attested(&op, &meta.subject, Detail::Text("metadata replaced"))
    }

    /// Read the GDPR metadata of a key (itself an audited read).
    ///
    /// # Errors
    ///
    /// Returns corruption or storage errors.
    pub fn metadata(&self, ctx: &AccessContext, key: &str) -> Result<Option<PersonalMetadata>> {
        let _timed = self.rights_timing.getmeta.start_timer();
        let op = self.begin(Operation::Read, ctx, Some(key));
        let meta = self.load_metadata(key)?;
        let subject = meta.as_ref().map_or("", |m| m.subject.as_str());
        self.complete(&op, subject, Detail::Text("metadata read"))?;
        Ok(meta)
    }

    /// Delete one key (and its metadata). Returns whether it existed.
    ///
    /// # Errors
    ///
    /// Returns access violations and storage errors. Under a policy that
    /// scrubs the journal on erasure, a scrub that fails is reported after
    /// the delete and its record committed and were counted.
    pub fn delete(&self, ctx: &AccessContext, key: &str) -> Result<bool> {
        let op = self.begin(Operation::Delete, ctx, Some(key));
        let stored = self.governed(key)?;
        let meta = Self::view(key, stored.as_deref())?;
        if let Some(meta) = &meta {
            self.authorize_access(&op, meta.subject())?;
        }
        let subject = subject_of(meta.as_ref());
        let existed = self.purge(key, false, Some((&op, subject)))?;
        self.complete_attested(&op, subject, del_detail(existed))?;
        if existed && self.policy.scrub_aof_on_erasure {
            self.kv.rewrite_aof()?;
        }
        Ok(existed)
    }

    /// Ordered scan of up to `count` keys starting at `start`.
    ///
    /// # Errors
    ///
    /// Returns storage errors.
    pub fn scan(&self, ctx: &AccessContext, start: &str, count: usize) -> Result<Vec<String>> {
        let op = self.begin(Operation::Read, ctx, None);
        let keys = self.kv.scan(start, count)?;
        self.complete(&op, "", Detail::ScanKeys(keys.len() as u64))?;
        Ok(keys)
    }

    /// Number of keys currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run the engine's background duties (expiry cycle, batched fsyncs)
    /// and clean up the compliance layer after any erased keys. Returns the
    /// engine cycle outcome.
    ///
    /// # Errors
    ///
    /// Propagates engine and audit errors.
    pub fn tick(&self) -> Result<CycleOutcome> {
        let outcome = self.kv.tick()?;
        let now = self.now_ms();
        for key in &outcome.removed {
            self.purge(key, true, None)?;
            self.emit_audit(&AuditEvent {
                key: Some(key),
                detail: Detail::Text("erased: retention period elapsed"),
                ..AuditEvent::new(now, "retention-engine", Operation::Delete)
            })?;
        }
        if !outcome.removed.is_empty() {
            self.stats
                .erased_by_retention
                .fetch_add(outcome.removed.len() as u64, Ordering::Relaxed);
            if self.policy.scrub_aof_on_erasure {
                self.kv.rewrite_aof()?;
            }
        }
        // Drain the per-shard audit buffers and give the periodic audit
        // policy a chance to flush even when no records were emitted this
        // tick. Real-time evidence is in the journal already; the archive
        // is not a tick's business.
        if !self.journal_evidence {
            self.audit.flush()?;
        }
        Ok(outcome)
    }

    /// Rebuild the in-memory metadata indexes from the metadata the
    /// engine's entries carry (after recovery from the AOF, for example).
    ///
    /// # Errors
    ///
    /// Returns corruption errors from undecodable metadata.
    pub fn rebuild_index(&self) -> Result<()> {
        if !self.policy.maintain_indexes {
            return Ok(());
        }
        self.index.clear();
        self.for_each_governed(|key, meta| {
            self.index.insert(key, &meta.subject);
        })
    }

    /// Apply one write record streamed from a replication primary. The
    /// stream's reader drops the records that change no state (logged
    /// reads, the primary's evidence and archive marks) before they get
    /// here.
    ///
    /// The record is an *engine* command (the primary already ran the
    /// compliance checks before journaling it), so it executes directly on
    /// the engine — but the metadata index must stay coherent: when the
    /// record can change what governs its key, the engine write and the
    /// index posting change together under the key's segment lock, exactly
    /// as the install and purge brackets pair them on the primary. This is
    /// how an erasure on the primary removes both the value *and the
    /// postings* on every replica. The posting follows from the record
    /// itself; only a field or member removal that may have emptied the
    /// key looks at the entry again.
    ///
    /// # Errors
    ///
    /// Propagates engine execution errors and metadata corruption.
    pub fn apply_replicated(&self, cmd: Command) -> Result<()> {
        if matches!(cmd, Command::FlushAll) {
            self.kv.execute(cmd)?;
            self.index.clear();
            self.hot.clear();
            return Ok(());
        }
        let Some(key) = cmd.primary_key().map(str::to_string) else {
            self.kv.execute(cmd)?;
            return Ok(());
        };
        /// What the record does to the key's posting.
        enum Posting {
            Keep,
            Stamp(PersonalMetadata),
            Clear,
            ClearIfGone,
        }
        let posting = match &cmd {
            _ if !self.policy.maintain_indexes => Posting::Keep,
            Command::SetGoverned { governed, .. } | Command::Govern { governed, .. } => {
                Posting::Stamp(Self::decode_metadata(&key, governed)?)
            }
            Command::Set { .. } | Command::Del { .. } => Posting::Clear,
            // A field or member removal that empties the key takes its
            // entry, metadata and all.
            Command::HDel { .. } | Command::SRem { .. } => Posting::ClearIfGone,
            _ => Posting::Keep,
        };
        self.index.with_key_segment(&key, |segment| {
            let reply = self.kv.execute(cmd)?;
            match posting {
                // A re-stamp of a missing key stamps nothing.
                Posting::Stamp(meta) if reply != Reply::Int(0) => {
                    self.repost(segment, &key, Some(&meta));
                }
                Posting::Clear => self.repost(segment, &key, None),
                Posting::ClearIfGone if !self.kv.exists(&key)? => {
                    self.repost(segment, &key, None);
                }
                _ => {}
            }
            // Any replicated write to a key (including the primary's
            // journaled eviction DELs) pushes the old value out of the
            // replica's hot tier.
            self.hot.invalidate(&key);
            Ok(())
        })
    }

    /// Per-region inventory of stored personal data (Article 46 reporting).
    ///
    /// # Errors
    ///
    /// Returns storage or corruption errors.
    pub fn location_inventory(&self) -> Result<LocationInventory> {
        let mut inventory = LocationInventory::new();
        self.for_each_governed(|_, meta| inventory.add(meta.location))?;
        Ok(inventory)
    }
}

impl Drop for GdprStore {
    fn drop(&mut self) {
        // A clean close archives what the journal holds past its last
        // mark, before the fields — the trail's log and sink among them —
        // drop. Errors cannot be reported from drop: the evidence stays in
        // the journal for the next open's passes.
        let _ = self.kv.archive();
        self.kv.set_archiver(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::Region;
    use kvstore::clock::SimClock;

    fn ctx() -> AccessContext {
        AccessContext::new("app", "billing")
    }

    fn meta() -> PersonalMetadata {
        PersonalMetadata::new("alice")
            .with_purpose("billing")
            .with_location(Region::Eu)
    }

    fn permissive_store() -> GdprStore {
        // Strict policy but with a grant installed for the test actor.
        let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store
    }

    #[test]
    fn put_get_delete_roundtrip_under_strict_policy() {
        let store = permissive_store();
        store
            .put(&ctx(), "user:alice:email", b"a@b.c".to_vec(), meta())
            .unwrap();
        assert_eq!(
            store.get(&ctx(), "user:alice:email").unwrap(),
            Some(b"a@b.c".to_vec())
        );
        assert_eq!(store.len(), 1);
        assert!(store.delete(&ctx(), "user:alice:email").unwrap());
        assert_eq!(store.get(&ctx(), "user:alice:email").unwrap(), None);
        assert!(store.is_empty());
        let stats = store.stats();
        assert!(stats.allowed_ops >= 3);
        assert_eq!(stats.denied_ops, 0);
    }

    #[test]
    fn unmodified_policy_skips_all_checks() {
        let store = GdprStore::open_in_memory(CompliancePolicy::unmodified()).unwrap();
        // No grants installed, no metadata checks, no audit.
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v".to_vec()));
        assert!(store.audit_trail().unwrap().is_empty());
        assert_eq!(store.stats().audit_records, 0);
    }

    #[test]
    fn access_control_denies_unknown_actor() {
        let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
        let err = store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap_err();
        assert!(matches!(err, GdprError::AccessDenied { .. }));
        assert_eq!(store.stats().denied_ops, 1);
        // The denial itself is evidence in the trail.
        let trail = store.audit_trail().unwrap();
        assert!(trail.iter().any(|l| l.contains("denied")));
    }

    #[test]
    fn purpose_limitation_blocks_non_whitelisted_reads() {
        let store = permissive_store();
        store.grant(Grant::new("app", "marketing")).unwrap();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        let marketing = AccessContext::new("app", "marketing");
        let err = store.get(&marketing, "k").unwrap_err();
        assert!(matches!(err, GdprError::PurposeViolation { .. }));
    }

    #[test]
    fn objection_blocks_previously_allowed_purpose() {
        let store = permissive_store();
        store.grant(Grant::new("app", "analytics")).unwrap();
        let m = meta().with_purpose("analytics").with_objection("analytics");
        store.put(&ctx(), "k", b"v".to_vec(), m).unwrap();
        let analytics = AccessContext::new("app", "analytics");
        assert!(store.get(&analytics, "k").is_err());
    }

    #[test]
    fn location_policy_blocks_non_eu_placement() {
        let store = permissive_store();
        let err = store
            .put(&ctx(), "k", b"v".to_vec(), meta().with_location(Region::Us))
            .unwrap_err();
        assert!(matches!(err, GdprError::LocationViolation { .. }));
    }

    #[test]
    fn writer_purpose_must_be_whitelisted() {
        let store = permissive_store();
        // Metadata whitelists only "analytics" but the writer claims "billing".
        let m = PersonalMetadata::new("alice").with_purpose("analytics");
        let err = store.put(&ctx(), "k", b"v".to_vec(), m).unwrap_err();
        assert!(matches!(err, GdprError::PurposeViolation { .. }));
    }

    #[test]
    fn relative_ttl_is_resolved_against_the_clock() {
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone()),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store
            .put(&ctx(), "k", b"v".to_vec(), meta().with_ttl_millis(5_000))
            .unwrap();
        let stored = store.load_metadata("k").unwrap().unwrap();
        assert_eq!(stored.expires_at_ms, Some(1_005_000));
        assert_eq!(stored.created_at_ms, 1_000_000);
        // After the TTL the engine erases the key, metadata and all.
        clock.advance_millis(6_000);
        store.tick().unwrap();
        assert_eq!(store.get(&ctx(), "k").unwrap(), None);
        assert!(store.load_metadata("k").unwrap().is_none());
        assert!(store.stats().erased_by_retention >= 1);
    }

    #[test]
    fn records_roundtrip_and_update() {
        let store = permissive_store();
        let mut fields = BTreeMap::new();
        fields.insert("field0".to_string(), b"v0".to_vec());
        fields.insert("field1".to_string(), b"v1".to_vec());
        store
            .put_record(&ctx(), "user:alice:profile", &fields, meta())
            .unwrap();
        let read = store
            .get_record(&ctx(), "user:alice:profile")
            .unwrap()
            .unwrap();
        assert_eq!(read.len(), 2);

        let mut update = BTreeMap::new();
        update.insert("field1".to_string(), b"updated".to_vec());
        store
            .update_record(&ctx(), "user:alice:profile", &update)
            .unwrap();
        let read = store
            .get_record(&ctx(), "user:alice:profile")
            .unwrap()
            .unwrap();
        assert_eq!(read["field1"], b"updated".to_vec());
        assert_eq!(read["field0"], b"v0".to_vec());
    }

    #[test]
    fn update_without_metadata_is_rejected_under_strict_policy() {
        let store = permissive_store();
        let mut fields = BTreeMap::new();
        fields.insert("f".to_string(), b"v".to_vec());
        let err = store
            .update_record(&ctx(), "never-created", &fields)
            .unwrap_err();
        assert!(matches!(err, GdprError::MissingMetadata { .. }));
    }

    #[test]
    fn scan_excludes_metadata_shadow_keys() {
        let store = permissive_store();
        for i in 0..5 {
            store
                .put(&ctx(), &format!("user:{i}"), b"v".to_vec(), meta())
                .unwrap();
        }
        // Metadata lives in its key's entry: no key of its own to list.
        let keys = store.scan(&ctx(), "", 100).unwrap();
        let data: Vec<String> = (0..5).map(|i| format!("user:{i}")).collect();
        assert_eq!(keys, data);
        assert_eq!(store.len(), 5);
        assert_eq!(store.engine().len(), 5);
    }

    #[test]
    fn scan_pages_past_a_large_shadow_key_block() {
        // Before metadata moved into its key's entry, shadow keys sorted
        // ahead of `user:` data keys in one block as large as the dataset,
        // and a scan from "" had to page past it. A scan still returns
        // exactly `count` keys in order, and stops cleanly at exhaustion.
        let store = permissive_store();
        for i in 0..300 {
            store
                .put(&ctx(), &format!("user:{i:04}"), b"v".to_vec(), meta())
                .unwrap();
        }
        let keys = store.scan(&ctx(), "", 100).unwrap();
        assert_eq!(keys.len(), 100);
        assert!(keys.iter().all(|k| k.starts_with("user:")));
        assert_eq!(keys[0], "user:0000");
        // Scanning everything also works, and stops cleanly at exhaustion.
        assert_eq!(store.scan(&ctx(), "", 10_000).unwrap().len(), 300);
    }

    #[test]
    fn len_is_the_engine_key_count_through_put_erasure_and_expiry() {
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .shards(4)
                .clock(clock.clone()),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        let owned_by = |subject: &str| PersonalMetadata::new(subject).with_purpose("billing");
        for i in 0..4 {
            let key = format!("alice:{i}");
            store
                .put(&ctx(), &key, b"v".to_vec(), owned_by("alice"))
                .unwrap();
        }
        for i in 0..2 {
            let fleeting = owned_by("bob").with_ttl_millis(5_000);
            store
                .put(&ctx(), &format!("bob:{i}"), b"v".to_vec(), fleeting)
                .unwrap();
        }
        store
            .put(&ctx(), "carol:0", b"v".to_vec(), owned_by("carol"))
            .unwrap();
        let counts = |store: &GdprStore| (store.len(), store.engine().len());
        assert_eq!(counts(&store), (7, 7));
        store.right_to_erasure(&ctx(), "alice").unwrap();
        assert_eq!(counts(&store), (3, 3));
        clock.advance_millis(6_000);
        store.tick().unwrap();
        assert_eq!(counts(&store), (1, 1));
        store.delete(&ctx(), "carol:0").unwrap();
        assert_eq!(counts(&store), (0, 0));
        assert!(store.is_empty());
    }

    #[test]
    fn audit_trail_records_reads_and_writes_with_chain() {
        let store = permissive_store();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        store.get(&ctx(), "k").unwrap();
        let trail = store.audit_trail().unwrap();
        assert!(
            trail.len() >= 3,
            "grant + write + read, got {}",
            trail.len()
        );
        assert!(store.audit_chain_tip().is_some());
        // Verify the chain end to end.
        let parsed = audit::reader::parse_trail(&trail.join("\n")).unwrap();
        audit::reader::verify_trail(&parsed).unwrap();
    }

    #[test]
    fn metadata_accessor_and_inventory() {
        let store = permissive_store();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        let m = store.metadata(&ctx(), "k").unwrap().unwrap();
        assert_eq!(m.subject, "alice");
        let inventory = store.location_inventory().unwrap();
        assert_eq!(inventory.count(Region::Eu), 1);
        assert_eq!(inventory.total(), 1);
    }

    #[test]
    fn set_metadata_reindexes_and_respects_existence() {
        let store = permissive_store();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        assert_eq!(store.index.keys_of_subject("alice"), vec!["k"]);

        // Transfer the key to a new subject with new purposes.
        let new_meta = PersonalMetadata::new("bob")
            .with_purpose("billing")
            .with_location(Region::Eu);
        store.set_metadata(&ctx(), "k", new_meta).unwrap();
        assert!(store.index.keys_of_subject("alice").is_empty());
        assert_eq!(store.index.keys_of_subject("bob"), vec!["k"]);
        assert_eq!(store.load_metadata("k").unwrap().unwrap().subject, "bob");
        // The value itself is untouched.
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v".to_vec()));

        // Setting metadata on a missing key is refused.
        let err = store.set_metadata(&ctx(), "missing", meta()).unwrap_err();
        assert!(matches!(err, GdprError::NoSuchKey { .. }));
    }

    #[test]
    fn set_metadata_applies_retention_deadline() {
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone()),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        store
            .set_metadata(&ctx(), "k", meta().with_ttl_millis(5_000))
            .unwrap();
        clock.advance_millis(6_000);
        store.tick().unwrap();
        assert_eq!(store.get(&ctx(), "k").unwrap(), None);
        assert!(store.load_metadata("k").unwrap().is_none());
    }

    #[test]
    fn set_metadata_requires_access_to_the_current_subject() {
        // An actor whose grant is scoped to bob must not be able to
        // re-stamp alice's key onto bob (stealing it from alice's index).
        let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        store.revoke("app", "billing").unwrap();
        store
            .grant(Grant::new("app", "billing").for_subject("bob"))
            .unwrap();
        let bob_meta = PersonalMetadata::new("bob").with_purpose("billing");
        let err = store.set_metadata(&ctx(), "k", bob_meta).unwrap_err();
        assert!(matches!(err, GdprError::AccessDenied { .. }));
        assert_eq!(store.index.keys_of_subject("alice"), vec!["k"]);
        assert!(store.index.keys_of_subject("bob").is_empty());
    }

    #[test]
    fn set_metadata_requires_the_writer_purpose_to_be_whitelisted() {
        let store = permissive_store();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        // New metadata whitelists only "analytics"; the writer claims
        // "billing" — the same shape put() refuses.
        let m = PersonalMetadata::new("alice").with_purpose("analytics");
        let err = store.set_metadata(&ctx(), "k", m).unwrap_err();
        assert!(matches!(err, GdprError::PurposeViolation { .. }));
    }

    #[test]
    fn set_metadata_preserves_recorded_objections() {
        let store = permissive_store();
        store.grant(Grant::new("app", "analytics")).unwrap();
        let m = meta().with_purpose("analytics");
        store.put(&ctx(), "k", b"v".to_vec(), m.clone()).unwrap();
        store.right_to_object(&ctx(), "alice", "analytics").unwrap();
        // Re-stamping the metadata must not wash away the objection.
        store.set_metadata(&ctx(), "k", m).unwrap();
        let stored = store.load_metadata("k").unwrap().unwrap();
        assert!(stored.objections.contains("analytics"));
        let analytics = AccessContext::new("app", "analytics");
        assert!(store.get(&analytics, "k").is_err());
    }

    #[test]
    fn set_metadata_without_ttl_lifts_the_engine_deadline() {
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone()),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store
            .put(&ctx(), "k", b"v".to_vec(), meta().with_ttl_millis(5_000))
            .unwrap();
        // Lift retention: no deadline in the new metadata.
        store.set_metadata(&ctx(), "k", meta()).unwrap();
        clock.advance_millis(6_000);
        store.tick().unwrap();
        assert_eq!(
            store.get(&ctx(), "k").unwrap(),
            Some(b"v".to_vec()),
            "value must survive its old deadline once retention is lifted"
        );
        assert!(store.load_metadata("k").unwrap().is_some());
    }

    #[test]
    fn has_grant_follows_policy_and_acl() {
        let store = GdprStore::open_in_memory(CompliancePolicy::strict()).unwrap();
        assert!(!store.has_grant("app", "billing"));
        store.grant(Grant::new("app", "billing")).unwrap();
        assert!(store.has_grant("app", "billing"));
        assert!(!store.has_grant("app", "marketing"));
        // Without access-control enforcement every session is acceptable.
        let open = GdprStore::open_in_memory(CompliancePolicy::unmodified()).unwrap();
        assert!(open.has_grant("anyone", "anything"));
    }

    #[test]
    fn revoke_closes_access() {
        let store = permissive_store();
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        assert_eq!(store.revoke("app", "billing").unwrap(), 1);
        assert!(store.get(&ctx(), "k").is_err());
    }

    #[test]
    fn hot_cache_serves_repeated_gets_and_invalidates_on_mutation() {
        let mut store = permissive_store();
        store.set_hot_cache(HotCacheConfig::default());
        assert!(store.hot_cache_enabled());
        store.put(&ctx(), "k", b"v1".to_vec(), meta()).unwrap();
        // First read misses and admits; the second must hit.
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v1".to_vec()));
        let stats = store.stats();
        assert!(stats.cache_admissions >= 1, "{stats:?}");
        assert!(stats.cache_hits >= 1, "{stats:?}");
        // Overwrite: the cached v1 must not survive the put bracket.
        store.put(&ctx(), "k", b"v2".to_vec(), meta()).unwrap();
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v2".to_vec()));
        assert!(store.stats().cache_invalidations >= 1);
        // Delete: no hot copy may outlive the key.
        store.delete(&ctx(), "k").unwrap();
        assert_eq!(store.get(&ctx(), "k").unwrap(), None);
    }

    #[test]
    fn hot_cache_never_serves_after_erasure() {
        let mut store = permissive_store();
        store.set_hot_cache(HotCacheConfig::default());
        store.put(&ctx(), "k", b"secret".to_vec(), meta()).unwrap();
        // Heat the key into the hot tier.
        for _ in 0..4 {
            store.get(&ctx(), "k").unwrap();
        }
        assert!(store.stats().cache_hits >= 1);
        store.right_to_erasure(&ctx(), "alice").unwrap();
        assert_eq!(
            store.get(&ctx(), "k").unwrap(),
            None,
            "erased value served from the hot tier"
        );
    }

    #[test]
    fn hot_cache_respects_objections_recorded_after_admission() {
        let store = permissive_store();
        store.grant(Grant::new("app", "analytics")).unwrap();
        let m = meta().with_purpose("analytics");
        store.put(&ctx(), "k", b"v".to_vec(), m).unwrap();
        let analytics = AccessContext::new("app", "analytics");
        // Admit under the analytics purpose, then object to it.
        store.get(&analytics, "k").unwrap();
        store.get(&analytics, "k").unwrap();
        store
            .right_to_object(&analytics, "alice", "analytics")
            .unwrap();
        assert!(
            store.get(&analytics, "k").is_err(),
            "objection must not be bypassed by the hot tier"
        );
        // The whitelisted purpose still reads fine.
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn hot_cache_entries_do_not_survive_ttl_fire() {
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .clock(clock.clone()),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing")).unwrap();
        store
            .put(&ctx(), "k", b"v".to_vec(), meta().with_ttl_millis(5_000))
            .unwrap();
        store.get(&ctx(), "k").unwrap();
        store.get(&ctx(), "k").unwrap();
        clock.advance_millis(6_000);
        store.tick().unwrap();
        assert_eq!(
            store.get(&ctx(), "k").unwrap(),
            None,
            "expired value served from the hot tier"
        );
    }

    #[test]
    fn disabling_the_hot_cache_keeps_reads_correct() {
        let mut store = permissive_store();
        store.set_hot_cache(crate::hot_cache::HotCacheConfig::disabled());
        assert!(!store.hot_cache_enabled());
        store.put(&ctx(), "k", b"v".to_vec(), meta()).unwrap();
        store.get(&ctx(), "k").unwrap();
        store.get(&ctx(), "k").unwrap();
        let stats = store.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_admissions, 0);
        assert_eq!(store.get(&ctx(), "k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn rebuild_index_recovers_postings() {
        let store = permissive_store();
        store
            .put(&ctx(), "user:alice:email", b"v".to_vec(), meta())
            .unwrap();
        store.index.clear();
        assert!(store.index.keys_of_subject("alice").is_empty());
        store.rebuild_index().unwrap();
        assert_eq!(
            store.index.keys_of_subject("alice"),
            vec!["user:alice:email"]
        );
    }
}
