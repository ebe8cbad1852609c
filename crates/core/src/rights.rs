//! Data-subject rights (GDPR Chapter 3).
//!
//! The four rights the paper identifies as storage-relevant:
//!
//! * **Article 15 — right of access**: [`GdprStore::right_of_access`]
//!   returns everything the store knows about a subject, including the
//!   purposes, recipients, retention and whether automated decision-making
//!   uses the data.
//! * **Article 17 — right to be forgotten**:
//!   [`GdprStore::right_to_erasure`] finds every key of the subject via the
//!   metadata index and erases data, metadata and (under strict compliance)
//!   the journal tombstones, synchronously.
//! * **Article 20 — right to data portability**:
//!   [`GdprStore::right_to_portability`] exports the subject's data as
//!   machine-readable JSON.
//! * **Article 21 — right to object**: [`GdprStore::right_to_object`]
//!   records an objection against a purpose on every key of the subject,
//!   after which reads under that purpose are refused.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use audit::record::Operation;
use kvstore::object::{Bytes, Value};
use kvstore::store::ValuePart;

use crate::export::{self, ExportCursor, ExportPage};
use crate::metadata::PersonalMetadata;
use crate::store::{AccessContext, GdprStore, Op};
use crate::Result;

/// Everything returned to a data subject exercising their right of access.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectAccessReport {
    /// The data subject.
    pub subject: String,
    /// When the report was generated (Unix milliseconds).
    pub generated_at_ms: u64,
    /// One entry per stored key.
    pub items: Vec<SubjectDataItem>,
}

/// One stored value belonging to the subject.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectDataItem {
    /// The key under which the value is stored.
    pub key: String,
    /// The stored value (string form) or the flattened record fields.
    pub value: Option<Bytes>,
    /// Record fields when the value is a multi-field record.
    pub fields: Option<BTreeMap<String, Bytes>>,
    /// The GDPR metadata attached to the value.
    pub metadata: PersonalMetadata,
}

/// Result of a right-to-be-forgotten request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErasureReport {
    /// The data subject whose data was erased.
    pub subject: String,
    /// Keys physically removed from the keyspace.
    pub erased_keys: Vec<String>,
    /// Number of journal records dropped by the accompanying compaction
    /// (0 when the policy defers scrubbing).
    pub journal_records_scrubbed: u64,
    /// Whether the erasure was completed synchronously (real-time
    /// compliance) or left residue for background clean-up.
    pub completed_in_real_time: bool,
}

/// Result of an objection request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectionReport {
    /// The data subject.
    pub subject: String,
    /// The purpose objected to.
    pub purpose: String,
    /// Keys whose metadata was updated.
    pub updated_keys: Vec<String>,
}

impl GdprStore {
    /// Every key currently owned by `subject` (from the metadata index,
    /// falling back to a scan when indexing is disabled — the "partial
    /// compliance" path).
    ///
    /// # Errors
    ///
    /// Returns storage or corruption errors.
    pub fn keys_of_subject(&self, subject: &str) -> Result<Vec<String>> {
        let _timed = self.rights_timing.keysof.start_timer();
        if self.policy.maintain_indexes {
            return Ok(self.index.keys_of_subject(subject));
        }
        let mut keys = Vec::new();
        self.for_each_governed(|key, meta| {
            if meta.subject == subject {
                keys.push(key.to_string());
            }
        })?;
        keys.sort();
        Ok(keys)
    }

    /// The stored items behind `keys` (sorted, as [`Self::keys_of_subject`]
    /// returns them), in key order: metadata plus the value, which can be
    /// a plain string or a multi-field record. A key that vanished (erased,
    /// or past its retention deadline — the engine expires lazily on read)
    /// yields no item.
    ///
    /// The per-key reads — one engine visit each, value and metadata from
    /// one entry — are batched by index segment: keys are grouped with
    /// [`crate::index::ShardedMetadataIndex::shard_of`] and each group is
    /// read under a single segment-lock acquisition (the same segment →
    /// engine lock order every mutation bracket uses) instead of paying
    /// one bracket per item.
    fn load_items(&self, keys: &[String]) -> Result<Vec<SubjectDataItem>> {
        let mut by_shard: Vec<Vec<&str>> = vec![Vec::new(); self.index.segment_count()];
        for key in keys {
            by_shard[self.index.shard_of(key)].push(key);
        }
        let mut items = Vec::with_capacity(keys.len());
        for (shard, group) in by_shard.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.index.with_segment(shard, |_segment| -> Result<()> {
                for &key in group {
                    // One engine visit per key: the metadata, and the value
                    // in whichever of its two shapes it has.
                    let read = self.kv.read(key, ValuePart::Fetch)?;
                    let Some(encoded) = read.governed else {
                        continue;
                    };
                    let metadata = Self::decode_metadata(key, &encoded)?;
                    let (value, fields) = match read.value {
                        Some(Value::Hash(fields)) => (None, Some(fields)),
                        Some(other) => (Some(other.into_string(key)?), None),
                        None => (None, None),
                    };
                    items.push(SubjectDataItem {
                        key: key.to_string(),
                        value,
                        fields,
                        metadata,
                    });
                }
                Ok(())
            })?;
        }
        items.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(items)
    }

    /// Article 15: produce the full access report for a subject.
    ///
    /// # Errors
    ///
    /// Returns storage or corruption errors.
    pub fn right_of_access(
        &self,
        ctx: &AccessContext,
        subject: &str,
    ) -> Result<SubjectAccessReport> {
        let op = self.begin(Operation::RightsRequest, ctx, None);
        let items = self.load_items(&self.keys_of_subject(subject)?)?;
        let detail = format!("art.15 access request: {} items", items.len());
        self.complete(&op, subject, &detail)?;
        Ok(SubjectAccessReport {
            subject: subject.to_string(),
            generated_at_ms: op.now,
            items,
        })
    }

    /// Article 17: erase every key belonging to `subject`.
    ///
    /// Under a strict policy the accompanying journal compaction runs
    /// synchronously so no tombstone of the personal data survives in the
    /// AOF (the §4.3 concern); under an eventual policy the compaction is
    /// left to the next scheduled rewrite.
    ///
    /// # Errors
    ///
    /// Returns storage or audit errors.
    pub fn right_to_erasure(&self, ctx: &AccessContext, subject: &str) -> Result<ErasureReport> {
        let _timed = self.rights_timing.erase.start_timer();
        let op = self.begin(Operation::RightsRequest, ctx, None);
        let mut erased = Vec::new();
        for key in self.keys_of_subject(subject)? {
            if self.purge(&key, false)? {
                erased.push(key);
            }
        }

        let journal_records_scrubbed = if self.policy.scrub_aof_on_erasure && !erased.is_empty() {
            self.kv.rewrite_aof()?
        } else {
            0
        };

        self.stats
            .erased_by_request
            .fetch_add(erased.len() as u64, Ordering::Relaxed);
        let detail = format!(
            "art.17 erasure: {} keys erased, {journal_records_scrubbed} journal records scrubbed",
            erased.len()
        );
        self.complete(&op, subject, &detail)?;

        Ok(ErasureReport {
            subject: subject.to_string(),
            erased_keys: erased,
            journal_records_scrubbed,
            completed_in_real_time: self.policy.erasure_response.is_real_time()
                && self.policy.scrub_aof_on_erasure,
        })
    }

    /// Article 20: export all of a subject's data as machine-readable JSON.
    ///
    /// The document is streamed into one buffer by the chunked renderer in
    /// [`crate::export`] — the same renderer the paged wire form uses — so
    /// a monolithic export is exactly the concatenation of all pages.
    ///
    /// # Errors
    ///
    /// Returns storage or corruption errors.
    pub fn right_to_portability(&self, ctx: &AccessContext, subject: &str) -> Result<String> {
        let page = self.export(ctx, subject, None, None)?;
        debug_assert!(page.next_cursor.is_none(), "unpaged export must complete");
        Ok(page.chunk)
    }

    /// Article 20, paged: render one page of the portability export.
    ///
    /// `cursor` is `None` for the first page; subsequent pages pass the
    /// cursor returned by the previous one. `count` bounds the number of
    /// subject keys consumed by this page (clamped to at least 1).
    /// Concatenating every page's `chunk` in order yields exactly the
    /// monolithic [`Self::right_to_portability`] document; see
    /// [`ExportCursor`] for the resumption semantics under concurrent
    /// erasure.
    ///
    /// # Errors
    ///
    /// Returns storage or corruption errors.
    pub fn export_page(
        &self,
        ctx: &AccessContext,
        subject: &str,
        cursor: Option<&ExportCursor>,
        count: usize,
    ) -> Result<ExportPage> {
        self.export(ctx, subject, cursor, Some(count.max(1)))
    }

    /// One portability request: the whole document (`max_keys` is `None`)
    /// or the page of at most `max_keys` subject keys after `resume`.
    fn export(
        &self,
        ctx: &AccessContext,
        subject: &str,
        resume: Option<&ExportCursor>,
        max_keys: Option<usize>,
    ) -> Result<ExportPage> {
        let _timed = self.rights_timing.export.start_timer();
        let op = self.begin(Operation::RightsRequest, ctx, None);
        let mut chunk = String::with_capacity(1024);
        if resume.is_none() {
            export::write_export_header(&mut chunk, subject, op.now);
        }

        let keys = self.keys_of_subject(subject)?;
        let start = match resume {
            Some(cursor) => keys.partition_point(|k| k.as_str() <= cursor.last_key.as_str()),
            None => 0,
        };
        let end = max_keys.map_or(keys.len(), |max| keys.len().min(start + max));
        let page_keys = &keys[start..end];

        let emitted_before = resume.map_or(0, |c| c.emitted);
        let mut emitted = emitted_before;
        for item in self.load_items(page_keys)? {
            export::write_export_item(
                &mut chunk,
                emitted,
                &item.key,
                &item.metadata,
                item.value.as_deref(),
                item.fields.as_ref(),
            );
            emitted += 1;
        }
        let items_rendered = emitted - emitted_before;

        let (next_cursor, detail) = if end < keys.len() {
            let last_key = page_keys
                .last()
                .expect("non-final page consumed at least one key")
                .clone();
            (
                Some(ExportCursor { emitted, last_key }),
                format!("art.20 portability export page: {items_rendered} items, continued"),
            )
        } else {
            export::write_export_footer(&mut chunk, emitted);
            let detail = match max_keys {
                Some(_) => {
                    format!("art.20 portability export page: {items_rendered} items, complete")
                }
                None => format!("art.20 portability export: {items_rendered} items"),
            };
            (None, detail)
        };
        self.complete(&op, subject, &detail)?;
        Ok(ExportPage {
            chunk,
            next_cursor,
            items_rendered,
        })
    }

    /// Article 21: record an objection against `purpose` on every key of
    /// `subject`. Subsequent reads under that purpose are refused.
    ///
    /// # Errors
    ///
    /// Returns storage or corruption errors.
    pub fn right_to_object(
        &self,
        ctx: &AccessContext,
        subject: &str,
        purpose: &str,
    ) -> Result<ObjectionReport> {
        let _timed = self.rights_timing.object.start_timer();
        // The record names the purpose objected to, not the requester's.
        let op = Op {
            purpose,
            ..self.begin(Operation::RightsRequest, ctx, None)
        };
        let mut updated = Vec::new();
        for key in self.keys_of_subject(subject)? {
            // Bracketed read-modify-write of the key's metadata, so a
            // racing put/erasure of the same key cannot interleave with
            // the objection.
            let objected = self
                .index
                .with_key_segment(&key, |segment| -> Result<bool> {
                    let Some(mut meta) = self.load_metadata(&key)? else {
                        return Ok(false);
                    };
                    meta.object_to(purpose);
                    self.store_metadata(&key, &meta)?;
                    if self.policy.maintain_indexes {
                        segment.remove_purpose(&key, purpose);
                    }
                    // The cached metadata predates the objection; drop it
                    // so the next read re-admits the objecting copy.
                    self.hot.invalidate(&key);
                    Ok(true)
                })?;
            if objected {
                updated.push(key);
            }
        }
        let detail = format!("art.21 objection recorded on {} keys", updated.len());
        self.complete(&op, subject, &detail)?;
        Ok(ObjectionReport {
            subject: subject.to_string(),
            purpose: purpose.to_string(),
            updated_keys: updated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Grant;
    use crate::metadata::Region;
    use crate::policy::CompliancePolicy;
    use crate::GdprError;
    use audit::sink::MemorySink;
    use kvstore::clock::SimClock;
    use kvstore::config::StoreConfig;

    fn ctx() -> AccessContext {
        AccessContext::new("app", "billing")
    }

    /// Drive a paged export to completion, returning the concatenated
    /// chunks and the number of pages.
    fn paged_export(store: &GdprStore, subject: &str, count: usize) -> (String, usize) {
        let mut out = String::new();
        let mut cursor: Option<ExportCursor> = None;
        let mut pages = 0;
        loop {
            let page = store
                .export_page(&ctx(), subject, cursor.as_ref(), count)
                .unwrap();
            out.push_str(&page.chunk);
            pages += 1;
            match page.next_cursor {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        (out, pages)
    }

    fn store_with_data(policy: CompliancePolicy) -> GdprStore {
        let store = GdprStore::open_in_memory(policy).unwrap();
        store.grant(Grant::new("app", "billing"));
        store.grant(Grant::new("app", "analytics"));
        let alice = PersonalMetadata::new("alice")
            .with_purpose("billing")
            .with_purpose("analytics")
            .with_recipient("payments-inc")
            .with_location(Region::Eu);
        let bob = PersonalMetadata::new("bob")
            .with_purpose("billing")
            .with_location(Region::Eu);
        store
            .put(
                &ctx(),
                "user:alice:email",
                b"alice@example.com".to_vec(),
                alice.clone(),
            )
            .unwrap();
        store
            .put(&ctx(), "user:alice:address", b"1 Main St".to_vec(), alice)
            .unwrap();
        store
            .put(&ctx(), "user:bob:email", b"bob@example.com".to_vec(), bob)
            .unwrap();
        store
    }

    #[test]
    fn right_of_access_returns_all_subject_items() {
        let store = store_with_data(CompliancePolicy::strict());
        let report = store.right_of_access(&ctx(), "alice").unwrap();
        assert_eq!(report.subject, "alice");
        assert_eq!(report.items.len(), 2);
        assert!(report.items.iter().all(|i| i.metadata.subject == "alice"));
        assert!(report
            .items
            .iter()
            .any(|i| i.value == Some(b"alice@example.com".to_vec())));
        // Bob's report only sees bob's data.
        assert_eq!(store.right_of_access(&ctx(), "bob").unwrap().items.len(), 1);
        // Unknown subject: empty report, not an error.
        assert!(store
            .right_of_access(&ctx(), "carol")
            .unwrap()
            .items
            .is_empty());
    }

    #[test]
    fn right_to_erasure_removes_data_metadata_and_index_entries() {
        let store = store_with_data(CompliancePolicy::strict());
        let report = store.right_to_erasure(&ctx(), "alice").unwrap();
        assert_eq!(report.erased_keys.len(), 2);
        assert!(report.completed_in_real_time);
        assert!(
            report.journal_records_scrubbed > 0,
            "strict policy scrubs the journal"
        );
        assert_eq!(store.get(&ctx(), "user:alice:email").unwrap(), None);
        assert!(store.keys_of_subject("alice").unwrap().is_empty());
        // Bob is untouched.
        assert_eq!(
            store.get(&ctx(), "user:bob:email").unwrap(),
            Some(b"bob@example.com".to_vec())
        );
        assert_eq!(store.stats().erased_by_request, 2);
        // Erasing again is a no-op.
        assert!(store
            .right_to_erasure(&ctx(), "alice")
            .unwrap()
            .erased_keys
            .is_empty());
    }

    #[test]
    fn erasure_under_eventual_policy_defers_journal_scrub() {
        let store = store_with_data(CompliancePolicy::eventual());
        let report = store.right_to_erasure(&ctx(), "alice").unwrap();
        assert_eq!(report.erased_keys.len(), 2);
        assert!(!report.completed_in_real_time);
        assert_eq!(report.journal_records_scrubbed, 0);
    }

    #[test]
    fn portability_export_is_valid_jsonish_and_complete() {
        let store = store_with_data(CompliancePolicy::strict());
        let json = store.right_to_portability(&ctx(), "alice").unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"subject\":\"alice\""));
        assert!(json.contains("alice@example.com"));
        assert!(json.contains("payments-inc"));
        assert!(json.contains("\"item_count\":2"));
        assert!(
            !json.contains("bob@example.com"),
            "other subjects' data must not leak"
        );
    }

    #[test]
    fn one_export_carries_strings_and_records_and_surfaces_engine_errors() {
        use kvstore::commands::Command;

        let store = store_with_data(CompliancePolicy::strict());
        let alice = PersonalMetadata::new("alice").with_purpose("billing");
        let profile = BTreeMap::from([
            ("city".to_string(), b"Paris".to_vec()),
            ("name".to_string(), b"Alice".to_vec()),
        ]);
        store
            .put_record(&ctx(), "user:alice:profile", &profile, alice)
            .unwrap();

        // Both shapes of value, each read whole by its one visit.
        let report = store.right_of_access(&ctx(), "alice").unwrap();
        let shapes: Vec<_> = report
            .items
            .iter()
            .map(|item| {
                (
                    item.key.as_str(),
                    item.value.is_some(),
                    item.fields.as_ref(),
                )
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("user:alice:address", true, None),
                ("user:alice:email", true, None),
                ("user:alice:profile", false, Some(&profile)),
            ]
        );
        let json = store.right_to_portability(&ctx(), "alice").unwrap();
        assert!(json.contains("alice@example.com") && json.contains("Paris"));
        assert!(json.contains("\"item_count\":3"), "{json}");

        // An engine error is the request's error, not an item left out or
        // exported without its value: here a key of alice's whose value the
        // engine holds as a set, which no export shape can carry.
        let stray = "user:alice:email";
        store.kv.delete(stray).unwrap();
        let sadd = Command::SAdd {
            key: stray.to_string(),
            member: b"member".to_vec(),
        };
        store.kv.execute(sadd).unwrap();
        let govern = Command::Govern {
            key: stray.to_string(),
            governed: PersonalMetadata::new("alice").encode().into(),
        };
        store.kv.execute(govern).unwrap();
        for result in [
            store.right_to_portability(&ctx(), "alice").map(drop),
            store.right_of_access(&ctx(), "alice").map(drop),
        ] {
            assert!(
                matches!(
                    result,
                    Err(GdprError::Store(kvstore::StoreError::WrongType { .. }))
                ),
                "{result:?}"
            );
        }
    }

    #[test]
    fn paged_export_concatenates_to_the_monolithic_document() {
        // Pin the clock so the monolithic and paged runs stamp the same
        // generated_at_ms into the envelope header.
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::eventual(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .shards(4)
                .clock(clock),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing"));
        for i in 0..37 {
            let meta = PersonalMetadata::new("alice").with_purpose("billing");
            store
                .put(&ctx(), &format!("user:alice:{i:03}"), vec![b'x'; 40], meta)
                .unwrap();
        }
        let monolithic = store.right_to_portability(&ctx(), "alice").unwrap();
        for count in [1, 5, 36, 37, 100] {
            let (paged, pages) = paged_export(&store, "alice", count);
            assert_eq!(paged, monolithic, "count={count}");
            assert_eq!(pages, 37usize.div_ceil(count).max(1), "count={count}");
        }
        // Unknown subject: a single page closing an empty envelope.
        let (empty, pages) = paged_export(&store, "nobody", 10);
        assert_eq!(pages, 1);
        assert_eq!(empty, store.right_to_portability(&ctx(), "nobody").unwrap());
        assert!(empty.contains("\"items\":[]"));
        assert!(empty.contains("\"item_count\":0"));
    }

    #[test]
    fn erasure_racing_a_paged_export_omits_but_never_serves_erased_keys() {
        let store = store_with_data(CompliancePolicy::strict());
        // Page 1: one key consumed, cursor handed out.
        let first = store.export_page(&ctx(), "alice", None, 1).unwrap();
        assert_eq!(first.items_rendered, 1);
        let cursor = first.next_cursor.clone().expect("more pages pending");
        // Alice is erased between pages.
        store.right_to_erasure(&ctx(), "alice").unwrap();
        // Resuming must close the envelope without serving erased data and
        // without double-counting: item_count reflects what was rendered.
        let last = store
            .export_page(&ctx(), "alice", Some(&cursor), 10)
            .unwrap();
        assert_eq!(last.items_rendered, 0);
        assert!(last.next_cursor.is_none());
        assert!(!last.chunk.contains("alice@example.com"));
        assert!(!last.chunk.contains("1 Main St"));
        let document = format!("{}{}", first.chunk, last.chunk);
        assert!(document.ends_with("\"item_count\":1}"), "{document}");
    }

    #[test]
    fn export_omits_keys_past_an_unfired_retention_deadline() {
        // A subject whose keys straddle an expired-but-unfired deadline:
        // one key outlives the export, one is past its TTL but the active
        // expiry cycle has not run. Both export paths must omit the
        // expired item (the engine expires lazily on read).
        let clock = SimClock::new(1_000_000);
        let store = GdprStore::open(
            CompliancePolicy::strict(),
            StoreConfig::in_memory()
                .aof_in_memory()
                .shards(2)
                .clock(clock.clone()),
            Box::new(MemorySink::new()),
        )
        .unwrap();
        store.grant(Grant::new("app", "billing"));
        let durable = PersonalMetadata::new("erin").with_purpose("billing");
        let fleeting = PersonalMetadata::new("erin")
            .with_purpose("billing")
            .with_ttl_millis(5_000);
        store
            .put(&ctx(), "user:erin:keep", b"keep-me".to_vec(), durable)
            .unwrap();
        store
            .put(&ctx(), "user:erin:gone", b"drop-me".to_vec(), fleeting)
            .unwrap();
        // Cross the deadline without running the expiry cycle (no tick()).
        clock.advance_millis(6_000);
        let monolithic = store.right_to_portability(&ctx(), "erin").unwrap();
        assert!(monolithic.contains("keep-me"));
        assert!(!monolithic.contains("drop-me"), "{monolithic}");
        assert!(monolithic.contains("\"item_count\":1"));
        let (paged, _) = paged_export(&store, "erin", 1);
        assert_eq!(paged, monolithic);
    }

    #[test]
    fn objection_blocks_the_purpose_going_forward() {
        let store = store_with_data(CompliancePolicy::strict());
        let analytics = AccessContext::new("app", "analytics");
        // Works before the objection.
        assert!(store.get(&analytics, "user:alice:email").is_ok());
        let report = store.right_to_object(&ctx(), "alice", "analytics").unwrap();
        assert_eq!(report.updated_keys.len(), 2);
        // Blocked afterwards.
        let err = store.get(&analytics, "user:alice:email").unwrap_err();
        assert!(matches!(err, GdprError::PurposeViolation { .. }));
        // Billing still works.
        assert!(store.get(&ctx(), "user:alice:email").is_ok());
        // Purpose index no longer lists alice's keys under analytics.
        assert!(!store
            .index
            .keys_for_purpose("analytics")
            .iter()
            .any(|k| k.contains("alice")));
    }

    #[test]
    fn rights_requests_are_audited() {
        let store = store_with_data(CompliancePolicy::strict());
        store.right_of_access(&ctx(), "alice").unwrap();
        store.right_to_erasure(&ctx(), "alice").unwrap();
        let trail = store.audit_trail().unwrap().join("\n");
        assert!(trail.contains("art.15"));
        assert!(trail.contains("art.17"));
    }

    #[test]
    fn subject_lookup_without_index_falls_back_to_scan() {
        // Eventual policy keeps indexes; build a policy without them.
        let mut policy = CompliancePolicy::eventual();
        policy.maintain_indexes = false;
        policy.enforce_access_control = false;
        let store = GdprStore::open_in_memory(policy).unwrap();
        let meta = PersonalMetadata::new("dora").with_purpose("billing");
        store
            .put(&ctx(), "user:dora:email", b"d@e.f".to_vec(), meta)
            .unwrap();
        assert_eq!(
            store.keys_of_subject("dora").unwrap(),
            vec!["user:dora:email"]
        );
        let report = store.right_of_access(&ctx(), "dora").unwrap();
        assert_eq!(report.items.len(), 1);
    }
}
