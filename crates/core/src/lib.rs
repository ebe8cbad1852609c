//! The GDPR compliance layer — the primary contribution of the paper
//! *"Analyzing the Impact of GDPR on Storage Systems"* (HotStorage '19),
//! reproduced over a Redis-like Rust storage engine.
//!
//! The paper distils the 31 storage-relevant GDPR articles into six
//! features a compliant store must provide (its Table 1):
//!
//! | Feature | Module |
//! |---|---|
//! | Timely deletion (Art. 5, 13, 17) | [`retention`] |
//! | Monitoring & logging (Art. 5, 30, 33, 34) | audit integration in [`store`] |
//! | Indexing via metadata (Art. 5, 15, 20, 21) | [`metadata`], [`index`] |
//! | Access control (Art. 25, 32) | [`acl`] |
//! | Encryption (Art. 25, 32) | at rest via the engine device layer; in transit, Figure 1's tunnel only; server sockets are plaintext until ROADMAP direction 4 |
//! | Manage data location (Art. 46) | [`location`] |
//!
//! [`store::GdprStore`] wraps the engine and enforces all of them on every
//! operation; [`rights`] implements the data-subject rights (access,
//! erasure, portability, objection); [`breach`] supports Article 33/34
//! notification; [`policy`] captures the paper's *compliance spectrum*
//! (real-time vs eventual, full vs partial) as a configuration value; and
//! [`compliance`] renders the Table 1 self-assessment.
//!
//! # Sharded routing
//!
//! The compliance layer is built for multi-core parallelism, mirroring the
//! engine's hash-sharded keyspace (see `kvstore::shard`). A per-key
//! operation takes **no global exclusive lock**:
//!
//! * the engine routes the key to its owning shard (shard lock only);
//! * the [`index::ShardedMetadataIndex`] locks just the key's segment,
//!   aligned with the engine's routing; cross-shard queries (the
//!   data-subject rights) merge over all segments;
//! * compliance counters ([`store::GdprStats`]) and ACL check counters are
//!   lock-free atomics, and the ACL table itself is behind a read-write
//!   lock (checks share a read guard; grants/revocations are rare);
//! * audit emission goes through [`audit_pipeline::AuditPipeline`]'s
//!   per-shard buffers; only the *real-time* compliance policy pays the
//!   serialized write-through, because durable-before-acknowledge is that
//!   policy's defining guarantee.
//!
//! `tests/concurrent_stress.rs` races puts, gets, erasures and objections
//! on one store and checks the index, audit chain and values afterwards.
//!
//! # Quick start
//!
//! ```
//! use gdpr_core::acl::Grant;
//! use gdpr_core::metadata::{PersonalMetadata, Region};
//! use gdpr_core::policy::CompliancePolicy;
//! use gdpr_core::store::{AccessContext, GdprStore};
//!
//! # fn main() -> Result<(), gdpr_core::GdprError> {
//! let store = GdprStore::open_in_memory(CompliancePolicy::strict())?;
//! let ctx = AccessContext::new("web-frontend", "account-management");
//!
//! // Under a strict policy access is closed by default (Article 25);
//! // open it explicitly for this actor and purpose.
//! store.grant(Grant::new("web-frontend", "account-management"))?;
//!
//! // Personal data always carries metadata: owner, purposes, TTL, location.
//! let meta = PersonalMetadata::new("alice")
//!     .with_purpose("account-management")
//!     .with_ttl_millis(30 * 24 * 3600 * 1000)
//!     .with_location(Region::Eu);
//! store.put(&ctx, "user:alice:email", b"alice@example.com".to_vec(), meta)?;
//!
//! assert_eq!(store.get(&ctx, "user:alice:email")?, Some(b"alice@example.com".to_vec()));
//!
//! // The right to be forgotten erases every key owned by the subject.
//! let report = store.right_to_erasure(&ctx, "alice")?;
//! assert_eq!(report.erased_keys.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod acl;
pub mod audit_pipeline;
pub mod breach;
pub mod compliance;
pub mod export;
pub mod hot_cache;
pub mod index;
pub mod location;
pub mod metadata;
pub mod policy;
pub mod retention;
pub mod rights;
pub mod store;

use std::error::Error;
use std::fmt;

/// Errors returned by the GDPR compliance layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum GdprError {
    /// The underlying storage engine failed.
    Store(kvstore::StoreError),
    /// The audit subsystem failed: the trail's sink, or a record that does
    /// not decode, when the trail is flushed or archived. Under real-time
    /// compliance an operation's evidence commits in the engine journal,
    /// so an operation whose evidence cannot commit fails with
    /// [`GdprError::Store`] instead, and has no effect.
    Audit(audit::AuditError),
    /// The access-control layer denied the operation.
    AccessDenied {
        /// Actor that attempted the operation.
        actor: String,
        /// Purpose the actor claimed.
        purpose: String,
        /// Why it was denied.
        reason: String,
    },
    /// The operation conflicted with the data subject's recorded objections
    /// (Article 21) or the purpose limitation (Article 5).
    PurposeViolation {
        /// Key whose metadata blocked the operation.
        key: String,
        /// The offending purpose.
        purpose: String,
    },
    /// The requested placement violates the location policy (Article 46).
    LocationViolation {
        /// Region that was requested or recorded.
        region: String,
    },
    /// Personal data was stored without the metadata GDPR requires.
    MissingMetadata {
        /// Key that has no metadata.
        key: String,
    },
    /// A malformed metadata record was encountered.
    CorruptMetadata {
        /// Key whose metadata could not be decoded.
        key: String,
        /// Decoder detail.
        detail: String,
    },
    /// The operation referenced a key that holds no value (e.g. replacing
    /// the metadata of a key that was never stored or already erased).
    NoSuchKey {
        /// The missing key.
        key: String,
    },
    /// A real-time audit policy (`audit_flush`) commits each operation's
    /// evidence in the engine journal, so the store refuses to open it
    /// without a journal or with one that does not sync every commit
    /// (`journal_fsync` other than `always`).
    RealTimeAuditWithoutJournal {
        /// Whether the engine configuration has a journal.
        journal: bool,
        /// The policy's `journal_fsync`.
        journal_fsync: kvstore::aof::FsyncPolicy,
    },
}

impl fmt::Display for GdprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdprError::Store(e) => write!(f, "storage error: {e}"),
            GdprError::Audit(e) => write!(f, "audit error: {e}"),
            GdprError::AccessDenied {
                actor,
                purpose,
                reason,
            } => {
                write!(
                    f,
                    "access denied for actor {actor:?} (purpose {purpose:?}): {reason}"
                )
            }
            GdprError::PurposeViolation { key, purpose } => {
                write!(f, "purpose {purpose:?} is not permitted for key {key:?}")
            }
            GdprError::LocationViolation { region } => {
                write!(
                    f,
                    "data placement in region {region:?} violates the location policy"
                )
            }
            GdprError::MissingMetadata { key } => {
                write!(f, "key {key:?} holds personal data without GDPR metadata")
            }
            GdprError::CorruptMetadata { key, detail } => {
                write!(f, "metadata for key {key:?} is corrupt: {detail}")
            }
            GdprError::NoSuchKey { key } => {
                write!(f, "key {key:?} does not exist")
            }
            GdprError::RealTimeAuditWithoutJournal {
                journal,
                journal_fsync,
            } => write!(
                f,
                "a real-time audit_flush commits evidence in the engine journal, so it needs \
                 a journal with journal_fsync = always (journal: {}, journal_fsync: {})",
                if *journal { "present" } else { "none" },
                journal_fsync.as_str()
            ),
        }
    }
}

impl Error for GdprError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GdprError::Store(e) => Some(e),
            GdprError::Audit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kvstore::StoreError> for GdprError {
    fn from(e: kvstore::StoreError) -> Self {
        match e {
            // The archive is the audit trail: its failure is an audit error.
            kvstore::StoreError::Archive(cause) => match cause.downcast::<audit::AuditError>() {
                Ok(audit) => GdprError::Audit(*audit),
                Err(other) => GdprError::Store(kvstore::StoreError::Archive(other)),
            },
            other => GdprError::Store(other),
        }
    }
}

impl From<audit::AuditError> for GdprError {
    fn from(e: audit::AuditError) -> Self {
        GdprError::Audit(e)
    }
}

/// Result alias for the compliance layer.
pub type Result<T> = std::result::Result<T, GdprError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_covers_variants() {
        let errs: Vec<GdprError> = vec![
            GdprError::Store(kvstore::StoreError::Config("x".into())),
            GdprError::Audit(audit::AuditError::Corrupt("y".into())),
            GdprError::AccessDenied {
                actor: "a".into(),
                purpose: "p".into(),
                reason: "no grant".into(),
            },
            GdprError::PurposeViolation {
                key: "k".into(),
                purpose: "ads".into(),
            },
            GdprError::LocationViolation {
                region: "US".into(),
            },
            GdprError::MissingMetadata { key: "k".into() },
            GdprError::CorruptMetadata {
                key: "k".into(),
                detail: "short".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_for_wrapped_errors() {
        let e = GdprError::from(kvstore::StoreError::Config("x".into()));
        assert!(e.source().is_some());
        let e = GdprError::AccessDenied {
            actor: "a".into(),
            purpose: "p".into(),
            reason: "r".into(),
        };
        assert!(e.source().is_none());
    }
}
