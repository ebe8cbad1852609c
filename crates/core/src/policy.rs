//! The compliance spectrum (§3.2 of the paper) as configuration.
//!
//! The paper's central observation is that GDPR compliance is not a fixed
//! target but a spectrum along two axes:
//!
//! * **response time** — *real-time* compliance performs the GDPR task
//!   (logging, deleting, answering a subject request) synchronously;
//!   *eventual* compliance batches it and accepts a bounded lag;
//! * **capability** — *full* compliance supports a feature natively,
//!   *partial* compliance leans on external infrastructure or policy.
//!
//! [`CompliancePolicy`] holds only knobs the store enforces: each field
//! other than `name` changes what a `GdprStore` does, and
//! `tests/policy_fields.rs` flips each one and asserts what changes.
//! Where the policy sits on both axes is derived from those fields by
//! [`crate::compliance::assess`]. The three presets are the points Table 1
//! assesses; Figure 1's `strict-gdpr` column opens its store under
//! [`CompliancePolicy::strict`], and its other columns configure the engine
//! directly.

use audit::policy::FlushPolicy;
use kvstore::aof::FsyncPolicy;
use kvstore::expire::ExpiryMode;

use crate::location::LocationPolicy;

/// Full configuration of the compliance layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompliancePolicy {
    /// Short name used in benchmark output ("unmodified", "strict", …).
    pub name: String,

    // ---- monitoring & logging (Art. 30/33/34) ----
    /// Whether every interaction (including reads) is audited.
    pub monitor_all_operations: bool,
    /// How the audit trail is flushed.
    pub audit_flush: FlushPolicy,

    // ---- timely deletion (Art. 5/13/17) ----
    /// How expired data is erased.
    pub expiry_mode: ExpiryMode,
    /// Whether deleted data must also be scrubbed from the AOF promptly
    /// (per-deletion compaction) rather than waiting for a periodic rewrite.
    pub scrub_aof_on_erasure: bool,

    // ---- persistence / encryption at rest (Art. 32) ----
    /// Fsync policy for the engine journal.
    pub journal_fsync: FsyncPolicy,
    /// Encrypt everything persisted to the device (LUKS simulation).
    pub encrypt_at_rest: bool,

    // ---- access control & purpose limitation (Art. 5/21/25/32) ----
    /// Enforce actor/purpose grants on every operation.
    pub enforce_access_control: bool,
    /// Enforce the per-key purpose whitelist and objections.
    pub enforce_purpose_limitation: bool,

    // ---- metadata indexing (Art. 15/17/20/21) ----
    /// Maintain the subject index (subject → keys), so the rights find a
    /// subject's keys without a full scan.
    pub maintain_indexes: bool,

    // ---- data location (Art. 46) ----
    /// Placement restrictions.
    pub location_policy: LocationPolicy,
}

impl CompliancePolicy {
    /// The unmodified baseline: no GDPR features at all (stock engine,
    /// lazy expiry, nothing audited, nothing encrypted).
    #[must_use]
    pub fn unmodified() -> Self {
        CompliancePolicy {
            name: "unmodified".into(),
            monitor_all_operations: false,
            audit_flush: FlushPolicy::Manual,
            expiry_mode: ExpiryMode::LazyProbabilistic,
            scrub_aof_on_erasure: false,
            journal_fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: false,
            enforce_access_control: false,
            enforce_purpose_limitation: false,
            maintain_indexes: false,
            location_policy: LocationPolicy::unrestricted(),
        }
    }

    /// Eventual compliance: every feature on, but the audit trail synced
    /// once per second, the journal fsynced once per second and erased data
    /// left in the journal until its next rewrite. The paper's
    /// "AOF w/ everysec"-style relaxed point.
    #[must_use]
    pub fn eventual() -> Self {
        CompliancePolicy {
            name: "eventual".into(),
            monitor_all_operations: true,
            audit_flush: FlushPolicy::every_second(),
            expiry_mode: ExpiryMode::Strict,
            scrub_aof_on_erasure: false,
            journal_fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: true,
            enforce_access_control: true,
            enforce_purpose_limitation: true,
            maintain_indexes: true,
            location_policy: LocationPolicy::eu_only(),
        }
    }

    /// Strict compliance: real-time everything the store enforces — each
    /// operation's evidence committed in a journal fsynced on every commit,
    /// strict expiry, erased data scrubbed from the journal before the
    /// erasure returns, encryption at rest. The paper's "AOF w/ sync" +
    /// "LUKS" end of the spectrum; nothing here seals the wire (the
    /// paper's TLS), so Table 1 scores its encryption partial.
    #[must_use]
    pub fn strict() -> Self {
        CompliancePolicy {
            name: "strict".into(),
            monitor_all_operations: true,
            audit_flush: FlushPolicy::real_time(),
            expiry_mode: ExpiryMode::Strict,
            scrub_aof_on_erasure: true,
            journal_fsync: FsyncPolicy::Always,
            encrypt_at_rest: true,
            enforce_access_control: true,
            enforce_purpose_limitation: true,
            maintain_indexes: true,
            location_policy: LocationPolicy::eu_only(),
        }
    }

    /// Builder-style: rename the policy (useful for benchmark variants).
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::{assess, StorageFeature, SupportLevel};

    #[test]
    fn presets_sit_where_expected_on_the_spectrum() {
        // No preset is strict in the paper's sense: encryption stops at rest.
        for policy in [
            CompliancePolicy::unmodified(),
            CompliancePolicy::eventual(),
            CompliancePolicy::strict(),
        ] {
            assert!(!assess(&policy).strict, "{}", policy.name);
        }
        let real_time = |policy: CompliancePolicy| -> Vec<bool> {
            assess(&policy)
                .features
                .iter()
                .map(|f| f.real_time)
                .collect()
        };
        assert!(real_time(CompliancePolicy::strict()).iter().all(|&r| r));
        assert_eq!(
            real_time(CompliancePolicy::eventual()),
            [false, false, true, true, true, true],
            "eventual deletion and logging lag"
        );
    }

    #[test]
    fn unmodified_supports_little() {
        let assessment = assess(&CompliancePolicy::unmodified());
        assert_eq!(
            assessment.support_for(StorageFeature::Encryption),
            SupportLevel::None
        );
        assert_eq!(
            assessment.support_for(StorageFeature::TimelyDeletion),
            SupportLevel::Partial,
            "lazy expiry is only partial support"
        );
    }

    #[test]
    fn strict_supports_everything_but_encryption_fully() {
        let assessment = assess(&CompliancePolicy::strict());
        assert_eq!(assessment.features.len(), 6, "the paper's six features");
        for f in &assessment.features {
            let want = if f.feature == StorageFeature::Encryption {
                SupportLevel::Partial
            } else {
                SupportLevel::Full
            };
            assert_eq!(f.support, want, "{}", f.feature.name());
        }
    }

    #[test]
    fn named_builder_changes_only_the_name() {
        let p = CompliancePolicy::strict().named("strict-variant");
        assert_eq!(p.name, "strict-variant");
        assert_eq!(p.named("strict"), CompliancePolicy::strict());
    }
}
