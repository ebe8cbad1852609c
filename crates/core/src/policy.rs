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
//! [`CompliancePolicy`] states where a deployment sits on both axes for
//! each of the six storage features, and the presets reproduce the exact
//! configurations measured in Figure 1.

use audit::policy::FlushPolicy;
use kvstore::aof::FsyncPolicy;
use kvstore::expire::ExpiryMode;

use crate::location::LocationPolicy;

/// How quickly a GDPR task is completed (the paper's real-time vs eventual
/// distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseMode {
    /// Synchronously, before the triggering operation is acknowledged.
    RealTime,
    /// Asynchronously, within the given lag bound (milliseconds).
    Eventual {
        /// Maximum acceptable lag in milliseconds.
        lag_ms: u64,
    },
}

impl ResponseMode {
    /// Whether this is the strict end of the spectrum.
    #[must_use]
    pub fn is_real_time(&self) -> bool {
        matches!(self, ResponseMode::RealTime)
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ResponseMode::RealTime => "real-time".to_string(),
            ResponseMode::Eventual { lag_ms } => format!("eventual (≤{lag_ms} ms)"),
        }
    }
}

/// How completely a feature is supported (the paper's full vs partial
/// distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SupportLevel {
    /// Not supported at all.
    None,
    /// Supported only with external infrastructure or manual policy.
    Partial,
    /// Supported natively by the storage system.
    Full,
}

impl SupportLevel {
    /// Human-readable label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SupportLevel::None => "none",
            SupportLevel::Partial => "partial",
            SupportLevel::Full => "full",
        }
    }
}

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
    /// Whether audit records are hash-chained for tamper evidence.
    pub audit_chaining: bool,

    // ---- timely deletion (Art. 5/13/17) ----
    /// How expired data is erased.
    pub expiry_mode: ExpiryMode,
    /// Response mode for erasure requests (right to be forgotten).
    pub erasure_response: ResponseMode,
    /// Whether deleted data must also be scrubbed from the AOF promptly
    /// (per-deletion compaction) rather than waiting for a periodic rewrite.
    pub scrub_aof_on_erasure: bool,

    // ---- persistence / encryption at rest (Art. 32) ----
    /// Whether the engine journals writes at all.
    pub journal_writes: bool,
    /// Fsync policy for the engine journal.
    pub journal_fsync: FsyncPolicy,
    /// Encrypt everything persisted to the device (LUKS simulation).
    pub encrypt_at_rest: bool,
    /// Encrypt client/server traffic (TLS simulation); consumed by the
    /// benchmark harness when it builds the network path.
    pub encrypt_in_transit: bool,

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
    /// no persistence). This is Figure 1's "Unmodified" configuration.
    #[must_use]
    pub fn unmodified() -> Self {
        CompliancePolicy {
            name: "unmodified".into(),
            monitor_all_operations: false,
            audit_flush: FlushPolicy::Manual,
            audit_chaining: false,
            expiry_mode: ExpiryMode::LazyProbabilistic,
            erasure_response: ResponseMode::Eventual {
                lag_ms: 6 * 30 * 24 * 3600 * 1000,
            },
            scrub_aof_on_erasure: false,
            journal_writes: false,
            journal_fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: false,
            encrypt_in_transit: false,
            enforce_access_control: false,
            enforce_purpose_limitation: false,
            maintain_indexes: false,
            location_policy: LocationPolicy::unrestricted(),
        }
    }

    /// Eventual compliance: every feature on, but logging batched once per
    /// second, lazy AOF scrubbing and eventual erasure. The paper's
    /// "AOF w/ everysec"-style relaxed point.
    #[must_use]
    pub fn eventual() -> Self {
        CompliancePolicy {
            name: "eventual".into(),
            monitor_all_operations: true,
            audit_flush: FlushPolicy::every_second(),
            audit_chaining: true,
            expiry_mode: ExpiryMode::Strict,
            erasure_response: ResponseMode::Eventual { lag_ms: 3_600_000 },
            scrub_aof_on_erasure: false,
            journal_writes: true,
            journal_fsync: FsyncPolicy::EverySec,
            encrypt_at_rest: true,
            encrypt_in_transit: true,
            enforce_access_control: true,
            enforce_purpose_limitation: true,
            maintain_indexes: true,
            location_policy: LocationPolicy::eu_only(),
        }
    }

    /// Strict compliance: real-time everything — synchronous audit fsync,
    /// strict expiry, immediate AOF scrubbing, encryption everywhere. The
    /// paper's "AOF w/ sync" + "LUKS + TLS" end of the spectrum.
    #[must_use]
    pub fn strict() -> Self {
        CompliancePolicy {
            name: "strict".into(),
            monitor_all_operations: true,
            audit_flush: FlushPolicy::real_time(),
            audit_chaining: true,
            expiry_mode: ExpiryMode::Strict,
            erasure_response: ResponseMode::RealTime,
            scrub_aof_on_erasure: true,
            journal_writes: true,
            journal_fsync: FsyncPolicy::Always,
            encrypt_at_rest: true,
            encrypt_in_transit: true,
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

    /// Whether every feature operates in real time (the paper's definition
    /// of *strict* compliance = full + real-time).
    #[must_use]
    pub fn is_strict(&self) -> bool {
        self.monitor_all_operations
            && self.audit_flush.is_real_time()
            && self.expiry_mode == ExpiryMode::Strict
            && self.erasure_response.is_real_time()
            && self.scrub_aof_on_erasure
            && self.encrypt_at_rest
            && self.encrypt_in_transit
            && self.enforce_access_control
            && self.enforce_purpose_limitation
            && self.maintain_indexes
    }

    /// Per-feature support level, used by the Table 1 self-assessment.
    #[must_use]
    pub fn support_levels(&self) -> Vec<(&'static str, SupportLevel)> {
        vec![
            (
                "Timely deletion",
                match self.expiry_mode {
                    ExpiryMode::Strict => SupportLevel::Full,
                    ExpiryMode::LazyProbabilistic => SupportLevel::Partial,
                },
            ),
            (
                "Monitoring & logging",
                if self.monitor_all_operations {
                    SupportLevel::Full
                } else if self.journal_writes {
                    SupportLevel::Partial
                } else {
                    SupportLevel::None
                },
            ),
            (
                "Metadata indexing",
                if self.maintain_indexes {
                    SupportLevel::Full
                } else {
                    SupportLevel::Partial
                },
            ),
            (
                "Access control",
                if self.enforce_access_control && self.enforce_purpose_limitation {
                    SupportLevel::Full
                } else if self.enforce_access_control {
                    SupportLevel::Partial
                } else {
                    SupportLevel::None
                },
            ),
            (
                "Encryption",
                match (self.encrypt_at_rest, self.encrypt_in_transit) {
                    (true, true) => SupportLevel::Full,
                    (false, false) => SupportLevel::None,
                    _ => SupportLevel::Partial,
                },
            ),
            (
                "Manage data location",
                if self.location_policy.is_unrestricted() {
                    SupportLevel::Partial
                } else {
                    SupportLevel::Full
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sit_where_expected_on_the_spectrum() {
        assert!(!CompliancePolicy::unmodified().is_strict());
        assert!(!CompliancePolicy::eventual().is_strict());
        assert!(CompliancePolicy::strict().is_strict());
    }

    #[test]
    fn unmodified_supports_little() {
        let levels = CompliancePolicy::unmodified().support_levels();
        let encryption = levels.iter().find(|(f, _)| *f == "Encryption").unwrap().1;
        assert_eq!(encryption, SupportLevel::None);
        let deletion = levels
            .iter()
            .find(|(f, _)| *f == "Timely deletion")
            .unwrap()
            .1;
        assert_eq!(
            deletion,
            SupportLevel::Partial,
            "lazy expiry is only partial support"
        );
    }

    #[test]
    fn strict_supports_everything_fully() {
        let levels = CompliancePolicy::strict().support_levels();
        assert!(
            levels.iter().all(|(_, l)| *l == SupportLevel::Full),
            "{levels:?}"
        );
        assert_eq!(levels.len(), 6, "the paper's six features");
    }

    #[test]
    fn response_mode_labels() {
        assert!(ResponseMode::RealTime.is_real_time());
        assert!(!(ResponseMode::Eventual { lag_ms: 5 }).is_real_time());
        assert!(ResponseMode::RealTime.label().contains("real"));
        assert!((ResponseMode::Eventual { lag_ms: 5 }).label().contains('5'));
    }

    #[test]
    fn support_levels_order() {
        assert!(SupportLevel::Full > SupportLevel::Partial);
        assert!(SupportLevel::Partial > SupportLevel::None);
        assert_eq!(SupportLevel::Full.label(), "full");
    }

    #[test]
    fn named_builder_changes_only_the_name() {
        let p = CompliancePolicy::strict().named("strict-variant");
        assert_eq!(p.name, "strict-variant");
        assert!(p.is_strict());
    }
}
