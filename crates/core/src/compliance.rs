//! The compliance matrix: Table 1 of the paper as code.
//!
//! The paper's Table 1 maps each storage-relevant GDPR article to the
//! storage feature that satisfies it. [`ARTICLES`] reproduces the table,
//! and [`assess`] combines it with a [`CompliancePolicy`] to produce the
//! self-assessment a deployment can print (or a regulator can ask for):
//! per article, which feature is needed, how completely this configuration
//! supports it, and whether it is handled in real time. The assessment
//! reads only policy fields the store enforces, so it scores what the
//! store does: encryption is at rest only, and reads partial.

use kvstore::expire::ExpiryMode;

use crate::policy::CompliancePolicy;

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

/// The six storage features of §3.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFeature {
    /// TTL-driven erasure of data whose purpose has lapsed.
    TimelyDeletion,
    /// Audit trail of all data- and control-path interactions.
    MonitoringLogging,
    /// Secondary indexes over metadata (subject → keys, expiry deadlines).
    MetadataIndexing,
    /// Fine-grained, dynamic access control.
    AccessControl,
    /// Encryption at rest and in transit.
    Encryption,
    /// Knowing and restricting where data physically lives.
    ManageDataLocation,
}

impl StorageFeature {
    /// The six features, in the paper's order.
    pub const ALL: [StorageFeature; 6] = [
        StorageFeature::TimelyDeletion,
        StorageFeature::MonitoringLogging,
        StorageFeature::MetadataIndexing,
        StorageFeature::AccessControl,
        StorageFeature::Encryption,
        StorageFeature::ManageDataLocation,
    ];

    /// The feature name as used in the paper's Table 1.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StorageFeature::TimelyDeletion => "Timely deletion",
            StorageFeature::MonitoringLogging => "Monitoring & logging",
            StorageFeature::MetadataIndexing => "Metadata indexing",
            StorageFeature::AccessControl => "Access control",
            StorageFeature::Encryption => "Encryption",
            StorageFeature::ManageDataLocation => "Manage data location",
        }
    }
}

/// One row of Table 1: a GDPR article, its key requirement and the storage
/// features it maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArticleMapping {
    /// Article number as printed in the paper (e.g. "5.1", "17", "33/34").
    pub article: &'static str,
    /// The article's short title.
    pub title: &'static str,
    /// The key requirement, paraphrased from the paper.
    pub requirement: &'static str,
    /// The storage features that satisfy the requirement.
    pub features: &'static [StorageFeature],
}

/// Table 1 of the paper.
pub const ARTICLES: &[ArticleMapping] = &[
    ArticleMapping {
        article: "5.1",
        title: "Purpose limitation",
        requirement: "Data must be collected and used for specific purposes",
        features: &[StorageFeature::MetadataIndexing],
    },
    ArticleMapping {
        article: "5.1(e)",
        title: "Storage limitation",
        requirement: "Data should not be stored beyond its purpose",
        features: &[StorageFeature::TimelyDeletion],
    },
    ArticleMapping {
        article: "5.2",
        title: "Accountability",
        requirement: "Controller must be able to demonstrate compliance",
        features: &[
            StorageFeature::TimelyDeletion,
            StorageFeature::MonitoringLogging,
            StorageFeature::MetadataIndexing,
            StorageFeature::AccessControl,
            StorageFeature::Encryption,
            StorageFeature::ManageDataLocation,
        ],
    },
    ArticleMapping {
        article: "13",
        title: "Conditions for data collection",
        requirement: "Get user's consent on how their data would be managed",
        features: &[
            StorageFeature::TimelyDeletion,
            StorageFeature::MonitoringLogging,
            StorageFeature::MetadataIndexing,
            StorageFeature::AccessControl,
            StorageFeature::Encryption,
            StorageFeature::ManageDataLocation,
        ],
    },
    ArticleMapping {
        article: "15",
        title: "Right of access by users",
        requirement: "Provide users a timely access to all their data",
        features: &[StorageFeature::MetadataIndexing],
    },
    ArticleMapping {
        article: "17",
        title: "Right to be forgotten",
        requirement: "Find and delete groups of data",
        features: &[StorageFeature::TimelyDeletion],
    },
    ArticleMapping {
        article: "20",
        title: "Right to data portability",
        requirement: "Transfer data to other controllers upon request",
        features: &[StorageFeature::MetadataIndexing],
    },
    ArticleMapping {
        article: "21",
        title: "Right to object",
        requirement: "Data should not be used for any objected reasons",
        features: &[StorageFeature::MetadataIndexing],
    },
    ArticleMapping {
        article: "25",
        title: "Protection by design and by default",
        requirement: "Safeguard and restrict access to data",
        features: &[StorageFeature::AccessControl, StorageFeature::Encryption],
    },
    ArticleMapping {
        article: "30",
        title: "Records of processing activity",
        requirement: "Store audit logs of all operations",
        features: &[StorageFeature::MonitoringLogging],
    },
    ArticleMapping {
        article: "32",
        title: "Security of data",
        requirement: "Implement appropriate data security measures",
        features: &[StorageFeature::AccessControl, StorageFeature::Encryption],
    },
    ArticleMapping {
        article: "33/34",
        title: "Notify data breaches",
        requirement: "Share insights and audit trails from concerned systems",
        features: &[StorageFeature::MonitoringLogging],
    },
    ArticleMapping {
        article: "46",
        title: "Transfers subject to safeguards",
        requirement: "Control where the data resides",
        features: &[StorageFeature::ManageDataLocation],
    },
];

/// How a given policy supports one feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureAssessment {
    /// The feature being assessed.
    pub feature: StorageFeature,
    /// How completely it is supported.
    pub support: SupportLevel,
    /// Whether the feature operates in real time under this policy.
    pub real_time: bool,
}

/// The full self-assessment for a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplianceAssessment {
    /// Name of the assessed policy.
    pub policy_name: String,
    /// Per-feature assessment.
    pub features: Vec<FeatureAssessment>,
    /// Whether the configuration meets the paper's definition of strict
    /// compliance: every feature full and real-time.
    pub strict: bool,
}

/// Assess a policy against the six features.
#[must_use]
pub fn assess(policy: &CompliancePolicy) -> ComplianceAssessment {
    let features: Vec<FeatureAssessment> = StorageFeature::ALL
        .into_iter()
        .map(|feature| assess_feature(policy, feature))
        .collect();
    let strict = features
        .iter()
        .all(|f| f.support == SupportLevel::Full && f.real_time);
    ComplianceAssessment {
        policy_name: policy.name.clone(),
        features,
        strict,
    }
}

/// How `policy` supports `feature`, and whether in real time.
fn assess_feature(policy: &CompliancePolicy, feature: StorageFeature) -> FeatureAssessment {
    use SupportLevel::{Full, None, Partial};
    let full_or = |on: bool, otherwise: SupportLevel| if on { Full } else { otherwise };
    let (support, real_time) = match feature {
        StorageFeature::TimelyDeletion => {
            let strict = policy.expiry_mode == ExpiryMode::Strict;
            (
                full_or(strict, Partial),
                strict && policy.scrub_aof_on_erasure,
            )
        }
        StorageFeature::MonitoringLogging => (
            full_or(policy.monitor_all_operations, None),
            policy.monitor_all_operations && policy.audit_flush.is_real_time(),
        ),
        StorageFeature::MetadataIndexing => (
            full_or(policy.maintain_indexes, Partial),
            policy.maintain_indexes,
        ),
        StorageFeature::AccessControl => (
            match (
                policy.enforce_access_control,
                policy.enforce_purpose_limitation,
            ) {
                (true, true) => Full,
                (true, false) => Partial,
                (false, _) => None,
            },
            policy.enforce_access_control,
        ),
        // The journal is sealed; no socket is, so this is never full.
        StorageFeature::Encryption => (
            if policy.encrypt_at_rest {
                Partial
            } else {
                None
            },
            policy.encrypt_at_rest,
        ),
        StorageFeature::ManageDataLocation => {
            let restricted = !policy.location_policy.is_unrestricted();
            (full_or(restricted, Partial), restricted)
        }
    };
    FeatureAssessment {
        feature,
        support,
        real_time,
    }
}

impl ComplianceAssessment {
    /// Support level for one feature.
    #[must_use]
    pub fn support_for(&self, feature: StorageFeature) -> SupportLevel {
        self.features
            .iter()
            .find(|f| f.feature == feature)
            .map_or(SupportLevel::None, |f| f.support)
    }

    /// Articles whose required features are not fully supported under this
    /// policy — the deployment's compliance gaps.
    #[must_use]
    pub fn gaps(&self) -> Vec<&'static ArticleMapping> {
        ARTICLES
            .iter()
            .filter(|mapping| {
                mapping
                    .features
                    .iter()
                    .any(|f| self.support_for(*f) != SupportLevel::Full)
            })
            .collect()
    }

    /// Render the Table 1-style matrix as fixed-width text.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Compliance assessment for policy {:?} (strict: {})\n\n",
            self.policy_name, self.strict
        ));
        out.push_str(&format!(
            "{:<22} {:<8} {:<9}\n",
            "Feature", "Support", "Real-time"
        ));
        out.push_str(&format!("{:-<22} {:-<8} {:-<9}\n", "", "", ""));
        for f in &self.features {
            out.push_str(&format!(
                "{:<22} {:<8} {:<9}\n",
                f.feature.name(),
                f.support.label(),
                if f.real_time { "yes" } else { "no" }
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<8} {:<36} {:<55} Features\n",
            "Article", "Title", "Key requirement"
        ));
        out.push_str(&format!("{:-<8} {:-<36} {:-<55} {:-<30}\n", "", "", "", ""));
        for mapping in ARTICLES {
            let features: Vec<&str> = mapping.features.iter().map(|f| f.name()).collect();
            out.push_str(&format!(
                "{:<8} {:<36} {:<55} {}\n",
                mapping.article,
                mapping.title,
                mapping.requirement,
                features.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_the_papers_rows() {
        // The paper's Table 1 lists 13 article rows.
        assert_eq!(ARTICLES.len(), 13);
        assert!(ARTICLES.iter().any(|a| a.article == "17"));
        assert!(ARTICLES.iter().any(|a| a.article == "33/34"));
        // Article 17 maps to timely deletion.
        let art17 = ARTICLES.iter().find(|a| a.article == "17").unwrap();
        assert_eq!(art17.features, &[StorageFeature::TimelyDeletion]);
    }

    /// The articles that need encryption: the gaps of a store that seals
    /// its journal and not its wire.
    const ENCRYPTION_GAPS: [&str; 4] = ["5.2", "13", "25", "32"];

    fn gap_articles(assessment: &ComplianceAssessment) -> Vec<&'static str> {
        assessment.gaps().iter().map(|m| m.article).collect()
    }

    #[test]
    fn strict_policy_gaps_are_the_encryption_articles() {
        let assessment = assess(&CompliancePolicy::strict());
        assert!(!assessment.strict);
        assert_eq!(gap_articles(&assessment), ENCRYPTION_GAPS);
        assert!(assessment.features.iter().all(|f| f.real_time));
        assert_eq!(
            assessment.support_for(StorageFeature::Encryption),
            SupportLevel::Partial
        );
    }

    #[test]
    fn unmodified_policy_has_many_gaps() {
        let assessment = assess(&CompliancePolicy::unmodified());
        assert!(!assessment.strict);
        assert_eq!(
            assessment.gaps().len(),
            ARTICLES.len(),
            "every article is a gap for stock Redis"
        );
        assert_eq!(
            assessment.support_for(StorageFeature::Encryption),
            SupportLevel::None
        );
    }

    #[test]
    fn eventual_policy_is_full_but_not_real_time_everywhere() {
        let assessment = assess(&CompliancePolicy::eventual());
        assert!(!assessment.strict);
        assert_eq!(
            gap_articles(&assessment),
            ENCRYPTION_GAPS,
            "eventual compliance is still *full* support, but for encryption"
        );
        let monitoring = assessment
            .features
            .iter()
            .find(|f| f.feature == StorageFeature::MonitoringLogging)
            .unwrap();
        assert_eq!(monitoring.support, SupportLevel::Full);
        assert!(
            !monitoring.real_time,
            "everysec flushing is not real-time compliance"
        );
    }

    #[test]
    fn rendered_table_mentions_every_feature_and_article() {
        let text = assess(&CompliancePolicy::strict()).render_table();
        for feature in [
            "Timely deletion",
            "Monitoring & logging",
            "Metadata indexing",
            "Access control",
            "Encryption",
            "Manage data location",
        ] {
            assert!(text.contains(feature), "missing {feature}");
        }
        for mapping in ARTICLES {
            assert!(
                text.contains(mapping.article),
                "missing article {}",
                mapping.article
            );
        }
    }

    #[test]
    fn support_level_order() {
        assert!(SupportLevel::Full > SupportLevel::Partial);
        assert!(SupportLevel::Partial > SupportLevel::None);
        assert_eq!(SupportLevel::Full.label(), "full");
    }

    #[test]
    fn feature_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> = StorageFeature::ALL
            .iter()
            .map(StorageFeature::name)
            .collect();
        assert_eq!(names.len(), 6);
    }
}
