//! Per-key GDPR metadata.
//!
//! Articles 5 (purpose limitation), 13/15 (information duties), 17/5(e)
//! (storage limitation), 21 (objections), 30 (records of processing) and 46
//! (transfer restrictions) all require the store to know, for every piece
//! of personal data: whose it is, why it may be processed, who received it,
//! how long it may be kept, and where it may live. [`PersonalMetadata`]
//! carries exactly those attributes and serializes into a compact record
//! the engine stores in the value's own entry; [`MetaView`] answers a
//! read's questions from that record without decoding it.

use std::collections::BTreeSet;

use kvstore::serialize::{put_str, put_u64, Reader};

/// Identifier of a data subject (the natural person the data is about).
pub type SubjectId = String;

/// Geographic region where data physically resides (Article 46 transfer
/// control). Coarse on purpose: the paper only needs "can I prove where it
/// is and restrict where it goes".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[non_exhaustive]
pub enum Region {
    /// The European Union / EEA.
    #[default]
    Eu,
    /// United States.
    Us,
    /// Asia-Pacific.
    Apac,
    /// Anywhere else.
    Other,
}

impl Region {
    /// Stable string form used in serialization and reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Region::Eu => "eu",
            Region::Us => "us",
            Region::Apac => "apac",
            Region::Other => "other",
        }
    }

    /// Parse the stable string form.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "eu" => Region::Eu,
            "us" => Region::Us,
            "apac" => Region::Apac,
            "other" => Region::Other,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The GDPR attributes attached to one stored value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonalMetadata {
    /// The data subject this value is about.
    pub subject: SubjectId,
    /// Purposes for which processing is permitted (whitelist, Article 5).
    pub purposes: BTreeSet<String>,
    /// Purposes the subject has objected to (blacklist, Article 21).
    pub objections: BTreeSet<String>,
    /// Where the data came from (directly from the subject, a third party…).
    pub origin: String,
    /// Recipients / processors the data has been disclosed to (Article 15's
    /// "recipients to whom it has been disclosed").
    pub recipients: BTreeSet<String>,
    /// Absolute expiry deadline in Unix milliseconds (storage limitation);
    /// `None` only for data under a "policy" TTL evaluated elsewhere.
    pub expires_at_ms: Option<u64>,
    /// Region where the value is stored.
    pub location: Region,
    /// Creation timestamp in Unix milliseconds (0 = set by the store at
    /// insertion time).
    pub created_at_ms: u64,
    /// Whether this value may be used in automated decision-making
    /// (Article 15(1)(h) / 22).
    pub automated_decisions: bool,
}

impl PersonalMetadata {
    /// Metadata for a value owned by `subject`, with no purposes yet.
    #[must_use]
    pub fn new(subject: &str) -> Self {
        PersonalMetadata {
            subject: subject.to_string(),
            purposes: BTreeSet::new(),
            objections: BTreeSet::new(),
            origin: "data-subject".to_string(),
            recipients: BTreeSet::new(),
            expires_at_ms: None,
            location: Region::Eu,
            created_at_ms: 0,
            automated_decisions: false,
        }
    }

    /// Builder-style: allow processing under `purpose`.
    #[must_use]
    pub fn with_purpose(mut self, purpose: &str) -> Self {
        self.purposes.insert(purpose.to_string());
        self
    }

    /// Builder-style: record an objection against `purpose`.
    #[must_use]
    pub fn with_objection(mut self, purpose: &str) -> Self {
        self.objections.insert(purpose.to_string());
        self
    }

    /// Builder-style: set an absolute expiry deadline.
    #[must_use]
    pub fn with_expiry_at(mut self, at_ms: u64) -> Self {
        self.expires_at_ms = Some(at_ms);
        self
    }

    /// Builder-style: set a TTL relative to the (to-be-assigned) creation
    /// time. Resolved to an absolute deadline when the store inserts it.
    #[must_use]
    pub fn with_ttl_millis(mut self, ttl_ms: u64) -> Self {
        // Marked by storing the TTL negated into expires_at with created==0;
        // the store resolves it. Simpler: keep the relative value and let
        // the store add the clock. We store it as-is and flag with
        // created_at_ms == 0.
        self.expires_at_ms = Some(ttl_ms);
        self
    }

    /// Builder-style: set the storage region.
    #[must_use]
    pub fn with_location(mut self, region: Region) -> Self {
        self.location = region;
        self
    }

    /// Builder-style: set the origin of the data.
    #[must_use]
    pub fn with_origin(mut self, origin: &str) -> Self {
        self.origin = origin.to_string();
        self
    }

    /// Builder-style: record a recipient/processor disclosure.
    #[must_use]
    pub fn with_recipient(mut self, recipient: &str) -> Self {
        self.recipients.insert(recipient.to_string());
        self
    }

    /// Builder-style: mark the value as used in automated decision-making.
    #[must_use]
    pub fn with_automated_decisions(mut self, enabled: bool) -> Self {
        self.automated_decisions = enabled;
        self
    }

    /// Whether processing under `purpose` is permitted: it must be
    /// whitelisted and not objected to.
    #[must_use]
    pub fn allows_purpose(&self, purpose: &str) -> bool {
        self.purposes.contains(purpose) && !self.objections.contains(purpose)
    }

    /// Record an objection (Article 21). Returns `true` if it was new.
    pub fn object_to(&mut self, purpose: &str) -> bool {
        self.objections.insert(purpose.to_string())
    }

    /// Serialize into the byte form the engine entry keeps.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        // Sized up front: the record moves into the keyspace as it is, so
        // it should neither grow by doubling nor carry spare capacity.
        let sets = [&self.purposes, &self.objections, &self.recipients];
        let strings = self.subject.len() + self.origin.len() + self.location.as_str().len();
        let items = |set: &BTreeSet<String>| set.iter().map(|item| 4 + item.len()).sum::<usize>();
        let set_bytes: usize = sets.iter().map(|set| 8 + items(set)).sum();
        let deadline = if self.expires_at_ms.is_some() { 9 } else { 1 };
        let mut out = Vec::with_capacity(3 * 4 + strings + 8 + deadline + 1 + set_bytes);
        put_str(&mut out, &self.subject);
        put_str(&mut out, &self.origin);
        put_str(&mut out, self.location.as_str());
        put_u64(&mut out, self.created_at_ms);
        match self.expires_at_ms {
            Some(at) => {
                out.push(1);
                put_u64(&mut out, at);
            }
            None => out.push(0),
        }
        out.push(u8::from(self.automated_decisions));
        for set in sets {
            put_u64(&mut out, set.len() as u64);
            for item in set {
                put_str(&mut out, item);
            }
        }
        debug_assert_eq!(out.len(), out.capacity());
        out
    }

    /// Decode the byte form [`Self::encode`] writes.
    ///
    /// Returns `None` if the buffer is malformed.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        const CTX: &str = "gdpr metadata";
        let mut r = Reader::new(bytes);
        let subject = r.get_str(CTX).ok()?;
        let origin = r.get_str(CTX).ok()?;
        let location = Region::parse(&r.get_str(CTX).ok()?)?;
        let created_at_ms = r.get_u64(CTX).ok()?;
        let expires_at_ms = match r.get_u8(CTX).ok()? {
            1 => Some(r.get_u64(CTX).ok()?),
            0 => None,
            _ => return None,
        };
        let automated_decisions = match r.get_u8(CTX).ok()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let mut sets: Vec<BTreeSet<String>> = Vec::with_capacity(3);
        for _ in 0..3 {
            let n = r.get_u64(CTX).ok()?;
            let mut set = BTreeSet::new();
            for _ in 0..n {
                set.insert(r.get_str(CTX).ok()?);
            }
            sets.push(set);
        }
        let recipients = sets.pop()?;
        let objections = sets.pop()?;
        let purposes = sets.pop()?;
        if !r.is_at_end() {
            return None;
        }
        Some(PersonalMetadata {
            subject,
            purposes,
            objections,
            origin,
            recipients,
            expires_at_ms,
            location,
            created_at_ms,
            automated_decisions,
        })
    }
}

/// A borrowed view of the byte form [`PersonalMetadata::encode`] writes:
/// what authorizing a read asks of a key's metadata — whose data it is,
/// whether a purpose may process it, until when — answered in place,
/// without the allocations of a decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaView<'a> {
    subject: &'a str,
    expires_at_ms: Option<u64>,
    /// The encoded purpose and objection sets: a count, then the items.
    purposes: &'a [u8],
    objections: &'a [u8],
}

const VIEW_CTX: &str = "gdpr metadata view";

impl<'a> MetaView<'a> {
    /// View `bytes`, after checking they are laid out as
    /// [`PersonalMetadata::encode`] lays them out. Returns `None` if they
    /// are not.
    #[must_use]
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let mut text = || std::str::from_utf8(r.get_slice(VIEW_CTX).ok()?).ok();
        let subject = text()?;
        text()?; // origin
        Region::parse(text()?)?;
        r.get_u64(VIEW_CTX).ok()?; // created_at_ms
        let expires_at_ms = match r.get_u8(VIEW_CTX).ok()? {
            1 => Some(r.get_u64(VIEW_CTX).ok()?),
            0 => None,
            _ => return None,
        };
        if r.get_u8(VIEW_CTX).ok()? > 1 {
            return None;
        }
        // Purposes, objections, recipients.
        let mut sets = [&bytes[..0]; 3];
        for set in &mut sets {
            *set = &bytes[bytes.len() - r.remaining()..];
            for _ in 0..r.get_u64(VIEW_CTX).ok()? {
                r.get_slice(VIEW_CTX).ok()?;
            }
        }
        r.is_at_end().then_some(MetaView {
            subject,
            expires_at_ms,
            purposes: sets[0],
            objections: sets[1],
        })
    }

    /// The data subject the value is about.
    #[must_use]
    pub fn subject(&self) -> &'a str {
        self.subject
    }

    /// The absolute retention deadline, if any.
    #[must_use]
    pub fn expires_at_ms(&self) -> Option<u64> {
        self.expires_at_ms
    }

    /// [`PersonalMetadata::allows_purpose`], on the encoded sets.
    #[must_use]
    pub fn allows_purpose(&self, purpose: &str) -> bool {
        set_contains(self.purposes, purpose) && !set_contains(self.objections, purpose)
    }
}

/// Whether the encoded set at the front of `set` (checked by
/// [`MetaView::parse`]) holds `item`.
fn set_contains(set: &[u8], item: &str) -> bool {
    let mut r = Reader::new(set);
    let items = r.get_u64(VIEW_CTX).unwrap_or(0);
    (0..items).any(|_| r.get_slice(VIEW_CTX).is_ok_and(|s| s == item.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PersonalMetadata {
        PersonalMetadata::new("alice")
            .with_purpose("billing")
            .with_purpose("analytics")
            .with_objection("marketing")
            .with_origin("signup-form")
            .with_recipient("payment-processor")
            .with_expiry_at(1_900_000_000_000)
            .with_location(Region::Eu)
            .with_automated_decisions(true)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut m = sample();
        m.created_at_ms = 1_800_000_000_000;
        let decoded = PersonalMetadata::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_with_minimal_fields() {
        let m = PersonalMetadata::new("bob");
        assert_eq!(PersonalMetadata::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let encoded = sample().encode();
        assert!(PersonalMetadata::decode(&encoded[..encoded.len() - 1]).is_none());
        let mut extended = encoded;
        extended.push(0);
        assert!(PersonalMetadata::decode(&extended).is_none());
        assert!(PersonalMetadata::decode(&[]).is_none());
    }

    #[test]
    fn purpose_checks_respect_whitelist_and_objections() {
        let m = sample();
        assert!(m.allows_purpose("billing"));
        assert!(m.allows_purpose("analytics"));
        assert!(
            !m.allows_purpose("marketing"),
            "not whitelisted AND objected"
        );
        assert!(!m.allows_purpose("profiling"), "not whitelisted");
        // Objection against a whitelisted purpose blocks it.
        let m2 = sample().with_objection("analytics");
        assert!(!m2.allows_purpose("analytics"));
    }

    #[test]
    fn the_view_answers_what_the_decode_answers() {
        let mut objected = sample().with_objection("analytics");
        objected.created_at_ms = 7;
        let minimal = PersonalMetadata::new("bob");
        for meta in [sample(), objected, minimal] {
            let encoded = meta.encode();
            let view = MetaView::parse(&encoded).unwrap();
            assert_eq!(view.subject(), meta.subject);
            assert_eq!(view.expires_at_ms(), meta.expires_at_ms);
            for purpose in ["billing", "analytics", "marketing", "profiling", ""] {
                assert_eq!(
                    view.allows_purpose(purpose),
                    meta.allows_purpose(purpose),
                    "{purpose}"
                );
            }
        }
        // Whatever the decode refuses, the view refuses.
        let encoded = sample().encode();
        for cut in 0..encoded.len() {
            assert!(MetaView::parse(&encoded[..cut]).is_none(), "cut {cut}");
        }
        let mut extended = encoded;
        extended.push(0);
        assert!(MetaView::parse(&extended).is_none());
    }

    #[test]
    fn object_to_is_idempotent_in_effect() {
        let mut m = sample();
        assert!(m.object_to("analytics"));
        assert!(!m.object_to("analytics"));
        assert!(!m.allows_purpose("analytics"));
    }

    #[test]
    fn region_parse_roundtrip() {
        for r in [Region::Eu, Region::Us, Region::Apac, Region::Other] {
            assert_eq!(Region::parse(r.as_str()), Some(r));
            assert_eq!(format!("{r}"), r.as_str());
        }
        assert_eq!(Region::parse("mars"), None);
        assert_eq!(Region::default(), Region::Eu);
    }
}
