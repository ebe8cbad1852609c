//! The audit record: one structured entry per interaction with personal
//! data.
//!
//! Article 30 spells out what a record of processing must capture: the
//! operation, the categories of data touched, the purpose, the actor and
//! the time. [`AuditRecord`] carries those fields plus the outcome, so that
//! denied accesses (Article 25 enforcement) leave evidence too.

use std::fmt;

/// The kind of interaction being recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Operation {
    /// A data-path read (`GET`, `HGET`, `HGETALL`, scans…).
    Read,
    /// A data-path write (`SET`, `HSET`, …).
    Write,
    /// A deletion, whether explicit or TTL-driven.
    Delete,
    /// A TTL / retention-metadata change.
    ExpireUpdate,
    /// A metadata change (purposes, objections, location…).
    MetadataUpdate,
    /// An access-control change (grants, revocations).
    AccessControl,
    /// A data-subject rights request (Articles 15/17/20/21).
    RightsRequest,
    /// Engine-internal maintenance (AOF rewrite, snapshot, key rotation).
    Maintenance,
}

impl Operation {
    /// Short stable string used in the serialized form.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Operation::Read => "read",
            Operation::Write => "write",
            Operation::Delete => "delete",
            Operation::ExpireUpdate => "expire",
            Operation::MetadataUpdate => "metadata",
            Operation::AccessControl => "acl",
            Operation::RightsRequest => "rights",
            Operation::Maintenance => "maintenance",
        }
    }

    /// Parse the serialized form.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "read" => Operation::Read,
            "write" => Operation::Write,
            "delete" => Operation::Delete,
            "expire" => Operation::ExpireUpdate,
            "metadata" => Operation::MetadataUpdate,
            "acl" => Operation::AccessControl,
            "rights" => Operation::RightsRequest,
            "maintenance" => Operation::Maintenance,
            _ => return None,
        })
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the recorded interaction was allowed to proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// The operation completed.
    #[default]
    Allowed,
    /// The operation was rejected by access control or purpose limitation.
    Denied,
    /// The operation failed for an internal reason (I/O, corruption).
    Failed,
}

impl Outcome {
    /// Short stable string used in the serialized form.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Allowed => "allowed",
            Outcome::Denied => "denied",
            Outcome::Failed => "failed",
        }
    }

    /// Parse the serialized form.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "allowed" => Outcome::Allowed,
            "denied" => Outcome::Denied,
            "failed" => Outcome::Failed,
            _ => return None,
        })
    }
}

/// One entry in the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number assigned by the log.
    pub sequence: u64,
    /// Unix-millisecond timestamp of the interaction.
    pub timestamp_ms: u64,
    /// The acting entity (application id, processor, or "engine").
    pub actor: String,
    /// The kind of interaction.
    pub operation: Operation,
    /// The key (or other object) touched, if any.
    pub key: Option<String>,
    /// The data subject whose personal data was touched, if known.
    pub subject: Option<String>,
    /// The declared processing purpose, if any.
    pub purpose: Option<String>,
    /// Whether the operation was allowed, denied or failed.
    pub outcome: Outcome,
    /// Free-form detail (command name, byte counts, rights-request type…).
    pub detail: String,
}

impl AuditRecord {
    /// Create a record with the required fields; optional fields start
    /// empty and can be set with the builder-style methods.
    #[must_use]
    pub fn new(timestamp_ms: u64, actor: &str, operation: Operation) -> Self {
        AuditRecord {
            sequence: 0,
            timestamp_ms,
            actor: actor.to_string(),
            operation,
            key: None,
            subject: None,
            purpose: None,
            outcome: Outcome::Allowed,
            detail: String::new(),
        }
    }

    /// Builder-style: set the key.
    #[must_use]
    pub fn key(mut self, key: &str) -> Self {
        self.key = Some(key.to_string());
        self
    }

    /// Builder-style: set the data subject.
    #[must_use]
    pub fn subject(mut self, subject: &str) -> Self {
        self.subject = Some(subject.to_string());
        self
    }

    /// Builder-style: set the processing purpose.
    #[must_use]
    pub fn purpose(mut self, purpose: &str) -> Self {
        self.purpose = Some(purpose.to_string());
        self
    }

    /// Builder-style: set the outcome.
    #[must_use]
    pub fn outcome(mut self, outcome: Outcome) -> Self {
        self.outcome = outcome;
        self
    }

    /// Builder-style: set the free-form detail.
    #[must_use]
    pub fn detail(mut self, detail: &str) -> Self {
        self.detail = detail.to_string();
        self
    }

    /// Serialize to the single-line, pipe-separated representation used in
    /// the trail files. Fields containing `|` or newlines are escaped.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(self.line_len_hint());
        self.write_line(&mut line);
        line
    }

    /// [`Self::to_line`], rendered at the end of `out`: the log keeps its
    /// unwritten lines in one buffer and renders each in place.
    pub fn write_line(&self, out: &mut String) {
        out.reserve(self.line_len_hint());
        push_decimal(out, self.sequence);
        out.push('|');
        push_decimal(out, self.timestamp_ms);
        out.push('|');
        push_escaped(out, &self.actor);
        out.push('|');
        out.push_str(self.operation.as_str());
        for field in [&self.key, &self.subject, &self.purpose] {
            out.push('|');
            push_escaped(out, field.as_deref().unwrap_or(""));
        }
        out.push('|');
        out.push_str(self.outcome.as_str());
        out.push('|');
        push_escaped(out, &self.detail);
    }

    /// About how long the line is: exact but for the digits of the two
    /// numbers and whatever needs escaping.
    fn line_len_hint(&self) -> usize {
        let optional = |field: &Option<String>| field.as_ref().map_or(0, String::len);
        48 + self.actor.len()
            + optional(&self.key)
            + optional(&self.subject)
            + optional(&self.purpose)
            + self.detail.len()
    }

    /// Parse a line produced by [`Self::to_line`].
    ///
    /// Returns `None` for malformed lines (the reader surfaces that as a
    /// corruption error with context).
    #[must_use]
    pub fn from_line(line: &str) -> Option<Self> {
        fn unesc(s: &str) -> String {
            s.replace("\\n", "\n")
                .replace("\\p", "|")
                .replace("\\0", "\0")
                .replace("\\\\", "\\")
        }
        let parts: Vec<&str> = line.split('|').collect();
        if parts.len() != 9 {
            return None;
        }
        let opt = |s: &str| if s.is_empty() { None } else { Some(unesc(s)) };
        Some(AuditRecord {
            sequence: parts[0].parse().ok()?,
            timestamp_ms: parts[1].parse().ok()?,
            actor: unesc(parts[2]),
            operation: Operation::parse(parts[3])?,
            key: opt(parts[4]),
            subject: opt(parts[5]),
            purpose: opt(parts[6]),
            outcome: Outcome::parse(parts[7])?,
            detail: unesc(parts[8]),
        })
    }
}

/// Append `n` in decimal.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|d| char::from(*d)));
}

/// Append `field` with the separator, the line end, the escape character
/// itself and NUL (in a trail file a line that holds one is a torn line)
/// escaped. The common case has nothing to escape and is one copy.
fn push_escaped(out: &mut String, field: &str) {
    if !field.contains(['\\', '|', '\n', '\0']) {
        out.push_str(field);
        return;
    }
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            '\0' => out.push_str("\\0"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditRecord {
        AuditRecord::new(1_700_000_000_000, "ycsb-client-3", Operation::Read)
            .key("user:42:profile")
            .subject("subject-42")
            .purpose("analytics")
            .outcome(Outcome::Allowed)
            .detail("GET 118 bytes")
    }

    #[test]
    fn line_roundtrip() {
        let mut r = sample();
        r.sequence = 17;
        let parsed = AuditRecord::from_line(&r.to_line()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn roundtrip_with_escaping() {
        let mut r = sample().detail("weird|detail\nwith newline \\ and backslash, \0 too");
        r.actor = "pipe|actor".to_string();
        r.sequence = 1;
        let line = r.to_line();
        assert!(!line.contains(['\n', '\0']));
        assert_eq!(AuditRecord::from_line(&line).unwrap(), r);
    }

    #[test]
    fn empty_optional_fields_roundtrip_as_none() {
        let r = AuditRecord::new(5, "engine", Operation::Maintenance);
        let parsed = AuditRecord::from_line(&r.to_line()).unwrap();
        assert_eq!(parsed.key, None);
        assert_eq!(parsed.subject, None);
        assert_eq!(parsed.purpose, None);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(AuditRecord::from_line("").is_none());
        assert!(AuditRecord::from_line("1|2|3").is_none());
        assert!(AuditRecord::from_line("x|2|a|read|||allowed|d|extra").is_none());
        assert!(AuditRecord::from_line("1|2|a|bogusop||||allowed|d").is_none());
    }

    #[test]
    fn operation_and_outcome_parse_all_variants() {
        for op in [
            Operation::Read,
            Operation::Write,
            Operation::Delete,
            Operation::ExpireUpdate,
            Operation::MetadataUpdate,
            Operation::AccessControl,
            Operation::RightsRequest,
            Operation::Maintenance,
        ] {
            assert_eq!(Operation::parse(op.as_str()), Some(op));
            assert_eq!(format!("{op}"), op.as_str());
        }
        for oc in [Outcome::Allowed, Outcome::Denied, Outcome::Failed] {
            assert_eq!(Outcome::parse(oc.as_str()), Some(oc));
        }
        assert_eq!(Operation::parse("nope"), None);
        assert_eq!(Outcome::parse("nope"), None);
    }
}
