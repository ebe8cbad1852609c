//! The audit record: one structured entry per interaction with personal
//! data.
//!
//! Article 30 spells out what a record of processing must capture: the
//! operation, the categories of data touched, the purpose, the actor and
//! the time. [`AuditRecord`] carries those fields plus the outcome, so that
//! denied accesses (Article 25 enforcement) leave evidence too.

use std::borrow::Cow;
use std::fmt;

use crate::{AuditError, Result};

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

/// One entry in the audit trail, as the trail's readers hold it.
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

    /// The record as an event borrowing its fields: what renders its line
    /// and its evidence.
    #[must_use]
    pub fn event(&self) -> AuditEvent<'_> {
        AuditEvent {
            timestamp_ms: self.timestamp_ms,
            actor: &self.actor,
            operation: self.operation,
            key: self.key.as_deref(),
            subject: self.subject.as_deref(),
            purpose: self.purpose.as_deref(),
            outcome: self.outcome,
            detail: Detail::Text(&self.detail),
        }
    }

    /// Serialize to the single-line, pipe-separated representation used in
    /// the trail files. Fields containing `|` or newlines are escaped.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = Vec::new();
        self.event().write_line(self.sequence, &mut line);
        String::from_utf8(line).expect("a line of UTF-8 fields and ASCII escapes is UTF-8")
    }

    /// Parse a line produced by [`Self::to_line`].
    ///
    /// Returns `None` for malformed lines (the reader surfaces that as a
    /// corruption error with context), an escape the writer never makes
    /// among them.
    #[must_use]
    pub fn from_line(line: &str) -> Option<Self> {
        let mut parts = line.split('|');
        let mut next = || parts.next();
        let sequence = next()?.parse().ok()?;
        let timestamp_ms = next()?.parse().ok()?;
        let actor = unescape(next()?)?;
        let operation = Operation::parse(next()?)?;
        let mut optional = || -> Option<Option<String>> {
            let field = next()?;
            Some(if field.is_empty() {
                None
            } else {
                Some(unescape(field)?)
            })
        };
        let (key, subject, purpose) = (optional()?, optional()?, optional()?);
        let outcome = Outcome::parse(next()?)?;
        let detail = unescape(next()?)?;
        if next().is_some() {
            return None;
        }
        Some(AuditRecord {
            sequence,
            timestamp_ms,
            actor,
            operation,
            key,
            subject,
            purpose,
            outcome,
            detail,
        })
    }

    /// The record as the compact binary evidence a journal carries (see
    /// [`AuditEvent::encode`]).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.event().encode()
    }

    /// Decode what [`Self::encode`] produced, the evidence about `key`;
    /// the sequence number is 0.
    ///
    /// # Errors
    ///
    /// [`AuditError::Corrupt`] for bytes that are not one whole encoded
    /// record.
    pub fn decode(key: Option<&str>, bytes: &[u8]) -> Result<Self> {
        AuditEvent::decode(key, bytes).map(|event| event.to_record(0))
    }
}

/// What a record says beyond its fields: free text, or a count that is
/// rendered in place where the line or the evidence is written, so the
/// request path formats nothing.
#[derive(Debug, Clone, Copy)]
pub enum Detail<'a> {
    /// Free-form text.
    Text(&'a str),
    /// `GET {n} bytes`: a read that handed out `n` bytes.
    GetBytes(u64),
    /// `SET {n} bytes`: a write of `n` bytes.
    SetBytes(u64),
    /// `HMSET {n} fields`: a record of `n` fields written.
    HmsetFields(u64),
    /// `HMSET {n} fields (update)`: `n` fields of a stored record updated.
    HmsetUpdate(u64),
    /// `SCAN {n} keys`: a scan that listed `n` keys.
    ScanKeys(u64),
}

impl<'a> Detail<'a> {
    /// The detail's text, or a count's text before its number together
    /// with the number and the text after it.
    fn parts(&self) -> (&'a str, Option<(u64, &'static str)>) {
        match *self {
            Detail::Text(text) => (text, None),
            Detail::GetBytes(n) => ("GET ", Some((n, " bytes"))),
            Detail::SetBytes(n) => ("SET ", Some((n, " bytes"))),
            Detail::HmsetFields(n) => ("HMSET ", Some((n, " fields"))),
            Detail::HmsetUpdate(n) => ("HMSET ", Some((n, " fields (update)"))),
            Detail::ScanKeys(n) => ("SCAN ", Some((n, " keys"))),
        }
    }

    /// The detail as the text a trail line carries (unescaped).
    #[must_use]
    pub fn text(&self) -> Cow<'a, str> {
        match self.parts() {
            (text, None) => Cow::Borrowed(text),
            (before, Some((n, after))) => Cow::Owned(format!("{before}{n}{after}")),
        }
    }

    /// Render the detail as the last field of a trail line; a count has
    /// nothing to escape.
    fn write_field(&self, out: &mut Vec<u8>) {
        match self.parts() {
            (text, None) => push_escaped(out, text),
            (before, Some((n, after))) => {
                out.extend_from_slice(before.as_bytes());
                out.extend_from_slice(Decimal::new(n).as_bytes());
                out.extend_from_slice(after.as_bytes());
            }
        }
    }

    /// Append the detail as an evidence field: its length and its text.
    fn put_field(&self, out: &mut Vec<u8>) {
        match self.parts() {
            (text, None) => put_field(out, text),
            (before, Some((n, after))) => {
                let digits = Decimal::new(n);
                let digits = digits.as_bytes();
                let len = before.len() + digits.len() + after.len();
                out.extend_from_slice(&(len as u32).to_le_bytes());
                out.extend_from_slice(before.as_bytes());
                out.extend_from_slice(digits);
                out.extend_from_slice(after.as_bytes());
            }
        }
    }

    /// About how long the rendered detail is.
    fn len_hint(&self) -> usize {
        match self.parts() {
            (text, None) => text.len(),
            (before, Some((_, after))) => before.len() + 20 + after.len(),
        }
    }
}

/// Two details are equal when they render the same text: a count decoded
/// from evidence comes back as that text.
impl PartialEq for Detail<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.text() == other.text()
    }
}

impl Eq for Detail<'_> {}

/// One interaction as the request path describes it: every field borrowed
/// from the operation, and the detail typed. It writes the same trail line
/// and the same evidence bytes as the [`AuditRecord`] with these fields,
/// without that record being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent<'a> {
    /// Unix-millisecond timestamp of the interaction.
    pub timestamp_ms: u64,
    /// The acting entity.
    pub actor: &'a str,
    /// The kind of interaction.
    pub operation: Operation,
    /// The key touched, if any.
    pub key: Option<&'a str>,
    /// The data subject whose personal data was touched, if known.
    pub subject: Option<&'a str>,
    /// The declared processing purpose, if any.
    pub purpose: Option<&'a str>,
    /// Whether the operation was allowed, denied or failed.
    pub outcome: Outcome,
    /// What else the record says.
    pub detail: Detail<'a>,
}

impl<'a> AuditEvent<'a> {
    /// An allowed event with no key, subject, purpose or detail.
    #[must_use]
    pub fn new(timestamp_ms: u64, actor: &'a str, operation: Operation) -> Self {
        AuditEvent {
            timestamp_ms,
            actor,
            operation,
            key: None,
            subject: None,
            purpose: None,
            outcome: Outcome::Allowed,
            detail: Detail::Text(""),
        }
    }

    /// The trail line of this event at `sequence`, rendered at the end of
    /// `out`: byte for byte [`AuditRecord::to_line`] of the same fields.
    pub fn write_line(&self, sequence: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(Decimal::new(sequence).as_bytes());
        out.push(b'|');
        self.write_unsequenced(out);
    }

    /// The trail line less its sequence number and the `|` behind it:
    /// what a batch holds until the log numbers the line.
    pub fn write_unsequenced(&self, out: &mut Vec<u8>) {
        out.reserve(self.line_len_hint());
        out.extend_from_slice(Decimal::new(self.timestamp_ms).as_bytes());
        out.push(b'|');
        push_escaped(out, self.actor);
        out.push(b'|');
        out.extend_from_slice(self.operation.as_str().as_bytes());
        for field in [self.key, self.subject, self.purpose] {
            out.push(b'|');
            push_escaped(out, field.unwrap_or(""));
        }
        out.push(b'|');
        out.extend_from_slice(self.outcome.as_str().as_bytes());
        out.push(b'|');
        self.detail.write_field(out);
    }

    /// About how long the line is: exact but for the digits of the numbers
    /// and whatever needs escaping.
    fn line_len_hint(&self) -> usize {
        let optional = |field: Option<&str>| field.map_or(0, str::len);
        48 + self.actor.len()
            + optional(self.key)
            + optional(self.subject)
            + optional(self.purpose)
            + self.detail.len_hint()
    }

    /// The event as the compact binary evidence a journal carries:
    /// `timestamp (u64 LE) || operation (u8) || outcome (u8) || present
    /// (u8)` and then actor, subject, purpose and detail, each a `u32 LE`
    /// length and its bytes; `present` has bit 0 and 1 set for the subject
    /// and purpose that are there, and an absent one takes no bytes. No
    /// key — the journal record that carries the evidence names it — no
    /// sequence number and no rendered line: the log assigns the one and
    /// renders the other when it archives the record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let optional = [self.subject, self.purpose];
        let mut out = Vec::with_capacity(self.line_len_hint());
        out.extend_from_slice(&self.timestamp_ms.to_le_bytes());
        out.push(self.operation.code());
        out.push(self.outcome as u8);
        let present = optional
            .iter()
            .enumerate()
            .filter(|(_, field)| field.is_some())
            .fold(0u8, |bits, (bit, _)| bits | 1 << bit);
        out.push(present);
        put_field(&mut out, self.actor);
        for field in optional.into_iter().flatten() {
            put_field(&mut out, field);
        }
        self.detail.put_field(&mut out);
        out
    }

    /// Decode what [`Self::encode`] produced, the evidence about `key`,
    /// borrowing every field from `bytes`; a count comes back as its text.
    ///
    /// # Errors
    ///
    /// [`AuditError::Corrupt`] for bytes that are not one whole encoded
    /// record.
    pub fn decode(key: Option<&'a str>, bytes: &'a [u8]) -> Result<Self> {
        let corrupt = |what: &str| AuditError::Corrupt(format!("evidence record: {what}"));
        let (head, mut rest) = bytes
            .split_first_chunk::<11>()
            .ok_or_else(|| corrupt("truncated header"))?;
        let mut field = || -> Result<&'a str> {
            let (len, tail) = rest
                .split_first_chunk::<4>()
                .ok_or_else(|| corrupt("truncated field length"))?;
            let len = u32::from_le_bytes(*len) as usize;
            if tail.len() < len {
                return Err(corrupt("truncated field"));
            }
            let (text, tail) = tail.split_at(len);
            rest = tail;
            std::str::from_utf8(text).map_err(|_| corrupt("field is not UTF-8"))
        };
        let timestamp_ms = u64::from_le_bytes(head[..8].try_into().expect("eight bytes"));
        let operation =
            Operation::from_code(head[8]).ok_or_else(|| corrupt("unknown operation"))?;
        let outcome = match head[9] {
            0 => Outcome::Allowed,
            1 => Outcome::Denied,
            2 => Outcome::Failed,
            _ => return Err(corrupt("unknown outcome")),
        };
        let present = head[10];
        if present > 0b11 {
            return Err(corrupt("unknown optional field"));
        }
        let actor = field()?;
        let mut optional = [None, None];
        for (bit, slot) in optional.iter_mut().enumerate() {
            if present & 1 << bit != 0 {
                *slot = Some(field()?);
            }
        }
        let detail = Detail::Text(field()?);
        if !rest.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        let [subject, purpose] = optional;
        Ok(AuditEvent {
            timestamp_ms,
            actor,
            operation,
            key,
            subject,
            purpose,
            outcome,
            detail,
        })
    }

    /// The owned record of this event at `sequence`.
    #[must_use]
    pub fn to_record(&self, sequence: u64) -> AuditRecord {
        AuditRecord {
            sequence,
            timestamp_ms: self.timestamp_ms,
            actor: self.actor.to_string(),
            operation: self.operation,
            key: self.key.map(str::to_string),
            subject: self.subject.map(str::to_string),
            purpose: self.purpose.map(str::to_string),
            outcome: self.outcome,
            detail: self.detail.text().into_owned(),
        }
    }
}

impl Operation {
    /// The operation's code in the binary evidence encoding.
    fn code(self) -> u8 {
        match self {
            Operation::Read => 0,
            Operation::Write => 1,
            Operation::Delete => 2,
            Operation::ExpireUpdate => 3,
            Operation::MetadataUpdate => 4,
            Operation::AccessControl => 5,
            Operation::RightsRequest => 6,
            Operation::Maintenance => 7,
        }
    }

    /// The operation whose [`Self::code`] is `code`.
    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Operation::Read,
            1 => Operation::Write,
            2 => Operation::Delete,
            3 => Operation::ExpireUpdate,
            4 => Operation::MetadataUpdate,
            5 => Operation::AccessControl,
            6 => Operation::RightsRequest,
            7 => Operation::Maintenance,
            _ => return None,
        })
    }
}

/// Append `field` as a `u32 LE` length and its bytes.
fn put_field(out: &mut Vec<u8>, field: &str) {
    out.extend_from_slice(&(field.len() as u32).to_le_bytes());
    out.extend_from_slice(field.as_bytes());
}

/// The two ASCII digits of every number below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// A number in decimal, as the tail of a fixed buffer: pushed as one
/// slice.
pub(crate) struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    pub(crate) fn new(mut n: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            start -= 1;
            digits[start] = b'0' + n as u8;
        }
        Decimal { digits, start }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.digits[self.start..]
    }
}

/// Whether `byte` is escaped in a trail field: the separator, the line
/// end, the escape character itself and NUL (in a trail file a line that
/// holds one is a torn line).
fn needs_escape(byte: u8) -> bool {
    matches!(byte, b'\\' | b'|' | b'\n' | b'\0')
}

/// Append `field` with the bytes [`needs_escape`] names escaped. The check
/// runs over bytes, and the common case has nothing to escape and is one
/// copy.
fn push_escaped(out: &mut Vec<u8>, field: &str) {
    let bytes = field.as_bytes();
    if !bytes
        .iter()
        .fold(false, |found, &byte| found | needs_escape(byte))
    {
        out.extend_from_slice(bytes);
        return;
    }
    for &byte in bytes {
        match byte {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'|' => out.extend_from_slice(b"\\p"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\0' => out.extend_from_slice(b"\\0"),
            byte => out.push(byte),
        }
    }
}

/// Undo [`push_escaped`] in one pass; `None` for an escape it never makes.
fn unescape(field: &str) -> Option<String> {
    if !field.contains('\\') {
        return Some(field.to_string());
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '\\' => '\\',
            'p' => '|',
            'n' => '\n',
            '0' => '\0',
            _ => return None,
        });
    }
    Some(out)
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
    fn binary_roundtrip_keeps_every_field() {
        let full = sample().detail("weird|detail\nwith \0 and ünïcode");
        let bare = AuditRecord::new(5, "engine", Operation::Maintenance);
        let keyless = AuditRecord::new(7, "", Operation::RightsRequest)
            .subject("")
            .outcome(Outcome::Denied);
        for record in [full, bare, keyless] {
            let encoded = record.encode();
            let key = record.key.as_deref();
            assert_eq!(AuditRecord::decode(key, &encoded).unwrap(), record);
            for cut in 0..encoded.len() {
                assert!(
                    AuditRecord::decode(key, &encoded[..cut]).is_err(),
                    "cut {cut}"
                );
            }
            let mut longer = encoded.clone();
            longer.push(0);
            assert!(AuditRecord::decode(key, &longer).is_err());
        }
        for code in 0..=u8::MAX {
            let Some(op) = Operation::from_code(code) else {
                continue;
            };
            assert_eq!(op.code(), code);
            let record = AuditRecord::new(1, "a", op).outcome(Outcome::Failed);
            assert_eq!(AuditRecord::decode(None, &record.encode()).unwrap(), record);
        }
    }

    /// Evidence as the commit before [`AuditEvent`] encoded it, beside the
    /// line it rendered at sequence 40 + i: journals written then archive
    /// the same trail.
    const GOLDEN_EVIDENCE: [(Option<&str>, &str, &str); 3] = [
        (
            Some("user:42"),
            "0068e5cf8b010000000003030000007765620a0000007375626a6563742d34320900\
             0000616e616c79746963730d00000047455420313138206279746573",
            "40|1700000000000|web|read|user:42|subject-42|analytics|allowed|GET 118 bytes",
        ),
        (
            Some("C:\\path|k"),
            "0168e5cf8b0100000101030b000000706970657c6163745c6f7200000000090000\
             0062c3af6c6c696e670a2400000077656972647c64657461696c0a7769746820002\
             0616e6420c3bc6ec3af636f6465205c6e",
            "41|1700000000001|pipe\\pact\\\\or|write|C:\\\\path\\pk||b\u{ef}lling\\n|denied|\
             weird\\pdetail\\nwith \\0 and \u{fc}n\u{ef}code \\\\n",
        ),
        (
            None,
            "ffffffffffffffff07020006000000656e67696e6500000000",
            "42|18446744073709551615|engine|maintenance||||failed|",
        ),
    ];

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn evidence_journaled_before_borrowed_events_archives_the_same_line() {
        for (i, (key, hex, line)) in GOLDEN_EVIDENCE.into_iter().enumerate() {
            let bytes = from_hex(hex);
            let sequence = 40 + i as u64;
            let event = AuditEvent::decode(key, &bytes).unwrap();
            let mut rendered = Vec::new();
            event.write_line(sequence, &mut rendered);
            assert_eq!(rendered, line.as_bytes());
            assert_eq!(event.encode(), bytes);
            let record = AuditRecord::decode(key, &bytes).unwrap();
            assert_eq!(record, event.to_record(0));
            assert_eq!(record.encode(), bytes);
            let mut numbered = record.clone();
            numbered.sequence = sequence;
            assert_eq!(numbered.to_line(), line);
            // The line does not tell an empty subject from an absent one.
            assert_eq!(AuditRecord::from_line(line).unwrap().to_line(), line);
        }
    }

    #[test]
    fn a_count_renders_as_the_text_it_replaces() {
        let counts = [
            (Detail::GetBytes(118), "GET 118 bytes"),
            (Detail::SetBytes(0), "SET 0 bytes"),
            (Detail::HmsetFields(10), "HMSET 10 fields"),
            (Detail::HmsetUpdate(3), "HMSET 3 fields (update)"),
            (Detail::ScanKeys(u64::MAX), "SCAN 18446744073709551615 keys"),
        ];
        for (detail, text) in counts {
            let record = sample().detail(text);
            let event = AuditEvent {
                detail,
                ..record.event()
            };
            assert_eq!(detail.text(), text);
            assert_eq!(detail, Detail::Text(text));
            let mut line = Vec::new();
            event.write_line(record.sequence, &mut line);
            assert_eq!(line, record.to_line().as_bytes());
            assert_eq!(event.encode(), record.encode());
            let encoded = event.encode();
            assert_eq!(AuditEvent::decode(event.key, &encoded).unwrap(), event);
        }
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
