//! Reading and querying persisted audit trails.
//!
//! This is the Article 33/34 path: when a breach is suspected, the
//! controller has 72 hours to reconstruct *which* personal data was touched,
//! by whom, and when. [`parse_trail`] loads a trail, [`TrailQuery`] filters
//! it, and [`verify_trail`] checks the hash chain so the evidence itself is
//! trustworthy.

use crate::chain::{verify_chain, ChainedRecord};
use crate::log::parse_chained_line;
use crate::record::{AuditRecord, Operation, Outcome};
use crate::sink::trail_end;
use crate::{AuditError, Result};

/// Parse a whole trail (one record per line) into chained records.
///
/// The text may be a trail file read while its [`crate::sink::FileSink`]
/// is open, or after a crash: the trail ends behind the last newline that
/// ends a line without a NUL. Behind that lie the NULs of the extended
/// file and what a crash tore. Of it, only an append that is whole but for
/// its newline — it parses, and carries a block's seal — is kept. The
/// whole lines of a block that a crash cut before its seal are kept too:
/// [`verify_trail`] reports them, and a reopened sink goes on writing
/// ahead of them.
///
/// # Errors
///
/// Returns [`AuditError::Corrupt`] naming the first malformed line. A NUL
/// inside the trail is one: a hole that lines were lost in, with whole
/// lines behind it.
pub fn parse_trail(text: &str) -> Result<Vec<ChainedRecord>> {
    let (complete, rest) = text.split_at(trail_end(text.as_bytes()));
    let mut out = Vec::new();
    for (idx, line) in complete.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_chained_line(line).filter(|_| !line.contains('\0')) {
            Some(chained) => out.push(chained),
            None => {
                return Err(AuditError::Corrupt(format!(
                    "line {} is malformed: {line:?}",
                    idx + 1
                )))
            }
        }
    }
    let unfinished = rest.trim_end_matches('\0');
    if let Some(last) = parse_chained_line(unfinished)
        .filter(|last| !unfinished.contains('\0') && !last.digest.is_empty())
    {
        out.push(last);
    }
    Ok(out)
}

/// Verify the hash chain of a parsed trail. Every block of lines the log
/// writes ends in a seal, so a line stripped of its seal merges two blocks
/// and breaks the chain like a wrong seal, and so does a trail that ends
/// inside a block.
///
/// # Errors
///
/// Returns [`AuditError::ChainBroken`] at the first record of the first
/// block that does not verify.
pub fn verify_trail(records: &[ChainedRecord]) -> Result<()> {
    verify_chain(records).map(|_| ())
}

/// Verify a trail that may span several process lifetimes: every restart of
/// the log begins a new hash chain (sequence numbers restart at zero), so
/// the trail is split at each `sequence == 0` boundary and every segment is
/// verified independently.
///
/// # Errors
///
/// Returns [`AuditError::ChainBroken`] at the first mismatching record of
/// any segment.
pub fn verify_trail_segments(records: &[ChainedRecord]) -> Result<usize> {
    let mut segments = 0usize;
    let mut start = 0usize;
    for i in 0..=records.len() {
        let boundary = i == records.len() || (i > start && records[i].record.sequence == 0);
        if boundary {
            if start < i {
                verify_trail(&records[start..i])?;
                segments += 1;
            }
            start = i;
        }
    }
    Ok(segments)
}

/// A filter over audit records, with every criterion optional.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrailQuery {
    /// Earliest timestamp (inclusive), in Unix milliseconds.
    pub since_ms: Option<u64>,
    /// Latest timestamp (inclusive), in Unix milliseconds.
    pub until_ms: Option<u64>,
    /// Only records touching this key.
    pub key: Option<String>,
    /// Only records about this data subject.
    pub subject: Option<String>,
    /// Only this kind of operation.
    pub operation: Option<Operation>,
    /// Only this outcome.
    pub outcome: Option<Outcome>,
    /// Only this actor.
    pub actor: Option<String>,
}

impl TrailQuery {
    /// A query with no criteria (matches everything).
    #[must_use]
    pub fn any() -> Self {
        TrailQuery::default()
    }

    /// Builder-style: restrict to a time window.
    #[must_use]
    pub fn between(mut self, since_ms: u64, until_ms: u64) -> Self {
        self.since_ms = Some(since_ms);
        self.until_ms = Some(until_ms);
        self
    }

    /// Builder-style: restrict to one data subject.
    #[must_use]
    pub fn subject(mut self, subject: &str) -> Self {
        self.subject = Some(subject.to_string());
        self
    }

    /// Builder-style: restrict to one key.
    #[must_use]
    pub fn key(mut self, key: &str) -> Self {
        self.key = Some(key.to_string());
        self
    }

    /// Builder-style: restrict to one operation kind.
    #[must_use]
    pub fn operation(mut self, operation: Operation) -> Self {
        self.operation = Some(operation);
        self
    }

    /// Builder-style: restrict to one outcome.
    #[must_use]
    pub fn outcome(mut self, outcome: Outcome) -> Self {
        self.outcome = Some(outcome);
        self
    }

    /// Builder-style: restrict to one actor.
    #[must_use]
    pub fn actor(mut self, actor: &str) -> Self {
        self.actor = Some(actor.to_string());
        self
    }

    /// Whether `record` satisfies every set criterion.
    #[must_use]
    pub fn matches(&self, record: &AuditRecord) -> bool {
        if let Some(since) = self.since_ms {
            if record.timestamp_ms < since {
                return false;
            }
        }
        if let Some(until) = self.until_ms {
            if record.timestamp_ms > until {
                return false;
            }
        }
        if let Some(key) = &self.key {
            if record.key.as_deref() != Some(key.as_str()) {
                return false;
            }
        }
        if let Some(subject) = &self.subject {
            if record.subject.as_deref() != Some(subject.as_str()) {
                return false;
            }
        }
        if let Some(op) = self.operation {
            if record.operation != op {
                return false;
            }
        }
        if let Some(outcome) = self.outcome {
            if record.outcome != outcome {
                return false;
            }
        }
        if let Some(actor) = &self.actor {
            if &record.actor != actor {
                return false;
            }
        }
        true
    }

    /// Apply the query to a parsed trail, returning matching records in
    /// trail order.
    #[must_use]
    pub fn select<'a>(&self, trail: &'a [ChainedRecord]) -> Vec<&'a AuditRecord> {
        trail
            .iter()
            .map(|c| &c.record)
            .filter(|r| self.matches(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::AuditLog;
    use crate::policy::FlushPolicy;
    use crate::sink::MemorySink;

    fn build_trail() -> String {
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Synchronous);
        let records = vec![
            AuditRecord::new(100, "app", Operation::Write)
                .key("user:1")
                .subject("alice"),
            AuditRecord::new(200, "app", Operation::Read)
                .key("user:1")
                .subject("alice"),
            AuditRecord::new(300, "intruder", Operation::Read)
                .key("user:2")
                .subject("bob")
                .outcome(Outcome::Denied),
            AuditRecord::new(400, "engine", Operation::Delete)
                .key("user:1")
                .subject("alice"),
        ];
        for r in records {
            log.record(r).unwrap();
        }
        view.lines().join("\n")
    }

    #[test]
    fn parse_and_verify_roundtrip() {
        let text = build_trail();
        let trail = parse_trail(&text).unwrap();
        assert_eq!(trail.len(), 4);
        verify_trail(&trail).unwrap();
    }

    #[test]
    fn escapes_next_to_a_backslash_survive_the_round_trip_in_every_field() {
        // A backslash followed by `p`, `n` or `0` is text, not an escape.
        let values = ["C:\\path", "dom\\nina", "a\\0b", "\\\\p|\n\0\\", "\\"];
        let sink = MemorySink::new();
        let view = sink.share();
        let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
        let mut written = Vec::new();
        for (i, value) in values.iter().enumerate() {
            let base = AuditRecord::new(i as u64, "app", Operation::Read);
            let records = [
                AuditRecord::new(i as u64, value, Operation::Read),
                base.clone().key(value),
                base.clone().subject(value),
                base.clone().purpose(value),
                base.detail(value),
            ];
            for mut record in records {
                record.sequence = written.len() as u64;
                assert_eq!(AuditRecord::from_line(&record.to_line()).unwrap(), record);
                log.record(record.clone()).unwrap();
                written.push(record);
            }
        }
        log.flush().unwrap();
        let trail = parse_trail(&view.lines().join("\n")).unwrap();
        let parsed: Vec<_> = trail.iter().map(|chained| chained.record.clone()).collect();
        assert_eq!(parsed, written);
        verify_trail(&trail).unwrap();
    }

    #[test]
    fn an_escape_no_writer_makes_is_a_malformed_line() {
        assert!(AuditRecord::from_line("0|1|a\\x|read||||allowed|").is_none());
        assert!(AuditRecord::from_line("0|1|a\\|read||||allowed|").is_none());
    }

    #[test]
    fn corrupt_line_is_reported_with_its_number() {
        let mut text = build_trail();
        text.push_str("\nthis is not a record\n");
        match parse_trail(&text) {
            Err(AuditError::Corrupt(msg)) => assert!(msg.contains("line 5")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn tampered_trail_fails_verification() {
        let text = build_trail();
        let tampered = text.replace("alice", "mallory");
        let trail = parse_trail(&tampered).unwrap();
        assert!(verify_trail(&trail).is_err());
    }

    #[test]
    fn a_line_stripped_of_its_digest_fails_verification() {
        let text = build_trail();
        let mut lines: Vec<&str> = text.lines().collect();
        let (altered, _) = lines[1].rsplit_once('#').unwrap();
        let altered = altered.replace("alice", "mallory");
        lines[1] = &altered;
        let trail = parse_trail(&lines.join("\n")).unwrap();
        assert!(trail[1].digest.is_empty());
        assert!(matches!(
            verify_trail(&trail),
            Err(AuditError::ChainBroken { at_sequence: 1 })
        ));
    }

    #[test]
    fn a_first_line_torn_in_its_digest_is_dropped() {
        let text = build_trail();
        let first = text.lines().next().unwrap();
        let torn = &first[..first.len() - 10];
        assert!(parse_trail(torn).unwrap().is_empty());
        assert_eq!(
            parse_trail(first).unwrap().len(),
            1,
            "whole but its newline"
        );
    }

    #[test]
    fn query_by_subject_and_time_window() {
        let trail = parse_trail(&build_trail()).unwrap();
        let q = TrailQuery::any().subject("alice").between(150, 450);
        let hits = q.select(&trail);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.subject.as_deref() == Some("alice")));
        assert!(hits.iter().all(|r| r.timestamp_ms >= 150));
    }

    #[test]
    fn query_by_outcome_finds_denied_access() {
        let trail = parse_trail(&build_trail()).unwrap();
        let denied = TrailQuery::any().outcome(Outcome::Denied).select(&trail);
        assert_eq!(denied.len(), 1);
        assert_eq!(denied[0].actor, "intruder");
    }

    #[test]
    fn query_by_operation_key_and_actor() {
        let trail = parse_trail(&build_trail()).unwrap();
        assert_eq!(
            TrailQuery::any()
                .operation(Operation::Delete)
                .select(&trail)
                .len(),
            1
        );
        assert_eq!(TrailQuery::any().key("user:1").select(&trail).len(), 3);
        assert_eq!(TrailQuery::any().actor("engine").select(&trail).len(), 1);
        assert_eq!(TrailQuery::any().select(&trail).len(), 4);
    }

    #[test]
    fn segmented_verification_accepts_restarted_trails() {
        // Two independent sessions appended to the same trail.
        let first = build_trail();
        let second = build_trail();
        let combined = format!("{first}\n{second}");
        let trail = parse_trail(&combined).unwrap();
        assert!(
            verify_trail(&trail).is_err(),
            "a naive verification sees a broken chain"
        );
        assert_eq!(verify_trail_segments(&trail).unwrap(), 2);
        // Tampering inside either segment is still detected.
        let tampered = combined.replace("bob", "mallory");
        let trail = parse_trail(&tampered).unwrap();
        assert!(verify_trail_segments(&trail).is_err());
    }

    #[test]
    fn an_open_or_torn_trail_parses_to_its_complete_lines() {
        let whole = format!("{}\n", build_trail());
        let records = parse_trail(&whole).unwrap();
        let (head, last_line) = whole[..whole.len() - 1].rsplit_once('\n').unwrap();
        // The file as a reader finds it while the sink is open.
        assert_eq!(parse_trail(&format!("{whole}\0\0\0\0")).unwrap(), records);
        // Every way the last line can be torn, with and without the tail
        // behind it: the lines before it survive, and verify.
        for cut in 0..last_line.len() {
            for tail in ["", "\0\0\0"] {
                let torn = format!("{head}\n{}{tail}", &last_line[..cut]);
                let parsed = parse_trail(&torn).unwrap();
                assert_eq!(parsed, records[..records.len() - 1], "cut {cut}");
                verify_trail(&parsed).unwrap();
            }
        }
        // Whole but for its newline: still a record.
        assert_eq!(
            parse_trail(&format!("{head}\n{last_line}")).unwrap(),
            records
        );
        // Torn across a page of which only the second half landed: the
        // newline is there, the line is not.
        let (front, back) = last_line.split_at(last_line.len() / 2);
        for torn in [
            format!("{head}\n{front}\0\0\0{back}\n\0\0"),
            format!("{head}\n\0\0\0{back}\n"),
            format!("{head}\n{front}\0\0\0{back}\n{front}"),
        ] {
            assert_eq!(
                parse_trail(&torn).unwrap(),
                records[..records.len() - 1],
                "{torn:?}"
            );
        }
    }

    #[test]
    fn a_hole_with_whole_lines_behind_it_is_corruption_not_the_end() {
        let whole = format!("{}\n", build_trail());
        let (first, rest) = whole.split_once('\n').unwrap();
        let (second, rest) = rest.split_once('\n').unwrap();
        let holed = format!("{first}\n{}\n{rest}", "\0".repeat(second.len()));
        match parse_trail(&holed) {
            Err(AuditError::Corrupt(msg)) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_blank_lines_are_skipped() {
        let trail = parse_trail("\n\n").unwrap();
        assert!(trail.is_empty());
        verify_trail(&trail).unwrap();
    }
}
