//! The borrowed-event path renders what the owned-record path renders: for
//! arbitrary field text — separators, line ends, backslashes, NULs and
//! multi-byte UTF-8, with optional fields absent or empty, and every kind
//! of detail — the same trail line, the same chain digests whichever way
//! the log takes the record, and the same evidence bytes; and evidence
//! decodes back to the event it came from.

use audit::log::{AuditLog, EventBatch};
use audit::policy::FlushPolicy;
use audit::record::{AuditEvent, AuditRecord, Detail, Operation, Outcome};
use audit::sink::MemorySink;
use proptest::prelude::*;

const OPERATIONS: [Operation; 8] = [
    Operation::Read,
    Operation::Write,
    Operation::Delete,
    Operation::ExpireUpdate,
    Operation::MetadataUpdate,
    Operation::AccessControl,
    Operation::RightsRequest,
    Operation::Maintenance,
];
const OUTCOMES: [Outcome; 3] = [Outcome::Allowed, Outcome::Denied, Outcome::Failed];

/// Field text: plain letters beside everything the renderer escapes and
/// characters of two, three and four bytes.
const TEXT: &str = "[ab\\|\n\0pé€😀 ]{0,10}";

/// The fields of one event, owned: the strategy's value.
#[derive(Debug, Clone)]
struct Fields {
    sequence: u64,
    timestamp_ms: u64,
    operation: Operation,
    outcome: Outcome,
    actor: String,
    key: Option<String>,
    subject: Option<String>,
    purpose: Option<String>,
    /// Which detail: 0 is text, 1–5 a count of `count`.
    detail_kind: u8,
    count: u64,
    text: String,
}

impl Fields {
    fn detail(&self) -> Detail<'_> {
        match self.detail_kind {
            0 => Detail::Text(&self.text),
            1 => Detail::GetBytes(self.count),
            2 => Detail::SetBytes(self.count),
            3 => Detail::HmsetFields(self.count),
            4 => Detail::HmsetUpdate(self.count),
            _ => Detail::ScanKeys(self.count),
        }
    }

    fn event(&self) -> AuditEvent<'_> {
        AuditEvent {
            timestamp_ms: self.timestamp_ms,
            actor: &self.actor,
            operation: self.operation,
            key: self.key.as_deref(),
            subject: self.subject.as_deref(),
            purpose: self.purpose.as_deref(),
            outcome: self.outcome,
            detail: self.detail(),
        }
    }

    /// The owned record of the same fields, its detail as text.
    fn record(&self) -> AuditRecord {
        AuditRecord {
            sequence: self.sequence,
            timestamp_ms: self.timestamp_ms,
            actor: self.actor.clone(),
            operation: self.operation,
            key: self.key.clone(),
            subject: self.subject.clone(),
            purpose: self.purpose.clone(),
            outcome: self.outcome,
            detail: self.detail().text().into_owned(),
        }
    }
}

fn fields() -> impl Strategy<Value = Fields> {
    let header = (any::<u64>(), any::<u64>(), (0usize..8, 0usize..3));
    let optional = (
        proptest::option::of(TEXT),
        proptest::option::of(TEXT),
        proptest::option::of(TEXT),
    );
    let detail = (0u8..6, any::<u64>(), TEXT);
    ((header, TEXT), optional, detail).prop_map(
        |(((sequence, timestamp_ms, (op, outcome)), actor), (key, subject, purpose), detail)| {
            let (detail_kind, count, text) = detail;
            Fields {
                sequence,
                timestamp_ms,
                operation: OPERATIONS[op],
                outcome: OUTCOMES[outcome],
                actor,
                key,
                subject,
                purpose,
                detail_kind,
                count,
                text,
            }
        },
    )
}

/// A log over a memory sink, and a view of what the sink gets.
fn log() -> (AuditLog, MemorySink) {
    let sink = MemorySink::new();
    let view = sink.share();
    (AuditLog::new(Box::new(sink), FlushPolicy::Manual), view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn an_event_renders_its_record_byte_for_byte(fields in fields()) {
        let event = fields.event();
        let record = fields.record();

        let mut line = Vec::new();
        event.write_line(fields.sequence, &mut line);
        let owned_line = record.to_line();
        prop_assert_eq!(&line, &owned_line.as_bytes().to_vec());
        let parsed = AuditRecord::from_line(&owned_line).expect("a rendered line parses");
        prop_assert_eq!(parsed.to_line(), owned_line);

        let encoded = event.encode();
        prop_assert_eq!(&encoded, &record.encode());
        prop_assert_eq!(AuditEvent::decode(event.key, &encoded).unwrap(), event);
        let decoded = AuditRecord::decode(event.key, &encoded).unwrap();
        prop_assert_eq!(decoded, AuditRecord { sequence: 0, ..record });
    }

    #[test]
    fn every_way_into_the_log_chains_the_same_digests(
        first in fields(),
        second in fields(),
    ) {
        let (mut owned, owned_view) = log();
        let (mut borrowed, borrowed_view) = log();
        let (mut batched, batched_view) = log();
        let mut batch = EventBatch::default();
        for fields in [&first, &second] {
            owned.record(fields.record()).unwrap();
            borrowed.record_event(&fields.event()).unwrap();
            batch.push(&fields.event());
        }
        batched.record_batch(&mut batch).unwrap();
        prop_assert!(batch.is_empty());
        for log in [&mut owned, &mut borrowed, &mut batched] {
            log.flush().unwrap();
        }
        let lines = owned_view.lines();
        prop_assert_eq!(lines.len(), 2);
        prop_assert_eq!(&borrowed_view.lines(), &lines);
        prop_assert_eq!(&batched_view.lines(), &lines);
        prop_assert_eq!(borrowed.chain_tip(), owned.chain_tip());
        prop_assert_eq!(batched.chain_tip(), owned.chain_tip());
        let trail = audit::reader::parse_trail(&lines.join("\n")).unwrap();
        audit::reader::verify_trail(&trail).unwrap();
    }
}
