//! The trail is chained per block: the lines a log hands its sink at once,
//! the last of them carrying the block's seal. Any edit, deletion,
//! insertion or reordering of a line, a seal stripped in the middle of the
//! trail or at its end, and a trail cut inside a block fail verification
//! at the first sequence number of the block; a detail that looks like a
//! seal is not one. And whatever the schedule of records, flushes,
//! hand-overs, refused lines and tip reads, the trail a log writes
//! verifies to the tip it reports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use audit::chain::verify_chain;
use audit::log::{AuditLog, EventBatch};
use audit::policy::FlushPolicy;
use audit::reader::parse_trail;
use audit::record::{AuditEvent, AuditRecord, Detail, Operation, Outcome};
use audit::sink::{AuditSink, MemorySink, SinkStats};
use audit::AuditError;
use proptest::prelude::*;

fn record(i: u64) -> AuditRecord {
    AuditRecord::new(1_700_000_000_000 + i, "app", Operation::Read)
        .key(&format!("user{i:04}"))
        .subject("alice")
        .purpose("billing")
        .detail("GET 24 bytes")
}

/// The lines of a trail whose blocks hold `blocks[i]` records each (one
/// flush per block), and the tip the log reports.
fn trail(blocks: &[u64]) -> (Vec<String>, String) {
    let sink = MemorySink::new();
    let view = sink.share();
    let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
    let mut next = 0;
    for &lines in blocks {
        for i in next..next + lines {
            log.record(record(i)).unwrap();
        }
        next += lines;
        log.flush().unwrap();
    }
    let tip = log.chain_tip();
    (view.lines(), tip)
}

/// What verification says of `lines`: the tip, or the sequence number it
/// reports the chain broken at.
fn verdict(lines: &[String]) -> Result<String, u64> {
    let records = parse_trail(&lines.join("\n")).expect("every line parses");
    verify_chain(&records).map_err(|e| match e {
        AuditError::ChainBroken { at_sequence } => at_sequence,
        other => panic!("expected ChainBroken, got {other:?}"),
    })
}

/// `line` with its seal taken off, its `#` left.
fn unsealed(line: &str) -> String {
    line[..line.len() - 64].to_string()
}

/// Three blocks: sequences 0–3, 4–8 and 9–12.
const BLOCKS: [u64; 3] = [4, 5, 4];

#[test]
fn an_untouched_trail_verifies_to_the_tip_and_seals_each_block_once() {
    let (lines, tip) = trail(&BLOCKS);
    assert_eq!(verdict(&lines), Ok(tip));
    let sealed: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].ends_with('#'))
        .collect();
    assert_eq!(sealed, [3, 8, 12]);
}

#[test]
fn an_edited_deleted_inserted_or_swapped_mid_block_line_breaks_its_block() {
    let (lines, _) = trail(&BLOCKS);
    let tamper = |change: &dyn Fn(&mut Vec<String>)| {
        let mut lines = lines.clone();
        change(&mut lines);
        verdict(&lines)
    };
    assert_eq!(
        tamper(&|l| l[6] = l[6].replace("user0006", "user0066")),
        Err(4)
    );
    assert_eq!(tamper(&|l| l[8] = l[8].replace("alice", "mallory")), Err(4));
    assert_eq!(
        tamper(&|l| {
            l.remove(6);
        }),
        Err(4)
    );
    assert_eq!(tamper(&|l| l.insert(6, l[5].clone())), Err(4));
    assert_eq!(tamper(&|l| l.swap(5, 6)), Err(4));
}

#[test]
fn a_stripped_seal_merges_two_blocks_and_breaks_the_first() {
    let (lines, _) = trail(&BLOCKS);
    let mut stripped = lines.clone();
    stripped[8] = unsealed(&stripped[8]);
    assert_eq!(verdict(&stripped), Err(4));
    // The seal alone, `#` and all: the line still parses, unsealed.
    stripped[8].pop();
    assert_eq!(verdict(&stripped), Err(4));
}

#[test]
fn a_trail_that_ends_before_its_last_seal_breaks_at_the_last_block() {
    let (lines, _) = trail(&BLOCKS);
    let mut stripped = lines.clone();
    stripped[12] = unsealed(&stripped[12]);
    assert_eq!(verdict(&stripped), Err(9));
    // Cut inside the last block: its whole lines are there, its seal not.
    assert_eq!(verdict(&lines[..11]), Err(9));
    // Cut at a block's end: what is left verifies.
    assert!(verdict(&lines[..9]).is_ok());
}

#[test]
fn a_detail_that_ends_like_a_seal_is_not_one() {
    let fake = format!("x#{}", "ab".repeat(32));
    let sink = MemorySink::new();
    let view = sink.share();
    let mut log = AuditLog::new(Box::new(sink), FlushPolicy::Manual);
    for detail in [fake.as_str(), "C#", fake.as_str()] {
        log.record(AuditRecord::new(1, "app", Operation::Read).detail(detail))
            .unwrap();
    }
    log.flush().unwrap();
    let tip = log.chain_tip();
    let lines = view.lines();
    let records = parse_trail(&lines.join("\n")).unwrap();
    let details: Vec<&str> = records.iter().map(|r| r.record.detail.as_str()).collect();
    assert_eq!(details, [fake.as_str(), "C#", fake.as_str()]);
    assert!(records[0].digest.is_empty() && records[1].digest.is_empty());
    assert_eq!(records[2].digest, tip);
    assert_eq!(verdict(&lines), Ok(tip));

    // Its `#` taken off, the first line passes for a sealing line whose
    // detail is `x`: a block of its own, with a seal that does not match.
    let mut forged = lines.clone();
    forged[0].pop();
    let records = parse_trail(&forged.join("\n")).unwrap();
    assert_eq!(records[0].record.detail, "x");
    assert_eq!(verdict(&forged), Err(0));
}

/// A memory sink that refuses every `period`-th line while `flaky` is set.
#[derive(Debug)]
struct FlakySink {
    inner: MemorySink,
    period: u64,
    offered: u64,
    flaky: Arc<AtomicBool>,
}

impl AuditSink for FlakySink {
    fn write_line(&mut self, line: &str) -> audit::Result<()> {
        self.offered += 1;
        if self.flaky.load(Ordering::Relaxed)
            && self.period > 0
            && self.offered.is_multiple_of(self.period)
        {
            return Err(std::io::Error::other("line refused").into());
        }
        self.inner.write_line(line)
    }

    fn sync(&mut self) -> audit::Result<()> {
        self.inner.sync()
    }

    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

/// Details that test the seal's parse: empty, ordinary, ending in `#`,
/// ending in what looks like a seal, escaped characters, and one long
/// enough that a few of them pass the log's 64 KiB hand-over.
fn detail(pick: usize) -> String {
    match pick {
        0 => String::new(),
        1 => "GET 100 bytes".to_string(),
        2 => "C#".to_string(),
        3 => format!("#{}", "0f".repeat(32)),
        4 => "a|b\nc\\0#".to_string(),
        _ => "z".repeat(8 << 10),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_schedule_writes_a_trail_that_verifies_to_the_tip(
        policy in 0usize..3,
        period in 0u64..6,
        steps in proptest::collection::vec((0u8..10, 0usize..8), 1..60),
    ) {
        let inner = MemorySink::new();
        let view = inner.share();
        let flaky = Arc::new(AtomicBool::new(true));
        let sink = FlakySink {
            inner,
            period,
            offered: 0,
            flaky: Arc::clone(&flaky),
        };
        let policy = [FlushPolicy::Manual, FlushPolicy::Synchronous, FlushPolicy::every_second()][policy];
        let mut log = AuditLog::new(Box::new(sink), policy);
        let mut batch = EventBatch::default();
        let mut now = 1_700_000_000_000u64;
        let mut records = 0u64;
        for (kind, arg) in steps {
            now += arg as u64 * 300;
            let text = detail(arg);
            let event = AuditEvent {
                timestamp_ms: now,
                actor: "app",
                operation: Operation::Read,
                key: Some("user0001"),
                subject: Some("user0001"),
                purpose: Some("billing"),
                outcome: Outcome::Allowed,
                detail: if arg == 1 { Detail::GetBytes(100) } else { Detail::Text(&text) },
            };
            match kind {
                0..=4 => {
                    for _ in 0..=arg {
                        let _ = log.record_event(&event);
                    }
                    records += arg as u64 + 1;
                }
                5 | 6 => {
                    for _ in 0..=arg {
                        batch.push(&event);
                    }
                    records += arg as u64 + 1;
                    let _ = log.record_batch(&mut batch);
                }
                7 => {
                    let _ = log.flush();
                }
                8 => {
                    let _ = log.chain_tip();
                }
                _ => {
                    let _ = log.record(AuditRecord::new(now, "app", Operation::Write).detail(&detail(5)));
                    records += 1;
                }
            }
        }
        flaky.store(false, Ordering::Relaxed);
        log.flush().unwrap();
        let tip = log.chain_tip();
        let lines = view.lines();
        prop_assert_eq!(lines.len() as u64, records);
        let mut sealed = 0;
        for line in &lines {
            if !line.ends_with('#') {
                let (_, seal) = line.rsplit_once('#').unwrap();
                prop_assert!(seal.len() == 64 && seal.bytes().all(|b| b.is_ascii_hexdigit()));
                sealed += 1;
            }
        }
        if policy == FlushPolicy::Synchronous {
            prop_assert_eq!(sealed, lines.len());
        }
        let parsed = parse_trail(&lines.join("\n")).unwrap();
        let sequences: Vec<u64> = parsed.iter().map(|r| r.record.sequence).collect();
        prop_assert_eq!(sequences, (0..records).collect::<Vec<_>>());
        prop_assert_eq!(verify_chain(&parsed).unwrap(), tip);
    }
}
