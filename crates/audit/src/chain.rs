//! Hash chaining for tamper-evident audit trails.
//!
//! Article 5(2) puts the burden of *demonstrating* compliance on the
//! controller, which is only convincing if the evidence itself cannot be
//! silently edited. The trail is chained per **block**: the lines the log
//! hands to its sink at once. Every line ends in `#`; the last line of a
//! block carries, behind its `#`, the block's seal: the hex SHA-256 of the
//! previous seal, a newline, and the block's bytes as written, from its
//! first byte up to that final `#`. A block of one line is therefore
//! hashed exactly as a trail that sealed every line was, and such a trail
//! reads as one of one-line blocks. [`verify_chain`] re-walks the trail and
//! reports the first block that does not verify.

use gdpr_crypto::sha256::{digest_to_hex, to_hex, Sha256};

use crate::record::AuditRecord;
use crate::{AuditError, Result};

/// Hex-encoded SHA-256 digest.
pub type ChainDigest = String;

/// What the digest that seeds an empty chain is the digest of.
const GENESIS: &[u8] = b"gdpr-audit-chain-genesis";

/// What ends every line of a block but its last, whose seal goes between
/// the two bytes: the log writes it, and the chain hashes it between lines.
pub(crate) const LINE_END: &[u8] = b"#\n";

/// The digest that seeds an empty chain.
#[must_use]
pub fn genesis_digest() -> ChainDigest {
    to_hex(&Sha256::digest(GENESIS))
}

/// A digest as the ASCII hex digits the trail carries.
type HexDigest = [u8; 64];

fn hex_str(hex: &HexDigest) -> &str {
    std::str::from_utf8(hex).expect("hex digits are ASCII")
}

/// A chained record as persisted: the record plus its seal, empty for a
/// record that does not end its block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedRecord {
    /// The audit record itself.
    pub record: AuditRecord,
    /// The seal of the block this record ends, or empty.
    pub digest: ChainDigest,
}

/// An incremental chain builder used by the log writer: one running hasher
/// over the open block.
#[derive(Debug, Clone)]
pub struct ChainState {
    /// The last seal.
    tip: HexDigest,
    length: u64,
    /// The open block's hash so far, if a line was folded in since the
    /// last seal.
    open: Option<Sha256>,
}

impl Default for ChainState {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainState {
    /// Start a fresh chain.
    #[must_use]
    pub fn new() -> Self {
        ChainState {
            tip: digest_to_hex(&Sha256::digest(GENESIS)),
            length: 0,
            open: None,
        }
    }

    /// Resume a chain from a known tip (e.g. after reopening a trail
    /// file); `None` if `tip` is not the 64 hex digits of a digest.
    #[must_use]
    pub fn resume(tip: &str, length: u64) -> Option<Self> {
        let tip: HexDigest = tip.as_bytes().try_into().ok()?;
        tip.iter().all(u8::is_ascii_hexdigit).then_some(ChainState {
            tip,
            length,
            open: None,
        })
    }

    /// The last seal: it covers every record folded in before it, and
    /// none of an open block.
    #[must_use]
    pub fn tip(&self) -> &str {
        hex_str(&self.tip)
    }

    /// Number of records folded into the chain.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.length
    }

    /// Whether the chain is still at genesis.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.length == 0
    }

    /// Fold a record into the chain as the last line of its block, returning
    /// the block's seal.
    pub fn append(&mut self, record: &AuditRecord) -> ChainDigest {
        self.append_line(record.to_line().as_bytes());
        self.seal();
        self.tip().to_string()
    }

    /// Fold a rendered record line (without its `#`) into the open block,
    /// opening one behind the last seal if there is none.
    pub(crate) fn append_line(&mut self, line: &[u8]) {
        let block = match &mut self.open {
            Some(block) => {
                block.update(LINE_END);
                block
            }
            None => {
                let block = self.open.insert(Sha256::new());
                block.update(&self.tip);
                block.update(b"\n");
                block
            }
        };
        block.update(line);
        self.length += 1;
    }

    /// Close the open block: its seal becomes the tip and is returned.
    /// `None`, and nothing done, when no block is open.
    pub(crate) fn seal(&mut self) -> Option<&HexDigest> {
        let block = self.open.take()?;
        self.tip = digest_to_hex(&block.finalize());
        Some(&self.tip)
    }
}

/// Verify that a sequence of chained records is intact, returning the tip.
/// A record with no seal belongs to the block the next sealed record ends.
///
/// # Errors
///
/// Returns [`AuditError::ChainBroken`] at the first record of the first
/// block whose seal does not match, or of a block that the records end
/// before sealing.
pub fn verify_chain(records: &[ChainedRecord]) -> Result<ChainDigest> {
    let mut state = ChainState::new();
    let mut block_start = None;
    for chained in records {
        block_start.get_or_insert(chained.record.sequence);
        state.append_line(chained.record.to_line().as_bytes());
        if chained.digest.is_empty() {
            continue;
        }
        let sealed = state.seal().expect("a line was just folded in");
        if sealed[..] != *chained.digest.as_bytes() {
            break;
        }
        block_start = None;
    }
    match block_start {
        Some(at_sequence) => Err(AuditError::ChainBroken { at_sequence }),
        None => Ok(state.tip().to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AuditRecord, Operation};

    fn record(seq: u64) -> AuditRecord {
        let mut r = AuditRecord::new(1_000 + seq, "tester", Operation::Write).key("k");
        r.sequence = seq;
        r
    }

    fn build_chain(n: u64) -> Vec<ChainedRecord> {
        let mut state = ChainState::new();
        (0..n)
            .map(|i| {
                let r = record(i);
                let digest = state.append(&r);
                ChainedRecord { record: r, digest }
            })
            .collect()
    }

    #[test]
    fn chain_builds_and_verifies() {
        let chain = build_chain(10);
        let tip = verify_chain(&chain).unwrap();
        assert_eq!(tip, chain.last().unwrap().digest);
        assert!(verify_chain(&[]).is_ok());
    }

    #[test]
    fn tampering_with_a_record_breaks_the_chain() {
        let mut chain = build_chain(10);
        chain[4].record.detail = "falsified".to_string();
        match verify_chain(&chain) {
            Err(AuditError::ChainBroken { at_sequence }) => assert_eq!(at_sequence, 4),
            other => panic!("expected ChainBroken, got {other:?}"),
        }
    }

    #[test]
    fn removing_a_record_breaks_the_chain() {
        let mut chain = build_chain(10);
        chain.remove(3);
        assert!(verify_chain(&chain).is_err());
    }

    #[test]
    fn reordering_breaks_the_chain() {
        let mut chain = build_chain(5);
        chain.swap(1, 2);
        assert!(verify_chain(&chain).is_err());
    }

    #[test]
    fn resume_produces_identical_digests() {
        let full = build_chain(6);
        // Rebuild the last 3 records from a resumed state.
        assert!(ChainState::resume("not a digest", 3).is_none());
        assert!(ChainState::resume(&"g".repeat(64), 3).is_none());
        let mut resumed = ChainState::resume(&full[2].digest, 3).unwrap();
        for (i, expected) in full.iter().enumerate().skip(3) {
            let digest = resumed.append(&record(i as u64));
            assert_eq!(digest, expected.digest);
        }
        assert_eq!(resumed.len(), 6);
        assert!(!resumed.is_empty());
    }

    #[test]
    fn genesis_is_stable() {
        assert_eq!(genesis_digest(), genesis_digest());
        assert_eq!(genesis_digest().len(), 64);
    }
}
