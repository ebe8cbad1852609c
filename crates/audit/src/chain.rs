//! Hash chaining for tamper-evident audit trails.
//!
//! Article 5(2) puts the burden of *demonstrating* compliance on the
//! controller, which is only convincing if the evidence itself cannot be
//! silently edited. Each record's digest therefore folds in the digest of
//! its predecessor; [`verify_chain`] re-walks the trail and reports the
//! first break.

use gdpr_crypto::sha256::{digest_to_hex, to_hex, Sha256};

use crate::record::AuditRecord;
use crate::{AuditError, Result};

/// Hex-encoded SHA-256 digest.
pub type ChainDigest = String;

/// What the digest that seeds an empty chain is the digest of.
const GENESIS: &[u8] = b"gdpr-audit-chain-genesis";

/// The digest that seeds an empty chain.
#[must_use]
pub fn genesis_digest() -> ChainDigest {
    to_hex(&Sha256::digest(GENESIS))
}

/// Compute the chained digest of `record` given its predecessor's digest.
#[must_use]
pub fn chain_digest(previous: &str, record: &AuditRecord) -> ChainDigest {
    chain_digest_line(previous, &record.to_line())
}

/// Compute the chained digest of an already-serialized record line.
///
/// The log writer serializes each record exactly once and feeds the same
/// line to the chain and the sink; `line` must be the output of
/// [`AuditRecord::to_line`] for the digest to match [`chain_digest`].
#[must_use]
pub fn chain_digest_line(previous: &str, line: &str) -> ChainDigest {
    hex_str(&chain_digest_hex(previous.as_bytes(), line.as_bytes())).to_string()
}

/// A digest as the ASCII hex digits the trail carries.
type HexDigest = [u8; 64];

/// [`chain_digest_line`] without the allocation.
fn chain_digest_hex(previous: &[u8], line: &[u8]) -> HexDigest {
    let mut hasher = Sha256::new();
    hasher.update(previous);
    hasher.update(b"\n");
    hasher.update(line);
    digest_to_hex(&hasher.finalize())
}

fn hex_str(hex: &HexDigest) -> &str {
    std::str::from_utf8(hex).expect("hex digits are ASCII")
}

/// A chained record as persisted: the record plus its digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedRecord {
    /// The audit record itself.
    pub record: AuditRecord,
    /// The digest of this record chained onto its predecessor.
    pub digest: ChainDigest,
}

/// An incremental chain builder used by the log writer.
#[derive(Debug, Clone)]
pub struct ChainState {
    tip: HexDigest,
    length: u64,
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
        }
    }

    /// Resume a chain from a known tip (e.g. after reopening a trail
    /// file); `None` if `tip` is not the 64 hex digits of a digest.
    #[must_use]
    pub fn resume(tip: &str, length: u64) -> Option<Self> {
        let tip: HexDigest = tip.as_bytes().try_into().ok()?;
        tip.iter()
            .all(u8::is_ascii_hexdigit)
            .then_some(ChainState { tip, length })
    }

    /// Current tip digest.
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

    /// Fold a record into the chain, returning its digest.
    pub fn append(&mut self, record: &AuditRecord) -> ChainDigest {
        self.append_line(&record.to_line()).to_string()
    }

    /// Fold an already-serialized record line into the chain; returns its
    /// digest, the new tip.
    ///
    /// Byte-identical to [`Self::append`] when `line` came from
    /// [`AuditRecord::to_line`]; lets the writer serialize once for both
    /// the chain and the sink.
    pub fn append_line(&mut self, line: &str) -> &str {
        self.tip = chain_digest_hex(&self.tip, line.as_bytes());
        self.length += 1;
        self.tip()
    }
}

/// Verify that a sequence of chained records is intact, returning the tip.
///
/// # Errors
///
/// Returns [`AuditError::ChainBroken`] at the first record whose digest
/// does not match.
pub fn verify_chain(records: &[ChainedRecord]) -> Result<ChainDigest> {
    let mut expected = genesis_digest();
    for chained in records {
        let digest = chain_digest(&expected, &chained.record);
        if digest != chained.digest {
            return Err(AuditError::ChainBroken {
                at_sequence: chained.record.sequence,
            });
        }
        expected = digest;
    }
    Ok(expected)
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
