//! Audit-trail substrate for GDPR Articles 30, 33 and 34.
//!
//! Article 30 obliges controllers to keep *records of processing
//! activities*; Articles 33/34 require that breaches be reported within 72
//! hours, along with evidence of what happened. The paper concludes that a
//! strictly compliant store must therefore journal **every** interaction —
//! turning each read into a read-plus-logging-write — and shows that how
//! that log is flushed (synchronously vs once a second) is the difference
//! between a 20× and a 3× slowdown.
//!
//! This crate provides that log as a reusable component:
//!
//! * [`record::AuditRecord`] — a structured description of one interaction
//!   (who, what, which key, under which purpose, when, outcome), as the
//!   trail's readers hold it; [`record::AuditEvent`] is the same with every
//!   field borrowed, which writers hand in and which renders the trail line
//!   and the journal's evidence bytes;
//! * [`sink`] — where records go: an in-memory ring, an append-only file
//!   with an fsync policy, or a null sink;
//! * [`policy::FlushPolicy`] — the real-time vs eventual compliance knob;
//! * [`chain`] — SHA-256 hash chaining for tamper evidence;
//! * [`log::AuditLog`] — the front object the storage engine calls;
//! * [`reader`] — parsing and querying persisted trails (the Article 33
//!   "hand the regulator the evidence" path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod log;
pub mod policy;
pub mod reader;
pub mod record;
pub mod sink;

use std::error::Error;
use std::fmt;

/// Errors produced by the audit subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum AuditError {
    /// An I/O failure while writing or reading the trail.
    Io(std::io::Error),
    /// A persisted record could not be decoded.
    Corrupt(String),
    /// The hash chain did not verify: records were altered or removed.
    ChainBroken {
        /// Sequence number at which verification failed.
        at_sequence: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Io(e) => write!(f, "audit i/o error: {e}"),
            AuditError::Corrupt(msg) => write!(f, "corrupt audit record: {msg}"),
            AuditError::ChainBroken { at_sequence } => {
                write!(f, "audit hash chain broken at sequence {at_sequence}")
            }
        }
    }
}

impl Error for AuditError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AuditError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AuditError {
    fn from(e: std::io::Error) -> Self {
        AuditError::Io(e)
    }
}

/// Result alias for audit operations.
pub type Result<T> = std::result::Result<T, AuditError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let errs = [
            AuditError::Io(std::io::Error::other("x")),
            AuditError::Corrupt("bad".into()),
            AuditError::ChainBroken { at_sequence: 9 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
