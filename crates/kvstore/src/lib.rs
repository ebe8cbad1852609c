//! A Redis-like embedded key-value storage engine.
//!
//! This crate is the storage substrate for the reproduction of
//! *"Analyzing the Impact of GDPR on Storage Systems"* (HotStorage '19).
//! The paper retrofits Redis v4.0.11 into GDPR compliance and measures the
//! cost of each modification; this crate re-implements the Redis mechanisms
//! that those measurements depend on:
//!
//! * an in-memory dictionary of typed objects ([`object::Value`]) with the
//!   usual string/hash/list/set commands ([`commands::Command`]),
//! * the TTL subsystem with both Redis' **lazy probabilistic active-expiry
//!   cycle** and the paper's **strict indexed expiry** ([`expire`]), served
//!   by a **hierarchical timer wheel** deadline index (O(1) per TTL
//!   insert/reschedule; [`ttl_wheel`]),
//! * **append-only-file** persistence with `always` / `everysec` / `no`
//!   fsync policies and background-rewrite compaction ([`aof`]),
//! * point-in-time **snapshots** ([`snapshot`]),
//! * a pluggable **device layer** with a plain file device and an
//!   encrypting device that seals every chunk with ChaCha20-Poly1305 — the
//!   stand-in for LUKS full-disk encryption ([`device`]),
//! * a [`clock`] abstraction so that expiry experiments (Figure 2 of the
//!   paper, a three-hour wall-clock experiment at 128k keys) can run on a
//!   simulated clock in milliseconds.
//!
//! The top-level handle is [`store::KvStore`]; the GDPR compliance layer in
//! the `gdpr-core` crate wraps it.
//!
//! # Example
//!
//! ```
//! use kvstore::config::StoreConfig;
//! use kvstore::store::KvStore;
//!
//! # fn main() -> Result<(), kvstore::StoreError> {
//! let store = KvStore::open(StoreConfig::in_memory())?;
//! store.set("user:1:email", b"alice@example.com".to_vec())?;
//! assert_eq!(store.get("user:1:email")?, Some(b"alice@example.com".to_vec()));
//! store.expire_in("user:1:email", std::time::Duration::from_secs(3600))?;
//! assert!(store.ttl("user:1:email")?.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aof;
pub mod clock;
pub mod commands;
pub mod config;
pub mod db;
pub mod device;
pub mod expire;
pub mod legacy;
pub mod object;
pub mod serialize;
pub mod shard;
pub mod sharded_aof;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod ttl_wheel;

use std::error::Error;
use std::fmt;

/// Errors returned by the storage engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An operation was applied to a key holding the wrong type of value
    /// (the classic Redis `WRONGTYPE` error).
    WrongType {
        /// Key that was accessed.
        key: String,
        /// Type actually held by the key.
        actual: &'static str,
        /// Type expected by the operation.
        expected: &'static str,
    },
    /// An I/O error from the persistence layer.
    Io(std::io::Error),
    /// A cryptographic failure from the encrypted device layer.
    Crypto(gdpr_crypto::CryptoError),
    /// The append-only file or snapshot contained malformed data.
    Corrupt {
        /// What was being decoded.
        context: &'static str,
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A configuration value was invalid or inconsistent.
    Config(String),
    /// A command could not be parsed or had the wrong arity.
    InvalidCommand(String),
    /// A write was rejected because the keyspace is over the configured
    /// `maxmemory` ceiling and the eviction policy is `noeviction`
    /// (Redis' `-OOM` reply).
    Oom {
        /// Bytes currently resident in the rejecting shard.
        used: u64,
        /// That shard's slice of the `maxmemory` budget, in bytes.
        limit: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::WrongType {
                key,
                actual,
                expected,
            } => write!(
                f,
                "wrong type for key {key:?}: holds {actual}, operation expects {expected}"
            ),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Crypto(e) => write!(f, "encryption error: {e}"),
            StoreError::Corrupt { context, detail } => {
                write!(f, "corrupt {context}: {detail}")
            }
            StoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            StoreError::InvalidCommand(msg) => write!(f, "invalid command: {msg}"),
            StoreError::Oom { used, limit } => write!(
                f,
                "command not allowed when used memory > 'maxmemory' (used={used}, limit={limit})"
            ),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<gdpr_crypto::CryptoError> for StoreError {
    fn from(e: gdpr_crypto::CryptoError) -> Self {
        StoreError::Crypto(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_covers_variants() {
        let errs: Vec<StoreError> = vec![
            StoreError::WrongType {
                key: "k".into(),
                actual: "hash",
                expected: "string",
            },
            StoreError::Io(std::io::Error::other("boom")),
            StoreError::Crypto(gdpr_crypto::CryptoError::TagMismatch),
            StoreError::Corrupt {
                context: "aof",
                detail: "bad magic".into(),
            },
            StoreError::Config("bad".into()),
            StoreError::InvalidCommand("arity".into()),
            StoreError::Oom {
                used: 2048,
                limit: 1024,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_source_is_preserved() {
        let e = StoreError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
