//! The value/object model of the engine.
//!
//! Like Redis, every key maps to a typed [`Value`]. The reproduction only
//! needs the types its commands create: strings and hashes carry the data
//! (YCSB records), sets serve `SADD`/`SREM`/`SMEMBERS`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::{Result, StoreError};

/// Raw byte payload stored under a key or hash field.
pub type Bytes = Vec<u8>;

/// Fixed per-key bookkeeping overhead charged by the memory accounting, in
/// bytes. A stored key costs more than its payload: its slot (key pointer,
/// [`Object`] header, deadline, position in the list of expiring keys), its
/// entry in the key → slot index and in the sorted-keys set, and the key's
/// own allocation. The
/// constant is a deliberate round number in the right ballpark — the gauge
/// must track RSS *direction* under churn, not malloc's exact arithmetic.
pub const PER_KEY_OVERHEAD: usize = 64;

/// Approximate resident footprint of one keyspace entry: the fixed
/// per-key overhead, the key bytes and the value payload. This is the
/// quantity the per-shard `mem_bytes` gauge sums and `maxmemory`
/// eviction budgets against.
#[must_use]
pub fn entry_footprint(key: &str, value: &Value) -> usize {
    PER_KEY_OVERHEAD + key.len() + value.approximate_size()
}

/// A typed value stored under a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A binary-safe string (the default YCSB record encoding).
    Str(Bytes),
    /// A field → value map (used for multi-field YCSB records).
    Hash(BTreeMap<String, Bytes>),
    /// An unordered set of unique members.
    Set(BTreeSet<Bytes>),
}

impl Value {
    /// Human-readable type name, mirroring the Redis `TYPE` command.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Hash(_) => "hash",
            Value::Set(_) => "set",
        }
    }

    /// The [`StoreError::WrongType`] an operation expecting `expected` gets
    /// on `key`, which holds this value.
    #[must_use]
    pub fn wrong_type(&self, key: &str, expected: &'static str) -> StoreError {
        StoreError::WrongType {
            key: key.to_string(),
            actual: self.type_name(),
            expected,
        }
    }

    /// The payload of a string value read from `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::WrongType`] when the value is not a string.
    pub fn into_string(self, key: &str) -> Result<Bytes> {
        match self {
            Value::Str(bytes) => Ok(bytes),
            other => Err(other.wrong_type(key, "string")),
        }
    }

    /// The fields of a hash value read from `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::WrongType`] when the value is not a hash.
    pub fn into_hash(self, key: &str) -> Result<BTreeMap<String, Bytes>> {
        match self {
            Value::Hash(fields) => Ok(fields),
            other => Err(other.wrong_type(key, "hash")),
        }
    }

    /// Approximate memory footprint in bytes (used by `INFO`-style stats
    /// and by the GDPR export size accounting).
    #[must_use]
    pub fn approximate_size(&self) -> usize {
        match self {
            Value::Str(b) => b.len(),
            Value::Hash(map) => map.iter().map(|(k, v)| k.len() + v.len()).sum(),
            Value::Set(members) => members.iter().map(Vec::len).sum(),
        }
    }

    /// Number of elements: 1 for a string, the cardinality otherwise.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Value::Str(_) => 1,
            Value::Hash(map) => map.len(),
            Value::Set(members) => members.len(),
        }
    }

    /// Whether the container value holds no elements (a string is never
    /// considered empty for this purpose, matching Redis semantics where
    /// empty aggregates are removed but empty strings may exist).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Str(_) => false,
            Value::Hash(map) => map.is_empty(),
            Value::Set(members) => members.is_empty(),
        }
    }
}

impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value::Str(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.as_bytes().to_vec())
    }
}

/// A stored object: the value plus bookkeeping the engine needs.
///
/// Redis attaches an LRU/LFU field and an encoding to every `robj`; we keep
/// the access time the sampled-LRU evictor ranks by, and the bytes that
/// govern the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// The stored value.
    pub value: Value,
    /// What governs the value, opaque to the engine (the compliance layer
    /// keeps a key's encoded GDPR metadata here). It lives and dies with
    /// the value: every read, journal record, rewrite, snapshot, eviction
    /// and deletion of the entry carries both or neither. Shared, so a
    /// read hands it out without copying it.
    pub governed: Option<Arc<[u8]>>,
    /// Milliseconds timestamp of the last access (read or write).
    pub last_access_ms: u64,
}

impl Object {
    /// Wrap a value into an object created at `now_ms`.
    #[must_use]
    pub fn new(value: Value, now_ms: u64) -> Self {
        Object {
            value,
            governed: None,
            last_access_ms: now_ms,
        }
    }

    /// What the memory accounting charges for this object stored under
    /// `key`: [`entry_footprint`] plus the governing bytes.
    #[must_use]
    pub fn footprint(&self, key: &str) -> usize {
        entry_footprint(key, &self.value) + self.governed.as_ref().map_or(0, |g| g.len())
    }

    /// Record an access (read or write).
    pub fn touch(&mut self, now_ms: u64) {
        self.last_access_ms = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::from("x").type_name(), "string");
        assert_eq!(Value::Hash(BTreeMap::new()).type_name(), "hash");
        assert_eq!(Value::Set(BTreeSet::new()).type_name(), "set");
    }

    #[test]
    fn approximate_size_counts_payload_bytes() {
        assert_eq!(Value::from("abcd").approximate_size(), 4);
        let mut h = BTreeMap::new();
        h.insert("field".to_string(), b"value".to_vec());
        assert_eq!(Value::Hash(h).approximate_size(), 10);
    }

    #[test]
    fn entry_footprint_charges_overhead_key_and_payload() {
        // The formula is pinned: overhead + key bytes + payload bytes.
        let v = Value::from("abcd");
        assert_eq!(entry_footprint("k", &v), PER_KEY_OVERHEAD + 1 + 4);
        assert_eq!(
            entry_footprint("user:alice:email", &v),
            PER_KEY_OVERHEAD + 16 + 4
        );
        // Container payloads count member bytes, same as approximate_size.
        let mut h = BTreeMap::new();
        h.insert("field".to_string(), b"value".to_vec());
        let hv = Value::Hash(h);
        assert_eq!(entry_footprint("h", &hv), PER_KEY_OVERHEAD + 1 + 10);
        // An empty string still costs its bookkeeping.
        assert_eq!(entry_footprint("e", &Value::from("")), PER_KEY_OVERHEAD + 1);
    }

    #[test]
    fn len_and_is_empty() {
        assert_eq!(Value::from("abc").len(), 1);
        assert!(!Value::from("").is_empty());
        let mut h = BTreeMap::new();
        assert!(Value::Hash(h.clone()).is_empty());
        h.insert("f".into(), vec![1]);
        let v = Value::Hash(h);
        assert_eq!(v.len(), 1);
        assert!(!v.is_empty());
    }

    #[test]
    fn object_versioning() {
        let mut o = Object::new(Value::from("v"), 100);
        assert_eq!(o.last_access_ms, 100);
        o.touch(150);
        assert_eq!(o.last_access_ms, 150);
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(vec![1u8, 2]), Value::Str(vec![1, 2]));
        assert_eq!(Value::from("hi"), Value::Str(b"hi".to_vec()));
    }
}
