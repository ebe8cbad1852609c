//! The command layer: a typed representation of the Redis-style commands
//! the engine supports, their execution against a [`Db`], and a binary
//! encoding used to journal them into the AOF.
//!
//! Keeping commands first-class (rather than executing ad-hoc method calls)
//! is what lets the engine journal every interaction: the store encodes the
//! command, appends it to the AOF/audit trail, then executes it — the same
//! structure Redis' `call()` + `propagate()` has, and the hook the paper's
//! monitoring retrofit relies on.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::clock::UnixMillis;
use crate::db::Db;
use crate::object::Bytes;
use crate::serialize::{put_bytes, put_str, put_u64, Reader};
use crate::{Result, StoreError};

/// Journal opcodes of the commands that are a key and nothing else, which
/// the engine also journals from a borrowed key ([`encode_keyed`]): a
/// logged read, an eviction's or an expiry's `DEL`.
pub(crate) const OP_GET: u8 = 0x02;
pub(crate) const OP_DEL: u8 = 0x03;
pub(crate) const OP_EXISTS: u8 = 0x04;

/// Append the journal record of the `opcode` command on `key` — what
/// [`Command::encode_into`] writes for it — without building the command.
pub(crate) fn encode_keyed(out: &mut Vec<u8>, opcode: u8, key: &str) {
    out.push(opcode);
    put_str(out, key);
}

/// A command accepted by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Command {
    /// Set a string key.
    Set {
        /// Key to write.
        key: String,
        /// Value to store.
        value: Bytes,
    },
    /// Read a string key.
    Get {
        /// Key to read.
        key: String,
    },
    /// Delete one key.
    Del {
        /// Key to delete.
        key: String,
    },
    /// Check existence of a key.
    Exists {
        /// Key to probe.
        key: String,
    },
    /// Set an absolute expiration deadline in Unix milliseconds.
    ExpireAt {
        /// Key to expire.
        key: String,
        /// Deadline in Unix milliseconds.
        at_ms: UnixMillis,
    },
    /// Set a relative TTL in milliseconds.
    Expire {
        /// Key to expire.
        key: String,
        /// Time to live in milliseconds.
        ttl_ms: u64,
    },
    /// Query the remaining TTL in milliseconds.
    Ttl {
        /// Key to query.
        key: String,
    },
    /// Remove the TTL from a key.
    Persist {
        /// Key to persist.
        key: String,
    },
    /// Set one field of a hash.
    HSet {
        /// Hash key.
        key: String,
        /// Field name.
        field: String,
        /// Field value.
        value: Bytes,
    },
    /// Set several fields of a hash at once.
    HSetMulti {
        /// Hash key.
        key: String,
        /// Field name → value map.
        fields: BTreeMap<String, Bytes>,
    },
    /// Read one field of a hash.
    HGet {
        /// Hash key.
        key: String,
        /// Field name.
        field: String,
    },
    /// Read all fields of a hash.
    HGetAll {
        /// Hash key.
        key: String,
    },
    /// Delete one field of a hash.
    HDel {
        /// Hash key.
        key: String,
        /// Field name.
        field: String,
    },
    /// Add a member to a set.
    SAdd {
        /// Set key.
        key: String,
        /// Member to add.
        member: Bytes,
    },
    /// Remove a member from a set.
    SRem {
        /// Set key.
        key: String,
        /// Member to remove.
        member: Bytes,
    },
    /// List all members of a set.
    SMembers {
        /// Set key.
        key: String,
    },
    /// List keys matching a glob pattern.
    Keys {
        /// Glob pattern (`*`, `?`).
        pattern: String,
    },
    /// Ordered scan of up to `count` keys starting at `start`.
    Scan {
        /// First key (inclusive).
        start: String,
        /// Maximum number of keys to return.
        count: u64,
    },
    /// Number of keys in the database.
    DbSize,
    /// Remove every key.
    FlushAll,
    /// Set a string key and the bytes that govern it, as one entry.
    SetGoverned {
        /// Key to write.
        key: String,
        /// Value to store.
        value: Bytes,
        /// The entry's governing bytes.
        governed: Arc<[u8]>,
    },
    /// Replace the governing bytes of an existing key.
    Govern {
        /// Key whose entry is re-governed.
        key: String,
        /// The entry's new governing bytes.
        governed: Arc<[u8]>,
    },
}

/// The result of executing a [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Reply {
    /// Success with nothing else to say (`+OK`).
    Ok,
    /// A missing key/field.
    Nil,
    /// An integer (counts, booleans-as-0/1, TTLs).
    Int(i64),
    /// A single bulk value.
    Bytes(Bytes),
    /// A list of bulk values.
    Array(Vec<Bytes>),
    /// A list of keys.
    StringArray(Vec<String>),
    /// A field → value map.
    Map(BTreeMap<String, Bytes>),
}

impl Command {
    /// Whether this command mutates the keyspace (and therefore must be
    /// journaled to the AOF even in stock-Redis mode).
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Command::Set { .. }
                | Command::Del { .. }
                | Command::ExpireAt { .. }
                | Command::Expire { .. }
                | Command::Persist { .. }
                | Command::HSet { .. }
                | Command::HSetMulti { .. }
                | Command::HDel { .. }
                | Command::SAdd { .. }
                | Command::SRem { .. }
                | Command::FlushAll
                | Command::SetGoverned { .. }
                | Command::Govern { .. }
        )
    }

    /// Whether this command can *grow* the keyspace footprint — the subset
    /// of writes the `noeviction` policy rejects with `-OOM` once the shard
    /// is over budget. Deletions, TTL changes and flushes stay allowed so a
    /// client can always reclaim space, matching Redis.
    #[must_use]
    pub fn may_grow_memory(&self) -> bool {
        matches!(
            self,
            Command::Set { .. }
                | Command::HSet { .. }
                | Command::HSetMulti { .. }
                | Command::SAdd { .. }
                | Command::SetGoverned { .. }
                | Command::Govern { .. }
        )
    }

    /// The name of the command, as it would appear in a Redis log.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Command::Set { .. } => "SET",
            Command::Get { .. } => "GET",
            Command::Del { .. } => "DEL",
            Command::Exists { .. } => "EXISTS",
            Command::ExpireAt { .. } => "PEXPIREAT",
            Command::Expire { .. } => "PEXPIRE",
            Command::Ttl { .. } => "PTTL",
            Command::Persist { .. } => "PERSIST",
            Command::HSet { .. } => "HSET",
            Command::HSetMulti { .. } => "HMSET",
            Command::HGet { .. } => "HGET",
            Command::HGetAll { .. } => "HGETALL",
            Command::HDel { .. } => "HDEL",
            Command::SAdd { .. } => "SADD",
            Command::SRem { .. } => "SREM",
            Command::SMembers { .. } => "SMEMBERS",
            Command::Keys { .. } => "KEYS",
            Command::Scan { .. } => "SCAN",
            Command::DbSize => "DBSIZE",
            Command::FlushAll => "FLUSHALL",
            Command::SetGoverned { .. } => "SETGOVERNED",
            Command::Govern { .. } => "GOVERN",
        }
    }

    /// The key a command primarily operates on, if any (used for audit
    /// records and for the GDPR metadata lookups).
    #[must_use]
    pub fn primary_key(&self) -> Option<&str> {
        match self {
            Command::Set { key, .. }
            | Command::Get { key }
            | Command::Del { key }
            | Command::Exists { key }
            | Command::ExpireAt { key, .. }
            | Command::Expire { key, .. }
            | Command::Ttl { key }
            | Command::Persist { key }
            | Command::HSet { key, .. }
            | Command::HSetMulti { key, .. }
            | Command::HGet { key, .. }
            | Command::HGetAll { key }
            | Command::HDel { key, .. }
            | Command::SAdd { key, .. }
            | Command::SRem { key, .. }
            | Command::SMembers { key }
            | Command::SetGoverned { key, .. }
            | Command::Govern { key, .. } => Some(key),
            Command::Keys { .. } | Command::Scan { .. } | Command::DbSize | Command::FlushAll => {
                None
            }
        }
    }

    /// Execute the command against a database, consuming it: the payload
    /// of a write moves into the keyspace.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::WrongType`] when a command is applied to a key
    /// of the wrong type.
    pub fn execute(self, db: &mut Db) -> Result<Reply> {
        match self {
            Command::Set { key, value } => {
                db.set(&key, value);
                Ok(Reply::Ok)
            }
            Command::Get { key } => Ok(match db.get(&key)? {
                Some(v) => Reply::Bytes(v),
                None => Reply::Nil,
            }),
            Command::Del { key } => Ok(Reply::Int(i64::from(db.delete(&key)))),
            Command::Exists { key } => Ok(Reply::Int(i64::from(db.exists(&key)))),
            Command::ExpireAt { key, at_ms } => {
                Ok(Reply::Int(i64::from(db.expire_at(&key, at_ms))))
            }
            Command::Expire { key, ttl_ms } => {
                Ok(Reply::Int(i64::from(db.expire_in_millis(&key, ttl_ms))))
            }
            Command::Ttl { key } => Ok(match db.ttl_millis(&key) {
                Some(ms) => Reply::Int(ms as i64),
                None => Reply::Nil,
            }),
            Command::Persist { key } => Ok(Reply::Int(i64::from(db.persist(&key)))),
            Command::HSet { key, field, value } => {
                Ok(Reply::Int(i64::from(db.hset(&key, &field, value)?)))
            }
            Command::HSetMulti { key, fields } => {
                Ok(Reply::Int(db.hset_multi(&key, fields)? as i64))
            }
            Command::HGet { key, field } => Ok(match db.hget(&key, &field)? {
                Some(v) => Reply::Bytes(v),
                None => Reply::Nil,
            }),
            Command::HGetAll { key } => Ok(match db.hgetall(&key)? {
                Some(map) => Reply::Map(map),
                None => Reply::Nil,
            }),
            Command::HDel { key, field } => Ok(Reply::Int(i64::from(db.hdel(&key, &field)?))),
            Command::SAdd { key, member } => Ok(Reply::Int(i64::from(db.sadd(&key, member)?))),
            Command::SRem { key, member } => Ok(Reply::Int(i64::from(db.srem(&key, &member)?))),
            Command::SMembers { key } => Ok(Reply::Array(db.smembers(&key)?)),
            Command::Keys { pattern } => Ok(Reply::StringArray(db.keys(&pattern))),
            Command::Scan { start, count } => {
                Ok(Reply::StringArray(db.scan_range(&start, count as usize)))
            }
            Command::DbSize => Ok(Reply::Int(db.len() as i64)),
            Command::FlushAll => Ok(Reply::Int(db.flush_all() as i64)),
            Command::SetGoverned {
                key,
                value,
                governed,
            } => {
                db.set_governed(&key, value, Some(governed));
                Ok(Reply::Ok)
            }
            Command::Govern { key, governed } => {
                Ok(Reply::Int(i64::from(db.govern(&key, governed))))
            }
        }
    }

    /// Encode the command into the binary form journaled in the AOF.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`Self::encode`], appending to `out`: the journal builds a batch of
    /// records in one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Command::Set { key, value } => {
                out.push(0x01);
                put_str(out, key);
                put_bytes(out, value);
            }
            Command::Get { key } => encode_keyed(out, OP_GET, key),
            Command::Del { key } => encode_keyed(out, OP_DEL, key),
            Command::Exists { key } => encode_keyed(out, OP_EXISTS, key),
            Command::ExpireAt { key, at_ms } => {
                out.push(0x05);
                put_str(out, key);
                put_u64(out, *at_ms);
            }
            Command::Expire { key, ttl_ms } => {
                out.push(0x06);
                put_str(out, key);
                put_u64(out, *ttl_ms);
            }
            Command::Ttl { key } => {
                out.push(0x07);
                put_str(out, key);
            }
            Command::Persist { key } => {
                out.push(0x08);
                put_str(out, key);
            }
            Command::HSet { key, field, value } => {
                out.push(0x09);
                put_str(out, key);
                put_str(out, field);
                put_bytes(out, value);
            }
            Command::HSetMulti { key, fields } => {
                out.push(0x0a);
                put_str(out, key);
                put_u64(out, fields.len() as u64);
                for (f, v) in fields {
                    put_str(out, f);
                    put_bytes(out, v);
                }
            }
            Command::HGet { key, field } => {
                out.push(0x0b);
                put_str(out, key);
                put_str(out, field);
            }
            Command::HGetAll { key } => {
                out.push(0x0c);
                put_str(out, key);
            }
            Command::HDel { key, field } => {
                out.push(0x0d);
                put_str(out, key);
                put_str(out, field);
            }
            Command::SAdd { key, member } => {
                out.push(0x0e);
                put_str(out, key);
                put_bytes(out, member);
            }
            Command::SRem { key, member } => {
                out.push(0x0f);
                put_str(out, key);
                put_bytes(out, member);
            }
            Command::SMembers { key } => {
                out.push(0x10);
                put_str(out, key);
            }
            Command::Keys { pattern } => {
                out.push(0x11);
                put_str(out, pattern);
            }
            Command::Scan { start, count } => {
                out.push(0x12);
                put_str(out, start);
                put_u64(out, *count);
            }
            Command::DbSize => out.push(0x13),
            Command::FlushAll => out.push(0x14),
            Command::SetGoverned {
                key,
                value,
                governed,
            } => {
                out.push(0x15);
                put_str(out, key);
                put_bytes(out, value);
                put_bytes(out, governed);
            }
            Command::Govern { key, governed } => {
                out.push(0x16);
                put_str(out, key);
                put_bytes(out, governed);
            }
        }
    }

    /// Decode a command previously produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        const CTX: &str = "aof command";
        let mut r = Reader::new(bytes);
        let opcode = r.get_u8(CTX)?;
        let cmd = match opcode {
            0x01 => Command::Set {
                key: r.get_str(CTX)?,
                value: r.get_bytes(CTX)?,
            },
            OP_GET => Command::Get {
                key: r.get_str(CTX)?,
            },
            OP_DEL => Command::Del {
                key: r.get_str(CTX)?,
            },
            OP_EXISTS => Command::Exists {
                key: r.get_str(CTX)?,
            },
            0x05 => Command::ExpireAt {
                key: r.get_str(CTX)?,
                at_ms: r.get_u64(CTX)?,
            },
            0x06 => Command::Expire {
                key: r.get_str(CTX)?,
                ttl_ms: r.get_u64(CTX)?,
            },
            0x07 => Command::Ttl {
                key: r.get_str(CTX)?,
            },
            0x08 => Command::Persist {
                key: r.get_str(CTX)?,
            },
            0x09 => Command::HSet {
                key: r.get_str(CTX)?,
                field: r.get_str(CTX)?,
                value: r.get_bytes(CTX)?,
            },
            0x0a => {
                let key = r.get_str(CTX)?;
                let n = r.get_u64(CTX)?;
                let mut fields = BTreeMap::new();
                for _ in 0..n {
                    let f = r.get_str(CTX)?;
                    let v = r.get_bytes(CTX)?;
                    fields.insert(f, v);
                }
                Command::HSetMulti { key, fields }
            }
            0x0b => Command::HGet {
                key: r.get_str(CTX)?,
                field: r.get_str(CTX)?,
            },
            0x0c => Command::HGetAll {
                key: r.get_str(CTX)?,
            },
            0x0d => Command::HDel {
                key: r.get_str(CTX)?,
                field: r.get_str(CTX)?,
            },
            0x0e => Command::SAdd {
                key: r.get_str(CTX)?,
                member: r.get_bytes(CTX)?,
            },
            0x0f => Command::SRem {
                key: r.get_str(CTX)?,
                member: r.get_bytes(CTX)?,
            },
            0x10 => Command::SMembers {
                key: r.get_str(CTX)?,
            },
            0x11 => Command::Keys {
                pattern: r.get_str(CTX)?,
            },
            0x12 => Command::Scan {
                start: r.get_str(CTX)?,
                count: r.get_u64(CTX)?,
            },
            0x13 => Command::DbSize,
            0x14 => Command::FlushAll,
            0x15 => Command::SetGoverned {
                key: r.get_str(CTX)?,
                value: r.get_bytes(CTX)?,
                governed: r.get_slice(CTX)?.into(),
            },
            0x16 => Command::Govern {
                key: r.get_str(CTX)?,
                governed: r.get_slice(CTX)?.into(),
            },
            other => {
                return Err(StoreError::Corrupt {
                    context: CTX,
                    detail: format!("unknown opcode 0x{other:02x}"),
                })
            }
        };
        if !r.is_at_end() {
            return Err(StoreError::Corrupt {
                context: CTX,
                detail: format!("{} trailing bytes after command", r.remaining()),
            });
        }
        Ok(cmd)
    }
}

impl Reply {
    /// Interpret the reply as an optional bulk value (for `GET`-style
    /// commands).
    #[must_use]
    pub fn into_bytes(self) -> Option<Bytes> {
        match self {
            Reply::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Interpret the reply as an integer, if it is one.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Reply::Int(i) => Some(*i),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use std::sync::Arc;

    fn db() -> Db {
        Db::new(Arc::new(SimClock::new(1_000)))
    }

    fn all_commands() -> Vec<Command> {
        let mut fields = BTreeMap::new();
        fields.insert("f0".to_string(), b"v0".to_vec());
        fields.insert("f1".to_string(), b"v1".to_vec());
        vec![
            Command::Set {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            Command::Get { key: "k".into() },
            Command::Del { key: "k".into() },
            Command::Exists { key: "k".into() },
            Command::ExpireAt {
                key: "k".into(),
                at_ms: 123_456,
            },
            Command::Expire {
                key: "k".into(),
                ttl_ms: 999,
            },
            Command::Ttl { key: "k".into() },
            Command::Persist { key: "k".into() },
            Command::HSet {
                key: "h".into(),
                field: "f".into(),
                value: b"v".to_vec(),
            },
            Command::HSetMulti {
                key: "h".into(),
                fields,
            },
            Command::HGet {
                key: "h".into(),
                field: "f".into(),
            },
            Command::HGetAll { key: "h".into() },
            Command::HDel {
                key: "h".into(),
                field: "f".into(),
            },
            Command::SAdd {
                key: "s".into(),
                member: b"m".to_vec(),
            },
            Command::SRem {
                key: "s".into(),
                member: b"m".to_vec(),
            },
            Command::SMembers { key: "s".into() },
            Command::Keys {
                pattern: "*".into(),
            },
            Command::Scan {
                start: "a".into(),
                count: 10,
            },
            Command::DbSize,
            Command::FlushAll,
            Command::SetGoverned {
                key: "g".into(),
                value: b"v".to_vec(),
                governed: Arc::from(&b"subject"[..]),
            },
            Command::Govern {
                key: "g".into(),
                governed: Arc::from(&b"other subject"[..]),
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip_every_command() {
        for cmd in all_commands() {
            let encoded = cmd.encode();
            let decoded = Command::decode(&encoded).unwrap();
            assert_eq!(decoded, cmd);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Command::decode(&[]).is_err());
        assert!(Command::decode(&[0xff]).is_err());
        // Valid opcode but truncated body.
        assert!(Command::decode(&[0x01, 4, 0, 0, 0, b'a']).is_err());
        // Trailing junk.
        let mut enc = Command::DbSize.encode();
        enc.push(0);
        assert!(Command::decode(&enc).is_err());
    }

    #[test]
    fn write_classification() {
        for cmd in all_commands() {
            let expected = !matches!(
                cmd,
                Command::Get { .. }
                    | Command::Exists { .. }
                    | Command::Ttl { .. }
                    | Command::HGet { .. }
                    | Command::HGetAll { .. }
                    | Command::SMembers { .. }
                    | Command::Keys { .. }
                    | Command::Scan { .. }
                    | Command::DbSize
            );
            assert_eq!(cmd.is_write(), expected, "{}", cmd.name());
        }
    }

    #[test]
    fn primary_key_extraction() {
        assert_eq!(
            Command::Get { key: "abc".into() }.primary_key(),
            Some("abc")
        );
        assert_eq!(Command::DbSize.primary_key(), None);
        assert_eq!(Command::FlushAll.primary_key(), None);
    }

    #[test]
    fn execute_string_lifecycle() {
        let mut db = db();
        assert_eq!(
            Command::Set {
                key: "k".into(),
                value: b"v".to_vec()
            }
            .execute(&mut db)
            .unwrap(),
            Reply::Ok
        );
        assert_eq!(
            Command::Get { key: "k".into() }.execute(&mut db).unwrap(),
            Reply::Bytes(b"v".to_vec())
        );
        assert_eq!(
            Command::Exists { key: "k".into() }
                .execute(&mut db)
                .unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            Command::Del { key: "k".into() }.execute(&mut db).unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            Command::Get { key: "k".into() }.execute(&mut db).unwrap(),
            Reply::Nil
        );
    }

    #[test]
    fn execute_hash_and_scan() {
        let mut db = db();
        let mut fields = BTreeMap::new();
        fields.insert("field0".to_string(), b"a".to_vec());
        fields.insert("field1".to_string(), b"b".to_vec());
        Command::HSetMulti {
            key: "user1".into(),
            fields,
        }
        .execute(&mut db)
        .unwrap();
        Command::HSet {
            key: "user2".into(),
            field: "field0".into(),
            value: b"c".to_vec(),
        }
        .execute(&mut db)
        .unwrap();
        let reply = Command::HGetAll {
            key: "user1".into(),
        }
        .execute(&mut db)
        .unwrap();
        match reply {
            Reply::Map(m) => assert_eq!(m.len(), 2),
            other => panic!("expected map, got {other:?}"),
        }
        assert_eq!(
            Command::Scan {
                start: "user1".into(),
                count: 10
            }
            .execute(&mut db)
            .unwrap(),
            Reply::StringArray(vec!["user1".into(), "user2".into()])
        );
        assert_eq!(Command::DbSize.execute(&mut db).unwrap(), Reply::Int(2));
    }

    #[test]
    fn execute_ttl_commands() {
        let mut db = db();
        Command::Set {
            key: "k".into(),
            value: b"v".to_vec(),
        }
        .execute(&mut db)
        .unwrap();
        assert_eq!(
            Command::Expire {
                key: "k".into(),
                ttl_ms: 5_000
            }
            .execute(&mut db)
            .unwrap(),
            Reply::Int(1)
        );
        match (Command::Ttl { key: "k".into() }).execute(&mut db).unwrap() {
            Reply::Int(ms) => assert!(ms <= 5_000 && ms > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            Command::Persist { key: "k".into() }
                .execute(&mut db)
                .unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            Command::Ttl { key: "k".into() }.execute(&mut db).unwrap(),
            Reply::Nil
        );
        assert_eq!(
            Command::Expire {
                key: "missing".into(),
                ttl_ms: 5
            }
            .execute(&mut db)
            .unwrap(),
            Reply::Int(0)
        );
    }

    #[test]
    fn reply_accessors() {
        assert_eq!(
            Reply::Bytes(b"x".to_vec()).into_bytes(),
            Some(b"x".to_vec())
        );
        assert_eq!(Reply::Nil.into_bytes(), None);
        assert_eq!(Reply::Int(7).as_int(), Some(7));
        assert_eq!(Reply::Ok.as_int(), None);
    }
}
