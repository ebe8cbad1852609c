//! Point-in-time snapshots (the RDB analogue).
//!
//! A snapshot captures every key, its expiration deadline, its value and
//! the bytes governing it. The engine uses snapshots for two things:
//! explicit persistence (`SAVE`-style, and a replica's full sync), and as
//! the surviving-state source for AOF rewrites (`BGREWRITEAOF` regenerates
//! the log from the live dataset, which is also the moment deleted personal
//! data finally disappears from persistent media — the §4.3 discussion of
//! the paper).

use crate::clock::UnixMillis;
use crate::commands::Command;
use crate::db::Db;
use crate::object::Object;
use crate::serialize::{decode_value, encode_value, put_bytes, put_str, put_u64, Reader};
use crate::{Result, StoreError};

/// File-format magic for snapshots (version 2: every entry carries its
/// governing bytes).
const MAGIC: &[u8; 8] = b"GDPRKV02";

/// Append the snapshot form of `object` stored under `key` — deadline,
/// value, governing bytes — behind the key. The same bytes render the
/// entry in [`crate::store::KvStore::canonical_state`].
pub(crate) fn encode_entry(
    out: &mut Vec<u8>,
    key: &str,
    object: &Object,
    deadline: Option<UnixMillis>,
) {
    put_str(out, key);
    match deadline {
        Some(at) => {
            out.push(1);
            put_u64(out, at);
        }
        None => out.push(0),
    }
    encode_value(out, &object.value);
    match &object.governed {
        Some(governed) => {
            out.push(1);
            put_bytes(out, governed);
        }
        None => out.push(0),
    }
}

/// Serialize the whole keyspace (including TTL deadlines) to bytes.
#[must_use]
pub fn save_to_bytes(db: &Db) -> Vec<u8> {
    save_shards_to_bytes(&[db])
}

/// Serialize a sharded keyspace to one snapshot blob. The format is
/// identical to the single-shard one (shard layout is a runtime choice, so
/// a snapshot taken at one shard count loads at any other).
#[must_use]
pub fn save_shards_to_bytes(dbs: &[&Db]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let total: usize = dbs.iter().map(|db| db.len()).sum();
    put_u64(&mut out, total as u64);
    for db in dbs {
        for (key, object, deadline) in db.iter() {
            encode_entry(&mut out, key, object, deadline);
        }
    }
    out
}

/// Regenerate the minimal command stream that reproduces `db`'s live
/// dataset — the source material for an AOF rewrite (`BGREWRITEAOF`
/// regenerates each shard's journal segment from this, which is the moment
/// deleted personal data finally disappears from persistent media).
#[must_use]
pub fn rewrite_commands(db: &Db) -> Vec<Command> {
    let mut commands = Vec::new();
    for (key, object, deadline) in db.iter() {
        // A governed string is one record; any other governed value is
        // followed by the record that re-governs it.
        let mut governed = object.governed.clone();
        match &object.value {
            crate::object::Value::Str(b) => {
                commands.push(match governed.take() {
                    Some(governed) => Command::SetGoverned {
                        key: key.to_string(),
                        value: b.clone(),
                        governed,
                    },
                    None => Command::Set {
                        key: key.to_string(),
                        value: b.clone(),
                    },
                });
            }
            crate::object::Value::Hash(map) => {
                commands.push(Command::HSetMulti {
                    key: key.to_string(),
                    fields: map.clone(),
                });
            }
            crate::object::Value::Set(members) => {
                for member in members {
                    commands.push(Command::SAdd {
                        key: key.to_string(),
                        member: member.clone(),
                    });
                }
            }
        }
        if let Some(governed) = governed {
            commands.push(Command::Govern {
                key: key.to_string(),
                governed,
            });
        }
        if let Some(at) = deadline {
            commands.push(Command::ExpireAt {
                key: key.to_string(),
                at_ms: at,
            });
        }
    }
    commands
}

/// Load a snapshot produced by [`save_to_bytes`] into `db`, replacing its
/// current contents.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] if the snapshot is malformed.
pub fn load_from_bytes(db: &mut Db, bytes: &[u8]) -> Result<()> {
    load_into_shards(&mut [db], |_| 0, bytes)
}

/// Load a snapshot into a sharded keyspace, routing every key to its
/// owning shard via `route`. Replaces the current contents of every shard.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] if the snapshot is malformed.
pub fn load_into_shards<F>(dbs: &mut [&mut Db], route: F, bytes: &[u8]) -> Result<()>
where
    F: Fn(&str) -> usize,
{
    const CTX: &str = "snapshot";
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt {
            context: CTX,
            detail: "bad magic".to_string(),
        });
    }
    let mut reader = Reader::new(&bytes[MAGIC.len()..]);
    let count = reader.get_u64(CTX)?;
    for db in dbs.iter_mut() {
        db.flush_all();
    }
    for _ in 0..count {
        let key = reader.get_str(CTX)?;
        let has_expiry = reader.get_u8(CTX)? == 1;
        let deadline = if has_expiry {
            Some(reader.get_u64(CTX)?)
        } else {
            None
        };
        let value = decode_value(&mut reader, CTX)?;
        let governed = match reader.get_u8(CTX)? {
            1 => Some(reader.get_slice(CTX)?.into()),
            _ => None,
        };
        let db = &mut dbs[route(&key)];
        db.set_entry(&key, value, governed);
        if let Some(at) = deadline {
            db.expire_at(&key, at);
        }
    }
    if !reader.is_at_end() {
        return Err(StoreError::Corrupt {
            context: CTX,
            detail: format!("{} trailing bytes", reader.remaining()),
        });
    }
    for db in dbs.iter_mut() {
        db.reset_dirty();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use std::sync::Arc;

    fn db_with_clock() -> (Db, SimClock) {
        let clock = SimClock::new(10_000);
        (Db::new(Arc::new(clock.clone())), clock)
    }

    #[test]
    fn roundtrip_preserves_values_and_ttls() {
        let (mut db, _) = db_with_clock();
        db.set("plain", b"value".to_vec());
        db.set("with-ttl", b"expiring".to_vec());
        db.expire_at("with-ttl", 99_000);
        db.hset("hash", "f", b"v".to_vec()).unwrap();
        db.sadd("set", b"m".to_vec()).unwrap();

        let bytes = save_to_bytes(&db);

        let (mut restored, _) = db_with_clock();
        load_from_bytes(&mut restored, &bytes).unwrap();
        assert_eq!(restored.len(), 4);
        assert_eq!(restored.get("plain").unwrap(), Some(b"value".to_vec()));
        assert_eq!(restored.expire_deadline("with-ttl"), Some(99_000));
        assert_eq!(restored.expire_deadline("plain"), None);
        assert_eq!(restored.hget("hash", "f").unwrap(), Some(b"v".to_vec()));
        assert_eq!(restored.smembers("set").unwrap().len(), 1);
    }

    #[test]
    fn load_replaces_existing_content() {
        let (mut source, _) = db_with_clock();
        source.set("only-key", b"v".to_vec());
        let bytes = save_to_bytes(&source);

        let (mut target, _) = db_with_clock();
        target.set("stale", b"old".to_vec());
        load_from_bytes(&mut target, &bytes).unwrap();
        assert!(!target.exists("stale"));
        assert!(target.exists("only-key"));
    }

    #[test]
    fn empty_db_roundtrip() {
        let (db, _) = db_with_clock();
        let bytes = save_to_bytes(&db);
        let (mut restored, _) = db_with_clock();
        restored.set("x", b"y".to_vec());
        load_from_bytes(&mut restored, &bytes).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut db, _) = db_with_clock();
        assert!(load_from_bytes(&mut db, b"NOTMAGIC\0\0\0\0").is_err());
        assert!(load_from_bytes(&mut db, b"").is_err());
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let (mut db, _) = db_with_clock();
        db.set("key", b"value".to_vec());
        let bytes = save_to_bytes(&db);
        let (mut target, _) = db_with_clock();
        assert!(load_from_bytes(&mut target, &bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (db, _) = db_with_clock();
        let mut bytes = save_to_bytes(&db);
        bytes.push(0xde);
        let (mut target, _) = db_with_clock();
        assert!(load_from_bytes(&mut target, &bytes).is_err());
    }
}
