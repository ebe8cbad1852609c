//! The one place that knows how journals older than manifest version 3
//! stored a governed key: as two dictionary entries, the value under the
//! key and its governing bytes as a string under [`META_PREFIX`] + key (a
//! "shadow", with a TTL of its own). Such a journal is folded once on open
//! — every shadow becomes the governing bytes of its data key's entry —
//! and then rewritten, after which the prefix names an ordinary key.

use crate::db::Db;
use crate::object::Value;

/// Prefix of the shadow keys of journals older than manifest version 3.
pub const META_PREFIX: &str = "__gdpr_meta__:";

/// Remove every shadow from `dbs` and attach its bytes to the entry of
/// the data key it describes (in the db `route` names for that key). A
/// shadow whose data key is gone, or that is not a string, describes
/// nothing and is dropped; the shadow's own TTL goes with it, as the data
/// key carries the same deadline.
pub(crate) fn fold_shadows(dbs: &mut [&mut Db], route: impl Fn(&str) -> usize) {
    let pattern = format!("{META_PREFIX}*");
    let mut shadows = Vec::new();
    for db in dbs.iter_mut() {
        for shadow in db.keys(&pattern) {
            if let Some(entry) = db.take(&shadow) {
                shadows.push((shadow, entry.value));
            }
        }
    }
    for (shadow, value) in shadows {
        let key = &shadow[META_PREFIX.len()..];
        if let Value::Str(governed) = value {
            dbs[route(key)].govern(key, governed.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use std::sync::Arc;

    #[test]
    fn shadows_fold_into_their_data_keys_entries() {
        let clock = Arc::new(SimClock::new(1_000));
        let mut dbs = [Db::new(clock.clone()), Db::new(clock)];
        let route = |key: &str| usize::from(key.ends_with('1'));
        dbs[0].set("user0", b"v0".to_vec());
        dbs[1].set("user1", b"v1".to_vec());
        dbs[1].expire_at("user1", 9_000);
        // Shadows sit wherever their writer put them.
        dbs[1].set(&format!("{META_PREFIX}user0"), b"meta0".to_vec());
        dbs[0].set(&format!("{META_PREFIX}user1"), b"meta1".to_vec());
        dbs[0].expire_at(&format!("{META_PREFIX}user1"), 9_000);
        dbs[0].set(&format!("{META_PREFIX}orphan0"), b"nobody".to_vec());
        dbs[0].set("user2", b"v2".to_vec());
        let not_a_string = b"not a string".to_vec();
        dbs[1]
            .sadd(&format!("{META_PREFIX}user2"), not_a_string)
            .unwrap();

        let mut refs: Vec<&mut Db> = dbs.iter_mut().collect();
        fold_shadows(&mut refs, route);

        let governed = |db: &mut Db, key: &str| db.lookup(key).and_then(|o| o.governed.clone());
        assert_eq!(
            governed(&mut dbs[0], "user0").as_deref(),
            Some(&b"meta0"[..])
        );
        assert_eq!(
            governed(&mut dbs[1], "user1").as_deref(),
            Some(&b"meta1"[..])
        );
        assert_eq!(governed(&mut dbs[0], "user2"), None);
        assert_eq!(dbs[1].expire_deadline("user1"), Some(9_000));
        assert_eq!(
            dbs[0].len() + dbs[1].len(),
            3,
            "shadows and the orphan gone"
        );
        assert_eq!(dbs[0].expires_len(), 0, "the shadow's TTL went with it");
    }
}
