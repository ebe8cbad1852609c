//! The op/outcome model and the seeded, deterministic generator.
//!
//! [`load_ops`] and [`transaction_ops`] are pure functions of a
//! [`BenchSpec`]: same spec ⇒ byte-identical op stream, with subject
//! popularity following the same Zipfian skew YCSB uses (a few hot
//! subjects own most of the rights traffic, the long tail is cold).
//! Shard counts and transports are deliberately absent from the
//! signatures — they can only *route* ops, never change them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ycsb::generator::{NumberGenerator, ZipfianGenerator};

use crate::spec::{BenchSpec, Role, LOAD_PURPOSE, PURPOSE_POOL};

/// FNV-1a over a byte string — used to derive phase- and role-distinct
/// sub-seeds from the master seed (ycsb's `fnv1a_64` hashes integers).
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One GDPRbench operation, transport-agnostic. The wire mapping lives in
/// [`crate::client`]; every op has an exact `GDPR.*` (or plain `GET`)
/// command form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GdprOp {
    /// Store a value with its metadata (`GDPR.PUT`).
    Put {
        /// Key to write.
        key: String,
        /// Owning data subject.
        subject: String,
        /// Whitelisted purposes.
        purposes: Vec<String>,
        /// Value payload.
        value: Vec<u8>,
    },
    /// Purpose-checked data read (plain `GET` on the compliance engine).
    Read {
        /// Key to read.
        key: String,
    },
    /// Metadata read (`GDPR.GETMETA`).
    GetMeta {
        /// Key whose metadata is read.
        key: String,
    },
    /// Metadata replacement — a purpose re-stamp (`GDPR.SETMETA`).
    SetMeta {
        /// Key whose metadata is replaced.
        key: String,
        /// The (unchanged) owning subject.
        subject: String,
        /// The new purpose whitelist.
        purposes: Vec<String>,
    },
    /// Subject-to-keys fan-out (`GDPR.KEYSOF`, the Art. 15 lookup).
    KeysOf {
        /// The data subject.
        subject: String,
    },
    /// Portability export (`GDPR.EXPORT`, Art. 20).
    Export {
        /// The data subject.
        subject: String,
    },
    /// Right to be forgotten (`GDPR.ERASE`, Art. 17).
    Erase {
        /// The data subject.
        subject: String,
    },
    /// Objection to a processing purpose (`GDPR.OBJECT`, Art. 21).
    Object {
        /// The objecting subject.
        subject: String,
        /// The purpose objected to.
        purpose: String,
    },
    /// Compliance-counter query (`GDPR.STATS`).
    Stats,
}

impl GdprOp {
    /// The right/op label (`keysof`, `export`, `erase`, …).
    #[must_use]
    pub fn right(&self) -> &'static str {
        match self {
            GdprOp::Put { .. } => "put",
            GdprOp::Read { .. } => "read",
            GdprOp::GetMeta { .. } => "getmeta",
            GdprOp::SetMeta { .. } => "setmeta",
            GdprOp::KeysOf { .. } => "keysof",
            GdprOp::Export { .. } => "export",
            GdprOp::Erase { .. } => "erase",
            GdprOp::Object { .. } => "object",
            GdprOp::Stats => "stats",
        }
    }
}

/// The semantically comparable result of one op, uniform across
/// transports. `Ok` carries a small integer summary (keys found, keys
/// erased, export bytes, found/missing flags) so two transport legs can be
/// compared op-by-op, not just error-by-error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The op succeeded; the payload summarises its observable result.
    Ok(u64),
    /// The compliance layer refused the op (access control, purpose
    /// limitation, location policy, or a missing session).
    Denied,
    /// The op failed for a non-compliance reason (missing key, transport
    /// or storage error).
    Failed,
}

impl Outcome {
    /// Whether this outcome is a compliance denial.
    #[must_use]
    pub fn is_denied(self) -> bool {
        matches!(self, Outcome::Denied)
    }

    /// Whether this outcome is a non-compliance failure.
    #[must_use]
    pub fn is_failed(self) -> bool {
        matches!(self, Outcome::Failed)
    }
}

/// Canonical subject name for subject index `i`.
#[must_use]
pub fn subject_name(i: u64) -> String {
    format!("subject{i:06}")
}

/// Canonical key name for record `k` of subject `i`.
#[must_use]
pub fn key_name(subject: u64, k: u64) -> String {
    format!("user{subject:06}:k{k:04}")
}

/// The purpose whitelist stamped on a freshly loaded record: always the
/// loader's purpose, then a seeded subset of [`PURPOSE_POOL`] — most
/// records are processable (`processing`), fewer allow `analytics`, few
/// allow `marketing`.
fn record_purposes(rng: &mut StdRng) -> Vec<String> {
    let mut purposes = vec![LOAD_PURPOSE.to_string()];
    let weights = [0.80, 0.50, 0.20];
    for (purpose, &p) in PURPOSE_POOL.iter().zip(weights.iter()) {
        if rng.gen_bool(p) {
            purposes.push((*purpose).to_string());
        }
    }
    purposes
}

/// Deterministic value payload for a record (no RNG: the bytes identify
/// the record, which makes cross-transport mismatches easy to localise).
fn record_value(subject: u64, k: u64, len: usize) -> Vec<u8> {
    let tag = format!("s{subject:06}k{k:04}:");
    let mut value = Vec::with_capacity(len.max(tag.len()));
    value.extend_from_slice(tag.as_bytes());
    while value.len() < len {
        value.push(b'a' + ((subject + k + value.len() as u64) % 26) as u8);
    }
    value.truncate(len.max(tag.len()));
    value
}

/// Expand the load phase: one `Put` per record, subjects in order, with
/// seeded purpose stamping. Pure in the spec.
#[must_use]
pub fn load_ops(spec: &BenchSpec) -> Vec<GdprOp> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ fnv1a_bytes(b"gdprbench-load"));
    let mut ops = Vec::with_capacity(spec.record_count() as usize);
    for s in 0..spec.subjects {
        for k in 0..spec.keys_per_subject {
            ops.push(GdprOp::Put {
                key: key_name(s, k),
                subject: subject_name(s),
                purposes: record_purposes(&mut rng),
                value: record_value(s, k, spec.value_len),
            });
        }
    }
    ops
}

/// Expand the transaction phase for the spec's role: `operation_count`
/// ops drawn from the role's mix, subject choice Zipfian-skewed. Pure in
/// the spec.
#[must_use]
pub fn transaction_ops(spec: &BenchSpec) -> Vec<GdprOp> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ fnv1a_bytes(spec.role.name().as_bytes()) ^ fnv1a_bytes(b"gdprbench-txn"),
    );
    let mut zipf = ZipfianGenerator::new(spec.subjects);
    let mut ops = Vec::with_capacity(spec.operation_count as usize);
    for _ in 0..spec.operation_count {
        let s = zipf.next_value(&mut rng);
        ops.push(next_op(spec, &mut rng, s));
    }
    ops
}

/// Draw one op for `subject` from the role's mix.
fn next_op(spec: &BenchSpec, rng: &mut StdRng, s: u64) -> GdprOp {
    let subject = subject_name(s);
    let key_of = |rng: &mut StdRng, s: u64| key_name(s, rng.gen_range(0..spec.keys_per_subject));
    let percent = rng.gen_range(0u32..100);
    match spec.role {
        // Rights requests over the subject's own data. Erasure is rare but
        // present: a hot subject disappearing mid-run is exactly the
        // scenario the suite must keep deterministic.
        Role::Customer => match percent {
            0..=29 => GdprOp::KeysOf { subject },
            30..=54 => GdprOp::Export { subject },
            55..=79 => GdprOp::GetMeta {
                key: key_of(rng, s),
            },
            80..=94 => GdprOp::Object {
                subject,
                purpose: PURPOSE_POOL[rng.gen_range(0..PURPOSE_POOL.len())].to_string(),
            },
            _ => GdprOp::Erase { subject },
        },
        // Metadata curation: purpose re-stamps and fresh writes. Every new
        // whitelist contains the controller's own purpose (a controller
        // cannot stamp metadata it could not itself operate under).
        Role::Controller => match percent {
            0..=44 => GdprOp::SetMeta {
                key: key_of(rng, s),
                subject,
                purposes: restamp_purposes(rng),
            },
            45..=74 => GdprOp::GetMeta {
                key: key_of(rng, s),
            },
            _ => GdprOp::Put {
                key: key_of(rng, s),
                subject,
                purposes: restamp_purposes(rng),
                value: record_value(s, rng.gen_range(0..spec.keys_per_subject), spec.value_len),
            },
        },
        // The data plane: purpose-checked reads, with a sprinkle of
        // metadata lookups (a processor verifying what it may do).
        Role::Processor => match percent {
            0..=89 => GdprOp::Read {
                key: key_of(rng, s),
            },
            _ => GdprOp::GetMeta {
                key: key_of(rng, s),
            },
        },
        // Audit sweeps: who holds what, under which purposes, plus
        // compliance-counter reads.
        Role::Regulator => match percent {
            0..=39 => GdprOp::KeysOf { subject },
            40..=64 => GdprOp::GetMeta {
                key: key_of(rng, s),
            },
            65..=84 => GdprOp::Export { subject },
            _ => GdprOp::Stats,
        },
    }
}

/// A controller re-stamp whitelist: loader + controller purposes always,
/// plus a seeded subset of the pool.
fn restamp_purposes(rng: &mut StdRng) -> Vec<String> {
    let mut purposes = vec![
        LOAD_PURPOSE.to_string(),
        Role::Controller.purpose().to_string(),
    ];
    let weights = [0.70, 0.40, 0.10];
    for (purpose, &p) in PURPOSE_POOL.iter().zip(weights.iter()) {
        if rng.gen_bool(p) {
            purposes.push((*purpose).to_string());
        }
    }
    purposes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(role: Role) -> BenchSpec {
        BenchSpec::new(role, 20, 4, 500).seed(7)
    }

    #[test]
    fn generation_is_deterministic() {
        for role in Role::all() {
            assert_eq!(load_ops(&spec(role)), load_ops(&spec(role)));
            assert_eq!(transaction_ops(&spec(role)), transaction_ops(&spec(role)));
        }
    }

    #[test]
    fn load_covers_every_record_once() {
        let s = spec(Role::Processor);
        let ops = load_ops(&s);
        assert_eq!(ops.len() as u64, s.record_count());
        let mut keys: Vec<&str> = ops
            .iter()
            .map(|op| match op {
                GdprOp::Put { key, .. } => key.as_str(),
                other => panic!("load phase generated {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, s.record_count());
    }

    #[test]
    fn every_loaded_record_whitelists_the_loader() {
        for op in load_ops(&spec(Role::Customer)) {
            let GdprOp::Put { purposes, .. } = op else {
                unreachable!()
            };
            assert!(purposes.iter().any(|p| p == LOAD_PURPOSE));
        }
    }

    #[test]
    fn roles_generate_their_signature_ops() {
        let rights: std::collections::BTreeSet<&'static str> =
            transaction_ops(&spec(Role::Customer))
                .iter()
                .map(GdprOp::right)
                .collect();
        assert!(rights.contains("keysof") && rights.contains("export"));
        let rights: std::collections::BTreeSet<&'static str> =
            transaction_ops(&spec(Role::Processor))
                .iter()
                .map(GdprOp::right)
                .collect();
        assert!(rights.contains("read"));
        assert!(!rights.contains("erase"), "processors never erase");
    }

    #[test]
    fn zipfian_skew_concentrates_on_hot_subjects() {
        let s = BenchSpec::new(Role::Regulator, 100, 2, 4_000).seed(11);
        let hot = transaction_ops(&s)
            .iter()
            .filter(|op| match op {
                GdprOp::KeysOf { subject } | GdprOp::Export { subject } => {
                    subject == &subject_name(0)
                }
                _ => false,
            })
            .count();
        // Under uniform choice subject 0 would see ~1% of the fan-outs;
        // Zipfian at theta=0.99 gives it well over 5x that.
        assert!(hot > 120, "hot subject saw only {hot} fan-outs");
    }
}
