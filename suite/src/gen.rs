//! The four workloads and their seeded, lazily generated op streams.
//!
//! A stream is a pure function of `(workload, sizes, seed)`: the program
//! under test only ever sees the generated requests. Every op carries the
//! reply a correct store must give, computed from a client-side model at
//! generation time. That is possible because each key and each data subject
//! has exactly one writer: streams are cut into two *lanes* (one per
//! connection or thread) and a key or subject belongs to the lane of its
//! index parity.

use std::io::Write as _;

use gdprbench::ops::{load_ops, transaction_ops, GdprOp, Outcome};
use gdprbench::spec::{BenchSpec, Role};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resp::command::GdprRequest;
use resp::Frame;
use ycsb::generator::{NumberGenerator, ZipfianGenerator};

/// Connections (TCP workloads) or caller threads (in-process workload).
pub const LANES: usize = 2;
/// Records loaded per data subject in `rights-tcp`.
pub const KEYS_PER_SUBJECT: u64 = 8;
/// Actor the key-value workloads authenticate as.
pub const KV_ACTOR: &str = "suite";
/// Purpose the key-value workloads declare.
pub const KV_PURPOSE: &str = "benchmarking";

/// One of the four pinned workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipfian 95/5 GET/SET, pipelined, over TCP, eventual compliance.
    KvTcpRead,
    /// Uniform 50/50 GET/SET of 1 KiB values, depth 1, over TCP, eventual.
    KvTcpUpdate,
    /// Uniform 50/50 get/put called on `GdprStore`, strict compliance.
    KvInprocStrict,
    /// GDPRbench controller and customer mixes over TCP, eventual.
    RightsTcp,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KvTcpRead,
        Workload::KvTcpUpdate,
        Workload::KvInprocStrict,
        Workload::RightsTcp,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvTcpRead => "kv-tcp-read",
            Workload::KvTcpUpdate => "kv-tcp-update",
            Workload::KvInprocStrict => "kv-inproc-strict",
            Workload::RightsTcp => "rights-tcp",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes through the TCP server.
    pub fn over_tcp(self) -> bool {
        self != Workload::KvInprocStrict
    }

    /// The calibrated sizes. Frozen: a later change compares against numbers
    /// measured with exactly these.
    pub fn spec(self) -> Spec {
        match self {
            // 50 000 records against a 2 048-entry hot cache: the Zipfian hot
            // set only partly fits (hit ratio ~0.6). Depth 16 amortises
            // wake-ups, so the server CPU saturates.
            Workload::KvTcpRead => Spec {
                workload: self,
                records: 50_000,
                value_len: 100,
                zipfian: true,
                read_pct: 95,
                depth: 16,
                chunk_ops: 16,
                warm_ops: 32_768,
            },
            // Uniform keys over 24x the cache bypass the hot tier; 1 KiB
            // values expose the copy tax; depth 1 makes latencies per-request.
            Workload::KvTcpUpdate => Spec {
                workload: self,
                records: 50_000,
                value_len: 1_024,
                zipfian: false,
                read_pct: 50,
                depth: 1,
                chunk_ops: 1,
                warm_ops: 8_192,
            },
            // Every op pays a journal fsync and an audit fsync, so the record
            // count only has to be large enough that keys do not repeat
            // back to back; it is kept small because loading pays the same
            // fsyncs.
            Workload::KvInprocStrict => Spec {
                workload: self,
                records: 1_000,
                value_len: 1_024,
                zipfian: false,
                read_pct: 50,
                depth: 1,
                chunk_ops: 32,
                warm_ops: 256,
            },
            // `records` counts data subjects; each owns KEYS_PER_SUBJECT
            // records of 100 B.
            Workload::RightsTcp => Spec {
                workload: self,
                records: 5_000,
                value_len: 100,
                zipfian: true,
                read_pct: 0,
                depth: 1,
                chunk_ops: 512,
                warm_ops: 2_048,
            },
        }
    }
}

/// Sizes and shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this sizes.
    pub workload: Workload,
    /// Records (key-value workloads) or data subjects (`rights-tcp`).
    pub records: u64,
    /// Value payload in bytes.
    pub value_len: usize,
    /// Zipfian (theta 0.99) key choice instead of uniform.
    pub zipfian: bool,
    /// Share of GETs in the key-value mix, in percent.
    pub read_pct: u32,
    /// Requests in flight per connection.
    pub depth: usize,
    /// Ops generated per lane and chunk (`rights-tcp`: per chunk, both
    /// lanes together). Generation happens between chunks, off the clock.
    /// The key-value TCP workloads generate one wave at a time, so a run can
    /// stop after any wave; a `rights-tcp` chunk is one role's block of ops.
    pub chunk_ops: usize,
    /// Ops run untimed before measuring.
    pub warm_ops: u64,
}

impl Spec {
    /// The same shape at a size the unit tests can afford.
    #[cfg(test)]
    pub fn tiny(mut self) -> Spec {
        self.records = 64;
        self.chunk_ops = self.chunk_ops.min(64);
        self.warm_ops = 64;
        self
    }

    /// Records the load phase writes.
    pub fn loaded_records(&self) -> u64 {
        match self.workload {
            Workload::RightsTcp => self.records * KEYS_PER_SUBJECT,
            _ => self.records,
        }
    }

    fn bench_spec(&self, role: Role, ops: u64, seed: u64) -> BenchSpec {
        BenchSpec::new(role, self.records, KEYS_PER_SUBJECT, ops)
            .value_len(self.value_len)
            .seed(seed)
    }

    /// The `rights-tcp` load phase: one `GDPR.PUT` per record.
    pub fn rights_load_ops(&self, seed: u64) -> Vec<GdprOp> {
        load_ops(&self.bench_spec(Role::Customer, 0, seed))
    }
}

/// What kind of request an op is; indexes the per-kind latency tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plain `GET`.
    Get,
    /// Plain `SET`.
    Set,
    /// `GDPR.PUT`.
    Put,
    /// `GDPR.GETMETA`.
    GetMeta,
    /// `GDPR.SETMETA`.
    SetMeta,
    /// `GDPR.KEYSOF`.
    KeysOf,
    /// `GDPR.EXPORT`.
    Export,
    /// `GDPR.ERASE`.
    Erase,
    /// `GDPR.OBJECT`.
    Object,
}

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 9;
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; Kind::COUNT] = [
        Kind::Get,
        Kind::Set,
        Kind::Put,
        Kind::GetMeta,
        Kind::SetMeta,
        Kind::KeysOf,
        Kind::Export,
        Kind::Erase,
        Kind::Object,
    ];

    /// Whether the op mutates stored data.
    pub fn is_write(self) -> bool {
        !matches!(
            self,
            Kind::Get | Kind::GetMeta | Kind::KeysOf | Kind::Export
        )
    }
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `GET user<key>`.
    Get {
        /// Key index.
        key: u64,
    },
    /// `SET user<key> value(key, version)`.
    Set {
        /// Key index.
        key: u64,
        /// The version this write installs.
        version: u32,
    },
    /// A GDPRbench op.
    Rights(GdprOp),
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get { .. } => Kind::Get,
            Op::Set { .. } => Kind::Set,
            Op::Rights(op) => match op {
                GdprOp::Put { .. } => Kind::Put,
                GdprOp::GetMeta { .. } => Kind::GetMeta,
                GdprOp::SetMeta { .. } => Kind::SetMeta,
                GdprOp::KeysOf { .. } => Kind::KeysOf,
                GdprOp::Export { .. } => Kind::Export,
                GdprOp::Erase { .. } => Kind::Erase,
                GdprOp::Object { .. } => Kind::Object,
                // The controller and customer mixes generate nothing else.
                GdprOp::Read { .. } | GdprOp::Stats => {
                    unreachable!("not in the controller/customer mixes")
                }
            },
        }
    }
}

/// The reply a correct store gives to an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A bulk reply equal to `value(key, version)`: read-your-writes.
    Value {
        /// Key index.
        key: u64,
        /// Latest version this lane wrote.
        version: u32,
    },
    /// Exactly this outcome. `Failed` is the expected answer to a
    /// `GDPR.SETMETA` on a key whose subject was erased.
    Exactly(Outcome),
    /// Any success (`GDPR.EXPORT`: the document length is not modelled).
    AnyOk,
}

/// An op with its expected reply.
#[derive(Debug, Clone)]
pub struct Item {
    /// The request.
    pub op: Op,
    /// What a correct store answers.
    pub expect: Expect,
    /// For the subject fan-out rights (KEYSOF, EXPORT, ERASE, OBJECT): how
    /// many keys the subject holds when the op runs.
    pub fanout: Option<u8>,
}

/// Key name of key index `key`. Under the plain `SET` surface the key
/// doubles as its data subject.
pub fn key_name(key: u64) -> String {
    format!("user{key:08}")
}

/// The value version `version` of key `key` holds: both are embedded, so a
/// stale or misrouted reply cannot pass for the right one.
pub fn value_into(buf: &mut Vec<u8>, key: u64, version: u32, len: usize) {
    buf.clear();
    let _ = write!(buf, "k{key:08}v{version:08}:");
    let mut fill = (key + u64::from(version)) % 26;
    while buf.len() < len {
        buf.push(b'a' + fill as u8);
        fill = if fill == 25 { 0 } else { fill + 1 };
    }
}

/// [`value_into`] into a fresh buffer.
pub fn value(key: u64, version: u32, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len);
    value_into(&mut buf, key, version, len);
    buf
}

/// The RESP request frame of an op.
pub fn request_frame(op: &Op, value_len: usize) -> Frame {
    match op {
        Op::Get { key } => Frame::command(["GET".to_string(), key_name(*key)]),
        Op::Set { key, version } => Frame::Array(vec![
            Frame::bulk("SET"),
            Frame::bulk(key_name(*key)),
            Frame::Bulk(value(*key, *version, value_len)),
        ]),
        Op::Rights(op) => rights_request(op).to_frame(),
    }
}

fn rights_request(op: &GdprOp) -> GdprRequest {
    match op.clone() {
        GdprOp::Put {
            key,
            subject,
            purposes,
            value,
        } => GdprRequest::Put {
            key,
            subject,
            purposes,
            value,
            ttl_ms: None,
        },
        GdprOp::GetMeta { key } => GdprRequest::GetMeta { key },
        GdprOp::SetMeta {
            key,
            subject,
            purposes,
        } => GdprRequest::SetMeta {
            key,
            subject,
            purposes,
            ttl_ms: None,
        },
        GdprOp::KeysOf { subject } => GdprRequest::KeysOf { subject },
        GdprOp::Export { subject } => GdprRequest::Export {
            subject,
            cursor: None,
            count: None,
        },
        GdprOp::Erase { subject } => GdprRequest::Erase { subject },
        GdprOp::Object { subject, purpose } => GdprRequest::Object { subject, purpose },
        GdprOp::Read { .. } | GdprOp::Stats => unreachable!("not in the controller/customer mixes"),
    }
}

/// Key plus value bytes a write hands the store (the denominator of
/// `write_amp`); 0 for everything else.
pub fn user_bytes(op: &Op, value_len: usize) -> u64 {
    match op {
        // "user" plus at least eight digits, without building the string.
        Op::Set { key, .. } => {
            (4 + (key.checked_ilog10().unwrap_or(0) as usize + 1).max(8) + value_len) as u64
        }
        Op::Rights(GdprOp::Put { key, value, .. }) => (key.len() + value.len()) as u64,
        _ => 0,
    }
}

/// Derive an independent sub-seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One lane of a key-value stream with its version model.
#[derive(Debug, Clone)]
pub struct KvLane {
    lane: u64,
    rng: StdRng,
    zipf: Option<ZipfianGenerator>,
    versions: Vec<u32>,
    read_pct: u32,
}

impl KvLane {
    fn new(spec: &Spec, seed: u64, lane: usize) -> KvLane {
        let slots = spec.records / LANES as u64;
        KvLane {
            lane: lane as u64,
            rng: StdRng::seed_from_u64(mix(seed, lane as u64)),
            zipf: spec.zipfian.then(|| ZipfianGenerator::new(slots)),
            versions: vec![0; slots as usize],
            read_pct: spec.read_pct,
        }
    }

    /// The next op of this lane.
    pub fn next_item(&mut self) -> Item {
        let slot = match &mut self.zipf {
            Some(zipf) => zipf.next_value(&mut self.rng),
            None => self.rng.gen_range(0..self.versions.len() as u64),
        };
        let key = slot * LANES as u64 + self.lane;
        let version = &mut self.versions[slot as usize];
        if self.rng.gen_range(0u32..100) < self.read_pct {
            Item {
                op: Op::Get { key },
                expect: Expect::Value {
                    key,
                    version: *version,
                },
                fanout: None,
            }
        } else {
            *version += 1;
            Item {
                op: Op::Set {
                    key,
                    version: *version,
                },
                expect: Expect::Exactly(Outcome::Ok(1)),
                fanout: None,
            }
        }
    }

    /// `count` ops.
    pub fn take(&mut self, count: usize) -> Vec<Item> {
        (0..count).map(|_| self.next_item()).collect()
    }

    /// `(key, current version)` of `count` keys of this lane, seeded.
    pub fn sample(&self, count: usize, seed: u64) -> Vec<(u64, u32)> {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5a));
        (0..count)
            .map(|_| {
                let slot = rng.gen_range(0..self.versions.len());
                (slot as u64 * LANES as u64 + self.lane, self.versions[slot])
            })
            .collect()
    }
}

/// The `rights-tcp` stream: alternating controller and customer chunks from
/// `gdprbench::ops::transaction_ops`, routed to lanes by subject parity,
/// with a key-presence model (one bit per record) predicting every reply.
///
/// The phases alternate chunk by chunk instead of running back to back so
/// that any prefix of the stream holds both mixes in equal parts: a run
/// that is cut off by the clock still measures the same workload, and
/// controller PUTs keep re-creating what customer ERASEs remove, so the
/// share of rights requests that find data stays level.
#[derive(Debug, Clone)]
pub struct RightsStream {
    spec: Spec,
    seed: u64,
    chunk_no: u64,
    /// Bit `k` of `present[s]`: record `k` of subject `s` exists.
    present: Vec<u8>,
    /// Subjects a generated ERASE targeted, in order.
    erased: Vec<u64>,
}

fn subject_index(subject: &str) -> u64 {
    subject
        .strip_prefix("subject")
        .and_then(|s| s.parse().ok())
        .expect("gdprbench subject name")
}

fn key_index(key: &str) -> (u64, u64) {
    key.strip_prefix("user")
        .and_then(|rest| rest.split_once(":k"))
        .and_then(|(s, k)| Some((s.parse().ok()?, k.parse().ok()?)))
        .expect("gdprbench key name")
}

impl RightsStream {
    fn new(spec: &Spec, seed: u64) -> RightsStream {
        RightsStream {
            spec: spec.clone(),
            seed,
            chunk_no: 0,
            present: vec![u8::MAX >> (8 - KEYS_PER_SUBJECT); spec.records as usize],
            erased: Vec::new(),
        }
    }

    fn next_chunk(&mut self) -> Chunk {
        let role = if self.chunk_no.is_multiple_of(2) {
            Role::Controller
        } else {
            Role::Customer
        };
        let ops = transaction_ops(&self.spec.bench_spec(
            role,
            self.spec.chunk_ops as u64,
            mix(self.seed, self.chunk_no),
        ));
        self.chunk_no += 1;
        let mut lanes: [Vec<Item>; LANES] = Default::default();
        for op in ops {
            let (subject, item) = self.model(op);
            lanes[(subject % LANES as u64) as usize].push(item);
        }
        Chunk {
            lanes,
            role: Some(role),
        }
    }

    /// Predict `op`'s reply and apply it to the presence model.
    fn model(&mut self, op: GdprOp) -> (u64, Item) {
        let ok = |n: u64| Expect::Exactly(Outcome::Ok(n));
        let (subject, expect, fanout) = match &op {
            GdprOp::Put { key, .. } => {
                let (s, k) = key_index(key);
                self.present[s as usize] |= 1 << k;
                (s, ok(1), None)
            }
            GdprOp::GetMeta { key } => {
                let (s, k) = key_index(key);
                (s, ok(u64::from(self.present[s as usize] >> k & 1)), None)
            }
            GdprOp::SetMeta { key, .. } => {
                let (s, k) = key_index(key);
                let expect = if self.present[s as usize] >> k & 1 == 1 {
                    ok(1)
                } else {
                    // "key does not exist": the subject was erased.
                    Expect::Exactly(Outcome::Failed)
                };
                (s, expect, None)
            }
            GdprOp::KeysOf { subject }
            | GdprOp::Export { subject }
            | GdprOp::Erase { subject }
            | GdprOp::Object { subject, .. } => {
                let s = subject_index(subject);
                let held = self.present[s as usize].count_ones() as u8;
                let expect = if matches!(op, GdprOp::Export { .. }) {
                    Expect::AnyOk
                } else {
                    ok(u64::from(held))
                };
                if matches!(op, GdprOp::Erase { .. }) {
                    self.present[s as usize] = 0;
                    self.erased.push(s);
                }
                (s, expect, Some(held))
            }
            GdprOp::Read { .. } | GdprOp::Stats => {
                unreachable!("not in the controller/customer mixes")
            }
        };
        (
            subject,
            Item {
                op: Op::Rights(op),
                expect,
                fanout,
            },
        )
    }

    /// Records the model says exist.
    pub fn live_records(&self) -> u64 {
        self.present.iter().map(|m| u64::from(m.count_ones())).sum()
    }

    /// `(subject, keys held)` of `count` subjects, seeded.
    pub fn sample(&self, count: usize, seed: u64) -> Vec<(u64, u8)> {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5b));
        (0..count)
            .map(|_| {
                let s = rng.gen_range(0..self.present.len());
                (s as u64, self.present[s].count_ones() as u8)
            })
            .collect()
    }

    /// Up to `count` distinct subjects that were erased and not written
    /// since: a correct store holds nothing of theirs.
    pub fn erased_and_gone(&self, count: usize) -> Vec<u64> {
        let mut seen = std::collections::BTreeSet::new();
        self.erased
            .iter()
            .copied()
            .filter(|&s| self.present[s as usize] == 0 && seen.insert(s))
            .take(count)
            .collect()
    }
}

/// A batch of ops per lane, generated off the clock.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    /// The ops of each lane, in issue order.
    pub lanes: [Vec<Item>; LANES],
    /// The role both connections must be authenticated as (`rights-tcp`).
    pub role: Option<Role>,
}

/// A workload's op stream.
#[derive(Debug, Clone)]
pub enum Stream {
    /// Two independent key-value lanes.
    Kv {
        /// The lanes.
        lanes: [KvLane; LANES],
        /// Ops per lane and chunk.
        chunk_ops: usize,
    },
    /// The routed GDPRbench stream.
    Rights(RightsStream),
}

impl Stream {
    /// The stream of `spec` for `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Stream {
        match spec.workload {
            Workload::RightsTcp => Stream::Rights(RightsStream::new(spec, seed)),
            _ => Stream::Kv {
                lanes: [KvLane::new(spec, seed, 0), KvLane::new(spec, seed, 1)],
                chunk_ops: spec.chunk_ops,
            },
        }
    }

    /// Generate the next chunk.
    pub fn next_chunk(&mut self) -> Chunk {
        match self {
            Stream::Kv { lanes, chunk_ops } => Chunk {
                lanes: [lanes[0].take(*chunk_ops), lanes[1].take(*chunk_ops)],
                role: None,
            },
            Stream::Rights(rights) => rights.next_chunk(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_of(workload: Workload, seed: u64, chunks: usize) -> Vec<Op> {
        let mut stream = Stream::new(&workload.spec().tiny(), seed);
        let mut ops = Vec::new();
        for _ in 0..chunks {
            let chunk = stream.next_chunk();
            for lane in chunk.lanes {
                ops.extend(lane.into_iter().map(|item| item.op));
            }
        }
        ops
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            let a = ops_of(workload, 42, 3);
            assert!(!a.is_empty());
            assert_eq!(a, ops_of(workload, 42, 3), "{}", workload.name());
            assert_ne!(a, ops_of(workload, 7, 3), "{}", workload.name());
        }
    }

    #[test]
    fn workload_names_roundtrip_and_are_plain() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload
                .name()
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn lanes_never_share_a_key_or_subject() {
        let mut stream = Stream::new(&Workload::KvTcpUpdate.spec().tiny(), 1);
        let chunk = stream.next_chunk();
        for (lane, items) in chunk.lanes.iter().enumerate() {
            for item in items {
                let (Op::Get { key } | Op::Set { key, .. }) = &item.op else {
                    panic!("kv stream generated {item:?}")
                };
                assert_eq!(*key as usize % LANES, lane);
            }
        }
        let mut stream = Stream::new(&Workload::RightsTcp.spec().tiny(), 1);
        for _ in 0..4 {
            let chunk = stream.next_chunk();
            for (lane, items) in chunk.lanes.iter().enumerate() {
                for item in items {
                    let Op::Rights(op) = &item.op else {
                        panic!("rights stream generated {item:?}")
                    };
                    let subject = match op {
                        GdprOp::Put { key, .. }
                        | GdprOp::GetMeta { key }
                        | GdprOp::SetMeta { key, .. } => key_index(key).0,
                        GdprOp::KeysOf { subject }
                        | GdprOp::Export { subject }
                        | GdprOp::Erase { subject }
                        | GdprOp::Object { subject, .. } => subject_index(subject),
                        other => panic!("unexpected {other:?}"),
                    };
                    assert_eq!(subject as usize % LANES, lane);
                }
            }
        }
    }

    #[test]
    fn reads_expect_the_latest_write() {
        let mut lane = KvLane::new(&Workload::KvTcpUpdate.spec().tiny(), 9, 0);
        let mut latest = std::collections::HashMap::new();
        for item in lane.take(2_000) {
            match (item.op, item.expect) {
                (Op::Set { key, version }, _) => {
                    assert_eq!(version, latest.get(&key).copied().unwrap_or(0) + 1);
                    latest.insert(key, version);
                }
                (Op::Get { key }, Expect::Value { key: k, version }) => {
                    assert_eq!(key, k);
                    assert_eq!(version, latest.get(&key).copied().unwrap_or(0));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn user_bytes_counts_the_key_name_without_building_it() {
        for key in [0, 7, 99_999_999, 100_000_000, 12_345_678_901] {
            assert_eq!(
                user_bytes(&Op::Set { key, version: 1 }, 100),
                (key_name(key).len() + 100) as u64
            );
        }
        assert_eq!(user_bytes(&Op::Get { key: 3 }, 100), 0);
    }

    #[test]
    fn values_embed_key_and_version() {
        let v = value(12, 3, 64);
        assert_eq!(v.len(), 64);
        assert!(v.starts_with(b"k00000012v00000003:"));
        assert_ne!(v, value(12, 4, 64));
        assert_ne!(v, value(13, 3, 64));
    }

    #[test]
    fn erased_subjects_stay_gone_until_rewritten() {
        let mut stream = RightsStream::new(&Workload::RightsTcp.spec().tiny(), 3);
        for _ in 0..40 {
            stream.next_chunk();
        }
        let gone = stream.erased_and_gone(200);
        assert!(!gone.is_empty(), "the customer mix erases");
        for s in gone {
            assert_eq!(stream.present[s as usize], 0);
        }
        assert!(stream.live_records() < 64 * KEYS_PER_SUBJECT);
    }
}
