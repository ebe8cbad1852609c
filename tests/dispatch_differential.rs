//! One dispatcher, checked against itself.
//!
//! A seeded stream of requests — every command of the table in right and
//! wrong arity and in any case, unknown names, keys that are not UTF-8,
//! binary values, `*0`, frames that are no array, nested arrays, a
//! protocol error in the middle of a pipeline and `SHUTDOWN` last — runs
//! three ways on twin stores (one simulated clock, so deadlines and
//! metadata timestamps agree):
//!
//! * over TCP on one event loop, which runs each command straight from
//!   its read buffer;
//! * over TCP on three event loops, where the second connection is served
//!   by a loop other than the one that accepted it;
//! * through `Dispatcher::handle_frame`, one decoded frame at a time.
//!
//! All three must answer with the same reply bytes and end with the same
//! `DIGEST`, the same per-family command counts and the same
//! `requests`/`errors` counters. (`REPLSYNC` is the one command left out:
//! the event loop hands its connection to a replication feeder, see
//! `tests/replication.rs`.)

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gdpr_server::dispatch::{Dispatcher, Session};
use gdpr_server::tcp::{ServerConfig, TcpServer};
use gdpr_storage::audit::sink::MemorySink;
use gdpr_storage::gdpr_core::policy::CompliancePolicy;
use gdpr_storage::gdpr_core::store::GdprStore;
use gdpr_storage::kvstore::clock::SimClock;
use gdpr_storage::kvstore::config::StoreConfig;
use gdpr_storage::kvstore::store::KvStore;
use gdpr_storage::resp::decode::Decoder;
use gdpr_storage::resp::encode::encode_frame;
use gdpr_storage::resp::Frame;

/// The simulated clock every store starts at (Unix ms).
const T0: u64 = 1_700_000_000_000;

/// Every command the table declares except `REPLSYNC`; checked against
/// docs/WIRE.md, whose command tables a unit test in the server checks
/// against the table row for row.
const NAMES: [&str; 41] = [
    "DBSIZE",
    "DEL",
    "DIGEST",
    "EXISTS",
    "EXPIRE",
    "FLUSHALL",
    "FLUSHDB",
    "GDPR.AUTH",
    "GDPR.ERASE",
    "GDPR.EXPORT",
    "GDPR.GETMETA",
    "GDPR.GRANT",
    "GDPR.KEYSOF",
    "GDPR.OBJECT",
    "GDPR.PUT",
    "GDPR.REVOKE",
    "GDPR.SETMETA",
    "GDPR.STATS",
    "GET",
    "HDEL",
    "HGET",
    "HGETALL",
    "HMSET",
    "HSET",
    "INFO",
    "KEYS",
    "PERSIST",
    "PEXPIRE",
    "PEXPIREAT",
    "PING",
    "PTTL",
    "SADD",
    "SCAN",
    "SET",
    "SHUTDOWN",
    "SLOWLOG",
    "SMEMBERS",
    "SREM",
    "TICK",
    "TTL",
    "UNLINK",
];

/// Commands whose replies carry clocks, latencies or process state:
/// compared by their kind, not their bytes.
const VOLATILE: [&str; 3] = ["INFO", "GDPR.STATS", "SLOWLOG"];

/// A small deterministic generator (xorshift64*).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    fn chance(&mut self, in_n: usize) -> bool {
        self.below(in_n) == 0
    }

    /// A key from a small pool, now and then one that is not UTF-8.
    fn key(&mut self) -> Vec<u8> {
        if self.chance(12) {
            return vec![0xff, b'k', 0xfe];
        }
        self.pick(&["k1", "k2", "user:1", "alice", "bob"])
            .as_bytes()
            .to_vec()
    }

    /// A binary value: CR, LF, NUL and bytes that are not UTF-8.
    fn value(&mut self) -> Vec<u8> {
        let len = if self.chance(8) { 300 } else { self.below(24) };
        (0..len)
            .map(|_| b"ab\r\n\0\xff$*:z"[self.below(10)])
            .collect()
    }

    /// `name` in upper, lower or mixed case.
    fn casing(&mut self, name: &str) -> Vec<u8> {
        match self.below(3) {
            0 => name.as_bytes().to_vec(),
            1 => name.to_ascii_lowercase().into_bytes(),
            _ => name
                .bytes()
                .map(|b| {
                    if self.chance(2) {
                        b.to_ascii_lowercase()
                    } else {
                        b
                    }
                })
                .collect(),
        }
    }

    /// Arguments of the command's own form.
    fn args(&mut self, name: &str) -> Vec<Vec<u8>> {
        let text = |s: &str| s.as_bytes().to_vec();
        let later = (T0 + 3_600_000).to_string();
        match name {
            "DEL" | "UNLINK" | "EXISTS" | "GET" | "HGETALL" | "PERSIST" | "TTL" | "PTTL"
            | "SMEMBERS" | "GDPR.GETMETA" => vec![self.key()],
            "EXPIRE" => {
                let secs = self.pick(&["3600", "0", "soon", "18446744073709552"]);
                vec![self.key(), text(secs)]
            }
            "PEXPIRE" => {
                let ms = self.pick(&["600000", "soon", "18446744073709551615"]);
                vec![self.key(), text(ms)]
            }
            "PEXPIREAT" => {
                let at = self.pick(&[later.as_str(), "9223372036854775808", "x"]);
                vec![self.key(), text(at)]
            }
            "SET" => vec![self.key(), self.value()],
            "HSET" => vec![self.key(), text(self.pick(&["f", "g"])), self.value()],
            "HGET" | "HDEL" => vec![self.key(), text(self.pick(&["f", "g"]))],
            "HMSET" => {
                let mut args = vec![self.key()];
                for _ in 0..1 + self.below(3) {
                    args.push(text(self.pick(&["f", "g", "h"])));
                    args.push(self.value());
                }
                if self.chance(6) {
                    args.pop(); // a field without its value
                }
                args
            }
            "SADD" | "SREM" => vec![self.key(), self.value()],
            "KEYS" => vec![text(self.pick(&["*", "k*", "user:*"]))],
            "SCAN" => vec![
                text(self.pick(&["", "k"])),
                text(self.pick(&["10", "2", "x"])),
            ],
            "SLOWLOG" => match self.below(5) {
                0 => vec![text("RESET")],
                1 => vec![text("LEN")],
                2 => vec![text("GET")],
                3 => vec![text("get"), text("2")],
                _ => vec![text("BOGUS")],
            },
            "GDPR.AUTH" => vec![text(self.pick(&["app", "ghost"])), text("billing")],
            "GDPR.GRANT" | "GDPR.REVOKE" => vec![
                text(self.pick(&["app2", "ops"])),
                text(self.pick(&["billing", "support"])),
            ],
            "GDPR.PUT" => {
                let mut args = vec![
                    self.key(),
                    text(self.pick(&["alice", "bob"])),
                    text(self.pick(&["billing", "billing,support", ""])),
                    self.value(),
                ];
                if self.chance(3) {
                    args.push(text(self.pick(&["600000", "soon"])));
                }
                args
            }
            "GDPR.SETMETA" => {
                let mut args = vec![
                    self.key(),
                    text(self.pick(&["alice", "bob"])),
                    text(self.pick(&["billing", "billing,support"])),
                ];
                if self.chance(3) {
                    args.push(text("600000"));
                }
                args
            }
            "GDPR.KEYSOF" | "GDPR.ERASE" => vec![text(self.pick(&["alice", "bob", "k1"]))],
            "GDPR.EXPORT" => {
                let subject = text(self.pick(&["alice", "bob"]));
                match self.below(4) {
                    0 => vec![subject],
                    1 => vec![subject, text("CURSOR"), text("0")],
                    2 => vec![subject, text("cursor"), text("0"), text("COUNT"), text("1")],
                    _ => vec![subject, text("PAGE"), text("0")],
                }
            }
            "GDPR.OBJECT" => vec![
                text(self.pick(&["alice", "bob"])),
                text(self.pick(&["marketing", "support"])),
            ],
            _ => Vec::new(),
        }
    }
}

/// One request of the stream: its bytes and whether its reply is compared
/// by kind only.
struct Request {
    bytes: Vec<u8>,
    volatile: bool,
}

fn command(name: Vec<u8>, args: Vec<Vec<u8>>, volatile: bool) -> Request {
    let frame = Frame::command(std::iter::once(name).chain(args));
    Request {
        bytes: encode_frame(&frame),
        volatile,
    }
}

fn raw(bytes: &[u8]) -> Request {
    Request {
        bytes: bytes.to_vec(),
        volatile: false,
    }
}

/// Shapes no command table row takes, each answered on its own.
fn odd_shapes() -> Vec<Request> {
    [
        &b"*0\r\n"[..],
        b"+PING\r\n",
        b":5\r\n",
        b"$3\r\nGET\r\n",
        b"*-1\r\n",
        b"*2\r\n$3\r\nGET\r\n*1\r\n$1\r\nk\r\n",
        b"*2\r\n$3\r\nGET\r\n:1\r\n",
        b"*2\r\n$3\r\nGET\r\n$-1\r\n",
        b"*2\r\n+GET\r\n+k1\r\n",
        b"*2\r\n+GET\r\n+\xffk\r\n",
        b"*1\r\n$2\r\n\xff\xfe\r\n",
        b"*1\r\n$0\r\n\r\n",
        b"*2\r\n-GET\r\n$1\r\nk\r\n",
    ]
    .iter()
    .map(|bytes| raw(bytes))
    .collect()
}

/// The stream of one connection: a session for the compliance engine,
/// then `count` requests mixing every command, wrong arities, unknown
/// names and odd shapes.
fn stream(gen: &mut Gen, compliance: bool, count: usize) -> Vec<Request> {
    let mut requests = Vec::new();
    if compliance {
        requests.push(command(
            b"GDPR.AUTH".to_vec(),
            vec![b"app".to_vec(), b"billing".to_vec()],
            false,
        ));
    }
    let mut odd = odd_shapes().into_iter();
    while requests.len() < count {
        let roll = gen.below(20);
        if roll == 0 {
            if let Some(shape) = odd.next() {
                requests.push(shape);
                continue;
            }
        }
        if roll == 1 {
            let name = gen.pick(&["BOGUS", "mget", "gdpr.nope", "SETX", ""]);
            requests.push(command(name.as_bytes().to_vec(), vec![gen.key()], false));
            continue;
        }
        let name = gen.pick(&NAMES);
        if name == "SHUTDOWN" || (name == "GDPR.REVOKE" && gen.chance(2)) {
            continue; // SHUTDOWN ends the stream; a revoke now and then
        }
        let mut args = gen.args(name);
        if gen.chance(10) {
            // Outside the command's arity, one way or the other.
            if args.is_empty() || gen.chance(2) {
                args.push(b"extra".to_vec());
            } else {
                args.pop();
            }
        }
        requests.push(command(gen.casing(name), args, VOLATILE.contains(&name)));
    }
    requests.extend(odd);
    requests
}

/// Everything each path is compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per connection, the reply frames (a volatile reply by its kind).
    replies: Vec<Vec<Frame>>,
    digest: String,
    families: Vec<(&'static str, u64)>,
    requests: u64,
    errors: u64,
}

/// Replace a volatile reply by a frame naming its kind.
fn normalise(replies: Vec<Frame>, connection: &[Request]) -> Vec<Frame> {
    replies
        .into_iter()
        .zip(connection)
        .map(|(reply, request)| {
            if !request.volatile {
                return reply;
            }
            Frame::Simple(
                match reply {
                    Frame::Bulk(_) => "bulk",
                    Frame::Array(_) => "array",
                    Frame::Integer(_) => "integer",
                    Frame::Error(_) => "error",
                    Frame::Simple(_) => "simple",
                    Frame::Null => "null",
                }
                .to_string(),
            )
        })
        .collect()
}

fn outcome(
    dispatcher: &Dispatcher,
    replies: Vec<Vec<Frame>>,
    connections: &[Vec<Request>],
) -> Outcome {
    let stats = dispatcher.stats();
    Outcome {
        replies: replies
            .into_iter()
            .zip(connections)
            .map(|(replies, connection)| normalise(replies, connection))
            .collect(),
        digest: dispatcher.state_digest_hex(),
        families: dispatcher
            .metrics()
            .family_snapshots()
            .into_iter()
            .map(|(family, histogram)| (family, histogram.count()))
            .collect(),
        requests: stats.requests,
        errors: stats.errors,
    }
}

/// Every reply frame in `bytes`.
fn frames(bytes: &[u8]) -> Vec<Frame> {
    let mut decoder = Decoder::new();
    decoder.feed(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = decoder.next_frame().unwrap() {
        frames.push(frame);
    }
    assert_eq!(decoder.buffered(), 0, "a reply was cut short");
    frames
}

/// Run each connection's whole stream as one pipelined write over TCP to
/// a server of `workers` event loops and read its replies until the
/// server closes the connection.
fn over_tcp(dispatcher: Dispatcher, workers: usize, connections: &[Vec<Request>]) -> Outcome {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = TcpServer::bind(dispatcher, "127.0.0.1:0", config).unwrap();
    let dispatcher = server.dispatcher().clone();
    let mut replies = Vec::new();
    for connection in connections {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let bytes: Vec<u8> = connection.iter().flat_map(|r| r.bytes.clone()).collect();
        stream.write_all(&bytes).unwrap();
        let mut received = Vec::new();
        stream.read_to_end(&mut received).unwrap();
        replies.push(frames(&received));
    }
    server.shutdown();
    outcome(&dispatcher, replies, connections)
}

/// Run each connection's stream through `Dispatcher::handle_frame`, with
/// the event loop's rules: a fresh session per connection, and a protocol
/// error answered after the replies before it, then the end.
fn in_process(dispatcher: Dispatcher, connections: &[Vec<Request>]) -> Outcome {
    let mut replies = Vec::new();
    for connection in connections {
        let mut session = Session::new();
        let mut decoder = Decoder::new();
        decoder.feed(
            &connection
                .iter()
                .flat_map(|r| r.bytes.clone())
                .collect::<Vec<_>>(),
        );
        let mut answered = Vec::new();
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => answered.push(dispatcher.handle_frame(&frame, &mut session)),
                Ok(None) => break,
                Err(e) => {
                    answered.push(Frame::Error(format!("ERR {e}")));
                    break;
                }
            }
        }
        replies.push(answered);
    }
    outcome(&dispatcher, replies, connections)
}

fn kv_twin() -> Dispatcher {
    let config = StoreConfig::in_memory().shards(2).clock(SimClock::new(T0));
    Dispatcher::kv(KvStore::open(config).unwrap())
}

fn compliance_twin() -> Dispatcher {
    let config = StoreConfig::in_memory()
        .shards(2)
        .aof_in_memory()
        .clock(SimClock::new(T0));
    let store = GdprStore::open(
        CompliancePolicy::eventual(),
        config,
        Box::new(MemorySink::new()),
    )
    .unwrap();
    store
        .grant(gdpr_storage::gdpr_core::acl::Grant::new("app", "billing"))
        .unwrap();
    Dispatcher::gdpr(Arc::new(store))
}

/// Two connections: the first ends in a protocol error with requests
/// behind it that must go unanswered, the second ends with `DIGEST` and
/// `SHUTDOWN`.
fn connections(seed: u64, compliance: bool) -> Vec<Vec<Request>> {
    let mut gen = Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut first = stream(&mut gen, compliance, 150);
    first.push(raw(b"!garbage\r\n"));
    first.extend(stream(&mut gen, compliance, 5));
    let mut second = stream(&mut gen, compliance, 150);
    second.push(command(b"DIGEST".to_vec(), Vec::new(), false));
    second.push(command(b"ShutDown".to_vec(), Vec::new(), false));
    vec![first, second]
}

fn check(seed: u64, compliance: bool, twin: fn() -> Dispatcher) {
    let connections = connections(seed, compliance);
    let by_frame = in_process(twin(), &connections);
    let first = &connections[0];
    let cut = first
        .iter()
        .position(|r| r.bytes == b"!garbage\r\n")
        .unwrap();
    assert_eq!(by_frame.replies[0].len(), cut + 1, "seed {seed}");
    assert_eq!(
        by_frame.replies[0].last(),
        Some(&Frame::Error(
            "ERR protocol error: unknown type byte 0x21".to_string()
        ))
    );
    assert_eq!(
        by_frame.replies[1].len(),
        connections[1].len(),
        "seed {seed}"
    );
    for workers in [1, 3] {
        let tcp = over_tcp(twin(), workers, &connections);
        assert_eq!(tcp, by_frame, "seed {seed}, workers={workers}");
    }
}

#[test]
fn the_names_here_are_the_documented_commands() {
    // The command cells of WIRE.md's "Plain commands" and "The `GDPR.*`
    // surface" tables, parsed as the server's table test parses them.
    let mut documented = Vec::new();
    let mut in_scope = false;
    for line in include_str!("../docs/WIRE.md").lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            in_scope = heading == "Plain commands" || heading == "The `GDPR.*` surface";
        } else if line.starts_with("### ") {
            in_scope = false;
        }
        if !in_scope || !line.starts_with("| `") {
            continue;
        }
        let line = line.replace("\\|", "\u{1}");
        let first_cell = line.split('|').nth(1).unwrap();
        for usage in first_cell.split('`').skip(1).step_by(2) {
            documented.push(usage.split(' ').next().unwrap().to_string());
        }
    }
    documented.sort_unstable();
    documented.retain(|name| name != "REPLSYNC");
    assert_eq!(documented, NAMES);
}

#[test]
fn three_paths_agree_on_the_raw_engine() {
    for seed in 1..=3 {
        check(seed, false, kv_twin);
    }
}

#[test]
fn three_paths_agree_on_the_compliance_engine() {
    for seed in 1..=3 {
        check(seed, true, compliance_twin);
    }
}
