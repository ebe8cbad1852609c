//! The command table: every wire command the server accepts, declared
//! once.
//!
//! [`COMMANDS`] holds one [`CommandSpec`] per command name, sorted by
//! name. The dispatcher looks a request up once ([`lookup`]) and reads
//! everything it needs from the row it finds:
//!
//! * `family` — the latency histogram and the `SLOWLOG` entry;
//! * `min_args` / `max_args` — the one arity check, whose error quotes
//!   `usage`;
//! * `flags` — the replica redirect ([`WRITE`]), the compliance engine's
//!   `NOAUTH` ([`AUTH`]), and which engines serve the command ([`KV`],
//!   [`COMPLIANCE`]);
//! * `id` — the handler, by a `match` in [`crate::dispatch`];
//! * `stored` — the arguments the command stores as data, which a
//!   `SLOWLOG` capture blanks.
//!
//! A name that is not in the table is an unknown command, timed as
//! `other`. `docs/WIRE.md` lists the same commands; a test below checks it
//! row for row. The helpers at the end read arguments for the handlers
//! from the request's [`CommandView`].

use resp::command::CommandView;

use crate::metrics::CommandFamily::{self, Admin, Expire, GdprData, GdprRight, Read, Scan, Write};

/// The handler a row runs. Aliases share one (`DEL`/`UNLINK`,
/// `FLUSHALL`/`FLUSHDB`, `TTL`/`PTTL`), and every `GDPR.*` command is
/// decoded into its [`resp::command::GdprRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmd {
    Ping,
    Info,
    Slowlog,
    Shutdown,
    Tick,
    Digest,
    Replsync,
    Gdpr,
    Set,
    Get,
    Del,
    Exists,
    Expire,
    PExpire,
    PExpireAt,
    Ttl,
    Persist,
    HSet,
    HMSet,
    HGet,
    HGetAll,
    HDel,
    SAdd,
    SRem,
    SMembers,
    Keys,
    Scan,
    DbSize,
    FlushAll,
}

/// Mutates data: a replica redirects it to its primary. `GDPR.GRANT` and
/// `GDPR.REVOKE` do not carry it: grants are node-local.
pub(crate) const WRITE: u8 = 1;
/// The compliance engine refuses it with `NOAUTH` until `GDPR.AUTH` has
/// bound the session.
pub(crate) const AUTH: u8 = 1 << 1;
/// Served on the raw engine.
pub(crate) const KV: u8 = 1 << 2;
/// Served on the compliance engine.
pub(crate) const COMPLIANCE: u8 = 1 << 3;
const BOTH: u8 = KV | COMPLIANCE;

/// `max_args` of a command that ignores the arguments past its minimum.
const ANY: usize = usize::MAX;

/// The arguments a command stores as data: the values (and set members)
/// a `SLOWLOG` capture leaves out, so that the ring, which no erasure
/// reaches, keeps keys and options but no personal data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stored {
    Nothing,
    /// The argument at this index.
    Arg(usize),
    /// `HMSET key f v [f v …]`: every value, not the field names.
    HashValues,
}

impl Stored {
    /// Whether argument `i` is stored data.
    pub fn covers(self, i: usize) -> bool {
        match self {
            Stored::Nothing => false,
            Stored::Arg(at) => i == at,
            Stored::HashValues => i >= 2 && i.is_multiple_of(2),
        }
    }
}

/// One wire command.
#[derive(Debug)]
pub(crate) struct CommandSpec {
    /// The upper-case name a request is looked up by.
    pub name: &'static str,
    /// The command's form, as `docs/WIRE.md` gives it.
    pub usage: &'static str,
    pub min_args: usize,
    pub max_args: usize,
    pub flags: u8,
    pub family: CommandFamily,
    pub id: Cmd,
    pub stored: Stored,
}

impl CommandSpec {
    /// Whether the row carries `flag`.
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// The one reply for arguments that do not fit the command's form.
    pub fn arity_error(&self) -> String {
        format!(
            "ERR wrong number of arguments for '{}' (usage: {})",
            self.name, self.usage
        )
    }

    /// The row with the arguments it stores named.
    const fn stores(mut self, stored: Stored) -> Self {
        self.stored = stored;
        self
    }
}

const fn row(
    name: &'static str,
    usage: &'static str,
    min_args: usize,
    max_args: usize,
    flags: u8,
    family: CommandFamily,
    id: Cmd,
) -> CommandSpec {
    CommandSpec {
        name,
        usage,
        min_args,
        max_args,
        flags,
        family,
        id,
        stored: Stored::Nothing,
    }
}

use Stored::{Arg, HashValues};

/// Every wire command, sorted by name.
#[rustfmt::skip]
pub(crate) static COMMANDS: [CommandSpec; 42] = [
    row("DBSIZE", "DBSIZE", 0, ANY, BOTH, Scan, Cmd::DbSize),
    row("DEL", "DEL key", 1, 1, WRITE | AUTH | BOTH, Write, Cmd::Del),
    row("DIGEST", "DIGEST", 0, ANY, AUTH | BOTH, Admin, Cmd::Digest),
    row("EXISTS", "EXISTS key", 1, 1, KV, Read, Cmd::Exists),
    row("EXPIRE", "EXPIRE key seconds", 2, 2, WRITE | KV, Expire, Cmd::Expire),
    row("FLUSHALL", "FLUSHALL", 0, ANY, WRITE | KV, Write, Cmd::FlushAll),
    row("FLUSHDB", "FLUSHDB", 0, ANY, WRITE | KV, Write, Cmd::FlushAll),
    row("GDPR.AUTH", "GDPR.AUTH actor purpose", 2, 2, COMPLIANCE, Admin, Cmd::Gdpr),
    row("GDPR.ERASE", "GDPR.ERASE subject", 1, 1, WRITE | AUTH | COMPLIANCE, GdprRight, Cmd::Gdpr),
    row("GDPR.EXPORT", "GDPR.EXPORT subject [CURSOR c [COUNT n]]", 1, 5, AUTH | COMPLIANCE, GdprRight, Cmd::Gdpr),
    row("GDPR.GETMETA", "GDPR.GETMETA key", 1, 1, AUTH | COMPLIANCE, GdprRight, Cmd::Gdpr),
    row("GDPR.GRANT", "GDPR.GRANT actor purpose", 2, 2, COMPLIANCE, Admin, Cmd::Gdpr),
    row("GDPR.KEYSOF", "GDPR.KEYSOF subject", 1, 1, AUTH | COMPLIANCE, GdprRight, Cmd::Gdpr),
    row("GDPR.OBJECT", "GDPR.OBJECT subject purpose", 2, 2, WRITE | AUTH | COMPLIANCE, GdprRight, Cmd::Gdpr),
    row("GDPR.PUT", "GDPR.PUT key subject purposes value [ttl_ms]", 4, 5, WRITE | AUTH | COMPLIANCE, GdprData, Cmd::Gdpr).stores(Arg(3)),
    row("GDPR.REVOKE", "GDPR.REVOKE actor purpose", 2, 2, COMPLIANCE, Admin, Cmd::Gdpr),
    row("GDPR.SETMETA", "GDPR.SETMETA key subject purposes [ttl_ms]", 3, 4, WRITE | AUTH | COMPLIANCE, GdprData, Cmd::Gdpr),
    row("GDPR.STATS", "GDPR.STATS", 0, 0, COMPLIANCE, Admin, Cmd::Gdpr),
    row("GET", "GET key", 1, 1, AUTH | BOTH, Read, Cmd::Get),
    row("HDEL", "HDEL key field", 2, 2, WRITE | KV, Write, Cmd::HDel),
    row("HGET", "HGET key field", 2, 2, KV, Read, Cmd::HGet),
    row("HGETALL", "HGETALL key", 1, 1, AUTH | BOTH, Read, Cmd::HGetAll),
    row("HMSET", "HMSET key f v [f v …]", 3, ANY, WRITE | AUTH | BOTH, Write, Cmd::HMSet).stores(HashValues),
    row("HSET", "HSET key field value", 3, 3, WRITE | KV, Write, Cmd::HSet).stores(Arg(2)),
    row("INFO", "INFO", 0, ANY, BOTH, Admin, Cmd::Info),
    row("KEYS", "KEYS pattern", 1, 1, KV, Scan, Cmd::Keys),
    row("PERSIST", "PERSIST key", 1, 1, WRITE | KV, Expire, Cmd::Persist),
    row("PEXPIRE", "PEXPIRE key ms", 2, 2, WRITE | KV, Expire, Cmd::PExpire),
    row("PEXPIREAT", "PEXPIREAT key unix_ms", 2, 2, WRITE | KV, Expire, Cmd::PExpireAt),
    row("PING", "PING", 0, ANY, BOTH, Admin, Cmd::Ping),
    row("PTTL", "PTTL key", 1, 1, KV, Expire, Cmd::Ttl),
    row("REPLSYNC", "REPLSYNC", 0, ANY, BOTH, Admin, Cmd::Replsync),
    row("SADD", "SADD key member", 2, 2, WRITE | KV, Write, Cmd::SAdd).stores(Arg(1)),
    row("SCAN", "SCAN start count", 2, 2, AUTH | BOTH, Scan, Cmd::Scan),
    row("SET", "SET key value", 2, 2, WRITE | AUTH | BOTH, Write, Cmd::Set).stores(Arg(1)),
    row("SHUTDOWN", "SHUTDOWN", 0, ANY, BOTH, Admin, Cmd::Shutdown),
    row("SLOWLOG", "SLOWLOG GET [n] | LEN | RESET", 1, ANY, BOTH, Admin, Cmd::Slowlog),
    row("SMEMBERS", "SMEMBERS key", 1, 1, KV, Read, Cmd::SMembers),
    row("SREM", "SREM key member", 2, 2, WRITE | KV, Write, Cmd::SRem).stores(Arg(1)),
    row("TICK", "TICK", 0, ANY, BOTH, Admin, Cmd::Tick),
    row("TTL", "TTL key", 1, 1, KV, Expire, Cmd::Ttl),
    row("UNLINK", "UNLINK key", 1, 1, WRITE | AUTH | BOTH, Write, Cmd::Del),
];

/// The longest command name.
const LONGEST_NAME: usize = 12;

/// The row of a command name, in any case, upper-cased on the stack.
pub(crate) fn lookup(name: &[u8]) -> Option<&'static CommandSpec> {
    let mut upper = [0u8; LONGEST_NAME];
    let upper = upper.get_mut(..name.len())?;
    for (to, from) in upper.iter_mut().zip(name) {
        *to = from.to_ascii_uppercase();
    }
    COMMANDS
        .binary_search_by(|spec| spec.name.as_bytes().cmp(upper))
        .ok()
        .map(|i| &COMMANDS[i])
}

/// Argument `i` as UTF-8 text.
pub(crate) fn arg<'a>(cmd: &CommandView<'a>, i: usize) -> Result<&'a str, String> {
    cmd.arg_str(i).map_err(|e| format!("ERR {e}"))
}

/// Argument `i` as an owned string.
pub(crate) fn text(cmd: &CommandView<'_>, i: usize) -> Result<String, String> {
    arg(cmd, i).map(str::to_string)
}

/// Argument `i` copied out of the request: the value a write stores (the
/// one copy between the read buffer and the store).
pub(crate) fn payload(cmd: &CommandView<'_>, i: usize) -> Result<Vec<u8>, String> {
    cmd.arg_bytes(i)
        .map(<[u8]>::to_vec)
        .map_err(|e| format!("ERR {e}"))
}

/// Argument `i` as an unsigned integer.
pub(crate) fn number(cmd: &CommandView<'_>, i: usize) -> Result<u64, String> {
    cmd.arg_u64(i).map_err(|e| format!("ERR {e}"))
}

/// Argument `i` of an expiry command in milliseconds, at `unit_ms` per
/// unit, for a deadline counted from `from_ms` (now for `EXPIRE` and
/// `PEXPIRE`, 0 for `PEXPIREAT`). A value whose deadline would not fit an
/// `i64` — `PTTL` answers a signed integer — is refused, so the key keeps
/// the deadline it had.
pub(crate) fn expiry(
    cmd: &CommandView<'_>,
    i: usize,
    unit_ms: u64,
    from_ms: u64,
) -> Result<u64, String> {
    number(cmd, i)?
        .checked_mul(unit_ms)
        .filter(|&ms| {
            from_ms
                .checked_add(ms)
                .is_some_and(|at| i64::try_from(at).is_ok())
        })
        .ok_or_else(|| format!("ERR invalid expire time in '{}' command", cmd.upper_name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn the_table_is_sorted_without_duplicates() {
        for pair in COMMANDS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} ≥ {}",
                pair[0].name,
                pair[1].name
            );
        }
        for spec in &COMMANDS {
            assert_eq!(
                lookup(spec.name.as_bytes()).map(|s| s.name),
                Some(spec.name)
            );
            let lower = spec.name.to_ascii_lowercase();
            assert_eq!(lookup(lower.as_bytes()).map(|s| s.name), Some(spec.name));
            assert_eq!(spec.usage.split(' ').next(), Some(spec.name), "{spec:?}");
            assert!(spec.min_args <= spec.max_args, "{spec:?}");
            assert!(spec.name.len() <= LONGEST_NAME, "{spec:?}");
            assert!(spec.has(KV) || spec.has(COMPLIANCE), "{spec:?}");
        }
        assert!(lookup(b"GDPR.NOPE").is_none());
        assert_eq!(lookup(b"sEt").map(|s| s.name), Some("SET"), "any case");
        assert!(lookup(b"SET ").is_none());
        assert!(lookup(b"SETX").is_none());
        assert!(lookup(b"").is_none());
        assert!(lookup(&[0xff, b'S']).is_none());
    }

    #[test]
    fn every_command_keeps_its_family() {
        #[rustfmt::skip]
        let pinned: [(CommandFamily, &[&str]); 7] = [
            (Read, &["GET", "EXISTS", "HGET", "HGETALL", "SMEMBERS"]),
            (Write, &["SET", "DEL", "UNLINK", "HSET", "HMSET", "HDEL", "SADD", "SREM", "FLUSHALL", "FLUSHDB"]),
            (Scan, &["KEYS", "SCAN", "DBSIZE"]),
            (Expire, &["EXPIRE", "PEXPIRE", "PEXPIREAT", "PERSIST", "TTL", "PTTL"]),
            (GdprData, &["GDPR.PUT", "GDPR.SETMETA"]),
            (GdprRight, &["GDPR.ERASE", "GDPR.EXPORT", "GDPR.KEYSOF", "GDPR.GETMETA", "GDPR.OBJECT"]),
            (Admin, &["PING", "INFO", "SHUTDOWN", "TICK", "DIGEST", "REPLSYNC", "SLOWLOG",
                      "GDPR.AUTH", "GDPR.GRANT", "GDPR.REVOKE", "GDPR.STATS"]),
        ];
        let mut named = 0;
        for (family, names) in pinned {
            for name in names {
                assert_eq!(
                    lookup(name.as_bytes()).map(|s| s.family),
                    Some(family),
                    "{name}"
                );
                named += 1;
            }
        }
        assert_eq!(named, COMMANDS.len());
    }

    #[test]
    fn the_stored_arguments_are_the_values_and_members() {
        let stored: Vec<(&str, Stored)> = COMMANDS
            .iter()
            .filter(|spec| spec.stored != Stored::Nothing)
            .map(|spec| (spec.name, spec.stored))
            .collect();
        assert_eq!(
            stored,
            [
                ("GDPR.PUT", Arg(3)),
                ("HMSET", HashValues),
                ("HSET", Arg(2)),
                ("SADD", Arg(1)),
                ("SET", Arg(1)),
                ("SREM", Arg(1)),
            ]
        );
        // HMSET key f v f v: the values, not the key or the field names.
        let covered: Vec<usize> = (0..5).filter(|&i| HashValues.covers(i)).collect();
        assert_eq!(covered, [2, 4]);
    }

    /// The command rows of docs/WIRE.md's "Plain commands" and "The
    /// `GDPR.*` surface": name → (usage, marked **auth**).
    fn documented_commands() -> BTreeMap<String, (String, bool)> {
        let wire = include_str!("../../../docs/WIRE.md");
        let mut documented = BTreeMap::new();
        let mut in_scope = false;
        for line in wire.lines() {
            if let Some(heading) = line.strip_prefix("## ") {
                in_scope = heading == "Plain commands" || heading == "The `GDPR.*` surface";
            } else if line.starts_with("### ") {
                in_scope = false;
            }
            if !in_scope || !line.starts_with("| `") {
                continue;
            }
            // `\|` is a pipe inside a cell, not a cell boundary.
            let line = line.replace("\\|", "\u{1}");
            let first_cell = line.split('|').nth(1).unwrap();
            let auth = line.contains("**auth**");
            for usage in first_cell.split('`').skip(1).step_by(2) {
                let usage = usage.replace('\u{1}', "|");
                let name = usage.split(' ').next().unwrap().to_string();
                assert!(
                    documented.insert(name.clone(), (usage, auth)).is_none(),
                    "{name} documented twice"
                );
            }
        }
        documented
    }

    #[test]
    fn wire_md_lists_every_command_with_its_usage_and_auth_marker() {
        let documented = documented_commands();
        let names: Vec<&str> = documented.keys().map(String::as_str).collect();
        let table: Vec<&str> = COMMANDS.iter().map(|s| s.name).collect();
        assert_eq!(names, table);
        for spec in &COMMANDS {
            let (usage, auth) = &documented[spec.name];
            assert_eq!(usage, spec.usage, "{}", spec.name);
            assert_eq!(*auth, spec.has(AUTH), "**auth** on {}", spec.name);
        }
    }
}
