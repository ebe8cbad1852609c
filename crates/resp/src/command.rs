//! Command framing on top of RESP arrays.
//!
//! Redis clients send every command as an array of bulk strings
//! (`*3\r\n$3\r\nSET\r\n…`). [`WireCommand`] is that representation with
//! the command name normalised to upper case; the shared dispatcher (used
//! by both the simulated `netsim` server and the real TCP server) maps it
//! onto the engine's typed command set.
//!
//! [`GdprRequest`] extends the wire surface beyond plain Redis commands:
//! it gives every GDPR operation of the compliance layer (session auth,
//! grants, metadata get/set, subject rights) a `GDPR.*` command form, so
//! remote clients can exercise the full compliance surface over a socket.

use crate::{Frame, RespError};

/// A client command as it appears on the wire: a name and raw arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCommand {
    /// Upper-cased command name (`SET`, `GET`, `HGETALL`, …).
    pub name: String,
    /// Raw arguments, in order, excluding the name.
    pub args: Vec<Vec<u8>>,
}

impl WireCommand {
    /// Build a command from name and arguments.
    pub fn new(name: &str, args: Vec<Vec<u8>>) -> Self {
        WireCommand {
            name: name.to_ascii_uppercase(),
            args,
        }
    }

    /// Parse a decoded RESP frame into a command, taking the frame's
    /// arguments over: no argument is copied.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the frame is not a
    /// non-empty array of bulk strings.
    pub fn from_frame(frame: Frame) -> Result<Self, RespError> {
        let Frame::Array(items) = frame else {
            return Err(RespError::InvalidCommand(
                "command must be an array".to_string(),
            ));
        };
        let mut parts = items.into_iter().map(|item| match item {
            Frame::Bulk(b) => Ok(b),
            Frame::Simple(s) => Ok(s.into_bytes()),
            other => Err(RespError::InvalidCommand(format!(
                "command arguments must be bulk strings, got {other:?}"
            ))),
        });
        let Some(name_bytes) = parts.next() else {
            return Err(RespError::InvalidCommand("empty command array".to_string()));
        };
        let mut name = String::from_utf8(name_bytes?).map_err(|_| {
            RespError::InvalidCommand("command name is not valid utf-8".to_string())
        })?;
        name.make_ascii_uppercase();
        Ok(WireCommand {
            name,
            args: parts.collect::<Result<_, _>>()?,
        })
    }

    /// Encode the command back into a RESP array frame.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut items = Vec::with_capacity(self.args.len() + 1);
        items.push(Frame::Bulk(self.name.clone().into_bytes()));
        items.extend(self.args.iter().cloned().map(Frame::Bulk));
        Frame::Array(items)
    }

    /// Number of arguments (excluding the command name).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Argument `i` interpreted as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing or
    /// not valid UTF-8.
    pub fn arg_str(&self, i: usize) -> Result<&str, RespError> {
        let bytes = self.args.get(i).ok_or_else(|| {
            RespError::InvalidCommand(format!("{} missing argument {i}", self.name))
        })?;
        std::str::from_utf8(bytes).map_err(|_| {
            RespError::InvalidCommand(format!("{} argument {i} is not utf-8", self.name))
        })
    }

    /// Argument `i` interpreted as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing or
    /// not a number.
    pub fn arg_u64(&self, i: usize) -> Result<u64, RespError> {
        self.arg_str(i)?.parse::<u64>().map_err(|_| {
            RespError::InvalidCommand(format!("{} argument {i} is not an integer", self.name))
        })
    }

    /// Raw bytes of argument `i`.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing.
    pub fn arg_bytes(&self, i: usize) -> Result<&[u8], RespError> {
        self.args
            .get(i)
            .map(Vec::as_slice)
            .ok_or_else(|| RespError::InvalidCommand(format!("{} missing argument {i}", self.name)))
    }

    /// Take argument `i` out of the command — the payload a write moves
    /// into the store — leaving an empty argument in its place.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing.
    pub fn take_arg(&mut self, i: usize) -> Result<Vec<u8>, RespError> {
        match self.args.get_mut(i) {
            Some(arg) => Ok(std::mem::take(arg)),
            None => Err(RespError::InvalidCommand(format!(
                "{} missing argument {i}",
                self.name
            ))),
        }
    }

    /// The first argument upper-cased — the subcommand of container
    /// commands like `SLOWLOG GET` / `SLOWLOG RESET`.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing or
    /// not valid UTF-8.
    pub fn subcommand(&self) -> Result<String, RespError> {
        self.arg_str(0).map(str::to_ascii_uppercase)
    }
}

/// The GDPR operations expressible on the wire, as `GDPR.*` commands.
///
/// Multi-valued purpose lists travel as one comma-separated argument;
/// values are raw bulk strings. [`GdprRequest::to_wire`] and
/// [`GdprRequest::from_wire`] round-trip, so client and server agree on
/// the encoding by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GdprRequest {
    /// `GDPR.AUTH actor purpose` — bind this connection to an access
    /// context (actor + declared processing purpose).
    Auth {
        /// The acting entity.
        actor: String,
        /// The declared processing purpose.
        purpose: String,
    },
    /// `GDPR.GRANT actor purpose` — install an access grant (Article 25).
    Grant {
        /// The acting entity being granted access.
        actor: String,
        /// The purpose the grant covers.
        purpose: String,
    },
    /// `GDPR.REVOKE actor purpose` — revoke every matching grant.
    Revoke {
        /// The acting entity whose grants are revoked.
        actor: String,
        /// The purpose whose grants are revoked.
        purpose: String,
    },
    /// `GDPR.PUT key subject purposes value [ttl_ms]` — store personal
    /// data together with its metadata in one round trip.
    Put {
        /// Key to write.
        key: String,
        /// The data subject the value is about.
        subject: String,
        /// Whitelisted processing purposes.
        purposes: Vec<String>,
        /// The value to store.
        value: Vec<u8>,
        /// Optional retention TTL in milliseconds.
        ttl_ms: Option<u64>,
    },
    /// `GDPR.GETMETA key` — read the metadata of a key.
    GetMeta {
        /// Key whose metadata is read.
        key: String,
    },
    /// `GDPR.SETMETA key subject purposes [ttl_ms]` — replace the
    /// metadata of an existing key.
    SetMeta {
        /// Key whose metadata is replaced.
        key: String,
        /// The (possibly new) data subject.
        subject: String,
        /// Whitelisted processing purposes.
        purposes: Vec<String>,
        /// Optional retention TTL in milliseconds.
        ttl_ms: Option<u64>,
    },
    /// `GDPR.KEYSOF subject` — every key owned by a subject (Article 15
    /// lookup through the metadata index).
    KeysOf {
        /// The data subject.
        subject: String,
    },
    /// `GDPR.ERASE subject` — the right to be forgotten (Article 17).
    Erase {
        /// The data subject whose keys are erased.
        subject: String,
    },
    /// `GDPR.EXPORT subject [CURSOR c [COUNT n]]` — the right to data
    /// portability (Article 20).
    ///
    /// Without `CURSOR` the reply is one bulk string holding the whole
    /// machine-readable JSON export. With `CURSOR` the export is paged:
    /// `CURSOR 0` starts it, the reply is a two-element array
    /// `[next_cursor, chunk]`, and the client resends the returned cursor
    /// until it reads `0`. Concatenating the chunks in order yields
    /// exactly the monolithic document; `COUNT` bounds the subject keys
    /// consumed per page (server default when omitted).
    Export {
        /// The data subject whose data is exported.
        subject: String,
        /// Paged form: the resumption cursor token (`"0"` = first page).
        /// `None` selects the monolithic single-reply form.
        cursor: Option<String>,
        /// Paged form: maximum subject keys consumed by this page.
        count: Option<u64>,
    },
    /// `GDPR.OBJECT subject purpose` — record an objection (Article 21).
    Object {
        /// The data subject objecting.
        subject: String,
        /// The purpose objected to.
        purpose: String,
    },
    /// `GDPR.STATS` — compliance-layer counters.
    Stats,
}

/// Join a purpose list into its one-argument wire form.
fn purposes_to_arg(purposes: &[String]) -> Vec<u8> {
    purposes.join(",").into_bytes()
}

/// Split the one-argument wire form back into a purpose list.
fn purposes_from_arg(arg: &str) -> Vec<String> {
    arg.split(',')
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

impl GdprRequest {
    /// Whether a command name belongs to the GDPR wire surface.
    #[must_use]
    pub fn is_gdpr_command(name: &str) -> bool {
        name.starts_with("GDPR.")
    }

    /// Parse a [`WireCommand`] into a GDPR request, moving the value of a
    /// `GDPR.PUT` out of it ([`WireCommand::take_arg`]).
    ///
    /// Returns `None` when the command is not a `GDPR.*` command at all
    /// (the caller should fall through to the plain Redis surface).
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] (inside `Some`) for a
    /// `GDPR.*` command with an unknown name, wrong arity or malformed
    /// arguments.
    pub fn from_wire(cmd: &mut WireCommand) -> Option<Result<Self, RespError>> {
        if !Self::is_gdpr_command(&cmd.name) {
            return None;
        }
        Some(Self::parse_gdpr(cmd))
    }

    fn parse_gdpr(cmd: &mut WireCommand) -> Result<Self, RespError> {
        let arity = |need: &str| {
            let name = &cmd.name;
            RespError::InvalidCommand(format!(
                "wrong number of arguments for '{name}' (usage: {name} {need})"
            ))
        };
        let request = match cmd.name.as_str() {
            "GDPR.AUTH" | "GDPR.GRANT" | "GDPR.REVOKE" => {
                if cmd.arity() != 2 {
                    return Err(arity("actor purpose"));
                }
                let actor = cmd.arg_str(0)?.to_string();
                let purpose = cmd.arg_str(1)?.to_string();
                match cmd.name.as_str() {
                    "GDPR.AUTH" => GdprRequest::Auth { actor, purpose },
                    "GDPR.GRANT" => GdprRequest::Grant { actor, purpose },
                    _ => GdprRequest::Revoke { actor, purpose },
                }
            }
            "GDPR.PUT" => {
                if cmd.arity() != 4 && cmd.arity() != 5 {
                    return Err(arity("key subject purposes value [ttl_ms]"));
                }
                GdprRequest::Put {
                    key: cmd.arg_str(0)?.to_string(),
                    subject: cmd.arg_str(1)?.to_string(),
                    purposes: purposes_from_arg(cmd.arg_str(2)?),
                    ttl_ms: if cmd.arity() == 5 {
                        Some(cmd.arg_u64(4)?)
                    } else {
                        None
                    },
                    value: cmd.take_arg(3)?,
                }
            }
            "GDPR.GETMETA" => {
                if cmd.arity() != 1 {
                    return Err(arity("key"));
                }
                GdprRequest::GetMeta {
                    key: cmd.arg_str(0)?.to_string(),
                }
            }
            "GDPR.SETMETA" => {
                if cmd.arity() != 3 && cmd.arity() != 4 {
                    return Err(arity("key subject purposes [ttl_ms]"));
                }
                GdprRequest::SetMeta {
                    key: cmd.arg_str(0)?.to_string(),
                    subject: cmd.arg_str(1)?.to_string(),
                    purposes: purposes_from_arg(cmd.arg_str(2)?),
                    ttl_ms: if cmd.arity() == 4 {
                        Some(cmd.arg_u64(3)?)
                    } else {
                        None
                    },
                }
            }
            "GDPR.KEYSOF" | "GDPR.ERASE" => {
                if cmd.arity() != 1 {
                    return Err(arity("subject"));
                }
                let subject = cmd.arg_str(0)?.to_string();
                match cmd.name.as_str() {
                    "GDPR.KEYSOF" => GdprRequest::KeysOf { subject },
                    _ => GdprRequest::Erase { subject },
                }
            }
            "GDPR.EXPORT" => {
                if cmd.arity() != 1 && cmd.arity() != 3 && cmd.arity() != 5 {
                    return Err(arity("subject [CURSOR cursor [COUNT n]]"));
                }
                let subject = cmd.arg_str(0)?.to_string();
                let mut cursor = None;
                let mut count = None;
                if cmd.arity() >= 3 {
                    if !cmd.arg_str(1)?.eq_ignore_ascii_case("CURSOR") {
                        return Err(arity("subject [CURSOR cursor [COUNT n]]"));
                    }
                    cursor = Some(cmd.arg_str(2)?.to_string());
                }
                if cmd.arity() == 5 {
                    if !cmd.arg_str(3)?.eq_ignore_ascii_case("COUNT") {
                        return Err(arity("subject [CURSOR cursor [COUNT n]]"));
                    }
                    count = Some(cmd.arg_u64(4)?);
                }
                GdprRequest::Export {
                    subject,
                    cursor,
                    count,
                }
            }
            "GDPR.OBJECT" => {
                if cmd.arity() != 2 {
                    return Err(arity("subject purpose"));
                }
                GdprRequest::Object {
                    subject: cmd.arg_str(0)?.to_string(),
                    purpose: cmd.arg_str(1)?.to_string(),
                }
            }
            "GDPR.STATS" => {
                if cmd.arity() != 0 {
                    return Err(arity(""));
                }
                GdprRequest::Stats
            }
            other => {
                return Err(RespError::InvalidCommand(format!(
                    "unknown GDPR command '{other}'"
                )))
            }
        };
        Ok(request)
    }

    /// Encode the request as a [`WireCommand`] ready for transmission.
    #[must_use]
    pub fn to_wire(&self) -> WireCommand {
        match self {
            GdprRequest::Auth { actor, purpose } => WireCommand::new(
                "GDPR.AUTH",
                vec![actor.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Grant { actor, purpose } => WireCommand::new(
                "GDPR.GRANT",
                vec![actor.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Revoke { actor, purpose } => WireCommand::new(
                "GDPR.REVOKE",
                vec![actor.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Put {
                key,
                subject,
                purposes,
                value,
                ttl_ms,
            } => {
                let mut args = vec![
                    key.clone().into_bytes(),
                    subject.clone().into_bytes(),
                    purposes_to_arg(purposes),
                    value.clone(),
                ];
                if let Some(ttl) = ttl_ms {
                    args.push(ttl.to_string().into_bytes());
                }
                WireCommand::new("GDPR.PUT", args)
            }
            GdprRequest::GetMeta { key } => {
                WireCommand::new("GDPR.GETMETA", vec![key.clone().into_bytes()])
            }
            GdprRequest::SetMeta {
                key,
                subject,
                purposes,
                ttl_ms,
            } => {
                let mut args = vec![
                    key.clone().into_bytes(),
                    subject.clone().into_bytes(),
                    purposes_to_arg(purposes),
                ];
                if let Some(ttl) = ttl_ms {
                    args.push(ttl.to_string().into_bytes());
                }
                WireCommand::new("GDPR.SETMETA", args)
            }
            GdprRequest::KeysOf { subject } => {
                WireCommand::new("GDPR.KEYSOF", vec![subject.clone().into_bytes()])
            }
            GdprRequest::Erase { subject } => {
                WireCommand::new("GDPR.ERASE", vec![subject.clone().into_bytes()])
            }
            GdprRequest::Export {
                subject,
                cursor,
                count,
            } => {
                let mut args = vec![subject.clone().into_bytes()];
                if let Some(cursor) = cursor {
                    args.push(b"CURSOR".to_vec());
                    args.push(cursor.clone().into_bytes());
                    if let Some(count) = count {
                        args.push(b"COUNT".to_vec());
                        args.push(count.to_string().into_bytes());
                    }
                }
                WireCommand::new("GDPR.EXPORT", args)
            }
            GdprRequest::Object { subject, purpose } => WireCommand::new(
                "GDPR.OBJECT",
                vec![subject.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Stats => WireCommand::new("GDPR.STATS", Vec::new()),
        }
    }

    /// Encode the request directly into a RESP frame.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        self.to_wire().to_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_command() {
        let frame = Frame::command(["set", "key", "value"]);
        let cmd = WireCommand::from_frame(frame).unwrap();
        assert_eq!(cmd.name, "SET");
        assert_eq!(cmd.arity(), 2);
        assert_eq!(cmd.arg_str(0).unwrap(), "key");
        assert_eq!(cmd.arg_bytes(1).unwrap(), b"value");
    }

    #[test]
    fn roundtrip_to_frame() {
        let cmd = WireCommand::new("hset", vec![b"h".to_vec(), b"f".to_vec(), b"v".to_vec()]);
        let frame = cmd.to_frame();
        let parsed = WireCommand::from_frame(frame).unwrap();
        assert_eq!(parsed, cmd);
        assert_eq!(parsed.name, "HSET");
    }

    #[test]
    fn numeric_arguments() {
        let cmd = WireCommand::new("PEXPIRE", vec![b"k".to_vec(), b"5000".to_vec()]);
        assert_eq!(cmd.arg_u64(1).unwrap(), 5000);
        assert!(cmd.arg_u64(0).is_err(), "non-numeric argument");
        assert!(cmd.arg_u64(5).is_err(), "missing argument");
    }

    #[test]
    fn rejects_non_array_and_empty() {
        assert!(WireCommand::from_frame(Frame::Integer(1)).is_err());
        assert!(WireCommand::from_frame(Frame::Array(vec![])).is_err());
        assert!(WireCommand::from_frame(Frame::Array(vec![Frame::Integer(3)])).is_err());
    }

    #[test]
    fn simple_string_arguments_accepted() {
        let frame = Frame::Array(vec![Frame::Simple("PING".into())]);
        let cmd = WireCommand::from_frame(frame).unwrap();
        assert_eq!(cmd.name, "PING");
        assert_eq!(cmd.arity(), 0);
    }

    fn all_gdpr_requests() -> Vec<GdprRequest> {
        vec![
            GdprRequest::Auth {
                actor: "app".into(),
                purpose: "billing".into(),
            },
            GdprRequest::Grant {
                actor: "app".into(),
                purpose: "billing".into(),
            },
            GdprRequest::Revoke {
                actor: "app".into(),
                purpose: "billing".into(),
            },
            GdprRequest::Put {
                key: "user:alice:email".into(),
                subject: "alice".into(),
                purposes: vec!["billing".into(), "analytics".into()],
                value: b"alice@example.com".to_vec(),
                ttl_ms: Some(60_000),
            },
            GdprRequest::Put {
                key: "k".into(),
                subject: "bob".into(),
                purposes: vec!["billing".into()],
                value: b"\x00binary\r\n".to_vec(),
                ttl_ms: None,
            },
            GdprRequest::GetMeta { key: "k".into() },
            GdprRequest::SetMeta {
                key: "k".into(),
                subject: "carol".into(),
                purposes: vec!["ops".into()],
                ttl_ms: Some(5),
            },
            GdprRequest::KeysOf {
                subject: "alice".into(),
            },
            GdprRequest::Erase {
                subject: "alice".into(),
            },
            GdprRequest::Export {
                subject: "alice".into(),
                cursor: None,
                count: None,
            },
            GdprRequest::Export {
                subject: "alice".into(),
                cursor: Some("0".into()),
                count: None,
            },
            GdprRequest::Export {
                subject: "alice".into(),
                cursor: Some("v2:17:6b6579".into()),
                count: Some(64),
            },
            GdprRequest::Object {
                subject: "alice".into(),
                purpose: "marketing".into(),
            },
            GdprRequest::Stats,
        ]
    }

    #[test]
    fn gdpr_requests_roundtrip_through_the_wire_form() {
        for request in all_gdpr_requests() {
            let mut wire = request.to_wire();
            assert!(GdprRequest::is_gdpr_command(&wire.name), "{wire:?}");
            let reparsed = GdprRequest::from_wire(&mut wire)
                .expect("GDPR command recognised")
                .expect("GDPR command parses");
            assert_eq!(reparsed, request);
            // And through a full frame encode/parse cycle.
            let mut cmd = WireCommand::from_frame(request.to_frame()).unwrap();
            assert_eq!(GdprRequest::from_wire(&mut cmd).unwrap().unwrap(), request);
        }
    }

    #[test]
    fn non_gdpr_commands_fall_through() {
        let mut cmd = WireCommand::new("SET", vec![b"k".to_vec(), b"v".to_vec()]);
        assert!(GdprRequest::from_wire(&mut cmd).is_none());
        assert!(!GdprRequest::is_gdpr_command("GET"));
    }

    #[test]
    fn gdpr_parse_errors() {
        // Unknown GDPR command.
        let mut cmd = WireCommand::new("GDPR.NOPE", vec![]);
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        // Wrong arity.
        let mut cmd = WireCommand::new("GDPR.AUTH", vec![b"app".to_vec()]);
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        let mut cmd = WireCommand::new("GDPR.STATS", vec![b"extra".to_vec()]);
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        // Bad TTL argument.
        let mut cmd = WireCommand::new(
            "GDPR.PUT",
            vec![
                b"k".to_vec(),
                b"s".to_vec(),
                b"p".to_vec(),
                b"v".to_vec(),
                b"soon".to_vec(),
            ],
        );
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
    }

    #[test]
    fn paged_export_parse_errors() {
        // Wrong keyword in the CURSOR slot.
        let mut cmd = WireCommand::new(
            "GDPR.EXPORT",
            vec![b"alice".to_vec(), b"PAGE".to_vec(), b"0".to_vec()],
        );
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        // COUNT requires CURSOR first (arity 3 with COUNT keyword fails).
        let mut cmd = WireCommand::new(
            "GDPR.EXPORT",
            vec![b"alice".to_vec(), b"COUNT".to_vec(), b"10".to_vec()],
        );
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        // Non-numeric COUNT.
        let mut cmd = WireCommand::new(
            "GDPR.EXPORT",
            vec![
                b"alice".to_vec(),
                b"CURSOR".to_vec(),
                b"0".to_vec(),
                b"COUNT".to_vec(),
                b"many".to_vec(),
            ],
        );
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        // Dangling arity (4 args).
        let mut cmd = WireCommand::new(
            "GDPR.EXPORT",
            vec![
                b"alice".to_vec(),
                b"CURSOR".to_vec(),
                b"0".to_vec(),
                b"COUNT".to_vec(),
            ],
        );
        assert!(GdprRequest::from_wire(&mut cmd).unwrap().is_err());
        // Keywords are case-insensitive.
        let mut cmd = WireCommand::new(
            "GDPR.EXPORT",
            vec![b"alice".to_vec(), b"cursor".to_vec(), b"0".to_vec()],
        );
        assert_eq!(
            GdprRequest::from_wire(&mut cmd).unwrap().unwrap(),
            GdprRequest::Export {
                subject: "alice".into(),
                cursor: Some("0".into()),
                count: None,
            }
        );
    }

    #[test]
    fn empty_purpose_list_roundtrips() {
        let request = GdprRequest::SetMeta {
            key: "k".into(),
            subject: "s".into(),
            purposes: Vec::new(),
            ttl_ms: None,
        };
        let reparsed = GdprRequest::from_wire(&mut request.to_wire())
            .unwrap()
            .unwrap();
        assert_eq!(reparsed, request);
    }
}
