//! Command framing on top of RESP arrays.
//!
//! Redis clients send every command as an array of bulk strings
//! (`*3\r\n$3\r\nSET\r\n…`). [`CommandView`] is that representation
//! borrowed, never copied: the name and the arguments as byte slices,
//! either inside a [`crate::decode::Decoder`]'s buffer (what the TCP
//! server executes) or inside a decoded [`Frame`] (what the simulated
//! server and tests hand in). The shared dispatcher looks the name up in
//! the server's command table, which declares every command once: its
//! arity, flags and metrics family.
//!
//! [`GdprRequest`] extends the wire surface beyond plain Redis commands:
//! it gives every GDPR operation of the compliance layer (session auth,
//! grants, metadata get/set, subject rights) a `GDPR.*` command form, so
//! remote clients can exercise the full compliance surface over a socket.
//! It is the client encoding ([`GdprRequest::to_frame`]) and the decoder
//! the server runs once the table has accepted a `GDPR.*` row
//! ([`GdprRequest::from_command`]).

use crate::decode::Part;
use crate::{Frame, RespError};

/// A client command as it appears on the wire — a name and raw
/// arguments — borrowed from the bytes it arrived in.
#[derive(Debug, Clone, Copy)]
pub struct CommandView<'a> {
    elements: Elements<'a>,
}

/// Where a view's elements (the name, then the arguments) live.
#[derive(Debug, Clone, Copy)]
enum Elements<'a> {
    /// Byte ranges of one frame in a decoder's buffer; every part is a
    /// bulk or a UTF-8 simple string.
    Wire { frame: &'a [u8], parts: &'a [Part] },
    /// A decoded array; every item is a bulk or a simple string.
    Frames(&'a [Frame]),
}

impl<'a> CommandView<'a> {
    /// The view of a frame a decoder has checked (see
    /// [`crate::decode::Decoder::next_request`]).
    pub(crate) fn wire(frame: &'a [u8], parts: &'a [Part]) -> Self {
        CommandView {
            elements: Elements::Wire { frame, parts },
        }
    }

    /// The view of a decoded request frame's elements.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the frame is not a
    /// non-empty array of bulk (or simple) strings whose first element, the
    /// name, is UTF-8.
    pub fn from_frame(frame: &'a Frame) -> Result<Self, RespError> {
        let Frame::Array(items) = frame else {
            return Err(RespError::InvalidCommand(
                "command must be an array".to_string(),
            ));
        };
        let not_a_string = |item: &Frame| {
            RespError::InvalidCommand(format!(
                "command arguments must be bulk strings, got {item:?}"
            ))
        };
        let name = match items.first() {
            None => return Err(RespError::InvalidCommand("empty command array".to_string())),
            Some(Frame::Bulk(name)) => name.as_slice(),
            Some(Frame::Simple(name)) => name.as_bytes(),
            Some(other) => return Err(not_a_string(other)),
        };
        if std::str::from_utf8(name).is_err() {
            return Err(RespError::InvalidCommand(
                "command name is not valid utf-8".to_string(),
            ));
        }
        if let Some(other) = items[1..]
            .iter()
            .find(|item| !matches!(item, Frame::Bulk(_) | Frame::Simple(_)))
        {
            return Err(not_a_string(other));
        }
        Ok(CommandView {
            elements: Elements::Frames(items),
        })
    }

    /// Element `i`: the name at 0, then the arguments.
    fn element(&self, i: usize) -> Option<&'a [u8]> {
        match self.elements {
            Elements::Wire { frame, parts } => match parts.get(i)? {
                Part::Bulk(start, end) | Part::Simple(start, end) => Some(&frame[*start..*end]),
                _ => None,
            },
            Elements::Frames(items) => match items.get(i)? {
                Frame::Bulk(bytes) => Some(bytes),
                Frame::Simple(text) => Some(text.as_bytes()),
                _ => None,
            },
        }
    }

    /// The command name as sent (any case).
    #[must_use]
    pub fn name(&self) -> &'a [u8] {
        self.element(0).unwrap_or_default()
    }

    /// The name upper-cased, as error messages quote it.
    #[must_use]
    pub fn upper_name(&self) -> String {
        String::from_utf8_lossy(self.name()).to_ascii_uppercase()
    }

    /// Number of arguments (excluding the command name).
    #[must_use]
    pub fn arity(&self) -> usize {
        match self.elements {
            Elements::Wire { parts, .. } => parts.len() - 1,
            Elements::Frames(items) => items.len() - 1,
        }
    }

    /// The arguments in order, excluding the name.
    pub fn args(&self) -> impl ExactSizeIterator<Item = &'a [u8]> {
        let view = *self;
        (1..self.arity() + 1).map(move |i| view.element(i).unwrap_or_default())
    }

    /// Raw bytes of argument `i`.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing.
    pub fn arg_bytes(&self, i: usize) -> Result<&'a [u8], RespError> {
        self.element(i + 1).ok_or_else(|| {
            RespError::InvalidCommand(format!("{} missing argument {i}", self.upper_name()))
        })
    }

    /// Argument `i` interpreted as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] if the argument is missing or
    /// not valid UTF-8.
    pub fn arg_str(&self, i: usize) -> Result<&'a str, RespError> {
        std::str::from_utf8(self.arg_bytes(i)?).map_err(|_| {
            RespError::InvalidCommand(format!("{} argument {i} is not utf-8", self.upper_name()))
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
            RespError::InvalidCommand(format!(
                "{} argument {i} is not an integer",
                self.upper_name()
            ))
        })
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
/// values are raw bulk strings. [`GdprRequest::to_frame`] and
/// [`GdprRequest::from_command`] round-trip, so client and server agree on
/// the encoding by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Decode a `GDPR.*` command into its request, copying the value of a
    /// `GDPR.PUT` out of the view (the one copy the store takes over).
    ///
    /// The server's command table has checked the argument count before
    /// this runs; what is checked here is the arguments' shapes: text,
    /// integers, and `GDPR.EXPORT`'s `CURSOR`/`COUNT` keywords.
    ///
    /// # Errors
    ///
    /// Returns [`RespError::InvalidCommand`] for a name that is no
    /// `GDPR.*` command, a missing argument or a malformed one.
    pub fn from_command(cmd: &CommandView<'_>) -> Result<Self, RespError> {
        let is = |name: &str| cmd.name().eq_ignore_ascii_case(name.as_bytes());
        let text = |i: usize| cmd.arg_str(i).map(str::to_string);
        let request = if is("GDPR.AUTH") || is("GDPR.GRANT") || is("GDPR.REVOKE") {
            let actor = text(0)?;
            let purpose = text(1)?;
            if is("GDPR.AUTH") {
                GdprRequest::Auth { actor, purpose }
            } else if is("GDPR.GRANT") {
                GdprRequest::Grant { actor, purpose }
            } else {
                GdprRequest::Revoke { actor, purpose }
            }
        } else if is("GDPR.PUT") {
            GdprRequest::Put {
                key: text(0)?,
                subject: text(1)?,
                purposes: purposes_from_arg(cmd.arg_str(2)?),
                ttl_ms: if cmd.arity() > 4 {
                    Some(cmd.arg_u64(4)?)
                } else {
                    None
                },
                value: cmd.arg_bytes(3)?.to_vec(),
            }
        } else if is("GDPR.GETMETA") {
            GdprRequest::GetMeta { key: text(0)? }
        } else if is("GDPR.SETMETA") {
            GdprRequest::SetMeta {
                key: text(0)?,
                subject: text(1)?,
                purposes: purposes_from_arg(cmd.arg_str(2)?),
                ttl_ms: if cmd.arity() > 3 {
                    Some(cmd.arg_u64(3)?)
                } else {
                    None
                },
            }
        } else if is("GDPR.KEYSOF") {
            GdprRequest::KeysOf { subject: text(0)? }
        } else if is("GDPR.ERASE") {
            GdprRequest::Erase { subject: text(0)? }
        } else if is("GDPR.EXPORT") {
            // `subject`, then `CURSOR c`, then `COUNT n`, each pair
            // optional; keywords in any case.
            let keyword_at = |i: usize, word: &str| {
                cmd.arg_str(i)
                    .is_ok_and(|arg| arg.eq_ignore_ascii_case(word))
            };
            let paged = cmd.arity() >= 3 && keyword_at(1, "CURSOR");
            let counted = paged && cmd.arity() >= 5 && keyword_at(3, "COUNT");
            if cmd.arity() != 1 + 2 * usize::from(paged) + 2 * usize::from(counted) {
                return Err(RespError::InvalidCommand(format!(
                    "syntax error in '{}'",
                    cmd.upper_name()
                )));
            }
            GdprRequest::Export {
                subject: text(0)?,
                cursor: if paged { Some(text(2)?) } else { None },
                count: if counted { Some(cmd.arg_u64(4)?) } else { None },
            }
        } else if is("GDPR.OBJECT") {
            GdprRequest::Object {
                subject: text(0)?,
                purpose: text(1)?,
            }
        } else if is("GDPR.STATS") {
            GdprRequest::Stats
        } else {
            return Err(RespError::InvalidCommand(format!(
                "unknown GDPR command '{}'",
                cmd.upper_name()
            )));
        };
        Ok(request)
    }

    /// The command name and arguments of the request's wire form.
    fn wire_parts(&self) -> (&'static str, Vec<Vec<u8>>) {
        match self {
            GdprRequest::Auth { actor, purpose } => (
                "GDPR.AUTH",
                vec![actor.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Grant { actor, purpose } => (
                "GDPR.GRANT",
                vec![actor.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Revoke { actor, purpose } => (
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
                ("GDPR.PUT", args)
            }
            GdprRequest::GetMeta { key } => ("GDPR.GETMETA", vec![key.clone().into_bytes()]),
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
                ("GDPR.SETMETA", args)
            }
            GdprRequest::KeysOf { subject } => ("GDPR.KEYSOF", vec![subject.clone().into_bytes()]),
            GdprRequest::Erase { subject } => ("GDPR.ERASE", vec![subject.clone().into_bytes()]),
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
                ("GDPR.EXPORT", args)
            }
            GdprRequest::Object { subject, purpose } => (
                "GDPR.OBJECT",
                vec![subject.clone().into_bytes(), purpose.clone().into_bytes()],
            ),
            GdprRequest::Stats => ("GDPR.STATS", Vec::new()),
        }
    }

    /// Encode the request as the RESP command frame a client sends.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let (name, args) = self.wire_parts();
        let mut items = Vec::with_capacity(args.len() + 1);
        items.push(Frame::Bulk(name.as_bytes().to_vec()));
        items.extend(args.into_iter().map(Frame::Bulk));
        Frame::Array(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{Decoder, Request};
    use crate::encode::encode_frame;

    /// The elements of a view, name first.
    fn elements(cmd: &CommandView<'_>) -> Vec<Vec<u8>> {
        std::iter::once(cmd.name())
            .chain(cmd.args())
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// Run `check` on the view of `frame` built both ways: over the
    /// decoded frame and over a decoder's buffer.
    fn both_views(frame: &Frame, check: impl Fn(&CommandView<'_>)) {
        check(&CommandView::from_frame(frame).unwrap());
        let mut decoder = Decoder::new();
        decoder.feed(&encode_frame(frame));
        match decoder.next_request().unwrap() {
            Some(Request::Command(cmd)) => check(&cmd),
            other => panic!("{frame:?} decoded to {other:?}"),
        }
    }

    #[test]
    fn parse_basic_command() {
        both_views(&Frame::command(["set", "key", "value"]), |cmd| {
            assert_eq!(cmd.name(), b"set");
            assert_eq!(cmd.upper_name(), "SET");
            assert_eq!(cmd.arity(), 2);
            assert_eq!(cmd.arg_str(0).unwrap(), "key");
            assert_eq!(cmd.arg_bytes(1).unwrap(), b"value");
        });
    }

    #[test]
    fn roundtrip_to_frame() {
        let frame = Frame::command(["hset", "h", "f", "v"]);
        both_views(&frame, |cmd| {
            assert_eq!(Frame::command(elements(cmd)), frame);
            assert_eq!(cmd.args().len(), 3);
        });
    }

    #[test]
    fn numeric_arguments() {
        both_views(&Frame::command(["PEXPIRE", "k", "5000"]), |cmd| {
            assert_eq!(cmd.arg_u64(1).unwrap(), 5000);
            assert!(cmd.arg_u64(0).is_err(), "non-numeric argument");
            assert!(cmd.arg_u64(5).is_err(), "missing argument");
        });
    }

    #[test]
    fn rejects_non_array_and_empty() {
        let message = |frame: Frame| CommandView::from_frame(&frame).unwrap_err().to_string();
        assert_eq!(
            message(Frame::Integer(1)),
            "invalid command: command must be an array"
        );
        assert_eq!(
            message(Frame::Array(vec![])),
            "invalid command: empty command array"
        );
        assert_eq!(
            message(Frame::Array(vec![Frame::Integer(3)])),
            "invalid command: command arguments must be bulk strings, got Integer(3)"
        );
        // The name's encoding is checked before the arguments' shapes.
        assert_eq!(
            message(Frame::Array(vec![
                Frame::Bulk(vec![0xff]),
                Frame::Integer(3)
            ])),
            "invalid command: command name is not valid utf-8"
        );
        assert_eq!(
            message(Frame::Array(vec![Frame::bulk("GET"), Frame::Null])),
            "invalid command: command arguments must be bulk strings, got Null"
        );
    }

    #[test]
    fn simple_string_arguments_accepted() {
        let frame = Frame::Array(vec![Frame::Simple("PING".into()), Frame::bulk("x")]);
        both_views(&frame, |cmd| {
            assert_eq!(cmd.name(), b"PING");
            assert_eq!(cmd.arity(), 1);
            assert_eq!(cmd.arg_bytes(0).unwrap(), b"x");
        });
    }

    /// Decode a request through the view of its frame.
    fn from_frame(frame: &Frame) -> Result<GdprRequest, RespError> {
        GdprRequest::from_command(&CommandView::from_frame(frame)?)
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
            assert_eq!(from_frame(&request.to_frame()).unwrap(), request);
            // And through the decoder's view of the encoded frame.
            let mut decoder = Decoder::new();
            decoder.feed(&encode_frame(&request.to_frame()));
            match decoder.next_request().unwrap() {
                Some(Request::Command(cmd)) => {
                    assert_eq!(GdprRequest::from_command(&cmd).unwrap(), request);
                }
                other => panic!("{request:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn gdpr_parse_errors() {
        // Unknown GDPR command, and a plain command.
        for name in ["GDPR.NOPE", "SET"] {
            assert!(from_frame(&Frame::command([name, "k", "v"])).is_err());
        }
        assert_eq!(
            from_frame(&Frame::command(["gdpr.nope"]))
                .unwrap_err()
                .to_string(),
            "invalid command: unknown GDPR command 'GDPR.NOPE'"
        );
        // A missing argument. (The argument counts are the server's
        // command table's to check, before a request is decoded.)
        assert_eq!(
            from_frame(&Frame::command(["gdpr.auth", "app"]))
                .unwrap_err()
                .to_string(),
            "invalid command: GDPR.AUTH missing argument 1"
        );
        // Bad TTL argument.
        assert!(from_frame(&Frame::command(["GDPR.PUT", "k", "s", "p", "v", "soon"])).is_err());
    }

    #[test]
    fn paged_export_parse_errors() {
        // Wrong keyword in the CURSOR slot.
        assert!(from_frame(&Frame::command(["GDPR.EXPORT", "alice", "PAGE", "0"])).is_err());
        // COUNT requires CURSOR first (arity 3 with COUNT keyword fails).
        assert!(from_frame(&Frame::command(["GDPR.EXPORT", "alice", "COUNT", "10"])).is_err());
        // Non-numeric COUNT.
        assert!(from_frame(&Frame::command([
            "GDPR.EXPORT",
            "alice",
            "CURSOR",
            "0",
            "COUNT",
            "many"
        ]))
        .is_err());
        // Dangling arity (4 args).
        assert_eq!(
            from_frame(&Frame::command([
                "gdpr.export",
                "alice",
                "CURSOR",
                "0",
                "COUNT"
            ]))
            .unwrap_err()
            .to_string(),
            "invalid command: syntax error in 'GDPR.EXPORT'"
        );
        // Keywords and the name are case-insensitive.
        assert_eq!(
            from_frame(&Frame::command(["Gdpr.Export", "alice", "cursor", "0"])).unwrap(),
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
        assert_eq!(from_frame(&request.to_frame()).unwrap(), request);
    }
}
