//! The line-delimited request/response codec.
//!
//! The build environment is fully offline (no tokio, no serde), so the
//! wire format is deliberately minimal and hand-rolled:
//!
//! * **Request** — one line of UTF-8, `verb key=value key=value …`,
//!   terminated by `\n`. Keys may appear at most once; unknown keys are
//!   rejected per verb (mirroring the CLI's unknown-flag policy).
//! * **Response** — either `ok <nbytes>\n` followed by exactly `nbytes`
//!   payload bytes, or `err <message>\n`. Byte-counted framing keeps
//!   multi-line payloads (coverage maps, hole lists) unambiguous.
//!
//! Connections are persistent: a client may pipeline any number of
//! requests before closing. See `DESIGN.md` §"Service layer" for the
//! full grammar.

use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// One request verb of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verb {
    /// The verb as it opens a request line.
    pub name: &'static str,
    /// Served by a shard daemon.
    pub daemon: bool,
    /// Served by the cluster coordinator.
    pub coordinator: bool,
    /// Consumes worker or mutation capacity, so a daemon passes it
    /// through the admission gate. Administrative verbs (`ping`,
    /// `stats`, `hello`, `shutdown`) and the coordinator's resync verbs
    /// (`fingerprint`, `snapshot`, `restore`) are never shed — a
    /// throttled client must still be able to observe its own
    /// throttling.
    pub gated: bool,
}

const fn verb(name: &'static str, daemon: bool, coordinator: bool, gated: bool) -> Verb {
    Verb {
        name,
        daemon,
        coordinator,
        gated,
    }
}

/// Every verb either front-end serves, in reporting order: the single
/// source of the metrics endpoints, the admission-gated set and each
/// front-end's known-verb list.
pub const VERBS: &[Verb] = &[
    verb("check", true, true, true),
    verb("map", true, true, true),
    verb("holes", true, true, true),
    verb("kfull", true, true, true),
    verb("prob", true, true, true),
    verb("cells", true, false, true),
    verb("mask", true, false, true),
    verb("kcount", true, false, true),
    verb("barrier", true, true, true),
    verb("stats", true, true, false),
    verb("shards", false, true, false),
    verb("fingerprint", true, true, false),
    verb("snapshot", true, false, false),
    verb("restore", true, false, false),
    verb("fail", true, true, true),
    verb("move", true, true, true),
    verb("reseed", true, true, true),
    verb("watch", true, true, false),
    verb("hello", true, true, false),
    verb("ping", true, true, false),
    verb("shutdown", true, true, false),
];

/// Looks `name` up among the verbs a front-end serves (`coordinator`
/// selects which), or the `unknown request` error naming them all.
///
/// # Errors
///
/// The error message when the front-end does not serve `name`.
pub fn known_verb(name: &str, coordinator: bool) -> Result<&'static Verb, String> {
    let serves = |v: &&Verb| if coordinator { v.coordinator } else { v.daemon };
    VERBS
        .iter()
        .filter(serves)
        .find(|v| v.name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = VERBS.iter().filter(serves).map(|v| v.name).collect();
            format!("unknown request '{name}' (known: {})", known.join(", "))
        })
}

/// Upper bound on a request line, to keep a hostile peer from growing an
/// unbounded buffer. An oversized line is answered with an `err` frame
/// (see [`LineRead::Oversized`]) before the connection closes.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Upper bound on an accepted response payload (client side).
pub const MAX_RESPONSE_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request: a verb plus `key=value` parameters.
///
/// Every field borrows from the request line it was parsed from — the
/// hot path performs exactly one heap allocation (the parameter vector),
/// never a `String` per field. The borrow is safe because requests are
/// dispatched while the connection handler still owns the line buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'a> {
    verb: &'a str,
    params: Vec<(&'a str, &'a str)>,
}

impl<'a> Request<'a> {
    /// Parses one request line, borrowing verb and parameters from it.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an empty line, a malformed
    /// token (no `=`), or a duplicated key.
    pub fn parse(line: &'a str) -> Result<Request<'a>, String> {
        // One counting pass sizes the vector exactly, so the parse
        // allocates at most once (zero for parameterless verbs) — the
        // invariant the allocation-audit test pins.
        let token_count = line.split_whitespace().count();
        let mut tokens = line.split_whitespace();
        let Some(verb) = tokens.next() else {
            return Err("empty request".to_string());
        };
        let mut params: Vec<(&'a str, &'a str)> = Vec::with_capacity(token_count - 1);
        for tok in tokens {
            let Some((key, value)) = tok.split_once('=') else {
                return Err(format!("malformed parameter '{tok}' (want key=value)"));
            };
            if key.is_empty() || value.is_empty() {
                return Err(format!("malformed parameter '{tok}' (empty key or value)"));
            }
            if params.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate parameter '{key}'"));
            }
            params.push((key, value));
        }
        Ok(Request { verb, params })
    }

    /// The request verb.
    #[must_use]
    pub fn verb(&self) -> &str {
        self.verb
    }

    /// Rejects any parameter key outside `allowed`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown key and the allowed
    /// set.
    pub fn allow_only(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.params {
            if !allowed.contains(key) {
                return Err(format!(
                    "unknown parameter '{key}' for '{}' (allowed: {})",
                    self.verb,
                    allowed.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// A typed parameter with default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is present but unparseable.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        match self.params.iter().find(|(k, _)| *k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|e| format!("bad value for {key}: {e}")),
        }
    }

    /// A required typed parameter.
    ///
    /// # Errors
    ///
    /// Returns a message when the key is missing or unparseable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        match self.params.iter().find(|(k, _)| *k == key) {
            None => Err(format!("missing required parameter '{key}'")),
            Some((_, v)) => v.parse().map_err(|e| format!("bad value for {key}: {e}")),
        }
    }
}

/// Writes an `ok`-framed payload.
///
/// # Errors
///
/// Propagates I/O errors from the stream.
pub fn write_ok<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    write!(w, "ok {}\n{payload}", payload.len())?;
    w.flush()
}

/// Writes an `err`-framed message (newlines in the message are flattened
/// so the frame stays one line).
///
/// # Errors
///
/// Propagates I/O errors from the stream.
pub fn write_err<W: Write>(w: &mut W, message: &str) -> io::Result<()> {
    let flat = message.replace('\n', " ");
    writeln!(w, "err {flat}")?;
    w.flush()
}

/// The outcome of reading one request line — see
/// [`read_request_line_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineRead {
    /// A complete request line (newline stripped).
    Line(String),
    /// The peer sent more than [`MAX_REQUEST_LINE`] bytes without a
    /// newline. The server answers with an `err` frame and closes —
    /// never silently, so a misconfigured client learns why.
    Oversized,
    /// The line was not valid UTF-8. Answered with an `err` frame, then
    /// the connection closes.
    Invalid,
    /// EOF, shutdown, or a transport error — close without a frame.
    Closed,
}

/// Reads the next `\n`-terminated request line from a connection whose
/// read timeout is short, checking `shutdown` on every timeout so idle
/// keep-alive connections cannot stall a drain. `carry` holds bytes read
/// past the previous newline and must persist across calls on the same
/// connection.
///
/// Shared by the daemon's connection handler and the cluster
/// coordinator's client-facing listener; both answer
/// [`LineRead::Oversized`]/[`LineRead::Invalid`] with an `err` frame
/// before closing.
pub fn read_request_line_checked(
    stream: &TcpStream,
    carry: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> LineRead {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = carry.iter().position(|&b| b == b'\n') {
            let rest = carry.split_off(pos + 1);
            let mut line = std::mem::replace(carry, rest);
            line.pop(); // the newline
            return match String::from_utf8(line) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::Invalid,
            };
        }
        if carry.len() > MAX_REQUEST_LINE {
            return LineRead::Oversized;
        }
        match (&mut (&*stream)).read(&mut chunk) {
            Ok(0) => return LineRead::Closed,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
    }
}

/// [`read_request_line_checked`] collapsed to an `Option` for callers
/// that cannot answer with an `err` frame (e.g. the watch relay's
/// upstream reader, where the lines are server-generated headers).
pub fn read_request_line(
    stream: &TcpStream,
    carry: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> Option<String> {
    match read_request_line_checked(stream, carry, shutdown) {
        LineRead::Line(line) => Some(line),
        _ => None,
    }
}

/// The `err` frame text for a [`LineRead::Oversized`] /
/// [`LineRead::Invalid`] outcome (`None` for the others). One place, so
/// the daemon and the coordinator reject identically.
#[must_use]
pub fn line_read_error(outcome: &LineRead) -> Option<String> {
    match outcome {
        LineRead::Oversized => Some(format!(
            "request line exceeds {MAX_REQUEST_LINE} bytes without a newline"
        )),
        LineRead::Invalid => Some("request line is not valid UTF-8".to_string()),
        LineRead::Line(_) | LineRead::Closed => None,
    }
}

/// Reads raw bytes into `carry` until it holds at least `want` bytes,
/// with the same timeout/shutdown discipline as [`read_request_line`].
/// Returns `false` on EOF, shutdown, or a transport error.
fn fill_carry(stream: &TcpStream, carry: &mut Vec<u8>, want: usize, shutdown: &AtomicBool) -> bool {
    let mut chunk = [0u8; 1024];
    while carry.len() < want {
        match (&mut (&*stream)).read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Reads one framed response from a short-read-timeout connection,
/// checking `shutdown` on every timeout — the upstream half of the
/// cluster coordinator's `watch` relay, where frames arrive at
/// unpredictable times and a `BufRead`-based reader would lose carried
/// bytes across timeouts. `carry` must persist across calls on the same
/// connection.
///
/// Returns `None` on EOF, shutdown, a malformed or oversized frame, or
/// a transport error — all of which end the relay.
pub fn read_framed_response(
    stream: &TcpStream,
    carry: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> Option<Response> {
    let header = read_request_line(stream, carry, shutdown)?;
    if let Some(msg) = header.strip_prefix("err ") {
        return Some(Response::Err(msg.to_string()));
    }
    let len: usize = header.strip_prefix("ok ")?.trim().parse().ok()?;
    if len > MAX_RESPONSE_BYTES {
        return None;
    }
    if !fill_carry(stream, carry, len, shutdown) {
        return None;
    }
    let rest = carry.split_off(len);
    let payload = std::mem::replace(carry, rest);
    String::from_utf8(payload).ok().map(Response::Ok)
}

/// A response read back by the client codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded; the payload bytes follow.
    Ok(String),
    /// The server rejected the request with a message.
    Err(String),
}

/// Reads one framed response. Returns `None` on clean EOF before any
/// header byte.
///
/// # Errors
///
/// Returns an I/O error for truncated frames, oversized payloads, or
/// non-UTF-8 payload bytes.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Option<Response>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let header = header.trim_end_matches('\n');
    if let Some(msg) = header.strip_prefix("err ") {
        return Ok(Some(Response::Err(msg.to_string())));
    }
    let Some(len_str) = header.strip_prefix("ok ") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed response header '{header}'"),
        ));
    };
    let len: usize = len_str.parse().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad payload length '{len_str}': {e}"),
        )
    })?;
    if len > MAX_RESPONSE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("payload of {len} bytes exceeds the {MAX_RESPONSE_BYTES} limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let payload =
        String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(Response::Ok(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_verb_and_params() {
        let req = Request::parse("map side=24 theta-deg=45").unwrap();
        assert_eq!(req.verb(), "map");
        assert_eq!(req.get("side", 0usize).unwrap(), 24);
        assert!((req.get("theta-deg", 0.0f64).unwrap() - 45.0).abs() < 1e-12);
        assert_eq!(req.get("absent", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("   ").is_err());
        assert!(Request::parse("map side").is_err());
        assert!(Request::parse("map =3").is_err());
        assert!(Request::parse("map side=").is_err());
        assert!(Request::parse("map side=3 side=4").is_err());
    }

    #[test]
    fn allow_only_names_the_stray_key() {
        let req = Request::parse("map side=24 thets-deg=45").unwrap();
        let err = req.allow_only(&["side", "theta-deg"]).unwrap_err();
        assert!(err.contains("thets-deg"), "{err}");
        assert!(err.contains("theta-deg"), "{err}");
        assert!(req.allow_only(&["side", "thets-deg"]).is_ok());
    }

    #[test]
    fn require_distinguishes_missing_from_bad() {
        let req = Request::parse("fail id=3").unwrap();
        assert_eq!(req.require::<usize>("id").unwrap(), 3);
        assert!(Request::parse("fail")
            .unwrap()
            .require::<usize>("id")
            .unwrap_err()
            .contains("missing"));
        assert!(Request::parse("fail id=x")
            .unwrap()
            .require::<usize>("id")
            .unwrap_err()
            .contains("bad value"));
    }

    #[test]
    fn ok_frames_roundtrip_including_newlines() {
        let payload = "line one\nline two\n";
        let mut wire = Vec::new();
        write_ok(&mut wire, payload).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_response(&mut reader).unwrap(),
            Some(Response::Ok(payload.to_string()))
        );
        assert_eq!(read_response(&mut reader).unwrap(), None, "clean EOF");
    }

    #[test]
    fn err_frames_roundtrip_and_flatten() {
        let mut wire = Vec::new();
        write_err(&mut wire, "boom\nwith detail").unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_response(&mut reader).unwrap(),
            Some(Response::Err("boom with detail".to_string()))
        );
    }

    #[test]
    fn framed_responses_survive_read_timeouts_and_split_frames() {
        // The relay reader must reassemble frames that arrive split
        // across reads and keep carried bytes across timeouts.
        use std::net::TcpListener;
        use std::time::Duration;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer_thread = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // First frame in two bursts with a pause inside the payload,
            // so the reader times out mid-frame at least once.
            peer.write_all(b"ok 11\nhello").unwrap();
            peer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
            peer.write_all(b" world").unwrap();
            // Then an err frame and a second ok frame back-to-back in
            // one burst, exercising the carry across frame boundaries.
            write_err(&mut peer, "nope").unwrap();
            write_ok(&mut peer, "tail\n").unwrap();
        });

        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let shutdown = AtomicBool::new(false);
        let mut carry = Vec::new();
        assert_eq!(
            read_framed_response(&stream, &mut carry, &shutdown),
            Some(Response::Ok("hello world".to_string()))
        );
        assert_eq!(
            read_framed_response(&stream, &mut carry, &shutdown),
            Some(Response::Err("nope".to_string()))
        );
        assert_eq!(
            read_framed_response(&stream, &mut carry, &shutdown),
            Some(Response::Ok("tail\n".to_string()))
        );
        assert_eq!(
            read_framed_response(&stream, &mut carry, &shutdown),
            None,
            "clean EOF"
        );
        writer_thread.join().unwrap();
    }

    #[test]
    fn oversized_and_invalid_lines_are_distinct_outcomes() {
        use std::net::TcpListener;
        use std::time::Duration;

        let run = |payload: Vec<u8>| -> LineRead {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = std::thread::spawn(move || {
                let (mut peer, _) = listener.accept().unwrap();
                peer.write_all(&payload).unwrap();
            });
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            let shutdown = AtomicBool::new(false);
            let mut carry = Vec::new();
            let outcome = read_request_line_checked(&stream, &mut carry, &shutdown);
            writer.join().unwrap();
            outcome
        };

        assert_eq!(run(b"ping\n".to_vec()), LineRead::Line("ping".to_string()));
        assert_eq!(run(vec![b'x'; MAX_REQUEST_LINE + 2]), LineRead::Oversized);
        assert_eq!(run(b"\xff\xfe bad\n".to_vec()), LineRead::Invalid);
        assert_eq!(run(b"no newline".to_vec()), LineRead::Closed, "EOF");
        assert!(line_read_error(&LineRead::Oversized)
            .unwrap()
            .contains("exceeds"));
        assert!(line_read_error(&LineRead::Invalid)
            .unwrap()
            .contains("UTF-8"));
        assert!(line_read_error(&LineRead::Closed).is_none());
    }

    #[test]
    fn truncated_and_malformed_frames_are_io_errors() {
        let mut reader = BufReader::new(&b"ok 10\nshort"[..]);
        assert!(read_response(&mut reader).is_err());
        let mut reader = BufReader::new(&b"what 3\nabc"[..]);
        assert!(read_response(&mut reader).is_err());
        let mut reader = BufReader::new(&b"ok nope\n"[..]);
        assert!(read_response(&mut reader).is_err());
    }
}
