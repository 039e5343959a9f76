//! A hand-rolled HTTP/1.1 subset — request parsing and response writing
//! over any `Read`/`Write`, with hard limits on hostile input.
//!
//! This is deliberately *not* a general HTTP implementation. It parses
//! exactly what the tuning API needs (request line, headers,
//! `Content-Length` bodies, keep-alive) and rejects everything else with
//! a precise error the server maps to a clean 4xx/5xx: oversized heads
//! and bodies, missing lengths, truncated requests, unsupported versions
//! and transfer encodings. Like `serve::json`, it touches untrusted bytes
//! and therefore never panics and never allocates proportionally to
//! anything the peer did not already pay for.

use std::io::{Read, Write};

/// Hard limits applied while reading a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers (431 past this).
    pub max_head_bytes: usize,
    /// Maximum body bytes (413 past this — checked against the declared
    /// `Content-Length` *before* reading the body).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, verbatim (e.g. `GET`).
    pub method: String,
    /// Path component of the target (before any `?`).
    pub path: String,
    /// Query component of the target (after the `?`), if any.
    pub query: Option<String>,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of header `name` (lower-case).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(header, _)| header == name)
            .map(|(_, value)| value.as_str())
    }

    /// True when the query string contains `key=1` or a bare `key`.
    #[must_use]
    pub fn query_flag(&self, key: &str) -> bool {
        self.query
            .as_deref()
            .map(|query| {
                query
                    .split('&')
                    .any(|pair| pair == key || pair == format!("{key}=1"))
            })
            .unwrap_or(false)
    }
}

/// Why a request could not be parsed. Each variant maps to one observable
/// server behavior, pinned by the conformance transcripts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed (or idled out) before sending any byte of a
    /// request — a clean end of a keep-alive connection, not an error.
    ConnectionClosed,
    /// The read timed out (or the peer vanished) *mid-request*: a
    /// half-open connection holding a handler hostage. Respond 408, close.
    Timeout,
    /// Request line + headers exceeded [`HttpLimits::max_head_bytes`] (431).
    HeadTooLarge,
    /// Declared `Content-Length` exceeds [`HttpLimits::max_body_bytes`] (413).
    BodyTooLarge,
    /// A body-bearing method arrived without `Content-Length` (411).
    LengthRequired,
    /// Not HTTP/1.0 or HTTP/1.1 (505).
    UnsupportedVersion,
    /// Anything else malformed (400); the message is diagnostic.
    BadRequest(String),
    /// A transport error other than timeout; drop the connection silently.
    Io(String),
}

fn read_one(reader: &mut impl Read, started: bool) -> Result<u8, HttpError> {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if started {
                    Err(HttpError::Timeout)
                } else {
                    Err(HttpError::ConnectionClosed)
                }
            }
            Ok(_) => return Ok(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return if started {
                    Err(HttpError::Timeout)
                } else {
                    Err(HttpError::ConnectionClosed)
                }
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

/// Reads and parses one request. Blocking; honors whatever read timeout
/// the caller configured on `reader` (mapping it to
/// [`HttpError::Timeout`]/[`HttpError::ConnectionClosed`]).
pub fn read_request(reader: &mut impl Read, limits: &HttpLimits) -> Result<Request, HttpError> {
    // Head: everything up to the blank line, byte by byte with a hard cap.
    let mut head = Vec::new();
    loop {
        let started = !head.is_empty();
        let byte = read_one(reader, started)?;
        head.push(byte);
        if head.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".to_owned()))?;

    // METHOD SP TARGET SP VERSION
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| HttpError::BadRequest("malformed request line".to_owned()))?
        .to_owned();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or_else(|| HttpError::BadRequest("malformed request target".to_owned()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".to_owned()))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line".to_owned()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion);
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_owned(), Some(query.to_owned())),
        None => (target.to_owned(), None),
    };

    // Headers.
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header line".to_owned()));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest("malformed header name".to_owned()));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(header, _)| header == name)
            .map(|(_, value)| value.as_str())
    };

    if header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; send content-length".to_owned(),
        ));
    }

    // Body.
    let content_length = match header("content-length") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| HttpError::BadRequest("malformed content-length".to_owned()))?,
        ),
        None => None,
    };
    let body_len = match (content_length, method.as_str()) {
        (Some(len), _) => len,
        (None, "POST" | "PUT" | "PATCH") => return Err(HttpError::LengthRequired),
        (None, _) => 0,
    };
    if body_len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; body_len];
    let mut filled = 0;
    while filled < body_len {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Timeout),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }

    let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
        Some(value) if value == "close" => false,
        Some(value) if value == "keep-alive" => true,
        _ => version == "HTTP/1.1",
    };

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length` and `Connection`
    /// are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
    /// Whether the server will close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, value: &crate::json::Value) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: value.to_json().into_bytes(),
            close: false,
        }
    }

    /// A JSON error envelope: `{"v":1,"error":message}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let value = crate::json::Value::Obj(vec![
            (
                "v".to_owned(),
                crate::json::Value::from_u64(crate::wire::WIRE_VERSION),
            ),
            (
                "error".to_owned(),
                crate::json::Value::Str(message.to_owned()),
            ),
        ]);
        Self::json(status, &value)
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// Marks the connection for closing after this response.
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// The standard reason phrase for this status.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "",
        }
    }

    /// Serializes the response (status line, headers, body) to `writer` as
    /// one `write_all` followed by a flush.
    ///
    /// One write per message is what keeps a keep-alive exchange at the
    /// tuner's speed: a head and a body written separately to a socket
    /// with Nagle's algorithm on hold the body back until the peer ACKs the
    /// head, which a delayed-ACK peer does ~40 ms later.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        head.push_str("Content-Type: application/json\r\n");
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(if self.close {
            "Connection: close\r\n"
        } else {
            "Connection: keep-alive\r\n"
        });
        head.push_str("\r\n");
        let mut message = head.into_bytes();
        message.extend_from_slice(&self.body);
        writer.write_all(&message)?;
        writer.flush()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One call a [`Recorder`] saw.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum Recorded {
        Write(Vec<u8>),
        Flush,
    }

    /// A `Write` that accepts every byte and records each `write` and
    /// `flush` call in order, so a test can pin how a message was sent.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub(crate) calls: Vec<Recorded>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.push(Recorded::Write(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.calls.push(Recorded::Flush);
            Ok(())
        }
    }

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(
            &mut std::io::Cursor::new(raw.to_vec()),
            &HttpLimits::default(),
        )
    }

    #[test]
    fn a_well_formed_post_parses() {
        let raw = b"POST /v1/sessions?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
        let request = parse(raw).expect("valid request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/sessions");
        assert_eq!(request.query.as_deref(), Some("wait=1"));
        assert!(request.query_flag("wait"));
        assert!(!request.query_flag("block"));
        assert_eq!(request.body, b"{}");
        assert_eq!(request.header("host"), Some("x"));
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse(raw).expect("valid").keep_alive);
        let raw = b"GET /v1/stats HTTP/1.0\r\n\r\n";
        assert!(!parse(raw).expect("valid").keep_alive);
        let raw = b"GET /v1/stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(parse(raw).expect("valid").keep_alive);
    }

    #[test]
    fn malformed_requests_map_to_precise_errors() {
        // Truncated head: the "connection" ends mid-request.
        assert_eq!(parse(b"GET /v1/stats HTT"), Err(HttpError::Timeout));
        // Nothing at all: clean close.
        assert_eq!(parse(b""), Err(HttpError::ConnectionClosed));
        // Truncated body.
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"),
            Err(HttpError::Timeout)
        );
        // Body-bearing method without a length.
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        );
        // Unsupported version.
        assert_eq!(
            parse(b"GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::UnsupportedVersion)
        );
        // Garbage request lines.
        assert!(matches!(
            parse(b"get /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Malformed headers.
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Chunked bodies are out of scope, explicitly.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn limits_trigger_head_and_body_rejections() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 16,
        };
        let huge_head = format!("GET /x HTTP/1.1\r\nPadding: {}\r\n\r\n", "y".repeat(100));
        assert_eq!(
            read_request(&mut std::io::Cursor::new(huge_head.into_bytes()), &limits),
            Err(HttpError::HeadTooLarge)
        );
        // The body limit applies to the *declared* length: the server never
        // buffers bytes it is going to reject.
        let oversized = b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n".to_vec();
        assert_eq!(
            read_request(&mut std::io::Cursor::new(oversized), &limits),
            Err(HttpError::BodyTooLarge)
        );
    }

    #[test]
    fn responses_serialize_with_length_and_connection_headers() {
        let value =
            crate::json::Value::Obj(vec![("ok".to_owned(), crate::json::Value::Bool(true))]);
        let mut out = Vec::new();
        Response::json(200, &value)
            .with_header("Retry-After", "2")
            .write_to(&mut out)
            .expect("in-memory write");
        let text = String::from_utf8(out).expect("ASCII response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        Response::error(503, "shed")
            .closing()
            .write_to(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("ASCII response");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"v\":1,\"error\":\"shed\"}"));
    }

    #[test]
    fn a_response_goes_out_in_one_write_then_a_flush() {
        let sent = |response: &Response| {
            let mut out = Recorder::default();
            response.write_to(&mut out).expect("in-memory write");
            out.calls
        };
        let ok = Response::json(
            200,
            &crate::json::Value::Obj(vec![("ok".to_owned(), crate::json::Value::Bool(true))]),
        );
        assert_eq!(
            sent(&ok),
            [
                Recorded::Write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                      Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}"
                        .to_vec()
                ),
                Recorded::Flush,
            ]
        );
        let shed = Response::error(503, "shed")
            .with_header("Retry-After", "7")
            .closing();
        assert_eq!(
            sent(&shed),
            [
                Recorded::Write(
                    b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                      Content-Length: 22\r\nRetry-After: 7\r\nConnection: close\r\n\r\n\
                      {\"v\":1,\"error\":\"shed\"}"
                        .to_vec()
                ),
                Recorded::Flush,
            ]
        );
        let empty = Response {
            status: 202,
            headers: Vec::new(),
            body: Vec::new(),
            close: false,
        };
        assert_eq!(
            sent(&empty),
            [
                Recorded::Write(
                    b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
                      Content-Length: 0\r\nConnection: keep-alive\r\n\r\n"
                        .to_vec()
                ),
                Recorded::Flush,
            ]
        );
    }
}
