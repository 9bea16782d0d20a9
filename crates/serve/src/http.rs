//! A deliberately small HTTP/1.1 implementation: exactly what a
//! std-only daemon needs to accept untrusted request bytes safely.
//!
//! The parser is *incremental* — [`parse_request`] is handed whatever
//! bytes have arrived so far and answers one of three things: "complete
//! request (and how many bytes it consumed)", "keep reading", or "this
//! connection is sending garbage, answer `4xx` and hang up". Returning
//! the consumed byte count is what makes pipelined keep-alive work: the
//! connection loop drains one request's bytes and re-parses the
//! remainder.
//!
//! Strictness is the point, not pedantry: every request limit
//! ([`MAX_HEADER_BYTES`], [`MAX_BODY_BYTES`], [`MAX_HEADER_COUNT`]) is
//! enforced *before* buffering unbounded attacker-controlled input, and
//! anything malformed maps to a 4xx status via [`HttpViolation`] —
//! never a panic.

use std::fmt;

use kw_results::json::Json;

/// Most header bytes a request may send (request line + all headers +
/// terminator). Chosen generously above anything `kw-load` or a curl
/// sends, and far below anything that could pressure memory.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Largest accepted request body. Workload + solver specs are tens of
/// bytes; 64 KiB leaves room for growth without inviting abuse.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Most header fields a request may send.
pub const MAX_HEADER_COUNT: usize = 64;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase by construction.
    pub method: String,
    /// Request target as sent (path plus optional query).
    pub target: String,
    /// Whether the request was HTTP/1.1 (HTTP/1.0 is accepted too, with
    /// keep-alive defaulting off).
    pub http11: bool,
    /// Header fields in arrival order, names as sent (lookup is
    /// case-insensitive via [`Request::header`]).
    pub headers: Vec<(String, String)>,
    /// Request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path component of the target (query stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Whether the client asked to close the connection after this
    /// request (explicitly, or implicitly by speaking HTTP/1.0).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.http11,
        }
    }
}

/// Everything that makes a request unacceptable, each with the status
/// the daemon answers before closing the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpViolation {
    /// No header terminator within [`MAX_HEADER_BYTES`] (or too many
    /// fields).
    HeadersTooLarge,
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// `Transfer-Encoding` (chunked or otherwise) is not served;
    /// clients must send `Content-Length`.
    ChunkedUnsupported,
    /// Anything else syntactically wrong, with a human-readable reason.
    Malformed(&'static str),
}

impl HttpViolation {
    /// The response status for this violation.
    pub fn status(&self) -> u16 {
        match self {
            HttpViolation::HeadersTooLarge => 431,
            HttpViolation::BodyTooLarge => 413,
            HttpViolation::ChunkedUnsupported => 411,
            HttpViolation::Malformed(_) => 400,
        }
    }
}

impl fmt::Display for HttpViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpViolation::HeadersTooLarge => {
                write!(f, "request headers exceed {MAX_HEADER_BYTES} bytes")
            }
            HttpViolation::BodyTooLarge => {
                write!(f, "request body exceeds {MAX_BODY_BYTES} bytes")
            }
            HttpViolation::ChunkedUnsupported => {
                write!(f, "Transfer-Encoding is not supported; send Content-Length")
            }
            HttpViolation::Malformed(reason) => write!(f, "malformed request: {reason}"),
        }
    }
}

/// Tries to parse one request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a complete request; the caller
///   drains `consumed` bytes and may find the next pipelined request
///   right behind it.
/// * `Ok(None)` — incomplete but within limits; read more bytes.
/// * `Err(violation)` — protocol error; answer [`HttpViolation::status`]
///   and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpViolation> {
    let Some(framed) = frame(buf, MAX_BODY_BYTES, request_line)? else {
        return Ok(None);
    };
    let (method, target, http11) = framed.start;
    let request = Request {
        method,
        target,
        http11,
        headers: framed.headers,
        body: framed.body.to_vec(),
    };
    Ok(Some((request, framed.consumed)))
}

/// Parses `METHOD SP TARGET SP VERSION` into `(method, target, http11)`.
fn request_line(line: &str) -> Result<(String, String, bool), HttpViolation> {
    let parts: Vec<&str> = line.split(' ').collect();
    let [method, target, version] = parts.as_slice() else {
        return Err(HttpViolation::Malformed(
            "request line must be `METHOD SP TARGET SP VERSION`",
        ));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpViolation::Malformed(
            "method must be an uppercase ASCII token",
        ));
    }
    if !target.starts_with('/') {
        return Err(HttpViolation::Malformed("target must start with '/'"));
    }
    let http11 = match *version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpViolation::Malformed("unsupported HTTP version")),
    };
    Ok((method.to_string(), target.to_string(), http11))
}

/// One message framed by [`frame`].
pub(crate) struct Framed<'a, T> {
    /// The start line, as the caller's parser read it.
    pub(crate) start: T,
    /// Header fields in arrival order, names as sent, values trimmed.
    pub(crate) headers: Vec<(String, String)>,
    /// Exactly `Content-Length` body bytes.
    pub(crate) body: &'a [u8],
    /// Bytes of `buf` the message occupies.
    pub(crate) consumed: usize,
}

/// Frames one HTTP/1.1 message — a request for [`parse_request`], a
/// response for the `kw-load` client — from the front of `buf`: finds
/// the head terminator within [`MAX_HEADER_BYTES`], splits the header
/// block (the start line goes to `start`), and takes exactly one
/// `Content-Length` of at most `max_body` bytes as the body, with
/// checked arithmetic throughout. `Ok(None)` means "within limits, read
/// more bytes"; no input panics.
pub(crate) fn frame<T>(
    buf: &[u8],
    max_body: usize,
    start: impl FnOnce(&str) -> Result<T, HttpViolation>,
) -> Result<Option<Framed<'_, T>>, HttpViolation> {
    // Find the header terminator, refusing to scan (or buffer) beyond
    // the header cap.
    let window = buf.get(..MAX_HEADER_BYTES).unwrap_or(buf);
    let Some(head_end) = find(window, b"\r\n\r\n") else {
        if buf.len() >= MAX_HEADER_BYTES {
            return Err(HttpViolation::HeadersTooLarge);
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(window.get(..head_end).unwrap_or_default())
        .map_err(|_| HttpViolation::Malformed("header bytes are not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or("");
    // A stray CR or LF inside any header line means the peer's line
    // endings are broken (bare-LF terminators, smuggled CRs): reject
    // rather than guess.
    if head
        .split("\r\n")
        .any(|l| l.contains('\r') || l.contains('\n'))
    {
        return Err(HttpViolation::Malformed("bare CR or LF in header block"));
    }
    let start = start(start_line)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADER_COUNT {
            return Err(HttpViolation::HeadersTooLarge);
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpViolation::Malformed(
                "obsolete header line folding is not accepted",
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpViolation::Malformed("header line without ':'"));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpViolation::Malformed("malformed header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    // Body framing. Transfer-Encoding (chunked included) is refused
    // outright — a solve request has no business streaming — so exactly
    // one Content-Length is the only accepted framing.
    let named = |name: &'static str| {
        headers
            .iter()
            .filter(move |(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    if named("transfer-encoding").next().is_some() {
        return Err(HttpViolation::ChunkedUnsupported);
    }
    let mut lengths = named("content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0usize,
        (Some(_), Some(_)) => {
            return Err(HttpViolation::Malformed("multiple Content-Length headers"))
        }
        (Some(v), None) => v
            .parse::<usize>()
            .map_err(|_| HttpViolation::Malformed("unparseable Content-Length"))?,
    };
    if content_length > max_body {
        return Err(HttpViolation::BodyTooLarge);
    }

    let consumed = (head_end + 4)
        .checked_add(content_length)
        .ok_or(HttpViolation::BodyTooLarge)?;
    let Some(body) = buf.get(head_end + 4..consumed) else {
        return Ok(None); // body promised and within limits: keep reading
    };
    Ok(Some(Framed {
        start,
        headers,
        body,
        consumed,
    }))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One response, rendered with `Content-Length` framing (never chunked).
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds (the backpressure reply).
    pub retry_after: Option<u32>,
    /// Whether to send `Connection: close` and drop the connection.
    pub close: bool,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: value.render().into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    /// A JSON error envelope: `{"error": reason}`.
    pub fn error(status: u16, reason: impl Into<String>) -> Self {
        Self::json(status, &Json::obj([("error", Json::Str(reason.into()))]))
    }

    /// The response for a protocol violation; always closes.
    pub fn for_violation(v: &HttpViolation) -> Self {
        let mut resp = Self::error(v.status(), v.to_string());
        resp.close = true;
        resp
    }

    /// Serializes status line, headers, and body.
    pub fn render(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reason phrase for the handful of statuses the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}
