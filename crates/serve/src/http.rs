//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! Just enough of RFC 9112 for the serve protocol: request-line + header
//! parsing, `Content-Length` bodies, persistent connections (keep-alive is
//! the HTTP/1.1 default; `Connection: close` is honored), and pipelining —
//! requests are read back-to-back off one buffered reader, so a client may
//! send several before reading any response. No chunked transfer coding,
//! no TLS, no compression: the serve protocol needs none of them, and
//! every omitted feature is one less thing to get wrong in a hand-rolled
//! parser.
//!
//! Input limits are explicit: header block ≤ [`MAX_HEADER_BYTES`], body ≤
//! [`MAX_BODY_BYTES`]. Oversized or malformed input maps to a 4xx status
//! (see [`ParseError::status`]) so one bad client cannot wedge a worker.

use std::io::{BufRead, Write};

/// Upper bound on the request line + headers, bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Upper bound on a request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub path: String,
    /// Lowercased header names with their (trimmed) values, in order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request failed to parse, mapped to the status the server should
/// answer with before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header, or Content-Length value → 400.
    Malformed(String),
    /// A POST/PUT with a body but no `Content-Length` → 411.
    LengthRequired,
    /// Headers or body exceed the configured limits → 413.
    TooLarge(String),
    /// The underlying stream failed mid-request → no response possible.
    Io(String),
}

impl ParseError {
    /// The HTTP status code this error maps to (0 for I/O errors, where
    /// no response can be written).
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Malformed(_) => 400,
            ParseError::LengthRequired => 411,
            ParseError::TooLarge(_) => 413,
            ParseError::Io(_) => 0,
        }
    }
}

/// Reads one request off a buffered stream.
///
/// Returns `Ok(None)` on a clean end-of-stream before any request byte
/// (the peer closed an idle keep-alive connection — not an error).
///
/// # Errors
///
/// [`ParseError`] on malformed or oversized input, or on stream failure.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ParseError> {
    // Request line. An empty read here means the peer hung up between
    // requests; mid-line EOF is a truncated request and therefore an error.
    let line = match read_line(reader, MAX_HEADER_BYTES)? {
        None => return Ok(None),
        Some(l) => l,
    };
    if line.is_empty() {
        return Err(ParseError::Malformed("empty request line".to_owned()));
    }
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.chars().all(|c| c.is_ascii_uppercase()))
        .ok_or_else(|| ParseError::Malformed(format!("bad request line `{line}`")))?
        .to_owned();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| ParseError::Malformed(format!("bad request target in `{line}`")))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed(format!("missing HTTP version in `{line}`")))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed(format!(
            "extra request-line fields in `{line}`"
        )));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => {
            return Err(ParseError::Malformed(format!(
                "unsupported protocol version `{v}`"
            )))
        }
    };

    // Header block, bounded in total size.
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = line.len();
    loop {
        let Some(line) = read_line(reader, MAX_HEADER_BYTES)? else {
            return Err(ParseError::Io("EOF inside header block".to_owned()));
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::TooLarge(format!(
                "header block exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("header without `:`: `{line}`")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed(format!("bad header name `{name}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Keep-alive: HTTP/1.1 defaults on, 1.0 defaults off.
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    // Body: exactly Content-Length bytes when given; a bodyful method
    // without it is 411 (chunked coding is not supported).
    let content_length = headers.iter().find(|(k, _)| k == "content-length");
    let body = match content_length {
        Some((_, v)) => {
            let n: usize = v
                .parse()
                .map_err(|_| ParseError::Malformed(format!("bad Content-Length `{v}`")))?;
            if n > MAX_BODY_BYTES {
                return Err(ParseError::TooLarge(format!(
                    "body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
            let mut body = vec![0u8; n];
            reader
                .read_exact(&mut body)
                .map_err(|e| ParseError::Io(format!("truncated body: {e}")))?;
            body
        }
        None if matches!(method.as_str(), "POST" | "PUT") => {
            return Err(ParseError::LengthRequired)
        }
        None => Vec::new(),
    };

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    }))
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
/// `Ok(None)` only on EOF before the first byte.
fn read_line<R: BufRead>(reader: &mut R, limit: usize) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(ParseError::Io("EOF mid-line".to_owned()));
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e.to_string())),
        }
        if byte[0] == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            let line = String::from_utf8(buf)
                .map_err(|_| ParseError::Malformed("non-UTF-8 header line".to_owned()))?;
            return Ok(Some(line));
        }
        buf.push(byte[0]);
        if buf.len() > limit {
            return Err(ParseError::TooLarge(format!("line exceeds {limit} bytes")));
        }
    }
}

/// A parsed HTTP response — the client half, used by the load generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Lowercased header names with their (trimmed) values, in order.
    pub headers: Vec<(String, String)>,
    /// Response body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

impl Response {
    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Reports non-UTF-8 bodies as text.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("non-UTF-8 body: {e}"))
    }
}

/// Writes one request with a `Content-Length` body and flushes (the
/// client half; pair with [`read_response`] on the same stream).
///
/// # Errors
///
/// Propagates stream write errors.
pub fn write_request<W: Write>(
    stream: &mut W,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: pi-serve\r\ncontent-length: {}\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one response off a buffered stream (the client half).
///
/// Returns `Ok(None)` on a clean end-of-stream before any response byte
/// (the server closed an idle keep-alive connection).
///
/// # Errors
///
/// [`ParseError`] on malformed or oversized input, or on stream failure.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Option<Response>, ParseError> {
    let line = match read_line(reader, MAX_HEADER_BYTES)? {
        None => return Ok(None),
        Some(l) => l,
    };
    // Status line: `HTTP/1.1 200 OK` (reason phrase may contain spaces).
    let mut parts = line.splitn(3, ' ');
    let version = parts
        .next()
        .filter(|v| matches!(*v, "HTTP/1.1" | "HTTP/1.0"))
        .ok_or_else(|| ParseError::Malformed(format!("bad status line `{line}`")))?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or_else(|| ParseError::Malformed(format!("bad status code in `{line}`")))?;

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = line.len();
    loop {
        let Some(line) = read_line(reader, MAX_HEADER_BYTES)? else {
            return Err(ParseError::Io("EOF inside header block".to_owned()));
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::TooLarge(format!(
                "header block exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("header without `:`: `{line}`")))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    // The serve wire format always carries Content-Length; anything else
    // (chunked, close-delimited) is out of protocol.
    let n: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .ok_or_else(|| ParseError::Malformed("response without Content-Length".to_owned()))
        .and_then(|(_, v)| {
            v.parse()
                .map_err(|_| ParseError::Malformed(format!("bad Content-Length `{v}`")))
        })?;
    if n > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge(format!(
            "body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; n];
    reader
        .read_exact(&mut body)
        .map_err(|e| ParseError::Io(format!("truncated body: {e}")))?;

    Ok(Some(Response {
        status,
        headers,
        body,
        keep_alive,
    }))
}

/// Canonical reason phrase for the statuses the server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        503 => "Service Unavailable",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response with a `Content-Length` body and flushes.
///
/// # Errors
///
/// Propagates stream write errors.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, body, keep_alive, &[])
}

/// [`write_response`] with extra response headers (name, value) appended
/// after the fixed head — how overload 503s carry `Retry-After`.
///
/// # Errors
///
/// Propagates stream write errors.
pub fn write_response_with<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    write_head(
        stream,
        status,
        content_type,
        body.len(),
        keep_alive,
        extra_headers,
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes the status line and headers of a response whose body is
/// `content_length` bytes, and not the body: the caller writes it, or,
/// answering a `HEAD`, leaves it out.
///
/// # Errors
///
/// Propagates stream write errors.
pub(crate) fn write_head<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {content_length}\r\nconnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Option<Request>, ParseError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /v1/eval HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/eval");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "\r\nGET / HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n",
            "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status(), 400, "`{}` → {err:?}", bad.escape_debug());
        }
    }

    #[test]
    fn post_without_content_length_is_411() {
        let err = parse("POST /v1/eval HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::LengthRequired);
        assert_eq!(err.status(), 411);
        // GET without a length is fine.
        assert!(parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap().is_some());
    }

    #[test]
    fn oversized_content_length_is_413() {
        let text = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&text).unwrap_err().status(), 413);
    }

    #[test]
    fn oversized_header_block_is_413() {
        let text = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(parse(&text).unwrap_err().status(), 413);
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, ParseError::Io(_)), "{err:?}");
        assert_eq!(err.status(), 0, "no response possible on a dead stream");
    }

    #[test]
    fn eof_inside_headers_is_an_io_error() {
        let err = parse("GET / HTTP/1.1\r\nHost: x\r\n").unwrap_err();
        assert!(matches!(err, ParseError::Io(_)), "{err:?}");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let text = "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                    GET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(text.as_bytes());
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"hi"[..])
        );
        assert!(first.keep_alive);
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive, "Connection: close honored");
        assert_eq!(read_request(&mut reader).unwrap(), None);
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse("GET /healthz HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn responses_round_trip_via_the_wire_format() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        // And the client half reads back exactly what the server wrote.
        let resp = read_response(&mut BufReader::new(text.as_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
        assert!(resp.keep_alive);
    }

    #[test]
    fn extra_headers_render_and_survive_the_client_parse() {
        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            503,
            "application/json",
            b"{}",
            true,
            &[("Retry-After", "2".to_owned())],
        )
        .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let resp = read_response(&mut BufReader::new(text.as_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers
                .iter()
                .find(|(k, _)| k == "retry-after")
                .map(|(_, v)| v.as_str()),
            Some("2")
        );
    }

    #[test]
    fn requests_round_trip_via_the_wire_format() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/eval", b"{}").unwrap();
        let req = read_request(&mut BufReader::new(wire.as_slice()))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/eval");
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive);
    }

    #[test]
    fn client_rejects_malformed_status_lines() {
        for bad in [
            "HTTP/2 200 OK\r\n\r\n",
            "200 OK\r\n\r\n",
            "HTTP/1.1 abc OK\r\n\r\n",
            "HTTP/1.1 99 Low\r\n\r\n",
            "HTTP/1.1 200 OK\r\n\r\n", // no Content-Length
        ] {
            let err = read_response(&mut BufReader::new(bad.as_bytes())).unwrap_err();
            assert!(matches!(err, ParseError::Malformed(_)), "{bad:?} → {err:?}");
        }
        assert_eq!(
            read_response(&mut BufReader::new(&b""[..])).unwrap(),
            None,
            "clean EOF before any byte"
        );
    }

    #[test]
    fn client_reads_pipelined_responses_back_to_back() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", b"one", true).unwrap();
        write_response(&mut wire, 400, "application/json", b"two!", false).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let a = read_response(&mut reader).unwrap().unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"one"[..]));
        let b = read_response(&mut reader).unwrap().unwrap();
        assert_eq!((b.status, b.body.as_slice()), (400, &b"two!"[..]));
        assert!(!b.keep_alive);
    }
}
