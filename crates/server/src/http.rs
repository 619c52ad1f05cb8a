//! A deliberately minimal HTTP/1.1 layer over blocking sockets.
//!
//! The build environment vendors no network crates, so `gsql-serve`
//! speaks just enough HTTP/1.1 for its API: request-line + headers +
//! `Content-Length` bodies, keep-alive by default, `Connection: close`
//! honored, and hard limits on header and body size so untrusted peers
//! cannot balloon memory. No chunked encoding, no TLS, no pipelining —
//! a request is read only after the previous response is written.
//!
//! Every message, request or response, leaves in one write call
//! ([`write_message`]): on a `TCP_NODELAY` socket a head and a body
//! written apart cross the wire as two segments and wake the peer twice.

use std::io::{self, BufRead, IoSlice, Write};

/// Cap on the request line + header section.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path with query string stripped (none of our endpoints use one).
    pub path: String,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are lowercased at parse).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` if the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// Clean end of stream before any request byte (normal keep-alive
    /// teardown) — not an error worth logging.
    Eof,
    /// The declared body exceeds the server's limit → 413.
    BodyTooLarge(u64),
    /// Malformed request line / headers → 400.
    Malformed(String),
    /// Socket-level failure (including read timeouts on idle
    /// connections).
    Io(io::Error),
}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

/// Reads one request. `max_body` bounds the accepted `Content-Length`;
/// an oversized body is *not* read — the caller responds 413 and closes.
pub fn read_request<R: BufRead>(r: &mut R, max_body: u64) -> Result<Request, RecvError> {
    let mut head_bytes = 0usize;
    let mut line = String::new();

    // Request line (tolerate a leading CRLF from sloppy clients).
    let request_line = loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 {
            return Err(RecvError::Eof);
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(RecvError::Malformed("request head too large".into()));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if !trimmed.is_empty() {
            break trimmed.to_string();
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => return Err(RecvError::Malformed(format!("bad request line `{request_line}`"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed(format!("unsupported version `{version}`")));
    }
    let path = target.split('?').next().unwrap_or("").to_string();

    // Headers.
    let mut headers = Vec::new();
    loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 {
            return Err(RecvError::Malformed("eof inside headers".into()));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(RecvError::Malformed("request head too large".into()));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(RecvError::Malformed(format!("bad header `{trimmed}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<u64>()
                .map_err(|_| RecvError::Malformed(format!("bad content-length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(RecvError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length as usize];
    r.read_exact(&mut body).map_err(|_| RecvError::Malformed("truncated body".into()))?;

    Ok(Request { method, path, headers, body })
}

/// An outgoing response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After` on shedding responses).
    pub extra: Vec<(&'static str, String)>,
    /// Force `Connection: close` after writing.
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            extra: Vec::new(),
            close: false,
        }
    }

    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra.push((name, value.into()));
        self
    }
}

pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `resp`; returns `Ok(keep_alive)`.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<bool> {
    let keep_alive = !resp.close;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive { "connection: keep-alive\r\n\r\n" } else { "connection: close\r\n\r\n" });
    write_message(w, head.as_bytes(), &resp.body)?;
    Ok(keep_alive)
}

/// Sends `head` and `body` as one message: a single vectored write when
/// the writer takes it whole (a socket does, up to its send buffer), and
/// a loop over the remainder when it takes less.
pub fn write_message<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RecvError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn strips_query_string_and_tolerates_leading_crlf() {
        let req = parse("\r\nGET /metrics?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let e = parse("POST /q HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert!(matches!(e, RecvError::BodyTooLarge(999999)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n"), Err(RecvError::Malformed(_))));
        assert!(matches!(parse(""), Err(RecvError::Eof)));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn caps_header_section() {
        let huge = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), Err(RecvError::Malformed(_))));
    }

    #[test]
    fn response_writes_and_reports_keep_alive() {
        let mut out = Vec::new();
        let keep = write_response(&mut out, &Response::json(200, "{}".as_bytes().to_vec())).unwrap();
        assert!(keep);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2"), "{text}");
        assert!(text.ends_with("{}"), "{text}");
    }

    fn written(resp: &Response, max_per_call: usize) -> (Vec<u8>, usize) {
        let mut w = CountingWriter::new(max_per_call);
        write_response(&mut w, resp).unwrap();
        (w.bytes, w.calls)
    }

    #[test]
    fn every_response_is_one_write_call() {
        let ok = Response::json(200, br#"{"ok":true,"result":[1,2,3]}"#.to_vec());
        let shed =
            Response::json(503, br#"{"ok":false}"#.to_vec()).with_header("retry-after", "1");
        let closing = Response::json(400, br#"{"ok":false}"#.to_vec()).closing();
        for resp in [&ok, &shed, &closing] {
            let (bytes, calls) = written(resp, usize::MAX);
            assert_eq!(calls, 1, "status {}: {}", resp.status, String::from_utf8_lossy(&bytes));
            assert!(bytes.ends_with(&resp.body));
        }
        let text = String::from_utf8(written(&shed, usize::MAX).0).unwrap();
        assert!(text.contains("\r\nretry-after: 1\r\n"), "{text}");
        let text = String::from_utf8(written(&closing, usize::MAX).0).unwrap();
        assert!(text.contains("\r\nconnection: close\r\n\r\n"), "{text}");
    }

    #[test]
    fn a_writer_that_takes_two_bytes_a_call_gets_the_same_bytes() {
        let resp = Response::json(503, br#"{"ok":false,"error":{}}"#.to_vec())
            .with_header("retry-after", "1")
            .closing();
        let (whole, _) = written(&resp, usize::MAX);
        let (piecewise, calls) = written(&resp, 2);
        assert_eq!(piecewise, whole);
        assert_eq!(calls, whole.len().div_ceil(2));
    }

    #[test]
    fn a_bodiless_message_is_its_head() {
        let mut w = CountingWriter::new(usize::MAX);
        write_message(&mut w, b"GET / HTTP/1.1\r\n\r\n", b"").unwrap();
        assert_eq!((w.bytes.as_slice(), w.calls), (&b"GET / HTTP/1.1\r\n\r\n"[..], 1));
    }

    /// A sink that counts the write calls it receives and takes at most
    /// `max_per_call` bytes in each, for the one-write-per-message tests.
    pub(crate) struct CountingWriter {
        pub bytes: Vec<u8>,
        pub calls: usize,
        max_per_call: usize,
    }

    impl CountingWriter {
        pub fn new(max_per_call: usize) -> Self {
            CountingWriter { bytes: Vec::new(), calls: 0, max_per_call }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut budget = self.max_per_call;
            for b in bufs {
                let take = b.len().min(budget);
                self.bytes.extend_from_slice(&b[..take]);
                budget -= take;
            }
            Ok(self.max_per_call - budget)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
