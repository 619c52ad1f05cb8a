//! A minimal blocking HTTP/1.1 client for `gsql-serve`, used by the e2e
//! suite and the gsqlbench served workloads. Speaks just enough of
//! the protocol to talk to our own server (and keeps connections alive).

use crate::http;
use crate::json::{self, Json};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to the server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        json::parse(text)
    }
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Sends one request and reads the response. `Err` means the
    /// connection is no longer usable (shed, closed, or timed out).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        // A server may reject early (e.g. 413 on the declared length)
        // and close its read side while we are still writing the body;
        // the response is already in flight, so a write error must not
        // stop us from reading it.
        let wrote = write_request(&mut self.writer, method, path, headers, body);
        match self.read_response() {
            Ok(resp) => Ok(resp),
            Err(read_err) => Err(wrote.err().unwrap_or(read_err)),
        }
    }

    /// POSTs a JSON body.
    pub fn post_json(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<ClientResponse> {
        self.request("POST", path, headers, body.as_bytes())
    }

    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, &[], &[])
    }

    /// Half-closes the write side (the server sees EOF / disconnect).
    pub fn abandon(self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
                if k == "content-length" {
                    content_length = v.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
                headers.push((k, v));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse { status, headers, body })
    }
}

/// Writes one request, head and body, in one message.
fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: gsql-serve\r\n");
    for (k, v) in headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    http::write_message(w, head.as_bytes(), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWriter;

    #[test]
    fn a_request_is_one_write_call_and_parses_back() {
        let body = br#"{"query":"CREATE QUERY q() { PRINT 1; }"}"#;
        let mut w = CountingWriter::new(usize::MAX);
        write_request(&mut w, "POST", "/query", &[("x-gsql-profile", "1")], body).unwrap();
        assert_eq!(w.calls, 1);

        let mut piecewise = CountingWriter::new(2);
        write_request(&mut piecewise, "POST", "/query", &[("x-gsql-profile", "1")], body).unwrap();
        assert_eq!(piecewise.bytes, w.bytes);

        let req = http::read_request(&mut BufReader::new(w.bytes.as_slice()), 1024).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/query"));
        assert_eq!(req.header("x-gsql-profile"), Some("1"));
        assert_eq!(req.body, body);
    }
}
