//! A minimal blocking HTTP/1.1 client for the serve wire protocol.
//!
//! This exists for tests, benches and examples — it speaks exactly the
//! subset the server speaks (keep-alive, `Content-Length` bodies, JSON
//! payloads) and nothing more. Malformed-input tests deliberately bypass
//! it and write raw bytes to a [`std::net::TcpStream`].

use crate::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A client-side failure: transport errors and protocol violations both
/// surface as a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client error: {}", self.0)
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(error: std::io::Error) -> Self {
        ClientError(format!("i/o: {error}"))
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code from the status line.
    pub status: u16,
    /// Response headers, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body (always UTF-8 JSON from this server).
    pub body: String,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == wanted)
            .map(|(_, value)| value.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Value, ClientError> {
        json::parse(&self.body).map_err(|error| ClientError(format!("response body: {error}")))
    }
}

/// A keep-alive connection to a serve endpoint.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads the response. `body` is sent verbatim
    /// with a `Content-Length` header when non-empty.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        write_request(&mut self.writer, method, target, body.unwrap_or(""))?;
        self.read_response()
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", target, None)
    }

    /// `POST target` with a JSON body.
    pub fn post(&mut self, target: &str, body: &str) -> Result<ClientResponse, ClientError> {
        self.request("POST", target, Some(body))
    }

    /// `DELETE target`.
    pub fn delete(&mut self, target: &str) -> Result<ClientResponse, ClientError> {
        self.request("DELETE", target, None)
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(ClientError("connection closed mid-response".to_owned()));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> Result<ClientResponse, ClientError> {
        let status_line = self.read_line()?;
        let mut parts = status_line.split(' ');
        let version = parts.next().unwrap_or("");
        if version != "HTTP/1.1" {
            return Err(ClientError(format!(
                "unexpected version in {status_line:?}"
            )));
        }
        let status: u16 = parts
            .next()
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| ClientError(format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ClientError(format!("bad header line {line:?}")));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ClientError(format!("bad content-length {value:?}")))?;
            }
            headers.push((name, value));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| ClientError("response body is not UTF-8".to_owned()))?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Writes one request (head and `payload`) as a single `write_all` and a
/// flush, for the reason [`crate::http::Response::write_to`] does: a body
/// sent after its head waits out the server's delayed ACK.
fn write_request(
    writer: &mut impl Write,
    method: &str,
    target: &str,
    payload: &str,
) -> std::io::Result<()> {
    let mut message = format!("{method} {target} HTTP/1.1\r\nHost: lynceus\r\n");
    if !payload.is_empty() || method == "POST" {
        message.push_str(&format!("Content-Length: {}\r\n", payload.len()));
    }
    message.push_str("\r\n");
    message.push_str(payload);
    writer.write_all(message.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::{Recorded, Recorder};

    #[test]
    fn a_request_goes_out_in_one_write_then_a_flush() {
        let mut out = Recorder::default();
        write_request(&mut out, "POST", "/v1/sessions", "{\"v\":1}").expect("in-memory write");
        assert_eq!(
            out.calls,
            [
                Recorded::Write(
                    b"POST /v1/sessions HTTP/1.1\r\nHost: lynceus\r\n\
                      Content-Length: 7\r\n\r\n{\"v\":1}"
                        .to_vec()
                ),
                Recorded::Flush,
            ]
        );

        // A body-less GET sends no length; a body-less POST sends length 0.
        let mut out = Recorder::default();
        write_request(&mut out, "GET", "/v1/stats", "").expect("in-memory write");
        assert_eq!(
            out.calls,
            [
                Recorded::Write(b"GET /v1/stats HTTP/1.1\r\nHost: lynceus\r\n\r\n".to_vec()),
                Recorded::Flush,
            ]
        );
        let mut out = Recorder::default();
        write_request(&mut out, "POST", "/v1/flush", "").expect("in-memory write");
        assert_eq!(
            out.calls,
            [
                Recorded::Write(
                    b"POST /v1/flush HTTP/1.1\r\nHost: lynceus\r\nContent-Length: 0\r\n\r\n"
                        .to_vec()
                ),
                Recorded::Flush,
            ]
        );
    }
}
