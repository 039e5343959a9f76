//! A minimal HTTP/1.1 client for the http-recurring workload. Each request
//! leaves in one write on a `TCP_NODELAY` socket, so the client adds no
//! stall of its own, and each response is stamped twice: when its head is
//! complete and when its body is complete.

use crate::trace::now_ns;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes on the wire: head and body.
    pub bytes: usize,
    pub sent: u64,
    pub head_at: u64,
    pub body_at: u64,
}

pub struct Connection {
    stream: TcpStream,
    /// Bytes read past the end of the previous response.
    pending: Vec<u8>,
}

impl Connection {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            pending: Vec::new(),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        let sent = now_ns();
        self.stream.write_all(&message)?;
        read_response(&mut self.stream, &mut self.pending, sent)
    }
}

/// Reads one response, stamping head and body completion. `pending` holds
/// bytes already read from the stream and receives any surplus.
pub fn read_response(
    reader: &mut impl Read,
    pending: &mut Vec<u8>,
    sent: u64,
) -> io::Result<Response> {
    let mut buf = std::mem::take(pending);
    let mut chunk = [0u8; 16 * 1024];
    let mut head: Option<(usize, u16, usize, u64)> = None;
    loop {
        if head.is_none() {
            if let Some(end) = find(&buf, b"\r\n\r\n") {
                let (status, length) = parse_head(&buf[..end])?;
                head = Some((end + 4, status, length, now_ns()));
            }
        }
        if let Some((head_len, status, length, head_at)) = head {
            if buf.len() >= head_len + length {
                let body_at = now_ns();
                *pending = buf.split_off(head_len + length);
                let body = buf.split_off(head_len);
                return Ok(Response {
                    status,
                    body,
                    bytes: head_len + length,
                    sent,
                    head_at,
                    body_at,
                });
            }
        }
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Status code and content length.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid("malformed header line"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?,
            );
        }
    }
    let length = length.ok_or_else(|| invalid("response without content-length"))?;
    Ok((status, length))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Hands out one scripted chunk per `read`.
    struct Chunks(VecDeque<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn chunks(parts: &[&[u8]]) -> Chunks {
        Chunks(parts.iter().map(|p| p.to_vec()).collect())
    }

    const HEAD: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n";

    #[test]
    fn head_and_body_in_separate_reads() {
        let mut reader = chunks(&[HEAD, b"{\"v\":1,\"a\"", b":2}"]);
        let mut pending = Vec::new();
        let r = read_response(&mut reader, &mut pending, 0).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{\"v\":1,\"a\":2}"[..11].to_vec());
        assert!(r.head_at <= r.body_at);
        assert_eq!(r.bytes, HEAD.len() + 11);
        assert_eq!(pending, b"2}".to_vec());
    }

    #[test]
    fn head_split_across_reads_and_body_with_the_head() {
        let (first, rest) = HEAD.split_at(20);
        let mut tail = rest.to_vec();
        tail.extend_from_slice(b"{\"ok\":true}");
        let mut reader = chunks(&[first, &tail]);
        let mut pending = Vec::new();
        let r = read_response(&mut reader, &mut pending, 0).unwrap();
        assert_eq!(r.body, b"{\"ok\":true}".to_vec());
        assert!(pending.is_empty());
    }

    #[test]
    fn surplus_bytes_start_the_next_response() {
        let mut both = HEAD.to_vec();
        both.extend_from_slice(b"{\"ok\":true}");
        both.extend_from_slice(
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        let mut reader = chunks(&[&both]);
        let mut pending = Vec::new();
        assert_eq!(
            read_response(&mut reader, &mut pending, 0).unwrap().status,
            200
        );
        let second = read_response(&mut reader, &mut pending, 0).unwrap();
        assert_eq!((second.status, second.body.len()), (404, 0));
    }

    #[test]
    fn truncated_or_malformed_responses_are_errors() {
        let mut pending = Vec::new();
        assert!(read_response(&mut chunks(&[&HEAD[..30]]), &mut pending, 0).is_err());
        pending.clear();
        assert!(read_response(&mut chunks(&[HEAD, b"{}"]), &mut pending, 0).is_err());
        pending.clear();
        let no_length = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n";
        assert!(read_response(&mut chunks(&[no_length]), &mut pending, 0).is_err());
    }
}
