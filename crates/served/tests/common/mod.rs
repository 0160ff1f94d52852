//! The HTTP test client the daemon's integration tests share: boot a
//! daemon on an ephemeral port, send one request per connection, split
//! pipelined responses, and strip the schema-2 response envelope.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use culpeo_served::{Server, ServerConfig};

/// A two-worker daemon config on an ephemeral port, so tests never fight
/// over a fixed one.
pub fn test_config() -> ServerConfig {
    ServerConfig {
        port: 0,
        threads: 2,
        ..ServerConfig::default()
    }
}

/// Starts a daemon on [`test_config`].
pub fn boot() -> Server {
    Server::start(&test_config()).expect("boot daemon")
}

/// Sends one request with `Connection: close` (the daemon honours it and
/// hangs up after answering) and returns the connection unread.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body.as_bytes()).unwrap();
    s
}

/// [`send`], then [`read_response`]: the status and the raw body, its
/// envelope intact.
pub fn roundtrip_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    read_response(&mut send(addr, method, path, body))
}

/// [`roundtrip_raw`] with the envelope stripped: returns the inner
/// `data` document.
pub fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, body) = roundtrip_raw(addr, method, path, body);
    (status, unwrap_envelope(&body).to_string())
}

/// Reads one response to EOF; returns the status and the raw body.
pub fn read_response(s: &mut TcpStream) -> (u16, String) {
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 "), "raw: {raw:?}");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw.split_once("\r\n\r\n").expect("header terminator").1;
    (status, body.to_string())
}

/// Splits a raw byte stream (read to EOF) into `(status, body)` pairs by
/// walking head terminators and `Content-Length`.
pub fn parse_responses(raw: &[u8]) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    let mut rest = raw;
    while !rest.is_empty() {
        let head_end = rest
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        let head = String::from_utf8_lossy(&rest[..head_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status")
            .parse()
            .expect("numeric status");
        let clen: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .expect("content-length header");
        let body = String::from_utf8_lossy(&rest[head_end..head_end + clen]).to_string();
        out.push((status, body));
        rest = &rest[head_end + clen..];
    }
    out
}

/// Strips the schema-2 response envelope, returning the inner `data`
/// document (the envelope serialises `data` last, so the payload runs to
/// the closing brace). Anything else passes through unchanged.
pub fn unwrap_envelope(body: &str) -> &str {
    let marker = "\"data\":";
    match body.find(marker) {
        Some(i) if body.starts_with("{\"schema_version\"") && body.ends_with('}') => {
            &body[i + marker.len()..body.len() - 1]
        }
        _ => body,
    }
}
