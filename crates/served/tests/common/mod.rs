//! The HTTP test client the daemon's integration tests share: boot a
//! daemon on an ephemeral port, send one request per connection, and
//! read responses back with the daemon's own response parser
//! ([`http::try_parse_response`]). The schema-2 envelope is stripped by
//! [`culpeo_api::unwrap_envelope`].

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use culpeo_api::unwrap_envelope;
use culpeo_served::http::{self, Response};
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
    let resp = read_response(&mut send(addr, method, path, body));
    (resp.status, resp.text())
}

/// [`roundtrip_raw`] with the envelope stripped: returns the inner
/// `data` document.
pub fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, body) = roundtrip_raw(addr, method, path, body);
    (status, unwrap_envelope(&body).to_string())
}

/// Reads the connection to EOF, which must carry exactly one response.
pub fn read_response(s: &mut TcpStream) -> Response {
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let mut responses = parse_responses(&raw);
    assert_eq!(
        responses.len(),
        1,
        "raw: {:?}",
        String::from_utf8_lossy(&raw)
    );
    responses.pop().unwrap()
}

/// Splits a raw byte stream (read to EOF) into its pipelined responses;
/// the bytes must end exactly on a response boundary.
pub fn parse_responses(raw: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    let mut rest = raw;
    while !rest.is_empty() {
        let (resp, used) = http::try_parse_response(rest)
            .expect("well-formed response")
            .unwrap_or_else(|| panic!("truncated response: {:?}", String::from_utf8_lossy(rest)));
        out.push(resp);
        rest = &rest[used..];
    }
    out
}

/// Reads exactly one response off a connection that stays open,
/// carrying bytes past it over in `buf` for the next call.
pub fn read_one(s: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, used)) = http::try_parse_response(buf).expect("well-formed response") {
            buf.drain(..used);
            return resp;
        }
        let n = s.read(&mut chunk).expect("read");
        assert!(
            n > 0,
            "EOF mid-response: {:?}",
            String::from_utf8_lossy(buf)
        );
        buf.extend_from_slice(&chunk[..n]);
    }
}
