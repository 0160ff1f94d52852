//! Fuzzing the HTTP boundary: arbitrary garbage, oversized heads, and
//! lying `Content-Length` claims must never panic either parser, and the
//! running daemon must always answer them with a well-formed JSON error.
//!
//! The parser half feeds in-memory byte slices to the reactor's request
//! parser (`http::try_parse_request`) and to the client-side response
//! parser (`http::try_parse_response`). The socket half boots a real
//! daemon on an ephemeral port and throws the same abuse at it over
//! TCP. The vendored proptest stub has no byte-vector strategy, so
//! payloads are synthesized from a `(seed, len)` pair through splitmix64.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use culpeo_api::{unwrap_envelope, ApiError};
use culpeo_served::http::{
    reason_phrase, response_bytes, try_parse_request, try_parse_response, HttpError, MAX_HEAD_BYTES,
};
use culpeo_served::{Server, ServerConfig};

mod common;
use common::{read_response, roundtrip, send, test_config};
use proptest::prelude::*;

/// Deterministic pseudo-random bytes from a seed (the workspace-wide
/// splitmix64 stream).
use culpeo_units::seed::byte_stream as garbage_bytes;

proptest! {
    /// Raw garbage at the parser: any outcome is fine except a panic,
    /// and success is only possible for bytes that really formed a
    /// request. (The proptest harness turns a panic into a failure.)
    #[test]
    fn parser_survives_arbitrary_bytes(seed in 0u64..u64::MAX, len in 0usize..4096) {
        let bytes = garbage_bytes(seed, len);
        match try_parse_request(&bytes) {
            Ok(Some((req, used))) => {
                // If garbage parsed, it must at least be self-consistent.
                prop_assert!(!req.method.is_empty());
                prop_assert!(!req.path.is_empty());
                prop_assert!(used <= bytes.len());
            }
            Ok(None) => {}
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Prefixing a valid request line does not let garbage headers
    /// panic the parser either.
    #[test]
    fn parser_survives_garbage_headers(seed in 0u64..u64::MAX, len in 0usize..2048) {
        let mut bytes = b"POST /v1/vsafe HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(&garbage_bytes(seed, len));
        bytes.extend_from_slice(b"\r\n\r\n");
        let _ = try_parse_request(&bytes);
    }

    /// A Content-Length bigger than the body sent so far (the "lying
    /// client") is a clean "need more", never a request or a panic: the
    /// reactor keeps waiting and its read deadline answers 408 (the
    /// socket test below).
    #[test]
    fn lying_content_length_is_a_clean_error(claimed in 1usize..100_000, actual in 0usize..64) {
        prop_assume!(claimed > actual);
        let mut bytes =
            format!("POST /v1/vsafe HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n").into_bytes();
        bytes.extend_from_slice(&garbage_bytes(claimed as u64, actual));
        prop_assert_eq!(try_parse_request(&bytes), Ok(None));
    }

    /// Garbage at the response parser never panics, and a parsed
    /// response never claims more bytes than it was given.
    #[test]
    fn response_parser_survives_arbitrary_bytes(seed in 0u64..u64::MAX, len in 0usize..4096) {
        let mut bytes = b"HTTP/1.1 200 OK\r\n".to_vec();
        bytes.extend_from_slice(&garbage_bytes(seed, len));
        for input in [&garbage_bytes(seed, len)[..], &bytes[..]] {
            if let Ok(Some((_, used))) = try_parse_response(input) {
                prop_assert!(used <= input.len());
            }
        }
    }

    /// `try_parse_response` reads back what `response_bytes` writes: a
    /// pipelined run of responses splits into each one's status,
    /// headers and body at its own length, and every strict prefix of a
    /// response is "need more".
    #[test]
    fn response_bytes_round_trip_through_the_parser(
        specs in proptest::collection::vec((0usize..8, 0u64..u64::MAX, 0usize..300, 0u32..4), 1..6)
    ) {
        const STATUSES: [u16; 8] = [200, 400, 404, 405, 408, 413, 500, 503];
        let sent: Vec<(u16, Option<u32>, Vec<u8>, bool)> = specs
            .iter()
            .map(|&(s, seed, len, flags)| {
                let retry = (flags & 1 == 1).then_some(len as u32);
                (STATUSES[s], retry, garbage_bytes(seed, len), flags & 2 == 2)
            })
            .collect();
        let mut wire = Vec::new();
        let mut lens = Vec::new();
        for (status, retry, body, close) in &sent {
            let one = response_bytes(*status, "application/json", *retry, body, *close);
            lens.push(one.len());
            wire.extend(one);
        }
        let mut rest = &wire[..];
        for ((status, retry, body, close), len) in sent.iter().zip(&lens) {
            for cut in 0..*len {
                prop_assert_eq!(try_parse_response(&rest[..cut]), Ok(None));
            }
            let (resp, used) = try_parse_response(rest).unwrap().unwrap();
            prop_assert_eq!(used, *len);
            prop_assert_eq!(resp.status, *status);
            prop_assert_eq!(&resp.body, body);
            prop_assert_eq!(resp.header("content-type"), Some("application/json"));
            let retry_header = retry.map(|s| s.to_string());
            prop_assert_eq!(resp.header("retry-after"), retry_header.as_deref());
            let connection = if *close { "close" } else { "keep-alive" };
            prop_assert_eq!(resp.header("connection"), Some(connection));
            prop_assert!(reason_phrase(*status) != "Unknown");
            rest = &rest[used..];
        }
        prop_assert!(rest.is_empty());
    }
}

#[test]
fn oversized_head_is_rejected_as_too_large() {
    let mut bytes = b"POST /v1/vsafe HTTP/1.1\r\n".to_vec();
    // A single endless header line, never reaching the blank terminator.
    bytes.extend_from_slice(b"X-Filler: ");
    bytes.resize(MAX_HEAD_BYTES + 4096, b'a');
    let err = try_parse_request(&bytes).unwrap_err();
    assert_eq!(err, HttpError::TooLarge("request head"));
}

#[test]
fn oversized_content_length_claim_is_rejected_without_reading_it() {
    // 10 GiB claimed, zero sent: the cap must fire on the claim alone.
    let bytes: &[u8] = b"POST /v1/vsafe HTTP/1.1\r\nContent-Length: 10737418240\r\n\r\n";
    let err = try_parse_request(bytes).unwrap_err();
    assert_eq!(err, HttpError::TooLarge("request body"));
}

// ---------------------------------------------------------------------
// The same abuse over a real TCP socket against a running daemon.
// ---------------------------------------------------------------------

fn chaos_config() -> ServerConfig {
    ServerConfig {
        // Short but not racy: the slow tests stall ~4× longer than this.
        read_timeout_ms: 250,
        write_timeout_ms: 250,
        deadline_ms: 2_000,
        ..test_config()
    }
}

/// Reads whatever the daemon answers and asserts it is a well-formed
/// HTTP/1.1 error response carrying a parseable `ApiError` JSON body
/// (inside the schema-2 envelope).
fn assert_well_formed_error(s: &mut TcpStream, expect_status: u16) -> ApiError {
    let resp = read_response(s);
    let body = resp.text();
    assert_eq!(resp.status, expect_status, "body: {body:?}");
    serde_json::from_str::<ApiError>(unwrap_envelope(&body)).expect("body must be ApiError JSON")
}

#[test]
fn daemon_answers_garbage_bytes_with_400_json() {
    let server = Server::start(&chaos_config()).unwrap();
    let addr = server.addr();
    for seed in 0..8u64 {
        let mut s = TcpStream::connect(addr).unwrap();
        // Garbage with a head terminator so the parser gets a full head
        // instead of waiting out the read timeout.
        let mut bytes = garbage_bytes(seed, 512);
        bytes.extend_from_slice(b"\r\n\r\n");
        s.write_all(&bytes).unwrap();
        let e = assert_well_formed_error(&mut s, 400);
        assert_eq!(e.kind, culpeo_api::ApiErrorKind::BadRequest);
    }
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn daemon_answers_lying_content_length_with_408_and_retry_after() {
    let server = Server::start(&chaos_config()).unwrap();
    let addr = server.addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // Claim 1000 bytes, send 10, then stall: the read timeout must fire
    // and the daemon must blame the client with a 408.
    s.write_all(b"POST /v1/vsafe HTTP/1.1\r\nContent-Length: 1000\r\n\r\n0123456789")
        .unwrap();
    let resp = read_response(&mut s);
    assert_eq!(resp.status, 408, "{resp:?}");
    assert_eq!(resp.header("retry-after"), Some("1"), "{resp:?}");
    let e: ApiError = serde_json::from_str(unwrap_envelope(&resp.text())).unwrap();
    assert_eq!(e.kind, culpeo_api::ApiErrorKind::Timeout);
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn daemon_answers_oversized_body_claim_with_413_json() {
    let server = Server::start(&chaos_config()).unwrap();
    let addr = server.addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /v1/vsafe HTTP/1.1\r\nContent-Length: 10737418240\r\n\r\n")
        .unwrap();
    let e = assert_well_formed_error(&mut s, 413);
    assert_eq!(e.kind, culpeo_api::ApiErrorKind::TooLarge);
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn daemon_survives_mid_request_disconnects() {
    let server = Server::start(&chaos_config()).unwrap();
    let addr = server.addr();
    // Hang up at every interesting point; the daemon must neither panic
    // nor stop answering the next client.
    for partial in [
        &b"POST"[..],
        &b"POST /v1/vsafe HTTP/1.1\r\n"[..],
        &b"POST /v1/vsafe HTTP/1.1\r\nContent-Length: 50\r\n\r\n"[..],
        &b"POST /v1/vsafe HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"trace"[..],
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(partial).unwrap();
        drop(s); // disconnect without reading the answer
    }
    // The daemon is still alive and sane.
    let resp = read_response(&mut send(addr, "GET", "/v1/health", ""));
    assert_eq!(resp.status, 200, "{resp:?}");
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn slow_loris_writer_is_cut_off_with_408() {
    let server = Server::start(&chaos_config()).unwrap();
    let addr = server.addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // Trickle a byte, then stall well past the 250 ms read timeout.
    s.write_all(b"P").unwrap();
    std::thread::sleep(Duration::from_millis(1_000));
    let resp = read_response(&mut s);
    assert_eq!(resp.status, 408, "{resp:?}");
    // And the stall is visible to operators.
    let (_, body) = roundtrip(addr, "GET", "/v1/metrics", "");
    let doc: culpeo_api::MetricsResponse = serde_json::from_str(&body).unwrap();
    assert!(doc.shed.read_timeouts >= 1, "shed: {:?}", doc.shed);
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn multi_mebibyte_string_body_is_answered_promptly() {
    // ~3.5 MiB of JSON, nearly all of it one string field, just under the
    // daemon's 4 MiB buffer cap: decoding must be linear in the body, or
    // one such request wedges a worker for minutes.
    let server = common::boot();
    let addr = server.addr();
    let body = format!("{{\"trace_csv\":\"{}\"}}", "x".repeat(7 << 19));
    let mut s = send(addr, "POST", "/v1/vsafe", &body);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let resp = read_response(&mut s);
    let (status, body) = (resp.status, resp.text());
    if status != 200 {
        assert!((400..500).contains(&status), "status {status}: {body:?}");
        serde_json::from_str::<ApiError>(unwrap_envelope(&body))
            .expect("a 4xx body must be ApiError JSON");
    }
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_keeps_serving() {
    // 40 KB of `[` … `]`: a parser without a depth cap recurses once per
    // bracket and overflows the worker's stack, killing the process.
    let server = common::boot();
    let addr = server.addr();
    let body = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let mut s = send(addr, "POST", "/v1/vsafe", &body);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let e = assert_well_formed_error(&mut s, 400);
    assert_eq!(e.kind, culpeo_api::ApiErrorKind::BadRequest);
    assert!(e.message.contains("nesting"), "{e:?}");
    let (status, _) = roundtrip(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    server.shutdown_handle().request();
    let _ = server.join();
}
