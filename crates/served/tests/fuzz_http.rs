//! Fuzzing the HTTP boundary: arbitrary garbage, oversized heads, and
//! lying `Content-Length` claims must never panic the parser, and the
//! running daemon must always answer them with a well-formed JSON error.
//!
//! The parser half feeds in-memory byte slices to `http::read_request`
//! (it is generic over `Read` exactly for this). The socket half boots a
//! real daemon on an ephemeral port and throws the same abuse at it over
//! TCP. The vendored proptest stub has no byte-vector strategy, so
//! payloads are synthesized from a `(seed, len)` pair through splitmix64.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use culpeo_api::ApiError;
use culpeo_served::http::{read_request, HttpError, MAX_HEAD_BYTES};
use culpeo_served::{Server, ServerConfig};

mod common;
use common::{read_response, roundtrip, test_config, unwrap_envelope};
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
        match read_request(&mut &bytes[..]) {
            Ok(req) => {
                // If garbage parsed, it must at least be self-consistent.
                prop_assert!(!req.method.is_empty());
                prop_assert!(!req.path.is_empty());
            }
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
        let _ = read_request(&mut &bytes[..]);
    }

    /// A Content-Length bigger than the actual body (the "lying client")
    /// must surface as a clean error, never a hang or panic: the slice
    /// ends, so the parser sees a mid-body close.
    #[test]
    fn lying_content_length_is_a_clean_error(claimed in 1usize..100_000, actual in 0usize..64) {
        prop_assume!(claimed > actual);
        let mut bytes =
            format!("POST /v1/vsafe HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n").into_bytes();
        bytes.extend_from_slice(&garbage_bytes(claimed as u64, actual));
        let err = read_request(&mut &bytes[..]).unwrap_err();
        prop_assert!(
            matches!(err, HttpError::Malformed(_)),
            "expected Malformed, got {err:?}"
        );
    }
}

#[test]
fn oversized_head_is_rejected_as_too_large() {
    let mut bytes = b"POST /v1/vsafe HTTP/1.1\r\n".to_vec();
    // A single endless header line, never reaching the blank terminator.
    bytes.extend_from_slice(b"X-Filler: ");
    bytes.resize(MAX_HEAD_BYTES + 4096, b'a');
    let err = read_request(&mut &bytes[..]).unwrap_err();
    assert_eq!(err, HttpError::TooLarge("request head"));
}

#[test]
fn oversized_content_length_claim_is_rejected_without_reading_it() {
    // 10 GiB claimed, zero sent: the cap must fire on the claim alone.
    let bytes: &[u8] = b"POST /v1/vsafe HTTP/1.1\r\nContent-Length: 10737418240\r\n\r\n";
    let err = read_request(&mut &bytes[..]).unwrap_err();
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
    let (status, body) = read_response(s);
    assert_eq!(status, expect_status, "body: {body:?}");
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
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("daemon must answer");
    assert!(raw.starts_with("HTTP/1.1 408 "), "raw: {raw:?}");
    assert!(raw.contains("Retry-After: 1\r\n"), "raw: {raw:?}");
    let body = raw.split_once("\r\n\r\n").unwrap().1;
    let e: ApiError = serde_json::from_str(unwrap_envelope(body)).unwrap();
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
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 "), "raw: {raw:?}");
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
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("daemon must answer");
    assert!(raw.starts_with("HTTP/1.1 408 "), "raw: {raw:?}");
    // And the stall is visible to operators.
    let (_, body) = roundtrip(addr, "GET", "/v1/metrics", "");
    let doc: culpeo_api::MetricsResponse = serde_json::from_str(&body).unwrap();
    assert!(doc.shed.read_timeouts >= 1, "shed: {:?}", doc.shed);
    server.shutdown_handle().request();
    let _ = server.join();
}
