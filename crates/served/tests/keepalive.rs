//! Keep-alive and pipelining end-to-end: one real TCP connection, many
//! requests, against a live daemon on an ephemeral port.
//!
//! The load-bearing property is *order with identity*: a pipelined
//! connection may have several requests in flight across the compute
//! pool at once, finishing in any order, yet the response payloads must
//! come back in request order and byte-identical to what the same
//! requests produce one connection at a time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use culpeo_served::{Server, ServerConfig};

mod common;
use common::{parse_responses, read_one, send, test_config};
use culpeo_api::unwrap_envelope;

/// A `/v1/vsafe` request over a tiny constant-then-pulse trace,
/// parameterised so different requests have observably different
/// `V_safe` answers.
fn vsafe_request(pulse_a: f64) -> String {
    format!(
        "{{\"schema_version\": 2, \"trace_csv\": \"# dt_us: 8\\n0.0,0.010\\n0.000008,{pulse_a}\\n0.000016,0.010\\n\"}}"
    )
}

fn http_head(method: &str, path: &str, body_len: usize, close: bool) -> String {
    let conn = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: keepalive\r\n{conn}Content-Length: {body_len}\r\n\r\n"
    )
}

/// One request per fresh connection, `Connection: close`.
fn serial_roundtrip(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let resp = common::read_response(&mut send(addr, "POST", path, body));
    (resp.status, resp.text())
}

#[test]
fn one_connection_answers_many_sequential_requests() {
    let server = Server::start(&test_config()).unwrap();
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    let body = vsafe_request(0.025);
    let mut answers = Vec::new();
    let mut buf = Vec::new();
    for round in 0..3 {
        s.write_all(http_head("POST", "/v1/vsafe", body.len(), false).as_bytes())
            .unwrap();
        s.write_all(body.as_bytes()).unwrap();
        // Read exactly one response off the still-open connection.
        let resp = read_one(&mut s, &mut buf);
        assert_eq!(
            resp.header("connection"),
            Some("keep-alive"),
            "round {round} must keep the connection alive: {resp:?}"
        );
        answers.push(unwrap_envelope(&resp.text()).to_string());
    }
    assert!(buf.is_empty(), "one response per request");
    assert_eq!(answers.len(), 3);
    assert_eq!(answers[0], answers[1], "same request, same payload");
    assert_eq!(answers[1], answers[2]);
    assert!(answers[0].contains("v_safe_v"));

    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn pipelined_responses_arrive_in_order_and_match_serial_byte_for_byte() {
    let server = Server::start(&test_config()).unwrap();
    let addr = server.addr();

    // Four requests with distinguishable answers, written back-to-back
    // before reading anything; the last one asks to close so the whole
    // conversation ends in EOF.
    let pulses = [0.025, 0.045, 0.015, 0.035];
    let bodies: Vec<String> = pulses.iter().map(|&p| vsafe_request(p)).collect();

    let mut s = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let close = i + 1 == bodies.len();
        wire.extend_from_slice(http_head("POST", "/v1/vsafe", body.len(), close).as_bytes());
        wire.extend_from_slice(body.as_bytes());
    }
    s.write_all(&wire).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let pipelined: Vec<(u16, String)> = parse_responses(&raw)
        .into_iter()
        .map(|r| (r.status, r.text()))
        .collect();
    assert_eq!(pipelined.len(), bodies.len(), "one response per request");

    for (i, body) in bodies.iter().enumerate() {
        let (serial_status, serial_body) = serial_roundtrip(addr, "/v1/vsafe", body);
        let (pipe_status, pipe_body) = &pipelined[i];
        assert_eq!(*pipe_status, serial_status, "request {i}");
        assert_eq!(
            unwrap_envelope(pipe_body),
            unwrap_envelope(&serial_body),
            "pipelined payload {i} must be byte-identical to the serial answer"
        );
    }
    // The answers genuinely differ across requests, so order mattered.
    assert_ne!(
        unwrap_envelope(&pipelined[0].1),
        unwrap_envelope(&pipelined[1].1)
    );

    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn mid_pipeline_disconnect_leaves_the_daemon_serving() {
    let server = Server::start(&test_config()).unwrap();
    let addr = server.addr();

    // Three requests in flight; read only the first response's head,
    // then vanish. The orphaned completions must be dropped, not wedge
    // the reactor or a worker.
    let body = vsafe_request(0.025);
    let mut s = TcpStream::connect(addr).unwrap();
    for _ in 0..3 {
        s.write_all(http_head("POST", "/v1/vsafe", body.len(), false).as_bytes())
            .unwrap();
        s.write_all(body.as_bytes()).unwrap();
    }
    let mut first = [0u8; 16];
    s.read_exact(&mut first).unwrap();
    assert!(first.starts_with(b"HTTP/1.1 200"), "first: {first:?}");
    drop(s);

    // The daemon is unbothered: a fresh client gets a full answer...
    let (status, answer) = serial_roundtrip(addr, "/v1/vsafe", &body);
    assert_eq!(status, 200);
    assert!(answer.contains("v_safe_v"));

    // ...and the drain still terminates (no leaked in-flight state).
    server.shutdown_handle().request();
    let _ = server.join();
}

#[test]
fn slow_loris_mid_keepalive_is_cut_off_with_408() {
    let config = ServerConfig {
        read_timeout_ms: 200,
        write_timeout_ms: 1_000,
        ..test_config()
    };
    let server = Server::start(&config).unwrap();
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    // A full healthy request first: keep-alive survives it.
    let body = vsafe_request(0.025);
    s.write_all(http_head("POST", "/v1/vsafe", body.len(), false).as_bytes())
        .unwrap();
    s.write_all(body.as_bytes()).unwrap();
    // Then trickle the start of a second request and stall past the
    // read deadline: the daemon must answer the first, 408 the second,
    // and hang up.
    s.write_all(b"POST /v1/vsa").unwrap();
    std::thread::sleep(Duration::from_millis(700));
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let responses = parse_responses(&raw);
    assert_eq!(responses.len(), 2, "raw: {}", String::from_utf8_lossy(&raw));
    assert_eq!(responses[0].status, 200);
    assert_eq!(responses[1].status, 408);

    server.shutdown_handle().request();
    let _ = server.join();
}
