//! Hostile request lines: each gets one typed error response, and the
//! daemon answers the next request on the same channel — over stdin (the
//! main thread) and over TCP (a connection thread with the default 2 MiB
//! stack). Each line is a shape that defeats an unbounded parser: nesting
//! that overflows the JSON, LTL, regex or HOA parser's recursion, a
//! formula thousands of operators deep that overflows every later pass
//! over it, a `<->` chain whose expansion doubles at each link, a HOA
//! header whose state count would size the transition table, or a byte
//! that is not UTF-8.

use hierarchy_serve::code;
use hierarchy_serve::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

fn ingest(params: Json) -> String {
    Json::obj([
        ("id", Json::Int(1)),
        ("method", Json::str("ingest")),
        ("params", params),
    ])
    .to_string()
}

fn formula(source: String) -> String {
    ingest(Json::obj([
        ("kind", Json::str("formula")),
        ("props", Json::Arr(vec![Json::str("p")])),
        ("source", Json::Str(source)),
    ]))
}

/// The hostile lines and the error code each must get.
fn hostile_lines() -> Vec<(&'static str, Vec<u8>, i64)> {
    let nested = |open: &str, inner: &str, close: &str, n: usize| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    let chain = |operand: &str, op: &str, n: usize| vec![operand; n].join(op);
    let hoa = format!(
        "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nAcceptance: 1 {}\n\
         --BODY--\nState: 0 {{0}}\n[t] 0\n--END--\n",
        nested("(", "Inf(0)", ")", 100_000)
    );
    let lines = vec![
        ("20,000 nested JSON arrays", "[".repeat(20_000), code::PARSE),
        (
            "a formula in 2,000 nested parentheses",
            formula(nested("(", "p", ")", 2_000)),
            code::BAD_ARTIFACT,
        ),
        (
            "10,000 conjuncts G F p",
            formula(chain("G F p", " & ", 10_000)),
            code::BAD_ARTIFACT,
        ),
        (
            "a chain of 20 <->",
            formula(chain("p", " <-> ", 20)),
            code::BAD_ARTIFACT,
        ),
        (
            "a regex in 5,000 nested parentheses",
            ingest(Json::obj([
                ("kind", Json::str("regex")),
                ("letters", Json::Arr(vec![Json::str("a"), Json::str("b")])),
                ("pattern", Json::Str(nested("(", "a", ")", 5_000))),
            ])),
            code::BAD_ARTIFACT,
        ),
        (
            "a HOA acceptance formula 100,000 deep",
            ingest(Json::obj([
                ("kind", Json::str("automaton")),
                ("hoa", Json::Str(hoa)),
            ])),
            code::BAD_ARTIFACT,
        ),
        (
            "a HOA state count of 2^64 - 1",
            ingest(Json::obj([
                ("kind", Json::str("automaton")),
                (
                    "hoa",
                    Json::Str(format!(
                        "HOA: v1\nStates: {}\nStart: 0\nAP: 1 \"p\"\n\
                         Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {{0}}\n[t] 0\n--END--\n",
                        u64::MAX
                    )),
                ),
            ])),
            code::BAD_ARTIFACT,
        ),
    ];
    let mut lines: Vec<(&str, Vec<u8>, i64)> = lines
        .into_iter()
        .map(|(what, line, want)| (what, line.into_bytes(), want))
        .collect();
    lines.push((
        "a string holding the byte 0xff",
        b"{\"id\":1,\"method\":\"stats\",\"params\":{\"x\":\"\xff\"}}".to_vec(),
        code::PARSE,
    ));
    lines
}

/// Sends each hostile line, then a `stats` request, over one channel;
/// every hostile line must get its error code and every `stats` an
/// answer.
fn check_channel(channel: &str, send: &mut dyn FnMut(&[u8]) -> Option<Json>) {
    for (what, line, want) in hostile_lines() {
        let resp = send(&line).unwrap_or_else(|| panic!("{channel}: daemon died on {what}"));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_int),
            Some(want),
            "{channel}: {what} got {resp}"
        );
        let stats = send(b"{\"id\":2,\"method\":\"stats\"}")
            .unwrap_or_else(|| panic!("{channel}: no answer after {what}"));
        assert!(stats.get("result").is_some(), "{channel}: {stats}");
    }
}

/// Writes `line` in one write and reads one response line, or `None` when
/// the channel closed.
fn exchange(writer: &mut dyn Write, reader: &mut dyn BufRead, line: &[u8]) -> Option<Json> {
    writer.write_all(&[line, b"\n"].concat()).ok()?;
    writer.flush().ok()?;
    let mut response = String::new();
    reader.read_line(&mut response).ok()?;
    if response.is_empty() {
        return None;
    }
    Some(Json::parse(response.trim_end()).expect("well-formed response"))
}

#[test]
fn hostile_lines_get_one_error_over_stdin_and_tcp() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spec-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spec-serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut announce = String::new();
    stdout.read_line(&mut announce).unwrap();
    let addr = Json::parse(announce.trim_end())
        .ok()
        .and_then(|a| a.get("addr").and_then(Json::as_str).map(str::to_string))
        .expect("listening event");

    check_channel("stdin", &mut |line| exchange(&mut stdin, &mut stdout, line));

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    check_channel("tcp", &mut |line| exchange(&mut stream, &mut reader, line));

    drop(stdin);
    assert!(child.wait().unwrap().success());
}
