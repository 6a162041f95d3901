//! Concurrency soak: N client threads hammer one daemon over TCP with a
//! seeded mixed workload while the main thread drives stdio. Every
//! response must pair with its request (ids echo exactly — no lost,
//! duplicated or cross-wired responses), every verdict must match a
//! direct library call on the same artifact, and the store's cache-hit
//! counters must be monotone under contention. The daemon runs with
//! `--jobs 2`, so the batch endpoints and `audit` fan out over the worker
//! pool while the clients race.

use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::random::rng::{Rng, SeedableRng, StdRng};
use hierarchy_core::lint::{audit_suite, AuditOptions};
use hierarchy_core::prelude::*;
use hierarchy_core::{HierarchyClass, Property};
use hierarchy_serve::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const ITERATIONS: usize = 60;

/// The seeded artifact mix: all over one proposition alphabet so every
/// pair is a legal `include` operand and the whole mix is a legal
/// `audit` suite.
const WORKLOAD: &[&str] = &[
    "G p",
    "F p",
    "G F p",
    "F G p",
    "G (p -> F q)",
    "G p | F q",
    "G F p & F G q",
];
const PROPS: &[&str] = &["p", "q"];

struct Expected {
    hash: String,
    class: String,
    lint_count: usize,
    automaton: OmegaAutomaton,
}

fn expectations() -> Vec<Expected> {
    let sigma = Alphabet::of_propositions(PROPS.iter().copied()).unwrap();
    WORKLOAD
        .iter()
        .map(|source| {
            let aut = Property::parse(&sigma, source).unwrap().automaton().clone();
            let ctx = Analysis::new(aut.clone());
            let class =
                HierarchyClass::from_classification(&ctx.classification().clone()).to_string();
            let lint_count = hierarchy_core::lint::lint_automaton_ctx(&ctx).len();
            Expected {
                hash: aut.content_hash().to_string(),
                class,
                lint_count,
                automaton: aut,
            }
        })
        .collect()
}

/// Sends one request line in a single write (so the client's own Nagle
/// never holds back a trailing newline) and reads its response.
fn request_over(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    assert!(response.ends_with('\n'), "connection died on {line:?}");
    Json::parse(response.trim_end()).expect("well-formed response")
}

/// A daemon listening on an ephemeral port: the child, its stdio, and
/// the bound address its first stdout line announces.
fn spawn_listening() -> (Child, ChildStdin, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spec-serve"))
        .args(["--listen", "127.0.0.1:0", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spec-serve");
    let stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut announce = String::new();
    stdout.read_line(&mut announce).unwrap();
    let announce = Json::parse(announce.trim_end()).expect("announce event");
    assert_eq!(
        announce.get("event").and_then(Json::as_str),
        Some("listening")
    );
    let addr = announce
        .get("addr")
        .and_then(Json::as_str)
        .expect("bound address")
        .to_string();
    (child, stdin, stdout, addr)
}

#[test]
fn soak_tcp_clients_agree_with_library_and_counters_stay_monotone() {
    let (mut child, mut stdin, mut stdout, addr) = spawn_listening();

    // Seed the store over stdio and pin down the expected verdicts.
    let expected = expectations();
    for (i, source) in WORKLOAD.iter().enumerate() {
        let req = Json::obj([
            ("id", Json::Int(i as i64)),
            ("method", Json::str("ingest")),
            (
                "params",
                Json::obj([
                    ("kind", Json::str("formula")),
                    (
                        "props",
                        Json::Arr(PROPS.iter().map(|p| Json::str(*p)).collect()),
                    ),
                    ("source", Json::str(*source)),
                ]),
            ),
        ])
        .to_string();
        writeln!(stdin, "{req}").unwrap();
        stdin.flush().unwrap();
        let mut resp = String::new();
        stdout.read_line(&mut resp).unwrap();
        let resp = Json::parse(resp.trim_end()).unwrap();
        let hash = resp
            .get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str)
            .expect("seed ingest succeeds");
        assert_eq!(hash, expected[i].hash, "seed hash identity for {source}");
    }

    // Precompute the full inclusion matrix directly from the library.
    let inclusion_matrix: Vec<Vec<bool>> = expected
        .iter()
        .map(|a| {
            let ctx = Analysis::new(a.automaton.clone());
            expected
                .iter()
                .map(|b| ctx.is_subset_of(&b.automaton))
                .collect()
        })
        .collect();

    // And the whole-workload suite audit: every concurrent `audit` call
    // on the warm store must reproduce these verdicts (stats and warm
    // flags vary with contention, the report does not).
    let suite: Vec<(String, OmegaAutomaton)> = expected
        .iter()
        .map(|e| (e.hash.clone(), e.automaton.clone()))
        .collect();
    let audit_expected = audit_suite(&suite, &AuditOptions::default()).expect("one alphabet");
    let audit_artifacts = expected
        .iter()
        .map(|e| format!("\"{}\"", e.hash))
        .collect::<Vec<_>>()
        .join(",");

    // Fan out the clients.
    let per_client_resolves: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let expected = &expected;
                let inclusion_matrix = &inclusion_matrix;
                let audit_expected = &audit_expected;
                let audit_artifacts = &audit_artifacts;
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(&addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut rng = StdRng::seed_from_u64(0xBEEF + client as u64);
                    let mut resolves = 0u64;
                    let mut last_hits = 0i64;
                    for i in 0..ITERATIONS {
                        // Unique id per request: any cross-wired or
                        // duplicated response trips the echo check.
                        let id = (client * 1_000_000 + i) as i64;
                        let op = rng.gen_range(0..9usize);
                        let pick = rng.gen_range(0..expected.len());
                        let resp = match op {
                            0..=3 => {
                                let hash = &expected[pick].hash;
                                let resp = request_over(
                                    &mut stream,
                                    &mut reader,
                                    &format!(
                                        "{{\"id\":{id},\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}"
                                    ),
                                );
                                resolves += 1;
                                assert_eq!(
                                    resp.get("result")
                                        .and_then(|r| r.get("class"))
                                        .and_then(Json::as_str),
                                    Some(expected[pick].class.as_str()),
                                    "verdict identity on {hash}"
                                );
                                resp
                            }
                            4 | 5 => {
                                let other = rng.gen_range(0..expected.len());
                                let (lhs, rhs) = (&expected[pick].hash, &expected[other].hash);
                                let resp = request_over(
                                    &mut stream,
                                    &mut reader,
                                    &format!(
                                        "{{\"id\":{id},\"method\":\"include\",\"params\":{{\"lhs\":\"{lhs}\",\"rhs\":\"{rhs}\"}}}}"
                                    ),
                                );
                                resolves += 2;
                                assert_eq!(
                                    resp.get("result")
                                        .and_then(|r| r.get("included"))
                                        .and_then(Json::as_bool),
                                    Some(inclusion_matrix[pick][other]),
                                    "inclusion identity {pick} vs {other}"
                                );
                                resp
                            }
                            6 => {
                                let hash = &expected[pick].hash;
                                let resp = request_over(
                                    &mut stream,
                                    &mut reader,
                                    &format!(
                                        "{{\"id\":{id},\"method\":\"lint\",\"params\":{{\"artifact\":\"{hash}\"}}}}"
                                    ),
                                );
                                resolves += 1;
                                assert_eq!(
                                    resp.get("result")
                                        .and_then(|r| r.get("count"))
                                        .and_then(Json::as_int),
                                    Some(expected[pick].lint_count as i64),
                                    "lint identity on {hash}"
                                );
                                resp
                            }
                            7 => {
                                // The whole-workload audit, repeated on
                                // the ever-warmer store: the report must
                                // stay byte-for-byte deterministic in
                                // its verdicts against the direct
                                // library audit, under full contention.
                                let resp = request_over(
                                    &mut stream,
                                    &mut reader,
                                    &format!(
                                        "{{\"id\":{id},\"method\":\"audit\",\"params\":{{\"artifacts\":[{audit_artifacts}]}}}}"
                                    ),
                                );
                                resolves += expected.len() as u64;
                                let result = resp.get("result").expect("audit succeeds");
                                assert_eq!(
                                    result.get("clean").and_then(Json::as_bool),
                                    Some(audit_expected.is_clean()),
                                    "audit cleanliness identity"
                                );
                                let members = result
                                    .get("members")
                                    .and_then(Json::as_arr)
                                    .expect("audit members")
                                    .to_vec();
                                assert_eq!(members.len(), expected.len());
                                for (k, m) in members.iter().enumerate() {
                                    assert_eq!(
                                        m.get("class").and_then(Json::as_str),
                                        Some(audit_expected.classes[k]),
                                        "audit class identity for member {k}"
                                    );
                                    assert_eq!(
                                        m.get("representative").and_then(Json::as_int),
                                        Some(audit_expected.representative[k] as i64),
                                        "audit representative identity for member {k}"
                                    );
                                }
                                let suite_diags = result
                                    .get("suite_diagnostics")
                                    .and_then(Json::as_arr)
                                    .expect("audit suite diagnostics")
                                    .len();
                                assert_eq!(
                                    suite_diags,
                                    audit_expected.suite_diagnostics.len(),
                                    "audit suite-diagnostic identity"
                                );
                                resp
                            }
                            _ => {
                                let resp = request_over(
                                    &mut stream,
                                    &mut reader,
                                    &format!("{{\"id\":{id},\"method\":\"stats\"}}"),
                                );
                                let hits = resp
                                    .get("result")
                                    .and_then(|r| r.get("hits"))
                                    .and_then(Json::as_int)
                                    .expect("stats has hits");
                                assert!(
                                    hits >= last_hits,
                                    "cache-hit counter went backwards: {last_hits} -> {hits}"
                                );
                                last_hits = hits;
                                resp
                            }
                        };
                        // The synchronous per-connection protocol plus
                        // exact id echo rules out lost or reordered
                        // responses.
                        assert_eq!(
                            resp.get("id").and_then(Json::as_int),
                            Some(id),
                            "response id must echo the request id"
                        );
                    }
                    resolves
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Global accounting: every resolve made it into the shared counters
    // (hits + misses covers them all; this workload never misses).
    let total_resolves: u64 = per_client_resolves.iter().sum();
    writeln!(stdin, "{{\"id\":999,\"method\":\"stats\"}}").unwrap();
    stdin.flush().unwrap();
    let mut resp = String::new();
    stdout.read_line(&mut resp).unwrap();
    let resp = Json::parse(resp.trim_end()).unwrap();
    let result = resp.get("result").unwrap();
    assert_eq!(
        result.get("hits").and_then(Json::as_int),
        Some(total_resolves as i64),
        "no resolve lost under {CLIENTS}-way contention"
    );
    assert_eq!(result.get("misses").and_then(Json::as_int), Some(0));
    assert_eq!(
        result.get("entries").and_then(Json::as_int),
        Some(WORKLOAD.len() as i64)
    );

    // Closing stdin shuts the daemon down cleanly even with the TCP
    // accept thread still parked.
    drop(stdin);
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "clean shutdown on stdin EOF");
}

/// `G F p` over {p} as a 17-state generalized-Büchi automaton with 17
/// `Inf` sets: a recurrence property with seventeen acceptance atoms.
fn seventeen_inf_sets() -> OmegaAutomaton {
    let sigma = Alphabet::of_propositions(["p"]).unwrap();
    let acc = (0..17)
        .map(|i| Acceptance::inf([i]))
        .fold(Acceptance::True, Acceptance::and);
    let p = |s: Symbol| sigma.proposition_holds(s, 0);
    OmegaAutomaton::build(
        &sigma,
        17,
        0,
        |q, s| if p(s) { (q + 1) % 17 } else { q },
        acc,
    )
}

/// Over TCP, classify, classify_batch and audit answer the
/// seventeen-atom automaton (a recurrence property), and the same
/// connection goes on answering lint, include and stats.
#[test]
fn seventeen_atoms_classify_over_tcp() {
    let (mut child, stdin, _stdout, addr) = spawn_listening();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: String| request_over(&mut stream, &mut reader, &line);
    let artifact = |resp: &Json| {
        resp.get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str)
            .expect("ingest succeeds")
            .to_string()
    };

    let aut = seventeen_inf_sets();
    let hoa = Json::str(hierarchy_core::automata::hoa::omega_to_hoa(&aut));
    let hash = artifact(&send(format!(
        "{{\"id\":1,\"method\":\"ingest\",\"params\":{{\"kind\":\"automaton\",\"hoa\":{hoa}}}}}"
    )));
    let fp = artifact(&send(
        "{\"id\":2,\"method\":\"ingest\",\"params\":{\"kind\":\"formula\",\"props\":[\"p\"],\"source\":\"F p\"}}".to_string(),
    ));
    let class = |resp: &Json| resp.get("class").and_then(Json::as_str).map(str::to_string);
    for (id, method, params) in [
        (3, "classify", format!("{{\"artifact\":\"{hash}\"}}")),
        (
            4,
            "classify_batch",
            format!("{{\"artifacts\":[\"{hash}\"]}}"),
        ),
        (5, "audit", format!("{{\"artifacts\":[\"{hash}\"]}}")),
    ] {
        let resp = send(format!(
            "{{\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}"
        ));
        assert_eq!(resp.get("id").and_then(Json::as_int), Some(id));
        let result = resp.get("result").expect("an answer, not an error");
        let verdict = match method {
            "classify" => result,
            "classify_batch" => &result.get("results").and_then(Json::as_arr).unwrap()[0],
            _ => &result.get("members").and_then(Json::as_arr).unwrap()[0],
        };
        assert_eq!(class(verdict).as_deref(), Some("recurrence"), "{method}");
    }

    let lint = send(format!(
        "{{\"id\":6,\"method\":\"lint\",\"params\":{{\"artifact\":\"{hash}\"}}}}"
    ));
    let want = hierarchy_core::lint::lint_automaton_ctx(&Analysis::new(aut)).len();
    assert_eq!(
        lint.get("result")
            .and_then(|r| r.get("count"))
            .and_then(Json::as_int),
        Some(want as i64)
    );
    let include = send(format!(
        "{{\"id\":7,\"method\":\"include\",\"params\":{{\"lhs\":\"{hash}\",\"rhs\":\"{fp}\"}}}}"
    ));
    let verdict = |key: &str| {
        include
            .get("result")
            .and_then(|r| r.get(key))
            .and_then(Json::as_bool)
    };
    assert_eq!(verdict("included"), Some(true), "G F p ⊆ F p");
    assert_eq!(verdict("equivalent"), Some(false));
    let stats = send("{\"id\":8,\"method\":\"stats\"}".to_string());
    assert!(
        stats.get("result").is_some(),
        "the connection is still open"
    );

    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

/// A plain client (no quick ACK) waits for no delayed ACK: each response
/// leaves in one write on a `TCP_NODELAY` socket, so ten sequential
/// requests take milliseconds. A newline written on its own would sit
/// behind Nagle until the client's delayed ACK, about 40 ms a request.
#[test]
fn sequential_tcp_requests_do_not_wait_for_delayed_acks() {
    let (mut child, stdin, _stdout, addr) = spawn_listening();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let start = Instant::now();
    for id in 0..10 {
        let resp = request_over(
            &mut stream,
            &mut reader,
            &format!("{{\"id\":{id},\"method\":\"stats\"}}"),
        );
        assert_eq!(resp.get("id").and_then(Json::as_int), Some(id));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "ten sequential requests took {elapsed:?}"
    );

    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
