//! Protocol golden tests: drive the real `spec-serve` binary over a
//! pipe and compare every response **byte for byte** against goldens
//! built from direct library calls on the same artifacts. Covers every
//! method, every error shape, the exit-code contract, and the LRU
//! eviction/re-ingest cycle on the paper's running examples.

use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::canonical::LassoBank;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::{hoa, inclusion};
use hierarchy_core::fts::absint::{self, DomainKind};
use hierarchy_core::fts::checker::{
    check_with_invariants, validate_violation, CheckStats, Verdict,
};
use hierarchy_core::lint::{
    audit_suite_ctx, lint_abstract_program, lint_automaton_ctx, report_to_json, AuditOptions,
    Diagnostic,
};
use hierarchy_core::prelude::*;
use hierarchy_core::{HierarchyClass, Property};
use hierarchy_serve::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// A live daemon with scripted request/response access.
struct Daemon {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spec-serve"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spec-serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().unwrap();
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("read response");
        assert!(
            response.ends_with('\n'),
            "daemon died mid-response for {line:?}"
        );
        response.pop();
        response
    }

    /// Closes stdin (the shutdown signal) and asserts a clean exit.
    fn shutdown(mut self) {
        drop(self.stdin);
        let status = self.child.wait().expect("wait for daemon");
        assert_eq!(status.code(), Some(0), "EOF on stdin must exit 0");
    }
}

// ---- golden builders (direct library calls) -------------------------

/// The paper's running examples: mutual exclusion (safety), the
/// response property (recurrence), termination (guarantee),
/// stabilization (persistence), and a proper obligation.
const RUNNING_EXAMPLES: &[(&str, &[&str])] = &[
    ("G !(c1 & c2)", &["c1", "c2", "t1", "t2"]),
    ("G (p -> F q)", &["p", "q"]),
    ("F p", &["p", "q"]),
    ("F G p", &["p", "q"]),
    ("G p | F q", &["p", "q"]),
];

fn compile(source: &str, props: &[&str]) -> OmegaAutomaton {
    let sigma = Alphabet::of_propositions(props.iter().copied()).unwrap();
    Property::parse(&sigma, source).unwrap().automaton().clone()
}

fn ingest_formula_request(id: i64, source: &str, props: &[&str]) -> String {
    let props_json = Json::Arr(props.iter().map(|p| Json::str(*p)).collect());
    Json::obj([
        ("id", Json::Int(id)),
        ("method", Json::str("ingest")),
        (
            "params",
            Json::obj([
                ("kind", Json::str("formula")),
                ("props", props_json),
                ("source", Json::str(source)),
            ]),
        ),
    ])
    .to_string()
}

fn ingest_hoa_request(id: i64, aut: &OmegaAutomaton) -> String {
    Json::obj([
        ("id", Json::Int(id)),
        ("method", Json::str("ingest")),
        (
            "params",
            Json::obj([
                ("kind", Json::str("automaton")),
                ("hoa", Json::str(hoa::omega_to_hoa(aut))),
            ]),
        ),
    ])
    .to_string()
}

fn golden_ingest(id: i64, aut: &OmegaAutomaton, known: bool) -> String {
    Json::obj([
        ("id", Json::Int(id)),
        (
            "result",
            Json::obj([
                ("artifact", Json::str(aut.content_hash().to_string())),
                ("kind", Json::str("automaton")),
                ("known", Json::Bool(known)),
                ("states", Json::Int(aut.num_states() as i64)),
                ("evicted", Json::Arr(vec![])),
            ]),
        ),
    ])
    .to_string()
}

/// A `lint` response: the artifact's diagnostics as the library
/// reports them.
fn golden_lint(id: i64, hash: &str, kind: &str, diags: &[Diagnostic], warm: bool) -> String {
    Json::obj([
        ("id", Json::Int(id)),
        (
            "result",
            Json::obj([
                ("artifact", Json::str(hash)),
                ("kind", Json::str(kind)),
                ("count", Json::Int(diags.len() as i64)),
                ("diagnostics", Json::Raw(report_to_json(diags))),
                ("warm", Json::Bool(warm)),
            ]),
        ),
    ])
    .to_string()
}

fn lint_request(id: i64, hash: &str) -> String {
    format!("{{\"id\":{id},\"method\":\"lint\",\"params\":{{\"artifact\":\"{hash}\"}}}}")
}

fn stats_json(s: &hierarchy_core::automata::analysis::AnalysisStats) -> Json {
    Json::obj([
        ("scc_passes", Json::Int(s.scc_passes as i64)),
        ("scc_state_visits", Json::Int(s.scc_state_visits as i64)),
        ("scc_hits", Json::Int(s.scc_hits as i64)),
        ("products_built", Json::Int(s.products_built as i64)),
        ("product_hits", Json::Int(s.product_hits as i64)),
        ("inclusion_checks", Json::Int(s.inclusion_checks as i64)),
        ("inclusion_hits", Json::Int(s.inclusion_hits as i64)),
    ])
}

/// Replays the daemon's classify endpoint against a reference context:
/// `queries_before` selects the cold (0) or warm (≥1) response.
fn golden_classify(id: i64, ctx: &Analysis, warm: bool) -> String {
    let before = ctx.stats_total();
    let c = ctx.classification().clone();
    let delta = ctx.stats_total().delta_since(before);
    let class = HierarchyClass::from_classification(&c);
    Json::obj([
        ("id", Json::Int(id)),
        (
            "result",
            Json::obj([
                (
                    "artifact",
                    Json::str(ctx.automaton().content_hash().to_string()),
                ),
                ("class", Json::str(class.to_string())),
                ("strictest", Json::str(c.strictest_class_name())),
                ("borel", Json::str(c.borel_name())),
                ("safety", Json::Bool(c.is_safety)),
                ("guarantee", Json::Bool(c.is_guarantee)),
                ("obligation", Json::Bool(c.is_obligation)),
                ("recurrence", Json::Bool(c.is_recurrence)),
                ("persistence", Json::Bool(c.is_persistence)),
                ("simple_reactivity", Json::Bool(c.is_simple_reactivity)),
                (
                    "obligation_index",
                    match c.obligation_index {
                        Some(k) => Json::Int(k as i64),
                        None => Json::Null,
                    },
                ),
                ("reactivity_index", Json::Int(c.reactivity_index as i64)),
                ("warm", Json::Bool(warm)),
                ("stats", stats_json(&delta)),
            ]),
        ),
    ])
    .to_string()
}

// ---- the golden session ---------------------------------------------

#[test]
fn golden_running_examples_session() {
    let mut daemon = Daemon::spawn(&[]);
    let mut id = 0i64;
    let mut next = || {
        id += 1;
        id
    };

    // Ingest + cold/warm classify for each running example, with the
    // expected bytes replayed on a reference Analysis per artifact.
    for (source, props) in RUNNING_EXAMPLES {
        let aut = compile(source, props);
        let reference = Analysis::new(aut.clone());

        let i = next();
        let got = daemon.request(&ingest_formula_request(i, source, props));
        assert_eq!(got, golden_ingest(i, &aut, false), "ingest {source}");

        let hash = aut.content_hash().to_string();
        let classify = |id: i64| {
            format!(
                "{{\"id\":{id},\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}"
            )
        };
        let i = next();
        let got = daemon.request(&classify(i));
        assert_eq!(got, golden_classify(i, &reference, false), "cold {source}");
        let i = next();
        let got = daemon.request(&classify(i));
        assert_eq!(got, golden_classify(i, &reference, true), "warm {source}");
    }

    // Re-ingesting a running example is a dedup hit, byte-for-byte.
    let mux = compile(RUNNING_EXAMPLES[0].0, RUNNING_EXAMPLES[0].1);
    let i = next();
    let got = daemon.request(&ingest_formula_request(
        i,
        RUNNING_EXAMPLES[0].0,
        RUNNING_EXAMPLES[0].1,
    ));
    assert_eq!(got, golden_ingest(i, &mux, true), "re-ingest dedups");

    daemon.shutdown();
}

#[test]
fn golden_lint_include_and_evict() {
    let mut daemon = Daemon::spawn(&[]);

    let gp = compile("G p", &["p"]);
    let gfp = compile("G F p", &["p"]);
    for (i, (source, props)) in [("G p", &["p"] as &[&str]), ("G F p", &["p"])]
        .iter()
        .enumerate()
    {
        daemon.request(&ingest_formula_request(i as i64, source, props));
    }
    let gp_hash = gp.content_hash().to_string();
    let gfp_hash = gfp.content_hash().to_string();

    // Lint: bytes replayed through the same lint + report_to_json path.
    let reference = Analysis::new(gp.clone());
    let diags = lint_automaton_ctx(&reference);
    let got = daemon.request(&lint_request(10, &gp_hash));
    assert_eq!(
        got,
        golden_lint(10, &gp_hash, "automaton", &diags, false),
        "lint golden"
    );

    // include: G p ⊆ G F p strictly; the reverse, asked with
    // "witness":true, carries a lasso whose symbols replay from the
    // library's counterexample extractor (without the flag the verdict
    // comes back alone — the witness tour is opt-in).
    let got = daemon.request(&format!(
        "{{\"id\":11,\"method\":\"include\",\"params\":{{\"lhs\":\"{gp_hash}\",\"rhs\":\"{gfp_hash}\"}}}}"
    ));
    let want = Json::obj([
        ("id", Json::Int(11)),
        (
            "result",
            Json::obj([
                ("lhs", Json::str(gp_hash.clone())),
                ("rhs", Json::str(gfp_hash.clone())),
                ("included", Json::Bool(true)),
                ("equivalent", Json::Bool(false)),
                ("counterexample", Json::Null),
            ]),
        ),
    ])
    .to_string();
    assert_eq!(got, want, "inclusion golden");

    let lasso = inclusion::inclusion_counterexample(&gfp, &gp).expect("G F p ⊄ G p");
    let names = |syms: &[Symbol]| {
        Json::Arr(
            syms.iter()
                .map(|&s| Json::str(gfp.alphabet().name(s)))
                .collect(),
        )
    };
    // Verdict-only by default…
    let got = daemon.request(&format!(
        "{{\"id\":12,\"method\":\"include\",\"params\":{{\"lhs\":\"{gfp_hash}\",\"rhs\":\"{gp_hash}\"}}}}"
    ));
    let bare = |counterexample: Json| {
        Json::obj([
            ("id", Json::Int(12)),
            (
                "result",
                Json::obj([
                    ("lhs", Json::str(gfp_hash.clone())),
                    ("rhs", Json::str(gp_hash.clone())),
                    ("included", Json::Bool(false)),
                    ("equivalent", Json::Bool(false)),
                    ("counterexample", counterexample),
                ]),
            ),
        ])
        .to_string()
    };
    assert_eq!(got, bare(Json::Null), "verdict-only inclusion golden");
    // …and the lasso on request.
    let got = daemon.request(&format!(
        "{{\"id\":12,\"method\":\"include\",\"params\":{{\"lhs\":\"{gfp_hash}\",\"rhs\":\"{gp_hash}\",\"witness\":true}}}}"
    ));
    let want = bare(Json::obj([
        ("stem", names(lasso.spoke())),
        ("cycle", names(lasso.cycle())),
    ]));
    assert_eq!(got, want, "counterexample golden");

    // evict: true once, false after.
    let got = daemon.request(&format!(
        "{{\"id\":13,\"method\":\"evict\",\"params\":{{\"artifact\":\"{gp_hash}\"}}}}"
    ));
    assert_eq!(
        got,
        format!("{{\"id\":13,\"result\":{{\"evicted\":true}}}}")
    );
    let got = daemon.request(&format!(
        "{{\"id\":14,\"method\":\"evict\",\"params\":{{\"artifact\":\"{gp_hash}\"}}}}"
    ));
    assert_eq!(
        got,
        format!("{{\"id\":14,\"result\":{{\"evicted\":false}}}}")
    );
    let got = daemon.request(&format!(
        "{{\"id\":15,\"method\":\"classify\",\"params\":{{\"artifact\":\"{gp_hash}\"}}}}"
    ));
    assert_eq!(
        got,
        format!(
            "{{\"id\":15,\"error\":{{\"code\":-32001,\"message\":\"unknown artifact {gp_hash}\"}}}}"
        )
    );
    // The lint memo goes with the entry: after a re-ingest the lint is
    // cold again, with the same diagnostics.
    daemon.request(&ingest_formula_request(16, "G p", &["p"]));
    let got = daemon.request(&lint_request(17, &gp_hash));
    assert_eq!(
        got,
        golden_lint(17, &gp_hash, "automaton", &diags, false),
        "lint golden after re-ingest"
    );

    daemon.shutdown();
}

/// The `check` response for a verdict and its stats, as the daemon
/// serializes it.
fn golden_check(id: i64, verdict: &Verdict, stats: &CheckStats) -> String {
    let ints = |states: &[usize]| Json::Arr(states.iter().map(|&s| Json::Int(s as i64)).collect());
    let (name, counterexample) = match verdict {
        Verdict::Holds => ("holds", Json::Null),
        Verdict::Violated(cex) => (
            "violated",
            Json::obj([("stem", ints(&cex.stem)), ("cycle", ints(&cex.cycle))]),
        ),
    };
    Json::obj([
        ("id", Json::Int(id)),
        (
            "result",
            Json::obj([
                ("verdict", Json::str(name)),
                ("counterexample", counterexample),
                (
                    "stats",
                    Json::obj([
                        ("product_states", Json::Int(stats.product_states as i64)),
                        (
                            "pruned_product_states",
                            Json::Int(stats.pruned_product_states as i64),
                        ),
                        ("abstract_pairs", Json::Int(stats.abstract_pairs as i64)),
                        ("discharged", Json::Bool(stats.discharged)),
                        (
                            "certificate_ok",
                            match stats.certificate_ok {
                                Some(b) => Json::Bool(b),
                                None => Json::Null,
                            },
                        ),
                    ]),
                ),
            ]),
        ),
    ])
    .to_string()
}

#[test]
fn golden_program_check_and_batches() {
    let mut daemon = Daemon::spawn(&[]);

    // Program ingest from the catalogue, with the program's own hash.
    let program = absint::catalogue()
        .into_iter()
        .find(|(n, _)| *n == "mux-sem")
        .unwrap()
        .1;
    let prog_hash = program.content_hash().to_string();
    let got = daemon.request(
        "{\"id\":1,\"method\":\"ingest\",\"params\":{\"kind\":\"program\",\"name\":\"mux-sem\"}}",
    );
    assert_eq!(
        got,
        format!(
            "{{\"id\":1,\"result\":{{\"artifact\":\"{prog_hash}\",\"kind\":\"program\",\"known\":false,\"name\":\"mux-sem\",\"evicted\":[]}}}}"
        )
    );

    // Program lint golden, then the same bytes from the warm repeat.
    let diags = lint_abstract_program(&program).unwrap();
    for warm in [false, true] {
        let got = daemon.request(&lint_request(2, &prog_hash));
        assert_eq!(
            got,
            golden_lint(2, &prog_hash, "program", &diags, warm),
            "program lint golden"
        );
    }

    // check: mutual exclusion discharged in the abstract; golden stats
    // replayed through the same checker entry point.
    let mux = compile("G !(c1 & c2)", &["c1", "c2", "t1", "t2"]);
    let mux_hash = mux.content_hash().to_string();
    daemon.request(&ingest_formula_request(
        3,
        "G !(c1 & c2)",
        &["c1", "c2", "t1", "t2"],
    ));
    // Automaton lint golden, cold then warm.
    let mux_diags = lint_automaton_ctx(&Analysis::new(mux.clone()));
    for warm in [false, true] {
        let got = daemon.request(&lint_request(20, &mux_hash));
        assert_eq!(
            got,
            golden_lint(20, &mux_hash, "automaton", &mux_diags, warm),
            "automaton lint golden"
        );
    }
    let sigma = mux.alphabet().clone();
    let (verdict, stats) =
        check_with_invariants(&program, &sigma, &mux, DomainKind::ValueSets).unwrap();
    assert!(verdict.holds());
    let got = daemon.request(&format!(
        "{{\"id\":4,\"method\":\"check\",\"params\":{{\"program\":\"{prog_hash}\",\"property\":\"{mux_hash}\",\"domain\":\"value-sets\"}}}}"
    ));
    assert_eq!(got, golden_check(4, &verdict, &stats), "check golden");
    assert!(got.contains("\"discharged\":true"), "safety discharged");

    // A violated check: token-ring-stalled may keep the token at process
    // 0 forever (its passes are unfair), so `G F c2` fails and the
    // response carries a concrete lasso over system states.
    let stalled = absint::catalogue()
        .into_iter()
        .find(|(n, _)| *n == "token-ring-stalled")
        .unwrap()
        .1;
    let stalled_hash = stalled.content_hash().to_string();
    daemon.request(
        "{\"id\":5,\"method\":\"ingest\",\"params\":{\"kind\":\"program\",\"name\":\"token-ring-stalled\"}}",
    );
    let gfc2 = compile("G F c2", &["c1", "c2", "t1", "t2"]);
    let gfc2_hash = gfc2.content_hash().to_string();
    daemon.request(&ingest_formula_request(
        21,
        "G F c2",
        &["c1", "c2", "t1", "t2"],
    ));
    let got = daemon.request(&format!(
        "{{\"id\":6,\"method\":\"check\",\"params\":{{\"program\":\"{stalled_hash}\",\"property\":\"{gfc2_hash}\",\"domain\":\"value-sets\"}}}}"
    ));
    let (verdict, stats) =
        check_with_invariants(&stalled, &sigma, &gfc2, DomainKind::ValueSets).unwrap();
    let Verdict::Violated(cex) = &verdict else {
        panic!("the stalled ring violates G F c2");
    };
    let ts = stalled.to_builder(&sigma).build().unwrap();
    validate_violation(&ts, &gfc2, cex).expect("the counterexample replays");
    assert_eq!(
        got,
        golden_check(6, &verdict, &stats),
        "violated check golden"
    );

    // Batches: results arrive in request order and agree with singles.
    let fp = compile("F p", &["p", "q"]);
    daemon.request(&ingest_formula_request(7, "F p", &["p", "q"]));
    let fp_hash = fp.content_hash().to_string();
    let got = daemon.request(&format!(
        "{{\"id\":8,\"method\":\"classify_batch\",\"params\":{{\"artifacts\":[\"{mux_hash}\",\"{fp_hash}\"]}}}}"
    ));
    let resp = Json::parse(&got).unwrap();
    let results = resp
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_arr)
        .expect("batch result")
        .to_vec();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("class").and_then(Json::as_str),
        Some("safety")
    );
    assert_eq!(
        results[1].get("class").and_then(Json::as_str),
        Some("guarantee")
    );
    let got = daemon.request(&format!(
        "{{\"id\":9,\"method\":\"lint_batch\",\"params\":{{\"artifacts\":[\"{mux_hash}\",\"{prog_hash}\"]}}}}"
    ));
    let resp = Json::parse(&got).unwrap();
    let results = resp
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_arr)
        .expect("lint batch result")
        .to_vec();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[1].get("count").and_then(Json::as_int),
        Some(diags.len() as i64)
    );

    // `check` runs the value-set or the relational domain; any other
    // name is an invalid param.
    for (id, domain) in [(10, "constants"), (11, "intervals")] {
        let got = daemon.request(&format!(
            "{{\"id\":{id},\"method\":\"check\",\"params\":{{\"program\":\"{prog_hash}\",\"property\":\"{mux_hash}\",\"domain\":\"{domain}\"}}}}"
        ));
        assert_eq!(
            got,
            format!(
                "{{\"id\":{id},\"error\":{{\"code\":-32602,\"message\":\"domain must be value-sets or relational, got \\\"{domain}\\\"\"}}}}"
            ),
            "domain golden"
        );
    }

    daemon.shutdown();
}

// ---- the suite audit ------------------------------------------------

/// Replays the daemon's `audit` response on reference contexts. The
/// members, dominance edges, histogram and diagnostics come straight
/// from [`audit_suite_ctx`]; the `stats` delta is byte-identical only
/// because the caller replayed the store's ingest-time equivalence
/// sweep on the same contexts first (see [`golden_audit_session`]).
fn golden_audit(id: i64, reference: &[(String, Analysis)], warm: bool) -> String {
    let items: Vec<(&str, &Analysis)> = reference
        .iter()
        .map(|(name, ctx)| (name.as_str(), ctx))
        .collect();
    let opts = AuditOptions {
        jobs: 1,
        ..AuditOptions::default()
    };
    let audit = audit_suite_ctx(&items, &opts).expect("one alphabet");
    let members: Vec<Json> = (0..audit.names.len())
        .map(|i| {
            Json::obj([
                ("artifact", Json::str(audit.names[i].clone())),
                ("class", Json::str(audit.classes[i])),
                ("representative", Json::Int(audit.representative[i] as i64)),
                ("warm", Json::Bool(warm)),
                (
                    "diagnostics",
                    Json::Raw(report_to_json(&audit.member_diagnostics[i])),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("id", Json::Int(id)),
        (
            "result",
            Json::obj([
                ("members", Json::Arr(members)),
                (
                    "dominance",
                    Json::Arr(
                        audit
                            .dominance
                            .iter()
                            .map(|&(a, b)| {
                                Json::Arr(vec![Json::Int(a as i64), Json::Int(b as i64)])
                            })
                            .collect(),
                    ),
                ),
                (
                    "histogram",
                    Json::obj(
                        audit
                            .histogram
                            .iter()
                            .map(|&(class, count)| (class, Json::Int(count as i64))),
                    ),
                ),
                (
                    "suite_diagnostics",
                    Json::Raw(report_to_json(&audit.suite_diagnostics)),
                ),
                ("clean", Json::Bool(audit.is_clean())),
                (
                    "prefilter",
                    Json::obj([
                        ("pairs", Json::Int(audit.prefilter.pairs as i64)),
                        (
                            "hash_decided",
                            Json::Int(audit.prefilter.hash_decided as i64),
                        ),
                        (
                            "lasso_decided",
                            Json::Int(audit.prefilter.lasso_decided as i64),
                        ),
                        (
                            "oracle_calls",
                            Json::Int(audit.prefilter.oracle_calls as i64),
                        ),
                    ]),
                ),
                (
                    "deep_checks_skipped",
                    Json::Int(audit.deep_checks_skipped as i64),
                ),
                ("stats", stats_json(&audit.stats)),
            ]),
        ),
    ])
    .to_string()
}

#[test]
fn golden_audit_session() {
    // `--jobs 1` pins the daemon's audit worker count to the
    // reference's: the verdicts are jobs-invariant, the stats deltas
    // are not.
    let mut daemon = Daemon::spawn(&["--jobs", "1"]);
    let members: &[&str] = &["G (p -> F q)", "F p", "F G p", "G p | F q"];
    let props: &[&str] = &["p", "q"];

    let mut reference: Vec<(String, Analysis)> = Vec::new();
    for (i, source) in members.iter().enumerate() {
        let aut = compile(source, props);
        let got = daemon.request(&ingest_formula_request(i as i64, source, props));
        assert_eq!(got, golden_ingest(i as i64, &aut, false), "ingest {source}");
        // Replay the store's ingest-time equivalence sweep, so the
        // reference contexts hold the memo state of the daemon's
        // entries: one lasso bank of the new artifact's sample and every
        // stored context's, then the oracle, on the stored context, for
        // each context no bank lasso separates from the new artifact.
        let hash = aut.content_hash().to_string();
        let ctx = Analysis::new(aut);
        let bank = LassoBank::new(std::iter::once(&ctx).chain(reference.iter().map(|(_, c)| c)));
        let row = bank.row(ctx.automaton());
        for (stored, stored_ctx) in &reference {
            if !bank.separates(&row, stored_ctx.automaton()) {
                assert!(
                    !stored_ctx.equivalent(ctx.automaton()),
                    "{source} vs {stored}"
                );
            }
        }
        reference.push((hash, ctx));
    }

    let artifacts = reference
        .iter()
        .map(|(h, _)| format!("\"{h}\""))
        .collect::<Vec<_>>()
        .join(",");
    let audit_request = |id: i64| {
        format!("{{\"id\":{id},\"method\":\"audit\",\"params\":{{\"artifacts\":[{artifacts}]}}}}")
    };

    // Cold, then warm: the second audit rides the memoized inclusion
    // matrix, and the replay reproduces both stats deltas exactly.
    // (The replay itself must run in the same order — the first
    // `golden_audit` call is the one that warms the reference.)
    let got = daemon.request(&audit_request(30));
    assert_eq!(
        got,
        golden_audit(30, &reference, false),
        "cold audit golden"
    );
    let got = daemon.request(&audit_request(31));
    assert_eq!(got, golden_audit(31, &reference, true), "warm audit golden");
    assert!(
        !got.contains("\"inclusion_hits\":0"),
        "warm audit must report memo hits, got {got}"
    );

    // Error shapes. An empty suite and a negative cap are parameter
    // errors; a member of a different alphabet is the operand-mismatch
    // code with the library's own message, naming members by hash.
    let got = daemon.request("{\"id\":40,\"method\":\"audit\",\"params\":{\"artifacts\":[]}}");
    assert_eq!(
        got,
        "{\"id\":40,\"error\":{\"code\":-32602,\"message\":\"audit needs at least one artifact\"}}"
    );
    let first = &reference[0].0;
    let got = daemon.request(&format!(
        "{{\"id\":41,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{first}\"],\"cap\":-1}}}}"
    ));
    assert_eq!(
        got,
        "{\"id\":41,\"error\":{\"code\":-32602,\"message\":\"cap must be a non-negative integer\"}}"
    );

    let mux = compile("G !(c1 & c2)", &["c1", "c2", "t1", "t2"]);
    let mux_hash = mux.content_hash().to_string();
    daemon.request(&ingest_formula_request(
        42,
        "G !(c1 & c2)",
        &["c1", "c2", "t1", "t2"],
    ));
    let got = daemon.request(&format!(
        "{{\"id\":43,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{first}\",\"{mux_hash}\"]}}}}"
    ));
    assert_eq!(
        got,
        format!(
            "{{\"id\":43,\"error\":{{\"code\":-32003,\"message\":\"suite members \\\"{first}\\\" and \\\"{mux_hash}\\\" read different alphabets\"}}}}"
        ),
        "incompatible-alphabet audit error shape"
    );

    daemon.shutdown();
}

// ---- error shapes (fully literal goldens) ---------------------------

#[test]
fn golden_error_shapes() {
    let mut daemon = Daemon::spawn(&[]);
    let cases: &[(&str, &str)] = &[
        // -32700: not JSON at all (id unrecoverable → null).
        (
            "this is not json",
            "{\"id\":null,\"error\":{\"code\":-32700,\"message\":\"parse error: unexpected byte 't' at 0\"}}",
        ),
        // -32600: valid JSON, no method.
        (
            "{\"id\":9}",
            "{\"id\":9,\"error\":{\"code\":-32600,\"message\":\"missing method\"}}",
        ),
        // -32600: id of a bad type.
        (
            "{\"id\":[1],\"method\":\"stats\"}",
            "{\"id\":null,\"error\":{\"code\":-32600,\"message\":\"id must be a number, string or absent\"}}",
        ),
        // -32601: unknown method.
        (
            "{\"id\":1,\"method\":\"transmogrify\"}",
            "{\"id\":1,\"error\":{\"code\":-32601,\"message\":\"unknown method \\\"transmogrify\\\"\"}}",
        ),
        // -32602: missing params.
        (
            "{\"id\":2,\"method\":\"classify\"}",
            "{\"id\":2,\"error\":{\"code\":-32602,\"message\":\"missing string param \\\"artifact\\\"\"}}",
        ),
        // -32602: params of the wrong type.
        (
            "{\"id\":3,\"method\":\"classify\",\"params\":[]}",
            "{\"id\":3,\"error\":{\"code\":-32602,\"message\":\"params must be an object\"}}",
        ),
        // -32602: a hash that is not a hash.
        (
            "{\"id\":4,\"method\":\"classify\",\"params\":{\"artifact\":\"zz\"}}",
            "{\"id\":4,\"error\":{\"code\":-32602,\"message\":\"artifact must be a 32-digit hex hash\"}}",
        ),
        // -32001: a well-formed hash never ingested.
        (
            "{\"id\":5,\"method\":\"classify\",\"params\":{\"artifact\":\"00112233445566778899aabbccddeeff\"}}",
            "{\"id\":5,\"error\":{\"code\":-32001,\"message\":\"unknown artifact 00112233445566778899aabbccddeeff\"}}",
        ),
        // -32002: unknown catalogue program.
        (
            "{\"id\":6,\"method\":\"ingest\",\"params\":{\"kind\":\"program\",\"name\":\"quicksort\"}}",
            "{\"id\":6,\"error\":{\"code\":-32002,\"message\":\"unknown catalogue program \\\"quicksort\\\"\"}}",
        ),
        // -32002: malformed HOA.
        (
            "{\"id\":7,\"method\":\"ingest\",\"params\":{\"kind\":\"automaton\",\"hoa\":\"HOA: v2\"}}",
            "{\"id\":7,\"error\":{\"code\":-32002,\"message\":\"HOA parse error: expected \\\"HOA: v1\\\" header, found Some(\\\"HOA: v2\\\")\"}}",
        ),
        // -32602: unknown ingest kind.
        (
            "{\"id\":8,\"method\":\"ingest\",\"params\":{\"kind\":\"sonnet\"}}",
            "{\"id\":8,\"error\":{\"code\":-32602,\"message\":\"kind must be automaton, formula, regex or program, got \\\"sonnet\\\"\"}}",
        ),
    ];
    for (request, want) in cases {
        let got = daemon.request(request);
        assert_eq!(&got, want, "for request {request:?}");
    }

    // -32003 needs live artifacts: alphabet mismatch between operands.
    daemon.request(&ingest_formula_request(20, "G p", &["p"]));
    daemon.request(&ingest_formula_request(21, "G q", &["p", "q"]));
    let a = compile("G p", &["p"]).content_hash().to_string();
    let b = compile("G q", &["p", "q"]).content_hash().to_string();
    let got = daemon.request(&format!(
        "{{\"id\":22,\"method\":\"include\",\"params\":{{\"lhs\":\"{a}\",\"rhs\":\"{b}\"}}}}"
    ));
    assert_eq!(
        got,
        "{\"id\":22,\"error\":{\"code\":-32003,\"message\":\"lhs and rhs observe different alphabets\"}}"
    );

    // -32002: `X` over a body that is not a past formula gets the same
    // typed error as the bare body (it used to panic the rewriter and
    // end the daemon), and the next request is answered as usual.
    let got = daemon.request(&ingest_formula_request(23, "X (O p U G q)", &["p", "q"]));
    assert_eq!(
        got,
        "{\"id\":23,\"error\":{\"code\":-32002,\"message\":\"formula is outside the canonicalizable hierarchy fragment: X (O p U G q)\"}}"
    );
    let got = daemon.request(&ingest_formula_request(24, "G p", &["p", "q"]));
    assert_eq!(got, golden_ingest(24, &compile("G p", &["p", "q"]), false));

    daemon.shutdown();
}

// ---- seventeen acceptance atoms ----------------------------------------

/// `G F p` over {p} as a 17-state generalized-Büchi automaton with 17
/// `Inf` sets (state `i` moves to `i + 1 mod 17` on `p`): one of the
/// plainest recurrence inputs, with seventeen acceptance atoms.
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

/// Classification, its batch form and the suite audit answer the
/// seventeen-atom automaton (a recurrence property) byte-exact against
/// the library, and the daemon goes on answering: lint, inclusion and
/// the classification of another artifact are byte-exact too.
#[test]
fn golden_seventeen_atoms_classify() {
    // `--jobs 1` pins the audit worker count to the reference's.
    let mut daemon = Daemon::spawn(&["--jobs", "1"]);
    let aut = seventeen_inf_sets();
    let hash = aut.content_hash().to_string();
    let fp = compile("F p", &["p"]);
    let fp_hash = fp.content_hash().to_string();
    assert_eq!(
        daemon.request(&ingest_hoa_request(1, &aut)),
        golden_ingest(1, &aut, false)
    );
    daemon.request(&ingest_formula_request(2, "F p", &["p"]));

    let reference = vec![(hash.clone(), Analysis::new(aut.clone()))];
    let got = daemon.request(&format!(
        "{{\"id\":3,\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}"
    ));
    assert_eq!(got, golden_classify(3, &reference[0].1, false));
    assert!(got.contains("\"class\":\"recurrence\""), "{got}");
    assert!(got.contains("\"reactivity_index\":1"), "{got}");
    assert_eq!(reference[0].1.rabin_index(), 1);
    let got = daemon.request(&format!(
        "{{\"id\":4,\"method\":\"classify_batch\",\"params\":{{\"artifacts\":[\"{hash}\"]}}}}"
    ));
    let one = Json::parse(&golden_classify(4, &reference[0].1, true)).unwrap();
    let want = Json::obj([
        ("id", Json::Int(4)),
        (
            "result",
            Json::obj([(
                "results",
                Json::Arr(vec![one.get("result").unwrap().clone()]),
            )]),
        ),
    ]);
    assert_eq!(got, want.to_string(), "batch golden");
    let got = daemon.request(&format!(
        "{{\"id\":5,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{hash}\"]}}}}"
    ));
    assert_eq!(got, golden_audit(5, &reference, true), "audit golden");

    let diags = lint_automaton_ctx(&Analysis::new(aut.clone()));
    let got = daemon.request(&lint_request(6, &hash));
    assert_eq!(
        got,
        golden_lint(6, &hash, "automaton", &diags, true),
        "lint golden"
    );

    let got = daemon.request(&format!(
        "{{\"id\":7,\"method\":\"include\",\"params\":{{\"lhs\":\"{hash}\",\"rhs\":\"{fp_hash}\"}}}}"
    ));
    let want = Json::obj([
        ("id", Json::Int(7)),
        (
            "result",
            Json::obj([
                ("lhs", Json::str(hash.clone())),
                ("rhs", Json::str(fp_hash.clone())),
                ("included", Json::Bool(true)),
                ("equivalent", Json::Bool(false)),
                ("counterexample", Json::Null),
            ]),
        ),
    ])
    .to_string();
    assert_eq!(got, want, "inclusion golden");

    let got = daemon.request(&format!(
        "{{\"id\":8,\"method\":\"classify\",\"params\":{{\"artifact\":\"{fp_hash}\"}}}}"
    ));
    assert_eq!(got, golden_classify(8, &Analysis::new(fp), true));
    daemon.shutdown();
}

// ---- transport details ----------------------------------------------

#[test]
fn blank_lines_and_missing_ids() {
    let mut daemon = Daemon::spawn(&[]);
    // Blank lines produce no response: the next real request's answer
    // arrives first, proving nothing was emitted in between.
    writeln!(daemon.stdin, "   \n\n{{\"id\":77,\"method\":\"stats\"}}").unwrap();
    daemon.stdin.flush().unwrap();
    let mut line = String::new();
    daemon.stdout.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim_end()).unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_int), Some(77));

    // A request with no id still answers, with id null.
    let got = daemon.request("{\"method\":\"stats\"}");
    assert!(got.starts_with("{\"id\":null,\"result\":{"), "got {got}");
    daemon.shutdown();
}

#[test]
fn lru_eviction_and_reingest_reproduce_identical_responses() {
    let mut daemon = Daemon::spawn(&["--capacity", "2"]);
    let f1 = compile("G p", &["p", "q"]);
    let f2 = compile("F p", &["p", "q"]);
    let f3 = compile("G F p", &["p", "q"]);
    let (h1, h2, h3) = (
        f1.content_hash().to_string(),
        f2.content_hash().to_string(),
        f3.content_hash().to_string(),
    );

    daemon.request(&ingest_formula_request(1, "G p", &["p", "q"]));
    daemon.request(&ingest_formula_request(2, "F p", &["p", "q"]));
    let classify = |id: i64, hash: &str| {
        format!("{{\"id\":{id},\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}")
    };
    // Warm both, then make f1 the LRU victim by touching f2 last.
    let cold_f1 = daemon.request(&classify(3, &h1));
    daemon.request(&classify(4, &h2));

    // The third ingest overflows capacity 2 and reports the victim.
    let got = daemon.request(&ingest_formula_request(5, "G F p", &["p", "q"]));
    let resp = Json::parse(&got).unwrap();
    let evicted: Vec<String> = resp
        .get("result")
        .and_then(|r| r.get("evicted"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|h| h.as_str().unwrap().to_string())
        .collect();
    assert_eq!(evicted, vec![h1.clone()], "LRU victim is f1");
    assert_eq!(
        resp.get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str),
        Some(h3.as_str())
    );

    // The victim is gone; the survivors are warm.
    let got = daemon.request(&classify(6, &h1));
    assert!(got.contains("\"code\":-32001"), "evicted artifact unknown");

    // Re-ingest after eviction: cold again, and the classify response is
    // byte-identical to the pre-eviction one (same id ⇒ same bytes) —
    // content addressing makes eviction invisible to verdicts and stats.
    let got = daemon.request(&ingest_formula_request(7, "G p", &["p", "q"]));
    assert_eq!(got, {
        let mut expected = golden_ingest(7, &f1, false);
        // Room had to be made again: f2 was the oldest untouched entry.
        expected = expected.replace("\"evicted\":[]", &format!("\"evicted\":[\"{h2}\"]"));
        expected
    });
    let got = daemon.request(&classify(3, &h1));
    assert_eq!(
        got, cold_f1,
        "re-ingested artifact reproduces verdict and stats"
    );

    daemon.shutdown();
}

#[test]
fn regex_and_hoa_ingest_collide_with_equivalent_formulas() {
    let mut daemon = Daemon::spawn(&[]);
    // E(Σ*b) over letters {a, b}: "eventually b", byte-exact against the
    // regex's own library compilation.
    let sigma = Alphabet::new(["a", "b"]).unwrap();
    let phi = hierarchy_core::lang::FinitaryProperty::parse(&sigma, ".*b").unwrap();
    let regex_aut = hierarchy_core::lang::operators::e(&phi);
    let got = daemon.request(
        "{\"id\":1,\"method\":\"ingest\",\"params\":{\"kind\":\"regex\",\"letters\":[\"a\",\"b\"],\"pattern\":\".*b\",\"operator\":\"E\"}}",
    );
    assert_eq!(got, golden_ingest(1, &regex_aut, false));

    // A formula artifact re-submitted through its HOA export lands on
    // the same hash (known:true) — content addressing is format-blind.
    // (Proposition alphabets round-trip by name through HOA; the letter
    // alphabet above would come back renamed to bit propositions, which
    // is a *different* artifact by design.)
    let aut = compile("F p", &["p"]);
    let hash = aut.content_hash().to_string();
    let got = daemon.request(&ingest_formula_request(10, "F p", &["p"]));
    assert_eq!(got, golden_ingest(10, &aut, false));
    let got = daemon.request(&ingest_hoa_request(2, &aut));
    let resp = Json::parse(&got).unwrap();
    let result = resp.get("result").expect("hoa ingest succeeds");
    assert_eq!(result.get("known").and_then(Json::as_bool), Some(true));
    assert_eq!(
        result.get("artifact").and_then(Json::as_str),
        Some(hash.as_str())
    );

    daemon.shutdown();
}

// ---- exit codes ------------------------------------------------------

#[test]
fn exit_codes() {
    // --help exits 0 and prints usage.
    let out = Command::new(env!("CARGO_BIN_EXE_spec-serve"))
        .arg("--help")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("usage: spec-serve"));
    // The help lists exactly the methods the dispatcher serves.
    let (_, methods) = help.split_once("methods:").expect("a methods list");
    let mut listed: Vec<&str> = methods
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|m| !m.is_empty())
        .collect();
    listed.sort_unstable();
    let mut served = [
        "ingest",
        "classify",
        "lint",
        "include",
        "check",
        "audit",
        "stats",
        "evict",
        "classify_batch",
        "lint_batch",
    ];
    served.sort_unstable();
    assert_eq!(listed, served);

    // Usage errors exit 2.
    for args in [
        &["--capacity", "zero"] as &[&str],
        &["--capacity"],
        &["--jobs", "0"],
        &["--listen"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_spec-serve"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: spec-serve"),
            "usage goes to stderr for {args:?}"
        );
    }

    // EOF on stdin exits 0 (covered again by every shutdown() above).
    let mut child = Command::new(env!("CARGO_BIN_EXE_spec-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    drop(child.stdin.take());
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
