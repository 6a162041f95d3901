#![warn(missing_docs)]

//! Hierarchy-as-a-service: a persistent classification daemon.
//!
//! The paper's decision procedures — hierarchy classification,
//! inclusion, linting, invariant-first model checking — are all cheap
//! *after* their [`Analysis`] context has warmed up: SCC decompositions,
//! the canonical hash and inclusion verdicts are memoized per automaton.
//! A one-shot CLI throws that context away between queries. This crate
//! keeps it alive: a daemon speaking **line-delimited JSON-RPC** over
//! stdin/stdout (or TCP, see [`listen`](Service::listen)) that ingests
//! artifacts once and answers every later query against the warm
//! context.
//!
//! Artifacts are **content-addressed**
//! ([`Servable::content_hash`](hierarchy_core::Servable::content_hash)):
//! automata hash in canonical quotient form, so α-equivalent automata,
//! formulas and regexes collide on purpose, and an ingest-time
//! equivalence sweep aliases even hash-distinct equal languages onto
//! one stored entry (see [`store`]). The sweep refutes first: a lasso
//! bank pooled from the newcomer and every stored entry of its alphabet
//! separates nearly every distinct entry with a few runs on a lasso, so
//! the equivalence oracle runs only for the few entries it cannot
//! separate. The store is a capacity-bounded LRU.
//!
//! # Protocol
//!
//! One request per line, one response per line, both compact JSON:
//!
//! ```text
//! → {"id":1,"method":"ingest","params":{"kind":"formula","props":["p"],"source":"G F p"}}
//! ← {"id":1,"result":{"artifact":"86ac…","kind":"automaton","known":false,"states":2,"evicted":[]}}
//! → {"id":2,"method":"classify","params":{"artifact":"86ac…"}}
//! ← {"id":2,"result":{"artifact":"86ac…","class":"recurrence","borel":"Π₂",…}}
//! ```
//!
//! Errors follow JSON-RPC: `{"id":N,"error":{"code":C,"message":"…"}}`
//! with the standard codes (`-32700` parse, `-32600` invalid request,
//! `-32601` unknown method, `-32602` invalid params) plus the daemon's
//! own range: `-32001` unknown artifact, `-32002` bad artifact (HOA
//! parse, formula compile, unknown program), `-32003` artifact kind or
//! alphabet mismatch.
//!
//! Methods: `ingest`, `classify`, `lint`, `include`, `check`, `audit`,
//! `stats`, `evict`, and the batch forms `classify_batch` /
//! `lint_batch` that fan out over the worker pool ([`par`]).
//!
//! `audit` runs the whole-suite analysis of
//! [`lint::suite`](hierarchy_core::lint::suite) (`SUITE001`–`SUITE005`,
//! subsumption lattice, dominance DAG, hierarchy histogram) over a list
//! of already-ingested automaton artifacts. This is where the store
//! pays off: the O(n²) containment matrix runs on warm [`Analysis`]
//! contexts, so a re-audit after one more ingest mostly reads the
//! inclusion memo (watch `stats.inclusion_hits` in the response).
//!
//! `include` is verdict-only by default (the verdict rides the
//! `Analysis` inclusion memo, so repeats are cache hits); pass
//! `"witness":true` to also extract a counterexample lasso on failure.
//! The witness is the kernel's targeted tour, linear in the violating
//! product region, but extracting it rebuilds the product outside the
//! memo, so a service only pays it on request.
//!
//! Each stored entry memoizes its `lint` answer, so a warm `lint` or
//! `lint_batch` reads the report instead of linting again.

use hierarchy_core::automata::analysis::{Analysis, AnalysisStats};
use hierarchy_core::automata::canonical::ArtifactHash;
use hierarchy_core::automata::lasso::Lasso;
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::automata::{hoa, inclusion, par};
use hierarchy_core::fts::absint::{self, DomainKind};
use hierarchy_core::fts::checker::check_with_invariants;
use hierarchy_core::fts::CheckError;
use hierarchy_core::lang::{operators, FinitaryProperty};
use hierarchy_core::lint::{audit_suite_ctx, report_to_json, AuditOptions};
use hierarchy_core::prelude::Alphabet;
use hierarchy_core::{HierarchyClass, Property};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod json;
pub mod store;

use json::Json;
use store::{Entry, Ingested, Store};

/// JSON-RPC error codes used by the daemon.
pub mod code {
    /// The request line is not valid JSON.
    pub const PARSE: i64 = -32700;
    /// The request is valid JSON but not a valid request object.
    pub const INVALID_REQUEST: i64 = -32600;
    /// The method name is not recognized.
    pub const UNKNOWN_METHOD: i64 = -32601;
    /// The params are missing or ill-typed for the method.
    pub const INVALID_PARAMS: i64 = -32602;
    /// The named artifact is not in the store (never ingested, or
    /// evicted).
    pub const UNKNOWN_ARTIFACT: i64 = -32001;
    /// The submitted artifact is malformed (HOA parse error, formula
    /// compile error, unknown catalogue program, bad regex).
    pub const BAD_ARTIFACT: i64 = -32002;
    /// The artifact exists but has the wrong kind for the method, or
    /// two operands observe different alphabets.
    pub const KIND_MISMATCH: i64 = -32003;
}

/// A method-level failure: code plus human-readable message.
struct RpcError {
    code: i64,
    message: String,
}

impl RpcError {
    fn new(code: i64, message: impl Into<String>) -> RpcError {
        RpcError {
            code,
            message: message.into(),
        }
    }
}

type RpcResult = Result<Json, RpcError>;

/// The daemon: a content-addressed store of warm [`Analysis`] contexts
/// behind a JSON-RPC dispatcher. Thread-safe — wrap in [`Arc`] and call
/// [`handle_line`](Service::handle_line) from any number of
/// connections.
pub struct Service {
    store: Mutex<Store>,
    jobs: usize,
}

impl Service {
    /// A service holding at most `capacity` artifacts, fanning `audit`
    /// and the batch endpoints across `jobs` workers.
    pub fn new(capacity: usize, jobs: usize) -> Service {
        Service {
            store: Mutex::new(Store::new(capacity)),
            jobs: jobs.max(1),
        }
    }

    /// Locks the store, recovering from poisoning, so a panic under the
    /// lock on one connection cannot break every later request on every
    /// connection. Recovery is sound because no `Store` method leaves a
    /// half-made change: each mutation is a single map insert or removal
    /// plus counter bumps, and the work that can panic (hashing, the
    /// ingest equivalence sweep) runs before the insert. An alias whose
    /// target is gone resolves as a miss.
    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Handles one request line, returning the response line (without
    /// trailing newline). Never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        let (id, outcome) = self.dispatch(line);
        response_line(id, outcome)
    }

    fn dispatch(&self, line: &str) -> (Json, RpcResult) {
        let request = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return (
                    Json::Null,
                    Err(RpcError::new(code::PARSE, format!("parse error: {e}"))),
                )
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        if !matches!(id, Json::Null | Json::Int(_) | Json::Str(_)) {
            return (
                Json::Null,
                Err(RpcError::new(
                    code::INVALID_REQUEST,
                    "id must be a number, string or absent",
                )),
            );
        }
        let method = match request.get("method").and_then(Json::as_str) {
            Some(m) => m,
            None => {
                return (
                    id,
                    Err(RpcError::new(code::INVALID_REQUEST, "missing method")),
                )
            }
        };
        let empty = Json::Obj(Vec::new());
        let params = request.get("params").unwrap_or(&empty);
        if !matches!(params, Json::Obj(_)) {
            return (
                id,
                Err(RpcError::new(
                    code::INVALID_PARAMS,
                    "params must be an object",
                )),
            );
        }
        let outcome = match method {
            "ingest" => self.rpc_ingest(params),
            "classify" => self.rpc_classify(params),
            "lint" => self.rpc_lint(params),
            "include" => self.rpc_include(params),
            "check" => self.rpc_check(params),
            "audit" => self.rpc_audit(params),
            "stats" => self.rpc_stats(),
            "evict" => self.rpc_evict(params),
            "classify_batch" => self.rpc_batch(params, classify_entry),
            "lint_batch" => self.rpc_batch(params, lint_entry),
            other => Err(RpcError::new(
                code::UNKNOWN_METHOD,
                format!("unknown method {other:?}"),
            )),
        };
        (id, outcome)
    }

    // ---- ingest -----------------------------------------------------

    fn rpc_ingest(&self, params: &Json) -> RpcResult {
        let kind = require_str(params, "kind")?;
        match kind {
            "automaton" => {
                let src = require_str(params, "hoa")?;
                let aut = hoa::hoa_to_omega(src)
                    .map_err(|e| RpcError::new(code::BAD_ARTIFACT, e.to_string()))?;
                Ok(self.ingest_automaton(aut, "hoa"))
            }
            "formula" => {
                let source = require_str(params, "source")?;
                let sigma = params_alphabet(params)?;
                let prop = Property::parse(&sigma, source)
                    .map_err(|e| RpcError::new(code::BAD_ARTIFACT, e.to_string()))?;
                Ok(self.ingest_automaton(prop.automaton().clone(), "formula"))
            }
            "regex" => {
                let pattern = require_str(params, "pattern")?;
                let sigma = params_alphabet(params)?;
                let phi = FinitaryProperty::parse(&sigma, pattern)
                    .map_err(|e| RpcError::new(code::BAD_ARTIFACT, e.to_string()))?;
                let operator = optional_str(params, "operator")?.unwrap_or("A");
                let aut = match operator {
                    "A" => operators::a(&phi),
                    "E" => operators::e(&phi),
                    "R" => operators::r(&phi),
                    "P" => operators::p(&phi),
                    other => {
                        return Err(RpcError::new(
                            code::INVALID_PARAMS,
                            format!("operator must be A, E, R or P, got {other:?}"),
                        ))
                    }
                };
                Ok(self.ingest_automaton(aut, "regex"))
            }
            "program" => {
                let name = require_str(params, "name")?;
                let program = absint::catalogue()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, p)| p)
                    .ok_or_else(|| {
                        RpcError::new(
                            code::BAD_ARTIFACT,
                            format!("unknown catalogue program {name:?}"),
                        )
                    })?;
                let ingested = self.store().ingest_program(program);
                Ok(ingest_result(&ingested, Json::str(name)))
            }
            other => Err(RpcError::new(
                code::INVALID_PARAMS,
                format!("kind must be automaton, formula, regex or program, got {other:?}"),
            )),
        }
    }

    fn ingest_automaton(&self, aut: OmegaAutomaton, origin: &'static str) -> Json {
        let states = aut.num_states();
        let ingested = self.store().ingest_automaton(aut, origin);
        ingest_result(&ingested, Json::Int(states as i64))
    }

    // ---- single-artifact queries ------------------------------------

    fn resolve(&self, params: &Json, key: &'static str) -> Result<Arc<Entry>, RpcError> {
        let hex = require_str(params, key)?;
        let hash = ArtifactHash::parse(hex).ok_or_else(|| {
            RpcError::new(
                code::INVALID_PARAMS,
                format!("{key} must be a 32-digit hex hash"),
            )
        })?;
        self.store()
            .resolve(hash)
            .ok_or_else(|| RpcError::new(code::UNKNOWN_ARTIFACT, format!("unknown artifact {hex}")))
    }

    /// Resolves a list of artifact hashes (the `artifacts` param of
    /// `audit` and the batch methods) under one store lock.
    fn resolve_list(&self, hexes: &[Json]) -> Result<Vec<Arc<Entry>>, RpcError> {
        let mut store = self.store();
        hexes
            .iter()
            .map(|h| {
                let hex = h.as_str().ok_or_else(|| {
                    RpcError::new(code::INVALID_PARAMS, "artifacts must be an array of hashes")
                })?;
                let hash = ArtifactHash::parse(hex).ok_or_else(|| {
                    RpcError::new(
                        code::INVALID_PARAMS,
                        format!("{hex:?} is not a 32-digit hex hash"),
                    )
                })?;
                store.resolve(hash).ok_or_else(|| {
                    RpcError::new(code::UNKNOWN_ARTIFACT, format!("unknown artifact {hex}"))
                })
            })
            .collect()
    }

    fn rpc_classify(&self, params: &Json) -> RpcResult {
        let entry = self.resolve(params, "artifact")?;
        let warm = Store::record_query(&entry) > 0;
        classify_entry(&entry, warm)
    }

    fn rpc_lint(&self, params: &Json) -> RpcResult {
        let entry = self.resolve(params, "artifact")?;
        let warm = Store::record_query(&entry) > 0;
        lint_entry(&entry, warm)
    }

    fn rpc_include(&self, params: &Json) -> RpcResult {
        let lhs = self.resolve(params, "lhs")?;
        let rhs = self.resolve(params, "rhs")?;
        Store::record_query(&lhs);
        Store::record_query(&rhs);
        let a = require_automaton(&lhs)?;
        let b = require_automaton(&rhs)?;
        if a.automaton().alphabet() != b.automaton().alphabet() {
            return Err(RpcError::new(
                code::KIND_MISMATCH,
                "lhs and rhs observe different alphabets",
            ));
        }
        let witness = params
            .get("witness")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let included = a.is_subset_of(b);
        let equivalent = included && b.is_subset_of(a);
        // The witness rebuilds the product outside the memo, so it is
        // opt-in: the default response is the memoized verdict alone.
        let counterexample = if included || !witness {
            Json::Null
        } else {
            match inclusion::inclusion_counterexample(a.automaton(), b.automaton()) {
                Some(lasso) => lasso_json(a.automaton(), &lasso),
                None => Json::Null,
            }
        };
        Ok(Json::obj([
            ("lhs", Json::str(lhs.hash.to_string())),
            ("rhs", Json::str(rhs.hash.to_string())),
            ("included", Json::Bool(included)),
            ("equivalent", Json::Bool(equivalent)),
            ("counterexample", counterexample),
        ]))
    }

    fn rpc_check(&self, params: &Json) -> RpcResult {
        let prog_entry = self.resolve(params, "program")?;
        let prop_entry = self.resolve(params, "property")?;
        Store::record_query(&prog_entry);
        Store::record_query(&prop_entry);
        let program = prog_entry.program().ok_or_else(|| {
            RpcError::new(code::KIND_MISMATCH, "program must name a program artifact")
        })?;
        let property = require_automaton(&prop_entry)?;
        let domain = match optional_str(params, "domain")?.unwrap_or("relational") {
            "value-sets" => DomainKind::ValueSets,
            "relational" => DomainKind::Relational,
            other => {
                return Err(RpcError::new(
                    code::INVALID_PARAMS,
                    format!("domain must be value-sets or relational, got {other:?}"),
                ))
            }
        };
        let sigma = property.automaton().alphabet().clone();
        let (verdict, stats) = check_with_invariants(program, &sigma, property.automaton(), domain)
            .map_err(|e| {
                let code = match e {
                    CheckError::AlphabetMismatch => code::KIND_MISMATCH,
                    _ => code::BAD_ARTIFACT,
                };
                RpcError::new(code, e.to_string())
            })?;
        let (holds, counterexample) = match &verdict {
            hierarchy_core::fts::checker::Verdict::Holds => (true, Json::Null),
            hierarchy_core::fts::checker::Verdict::Violated(cex) => (
                false,
                Json::obj([
                    ("stem", int_array(&cex.stem)),
                    ("cycle", int_array(&cex.cycle)),
                ]),
            ),
        };
        Ok(Json::obj([
            (
                "verdict",
                Json::str(if holds { "holds" } else { "violated" }),
            ),
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
        ]))
    }

    // ---- suite audit ------------------------------------------------

    /// `audit`: the whole-suite static analysis of `lint::suite` over
    /// ingested automaton artifacts. Params: `artifacts` (array of
    /// hashes, the suite in order) and optionally `cap` (the conjunction
    /// state cap behind `SUITE001`/`SUITE004`; `0` disables the deep
    /// checks). Member names in the report are the artifact hashes.
    fn rpc_audit(&self, params: &Json) -> RpcResult {
        let hexes = params
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                RpcError::new(code::INVALID_PARAMS, "artifacts must be an array of hashes")
            })?;
        if hexes.is_empty() {
            return Err(RpcError::new(
                code::INVALID_PARAMS,
                "audit needs at least one artifact",
            ));
        }
        let mut opts = AuditOptions {
            jobs: self.jobs,
            ..AuditOptions::default()
        };
        match params.get("cap") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let cap = v.as_int().filter(|&c| c >= 0).ok_or_else(|| {
                    RpcError::new(code::INVALID_PARAMS, "cap must be a non-negative integer")
                })?;
                opts.conjunction_cap = cap as usize;
            }
        }
        let entries = self.resolve_list(hexes)?;
        let warm: Vec<bool> = entries.iter().map(|e| Store::record_query(e) > 0).collect();
        let names: Vec<String> = entries.iter().map(|e| e.hash.to_string()).collect();
        let mut ctxs = Vec::with_capacity(entries.len());
        for entry in &entries {
            ctxs.push(require_automaton(entry)?);
        }
        let items: Vec<(&str, &Analysis)> = names.iter().map(String::as_str).zip(ctxs).collect();
        // The only audit-level failure is an alphabet mismatch between
        // two members — the daemon's operand-mismatch code.
        let audit = audit_suite_ctx(&items, &opts)
            .map_err(|e| RpcError::new(code::KIND_MISMATCH, e.to_string()))?;
        let members: Vec<Json> = (0..audit.names.len())
            .map(|i| {
                Json::obj([
                    ("artifact", Json::str(audit.names[i].clone())),
                    ("class", Json::str(audit.classes[i])),
                    ("representative", Json::Int(audit.representative[i] as i64)),
                    ("warm", Json::Bool(warm[i])),
                    (
                        "diagnostics",
                        Json::Raw(report_to_json(&audit.member_diagnostics[i])),
                    ),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("members", Json::Arr(members)),
            (
                "dominance",
                Json::Arr(
                    audit
                        .dominance
                        .iter()
                        .map(|&(a, b)| Json::Arr(vec![Json::Int(a as i64), Json::Int(b as i64)]))
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
        ]))
    }

    // ---- store management -------------------------------------------

    fn rpc_stats(&self) -> RpcResult {
        let store = self.store();
        let s = store.stats();
        let artifacts: Vec<Json> = store
            .list()
            .into_iter()
            .map(|e| {
                Json::obj([
                    ("artifact", Json::str(e.hash.to_string())),
                    ("kind", Json::str(e.kind())),
                    ("origin", Json::str(e.origin)),
                    (
                        "queries",
                        Json::Int(e.queries.load(std::sync::atomic::Ordering::Relaxed) as i64),
                    ),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("capacity", Json::Int(store.capacity() as i64)),
            ("entries", Json::Int(store.len() as i64)),
            ("ingests", Json::Int(s.ingests as i64)),
            ("dedup_hits", Json::Int(s.dedup_hits as i64)),
            ("hits", Json::Int(s.hits as i64)),
            ("misses", Json::Int(s.misses as i64)),
            ("evictions", Json::Int(s.evictions as i64)),
            ("artifacts", Json::Arr(artifacts)),
        ]))
    }

    fn rpc_evict(&self, params: &Json) -> RpcResult {
        let hex = require_str(params, "artifact")?;
        let hash = ArtifactHash::parse(hex).ok_or_else(|| {
            RpcError::new(code::INVALID_PARAMS, "artifact must be a 32-digit hex hash")
        })?;
        let evicted = self.store().evict(hash);
        Ok(Json::obj([("evicted", Json::Bool(evicted))]))
    }

    // ---- batches ----------------------------------------------------

    fn rpc_batch(&self, params: &Json, f: impl Fn(&Entry, bool) -> RpcResult + Sync) -> RpcResult {
        let hexes = params
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                RpcError::new(code::INVALID_PARAMS, "artifacts must be an array of hashes")
            })?;
        let entries = self.resolve_list(hexes)?;
        // Fan the per-artifact work across the pool; each entry's warm
        // Analysis memoizes internally, so workers share one cache.
        let results = par::map_with(self.jobs, &entries, |entry| {
            let warm = Store::record_query(entry) > 0;
            f(entry, warm)
        });
        let mut out = Vec::with_capacity(results.len());
        for r in results {
            out.push(r?);
        }
        Ok(Json::obj([("results", Json::Arr(out))]))
    }

    // ---- transports -------------------------------------------------

    /// Serves requests line-by-line from `reader`, writing one response
    /// line per request to `writer` (flushed after each response).
    /// Returns when the reader reaches end-of-input. Lines end at `\n` or
    /// `\r\n`; blank lines are skipped, and a line that is not UTF-8
    /// gets a parse error like any other line that is not JSON.
    pub fn serve(&self, mut reader: impl BufRead, writer: &mut impl Write) -> std::io::Result<()> {
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if reader.read_until(b'\n', &mut raw)? == 0 {
                return Ok(());
            }
            let line = match raw.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => &raw,
            };
            let mut response = match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => self.handle_line(text),
                Err(e) => response_line(
                    Json::Null,
                    Err(RpcError::new(code::PARSE, format!("parse error: {e}"))),
                ),
            };
            // One write per response: a separate newline write would sit
            // behind Nagle until the client's delayed ACK.
            response.push('\n');
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
        }
    }

    /// Accept loop: serves every connection on its own thread, all
    /// sharing this service's store. Runs until the listener errors.
    /// Connections run with `TCP_NODELAY`, so each response leaves at
    /// once, whatever the client's ACK policy.
    pub fn listen(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        loop {
            let (stream, _) = listener.accept()?;
            let _ = stream.set_nodelay(true);
            let service = Arc::clone(self);
            std::thread::spawn(move || {
                let reader = std::io::BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                let mut writer = stream;
                let _ = service.serve(reader, &mut writer);
            });
        }
    }
}

// ---- shared response builders ---------------------------------------

/// The response line (without trailing newline) for a request's id and
/// outcome.
fn response_line(id: Json, outcome: RpcResult) -> String {
    let body = match outcome {
        Ok(result) => ("result", result),
        Err(e) => (
            "error",
            Json::obj([
                ("code", Json::Int(e.code)),
                ("message", Json::str(e.message)),
            ]),
        ),
    };
    Json::obj([("id", id), (body.0, body.1)]).to_line()
}

fn ingest_result(ingested: &Ingested, detail: Json) -> Json {
    let detail_key = match ingested.entry.kind() {
        "program" => "name",
        _ => "states",
    };
    Json::obj([
        ("artifact", Json::str(ingested.hash.to_string())),
        ("kind", Json::str(ingested.entry.kind())),
        ("known", Json::Bool(ingested.known)),
        (detail_key, detail),
        (
            "evicted",
            Json::Arr(
                ingested
                    .evicted
                    .iter()
                    .map(|h| Json::str(h.to_string()))
                    .collect(),
            ),
        ),
    ])
}

fn require_automaton(entry: &Entry) -> Result<&Analysis, RpcError> {
    entry.analysis().ok_or_else(|| {
        RpcError::new(
            code::KIND_MISMATCH,
            format!(
                "artifact {} is a {}, not an automaton",
                entry.hash,
                entry.kind()
            ),
        )
    })
}

fn classify_entry(entry: &Entry, warm: bool) -> RpcResult {
    let ctx = require_automaton(entry)?;
    let before = ctx.stats_total();
    let c = ctx.classification().clone();
    let delta = ctx.stats_total().delta_since(before);
    let class = HierarchyClass::from_classification(&c);
    Ok(Json::obj([
        ("artifact", Json::str(entry.hash.to_string())),
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
    ]))
}

fn lint_entry(entry: &Entry, warm: bool) -> RpcResult {
    let (count, report) = entry
        .lint()
        .as_ref()
        .map_err(|e| RpcError::new(code::BAD_ARTIFACT, e.clone()))?;
    Ok(Json::obj([
        ("artifact", Json::str(entry.hash.to_string())),
        ("kind", Json::str(entry.kind())),
        ("count", Json::Int(*count as i64)),
        ("diagnostics", Json::Raw(report.clone())),
        ("warm", Json::Bool(warm)),
    ]))
}

fn stats_json(s: &AnalysisStats) -> Json {
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

fn lasso_json(aut: &OmegaAutomaton, lasso: &Lasso) -> Json {
    let names = |syms: &[hierarchy_core::prelude::Symbol]| {
        Json::Arr(
            syms.iter()
                .map(|&s| Json::str(aut.alphabet().name(s)))
                .collect(),
        )
    };
    Json::obj([
        ("stem", names(lasso.spoke())),
        ("cycle", names(lasso.cycle())),
    ])
}

fn int_array(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Int(x as i64)).collect())
}

// ---- param helpers ---------------------------------------------------

fn require_str<'p>(params: &'p Json, key: &'static str) -> Result<&'p str, RpcError> {
    params.get(key).and_then(Json::as_str).ok_or_else(|| {
        RpcError::new(
            code::INVALID_PARAMS,
            format!("missing string param {key:?}"),
        )
    })
}

fn optional_str<'p>(params: &'p Json, key: &'static str) -> Result<Option<&'p str>, RpcError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or_else(|| {
            RpcError::new(
                code::INVALID_PARAMS,
                format!("param {key:?} must be a string"),
            )
        }),
    }
}

/// Reads the alphabet from `props` (proposition names, ≤ 6) or
/// `letters` (symbol names); exactly one must be present.
fn params_alphabet(params: &Json) -> Result<Alphabet, RpcError> {
    let names = |v: &Json| -> Result<Vec<String>, RpcError> {
        v.as_arr()
            .map(|xs| {
                xs.iter()
                    .map(|x| x.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
            })
            .and_then(|o| o)
            .ok_or_else(|| {
                RpcError::new(code::INVALID_PARAMS, "alphabet must be an array of strings")
            })
    };
    match (params.get("props"), params.get("letters")) {
        (Some(p), None) => Alphabet::of_propositions(names(p)?)
            .map_err(|e| RpcError::new(code::INVALID_PARAMS, e.to_string())),
        (None, Some(l)) => {
            Alphabet::new(names(l)?).map_err(|e| RpcError::new(code::INVALID_PARAMS, e.to_string()))
        }
        _ => Err(RpcError::new(
            code::INVALID_PARAMS,
            "exactly one of props / letters is required",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest_formula(svc: &Service, source: &str) -> String {
        let req = format!(
            "{{\"id\":1,\"method\":\"ingest\",\"params\":{{\"kind\":\"formula\",\"props\":[\"p\",\"q\"],\"source\":{}}}}}",
            Json::str(source)
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        resp.get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str)
            .expect("ingest must succeed")
            .to_string()
    }

    #[test]
    fn ingest_then_classify_round_trip() {
        let svc = Service::new(8, 1);
        let hash = ingest_formula(&svc, "G F p");
        let req =
            format!("{{\"id\":2,\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}");
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").expect("classify succeeds");
        assert_eq!(
            result.get("class").and_then(Json::as_str),
            Some("recurrence")
        );
        assert_eq!(result.get("borel").and_then(Json::as_str), Some("Π₂"));
        assert_eq!(result.get("warm").and_then(Json::as_bool), Some(false));
        // Second classify is warm and costs no SCC passes.
        let resp2 = Json::parse(&svc.handle_line(&req)).unwrap();
        let result2 = resp2.get("result").unwrap();
        assert_eq!(result2.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(
            result2
                .get("stats")
                .and_then(|s| s.get("scc_passes"))
                .and_then(Json::as_int),
            Some(0)
        );
    }

    /// A warm repeat does no analysis work: after one cold `classify`,
    /// `lint`, `include` and `audit` over the entries, repeating them adds
    /// no SCC pass, inclusion check or product to any entry's
    /// `stats_total()`, and the warm `classify` and `audit` `stats`
    /// blocks read zero work.
    #[test]
    fn warm_repeats_add_no_analysis_work() {
        let svc = Service::new(8, 1);
        let hashes: Vec<String> = ["G p", "F p", "G (p -> F q)", "G F p & F G q"]
            .iter()
            .map(|f| ingest_formula(&svc, f))
            .collect();
        let mut requests = Vec::new();
        for (i, h) in hashes.iter().enumerate() {
            let next = &hashes[(i + 1) % hashes.len()];
            requests.push(format!(
                "{{\"method\":\"classify\",\"params\":{{\"artifact\":\"{h}\"}}}}"
            ));
            requests.push(format!(
                "{{\"method\":\"lint\",\"params\":{{\"artifact\":\"{h}\"}}}}"
            ));
            requests.push(format!(
                "{{\"method\":\"include\",\"params\":{{\"lhs\":\"{h}\",\"rhs\":\"{next}\"}}}}"
            ));
        }
        let list = hashes
            .iter()
            .map(|h| format!("\"{h}\""))
            .collect::<Vec<_>>();
        requests.push(format!(
            "{{\"method\":\"audit\",\"params\":{{\"artifacts\":[{}]}}}}",
            list.join(",")
        ));
        let work = || {
            let mut store = svc.store();
            hashes
                .iter()
                .map(|h| {
                    let s = store.resolve(ArtifactHash::parse(h).unwrap()).unwrap();
                    let s = s.analysis().unwrap().stats_total();
                    (s.scc_passes, s.inclusion_checks, s.products_built)
                })
                .collect::<Vec<_>>()
        };
        for req in &requests {
            assert!(svc.handle_line(req).contains("\"result\""), "{req}");
        }
        let cold = work();
        assert!(cold.iter().any(|&(passes, _, _)| passes > 0));
        for req in &requests {
            let resp = Json::parse(&svc.handle_line(req)).unwrap();
            let result = resp.get("result").expect("warm repeat succeeds");
            if let Some(stats) = result.get("stats") {
                for field in [
                    "scc_passes",
                    "scc_state_visits",
                    "products_built",
                    "inclusion_checks",
                ] {
                    assert_eq!(
                        stats.get(field).and_then(Json::as_int),
                        Some(0),
                        "{field} of {req}"
                    );
                }
            }
            assert_eq!(work(), cold, "a warm {req} did analysis work");
        }
    }

    #[test]
    fn alpha_equivalent_formulas_dedup() {
        let svc = Service::new(8, 1);
        let h1 = ingest_formula(&svc, "G (p -> F q)");
        let h2 = ingest_formula(&svc, "G (F q | !p)");
        assert_eq!(h1, h2, "α-equivalent formulas share one artifact");
        let resp = Json::parse(&svc.handle_line("{\"id\":3,\"method\":\"stats\"}")).unwrap();
        let result = resp.get("result").unwrap();
        assert_eq!(result.get("entries").and_then(Json::as_int), Some(1));
        assert_eq!(result.get("dedup_hits").and_then(Json::as_int), Some(1));
    }

    #[test]
    fn error_codes() {
        let svc = Service::new(8, 1);
        let cases = [
            ("not json", code::PARSE),
            ("{\"id\":1}", code::INVALID_REQUEST),
            ("{\"id\":1,\"method\":\"nope\"}", code::UNKNOWN_METHOD),
            ("{\"id\":1,\"method\":\"classify\"}", code::INVALID_PARAMS),
            (
                "{\"id\":1,\"method\":\"classify\",\"params\":{\"artifact\":\"00000000000000000000000000000000\"}}",
                code::UNKNOWN_ARTIFACT,
            ),
            (
                "{\"id\":1,\"method\":\"ingest\",\"params\":{\"kind\":\"automaton\",\"hoa\":\"garbage\"}}",
                code::BAD_ARTIFACT,
            ),
        ];
        for (line, want) in cases {
            let resp = Json::parse(&svc.handle_line(line)).unwrap();
            let got = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_int);
            assert_eq!(got, Some(want), "for request {line:?}");
        }
    }

    #[test]
    fn include_and_kind_mismatch() {
        let svc = Service::new(8, 1);
        let gfp = ingest_formula(&svc, "G F p");
        let gp = ingest_formula(&svc, "G p");
        let req = format!(
            "{{\"id\":1,\"method\":\"include\",\"params\":{{\"lhs\":\"{gp}\",\"rhs\":\"{gfp}\"}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").unwrap();
        assert_eq!(result.get("included").and_then(Json::as_bool), Some(true));
        assert_eq!(
            result.get("equivalent").and_then(Json::as_bool),
            Some(false)
        );
        // Reverse direction fails; the counterexample lasso only comes
        // with "witness":true (the tour is opt-in).
        let req = format!(
            "{{\"id\":2,\"method\":\"include\",\"params\":{{\"lhs\":\"{gfp}\",\"rhs\":\"{gp}\"}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").unwrap();
        assert_eq!(result.get("included").and_then(Json::as_bool), Some(false));
        assert!(matches!(result.get("counterexample"), Some(Json::Null)));
        let req = format!(
            "{{\"id\":2,\"method\":\"include\",\"params\":{{\"lhs\":\"{gfp}\",\"rhs\":\"{gp}\",\"witness\":true}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").unwrap();
        assert!(result
            .get("counterexample")
            .map(|c| !matches!(c, Json::Null))
            .unwrap_or(false));
        // Program vs automaton in include → kind mismatch.
        let resp = Json::parse(
            &svc.handle_line(
                "{\"id\":3,\"method\":\"ingest\",\"params\":{\"kind\":\"program\",\"name\":\"peterson\"}}",
            ),
        )
        .unwrap();
        let prog = resp
            .get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let req = format!(
            "{{\"id\":4,\"method\":\"include\",\"params\":{{\"lhs\":\"{prog}\",\"rhs\":\"{gfp}\"}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_int),
            Some(code::KIND_MISMATCH)
        );
    }

    #[test]
    fn check_discharges_mutual_exclusion() {
        let svc = Service::new(8, 1);
        let resp = Json::parse(
            &svc.handle_line(
                "{\"id\":1,\"method\":\"ingest\",\"params\":{\"kind\":\"program\",\"name\":\"mux-sem\"}}",
            ),
        )
        .unwrap();
        let prog = resp
            .get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let resp = Json::parse(&svc.handle_line(
            "{\"id\":2,\"method\":\"ingest\",\"params\":{\"kind\":\"formula\",\"props\":[\"c1\",\"c2\",\"t1\",\"t2\"],\"source\":\"G !(c1 & c2)\"}}",
        ))
        .unwrap();
        let prop = resp
            .get("result")
            .and_then(|r| r.get("artifact"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let req = format!(
            "{{\"id\":3,\"method\":\"check\",\"params\":{{\"program\":\"{prog}\",\"property\":\"{prop}\",\"domain\":\"value-sets\"}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").expect("check succeeds");
        assert_eq!(result.get("verdict").and_then(Json::as_str), Some("holds"));
        let stats = result.get("stats").unwrap();
        assert_eq!(stats.get("discharged").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.get("product_states").and_then(Json::as_int), Some(0));
    }

    #[test]
    fn batch_matches_singles() {
        let svc = Service::new(8, 2);
        let h1 = ingest_formula(&svc, "G p");
        let h2 = ingest_formula(&svc, "F p");
        let req = format!(
            "{{\"id\":1,\"method\":\"classify_batch\",\"params\":{{\"artifacts\":[\"{h1}\",\"{h2}\"]}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let results = resp
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(Json::as_arr)
            .expect("batch succeeds")
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
    }

    /// Four `lint_batch` workers on one cold entry share its lint memo:
    /// every result carries the library's report, exactly one of them
    /// is the cold query, and a repeat batch answers four identical warm
    /// results.
    #[test]
    fn lint_batch_workers_share_one_lint_report() {
        let svc = Service::new(8, 2);
        let h = ingest_formula(&svc, "G (p -> F q)");
        let req = format!(
            "{{\"id\":1,\"method\":\"lint_batch\",\"params\":{{\"artifacts\":[\"{h}\",\"{h}\",\"{h}\",\"{h}\"]}}}}"
        );
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let aut = Property::parse(&sigma, "G (p -> F q)")
            .unwrap()
            .automaton()
            .clone();
        let diags = hierarchy_core::lint::lint_automaton_ctx(&Analysis::new(aut));
        let results = |line: &str| {
            let resp = Json::parse(&svc.handle_line(line)).unwrap();
            resp.get("result")
                .and_then(|r| r.get("results"))
                .and_then(Json::as_arr)
                .expect("lint batch succeeds")
                .to_vec()
        };
        let cold = results(&req);
        assert_eq!(cold.len(), 4);
        for r in &cold {
            assert_eq!(
                r.get("count").and_then(Json::as_int),
                Some(diags.len() as i64)
            );
            assert_eq!(
                r.get("diagnostics").map(Json::to_string),
                Some(report_to_json(&diags))
            );
        }
        let cold_count = cold
            .iter()
            .filter(|r| r.get("warm").and_then(Json::as_bool) == Some(false))
            .count();
        assert_eq!(cold_count, 1, "one worker made the first query");
        let warm = results(&req);
        let first = warm[0].to_string();
        assert!(first.contains("\"warm\":true"), "got {first}");
        assert!(warm.iter().all(|r| r.to_string() == first));
    }

    /// A panic while one request holds the store lock poisons the mutex;
    /// later requests recover the guard and go on answering.
    #[test]
    fn store_lock_recovers_from_poisoning() {
        let svc = Service::new(8, 1);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _store = svc.store();
            panic!("a request dies holding the store lock");
        }));
        assert!(died.is_err());
        assert!(svc.store.lock().is_err(), "mutex must actually be poisoned");

        let resp = Json::parse(&svc.handle_line("{\"id\":1,\"method\":\"stats\"}")).unwrap();
        assert_eq!(
            resp.get("result")
                .and_then(|r| r.get("entries"))
                .and_then(Json::as_int),
            Some(0)
        );
        let hash = ingest_formula(&svc, "G F p");
        let req =
            format!("{{\"id\":2,\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}");
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        assert_eq!(
            resp.get("result")
                .and_then(|r| r.get("class"))
                .and_then(Json::as_str),
            Some("recurrence")
        );
    }

    #[test]
    fn audit_reports_suite_findings_over_warm_entries() {
        let svc = Service::new(8, 2);
        let ga = ingest_formula(&svc, "G p");
        let fa = ingest_formula(&svc, "F p");
        let req = format!(
            "{{\"id\":1,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{ga}\",\"{fa}\"]}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").expect("audit succeeds");
        let members = result
            .get("members")
            .and_then(Json::as_arr)
            .expect("members array")
            .to_vec();
        assert_eq!(members.len(), 2);
        assert_eq!(
            members[0].get("class").and_then(Json::as_str),
            Some("safety")
        );
        assert_eq!(
            members[1].get("class").and_then(Json::as_str),
            Some("guarantee")
        );
        // G p ⊊ F p: one dominance edge, F p redundant (SUITE001).
        assert_eq!(
            result
                .get("dominance")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
        let fa_diags = members[1].get("diagnostics").map(Json::to_string).unwrap();
        assert!(fa_diags.contains("SUITE001"), "got {fa_diags}");
        assert_eq!(result.get("clean").and_then(Json::as_bool), Some(false));
        // Second audit runs on warm entries and reads the inclusion memo.
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        let result = resp.get("result").unwrap();
        let members = result.get("members").and_then(Json::as_arr).unwrap();
        assert!(members
            .iter()
            .all(|m| m.get("warm").and_then(Json::as_bool) == Some(true)));
        let hits = result
            .get("stats")
            .and_then(|s| s.get("inclusion_hits"))
            .and_then(Json::as_int)
            .unwrap();
        assert!(hits > 0, "warm re-audit must hit the inclusion memo");
    }

    #[test]
    fn audit_error_shapes() {
        let svc = Service::new(8, 1);
        let gp = ingest_formula(&svc, "G p");
        // Mixed alphabets → the operand-mismatch code.
        let other = Json::parse(&svc.handle_line(
            "{\"id\":1,\"method\":\"ingest\",\"params\":{\"kind\":\"formula\",\"props\":[\"r\"],\"source\":\"G r\"}}",
        ))
        .unwrap()
        .get("result")
        .and_then(|r| r.get("artifact"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
        let req = format!(
            "{{\"id\":2,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{gp}\",\"{other}\"]}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_int),
            Some(code::KIND_MISMATCH)
        );
        // A program artifact in the suite → the same kind-mismatch code.
        let prog = Json::parse(&svc.handle_line(
            "{\"id\":3,\"method\":\"ingest\",\"params\":{\"kind\":\"program\",\"name\":\"peterson\"}}",
        ))
        .unwrap()
        .get("result")
        .and_then(|r| r.get("artifact"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
        let req = format!(
            "{{\"id\":4,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{gp}\",\"{prog}\"]}}}}"
        );
        let resp = Json::parse(&svc.handle_line(&req)).unwrap();
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_int),
            Some(code::KIND_MISMATCH)
        );
        // Empty suite and bad cap → invalid params.
        for req in [
            "{\"id\":5,\"method\":\"audit\",\"params\":{\"artifacts\":[]}}".to_string(),
            format!(
                "{{\"id\":6,\"method\":\"audit\",\"params\":{{\"artifacts\":[\"{gp}\"],\"cap\":-1}}}}"
            ),
        ] {
            let resp = Json::parse(&svc.handle_line(&req)).unwrap();
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_int),
                Some(code::INVALID_PARAMS),
                "for request {req}"
            );
        }
    }

    /// The three list-taking methods turn a bad artifact list into the
    /// same error: a non-string element, a malformed hash and an unknown
    /// hash each get one code and message whichever method reads them.
    #[test]
    fn artifact_lists_fail_alike_across_methods() {
        let svc = Service::new(8, 1);
        let gp = ingest_formula(&svc, "G p");
        let unknown = "00112233445566778899aabbccddeeff";
        let cases = [
            (
                format!("[\"{gp}\",7]"),
                code::INVALID_PARAMS,
                "artifacts must be an array of hashes".to_string(),
            ),
            (
                format!("[\"{gp}\",\"zz\"]"),
                code::INVALID_PARAMS,
                "\"zz\" is not a 32-digit hex hash".to_string(),
            ),
            (
                format!("[\"{gp}\",\"{unknown}\"]"),
                code::UNKNOWN_ARTIFACT,
                format!("unknown artifact {unknown}"),
            ),
        ];
        for (list, want_code, want_message) in cases {
            for method in ["classify_batch", "lint_batch", "audit"] {
                let req = format!(
                    "{{\"id\":1,\"method\":\"{method}\",\"params\":{{\"artifacts\":{list}}}}}"
                );
                let resp = Json::parse(&svc.handle_line(&req)).unwrap();
                let error = resp
                    .get("error")
                    .unwrap_or_else(|| panic!("{method} {list}: {resp}"));
                assert_eq!(
                    error.get("code").and_then(Json::as_int),
                    Some(want_code),
                    "{method} {list}"
                );
                assert_eq!(
                    error.get("message").and_then(Json::as_str),
                    Some(want_message.as_str()),
                    "{method} {list}"
                );
            }
        }
    }

    /// Blank lines are skipped; `\r\n` ends a line like `\n`, and so
    /// does end-of-input; a line that is not UTF-8 gets one parse error
    /// and the loop goes on.
    #[test]
    fn serve_loop_and_eof() {
        let svc = Service::new(8, 1);
        let input = b"\n{\"id\":1,\"method\":\"stats\",\"params\":{\"x\":\"\xff\"}}\n\
                      \r\n{\"id\":2,\"method\":\"evict\",\"params\":{\"artifact\":\"zz\"}}\r\n\
                      {\"id\":7,\"method\":\"stats\"}";
        let mut out = Vec::new();
        svc.serve(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "blank lines skipped, one response each: {text}"
        );
        assert_eq!(
            lines[0],
            "{\"id\":null,\"error\":{\"code\":-32700,\"message\":\"parse error: \
             invalid utf-8 sequence of 1 bytes from index 40\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":2,\"error\":{\"code\":-32602,\"message\":\"artifact must be a \
             32-digit hex hash\"}}"
        );
        let last = Json::parse(lines[2]).unwrap();
        assert_eq!(last.get("id").and_then(Json::as_int), Some(7));
        assert!(last.get("result").is_some(), "{last}");
    }
}
