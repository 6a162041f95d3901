//! The in-process replay of a `spec-serve` request script: every
//! request goes through the same public layer functions the daemon
//! calls, in the same order, with a span around each call. Because
//! the script is replayed one request at a time, the store and
//! analysis counters must equal what the daemon reported for the same
//! script. The replay's own results carry only the verdict fields the
//! correctness gate reads; the serialize span writes the daemon's
//! response to the same request, so it times the program's real
//! responses.

use crate::serve::{WireStats, ANALYSIS_FIELDS, JOBS};
use crate::trace::Trace;
use hierarchy_core::automata::analysis::{Analysis, AnalysisStats};
use hierarchy_core::automata::canonical::{structural_hash, ArtifactHash};
use hierarchy_core::automata::hoa;
use hierarchy_core::automata::minimize::minimize;
use hierarchy_core::fts::absint::{self, DomainKind};
use hierarchy_core::fts::checker::{check_with_invariants, Verdict};
use hierarchy_core::lang::{operators, FinitaryProperty};
use hierarchy_core::lint::{audit_suite_ctx, lint_automaton_ctx, AuditOptions, Diagnostic};
use hierarchy_core::prelude::*;
use hierarchy_serve::json::Json;
use hierarchy_serve::store::{Entry, Store};
use std::sync::Arc;
use std::time::Instant;

pub struct Replay {
    store: Store,
    pub trace: Trace,
    /// Every automaton entry the store ever created, kept alive so that
    /// the analysis totals still count evicted contexts.
    created: Vec<Arc<Entry>>,
    /// The `stats` blocks the daemon puts in its responses, summed.
    reported: AnalysisStats,
    automaton_ingests: u64,
    sweep_calls: u64,
    /// `(entries before the ingest, sweep oracle calls)` per automaton
    /// ingest.
    pub sweeps: Vec<(usize, u64)>,
    states_in: u64,
    states_out: u64,
}

pub fn add(a: AnalysisStats, b: AnalysisStats) -> AnalysisStats {
    AnalysisStats {
        scc_passes: a.scc_passes + b.scc_passes,
        scc_state_visits: a.scc_state_visits + b.scc_state_visits,
        scc_hits: a.scc_hits + b.scc_hits,
        products_built: a.products_built + b.products_built,
        product_hits: a.product_hits + b.product_hits,
        inclusion_checks: a.inclusion_checks + b.inclusion_checks,
        inclusion_hits: a.inclusion_hits + b.inclusion_hits,
    }
}

pub fn fields(s: &AnalysisStats) -> [u64; 7] {
    [
        s.scc_passes,
        s.scc_state_visits,
        s.scc_hits,
        s.products_built,
        s.product_hits,
        s.inclusion_checks,
        s.inclusion_hits,
    ]
}

/// Publishes analysis totals and the suite-audit ratios shared by every
/// workload's traced run.
pub fn analysis_counters(trace: &mut Trace, total: &AnalysisStats) {
    for (name, v) in [
        ("automata.analysis.scc_passes", total.scc_passes),
        ("automata.analysis.scc_state_visits", total.scc_state_visits),
        ("automata.analysis.scc_hits", total.scc_hits),
        ("automata.analysis.products_built", total.products_built),
        ("automata.analysis.product_hits", total.product_hits),
        ("automata.inclusion.checks", total.inclusion_checks),
        ("automata.inclusion.hits", total.inclusion_hits),
    ] {
        trace.set(name, v as f64);
    }
    let asked = (total.inclusion_checks + total.inclusion_hits) as f64;
    trace.set(
        "automata.inclusion.memo_hit_ratio",
        total.inclusion_hits as f64 / asked.max(1.0),
    );
    let pairs = trace.counter("lint.suite.pairs");
    let decided = trace.counter("lint.suite.hash_decided");
    trace.set("lint.suite.hash_decided_ratio", decided / pairs.max(1.0));
    let checks = trace.counter("fts.checks");
    let discharged = trace.counter("fts.discharged");
    trace.set("fts.discharge_ratio", discharged / checks.max(1.0));
}

type Rpc = Result<Json, String>;

impl Replay {
    pub fn new(capacity: usize) -> Replay {
        Replay {
            store: Store::new(capacity),
            trace: Trace::default(),
            created: Vec::new(),
            reported: AnalysisStats::default(),
            automaton_ingests: 0,
            sweep_calls: 0,
            sweeps: Vec::new(),
            states_in: 0,
            states_out: 0,
        }
    }

    /// Handles one request line, given the daemon's response line to it
    /// (`served`). Returns the replay's result and the request's
    /// in-process time in milliseconds (probes excluded).
    pub fn handle(&mut self, line: &str, served: &str) -> (Rpc, f64) {
        let response = Json::parse(served).expect("the daemon's responses were checked");
        let start = Instant::now();
        self.trace.add("serve.json.bytes_in", line.len() as f64);
        let request = self
            .trace
            .span("serve.json.parse", || Json::parse(line))
            .expect("scripted requests are valid JSON");
        let empty = Json::Obj(Vec::new());
        let params = request.get("params").unwrap_or(&empty);
        let method = request.get("method").and_then(Json::as_str).unwrap_or("");
        let mut probe_s = 0.0;
        let outcome = match method {
            "ingest" => self.ingest(params, &mut probe_s),
            "classify" => self.classify(params),
            "lint" => self.lint(params),
            "include" => self.include(params),
            "check" => self.check(params),
            "audit" => self.audit(params),
            "lint_batch" => self.lint_batch(params),
            "stats" => Ok(self.stats()),
            other => Err(format!("unscripted method {other}")),
        };
        let out = self
            .trace
            .span("serve.json.serialize", || response.to_string());
        std::hint::black_box(out);
        self.trace.add("serve.json.bytes_out", served.len() as f64);
        let ms = (start.elapsed().as_secs_f64() - probe_s) * 1e3;
        (outcome, ms)
    }

    fn resolve(&mut self, params: &Json, key: &str) -> Result<Arc<Entry>, String> {
        let hex = params.get(key).and_then(Json::as_str).unwrap_or("");
        let hash = ArtifactHash::parse(hex).ok_or("bad hash")?;
        let store = &mut self.store;
        self.trace
            .span("serve.store.resolve", || store.resolve(hash))
            .ok_or_else(|| format!("unknown artifact {hex}"))
    }

    fn analysis(entry: &Entry) -> Result<&Analysis, String> {
        entry
            .analysis()
            .ok_or_else(|| "not an automaton".to_string())
    }

    /// The minimization and canonical-hash probes, run beside the
    /// request on a copy of the ingested automaton.
    fn probe(&mut self, aut: &OmegaAutomaton, probe_s: &mut f64) {
        let t = Instant::now();
        let m = self.trace.span("automata.minimize", || minimize(aut));
        self.states_in += aut.num_states() as u64;
        self.states_out += m.quotient.num_states() as u64;
        self.trace
            .span("automata.canonical.hash", || structural_hash(aut));
        *probe_s += t.elapsed().as_secs_f64();
    }

    fn ingest(&mut self, params: &Json, probe_s: &mut f64) -> Rpc {
        let s = |k: &str| params.get(k).and_then(Json::as_str).unwrap_or("");
        let names = |k: &str| -> Vec<String> {
            params
                .get(k)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|x| x.as_str().map(str::to_string))
                .collect()
        };
        let (aut, origin) = match s("kind") {
            "automaton" => {
                let src = s("hoa");
                let aut = self
                    .trace
                    .span("automata.hoa.parse", || hoa::hoa_to_omega(src))
                    .map_err(|e| e.to_string())?;
                (aut, "hoa")
            }
            "formula" => {
                let sigma = Alphabet::of_propositions(names("props")).map_err(|e| e.to_string())?;
                let src = s("source");
                let prop = self
                    .trace
                    .span("logic.compile", || Property::parse(&sigma, src))
                    .map_err(|e| e.to_string())?;
                (prop.automaton().clone(), "formula")
            }
            "regex" => {
                let sigma = Alphabet::new(names("letters")).map_err(|e| e.to_string())?;
                let (pattern, op) = (s("pattern"), s("operator"));
                let aut = self.trace.span("lang.compile", || {
                    FinitaryProperty::parse(&sigma, pattern).map(|phi| match op {
                        "E" => operators::e(&phi),
                        "R" => operators::r(&phi),
                        "P" => operators::p(&phi),
                        _ => operators::a(&phi),
                    })
                });
                (aut.map_err(|e| e.to_string())?, "regex")
            }
            "program" => {
                let name = s("name");
                let program = absint::catalogue()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, p)| p)
                    .ok_or("unknown program")?;
                let store = &mut self.store;
                let ingested = self
                    .trace
                    .span("serve.store.ingest", || store.ingest_program(program));
                return Ok(ingest_json(&ingested.hash, ingested.known));
            }
            other => return Err(format!("kind {other}")),
        };
        self.probe(&aut, probe_s);
        let before: Vec<(Arc<Entry>, u64)> = self
            .store
            .list()
            .into_iter()
            .filter_map(|e| {
                let checks = e.analysis()?.stats_total().inclusion_checks;
                Some((e, checks))
            })
            .collect();
        let occupancy = self.store.len();
        let store = &mut self.store;
        let ingested = self
            .trace
            .span("serve.store.ingest", || store.ingest_automaton(aut, origin));
        let calls = before
            .iter()
            .map(|(e, c)| Self::analysis(e).map_or(0, |a| a.stats_total().inclusion_checks - c))
            .sum::<u64>();
        self.automaton_ingests += 1;
        self.sweep_calls += calls;
        self.sweeps.push((occupancy, calls));
        if !ingested.known {
            self.created.push(Arc::clone(&ingested.entry));
        }
        Ok(ingest_json(&ingested.hash, ingested.known))
    }

    fn classify(&mut self, params: &Json) -> Rpc {
        let entry = self.resolve(params, "artifact")?;
        Store::record_query(&entry);
        let ctx = Self::analysis(&entry)?;
        let before = ctx.stats_total();
        let c = self.trace.span("automata.analysis.classify", || {
            ctx.classification().clone()
        });
        let delta = ctx.stats_total().delta_since(before);
        self.reported = add(self.reported, delta);
        Ok(Json::obj([
            (
                "class",
                Json::str(HierarchyClass::from_classification(&c).to_string()),
            ),
            ("strictest", Json::str(c.strictest_class_name())),
        ]))
    }

    fn lint_one(&mut self, entry: &Entry) -> Rpc {
        Store::record_query(entry);
        let ctx = Self::analysis(entry)?;
        let diags = self
            .trace
            .span("lint.automaton", || lint_automaton_ctx(ctx));
        self.trace
            .add("lint.automaton.diagnostics", diags.len() as f64);
        Ok(Json::obj([("count", Json::Int(diags.len() as i64))]))
    }

    fn lint(&mut self, params: &Json) -> Rpc {
        let entry = self.resolve(params, "artifact")?;
        self.lint_one(&entry)
    }

    fn include(&mut self, params: &Json) -> Rpc {
        let lhs = self.resolve(params, "lhs")?;
        let rhs = self.resolve(params, "rhs")?;
        Store::record_query(&lhs);
        Store::record_query(&rhs);
        let (a, b) = (Self::analysis(&lhs)?, Self::analysis(&rhs)?);
        let included = self.trace.span("automata.inclusion.include", || {
            a.is_subset_of(b.automaton())
        });
        let equivalent = included
            && self.trace.span("automata.inclusion.include", || {
                b.is_subset_of(a.automaton())
            });
        Ok(Json::obj([
            ("included", Json::Bool(included)),
            ("equivalent", Json::Bool(equivalent)),
        ]))
    }

    fn check(&mut self, params: &Json) -> Rpc {
        let prog = self.resolve(params, "program")?;
        let prop = self.resolve(params, "property")?;
        Store::record_query(&prog);
        Store::record_query(&prop);
        let program = prog.program().ok_or("not a program")?;
        let property = Self::analysis(&prop)?.automaton();
        let sigma = property.alphabet().clone();
        let (verdict, stats) = self
            .trace
            .span("fts.check", || {
                check_with_invariants(program, &sigma, property, DomainKind::Relational)
            })
            .map_err(|e| e.to_string())?;
        self.trace.add("fts.checks", 1.0);
        self.trace
            .add("fts.product_states", stats.product_states as f64);
        self.trace
            .add("fts.discharged", f64::from(u8::from(stats.discharged)));
        let holds = matches!(verdict, Verdict::Holds);
        Ok(Json::obj([(
            "verdict",
            Json::str(if holds { "holds" } else { "violated" }),
        )]))
    }

    fn entries(&mut self, params: &Json) -> Result<Vec<Arc<Entry>>, String> {
        let hexes: Vec<Json> = params
            .get("artifacts")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec();
        hexes
            .iter()
            .map(|h| self.resolve(&Json::obj([("h", h.clone())]), "h"))
            .collect()
    }

    fn audit(&mut self, params: &Json) -> Rpc {
        let entries = self.entries(params)?;
        for e in &entries {
            Store::record_query(e);
        }
        let names: Vec<String> = entries.iter().map(|e| e.hash.to_string()).collect();
        let mut items = Vec::with_capacity(entries.len());
        for (name, e) in names.iter().zip(&entries) {
            items.push((name.as_str(), Self::analysis(e)?));
        }
        let cap = params.get("cap").and_then(Json::as_int);
        let opts = AuditOptions {
            jobs: JOBS,
            conjunction_cap: cap.map_or(AuditOptions::default().conjunction_cap, |c| c as usize),
        };
        let audit = self
            .trace
            .span("lint.suite.audit", || audit_suite_ctx(&items, &opts))
            .map_err(|e| e.to_string())?;
        record_audit(&mut self.trace, &audit);
        self.reported = add(self.reported, audit.stats);
        let members: Vec<Json> = (0..audit.names.len())
            .map(|i| {
                Json::obj([
                    ("class", Json::str(audit.classes[i])),
                    ("diagnostics", codes_json(&audit.member_diagnostics[i])),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("members", Json::Arr(members)),
            ("suite_diagnostics", codes_json(&audit.suite_diagnostics)),
        ]))
    }

    fn lint_batch(&mut self, params: &Json) -> Rpc {
        let entries = self.entries(params)?;
        let mut results = Vec::with_capacity(entries.len());
        for e in &entries {
            results.push(self.lint_one(e)?);
        }
        Ok(Json::obj([("results", Json::Arr(results))]))
    }

    fn stats(&self) -> Json {
        let s = self.store.stats();
        Json::obj([
            ("capacity", Json::Int(self.store.capacity() as i64)),
            ("entries", Json::Int(self.store.len() as i64)),
            ("ingests", Json::Int(s.ingests as i64)),
            ("dedup_hits", Json::Int(s.dedup_hits as i64)),
            ("hits", Json::Int(s.hits as i64)),
            ("misses", Json::Int(s.misses as i64)),
            ("evictions", Json::Int(s.evictions as i64)),
        ])
    }

    /// Differences between the replay's counters and the daemon's for
    /// the same script: the summed response `stats` blocks, and the
    /// final `stats` response (`last`).
    pub fn compare(&self, wire: &WireStats, last: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (k, (mine, theirs)) in fields(&self.reported).iter().zip(wire.analysis).enumerate() {
            if *mine as i64 != theirs {
                out.push(format!(
                    "analysis {}: replay {mine}, daemon {theirs}",
                    ANALYSIS_FIELDS[k]
                ));
            }
        }
        let daemon = Json::parse(last).ok();
        let daemon = daemon.as_ref().and_then(|v| v.get("result"));
        let mine = self.stats();
        for key in [
            "entries",
            "ingests",
            "dedup_hits",
            "hits",
            "misses",
            "evictions",
        ] {
            let theirs = daemon.and_then(|d| d.get(key)).and_then(Json::as_int);
            let ours = mine.get(key).and_then(Json::as_int);
            if theirs != ours {
                out.push(format!("store {key}: replay {ours:?}, daemon {theirs:?}"));
            }
        }
        out
    }

    /// Sweep oracle calls per automaton ingest by store occupancy, in
    /// buckets of eight entries: `entries lo-hi: calls/ingest (ingests)`.
    pub fn sweep_profile(&self) -> String {
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        for &(occupancy, calls) in &self.sweeps {
            let b = occupancy / 8;
            if buckets.len() <= b {
                buckets.resize(b + 1, (0, 0));
            }
            buckets[b].0 += calls;
            buckets[b].1 += 1;
        }
        buckets
            .iter()
            .enumerate()
            .filter(|(_, &(_, n))| n > 0)
            .map(|(b, &(calls, n))| {
                format!(
                    "{}-{}: {:.1} ({n})",
                    b * 8,
                    b * 8 + 7,
                    calls as f64 / n as f64
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Publishes every counter and returns the trace.
    pub fn finish(mut self, request_ms_p50: f64) -> Trace {
        let s = self.store.stats();
        for (name, v) in [
            ("serve.store.ingests", s.ingests),
            ("serve.store.dedup_hits", s.dedup_hits),
            ("serve.store.hits", s.hits),
            ("serve.store.misses", s.misses),
            ("serve.store.evictions", s.evictions),
            ("serve.store.entries", self.store.len() as u64),
        ] {
            self.trace.set(name, v as f64);
        }
        self.trace.set(
            "serve.store.dedup_ratio",
            s.dedup_hits as f64 / (s.ingests as f64).max(1.0),
        );
        self.trace.set(
            "serve.store.sweep_calls_per_ingest",
            self.sweep_calls as f64 / (self.automaton_ingests as f64).max(1.0),
        );
        self.trace.set(
            "automata.minimize.state_ratio",
            self.states_out as f64 / (self.states_in as f64).max(1.0),
        );
        let total = self
            .created
            .iter()
            .filter_map(|e| e.analysis())
            .map(Analysis::stats_total)
            .fold(AnalysisStats::default(), add);
        analysis_counters(&mut self.trace, &total);
        self.trace.set("trace.request_ms_p50", request_ms_p50);
        self.trace
    }
}

/// Suite-audit counters of one audit.
pub fn record_audit(trace: &mut Trace, audit: &hierarchy_core::lint::SuiteAudit) {
    trace.add("lint.suite.pairs", audit.prefilter.pairs as f64);
    trace.add(
        "lint.suite.hash_decided",
        audit.prefilter.hash_decided as f64,
    );
    trace.add(
        "lint.suite.oracle_calls",
        audit.prefilter.oracle_calls as f64,
    );
    trace.add(
        "lint.suite.deep_checks_skipped",
        audit.deep_checks_skipped as f64,
    );
}

fn ingest_json(hash: &ArtifactHash, known: bool) -> Json {
    Json::obj([
        ("artifact", Json::str(hash.to_string())),
        ("known", Json::Bool(known)),
    ])
}

/// Diagnostics as the daemon lists them, reduced to their codes.
fn codes_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(
        diags
            .iter()
            .map(|d| Json::obj([("code", Json::str(d.code))]))
            .collect(),
    )
}
