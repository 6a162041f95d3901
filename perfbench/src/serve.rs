//! The `spec-serve` workload `warm-query`: a closed loop of warm reads
//! on both connections against a preloaded daemon.

use crate::gen;
use crate::replay::Replay;
use crate::stats::{median, percentile};
use crate::wire::{self, Conn, Daemon};
use crate::{Args, Report};
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::hoa;
use hierarchy_core::automata::random::rng::{Rng, StdRng};
use hierarchy_core::fts::absint;
use hierarchy_core::fts::checker::verify;
use hierarchy_core::lint::{audit_suite_ctx, lint_automaton_ctx, AuditOptions};
use hierarchy_core::prelude::*;
use hierarchy_serve::json::Json;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Worker threads of the daemon's batches and of `spec-lint`'s fan-outs.
/// Two closed-loop connections already keep both cores busy, and
/// `--jobs 2` would spawn two scoped threads per `audit` and
/// `lint_batch` on top, which adds scheduling noise and no throughput.
/// A one-shot `spec-lint audit` on two workers finished a fifth sooner,
/// but its latencies then also followed the load on the other core.
pub const JOBS: usize = 1;

/// What a response must say. References come from independent library
/// paths computed before any timing starts (see [`reference_class`]
/// and [`reference_include`]).
#[derive(Clone)]
pub enum Expect {
    Ingest {
        hash: String,
        known: Option<bool>,
    },
    Classify {
        class: String,
        strictest: Option<String>,
    },
    Lint {
        count: i64,
    },
    Include {
        included: bool,
        equivalent: bool,
    },
    Audit {
        classes: Vec<String>,
        codes: String,
    },
    LintBatch {
        counts: Vec<i64>,
    },
    Stats {
        entries: Option<i64>,
    },
    Check {
        holds: bool,
    },
}

#[derive(Clone)]
pub struct Req {
    pub line: String,
    pub expect: Expect,
}

fn req(method: &str, params: Json, expect: Expect) -> Req {
    let line = Json::obj([
        ("id", Json::Int(0)),
        ("method", Json::str(method)),
        ("params", params),
    ])
    .to_string();
    Req { line, expect }
}

/// How one response compares with its expectation.
pub enum Outcome {
    Ok,
    /// An error response (counts as failed).
    Error(String),
    /// A wrong verdict (makes the run incorrect).
    Mismatch(String),
}

fn codes_of(diags: &Json) -> String {
    diags
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect::<Vec<_>>()
        .join(",")
}

/// Checks one response line against its expectation.
pub fn check(line: &str, expect: &Expect) -> Outcome {
    let resp = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return Outcome::Error(format!("malformed response: {e}")),
    };
    if let Some(err) = resp.get("error") {
        return Outcome::Error(err.to_string());
    }
    match resp.get("result") {
        Some(r) => check_result(r, expect),
        None => Outcome::Error(format!("no result: {line}")),
    }
}

/// Checks a response's `result` object against its expectation.
pub fn check_result(r: &Json, expect: &Expect) -> Outcome {
    let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("");
    let b = |k: &str| r.get(k).and_then(Json::as_bool);
    let ok = match expect {
        Expect::Ingest { hash, known } => {
            s("artifact") == hash && known.is_none_or(|k| b("known") == Some(k))
        }
        Expect::Classify { class, strictest } => {
            s("class") == class && strictest.as_ref().is_none_or(|c| s("strictest") == c)
        }
        Expect::Lint { count } => r.get("count").and_then(Json::as_int) == Some(*count),
        Expect::Include {
            included,
            equivalent,
        } => b("included") == Some(*included) && b("equivalent") == Some(*equivalent),
        Expect::Audit { classes, codes } => {
            let members = r.get("members").and_then(Json::as_arr).unwrap_or(&[]);
            members.len() == classes.len()
                && members
                    .iter()
                    .zip(classes)
                    .all(|(m, c)| m.get("class").and_then(Json::as_str) == Some(c.as_str()))
                && audit_codes(r) == *codes
        }
        Expect::LintBatch { counts } => {
            let results = r.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            results.len() == counts.len()
                && results
                    .iter()
                    .zip(counts)
                    .all(|(x, &c)| x.get("count").and_then(Json::as_int) == Some(c))
        }
        Expect::Stats { entries } => {
            entries.is_none_or(|e| r.get("entries").and_then(Json::as_int) == Some(e))
        }
        Expect::Check { holds } => s("verdict") == if *holds { "holds" } else { "violated" },
    };
    if ok {
        Outcome::Ok
    } else {
        Outcome::Mismatch(format!("unexpected result {r}"))
    }
}

/// Member and suite diagnostic codes of an audit result, one
/// `;`-separated group per member, then the suite group.
fn audit_codes(r: &Json) -> String {
    let members = r.get("members").and_then(Json::as_arr).unwrap_or(&[]);
    let mut groups: Vec<String> = members
        .iter()
        .map(|m| codes_of(m.get("diagnostics").unwrap_or(&Json::Null)))
        .collect();
    groups.push(codes_of(r.get("suite_diagnostics").unwrap_or(&Json::Null)));
    groups.join(";")
}

/// The class of `aut` from the raw (unquotiented) analysis path, as the
/// daemon's `class` field prints it.
pub fn reference_class(aut: &OmegaAutomaton) -> String {
    HierarchyClass::from_classification(Analysis::new_raw(aut.clone()).classification()).to_string()
}

/// `(included, equivalent)` from the complement-based construction.
pub fn reference_include(a: &OmegaAutomaton, b: &OmegaAutomaton) -> (bool, bool) {
    let included = a.is_subset_of_via_complement(b);
    (included, included && b.is_subset_of_via_complement(a))
}

/// One resident artifact of a warm set, with its references.
pub struct Art {
    pub hash: String,
    pub aut: OmegaAutomaton,
    pub class: String,
    pub strictest: Option<String>,
    pub lint: i64,
    pub ingest: Req,
}

/// A preloaded artifact set and the fixed request targets over it.
pub struct WarmSet {
    pub arts: Vec<Art>,
    pub pairs: Vec<(usize, usize, bool, bool)>,
    pub suite: Vec<usize>,
    pub suite_expect: Expect,
    pub batch: Vec<usize>,
    pub entries: i64,
    /// Set-up requests beyond the artifacts: a regex ingest and a
    /// catalogue program checked against a property, so the regex
    /// compiler, the store's program path and `fts` run too.
    pub extras: Vec<Req>,
}

fn hoa_art(aut: &OmegaAutomaton) -> Art {
    let text = hoa::omega_to_hoa(aut);
    let parsed = hoa::hoa_to_omega(&text).expect("printed HOA parses");
    let hash = parsed.content_hash().to_string();
    let ingest = req(
        "ingest",
        Json::obj([("kind", Json::str("automaton")), ("hoa", Json::str(text))]),
        Expect::Ingest {
            hash: hash.clone(),
            known: Some(false),
        },
    );
    Art {
        hash,
        class: reference_class(&parsed),
        strictest: None,
        lint: lint_automaton_ctx(&Analysis::new(parsed.clone())).len() as i64,
        aut: parsed,
        ingest,
    }
}

fn formula_ingest(props: &[&str], src: &str, known: Option<bool>) -> (Req, OmegaAutomaton) {
    let sigma = gen::props(props);
    let aut = Property::parse(&sigma, src)
        .expect("benchmark formulas compile")
        .automaton()
        .clone();
    let params = Json::obj([
        ("kind", Json::str("formula")),
        (
            "props",
            Json::Arr(props.iter().map(|p| Json::str(*p)).collect()),
        ),
        ("source", Json::str(src)),
    ]);
    let expect = Expect::Ingest {
        hash: aut.content_hash().to_string(),
        known,
    };
    (req("ingest", params, expect), aut)
}

fn formula_art(src: &str, label: &str) -> Art {
    let (ingest, aut) = formula_ingest(&["p", "q"], src, Some(false));
    Art {
        hash: aut.content_hash().to_string(),
        class: reference_class(&aut),
        strictest: Some(label.to_string()),
        lint: lint_automaton_ctx(&Analysis::new(aut.clone())).len() as i64,
        aut,
        ingest,
    }
}

/// Random Streett automata `(states, pairs, count)` over `p, q` plus
/// the paper's running examples, with include pairs, an 8-member audit
/// suite and a lint batch over them.
pub fn warm_set(
    rng: &mut StdRng,
    sizes: &[(usize, usize, usize)],
    pairs: usize,
    batch_stride: usize,
) -> WarmSet {
    let sigma = gen::props(&["p", "q"]);
    let mut arts: Vec<Art> = Vec::new();
    // Size class of each artifact: an index into `sizes`, or
    // `sizes.len()` for the paper formulas.
    let mut class_of = Vec::new();
    for (class, &(n, k, count)) in sizes.iter().enumerate() {
        let mut made = 0;
        while made < count {
            let aut = gen::streett(rng, &sigma, n, k);
            let ctx = Analysis::new(aut.clone());
            // Empty and universal draws would alias each other in the
            // store; every preloaded artifact is a distinct language.
            if ctx.is_empty() || ctx.is_universal() {
                continue;
            }
            arts.push(hoa_art(&aut));
            class_of.push(class);
            made += 1;
        }
    }
    let randoms = arts.len();
    for (label, src) in gen::paper_formulas() {
        arts.push(formula_art(&src, &label));
        class_of.push(sizes.len());
    }
    // Include pairs run through every combination of size classes in
    // turn, so each seed's pairs cost about the same.
    let of_class =
        |c: usize| -> Vec<usize> { (0..arts.len()).filter(|&i| class_of[i] == c).collect() };
    let combos: Vec<(usize, usize)> = (0..=sizes.len())
        .flat_map(|x| (x..=sizes.len()).map(move |y| (x, y)))
        .filter(|&(x, y)| x != y || of_class(x).len() > 1)
        .collect();
    let mut pair_list = Vec::new();
    while pair_list.len() < pairs {
        let (x, y) = combos[pair_list.len() % combos.len()];
        let (xs, ys) = (of_class(x), of_class(y));
        let a = xs[rng.gen_range(0..xs.len())];
        let b = ys[rng.gen_range(0..ys.len())];
        if a != b && !pair_list.iter().any(|&(x, y, _, _)| (x, y) == (a, b)) {
            let (inc, eq) = reference_include(&arts[a].aut, &arts[b].aut);
            pair_list.push((a, b, inc, eq));
        }
    }
    // The audit suite: four random automata and four paper formulas,
    // audited with `cap: 0`. The suite-conjunction folds behind the
    // deep SUITE001/SUITE004 checks are rebuilt on every audit, never
    // memoized; `audit-cli` measures them, and here the audit stays a
    // warm read of the inclusion memo.
    let suite: Vec<usize> = (0..4.min(randoms)).chain(randoms..randoms + 4).collect();
    let ctxs: Vec<Analysis> = suite
        .iter()
        .map(|&i| Analysis::new(arts[i].aut.clone()))
        .collect();
    let items: Vec<(&str, &Analysis)> = suite
        .iter()
        .zip(&ctxs)
        .map(|(&i, c)| (arts[i].hash.as_str(), c))
        .collect();
    let library = audit_suite_ctx(
        &items,
        &AuditOptions {
            jobs: JOBS,
            conjunction_cap: 0,
        },
    )
    .expect("one alphabet");
    let mut groups: Vec<String> = library
        .member_diagnostics
        .iter()
        .map(|d| d.iter().map(|x| x.code).collect::<Vec<_>>().join(","))
        .collect();
    groups.push(
        library
            .suite_diagnostics
            .iter()
            .map(|x| x.code)
            .collect::<Vec<_>>()
            .join(","),
    );
    let suite_expect = Expect::Audit {
        classes: suite
            .iter()
            .map(|&i| {
                Analysis::new_raw(arts[i].aut.clone())
                    .classification()
                    .strictest_class_name()
                    .to_string()
            })
            .collect(),
        codes: groups.join(";"),
    };
    let batch: Vec<usize> = (0..arts.len()).step_by(batch_stride).collect();
    let pattern = gen::regex(rng, 3);
    let mut extras = vec![req(
        "ingest",
        Json::obj([
            ("kind", Json::str("regex")),
            ("letters", Json::Arr(vec![Json::str("a"), Json::str("b")])),
            ("pattern", Json::str(pattern.clone())),
            ("operator", Json::str("R")),
        ]),
        Expect::Ingest {
            hash: gen::regex_automaton(&gen::letters(), &pattern, "R")
                .content_hash()
                .to_string(),
            known: Some(false),
        },
    )];
    extras.extend(program_check(rng));
    // The artifacts, the regex, the program and its property.
    let entries = arts.len() as i64 + 3;
    WarmSet {
        arts,
        pairs: pair_list,
        suite,
        suite_expect,
        batch,
        entries,
        extras,
    }
}

fn hashes(set: &WarmSet, idx: &[usize]) -> Json {
    Json::Arr(
        idx.iter()
            .map(|&i| Json::str(set.arts[i].hash.clone()))
            .collect(),
    )
}

fn classify_req(art: &Art) -> Req {
    req(
        "classify",
        Json::obj([("artifact", Json::str(art.hash.clone()))]),
        Expect::Classify {
            class: art.class.clone(),
            strictest: art.strictest.clone(),
        },
    )
}

fn lint_req(art: &Art) -> Req {
    req(
        "lint",
        Json::obj([("artifact", Json::str(art.hash.clone()))]),
        Expect::Lint { count: art.lint },
    )
}

fn include_req(set: &WarmSet, k: usize) -> Req {
    let (a, b, included, equivalent) = set.pairs[k];
    req(
        "include",
        Json::obj([
            ("lhs", Json::str(set.arts[a].hash.clone())),
            ("rhs", Json::str(set.arts[b].hash.clone())),
        ]),
        Expect::Include {
            included,
            equivalent,
        },
    )
}

fn audit_req(set: &WarmSet) -> Req {
    req(
        "audit",
        Json::obj([
            ("artifacts", hashes(set, &set.suite)),
            ("cap", Json::Int(0)),
        ]),
        set.suite_expect.clone(),
    )
}

fn lint_batch_req(set: &WarmSet) -> Req {
    req(
        "lint_batch",
        Json::obj([("artifacts", hashes(set, &set.batch))]),
        Expect::LintBatch {
            counts: set.batch.iter().map(|&i| set.arts[i].lint).collect(),
        },
    )
}

fn stats_req(entries: Option<i64>) -> Req {
    req("stats", Json::obj([]), Expect::Stats { entries })
}

/// Preload: every artifact's ingest, in order, then the extras.
pub fn preload(set: &WarmSet) -> Vec<Req> {
    set.arts
        .iter()
        .map(|a| a.ingest.clone())
        .chain(set.extras.iter().cloned())
        .collect()
}

/// A resubmission of a stored artifact: the hash dedup path.
fn reingest_req(art: &Art) -> Req {
    let mut r = art.ingest.clone();
    r.expect = Expect::Ingest {
        hash: art.hash.clone(),
        known: Some(true),
    };
    r
}

/// The warm-up pass: one request of every kind over every target,
/// starting with the resubmissions.
pub fn warm_up(set: &WarmSet, entries: Option<i64>) -> Vec<Req> {
    let mut out: Vec<Req> = set.arts.iter().map(reingest_req).collect();
    out.extend(set.arts.iter().map(classify_req));
    out.extend(set.arts.iter().map(lint_req));
    out.extend((0..set.pairs.len()).map(|k| include_req(set, k)));
    out.push(audit_req(set));
    out.push(lint_batch_req(set));
    out.push(stats_req(entries));
    out
}

/// The warm mix, dealt from shuffled decks of twenty so every twenty
/// requests hold exactly 7 classify, 5 lint, 5 include, 1 audit,
/// 1 lint_batch and 1 stats (35/25/25/5/5/5).
pub struct Mix {
    rng: StdRng,
    deck: Vec<u8>,
}

const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 4, 5];

impl Mix {
    pub fn new(rng: StdRng) -> Mix {
        Mix {
            rng,
            deck: Vec::new(),
        }
    }

    pub fn next(&mut self, set: &WarmSet, entries: Option<i64>) -> Req {
        if self.deck.is_empty() {
            self.deck = DECK.to_vec();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        let rng = &mut self.rng;
        match self.deck.pop().expect("refilled above") {
            0 => classify_req(&set.arts[rng.gen_range(0..set.arts.len())]),
            1 => lint_req(&set.arts[rng.gen_range(0..set.arts.len())]),
            2 => include_req(set, rng.gen_range(0..set.pairs.len())),
            3 => audit_req(set),
            4 => lint_batch_req(set),
            _ => stats_req(entries),
        }
    }
}

/// Properties the warm set's catalogue program is checked against,
/// with the observation alphabet every catalogue program uses.
const CHECK_PROPS: &[&str] = &["c1", "c2", "t1", "t2"];
const CHECK_PROPERTIES: &[&str] = &["G !(c1 & c2)", "G (t1 -> F c1)"];

/// A catalogue program checked against mutual exclusion or
/// accessibility; the explicit-state checker is the reference.
fn program_check(rng: &mut StdRng) -> Vec<Req> {
    let catalogue = absint::catalogue();
    let (name, program) = &catalogue[rng.gen_range(0..catalogue.len())];
    let property = CHECK_PROPERTIES[rng.gen_range(0..CHECK_PROPERTIES.len())];
    let (prop_ingest, prop_aut) = formula_ingest(CHECK_PROPS, property, None);
    let ts = program
        .to_builder(&gen::props(CHECK_PROPS))
        .build()
        .expect("catalogue programs build");
    let holds = verify(&ts, &prop_aut).expect("checkable").holds();
    let prog_hash = program.content_hash().to_string();
    vec![
        req(
            "ingest",
            Json::obj([("kind", Json::str("program")), ("name", Json::str(*name))]),
            Expect::Ingest {
                hash: prog_hash.clone(),
                known: None,
            },
        ),
        prop_ingest,
        req(
            "check",
            Json::obj([
                ("program", Json::str(prog_hash)),
                ("property", Json::str(prop_aut.content_hash().to_string())),
            ]),
            Expect::Check { holds },
        ),
    ]
}

// ---- running ------------------------------------------------------------

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Error(e) => {
                self.failed += 1;
                if self.mismatches.len() < 5 {
                    eprintln!("perfbench: error response: {e}");
                }
            }
            Outcome::Mismatch(m) => self.mismatches.push(m),
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
    }
}

/// Sends `reqs` in order on one connection, checking each response.
fn send_all(conn: &mut Conn, reqs: &[Req], tally: &mut Tally) -> Result<(), String> {
    for r in reqs {
        tally.record(check(conn.call(&r.line)?, &r.expect));
    }
    Ok(())
}

/// The store capacity: room for the whole warm set, so nothing is
/// evicted and every read stays warm.
const CAPACITY: usize = 128;

/// Spawn to listening, then preload and warm up over connection 0.
/// Returns the daemon, both connections and the seconds it took.
fn set_up(
    args: &Args,
    set: &WarmSet,
    tally: &mut Tally,
) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&args.bin_dir, CAPACITY, JOBS)?;
    let mut conns = vec![Conn::connect(&daemon.addr)?, Conn::connect(&daemon.addr)?];
    send_all(&mut conns[0], &preload(set), tally)?;
    send_all(&mut conns[0], &warm_up(set, Some(set.entries)), tally)?;
    Ok((daemon, conns, t.elapsed().as_secs_f64()))
}

/// One connection's closed loop until `deadline`: the next request goes
/// out when the previous response is in. Returns each request's
/// latency in milliseconds.
///
/// A warm daemon answers a repeated request with the same bytes (only
/// `stats` responses change), so a response equal to one already
/// checked for the same request line passes without being parsed again.
/// Parsing every response cost this client twice the CPU the daemon
/// spent serving it, on the same two cores, so the figures followed the
/// client.
fn run_loop(
    conn: &mut Conn,
    deadline: Instant,
    mut next: impl FnMut() -> Req,
) -> Result<(Vec<f64>, Tally), String> {
    let (mut lat, mut tally) = (Vec::new(), Tally::default());
    let mut checked: HashMap<String, String> = HashMap::new();
    while Instant::now() < deadline {
        let r = next();
        let t = Instant::now();
        let resp = conn.call(&r.line)?;
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        if checked.get(&r.line).is_some_and(|c| c == resp) {
            tally.record(Outcome::Ok);
            continue;
        }
        let outcome = check(resp, &r.expect);
        if matches!(outcome, Outcome::Ok) {
            checked.insert(r.line.clone(), resp.to_string());
        }
        tally.record(outcome);
    }
    Ok((lat, tally))
}

/// The inputs of one artifact set; `set` numbers the independent sets
/// a run measures.
pub fn plan(args: &Args, set: u64) -> WarmSet {
    let mut rng = gen::rng(args.seed, 0x5e7e + set);
    let sizes: &[(usize, usize, usize)] = if args.smoke {
        &[(48, 2, 2), (96, 3, 1), (192, 3, 1)]
    } else {
        &[(48, 2, 20), (96, 3, 12), (192, 3, 6)]
    };
    warm_set(&mut rng, sizes, if args.smoke { 4 } else { 24 }, 3)
}

/// Independent artifact sets per run. Each gets its own daemon, set-up
/// and a fifth of the timed phase; `setup_s` is the median of the five
/// set-ups, and the other figures pool the five timed phases.
const WARM_SETS: u64 = 5;

/// What one artifact set's set-up and timed phase measured.
struct SetRun {
    tally: Tally,
    setup_s: f64,
    /// Every timed request's latency (ms), both connections.
    lat: Vec<f64>,
    timed_s: f64,
    /// Daemon CPU over the timed phase.
    cpu_ms: f64,
    peak_rss_mb: f64,
}

/// The untraced run: [`WARM_SETS`] artifact sets one after another
/// (one under `--smoke`). Throughput and CPU per request are totals
/// over every timed phase, and the latency percentiles are over every
/// timed request: these vary less from run to run than medians of
/// one-second windows or of sets.
pub fn run(args: &Args) -> Result<Report, String> {
    let sets = if args.smoke { 1 } else { WARM_SETS };
    let runs = (0..sets)
        .map(|k| run_set(args, &plan(args, k), args.seconds / sets as f64))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tally = Tally::default();
    let (mut lat, mut setup_s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut timed_s, mut cpu_ms) = (0.0, 0.0);
    for r in runs {
        tally.merge(r.tally);
        lat.extend(r.lat);
        setup_s.push(r.setup_s);
        rss.push(r.peak_rss_mb);
        timed_s += r.timed_s;
        cpu_ms += r.cpu_ms;
    }
    let n = lat.len() as f64;
    let mut report = Report::new(tally.attempted, tally.failed, tally.mismatches);
    report.sample("lat", lat.len());
    report.sample("sets", setup_s.len());
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("ops_per_s", n / timed_s, "ops/s");
    report.e2e("lat_p50_ms", median(&lat), "ms");
    report.e2e("lat_p90_ms", percentile(&lat, 0.90), "ms");
    report.e2e("lat_p99_ms", percentile(&lat, 0.99), "ms");
    report.e2e("peak_rss_mb", median(&rss), "MiB");
    report.e2e("cpu_ms_per_op", cpu_ms / n.max(1.0), "ms");
    Ok(report)
}

/// Set-up, then the timed phase on both connections for `seconds`.
fn run_set(args: &Args, set: &WarmSet, seconds: f64) -> Result<SetRun, String> {
    let mut tally = Tally::default();
    let (daemon, mut conns, setup_s) = set_up(args, set, &mut tally)?;
    let pid = daemon.pid();
    let entries = Some(set.entries);
    let cpu0 = wire::cpu_ms(pid);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (a, b) = conns.split_at_mut(1);
    let (c0, c1) = (&mut a[0], &mut b[0]);
    let seed = args.seed;
    let (r0, r1) = std::thread::scope(|scope| {
        let h0 = scope.spawn(move || {
            let mut mix = Mix::new(gen::rng(seed, 0xc0));
            run_loop(c0, deadline, || mix.next(set, entries))
        });
        let h1 = scope.spawn(move || {
            let mut mix = Mix::new(gen::rng(seed, 0xc1));
            run_loop(c1, deadline, || mix.next(set, entries))
        });
        (
            h0.join().expect("connection thread"),
            h1.join().expect("connection thread"),
        )
    });
    let timed_s = start.elapsed().as_secs_f64();
    let cpu_ms = wire::cpu_ms(pid) - cpu0;
    let ((mut lat, t0), (l1, t1)) = (r0?, r1?);
    let peak_rss_mb = wire::peak_rss_mb(pid);
    drop(conns);
    daemon.stop();
    lat.extend(l1);
    tally.merge(t0);
    tally.merge(t1);
    Ok(SetRun {
        tally,
        setup_s,
        lat,
        timed_s,
        cpu_ms,
        peak_rss_mb,
    })
}

/// The deterministic replay script: set-up, then the timed mix with a
/// fixed length, alternating connections. Entries are `(connection,
/// request)`; the second value is where the timed mix starts.
pub fn script(args: &Args, set: &WarmSet) -> (Vec<(usize, Req)>, usize) {
    let mut out: Vec<(usize, Req)> = preload(set).into_iter().map(|r| (0, r)).collect();
    out.extend(warm_up(set, Some(set.entries)).into_iter().map(|r| (0, r)));
    let timed_from = out.len();
    let mut mix = Mix::new(gen::rng(args.seed, 0x7ace));
    let n = if args.smoke { 200 } else { 3000 };
    for i in 0..n {
        out.push((i % 2, mix.next(set, Some(set.entries))));
    }
    out.push((1, stats_req(None)));
    (out, timed_from)
}

/// The traced run: the script goes to the daemon in lock-step (one
/// request in flight at a time, alternating connections as scripted),
/// and then through the layers in-process with spans. The counters of
/// the two must agree exactly.
pub fn run_traced(args: &Args) -> Result<Report, String> {
    let set = plan(args, 0);
    let (script, timed_from) = script(args, &set);
    let mut tally = Tally::default();
    let daemon = Daemon::spawn(&args.bin_dir, CAPACITY, JOBS)?;
    let mut conns = vec![Conn::connect(&daemon.addr)?, Conn::connect(&daemon.addr)?];
    let mut wire_stats = WireStats::default();
    let mut served = Vec::with_capacity(script.len());
    for (c, r) in &script {
        let resp = conns[*c].call(&r.line)?;
        wire_stats.add(resp);
        tally.record(check(resp, &r.expect));
        served.push(resp.to_string());
    }
    drop(conns);
    daemon.stop();

    let mut replay = Replay::new(CAPACITY);
    let mut request_ms = Vec::new();
    for (i, ((_, r), resp)) in script.iter().zip(&served).enumerate() {
        let (result, ms) = replay.handle(&r.line, resp);
        if i >= timed_from {
            request_ms.push(ms);
        }
        let outcome = match result {
            Ok(result) => check_result(&result, &r.expect),
            Err(e) => Outcome::Error(e),
        };
        if let Outcome::Error(e) | Outcome::Mismatch(e) = &outcome {
            tally.mismatches.push(format!("replay: {e}"));
        }
    }
    let last = served.last().map_or("", String::as_str);
    let mut report = Report::new(tally.attempted, tally.failed, tally.mismatches);
    report.consistency(replay.compare(&wire_stats, last));
    report.note(format!(
        "sweep oracle calls per automaton ingest, by store entries: {}",
        replay.sweep_profile()
    ));
    report.trace_metrics(replay.finish(median(&request_ms)).metrics());
    Ok(report)
}

/// What the daemon itself reported over the script: the sum of every
/// response `stats` block.
#[derive(Default)]
pub struct WireStats {
    pub analysis: [i64; 7],
}

pub const ANALYSIS_FIELDS: [&str; 7] = [
    "scc_passes",
    "scc_state_visits",
    "scc_hits",
    "products_built",
    "product_hits",
    "inclusion_checks",
    "inclusion_hits",
];

impl WireStats {
    fn add(&mut self, line: &str) {
        let Ok(v) = Json::parse(line) else { return };
        if let Some(s) = v.get("result").and_then(|r| r.get("stats")) {
            for (k, f) in ANALYSIS_FIELDS.iter().enumerate() {
                self.analysis[k] += s.get(f).and_then(Json::as_int).unwrap_or(0);
            }
        }
    }
}
