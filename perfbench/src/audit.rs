//! The `audit-cli` workload: sequential one-shot `spec-lint audit`
//! processes, one per seeded suite, with no daemon anywhere.

use crate::gen;
use crate::replay::{add, analysis_counters, fields, record_audit};
use crate::serve::{ANALYSIS_FIELDS, JOBS};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::wire;
use crate::{Args, Report};
use hierarchy_core::automata::analysis::{Analysis, AnalysisStats};
use hierarchy_core::automata::canonical::structural_hash;
use hierarchy_core::automata::minimize::minimize;
use hierarchy_core::automata::random::rng::{Rng, StdRng};
use hierarchy_core::lint::{audit_suite, AuditOptions};
use hierarchy_core::prelude::*;
use hierarchy_serve::json::Json;
use std::process::Command;
use std::time::{Duration, Instant};

const PROPS: &[&str] = &["p", "q", "r"];

/// The `--cap` every audit runs with: `0` turns off the deep
/// `SUITE001`/`SUITE004` checks over the folded suite conjunction. With
/// them on, a few seeded suites per pool spend most of the run in the
/// class-overkill check, whose classification walks a lattice
/// exponential in the acceptance atoms of the relative automaton (and
/// panics past 16 atoms), so the figures would follow those few suites.
/// Without them, compile, classification and the inclusion matrix are
/// the work, and `SUITE001` still fires through the matrix.
const CAP: usize = 0;

/// One seeded suite with its references.
pub struct Suite {
    members: Vec<String>,
    /// Strictest class per member, from the raw analysis path.
    classes: Vec<String>,
    /// The hand-written label, for members taken from
    /// `expected_classes.txt`.
    labels: Vec<Option<String>>,
    /// The α-variant of an earlier member: must fire `SUITE002`.
    duplicate: usize,
    /// A disjunction with another member: must fire `SUITE001`.
    implied: usize,
}

fn compile(sigma: &Alphabet, src: &str) -> OmegaAutomaton {
    gen::compile_quietly(sigma, src)
        .expect("suite members compile")
        .automaton()
        .clone()
}

/// A suite of `size` members (at least 8): two paper formulas, an
/// α-variant pair, a contradictory pair (`SUITE003`), a disjunction
/// implied by another member (`SUITE001`), and random formulas.
pub fn suite(rng: &mut StdRng, size: usize) -> Suite {
    let sigma = gen::props(PROPS);
    let paper = gen::paper_formulas();
    loop {
        let mut members: Vec<(String, Option<String>)> = Vec::new();
        for _ in 0..2 {
            let (label, src) = &paper[rng.gen_range(0..paper.len())];
            members.push((src.clone(), Some(label.clone())));
        }
        let (base, variant) = gen::ALPHA_VARIANTS[rng.gen_range(0..gen::ALPHA_VARIANTS.len())];
        members.push((base.to_string(), None));
        while members.len() < size - 4 {
            members.push((gen::formula(rng, &sigma, 6).0, None));
        }
        let p = PROPS[rng.gen_range(0..PROPS.len())];
        members.push((format!("G F {p}"), None));
        members.push((format!("F G !{p}"), None));
        let auts: Vec<OmegaAutomaton> = members.iter().map(|(s, _)| compile(&sigma, s)).collect();
        // The implied member `(x) | (y)` must not be language-equal to
        // any member, or `SUITE002` would claim it instead of `SUITE001`.
        let mut implied = None;
        for _ in 0..20 {
            let x = rng.gen_range(0..members.len());
            let y = rng.gen_range(0..members.len());
            let src = format!("({}) | ({})", members[x].0, members[y].0);
            let ctx = Analysis::new(compile(&sigma, &src));
            if auts.iter().all(|a| !ctx.equivalent(a)) {
                implied = Some(src);
                break;
            }
        }
        let Some(implied) = implied else { continue };
        members.push((implied, None));
        members.push((variant.to_string(), None));
        let named: Vec<(String, OmegaAutomaton)> = members
            .iter()
            .map(|(s, _)| (s.clone(), compile(&sigma, s)))
            .collect();
        let opts = AuditOptions {
            jobs: 1,
            conjunction_cap: CAP,
        };
        if gen::quietly(|| audit_suite(&named, &opts)).is_none() {
            continue;
        }
        let classes = named
            .iter()
            .map(|(_, aut)| {
                Analysis::new_raw(aut.clone())
                    .classification()
                    .strictest_class_name()
                    .to_string()
            })
            .collect();
        let n = members.len();
        let (members, labels) = members.into_iter().unzip();
        return Suite {
            members,
            classes,
            labels,
            duplicate: n - 1,
            implied: n - 2,
        };
    }
}

/// The suite pool a run cycles through: four suites of each size from 8
/// to 32 members. With sizes in steps of 4, the latencies fell into
/// seven clusters and the median moved between two of them.
pub fn pool(args: &Args) -> Vec<Suite> {
    let mut rng = gen::rng(args.seed, 0xa0d1);
    let sizes: Vec<usize> = if args.smoke {
        vec![8, 16]
    } else {
        (8..=32).flat_map(|s| [s; 4]).collect()
    };
    sizes.into_iter().map(|s| suite(&mut rng, s)).collect()
}

fn spec_lint(args: &Args, members: &[String]) -> Result<(f64, i32, String), String> {
    let t = Instant::now();
    let out = Command::new(args.bin_dir.join("spec-lint"))
        .args(["audit", "--json", "--props", &PROPS.join(",")])
        .args(["--jobs", &JOBS.to_string(), "--cap", &CAP.to_string()])
        .args(members)
        .output()
        .map_err(|e| format!("cannot run spec-lint: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let code = out.status.code().unwrap_or(-1);
    Ok((ms, code, String::from_utf8_lossy(&out.stdout).into_owned()))
}

fn codes(diags: Option<&Json>) -> Vec<String> {
    diags
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Checks one audit report; `Err` is a wrong verdict.
fn check(suite: &Suite, stdout: &str) -> Result<Json, String> {
    let report = Json::parse(stdout.trim()).map_err(|e| format!("audit JSON: {e}"))?;
    let members = report
        .get("members")
        .and_then(Json::as_arr)
        .ok_or("audit JSON has no members")?;
    if members.len() != suite.members.len() {
        return Err(format!("{} members reported", members.len()));
    }
    for (i, m) in members.iter().enumerate() {
        let class = m.get("class").and_then(Json::as_str).unwrap_or("");
        if class != suite.classes[i] || suite.labels[i].as_deref().is_some_and(|l| l != class) {
            return Err(format!("member {:?} classified {class}", suite.members[i]));
        }
    }
    let has = |i: usize, code: &str| {
        codes(members[i].get("diagnostics"))
            .iter()
            .any(|c| c == code)
    };
    if !has(suite.duplicate, "SUITE002") {
        return Err("the α-variant did not fire SUITE002".into());
    }
    if !has(suite.implied, "SUITE001") {
        return Err("the implied member did not fire SUITE001".into());
    }
    if !codes(report.get("suite_diagnostics"))
        .iter()
        .any(|c| c == "SUITE003")
    {
        return Err("the contradictory pair did not fire SUITE003".into());
    }
    Ok(report)
}

/// The fixed per-invocation cost: a minimal two-member audit.
fn minimal_audit(args: &Args) -> Result<f64, String> {
    let t = Instant::now();
    let (_, code, stdout) = spec_lint(args, &["G p".into(), "F p".into()])?;
    let secs = t.elapsed().as_secs_f64();
    let classes: Vec<String> = Json::parse(stdout.trim())
        .ok()
        .and_then(|r| {
            r.get("members")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
        })
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("class").and_then(Json::as_str).map(str::to_string))
        .collect();
    if code != 1 || classes != ["safety", "guarantee"] {
        return Err(format!("minimal audit: exit {code}, classes {classes:?}"));
    }
    Ok(secs)
}

/// Minimal audits per run; `setup_s` is their median. One takes about
/// 2 ms, and consecutive ones cost about the same, but that cost moves
/// by a third from one stretch of a run to another. So the audits are
/// spread evenly over the timed phase, and their time and CPU are left
/// out of its figures.
const SETUP_REPS: usize = 30;

pub fn run(args: &Args) -> Result<Report, String> {
    let pool = pool(args);
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let every = args.seconds / reps as f64;
    let mut setup_s = Vec::with_capacity(reps);
    let (mut setup_wall, mut setup_cpu) = (0.0, 0.0);

    let mut lat = Vec::new();
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, Vec::new());
    let cpu0 = wire::children_cpu_ms();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        if setup_s.len() < reps && start.elapsed().as_secs_f64() >= setup_s.len() as f64 * every {
            let cpu = wire::children_cpu_ms();
            let secs = minimal_audit(args)?;
            setup_s.push(secs);
            setup_wall += secs;
            setup_cpu += wire::children_cpu_ms() - cpu;
            continue;
        }
        let suite = &pool[i % pool.len()];
        i += 1;
        let (ms, code, stdout) = spec_lint(args, &suite.members)?;
        attempted += 1;
        lat.push(ms);
        // Every suite carries injected findings, so exit 1 is expected.
        if code != 1 {
            failed += 1;
            continue;
        }
        if let Err(e) = check(suite, &stdout) {
            mismatches.push(e);
        }
    }
    let elapsed = start.elapsed().as_secs_f64() - setup_wall;
    let cpu = wire::children_cpu_ms() - cpu0 - setup_cpu;
    let n = lat.len() as f64;
    let mut report = Report::new(attempted + setup_s.len() as u64, failed, mismatches);
    report.sample("lat", lat.len());
    report.sample("setup", setup_s.len());
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("ops_per_s", n / elapsed, "ops/s");
    report.e2e("lat_p50_ms", median(&lat), "ms");
    report.e2e("lat_p90_ms", percentile(&lat, 0.90), "ms");
    report.e2e("lat_p99_ms", percentile(&lat, 0.99), "ms");
    report.e2e("peak_rss_mb", wire::children_peak_rss_mb(), "MiB");
    report.e2e("cpu_ms_per_op", cpu / n.max(1.0), "ms");
    Ok(report)
}

/// The traced run: every pool suite once through `spec-lint`, then
/// in-process through `Property::parse` and `audit_suite` with spans.
/// The prefilter and analysis counters of the two must agree exactly.
pub fn run_traced(args: &Args) -> Result<Report, String> {
    let pool = pool(args);
    let sigma = gen::props(PROPS);
    let opts = AuditOptions {
        jobs: JOBS,
        conjunction_cap: CAP,
    };
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, Vec::new());
    let mut trace = Trace::default();
    let mut total = AnalysisStats::default();
    let mut request_ms = Vec::new();
    let mut consistency = Vec::new();
    let (mut states_in, mut states_out) = (0usize, 0usize);
    for suite in &pool {
        let (_, code, stdout) = spec_lint(args, &suite.members)?;
        attempted += 1;
        if code != 1 {
            failed += 1;
            continue;
        }
        let wire_report = match check(suite, &stdout) {
            Ok(r) => r,
            Err(e) => {
                mismatches.push(e);
                continue;
            }
        };

        let t = Instant::now();
        let members: Vec<(String, OmegaAutomaton)> = suite
            .members
            .iter()
            .map(|src| {
                let prop = trace.span("logic.compile", || Property::parse(&sigma, src));
                (
                    src.clone(),
                    prop.expect("suite members compile").automaton().clone(),
                )
            })
            .collect();
        let audit = trace
            .span("lint.suite.audit", || audit_suite(&members, &opts))
            .map_err(|e| e.to_string())?;
        request_ms.push(t.elapsed().as_secs_f64() * 1e3);
        record_audit(&mut trace, &audit);
        total = add(total, audit.stats);
        // Probes beside the request: per-member classification on a
        // fresh context, minimization and canonical hashing.
        for (_, aut) in &members {
            let ctx = Analysis::new(aut.clone());
            trace.span("automata.analysis.classify", || {
                ctx.classification().clone()
            });
            let m = trace.span("automata.minimize", || minimize(aut));
            states_in += aut.num_states();
            states_out += m.quotient.num_states();
            trace.span("automata.canonical.hash", || structural_hash(aut));
        }

        let prefilter = wire_report.get("prefilter");
        let int = |v: Option<&Json>, k: &str| v.and_then(|x| x.get(k)).and_then(Json::as_int);
        let mine = [
            ("pairs", audit.prefilter.pairs),
            ("hash_decided", audit.prefilter.hash_decided),
            ("oracle_calls", audit.prefilter.oracle_calls),
        ];
        for (k, v) in mine {
            if int(prefilter, k) != Some(v as i64) {
                consistency.push(format!(
                    "prefilter {k}: replay {v}, spec-lint {:?}",
                    int(prefilter, k)
                ));
            }
        }
        let stats = wire_report.get("stats");
        for (k, v) in ANALYSIS_FIELDS.iter().zip(fields(&audit.stats)) {
            if int(stats, k) != Some(v as i64) {
                consistency.push(format!(
                    "stats {k}: replay {v}, spec-lint {:?}",
                    int(stats, k)
                ));
            }
        }
    }
    analysis_counters(&mut trace, &total);
    trace.set(
        "automata.minimize.state_ratio",
        states_out as f64 / states_in.max(1) as f64,
    );
    trace.set("trace.request_ms_p50", median(&request_ms));
    let mut report = Report::new(attempted, failed, mismatches);
    report.consistency(consistency);
    report.trace_metrics(trace.metrics());
    Ok(report)
}
