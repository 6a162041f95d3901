//! TAB-SERVE — the hierarchy-as-a-service daemon: cold-vs-warm query
//! latency and sustained throughput through the full JSON-RPC path.
//!
//! A one-shot CLI pays the whole [`Analysis`] construction — SCC
//! sweeps, the alternating cycle decomposition, products — on **every**
//! query. The daemon
//! ([`hierarchy_serve::Service`]) pays it once per artifact: the store
//! keeps the context alive, so repeat queries are memo lookups plus
//! JSON framing. This table ingests a seeded random Streett suite
//! through the HOA path (exactly what a client on the wire does), then
//! measures per-request latency with every artifact cold, the same
//! repeat-query workload warm, a sustained mixed classify/lint/include
//! stream, and the batch endpoint riding the worker pool.
//!
//! Two expectation gates guard the headline claims: the warm median
//! must be at least 5× better than the cold median on the repeat-query
//! workload, and every verdict the daemon returns must be identical to
//! a direct library call on the same artifact.
//!
//! `--smoke` runs a shrunken suite and skips the JSON artifact so the
//! emitted `BENCH_serve.json` always describes the full run.

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::automata::{hoa, par};
use hierarchy_core::prelude::*;
use hierarchy_core::HierarchyClass;
use hierarchy_serve::json::Json;
use hierarchy_serve::Service;
use std::fmt::Write as _;

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One seeded artifact plus its ground truth from direct library calls.
struct Artifact {
    hash: String,
    class: String,
    automaton: OmegaAutomaton,
}

struct Suite {
    states: usize,
    artifacts: usize,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    sustained_qps: f64,
    batch_ms: f64,
}

fn rpc(service: &Service, line: &str) -> Json {
    Json::parse(&service.handle_line(line)).expect("daemon responses are well-formed JSON")
}

fn classify_req(id: usize, hash: &str) -> String {
    format!("{{\"id\":{id},\"method\":\"classify\",\"params\":{{\"artifact\":\"{hash}\"}}}}")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "TAB-SERVE",
        "persistent classification daemon: cold vs warm latency, throughput",
    );
    let sigma = Alphabet::of_propositions(["p", "q"]).expect("alphabet");
    let jobs = par::thread_count();

    // (states, streett pairs, artifacts per suite, warm repeat rounds)
    let combos: &[(usize, usize, usize, usize)] = if smoke {
        &[(32, 2, 6, 4)]
    } else {
        &[(48, 2, 16, 8), (96, 3, 12, 8), (192, 3, 10, 8)]
    };
    let mut rng = StdRng::seed_from_u64(9_001_990); // PODC 1990
    println!(
        "\n{:>7} {:>6} {:>12} {:>12} {:>9} {:>12} {:>10}",
        "states", "arts", "cold med ms", "warm med ms", "speedup", "warm qps", "batch ms"
    );
    let mut suites: Vec<Suite> = Vec::new();
    let mut verdicts_identical = true;

    for &(n, k, count, rounds) in combos {
        let service = Service::new(256, jobs);

        // Seed the suite and pin down ground truth with direct calls.
        let mut artifacts: Vec<Artifact> = Vec::with_capacity(count);
        let mut id = 0usize;
        while artifacts.len() < count {
            let (aut, _) = random_streett(&mut rng, &sigma, n, k, 0.15);
            let reference = Analysis::new(aut.clone());
            let class = HierarchyClass::from_classification(&reference.classification().clone())
                .to_string();
            // Ingest through the HOA wire format, like a real client.
            let req = Json::obj([
                ("id", Json::Int(id as i64)),
                ("method", Json::str("ingest")),
                (
                    "params",
                    Json::obj([
                        ("kind", Json::str("automaton")),
                        ("hoa", Json::str(hoa::omega_to_hoa(&aut))),
                    ]),
                ),
            ])
            .to_string();
            id += 1;
            let resp = rpc(&service, &req);
            let result = resp.get("result").expect("seed ingest succeeds");
            let hash = result
                .get("artifact")
                .and_then(Json::as_str)
                .expect("artifact hash")
                .to_string();
            if result.get("known") == Some(&Json::Bool(true)) {
                // The equivalence sweep folded this seed onto an earlier
                // artifact; skip it so cold timings stay cold.
                continue;
            }
            artifacts.push(Artifact {
                hash,
                class,
                automaton: aut,
            });
        }

        // Cold pass: the first classify per artifact builds its SCCs and
        // the alternating cycle decomposition from scratch — this is
        // what a one-shot CLI pays every time.
        let mut suite = Suite {
            states: n,
            artifacts: artifacts.len(),
            cold_ms: Vec::with_capacity(artifacts.len()),
            warm_ms: Vec::new(),
            sustained_qps: 0.0,
            batch_ms: 0.0,
        };
        for art in &artifacts {
            id += 1;
            let (resp, ms) = timed(|| rpc(&service, &classify_req(id, &art.hash)));
            suite.cold_ms.push(ms);
            let got = resp
                .get("result")
                .and_then(|r| r.get("class"))
                .and_then(Json::as_str);
            verdicts_identical &= got == Some(art.class.as_str());
        }

        // Warm pass: the identical repeat-query workload against the
        // live contexts.
        for _ in 0..rounds {
            for art in &artifacts {
                id += 1;
                let (resp, ms) = timed(|| rpc(&service, &classify_req(id, &art.hash)));
                suite.warm_ms.push(ms);
                let got = resp
                    .get("result")
                    .and_then(|r| r.get("class"))
                    .and_then(Json::as_str);
                verdicts_identical &= got == Some(art.class.as_str());
                verdicts_identical &= resp
                    .get("result")
                    .and_then(|r| r.get("warm"))
                    .and_then(Json::as_bool)
                    == Some(true);
            }
        }

        // Sustained mixed stream: classify / lint / include, with
        // include verdicts checked against a direct oracle precomputed
        // outside the timed region.
        let include_oracle: Vec<bool> = artifacts
            .iter()
            .enumerate()
            .map(|(i, art)| {
                let other = &artifacts[(i + 1) % artifacts.len()];
                Analysis::new(art.automaton.clone()).is_subset_of(&other.automaton)
            })
            .collect();
        let mut queries = 0usize;
        let (_, total_ms) = timed(|| {
            for _ in 0..rounds {
                for (i, art) in artifacts.iter().enumerate() {
                    id += 1;
                    match id % 3 {
                        0 => {
                            let resp = rpc(&service, &classify_req(id, &art.hash));
                            verdicts_identical &= resp
                                .get("result")
                                .and_then(|r| r.get("class"))
                                .and_then(Json::as_str)
                                == Some(art.class.as_str());
                        }
                        1 => {
                            let resp = rpc(
                                &service,
                                &format!(
                                    "{{\"id\":{id},\"method\":\"lint\",\"params\":{{\"artifact\":\"{}\"}}}}",
                                    art.hash
                                ),
                            );
                            verdicts_identical &= resp.get("result").is_some();
                        }
                        _ => {
                            let other = &artifacts[(i + 1) % artifacts.len()];
                            let resp = rpc(
                                &service,
                                &format!(
                                    "{{\"id\":{id},\"method\":\"include\",\"params\":{{\"lhs\":\"{}\",\"rhs\":\"{}\"}}}}",
                                    art.hash, other.hash
                                ),
                            );
                            verdicts_identical &= resp
                                .get("result")
                                .and_then(|r| r.get("included"))
                                .and_then(Json::as_bool)
                                == Some(include_oracle[i]);
                        }
                    }
                    queries += 1;
                }
            }
        });
        suite.sustained_qps = queries as f64 / (total_ms / 1e3).max(1e-9);

        // Batch endpoint: all artifacts in one request, fanned across
        // the worker pool.
        let hashes: Vec<String> = artifacts
            .iter()
            .map(|a| format!("\"{}\"", a.hash))
            .collect();
        id += 1;
        let batch_req = format!(
            "{{\"id\":{id},\"method\":\"classify_batch\",\"params\":{{\"artifacts\":[{}]}}}}",
            hashes.join(",")
        );
        let (resp, batch_ms) = timed(|| rpc(&service, &batch_req));
        suite.batch_ms = batch_ms;
        let results = resp
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(Json::as_arr)
            .expect("batch succeeds")
            .to_vec();
        for (art, r) in artifacts.iter().zip(&results) {
            verdicts_identical &= r.get("class").and_then(Json::as_str) == Some(art.class.as_str());
        }

        let (cm, wm) = (median(&suite.cold_ms), median(&suite.warm_ms));
        println!(
            "{:>7} {:>6} {cm:>12.4} {wm:>12.4} {:>8.1}x {:>12.0} {:>10.3}",
            suite.states,
            suite.artifacts,
            cm / wm.max(1e-9),
            suite.sustained_qps,
            suite.batch_ms,
        );
        suites.push(suite);
    }

    expect(
        "every daemon verdict identical to the direct library call",
        verdicts_identical,
    );
    let all_cold: Vec<f64> = suites.iter().flat_map(|s| s.cold_ms.clone()).collect();
    let all_warm: Vec<f64> = suites.iter().flat_map(|s| s.warm_ms.clone()).collect();
    let (cm, wm) = (median(&all_cold), median(&all_warm));
    expect(
        "warm median latency at least 5x better than cold on the repeat-query workload",
        cm >= 5.0 * wm,
    );

    if smoke {
        println!("\nTAB-SERVE smoke complete (JSON artifact skipped).");
        return;
    }

    // --- Machine-readable artifact.
    let mut json = String::from("{\n  \"experiment\": \"TAB-SERVE\",\n");
    let _ = writeln!(json, "  \"verdicts_identical\": true,");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(
        json,
        "  \"overall_cold_median_ms\": {cm:.4}, \"overall_warm_median_ms\": {wm:.4}, \
         \"overall_median_speedup\": {:.1},",
        cm / wm.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"note\": \"seeded random Streett suites ingested over the HOA wire \
         format; cold = first classify per artifact (full Analysis construction), \
         warm = identical repeat queries against the live store; sustained = mixed \
         classify/lint/include stream; batch = one classify_batch over the pool. \
         Latencies include JSON parse/serialize.\","
    );
    json.push_str("  \"suites\": [\n");
    for (i, s) in suites.iter().enumerate() {
        let sep = if i + 1 == suites.len() { "" } else { "," };
        let (scm, swm) = (median(&s.cold_ms), median(&s.warm_ms));
        let _ = writeln!(
            json,
            "    {{\"states\": {}, \"artifacts\": {}, \"cold_median_ms\": {scm:.4}, \
             \"warm_median_ms\": {swm:.4}, \"median_speedup\": {:.1}, \
             \"sustained_qps\": {:.0}, \"batch_ms\": {:.3}}}{sep}",
            s.states,
            s.artifacts,
            scm / swm.max(1e-9),
            s.sustained_qps,
            s.batch_ms,
        );
    }
    json.push_str("  ]\n}\n");
    let out = "BENCH_serve.json";
    std::fs::write(out, &json).expect("write BENCH_serve.json");
    println!("\nwrote {out}");
    println!("\nTAB-SERVE complete (daemon verdict-identical to the library everywhere).");
}
