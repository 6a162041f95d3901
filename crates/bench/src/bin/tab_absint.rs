//! TAB-ABSINT — invariant-first checking versus explicit product search:
//! for each (program, specification, domain) triple, the explicit product
//! size and wall time against the abstract-interpretation path of
//! `check_with_invariants` (certified invariant, abstract safety
//! discharge, explicit fallback otherwise). The paper's safety rows are
//! where the static proof rule pays off: the property is discharged from
//! the certificate with zero product states — relationally even for
//! Peterson, whose `turn`/`pc` correlation no cartesian domain keeps.
//!
//! The states-vs-N series runs the parameterized process families
//! (`mux_sem_n`, `token_ring_n`, `dining_philosophers`) at growing N:
//! the explicit product grows with N while the invariant-first path
//! stays flat at zero product states — the crossover that makes static
//! analysis the only scaling story.
//!
//! `--smoke` shrinks the random sweep for the tier-1 gate.

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::random::rng::{SeedableRng, StdRng};
use hierarchy_core::fts::absint::{self, analyze, DomainKind, Program};
use hierarchy_core::fts::checker::{check_with_invariants, verify_with_stats, CheckStats, Verdict};
use hierarchy_core::fts::system::Fairness;
use hierarchy_core::logic::to_automaton::compile_over;
use hierarchy_core::logic::Formula;
use std::fmt::Write as _;

struct Row {
    name: String,
    spec: String,
    domain: DomainKind,
    holds: bool,
    stats: CheckStats,
    explicit_states: usize,
    explicit_ms: f64,
    invfirst_ms: f64,
}

fn run_row(name: &str, prog: &Program, sigma: &Alphabet, spec: &str, kind: DomainKind) -> Row {
    let prop = compile_over(sigma, &Formula::parse(sigma, spec).expect(spec)).expect(spec);
    let ts = prog.to_builder(sigma).build().expect(name);
    let (explicit, t_explicit) = timed(|| verify_with_stats(&ts, &prop).expect(name));
    let (invfirst, t_invfirst) =
        timed(|| check_with_invariants(prog, sigma, &prop, kind).expect(name));
    let (ev, estats) = explicit;
    let (iv, istats) = invfirst;
    expect(
        &format!("{name} / {spec} / {}: verdicts agree", kind.name()),
        ev.holds() == iv.holds(),
    );
    if let (Verdict::Violated(ecex), Verdict::Violated(icex)) = (&ev, &iv) {
        // Both counterexamples must replay; they need not be identical.
        expect(
            &format!("{name} / {spec}: both counterexamples replay"),
            !ecex.cycle.is_empty() && !icex.cycle.is_empty(),
        );
    }
    Row {
        name: name.to_string(),
        spec: spec.to_string(),
        domain: kind,
        holds: iv.holds(),
        stats: istats,
        explicit_states: estats.product_states,
        explicit_ms: t_explicit,
        invfirst_ms: t_invfirst,
    }
}

/// One point of the states-vs-N series.
struct SeriesPoint {
    family: &'static str,
    n: usize,
    domain: DomainKind,
    discharged: bool,
    explicit_states: usize,
    invfirst_states: usize,
    abstract_locations: usize,
}

fn family_program(family: &'static str, n: usize) -> Program {
    match family {
        "mux-sem-n" => absint::mux_sem_n(n),
        "token-ring-n" => absint::token_ring_n(n),
        "dining-phil-n" => absint::dining_philosophers(n),
        other => unreachable!("unknown family {other}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "TAB-ABSINT",
        "invariant-first checking vs explicit product search",
    );
    let sigma = absint::observation_alphabet();

    let paper: Vec<(&str, Program)> = vec![
        ("mux-sem", absint::mux_sem_abs(Fairness::Strong)),
        ("token-ring", absint::token_ring_abs(true)),
        ("peterson", absint::peterson_abs()),
    ];
    let specs = ["G !(c1 & c2)", "G (t1 -> F c1)", "G F c1"];
    let domains = [DomainKind::ValueSets, DomainKind::Relational];

    let mut rows = Vec::new();
    println!(
        "\n{:>12} {:>16} {:>10} {:>6} {:>11} {:>9} {:>9} {:>11} {:>11}",
        "program",
        "spec",
        "domain",
        "holds",
        "discharged",
        "explicit",
        "invfirst",
        "explicit ms",
        "invfirst ms"
    );
    for (name, prog) in &paper {
        for spec in specs {
            for kind in domains {
                let row = run_row(name, prog, &sigma, spec, kind);
                println!(
                    "{:>12} {:>16} {:>10} {:>6} {:>11} {:>9} {:>9} {:>11.3} {:>11.3}",
                    row.name,
                    row.spec,
                    row.domain.name(),
                    row.holds,
                    row.stats.discharged,
                    row.explicit_states,
                    row.stats.product_states,
                    row.explicit_ms,
                    row.invfirst_ms
                );
                rows.push(row);
            }
        }
    }

    // The headline claims, checked over the paper rows.
    expect(
        "some paper safety property is discharged with strictly fewer product states",
        rows.iter()
            .any(|r| r.stats.discharged && r.stats.product_states < r.explicit_states),
    );
    expect(
        "every certificate on the paper programs validates",
        rows.iter().all(|r| r.stats.certificate_ok == Some(true)),
    );
    expect(
        "the abstract prune never removes a concrete product state",
        rows.iter().all(|r| r.stats.pruned_product_states == 0),
    );
    expect(
        "peterson mutex discharged relationally at zero product states",
        rows.iter().any(|r| {
            r.name == "peterson"
                && r.spec == "G !(c1 & c2)"
                && r.domain == DomainKind::Relational
                && r.stats.discharged
                && r.stats.product_states == 0
        }),
    );
    expect(
        "peterson mutex still falls back to the product under value sets",
        rows.iter().any(|r| {
            r.name == "peterson"
                && r.spec == "G !(c1 & c2)"
                && r.domain == DomainKind::ValueSets
                && !r.stats.discharged
                && r.stats.product_states > 0
        }),
    );

    // The states-vs-N series: explicit product states grow with N; the
    // invariant-first path stays flat at zero when the domain discharges.
    let max_n = 6usize;
    let mutex = "G !(c1 & c2)";
    let mut series = Vec::new();
    println!(
        "\n{:>14} {:>3} {:>10} {:>11} {:>9} {:>9} {:>9}",
        "family", "n", "domain", "discharged", "explicit", "invfirst", "abslocs"
    );
    for family in ["mux-sem-n", "token-ring-n", "dining-phil-n"] {
        for n in 2..=max_n {
            let prog = family_program(family, n);
            for kind in domains {
                let row = run_row(&format!("{family}{n}"), &prog, &sigma, mutex, kind);
                let point = SeriesPoint {
                    family,
                    n,
                    domain: kind,
                    discharged: row.stats.discharged,
                    explicit_states: row.explicit_states,
                    invfirst_states: row.stats.product_states,
                    abstract_locations: analyze(&prog, kind).num_reachable_locations(),
                };
                println!(
                    "{:>14} {:>3} {:>10} {:>11} {:>9} {:>9} {:>9}",
                    point.family,
                    point.n,
                    point.domain.name(),
                    point.discharged,
                    point.explicit_states,
                    point.invfirst_states,
                    point.abstract_locations
                );
                expect(
                    &format!("{family}({n})/{} certificate validates", kind.name()),
                    row.stats.certificate_ok == Some(true),
                );
                series.push(point);
            }
        }
    }
    let ring_rel: Vec<&SeriesPoint> = series
        .iter()
        .filter(|p| p.family == "token-ring-n" && p.domain == DomainKind::Relational)
        .collect();
    expect(
        "token-ring-n explicit product states grow strictly with N",
        ring_rel
            .windows(2)
            .all(|w| w[0].explicit_states < w[1].explicit_states),
    );
    expect(
        &format!("token-ring-n invariant-first stays flat at 0 through N = {max_n} (relational)"),
        ring_rel
            .iter()
            .all(|p| p.discharged && p.invfirst_states == 0),
    );
    expect(
        "every family discharges relationally at every N",
        series
            .iter()
            .filter(|p| p.domain == DomainKind::Relational)
            .all(|p| p.discharged && p.invfirst_states == 0),
    );
    // At N = 2 the pc partition alone pins the other token bit, so the
    // honest cartesian gap opens at N >= 3.
    expect(
        "value sets lose the distributed token correlation for N >= 3 (the honest cartesian gap)",
        series
            .iter()
            .filter(|p| p.family == "token-ring-n" && p.domain == DomainKind::ValueSets && p.n >= 3)
            .all(|p| !p.discharged && p.invfirst_states > 0),
    );

    // Seeded random programs over [p0, p1]: verdict identity end to end,
    // under both the cartesian and the relational analysis.
    let psigma = Alphabet::of_propositions(["p0", "p1"]).expect("alphabet");
    let seeds = if smoke { 5u64 } else { 25 };
    let mut random_rows = Vec::new();
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = absint::random_program(&mut rng);
        for spec in ["G p0", "G (p0 -> F p1)"] {
            for kind in domains {
                let row = run_row(&format!("random-{seed}"), &prog, &psigma, spec, kind);
                random_rows.push(row);
            }
        }
    }
    expect(
        "all random-program certificates validate",
        random_rows
            .iter()
            .all(|r| r.stats.certificate_ok == Some(true)),
    );
    println!(
        "\n{} random rows ({} seeds x 2 domains), verdict identity on all of them",
        random_rows.len(),
        seeds
    );
    rows.extend(random_rows);

    let mut json = String::from("{\n  \"experiment\": \"TAB-ABSINT\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"program\": \"{}\", \"spec\": \"{}\", \"domain\": \"{}\", \"holds\": {}, \
             \"discharged\": {}, \"certificate_ok\": {}, \"abstract_pairs\": {}, \
             \"explicit_states\": {}, \"invfirst_states\": {}, \
             \"pruned_product_states\": {}, \
             \"explicit_ms\": {:.3}, \"invfirst_ms\": {:.3}}}{sep}",
            r.name,
            r.spec,
            r.domain.name(),
            r.holds,
            r.stats.discharged,
            r.stats.certificate_ok == Some(true),
            r.stats.abstract_pairs,
            r.explicit_states,
            r.stats.product_states,
            r.stats.pruned_product_states,
            r.explicit_ms,
            r.invfirst_ms
        );
    }
    json.push_str("  ],\n  \"series\": [\n");
    for (i, p) in series.iter().enumerate() {
        let sep = if i + 1 == series.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"n\": {}, \"domain\": \"{}\", \"discharged\": {}, \
             \"explicit_states\": {}, \"invfirst_states\": {}, \"abstract_locations\": {}}}{sep}",
            p.family,
            p.n,
            p.domain.name(),
            p.discharged,
            p.explicit_states,
            p.invfirst_states,
            p.abstract_locations
        );
    }
    json.push_str("  ]\n}\n");
    let out = "BENCH_absint.json";
    std::fs::write(out, &json).expect("write BENCH_absint.json");
    println!("\nwrote {out}");
    println!(
        "\nTAB-ABSINT complete (safety discharged from the certificate, zero product states)."
    );
}
