//! Differential soundness suite for the abstract-interpretation engine:
//! on seeded random programs (and the paper examples) the abstract
//! invariant must cover every exactly reachable valuation in every
//! domain, every certificate must pass both the abstract and the
//! exhaustive concrete re-check, and the invariant-first checker must
//! agree verdict-for-verdict with the explicit product search — with
//! every violation it reports replaying as a real, fair computation.

use temporal_properties::automata::alphabet::Alphabet;
use temporal_properties::automata::random::rng::{SeedableRng, StdRng};
use temporal_properties::fts::absint::{
    self, analyze, certify, certify_exhaustive, DomainKind, Program,
};
use temporal_properties::fts::checker::{
    check_with_invariants, validate_violation, verify, Verdict,
};
use temporal_properties::fts::system::Fairness;
use temporal_properties::logic::to_automaton::compile_over;
use temporal_properties::logic::Formula;

const SEEDS: u64 = 30;
const SPECS: [&str; 4] = ["G p0", "F p1", "G (p0 -> F p1)", "G F p1"];

fn random_suite() -> Vec<(String, Program, Alphabet)> {
    let psigma = Alphabet::of_propositions(["p0", "p1"]).unwrap();
    (0..SEEDS)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                format!("seed-{seed}"),
                absint::random_program(&mut rng),
                psigma.clone(),
            )
        })
        .collect()
}

fn paper_suite() -> Vec<(String, Program, Alphabet)> {
    let sigma = absint::observation_alphabet();
    vec![
        (
            "mux-sem".into(),
            absint::mux_sem_abs(Fairness::Strong),
            sigma.clone(),
        ),
        (
            "mux-sem-weak".into(),
            absint::mux_sem_abs(Fairness::Weak),
            sigma.clone(),
        ),
        (
            "token-ring".into(),
            absint::token_ring_abs(true),
            sigma.clone(),
        ),
        ("peterson".into(), absint::peterson_abs(), sigma),
    ]
}

/// The parameterized families at N ∈ {2..5} — the scale where the
/// explicit product is still cheap enough to cross-validate against.
fn family_suite() -> Vec<(String, Program, Alphabet)> {
    let sigma = absint::observation_alphabet();
    let mut out = Vec::new();
    for n in 2..=5 {
        out.push((format!("mux-sem-n{n}"), absint::mux_sem_n(n), sigma.clone()));
        out.push((
            format!("token-ring-n{n}"),
            absint::token_ring_n(n),
            sigma.clone(),
        ));
        out.push((
            format!("dining-phil-{n}"),
            absint::dining_philosophers(n),
            sigma.clone(),
        ));
    }
    out
}

#[test]
fn abstract_invariant_covers_exact_reachable_set() {
    for (name, prog, sigma) in paper_suite()
        .into_iter()
        .chain(family_suite())
        .chain(random_suite())
    {
        let (_, vals) = prog
            .to_builder(&sigma)
            .build_with_valuations()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for kind in DomainKind::ALL {
            let inv = analyze(&prog, kind);
            for v in &vals {
                assert!(
                    inv.contains(v),
                    "{name}/{}: exact reachable valuation {v:?} escapes the invariant",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn every_certificate_passes_both_checkers() {
    for (name, prog, _) in paper_suite()
        .into_iter()
        .chain(family_suite())
        .chain(random_suite())
    {
        for kind in DomainKind::ALL {
            let inv = analyze(&prog, kind);
            certify(&prog, &inv)
                .unwrap_or_else(|e| panic!("{name}/{}: abstract re-check: {e}", kind.name()));
            certify_exhaustive(&prog, &inv, 1_000_000)
                .unwrap_or_else(|e| panic!("{name}/{}: exhaustive re-check: {e}", kind.name()));
        }
    }
}

/// The relational invariant is never less precise than the cartesian
/// value-set domain's: at every location, every variable's relational
/// mask is a subset of the value-set mask.
#[test]
fn relational_invariants_refine_every_cartesian_domain() {
    for (name, prog, _) in paper_suite()
        .into_iter()
        .chain(family_suite())
        .chain(random_suite())
    {
        let rel = analyze(&prog, DomainKind::Relational);
        let cart = analyze(&prog, DomainKind::ValueSets);
        for (l, (rloc, cloc)) in rel.locations.iter().zip(&cart.locations).enumerate() {
            for (x, (&rm, &cm)) in rloc.values.iter().zip(&cloc.values).enumerate() {
                assert_eq!(
                    rm & !cm,
                    0,
                    "{name}: relational mask exceeds value-sets at location {l}, var {x}"
                );
            }
        }
    }
}

#[test]
fn invariant_first_verdicts_match_explicit_verdicts() {
    for (name, prog, sigma) in random_suite().into_iter().chain(family_suite()) {
        let ts = prog
            .to_builder(&sigma)
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let specs = if name.starts_with("seed-") {
            &SPECS[..]
        } else {
            // The families observe [c1, c2, t1, t2]; the mutex safety
            // spec is the one the relational domain discharges.
            &["G !(c1 & c2)"][..]
        };
        for spec in specs {
            let prop = compile_over(&sigma, &Formula::parse(&sigma, spec).unwrap()).unwrap();
            let explicit = verify(&ts, &prop).unwrap_or_else(|e| panic!("{name}: {e}"));
            for kind in [DomainKind::ValueSets, DomainKind::Relational] {
                let (invfirst, stats) = check_with_invariants(&prog, &sigma, &prop, kind)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    stats.certificate_ok,
                    Some(true),
                    "{name}/{spec}/{}: certificate must validate",
                    kind.name()
                );
                assert_eq!(
                    explicit.holds(),
                    invfirst.holds(),
                    "{name}/{spec}/{}: verdicts diverge",
                    kind.name()
                );
                assert_eq!(
                    stats.pruned_product_states,
                    0,
                    "{name}/{spec}/{}: pruning removed a node",
                    kind.name()
                );
                if let Verdict::Violated(cex) = &invfirst {
                    validate_violation(&ts, &prop, cex)
                        .unwrap_or_else(|e| panic!("{name}/{spec}: bad counterexample: {e}"));
                }
            }
        }
    }
}
