//! Differential soundness for the suite auditor (`lint::suite`).
//!
//! The audit's whole-suite verdicts are cross-checked against direct
//! single-purpose oracle calls on fresh contexts: every cell of the
//! subsumption matrix against [`Analysis::is_subset_of`], the
//! `SUITE002` equivalence classes against pairwise [`Analysis::equivalent`],
//! the `SUITE003` conflicts against product emptiness, the
//! `SUITE001` verdicts against an explicitly folded rest-of-suite
//! conjunction, and the lasso bank's count against a bank rebuilt from
//! the automata, whose every refutation the complement oracle confirms.
//! A separate test pins the PR's acceptance scenario: a
//! clean 20-property suite with one injected redundancy, one injected
//! duplicate and one injected conflict reports exactly those three
//! findings.

use temporal_properties::audit_properties;
use temporal_properties::automata::alphabet::Alphabet;
use temporal_properties::automata::analysis::{Analysis, AnalysisStats};
use temporal_properties::automata::canonical::structural_hash;
use temporal_properties::automata::lasso::Lasso;
use temporal_properties::automata::omega::OmegaAutomaton;
use temporal_properties::automata::random::random_streett;
use temporal_properties::automata::random::rng::{SeedableRng, StdRng};
use temporal_properties::lint::{audit_suite, AuditOptions, SuiteAudit};
use temporal_properties::Property;

fn sigma() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

fn random_suite(seed: u64, sigma: &Alphabet) -> Vec<(String, OmegaAutomaton)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 3);
    (0..n)
        .map(|i| {
            (
                format!("m{i}"),
                random_streett(&mut rng, sigma, 6, 1, 0.4).0,
            )
        })
        .collect()
}

/// 200 seeded suites: every audit verdict agrees with the direct,
/// memo-free oracle run.
#[test]
fn audit_agrees_with_direct_oracles_on_200_suites() {
    let sigma = sigma();
    let (mut bank_settled, mut oracle_calls) = (0, 0);
    for seed in 0..200u64 {
        let suite = random_suite(seed, &sigma);
        let n = suite.len();
        let audit = audit_suite(&suite, &AuditOptions::default()).expect("one alphabet");
        assert_eq!(
            audit.deep_checks_skipped, 0,
            "seed {seed}: tiny suites never hit the conjunction cap"
        );
        // Fresh, unshared contexts: the reference answers cannot ride
        // any state the audit built up.
        let direct: Vec<Analysis> = suite
            .iter()
            .map(|(_, a)| Analysis::new(a.clone()))
            .collect();

        // 1. The subsumption matrix, cell by cell.
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    audit.subsumption[i][j],
                    direct[i].is_subset_of(direct[j].automaton()),
                    "seed {seed}: matrix cell ({i},{j}) disagrees with the oracle"
                );
            }
        }

        // 2. SUITE002 ⇔ pairwise language equivalence: the
        //    representative of i is the least j with the same language.
        for i in 0..n {
            let least = (0..=i)
                .find(|&j| direct[j].equivalent(direct[i].automaton()))
                .unwrap();
            assert_eq!(
                audit.representative[i], least,
                "seed {seed}: member {i} joined the wrong language class"
            );
            let dup_reported = audit.member_diagnostics[i]
                .iter()
                .any(|d| d.code == "SUITE002");
            assert_eq!(
                dup_reported,
                least < i,
                "seed {seed}: SUITE002 on member {i} must mean a strictly earlier equal language"
            );
        }

        // 3. SUITE003 ⇔ product emptiness on incomparable non-empty
        //    representative pairs.
        let empty: Vec<bool> = direct.iter().map(|c| c.is_empty()).collect();
        let reps: Vec<usize> = (0..n).filter(|&i| audit.representative[i] == i).collect();
        let mut expected_conflicts = Vec::new();
        for (k, &a) in reps.iter().enumerate() {
            for &b in &reps[k + 1..] {
                let comparable = audit.subsumption[a][b] || audit.subsumption[b][a];
                if !empty[a] && !empty[b] && !comparable {
                    let product = suite[a].1.intersection(&suite[b].1);
                    if Analysis::new(product).is_empty() {
                        expected_conflicts.push((a, b));
                    }
                }
            }
        }
        let reported: Vec<&str> = audit
            .suite_diagnostics
            .iter()
            .filter(|d| d.code == "SUITE003")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            reported.len(),
            expected_conflicts.len(),
            "seed {seed}: conflict count disagrees with direct product emptiness"
        );
        for &(a, b) in &expected_conflicts {
            assert!(
                reported
                    .iter()
                    .any(|m| m.contains(&format!("\"{}\"", suite[a].0))
                        && m.contains(&format!("\"{}\"", suite[b].0))),
                "seed {seed}: conflict ({a},{b}) not reported"
            );
        }

        // 4. SUITE001 against an explicitly folded rest-of-suite
        //    conjunction (the auditor's fast path fires even when the
        //    rest collapses, as long as one member alone implies i).
        let any_empty = empty.iter().any(|&e| e);
        for (i, direct_i) in direct.iter().enumerate() {
            let class_size = audit
                .representative
                .iter()
                .filter(|&&r| r == audit.representative[i])
                .count();
            let expected = if any_empty || class_size > 1 {
                false
            } else {
                let fast = (0..n).any(|j| j != i && audit.subsumption[j][i]);
                let rest = suite
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, (_, a))| a.clone())
                    .reduce(|acc, a| acc.intersection(&a))
                    .expect("n >= 2");
                let rest_ctx = Analysis::new(rest);
                fast || (!rest_ctx.is_empty() && rest_ctx.is_subset_of(direct_i.automaton()))
            };
            let reported = audit.member_diagnostics[i]
                .iter()
                .any(|d| d.code == "SUITE001");
            assert_eq!(
                reported, expected,
                "seed {seed}: SUITE001 on member {i} disagrees with the folded conjunction"
            );
        }

        // 5. Dominance edges are strict containments between
        //    representatives with nothing strictly in between.
        for &(a, b) in &audit.dominance {
            assert!(audit.subsumption[a][b] && !audit.subsumption[b][a]);
            assert!(!reps.iter().any(|&c| {
                audit.subsumption[a][c]
                    && !audit.subsumption[c][a]
                    && audit.subsumption[c][b]
                    && !audit.subsumption[b][c]
            }));
        }

        // 6. The lasso bank, rebuilt from the automata alone: each
        //    member's accepted lasso and its complement's. It settles
        //    every hash-distinct cell (i, j) with a lasso i accepts and
        //    j rejects — each such cell is a non-inclusion by the
        //    complement oracle — and every conflict candidate (an
        //    incomparable non-empty representative pair) with a lasso
        //    both accept; `lasso_decided` counts exactly those.
        let bank: Vec<Lasso> = suite
            .iter()
            .flat_map(|(_, a)| [a.accepted_lasso(), a.complement().accepted_lasso()])
            .flatten()
            .collect();
        let accepts = |i: usize, w: &Lasso| suite[i].1.accepts(w);
        let hashes: Vec<_> = suite.iter().map(|(_, a)| structural_hash(a)).collect();
        let mut settled = 0;
        for i in 0..n {
            for j in (0..n).filter(|&j| hashes[j] != hashes[i]) {
                if let Some(w) = bank.iter().find(|w| accepts(i, w) && !accepts(j, w)) {
                    assert!(
                        !suite[i].1.is_subset_of_via_complement(&suite[j].1),
                        "seed {seed}: lasso {w:?} settled a true cell ({i},{j})"
                    );
                    assert!(!audit.subsumption[i][j]);
                    settled += 1;
                }
            }
        }
        for (k, &a) in reps.iter().enumerate() {
            for &b in &reps[k + 1..] {
                let comparable = audit.subsumption[a][b] || audit.subsumption[b][a];
                if !empty[a] && !empty[b] && !comparable {
                    settled += usize::from(bank.iter().any(|w| accepts(a, w) && accepts(b, w)));
                }
            }
        }
        assert_eq!(
            audit.prefilter.lasso_decided, settled as u64,
            "seed {seed}: the bank's count"
        );
        bank_settled += settled;
        oracle_calls += audit.prefilter.oracle_calls as usize;
    }
    // The sweep exercises both paths (730 settled, 817 oracle calls).
    assert!(
        bank_settled > 0 && oracle_calls > 0,
        "{bank_settled} settled by the bank, {oracle_calls} oracle calls"
    );
}

/// `--jobs N` never changes the report, only the wall time: the same
/// suites audited with 1, 2 and 4 workers produce identical reports.
#[test]
fn worker_count_does_not_change_the_report() {
    let sigma = sigma();
    for seed in (0..200u64).step_by(5) {
        let suite = random_suite(seed, &sigma);
        let strip = |mut a: SuiteAudit| {
            a.stats = AnalysisStats::default();
            a
        };
        let sequential = strip(
            audit_suite(
                &suite,
                &AuditOptions {
                    jobs: 1,
                    ..AuditOptions::default()
                },
            )
            .unwrap(),
        );
        for jobs in [2, 4] {
            let parallel = strip(
                audit_suite(
                    &suite,
                    &AuditOptions {
                        jobs,
                        ..AuditOptions::default()
                    },
                )
                .unwrap(),
            );
            assert_eq!(parallel, sequential, "seed {seed}, jobs {jobs}");
        }
    }
}

/// A duplicate-heavy suite is decided entirely by the canonical-hash
/// prefilter: every pair hash-equal, zero oracle calls.
#[test]
fn duplicate_heavy_suite_never_reaches_the_oracle() {
    let sigma = sigma();
    let mut rng = StdRng::seed_from_u64(7);
    let (aut, _) = random_streett(&mut rng, &sigma, 6, 1, 0.4);
    let suite: Vec<(String, OmegaAutomaton)> =
        (0..10).map(|i| (format!("copy{i}"), aut.clone())).collect();
    let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
    assert_eq!(audit.prefilter.pairs, 45);
    assert_eq!(audit.prefilter.hash_decided, 45);
    assert_eq!(
        audit.prefilter.oracle_calls, 0,
        "identical copies must never reach the inclusion oracle"
    );
    for i in 1..10 {
        assert_eq!(audit.representative[i], 0);
        assert!(audit.member_diagnostics[i]
            .iter()
            .any(|d| d.code == "SUITE002"));
    }
}

/// A mixed duplicate-heavy suite, 16 bisimilar copies of one machine
/// among 4 distinct others: the hash decides every in-group pair, which
/// is most of them, so the directed oracle runs stay below even the
/// undirected pair count, and every copy joins the first member's class.
#[test]
fn mixed_duplicate_heavy_suite_is_mostly_decided_by_hash() {
    let sigma = sigma();
    let mut rng = StdRng::seed_from_u64(20260808);
    let (base, _) = random_streett(&mut rng, &sigma, 8, 1, 0.3);
    let mut suite: Vec<(String, OmegaAutomaton)> = (0..16)
        .map(|i| (format!("copy{i}"), base.clone()))
        .collect();
    suite.extend((0..4).map(|i| {
        (
            format!("m{i}"),
            random_streett(&mut rng, &sigma, 8, 1, 0.3).0,
        )
    }));
    let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
    let p = audit.prefilter;
    assert_eq!(p.pairs, 190);
    assert!(p.hash_decided * 2 > p.pairs, "{p:?}");
    assert!(p.oracle_calls < p.pairs, "{p:?}");
    assert!((0..16).all(|i| audit.representative[i] == 0));
}

/// The PR's acceptance scenario: a 20-property suite (15 mutual
/// exclusions plus 5 progress properties spanning the hierarchy) audits
/// clean; injecting one redundant member, one α-renamed duplicate and
/// one conflicting member reports exactly those three findings, with
/// nothing on the 20 original members.
#[test]
fn twenty_property_scenario_reports_injections_exactly() {
    let sigma = Alphabet::of_propositions(["p0", "p1", "p2", "p3", "p4", "p5"]).unwrap();
    let mut sources: Vec<(String, String)> = Vec::new();
    for i in 0..6 {
        for j in i + 1..6 {
            sources.push((format!("mutex-{i}{j}"), format!("G !(p{i} & p{j})")));
        }
    }
    sources.push(("eventually-0".into(), "F p0".into()));
    sources.push(("response-01".into(), "G (p0 -> F p1)".into()));
    sources.push(("quiescence-5".into(), "F G !p5".into()));
    sources.push(("obligation-34".into(), "G !p3 | F p4".into()));
    sources.push(("fair-merge-12".into(), "G F p1 -> G F p2".into()));
    assert_eq!(sources.len(), 20);

    let compile = |src: &str| Property::parse(&sigma, src).expect(src);
    let properties: Vec<(String, Property)> = sources
        .iter()
        .map(|(name, src)| (name.clone(), compile(src)))
        .collect();
    let items: Vec<(&str, &Property)> = properties.iter().map(|(n, p)| (n.as_str(), p)).collect();
    // Two cold one-shot audits with deep checks, the work `spec-lint
    // audit` spreads over the machine's cores: two workers cut this
    // test's debug wall time by a third. The report does not depend on
    // the count (`worker_count_does_not_change_the_report`).
    let opts = AuditOptions {
        jobs: 2,
        ..AuditOptions::default()
    };
    let baseline = audit_properties(items.iter().copied(), &opts).expect("one alphabet");
    assert_eq!(
        baseline.all_diagnostics(),
        vec![],
        "the seeded 20-property suite must audit clean"
    );
    assert!(
        baseline.histogram.len() >= 4,
        "the suite spans the hierarchy"
    );

    // Injections: a union of two members (redundant), a commuted mutex
    // (α-equivalent duplicate), and the negation of the quiescence
    // member (conflicting pair).
    let injected: Vec<(String, Property)> = vec![
        (
            "either-mutex".into(),
            compile("G !(p0 & p1) | G !(p2 & p3)"),
        ),
        ("mutex-01-again".into(), compile("G !(p1 & p0)")),
        ("churn-5".into(), compile("G F p5")),
    ];
    let all: Vec<(&str, &Property)> = items
        .iter()
        .copied()
        .chain(injected.iter().map(|(n, p)| (n.as_str(), p)))
        .collect();
    let report = audit_properties(all.iter().copied(), &opts).expect("one alphabet");
    for i in 0..20 {
        assert_eq!(
            report.member_diagnostics[i],
            vec![],
            "original member {:?} must stay silent",
            report.names[i]
        );
    }
    let member_codes = |i: usize| -> Vec<&'static str> {
        report.member_diagnostics[i]
            .iter()
            .map(|d| d.code)
            .collect()
    };
    assert_eq!(
        member_codes(20),
        ["SUITE001"],
        "the union member is redundant"
    );
    assert_eq!(
        member_codes(21),
        ["SUITE002"],
        "the commuted mutex is a duplicate"
    );
    assert_eq!(
        report.representative[21], 0,
        "the duplicate joins mutex-01's language class"
    );
    assert_eq!(
        member_codes(22),
        [] as [&str; 0],
        "the conflict is a suite-level finding"
    );
    let suite_codes: Vec<&'static str> = report.suite_diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(suite_codes, ["SUITE003"], "exactly one conflict");
    let msg = &report.suite_diagnostics[0].message;
    assert!(
        msg.contains("\"quiescence-5\"") && msg.contains("\"churn-5\""),
        "the conflict names the injected pair, got: {msg}"
    );
}

/// Eleven formulas over {p, q, r} whose `SUITE004` fold for one member,
/// `¬rest ∪ L_i`, has seventeen acceptance atoms. Classification takes
/// any number of atoms, so no deep check is skipped, and the audit
/// reports exactly the suite's three implied members (`SUITE001`) and
/// three duplicates (`SUITE002`).
#[test]
fn suite_fold_with_seventeen_atoms_is_checked() {
    let sigma = Alphabet::of_propositions(["p", "q", "r"]).unwrap();
    let sources = [
        "q U p | !p",
        "p | r",
        "r & F q",
        "!(!r U p)",
        "!X (false | r)",
        "X (true U q | true)",
        "p | !F false",
        "G F (q & true)",
        "q",
        "F (p | F r)",
        "F (q | r) | true",
    ];
    let suite: Vec<(String, OmegaAutomaton)> = sources
        .iter()
        .map(|src| {
            let aut = Property::parse(&sigma, src).unwrap().automaton().clone();
            (src.to_string(), aut)
        })
        .collect();
    let audit = audit_suite(&suite, &AuditOptions::default()).expect("one alphabet");
    assert_eq!(audit.deep_checks_skipped, 0, "every fold is classified");
    assert_eq!(audit.names.len(), sources.len());
    let findings: Vec<(usize, &str)> = audit
        .member_diagnostics
        .iter()
        .enumerate()
        .flat_map(|(i, diags)| diags.iter().map(move |d| (i, d.code)))
        .collect();
    assert_eq!(
        findings,
        [
            (1, "SUITE001"),
            (2, "SUITE001"),
            (5, "SUITE002"),
            (6, "SUITE002"),
            (9, "SUITE001"),
            (10, "SUITE002"),
        ]
    );
    assert!(audit.suite_diagnostics.is_empty());
}
