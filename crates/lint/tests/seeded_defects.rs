//! Seeded-defect sweep: inject a known defect into a random Streett
//! automaton and assert that exactly the corresponding diagnostic starts
//! firing — the lint report of the mutated automaton must equal the
//! baseline report plus the injected rule's code, nothing else.
//!
//! Seeds whose baseline already contains the injected code are skipped
//! (the defect would be masked); the sweep demands a minimum number of
//! usable seeds per injection so the assertions cannot silently pass on
//! an empty sample.

use hierarchy_automata::acceptance::Acceptance;
use hierarchy_automata::alphabet::Alphabet;
use hierarchy_automata::analysis::Analysis;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::random::random_streett;
use hierarchy_automata::random::rng::{SeedableRng, StdRng};
use hierarchy_lint::lint_automaton;
use std::collections::BTreeSet;

fn sigma() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

fn codes(aut: &OmegaAutomaton) -> BTreeSet<&'static str> {
    lint_automaton(aut).into_iter().map(|d| d.code).collect()
}

/// Asserts that `mutated` fires exactly `baseline ∪ {injected}`.
fn assert_exactly_injected(
    seed: u64,
    injected: &'static str,
    baseline: &BTreeSet<&'static str>,
    mutated: &OmegaAutomaton,
) {
    let mut expected = baseline.clone();
    expected.insert(injected);
    let got = codes(mutated);
    assert_eq!(
        got, expected,
        "seed {seed}: injecting a {injected} defect changed the report beyond {injected}"
    );
}

#[test]
fn injected_unreachable_state_fires_aut003() {
    let sigma = sigma();
    let mut usable = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 10, 2, 0.5);
        let baseline = codes(&aut);
        if baseline.contains("AUT003") || baseline.contains("AUT001") {
            continue; // masked, or short-circuited by emptiness
        }
        // One extra state, self-looping, reachable from nowhere.
        let n = aut.num_states();
        let mutated = OmegaAutomaton::build(
            &sigma,
            n + 1,
            aut.initial(),
            |q, s| {
                if (q as usize) < n {
                    aut.step(q, s)
                } else {
                    q
                }
            },
            aut.acceptance().clone(),
        );
        assert_exactly_injected(seed, "AUT003", &baseline, &mutated);
        usable += 1;
    }
    assert!(usable >= 5, "only {usable} usable seeds for AUT003");
}

#[test]
fn injected_duplicate_conjunct_fires_aut006() {
    let sigma = sigma();
    let mut usable = 0;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 8, 2, 0.5);
        let baseline = codes(&aut);
        if baseline.contains("AUT006") || baseline.contains("AUT001") {
            continue; // masked, or short-circuited by emptiness
        }
        let Acceptance::And(xs) = aut.acceptance() else {
            continue;
        };
        // Duplicate the first Streett pair: dropping either copy now
        // provably leaves the language unchanged.
        let mut dup = xs.clone();
        dup.push(xs[0].clone());
        let mutated = aut.with_acceptance(Acceptance::And(dup));
        assert_exactly_injected(seed, "AUT006", &baseline, &mutated);
        usable += 1;
    }
    assert!(usable >= 5, "only {usable} usable seeds for AUT006");
}

/// Adds `state` to the first non-empty `Inf` atom of the condition.
/// (Widening an empty atom would leave it cycle-free and fire `AUT005`
/// rather than `AUT007`.)
fn widen_first_inf(acc: &Acceptance, state: usize, done: &mut bool) -> Acceptance {
    match acc {
        Acceptance::Inf(s) if !*done && !s.is_empty() => {
            *done = true;
            let mut s = s.clone();
            s.insert(state);
            Acceptance::Inf(s)
        }
        Acceptance::And(xs) => {
            Acceptance::And(xs.iter().map(|x| widen_first_inf(x, state, done)).collect())
        }
        Acceptance::Or(xs) => {
            Acceptance::Or(xs.iter().map(|x| widen_first_inf(x, state, done)).collect())
        }
        other => other.clone(),
    }
}

/// Restricts every atom set to `keep` (the reachable cyclic region).
/// Language-preserving: infinity sets are subsets of `keep`, so both
/// `Inf` and `Fin` atoms only ever observe states inside it.
fn restrict_atoms(acc: &Acceptance, keep: &hierarchy_automata::bitset::BitSet) -> Acceptance {
    match acc {
        Acceptance::Inf(s) => Acceptance::Inf(s.intersection(keep)),
        Acceptance::Fin(s) => Acceptance::Fin(s.intersection(keep)),
        Acceptance::And(xs) => {
            Acceptance::And(xs.iter().map(|x| restrict_atoms(x, keep)).collect())
        }
        Acceptance::Or(xs) => Acceptance::Or(xs.iter().map(|x| restrict_atoms(x, keep)).collect()),
        other => other.clone(),
    }
}

#[test]
fn injected_transient_atom_state_fires_aut007() {
    let sigma = sigma();
    let mut usable = 0;
    for seed in 0..80u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // k = 1 keeps the top-level condition free of droppable conjuncts,
        // so AUT006 cannot be provoked as a side effect.
        let (raw, _) = random_streett(&mut rng, &sigma, 12, 1, 0.4);
        // Random atom sets almost always contain stray states already, so
        // first sanitize the acceptance: restrict every atom to the
        // reachable cyclic region (sound, see `restrict_atoms`), giving a
        // baseline without AUT007.
        let raw_ctx = Analysis::new(raw.clone());
        let cond = raw_ctx.condensation();
        let mut cyc = hierarchy_automata::bitset::BitSet::new();
        for c in 0..cond.status.len() {
            if cond.status[c].is_some() {
                cyc.union_with(&cond.sccs.member_set(c));
            }
        }
        let aut = raw.with_acceptance(restrict_atoms(raw.acceptance(), &cyc));
        let baseline = codes(&aut);
        if baseline.contains("AUT007") || baseline.contains("AUT001") {
            continue;
        }
        // A reachable state on no cycle (a transient SCC of the
        // condensation): after sanitizing, no atom mentions it.
        let transient = (0..cond.status.len())
            .filter(|&c| cond.status[c].is_none())
            .flat_map(|c| cond.sccs.member_set(c).iter().collect::<Vec<_>>())
            .next();
        let Some(q) = transient else { continue };
        let mut done = false;
        let widened = widen_first_inf(aut.acceptance(), q, &mut done);
        if !done {
            continue; // no Inf atom in this condition
        }
        let ctx = Analysis::new(aut.clone());
        let mutated = aut.with_acceptance(widened);
        // Soundness of the rule itself: the language must be unchanged.
        assert!(
            ctx.equivalent(&mutated),
            "seed {seed}: widening an Inf atom by a transient state changed the language"
        );
        assert_exactly_injected(seed, "AUT007", &baseline, &mutated);
        usable += 1;
    }
    assert!(usable >= 5, "only {usable} usable seeds for AUT007");
}

// ---------------------------------------------------------------------------
// FTS defect injections: mutate seeded random declarative programs and
// assert the invariant-backed semantic rules catch what the syntactic
// rules cannot see (or cannot even run on).

mod fts_defects {
    use super::*;
    use hierarchy_fts::absint::{random_program, Branch, Expr, Guard, Program};
    use hierarchy_fts::builder::BuildError;
    use hierarchy_fts::system::{Fairness, SystemError};
    use hierarchy_lint::{lint_abstract_program, Location};

    fn abs_codes(p: &Program) -> BTreeSet<&'static str> {
        lint_abstract_program(p)
            .expect("valid program")
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    fn prop_sigma() -> Alphabet {
        Alphabet::of_propositions(["p0", "p1"]).unwrap()
    }

    /// Growing a non-`pc` variable's domain makes its top value dead:
    /// the semantic `FTS004` (dead declared values) must fire, although
    /// the variable is not *constant* in the enumerated reachable
    /// valuations.
    #[test]
    fn grown_domain_fires_semantic_fts004() {
        let sigma = prop_sigma();
        let mut usable = 0;
        for seed in 0..80u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = random_program(&mut rng);
            // Mutate the last variable, which random_program never picks
            // as the pc (the pc is always variable 0).
            let x = prog.domains.len() - 1;
            if prog.pc == Some(x) {
                continue;
            }
            let baseline = abs_codes(&prog);
            if baseline.contains("FTS004") || baseline.contains("FTS005") {
                continue; // masked, or envelope findings the growth would shift
            }
            // Skip seeds where x is exactly constant: there the finding
            // would not need the invariant.
            let (_, vals) = prog
                .to_builder(&sigma)
                .build_with_valuations()
                .expect("random programs build");
            let exact: BTreeSet<usize> = vals.iter().map(|v| v[x]).collect();
            if exact.len() <= 1 {
                continue;
            }
            let mut grown = prog.clone();
            grown.domains[x] += 1;
            let mut expected = baseline.clone();
            expected.insert("FTS004");
            assert_eq!(
                abs_codes(&grown),
                expected,
                "seed {seed}: growing a domain must add exactly FTS004"
            );
            usable += 1;
        }
        assert!(
            usable >= 5,
            "only {usable} usable seeds for semantic FTS004"
        );
    }

    /// Growing the `pc` domain plants an unreachable location; only the
    /// invariant-backed `FTS006` can report it.
    #[test]
    fn grown_pc_domain_fires_fts006() {
        let mut usable = 0;
        for seed in 0..80u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = random_program(&mut rng);
            let Some(p) = prog.pc else { continue };
            let baseline = abs_codes(&prog);
            if baseline.contains("FTS006") || baseline.contains("FTS005") {
                continue;
            }
            let mut grown = prog.clone();
            grown.domains[p] += 1;
            let mut expected = baseline.clone();
            expected.insert("FTS006");
            assert_eq!(
                abs_codes(&grown),
                expected,
                "seed {seed}: growing the pc domain must add exactly FTS006"
            );
            usable += 1;
        }
        assert!(usable >= 5, "only {usable} usable seeds for FTS006");
    }

    /// Conjoining `x = |dom(x)|` (a value outside the domain) onto a
    /// guard makes it unsatisfiable; `FTS005` fires from the domain
    /// envelope alone, before any invariant or enumeration.
    #[test]
    fn tightened_guard_fires_fts005() {
        let mut usable = 0;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = random_program(&mut rng);
            let baseline_diags = lint_abstract_program(&prog).expect("valid program");
            let baseline: BTreeSet<&'static str> = baseline_diags.iter().map(|d| d.code).collect();
            // Skip seeds with findings on the command we mutate: a
            // command that is already dead (FTS001/FTS003) turns into
            // FTS005, which legitimately replaces the earlier code.
            let target = Location::Transition(prog.commands[0].name.clone());
            if baseline.contains("FTS005") || baseline_diags.iter().any(|d| d.location == target) {
                continue;
            }
            let mut tightened = prog.clone();
            let dom0 = tightened.domains[0] as i64;
            let g = tightened.commands[0].guard.clone();
            tightened.commands[0].guard = g.and(Guard::var_eq(0, dom0));
            let name = tightened.commands[0].name.clone();
            let diags = lint_abstract_program(&tightened).expect("still valid");
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == "FTS005" && d.location == Location::Transition(name.clone())),
                "seed {seed}: the tightened guard must fire FTS005"
            );
            // Killing a command can cascade (locations or values may become
            // unreachable), so demand containment rather than equality.
            let got: BTreeSet<&'static str> = diags.iter().map(|d| d.code).collect();
            assert!(
                got.is_superset(&baseline),
                "seed {seed}: baseline findings must persist"
            );
            usable += 1;
        }
        assert!(usable >= 5, "only {usable} usable seeds for FTS005");
    }

    /// An update that can leave its domain is not taken: at `x = 2` the
    /// saturating counter has no successor, so the enumeration reports a
    /// deadlock there (not an out-of-domain value), and
    /// `lint_abstract_program` still returns a report.
    #[test]
    fn out_of_domain_update_is_not_taken() {
        let mut ir = Program::new();
        let xi = ir.var("x", 3);
        ir.init(&[0]);
        ir.observe_prop(Guard::var_eq(xi, 2));
        ir.command(
            "inc",
            Fairness::Weak,
            Guard::True,
            vec![Branch::assign(vec![(xi, Expr::v(xi).add(Expr::c(1)))])],
        );
        let sigma = Alphabet::of_propositions(["hi"]).unwrap();
        assert_eq!(
            ir.to_builder(&sigma).build().unwrap_err(),
            BuildError::System(SystemError::Deadlock { state: 2 })
        );
        let diags = lint_abstract_program(&ir).expect("semantic lint is total");
        assert!(
            diags.is_empty(),
            "the saturating counter is healthy: {diags:?}"
        );
    }

    /// Injects a guard-only dead command (no fairness, skip branch) and
    /// asserts the relational rule fires exactly once, on it, with no
    /// other finding: the guard must stay feasible under the
    /// per-variable masks (FTS001/FTS003/FTS005 silent) while the pair
    /// relations refute it everywhere.
    fn assert_fts008_exactly(name: &str, prog: &Program, ghost: &str, guard: Guard) {
        let baseline = abs_codes(prog);
        assert!(
            baseline.is_empty(),
            "{name}: the clean program must lint clean, got {baseline:?}"
        );
        let mut broken = prog.clone();
        broken.command(ghost, Fairness::None, guard, vec![Branch::skip()]);
        let diags = lint_abstract_program(&broken).expect("still valid");
        let codes: BTreeSet<&'static str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            BTreeSet::from(["FTS008"]),
            "{name}: injection must add exactly FTS008, got {diags:?}"
        );
        assert!(
            diags
                .iter()
                .all(|d| d.location == Location::Transition(ghost.to_string())),
            "{name}: FTS008 must point at the injected command"
        );
    }

    /// Peterson with a command whose guard breaks the `turn`/`pc`
    /// correlation: `pc2 = 3 ∧ tb = 0` is cartesian-feasible (both
    /// values occur at `pc1 = 2`) but the pair `(pc2, tb)` never holds
    /// the joint `(3, 0)` — whoever is critical owns the turn.
    #[test]
    fn broken_turn_correlation_fires_fts008_on_peterson() {
        use hierarchy_fts::absint::peterson_abs;
        let guard = Guard::var_eq(0, 2)
            .and(Guard::var_eq(1, 3))
            .and(Guard::var_eq(2, 0));
        assert_fts008_exactly("peterson", &peterson_abs(), "ghost_enter", guard);
    }

    /// A desynchronized ring token: `tok1 = 1 ∧ tok2 = 1` is
    /// cartesian-feasible at the location `tok0 = 0` (either seat may
    /// hold the token there) but the pair `(tok1, tok2)` never records
    /// the joint `(1, 1)` — at most one token circulates.
    #[test]
    fn double_token_fires_fts008_on_token_ring() {
        use hierarchy_fts::absint::token_ring_n;
        let guard = Guard::var_eq(1, 1).and(Guard::var_eq(2, 1));
        assert_fts008_exactly("token-ring-n4", &token_ring_n(4), "double_token", guard);
    }

    /// An eating philosopher without their left fork: `p1 = 2 ∧ f1 = 0`
    /// is cartesian-feasible (philosopher 1 eats at some location where
    /// fork 1 is also sometimes free) but the pair `(p1, f1)` proves
    /// `p1 ≥ 1 ⇒ f1 = 1`.
    #[test]
    fn forkless_eater_fires_fts008_on_dining() {
        use hierarchy_fts::absint::dining_philosophers;
        let prog = dining_philosophers(3);
        // Variables: p0 p1 p2 f0 f1 f2 — p1 is index 1, f1 is index 4.
        let guard = Guard::var_eq(1, 2).and(Guard::var_eq(4, 0));
        assert_fts008_exactly("dining-phil-3", &prog, "forkless_eater", guard);
    }

    /// The clean named catalogue (fixed programs and N-families) never
    /// fires the relational rule.
    #[test]
    fn clean_catalogue_is_silent_on_fts008() {
        use hierarchy_fts::absint::{
            dining_philosophers, mux_sem_abs, mux_sem_n, peterson_abs, token_ring_abs, token_ring_n,
        };
        let catalogue: Vec<(String, Program)> = vec![
            ("peterson".into(), peterson_abs()),
            ("mux-sem".into(), mux_sem_abs(Fairness::Strong)),
            ("mux-sem-weak".into(), mux_sem_abs(Fairness::Weak)),
            ("token-ring".into(), token_ring_abs(true)),
            ("token-ring-stalled".into(), token_ring_abs(false)),
        ]
        .into_iter()
        .chain((2..=5).flat_map(|n| {
            [
                (format!("mux-sem-n{n}"), mux_sem_n(n)),
                (format!("token-ring-n{n}"), token_ring_n(n)),
                (format!("dining-phil-{n}"), dining_philosophers(n)),
            ]
        }))
        .collect();
        for (name, prog) in catalogue {
            let codes = abs_codes(&prog);
            assert!(
                !codes.contains("FTS008"),
                "{name}: clean program fired FTS008"
            );
        }
    }
}

/// Adds `states` to the first `Fin` atom of the condition, marking
/// `done` on success. A trap inside a `Fin` atom (and outside every
/// `Inf` atom) rejects every run it captures, so the grafted states in
/// [`injected_rejecting_trap_fires_aut004`] are dead by construction.
fn widen_first_fin(acc: &Acceptance, states: [usize; 2], done: &mut bool) -> Acceptance {
    match acc {
        Acceptance::Fin(s) if !*done => {
            *done = true;
            let mut s = s.clone();
            s.insert(states[0]);
            s.insert(states[1]);
            Acceptance::Fin(s)
        }
        Acceptance::And(xs) => Acceptance::And(
            xs.iter()
                .map(|x| widen_first_fin(x, states, done))
                .collect(),
        ),
        Acceptance::Or(xs) => Acceptance::Or(
            xs.iter()
                .map(|x| widen_first_fin(x, states, done))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Grafts a rejecting two-state trap behind an edge that lies on no
/// cycle. The trap states cycle through each other, sit in a `Fin` atom
/// and no `Inf` atom (dead), and are bisimilar (symmetric rows, same
/// atom signature) — so exactly `AUT004` must start firing, and its
/// message must report the single quotient class that partition
/// refinement finds. Redirecting a non-cycle edge preserves every
/// original cycle, so the cyclic-region diagnostics keep their baseline
/// verdicts; language-sensitive baselines (`AUT002`, `AUT005`,
/// `AUT006`) are skipped because the trap shrinks the language.
#[test]
fn injected_rejecting_trap_fires_aut004() {
    let sigma = sigma();
    let mut usable = 0;
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 10, 1, 0.3);
        let baseline = codes(&aut);
        if ["AUT001", "AUT002", "AUT003", "AUT004", "AUT005", "AUT006"]
            .iter()
            .any(|c| baseline.contains(c))
        {
            continue; // masked, or sensitive to the language shrink
        }
        let ctx = Analysis::new(aut.clone());
        if ctx.reachable().iter().any(|q| !ctx.live().contains(q)) {
            continue; // pre-existing dead states would join the report
        }
        let n = aut.num_states();
        // An edge p --s--> t on no cycle: no path from t back to p, so
        // redirecting it into the trap destroys no original cycle.
        let mut pick = None;
        'edges: for p in 0..n {
            for s in sigma.symbols() {
                let t = aut.step(p as u32, s);
                let mut seen = vec![false; n];
                let mut stack = vec![t];
                let mut hits_p = false;
                while let Some(q) = stack.pop() {
                    if q as usize == p {
                        hits_p = true;
                        break;
                    }
                    if std::mem::replace(&mut seen[q as usize], true) {
                        continue;
                    }
                    stack.extend(sigma.symbols().map(|sym| aut.step(q, sym)));
                }
                if !hits_p {
                    pick = Some((p, s));
                    break 'edges;
                }
            }
        }
        let Some((p, s)) = pick else {
            continue; // every edge is cyclic, nowhere to graft
        };
        let mut done = false;
        let acceptance = widen_first_fin(aut.acceptance(), [n, n + 1], &mut done);
        if !done {
            continue; // no Fin atom to make the trap rejecting
        }
        let mutated = OmegaAutomaton::build(
            &sigma,
            n + 2,
            aut.initial(),
            |q, sym| {
                if q as usize == n {
                    (n + 1) as u32 // the trap states cycle through each other
                } else if q as usize == n + 1 || (q as usize == p && sym == s) {
                    n as u32 // close the trap cycle / graft the entry edge
                } else {
                    aut.step(q, sym)
                }
            },
            acceptance,
        );
        // The graft must keep every original state reachable (else
        // AUT003 noise) and must kill exactly the two trap states.
        let reach = mutated.reachable_states();
        if (0..n + 2).any(|q| !reach.contains(q)) {
            continue;
        }
        let ctx2 = Analysis::new(mutated.clone());
        let dead: Vec<usize> = ctx2
            .reachable()
            .iter()
            .filter(|&q| !ctx2.live().contains(q))
            .collect();
        if dead != vec![n, n + 1] {
            continue; // the redirect starved some original state
        }
        assert_exactly_injected(seed, "AUT004", &baseline, &mutated);
        let diag = lint_automaton(&mutated)
            .into_iter()
            .find(|di| di.code == "AUT004")
            .expect("AUT004 fired");
        assert!(
            diag.message
                .contains(&format!("1 class(es): {{{n}, {}}}", n + 1)),
            "seed {seed}: AUT004 must report the exact quotient class, got: {}",
            diag.message
        );
        usable += 1;
    }
    assert!(usable >= 5, "only {usable} usable seeds for AUT004");
}

#[test]
fn injected_constant_atom_fires_aut005() {
    let sigma = sigma();
    let mut usable = 0;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (aut, _) = random_streett(&mut rng, &sigma, 10, 1, 0.5);
        let baseline = codes(&aut);
        if baseline.contains("AUT005") || baseline.contains("AUT001") {
            continue;
        }
        // Conjoin Inf(∅): an atom that misses every cycle by construction.
        // Inf(∅) is unsatisfiable, so the conjunction empties the language
        // — which is why the injection targets an Or instead: Φ ∨ Inf(∅)
        // keeps the language and plants a constantly-false disjunct.
        let mutated = aut.with_acceptance(Acceptance::Or(vec![
            aut.acceptance().clone(),
            Acceptance::Inf(hierarchy_automata::bitset::BitSet::new()),
        ]));
        assert_exactly_injected(seed, "AUT005", &baseline, &mutated);
        usable += 1;
    }
    assert!(usable >= 5, "only {usable} usable seeds for AUT005");
}

// ---------------------------------------------------------------------------
// SUITE defect injections: mutate a whole *suite* of properties and
// assert the audit reports exactly the injected cross-property finding
// — nothing on the untouched members, nothing extra at suite level.

mod suite_defects {
    use super::*;
    use hierarchy_lint::suite::{audit_suite, AuditOptions, SuiteAudit};
    use hierarchy_lint::Location;

    fn audit_with(items: &[(String, OmegaAutomaton)], cap: usize) -> SuiteAudit {
        audit_suite(
            items,
            &AuditOptions {
                conjunction_cap: cap,
                ..AuditOptions::default()
            },
        )
        .expect("suites share one alphabet")
    }

    fn audit(items: &[(String, OmegaAutomaton)]) -> SuiteAudit {
        audit_with(items, AuditOptions::default().conjunction_cap)
    }

    /// A usable baseline: no findings at all, every member non-empty,
    /// all languages pairwise distinct — so the injection's diagnostic
    /// is provably the only change in the mutated report.
    fn clean_baseline(report: &SuiteAudit, items: &[(String, OmegaAutomaton)]) -> bool {
        report.member_diagnostics.iter().all(Vec::is_empty)
            && report.suite_diagnostics.is_empty()
            && report
                .representative
                .iter()
                .enumerate()
                .all(|(i, &r)| r == i)
            && items
                .iter()
                .all(|(_, a)| !Analysis::new(a.clone()).is_empty())
    }

    fn random_suite(seed: u64, sigma: &Alphabet, k: usize) -> Vec<(String, OmegaAutomaton)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|i| {
                (
                    format!("m{i}"),
                    random_streett(&mut rng, sigma, 6, 1, 0.4).0,
                )
            })
            .collect()
    }

    fn member_codes(report: &SuiteAudit, i: usize) -> Vec<&'static str> {
        report.member_diagnostics[i]
            .iter()
            .map(|d| d.code)
            .collect()
    }

    /// The union of the whole suite is implied by any single member
    /// (fast path), and the conjunction-of-the-rest of every existing
    /// member already lies inside the union — so injecting it adds
    /// exactly one `SUITE001` and changes nothing else.
    #[test]
    fn injected_union_member_fires_suite001() {
        let sigma = sigma();
        let mut usable = 0;
        for seed in 0..200u64 {
            let members = random_suite(seed, &sigma, 3);
            let baseline = audit(&members);
            if !clean_baseline(&baseline, &members) {
                continue;
            }
            let union = members
                .iter()
                .skip(1)
                .fold(members[0].1.clone(), |acc, (_, a)| acc.union(a));
            let mut mutated = members.clone();
            mutated.push(("union".into(), union));
            let report = audit(&mutated);
            for i in 0..members.len() {
                assert_eq!(
                    member_codes(&report, i),
                    Vec::<&str>::new(),
                    "seed {seed}: untouched member {i} gained a finding"
                );
            }
            assert_eq!(
                member_codes(&report, members.len()),
                ["SUITE001"],
                "seed {seed}: the union member must be exactly redundant"
            );
            assert!(
                report.suite_diagnostics.is_empty(),
                "seed {seed}: no suite-level finding may appear"
            );
            usable += 1;
        }
        assert!(usable >= 5, "only {usable} usable seeds for SUITE001");
    }

    /// Maps every acceptance atom through a state permutation.
    fn permute_acceptance(acc: &Acceptance, pi: &[u32]) -> Acceptance {
        match acc {
            Acceptance::Inf(s) => Acceptance::inf(s.iter().map(|q| pi[q] as usize)),
            Acceptance::Fin(s) => Acceptance::fin(s.iter().map(|q| pi[q] as usize)),
            Acceptance::And(xs) => {
                Acceptance::And(xs.iter().map(|x| permute_acceptance(x, pi)).collect())
            }
            Acceptance::Or(xs) => {
                Acceptance::Or(xs.iter().map(|x| permute_acceptance(x, pi)).collect())
            }
            other => other.clone(),
        }
    }

    /// An α-renamed (state-permuted) copy of a member has an identical
    /// canonical form, so the prefilter alone must convict it: exactly
    /// one `SUITE002` on the copy, decided without the oracle.
    #[test]
    fn injected_alpha_renamed_duplicate_fires_suite002() {
        let sigma = sigma();
        let mut usable = 0;
        for seed in 0..200u64 {
            let members = random_suite(seed, &sigma, 3);
            let baseline = audit(&members);
            if !clean_baseline(&baseline, &members) {
                continue;
            }
            let original = &members[0].1;
            let n = original.num_states();
            // Reversal is an involution, so it is its own inverse.
            let pi: Vec<u32> = (0..n as u32).rev().collect();
            let renamed = OmegaAutomaton::build(
                &sigma,
                n,
                pi[original.initial() as usize],
                |q, s| pi[original.step(pi[q as usize], s) as usize],
                permute_acceptance(original.acceptance(), &pi),
            );
            let mut mutated = members.clone();
            mutated.push(("renamed".into(), renamed));
            let report = audit(&mutated);
            for i in 0..members.len() {
                assert_eq!(
                    member_codes(&report, i),
                    Vec::<&str>::new(),
                    "seed {seed}: untouched member {i} gained a finding"
                );
            }
            assert_eq!(
                member_codes(&report, members.len()),
                ["SUITE002"],
                "seed {seed}: the renamed copy must be exactly a duplicate"
            );
            assert_eq!(
                report.representative[members.len()],
                0,
                "seed {seed}: the copy joins member 0's language class"
            );
            assert!(
                report.member_diagnostics[members.len()][0]
                    .message
                    .contains("identical canonical form"),
                "seed {seed}: an α-renaming must be convicted by the hash prefilter"
            );
            assert!(report.suite_diagnostics.is_empty(), "seed {seed}");
            usable += 1;
        }
        assert!(usable >= 5, "only {usable} usable seeds for SUITE002");
    }

    /// The complement of a member conflicts with it by construction,
    /// and with nothing else on a clean baseline (a second conflict
    /// `m_j ∩ ¬m_0 = ∅` would mean `m_j ⊆ m_0`, which the baseline's
    /// containment silence excludes). Deep checks are disabled so the
    /// advisory `SUITE004` cannot ride along and the report is exact.
    #[test]
    fn injected_complement_member_fires_suite003() {
        let sigma = sigma();
        let mut usable = 0;
        for seed in 0..1400u64 {
            if usable >= 8 {
                break; // the sample is large enough
            }
            let members = random_suite(seed, &sigma, 3);
            let baseline = audit_with(&members, 0);
            if !clean_baseline(&baseline, &members) {
                continue;
            }
            let negated = members[0].1.complement();
            let neg_ctx = Analysis::new(negated.clone());
            if neg_ctx.is_empty() {
                continue; // m0 is universal, the complement is no member
            }
            // ¬m0 ⊆ m_j would fire SUITE001 on m_j; skip those seeds.
            if members.iter().any(|(_, a)| {
                neg_ctx.is_subset_of(a) || Analysis::new(a.clone()).is_subset_of(&negated)
            }) {
                continue;
            }
            let mut mutated = members.clone();
            mutated.push(("negated-m0".into(), negated));
            let report = audit_with(&mutated, 0);
            for i in 0..mutated.len() {
                assert_eq!(
                    member_codes(&report, i),
                    Vec::<&str>::new(),
                    "seed {seed}: no member-level finding may appear"
                );
            }
            let codes: Vec<&'static str> =
                report.suite_diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["SUITE003"], "seed {seed}");
            let msg = &report.suite_diagnostics[0].message;
            assert!(
                msg.contains("\"m0\"") && msg.contains("\"negated-m0\""),
                "seed {seed}: the conflict must name the injected pair, got: {msg}"
            );
            usable += 1;
        }
        assert!(usable >= 5, "only {usable} usable seeds for SUITE003");
    }

    /// Re-reading a clean suite over an alphabet extended by one fresh
    /// proposition (every member lifted cylindrically, so all pairwise
    /// relations survive) must add exactly one `SUITE005`, on the fresh
    /// proposition.
    #[test]
    fn unconstrained_proposition_fires_suite005() {
        let sigma2 = Alphabet::of_propositions(["p", "q"]).unwrap();
        let sigma3 = Alphabet::of_propositions(["p", "q", "r"]).unwrap();
        let mut usable = 0;
        for seed in 0..200u64 {
            let members = random_suite(seed, &sigma2, 3);
            let baseline = audit(&members);
            if !clean_baseline(&baseline, &members) {
                continue; // includes SUITE005 on p or q: a masked seed
            }
            let lifted: Vec<(String, OmegaAutomaton)> = members
                .iter()
                .map(|(name, a)| {
                    let lift = OmegaAutomaton::build(
                        &sigma3,
                        a.num_states(),
                        a.initial(),
                        |q, s| {
                            let holds = [
                                sigma3.proposition_holds(s, 0),
                                sigma3.proposition_holds(s, 1),
                            ];
                            a.step(q, sigma2.valuation_symbol(&holds))
                        },
                        a.acceptance().clone(),
                    );
                    (name.clone(), lift)
                })
                .collect();
            let report = audit(&lifted);
            for i in 0..lifted.len() {
                assert_eq!(
                    member_codes(&report, i),
                    Vec::<&str>::new(),
                    "seed {seed}: lifting must not add member findings"
                );
            }
            let codes: Vec<&'static str> =
                report.suite_diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["SUITE005"], "seed {seed}");
            assert_eq!(
                report.suite_diagnostics[0].location,
                Location::Variable("r".into()),
                "seed {seed}: the dead proposition is the fresh one"
            );
            assert_eq!(
                report.classes, baseline.classes,
                "seed {seed}: cylindrical lifting preserves every class"
            );
            usable += 1;
        }
        assert!(usable >= 5, "only {usable} usable seeds for SUITE005");
    }

    /// The paper's running examples, read as one suite over a shared
    /// alphabet, audit clean: no redundancy, no duplicates, no
    /// conflicts, no overkill, no dead proposition.
    #[test]
    fn paper_running_examples_audit_silently() {
        use hierarchy_logic::ast::Formula;
        use hierarchy_logic::to_automaton::compile_over;
        let sigma = Alphabet::of_propositions(["c1", "c2", "t1", "t2"]).unwrap();
        let sources = [
            ("mutual-exclusion", "G !(c1 & c2)"),
            ("response-1", "G (t1 -> F c1)"),
            ("response-2", "G (t2 -> F c2)"),
            ("eventual-entry", "F c1"),
            ("quiescence", "F G !t2"),
        ];
        let suite: Vec<(String, OmegaAutomaton)> = sources
            .iter()
            .map(|(name, src)| {
                let f = Formula::parse(&sigma, src).expect(src);
                (name.to_string(), compile_over(&sigma, &f).expect(src))
            })
            .collect();
        let report = audit(&suite);
        assert_eq!(
            report.all_diagnostics(),
            vec![],
            "the paper's examples must audit clean"
        );
        assert!(report.is_clean());
        // The suite spans the hierarchy: safety, recurrence, guarantee,
        // persistence all populated.
        let classes: Vec<&str> = report.histogram.iter().map(|&(c, _)| c).collect();
        assert_eq!(
            classes,
            ["safety", "guarantee", "recurrence", "persistence"]
        );
    }
}
