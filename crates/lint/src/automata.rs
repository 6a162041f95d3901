//! Automaton lints (`AUT001`–`AUT007`): structural and semantic checks on
//! deterministic ω-automata, all phrased as queries against the shared
//! [`Analysis`] context so a caller who has already classified the
//! automaton pays almost nothing extra.
//!
//! The soundness argument behind the acceptance rules: an infinity set of a run is
//! always a subset of one reachable *cyclic* SCC, so
//!
//! * an atom whose set misses every reachable cycle is constant on all
//!   runs (`Inf` never holds, `Fin` always holds) — [`AUT005`];
//! * states of an atom outside the reachable cyclic region can be dropped
//!   from the atom without changing the language — [`AUT007`];
//! * a rejecting trap is the canonical shape of a safety automaton, so a
//!   *single* reachable dead state is not worth reporting; two or more are
//!   mergeable — [`AUT004`].
//!
//! [`AUT005`]: crate::registry::AUT005
//! [`AUT007`]: crate::registry::AUT007
//! [`AUT004`]: crate::registry::AUT004

use crate::diagnostic::{Diagnostic, Location};
use crate::registry::{self, RuleInfo};
use hierarchy_automata::acceptance::Acceptance;
use hierarchy_automata::analysis::Analysis;
use hierarchy_automata::bitset::BitSet;
use hierarchy_automata::omega::OmegaAutomaton;

fn diag(rule: &RuleInfo, location: Location, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(rule.code, rule.severity, location, message)
}

fn set_display(s: &BitSet) -> String {
    let mut out = String::from("{");
    for (i, q) in s.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&q.to_string());
    }
    out.push('}');
    out
}

/// Lints an automaton with a fresh analysis context. Prefer
/// [`lint_automaton_ctx`] when an [`Analysis`] for the automaton already
/// exists (classification and linting then share every SCC pass).
pub fn lint_automaton(aut: &OmegaAutomaton) -> Vec<Diagnostic> {
    lint_automaton_ctx(&Analysis::new(aut.clone()))
}

/// Lints the automaton held by an existing analysis context, reusing its
/// memoized reachability, liveness, condensation, product and
/// inclusion-verdict caches.
pub fn lint_automaton_ctx(ctx: &Analysis) -> Vec<Diagnostic> {
    let aut = ctx.automaton();
    let n = aut.num_states();
    let reachable = ctx.reachable();
    let mut out = Vec::new();

    // AUT001 / AUT002: degenerate languages. An empty language makes every
    // further finding noise (all atoms are trivially constant), so stop.
    if ctx.is_empty() {
        out.push(
            diag(
                &registry::AUT001,
                Location::Root,
                "the automaton accepts no word: its language is empty",
            )
            .with_suggestion("check the acceptance condition against the reachable cycles"),
        );
        return out;
    }
    if ctx.is_universal() && (n > 1 || *aut.acceptance() != Acceptance::True) {
        out.push(
            diag(
                &registry::AUT002,
                Location::Root,
                "the automaton accepts every word but is not written as the one-state \
                 universal automaton",
            )
            .with_suggestion("replace it with OmegaAutomaton::universal"),
        );
    }

    // AUT003: unreachable states.
    let unreachable: Vec<usize> = (0..n).filter(|&q| !reachable.contains(q)).collect();
    if !unreachable.is_empty() {
        let count = unreachable.len();
        out.push(
            diag(
                &registry::AUT003,
                Location::States(unreachable),
                format!("{count} state(s) are unreachable from the initial state"),
            )
            .with_suggestion("call trim() to drop them"),
        );
    }

    // AUT004: ≥ 2 reachable dead states. One rejecting trap is the
    // canonical safety-automaton shape and is left alone.
    let live = ctx.live();
    let dead: Vec<usize> = reachable.iter().filter(|&q| !live.contains(q)).collect();
    if dead.len() >= 2 {
        let count = dead.len();
        // Partition refinement tells the exact merge: all dead states are
        // language-equivalent (empty residual), but the quotient may keep
        // several classes apart when their acceptance-atom signatures
        // differ — report the classes refinement actually found.
        let min = ctx.minimization();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        for &q in &dead {
            let c = min.class_of[q].expect("reachable state has a class");
            match seen.iter().position(|&s| s == c) {
                Some(i) => classes[i].push(q),
                None => {
                    seen.push(c);
                    classes.push(vec![q]);
                }
            }
        }
        let rendered: Vec<String> = classes
            .iter()
            .map(|members| {
                let set: BitSet = members.iter().copied().collect();
                set_display(&set)
            })
            .collect();
        let k = classes.len();
        out.push(
            diag(
                &registry::AUT004,
                Location::States(dead),
                format!(
                    "{count} reachable states have an empty residual language; partition \
                     refinement merges them into {k} class(es): {}",
                    rendered.join(", ")
                ),
            )
            .with_suggestion(
                "merge each class into one state (a single rejecting trap when the \
                 acceptance atoms allow it)",
            ),
        );
    }

    // The reachable cyclic region: every run's infinity set lives here.
    let cond = ctx.condensation();
    let mut cyc = BitSet::with_capacity(n);
    for c in 0..cond.sccs.len() {
        if cond.status[c].is_some() {
            cyc.union_with(&cond.sccs.member_set(c));
        }
    }

    // AUT005 + AUT007: walk the acceptance atoms once, with polarity.
    let mut seen_const: Vec<String> = Vec::new();
    let mut seen_stray: Vec<String> = Vec::new();
    walk_atoms(aut.acceptance(), &mut |is_inf, s| {
        let label = format!("{}({})", if is_inf { "Inf" } else { "Fin" }, set_display(s));
        if !s.intersects(&cyc) {
            if !seen_const.contains(&label) {
                seen_const.push(label.clone());
                let (verdict, fix) = if is_inf {
                    (
                        "can never hold: no run visits the set infinitely often",
                        "the atom is constant false; simplify the acceptance condition",
                    )
                } else {
                    (
                        "always holds: every run leaves the set eventually",
                        "the atom is constant true; simplify the acceptance condition",
                    )
                };
                out.push(
                    diag(
                        &registry::AUT005,
                        Location::AcceptanceAtom(label),
                        format!("the atom misses every reachable cycle and {verdict}"),
                    )
                    .with_suggestion(fix),
                );
            }
        } else {
            let stray: Vec<usize> = s.iter().filter(|&q| !cyc.contains(q)).collect();
            if !stray.is_empty() && !seen_stray.contains(&label) {
                seen_stray.push(label.clone());
                out.push(
                    diag(
                        &registry::AUT007,
                        Location::AcceptanceAtom(label),
                        format!(
                            "the atom mentions {} lying on no reachable cycle; such states \
                             never appear in an infinity set",
                            Location::States(stray)
                        ),
                    )
                    .with_suggestion("drop those states from the atom (the language is unchanged)"),
                );
            }
        }
    });

    // AUT006: droppable acceptance conjuncts (redundant Streett pairs).
    // (Empty languages never get here — AUT001 returned early — so every
    // redundancy reported is about a genuinely non-empty language.) Each
    // candidate is an `Analysis::equivalent` query, which since ISSUE 8
    // routes through the direct product-graph oracle
    // (`hierarchy_automata::inclusion`) and its per-context memo — the
    // per-conjunct cost is polynomial in the pair count instead of the
    // old complement+DNF construction's exponential blow-up, so linting
    // wide Streett conditions stays cheap.
    if let Acceptance::And(xs) = aut.acceptance() {
        if xs.len() >= 2 {
            for i in 0..xs.len() {
                let rest: Vec<Acceptance> = xs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| a.clone())
                    .collect();
                let dropped = if rest.len() == 1 {
                    rest.into_iter().next().expect("len checked")
                } else {
                    Acceptance::And(rest)
                };
                if ctx.equivalent(&aut.with_acceptance(dropped)) {
                    out.push(
                        diag(
                            &registry::AUT006,
                            Location::AcceptanceConjunct(i),
                            format!("dropping conjunct {} leaves the language unchanged", xs[i]),
                        )
                        .with_suggestion("remove the redundant conjunct (Streett pair)"),
                    );
                }
            }
        }
    }

    out
}

/// Calls `f(is_inf, set)` for every `Inf`/`Fin` atom of the condition.
fn walk_atoms(acc: &Acceptance, f: &mut impl FnMut(bool, &BitSet)) {
    match acc {
        Acceptance::True | Acceptance::False => {}
        Acceptance::Inf(s) => f(true, s),
        Acceptance::Fin(s) => f(false, s),
        Acceptance::And(xs) | Acceptance::Or(xs) => {
            for x in xs {
                walk_atoms(x, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    /// Last-symbol tracker over {a,b}.
    fn last_sym(acc: Acceptance) -> OmegaAutomaton {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(&sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acc)
    }

    #[test]
    fn clean_buchi_automaton_has_no_findings() {
        let aut = last_sym(Acceptance::inf([1]));
        assert!(lint_automaton(&aut).is_empty());
    }

    #[test]
    fn universal_one_state_is_silent() {
        let aut = OmegaAutomaton::universal(&ab());
        assert!(lint_automaton(&aut).is_empty());
    }

    #[test]
    fn empty_language_is_an_error() {
        let aut = last_sym(Acceptance::Inf(BitSet::new()));
        let diags = lint_automaton(&aut);
        assert_eq!(codes(&diags), vec!["AUT001"]);
    }

    #[test]
    fn disguised_universal_fires_aut002() {
        let aut = last_sym(Acceptance::inf([0]).or(Acceptance::inf([1])));
        // Every run visits state 0 or state 1 infinitely often.
        let diags = lint_automaton(&aut);
        assert!(codes(&diags).contains(&"AUT002"));
    }

    #[test]
    fn unreachable_state_fires_aut003() {
        let sigma = ab();
        // State 2 exists but nothing reaches it.
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::inf([0]),
        );
        let diags = lint_automaton(&aut);
        assert!(codes(&diags).contains(&"AUT003"));
        assert!(diags
            .iter()
            .any(|d| d.location == Location::States(vec![2])));
    }

    #[test]
    fn single_rejecting_trap_is_silent() {
        // The canonical safety shape: one live region, one dead sink.
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        assert!(lint_automaton(&aut).is_empty());
    }

    #[test]
    fn two_dead_states_fire_aut004() {
        // Two distinct dead states chained before the trap.
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| match (q, s == b) {
                (0, false) => 0,
                (0, true) => 1,
                (1, _) => 2,
                _ => 2,
            },
            Acceptance::fin([1, 2]),
        );
        let diags = lint_automaton(&aut);
        assert!(codes(&diags).contains(&"AUT004"));
        // Both dead states share an atom signature, so partition
        // refinement reports exactly one merge class.
        let d = diags.iter().find(|d| d.code == "AUT004").unwrap();
        assert!(
            d.message.contains("1 class(es): {1, 2}"),
            "unexpected AUT004 message: {}",
            d.message
        );
    }

    /// Dead states with *different* atom signatures stay in different
    /// refinement classes, and AUT004 says so.
    #[test]
    fn aut004_reports_split_quotient_classes() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        // 1 and 2 are dead (they trap into 2), but only 1 is in the Inf
        // atom, so refinement cannot merge them.
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| match (q, s == b) {
                (0, false) => 0,
                (0, true) => 1,
                _ => 2,
            },
            Acceptance::inf([0]).and(Acceptance::fin([1])),
        );
        let diags = lint_automaton(&aut);
        let d = diags.iter().find(|d| d.code == "AUT004").unwrap();
        assert!(
            d.message.contains("2 class(es): {1}, {2}"),
            "unexpected AUT004 message: {}",
            d.message
        );
    }

    #[test]
    fn constant_atoms_fire_aut005_both_polarities() {
        let sigma = ab();
        // State 1 is transient (1 -> 0 always), so {1} meets no cycle.
        let aut = OmegaAutomaton::build(
            &sigma,
            2,
            1,
            |_, _| 0,
            Acceptance::inf([1]).or(Acceptance::inf([0]).and(Acceptance::fin([1]))),
        );
        let diags = lint_automaton(&aut);
        let fired: Vec<_> = diags.iter().filter(|d| d.code == "AUT005").collect();
        assert_eq!(fired.len(), 2, "{diags:?}");
        assert!(fired
            .iter()
            .any(|d| d.location == Location::AcceptanceAtom("Inf({1})".into())));
        assert!(fired
            .iter()
            .any(|d| d.location == Location::AcceptanceAtom("Fin({1})".into())));
    }

    #[test]
    fn redundant_conjunct_fires_aut006() {
        // Inf({1}) & Inf({0,1}) — the second conjunct is implied.
        let aut = last_sym(Acceptance::inf([1]).and(Acceptance::inf([0, 1])));
        let diags = lint_automaton(&aut);
        let fired: Vec<_> = diags.iter().filter(|d| d.code == "AUT006").collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].location, Location::AcceptanceConjunct(1));
    }

    #[test]
    fn independent_conjuncts_are_silent_for_aut006() {
        // Inf({0}) & Inf({1}): "infinitely many a's and infinitely many
        // b's" — neither conjunct is droppable.
        let aut = last_sym(Acceptance::inf([0]).and(Acceptance::inf([1])));
        let diags = lint_automaton(&aut);
        assert!(!codes(&diags).contains(&"AUT006"), "{diags:?}");
    }

    #[test]
    fn transient_atom_state_fires_aut007() {
        let sigma = ab();
        // State 2 is a transient entry state feeding the 0/1 cycle region.
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            2,
            |q, s| {
                if q == 2 {
                    0
                } else if s == b {
                    1
                } else {
                    0
                }
            },
            Acceptance::inf([1, 2]),
        );
        let diags = lint_automaton(&aut);
        let fired: Vec<_> = diags.iter().filter(|d| d.code == "AUT007").collect();
        assert_eq!(fired.len(), 1, "{diags:?}");
        assert!(fired[0].message.contains("state 2"));
        // The language really is unchanged without the transient state.
        assert!(aut.equivalent(&aut.with_acceptance(Acceptance::inf([1]))));
    }

    #[test]
    fn ctx_variant_reuses_the_analysis() {
        let aut = last_sym(Acceptance::inf([1]));
        let ctx = Analysis::new(aut);
        let _ = ctx.classification();
        let passes = ctx.stats_total().scc_passes;
        let diags = lint_automaton_ctx(&ctx);
        assert!(diags.is_empty());
        assert_eq!(
            ctx.stats_total().scc_passes,
            passes,
            "linting after classification runs no new SCC passes"
        );
        assert_eq!(
            diags,
            lint_automaton(ctx.automaton()),
            "same report as a cold lint"
        );
    }
}
