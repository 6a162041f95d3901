//! Formula lints (`LOGIC001`–`LOGIC007`).
//!
//! Syntactic rules (`LOGIC004` constant subformulas, `LOGIC006` redundant
//! past operators) always run. Semantic rules go through [`compile_over`]:
//! the compiled automaton's [`Analysis`] answers emptiness, universality,
//! and the equivalence queries of the vacuity check, and its
//! classification is compared against the *syntactic* class (the paper's
//! upper bound) for `LOGIC005`. When the formula is outside the hierarchy
//! grammar the semantic rules are skipped and `LOGIC007` says so.
//!
//! The vacuity rule is polarity-aware: every operator of the syntax tree
//! is monotone in each operand except `Not`, so each subformula position
//! has a definite polarity. A positive-polarity occurrence is vacuous when
//! replacing it by `false` leaves the property unchanged (the occurrence
//! never helps); dually with `true` for negative polarity. This is the
//! standard single-occurrence vacuity check of Beer et al., decided here
//! by language equivalence of the compiled automata.

use crate::diagnostic::{Diagnostic, Location};
use crate::registry::{self, RuleInfo};
use hierarchy_automata::alphabet::Alphabet;
use hierarchy_automata::analysis::Analysis;
use hierarchy_logic::ast::Formula;
use hierarchy_logic::syntactic::SyntacticClass;
use hierarchy_logic::to_automaton::compile_over;
use std::sync::Arc;

fn diag(rule: &RuleInfo, location: Location, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(rule.code, rule.severity, location, message)
}

/// Lints a formula, compiling it to run the semantic rules.
pub fn lint_formula(alphabet: &Alphabet, formula: &Formula) -> Vec<Diagnostic> {
    let mut out = syntactic_lints(alphabet, formula);
    match compile_over(alphabet, formula) {
        Ok(aut) => {
            let ctx = Analysis::new(aut);
            out.extend(semantic_lints(alphabet, formula, &ctx));
        }
        Err(e) => out.push(
            diag(
                &registry::LOGIC007,
                Location::Root,
                format!("semantic lints skipped: {e}"),
            )
            .with_suggestion("bring the formula into the hierarchy grammar (canonicalizable form)"),
        ),
    }
    out
}

fn syntactic_lints(alphabet: &Alphabet, formula: &Formula) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen4: Vec<String> = Vec::new();
    let mut seen6: Vec<String> = Vec::new();
    walk(formula, &mut |f| {
        constant_subformula(alphabet, formula, f, &mut seen4, &mut out);
        redundant_past(f, &mut seen6, &mut out);
    });
    out
}

/// Calls `visit` on every node of the tree, parents before children.
fn walk(f: &Formula, visit: &mut impl FnMut(&Formula)) {
    visit(f);
    for c in f.children() {
        walk(c, visit);
    }
}

/// LOGIC004: `true`/`false` in operand position, and atoms whose symbol
/// set is empty or full (constants in disguise). `Z false` is exempt: it
/// is the paper's `first` idiom.
fn constant_subformula(
    alphabet: &Alphabet,
    root: &Formula,
    f: &Formula,
    seen: &mut Vec<String>,
    out: &mut Vec<Diagnostic>,
) {
    let mut report = |frag: &Formula, what: &str, fix: &str| {
        let label = frag.to_string();
        if !seen.contains(&label) {
            seen.push(label.clone());
            out.push(
                diag(
                    &registry::LOGIC004,
                    Location::Fragment(label),
                    format!("{what} in operand position"),
                )
                .with_suggestion(fix),
            );
        }
    };
    let _ = root;
    for c in f.children() {
        let exempt = matches!(f, Formula::WPrev(_)) && matches!(c, Formula::False);
        match c {
            Formula::True | Formula::False if !exempt => report(
                c,
                "a literal constant",
                "fold the constant into the surrounding formula",
            ),
            Formula::Atom(name, set) if set.is_empty() => report(
                c,
                &format!("atom `{name}` denotes no symbol (it is constantly false)"),
                "replace the atom by `false` or fix the proposition set",
            ),
            Formula::Atom(name, set) if set.len() == alphabet.len() => report(
                c,
                &format!("atom `{name}` holds of every symbol (it is constantly true)"),
                "replace the atom by `true` or fix the proposition set",
            ),
            _ => {}
        }
    }
}

/// LOGIC006: collapsing past-operator patterns.
fn redundant_past(f: &Formula, seen: &mut Vec<String>, out: &mut Vec<Diagnostic>) {
    let finding: Option<(&str, String)> = match f {
        Formula::Once(x) if matches!(x.as_ref(), Formula::Once(_)) => {
            Some(("O O p collapses to O p", f.to_string()))
        }
        Formula::Historically(x) if matches!(x.as_ref(), Formula::Historically(_)) => {
            Some(("H H p collapses to H p", f.to_string()))
        }
        Formula::Since(x, _) if matches!(x.as_ref(), Formula::True) => {
            Some(("true S p is exactly O p", f.to_string()))
        }
        Formula::WSince(x, _) if matches!(x.as_ref(), Formula::True) => {
            Some(("true B p is trivially true", f.to_string()))
        }
        _ => None,
    };
    if let Some((law, label)) = finding {
        if !seen.contains(&label) {
            seen.push(label.clone());
            out.push(
                diag(
                    &registry::LOGIC006,
                    Location::Fragment(label),
                    format!("redundant past operator: {law}"),
                )
                .with_suggestion("apply the collapse law"),
            );
        }
    }
}

fn semantic_lints(alphabet: &Alphabet, formula: &Formula, ctx: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // LOGIC001 / LOGIC002: degenerate languages.
    if ctx.is_empty() {
        out.push(
            diag(
                &registry::LOGIC001,
                Location::Root,
                "the formula is unsatisfiable: no computation fulfils it",
            )
            .with_suggestion(
                "the specification rules out every behaviour; it is almost \
                              certainly wrong",
            ),
        );
        return out; // Everything below is noise on an empty language.
    }
    if ctx.is_universal() && !matches!(formula, Formula::True) {
        out.push(
            diag(
                &registry::LOGIC002,
                Location::Root,
                "the formula is trivially valid: every computation fulfils it",
            )
            .with_suggestion(
                "the specification constrains nothing; it is almost certainly \
                              incomplete",
            ),
        );
        return out;
    }

    // LOGIC003: vacuous subformula occurrences.
    let mut seen: Vec<String> = Vec::new();
    for (label, mutated) in vacuity_variants(formula) {
        if seen.contains(&label) {
            continue;
        }
        if let Ok(other) = compile_over(alphabet, &mutated) {
            if ctx.equivalent(&other) {
                seen.push(label.clone());
                out.push(
                    diag(
                        &registry::LOGIC003,
                        Location::Fragment(label),
                        "the occurrence is vacuous: replacing it by a constant leaves the \
                         property unchanged",
                    )
                    .with_suggestion(
                        "the subformula never affects the property; simplify or \
                                      fix the specification",
                    ),
                );
            }
        }
    }

    // LOGIC005: written class strictly above the semantic class.
    if let Some(syntactic) = SyntacticClass::of(formula) {
        let written = class_level(syntactic);
        let semantic = semantic_level(ctx);
        if semantic < written {
            out.push(
                diag(
                    &registry::LOGIC005,
                    Location::Root,
                    format!(
                        "written as a {syntactic} formula (hierarchy level {written}) but the \
                         property is semantically at level {semantic} ({})",
                        semantic_level_name(semantic)
                    ),
                )
                .with_suggestion("an equivalent formula exists lower in the hierarchy"),
            );
        }
    }

    out
}

/// Level in the hierarchy diagram: 0 clopen, 1 safety/guarantee,
/// 2 obligation, 3 recurrence/persistence, 4 reactivity.
fn class_level(c: SyntacticClass) -> u8 {
    match c {
        SyntacticClass::PastOrState => 0,
        SyntacticClass::Safety | SyntacticClass::Guarantee => 1,
        SyntacticClass::Obligation(_) => 2,
        SyntacticClass::Recurrence | SyntacticClass::Persistence => 3,
        SyntacticClass::Reactivity(_) => 4,
    }
}

fn semantic_level(ctx: &Analysis) -> u8 {
    let c = ctx.classification();
    if c.is_safety && c.is_guarantee {
        0
    } else if c.is_safety || c.is_guarantee {
        1
    } else if c.is_obligation {
        2
    } else if c.is_recurrence || c.is_persistence {
        3
    } else {
        4
    }
}

fn semantic_level_name(level: u8) -> &'static str {
    match level {
        0 => "clopen",
        1 => "safety or guarantee",
        2 => "obligation",
        3 => "recurrence or persistence",
        _ => "reactivity",
    }
}

/// For every proper subformula position, the whole formula with that
/// position replaced by its polarity constant (`false` for positive
/// occurrences, `true` for negative ones), labelled by the replaced
/// subformula's display form. Constants and the `first` idiom are skipped.
fn vacuity_variants(f: &Formula) -> Vec<(String, Formula)> {
    let mut out = Vec::new();
    collect_variants(f, true, &mut |label, g| out.push((label, g)), &|g| g);
    out
}

type Rebuild<'a> = dyn Fn(Formula) -> Formula + 'a;

fn collect_variants(
    f: &Formula,
    positive: bool,
    emit: &mut impl FnMut(String, Formula),
    rebuild: &Rebuild<'_>,
) {
    let children = f.children();
    for (i, child) in children.iter().enumerate() {
        let child_positive = if matches!(f, Formula::Not(_)) {
            !positive
        } else {
            positive
        };
        let skip = matches!(child, Formula::True | Formula::False)
            || (matches!(f, Formula::WPrev(_)) && matches!(child, Formula::False));
        let rebuild_child = |g: Formula| rebuild(replace_child(f, i, g));
        if !skip {
            let constant = if child_positive {
                Formula::False
            } else {
                Formula::True
            };
            emit(child.to_string(), rebuild_child(constant));
        }
        collect_variants(child, child_positive, emit, &rebuild_child);
    }
}

/// The node `f` with its `i`-th child replaced by `g`.
fn replace_child(f: &Formula, i: usize, g: Formula) -> Formula {
    let g = Arc::new(g);
    let pick = |x: &Arc<Formula>, j: usize| {
        if j == i {
            Arc::clone(&g)
        } else {
            Arc::clone(x)
        }
    };
    match f {
        Formula::True | Formula::False | Formula::Atom(..) => {
            unreachable!("constants and atoms have no children")
        }
        Formula::Not(x) => Formula::Not(pick(x, 0)),
        Formula::Next(x) => Formula::Next(pick(x, 0)),
        Formula::Eventually(x) => Formula::Eventually(pick(x, 0)),
        Formula::Always(x) => Formula::Always(pick(x, 0)),
        Formula::Prev(x) => Formula::Prev(pick(x, 0)),
        Formula::WPrev(x) => Formula::WPrev(pick(x, 0)),
        Formula::Once(x) => Formula::Once(pick(x, 0)),
        Formula::Historically(x) => Formula::Historically(pick(x, 0)),
        Formula::And(x, y) => Formula::And(pick(x, 0), pick(y, 1)),
        Formula::Or(x, y) => Formula::Or(pick(x, 0), pick(y, 1)),
        Formula::Until(x, y) => Formula::Until(pick(x, 0), pick(y, 1)),
        Formula::WUntil(x, y) => Formula::WUntil(pick(x, 0), pick(y, 1)),
        Formula::Since(x, y) => Formula::Since(pick(x, 0), pick(y, 1)),
        Formula::WSince(x, y) => Formula::WSince(pick(x, 0), pick(y, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letters() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    fn lint(src: &str) -> Vec<Diagnostic> {
        let sigma = letters();
        lint_formula(&sigma, &Formula::parse(&sigma, src).unwrap())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn healthy_specifications_are_clean() {
        // Note: over the two-letter alphabet {a, b}, ¬a ≡ b, so seemingly
        // innocent formulas like G a | F b are trivially valid — the zoo
        // here sticks to genuinely contingent properties.
        for src in ["G a", "F b", "G F b", "a U b", "G (b -> Y a)", "G a | G b"] {
            assert!(lint(src).is_empty(), "{src}: {:?}", lint(src));
        }
    }

    #[test]
    fn unsatisfiable_fires_logic001_only() {
        let diags = lint("G a & F b");
        // Over {a,b}, always-a forbids any b: the conjunction is empty.
        assert_eq!(codes(&diags), vec!["LOGIC001"]);
    }

    #[test]
    fn trivially_valid_fires_logic002() {
        // a W b over a two-letter alphabet: ¬a = b, so it always holds.
        let diags = lint("a W b");
        assert_eq!(codes(&diags), vec!["LOGIC002"]);
    }

    #[test]
    fn vacuous_disjunct_fires_logic003() {
        // F (a & b) is unsatisfiable per position (a and b are exclusive
        // letters), so the disjunct never helps.
        let diags = lint("G a | F (a & b)");
        assert!(codes(&diags).contains(&"LOGIC003"), "{diags:?}");
    }

    #[test]
    fn non_vacuous_response_is_silent_for_logic003() {
        // A third letter keeps a and ¬b apart; over {a, b} the response
        // G (a -> F b) collapses to G F b and the antecedent IS vacuous.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let f = Formula::parse(&sigma, "G (a -> F b)").unwrap();
        let diags = lint_formula(&sigma, &f);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn two_letter_response_antecedent_is_vacuous() {
        // The collapse described above really is caught by the linter.
        let diags = lint("G (a -> F b)");
        assert!(codes(&diags).contains(&"LOGIC003"), "{diags:?}");
    }

    #[test]
    fn constant_literal_fires_logic004() {
        let diags = lint("G true");
        assert!(codes(&diags).contains(&"LOGIC004"), "{diags:?}");
    }

    #[test]
    fn first_idiom_is_exempt_from_logic004() {
        let diags = lint("first & a | F b");
        assert!(!codes(&diags).contains(&"LOGIC004"), "{diags:?}");
    }

    #[test]
    fn class_mismatch_fires_logic005() {
        // G a is written as safety and is semantically safety: silent.
        assert!(!codes(&lint("G a")).contains(&"LOGIC005"));
        // □◇⟐a ≡ ◇a: once a has occurred, ⟐a holds at every later
        // position — written recurrence (level 3), semantically a
        // guarantee (level 1).
        let diags = lint("G F (O a)");
        assert!(codes(&diags).contains(&"LOGIC005"), "{diags:?}");
    }

    #[test]
    fn redundant_past_fires_logic006() {
        for src in ["F (O O a)", "G (b -> H H a)", "F (true S a)"] {
            assert!(
                codes(&lint(src)).contains(&"LOGIC006"),
                "{src}: {:?}",
                lint(src)
            );
        }
        // A single O and a non-constant S are fine.
        assert!(!codes(&lint("F (O a)")).contains(&"LOGIC006"));
        assert!(!codes(&lint("F (a S b)")).contains(&"LOGIC006"));
    }

    #[test]
    fn outside_grammar_fires_logic007() {
        let sigma = letters();
        let f = Formula::parse(&sigma, "G ((F a) U (G b))").unwrap();
        let diags = lint_formula(&sigma, &f);
        assert_eq!(codes(&diags), vec!["LOGIC007"]);
    }

    #[test]
    fn vacuity_variants_respect_polarity() {
        let sigma = letters();
        // In ¬(a) the atom has negative polarity: the variant replaces it
        // by true, giving ¬true.
        let f = Formula::parse(&sigma, "G !a").unwrap();
        let vs = vacuity_variants(&f);
        assert!(vs
            .iter()
            .any(|(label, g)| label == "a" && g.to_string() == "G !true"));
    }
}
