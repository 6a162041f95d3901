//! Compiling hierarchy formulas to deterministic ω-automata — the paper's
//! Proposition 5.3 ("a property specifiable by a κ-formula is specifiable
//! by a κ-automaton").
//!
//! The input is first [`canonicalized`](crate::rewrites::canonicalize) into
//! a positive boolean combination of past leaves and `□p`/`◇p`/`□◇p`/`◇□p`
//! with past bodies. One deterministic [`Tester`] is built for all the past
//! formulas involved, and each modality contributes its acceptance shape on
//! the tester's transition structure:
//!
//! | node        | tracked past formula | acceptance                      |
//! |-------------|----------------------|---------------------------------|
//! | `□p`        | `⟐¬p` (monotone)     | `Fin(states where ⟐¬p)`         |
//! | `◇p`        | `⟐p`  (monotone)     | `Inf(states where ⟐p)`          |
//! | `□◇p`       | `p`                  | `Inf(states where p)`           |
//! | `◇□p`       | `p`                  | `Fin(states where ¬p)`          |
//! | past `p`    | `⟐(first ∧ p)`       | `Inf(states where ⟐(first∧p))`  |
//!
//! and boolean connectives map to the boolean structure of the acceptance
//! condition.

use crate::ast::Formula;
use crate::rewrites;
use crate::tester::{Tester, TesterError};
use hierarchy_automata::acceptance::Acceptance;
use hierarchy_automata::omega::OmegaAutomaton;
use std::fmt;

/// Errors from the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The formula could not be canonicalized into the hierarchy grammar.
    /// The paper's normal-form theorem guarantees an equivalent reactivity
    /// formula exists, but the constructive translation for arbitrary
    /// future nesting is beyond this library (as it is beyond the paper).
    NotCanonicalizable {
        /// Display form of the canonicalization residue.
        residue: String,
    },
    /// Building the past tester failed.
    Tester(TesterError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotCanonicalizable { residue } => write!(
                f,
                "formula is outside the canonicalizable hierarchy fragment: {residue}"
            ),
            CompileError::Tester(e) => write!(f, "tester construction failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<TesterError> for CompileError {
    fn from(e: TesterError) -> Self {
        CompileError::Tester(e)
    }
}

/// An acceptance plan: the boolean skeleton with tracked-formula indices at
/// the leaves.
enum Plan {
    True,
    False,
    And(Box<Plan>, Box<Plan>),
    Or(Box<Plan>, Box<Plan>),
    /// `Fin(states where tracked[i])`.
    FinWhere(usize),
    /// `Inf(states where tracked[i])`.
    InfWhere(usize),
    /// `Fin(states where ¬tracked[i])`.
    FinWhereNot(usize),
}

fn plan(f: &Formula, tracked: &mut Vec<Formula>) -> Result<Plan, CompileError> {
    let mut track = |p: Formula| -> usize {
        if let Some(i) = tracked.iter().position(|t| *t == p) {
            i
        } else {
            tracked.push(p);
            tracked.len() - 1
        }
    };
    if f.is_past() {
        // Past formula at the origin: ⟐(first ∧ p) is monotone and true
        // from position 0 on iff p held initially.
        let i = track(Formula::first().and(f.clone()).once());
        return Ok(Plan::InfWhere(i));
    }
    match f {
        Formula::True => Ok(Plan::True),
        Formula::False => Ok(Plan::False),
        Formula::And(x, y) => Ok(Plan::And(
            Box::new(plan(x, tracked)?),
            Box::new(plan(y, tracked)?),
        )),
        Formula::Or(x, y) => Ok(Plan::Or(
            Box::new(plan(x, tracked)?),
            Box::new(plan(y, tracked)?),
        )),
        Formula::Always(x) => match x.as_ref() {
            Formula::Eventually(p) if p.is_past() => Ok(Plan::InfWhere(track(p.as_ref().clone()))),
            p if p.is_past() => {
                // □p: never ⟐¬p.
                let i = track(rewrites::nnf(&p.clone().not()).once());
                Ok(Plan::FinWhere(i))
            }
            _ => Err(CompileError::NotCanonicalizable {
                residue: f.to_string(),
            }),
        },
        Formula::Eventually(x) => match x.as_ref() {
            Formula::Always(p) if p.is_past() => Ok(Plan::FinWhereNot(track(p.as_ref().clone()))),
            p if p.is_past() => {
                // ◇p: eventually ⟐p, which is monotone.
                let i = track(p.clone().once());
                Ok(Plan::InfWhere(i))
            }
            _ => Err(CompileError::NotCanonicalizable {
                residue: f.to_string(),
            }),
        },
        _ => Err(CompileError::NotCanonicalizable {
            residue: f.to_string(),
        }),
    }
}

fn realize(plan: &Plan, tester: &Tester) -> Acceptance {
    match plan {
        Plan::True => Acceptance::True,
        Plan::False => Acceptance::False,
        Plan::And(a, b) => realize(a, tester).and(realize(b, tester)),
        Plan::Or(a, b) => realize(a, tester).or(realize(b, tester)),
        Plan::FinWhere(i) => Acceptance::Fin(tester.states_where(*i)),
        Plan::InfWhere(i) => Acceptance::Inf(tester.states_where(*i)),
        Plan::FinWhereNot(i) => {
            let mut not_states = tester.states_where(*i).complement(tester.num_states());
            // The pre-state carries no truth value and is visited once.
            not_states.remove(0);
            Acceptance::Fin(not_states)
        }
    }
}

/// Compiles a formula over the given alphabet to a deterministic
/// ω-automaton, going through canonicalization. This is the main entry
/// point of the temporal-logic → automata bridge.
///
/// # Errors
///
/// Returns [`CompileError::NotCanonicalizable`] if the formula cannot be
/// brought into the hierarchy grammar, or a tester error for oversized
/// past parts.
pub fn compile_over(
    alphabet: &hierarchy_automata::alphabet::Alphabet,
    formula: &Formula,
) -> Result<OmegaAutomaton, CompileError> {
    // Quotient the tester product by partition refinement: temporal
    // subformulas frequently share tester rows, so the canonical
    // minimization typically shrinks the automaton substantially.
    let tester_aut = compile_raw_over(alphabet, formula)?;
    Ok(hierarchy_automata::minimize::minimize(&tester_aut).quotient)
}

/// Like [`compile_over`], but returns the raw tester product without the
/// final partition-refinement quotient. The tester tracks every past
/// subformula in its state, so distinct states frequently carry the same
/// residual language; this entry point exists for diagnostics and for
/// the `tab_minimize` experiment, which measures exactly how much the
/// quotient collapses the paper's formulas.
pub fn compile_raw_over(
    alphabet: &hierarchy_automata::alphabet::Alphabet,
    formula: &Formula,
) -> Result<OmegaAutomaton, CompileError> {
    let canonical = rewrites::canonicalize(formula);
    let mut tracked: Vec<Formula> = Vec::new();
    let p = plan(&canonical, &mut tracked)?;
    let tester = Tester::new(alphabet, &tracked)?;
    let acceptance = realize(&p, &tester);
    Ok(OmegaAutomaton::build(
        alphabet,
        tester.num_states(),
        tester.initial(),
        |q, s| tester.step(q, s),
        acceptance,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::holds;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_automata::classify;
    use hierarchy_automata::random::random_lasso;
    use hierarchy_automata::random::rng::SeedableRng;
    use hierarchy_automata::random::rng::StdRng;

    fn letters() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Compile and cross-check automaton acceptance against the lasso
    /// semantics on random words.
    fn check(src: &str, seed: u64) -> hierarchy_automata::omega::OmegaAutomaton {
        let sigma = letters();
        let f = Formula::parse(&sigma, src).unwrap();
        let aut = compile_over(&sigma, &f).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..300 {
            let w = random_lasso(&mut rng, &sigma, 5, 4);
            assert_eq!(
                holds(&f, &w).unwrap(),
                aut.accepts(&w),
                "{src} disagrees on {}",
                w.display(&sigma)
            );
        }
        aut
    }

    #[test]
    fn compiles_the_four_modalities() {
        let saf = check("G a", 1);
        assert!(classify::classify(&saf).is_safety);
        let gua = check("F b", 2);
        assert!(classify::classify(&gua).is_guarantee);
        let rec = check("G F b", 3);
        let c = classify::classify(&rec);
        assert!(c.is_recurrence && !c.is_persistence);
        let per = check("F G a", 4);
        let c = classify::classify(&per);
        assert!(c.is_persistence && !c.is_recurrence);
    }

    #[test]
    fn compiles_past_bodies() {
        // □(b → ⊖a): every b is preceded by an a — safety with real past.
        let saf = check("G (b -> Y a)", 5);
        assert!(classify::classify(&saf).is_safety);
        // ◇(b ∧ ⊖⊡a): guarantee with past body.
        let gua = check("F (b & Y H a)", 6);
        assert!(classify::classify(&gua).is_guarantee);
    }

    #[test]
    fn compiles_response_and_fairness() {
        let rec = check("G (a -> F b)", 7);
        let c = classify::classify(&rec);
        assert!(c.is_recurrence);
        // Over {a,b} the fairness formula collapses (¬a = b), so use three
        // letters for a strict simple-reactivity witness.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let f = Formula::parse(&sigma, "G F a -> G F b").unwrap();
        let react = compile_over(&sigma, &f).unwrap();
        let c = classify::classify(&react);
        assert!(c.is_simple_reactivity && !c.is_recurrence && !c.is_persistence);
    }

    #[test]
    fn compiles_origin_leaves_and_booleans() {
        let m = check("a -> G b", 9);
        let c = classify::classify(&m);
        // ¬a ∨ □b: an obligation (in fact safety-equivalent by the paper's
        // conditional-safety law).
        assert!(c.is_obligation);
        assert!(c.is_safety, "conditional safety is safety-equivalent");
        check("a & F b", 10);
        check("first & a | F b", 11);
    }

    #[test]
    fn compiles_next_formulas() {
        check("X a", 12);
        check("X X b", 13);
        check("G X a", 14);
        check("F (a & X b)", 15);
        check("G (a -> X b)", 16);
    }

    #[test]
    fn compiles_until_and_unless() {
        let u = check("a U b", 17);
        let c = classify::classify(&u);
        assert!(c.is_guarantee && !c.is_safety);
        // Over {a,b} the unless formula is trivially true (¬a = b), so use
        // three letters for the strict safety witness aWb.
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let f = Formula::parse(&sigma, "a W b").unwrap();
        let w = compile_over(&sigma, &f).unwrap();
        let c = classify::classify(&w);
        // aWb is the safety part of aUb.
        assert!(c.is_safety && !c.is_guarantee);
    }

    #[test]
    fn rejects_untranslatable_nesting() {
        let sigma = letters();
        // □◇ over a genuinely future body with until of futures.
        let f = Formula::parse(&sigma, "G ((F a) U (G b))").unwrap();
        assert!(matches!(
            compile_over(&sigma, &f),
            Err(CompileError::NotCanonicalizable { .. })
        ));
    }

    #[test]
    fn obligation_formula_classifies() {
        // (□a ∨ ◇b) — simple obligation.
        let m = check("G a | F b", 19);
        let c = classify::classify(&m);
        assert!(c.is_obligation);
        assert_eq!(c.obligation_index, Some(1));
    }

    #[test]
    fn reactivity_conjunction_index() {
        // Letters are mutually exclusive, which collapses conjunctions of
        // fairness formulas; independent propositions give the strict
        // level-2 witness ⋀ᵢ (□◇pᵢ ∨ ◇□qᵢ).
        let sigma = Alphabet::of_propositions(["p", "q", "r", "s"]).unwrap();
        let f = Formula::parse(&sigma, "(G F p | F G q) & (G F r | F G s)").unwrap();
        let aut = compile_over(&sigma, &f).unwrap();
        let c = classify::classify(&aut);
        assert_eq!(c.reactivity_index, 2);
        assert!(!c.is_simple_reactivity);
    }

    #[test]
    fn sat_equals_operator_application() {
        // Sat(□p) = A(esat(p)) and friends — the paper's bridge between
        // the logic and linguistic views.
        use crate::tester::esat;
        use hierarchy_lang::operators;
        let sigma = letters();
        let p = Formula::parse(&sigma, "b & Y H a").unwrap();
        let via_logic = compile_over(&sigma, &p.clone().always()).unwrap();
        let via_lang = operators::a(&esat(&sigma, &p).unwrap());
        assert!(via_logic.equivalent(&via_lang), "Sat(□p) = A(esat(p))");
        let via_logic = compile_over(&sigma, &p.clone().eventually()).unwrap();
        let via_lang = operators::e(&esat(&sigma, &p).unwrap());
        assert!(via_logic.equivalent(&via_lang), "Sat(◇p) = E(esat(p))");
        let via_logic = compile_over(&sigma, &p.clone().eventually().always()).unwrap();
        let via_lang = operators::r(&esat(&sigma, &p).unwrap());
        assert!(via_logic.equivalent(&via_lang), "Sat(□◇p) = R(esat(p))");
        let via_logic = compile_over(&sigma, &p.clone().always().eventually()).unwrap();
        let via_lang = operators::p(&esat(&sigma, &p).unwrap());
        assert!(via_logic.equivalent(&via_lang), "Sat(◇□p) = P(esat(p))");
    }
}
