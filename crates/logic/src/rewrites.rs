//! The paper's named equivalences as rewrite rules, and the
//! canonicalization pipeline that brings formulas into the hierarchy
//! grammar (boolean combinations of `□p`, `◇p`, `□◇p`, `◇□p` over past
//! `p`, plus past formulas evaluated at the origin).
//!
//! Every rule implements an equivalence stated in Section 4 of the paper:
//!
//! * dualities: `¬□p ≡ ◇¬p`, `¬◇p ≡ □¬p`, `¬□◇p ≡ ◇□¬p`, and the past
//!   dualities (`¬⊖p ≡ ~⊖¬p`, `¬(p S q) ≡ ¬q B (¬p ∧ ¬q)`, …);
//! * conditional safety: `p → □q  ≡  □(⟐(p ∧ first) → q)`;
//! * conditional guarantee: `p → ◇q  ≡  ◇(⟐(first ∧ p) → q)`;
//! * response: `□(p → ◇q)  ≡  □◇(¬p B q)` ("no pending request");
//! * conditional persistence: `□(p → ◇□q)  ≡  ◇□(⟐p → q)`;
//! * reactivity conditional: `□◇r → □◇p  ≡  □◇p ∨ ◇□¬r`;
//! * the modal idempotences `◇◇p ≡ ◇p`, `□□p ≡ □p`, `□◇□◇p ≡ □◇p`, ….
//!
//! `Next` is eliminated by shift-counting: a leaf `Xᵈp` (past `p`) becomes
//! `◇(⊖ᵈfirst ∧ p)` at the origin, while inside a modality the whole body
//! is re-anchored `D` steps later — `◇(body)` becomes
//! `◇(⊖ᴰ⊤ ∧ body[Xᵈp ↦ ⊖^{D−d}p])` — which is sound because `◇`/`□`
//! quantify over all positions.
//!
//! All rules are verified by the test-suite through the independent lasso
//! semantics and the automata view.

use crate::ast::Formula;
use std::sync::Arc;

/// Negation normal form: pushes `¬` down to atoms using the future and
/// past dualities. `→` is already expanded by the parser. The result
/// contains `Not` only directly above atoms.
pub fn nnf(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom(..) => f.clone(),
        Formula::And(x, y) => nnf(x).and(nnf(y)),
        Formula::Or(x, y) => nnf(x).or(nnf(y)),
        Formula::Next(x) => nnf(x).next(),
        Formula::Until(x, y) => nnf(x).until(nnf(y)),
        Formula::WUntil(x, y) => nnf(x).unless(nnf(y)),
        Formula::Eventually(x) => nnf(x).eventually(),
        Formula::Always(x) => nnf(x).always(),
        Formula::Prev(x) => nnf(x).prev(),
        Formula::WPrev(x) => nnf(x).wprev(),
        Formula::Since(x, y) => nnf(x).since(nnf(y)),
        Formula::WSince(x, y) => nnf(x).wsince(nnf(y)),
        Formula::Once(x) => nnf(x).once(),
        Formula::Historically(x) => nnf(x).historically(),
        Formula::Not(inner) => nnf_neg(inner),
    }
}

fn nnf_neg(f: &Formula) -> Formula {
    match f {
        Formula::True => Formula::False,
        Formula::False => Formula::True,
        Formula::Atom(..) => f.clone().not(),
        Formula::Not(x) => nnf(x),
        Formula::And(x, y) => nnf_neg(x).or(nnf_neg(y)),
        Formula::Or(x, y) => nnf_neg(x).and(nnf_neg(y)),
        Formula::Next(x) => nnf_neg(x).next(),
        Formula::Eventually(x) => nnf_neg(x).always(),
        Formula::Always(x) => nnf_neg(x).eventually(),
        // ¬(p U q) ≡ ¬q W (¬p ∧ ¬q)
        Formula::Until(x, y) => nnf_neg(y).unless(nnf_neg(x).and(nnf_neg(y))),
        // ¬(p W q) ≡ ¬q U (¬p ∧ ¬q)
        Formula::WUntil(x, y) => nnf_neg(y).until(nnf_neg(x).and(nnf_neg(y))),
        Formula::Prev(x) => nnf_neg(x).wprev(),
        Formula::WPrev(x) => nnf_neg(x).prev(),
        // ¬(p S q) ≡ ¬q B (¬p ∧ ¬q)
        Formula::Since(x, y) => nnf_neg(y).wsince(nnf_neg(x).and(nnf_neg(y))),
        // ¬(p B q) ≡ ¬q S (¬p ∧ ¬q)
        Formula::WSince(x, y) => nnf_neg(y).since(nnf_neg(x).and(nnf_neg(y))),
        Formula::Once(x) => nnf_neg(x).historically(),
        Formula::Historically(x) => nnf_neg(x).once(),
    }
}

/// The paper's *response* law: `□(p → ◇q) ≡ □◇(¬p B q)` — there are
/// infinitely many positions with no pending request.
pub fn response(p: &Formula, q: &Formula) -> Formula {
    nnf(&p.clone().not())
        .wsince(q.clone())
        .eventually()
        .always()
}

/// The paper's *conditional safety* law: `p → □q ≡ □(⟐(p ∧ first) → q)`.
pub fn conditional_safety(p: &Formula, q: &Formula) -> Formula {
    nnf(&p.clone().and(Formula::first()).once().not())
        .or(q.clone())
        .always()
}

/// The paper's *conditional guarantee* law:
/// `p → ◇q ≡ ◇(⟐(first ∧ p) → q)`.
pub fn conditional_guarantee(p: &Formula, q: &Formula) -> Formula {
    nnf(&Formula::first().and(p.clone()).once().not())
        .or(q.clone())
        .eventually()
}

/// The paper's *conditional persistence* law:
/// `□(p → ◇□q) ≡ ◇□(⟐p → q)`.
pub fn conditional_persistence(p: &Formula, q: &Formula) -> Formula {
    nnf(&p.clone().once().not())
        .or(q.clone())
        .always()
        .eventually()
}

/// Canonicalizes into the hierarchy grammar whenever the input fits the
/// paper's idioms; formulas outside the translatable fragment are returned
/// best-effort (use [`is_hierarchy_form`] to detect leftovers).
pub fn canonicalize(f: &Formula) -> Formula {
    materialize_origin(&canon(&nnf(f)))
}

/// Whether a formula is a positive boolean combination of past leaves and
/// `□p` / `◇p` / `□◇p` / `◇□p` with past bodies — the hierarchy grammar.
pub fn is_hierarchy_form(f: &Formula) -> bool {
    if f.is_past() {
        return true;
    }
    match f {
        Formula::And(x, y) | Formula::Or(x, y) => is_hierarchy_form(x) && is_hierarchy_form(y),
        Formula::Always(x) => match x.as_ref() {
            Formula::Eventually(p) => p.is_past(),
            p => p.is_past(),
        },
        Formula::Eventually(x) => match x.as_ref() {
            Formula::Always(p) => p.is_past(),
            p => p.is_past(),
        },
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Canonicalization internals. Intermediate results may contain `Next^d(p)`
// leaves (past `p`) — "p, d positions from now" — which the caller
// re-anchors: modal wrappers via `unshift`, the origin via
// `materialize_origin`.

fn canon(f: &Formula) -> Formula {
    if f.is_past() {
        return f.clone();
    }
    match f {
        Formula::And(x, y) => canon(x).and(canon(y)),
        Formula::Or(x, y) => canon(x).or(canon(y)),
        Formula::Next(x) => match canon(x) {
            // Push X through boolean structure to the leaves.
            Formula::And(a, b) => canon(&Formula::Next(a)).and(canon(&Formula::Next(b))),
            Formula::Or(a, b) => canon(&Formula::Next(a)).or(canon(&Formula::Next(b))),
            // X ◇ ≡ ◇ X and X □ ≡ □ X.
            Formula::Eventually(a) => canon_eventually(&Formula::Next(a.clone()).into_canon()),
            Formula::Always(a) => canon_always(&Formula::Next(a.clone()).into_canon()),
            other => other.next(), // Next^d leaf accumulates
        },
        Formula::Eventually(x) => canon_eventually(&canon(x)),
        Formula::Always(x) => canon_always(&canon(x)),
        Formula::Until(x, y) => {
            let (cx, cy) = (canon(x), canon(y));
            if cx.is_past() && cy.is_past() {
                // p U q ≡ ◇(q ∧ ~⊖⊡p): some q-position all of whose strict
                // predecessors satisfy p.
                canon_eventually(&cy.and(cx.historically().wprev()))
            } else {
                cx.until(cy)
            }
        }
        Formula::WUntil(x, y) => {
            let (cx, cy) = (canon(x), canon(y));
            if cx.is_past() && cy.is_past() {
                // p W q ≡ (p U q) ∨ □p.
                canon_eventually(&cy.clone().and(cx.clone().historically().wprev()))
                    .or(canon_always(&cx))
            } else {
                cx.unless(cy)
            }
        }
        _ => f.clone(),
    }
}

trait IntoCanon {
    fn into_canon(self) -> Formula;
}
impl IntoCanon for Formula {
    fn into_canon(self) -> Formula {
        canon(&self)
    }
}

/// Decomposes a boolean combination over past and `Next^d(past)` leaves:
/// returns the maximal shift `D` and the body re-anchored `D` steps later
/// (`Next^d p ↦ ⊖^{D−d} p`), or `None` if other operators occur.
fn unshift(f: &Formula) -> Option<(usize, Formula)> {
    fn max_depth(f: &Formula) -> Option<usize> {
        if f.is_past() {
            return Some(0);
        }
        match f {
            Formula::And(x, y) | Formula::Or(x, y) => Some(max_depth(x)?.max(max_depth(y)?)),
            Formula::Next(x) => Some(1 + max_depth(x)?),
            _ => None,
        }
    }
    fn reanchor(f: &Formula, behind: usize) -> Formula {
        // `behind` = how many ⊖ to apply to a depth-0 leaf here.
        if f.is_past() {
            let mut out = f.clone();
            for _ in 0..behind {
                out = out.prev();
            }
            return out;
        }
        match f {
            Formula::And(x, y) => reanchor(x, behind).and(reanchor(y, behind)),
            Formula::Or(x, y) => reanchor(x, behind).or(reanchor(y, behind)),
            Formula::Next(x) => reanchor(x, behind - 1),
            _ => unreachable!("checked by max_depth"),
        }
    }
    let d = max_depth(f)?;
    Some((d, reanchor(f, d)))
}

/// `⊖ᵈ⊤` — true exactly at positions `≥ d`.
fn at_least(d: usize) -> Formula {
    let mut out = Formula::True;
    for _ in 0..d {
        out = out.prev();
    }
    out
}

/// `⊖ᵈ first` — true exactly at position `d`.
fn exactly(d: usize) -> Formula {
    let mut out = Formula::first();
    for _ in 0..d {
        out = out.prev();
    }
    out
}

fn canon_eventually(x: &Formula) -> Formula {
    if let Some((d, body)) = unshift(x) {
        let body = if d == 0 { body } else { at_least(d).and(body) };
        return body.eventually();
    }
    match x {
        // ◇◇p ≡ ◇p; ◇(◇□p) ≡ ◇□p; ◇□◇p ≡ □◇p.
        Formula::Eventually(inner) => canon_eventually(inner),
        Formula::Always(inner) => match inner.as_ref() {
            Formula::Eventually(deep) if deep.is_past() => {
                Formula::Always(Arc::new(Formula::Eventually(deep.clone())))
            }
            _ => match unshift(inner) {
                // ◇□(shifted body): the existential start position absorbs
                // the re-anchoring, and the ⊖ᴰ⊤ guard is eventually always
                // true, so conjoining it is harmless.
                Some((d, body)) => {
                    let body = if d == 0 { body } else { at_least(d).and(body) };
                    body.always().eventually()
                }
                None => x.clone().eventually(),
            },
        },
        // ◇(p ∨ q) ≡ ◇p ∨ ◇q.
        Formula::Or(a, b) => canon_eventually(a).or(canon_eventually(b)),
        _ => x.clone().eventually(),
    }
}

fn canon_always(x: &Formula) -> Formula {
    if let Some((d, body)) = unshift(x) {
        let body = if d == 0 {
            body
        } else {
            // Positions < d are vacuous: ⊖ᵈ⊤ → body.
            nnf(&at_least(d).not()).or(body)
        };
        return body.always();
    }
    match x {
        // □□p ≡ □p; □(□◇p) ≡ □◇p; □◇□p ≡ ◇□p.
        Formula::Always(inner) => canon_always(inner),
        Formula::Eventually(inner) => match inner.as_ref() {
            Formula::Always(deep) if deep.is_past() => {
                Formula::Eventually(Arc::new(Formula::Always(deep.clone())))
            }
            _ => match unshift(inner) {
                // □◇(shifted body): the guard is eventually always true.
                Some((d, body)) => {
                    let body = if d == 0 { body } else { at_least(d).and(body) };
                    body.eventually().always()
                }
                None => x.clone().always(),
            },
        },
        // □(p ∧ q) ≡ □p ∧ □q.
        Formula::And(a, b) => canon_always(a).and(canon_always(b)),
        Formula::Or(a, b) => {
            if let Some(rewritten) = canon_response(a, b).or_else(|| canon_response(b, a)) {
                return rewritten;
            }
            x.clone().always()
        }
        _ => x.clone().always(),
    }
}

/// Handles `□(r ∨ ◇q)` (response) and `□(r ∨ ◇□q)` (conditional
/// persistence) for past `r`.
fn canon_response(r: &Formula, rest: &Formula) -> Option<Formula> {
    if !r.is_past() {
        return None;
    }
    if let Formula::Eventually(q) = rest {
        if q.is_past() {
            // □(r ∨ ◇q) ≡ □◇(r B q).
            return Some(r.clone().wsince(q.as_ref().clone()).eventually().always());
        }
        if let Formula::Always(q2) = q.as_ref() {
            if q2.is_past() {
                // □(r ∨ ◇□q) ≡ ◇□(⟐¬r → q)  (with p = ¬r).
                let not_r = nnf(&r.clone().not());
                return Some(
                    nnf(&not_r.once().not())
                        .or(q2.as_ref().clone())
                        .always()
                        .eventually(),
                );
            }
        }
    }
    None
}

/// Replaces remaining `Next^d(p)` leaves on the boolean spine by their
/// origin form `◇(⊖ᵈfirst ∧ p)` (the spine is evaluated at position 0).
/// A leaf whose body is not a past formula (`X (p U q)`, say) stays as
/// it is, for the caller to reject as outside the fragment.
fn materialize_origin(f: &Formula) -> Formula {
    if f.is_past() {
        return f.clone();
    }
    match f {
        Formula::And(x, y) => materialize_origin(x).and(materialize_origin(y)),
        Formula::Or(x, y) => materialize_origin(x).or(materialize_origin(y)),
        Formula::Next(_) => match unshift(f) {
            Some((d, body)) => exactly(d).and(body).eventually(),
            None => f.clone(),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::holds;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_automata::random::random_lasso;
    use hierarchy_automata::random::rng::SeedableRng;
    use hierarchy_automata::random::rng::StdRng;

    fn letters() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Checks semantic equivalence of two formulas on random lassos.
    fn check_equiv(lhs: &Formula, rhs: &Formula, seed: u64) {
        let sigma = letters();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..300 {
            let w = random_lasso(&mut rng, &sigma, 5, 4);
            assert_eq!(
                holds(lhs, &w).unwrap(),
                holds(rhs, &w).unwrap(),
                "{lhs}  vs  {rhs}  on {}",
                w.display(&sigma)
            );
        }
    }

    #[test]
    fn nnf_pushes_negations() {
        let sigma = letters();
        let f = Formula::parse(&sigma, "!(G (a -> F b))").unwrap();
        let g = nnf(&f);
        fn check(f: &Formula) {
            if let Formula::Not(x) = f {
                assert!(matches!(x.as_ref(), Formula::Atom(..)), "bad NNF: {f}");
            }
            for c in f.children() {
                check(c);
            }
        }
        check(&g);
        check_equiv(&f, &g, 1);
    }

    #[test]
    fn nnf_duality_samples() {
        let sigma = letters();
        for (neg, expect) in [
            ("!(F a)", "G !a"),
            ("!(G a)", "F !a"),
            ("!(X a)", "X !a"),
            ("!(Y a)", "Z !a"),
            ("!(O a)", "H !a"),
        ] {
            let lhs = nnf(&Formula::parse(&sigma, neg).unwrap());
            let rhs = Formula::parse(&sigma, expect).unwrap();
            assert_eq!(lhs, rhs, "{neg}");
        }
        let f = Formula::parse(&sigma, "!(a U b)").unwrap();
        check_equiv(&f, &nnf(&f), 2);
        let g = Formula::parse(&sigma, "!(a S b)").unwrap();
        check_equiv(&g.clone().eventually(), &nnf(&g).eventually(), 3);
    }

    #[test]
    fn response_law() {
        let sigma = letters();
        let p = Formula::parse(&sigma, "a").unwrap();
        let q = Formula::parse(&sigma, "b").unwrap();
        let lhs = Formula::parse(&sigma, "G (a -> F b)").unwrap();
        let rhs = response(&p, &q);
        check_equiv(&lhs, &rhs, 4);
        assert!(is_hierarchy_form(&rhs));
    }

    #[test]
    fn conditional_laws() {
        let sigma = letters();
        let p = Formula::parse(&sigma, "a").unwrap();
        let q = Formula::parse(&sigma, "b | a").unwrap();
        check_equiv(
            &Formula::parse(&sigma, "a -> G (b | a)").unwrap(),
            &conditional_safety(&p, &q),
            5,
        );
        check_equiv(
            &Formula::parse(&sigma, "a -> F (b | a)").unwrap(),
            &conditional_guarantee(&p, &q),
            6,
        );
        check_equiv(
            &Formula::parse(&sigma, "G (a -> F G (b | a))").unwrap(),
            &conditional_persistence(&p, &q),
            7,
        );
        assert!(is_hierarchy_form(&conditional_safety(&p, &q)));
        assert!(is_hierarchy_form(&conditional_guarantee(&p, &q)));
        assert!(is_hierarchy_form(&conditional_persistence(&p, &q)));
    }

    #[test]
    fn canonicalize_paper_idioms() {
        let sigma = letters();
        for src in [
            "G (a -> F b)",   // response → □◇
            "a -> G b",       // ¬a ∨ □b
            "G (a -> F G b)", // conditional persistence
            "G F a",          // already canonical
            "F G (a | b)",    // already canonical
            "!(F a)",         // → □¬a
            "a U b",          // → ◇(b ∧ ~⊖⊡a)
            "a W b",          // → ◇(…) ∨ □a
            "G (a & b)",      // distributes
            "F (a | F b)",    // collapses
        ] {
            let f = Formula::parse(&sigma, src).unwrap();
            let c = canonicalize(&f);
            assert!(is_hierarchy_form(&c), "{src} → {c} not canonical");
            check_equiv(&f, &c, 0xC0FFEE ^ src.len() as u64);
        }
    }

    #[test]
    fn canonicalize_next_shifts() {
        let sigma = letters();
        for src in [
            "X a",           // origin pin
            "X X b",         // depth 2
            "F X a",         // shift under ◇
            "G X a",         // shift under □
            "G F X a",       // absorbed by □◇
            "F G X b",       // absorbed by ◇□
            "X F a",         // = F X a
            "X G a",         // = G X a
            "X (a | X b)",   // mixed depths in one body
            "F (a & X b)",   // shifted conjunction under ◇
            "G (a | X X b)", // shifted disjunction under □
        ] {
            let f = Formula::parse(&sigma, src).unwrap();
            let c = canonicalize(&f);
            assert!(is_hierarchy_form(&c), "{src} → {c} not canonical");
            check_equiv(&f, &c, 0xABCD ^ src.len() as u64);
        }
    }

    #[test]
    fn canonicalize_strong_fairness() {
        let sigma = letters();
        // □◇a → □◇b ≡ ◇□¬a ∨ □◇b.
        let f = Formula::parse(&sigma, "G F a -> G F b").unwrap();
        let c = canonicalize(&f);
        assert!(is_hierarchy_form(&c), "{c}");
        check_equiv(&f, &c, 9);
    }

    #[test]
    fn idempotences() {
        let sigma = letters();
        for (src, canonical) in [
            ("F F a", "F a"),
            ("G G a", "G a"),
            ("G F G F a", "G F a"),
            ("F G F a", "G F a"),
            ("G F G a", "F G a"),
        ] {
            let c = canonicalize(&Formula::parse(&sigma, src).unwrap());
            let expect = Formula::parse(&sigma, canonical).unwrap();
            assert_eq!(c, expect, "{src}");
        }
    }
}
