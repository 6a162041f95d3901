//! The unified [`Property`] type and its classification report.

use hierarchy_automata::alphabet::Alphabet;
use hierarchy_automata::analysis::{Analysis, AnalysisStats};
use hierarchy_automata::classify::Classification;
use hierarchy_automata::counterfree::CounterFreedom;
use hierarchy_automata::lasso::Lasso;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_lang::{operators, FinitaryProperty};
use hierarchy_logic::to_automaton::{self, CompileError};
use hierarchy_logic::{Formula, ParseError, SyntacticClass};
use hierarchy_topology::{decomposition, density};
use std::fmt;

/// The strictest class of a property in the hierarchy (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyClass {
    /// Both safety and guarantee (topologically clopen).
    Clopen,
    /// `A(Φ)` — closed (Π₁).
    Safety,
    /// `E(Φ)` — open (Σ₁).
    Guarantee,
    /// Boolean combinations of safety and guarantee (Δ₂); the payload is
    /// the exact `Obl_k` level.
    Obligation(usize),
    /// `R(Φ)` — G_δ (Π₂).
    Recurrence,
    /// `P(Φ)` — F_σ (Σ₂).
    Persistence,
    /// `R(Φ) ∪ P(Ψ)` — a single Streett pair suffices.
    SimpleReactivity,
    /// General reactivity (Δ₃); the payload is the exact index (≥ 2).
    Reactivity(usize),
}

impl HierarchyClass {
    /// Derives the strictest class from an exact [`Classification`].
    pub fn from_classification(c: &Classification) -> HierarchyClass {
        if c.is_safety && c.is_guarantee {
            HierarchyClass::Clopen
        } else if c.is_safety {
            HierarchyClass::Safety
        } else if c.is_guarantee {
            HierarchyClass::Guarantee
        } else if c.is_obligation {
            HierarchyClass::Obligation(c.obligation_index.unwrap_or(1))
        } else if c.is_recurrence {
            HierarchyClass::Recurrence
        } else if c.is_persistence {
            HierarchyClass::Persistence
        } else if c.is_simple_reactivity {
            HierarchyClass::SimpleReactivity
        } else {
            HierarchyClass::Reactivity(c.reactivity_index)
        }
    }

    /// The proof principle the paper associates with the class: an
    /// invariance argument for safety, explicit well-founded arguments for
    /// the progress classes.
    pub fn proof_principle(&self) -> &'static str {
        match self {
            HierarchyClass::Clopen | HierarchyClass::Safety => {
                "invariance (computational induction): show the property holds \
                 initially and is preserved by every program step"
            }
            HierarchyClass::Guarantee => {
                "well-founded ranking: exhibit a rank function that decreases \
                 until the goal prefix is reached"
            }
            HierarchyClass::Obligation(_) => {
                "case split into safety and guarantee parts; invariance plus a \
                 one-shot well-founded argument"
            }
            HierarchyClass::Recurrence => {
                "response rule: a well-founded argument re-armed after every \
                 fulfilment (proves □(p → ◇q) under weak fairness)"
            }
            HierarchyClass::Persistence => {
                "stabilization rule: a well-founded argument showing the bad \
                 region is exited finitely often"
            }
            HierarchyClass::SimpleReactivity | HierarchyClass::Reactivity(_) => {
                "reactivity rule: interleaved response arguments under strong \
                 fairness assumptions"
            }
        }
    }
}

impl fmt::Display for HierarchyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyClass::Clopen => write!(f, "safety ∩ guarantee"),
            HierarchyClass::Safety => write!(f, "safety"),
            HierarchyClass::Guarantee => write!(f, "guarantee"),
            HierarchyClass::Obligation(k) => write!(f, "obligation (Obl_{k})"),
            HierarchyClass::Recurrence => write!(f, "recurrence"),
            HierarchyClass::Persistence => write!(f, "persistence"),
            HierarchyClass::SimpleReactivity => write!(f, "simple reactivity"),
            HierarchyClass::Reactivity(k) => write!(f, "reactivity (level {k})"),
        }
    }
}

/// Errors constructing a [`Property`].
#[derive(Debug)]
#[non_exhaustive]
pub enum PropertyError {
    /// The formula failed to parse.
    Parse(ParseError),
    /// The formula could not be compiled into the hierarchy fragment.
    Compile(CompileError),
}

impl fmt::Display for PropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyError::Parse(e) => write!(f, "{e}"),
            PropertyError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PropertyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PropertyError::Parse(e) => Some(e),
            PropertyError::Compile(e) => Some(e),
        }
    }
}

/// A temporal property: an ω-regular language together with everything the
/// paper says about it.
///
/// Internally a complete deterministic ω-automaton wrapped in a shared
/// [`Analysis`] context, so repeated queries — `class()`, `report()`,
/// `borel` names, decompositions, inclusion tests — are incremental:
/// the SCC passes, live sets, inclusion verdicts and the full
/// classification are computed once and reused. Constructors accept any of the paper's
/// views (formulas, operator applications, raw automata).
#[derive(Debug, Clone)]
pub struct Property {
    analysis: Analysis,
    formula: Option<Formula>,
}

/// Everything the paper can tell you about one property.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// The exact semantic classification.
    pub classification: Classification,
    /// The strictest class.
    pub class: HierarchyClass,
    /// The Borel-level name (Π₁/Σ₁/Δ₂/Π₂/Σ₂/Δ₃).
    pub borel: &'static str,
    /// The syntactic class of the defining formula, when one is known.
    pub syntactic: Option<SyntacticClass>,
    /// Whether the property is a liveness (dense) property.
    pub is_liveness: bool,
    /// Whether a single extension witnesses liveness uniformly.
    pub is_uniform_liveness: bool,
    /// Whether the property is expressible in temporal logic
    /// (counter-freedom of its automaton).
    pub is_counter_free: bool,
    /// The paper's recommended proof principle.
    pub proof_principle: &'static str,
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "class:           {} ({})", self.class, self.borel)?;
        if let Some(syn) = self.syntactic {
            writeln!(f, "syntactic class: {syn}")?;
        }
        writeln!(
            f,
            "liveness:        {}{}",
            if self.is_liveness { "yes" } else { "no" },
            if self.is_uniform_liveness {
                " (uniform)"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "LTL-expressible: {}",
            if self.is_counter_free {
                "yes (counter-free)"
            } else {
                "no (counting)"
            }
        )?;
        write!(f, "proof principle: {}", self.proof_principle)
    }
}

impl Property {
    /// Wraps a deterministic ω-automaton.
    pub fn from_automaton(aut: OmegaAutomaton) -> Self {
        Property {
            analysis: Analysis::new(aut),
            formula: None,
        }
    }

    /// Builds a property from a temporal formula.
    ///
    /// # Errors
    ///
    /// Returns [`PropertyError::Compile`] when the formula is outside the
    /// canonicalizable hierarchy fragment.
    pub fn from_formula(alphabet: &Alphabet, formula: &Formula) -> Result<Self, PropertyError> {
        let aut = to_automaton::compile_over(alphabet, formula).map_err(PropertyError::Compile)?;
        Ok(Property {
            analysis: Analysis::new(aut),
            formula: Some(formula.clone()),
        })
    }

    /// Parses and compiles a formula (see [`Formula::parse`] for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// Returns a [`PropertyError`] on parse or compilation failure.
    pub fn parse(alphabet: &Alphabet, source: &str) -> Result<Self, PropertyError> {
        let formula = Formula::parse(alphabet, source).map_err(PropertyError::Parse)?;
        Self::from_formula(alphabet, &formula)
    }

    /// `A(Φ)` — the safety property of `Φ`-prefixed words.
    pub fn always_of(phi: &FinitaryProperty) -> Self {
        Self::from_automaton(operators::a(phi))
    }

    /// `E(Φ)` — the guarantee property.
    pub fn eventually_of(phi: &FinitaryProperty) -> Self {
        Self::from_automaton(operators::e(phi))
    }

    /// `R(Φ)` — the recurrence property.
    pub fn recurrently_of(phi: &FinitaryProperty) -> Self {
        Self::from_automaton(operators::r(phi))
    }

    /// `P(Φ)` — the persistence property.
    pub fn persistently_of(phi: &FinitaryProperty) -> Self {
        Self::from_automaton(operators::p(phi))
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &OmegaAutomaton {
        self.analysis.automaton()
    }

    /// The shared memoized analysis context backing this property. Use it
    /// directly for lower-level cached queries (SCCs, condensation, live
    /// sets) or to inspect the cache counters via [`Analysis::stats_total`].
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// A snapshot of the analysis-cache counters (SCC passes/hits,
    /// inclusion checks/hits), including the work done on the minimized
    /// quotient ([`Analysis::stats_total`]).
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.analysis.stats_total()
    }

    /// The defining formula, when the property was built from one.
    pub fn formula(&self) -> Option<&Formula> {
        self.formula.as_ref()
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        self.automaton().alphabet()
    }

    /// Membership of an ultimately periodic word.
    pub fn contains(&self, word: &Lasso) -> bool {
        self.automaton().accepts(word)
    }

    /// The exact semantic classification (computed once by the shared
    /// [`Analysis`] context, then served from cache).
    pub fn classification(&self) -> Classification {
        self.analysis.classification().clone()
    }

    /// The strictest hierarchy class.
    pub fn class(&self) -> HierarchyClass {
        HierarchyClass::from_classification(&self.classification())
    }

    /// The full report: classification, Borel level, liveness, proof
    /// principle, counter-freedom.
    pub fn report(&self) -> PropertyReport {
        let classification = self.classification();
        let class = HierarchyClass::from_classification(&classification);
        PropertyReport {
            borel: classification.borel_name(),
            syntactic: self.formula.as_ref().and_then(SyntacticClass::of),
            is_liveness: self.analysis.is_dense(),
            is_uniform_liveness: density::is_uniform_liveness(self.automaton()),
            is_counter_free: self.analysis.counter_freedom().is_counter_free(),
            proof_principle: class.proof_principle(),
            class,
            classification,
        }
    }

    /// The safety–liveness decomposition `Π = Π_S ∩ Π_L` (through the
    /// shared context: the live set behind the closure is computed once).
    pub fn safety_liveness_decomposition(&self) -> (Property, Property) {
        let (s, l) = decomposition::decompose(&self.analysis);
        (Property::from_automaton(s), Property::from_automaton(l))
    }

    /// Union of two properties (the reachable product of the two
    /// automata).
    pub fn union(&self, other: &Property) -> Property {
        Property::from_automaton(self.automaton().union(other.automaton()))
    }

    /// Intersection of two properties (the reachable product of the two
    /// automata).
    pub fn intersection(&self, other: &Property) -> Property {
        Property::from_automaton(self.automaton().intersection(other.automaton()))
    }

    /// Complement.
    pub fn complement(&self) -> Property {
        Property::from_automaton(self.automaton().complement())
    }

    /// Language equivalence, decided by the direct oracle on the two
    /// quotients; the verdict is memoized per operand in this property's
    /// context.
    pub fn equivalent(&self, other: &Property) -> bool {
        self.analysis.equivalent(&other.analysis)
    }

    /// Language inclusion, decided by the direct oracle on the two
    /// quotients; the verdict is memoized per operand in this property's
    /// context, so repeated checks against the same operand cost a memo
    /// lookup.
    pub fn is_subset_of(&self, other: &Property) -> bool {
        self.analysis.is_subset_of(&other.analysis)
    }

    /// Whether the counter-freedom test succeeds (the property is
    /// temporal-logic expressible per \[Zuc86]); memoized in the context.
    pub fn counter_freedom(&self) -> CounterFreedom {
        self.analysis.counter_freedom().clone()
    }

    /// A lasso distinguishing this property from `other`, if the languages
    /// differ.
    pub fn distinguishing_word(&self, other: &Property) -> Option<Lasso> {
        self.automaton().distinguishing_lasso(other.automaton())
    }

    /// The property in HOA (Hanoi Omega-Automata) interchange format.
    pub fn to_hoa(&self) -> String {
        hierarchy_automata::hoa::omega_to_hoa(self.automaton())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_lang::witnesses;

    fn props() -> Alphabet {
        Alphabet::of_propositions(["p", "q"]).unwrap()
    }

    #[test]
    fn parse_and_report_response() {
        let sigma = props();
        let p = Property::parse(&sigma, "G (p -> F q)").unwrap();
        let r = p.report();
        assert_eq!(r.class, HierarchyClass::Recurrence);
        assert_eq!(r.borel, "Π₂");
        assert_eq!(r.syntactic, Some(SyntacticClass::Recurrence));
        assert!(r.is_liveness);
        assert!(r.is_counter_free);
        assert!(r.proof_principle.contains("response"));
    }

    #[test]
    fn classes_of_all_witnesses() {
        assert_eq!(
            Property::from_automaton(witnesses::safety()).class(),
            HierarchyClass::Safety
        );
        assert_eq!(
            Property::from_automaton(witnesses::guarantee()).class(),
            HierarchyClass::Guarantee
        );
        assert_eq!(
            Property::from_automaton(witnesses::recurrence()).class(),
            HierarchyClass::Recurrence
        );
        assert_eq!(
            Property::from_automaton(witnesses::persistence()).class(),
            HierarchyClass::Persistence
        );
        assert_eq!(
            Property::from_automaton(witnesses::obligation_witness(3)).class(),
            HierarchyClass::Obligation(3)
        );
        assert_eq!(
            Property::from_automaton(witnesses::reactivity_witness(1)).class(),
            HierarchyClass::SimpleReactivity
        );
        assert_eq!(
            Property::from_automaton(witnesses::reactivity_witness(2)).class(),
            HierarchyClass::Reactivity(2)
        );
        assert_eq!(
            Property::from_automaton(witnesses::guarantee_paper_example()).class(),
            HierarchyClass::Clopen
        );
    }

    #[test]
    fn operator_constructors() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let phi = FinitaryProperty::parse(&sigma, ".*b").unwrap();
        assert_eq!(
            Property::recurrently_of(&phi).class(),
            HierarchyClass::Recurrence
        );
        assert_eq!(
            Property::persistently_of(&phi).class(),
            HierarchyClass::Persistence
        );
        assert_eq!(
            Property::eventually_of(&phi).class(),
            HierarchyClass::Guarantee
        );
        let pref = FinitaryProperty::parse(&sigma, "aa*b*").unwrap();
        assert_eq!(Property::always_of(&pref).class(), HierarchyClass::Safety);
    }

    #[test]
    fn boolean_algebra_and_duality() {
        let r = Property::from_automaton(witnesses::recurrence());
        let c = r.complement();
        assert_eq!(c.class(), HierarchyClass::Persistence);
        assert!(r.union(&c).automaton().is_universal());
        assert!(r.intersection(&c).automaton().is_empty());
        assert!(r.is_subset_of(&r.union(&c)));
        assert!(r.equivalent(&r.complement().complement()));
    }

    #[test]
    fn decomposition_through_property_api() {
        let sigma = props();
        let p = Property::parse(&sigma, "p U q").unwrap();
        let (s, l) = p.safety_liveness_decomposition();
        assert!(matches!(
            s.class(),
            HierarchyClass::Safety | HierarchyClass::Clopen
        ));
        assert!(l.report().is_liveness);
        assert!(s.intersection(&l).equivalent(&p));
    }

    #[test]
    fn membership() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let p = Property::parse(&sigma, "G F b").unwrap();
        assert!(p.contains(&Lasso::parse(&sigma, "", "ab").unwrap()));
        assert!(!p.contains(&Lasso::parse(&sigma, "b", "a").unwrap()));
    }

    #[test]
    fn errors_are_reported() {
        let sigma = props();
        assert!(matches!(
            Property::parse(&sigma, "p U"),
            Err(PropertyError::Parse(_))
        ));
        assert!(matches!(
            Property::parse(&sigma, "G ((F p) U (G q))"),
            Err(PropertyError::Compile(_))
        ));
        let e = Property::parse(&sigma, "p U").unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(HierarchyClass::Safety.to_string(), "safety");
        assert_eq!(
            HierarchyClass::Obligation(2).to_string(),
            "obligation (Obl_2)"
        );
        assert_eq!(
            HierarchyClass::Reactivity(3).to_string(),
            "reactivity (level 3)"
        );
    }

    #[test]
    fn proof_principles_cover_all_classes() {
        for c in [
            HierarchyClass::Clopen,
            HierarchyClass::Safety,
            HierarchyClass::Guarantee,
            HierarchyClass::Obligation(1),
            HierarchyClass::Recurrence,
            HierarchyClass::Persistence,
            HierarchyClass::SimpleReactivity,
            HierarchyClass::Reactivity(2),
        ] {
            assert!(!c.proof_principle().is_empty());
        }
    }
}

#[cfg(test)]
mod report_display_tests {
    use super::*;

    #[test]
    fn report_displays_all_sections() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let p = Property::parse(&sigma, "G (p -> F q)").unwrap();
        let text = p.report().to_string();
        assert!(text.contains("class:"));
        assert!(text.contains("recurrence"));
        assert!(text.contains("Π₂"));
        assert!(text.contains("liveness:        yes"));
        assert!(text.contains("counter-free"));
        assert!(text.contains("proof principle:"));
    }

    /// `X` over a body that is not a past formula cannot be shifted into
    /// the canonical fragment; it used to panic the rewriter, and must be
    /// the typed compile error the same bodies get without the `X`.
    #[test]
    fn next_over_a_non_past_body_is_a_compile_error() {
        use hierarchy_automata::random::rng::{SeedableRng, StdRng};
        use hierarchy_logic::random_formula::{random_formula, FormulaShape};
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        for src in ["X (!q S (p W q))", "X Z (false U q)", "X (O p U G q)"] {
            assert!(
                matches!(Property::parse(&sigma, src), Err(PropertyError::Compile(_))),
                "{src}"
            );
            let body = src.strip_prefix("X ").unwrap();
            assert!(matches!(
                Property::parse(&sigma, body),
                Err(PropertyError::Compile(_))
            ));
        }
        // The seeded sweep that used to panic on 19 of these formulas.
        let shape = FormulaShape {
            max_depth: 3,
            ..FormulaShape::default()
        };
        for seed in 0..3000 {
            let f = random_formula(&mut StdRng::seed_from_u64(seed), &sigma, shape);
            let _ = Property::from_formula(&sigma, &f);
        }
    }

    #[test]
    fn hoa_and_distinguishing() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let p = Property::parse(&sigma, "G F b").unwrap();
        let q = Property::parse(&sigma, "F G b").unwrap();
        assert!(p.to_hoa().starts_with("HOA: v1"));
        let w = p.distinguishing_word(&q).unwrap();
        assert_ne!(p.contains(&w), q.contains(&w));
        assert!(p.distinguishing_word(&p.clone()).is_none());
    }
}
