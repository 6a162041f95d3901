#![warn(missing_docs)]

//! The **temporal-logic view** of the Manna–Pnueli hierarchy (Section 4 of
//! *A Hierarchy of Temporal Properties*, PODC 1990): linear temporal logic
//! with past operators, its lasso-word semantics, and the correspondence
//! between the paper's formula classes and the semantic hierarchy.
//!
//! The paper's six formula classes, each built from a *past* formula `p`
//! (or a boolean combination):
//!
//! | class             | shape                      |
//! |-------------------|----------------------------|
//! | safety            | `□p`                       |
//! | guarantee         | `◇p`                       |
//! | obligation        | `⋀ᵢ (□pᵢ ∨ ◇qᵢ)`           |
//! | recurrence        | `□◇p`                      |
//! | persistence       | `◇□p`                      |
//! | simple reactivity | `□◇p ∨ ◇□q`                |
//! | reactivity        | `⋀ᵢ (□◇pᵢ ∨ ◇□qᵢ)`         |
//!
//! Provided here:
//!
//! * [`Formula`] — LTL with full past (`Y`/`Z`/`S`/`B`/`O`/`H`) and future
//!   (`X`/`U`/`W`/`F`/`G`) operators over symbol-set atoms, with a parser
//!   ([`Formula::parse`]) and pretty-printer;
//! * [`semantics`] — exact evaluation on lasso words for the
//!   *future-over-past* fragment (the hierarchy's canonical shape, which by
//!   the paper's normal-form theorem is expressively complete);
//! * [`tester`] — the deterministic past testers of \[LPZ85]: a DFA whose
//!   state knows the truth of every tracked past formula at the current
//!   position (the paper's Proposition 5.3 construction);
//! * [`to_automaton`] — compilation of hierarchy formulas to deterministic
//!   ω-automata in the corresponding κ-automaton shape;
//! * [`syntactic`] — the syntactic classifier for the formula grammar,
//!   including the paper's named *κ-equivalent* idioms (conditional
//!   safety/guarantee/persistence, response, exception, fairness);
//! * [`rewrites`] — the paper's equivalences as verified rewrite rules
//!   (e.g. `□(p → ◇q) ≡ □◇(¬p S̃ q)`), used to canonicalize formulas into
//!   the hierarchy grammar.
//!
//! # Example
//!
//! ```
//! use hierarchy_automata::prelude::*;
//! use hierarchy_logic::{Formula, to_automaton};
//!
//! let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
//! // Response: □(p → ◇q) — a recurrence property.
//! let f = Formula::parse(&sigma, "G (p -> F q)").unwrap();
//! let aut = to_automaton::compile_over(&sigma, &f).unwrap();
//! let c = classify::classify(&aut);
//! assert!(c.is_recurrence && !c.is_obligation);
//! ```

pub mod ast;
pub mod parser;
pub mod random_formula;
pub mod rewrites;
pub mod semantics;
pub mod syntactic;
pub mod tester;
pub mod to_automaton;

pub use ast::Formula;
pub use parser::ParseError;
pub use syntactic::SyntacticClass;
