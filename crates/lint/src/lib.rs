//! `spec-lint`: cross-crate static analysis for hierarchy specifications.
//!
//! Every substrate of the workspace — temporal formulas, ω-automata,
//! finitary languages, fair transition systems — admits *well-formed but
//! suspicious* values: an unsatisfiable specification, an acceptance
//! condition with a provably redundant Streett pair, a fairness
//! requirement on a transition that is never enabled. This crate collects
//! those checks behind a single diagnostic vocabulary
//! ([`Diagnostic`], [`Severity`], [`Location`]) and a stable rule
//! catalogue ([`registry::CATALOGUE`]), with machine-readable JSON output
//! ([`diagnostic::report_to_json`]).
//!
//! Entry points per layer:
//!
//! | layer | function | rules |
//! |-------|----------|-------|
//! | logic | [`logic::lint_formula`] | `LOGIC001`–`LOGIC007` |
//! | automata | [`automata::lint_automaton`] | `AUT001`–`AUT007` |
//! | lang | [`lang::lint_regex`], [`lang::lint_finitary`], [`lang::lint_minex`] | `LANG001`–`LANG006` |
//! | fts | [`fts::lint_system`], [`fts::lint_abstract_program`] | `FTS001`–`FTS008` |
//! | suite | [`suite::audit_suite`], [`suite::audit_suite_ctx`] | `SUITE001`–`SUITE005` |
//!
//! The semantic rules are decision procedures, not heuristics: they reuse
//! the memoized [`Analysis`](hierarchy_automata::analysis::Analysis)
//! context (emptiness, SCC condensation, hierarchy classification,
//! language equivalence), so a `_ctx` variant exists wherever an analysis
//! is typically already at hand. The `spec-lint` binary fronts the same
//! functions on the command line.

pub mod automata;
pub mod diagnostic;
pub mod fts;
pub mod lang;
pub mod logic;
pub mod registry;
pub mod suite;

pub use automata::{lint_automaton, lint_automaton_ctx};
pub use diagnostic::{is_clean, report_to_json, worst_severity, Diagnostic, Location, Severity};
pub use fts::{lint_abstract_program, lint_abstract_program_ctx, lint_system};
pub use lang::{lint_finitary, lint_minex, lint_regex};
pub use logic::lint_formula;
pub use registry::{rule, RuleInfo, CATALOGUE};
pub use suite::{audit_suite, audit_suite_ctx, AuditError, AuditOptions, SuiteAudit};

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_lang::finitary::FinitaryProperty;

    #[test]
    fn every_emitted_code_is_catalogued() {
        // The per-module tests exercise the rules; here just pin that the
        // registry severities drive `is_clean`.
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let diags = lint_finitary(&FinitaryProperty::sigma_plus(&sigma));
        assert!(!diags.is_empty());
        for d in &diags {
            let r = rule(d.code).expect("code in catalogue");
            assert_eq!(r.severity, d.severity);
        }
        assert!(is_clean(&diags)); // LANG004 is Info-level
    }
}
