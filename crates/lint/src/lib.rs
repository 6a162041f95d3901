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
//! | fts | [`fts::lint_system`], [`fts::lint_program`], [`fts::lint_abstract_program`] | `FTS001`–`FTS007` |
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
pub use fts::{lint_abstract_program, lint_abstract_program_ctx, lint_program, lint_system};
pub use lang::{lint_finitary, lint_minex, lint_regex};
pub use logic::lint_formula;
pub use registry::{rule, RuleInfo, CATALOGUE};
pub use suite::{audit_suite, audit_suite_ctx, AuditError, AuditOptions, SuiteAudit};

use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_fts::system::TransitionSystem;
use hierarchy_lang::finitary::FinitaryProperty;
use hierarchy_lang::regex::Regex;

/// Anything that can be linted without extra context.
///
/// Formulas are the exception: linting a [`Formula`](hierarchy_logic::ast::Formula)
/// needs the alphabet it is read over, so use [`lint_formula`] directly.
pub trait Lintable {
    /// Runs every applicable rule and returns the findings.
    fn lint(&self) -> Vec<Diagnostic>;
}

impl Lintable for OmegaAutomaton {
    fn lint(&self) -> Vec<Diagnostic> {
        lint_automaton(self)
    }
}

/// Lints a batch of artifacts across the worker pool of
/// [`hierarchy_automata::par`] (each artifact is one work item; the
/// semantic rules inside an item run sequentially so the pool is never
/// oversubscribed). Reports come back in input order and are identical
/// to calling [`Lintable::lint`] on each item.
///
/// `jobs` is the worker count — pass
/// [`hierarchy_automata::par::thread_count`] to honor the
/// `HIERARCHY_THREADS` override, or an explicit count (`spec-lint
/// --jobs N` does).
pub fn lint_suite<T: Lintable + Sync>(items: &[T], jobs: usize) -> Vec<Vec<Diagnostic>> {
    hierarchy_automata::par::map_with(jobs, items, Lintable::lint)
}

impl Lintable for TransitionSystem {
    fn lint(&self) -> Vec<Diagnostic> {
        lint_system(self)
    }
}

impl Lintable for Regex {
    fn lint(&self) -> Vec<Diagnostic> {
        lint_regex(self)
    }
}

impl Lintable for FinitaryProperty {
    fn lint(&self) -> Vec<Diagnostic> {
        lint_finitary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;

    #[test]
    fn lintable_dispatches_per_substrate() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let phi = FinitaryProperty::empty(&sigma);
        assert_eq!(phi.lint()[0].code, "LANG003");
        let r = Regex::parse(&sigma, "(a*)*").unwrap();
        assert_eq!(r.lint()[0].code, "LANG002");
    }

    #[test]
    fn lint_suite_agrees_with_sequential_lints() {
        use hierarchy_automata::acceptance::Acceptance;
        use hierarchy_automata::omega::OmegaAutomaton;
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let auts: Vec<OmegaAutomaton> = (0..6)
            .map(|i| {
                OmegaAutomaton::build(
                    &sigma,
                    2 + i % 3,
                    0,
                    |q, s| if s == b { (q + 1) % 2 } else { q },
                    if i % 2 == 0 {
                        Acceptance::inf([1])
                    } else {
                        Acceptance::fin([0])
                    },
                )
            })
            .collect();
        let sequential: Vec<_> = auts.iter().map(Lintable::lint).collect();
        for jobs in [1, 2, 4] {
            assert_eq!(lint_suite(&auts, jobs), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn every_emitted_code_is_catalogued() {
        // The per-module tests exercise the rules; here just pin that the
        // registry severities drive `is_clean`.
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let diags = FinitaryProperty::sigma_plus(&sigma).lint();
        assert!(!diags.is_empty());
        for d in &diags {
            let r = rule(d.code).expect("code in catalogue");
            assert_eq!(r.severity, d.severity);
        }
        assert!(is_clean(&diags)); // LANG004 is Info-level
    }
}
