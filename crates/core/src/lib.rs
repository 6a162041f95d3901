#![warn(missing_docs)]

//! The Manna–Pnueli safety–progress hierarchy of temporal properties,
//! unified across the paper's four views.
//!
//! *A Hierarchy of Temporal Properties* (Manna & Pnueli, PODC 1990)
//! classifies ω-word properties into six classes — safety, guarantee,
//! obligation, recurrence, persistence, reactivity — and characterizes them
//! linguistically (the `A`/`E`/`R`/`P` operators over finitary properties),
//! topologically (the bottom of the Borel hierarchy), in temporal logic
//! (`□p`, `◇p`, `□◇p`, `◇□p` over past formulas), and by deterministic
//! Streett automata. This crate ties the four view crates together behind
//! one [`Property`] type:
//!
//! ```
//! use hierarchy_core::prelude::*;
//!
//! let sigma = Alphabet::of_propositions(["req", "ack"]).unwrap();
//! // The response property □(req → ◇ack).
//! let p = Property::parse(&sigma, "G (req -> F ack)").unwrap();
//! let report = p.report();
//! assert_eq!(report.class, HierarchyClass::Recurrence);
//! assert_eq!(report.borel, "Π₂");
//! assert!(report.is_liveness);
//! ```
//!
//! The view crates remain available for direct use:
//!
//! * [`automata`] — ω-automata, acceptance conditions, the classification
//!   decision procedures (`classify`), the paper's structural checks
//!   (`paper_checks`), counter-freedom;
//! * [`lang`] — regular finitary properties, the `A`/`E`/`R`/`P`
//!   operators, `minex`, the canonical witness families;
//! * [`logic`] — LTL+Past, lasso semantics, past testers, formula
//!   compilation, syntactic classification;
//! * [`topology`] — the Cantor metric, closure, density, the
//!   safety–liveness decomposition;
//! * [`fts`] — fair transition systems, the declarative program IR with
//!   Peterson's algorithm and `MUX-SEM` written in it, and the model
//!   checker;
//! * [`lint`] — `spec-lint`, static analysis for specifications across
//!   all four substrates, with a stable rule catalogue and JSON output.

pub use hierarchy_automata as automata;
pub use hierarchy_fts as fts;
pub use hierarchy_lang as lang;
pub use hierarchy_lint as lint;
pub use hierarchy_logic as logic;
pub use hierarchy_topology as topology;

mod property;
mod servable;

pub use property::{HierarchyClass, Property, PropertyError, PropertyReport};
pub use servable::Servable;

/// Audits a suite of named [`Property`] values — the library front end
/// of `spec-lint audit` (rules `SUITE001`–`SUITE005`, subsumption
/// lattice, dominance DAG, hierarchy histogram; see
/// [`lint::suite`]). The audit runs over each property's live
/// [`Analysis`](automata::analysis::Analysis) context, so a re-audit of
/// the same properties rides the memoized inclusion matrix.
pub fn audit_properties<'a>(
    items: impl IntoIterator<Item = (&'a str, &'a Property)>,
    opts: &lint::AuditOptions,
) -> Result<lint::SuiteAudit, lint::AuditError> {
    let borrowed: Vec<(&str, &automata::analysis::Analysis)> = items
        .into_iter()
        .map(|(name, p)| (name, p.analysis()))
        .collect();
    lint::audit_suite_ctx(&borrowed, opts)
}

/// Commonly used items across the workspace.
pub mod prelude {
    pub use crate::automata::prelude::*;
    pub use crate::lang::{operators, witnesses, FinitaryProperty};
    pub use crate::lint::AuditOptions;
    pub use crate::logic::{Formula, SyntacticClass};
    pub use crate::{audit_properties, HierarchyClass, Property, PropertyReport, Servable};
}
