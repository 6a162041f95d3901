//! Abstract interpretation for guarded-command programs — the static
//! half of the safety story.
//!
//! The paper characterizes safety properties as exactly the ones
//! provable by the *invariance* proof rule: exhibit an inductive
//! assertion that contains the initial states, is preserved by every
//! transition, and implies the required property. This module mechanizes
//! that rule over the declarative program IR:
//!
//! * [`ir`] — transparent expressions, guards and guarded commands
//!   ([`Program`]), whose reachable valuations
//!   [`Program::to_builder`] enumerates into an explicit system, so the
//!   abstract and explicit engines share one semantics;
//! * [`domain`] — the cartesian value-set domain (one 64-bit mask per
//!   variable) and its transfer functions;
//! * [`relation`] — the pair-relation domain on top of the value sets:
//!   per-location joint value sets for every variable pair, keeping the
//!   correlations (Peterson's `turn`/`pc`, a ring's token bits) the
//!   per-variable masks provably lose;
//! * [`solve`] — the chaotic-iteration worklist solver, producing a
//!   per-location [`Invariant`] certificate with concretized masks;
//! * [`certify`](mod@certify) — independent re-verification of a certificate:
//!   transition-by-transition inductiveness ([`certify`](certify::certify))
//!   and a fully concrete enumeration variant
//!   ([`certify_exhaustive`]), so a solver
//!   bug cannot silently claim soundness;
//! * [`examples`] — the paper's programs (MUX-SEM, the token ring,
//!   Peterson) and their observation alphabet, parameterized N-process
//!   families (`mux_sem_n`, `token_ring_n`, `dining_philosophers`), plus
//!   seeded random programs for differential testing.
//!
//! The model checker consumes invariants through
//! [`checker::check_with_invariants`](crate::checker::check_with_invariants)
//! (discharging safety properties without building any product state);
//! `spec-lint` consumes them through the semantic `FTS` rules.

pub mod certify;
pub mod domain;
pub mod examples;
pub mod ir;
pub mod relation;
pub mod solve;

pub use certify::{certify, certify_exhaustive, CertificateError};
pub use domain::{assume, guard_status, AbsInt, DomainKind};
pub use examples::{
    catalogue, dining_philosophers, mux_sem_abs, mux_sem_n, observation_alphabet, peterson_abs,
    random_program, token_ring_abs, token_ring_n,
};
pub use ir::{Branch, Cmp, Command, Expr, Guard, IrError, Program};
pub use relation::LocationRelations;
pub use solve::{analyze, Invariant, LocationInvariant, SolveStats};
