#![warn(missing_docs)]

//! Fair transition systems and a model checker for hierarchy properties —
//! the paper's program-facing side.
//!
//! The paper motivates every class with program requirements: mutual
//! exclusion (safety), accessibility (response/recurrence), weak fairness
//! (recurrence), strong fairness (simple reactivity). This crate provides:
//!
//! * [`system::TransitionSystem`] — explicit-state fair transition systems
//!   in the style of \[MP83]: named transitions with optional *weak*
//!   (justice) or *strong* (compassion) fairness, and per-state
//!   observations over an alphabet;
//! * [`checker`] — a model checker deciding whether every fair computation
//!   satisfies a property given as a deterministic ω-automaton, by
//!   searching the product for a fair counterexample cycle (iterated SCC
//!   refinement, the same algorithm family as Streett emptiness);
//! * [`absint`] — the declarative program IR (variables over finite
//!   domains plus guarded commands), the paper's example programs in it
//!   (Peterson's mutual exclusion, a semaphore with strong fairness, a
//!   token ring), and an abstract-interpretation engine over it:
//!   per-location invariant certificates, an independent certificate
//!   checker, and the invariant-first checking mode
//!   [`checker::check_with_invariants`] that discharges safety
//!   properties without building the product;
//! * [`builder`] — the explicit enumeration of an IR program's reachable
//!   valuations into a [`system::TransitionSystem`].

pub mod absint;
pub mod builder;
pub mod checker;
pub mod error;
pub mod system;

pub use error::CheckError;
