#![warn(missing_docs)]

//! The **linguistic view** of the Manna–Pnueli temporal-property hierarchy
//! (Section 2 of *A Hierarchy of Temporal Properties*, PODC 1990).
//!
//! The paper constructs every infinitary property class from *finitary
//! properties* `Φ ⊆ Σ⁺` via four operators:
//!
//! | operator | meaning                                   | class       |
//! |----------|-------------------------------------------|-------------|
//! | `A(Φ)`   | all prefixes belong to `Φ`                | safety      |
//! | `E(Φ)`   | some prefix belongs to `Φ`                | guarantee   |
//! | `R(Φ)`   | infinitely many prefixes belong to `Φ`    | recurrence  |
//! | `P(Φ)`   | all but finitely many prefixes are in `Φ` | persistence |
//!
//! This crate provides:
//!
//! * [`regex`] + [`thompson`] — regular expressions in the paper's notation
//!   (`a⁺b*` written `aa*b*` or `a+b*` with postfix `+`, unions with infix
//!   `+`, `.` for Σ) and their compilation to automata;
//! * [`FinitaryProperty`] — regular sets of non-empty finite words with the
//!   full boolean algebra, the finitary operators `A_f`/`E_f`, and the
//!   [`minex`](FinitaryProperty::minex) minimal-extension operator that
//!   drives the closure of the recurrence class under intersection;
//! * [`operators`] — the four operators `A/E/R/P` producing deterministic
//!   ω-automata, plus [`operators::pref`] recovering `Pref(Π)`;
//! * [`witnesses`] — the paper's canonical separating languages
//!   (`(a*b)^ω`, `(a+b)*a^ω`, the `Obl_k` family `[(Π+a*)d]^{k-1}·Π`, …).
//!
//! # Example
//!
//! ```
//! use hierarchy_automata::prelude::*;
//! use hierarchy_lang::{operators, FinitaryProperty};
//!
//! let sigma = Alphabet::new(["a", "b"]).unwrap();
//! // Φ = a⁺b* (the paper's running example).
//! let phi = FinitaryProperty::parse(&sigma, "aa*b*").unwrap();
//! // A(Φ) = a^ω + a⁺b^ω is a safety property…
//! let safety = operators::a(&phi);
//! assert!(classify::classify(&safety).is_safety);
//! // …and E(Φ) = a⁺b*·Σ^ω is a guarantee property.
//! let guarantee = operators::e(&phi);
//! assert!(classify::classify(&guarantee).is_guarantee);
//! ```

pub mod finitary;
pub mod firstorder;
pub mod operators;
pub mod regex;
pub mod thompson;
pub mod witnesses;

pub use finitary::FinitaryProperty;
pub use regex::{Regex, RegexError};
