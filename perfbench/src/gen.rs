//! Seeded input generation. Everything a workload sends is derived from
//! the `--seed` argument here; the programs under test only ever see
//! the generated request lines and argv.

use hierarchy_core::automata::random::random_streett;
use hierarchy_core::automata::random::rng::{Rng, SeedableRng, StdRng};
use hierarchy_core::logic::random_formula::{random_formula, FormulaShape};
use hierarchy_core::prelude::*;
use std::cell::Cell;

/// The hand-labelled running examples of the paper, one
/// `class<TAB>formula` line each (see `expected_classes.txt`).
pub const EXPECTED_CLASSES: &str = include_str!("../expected_classes.txt");

/// `(strictest class name, formula over p,q)` pairs from
/// [`EXPECTED_CLASSES`].
pub fn paper_formulas() -> Vec<(String, String)> {
    EXPECTED_CLASSES
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (class, src) = l.split_once('\t').expect("class<TAB>formula");
            (class.trim().to_string(), src.trim().to_string())
        })
        .collect()
}

/// Syntactically different formulas with one canonical form: auditing
/// both must fire `SUITE002`.
pub const ALPHA_VARIANTS: &[(&str, &str)] = &[
    ("G (p -> F q)", "G (F q | !p)"),
    ("G !(p & q)", "G !(q & p)"),
    ("F (p & q)", "F (q & p)"),
    ("G F p -> G F q", "F G !p | G F q"),
];

pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

pub fn props(names: &[&str]) -> Alphabet {
    Alphabet::of_propositions(names.iter().copied()).expect("proposition alphabet")
}

pub fn letters() -> Alphabet {
    Alphabet::new(["a", "b"]).expect("letter alphabet")
}

/// A random deterministic Streett automaton with `n` states and `k`
/// pairs (the TAB-SERVE generator and density).
pub fn streett(rng: &mut StdRng, sigma: &Alphabet, n: usize, k: usize) -> OmegaAutomaton {
    random_streett(rng, sigma, n, k, 0.15).0
}

/// A compilable random future-LTL formula whose automaton is non-empty
/// and has at most `max_states` states, with that automaton.
pub fn formula(rng: &mut StdRng, sigma: &Alphabet, max_states: usize) -> (String, OmegaAutomaton) {
    let shape = FormulaShape {
        max_depth: 3,
        future: true,
        past: false,
    };
    loop {
        let src = random_formula(rng, sigma, shape).to_string();
        if let Some(prop) = compile_quietly(sigma, &src) {
            let aut = prop.automaton();
            if aut.num_states() <= max_states && !prop.analysis().is_empty() {
                return (src, aut.clone());
            }
        }
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Routes panics through the default hook except while
/// [`quietly`] probes a generated input.
pub fn install_panic_filter() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !QUIET.with(Cell::get) {
            default(info);
        }
    }));
}

/// Runs `f`, turning a panic into `None` without printing it. Some
/// generated inputs panic inside the library (`X`-heavy formulas in the
/// LTL rewriter, some suites in the audit's class-overkill check), and
/// a workload must only send inputs on which no operation fails.
pub fn quietly<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> Option<R> {
    QUIET.with(|q| q.set(true));
    let out = std::panic::catch_unwind(f);
    QUIET.with(|q| q.set(false));
    out.ok()
}

/// Compiles a generated formula, treating a compiler panic like a
/// compile error.
pub fn compile_quietly(sigma: &Alphabet, src: &str) -> Option<Property> {
    quietly(|| Property::parse(sigma, src).ok()).flatten()
}

/// A random regex over the letters `a`, `b` in the paper's notation.
pub fn regex(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.3) {
        return ["a", "b", "."][rng.gen_range(0..3)].to_string();
    }
    match rng.gen_range(0..3) {
        0 => format!("({}+{})", regex(rng, depth - 1), regex(rng, depth - 1)),
        1 => format!("{}{}", regex(rng, depth - 1), regex(rng, depth - 1)),
        _ => format!("({})*", regex(rng, depth - 1)),
    }
}

/// Compiles `operator` applied to `pattern` the way the daemon does.
pub fn regex_automaton(sigma: &Alphabet, pattern: &str, operator: &str) -> OmegaAutomaton {
    let phi = FinitaryProperty::parse(sigma, pattern).expect("generated regexes parse");
    match operator {
        "A" => operators::a(&phi),
        "E" => operators::e(&phi),
        "R" => operators::r(&phi),
        _ => operators::p(&phi),
    }
}
