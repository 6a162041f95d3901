//! The paper's running program example: mutual exclusion.
//!
//! Verifies Peterson's algorithm against the full specification check-list
//! the paper derives from the hierarchy — the safety requirement alone is
//! famously incomplete (a program that never grants access satisfies it),
//! so the recurrence-class accessibility requirement must be added.
//!
//! Run with `cargo run --example mutual_exclusion`.

use temporal_properties::fts::absint;
use temporal_properties::fts::checker::{verify, Verdict};
use temporal_properties::fts::system::{Fairness, TransitionSystem};
use temporal_properties::prelude::*;

fn check(ts: &TransitionSystem, sigma: &Alphabet, name: &str, src: &str) {
    let property = Property::parse(sigma, src).expect("spec compiles");
    let class = property.class();
    let verdict = verify(ts, property.automaton()).expect("valid system and alphabet");
    match verdict {
        Verdict::Holds => println!("  ✓ {name:<28} [{class}]  {src}"),
        Verdict::Violated(cex) => {
            println!("  ✗ {name:<28} [{class}]  {src}");
            println!(
                "      counterexample: stem of {} states, loop of {} states",
                cex.stem.len(),
                cex.cycle.len()
            );
        }
    }
}

fn main() {
    let sigma = absint::observation_alphabet();
    let build = |program: absint::Program| program.to_builder(&sigma).build().expect("builds");
    let peterson = build(absint::peterson_abs());
    println!(
        "Peterson's algorithm ({} states, weak fairness):",
        peterson.num_states()
    );

    // The faulty specification from the paper's introduction: safety only.
    check(
        &peterson,
        &sigma,
        "mutual exclusion (safety)",
        "G !(c1 & c2)",
    );
    // Its completion: accessibility, a response/recurrence property.
    check(&peterson, &sigma, "accessibility P1", "G (t1 -> F c1)");
    check(&peterson, &sigma, "accessibility P2", "G (t2 -> F c2)");
    // Precedence: no spurious critical sections.
    check(&peterson, &sigma, "causal precedence", "G (c1 -> O t1)");
    // An intentionally false guarantee — a process may never request:
    check(&peterson, &sigma, "unconditional entry (false)", "F c1");

    println!();
    println!("MUX-SEM with strongly fair grants:");
    let strong = build(absint::mux_sem_abs(Fairness::Strong));
    check(&strong, &sigma, "mutual exclusion", "G !(c1 & c2)");
    check(&strong, &sigma, "accessibility P1", "G (t1 -> F c1)");
    check(&strong, &sigma, "accessibility P2", "G (t2 -> F c2)");
    check(&strong, &sigma, "fair responsiveness", "G F t1 -> G F c1");

    println!();
    println!("MUX-SEM with only weakly fair grants (starvation is fair):");
    let weak = build(absint::mux_sem_abs(Fairness::Weak));
    check(&weak, &sigma, "mutual exclusion", "G !(c1 & c2)");
    check(&weak, &sigma, "accessibility P2 (false)", "G (t2 -> F c2)");
}
