//! Weak and strong fairness through the lens of the hierarchy (Section 4
//! of the paper): weak fairness (justice) is a *recurrence* requirement,
//! strong fairness (compassion) is a *simple reactivity* requirement — and
//! the gap is visible both in the classification and in model checking.
//!
//! Run with `cargo run --example fairness`.

use temporal_properties::fts::absint;
use temporal_properties::fts::checker::{verify, Verdict};
use temporal_properties::fts::system::Fairness;
use temporal_properties::prelude::*;

fn main() {
    // --- The fairness requirement formulas and their classes.
    // en = the transition is enabled, tk = it is taken.
    let sigma = Alphabet::of_propositions(["en", "tk"]).expect("alphabet");
    let weak = Property::parse(&sigma, "G F (!en | tk)").expect("compiles");
    let strong = Property::parse(&sigma, "G F en -> G F tk").expect("compiles");
    println!("weak fairness  □◇(¬En(τ) ∨ taken(τ)) : {}", weak.class());
    println!("strong fairness □◇En(τ) → □◇taken(τ) : {}", strong.class());
    println!(
        "strong fairness is the stronger requirement — it implies weak: {}",
        strong.is_subset_of(&weak)
    );
    println!("…and not conversely: {}", !weak.is_subset_of(&strong));
    println!();

    // --- The gap in action: MUX-SEM accessibility.
    println!("MUX-SEM accessibility □(t2 → ◇c2) under each grant fairness:");
    let obs = absint::observation_alphabet();
    for fairness in [Fairness::None, Fairness::Weak, Fairness::Strong] {
        let ts = absint::mux_sem_abs(fairness)
            .to_builder(&obs)
            .build()
            .expect("MUX-SEM builds");
        let spec = Property::parse(&obs, "G (t2 -> F c2)").expect("compiles");
        let verdict = verify(&ts, spec.automaton()).expect("valid system and alphabet");
        let outcome = match &verdict {
            Verdict::Holds => "holds".to_string(),
            Verdict::Violated(cex) => format!(
                "violated (loop of {} states starving process 2)",
                cex.cycle.len()
            ),
        };
        println!("  {fairness:?}: {outcome}");
    }
    println!();

    // --- Why the classes matter: a weakly-but-not-strongly-fair loop.
    // The starvation loop idles between idle/c1 states; grant2 is enabled
    // only intermittently, so weak fairness tolerates never taking it.
    let weak = absint::mux_sem_abs(Fairness::Weak);
    let (ts, vals) = weak
        .to_builder(&obs)
        .build_with_valuations()
        .expect("MUX-SEM builds");
    if let Ok(Verdict::Violated(cex)) = verify(
        &ts,
        Property::parse(&obs, "G (t2 -> F c2)")
            .expect("compiles")
            .automaton(),
    ) {
        let show = |states: &[usize]| {
            let shown: Vec<String> = states.iter().map(|&s| format!("{:?}", vals[s])).collect();
            shown.join(" ")
        };
        println!(
            "weak-fairness starvation loop (valuations of {}; 0:N 1:T 2:C):",
            weak.var_names.join(", ")
        );
        println!("  stem : {}", show(&cex.stem));
        println!("  cycle: {} (repeats forever)", show(&cex.cycle));
    }
    println!();

    // --- The responsiveness summary table (Section 4).
    let ap = Alphabet::of_propositions(["p", "q"]).expect("alphabet");
    println!("the paper's five grades of responsiveness:");
    for (reading, src) in [
        ("initial p ⇒ some q", "p -> F q"),
        ("first p ⇒ some q after", "F p -> F (q & O p)"),
        ("every p ⇒ some q", "G (p -> F q)"),
        ("some p ⇒ eventually always q", "G (p -> F G q)"),
        ("∞ many p ⇒ ∞ many q", "G F p -> G F q"),
    ] {
        let prop = Property::parse(&ap, src).expect("compiles");
        println!("  {:<30} {:<24} {}", reading, prop.class().to_string(), src);
    }
}
