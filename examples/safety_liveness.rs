//! The safety–liveness decomposition and its orthogonality to the
//! hierarchy (Sections 2–3 of the paper).
//!
//! Every property Π factors as Π = A(Pref(Π)) ∩ L(Π) — a safety property
//! intersected with a liveness property — and when Π lies in class κ, the
//! liveness part is a *live κ-property*.
//!
//! Run with `cargo run --example safety_liveness`.

use temporal_properties::prelude::*;
use temporal_properties::topology::{decomposition, density, metric};

fn main() {
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");

    // The paper's worked example: aUb = (a W b) ∩ ◇b.
    let until = Property::parse(&sigma, "a U b").expect("compiles");
    let (s, l) = until.safety_liveness_decomposition();
    let weak = Property::parse(&sigma, "a W b").expect("compiles");
    let ev_b = Property::parse(&sigma, "F b").expect("compiles");
    println!("a U b  =  (a W b) ∩ ◇b:");
    println!("  safety part  = a W b : {}", s.equivalent(&weak));
    println!("  liveness part ⊇ ◇b   : {}", ev_b.is_subset_of(&l));
    println!(
        "  recomposition exact  : {}",
        s.intersection(&l).equivalent(&until)
    );
    println!();

    // Orthogonality: decompose one property from each class and classify
    // the parts.
    println!(
        "{:<28} {:<20} {:<22} dense?",
        "property", "class", "liveness part class"
    );
    println!("{}", "-".repeat(92));
    for (name, src) in [
        ("◇b", "F b"),
        ("□(a → ◇b)", "G (a -> F b)"),
        ("◇□a", "F G a"),
        ("□a ∨ ◇b", "G a | F b"),
    ] {
        let p = Property::parse(&sigma, src).expect("compiles");
        let (_, live) = p.safety_liveness_decomposition();
        println!(
            "{:<28} {:<20} {:<22} {}",
            name,
            p.class().to_string(),
            live.class().to_string(),
            density::is_dense(live.automaton()),
        );
    }

    // The topology behind it: the safety part is the topological closure.
    println!();
    let guarantee = Property::parse(&sigma, "F b").expect("compiles");
    let (closure, _) = guarantee.safety_liveness_decomposition();
    println!(
        "cl(◇b) = Σ^ω (every finite word extends into ◇b): {}",
        closure.automaton().is_universal()
    );

    // Convergence in the Cantor metric: aⁿb^ω → a^ω.
    let seq: Vec<Lasso> = (0..10)
        .map(|n| Lasso::parse(&sigma, &"a".repeat(n), "b").expect("lasso"))
        .collect();
    let limit = Lasso::parse(&sigma, "", "a").expect("lasso");
    println!();
    println!("distances μ(aⁿb^ω, a^ω):");
    for (n, w) in seq.iter().enumerate().take(6) {
        println!("  n = {n}: {}", metric::distance(w, &limit));
    }

    // Uniform liveness: Σ*b^ω has the single extension b^ω…
    let persistence = Property::parse(&sigma, "F G b").expect("compiles");
    let witness = density::uniform_liveness_witness(persistence.automaton());
    println!();
    match witness {
        Some(w) => println!(
            "◇□b is uniformly live; a uniform extension: {}",
            w.display(&sigma)
        ),
        None => println!("◇□b unexpectedly not uniformly live"),
    }
    // …while "eventually only the first symbol" is live but not uniformly.
    let (dec, _) = decomposition::decompose(persistence.analysis());
    println!("its safety closure is Σ^ω: {}", dec.is_universal());
}
