//! TAB-SL — the safety–liveness classification: the decomposition theorem
//! `Π = Π_S ∩ Π_L`, density = liveness, the orthogonality of the two
//! classifications, and the uniform-liveness example (including the
//! erratum found in the paper's example).

use hierarchy_bench::{expect, header};
use hierarchy_core::automata::random::rng::SeedableRng;
use hierarchy_core::automata::random::rng::StdRng;
use hierarchy_core::automata::{classify, random};
use hierarchy_core::prelude::*;
use hierarchy_core::topology::{decomposition, density};

fn main() {
    header("TAB-SL", "the safety–liveness classification (§2–§3)");
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");

    // --- The worked example: aUb = (aWb) ∩ ◇b.
    let until = Property::parse(&sigma, "a U b").expect("compiles");
    let weak = Property::parse(&sigma, "a W b").expect("compiles");
    let (s, l) = until.safety_liveness_decomposition();
    expect("safety closure of aUb is aWb", s.equivalent(&weak));
    expect("liveness part is dense", density::is_dense(l.automaton()));
    expect(
        "recomposition is exact: aUb = (aWb) ∩ L",
        s.intersection(&l).equivalent(&until),
    );

    // --- Decomposition theorem on a random sweep.
    let mut rng = StdRng::seed_from_u64(99);
    let mut all_valid = true;
    for _ in 0..60 {
        let (aut, _) = random::random_streett(&mut rng, &sigma, 6, 2, 0.3);
        all_valid &= decomposition::decomposition_is_valid(&aut);
    }
    expect("Π = A(Pref Π) ∩ L(Π) on 60 random properties", all_valid);

    // --- Orthogonality: the liveness part retains the κ class.
    type ClassCheck = fn(&classify::Classification) -> bool;
    let live_kappa: [(&str, ClassCheck); 4] = [
        ("F b", |c| c.is_guarantee),
        ("G (a -> F b)", |c| c.is_recurrence),
        ("F G a", |c| c.is_persistence),
        ("G a | F b", |c| c.is_obligation),
    ];
    for (src, check) in live_kappa {
        let p = Property::parse(&sigma, src).expect("compiles");
        let l = decomposition::liveness_extension(p.analysis());
        expect(
            &format!("L({src}) stays in the class of {src} and is live"),
            check(&classify::classify(&l)) && density::is_dense(&l),
        );
    }

    // --- Liveness = density; safety ∩ liveness = {Σ^ω}.
    expect(
        "the liveness class is the dense sets (◇b dense, □a not)",
        density::is_dense(Property::parse(&sigma, "F b").expect("ok").automaton())
            && !density::is_dense(Property::parse(&sigma, "G a").expect("ok").automaton()),
    );

    // --- Uniform liveness.
    let per = Property::parse(&sigma, "F G b").expect("compiles");
    expect(
        "Σ*b^ω is uniformly live (extension b^ω)",
        density::is_uniform_liveness(per.automaton()),
    );
    // The paper's claimed non-uniform example a·Σ*·aa·Σ^ω + b·Σ*·bb·Σ^ω is
    // actually uniform (σ′ = aabb^ω) — erratum; see the
    // `hierarchy-topology` density tests for the full construction, and
    // the corrected non-uniform example "eventually only the first
    // symbol":
    let a = sigma.symbol("a").expect("a");
    let corrected = OmegaAutomaton::build(
        &sigma,
        5,
        0,
        move |q, s| match (q, s == a) {
            (0, true) => 1,
            (0, false) => 3,
            (1 | 2, true) => 1,
            (1 | 2, false) => 2,
            (3 | 4, false) => 3,
            (3 | 4, true) => 4,
            _ => unreachable!(),
        },
        Acceptance::fin([2, 4]),
    );
    expect(
        "a·Σ*·a^ω + b·Σ*·b^ω is live but NOT uniformly live",
        density::is_dense(&corrected) && !density::is_uniform_liveness(&corrected),
    );
    println!("\nTAB-SL reproduced.");
}
