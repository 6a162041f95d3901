//! TAB-EX — the paper's §2 running examples: the four operator
//! applications and the non-membership results used in the text.

use hierarchy_bench::{expect, header};
use hierarchy_core::automata::classify;
use hierarchy_core::automata::prelude::*;
use hierarchy_core::lang::{operators, witnesses, FinitaryProperty};

fn main() {
    header("TAB-EX", "§2 running examples of the four operators");
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");
    let phi = FinitaryProperty::parse(&sigma, "aa*b*").expect("regex"); // a⁺b*
    let sb = FinitaryProperty::parse(&sigma, ".*b").expect("regex"); // Σ*b

    println!("\n{:<28} {:<22} paper says", "language", "classified as");
    let cases: Vec<(&str, OmegaAutomaton, &str)> = vec![
        ("A(a⁺b*) = a^ω + a⁺b^ω", operators::a(&phi), "safety"),
        ("E(a⁺b*) = a⁺b*·Σ^ω", operators::e(&phi), "guarantee"),
        ("R(Σ*b) = (Σ*b)^ω", operators::r(&sb), "recurrence"),
        ("P(Σ*b) = Σ*b^ω", operators::p(&sb), "persistence"),
    ];
    for (name, aut, paper) in &cases {
        let c = classify::classify(aut);
        println!("{:<28} {:<22} {}", name, c.strictest_class_name(), paper);
    }
    println!();

    let a_phi = classify::classify(&operators::a(&phi));
    expect("A(a⁺b*) is a safety property", a_phi.is_safety);
    let e_phi = classify::classify(&operators::e(&phi));
    expect("E(a⁺b*) is a guarantee property", e_phi.is_guarantee);
    expect(
        "…and over Σ = {a,b} it is clopen (erratum: also safety — it is a·Σ^ω)",
        e_phi.is_safety,
    );
    let r_sb = classify::classify(&operators::r(&sb));
    expect(
        "R(Σ*b) is recurrence and nothing lower",
        r_sb.is_recurrence && !r_sb.is_obligation && !r_sb.is_safety && !r_sb.is_guarantee,
    );
    let p_sb = classify::classify(&operators::p(&sb));
    expect(
        "P(Σ*b) is persistence and nothing lower",
        p_sb.is_persistence && !p_sb.is_obligation,
    );

    // The §2 non-membership arguments:
    // (a*b)^ω is not safety: Pref = (a+b)⁺ and A(Pref) = (a+b)^ω ≠ Π.
    let rec = witnesses::recurrence();
    let safety_closure = Analysis::new(rec.clone()).safety_closure();
    expect(
        "(a*b)^ω ≠ A(Pref((a*b)^ω)) = Σ^ω",
        safety_closure.is_universal() && !rec.equivalent(&safety_closure),
    );
    // (a*b)^ω is not a guarantee property either.
    expect("(a*b)^ω is not guarantee", !r_sb.is_guarantee);
    // (a+b)*a^ω is persistence, in neither safety nor guarantee.
    let pa = classify::classify(&witnesses::persistence_a());
    expect(
        "(a+b)*a^ω is persistence, not safety/guarantee/obligation",
        pa.is_persistence && !pa.is_safety && !pa.is_guarantee && !pa.is_obligation,
    );
    // The two big witnesses are mutual complements.
    expect(
        "(a*b)^ω and (a+b)*a^ω are complements (R/P duality)",
        witnesses::recurrence()
            .complement()
            .equivalent(&witnesses::persistence_a()),
    );
    // Inclusion equalities A(Φ)=R(A_f(Φ)), E(Φ)=R(E_f(Φ)), and P-duals.
    expect(
        "A(Φ) = R(A_f(Φ))",
        operators::a(&phi).equivalent(&operators::r(&phi.a_f())),
    );
    expect(
        "E(Φ) = R(E_f(Φ))",
        operators::e(&phi).equivalent(&operators::r(&phi.e_f())),
    );
    expect(
        "A(Φ) = P(A_f(Φ))",
        operators::a(&phi).equivalent(&operators::p(&phi.a_f())),
    );
    expect(
        "E(Φ) = P(E_f(Φ))",
        operators::e(&phi).equivalent(&operators::p(&phi.e_f())),
    );

    // The first-order characterization χ_O^Φ (end of §2) agrees with the
    // operators on sampled lassos.
    {
        use hierarchy_core::automata::random::random_lasso;
        use hierarchy_core::automata::random::rng::SeedableRng;
        use hierarchy_core::automata::random::rng::StdRng;
        use hierarchy_core::lang::firstorder;
        let mut rng = StdRng::seed_from_u64(2);
        let (a_aut, e_aut, r_aut, p_aut) = (
            operators::a(&sb),
            operators::e(&sb),
            operators::r(&sb),
            operators::p(&sb),
        );
        let mut agree = true;
        for _ in 0..200 {
            let w = random_lasso(&mut rng, &sigma, 4, 4);
            agree &= firstorder::chi_a(&sb, &w) == a_aut.accepts(&w);
            agree &= firstorder::chi_e(&sb, &w) == e_aut.accepts(&w);
            agree &= firstorder::chi_r(&sb, &w) == r_aut.accepts(&w);
            agree &= firstorder::chi_p(&sb, &w) == p_aut.accepts(&w);
        }
        expect("first-order χ_O^Φ formulas agree with the operators", agree);
    }
    println!("\nTAB-EX reproduced.");
}
