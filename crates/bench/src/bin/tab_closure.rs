//! TAB-DUAL — duality and closure laws of the four basic classes,
//! including the `minex` operator: the paper's equalities checked on the
//! concrete examples from the text and on a randomized sweep.

use hierarchy_bench::{expect, header};
use hierarchy_core::automata::alphabet::Alphabet;
use hierarchy_core::automata::random::rng::StdRng;
use hierarchy_core::automata::random::rng::{Rng, SeedableRng};
use hierarchy_core::lang::{operators, FinitaryProperty};

/// A random finitary property via a random DFA.
fn random_phi(rng: &mut StdRng, sigma: &Alphabet) -> FinitaryProperty {
    let n = rng.gen_range(2..6);
    let d = hierarchy_core::automata::random::random_dfa(rng, sigma, n, 0.4);
    FinitaryProperty::from_dfa(d)
}

fn main() {
    header("TAB-DUAL", "duality and closure laws (§2)");
    let sigma = Alphabet::new(["a", "b"]).expect("alphabet");

    // --- The paper's concrete minex examples.
    let p3 = FinitaryProperty::parse(&sigma, "(aaa)+").expect("regex");
    let p2 = FinitaryProperty::parse(&sigma, "(aa)+").expect("regex");
    let m32 = p3.minex(&p2);
    let m23 = p2.minex(&p3);
    println!(
        "\nminex((a³)⁺, (a²)⁺) shortest member: {:?} symbols",
        m32.shortest_member().map(|w| w.len())
    );
    expect(
        "minex((a³)⁺,(a²)⁺) = (a⁶)⁺a² + (a⁶)*a⁴ (paper prints (a⁶)*a²; a² has no Φ₁-prefix)",
        m32.equivalent(
            &FinitaryProperty::parse(&sigma, "(aaaaaa)(aaaaaa)*aa + (aaaaaa)*aaaa").expect("regex"),
        ),
    );
    expect(
        "minex((a²)⁺,(a³)⁺) = (a⁶)⁺ + (a⁶)*a³ = (a³)⁺",
        m23.equivalent(&p3),
    );

    // --- The law sweep: 40 random pairs of finitary properties.
    let mut rng = StdRng::seed_from_u64(2026);
    let mut checked = 0u32;
    for _ in 0..40 {
        let f1 = random_phi(&mut rng, &sigma);
        let f2 = random_phi(&mut rng, &sigma);
        // Dualities.
        assert!(operators::a(&f1)
            .complement()
            .equivalent(&operators::e(&f1.complement())));
        assert!(operators::r(&f1)
            .complement()
            .equivalent(&operators::p(&f1.complement())));
        // Guarantee closure.
        assert!(operators::e(&f1)
            .union(&operators::e(&f2))
            .equivalent(&operators::e(&f1.union(&f2))));
        assert!(operators::e(&f1)
            .intersection(&operators::e(&f2))
            .equivalent(&operators::e(&f1.e_f().intersection(&f2.e_f()))));
        // Safety closure.
        assert!(operators::a(&f1)
            .intersection(&operators::a(&f2))
            .equivalent(&operators::a(&f1.intersection(&f2))));
        assert!(operators::a(&f1)
            .union(&operators::a(&f2))
            .equivalent(&operators::a(&f1.a_f().union(&f2.a_f()))));
        // Recurrence closure (union + the minex law).
        assert!(operators::r(&f1)
            .union(&operators::r(&f2))
            .equivalent(&operators::r(&f1.union(&f2))));
        assert!(operators::r(&f1)
            .intersection(&operators::r(&f2))
            .equivalent(&operators::r(&f1.minex(&f2))));
        // Persistence closure.
        assert!(operators::p(&f1)
            .intersection(&operators::p(&f2))
            .equivalent(&operators::p(&f1.intersection(&f2))));
        assert!(operators::p(&f1)
            .union(&operators::p(&f2))
            .equivalent(&operators::p(
                &f1.complement().minex(&f2.complement()).complement()
            )));
        checked += 1;
    }
    expect(
        &format!("all ten closure/duality laws hold on {checked} random pairs"),
        checked == 40,
    );

    // --- Safety characterization via Pref on random automata.
    let mut agree = true;
    for _ in 0..25 {
        let (aut, _) =
            hierarchy_core::automata::random::random_streett(&mut rng, &sigma, 5, 2, 0.3);
        let linguistic = operators::safety_closure_linguistic(&aut);
        let direct = hierarchy_core::topology::closure::closure(&aut);
        agree &= linguistic.equivalent(&direct);
    }
    expect(
        "A(Pref(Π)) agrees with the automata-view safety closure",
        agree,
    );
    println!("\nTAB-DUAL reproduced.");
}
