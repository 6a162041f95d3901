//! TAB-FAIR — fairness and the mutual-exclusion check-list: weak fairness
//! is a recurrence requirement, strong fairness a simple-reactivity one,
//! and the classes matter operationally (Peterson vs MUX-SEM).

use hierarchy_bench::{expect, header, timed};
use hierarchy_core::fts::absint::{self, Program};
use hierarchy_core::fts::checker::{verify, Verdict};
use hierarchy_core::fts::system::{Fairness, TransitionSystem};
use hierarchy_core::prelude::*;

fn holds(ts: &TransitionSystem, sigma: &Alphabet, src: &str) -> bool {
    let p = Property::parse(sigma, src).expect("spec compiles");
    verify(ts, p.automaton()).expect("check").holds()
}

fn build(program: &Program, sigma: &Alphabet) -> TransitionSystem {
    program
        .to_builder(sigma)
        .build()
        .expect("paper programs build")
}

fn main() {
    header(
        "TAB-FAIR",
        "fairness classes and the mutual-exclusion programs",
    );

    // --- The fairness requirement formulas and their classes.
    let tau = Alphabet::of_propositions(["en", "tk"]).expect("alphabet");
    let weak = Property::parse(&tau, "G F (!en | tk)").expect("compiles");
    let strong = Property::parse(&tau, "G F en -> G F tk").expect("compiles");
    expect(
        "weak fairness □◇(¬En ∨ taken) is a recurrence property",
        weak.class() == HierarchyClass::Recurrence,
    );
    expect(
        "strong fairness □◇En → □◇taken is strict simple reactivity",
        strong.class() == HierarchyClass::SimpleReactivity,
    );
    expect(
        "as languages: strong-fair runs ⊆ weak-fair runs, strictly",
        strong.is_subset_of(&weak) && !weak.is_subset_of(&strong),
    );

    // --- Peterson: the complete specification holds.
    let sigma = absint::observation_alphabet();
    let peterson = build(&absint::peterson_abs(), &sigma);
    println!("\nPeterson ({} states):", peterson.num_states());
    let (ok_mutex, t1) = timed(|| holds(&peterson, &sigma, "G !(c1 & c2)"));
    let (ok_acc1, t2) = timed(|| holds(&peterson, &sigma, "G (t1 -> F c1)"));
    let (ok_acc2, t3) = timed(|| holds(&peterson, &sigma, "G (t2 -> F c2)"));
    println!("  mutual exclusion  {:>8.2} ms", t1);
    println!("  accessibility P1  {:>8.2} ms", t2);
    println!("  accessibility P2  {:>8.2} ms", t3);
    expect("Peterson: mutual exclusion (safety)", ok_mutex);
    expect(
        "Peterson: accessibility (recurrence) for both processes",
        ok_acc1 && ok_acc2,
    );
    expect(
        "Peterson: the under-specified safety-only spec admits it trivially \
         — the guarantee ◇c1 alone is false (a process may never request)",
        !holds(&peterson, &sigma, "F c1"),
    );

    // --- MUX-SEM: strong vs weak grants.
    println!("\nMUX-SEM:");
    let strong_sem = build(&absint::mux_sem_abs(Fairness::Strong), &sigma);
    expect(
        "MUX-SEM strong: accessibility holds for both",
        holds(&strong_sem, &sigma, "G (t1 -> F c1)")
            && holds(&strong_sem, &sigma, "G (t2 -> F c2)"),
    );
    let weak_sem = build(&absint::mux_sem_abs(Fairness::Weak), &sigma);
    let verdict = {
        let p = Property::parse(&sigma, "G (t2 -> F c2)").expect("ok");
        verify(&weak_sem, p.automaton()).expect("check")
    };
    match &verdict {
        Verdict::Violated(cex) => {
            println!("  weak grants starve process 2: loop {:?}", cex.cycle);
        }
        Verdict::Holds => {}
    }
    expect(
        "MUX-SEM weak: accessibility fails (starvation is weakly fair)",
        !verdict.holds(),
    );
    expect(
        "MUX-SEM weak: mutual exclusion still holds",
        holds(&weak_sem, &sigma, "G !(c1 & c2)"),
    );
    println!("\nTAB-FAIR reproduced.");
}
