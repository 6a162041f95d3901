//! The paper's example programs in the declarative IR, plus a seeded
//! random-program generator for differential testing.
//!
//! The paper's three programs — MUX-SEM, the token ring and Peterson's
//! algorithm — are observed through [`observation_alphabet`];
//! `Program::to_builder(..).build()` gives the explicit system the model
//! checker runs on, and the abstract engine reads the same program. All
//! three use their first program counter as the analysis `pc`, which is
//! what lets the value-set domain prove mutual exclusion (the
//! grant/enter guard refinement survives the location partition).

use super::ir::{Branch, Expr, Guard, Program};
use crate::system::Fairness;
use hierarchy_automata::alphabet::Alphabet;
use hierarchy_automata::random::rng::{Rng, StdRng};

fn set(var: usize, value: i64) -> Branch {
    Branch::assign(vec![(var, Expr::c(value))])
}

/// `MUX-SEM` (semaphore mutual exclusion of \[MP83]): two processes
/// `pc1, pc2 ∈ {0:N, 1:T, 2:C}` competing for one semaphore, the grants
/// with the supplied fairness. With [`Fairness::Strong`] accessibility
/// holds; with [`Fairness::Weak`] process starvation is a fair
/// computation, which is why strong fairness lives in the
/// simple-reactivity class.
pub fn mux_sem_abs(grant_fairness: Fairness) -> Program {
    let mut p = Program::new();
    let pc1 = p.var("pc1", 3);
    let pc2 = p.var("pc2", 3);
    p.set_pc(pc1);
    p.init(&[0, 0]);
    p.observe_prop(Guard::var_eq(pc1, 2)); // c1
    p.observe_prop(Guard::var_eq(pc2, 2)); // c2
    p.observe_prop(Guard::var_eq(pc1, 1)); // t1
    p.observe_prop(Guard::var_eq(pc2, 1)); // t2
    p.command(
        "req1",
        Fairness::None,
        Guard::var_eq(pc1, 0),
        vec![set(pc1, 1)],
    );
    p.command(
        "req2",
        Fairness::None,
        Guard::var_eq(pc2, 0),
        vec![set(pc2, 1)],
    );
    p.command(
        "grant1",
        grant_fairness,
        Guard::var_eq(pc1, 1).and(Guard::var_ne(pc2, 2)),
        vec![set(pc1, 2)],
    );
    p.command(
        "grant2",
        grant_fairness,
        Guard::var_eq(pc2, 1).and(Guard::var_ne(pc1, 2)),
        vec![set(pc2, 2)],
    );
    p.command(
        "release1",
        Fairness::Weak,
        Guard::var_eq(pc1, 2),
        vec![set(pc1, 0)],
    );
    p.command(
        "release2",
        Fairness::Weak,
        Guard::var_eq(pc2, 2),
        vec![set(pc2, 0)],
    );
    p.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

/// The three-process token ring: one position variable, three pass
/// commands (weakly fair when `fair_pass`) and a hold. The holder is
/// observed through `c1`/`c2` for processes 0/1; process 2 is
/// unobserved. With fair passes every observed process holds the token
/// infinitely often (`□◇` recurrence); without, the token can stall.
pub fn token_ring_abs(fair_pass: bool) -> Program {
    let fairness = if fair_pass {
        Fairness::Weak
    } else {
        Fairness::None
    };
    let mut p = Program::new();
    let pos = p.var("pos", 3);
    p.set_pc(pos);
    p.init(&[0]);
    p.observe_prop(Guard::var_eq(pos, 0)); // c1
    p.observe_prop(Guard::var_eq(pos, 1)); // c2
    p.observe_prop(Guard::False); // t1 (unobserved)
    p.observe_prop(Guard::False); // t2 (unobserved)
    for i in 0..3i64 {
        p.command(
            format!("pass{i}"),
            fairness,
            Guard::var_eq(pos, i),
            vec![set(pos, (i + 1) % 3)],
        );
    }
    p.command("hold", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

/// Peterson's algorithm for two processes: `pc1, pc2 ∈ {0:N, 1:flag
/// set, 2:waiting, 3:C}`, `tb ∈ {0: turn=1, 1: turn=2}`. Requesting is
/// optional (no fairness), every other step is weakly fair. Under weak
/// fairness it satisfies both `□¬(C₁ ∧ C₂)` and `□(Tᵢ → ◇Cᵢ)`. Its
/// mutual exclusion needs the `tb`/`pc2` correlation, which the
/// value-set domain cannot express — the honest fallback case for the
/// checker.
pub fn peterson_abs() -> Program {
    let mut p = Program::new();
    let pc1 = p.var("pc1", 4);
    let pc2 = p.var("pc2", 4);
    let tb = p.var("tb", 2);
    p.set_pc(pc1);
    p.init(&[0, 0, 0]);
    let trying = |pc: usize| Guard::var_eq(pc, 1).or(Guard::var_eq(pc, 2));
    p.observe_prop(Guard::var_eq(pc1, 3)); // c1
    p.observe_prop(Guard::var_eq(pc2, 3)); // c2
    p.observe_prop(trying(pc1)); // t1
    p.observe_prop(trying(pc2)); // t2
    p.command(
        "req1",
        Fairness::None,
        Guard::var_eq(pc1, 0),
        vec![set(pc1, 1)],
    );
    p.command(
        "set_turn1",
        Fairness::Weak,
        Guard::var_eq(pc1, 1),
        vec![Branch::assign(vec![(pc1, Expr::c(2)), (tb, Expr::c(1))])],
    );
    p.command(
        "enter1",
        Fairness::Weak,
        Guard::var_eq(pc1, 2).and(Guard::var_eq(pc2, 0).or(Guard::var_eq(tb, 0))),
        vec![set(pc1, 3)],
    );
    p.command(
        "exit1",
        Fairness::Weak,
        Guard::var_eq(pc1, 3),
        vec![set(pc1, 0)],
    );
    p.command(
        "req2",
        Fairness::None,
        Guard::var_eq(pc2, 0),
        vec![set(pc2, 1)],
    );
    p.command(
        "set_turn2",
        Fairness::Weak,
        Guard::var_eq(pc2, 1),
        vec![Branch::assign(vec![(pc2, Expr::c(2)), (tb, Expr::c(0))])],
    );
    p.command(
        "enter2",
        Fairness::Weak,
        Guard::var_eq(pc2, 2).and(Guard::var_eq(pc1, 0).or(Guard::var_eq(tb, 1))),
        vec![set(pc2, 3)],
    );
    p.command(
        "exit2",
        Fairness::Weak,
        Guard::var_eq(pc2, 3),
        vec![set(pc2, 0)],
    );
    p.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

/// `MUX-SEM` generalized to `n ≥ 2` processes: `pc_i ∈ {0:N, 1:T, 2:C}`
/// for each process, the grant guard excluding every other process from
/// the critical section. The observation alphabet stays `[c1, c2, t1,
/// t2]` over the first two processes, so the same specifications apply
/// at every `n`. The explicit product has `3^n` valuations while the
/// abstract analysis keeps `3` locations — the states-vs-N crossover
/// family where the *cartesian* value sets still suffice (the grant
/// guard's refinement survives the pc partition).
pub fn mux_sem_n(n: usize) -> Program {
    assert!(n >= 2, "mux_sem_n needs at least two processes");
    let mut p = Program::new();
    let pcs: Vec<usize> = (0..n).map(|i| p.var(format!("pc{i}"), 3)).collect();
    p.set_pc(pcs[0]);
    p.init(&vec![0; n]);
    p.observe_prop(Guard::var_eq(pcs[0], 2)); // c1
    p.observe_prop(Guard::var_eq(pcs[1], 2)); // c2
    p.observe_prop(Guard::var_eq(pcs[0], 1)); // t1
    p.observe_prop(Guard::var_eq(pcs[1], 1)); // t2
    for i in 0..n {
        p.command(
            format!("req{i}"),
            Fairness::None,
            Guard::var_eq(pcs[i], 0),
            vec![set(pcs[i], 1)],
        );
        let mut grant = Guard::var_eq(pcs[i], 1);
        for (j, &pcj) in pcs.iter().enumerate() {
            if j != i {
                grant = grant.and(Guard::var_ne(pcj, 2));
            }
        }
        p.command(
            format!("grant{i}"),
            Fairness::Strong,
            grant,
            vec![set(pcs[i], 2)],
        );
        p.command(
            format!("release{i}"),
            Fairness::Weak,
            Guard::var_eq(pcs[i], 2),
            vec![set(pcs[i], 0)],
        );
    }
    p.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

/// An `n`-process token ring over **distributed** token bits: `tok_i ∈
/// {0, 1}`, initially only `tok_0` set, `pass_i` moving the token one
/// seat around the ring. Unlike [`token_ring_abs`] (one position
/// variable), the single-token invariant here is a *correlation* between
/// variables — `tok_i = 1` excludes `tok_j = 1` — which the value-set
/// domain provably loses and the relational domain keeps, making this
/// the family whose mutual exclusion discharges statically only
/// relationally. Observations: `c1 = tok_0`, `c2 = tok_1`.
pub fn token_ring_n(n: usize) -> Program {
    assert!(n >= 2, "token_ring_n needs at least two seats");
    let mut p = Program::new();
    let toks: Vec<usize> = (0..n).map(|i| p.var(format!("tok{i}"), 2)).collect();
    p.set_pc(toks[0]);
    let mut init = vec![0; n];
    init[0] = 1;
    p.init(&init);
    p.observe_prop(Guard::var_eq(toks[0], 1)); // c1
    p.observe_prop(Guard::var_eq(toks[1], 1)); // c2
    p.observe_prop(Guard::False); // t1 (unobserved)
    p.observe_prop(Guard::False); // t2 (unobserved)
    for i in 0..n {
        let j = (i + 1) % n;
        p.command(
            format!("pass{i}"),
            Fairness::Weak,
            Guard::var_eq(toks[i], 1),
            vec![Branch::assign(vec![
                (toks[i], Expr::c(0)),
                (toks[j], Expr::c(1)),
            ])],
        );
    }
    p.command("hold", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

/// `n` dining philosophers with explicit fork bits: `p_i ∈ {0:thinking,
/// 1:holds left fork, 2:eating}` and `f_i ∈ {0:free, 1:taken}`,
/// philosopher `i` using forks `i` (left) and `(i+1) mod n` (right).
/// The safety invariants — `p_i ≥ 1 ⇒ f_i = 1` and `p_i = 2 ⇒
/// f_{i+1} = 1`, hence neighbours never eat together — are again pure
/// correlations, relational-only. Observations: `c1/c2` = philosophers
/// 0/1 eating, `t1/t2` = holding their left fork.
pub fn dining_philosophers(n: usize) -> Program {
    assert!(n >= 2, "dining_philosophers needs at least two seats");
    let mut p = Program::new();
    let ps: Vec<usize> = (0..n).map(|i| p.var(format!("p{i}"), 3)).collect();
    let fs: Vec<usize> = (0..n).map(|i| p.var(format!("f{i}"), 2)).collect();
    p.set_pc(ps[0]);
    p.init(&vec![0; 2 * n]);
    p.observe_prop(Guard::var_eq(ps[0], 2)); // c1
    p.observe_prop(Guard::var_eq(ps[1], 2)); // c2
    p.observe_prop(Guard::var_eq(ps[0], 1)); // t1
    p.observe_prop(Guard::var_eq(ps[1], 1)); // t2
    for i in 0..n {
        let left = fs[i];
        let right = fs[(i + 1) % n];
        p.command(
            format!("take_left{i}"),
            Fairness::Weak,
            Guard::var_eq(ps[i], 0).and(Guard::var_eq(left, 0)),
            vec![Branch::assign(vec![
                (ps[i], Expr::c(1)),
                (left, Expr::c(1)),
            ])],
        );
        p.command(
            format!("take_right{i}"),
            Fairness::Weak,
            Guard::var_eq(ps[i], 1).and(Guard::var_eq(right, 0)),
            vec![Branch::assign(vec![
                (ps[i], Expr::c(2)),
                (right, Expr::c(1)),
            ])],
        );
        p.command(
            format!("put{i}"),
            Fairness::Weak,
            Guard::var_eq(ps[i], 2),
            vec![Branch::assign(vec![
                (ps[i], Expr::c(0)),
                (left, Expr::c(0)),
                (right, Expr::c(0)),
            ])],
        );
    }
    p.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

fn random_atom(rng: &mut StdRng, domains: &[usize]) -> Guard {
    let x = rng.gen_range(0..domains.len());
    let k = rng.gen_range(0..domains[x]) as i64;
    let op = match rng.gen_range(0..6) {
        0 => super::ir::Cmp::Eq,
        1 => super::ir::Cmp::Ne,
        2 => super::ir::Cmp::Lt,
        3 => super::ir::Cmp::Le,
        4 => super::ir::Cmp::Gt,
        _ => super::ir::Cmp::Ge,
    };
    Guard::Cmp(op, Expr::v(x), Expr::c(k))
}

fn random_expr(rng: &mut StdRng, domains: &[usize]) -> Expr {
    let x = rng.gen_range(0..domains.len());
    match rng.gen_range(0..4) {
        0 => Expr::c(rng.gen_range(0..4) as i64),
        1 => Expr::v(x),
        2 => Expr::v(x).add(Expr::c(rng.gen_range(1..3) as i64)),
        _ => {
            let y = rng.gen_range(0..domains.len());
            Expr::v(x).add(Expr::v(y))
        }
    }
}

/// A seeded random program over the propositions `[p0, p1]`: 2–3
/// variables with domains of 2–4 values, 3–5 guarded commands (plus an
/// always-enabled idle so the built system never deadlocks), random
/// fairness, and assignments wrapped in `Mod` so every result stays
/// in-domain. Half the programs are flow-sensitive (`pc` = variable 0).
pub fn random_program(rng: &mut StdRng) -> Program {
    let mut p = Program::new();
    let nvars = rng.gen_range(2..=3);
    for i in 0..nvars {
        p.var(format!("v{i}"), rng.gen_range(2..=4));
    }
    let domains = p.domains.clone();
    if rng.gen_bool(0.5) {
        p.set_pc(0);
    }
    let init: Vec<usize> = domains.iter().map(|&d| rng.gen_range(0..d)).collect();
    p.init(&init);
    p.observe_prop(random_atom(rng, &domains)); // p0
    p.observe_prop(random_atom(rng, &domains)); // p1
    let ncmds = rng.gen_range(3..=5);
    for c in 0..ncmds {
        let mut guard = random_atom(rng, &domains);
        if rng.gen_bool(0.4) {
            let other = random_atom(rng, &domains);
            guard = if rng.gen_bool(0.5) {
                guard.and(other)
            } else {
                guard.or(other)
            };
        }
        let nbranches = rng.gen_range(1..=2);
        let mut branches = Vec::new();
        for _ in 0..nbranches {
            let nassigns = rng.gen_range(1..=2.min(nvars));
            let mut assigns = Vec::new();
            let mut used = vec![false; nvars];
            for _ in 0..nassigns {
                let x = rng.gen_range(0..nvars);
                if used[x] {
                    continue;
                }
                used[x] = true;
                let e = random_expr(rng, &domains).modulo(domains[x] as u64);
                assigns.push((x, e));
            }
            branches.push(Branch::assign(assigns));
        }
        let fairness = match rng.gen_range(0..4) {
            0 => Fairness::None,
            1 => Fairness::Strong,
            _ => Fairness::Weak,
        };
        p.command(format!("c{c}"), fairness, guard, branches);
    }
    p.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
    p
}

/// The observation alphabet of every catalogue program: valuations of
/// `[c1, c2, t1, t2]` (critical / trying, per process).
pub fn observation_alphabet() -> Alphabet {
    Alphabet::of_propositions(["c1", "c2", "t1", "t2"]).expect("valid proposition set")
}

/// The named example catalogue shared by `spec-lint program` and the
/// classification daemon's `ingest {"kind": "program"}` endpoint: every
/// built-in program with its stable lookup name, all over
/// [`observation_alphabet`].
pub fn catalogue() -> Vec<(&'static str, Program)> {
    vec![
        ("peterson", peterson_abs()),
        ("mux-sem", mux_sem_abs(Fairness::Strong)),
        ("mux-sem-weak", mux_sem_abs(Fairness::Weak)),
        ("token-ring", token_ring_abs(true)),
        ("token-ring-stalled", token_ring_abs(false)),
        ("mux-sem-n4", mux_sem_n(4)),
        ("token-ring-n4", token_ring_n(4)),
        ("dining-phil-3", dining_philosophers(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{verify, Verdict};
    use hierarchy_automata::random::rng::SeedableRng;
    use hierarchy_logic::to_automaton::compile_over;
    use hierarchy_logic::Formula;

    fn check(prog: &Program, src: &str) -> Verdict {
        let sigma = observation_alphabet();
        let prop = compile_over(&sigma, &Formula::parse(&sigma, src).unwrap()).unwrap();
        let ts = prog.to_builder(&sigma).build().unwrap();
        verify(&ts, &prop).expect("check")
    }

    /// The paper's verdicts on its three programs, built from the IR.
    #[test]
    fn paper_programs_have_the_papers_verdicts() {
        let peterson = peterson_abs();
        let strong = mux_sem_abs(Fairness::Strong);
        let weak = mux_sem_abs(Fairness::Weak);
        let ring = token_ring_abs(true);
        let stalled = token_ring_abs(false);
        for (name, prog, src, holds) in [
            ("peterson", &peterson, "G !(c1 & c2)", true),
            ("peterson", &peterson, "G (t1 -> F c1)", true),
            ("peterson", &peterson, "G (t2 -> F c2)", true),
            ("peterson", &peterson, "G (c1 -> O t1)", true),
            ("peterson", &peterson, "F c1", false),
            ("peterson", &peterson, "G F c1", false),
            ("mux-sem", &strong, "G !(c1 & c2)", true),
            ("mux-sem", &strong, "G (t1 -> F c1)", true),
            ("mux-sem", &strong, "G (t2 -> F c2)", true),
            ("mux-sem", &strong, "G F t1 -> G F c1", true),
            ("mux-sem", &strong, "G F c1", false),
            ("mux-sem-weak", &weak, "G !(c1 & c2)", true),
            ("mux-sem-weak", &weak, "G (t1 -> F c1)", false),
            ("mux-sem-weak", &weak, "G (t2 -> F c2)", false),
            ("mux-sem-weak", &weak, "G F c1", false),
            ("token-ring", &ring, "G !(c1 & c2)", true),
            ("token-ring", &ring, "G (t1 -> F c1)", true),
            ("token-ring", &ring, "G F c1", true),
            ("token-ring", &ring, "G F c2", true),
            ("token-ring-stalled", &stalled, "G F c2", false),
        ] {
            assert_eq!(check(prog, src).holds(), holds, "{name}: {src}");
        }
    }

    /// Under weak grants process 2 starves: in every state of the
    /// counterexample's loop it is trying and not critical.
    #[test]
    fn weak_grants_starve_process_two() {
        let sigma = observation_alphabet();
        let prog = mux_sem_abs(Fairness::Weak);
        let pc2 = prog.var_names.iter().position(|n| n == "pc2").unwrap();
        let (ts, vals) = prog.to_builder(&sigma).build_with_valuations().unwrap();
        let prop = compile_over(&sigma, &Formula::parse(&sigma, "G (t2 -> F c2)").unwrap());
        let Verdict::Violated(cex) = verify(&ts, &prop.unwrap()).expect("check") else {
            panic!("weak fairness should admit starvation");
        };
        assert!(cex.cycle.iter().all(|&s| vals[s][pc2] == 1));
    }

    #[test]
    fn n_families_validate_and_satisfy_mutex() {
        let sigma = observation_alphabet();
        let mutex = compile_over(&sigma, &Formula::parse(&sigma, "G !(c1 & c2)").unwrap()).unwrap();
        for n in 2..=4 {
            for (name, prog) in [
                ("mux_sem_n", mux_sem_n(n)),
                ("token_ring_n", token_ring_n(n)),
                ("dining_philosophers", dining_philosophers(n)),
            ] {
                prog.validate()
                    .unwrap_or_else(|e| panic!("{name}({n}): {e}"));
                let ts = prog.to_builder(&sigma).build().expect(name);
                assert!(
                    verify(&ts, &mutex).expect("check").holds(),
                    "{name}({n}): mutex must hold explicitly"
                );
            }
        }
    }

    #[test]
    fn random_programs_validate_and_build() {
        let sigma = Alphabet::of_propositions(["p0", "p1"]).unwrap();
        for seed in 0..25 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = random_program(&mut rng);
            prog.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let ts = prog
                .to_builder(&sigma)
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(ts.num_states() >= 1);
        }
    }
}
