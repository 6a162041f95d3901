//! Fair-transition-system lints (`FTS001`–`FTS008`).
//!
//! `lint_system` inspects a finished [`TransitionSystem`]: a transition
//! with no edges at all (`FTS002`), a transition none of whose source
//! states is reachable (`FTS001` — the transition can never be taken), and
//! the aggravated form of the latter where the dead transition also
//! carries a fairness requirement (`FTS003` — the scheduler is asked to be
//! fair to something unschedulable, which silently weakens the fairness
//! assumption to a no-op).
//!
//! `lint_abstract_program` is the *semantic* entry point for the
//! declarative IR: it runs the abstract-interpretation engine of
//! [`hierarchy_fts::absint`] and proves its findings from the certified
//! invariant — no state enumeration. It reports `FTS005` (a guard false
//! under every in-domain valuation), the invariant-backed forms of
//! `FTS001`/`FTS003` (a satisfiable guard that is still infeasible at
//! every abstractly reachable location) and `FTS004` (a variable whose
//! reachable value set collapses), `FTS006` (an unreachable program
//! location), and `FTS007` when the invariant itself fails independent
//! certification — a should-never-happen internal error that, per the
//! soundness contract, suppresses every invariant-derived finding.

use crate::diagnostic::{Diagnostic, Location};
use crate::registry::{self, RuleInfo};
use hierarchy_fts::absint::domain::full_mask;
use hierarchy_fts::absint::{self, DomainKind, Invariant, IrError, Program};
use hierarchy_fts::system::{Fairness, TransitionSystem};

fn diag(rule: &RuleInfo, location: Location, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(rule.code, rule.severity, location, message)
}

/// States reachable from the initial states by any transition edge.
fn reachable_states(ts: &TransitionSystem) -> Vec<bool> {
    let mut seen = vec![false; ts.num_states()];
    let mut stack: Vec<usize> = ts.initial_states().to_vec();
    for &s in ts.initial_states() {
        seen[s] = true;
    }
    while let Some(s) = stack.pop() {
        for t in ts.successors(s) {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// Lints a transition system.
pub fn lint_system(ts: &TransitionSystem) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let reachable = reachable_states(ts);
    for t in ts.transitions() {
        if t.edges.is_empty() {
            out.push(
                diag(
                    &registry::FTS002,
                    Location::Transition(t.name.clone()),
                    "the transition has no edges",
                )
                .with_suggestion("remove it or give it edges"),
            );
            continue; // FTS001/FTS003 would just restate this.
        }
        let enabled_somewhere = t.edges.iter().any(|&(from, _)| reachable[from]);
        if enabled_somewhere {
            continue;
        }
        if t.fairness == Fairness::None {
            out.push(
                diag(
                    &registry::FTS001,
                    Location::Transition(t.name.clone()),
                    "the transition is never enabled in any reachable state",
                )
                .with_suggestion("its edges start only in unreachable states"),
            );
        } else {
            let kind = match t.fairness {
                Fairness::Weak => "weak (justice)",
                Fairness::Strong => "strong (compassion)",
                Fairness::None => unreachable!(),
            };
            out.push(
                diag(
                    &registry::FTS003,
                    Location::Transition(t.name.clone()),
                    format!(
                        "a {kind} fairness requirement is attached to a transition that is \
                         never enabled"
                    ),
                )
                .with_suggestion("the requirement is vacuously met and constrains no computation"),
            );
        }
    }
    out
}

fn fairness_kind(f: Fairness) -> &'static str {
    match f {
        Fairness::Weak => "weak (justice)",
        Fairness::Strong => "strong (compassion)",
        Fairness::None => "no",
    }
}

/// Semantic lints for a declarative program: validates it, runs the
/// pair-relation abstract interpretation (the most precise domain, so
/// the relational rule FTS008 gets its evidence), and delegates to
/// [`lint_abstract_program_ctx`]. Nothing here enumerates states.
///
/// # Errors
///
/// The program's own [`IrError`] when it fails
/// [`Program::validate`] (an ill-formed program is not a lint finding).
pub fn lint_abstract_program(program: &Program) -> Result<Vec<Diagnostic>, IrError> {
    program.validate()?;
    let inv = absint::analyze(program, DomainKind::Relational);
    Ok(lint_abstract_program_ctx(program, &inv))
}

/// Semantic lints against an already-computed invariant (use this when
/// an [`Invariant`] is at hand from checking or benchmarking; the
/// program must have passed [`Program::validate`]).
///
/// The invariant is re-certified first. On certification failure the
/// only findings are `FTS007` plus the envelope-level `FTS005` checks,
/// which do not depend on the invariant — trusting a broken certificate
/// could turn an analysis bug into false "dead code" reports.
pub fn lint_abstract_program_ctx(program: &Program, inv: &Invariant) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cert_ok =
        match absint::certify(program, inv) {
            Ok(()) => true,
            Err(e) => {
                out.push(
                diag(
                    &registry::FTS007,
                    Location::Root,
                    format!("the {} invariant failed certification: {e}", inv.domain.name()),
                )
                .with_suggestion(
                    "this is an internal analysis error; invariant-derived lints were suppressed",
                ),
            );
                false
            }
        };

    // FTS005 needs no invariant: the guard is refuted over the full
    // domain envelope, so no valuation whatsoever satisfies it.
    let top: Vec<u64> = program.domains.iter().map(|&d| full_mask(d)).collect();
    let mut unsat = vec![false; program.commands.len()];
    for (i, cmd) in program.commands.iter().enumerate() {
        if absint::assume(&cmd.guard, &top, &program.domains).is_none() {
            unsat[i] = true;
            out.push(
                diag(
                    &registry::FTS005,
                    Location::Transition(cmd.name.clone()),
                    "the guard is false under every in-domain valuation",
                )
                .with_suggestion("the command is dead code regardless of reachability"),
            );
        }
    }
    if !cert_ok {
        return out;
    }

    // Invariant-backed FTS001/FTS003: the guard is satisfiable in
    // principle (no FTS005) but infeasible at every abstractly reachable
    // location — statically proven dead, where the syntactic rules would
    // need the enumerated system.
    let nlocs = inv.locations.len();
    let mut mask_feasible = vec![false; program.commands.len()];
    for (i, cmd) in program.commands.iter().enumerate() {
        if unsat[i] {
            continue;
        }
        mask_feasible[i] = (0..nlocs).any(|l| {
            inv.location_reachable(l)
                && absint::assume(&cmd.guard, &inv.locations[l].values, &program.domains).is_some()
        });
        if mask_feasible[i] {
            continue;
        }
        if cmd.fairness == Fairness::None {
            out.push(
                diag(
                    &registry::FTS001,
                    Location::Transition(cmd.name.clone()),
                    "the guard is infeasible at every abstractly reachable location",
                )
                .with_suggestion("proven dead by the certified invariant, without enumeration"),
            );
        } else {
            out.push(
                diag(
                    &registry::FTS003,
                    Location::Transition(cmd.name.clone()),
                    format!(
                        "a {} fairness requirement is attached to a command whose guard is \
                         infeasible at every abstractly reachable location",
                        fairness_kind(cmd.fairness)
                    ),
                )
                .with_suggestion("the requirement is vacuously met and constrains no computation"),
            );
        }
    }

    // FTS008: the guard survives the per-variable masks (so FTS001/FTS003
    // stay silent) yet no pair of the certified relational invariant
    // admits it anywhere — the command is dead for a reason the
    // cartesian view provably cannot express (a lost correlation, e.g. a
    // broken turn/pc coupling or a desynchronized ring token).
    if inv.has_relations() {
        for (i, cmd) in program.commands.iter().enumerate() {
            if unsat[i] || !mask_feasible[i] {
                continue;
            }
            if (0..nlocs).any(|l| inv.guard_feasible_rel(l, &cmd.guard)) {
                continue;
            }
            out.push(
                diag(
                    &registry::FTS008,
                    Location::Transition(cmd.name.clone()),
                    "the guard is feasible under the per-variable masks but infeasible \
                     under the certified pair relations at every reachable location",
                )
                .with_suggestion(
                    "proven dead by a variable correlation the per-variable masks cannot see",
                ),
            );
        }
    }

    // FTS006: a declared pc value no abstract execution reaches.
    if let Some(p) = inv.pc {
        let pc_name = &program.var_names[p];
        for l in 0..nlocs {
            if !inv.location_reachable(l) {
                out.push(
                    diag(
                        &registry::FTS006,
                        Location::Variable(pc_name.clone()),
                        format!("location {pc_name} = {l} is abstractly unreachable"),
                    )
                    .with_suggestion("shrink the pc domain or fix the commands meant to reach it"),
                );
            }
        }
    }

    // Invariant-backed FTS004: the union over reachable locations of a
    // variable's value set collapses to a single value (constant) or a
    // strict subset of its domain (dead values). The pc is skipped —
    // FTS006 reports its unreachable values per location.
    for (x, (name, &dom)) in program.var_names.iter().zip(&program.domains).enumerate() {
        if dom <= 1 || Some(x) == inv.pc {
            continue;
        }
        let mask = inv.union_mask(x);
        let full = full_mask(dom);
        if mask.count_ones() == 1 {
            out.push(
                diag(
                    &registry::FTS004,
                    Location::Variable(name.clone()),
                    format!(
                        "declared over a domain of {dom} values but abstractly equal to {} in \
                         every reachable state",
                        mask.trailing_zeros()
                    ),
                )
                .with_suggestion("shrink the domain or fix the commands that should update it"),
            );
        } else if mask != full && mask != 0 {
            let dead: Vec<usize> = (0..dom).filter(|&v| mask >> v & 1 == 0).collect();
            out.push(
                diag(
                    &registry::FTS004,
                    Location::Variable(name.clone()),
                    format!("never takes the declared value(s) {dead:?} in any reachable state"),
                )
                .with_suggestion("shrink the domain to the values actually used"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    /// A 3-state system: 0 ↔ 1 reachable, state 2 isolated.
    fn toy(extra: impl FnOnce(&mut TransitionSystem)) -> TransitionSystem {
        let sigma = Alphabet::new(["x", "y"]).unwrap();
        let x = sigma.symbol("x").unwrap();
        let y = sigma.symbol("y").unwrap();
        let mut ts = TransitionSystem::new(&sigma);
        for obs in [x, y, y] {
            ts.add_state(obs);
        }
        ts.set_initial(0);
        ts.add_transition("step", vec![(0, 1), (1, 0)], Fairness::Weak);
        extra(&mut ts);
        ts
    }

    #[test]
    fn healthy_system_is_clean() {
        let ts = toy(|_| {});
        assert!(lint_system(&ts).is_empty());
    }

    #[test]
    fn edgeless_transition_fires_fts002_only() {
        let ts = toy(|ts| {
            ts.add_transition("ghost", vec![], Fairness::Strong);
        });
        let diags = lint_system(&ts);
        assert_eq!(codes(&diags), vec!["FTS002"]);
        assert_eq!(diags[0].location, Location::Transition("ghost".to_string()));
    }

    #[test]
    fn dead_unfair_transition_fires_fts001() {
        let ts = toy(|ts| {
            ts.add_transition("stuck", vec![(2, 2)], Fairness::None);
        });
        assert_eq!(codes(&lint_system(&ts)), vec!["FTS001"]);
    }

    #[test]
    fn dead_fair_transition_fires_fts003() {
        for fairness in [Fairness::Weak, Fairness::Strong] {
            let ts = toy(|ts| {
                ts.add_transition("stuck", vec![(2, 0)], fairness);
            });
            let diags = lint_system(&ts);
            assert_eq!(codes(&diags), vec!["FTS003"], "{fairness:?}: {diags:?}");
        }
    }

    #[test]
    fn healthy_program_is_clean() {
        // A counter cycling through its whole domain.
        let mut p = Program::new();
        let c = p.var("count", 3);
        p.init(&[0]);
        p.observe_prop(Guard::var_eq(c, 2));
        let tick = Branch::assign(vec![(c, (Expr::v(c) + Expr::c(1)).modulo(3))]);
        p.command("tick", Fairness::Weak, Guard::True, vec![tick]);
        assert!(lint_abstract_program(&p).unwrap().is_empty());
        let sigma = Alphabet::of_propositions(["hi"]).unwrap();
        assert!(lint_system(&p.to_builder(&sigma).build().unwrap()).is_empty());
    }

    #[test]
    fn paper_programs_are_clean() {
        let sigma = absint::observation_alphabet();
        for (name, prog) in [
            ("peterson", absint::peterson_abs()),
            ("mux_sem", absint::mux_sem_abs(Fairness::Strong)),
            ("token_ring", absint::token_ring_abs(true)),
        ] {
            let diags = lint_system(&prog.to_builder(&sigma).build().unwrap());
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }

    use hierarchy_fts::absint::{analyze, Branch, Expr, Guard};

    #[test]
    fn abstract_paper_programs_are_clean() {
        for (name, prog) in [
            ("mux_sem", absint::mux_sem_abs(Fairness::Strong)),
            ("token_ring", absint::token_ring_abs(true)),
            ("peterson", absint::peterson_abs()),
        ] {
            let diags = lint_abstract_program(&prog).unwrap();
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }

    /// A two-variable program: `x` cycles through 0..3, `y` is frozen.
    fn toy_abs() -> Program {
        let mut p = Program::new();
        let x = p.var("x", 3);
        let _y = p.var("y", 2);
        p.set_pc(x);
        p.init(&[0, 0]);
        p.observe_prop(Guard::var_eq(x, 2));
        p.command(
            "tick",
            Fairness::Weak,
            Guard::True,
            vec![Branch::assign(vec![(
                x,
                Expr::v(x).add(Expr::c(1)).modulo(3),
            )])],
        );
        p
    }

    #[test]
    fn fts005_fires_on_unsatisfiable_guard() {
        let mut p = toy_abs();
        p.command(
            "never",
            Fairness::None,
            Guard::var_eq(0, 0).and(Guard::var_eq(0, 1)),
            vec![Branch::skip()],
        );
        let diags = lint_abstract_program(&p).unwrap();
        // FTS005, and only FTS005, for the contradictory guard (FTS001
        // would merely restate it); FTS004 still reports the frozen y.
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.location == Location::Transition("never".to_string()))
                .map(|d| d.code)
                .collect::<Vec<_>>(),
            vec!["FTS005"]
        );
    }

    #[test]
    fn semantic_dead_command_fires_fts001_or_fts003() {
        // `y` is frozen at 0, so a guard on y = 1 is satisfiable in
        // principle but infeasible at every reachable location — only
        // the invariant can see that.
        for (fairness, code) in [(Fairness::None, "FTS001"), (Fairness::Strong, "FTS003")] {
            let mut p = toy_abs();
            p.command("ghost", fairness, Guard::var_eq(1, 1), vec![Branch::skip()]);
            let diags = lint_abstract_program(&p).unwrap();
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == code
                        && d.location == Location::Transition("ghost".to_string())),
                "{fairness:?}: {diags:?}"
            );
        }
    }

    #[test]
    fn fts006_fires_on_unreachable_location() {
        // pc over {0,1,2} but the only command toggles 0 ↔ 1.
        let mut p = Program::new();
        let x = p.var("pc", 3);
        p.set_pc(x);
        p.init(&[0]);
        p.observe_prop(Guard::var_eq(x, 1));
        p.command(
            "toggle",
            Fairness::Weak,
            Guard::True,
            vec![Branch::assign(vec![(
                x,
                Expr::c(1).sub(Expr::v(x)).modulo(3),
            )])],
        );
        let diags = lint_abstract_program(&p).unwrap();
        assert!(
            diags
                .iter()
                .any(|d| d.code == "FTS006" && d.message.contains("pc = 2")),
            "{diags:?}"
        );
    }

    #[test]
    fn fts004_semantic_constant_and_dead_values() {
        // Frozen y: constant form.
        let diags = lint_abstract_program(&toy_abs()).unwrap();
        assert!(
            diags
                .iter()
                .any(|d| d.code == "FTS004" && d.location == Location::Variable("y".to_string())),
            "{diags:?}"
        );
        // z bounces between 0 and 2 inside a domain of 4: dead-values form.
        let mut p = Program::new();
        let z = p.var("z", 4);
        p.init(&[0]);
        p.observe_prop(Guard::var_eq(z, 2));
        p.command(
            "bounce",
            Fairness::Weak,
            Guard::True,
            vec![Branch::assign(vec![(
                z,
                Expr::c(2).sub(Expr::v(z)).modulo(4),
            )])],
        );
        let diags = lint_abstract_program(&p).unwrap();
        assert!(
            diags
                .iter()
                .any(|d| d.code == "FTS004" && d.message.contains("never takes")),
            "{diags:?}"
        );
    }

    #[test]
    fn fts007_suppresses_invariant_rules() {
        let p = toy_abs();
        let mut inv = analyze(&p, hierarchy_fts::absint::DomainKind::ValueSets);
        // Corrupt the certificate: claim location 1 is unreachable.
        for m in &mut inv.locations[1].values {
            *m = 0;
        }
        let diags = lint_abstract_program_ctx(&p, &inv);
        assert_eq!(diags[0].code, "FTS007");
        assert!(
            !diags
                .iter()
                .any(|d| matches!(d.code, "FTS001" | "FTS003" | "FTS004" | "FTS006")),
            "invariant-derived rules must be suppressed: {diags:?}"
        );
    }

    #[test]
    fn invalid_program_is_an_error_not_a_finding() {
        let p = Program::new();
        assert!(lint_abstract_program(&p).is_err());
    }
}
