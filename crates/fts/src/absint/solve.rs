//! The chaotic-iteration worklist solver.
//!
//! [`analyze`] runs one abstract domain over a [`Program`] and returns an
//! [`Invariant`]: for each *location* (a value of the program's `pc`
//! variable, or a single global location) a per-variable
//! over-approximation of the values that variable can take there, as
//! 64-bit masks, so downstream consumers (the certificate checker, the
//! lints, the model checker) need no knowledge of which domain produced
//! it.
//!
//! The solver is the textbook one: seed the locations of the initial
//! valuations, then repeatedly pop a location, push every command's
//! abstract post through [`assume`] + assignment transfer, and join into
//! the target locations until nothing changes. Joins are bitwise-or on
//! masks of at most 64 values, so the iteration terminates without
//! widening.

use super::domain::{assume, eval_expr_abs, guard_status, DomainKind};
use super::ir::{Branch, Guard, Program};
use std::collections::VecDeque;

/// Counters describing one solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Abstract post computations (one per command branch per visit).
    pub posts: usize,
    /// Joins against an existing location value.
    pub joins: usize,
    /// Worklist pops.
    pub iterations: usize,
}

/// The abstract values at one location, concretized to per-variable
/// masks (bit `v` of `values[x]` ⇔ variable `x` may be `v` here). An
/// all-zero row means the location is abstractly unreachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationInvariant {
    /// One mask per program variable, in declaration order.
    pub values: Vec<u64>,
}

/// A per-location invariant certificate produced by [`analyze`].
///
/// The invariant denotes, at each location `ℓ`, the cartesian set
/// `{vals | ∀x. vals[x] ∈ values[x]}`; soundness means every reachable
/// concrete state is in the set of its location. Pass the certificate to
/// [`certify`](super::certify::certify) to re-verify inductiveness
/// independently of this solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// The domain that produced the certificate.
    pub domain: DomainKind,
    /// The program's `pc` variable, if flow-sensitive.
    pub pc: Option<usize>,
    /// The declared variable domain sizes (copied from the program).
    pub var_domains: Vec<usize>,
    /// One entry per location (`pc` value, or a single global entry).
    pub locations: Vec<LocationInvariant>,
    /// Per-location pair relations — `Some` only for
    /// [`DomainKind::Relational`] certificates (see
    /// [`relation`](super::relation)); value-set certificates carry
    /// `None` and denote plain per-variable masks.
    pub relations: Option<Vec<super::relation::LocationRelations>>,
    /// Solver counters.
    pub stats: SolveStats,
}

impl Invariant {
    /// The analysis location of a concrete valuation.
    pub fn location_of(&self, vals: &[usize]) -> usize {
        self.pc.map_or(0, |p| vals[p])
    }

    /// Is the location abstractly reachable?
    pub fn location_reachable(&self, l: usize) -> bool {
        self.locations[l].values.iter().any(|&m| m != 0)
    }

    /// The number of abstractly reachable locations.
    pub fn num_reachable_locations(&self) -> usize {
        (0..self.locations.len())
            .filter(|&l| self.location_reachable(l))
            .count()
    }

    /// Does the invariant contain this concrete valuation? For a
    /// relational certificate the valuation must additionally project
    /// into every pair's joint value set.
    pub fn contains(&self, vals: &[usize]) -> bool {
        let l = self.location_of(vals);
        if l >= self.locations.len()
            || !vals
                .iter()
                .enumerate()
                .all(|(x, &v)| v < 64 && self.locations[l].values[x] >> v & 1 == 1)
        {
            return false;
        }
        if let Some(rels) = &self.relations {
            let rel = &rels[l];
            if !rel.pairs.is_empty() {
                let n = vals.len();
                let mut i = 0;
                for x in 0..n {
                    for y in x + 1..n {
                        if rel.pairs[i][vals[x]] >> vals[y] & 1 == 0 {
                            return false;
                        }
                        i += 1;
                    }
                }
            }
        }
        true
    }

    /// Does the invariant carry pair relations (a relational
    /// certificate over a multi-variable program)?
    pub fn has_relations(&self) -> bool {
        self.relations
            .as_ref()
            .is_some_and(|r| r.iter().any(|lr| !lr.pairs.is_empty()))
    }

    /// The union over reachable locations of a variable's value mask —
    /// every value the variable may take anywhere.
    pub fn union_mask(&self, var: usize) -> u64 {
        self.locations.iter().fold(0, |m, loc| m | loc.values[var])
    }

    /// Three-valued truth of a guard over the invariant at location `l`
    /// (evaluated in the value-set domain on the masks). An unreachable
    /// location yields `Some(false)`.
    pub fn guard_status(&self, l: usize, g: &Guard) -> Option<bool> {
        if !self.location_reachable(l) {
            return Some(false);
        }
        guard_status(g, &self.locations[l].values, &self.var_domains)
    }

    /// May the guard hold somewhere in the invariant at location `l`?
    pub fn guard_feasible(&self, l: usize, g: &Guard) -> bool {
        self.guard_status(l, g) != Some(false)
    }

    /// May the guard hold somewhere in the *relational* invariant at
    /// location `l`? Stronger than [`guard_feasible`](Self::guard_feasible):
    /// a concrete state satisfying the guard projects a recorded joint
    /// value into **every** pair, and that joint's conditioned cartesian
    /// environment admits the guard — so if some pair has no admitting
    /// joint, no such state exists. Falls back to the mask-based test for
    /// cartesian certificates.
    pub fn guard_feasible_rel(&self, l: usize, g: &Guard) -> bool {
        if !self.location_reachable(l) {
            return false;
        }
        let Some(rels) = &self.relations else {
            return self.guard_feasible(l, g);
        };
        let rel = &rels[l];
        if rel.pairs.is_empty() {
            return self.guard_feasible(l, g);
        }
        let masks = &self.locations[l].values;
        let domains = &self.var_domains;
        let nvars = domains.len();
        let mut i = 0;
        for x in 0..nvars {
            for y in x + 1..nvars {
                let mut admitted = false;
                'joints: for vx in 0..domains[x] {
                    let mut row = rel.pairs[i][vx];
                    while row != 0 {
                        let vy = row.trailing_zeros() as usize;
                        row &= row - 1;
                        if let Some(env) =
                            super::relation::conditioned_env(masks, rel, domains, x, vx, y, vy)
                        {
                            if assume(g, &env, domains).is_some() {
                                admitted = true;
                                break 'joints;
                            }
                        }
                    }
                }
                if !admitted {
                    return false;
                }
                i += 1;
            }
        }
        true
    }
}

/// The abstract post of one branch: evaluate all right-hand sides in the
/// pre-environment, then assign (simultaneously), cutting each result to
/// its variable's domain. `None` when some assignment is abstractly
/// guaranteed out-of-domain (the branch is never taken).
pub(crate) fn post_branch(env: &[u64], branch: &Branch, domains: &[usize]) -> Option<Vec<u64>> {
    let results: Vec<(usize, u64)> = branch
        .assigns
        .iter()
        .map(|(x, e)| (*x, eval_expr_abs(e, env).to_mask(domains[*x])))
        .collect();
    let mut out = env.to_vec();
    for (x, v) in results {
        if v == 0 {
            return None;
        }
        out[x] = v;
    }
    Some(out)
}

fn merge(
    l: usize,
    env: Vec<u64>,
    state: &mut [Option<Vec<u64>>],
    stats: &mut SolveStats,
    worklist: &mut VecDeque<usize>,
    on_list: &mut [bool],
) {
    let changed = match &mut state[l] {
        slot @ None => {
            *slot = Some(env);
            true
        }
        Some(old) => {
            stats.joins += 1;
            let mut changed = false;
            for (o, v) in old.iter_mut().zip(env) {
                if *o | v != *o {
                    *o |= v;
                    changed = true;
                }
            }
            changed
        }
    };
    if changed && !on_list[l] {
        on_list[l] = true;
        worklist.push_back(l);
    }
}

pub(crate) fn run(prog: &Program) -> Invariant {
    let domains = &prog.domains;
    let nlocs = prog.num_locations();
    let mut state: Vec<Option<Vec<u64>>> = vec![None; nlocs];
    let mut on_list = vec![false; nlocs];
    let mut worklist = VecDeque::new();
    let mut stats = SolveStats::default();
    for init in &prog.inits {
        let l = prog.location_of(init);
        let env: Vec<u64> = init.iter().map(|&v| 1u64 << v).collect();
        merge(l, env, &mut state, &mut stats, &mut worklist, &mut on_list);
    }
    while let Some(l) = worklist.pop_front() {
        on_list[l] = false;
        stats.iterations += 1;
        let env = state[l].clone().expect("worklist entries are reachable");
        for cmd in &prog.commands {
            let Some(env_g) = assume(&cmd.guard, &env, domains) else {
                continue;
            };
            for br in &cmd.branches {
                stats.posts += 1;
                let Some(env_b) = post_branch(&env_g, br, domains) else {
                    continue;
                };
                match prog.pc {
                    None => merge(
                        0,
                        env_b,
                        &mut state,
                        &mut stats,
                        &mut worklist,
                        &mut on_list,
                    ),
                    Some(p) => {
                        for l2 in 0..domains[p] {
                            if env_b[p] >> l2 & 1 == 0 {
                                continue;
                            }
                            let mut env_t = env_b.clone();
                            env_t[p] = 1u64 << l2;
                            merge(
                                l2,
                                env_t,
                                &mut state,
                                &mut stats,
                                &mut worklist,
                                &mut on_list,
                            );
                        }
                    }
                }
            }
        }
    }
    let locations = state
        .into_iter()
        .map(|slot| LocationInvariant {
            values: slot.unwrap_or_else(|| vec![0; domains.len()]),
        })
        .collect();
    Invariant {
        domain: DomainKind::ValueSets,
        pc: prog.pc,
        var_domains: domains.clone(),
        locations,
        relations: None,
        stats,
    }
}

/// Runs the chosen abstract domain over the program and returns the
/// per-location invariant. The program must pass
/// [`Program::validate`]; the solver assumes well-formedness.
pub fn analyze(prog: &Program, kind: DomainKind) -> Invariant {
    debug_assert!(prog.validate().is_ok(), "analyze() needs a valid program");
    match kind {
        DomainKind::ValueSets => run(prog),
        DomainKind::Relational => super::relation::run_relational(prog),
    }
}

#[cfg(test)]
mod tests {
    use super::super::examples;
    use super::super::ir::{Expr, Guard};
    use super::*;
    use crate::system::Fairness;

    #[test]
    fn value_sets_prove_mux_sem_mutual_exclusion() {
        let prog = examples::mux_sem_abs(Fairness::Strong);
        let inv = analyze(&prog, DomainKind::ValueSets);
        // At location pc1 = C (2), the invariant knows pc2 ≠ C: the grant
        // guard's refinement survives the pc partition.
        assert!(inv.location_reachable(2));
        assert_eq!(inv.locations[2].values[1] & 0b100, 0, "{inv:?}");
        // So "both critical" is infeasible everywhere.
        let both = Guard::var_eq(0, 2).and(Guard::var_eq(1, 2));
        for l in 0..inv.locations.len() {
            assert_eq!(inv.guard_status(l, &both), Some(false), "location {l}");
        }
    }

    #[test]
    fn flow_insensitive_analysis_cannot_prove_mutex() {
        let mut prog = examples::mux_sem_abs(Fairness::Strong);
        prog.pc = None;
        let inv = analyze(&prog, DomainKind::ValueSets);
        let both = Guard::var_eq(0, 2).and(Guard::var_eq(1, 2));
        // Without the pc partition the cartesian abstraction loses the
        // correlation — an honest imprecision, not a bug.
        assert_eq!(inv.guard_status(0, &both), None);
    }

    #[test]
    fn counter_grows_to_its_whole_domain() {
        // A counter walking 0..=9: its value set gains one value per join
        // and the iteration stops at the full domain.
        let mut prog = super::super::ir::Program::new();
        let x = prog.var("x", 10);
        prog.init(&[0]);
        prog.observe_prop(Guard::var_eq(x, 9));
        prog.command(
            "inc",
            Fairness::Weak,
            Guard::lt(Expr::v(x), Expr::c(9)),
            vec![Branch {
                assigns: vec![(x, Expr::v(x).add(Expr::c(1)))],
            }],
        );
        prog.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
        let inv = analyze(&prog, DomainKind::ValueSets);
        assert_eq!(inv.locations[0].values[x], (1 << 10) - 1);
    }

    #[test]
    fn unreachable_location_has_empty_invariant() {
        let mut prog = super::super::ir::Program::new();
        let x = prog.var("x", 3);
        prog.set_pc(x);
        prog.init(&[0]);
        prog.observe_prop(Guard::var_eq(x, 1));
        // x toggles between 0 and 1; location 2 never seen.
        prog.command(
            "toggle",
            Fairness::Weak,
            Guard::True,
            vec![Branch {
                assigns: vec![(x, Expr::c(1).sub(Expr::v(x)))],
            }],
        );
        let inv = analyze(&prog, DomainKind::ValueSets);
        assert!(inv.location_reachable(0));
        assert!(inv.location_reachable(1));
        assert!(!inv.location_reachable(2));
        assert_eq!(inv.num_reachable_locations(), 2);
        assert!(inv.contains(&[1]));
        assert!(!inv.contains(&[2]));
    }
}
