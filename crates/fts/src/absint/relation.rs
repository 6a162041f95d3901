//! The pair-relation abstract domain — the relational layer on top of
//! the cartesian masks.
//!
//! A cartesian invariant keeps one value set per variable and therefore
//! cannot express a *correlation*: "`pc2 = 3` implies `tb = 1`" is
//! invisible when `pc2` and `tb` are abstracted independently, which is
//! exactly why the value-set domain fails on Peterson's algorithm. This
//! domain keeps, per location, a joint value set for **every unordered
//! pair of variables** — the 2-decomposition of the reachable relation:
//!
//! * `pairs[pair_index(x, y)][vx]` is a 64-bit mask over `dom(y)`; bit
//!   `vy` means the joint valuation `(x = vx, y = vy)` may occur here;
//! * the per-variable masks of the enclosing
//!   [`LocationInvariant`](super::solve::LocationInvariant) are kept in
//!   sync as projections;
//! * the concretization of a location is the set of valuations whose
//!   every pair projection is a recorded joint value (and whose every
//!   variable is in its mask).
//!
//! Transfer works by **pair conditioning**: for each pair `(x, y)` and
//! each joint value `(vx, vy)` it holds, build the cartesian environment
//! of everything compatible with that joint (each other variable `w` is
//! cut to `masks[w] ∩ row(x, vx → w) ∩ row(y, vy → w)`), run the shared
//! value-set transfer ([`assume`] + `post_branch`) through it, and
//! merge the result *anchored*: only the conditioned pair's own joint
//! values and the anchors' projections are updated from each
//! conditioning. Every concrete transition is covered by the
//! conditioning of its own pre-state's joint in **every** pair, so the
//! merge is sound — and because each conditioning carries the other
//! pairs' rows into the environment, guards pick up correlations the
//! cartesian transfer provably loses (Peterson's `enter1` is infeasible
//! from the joint `(pc2 = 3, tb = 1)`, so location `pc1 = 3` never
//! learns `pc2 = 3`).
//!
//! The lattice of masks is finite (height `≤ 64` per row), joins are
//! bitwise-or, so the chaotic iteration terminates without widening,
//! like the value-set domain.

use super::domain::{assume, DomainKind};
use super::ir::Program;
use super::solve::{post_branch, run, Invariant, SolveStats};
use std::collections::VecDeque;

/// The pair relations of one location: `pairs[pair_index(x, y)][vx]` is
/// the mask over `dom(y)` of values `y` may take jointly with `x = vx`.
/// Programs with fewer than two variables carry an empty list (the
/// domain degenerates to the value sets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationRelations {
    /// One row table per unordered variable pair `(x, y)`, `x < y`, in
    /// [`pair_index`] order.
    pub pairs: Vec<Vec<u64>>,
}

/// The number of unordered variable pairs of an `nvars`-variable program.
pub fn num_pairs(nvars: usize) -> usize {
    nvars * nvars.saturating_sub(1) / 2
}

/// The index of the pair `(x, y)` (`x < y`) in the flattened
/// upper-triangle order `(0,1), (0,2), …, (0,n−1), (1,2), …`.
pub fn pair_index(nvars: usize, x: usize, y: usize) -> usize {
    debug_assert!(x < y && y < nvars);
    x * (2 * nvars - x - 1) / 2 + (y - x - 1)
}

/// The pairs in [`pair_index`] order.
pub(crate) fn pair_list(nvars: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(num_pairs(nvars));
    for x in 0..nvars {
        for y in x + 1..nvars {
            out.push((x, y));
        }
    }
    out
}

/// The mask over `dom(w)` of values `w` may take jointly with `a = va`,
/// read from the pair table of `(a, w)` in either orientation (`a == w`
/// pins the singleton).
fn row_of(
    rel: &LocationRelations,
    nvars: usize,
    domains: &[usize],
    a: usize,
    va: usize,
    w: usize,
) -> u64 {
    if a == w {
        return 1u64 << va;
    }
    if a < w {
        rel.pairs[pair_index(nvars, a, w)][va]
    } else {
        let i = pair_index(nvars, w, a);
        let mut m = 0u64;
        for vw in 0..domains[w] {
            if rel.pairs[i][vw] >> va & 1 == 1 {
                m |= 1u64 << vw;
            }
        }
        m
    }
}

/// The cartesian environment conditioned on the joint value
/// `(x = vx, y = vy)`: every variable `w` is cut to the values
/// compatible with both anchors (its mask intersected with the pair rows
/// anchored at `x` and at `y`). `None` when some variable has no
/// compatible value — the joint denotes no concrete state.
pub(crate) fn conditioned_env(
    masks: &[u64],
    rel: &LocationRelations,
    domains: &[usize],
    x: usize,
    vx: usize,
    y: usize,
    vy: usize,
) -> Option<Vec<u64>> {
    let nvars = domains.len();
    let mut env = vec![0u64; nvars];
    for (w, slot) in env.iter_mut().enumerate() {
        let m = masks[w]
            & row_of(rel, nvars, domains, x, vx, w)
            & row_of(rel, nvars, domains, y, vy, w);
        if m == 0 {
            return None;
        }
        *slot = m;
    }
    Some(env)
}

/// One location of the solver state: projections plus pair tables, all
/// bottom (zero) until touched.
#[derive(Clone)]
struct RelState {
    masks: Vec<u64>,
    rel: LocationRelations,
}

/// Merges one conditioned contribution (anchored at pair `i = (x, y)`,
/// with post-values `mx` for `x` and `my` for `y`) into a location.
/// Returns whether anything grew.
fn merge_anchored(st: &mut RelState, i: usize, x: usize, y: usize, mx: u64, my: u64) -> bool {
    let mut changed = false;
    if st.masks[x] | mx != st.masks[x] {
        st.masks[x] |= mx;
        changed = true;
    }
    if st.masks[y] | my != st.masks[y] {
        st.masks[y] |= my;
        changed = true;
    }
    let rows = &mut st.rel.pairs[i];
    let mut bits = mx;
    while bits != 0 {
        let a = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if rows[a] | my != rows[a] {
            rows[a] |= my;
            changed = true;
        }
    }
    changed
}

/// Runs the pair-relation analysis over the program and returns an
/// [`Invariant`] whose `relations` field carries the per-location pair
/// tables (projections land in the usual per-variable masks). Programs
/// with fewer than two variables fall back to the value-set analysis
/// with empty pair lists.
pub fn run_relational(prog: &Program) -> Invariant {
    let domains = &prog.domains;
    let nvars = domains.len();
    let nlocs = prog.num_locations();
    if nvars < 2 {
        let mut inv = run(prog);
        inv.domain = DomainKind::Relational;
        inv.relations = Some(vec![LocationRelations { pairs: Vec::new() }; nlocs]);
        return inv;
    }
    let pairs = pair_list(nvars);
    let mut state: Vec<RelState> = (0..nlocs)
        .map(|_| RelState {
            masks: vec![0u64; nvars],
            rel: LocationRelations {
                pairs: pairs.iter().map(|&(x, _)| vec![0u64; domains[x]]).collect(),
            },
        })
        .collect();
    let mut stats = SolveStats::default();
    let mut on_list = vec![false; nlocs];
    let mut worklist = VecDeque::new();
    for init in &prog.inits {
        let l = prog.location_of(init);
        let st = &mut state[l];
        let mut changed = false;
        for (w, &v) in init.iter().enumerate() {
            if st.masks[w] | (1u64 << v) != st.masks[w] {
                st.masks[w] |= 1u64 << v;
                changed = true;
            }
        }
        for (i, &(x, y)) in pairs.iter().enumerate() {
            let row = &mut st.rel.pairs[i][init[x]];
            if *row | (1u64 << init[y]) != *row {
                *row |= 1u64 << init[y];
                changed = true;
            }
        }
        if changed && !on_list[l] {
            on_list[l] = true;
            worklist.push_back(l);
        }
    }
    while let Some(l) = worklist.pop_front() {
        on_list[l] = false;
        stats.iterations += 1;
        let cur = state[l].clone();
        for cmd in &prog.commands {
            for (i, &(x, y)) in pairs.iter().enumerate() {
                for vx in 0..domains[x] {
                    let mut joint = cur.rel.pairs[i][vx];
                    while joint != 0 {
                        let vy = joint.trailing_zeros() as usize;
                        joint &= joint - 1;
                        let Some(env) =
                            conditioned_env(&cur.masks, &cur.rel, domains, x, vx, y, vy)
                        else {
                            continue;
                        };
                        let Some(env_g) = assume(&cmd.guard, &env, domains) else {
                            continue;
                        };
                        for br in &cmd.branches {
                            stats.posts += 1;
                            let Some(env_b) = post_branch(&env_g, br, domains) else {
                                continue;
                            };
                            match prog.pc {
                                None => {
                                    stats.joins += 1;
                                    if merge_anchored(&mut state[0], i, x, y, env_b[x], env_b[y])
                                        && !on_list[0]
                                    {
                                        on_list[0] = true;
                                        worklist.push_back(0);
                                    }
                                }
                                Some(p) => {
                                    for l2 in 0..domains[p] {
                                        if env_b[p] >> l2 & 1 == 0 {
                                            continue;
                                        }
                                        let mx = if x == p { 1u64 << l2 } else { env_b[x] };
                                        let my = if y == p { 1u64 << l2 } else { env_b[y] };
                                        stats.joins += 1;
                                        if merge_anchored(&mut state[l2], i, x, y, mx, my)
                                            && !on_list[l2]
                                        {
                                            on_list[l2] = true;
                                            worklist.push_back(l2);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let (locations, relations) = state
        .into_iter()
        .map(|st| (super::solve::LocationInvariant { values: st.masks }, st.rel))
        .unzip();
    Invariant {
        domain: DomainKind::Relational,
        pc: prog.pc,
        var_domains: domains.clone(),
        locations,
        relations: Some(relations),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::super::examples;
    use super::super::ir::Guard;
    use super::super::solve::analyze;
    use super::*;

    #[test]
    fn pair_index_is_a_bijection() {
        for n in 2..8 {
            let list = pair_list(n);
            assert_eq!(list.len(), num_pairs(n));
            for (i, &(x, y)) in list.iter().enumerate() {
                assert_eq!(pair_index(n, x, y), i, "n={n} pair ({x},{y})");
            }
        }
        assert_eq!(num_pairs(0), 0);
        assert_eq!(num_pairs(1), 0);
    }

    #[test]
    fn relational_proves_peterson_mutex() {
        let prog = examples::peterson_abs();
        let inv = analyze(&prog, DomainKind::Relational);
        // The critical location pc1 = 3 must know pc2 ≠ 3: the pair
        // (pc2, tb) pins tb = 1 whenever pc2 = 3, which kills the tb = 0
        // disjunct of enter1 — a correlation the value sets cannot keep.
        assert!(inv.location_reachable(3));
        assert_eq!(inv.locations[3].values[1] & 0b1000, 0, "{inv:?}");
        let both = Guard::var_eq(0, 3).and(Guard::var_eq(1, 3));
        for l in 0..inv.locations.len() {
            assert_eq!(inv.guard_status(l, &both), Some(false), "location {l}");
        }
        // The value-set masks alone cannot do this (the honest gap).
        let vs = analyze(&prog, DomainKind::ValueSets);
        assert_ne!(vs.locations[3].values[1] & 0b1000, 0);
    }

    #[test]
    fn relational_proves_single_token_in_ring() {
        let prog = examples::token_ring_n(4);
        let inv = analyze(&prog, DomainKind::Relational);
        // At location tok0 = 1 the pair (tok0, tok1) excludes the joint
        // (1, 1): at most one token circulates.
        let both = Guard::var_eq(0, 1).and(Guard::var_eq(1, 1));
        for l in 0..inv.locations.len() {
            assert_eq!(inv.guard_status(l, &both), Some(false), "location {l}");
        }
        assert!(!inv.guard_feasible_rel(1, &both));
        // The cartesian masks lose the correlation.
        let vs = analyze(&prog, DomainKind::ValueSets);
        assert_eq!(vs.guard_status(1, &both), None);
    }

    #[test]
    fn single_variable_programs_degenerate_to_value_sets() {
        let prog = examples::token_ring_abs(true);
        let rel = analyze(&prog, DomainKind::Relational);
        let vs = analyze(&prog, DomainKind::ValueSets);
        assert_eq!(rel.domain, DomainKind::Relational);
        assert_eq!(rel.locations, vs.locations);
        let rels = rel.relations.as_ref().unwrap();
        assert!(rels.iter().all(|r| r.pairs.is_empty()));
    }
}
