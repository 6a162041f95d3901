//! Independent re-verification of invariant certificates.
//!
//! The worklist solver *claims* its result is an inductive invariant;
//! these checkers re-establish the claim from the definition, so a solver
//! bug (a missed propagation, a bad join) cannot silently produce a
//! certificate that downstream layers then trust:
//!
//! * [`certify`] re-checks inductiveness transition-by-transition on the
//!   concretized masks in the value-set domain: every initial valuation
//!   is in the invariant, and for every reachable location, command and
//!   branch, the abstract post of the location's mask environment lands
//!   inside the target locations' mask environments. It shares only the
//!   expression transfer functions with the solver — none of the
//!   worklist or join machinery.
//! * [`certify_exhaustive`] goes further and uses *only* the concrete IR
//!   semantics: it enumerates every concrete valuation denoted by the
//!   invariant and steps it through every command, checking closure.
//!   Nothing abstract is trusted at all; a state-count budget keeps it
//!   test-sized.

use super::domain::{assume, full_mask};
use super::ir::{eval_guard, Program};
use super::relation::{conditioned_env, num_pairs, pair_list, LocationRelations};
use super::solve::{post_branch, Invariant};
use std::fmt;

/// Why a certificate failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertificateError {
    /// The invariant's shape does not match the program.
    ShapeMismatch,
    /// An initial valuation is not in the invariant.
    InitEscapes {
        /// Index into [`Program::inits`].
        init: usize,
    },
    /// A command branch leaves the invariant.
    NotInductive {
        /// Source location.
        location: usize,
        /// Offending command name.
        command: String,
        /// Offending branch index within the command.
        branch: usize,
    },
    /// [`certify_exhaustive`] would enumerate more states than allowed.
    BudgetExceeded,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::ShapeMismatch => {
                write!(f, "invariant shape does not match the program")
            }
            CertificateError::InitEscapes { init } => {
                write!(f, "initial valuation #{init} escapes the invariant")
            }
            CertificateError::NotInductive {
                location,
                command,
                branch,
            } => write!(
                f,
                "command {command:?} branch {branch} leaves the invariant from location {location}"
            ),
            CertificateError::BudgetExceeded => {
                write!(f, "exhaustive certification exceeded its state budget")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

fn shape_ok(prog: &Program, inv: &Invariant) -> bool {
    let cartesian = inv.pc == prog.pc
        && inv.var_domains == prog.domains
        && inv.locations.len() == prog.num_locations()
        && inv
            .locations
            .iter()
            .all(|loc| loc.values.len() == prog.domains.len());
    if !cartesian {
        return false;
    }
    match &inv.relations {
        None => true,
        Some(rels) => {
            let pairs = pair_list(prog.domains.len());
            rels.len() == prog.num_locations()
                && rels.iter().all(|rel| {
                    rel.pairs.len() == pairs.len()
                        && pairs.iter().zip(&rel.pairs).all(|(&(x, y), rows)| {
                            rows.len() == prog.domains[x]
                                && rows.iter().all(|&r| r & !full_mask(prog.domains[y]) == 0)
                        })
                })
        }
    }
}

/// Does the contribution (anchored at pair `i = (x, y)`, post-values
/// `mx`/`my`) escape the target location's masks or pair rows?
fn escapes_rel(
    target: &[u64],
    trel: &LocationRelations,
    i: usize,
    x: usize,
    y: usize,
    mx: u64,
    my: u64,
) -> bool {
    if mx & !target[x] != 0 || my & !target[y] != 0 {
        return true;
    }
    let mut bits = mx;
    while bits != 0 {
        let a = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if my & !trel.pairs[i][a] != 0 {
            return true;
        }
    }
    false
}

/// Pair-conditioned inductiveness for relational certificates: mirrors
/// the anchored transfer of [`run_relational`](super::relation::run_relational)
/// while sharing only the expression-level transfer functions with it.
/// Every concrete transition from a denoted state is covered by the
/// conditioning of its pre-state's joint in every pair, and each
/// variable anchors some pair, so checking every anchored contribution
/// re-establishes closure of the full (masks + pairs) denotation.
fn certify_relational(
    prog: &Program,
    inv: &Invariant,
    rels: &[LocationRelations],
) -> Result<(), CertificateError> {
    let domains = &prog.domains;
    let pairs = pair_list(domains.len());
    for (l, loc) in inv.locations.iter().enumerate() {
        if !inv.location_reachable(l) {
            continue;
        }
        let masks: &[u64] = &loc.values;
        let rel = &rels[l];
        for cmd in &prog.commands {
            for (i, &(x, y)) in pairs.iter().enumerate() {
                for vx in 0..domains[x] {
                    let mut joint = rel.pairs[i][vx];
                    while joint != 0 {
                        let vy = joint.trailing_zeros() as usize;
                        joint &= joint - 1;
                        let Some(env) = conditioned_env(masks, rel, domains, x, vx, y, vy) else {
                            continue;
                        };
                        let Some(env_g) = assume(&cmd.guard, &env, domains) else {
                            continue;
                        };
                        for (bi, br) in cmd.branches.iter().enumerate() {
                            let Some(env_b) = post_branch(&env_g, br, domains) else {
                                continue;
                            };
                            let fail = || CertificateError::NotInductive {
                                location: l,
                                command: cmd.name.clone(),
                                branch: bi,
                            };
                            match prog.pc {
                                None => {
                                    if escapes_rel(
                                        &inv.locations[0].values,
                                        &rels[0],
                                        i,
                                        x,
                                        y,
                                        env_b[x],
                                        env_b[y],
                                    ) {
                                        return Err(fail());
                                    }
                                }
                                Some(p) => {
                                    for (l2, trel) in rels.iter().enumerate().take(domains[p]) {
                                        if env_b[p] >> l2 & 1 == 0 {
                                            continue;
                                        }
                                        let mx = if x == p { 1u64 << l2 } else { env_b[x] };
                                        let my = if y == p { 1u64 << l2 } else { env_b[y] };
                                        if escapes_rel(
                                            &inv.locations[l2].values,
                                            trel,
                                            i,
                                            x,
                                            y,
                                            mx,
                                            my,
                                        ) {
                                            return Err(fail());
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
    Ok(())
}

/// Re-verifies that the invariant is inductive, transition-by-transition,
/// in the value-set domain over the concretized masks.
///
/// # Errors
///
/// The first [`CertificateError`] found: a shape mismatch, an escaping
/// initial valuation, or a non-inductive location/command/branch triple.
pub fn certify(prog: &Program, inv: &Invariant) -> Result<(), CertificateError> {
    if !shape_ok(prog, inv) {
        return Err(CertificateError::ShapeMismatch);
    }
    for (i, init) in prog.inits.iter().enumerate() {
        if !inv.contains(init) {
            return Err(CertificateError::InitEscapes { init: i });
        }
    }
    if let Some(rels) = &inv.relations {
        if num_pairs(prog.domains.len()) > 0 {
            return certify_relational(prog, inv, rels);
        }
    }
    let domains = &prog.domains;
    for (l, loc) in inv.locations.iter().enumerate() {
        if !inv.location_reachable(l) {
            continue;
        }
        let env: &[u64] = &loc.values;
        for cmd in &prog.commands {
            let Some(env_g) = assume(&cmd.guard, env, domains) else {
                continue;
            };
            for (bi, br) in cmd.branches.iter().enumerate() {
                let Some(env_b) = post_branch(&env_g, br, domains) else {
                    continue;
                };
                let fail = || CertificateError::NotInductive {
                    location: l,
                    command: cmd.name.clone(),
                    branch: bi,
                };
                match prog.pc {
                    None => {
                        let target = &inv.locations[0].values;
                        if env_b.iter().zip(target).any(|(v, t)| v & !t != 0) {
                            return Err(fail());
                        }
                    }
                    Some(p) => {
                        for l2 in 0..domains[p] {
                            if env_b[p] >> l2 & 1 == 0 {
                                continue;
                            }
                            let target = &inv.locations[l2].values;
                            let escapes = env_b.iter().enumerate().any(|(x, v)| {
                                let v = if x == p { 1u64 << l2 } else { *v };
                                v & !target[x] != 0
                            });
                            if escapes {
                                return Err(fail());
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Iterates the concrete valuations denoted by one location's masks.
fn location_states(masks: &[u64], domains: &[usize]) -> Vec<Vec<usize>> {
    let value_lists: Vec<Vec<usize>> = masks
        .iter()
        .zip(domains)
        .map(|(&m, &d)| (0..d).filter(|&v| m >> v & 1 == 1).collect())
        .collect();
    if value_lists.iter().any(|vs| vs.is_empty()) {
        return Vec::new();
    }
    let mut out = vec![Vec::new()];
    for vs in &value_lists {
        let mut next = Vec::with_capacity(out.len() * vs.len());
        for prefix in &out {
            for &v in vs {
                let mut w = prefix.clone();
                w.push(v);
                next.push(w);
            }
        }
        out = next;
    }
    out
}

/// Fully concrete certification: enumerates every valuation denoted by
/// the invariant and checks that each enabled command branch stays
/// inside it. Uses only the IR's concrete semantics — independent of the
/// entire abstract machinery.
///
/// # Errors
///
/// [`CertificateError::BudgetExceeded`] when the invariant denotes more
/// than `budget` states; otherwise as [`certify`].
pub fn certify_exhaustive(
    prog: &Program,
    inv: &Invariant,
    budget: usize,
) -> Result<(), CertificateError> {
    if !shape_ok(prog, inv) {
        return Err(CertificateError::ShapeMismatch);
    }
    for (i, init) in prog.inits.iter().enumerate() {
        if !inv.contains(init) {
            return Err(CertificateError::InitEscapes { init: i });
        }
    }
    let mut total: usize = 0;
    for (l, loc) in inv.locations.iter().enumerate() {
        if !inv.location_reachable(l) {
            continue;
        }
        let denoted: usize = loc.values.iter().map(|m| m.count_ones() as usize).product();
        total = total.saturating_add(denoted);
        if total > budget {
            return Err(CertificateError::BudgetExceeded);
        }
        for vals in location_states(&loc.values, &prog.domains) {
            // A relational invariant denotes a subset of the cartesian
            // enumeration; valuations outside it are not in the
            // certificate and must not be stepped.
            if !inv.contains(&vals) {
                continue;
            }
            for cmd in &prog.commands {
                if !eval_guard(&cmd.guard, &vals) {
                    continue;
                }
                for (bi, br) in cmd.branches.iter().enumerate() {
                    let Some(next) = br.apply(&vals, &prog.domains) else {
                        continue;
                    };
                    if !inv.contains(&next) {
                        return Err(CertificateError::NotInductive {
                            location: l,
                            command: cmd.name.clone(),
                            branch: bi,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::examples;
    use super::super::solve::analyze;
    use super::super::DomainKind;
    use super::*;
    use crate::system::Fairness;

    #[test]
    fn paper_example_invariants_certify() {
        for (name, prog) in [
            ("mux_sem", examples::mux_sem_abs(Fairness::Strong)),
            ("token_ring", examples::token_ring_abs(true)),
            ("peterson", examples::peterson_abs()),
        ] {
            for kind in DomainKind::ALL {
                let inv = analyze(&prog, kind);
                certify(&prog, &inv).unwrap_or_else(|e| panic!("{name}/{kind:?}: {e}"));
                certify_exhaustive(&prog, &inv, 1 << 12)
                    .unwrap_or_else(|e| panic!("{name}/{kind:?} exhaustive: {e}"));
            }
        }
    }

    #[test]
    fn tampered_invariants_are_rejected() {
        let prog = examples::token_ring_abs(true);
        let good = analyze(&prog, DomainKind::ValueSets);
        certify(&prog, &good).unwrap();

        // Drop a reachable location entirely: the initial valuation (or
        // some transition into it) must escape.
        let mut missing_init = good.clone();
        let l0 = prog.location_of(&prog.inits[0]);
        for m in &mut missing_init.locations[l0].values {
            *m = 0;
        }
        assert_eq!(
            certify(&prog, &missing_init),
            Err(CertificateError::InitEscapes { init: 0 })
        );

        // Claim a reachable location is tighter than it is: some command
        // stepping into the shaved value breaks inductiveness.
        let mut shaved = good.clone();
        let victim = (0..shaved.locations.len())
            .find(|&l| l != l0 && shaved.location_reachable(l))
            .expect("a non-initial reachable location");
        for m in &mut shaved.locations[victim].values {
            *m = 0;
        }
        let abstract_verdict = certify(&prog, &shaved);
        let concrete_verdict = certify_exhaustive(&prog, &shaved, 1 << 12);
        assert!(
            matches!(abstract_verdict, Err(CertificateError::NotInductive { .. })),
            "{abstract_verdict:?}"
        );
        assert!(
            matches!(concrete_verdict, Err(CertificateError::NotInductive { .. })),
            "{concrete_verdict:?}"
        );

        // Shape mismatches are caught before anything else.
        let mut misshapen = good.clone();
        misshapen.locations.pop();
        assert_eq!(
            certify(&prog, &misshapen),
            Err(CertificateError::ShapeMismatch)
        );
    }

    #[test]
    fn tampered_relational_certificates_are_rejected() {
        let prog = examples::peterson_abs();
        let good = analyze(&prog, DomainKind::Relational);
        certify(&prog, &good).unwrap();
        certify_exhaustive(&prog, &good, 1 << 12).unwrap();

        // Claim a reachable location has no admissible joint values:
        // transitions into it escape the (now empty) pair rows.
        let mut shaved = good.clone();
        let victim = (1..shaved.locations.len())
            .find(|&l| shaved.location_reachable(l))
            .expect("a non-initial reachable location");
        for rows in &mut shaved.relations.as_mut().unwrap()[victim].pairs {
            for r in rows.iter_mut() {
                *r = 0;
            }
        }
        assert!(
            matches!(
                certify(&prog, &shaved),
                Err(CertificateError::NotInductive { .. })
            ),
            "{:?}",
            certify(&prog, &shaved)
        );
        assert!(matches!(
            certify_exhaustive(&prog, &shaved, 1 << 12),
            Err(CertificateError::NotInductive { .. })
        ));

        // Pair tables of the wrong shape are a shape mismatch.
        let mut misshapen = good.clone();
        misshapen.relations.as_mut().unwrap()[0].pairs.pop();
        assert_eq!(
            certify(&prog, &misshapen),
            Err(CertificateError::ShapeMismatch)
        );
    }

    #[test]
    fn exhaustive_budget_is_enforced() {
        let prog = examples::peterson_abs();
        let inv = analyze(&prog, DomainKind::ValueSets);
        assert_eq!(
            certify_exhaustive(&prog, &inv, 1),
            Err(CertificateError::BudgetExceeded)
        );
    }
}
