//! Explicit-state enumeration of a declarative program.
//!
//! [`Program::to_builder`] pairs a [`Program`] with the alphabet it is
//! observed through; [`ProgramBuilder::build`] enumerates the valuations
//! reachable from the initial ones, breadth first, and produces an
//! explicit [`TransitionSystem`] with one state per reachable valuation:
//!
//! ```
//! use hierarchy_automata::prelude::*;
//! use hierarchy_fts::absint::{Branch, Expr, Guard, Program};
//! use hierarchy_fts::system::Fairness;
//!
//! // A one-bit blinker: x alternates when `toggle` fires.
//! let sigma = Alphabet::of_propositions(["x"]).unwrap();
//! let mut p = Program::new();
//! let x = p.var("x", 2);
//! p.init(&[0]);
//! p.observe_prop(Guard::var_eq(x, 1));
//! let flip = Branch::assign(vec![(x, Expr::c(1) - Expr::v(x))]);
//! p.command("toggle", Fairness::Weak, Guard::True, vec![flip]);
//! p.command("idle", Fairness::None, Guard::True, vec![Branch::skip()]);
//! let ts = p.to_builder(&sigma).build().unwrap();
//! assert_eq!(ts.num_states(), 2);
//! ```

use crate::absint::ir::{eval_guard, IrError, Program};
use crate::system::{SystemError, TransitionSystem};
use hierarchy_automata::alphabet::Alphabet;
use std::collections::HashMap;
use std::fmt;

/// A program paired with its observation alphabet, ready to enumerate;
/// made by [`Program::to_builder`].
#[derive(Debug, Clone, Copy)]
pub struct ProgramBuilder<'a> {
    program: &'a Program,
    alphabet: &'a Alphabet,
}

/// Errors from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The program failed [`Program::validate`].
    Ir(IrError),
    /// The resulting system failed validation.
    System(SystemError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Ir(e) => write!(f, "invalid program: {e}"),
            BuildError::System(e) => write!(f, "resulting system invalid: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl Program {
    /// Pairs the program with `sigma`, which must be a proposition
    /// (valuation) alphabet with exactly one proposition per observation
    /// guard.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` has a different number of propositions than the
    /// program has observation guards.
    pub fn to_builder<'a>(&'a self, sigma: &'a Alphabet) -> ProgramBuilder<'a> {
        assert_eq!(
            sigma.propositions().len(),
            self.observations.len(),
            "alphabet has {} propositions but the program observes {}",
            sigma.propositions().len(),
            self.observations.len()
        );
        ProgramBuilder {
            program: self,
            alphabet: sigma,
        }
    }
}

impl ProgramBuilder<'_> {
    /// Enumerates the reachable valuations and produces the explicit
    /// transition system (validated).
    ///
    /// # Errors
    ///
    /// [`BuildError::Ir`] when the program fails [`Program::validate`],
    /// [`BuildError::System`] when the system fails
    /// [`TransitionSystem::validate`] (e.g. a deadlock).
    pub fn build(&self) -> Result<TransitionSystem, BuildError> {
        self.build_with_valuations().map(|(ts, _)| ts)
    }

    /// Like [`Self::build`], additionally returning the reachable
    /// valuations in state order (`valuations[s]` is the valuation
    /// interned as state `s`).
    ///
    /// States are numbered in breadth-first discovery order: the initial
    /// valuations first, then each state's successors command by command
    /// and branch by branch. A branch that leaves a domain is not taken.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn build_with_valuations(&self) -> Result<(TransitionSystem, Vec<Vec<usize>>), BuildError> {
        let p = self.program;
        p.validate().map_err(BuildError::Ir)?;
        let mut ts = TransitionSystem::new(self.alphabet);
        // `order` doubles as the queue: states are numbered as found.
        let mut order: Vec<Vec<usize>> = Vec::new();
        let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut intern = |vals: Vec<usize>, ts: &mut TransitionSystem, order: &mut Vec<_>| {
            *ids.entry(vals).or_insert_with_key(|vals| {
                let bits: Vec<bool> = p.observations.iter().map(|g| eval_guard(g, vals)).collect();
                order.push(vals.clone());
                ts.add_state(self.alphabet.valuation_symbol(&bits))
            })
        };
        for init in &p.inits {
            let s = intern(init.clone(), &mut ts, &mut order);
            ts.set_initial(s);
        }
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p.commands.len()];
        let mut s = 0;
        while s < order.len() {
            let vals = order[s].clone();
            for (cmd, list) in p.commands.iter().zip(&mut edges) {
                if !eval_guard(&cmd.guard, &vals) {
                    continue;
                }
                for next in cmd
                    .branches
                    .iter()
                    .filter_map(|b| b.apply(&vals, &p.domains))
                {
                    list.push((s, intern(next, &mut ts, &mut order)));
                }
            }
            s += 1;
        }
        for (cmd, list) in p.commands.iter().zip(edges) {
            ts.add_transition(cmd.name.clone(), list, cmd.fairness);
        }
        ts.validate().map_err(BuildError::System)?;
        Ok((ts, order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::{mux_sem_abs, observation_alphabet, peterson_abs, Branch, Expr, Guard};
    use crate::checker::verify;
    use crate::system::Fairness;
    use hierarchy_logic::to_automaton::compile_over;
    use hierarchy_logic::Formula;

    fn spec(sigma: &Alphabet, src: &str) -> hierarchy_automata::omega::OmegaAutomaton {
        compile_over(sigma, &Formula::parse(sigma, src).unwrap()).unwrap()
    }

    /// A one-variable program over `[x]` observing `x = 1`.
    fn one_var(domain: usize) -> (Program, Alphabet) {
        let mut p = Program::new();
        let x = p.var("x", domain);
        p.init(&[0]);
        p.observe_prop(Guard::var_eq(x, 1));
        (p, Alphabet::of_propositions(["x"]).unwrap())
    }

    #[test]
    fn only_reachable_valuations_get_a_state() {
        let sigma = observation_alphabet();
        // pc1 = pc2 = C is unreachable (the semaphore), so 8 of the 9
        // valuations remain.
        let mux = mux_sem_abs(Fairness::Strong).to_builder(&sigma).build();
        assert_eq!(mux.unwrap().num_states(), 8);
        // Peterson: 20 of the 32 valuations of (pc1, pc2, tb).
        let peterson = peterson_abs().to_builder(&sigma).build();
        assert_eq!(peterson.unwrap().num_states(), 20);
    }

    #[test]
    fn build_with_valuations_orders_by_state() {
        let sigma = observation_alphabet();
        let prog = peterson_abs();
        let (ts, vals) = prog.to_builder(&sigma).build_with_valuations().unwrap();
        assert_eq!(vals.len(), ts.num_states());
        assert_eq!(ts.initial_states(), &[0]);
        assert_eq!(vals[0], prog.inits[0]);
        for (s, val) in vals.iter().enumerate() {
            let bits: Vec<bool> = prog
                .observations
                .iter()
                .map(|g| eval_guard(g, val))
                .collect();
            assert_eq!(ts.observation(s), sigma.valuation_symbol(&bits));
        }
        let distinct: std::collections::HashSet<&Vec<usize>> = vals.iter().collect();
        assert_eq!(distinct.len(), vals.len(), "one state per valuation");
    }

    #[test]
    fn invalid_program_is_its_ir_error() {
        let (mut p, sigma) = one_var(2);
        p.inits.clear();
        assert_eq!(
            p.to_builder(&sigma).build().unwrap_err(),
            BuildError::Ir(IrError::NoInit)
        );
        p.init(&[2]);
        assert_eq!(
            p.to_builder(&sigma).build().unwrap_err(),
            BuildError::Ir(IrError::BadInit { init: 0 })
        );
        p.inits[0] = vec![0];
        p.command("bad", Fairness::None, Guard::var_eq(5, 0), vec![]);
        assert_eq!(
            p.to_builder(&sigma).build_with_valuations().unwrap_err(),
            BuildError::Ir(IrError::BadVarIndex { var: 5 })
        );
    }

    #[test]
    fn deadlock_is_a_system_error() {
        // No command at all: the initial state has no successor.
        let (p, sigma) = one_var(2);
        assert_eq!(
            p.to_builder(&sigma).build().unwrap_err(),
            BuildError::System(SystemError::Deadlock { state: 0 })
        );
    }

    #[test]
    fn out_of_domain_branch_is_not_taken() {
        // x := x + 1 escapes {0, 1, 2} at x = 2; there only `stay` moves.
        let (mut p, sigma) = one_var(3);
        let inc = Branch::assign(vec![(0, Expr::v(0) + Expr::c(1))]);
        p.command("inc", Fairness::Weak, Guard::True, vec![inc]);
        p.command("stay", Fairness::None, Guard::True, vec![Branch::skip()]);
        let ts = p.to_builder(&sigma).build().unwrap();
        assert_eq!(ts.num_states(), 3);
        assert_eq!(ts.transitions()[0].edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn nondeterministic_updates() {
        // A coin: flip goes to 0 or 1 nondeterministically. Fairness is
        // about the command, not its branches, so □◇x is NOT guaranteed:
        // a run may always resolve the flip to 0.
        let (mut p, sigma) = one_var(2);
        let to = |k| Branch::assign(vec![(0, Expr::c(k))]);
        p.command("flip", Fairness::Weak, Guard::True, vec![to(0), to(1)]);
        let ts = p.to_builder(&sigma).build().unwrap();
        assert_eq!(
            ts.transitions()[0].edges,
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
        assert!(!verify(&ts, &spec(&sigma, "G F x")).expect("check").holds());
    }
}
