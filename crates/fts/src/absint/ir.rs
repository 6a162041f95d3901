//! A declarative guarded-command IR that abstract interpretation can see
//! through.
//!
//! [`Program`] is the one way to write a program: expressions
//! ([`Expr`]), guards ([`Guard`]) and simultaneous assignments
//! ([`Branch`]) over finite-domain variables, with **one** concrete
//! semantics (`eval_expr` / `eval_guard`) shared by the explicit
//! enumeration of [`Program::to_builder`], the abstract transformers in
//! [`domain`](super::domain), and the independent certificate checker in
//! [`certify`](mod@super::certify).
//!
//! Out-of-domain results: a branch whose assignment produces a value
//! outside the target variable's domain is simply *not taken* (the
//! command offers no such successor).

use crate::system::Fairness;
use std::fmt;

/// An integer expression over program variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal constant.
    Const(i64),
    /// The current value of variable `i` (by declaration index).
    Var(usize),
    /// Sum of the operands.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of the operands.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of the operands.
    Mul(Box<Expr>, Box<Expr>),
    /// Euclidean remainder of the operand modulo a positive constant
    /// (always in `0..m`, matching `i64::rem_euclid`).
    Mod(Box<Expr>, u64),
}

impl Expr {
    /// Shorthand for [`Expr::Var`].
    pub fn v(i: usize) -> Expr {
        Expr::Var(i)
    }

    /// Shorthand for [`Expr::Const`].
    pub fn c(k: i64) -> Expr {
        Expr::Const(k)
    }

    // The builder names mirror the `Expr` constructors; the `std::ops`
    // impls below provide the operator forms.
    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self mod m` (Euclidean).
    pub fn modulo(self, m: u64) -> Expr {
        Expr::Mod(Box::new(self), m)
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl Cmp {
    /// The negated operator (`¬(a op b)  ⟺  a op.negate() b`).
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
        }
    }

    /// The mirrored operator (`a op b  ⟺  b op.flip() a`).
    pub fn flip(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Ne => Cmp::Ne,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }

    /// Evaluates the operator on concrete values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// A boolean guard over program variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// Always holds.
    True,
    /// Never holds.
    False,
    /// A comparison between two expressions.
    Cmp(Cmp, Expr, Expr),
    /// Negation.
    Not(Box<Guard>),
    /// Conjunction.
    And(Box<Guard>, Box<Guard>),
    /// Disjunction.
    Or(Box<Guard>, Box<Guard>),
}

impl Guard {
    /// `lhs == rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Guard {
        Guard::Cmp(Cmp::Eq, lhs, rhs)
    }

    /// `lhs != rhs`.
    pub fn ne(lhs: Expr, rhs: Expr) -> Guard {
        Guard::Cmp(Cmp::Ne, lhs, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Guard {
        Guard::Cmp(Cmp::Lt, lhs, rhs)
    }

    /// `lhs <= rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Guard {
        Guard::Cmp(Cmp::Le, lhs, rhs)
    }

    /// `lhs > rhs`.
    pub fn gt(lhs: Expr, rhs: Expr) -> Guard {
        Guard::Cmp(Cmp::Gt, lhs, rhs)
    }

    /// `lhs >= rhs`.
    pub fn ge(lhs: Expr, rhs: Expr) -> Guard {
        Guard::Cmp(Cmp::Ge, lhs, rhs)
    }

    /// `var == k`, the most common atom.
    pub fn var_eq(var: usize, k: i64) -> Guard {
        Guard::eq(Expr::Var(var), Expr::Const(k))
    }

    /// `var != k`.
    pub fn var_ne(var: usize, k: i64) -> Guard {
        Guard::ne(Expr::Var(var), Expr::Const(k))
    }

    /// Conjunction combinator.
    pub fn and(self, rhs: Guard) -> Guard {
        Guard::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction combinator.
    pub fn or(self, rhs: Guard) -> Guard {
        Guard::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation combinator.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Guard {
        Guard::Not(Box::new(self))
    }

    /// Pushes one negation inward (De Morgan + operator negation); the
    /// result contains no [`Guard::Not`] at the root unless its operand
    /// was already negation-free and atomic.
    pub fn negate(&self) -> Guard {
        match self {
            Guard::True => Guard::False,
            Guard::False => Guard::True,
            Guard::Cmp(op, a, b) => Guard::Cmp(op.negate(), a.clone(), b.clone()),
            Guard::Not(g) => (**g).clone(),
            Guard::And(a, b) => Guard::Or(Box::new(a.negate()), Box::new(b.negate())),
            Guard::Or(a, b) => Guard::And(Box::new(a.negate()), Box::new(b.negate())),
        }
    }
}

/// Evaluates an expression on a concrete valuation.
pub fn eval_expr(e: &Expr, vals: &[usize]) -> i64 {
    match e {
        Expr::Const(k) => *k,
        Expr::Var(i) => vals[*i] as i64,
        Expr::Add(a, b) => eval_expr(a, vals) + eval_expr(b, vals),
        Expr::Sub(a, b) => eval_expr(a, vals) - eval_expr(b, vals),
        Expr::Mul(a, b) => eval_expr(a, vals) * eval_expr(b, vals),
        Expr::Mod(a, m) => eval_expr(a, vals).rem_euclid(*m as i64),
    }
}

/// Evaluates a guard on a concrete valuation.
pub fn eval_guard(g: &Guard, vals: &[usize]) -> bool {
    match g {
        Guard::True => true,
        Guard::False => false,
        Guard::Cmp(op, a, b) => op.eval(eval_expr(a, vals), eval_expr(b, vals)),
        Guard::Not(g) => !eval_guard(g, vals),
        Guard::And(a, b) => eval_guard(a, vals) && eval_guard(b, vals),
        Guard::Or(a, b) => eval_guard(a, vals) || eval_guard(b, vals),
    }
}

/// One nondeterministic outcome of a command: a *simultaneous* assignment
/// (all right-hand sides are evaluated in the pre-state). Variables not
/// assigned keep their value. A branch whose result leaves any target
/// domain is not taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// `(variable, expression)` pairs; at most one per variable.
    pub assigns: Vec<(usize, Expr)>,
}

impl Branch {
    /// A branch assigning nothing (the stutter branch).
    pub fn skip() -> Branch {
        Branch {
            assigns: Vec::new(),
        }
    }

    /// A branch from assignment pairs.
    pub fn assign(assigns: Vec<(usize, Expr)>) -> Branch {
        Branch { assigns }
    }

    /// Applies the branch to a concrete valuation; `None` if any result
    /// leaves its domain.
    pub fn apply(&self, vals: &[usize], domains: &[usize]) -> Option<Vec<usize>> {
        let mut next = vals.to_vec();
        for (x, e) in &self.assigns {
            let r = eval_expr(e, vals);
            if r < 0 || r >= domains[*x] as i64 {
                return None;
            }
            next[*x] = r as usize;
        }
        Some(next)
    }
}

/// A guarded command with one or more nondeterministic branches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Transition name (becomes the transition name in the built system).
    pub name: String,
    /// Fairness attached to the whole command.
    pub fairness: Fairness,
    /// Enabling condition.
    pub guard: Guard,
    /// Nondeterministic outcomes (at least one).
    pub branches: Vec<Branch>,
}

/// A declarative guarded-command program over finite-domain variables.
///
/// Observations are one [`Guard`] per alphabet proposition (the built
/// observation maps a valuation to the symbol of the induced boolean
/// valuation); [`Program::to_builder`] enumerates the explicit system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Variable names, in declaration order.
    pub var_names: Vec<String>,
    /// Variable domains `{0, …, d−1}`, each `1 ≤ d ≤ 64`.
    pub domains: Vec<usize>,
    /// Initial valuations.
    pub inits: Vec<Vec<usize>>,
    /// One guard per alphabet proposition, in proposition order.
    pub observations: Vec<Guard>,
    /// The guarded commands.
    pub commands: Vec<Command>,
    /// Optional control variable: invariants are partitioned by its value
    /// (flow-sensitivity). `None` means one global location.
    pub pc: Option<usize>,
}

/// Structural errors reported by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// The program declares no variables.
    NoVariables,
    /// A domain is empty or exceeds the 64-value mask limit.
    BadDomain {
        /// The offending variable index.
        var: usize,
        /// Its declared domain size.
        domain: usize,
    },
    /// No initial valuation was supplied.
    NoInit,
    /// An initial valuation has the wrong arity or leaves a domain.
    BadInit {
        /// Index into [`Program::inits`].
        init: usize,
    },
    /// An expression or guard references an undeclared variable.
    BadVarIndex {
        /// The undeclared index.
        var: usize,
    },
    /// A `Mod` expression has modulus zero.
    ZeroModulus,
    /// A command has no branches.
    NoBranches {
        /// The offending command name.
        command: String,
    },
    /// A branch assigns the same variable twice.
    DuplicateAssign {
        /// The offending command name.
        command: String,
        /// The doubly-assigned variable index.
        var: usize,
    },
    /// The `pc` field names an undeclared variable.
    BadPc,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::NoVariables => write!(f, "program declares no variables"),
            IrError::BadDomain { var, domain } => {
                write!(f, "variable #{var} has domain size {domain} (need 1..=64)")
            }
            IrError::NoInit => write!(f, "no initial valuation"),
            IrError::BadInit { init } => write!(f, "initial valuation #{init} is ill-formed"),
            IrError::BadVarIndex { var } => write!(f, "reference to undeclared variable #{var}"),
            IrError::ZeroModulus => write!(f, "Mod expression with modulus 0"),
            IrError::NoBranches { command } => write!(f, "command {command:?} has no branches"),
            IrError::DuplicateAssign { command, var } => {
                write!(f, "command {command:?} assigns variable #{var} twice")
            }
            IrError::BadPc => write!(f, "pc names an undeclared variable"),
        }
    }
}

impl std::error::Error for IrError {}

fn check_expr(e: &Expr, nvars: usize) -> Result<(), IrError> {
    match e {
        Expr::Const(_) => Ok(()),
        Expr::Var(i) => {
            if *i < nvars {
                Ok(())
            } else {
                Err(IrError::BadVarIndex { var: *i })
            }
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            check_expr(a, nvars)?;
            check_expr(b, nvars)
        }
        Expr::Mod(a, m) => {
            if *m == 0 {
                return Err(IrError::ZeroModulus);
            }
            check_expr(a, nvars)
        }
    }
}

fn check_guard(g: &Guard, nvars: usize) -> Result<(), IrError> {
    match g {
        Guard::True | Guard::False => Ok(()),
        Guard::Cmp(_, a, b) => {
            check_expr(a, nvars)?;
            check_expr(b, nvars)
        }
        Guard::Not(g) => check_guard(g, nvars),
        Guard::And(a, b) | Guard::Or(a, b) => {
            check_guard(a, nvars)?;
            check_guard(b, nvars)
        }
    }
}

impl Program {
    /// An empty program (add variables, inits, observations, commands).
    pub fn new() -> Program {
        Program {
            var_names: Vec::new(),
            domains: Vec::new(),
            inits: Vec::new(),
            observations: Vec::new(),
            commands: Vec::new(),
            pc: None,
        }
    }

    /// Declares a variable with domain `{0, …, domain−1}`; returns its
    /// index.
    pub fn var(&mut self, name: impl Into<String>, domain: usize) -> usize {
        self.var_names.push(name.into());
        self.domains.push(domain);
        self.domains.len() - 1
    }

    /// Declares an initial valuation (one value per variable).
    pub fn init(&mut self, valuation: &[usize]) {
        self.inits.push(valuation.to_vec());
    }

    /// Appends an observation guard for the next alphabet proposition.
    pub fn observe_prop(&mut self, guard: Guard) {
        self.observations.push(guard);
    }

    /// Adds a guarded command.
    pub fn command(
        &mut self,
        name: impl Into<String>,
        fairness: Fairness,
        guard: Guard,
        branches: Vec<Branch>,
    ) {
        self.commands.push(Command {
            name: name.into(),
            fairness,
            guard,
            branches,
        });
    }

    /// Marks `var` as the control variable for flow-sensitive analysis.
    pub fn set_pc(&mut self, var: usize) {
        self.pc = Some(var);
    }

    /// Checks structural well-formedness: at least one variable, domains
    /// in `1..=64` (the value-set mask limit), inits of correct arity and
    /// in-domain, variable references declared, nonzero moduli, commands
    /// with at least one branch and no doubly-assigned variable, `pc`
    /// declared.
    ///
    /// # Errors
    ///
    /// The first [`IrError`] found, in declaration order.
    pub fn validate(&self) -> Result<(), IrError> {
        let nvars = self.domains.len();
        if nvars == 0 {
            return Err(IrError::NoVariables);
        }
        for (var, &domain) in self.domains.iter().enumerate() {
            if domain == 0 || domain > 64 {
                return Err(IrError::BadDomain { var, domain });
            }
        }
        if self.inits.is_empty() {
            return Err(IrError::NoInit);
        }
        for (i, init) in self.inits.iter().enumerate() {
            if init.len() != nvars || init.iter().zip(&self.domains).any(|(v, d)| v >= d) {
                return Err(IrError::BadInit { init: i });
            }
        }
        for g in &self.observations {
            check_guard(g, nvars)?;
        }
        for cmd in &self.commands {
            check_guard(&cmd.guard, nvars)?;
            if cmd.branches.is_empty() {
                return Err(IrError::NoBranches {
                    command: cmd.name.clone(),
                });
            }
            for br in &cmd.branches {
                let mut seen = vec![false; nvars];
                for (x, e) in &br.assigns {
                    if *x >= nvars {
                        return Err(IrError::BadVarIndex { var: *x });
                    }
                    if seen[*x] {
                        return Err(IrError::DuplicateAssign {
                            command: cmd.name.clone(),
                            var: *x,
                        });
                    }
                    seen[*x] = true;
                    check_expr(e, nvars)?;
                }
            }
        }
        if let Some(p) = self.pc {
            if p >= nvars {
                return Err(IrError::BadPc);
            }
        }
        Ok(())
    }

    /// The analysis location of a concrete valuation: the value of the
    /// `pc` variable, or `0` when the program is flow-insensitive.
    pub fn location_of(&self, vals: &[usize]) -> usize {
        self.pc.map_or(0, |p| vals[p])
    }

    /// The number of analysis locations (`pc`'s domain, or `1`).
    pub fn num_locations(&self) -> usize {
        self.pc.map_or(1, |p| self.domains[p])
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

// ---- structural encoding (content addressing) ----

fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_str(out: &mut Vec<u8>, s: &str) {
    enc_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn enc_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Const(k) => {
            out.push(0);
            enc_i64(out, *k);
        }
        Expr::Var(i) => {
            out.push(1);
            enc_u64(out, *i as u64);
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            out.push(match e {
                Expr::Add(..) => 2,
                Expr::Sub(..) => 3,
                _ => 4,
            });
            enc_expr(out, a);
            enc_expr(out, b);
        }
        Expr::Mod(a, m) => {
            out.push(5);
            enc_expr(out, a);
            enc_u64(out, *m);
        }
    }
}

fn enc_guard(out: &mut Vec<u8>, g: &Guard) {
    match g {
        Guard::True => out.push(0),
        Guard::False => out.push(1),
        Guard::Cmp(op, a, b) => {
            out.push(2);
            out.push(match op {
                Cmp::Eq => 0,
                Cmp::Ne => 1,
                Cmp::Lt => 2,
                Cmp::Le => 3,
                Cmp::Gt => 4,
                Cmp::Ge => 5,
            });
            enc_expr(out, a);
            enc_expr(out, b);
        }
        Guard::Not(inner) => {
            out.push(3);
            enc_guard(out, inner);
        }
        Guard::And(a, b) | Guard::Or(a, b) => {
            out.push(if matches!(g, Guard::And(..)) { 4 } else { 5 });
            enc_guard(out, a);
            enc_guard(out, b);
        }
    }
}

impl Program {
    /// An unambiguous byte encoding of the whole program — every field,
    /// length-prefixed and tagged, so two programs encode equal iff they
    /// are structurally equal (`==`). This is the payload the
    /// classification service hashes to content-address program
    /// artifacts (`hierarchy_automata::canonical::hash_bytes`).
    pub fn structural_encoding(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"absint-program/v1\0");
        enc_u64(&mut out, self.var_names.len() as u64);
        for (name, &dom) in self.var_names.iter().zip(&self.domains) {
            enc_str(&mut out, name);
            enc_u64(&mut out, dom as u64);
        }
        enc_u64(&mut out, self.inits.len() as u64);
        for init in &self.inits {
            enc_u64(&mut out, init.len() as u64);
            for &v in init {
                enc_u64(&mut out, v as u64);
            }
        }
        enc_u64(&mut out, self.observations.len() as u64);
        for g in &self.observations {
            enc_guard(&mut out, g);
        }
        enc_u64(&mut out, self.commands.len() as u64);
        for cmd in &self.commands {
            enc_str(&mut out, &cmd.name);
            out.push(match cmd.fairness {
                Fairness::None => 0,
                Fairness::Weak => 1,
                Fairness::Strong => 2,
            });
            enc_guard(&mut out, &cmd.guard);
            enc_u64(&mut out, cmd.branches.len() as u64);
            for br in &cmd.branches {
                enc_u64(&mut out, br.assigns.len() as u64);
                for (x, e) in &br.assigns {
                    enc_u64(&mut out, *x as u64);
                    enc_expr(&mut out, e);
                }
            }
        }
        match self.pc {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                enc_u64(&mut out, p as u64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_hand_computation() {
        let vals = &[2, 5];
        let e = Expr::v(0).add(Expr::v(1)).mul(Expr::c(3)); // (2+5)*3
        assert_eq!(eval_expr(&e, vals), 21);
        assert_eq!(eval_expr(&e.modulo(5), vals), 1);
        assert_eq!(eval_expr(&Expr::c(-7).modulo(5), vals), 3); // Euclidean
        let g = Guard::lt(Expr::v(0), Expr::v(1)).and(Guard::var_ne(1, 5).not());
        assert!(eval_guard(&g, vals));
        assert!(!eval_guard(&g.negate(), vals));
    }

    #[test]
    fn negate_is_complement_pointwise() {
        let g = Guard::var_eq(0, 1)
            .or(Guard::ge(Expr::v(1), Expr::c(2)))
            .and(Guard::var_ne(0, 0));
        let n = g.negate();
        for a in 0..3 {
            for b in 0..3 {
                let vals = &[a, b];
                assert_ne!(eval_guard(&g, vals), eval_guard(&n, vals), "{vals:?}");
            }
        }
    }

    #[test]
    fn branch_drops_out_of_domain_results() {
        let br = Branch::assign(vec![(0, Expr::v(0).add(Expr::c(1)))]);
        assert_eq!(br.apply(&[0], &[2]), Some(vec![1]));
        assert_eq!(br.apply(&[1], &[2]), None); // 2 leaves {0,1}
        let br = Branch::assign(vec![(0, Expr::v(0).sub(Expr::c(1)))]);
        assert_eq!(br.apply(&[0], &[2]), None); // −1 leaves {0,1}
    }

    #[test]
    fn validate_catches_structural_errors() {
        let mut p = Program::new();
        assert_eq!(p.validate(), Err(IrError::NoVariables));
        let x = p.var("x", 2);
        assert_eq!(p.validate(), Err(IrError::NoInit));
        p.init(&[0]);
        assert_eq!(p.validate(), Ok(()));
        p.init(&[2]);
        assert_eq!(p.validate(), Err(IrError::BadInit { init: 1 }));
        p.inits.pop();
        p.command("bad", Fairness::None, Guard::var_eq(7, 0), vec![]);
        assert_eq!(p.validate(), Err(IrError::BadVarIndex { var: 7 }));
        p.commands[0].guard = Guard::True;
        assert_eq!(
            p.validate(),
            Err(IrError::NoBranches {
                command: "bad".to_string()
            })
        );
        p.commands[0]
            .branches
            .push(Branch::assign(vec![(x, Expr::c(0)), (x, Expr::c(1))]));
        assert_eq!(
            p.validate(),
            Err(IrError::DuplicateAssign {
                command: "bad".to_string(),
                var: x
            })
        );
        p.commands[0].branches[0].assigns.pop();
        assert_eq!(p.validate(), Ok(()));
        p.pc = Some(9);
        assert_eq!(p.validate(), Err(IrError::BadPc));
        p.pc = Some(x);
        assert_eq!(p.validate(), Ok(()));
        p.domains[x] = 65;
        assert!(matches!(p.validate(), Err(IrError::BadDomain { .. })));
    }

    #[test]
    fn structural_encoding_separates_structurally_distinct_programs() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        p.init(&[0]);
        p.observe_prop(Guard::var_eq(x, 1));
        p.command(
            "toggle",
            Fairness::Weak,
            Guard::True,
            vec![Branch::assign(vec![(x, Expr::c(1).sub(Expr::v(x)))])],
        );
        let base = p.structural_encoding();
        assert_eq!(base, p.clone().structural_encoding(), "deterministic");

        let mut renamed = p.clone();
        renamed.var_names[0] = "y".to_string();
        assert_ne!(base, renamed.structural_encoding());

        let mut refair = p.clone();
        refair.commands[0].fairness = Fairness::Strong;
        assert_ne!(base, refair.structural_encoding());

        let mut rewired = p.clone();
        rewired.commands[0].guard = Guard::var_eq(x, 0);
        assert_ne!(base, rewired.structural_encoding());

        let mut with_pc = p.clone();
        with_pc.set_pc(x);
        assert_ne!(base, with_pc.structural_encoding());
    }
}
