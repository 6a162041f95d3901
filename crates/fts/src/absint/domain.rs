//! The value-set domain of the invariant engine.
//!
//! An abstract environment holds one 64-bit mask per variable (bit `v`
//! set ⇔ the variable may be `v`): the most precise *cartesian*
//! abstraction of a `≤ 64`-value domain, with no relations between
//! variables — the pair-relation domain lives in
//! [`relation`](super::relation) on top of these masks. The lattice has
//! height `dom` per variable and joins are bitwise-or, so the solver
//! terminates without widening.
//!
//! The transfer functions lift masks into [`AbsInt`] — a bounded
//! integer-set abstraction — where expression arithmetic and guard
//! refinement happen, then cut the result back to a mask over the
//! declared domain ([`AbsInt::to_mask`]).

use super::ir::{Cmp, Expr, Guard};

/// Cap on explicit value sets inside [`AbsInt`]; larger sets collapse to
/// their interval hull.
const SET_CAP: usize = 64;

/// The mask of a full domain `{0, …, dom−1}` (`dom ≤ 64`).
pub fn full_mask(dom: usize) -> u64 {
    if dom >= 64 {
        u64::MAX
    } else {
        (1u64 << dom) - 1
    }
}

/// A bounded abstraction of a set of integers: bottom, an explicit sorted
/// set of at most `SET_CAP` (64) values, or an interval. This is the lingua
/// franca of the transfer functions: masks lift into it and cut back out
/// of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsInt {
    /// The empty set.
    Bot,
    /// A sorted, deduplicated, non-empty set of values.
    Vals(Vec<i64>),
    /// All integers in `lo..=hi` (`lo ≤ hi`).
    Range(i64, i64),
}

impl AbsInt {
    /// The singleton `{v}`.
    pub fn singleton(v: i64) -> AbsInt {
        AbsInt::Vals(vec![v])
    }

    /// Normalizes a value list (sorts, dedups, collapses to a hull past
    /// the cap).
    pub fn from_vals(mut vs: Vec<i64>) -> AbsInt {
        vs.sort_unstable();
        vs.dedup();
        match vs.len() {
            0 => AbsInt::Bot,
            n if n > SET_CAP => AbsInt::Range(vs[0], vs[n - 1]),
            _ => AbsInt::Vals(vs),
        }
    }

    /// `lo..=hi`, or bottom when empty.
    pub fn range(lo: i64, hi: i64) -> AbsInt {
        if lo > hi {
            AbsInt::Bot
        } else {
            AbsInt::Range(lo, hi)
        }
    }

    /// The set of values in a mask (bit `i` set ⇒ value `i` present).
    pub fn from_mask(mask: u64) -> AbsInt {
        if mask == 0 {
            return AbsInt::Bot;
        }
        AbsInt::Vals((0..64).filter(|i| mask >> i & 1 == 1).collect())
    }

    /// The mask of values within `{0, …, dom−1}`.
    pub fn to_mask(&self, dom: usize) -> u64 {
        match self {
            AbsInt::Bot => 0,
            AbsInt::Vals(vs) => vs
                .iter()
                .filter(|&&v| v >= 0 && v < dom as i64)
                .fold(0u64, |m, &v| m | 1u64 << v),
            AbsInt::Range(lo, hi) => {
                let lo = (*lo).max(0);
                let hi = (*hi).min(dom as i64 - 1);
                (lo..=hi).fold(0u64, |m, v| m | 1u64 << v)
            }
        }
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<i64> {
        match self {
            AbsInt::Bot => None,
            AbsInt::Vals(vs) => Some(vs[0]),
            AbsInt::Range(lo, _) => Some(*lo),
        }
    }

    /// Largest member, if any.
    pub fn max(&self) -> Option<i64> {
        match self {
            AbsInt::Bot => None,
            AbsInt::Vals(vs) => Some(*vs.last().unwrap()),
            AbsInt::Range(_, hi) => Some(*hi),
        }
    }

    /// Membership test.
    pub fn contains(&self, v: i64) -> bool {
        match self {
            AbsInt::Bot => false,
            AbsInt::Vals(vs) => vs.binary_search(&v).is_ok(),
            AbsInt::Range(lo, hi) => *lo <= v && v <= *hi,
        }
    }

    fn binop(
        a: &AbsInt,
        b: &AbsInt,
        f: impl Fn(i64, i64) -> i64,
        hull: impl Fn(i64, i64, i64, i64) -> (i64, i64),
    ) -> AbsInt {
        match (a, b) {
            (AbsInt::Bot, _) | (_, AbsInt::Bot) => AbsInt::Bot,
            (AbsInt::Vals(xs), AbsInt::Vals(ys)) if xs.len() * ys.len() <= 4 * SET_CAP => {
                let mut out = Vec::with_capacity(xs.len() * ys.len());
                for &x in xs {
                    for &y in ys {
                        out.push(f(x, y));
                    }
                }
                AbsInt::from_vals(out)
            }
            _ => {
                let (alo, ahi) = (a.min().unwrap(), a.max().unwrap());
                let (blo, bhi) = (b.min().unwrap(), b.max().unwrap());
                let (lo, hi) = hull(alo, ahi, blo, bhi);
                AbsInt::range(lo, hi)
            }
        }
    }

    /// Abstract addition.
    pub fn add(a: &AbsInt, b: &AbsInt) -> AbsInt {
        AbsInt::binop(
            a,
            b,
            |x, y| x + y,
            |alo, ahi, blo, bhi| (alo + blo, ahi + bhi),
        )
    }

    /// Abstract subtraction.
    pub fn sub(a: &AbsInt, b: &AbsInt) -> AbsInt {
        AbsInt::binop(
            a,
            b,
            |x, y| x - y,
            |alo, ahi, blo, bhi| (alo - bhi, ahi - blo),
        )
    }

    /// Abstract multiplication.
    pub fn mul(a: &AbsInt, b: &AbsInt) -> AbsInt {
        AbsInt::binop(
            a,
            b,
            |x, y| x * y,
            |alo, ahi, blo, bhi| {
                let corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
                (
                    *corners.iter().min().unwrap(),
                    *corners.iter().max().unwrap(),
                )
            },
        )
    }

    /// Abstract Euclidean remainder modulo a positive constant.
    pub fn modm(a: &AbsInt, m: i64) -> AbsInt {
        debug_assert!(m > 0);
        match a {
            AbsInt::Bot => AbsInt::Bot,
            AbsInt::Vals(vs) => AbsInt::from_vals(vs.iter().map(|v| v.rem_euclid(m)).collect()),
            AbsInt::Range(lo, hi) => {
                if hi - lo + 1 >= m {
                    return AbsInt::range(0, m - 1);
                }
                let (rl, rh) = (lo.rem_euclid(m), hi.rem_euclid(m));
                if rl <= rh {
                    AbsInt::range(rl, rh)
                } else {
                    AbsInt::range(0, m - 1) // the range wraps around 0
                }
            }
        }
    }

    /// May `a op b` hold for some `(x, y) ∈ a × b`? (Over-approximate:
    /// `true` may be spurious, `false` never is.)
    pub fn may_hold(op: Cmp, a: &AbsInt, b: &AbsInt) -> bool {
        let (Some(alo), Some(ahi), Some(blo), Some(bhi)) = (a.min(), a.max(), b.min(), b.max())
        else {
            return false;
        };
        match op {
            Cmp::Lt => alo < bhi,
            Cmp::Le => alo <= bhi,
            Cmp::Gt => ahi > blo,
            Cmp::Ge => ahi >= blo,
            Cmp::Ne => !(alo == ahi && blo == bhi && alo == blo),
            Cmp::Eq => match (a, b) {
                (AbsInt::Vals(xs), AbsInt::Vals(ys)) => {
                    xs.iter().any(|x| ys.binary_search(x).is_ok())
                }
                (AbsInt::Vals(xs), _) => xs.iter().any(|x| b.contains(*x)),
                (_, AbsInt::Vals(ys)) => ys.iter().any(|y| a.contains(*y)),
                _ => alo.max(blo) <= ahi.min(bhi),
            },
        }
    }

    fn clamp_max(&self, hi: i64) -> AbsInt {
        match self {
            AbsInt::Bot => AbsInt::Bot,
            AbsInt::Vals(vs) => {
                AbsInt::from_vals(vs.iter().copied().filter(|&v| v <= hi).collect())
            }
            AbsInt::Range(l, h) => AbsInt::range(*l, (*h).min(hi)),
        }
    }

    fn clamp_min(&self, lo: i64) -> AbsInt {
        match self {
            AbsInt::Bot => AbsInt::Bot,
            AbsInt::Vals(vs) => {
                AbsInt::from_vals(vs.iter().copied().filter(|&v| v >= lo).collect())
            }
            AbsInt::Range(l, h) => AbsInt::range((*l).max(lo), *h),
        }
    }

    /// Set intersection (exact on value sets, hull-intersection on
    /// ranges).
    pub fn intersect(a: &AbsInt, b: &AbsInt) -> AbsInt {
        match (a, b) {
            (AbsInt::Bot, _) | (_, AbsInt::Bot) => AbsInt::Bot,
            (AbsInt::Vals(xs), _) => {
                AbsInt::from_vals(xs.iter().copied().filter(|&x| b.contains(x)).collect())
            }
            (_, AbsInt::Vals(ys)) => {
                AbsInt::from_vals(ys.iter().copied().filter(|&y| a.contains(y)).collect())
            }
            (AbsInt::Range(al, ah), AbsInt::Range(bl, bh)) => {
                AbsInt::range(*al.max(bl), *ah.min(bh))
            }
        }
    }

    /// The subset of `a` whose elements can satisfy `x op y` for *some*
    /// `y ∈ b` (sound guard refinement: never drops a satisfying value).
    pub fn refine(op: Cmp, a: &AbsInt, b: &AbsInt) -> AbsInt {
        if matches!(a, AbsInt::Bot) || matches!(b, AbsInt::Bot) {
            return AbsInt::Bot;
        }
        match op {
            Cmp::Eq => AbsInt::intersect(a, b),
            Cmp::Ne => match b {
                AbsInt::Vals(ys) if ys.len() == 1 => {
                    let c = ys[0];
                    match a {
                        AbsInt::Vals(xs) => {
                            AbsInt::from_vals(xs.iter().copied().filter(|&x| x != c).collect())
                        }
                        AbsInt::Range(lo, hi) if *lo == *hi && *lo == c => AbsInt::Bot,
                        AbsInt::Range(lo, hi) if *lo == c => AbsInt::range(lo + 1, *hi),
                        AbsInt::Range(lo, hi) if *hi == c => AbsInt::range(*lo, hi - 1),
                        other => other.clone(),
                    }
                }
                _ => a.clone(),
            },
            Cmp::Lt => a.clamp_max(b.max().unwrap() - 1),
            Cmp::Le => a.clamp_max(b.max().unwrap()),
            Cmp::Gt => a.clamp_min(b.min().unwrap() + 1),
            Cmp::Ge => a.clamp_min(b.min().unwrap()),
        }
    }
}

/// Which abstract domain to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainKind {
    /// Per-variable value sets (64-bit masks).
    ValueSets,
    /// Pair relations: joint value sets for every variable pair on top of
    /// the per-variable masks (see [`relation`](super::relation)).
    Relational,
}

impl DomainKind {
    /// Both domains, in increasing precision order.
    pub const ALL: [DomainKind; 2] = [DomainKind::ValueSets, DomainKind::Relational];

    /// A stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::ValueSets => "value-sets",
            DomainKind::Relational => "relational",
        }
    }
}

/// Abstractly evaluates an expression in an environment of per-variable
/// value masks.
pub fn eval_expr_abs(e: &Expr, env: &[u64]) -> AbsInt {
    match e {
        Expr::Const(k) => AbsInt::singleton(*k),
        Expr::Var(i) => AbsInt::from_mask(env[*i]),
        Expr::Add(a, b) => AbsInt::add(&eval_expr_abs(a, env), &eval_expr_abs(b, env)),
        Expr::Sub(a, b) => AbsInt::sub(&eval_expr_abs(a, env), &eval_expr_abs(b, env)),
        Expr::Mul(a, b) => AbsInt::mul(&eval_expr_abs(a, env), &eval_expr_abs(b, env)),
        Expr::Mod(a, m) => AbsInt::modm(&eval_expr_abs(a, env), *m as i64),
    }
}

fn assume_into(g: &Guard, env: &mut [u64], domains: &[usize]) -> bool {
    match g {
        Guard::True => true,
        Guard::False => false,
        Guard::Not(inner) => assume_into(&inner.negate(), env, domains),
        Guard::And(a, b) => assume_into(a, env, domains) && assume_into(b, env, domains),
        Guard::Or(a, b) => {
            let mut left = env.to_vec();
            let lok = assume_into(a, &mut left, domains);
            let mut right = env.to_vec();
            let rok = assume_into(b, &mut right, domains);
            match (lok, rok) {
                (false, false) => false,
                (true, false) => {
                    env.copy_from_slice(&left);
                    true
                }
                (false, true) => {
                    env.copy_from_slice(&right);
                    true
                }
                (true, true) => {
                    for (slot, (l, r)) in env.iter_mut().zip(left.iter().zip(&right)) {
                        *slot = l | r;
                    }
                    true
                }
            }
        }
        Guard::Cmp(op, ea, eb) => {
            let a = eval_expr_abs(ea, env);
            let b = eval_expr_abs(eb, env);
            if !AbsInt::may_hold(*op, &a, &b) {
                return false;
            }
            if let Expr::Var(x) = ea {
                let v = AbsInt::refine(*op, &a, &b).to_mask(domains[*x]);
                if v == 0 {
                    return false;
                }
                env[*x] = v;
            }
            if let Expr::Var(y) = eb {
                let v = AbsInt::refine(op.flip(), &b, &a).to_mask(domains[*y]);
                if v == 0 {
                    return false;
                }
                env[*y] = v;
            }
            true
        }
    }
}

/// Restricts `env` to the states that may satisfy `g`; `None` when the
/// guard is abstractly infeasible. Sound: every concrete state in `env`
/// satisfying `g` survives.
pub fn assume(g: &Guard, env: &[u64], domains: &[usize]) -> Option<Vec<u64>> {
    let mut out = env.to_vec();
    if assume_into(g, &mut out, domains) {
        Some(out)
    } else {
        None
    }
}

/// Three-valued guard evaluation over an abstract environment:
/// `Some(true)` — every state satisfies `g`; `Some(false)` — no state
/// does; `None` — undetermined.
pub fn guard_status(g: &Guard, env: &[u64], domains: &[usize]) -> Option<bool> {
    let can_true = assume(g, env, domains).is_some();
    let can_false = assume(&g.negate(), env, domains).is_some();
    match (can_true, can_false) {
        (true, true) => None,
        (true, false) => Some(true),
        // (false, false) only for a bottom environment — report "never".
        (false, _) => Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absint_arithmetic_is_exact_on_small_sets() {
        let a = AbsInt::from_vals(vec![1, 3]);
        let b = AbsInt::from_vals(vec![0, 2]);
        assert_eq!(AbsInt::add(&a, &b), AbsInt::from_vals(vec![1, 3, 5]));
        assert_eq!(AbsInt::sub(&a, &b), AbsInt::from_vals(vec![-1, 1, 3]));
        assert_eq!(AbsInt::mul(&a, &b), AbsInt::from_vals(vec![0, 2, 6]));
        assert_eq!(AbsInt::modm(&a, 2), AbsInt::singleton(1));
    }

    #[test]
    fn absint_range_arithmetic_is_sound() {
        let a = AbsInt::range(1, 3);
        let b = AbsInt::range(-2, 2);
        let sum = AbsInt::add(&a, &b);
        let prod = AbsInt::mul(&a, &b);
        for x in 1..=3 {
            for y in -2..=2 {
                assert!(sum.contains(x + y), "{x}+{y}");
                assert!(prod.contains(x * y), "{x}*{y}");
            }
        }
        // Wrapping mod collapses to the full remainder range.
        assert_eq!(AbsInt::modm(&AbsInt::range(2, 4), 4), AbsInt::range(0, 3));
        // Non-wrapping mod stays tight.
        assert_eq!(AbsInt::modm(&AbsInt::range(5, 6), 4), AbsInt::range(1, 2));
    }

    #[test]
    fn may_hold_never_misses_a_witness() {
        let sets = [
            AbsInt::Bot,
            AbsInt::singleton(1),
            AbsInt::from_vals(vec![0, 2]),
            AbsInt::range(1, 3),
        ];
        for a in &sets {
            for b in &sets {
                for op in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
                    let concrete = (0..4)
                        .any(|x| (0..4).any(|y| a.contains(x) && b.contains(y) && op.eval(x, y)));
                    if concrete {
                        assert!(AbsInt::may_hold(op, a, b), "{op:?} {a:?} {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn refine_keeps_every_satisfying_value() {
        let sets = [
            AbsInt::singleton(2),
            AbsInt::from_vals(vec![0, 3]),
            AbsInt::range(0, 3),
        ];
        for a in &sets {
            for b in &sets {
                for op in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
                    let r = AbsInt::refine(op, a, b);
                    for x in 0..4 {
                        let sat = a.contains(x) && (0..4).any(|y| b.contains(y) && op.eval(x, y));
                        if sat {
                            assert!(r.contains(x), "{op:?} {a:?} {b:?} lost {x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn assume_refines_variables() {
        let domains = &[4, 4];
        // x ∈ {0..3}, y ∈ {0..3}; assume x < y.
        let env = vec![0b1111, 0b1111];
        let out = assume(&Guard::lt(Expr::v(0), Expr::v(1)), &env, domains).unwrap();
        assert_eq!(out[0], 0b0111); // x ≤ 2
        assert_eq!(out[1], 0b1110); // y ≥ 1
                                    // x == 2 ∧ x == 3 is infeasible.
        assert!(assume(&Guard::var_eq(0, 2).and(Guard::var_eq(0, 3)), &env, domains,).is_none());
        // Or joins both sides.
        let out = assume(&Guard::var_eq(0, 1).or(Guard::var_eq(0, 3)), &env, domains).unwrap();
        assert_eq!(out[0], 0b1010);
    }

    #[test]
    fn guard_status_is_three_valued() {
        let domains = &[4];
        let env = vec![0b0011]; // x ∈ {0, 1}
        assert_eq!(
            guard_status(&Guard::lt(Expr::v(0), Expr::c(2)), &env, domains),
            Some(true)
        );
        assert_eq!(
            guard_status(&Guard::var_eq(0, 3), &env, domains),
            Some(false)
        );
        assert_eq!(guard_status(&Guard::var_eq(0, 1), &env, domains), None);
    }

    #[test]
    fn to_mask_clips_to_the_domain() {
        let ai = AbsInt::from_vals(vec![0, 5]);
        assert_eq!(ai.to_mask(3), 0b001);
        assert_eq!(ai.to_mask(6), 0b100001);
        assert_eq!(AbsInt::range(-2, 9).to_mask(4), 0b1111);
    }
}
