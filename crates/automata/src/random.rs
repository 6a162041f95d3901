//! Random generators for automata, pair lists and lasso words, used by the
//! property-based tests and the decision-procedure benchmarks (`TAB-DEC`),
//! plus the vendored PRNG ([`rng`]) that drives them without any external
//! dependency.

use crate::acceptance::Acceptance;
use crate::alphabet::Alphabet;
use crate::bitset::BitSet;
use crate::dfa::Dfa;
use crate::lasso::Lasso;
use crate::omega::OmegaAutomaton;
use crate::streett::{StreettPair, StreettPairs};
use crate::StateId;
use rng::Rng;

/// A small vendored PRNG: splitmix64 seeding feeding a xoshiro256\*\*
/// generator (Blackman & Vigna's public-domain reference algorithms).
///
/// The surface mirrors the subset of `rand` 0.8 the workspace used —
/// `Rng::{gen_range, gen_bool}`, `SeedableRng::seed_from_u64`, and the
/// `StdRng` alias — so test and bench code reads identically while the
/// build stays fully offline. Not cryptographically secure; statistical
/// quality only.
pub mod rng {
    /// The splitmix64 step: used to expand a 64-bit seed into the
    /// xoshiro256\*\* state vector.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A half-open or inclusive range that [`Rng::gen_range`] can sample
    /// from uniformly.
    pub trait SampleRange {
        /// The sampled value type.
        type Output;
        /// Draws a uniform sample using the given generator.
        fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
    }

    impl SampleRange for core::ops::Range<usize> {
        type Output = usize;
        fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
            assert!(self.start < self.end, "cannot sample empty range");
            let span = (self.end - self.start) as u64;
            self.start + (uniform_below(rng, span) as usize)
        }
    }

    impl SampleRange for core::ops::RangeInclusive<usize> {
        type Output = usize;
        fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "cannot sample empty range");
            let span = (hi - lo) as u64 + 1;
            if span == 0 {
                // Full u64-width inclusive range: any draw is in range.
                return rng.next_u64() as usize;
            }
            lo + (uniform_below(rng, span) as usize)
        }
    }

    /// Debiased uniform draw in `0..bound` by rejection sampling.
    fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// The generator interface: a raw 64-bit step plus the derived sampling
    /// helpers the generators in [`super`] use.
    pub trait Rng {
        /// The next raw 64-bit output of the generator.
        fn next_u64(&mut self) -> u64;

        /// A uniform sample from `range` (half-open or inclusive).
        fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
        where
            Self: Sized,
        {
            range.sample(self)
        }

        /// `true` with probability `p` (clamped to `[0, 1]`).
        fn gen_bool(&mut self, p: f64) -> bool
        where
            Self: Sized,
        {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
            // 53 random bits → a uniform float in [0, 1).
            let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            unit < p
        }
    }

    impl<R: Rng + ?Sized> Rng for &mut R {
        fn next_u64(&mut self) -> u64 {
            (**self).next_u64()
        }
    }

    /// Deterministic construction from a 64-bit seed.
    pub trait SeedableRng: Sized {
        /// Builds a generator whose stream is a pure function of `seed`.
        fn seed_from_u64(seed: u64) -> Self;
    }

    /// xoshiro256\*\* — 256 bits of state, period `2^256 − 1`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Xoshiro256StarStar {
        s: [u64; 4],
    }

    /// The workspace's default generator (name kept parallel to
    /// `rand::rngs::StdRng` so call sites read identically).
    pub type StdRng = Xoshiro256StarStar;

    impl SeedableRng for Xoshiro256StarStar {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Xoshiro256StarStar { s }
        }
    }

    impl Rng for Xoshiro256StarStar {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn deterministic_and_seed_sensitive() {
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            let mut c = StdRng::seed_from_u64(43);
            let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
            let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
            let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
            assert_eq!(xs, ys);
            assert_ne!(xs, zs);
        }

        #[test]
        fn gen_range_respects_bounds() {
            let mut rng = StdRng::seed_from_u64(7);
            let mut hit_lo = false;
            let mut hit_hi = false;
            for _ in 0..2000 {
                let v = rng.gen_range(3..7usize);
                assert!((3..7).contains(&v));
                let w = rng.gen_range(0..=4usize);
                assert!(w <= 4);
                hit_lo |= w == 0;
                hit_hi |= w == 4;
            }
            // Both inclusive endpoints are actually reachable.
            assert!(hit_lo && hit_hi);
        }

        #[test]
        fn gen_bool_tracks_probability() {
            let mut rng = StdRng::seed_from_u64(9);
            let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
            // ~2500 expected; allow a generous band.
            assert!((2000..3000).contains(&hits), "got {hits}");
            assert!((0..100).all(|_| !rng.gen_bool(0.0)));
            assert!((0..100).all(|_| rng.gen_bool(1.0)));
        }

        #[test]
        fn works_through_mut_references() {
            fn draw<R: Rng>(mut r: R) -> usize {
                r.gen_range(0..10usize)
            }
            let mut rng = StdRng::seed_from_u64(11);
            let _ = draw(&mut rng);
            let _ = draw(&mut rng);
        }
    }
}

/// A uniformly random complete DFA with `num_states` states; each state is
/// accepting with probability `accept_p`.
pub fn random_dfa<R: Rng>(
    rng: &mut R,
    alphabet: &Alphabet,
    num_states: usize,
    accept_p: f64,
) -> Dfa {
    let table: Vec<StateId> = (0..num_states * alphabet.len())
        .map(|_| rng.gen_range(0..num_states) as StateId)
        .collect();
    let accepting: BitSet = (0..num_states).filter(|_| rng.gen_bool(accept_p)).collect();
    Dfa::from_parts(alphabet, num_states, 0, table, accepting).expect("random table is well-formed")
}

/// A random deterministic transition structure (acceptance `True`), to be
/// combined with a random pair list.
pub fn random_structure<R: Rng>(
    rng: &mut R,
    alphabet: &Alphabet,
    num_states: usize,
) -> OmegaAutomaton {
    OmegaAutomaton::build(
        alphabet,
        num_states,
        0,
        |_, _| rng.gen_range(0..num_states) as StateId,
        crate::acceptance::Acceptance::True,
    )
}

/// A random Streett pair list: `k` pairs whose member sets include each
/// state with probability `p`.
pub fn random_pairs<R: Rng>(rng: &mut R, num_states: usize, k: usize, p: f64) -> StreettPairs {
    StreettPairs(
        (0..k)
            .map(|_| {
                let recurrent: Vec<usize> = (0..num_states).filter(|_| rng.gen_bool(p)).collect();
                let persistent: Vec<usize> = (0..num_states).filter(|_| rng.gen_bool(p)).collect();
                StreettPair::new(recurrent, persistent)
            })
            .collect(),
    )
}

/// A random deterministic Streett automaton together with its pair list.
pub fn random_streett<R: Rng>(
    rng: &mut R,
    alphabet: &Alphabet,
    num_states: usize,
    k: usize,
    p: f64,
) -> (OmegaAutomaton, StreettPairs) {
    let pairs = random_pairs(rng, num_states, k, p);
    let structure = random_structure(rng, alphabet, num_states);
    let aut = structure.with_acceptance(pairs.acceptance(num_states));
    (aut, pairs)
}

/// A random deterministic Rabin automaton: `k` pairs `(Eᵢ, Fᵢ)` whose
/// member sets include each state with probability `p`, as the
/// disjunction `⋁ᵢ Inf(Fᵢ) ∧ Fin(Eᵢ)`.
pub fn random_rabin<R: Rng>(
    rng: &mut R,
    alphabet: &Alphabet,
    num_states: usize,
    k: usize,
    p: f64,
) -> OmegaAutomaton {
    let pairs: Vec<(BitSet, BitSet)> = (0..k)
        .map(|_| {
            let avoid: BitSet = (0..num_states).filter(|_| rng.gen_bool(p)).collect();
            let visit: BitSet = (0..num_states).filter(|_| rng.gen_bool(p)).collect();
            (avoid, visit)
        })
        .collect();
    let structure = random_structure(rng, alphabet, num_states);
    structure.with_acceptance(crate::streett::rabin(&pairs))
}

/// A random deterministic parity automaton (min-even): every state gets
/// a uniform priority in `0..=max_priority`, encoded through
/// [`Acceptance::parity_min_even`](crate::acceptance::Acceptance::parity_min_even)
/// so the resulting condition admits a
/// [`ParityView`](crate::inclusion::ParityView).
pub fn random_parity<R: Rng>(
    rng: &mut R,
    alphabet: &Alphabet,
    num_states: usize,
    max_priority: u32,
) -> OmegaAutomaton {
    let priorities: Vec<u32> = (0..num_states)
        .map(|_| rng.gen_range(0..=max_priority as usize) as u32)
        .collect();
    let structure = random_structure(rng, alphabet, num_states);
    structure.with_acceptance(Acceptance::parity_min_even(&priorities))
}

/// A random boolean acceptance condition over `num_states` states: an
/// `And`/`Or` tree of depth at most `depth` over `Inf`/`Fin` atoms that
/// hold each state with probability 0.4.
pub fn random_acceptance<R: Rng>(rng: &mut R, num_states: usize, depth: usize) -> Acceptance {
    let set = |rng: &mut R| -> BitSet { (0..num_states).filter(|_| rng.gen_bool(0.4)).collect() };
    if depth == 0 {
        return if rng.gen_bool(0.5) {
            Acceptance::Inf(set(rng))
        } else {
            Acceptance::Fin(set(rng))
        };
    }
    let sub = |rng: &mut R| random_acceptance(rng, num_states, depth - 1);
    match rng.gen_range(0..4usize) {
        0 => Acceptance::Inf(set(rng)),
        1 => Acceptance::Fin(set(rng)),
        2 => sub(rng).and(sub(rng)),
        _ => sub(rng).or(sub(rng)),
    }
}

/// A random lasso with spoke length up to `max_spoke` and loop length in
/// `1..=max_cycle`.
pub fn random_lasso<R: Rng>(
    rng: &mut R,
    alphabet: &Alphabet,
    max_spoke: usize,
    max_cycle: usize,
) -> Lasso {
    let spoke_len = rng.gen_range(0..=max_spoke);
    let cycle_len = rng.gen_range(1..=max_cycle.max(1));
    let rand_word = |rng: &mut R, len: usize| {
        (0..len)
            .map(|_| crate::alphabet::Symbol(rng.gen_range(0..alphabet.len()) as u8))
            .collect()
    };
    let spoke = rand_word(rng, spoke_len);
    let cycle = rand_word(rng, cycle_len);
    Lasso::new(spoke, cycle)
}

#[cfg(test)]
mod tests {
    use super::rng::{SeedableRng, StdRng};
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn random_dfa_is_wellformed() {
        let mut rng = StdRng::seed_from_u64(1);
        let sigma = ab();
        for _ in 0..20 {
            let d = random_dfa(&mut rng, &sigma, 8, 0.4);
            assert_eq!(d.num_states(), 8);
            // Exercise the language a bit.
            let _ = d.is_empty();
            let _ = d.minimize();
        }
    }

    #[test]
    fn random_streett_classifiable() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = ab();
        for _ in 0..10 {
            let (aut, pairs) = random_streett(&mut rng, &sigma, 6, 2, 0.3);
            assert_eq!(pairs.len(), 2);
            let c = crate::classify::classify(&aut);
            // Hierarchy invariants must hold on arbitrary automata.
            assert!(!c.is_obligation || (c.is_recurrence && c.is_persistence));
            assert!(!c.is_safety || c.is_obligation);
            assert!(!c.is_guarantee || c.is_obligation);
            assert!(c.reactivity_index >= 1);
        }
    }

    #[test]
    fn random_rabin_and_parity_are_wellformed() {
        let mut rng = StdRng::seed_from_u64(4);
        let sigma = ab();
        for _ in 0..10 {
            let r = random_rabin(&mut rng, &sigma, 6, 2, 0.3);
            assert_eq!(r.num_states(), 6);
            let _ = crate::classify::classify(&r);
            let p = random_parity(&mut rng, &sigma, 6, 3);
            assert!(
                crate::inclusion::ParityView::try_of(p.acceptance(), 6).is_some(),
                "parity automata must admit a parity view"
            );
        }
    }

    #[test]
    fn random_lasso_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let sigma = ab();
        for _ in 0..50 {
            let w = random_lasso(&mut rng, &sigma, 4, 3);
            assert!(w.spoke().len() <= 4);
            assert!((1..=3).contains(&w.cycle().len()));
        }
    }
}
