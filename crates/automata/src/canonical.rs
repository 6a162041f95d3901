//! Content addressing for ω-automata: a structural hash over the
//! canonical quotient form.
//!
//! The classification service (`crates/serve`) keys every ingested
//! artifact by a hash so that repeat and near-duplicate submissions
//! become cache hits instead of fresh [`Analysis`](crate::analysis)
//! builds. Hashing the raw automaton would miss the most common
//! near-duplicates — the *same* machine with its states renumbered, or
//! with unreachable junk attached — so [`structural_hash`] first maps
//! the automaton to its **canonical form**: the partition-refinement
//! quotient of [`crate::minimize`], which is trim, merged up to
//! acceptance-respecting bisimulation, and BFS-renumbered from the
//! initial state in symbol order. Minimization is structurally
//! idempotent, so:
//!
//! * `structural_hash(a) == structural_hash(minimize(a).quotient)` for
//!   every automaton `a` (re-ingesting a canonical form collides);
//! * any two automata whose canonical forms are *identical* — state
//!   renamings, unreachable-state padding, bisimilar blow-ups — hash
//!   equal on purpose;
//! * hash-equal automata over the same alphabet are language-equal
//!   (identical canonical structure implies identical language; the
//!   `content_hash` test suite asserts this with the independent
//!   [`Analysis::equivalent`](crate::analysis::Analysis::equivalent)
//!   oracle on seeded sweeps).
//!
//! The converse does **not** hold: two automata may recognize the same
//! language through differently shaped acceptance conditions (say a
//! Büchi condition and an equivalent one-pair Streett condition) and
//! hash apart. The service closes that gap at ingest time with an
//! explicit equivalence sweep (see `crates/serve`); the hash is the
//! cheap first-level key, not the full language identity.
//!
//! The hash itself is a 128-bit non-cryptographic digest (two mixed
//! FNV-1a lanes finalized with splitmix64) over an unambiguous byte
//! encoding of alphabet, transitions, and acceptance. It is stable
//! across runs and platforms — suitable for content addressing inside
//! one trust domain, not for adversarial inputs.

use crate::acceptance::Acceptance;
use crate::analysis::Analysis;
use crate::minimize::minimize;
use crate::omega::OmegaAutomaton;
use std::fmt;

/// A 128-bit content hash of a service artifact (see the module docs).
///
/// Displays as 32 lowercase hex digits; [`ArtifactHash::parse`] reads
/// the same form back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactHash(pub [u8; 16]);

impl fmt::Display for ArtifactHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl ArtifactHash {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<ArtifactHash> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(ArtifactHash(out))
    }
}

/// Two-lane streaming hasher: lane 1 is standard FNV-1a/64, lane 2 an
/// FNV-1a variant with a different offset basis whose input bytes are
/// pre-rotated, so the lanes decorrelate; both are finalized through
/// splitmix64 with lane 1 folded into lane 2.
struct Digest {
    h1: u64,
    h2: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Digest {
    fn new() -> Digest {
        Digest {
            h1: 0xcbf2_9ce4_8422_2325,        // FNV offset basis
            h2: 0x6c62_272e_07bb_0142 ^ 0xA5, // a distinct basis
        }
    }

    fn byte(&mut self, b: u8) {
        self.h1 = (self.h1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.h2 = (self.h2 ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Length-prefixed string, so `["ab","c"]` and `["a","bc"]` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> ArtifactHash {
        let a = splitmix64(self.h1);
        let b = splitmix64(self.h2 ^ self.h1.rotate_left(32));
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        ArtifactHash(out)
    }
}

fn hash_acceptance(d: &mut Digest, acc: &Acceptance) {
    match acc {
        Acceptance::True => d.byte(0),
        Acceptance::False => d.byte(1),
        Acceptance::Inf(s) | Acceptance::Fin(s) => {
            d.byte(if matches!(acc, Acceptance::Inf(_)) {
                2
            } else {
                3
            });
            let members: Vec<usize> = s.iter().collect();
            d.u64(members.len() as u64);
            for q in members {
                d.u64(q as u64);
            }
        }
        Acceptance::And(xs) | Acceptance::Or(xs) => {
            d.byte(if matches!(acc, Acceptance::And(_)) {
                4
            } else {
                5
            });
            d.u64(xs.len() as u64);
            for x in xs {
                hash_acceptance(d, x);
            }
        }
    }
}

/// Hashes an automaton **assumed to already be in canonical form** (the
/// output of [`minimize`]); see [`structural_hash`] for the entry point
/// that canonicalizes first. Exposed so a caller that already holds a
/// [`Minimization`](crate::minimize::Minimization) — e.g. through
/// [`Analysis::minimization`](crate::analysis::Analysis::minimization)
/// — can hash without re-running partition refinement.
pub fn hash_canonical(canonical: &OmegaAutomaton) -> ArtifactHash {
    let mut d = Digest::new();
    d.bytes(b"omega/v1\0");
    // The alphabet is part of the identity: `Analysis::equivalent`
    // (which hash-equality must entail) is only defined over equal
    // alphabets, and proposition alphabets carry their valuation
    // structure in the names.
    let props = canonical.alphabet().propositions();
    if props.is_empty() {
        d.byte(b'L');
        d.u64(canonical.alphabet().len() as u64);
        for sym in canonical.alphabet().symbols() {
            d.str(canonical.alphabet().name(sym));
        }
    } else {
        d.byte(b'P');
        d.u64(props.len() as u64);
        for p in props {
            d.str(p);
        }
    }
    d.u64(canonical.num_states() as u64);
    d.u64(u64::from(canonical.initial()));
    for q in 0..canonical.num_states() as crate::StateId {
        for sym in canonical.alphabet().symbols() {
            d.u64(u64::from(canonical.step(q, sym)));
        }
    }
    hash_acceptance(&mut d, canonical.acceptance());
    d.finish()
}

/// The structural content hash of an ω-automaton: the digest of its
/// canonical quotient form (see the module docs for the guarantees).
pub fn structural_hash(aut: &OmegaAutomaton) -> ArtifactHash {
    hash_canonical(&minimize(aut).quotient)
}

/// How [`language_eq`] decided (or failed to decide) language equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanguageEq {
    /// The canonical hashes agree: language-equal with **no** oracle
    /// call, since hash equality over a shared alphabet implies
    /// identical canonical structure (see the module docs).
    HashEqual,
    /// The hashes differ but the
    /// [`Analysis::equivalent`](crate::analysis::Analysis::equivalent)
    /// oracle proved the languages equal — the same language recognized
    /// through differently shaped acceptance conditions.
    OracleEqual,
    /// The languages provably differ.
    Distinct,
}

impl LanguageEq {
    /// Whether the verdict is "same language".
    pub fn is_equal(self) -> bool {
        !matches!(self, LanguageEq::Distinct)
    }
}

/// Decides language equality of `lhs` — with its precomputed
/// [`structural_hash`] and a live [`Analysis`] context — against `rhs`
/// in three steps: the canonical hash, then `lhs`'s lasso sample, then
/// the polynomial equivalence oracle. Returns `None` when the alphabets
/// differ (equivalence is undefined across alphabets).
///
/// The sample refutes before the oracle proves: when `rhs` rejects
/// [`Analysis::accepted_lasso`](crate::analysis::Analysis::accepted_lasso)
/// or accepts
/// [`Analysis::rejected_lasso`](crate::analysis::Analysis::rejected_lasso),
/// the languages are `Distinct` after two runs of `rhs` on a lasso, with
/// no oracle run and no count in `lhs`'s
/// [`AnalysisStats`](crate::analysis::AnalysisStats). Only pairs the
/// sample cannot tell apart reach [`Analysis::equivalent`].
///
/// This is the single implementation behind both the serve store's
/// ingest-time equivalence sweep and the suite auditor's `SUITE002`
/// duplicate rule, so the two paths cannot drift: hash-equal pairs are
/// answered for free, most distinct pairs by the sample, and only the
/// rest spend an oracle run.
pub fn language_eq(
    lhs_hash: ArtifactHash,
    lhs: &Analysis,
    rhs_hash: ArtifactHash,
    rhs: &OmegaAutomaton,
) -> Option<LanguageEq> {
    if lhs.automaton().alphabet() != rhs.alphabet() {
        return None;
    }
    if lhs_hash == rhs_hash {
        return Some(LanguageEq::HashEqual);
    }
    if lhs.accepted_lasso().is_some_and(|w| !rhs.accepts(w))
        || lhs.rejected_lasso().is_some_and(|w| rhs.accepts(w))
    {
        return Some(LanguageEq::Distinct);
    }
    if lhs.equivalent(rhs) {
        Some(LanguageEq::OracleEqual)
    } else {
        Some(LanguageEq::Distinct)
    }
}

/// A content hash for non-automaton artifacts: digests a kind tag plus
/// an unambiguous byte encoding supplied by the caller (e.g.
/// `Program::structural_encoding` in the `fts` crate). The tag keeps
/// artifact kinds from ever colliding with each other or with
/// [`structural_hash`].
pub fn hash_bytes(kind: &str, bytes: &[u8]) -> ArtifactHash {
    let mut d = Digest::new();
    d.bytes(b"blob/v1\0");
    d.str(kind);
    d.u64(bytes.len() as u64);
    d.bytes(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::random::random_streett;
    use crate::random::rng::{Rng, SeedableRng, StdRng};
    use crate::StateId;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn display_and_parse_round_trip() {
        let h = hash_bytes("test", b"payload");
        let text = h.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(ArtifactHash::parse(&text), Some(h));
        assert_eq!(ArtifactHash::parse("zz"), None);
        assert_eq!(ArtifactHash::parse(&text[..31]), None);
    }

    #[test]
    fn hash_is_invariant_under_minimization() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for _ in 0..60 {
            let n = rng.gen_range(2..=20usize);
            let (aut, _) = random_streett(&mut rng, &sigma, n, 2, 0.3);
            let min = minimize(&aut).quotient;
            assert_eq!(structural_hash(&aut), structural_hash(&min));
            assert_eq!(structural_hash(&min), hash_canonical(&min));
        }
    }

    #[test]
    fn hash_is_invariant_under_state_renaming() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let aut = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| if s == b { (q + 1) % 3 } else { q },
            Acceptance::inf([2]),
        );
        // Rename states by the permutation 0→1→2→0.
        let perm = [1u32, 2, 0];
        let renamed = OmegaAutomaton::build(
            &sigma,
            3,
            perm[0],
            |q, s| {
                let orig = perm.iter().position(|&p| p == q).unwrap() as StateId;
                perm[aut.step(orig, s) as usize]
            },
            Acceptance::inf([perm[2] as usize]),
        );
        assert_eq!(structural_hash(&aut), structural_hash(&renamed));
    }

    #[test]
    fn different_acceptance_hashes_apart() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let delta = |_: StateId, s| if s == b { 1 } else { 0 };
        let inf = OmegaAutomaton::build(&sigma, 2, 0, delta, Acceptance::inf([1]));
        let fin = OmegaAutomaton::build(&sigma, 2, 0, delta, Acceptance::fin([1]));
        assert_ne!(structural_hash(&inf), structural_hash(&fin));
    }

    #[test]
    fn alphabet_names_are_part_of_the_identity() {
        let one = OmegaAutomaton::universal(&Alphabet::new(["a", "b"]).unwrap());
        let two = OmegaAutomaton::universal(&Alphabet::new(["x", "y"]).unwrap());
        assert_ne!(structural_hash(&one), structural_hash(&two));
        let props = OmegaAutomaton::universal(&Alphabet::of_propositions(["p"]).unwrap());
        assert_ne!(structural_hash(&one), structural_hash(&props));
    }

    #[test]
    fn blob_hashes_separate_kinds_and_payloads() {
        assert_ne!(hash_bytes("program", b"x"), hash_bytes("formula", b"x"));
        assert_ne!(hash_bytes("program", b"x"), hash_bytes("program", b"y"));
        assert_eq!(hash_bytes("program", b"x"), hash_bytes("program", b"x"));
    }

    #[test]
    fn language_eq_hash_path_spends_no_oracle_run() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(0xDEDBEEF);
        let (aut, _) = random_streett(&mut rng, &sigma, 6, 2, 0.3);
        let renamed = {
            // A bisimilar variant: the canonical quotient is identical,
            // so the hashes collide and the oracle must stay cold.
            minimize(&aut).quotient
        };
        let ctx = Analysis::new(aut.clone());
        let verdict = language_eq(
            structural_hash(&aut),
            &ctx,
            structural_hash(&renamed),
            &renamed,
        );
        assert_eq!(verdict, Some(LanguageEq::HashEqual));
        assert_eq!(
            ctx.stats_total().inclusion_checks,
            0,
            "hash-equal pair must not reach the oracle"
        );
    }

    #[test]
    fn language_eq_oracle_path_closes_the_hash_gap() {
        // The universal language written two ways: `Acceptance::True`
        // versus an `Inf` set covering the only state. The canonical
        // forms differ (acceptance shape is part of the hash), so only
        // the oracle can identify them.
        let sigma = ab();
        let as_true = OmegaAutomaton::universal(&sigma);
        let as_inf = as_true.with_acceptance(Acceptance::inf([0]));
        let (ha, hb) = (structural_hash(&as_true), structural_hash(&as_inf));
        assert_ne!(ha, hb);
        let ctx = Analysis::new(as_true);
        assert_eq!(
            language_eq(ha, &ctx, hb, &as_inf),
            Some(LanguageEq::OracleEqual)
        );
        assert!(ctx.stats_total().inclusion_checks > 0);
    }

    /// The lasso sample refutes before the oracle proves: a pair the
    /// sample separates is `Distinct` with no oracle run, while an equal
    /// pair, and a distinct pair that both lassos of the left side miss,
    /// still reach the oracle.
    #[test]
    fn language_eq_refutes_with_the_lasso_sample_before_the_oracle() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let last_b = |acc| OmegaAutomaton::build(&sigma, 2, 0, |_, s| StateId::from(s == b), acc);
        let inf_b = last_b(Acceptance::inf([1]));
        let checks = |ctx: &Analysis| ctx.stats_total().inclusion_checks;

        // □◇b against ◇□a: the accepted lasso of □◇b separates them.
        let ctx = Analysis::new(inf_b.clone());
        let fin_b = last_b(Acceptance::fin([1]));
        assert!(!fin_b.accepts(ctx.accepted_lasso().unwrap()));
        let verdict = language_eq(
            structural_hash(&inf_b),
            &ctx,
            structural_hash(&fin_b),
            &fin_b,
        );
        assert_eq!(verdict, Some(LanguageEq::Distinct));
        assert_eq!(checks(&ctx), 0, "the sample settled it");
        // □◇b against Σ^ω: the accepted lasso is in both, the rejected
        // lasso a^ω only in Σ^ω.
        let all = OmegaAutomaton::universal(&sigma);
        let verdict = language_eq(structural_hash(&inf_b), &ctx, structural_hash(&all), &all);
        assert_eq!(verdict, Some(LanguageEq::Distinct));
        assert_eq!(checks(&ctx), 0, "the rejected lasso settled it");

        // □◇b again as the one-pair Streett condition Inf{1} ∨ Fin{0,1}:
        // the hashes differ, no lasso separates equal languages, and the
        // oracle proves equality.
        let streett = inf_b.with_acceptance(Acceptance::inf([1]).or(Acceptance::fin([0, 1])));
        assert_ne!(structural_hash(&inf_b), structural_hash(&streett));
        let verdict = language_eq(
            structural_hash(&inf_b),
            &ctx,
            structural_hash(&streett),
            &streett,
        );
        assert_eq!(verdict, Some(LanguageEq::OracleEqual));
        assert_eq!(checks(&ctx), 1);

        // □◇a ∧ □◇b against □◇b: the sample, (ba)^ω accepted and a^ω
        // rejected, lands the same way on both, so the oracle runs and
        // refutes.
        let both = last_b(Acceptance::inf([0]).and(Acceptance::inf([1])));
        let ctx = Analysis::new(inf_b.clone());
        let (acc, rej) = (ctx.accepted_lasso().unwrap(), ctx.rejected_lasso().unwrap());
        assert!(both.accepts(acc) && !both.accepts(rej), "the sample misses");
        let verdict = language_eq(structural_hash(&inf_b), &ctx, structural_hash(&both), &both);
        assert_eq!(verdict, Some(LanguageEq::Distinct));
        assert_eq!(checks(&ctx), 1, "the oracle decided");
    }

    #[test]
    fn language_eq_distinct_and_alphabet_mismatch() {
        let sigma = ab();
        let universal = OmegaAutomaton::universal(&sigma);
        let empty = OmegaAutomaton::empty(&sigma);
        let ctx = Analysis::new(universal.clone());
        let verdict = language_eq(
            structural_hash(&universal),
            &ctx,
            structural_hash(&empty),
            &empty,
        );
        assert_eq!(verdict, Some(LanguageEq::Distinct));
        assert!(!LanguageEq::Distinct.is_equal());
        assert!(LanguageEq::HashEqual.is_equal() && LanguageEq::OracleEqual.is_equal());
        let other = OmegaAutomaton::universal(&Alphabet::new(["x", "y"]).unwrap());
        assert_eq!(
            language_eq(
                structural_hash(&universal),
                &ctx,
                structural_hash(&other),
                &other
            ),
            None,
            "cross-alphabet comparison is undefined, not false"
        );
    }
}
