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
//! explicit equivalence sweep (see `crates/serve`): a [`LassoBank`]
//! separates most hash-distinct pairs, and the equivalence oracle
//! decides the rest. The hash is the cheap first-level key, not the full
//! language identity.
//!
//! The hash itself is a 128-bit non-cryptographic digest (two mixed
//! FNV-1a lanes finalized with splitmix64) over an unambiguous byte
//! encoding of alphabet, transitions, and acceptance. It is stable
//! across runs and platforms — suitable for content addressing inside
//! one trust domain, not for adversarial inputs. An [`Analysis`]
//! memoizes the hash of its quotient
//! ([`Analysis::canonical_hash`](crate::analysis::Analysis::canonical_hash)),
//! so the serve store and the suite audit hash a context once, and
//! [`ArtifactHash`] prints its 32 hex digits from a table in one write,
//! since the daemon prints one per stored entry in every `stats`
//! response.

use crate::acceptance::Acceptance;
use crate::analysis::Analysis;
use crate::bitset::BitSet;
use crate::lasso::Lasso;
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
    /// The 32 digits come from a table into one buffer and go out in one
    /// `write_str`: a `stats` response renders one hash per entry.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = [0u8; 32];
        for (pair, b) in text.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        f.write_str(std::str::from_utf8(&text).expect("hex digits are ASCII"))
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

pub(crate) fn splitmix64(mut z: u64) -> u64 {
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

/// The lasso samples of a list of [`Analysis`] contexts: the words that
/// refute a language equality or inclusion before the oracle is asked.
///
/// A deterministic automaton decides a lasso in one run, and two
/// distinct ω-regular languages differ on some lasso, so a bank lasso on
/// which two automata disagree proves their languages distinct without
/// an oracle run. The bank holds each context's
/// [`Analysis::accepted_lasso`] and then its
/// [`Analysis::rejected_lasso`], context by context in the order given
/// (an empty or a universal language adds one word). Every lasso is a
/// word over its context's alphabet, so a bank is built over contexts of
/// one alphabet and asked about automata of that alphabet only.
///
/// [`Self::row`] records which bank lassos one automaton accepts, and
/// [`Self::separates`] compares another automaton against such a row,
/// stopping at the first lasso on which they disagree. The suite audit
/// (`lint::suite`) compares one row per member; the serve store's
/// ingest sweep takes the newcomer's row once and asks `separates` of
/// each stored entry, which costs a few runs per entry rather than a
/// row.
pub struct LassoBank<'a> {
    lassos: Vec<&'a Lasso>,
}

impl<'a> LassoBank<'a> {
    /// The bank of the samples of `ctxs`, in order. A sample not drawn
    /// yet is drawn here, off the context's counters (see
    /// [`Analysis::accepted_lasso`]).
    pub fn new(ctxs: impl IntoIterator<Item = &'a Analysis>) -> LassoBank<'a> {
        let lassos = ctxs
            .into_iter()
            .flat_map(|ctx| [ctx.accepted_lasso(), ctx.rejected_lasso()])
            .flatten()
            .collect();
        LassoBank { lassos }
    }

    /// The positions of the bank lassos `aut` accepts: one run of `aut`
    /// per lasso.
    pub fn row(&self, aut: &OmegaAutomaton) -> BitSet {
        (0..self.lassos.len())
            .filter(|&b| aut.accepts(self.lassos[b]))
            .collect()
    }

    /// Whether some bank lasso lands on `aut` differently from `row`, a
    /// [`Self::row`] of another automaton: a word in one language and not
    /// in the other, so the two languages differ. Runs `aut` on the
    /// lassos in bank order and stops at the first that separates; only
    /// an automaton that agrees with `row` everywhere pays a run per
    /// lasso. `false` proves nothing: languages the bank cannot tell
    /// apart may still differ.
    pub fn separates(&self, row: &BitSet, aut: &OmegaAutomaton) -> bool {
        self.lassos
            .iter()
            .enumerate()
            .any(|(b, w)| aut.accepts(w) != row.contains(b))
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

    /// The table rendering equals the `{:02x}` one, and `parse` inverts
    /// it, on seeded digests and on all-zero and all-0xff.
    #[test]
    fn display_is_the_two_digit_hex_rendering() {
        let mut rng = StdRng::seed_from_u64(0x4E5);
        let mut digests = vec![ArtifactHash([0; 16]), ArtifactHash([0xff; 16])];
        digests
            .extend((0..200).map(|_| ArtifactHash(std::array::from_fn(|_| rng.next_u64() as u8))));
        for h in digests {
            let want: String = h.0.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(h.to_string(), want);
            assert_eq!(ArtifactHash::parse(&want), Some(h));
        }
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

    /// A bank lasso on which two automata disagree separates them with
    /// no oracle run; no lasso separates equal languages; and a lasso of
    /// a third context separates a pair that one side's sample cannot.
    #[test]
    fn lasso_bank_separates_with_the_samples() {
        let sigma = ab();
        let b = sigma.symbol("b").unwrap();
        let last_b = |acc| OmegaAutomaton::build(&sigma, 2, 0, |_, s| StateId::from(s == b), acc);
        let inf_b = last_b(Acceptance::inf([1]));
        let ctx = Analysis::new(inf_b.clone());
        let bank = LassoBank::new([&ctx]);
        let row = bank.row(&inf_b);
        assert_eq!(
            row,
            BitSet::from_iter([0]),
            "accepted lasso in, rejected out"
        );
        assert!(!bank.separates(&row, &inf_b));

        // □◇b against ◇□a: the accepted lasso of □◇b separates them.
        let fin_b = last_b(Acceptance::fin([1]));
        assert!(!fin_b.accepts(ctx.accepted_lasso().unwrap()));
        assert!(bank.separates(&row, &fin_b));
        // □◇b against Σ^ω: the rejected lasso a^ω is in Σ^ω only.
        assert!(bank.separates(&row, &OmegaAutomaton::universal(&sigma)));
        // □◇b again as the one-pair Streett condition Inf{1} ∨ Fin{0,1}:
        // the hashes differ, and no lasso separates equal languages.
        let streett = inf_b.with_acceptance(Acceptance::inf([1]).or(Acceptance::fin([0, 1])));
        assert_ne!(structural_hash(&inf_b), structural_hash(&streett));
        assert!(!bank.separates(&row, &streett));
        // □◇a ∧ □◇b: the sample of □◇b, (ba)^ω accepted and a^ω
        // rejected, lands the same way on both...
        let both = last_b(Acceptance::inf([0]).and(Acceptance::inf([1])));
        assert!(!bank.separates(&row, &both), "the sample misses");
        // ...but the accepted lasso of ◇□b, eventually only b, is in □◇b
        // and not in □◇a ∧ □◇b.
        let third = Analysis::new(last_b(Acceptance::fin([0])));
        let wide = LassoBank::new([&ctx, &third]);
        let row = wide.row(&inf_b);
        assert!(wide.separates(&row, &both));
        assert!(!wide.separates(&row, &streett));
        for c in [&ctx, &third] {
            assert_eq!(c.stats_total(), Default::default(), "no oracle, no pass");
        }
    }

    /// An empty language adds only its rejected lasso and a universal one
    /// only its accepted lasso; rows index the bank in context order.
    #[test]
    fn lasso_bank_rows_follow_the_contexts() {
        let sigma = ab();
        let (none, all) = (
            OmegaAutomaton::empty(&sigma),
            OmegaAutomaton::universal(&sigma),
        );
        let ctxs = [Analysis::new(none.clone()), Analysis::new(all.clone())];
        let bank = LassoBank::new(&ctxs);
        assert_eq!(bank.row(&none), BitSet::new());
        assert_eq!(bank.row(&all), BitSet::from_iter([0, 1]));
        assert!(bank.separates(&bank.row(&none), &all));
        assert!(bank.separates(&bank.row(&all), &none));
        assert!(LassoBank::new([]).row(&all).is_empty());
    }
}
