//! The content-addressed artifact store: live [`Analysis`] contexts and
//! programs behind a capacity-bounded LRU.
//!
//! Every artifact is keyed by its structural hash
//! ([`Servable::content_hash`]): the canonical quotient form for
//! automata (so α-equivalent submissions collide by construction), the
//! exact structural encoding for programs. An automaton is hashed
//! through the [`Analysis`] context built for it at ingest, which
//! becomes the entry when the artifact is new, so its minimization and
//! its hash run once ([`Analysis::canonical_hash`]). On top of the hash
//! key the store runs an **equivalence sweep** at automaton ingest: a
//! new hash whose language equals an already-stored same-alphabet
//! artifact is recorded as an *alias* of the stored entry instead of a
//! new entry — near-duplicate submissions across users converge on one
//! warm context even when their canonical forms differ (e.g. a Büchi and
//! an equivalent one-pair Streett condition).
//!
//! The sweep refutes before it proves. One [`LassoBank`] per ingest
//! holds the lasso samples of the newcomer and of every stored entry
//! over its alphabet; the newcomer's row is taken once, and an entry on
//! which some bank lasso lands differently has another language, found
//! at the first such lasso. Only the entries no lasso separates reach
//! the Angluin–Fisman oracle, which answers through the stored entry's
//! warm [`Analysis`] (and is counted there). A lasso can only prove two
//! languages distinct, so the bank decides no alias; it only saves
//! oracle runs, which the sweep makes under the store lock.
//!
//! Eviction is least-recently-used over entries (aliases follow their
//! entry); the clock ticks on every resolve and ingest touch.

use hierarchy_core::automata::analysis::Analysis;
use hierarchy_core::automata::canonical::{ArtifactHash, LassoBank};
use hierarchy_core::automata::omega::OmegaAutomaton;
use hierarchy_core::fts::absint::Program;
use hierarchy_core::lint::{lint_abstract_program, lint_automaton_ctx, report_to_json};
use hierarchy_core::Servable;
use std::collections::HashMap;
use std::iter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Aggregate store counters, all monotone over a daemon's lifetime
/// (eviction does not roll anything back).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Ingest requests processed (including deduplicated ones).
    pub ingests: u64,
    /// Ingests resolved to an already-stored entry — by hash, by alias,
    /// or by the equivalence sweep.
    pub dedup_hits: u64,
    /// Queries resolved to a live entry.
    pub hits: u64,
    /// Queries naming an unknown (or evicted) artifact.
    pub misses: u64,
    /// Entries dropped by the LRU bound or explicit `evict`.
    pub evictions: u64,
}

/// What an entry holds.
pub enum Payload {
    /// A deterministic ω-automaton wrapped in its live [`Analysis`]
    /// context (classification, SCCs, canonical hash, inclusion verdicts
    /// all memoized across requests).
    Automaton(Box<Analysis>),
    /// A declarative guarded-command program.
    Program(Box<Program>),
}

/// One stored artifact.
pub struct Entry {
    /// The content hash (the store key, printed as 32 hex digits).
    pub hash: ArtifactHash,
    /// The artifact itself.
    pub payload: Payload,
    /// How the artifact first arrived (`"hoa"`, `"formula"`, `"regex"`,
    /// `"program"`) — informational, surfaced by `stats`.
    pub origin: &'static str,
    /// Number of queries served from this entry (not counting the
    /// ingests that created or deduplicated onto it).
    pub queries: AtomicU64,
    /// The memoized lint answer (see [`Entry::lint`]).
    lint: OnceLock<Result<(usize, String), String>>,
}

impl Entry {
    fn new(hash: ArtifactHash, payload: Payload, origin: &'static str) -> Arc<Entry> {
        Arc::new(Entry {
            hash,
            payload,
            origin,
            queries: AtomicU64::new(0),
            lint: OnceLock::new(),
        })
    }

    /// The artifact kind tag (`"automaton"` / `"program"`).
    pub fn kind(&self) -> &'static str {
        match &self.payload {
            Payload::Automaton(_) => "automaton",
            Payload::Program(_) => "program",
        }
    }

    /// The analysis context, when this is an automaton entry.
    pub fn analysis(&self) -> Option<&Analysis> {
        match &self.payload {
            Payload::Automaton(a) => Some(a),
            Payload::Program(_) => None,
        }
    }

    /// The program, when this is a program entry.
    pub fn program(&self) -> Option<&Program> {
        match &self.payload {
            Payload::Automaton(_) => None,
            Payload::Program(p) => Some(p),
        }
    }

    /// The entry's lint answer — the diagnostic count and the report as
    /// JSON, or the lint error's message — computed on first use. An
    /// entry is immutable and content-addressed, so the answer is a pure
    /// function of it: the memo lives and dies with the entry, and
    /// concurrent first callers share one computation.
    pub(crate) fn lint(&self) -> &Result<(usize, String), String> {
        self.lint.get_or_init(|| {
            let diagnostics = match &self.payload {
                Payload::Automaton(ctx) => lint_automaton_ctx(ctx),
                Payload::Program(program) => {
                    lint_abstract_program(program).map_err(|e| e.to_string())?
                }
            };
            Ok((diagnostics.len(), report_to_json(&diagnostics)))
        })
    }
}

/// The outcome of an ingest.
pub struct Ingested {
    /// The (possibly pre-existing) entry now addressing the artifact.
    pub entry: Arc<Entry>,
    /// The hash the *submitted* artifact resolves under — equal to
    /// `entry.hash` unless the equivalence sweep aliased it.
    pub hash: ArtifactHash,
    /// Whether the artifact was already stored (hash, alias, or
    /// equivalence hit).
    pub known: bool,
    /// Hashes evicted by the LRU bound to make room, oldest first.
    pub evicted: Vec<ArtifactHash>,
}

/// The LRU store. Wrap it in a `Mutex` for concurrent use ([`Service`]
/// does); entry payloads are themselves thread-safe, so resolved
/// [`Arc<Entry>`]s can be queried outside the lock.
///
/// [`Service`]: crate::Service
pub struct Store {
    capacity: usize,
    clock: u64,
    entries: HashMap<ArtifactHash, (Arc<Entry>, u64)>,
    aliases: HashMap<ArtifactHash, ArtifactHash>,
    stats: StoreStats,
}

impl Store {
    /// An empty store holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Store {
        Store {
            capacity: capacity.max(1),
            clock: 0,
            entries: HashMap::new(),
            aliases: HashMap::new(),
            stats: StoreStats::default(),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entry count (aliases not counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A snapshot of the aggregate counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn touch(&mut self, hash: ArtifactHash) {
        let stamp = self.tick();
        if let Some((_, used)) = self.entries.get_mut(&hash) {
            *used = stamp;
        }
    }

    /// Resolves a hash (following aliases) to a live entry, bumping its
    /// recency. `None` counts a miss.
    pub fn resolve(&mut self, hash: ArtifactHash) -> Option<Arc<Entry>> {
        let canonical = *self.aliases.get(&hash).unwrap_or(&hash);
        match self.entries.get(&canonical) {
            Some((entry, _)) => {
                let entry = Arc::clone(entry);
                self.touch(canonical);
                self.stats.hits += 1;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Drops an entry (and every alias onto it). Returns whether the
    /// hash named a live entry.
    pub fn evict(&mut self, hash: ArtifactHash) -> bool {
        let canonical = *self.aliases.get(&hash).unwrap_or(&hash);
        if self.entries.remove(&canonical).is_none() {
            return false;
        }
        self.aliases.retain(|_, target| *target != canonical);
        self.stats.evictions += 1;
        true
    }

    fn evict_lru(&mut self, keep: ArtifactHash) -> Vec<ArtifactHash> {
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(h, _)| **h != keep)
                .min_by_key(|(_, (_, used))| *used)
                .map(|(h, _)| *h);
            match victim {
                Some(h) => {
                    self.evict(h);
                    evicted.push(h);
                }
                None => break, // capacity 0 with only `keep` present
            }
        }
        evicted
    }

    /// Ingests an automaton: hash → alias → equivalence sweep → fresh
    /// entry, in that order (see the module docs).
    pub fn ingest_automaton(&mut self, aut: OmegaAutomaton, origin: &'static str) -> Ingested {
        self.stats.ingests += 1;
        // The newcomer's own context hashes it, so a fresh entry keeps
        // the minimization and the hash, and an audit reads both.
        let ctx = Analysis::new(aut);
        let hash = ctx.canonical_hash();
        let canonical = *self.aliases.get(&hash).unwrap_or(&hash);
        if let Some((entry, _)) = self.entries.get(&canonical) {
            let entry = Arc::clone(entry);
            self.touch(canonical);
            self.stats.dedup_hits += 1;
            return Ingested {
                entry,
                hash,
                known: true,
                evicted: Vec::new(),
            };
        }
        // Equivalence sweep: the hash is new, but the language may not
        // be. One lasso bank holds the samples of the newcomer and of
        // every entry over its alphabet; an entry that lands differently
        // from the newcomer's row on some bank lasso has another
        // language. Only the entries no lasso separates reach the
        // oracle, through their own warm context.
        let sigma = ctx.automaton().alphabet();
        let peers: Vec<(&Arc<Entry>, &Analysis)> = self
            .entries
            .values()
            .filter_map(|(entry, _)| {
                let peer = entry.analysis()?;
                (peer.automaton().alphabet() == sigma).then_some((entry, peer))
            })
            .collect();
        let bank = LassoBank::new(iter::once(&ctx).chain(peers.iter().map(|&(_, peer)| peer)));
        let row = bank.row(ctx.automaton());
        let candidate = peers
            .iter()
            .find(|&&(_, peer)| !bank.separates(&row, peer.automaton()) && peer.equivalent(&ctx))
            .map(|&(entry, _)| Arc::clone(entry));
        if let Some(entry) = candidate {
            let target = entry.hash;
            self.aliases.insert(hash, target);
            self.touch(target);
            self.stats.dedup_hits += 1;
            return Ingested {
                entry,
                hash,
                known: true,
                evicted: Vec::new(),
            };
        }
        let entry = Entry::new(hash, Payload::Automaton(Box::new(ctx)), origin);
        let stamp = self.tick();
        self.entries.insert(hash, (Arc::clone(&entry), stamp));
        let evicted = self.evict_lru(hash);
        Ingested {
            entry,
            hash,
            known: false,
            evicted,
        }
    }

    /// Ingests a program (hash-keyed only; programs have no equivalence
    /// sweep).
    pub fn ingest_program(&mut self, program: Program) -> Ingested {
        self.stats.ingests += 1;
        let hash = program.content_hash();
        if let Some((entry, _)) = self.entries.get(&hash) {
            let entry = Arc::clone(entry);
            self.touch(hash);
            self.stats.dedup_hits += 1;
            return Ingested {
                entry,
                hash,
                known: true,
                evicted: Vec::new(),
            };
        }
        let entry = Entry::new(hash, Payload::Program(Box::new(program)), "program");
        let stamp = self.tick();
        self.entries.insert(hash, (Arc::clone(&entry), stamp));
        let evicted = self.evict_lru(hash);
        Ingested {
            entry,
            hash,
            known: false,
            evicted,
        }
    }

    /// Every live entry, sorted by hash (a deterministic order for the
    /// `stats` endpoint).
    pub fn list(&self) -> Vec<Arc<Entry>> {
        let mut all: Vec<Arc<Entry>> = self.entries.values().map(|(e, _)| Arc::clone(e)).collect();
        all.sort_by_key(|e| e.hash);
        all
    }

    /// Marks a served query on an entry (atomic; callable outside the
    /// store lock).
    pub fn record_query(entry: &Entry) -> u64 {
        entry.queries.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_core::automata::acceptance::Acceptance;
    use hierarchy_core::automata::alphabet::Alphabet;
    use hierarchy_core::automata::canonical::structural_hash;
    use hierarchy_core::automata::random::random_streett;
    use hierarchy_core::automata::random::rng::{Rng, SeedableRng, StdRng};
    use hierarchy_core::fts::absint;

    fn tracker(n: u32) -> OmegaAutomaton {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            &sigma,
            n as usize + 2,
            0,
            move |q, s| {
                if s == b {
                    (q + 1) % (n + 2)
                } else {
                    q
                }
            },
            Acceptance::inf([0]),
        )
    }

    /// `tracker(n)` unrolled twice: bisimilar to it, with twice the
    /// states.
    fn tracker_unrolled(n: u32) -> OmegaAutomaton {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let m = 2 * (n + 2);
        OmegaAutomaton::build(
            &sigma,
            m as usize,
            0,
            move |q, s| if s == b { (q + 1) % m } else { q },
            Acceptance::inf([0, n as usize + 2]),
        )
    }

    fn inclusion_checks(entry: &Entry) -> u64 {
        entry.analysis().unwrap().stats_total().inclusion_checks
    }

    #[test]
    fn hash_and_alias_dedup() {
        let mut store = Store::new(8);
        let first = store.ingest_automaton(tracker(1), "hoa");
        assert!(!first.known);
        let again = store.ingest_automaton(tracker(1), "hoa");
        assert!(again.known);
        assert_eq!(again.entry.hash, first.entry.hash);
        // A bisimilar blow-up has the same canonical form: a hash hit,
        // with no sweep and no oracle run.
        let unrolled = store.ingest_automaton(tracker_unrolled(1), "hoa");
        assert!(unrolled.known);
        assert_eq!(unrolled.hash, first.hash);
        assert_eq!(inclusion_checks(&first.entry), 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().dedup_hits, 2);
        assert_eq!(store.stats().ingests, 3);
    }

    #[test]
    fn equivalence_sweep_aliases_distinct_hashes() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        // Σω two ways: `True` acceptance vs `Inf` of the whole state set
        // — same language, different canonical acceptance, so the hashes
        // differ and only the sweep can merge them.
        let all_true = OmegaAutomaton::universal(&sigma);
        let all_inf = OmegaAutomaton::build(&sigma, 1, 0, |_, _| 0, Acceptance::inf([0]));
        assert_ne!(all_true.content_hash(), all_inf.content_hash());

        let mut store = Store::new(8);
        let first = store.ingest_automaton(all_true.clone(), "hoa");
        let second = store.ingest_automaton(all_inf.clone(), "hoa");
        assert!(second.known, "sweep must catch the equivalent automaton");
        assert_eq!(second.entry.hash, first.entry.hash);
        assert_eq!(store.len(), 1);
        // The alias resolves from now on.
        assert!(store.resolve(all_inf.content_hash()).is_some());
        // No lasso separates equal languages, so the alias cost exactly
        // one oracle run, charged to the stored entry.
        assert_eq!(inclusion_checks(&first.entry), 1);
    }

    /// The sweep neither banks nor asks the oracle about an entry of
    /// another alphabet: Σ^ω over {a,b} and over {x,y,z} stay two fresh
    /// entries.
    #[test]
    fn the_sweep_skips_other_alphabets() {
        let mut store = Store::new(8);
        for letters in [&["a", "b"][..], &["x", "y", "z"]] {
            let sigma = Alphabet::new(letters.iter().copied()).unwrap();
            let ingested = store.ingest_automaton(OmegaAutomaton::universal(&sigma), "hoa");
            assert!(!ingested.known, "{letters:?}");
        }
        assert_eq!(store.len(), 2);
        assert!(store.list().iter().all(|e| inclusion_checks(e) == 0));
    }

    /// A lasso of a third entry separates a pair whose own four sample
    /// lassos land the same way on both sides, so the pair never reaches
    /// the oracle: the bank spans every entry of the alphabet, not the
    /// two sides of one comparison.
    #[test]
    fn a_third_entrys_lasso_separates_a_pair() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let auts: Vec<OmegaAutomaton> = (0..60)
            .map(|_| random_streett(&mut rng, &sigma, 4, 2, 0.3).0)
            .collect();
        let ctxs: Vec<Analysis> = auts.iter().map(|a| Analysis::new(a.clone())).collect();
        // Whether a sample lasso of one of `by` lands differently on `i`
        // and on `j`.
        let separated = |i: usize, j: usize, by: &[usize]| {
            by.iter().any(|&k| {
                [ctxs[k].accepted_lasso(), ctxs[k].rejected_lasso()]
                    .into_iter()
                    .flatten()
                    .any(|w| auts[i].accepts(w) != auts[j].accepts(w))
            })
        };
        // A pair (a, b) its own samples cannot separate, and a third
        // automaton c whose sample does. Ingested as c, a, b, every other
        // comparison is settled by the bank of the moment too: the
        // samples of a and c for a, of a, b and c for b.
        let (a, b, c) = (0..60)
            .flat_map(|a| (a + 1..60).map(move |b| (a, b)))
            .filter(|&(a, b)| !separated(a, b, &[a, b]))
            .find_map(|(a, b)| {
                let c = (0..60).find(|&c| {
                    separated(a, b, &[c]) && separated(a, c, &[a, c]) && separated(b, c, &[a, b, c])
                })?;
                Some((a, b, c))
            })
            .expect("a pair separated only by a third automaton's sample");
        let mut store = Store::new(8);
        for k in [c, a, b] {
            assert!(!store.ingest_automaton(auts[k].clone(), "hoa").known, "{k}");
        }
        for entry in store.list() {
            assert_eq!(inclusion_checks(&entry), 0, "the bank settled every pair");
        }
    }

    /// Language-preserving rewrites that change the hash: `∨ Fin(Q)` and
    /// `∧ Inf(Q)` over the whole state set `Q` (every infinite run
    /// visits some state infinitely often).
    fn rewrite(aut: &OmegaAutomaton, disjoin: bool) -> OmegaAutomaton {
        let all = 0..aut.num_states();
        let acc = aut.acceptance().clone();
        aut.with_acceptance(if disjoin {
            Acceptance::Or(vec![acc, Acceptance::fin(all)])
        } else {
            Acceptance::And(vec![acc, Acceptance::inf(all)])
        })
    }

    /// The sweep against a reference that asks the complement oracle of
    /// every live entry, on a seeded stream of small random automata
    /// over {p}, some rewritten under another hash, mixed with automata
    /// over the letters {a,b,c}: every ingest gets the same `known` flag
    /// and resolves to the same entry.
    #[test]
    fn sweep_matches_the_complement_oracle_on_a_seeded_stream() {
        let props = Alphabet::of_propositions(["p"]).unwrap();
        let letters = Alphabet::new(["a", "b", "c"]).unwrap();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut store = Store::new(1024);
        let mut live: Vec<(ArtifactHash, OmegaAutomaton)> = Vec::new();
        let mut aliases: HashMap<ArtifactHash, ArtifactHash> = HashMap::new();
        let mut seen: Vec<OmegaAutomaton> = Vec::new();
        let mut sweep_aliases = 0;
        for step in 0..300 {
            let aut = if step % 4 == 3 {
                let base = &seen[rng.gen_range(0..seen.len())];
                rewrite(base, rng.gen_bool(0.5))
            } else {
                let sigma = if step % 10 == 7 { &letters } else { &props };
                let n = rng.gen_range(1..=4usize);
                let pairs = rng.gen_range(1..=2usize);
                random_streett(&mut rng, sigma, n, pairs, 0.4).0
            };
            let hash = structural_hash(&aut);
            let stored = |h: ArtifactHash| live.iter().any(|(l, _)| *l == h).then_some(h);
            let expected = aliases
                .get(&hash)
                .copied()
                .or_else(|| stored(hash))
                .or_else(|| {
                    live.iter()
                        .find(|(_, e)| {
                            e.alphabet() == aut.alphabet() && e.equivalent_via_complement(&aut)
                        })
                        .map(|(h, _)| *h)
                });
            let got = store.ingest_automaton(aut.clone(), "hoa");
            assert_eq!(got.hash, hash, "step {step}");
            assert_eq!(got.known, expected.is_some(), "step {step}");
            match expected {
                Some(target) => {
                    assert_eq!(got.entry.hash, target, "step {step}");
                    if target != hash && aliases.insert(hash, target).is_none() {
                        sweep_aliases += 1;
                    }
                }
                None => live.push((hash, aut.clone())),
            }
            seen.push(aut);
        }
        assert_eq!(store.len(), live.len());
        // Both outcomes of the sweep ran, and both alphabets are stored.
        let letter_entries = live
            .iter()
            .filter(|(_, a)| a.alphabet() == &letters)
            .count();
        assert!(
            letter_entries > 0 && sweep_aliases > 0 && live.len() > letter_entries,
            "{} entries, {letter_entries} over letters, {sweep_aliases} sweep aliases",
            live.len()
        );
    }

    #[test]
    fn lru_evicts_oldest_and_aliases_follow() {
        let mut store = Store::new(2);
        let a = store.ingest_automaton(tracker(1), "hoa");
        let b = store.ingest_automaton(tracker(2), "hoa");
        // Touch `a` so `b` is the LRU victim.
        assert!(store.resolve(a.entry.hash).is_some());
        let c = store.ingest_automaton(tracker(3), "hoa");
        assert_eq!(c.evicted, vec![b.entry.hash]);
        assert!(store.resolve(b.entry.hash).is_none(), "b evicted");
        assert!(store.resolve(a.entry.hash).is_some());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn programs_are_hash_keyed() {
        let mut store = Store::new(4);
        let p = store.ingest_program(absint::peterson_abs());
        assert!(!p.known);
        assert_eq!(p.entry.kind(), "program");
        let again = store.ingest_program(absint::peterson_abs());
        assert!(again.known);
        assert_eq!(store.len(), 1);
        assert!(store.resolve(p.entry.hash).unwrap().program().is_some());
    }

    #[test]
    fn explicit_evict_and_readmission() {
        let mut store = Store::new(4);
        let a = store.ingest_automaton(tracker(1), "hoa");
        assert!(store.evict(a.entry.hash));
        assert!(!store.evict(a.entry.hash), "double evict is a no-op");
        assert!(store.resolve(a.entry.hash).is_none());
        let back = store.ingest_automaton(tracker(1), "hoa");
        assert!(!back.known, "re-ingest after eviction is cold");
        assert_eq!(back.entry.hash, a.entry.hash, "same content, same hash");
    }
}
