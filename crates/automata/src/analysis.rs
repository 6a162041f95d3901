//! Shared memoized analysis context for one ω-automaton.
//!
//! Every decision procedure in this crate — classification, emptiness,
//! safety closure, topology, counter-freedom — bottoms out in the same
//! few graph computations: forward reachability, SCC decompositions of
//! restricted subgraphs, the condensation DAG, and the live sets of the
//! condition and of its negation. Before this module each consumer
//! recomputed them from scratch, so asking for a full classification cost
//! several independent walks over the same restricted subgraphs.
//!
//! [`Analysis`] owns one automaton and memoizes all of those intermediates
//! behind interior mutability, so the context can be shared by reference
//! (`&Analysis`) across the whole classification stack:
//!
//! * [`Analysis::sccs`] — SCC decompositions keyed by the allowed-set
//!   restriction. The alternating cycle decomposition behind the chain
//!   queries and the accepting-cycle kernel (emptiness, liveness, safety,
//!   guarantee) hit the *same* keys: both only restrict to `reachable −
//!   avoid − (union of bad sets)`, and those sets are unions of
//!   acceptance atoms, so every restriction either asks for is a point
//!   `reachable − (union of atoms)` of the lattice of atom subsets. That
//!   is what lets the queries below share their passes.
//! * [`Analysis::condensation`] — the reachable condensation DAG with
//!   per-component acceptance status, reused by the obligation-index DP
//!   and available to the topology layer.
//! * [`Analysis::is_safety`] / [`Analysis::is_guarantee`] — one
//!   accepting-cycle-kernel query each: no rejecting (accepting) cycle in
//!   the live (co-live) set. The cycle sets are memoized beside the two
//!   live sets, [`Analysis::live`] and [`Analysis::co_live`] (one
//!   once-cell per polarity: the automaton's condition and its negation
//!   are the only ones ever asked), so the queries share every SCC pass
//!   with liveness and universality and take any number of acceptance
//!   atoms.
//! * [`Analysis::classification`] — the **full verdict**: all six class
//!   memberships plus the obligation and reactivity indices, reading
//!   recurrence, persistence, simple reactivity and the reactivity index
//!   off two depths of the alternating cycle decomposition (see
//!   [`crate::classify`]), and safety and guarantee from the two queries
//!   above. [`Analysis::rabin_index`] reads the same two depths. None of
//!   them limits the number of acceptance atoms.
//! * [`Analysis::is_subset_of`] / [`Analysis::equivalent`] — verdicts
//!   of the direct inclusion oracle, memoized per other operand as given:
//!   the operand's 64-bit fingerprint picks a slot, and the slot compares
//!   the operand's table, initial state and acceptance exactly, so a
//!   repeat query costs a lookup and one comparison (a context keeps its
//!   fingerprint). A miss quotients the operand: a plain automaton is
//!   minimized, and a context lends the quotient it already holds (see
//!   [`Operand`]).
//! * [`Analysis::canonical_hash`] — the structural content hash, taken
//!   once from the memoized minimization: the serve store keys an entry
//!   by it and the suite audit's prefilter reads it.
//! * [`Analysis::complement`] — the context of the complement automaton,
//!   built once: the operand of a disjointness query (`SUITE003`).
//! * [`Analysis::accepted_lasso`] / [`Analysis::rejected_lasso`] — the
//!   lasso sample: one word in the language and one outside it, each
//!   drawn once. A lasso that one automaton accepts and another rejects
//!   refutes inclusion with one deterministic run per side, so the
//!   suite audit and the serve store's ingest sweep pool the samples in
//!   a [`crate::canonical::LassoBank`] and try it before the inclusion
//!   oracle. The sample is drawn by the automaton's own kernel run
//!   ([`OmegaAutomaton::accepted_lasso`] on the automaton and on its
//!   complement), which keeps its own SCC memo: drawn through
//!   [`Analysis::sccs`], it would move passes from whichever query came
//!   next into whichever request drew the sample, and per-request
//!   counters (the daemon's `stats` blocks) would depend on the order
//!   requests arrived in.
//!
//! Each question has one entry point here; the free functions that remain
//! elsewhere ([`crate::classify::classify`], the topology predicates, the
//! Prop 5.1 constructions) are one `Analysis` call each, and the
//! automaton's own emptiness and liveness methods run the same kernel
//! functions with a per-query SCC memo. [`Analysis`] is the engine
//! underneath `hierarchy_core::Property`.
//!
//! All caches use `OnceLock`/`Mutex` interior mutability, so `Analysis`
//! is `Send + Sync` and can back a shared `Property` value; the
//! [`AnalysisStats`] counters record how many SCC passes actually ran
//! versus how many were served from cache (the `TAB-DEC` experiment
//! reports them). One context can be shared by many threads (the
//! `spec-serve` daemon queries one per warm artifact from every
//! connection): the SCC memo keys each restriction to a once-cell, so
//! concurrent queries never duplicate a Tarjan pass, and every cache
//! lock recovers from poisoning (the caches hold only memoized pure
//! results, so a panicking thread's lock leaves nothing half-mutated —
//! see `lock_recover`).

use crate::acceptance::Acceptance;
use crate::bitset::BitSet;
use crate::canonical::{self, ArtifactHash};
use crate::classify::{self, Classification};
use crate::counterfree::{self, CounterFreedom};
use crate::emptiness;
use crate::flat::FlatGraph;
use crate::lasso::Lasso;
use crate::minimize::{minimize, Minimization};
use crate::omega::OmegaAutomaton;
use crate::scc::SccDecomposition;
use crate::StateId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Locks a cache mutex, recovering from poisoning.
///
/// The caches only ever hold memoized results of pure computations, so a
/// panic on another thread that happened to hold a cache lock cannot have
/// left partial state behind that matters: whatever was inserted is a
/// valid memo entry, and whatever wasn't will be recomputed. Recovering
/// here keeps one panicking thread (e.g. a [`crate::par`] worker) from
/// cascading into unrelated `PoisonError` panics on every later cache
/// access, which used to mask the original failure.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Snapshot of the cache instrumentation counters of an [`Analysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisStats {
    /// Tarjan passes actually executed.
    pub scc_passes: u64,
    /// States swept across all executed Tarjan passes (the size of each
    /// pass's restriction). The signature-preserving quotient keeps every
    /// loop's atom signature, so it saves states rather than passes (the
    /// pass counts tie on the `tab_minimize` suites); this is the counter
    /// that shows what quotient-first analysis saves per pass.
    pub scc_state_visits: u64,
    /// SCC requests served from the memo table.
    pub scc_hits: u64,
    /// Boolean products memoized by the context: always 0, since no
    /// query memoizes a product. The field stays because the daemon's
    /// `stats` block and `spec-lint --json` print it.
    pub products_built: u64,
    /// Product requests served from a memo: always 0, as above.
    pub product_hits: u64,
    /// Direct inclusion/equivalence oracle runs actually executed
    /// (see [`Analysis::is_subset_of`]).
    pub inclusion_checks: u64,
    /// Inclusion/equivalence requests served from the memo table.
    pub inclusion_hits: u64,
}

impl AnalysisStats {
    /// The per-field difference `self − baseline`, saturating at zero.
    ///
    /// This is how a long-lived context (the classification daemon keeps
    /// one per warm artifact) attributes cost to a single request: take
    /// a [`Analysis::stats_total`] snapshot before, one after, and
    /// subtract. The counters never decrease, so the delta against an
    /// earlier snapshot of the same context is exact; saturating rather
    /// than panicking keeps a mismatched baseline (a later snapshot, or
    /// one of another context) harmless.
    pub fn delta_since(&self, baseline: AnalysisStats) -> AnalysisStats {
        AnalysisStats {
            scc_passes: self.scc_passes.saturating_sub(baseline.scc_passes),
            scc_state_visits: self
                .scc_state_visits
                .saturating_sub(baseline.scc_state_visits),
            scc_hits: self.scc_hits.saturating_sub(baseline.scc_hits),
            products_built: self.products_built.saturating_sub(baseline.products_built),
            product_hits: self.product_hits.saturating_sub(baseline.product_hits),
            inclusion_checks: self
                .inclusion_checks
                .saturating_sub(baseline.inclusion_checks),
            inclusion_hits: self.inclusion_hits.saturating_sub(baseline.inclusion_hits),
        }
    }
}

#[derive(Debug, Default)]
struct StatCells {
    scc_passes: AtomicU64,
    scc_state_visits: AtomicU64,
    scc_hits: AtomicU64,
    inclusion_checks: AtomicU64,
    inclusion_hits: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> AnalysisStats {
        AnalysisStats {
            scc_passes: self.scc_passes.load(Ordering::Relaxed),
            scc_state_visits: self.scc_state_visits.load(Ordering::Relaxed),
            scc_hits: self.scc_hits.load(Ordering::Relaxed),
            inclusion_checks: self.inclusion_checks.load(Ordering::Relaxed),
            inclusion_hits: self.inclusion_hits.load(Ordering::Relaxed),
            ..AnalysisStats::default()
        }
    }

    fn from_snapshot(s: AnalysisStats) -> StatCells {
        StatCells {
            scc_passes: AtomicU64::new(s.scc_passes),
            scc_state_visits: AtomicU64::new(s.scc_state_visits),
            scc_hits: AtomicU64::new(s.scc_hits),
            inclusion_checks: AtomicU64::new(s.inclusion_checks),
            inclusion_hits: AtomicU64::new(s.inclusion_hits),
        }
    }
}

/// The other operand of [`Analysis::is_subset_of`] and
/// [`Analysis::equivalent`]: the automaton as given, which keys the memo,
/// and a language-equal automaton for the oracle of a quotienting context
/// to run on.
///
/// A plain [`OmegaAutomaton`] is minimized on each memo miss and
/// fingerprinted on each query. An [`Analysis`] lends the quotient its
/// context already holds (the one its own queries and the canonical hash
/// use), so a miss costs no partition refinement, and keeps its
/// fingerprint, so a hit costs no pass over its table; a
/// [`Analysis::new_raw`] context lends its raw automaton. Both forms of
/// one automaton share one memo entry.
pub trait Operand {
    /// The automaton as given: the memo key.
    fn given(&self) -> &OmegaAutomaton;

    /// A language-equal automaton, minimal where this operand can make
    /// it so.
    fn quotient(&self) -> Cow<'_, OmegaAutomaton>;

    /// The memo slot of [`Self::given`]: a 64-bit fingerprint of its
    /// transition table, initial state and acceptance condition. Equal
    /// automata have equal fingerprints; unequal ones may share one, and
    /// the memo tells them apart by comparing the automata themselves.
    fn fingerprint(&self) -> u64 {
        fingerprint(self.given())
    }
}

impl Operand for OmegaAutomaton {
    fn given(&self) -> &OmegaAutomaton {
        self
    }

    fn quotient(&self) -> Cow<'_, OmegaAutomaton> {
        let min = minimize(self);
        if min.reduced() {
            Cow::Owned(min.quotient)
        } else {
            Cow::Borrowed(self)
        }
    }
}

impl Operand for Analysis {
    fn given(&self) -> &OmegaAutomaton {
        &self.aut
    }

    fn quotient(&self) -> Cow<'_, OmegaAutomaton> {
        Cow::Borrowed(self.effective_automaton())
    }

    fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| fingerprint(&self.aut))
    }
}

impl<T: Operand + ?Sized> Operand for &T {
    fn given(&self) -> &OmegaAutomaton {
        (**self).given()
    }

    fn quotient(&self) -> Cow<'_, OmegaAutomaton> {
        (**self).quotient()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

/// The fingerprint of [`Operand::fingerprint`]: the automaton's table,
/// initial state and acceptance condition through a word-at-a-time
/// multiplicative hash (the `FxHash` step), finished by splitmix64.
fn fingerprint(aut: &OmegaAutomaton) -> u64 {
    let mut h = WordHasher(0);
    aut.table().hash(&mut h);
    aut.initial().hash(&mut h);
    aut.acceptance().hash(&mut h);
    h.finish()
}

/// A [`Hasher`] that mixes eight bytes per multiplication: a transition
/// table is a few hundred words, and the memo compares the automaton
/// itself after the fingerprint, so speed matters here and collisions
/// only cost a comparison.
struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        canonical::splitmix64(self.0)
    }
}

/// Which verdict of the direct oracle a memo entry answers (see
/// [`Analysis::is_subset_of`] / [`Analysis::equivalent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OracleQuery {
    /// `L(self) ⊆ L(other)`.
    Included,
    /// `L(self) = L(other)`.
    Equivalent,
}

/// The *other* operand of a memo entry, as the caller passed it: its
/// transition table, initial state and acceptance condition (the
/// alphabet must equal ours; the product asserts it). An entry answers a
/// query about an automaton exactly when the automaton matches its key,
/// which is the same automaton, hence the same language, so a hit is
/// answered before the operand is quotiented. Two raw operands with one
/// quotient take one entry each.
#[derive(Debug, Clone)]
struct OperandKey {
    delta: Vec<StateId>,
    initial: StateId,
    acceptance: Acceptance,
}

impl OperandKey {
    fn of(other: &OmegaAutomaton) -> OperandKey {
        OperandKey {
            delta: other.table().to_vec(),
            initial: other.initial(),
            acceptance: other.acceptance().clone(),
        }
    }

    /// Whether `other` is the automaton this key was taken from.
    fn matches(&self, other: &OmegaAutomaton) -> bool {
        self.initial == other.initial()
            && self.delta == other.table()
            && self.acceptance == *other.acceptance()
    }
}

/// One slot of the inclusion memo: the entries whose operands share a
/// fingerprint, each with its verdict, for one question.
type MemoSlot = Vec<(OperandKey, bool)>;

/// The condensation DAG of the reachable part of the automaton, with the
/// acceptance status of every component.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// The underlying SCC decomposition (restricted to reachable states;
    /// components in reverse topological order, successors first).
    pub sccs: Arc<SccDecomposition>,
    /// `succs[c]` lists the distinct successor components of `c` (every
    /// inter-component edge goes from a higher index to a lower one).
    pub succs: Vec<Vec<usize>>,
    /// `status[c]` is `Some(accepting)` for components with a cycle and
    /// `None` for transient components.
    pub status: Vec<Option<bool>>,
}

/// A memo entry of [`Analysis::live`] / [`Analysis::co_live`]:
/// `(cycles, live)`, the reachable states on an accepting cycle and those
/// that reach one.
type LiveSets = (BitSet, Arc<BitSet>);

/// One claimable slot of the per-restriction SCC memo: whoever inserts
/// the cell computes the decomposition; same-key racers block on it.
type SccCell = Arc<OnceLock<Arc<SccDecomposition>>>;

/// A per-automaton memoized analysis context (see the module docs).
///
/// Construction is cheap; every intermediate is computed lazily on first
/// use and shared afterwards. All caches sit behind interior mutability,
/// so a shared `&Analysis` is all any consumer needs.
#[derive(Debug)]
pub struct Analysis {
    aut: OmegaAutomaton,
    /// Whether the quotient-first pipeline is active (see
    /// [`Analysis::new_raw`] for when it is not).
    quotient_enabled: bool,
    stats: StatCells,
    /// The deduplicated successor graph — built once, walked by every
    /// Tarjan pass in place of the automaton's per-symbol enumeration.
    graph: OnceLock<Arc<FlatGraph>>,
    /// The same graph reversed, built once: both live sets close their
    /// cycle states backwards over it.
    predecessors: OnceLock<Arc<FlatGraph>>,
    /// The partition-refinement minimization of `aut` (lazy).
    minimization: OnceLock<Arc<Minimization>>,
    /// The canonical hash of the minimization's quotient (lazy).
    canonical_hash: OnceLock<ArtifactHash>,
    /// The automaton's [`Operand::fingerprint`] (lazy).
    fingerprint: OnceLock<u64>,
    /// The context of the complement automaton (lazy; see
    /// [`Analysis::complement`]).
    complement: OnceLock<Box<Analysis>>,
    /// The analysis context of the quotient automaton, when quotienting
    /// is enabled *and* actually shrank the automaton (`None` otherwise).
    /// The inner context is always a raw one, so the recursion stops
    /// here.
    quotient: OnceLock<Option<Box<Analysis>>>,
    reachable: OnceLock<BitSet>,
    /// Per-restriction decompositions. Each key owns a once-cell so that
    /// concurrent threads asking for the *same* restriction block on one
    /// computation instead of racing duplicate Tarjan passes — the
    /// `scc_passes` counter is exact under concurrency, and the `2^m`
    /// lattice budget holds for any number of threads.
    sccs: Mutex<HashMap<Option<BitSet>, SccCell>>,
    condensation: OnceLock<Arc<Condensation>>,
    /// The deepest `[rejecting, accepting]` nodes of the alternating
    /// cycle decomposition (see [`Analysis::acd_depths`]).
    acd: OnceLock<[Option<usize>; 2]>,
    /// The live sets of the automaton's own condition and of its
    /// negation, `[own, negated]`: the reachable states on an accepting
    /// cycle, and the reachable states that reach one. No other
    /// condition is ever asked, since negation is an involution.
    live: [OnceLock<LiveSets>; 2],
    classification: OnceLock<Classification>,
    counter_freedom: OnceLock<CounterFreedom>,
    /// Memoized verdicts of the direct inclusion/equivalence oracle, in
    /// slots keyed by the other operand's fingerprint and the question;
    /// inside a slot each entry holds the operand as given (never its
    /// quotient) and is compared with it exactly.
    inclusions: Mutex<HashMap<(u64, OracleQuery), MemoSlot>>,
    /// The lasso sample, `[rejected, accepted]` (see
    /// [`Analysis::accepted_lasso`]).
    lassos: [OnceLock<Option<Lasso>>; 2],
}

impl Clone for Analysis {
    fn clone(&self) -> Self {
        Analysis {
            aut: self.aut.clone(),
            quotient_enabled: self.quotient_enabled,
            stats: StatCells::from_snapshot(self.stats.snapshot()),
            graph: self.graph.clone(),
            predecessors: self.predecessors.clone(),
            minimization: self.minimization.clone(),
            canonical_hash: self.canonical_hash.clone(),
            fingerprint: self.fingerprint.clone(),
            complement: self.complement.clone(),
            quotient: self.quotient.clone(),
            reachable: self.reachable.clone(),
            sccs: Mutex::new(lock_recover(&self.sccs).clone()),
            condensation: self.condensation.clone(),
            acd: self.acd.clone(),
            live: self.live.clone(),
            classification: self.classification.clone(),
            counter_freedom: self.counter_freedom.clone(),
            inclusions: Mutex::new(lock_recover(&self.inclusions).clone()),
            lassos: self.lassos.clone(),
        }
    }
}

impl Analysis {
    /// Wraps `aut` with empty caches, with the quotient-first pipeline
    /// enabled: language-level queries (the classification, the Rabin
    /// index, inclusion and equivalence) run on the partition-refinement
    /// quotient of `aut` whenever minimization actually shrinks it. The
    /// hierarchy verdicts are properties of the language, so the results
    /// are identical — a debug-mode tripwire asserts the quotient verdict
    /// against the raw one on every classification.
    pub fn new(aut: OmegaAutomaton) -> Self {
        Self::with_quotient(aut, true)
    }

    /// Wraps `aut` with empty caches and quotienting disabled: every
    /// query runs on the raw automaton. Used for the inner quotient
    /// context itself, by the differential tests, and by the
    /// `tab_minimize` experiment to measure the raw baseline.
    pub fn new_raw(aut: OmegaAutomaton) -> Self {
        Self::with_quotient(aut, false)
    }

    fn with_quotient(aut: OmegaAutomaton, quotient_enabled: bool) -> Self {
        Analysis {
            aut,
            quotient_enabled,
            stats: StatCells::default(),
            graph: OnceLock::new(),
            predecessors: OnceLock::new(),
            minimization: OnceLock::new(),
            canonical_hash: OnceLock::new(),
            fingerprint: OnceLock::new(),
            complement: OnceLock::new(),
            quotient: OnceLock::new(),
            reachable: OnceLock::new(),
            sccs: Mutex::new(HashMap::new()),
            condensation: OnceLock::new(),
            acd: OnceLock::new(),
            live: [OnceLock::new(), OnceLock::new()],
            classification: OnceLock::new(),
            counter_freedom: OnceLock::new(),
            inclusions: Mutex::new(HashMap::new()),
            lassos: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The analyzed automaton.
    pub fn automaton(&self) -> &OmegaAutomaton {
        &self.aut
    }

    /// The automaton's successor graph in CSR form (built on first use).
    /// All Tarjan passes of this context walk it instead of
    /// re-enumerating `step()` per symbol.
    fn graph(&self) -> &FlatGraph {
        self.graph.get_or_init(|| {
            let aut = &self.aut;
            Arc::new(FlatGraph::from_delta(
                aut.num_states(),
                aut.alphabet().len(),
                aut.table(),
            ))
        })
    }

    /// The reversed successor graph (built on first use from
    /// [`Self::graph`]).
    fn predecessors(&self) -> &FlatGraph {
        self.predecessors
            .get_or_init(|| Arc::new(self.graph().reversed()))
    }

    /// The partition-refinement minimization of the automaton (computed
    /// on first use). Exposed so consumers like lint rule `AUT004` can
    /// report the exact quotient classes.
    pub fn minimization(&self) -> &Minimization {
        self.minimization
            .get_or_init(|| Arc::new(minimize(&self.aut)))
    }

    /// The automaton's structural content hash, computed once:
    /// [`canonical::hash_canonical`] of [`Self::minimization`]'s quotient,
    /// which equals [`canonical::structural_hash`] of the automaton. The
    /// serve store keys an entry by it at ingest, and the suite audit's
    /// prefilter reads it, so a warm audit hashes nothing.
    pub fn canonical_hash(&self) -> ArtifactHash {
        *self
            .canonical_hash
            .get_or_init(|| canonical::hash_canonical(&self.minimization().quotient))
    }

    /// The context of the complement automaton (same structure, negated
    /// acceptance, quotienting as this context does), built on first
    /// use. As an [`Operand`] it keys the inclusion memo as
    /// `automaton().complement()` would and lends a quotient built once,
    /// so `ctx.is_subset_of(other.complement())` asks whether the two
    /// languages are disjoint at the price of a memo lookup when warm.
    /// Its counters are its own: [`Self::stats_total`] does not add them.
    pub fn complement(&self) -> &Analysis {
        self.complement.get_or_init(|| {
            Box::new(Self::with_quotient(
                self.aut.complement(),
                self.quotient_enabled,
            ))
        })
    }

    /// The analysis context of the quotient automaton — `Some` only when
    /// quotienting is enabled for this context *and* minimization
    /// strictly shrank the automaton. The inner context is raw (it never
    /// re-quotients), and [`Self::stats_total`] adds its counters.
    fn quotient_analysis(&self) -> Option<&Analysis> {
        self.quotient
            .get_or_init(|| {
                if !self.quotient_enabled {
                    return None;
                }
                let min = self.minimization();
                if !min.reduced() {
                    return None;
                }
                Some(Box::new(Analysis::new_raw(min.quotient.clone())))
            })
            .as_deref()
    }

    /// Forward-reachable states (computed once).
    pub fn reachable(&self) -> &BitSet {
        self.reachable.get_or_init(|| self.aut.reachable_states())
    }

    /// The SCC decomposition of the subgraph induced by `allowed`,
    /// memoized per distinct restriction. Every consumer of this context
    /// — the alternating cycle decomposition, liveness, emptiness, the
    /// condensation — routes its Tarjan runs through here, which is what
    /// makes their restrictions coincide and the total pass count
    /// collapse.
    pub fn sccs(&self, allowed: Option<&BitSet>) -> Arc<SccDecomposition> {
        // Claim (or find) the key's once-cell under the map lock, then
        // compute outside it: workers on distinct restrictions run fully
        // in parallel, while workers racing on the same restriction block
        // on the cell and share the single pass.
        let cell = {
            let mut map = lock_recover(&self.sccs);
            Arc::clone(
                map.entry(allowed.cloned())
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        let mut computed_here = false;
        let dec = cell.get_or_init(|| {
            computed_here = true;
            self.stats.scc_passes.fetch_add(1, Ordering::Relaxed);
            let swept = allowed.map_or(self.aut.num_states(), BitSet::len) as u64;
            self.stats
                .scc_state_visits
                .fetch_add(swept, Ordering::Relaxed);
            // Walk the CSR graph: same DFS order as the automaton (dedup
            // is order-preserving), contiguous successor slices.
            Arc::new(crate::scc::tarjan_scc(self.graph(), allowed))
        });
        if !computed_here {
            self.stats.scc_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(dec)
    }

    /// The reachable condensation DAG with per-component acceptance
    /// status. The SCC pass underneath is shared with the roots of the
    /// alternating cycle decomposition: both decompose the reachable set.
    pub fn condensation(&self) -> Arc<Condensation> {
        Arc::clone(self.condensation.get_or_init(|| {
            let reachable = self.reachable();
            let sccs = self.sccs(Some(reachable));
            let n_comp = sccs.len();
            let status: Vec<Option<bool>> = (0..n_comp)
                .map(|c| {
                    sccs.has_cycle[c].then(|| {
                        self.aut
                            .acceptance()
                            .accepts_infinity_set(&sccs.member_set(c))
                    })
                })
                .collect();
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_comp];
            for q in reachable.iter() {
                let cq = sccs.component[q];
                for sym in self.aut.alphabet().symbols() {
                    let ct = sccs.component[self.aut.step(q as StateId, sym) as usize];
                    if ct != cq && !succs[cq].contains(&ct) {
                        succs[cq].push(ct);
                    }
                }
            }
            Arc::new(Condensation {
                sccs,
                succs,
                status,
            })
        }))
    }

    /// The depths of the deepest rejecting and the deepest accepting node
    /// of the alternating cycle decomposition of this context's
    /// automaton, `[rejecting, accepting]` with the roots at depth 0
    /// (computed once; see [`crate::classify`]). Its SCC passes are
    /// routed through [`Self::sccs`], so it shares them with the kernel
    /// queries.
    fn acd_depths(&self) -> [Option<usize>; 2] {
        *self.acd.get_or_init(|| {
            classify::acd_depths(&self.aut, self.reachable(), |x| self.sccs(Some(x)))
        })
    }

    /// The live sets of the automaton's own condition (`negated ==
    /// false`) or of its negation, computed once each: the reachable
    /// states on an accepting cycle, kept beside the live set they close
    /// over so the safety and guarantee queries read both without another
    /// kernel run. The kernel's SCC source is this context's memo, and
    /// every restriction it asks for is `reachable − (union of acceptance
    /// atoms)`, so the passes are shared with the classification.
    fn live_sets(&self, negated: bool) -> &LiveSets {
        self.live[usize::from(negated)].get_or_init(|| {
            let own = self.aut.acceptance();
            let acc = if negated {
                Cow::Owned(own.negated())
            } else {
                Cow::Borrowed(own)
            };
            let reachable = self.reachable();
            let cycles = emptiness::cycle_states(&acc, self.aut.num_states(), reachable, |x| {
                self.sccs(Some(x))
            });
            let mut live = emptiness::backward_closure(self.predecessors(), cycles.clone());
            live.intersect_with(reachable);
            (cycles, Arc::new(live))
        })
    }

    /// Whether the language of this structure under its own condition
    /// (or, with `negated`, under the negation) is closed, the one safety
    /// query: no state on a reachable rejecting cycle is live. Dead
    /// states are successor-closed, so a run of the safety closure
    /// `A(Pref Π)` is accepted iff it stays live forever, and such a run
    /// escapes `Π` exactly when it settles into a rejecting cycle of live
    /// states (a cycle meeting the live set lies inside it). Both sets are
    /// kernel queries.
    fn is_closed(&self, negated: bool) -> bool {
        let (_, live) = self.live_sets(negated);
        let (rejecting, _) = self.live_sets(!negated);
        !live.intersects(rejecting)
    }

    /// Reachable live states under the automaton's own acceptance: the
    /// states from which an accepting run can still start. It agrees with
    /// [`OmegaAutomaton::live_states`] on every reachable state (the
    /// automaton method also reports unreachable live states, which no
    /// language question can observe).
    pub fn live(&self) -> Arc<BitSet> {
        Arc::clone(&self.live_sets(false).1)
    }

    /// Reachable live states of the complement (the same structure under
    /// the negated acceptance): the states from which some rejected run
    /// can still start. The reachable states outside it are universal.
    pub fn co_live(&self) -> Arc<BitSet> {
        Arc::clone(&self.live_sets(true).1)
    }

    /// The **full verdict**: all six class memberships plus the
    /// obligation and reactivity indices (computed once, then cached).
    ///
    /// Recurrence, persistence, obligation, simple reactivity, and the
    /// reactivity index are Wagner-style chain queries, read off the two
    /// depths of the alternating cycle decomposition (see
    /// [`crate::classify`]). Safety and guarantee are the kernel queries
    /// of [`Self::is_safety`] and [`Self::is_guarantee`]; the obligation
    /// index is the condensation DP of [`Self::obligation_index`].
    ///
    /// When the quotient-first pipeline is active, the verdict is
    /// computed on the partition-refinement quotient (strictly fewer
    /// states, hence cheaper SCC passes) — sound because every hierarchy
    /// class is a property of the language and the quotient is
    /// language-equal. A debug-mode tripwire re-derives the verdict on
    /// the raw automaton and asserts identity.
    pub fn classification(&self) -> &Classification {
        self.classification.get_or_init(|| {
            if let Some(q) = self.quotient_analysis() {
                let verdict = q.classification().clone();
                debug_assert!(
                    verdict == self.classification_raw(),
                    "quotient-first tripwire: the verdict on the quotient \
                     differs from the raw automaton's"
                );
                return verdict;
            }
            self.classification_raw()
        })
    }

    /// The full verdict computed directly on this context's automaton
    /// (no quotient routing). `None < Some(0)`, so "no node of a status
    /// below depth 0" is `depth <= Some(0)`.
    fn classification_raw(&self) -> Classification {
        let [rejecting, accepting] = self.acd_depths();
        let is_recurrence = accepting <= Some(0);
        let is_persistence = rejecting <= Some(0);
        let is_obligation = is_recurrence && is_persistence;
        Classification {
            is_safety: self.is_safety(),
            is_guarantee: self.is_guarantee(),
            is_obligation,
            is_recurrence,
            is_persistence,
            is_simple_reactivity: rejecting < Some(2),
            obligation_index: is_obligation.then(|| self.obligation_index()),
            reactivity_index: classify::alternation_index(rejecting),
        }
    }

    /// The obligation index (the `Obl_n` level), via the condensation DP
    /// on the cached condensation. Only meaningful when the language is
    /// an obligation.
    pub fn obligation_index(&self) -> usize {
        let cond = self.condensation();
        let init = cond.sccs.component[self.aut.initial() as usize];
        classify::obligation_index_from_condensation(&cond.succs, &cond.status, init)
    }

    /// The exact reactivity index (minimal Streett pair count).
    pub fn reactivity_index(&self) -> usize {
        self.classification().reactivity_index
    }

    /// The exact Rabin index: the reactivity index of the complement,
    /// read off the *same* alternating cycle decomposition — the
    /// complement's decomposition is ours with every status flipped, so
    /// its deepest rejecting node is our deepest accepting one.
    pub fn rabin_index(&self) -> usize {
        if let Some(q) = self.quotient_analysis() {
            let idx = q.rabin_index();
            debug_assert!(
                idx == classify::alternation_index(self.acd_depths()[1]),
                "quotient-first tripwire: Rabin index mismatch"
            );
            return idx;
        }
        classify::alternation_index(self.acd_depths()[1])
    }

    /// Whether the language is universal (`L = Σ^ω`): the complement —
    /// same structure, negated acceptance — must be empty, i.e. the
    /// initial state must not be in [`Self::co_live`]. That set is shared
    /// with the guarantee check of the full verdict, so asking both costs
    /// no extra SCC pass.
    pub fn is_universal(&self) -> bool {
        !self.co_live().contains(self.aut.initial() as usize)
    }

    /// Whether the language is a safety property: no reachable rejecting
    /// cycle lies in the live set. One kernel query on this context's
    /// automaton, shared with [`Self::live`] and [`Self::is_universal`].
    pub fn is_safety(&self) -> bool {
        self.is_closed(false)
    }

    /// Whether the language is a guarantee property (its complement is
    /// safety): no reachable accepting cycle lies in the co-live set.
    pub fn is_guarantee(&self) -> bool {
        self.is_closed(true)
    }

    /// Whether the language is an obligation property.
    pub fn is_obligation(&self) -> bool {
        self.classification().is_obligation
    }

    /// Whether the language is a recurrence property.
    pub fn is_recurrence(&self) -> bool {
        self.classification().is_recurrence
    }

    /// Whether the language is a persistence property.
    pub fn is_persistence(&self) -> bool {
        self.classification().is_persistence
    }

    /// Whether the language is a simple reactivity property.
    pub fn is_simple_reactivity(&self) -> bool {
        self.classification().is_simple_reactivity
    }

    /// The safety closure `A(Pref Π)`: a run is accepted iff it never
    /// leaves the live states. Unreachable states count as dead, which no
    /// run from the initial state can observe.
    pub fn safety_closure(&self) -> OmegaAutomaton {
        let dead = self.live().complement(self.aut.num_states());
        self.aut.with_acceptance(Acceptance::Fin(dead))
    }

    /// Whether the language is dense in `Σ^ω` (every reachable state is
    /// live) — the liveness test of the topology layer.
    pub fn is_dense(&self) -> bool {
        self.reachable().is_subset(&self.live())
    }

    /// Whether the language is empty (the initial state is not live).
    pub fn is_empty(&self) -> bool {
        !self.live().contains(self.aut.initial() as usize)
    }

    /// An accepted lasso, or `None` when the language is empty
    /// (computed once): the kernel's targeted tour of the first
    /// accepting region, by [`OmegaAutomaton::accepted_lasso`]. That run
    /// keeps its own SCC memo, so the sample adds no pass, hit or other
    /// count to [`Self::stats_total`] and leaves this context's memo tables as
    /// they were; a later query's counters are the same whether or not
    /// the sample was drawn first.
    pub fn accepted_lasso(&self) -> Option<&Lasso> {
        self.lassos[1]
            .get_or_init(|| self.aut.accepted_lasso())
            .as_ref()
    }

    /// A rejected lasso, or `None` when the language is universal
    /// (computed once): the accepted lasso of the complement, drawn the
    /// same way as [`Self::accepted_lasso`].
    pub fn rejected_lasso(&self) -> Option<&Lasso> {
        self.lassos[0]
            .get_or_init(|| self.aut.complement().accepted_lasso())
            .as_ref()
    }

    /// The counter-freedom verdict (memoized; uses the default monoid
    /// cap).
    pub fn counter_freedom(&self) -> &CounterFreedom {
        self.counter_freedom
            .get_or_init(|| counterfree::check_omega(&self.aut, counterfree::DEFAULT_MONOID_CAP))
    }

    /// The automaton language-level queries actually run on: the
    /// quotient when the quotient-first pipeline produced one, the raw
    /// automaton otherwise.
    fn effective_automaton(&self) -> &OmegaAutomaton {
        self.quotient_analysis()
            .map_or(&self.aut, |q| q.automaton())
    }

    /// The other operand of a query as the oracle runs it: its quotient
    /// when this context quotients, the automaton as given otherwise.
    fn oracle_operand<'a>(&self, other: &'a impl Operand) -> Cow<'a, OmegaAutomaton> {
        if self.quotient_enabled {
            other.quotient()
        } else {
            Cow::Borrowed(other.given())
        }
    }

    /// Language inclusion `L(self) ⊆ L(other)`, decided by the direct
    /// product-graph oracle of [`crate::inclusion`] (no complement, no
    /// DNF), memoized per operand. The memo is keyed by `other`'s
    /// automaton as given, so a repeat query costs the key alone, not a
    /// minimization, whether `other` comes as an automaton or as a
    /// context. On a miss the oracle runs on both quotients when the
    /// quotient-first pipeline is enabled; pass the context when one is
    /// at hand, so the miss borrows its quotient instead of minimizing
    /// the operand again (see [`Operand`]). In debug builds every oracle
    /// verdict is cross-checked against the classical complement+product
    /// oracle on the *raw* operands — one tripwire covering both the
    /// quotient-first routing and the new algorithm.
    pub fn is_subset_of(&self, other: &impl Operand) -> bool {
        self.inclusion_verdict(other, OracleQuery::Included)
    }

    /// Language equivalence through the same direct oracle (both
    /// directions share one product graph), memoized per operand, with
    /// the same debug-mode differential tripwire as
    /// [`Self::is_subset_of`].
    pub fn equivalent(&self, other: &impl Operand) -> bool {
        self.inclusion_verdict(other, OracleQuery::Equivalent)
    }

    /// The memo finds a verdict by the operand's fingerprint, then
    /// compares the operand with each entry of that slot exactly, so a
    /// hit copies and hashes nothing. A miss runs the oracle outside the
    /// lock and re-checks the slot before it stores the full key, so
    /// racing misses on one operand leave one entry.
    fn inclusion_verdict(&self, other: &impl Operand, query: OracleQuery) -> bool {
        let given = other.given();
        let slot = (other.fingerprint(), query);
        let find = |entries: &MemoSlot| {
            entries
                .iter()
                .find(|(key, _)| key.matches(given))
                .map(|&(_, verdict)| verdict)
        };
        if let Some(hit) = lock_recover(&self.inclusions).get(&slot).and_then(find) {
            self.stats.inclusion_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.stats.inclusion_checks.fetch_add(1, Ordering::Relaxed);
        let lhs = self.effective_automaton();
        let rhs = self.oracle_operand(other);
        let res = match query {
            OracleQuery::Included => crate::inclusion::included(lhs, &rhs),
            OracleQuery::Equivalent => crate::inclusion::equivalent(lhs, &rhs),
        };
        debug_assert_eq!(
            res,
            match query {
                OracleQuery::Included => self.aut.is_subset_of_via_complement(given),
                OracleQuery::Equivalent => self.aut.equivalent_via_complement(given),
            },
            "inclusion-oracle tripwire: direct verdict on the (quotiented) \
             operands differs from the complement oracle on the raw ones"
        );
        let mut memo = lock_recover(&self.inclusions);
        let entries = memo.entry(slot).or_default();
        if find(entries).is_none() {
            entries.push((OperandKey::of(given), res));
        }
        res
    }

    /// A snapshot of the cache counters: this context plus its quotient
    /// context, if one has been created. Queries are routed to the
    /// quotient whenever it is smaller, so this is the whole cost of the
    /// quotient-first pipeline (the `tab_minimize` experiment reports
    /// it).
    pub fn stats_total(&self) -> AnalysisStats {
        let mut s = self.stats.snapshot();
        if let Some(Some(q)) = self.quotient.get() {
            let qs = q.stats_total();
            s.scc_passes += qs.scc_passes;
            s.scc_state_visits += qs.scc_state_visits;
            s.scc_hits += qs.scc_hits;
            s.inclusion_checks += qs.inclusion_checks;
            s.inclusion_hits += qs.inclusion_hits;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::random::random_streett;
    use crate::random::rng::{SeedableRng, StdRng};

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// Last-symbol tracker over {a,b}.
    fn last_sym(sigma: &Alphabet, acc: Acceptance) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(sigma, 2, 0, |_, s| if s == b { 1 } else { 0 }, acc)
    }

    #[test]
    fn full_verdict_matches_free_functions() {
        let sigma = ab();
        let cases = [
            last_sym(&sigma, Acceptance::inf([1])), // □◇b
            last_sym(&sigma, Acceptance::fin([1])), // ◇□a
            OmegaAutomaton::empty(&sigma),
            OmegaAutomaton::universal(&sigma),
        ];
        for aut in cases {
            let ctx = Analysis::new(aut.clone());
            let free = classify::classify(&aut);
            assert_eq!(ctx.classification(), &free);
            assert_eq!(free.is_simple_reactivity, free.reactivity_index == 1);
            let co = Analysis::new(aut.complement());
            assert_eq!(ctx.rabin_index(), co.reactivity_index());
        }
    }

    /// `aut` twice over: the first copy drops into the second on the
    /// last symbol from its even states, so the reachable graph has
    /// regions strictly inside the reachable set.
    fn two_layers(aut: &OmegaAutomaton) -> OmegaAutomaton {
        let n = aut.num_states();
        let last = aut.alphabet().symbols().last().unwrap();
        let acc = aut
            .acceptance()
            .map_sets(&|s| s.iter().flat_map(|q| [q, q + n]).collect());
        OmegaAutomaton::build(
            aut.alphabet(),
            2 * n,
            aut.initial(),
            |q, s| {
                let (copy, q) = (q as usize / n, q as usize % n);
                let t = aut.step(q as StateId, s) as usize;
                let drop = copy == 0 && s == last && q % 2 == 0;
                (t + n * usize::from(copy == 1 || drop)) as StateId
            },
            acc,
        )
    }

    #[test]
    fn scc_passes_are_shared_across_queries() {
        let sigma = ab();
        let ctx = Analysis::new(last_sym(&sigma, Acceptance::inf([1])));
        let _ = ctx.classification();
        let passes_after_classify = ctx.stats_total().scc_passes;
        // Everything else reuses the same restrictions, and the lasso
        // sample runs off the books.
        let _ = ctx.safety_closure();
        let _ = ctx.accepted_lasso();
        let _ = ctx.rejected_lasso();
        let _ = ctx.condensation();
        let _ = ctx.rabin_index();
        assert_eq!(ctx.stats_total().scc_passes, passes_after_classify);
        assert!(ctx.stats_total().scc_hits > 0);

        // Multi-pair Streett and Rabin conditions: the classification's
        // safety and guarantee checks run the kernel on the condition and
        // its negation, and every restriction the kernel and the
        // alternating cycle decomposition ask for is `reachable − (union
        // of atoms)`, so no query after the classification adds a pass.
        // The two-layer automata have regions strictly inside the
        // reachable set.
        let mut rng = StdRng::seed_from_u64(120);
        for i in 0..120usize {
            let n = 4 + i % 21;
            let k = 2 + i % 3;
            let (streett, _) = random_streett(&mut rng, &sigma, n, k, 0.25);
            let aut = if i % 2 == 0 {
                streett
            } else {
                streett.complement()
            };
            let ctx = Analysis::new_raw(two_layers(&aut));
            let _ = ctx.classification();
            let passes = ctx.stats_total().scc_passes;
            let _ = ctx.live();
            let _ = ctx.is_empty();
            let _ = ctx.is_universal();
            let _ = ctx.accepted_lasso();
            let _ = ctx.rejected_lasso();
            let _ = ctx.safety_closure();
            let _ = ctx.rabin_index();
            assert_eq!(
                ctx.stats_total().scc_passes,
                passes,
                "case {i}: n={n}, k={k}"
            );
        }
    }

    /// The lasso sample on seeded Streett, Rabin and parity automata, with
    /// and without the quotient: the accepted lasso exists exactly for a
    /// non-empty language and is accepted, the rejected one exists
    /// exactly for a non-universal language and is rejected, repeats
    /// return the same words, and drawing the sample moves no counter.
    #[test]
    fn lasso_sample_is_a_memoized_witness_off_the_books() {
        use crate::random::{random_parity, random_rabin};
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(0x1A550);
        let (mut accepted, mut rejected) = (0, 0);
        for i in 0..180usize {
            let n = 2 + i % 9;
            let aut = match i % 3 {
                0 => random_streett(&mut rng, &sigma, n, 1 + i % 3, 0.3).0,
                1 => random_rabin(&mut rng, &sigma, n, 1 + i % 3, 0.3),
                _ => random_parity(&mut rng, &sigma, n, 1 + (i % 4) as u32),
            };
            for ctx in [Analysis::new(aut.clone()), Analysis::new_raw(aut.clone())] {
                let before = ctx.stats_total();
                let (acc, rej) = (ctx.accepted_lasso().cloned(), ctx.rejected_lasso().cloned());
                assert_eq!(
                    ctx.stats_total(),
                    before,
                    "case {i}: the sample moved a counter"
                );
                assert_eq!(acc.is_none(), ctx.is_empty(), "case {i}");
                assert_eq!(rej.is_none(), ctx.is_universal(), "case {i}");
                if let Some(w) = &acc {
                    assert!(aut.accepts(w), "case {i}: accepted lasso rejected");
                    accepted += 1;
                }
                if let Some(w) = &rej {
                    assert!(!aut.accepts(w), "case {i}: rejected lasso accepted");
                    rejected += 1;
                }
                let after = ctx.stats_total();
                assert_eq!(ctx.accepted_lasso(), acc.as_ref(), "case {i}");
                assert_eq!(ctx.rejected_lasso(), rej.as_ref(), "case {i}");
                assert_eq!(
                    ctx.stats_total(),
                    after,
                    "case {i}: a repeat moved a counter"
                );
            }
        }
        assert!(accepted > 60 && rejected > 60, "{accepted} {rejected}");
    }

    #[test]
    fn classification_is_cached() {
        let sigma = ab();
        let ctx = Analysis::new(last_sym(&sigma, Acceptance::inf([1])));
        let first = ctx.classification().clone();
        let passes = ctx.stats_total().scc_passes;
        for _ in 0..10 {
            assert_eq!(ctx.classification(), &first);
        }
        assert_eq!(ctx.stats_total().scc_passes, passes);
    }

    #[test]
    fn inclusion_memo_hits_on_repeat_and_both_directions_are_checked() {
        let sigma = ab();
        // □◇b and ◇□a are disjoint non-empty languages, so *neither*
        // inclusion direction holds. (This used to assert the forward
        // direction twice, leaving the reverse direction untested.)
        let ctx = Analysis::new(last_sym(&sigma, Acceptance::inf([1])));
        let other = last_sym(&sigma, Acceptance::fin([1]));
        assert!(!ctx.is_subset_of(&other));
        assert!(!ctx.is_subset_of(&other)); // repeat: memo hit
        let rev = Analysis::new(other.clone());
        assert!(!rev.is_subset_of(ctx.automaton()));
        let s = ctx.stats_total();
        assert_eq!(s.inclusion_checks, 1);
        assert_eq!(s.inclusion_hits, 1);
        // Equivalence is a distinct memo entry, then hits on repeat.
        assert!(!ctx.equivalent(&other));
        assert!(!ctx.equivalent(&other));
        let s = ctx.stats_total();
        assert_eq!(s.inclusion_checks, 2);
        assert_eq!(s.inclusion_hits, 2);
        // An operand that minimization reduces (state 2 is unreachable)
        // is keyed as given: one check, then a hit on the repeat.
        let b = sigma.symbol("b").unwrap();
        let padded = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        assert!(minimize(&padded).reduced());
        let want = ctx.automaton().is_subset_of_via_complement(&padded);
        assert_eq!(ctx.is_subset_of(&padded), want);
        assert_eq!(ctx.is_subset_of(&padded), want);
        let s = ctx.stats_total();
        assert_eq!(s.inclusion_checks, 3);
        assert_eq!(s.inclusion_hits, 3);
        // Same transition table as `other`, another acceptance (□◇a):
        // a different key, so a fresh check, not a hit.
        let inf_a = last_sym(&sigma, Acceptance::inf([0]));
        let want = ctx.automaton().is_subset_of_via_complement(&inf_a);
        assert_eq!(ctx.is_subset_of(&inf_a), want);
        let s = ctx.stats_total();
        assert_eq!(s.inclusion_checks, 4);
        assert_eq!(s.inclusion_hits, 3);
    }

    /// A verdict planted for operand Y in the slot of operand X's
    /// fingerprint does not answer X: the exact comparison misses, the
    /// oracle runs for X, X's own verdict comes back, and the slot keeps
    /// both entries, so a repeat hits.
    #[test]
    fn a_verdict_in_the_slot_answers_only_its_own_operand() {
        let sigma = ab();
        let ctx = Analysis::new(last_sym(&sigma, Acceptance::inf([1]))); // □◇b
        let x = last_sym(&sigma, Acceptance::inf([0, 1])); // Σ^ω
        let y = last_sym(&sigma, Acceptance::fin([1])); // ◇□a
        let want = ctx.automaton().is_subset_of_via_complement(&x);
        assert!(want && !ctx.automaton().is_subset_of_via_complement(&y));
        let slot = (x.fingerprint(), OracleQuery::Included);
        assert_ne!(
            slot.0,
            y.fingerprint(),
            "Y is planted, not a real collision"
        );
        lock_recover(&ctx.inclusions).insert(slot, vec![(OperandKey::of(&y), !want)]);
        assert_eq!(ctx.is_subset_of(&x), want);
        let s = ctx.stats_total();
        assert_eq!((s.inclusion_checks, s.inclusion_hits), (1, 0));
        assert_eq!(lock_recover(&ctx.inclusions)[&slot].len(), 2);
        assert_eq!(ctx.is_subset_of(&x), want);
        let s = ctx.stats_total();
        assert_eq!((s.inclusion_checks, s.inclusion_hits), (1, 1));
    }

    /// Misses that race on one operand leave one entry: eight threads
    /// released together ask one question of a fresh context, each query
    /// counts one oracle run or one hit, and the memo ends with one
    /// entry, whichever threads missed.
    #[test]
    fn racing_misses_leave_one_entry() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(0x4ACE);
        for round in 0..12 {
            let (a, _) = random_streett(&mut rng, &sigma, 24, 2, 0.3);
            let (b, _) = random_streett(&mut rng, &sigma, 24, 2, 0.3);
            let ctx = Analysis::new(a);
            let gate = std::sync::Barrier::new(8);
            let verdicts: Vec<bool> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            gate.wait();
                            ctx.is_subset_of(&b)
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert!(verdicts.iter().all(|&v| v == verdicts[0]), "round {round}");
            let s = ctx.stats_total();
            assert_eq!(s.inclusion_checks + s.inclusion_hits, 8, "round {round}");
            let entries: usize = lock_recover(&ctx.inclusions).values().map(Vec::len).sum();
            assert_eq!(
                entries, 1,
                "round {round}: {} racers missed",
                s.inclusion_checks
            );
        }
    }

    /// An operand as an automaton, as a quotienting context and as a raw
    /// context keys one memo entry: the first form asked runs the
    /// oracle, the others hit, and every verdict agrees with the
    /// complement oracle, for quotienting and raw askers alike.
    #[test]
    fn operand_forms_share_one_memo_entry() {
        let sigma = ab();
        let mut rng = StdRng::seed_from_u64(0x0E4A);
        let mut reduced = 0;
        for i in 0..40usize {
            let (a, _) = random_streett(&mut rng, &sigma, 2 + i % 5, 1 + i % 2, 0.3);
            let (b, _) = random_streett(&mut rng, &sigma, 2 + i % 7, 1 + i % 2, 0.3);
            let b = if i % 2 == 0 { two_layers(&b) } else { b };
            reduced += usize::from(minimize(&b).reduced());
            let subset = a.is_subset_of_via_complement(&b);
            let equal = a.equivalent_via_complement(&b);
            for ctx in [Analysis::new(a.clone()), Analysis::new_raw(a.clone())] {
                let (quotienting, raw) = (Analysis::new(b.clone()), Analysis::new_raw(b.clone()));
                let forms: [&dyn Operand; 3] = [&b, &quotienting, &raw];
                // Rotate which form comes first.
                for k in 0..3 {
                    let form = (i + k) % 3;
                    let operand = forms[form];
                    let (sub, eq) = (ctx.is_subset_of(&operand), ctx.equivalent(&operand));
                    assert_eq!((sub, eq), (subset, equal), "case {i}, form {form}");
                    let s = ctx.stats_total();
                    let hits = k as u64;
                    assert_eq!(
                        (s.inclusion_checks, s.inclusion_hits),
                        (2, 2 * hits),
                        "case {i}, form {form}"
                    );
                }
            }
        }
        assert!(reduced > 5, "only {reduced} operands exercised a quotient");
    }

    #[test]
    fn clone_preserves_caches() {
        let sigma = ab();
        let ctx = Analysis::new(last_sym(&sigma, Acceptance::inf([1])));
        let verdict = ctx.classification().clone();
        let cloned = ctx.clone();
        let passes = cloned.stats_total().scc_passes;
        assert_eq!(cloned.classification(), &verdict);
        assert_eq!(
            cloned.stats_total().scc_passes,
            passes,
            "clone reuses caches"
        );
    }

    /// Regression: a worker panicking while it happens to hold a cache
    /// lock used to poison the mutex, turning every later cache access
    /// into an unrelated `PoisonError` panic that masked the original
    /// failure. The caches hold only memoized pure results, so recovery
    /// is sound — after the simulated worker death the context must keep
    /// answering queries, with the same verdict a fresh context computes.
    #[test]
    fn cache_locks_recover_from_poisoning() {
        let sigma = ab();
        let aut = last_sym(&sigma, Acceptance::inf([1]));
        let ctx = Analysis::new(aut.clone());

        // Poison both cache mutexes the way a dying worker would: panic
        // while holding the guard.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sccs = lock_recover(&ctx.sccs);
            let _inclusions = lock_recover(&ctx.inclusions);
            panic!("worker dies holding the cache locks");
        }));
        assert!(died.is_err());
        assert!(ctx.sccs.lock().is_err(), "mutex must actually be poisoned");

        // Every cache-touching query must still work and agree with a
        // fresh (never-poisoned) context.
        let fresh = Analysis::new(aut.clone());
        assert_eq!(ctx.classification(), fresh.classification());
        assert_eq!(*ctx.live(), *fresh.live());
        let other = last_sym(&sigma, Acceptance::fin([1]));
        assert_eq!(ctx.is_subset_of(&other), fresh.is_subset_of(&other));
        let cloned = ctx.clone();
        assert_eq!(cloned.classification(), fresh.classification());
    }

    #[test]
    fn emptiness_and_liveness_agree_with_free_versions() {
        let sigma = ab();
        for acc in [
            Acceptance::inf([1]),
            Acceptance::fin([1]),
            Acceptance::inf([1]).and(Acceptance::fin([1])),
        ] {
            let aut = last_sym(&sigma, acc);
            let ctx = Analysis::new(aut.clone());
            assert_eq!(ctx.is_empty(), aut.is_empty());
            match (ctx.accepted_lasso(), aut.accepted_lasso()) {
                (Some(w1), Some(w2)) => {
                    assert!(aut.accepts(w1) && aut.accepts(&w2));
                }
                (None, None) => {}
                (a, b) => panic!("emptiness disagreement: {a:?} vs {b:?}"),
            }
            // The context's live set = free live ∩ reachable.
            let mut free_live = aut.live_states();
            free_live.intersect_with(ctx.reachable());
            assert_eq!(*ctx.live(), free_live);
        }
    }

    /// Per-request attribution: snapshot → work → delta shows exactly
    /// that work; a repeat query is a pure cache hit, and a baseline
    /// taken after the work saturates at zero.
    #[test]
    fn stats_delta() {
        let sigma = ab();
        let ctx = Analysis::new(last_sym(&sigma, Acceptance::inf([1])));
        let before = ctx.stats_total();
        ctx.classification();
        let after_cold = ctx.stats_total();
        let cold = after_cold.delta_since(before);
        assert!(cold.scc_passes > 0, "cold classification runs passes");

        // The memo answers a repeat query: it does no new passes.
        ctx.classification();
        let warm = ctx.stats_total().delta_since(after_cold);
        assert_eq!(warm.scc_passes, 0, "classification memo must answer");

        // A baseline from after the work saturates, never underflows.
        let sat = before.delta_since(after_cold);
        assert_eq!(sat, AnalysisStats::default());
    }
}
