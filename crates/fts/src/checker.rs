//! The model checker: does every fair computation of a transition system
//! satisfy a property given as a deterministic ω-automaton?
//!
//! The check searches the product of the system with the property
//! automaton for a *fair counterexample cycle*: a reachable cycle that is
//! accepted by the **complement** acceptance condition and satisfies every
//! fairness requirement. The search is the iterated SCC refinement of the
//! accepting-cycle kernel ([`hierarchy_automata::emptiness`]) over the
//! complement's decomposition, since weak and strong fairness are exactly
//! Streett-shaped conditions over states and edges:
//!
//! * weak fairness of τ: the cycle contains a τ-edge or a state where τ is
//!   disabled (otherwise τ would be continuously enabled but never taken);
//! * strong fairness of τ: the cycle contains a τ-edge or no state where τ
//!   is enabled.
//!
//! The fairness check rides along as part of each region's cut. A
//! surviving region admits a targeted tour — the kernel's waypoints, the
//! region's edge of each fair transition and a disabling state for each
//! weakly fair one it cannot take — from which a lasso-shaped
//! counterexample is extracted, built on the kernel's path search.
//!
//! ## Invariant-first checking
//!
//! [`check_with_invariants`] puts the hierarchy to work before any
//! product is built: it runs the abstract-interpretation engine
//! ([`crate::absint`]) over a declarative program, re-verifies the
//! resulting certificate, and — when the property is a safety property
//! — discharges the check entirely in the abstract:
//! if no abstract (location, automaton-state) pair can emit a symbol
//! entering a dead automaton state, no bad prefix exists and the
//! property holds with **zero** concrete product states. Otherwise it
//! falls back to the explicit search, carrying the abstract pair set as
//! a pruning filter. Because the abstract set over-approximates the
//! concrete reachable set, the filter never actually removes a concrete
//! node — a nonzero [`CheckStats::pruned_product_states`] would witness
//! an unsoundness in the engine, which is exactly why the count is a
//! plain stats field surfaced all the way into the benchmark JSON:
//! release runs observe the tripwire too, instead of a `debug_assert!`
//! that vanishes under `--release`.

use crate::absint::{self, DomainKind, Invariant, Program};
use crate::error::CheckError;
use crate::system::{Fairness, TransitionSystem};
use hierarchy_automata::alphabet::{Alphabet, Symbol};
use hierarchy_automata::analysis::Analysis;
use hierarchy_automata::bitset::BitSet;
use hierarchy_automata::emptiness::{decompose, refine, shortest_path};
use hierarchy_automata::flat::FlatGraph;
use hierarchy_automata::lasso::Lasso;
use hierarchy_automata::minimize::minimize;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::scc::SccCache;
use hierarchy_automata::StateId;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// The result of a verification run.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every fair computation satisfies the property.
    Holds,
    /// A fair computation violating the property exists; the
    /// counterexample is a lasso of system states.
    Violated(Counterexample),
}

impl Verdict {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

/// A lasso-shaped fair computation violating the property.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// System states leading to the loop.
    pub stem: Vec<usize>,
    /// The looping system states (repeated forever); non-empty.
    pub cycle: Vec<usize>,
}

/// Counters describing one checking run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Concrete product nodes constructed (`0` when the property was
    /// discharged statically).
    pub product_states: usize,
    /// Successor nodes skipped by the abstract pruning filter. The
    /// filter is sound (the abstract set contains every concrete
    /// reachable pair), so this is `0` whenever the certificate holds —
    /// a nonzero count witnesses an engine bug, not a saving.
    pub pruned_product_states: usize,
    /// Abstract `(location, automaton-state)` pairs explored by
    /// [`check_with_invariants`] (`0` for plain explicit checking).
    pub abstract_pairs: usize,
    /// Whether the verdict was discharged by the invariant alone,
    /// without building any concrete product state.
    pub discharged: bool,
    /// Outcome of the independent certificate re-check (`None` when no
    /// invariant was computed).
    pub certificate_ok: Option<bool>,
}

/// A pruning filter for the product construction: the abstract
/// reachable `(location, complement-automaton state)` pairs, plus the
/// location of every concrete system state.
struct Prune<'a> {
    loc_of: &'a [usize],
    allowed: &'a HashSet<(usize, StateId)>,
}

/// Checks that every fair computation of `ts` (observed through its
/// alphabet) satisfies the language of `property`.
///
/// # Errors
///
/// Returns [`CheckError::InvalidSystem`] when the system fails
/// [`TransitionSystem::validate`] and [`CheckError::AlphabetMismatch`]
/// when the system and property observe different alphabets.
pub fn verify(ts: &TransitionSystem, property: &OmegaAutomaton) -> Result<Verdict, CheckError> {
    verify_product(ts, property, None).map(|(v, _)| v)
}

/// Like [`verify`], additionally returning [`CheckStats`] (product size;
/// the abstract fields stay at their defaults).
///
/// # Errors
///
/// Same as [`verify`].
pub fn verify_with_stats(
    ts: &TransitionSystem,
    property: &OmegaAutomaton,
) -> Result<(Verdict, CheckStats), CheckError> {
    verify_product(ts, property, None)
}

fn verify_product(
    ts: &TransitionSystem,
    property: &OmegaAutomaton,
    prune: Option<&Prune<'_>>,
) -> Result<(Verdict, CheckStats), CheckError> {
    ts.validate().map_err(CheckError::InvalidSystem)?;
    if ts.alphabet() != property.alphabet() {
        return Err(CheckError::AlphabetMismatch);
    }
    // Quotient the complement before building the product: the product
    // size is |system| × |bad|, so every state partition refinement
    // merges here is saved once per system state. Counterexamples are
    // unaffected — their stem and cycle consist of system states only,
    // and the replay validation below checks them against the *raw*
    // property.
    let bad = minimize(&property.complement()).quotient;
    let mut stats = CheckStats::default();
    let product = Product::build(ts, &bad, prune, &mut stats);
    stats.product_states = product.nodes.len();
    // Soundness: the abstract pair set over-approximates the concrete
    // one, so the filter must never fire — callers and the benchmark
    // observe `pruned_product_states` as a release-mode tripwire.
    let Some((region, legs)) = product.fair_cycle(ts, &bad) else {
        return Ok((Verdict::Holds, stats));
    };
    let cex = product.counterexample(&region, &legs);
    debug_assert!(
        validate_violation(ts, property, &cex).is_ok(),
        "checker produced an invalid counterexample: {:?}",
        validate_violation(ts, property, &cex)
    );
    Ok((Verdict::Violated(cex), stats))
}

/// One leg of a fair tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Reach this product node: a kernel waypoint, or a node disabling a
    /// weakly fair transition the region cannot take.
    Visit(usize),
    /// Take this product edge, the region's edge of a fair transition.
    Take(usize, usize),
}

/// The reachable product of a system with the complement automaton.
struct Product {
    /// `(system state, automaton state *before* reading the system
    /// state's observation)`; the first `initial` nodes are the initial
    /// ones.
    nodes: Vec<(usize, StateId)>,
    initial: usize,
    /// Edges annotated with the transition index that produced them:
    /// `(target node, transition)`.
    succs: Vec<Vec<(usize, usize)>>,
}

impl Product {
    fn build(
        ts: &TransitionSystem,
        bad: &OmegaAutomaton,
        prune: Option<&Prune<'_>>,
        stats: &mut CheckStats,
    ) -> Product {
        let mut ids: HashMap<(usize, StateId), usize> = HashMap::new();
        let mut nodes: Vec<(usize, StateId)> = Vec::new();
        let mut succs: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s0 in ts.initial_states() {
            let key = (s0, bad.initial());
            if let std::collections::hash_map::Entry::Vacant(e) = ids.entry(key) {
                e.insert(nodes.len());
                nodes.push(key);
                succs.push(Vec::new());
                queue.push_back(nodes.len() - 1);
            }
        }
        let initial = nodes.len();
        while let Some(n) = queue.pop_front() {
            let (s, q) = nodes[n];
            let q_after = bad.step(q, ts.observation(s));
            for (t_idx, t) in ts.transitions().iter().enumerate() {
                for &(from, to) in &t.edges {
                    if from != s {
                        continue;
                    }
                    let key = (to, q_after);
                    let m = match ids.get(&key) {
                        Some(&m) => m,
                        None => {
                            if let Some(p) = prune {
                                if !p.allowed.contains(&(p.loc_of[to], q_after)) {
                                    stats.pruned_product_states += 1;
                                    continue;
                                }
                            }
                            let m = nodes.len();
                            ids.insert(key, m);
                            nodes.push(key);
                            succs.push(Vec::new());
                            queue.push_back(m);
                            m
                        }
                    };
                    succs[n].push((m, t_idx));
                }
            }
        }
        Product {
            nodes,
            initial,
            succs,
        }
    }

    /// A reachable fair cycle accepted by `bad`, as a region of the
    /// product plus the legs of its tour: the kernel waypoints, then the
    /// fairness legs.
    ///
    /// `bad`'s acceptance is decomposed over *automaton* states and lifted
    /// to product nodes: the automaton state relevant to node `(s, q)` is
    /// the one after reading `obs(s)`, since the infinity set of the
    /// automaton run is the set of those along the cycle. The kernel's
    /// refinement takes the fairness requirements as part of each
    /// region's cut (see [`Self::fairness`]).
    fn fair_cycle(
        &self,
        ts: &TransitionSystem,
        bad: &OmegaAutomaton,
    ) -> Option<(BitSet, Vec<Leg>)> {
        let n = self.nodes.len();
        let states = |keep: &dyn Fn(usize, StateId) -> bool| -> BitSet {
            (0..n)
                .filter(|&v| keep(self.nodes[v].0, self.nodes[v].1))
                .collect()
        };
        let lift =
            |set: &BitSet| states(&|s, q| set.contains(bad.step(q, ts.observation(s)) as usize));
        // Where each transition is enabled, over product nodes.
        let enabled: Vec<BitSet> = ts
            .transitions()
            .iter()
            .map(|t| {
                let from: BitSet = t.edges.iter().map(|&(from, _)| from).collect();
                states(&|s, _| from.contains(s))
            })
            .collect();
        // One memoized SCC substrate over the product graph, shared by
        // every disjunct and refinement round.
        let mut sccs = SccCache::new(FlatGraph::from_fn(n, |v| {
            self.succs[v as usize]
                .iter()
                .map(|&(m, _)| m as StateId)
                .collect::<Vec<_>>()
        }));
        let all = BitSet::all(n);
        decompose(bad.acceptance(), bad.num_states())
            .iter()
            .find_map(|d| {
                let d = d.map_sets(lift);
                refine(
                    all.difference(&d.avoid),
                    None,
                    |x| sccs.sccs(Some(x)),
                    |r| {
                        let mut cut = d.violations(r);
                        if let Err(unfair) = self.fairness(ts, &enabled, r) {
                            cut.union_with(&unfair);
                        }
                        cut
                    },
                    |r, _| {
                        let mut legs: Vec<Leg> = d
                            .waypoints(&r)
                            .into_iter()
                            .map(|v| Leg::Visit(v as usize))
                            .collect();
                        legs.extend(self.fairness(ts, &enabled, &r).expect("the region is fair"));
                        Some((r, legs))
                    },
                )
            })
    }

    /// The fairness requirements of a region: `Ok` with the legs a fair
    /// tour must add — the region's edge of each fair transition it can
    /// take, and a node disabling each weakly fair transition it cannot —
    /// or `Err` with the nodes no fair cycle inside the region visits.
    ///
    /// * weak fairness of τ: the cycle contains a τ-edge or a node where
    ///   τ is disabled; a region with neither holds no fair cycle at all;
    /// * strong fairness of τ: the cycle contains a τ-edge or no node
    ///   where τ is enabled; without a τ-edge, the enabled nodes go.
    fn fairness(
        &self,
        ts: &TransitionSystem,
        enabled: &[BitSet],
        region: &BitSet,
    ) -> Result<Vec<Leg>, BitSet> {
        let mut legs = Vec::new();
        let mut cut = BitSet::new();
        for (t_idx, t) in ts.transitions().iter().enumerate() {
            if t.fairness == Fairness::None {
                continue;
            }
            let edge = region.iter().find_map(|v| {
                self.succs[v]
                    .iter()
                    .find(|&&(m, tt)| tt == t_idx && region.contains(m))
                    .map(|&(m, _)| Leg::Take(v, m))
            });
            if let Some(edge) = edge {
                legs.push(edge);
                continue;
            }
            match t.fairness {
                Fairness::Weak => match region.iter().find(|&v| !enabled[t_idx].contains(v)) {
                    Some(v) => legs.push(Leg::Visit(v)),
                    None => return Err(region.clone()),
                },
                Fairness::Strong => {
                    if region.intersects(&enabled[t_idx]) {
                        cut.union_with(&enabled[t_idx]);
                    }
                }
                Fairness::None => unreachable!(),
            }
        }
        if cut.is_empty() {
            Ok(legs)
        } else {
            Err(cut)
        }
    }

    /// The counterexample of a fair region: a shortest stem from the
    /// initial nodes into the region, then a cycle inside it through
    /// every leg and back to the entry node. Each leg is a shortest path
    /// inside the strongly connected region (plus one edge for a
    /// [`Leg::Take`]), so the cycle has at most `(legs + 1) · |region|`
    /// states.
    fn counterexample(&self, region: &BitSet, legs: &[Leg]) -> Counterexample {
        let n = self.nodes.len();
        let edges = |v: StateId, f: &mut dyn FnMut((), StateId)| {
            for &(m, _) in &self.succs[v as usize] {
                f((), m as StateId);
            }
        };
        let nodes = |steps: Vec<((), StateId)>| steps.into_iter().map(|(_, m)| m as usize);
        let path = |from: usize, to: usize| {
            let to = BitSet::from_iter([to]);
            let (_, steps) = shortest_path(n, [from as StateId], &to, Some(region), edges)
                .expect("the region is strongly connected");
            nodes(steps)
        };
        let (start, stem) = shortest_path(n, 0..self.initial as StateId, region, None, edges)
            .expect("the region is reachable");
        let stem: Vec<usize> = std::iter::once(start as usize).chain(nodes(stem)).collect();
        let entry = *stem.last().expect("the stem holds its start");
        let mut cycle: Vec<usize> = Vec::new();
        for &leg in legs {
            let at = *cycle.last().unwrap_or(&entry);
            match leg {
                Leg::Visit(v) => cycle.extend(path(at, v)),
                Leg::Take(u, v) => {
                    cycle.extend(path(at, u));
                    cycle.push(v);
                }
            }
        }
        if cycle.is_empty() {
            // The tour never left the entry: take any edge of the region.
            let next = self.succs[entry]
                .iter()
                .map(|&(m, _)| m)
                .find(|&m| region.contains(m))
                .expect("the region has a cycle");
            cycle.push(next);
        }
        let at = *cycle.last().expect("the cycle is non-empty");
        cycle.extend(path(at, entry));
        Counterexample {
            stem: stem.iter().map(|&v| self.nodes[v].0).collect(),
            cycle: cycle.iter().map(|&v| self.nodes[v].0).collect(),
        }
    }
}

/// Replays a counterexample against the system: the stem starts in an
/// initial state, every consecutive pair (through the cycle and around
/// its wrap) is an edge of some transition, and the cycle satisfies
/// every fairness requirement — a weakly fair transition is disabled
/// somewhere on the cycle or taken by it, a strongly fair transition is
/// enabled nowhere or taken. (A cycle pair shared by several transitions
/// can serve them all: successive unrollings of the lasso may attribute
/// it differently.)
///
/// # Errors
///
/// A human-readable description of the first defect found.
pub fn validate_counterexample(ts: &TransitionSystem, cex: &Counterexample) -> Result<(), String> {
    if cex.cycle.is_empty() {
        return Err("counterexample cycle is empty".to_string());
    }
    for &s in cex.stem.iter().chain(&cex.cycle) {
        if s >= ts.num_states() {
            return Err(format!("state {s} does not exist"));
        }
    }
    let first = *cex.stem.first().unwrap_or(&cex.cycle[0]);
    if !ts.initial_states().contains(&first) {
        return Err(format!("state {first} is not initial"));
    }
    let step_ok = |a: usize, b: usize| ts.successors(a).contains(&b);
    let seq: Vec<usize> = cex.stem.iter().chain(&cex.cycle).copied().collect();
    for w in seq.windows(2) {
        if !step_ok(w[0], w[1]) {
            return Err(format!("no transition edge {} -> {}", w[0], w[1]));
        }
    }
    let wrap = (*cex.cycle.last().unwrap(), cex.cycle[0]);
    if !step_ok(wrap.0, wrap.1) {
        return Err(format!("cycle does not close: {} -> {}", wrap.0, wrap.1));
    }
    let mut pairs: Vec<(usize, usize)> = cex.cycle.windows(2).map(|w| (w[0], w[1])).collect();
    pairs.push(wrap);
    for (t_idx, t) in ts.transitions().iter().enumerate() {
        if t.fairness == Fairness::None {
            continue;
        }
        if pairs.iter().any(|p| t.edges.contains(p)) {
            continue; // taken on the cycle
        }
        match t.fairness {
            Fairness::Weak => {
                if cex.cycle.iter().all(|&s| ts.enabled(t_idx, s)) {
                    return Err(format!(
                        "weakly fair transition {:?} is continuously enabled but never taken",
                        t.name
                    ));
                }
            }
            Fairness::Strong => {
                if cex.cycle.iter().any(|&s| ts.enabled(t_idx, s)) {
                    return Err(format!(
                        "strongly fair transition {:?} is recurrently enabled but never taken",
                        t.name
                    ));
                }
            }
            Fairness::None => unreachable!(),
        }
    }
    Ok(())
}

/// [`validate_counterexample`] plus the punchline: the observation lasso
/// induced by the replayed computation must be *rejected* by the
/// property (otherwise the "counterexample" satisfies it).
///
/// # Errors
///
/// As [`validate_counterexample`], or a message that the lasso satisfies
/// the property.
pub fn validate_violation(
    ts: &TransitionSystem,
    property: &OmegaAutomaton,
    cex: &Counterexample,
) -> Result<(), String> {
    validate_counterexample(ts, cex)?;
    let spoke: Vec<Symbol> = cex.stem.iter().map(|&s| ts.observation(s)).collect();
    let cycle: Vec<Symbol> = cex.cycle.iter().map(|&s| ts.observation(s)).collect();
    if property.accepts(&Lasso::new(spoke, cycle)) {
        return Err("the induced lasso satisfies the property".to_string());
    }
    Ok(())
}

/// The possible observation symbols at one abstract location, from the
/// three-valued truth of each proposition guard under the invariant.
/// Falls back to the whole alphabet when too many propositions are
/// undetermined for enumeration.
fn possible_symbols(prog: &Program, inv: &Invariant, sigma: &Alphabet, l: usize) -> Vec<Symbol> {
    let statuses: Vec<Option<bool>> = prog
        .observations
        .iter()
        .map(|g| inv.guard_status(l, g))
        .collect();
    let free: Vec<usize> = statuses
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    if free.len() > 16 {
        return sigma.symbols().collect();
    }
    let mut bits: Vec<bool> = statuses.iter().map(|s| *s == Some(true)).collect();
    (0..1usize << free.len())
        .map(|combo| {
            for (j, &i) in free.iter().enumerate() {
                bits[i] = combo >> j & 1 == 1;
            }
            sigma.valuation_symbol(&bits)
        })
        .collect()
}

/// The abstract successor relation on locations: `l → l'` when some
/// command branch, feasible under the invariant at `l`, may move the
/// `pc` to `l'`.
fn abstract_loc_succs(prog: &Program, inv: &Invariant) -> Vec<Vec<usize>> {
    let nlocs = inv.locations.len();
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); nlocs];
    for (l, row) in out.iter_mut().enumerate() {
        if !inv.location_reachable(l) {
            continue;
        }
        let env = &inv.locations[l].values;
        let mut targets: BTreeSet<usize> = BTreeSet::new();
        for cmd in &prog.commands {
            let Some(env_g) = absint::assume(&cmd.guard, env, &prog.domains) else {
                continue;
            };
            for br in &cmd.branches {
                let Some(env_b) = absint::solve::post_branch(&env_g, br, &prog.domains) else {
                    continue;
                };
                match prog.pc {
                    None => {
                        targets.insert(0);
                    }
                    Some(p) => {
                        for l2 in 0..prog.domains[p] {
                            if env_b[p] >> l2 & 1 == 1 {
                                targets.insert(l2);
                            }
                        }
                    }
                }
            }
        }
        *row = targets.into_iter().collect();
    }
    out
}

struct AbstractProduct {
    pairs: HashSet<(usize, StateId)>,
    hit_dead: bool,
}

/// BFS over the abstract product of the location graph with `aut`:
/// from each reachable pair `(l, q)`, every possible symbol at `l`
/// advances the automaton and every abstract location successor extends
/// the pair set. When `dead` is given, records whether any emission
/// steps into a dead automaton state (the abstract bad-prefix test).
fn abstract_product(
    prog: &Program,
    inv: &Invariant,
    sigma: &Alphabet,
    aut: &OmegaAutomaton,
    dead: Option<&BitSet>,
) -> AbstractProduct {
    let loc_succs = abstract_loc_succs(prog, inv);
    let symbols: Vec<Vec<Symbol>> = (0..inv.locations.len())
        .map(|l| {
            if inv.location_reachable(l) {
                possible_symbols(prog, inv, sigma, l)
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut pairs: HashSet<(usize, StateId)> = HashSet::new();
    let mut queue: VecDeque<(usize, StateId)> = VecDeque::new();
    for init in &prog.inits {
        let pr = (prog.location_of(init), aut.initial());
        if pairs.insert(pr) {
            queue.push_back(pr);
        }
    }
    let mut hit_dead = false;
    while let Some((l, q)) = queue.pop_front() {
        for &a in &symbols[l] {
            let q2 = aut.step(q, a);
            if let Some(d) = dead {
                if d.contains(q2 as usize) {
                    hit_dead = true;
                }
            }
            for &l2 in &loc_succs[l] {
                let pr = (l2, q2);
                if pairs.insert(pr) {
                    queue.push_back(pr);
                }
            }
        }
    }
    AbstractProduct { pairs, hit_dead }
}

/// Invariant-first verification of a declarative program against a
/// property over the proposition alphabet `sigma`.
///
/// Runs [`absint::analyze`] with the chosen domain, re-verifies the
/// certificate with [`absint::certify()`], and then:
///
/// 1. if the certificate holds and the property is a **safety**
///    property ([`Analysis::is_safety`]), attempts the abstract discharge: when no
///    abstract pair can emit a symbol entering a dead automaton state,
///    the property holds with zero concrete product states
///    ([`CheckStats::discharged`]);
/// 2. otherwise builds the explicit system and runs the product search,
///    pruned by the abstract pair set when the certificate holds (a
///    sound no-op filter kept as a cross-check — see the module docs).
///
/// A failed certificate is never trusted: the fall back is the plain
/// explicit search, and the failure is reported through
/// [`CheckStats::certificate_ok`] (and by `spec-lint` as `FTS007`).
///
/// # Errors
///
/// [`CheckError::InvalidProgram`] for an ill-formed program,
/// [`CheckError::AlphabetMismatch`] when `sigma` does not match the
/// program's observations or the property's alphabet,
/// [`CheckError::BuildFailed`] when explicit enumeration fails, plus
/// the errors of [`verify`].
pub fn check_with_invariants(
    program: &Program,
    sigma: &Alphabet,
    property: &OmegaAutomaton,
    domain: DomainKind,
) -> Result<(Verdict, CheckStats), CheckError> {
    program
        .validate()
        .map_err(|e| CheckError::InvalidProgram(e.to_string()))?;
    if property.alphabet() != sigma || sigma.propositions().len() != program.observations.len() {
        return Err(CheckError::AlphabetMismatch);
    }
    let inv = absint::analyze(program, domain);
    let cert_ok = absint::certify(program, &inv).is_ok();
    let mut stats = CheckStats {
        certificate_ok: Some(cert_ok),
        ..CheckStats::default()
    };

    if cert_ok {
        let ctx = Analysis::new(property.clone());
        if ctx.is_safety() {
            let dead = ctx.live().complement(property.num_states());
            let ap = abstract_product(program, &inv, sigma, property, Some(&dead));
            stats.abstract_pairs = ap.pairs.len();
            if !ap.hit_dead {
                stats.discharged = true;
                return Ok((Verdict::Holds, stats));
            }
        }
    }

    let (ts, vals) = program
        .to_builder(sigma)
        .build_with_valuations()
        .map_err(|e| CheckError::BuildFailed(e.to_string()))?;
    if cert_ok {
        let bad = property.complement();
        let ap = abstract_product(program, &inv, sigma, &bad, None);
        stats.abstract_pairs = ap.pairs.len();
        let loc_of: Vec<usize> = vals.iter().map(|v| program.location_of(v)).collect();
        let prune = Prune {
            loc_of: &loc_of,
            allowed: &ap.pairs,
        };
        let (verdict, vstats) = verify_product(&ts, property, Some(&prune))?;
        stats.product_states = vstats.product_states;
        stats.pruned_product_states = vstats.pruned_product_states;
        Ok((verdict, stats))
    } else {
        let (verdict, vstats) = verify_product(&ts, property, None)?;
        stats.product_states = vstats.product_states;
        Ok((verdict, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::alphabet::Alphabet;
    use hierarchy_logic::to_automaton::compile_over;
    use hierarchy_logic::Formula;

    /// A process looping n → t → c → n, with a lazy "stay at t" option.
    fn simple_loop(weak_entry: bool) -> (TransitionSystem, Alphabet) {
        let sigma = Alphabet::new(["n", "t", "c"]).unwrap();
        let mut ts = TransitionSystem::new(&sigma);
        let n = ts.add_state(sigma.symbol("n").unwrap());
        let t = ts.add_state(sigma.symbol("t").unwrap());
        let c = ts.add_state(sigma.symbol("c").unwrap());
        ts.set_initial(n);
        ts.add_transition("request", vec![(n, t)], Fairness::None);
        ts.add_transition("idle", vec![(n, n), (t, t)], Fairness::None);
        ts.add_transition(
            "enter",
            vec![(t, c)],
            if weak_entry {
                Fairness::Weak
            } else {
                Fairness::None
            },
        );
        ts.add_transition("leave", vec![(c, n)], Fairness::Weak);
        (ts, sigma)
    }

    fn spec(sigma: &Alphabet, src: &str) -> OmegaAutomaton {
        compile_over(sigma, &Formula::parse(sigma, src).unwrap()).unwrap()
    }

    #[test]
    fn safety_holds() {
        let (ts, sigma) = simple_loop(true);
        // □¬(n ∧ c) is trivially a tautology per-state; check a real one:
        // □(c → ⊖t): entering c only from t.
        let v = verify(&ts, &spec(&sigma, "G (c -> Y t)")).expect("check");
        assert!(v.holds());
    }

    #[test]
    fn response_needs_fairness() {
        // With weak fairness on `enter`, every request is served.
        let (ts, sigma) = simple_loop(true);
        assert!(verify(&ts, &spec(&sigma, "G (t -> F c)"))
            .expect("check")
            .holds());
        // Without fairness the process may idle at t forever.
        let (ts, sigma) = simple_loop(false);
        let v = verify(&ts, &spec(&sigma, "G (t -> F c)")).expect("check");
        match v {
            Verdict::Violated(cex) => {
                assert!(!cex.cycle.is_empty());
                // The counterexample loops in the trying state (1).
                assert!(cex.cycle.contains(&1));
            }
            Verdict::Holds => panic!("expected a violation"),
        }
    }

    #[test]
    fn violated_safety_gives_counterexample() {
        let (ts, sigma) = simple_loop(true);
        // □¬c is false: the system does reach c under fairness… but also
        // without: any computation reaching c violates.
        let v = verify(&ts, &spec(&sigma, "G !c")).expect("check");
        match v {
            Verdict::Violated(cex) => {
                let all: Vec<usize> = cex.stem.iter().chain(cex.cycle.iter()).copied().collect();
                assert!(all.contains(&2), "counterexample must reach c");
            }
            Verdict::Holds => panic!("□¬c should be violated"),
        }
    }

    #[test]
    fn strong_fairness_distinguishes() {
        // Two requesters sharing a semaphore; only strong fairness on the
        // grant transitions guarantees accessibility for both.
        let sigma = Alphabet::of_propositions(["c1", "c2"]).unwrap();
        let none = sigma.valuation_symbol(&[false, false]);
        let in1 = sigma.valuation_symbol(&[true, false]);
        let in2 = sigma.valuation_symbol(&[false, true]);
        let build = |fair: Fairness| {
            let mut ts = TransitionSystem::new(&sigma);
            let idle = ts.add_state(none);
            let c1 = ts.add_state(in1);
            let c2 = ts.add_state(in2);
            ts.set_initial(idle);
            ts.add_transition("grant1", vec![(idle, c1)], fair);
            ts.add_transition("grant2", vec![(idle, c2)], fair);
            ts.add_transition("release1", vec![(c1, idle)], Fairness::Weak);
            ts.add_transition("release2", vec![(c2, idle)], Fairness::Weak);
            ts
        };
        // Strong fairness: both critical sections recur.
        let ts = build(Fairness::Strong);
        assert!(verify(&ts, &spec(&sigma, "G F c1")).expect("check").holds());
        assert!(verify(&ts, &spec(&sigma, "G F c2")).expect("check").holds());
        // Weak fairness does NOT suffice: alternating idle→c1→idle→c1…
        // disables grant2 at c1, so grant2 is not continuously enabled.
        let ts = build(Fairness::Weak);
        let v = verify(&ts, &spec(&sigma, "G F c2")).expect("check");
        assert!(!v.holds(), "weak fairness admits starvation of process 2");
    }

    #[test]
    fn counterexample_is_a_real_computation() {
        let (ts, sigma) = simple_loop(false);
        let prop = spec(&sigma, "G (t -> F c)");
        if let Verdict::Violated(cex) = verify(&ts, &prop).expect("check") {
            // Each consecutive pair is an edge of the system; the cycle
            // closes.
            let check_step = |a: usize, b: usize| ts.successors(a).contains(&b);
            let mut seq = cex.stem.clone();
            seq.extend(cex.cycle.iter().copied());
            for w in seq.windows(2) {
                assert!(check_step(w[0], w[1]), "bad step {} -> {}", w[0], w[1]);
            }
            let last = *cex.cycle.last().unwrap();
            let first_of_cycle = cex.cycle[0];
            assert!(check_step(last, first_of_cycle), "cycle must close");
            // And the independent validator agrees on all counts.
            validate_violation(&ts, &prop, &cex).expect("validator");
        } else {
            panic!("expected violation");
        }
    }

    #[test]
    fn mux_safety_discharged_without_product() {
        let sigma = crate::absint::observation_alphabet();
        let prog = crate::absint::mux_sem_abs(Fairness::Strong);
        let prop = spec(&sigma, "G !(c1 & c2)");
        let (v, stats) =
            check_with_invariants(&prog, &sigma, &prop, DomainKind::ValueSets).expect("check");
        assert!(v.holds(), "mutual exclusion holds");
        assert_eq!(stats.certificate_ok, Some(true));
        assert!(stats.discharged, "safety should be proved abstractly");
        assert_eq!(stats.product_states, 0, "no product was built");
        assert!(stats.abstract_pairs > 0);
        // The explicit check of the same property does build a product —
        // the bench criterion "strictly fewer product states".
        let ts = prog.to_builder(&sigma).build().expect("builds");
        let (ev, estats) = verify_with_stats(&ts, &prop).expect("explicit");
        assert!(ev.holds());
        assert!(
            estats.product_states > stats.product_states,
            "explicit product ({}) must exceed the discharged path (0)",
            estats.product_states
        );
    }

    #[test]
    fn token_ring_safety_discharged() {
        let sigma = crate::absint::observation_alphabet();
        let prog = crate::absint::token_ring_abs(true);
        let prop = spec(&sigma, "G !(c1 & c2)");
        let (v, stats) =
            check_with_invariants(&prog, &sigma, &prop, DomainKind::ValueSets).expect("check");
        assert!(v.holds());
        assert!(stats.discharged);
        assert_eq!(stats.product_states, 0);
    }

    #[test]
    fn peterson_mutex_falls_back_to_product() {
        // The value-set domain cannot correlate tb with pc2, so the
        // abstract product reaches the dead state and the checker must
        // fall back to the explicit product — which still proves mutex,
        // and the prune filter must not remove any concrete node.
        let sigma = crate::absint::observation_alphabet();
        let prog = crate::absint::peterson_abs();
        let prop = spec(&sigma, "G !(c1 & c2)");
        let (v, stats) =
            check_with_invariants(&prog, &sigma, &prop, DomainKind::ValueSets).expect("check");
        assert!(v.holds(), "Peterson guarantees mutual exclusion");
        assert_eq!(stats.certificate_ok, Some(true));
        assert!(!stats.discharged, "cartesian domains cannot prove this");
        assert!(stats.product_states > 0, "explicit fallback ran");
        assert_eq!(
            stats.pruned_product_states, 0,
            "abstract pruning is a no-op"
        );
    }

    #[test]
    fn peterson_mutex_discharged_relationally() {
        // What the cartesian fallback above cannot do, the pair-relation
        // domain can: the (pc2, tb) correlation makes "both critical"
        // abstractly infeasible, so mutex discharges at zero product
        // states and both certifiers vouch for the invariant.
        let sigma = crate::absint::observation_alphabet();
        let prog = crate::absint::peterson_abs();
        let prop = spec(&sigma, "G !(c1 & c2)");
        let (v, stats) =
            check_with_invariants(&prog, &sigma, &prop, DomainKind::Relational).expect("check");
        assert!(v.holds(), "Peterson guarantees mutual exclusion");
        assert_eq!(stats.certificate_ok, Some(true));
        assert!(stats.discharged, "the relational domain proves this");
        assert_eq!(stats.product_states, 0, "no product was built");
        assert_eq!(stats.pruned_product_states, 0);
    }

    #[test]
    fn n_process_families_discharge_relationally() {
        let sigma = crate::absint::observation_alphabet();
        let prop = spec(&sigma, "G !(c1 & c2)");
        for n in 2..=4 {
            for (name, prog) in [
                ("mux_sem_n", crate::absint::mux_sem_n(n)),
                ("token_ring_n", crate::absint::token_ring_n(n)),
                ("dining_philosophers", crate::absint::dining_philosophers(n)),
            ] {
                let (v, stats) =
                    check_with_invariants(&prog, &sigma, &prop, DomainKind::Relational)
                        .expect("check");
                assert!(v.holds(), "{name}({n}): mutex holds");
                assert_eq!(stats.certificate_ok, Some(true), "{name}({n})");
                assert!(stats.discharged, "{name}({n}): static discharge");
                assert_eq!(stats.product_states, 0, "{name}({n})");
            }
        }
        // The cartesian honest gap, at family scale: value sets still
        // discharge mux_sem_n (the grant guard refines every pc_j), but
        // lose the token correlation of the distributed ring.
        let (v, stats) = check_with_invariants(
            &crate::absint::token_ring_n(4),
            &sigma,
            &prop,
            DomainKind::ValueSets,
        )
        .expect("check");
        assert!(v.holds());
        assert!(!stats.discharged, "cartesian masks lose the token bits");
        assert!(stats.product_states > 0);
    }

    #[test]
    fn invariant_first_agrees_on_violations() {
        // Weak fairness on the semaphore grants admits starvation; the
        // invariant-first checker must report the same violation the
        // explicit checker finds (response is not safety, so no
        // discharge is attempted).
        let sigma = crate::absint::observation_alphabet();
        let prog = crate::absint::mux_sem_abs(Fairness::Weak);
        let prop = spec(&sigma, "G (t2 -> F c2)");
        let (v, stats) =
            check_with_invariants(&prog, &sigma, &prop, DomainKind::ValueSets).expect("check");
        assert!(!stats.discharged);
        let ts = prog.to_builder(&sigma).build().expect("builds");
        let ev = verify(&ts, &prop).expect("explicit");
        assert_eq!(v.holds(), ev.holds());
        assert!(!v.holds(), "weak grants admit starvation");
        if let Verdict::Violated(cex) = v {
            assert!(!cex.cycle.is_empty());
        }
    }

    #[test]
    fn invariant_first_rejects_bad_inputs() {
        let sigma = crate::absint::observation_alphabet();
        let prog = crate::absint::mux_sem_abs(Fairness::Strong);
        let prop = spec(&sigma, "G !(c1 & c2)");
        // Alphabet mismatch: property over a different alphabet.
        let other = Alphabet::of_propositions(["p0", "p1"]).unwrap();
        let bad_prop = spec(&other, "G p0");
        assert!(matches!(
            check_with_invariants(&prog, &sigma, &bad_prop, DomainKind::ValueSets),
            Err(CheckError::AlphabetMismatch)
        ));
        // Invalid program: no variables.
        let empty = Program::new();
        assert!(matches!(
            check_with_invariants(&empty, &sigma, &prop, DomainKind::ValueSets),
            Err(CheckError::InvalidProgram(_))
        ));
    }

    /// Every counterexample replays, and its cycle stays within the
    /// targeted tour's bound of `(legs + 1) · |region|` states.
    #[test]
    fn counterexamples_replay_within_the_tour_bound() {
        use hierarchy_automata::random::rng::{SeedableRng, StdRng};
        let mut cases: Vec<(TransitionSystem, Alphabet, &str)> = Vec::new();
        for weak_entry in [false, true] {
            for src in ["G (t -> F c)", "G !c", "F G n", "G F t"] {
                let (ts, sigma) = simple_loop(weak_entry);
                cases.push((ts, sigma, src));
            }
        }
        let sigma = crate::absint::observation_alphabet();
        for fairness in [Fairness::Weak, Fairness::Strong] {
            for src in ["G (t2 -> F c2)", "G F c1", "F G !c2", "G !(c1 & c2)"] {
                let prog = crate::absint::mux_sem_abs(fairness);
                let ts = prog.to_builder(&sigma).build().expect("builds");
                cases.push((ts, sigma.clone(), src));
            }
        }
        for fair_pass in [false, true] {
            let prog = crate::absint::token_ring_abs(fair_pass);
            let ts = prog.to_builder(&sigma).build().expect("builds");
            cases.push((ts, sigma.clone(), "G (t1 -> F c1)"));
        }
        let psigma = Alphabet::of_propositions(["p0", "p1"]).unwrap();
        for seed in 0..30 {
            let prog = crate::absint::random_program(&mut StdRng::seed_from_u64(seed));
            for src in ["G p0", "F p1", "G (p0 -> F p1)", "G F p1", "F G p0"] {
                let ts = prog
                    .to_builder(&psigma)
                    .build()
                    .expect("random programs build");
                cases.push((ts, psigma.clone(), src));
            }
        }
        let mut violations = 0;
        for (ts, sigma, src) in &cases {
            let prop = spec(sigma, src);
            let bad = minimize(&prop.complement()).quotient;
            let product = Product::build(ts, &bad, None, &mut CheckStats::default());
            let found = product.fair_cycle(ts, &bad);
            assert_eq!(found.is_none(), verify(ts, &prop).expect("check").holds());
            if let Some((region, legs)) = found {
                let cex = product.counterexample(&region, &legs);
                validate_violation(ts, &prop, &cex).unwrap_or_else(|e| panic!("{src}: {e}"));
                let bound = (legs.len() + 1) * region.len();
                assert!(
                    cex.cycle.len() <= bound,
                    "{src}: {} > {bound}",
                    cex.cycle.len()
                );
                violations += 1;
            }
        }
        assert!(violations >= 20, "only {violations} violations exercised");
    }

    #[test]
    fn validator_rejects_tampered_counterexamples() {
        let (ts, sigma) = simple_loop(false);
        let prop = spec(&sigma, "G (t -> F c)");
        let Verdict::Violated(cex) = verify(&ts, &prop).expect("check") else {
            panic!("expected violation");
        };
        validate_violation(&ts, &prop, &cex).expect("the real one is valid");

        // Empty cycle.
        let mut bad = cex.clone();
        bad.cycle.clear();
        assert!(validate_counterexample(&ts, &bad)
            .unwrap_err()
            .contains("empty"));

        // Non-initial start: begin the stem at c (state 2).
        let bad = Counterexample {
            stem: vec![2],
            cycle: cex.cycle.clone(),
        };
        assert!(validate_counterexample(&ts, &bad)
            .unwrap_err()
            .contains("not initial"));

        // Non-edge step: c → c is not an edge of any transition.
        let bad = Counterexample {
            stem: vec![0, 1],
            cycle: vec![2, 2],
        };
        assert!(validate_counterexample(&ts, &bad).is_err());

        // Unfair cycle: with weak fairness on `enter`, idling at t
        // forever leaves a continuously enabled transition untaken.
        let (fair_ts, _) = simple_loop(true);
        let bad = Counterexample {
            stem: vec![0],
            cycle: vec![1],
        };
        assert!(validate_counterexample(&fair_ts, &bad)
            .unwrap_err()
            .contains("never taken"));
        // The same lasso is a perfectly fair computation when `enter`
        // carries no fairness.
        validate_counterexample(&ts, &bad).expect("fair without the constraint");
    }
}
