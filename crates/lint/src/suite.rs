//! Whole-suite static analysis (`SUITE001`–`SUITE005`): the audit pass
//! that looks *across* a set of properties instead of inside one.
//!
//! A specification is a conjunction of properties, and the questions a
//! spec-serving system gets asked are relational: is this new property
//! redundant given the rest, a duplicate of something already served,
//! contradictory with another conjunct, written in a needlessly strong
//! hierarchy class *for the suite it strengthens*? [`audit_suite`]
//! answers all of them in one pass over a suite of named ω-automata
//! (anything the workspace can compile to one — formulas, paper-notation
//! regexes, HOA artifacts):
//!
//! 1. **Subsumption lattice.** The full pairwise containment matrix
//!    `subsumption[i][j] ⇔ L_i ⊆ L_j`, filled in three steps. First the
//!    canonical-hash prefilter: members with equal [`structural_hash`]
//!    canonical forms are language-equal by construction, so both their
//!    cells are `true`. Then the suite's [`LassoBank`]: every member's
//!    lasso sample ([`Analysis::accepted_lasso`] and
//!    [`Analysis::rejected_lasso`]), and one table of which members
//!    accept which bank lasso, a [`LassoBank::row`] per member; cell
//!    `(i, j)` is `false` when some lasso is accepted by `i` and
//!    rejected by `j`, a witness of `L_i ⊄ L_j`. Most non-inclusions
//!    fall here, since two distinct languages tend to differ on the
//!    simple words a sample holds.
//!    Last, the polynomial inclusion oracle of [`Analysis::is_subset_of`]
//!    on the cells left. [`PrefilterStats`] records what the hash and
//!    the bank decided and how many oracle runs were issued, and the
//!    aggregated [`AnalysisStats`] delta shows the memo reuse
//!    (`inclusion_hits`) when the same contexts are audited twice — the
//!    warm-path payoff the serve daemon banks on.
//! 2. **Dominance DAG.** The transitive reduction (Hasse diagram) of
//!    strict containment between language-equivalence classes: an edge
//!    `i → j` means `L_i ⊊ L_j` with no class strictly between.
//! 3. **Suite rules.** `SUITE001` redundant property (implied by the
//!    conjunction of the others), `SUITE002` duplicate up to
//!    α/language-equivalence (both matrix cells `true`; equal hashes
//!    mean an identical canonical form, distinct ones that the matrix's
//!    oracle runs proved it), `SUITE003` conflicting pair (product
//!    emptiness: jointly unsatisfiable; a bank lasso both members accept
//!    clears a pair without the oracle), `SUITE004` class overkill
//!    relative to the suite, `SUITE005` dead atomic proposition.
//! 4. **Hierarchy coverage.** A per-class histogram over the
//!    safety–progress hierarchy, the raw material for `SUITE004`.
//!
//! Complexity budget: `n` members cost `O(n²)` pairwise queries. The
//! bank answers each with a lookup in the `n × |bank|` membership table
//! (`|bank| ≤ 2n`), which costs at most `2n²` deterministic runs on a
//! lasso per audit, warm or cold; the samples themselves are drawn once
//! per context. Each cell the bank leaves costs one oracle query, polynomial
//! in the (quotiented) state counts. The conjunction used by
//! `SUITE001`/`SUITE004` is folded with per-step minimization under
//! [`AuditOptions::conjunction_cap`] and skipped honestly (counted in
//! [`SuiteAudit::deep_checks_skipped`]) when the cap is hit.
//!
//! [`structural_hash`]: hierarchy_automata::canonical::structural_hash

use crate::diagnostic::{Diagnostic, Location, Severity};
use crate::registry;
use hierarchy_automata::analysis::{Analysis, AnalysisStats};
use hierarchy_automata::bitset::BitSet;
use hierarchy_automata::canonical::{ArtifactHash, LassoBank};
use hierarchy_automata::classify::Classification;
use hierarchy_automata::minimize::minimize;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::par;
use hierarchy_automata::StateId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for [`audit_suite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    /// Worker count for the per-member and pairwise fan-outs; `0` and
    /// `1` both run inline. The default is 1, because two workers made
    /// a warm audit about four times slower (DESIGN.md §12); one-shot
    /// callers such as `spec-lint audit` pass their core count.
    pub jobs: usize,
    /// State cap for the folded suite conjunction behind `SUITE001`'s
    /// deep check and `SUITE004`; `0` disables both. Members whose
    /// check was skipped because a fold blew the cap are counted in
    /// [`SuiteAudit::deep_checks_skipped`], never silently dropped.
    pub conjunction_cap: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            jobs: 1,
            conjunction_cap: 4096,
        }
    }
}

/// What the two steps in front of the inclusion oracle — the
/// canonical-hash prefilter and the suite's lasso bank — settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Unordered member pairs considered (`n·(n−1)/2`).
    pub pairs: u64,
    /// Pairs fully decided by canonical-hash equality (both containment
    /// directions for free).
    pub hash_decided: u64,
    /// Oracle queries the lasso bank made unnecessary: matrix cells
    /// `(i, j)` refuted by a lasso `i` accepts and `j` rejects, plus
    /// `SUITE003` candidate pairs cleared by a lasso both accept. Cells
    /// count one per direction, so this is not a count of `pairs`.
    pub lasso_decided: u64,
    /// Inclusion/equivalence oracle queries actually issued by the
    /// auditor (memoized ones still count — see
    /// [`AnalysisStats::inclusion_hits`] for the reuse).
    pub oracle_calls: u64,
}

/// The result of one suite audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteAudit {
    /// Member names, in input order (all indices below refer to it).
    pub names: Vec<String>,
    /// Strictest hierarchy class per member, in isolation.
    pub classes: Vec<&'static str>,
    /// `subsumption[i][j] ⇔ L_i ⊆ L_j` (reflexive).
    pub subsumption: Vec<Vec<bool>>,
    /// Smallest index with the same language as member `i`
    /// (`representative[i] == i` iff `i` is the first of its class).
    pub representative: Vec<usize>,
    /// Hasse edges `(i, j)` with `L_i ⊊ L_j` between class
    /// representatives, transitively reduced.
    pub dominance: Vec<(usize, usize)>,
    /// Per-class member counts over the hierarchy, strictest-first;
    /// classes with no member are omitted.
    pub histogram: Vec<(&'static str, usize)>,
    /// Per-member findings (`SUITE001`, `SUITE002`, `SUITE004`).
    pub member_diagnostics: Vec<Vec<Diagnostic>>,
    /// Suite-level findings (`SUITE003`, `SUITE005`).
    pub suite_diagnostics: Vec<Diagnostic>,
    /// Prefilter effectiveness on the pairwise matrix.
    pub prefilter: PrefilterStats,
    /// Aggregated [`Analysis`] counter delta across all member contexts
    /// for this audit (a warm re-audit shows up as `inclusion_hits`).
    pub stats: AnalysisStats,
    /// Members whose conjunction-based checks were skipped because the
    /// folded product exceeded [`AuditOptions::conjunction_cap`].
    pub deep_checks_skipped: usize,
}

/// Why a suite could not be audited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Two members read over different alphabets; cross-property
    /// language comparison is undefined there.
    AlphabetMismatch {
        /// Name of the first member (whose alphabet set the standard).
        first: String,
        /// Name of the first member that deviates from it.
        offender: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::AlphabetMismatch { first, offender } => write!(
                f,
                "suite members {first:?} and {offender:?} read different alphabets"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Hierarchy classes in strictest-first display order, shared by the
/// histogram and the dominance report.
const CLASS_ORDER: &[&str] = &[
    "safety ∩ guarantee",
    "safety",
    "guarantee",
    "obligation",
    "recurrence",
    "persistence",
    "simple reactivity",
    "reactivity",
];

/// Coarse rank of a class in the hierarchy (Figure 1 of the paper):
/// level-1 classes, obligation, level-2 classes, simple reactivity,
/// general reactivity. `SUITE004` fires when the rank of a member's
/// suite-relative weakening drops below the rank of the member itself.
fn class_rank(c: &Classification) -> u8 {
    if c.is_safety || c.is_guarantee {
        0
    } else if c.is_obligation {
        1
    } else if c.is_recurrence || c.is_persistence {
        2
    } else if c.is_simple_reactivity {
        3
    } else {
        4
    }
}

fn diag(
    rule: &'static registry::RuleInfo,
    location: Location,
    message: impl Into<String>,
) -> Diagnostic {
    Diagnostic::new(rule.code, rule.severity, location, message)
}

/// Audits a suite of named automata: builds one [`Analysis`] context
/// per member (in parallel) and delegates to [`audit_suite_ctx`]. Use
/// the `_ctx` variant when long-lived contexts are already at hand —
/// the serve daemon audits its warm store entries that way, and the
/// memoized matrix is the whole point.
pub fn audit_suite(
    items: &[(String, OmegaAutomaton)],
    opts: &AuditOptions,
) -> Result<SuiteAudit, AuditError> {
    let ctxs: Vec<Analysis> =
        par::map_with(opts.jobs, items, |(_, aut)| Analysis::new(aut.clone()));
    let borrowed: Vec<(&str, &Analysis)> = items
        .iter()
        .zip(&ctxs)
        .map(|((name, _), ctx)| (name.as_str(), ctx))
        .collect();
    audit_suite_ctx(&borrowed, opts)
}

/// [`audit_suite`] over pre-built contexts. The report is deterministic
/// and independent of `opts.jobs` (all fan-outs are order-preserving);
/// only the wall time changes.
pub fn audit_suite_ctx(
    items: &[(&str, &Analysis)],
    opts: &AuditOptions,
) -> Result<SuiteAudit, AuditError> {
    let n = items.len();
    let jobs = opts.jobs;
    if let Some(&(first_name, first_ctx)) = items.first() {
        let sigma = first_ctx.automaton().alphabet();
        for &(name, ctx) in &items[1..] {
            if ctx.automaton().alphabet() != sigma {
                return Err(AuditError::AlphabetMismatch {
                    first: first_name.to_string(),
                    offender: name.to_string(),
                });
            }
        }
    }
    let baselines: Vec<AnalysisStats> = items.iter().map(|(_, c)| c.stats_total()).collect();

    // Canonical hashes are memoized per context: a warm context neither
    // minimizes nor hashes again.
    let hashes: Vec<ArtifactHash> = par::map_with(jobs, items, |(_, c)| c.canonical_hash());
    let oracle_calls = AtomicU64::new(0);
    let lasso_decided = AtomicU64::new(0);

    // The lasso bank: every member's sample (drawn once per context, on
    // the pool and off its counters), and per member its row, the set
    // of bank lassos it accepts.
    par::map_with(jobs, items, |(_, c)| {
        c.accepted_lasso();
        c.rejected_lasso();
    });
    let bank = LassoBank::new(items.iter().map(|&(_, c)| c));
    let accepts: Vec<BitSet> = par::map_with(jobs, items, |(_, c)| bank.row(c.automaton()));

    // Pairwise subsumption matrix in three steps. Hash-equal members are
    // language-equal by construction, so both directions are `true`; a
    // bank lasso in `L_i − L_j` makes cell (i, j) `false`; only the
    // cells left reach the oracle.
    let subsumption: Vec<Vec<bool>> = par::map_indices_with(jobs, n, |i| {
        (0..n)
            .map(|j| {
                if i == j || hashes[i] == hashes[j] {
                    true
                } else if !accepts[i].is_subset(&accepts[j]) {
                    lasso_decided.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    oracle_calls.fetch_add(1, Ordering::Relaxed);
                    items[i].1.is_subset_of(items[j].1)
                }
            })
            .collect()
    });
    let pairs = (n as u64) * (n.saturating_sub(1) as u64) / 2;
    let hash_decided = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|&(i, j)| hashes[i] == hashes[j])
        .count() as u64;

    let classes: Vec<&'static str> = par::map_with(jobs, items, |(_, c)| {
        c.classification().strictest_class_name()
    });
    let empty: Vec<bool> = par::map_with(jobs, items, |(_, c)| c.is_empty());

    // Language-equivalence classes and SUITE002, read off the matrix:
    // two members coincide when both their cells are `true`. The hashes
    // say *how*, so the diagnostic can tell an α-renaming (equal
    // canonical forms) from a differently shaped acceptance condition
    // (the matrix's oracle runs proved both inclusions).
    let mut representative: Vec<usize> = (0..n).collect();
    let mut duplicate: Vec<Option<Diagnostic>> = vec![None; n];
    for i in 0..n {
        if let Some(j) =
            (0..i).find(|&j| representative[j] == j && subsumption[i][j] && subsumption[j][i])
        {
            let how = if hashes[i] == hashes[j] {
                "identical canonical form"
            } else {
                "proved by the equivalence oracle"
            };
            representative[i] = j;
            duplicate[i] = Some(
                diag(
                    &registry::SUITE002,
                    Location::Root,
                    format!(
                        "recognizes exactly the same language as {:?} ({how})",
                        items[j].0
                    ),
                )
                .with_suggestion("keep one of the two; the suite is unchanged"),
            );
        }
    }
    let class_size = |rep: usize| representative.iter().filter(|&&r| r == rep).count();

    // Dominance DAG: strict containment between class representatives,
    // transitively reduced to the Hasse diagram.
    let reps: Vec<usize> = (0..n).filter(|&i| representative[i] == i).collect();
    let below = |a: usize, b: usize| subsumption[a][b] && !subsumption[b][a];
    let mut dominance = Vec::new();
    for &a in &reps {
        for &b in &reps {
            if below(a, b) && !reps.iter().any(|&c| below(a, c) && below(c, b)) {
                dominance.push((a, b));
            }
        }
    }

    // SUITE003: jointly unsatisfiable pairs of representatives.
    // Comparable non-empty pairs cannot conflict (the intersection is
    // the smaller language), and neither can a pair that both accept a
    // bank lasso, so only the incomparable pairs left reach the oracle —
    // as `L_a ⊆ ¬L_b`, which rides the inclusion memo. The operand is
    // `b`'s complement context: built once per member, it keys the memo
    // as the complement automaton and lends a quotient built once.
    let mut conflict_pairs: Vec<(usize, usize)> = Vec::new();
    for (k, &a) in reps.iter().enumerate() {
        for &b in &reps[k + 1..] {
            if !empty[a] && !empty[b] && !below(a, b) && !below(b, a) {
                if accepts[a].intersects(&accepts[b]) {
                    lasso_decided.fetch_add(1, Ordering::Relaxed);
                } else {
                    conflict_pairs.push((a, b));
                }
            }
        }
    }
    let conflicts: Vec<bool> = par::map_with(jobs, &conflict_pairs, |&(a, b)| {
        oracle_calls.fetch_add(1, Ordering::Relaxed);
        items[a].1.is_subset_of(items[b].1.complement())
    });
    let mut suite_diagnostics = Vec::new();
    for (&(a, b), &clash) in conflict_pairs.iter().zip(&conflicts) {
        if clash {
            suite_diagnostics.push(
                diag(
                    &registry::SUITE003,
                    Location::Root,
                    format!(
                        "{:?} and {:?} are jointly unsatisfiable: no computation satisfies both",
                        items[a].0, items[b].0
                    ),
                )
                .with_suggestion("the specification is contradictory; weaken one of the pair"),
            );
        }
    }

    // SUITE001 (redundancy) and SUITE004 (class overkill), both
    // against the conjunction of the rest of the suite. Skipped
    // wholesale when a member is empty — the conjunction collapses and
    // every verdict would be the vacuous one; AUT001/SUITE003 already
    // point at the real problem.
    let mut redundant: Vec<Option<Diagnostic>> = vec![None; n];
    let mut overkill: Vec<Option<Diagnostic>> = vec![None; n];
    let mut deep_checks_skipped = 0usize;
    let any_empty = empty.iter().any(|&e| e);
    if n >= 2 && !any_empty {
        // Fast path from the matrix: some other member alone implies i.
        for i in 0..n {
            if class_size(representative[i]) > 1 {
                continue; // duplicates are SUITE002's finding
            }
            if let Some(j) = (0..n).find(|&j| j != i && subsumption[j][i]) {
                redundant[i] = Some(
                    diag(
                        &registry::SUITE001,
                        Location::Root,
                        format!("already implied by {:?} alone", items[j].0),
                    )
                    .with_suggestion("drop this property; the suite's conjunction is unchanged"),
                );
            }
        }
        if opts.conjunction_cap > 0 {
            // Prefix/suffix folds of the suite conjunction, minimized at
            // every step and state-capped; `conj_without(i)` then costs
            // one product instead of n−1.
            let cap = opts.conjunction_cap;
            let fold = |acc: &Option<OmegaAutomaton>, aut: &OmegaAutomaton| {
                acc.as_ref().and_then(|a| {
                    let m = minimize(&a.intersection(aut)).quotient;
                    (m.num_states() <= cap).then_some(m)
                })
            };
            let sigma = items[0].1.automaton().alphabet().clone();
            let mut prefix: Vec<Option<OmegaAutomaton>> = Vec::with_capacity(n + 1);
            prefix.push(Some(OmegaAutomaton::universal(&sigma)));
            for k in 0..n {
                prefix.push(fold(&prefix[k], items[k].1.automaton()));
            }
            let mut suffix: Vec<Option<OmegaAutomaton>> = vec![None; n + 1];
            suffix[n] = Some(OmegaAutomaton::universal(&sigma));
            for k in (0..n).rev() {
                suffix[k] = fold(&suffix[k + 1], items[k].1.automaton());
            }
            let deep: Vec<(Option<Diagnostic>, Option<Diagnostic>, bool)> =
                par::map_indices_with(jobs, n, |i| {
                    if class_size(representative[i]) > 1 {
                        return (None, None, false); // SUITE002's finding
                    }
                    let Some(rest) = (match (&prefix[i], &suffix[i + 1]) {
                        (Some(p), Some(s)) => {
                            let m = minimize(&p.intersection(s)).quotient;
                            (m.num_states() <= cap).then_some(m)
                        }
                        _ => None,
                    }) else {
                        return (None, None, true);
                    };
                    let rest_ctx = Analysis::new(rest.clone());
                    if rest_ctx.is_empty() {
                        // The rest of the suite is already contradictory
                        // (SUITE003's finding); every implication from it
                        // would be vacuous noise.
                        return (None, None, false);
                    }
                    let redundant_deep = (redundant[i].is_none()
                        && rest_ctx.is_subset_of(items[i].1))
                    .then(|| {
                        diag(
                            &registry::SUITE001,
                            Location::Root,
                            "already implied by the conjunction of the rest of the suite",
                        )
                        .with_suggestion("drop this property; the suite's conjunction is unchanged")
                    });
                    // Suite-relative weakening of member i: behaviors
                    // must satisfy i only where the rest of the suite
                    // allows them, i.e. `¬rest ∪ L_i`.
                    let own_rank = class_rank(items[i].1.classification());
                    let mut overkill_deep = None;
                    if redundant[i].is_none() && redundant_deep.is_none() && own_rank > 0 {
                        let relative = rest.complement().union(items[i].1.automaton());
                        let rel = Analysis::new(relative);
                        let rel_class = rel.classification();
                        if class_rank(rel_class) < own_rank {
                            overkill_deep = Some(
                                diag(
                                    &registry::SUITE004,
                                    Location::Root,
                                    format!(
                                        "classified {} in isolation, but relative to the rest \
                                         of the suite a {} property suffices",
                                        items[i].1.classification().strictest_class_name(),
                                        rel_class.strictest_class_name()
                                    ),
                                )
                                .with_suggestion(
                                    "the rest of the suite already carries the stronger part; \
                                     the weaker class's proof rule is enough here",
                                ),
                            );
                        }
                    }
                    (redundant_deep, overkill_deep, false)
                });
            for (i, (r, o, skipped)) in deep.into_iter().enumerate() {
                if let Some(r) = r {
                    redundant[i] = Some(r);
                }
                overkill[i] = o;
                deep_checks_skipped += usize::from(skipped);
            }
        }
    }

    // SUITE005: an atomic proposition no member is sensitive to. Only
    // meaningful over proposition alphabets; decided on the canonical
    // quotients, where transition-function insensitivity to `p` in
    // every member proves the suite never constrains `p`.
    if n > 0 {
        let sigma = items[0].1.automaton().alphabet();
        for (p, prop) in sigma.propositions().iter().enumerate() {
            let dead = items
                .iter()
                .all(|(_, c)| prop_insensitive(&c.minimization().quotient, p));
            if dead {
                suite_diagnostics.push(
                    diag(
                        &registry::SUITE005,
                        Location::Variable(prop.clone()),
                        format!("atomic proposition {prop:?} is constrained by no property in the suite"),
                    )
                    .with_suggestion(
                        "drop the proposition from the alphabet, or add the property that was \
                         meant to constrain it",
                    ),
                );
            }
        }
    }

    let member_diagnostics: Vec<Vec<Diagnostic>> = (0..n)
        .map(|i| {
            [&redundant[i], &duplicate[i], &overkill[i]]
                .into_iter()
                .filter_map(|d| d.clone())
                .collect()
        })
        .collect();
    let histogram: Vec<(&'static str, usize)> = CLASS_ORDER
        .iter()
        .map(|&name| (name, classes.iter().filter(|&&c| c == name).count()))
        .filter(|&(_, count)| count > 0)
        .collect();
    let stats = items
        .iter()
        .zip(&baselines)
        .map(|((_, c), &b)| c.stats_total().delta_since(b))
        .fold(AnalysisStats::default(), add_stats);

    Ok(SuiteAudit {
        names: items.iter().map(|(name, _)| name.to_string()).collect(),
        classes,
        subsumption,
        representative,
        dominance,
        histogram,
        member_diagnostics,
        suite_diagnostics,
        prefilter: PrefilterStats {
            pairs,
            hash_decided,
            lasso_decided: lasso_decided.into_inner(),
            oracle_calls: oracle_calls.into_inner(),
        },
        stats,
        deep_checks_skipped,
    })
}

fn add_stats(a: AnalysisStats, b: AnalysisStats) -> AnalysisStats {
    AnalysisStats {
        scc_passes: a.scc_passes + b.scc_passes,
        scc_state_visits: a.scc_state_visits + b.scc_state_visits,
        scc_hits: a.scc_hits + b.scc_hits,
        products_built: a.products_built + b.products_built,
        product_hits: a.product_hits + b.product_hits,
        inclusion_checks: a.inclusion_checks + b.inclusion_checks,
        inclusion_hits: a.inclusion_hits + b.inclusion_hits,
    }
}

/// Whether the transition function of `aut` is insensitive to
/// proposition `p`: flipping `p` in any symbol never changes any step.
/// On a canonical (trim, bisimulation-merged) quotient this certifies
/// the language places no constraint on `p`; a sensitive quotient with
/// an insensitive language is possible in principle, so the check is
/// sound for *reporting* deadness, not complete.
fn prop_insensitive(aut: &OmegaAutomaton, p: usize) -> bool {
    let sigma = aut.alphabet();
    let props = sigma.propositions().len();
    for q in 0..aut.num_states() as StateId {
        for sym in sigma.symbols() {
            if !sigma.proposition_holds(sym, p) {
                let holds: Vec<bool> = (0..props)
                    .map(|k| k == p || sigma.proposition_holds(sym, k))
                    .collect();
                let partner = sigma.valuation_symbol(&holds);
                if aut.step(q, sym) != aut.step(q, partner) {
                    return false;
                }
            }
        }
    }
    true
}

impl SuiteAudit {
    /// Every finding, member diagnostics first (in member order), then
    /// the suite-level ones.
    pub fn all_diagnostics(&self) -> Vec<Diagnostic> {
        self.member_diagnostics
            .iter()
            .flatten()
            .chain(&self.suite_diagnostics)
            .cloned()
            .collect()
    }

    /// The worst severity across all findings, or `None` when the
    /// suite is spotless.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.member_diagnostics
            .iter()
            .flatten()
            .chain(&self.suite_diagnostics)
            .map(|d| d.severity)
            .max()
    }

    /// Whether the audit found no warnings and no errors.
    pub fn is_clean(&self) -> bool {
        self.worst_severity().is_none_or(|s| s < Severity::Warning)
    }

    /// The full report as a JSON object (hand-rolled; the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self) -> String {
        use crate::diagnostic::{json_escape, report_to_json};
        let mut out = String::from("{\"members\": [");
        for i in 0..self.names.len() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"class\": \"{}\", \"representative\": {}, \
                 \"diagnostics\": {}}}",
                json_escape(&self.names[i]),
                json_escape(self.classes[i]),
                self.representative[i],
                report_to_json(&self.member_diagnostics[i]),
            ));
        }
        out.push_str("], \"dominance\": [");
        for (k, (a, b)) in self.dominance.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{a}, {b}]"));
        }
        out.push_str("], \"histogram\": {");
        for (k, (class, count)) in self.histogram.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {count}", json_escape(class)));
        }
        out.push_str(&format!(
            "}}, \"suite_diagnostics\": {}, \"prefilter\": {{\"pairs\": {}, \
             \"hash_decided\": {}, \"lasso_decided\": {}, \"oracle_calls\": {}}}, \
             \"deep_checks_skipped\": {}, \"stats\": {}}}",
            report_to_json(&self.suite_diagnostics),
            self.prefilter.pairs,
            self.prefilter.hash_decided,
            self.prefilter.lasso_decided,
            self.prefilter.oracle_calls,
            self.deep_checks_skipped,
            stats_to_json(&self.stats),
        ));
        out
    }
}

/// JSON object for an [`AnalysisStats`] snapshot (shared by the CLI and
/// the bench tables).
pub fn stats_to_json(s: &AnalysisStats) -> String {
    format!(
        "{{\"scc_passes\": {}, \"scc_state_visits\": {}, \"scc_hits\": {}, \
         \"products_built\": {}, \"product_hits\": {}, \"inclusion_checks\": {}, \
         \"inclusion_hits\": {}}}",
        s.scc_passes,
        s.scc_state_visits,
        s.scc_hits,
        s.products_built,
        s.product_hits,
        s.inclusion_checks,
        s.inclusion_hits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierarchy_automata::acceptance::Acceptance;
    use hierarchy_automata::alphabet::Alphabet;

    fn sigma_ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    /// `G a` over {a,b}: stay accepting while reading `a`, trap on `b`.
    fn always_a(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::fin([1]),
        )
    }

    /// `F b` over {a,b}.
    fn eventually_b(sigma: &Alphabet) -> OmegaAutomaton {
        let b = sigma.symbol("b").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == b { 1 } else { 0 },
            Acceptance::inf([1]),
        )
    }

    /// `G b` over {a,b}.
    fn always_b(sigma: &Alphabet) -> OmegaAutomaton {
        let a = sigma.symbol("a").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == a { 1 } else { 0 },
            Acceptance::fin([1]),
        )
    }

    fn named(items: &[(&str, OmegaAutomaton)]) -> Vec<(String, OmegaAutomaton)> {
        items
            .iter()
            .map(|(n, a)| (n.to_string(), a.clone()))
            .collect()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    /// `F a` over {a,b}.
    fn eventually_a(sigma: &Alphabet) -> OmegaAutomaton {
        let a = sigma.symbol("a").unwrap();
        OmegaAutomaton::build(
            sigma,
            2,
            0,
            |q, s| if q == 1 || s == a { 1 } else { 0 },
            Acceptance::inf([1]),
        )
    }

    #[test]
    fn clean_incomparable_suite_is_silent() {
        // F a and F b: incomparable (a^ω vs b^ω), jointly satisfiable
        // ((ab)^ω), neither redundant, both rank-0 classes. Nothing to
        // report.
        let sigma = sigma_ab();
        let suite = named(&[("fa", eventually_a(&sigma)), ("fb", eventually_b(&sigma))]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert!(audit.suite_diagnostics.is_empty());
        assert!(audit.member_diagnostics.iter().all(|d| d.is_empty()));
        assert!(audit.is_clean());
        assert_eq!(audit.dominance, vec![]);
        assert_eq!(audit.histogram, vec![("guarantee", 2)]);
    }

    #[test]
    fn strict_containment_marks_the_weaker_member_redundant() {
        let sigma = sigma_ab();
        let fa = {
            let a = sigma.symbol("a").unwrap();
            OmegaAutomaton::build(
                &sigma,
                2,
                0,
                |q, s| if q == 1 || s == a { 1 } else { 0 },
                Acceptance::inf([1]),
            )
        };
        let suite = named(&[("ga", always_a(&sigma)), ("fa", fa)]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert_eq!(codes(&audit.member_diagnostics[1]), ["SUITE001"]);
        assert!(audit.member_diagnostics[0].is_empty());
        assert!(audit.suite_diagnostics.is_empty());
        // Dominance: ga ⊊ fa, one Hasse edge.
        assert_eq!(audit.dominance, vec![(0, 1)]);
        assert!(audit.subsumption[0][1] && !audit.subsumption[1][0]);
    }

    #[test]
    fn duplicates_fire_suite002_not_suite001() {
        let sigma = sigma_ab();
        let suite = named(&[
            ("ga", always_a(&sigma)),
            ("gb", always_b(&sigma)),
            ("ga-again", always_a(&sigma)),
        ]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert!(audit.member_diagnostics[0].is_empty());
        assert_eq!(codes(&audit.member_diagnostics[2]), ["SUITE002"]);
        assert_eq!(audit.representative, vec![0, 1, 0]);
        assert!(audit.member_diagnostics[2][0]
            .message
            .contains("identical canonical form"));
        // The duplicate pair was decided by the hash prefilter.
        assert!(audit.prefilter.hash_decided >= 1);
    }

    /// SUITE002 reads the matrix: □◇b as a Büchi condition and as the
    /// one-pair Streett condition `Inf{1} ∨ Fin{0,1}` hash apart, the
    /// two matrix cells prove both inclusions, and no third oracle run
    /// re-derives the equivalence for the message.
    #[test]
    fn suite002_reads_a_differently_shaped_duplicate_off_the_matrix() {
        let sigma = sigma_ab();
        let b = sigma.symbol("b").unwrap();
        let buchi = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| StateId::from(s == b),
            Acceptance::inf([1]),
        );
        let streett = buchi.with_acceptance(Acceptance::inf([1]).or(Acceptance::fin([0, 1])));
        let suite = named(&[("buchi", buchi), ("streett", streett)]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert_eq!(audit.representative, vec![0, 0]);
        assert_eq!(codes(&audit.member_diagnostics[1]), ["SUITE002"]);
        assert_eq!(
            audit.member_diagnostics[1][0].message,
            "recognizes exactly the same language as \"buchi\" \
             (proved by the equivalence oracle)"
        );
        assert_eq!(audit.prefilter.hash_decided, 0);
        assert_eq!(
            (audit.prefilter.oracle_calls, audit.stats.inclusion_checks),
            (2, 2),
            "one oracle run per matrix cell, none for the message"
        );
    }

    #[test]
    fn conflicting_pair_fires_suite003() {
        let sigma = sigma_ab();
        let suite = named(&[("ga", always_a(&sigma)), ("gb", always_b(&sigma))]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert_eq!(codes(&audit.suite_diagnostics), ["SUITE003"]);
        assert!(audit.suite_diagnostics[0].message.contains("\"ga\""));
        assert!(audit.suite_diagnostics[0].message.contains("\"gb\""));
    }

    #[test]
    fn dead_proposition_fires_suite005_on_proposition_alphabets() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        // G p: sensitive to p, never to q.
        let dead = sigma.symbols_where(0).complement(&sigma);
        let gp = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, s| if q == 1 || dead.contains(s) { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        let suite = named(&[("gp", gp)]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert_eq!(codes(&audit.suite_diagnostics), ["SUITE005"]);
        assert_eq!(
            audit.suite_diagnostics[0].location,
            Location::Variable("q".into())
        );
        // Letter alphabets never report SUITE005.
        let letter = named(&[("ga", always_a(&sigma_ab()))]);
        let audit = audit_suite(&letter, &AuditOptions::default()).unwrap();
        assert!(audit.suite_diagnostics.is_empty());
    }

    /// A last-symbol tracker over a proposition alphabet: state `1+i`
    /// remembers that symbol `i` was just read (state 0 is initial), so
    /// acceptance sets can speak about which valuations recur.
    fn last_symbol(sigma: &Alphabet, acc: Acceptance) -> OmegaAutomaton {
        OmegaAutomaton::build(
            sigma,
            1 + sigma.len(),
            0,
            |_, s| 1 + StateId::from(s.0),
            acc,
        )
    }

    #[test]
    fn class_overkill_fires_suite004() {
        // Member "streett": GF p ∨ FG q — strictly simple reactivity in
        // isolation. Member "gnq": G ¬q. Relative to G ¬q, the FG q
        // disjunct is unreachable, so `¬(G ¬q) ∪ streett ≡ F q ∨ GF p`
        // — a recurrence property. The audit must flag the written
        // class as overkill for this suite without calling the member
        // redundant (G ¬q does not imply it).
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let p_states: Vec<usize> = sigma
            .symbols()
            .filter(|&s| sigma.proposition_holds(s, 0))
            .map(|s| 1 + s.0 as usize)
            .collect();
        let not_q_states: Vec<usize> = sigma
            .symbols()
            .filter(|&s| !sigma.proposition_holds(s, 1))
            .map(|s| 1 + s.0 as usize)
            .collect();
        let streett = last_symbol(
            &sigma,
            Acceptance::Or(vec![
                Acceptance::inf(p_states),
                Acceptance::fin(not_q_states),
            ]),
        );
        let q_syms = sigma.symbols_where(1);
        let gnq = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |st, s| if st == 1 || q_syms.contains(s) { 1 } else { 0 },
            Acceptance::fin([1]),
        );
        let suite = named(&[("streett", streett), ("gnq", gnq)]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        assert_eq!(audit.classes[0], "simple reactivity");
        assert_eq!(codes(&audit.member_diagnostics[0]), ["SUITE004"]);
        assert!(audit.member_diagnostics[0][0]
            .message
            .contains("recurrence"));
        assert!(audit.member_diagnostics[1].is_empty());
        assert!(audit.is_clean(), "SUITE004 is advisory");
        let json = audit.to_json();
        assert!(json.contains("\"prefilter\""));
        assert!(json.contains("\"histogram\""));
        assert!(json.contains("SUITE004"));
    }

    #[test]
    fn alphabet_mismatch_is_an_error() {
        let two = sigma_ab();
        let other = Alphabet::new(["x", "y"]).unwrap();
        let suite = named(&[
            ("ga", always_a(&two)),
            ("ux", OmegaAutomaton::universal(&other)),
        ]);
        let err = audit_suite(&suite, &AuditOptions::default()).unwrap_err();
        assert_eq!(
            err,
            AuditError::AlphabetMismatch {
                first: "ga".into(),
                offender: "ux".into()
            }
        );
        assert!(err.to_string().contains("\"ux\""));
    }

    #[test]
    fn empty_member_suppresses_conjunction_rules() {
        let sigma = sigma_ab();
        let suite = named(&[
            ("nothing", OmegaAutomaton::empty(&sigma)),
            ("ga", always_a(&sigma)),
            ("fb", eventually_b(&sigma)),
        ]);
        let audit = audit_suite(&suite, &AuditOptions::default()).unwrap();
        // No SUITE001/SUITE004 noise downstream of an empty member; the
        // per-artifact linter (AUT001) owns that finding.
        assert!(audit
            .member_diagnostics
            .iter()
            .flatten()
            .all(|d| d.code == "SUITE002"));
    }

    #[test]
    fn warm_reaudit_hits_the_inclusion_memo_and_jobs_do_not_change_the_report() {
        let sigma = sigma_ab();
        let auts = [
            ("ga", always_a(&sigma)),
            ("gb", always_b(&sigma)),
            ("fb", eventually_b(&sigma)),
        ];
        let ctxs: Vec<Analysis> = auts.iter().map(|(_, a)| Analysis::new(a.clone())).collect();
        let items: Vec<(&str, &Analysis)> =
            auts.iter().zip(&ctxs).map(|((n, _), c)| (*n, c)).collect();
        let opts = AuditOptions::default();
        let cold = audit_suite_ctx(&items, &opts).unwrap();
        let warm = audit_suite_ctx(&items, &opts).unwrap();
        assert!(
            warm.stats.inclusion_hits > 0,
            "second audit on the same contexts must reuse the inclusion memo"
        );
        assert_eq!(
            (warm.stats.inclusion_checks, warm.stats.scc_passes),
            (0, 0),
            "a warm re-audit runs no inclusion oracle and no SCC pass"
        );
        for jobs in [1, 2, 4] {
            let opts = AuditOptions {
                jobs,
                ..AuditOptions::default()
            };
            let again = audit_suite_ctx(&items, &opts).unwrap();
            let (mut lhs, mut rhs) = (again.clone(), cold.clone());
            lhs.stats = AnalysisStats::default();
            rhs.stats = AnalysisStats::default();
            assert_eq!(lhs, rhs, "jobs={jobs} changed the report");
        }
    }

    #[test]
    fn conjunction_cap_skips_honestly() {
        let sigma = sigma_ab();
        let suite = named(&[("ga", always_a(&sigma)), ("fb", eventually_b(&sigma))]);
        // G a ∧ F b is empty → SUITE003; pick a compatible pair instead.
        let _ = suite;
        let compatible = named(&[
            ("fb", eventually_b(&sigma)),
            ("fb2", {
                let b = sigma.symbol("b").unwrap();
                // F (b·b): needs two b's — strictly inside F b.
                OmegaAutomaton::build(
                    &sigma,
                    3,
                    0,
                    |q, s| {
                        if q == 2 || (s == b && q == 1) {
                            2
                        } else if s == b {
                            1
                        } else {
                            q
                        }
                    },
                    Acceptance::inf([2]),
                )
            }),
        ]);
        let capped = audit_suite(
            &compatible,
            &AuditOptions {
                conjunction_cap: 1,
                ..AuditOptions::default()
            },
        )
        .unwrap();
        // fb is redundant via the fast path (fb2 ⊆ fb) even under the
        // cap; the deep checks for the other member are skipped and
        // counted.
        assert_eq!(codes(&capped.member_diagnostics[0]), ["SUITE001"]);
        assert!(capped.deep_checks_skipped > 0);
        let uncapped = audit_suite(&compatible, &AuditOptions::default()).unwrap();
        assert_eq!(uncapped.deep_checks_skipped, 0);
    }
}
