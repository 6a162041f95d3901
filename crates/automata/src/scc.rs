//! Strongly connected component analysis (Tarjan's algorithm, iterative),
//! with support for restricting the graph to a subset of states.
//!
//! SCCs over *restricted* state sets are the workhorse of the
//! classification procedures: restricting to the states whose acceptance
//! "colors" lie below a given color set and taking SCCs yields canonical
//! representatives for all cycles with those colors (see [`crate::classify`]).

use crate::bitset::BitSet;
use crate::StateId;

/// A graph given by a successor function over states `0..n`.
pub trait Successors {
    /// Number of states.
    fn num_states(&self) -> usize;
    /// Calls `f` on every successor of `q`.
    fn for_each_successor(&self, q: StateId, f: &mut dyn FnMut(StateId));
}

/// A borrowed graph is a graph, so an [`SccCache`] can wrap one it does
/// not own.
impl<G: Successors + ?Sized> Successors for &G {
    fn num_states(&self) -> usize {
        (**self).num_states()
    }
    fn for_each_successor(&self, q: StateId, f: &mut dyn FnMut(StateId)) {
        (**self).for_each_successor(q, f);
    }
}

/// The result of an SCC decomposition.
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    /// `component[q]` is the SCC index of state `q`, or `usize::MAX` if the
    /// state was excluded from the analysis.
    pub component: Vec<usize>,
    /// The members of each SCC. Components are numbered in reverse
    /// topological order (successors first), as produced by Tarjan's
    /// algorithm.
    pub members: Vec<Vec<StateId>>,
    /// `has_cycle[c]` is `true` iff component `c` contains at least one edge
    /// (i.e. it is a *cycle* in the paper's sense: either more than one
    /// state, or a state with a self-loop within the restriction).
    pub has_cycle: Vec<bool>,
}

impl SccDecomposition {
    /// The members of component `c` as a [`BitSet`].
    pub fn member_set(&self, c: usize) -> BitSet {
        self.members[c].iter().map(|&q| q as usize).collect()
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no components were found (empty restriction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Computes the SCCs of the subgraph induced by `allowed` (or of the whole
/// graph if `allowed` is `None`), using an iterative Tarjan's algorithm.
pub fn tarjan_scc<G: Successors>(graph: &G, allowed: Option<&BitSet>) -> SccDecomposition {
    let n = graph.num_states();
    let is_allowed = |q: StateId| allowed.is_none_or(|s| s.contains(q as usize));

    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<StateId> = Vec::new();
    let mut component = vec![UNSEEN; n];
    let mut members: Vec<Vec<StateId>> = Vec::new();
    let mut next_index = 0usize;

    // Iterative DFS: frames of (state, successor list, cursor).
    for root in 0..n as StateId {
        if !is_allowed(root) || index[root as usize] != UNSEEN {
            continue;
        }
        let mut frames: Vec<(StateId, Vec<StateId>, usize)> = Vec::new();
        let succs_of = |q: StateId| {
            let mut v = Vec::new();
            graph.for_each_successor(q, &mut |t| {
                if is_allowed(t) {
                    v.push(t);
                }
            });
            v
        };
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, succs_of(root), 0));

        while let Some(&mut (q, ref succs, ref mut cursor)) = frames.last_mut() {
            if *cursor < succs.len() {
                let t = succs[*cursor];
                *cursor += 1;
                if index[t as usize] == UNSEEN {
                    index[t as usize] = next_index;
                    low[t as usize] = next_index;
                    next_index += 1;
                    stack.push(t);
                    on_stack[t as usize] = true;
                    let s = succs_of(t);
                    frames.push((t, s, 0));
                } else if on_stack[t as usize] {
                    low[q as usize] = low[q as usize].min(index[t as usize]);
                }
            } else {
                // Finished q.
                frames.pop();
                if let Some(&mut (p, _, _)) = frames.last_mut() {
                    low[p as usize] = low[p as usize].min(low[q as usize]);
                }
                if low[q as usize] == index[q as usize] {
                    let c = members.len();
                    let mut comp = Vec::new();
                    loop {
                        let s = stack.pop().expect("Tarjan stack underflow");
                        on_stack[s as usize] = false;
                        component[s as usize] = c;
                        comp.push(s);
                        if s == q {
                            break;
                        }
                    }
                    members.push(comp);
                }
            }
        }
    }

    // Determine which components contain a cycle.
    let mut has_cycle = vec![false; members.len()];
    for (c, comp) in members.iter().enumerate() {
        if comp.len() > 1 {
            has_cycle[c] = true;
            continue;
        }
        let q = comp[0];
        graph.for_each_successor(q, &mut |t| {
            if t == q && is_allowed(t) {
                has_cycle[c] = true;
            }
        });
    }

    SccDecomposition {
        component,
        members,
        has_cycle,
    }
}

/// A memoizing wrapper around [`tarjan_scc`] for one fixed graph: repeated
/// decompositions under the same restriction are served from cache.
///
/// This is the graph-level sibling of [`crate::analysis::Analysis`] (which
/// caches at the automaton level): the SCC source of the accepting-cycle
/// kernel ([`crate::emptiness::refine`]) for the uncached entry points,
/// the inclusion product and the model checker's product, where sibling
/// regions ask for the same restriction.
#[derive(Debug)]
pub struct SccCache<G: Successors> {
    graph: G,
    memo: std::collections::HashMap<Option<BitSet>, std::sync::Arc<SccDecomposition>>,
}

impl<G: Successors> SccCache<G> {
    /// Wraps `graph` with an empty cache.
    pub fn new(graph: G) -> Self {
        SccCache {
            graph,
            memo: std::collections::HashMap::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The SCC decomposition under `allowed`, computed at most once per
    /// distinct restriction.
    pub fn sccs(&mut self, allowed: Option<&BitSet>) -> std::sync::Arc<SccDecomposition> {
        let graph = &self.graph;
        let dec = self
            .memo
            .entry(allowed.cloned())
            .or_insert_with(|| std::sync::Arc::new(tarjan_scc(graph, allowed)));
        std::sync::Arc::clone(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatGraph;

    fn graph(edges: &[(u32, u32)], n: usize) -> FlatGraph {
        FlatGraph::from_fn(n, |q| {
            edges.iter().filter(move |&&(a, _)| a == q).map(|&(_, b)| b)
        })
    }

    #[test]
    fn two_cycles_and_bridge() {
        // 0 <-> 1, 2 <-> 3, 1 -> 2
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], 4);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 2);
        assert_eq!(d.component[0], d.component[1]);
        assert_eq!(d.component[2], d.component[3]);
        assert_ne!(d.component[0], d.component[2]);
        assert!(d.has_cycle.iter().all(|&c| c));
        // Reverse topological order: {2,3} comes before {0,1}.
        assert!(d.members[0].contains(&2));
    }

    #[test]
    fn trivial_component_no_selfloop() {
        let g = graph(&[(0, 1), (1, 1)], 2);
        let d = tarjan_scc(&g, None);
        let c0 = d.component[0];
        let c1 = d.component[1];
        assert!(!d.has_cycle[c0]);
        assert!(d.has_cycle[c1]);
    }

    #[test]
    fn restriction_cuts_cycles() {
        // 0 -> 1 -> 2 -> 0 is a cycle; removing 1 makes everything trivial.
        let g = graph(&[(0, 1), (1, 2), (2, 0)], 3);
        let full = tarjan_scc(&g, None);
        assert_eq!(full.len(), 1);
        assert!(full.has_cycle[0]);
        let allowed: BitSet = [0usize, 2].into_iter().collect();
        let cut = tarjan_scc(&g, Some(&allowed));
        assert_eq!(cut.len(), 2);
        assert!(cut.has_cycle.iter().all(|&c| !c));
        assert_eq!(cut.component[1], usize::MAX);
    }

    #[test]
    fn big_cycle_single_component() {
        let n = 1000;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph(&edges, n as usize);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 1);
        assert_eq!(d.members[0].len(), n as usize);
        assert!(d.has_cycle[0]);
    }

    #[test]
    fn self_loop_only() {
        let g = graph(&[(0, 0)], 1);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 1);
        assert!(d.has_cycle[0]);
        assert_eq!(d.member_set(0), BitSet::from_iter([0]));
    }

    #[test]
    fn dag_reverse_topological() {
        // 0 -> 1 -> 2 (all trivial)
        let g = graph(&[(0, 1), (1, 2)], 3);
        let d = tarjan_scc(&g, None);
        assert_eq!(d.len(), 3);
        // Tarjan emits sinks first.
        assert_eq!(d.members[0], vec![2]);
        assert_eq!(d.members[2], vec![0]);
    }

    #[test]
    fn from_fn_matches_manual_construction() {
        let g = graph(&[(0, 1), (1, 0), (1, 2)], 3);
        assert_eq!(g.num_states(), 3);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[0, 2]);
        assert_eq!(g.successors(2), &[] as &[StateId]);
    }

    #[test]
    fn scc_cache_reuses_decompositions() {
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 2)], 3);
        let mut cache = SccCache::new(g);
        let full1 = cache.sccs(None);
        let full2 = cache.sccs(None);
        assert!(std::sync::Arc::ptr_eq(&full1, &full2), "served from cache");
        let allowed: BitSet = [0usize, 1].into_iter().collect();
        let cut1 = cache.sccs(Some(&allowed));
        let cut2 = cache.sccs(Some(&allowed));
        assert_eq!(cut1.len(), 1);
        assert!(std::sync::Arc::ptr_eq(&cut1, &cut2), "served from cache");
        assert!(!std::sync::Arc::ptr_eq(&full1, &cut1));
    }
}
