//! Alphabets, symbols, and symbol sets.
//!
//! The paper's predicate automata label transitions with *state formulas*
//! over an abstract state set Σ. We instantiate Σ as a finite alphabet of at
//! most 64 named symbols; a transition guard is then simply the predicate's
//! extension, represented as a [`SymbolSet`] bitmask. Propositional temporal
//! logic uses the valuation alphabet `2^AP` (see
//! [`Alphabet::of_propositions`]).

use crate::AutomatonError;
use std::fmt;
use std::sync::Arc;

/// A symbol of an [`Alphabet`] — an index below the alphabet size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u8);

impl Symbol {
    /// The symbol's index within its alphabet.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A finite alphabet of at most 64 named symbols.
///
/// Alphabets are cheaply cloneable (internally reference-counted) and two
/// alphabets compare equal iff they list the same symbol names in the same
/// order.
///
/// # Examples
///
/// ```
/// use hierarchy_automata::alphabet::Alphabet;
///
/// let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
/// assert_eq!(sigma.len(), 3);
/// assert_eq!(sigma.name(sigma.symbol("b").unwrap()), "b");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Alphabet {
    names: Arc<Vec<String>>,
    /// For proposition-based alphabets: the proposition names, where symbol
    /// `i` encodes the valuation with bit `j` set iff proposition `j` holds.
    props: Arc<Vec<String>>,
}

impl Alphabet {
    /// Maximum number of symbols in an alphabet.
    pub const MAX_SYMBOLS: usize = 64;

    /// Creates an alphabet from symbol names.
    ///
    /// # Errors
    ///
    /// Returns [`AutomatonError::AlphabetSize`] when given zero or more than
    /// 64 names, and [`AutomatonError::DuplicateSymbol`] on repeated names.
    pub fn new<I, S>(names: I) -> Result<Self, AutomatonError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.is_empty() || names.len() > Self::MAX_SYMBOLS {
            return Err(AutomatonError::AlphabetSize {
                requested: names.len(),
            });
        }
        for (i, n) in names.iter().enumerate() {
            if names[..i].contains(n) {
                return Err(AutomatonError::DuplicateSymbol { name: n.clone() });
            }
        }
        Ok(Alphabet {
            names: Arc::new(names),
            props: Arc::new(Vec::new()),
        })
    }

    /// Creates the valuation alphabet `2^AP` over the given atomic
    /// propositions. Symbol `i` encodes the valuation in which proposition
    /// `j` holds iff bit `j` of `i` is set; its name is e.g. `{p,q}` or `{}`.
    ///
    /// At most 6 propositions are supported (so that `2^AP ≤ 64`).
    ///
    /// # Errors
    ///
    /// Returns [`AutomatonError::PropositionCount`] for no propositions or
    /// more than 6, and [`AutomatonError::DuplicateSymbol`] on repeated
    /// proposition names.
    ///
    /// # Examples
    ///
    /// ```
    /// use hierarchy_automata::alphabet::Alphabet;
    ///
    /// let ap = Alphabet::of_propositions(["p", "q"]).unwrap();
    /// assert_eq!(ap.len(), 4);
    /// assert_eq!(ap.name(ap.valuation_symbol(&[true, false])), "{p}");
    /// ```
    pub fn of_propositions<I, S>(props: I) -> Result<Self, AutomatonError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let props: Vec<String> = props.into_iter().map(Into::into).collect();
        if props.is_empty() || props.len() > 6 {
            return Err(AutomatonError::PropositionCount {
                requested: props.len(),
            });
        }
        for (i, p) in props.iter().enumerate() {
            if props[..i].contains(p) {
                return Err(AutomatonError::DuplicateSymbol { name: p.clone() });
            }
        }
        let mut names = Vec::with_capacity(1 << props.len());
        for v in 0u64..(1 << props.len()) {
            let inside: Vec<&str> = props
                .iter()
                .enumerate()
                .filter(|(j, _)| v & (1 << j) != 0)
                .map(|(_, p)| p.as_str())
                .collect();
            names.push(format!("{{{}}}", inside.join(",")));
        }
        Ok(Alphabet {
            names: Arc::new(names),
            props: Arc::new(props),
        })
    }

    /// Number of symbols.
    #[allow(clippy::len_without_is_empty)] // alphabets are never empty
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// The symbol with the given name, if any.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Symbol(i as u8))
    }

    /// The name of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not belong to this alphabet.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Iterates over all symbols in index order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.len()).map(|i| Symbol(i as u8))
    }

    /// The atomic propositions of a valuation alphabet (empty for plain
    /// alphabets).
    pub fn propositions(&self) -> &[String] {
        &self.props
    }

    /// For a valuation alphabet: the symbol encoding the given valuation
    /// (`holds[j]` = proposition `j` holds).
    ///
    /// # Panics
    ///
    /// Panics if `holds.len()` differs from the number of propositions.
    pub fn valuation_symbol(&self, holds: &[bool]) -> Symbol {
        assert_eq!(
            holds.len(),
            self.props.len(),
            "valuation length must match proposition count"
        );
        let mut v = 0u8;
        for (j, &h) in holds.iter().enumerate() {
            if h {
                v |= 1 << j;
            }
        }
        Symbol(v)
    }

    /// For a valuation alphabet: whether proposition `prop` holds in the
    /// valuation encoded by `sym`.
    pub fn proposition_holds(&self, sym: Symbol, prop: usize) -> bool {
        sym.0 & (1 << prop) != 0
    }

    /// The set of symbols in which proposition `prop` holds (for valuation
    /// alphabets).
    pub fn symbols_where(&self, prop: usize) -> SymbolSet {
        let mut s = SymbolSet::empty();
        for sym in self.symbols() {
            if self.proposition_holds(sym, prop) {
                s.insert(sym);
            }
        }
        s
    }

    /// The full symbol set Σ.
    pub fn full_set(&self) -> SymbolSet {
        SymbolSet::full(self.len())
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Alphabet").field(&self.names).finish()
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.names.join(", "))
    }
}

/// A set of symbols of an alphabet — the extension of a transition predicate.
///
/// # Examples
///
/// ```
/// use hierarchy_automata::alphabet::{Alphabet, SymbolSet};
///
/// let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
/// let ab = SymbolSet::of([sigma.symbol("a").unwrap(), sigma.symbol("b").unwrap()]);
/// assert!(ab.contains(sigma.symbol("a").unwrap()));
/// assert!(!ab.contains(sigma.symbol("c").unwrap()));
/// assert_eq!(ab.complement(&sigma).len(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SymbolSet(pub u64);

impl SymbolSet {
    /// The empty symbol set (the predicate `F`).
    pub fn empty() -> Self {
        SymbolSet(0)
    }

    /// The full symbol set over an alphabet of `n` symbols (the predicate `T`).
    pub fn full(n: usize) -> Self {
        if n >= 64 {
            SymbolSet(u64::MAX)
        } else {
            SymbolSet((1u64 << n) - 1)
        }
    }

    /// Builds a set from symbols.
    pub fn of<I: IntoIterator<Item = Symbol>>(syms: I) -> Self {
        let mut s = SymbolSet::empty();
        for sym in syms {
            s.insert(sym);
        }
        s
    }

    /// Inserts a symbol.
    pub fn insert(&mut self, sym: Symbol) {
        self.0 |= 1 << sym.0;
    }

    /// Tests membership.
    pub fn contains(&self, sym: Symbol) -> bool {
        self.0 & (1 << sym.0) != 0
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of symbols in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Set union.
    pub fn union(self, other: SymbolSet) -> SymbolSet {
        SymbolSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: SymbolSet) -> SymbolSet {
        SymbolSet(self.0 & other.0)
    }

    /// Complement relative to the alphabet.
    pub fn complement(self, alphabet: &Alphabet) -> SymbolSet {
        SymbolSet(!self.0 & SymbolSet::full(alphabet.len()).0)
    }

    /// Iterates over the member symbols in index order.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        let bits = self.0;
        (0..64u8).filter(move |b| bits & (1 << b) != 0).map(Symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_basic() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        assert_eq!(sigma.len(), 2);
        let a = sigma.symbol("a").unwrap();
        assert_eq!(a, Symbol(0));
        assert_eq!(sigma.name(a), "a");
        assert_eq!(sigma.symbol("z"), None);
        assert_eq!(sigma.symbols().count(), 2);
        assert_eq!(sigma.to_string(), "{a, b}");
    }

    #[test]
    fn alphabet_rejects_bad_sizes() {
        assert!(matches!(
            Alphabet::new(Vec::<String>::new()),
            Err(AutomatonError::AlphabetSize { requested: 0 })
        ));
        let many: Vec<String> = (0..65).map(|i| format!("s{i}")).collect();
        assert!(Alphabet::new(many).is_err());
        assert!(matches!(
            Alphabet::new(["a", "a"]),
            Err(AutomatonError::DuplicateSymbol { .. })
        ));
    }

    #[test]
    fn proposition_alphabet() {
        let ap = Alphabet::of_propositions(["p", "q"]).unwrap();
        assert_eq!(ap.len(), 4);
        let pq = ap.valuation_symbol(&[true, true]);
        assert_eq!(ap.name(pq), "{p,q}");
        assert!(ap.proposition_holds(pq, 0));
        assert!(ap.proposition_holds(pq, 1));
        let none = ap.valuation_symbol(&[false, false]);
        assert_eq!(ap.name(none), "{}");
        assert_eq!(ap.symbols_where(0).len(), 2);
    }

    /// Both ends of the proposition count report the count and the 1–6
    /// limit, not the symbol count `2^n`.
    #[test]
    fn proposition_count_is_reported_as_such() {
        let names = |n: usize| (0..n).map(|i| format!("p{i}")).collect::<Vec<_>>();
        assert_eq!(Alphabet::of_propositions(names(1)).unwrap().len(), 2);
        assert_eq!(Alphabet::of_propositions(names(6)).unwrap().len(), 64);
        for n in [0, 7] {
            let e = Alphabet::of_propositions(names(n)).unwrap_err();
            assert_eq!(e, AutomatonError::PropositionCount { requested: n });
            assert_eq!(
                e.to_string(),
                format!("a valuation alphabet needs between 1 and 6 propositions, got {n}")
            );
        }
    }

    #[test]
    fn symbol_sets() {
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let full = sigma.full_set();
        assert_eq!(full.len(), 3);
        let a = SymbolSet::of([Symbol(0)]);
        let bc = a.complement(&sigma);
        assert_eq!(bc.len(), 2);
        assert!(bc.contains(Symbol(1)) && bc.contains(Symbol(2)));
        assert_eq!(a.union(bc), full);
        assert!(a.intersection(bc).is_empty());
        assert_eq!(bc.iter().collect::<Vec<_>>(), vec![Symbol(1), Symbol(2)]);
    }

    #[test]
    fn full_set_of_64() {
        assert_eq!(SymbolSet::full(64).0, u64::MAX);
        assert_eq!(SymbolSet::full(1).0, 1);
    }

    #[test]
    fn alphabets_compare_by_content() {
        let a = Alphabet::new(["x", "y"]).unwrap();
        let b = Alphabet::new(["x", "y"]).unwrap();
        let c = Alphabet::new(["y", "x"]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
