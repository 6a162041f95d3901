//! Export to — and import from — the HOA (Hanoi Omega-Automata)
//! interchange format, so automata built here can be exchanged with
//! external tools (Spot's `autfilt`, owl, …) and ingested by the
//! classification service (`crates/serve`).
//!
//! The export encoding ([`omega_to_hoa`]):
//!
//! * atomic propositions are the bits of the symbol index (for valuation
//!   alphabets this is exactly the proposition list; for letter alphabets
//!   it is a binary encoding of the letter);
//! * each distinct acceptance atom set becomes one HOA acceptance set;
//!   `Inf`/`Fin` atoms map to `Inf(i)`/`Fin(i)` and the boolean structure
//!   is emitted verbatim;
//! * transitions are labelled with the conjunction of proposition
//!   literals describing their symbol.
//!
//! The parser ([`hoa_to_omega`]) accepts the deterministic state-based
//! fragment of HOA v1 this crate works with: the alphabet is rebuilt as
//! the valuation alphabet `2^AP` over the declared propositions (≤ 6),
//! every valuation must have exactly one outgoing edge per state, and
//! acceptance is an arbitrary boolean combination of `Inf`/`Fin` atoms,
//! parenthesized at most [`MAX_DEPTH`] deep.
//! `omega_to_hoa` output round-trips exactly whenever the source
//! alphabet has power-of-two size (proposition alphabets by name;
//! letter alphabets through the synthetic `bitN` propositions);
//! non-power-of-two letter alphabets export incomplete automata, which
//! the parser rejects ([`AutomatonError::NotDeterministic`]).

use crate::acceptance::Acceptance;
use crate::alphabet::{Alphabet, Symbol};
use crate::bitset::BitSet;
use crate::omega::OmegaAutomaton;
use crate::AutomatonError;
use crate::StateId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest parentheses may nest in an `Acceptance:` formula. The
/// parser recurses once per level; an exported parity condition nests one
/// level per priority.
pub const MAX_DEPTH: usize = 256;

/// Renders a deterministic ω-automaton in HOA v1 format.
pub fn omega_to_hoa(aut: &OmegaAutomaton) -> String {
    let n_sym = aut.alphabet().len();
    let ap_count = bits_needed(n_sym);
    // The acceptance walk interns atom sets as it renders, so every index
    // in the formula refers to a set collected in the same pass — there is
    // no way for the two to fall out of sync.
    let mut atoms: Vec<BitSet> = Vec::new();
    let formula = acceptance_formula(aut.acceptance(), &mut atoms);

    let mut out = String::new();
    out.push_str("HOA: v1\n");
    let _ = writeln!(out, "States: {}", aut.num_states());
    let _ = writeln!(out, "Start: {}", aut.initial());
    // AP names: real proposition names when available, else bit names.
    let props = aut.alphabet().propositions();
    let _ = write!(out, "AP: {ap_count}");
    for i in 0..ap_count {
        if i < props.len() {
            let _ = write!(out, " {}", hoa_quote(&props[i]));
        } else {
            let _ = write!(out, " \"bit{i}\"");
        }
    }
    out.push('\n');
    let _ = writeln!(out, "Acceptance: {} {}", atoms.len(), formula);
    // `complete` may only be claimed when every AP valuation has an edge.
    // The binary encoding introduces 2^ap_count valuations; when the
    // alphabet size is not a power of two the padding valuations have no
    // outgoing edges, so the exported automaton is not complete.
    if n_sym == 1 << ap_count {
        out.push_str("properties: deterministic complete\n");
    } else {
        out.push_str("properties: deterministic\n");
    }
    out.push_str("--BODY--\n");
    for q in 0..aut.num_states() as StateId {
        // Acceptance-set membership of the state.
        let memberships: Vec<String> = atoms
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(q as usize))
            .map(|(i, _)| i.to_string())
            .collect();
        if memberships.is_empty() {
            let _ = writeln!(out, "State: {q}");
        } else {
            let _ = writeln!(out, "State: {q} {{{}}}", memberships.join(" "));
        }
        for sym in aut.alphabet().symbols() {
            let _ = writeln!(
                out,
                "[{}] {}",
                symbol_label(sym, ap_count),
                aut.step(q, sym)
            );
        }
    }
    out.push_str("--END--\n");
    out
}

/// Renders an AP name as a double-quoted HOA string, escaping `"` and
/// `\` per the HOA v1 grammar (the only two characters it treats
/// specially inside quoted strings).
fn hoa_quote(name: &str) -> String {
    let mut quoted = String::with_capacity(name.len() + 2);
    quoted.push('"');
    for ch in name.chars() {
        if ch == '"' || ch == '\\' {
            quoted.push('\\');
        }
        quoted.push(ch);
    }
    quoted.push('"');
    quoted
}

fn bits_needed(n: usize) -> usize {
    let mut bits = 0;
    while (1usize << bits) < n {
        bits += 1;
    }
    bits.max(1)
}

fn symbol_label(sym: Symbol, ap_count: usize) -> String {
    (0..ap_count)
        .map(|b| {
            if sym.index() & (1 << b) != 0 {
                b.to_string()
            } else {
                format!("!{b}")
            }
        })
        .collect::<Vec<_>>()
        .join("&")
}

/// Renders the acceptance formula, interning each distinct atom set into
/// `atoms` on first sight (so a lookup can never miss).
fn acceptance_formula(acc: &Acceptance, atoms: &mut Vec<BitSet>) -> String {
    fn idx(atoms: &mut Vec<BitSet>, s: &BitSet) -> usize {
        match atoms.iter().position(|a| a == s) {
            Some(i) => i,
            None => {
                atoms.push(s.clone());
                atoms.len() - 1
            }
        }
    }
    match acc {
        Acceptance::True => "t".to_string(),
        Acceptance::False => "f".to_string(),
        Acceptance::Inf(s) => format!("Inf({})", idx(atoms, s)),
        Acceptance::Fin(s) => format!("Fin({})", idx(atoms, s)),
        Acceptance::And(xs) => {
            let mut parts: Vec<String> = Vec::with_capacity(xs.len());
            for x in xs {
                parts.push(format!("({})", acceptance_formula(x, atoms)));
            }
            parts.join(" & ")
        }
        Acceptance::Or(xs) => {
            let mut parts: Vec<String> = Vec::with_capacity(xs.len());
            for x in xs {
                parts.push(format!("({})", acceptance_formula(x, atoms)));
            }
            parts.join(" | ")
        }
    }
}

fn err(message: impl Into<String>) -> AutomatonError {
    AutomatonError::HoaParse {
        message: message.into(),
    }
}

/// Acceptance formula over HOA acceptance-set *indices*; resolved to
/// state sets only after the body has been read.
enum SetFormula {
    True,
    False,
    Inf(usize),
    Fin(usize),
    And(Vec<SetFormula>),
    Or(Vec<SetFormula>),
}

impl SetFormula {
    /// The condition over the states of each acceptance set; a set no
    /// state line names is empty.
    fn resolve(&self, members: &BTreeMap<usize, BitSet>) -> Acceptance {
        let set = |i: &usize| members.get(i).cloned().unwrap_or_default();
        match self {
            SetFormula::True => Acceptance::True,
            SetFormula::False => Acceptance::False,
            SetFormula::Inf(i) => Acceptance::Inf(set(i)),
            SetFormula::Fin(i) => Acceptance::Fin(set(i)),
            SetFormula::And(xs) => {
                if xs.len() == 1 {
                    xs[0].resolve(members)
                } else {
                    Acceptance::And(xs.iter().map(|x| x.resolve(members)).collect())
                }
            }
            SetFormula::Or(xs) => {
                if xs.len() == 1 {
                    xs[0].resolve(members)
                } else {
                    Acceptance::Or(xs.iter().map(|x| x.resolve(members)).collect())
                }
            }
        }
    }
}

/// Cursor-based recursive-descent parser for HOA acceptance formulas:
/// `t`, `f`, `Inf(i)`, `Fin(i)`, parentheses, with `&` binding tighter
/// than `|`.
struct FormulaCursor<'a> {
    src: &'a str,
    pos: usize,
    num_sets: usize,
    /// Parentheses open at `pos`.
    depth: usize,
}

impl<'a> FormulaCursor<'a> {
    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(' ') {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<SetFormula, AutomatonError> {
        let mut parts = vec![self.parse_and()?];
        while self.eat("|") {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            SetFormula::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<SetFormula, AutomatonError> {
        let mut parts = vec![self.parse_atom()?];
        while self.eat("&") {
            parts.push(self.parse_atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            SetFormula::And(parts)
        })
    }

    fn parse_set_index(&mut self) -> Result<usize, AutomatonError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let digits: usize = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return Err(err(format!("expected acceptance-set index at {rest:?}")));
        }
        let i: usize = rest[..digits]
            .parse()
            .map_err(|_| err(format!("acceptance-set index out of range: {rest:?}")))?;
        self.pos += digits;
        if i >= self.num_sets {
            return Err(err(format!(
                "acceptance set {i} out of range (declared {})",
                self.num_sets
            )));
        }
        Ok(i)
    }

    fn parse_atom(&mut self) -> Result<SetFormula, AutomatonError> {
        if self.eat("(") {
            if self.depth == MAX_DEPTH {
                return Err(err(format!(
                    "acceptance formula nests deeper than {MAX_DEPTH}"
                )));
            }
            self.depth += 1;
            let inner = self.parse_or()?;
            self.depth -= 1;
            if !self.eat(")") {
                return Err(err("unbalanced parenthesis in acceptance formula"));
            }
            return Ok(inner);
        }
        if self.eat("Inf(") {
            let i = self.parse_set_index()?;
            if !self.eat(")") {
                return Err(err("missing ')' after Inf set index"));
            }
            return Ok(SetFormula::Inf(i));
        }
        if self.eat("Fin(") {
            let i = self.parse_set_index()?;
            if !self.eat(")") {
                return Err(err("missing ')' after Fin set index"));
            }
            return Ok(SetFormula::Fin(i));
        }
        if self.eat("t") {
            return Ok(SetFormula::True);
        }
        if self.eat("f") {
            return Ok(SetFormula::False);
        }
        Err(err(format!(
            "unexpected token in acceptance formula at {:?}",
            &self.src[self.pos..]
        )))
    }
}

/// Parses the double-quoted AP names after `AP: n`, honouring the `\"`
/// and `\\` escapes the exporter produces.
fn parse_ap_names(rest: &str) -> Result<Vec<String>, AutomatonError> {
    let mut names = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(' ' | '\t')) {
            chars.next();
        }
        match chars.next() {
            None => break,
            Some('"') => {
                let mut name = String::new();
                loop {
                    match chars.next() {
                        None => return Err(err("unterminated AP name string")),
                        Some('\\') => match chars.next() {
                            Some(c) => name.push(c),
                            None => return Err(err("dangling escape in AP name")),
                        },
                        Some('"') => break,
                        Some(c) => name.push(c),
                    }
                }
                names.push(name);
            }
            Some(c) => return Err(err(format!("expected quoted AP name, found {c:?}"))),
        }
    }
    Ok(names)
}

/// Parses a transition label — `t` or a conjunction of AP literals
/// (`0`, `!1`, …) — into the set of symbol indices it covers: all
/// valuations consistent with the mentioned literals.
fn parse_label(label: &str, ap_count: usize) -> Result<Vec<usize>, AutomatonError> {
    let label = label.trim();
    let (mut required, mut forbidden) = (0usize, 0usize);
    if label != "t" {
        for lit in label.split('&') {
            let lit = lit.trim();
            let (neg, digits) = match lit.strip_prefix('!') {
                Some(d) => (true, d.trim()),
                None => (false, lit),
            };
            let bit: usize = digits
                .parse()
                .map_err(|_| err(format!("bad literal {lit:?} in transition label")))?;
            if bit >= ap_count {
                return Err(err(format!(
                    "AP {bit} out of range in label (declared {ap_count})"
                )));
            }
            if neg {
                forbidden |= 1 << bit;
            } else {
                required |= 1 << bit;
            }
        }
        if required & forbidden != 0 {
            return Err(err(format!("contradictory transition label {label:?}")));
        }
    }
    Ok((0..1usize << ap_count)
        .filter(|v| v & required == required && v & forbidden == 0)
        .collect())
}

/// Parses the deterministic state-based HOA v1 fragment produced by
/// [`omega_to_hoa`] (and by external tools emitting that shape) back
/// into an [`OmegaAutomaton`] over the valuation alphabet `2^AP`.
///
/// # Errors
///
/// [`AutomatonError::HoaParse`] on malformed documents (missing
/// headers, bad acceptance formulas, out-of-range indices, a state
/// count above the body's `State:` lines),
/// [`AutomatonError::NotDeterministic`] when some state lacks or
/// duplicates an edge for some valuation, and the usual
/// [`Alphabet::of_propositions`] errors for no APs, more than 6, or
/// duplicate ones.
pub fn hoa_to_omega(src: &str) -> Result<OmegaAutomaton, AutomatonError> {
    let mut lines = src.lines().map(str::trim).filter(|l| !l.is_empty());
    match lines.next() {
        Some("HOA: v1") => {}
        other => return Err(err(format!("expected \"HOA: v1\" header, found {other:?}"))),
    }

    let mut num_states: Option<usize> = None;
    let mut start: Option<StateId> = None;
    let mut ap_names: Option<Vec<String>> = None;
    let mut acceptance: Option<(usize, SetFormula)> = None;
    let mut saw_body = false;
    for line in lines.by_ref() {
        if line == "--BODY--" {
            saw_body = true;
            break;
        }
        let (key, rest) = line
            .split_once(':')
            .ok_or_else(|| err(format!("malformed header line {line:?}")))?;
        let rest = rest.trim();
        match key {
            "States" => {
                let n: usize = rest
                    .parse()
                    .map_err(|_| err(format!("bad state count {rest:?}")))?;
                num_states = Some(n);
            }
            "Start" => {
                let q: StateId = rest
                    .parse()
                    .map_err(|_| err(format!("bad start state {rest:?}")))?;
                start = Some(q);
            }
            "AP" => {
                let (count, names_part) = rest.split_once(' ').unwrap_or((rest, ""));
                let declared: usize = count
                    .parse()
                    .map_err(|_| err(format!("bad AP count in {rest:?}")))?;
                let names = parse_ap_names(names_part)?;
                if names.len() != declared {
                    return Err(err(format!(
                        "AP header declares {declared} propositions but lists {}",
                        names.len()
                    )));
                }
                ap_names = Some(names);
            }
            "Acceptance" => {
                let (count, formula_part) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(format!("malformed Acceptance header {rest:?}")))?;
                let num_sets: usize = count
                    .parse()
                    .map_err(|_| err(format!("bad acceptance-set count in {rest:?}")))?;
                let mut cursor = FormulaCursor {
                    src: formula_part,
                    pos: 0,
                    num_sets,
                    depth: 0,
                };
                let formula = cursor.parse_or()?;
                cursor.skip_ws();
                if cursor.pos != formula_part.len() {
                    return Err(err(format!(
                        "trailing input after acceptance formula: {:?}",
                        &formula_part[cursor.pos..]
                    )));
                }
                acceptance = Some((num_sets, formula));
            }
            // Informational headers the exporter or external tools emit.
            "properties" | "name" | "tool" | "acc-name" => {}
            _ => return Err(err(format!("unsupported header {key:?}"))),
        }
    }
    if !saw_body {
        return Err(err("missing --BODY-- marker"));
    }
    let num_states = num_states.ok_or_else(|| err("missing States: header"))?;
    let start = start.ok_or_else(|| err("missing Start: header"))?;
    let ap_names = ap_names.ok_or_else(|| err("missing AP: header"))?;
    let (num_sets, formula) = acceptance.ok_or_else(|| err("missing Acceptance: header"))?;
    if num_states == 0 {
        return Err(err("automaton must have at least one state"));
    }
    if (start as usize) >= num_states {
        return Err(err(format!(
            "start state {start} out of range (automaton has {num_states})"
        )));
    }

    // The header's numbers size nothing: a complete automaton gives each
    // state a `State:` line, so a state count above the body's is
    // rejected before it sizes the transition table, and the acceptance
    // sets hold only the indices the state lines name.
    let state_lines = lines
        .clone()
        .take_while(|&l| l != "--END--")
        .filter(|l| l.starts_with("State:"))
        .count();
    if num_states > state_lines {
        return Err(err(format!(
            "States: declares {num_states} states, but the body has {state_lines} State: line(s)"
        )));
    }

    let alphabet = Alphabet::of_propositions(ap_names)?;
    let n_sym = alphabet.len();
    let mut delta: Vec<Option<StateId>> = vec![None; num_states * n_sym];
    let mut members: BTreeMap<usize, BitSet> = BTreeMap::new();
    let mut current: Option<usize> = None;
    let mut saw_end = false;
    for line in lines.by_ref() {
        if line == "--END--" {
            saw_end = true;
            break;
        }
        if let Some(rest) = line.strip_prefix("State:") {
            // `State: q ["name"] [{set set ...}]`
            let rest = rest.trim();
            let digits = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
            if digits == 0 {
                return Err(err(format!("malformed state line {line:?}")));
            }
            let q: usize = rest[..digits]
                .parse()
                .map_err(|_| err(format!("bad state index in {line:?}")))?;
            if q >= num_states {
                return Err(err(format!(
                    "state {q} out of range (declared {num_states})"
                )));
            }
            let mut tail = rest[digits..].trim();
            if let Some(after_quote) = tail.strip_prefix('"') {
                // Skip an optional state name; escapes as in AP names.
                let mut esc = false;
                let mut close = None;
                for (i, c) in after_quote.char_indices() {
                    if esc {
                        esc = false;
                    } else if c == '\\' {
                        esc = true;
                    } else if c == '"' {
                        close = Some(i);
                        break;
                    }
                }
                let close = close.ok_or_else(|| err("unterminated state name"))?;
                tail = after_quote[close + 1..].trim();
            }
            if let Some(sets) = tail.strip_prefix('{') {
                let sets = sets
                    .strip_suffix('}')
                    .ok_or_else(|| err(format!("unterminated acceptance sets in {line:?}")))?;
                for tok in sets.split_whitespace() {
                    let i: usize = tok
                        .parse()
                        .map_err(|_| err(format!("bad acceptance set {tok:?} in {line:?}")))?;
                    if i >= num_sets {
                        return Err(err(format!(
                            "acceptance set {i} out of range (declared {num_sets})"
                        )));
                    }
                    members.entry(i).or_default().insert(q);
                }
            } else if !tail.is_empty() {
                return Err(err(format!("trailing input on state line {line:?}")));
            }
            current = Some(q);
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let q = current.ok_or_else(|| err("transition before any State: line"))?;
            let (label, dest_part) = rest
                .split_once(']')
                .ok_or_else(|| err(format!("unterminated transition label {line:?}")))?;
            let dest: usize = dest_part
                .trim()
                .parse()
                .map_err(|_| err(format!("bad destination in {line:?}")))?;
            if dest >= num_states {
                return Err(err(format!(
                    "destination {dest} out of range (declared {num_states})"
                )));
            }
            for v in parse_label(label, alphabet.propositions().len())? {
                let cell = &mut delta[q * n_sym + v];
                if cell.is_some() {
                    return Err(AutomatonError::NotDeterministic);
                }
                *cell = Some(dest as StateId);
            }
            continue;
        }
        return Err(err(format!("unexpected body line {line:?}")));
    }
    if !saw_end {
        return Err(err("missing --END-- marker"));
    }
    let delta: Vec<StateId> = delta
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(AutomatonError::NotDeterministic)?;

    Ok(OmegaAutomaton::build(
        &alphabet,
        num_states,
        start,
        |q, sym| delta[q as usize * n_sym + sym.index()],
        formula.resolve(&members),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    #[test]
    fn buchi_automaton_exports() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let b = sigma.symbol("b").unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |_, s| if s == b { 1 } else { 0 },
            Acceptance::inf([1]),
        );
        let hoa = omega_to_hoa(&m);
        assert!(hoa.starts_with("HOA: v1\n"));
        assert!(hoa.contains("States: 2"));
        assert!(hoa.contains("Start: 0"));
        assert!(hoa.contains("Acceptance: 1 Inf(0)"));
        assert!(hoa.contains("State: 1 {0}"));
        assert!(hoa.contains("--BODY--") && hoa.ends_with("--END--\n"));
        // Letter b is index 1 → label "0" (bit set); a → "!0".
        assert!(hoa.contains("[!0] 0"));
        assert!(hoa.contains("[0] 1"));
    }

    #[test]
    fn proposition_alphabet_uses_names() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let m = OmegaAutomaton::universal(&sigma);
        let hoa = omega_to_hoa(&m);
        assert!(hoa.contains("AP: 2 \"p\" \"q\""));
        assert!(hoa.contains("Acceptance: 0 t"));
    }

    #[test]
    fn streett_acceptance_structure() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let m = OmegaAutomaton::build(
            &sigma,
            2,
            0,
            |q, _| q,
            Acceptance::inf([0]).or(Acceptance::fin([1])),
        );
        let hoa = omega_to_hoa(&m);
        assert!(hoa.contains("Acceptance: 2 (Inf(0)) | (Fin(1))"));
    }

    /// Regression: AP names used to be written unescaped, so a
    /// proposition named `a"b` or `a\b` produced a malformed HOA header.
    #[test]
    fn ap_names_with_quotes_and_backslashes_are_escaped() {
        let sigma = Alphabet::of_propositions(["a\"b", "a\\b"]).unwrap();
        let m = OmegaAutomaton::universal(&sigma);
        let hoa = omega_to_hoa(&m);
        assert!(
            hoa.contains("AP: 2 \"a\\\"b\" \"a\\\\b\""),
            "AP names must be escaped per the HOA v1 grammar, got:\n{hoa}"
        );
        // Every AP line token must still be a well-formed quoted string:
        // an even number of unescaped quotes on the line.
        let ap_line = hoa.lines().find(|l| l.starts_with("AP:")).unwrap();
        let mut quotes = 0usize;
        let mut escaped = false;
        for ch in ap_line.chars() {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                quotes += 1;
            }
        }
        assert_eq!(quotes % 2, 0, "unbalanced quotes in {ap_line:?}");
    }

    /// Regression: for alphabets whose size is not a power of two the
    /// binary AP encoding has padding valuations with no outgoing edges,
    /// so the export must not claim `complete`.
    #[test]
    fn non_power_of_two_alphabet_does_not_claim_complete() {
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let m = OmegaAutomaton::universal(&sigma);
        let hoa = omega_to_hoa(&m);
        assert!(
            hoa.contains("properties: deterministic\n"),
            "determinism still holds, got:\n{hoa}"
        );
        assert!(
            !hoa.contains("complete"),
            "3 letters occupy 3 of the 4 two-bit valuations; the \
             export is not complete:\n{hoa}"
        );
        // Power-of-two alphabets keep the claim.
        for names in [vec!["a", "b"], vec!["a", "b", "c", "d"]] {
            let sigma = Alphabet::new(names).unwrap();
            let m = OmegaAutomaton::universal(&sigma);
            assert!(omega_to_hoa(&m).contains("properties: deterministic complete\n"));
        }
    }

    #[test]
    fn four_letter_alphabet_uses_two_bits() {
        let sigma = Alphabet::new(["a", "b", "c", "d"]).unwrap();
        let m = OmegaAutomaton::universal(&sigma);
        let hoa = omega_to_hoa(&m);
        assert!(hoa.contains("AP: 2 \"bit0\" \"bit1\""));
        // Letter d = index 3 = both bits set.
        assert!(hoa.contains("[0&1] 0"));
    }

    // ---- parser ----

    use crate::random::random_streett;
    use crate::random::rng::{SeedableRng, StdRng};

    /// Exports over a proposition alphabet round-trip structurally.
    #[test]
    fn proposition_export_round_trips_exactly() {
        let sigma = Alphabet::of_propositions(["p", "q"]).unwrap();
        let p = 0;
        let m = OmegaAutomaton::build(
            &sigma,
            3,
            0,
            |q, s| {
                if sigma.proposition_holds(s, p) {
                    (q + 1) % 3
                } else {
                    q
                }
            },
            Acceptance::inf([2]).or(Acceptance::fin([0])),
        );
        let parsed = hoa_to_omega(&omega_to_hoa(&m)).unwrap();
        assert_eq!(parsed, m);
    }

    /// Letter alphabets of power-of-two size round-trip up to the
    /// synthetic `bitN` proposition renaming: same states, same
    /// transition structure, same acceptance.
    #[test]
    fn seeded_power_of_two_exports_round_trip() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let (m, _) = random_streett(&mut rng, &sigma, 8, 2, 0.3);
            let parsed = hoa_to_omega(&omega_to_hoa(&m)).unwrap();
            assert_eq!(parsed.num_states(), m.num_states());
            assert_eq!(parsed.initial(), m.initial());
            assert_eq!(parsed.acceptance(), m.acceptance());
            assert_eq!(parsed.alphabet().propositions(), ["bit0"]);
            for q in 0..m.num_states() as StateId {
                for (s, t) in m.alphabet().symbols().zip(parsed.alphabet().symbols()) {
                    assert_eq!(m.step(q, s), parsed.step(q, t));
                }
            }
        }
    }

    #[test]
    fn parser_accepts_partial_labels_and_t() {
        // One AP, `[t]` covering both valuations on state 1.
        let src = "HOA: v1\nStates: 2\nStart: 0\nAP: 1 \"p\"\n\
                   Acceptance: 1 Inf(0)\n--BODY--\n\
                   State: 0\n[!0] 0\n[0] 1\nState: 1 {0}\n[t] 1\n--END--\n";
        let m = hoa_to_omega(src).unwrap();
        let sigma = m.alphabet().clone();
        let p_true = sigma.valuation_symbol(&[true]);
        let p_false = sigma.valuation_symbol(&[false]);
        assert_eq!(m.step(0, p_false), 0);
        assert_eq!(m.step(0, p_true), 1);
        assert_eq!(m.step(1, p_true), 1);
        assert_eq!(m.step(1, p_false), 1);
        assert_eq!(m.acceptance(), &Acceptance::inf([1]));
    }

    #[test]
    fn parser_rejects_missing_and_duplicate_edges() {
        let missing = "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\n\
                       Acceptance: 0 t\n--BODY--\nState: 0\n[0] 0\n--END--\n";
        assert_eq!(hoa_to_omega(missing), Err(AutomatonError::NotDeterministic));
        let dup = "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\n\
                   Acceptance: 0 t\n--BODY--\nState: 0\n[t] 0\n[0] 0\n--END--\n";
        assert_eq!(hoa_to_omega(dup), Err(AutomatonError::NotDeterministic));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (what, src) in [
            ("wrong version", "HOA: v2\n--BODY--\n--END--\n"),
            (
                "missing States",
                "HOA: v1\nStart: 0\nAP: 1 \"p\"\nAcceptance: 0 t\n--BODY--\n--END--\n",
            ),
            (
                "start out of range",
                "HOA: v1\nStates: 1\nStart: 3\nAP: 1 \"p\"\nAcceptance: 0 t\n--BODY--\n--END--\n",
            ),
            (
                "bad acceptance formula",
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nAcceptance: 1 Inf(\n--BODY--\n--END--\n",
            ),
            (
                "set index out of range",
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nAcceptance: 1 Inf(4)\n--BODY--\n--END--\n",
            ),
            (
                "missing END",
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nAcceptance: 0 t\n--BODY--\nState: 0\n[t] 0\n",
            ),
            (
                "unterminated AP string",
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\nAcceptance: 0 t\n--BODY--\n--END--\n",
            ),
        ] {
            assert!(
                matches!(hoa_to_omega(src), Err(AutomatonError::HoaParse { .. })),
                "{what} should be an HoaParse error"
            );
        }
    }

    /// The acceptance formula's parentheses nest at most `MAX_DEPTH` deep;
    /// the parse runs on a thread with the 2 MiB stack of a daemon
    /// connection.
    #[test]
    fn acceptance_nesting_is_bounded() {
        let doc = |depth: usize| {
            format!(
                "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\n\
                 Acceptance: 1 {}Inf(0){}\n--BODY--\nState: 0 {{0}}\n[t] 0\n--END--\n",
                "(".repeat(depth),
                ")".repeat(depth)
            )
        };
        let parse = |src: String| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || hoa_to_omega(&src).map(drop).map_err(|e| e.to_string()))
                .unwrap()
                .join()
                .unwrap()
        };
        assert_eq!(parse(doc(MAX_DEPTH)), Ok(()));
        for depth in [MAX_DEPTH + 1, 100_000] {
            let e = parse(doc(depth)).unwrap_err();
            assert!(e.contains("nests deeper than"), "{e}");
        }
    }

    /// Header counts size no allocation: an acceptance-set count of
    /// `usize::MAX` parses to the automaton `Acceptance: 1` gives, and a
    /// state count above the body's `State:` lines is an error, not a
    /// transition table sized from the header.
    #[test]
    fn header_counts_are_checked_against_the_body() {
        let doc = |states: &str, sets: &str| {
            format!(
                "HOA: v1\nStates: {states}\nStart: 0\nAP: 1 \"p\"\n\
                 Acceptance: {sets} Inf(0)\n--BODY--\n\
                 State: 0\n[!0] 0\n[0] 1\nState: 1 {{0}}\n[t] 1\n--END--\n"
            )
        };
        let huge = usize::MAX.to_string();
        let small = hoa_to_omega(&doc("2", "1")).unwrap();
        assert_eq!(hoa_to_omega(&doc("2", &huge)), Ok(small));
        for states in [huge.as_str(), "3"] {
            let e = hoa_to_omega(&doc(states, "1")).unwrap_err();
            assert!(
                matches!(&e, AutomatonError::HoaParse { message }
                    if message.contains("but the body has 2 State: line(s)")),
                "States: {states} gave {e}"
            );
        }
        let no_aps = "HOA: v1\nStates: 1\nStart: 0\nAP: 0\nAcceptance: 0 t\n\
                      --BODY--\nState: 0\n[t] 0\n--END--\n";
        assert_eq!(
            hoa_to_omega(no_aps),
            Err(AutomatonError::PropositionCount { requested: 0 })
        );
    }

    #[test]
    fn parser_reads_escaped_ap_names_and_state_names() {
        let sigma = Alphabet::of_propositions(["a\"b"]).unwrap();
        let m = OmegaAutomaton::universal(&sigma);
        let parsed = hoa_to_omega(&omega_to_hoa(&m)).unwrap();
        assert_eq!(parsed.alphabet().propositions(), ["a\"b"]);
        // Optional quoted state names (emitted by external tools) are
        // skipped.
        let named = "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\n\
                     Acceptance: 0 t\n--BODY--\nState: 0 \"the \\\"one\\\"\"\n[t] 0\n--END--\n";
        assert!(hoa_to_omega(named).is_ok());
    }

    #[test]
    fn incomplete_three_letter_export_is_rejected() {
        let sigma = Alphabet::new(["a", "b", "c"]).unwrap();
        let m = OmegaAutomaton::universal(&sigma);
        assert_eq!(
            hoa_to_omega(&omega_to_hoa(&m)),
            Err(AutomatonError::NotDeterministic)
        );
    }

    /// Round-tripping commutes with content addressing: the structural
    /// hash of a parsed export equals the hash of a parsed re-export.
    #[test]
    fn round_trip_is_stable_under_hashing() {
        let sigma = Alphabet::of_propositions(["p"]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let (m, _) = random_streett(&mut rng, &sigma, 6, 2, 0.4);
            let once = hoa_to_omega(&omega_to_hoa(&m)).unwrap();
            let twice = hoa_to_omega(&omega_to_hoa(&once)).unwrap();
            assert_eq!(
                crate::canonical::structural_hash(&once),
                crate::canonical::structural_hash(&twice)
            );
            assert_eq!(once, m);
        }
    }
}
