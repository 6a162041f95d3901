//! Regular expressions in the paper's notation.
//!
//! The grammar follows the paper's regular-expression style:
//!
//! ```text
//! expr    ::= term ('+' term)*          // union (the paper's '+')
//! term    ::= factor+                   // concatenation by juxtaposition
//! factor  ::= atom ('*' | '+')*         // Kleene star / plus (postfix)
//! atom    ::= symbol | '.' | '(' expr ')'
//! ```
//!
//! A `+` is parsed as *postfix plus* when it directly follows a factor and
//! is not followed by the start of another atom at the same level — i.e.
//! `a+b` is the union `a ∪ b`, while `a+` and `(ab)+` use the postfix plus,
//! and `a++b` is `a⁺ ∪ b`. `.` denotes any single symbol (the paper's `Σ`).
//! Symbols are single characters that must name a symbol of the alphabet;
//! whitespace is ignored. Parentheses and the expression tree nest at most
//! [`MAX_DEPTH`] deep.

use hierarchy_automata::alphabet::{Alphabet, Symbol};
use std::fmt;

/// The deepest an expression may nest: open parentheses (the parser
/// recurses once per level) and the height of the expression tree (every
/// later pass over it — the Thompson construction, printing, dropping —
/// recurses once per level) are both bounded by it.
pub const MAX_DEPTH: usize = 256;

/// A regular-expression syntax tree over an alphabet's symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single symbol.
    Sym(Symbol),
    /// Any single symbol (the paper's `Σ`).
    AnySym,
    /// Concatenation.
    Concat(Vec<Regex>),
    /// Union (the paper's `+`).
    Union(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// Kleene plus.
    Plus(Box<Regex>),
}

impl Regex {
    /// Parses an expression in the paper's notation over `alphabet`.
    ///
    /// # Errors
    ///
    /// Returns a [`RegexError`] describing the first syntax problem.
    ///
    /// # Examples
    ///
    /// ```
    /// use hierarchy_automata::alphabet::Alphabet;
    /// use hierarchy_lang::Regex;
    ///
    /// let sigma = Alphabet::new(["a", "b"]).unwrap();
    /// let r = Regex::parse(&sigma, "a+b*").unwrap(); // a ∪ b*
    /// let p = Regex::parse(&sigma, "(a*b)+").unwrap(); // (a*b)⁺
    /// assert_ne!(r, p);
    /// ```
    pub fn parse(alphabet: &Alphabet, input: &str) -> Result<Regex, RegexError> {
        let chars: Vec<char> = input.chars().filter(|c| !c.is_whitespace()).collect();
        let mut parser = Parser {
            alphabet,
            chars: &chars,
            pos: 0,
            open: 0,
        };
        let (expr, _) = parser.union()?;
        if parser.pos != chars.len() {
            return Err(RegexError {
                position: parser.pos,
                message: format!("unexpected character {:?}", chars[parser.pos]),
            });
        }
        Ok(expr)
    }

    /// Whether ε belongs to the language.
    pub fn matches_epsilon(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) | Regex::AnySym => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(xs) => xs.iter().all(Regex::matches_epsilon),
            Regex::Union(xs) => xs.iter().any(Regex::matches_epsilon),
            Regex::Plus(x) => x.matches_epsilon(),
        }
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(r: &Regex) -> u8 {
            match r {
                Regex::Union(_) => 0,
                Regex::Concat(_) => 1,
                _ => 2,
            }
        }
        fn rec(r: &Regex, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
            let p = prec(r);
            if p < min {
                write!(f, "(")?;
            }
            match r {
                Regex::Empty => write!(f, "∅")?,
                Regex::Epsilon => write!(f, "ε")?,
                Regex::Sym(s) => write!(f, "<{}>", s.index())?,
                Regex::AnySym => write!(f, ".")?,
                Regex::Concat(xs) => {
                    for x in xs {
                        rec(x, f, 2)?;
                    }
                }
                Regex::Union(xs) => {
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            write!(f, "+")?;
                        }
                        rec(x, f, 1)?;
                    }
                }
                Regex::Star(x) => {
                    rec(x, f, 2)?;
                    write!(f, "*")?;
                }
                Regex::Plus(x) => {
                    rec(x, f, 2)?;
                    write!(f, "+")?;
                }
            }
            if p < min {
                write!(f, ")")?;
            }
            Ok(())
        }
        rec(self, f, 0)
    }
}

/// A regular-expression syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Character offset (whitespace stripped) of the problem.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for RegexError {}

struct Parser<'a> {
    alphabet: &'a Alphabet,
    chars: &'a [char],
    pos: usize,
    /// Parentheses open at `pos`.
    open: usize,
}

/// A parsed subexpression and the height of its tree.
type Node = (Regex, usize);

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn starts_atom(&self, c: char) -> bool {
        c == '(' || c == '.' || self.alphabet.symbol(&c.to_string()).is_some()
    }

    fn too_deep(&self) -> RegexError {
        RegexError {
            position: self.pos,
            message: format!("expression nests deeper than {MAX_DEPTH}"),
        }
    }

    /// `xs` under one `Union` or `Concat` node (`wrap`), or the single
    /// element itself.
    fn list(&self, mut xs: Vec<Node>, wrap: fn(Vec<Regex>) -> Regex) -> Result<Node, RegexError> {
        if xs.len() == 1 {
            return Ok(xs.pop().expect("one element"));
        }
        let height = 1 + xs.iter().map(|x| x.1).max().unwrap_or(0);
        if height > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok((wrap(xs.into_iter().map(|x| x.0).collect()), height))
    }

    fn union(&mut self) -> Result<Node, RegexError> {
        let mut terms = vec![self.concat()?];
        while self.peek() == Some('+') {
            // Infix union only when something parseable follows; a trailing
            // '+' belongs to the preceding factor and was consumed there.
            self.pos += 1;
            terms.push(self.concat()?);
        }
        self.list(terms, Regex::Union)
    }

    fn concat(&mut self) -> Result<Node, RegexError> {
        let mut factors = Vec::new();
        while let Some(c) = self.peek() {
            if !self.starts_atom(c) {
                break;
            }
            factors.push(self.factor()?);
        }
        if factors.is_empty() {
            return Err(RegexError {
                position: self.pos,
                message: match self.peek() {
                    Some(c) => format!("expected an atom, found {c:?}"),
                    None => "expected an atom, found end of input".to_string(),
                },
            });
        }
        self.list(factors, Regex::Concat)
    }

    fn factor(&mut self) -> Result<Node, RegexError> {
        let (mut atom, mut height) = self.atom()?;
        loop {
            let wrap: fn(Box<Regex>) -> Regex = match self.peek() {
                Some('*') => Regex::Star,
                Some('+') => {
                    // Postfix plus only if no atom follows (else it is the
                    // union operator handled by `union`); `a++` = (a⁺)⁺ and
                    // `a+*` = (a⁺)*.
                    match self.chars.get(self.pos + 1) {
                        Some(&c) if self.starts_atom(c) => break,
                        Some('+' | '*' | ')') | None => Regex::Plus,
                        Some(_) => break,
                    }
                }
                _ => break,
            };
            if height == MAX_DEPTH {
                return Err(self.too_deep());
            }
            self.pos += 1;
            atom = wrap(Box::new(atom));
            height += 1;
        }
        Ok((atom, height))
    }

    fn atom(&mut self) -> Result<Node, RegexError> {
        match self.peek() {
            Some('(') => {
                if self.open == MAX_DEPTH {
                    return Err(self.too_deep());
                }
                self.pos += 1;
                self.open += 1;
                let inner = self.union()?;
                self.open -= 1;
                if self.peek() != Some(')') {
                    return Err(RegexError {
                        position: self.pos,
                        message: "expected ')'".to_string(),
                    });
                }
                self.pos += 1;
                Ok(inner)
            }
            Some('.') => {
                self.pos += 1;
                Ok((Regex::AnySym, 1))
            }
            Some(c) => match self.alphabet.symbol(&c.to_string()) {
                Some(sym) => {
                    self.pos += 1;
                    Ok((Regex::Sym(sym), 1))
                }
                None => Err(RegexError {
                    position: self.pos,
                    message: format!("{c:?} is not a symbol of the alphabet"),
                }),
            },
            None => Err(RegexError {
                position: self.pos,
                message: "unexpected end of input".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b"]).unwrap()
    }

    #[test]
    fn parses_symbols_and_concat() {
        let sigma = ab();
        let r = Regex::parse(&sigma, "ab").unwrap();
        assert_eq!(
            r,
            Regex::Concat(vec![Regex::Sym(Symbol(0)), Regex::Sym(Symbol(1))])
        );
    }

    #[test]
    fn infix_plus_is_union() {
        let sigma = ab();
        let r = Regex::parse(&sigma, "a+b").unwrap();
        assert_eq!(
            r,
            Regex::Union(vec![Regex::Sym(Symbol(0)), Regex::Sym(Symbol(1))])
        );
    }

    #[test]
    fn postfix_plus_at_end_and_before_paren() {
        let sigma = ab();
        assert_eq!(
            Regex::parse(&sigma, "a+").unwrap(),
            Regex::Plus(Box::new(Regex::Sym(Symbol(0))))
        );
        assert_eq!(
            Regex::parse(&sigma, "(a+)b").unwrap(),
            Regex::Concat(vec![
                Regex::Plus(Box::new(Regex::Sym(Symbol(0)))),
                Regex::Sym(Symbol(1))
            ])
        );
        // a++b = a⁺ ∪ b
        assert_eq!(
            Regex::parse(&sigma, "a++b").unwrap(),
            Regex::Union(vec![
                Regex::Plus(Box::new(Regex::Sym(Symbol(0)))),
                Regex::Sym(Symbol(1))
            ])
        );
    }

    #[test]
    fn star_and_dot() {
        let sigma = ab();
        let r = Regex::parse(&sigma, ".*b").unwrap();
        assert_eq!(
            r,
            Regex::Concat(vec![
                Regex::Star(Box::new(Regex::AnySym)),
                Regex::Sym(Symbol(1))
            ])
        );
    }

    #[test]
    fn precedence_union_lowest() {
        let sigma = ab();
        // ab+ba = (ab) ∪ (ba)
        let r = Regex::parse(&sigma, "ab+ba").unwrap();
        match r {
            Regex::Union(ts) => assert_eq!(ts.len(), 2),
            other => panic!("expected union, got {other:?}"),
        }
    }

    /// Parses `input` over `{a, b}` on a thread with the 2 MiB stack of a
    /// daemon connection, returning the error message if it is rejected.
    fn parse_on_small_stack(input: String) -> Result<(), String> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                Regex::parse(&ab(), &input)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        // A symbol is one level; each postfix operator adds one.
        let stars = |n: usize| format!("a{}", "*".repeat(n));
        assert_eq!(parse_on_small_stack(parens(MAX_DEPTH)), Ok(()));
        assert_eq!(parse_on_small_stack(stars(MAX_DEPTH - 1)), Ok(()));
        for hostile in [
            parens(MAX_DEPTH + 1),
            parens(5_000),
            stars(MAX_DEPTH),
            stars(100_000),
            format!("{}a", "(a".repeat(5_000)),
        ] {
            let e = parse_on_small_stack(hostile).unwrap_err();
            assert!(e.contains("nests deeper than"), "{e}");
        }
    }

    #[test]
    fn errors_are_reported() {
        let sigma = ab();
        assert!(Regex::parse(&sigma, "x").is_err());
        assert!(Regex::parse(&sigma, "(a").is_err());
        assert!(Regex::parse(&sigma, "a)").is_err());
        assert!(Regex::parse(&sigma, "").is_err());
        assert!(Regex::parse(&sigma, "+a").is_err());
        let e = Regex::parse(&sigma, "a%").unwrap_err();
        assert!(e.to_string().contains("regex error"));
    }

    #[test]
    fn whitespace_ignored() {
        let sigma = ab();
        assert_eq!(
            Regex::parse(&sigma, " a  b ").unwrap(),
            Regex::parse(&sigma, "ab").unwrap()
        );
    }

    #[test]
    fn matches_epsilon() {
        let sigma = ab();
        assert!(Regex::parse(&sigma, "a*").unwrap().matches_epsilon());
        assert!(!Regex::parse(&sigma, "a+").unwrap().matches_epsilon());
        assert!(!Regex::parse(&sigma, "ab").unwrap().matches_epsilon());
        assert!(Regex::parse(&sigma, "a*b*").unwrap().matches_epsilon());
        assert!(Regex::parse(&sigma, "a+b*").unwrap().matches_epsilon()); // union
    }

    #[test]
    fn display_roundtrip_shape() {
        let sigma = ab();
        let r = Regex::parse(&sigma, "(a+b)*a+").unwrap();
        let shown = r.to_string();
        assert!(shown.contains('*'));
    }
}
