//! A recursive-descent parser for temporal formulas.
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! formula ::= iff
//! iff     ::= implies ('<->' implies)*
//! implies ::= or ('->' implies)?            // right associative
//! or      ::= and ('|' and)*
//! and     ::= binary ('&' binary)*
//! binary  ::= unary (('U'|'W'|'S'|'B') unary)*   // left associative
//! unary   ::= ('!'|'X'|'F'|'G'|'Y'|'Z'|'O'|'H')* primary
//! primary ::= 'true' | 'false' | 'first' | ident | '(' formula ')'
//! ```
//!
//! Identifiers name propositions (valuation alphabets) or letters (plain
//! alphabets). The single-letter operator names `U W S B X F G Y Z O H` are
//! reserved; `first` denotes the paper's initial-position formula `¬⊖T`.
//!
//! Three fixed bounds keep a hostile formula from exhausting the stack or
//! the memory of the thread that parses and compiles it:
//! [`MAX_NESTING`], [`MAX_HEIGHT`] and [`MAX_SIZE`]. A formula beyond one
//! is a [`ParseError`].

use crate::ast::Formula;
use hierarchy_automata::alphabet::Alphabet;
use std::fmt;

/// The most parenthesized groups, prefix operators and right-nested `->`
/// that may be open at one point of a formula. The parser recurses once
/// per level.
pub const MAX_NESTING: usize = 256;

/// The most operators that may nest on one path of the formula tree,
/// left-associative chains such as `p & q & …` included. Every pass over
/// a formula (rewriting, the tester, printing, dropping) recurses once per
/// level; in the release build a compile at this height fits a 2 MiB
/// thread stack.
pub const MAX_HEIGHT: usize = 4_096;

/// The most nodes a formula may have once each `<->` is expanded into its
/// two implications. The expansion copies both operands, so a chain of
/// `<->` doubles the formula at every link.
pub const MAX_SIZE: usize = 16_384;

/// A formula syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Token index where the problem occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "formula error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Not,
    And,
    Or,
    Implies,
    Iff,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '!' | '¬' => {
                out.push(Token::Not);
                i += 1;
            }
            '&' | '∧' => {
                out.push(Token::And);
                i += 1;
                if chars.get(i) == Some(&'&') {
                    i += 1;
                }
            }
            '|' | '∨' => {
                out.push(Token::Or);
                i += 1;
                if chars.get(i) == Some(&'|') {
                    i += 1;
                }
            }
            '-' | '=' => {
                if chars.get(i + 1) == Some(&'>') {
                    out.push(Token::Implies);
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: out.len(),
                        message: format!("unexpected character {c:?}"),
                    });
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'-') && chars.get(i + 2) == Some(&'>') {
                    out.push(Token::Iff);
                    i += 3;
                } else {
                    return Err(ParseError {
                        position: out.len(),
                        message: "expected '<->'".to_string(),
                    });
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(ParseError {
                    position: out.len(),
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// Parses a formula over the given alphabet.
///
/// # Errors
///
/// Returns a [`ParseError`] on bad syntax or atoms not in the alphabet.
pub fn parse(alphabet: &Alphabet, input: &str) -> Result<Formula, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = P {
        alphabet,
        tokens: &tokens,
        pos: 0,
        depth: 0,
    };
    let f = p.iff()?;
    if p.pos != tokens.len() {
        return Err(ParseError {
            position: p.pos,
            message: format!("unexpected trailing input: {:?}", tokens[p.pos]),
        });
    }
    Ok(f.formula)
}

struct P<'a> {
    alphabet: &'a Alphabet,
    tokens: &'a [Token],
    pos: usize,
    /// Levels of [`MAX_NESTING`] open at `pos`.
    depth: usize,
}

/// A parsed subformula with its expanded size and its height.
struct Node {
    formula: Formula,
    size: usize,
    height: usize,
}

impl P<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    /// A node of `size` nodes whose deepest path has `height` operators,
    /// within [`MAX_SIZE`] and [`MAX_HEIGHT`].
    fn node(&self, formula: Formula, size: usize, height: usize) -> Result<Node, ParseError> {
        if size > MAX_SIZE {
            return Err(self.err(format!(
                "formula has more than {MAX_SIZE} nodes once <-> is expanded"
            )));
        }
        if height > MAX_HEIGHT {
            return Err(self.err(format!("operators nest deeper than {MAX_HEIGHT}")));
        }
        Ok(Node {
            formula,
            size,
            height,
        })
    }

    /// Parses one level of [`MAX_NESTING`] with `f`.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Node, ParseError>) -> Result<Node, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!(
                "parentheses, prefix operators and -> nest deeper than {MAX_NESTING}"
            )));
        }
        self.depth += 1;
        let node = f(self);
        self.depth -= 1;
        node
    }

    fn iff(&mut self) -> Result<Node, ParseError> {
        let mut left = self.implies()?;
        while self.peek() == Some(&Token::Iff) {
            self.pos += 1;
            let right = self.implies()?;
            // (l → r) ∧ (r → l): both operands appear twice.
            let (l, r) = (left.formula, right.formula);
            left = self.node(
                l.clone().implies(r.clone()).and(r.implies(l)),
                5 + 2 * (left.size + right.size),
                3 + left.height.max(right.height),
            )?;
        }
        Ok(left)
    }

    fn implies(&mut self) -> Result<Node, ParseError> {
        let left = self.or()?;
        if self.peek() == Some(&Token::Implies) {
            self.pos += 1;
            let right = self.nested(Self::implies)?;
            return self.node(
                left.formula.implies(right.formula),
                2 + left.size + right.size,
                2 + left.height.max(right.height),
            );
        }
        Ok(left)
    }

    /// `left op right` for a binary connective `op`.
    fn binary_node(
        &self,
        left: Node,
        right: Node,
        op: fn(Formula, Formula) -> Formula,
    ) -> Result<Node, ParseError> {
        self.node(
            op(left.formula, right.formula),
            1 + left.size + right.size,
            1 + left.height.max(right.height),
        )
    }

    fn or(&mut self) -> Result<Node, ParseError> {
        let mut left = self.and()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            let right = self.and()?;
            left = self.binary_node(left, right, Formula::or)?;
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Node, ParseError> {
        let mut left = self.binary()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            let right = self.binary()?;
            left = self.binary_node(left, right, Formula::and)?;
        }
        Ok(left)
    }

    fn binary(&mut self) -> Result<Node, ParseError> {
        let mut left = self.unary()?;
        while let Some(Token::Ident(name)) = self.peek() {
            let op: fn(Formula, Formula) -> Formula = match name.as_str() {
                "U" => Formula::until,
                "W" => Formula::unless,
                "S" => Formula::since,
                "B" => Formula::wsince,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = self.binary_node(left, right, op)?;
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Node, ParseError> {
        let op: fn(Formula) -> Formula = match self.peek() {
            Some(Token::Not) => Formula::not,
            Some(Token::Ident(name)) => match name.as_str() {
                "X" | "N" => Formula::next,
                "F" => Formula::eventually,
                "G" => Formula::always,
                "Y" => Formula::prev,
                "Z" => Formula::wprev,
                "O" => Formula::once,
                "H" => Formula::historically,
                _ => return self.primary(),
            },
            _ => return self.primary(),
        };
        self.pos += 1;
        let inner = self.nested(Self::unary)?;
        self.node(op(inner.formula), inner.size + 1, inner.height + 1)
    }

    fn primary(&mut self) -> Result<Node, ParseError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.nested(Self::iff)?;
                if self.peek() != Some(&Token::RParen) {
                    return Err(self.err("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                let formula = match name.as_str() {
                    "true" | "T" => Formula::True,
                    "false" => Formula::False,
                    "first" => return self.node(Formula::first(), 2, 1),
                    _ => Formula::atom(self.alphabet, &name).ok_or_else(|| ParseError {
                        position: self.pos - 1,
                        message: format!(
                            "{name:?} is neither a proposition nor a letter of the alphabet"
                        ),
                    })?,
                };
                self.node(formula, 1, 0)
            }
            Some(tok) => Err(self.err(format!("unexpected token {tok:?}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> Alphabet {
        Alphabet::of_propositions(["p", "q"]).unwrap()
    }

    #[test]
    fn parses_basic_ops() {
        let sigma = ap();
        let f = parse(&sigma, "G (p -> F q)").unwrap();
        assert_eq!(f.to_string(), "G (!p | F q)");
        let g = parse(&sigma, "p U q | q S p").unwrap();
        assert_eq!(g.to_string(), "p U q | q S p");
    }

    #[test]
    fn precedence() {
        let sigma = ap();
        // & binds tighter than |, temporal binaries tighter than &.
        let f = parse(&sigma, "p & q | p").unwrap();
        assert_eq!(f.to_string(), "p & q | p");
        let g = parse(&sigma, "p U q & q").unwrap();
        assert_eq!(g.to_string(), "p U q & q");
        assert_eq!(
            parse(&sigma, "(p U q) & q").unwrap(),
            parse(&sigma, "p U q & q").unwrap()
        );
    }

    #[test]
    fn implication_right_assoc() {
        let sigma = ap();
        let f = parse(&sigma, "p -> q -> p").unwrap();
        assert_eq!(f, parse(&sigma, "p -> (q -> p)").unwrap());
    }

    #[test]
    fn unicode_connectives() {
        let sigma = ap();
        assert_eq!(
            parse(&sigma, "¬p ∧ q").unwrap(),
            parse(&sigma, "!p & q").unwrap()
        );
        assert_eq!(
            parse(&sigma, "p && q || p").unwrap(),
            parse(&sigma, "p & q | p").unwrap()
        );
    }

    #[test]
    fn constants_and_first() {
        let sigma = ap();
        assert_eq!(parse(&sigma, "true").unwrap(), Formula::True);
        assert_eq!(parse(&sigma, "false").unwrap(), Formula::False);
        assert_eq!(parse(&sigma, "first").unwrap(), Formula::first());
    }

    #[test]
    fn letter_alphabets() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let f = parse(&sigma, "G F b").unwrap();
        assert_eq!(f.to_string(), "G F b");
    }

    #[test]
    fn errors() {
        let sigma = ap();
        assert!(parse(&sigma, "").is_err());
        assert!(parse(&sigma, "p U").is_err());
        assert!(parse(&sigma, "(p").is_err());
        assert!(parse(&sigma, "zzz").is_err());
        assert!(parse(&sigma, "p q").is_err());
        assert!(parse(&sigma, "p # q").is_err());
        let e = parse(&sigma, "p %").unwrap_err();
        assert!(e.to_string().contains("formula error"));
    }

    /// Parses `input` on a thread with the 2 MiB stack of a daemon
    /// connection, returning the error message if it is rejected.
    fn parse_on_small_stack(input: String) -> Result<(), String> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&ap(), &input).map(drop).map_err(|e| e.to_string()))
            .unwrap()
            .join()
            .unwrap()
    }

    fn chain(operand: &str, op: &str, n: usize) -> String {
        vec![operand; n].join(op)
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |n: usize| format!("{}p{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse_on_small_stack(parens(MAX_NESTING)), Ok(()));
        assert_eq!(
            parse_on_small_stack(format!("{}p", "!".repeat(MAX_NESTING))),
            Ok(())
        );
        for hostile in [
            parens(MAX_NESTING + 1),
            parens(2_000),
            parens(20_000),
            format!("{}p", "!".repeat(20_000)),
            format!("{}p", "X ".repeat(20_000)),
            chain("p", " -> ", 20_000),
        ] {
            let e = parse_on_small_stack(hostile).unwrap_err();
            assert!(e.contains("nest deeper than"), "{e}");
        }
    }

    #[test]
    fn height_is_bounded() {
        // `p U p U …` nests one `U` per operand after the first.
        assert_eq!(
            parse_on_small_stack(chain("p", " U ", MAX_HEIGHT + 1)),
            Ok(())
        );
        for hostile in [
            chain("p", " U ", MAX_HEIGHT + 2),
            chain("G F p", " & ", 10_000),
        ] {
            let e = parse_on_small_stack(hostile).unwrap_err();
            assert!(e.contains("operators nest deeper than"), "{e}");
        }
        assert_eq!(parse_on_small_stack(chain("G F p", " & ", 3_000)), Ok(()));
    }

    #[test]
    fn expanded_size_is_bounded() {
        // `!` over 128 groups of 64 atoms: 1 + 128·127 + 127 nodes.
        let groups = |negations: &str| {
            let group = format!("({})", chain("p", " & ", 64));
            format!("{negations}({})", chain(&group, " & ", 128))
        };
        assert_eq!(parse_on_small_stack(groups("!")), Ok(()));
        let e = parse_on_small_stack(groups("!!")).unwrap_err();
        assert!(e.contains("nodes once <-> is expanded"), "{e}");
        // Each `<->` copies both operands, so 20 operands would expand to
        // millions of nodes; the parser stops at the bound.
        let start = std::time::Instant::now();
        let e = parse_on_small_stack(chain("p", " <-> ", 20)).unwrap_err();
        assert!(e.contains("nodes once <-> is expanded"), "{e}");
        assert!(start.elapsed().as_secs() < 5);
    }

    #[test]
    fn iff_expands() {
        let sigma = ap();
        let f = parse(&sigma, "p <-> q").unwrap();
        // (p→q) ∧ (q→p)
        assert!(matches!(f, Formula::And(..)));
    }
}
