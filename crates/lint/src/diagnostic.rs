//! The diagnostic vocabulary shared by every lint layer: severities,
//! locations inside the linted artifact, and the [`Diagnostic`] record
//! itself, with a hand-rolled JSON rendering (the workspace carries no
//! serialization dependency).
//!
//! [`json_escape_into`] is the workspace's one JSON string escaper: the
//! reports here, `spec-lint`'s output and the `spec-serve` daemon's
//! response writer all go through it.

use std::fmt;

/// How serious a finding is.
///
/// `spec-lint` treats an artifact as *clean* when it produces no
/// [`Error`](Severity::Error) and no [`Warning`](Severity::Warning)
/// diagnostics; [`Info`](Severity::Info) findings are advisory (e.g.
/// "this formula sits lower in the hierarchy than it is written").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the artifact is fine but could be expressed better.
    Info,
    /// Probably a specification mistake; the artifact still has a meaning.
    Warning,
    /// Almost certainly a mistake (e.g. an unsatisfiable specification).
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where inside the linted artifact a finding points.
///
/// Artifacts here are structured values, not source text, so locations
/// are structural: a subformula by its display form, a set of automaton
/// states, an acceptance conjunct, a named transition or variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The whole artifact.
    Root,
    /// A subformula or regex subexpression, by display form.
    Fragment(String),
    /// A set of automaton or system states.
    States(Vec<usize>),
    /// The `i`-th conjunct of the acceptance condition.
    AcceptanceConjunct(usize),
    /// An acceptance atom, by display form.
    AcceptanceAtom(String),
    /// A named transition of a transition system.
    Transition(String),
    /// A named program variable.
    Variable(String),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Root => write!(f, "(whole artifact)"),
            Location::Fragment(s) => write!(f, "`{s}`"),
            Location::States(qs) => {
                write!(f, "state")?;
                if qs.len() != 1 {
                    write!(f, "s")?;
                }
                for (i, q) in qs.iter().enumerate() {
                    write!(f, "{}{q}", if i == 0 { " " } else { ", " })?;
                }
                Ok(())
            }
            Location::AcceptanceConjunct(i) => write!(f, "acceptance conjunct #{i}"),
            Location::AcceptanceAtom(s) => write!(f, "acceptance atom {s}"),
            Location::Transition(name) => write!(f, "transition {name:?}"),
            Location::Variable(name) => write!(f, "variable {name:?}"),
        }
    }
}

/// One finding of the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`LOGIC003`, `AUT006`, …); see
    /// [`crate::registry::CATALOGUE`].
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable description of the problem.
    pub message: String,
    /// An optional actionable suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a suggestion.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// The JSON object for this diagnostic.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`Self::to_json`] to `out`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"code\": \"");
        out.push_str(self.code);
        out.push_str("\", \"severity\": \"");
        out.push_str(self.severity.as_str());
        out.push_str("\", \"location\": \"");
        json_escape_into(out, &self.location.to_string());
        out.push_str("\", \"message\": \"");
        json_escape_into(out, &self.message);
        if let Some(s) = &self.suggestion {
            out.push_str("\", \"suggestion\": \"");
            json_escape_into(out, s);
        }
        out.push_str("\"}");
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` escaped for a JSON string literal (without the
/// quotes): `"` and `\` get a backslash, `\n`, `\r` and `\t` their
/// two-character escapes, the other control characters below U+0020 a
/// `\u00XX` escape, and everything else is copied. The bytes to escape
/// are all ASCII, so the text between two of them is copied as one run.
pub fn json_escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Renders a diagnostic list as a JSON array.
pub fn report_to_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        d.write_json(&mut out);
    }
    out.push(']');
    out
}

/// The worst severity present, or `None` on an empty report.
pub fn worst_severity(diagnostics: &[Diagnostic]) -> Option<Severity> {
    diagnostics.iter().map(|d| d.severity).max()
}

/// Whether the report is *clean*: no errors and no warnings (advisory
/// `Info` findings are allowed).
pub fn is_clean(diagnostics: &[Diagnostic]) -> bool {
    worst_severity(diagnostics).is_none_or(|s| s < Severity::Warning)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_and_display() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.to_string(), "warning");
    }

    #[test]
    fn display_and_json() {
        let d = Diagnostic::new(
            "AUT003",
            Severity::Warning,
            Location::States(vec![3, 5]),
            "2 unreachable states",
        )
        .with_suggestion("call trim()");
        let text = d.to_string();
        assert!(text.contains("warning [AUT003] states 3, 5"));
        assert!(text.contains("suggestion: call trim()"));
        let json = d.to_json();
        assert!(json.contains("\"code\": \"AUT003\""));
        assert!(json.contains("\"suggestion\": \"call trim()\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let d = Diagnostic::new(
            "LOGIC004",
            Severity::Info,
            Location::Fragment("G \"x\"".into()),
            "quoted",
        );
        assert!(d.to_json().contains("\\\"x\\\""));
    }

    #[test]
    fn clean_and_worst() {
        assert!(is_clean(&[]));
        assert_eq!(worst_severity(&[]), None);
        let info = Diagnostic::new("LOGIC005", Severity::Info, Location::Root, "m");
        let warn = Diagnostic::new("AUT005", Severity::Warning, Location::Root, "m");
        assert!(is_clean(std::slice::from_ref(&info)));
        assert!(!is_clean(&[info.clone(), warn.clone()]));
        assert_eq!(worst_severity(&[info, warn]), Some(Severity::Warning));
    }

    #[test]
    fn report_json_is_array() {
        let d = Diagnostic::new("FTS002", Severity::Warning, Location::Root, "m");
        assert_eq!(report_to_json(&[]), "[]");
        let two = report_to_json(&[d.clone(), d]);
        assert!(two.starts_with('[') && two.ends_with(']'));
        assert_eq!(two.matches("\"FTS002\"").count(), 2);
    }
}
