//! `spec-lint` — command-line front end of the lint crate.
//!
//! ```text
//! spec-lint rules [--json]               list the rule catalogue
//! spec-lint formula [OPTS] "<formula>"…  lint one or more temporal formulas
//! spec-lint regex [OPTS] "<pattern>"…    lint one or more regular expressions
//!                                        and the finitary properties they denote
//! spec-lint program [OPTS] [NAME]…       lint built-in programs, both the
//!                                        syntactic system rules and the
//!                                        invariant-backed semantic rules
//!                                        (`fts` is an alias)
//! spec-lint program --list [--json]      enumerate the program catalogue
//!                                        (name, locations, variables,
//!                                        domain sizes, fairness)
//! spec-lint examples [--json] [--jobs N] lint the paper's running examples
//! spec-lint audit [OPTS] "<member>"…     whole-suite audit: subsumption
//!                                        lattice, redundancy, duplicates,
//!                                        conflicts, class overkill, dead
//!                                        propositions (SUITE001–SUITE005);
//!                                        members are formulas or A:/E:/R:/P:
//!                                        operator properties over a regex
//!
//! OPTS:
//!   --letters a,b,c    plain alphabet (default: a,b)
//!   --props p,q        valuation alphabet over propositions
//!   --jobs N           lint artifacts on N worker threads (default:
//!                      the machine's cores)
//!   --cap N            audit: state cap for suite-conjunction checks
//!   --json             machine-readable output
//! ```
//!
//! Exit status: 0 when every linted artifact is clean (no errors, no
//! warnings — `Info` findings are advisory), 1 when any error or warning
//! fired, 2 on usage or parse errors.

use hierarchy_automata::alphabet::Alphabet;
use hierarchy_automata::omega::OmegaAutomaton;
use hierarchy_automata::par;
use hierarchy_fts::absint;
use hierarchy_fts::system::Fairness;
use hierarchy_lang::finitary::FinitaryProperty;
use hierarchy_lang::regex::Regex;
use hierarchy_lang::witnesses;
use hierarchy_lint::diagnostic::{is_clean, json_escape, report_to_json};
use hierarchy_lint::registry::CATALOGUE;
use hierarchy_lint::{
    audit_suite, lint_abstract_program, lint_finitary, lint_formula, lint_regex, lint_system,
    AuditOptions, Diagnostic,
};
use hierarchy_logic::ast::Formula;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.iter().map(String::as_str);
    match rest.next() {
        Some("rules") => cmd_rules(rest.collect()),
        Some("formula") => cmd_formula(rest.collect()),
        Some("regex") => cmd_regex(rest.collect()),
        Some("program" | "fts") => cmd_program(rest.collect()),
        Some("examples") => cmd_examples(rest.collect()),
        Some("audit") => cmd_audit(rest.collect()),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
    }
}

const USAGE: &str = "\
spec-lint: static analysis for hierarchy specifications

USAGE:
  spec-lint rules [--json]               list the rule catalogue
  spec-lint formula [OPTS] \"<formula>\"…  lint one or more temporal formulas
  spec-lint regex [OPTS] \"<pattern>\"…    lint one or more regular expressions
  spec-lint program [OPTS] [NAME]…       lint built-in programs (syntactic +
                                         invariant-backed semantic rules);
                                         default: the whole catalogue
                                         (peterson, mux-sem, mux-sem-weak,
                                         token-ring, token-ring-stalled,
                                         mux-sem-n4, token-ring-n4,
                                         dining-phil-3); `fts` is an alias
  spec-lint program --list [--json]      enumerate the program catalogue
                                         (name, locations, variables, domain
                                         sizes, fairness) without linting
  spec-lint examples [--json] [--jobs N] lint the paper's running examples
  spec-lint audit [OPTS] \"<member>\"…     audit a whole suite across members:
                                         subsumption lattice, SUITE001-005
                                         (redundancy, duplicates, conflicts,
                                         class overkill, dead propositions).
                                         Members are temporal formulas, or
                                         paper-notation operator properties
                                         A:/E:/R:/P: followed by a regex
                                         (e.g. \"A: a a* b*\")

OPTS:
  --letters a,b,c    plain alphabet (default: a,b)
  --props p,q        valuation alphabet over propositions
  --jobs N           lint artifacts on N worker threads (default: the
                     machine's cores, since one-shot work is cold)
  --cap N            audit only: state cap for the suite-conjunction checks
                     behind SUITE001/SUITE004 (default 4096, 0 disables)
  --json             machine-readable output

Exit status: 0 clean, 1 findings at warning level or above, 2 usage error.
";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("spec-lint: {message}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Shared flags of the linting subcommands.
struct Opts {
    json: bool,
    alphabet: Alphabet,
    jobs: usize,
    positional: Vec<String>,
}

fn parse_opts(args: Vec<&str>) -> Result<Opts, String> {
    let mut json = false;
    let mut alphabet: Option<Alphabet> = None;
    let mut jobs: Option<usize> = None;
    let mut positional = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg {
            "--json" => json = true,
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a thread count")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--jobs needs a positive integer, got {value:?}"))?;
                if n == 0 {
                    return Err("--jobs needs a positive integer".into());
                }
                jobs = Some(n);
            }
            "--letters" | "--props" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a comma-separated value"))?;
                let names: Vec<&str> = value.split(',').filter(|s| !s.is_empty()).collect();
                let sigma = if arg == "--letters" {
                    Alphabet::new(names)
                } else {
                    Alphabet::of_propositions(names)
                }
                .map_err(|e| e.to_string())?;
                alphabet = Some(sigma);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown option {arg:?}")),
            _ => positional.push(arg.to_string()),
        }
    }
    Ok(Opts {
        json,
        alphabet: match alphabet {
            Some(sigma) => sigma,
            None => Alphabet::new(["a", "b"]).map_err(|e| e.to_string())?,
        },
        jobs: jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        positional,
    })
}

fn cmd_rules(args: Vec<&str>) -> ExitCode {
    let json = args.contains(&"--json");
    if args.iter().any(|a| *a != "--json") {
        return usage_error("rules takes only --json");
    }
    if json {
        let mut out = String::from("[");
        for (i, r) in CATALOGUE.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"code\": \"{}\", \"name\": \"{}\", \"layer\": \"{}\", \
                 \"severity\": \"{}\", \"summary\": \"{}\"}}",
                r.code,
                r.name,
                r.layer,
                r.severity,
                json_escape(r.summary)
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        for r in CATALOGUE {
            println!(
                "{:<9} {:<8} {:<28} {}",
                r.code,
                r.severity.to_string(),
                r.name,
                r.summary
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_formula(args: Vec<&str>) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if opts.positional.is_empty() {
        return usage_error("formula takes one or more formula arguments");
    }
    // Parse everything up front (fail fast with exit 2), then fan the
    // semantic lints out across the worker pool.
    let mut formulas = Vec::with_capacity(opts.positional.len());
    for src in &opts.positional {
        match Formula::parse(&opts.alphabet, src) {
            Ok(f) => formulas.push(f),
            Err(e) => {
                eprintln!("spec-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let reports = par::map_with(opts.jobs, &formulas, |f| lint_formula(&opts.alphabet, f));
    let suite: Vec<(String, Vec<Diagnostic>)> =
        opts.positional.iter().cloned().zip(reports).collect();
    report(&suite, opts.json)
}

fn cmd_regex(args: Vec<&str>) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if opts.positional.is_empty() {
        return usage_error("regex takes one or more pattern arguments");
    }
    let mut regexes = Vec::with_capacity(opts.positional.len());
    for pattern in &opts.positional {
        match Regex::parse(&opts.alphabet, pattern) {
            Ok(r) => regexes.push(r),
            Err(e) => {
                eprintln!("spec-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let reports = par::map_with(opts.jobs, &regexes, |regex| {
        let mut diags = lint_regex(regex);
        diags.extend(lint_finitary(&FinitaryProperty::from_regex(
            &opts.alphabet,
            regex,
        )));
        diags
    });
    let suite: Vec<(String, Vec<Diagnostic>)> =
        opts.positional.iter().cloned().zip(reports).collect();
    report(&suite, opts.json)
}

/// The built-in declarative programs `spec-lint program` knows by name
/// (the shared catalogue, so the CLI and the classification daemon agree
/// on names).
fn program_catalogue() -> Vec<(&'static str, absint::Program)> {
    absint::catalogue()
}

/// `spec-lint program --list`: enumerates the catalogue without linting.
fn list_programs(json: bool) -> ExitCode {
    let catalogue = program_catalogue();
    if json {
        let mut out = String::from("[");
        for (i, (name, prog)) in catalogue.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let vars: Vec<String> = prog
                .var_names
                .iter()
                .zip(&prog.domains)
                .map(|(n, d)| format!("{{\"name\": \"{}\", \"domain\": {d}}}", json_escape(n)))
                .collect();
            let fair = |f: Fairness| prog.commands.iter().filter(|c| c.fairness == f).count();
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"locations\": {}, \"variables\": [{}], \
                 \"commands\": {}, \"fairness\": {{\"weak\": {}, \"strong\": {}, \
                 \"none\": {}}}}}",
                json_escape(name),
                prog.num_locations(),
                vars.join(", "),
                prog.commands.len(),
                fair(Fairness::Weak),
                fair(Fairness::Strong),
                fair(Fairness::None),
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        for (name, prog) in &catalogue {
            let vars: Vec<String> = prog
                .var_names
                .iter()
                .zip(&prog.domains)
                .map(|(n, d)| format!("{n}:{d}"))
                .collect();
            let fair: Vec<String> = [Fairness::Weak, Fairness::Strong, Fairness::None]
                .iter()
                .map(|&f| {
                    let k = prog.commands.iter().filter(|c| c.fairness == f).count();
                    let label = match f {
                        Fairness::Weak => "weak",
                        Fairness::Strong => "strong",
                        Fairness::None => "unfair",
                    };
                    format!("{k} {label}")
                })
                .collect();
            println!(
                "{:<20} {:>2} locations  {:>2} commands ({})  vars: {}",
                name,
                prog.num_locations(),
                prog.commands.len(),
                fair.join(", "),
                vars.join(" "),
            );
        }
    }
    ExitCode::SUCCESS
}

/// Lints declarative programs from the built-in catalogue with
/// [`lint_catalogue_program`].
fn cmd_program(args: Vec<&str>) -> ExitCode {
    // `--list` is not a linting option, so strip it before parse_opts
    // (which rejects unknown `--` flags).
    let list = args.contains(&"--list");
    let args: Vec<&str> = args.into_iter().filter(|a| *a != "--list").collect();
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if list {
        if !opts.positional.is_empty() {
            return usage_error("program --list takes no program names");
        }
        return list_programs(opts.json);
    }
    let catalogue = program_catalogue();
    let selected: Vec<(String, absint::Program)> = if opts.positional.is_empty() {
        catalogue
            .into_iter()
            .map(|(n, p)| (n.to_string(), p))
            .collect()
    } else {
        let mut chosen = Vec::new();
        for name in &opts.positional {
            match catalogue.iter().find(|(n, _)| n == name) {
                Some((n, p)) => chosen.push((n.to_string(), p.clone())),
                None => {
                    let known: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
                    return usage_error(&format!(
                        "unknown program {name:?} (known: {})",
                        known.join(", ")
                    ));
                }
            }
        }
        chosen
    };
    let suite: Vec<(String, Vec<Diagnostic>)> =
        par::map_with(opts.jobs, &selected, |(name, prog)| {
            (name.clone(), lint_catalogue_program(prog))
        });
    report(&suite, opts.json)
}

/// Lints one catalogue program: the semantic invariant-backed rules
/// (`FTS001`/`FTS003`–`FTS008` via [`lint_abstract_program`]), then the
/// system rules on its enumerated transition system.
fn lint_catalogue_program(prog: &absint::Program) -> Vec<Diagnostic> {
    // Built-in programs always validate and enumerate.
    let mut diags = lint_abstract_program(prog).expect("catalogue program");
    let sigma = absint::observation_alphabet();
    let ts = prog.to_builder(&sigma).build().expect("catalogue program");
    diags.extend(lint_system(&ts));
    diags
}

/// Lints the paper's running examples end to end: the mutual-exclusion
/// specifications, a zoo of hierarchy formulas, the witness automata of
/// each class, the finitary examples, and the example programs.
fn cmd_examples(args: Vec<&str>) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if !opts.positional.is_empty() {
        return usage_error("examples takes only --json and --jobs");
    }
    // Each entry is a named deferred lint; the whole suite fans out
    // across the worker pool below.
    type LintJob = (String, Box<dyn Fn() -> Vec<Diagnostic> + Sync>);
    let mut jobs: Vec<LintJob> = Vec::new();

    // Temporal formulas over a plain three-letter alphabet. (Over just
    // {a, b} the negation of one letter IS the other, which makes several
    // textbook formulas trivially valid or vacuous — real findings, but
    // not what a showcase of healthy specifications should contain.)
    let abc = Alphabet::new(["a", "b", "c"]).expect("alphabet");
    for src in [
        "G a",
        "F a",
        "G F a",
        "F G a",
        "G a | F b",
        "G F a | F G b",
        "G (a -> F b)",
        "a U b",
        "G (b -> O a)",
    ] {
        let f = Formula::parse(&abc, src).expect(src);
        let sigma = abc.clone();
        jobs.push((
            format!("formula {src:?}"),
            Box::new(move || lint_formula(&sigma, &f)),
        ));
    }

    // Mutual-exclusion specifications over the program propositions.
    let props = Alphabet::of_propositions(["c1", "c2", "t1", "t2"]).expect("alphabet");
    for src in ["G !(c1 & c2)", "G (t1 -> F c1)", "G (t2 -> F c2)"] {
        let f = Formula::parse(&props, src).expect(src);
        let sigma = props.clone();
        jobs.push((
            format!("mutex spec {src:?}"),
            Box::new(move || lint_formula(&sigma, &f)),
        ));
    }

    // The witness automata of every class of the hierarchy.
    let automata: Vec<(String, OmegaAutomaton)> = vec![
        ("witness safety".into(), witnesses::safety()),
        ("witness guarantee".into(), witnesses::guarantee()),
        ("witness recurrence".into(), witnesses::recurrence()),
        ("witness persistence".into(), witnesses::persistence()),
        ("witness obligation".into(), witnesses::obligation_simple()),
        (
            "witness obligation(2)".into(),
            witnesses::obligation_witness(2),
        ),
        (
            "witness reactivity(2)".into(),
            witnesses::reactivity_witness(2),
        ),
    ];
    for (name, aut) in automata {
        jobs.push((name, Box::new(move || hierarchy_lint::lint_automaton(&aut))));
    }

    // Finitary examples, including the paper's Φ = a a* b*.
    let ab = Alphabet::new(["a", "b"]).expect("alphabet");
    for pattern in ["a a* b*", "a* b", "(a b) + a"] {
        let regex = Regex::parse(&ab, pattern).expect(pattern);
        let sigma = ab.clone();
        jobs.push((
            format!("regex {pattern:?}"),
            Box::new(move || {
                let mut diags = lint_regex(&regex);
                diags.extend(lint_finitary(&FinitaryProperty::from_regex(&sigma, &regex)));
                diags
            }),
        ));
    }

    // The paper's three programs, linted as `spec-lint program` does.
    for (name, prog) in program_catalogue() {
        if matches!(name, "peterson" | "mux-sem" | "token-ring") {
            jobs.push((
                format!("program {name}"),
                Box::new(move || lint_catalogue_program(&prog)),
            ));
        }
    }

    let suite: Vec<(String, Vec<Diagnostic>)> =
        par::map_with(opts.jobs, &jobs, |(name, job)| (name.clone(), job()));
    report(&suite, opts.json)
}

/// Compiles one `spec-lint audit` member: a temporal formula, or a
/// paper-notation operator property `A:`/`E:`/`R:`/`P:` over a regex.
fn compile_member(sigma: &Alphabet, src: &str) -> Result<OmegaAutomaton, String> {
    if let Some((op, rest)) = src.split_once(':') {
        let op = op.trim();
        if matches!(op, "A" | "E" | "R" | "P") {
            let phi = FinitaryProperty::from_regex(
                sigma,
                &Regex::parse(sigma, rest.trim()).map_err(|e| format!("{src:?}: {e}"))?,
            );
            return Ok(match op {
                "A" => hierarchy_lang::operators::a(&phi),
                "E" => hierarchy_lang::operators::e(&phi),
                "R" => hierarchy_lang::operators::r(&phi),
                _ => hierarchy_lang::operators::p(&phi),
            });
        }
    }
    let f = Formula::parse(sigma, src).map_err(|e| format!("{src:?}: {e}"))?;
    hierarchy_logic::to_automaton::compile_over(sigma, &f).map_err(|e| format!("{src:?}: {e}"))
}

/// `spec-lint audit`: the whole-suite static analysis of
/// [`hierarchy_lint::audit_suite`] over members given on the command
/// line.
fn cmd_audit(args: Vec<&str>) -> ExitCode {
    // `--cap` is audit-specific, so strip it before parse_opts (which
    // rejects unknown `--` flags).
    let mut cap: usize = AuditOptions::default().conjunction_cap;
    let mut filtered = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--cap" {
            let value = match it.next() {
                Some(v) => v,
                None => return usage_error("--cap needs a state count"),
            };
            cap = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    return usage_error(&format!(
                        "--cap needs a non-negative integer, got {value:?}"
                    ))
                }
            };
        } else {
            filtered.push(arg);
        }
    }
    let opts = match parse_opts(filtered) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if opts.positional.len() < 2 {
        return usage_error("audit takes two or more suite members");
    }
    let mut members = Vec::with_capacity(opts.positional.len());
    for src in &opts.positional {
        match compile_member(&opts.alphabet, src) {
            Ok(aut) => members.push((src.clone(), aut)),
            Err(e) => {
                eprintln!("spec-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let audit = match audit_suite(
        &members,
        &AuditOptions {
            jobs: opts.jobs,
            conjunction_cap: cap,
        },
    ) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spec-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", audit.to_json());
    } else {
        print_audit(&audit);
    }
    if audit.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Human-readable audit report: coverage histogram, dominance edges,
/// findings, prefilter summary.
fn print_audit(audit: &hierarchy_lint::SuiteAudit) {
    let coverage: Vec<String> = audit
        .histogram
        .iter()
        .map(|(class, count)| format!("{class} {count}"))
        .collect();
    println!("hierarchy coverage: {}", coverage.join(", "));
    for &(a, b) in &audit.dominance {
        println!(
            "dominance: {:?} \u{228a} {:?}",
            audit.names[a], audit.names[b]
        );
    }
    let mut findings = 0usize;
    for (name, diags) in audit.names.iter().zip(&audit.member_diagnostics) {
        for d in diags {
            findings += 1;
            println!("{name}: {d}");
        }
    }
    for d in &audit.suite_diagnostics {
        findings += 1;
        println!("suite: {d}");
    }
    let n = audit.names.len();
    println!(
        "{n} member{} audited, {findings} finding{}{}; prefilter decided {}/{} pairs, \
         lasso bank settled {} quer{}, {} oracle call{}{}",
        if n == 1 { "" } else { "s" },
        if findings == 1 { "" } else { "s" },
        if audit.is_clean() { " (clean)" } else { "" },
        audit.prefilter.hash_decided,
        audit.prefilter.pairs,
        audit.prefilter.lasso_decided,
        if audit.prefilter.lasso_decided == 1 {
            "y"
        } else {
            "ies"
        },
        audit.prefilter.oracle_calls,
        if audit.prefilter.oracle_calls == 1 {
            ""
        } else {
            "s"
        },
        if audit.deep_checks_skipped > 0 {
            format!(
                " ({} deep check{} skipped at the state cap)",
                audit.deep_checks_skipped,
                if audit.deep_checks_skipped == 1 {
                    ""
                } else {
                    "s"
                }
            )
        } else {
            String::new()
        },
    );
}

/// Prints a suite report and computes the exit code.
fn report(suite: &[(String, Vec<Diagnostic>)], json: bool) -> ExitCode {
    let clean = suite.iter().all(|(_, diags)| is_clean(diags));
    if json {
        let mut out = String::from("[");
        for (i, (name, diags)) in suite.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"artifact\": \"{}\", \"clean\": {}, \"diagnostics\": {}}}",
                json_escape(name),
                is_clean(diags),
                report_to_json(diags)
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        let mut findings = 0usize;
        for (name, diags) in suite {
            if suite.len() > 1 && diags.is_empty() {
                continue;
            }
            if diags.is_empty() {
                println!("{name}: clean");
            }
            for d in diags {
                findings += 1;
                println!("{name}: {d}");
            }
        }
        let artifacts = suite.len();
        println!(
            "{artifacts} artifact{} checked, {findings} finding{}{}",
            if artifacts == 1 { "" } else { "s" },
            if findings == 1 { "" } else { "s" },
            if clean { " (clean)" } else { "" }
        );
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
