//! `spec-lint` answers a formula or regex beyond its parser's bounds with
//! a usage error (exit 2) instead of overflowing its stack (exit 134).

use std::process::Command;

fn spec_lint(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_spec-lint"))
        .args(args)
        .output()
        .expect("run spec-lint")
        .status
        .code()
}

#[test]
fn inputs_beyond_the_parser_bounds_are_usage_errors() {
    let nested = |inner: &str, n: usize| format!("{}{inner}{}", "(".repeat(n), ")".repeat(n));
    let conjuncts = vec!["G F p"; 10_000].join(" & ");
    for args in [
        vec!["formula".to_string(), nested("a", 20_000)],
        vec![
            "formula".to_string(),
            "--props".to_string(),
            "p".to_string(),
            conjuncts,
        ],
        vec!["regex".to_string(), nested("a", 5_000)],
        vec!["audit".to_string(), nested("a", 20_000), "F a".to_string()],
    ] {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        assert_eq!(spec_lint(&args), Some(2), "spec-lint {}", args[0]);
    }
}
