//! In-memory spans and counters for the traced replay.
//!
//! A span named `<layer>.<call>` wraps one call into a layer's public
//! function. Durations are kept in memory and summarized when the run
//! ends as `.calls`, `.busy_ms`, `.p50_us` and `.p99_us`.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every span the replay records, in report order. Each is reported
/// even when a workload never enters it (as zero calls), so every
/// traced run prints the same metric set.
pub const SPANS: &[&str] = &[
    "serve.json.parse",
    "serve.json.serialize",
    "serve.store.ingest",
    "serve.store.resolve",
    "automata.hoa.parse",
    "logic.compile",
    "lang.compile",
    "automata.minimize",
    "automata.canonical.hash",
    "automata.analysis.classify",
    "automata.inclusion.include",
    "lint.automaton",
    "lint.suite.audit",
    "fts.check",
];

/// Every counter the traced run reports, with its unit, in report
/// order. Counters a workload never touches read 0.
pub const COUNTERS: &[(&str, &str)] = &[
    ("serve.json.bytes_in", "bytes"),
    ("serve.json.bytes_out", "bytes"),
    ("serve.store.ingests", "count"),
    ("serve.store.dedup_hits", "count"),
    ("serve.store.hits", "count"),
    ("serve.store.misses", "count"),
    ("serve.store.evictions", "count"),
    ("serve.store.entries", "count"),
    ("serve.store.dedup_ratio", "ratio"),
    ("serve.store.sweep_calls_per_ingest", "calls"),
    ("automata.minimize.state_ratio", "ratio"),
    ("automata.analysis.scc_passes", "count"),
    ("automata.analysis.scc_state_visits", "count"),
    ("automata.analysis.scc_hits", "count"),
    ("automata.analysis.products_built", "count"),
    ("automata.analysis.product_hits", "count"),
    ("automata.inclusion.checks", "count"),
    ("automata.inclusion.hits", "count"),
    ("automata.inclusion.memo_hit_ratio", "ratio"),
    ("lint.automaton.diagnostics", "count"),
    ("lint.suite.pairs", "count"),
    ("lint.suite.hash_decided", "count"),
    ("lint.suite.oracle_calls", "count"),
    ("lint.suite.hash_decided_ratio", "ratio"),
    ("lint.suite.deep_checks_skipped", "count"),
    ("fts.product_states", "count"),
    ("fts.discharge_ratio", "ratio"),
    ("trace.request_ms_p50", "ms"),
];

#[derive(Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f` inside the span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        debug_assert!(SPANS.contains(&name), "unknown span {name}");
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.spans.entry(name).or_default().push(us);
        out
    }

    pub fn add(&mut self, counter: &'static str, by: f64) {
        *self.counters.entry(counter).or_default() += by;
    }

    pub fn set(&mut self, counter: &'static str, value: f64) {
        self.counters.insert(counter, value);
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` rows: four per span, then every counter of
    /// [`COUNTERS`].
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        for &name in SPANS {
            let empty = Vec::new();
            let us = self.spans.get(name).unwrap_or(&empty);
            out.push((format!("{name}.calls"), us.len() as f64, "count"));
            out.push((
                format!("{name}.busy_ms"),
                us.iter().sum::<f64>() / 1e3 + 0.0,
                "ms",
            ));
            out.push((format!("{name}.p50_us"), percentile(us, 0.5), "us"));
            out.push((format!("{name}.p99_us"), percentile(us, 0.99), "us"));
        }
        for &(name, unit) in COUNTERS {
            out.push((name.to_string(), self.counter(name), unit));
        }
        out
    }
}
