//! `perfbench` — the repository benchmark. It drives the real
//! `spec-serve` and `spec-lint` binaries, checks every verdict against
//! independent references, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload warm-query|audit-cli --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a timed run;
//! `--trace 1` replays a fixed script through the daemon (or CLI) and
//! in-process through the layers, and prints the per-layer metrics.
//! `--smoke` shrinks every workload to seconds but keeps the full
//! correctness gate. See `perfbench/NOTES.md`.

mod audit;
mod gen;
mod replay;
mod serve;
mod stats;
mod trace;
mod wire;

use hierarchy_serve::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The contract's limit on one run, less a margin.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub bin_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload warm-query|audit-cli --seed N \
                     --seconds S --trace 0|1 --bin-dir DIR [--smoke]";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            bin_dir: PathBuf::from("target/release"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad)?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
                "--trace" => args.trace = value == "1",
                "--bin-dir" => args.bin_dir = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !["warm-query", "audit-cli"].contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if args.smoke {
            args.seconds = args.seconds.min(2.0);
        }
        Ok(args)
    }
}

/// One run's outcome: the contract's four result keys, plus the
/// extra figures printed above the result line.
pub struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    inconsistencies: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    samples: Vec<(&'static str, usize)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, mismatches: Vec<String>) -> Report {
        Report {
            attempted,
            failed,
            mismatches,
            inconsistencies: Vec::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn sample(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn consistency(&mut self, problems: Vec<String>) {
        self.inconsistencies.extend(problems);
    }

    pub fn trace_metrics(&mut self, rows: Vec<(String, f64, &'static str)>) {
        self.metrics.extend(rows);
    }

    fn print(self, args: &Args) -> ExitCode {
        for m in self.mismatches.iter().take(5) {
            eprintln!("perfbench: wrong verdict: {m}");
        }
        for m in &self.inconsistencies {
            eprintln!("perfbench: replay inconsistency: {m}");
        }
        let correct = self.mismatches.is_empty() && self.inconsistencies.is_empty();
        let provenance = Json::obj([
            ("workload", Json::str(args.workload.clone())),
            ("seed", Json::Int(args.seed as i64)),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            ("host_cores", Json::Int(host_cores() as i64)),
            ("git_rev", Json::str(git_rev())),
            (
                "profile",
                Json::str(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            (
                "samples",
                Json::obj(self.samples.iter().map(|&(k, n)| (k, Json::Int(n as i64)))),
            ),
        ]);
        println!("provenance {provenance}");
        for line in &self.notes {
            println!("note {line}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        if !args.trace {
            println!("metric failed_frac {failed_frac} ratio");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let metrics = Json::Obj(
            self.metrics
                .into_iter()
                .map(|(name, value, unit)| {
                    let value = if value.is_finite() { value } else { 0.0 };
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        );
        let result = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ]);
        println!("{result}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The code being measured: `<commit>+src-<digest>` in a git checkout,
/// `src-<digest>` elsewhere. The digest (FNV-1a over the sorted paths
/// and contents of every file under `crates/`) tells a dirty tree from
/// its commit.
fn git_rev() -> String {
    match head_commit() {
        Some(commit) => format!("{commit}+{}", source_digest()),
        None => source_digest(),
    }
}

/// `.git/HEAD` resolved through a loose ref or `.git/packed-refs`.
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (commit, r) = l.split_once(' ')?;
        (r == name).then(|| commit.to_string())
    })
}

fn source_digest() -> String {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn main() -> ExitCode {
    gen::install_panic_filter();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let outcome = match (args.workload.as_str(), args.trace) {
        ("audit-cli", false) => audit::run(&args),
        ("audit-cli", true) => audit::run_traced(&args),
        (_, false) => serve::run(&args),
        (_, true) => serve::run_traced(&args),
    };
    match outcome {
        Ok(report) => report.print(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
