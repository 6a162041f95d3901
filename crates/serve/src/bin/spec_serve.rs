//! `spec-serve` — the hierarchy-as-a-service daemon.
//!
//! Speaks line-delimited JSON-RPC on stdin/stdout; with `--listen ADDR`
//! it additionally accepts TCP connections sharing the same artifact
//! store. Exits 0 when stdin reaches end-of-input, 2 on usage errors.
//!
//! ```text
//! spec-serve [--capacity N] [--jobs N] [--listen ADDR]
//! ```

use hierarchy_serve::Service;
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: spec-serve [--capacity N] [--jobs N] [--listen ADDR]

A persistent classification daemon for the Manna-Pnueli hierarchy.
Reads one JSON-RPC request per line from stdin, writes one response
per line to stdout, and exits when stdin closes.

options:
  --capacity N   keep at most N artifacts live (LRU eviction; default 128)
  --jobs N       worker threads for audit and the batch endpoints
                 (default 1: a warm batch item takes microseconds,
                 less than spawning a worker)
  --listen ADDR  additionally accept TCP connections on ADDR
                 (e.g. 127.0.0.1:0 for an ephemeral port; the bound
                 address is announced on stdout as a \"listening\" event)
  --help         print this help

methods: ingest, classify, lint, include, check, audit, stats, evict,
         classify_batch, lint_batch";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("spec-serve: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut capacity: usize = 128;
    let mut jobs: usize = 1;
    let mut listen_addr: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--capacity" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => capacity = n,
                _ => return usage_error("--capacity needs a positive integer"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return usage_error("--jobs needs a positive integer"),
            },
            "--listen" => match args.next() {
                Some(addr) if !addr.is_empty() => listen_addr = Some(addr),
                _ => return usage_error("--listen needs an address"),
            },
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let service = Arc::new(Service::new(capacity, jobs));

    if let Some(addr) = listen_addr {
        let listener = match TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => return usage_error(&format!("cannot listen on {addr}: {e}")),
        };
        // Announce the actual address (ephemeral ports resolve here) so
        // clients can connect without racing the bind.
        let local = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let announce = format!("{{\"event\":\"listening\",\"addr\":\"{local}\"}}\n");
        if out
            .write_all(announce.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::FAILURE;
        }
        drop(out);
        let tcp_service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = tcp_service.listen(listener);
        });
    }

    // Serve stdio on the main thread; EOF on stdin is the shutdown
    // signal (detached TCP connections die with the process).
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match service.serve(stdin.lock(), &mut stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}
