//! The programs under test, seen from outside: a `spec-serve` child on
//! an ephemeral TCP port, line-delimited JSON-RPC connections to it,
//! and zero-dependency resource readings from `/proc`.

use hierarchy_serve::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (the
/// fixed `USER_HZ` of Linux).
const TICKS_PER_S: f64 = 100.0;

pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
}

impl Daemon {
    /// Spawns `spec-serve --listen 127.0.0.1:0` and waits for its
    /// `listening` announcement.
    pub fn spawn(bin_dir: &Path, capacity: usize, jobs: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin_dir.join("spec-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(["--capacity", &capacity.to_string()])
            .args(["--jobs", &jobs.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start spec-serve: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("spec-serve announcement: {e}"))?;
        let mut daemon = Daemon {
            child,
            stdin,
            addr: String::new(),
        };
        daemon.addr = Json::parse(line.trim())
            .ok()
            .and_then(|v| v.get("addr").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| format!("spec-serve did not announce an address: {line:?}"))?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin (the daemon's shutdown signal) and waits for the
    /// exit, killing the process if it lingers.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.shutdown();
        }
    }
}

/// One client connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            buf: String::new(),
        })
    }

    /// Sends one request and returns the raw response line.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        quick_ack(&self.writer);
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(self.buf.trim_end())
    }
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Acknowledges the next response segment at once instead of after the
/// delayed-ACK timer. `spec-serve` writes a response and its newline in
/// two sends without `TCP_NODELAY`, so Nagle holds the newline until
/// the first segment is acknowledged; a client with delayed ACKs waits
/// about 40 ms per request for it (see NOTES.md). Linux clears the
/// flag as it goes, so it is set again before every read.
fn quick_ack(stream: &TcpStream) {
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: a valid socket descriptor and a 4-byte option value that
    // outlives the call.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

/// `VmHWM` (peak resident set) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The numeric fields of `/proc/<who>/stat` after the command name,
/// so index 0 is field 3 (`state`) of proc(5).
fn stat_fields(who: &str) -> Vec<u64> {
    let text = std::fs::read_to_string(format!("/proc/{who}/stat")).unwrap_or_default();
    let tail = text.rsplit_once(')').map_or("", |(_, t)| t);
    tail.split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect()
}

/// utime + stime of a process, in milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    let f = stat_fields(&pid.to_string());
    // Fields 14 and 15 of proc(5).
    (f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)) as f64 * 1e3 / TICKS_PER_S
}

/// cutime + cstime of this process (its reaped children), in
/// milliseconds.
pub fn children_cpu_ms() -> f64 {
    let f = stat_fields("self");
    // Fields 16 and 17 of proc(5).
    (f.get(13).copied().unwrap_or(0) + f.get(14).copied().unwrap_or(0)) as f64 * 1e3 / TICKS_PER_S
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of the largest reaped child, in MiB. A reaped
/// child's `/proc` entry is gone, so this is the one reading that
/// comes from `getrusage(RUSAGE_CHILDREN)` instead.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals and fourteen longs) and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
