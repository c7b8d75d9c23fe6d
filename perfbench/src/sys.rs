//! Process and host counters read from `/proc`, and run provenance.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A CPU clock of `clock_gettime(2)`, in seconds. The standard library
/// exposes no CPU clock, and `/proc` reports CPU time in 10 ms ticks or
/// not at all for a thread that is still running.
fn cpu_clock_s(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock` is one of
    // the two fixed Linux clock ids above; the call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds used by every thread of the process so far, exited
/// threads included.
pub fn process_cpu_s() -> Option<f64> {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> Option<f64> {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Resident memory of the process, in MiB.
pub fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host's cumulative CPU ticks: `(stolen, total)`.
#[derive(Clone, Copy)]
pub struct HostTicks(u64, u64);

impl HostTicks {
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
        let ticks: Vec<u64> = cpu
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user time.
        let total = ticks.iter().take(8).sum();
        Some(Self(*ticks.get(7)?, total))
    }

    /// Share of the host's CPU ticks stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(self, earlier: Self) -> f64 {
        let total = self.1.saturating_sub(earlier.1);
        self.0.saturating_sub(earlier.0) as f64 / total.max(1) as f64
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, when the working directory is a git checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the paths and bytes of the program's sources (`crates/`,
/// `src/` and the root manifests), identifying the code under test when
/// the checkout carries no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect(Path::new(dir), &mut files);
    }
    files.sort();
    files.extend(["Cargo.toml", "Cargo.lock"].map(Into::into));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    format!("{hash:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
