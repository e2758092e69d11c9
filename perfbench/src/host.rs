//! Host fingerprint printed with every result, so numbers from different
//! hosts are never compared: the engine's `auto_parallelism()`, the
//! visible CPU count, a fixed per-core calibration loop and the commit.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 20_000_000;

#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub auto_parallelism: usize,
    pub nproc: usize,
    /// Median nanoseconds per iteration of a fixed xorshift loop on one
    /// core.
    pub calibration_ns_per_iter: f64,
    pub commit: String,
}

impl Fingerprint {
    pub fn take() -> Fingerprint {
        Fingerprint {
            auto_parallelism: perm_exec::auto_parallelism(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            calibration_ns_per_iter: calibrate(),
            commit: git_commit(Path::new(".")),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"auto_parallelism\": {}, \"nproc\": {}, \"calibration_ns_per_iter\": {:.4}, \"commit\": \"{}\"}}",
            self.auto_parallelism, self.nproc, self.calibration_ns_per_iter, self.commit
        )
    }
}

fn calibrate() -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..CALIBRATION_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / CALIBRATION_ITERS as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[1]
}

/// The CPUs the calling thread may run on, as `Cpus_allowed_list` in
/// `/proc/thread-self/status` gives them (`0-1`, `0,2-3`).
fn allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// The CPUs the calling thread may run on; empty when unknown.
pub fn allowed_cpus() -> Vec<usize> {
    allowed_list().map_or_else(Vec::new, |l| parse_cpu_list(&l))
}

/// The CPUs of a kernel CPU list such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (a, b) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(a), Ok(b)) = (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
            cpus.extend(a..=b);
        }
    }
    cpus
}

/// Move the calling thread onto `cpu` and leave it free to run on every
/// CPU it could before; `false` when that is not possible here.
///
/// The vCPUs of a shared host can run at very different speeds (one ran
/// a fixed loop 1.8 times slower than the other on the development
/// host, and which one is slow changes), and the kernel keeps a busy
/// thread on the CPU it runs on. A client that stays put measures
/// whichever CPU it landed on; one moved between them every slice
/// measures all of them in every run. The thread is pinned to `cpu` with
/// `taskset` and unpinned at once, so it keeps running there without a
/// narrower CPU set: the engine sizes its parallelism from the calling
/// thread's CPU set, and threads inherit it.
pub fn move_current_thread(cpu: usize) -> bool {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|l| l.file_name()?.to_str().map(str::to_string))
    else {
        return false;
    };
    let Some(allowed) = allowed_list() else {
        return false;
    };
    let taskset = |list: &str| {
        std::process::Command::new("taskset")
            .args(["-p", "-c", list, &tid])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    };
    let moved = taskset(&cpu.to_string());
    taskset(&allowed) && moved
}

/// The commit checked out in `root`, read from `.git` without running git
/// (which would search parent directories); `unknown` outside a git
/// checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn host_cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            let v: Vec<u64> = line
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            Some((v.get(7).copied().unwrap_or(0), v.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3,7"), vec![0, 2, 3, 7]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }
}
