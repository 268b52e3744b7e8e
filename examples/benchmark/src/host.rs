//! Host-side helpers: process CPU time, peak memory from `/proc`,
//! the checkout's commit, FNV-64 digests, order statistics, a snapshot
//! of the metrics registry, and a scratch directory inside the checkout.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use unsync_sim::metrics::{self, MetricValue};

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPU_CLOCK: std::ffi::c_int = 2;

/// User plus system CPU seconds of the whole process, all threads, at
/// nanosecond resolution (`/proc/self/stat` rounds to 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the current directory, read from `.git`
/// without spawning git; `"unknown"` outside a git checkout.
pub fn git_head() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The FNV-64 digest of `lines` joined by newlines.
pub fn digest_lines(lines: &[String]) -> String {
    let mut h = Fnv64::new();
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            h.update(b"\n");
        }
        h.update(line.as_bytes());
    }
    h.hex()
}

/// The `q`-quantile of `values` by linear interpolation (0.0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Counter values and histogram `(count, sum)` pairs of the global
/// metrics registry at one instant.
#[derive(Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let mut s = Snapshot::default();
        for (name, value) in metrics::global().snapshot() {
            match value {
                MetricValue::Counter(n) => {
                    s.counters.insert(name, n);
                }
                MetricValue::Histogram { count, sum, .. } => {
                    s.histograms.insert(name, (count, sum));
                }
                MetricValue::Gauge(_) => {}
            }
        }
        s
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, &(c, s))| {
                let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or((0, 0.0));
                (k.clone(), (c.saturating_sub(c0), s - s0))
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name ends with `suffix`.
    pub fn counters_ending(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Observation count of every histogram whose name ends with `suffix`.
    pub fn histogram_counts_ending(&self, suffix: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, (c, _))| c)
            .sum()
    }

    /// Summed observations of every histogram whose name starts with `prefix`.
    pub fn histogram_sum_starting(&self, prefix: &str) -> f64 {
        self.histograms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, (_, s))| s)
            .sum()
    }
}

/// A directory under the checkout for the run's JSONL files, removed
/// (with its parent, when that is left empty) on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> Result<ScratchDir, String> {
        let path = Path::new(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}
