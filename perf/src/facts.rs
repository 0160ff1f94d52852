//! Run facts recorded with every result: the machine, the toolchain, the
//! source revision, and the run's own settings.

use std::path::Path;
use std::process::Command;

/// Cores this process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| first_line(&s))
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| first_line(&String::from_utf8_lossy(&o.stdout)),
        )
}

/// The commit `HEAD` names, read from `.git` without running git; a
/// checkout without history reports `unknown`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = first_line(&head);
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).map_or_else(
            |_| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..40.min(l.len())].to_string())
                    })
                    .unwrap_or_else(|| "unknown".into())
            },
            |s| first_line(&s),
        ),
        None => head,
    }
}

/// Aggregate CPU time counters from `/proc/stat`: `(steal, total)` in
/// clock ticks, or `None` where unavailable.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor took from this machine between two
/// [`cpu_ticks`] readings: a validity check on the timings of a run.
#[must_use]
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Machine and toolchain facts, as `(key, value)` pairs.
#[must_use]
pub fn machine(root: &Path) -> Vec<(String, String)> {
    vec![
        ("nproc".into(), nproc().to_string()),
        ("cpu".into(), cpu_model()),
        ("kernel".into(), kernel()),
        ("rustc".into(), rustc_version()),
        ("git_commit".into(), git_commit(root)),
    ]
}
