//! Process-level readings from `/proc` and the run's provenance, with std
//! only.

use std::path::Path;
use std::process::Command;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// is 100 on every mainstream configuration.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, live or exited, or `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where a result came from: hardware, toolchain and source revision.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub cpu_model: String,
    pub nproc: usize,
    pub git_commit: String,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Only a repository rooted in the working directory is consulted,
        // so the reading never leaves the checkout.
        let git_commit = if Path::new(".git").exists() {
            command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
        } else {
            None
        };
        Provenance {
            cpu_model,
            nproc,
            git_commit: git_commit.unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if !Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
    }
}
