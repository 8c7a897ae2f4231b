//! What `/proc` says about a process: CPU time, context switches, peak
//! resident set, and how busy the box is. Everything here is read from
//! outside the engine.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, every thread) this process has used, from
/// `/proc/self/stat`.
pub fn self_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    // The command name sits in parentheses and may hold spaces; the
    // numbered fields start after the last ')'. utime and stime are fields
    // 14 and 15, so 11 and 12 counting from the state field.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<f64>().expect("utime and stime are numbers"))
        .sum();
    ticks / USER_HZ
}

/// A `kB` line of `/proc/self/status`, in MiB.
fn self_status_mib(key: &str) -> f64 {
    let status =
        fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    let line = status.lines().find(|l| l.starts_with(key)).expect("status has the line");
    let kb: f64 =
        line[key.len()..].trim().trim_end_matches("kB").trim().parse().expect("a kB figure");
    kb / 1024.0
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn self_peak_rss_mib() -> f64 {
    self_status_mib("VmHWM:")
}

/// Resident set (`VmRSS`) of this process right now, MiB.
pub fn self_rss_mib() -> f64 {
    self_status_mib("VmRSS:")
}

/// Samples this process's resident set on a thread of its own until
/// finished.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    /// Start sampling every 20 ms.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut samples = vec![self_rss_mib()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                samples.push(self_rss_mib());
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stop; the mean of the samples, MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("rss sampler thread");
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Voluntary and involuntary context switches summed over every thread of
/// this process (the paper's Table I, measured without a tracer).
pub fn self_ctx_switches() -> (u64, u64) {
    let mut vol = 0;
    let mut nonvol = 0;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return (0, 0) };
    for task in tasks.flatten() {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else { continue };
        for line in status.lines() {
            if let Some(v) = line.strip_prefix("voluntary_ctxt_switches:") {
                vol += v.trim().parse::<u64>().unwrap_or(0);
            } else if let Some(v) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
                nonvol += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    (vol, nonvol)
}

/// One-minute load average, for the "box is busy" warning.
pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// First `model name` of `/proc/cpuinfo`, for the baseline's header.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Kernel release, for the baseline's header.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let before = self_cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(self_cpu_s() >= before);
        assert!(self_peak_rss_mib() >= self_rss_mib() && self_rss_mib() > 0.0);
        let sampler = RssSampler::start();
        std::thread::sleep(Duration::from_millis(50));
        assert!(sampler.finish() > 0.0);
        let (vol, nonvol) = self_ctx_switches();
        assert!(vol + nonvol > 0);
    }
}
