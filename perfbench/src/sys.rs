//! Process and build facts read from the operating system and the
//! checkout: CPU time, peak memory and the run manifest.

use std::path::Path;

/// Kernel clock ticks per second of the `/proc/<pid>/stat` CPU counters
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: u64 = 100;

/// User plus system CPU time of the whole process, all threads (live and
/// joined) included, in ns: the `getrusage(RUSAGE_SELF)` counters, read
/// from `/proc/self/stat` at 10 ms resolution.
pub fn cpu_ns() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the name (whose own index is 2).
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
    };
    Ok((tick(11)? + tick(12)?) * (1_000_000_000 / USER_HZ))
}

/// Reset this process's peak resident set size (`VmHWM`) to its current
/// resident set size, so the next [`peak_rss_mib`] reads the peak since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (which would search parent directories); "unknown"
/// outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(&git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
            }),
    };
    rev.filter(|r| r.len() >= 12 && r.bytes().all(|b| b.is_ascii_hexdigit()))
        .map_or_else(|| "unknown".into(), |r| r[..12].to_string())
}

/// The x86-64 microarchitecture level the benchmark was compiled for
/// (the repository builds for `target-cpu=x86-64-v3`).
pub fn target_cpu() -> &'static str {
    if cfg!(all(
        target_feature = "avx2",
        target_feature = "fma",
        target_feature = "bmi2"
    )) {
        "x86-64-v3"
    } else if cfg!(target_feature = "sse4.2") {
        "x86-64-v2"
    } else {
        "baseline"
    }
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read() {
        let t0 = cpu_ns().expect("cpu counters");
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns().expect("cpu counters") >= t0);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }

    #[test]
    fn peak_rss_resets() {
        let _guard = crate::runner::PROCESS_STATE_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let high = peak_rss_mib().expect("VmHWM");
        drop(big);
        reset_peak_rss().expect("reset VmHWM");
        assert!(peak_rss_mib().expect("VmHWM") < high - 32.0);
    }
}
