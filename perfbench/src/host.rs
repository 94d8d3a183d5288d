//! What the benchmark reads from the operating system: CPU time, peak
//! memory and a description of the host. Linux `/proc` only; no `libc`.

use std::time::{Duration, Instant};

/// Linux reports process times in ticks of `1/USER_HZ` seconds, and
/// `USER_HZ` is 100 on every architecture Linux supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of the whole process (all threads, dead ones
/// included) in seconds.
pub fn process_cpu_s() -> f64 {
    let (user, system) = process_user_and_system_s();
    user + system
}

/// The same, user and system time apart.
pub fn process_user_and_system_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() / TICKS_PER_SECOND, tick() / TICKS_PER_SECOND)
}

/// On-CPU time of the calling thread in seconds (nanosecond resolution,
/// from the scheduler's accounting).
pub fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    stat.split_whitespace().next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) / 1e9
}

/// Bytes this process has passed to `write` calls so far: everything the
/// product appended to its logs and stores.
pub fn written_bytes() -> f64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// A fixed pure-CPU kernel (about 100 ms on the host this was sized on).
/// Reported before and after the measured phase as a diagnostic: a reviewer
/// comparing two runs can see whether the host itself changed speed. It
/// normalises nothing.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..60_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(29);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Poll `done` until it holds, sleeping briefly between polls so the
/// background threads being waited for keep the second core.
pub fn poll_until(
    what: &str,
    timeout: Duration,
    mut done: impl FnMut() -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out after {timeout:?} waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

/// One line describing the host, printed with every result.
pub fn describe(data_dir: &std::path::Path) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let fs = fs_of(data_dir);
    format!("cpus={cpus} cpu=\"{model}\" kernel={} data_fs={fs}", kernel.trim())
}

/// File-system type of the longest mount point that is a prefix of `dir`.
fn fs_of(dir: &std::path::Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = (process_cpu_s(), thread_cpu_s());
        let ms = calib_ms();
        assert!(ms > 1.0, "the kernel must not be optimised away: {ms} ms");
        assert!(thread_cpu_s() > before.1, "thread CPU advances while computing");
        assert!(process_cpu_s() >= before.0);
        assert!(peak_rss_mb() > 1.0);
        assert!(describe(std::path::Path::new("/")).contains("cpus="));
    }
}
