//! Host-side clocks and memory, read from `/proc` (Linux only, like the
//! rest of the harness's tooling).

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`): 100 on
/// every Linux ABI this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has used, over all its threads,
/// live and exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") / TICKS_PER_SECOND
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host clock and the process CPU clock, read together.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub cpu_s: f64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_s: cpu_seconds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_hostile_command_names() {
        let line =
            "4242 (be) nch (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 731 44 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_ticks(line), Some(775.0));
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
