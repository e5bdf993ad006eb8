//! Process and thread accounting read from `/proc` (Linux only, like
//! the epoll server under test): CPU seconds, resident set size and
//! context switches, each as a point-in-time reading the workloads
//! take at the edges of the measured window.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/*/stat`. `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the whole process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcReading {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub rss_mb: f64,
    pub ctx_switches: u64,
}

impl ProcReading {
    pub fn cpu_s(&self) -> f64 {
        self.cpu_user_s + self.cpu_sys_s
    }
}

/// `(utime, stime)` in seconds from a `stat` file's text. The command
/// name may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn cpu_of_stat(text: &str) -> Option<(f64, f64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Reads the process's CPU time, RSS and context switches. Missing
/// files read as zero: the numbers are then absent from the report
/// rather than the run failing.
pub fn read_process() -> ProcReading {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let (cpu_user_s, cpu_sys_s) = cpu_of_stat(&stat).unwrap_or_default();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    // /proc/self/status counts the main thread only; sum every task.
    let mut ctx_switches = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            let s = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    ProcReading {
        cpu_user_s,
        cpu_sys_s,
        rss_mb: status_field(&status, "VmRSS:").unwrap_or(0) as f64 / 1024.0,
        ctx_switches,
    }
}

/// CPU seconds (user + system) the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| cpu_of_stat(&t))
        .map_or(0.0, |(u, s)| u + s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let text = "42 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 9 9 9";
        assert_eq!(cpu_of_stat(text), Some((2.5, 0.5)));
        assert_eq!(
            status_field("VmRSS:\t  2048 kB\nx: 1\n", "VmRSS:"),
            Some(2048)
        );
    }

    #[test]
    fn live_readings_are_sane() {
        let r = read_process();
        assert!(r.rss_mb > 0.0);
        assert!(thread_cpu_s() >= 0.0);
    }
}
