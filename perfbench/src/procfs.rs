//! `/proc` readers: per-process CPU time and peak RSS, host steal time,
//! and the CPU model. Each reader is a pure parser over the file's text
//! plus a thin wrapper that reads the file.

use std::io;

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, fixed at
/// 100 in the Linux `/proc` ABI).
pub const TICKS_PER_SEC: u64 = 100;

fn read(path: &str) -> io::Result<String> {
    std::fs::read_to_string(path)
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so the
/// fields are counted from the last `)`.
#[must_use]
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Host-wide steal ticks (8th value of the aggregate `cpu` line) from the
/// text of `/proc/stat`.
#[must_use]
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The first `model name` of `/proc/cpuinfo`.
#[must_use]
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map(|(_, name)| name.trim().to_owned())
}

/// CPU ticks (user + system) consumed so far by process `pid` (`None` =
/// this process).
pub fn cpu_ticks(pid: Option<u32>) -> io::Result<u64> {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_owned(),
        |p| format!("/proc/{p}/stat"),
    );
    parse_cpu_ticks(&read(&path)?).ok_or_else(|| malformed(&path))
}

/// Peak RSS in kB of process `pid` (`None` = this process).
pub fn peak_rss_kb(pid: Option<u32>) -> io::Result<u64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    parse_vm_hwm_kb(&read(&path)?).ok_or_else(|| malformed(&path))
}

/// Host-wide steal ticks so far.
pub fn steal_ticks() -> io::Result<u64> {
    parse_steal_ticks(&read("/proc/stat")?).ok_or_else(|| malformed("/proc/stat"))
}

/// The host's CPU model name, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .ok()
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_command_name() {
        let stat = "4242 (flb serve) (x) S 1 4242 4242 0 -1 4194560 1200 0 3 0 \
                    731 88 0 0 20 0 5 0 123456 20000000 600 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(731 + 88));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (a) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_in_kb() {
        let status = "Name:\tflb\nVmPeak:\t  999 kB\nVmHWM:\t   25364 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(25364));
        assert_eq!(parse_vm_hwm_kb("Name:\tflb\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  100 2 30 4000 5 0 6 77 0 0\ncpu0 50 1 15 2000 2 0 3 40 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(77));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn cpu_model_name() {
        let info = "processor\t: 0\nvendor_id\t: X\nmodel name\t: Example CPU @ 2.0GHz\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(peak_rss_kb(None).unwrap() > 0);
        cpu_ticks(None).unwrap();
        steal_ticks().unwrap();
    }
}
