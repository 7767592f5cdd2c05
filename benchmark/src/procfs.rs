//! The child's view of itself: peak resident memory and CPU time, read
//! from `/proc/self` (Linux only; absent values read as `None` and the
//! metric is reported as a failed check rather than guessed).

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`.
/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux ABI this repo builds
/// for; std offers no way to ask.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// `utime + stime` in seconds from the text of `/proc/self/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

pub fn vm_hwm_kib() -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  123456 kB\nVmHWM:\t   34567 kB\nVmRSS:\t 30000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(34_567));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (bench) mark (x)) R 1 4242 4242 0 -1 4194304 500 0 0 0 150 25 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(1.75));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn this_process_reports_both() {
        assert!(vm_hwm_kib().is_some_and(|kib| kib > 0));
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
    }
}
