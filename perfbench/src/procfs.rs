//! Peak resident memory of the benchmark process, from Linux `/proc/self`.

/// Parses the `VmHWM` line (peak resident set size) of a
/// `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB") && fields.next().is_none()).then_some(kib)
}

/// This process's peak resident memory in MiB; `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   18000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
    }

    #[test]
    fn rejects_missing_or_malformed_vm_hwm() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 100 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 100\n"), None);
    }

    #[test]
    fn reads_this_process_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        }
    }
}
