//! Resident-set-size introspection.

/// Peak resident set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`, the kernel's high-water mark over the
/// whole process lifetime, so it includes peaks freed before the read).
/// Returns 0 on platforms without procfs — callers treat 0 as
/// "unavailable".
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    read_status_field(
        &std::fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM:",
    )
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` document (kB →
/// bytes).
#[must_use]
pub fn read_status_vmhwm(status: &str) -> u64 {
    read_status_field(status, "VmHWM:")
}

/// Parses one kB-valued `/proc/<pid>/status` field (e.g. `VmHWM:`,
/// `VmRSS:`) into bytes; 0 when absent or malformed.
#[must_use]
pub fn read_status_field(status: &str, field: &str) -> u64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb.saturating_mul(1024);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vmhwm_lines() {
        let status = "Name:\tprovp\nVmPeak:\t  999 kB\nVmHWM:\t  1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(read_status_vmhwm(status), 1234 * 1024);
        assert_eq!(read_status_vmhwm(""), 0);
        assert_eq!(read_status_vmhwm("VmHWM:\tgarbage kB\n"), 0);
    }

    #[test]
    fn parses_vmrss_lines() {
        let status = "VmHWM:\t  1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(read_status_field(status, "VmRSS:"), 1000 * 1024);
        assert_eq!(read_status_field(status, "VmSwap:"), 0);
    }

    #[test]
    fn live_reading_is_sane_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "a running process has a nonzero peak RSS");
        }
    }
}
