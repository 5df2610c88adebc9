//! Peak resident set size of this process, read from `/proc`.

/// `VmHWM` in MiB, or `None` (with a warning) where `/proc` is missing.
pub fn peak_mib() -> Option<f64> {
    let parsed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vmhwm_mib(&status));
    if parsed.is_none() {
        eprintln!("warning: /proc/self/status has no VmHWM; peak_rss_mib is null");
    }
    parsed
}

/// Resets `VmHWM` to the current RSS, so the next workload in this process
/// reports its own peak.
pub fn reset_peak() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("warning: cannot reset VmHWM; peak_rss_mib covers every earlier workload");
    }
}

fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parses_and_falls_back_to_none() {
        let status = "Name:\te2e\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(2.0));
        assert_eq!(parse_vmhwm_mib("Name:\te2e\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t garbage\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_mib().is_some_and(|mib| mib > 0.0));
        }
    }
}
