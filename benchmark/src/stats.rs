//! Sample statistics and the process's own CPU and memory readings.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns first and last. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The tail the sample supports: the 95th percentile where at least 200
/// samples leave ten beyond it, else the highest percentile that still has
/// ten samples beyond it, else (20 samples or fewer) the median. Returns
/// `(percentile, value)`.
pub fn supported_tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (50.0, f64::NAN);
    }
    if n >= 200 {
        let index = ((n as f64) * 0.95).ceil() as usize - 1;
        return (95.0, sorted[index]);
    }
    if n > 20 {
        let index = n - 11;
        return (100.0 * (index + 1) as f64 / n as f64, sorted[index]);
    }
    (50.0, median(&sorted))
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 on every architecture since 2.6; `sysconf` would need libc.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`. The
/// second field (the command name) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set in MB from the text of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set of this process so far, in MB.
pub fn process_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_peak_rss_mb(&s))
        .expect("/proc/self/status is readable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(spread(&ten), 1.0);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 200 samples: p95 is the 190th value, ten beyond it
        assert_eq!(supported_tail(&samples(200)), (95.0, 190.0));
        assert_eq!(supported_tail(&samples(1000)), (95.0, 950.0));
        // 60 samples: the 50th value has exactly ten beyond it
        let (pct, value) = supported_tail(&samples(60));
        assert_eq!(value, 50.0);
        assert!((pct - 83.333).abs() < 0.01, "{pct}");
        // too few for any tail: the median
        assert_eq!(supported_tail(&samples(15)), (50.0, 8.0));
    }

    #[test]
    fn parses_proc_stat_with_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    731 69 0 0 20 0 3 0 12345 1000000 5000 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(8.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(process_cpu_s() >= 0.0);
        assert!(process_peak_rss_mb() > 1.0);
    }
}
