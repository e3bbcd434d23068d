//! Order statistics, digests, the recorded digest table, and readers for
//! the process counters the end-to-end metrics come from.

use std::time::Duration;

/// Median of `values` (the mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `sorted` by linear interpolation between ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The tail percentile a sample of `n` supports: the highest of p99 and p90
/// that leaves at least ten samples above it, or `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99, 90]
        .into_iter()
        .find(|pct| n * (100 - pct) / 100 >= 10)
        .map(|pct| pct as f64 / 100.0)
}

/// FNV-1a, 64 bit: the digest every output check folds its bytes into.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Output digests recorded at the commit that introduced the benchmark,
/// one per `(workload, size, input seed)`.
const RECORDED: &str = include_str!("../digests.txt");

pub fn recorded_digest(workload: &str, size: &str, seed: u64) -> Option<u64> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, n, d] if *w == workload && *s == size && n.parse() == Ok(seed) => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}

/// `utime + stime` of process `pid` ("self" for this one), from
/// `/proc/<pid>/stat`, at the kernel's fixed 100 Hz USER_HZ.
pub fn cpu_time(pid: &str) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name may contain spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')': state is field 0, so utime (14th overall) is 11, stime 12.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Appends `s` to `out` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1000), Some(0.99));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
