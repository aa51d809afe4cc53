//! Timing statistics and process readings (`/proc/self`).

use std::time::Instant;

/// Seconds per CPU-time tick in `/proc/self/stat` (Linux fixes USER_HZ
/// at 100 for the `/proc` interface).
pub const TICK_S: f64 = 0.01;

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quantile `q` of `xs` taken in `windows` runs of consecutive samples,
/// then the median over the windows. A slow streak of the host that
/// covers fewer than half of the windows leaves it unchanged, where it
/// would move the quantile of all samples together. Fewer samples than
/// windows give the plain quantile.
pub fn windowed_quantile(xs: &[f64], q: f64, windows: usize) -> f64 {
    if xs.len() < windows.max(1) {
        return quantile(xs, q);
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|w| quantile(&xs[w * xs.len() / windows..(w + 1) * xs.len() / windows], q))
        .collect();
    median(&per_window)
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `op` and returns its result with the wall time in seconds.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(op());
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process, read from
/// `/proc/self/stat` (fields 14 and 15). Rust's standard library has
/// no `getrusage`; this is the same figure. The file stays open so a
/// reading costs one `pread`.
pub struct CpuClock {
    stat: Option<std::fs::File>,
    buf: Vec<u8>,
}

impl CpuClock {
    pub fn new() -> Self {
        Self {
            stat: std::fs::File::open("/proc/self/stat").ok(),
            buf: vec![0; 1024],
        }
    }

    /// Ticks of [`TICK_S`] so far; 0 when `/proc` is unavailable.
    pub fn ticks(&mut self) -> u64 {
        use std::os::unix::fs::FileExt;
        let Some(n) = self
            .stat
            .as_ref()
            .and_then(|f| f.read_at(&mut self.buf, 0).ok())
        else {
            return 0;
        };
        let text = String::from_utf8_lossy(&self.buf[..n]);
        // The command name (field 2) may hold spaces; fields resume after ')'.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        // `rest` starts at field 3, so utime (14) and stime (15) are 11 and 12.
        let field = |i: usize| {
            rest.split_whitespace()
                .nth(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        field(11) + field(12)
    }
}

/// An id for one run of the benchmark: clock, process id and seed.
pub fn run_id(seed: u64) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos ^ (u64::from(std::process::id()) << 40) ^ seed.rotate_left(17)
}

/// Worker threads the rayon pool runs with (its default is one per CPU).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_short_slow_streak() {
        let steady: Vec<f64> = (0..100).map(|i| f64::from(i % 10 + 1)).collect();
        assert_eq!(windowed_quantile(&steady, 0.9, 5), quantile(&steady, 0.9));
        // Two of the five windows run 3× slower: the plain p90 moves,
        // the windowed one does not.
        let streak: Vec<f64> = steady
            .iter()
            .enumerate()
            .map(|(i, &x)| if i >= 60 { 3.0 * x } else { x })
            .collect();
        assert!(quantile(&streak, 0.9) > 9.0);
        assert_eq!(windowed_quantile(&streak, 0.9, 5), 9.0);
        assert_eq!(windowed_quantile(&[7.0, 1.0], 0.9, 5), 7.0);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(CpuClock::new().ticks() > 0);
    }
}
