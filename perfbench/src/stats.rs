//! Order statistics shared by every workload.

/// The `q`-quantile of `values` by the nearest-rank rule (`q` in 0..=1).
/// Returns `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, over up to five consecutive windows, of each window's
/// `q`-quantile, each window large enough to hold ten values beyond its
/// quantile: one burst of interference moves one window, not the result.
/// `values` must be in time order.
pub fn windowed(values: &[f64], q: f64) -> f64 {
    let min_window = (10.0 / (1.0 - q)).ceil() as usize;
    let windows = (values.len() / min_window).clamp(1, 5);
    let size = values.len().div_ceil(windows).max(1);
    let per: Vec<f64> = values.chunks(size).map(|w| quantile(w, q)).collect();
    median(&per)
}

/// CPU time (user plus system) this process has used so far, in seconds,
/// from `/proc/self/stat` (threads that have exited included).
pub fn cpu_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = text
        .rsplit_once(") ")
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After the command name: utime and stime are the 12th and 13th
    // fields, in clock ticks of 1/100 s.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Nanoseconds in a `Duration`, as `f64`.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Milliseconds in a `Duration`, as `f64`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmSize`, `VmHWM` (both in kB) and the thread count of this process,
/// read from `/proc/self/status` (zeros where the file is unavailable).
pub fn proc_status() -> (f64, f64, f64) {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field("VmSize:"), field("VmHWM:"), field("Threads:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
