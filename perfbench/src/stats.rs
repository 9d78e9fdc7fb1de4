//! Small measurement helpers: quantiles, resident memory, and the
//! effective-parallelism probe stamped on every result.

use std::time::Instant;

/// Nearest-rank quantile of `values` (`q = 1` is the maximum); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `q` quantile (for the "≥10 beyond" rule).
pub fn beyond(count: usize, q: f64) -> usize {
    if count == 0 {
        return 0;
    }
    count - ((q * count as f64).ceil() as usize).clamp(1, count)
}

/// Reset the peak-RSS high-water mark of this process (Linux
/// `clear_refs` value 5), so the next reading covers only what follows.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Host speed and effective parallelism: the time of one spin loop (ms),
/// and `threads` loops at once versus one as a speed-up (`threads` on a
/// host where threads scale, 1.0 where they do not). A loop runs ~30 ms.
pub fn spin_probe(threads: usize) -> (f64, f64) {
    const ITERS: u64 = 30_000_000;
    let t = Instant::now();
    spin(ITERS);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(ITERS));
        }
    });
    let all = t.elapsed().as_secs_f64();
    (one * 1e3, threads as f64 * one / all.max(1e-9))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
