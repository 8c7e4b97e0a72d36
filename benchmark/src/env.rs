//! Facts about the box a result was recorded on.

use std::time::Instant;

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker count for the parallel speed-up metrics: `min(nproc, 4)`.
pub fn speedup_width() -> usize {
    nproc().min(4)
}

/// Seconds for a fixed 2³⁰-step splitmix64 chain: a pure-ALU yardstick
/// for normalising results recorded on different boxes.
pub fn calib_spin_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..1u64 << 30 {
        x = v6addr::splitmix64(x);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
