//! Live progress / ETA reporting for long grid runs.
//!
//! A [`Progress`] counts completed work items against a known total and
//! prints a throttled one-line status (rate, percent, ETA) to stderr at
//! `Info` level. Worker threads call [`Progress::tick`] concurrently; all
//! state is atomic so the hot path never blocks.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::log::{enabled, Level};

/// Minimum seconds between printed updates (the final update always
/// prints, so short runs still report once).
const THROTTLE_S: f64 = 0.5;

/// A concurrent progress counter with throttled ETA output.
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: u64,
    done: AtomicU64,
    start_s: f64,
    /// Last print time, microseconds since clock origin (0 = never).
    last_print_us: AtomicU64,
}

impl Progress {
    /// Start tracking `total` items under `label`.
    pub fn new(label: impl Into<String>, total: u64) -> Progress {
        Progress {
            label: label.into(),
            total,
            done: AtomicU64::new(0),
            start_s: crate::now_s(),
            last_print_us: AtomicU64::new(0),
        }
    }

    /// Items completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Mark one item complete, printing a status line if due.
    pub fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !enabled(Level::Info) {
            return;
        }
        let now_us = (crate::now_s() * 1e6) as u64;
        // The thread whose increment completed the total owns the
        // guaranteed final line: it must not lose the throttle race to a
        // concurrent mid-run printer, or the 100% update is silently
        // dropped. It stores the print time best-effort and prints
        // unconditionally.
        let finisher = done == self.total;
        if finisher {
            self.last_print_us.store(now_us, Ordering::Relaxed);
        } else {
            let last = self.last_print_us.load(Ordering::Relaxed);
            let due = done > self.total || now_us.saturating_sub(last) as f64 / 1e6 >= THROTTLE_S;
            if !due {
                return;
            }
            // One printer per throttle window; losers skip silently.
            if self
                .last_print_us
                .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                return;
            }
        }
        let elapsed = crate::now_s() - self.start_s;
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = eta_s(done, self.total, rate);
        let pct = if self.total > 0 {
            100.0 * done as f64 / self.total as f64
        } else {
            100.0
        };
        crate::info!(
            "{}: {done}/{} ({pct:.0}%) {rate:.2}/s eta {eta:.0}s",
            self.label,
            self.total,
        );
    }
}

/// Seconds left at the current rate: `(total − done) / rate`, 0 when the
/// rate is unknown or the work is complete. Shared by [`Progress`] and the
/// `seedscan watch` live status table, so the two ETAs can never disagree.
pub fn eta_s(done: u64, total: u64, rate_per_s: f64) -> f64 {
    let remaining = total.saturating_sub(done);
    if rate_per_s > 0.0 {
        remaining as f64 / rate_per_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_up() {
        let p = Progress::new("test", 3);
        assert_eq!(p.done(), 0);
        p.tick();
        p.tick();
        assert_eq!(p.done(), 2);
        p.tick();
        assert_eq!(p.done(), 3);
    }

    #[test]
    fn eta_helper_handles_edges() {
        assert_eq!(eta_s(0, 100, 0.0), 0.0, "unknown rate reports no ETA");
        assert_eq!(eta_s(100, 100, 50.0), 0.0, "complete work has zero ETA");
        assert_eq!(eta_s(120, 100, 50.0), 0.0, "overshoot saturates at zero");
        assert!((eta_s(25, 100, 25.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ticks_are_thread_safe() {
        let p = Progress::new("test", 40);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        p.tick();
                    }
                });
            }
        });
        assert_eq!(p.done(), 40);
    }
}
