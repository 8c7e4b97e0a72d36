//! Lock-free counters and histograms with a global named registry.
//!
//! The hot path is two atomic adds: engine code holds `Arc` handles
//! resolved once (at scanner construction), so per-packet accounting never
//! takes a lock. The registry mutex is touched only on first registration
//! and on snapshot.
//!
//! ## Labeled metrics
//!
//! A labeled series is an ordinary [`Counter`] or [`Histogram`] registered
//! under its canonical name `base{k=v,k2=v2}` (label keys sorted) — the
//! owner writes that name out whole, as `sos_probe::metrics::NAMES` does
//! for its per-protocol series. Because a label combination is just a
//! registry name, the hot path stays the same two atomic adds, and every
//! snapshot/manifest serializer picks labeled series up with zero extra
//! code. [`render_prometheus`] splits the name back apart
//! ([`parse_labeled`]) to emit standard text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the counter (test/reset support).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ value buckets ([`Histogram`] accepts any `u64`).
const BUCKETS: usize = 65;

/// A lock-free histogram over `u64` values with log₂ buckets: bucket `i`
/// counts values whose highest set bit is `i − 1` (bucket 0 counts zeros),
/// i.e. values in `[2^(i−1), 2^i)`. Also tracks count, sum, and max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// `(inclusive upper bound, count)` for each non-empty log₂ bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the log₂ buckets:
    /// walk the cumulative counts to the bucket holding rank `q·count`,
    /// then interpolate linearly inside it. Buckets double in width, so
    /// the estimate is exact at bucket boundaries and within one octave
    /// (≤ 2×) everywhere else — the right precision for latency tails,
    /// where the bucket ordering, not the third digit, is the signal.
    /// Clamped to the observed max; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(le, n) in &self.buckets {
            let before = cum as f64;
            cum += n;
            if cum as f64 >= target {
                // bucket i covers [2^(i−1), 2^i); le = 2^i − 1, so the
                // inclusive lower bound is (le >> 1) + 1 (0 for bucket 0)
                let lower = if le == 0 { 0.0 } else { ((le >> 1) + 1) as f64 };
                let frac = if n == 0 { 0.0 } else { (target - before) / n as f64 };
                let est = lower + frac * (le as f64 - lower);
                return (est.round() as u64).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`quantile`](HistogramSnapshot::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value.
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    fn bound_of(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1)
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds (the standard time unit for
    /// wait/latency histograms in the manifest).
    pub fn record_seconds_as_us(&self, seconds: f64) {
        self.record((seconds * 1e6) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((Self::bound_of(i), n))
                })
                .collect(),
        }
    }

    /// Zero the histogram (test/reset support).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A named collection of counters and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use. Hold the
    /// returned handle for lock-free increments on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// All counter values, sorted by name.
    pub fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histogram states, sorted by name.
    pub fn histogram_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Zero every registered counter and histogram (names stay registered).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter registry").values() {
            c.reset();
        }
        for h in self.histograms.lock().expect("histogram registry").values() {
            h.reset();
        }
    }
}

/// The process-wide registry the pipeline reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand: a counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand: a histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Split a canonical registry name back into `(base, labels)`. Names
/// without a label block parse as `(name, [])`.
pub fn parse_labeled(name: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(open) = name.find('{') else {
        return (name, Vec::new());
    };
    let Some(body) = name[open + 1..].strip_suffix('}') else {
        return (name, Vec::new());
    };
    let pairs = body
        .split(',')
        .filter_map(|kv| kv.split_once('='))
        .collect();
    (&name[..open], pairs)
}

/// Make a metric name safe for Prometheus exposition: `.` and any other
/// non-`[a-zA-Z0-9_:]` byte becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Render one label set as a Prometheus label block (empty string when no
/// labels).
fn prom_labels(pairs: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render every counter and histogram in `registry` as Prometheus-style
/// text exposition. Counters become `# TYPE n counter` + one sample per
/// label set; histograms become the standard `_bucket{le=…}` cumulative
/// series plus `_sum` and `_count`. Output is sorted by registry name, so
/// two snapshots of the same state render byte-identically.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, value) in registry.counter_snapshot() {
        let (base, pairs) = parse_labeled(&name);
        let base = prom_name(base);
        if base != last_base {
            out.push_str(&format!("# TYPE {base} counter\n"));
            last_base = base.clone();
        }
        out.push_str(&format!("{base}{} {value}\n", prom_labels(&pairs, None)));
    }
    last_base.clear();
    for (name, snap) in registry.histogram_snapshot() {
        let (base, pairs) = parse_labeled(&name);
        let base = prom_name(base);
        if base != last_base {
            out.push_str(&format!("# TYPE {base} histogram\n"));
            last_base = base.clone();
        }
        let mut cum = 0u64;
        for &(le, n) in &snap.buckets {
            cum += n;
            out.push_str(&format!(
                "{base}_bucket{} {cum}\n",
                prom_labels(&pairs, Some(("le", le.to_string())))
            ));
        }
        out.push_str(&format!(
            "{base}_bucket{} {cum}\n",
            prom_labels(&pairs, Some(("le", "+Inf".to_string())))
        ));
        out.push_str(&format!("{base}_sum{} {}\n", prom_labels(&pairs, None), snap.sum));
        out.push_str(&format!("{base}_count{} {}\n", prom_labels(&pairs, None), snap.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max, u64::MAX);
        // 0 → bound 0; 1 → bound 1; 2,3 → bound 3; 4 → bound 7; 1000 → 1023
        let bounds: Vec<u64> = s.buckets.iter().map(|&(b, _)| b).collect();
        assert!(bounds.contains(&0) && bounds.contains(&1) && bounds.contains(&3));
        assert!(bounds.contains(&7) && bounds.contains(&1023));
        let n_in_3: u64 = s.buckets.iter().find(|&&(b, _)| b == 3).unwrap().1;
        assert_eq!(n_in_3, 2, "2 and 3 share the [2,4) bucket");
    }

    #[test]
    fn histogram_mean_and_sum() {
        let h = Histogram::new();
        h.record(10);
        h.record(30);
        assert_eq!(h.sum(), 40);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn seconds_recorded_as_microseconds() {
        let h = Histogram::new();
        h.record_seconds_as_us(0.001_5);
        assert_eq!(h.sum(), 1_500);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 observations of 1000 → every quantile lands in the
        // [512, 1023] bucket.
        for _ in 0..100 {
            h.record(1000);
        }
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99] {
            let est = s.quantile(q);
            assert!((512..=1023).contains(&est), "q={q}: {est} outside bucket");
        }
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99(), "quantiles are monotone");
    }

    #[test]
    fn quantiles_split_bimodal_distributions() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(4); // [4,7] bucket
        }
        for _ in 0..10 {
            h.record(1 << 20); // tail bucket
        }
        let s = h.snapshot();
        assert!(s.p50() <= 7, "median in the low mode, got {}", s.p50());
        assert!(s.p99() >= 1 << 19, "p99 in the tail, got {}", s.p99());
        assert!(s.p99() <= s.max);
    }

    #[test]
    fn quantiles_of_empty_and_zero_histograms() {
        assert_eq!(Histogram::new().snapshot().quantile(0.5), 0);
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.snapshot().p99(), 0, "all-zero observations quantile to 0");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero_for_all_q() {
        let s = Histogram::new().snapshot();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(s.quantile(q), 0, "empty histogram, q={q}");
        }
    }

    #[test]
    fn quantile_with_single_bucket_mass_stays_in_bucket() {
        // All mass in one bucket: every quantile must land inside that
        // bucket's [lower, upper] range and never exceed the observed max.
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(700); // [512, 1023] bucket
        }
        let s = h.snapshot();
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!((512..=1023).contains(&est), "q={q}: {est} escaped the bucket");
            assert!(est <= s.max, "q={q}: {est} above max {}", s.max);
        }
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let h = Histogram::new();
        for v in [10, 20, 40, 80] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(-0.5), s.quantile(0.0), "q<0 clamps to 0");
        assert_eq!(s.quantile(1.5), s.quantile(1.0), "q>1 clamps to 1");
        assert_eq!(s.quantile(1.0), s.max, "q=1 is the observed max");
        assert!(s.quantile(0.0) <= s.quantile(1.0));
    }

    #[test]
    fn quantile_of_saturated_top_bucket_clamps_to_max() {
        // u64::MAX lands in the top bucket, whose nominal upper bound
        // saturates; the estimate must clamp to the observed max rather
        // than interpolate past it.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(u64::MAX);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(est <= s.max, "q={q} clamped to max");
        }
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn parse_labeled_round_trips() {
        let (base, pairs) = parse_labeled("probe.hits{proto=tcp,tga=det}");
        assert_eq!(base, "probe.hits");
        assert_eq!(pairs, vec![("proto", "tcp"), ("tga", "det")]);
        assert_eq!(parse_labeled("plain"), ("plain", vec![]));
        assert_eq!(parse_labeled("odd{"), ("odd{", vec![]), "unclosed block left alone");
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let r = Registry::new();
        let tcp = r.counter("hits{proto=tcp}");
        let udp = r.counter("hits{proto=udp}");
        tcp.add(3);
        udp.add(5);
        let snap = r.counter_snapshot();
        assert_eq!(snap.get("hits{proto=tcp}"), Some(&3));
        assert_eq!(snap.get("hits{proto=udp}"), Some(&5));
        assert!(!snap.contains_key("hits"), "bare series untouched");
    }

    #[test]
    fn prometheus_rendering_is_stable_and_labeled() {
        let r = Registry::new();
        r.counter("probe.hits{proto=tcp}").add(7);
        r.counter("probe.hits{proto=udp}").add(2);
        r.counter("probe.sent").add(9);
        r.histogram("wait.us{proto=tcp}").record(100);
        let text = render_prometheus(&r);
        assert!(text.contains("# TYPE probe_hits counter\n"));
        assert!(text.contains("probe_hits{proto=\"tcp\"} 7\n"));
        assert!(text.contains("probe_hits{proto=\"udp\"} 2\n"));
        assert!(text.contains("probe_sent 9\n"));
        assert!(text.contains("# TYPE wait_us histogram\n"));
        assert!(text.contains("wait_us_bucket{proto=\"tcp\",le=\"127\"} 1\n"));
        assert!(text.contains("wait_us_bucket{proto=\"tcp\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("wait_us_sum{proto=\"tcp\"} 100\n"));
        assert!(text.contains("wait_us_count{proto=\"tcp\"} 1\n"));
        assert_eq!(text, render_prometheus(&r), "same state renders byte-identically");
        let once = text.matches("# TYPE probe_hits counter").count();
        assert_eq!(once, 1, "one TYPE line per base name");
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.counter_snapshot().get("x"), Some(&1));
        r.reset();
        assert_eq!(b.get(), 0, "reset zeroes but keeps registration");
        assert!(r.counter_snapshot().contains_key("x"));
    }

    #[test]
    fn registry_histograms_snapshot() {
        let r = Registry::new();
        r.histogram("h").record(5);
        let snap = r.histogram_snapshot();
        assert_eq!(snap["h"].count, 1);
        assert_eq!(snap["h"].sum, 5);
    }
}
