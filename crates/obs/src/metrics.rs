//! Lock-free counters with a global named registry.
//!
//! The hot path is two atomic adds: engine code holds `Arc` handles
//! resolved once (at scanner construction), so per-packet accounting never
//! takes a lock. The registry mutex is touched only on first registration
//! and on snapshot.
//!
//! ## Labeled metrics
//!
//! A labeled series is an ordinary [`Counter`] registered under its canonical name `base{k=v,k2=v2}` (label keys sorted) — the
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

/// A named collection of counters.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
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

    /// All counter values, sorted by name.
    pub fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Zero every registered counter (names stay registered).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter registry").values() {
            c.reset();
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
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render one label set as a Prometheus label block (empty string when no
/// labels).
fn prom_labels(pairs: &[(&str, &str)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "{}=\"{}\"",
                prom_name(k),
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Render a counter snapshot — exact values by registry name, as a
/// campaign's `snapshot` record carries them — as Prometheus-style text
/// exposition: `# TYPE n counter` once per base name, then one sample per
/// label set. The map is sorted by name, so one snapshot always renders
/// to the same bytes.
pub fn render_prometheus(counters: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, value) in counters {
        let (base, pairs) = parse_labeled(name);
        let base = prom_name(base);
        if base != last_base {
            out.push_str(&format!("# TYPE {base} counter\n"));
            last_base = base.clone();
        }
        out.push_str(&format!("{base}{} {value}\n", prom_labels(&pairs)));
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
    fn parse_labeled_round_trips() {
        let (base, pairs) = parse_labeled("probe.hits{proto=tcp,tga=det}");
        assert_eq!(base, "probe.hits");
        assert_eq!(pairs, vec![("proto", "tcp"), ("tga", "det")]);
        assert_eq!(parse_labeled("plain"), ("plain", vec![]));
        assert_eq!(
            parse_labeled("odd{"),
            ("odd{", vec![]),
            "unclosed block left alone"
        );
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
        r.counter("probe.hits").add(9);
        r.counter("probe.hits{proto=tcp}").add(7);
        r.counter("probe.hits{proto=udp}").add(2);
        r.counter("probe.sent{path=a\"b}").add(1);
        let text = render_prometheus(&r.counter_snapshot());
        assert_eq!(
            text,
            "# TYPE probe_hits counter\n\
             probe_hits 9\n\
             probe_hits{proto=\"tcp\"} 7\n\
             probe_hits{proto=\"udp\"} 2\n\
             # TYPE probe_sent counter\n\
             probe_sent{path=\"a\\\"b\"} 1\n",
            "one TYPE line per base name, label values escaped"
        );
        assert_eq!(render_prometheus(&BTreeMap::new()), "");
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
}
