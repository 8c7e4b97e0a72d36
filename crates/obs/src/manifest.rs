//! The machine-readable run manifest.
//!
//! A [`Manifest`] accumulates run identity (tool, arguments, seed, scale)
//! and result digests while a binary runs, then [`Manifest::finish`]
//! snapshots every global telemetry source — counters, span aggregates
//! and per-cell span records — into one JSON document. Writing the
//! manifest is the last thing a run does, so the document is a complete
//! post-mortem: what ran, with what inputs, how long each phase took, and
//! exactly what the engines did.
//!
//! Result digests are FNV-1a hashes of rendered output tables; two runs
//! of the same configuration must produce identical digests (the
//! determinism check `--manifest` exists to make cheap).

use std::io;
use std::path::Path;

use crate::json::Json;

/// FNV-1a 64-bit hash — stable across runs, platforms, and releases,
/// which `DefaultHasher` explicitly is not.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.update(bytes);
    h.finish()
}

/// Incremental [`fnv1a64`]: the digest of everything fed so far equals
/// `fnv1a64` of the concatenation. Implements [`std::fmt::Write`], so
/// `write!` hashes formatted text without materialising it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Fold `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Format a digest the way manifests store it.
pub fn digest_hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The peak resident set size (`VmHWM`) in MiB a `/proc/<pid>/status`
/// text reports, if it has the line.
fn peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Accumulates a run's identity and results, then serializes everything
/// the observability layer captured.
#[derive(Debug)]
pub struct Manifest {
    root: Json,
    config: Json,
    digests: Json,
    started_s: f64,
}

impl Manifest {
    /// Start a manifest for `tool` (the binary name).
    pub fn new(tool: &str) -> Manifest {
        let mut root = Json::obj();
        root.set("tool", tool);
        root.set("obs_version", env!("CARGO_PKG_VERSION"));
        Manifest {
            root,
            config: Json::obj(),
            digests: Json::obj(),
            started_s: crate::now_s(),
        }
    }

    /// Set a top-level field (e.g. `experiment`).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Manifest {
        self.root.set(key, value);
        self
    }

    /// Set a field under the `config` section (scale, seed, budget, …).
    pub fn config(&mut self, key: &str, value: impl Into<Json>) -> &mut Manifest {
        self.config.set(key, value);
        self
    }

    /// Digest a rendered result (a printed table, a CSV body) under
    /// `name` and record it in the `digests` section. Returns the digest
    /// so callers can also log it.
    pub fn record_digest(&mut self, name: &str, text: &str) -> u64 {
        let d = fnv1a64(text.as_bytes());
        self.digests.set(name, digest_hex(d));
        d
    }

    /// Snapshot all telemetry and produce the final document.
    pub fn finish(self) -> Json {
        let Manifest {
            mut root,
            config,
            digests,
            started_s,
        } = self;
        root.set("elapsed_s", crate::now_s() - started_s);
        if let Some(mb) = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| peak_rss_mb(&status))
        {
            root.set("peak_rss_mb", mb);
        }
        root.set("config", config);
        root.set("digests", digests);

        root.set("counters", &crate::metrics::global().counter_snapshot());

        let mut spans = Json::obj();
        for (path, agg) in crate::span::aggregate() {
            let mut s = Json::obj();
            s.set("count", agg.count);
            s.set("total_s", agg.total_s);
            s.set("min_s", agg.min_s);
            s.set("max_s", agg.max_s);
            s.set("self_s", agg.self_s);
            spans.set(&path, s);
        }
        root.set("spans", spans);

        // Per-cell wall-clock records: every span instance that carries
        // detail text (cells, per-TGA generation, per-protocol scans).
        let cells: Vec<Json> = crate::span::records()
            .into_iter()
            .filter(|r| !r.detail.is_empty())
            .map(|r| {
                let mut c = Json::obj();
                c.set("path", r.path);
                c.set("detail", r.detail);
                c.set("start_s", r.start_s);
                c.set("dur_s", r.dur_s);
                c
            })
            .collect();
        root.set("span_records", Json::Arr(cells));

        root
    }

    /// [`finish`](Manifest::finish) and write pretty-printed JSON to
    /// `path` (with a trailing newline).
    pub fn write_to_file(self, path: &Path) -> io::Result<()> {
        let doc = self.finish();
        std::fs::write(path, doc.to_string_pretty() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_fnv_equals_one_shot_over_the_concatenation() {
        use std::fmt::Write as _;
        let mut h = Fnv1a64::default();
        h.update(b"foo");
        write!(h, "ba{:02x}", 0x72).unwrap();
        assert_eq!(h.finish(), fnv1a64(b"fooba72"));
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn digests_are_stable_and_hex() {
        assert_eq!(digest_hex(fnv1a64(b"")), "cbf29ce484222325");
    }

    /// A digest is the FNV-1a of the whole rendered text, byte for byte:
    /// what a rerun in another process reproduces.
    #[test]
    fn record_digest_is_the_fnv_of_the_whole_text() {
        let text = "hits\n3\n3\nases\n1\n";
        let mut m = Manifest::new("unit-test");
        assert_eq!(m.record_digest("t", text), fnv1a64(text.as_bytes()));
    }

    /// The written document keeps its sections in the order they were set.
    #[test]
    fn written_manifest_keeps_its_key_order() {
        let path =
            std::env::temp_dir().join(format!("sos-manifest-order-{}.json", std::process::id()));
        let mut m = Manifest::new("unit-test");
        m.set("experiment", "rq1");
        m.write_to_file(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        // the peak is there wherever this process can read its status
        let peak = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| peak_rss_mb(&s))
            .map(|_| "peak_rss_mb");
        let want: Vec<&str> = ["tool", "obs_version", "experiment", "elapsed_s"]
            .into_iter()
            .chain(peak)
            .chain(["config", "digests", "counters", "spans", "span_records"])
            .collect();
        assert_eq!(keys, want);
    }

    /// The peak is the `VmHWM` line in MiB; a status without the line, or
    /// with one that is no number of kB, gives none.
    #[test]
    fn peak_rss_is_the_high_water_mark_line() {
        let status = "Name:\tseedscan\nVmPeak:\t  999 kB\nVmHWM:\t   71680 kB\nVmRSS:\t 512 kB\n";
        assert_eq!(peak_rss_mb(status), Some(70.0));
        assert_eq!(peak_rss_mb("Name:\tseedscan\nVmRSS:\t 512 kB\n"), None);
        assert_eq!(peak_rss_mb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn manifest_collects_sections() {
        let mut m = Manifest::new("unit-test");
        m.set("experiment", "rq1");
        m.config("scale", "tiny").config("seed", 7u64);
        let d1 = m.record_digest("table", "col1,col2\n1,2\n");
        let d2 = m.record_digest("table", "col1,col2\n1,2\n");
        assert_eq!(d1, d2, "same text, same digest");

        crate::counter("unit_manifest_test_counter").add(3);
        let doc = m.finish();
        assert_eq!(doc.get("tool"), Some(&Json::Str("unit-test".into())));
        assert_eq!(doc.get("experiment"), Some(&Json::Str("rq1".into())));
        assert_eq!(
            doc.get("config").and_then(|c| c.get("seed")),
            Some(&Json::U64(7))
        );
        assert_eq!(
            doc.get("digests").and_then(|d| d.get("table")),
            Some(&Json::Str(digest_hex(d1)))
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("unit_manifest_test_counter")),
            Some(&Json::U64(3))
        );
        assert!(doc.get("spans").is_some());
        assert!(doc.get("par_map").is_none());
        let text = doc.to_string_pretty();
        assert!(text.contains("\"elapsed_s\""));
    }

    #[test]
    fn manifest_writes_to_file() {
        let path = std::env::temp_dir().join("sos_obs_manifest_test.json");
        let mut m = Manifest::new("unit-test");
        m.record_digest("out", "hello");
        m.write_to_file(&path).expect("write manifest");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.starts_with('{') && body.ends_with("}\n"));
        assert!(body.contains("\"digests\""));
        let _ = std::fs::remove_file(&path);
    }
}
