//! Turning repetitions into named metrics, and the documents they are
//! stored in: the driver's one-line result, the per-run detail file, and
//! `out/result.json`.

use std::path::{Path, PathBuf};

use sos_obs::Json;

use crate::names::{self, END_TO_END};
use crate::stats::{summarize, Summary};
use crate::workloads::{Layers, Rep, WorkloadId};

/// Where results, traces and scratch files go: `out/` under the directory
/// the benchmark is run from (`benchmark/` through `run.sh` or `cargo run`).
pub fn out_dir() -> PathBuf {
    PathBuf::from("out")
}

/// One end-to-end metric of one workload: the per-repetition samples and
/// their summary.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub summary: Summary,
}

/// An untraced run of one workload.
#[derive(Debug, Clone)]
pub struct EndToEndRun {
    pub workload: WorkloadId,
    pub seed: u64,
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Repetition 0's result digest; repetitions that differ count as failed.
    pub digest: u64,
}

impl EndToEndRun {
    /// Summarize `reps` (at least one).
    pub fn from_reps(workload: WorkloadId, seed: u64, reps: &[Rep]) -> EndToEndRun {
        let digest = reps[0].outcome.digest;
        let drifted = reps.iter().filter(|r| r.outcome.digest != digest).count() as u64;
        let samples = |name: &str| -> Vec<f64> {
            match name {
                "setup_s" => reps.iter().map(|r| r.setup_s).collect(),
                "wall_s" => reps.iter().map(|r| r.wall_s).collect(),
                "cand_per_s" => reps
                    .iter()
                    .map(|r| r.outcome.candidates as f64 / r.wall_s)
                    .collect(),
                "probes_per_s" => reps
                    .iter()
                    .map(|r| r.outcome.packets as f64 / r.wall_s)
                    .collect(),
                // The high-water mark of one set-up plus timed section. Later
                // repetitions only add what the allocator failed to give
                // back, which swings by a third from seed to seed.
                "peak_rss_mb" => vec![reps[0].peak_rss_mb],
                other => unreachable!("no sampler for end-to-end metric {other}"),
            }
        };
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let samples = samples(m.name);
                Measured {
                    name: m.name,
                    unit: m.unit,
                    summary: summarize(&samples),
                    samples,
                }
            })
            .collect();
        EndToEndRun {
            workload,
            seed,
            metrics,
            attempted: reps.iter().map(|r| r.outcome.ops).sum(),
            failed: reps.iter().map(|r| r.outcome.failed).sum::<u64>() + drifted,
            digest,
        }
    }

    /// Failed operations over attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print every metric by name with its unit and sample statistics.
    pub fn print(&self) {
        println!("workload {} seed {}", self.workload.name(), self.seed);
        for m in &self.metrics {
            let s = m.summary;
            println!(
                "  {:<14} {:>16.4} {:<4} (n={}, min {:.4}, max {:.4})",
                m.name, s.median, m.unit, s.n, s.min, s.max
            );
        }
        println!(
            "  {:<14} {:>16.4} {:<4} ({} of {} operations)",
            "failed_share",
            self.failed_share(),
            "",
            self.failed,
            self.attempted
        );
        println!(
            "  {:<14} {:>16}",
            "digest",
            sos_obs::manifest::digest_hex(self.digest)
        );
    }

    /// The detail document stored in `out/result.json`.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut row = Json::obj();
            row.set("unit", m.unit);
            row.set("median", m.summary.median);
            row.set("min", m.summary.min);
            row.set("max", m.summary.max);
            row.set("n", m.summary.n);
            row.set("samples", m.samples.clone());
            metrics.set(m.name, row);
        }
        let mut doc = Json::obj();
        doc.set("workload", self.workload.name());
        doc.set("seed", self.seed);
        doc.set("attempted", self.attempted);
        doc.set("failed", self.failed);
        doc.set("failed_share", self.failed_share());
        doc.set("digest", sos_obs::manifest::digest_hex(self.digest));
        doc.set("nproc", crate::env::nproc());
        doc.set("metrics", metrics);
        doc
    }

    /// The driver's result: one value per end-to-end metric.
    pub fn driver_line(&self) -> Json {
        let values = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.summary.median, m.unit));
        driver_line(self.attempted, self.failed, values)
    }
}

/// The driver's one-line result object. A value that is not a finite
/// number makes the run incorrect.
fn driver_line(
    attempted: u64,
    failed: u64,
    values: impl Iterator<Item = (String, f64, &'static str)>,
) -> Json {
    let mut metrics = Json::obj();
    let mut finite = true;
    for (name, value, unit) in values {
        finite &= value.is_finite();
        let mut row = Json::obj();
        row.set("value", if value.is_finite() { value } else { 0.0 });
        row.set("unit", unit);
        metrics.set(&name, row);
    }
    let mut doc = Json::obj();
    doc.set("correct", failed == 0 && finite);
    doc.set("attempted", attempted.max(1));
    doc.set("failed", failed);
    doc.set("metrics", metrics);
    doc
}

/// A traced run of one workload.
pub struct TracedRun {
    pub workload: WorkloadId,
    pub seed: u64,
    pub layers: Layers,
}

impl TracedRun {
    fn value(&self, name: &str) -> Option<f64> {
        self.layers
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Print the per-layer metrics this workload's traced run measures.
    pub fn print(&self) {
        println!(
            "workload {} seed {} (traced)",
            self.workload.name(),
            self.seed
        );
        for m in names::per_layer() {
            if let Some(v) = self.value(&m.name) {
                println!("  {:<36} {:>18.4} {}", m.name, v, m.unit);
            }
        }
        println!(
            "  {} equivalence checks, {} failed",
            self.layers.ops, self.layers.failed
        );
    }

    /// `{name: {value, unit}}` for the metrics measured on this workload.
    pub fn to_json(&self) -> Json {
        let mut layers = Json::obj();
        for m in names::per_layer() {
            if let Some(v) = self.value(&m.name) {
                let mut row = Json::obj();
                row.set("value", v);
                row.set("unit", m.unit);
                layers.set(&m.name, row);
            }
        }
        layers
    }

    /// The driver's result: every per-layer metric by name. A metric that
    /// belongs to another workload's traced run — a layer this workload
    /// leaves idle — reads 0 here.
    pub fn driver_line(&self) -> Json {
        let values = names::per_layer().into_iter().map(|m| {
            let v = self.value(&m.name).unwrap_or(0.0);
            (m.name, v, m.unit)
        });
        driver_line(self.layers.ops, self.layers.failed, values)
    }

    /// Every metric this workload's traced run owes, by name.
    pub fn missing(&self) -> Vec<String> {
        names::per_layer()
            .into_iter()
            .filter(|m| m.workload.is_none() || m.workload == Some(self.workload.name()))
            .filter(|m| self.value(&m.name).is_none())
            .map(|m| m.name)
            .collect()
    }
}

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`,
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from [`names`] and the workload list so the
/// driver's view cannot drift from the code's.
pub fn contract() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| Json::from(s)).collect());
    let workloads: Vec<Json> = WorkloadId::ALL
        .iter()
        .map(|w| {
            let mut row = Json::obj();
            row.set("name", w.name()).set("why", w.why());
            row
        })
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            let mut row = Json::obj();
            row.set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.label())
                .set("bound", m.bound);
            row
        })
        .collect();
    let per_layer: Vec<Json> = names::per_layer()
        .iter()
        .map(|m| {
            let mut row = Json::obj();
            row.set("name", m.name.as_str())
                .set("unit", m.unit)
                .set("better", m.better.label());
            row
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("command", strings(&["bash", "benchmark/run.sh"]));
    doc.set("paths", strings(&["benchmark"]));
    doc.set("run_seconds", RUN_SECONDS);
    doc.set("workloads", workloads);
    doc.set("end_to_end", end_to_end);
    doc.set("per_layer", per_layer);
    doc
}

/// Write `doc` to `path`, pretty-printed, creating the directory.
pub fn write_json(path: &Path, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string_pretty() + "\n")
}

/// Read and parse a JSON document.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}
