//! The evaluation pipeline of *Seeds of Scanning* (IMC 2024).
//!
//! This crate is the paper's primary contribution in code form: the
//! controlled methodology for evaluating Target Generation Algorithms
//! across seed datasets, preprocessing regimes, scan targets, and metrics.
//! It composes every substrate in the workspace:
//!
//! ```text
//!  netmodel (simulated Internet)
//!      │ probed by
//!  sos-probe (wire-format scanner)  ←— oracle for —→  tga (8 generators)
//!      │ classified per §4.1                              │
//!  dealias (offline+online, §4.2)   ←— cleans ——— generated addresses
//!      │
//!  seeds (12 collectors, Table 2 preprocessing)
//!      │
//!  sos-core::experiments — one module per table/figure (T3–T15, F1–F7)
//! ```
//!
//! Entry points: build a [`Study`] (world + seed collection + preprocessed
//! datasets), then call the functions in [`experiments`]. The `seedscan`
//! binary and `examples/full_study.rs` drive everything end to end.

pub mod chart;
pub mod cli;
pub mod config;
pub mod coverage;
pub mod experiments;
pub mod explain;
pub mod export;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod study;
pub mod watch;

pub use config::StudyConfig;
pub use metrics::{performance_ratio, RunMetrics};
pub use runner::{run_tga, RunResult};
pub use study::Study;
