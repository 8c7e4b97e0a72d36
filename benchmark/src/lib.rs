//! The repository benchmark.
//!
//! Four workloads ([`workloads::WorkloadId`]) are measured end to end with
//! tracing off, and once more with this crate's own span recorder
//! ([`trace`]) and counting allocator ([`alloc`]) switched on to obtain the
//! per-layer metrics. Every metric name, unit, direction and regression
//! bound lives in [`names`]; `BENCHMARK.json` at the repository root
//! mirrors that table and a test keeps the two equal.
//!
//! All end-to-end runs use single-threaded product configurations: the
//! recording box has two shared cores and two-thread runs varied ±20 % in
//! sizing. Parallel speed-ups are per-layer metrics of the traced run.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod env;
pub mod inputs;
pub mod names;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
