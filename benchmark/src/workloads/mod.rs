//! The four workloads and the repetition procedure they share.
//!
//! A repetition is a fresh set-up followed by the timed section; the
//! previous repetition's state is dropped first. Workloads are closed-loop
//! with one client (this harness) and no think time. The workload seed
//! feeds the product's own config constructors; the product receives only
//! the inputs generated from it.

pub mod campaign_rounds;
pub mod cell;
pub mod cells_study;
pub mod grid_small;
pub mod scan_oneshot;

use std::time::Instant;

use crate::trace;

/// What one timed section did, after its outputs were checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Addresses evaluated: candidates generated (grid, cells) or
    /// (target, protocol) pairs scanned (scan, campaign).
    pub candidates: u64,
    /// Probe packets sent by every scanner involved.
    pub packets: u64,
    /// Operations attempted: cells, scan passes, or campaigns.
    pub ops: u64,
    /// Operations whose invariants broke.
    pub failed: u64,
    /// FNV-1a over the results; equal across repetitions of one seed.
    pub digest: u64,
}

/// One workload: how to set it up, what to time, how to check it.
pub trait Workload {
    /// Everything the timed section reads.
    type State;
    /// What the timed section returns, unchecked.
    type Raw;
    /// Build the inputs for `seed`. Timed as `setup_s`.
    fn setup(seed: u64) -> Self::State;
    /// The timed section. Timed as `wall_s`.
    fn timed(state: &mut Self::State) -> Self::Raw;
    /// Check the outputs (not timed).
    fn verify(state: &Self::State, raw: Self::Raw) -> Outcome;
}

/// One repetition's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// The process's peak RSS (`VmHWM`, MiB) when the timed section ended.
    pub peak_rss_mb: f64,
    pub outcome: Outcome,
}

/// Repeat `W` until at least `min_reps` repetitions are done and starting
/// another would overrun `seconds` of measuring.
pub fn repeat<W: Workload>(seed: u64, seconds: f64, min_reps: usize) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        // Span records and counters the product keeps globally belong to
        // the previous repetition.
        sos_obs::reset();
        let t0 = Instant::now();
        let mut state = W::setup(seed);
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let raw = W::timed(&mut state);
        let wall_s = t1.elapsed().as_secs_f64();
        let peak_rss_mb = crate::env::peak_rss_mb().unwrap_or(0.0);
        let outcome = W::verify(&state, raw);
        drop(state);
        reps.push(Rep {
            setup_s,
            wall_s,
            peak_rss_mb,
            outcome,
        });

        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= min_reps && elapsed + per_rep > seconds {
            return reps;
        }
    }
}

/// The four workloads, by their normative names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    GridSmall,
    CellsStudy,
    ScanOneshot,
    CampaignRounds,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::GridSmall,
        WorkloadId::CellsStudy,
        WorkloadId::ScanOneshot,
        WorkloadId::CampaignRounds,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::GridSmall => "grid-small",
            WorkloadId::CellsStudy => "cells-study",
            WorkloadId::ScanOneshot => "scan-oneshot",
            WorkloadId::CampaignRounds => "campaign-rounds",
        }
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::GridSmall => {
                "the paper's RQ grid (2 datasets x 4 ports x 8 TGAs, small world): tga owns ~3/4 of it, probe ~17%, dealias ~2%"
            }
            WorkloadId::CellsStudy => {
                "the same cells at 5x the seeds and budget: exposes superlinear per-seed stages; its set-up is netmodel+seeds+dealias with tga idle"
            }
            WorkloadId::ScanOneshot => {
                "pure probe hot path through both production scan paths, tga/dealias/obs idle: the no-change control for generator work"
            }
            WorkloadId::CampaignRounds => {
                "probe as a resumable campaign: rounds, back-off, breakers and journal/snapshot/checkpoint writes beside the reads"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untraced repetitions of this workload.
    pub fn measure(self, seed: u64, seconds: f64, min_reps: usize) -> Vec<Rep> {
        match self {
            WorkloadId::GridSmall => repeat::<grid_small::GridSmall>(seed, seconds, min_reps),
            WorkloadId::CellsStudy => repeat::<cells_study::CellsStudy>(seed, seconds, min_reps),
            WorkloadId::ScanOneshot => repeat::<scan_oneshot::ScanOneshot>(seed, seconds, min_reps),
            WorkloadId::CampaignRounds => {
                repeat::<campaign_rounds::CampaignRounds>(seed, seconds, min_reps)
            }
        }
    }

    /// The traced run: this workload once more with spans and allocation
    /// counting on, plus the direct-call layer measurements that belong to
    /// it and the `env.*` normalisation metrics.
    pub fn traced(self, seed: u64) -> Layers {
        let mut layers = Layers::default();
        match self {
            WorkloadId::GridSmall => grid_small::traced(seed, &mut layers),
            WorkloadId::CellsStudy => cells_study::traced(seed, &mut layers),
            WorkloadId::ScanOneshot => scan_oneshot::traced(seed, &mut layers),
            WorkloadId::CampaignRounds => campaign_rounds::traced(seed, &mut layers),
        }
        layers.set("env.nproc", crate::env::nproc() as f64);
        layers.set("env.calib_spin_s", crate::env::calib_spin_s());
        layers
    }
}

/// What a traced run collected.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(metric name, value)` in the order measured.
    pub metrics: Vec<(String, f64)>,
    /// Every span of the run.
    pub spans: Vec<trace::Span>,
    /// Equivalence checks made (decomposed ≡ composite) and how many broke.
    pub ops: u64,
    pub failed: u64,
}

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Count one check; `ok == false` counts as failed.
    pub fn check(&mut self, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
    }

    /// Record the timed section's wall-clock with and without tracing.
    pub fn set_trace_overhead(&mut self, traced_s: f64, untraced_s: f64) {
        self.set("env.trace_overhead_share", traced_s / untraced_s - 1.0);
    }
}

/// Time `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `f` with the span recorder and the allocation counter on; returns
/// its result, its wall-clock, and the allocations `(count, bytes)` made.
pub fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, f64, (u64, u64)) {
    let before = crate::alloc::counts();
    trace::set_enabled(true);
    crate::alloc::set_enabled(true);
    let (out, wall_s) = timed(f);
    crate::alloc::set_enabled(false);
    trace::set_enabled(false);
    let after = crate::alloc::counts();
    (out, wall_s, (after.0 - before.0, after.1 - before.1))
}

/// Incremental FNV-1a, for result digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn addrs(&mut self, addrs: &[std::net::Ipv6Addr]) {
        self.u64(addrs.len() as u64);
        for &a in addrs {
            let bits = u128::from(a);
            self.u64((bits >> 64) as u64);
            self.u64(bits as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
