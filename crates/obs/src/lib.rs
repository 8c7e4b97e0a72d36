//! `sos-obs` — observability for the scan pipeline.
//!
//! Real scanning campaigns live or die on operational telemetry: packet
//! rates, retry behaviour, rate-limit stalls, and where wall-clock time
//! goes. This crate is the pipeline's instrumentation layer, with a hard
//! invariant: **observation never influences results**. Counters and spans
//! are write-only from the engine's perspective; timings surface only in
//! logs and manifests, so deterministic experiments stay deterministic.
//!
//! The pieces, all zero-dependency:
//!
//! - [`metrics`]: lock-free [`Counter`]s — flat or labeled (`probe.hits{proto=tcp}`) — plus a global named
//!   [`Registry`] every crate in the pipeline feeds (packets, retries,
//!   drops, classification outcomes, dealias spend, generation
//!   throughput). [`render_prometheus`] renders a counter snapshot (a
//!   campaign's `snapshot` record) as Prometheus-style text.
//! - [`journal`]: the live telemetry surface — an append-only,
//!   crash-tolerant JSONL stream of typed campaign events (rounds,
//!   checkpoints, breaker and fault-epoch transitions, counter
//!   snapshots), each stamped with the deterministic virtual clock plus
//!   wall time. `seedscan watch` tails it.
//! - [`span`](mod@span): hierarchical wall-clock spans
//!   (`grid → cell → {generate, scan, dealias}`), each recording its own
//!   self time as it closes, kept in one global table and echoed to
//!   stderr when `SOS_LOG=debug`.
//! - [`log`]: the env-filtered stderr event sink (`SOS_LOG=trace|debug|
//!   info|warn|error|off`) and [`progress::Progress`] live ETA reporting.
//! - [`manifest`]: serialize configuration, per-phase timings, all
//!   counters, per-cell span records, and result digests into a
//!   single JSON run manifest (`seedscan --manifest out.json`) — the
//!   format benchmark trajectories consume.
//! - [`par`]: [`par::par_map`], the one thread fan-out; it keeps no
//!   timing of its own — the spans opened around and inside it do.
//! - [`trace`](mod@trace): export recorded spans as
//!   Chrome trace-event JSON (`--trace`, one timeline lane per thread)
//!   and their recorded self times as collapsed stacks (`--flame`) for
//!   flamegraph tooling.

pub mod journal;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod par;
pub mod progress;
pub mod span;
pub mod trace;

pub use journal::{Event, JournalWriter, Record};
pub use json::Json;
pub use log::Level;
pub use manifest::{fnv1a64, Manifest};
pub use metrics::{counter, render_prometheus, Counter, Registry};
pub use progress::{eta_s, Progress};
pub use span::{span, span_detail, Span};

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide monotonic clock origin: first observability call wins.
#[expect(
    clippy::disallowed_methods,
    reason = "the one wall-clock read: telemetry clock origin for log/span timings; timestamps never \
              reach result streams, and journal ordering uses the virtual clock"
)]
fn clock_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Seconds since the first observability call in this process. Used for
/// log timestamps and span timings; never for anything result-bearing.
pub fn now_s() -> f64 {
    clock_origin().elapsed().as_secs_f64()
}

/// Clear all recorded telemetry (counters and spans).
/// Intended for tests that assert on globals in isolation.
pub fn reset() {
    metrics::global().reset();
    span::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_s();
        let b = now_s();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}
