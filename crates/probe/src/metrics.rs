//! Engine event accounting.
//!
//! Every [`Scanner`](crate::Scanner) owns an [`EngineMetrics`]: a private
//! registry (so a single scan's totals can be read back in isolation —
//! essential under parallel test execution) that mirrors every event into
//! the process-wide `sos-obs` registry the run manifest serializes.
//! Recording is two relaxed atomic adds; nothing here feeds back into
//! scan behaviour.

use std::collections::BTreeMap;
use std::sync::Arc;

use netmodel::{Protocol, PROTOCOLS};
use sos_obs::metrics::HistogramSnapshot;
use sos_obs::{Counter, Histogram, Labels, Registry};

/// Canonical metric-name table for the probe crate.
///
/// Every counter/histogram registration in this crate goes through these
/// constants — the `obs-metric-names` sos-lint rule rejects bare string
/// literals at `counter(...)`/`histogram(...)` call sites, so renames
/// happen in exactly one place and the manifest/journal/exporter surfaces
/// can never drift apart.
pub mod names {
    /// Probe packets transmitted, incl. retries.
    pub const PACKETS_SENT: &str = "probe.packets_sent";
    /// Retransmission attempts after the first.
    pub const RETRIES: &str = "probe.retries";
    /// §4.1 positive responses.
    pub const HITS: &str = "probe.hits";
    /// TCP RST responders (not hits).
    pub const RSTS: &str = "probe.rsts";
    /// ICMP Destination Unreachable responders (not hits).
    pub const UNREACHABLES: &str = "probe.unreachables";
    /// Targets that never answered.
    pub const SILENT: &str = "probe.silent";
    /// Targets skipped by deduplication.
    pub const DROP_DUPLICATE: &str = "probe.drop.duplicate";
    /// Targets skipped by the blocklist.
    pub const DROP_BLOCKLIST: &str = "probe.drop.blocklist";
    /// Responses failing token validation.
    pub const DROP_VALIDATION: &str = "probe.drop.validation";
    /// Responses that failed to parse.
    pub const DROP_MALFORMED: &str = "probe.drop.malformed";
    /// Rate-limiter acquires that had to wait for a token.
    pub const RATELIMIT_STALLS: &str = "probe.ratelimit.stalls";
    /// Histogram of each stall's wait in virtual µs.
    pub const RATELIMIT_WAIT_US: &str = "probe.ratelimit.wait_us";
    /// Probes eaten by the hostile-network fault layer.
    pub const FAULTS_INJECTED: &str = "probe.faults_injected";
    /// Circuit breakers that tripped open.
    pub const BREAKER_OPENED: &str = "probe.breaker.opened";
    /// Targets skipped by open breakers.
    pub const BREAKER_SKIPPED: &str = "probe.breaker.skipped";
    /// Virtual µs spent in retry backoff.
    pub const BACKOFF_WAITED_US: &str = "probe.backoff.waited_us";
    /// Targets restored as done by a checkpoint resume.
    pub const RESUMED_TARGETS: &str = "probe.resumed_targets";
    /// Distinct provenance `(source, region)` rows attributed.
    pub const ATTR_REGIONS: &str = "probe.attribution.regions";
    /// Hits carrying a provenance attribution.
    pub const ATTR_HITS: &str = "probe.attribution.hits";
    /// Attributed probes that produced no hit (wasted-probe mass).
    pub const ATTR_WASTED: &str = "probe.attribution.wasted_probes";
    /// Label key for the per-protocol series of [`HITS`]/[`PACKETS_SENT`].
    pub const PROTO_LABEL: &str = "proto";
}

/// The `proto=` label value for one protocol (lowercased wire label).
pub(crate) fn proto_label(proto: Protocol) -> &'static str {
    match proto {
        Protocol::Icmp => "icmp",
        Protocol::Tcp80 => "tcp80",
        Protocol::Tcp443 => "tcp443",
        Protocol::Udp53 => "udp53",
    }
}

/// Canonical labeled series name (`base{proto=icmp}`) for one protocol.
fn labeled_name(base: &str, proto: Protocol) -> String {
    Labels::new().with(names::PROTO_LABEL, proto_label(proto)).render(base)
}

/// A counter recorded locally and mirrored globally.
#[derive(Debug, Clone)]
pub(crate) struct Mirrored {
    local: Arc<Counter>,
    global: Arc<Counter>,
}

impl Mirrored {
    fn new(registry: &Registry, name: &str) -> Mirrored {
        Mirrored {
            local: registry.counter(name),
            global: sos_obs::counter(name),
        }
    }

    pub(crate) fn add(&self, n: u64) {
        self.local.add(n);
        self.global.add(n);
    }

    pub(crate) fn inc(&self) {
        self.add(1);
    }
}

/// Per-scanner engine event accounting, mirrored into the global registry.
///
/// Counter names (all also visible in `--manifest` output; the string
/// literals live in [`names`], nowhere else):
///
/// | name | meaning |
/// |---|---|
/// | `probe.packets_sent` | probe packets transmitted, incl. retries |
/// | `probe.packets_sent{proto=…}` | the same, one labeled series per protocol (`icmp`, `tcp80`, `tcp443`, `udp53`) |
/// | `probe.retries` | retransmission attempts after the first |
/// | `probe.hits` / `probe.rsts` / `probe.unreachables` / `probe.silent` | §4.1 classification outcomes |
/// | `probe.hits{proto=…}` | hits, one labeled series per protocol |
/// | `probe.drop.duplicate` | targets skipped by deduplication |
/// | `probe.drop.blocklist` | targets skipped by the blocklist |
/// | `probe.drop.validation` | responses failing token validation |
/// | `probe.drop.malformed` | responses that failed to parse |
/// | `probe.ratelimit.stalls` | acquires that had to wait for a token |
/// | `probe.faults_injected` | probes eaten by the hostile-network fault layer |
/// | `probe.breaker.opened` | circuit breakers that tripped open |
/// | `probe.breaker.skipped` | targets skipped by open breakers |
/// | `probe.backoff.waited_us` | virtual µs spent in retry backoff |
/// | `probe.resumed_targets` | targets restored as done by a checkpoint resume |
/// | `probe.attribution.regions` | distinct provenance `(source, region)` rows attributed |
/// | `probe.attribution.hits` | hits carrying a provenance attribution |
/// | `probe.attribution.wasted_probes` | attributed probes that produced no hit |
///
/// Histogram `probe.ratelimit.wait_us` records each stall's wait in µs.
///
/// Every counter is flushed once per scan task (never per packet). The
/// classification outcomes and the labeled series cover scans (`scan`,
/// `scan_parallel*`, campaign rounds); bare `probe_target` calls (TGA
/// feedback and dealiasing probes) count only in the flat totals.
#[derive(Debug)]
pub struct EngineMetrics {
    registry: Registry,
    pub(crate) packets_sent: Mirrored,
    pub(crate) retries: Mirrored,
    pub(crate) hits: Mirrored,
    pub(crate) rsts: Mirrored,
    pub(crate) unreachables: Mirrored,
    pub(crate) silent: Mirrored,
    pub(crate) drop_duplicate: Mirrored,
    pub(crate) drop_blocklist: Mirrored,
    pub(crate) drop_validation: Mirrored,
    pub(crate) drop_malformed: Mirrored,
    pub(crate) ratelimit_stalls: Mirrored,
    pub(crate) faults_injected: Mirrored,
    pub(crate) breaker_opened: Mirrored,
    pub(crate) breaker_skipped: Mirrored,
    pub(crate) backoff_waited_us: Mirrored,
    pub(crate) resumed_targets: Mirrored,
    pub(crate) attr_regions: Mirrored,
    pub(crate) attr_hits: Mirrored,
    pub(crate) attr_wasted: Mirrored,
    /// `probe.hits{proto=…}`, indexed by [`Protocol::index`].
    hits_proto: [Mirrored; 4],
    /// `probe.packets_sent{proto=…}`, indexed by [`Protocol::index`].
    packets_proto: [Mirrored; 4],
    pub(crate) wait_us_local: Arc<Histogram>,
    pub(crate) wait_us_global: Arc<Histogram>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Fresh accounting with zeroed local totals.
    pub fn new() -> EngineMetrics {
        let registry = Registry::new();
        let c = |name: &str| Mirrored::new(&registry, name);
        let labeled = |base: &str| {
            std::array::from_fn(|i| {
                // i < 4 == PROTOCOLS.len(): from_fn over [T; 4]
                Mirrored::new(&registry, &labeled_name(base, PROTOCOLS[i]))
            })
        };
        EngineMetrics {
            packets_sent: c(names::PACKETS_SENT),
            retries: c(names::RETRIES),
            hits: c(names::HITS),
            rsts: c(names::RSTS),
            unreachables: c(names::UNREACHABLES),
            silent: c(names::SILENT),
            drop_duplicate: c(names::DROP_DUPLICATE),
            drop_blocklist: c(names::DROP_BLOCKLIST),
            drop_validation: c(names::DROP_VALIDATION),
            drop_malformed: c(names::DROP_MALFORMED),
            ratelimit_stalls: c(names::RATELIMIT_STALLS),
            faults_injected: c(names::FAULTS_INJECTED),
            breaker_opened: c(names::BREAKER_OPENED),
            breaker_skipped: c(names::BREAKER_SKIPPED),
            backoff_waited_us: c(names::BACKOFF_WAITED_US),
            resumed_targets: c(names::RESUMED_TARGETS),
            attr_regions: c(names::ATTR_REGIONS),
            attr_hits: c(names::ATTR_HITS),
            attr_wasted: c(names::ATTR_WASTED),
            hits_proto: labeled(names::HITS),
            packets_proto: labeled(names::PACKETS_SENT),
            wait_us_local: registry.histogram(names::RATELIMIT_WAIT_US),
            wait_us_global: sos_obs::histogram(names::RATELIMIT_WAIT_US),
            registry,
        }
    }

    /// The `probe.hits{proto=…}` series for one protocol.
    pub(crate) fn proto_hits(&self, proto: Protocol) -> &Mirrored {
        // Protocol::index() < 4: asserted by netmodel's protocol tests
        &self.hits_proto[proto.index()]
    }

    /// The `probe.packets_sent{proto=…}` series for one protocol.
    pub(crate) fn proto_packets(&self, proto: Protocol) -> &Mirrored {
        // Protocol::index() < 4: asserted by netmodel's protocol tests
        &self.packets_proto[proto.index()]
    }

    /// Raise counters to at least the checkpointed values (resume path:
    /// the fresh scanner's locals are zero, so this adds the snapshot
    /// wholesale, mirroring into the global registry as the original run
    /// did; counters already past the snapshot are left alone). Every
    /// counter this scanner has is registered under its manifest name, so
    /// the registry is the list; names it does not know are ignored.
    pub(crate) fn restore_counters(&self, snapshot: &BTreeMap<String, u64>) {
        for (name, have) in self.counters() {
            let want = snapshot.get(&name).copied().unwrap_or(0);
            if want > have {
                Mirrored::new(&self.registry, &name).add(want - have);
            }
        }
    }

    /// Raise the attribution counters to the campaign's current totals.
    /// Raise-to (not add): the totals are cumulative snapshots recomputed
    /// at each boundary, and a checkpoint resume restores earlier values
    /// — identical to the [`Self::restore_counters`] semantics.
    pub(crate) fn raise_attribution(&self, regions: u64, hits: u64, wasted: u64) {
        for (counter, name, want) in [
            (&self.attr_regions, names::ATTR_REGIONS, regions),
            (&self.attr_hits, names::ATTR_HITS, hits),
            (&self.attr_wasted, names::ATTR_WASTED, wasted),
        ] {
            let have = self.counter(name);
            if want > have {
                counter.add(want - have);
            }
        }
    }

    /// Record one rate-limiter stall of `wait_s` virtual seconds.
    pub(crate) fn stall(&self, wait_s: f64) {
        self.ratelimit_stalls.inc();
        self.wait_us_local.record_seconds_as_us(wait_s);
        self.wait_us_global.record_seconds_as_us(wait_s);
    }

    /// This scanner's counter totals (unaffected by other scanners).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.registry.counter_snapshot()
    }

    /// One of this scanner's counters by name (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }

    /// This scanner's rate-limit wait histogram.
    pub fn wait_histogram(&self) -> HistogramSnapshot {
        self.wait_us_local.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_and_global_both_advance() {
        let before = sos_obs::counter(names::PACKETS_SENT).get();
        let m = EngineMetrics::new();
        m.packets_sent.add(5);
        assert_eq!(m.counter(names::PACKETS_SENT), 5);
        assert!(sos_obs::counter(names::PACKETS_SENT).get() >= before + 5);
    }

    #[test]
    fn fresh_metrics_are_isolated() {
        let a = EngineMetrics::new();
        let b = EngineMetrics::new();
        a.hits.inc();
        assert_eq!(a.counter(names::HITS), 1);
        assert_eq!(b.counter(names::HITS), 0, "locals do not share state");
    }

    #[test]
    fn stall_records_count_and_wait() {
        let m = EngineMetrics::new();
        m.stall(0.002);
        m.stall(0.001);
        assert_eq!(m.counter(names::RATELIMIT_STALLS), 2);
        let h = m.wait_histogram();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 3_000, "2 ms + 1 ms in µs");
    }

    #[test]
    fn labeled_series_are_per_protocol_and_restorable() {
        let m = EngineMetrics::new();
        m.proto_hits(Protocol::Icmp).add(3);
        m.proto_packets(Protocol::Tcp443).add(7);
        assert_eq!(m.counter("probe.hits{proto=icmp}"), 3);
        assert_eq!(m.counter("probe.packets_sent{proto=tcp443}"), 7);
        assert_eq!(m.counter("probe.hits{proto=udp53}"), 0);
        // restore_counters covers labeled names too (resume path)
        let fresh = EngineMetrics::new();
        fresh.restore_counters(&m.counters());
        assert_eq!(fresh.counter("probe.hits{proto=icmp}"), 3);
        assert_eq!(fresh.counter("probe.packets_sent{proto=tcp443}"), 7);
    }

    #[test]
    fn proto_labels_match_wire_labels_lowercased() {
        for proto in PROTOCOLS {
            assert_eq!(proto_label(proto), proto.label().to_lowercase());
        }
    }
}
