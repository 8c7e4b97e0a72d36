//! Engine event accounting.
//!
//! Every counter the engine keeps is one row of [`NAMES`], and its index
//! there is its *slot*. Every [`Scanner`](crate::Scanner) owns an
//! [`EngineMetrics`]: its own counter per slot (so a single scan's totals
//! can be read back in isolation — essential under parallel test
//! execution) plus the same-named counter in the process-wide `sos-obs`
//! registry the run manifest serializes. Scan tasks tally into plain
//! `[u64; SLOTS]` arrays and add them here once per task; nothing here
//! feeds back into scan behaviour.
//!
//! The classification outcomes and the per-protocol series cover scans
//! (`scan`, `scan_parallel*`, campaign rounds); bare `probe_target` calls
//! (TGA feedback and dealiasing probes) count only in the flat totals.

use std::collections::BTreeMap;
use std::sync::Arc;

use netmodel::Protocol;
use sos_obs::Counter;

/// Number of engine counters.
pub(crate) const SLOTS: usize = 27;

/// One tally per slot.
pub(crate) type Counts = [u64; SLOTS];

/// Every engine counter, once, under the name the manifest, checkpoints,
/// `snapshot` journal records and the `.prom` file use. Checkpoints
/// written earlier carry these names, so a name may be added but never
/// renamed or dropped.
pub const NAMES: [&str; SLOTS] = [
    "probe.packets_sent",              // probe packets transmitted, incl. retries
    "probe.retries",                   // retransmission attempts after the first
    "probe.hits",                      // §4.1 positive responses
    "probe.rsts",                      // TCP RST responders (not hits)
    "probe.unreachables",              // Destination Unreachable responders (not hits)
    "probe.silent",                    // targets that never answered
    "probe.drop.duplicate",            // targets skipped by deduplication
    "probe.drop.blocklist",            // targets skipped by the blocklist
    "probe.drop.validation",           // responses failing token validation
    "probe.drop.malformed",            // responses that failed to parse
    "probe.ratelimit.stalls",          // rate-limiter acquires that had to wait
    "probe.faults_injected",           // probes eaten by the hostile-network fault layer
    "probe.breaker.opened",            // circuit breakers that tripped open
    "probe.breaker.skipped",           // targets skipped by open breakers
    "probe.backoff.waited_us",         // virtual µs spent in retry backoff
    "probe.resumed_targets",           // targets restored as done by a checkpoint resume
    "probe.attribution.regions",       // distinct provenance (source, region) rows
    "probe.attribution.hits",          // hits carrying a provenance attribution
    "probe.attribution.wasted_probes", // attributed probes that produced no hit
    // `probe.hits`, then `probe.packets_sent`, per protocol in
    // `Protocol::index` order
    "probe.hits{proto=icmp}",
    "probe.hits{proto=tcp80}",
    "probe.hits{proto=tcp443}",
    "probe.hits{proto=udp53}",
    "probe.packets_sent{proto=icmp}",
    "probe.packets_sent{proto=tcp80}",
    "probe.packets_sent{proto=tcp443}",
    "probe.packets_sent{proto=udp53}",
];

pub(crate) const PACKETS_SENT: usize = 0;
pub(crate) const RETRIES: usize = 1;
pub(crate) const HITS: usize = 2;
pub(crate) const RSTS: usize = 3;
pub(crate) const UNREACHABLES: usize = 4;
pub(crate) const SILENT: usize = 5;
pub(crate) const DROP_DUPLICATE: usize = 6;
pub(crate) const DROP_BLOCKLIST: usize = 7;
pub(crate) const DROP_VALIDATION: usize = 8;
pub(crate) const DROP_MALFORMED: usize = 9;
pub(crate) const RATELIMIT_STALLS: usize = 10;
pub(crate) const FAULTS_INJECTED: usize = 11;
pub(crate) const BREAKER_OPENED: usize = 12;
pub(crate) const BREAKER_SKIPPED: usize = 13;
pub(crate) const BACKOFF_WAITED_US: usize = 14;
pub(crate) const RESUMED_TARGETS: usize = 15;
const ATTR_REGIONS: usize = 16;
const ATTR_HITS: usize = 17;
const ATTR_WASTED: usize = 18;

/// The `probe.hits{proto=…}` slot of one protocol.
pub(crate) fn hits_on(proto: Protocol) -> usize {
    19 + proto.index()
}

/// The `probe.packets_sent{proto=…}` slot of one protocol.
pub(crate) fn packets_on(proto: Protocol) -> usize {
    23 + proto.index()
}

/// Per-scanner engine event accounting, mirrored into the global registry.
#[derive(Debug)]
pub struct EngineMetrics {
    /// This scanner's totals, one per slot.
    local: [Counter; SLOTS],
    /// The global registry's counter for each slot, resolved once.
    global: [Arc<Counter>; SLOTS],
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Fresh accounting with zeroed local totals. Every name is registered
    /// globally here, so snapshots list the series still at zero.
    pub fn new() -> EngineMetrics {
        EngineMetrics {
            local: Default::default(),
            global: NAMES.map(sos_obs::counter),
        }
    }

    /// Add `n` to one slot, locally and globally.
    pub(crate) fn add(&self, slot: usize, n: u64) {
        self.local[slot].add(n);
        self.global[slot].add(n);
    }

    /// Add a task's tally. Zeros are skipped: a typical oracle probe moves
    /// `probe.packets_sent` and nothing else.
    pub(crate) fn add_all(&self, counts: &Counts) {
        for (slot, &n) in counts.iter().enumerate() {
            if n > 0 {
                self.add(slot, n);
            }
        }
    }

    /// Raise one slot to at least `want`; a counter already past it is
    /// left alone.
    fn raise(&self, slot: usize, want: u64) {
        let have = self.local[slot].get();
        if want > have {
            self.add(slot, want - have);
        }
    }

    /// Raise counters to at least the checkpointed values (resume path:
    /// the fresh scanner's locals are zero, so this adds the snapshot
    /// wholesale, locally and globally, as the original run did). Names
    /// the snapshot lacks count as zero; names outside [`NAMES`] are
    /// ignored.
    pub(crate) fn restore_counters(&self, snapshot: &BTreeMap<String, u64>) {
        for (slot, name) in NAMES.iter().enumerate() {
            self.raise(slot, snapshot.get(*name).copied().unwrap_or(0));
        }
    }

    /// Raise the attribution counters to the campaign's current totals.
    /// Raise-to (not add): the totals are cumulative snapshots recomputed
    /// at each boundary, and a checkpoint resume restores earlier values
    /// — identical to the [`Self::restore_counters`] semantics.
    pub(crate) fn raise_attribution(&self, regions: u64, hits: u64, wasted: u64) {
        self.raise(ATTR_REGIONS, regions);
        self.raise(ATTR_HITS, hits);
        self.raise(ATTR_WASTED, wasted);
    }

    /// This scanner's counter totals by name (unaffected by other
    /// scanners), every name listed.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        NAMES
            .iter()
            .zip(&self.local)
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect()
    }

    /// One of this scanner's counters by name (0 for a name not in
    /// [`NAMES`]).
    pub fn counter(&self, name: &str) -> u64 {
        NAMES
            .iter()
            .position(|&n| n == name)
            .map_or(0, |slot| self.local[slot].get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::PROTOCOLS;

    #[test]
    fn local_and_global_both_advance() {
        let before = sos_obs::counter("probe.packets_sent").get();
        let m = EngineMetrics::new();
        m.add(PACKETS_SENT, 5);
        assert_eq!(m.counter("probe.packets_sent"), 5);
        assert!(sos_obs::counter("probe.packets_sent").get() >= before + 5);
    }

    #[test]
    fn fresh_metrics_are_isolated() {
        let a = EngineMetrics::new();
        let b = EngineMetrics::new();
        a.add(HITS, 1);
        assert_eq!(a.counter("probe.hits"), 1);
        assert_eq!(b.counter("probe.hits"), 0, "locals do not share state");
    }

    #[test]
    fn labeled_series_are_per_protocol_and_restorable() {
        let m = EngineMetrics::new();
        m.add(hits_on(Protocol::Icmp), 3);
        m.add(packets_on(Protocol::Tcp443), 7);
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
            let label = proto.label().to_lowercase();
            assert_eq!(
                NAMES[hits_on(proto)],
                format!("{}{{proto={label}}}", NAMES[HITS])
            );
            assert_eq!(
                NAMES[packets_on(proto)],
                format!("{}{{proto={label}}}", NAMES[PACKETS_SENT])
            );
        }
    }

    /// Checkpoints written before the table carry exactly these names: a
    /// dropped or renamed series would stop them resuming.
    #[test]
    fn counter_names_are_the_checkpointed_ones() {
        let names: Vec<String> = EngineMetrics::new().counters().into_keys().collect();
        assert_eq!(
            names,
            [
                "probe.attribution.hits",
                "probe.attribution.regions",
                "probe.attribution.wasted_probes",
                "probe.backoff.waited_us",
                "probe.breaker.opened",
                "probe.breaker.skipped",
                "probe.drop.blocklist",
                "probe.drop.duplicate",
                "probe.drop.malformed",
                "probe.drop.validation",
                "probe.faults_injected",
                "probe.hits",
                "probe.hits{proto=icmp}",
                "probe.hits{proto=tcp443}",
                "probe.hits{proto=tcp80}",
                "probe.hits{proto=udp53}",
                "probe.packets_sent",
                "probe.packets_sent{proto=icmp}",
                "probe.packets_sent{proto=tcp443}",
                "probe.packets_sent{proto=tcp80}",
                "probe.packets_sent{proto=udp53}",
                "probe.ratelimit.stalls",
                "probe.resumed_targets",
                "probe.retries",
                "probe.rsts",
                "probe.silent",
                "probe.unreachables",
            ]
        );
    }
}
