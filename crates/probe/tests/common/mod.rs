//! The byte-level reference the identity suites diff the engine against.

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{World, PROTOCOLS};
use sos_probe::{
    Campaign, CampaignResult, RunOptions, Scanner, ScannerConfig, SimTransport, WireOnly,
};

/// A four-protocol campaign the slow, obvious way: one scanner whose
/// transport answers every probe through real packet bytes
/// ([`WireOnly`] strips `SimTransport`'s burst override), scanning the
/// protocols one after another on the calling thread. Returns the merged
/// result and the scanner (for its packet total and counters).
pub fn wire_campaign(
    world: Arc<World>,
    cfg: ScannerConfig,
    targets: &[Ipv6Addr],
) -> (CampaignResult, Scanner<WireOnly<SimTransport>>) {
    let mut scanner = Scanner::new(cfg, WireOnly(SimTransport::new(world)));
    let reports = PROTOCOLS
        .into_iter()
        .map(|proto| (proto, scanner.scan(targets.iter().copied(), proto)))
        .collect();
    (CampaignResult::from_reports(reports), scanner)
}

/// The production side of the comparison: the standard four-protocol
/// campaign as one `run_with` round, `shards` ways per protocol.
pub fn run_sharded(s: &mut Scanner<SimTransport>, t: &[Ipv6Addr], shards: usize) -> CampaignResult {
    let opts = RunOptions { shards, ..RunOptions::default() };
    Campaign::standard(s).run_with(t, &opts, None).unwrap().result
}
