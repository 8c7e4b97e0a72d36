//! The byte-level reference the identity suites diff the engine against
//! and a transport that stops a campaign where no round boundary is.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netmodel::{World, PROTOCOLS};
use sos_probe::{
    Burst, Campaign, CampaignResult, Carried, ProbeSpec, RunOptions, Scanner, ScannerConfig,
    SimTransport, Transport, WireOnly,
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
#[expect(
    clippy::unwrap_used,
    reason = "a test helper: `allow-*-in-tests` sees only `#[test]` bodies"
)]
pub fn run_sharded(s: &mut Scanner<SimTransport>, t: &[Ipv6Addr], shards: usize) -> CampaignResult {
    let opts = RunOptions {
        shards,
        ..RunOptions::default()
    };
    Campaign::standard(s)
        .run_with(t, &opts, None)
        .unwrap()
        .result
}

/// A `SimTransport` on a packet budget its clones share (a sharded round
/// probes through clones): every burst is forwarded, and from the burst
/// that spends the budget on, `spent` runs after each. With `spent =
/// panic!` the process "dies" mid-round — a hard kill, which unlike
/// `stop_after_rounds` and `cancel` gives the campaign no boundary to
/// tidy up at; `par_map` re-raises the worker's panic on the caller.
#[derive(Clone)]
pub struct Budgeted {
    inner: SimTransport,
    sent: Arc<AtomicU64>,
    budget: u64,
    spent: Arc<dyn Fn() + Send + Sync>,
}

impl Budgeted {
    pub fn new(world: Arc<World>, budget: u64, spent: impl Fn() + Send + Sync + 'static) -> Self {
        Budgeted {
            inner: SimTransport::new(world),
            sent: Arc::new(AtomicU64::new(0)),
            budget,
            spent: Arc::new(spent),
        }
    }
}

impl Transport for Budgeted {
    fn send(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.inner.send(packet)
    }

    fn packets_sent(&self) -> u64 {
        self.inner.packets_sent()
    }

    fn probe_burst(&mut self, spec: &ProbeSpec, budget: u32) -> Burst {
        let burst = self.inner.probe_burst(spec, budget);
        let used = u64::from(burst.used);
        if self.sent.fetch_add(used, Ordering::SeqCst) + used >= self.budget {
            (self.spent)();
        }
        burst
    }

    fn carried(&self) -> Option<&Carried> {
        self.inner.carried()
    }

    fn carried_mut(&mut self) -> Option<&mut Carried> {
        self.inner.carried_mut()
    }
}
