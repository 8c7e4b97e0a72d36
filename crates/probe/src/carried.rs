//! What a transport carries from one probe to the next.
//!
//! [`Carried`] is the cross-target state of a simulated path: how many
//! attempts each flow has seen, how many probes each fault domain has
//! absorbed (the fault layer's virtual clock), and what the fault layer
//! has cost so far. A transport that keeps such state exposes it through
//! [`Transport::carried`](crate::transport::Transport::carried), and a
//! campaign checkpoint persists the fault clock through this type.

use netmodel::{FaultPlan, Protocol, PROTOCOLS};
use v6addr::AddrMap;

/// One address's attempt counters, one slot per protocol index.
type FlowRow = [u32; PROTOCOLS.len()];

/// The state a transport carries across targets. Every counter belongs to
/// one `(address or fault domain, protocol)`.
#[derive(Debug, Clone, Default)]
pub struct Carried {
    /// The fault plan the density clock runs under; `None` when the path
    /// has no active fault layer.
    plan: Option<FaultPlan>,
    /// Destination → attempts already transmitted, per protocol. The nth
    /// probe of a flow sees the same loss roll however probes to other
    /// targets are interleaved around it. Only a flow whose replies are
    /// lossy is counted — every other reply ignores the attempt number, and
    /// a world's answer never changes, so a flow is counted on every pass
    /// or on none. One row per *address*, one slot per protocol: a scan
    /// of a list on four protocols touches the row it made on the first.
    attempts: AddrMap<u128, FlowRow>,
    /// (fault domain, protocol) → probes already sent into the domain:
    /// the fault layer's virtual clock (see `netmodel::faults`), which is
    /// scanner-side state and so lives here rather than in the world.
    density: AddrMap<(u128, u8), u32>,
    fault_drops: u64,
    throttled_us: u64,
}

impl Carried {
    /// Empty state for a path under `plan` (an inactive plan models no
    /// fault layer at all).
    pub fn new(plan: &FaultPlan) -> Carried {
        Carried {
            plan: plan.active().then(|| plan.clone()),
            ..Carried::default()
        }
    }

    /// The active fault plan, if any: its fault domains key the density
    /// clock, and its epoch readout is what campaign telemetry diffs the
    /// clock through.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Probes the fault layer dropped.
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Virtual **microseconds** of throttle latency the fault layer added
    /// to probes that still went through. Integer, converted once per
    /// probe, so every summation order gives the same total.
    pub fn throttled_us(&self) -> u64 {
        self.throttled_us
    }

    /// The slots one target touches: its flow's attempt counter when
    /// `counted` — the flow's replies are lossy, so a loss roll reads the
    /// attempt number; no other flow gets a row — and, under an active
    /// plan, `(plan, fault domain, the domain's density clock)`.
    #[inline]
    pub(crate) fn slots(
        &mut self,
        dst: u128,
        proto: Protocol,
        counted: bool,
    ) -> (Option<&mut u32>, Option<(&FaultPlan, u128, &mut u32)>) {
        let fault = self.plan.as_ref().map(|plan| {
            let domain = plan.domain_of(dst);
            (
                plan,
                domain,
                self.density
                    .entry((domain, proto.index() as u8))
                    .or_insert(0),
            )
        });
        // index() < PROTOCOLS.len()
        let flow = counted.then(|| &mut self.attempts.entry(dst).or_default()[proto.index()]);
        (flow, fault)
    }

    /// Account what the fault layer did to one target's probes.
    #[inline]
    pub(crate) fn add_faults(&mut self, drops: u64, delay_us: u64) {
        self.fault_drops += drops;
        self.throttled_us += delay_us;
    }

    /// The density clock of one `(fault domain, protocol index)`; `None`
    /// when no probe has entered the domain on that protocol.
    pub fn density_of(&self, key: (u128, u8)) -> Option<u32> {
        self.density.get(&key).copied()
    }

    /// The density clock as `(domain, protocol index, probes)` rows,
    /// sorted by key — what a campaign checkpoint persists.
    pub fn fault_rows(&self) -> Vec<(u128, u8, u32)> {
        let mut rows: Vec<(u128, u8, u32)> =
            self.density.iter().map(|(&(d, p), &n)| (d, p, n)).collect();
        rows.sort_unstable();
        rows
    }

    /// Restore rows captured by [`Carried::fault_rows`].
    pub fn restore_fault_rows(&mut self, rows: &[(u128, u8, u32)]) {
        self.density
            .extend(rows.iter().map(|&(domain, proto, n)| ((domain, proto), n)));
    }

    /// The flow counters as `(address, row)`, sorted by address.
    #[cfg(test)]
    pub(crate) fn flow_rows(&self) -> Vec<(u128, FlowRow)> {
        let mut rows: Vec<(u128, FlowRow)> =
            self.attempts.iter().map(|(&a, &row)| (a, row)).collect();
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;
    use crate::transport::{ProbeSpec, Transport};
    use netmodel::{FaultConfig, Protocol, World, WorldConfig};
    use std::sync::Arc;

    /// One address probed on two protocols keeps one flow row with a slot
    /// per protocol, each counting its own attempts across bursts, and one
    /// density clock per `(fault domain, protocol)`; the fault totals add
    /// up, and the clock round-trips through the checkpoint rows.
    #[test]
    fn one_address_keeps_one_counter_per_protocol() {
        let mut wc = WorldConfig::tiny(21);
        wc.faults = FaultConfig::blackholes(1.0, 1.0);
        let w = Arc::new(World::build(wc));
        // Both flows are live, so both keep attempt counters.
        let (dst, _) = w
            .hosts()
            .iter()
            .find(|&(a, _)| {
                w.truth_responds(a, Protocol::Icmp) && w.truth_responds(a, Protocol::Tcp80)
            })
            .expect("some host answers ICMP and TCP/80");
        let mut t = SimTransport::new(w.clone());
        let spec = ProbeSpec {
            src: "2001:db8::100".parse().unwrap(),
            dst,
            proto: Protocol::Icmp,
            salt: 5,
            region: None,
            validate: true,
        };
        let tcp80 = ProbeSpec {
            proto: Protocol::Tcp80,
            ..spec
        };
        t.probe_burst(&spec, 2);
        t.probe_burst(&tcp80, 1);
        t.probe_burst(&spec, 3);
        let state = t.carried().expect("the simulator carries state");
        let key = u128::from(dst);
        assert_eq!(
            state.flow_rows(),
            [(key, [5, 1, 0, 0])],
            "one row, a slot per protocol: 2 + 3 ICMP attempts, 1 TCP/80"
        );
        assert_eq!(state.fault_drops(), 6, "every probe was blackholed");
        assert_eq!(t.packets_sent(), 6, "dropped probes still count as sent");
        let domain = w.faults().domain_of(key);
        let (icmp, tcp) = (Protocol::Icmp.index() as u8, Protocol::Tcp80.index() as u8);
        let rows = state.fault_rows();
        assert_eq!(rows, [(domain, icmp, 5), (domain, tcp, 1)]);
        assert_eq!(state.density_of((domain, icmp)), Some(5));
        assert_eq!(
            state.density_of((domain, Protocol::Udp53.index() as u8)),
            None
        );
        let mut fresh = Carried::new(w.faults());
        fresh.restore_fault_rows(&rows);
        assert_eq!(fresh.fault_rows(), rows);
    }
}
