//! What a transport carries from one probe to the next.
//!
//! [`Carried`] is the cross-target state of a simulated path: how many
//! attempts each flow has seen, how many probes each fault domain has
//! absorbed (the fault layer's virtual clock), and what the fault layer
//! has cost so far. A transport that keeps such state exposes it through
//! [`Transport::carried`](crate::transport::Transport::carried); the
//! engine lends each scan task the rows of the addresses it will probe
//! and takes them back, and a campaign checkpoint persists the fault
//! clock, all through this type.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use netmodel::{FaultPlan, Protocol};

/// Hasher for the per-flow attempt map. SipHash on a 17-byte key costs
/// about as much as the whole world-oracle lookup; flow keys are internal
/// simulator state (no attacker-controlled collisions to defend against),
/// so folding the key and running a splitmix-style finisher is plenty.
#[derive(Clone, Copy, Default)]
struct FlowHasher(u64);

impl std::hash::Hasher for FlowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        v6addr::splitmix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the (u128, u8) key, kept correct).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0 = self.0.rotate_left(8) ^ u64::from(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.0 ^= (n as u64) ^ ((n >> 64) as u64).rotate_left(32);
    }
}

/// (address or prefix bits, protocol index) → probes counted so far.
type CountMap = HashMap<(u128, u8), u32, std::hash::BuildHasherDefault<FlowHasher>>;

/// The state a transport carries across targets. Every counter is keyed
/// by `(address or prefix, protocol)`, so each belongs to exactly one scan
/// task and *moves* there for the addresses the task probes
/// ([`Carried::lend`]) instead of being shared.
#[derive(Debug, Clone, Default)]
pub struct Carried {
    /// The fault plan the density clock runs under; `None` when the path
    /// has no active fault layer.
    plan: Option<FaultPlan>,
    /// (destination, protocol) → attempts already transmitted. The nth
    /// probe of a flow sees the same loss roll however probes to other
    /// targets are interleaved around it.
    attempts: CountMap,
    /// (fault domain, protocol) → probes already sent into the domain:
    /// the fault layer's virtual clock (see `netmodel::faults`), which is
    /// scanner-side state and so lives here rather than in the world.
    density: CountMap,
    fault_drops: u64,
    throttled_us: u64,
}

impl Carried {
    /// Empty state for a path under `plan` (an inactive plan models no
    /// fault layer at all).
    pub fn new(plan: &FaultPlan) -> Carried {
        Carried { plan: plan.active().then(|| plan.clone()), ..Carried::default() }
    }

    /// The active fault plan, if any: its prefix length is the coarsest
    /// granularity scan tasks may be partitioned at, and its epoch readout
    /// is what campaign telemetry diffs the fault clock through.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Probes the fault layer dropped.
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Virtual **microseconds** of throttle latency the fault layer added
    /// to probes that still went through. Integer so task partial sums
    /// merge order-invariantly (f64 addition is not associative).
    pub fn throttled_us(&self) -> u64 {
        self.throttled_us
    }

    /// The slots one target touches: its flow's attempt counter and, under
    /// an active plan, `(plan, fault domain, the domain's density clock)`.
    #[inline]
    pub(crate) fn slots(
        &mut self,
        dst: u128,
        proto: u8,
    ) -> (&mut u32, Option<(&FaultPlan, u128, &mut u32)>) {
        let fault = self.plan.as_ref().map(|plan| {
            let domain = plan.domain_of(dst);
            (plan, domain, self.density.entry((domain, proto)).or_insert(0))
        });
        (self.attempts.entry((dst, proto)).or_insert(0), fault)
    }

    /// Account what the fault layer did to one target's probes.
    #[inline]
    pub(crate) fn add_faults(&mut self, drops: u64, delay_us: u64) {
        self.fault_drops += drops;
        self.throttled_us += delay_us;
    }

    /// Split off the state one scan task needs: the flow counter of every
    /// address in `targets` on `proto` and the density clock of every fault
    /// domain those addresses fall in *move* to the returned state; every
    /// other row stays here. Only rows that exist move (an empty state
    /// lends nothing without walking the list), and a domain shared by
    /// several targets moves once. The lent state counts fault drops and
    /// throttle time from zero, so it reports clean deltas.
    ///
    /// The caller must give no two tasks the same `(fault domain,
    /// protocol)` — the partition `Scanner::scan_prepared` makes.
    pub fn lend(&mut self, proto: Protocol, targets: impl IntoIterator<Item = Ipv6Addr>) -> Carried {
        let mut lent = Carried { plan: self.plan.clone(), ..Carried::default() };
        if self.attempts.is_empty() && self.density.is_empty() {
            return lent;
        }
        let proto = proto.index() as u8;
        for addr in targets {
            let addr = u128::from(addr);
            if let Some(n) = self.attempts.remove(&(addr, proto)) {
                lent.attempts.insert((addr, proto), n);
            }
            if let Some(plan) = &self.plan {
                let key = (plan.domain_of(addr), proto);
                if let Some(n) = self.density.remove(&key) {
                    lent.density.insert(key, n);
                }
            }
        }
        lent
    }

    /// Take a lent state back after its task: its counters return, so
    /// later scans continue the same per-flow and per-domain clocks, and
    /// its fault totals add.
    pub fn reclaim(&mut self, lent: Carried) {
        self.attempts.extend(lent.attempts);
        self.density.extend(lent.density);
        self.add_faults(lent.fault_drops, lent.throttled_us);
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
        self.density.extend(rows.iter().map(|&(domain, proto, n)| ((domain, proto), n)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;
    use crate::transport::{ProbeSpec, Transport};
    use netmodel::{FaultConfig, Protocol, World, WorldConfig};
    use std::sync::Arc;

    #[test]
    fn lend_zeroes_counters_and_reclaim_returns_state() {
        let mut wc = WorldConfig::tiny(21);
        wc.faults = FaultConfig::blackholes(1.0, 1.0);
        let w = Arc::new(World::build(wc));
        let (dst, _) = w.hosts().iter().next().expect("some host");
        let mut base = SimTransport::new(w.clone());
        let spec = ProbeSpec {
            src: "2001:db8::100".parse().unwrap(),
            dst,
            proto: Protocol::Icmp,
            salt: 5,
            region: None,
            validate: true,
        };
        base.probe_burst(&spec, 2);
        base.probe_burst(&ProbeSpec { proto: Protocol::Tcp80, ..spec }, 1);
        fn state(t: &SimTransport) -> &Carried {
            t.carried().expect("the simulator carries state")
        }
        assert_eq!(state(&base).fault_drops(), 3);
        let before = state(&base).fault_rows();
        let (icmp, tcp80) = (Protocol::Icmp.index() as u8, Protocol::Tcp80.index() as u8);
        // One task probes nothing, the other probes `dst` on ICMP; TCP/80
        // is not in this call.
        let idle = base.carried_mut().unwrap().lend(Protocol::Icmp, []);
        assert!(idle.fault_rows().is_empty() && idle.attempts.is_empty(), "a task with no targets gets nothing");
        assert_eq!(state(&base).fault_rows(), before);
        let lent = base.carried_mut().unwrap().lend(Protocol::Icmp, [dst]);
        assert_eq!(state(&base).fault_rows(), [(before[1].0, tcp80, 1)], "unlent state stays on the parent");
        assert_eq!(state(&base).attempts.len(), 1, "and so does the TCP/80 flow");
        let mut shard = SimTransport::new(w.clone());
        *shard.carried_mut().unwrap() = lent;
        assert_eq!(shard.packets_sent(), 0);
        assert_eq!(state(&shard).fault_drops(), 0);
        assert_eq!(state(&shard).fault_rows(), [before[0]], "density carried over");
        shard.probe_burst(&spec, 3);
        assert_eq!(state(&shard).fault_drops(), 3, "shard reports its own delta");
        assert_eq!(state(&shard).attempts[&(u128::from(dst), icmp)], 5, "flow attempts continue: 2 + 3");
        base.carried_mut().unwrap().reclaim(std::mem::take(shard.carried_mut().unwrap()));
        assert_eq!(state(&base).fault_drops(), 6);
        assert_eq!(base.packets_sent(), 3, "packets are the engine's to account");
        // density continued from the base's clock: 2 + 3 probes
        let rows = state(&base).fault_rows();
        assert_eq!(rows, [(before[0].0, icmp, 5), before[1]]);
        // and restore round-trips
        let mut fresh = Carried::new(w.faults());
        fresh.restore_fault_rows(&rows);
        assert_eq!(fresh.fault_rows(), rows);
    }

    /// What the keyed lend exists for: a task takes the rows of its own
    /// targets out of a large accumulated state, and nothing else moves.
    #[test]
    fn lend_moves_exactly_the_rows_of_its_targets() {
        let plan = FaultPlan::new(FaultConfig::hostile(), 9);
        let icmp = Protocol::Icmp.index() as u8;
        let addr = |domain: u128, host: u128| (0x2001_0db8_u128 << 96) | (domain << 80) | host;
        let mut parent = Carried::new(&plan);
        for domain in 0..1_000u128 {
            parent.density.insert((plan.domain_of(addr(domain, 0)), icmp), domain as u32 + 1);
            for host in 0..10 {
                parent.attempts.insert((addr(domain, host), icmp), 2);
            }
        }
        let first = Ipv6Addr::from(addr(7, 3));
        let lent = parent.lend(Protocol::Icmp, [first]);
        assert_eq!(lent.attempts.len(), 1);
        assert_eq!(lent.attempts[&(addr(7, 3), icmp)], 2);
        assert_eq!(lent.fault_rows(), [(plan.domain_of(addr(7, 0)), icmp, 8)]);
        assert_eq!((parent.attempts.len(), parent.density.len()), (9_999, 999), "the rest stays");

        // Two targets in one fault domain: both flow rows move, and the
        // second finds the domain's clock already moved — once, not reset.
        let pair = parent.lend(Protocol::Icmp, [addr(8, 1), addr(8, 2)].map(Ipv6Addr::from));
        assert_eq!(pair.attempts.len(), 2);
        assert_eq!(pair.fault_rows(), [(plan.domain_of(addr(8, 0)), icmp, 9)], "no double move");
        assert_eq!((parent.attempts.len(), parent.density.len()), (9_997, 998));
        // A never-probed address and another protocol's traffic move nothing.
        assert!(parent.lend(Protocol::Icmp, [Ipv6Addr::from(addr(2_000, 0))]).attempts.is_empty());
        let other = parent.lend(Protocol::Udp53, [first]);
        assert!(other.attempts.is_empty() && other.density.is_empty());

        parent.reclaim(pair);
        parent.reclaim(lent);
        assert_eq!((parent.attempts.len(), parent.density.len()), (10_000, 1_000), "no loss on reclaim");
        assert_eq!(parent.density[&(plan.domain_of(addr(8, 0)), icmp)], 9);
    }
}
