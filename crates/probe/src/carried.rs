//! What a transport carries from one probe to the next.
//!
//! [`Carried`] is the cross-target state of a simulated path: how many
//! attempts each flow has seen, how many probes each fault domain has
//! absorbed (the fault layer's virtual clock), and what the fault layer
//! has cost so far. A transport that keeps such state exposes it through
//! [`Transport::carried`](crate::transport::Transport::carried); the
//! engine lends it to the scan tasks that own it and takes it back, and a
//! campaign checkpoint persists the fault clock, all through this type.

use std::collections::HashMap;

use netmodel::FaultPlan;

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
/// task and *moves* there ([`Carried::lend`]) instead of being shared.
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

    /// Split off one state per fan-out task. Each counter moves to the
    /// task that `owner(address inside the key's domain, protocol index)`
    /// names — the rule the scan partitions its targets by, so a task only
    /// ever touches state it owns — and stays here when `owner` names
    /// none. Lent states count fault drops and throttle time from zero, so
    /// each reports clean deltas.
    pub fn lend(&mut self, tasks: usize, owner: &dyn Fn(u128, u8) -> Option<usize>) -> Vec<Carried> {
        let mut lent: Vec<Carried> =
            (0..tasks).map(|_| Carried { plan: self.plan.clone(), ..Carried::default() }).collect();
        // A flow's key is its address; a density key is its domain's top bits.
        let shift = self.plan.as_ref().map_or(0, |p| 128 - u32::from(p.prefix_len()));
        type Pick = fn(&mut Carried) -> &mut CountMap;
        let maps: [(Pick, u32); 2] = [(|c| &mut c.attempts, 0), (|c| &mut c.density, shift)];
        for (map, shift) in maps {
            map(self).retain(|&(key, proto), n| {
                match owner(key << shift, proto).and_then(|t| lent.get_mut(t)) {
                    Some(task) => {
                        map(task).insert((key, proto), *n);
                        false
                    }
                    None => true,
                }
            });
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
        // Task 1 of 2 owns everything on ICMP; TCP/80 is not in this call.
        let owner = |addr: u128, p: u8| {
            assert_eq!(addr >> 80, u128::from(dst) >> 80, "owners see an address inside the domain");
            (p == icmp).then_some(1)
        };
        let mut lent = base.carried_mut().unwrap().lend(2, &owner);
        assert_eq!(state(&base).fault_rows(), [(before[1].0, tcp80, 1)], "unowned state stays on the parent");
        assert!(lent[0].fault_rows().is_empty(), "task 0 owns nothing");
        let mut shard = SimTransport::new(w.clone());
        *shard.carried_mut().unwrap() = lent.pop().unwrap();
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
}
