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

use std::collections::hash_map::Entry;
use std::net::Ipv6Addr;

use netmodel::{FaultPlan, Protocol, PROTOCOLS};
use v6addr::AddrMap;

/// One address's attempt counters, one slot per protocol index.
type FlowRow = [u32; PROTOCOLS.len()];

/// The state a transport carries across targets. Every counter belongs to
/// one `(address or fault domain, protocol)`, so each belongs to exactly
/// one scan task and *moves* there for the addresses the task probes
/// ([`Carried::lend`]) instead of being shared.
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
    /// or on none. One row per *address*: a scan of a list on four
    /// protocols touches the row it made on the first. The ownership rule
    /// is per slot — two tasks may hold rows for one address as long as
    /// they hold different protocols' slots; a slot that is not held reads
    /// zero, and an all-zero row is not kept.
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

    /// Split off the state one scan task needs: the `proto` slot of every
    /// address in `targets` and the density clock of every fault domain
    /// those addresses fall in *move* to the returned state; every other
    /// slot and row stays here. Only counters that exist move, and a
    /// domain shared by several targets moves once. The lent state counts
    /// fault drops and throttle time from zero, so it reports clean
    /// deltas.
    ///
    /// The caller must give no two tasks the same `(fault domain,
    /// protocol)` — the partition `Scanner::scan_prepared` makes.
    pub fn lend(
        &mut self,
        proto: Protocol,
        targets: impl IntoIterator<Item = Ipv6Addr>,
    ) -> Carried {
        let mut lent = Carried {
            plan: self.plan.clone(),
            ..Carried::default()
        };
        if self.attempts.is_empty() && self.density.is_empty() {
            return lent;
        }
        let slot = proto.index();
        for addr in targets {
            let addr = u128::from(addr);
            if let Entry::Occupied(mut row) = self.attempts.entry(addr) {
                let n = std::mem::take(&mut row.get_mut()[slot]); // index() < PROTOCOLS.len()
                if *row.get() == FlowRow::default() {
                    row.remove();
                }
                if n != 0 {
                    lent.attempts.entry(addr).or_default()[slot] = n;
                }
            }
            if let Some(plan) = &self.plan {
                let key = (plan.domain_of(addr), slot as u8);
                if let Some(n) = self.density.remove(&key) {
                    lent.density.insert(key, n);
                }
            }
        }
        lent
    }

    /// Take a lent state back after its task: its counters return, so
    /// later scans continue the same per-flow and per-domain clocks, and
    /// its fault totals add. Rows merge slot by slot — another task may
    /// have returned (or this state may still hold) the same address's
    /// other protocols — and since a slot has one holder at a time, adding
    /// the returning slot to the zero left behind moves it.
    pub fn reclaim(&mut self, lent: Carried) {
        for (addr, row) in lent.attempts {
            if row != FlowRow::default() {
                let mine = self.attempts.entry(addr).or_default();
                for (kept, back) in mine.iter_mut().zip(row) {
                    *kept = kept.wrapping_add(back);
                }
            }
        }
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

    #[test]
    fn lend_zeroes_counters_and_reclaim_returns_state() {
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
        base.probe_burst(
            &ProbeSpec {
                proto: Protocol::Tcp80,
                ..spec
            },
            1,
        );
        fn state(t: &SimTransport) -> &Carried {
            t.carried().expect("the simulator carries state")
        }
        assert_eq!(state(&base).fault_drops(), 3);
        let before = state(&base).fault_rows();
        let (icmp, tcp80) = (Protocol::Icmp.index(), Protocol::Tcp80.index());
        // One task probes nothing, the other probes `dst` on ICMP; TCP/80
        // is not in this call.
        let idle = base.carried_mut().unwrap().lend(Protocol::Icmp, []);
        assert!(
            idle.fault_rows().is_empty() && idle.attempts.is_empty(),
            "a task with no targets gets nothing"
        );
        assert_eq!(state(&base).fault_rows(), before);
        let lent = base.carried_mut().unwrap().lend(Protocol::Icmp, [dst]);
        assert_eq!(
            state(&base).fault_rows(),
            [(before[1].0, tcp80 as u8, 1)],
            "unlent state stays on the parent"
        );
        assert_eq!(
            state(&base).attempts[&u128::from(dst)],
            [0, 1, 0, 0],
            "and so does the TCP/80 slot"
        );
        let mut shard = SimTransport::new(w.clone());
        *shard.carried_mut().unwrap() = lent;
        assert_eq!(shard.packets_sent(), 0);
        assert_eq!(state(&shard).fault_drops(), 0);
        assert_eq!(
            state(&shard).fault_rows(),
            [before[0]],
            "density carried over"
        );
        shard.probe_burst(&spec, 3);
        assert_eq!(
            state(&shard).fault_drops(),
            3,
            "shard reports its own delta"
        );
        assert_eq!(
            state(&shard).attempts[&u128::from(dst)][icmp],
            5,
            "flow attempts continue: 2 + 3"
        );
        base.carried_mut()
            .unwrap()
            .reclaim(std::mem::take(shard.carried_mut().unwrap()));
        assert_eq!(state(&base).fault_drops(), 6);
        assert_eq!(
            base.packets_sent(),
            3,
            "packets are the engine's to account"
        );
        assert_eq!(
            state(&base).attempts[&u128::from(dst)],
            [5, 1, 0, 0],
            "one row, both slots"
        );
        // density continued from the base's clock: 2 + 3 probes
        let rows = state(&base).fault_rows();
        assert_eq!(rows, [(before[0].0, icmp as u8, 5), before[1]]);
        // and restore round-trips
        let mut fresh = Carried::new(w.faults());
        fresh.restore_fault_rows(&rows);
        assert_eq!(fresh.fault_rows(), rows);
    }

    /// What the keyed lend exists for: a task takes the slots of its own
    /// targets out of a large accumulated state, and nothing else moves.
    #[test]
    fn lend_moves_exactly_the_rows_of_its_targets() {
        let plan = FaultPlan::new(FaultConfig::hostile(), 9);
        let (icmp, udp) = (Protocol::Icmp.index(), Protocol::Udp53.index());
        let addr = |domain: u128, host: u128| (0x2001_0db8_u128 << 96) | (domain << 80) | host;
        let mut parent = Carried::new(&plan);
        for domain in 0..1_000u128 {
            parent.density.insert(
                (plan.domain_of(addr(domain, 0)), icmp as u8),
                domain as u32 + 1,
            );
            for host in 0..10 {
                // Even hosts were probed on ICMP only, odd ones on UDP/53 too.
                let mut row = FlowRow::default();
                row[icmp] = 2;
                row[udp] = (host % 2) as u32 * 7;
                parent.attempts.insert(addr(domain, host), row);
            }
        }
        let first = Ipv6Addr::from(addr(7, 3));
        let lent = parent.lend(Protocol::Icmp, [first]);
        assert_eq!(lent.attempts.len(), 1);
        assert_eq!(lent.attempts[&addr(7, 3)][icmp], 2);
        assert_eq!(
            lent.attempts[&addr(7, 3)][udp],
            0,
            "only the lent protocol's slot moves"
        );
        assert_eq!(
            parent.attempts[&addr(7, 3)],
            [0, 0, 0, 7],
            "the row stays for the slot that did not"
        );
        assert_eq!(
            lent.fault_rows(),
            [(plan.domain_of(addr(7, 0)), icmp as u8, 8)]
        );
        assert_eq!(
            (parent.attempts.len(), parent.density.len()),
            (10_000, 999),
            "the rest stays"
        );

        // Two targets in one fault domain: both slots move, and the second
        // finds the domain's clock already moved — once, not reset. The
        // even host's row had nothing else in it and is dropped.
        let pair = parent.lend(Protocol::Icmp, [addr(8, 1), addr(8, 2)].map(Ipv6Addr::from));
        assert_eq!(pair.attempts.len(), 2);
        assert_eq!(
            pair.fault_rows(),
            [(plan.domain_of(addr(8, 0)), icmp as u8, 9)],
            "no double move"
        );
        assert_eq!(
            (parent.attempts.len(), parent.density.len()),
            (9_999, 998),
            "an all-zero row is not kept"
        );
        // A never-probed address and a protocol the address never saw move
        // nothing.
        assert!(parent
            .lend(Protocol::Icmp, [Ipv6Addr::from(addr(2_000, 0))])
            .attempts
            .is_empty());
        let other = parent.lend(Protocol::Tcp80, [first]);
        assert!(other.attempts.is_empty() && other.density.is_empty());
        assert_eq!(parent.attempts[&addr(7, 3)], [0, 0, 0, 7]);

        parent.reclaim(pair);
        parent.reclaim(lent);
        assert_eq!(
            (parent.attempts.len(), parent.density.len()),
            (10_000, 1_000),
            "no loss on reclaim"
        );
        assert_eq!(parent.attempts[&addr(7, 3)], [2, 0, 0, 7]);
        assert_eq!(parent.attempts[&addr(8, 2)], [2, 0, 0, 0]);
        assert_eq!(parent.density[&(plan.domain_of(addr(8, 0)), icmp as u8)], 9);
    }

    /// Targets in runs that repeat a fault domain, come back to it after
    /// another (interleaved), and share it with another protocol's task:
    /// every density clock moves to exactly one task, once, flow slots
    /// move per address, and reclaiming the tasks restores the rows the
    /// state had before.
    #[test]
    fn lend_moves_each_domain_once_however_targets_repeat() {
        let plan = FaultPlan::new(FaultConfig::hostile(), 9);
        assert_eq!(plan.prefix_len(), 48);
        let addr = |domain: u128, host: u128| {
            Ipv6Addr::from((0x2001_0db8_u128 << 96) | (domain << 80) | host)
        };
        let mut parent = Carried::new(&plan);
        for domain in 0..6u128 {
            for proto in [Protocol::Icmp, Protocol::Tcp80] {
                let key = (plan.domain_of(addr(domain, 0).into()), proto.index() as u8);
                parent
                    .density
                    .insert(key, 10 * proto.index() as u32 + domain as u32 + 1);
            }
            for host in 0..4 {
                parent
                    .attempts
                    .insert(addr(domain, host).into(), [1, 2, 0, 0]);
            }
        }
        let (density, flows) = (parent.fault_rows(), parent.flow_rows());
        let on =
            |targets: &[(u128, u128)]| targets.iter().map(|&(d, h)| addr(d, h)).collect::<Vec<_>>();
        let icmp = parent.lend(
            Protocol::Icmp,
            on(&[(1, 0), (1, 1), (1, 2), (2, 0), (1, 3), (2, 1), (3, 0)]),
        );
        let shared = parent.lend(Protocol::Tcp80, on(&[(1, 0), (2, 0), (2, 1), (9, 0)]));
        let rest = parent.lend(Protocol::Icmp, on(&[(4, 0), (4, 1), (1, 0)]));
        let domains = |c: &Carried| {
            c.fault_rows()
                .into_iter()
                .map(|(d, p, n)| (d & 0xffff, p, n))
                .collect::<Vec<_>>()
        };
        assert_eq!(domains(&icmp), [(1, 0, 2), (2, 0, 3), (3, 0, 4)]);
        assert_eq!(
            domains(&shared),
            [(1, 1, 12), (2, 1, 13)],
            "another protocol's task takes its own clocks"
        );
        assert_eq!(
            domains(&rest),
            [(4, 0, 5)],
            "a clock already lent is not lent again"
        );
        assert_eq!(
            domains(&parent),
            [
                (0, 0, 1),
                (0, 1, 11),
                (3, 1, 14),
                (4, 1, 15),
                (5, 0, 6),
                (5, 1, 16)
            ]
        );
        // Flow slots move per address: domain 1's four hosts all went to
        // the ICMP task, two of domain 2's to the TCP/80 task.
        assert_eq!(
            (
                icmp.attempts.len(),
                shared.attempts.len(),
                rest.attempts.len()
            ),
            (7, 3, 2)
        );
        assert!(
            !parent.attempts.contains_key(&u128::from(addr(1, 0))),
            "both slots of (1, 0) are out"
        );
        for task in [rest, icmp, shared] {
            parent.reclaim(task);
        }
        assert_eq!((parent.fault_rows(), parent.flow_rows()), (density, flows));
    }

    /// Two tasks hold one address at once, each on its own protocol: both
    /// advance their slot, and whichever order they return in, the merged
    /// row has both counters and the untouched protocols' history.
    #[test]
    fn one_address_lent_on_two_protocols_keeps_both_counters() {
        let plan = FaultPlan::new(FaultConfig::off(), 9);
        let dst: Ipv6Addr = "2001:db8::7".parse().unwrap();
        let key = u128::from(dst);
        for icmp_returns_first in [true, false] {
            let mut parent = Carried::new(&plan);
            parent.attempts.insert(key, [3, 4, 5, 6]);
            let mut on_icmp = parent.lend(Protocol::Icmp, [dst]);
            let mut on_udp = parent.lend(Protocol::Udp53, [dst]);
            assert_eq!(parent.attempts[&key], [0, 4, 5, 0]);
            *on_icmp.slots(key, Protocol::Icmp, true).0.unwrap() += 10;
            *on_udp.slots(key, Protocol::Udp53, true).0.unwrap() += 20;
            assert_eq!(
                (on_icmp.attempts[&key], on_udp.attempts[&key]),
                ([13, 0, 0, 0], [0, 0, 0, 26])
            );
            if icmp_returns_first {
                parent.reclaim(on_icmp);
                parent.reclaim(on_udp);
            } else {
                parent.reclaim(on_udp);
                parent.reclaim(on_icmp);
            }
            assert_eq!(parent.attempts[&key], [13, 4, 5, 26]);
            assert_eq!(parent.attempts.len(), 1);
        }
        // A task that was lent a slot and never probed returns nothing,
        // and that does not resurrect a row.
        let mut parent = Carried::new(&plan);
        let idle = parent.lend(Protocol::Icmp, [dst]);
        parent.reclaim(idle);
        assert!(parent.attempts.is_empty());
    }
}
