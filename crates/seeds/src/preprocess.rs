//! Seed preprocessing: the dataset constructions of Table 2.
//!
//! RQ1–RQ2 compare TGA behavior across preprocessing regimes:
//!
//! | Dataset        | Construction |
//! |----------------|--------------|
//! | Full           | everything collected |
//! | Offline deal.  | − addresses in the published alias list |
//! | Online deal.   | − addresses whose /96 the 6Gen prober flags |
//! | Dealiased      | both of the above (joint) |
//! | All Active     | dealiased − addresses responding on *no* port |
//! | Port-Specific  | All Active ∩ responsive on the scanned port |
//!
//! [`verify_active`] performs the "pre-scan" — probing every seed on all
//! four targets — and [`SeedPipeline`] materializes each regime.

use std::net::Ipv6Addr;

use dealias::{DealiasMode, JointDealiaser};
use netmodel::{PortSet, Protocol, PROTOCOLS};
use sos_probe::ScanOracle;
use v6addr::AddrMap;

/// Per-address responsiveness observed by the pre-scan.
#[derive(Debug, Clone, Default)]
pub struct ActivenessMap {
    map: AddrMap<u128, PortSet>,
    /// Probe packets the pre-scan spent.
    pub probe_packets: u64,
}

impl ActivenessMap {
    /// Observed responsiveness of one address.
    pub fn ports(&self, addr: Ipv6Addr) -> PortSet {
        self.map
            .get(&u128::from(addr))
            .copied()
            .unwrap_or(PortSet::EMPTY)
    }

    /// Is the address responsive on any target?
    pub fn is_active(&self, addr: Ipv6Addr) -> bool {
        !self.ports(addr).is_empty()
    }

    /// Is the address responsive on `proto`?
    pub fn is_active_on(&self, addr: Ipv6Addr, proto: Protocol) -> bool {
        self.ports(addr).contains(proto)
    }

    /// Number of addresses active on `proto`.
    pub fn count_active_on(&self, proto: Protocol) -> usize {
        self.map.values().filter(|p| p.contains(proto)).count()
    }

    /// Number of addresses active on any target.
    pub fn count_active(&self) -> usize {
        self.map.values().filter(|p| !p.is_empty()).count()
    }
}

/// Pre-scan `addrs` on all four targets (§6.2's "pre-scanning" step).
pub fn verify_active<O: ScanOracle>(oracle: &mut O, addrs: &[Ipv6Addr]) -> ActivenessMap {
    let before = oracle.packets_sent();
    // Probe protocol by protocol into one set per input position, then
    // build the map in one pass: with a map lookup after every probe the
    // pre-scan of a study-scale seed pool ran about a third slower.
    let mut ports = vec![PortSet::EMPTY; addrs.len()];
    for proto in PROTOCOLS {
        for (&addr, set) in addrs.iter().zip(&mut ports) {
            if oracle.probe(addr, proto) {
                set.insert(proto);
            }
        }
    }
    let mut map: AddrMap<u128, PortSet> =
        AddrMap::with_capacity_and_hasher(addrs.len(), Default::default());
    for (&addr, set) in addrs.iter().zip(ports) {
        let entry = map.entry(u128::from(addr)).or_insert(PortSet::EMPTY);
        *entry = entry.union(set);
    }
    ActivenessMap {
        map,
        probe_packets: oracle.packets_sent() - before,
    }
}

/// The materialized Table 2 dataset family for one seed pool.
#[derive(Debug, Clone, Default)]
pub struct SeedPipeline {
    /// Everything collected (RQ1.a "Full Dataset").
    pub full: Vec<Ipv6Addr>,
    /// Offline-only dealiased.
    pub offline_dealiased: Vec<Ipv6Addr>,
    /// Online-only dealiased.
    pub online_dealiased: Vec<Ipv6Addr>,
    /// Joint (offline + online) dealiased — the RQ1.a winner.
    pub joint_dealiased: Vec<Ipv6Addr>,
    /// Joint-dealiased ∩ responsive on ≥1 target ("All Active").
    pub all_active: Vec<Ipv6Addr>,
    /// All-active ∩ responsive on each specific target.
    pub port_specific: [Vec<Ipv6Addr>; 4],
    /// Packets spent by online dealiasing.
    pub dealias_packets: u64,
    /// Packets spent by the activity pre-scan.
    pub prescan_packets: u64,
}

impl SeedPipeline {
    /// Build every regime from the full pool.
    ///
    /// Online dealiasing of *seeds* probes on ICMP: it is the
    /// near-universal responder, so a fully responsive prefix answers
    /// ICMP-random probes if it answers anything (the paper dealiases the
    /// seed set once, not per scan target).
    pub fn build<O: ScanOracle>(
        full: Vec<Ipv6Addr>,
        dealiaser: &mut JointDealiaser,
        oracle: &mut O,
    ) -> SeedPipeline {
        let offline = dealiaser.run(DealiasMode::OfflineOnly, oracle, &full, Protocol::Icmp);
        let online = dealiaser.run(DealiasMode::OnlineOnly, oracle, &full, Protocol::Icmp);
        let joint = dealiaser.run(DealiasMode::Joint, oracle, &full, Protocol::Icmp);
        let dealias_packets = online.probe_packets + joint.probe_packets;

        let activeness = verify_active(oracle, &joint.clean);
        let all_active: Vec<Ipv6Addr> = joint
            .clean
            .iter()
            .copied()
            .filter(|&a| activeness.is_active(a))
            .collect();
        let port_specific = PROTOCOLS.map(|proto| {
            all_active
                .iter()
                .copied()
                .filter(|&a| activeness.is_active_on(a, proto))
                .collect::<Vec<_>>()
        });

        SeedPipeline {
            full,
            offline_dealiased: offline.clean,
            online_dealiased: online.clean,
            joint_dealiased: joint.clean,
            all_active,
            port_specific,
            dealias_packets,
            prescan_packets: activeness.probe_packets,
        }
    }

    /// The port-specific dataset for `proto`.
    pub fn port_dataset(&self, proto: Protocol) -> &[Ipv6Addr] {
        &self.port_specific[proto.index()] // one slot per protocol target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_all, CollectorConfig};
    use dealias::{OfflineDealiaser, OnlineConfig, OnlineDealiaser};
    use netmodel::{World, WorldConfig};
    use sos_probe::{RetryPolicy, Scanner, ScannerConfig, SimTransport};
    use std::sync::Arc;

    fn setup() -> (Arc<World>, SeedPipeline) {
        let world = Arc::new(World::build(WorldConfig::tiny(97)));
        let collection = collect_all(&world, CollectorConfig::default());
        let full = collection.combined();
        let mut dealiaser = JointDealiaser::new(
            OfflineDealiaser::new(world.published_alias_list()),
            OnlineDealiaser::new(OnlineConfig::default()),
        );
        let mut scanner = Scanner::new(
            ScannerConfig {
                retry: RetryPolicy::fixed(2),
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world.clone()),
        );
        let pipeline = SeedPipeline::build(full, &mut dealiaser, &mut scanner);
        (world, pipeline)
    }

    #[test]
    fn regimes_shrink_monotonically() {
        let (_, p) = setup();
        assert!(p.offline_dealiased.len() <= p.full.len());
        assert!(p.joint_dealiased.len() <= p.offline_dealiased.len());
        assert!(p.joint_dealiased.len() <= p.online_dealiased.len());
        assert!(p.all_active.len() <= p.joint_dealiased.len());
        for ps in &p.port_specific {
            assert!(ps.len() <= p.all_active.len());
        }
    }

    #[test]
    fn joint_removes_known_and_unknown_aliases() {
        let (world, p) = setup();
        let aliased_in = |set: &[Ipv6Addr]| set.iter().filter(|&&a| world.is_aliased(a)).count();
        let full_aliases = aliased_in(&p.full);
        assert!(full_aliases > 0, "the pool must contain aliases to test");
        let offline_left = aliased_in(&p.offline_dealiased);
        let joint_left = aliased_in(&p.joint_dealiased);
        assert!(
            offline_left < full_aliases,
            "offline removes published aliases"
        );
        assert!(joint_left <= offline_left, "joint strictly tightens");
    }

    #[test]
    fn all_active_really_responds() {
        let (world, p) = setup();
        let dead = p
            .all_active
            .iter()
            .filter(|&&a| !PROTOCOLS.iter().any(|&pr| world.truth_responds(a, pr)))
            .count();
        // loss can misclassify a few, but the set must be essentially live
        assert!(
            (dead as f64) < 0.02 * p.all_active.len() as f64,
            "{dead}/{} dead in All Active",
            p.all_active.len()
        );
    }

    #[test]
    fn port_specific_subsets_are_consistent() {
        let (world, p) = setup();
        let icmp = p.port_dataset(Protocol::Icmp);
        // ICMP dominates: the ICMP dataset is by far the largest
        for proto in [Protocol::Tcp80, Protocol::Tcp443, Protocol::Udp53] {
            assert!(icmp.len() > p.port_dataset(proto).len());
        }
        // spot-check correctness of membership
        for &a in p.port_dataset(Protocol::Tcp80).iter().take(50) {
            assert!(world.truth_responds(a, Protocol::Tcp80), "{a}");
        }
    }

    #[test]
    fn packet_accounting_present() {
        let (_, p) = setup();
        assert!(p.dealias_packets > 0);
        assert!(p.prescan_packets > 0);
    }

    #[test]
    fn activeness_map_counts() {
        let world = Arc::new(World::build(WorldConfig::tiny(97)));
        let live: Vec<Ipv6Addr> = world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(20)
            .collect();
        let mut scanner = Scanner::new(
            ScannerConfig {
                retry: RetryPolicy::fixed(3),
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world.clone()),
        );
        let m = verify_active(&mut scanner, &live);
        assert_eq!(m.count_active_on(Protocol::Icmp), live.len());
        assert!(m.is_active(live[0]));
        assert!(m.probe_packets >= 4 * live.len() as u64);
    }
}
