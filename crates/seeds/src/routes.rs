//! Traceroute-based collectors: Scamper and RIPE Atlas.
//!
//! Table 3 and Figure 1 give these sources a distinctive signature: they
//! contribute *router interface* addresses across nearly every AS (Scamper
//! and RIPE Atlas each cover >30K of the 31K observed ASes) but their
//! addresses respond poorly to direct probes (routers drop probes aimed at
//! themselves). RIPE Atlas additionally measures toward well-known targets
//! ("anchors"), so it carries a live-host component Scamper lacks —
//! matching its much higher responsiveness (58% vs 20%).

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use netmodel::World;
use v6addr::{rand_in_prefix, AddrSet};

use crate::source::SourceId;

/// Collect Scamper-style topology data: traceroutes from a few vantage
/// points toward addresses in (nearly) every announced prefix, keeping the
/// router interfaces revealed on path.
pub fn collect_scamper(world: &World, seed: u64) -> Vec<Ipv6Addr> {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::Scamper.stream());
    let topo = world.topology();
    let vantages = topo.vantages();
    let mut set: AddrSet<Ipv6Addr> = AddrSet::default();
    if vantages.is_empty() {
        return Vec::new();
    }
    for info in world.registry().iter() {
        // Scamper's design goal is coverage: probe every announced prefix.
        for alloc in &info.allocations {
            let traces = 2 + (rng.gen::<u8>() % 2) as usize;
            for _ in 0..traces {
                let dst = rand_in_prefix(alloc, &mut rng);
                let vantage = vantages[rng.gen_range(0..vantages.len())];
                set.extend(topo.trace(vantage, dst, Some(info.asn)));
            }
        }
    }
    let mut out: Vec<Ipv6Addr> = set.into_iter().collect();
    out.sort();
    out
}

/// Collect RIPE-Atlas-style data: many vantage points tracerouting toward
/// popular destinations and anchors; both the on-path routers *and* the
/// (frequently live) targets enter the dataset.
pub fn collect_ripe_atlas(world: &World, seed: u64) -> Vec<Ipv6Addr> {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::RipeAtlas.stream());
    let topo = world.topology();
    let vantages = topo.vantages();
    let mut set: AddrSet<Ipv6Addr> = AddrSet::default();
    if vantages.is_empty() {
        return Vec::new();
    }

    // Measurement targets: the popular head of the domain universe
    // (user-defined measurements) plus live anchor-like hosts sampled
    // across the whole Internet.
    let mut targets: Vec<Ipv6Addr> = Vec::new();
    let head = (world.dns().len() / 40).max(16);
    for records in world.dns().top(head) {
        targets.extend_from_slice(records);
    }
    for (addr, rec) in world.hosts().iter() {
        if rec.responds_any() && rng.gen_bool(0.02) {
            targets.push(addr);
        }
    }

    for dst in targets {
        let vantage = vantages[rng.gen_range(0..vantages.len())];
        set.extend(topo.trace(vantage, dst, world.asn_of(dst)));
        // Atlas records the measured target itself.
        set.insert(dst);
    }

    // The anchor mesh: probes are hosted in most networks and measure one
    // another, so nearly every AS contributes path interfaces.
    for info in world.registry().iter() {
        if rng.gen_bool(0.8) {
            let alloc = info.allocations[0];
            let dst = rand_in_prefix(&alloc, &mut rng);
            let vantage = vantages[rng.gen_range(0..vantages.len())];
            set.extend(topo.trace(vantage, dst, Some(info.asn)));
        }
    }
    let mut out: Vec<Ipv6Addr> = set.into_iter().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{Protocol, WorldConfig};
    use std::collections::HashSet as Set;

    fn world() -> World {
        World::build(WorldConfig::tiny(71))
    }

    fn as_coverage(world: &World, addrs: &[Ipv6Addr]) -> usize {
        let set: Set<_> = addrs.iter().filter_map(|&a| world.asn_of(a)).collect();
        set.len()
    }

    #[test]
    fn scamper_covers_most_ases() {
        let w = world();
        let s = collect_scamper(&w, 1);
        assert!(!s.is_empty());
        let covered = as_coverage(&w, &s);
        let total = w.registry().len();
        assert!(
            covered as f64 > 0.8 * total as f64,
            "scamper covered {covered}/{total} ASes"
        );
    }

    #[test]
    fn scamper_is_router_interfaces() {
        let w = world();
        let s = collect_scamper(&w, 1);
        let routers = s
            .iter()
            .filter(|&&a| {
                w.hosts()
                    .get(a)
                    .is_some_and(|r| r.kind == netmodel::HostKind::Router)
            })
            .count();
        assert_eq!(routers, s.len(), "every scamper address is a router");
    }

    #[test]
    fn ripe_is_more_responsive_than_scamper() {
        let w = world();
        let sc = collect_scamper(&w, 1);
        let ra = collect_ripe_atlas(&w, 1);
        let live_frac = |addrs: &[Ipv6Addr]| {
            let live = addrs
                .iter()
                .filter(|&&a| w.truth_responds(a, Protocol::Icmp))
                .count();
            live as f64 / addrs.len().max(1) as f64
        };
        assert!(
            live_frac(&ra) > live_frac(&sc),
            "RIPE {} vs Scamper {}",
            live_frac(&ra),
            live_frac(&sc)
        );
    }

    #[test]
    fn ripe_covers_many_ases_too() {
        let w = world();
        let ra = collect_ripe_atlas(&w, 1);
        let covered = as_coverage(&w, &ra);
        assert!(covered as f64 > 0.5 * w.registry().len() as f64);
    }

    #[test]
    fn collectors_are_deterministic_and_sorted() {
        let w = world();
        assert_eq!(collect_scamper(&w, 9), collect_scamper(&w, 9));
        let s = collect_ripe_atlas(&w, 9);
        let mut sorted = s.clone();
        sorted.sort();
        assert_eq!(s, sorted);
    }
}
