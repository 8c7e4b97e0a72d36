//! Domain-based collectors: CT logs, archival FDNS, toplists, CAIDA names.
//!
//! All eight domain sources reduce to "pick domains, resolve AAAA, keep the
//! unique addresses" (§5.1, Appendix C), differing only in *which* domains
//! they see:
//!
//! - Censys CT sees an enormous, popularity-blind slice (certificates are
//!   issued for live and dead sites alike);
//! - the Rapid7 snapshot is archival, so stale (churned) records are
//!   over-represented;
//! - toplists see only the popular head, with per-list quirks (SecRank's
//!   documented China focus);
//! - CAIDA DNS Names are PTR names of topology addresses, so it behaves
//!   like a small router sample despite being a "domain" source — exactly
//!   why Table 3 shows it ICMP-heavy with almost no TCP.

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use netmodel::{AsKind, Country, World};
use v6addr::AddrSet;

use crate::source::{DomainStats, SourceId};

/// Outcome of one domain-based collection.
#[derive(Debug, Clone)]
pub struct DomainCollection {
    /// Unique addresses extracted.
    pub addrs: Vec<Ipv6Addr>,
    /// Addresses the resolved lookups returned, before dedup (Table 3
    /// "Pop."): a lookup can return several.
    pub raw_count: u64,
    /// Table 8 statistics.
    pub stats: DomainStats,
}

/// What one collection has looked up so far.
#[derive(Default)]
struct Lookups {
    attempted: u64,
    resolved: u64,
    returned: u64,
    set: AddrSet<Ipv6Addr>,
}

impl Lookups {
    /// One lookup that returned AAAA records.
    fn answered(&mut self, addrs: &[Ipv6Addr]) {
        self.resolved += 1;
        self.returned += addrs.len() as u64;
        self.set.extend(addrs.iter().copied());
    }

    fn finish(self) -> DomainCollection {
        let mut addrs: Vec<Ipv6Addr> = self.set.into_iter().collect();
        addrs.sort();
        DomainCollection {
            raw_count: self.returned,
            stats: DomainStats {
                domains: self.attempted,
                aaaa_responses: self.resolved,
                unique_ips: addrs.len() as u64,
            },
            addrs,
        }
    }
}

/// Collect from Censys CT logs: a large unbiased sample of the whole
/// domain universe, with many attempted names lacking AAAA records.
pub fn collect_censys_ct(world: &World, seed: u64) -> DomainCollection {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::CensysCt.stream());
    let mut l = Lookups::default();
    for records in world.dns().all() {
        // CT coverage: most certificate'd sites appear; each carries a
        // handful of extra never-resolving SANs.
        l.attempted += 1 + rng.gen_range(0..6); // extra no-AAAA names
        if rng.gen_bool(0.62) {
            l.answered(records);
        }
    }
    l.finish()
}

/// Collect from the archival Rapid7 FDNS snapshot: broad but stale —
/// churned hosts are over-represented relative to live ones.
pub fn collect_rapid7(world: &World, seed: u64) -> DomainCollection {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::Rapid7.stream());
    let mut l = Lookups::default();
    for records in world.dns().all() {
        l.attempted += 1 + rng.gen_range(0..4);
        // Stale-record bias: the snapshot predates churn, so records for
        // now-churned hosts are *more* likely present than in fresh data.
        let stale = records
            .iter()
            .any(|&a| world.hosts().get(a).is_some_and(|r| r.churned));
        let p = if stale { 0.70 } else { 0.45 };
        if rng.gen_bool(p) {
            l.answered(records);
        }
    }
    l.finish()
}

/// Per-toplist inclusion policy.
fn toplist_policy(id: SourceId) -> (f64, f64) {
    // (head size as a fraction of the domain universe, inclusion rate)
    match id {
        SourceId::Umbrella => (0.020, 0.75),
        SourceId::Majestic => (0.012, 0.65),
        SourceId::Tranco => (0.014, 0.70),
        SourceId::SecRank => (0.012, 0.55),
        SourceId::Radar => (0.015, 0.70),
        #[expect(
            clippy::unreachable,
            reason = "callers filter to toplist sources; hitting this is a caller bug"
        )]
        _ => unreachable!("not a toplist"),
    }
}

/// Collect from a popularity toplist: only the head of the ranking, with a
/// per-list inclusion quirk. SecRank additionally up-weights Chinese ASes
/// (its documented focus).
pub fn collect_toplist(world: &World, seed: u64, id: SourceId) -> DomainCollection {
    let (head_frac, include_p) = toplist_policy(id);
    let mut rng = SmallRng::seed_from_u64(seed ^ id.stream());
    let head = (world.dns().len() as f64 * head_frac).ceil() as usize;
    let mut l = Lookups::default();
    for records in world.dns().top(head) {
        l.attempted += 1;
        let mut p = include_p;
        if id == SourceId::SecRank {
            let china = records.iter().any(|&a| {
                world
                    .asn_of(a)
                    .and_then(|asn| world.registry().info(asn))
                    .is_some_and(|info| info.country == Country::China)
            });
            p = if china { 0.95 } else { 0.18 };
        }
        if rng.gen_bool(p) {
            l.answered(records);
        }
    }
    l.finish()
}

/// Collect CAIDA DNS Names: PTR names of topology (router) addresses, so
/// the result is a modest router sample with domain-source bookkeeping.
pub fn collect_caida_dns(world: &World, seed: u64) -> DomainCollection {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::CaidaDns.stream());
    let mut l = Lookups::default();
    for info in world.registry().iter() {
        // Router PTR names resolve for infrastructure-minded networks.
        let p = match info.kind {
            AsKind::TransitIsp | AsKind::Education => 0.5,
            _ => 0.12,
        };
        for &r in world.topology().routers_of(info.asn) {
            l.attempted += 1;
            if rng.gen_bool(p) {
                l.answered(&[r]);
            }
        }
    }
    l.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{Protocol, WorldConfig};

    fn world() -> World {
        World::build(WorldConfig::tiny(61))
    }

    #[test]
    fn censys_is_large_and_stats_consistent() {
        let w = world();
        let c = collect_censys_ct(&w, 1);
        assert!(c.addrs.len() > 100);
        assert_eq!(c.stats.unique_ips as usize, c.addrs.len());
        assert!(c.stats.domains > c.stats.aaaa_responses);
    }

    #[test]
    fn toplists_are_much_smaller_than_ct() {
        let w = world();
        let ct = collect_censys_ct(&w, 1);
        for id in [
            SourceId::Umbrella,
            SourceId::Majestic,
            SourceId::Tranco,
            SourceId::Radar,
        ] {
            let t = collect_toplist(&w, 1, id);
            assert!(
                t.addrs.len() * 4 < ct.addrs.len(),
                "{id}: {} vs censys {}",
                t.addrs.len(),
                ct.addrs.len()
            );
        }
    }

    #[test]
    fn secrank_skews_chinese() {
        let w = world();
        let s = collect_toplist(&w, 1, SourceId::SecRank);
        if s.addrs.len() >= 10 {
            let china = s
                .addrs
                .iter()
                .filter(|&&a| {
                    w.asn_of(a)
                        .and_then(|asn| w.registry().info(asn))
                        .is_some_and(|i| i.country == Country::China)
                })
                .count();
            let frac = china as f64 / s.addrs.len() as f64;
            // China is 1 of 12 modeled countries; SecRank should exceed
            // that base rate several-fold.
            assert!(frac > 0.2, "china fraction {frac}");
        }
    }

    #[test]
    fn caida_dns_is_router_flavored() {
        let w = world();
        let c = collect_caida_dns(&w, 1);
        assert!(!c.addrs.is_empty());
        // Almost nothing in a router sample serves TCP80. The tiny-world
        // sample is ~20 routers, so one stray responder is ~5% all by
        // itself — bound the count, not a finer-grained fraction.
        let tcp = c
            .addrs
            .iter()
            .filter(|&&a| w.truth_responds(a, Protocol::Tcp80))
            .count();
        assert!(
            (tcp as f64) <= 0.10 * c.addrs.len() as f64,
            "{tcp}/{} routers on TCP80",
            c.addrs.len()
        );
    }

    #[test]
    fn rapid7_overrepresents_stale_hosts() {
        let w = world();
        let r7 = collect_rapid7(&w, 1);
        let ct = collect_censys_ct(&w, 1);
        let stale_frac = |addrs: &[Ipv6Addr]| {
            let stale = addrs
                .iter()
                .filter(|&&a| w.hosts().get(a).is_some_and(|r| r.churned))
                .count();
            stale as f64 / addrs.len().max(1) as f64
        };
        assert!(
            stale_frac(&r7.addrs) > stale_frac(&ct.addrs),
            "archival snapshot should be staler: {} vs {}",
            stale_frac(&r7.addrs),
            stale_frac(&ct.addrs)
        );
    }

    #[test]
    fn collections_are_deterministic() {
        let w = world();
        let a = collect_censys_ct(&w, 42);
        let b = collect_censys_ct(&w, 42);
        assert_eq!(a.addrs, b.addrs);
        assert_eq!(a.stats, b.stats);
        let c = collect_censys_ct(&w, 43);
        assert_ne!(a.addrs, c.addrs);
    }
}
