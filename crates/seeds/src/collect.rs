//! Full-dataset assembly across all twelve sources.

use std::net::Ipv6Addr;

use netmodel::World;
use v6addr::AddrSet;

use crate::domains::{
    collect_caida_dns, collect_censys_ct, collect_rapid7, collect_toplist, DomainCollection,
};
use crate::hitlists::{collect_addrminer, collect_hitlist, HitlistCollection};
use crate::routes::{collect_ripe_atlas, collect_scamper};
use crate::source::{DomainStats, SourceId};

/// Collection-time configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Seed for every collector's sampling (independent of the world seed,
    /// so the same Internet can be "collected" twice differently).
    pub seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig { seed: 0x5eed_da7a }
    }
}

/// One source's collected data.
#[derive(Debug, Clone)]
pub struct SourceDataset {
    /// Which source.
    pub id: SourceId,
    /// Unique addresses, sorted.
    pub addrs: Vec<Ipv6Addr>,
    /// Raw pre-dedup count (Table 3 "Pop.").
    pub raw_count: u64,
    /// Domain statistics, for domain-family sources (Table 8).
    pub domain_stats: Option<DomainStats>,
}

/// All twelve sources, plus the combined pool.
#[derive(Debug, Clone)]
pub struct SeedCollection {
    /// Per-source datasets in [`SourceId::ALL`] order.
    pub sources: Vec<SourceDataset>,
}

impl SeedCollection {
    /// The dataset for one source.
    #[expect(
        clippy::expect_used,
        reason = "collect_all always populates every SourceId variant"
    )]
    pub fn get(&self, id: SourceId) -> &SourceDataset {
        self.sources
            .iter()
            .find(|s| s.id == id)
            .expect("all sources collected")
    }

    /// The union of every source (the study's "Full Dataset" of RQ1.a),
    /// sorted and deduplicated.
    pub fn combined(&self) -> Vec<Ipv6Addr> {
        let mut set: AddrSet<Ipv6Addr> = AddrSet::default();
        for s in &self.sources {
            set.extend(s.addrs.iter().copied());
        }
        let mut out: Vec<Ipv6Addr> = set.into_iter().collect();
        out.sort();
        out
    }

    /// Total raw (pre-dedup) collected volume.
    pub fn total_raw(&self) -> u64 {
        self.sources.iter().map(|s| s.raw_count).sum()
    }
}

/// What every collector family boils down to: unique sorted addresses,
/// the raw pre-dedup count, and domain statistics where there are any.
type Collected = (Vec<Ipv6Addr>, u64, Option<DomainStats>);

fn domains(c: DomainCollection) -> Collected {
    (c.addrs, c.raw_count, Some(c.stats))
}

fn hitlist(c: HitlistCollection) -> Collected {
    (c.addrs, c.raw_count, None)
}

/// Route sources collect nothing twice: raw count = unique count.
fn routes(addrs: Vec<Ipv6Addr>) -> Collected {
    let raw_count = addrs.len() as u64;
    (addrs, raw_count, None)
}

/// Run every collector against the world.
pub fn collect_all(world: &World, cfg: CollectorConfig) -> SeedCollection {
    let seed = cfg.seed;
    let sources = SourceId::ALL
        .into_iter()
        .map(|id| {
            let (addrs, raw_count, domain_stats) = match id {
                SourceId::CensysCt => domains(collect_censys_ct(world, seed)),
                SourceId::Rapid7 => domains(collect_rapid7(world, seed)),
                SourceId::Umbrella
                | SourceId::Majestic
                | SourceId::Tranco
                | SourceId::SecRank
                | SourceId::Radar => domains(collect_toplist(world, seed, id)),
                SourceId::CaidaDns => domains(collect_caida_dns(world, seed)),
                SourceId::Scamper => routes(collect_scamper(world, seed)),
                SourceId::RipeAtlas => routes(collect_ripe_atlas(world, seed)),
                SourceId::Hitlist => hitlist(collect_hitlist(world, seed)),
                SourceId::AddrMiner => hitlist(collect_addrminer(world, seed)),
            };
            SourceDataset {
                id,
                addrs,
                raw_count,
                domain_stats,
            }
        })
        .collect();
    SeedCollection { sources }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::WorldConfig;

    fn collection() -> (World, SeedCollection) {
        let w = World::build(WorldConfig::tiny(91));
        let c = collect_all(&w, CollectorConfig::default());
        (w, c)
    }

    #[test]
    fn all_twelve_sources_present_in_order() {
        let (_, c) = collection();
        let ids: Vec<SourceId> = c.sources.iter().map(|s| s.id).collect();
        assert_eq!(ids, SourceId::ALL.to_vec());
    }

    #[test]
    fn every_source_is_nonempty() {
        let (_, c) = collection();
        for s in &c.sources {
            assert!(!s.addrs.is_empty(), "{} collected nothing", s.id);
        }
    }

    #[test]
    fn combined_is_union() {
        let (_, c) = collection();
        let combined = c.combined();
        let max_single = c.sources.iter().map(|s| s.addrs.len()).max().unwrap();
        assert!(combined.len() >= max_single);
        // sorted + dedup
        assert!(combined.windows(2).all(|w| w[0] < w[1]));
        // contains an arbitrary member of each source
        for s in &c.sources {
            assert!(combined.binary_search(&s.addrs[0]).is_ok());
        }
    }

    #[test]
    fn domain_sources_carry_stats() {
        let (_, c) = collection();
        for s in &c.sources {
            match s.id.kind() {
                crate::source::SourceKind::Domain => assert!(s.domain_stats.is_some()),
                _ => assert!(s.domain_stats.is_none()),
            }
        }
    }

    /// Table 3's "Pop." counts every address a source returned before
    /// dedup, so it is never below the unique count: a domain lookup can
    /// return several addresses. Checked on this module's world and on
    /// the world and collector seed of `seedscan --scale tiny`.
    #[test]
    fn raw_count_is_at_least_the_unique_count() {
        let (_, here) = collection();
        let w = World::build(WorldConfig::tiny(0xC0FFEE));
        let tiny = collect_all(
            &w,
            CollectorConfig {
                seed: 0xC0FFEE ^ 0xc0_11ec,
            },
        );
        for s in here.sources.iter().chain(&tiny.sources) {
            assert!(
                s.raw_count >= s.addrs.len() as u64,
                "{}: pop. {} < unique {}",
                s.id,
                s.raw_count,
                s.addrs.len()
            );
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let w = World::build(WorldConfig::tiny(91));
        let a = collect_all(&w, CollectorConfig { seed: 5 });
        let b = collect_all(&w, CollectorConfig { seed: 5 });
        for (x, y) in a.sources.iter().zip(b.sources.iter()) {
            assert_eq!(x.addrs, y.addrs);
        }
        let c = collect_all(&w, CollectorConfig { seed: 6 });
        assert_ne!(
            a.get(SourceId::Hitlist).addrs,
            c.get(SourceId::Hitlist).addrs
        );
    }

    #[test]
    fn size_ordering_resembles_table_3() {
        let (_, c) = collection();
        // hitlists and big domain sources dwarf toplists
        let censys = c.get(SourceId::CensysCt).addrs.len();
        let umbrella = c.get(SourceId::Umbrella).addrs.len();
        let addrminer = c.get(SourceId::AddrMiner).addrs.len();
        assert!(censys > umbrella * 3, "censys {censys} umbrella {umbrella}");
        assert!(
            addrminer > umbrella,
            "addrminer {addrminer} umbrella {umbrella}"
        );
    }
}
