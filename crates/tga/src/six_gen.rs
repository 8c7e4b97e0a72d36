//! 6Gen (Murdock et al., IMC 2017): cluster seeds into tight ranges and
//! enumerate the densest ones.
//!
//! 6Gen "followed with a clustering approach for pattern discovery" (§2.1):
//! seeds that agree on most nybbles form clusters, each cluster defines a
//! nybble *range*, and generation exhaustively enumerates ranges in
//! density order (seeds per unit of range size). Unlike the tree family,
//! 6Gen does not sample — it sweeps ranges systematically, which is why it
//! contributes unique complete-subnet hits in the paper's RQ4 (Figure 6).
//!
//! Clustering here operates at two granularities: per-/64 clusters (the
//! IID ranges) and per-/48 clusters (subnet ranges), enumerated densest
//! first.

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;
use v6addr::AddrMap;

use crate::sink::{Candidates, Tag};
use crate::space_tree::{Region, Sweep};
use crate::{GenConfig, SeedModel, TargetGenerator, TgaId};

/// Minimum seeds for a /64 cluster to be enumerated on its own.
const MIN_CLUSTER: usize = 2;
/// Cap on clusters considered.
const MAX_CLUSTERS: usize = 1 << 17;

/// The 6Gen generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SixGen;

/// Group addresses by a prefix-length-64 or -48 key.
fn group_by(seeds: &[Ipv6Addr], shift: u32) -> AddrMap<u128, Vec<Ipv6Addr>> {
    let mut map: AddrMap<u128, Vec<Ipv6Addr>> = AddrMap::default();
    for &s in seeds {
        map.entry(u128::from(s) >> shift).or_default().push(s);
    }
    map
}

impl TargetGenerator for SixGen {
    fn id(&self) -> TgaId {
        TgaId::SixGen
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        // Tier 1: /64 clusters (IID ranges). Tier 2: /48 clusters (subnet
        // ranges) for seeds whose /64 cluster is a singleton.
        let mut clusters: Vec<Region> = Vec::new();
        // Hash-table iteration order is arbitrary; sort by key so clustering
        // is deterministic across runs.
        let mut by64: Vec<(u128, Vec<Ipv6Addr>)> = group_by(seeds, 64).into_iter().collect();
        by64.sort_by_key(|(k, _)| *k);
        let mut singles: Vec<Ipv6Addr> = Vec::new();
        for (_, members) in by64 {
            if members.len() >= MIN_CLUSTER {
                clusters.push(Region::from_seeds(&members));
            } else {
                singles.extend(members);
            }
        }
        let mut by48: Vec<(u128, Vec<Ipv6Addr>)> = group_by(&singles, 80).into_iter().collect();
        by48.sort_by_key(|(k, _)| *k);
        for (_, members) in by48 {
            clusters.push(Region::from_seeds(&members));
        }
        clusters.truncate(MAX_CLUSTERS);

        // Density order: tightest ranges first (range size = observed
        // value-set product, approximated by the region's free space
        // restricted to observed values).
        let mut clusters: Vec<(Region, f64)> = clusters
            .into_iter()
            .map(|c| {
                let range_size: f64 = c
                    .distinct_values()
                    .map(|d| (d.max(1) as f64).min(16.0))
                    .product();
                let density = c.seed_count as f64 / range_size;
                (c, density)
            })
            .collect();
        clusters.sort_by(|a, b| b.1.total_cmp(&a.1));
        Box::new(Fitted { seeds, clusters })
    }
}

/// 6Gen's model: the seed clusters in density order, each with its
/// density (seeds per unit of range size).
struct Fitted<'a> {
    seeds: &'a [Ipv6Addr],
    clusters: Vec<(Region, f64)>,
}

impl SeedModel for Fitted<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x69e4);
        let mut sink = Candidates::new(cfg.budget, prov);

        // Exhaustive sweeps with a growing per-cluster horizon: the first
        // shallow pass touches every cluster the budget can reach in
        // density order; later passes push the enumeration deeper into
        // adjacent values of the densest ranges. A cluster's sweep is made
        // when a pass first reaches it and continues on each later pass,
        // beside the count of addresses it has offered; an exhausted sweep
        // yields nothing.
        let mut horizon = 16usize;
        let mut sweeps: Vec<Option<Box<(Sweep, usize)>>> = vec![None; self.clusters.len()];
        for pass in 0..8 {
            for (ci, ((c, density), at)) in self.clusters.iter().zip(&mut sweeps).enumerate() {
                if sink.room() == 0 {
                    break;
                }
                // 6Gen is depth-first in density order: diffuse clusters
                // (stray singletons grouped at /48) only see budget after
                // the dense ranges are exhausted.
                if pass < 3 && *density < 1e-3 {
                    continue;
                }
                let limit = horizon.min(sink.room() * 2 + 16);
                let (sweep, offered) = &mut **at.get_or_insert_with(|| Box::new((c.sweep(), 0)));
                // Provenance: cluster index in density order, digest of
                // the cluster's member seeds, round = sweep pass.
                let tag = Tag::new(ci, c.digest, pass);
                while *offered < limit && sink.room() > 0 {
                    let Some(a) = sweep.next() else {
                        break;
                    };
                    *offered += 1;
                    sink.push(a, tag);
                }
            }
            horizon *= 8;
        }

        sink.finish(self.seeds, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::work_done;
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn subnet_seeds() -> Vec<Ipv6Addr> {
        // a /64 with hosts ::1, ::2, ::3 observed (of a real ::1..::30)
        [1u128, 2, 3]
            .iter()
            .map(|&i| Ipv6Addr::from(0x2600_0bad_0003_0000_0000_0000_0000_0000u128 | i))
            .collect()
    }

    #[test]
    fn enumerates_the_complete_low_byte_range() {
        let out = SixGen.generate(
            &subnet_seeds(),
            &GenConfig::new(64, 1, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        // The full ::0..::f sweep of the last nybble must be present — the
        // systematic completeness that gives 6Gen its unique hits.
        for host in 0..16u128 {
            let want = Ipv6Addr::from(0x2600_0bad_0003_0000_0000_0000_0000_0000u128 | host);
            assert!(out.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixGen.generate(
            &subnet_seeds(),
            &GenConfig::new(3000, 1, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 3000);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3000);
    }

    /// Each cluster's sweep continues across passes, so clusters with
    /// disjoint ranges offer no address twice: every draw is a candidate,
    /// whether the budget stops the sweeps or the fill ends them.
    #[test]
    fn disjoint_clusters_draw_only_their_candidates() {
        let seeds: Vec<Ipv6Addr> = [0x10u128, 0x20]
            .into_iter()
            .flat_map(|subnet| {
                [0x11u128, 0x22, 0x33]
                    .map(|host| Ipv6Addr::from(0x2600_0bad_0006u128 << 80 | subnet << 64 | host))
            })
            .collect();
        for budget in [40, 300, 600] {
            let before = work_done();
            let out = SixGen.generate(
                &seeds,
                &GenConfig::new(budget, 5, Protocol::Icmp),
                &mut NullOracle::default(),
            );
            let work = work_done().since(before);
            assert_eq!(out.len(), budget);
            assert_eq!(work.draws, budget as u64 - work.fill, "{budget}: {work:?}");
        }
    }

    #[test]
    fn densest_cluster_enumerated_first() {
        let mut seeds = subnet_seeds(); // dense cluster

        // sparse cluster: two far-apart IIDs in another /64
        seeds.push("2600:bad:4::1111:0:1".parse().unwrap());
        seeds.push("2600:bad:4::ffff:0:9".parse().unwrap());
        let out = SixGen.generate(
            &seeds,
            &GenConfig::new(20, 2, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let dense_hits = out
            .iter()
            .filter(|&&a| u128::from(a) >> 64 == 0x2600_0bad_0003_0000u128)
            .count();
        assert!(
            dense_hits > out.len() / 2,
            "dense cluster first: {dense_hits}/{}",
            out.len()
        );
    }

    #[test]
    fn offline_and_deterministic() {
        let mut oracle = NullOracle::default();
        let cfg = GenConfig::new(500, 3, Protocol::Icmp);
        let a = SixGen.generate(&subnet_seeds(), &cfg, &mut oracle);
        assert_eq!(ScanOracle::packets_sent(&oracle), 0);
        let b = SixGen.generate(&subnet_seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_seeds_cluster_at_subnet_level() {
        // single seeds in sibling /64s of one /48: the /48-level cluster
        // should generate into both observed and nearby subnets
        let seeds: Vec<Ipv6Addr> = (0..6u128)
            .map(|s| Ipv6Addr::from(0x2600_0bad_0005_0000_0000_0000_0000_0000u128 | s << 64 | 1))
            .collect();
        let out = SixGen.generate(
            &seeds,
            &GenConfig::new(200, 4, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let in_site = out
            .iter()
            .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0005u128)
            .count();
        assert!(in_site > 100, "{in_site} in the /48 site");
    }
}
