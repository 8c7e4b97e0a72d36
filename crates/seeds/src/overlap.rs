//! Source overlap analysis (Figures 1–2).
//!
//! Figure 1 shows, for every pair of sources, what fraction of the row
//! source's addresses (and ASes) also appear in the column source, plus an
//! "Overlap" column: the fraction present in *any* other source. Figure 2
//! repeats the analysis on the responsive subset.

use std::collections::HashSet;
use std::net::Ipv6Addr;

use netmodel::{Asn, World};
use v6addr::{AddrMap, AddrSet};

use crate::source::SourceId;

/// Pairwise and any-other overlap of sources, by IP and by AS.
#[derive(Debug, Clone)]
pub struct OverlapMatrix {
    /// Row/column order.
    pub labels: Vec<SourceId>,
    /// `ip[i][j]` = fraction of source i's addresses present in source j.
    pub ip: Vec<Vec<f64>>,
    /// `as_[i][j]` = fraction of source i's ASes present in source j.
    pub as_: Vec<Vec<f64>>,
    /// Fraction of source i's addresses present in ≥1 other source.
    pub ip_any_other: Vec<f64>,
    /// Fraction of source i's ASes present in ≥1 other source.
    pub as_any_other: Vec<f64>,
    /// Unique address count per source.
    pub ip_counts: Vec<usize>,
    /// Distinct AS count per source.
    pub as_counts: Vec<usize>,
}

impl OverlapMatrix {
    /// Compute the matrix for the given per-source address sets.
    pub fn compute(world: &World, sources: &[(SourceId, Vec<Ipv6Addr>)]) -> OverlapMatrix {
        let n = sources.len();
        let ip_sets: Vec<AddrSet<u128>> = sources
            .iter()
            .map(|(_, addrs)| addrs.iter().map(|&a| u128::from(a)).collect())
            .collect();
        // Cache AS lookups: sources share many addresses.
        let mut asn_cache: AddrMap<u128, Option<Asn>> = AddrMap::default();
        let as_sets: Vec<HashSet<Asn>> = sources
            .iter()
            .map(|(_, addrs)| {
                addrs
                    .iter()
                    .filter_map(|&a| {
                        *asn_cache
                            .entry(u128::from(a))
                            .or_insert_with(|| world.asn_of(a))
                    })
                    .collect()
            })
            .collect();

        let frac = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };

        let mut ip = vec![vec![0.0; n]; n];
        let mut as_ = vec![vec![0.0; n]; n];
        let mut ip_any = vec![0.0; n];
        let mut as_any = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                let ip_common = ip_sets[i].intersection(&ip_sets[j]).count(); // i, j < n: all sets/matrices sized n
                ip[i][j] = frac(ip_common, ip_sets[i].len());
                let as_common = as_sets[i].intersection(&as_sets[j]).count(); // i, j < n
                as_[i][j] = frac(as_common, as_sets[i].len());
            }
            let in_other_ip = ip_sets[i] // i < n
                .iter()
                .filter(|x| (0..n).any(|j| j != i && ip_sets[j].contains(*x))) // j < n
                .count();
            ip_any[i] = frac(in_other_ip, ip_sets[i].len()); // i < n; vectors sized n
            let in_other_as = as_sets[i]
                .iter()
                .filter(|x| (0..n).any(|j| j != i && as_sets[j].contains(*x))) // j < n
                .count();
            as_any[i] = frac(in_other_as, as_sets[i].len()); // i < n
        }

        OverlapMatrix {
            labels: sources.iter().map(|(id, _)| *id).collect(),
            ip,
            as_,
            ip_any_other: ip_any,
            as_any_other: as_any,
            ip_counts: ip_sets.iter().map(AddrSet::len).collect(),
            as_counts: as_sets.iter().map(HashSet::len).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_all, CollectorConfig};
    use netmodel::WorldConfig;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn diagonal_is_one_and_bounds_hold() {
        let w = World::build(WorldConfig::tiny(95));
        let c = collect_all(&w, CollectorConfig::default());
        let sources: Vec<(SourceId, Vec<Ipv6Addr>)> =
            c.sources.iter().map(|s| (s.id, s.addrs.clone())).collect();
        let m = OverlapMatrix::compute(&w, &sources);
        for i in 0..m.labels.len() {
            assert!((m.ip[i][i] - 1.0).abs() < 1e-12);
            assert!((m.as_[i][i] - 1.0).abs() < 1e-12);
            for j in 0..m.labels.len() {
                assert!((0.0..=1.0).contains(&m.ip[i][j]));
                assert!((0.0..=1.0).contains(&m.as_[i][j]));
            }
            assert!((0.0..=1.0).contains(&m.ip_any_other[i]));
        }
    }

    #[test]
    fn any_other_at_least_max_pairwise() {
        let w = World::build(WorldConfig::tiny(95));
        let c = collect_all(&w, CollectorConfig::default());
        let sources: Vec<(SourceId, Vec<Ipv6Addr>)> =
            c.sources.iter().map(|s| (s.id, s.addrs.clone())).collect();
        let m = OverlapMatrix::compute(&w, &sources);
        for i in 0..m.labels.len() {
            let max_pair = (0..m.labels.len())
                .filter(|&j| j != i)
                .map(|j| m.ip[i][j])
                .fold(0.0f64, f64::max);
            assert!(m.ip_any_other[i] >= max_pair - 1e-12);
        }
    }

    #[test]
    fn disjoint_sets_have_zero_overlap() {
        let w = World::build(WorldConfig::tiny(95));
        let s1 = (SourceId::Tranco, vec![a("2001:db8::1")]);
        let s2 = (SourceId::Radar, vec![a("2001:db9::1")]);
        let m = OverlapMatrix::compute(&w, &[s1, s2]);
        assert_eq!(m.ip[0][1], 0.0);
        assert_eq!(m.ip_any_other[0], 0.0);
    }

    #[test]
    fn identical_sets_fully_overlap() {
        let w = World::build(WorldConfig::tiny(95));
        let addrs = vec![a("2001:db8::1"), a("2001:db8::2")];
        let m = OverlapMatrix::compute(
            &w,
            &[(SourceId::Tranco, addrs.clone()), (SourceId::Radar, addrs)],
        );
        assert_eq!(m.ip[0][1], 1.0);
        assert_eq!(m.ip_any_other[1], 1.0);
    }

    #[test]
    fn traceroute_sources_dominate_as_coverage() {
        // The paper's core Figure 1 observation: Scamper/RIPE cover nearly
        // every AS while domain sources overlap heavily.
        let w = World::build(WorldConfig::tiny(95));
        let c = collect_all(&w, CollectorConfig::default());
        let sources: Vec<(SourceId, Vec<Ipv6Addr>)> =
            c.sources.iter().map(|s| (s.id, s.addrs.clone())).collect();
        let m = OverlapMatrix::compute(&w, &sources);
        let idx = |id: SourceId| m.labels.iter().position(|&l| l == id).unwrap();
        let scamper_ases = m.as_counts[idx(SourceId::Scamper)];
        let umbrella_ases = m.as_counts[idx(SourceId::Umbrella)];
        assert!(
            scamper_ases > umbrella_ases * 2,
            "scamper {scamper_ases} vs umbrella {umbrella_ases}"
        );
    }
}
