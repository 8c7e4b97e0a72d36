//! 6Graph (Yang et al., 2022): pattern mining with outlier pruning.
//!
//! 6Graph "expanded 6Tree offline, deploying an approach with similar
//! splitting mechanisms to DET" (§2.1): entropy-guided splits build the
//! regions, then each region's seeds are treated as a similarity graph —
//! seeds far (in nybble Hamming distance) from the rest of their region
//! are pruned as outliers before the region's pattern is re-derived.
//! Tighter patterns mean less budget wasted on pattern-breaking noise.

use std::net::Ipv6Addr;

use v6addr::nybble_hamming;

use crate::six_tree::Expansion;
use crate::space_tree::{build_regions, Region, SplitStrategy, MAX_REGIONS};
use crate::{SeedModel, TargetGenerator, TgaId};

/// Stop splitting below this many seeds per leaf.
const MAX_LEAF: usize = 24;
/// Outliers are seeds whose mean Hamming distance to their region exceeds
/// `mean + OUTLIER_SIGMA · stddev`.
const OUTLIER_SIGMA: f64 = 1.5;
/// Exploration probability when sampling (lower than 6Tree: pruned
/// patterns are trusted more).
const EXPLORE: f64 = 0.03;

/// The 6Graph generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SixGraph;

/// Each seed's mean nybble distance to a bounded sample of its peers (the
/// similarity graph's weighted degree), and the cut above which a seed is
/// an outlier: `mean + OUTLIER_SIGMA · stddev` of those distances. Both sums run
/// in seed order; `the_outlier_cut_sums_in_seed_order` pins the cut's
/// bits.
fn outlier_cut(seeds: &[Ipv6Addr]) -> (Vec<f64>, f64) {
    let sample = seeds.len().min(24);
    let dist: Vec<f64> = seeds
        .iter()
        .map(|&n| {
            let total: u32 = seeds
                .iter()
                .take(sample)
                .map(|&m| nybble_hamming(n, m))
                .sum();
            f64::from(total) / sample as f64
        })
        .collect();
    let mean = dist.iter().sum::<f64>() / dist.len() as f64;
    let var = dist.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / dist.len() as f64;
    let cut = mean + OUTLIER_SIGMA * var.sqrt().max(0.25);
    (dist, cut)
}

/// Remove seeds that break the region's pattern; returns the kept seeds,
/// or `None` when the region is too small to judge.
fn prune_outliers(seeds: &[Ipv6Addr]) -> Option<Vec<Ipv6Addr>> {
    if seeds.len() < 4 {
        return None;
    }
    let (dist, cut) = outlier_cut(seeds);
    let kept: Vec<Ipv6Addr> = seeds
        .iter()
        .zip(&dist)
        .filter(|(_, &d)| d <= cut)
        .map(|(&s, _)| s)
        .collect();
    if kept.len() >= 3 {
        Some(kept)
    } else {
        None
    }
}

impl TargetGenerator for SixGraph {
    fn id(&self) -> TgaId {
        TgaId::SixGraph
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        // Each leaf's region is built once, from its pruned seed set.
        let regions = build_regions(
            seeds,
            SplitStrategy::MinEntropy,
            MAX_LEAF,
            MAX_REGIONS,
            |g| Region::from_seeds(prune_outliers(g).as_deref().unwrap_or(g)),
        );
        Box::new(Expansion::new(seeds, regions, EXPLORE, 0x66ea9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenConfig;
    use sos_probe::NullOracle;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn outlier_pruning_drops_the_stray() {
        let mut seeds: Vec<Ipv6Addr> = (1..=10u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        seeds.push(a("2600:bad:1:ffff:dead:beef:1234:5678")); // the stray
        let kept = prune_outliers(&seeds).unwrap();
        assert_eq!(kept.len(), 10, "stray pruned");
        assert!(!kept.contains(&a("2600:bad:1:ffff:dead:beef:1234:5678")));
    }

    #[test]
    fn pruning_keeps_homogeneous_regions_whole() {
        let seeds: Vec<Ipv6Addr> = (1..=10u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        let kept = prune_outliers(&seeds).unwrap();
        assert_eq!(kept.len(), 10);
    }

    /// Float addition does not commute under rounding, so the cut's last
    /// bits depend on the order its two sums run in. They must be the seed
    /// order's, so every run draws the same regions: a sum over a hash
    /// container of the distances moves the bits, though on a test world
    /// it rarely moves a seed across the cut.
    #[test]
    fn the_outlier_cut_sums_in_seed_order() {
        let mut state = 0x6a09_e667_f3bc_c908u64;
        let mut order_sensitive = 0;
        for set in 0..16u128 {
            let seeds: Vec<Ipv6Addr> = (0..40)
                .map(|_| {
                    state = v6addr::splitmix::splitmix64(state);
                    Ipv6Addr::from((0x2600_0bad_0000_0000u128 | set) << 64 | u128::from(state))
                })
                .collect();
            let (dist, cut) = outlier_cut(&seeds);
            let n = dist.len() as f64;
            let in_order = |dist: &[f64]| {
                let mut sum = 0.0;
                for d in dist {
                    sum += d;
                }
                let mean = sum / n;
                let mut squares = 0.0;
                for d in dist {
                    squares += (d - mean).powi(2);
                }
                mean + OUTLIER_SIGMA * (squares / n).sqrt().max(0.25)
            };
            assert_eq!(cut.to_bits(), in_order(&dist).to_bits(), "seed set {set}");
            let reversed: Vec<f64> = dist.iter().rev().copied().collect();
            order_sensitive += usize::from(in_order(&reversed).to_bits() != cut.to_bits());
        }
        // the pin has teeth: on most sets another order moves the bits
        assert!(
            order_sensitive >= 8,
            "{order_sensitive}/16 sets are order-sensitive"
        );
    }

    #[test]
    fn tiny_regions_are_not_judged() {
        assert!(prune_outliers(&[a("::1"), a("::2")]).is_none());
    }

    #[test]
    fn fills_budget_uniquely() {
        let seeds: Vec<Ipv6Addr> = (1..=40u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (i * 3)))
            .collect();
        let mut g = SixGraph;
        let out = g.generate(
            &seeds,
            &GenConfig::new(1500, 9, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1500);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1500);
    }

    #[test]
    fn budget_concentrates_in_the_pruned_pattern() {
        // seeds: a dense low-byte subnet plus scattered high-IID noise in
        // the same /64; after pruning, the bulk of the budget must land in
        // the dense low-IID space rather than the noise's huge free space.
        let mut seeds: Vec<Ipv6Addr> = (1..=30u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        for i in 1..=6u128 {
            seeds.push(Ipv6Addr::from(
                0x2600_0bad_0001_0000_0000_0000_0000_0000u128
                    | ((i * 0x1111_2222_3333) << 16)
                    | 0xffff,
            ));
        }
        // budget sized to the pruned pattern's capacity
        let cfg = GenConfig::new(40, 3, netmodel::Protocol::Icmp);
        let out = SixGraph.generate(&seeds, &cfg, &mut NullOracle::default());
        let in_dense = out
            .iter()
            .filter(|&&x| {
                u128::from(x) >> 64 == 0x2600_0bad_0001_0000u128
                    && (u128::from(x) as u64) < 0x1_0000_0000
            })
            .count();
        assert!(
            in_dense as f64 > 0.6 * out.len() as f64,
            "{in_dense}/{} in the dense low-IID space",
            out.len()
        );
    }

    #[test]
    fn deterministic() {
        let seeds: Vec<Ipv6Addr> = (1..=20u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        let cfg = GenConfig::new(200, 11, netmodel::Protocol::Icmp);
        let a1 = SixGraph.generate(&seeds, &cfg, &mut NullOracle::default());
        let a2 = SixGraph.generate(&seeds, &cfg, &mut NullOracle::default());
        assert_eq!(a1, a2);
    }
}
