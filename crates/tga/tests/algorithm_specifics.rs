//! Algorithm-specific behavioral tests — the distinguishing mechanism of
//! each TGA, verified in isolation (the contract tests cover what they
//! share; these cover what makes each one itself).

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::{NullOracle, ScanOracle};
use tga::{build, GenConfig, Region, SplitStrategy, TgaId};

fn addr(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

const SITE: u128 = 0x2600_0abc_0001_0000_0000_0000_0000_0000;

/// 6Tree: density-proportional allocation — a region with 4× the seeds
/// gets (roughly) 4× the early budget.
#[test]
fn six_tree_allocates_by_density() {
    let mut seeds = Vec::new();
    for i in 1..=40u128 {
        seeds.push(addr(SITE | (1 << 64) | i)); // dense /64
    }
    for i in 1..=10u128 {
        seeds.push(addr(SITE | (2 << 64) | i)); // sparse /64
    }
    let out = build(TgaId::SixTree).generate(
        &seeds,
        &GenConfig::new(200, 3, Protocol::Icmp),
        &mut NullOracle::default(),
    );
    let in_subnet = |s: u128| {
        out.iter()
            .filter(|&&a| u128::from(a) >> 64 == (SITE | (s << 64)) >> 64)
            .count()
    };
    let dense = in_subnet(1);
    let sparse = in_subnet(2);
    assert!(
        dense > 2 * sparse,
        "density-proportional budget: dense {dense} vs sparse {sparse}"
    );
}

/// 6Gen: completeness — within a tight range, *every* address is emitted
/// before the budget wanders elsewhere (the tree samplers do not promise
/// this; 6Gen's enumeration does).
#[test]
fn six_gen_is_complete_on_tight_ranges() {
    let seeds: Vec<Ipv6Addr> = [1u128, 3, 7].iter().map(|&i| addr(SITE | i)).collect();
    let out = build(TgaId::SixGen).generate(
        &seeds,
        &GenConfig::new(16, 9, Protocol::Icmp),
        &mut NullOracle::default(),
    );
    for host in 0..16u128 {
        assert!(out.contains(&addr(SITE | host)), "missing ::{host:x}");
    }
}

/// Entropy/IP: the model emits only mined segment values for low-entropy
/// positions — the fixed prefix never mutates.
#[test]
fn entropy_ip_respects_constant_segments() {
    let seeds: Vec<Ipv6Addr> = (1..=30u128).map(|i| addr(SITE | (i * 5))).collect();
    let out = build(TgaId::EntropyIp).generate(
        &seeds,
        &GenConfig::new(500, 4, Protocol::Icmp),
        &mut NullOracle::default(),
    );
    // EIP output before mutation-fill dominates; the constant /48 prefix
    // must be preserved in the overwhelming majority of candidates.
    let preserved = out
        .iter()
        .filter(|&&a| u128::from(a) >> 80 == SITE >> 80)
        .count();
    assert!(
        preserved as f64 > 0.9 * out.len() as f64,
        "{preserved}/{} preserve the constant prefix",
        out.len()
    );
}

/// DET: widening — when a leaf's space is exhausted, DET expands the
/// region upward instead of stopping, so its output eventually escapes
/// the seeds' /64 into sibling space (which pure leaf samplers never do).
#[test]
fn det_widens_beyond_exhausted_leaves() {
    // a single tiny leaf: 4 seeds varying only in the last nybble
    let seeds: Vec<Ipv6Addr> = (1..=4u128).map(|i| addr(SITE | i)).collect();
    struct CountOracle(u64);
    impl ScanOracle for CountOracle {
        fn probe(&mut self, _a: Ipv6Addr, _p: Protocol) -> bool {
            self.0 += 1;
            false
        }
        fn packets_sent(&self) -> u64 {
            self.0
        }
    }
    let out = build(TgaId::Det).generate(
        &seeds,
        &GenConfig::new(600, 5, Protocol::Icmp),
        &mut CountOracle(0),
    );
    // escape the exhausted last-nybble space, but stay near the pattern
    let outside_leaf = out
        .iter()
        .filter(|&&a| u128::from(a) & !0xffu128 != SITE && u128::from(a) >> 80 == SITE >> 80)
        .count();
    assert!(
        outside_leaf > 50,
        "widening should explore nearby space: {outside_leaf}"
    );
}

/// Region widening mechanics directly.
#[test]
fn region_widening_frees_low_nybbles_first_and_stops_at_the_48() {
    let seeds: Vec<Ipv6Addr> = (1..=4u128).map(|i| addr(SITE | i)).collect();
    let mut region = Region::from_seeds(&seeds);
    let mut frees = vec![region.pattern.free_count()];
    while let Some(w) = region.widened() {
        region = w;
        frees.push(region.pattern.free_count());
    }
    // each widening frees exactly one more dimension
    for w in frees.windows(2) {
        assert_eq!(w[1], w[0] + 1);
    }
    // stops at the /48 boundary: positions 0..12 stay fixed
    assert_eq!(region.pattern.free_count(), 32 - 12);
    for i in 0..12 {
        assert!(
            region.pattern.fixed(i).is_some(),
            "nybble {i} must stay pinned"
        );
    }
}

/// 6Sense: hierarchical sampling stays inside the arm's /48 except for
/// the deliberate new-subnet synthesis, which still reuses observed
/// subnet nybble values.
#[test]
fn six_sense_output_is_dominated_by_observed_48s() {
    let mut seeds = Vec::new();
    for site in [0x1u128, 0x2] {
        for i in 1..=20u128 {
            seeds.push(addr(SITE | (site << 80) | (1 << 64) | i));
        }
    }
    let out = build(TgaId::SixSense).generate(
        &seeds,
        &GenConfig::new(1000, 6, Protocol::Icmp),
        &mut NullOracle::default(),
    );
    let in_sites = out
        .iter()
        .filter(|&&a| {
            let hi = u128::from(a) >> 80;
            hi == (SITE | (0x1 << 80)) >> 80 || hi == (SITE | (0x2 << 80)) >> 80
        })
        .count();
    assert!(
        in_sites as f64 > 0.8 * out.len() as f64,
        "{in_sites}/{} inside the two observed /48s",
        out.len()
    );
}

/// 6Hit vs 6Tree divergence: identical seeds, a responsive oracle — the
/// online model's output distribution must differ from the offline one's
/// (reinforcement reallocates budget; 6Tree cannot).
#[test]
fn online_feedback_changes_the_output_distribution() {
    // 4 096-address leaves: each /64's hosts spread over three nybbles
    let mut seeds = Vec::new();
    for s in 0..4u128 {
        for i in 1..=12u128 {
            seeds.push(addr(SITE | (s << 64) | (i * 0x123)));
        }
    }
    struct HotSubnet;
    impl ScanOracle for HotSubnet {
        fn probe(&mut self, a: Ipv6Addr, _p: Protocol) -> bool {
            (u128::from(a) >> 64) & 0xf == 2
        }
        fn packets_sent(&self) -> u64 {
            0
        }
    }
    // two of 6Hit's 2 048-probe rounds, so the second is divided by
    // reward; the hot leaf alone could hold the whole budget
    let cfg = GenConfig::new(2 * 2048, 8, Protocol::Icmp);
    let hit_out = build(TgaId::SixHit).generate(&seeds, &cfg, &mut HotSubnet);
    let tree_out = build(TgaId::SixTree).generate(&seeds, &cfg, &mut NullOracle::default());
    let hot = |out: &[Ipv6Addr]| {
        out.iter()
            .filter(|&&a| (u128::from(a) >> 64) & 0xf == 2)
            .count()
    };
    assert!(
        hot(&hit_out) as f64 > 1.3 * hot(&tree_out) as f64,
        "6Hit {} vs 6Tree {} in the hot subnet",
        hot(&hit_out),
        hot(&tree_out)
    );
}

/// Split strategies really differ on structured input.
#[test]
fn split_strategies_partition_differently() {
    let mut seeds = Vec::new();
    for hi in 0..8u128 {
        for lo in [0u128, 1] {
            seeds.push(addr(SITE | (hi << 20) | lo));
        }
    }
    let build =
        |strategy| tga::space_tree::build_regions(&seeds, strategy, 2, 1 << 10, Region::from_seeds);
    let (left, entropy) = (
        build(SplitStrategy::Leftmost),
        build(SplitStrategy::MinEntropy),
    );
    let patterns = |rs: &[Region]| {
        let mut v: Vec<usize> = rs.iter().map(|r| r.pattern.free_count()).collect();
        v.sort();
        v
    };
    // both partition all seeds…
    assert_eq!(
        left.iter().map(|r| r.seed_count).sum::<usize>(),
        seeds.len()
    );
    assert_eq!(
        entropy.iter().map(|r| r.seed_count).sum::<usize>(),
        seeds.len()
    );
    // …but the leaf shapes differ
    assert_ne!(patterns(&left), patterns(&entropy));
}
