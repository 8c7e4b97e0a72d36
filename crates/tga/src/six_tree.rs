//! 6Tree (Liu et al., 2019): divisive hierarchical space tree expansion.
//!
//! 6Tree "creates an address tree, splitting hierarchically on address
//! nybbles from the higher granularity prefixes down. It then generates
//! addresses by expanding variable nodes" (§2.1). It is an offline
//! generator: regions are ranked by seed density and their free dimensions
//! expanded — exhaustively for small regions, by pattern-weighted sampling
//! for large ones — with budget allocated proportionally to density.

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;

use crate::sink::{Candidates, Tag};
use crate::space_tree::{
    batch_rng, build_regions, Ledger, Region, SplitStrategy, Sweep, MAX_REGIONS,
};
use crate::{GenConfig, SeedModel, TargetGenerator, TgaId};

/// Stop splitting below this many seeds per leaf.
const MAX_LEAF: usize = 16;
/// Exploration probability when sampling large regions.
const EXPLORE: f64 = 0.06;

/// The 6Tree generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SixTree;

/// The offline tree family's model (6Tree, 6Graph): leaf regions in
/// density order, densest first.
///
/// Generation walks them in that order, exhaustively enumerating small
/// ones and sampling large ones, until `budget` unique candidates exist.
/// Provenance: each candidate is tagged with its region's index in
/// density order, the region's member digest, and the expansion pass
/// (0 = quota pass, 1.. = round-robin passes). Each region batch draws on
/// its own [`batch_rng`], keyed by that pass and index.
pub(crate) struct Expansion<'a> {
    seeds: &'a [Ipv6Addr],
    regions: Vec<Region>,
    explore: f64,
    /// XORed into the run's RNG seed: one per TGA.
    salt: u64,
}

impl<'a> Expansion<'a> {
    pub(crate) fn new(
        seeds: &'a [Ipv6Addr],
        mut regions: Vec<Region>,
        explore: f64,
        salt: u64,
    ) -> Self {
        regions.sort_by(|a, b| b.density().total_cmp(&a.density()));
        Expansion {
            seeds,
            regions,
            explore,
            salt,
        }
    }
}

impl SeedModel for Expansion<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let (regions, budget, explore) = (&self.regions, cfg.budget, self.explore);
        let seed = cfg.seed ^ self.salt;
        let total_seeds: usize = regions.iter().map(|r| r.seed_count).sum::<usize>().max(1);
        let mut sink = Candidates::new(budget, prov);

        // Pass 0: density-proportional quotas, one batch per region, each
        // opening the region's one stream; the 512 densest keep theirs.
        let mut streams = Vec::new();
        for (ri, r) in regions.iter().enumerate() {
            if sink.room() == 0 {
                break;
            }
            let quota = (budget * r.seed_count / total_seeds).max(4);
            let mut stream = Stream::open(r, quota.min(sink.room()));
            let mut rng = batch_rng(seed, r.digest, 0, ri);
            let tag = Tag::new(ri, r.digest, 0);
            stream.emit(r, quota, explore, &mut rng, &mut sink, tag);
            if ri < 512 {
                streams.push(stream);
            }
        }
        // Passes 1..=8: round-robin over those regions for leftover budget,
        // each batch continuing its region's stream.
        for pass in 1..=8 {
            for ((ri, r), stream) in regions.iter().enumerate().zip(&mut streams) {
                if sink.room() == 0 {
                    break;
                }
                let quota = (sink.room() / 64).clamp(1, 256);
                let mut rng = batch_rng(seed, r.digest, pass, ri);
                let tag = Tag::new(ri, r.digest, pass);
                stream.emit(r, quota, explore, &mut rng, &mut sink, tag);
            }
        }
        sink.finish(self.seeds, &mut SmallRng::seed_from_u64(seed))
    }
}

/// One region's addresses for the whole run: a small space swept in
/// order, a large one drawn without replacement over its ledger. Every
/// batch continues where the last stopped, so nothing is offered twice.
enum Stream {
    Sweep(Sweep),
    Ledger(Ledger),
}

impl Stream {
    /// The stream for `r`, whose first batch wants `quota`: a sweep when
    /// the whole space is small (16^free ≤ 4 × quota), else a draw.
    fn open(r: &Region, quota: usize) -> Stream {
        if 16f64.powi(r.pattern.free_count() as i32) <= quota as f64 * 4.0 {
            Stream::Sweep(r.sweep())
        } else {
            Stream::Ledger(Ledger::default())
        }
    }

    /// Emit up to `quota` fresh addresses of `r` (at most the room).
    fn emit(
        &mut self,
        r: &Region,
        quota: usize,
        explore: f64,
        rng: &mut SmallRng,
        sink: &mut Candidates<'_>,
        tag: Tag,
    ) {
        match self {
            Stream::Sweep(sweep) => {
                let mut left = quota.min(sink.room());
                while left > 0 {
                    let Some(a) = sweep.next() else {
                        break;
                    };
                    left -= usize::from(sink.push(a, tag));
                }
            }
            Stream::Ledger(ledger) => {
                sink.draw_region(r, ledger, quota, explore, rng, tag);
            }
        }
    }
}

impl TargetGenerator for SixTree {
    fn id(&self) -> TgaId {
        TgaId::SixTree
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        let regions = build_regions(
            seeds,
            SplitStrategy::Leftmost,
            MAX_LEAF,
            MAX_REGIONS,
            Region::from_seeds,
        );
        Box::new(Expansion::new(seeds, regions, EXPLORE, 0x67ee))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::work_done;
    use sos_probe::NullOracle;

    fn dense_seeds() -> Vec<Ipv6Addr> {
        // three /64 subnets with low-byte hosts 1..=12
        let mut v = Vec::new();
        for subnet in [0x10u128, 0x20, 0x30] {
            for host in 1..=12u128 {
                v.push(Ipv6Addr::from(
                    0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (subnet << 64) | host,
                ));
            }
        }
        v
    }

    #[test]
    fn fills_budget_with_unique_addresses() {
        let mut g = SixTree;
        let out = g.generate(
            &dense_seeds(),
            &GenConfig::new(2000, 7, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 2000);
        let mut uniq: Vec<u128> = out.iter().map(|&a| u128::from(a)).collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 2000);
    }

    #[test]
    fn expands_the_seed_subnets_first() {
        let seeds = dense_seeds();
        let mut g = SixTree;
        let out = g.generate(
            &seeds,
            &GenConfig::new(300, 7, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        // most generated addresses stay inside the seeds' /48
        let in_site = out
            .iter()
            .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0001u128)
            .count();
        assert!(
            in_site as f64 > 0.7 * out.len() as f64,
            "{in_site}/{} inside the site",
            out.len()
        );
        // and it discovers low-byte siblings beyond the observed 12 hosts
        let sibling =
            Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (0x10u128 << 64) | 0xd);
        assert!(out.contains(&sibling), "sibling ::d should be generated");
    }

    /// Each region batch draws without replacement, so an address costs
    /// at most one wasted draw per ledger: the draws (sweeps included) stay
    /// within twice the accepted candidates, on the dense seeds and on
    /// seeds spread over four free nybbles.
    #[test]
    fn draws_stay_within_twice_the_accepted_candidates() {
        let spread: Vec<Ipv6Addr> = (1..=200u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0004u128 << 80 | (i % 5) << 64 | (i * 0x1f3d)))
            .collect();
        for seeds in [dense_seeds(), spread] {
            for budget in [300, 2_000, 10_000] {
                let before = work_done();
                let out = SixTree.generate(
                    &seeds,
                    &GenConfig::new(budget, 7, netmodel::Protocol::Icmp),
                    &mut NullOracle::default(),
                );
                let work = work_done().since(before);
                let accepted = out.len() as u64 - work.fill;
                assert!(
                    accepted > 0 && work.draws <= 2 * accepted,
                    "{budget}: {work:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let seeds = dense_seeds();
        let mut g1 = SixTree;
        let mut g2 = SixTree;
        let cfg = GenConfig::new(500, 42, netmodel::Protocol::Icmp);
        let a = g1.generate(&seeds, &cfg, &mut NullOracle::default());
        let b = g2.generate(&seeds, &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn offline_generator_never_probes() {
        let mut g = SixTree;
        let mut oracle = NullOracle::default();
        g.generate(
            &dense_seeds(),
            &GenConfig::new(100, 1, netmodel::Protocol::Icmp),
            &mut oracle,
        );
        assert_eq!(sos_probe::ScanOracle::packets_sent(&oracle), 0);
    }

    #[test]
    fn empty_seeds_still_fill_budget() {
        let mut g = SixTree;
        let out = g.generate(
            &[],
            &GenConfig::new(64, 1, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 64);
    }
}
