//! 6Hit (Hou et al., INFOCOM 2021): reinforcement-learning budget division.
//!
//! 6Hit was "the first fully online model ... targeting active tree nodes
//! with reinforcement learning and periodically recreating the tree"
//! (§2.1). Each round divides the probe budget across regions
//! proportionally to a sharpened reward estimate (hit-rate^α) — pure
//! exploitation pressure, with a small uniform floor for exploration. The
//! sharp allocation is why 6Hit is notably alias-prone (Table 4): once an
//! aliased region starts "hitting", reinforcement pours budget into it.

use std::borrow::Cow;
use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;

use crate::sink::{probe_round, Candidates, Tag};
use crate::space_tree::{batch_rng, build_regions, Ledger, Region, SplitStrategy, MAX_REGIONS};
use crate::{GenConfig, SeedModel, TargetGenerator, TgaId};

/// Leaf size for the space tree.
const MAX_LEAF: usize = 16;
/// Total probes per allocation round.
const ROUND_BUDGET: usize = 2048;
/// Reward sharpening exponent α (higher = greedier).
const ALPHA: f64 = 2.0;
/// Uniform exploration floor added to every region's weight.
const FLOOR: f64 = 0.002;
/// Recreate the tree (from seeds + hits) every this many rounds.
const RECREATE_EVERY: usize = 6;
/// Sampling exploration probability within regions.
const EXPLORE: f64 = 0.05;

/// The 6Hit generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SixHit;

impl TargetGenerator for SixHit {
    fn id(&self) -> TgaId {
        TgaId::SixHit
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        let regions = build_regions(
            seeds,
            SplitStrategy::Leftmost,
            MAX_LEAF,
            MAX_REGIONS,
            Region::from_seeds,
        );
        Box::new(Fitted { seeds, regions })
    }
}

/// 6Hit's model: the seeds' space tree, before any recreation.
struct Fitted<'a> {
    seeds: &'a [Ipv6Addr],
    regions: Vec<Region>,
}

impl SeedModel for Fitted<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let seeds = self.seeds;
        let seed = cfg.seed ^ 0x6417;
        // The fitted tree serves until the first recreation replaces it.
        let mut regions: Cow<'_, [Region]> = Cow::Borrowed(&self.regions);
        let mut q = vec![0.0f64; regions.len()]; // smoothed hit-rate
        let mut ledgers = vec![Ledger::default(); regions.len()]; // what each region's batches took
        let mut sink = Candidates::new(cfg.budget, prov);
        let mut all_hits: Vec<Ipv6Addr> = Vec::new();
        let mut round = 0usize;

        while sink.room() > 0 && !regions.is_empty() {
            round += 1;
            // Budget division: weight_i ∝ (q_i)^α + floor.
            let weights: Vec<f64> = q.iter().map(|&v| v.powf(ALPHA) + FLOOR).collect();
            let wsum: f64 = weights.iter().sum();
            let round_budget = ROUND_BUDGET.min(sink.room());

            let mut progressed = false;
            for (i, (region, ledger)) in regions.iter().zip(&mut ledgers).enumerate() {
                // Shares are rounded, so their sum can pass the round
                // budget: cap each at the room left (0 once full).
                let share = ((weights[i] / wsum) * round_budget as f64).round() as usize; // i < regions.len() == weights.len()
                let share = share.min(sink.room());
                if share == 0 {
                    continue;
                }
                // Provenance: indices reset on tree recreation, the
                // region's member digest is the stable identity.
                let tag = Tag::new(i, region.digest, round);
                let mut rng = batch_rng(seed, region.digest, round, i);
                let batch = sink.draw_region(region, ledger, share, EXPLORE, &mut rng, tag);
                if batch.is_empty() {
                    q[i] = 0.0; // drained: stop feeding it
                    continue;
                }
                progressed = true;
                let sent = batch.len() as f64;
                let hits = probe_round(oracle, cfg.proto, &sink, batch, None, |a, _| {
                    all_hits.push(a)
                });
                // exponential smoothing of the reward estimate
                q[i] = 0.5 * q[i] + 0.5 * (hits as f64 / sent);
            }

            // Periodic tree recreation from seeds + discovered actives.
            if round % RECREATE_EVERY == 0 && all_hits.len() > MAX_LEAF * 2 {
                let mut basis: Vec<Ipv6Addr> = seeds.to_vec();
                basis.extend(all_hits.iter().copied());
                // The build reads only the basis: free the tree it replaces
                // and its ledgers first, so at most one tree of this run's
                // own is alive.
                drop(std::mem::take(&mut regions));
                drop(std::mem::take(&mut ledgers));
                regions = Cow::Owned(build_regions(
                    &basis,
                    SplitStrategy::Leftmost,
                    MAX_LEAF,
                    MAX_REGIONS,
                    Region::from_seeds,
                ));
                q = vec![0.0; regions.len()];
                ledgers = vec![Ledger::default(); regions.len()];
            }
            if !progressed {
                break;
            }
        }

        sink.finish(seeds, &mut SmallRng::seed_from_u64(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{work_done, Work};
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        // hosts spread over three nybbles: 4096-address regions
        (1..=48u128)
            .map(|i| {
                Ipv6Addr::from(
                    0x2600_0bad_0002_0000_0000_0000_0000_0000u128 | (i % 4) << 64 | (i * 7 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixHit.generate(
            &seeds(),
            &GenConfig::new(1000, 4, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1000);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1000);
    }

    #[test]
    fn reinforcement_pours_budget_into_responsive_regions() {
        // two of sixteen /64s answer
        fn live(addr: Ipv6Addr) -> bool {
            matches!(
                u128::from(addr) >> 64,
                0x2600_0bad_0002_0003 | 0x2600_0bad_0002_000b
            )
        }
        struct TwoSubnets;
        impl ScanOracle for TwoSubnets {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                live(addr)
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        // one leaf per /64, its 12 hosts spread over three nybbles; the
        // budget is four rounds, so three are divided by reward, and fits
        // in the two live leaves' 8 192 addresses
        let seeds: Vec<Ipv6Addr> = (0..16u128)
            .flat_map(|s| {
                (1..=12u128).map(move |j| {
                    Ipv6Addr::from((0x2600_0bad_0002_0000u128 | s) << 64 | (j * 0x123))
                })
            })
            .collect();
        let out = SixHit.generate(
            &seeds,
            &GenConfig::new(4 * 2048, 4, Protocol::Icmp),
            &mut TwoSubnets,
        );
        let in_live = out.iter().filter(|&&a| live(a)).count();
        assert!(
            in_live as f64 > 0.6 * out.len() as f64,
            "greedy allocation should dominate: {in_live}/{}",
            out.len()
        );
    }

    #[test]
    fn is_online() {
        let mut oracle = NullOracle::default();
        SixHit.generate(
            &seeds(),
            &GenConfig::new(300, 4, Protocol::Icmp),
            &mut oracle,
        );
        assert!(ScanOracle::packets_sent(&oracle) > 0);
    }

    /// Each batch draws without replacement, so an address costs at most
    /// one wasted draw per ledger: on a fixed seed set the draws stay
    /// within twice the accepted candidates (a draw-until-distinct loop
    /// made 15 per address on `rq1 --scale small`).
    #[test]
    fn draws_stay_within_twice_the_accepted_candidates() {
        for budget in [1_000, 5_000, 20_000] {
            let before = work_done();
            let out = SixHit.generate(
                &seeds(),
                &GenConfig::new(budget, 4, Protocol::Icmp),
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

    /// A region's batch comes back empty only once it is drained: 64
    /// regions of 16 equally likely addresses each give up all 1 024, in
    /// exactly 1 024 draws, before the fill takes over.
    #[test]
    fn a_region_runs_dry_only_once_drained() {
        let seeds: Vec<Ipv6Addr> = (0..64u128)
            .flat_map(|s| {
                (0..16u128).map(move |h| Ipv6Addr::from((0x2600_0bad_0003u128 << 80) | s << 64 | h))
            })
            .collect();
        let before = work_done();
        let mut prov = ProvenanceLog::recording(0);
        let model = SixHit.fit(&seeds);
        let out = model.generate_tagged(
            &GenConfig::new(3_000, 9, Protocol::Icmp),
            &mut NullOracle::default(),
            &mut prov,
        );
        let work = work_done().since(before);
        assert_eq!(
            work,
            Work {
                draws: 1_024,
                fill: 3_000 - 1_024
            }
        );
        let mut model_out: Vec<Ipv6Addr> = out[..1_024].to_vec();
        model_out.sort_unstable();
        let mut all = seeds.clone();
        all.sort_unstable();
        assert_eq!(model_out, all);
    }

    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(500, 6, Protocol::Icmp);
        let a = SixHit.generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixHit.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
