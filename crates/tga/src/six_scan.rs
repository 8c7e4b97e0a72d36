//! 6Scan (Hou et al., ToN 2023): region encoding in the probe packet.
//!
//! 6Scan "expands 6Tree to dynamically update which nodes to sample from by
//! encoding node information in the packet payload to quickly update scan
//! directions over time" (§2.1). The defining mechanism: each probe carries
//! its region id *in the packet*; replies echo it, so the scanner credits
//! regions from the response stream alone — no per-probe lookup state. Our
//! probes embed the id via [`sos_probe::packet::build_probe`]'s region tag
//! (ICMP payload / TCP sequence / DNS qname) and reward only what the
//! *echoed tag* says, exactly as 6Scan does.

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;

use crate::sink::{probe_round, Candidates, Tag};
use crate::space_tree::{batch_rng, build_regions, Ledger, Region, SplitStrategy, MAX_REGIONS};
use crate::{GenConfig, SeedModel, TargetGenerator, TgaId};

/// Leaf size for the space tree (6Tree-style leftmost splits).
const MAX_LEAF: usize = 16;
/// Probes per selected region per round.
const BATCH: usize = 32;
/// Regions probed per round.
const REGIONS_PER_ROUND: usize = 64;
/// ε-greedy exploration rate across regions.
const EPSILON: f64 = 0.10;
/// Sampling exploration probability within a region.
const EXPLORE: f64 = 0.06;

/// The 6Scan generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SixScan;

impl TargetGenerator for SixScan {
    fn id(&self) -> TgaId {
        TgaId::SixScan
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        let regions = build_regions(
            seeds,
            SplitStrategy::Leftmost,
            MAX_LEAF,
            MAX_REGIONS,
            Region::from_seeds,
        );
        // Seed-density prior for the first rounds.
        let mut order: Vec<usize> = (0..regions.len()).collect();
        order.sort_by(|&a, &b| {
            regions[b] // a, b < regions.len()
                .density()
                .total_cmp(&regions[a].density()) // a < regions.len()
        });
        Box::new(Fitted {
            seeds,
            regions,
            order,
        })
    }
}

/// 6Scan's model: the seeds' space tree, and its regions in seed-density
/// order (the ranking the first round starts from).
struct Fitted<'a> {
    seeds: &'a [Ipv6Addr],
    regions: Vec<Region>,
    order: Vec<usize>,
}

impl SeedModel for Fitted<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let regions = &self.regions;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x65ca);
        let n = regions.len();
        // Reward (echoed-tag credits) and probe counts per region id
        // (ids are stable for the whole scan — they're what the packets
        // carry).
        let mut reward = vec![0.0f64; n];
        let mut probes = vec![1.0f64; n];
        let mut exhausted = vec![false; n];
        let mut ledgers = vec![Ledger::default(); n];
        // Each round's reward rates, computed once for the sort.
        let mut rate: Vec<f64> = Vec::with_capacity(n);
        let mut round = 0usize;

        let mut sink = Candidates::new(cfg.budget, prov);

        // Every round re-ranks the order it inherits.
        let mut order = self.order.clone();
        while sink.room() > 0 && !order.is_empty() {
            round += 1;
            // Drop exhausted regions from rotation, then rank the live
            // ones by observed reward rate, ε-greedy.
            order.retain(|&i| !exhausted[i]);
            if order.is_empty() {
                break;
            }
            rate.clear();
            rate.extend(reward.iter().zip(&probes).map(|(r, p)| r / p));
            order.sort_by(|&a, &b| rate[b].total_cmp(&rate[a])); // a, b < n: rate sized n

            // Each slot picks its region on the round RNG, then draws its
            // batch from a private (region, round, slot) stream, without
            // replacement from the region and against everything emitted
            // so far, and commits it before the next slot draws.
            let mut progressed = false;
            for slot in 0..REGIONS_PER_ROUND.min(order.len()) {
                if sink.room() == 0 {
                    break;
                }
                let idx = if rng.gen_bool(EPSILON) {
                    order[rng.gen_range(0..order.len())]
                } else {
                    order[slot] // slot < order.len()
                };
                if exhausted[idx] {
                    // idx from order: < n
                    continue; // an ε repeat of a region exhausted earlier this round
                }
                let (region, ledger) = (&regions[idx], &mut ledgers[idx]); // idx < n
                let mut rng = batch_rng(cfg.seed ^ 0x65ca, region.digest, round, slot);
                let tag = Tag::new(idx, region.digest, round);
                let batch = sink.draw_region(region, ledger, BATCH, EXPLORE, &mut rng, tag);
                if batch.is_empty() {
                    exhausted[idx] = true; // idx < n
                    continue;
                }
                progressed = true;
                probes[idx] += batch.len() as f64; // idx < n

                // Reward comes exclusively from tags echoed in responses.
                let region = Some(idx as u32);
                probe_round(oracle, cfg.proto, &sink, batch, region, |_, echo| {
                    if let Some(r) = echo.and_then(|id| reward.get_mut(id as usize)) {
                        *r += 1.0;
                    }
                });
            }
            if !progressed {
                break;
            }
        }

        sink.finish(self.seeds, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        // hosts spread over three nybbles: 4096-address regions
        (1..=48u128)
            .map(|i| {
                Ipv6Addr::from(
                    0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (i % 3) << 64 | (i * 7 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixScan.generate(
            &seeds(),
            &GenConfig::new(900, 2, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 900);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 900);
    }

    #[test]
    fn rewards_flow_from_echoed_tags_only() {
        // Oracle answers hits but *drops the tag*: 6Scan must then treat
        // all regions identically (no reward ever credited), which we can
        // observe as determinism equal to a dead oracle ordering.
        struct TaglessHits;
        impl ScanOracle for TaglessHits {
            fn probe(&mut self, _a: Ipv6Addr, _p: Protocol) -> bool {
                true
            }
            fn probe_tagged(&mut self, _a: Ipv6Addr, _p: Protocol, _r: u32) -> (bool, Option<u32>) {
                (true, None)
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        let cfg = GenConfig::new(400, 5, Protocol::Icmp);
        let with_tagless = SixScan.generate(&seeds(), &cfg, &mut TaglessHits);
        let with_dead = SixScan.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(
            with_tagless, with_dead,
            "hits without echoed tags must not steer the scan"
        );
    }

    #[test]
    fn concentrates_on_tagged_productive_regions() {
        const SITE: u128 = 0x2600_0bad_0001_0000;
        // every eighth of the sparse /64s answers
        fn live(subnet: u128) -> bool {
            (64..128).contains(&subnet) && subnet % 8 == 0
        }
        struct SomeSubnets;
        impl ScanOracle for SomeSubnets {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                let net = u128::from(addr) >> 64;
                net >> 8 == SITE >> 8 && live(net & 0xff)
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        // 128 /64s, one leaf each: 64 dense ones (16 hosts) that fill a
        // round's 64 slots on seed density, and 64 sparse ones (8 hosts)
        // that only an ε pick or a reward brings into a round
        let seeds: Vec<Ipv6Addr> = (0..128u128)
            .flat_map(|subnet| {
                let step = if subnet < 64 { 1 } else { 2 };
                (0..16u128)
                    .step_by(step)
                    .map(move |j| Ipv6Addr::from((SITE | subnet) << 64 | (j * 0x111)))
            })
            .collect();
        // 32 rounds: time for ε picks to find the live /64s
        let out = SixScan.generate(
            &seeds,
            &GenConfig::new(64 * 1024, 2, Protocol::Icmp),
            &mut SomeSubnets,
        );
        let mean_in = |pick: &dyn Fn(u128) -> bool| {
            let nets: Vec<u128> = (64..128u128)
                .filter(|&s| pick(s))
                .map(|s| SITE | s)
                .collect();
            let n = out
                .iter()
                .filter(|&&a| nets.contains(&(u128::from(a) >> 64)))
                .count();
            n as f64 / nets.len() as f64
        };
        let (in_live, in_dead) = (mean_in(&live), mean_in(&|s| !live(s)));
        assert!(
            in_live > 4.0 * in_dead,
            "6Scan should overweight the productive sparse /64s: {in_live:.0} vs {in_dead:.0} per /64"
        );
    }

    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(300, 9, Protocol::Icmp);
        let a = SixScan.generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixScan.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
