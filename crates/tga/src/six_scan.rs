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
//!
//! Each round probes the 64 live regions of highest reward rate, ε-greedy,
//! ties in the order the round before left them: a stable sort of the
//! order it inherits. Only the regions a round probed or an echoed tag
//! credited change rate, so the next round merges just those back into
//! the order (`Ranked`) instead of sorting every region again.

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

/// The live regions ranked by reward rate, descending, ties in the order
/// the round before left them: each round's stable sort of the order it
/// inherits. A round moves the rate only of the regions it touched, and
/// the others stay in rate order, so [`Self::rerank`] takes the touched
/// ones out, sorts just those, and puts each back, in place, at the place
/// a binary search finds for it.
struct Ranked {
    /// The live regions, ranked.
    order: Vec<usize>,
    /// Each region's reward rate as of the last re-rank.
    rate: Vec<f64>,
    /// Marks the touched regions during a re-rank.
    moved: Vec<bool>,
    /// The touched live regions: (rate, untouched regions ranked before
    /// it, id).
    back: Vec<(f64, usize, usize)>,
}

impl Ranked {
    /// `order` ranks `n` regions whose rates are all 0 (no reward yet).
    fn new(order: Vec<usize>, n: usize) -> Ranked {
        Ranked {
            order,
            rate: vec![0.0; n],
            moved: vec![false; n],
            back: Vec::new(),
        }
    }

    /// Drop the exhausted regions and re-rank the regions `touched` names
    /// (each any number of times) at their rates now; empties `touched`.
    /// Every region `touched` does not name must have the rate it had at
    /// the last re-rank.
    fn rerank(
        &mut self,
        touched: &mut Vec<usize>,
        reward: &[f64],
        probes: &[f64],
        exhausted: &[bool],
    ) {
        // touched ids, order and the rates are region ids: < n
        for &i in touched.iter() {
            self.moved[i] = true;
            self.rate[i] = reward[i] / probes[i];
        }
        let (rate, moved, back) = (&self.rate, &self.moved, &mut self.back);
        back.clear();
        let mut kept = 0;
        self.order.retain(|&i| {
            if exhausted[i] {
                false
            } else if moved[i] {
                back.push((rate[i], kept, i));
                false
            } else {
                kept += 1;
                true
            }
        });
        // Stable: tied touched regions keep their inherited order.
        back.sort_by(|a, b| b.0.total_cmp(&a.0));
        let order = &mut self.order;
        for (r, before, _) in back.iter_mut() {
            // The untouched regions ranked above it: every one with a
            // higher rate, and of those with its rate, the ones it
            // followed.
            let higher = order.partition_point(|&u| rate[u].total_cmp(r).is_gt());
            let tied = order[higher..].partition_point(|&u| rate[u].total_cmp(r).is_eq());
            *before = (*before).clamp(higher, higher + tied);
        }
        // Fill from the end: the k-th touched region (from 0) lands after
        // `before` untouched ones and k touched ones, and every untouched
        // one moves up by the touched count ranked above it.
        let mut end = order.len();
        order.resize(end + back.len(), 0);
        for (k, &(_, at, i)) in back.iter().enumerate().rev() {
            order.copy_within(at..end, at + k + 1);
            order[at + k] = i;
            end = at;
        }
        for i in touched.drain(..) {
            self.moved[i] = false;
        }
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
        let mut round = 0usize;

        let mut sink = Candidates::new(cfg.budget, prov);

        // Every round re-ranks the order it inherits, by what the round
        // before touched: the regions it probed or an echoed tag credited.
        let mut ranked = Ranked::new(self.order.clone(), n);
        let mut touched: Vec<usize> = Vec::new();
        while sink.room() > 0 && !ranked.order.is_empty() {
            round += 1;
            // Drop exhausted regions from rotation, then rank the live
            // ones by observed reward rate, ε-greedy.
            ranked.rerank(&mut touched, &reward, &probes, &exhausted);
            let order = &ranked.order;
            if order.is_empty() {
                break;
            }

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
                touched.push(idx);

                // Reward comes exclusively from tags echoed in responses.
                let region = Some(idx as u32);
                probe_round(oracle, cfg.proto, &sink, batch, region, |_, echo| {
                    let Some(id) = echo.map(|id| id as usize) else {
                        return;
                    };
                    if let Some(r) = reward.get_mut(id) {
                        *r += 1.0;
                        touched.push(id);
                    }
                });
            }
            if !progressed {
                break;
            }
        }

        sink.ran(round, 0);
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

    /// The order as every round first ranked it, kept as the reference of
    /// [`Ranked::rerank`]: drop the exhausted regions, then a stable sort
    /// of what is left by every region's rate, descending.
    fn rerank_by_full_sort(
        order: &mut Vec<usize>,
        reward: &[f64],
        probes: &[f64],
        exhausted: &[bool],
    ) {
        let rate: Vec<f64> = reward.iter().zip(probes).map(|(r, p)| r / p).collect();
        order.retain(|&i| !exhausted[i]);
        order.sort_by(|&a, &b| rate[b].total_cmp(&rate[a]));
    }

    /// The merge against the full sort, every round of random histories:
    /// batch sizes of 1, 16 and 32 and a few credits, so rates tie (at 0
    /// above all); ε picks anywhere in the order, repeats of a region
    /// included; regions exhausted mid-round and then picked again; and
    /// echoed credits to regions the round did not probe, to exhausted
    /// ones and to ids past the last region.
    #[test]
    fn a_merged_order_is_the_stable_sort_every_round() {
        let mut rng = SmallRng::seed_from_u64(26);
        for _ in 0..300 {
            let n = rng.gen_range(0..300);
            let mut start: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                start.swap(i, rng.gen_range(0..=i));
            }
            let mut reward = vec![0.0f64; n];
            let mut probes = vec![1.0f64; n];
            let mut exhausted = vec![false; n];
            let mut ranked = Ranked::new(start.clone(), n);
            let mut want = start;
            let mut touched = Vec::new();
            let slots = rng.gen_range(1..=REGIONS_PER_ROUND);
            for _ in 0..40 {
                ranked.rerank(&mut touched, &reward, &probes, &exhausted);
                rerank_by_full_sort(&mut want, &reward, &probes, &exhausted);
                assert_eq!(ranked.order, want);
                let order = &ranked.order;
                for slot in 0..slots.min(order.len()) {
                    let idx = if rng.gen_bool(0.3) {
                        order[rng.gen_range(0..order.len())]
                    } else {
                        order[slot]
                    };
                    if exhausted[idx] {
                        continue;
                    }
                    if rng.gen_bool(0.1) {
                        exhausted[idx] = true;
                        continue;
                    }
                    probes[idx] += [1.0, 16.0, 32.0][rng.gen_range(0..3)];
                    touched.push(idx);
                    for _ in 0..rng.gen_range(0..3) {
                        let id = if rng.gen_bool(0.7) {
                            idx
                        } else {
                            rng.gen_range(0..n + 2)
                        };
                        if let Some(r) = reward.get_mut(id) {
                            *r += 1.0;
                            touched.push(id);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(300, 9, Protocol::Icmp);
        let a = SixScan.generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixScan.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
