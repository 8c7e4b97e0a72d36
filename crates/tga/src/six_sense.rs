//! 6Sense (Williams et al., USENIX Security 2024): bandit-driven
//! generation with integrated online dealiasing and an AS-diversity budget.
//!
//! 6Sense "used an online adaptive Reinforcement Learning approach to find
//! active regions. It hierarchically generated address sections separately
//! from each other ... and dedicated a variable part of its scan budget to
//! expanding AS coverage" (§2.1). It is also the only studied TGA with
//! online dealiasing built into generation (Table 1), which is why the
//! paper finds dealiased seed inputs barely change its output (Fig. 3).
//!
//! Structure here:
//! - *arms* are /48 prefixes observed in the seeds, each with a learned
//!   per-nybble model for subnet and IID sections;
//! - a UCB bandit schedules the productive arms;
//! - a fixed share of every round goes to the least-probed arms (the
//!   diversity budget that buys AS coverage);
//! - both schedules rank an arm no round has picked by what it was fit
//!   with (its prior; 0 probes), sorted once per run, and re-score only
//!   the arms picked before (`Ranking`);
//! - a built-in 6Gen-style dealiaser vets suspiciously hot /96es and
//!   blacklists aliased ones — candidates inside blacklisted prefixes are
//!   regenerated instead of emitted.

use std::iter::Take;
use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use dealias::{OnlineConfig, OnlineDealiaser};
use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{AddrMap, Prefix, PrefixSet};

use crate::pattern::{coin, fill_guide, inverse_cdf, DigitTable, ValueHist};
use crate::sink::{probe_round, Candidates, Tag};
use crate::space_tree::{Region, Sweep};
use crate::{
    arm_score, density_prior, descending, GenConfig, Ranking, SeedModel, TargetGenerator, TgaId,
};

/// Per-/48 bandit arm with hierarchical section models: 6Sense generates
/// the subnet section and the IID section separately — per-/64 sub-models
/// capture each subnet's IID style, and a subnet-section histogram lets
/// the arm synthesize *new* /64s in the same style. What a run learns
/// about the arm lives beside it, in that run's [`Sweeps`] and scores.
struct Arm {
    /// Per-observed-/64 models.
    subregions: Vec<Region>,
    /// `bounds[i]`: the seed counts of `subregions[..=i]` summed, so the
    /// last is the arm's seed count: a pick is weighted by seed count.
    bounds: Vec<u32>,
    /// The bounds' [`fill_guide`] table, one bucket per sub-model rounded
    /// up to a power of two.
    guide: Vec<u16>,
    /// Digit tables of the subnet-id nybbles (positions 12..16).
    subnet_digits: [DigitTable; 4],
    /// Digest of the site's contributing seeds (arms are /48 sites and
    /// never rebuilt, so index and digest are both stable).
    digest: u32,
    /// The unprobed score ([`density_prior`]), a function of the
    /// sub-models alone: computed when the arm is fit, read every round.
    prior: f64,
}

/// Systematic-sweep state per sub-model of one arm, created on first use:
/// 6Sense interleaves a sweep of a picked /64's first 4 096 addresses
/// with sampling it (a [`SWEEP`] coin per candidate), and samples only
/// once the sweep is spent. Boxed so a sub-model no round has picked yet
/// costs a pointer, not a sweep's worth of inline state.
type Sweeps = Vec<Option<Box<Take<Sweep>>>>;

impl Arm {
    fn from_members(members: &[Ipv6Addr]) -> Arm {
        let mut by64: AddrMap<u128, Vec<Ipv6Addr>> = AddrMap::default();
        for &m in members {
            by64.entry(u128::from(m) >> 64).or_default().push(m);
        }
        let mut groups: Vec<(u128, Vec<Ipv6Addr>)> = by64.into_iter().collect();
        groups.sort_by_key(|(k, _)| *k);
        let mut subnet_hists = [ValueHist::default(); 4];
        for &m in members {
            for (i, h) in subnet_hists.iter_mut().enumerate() {
                h.add(v6addr::nybble_of(m, 12 + i));
            }
        }
        let bounds: Vec<u32> = groups
            .iter()
            .scan(0, |sum, (_, g)| {
                *sum += g.len() as u32;
                Some(*sum)
            })
            .collect();
        let total = bounds.last().map_or(0, |&b| u64::from(b));
        let mut guide = vec![0; bounds.len().next_power_of_two()];
        fill_guide(&bounds, total, &mut guide);
        let subregions: Vec<Region> = groups.iter().map(|(_, g)| Region::from_seeds(g)).collect();
        // Density of the densest sub-model: the arm's exploitability.
        let density = subregions
            .iter()
            .map(|r| r.density())
            .fold(f64::NEG_INFINITY, f64::max);
        Arm {
            bounds,
            guide,
            subregions,
            subnet_digits: subnet_hists.map(|h| h.compile()),
            digest: seed_digest(members.iter().copied()),
            prior: density_prior(density),
        }
    }

    /// What one RNG word decides for a candidate: its high half picks a
    /// sub-model, weighted by seed count ([`inverse_cdf`]); its low half
    /// flips the two coins — sweep the sub-model (else sample it), and
    /// synthesize a fresh subnet id — the second read from the part of
    /// the half the first left, so the two stay independent.
    fn pick<R: RngCore + ?Sized>(&self, rng: &mut R) -> (usize, bool, bool) {
        let word = rng.next_u64();
        let total = self.bounds.last().copied().unwrap_or(0);
        let idx = inverse_cdf(&self.bounds, &self.guide, u64::from(total), word);
        let sweep = coin(word, SWEEP);
        let cut = if sweep {
            SWEEP * NEW_SUBNET
        } else {
            SWEEP + (1.0 - SWEEP) * NEW_SUBNET
        };
        (idx, sweep, coin(word, cut))
    }

    /// Generate one candidate: usually expand an observed /64 —
    /// systematically while its enumeration lasts, by IID-model sampling
    /// afterwards; sometimes synthesize a fresh subnet id in the arm's
    /// style and borrow a sub-model's IID pattern for it.
    fn sample(&self, sweeps: &mut Sweeps, rng: &mut SmallRng) -> Ipv6Addr {
        let (pick, sweep, new_subnet) = self.pick(rng);
        let region = &self.subregions[pick]; // pick < bounds.len() == subregions.len()
        let addr = if sweep {
            // systematic sweep of the sub-model's most likely space
            let sweep = sweeps[pick].get_or_insert_with(|| Box::new(region.sweep().take(4096))); // sweeps sized subregions.len()
            sweep.next().unwrap_or_else(|| region.sample(rng, EXPLORE))
        } else {
            region.sample(rng, EXPLORE)
        };
        if new_subnet {
            // new subnet section in the arm's style, same IID style
            let mut a = addr;
            for (i, t) in self.subnet_digits.iter().enumerate() {
                a = v6addr::with_nybble(a, 12 + i, t.draw(rng, SUBNET_EXPLORE));
            }
            a
        } else {
            addr
        }
    }
}

/// Arms scheduled per round.
const ARMS_PER_ROUND: usize = 24;
/// Candidates per arm per round.
const BATCH: usize = 48;
/// Share of each round's arms reserved for the least-probed arms (the
/// AS-coverage budget; 6Sense scales this with the budget).
const DIVERSITY_SHARE: f64 = 0.18;
/// Batch hit-rate that triggers an alias check on the hot /96es.
const ALIAS_TRIGGER: f64 = 0.75;
/// Probability that a candidate comes from its sub-model's systematic
/// sweep rather than from sampling it.
const SWEEP: f64 = 0.85;
/// Probability that a candidate gets a freshly synthesized subnet id.
const NEW_SUBNET: f64 = 0.15;
/// Sampling exploration probability.
const EXPLORE: f64 = 0.10;
/// Exploration probability of a synthesized subnet-id digit.
const SUBNET_EXPLORE: f64 = 0.35;

/// The 6Sense generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SixSense;

impl TargetGenerator for SixSense {
    fn id(&self) -> TgaId {
        TgaId::SixSense
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        let mut by48: AddrMap<u128, Vec<Ipv6Addr>> = AddrMap::default();
        for &s in seeds {
            by48.entry(u128::from(s) >> 80).or_default().push(s);
        }
        let mut groups: Vec<(u128, Vec<Ipv6Addr>)> = by48.into_iter().collect();
        groups.sort_by_key(|(k, _)| *k); // hash-table order is arbitrary
        let arms = groups.iter().map(|(_, m)| Arm::from_members(m)).collect();
        Box::new(Fitted { seeds, arms })
    }
}

/// 6Sense's model: one arm per seed /48, in address order.
struct Fitted<'a> {
    seeds: &'a [Ipv6Addr],
    arms: Vec<Arm>,
}

impl SeedModel for Fitted<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let arms = &self.arms;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x65e5e);
        // This run's side of each arm: its sweeps, probes spent and
        // recent hit rate.
        let mut sweeps: Vec<Sweeps> = arms
            .iter()
            .map(|a| vec![None; a.subregions.len()])
            .collect();
        let mut probes = vec![0.0f64; arms.len()];
        let mut q = vec![0.0f64; arms.len()];
        // The two schedules, by UCB score and by probes spent. An arm no
        // round has picked keeps its prior and its 0 probes, so each
        // ranking sorted it once: a round re-keys only the picked arms.
        let mut by_score = Ranking::new(arms.len(), |i| arms[i].prior, descending); // i < arms.len()
        let mut by_probes = Ranking::new(arms.len(), |_| 0.0, f64::total_cmp);

        let mut dealiaser = OnlineDealiaser::new(OnlineConfig {
            seed: cfg.seed ^ 0xa11a5,
            ..OnlineConfig::default()
        });
        let mut blacklist = PrefixSet::new();
        // Escalation: when several /96es under one /48 turn out aliased,
        // condemn the whole /48 — chasing an aliased block one /96 at a
        // time would never catch up with generation.
        let mut aliased_per_48: AddrMap<u128, u32> = AddrMap::default();

        let mut sink = Candidates::new(cfg.budget, prov);
        let mut total_probes = 1.0f64;

        let diversity_slots = ((ARMS_PER_ROUND as f64 * DIVERSITY_SHARE).ceil() as usize).max(1);
        let ucb_slots = ARMS_PER_ROUND.saturating_sub(diversity_slots).max(1);

        let mut round = 0usize;
        while sink.room() > 0 && !arms.is_empty() {
            round += 1;
            // Schedule: top-UCB arms + least-probed arms (diversity).
            let ln_total = total_probes.max(2.0).ln();
            // i < arms.len() == probes.len() == q.len(): the rankings are over arms
            let by_ucb = by_score.slate(ucb_slots, |i| {
                arm_score(arms[i].prior, probes[i], q[i], ln_total)
            });
            let by_cold = by_probes.slate(diversity_slots, |i| probes[i]);

            let mut progressed = false;
            for idx in by_ucb.into_iter().chain(by_cold) {
                if sink.room() == 0 {
                    break;
                }
                by_score.touch(idx);
                by_probes.touch(idx);
                let (arm, arm_sweeps) = (&arms[idx], &mut sweeps[idx]); // idx from a slate: < arms.len()

                // productive arms get super-sized batches (6Sense's RL
                // allocator pours budget where the hit rate is)
                let scale = 1.0 + 4.0 * q[idx]; // q sized arms.len()
                let want = ((BATCH as f64 * scale) as usize).min(sink.room());
                let batch = sink.draw(
                    want,
                    want * 10 + 32,
                    Tag::new(idx, arm.digest, round),
                    || {
                        let a = arm.sample(arm_sweeps, &mut rng);
                        // Integrated dealiasing: never emit into known aliases.
                        (!blacklist.contains_addr(a)).then_some(a)
                    },
                );
                if batch.is_empty() {
                    probes[idx] += 1e6; // exhausted
                    continue;
                }
                progressed = true;
                let sent = batch.len() as f64;
                let mut hits: Vec<Ipv6Addr> = Vec::new();
                probe_round(oracle, cfg.proto, &sink, batch, None, |a, _| hits.push(a));

                // Suspiciously hot? Vet the hottest /96es.
                if hits.len() as f64 / sent >= ALIAS_TRIGGER && hits.len() >= 4 {
                    let mut prefixes: Vec<Prefix> =
                        hits.iter().map(|&h| Prefix::new(h, 96)).collect();
                    prefixes.sort();
                    prefixes.dedup();
                    for p in prefixes.into_iter().take(4) {
                        if dealiaser.check(oracle, p.network(), cfg.proto) {
                            blacklist.insert(p);
                            hits.retain(|&h| !p.contains(h));
                            let k48 = u128::from(p.network()) >> 80;
                            let n = aliased_per_48.entry(k48).or_insert(0);
                            *n += 1;
                            if *n >= 5 {
                                blacklist.insert(Prefix::new(p.network(), 48));
                            }
                        }
                    }
                }

                q[idx] = 0.4 * q[idx] + 0.6 * (hits.len() as f64 / sent);
                probes[idx] += sent;
                total_probes += sent;
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
    use crate::pattern::{edge_words, scaled, Counting, Word};
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        let mut v = Vec::new();
        // four /48s with varying richness
        for site in 1..=4u128 {
            for i in 1..=(site * 8) {
                v.push(Ipv6Addr::from(
                    0x2600_0bad_0000_0000_0000_0000_0000_0000u128 | site << 80 | i,
                ));
            }
        }
        v
    }

    /// `n` members of one /48 dealt round-robin over `subnets` /64s.
    fn members(n: u128, subnets: u128) -> Vec<Ipv6Addr> {
        (0..n)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001u128 << 80 | (i % subnets) << 64 | i))
            .collect()
    }

    #[test]
    fn a_pick_costs_one_word() {
        for (n, subnets) in [(1, 1), (7, 3), (1 << 16, 16)] {
            let arm = Arm::from_members(&members(n, subnets));
            let mut rng = Counting {
                rng: SmallRng::seed_from_u64(n as u64),
                words: 0,
            };
            for k in 1..=256 {
                let (idx, _, _) = arm.pick(&mut rng);
                assert!(idx < arm.subregions.len());
                assert_eq!(rng.words, k, "{n} members");
            }
        }
    }

    /// The guided pick against the bounds search it replaced, at every
    /// word where either could step: arms of 0 and 1 members, 3 members
    /// (below their 4 buckets), 4 (a power of two), 2¹⁶ + 5, and one whose
    /// sub-models are weighted 1 : 1 : 2 : 4 : … : 256.
    #[test]
    fn a_guided_pick_is_the_search_at_every_edge() {
        let mut arms: Vec<Arm> = [(0, 1), (1, 1), (3, 3), (4, 3), (7, 3), ((1 << 16) + 5, 16)]
            .iter()
            .map(|&(n, subnets)| Arm::from_members(&members(n, subnets)))
            .collect();
        let skewed: Vec<Ipv6Addr> = (1..=512u128)
            .map(|i| {
                Ipv6Addr::from(
                    0x2600_0bad_0001u128 << 80 | u128::from(i.trailing_zeros()) << 64 | i,
                )
            })
            .collect();
        arms.push(Arm::from_members(&skewed));
        for arm in &arms {
            let total = arm.bounds.last().map_or(0, |&b| u64::from(b));
            for word in edge_words(total, arm.guide.len()) {
                let x = scaled(word, total) as u32;
                let want = arm.bounds.partition_point(|&b| b <= x);
                let (idx, _, _) = arm.pick(&mut Word(word));
                assert_eq!(idx, want, "bounds {:?}, word {word:#x}", arm.bounds);
            }
        }
    }

    /// Over 2²⁰ picks, each sub-model and each of the four coin outcomes
    /// lands within 5σ of its probability: the coins are independent.
    #[test]
    fn a_pick_has_its_weights_and_coin_frequencies() {
        const N: usize = 1 << 20;
        let arm = Arm::from_members(&members(7, 3));
        let mut rng = SmallRng::seed_from_u64(42);
        let mut by_sub = [0usize; 3];
        let mut by_coins = [0usize; 4];
        for _ in 0..N {
            let (idx, sweep, new_subnet) = arm.pick(&mut rng);
            by_sub[idx] += 1;
            by_coins[usize::from(sweep) << 1 | usize::from(new_subnet)] += 1;
        }
        let coins = [
            (1.0 - SWEEP) * (1.0 - NEW_SUBNET),
            (1.0 - SWEEP) * NEW_SUBNET,
            SWEEP * (1.0 - NEW_SUBNET),
            SWEEP * NEW_SUBNET,
        ];
        let subs = [3.0 / 7.0, 2.0 / 7.0, 2.0 / 7.0];
        for (got, p) in by_sub.iter().zip(subs).chain(by_coins.iter().zip(coins)) {
            let expected = N as f64 * p;
            let sigma = (expected * (1.0 - p)).sqrt();
            assert!(
                (*got as f64 - expected).abs() <= 5.0 * sigma,
                "{got} vs {expected:.0} ± {sigma:.0}"
            );
        }
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixSense.generate(
            &seeds(),
            &GenConfig::new(1500, 10, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1500);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1500);
    }

    #[test]
    fn diversity_share_reaches_cold_arms() {
        // One arm is hyper-responsive; cold arms must still receive probes.
        struct HotSite;
        impl ScanOracle for HotSite {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(addr) >> 80 == 0x2600_0bad_0001u128
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        let out = SixSense.generate(
            &seeds(),
            &GenConfig::new(2000, 11, Protocol::Icmp),
            &mut HotSite,
        );
        for site in 2..=4u128 {
            let n = out
                .iter()
                .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0000u128 | site)
                .count();
            assert!(n > 0, "cold site {site} starved");
        }
    }

    #[test]
    fn integrated_dealiasing_blacklists_aliased_prefixes() {
        // An oracle where one entire /48 answers everything (an alias) —
        // including the dealiaser's random /96 probes. 6Sense must stop
        // emitting into it rather than pour the whole budget there.
        struct AliasWorld;
        impl ScanOracle for AliasWorld {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(addr) >> 80 == 0x2600_0bad_0002u128
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        let out = SixSense.generate(
            &seeds(),
            &GenConfig::new(3000, 12, Protocol::Icmp),
            &mut AliasWorld,
        );
        let in_alias = out
            .iter()
            .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0002u128)
            .count();
        assert!(
            (in_alias as f64) < 0.25 * out.len() as f64,
            "aliased /48 absorbed {in_alias}/{} of the budget",
            out.len()
        );
    }

    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(600, 13, Protocol::Icmp);
        let a = SixSense.generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixSense.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
