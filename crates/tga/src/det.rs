//! DET (Song et al., ToN 2022): density/entropy tree with online updates.
//!
//! DET "enhanced tree-based generation by updating 6Tree's splitting
//! heuristic to an entropy-based approach, while periodically updating the
//! tree with active addresses, making it an online model" (§2.1). The
//! implementation here:
//!
//! 1. builds an entropy-split space tree over the seeds;
//! 2. drives generation with a UCB-style bandit over leaves — estimated
//!    hit density plus an exploration bonus, which is what lets DET visit
//!    leaves others abandon (its Active-AS strength in the paper);
//! 3. every few rounds, *re-inserts* newly discovered active addresses as
//!    fresh regions, letting the tree follow the live Internet outward
//!    from the seed patterns.

use std::net::Ipv6Addr;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;

use crate::sink::{probe_round, Candidates, Tag};
use crate::space_tree::{batch_rng, build_regions, Ledger, Region, SplitStrategy, MAX_REGIONS};
use crate::{arm_score, density_prior, slate, GenConfig, SeedModel, TargetGenerator, TgaId};

/// Bandit state per tree leaf. A run clones the fitted arms and shares
/// their regions until a widening or a rebuild replaces one.
#[derive(Debug, Clone)]
struct Arm {
    region: Rc<Region>,
    /// What this run's batches took out of `region`.
    ledger: Ledger,
    probes: f64,
    q: f64,
    /// The unprobed score ([`density_prior`]), a function of the region
    /// alone: computed when the arm is built or its region widened, read
    /// every round.
    prior: f64,
}

/// Build the bandit arms over a seed basis (the fit and every online
/// rebuild).
fn arms_over(basis: &[Ipv6Addr]) -> Vec<Arm> {
    let arm = |seeds: &[Ipv6Addr]| {
        let region = Region::from_seeds(seeds);
        Arm {
            prior: density_prior(region.density()),
            region: Rc::new(region),
            ledger: Ledger::default(),
            probes: 0.0,
            q: 0.0,
        }
    };
    build_regions(basis, SplitStrategy::MinEntropy, MAX_LEAF, MAX_REGIONS, arm)
}

/// Leaf size for the initial tree.
const MAX_LEAF: usize = 16;
/// Probes per selected leaf per round.
const BATCH: usize = 32;
/// Leaves probed per round.
const ARMS_PER_ROUND: usize = 32;
/// Re-insert discovered actives every this many rounds.
const REINSERT_EVERY: usize = 8;
/// Sampling exploration probability.
const EXPLORE: f64 = 0.08;

/// The DET generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Det;

impl TargetGenerator for Det {
    fn id(&self) -> TgaId {
        TgaId::Det
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        Box::new(Fitted {
            seeds,
            arms: arms_over(seeds),
        })
    }
}

/// DET's model: the bandit arms over the seeds' entropy-split tree, each
/// unprobed.
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
        let seeds = self.seeds;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xde7);
        // The bandit scores, widens and rebuilds its arms: they are this
        // run's own.
        let mut arms: Vec<Arm> = self.arms.clone();

        let mut sink = Candidates::new(cfg.budget, prov);
        let mut fresh_hits: Vec<Ipv6Addr> = Vec::new();
        let mut all_hits: Vec<Ipv6Addr> = Vec::new();
        let mut total_probes = 0.0f64;
        let mut round = 0usize;
        let mut out_at_last_rebuild = 0usize;
        let mut rebuilds_enabled = true;
        let mut idle_rounds = 0usize;

        while sink.room() > 0 && !arms.is_empty() {
            round += 1;
            // Rank leaves by UCB score (computed once per arm, not in
            // the comparator); probe the top slice this round.
            let ln_total = total_probes.max(2.0).ln();
            let scores: Vec<f64> = (arms.iter())
                .map(|a| arm_score(a.prior, a.probes, a.q, ln_total))
                .collect();
            let order = slate(&scores, ARMS_PER_ROUND, |a, b| b.total_cmp(a));
            // Each selected arm draws its batch from a private (digest,
            // round, slot) stream against everything emitted so far, and
            // commits it before the next arm draws.
            let mut progressed = false;
            for (slot, &idx) in order.iter().enumerate() {
                if sink.room() == 0 {
                    break;
                }
                let arm = &mut arms[idx]; // idx from order: < arms.len()
                let mut rng = batch_rng(cfg.seed ^ 0xde7, arm.region.digest, round, slot);
                // Arms are rebuilt online: the leaf's member digest, not
                // its index, is the stable identity across tree updates.
                let tag = Tag::new(idx, arm.region.digest, round);
                let (region, ledger) = (&arm.region, &mut arm.ledger);
                let batch = sink.draw_region(region, ledger, BATCH, EXPLORE, &mut rng, tag);
                if batch.is_empty() {
                    // Leaf exhausted: expand its variable dimensions upward
                    // (DET keeps probing outward from productive structure);
                    // retire only when expansion hits the routing prefix.
                    // Widen twice — after a tree rebuild the tight new
                    // leaves largely overlap already-seen space, and one
                    // dimension of headroom drains in a single batch. Both
                    // freed digits draw uniformly: a widening keeps every
                    // other digit's table.
                    match arm.region.widened().and_then(|w| w.widened().or(Some(w))) {
                        Some(w) => {
                            arm.prior = density_prior(w.density());
                            arm.region = Rc::new(w);
                            arm.ledger = Ledger::default();
                            progressed = true;
                        }
                        None => arm.probes += 1e6,
                    }
                    continue;
                }
                progressed = true;
                let sent = batch.len() as f64;
                let hits = probe_round(oracle, cfg.proto, &sink, batch, None, |a, _| {
                    fresh_hits.push(a)
                });
                arm.q = 0.4 * arm.q + 0.6 * (hits as f64 / sent);
                arm.probes += sent;
                total_probes += sent;
            }

            // Periodic tree update: rebuild the tree over seeds plus every
            // discovered active address, so leaves tighten around the
            // productive structure (appending duplicate arms would only
            // re-sample space already covered). Rebuilding is only useful
            // while generation still moves: once output stalls, a rebuild
            // just resets the bandit onto already-seen leaves.
            if rebuilds_enabled && round % REINSERT_EVERY == 0 && fresh_hits.len() >= MAX_LEAF * 4 {
                if sink.out().len() < out_at_last_rebuild + ARMS_PER_ROUND * BATCH {
                    rebuilds_enabled = false;
                } else {
                    out_at_last_rebuild = sink.out().len();
                    all_hits.append(&mut fresh_hits);
                    let mut basis: Vec<Ipv6Addr> = seeds.to_vec();
                    basis.extend(all_hits.iter().copied());
                    arms = arms_over(&basis);
                    total_probes = 0.0;
                }
            }
            if !progressed {
                break; // every leaf exhausted
            }
            // Emission stall guard: when round after round yields nothing
            // (every scheduled arm widening through seen space), stop and
            // let the budget filler finish rather than spin.
            if sink.out().len() == out_at_last_rebuild && !rebuilds_enabled {
                idle_rounds += 1;
            } else if sink.out().len() > out_at_last_rebuild {
                out_at_last_rebuild = sink.out().len();
                idle_rounds = 0;
            }
            if idle_rounds > 64 {
                break;
            }
        }

        sink.finish(seeds, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        // hosts spread over three nybbles so each /64 region holds a
        // 4096-address space (no premature exhaustion in tests)
        (1..=40u128)
            .map(|i| {
                Ipv6Addr::from(
                    0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (i % 4) << 64 | (i * 7 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn fills_budget_uniquely_even_on_dead_internet() {
        let mut g = Det;
        let out = g.generate(
            &seeds(),
            &GenConfig::new(1200, 1, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1200);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1200);
    }

    #[test]
    fn probes_while_generating() {
        let mut g = Det;
        let mut oracle = NullOracle::default();
        g.generate(
            &seeds(),
            &GenConfig::new(500, 1, Protocol::Icmp),
            &mut oracle,
        );
        assert!(ScanOracle::packets_sent(&oracle) >= 500, "DET is online");
    }

    #[test]
    fn adapts_toward_responsive_regions() {
        // Oracle: only addresses inside one /64 answer. DET should
        // concentrate the budget there.
        const LIVE: u128 = 0x2600_0bad_0001_0042;
        struct OneSubnet {
            probes: u64,
        }
        impl ScanOracle for OneSubnet {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                self.probes += 1;
                u128::from(addr) >> 64 == LIVE
            }
            fn packets_sent(&self) -> u64 {
                self.probes
            }
        }
        // 128 /64s of 16 hosts each, every host digit taking all 16
        // values: the entropy splits cut one leaf per /64, four times as
        // many leaves as a round probes, so the bandit has to choose.
        let seeds: Vec<Ipv6Addr> = (0..128u128)
            .flat_map(|subnet| {
                (0..16u128).map(move |j| {
                    Ipv6Addr::from((0x2600_0bad_0001_0000u128 | subnet) << 64 | (j * 0x111))
                })
            })
            .collect();
        // sixteen rounds of 32 leaves: every leaf is probed within the
        // first four
        let out = Det.generate(
            &seeds,
            &GenConfig::new(16 * 1024, 1, Protocol::Icmp),
            &mut OneSubnet { probes: 0 },
        );
        let count_in = |subnet: u128| {
            out.iter()
                .filter(|&&a| u128::from(a) >> 64 == subnet)
                .count()
        };
        let in_live = count_in(LIVE);
        let dead = (0..128u128)
            .map(|s| 0x2600_0bad_0001_0000u128 | s)
            .filter(|&s| s != LIVE);
        let max_dead = dead.map(count_in).max().unwrap();
        assert!(
            in_live as f64 > 1.5 * max_dead as f64,
            "DET should overweight the live /64: live {in_live} vs dead {max_dead}"
        );
    }

    #[test]
    fn deterministic_against_a_deterministic_oracle() {
        let cfg = GenConfig::new(600, 77, Protocol::Icmp);
        let a = Det.generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = Det.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
