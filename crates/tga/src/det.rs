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

use std::collections::HashSet;
use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;

use crate::parallel::{commit_proposals, sample_regions_par, stream_seed, SampleUnit};
use crate::space_tree::{build_regions_par, Region, SplitStrategy};
use crate::{clamp_round, fill_budget_by_mutation, GenConfig, TargetGenerator, TgaId};

/// Bandit state per tree leaf.
#[derive(Debug, Clone)]
struct Arm {
    region: Region,
    /// Member digest, cached at build/rebuild time: it is pushed per
    /// emitted address and feeds the per-unit RNG streams, and hashing
    /// `region.members` anew for every batch was O(|members|) work in the
    /// inner loop. Widening keeps `members` untouched, so the cache stays
    /// valid for the arm's whole life.
    digest: u32,
    probes: f64,
    q: f64,
}

/// Build the bandit arms over a seed basis (initial tree and every
/// online rebuild), digesting each leaf's members exactly once.
fn arms_over(basis: &[Ipv6Addr], max_leaf: usize, max_regions: usize, workers: usize) -> Vec<Arm> {
    build_regions_par(basis, SplitStrategy::MinEntropy, max_leaf, max_regions, workers)
        .into_iter()
        .map(|region| Arm {
            digest: seed_digest(region.members.iter().copied()),
            region,
            probes: 0.0,
            q: 0.0,
        })
        .collect()
}

impl Arm {
    /// DET's leaf score: unprobed leaves carry a *seed-density estimate*
    /// (capped below typical live hit rates); probed leaves are scored by
    /// their observed hit rate plus a small confidence bonus. This is
    /// density-first traversal, not a classic explore-everything bandit —
    /// with far more leaves than rounds, a UCB novelty bonus would never
    /// let DET exploit anything.
    fn ucb(&self, total: f64, c: f64) -> f64 {
        if self.probes < 1.0 {
            return 0.35 * (self.region.density() / 4.0).exp().min(1.0);
        }
        // q is an exponentially decayed *recent* hit rate: saturated arms
        // fall off quickly instead of coasting on their lifetime average.
        self.q + c * ((total.max(2.0)).ln() / self.probes).sqrt()
    }
}

/// The DET generator.
#[derive(Debug, Clone)]
pub struct Det {
    /// Leaf size for the initial tree.
    pub max_leaf: usize,
    /// Cap on regions (initial + re-inserted).
    pub max_regions: usize,
    /// Probes per selected leaf per round.
    pub batch: usize,
    /// Leaves probed per round.
    pub arms_per_round: usize,
    /// UCB exploration constant.
    pub ucb_c: f64,
    /// Re-insert discovered actives every this many rounds.
    pub reinsert_every: usize,
    /// Sampling exploration probability.
    pub explore: f64,
}

impl Default for Det {
    fn default() -> Self {
        Det {
            max_leaf: 16,
            max_regions: 1 << 16,
            batch: 32,
            arms_per_round: 32,
            ucb_c: 0.15,
            reinsert_every: 8,
            explore: 0.08,
        }
    }
}

impl TargetGenerator for Det {
    fn id(&self) -> TgaId {
        TgaId::Det
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xde7);
        let mut arms: Vec<Arm> = arms_over(seeds, self.max_leaf, self.max_regions, cfg.workers);

        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(cfg.budget);
        let mut seen: HashSet<u128> = HashSet::with_capacity(cfg.budget * 2);
        let mut fresh_hits: Vec<Ipv6Addr> = Vec::new();
        let mut all_hits: Vec<Ipv6Addr> = Vec::new();
        let mut total_probes = 0.0f64;
        let mut round = 0usize;
        let mut out_at_last_rebuild = 0usize;
        let mut rebuilds_enabled = true;
        let mut idle_rounds = 0usize;

        while out.len() < cfg.budget && !arms.is_empty() {
            round += 1;
            // Rank leaves by UCB score; probe the top slice this round.
            // Scores are computed once per arm (the sort used to call
            // `ucb` inside the comparator — O(n log n) recomputation).
            let scores: Vec<f64> =
                arms.iter().map(|a| a.ucb(total_probes, self.ucb_c)).collect();
            let mut order: Vec<usize> = (0..arms.len()).collect();
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a])); // a, b < arms.len() == scores.len()
            order.truncate(self.arms_per_round);
            // Phase 1: every selected arm samples in parallel against the
            // round-start `seen`, each from its own (arm digest, round,
            // slot)-derived stream — worker-count-invariant by design.
            let units: Vec<SampleUnit<'_>> = order
                .iter()
                .enumerate()
                .map(|(slot, &idx)| {
                    let arm = &arms[idx]; // idx from order: < arms.len()
                    SampleUnit {
                        region: &arm.region,
                        want: self.batch,
                        explore: self.explore,
                        stream: stream_seed(cfg.seed ^ 0xde7, arm.digest, round, slot),
                    }
                })
                .collect();
            let proposals = sample_regions_par(&units, &seen, cfg.workers);
            drop(units); // release the arms borrow before the commit mutates them
            // Phase 2: sequential commit in slot order.
            let mut progressed = false;
            for (slot, proposal) in proposals.iter().enumerate() {
                if out.len() >= cfg.budget {
                    break;
                }
                let idx = order[slot]; // slot < order.len() == proposals.len()
                if proposal.is_empty() {
                    // Leaf exhausted (decided on the worker-invariant
                    // proposal, not the commit): expand its variable
                    // dimensions upward (DET keeps probing outward from
                    // productive structure); retire only when expansion
                    // hits the routing prefix. Widen twice — after a tree
                    // rebuild the tight new leaves largely overlap
                    // already-seen space, and one dimension of headroom
                    // drains in a single batch. Widening leaves `members`
                    // (hence the cached digest) unchanged.
                    match arms[idx].region.widened().and_then(|w| w.widened().or(Some(w))) {
                        Some(w) => {
                            arms[idx].region = w; // idx from order: < arms.len()
                            progressed = true;
                        }
                        None => arms[idx].probes += 1e6, // idx from order: < arms.len()
                    }
                    continue;
                }
                let batch = commit_proposals(proposal, &mut seen, cfg.budget - out.len());
                if batch.is_empty() {
                    continue; // cross-slot collisions only — not a dead leaf
                }
                progressed = true;
                let results = oracle.probe_batch(&batch, cfg.proto);
                debug_assert_eq!(
                    results.len(),
                    batch.len(),
                    "ScanOracle::probe_batch length contract: {} results for {} targets",
                    results.len(),
                    batch.len()
                );
                // Release-build tolerance for a malformed oracle: missing
                // entries count as unanswered probes, extras are ignored.
                let hits = results.iter().take(batch.len()).filter(|&&h| h).count();
                let rate = hits as f64 / batch.len() as f64;
                arms[idx].q = 0.4 * arms[idx].q + 0.6 * rate; // idx from order: < arms.len()
                arms[idx].probes += batch.len() as f64;
                // sos-lint: allow(det-float-reduce) whole-number batch sizes; exact in f64 and sequential
                total_probes += batch.len() as f64;
                fresh_hits.extend(
                    batch
                        .iter()
                        .zip(&results)
                        .filter(|(_, &h)| h)
                        .map(|(&a, _)| a),
                );
                // Provenance: the bandit arm (tree leaf) this batch was
                // drawn from, digested over the leaf's member seeds. Arms
                // are rebuilt online, so the digest — not the index — is
                // the stable identity across tree updates.
                if prov.is_enabled() {
                    // idx < arms.len(): the bandit drew it over `arms`
                    let d = arms[idx].digest;
                    for _ in 0..batch.len() {
                        prov.push(idx as u32, d, clamp_round(round));
                    }
                }
                out.extend(batch);
            }

            // Periodic tree update: rebuild the tree over seeds plus every
            // discovered active address, so leaves tighten around the
            // productive structure (appending duplicate arms would only
            // re-sample space already covered). Rebuilding is only useful
            // while generation still moves: once output stalls, a rebuild
            // just resets the bandit onto already-seen leaves.
            if rebuilds_enabled
                && round % self.reinsert_every == 0
                && fresh_hits.len() >= self.max_leaf * 4
            {
                if out.len() < out_at_last_rebuild + self.arms_per_round * self.batch {
                    rebuilds_enabled = false;
                } else {
                    out_at_last_rebuild = out.len();
                    all_hits.append(&mut fresh_hits);
                    let mut basis: Vec<Ipv6Addr> = seeds.to_vec();
                    basis.extend(all_hits.iter().copied());
                    arms = arms_over(&basis, self.max_leaf, self.max_regions, cfg.workers);
                    total_probes = 0.0;
                }
            }
            if !progressed {
                break; // every leaf exhausted
            }
            // Emission stall guard: when round after round yields nothing
            // (every scheduled arm widening through seen space), stop and
            // let the budget filler finish rather than spin.
            if out.len() == out_at_last_rebuild && !rebuilds_enabled {
                idle_rounds += 1;
            } else if out.len() > out_at_last_rebuild {
                out_at_last_rebuild = out.len();
                idle_rounds = 0;
            }
            if idle_rounds > 64 {
                break;
            }
        }

        fill_budget_by_mutation(&mut out, &mut seen, seeds, cfg.budget, &mut rng, prov);
        out
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
        let mut g = Det::default();
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
        let mut g = Det::default();
        let mut oracle = NullOracle::default();
        g.generate(&seeds(), &GenConfig::new(500, 1, Protocol::Icmp), &mut oracle);
        assert!(ScanOracle::packets_sent(&oracle) >= 500, "DET is online");
    }

    #[test]
    fn adapts_toward_responsive_regions() {
        // Oracle: only addresses inside one /64 answer. DET should
        // concentrate the budget there.
        struct OneSubnet {
            probes: u64,
        }
        impl ScanOracle for OneSubnet {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                self.probes += 1;
                u128::from(addr) >> 64 == 0x2600_0bad_0001_0002u128
            }
            fn probe_tagged(
                &mut self,
                t: &[(Ipv6Addr, u32)],
                p: Protocol,
            ) -> Vec<(bool, Option<u32>)> {
                t.iter().map(|&(a, r)| (self.probe(a, p), Some(r))).collect()
            }
            fn packets_sent(&self) -> u64 {
                self.probes
            }
        }
        // One arm per round so the bandit's choices are visible even with
        // only a handful of leaves (the study-scale tree has thousands).
        let mut g = Det {
            arms_per_round: 1,
            ..Det::default()
        };
        // budget below the live region's reachable space, so bandit
        // allocation (not pattern saturation) decides the distribution
        let out = g.generate(
            &seeds(),
            &GenConfig::new(1200, 1, Protocol::Icmp),
            &mut OneSubnet { probes: 0 },
        );
        let count_in = |subnet: u128| {
            out.iter()
                .filter(|&&a| u128::from(a) >> 64 == 0x2600_0bad_0001_0000u128 | subnet)
                .count()
        };
        let in_live = count_in(2);
        let max_dead = (0..4u128).filter(|&s| s != 2).map(count_in).max().unwrap();
        assert!(
            in_live as f64 > 1.5 * max_dead as f64,
            "DET should overweight the live /64: live {in_live} vs dead {max_dead}"
        );
    }

    #[test]
    fn deterministic_against_a_deterministic_oracle() {
        let cfg = GenConfig::new(600, 77, Protocol::Icmp);
        let a = Det::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = Det::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
