//! Entropy/IP (Foremski et al., IMC 2016): entropy segmentation plus a
//! conditional segment model.
//!
//! EIP "efficiently generated addresses by extracting patterns in the
//! entropy of seed address nybbles" (§2.1): contiguous nybble positions
//! with similar entropy form *segments*; each segment's observed values
//! are mined, and a Bayesian-network-like chain captures how adjacent
//! segments co-occur. Generation walks the chain, sampling segment values
//! conditioned on the previous segment.
//!
//! EIP's characteristic weakness in the study — orders of magnitude fewer
//! hits than the tree family — emerges naturally: cross-segment sampling
//! recombines values from *different* networks, producing entropy-
//! plausible but mostly nonexistent addresses.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{nybble_of, EntropyProfile};

use crate::sink::{Candidates, Tag};
use crate::{GenConfig, TargetGenerator, TgaId};

/// The Entropy/IP generator.
#[derive(Debug, Clone)]
pub struct EntropyIp {
    /// Entropy-difference threshold for segment boundaries.
    pub segment_threshold: f64,
    /// Segments longer than this many nybbles are chopped (values must
    /// stay machine-word sized).
    pub max_segment_len: usize,
    /// Distinct values kept per segment (the mined "frequent values").
    pub max_values: usize,
    /// Probability of sampling a segment value from outside the chain.
    pub explore: f64,
}

impl Default for EntropyIp {
    fn default() -> Self {
        EntropyIp {
            segment_threshold: 0.40,
            max_segment_len: 8,
            max_values: 64,
            explore: 0.03,
        }
    }
}

/// One segment of the model.
struct Segment {
    /// Nybble positions covered.
    range: std::ops::Range<usize>,
    /// Observed values (packed nybbles) with counts, truncated to the most
    /// frequent `max_values`.
    values: Vec<(u64, u32)>,
}

impl Segment {
    fn pack(addr: Ipv6Addr, range: &std::ops::Range<usize>) -> u64 {
        let mut v = 0u64;
        for i in range.clone() {
            v = (v << 4) | u64::from(nybble_of(addr, i));
        }
        v
    }

    fn unpack(mut value: u64, len: usize, out: &mut [u8]) {
        for i in (0..len).rev() {
            out[i] = (value & 0xf) as u8; // i < len <= out.len(): out is the segment slice
            value >>= 4;
        }
    }

    fn sample_marginal(&self, rng: &mut SmallRng) -> u64 {
        let total: u64 = self.values.iter().map(|&(_, c)| u64::from(c)).sum();
        if total == 0 {
            return rng.gen::<u64>() & ((1u64 << (4 * self.range.len().min(15))) - 1);
        }
        let mut x = rng.gen_range(0..total);
        for &(v, c) in &self.values {
            if x < u64::from(c) {
                return v;
            }
            x -= u64::from(c);
        }
        self.values[0].0
    }
}

impl TargetGenerator for EntropyIp {
    fn id(&self) -> TgaId {
        TgaId::EntropyIp
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xe1b);
        let mut sink = Candidates::new(cfg.budget, prov);
        if seeds.is_empty() {
            return sink.finish(seeds, &mut rng);
        }
        // Provenance: EIP has no spatial partition — every candidate comes
        // from the one global segment model, so region 0 with the whole
        // seed set's digest is the honest attribution.
        let model = Tag::new(0, seed_digest(seeds.iter().copied()), 0);

        // 1. Entropy profile → segment boundaries (chopped to word size).
        let profile = EntropyProfile::compute(seeds);
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for seg in profile.segments(self.segment_threshold) {
            let mut start = seg.start;
            while seg.end - start > self.max_segment_len {
                ranges.push(start..start + self.max_segment_len);
                start += self.max_segment_len;
            }
            ranges.push(start..seg.end);
        }

        // 2. Mine per-segment frequent values.
        let segments: Vec<Segment> = ranges
            .iter()
            .map(|r| {
                let mut counts: HashMap<u64, u32> = HashMap::new();
                for &s in seeds {
                    *counts.entry(Segment::pack(s, r)).or_insert(0) += 1;
                }
                let mut values: Vec<(u64, u32)> = counts.into_iter().collect();
                values.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
                values.truncate(self.max_values);
                Segment {
                    range: r.clone(),
                    values,
                }
            })
            .collect();

        // 3. Conditional chain between consecutive *informative* segments
        //    (constant segments carry no information; EIP's Bayesian
        //    network links the variable ones). chain[k] holds transitions
        //    from informative segment k to informative segment k+1.
        let informative: Vec<usize> = (0..segments.len())
            .filter(|&i| segments[i].values.len() > 1) // i < segments.len()
            .collect();
        let mut chain: Vec<HashMap<u64, Vec<(u64, u32)>>> = Vec::new();
        for w in informative.windows(2) {
            let mut trans: HashMap<u64, HashMap<u64, u32>> = HashMap::new();
            for &s in seeds {
                let a = Segment::pack(s, &segments[w[0]].range); // windows(2) over indices < segments.len()
                let b = Segment::pack(s, &segments[w[1]].range);
                *trans.entry(a).or_default().entry(b).or_insert(0) += 1;
            }
            chain.push(
                trans
                    .into_iter()
                    .map(|(k, m)| {
                        let mut v: Vec<(u64, u32)> = m.into_iter().collect();
                        v.sort_by_key(|&(val, c)| (std::cmp::Reverse(c), val));
                        v.truncate(self.max_values);
                        (k, v)
                    })
                    .collect(),
            );
        }
        // Position of each segment in the informative ordering.
        let inf_rank: HashMap<usize, usize> =
            informative.iter().enumerate().map(|(k, &i)| (i, k)).collect();

        // 4. Walk the chain to synthesize addresses.
        let mut nybbles = [0u8; 32];
        sink.draw(cfg.budget, cfg.budget * 4 + 4096, model, || {
            let mut prev: Option<u64> = None;
            for (i, seg) in segments.iter().enumerate() {
                // chain[k-1] maps informative segment k-1's value to a
                // distribution over informative segment k's values.
                let conditional = match (inf_rank.get(&i), prev) {
                    (Some(&k), Some(p)) if k > 0 && !rng.gen_bool(self.explore) => {
                        chain.get(k - 1).and_then(|t| t.get(&p))
                    }
                    _ => None,
                };
                let value = match conditional {
                    Some(dist) if !dist.is_empty() => {
                        let total: u64 = dist.iter().map(|&(_, c)| u64::from(c)).sum();
                        let mut x = rng.gen_range(0..total);
                        let mut picked = dist[0].0;
                        for &(v, c) in dist {
                            if x < u64::from(c) {
                                picked = v;
                                break;
                            }
                            x -= u64::from(c);
                        }
                        picked
                    }
                    _ => seg.sample_marginal(&mut rng),
                };
                Segment::unpack(value, seg.range.len(), &mut nybbles[seg.range.clone()]); // segment ranges lie within 0..NYBBLES
                if seg.values.len() > 1 {
                    prev = Some(value);
                }
            }
            let mut bits = 0u128;
            for &n in &nybbles {
                bits = (bits << 4) | u128::from(n);
            }
            Some(Ipv6Addr::from(bits))
        });

        sink.finish(seeds, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        // two networks with distinct low-byte populations
        let mut v = Vec::new();
        for i in 1..=20u128 {
            v.push(Ipv6Addr::from(0x2600_0bad_0006_0000_0000_0000_0000_0000u128 | i));
            v.push(Ipv6Addr::from(0x2a00_0c0f_fee0_0000_0000_0000_0000_0000u128 | (i << 8)));
        }
        v
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = EntropyIp::default().generate(
            &seeds(),
            &GenConfig::new(800, 5, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 800);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 800);
    }

    #[test]
    fn output_respects_the_low_entropy_prefixes() {
        let out = EntropyIp::default().generate(
            &seeds(),
            &GenConfig::new(400, 5, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        // the model should mostly emit addresses inside the two observed
        // /48-ish prefixes (their nybbles are near-zero entropy)
        let plausible = out
            .iter()
            .filter(|&&a| {
                let hi = u128::from(a) >> 80;
                hi == 0x2600_0bad_0006u128 || hi == 0x2a00_0c0f_fee0u128
            })
            .count();
        assert!(
            plausible as f64 > 0.55 * out.len() as f64,
            "{plausible}/{} inside observed prefixes",
            out.len()
        );
    }

    #[test]
    fn recombination_can_cross_networks() {
        // EIP's weakness: with exploration, segment values recombine across
        // networks. Verify some outputs mix (prefix from one network, IID
        // style from the other) — those would be dead on the real Internet.
        let out = EntropyIp {
            explore: 0.35,
            ..EntropyIp::default()
        }
        .generate(
            &seeds(),
            &GenConfig::new(2000, 6, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let crossed = out
            .iter()
            .filter(|&&a| {
                let bits = u128::from(a);
                let hi = bits >> 80;
                let low = bits & 0xffff;
                // network A prefix with network B's shifted-IID pattern
                hi == 0x2600_0bad_0006u128 && low & 0xff == 0 && low != 0
            })
            .count();
        assert!(crossed > 0, "expected cross-network recombinations");
    }

    #[test]
    fn deterministic_and_offline() {
        let cfg = GenConfig::new(300, 7, Protocol::Icmp);
        let mut oracle = NullOracle::default();
        let a = EntropyIp::default().generate(&seeds(), &cfg, &mut oracle);
        assert_eq!(ScanOracle::packets_sent(&oracle), 0);
        let b = EntropyIp::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_seeds() {
        let out = EntropyIp::default().generate(
            &[],
            &GenConfig::new(50, 8, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 50);
    }
}
