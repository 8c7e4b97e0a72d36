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

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{nybble_of, AddrMap, NYBBLES};

use crate::pattern::ValueHist;
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

/// Packed segment values with their observation counts, most frequent
/// first, and the sum of those counts (every weighted draw starts from it).
struct Weighted {
    values: Vec<(u64, u32)>,
    total: u64,
}

impl Weighted {
    /// Rank `counts` by descending count (ties by value), keep the top
    /// `max_values`.
    fn top(counts: AddrMap<u64, u32>, max_values: usize) -> Weighted {
        let mut values: Vec<(u64, u32)> = counts.into_iter().collect();
        values.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        values.truncate(max_values);
        let total = values.iter().map(|&(_, c)| u64::from(c)).sum();
        Weighted { values, total }
    }

    /// Count-weighted draw; `None` when nothing was observed.
    fn sample(&self, rng: &mut SmallRng) -> Option<u64> {
        let first = self.values.first()?.0;
        let mut x = rng.gen_range(0..self.total);
        for &(v, c) in &self.values {
            if x < u64::from(c) {
                return Some(v);
            }
            x -= u64::from(c);
        }
        Some(first)
    }
}

/// Entropy/IP's segmentation of the 32 nybble positions: adjacent
/// positions whose value entropy across `seeds` differs by less than
/// `threshold` belong to one segment. The segments partition `0..NYBBLES`.
fn segments(seeds: &[Ipv6Addr], threshold: f64) -> Vec<std::ops::Range<usize>> {
    let mut hists = [ValueHist::default(); NYBBLES];
    for &s in seeds {
        for (i, h) in hists.iter_mut().enumerate() {
            h.add(nybble_of(s, i));
        }
    }
    let entropy = hists.map(|h| h.entropy());
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..NYBBLES {
        if (entropy[i] - entropy[i - 1]).abs() >= threshold {
            out.push(start..i);
            start = i;
        }
    }
    out.push(start..NYBBLES);
    out
}

/// One segment of the model.
struct Segment {
    /// Nybble positions covered.
    range: std::ops::Range<usize>,
    /// Observed values (packed nybbles), truncated to the most frequent
    /// `max_values`.
    observed: Weighted,
}

impl Segment {
    fn pack(addr: Ipv6Addr, range: &std::ops::Range<usize>) -> u64 {
        let mut v = 0u64;
        for i in range.clone() {
            v = (v << 4) | u64::from(nybble_of(addr, i));
        }
        v
    }

    /// Is there anything to condition on (more than one observed value)?
    fn informative(&self) -> bool {
        self.observed.values.len() > 1
    }

    fn sample_marginal(&self, rng: &mut SmallRng) -> u64 {
        self.observed
            .sample(rng)
            .unwrap_or_else(|| rng.gen::<u64>() & ((1u64 << (4 * self.range.len().min(15))) - 1))
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

        // 1. Entropy segments (chopped to word size).
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for seg in segments(seeds, self.segment_threshold) {
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
                let mut counts: AddrMap<u64, u32> = AddrMap::default();
                for &s in seeds {
                    *counts.entry(Segment::pack(s, r)).or_insert(0) += 1;
                }
                Segment {
                    range: r.clone(),
                    observed: Weighted::top(counts, self.max_values),
                }
            })
            .collect();

        // 3. Conditional chain between consecutive *informative* segments
        //    (constant segments carry no information; EIP's Bayesian
        //    network links the variable ones). chain[k] holds transitions
        //    from informative segment k to informative segment k+1.
        let informative: Vec<usize> = (0..segments.len())
            .filter(|&i| segments[i].informative()) // i < segments.len()
            .collect();
        let mut chain: Vec<AddrMap<u64, Weighted>> = Vec::new();
        for w in informative.windows(2) {
            let mut trans: AddrMap<u64, AddrMap<u64, u32>> = AddrMap::default();
            for &s in seeds {
                let a = Segment::pack(s, &segments[w[0]].range); // windows(2) over indices < segments.len()
                let b = Segment::pack(s, &segments[w[1]].range);
                *trans.entry(a).or_default().entry(b).or_insert(0) += 1;
            }
            chain.push(
                // sos-lint: allow(det-hash-iter, det-unordered-iter) re-keyed into another map that is only ever looked up
                trans
                    .into_iter()
                    .map(|(k, m)| (k, Weighted::top(m, self.max_values)))
                    .collect(),
            );
        }
        // Position of each segment in the informative ordering.
        let mut inf_rank: Vec<Option<usize>> = vec![None; segments.len()];
        for (k, &i) in informative.iter().enumerate() {
            inf_rank[i] = Some(k); // i < segments.len()
        }

        // 4. Walk the chain to synthesize addresses, OR-ing each segment's
        //    packed value into place (the segments partition the 32 digits).
        sink.draw(cfg.budget, cfg.budget * 4 + 4096, model, || {
            let mut prev: Option<u64> = None;
            let mut bits = 0u128;
            for (seg, &rank) in segments.iter().zip(&inf_rank) {
                // chain[k-1] maps informative segment k-1's value to a
                // distribution over informative segment k's values.
                let conditional = match (rank, prev) {
                    (Some(k), Some(p)) if k > 0 && !rng.gen_bool(self.explore) => {
                        chain.get(k - 1).and_then(|t| t.get(&p))
                    }
                    _ => None,
                };
                let value = conditional
                    .and_then(|dist| dist.sample(&mut rng))
                    .unwrap_or_else(|| seg.sample_marginal(&mut rng));
                // a packed value holds exactly its segment's digits
                bits |= u128::from(value) << (4 * (NYBBLES - seg.range.end)); // ranges lie within 0..NYBBLES
                if seg.informative() {
                    prev = Some(value);
                }
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

    /// Every address differs from the next in the last nybble only.
    fn counting(n: u128, step: u128) -> Vec<Ipv6Addr> {
        (0..n).map(|i| Ipv6Addr::from((0x2001_0db8 << 96) | (i * step))).collect()
    }

    #[test]
    fn segments_cover_all_positions() {
        let segs = segments(&counting(64, 7), 0.5);
        assert_eq!(segs.first().unwrap().start, 0);
        assert_eq!(segs.last().unwrap().end, NYBBLES);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(segments(&[], 0.5), vec![0..NYBBLES], "no seeds: one flat segment");
    }

    #[test]
    fn constant_positions_form_one_segment() {
        // all but the last nybble are constant (entropy 0), the last one
        // carries 3 bits
        assert_eq!(segments(&counting(8, 1), 0.5), vec![0..31, 31..NYBBLES]);
    }

    #[test]
    fn weighted_values_rank_by_frequency() {
        let counts: AddrMap<u64, u32> = [(2, 1), (1, 2), (3, 1)].into_iter().collect();
        let top = Weighted::top(counts, 2);
        assert_eq!(top.values, vec![(1, 2), (2, 1)], "most frequent first, ties by value");
        assert_eq!(top.total, 3);
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
