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
use rand::{RngCore, SeedableRng};

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{nybble_of, AddrMap, NYBBLES};

use crate::pattern::{coin, fill_guide, inverse_cdf, ValueHist};
use crate::sink::{Candidates, Tag};
use crate::{GenConfig, SeedModel, TargetGenerator, TgaId};

/// Entropy-difference threshold for segment boundaries.
const SEGMENT_THRESHOLD: f64 = 0.40;
/// Segments longer than this many nybbles are chopped (values must stay
/// machine-word sized).
const MAX_SEGMENT_LEN: usize = 8;
/// Distinct values kept per segment (the mined "frequent values").
const MAX_VALUES: usize = 64;
/// Probability of sampling a segment value from outside the chain.
const EXPLORE: f64 = 0.03;

/// The Entropy/IP generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct EntropyIp;

/// Packed segment values with their observation counts, most frequent
/// first, their cumulative counts with a guide over them
/// ([`inverse_cdf`]), and the sum of those counts (every weighted draw
/// starts from it).
struct Weighted {
    values: Vec<(u64, u32)>,
    /// `bounds[j]`: the counts of `values[..=j]` summed.
    bounds: Vec<u64>,
    /// The bounds' [`fill_guide`] table, one bucket per value rounded up
    /// to a power of two (at most [`MAX_VALUES`], so a `u8` holds any
    /// index).
    guide: Vec<u8>,
    total: u64,
    /// `next[j]`: the row of the chain's next table that holds the
    /// transitions out of `values[j]` ([`Self::link`]; empty for a
    /// segment no informative segment follows).
    next: Vec<u32>,
}

impl Weighted {
    /// Rank `counts` by descending count (ties by value), keep the top
    /// `max_values`.
    fn top(counts: AddrMap<u64, u32>, max_values: usize) -> Weighted {
        let mut values: Vec<(u64, u32)> = counts.into_iter().collect();
        values.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        values.truncate(max_values);
        let bounds: Vec<u64> = values
            .iter()
            .scan(0, |sum, &(_, c)| {
                *sum += u64::from(c);
                Some(*sum)
            })
            .collect();
        let total = bounds.last().copied().unwrap_or(0);
        let mut guide = vec![0; values.len().next_power_of_two()];
        fill_guide(&bounds, total, &mut guide);
        Weighted {
            values,
            bounds,
            guide,
            total,
            next: Vec::new(),
        }
    }

    /// Point each value at its row in the next table, whose rows are keyed
    /// by `rows`.
    fn link(&mut self, rows: &AddrMap<u64, u32>) {
        self.next = self
            .values
            .iter()
            .map(|(v, _)| rows.get(v).copied().unwrap_or(u32::MAX))
            .collect();
    }

    /// Count-weighted draw from the high half of an RNG `word`
    /// ([`inverse_cdf`]): the drawn value and its row in the next table.
    /// `None` when nothing was observed.
    fn pick(&self, word: u64) -> Option<(u64, Option<u32>)> {
        let j = inverse_cdf(&self.bounds, &self.guide, self.total, word);
        let &(value, _) = self.values.get(j)?;
        Some((value, self.next.get(j).copied()))
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

    /// A draw from `dist`, falling back on the segment's own counts, read
    /// from an RNG `word` (uniform from the word itself when nothing was
    /// observed): the value and its row in the next table.
    fn draw(&self, dist: Option<&Weighted>, word: u64) -> (u64, Option<u32>) {
        dist.and_then(|d| d.pick(word))
            .or_else(|| self.observed.pick(word))
            .unwrap_or((word & ((1u64 << (4 * self.range.len().min(15))) - 1), None))
    }
}

impl TargetGenerator for EntropyIp {
    fn id(&self) -> TgaId {
        TgaId::EntropyIp
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        Box::new(Fitted::new(seeds))
    }
}

/// Entropy/IP's model: the segments, the chain between the informative
/// ones, and each segment's rank among those.
struct Fitted<'a> {
    seeds: &'a [Ipv6Addr],
    tag: Tag,
    segments: Vec<Segment>,
    /// `chain[k][row]`: the transitions from one value of informative
    /// segment `k` to informative segment `k + 1`, found through the
    /// drawn value's `next` row.
    chain: Vec<Vec<Weighted>>,
    inf_rank: Vec<Option<usize>>,
}

impl<'a> Fitted<'a> {
    fn new(seeds: &'a [Ipv6Addr]) -> Self {
        // Provenance: EIP has no spatial partition — every candidate comes
        // from the one global segment model, so region 0 with the whole
        // seed set's digest is the honest attribution.
        let tag = Tag::new(0, seed_digest(seeds.iter().copied()), 0);

        // 1. Entropy segments (chopped to word size).
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for seg in segments(seeds, SEGMENT_THRESHOLD) {
            let mut start = seg.start;
            while seg.end - start > MAX_SEGMENT_LEN {
                ranges.push(start..start + MAX_SEGMENT_LEN);
                start += MAX_SEGMENT_LEN;
            }
            ranges.push(start..seg.end);
        }

        // 2. Mine per-segment frequent values.
        let mut segments: Vec<Segment> = ranges
            .iter()
            .map(|r| {
                let mut counts: AddrMap<u64, u32> = AddrMap::default();
                for &s in seeds {
                    *counts.entry(Segment::pack(s, r)).or_insert(0) += 1;
                }
                Segment {
                    range: r.clone(),
                    observed: Weighted::top(counts, MAX_VALUES),
                }
            })
            .collect();

        // 3. Conditional chain between consecutive *informative* segments
        //    (constant segments carry no information; EIP's Bayesian
        //    network links the variable ones). chain[k] holds transitions
        //    from informative segment k to informative segment k+1, one row
        //    per value of segment k, in value order.
        let informative: Vec<usize> = (0..segments.len())
            .filter(|&i| segments[i].informative()) // i < segments.len()
            .collect();
        let mut chain: Vec<Vec<Weighted>> = Vec::new();
        for w in informative.windows(2) {
            let mut trans: AddrMap<u64, AddrMap<u64, u32>> = AddrMap::default();
            for &s in seeds {
                let a = Segment::pack(s, &segments[w[0]].range); // windows(2) over indices < segments.len()
                let b = Segment::pack(s, &segments[w[1]].range);
                *trans.entry(a).or_default().entry(b).or_insert(0) += 1;
            }
            let mut froms: Vec<(u64, AddrMap<u64, u32>)> = trans.into_iter().collect();
            froms.sort_unstable_by_key(|&(a, _)| a);
            // Every value of segment w[0] — its own counts' and those of
            // the transitions into it — points at its row here.
            let rows: AddrMap<u64, u32> =
                (0..).zip(&froms).map(|(row, &(a, _))| (a, row)).collect();
            segments[w[0]].observed.link(&rows);
            if let Some(into) = chain.last_mut() {
                into.iter_mut().for_each(|t| t.link(&rows));
            }
            chain.push(
                froms
                    .into_iter()
                    .map(|(_, m)| Weighted::top(m, MAX_VALUES))
                    .collect(),
            );
        }
        // Position of each segment in the informative ordering.
        let mut inf_rank: Vec<Option<usize>> = vec![None; segments.len()];
        for (k, &i) in informative.iter().enumerate() {
            inf_rank[i] = Some(k); // i < segments.len()
        }
        Fitted {
            seeds,
            tag,
            segments,
            chain,
            inf_rank,
        }
    }

    /// Walk the chain to synthesize one address, OR-ing each segment's
    /// packed value into place (the segments partition the 32 digits).
    /// Each segment costs one RNG word: its low half is the `explore` coin
    /// that leaves the chain, its high half the value.
    fn propose<R: RngCore + ?Sized>(&self, rng: &mut R, explore: f64) -> Ipv6Addr {
        // the previous informative segment's value, as its row of the
        // chain's next table
        let mut prev: Option<u32> = None;
        let mut bits = 0u128;
        for (seg, &rank) in self.segments.iter().zip(&self.inf_rank) {
            let word = rng.next_u64();
            let conditional = match (rank, prev) {
                (Some(k), Some(row)) if k > 0 && !coin(word, explore) => {
                    self.chain.get(k - 1).and_then(|t| t.get(row as usize))
                }
                _ => None,
            };
            let (value, next) = seg.draw(conditional, word);
            // a packed value holds exactly its segment's digits
            bits |= u128::from(value) << (4 * (NYBBLES - seg.range.end)); // ranges lie within 0..NYBBLES
            if seg.informative() {
                prev = next;
            }
        }
        Ipv6Addr::from(bits)
    }
}

impl SeedModel for Fitted<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xe1b);
        let mut sink = Candidates::new(cfg.budget, prov);
        if self.seeds.is_empty() {
            return sink.finish(self.seeds, &mut rng);
        }

        sink.draw(cfg.budget, cfg.budget * 4 + 4096, self.tag, || {
            Some(self.propose(&mut rng, EXPLORE))
        });

        sink.finish(self.seeds, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{edge_words, scaled, Counting};
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        // two networks with distinct low-byte populations
        let mut v = Vec::new();
        for i in 1..=20u128 {
            v.push(Ipv6Addr::from(
                0x2600_0bad_0006_0000_0000_0000_0000_0000u128 | i,
            ));
            v.push(Ipv6Addr::from(
                0x2a00_0c0f_fee0_0000_0000_0000_0000_0000u128 | (i << 8),
            ));
        }
        v
    }

    /// Every address differs from the next in the last nybble only.
    fn counting(n: u128, step: u128) -> Vec<Ipv6Addr> {
        (0..n)
            .map(|i| Ipv6Addr::from((0x2001_0db8 << 96) | (i * step)))
            .collect()
    }

    #[test]
    fn segments_cover_all_positions() {
        let segs = segments(&counting(64, 7), 0.5);
        assert_eq!(segs.first().unwrap().start, 0);
        assert_eq!(segs.last().unwrap().end, NYBBLES);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(
            segments(&[], 0.5),
            vec![0..NYBBLES],
            "no seeds: one flat segment"
        );
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
        assert_eq!(
            top.values,
            vec![(1, 2), (2, 1)],
            "most frequent first, ties by value"
        );
        assert_eq!(top.total, 3);
    }

    /// The subtract-and-walk the bounds search replaced, kept as its
    /// reference.
    fn walk(w: &Weighted, mut x: u64) -> Option<u64> {
        let first = w.values.first()?.0;
        for &(v, c) in &w.values {
            if x < u64::from(c) {
                return Some(v);
            }
            x -= u64::from(c);
        }
        Some(first)
    }

    /// Count maps whose tables have totals 0, 1, 3 (below their 4
    /// buckets), 6, 8 (a power of two) and past 2¹⁶, then random ones.
    fn assorted_counts(rng: &mut SmallRng) -> Vec<Vec<(u64, u32)>> {
        let mut count_sets = vec![
            vec![],
            vec![(5, 1)],
            vec![(1, 1), (2, 1), (3, 1)],
            vec![(1, 3), (2, 3)],
            vec![(1, 3), (2, 3), (7, 2)],
            vec![(1, 40_000), (9, 30_000), (4, 1)],
        ];
        for _ in 0..200 {
            let n = rng.next_u64() % 90 + 1;
            count_sets.push(
                (0..n)
                    .map(|_| (rng.next_u64() % 200, (rng.next_u64() % 40) as u32 + 1))
                    .collect(),
            );
        }
        count_sets
    }

    #[test]
    fn the_bounds_search_is_the_walk_for_every_x() {
        // the bounds search the guide replaced: the index of the value
        // whose cumulative count first passes `x`
        let at = |w: &Weighted, x: u64| w.bounds.partition_point(|&b| b <= x);
        for counts in assorted_counts(&mut SmallRng::seed_from_u64(41)) {
            let w = Weighted::top(counts.iter().copied().collect(), MAX_VALUES);
            assert_eq!(w.total, w.values.iter().map(|&(_, c)| u64::from(c)).sum());
            for x in 0..w.total {
                let found = w.values.get(at(&w, x)).map(|&(v, _)| v);
                assert_eq!(found, walk(&w, x), "{:?}, x {x}", w.values);
            }
            assert_eq!(w.pick(u64::MAX).is_some(), w.total > 0);
        }
    }

    /// The guided pick against the bounds search it replaced, at every
    /// word where either could step: the assorted count maps, and every
    /// table (segments and chain rows) of two fitted models.
    #[test]
    fn a_guided_pick_is_the_search_at_every_edge() {
        let mut tables: Vec<Weighted> = assorted_counts(&mut SmallRng::seed_from_u64(46))
            .into_iter()
            .map(|counts| Weighted::top(counts.into_iter().collect(), MAX_VALUES))
            .collect();
        for seeds in [seeds(), counting(64, 7)] {
            let model = Fitted::new(&seeds);
            tables.extend(model.segments.into_iter().map(|s| s.observed));
            tables.extend(model.chain.into_iter().flatten());
        }
        for w in &tables {
            for word in edge_words(w.total, w.guide.len()) {
                let want = w.bounds.partition_point(|&b| b <= scaled(word, w.total));
                let got = inverse_cdf(&w.bounds, &w.guide, w.total, word);
                assert_eq!(got, want, "{:?}, word {word:#x}", w.values);
                let value = w.values.get(want).map(|&(v, _)| v);
                assert_eq!(w.pick(word).map(|(v, _)| v), value);
            }
        }
    }

    #[test]
    fn a_segment_costs_one_word() {
        let wide: Vec<Ipv6Addr> = (0..1u128 << 16)
            .map(|i| Ipv6Addr::from(0x2001_0db8 << 96 | (i * 0x9e37_79b9) & 0xffff_ffff_ffff))
            .collect();
        // seed sets whose segments observe 0, 1, 7 and 2¹⁶ values
        for seeds in [vec![], counting(1, 1), counting(7, 0x101), wide] {
            let model = Fitted::new(&seeds);
            for explore in [0.0, 0.06, 1.0] {
                let mut rng = Counting {
                    rng: SmallRng::seed_from_u64(seeds.len() as u64),
                    words: 0,
                };
                for n in 1..=64 {
                    model.propose(&mut rng, explore);
                    assert_eq!(
                        rng.words,
                        n * model.segments.len(),
                        "{} seeds, explore {explore}",
                        seeds.len()
                    );
                }
            }
        }
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = EntropyIp.generate(
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
        let out = EntropyIp.generate(
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
        // EIP's weakness: even at its 3 % exploration rate, segment values
        // recombine across networks. Verify some outputs mix (prefix from
        // one network, IID style from the other) — those would be dead on
        // the real Internet.
        let out = EntropyIp.generate(
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
        let a = EntropyIp.generate(&seeds(), &cfg, &mut oracle);
        assert_eq!(ScanOracle::packets_sent(&oracle), 0);
        let b = EntropyIp.generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_seeds() {
        let out = EntropyIp.generate(
            &[],
            &GenConfig::new(50, 8, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 50);
    }
}
