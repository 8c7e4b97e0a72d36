//! Patterns: partially fixed 32-nybble templates with per-position value
//! statistics — the lingua franca of every studied TGA.

use std::net::Ipv6Addr;

use rand::RngCore;
use v6addr::NYBBLES;

/// Bit offset of nybble `idx` inside the address's `u128`.
#[inline]
pub(crate) fn shift_of(idx: usize) -> u32 {
    ((NYBBLES - 1 - idx) * 4) as u32
}

/// Positions of the set bits of `mask`, ascending.
pub(crate) fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            idx
        })
    })
}

/// Which digits vary across `addrs`, bit `i` for nybble `i`: a digit varies
/// iff some address differs from the first in any of its four bits, so OR
/// the differences and fold each digit onto its low bit.
pub(crate) fn varying_digits(addrs: &[Ipv6Addr]) -> u32 {
    let Some(&first) = addrs.first() else {
        return 0;
    };
    let first = u128::from(first);
    let mut diff = addrs
        .iter()
        .fold(0u128, |d, &a| d | (u128::from(a) ^ first));
    diff |= diff >> 1;
    diff |= diff >> 2;
    (0..NYBBLES)
        .filter(|&i| (diff >> shift_of(i)) & 1 == 1)
        .fold(0u32, |mask, i| mask | (1 << i))
}

/// Histogram of nybble values observed at one position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueHist {
    counts: [u32; 16],
    /// Sum of `counts`, kept as observations arrive: every draw reads it.
    total: u32,
}

impl ValueHist {
    /// Record one observation.
    #[inline]
    pub fn add(&mut self, v: u8) {
        self.counts[(v & 0xf) as usize] += 1;
        self.total += 1;
    }

    /// Observations of value `v` (low 4 bits used).
    #[inline]
    pub fn count(&self, v: u8) -> u32 {
        self.counts[(v & 0xf) as usize]
    }

    /// Total observations.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of distinct observed values.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Observed values, ascending.
    pub fn values(&self) -> Vec<u8> {
        (0u8..16).filter(|&v| self.count(v) > 0).collect()
    }

    /// Shannon entropy of the observed distribution (bits).
    pub fn entropy(&self) -> f64 {
        entropy_of(&self.counts, self.total)
    }

    /// This histogram compiled for drawing ([`DigitTable`]).
    pub(crate) fn compile(&self) -> DigitTable {
        let mut table = DigitTable {
            total: self.total,
            bounds: [u32::MAX; 16],
            values: [0; 16],
            guide: [0; 16],
        };
        let mut sum = 0;
        let mut j = 0;
        for (v, &c) in (0u8..).zip(&self.counts) {
            if c > 0 {
                sum += c;
                table.bounds[j] = sum; // j < 16: one slot per value
                table.values[j] = v;
                j += 1;
            }
        }
        fill_guide(&table.bounds, u64::from(self.total), &mut table.guide);
        table
    }
}

/// Shannon entropy (bits) of a 16-value histogram whose counts sum to
/// `total`; terms are added in value order.
pub(crate) fn entropy_of(counts: &[u32; 16], total: u32) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = f64::from(c) / f64::from(total);
            h -= p * p.log2();
        }
    }
    h
}

/// A coin with probability `p` (up to 2⁻³²) read from the low half of an
/// RNG `word`: the half is below `p · 2³²`. Certain at `p = 1`, never at 0.
#[inline]
pub(crate) fn coin(word: u64, p: f64) -> bool {
    u64::from(word as u32) < (p * 4_294_967_296.0) as u64
}

/// A number in `0..total` read from the high half of an RNG `word` by
/// multiply-shift: each number gets ⌊2³²/total⌋ or ⌈2³²/total⌉ of the 2³²
/// halves, so a weight is off by at most `total / 2³²` of itself. Zero
/// when `total` is.
#[inline]
pub(crate) fn scaled(word: u64, total: u64) -> u64 {
    ((u128::from(word >> 32) * u128::from(total)) >> 32) as u64
}

/// Fill `guide` for the ascending cumulative counts `bounds` summing to
/// `total` (Chen & Asau's indexed search): with `G = guide.len()`, a power
/// of two, `guide[g]` is the number of bounds at or below `⌊g·total/G⌋`.
/// One merged pass over the bounds; an index too wide for `I` keeps the
/// slot before it, which is still at or below the answer.
pub(crate) fn fill_guide<B, I>(bounds: &[B], total: u64, guide: &mut [I])
where
    B: Copy + Into<u64>,
    I: Copy + Default + TryFrom<usize>,
{
    debug_assert!(guide.len().is_power_of_two());
    let log_g = guide.len().trailing_zeros();
    let mut j = 0;
    let mut last = I::default();
    for (g, slot) in (0u64..).zip(guide.iter_mut()) {
        let floor = ((u128::from(g) * u128::from(total)) >> log_g) as u64; // < total: g < G
        while bounds.get(j).is_some_and(|&b| b.into() <= floor) {
            j += 1;
        }
        last = I::try_from(j).unwrap_or(last);
        *slot = last;
    }
}

/// The inverse CDF of the cumulative counts `bounds` (summing to `total`)
/// at the high half of an RNG `word`: the number of bounds at or below
/// [`scaled`]`(word, total)`, i.e. the index of the first value whose
/// cumulative count passes it. Starts at the word's [`fill_guide`] bucket
/// and steps forward; that bucket's count is never past the answer, so
/// every word maps where a search over all the bounds would. Zero when
/// `total` is.
#[inline]
pub(crate) fn inverse_cdf<B, I>(bounds: &[B], guide: &[I], total: u64, word: u64) -> usize
where
    B: Copy + Into<u64>,
    I: Copy + Into<usize>,
{
    let x = scaled(word, total);
    let g = scaled(word, guide.len() as u64) as usize; // < guide.len()
    let mut j = guide.get(g).map_or(0, |&i| i.into());
    while bounds.get(j).is_some_and(|&b| b.into() <= x) {
        j += 1;
    }
    j
}

/// An RNG that counts the calls made on it: the tests that hold a weighted
/// draw to one word read `words`.
#[cfg(test)]
pub(crate) struct Counting<R> {
    pub rng: R,
    pub words: usize,
}

#[cfg(test)]
impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.rng.next_u64()
    }
}

/// An RNG that returns one word forever: the edge tests feed a draw the
/// word they chose.
#[cfg(test)]
pub(crate) struct Word(pub u64);

#[cfg(test)]
impl RngCore for Word {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// RNG words, low half zero, whose high halves lie on both sides of every
/// step of [`scaled`]`(word, total)` and of the guide bucket
/// `scaled(word, buckets)`, plus the two ends: the words where a guided
/// lookup could first part from a search over all the bounds.
#[cfg(test)]
pub(crate) fn edge_words(total: u64, buckets: usize) -> Vec<u64> {
    // the first high half at which `scaled(·, n)` reaches k, for 0 < k < n
    let steps = |n: u64| {
        (1..n.min(1 << 32)).map(move |k| (u128::from(k) << 32).div_ceil(u128::from(n)) as u64)
    };
    let mut highs = vec![0, u64::from(u32::MAX)];
    for h in steps(total).chain(steps(buckets as u64)) {
        highs.extend([h - 1, h]);
    }
    highs.sort_unstable();
    highs.dedup();
    highs.into_iter().map(|h| h << 32).collect()
}

/// A [`ValueHist`] compiled for drawing: the observed values in ascending
/// order with their cumulative counts and a 16-bucket guide over them
/// ([`inverse_cdf`]), so a weighted draw starts at most a step or two
/// before its value. Every product draw of a digit goes through
/// [`Self::draw`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct DigitTable {
    /// Sum of the counts: the weighted draw's range.
    total: u32,
    /// `bounds[j]`: the counts of `values[..=j]` summed; `u32::MAX` past
    /// the last observed value.
    bounds: [u32; 16],
    /// The observed values, ascending.
    values: [u8; 16],
    /// The bounds' [`fill_guide`] table.
    guide: [u8; 16],
}

impl DigitTable {
    /// A weighted draw from the observed distribution; with probability
    /// `explore` a uniform draw from all 16 values instead. Uniform when
    /// nothing was observed. Costs one RNG word: its low half is the
    /// explore [`coin`], its high half the value (through [`inverse_cdf`],
    /// or its top four bits for the uniform draw).
    #[inline]
    pub(crate) fn draw<R: RngCore + ?Sized>(&self, rng: &mut R, explore: f64) -> u8 {
        let word = rng.next_u64();
        if self.total == 0 || coin(word, explore) {
            return (word >> 60) as u8;
        }
        // below 16: the last real bound is `total`, past every draw
        let j = inverse_cdf(&self.bounds, &self.guide, u64::from(self.total), word);
        self.values[j & 15]
    }

    /// Each value's probability under [`Self::draw`] in closed form:
    /// `explore/16 + (1 − explore)·count(v)/total`, or 1/16 when nothing
    /// was observed.
    pub(crate) fn shares(&self, explore: f64) -> [f64; 16] {
        if self.total == 0 {
            return [1.0 / 16.0; 16];
        }
        let scale = (1.0 - explore) / f64::from(self.total);
        self.counts().map(|c| explore / 16.0 + scale * f64::from(c))
    }

    /// The compiled histogram's count of each value.
    pub(crate) fn counts(&self) -> [u32; 16] {
        let mut counts = [0; 16];
        let mut below = 0;
        for (&bound, &v) in self.bounds.iter().zip(&self.values) {
            if below == self.total {
                break;
            }
            counts[usize::from(v)] = bound - below; // v < 16: a nybble value
            below = bound;
        }
        counts
    }

    /// Number of distinct observed values.
    pub(crate) fn distinct(&self) -> usize {
        self.counts().iter().filter(|&&c| c > 0).count()
    }

    /// All 16 values, most observed first (ties and the unobserved in
    /// ascending order): the order [`Region::sweep`](crate::Region::sweep)
    /// visits a digit's values in.
    pub(crate) fn sweep_order(&self) -> [u8; 16] {
        let counts = self.counts();
        let mut order: [u8; 16] = std::array::from_fn(|v| v as u8);
        order.sort_by_key(|&v| std::cmp::Reverse(counts[usize::from(v)]));
        order
    }
}

/// A template over the 32 nybbles: each position is pinned to a value or
/// left free. Held as the pinned digits in place in a `u128` plus a 32-bit
/// free mask, so building, matching and materializing are word operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// The pinned digits at their address positions; zero where free.
    base: u128,
    /// Bit `i` set: nybble `i` (0 = most significant) is free.
    free: u32,
}

impl Pattern {
    /// The fully free pattern.
    pub fn free() -> Self {
        Pattern {
            base: 0,
            free: u32::MAX,
        }
    }

    /// The pattern agreeing with `seeds` wherever all of them agree.
    pub fn from_seeds(seeds: &[Ipv6Addr]) -> Self {
        let Some(&first) = seeds.first() else {
            return Pattern::free();
        };
        let free = varying_digits(seeds);
        Pattern {
            base: u128::from(first) & !digit_mask(free),
            free,
        }
    }

    /// The value position `idx` is pinned to, `None` when it is free.
    #[inline]
    pub fn fixed(&self, idx: usize) -> Option<u8> {
        debug_assert!(idx < NYBBLES);
        ((self.free >> idx) & 1 == 0).then(|| ((self.base >> shift_of(idx)) & 0xf) as u8)
    }

    /// Free position `idx` (a no-op when it already is).
    pub fn release(&mut self, idx: usize) {
        debug_assert!(idx < NYBBLES);
        self.free |= 1 << idx;
        self.base &= !(0xf << shift_of(idx));
    }

    /// Indices of free positions, ascending.
    pub fn free_positions(&self) -> Vec<usize> {
        set_bits(self.free).collect()
    }

    /// Number of free positions.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.count_ones() as usize
    }

    /// The pinned digits at their address positions, zero where free:
    /// OR a digit for each free position into it to build an address.
    #[inline]
    pub(crate) fn base(&self) -> u128 {
        self.base
    }

    /// Does `addr` match every pinned position?
    #[inline]
    pub fn matches(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & !digit_mask(self.free) == self.base
    }

    /// Materialize an address: pinned positions from the pattern, free
    /// positions from `free_values` (in [`Pattern::free_positions`] order,
    /// low 4 bits of each).
    ///
    /// # Panics
    /// Panics if `free_values` is shorter than the number of free positions.
    #[inline]
    pub fn materialize(&self, free_values: &[u8]) -> Ipv6Addr {
        let mut bits = self.base;
        for (k, idx) in set_bits(self.free).enumerate() {
            bits |= u128::from(free_values[k] & 0xf) << shift_of(idx); // k past the slice: the documented panic
        }
        Ipv6Addr::from(bits)
    }
}

/// The `u128` with `0xf` at every nybble position whose bit is set in
/// `positions`.
fn digit_mask(positions: u32) -> u128 {
    set_bits(positions).fold(0u128, |mask, idx| mask | (0xf << shift_of(idx)))
}

/// The [`DigitTable`] of `addrs`' values at each free position of
/// `pattern`, high-order first, keyed by the position's bit offset (one
/// pass over `addrs`).
pub(crate) fn free_tables(pattern: &Pattern, addrs: &[Ipv6Addr]) -> Vec<(u32, DigitTable)> {
    let mut hists = [(0, ValueHist::default()); NYBBLES];
    let mut n = 0;
    for (slot, pos) in hists.iter_mut().zip(set_bits(pattern.free)) {
        slot.0 = shift_of(pos);
        n += 1;
    }
    let hists = &mut hists[..n]; // n <= NYBBLES
    for &a in addrs {
        let bits = u128::from(a);
        for (shift, h) in hists.iter_mut() {
            h.add((bits >> *shift) as u8);
        }
    }
    hists
        .iter()
        .map(|&(shift, h)| (shift, h.compile()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn pattern_from_agreeing_seeds() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::3")];
        let p = Pattern::from_seeds(&seeds);
        // only the last nybble differs
        assert_eq!(p.free_count(), 1);
        assert_eq!(p.free_positions(), vec![31]);
        assert!(p.matches(a("2001:db8::f")));
        assert!(!p.matches(a("2001:db9::1")));
    }

    #[test]
    fn pattern_from_single_seed_is_fully_fixed() {
        let p = Pattern::from_seeds(&[a("2001:db8::1")]);
        assert_eq!(p.free_count(), 0);
        assert_eq!(p.materialize(&[]), a("2001:db8::1"));
    }

    #[test]
    fn materialize_fills_free_positions_in_order() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::ff")];
        let p = Pattern::from_seeds(&seeds);
        assert_eq!(p.free_positions(), vec![30, 31]);
        assert_eq!(p.materialize(&[0xa, 0xb]), a("2001:db8::ab"));
    }

    #[test]
    fn empty_pattern_is_fully_free() {
        let p = Pattern::from_seeds(&[]);
        assert_eq!(p.free_count(), 32);
        assert!(p.matches(a("::")));
        assert!(p.matches(a("ffff::ffff")));
    }

    #[test]
    fn hist_sampling_respects_distribution() {
        let mut h = ValueHist::default();
        for _ in 0..99 {
            h.add(3);
        }
        h.add(7);
        let mut rng = SmallRng::seed_from_u64(1);
        let table = h.compile();
        let draws: Vec<u8> = (0..200).map(|_| table.draw(&mut rng, 0.0)).collect();
        let threes = draws.iter().filter(|&&v| v == 3).count();
        assert!(threes > 180, "{threes}");
        assert!(draws.iter().all(|&v| v == 3 || v == 7));
    }

    #[test]
    fn hist_exploration_leaves_support() {
        let mut h = ValueHist::default();
        h.add(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let table = h.compile();
        let draws: Vec<u8> = (0..400).map(|_| table.draw(&mut rng, 0.5)).collect();
        let outside = draws.iter().filter(|&&v| v != 3).count();
        assert!(outside > 50, "exploration must escape the observed set");
    }

    #[test]
    fn hist_empty_samples_uniformly() {
        let table = ValueHist::default().compile();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(table.draw(&mut rng, 0.0));
        }
        assert!(seen.len() > 12, "uniform fallback covers most values");
    }

    #[test]
    fn hist_entropy_and_stats() {
        let mut h = ValueHist::default();
        assert_eq!(h.entropy(), 0.0);
        h.add(0);
        h.add(1);
        assert!((h.entropy() - 1.0).abs() < 1e-9);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.values(), vec![0, 1]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn entropy_of_constant_is_zero() {
        let mut h = ValueHist::default();
        for _ in 0..10 {
            h.add(1);
        }
        assert_eq!(h.entropy(), 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_four_bits() {
        let mut h = ValueHist::default();
        for v in 0..16 {
            h.add(v);
        }
        assert!((h.entropy() - 4.0).abs() < 1e-9, "h = {}", h.entropy());
    }

    #[test]
    fn entropy_of_two_values_is_one_bit() {
        let mut h = ValueHist::default();
        h.add(1);
        h.add(2);
        assert!((h.entropy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(ValueHist::default().entropy(), 0.0);
    }

    #[test]
    fn free_histograms_count_per_position() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::12")];
        let p = Pattern::from_seeds(&seeds);
        let tables = free_tables(&p, &seeds);
        let shifts: Vec<u32> = tables.iter().map(|(shift, _)| *shift).collect();
        assert_eq!(shifts, vec![shift_of(30), shift_of(31)]);
        let pos31 = tables
            .iter()
            .find(|(shift, _)| *shift == shift_of(31))
            .unwrap();
        let counts = pos31.1.counts();
        assert_eq!((counts[1], counts[2]), (1, 2));
        assert_eq!(counts.iter().sum::<u32>(), 3);
    }

    /// The representation the word form replaced, kept as the model the
    /// tests below compare against: one `Option<u8>` per position, every
    /// operation a loop over the 32 digits.
    struct Model([Option<u8>; NYBBLES]);

    impl Model {
        fn from_seeds(seeds: &[Ipv6Addr]) -> Model {
            Model(std::array::from_fn(|i| {
                let v = v6addr::nybble_of(*seeds.first()?, i);
                seeds
                    .iter()
                    .all(|&s| v6addr::nybble_of(s, i) == v)
                    .then_some(v)
            }))
        }

        fn free_positions(&self) -> Vec<usize> {
            (0..NYBBLES).filter(|&i| self.0[i].is_none()).collect()
        }

        fn matches(&self, addr: Ipv6Addr) -> bool {
            (0..NYBBLES).all(|i| self.0[i].map_or(true, |v| v6addr::nybble_of(addr, i) == v))
        }

        fn materialize(&self, free_values: &[u8]) -> Ipv6Addr {
            let mut free = free_values.iter();
            (0..NYBBLES).fold(Ipv6Addr::UNSPECIFIED, |acc, i| {
                let v = self.0[i].unwrap_or_else(|| *free.next().unwrap());
                v6addr::with_nybble(acc, i, v)
            })
        }
    }

    fn assert_agrees(p: &Pattern, m: &Model, rng: &mut SmallRng, what: &str) {
        for i in 0..NYBBLES {
            assert_eq!(p.fixed(i), m.0[i], "{what}: fixed({i})");
        }
        assert_eq!(
            p.free_positions(),
            m.free_positions(),
            "{what}: free_positions"
        );
        assert_eq!(
            p.free_count(),
            m.free_positions().len(),
            "{what}: free_count"
        );
        for _ in 0..8 {
            // values above 0xf: only the low four bits may land
            let values: Vec<u8> = (0..NYBBLES).map(|_| rng.gen()).collect();
            let built = p.materialize(&values[..p.free_count()]);
            assert_eq!(built, m.materialize(&values), "{what}: materialize");
            assert!(
                p.matches(built) && m.matches(built),
                "{what}: matches its own output"
            );
            // an arbitrary address, and the output with one digit moved
            let probes = [
                Ipv6Addr::from(rng.gen::<u128>()),
                v6addr::with_nybble(built, rng.gen_range(0..NYBBLES), rng.gen_range(0..16)),
            ];
            for probe in probes {
                assert_eq!(
                    p.matches(probe),
                    m.matches(probe),
                    "{what}: matches({probe})"
                );
            }
        }
    }

    #[test]
    fn pattern_agrees_with_the_option_array_model() {
        let mut rng = SmallRng::seed_from_u64(24);
        let all_varying = [Ipv6Addr::from(0u128), Ipv6Addr::from(u128::MAX)];
        let mut seed_sets: Vec<Vec<Ipv6Addr>> = vec![
            vec![],
            vec![a("2001:db8::1")],
            vec![a("::"); 3],
            all_varying.to_vec(),
        ];
        for _ in 0..200 {
            // seeds that differ from a base in a random subset of digits
            let base: u128 = rng.gen();
            let vary: u32 = rng.gen::<u32>() & rng.gen::<u32>();
            let n = rng.gen_range(1..9);
            seed_sets.push(
                (0..n)
                    .map(|_| {
                        let noise = rng.gen::<u128>() & digit_mask(vary);
                        Ipv6Addr::from(base ^ noise)
                    })
                    .collect(),
            );
        }
        for seeds in &seed_sets {
            let mut p = Pattern::from_seeds(seeds);
            let mut m = Model::from_seeds(seeds);
            assert_agrees(&p, &m, &mut rng, "from_seeds");
            // release positions one at a time, pinned and already-free alike
            for _ in 0..6 {
                let idx = rng.gen_range(0..NYBBLES);
                p.release(idx);
                m.0[idx] = None;
                assert_agrees(&p, &m, &mut rng, "release");
            }
        }
        assert_eq!(Pattern::from_seeds(&[]), Pattern::free());
        assert_eq!(Pattern::from_seeds(&all_varying).free_count(), NYBBLES);
    }

    /// The weighted draw as first written, walking the histogram's counts
    /// on every draw, fed the one word the table reads: kept as the
    /// reference for [`DigitTable::draw`].
    fn sample_by_counts(h: &ValueHist, rng: &mut SmallRng, explore: f64) -> u8 {
        let word = rng.next_u64();
        let explored = u64::from(word as u32) < (explore * 2f64.powi(32)) as u64;
        if h.total() == 0 || explored {
            return (word >> 60) as u8;
        }
        let mut x = (((word >> 32) * u64::from(h.total())) >> 32) as u32;
        for v in 0..16 {
            if x < h.count(v) {
                return v;
            }
            x -= h.count(v);
        }
        15
    }

    /// Empty (the uniform fallback), one value, then random supports and
    /// totals (powers of two among them: the shim redraws those).
    fn assorted_histograms(rng: &mut SmallRng) -> Vec<ValueHist> {
        let mut one_value = ValueHist::default();
        for _ in 0..5 {
            one_value.add(9);
        }
        let mut hists = vec![ValueHist::default(), one_value];
        for _ in 0..300 {
            let support: u16 = rng.gen();
            let mut h = ValueHist::default();
            for _ in 0..rng.gen_range(1..70) {
                let v = rng.gen_range(0..16u8);
                if support >> v & 1 == 1 {
                    h.add(v);
                }
            }
            hists.push(h);
        }
        hists
    }

    #[test]
    fn a_compiled_draw_is_the_histogram_draw() {
        let hists = assorted_histograms(&mut SmallRng::seed_from_u64(36));
        for (i, h) in hists.iter().enumerate() {
            let table = h.compile();
            for explore in [0.0, 0.06, 1.0] {
                let mut compiled = SmallRng::seed_from_u64(i as u64);
                let mut plain = compiled.clone();
                for draw in 0..64 {
                    assert_eq!(
                        table.draw(&mut compiled, explore),
                        sample_by_counts(h, &mut plain, explore),
                        "histogram {i} ({h:?}), explore {explore}, draw {draw}"
                    );
                    assert_eq!(
                        compiled, plain,
                        "histogram {i}, explore {explore}: the same words consumed"
                    );
                }
            }
        }
    }

    /// A table over `total` observations: value 3 once, value 9 for the
    /// rest (empty when `total` is 0).
    fn table_of(total: u32) -> DigitTable {
        let mut h = ValueHist::default();
        for k in 0..total {
            h.add(if k == 0 { 3 } else { 9 });
        }
        h.compile()
    }

    #[test]
    fn a_digit_draw_costs_one_word() {
        for total in [0, 1, 7, 1 << 16] {
            let table = table_of(total);
            for explore in [0.0, 0.06, 1.0] {
                let mut rng = Counting {
                    rng: SmallRng::seed_from_u64(u64::from(total)),
                    words: 0,
                };
                for n in 1..=256 {
                    table.draw(&mut rng, explore);
                    assert_eq!(rng.words, n, "total {total}, explore {explore}");
                }
            }
        }
    }

    /// The guided lookup against the sixteen-compare count it replaced
    /// (the number of bounds the scaled word has reached), at every word
    /// where either could step: the assorted histograms, totals 0 and 1,
    /// a total below the guide's 16 buckets, the power of two 16, and
    /// totals past 2¹⁶.
    #[test]
    fn a_guided_draw_is_the_compare_count_at_every_edge() {
        let mut tables: Vec<DigitTable> = assorted_histograms(&mut SmallRng::seed_from_u64(46))
            .iter()
            .map(ValueHist::compile)
            .collect();
        tables.extend([0, 1, 5, 16, (1 << 16) + 3].map(table_of));
        let mut wide = ValueHist::default();
        for v in 0..16u8 {
            for _ in 0..=u32::from(v) * 600 {
                wide.add(v);
            }
        }
        tables.push(wide.compile());
        for table in tables {
            let total = u64::from(table.total);
            for word in edge_words(total, table.guide.len()) {
                let x = scaled(word, total) as u32;
                let want = table.bounds.iter().filter(|&&b| x >= b).count();
                let got = inverse_cdf(&table.bounds, &table.guide, total, word);
                assert_eq!(got, want, "{table:?}, word {word:#x}");
                if total > 0 {
                    assert_eq!(table.draw(&mut Word(word), 0.0), table.values[want]);
                }
            }
        }
    }

    /// Over 2²⁰ draws each value's frequency lies within 5σ of
    /// `(1 − e)·c/T + e/16`: explore 0 never leaves the observed values,
    /// explore 1 (and an empty table) is uniform.
    #[test]
    fn a_digit_draw_has_its_histograms_frequencies() {
        const N: usize = 1 << 20;
        let mut skewed = ValueHist::default();
        for (v, c) in [(0, 1), (3, 7), (4, 100), (9, 892)] {
            for _ in 0..c {
                skewed.add(v);
            }
        }
        let mut wide = ValueHist::default();
        for v in 0..16u8 {
            for _ in 0..=u32::from(v) * 300 {
                wide.add(v);
            }
        }
        let mut rng = SmallRng::seed_from_u64(41);
        for h in [ValueHist::default(), skewed, wide] {
            let table = h.compile();
            for explore in [0.0, 0.06, 1.0] {
                let mut seen = [0usize; 16];
                for _ in 0..N {
                    seen[usize::from(table.draw(&mut rng, explore))] += 1;
                }
                for v in 0..16u8 {
                    let p = if h.total() == 0 {
                        1.0 / 16.0
                    } else {
                        (1.0 - explore) * f64::from(h.count(v)) / f64::from(h.total())
                            + explore / 16.0
                    };
                    let expected = N as f64 * p;
                    let sigma = (expected * (1.0 - p)).sqrt();
                    let got = seen[usize::from(v)];
                    assert!(
                        (got as f64 - expected).abs() <= 5.0 * sigma,
                        "{h:?}, explore {explore}, value {v}: {got} vs {expected:.0} ± {sigma:.0}"
                    );
                    if explore == 0.0 && h.count(v) == 0 && h.total() > 0 {
                        assert_eq!(got, 0, "explore 0 drew unobserved {v}");
                    }
                }
            }
        }
    }

    /// What a region reads back from its tables, against the histograms
    /// they were compiled from: the counts, the number of distinct values
    /// (6Gen's range size) and the sweep's value order.
    #[test]
    fn a_tables_counts_are_its_histograms() {
        for h in assorted_histograms(&mut SmallRng::seed_from_u64(40)) {
            let table = h.compile();
            assert_eq!(
                table.counts(),
                std::array::from_fn(|v| h.count(v as u8)),
                "{h:?}"
            );
            assert_eq!(table.distinct(), h.distinct(), "{h:?}");
            let mut order: Vec<u8> = (0..16).collect();
            order.sort_by_key(|&v| std::cmp::Reverse(h.count(v)));
            assert_eq!(table.sweep_order().to_vec(), order, "{h:?}");
        }
    }

    #[test]
    fn hist_total_tracks_the_counts() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut h = ValueHist::default();
        for n in 1..=300u32 {
            h.add(rng.gen());
            assert_eq!(h.total(), n);
            assert_eq!((0..16).map(|v| h.count(v)).sum::<u32>(), n);
        }
    }
}
