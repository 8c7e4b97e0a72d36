//! Patterns: partially fixed 32-nybble templates with per-position value
//! statistics — the lingua franca of every studied TGA.

use std::net::Ipv6Addr;

use rand::Rng;
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
    let mut diff = addrs.iter().fold(0u128, |d, &a| d | (u128::from(a) ^ first));
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

    /// Weighted draw from the observed distribution; with probability
    /// `explore` draw uniformly from all 16 values instead. Falls back to
    /// uniform when nothing was observed.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, explore: f64) -> u8 {
        if self.total == 0 || (explore > 0.0 && rng.gen_bool(explore)) {
            return rng.gen_range(0..16);
        }
        let mut x = rng.gen_range(0..self.total);
        for (v, &c) in self.counts.iter().enumerate() {
            if x < c {
                return v as u8;
            }
            x -= c;
        }
        15
    }

    /// Shannon entropy of the observed distribution (bits).
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = f64::from(c) / f64::from(self.total);
                // sos-lint: allow(det-float-reduce) entropy over a fixed-order histogram array
                h -= p * p.log2();
            }
        }
        h
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
        Pattern { base: 0, free: u32::MAX }
    }

    /// The pattern agreeing with `seeds` wherever all of them agree.
    pub fn from_seeds(seeds: &[Ipv6Addr]) -> Self {
        let Some(&first) = seeds.first() else {
            return Pattern::free();
        };
        let free = varying_digits(seeds);
        Pattern { base: u128::from(first) & !digit_mask(free), free }
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

/// Per-free-position histograms for a set of addresses under a pattern
/// (one pass over `addrs`).
pub fn free_histograms(pattern: &Pattern, addrs: &[Ipv6Addr]) -> Vec<(usize, ValueHist)> {
    let mut hists: Vec<(usize, ValueHist)> =
        set_bits(pattern.free).map(|pos| (pos, ValueHist::default())).collect();
    for &a in addrs {
        let bits = u128::from(a);
        for (pos, h) in &mut hists {
            h.add((bits >> shift_of(*pos)) as u8);
        }
    }
    hists
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
        let draws: Vec<u8> = (0..200).map(|_| h.sample(&mut rng, 0.0)).collect();
        let threes = draws.iter().filter(|&&v| v == 3).count();
        assert!(threes > 180, "{threes}");
        assert!(draws.iter().all(|&v| v == 3 || v == 7));
    }

    #[test]
    fn hist_exploration_leaves_support() {
        let mut h = ValueHist::default();
        h.add(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let draws: Vec<u8> = (0..400).map(|_| h.sample(&mut rng, 0.5)).collect();
        let outside = draws.iter().filter(|&&v| v != 3).count();
        assert!(outside > 50, "exploration must escape the observed set");
    }

    #[test]
    fn hist_empty_samples_uniformly() {
        let h = ValueHist::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(h.sample(&mut rng, 0.0));
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
        let hists = free_histograms(&p, &seeds);
        let pos31 = hists.iter().find(|(pos, _)| *pos == 31).unwrap();
        assert_eq!(pos31.1.count(1), 1);
        assert_eq!(pos31.1.count(2), 2);
        assert_eq!(pos31.1.total(), 3);
    }

    /// The representation the word form replaced, kept as the model the
    /// tests below compare against: one `Option<u8>` per position, every
    /// operation a loop over the 32 digits.
    struct Model([Option<u8>; NYBBLES]);

    impl Model {
        fn from_seeds(seeds: &[Ipv6Addr]) -> Model {
            Model(std::array::from_fn(|i| {
                let v = v6addr::nybble_of(*seeds.first()?, i);
                seeds.iter().all(|&s| v6addr::nybble_of(s, i) == v).then_some(v)
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
        assert_eq!(p.free_positions(), m.free_positions(), "{what}: free_positions");
        assert_eq!(p.free_count(), m.free_positions().len(), "{what}: free_count");
        for _ in 0..8 {
            // values above 0xf: only the low four bits may land
            let values: Vec<u8> = (0..NYBBLES).map(|_| rng.gen()).collect();
            let built = p.materialize(&values[..p.free_count()]);
            assert_eq!(built, m.materialize(&values), "{what}: materialize");
            assert!(p.matches(built) && m.matches(built), "{what}: matches its own output");
            // an arbitrary address, and the output with one digit moved
            let probes = [
                Ipv6Addr::from(rng.gen::<u128>()),
                v6addr::with_nybble(built, rng.gen_range(0..NYBBLES), rng.gen_range(0..16)),
            ];
            for probe in probes {
                assert_eq!(p.matches(probe), m.matches(probe), "{what}: matches({probe})");
            }
        }
    }

    #[test]
    fn pattern_agrees_with_the_option_array_model() {
        let mut rng = SmallRng::seed_from_u64(24);
        let all_varying = [Ipv6Addr::from(0u128), Ipv6Addr::from(u128::MAX)];
        let mut seed_sets: Vec<Vec<Ipv6Addr>> =
            vec![vec![], vec![a("2001:db8::1")], vec![a("::"); 3], all_varying.to_vec()];
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
