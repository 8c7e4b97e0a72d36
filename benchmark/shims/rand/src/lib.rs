//! Offline stand-in for `rand` 0.8, limited to what the workspace calls:
//! `rngs::SmallRng`, `SeedableRng::{from_seed, seed_from_u64}`,
//! `RngCore`, and `Rng::{gen, gen_range, gen_bool}`.
//!
//! The trait shapes follow the real crate — in particular `gen_range` is
//! generic over `T: SampleUniform` and `R: SampleRange<T>`, which is what
//! lets `u32 + rng.gen_range(1..512)` infer its type — but the integer and
//! float sampling algorithms are this file's own, so streams differ from
//! real `rand` beyond the raw generator output. The generator itself is
//! xoshiro256++ seeded through splitmix64, as `SmallRng` is on 64-bit
//! targets, and is pinned against the published vectors in
//! `benchmark/tests/shims.rs` (cargo cannot run a directory-source crate's
//! own tests).

/// The raw generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed;
    /// Build from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;
    /// Build from a `u64`, expanded through splitmix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// One splitmix64 step: advance `state`, return the mixed output.
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator types.
pub mod rngs {
    use super::{splitmix64_next, RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), `rand`'s `SmallRng` on 64-bit
    /// platforms.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            // The upper bits are the stronger ones.
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> SmallRng {
            if seed.iter().all(|&b| b == 0) {
                // The all-zero state is a fixed point of xoshiro.
                return SmallRng::seed_from_u64(0);
            }
            let mut s = [0u64; 4];
            for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
            }
            SmallRng { s }
        }

        fn seed_from_u64(mut state: u64) -> SmallRng {
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64_next(&mut state);
            }
            SmallRng { s }
        }
    }
}

/// Distributions: only `Standard` and the uniform-range plumbing.
pub mod distributions {
    use super::RngCore;

    /// A way of drawing a `T` from a generator.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "any value" distribution behind `Rng::gen`: uniform over all
    /// bit patterns for integers, uniform in `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u128 {
            u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
        }
    }

    impl Distribution<i128> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> i128 {
            let wide: u128 = Standard.sample(rng);
            wide as i128
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits → [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    /// Uniform sampling over ranges.
    pub mod uniform {
        use super::super::RngCore;
        use super::{Distribution, Standard};
        use std::ops::{Range, RangeInclusive};

        /// Types that can be drawn uniformly from a range.
        pub trait SampleUniform: Sized {
            /// Uniform in `[low, high]`. Panics when `low > high`.
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
            /// Uniform in `[low, high)`. Panics when `low >= high`.
            fn sample_exclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
        }

        /// Range types accepted by `Rng::gen_range`.
        pub trait SampleRange<T> {
            /// Draw one value from the range.
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
            /// Whether the range holds no value.
            fn is_empty(&self) -> bool;
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_exclusive(self.start, self.end, rng)
            }
            fn is_empty(&self) -> bool {
                !(self.start < self.end)
            }
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                T::sample_inclusive(low, high, rng)
            }
            fn is_empty(&self) -> bool {
                !(self.start() <= self.end())
            }
        }

        /// Uniform in `[0, span]` by widening multiply with rejection
        /// (Lemire), so every value is exactly equally likely.
        fn below_inclusive_u64<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
            let Some(range) = span.checked_add(1) else {
                return rng.next_u64();
            };
            let zone = (range << range.leading_zeros()).wrapping_sub(1);
            loop {
                let wide = u128::from(rng.next_u64()) * u128::from(range);
                if (wide as u64) <= zone {
                    return (wide >> 64) as u64;
                }
            }
        }

        /// Uniform in `[0, span]` by masked rejection.
        fn below_inclusive_u128<R: RngCore + ?Sized>(span: u128, rng: &mut R) -> u128 {
            let mask = u128::MAX >> span.leading_zeros().min(127);
            loop {
                let draw: u128 = Standard.sample(rng);
                if draw & mask <= span {
                    return draw & mask;
                }
            }
        }

        macro_rules! uniform_int {
            ($below:ident, $wide:ty; $($t:ty => $u:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_inclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                        assert!(low <= high, "gen_range: empty range");
                        // Two's-complement distance, so signed ranges work.
                        let span = high.wrapping_sub(low) as $u as $wide;
                        low.wrapping_add($below(span, rng) as $t)
                    }
                    fn sample_exclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                        assert!(low < high, "gen_range: empty range");
                        Self::sample_inclusive(low, high - 1, rng)
                    }
                }
            )*};
        }
        uniform_int!(below_inclusive_u64, u64;
            u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
            i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);
        uniform_int!(below_inclusive_u128, u128; u128 => u128, i128 => u128);

        macro_rules! uniform_float {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_inclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                        assert!(low <= high, "gen_range: empty range");
                        let unit: $t = Standard.sample(rng);
                        low + (high - low) * unit
                    }
                    fn sample_exclusive<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                        assert!(low < high, "gen_range: empty range");
                        loop {
                            // Rounding can land on `high`; redraw.
                            let unit: $t = Standard.sample(rng);
                            let value = low + (high - low) * unit;
                            if value < high {
                                return value;
                            }
                        }
                    }
                }
            )*};
        }
        uniform_float!(f32, f64);
    }
}

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// Convenience methods on every generator.
pub trait Rng: RngCore {
    /// A value from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniform in `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // p · 2^64 as an integer threshold; exact for p = 0.
        let threshold = (p * 2f64.powi(64)) as u64;
        self.next_u64() < threshold
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
