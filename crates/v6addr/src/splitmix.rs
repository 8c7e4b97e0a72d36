//! SplitMix64: the workspace's canonical stateless mixer and seeded
//! stream (Steele, Lea & Flood, OOPSLA 2014).
//!
//! Every deterministic component keys its decisions off this one
//! function — the netmodel oracle's per-address draws, the probe
//! engine's flow hashing, and the property-test generators — so the
//! exact output sequence is part of the repo's reproducibility
//! contract. The unit test below pins it; if these values ever change,
//! every committed report and baseline shifts with them.

/// The golden gamma, 2^64 / φ: SplitMix64's increment, and the multiplier
/// of the address hasher's fold.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: advance `x` by the golden-gamma increment and
/// mix. A fast, high-quality, stateless 64-bit hash.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded SplitMix64 stream: `next_u64()` yields
/// `splitmix64(seed)`, `splitmix64(seed + γ)`, `splitmix64(seed + 2γ)`, …
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalizer_matches_reference_vectors() {
        // Reference outputs of the published SplitMix64 algorithm.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0xdead_beef), 0x4adf_b90f_68c9_eb9b);
    }

    #[test]
    fn stream_sequence_is_pinned() {
        let mut g = SplitMix64::new(0x5eed);
        assert_eq!(g.next_u64(), 0x09f1_fd9d_03f0_a9b4);
        assert_eq!(g.next_u64(), 0x5532_7416_1bbf_8475);
        assert_eq!(g.next_u64(), 0x5d5b_ca46_96b3_43b3);
        assert_eq!(g.next_u64(), 0x70d2_9b6c_7d22_528d);
    }

    #[test]
    fn stream_equals_repeated_finalizer() {
        let mut g = SplitMix64::new(7);
        for k in 0..8u64 {
            assert_eq!(
                g.next_u64(),
                splitmix64(7u64.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            );
        }
    }
}
