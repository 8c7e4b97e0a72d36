//! The one hasher for address keys: [`AddrSet`] and [`AddrMap`].
//!
//! Addresses, prefixes' network bits and fault domains are internal
//! simulator state — nobody crafts them to collide — so std's SipHash
//! (which costs about as much as the whole world-oracle lookup on a
//! 16-byte key) buys nothing here. [`AddrHasher`] folds the 128 bits to
//! 64 and runs the [`splitmix64`] finisher.
//!
//! Use these wherever membership or keyed lookup is all that happens.
//! Iteration order is as arbitrary as any hash table's (and, unlike std's
//! `RandomState`, the same on every run): sort before anything ordered
//! leaves the container — `sos-lint`'s `det-hash-iter` and
//! `det-unordered-collection` see these aliases.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::splitmix::{splitmix64, GOLDEN_GAMMA};

/// Fold-and-finish hasher for address-shaped keys: `u128`, `Ipv6Addr`
/// (which std hashes as one `u128` or, before that, as a length prefix
/// plus 16 bytes), `u64` halves, and tuples of those with a small tag such
/// as `(u128, u8)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl AddrHasher {
    /// Absorb one small word (a tag, a length prefix, a `u64` key).
    #[inline]
    fn word(&mut self, n: u64) {
        self.0 = self.0.rotate_left(8) ^ n;
    }
}

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    /// Sixteen octets are an address and take the `u128` path; anything
    /// else is folded bytewise (FNV-style — correct, not
    /// fast, and no address key reaches it).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        if let Ok(octets) = <[u8; 16]>::try_from(bytes) {
            return self.write_u128(u128::from_be_bytes(octets));
        }
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// The fold. The upper half goes through a multiply before it meets
    /// the lower: a plain `lo ^ hi.rotate_left(32)` hands `2600:100:0:5::2`
    /// and `2600:101:0:5::3` — adjacent allocations, low-byte IIDs — the
    /// same state, and the finisher is a bijection, so they would share
    /// every hash. The multiply is the folded one (both halves of the
    /// 128-bit product) because a truncated `hi · γ` only carries bits
    /// upward: std hashes an `Ipv6Addr` as `u128::from_ne_bytes`, which on
    /// a little-endian host puts a low-byte IID in the top byte of `hi`,
    /// where the truncated product keeps 8 bits of it and the subnet byte
    /// of `lo` cancels some of those.
    #[inline]
    fn write_u128(&mut self, n: u128) {
        let spread = u128::from((n >> 64) as u64) * u128::from(GOLDEN_GAMMA);
        self.0 ^= (spread >> 64) as u64 ^ spread as u64 ^ n as u64;
    }
}

/// A hash set of address-shaped keys (see [`AddrHasher`]). Construct with
/// `AddrSet::default()` or `with_capacity_and_hasher(n, Default::default())`.
pub type AddrSet<K> = HashSet<K, BuildHasherDefault<AddrHasher>>;

/// A hash map keyed by address-shaped keys (see [`AddrHasher`]).
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use std::net::Ipv6Addr;

    fn hash_of<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(key)
    }

    /// The structured neighbours real target lists are made of: adjacent
    /// /32s × equal subnets × low-byte IIDs. The previous xor-rotate fold
    /// paired them (hi differs in the bit that lo's difference rotates
    /// onto); the multiply fold must keep every one apart, keyed as `u128`
    /// and keyed as `Ipv6Addr`.
    #[test]
    fn structured_neighbours_do_not_share_a_hash() {
        let (mut by_bits, mut by_addr) = (AddrSet::<u64>::default(), AddrSet::<u64>::default());
        let mut keys = 0usize;
        for alloc in 0..64u128 {
            for subnet in 0..16u128 {
                for iid in 0..64u128 {
                    let addr = (0x2600_0100 + alloc) << 96 | subnet << 64 | iid;
                    by_bits.insert(hash_of(addr));
                    by_addr.insert(hash_of(Ipv6Addr::from(addr)));
                    keys += 1;
                }
            }
        }
        assert_eq!(by_bits.len(), keys, "the fold paired structured u128 keys");
        assert_eq!(
            by_addr.len(),
            keys,
            "the fold paired structured Ipv6Addr keys"
        );
        // The pair named in the issue, spelled out.
        let a: Ipv6Addr = "2600:100:0:5::2".parse().unwrap();
        let b: Ipv6Addr = "2600:101:0:5::3".parse().unwrap();
        assert_ne!(hash_of(u128::from(a)), hash_of(u128::from(b)));
        assert_ne!(hash_of(a), hash_of(b));
    }

    /// Depending on the std version an `Ipv6Addr` hashes as one
    /// `write_u128` or as `write_usize(16)` + `write(&[u8; 16])`. The
    /// second must land on the `u128` fold too (offset by the constant
    /// length word), never on the bytewise fallback.
    #[test]
    fn sixteen_octets_take_the_u128_fold() {
        for bits in [0u128, 1, 0x2001_0db8 << 96 | 0x42, u128::MAX] {
            let mut octets = AddrHasher::default();
            octets.write_usize(16);
            octets.write(&bits.to_be_bytes());
            let mut folded = AddrHasher::default();
            folded.write_usize(16);
            folded.write_u128(bits);
            assert_eq!(octets.finish(), folded.finish());
        }
    }

    #[test]
    fn tags_and_halves_separate_keys() {
        assert_ne!(hash_of((7u128, 0u8)), hash_of((7u128, 1u8)));
        assert_ne!(hash_of(7u64), hash_of(8u64));
        // Swapping the halves changes the fold.
        assert_ne!(hash_of(1u128), hash_of(1u128 << 64));
        let mut m: AddrMap<(u128, u8), u32> = AddrMap::default();
        m.insert((9, 2), 5);
        assert_eq!(m.get(&(9, 2)), Some(&5));
        assert_eq!(m.get(&(9, 3)), None);
    }
}
