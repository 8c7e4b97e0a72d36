//! IPv6 address substrate for the `seeds-of-scanning` workspace.
//!
//! Every component of the study — the simulated Internet, the scanner, the
//! dealiasers, and all eight Target Generation Algorithms (TGAs) —
//! manipulates IPv6 addresses at *nybble* (hexadecimal digit) granularity,
//! because that is the granularity at which operators assign structure and
//! at which TGAs mine patterns. This crate provides:
//!
//! - [`nybble_of`] / [`with_nybble`] / [`nybble_hamming`]: one hex digit
//!   read or replaced, and the count of differing digits — octet reads
//!   and word operations on the address itself, no nybble-array type,
//! - [`Prefix`]: a CIDR prefix with containment, iteration, and parsing,
//! - [`PrefixTrie`]: longest-prefix-match lookups, one hash table per
//!   prefix length present (used for address → AS resolution),
//! - [`PrefixSet`]: containment queries against a set of prefixes
//!   (used for alias lists and blocklists),
//! - [`AddrSet`] / [`AddrMap`]: hash containers for address keys on the
//!   workspace's one address hasher — the default wherever membership or
//!   keyed lookup is all that happens,
//! - [`rand_in_prefix`]: deterministic random address generation inside a
//!   prefix (used by the online dealiaser and the ground-truth builder).
//!
//! The canonical address type is [`std::net::Ipv6Addr`]; this crate adds
//! structure around it rather than wrapping it.

pub mod hash;
pub mod nybble;
pub mod prefix;
pub mod set;
pub mod splitmix;
pub mod trie;

pub use hash::{AddrHasher, AddrMap, AddrSet};
pub use nybble::{nybble_hamming, nybble_of, with_nybble, NYBBLES};
pub use prefix::{ParsePrefixError, Prefix};
pub use set::PrefixSet;
pub use splitmix::{splitmix64, SplitMix64};
pub use trie::PrefixTrie;

use std::net::Ipv6Addr;

/// Convert an address to its 128-bit integer form.
#[inline]
pub fn to_u128(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// Convert a 128-bit integer to an address.
#[inline]
pub fn from_u128(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

/// Draw a uniformly random address inside `prefix` using `rng`.
///
/// The fixed (prefix) bits are preserved and the free low bits are drawn
/// uniformly. This is the primitive behind 6Gen-style online dealiasing
/// ("send randomized lower bits into the /96") and the ground-truth
/// population builder.
pub fn rand_in_prefix<R: rand::Rng + ?Sized>(prefix: &Prefix, rng: &mut R) -> Ipv6Addr {
    let free_bits = 128 - prefix.len() as u32;
    if free_bits == 0 {
        return prefix.network();
    }
    let mask: u128 = if free_bits == 128 {
        u128::MAX
    } else {
        (1u128 << free_bits) - 1
    };
    let low: u128 = rng.gen::<u128>() & mask;
    from_u128(to_u128(prefix.network()) | low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn u128_roundtrip() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(from_u128(to_u128(a)), a);
    }

    #[test]
    fn rand_in_prefix_stays_inside() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p: Prefix = "2001:db8:40::/96".parse().unwrap();
        for _ in 0..200 {
            let a = rand_in_prefix(&p, &mut rng);
            assert!(p.contains(a), "{a} outside {p}");
        }
    }

    #[test]
    fn rand_in_prefix_full_length_is_network() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p: Prefix = "2001:db8::5/128".parse().unwrap();
        assert_eq!(rand_in_prefix(&p, &mut rng), p.network());
    }

    #[test]
    fn rand_in_prefix_varies() {
        let mut rng = SmallRng::seed_from_u64(3);
        let p: Prefix = "2001:db8::/64".parse().unwrap();
        let a = rand_in_prefix(&p, &mut rng);
        let b = rand_in_prefix(&p, &mut rng);
        assert_ne!(a, b);
    }
}
