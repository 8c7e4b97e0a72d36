//! Nybble-granularity access to IPv6 addresses.
//!
//! TGAs operate on the 32 hexadecimal digits ("nybbles") of an address:
//! Entropy/IP computes per-nybble entropy, the tree family (6Tree, DET,
//! 6Graph, 6Scan, 6Hit) splits the space one nybble at a time, and 6Gen
//! clusters addresses by nybble agreement. Nybble 0 is the most significant
//! digit (`2` in `2001:db8::`), nybble 31 the least significant.
//!
//! There is no nybble-array type: an address stays an [`Ipv6Addr`] (or its
//! `u128`), one digit is one octet read, and whole-address questions
//! (which digits differ, how many) are word operations on `a ^ b`.

use std::net::Ipv6Addr;

/// Number of nybbles in an IPv6 address.
pub const NYBBLES: usize = 32;

/// Nybble `idx` of `addr` (0 = most significant): the high or low half of
/// octet `idx / 2`.
#[inline]
pub fn nybble_of(addr: Ipv6Addr, idx: usize) -> u8 {
    debug_assert!(idx < NYBBLES);
    let octet = addr.octets()[idx / 2];
    if idx % 2 == 0 {
        octet >> 4
    } else {
        octet & 0xf
    }
}

/// `addr` with nybble `idx` replaced by `value` (low 4 bits used).
#[inline]
pub fn with_nybble(addr: Ipv6Addr, idx: usize, value: u8) -> Ipv6Addr {
    debug_assert!(idx < NYBBLES);
    let mut octets = addr.octets();
    let octet = &mut octets[idx / 2];
    *octet = if idx % 2 == 0 {
        (*octet & 0x0f) | (value << 4)
    } else {
        (*octet & 0xf0) | (value & 0x0f)
    };
    Ipv6Addr::from(octets)
}

/// Number of nybble positions at which `a` and `b` differ (the
/// nybble-granularity Hamming distance 6Graph's outlier pruning uses):
/// fold each nybble of `a ^ b` onto its lowest bit and count those.
#[inline]
pub fn nybble_hamming(a: Ipv6Addr, b: Ipv6Addr) -> u32 {
    let mut x = u128::from(a) ^ u128::from(b);
    x |= x >> 1;
    x |= x >> 2;
    (x & 0x1111_1111_1111_1111_1111_1111_1111_1111).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    /// The definition the accessors are checked against: the 32 digits by
    /// shifting the 128-bit integer, most significant first.
    fn array_form(addr: Ipv6Addr) -> [u8; NYBBLES] {
        let bits = u128::from(addr);
        std::array::from_fn(|i| ((bits >> ((NYBBLES - 1 - i) * 4)) & 0xf) as u8)
    }

    fn from_array(n: [u8; NYBBLES]) -> Ipv6Addr {
        Ipv6Addr::from(
            n.iter()
                .fold(0u128, |bits, &v| (bits << 4) | u128::from(v & 0xf)),
        )
    }

    const SAMPLES: [&str; 6] = [
        "::",
        "2001:db8::1",
        "ff02::1:ff00:1234",
        "::ffff:1.2.3.4",
        "fe80:1234:5678:9abc:def0:1111:2222:3333",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
    ];

    #[test]
    fn roundtrip() {
        for s in SAMPLES {
            let addr = a(s);
            assert_eq!(from_array(array_form(addr)), addr);
            // ...and the accessors alone rebuild the address digit by digit
            let rebuilt = (0..NYBBLES).fold(Ipv6Addr::UNSPECIFIED, |acc, i| {
                with_nybble(acc, i, nybble_of(addr, i))
            });
            assert_eq!(rebuilt, addr);
        }
    }

    #[test]
    fn nybble_order_is_msb_first() {
        let addr = a("2001:db8::1");
        let digits: Vec<u8> = (0..8).map(|i| nybble_of(addr, i)).collect();
        assert_eq!(digits, [0x2, 0x0, 0x0, 0x1, 0x0, 0xd, 0xb, 0x8]);
        assert_eq!(nybble_of(addr, 31), 0x1);
    }

    #[test]
    fn set_and_with() {
        let n = with_nybble(a("::"), 0, 0x2);
        assert_eq!(n, a("2000::"));
        let m = with_nybble(n, 31, 0xf);
        assert_eq!(m, a("2000::f"));
        // overwriting a set digit replaces it, neighbours untouched
        assert_eq!(with_nybble(a("2001:db8::1"), 5, 0x0), a("2001:0b8::1"));
        assert_eq!(with_nybble(a("2001:db8::1"), 6, 0x0), a("2001:d08::1"));
    }

    #[test]
    fn set_masks_high_bits() {
        for idx in [0, 1, 30, 31] {
            let out = with_nybble(a("::"), idx, 0xff);
            assert_eq!(nybble_of(out, idx), 0xf);
            assert_eq!(
                u128::from(out).count_ones(),
                4,
                "idx {idx}: only that digit is written"
            );
        }
    }

    #[test]
    fn common_prefix_and_hamming() {
        let (x, y, z) = (a("2001:db8::1"), a("2001:db8::2"), a("3001:db8::1"));
        // first differing digit == leading zero digits of the XOR
        let common = |p: Ipv6Addr, q: Ipv6Addr| {
            (0..NYBBLES)
                .take_while(|&i| nybble_of(p, i) == nybble_of(q, i))
                .count()
        };
        assert_eq!(common(x, y), 31);
        assert_eq!(
            common(x, y),
            ((u128::from(x) ^ u128::from(y)).leading_zeros() / 4) as usize
        );
        assert_eq!(common(x, z), 0);
        assert_eq!(nybble_hamming(x, y), 1);
        assert_eq!(nybble_hamming(x, z), 1);
        assert_eq!(nybble_hamming(x, x), 0);
        assert_eq!(
            nybble_hamming(a("::"), a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")),
            32
        );
        // every single-bit difference is one differing digit
        for bit in 0..128 {
            let flipped = Ipv6Addr::from(u128::from(x) ^ (1u128 << bit));
            assert_eq!(nybble_hamming(x, flipped), 1, "bit {bit}");
        }
        for (p, q) in [(x, y), (x, z), (a(SAMPLES[2]), a(SAMPLES[4]))] {
            let slow = array_form(p)
                .iter()
                .zip(array_form(q))
                .filter(|(m, n)| **m != *n)
                .count();
            assert_eq!(nybble_hamming(p, q) as usize, slow);
        }
    }

    #[test]
    fn nybble_of_matches_array_form() {
        for s in SAMPLES {
            let addr = a(s);
            let arr = array_form(addr);
            for (i, &digit) in arr.iter().enumerate() {
                assert_eq!(nybble_of(addr, i), digit, "{s} idx {i}");
            }
        }
    }

    #[test]
    fn with_nybble_matches_array_form() {
        for s in SAMPLES {
            let addr = a(s);
            for i in 0..NYBBLES {
                for v in [0u8, 7, 0xf, 0xa5] {
                    let mut arr = array_form(addr);
                    arr[i] = v & 0xf;
                    assert_eq!(
                        with_nybble(addr, i, v),
                        from_array(arr),
                        "{s} idx {i} value {v}"
                    );
                }
            }
        }
    }
}
