//! Property-based tests for the address substrate, driven by a seeded
//! deterministic generator (splitmix64): every run explores the same
//! randomized inputs, so failures reproduce exactly without any external
//! test-harness dependency.

use std::net::Ipv6Addr;

use v6addr::{
    nybble_hamming, nybble_of, rand_in_prefix, with_nybble, Prefix, PrefixSet, PrefixTrie,
    SplitMix64,
};

/// Deterministic case generator over the canonical splitmix64 stream.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SplitMix64::new(seed))
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn u128(&mut self) -> u128 {
        (u128::from(self.u64()) << 64) | u128::from(self.u64())
    }

    fn addr(&mut self) -> Ipv6Addr {
        Ipv6Addr::from(self.u128())
    }

    fn range(&mut self, n: usize) -> usize {
        (self.u64() % n.max(1) as u64) as usize
    }

    fn prefix(&mut self) -> Prefix {
        let bits = self.u128();
        let len = (self.u64() % 129) as u8;
        Prefix::new(Ipv6Addr::from(bits), len)
    }
}

const CASES: usize = 256;

/// The definition the nybble accessors are checked against: digit `idx`
/// by shifting the 128-bit integer, most significant first.
fn shift_nybble(addr: Ipv6Addr, idx: usize) -> u8 {
    ((u128::from(addr) >> ((31 - idx) * 4)) & 0xf) as u8
}

#[test]
fn nybbles_roundtrip() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let addr = g.addr();
        // read all 32 digits, write them into `::`: the address comes back
        let rebuilt = (0..32).fold(Ipv6Addr::UNSPECIFIED, |acc, i| {
            with_nybble(acc, i, nybble_of(addr, i))
        });
        assert_eq!(rebuilt, addr);
    }
}

#[test]
fn nybble_of_agrees_with_array() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let addr = g.addr();
        for idx in 0..32 {
            assert_eq!(
                nybble_of(addr, idx),
                shift_nybble(addr, idx),
                "{addr} idx {idx}"
            );
        }
    }
}

#[test]
fn with_nybble_sets_only_that_position() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let addr = g.addr();
        let idx = g.range(32);
        let v = (g.u64() % 16) as u8;
        let out = with_nybble(addr, idx, v);
        assert_eq!(nybble_of(out, idx), v);
        for i in 0..32 {
            if i != idx {
                assert_eq!(nybble_of(out, i), nybble_of(addr, i));
            }
        }
        // the shift definition: clear the digit, OR the value in
        let shift = (31 - idx) * 4;
        let expect = (u128::from(addr) & !(0xfu128 << shift)) | (u128::from(v) << shift);
        assert_eq!(out, Ipv6Addr::from(expect));
    }
}

#[test]
fn hamming_is_symmetric_and_bounded() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        // sparse differences as well as the ~30 of two random addresses
        let a = g.addr();
        let b = if g.range(2) == 0 {
            g.addr()
        } else {
            Ipv6Addr::from(u128::from(a) ^ (g.u128() & g.u128() & g.u128()))
        };
        assert_eq!(nybble_hamming(a, b), nybble_hamming(b, a));
        assert!(nybble_hamming(a, b) <= 32);
        assert_eq!(nybble_hamming(a, a), 0);
        let slow = (0..32)
            .filter(|&i| shift_nybble(a, i) != shift_nybble(b, i))
            .count();
        assert_eq!(nybble_hamming(a, b) as usize, slow);
    }
}

#[test]
fn prefix_contains_its_network() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let p = g.prefix();
        assert!(p.contains(p.network()));
    }
}

#[test]
fn prefix_canonical_form_is_idempotent() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let p = g.prefix();
        assert_eq!(Prefix::new(p.network(), p.len()), p);
    }
}

#[test]
fn truncation_still_covers() {
    let mut g = Gen::new(7);
    for _ in 0..CASES {
        let p = g.prefix();
        let cut = ((g.u64() % 129) as u8).min(p.len());
        let t = p.truncate(cut);
        assert!(t.covers(&p));
        assert!(t.contains(p.network()));
    }
}

#[test]
fn parse_display_roundtrip() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let p = g.prefix();
        let parsed: Prefix = p.to_string().parse().unwrap();
        assert_eq!(parsed, p);
    }
}

#[test]
fn rand_in_prefix_always_contained() {
    use rand::SeedableRng;
    let mut g = Gen::new(9);
    for _ in 0..CASES {
        let p = g.prefix();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(g.u64());
        let addr = rand_in_prefix(&p, &mut rng);
        assert!(p.contains(addr));
    }
}

#[test]
fn trie_lpm_returns_a_covering_prefix() {
    let mut g = Gen::new(10);
    for _ in 0..CASES {
        let n = 1 + g.range(39);
        let entries: Vec<(Prefix, u32)> = (0..n).map(|_| (g.prefix(), g.u64() as u32)).collect();
        let probe = g.addr();
        let trie: PrefixTrie<u32> = entries.clone().into_iter().collect();
        if let Some((matched, _)) = trie.lookup(probe) {
            assert!(matched.contains(probe));
            // and it is the longest such entry
            let best = entries
                .iter()
                .filter(|(p, _)| p.contains(probe))
                .map(|(p, _)| p.len())
                .max();
            assert_eq!(Some(matched.len()), best);
        } else {
            assert!(entries.iter().all(|(p, _)| !p.contains(probe)));
        }
    }
}

/// Longest match, exact get and iteration order against brute force, with
/// entries nested along a few spines so that matches happen at every
/// length 0..=128 — `::/0`, a /128, and all 129 lengths of one spine at
/// once among them.
#[test]
fn trie_agrees_with_brute_force_at_every_length() {
    let mut g = Gen::new(13);
    for case in 0..64 {
        let spines: Vec<Ipv6Addr> = (0..3).map(|_| g.addr()).collect();
        let mut entries: Vec<(Prefix, u32)> = Vec::new();
        if case == 0 {
            entries.extend((0..=128u8).map(|len| (Prefix::new(spines[0], len), u32::from(len))));
        }
        for _ in 0..g.range(60) {
            let spine = spines[g.range(spines.len())];
            let len = [0, 128, (g.u64() % 129) as u8][g.range(3)];
            entries.push((Prefix::new(spine, len), g.u64() as u32));
        }
        let mut trie = PrefixTrie::new();
        let mut model: Vec<(Prefix, u32)> = Vec::new();
        for &(p, v) in &entries {
            let old = model
                .iter()
                .position(|(q, _)| *q == p)
                .map(|i| model.remove(i).1);
            assert_eq!(trie.insert(p, v), old, "insert returns the replaced value");
            model.push((p, v));
        }
        assert_eq!(trie.len(), model.len());

        // Probes on and just off each spine: flip one bit anywhere.
        for _ in 0..64 {
            let spine = u128::from(spines[g.range(spines.len())]);
            let probe = Ipv6Addr::from(spine ^ [0, 1u128 << g.range(128)][g.range(2)]);
            let want = model
                .iter()
                .filter(|(p, _)| p.contains(probe))
                .max_by_key(|(p, _)| p.len());
            let got = trie.lookup(probe).map(|(p, v)| (p, *v));
            assert_eq!(got, want.copied(), "lookup({probe})");
            assert_eq!(trie.lookup_value(probe), want.map(|(_, v)| v));
        }
        model.sort_unstable();
        let listed: Vec<(Prefix, u32)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        assert_eq!(listed, model, "iter() is in (network, length) order");
    }
}

#[test]
fn prefix_set_agrees_with_linear_scan() {
    let mut g = Gen::new(11);
    for _ in 0..CASES {
        let n = g.range(30);
        let prefixes: Vec<Prefix> = (0..n).map(|_| g.prefix()).collect();
        let probe = g.addr();
        let set: PrefixSet = prefixes.clone().into_iter().collect();
        let linear = prefixes.iter().any(|p| p.contains(probe));
        assert_eq!(set.contains_addr(probe), linear);
    }
}

#[test]
fn subprefixes_partition_parent() {
    let mut g = Gen::new(12);
    for _ in 0..CASES {
        let p = Prefix::new(Ipv6Addr::from(g.u128()), (g.u64() % 125) as u8);
        let sub_len = p.len() + 4;
        // all 16 nybble-children cover disjoint space and sit inside parent
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u128 {
            let s = p.subprefix(sub_len, i);
            assert!(p.covers(&s));
            assert!(seen.insert(s.network()));
        }
    }
}
