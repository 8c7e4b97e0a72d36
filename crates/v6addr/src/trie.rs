//! A prefix-keyed map with longest-prefix match, stored by prefix length.
//!
//! This is the routing-table substrate of the study: the simulated Internet
//! maps addresses to Autonomous Systems via longest-prefix match over its
//! allocation plan, exactly as the paper resolves discovered addresses to
//! ASes via BGP data. It also backs blocklist and alias-list queries where
//! "most specific covering entry" semantics are needed.
//!
//! The tables it holds come at a handful of lengths — allocations at /32
//! and /48, alias lists at three or four fixed lengths (Gasser et al.,
//! *Towards a Comprehensive Hitlist*), host subnets at /64 — so the
//! structure is one hash table per length present, probed longest first:
//! a lookup costs one masked hash probe per *distinct length*, where a
//! bit trie costs a pointer hop per *bit*. The worst case is the 129
//! lengths of `::/0 ..= /128`, which is the bit trie's cost again.

use std::fmt;
use std::net::Ipv6Addr;

use crate::hash::AddrMap;
use crate::prefix::Prefix;

/// A prefix-keyed map supporting exact and longest-prefix-match lookups.
///
/// ```
/// use v6addr::{Prefix, PrefixTrie};
/// let trie: PrefixTrie<&str> = [
///     ("2600::/12".parse::<Prefix>().unwrap(), "ARIN"),
///     ("2600:1f00::/24".parse::<Prefix>().unwrap(), "aws"),
/// ].into_iter().collect();
/// let (prefix, value) = trie.lookup("2600:1f00::1".parse().unwrap()).unwrap();
/// assert_eq!((*value, prefix.len()), ("aws", 24)); // most specific wins
/// ```
#[derive(Clone)]
pub struct PrefixTrie<V> {
    /// `(length, network bits → value)`, one entry per length present,
    /// longest first.
    levels: Vec<(u8, AddrMap<u128, V>)>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            levels: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of `len`'s table in the longest-first order, or where it
    /// would be inserted.
    fn level(&self, len: u8) -> Result<usize, usize> {
        self.levels.binary_search_by(|(l, _)| len.cmp(l))
    }

    /// Insert `value` at `prefix`, returning the previous value if the exact
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let at = self.level(prefix.len()).unwrap_or_else(|at| {
            self.levels.insert(at, (prefix.len(), AddrMap::default()));
            at
        });
        let old = self.levels[at]
            .1
            .insert(u128::from(prefix.network()), value); // at: found or just inserted
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, with its value.
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<(Prefix, &V)> {
        self.longest(addr)
            .map(|(len, v)| (Prefix::new(addr, len), v))
    }

    /// Shorthand for `lookup(addr)` returning just the value.
    #[inline]
    pub fn lookup_value(&self, addr: Ipv6Addr) -> Option<&V> {
        self.longest(addr).map(|(_, v)| v)
    }

    /// One masked probe per length present, longest first.
    #[inline]
    fn longest(&self, addr: Ipv6Addr) -> Option<(u8, &V)> {
        let bits = u128::from(addr);
        self.levels
            .iter()
            .find_map(|(len, table)| table.get(&(bits & Prefix::mask(*len))).map(|v| (*len, v)))
    }

    /// Iterate `(prefix, value)` pairs in `(network, length)` order — a
    /// covering prefix before what it covers, siblings by address.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut out: Vec<(Prefix, &V)> = self
            .levels
            .iter()
            .flat_map(|(len, table)| {
                table
                    .iter()
                    .map(|(&net, v)| (Prefix::new(Ipv6Addr::from(net), *len), v))
            })
            .collect();
        out.sort_unstable_by_key(|(p, _)| *p);
        out.into_iter()
    }
}

/// `{:?}` is part of an on-disk format: a campaign checkpoint's fingerprint
/// hashes the `Debug` text of the scanner configuration, blocklist and all,
/// and a checkpoint resumes only under an equal fingerprint. So the text
/// stays what it was when the first checkpoints were written — the bit
/// trie this type then was, a `root` node with a `value` and two
/// `children` per bit — rendered here from the entries.
impl<V: fmt::Debug> fmt::Debug for PrefixTrie<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: Vec<(Prefix, &V)> = self.iter().collect();
        f.debug_struct("PrefixTrie")
            .field(
                "root",
                &BitNode {
                    entries: &entries,
                    depth: 0,
                },
            )
            .field("len", &self.len)
            .finish()
    }
}

/// The bit-trie node `depth` bits down that `entries` — everything stored
/// under it, in `(network, length)` order — would hang from.
struct BitNode<'a, V> {
    entries: &'a [(Prefix, &'a V)],
    depth: u8,
}

impl<'a, V: fmt::Debug> fmt::Debug for BitNode<'a, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The entries share their first `depth` bits, so the one that ends
        // here sorts first; the rest split on the next bit, zeros first.
        let (value, below) = match self.entries.split_first() {
            Some(((prefix, value), below)) if prefix.len() == self.depth => (Some(value), below),
            _ => (None, self.entries),
        };
        let next_bit = |p: &Prefix| u128::from(p.network()) >> (127 - u32::from(self.depth)) & 1;
        let (zeros, ones) = below.split_at(below.partition_point(|(p, _)| next_bit(p) == 0));
        let child = |entries: &'a [(Prefix, &'a V)]| {
            (!entries.is_empty()).then(|| BitNode {
                entries,
                depth: self.depth + 1,
            })
        };
        f.debug_struct("Node")
            .field("value", &value)
            .field("children", &[child(zeros), child(ones)])
            .finish()
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_len() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(t.insert(p("2001:db8::/32"), 2), Some(1));
        assert_eq!(t.len(), 1);
        let stored: Vec<(Prefix, &u32)> = t.iter().collect();
        assert_eq!(stored, [(p("2001:db8::/32"), &2)]);
        assert_eq!(t.lookup(a("2001:db8::1")), Some((p("2001:db8::/32"), &2)));
    }

    #[test]
    fn longest_prefix_match() {
        let t: PrefixTrie<u32> = [
            (p("2000::/3"), 3),
            (p("2001:db8::/32"), 32),
            (p("2001:db8:aaaa::/48"), 48),
        ]
        .into_iter()
        .collect();

        let (pre, v) = t.lookup(a("2001:db8:aaaa::1")).unwrap();
        assert_eq!((*v, pre.len()), (48, 48));
        let (pre, v) = t.lookup(a("2001:db8:bbbb::1")).unwrap();
        assert_eq!((*v, pre.len()), (32, 32));
        let (pre, v) = t.lookup(a("2400::1")).unwrap();
        assert_eq!((*v, pre.len()), (3, 3));
        assert!(t.lookup(a("fe80::1")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let t: PrefixTrie<&str> = [(p("::/0"), "default")].into_iter().collect();
        assert_eq!(t.lookup_value(a("fe80::1")), Some(&"default"));
        assert_eq!(t.lookup_value(a("::")), Some(&"default"));
    }

    #[test]
    fn host_route() {
        let t: PrefixTrie<u8> = [(p("2001:db8::1/128"), 9)].into_iter().collect();
        assert_eq!(t.lookup_value(a("2001:db8::1")), Some(&9));
        assert_eq!(t.lookup_value(a("2001:db8::2")), None);
    }

    /// Pinned against the bit trie's derived `Debug` (see the impl): the
    /// strings are what the previous implementation printed.
    #[test]
    fn debug_text_is_the_bit_trie_rendering_checkpoint_fingerprints_hash() {
        let t: PrefixTrie<u32> = [
            (p("8000::/1"), 7),
            (p("c000::/2"), 9),
            (p("::/0"), 1),
            (p("4000::/3"), 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            format!("{t:?}"),
            "PrefixTrie { root: Node { value: Some(1), children: [Some(Node { value: None, children: \
             [None, Some(Node { value: None, children: [Some(Node { value: Some(3), children: [None, None] }), \
             None] })] }), Some(Node { value: Some(7), children: [None, Some(Node { value: Some(9), children: \
             [None, None] })] })] }, len: 4 }"
        );
        let set: crate::PrefixSet = [p("8000::/2")].into_iter().collect();
        assert_eq!(
            format!("{set:?}"),
            "PrefixSet { trie: PrefixTrie { root: Node { value: None, children: [None, Some(Node { value: None, \
             children: [Some(Node { value: Some(()), children: [None, None] }), None] })] }, len: 1 } }"
        );
        assert_eq!(
            format!("{:?}", crate::PrefixSet::new()),
            "PrefixSet { trie: PrefixTrie { root: Node { value: None, children: [None, None] }, len: 0 } }"
        );
        let host: PrefixTrie<u8> = [(p("::1/128"), 1)].into_iter().collect();
        assert_eq!(
            format!("{host:?}").matches("Node {").count(),
            129,
            "a /128 hangs 128 nodes below the root"
        );
    }

    #[test]
    fn iter_returns_all() {
        let entries = vec![
            (p("2001:db8::/32"), 1),
            (p("2001:db8:1::/48"), 2),
            (p("2400::/12"), 3),
        ];
        let t: PrefixTrie<u32> = entries.clone().into_iter().collect();
        let mut got: Vec<(Prefix, u32)> = t.iter().map(|(p, v)| (p, *v)).collect();
        got.sort();
        let mut want = entries;
        want.sort();
        assert_eq!(got, want);
    }
}
