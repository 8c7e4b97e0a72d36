//! Containment queries against a set of prefixes.
//!
//! [`PrefixSet`] answers "does any stored prefix contain this address?" — the
//! core operation behind the offline alias list (§2.2: filtering addresses
//! inside known aliased prefixes) and scanner blocklists (Appendix A).

use std::net::Ipv6Addr;

use crate::prefix::Prefix;
use crate::trie::PrefixTrie;

/// A set of IPv6 prefixes supporting fast covering-prefix queries.
#[derive(Debug, Clone, Default)]
pub struct PrefixSet {
    trie: PrefixTrie<()>,
}

impl PrefixSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a prefix. Returns `true` if it was not already present.
    pub fn insert(&mut self, prefix: Prefix) -> bool {
        self.trie.insert(prefix, ()).is_none()
    }

    /// Number of stored prefixes (covering prefixes are *not* collapsed).
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Is `addr` inside any stored prefix?
    pub fn contains_addr(&self, addr: Ipv6Addr) -> bool {
        self.trie.lookup(addr).is_some()
    }

    /// Iterate the stored prefixes.
    pub fn iter(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.trie.iter().map(|(p, _)| p)
    }

    /// Partition `addrs` into (outside, inside) this set — the offline
    /// dealiasing split: "inside" are addresses in known aliased prefixes.
    pub fn partition(
        &self,
        addrs: impl IntoIterator<Item = Ipv6Addr>,
    ) -> (Vec<Ipv6Addr>, Vec<Ipv6Addr>) {
        let mut outside = Vec::new();
        let mut inside = Vec::new();
        for a in addrs {
            if self.contains_addr(a) {
                inside.push(a);
            } else {
                outside.push(a);
            }
        }
        (outside, inside)
    }
}

impl FromIterator<Prefix> for PrefixSet {
    fn from_iter<T: IntoIterator<Item = Prefix>>(iter: T) -> Self {
        let mut s = PrefixSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<Prefix> for PrefixSet {
    fn extend<T: IntoIterator<Item = Prefix>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
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
    fn basic_membership() {
        let mut s = PrefixSet::new();
        assert!(s.insert(p("2001:db8::/32")));
        assert!(!s.insert(p("2001:db8::/32")));
        assert!(s.contains_addr(a("2001:db8::1")));
        assert!(!s.contains_addr(a("2001:db9::1")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn partition_splits_by_membership() {
        let s: PrefixSet = [p("2001:db8::/32")].into_iter().collect();
        let (outside, inside) = s.partition(vec![a("2001:db8::1"), a("2002::1"), a("2001:db8::2")]);
        assert_eq!(inside.len(), 2);
        assert_eq!(outside, vec![a("2002::1")]);
    }

    #[test]
    fn iter_roundtrip() {
        let want = vec![p("2001:db8::/32"), p("2400:cb00::/32"), p("::1/128")];
        let s: PrefixSet = want.clone().into_iter().collect();
        let mut got: Vec<_> = s.iter().collect();
        got.sort();
        let mut want = want;
        want.sort();
        assert_eq!(got, want);
    }
}
