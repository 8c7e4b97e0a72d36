//! The DNS universe: domain names with AAAA records.
//!
//! Domain-based seed sources (Censys CT logs, Rapid7 FDNS, the five
//! toplists, CAIDA DNS Names — §5.1) all reduce to the same operation:
//! obtain a set of domain names, resolve AAAA records, keep the unique
//! IPv6 addresses. This module is the ground truth those collectors query:
//! a popularity-ranked universe of domains, each resolving to one or more
//! server addresses. Some records are *stale* — they point at churned
//! hosts — exactly as archival FDNS snapshots and CT logs do.

use std::net::Ipv6Addr;

/// One domain with its AAAA records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord {
    /// Stable numeric id (names are derived from it).
    pub id: u64,
    /// Popularity rank, 1 = most popular. Toplists take low ranks.
    pub rank: u32,
    /// AAAA records. May point at churned hosts (stale records).
    pub addrs: Vec<Ipv6Addr>,
}

impl DomainRecord {
    /// The synthetic FQDN for this record.
    pub fn name(&self) -> String {
        format!("site-{}.example", self.id)
    }
}

/// The full ranked universe of domains.
#[derive(Debug, Clone, Default)]
pub struct DnsUniverse {
    /// Records sorted by ascending rank (most popular first).
    records: Vec<DomainRecord>,
}

impl DnsUniverse {
    /// Build from records; sorts by rank.
    pub fn new(mut records: Vec<DomainRecord>) -> Self {
        records.sort_by_key(|r| r.rank);
        DnsUniverse { records }
    }

    /// Total number of domains.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `k` most popular domains.
    pub fn top(&self, k: usize) -> &[DomainRecord] {
        &self.records[..k.min(self.records.len())]
    }

    /// All records, most popular first.
    pub fn all(&self) -> &[DomainRecord] {
        &self.records
    }

    /// Resolve AAAA records for a domain id, mimicking a recursive lookup:
    /// `None` when the domain does not exist.
    pub fn resolve(&self, id: u64) -> Option<&[Ipv6Addr]> {
        self.records
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.addrs.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample() -> DnsUniverse {
        DnsUniverse::new(vec![
            DomainRecord {
                id: 10,
                rank: 3,
                addrs: vec![a("2600::3")],
            },
            DomainRecord {
                id: 11,
                rank: 1,
                addrs: vec![a("2600::1"), a("2600::2")],
            },
            DomainRecord {
                id: 12,
                rank: 2,
                addrs: vec![a("2600::2")],
            },
        ])
    }

    #[test]
    fn top_is_rank_ordered() {
        let u = sample();
        let ranks: Vec<u32> = u.top(10).iter().map(|r| r.rank).collect();
        assert_eq!(ranks, vec![1, 2, 3]);
        assert_eq!(u.top(2).len(), 2);
        assert_eq!(u.top(2)[0].id, 11);
    }

    #[test]
    fn resolve_by_id() {
        let u = sample();
        assert_eq!(u.resolve(10), Some(&[a("2600::3")][..]));
        assert!(u.resolve(99).is_none());
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let u = sample();
        assert_eq!(u.all()[0].name(), "site-11.example");
        let mut names: Vec<String> = u.all().iter().map(|r| r.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3);
    }
}
