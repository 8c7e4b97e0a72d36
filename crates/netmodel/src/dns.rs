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

/// The full ranked universe of domains, most popular first, stored flat:
/// a domain is the run of AAAA records between its end offset and the one
/// before it.
#[derive(Debug, Clone, Default)]
pub struct DnsUniverse {
    /// Every domain's AAAA records back to back, in rank order.
    addrs: Vec<Ipv6Addr>,
    /// One past each domain's last record in `addrs`, in rank order.
    ends: Vec<u32>,
}

impl DnsUniverse {
    /// An empty universe with room for `domains` domains holding `records`
    /// AAAA records in all.
    pub(crate) fn with_capacity(domains: usize, records: usize) -> Self {
        DnsUniverse {
            addrs: Vec::with_capacity(records),
            ends: Vec::with_capacity(domains),
        }
    }

    /// Append the next domain in rank order, with its AAAA records.
    pub(crate) fn push(&mut self, records: &[Ipv6Addr]) {
        self.addrs.extend_from_slice(records);
        self.ends.push(self.addrs.len() as u32);
    }

    /// Total number of domains.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The AAAA records of the `k` most popular domains, one slice each.
    pub fn top(&self, k: usize) -> impl Iterator<Item = &[Ipv6Addr]> {
        let ends = &self.ends[..k.min(self.len())];
        let starts = std::iter::once(&0).chain(ends);
        std::iter::zip(starts, ends).map(|(&s, &e)| &self.addrs[s as usize..e as usize])
    }

    /// The AAAA records of every domain, most popular first.
    pub fn all(&self) -> impl Iterator<Item = &[Ipv6Addr]> {
        self.top(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample() -> DnsUniverse {
        let mut u = DnsUniverse::default();
        u.push(&[a("2600::1"), a("2600::2")]);
        u.push(&[a("2600::2")]);
        u.push(&[a("2600::3")]);
        u
    }

    #[test]
    fn top_is_rank_ordered() {
        let u = sample();
        let all: Vec<&[Ipv6Addr]> = u.top(10).collect();
        assert_eq!(
            all,
            [
                &[a("2600::1"), a("2600::2")][..],
                &[a("2600::2")],
                &[a("2600::3")]
            ]
        );
        assert_eq!(u.len(), 3);
        assert_eq!(u.top(2).count(), 2);
        assert!(u.all().eq(u.top(3)));
        assert_eq!(DnsUniverse::default().all().count(), 0);
    }
}
