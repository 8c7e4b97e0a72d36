//! Host records and the address-keyed host table.
//!
//! The ground truth stores every *individually modeled* address — responsive
//! hosts, churned (formerly active) hosts, and firewalled routers — in
//! address order, behind an index of the /64s that hold any. Aliased
//! regions and the megapattern are procedural and live outside this table
//! (see [`crate::world::World`]).

use std::net::Ipv6Addr;

use v6addr::AddrMap;

use crate::scheme::AddressingScheme;
use crate::services::PortSet;

/// What role an address plays in the simulated Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostKind {
    /// Router interface (appears in traceroutes).
    Router,
    /// Web/application server (TCP services).
    WebServer,
    /// Authoritative or recursive DNS server (UDP53).
    DnsServer,
    /// Customer-premises equipment on an access/mobile network.
    Cpe,
    /// Miscellaneous infrastructure (monitoring, mail, etc.).
    Infra,
}

/// Ground-truth state of one modeled address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRecord {
    /// Which scan targets the host answers *today*.
    pub ports: PortSet,
    /// True if the host was active historically (so data sources may carry
    /// it) but no longer answers anything.
    pub churned: bool,
    /// Role of the address.
    pub kind: HostKind,
    /// How its IID was assigned.
    pub scheme: AddressingScheme,
}

impl HostRecord {
    /// Does the host answer `proto` right now?
    #[inline]
    pub fn responds(&self, proto: crate::services::Protocol) -> bool {
        !self.churned && self.ports.contains(proto)
    }

    /// Is the host responsive on *any* target?
    #[inline]
    pub fn responds_any(&self) -> bool {
        !self.churned && !self.ports.is_empty()
    }
}

/// An immutable address → [`HostRecord`] table in address order.
///
/// Built once by the world generator. Addresses and records sit in two
/// parallel sorted arrays (20 bytes a host, where an array of pairs pads to
/// 32); a lookup hashes the address's /64 to its run of the arrays — the
/// study world packs 1.16 M hosts into 434 k /64s, 600 in the densest —
/// and binary-searches only that run, so the oracle's most frequent
/// question, "is anything modeled here?", is one hash probe that usually
/// says no.
#[derive(Debug, Clone, Default)]
pub struct HostTable {
    keys: Vec<u128>,
    records: Vec<HostRecord>,
    /// Upper 64 address bits → `(start, count)` of that /64's run.
    subnets: AddrMap<u64, (u32, u32)>,
}

impl HostTable {
    /// Build from unordered entries. Last write wins for duplicate keys.
    pub fn build(mut entries: Vec<(u128, HostRecord)>) -> Self {
        assert!(u32::try_from(entries.len()).is_ok(), "the /64 index addresses runs with u32");
        entries.sort_by_key(|(k, _)| *k);
        // deduplicate keeping the *last* occurrence
        entries.reverse();
        entries.dedup_by_key(|(k, _)| *k);
        entries.reverse();
        let (keys, records): (Vec<u128>, Vec<HostRecord>) = entries.into_iter().unzip();
        // Sorted keys: a /64's hosts are one consecutive run.
        let runs = || keys.chunk_by(|a, b| a >> 64 == b >> 64);
        let mut subnets: AddrMap<u64, (u32, u32)> =
            AddrMap::with_capacity_and_hasher(runs().count(), Default::default());
        let mut start = 0usize;
        for run in runs() {
            subnets.insert((run[0] >> 64) as u64, (start as u32, run.len() as u32)); // chunk_by yields no empty run
            start += run.len();
        }
        HostTable { keys, records, subnets }
    }

    /// Number of modeled addresses.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Lookup a record by address.
    #[inline]
    pub fn get(&self, addr: Ipv6Addr) -> Option<&HostRecord> {
        let key = u128::from(addr);
        let &(start, count) = self.subnets.get(&((key >> 64) as u64))?;
        let (start, end) = (start as usize, start as usize + count as usize);
        let at = self.keys.get(start..end)?.binary_search(&key).ok()?;
        self.records.get(start + at)
    }

    /// Iterate `(address, record)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Addr, &HostRecord)> {
        self.keys.iter().zip(&self.records).map(|(k, r)| (Ipv6Addr::from(*k), r))
    }

    /// Count hosts satisfying `pred`.
    pub fn count_where(&self, pred: impl Fn(&HostRecord) -> bool) -> usize {
        self.records.iter().filter(|r| pred(r)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::{PortSet, Protocol};

    fn rec(ports: PortSet, churned: bool) -> HostRecord {
        HostRecord {
            ports,
            churned,
            kind: HostKind::WebServer,
            scheme: AddressingScheme::LowByte,
        }
    }

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn build_sorts_and_gets() {
        let m = HostTable::build(vec![
            (u128::from(a("2001:db8::2")), rec(PortSet::ALL, false)),
            (u128::from(a("2001:db8::1")), rec(PortSet::EMPTY, true)),
        ]);
        assert_eq!(m.len(), 2);
        assert!(m.get(a("2001:db8::1")).unwrap().churned);
        assert!(!m.get(a("2001:db8::2")).unwrap().churned);
        assert!(m.get(a("2001:db8::3")).is_none());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let k = u128::from(a("2001:db8::1"));
        let m = HostTable::build(vec![(k, rec(PortSet::EMPTY, true)), (k, rec(PortSet::ALL, false))]);
        assert_eq!(m.len(), 1);
        assert!(m.get(a("2001:db8::1")).unwrap().responds_any());
    }

    /// `get` through the /64 index against a plain binary search over the
    /// whole table: random tables with sparse /64s and one packed with 600
    /// hosts, probed at members, near-misses inside a populated /64, and
    /// addresses whose /64 holds nothing.
    #[test]
    fn get_agrees_with_plain_binary_search() {
        let mut g = v6addr::SplitMix64::new(44);
        let kinds = [rec(PortSet::ALL, false), rec(PortSet::EMPTY, true), rec(PortSet::of([Protocol::Icmp]), false)];
        for _ in 0..20 {
            let subnets: Vec<u128> = (0..40).map(|_| u128::from(g.next_u64()) << 64).collect();
            let dense = subnets[0];
            let mut entries: Vec<(u128, HostRecord)> =
                (0..600).map(|i| (dense | u128::from(g.next_u64() % 4096), kinds[i % 3])).collect();
            for i in 0..(g.next_u64() % 400) as usize {
                let net = subnets[(g.next_u64() % 40) as usize];
                entries.push((net | u128::from(g.next_u64() % 64), kinds[i % 3]));
            }
            let table = HostTable::build(entries.clone());
            let mut sorted = entries;
            sorted.sort_by_key(|(k, _)| *k); // stable: the last duplicate stays last
            let plain = |key: u128| {
                let end = sorted.partition_point(|(k, _)| *k <= key);
                sorted[..end].last().filter(|(k, _)| *k == key).map(|(_, r)| r)
            };
            let mut probes: Vec<u128> = sorted.iter().map(|(k, _)| *k).collect();
            probes.extend(sorted.iter().step_by(7).flat_map(|(k, _)| [k ^ 1, k + 4096, k ^ (1 << 64)]));
            probes.extend((0..50).map(|_| u128::from(g.next_u64()) << 64 | 1));
            for key in probes {
                assert_eq!(table.get(Ipv6Addr::from(key)), plain(key), "{:x}", key);
            }
            let listed: Vec<u128> = table.iter().map(|(a, _)| u128::from(a)).collect();
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "address order, no duplicates");
            assert_eq!(table.len(), listed.len());
        }
    }

    #[test]
    fn responds_respects_churn() {
        let live = rec(PortSet::of([Protocol::Icmp]), false);
        assert!(live.responds(Protocol::Icmp));
        assert!(!live.responds(Protocol::Tcp80));
        let dead = rec(PortSet::of([Protocol::Icmp]), true);
        assert!(!dead.responds(Protocol::Icmp));
        assert!(!dead.responds_any());
    }

    #[test]
    fn iter_is_in_address_order() {
        let m = HostTable::build(vec![
            (3, rec(PortSet::ALL, false)),
            (1, rec(PortSet::ALL, false)),
            (2, rec(PortSet::ALL, false)),
        ]);
        let keys: Vec<u128> = m.iter().map(|(a, _)| u128::from(a)).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn count_where() {
        let m = HostTable::build(vec![
            (1, rec(PortSet::ALL, false)),
            (2, rec(PortSet::EMPTY, true)),
            (3, rec(PortSet::ALL, false)),
        ]);
        assert_eq!(m.count_where(|r| r.responds_any()), 2);
        assert_eq!(m.count_where(|r| r.churned), 1);
    }
}
