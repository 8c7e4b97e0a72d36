//! Host records and the address-keyed host map.
//!
//! The ground truth stores every *individually modeled* address — responsive
//! hosts, churned (formerly active) hosts, and firewalled routers — in a
//! sorted array keyed by the 128-bit address. Aliased regions and the
//! megapattern are procedural and live outside this map (see
//! [`crate::world::World`]).

use std::net::Ipv6Addr;

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

/// An immutable, sorted address → [`HostRecord`] map.
///
/// Built once by the world generator; lookups are binary searches, which at
/// study scale (millions of entries) cost ~20 comparisons — negligible next
/// to packet construction, while using a third of the memory of a hash map.
#[derive(Debug, Clone, Default)]
pub struct AddrMap {
    entries: Vec<(u128, HostRecord)>,
}

impl AddrMap {
    /// Build from unordered entries. Last write wins for duplicate keys.
    pub fn build(mut entries: Vec<(u128, HostRecord)>) -> Self {
        entries.sort_by_key(|(k, _)| *k);
        // deduplicate keeping the *last* occurrence
        entries.reverse();
        entries.dedup_by_key(|(k, _)| *k);
        entries.reverse();
        AddrMap { entries }
    }

    /// Number of modeled addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup a record by address.
    pub fn get(&self, addr: Ipv6Addr) -> Option<&HostRecord> {
        let key = u128::from(addr);
        self.entries
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.entries[i].1) // i from binary_search: in bounds
    }

    /// Iterate `(address, record)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Addr, &HostRecord)> {
        self.entries.iter().map(|(k, r)| (Ipv6Addr::from(*k), r))
    }

    /// Count hosts satisfying `pred`.
    pub fn count_where(&self, pred: impl Fn(&HostRecord) -> bool) -> usize {
        self.entries.iter().filter(|(_, r)| pred(r)).count()
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
        let m = AddrMap::build(vec![
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
        let m = AddrMap::build(vec![(k, rec(PortSet::EMPTY, true)), (k, rec(PortSet::ALL, false))]);
        assert_eq!(m.len(), 1);
        assert!(m.get(a("2001:db8::1")).unwrap().responds_any());
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
        let m = AddrMap::build(vec![
            (3, rec(PortSet::ALL, false)),
            (1, rec(PortSet::ALL, false)),
            (2, rec(PortSet::ALL, false)),
        ]);
        let keys: Vec<u128> = m.iter().map(|(a, _)| u128::from(a)).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn count_where() {
        let m = AddrMap::build(vec![
            (1, rec(PortSet::ALL, false)),
            (2, rec(PortSet::EMPTY, true)),
            (3, rec(PortSet::ALL, false)),
        ]);
        assert_eq!(m.count_where(|r| r.responds_any()), 2);
        assert_eq!(m.count_where(|r| r.churned), 1);
    }
}
