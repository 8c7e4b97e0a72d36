//! Host records and the address-keyed host table.
//!
//! The ground truth stores every *individually modeled* address — responsive
//! hosts, churned (formerly active) hosts, and firewalled routers — in
//! address order, behind an index of the /64s that hold any. Aliased
//! regions and the megapattern are procedural and live outside this table
//! (see [`crate::world::World`]); the index records only whether an aliased
//! region overlaps a populated /64.

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

impl HostKind {
    /// Short display name, as the world report prints it.
    pub fn label(self) -> &'static str {
        match self {
            HostKind::Router => "router",
            HostKind::WebServer => "web server",
            HostKind::DnsServer => "dns server",
            HostKind::Cpe => "cpe",
            HostKind::Infra => "infra",
        }
    }
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

/// One host as its /64's run holds it: the IID beside the record, packed
/// to 12 bytes, so a 64-byte cache line holds five of a run's hosts, IIDs
/// and records both. (`packed(4)` only drops the padding a `u64` beside
/// four bytes would get; `HostRecord` is byte-aligned, so `&record` is
/// always a valid reference.)
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Host {
    iid: u64,
    record: HostRecord,
}

/// A populated /64's index entry: where its run starts, and the run's
/// length packed with two facts about the /64 as a whole.
#[derive(Debug, Clone, Copy)]
struct Subnet {
    start: u32,
    /// Run length `<< 2`, then [`Subnet::ALIASED`] and [`Subnet::ROUTED`].
    len_flags: u32,
}

impl Subnet {
    /// An aliased region overlaps the /64.
    const ALIASED: u32 = 1;
    /// The /64 lies in announced space.
    const ROUTED: u32 = 2;
}

/// What the index holds for one /64 that holds hosts: its run, and whether
/// an aliased region overlaps it and whether it is routed (see
/// [`HostTable::build_marked`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'a> {
    hosts: &'a [Host],
    flags: u32,
}

impl<'a> Run<'a> {
    /// The host with interface identifier `iid`, if modeled.
    #[inline]
    pub(crate) fn get(self, iid: u64) -> Option<&'a HostRecord> {
        let at = self.hosts.binary_search_by_key(&iid, |h| h.iid).ok()?;
        self.hosts.get(at).map(|h| &h.record)
    }

    /// Does an aliased region overlap this /64? When not, no address in
    /// it is aliased.
    #[inline]
    pub(crate) fn aliased(self) -> bool {
        self.flags & Subnet::ALIASED != 0
    }

    /// Is this /64 announced? Every allocation is a /64 or shorter, so
    /// the answer holds for each of its addresses.
    #[inline]
    pub(crate) fn routed(self) -> bool {
        self.flags & Subnet::ROUTED != 0
    }
}

/// An immutable address → [`HostRecord`] table in address order.
///
/// Built once by the world generator, as an index keyed by /64: each
/// populated /64 maps to its run of `(IID, record)` pairs, which
/// `Host` packs in 12 bytes, and to two bits the world fills in — "an
/// aliased region overlaps this /64" and "this /64 is routed". The study
/// world packs 1.16 M hosts into 434 k /64s, 600 in the densest. A lookup
/// is one hash probe and a binary search of one run that shares its cache
/// line with the records, and the world's oracle answers every other
/// question about an address in a populated /64 from the same entry.
#[derive(Debug, Clone, Default)]
pub struct HostTable {
    /// Every host in address order, so a /64's hosts are one run.
    hosts: Vec<Host>,
    /// The populated /64s' upper 64 bits, in address order, and where
    /// each one's run ends: what [`HostTable::iter`] walks.
    nets: Vec<u64>,
    ends: Vec<u32>,
    /// Upper 64 address bits → that /64's entry.
    index: AddrMap<u64, Subnet>,
}

impl HostTable {
    /// Build from unordered entries (last write wins for duplicate keys),
    /// setting each populated /64's two bits as it goes: `aliased(net)`
    /// must say whether an aliased region overlaps the /64 whose upper bits
    /// are `net`, and `routed(net)` whether it is announced. Both are asked
    /// once per /64, in address order.
    pub(crate) fn build_marked(
        mut entries: Vec<(u128, HostRecord)>,
        aliased: impl Fn(u64) -> bool,
        mut routed: impl FnMut(u64) -> bool,
    ) -> Self {
        assert!(
            entries.len() < 1 << 30,
            "the /64 index packs run lengths into 30 bits"
        );
        entries.sort_by_key(|(k, _)| *k);
        // Deduplicate keeping the *last* occurrence: the sort is stable,
        // so it is the last of its run, and it overwrites the one kept.
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        // Sorted keys: a /64's hosts are one consecutive run.
        let runs = || entries.chunk_by(|(a, _), (b, _)| a >> 64 == b >> 64);
        let subnets = runs().count();
        let mut table = HostTable {
            hosts: Vec::with_capacity(entries.len()),
            nets: Vec::with_capacity(subnets),
            ends: Vec::with_capacity(subnets),
            index: AddrMap::with_capacity_and_hasher(subnets, Default::default()),
        };
        for run in runs() {
            let net = (run[0].0 >> 64) as u64; // chunk_by yields no empty run
            let mut len_flags = (run.len() as u32) << 2;
            if aliased(net) {
                len_flags |= Subnet::ALIASED;
            }
            if routed(net) {
                len_flags |= Subnet::ROUTED;
            }
            table.index.insert(
                net,
                Subnet {
                    start: table.hosts.len() as u32,
                    len_flags,
                },
            );
            table.hosts.extend(run.iter().map(|&(key, record)| Host {
                iid: key as u64,
                record,
            }));
            table.nets.push(net);
            table.ends.push(table.hosts.len() as u32);
        }
        table
    }

    /// Number of modeled addresses.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The index entry of the /64 holding `addr`, when any host lives there.
    #[inline]
    pub(crate) fn run(&self, addr: u128) -> Option<Run<'_>> {
        let entry = self.index.get(&((addr >> 64) as u64))?;
        let start = entry.start as usize;
        let hosts = self
            .hosts
            .get(start..start + (entry.len_flags >> 2) as usize)?;
        Some(Run {
            hosts,
            flags: entry.len_flags & 3,
        })
    }

    /// Lookup a record by address.
    #[inline]
    pub fn get(&self, addr: Ipv6Addr) -> Option<&HostRecord> {
        let key = u128::from(addr);
        self.run(key)?.get(key as u64)
    }

    /// Iterate `(address, record)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Addr, &HostRecord)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.nets
            .iter()
            .zip(starts.zip(&self.ends))
            .flat_map(move |(&net, (start, &end))| {
                let run = &self.hosts[start as usize..end as usize]; // runs tile `hosts` by construction
                run.iter().map(move |h| {
                    (
                        Ipv6Addr::from(u128::from(net) << 64 | u128::from(h.iid)),
                        &h.record,
                    )
                })
            })
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
        let m = HostTable::build_marked(
            vec![
                (u128::from(a("2001:db8::2")), rec(PortSet::ALL, false)),
                (u128::from(a("2001:db8::1")), rec(PortSet::EMPTY, true)),
            ],
            |_| false,
            |_| false,
        );
        assert_eq!(m.len(), 2);
        assert!(m.get(a("2001:db8::1")).unwrap().churned);
        assert!(!m.get(a("2001:db8::2")).unwrap().churned);
        assert!(m.get(a("2001:db8::3")).is_none());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let k = u128::from(a("2001:db8::1"));
        let m = HostTable::build_marked(
            vec![
                (k, rec(PortSet::EMPTY, true)),
                (k, rec(PortSet::ALL, false)),
            ],
            |_| false,
            |_| false,
        );
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
        let kinds = [
            rec(PortSet::ALL, false),
            rec(PortSet::EMPTY, true),
            rec(PortSet::of([Protocol::Icmp]), false),
        ];
        for _ in 0..20 {
            let subnets: Vec<u128> = (0..40).map(|_| u128::from(g.next_u64()) << 64).collect();
            let dense = subnets[0];
            let mut entries: Vec<(u128, HostRecord)> = (0..600)
                .map(|i| (dense | u128::from(g.next_u64() % 4096), kinds[i % 3]))
                .collect();
            for i in 0..(g.next_u64() % 400) as usize {
                let net = subnets[(g.next_u64() % 40) as usize];
                entries.push((net | u128::from(g.next_u64() % 64), kinds[i % 3]));
            }
            let table = HostTable::build_marked(entries.clone(), |_| false, |_| false);
            let mut sorted = entries;
            sorted.sort_by_key(|(k, _)| *k); // stable: the last duplicate stays last
            let plain = |key: u128| {
                let end = sorted.partition_point(|(k, _)| *k <= key);
                sorted[..end]
                    .last()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, r)| r)
            };
            let mut probes: Vec<u128> = sorted.iter().map(|(k, _)| *k).collect();
            probes.extend(
                sorted
                    .iter()
                    .step_by(7)
                    .flat_map(|(k, _)| [k ^ 1, k + 4096, k ^ (1 << 64)]),
            );
            probes.extend((0..50).map(|_| u128::from(g.next_u64()) << 64 | 1));
            for key in probes {
                assert_eq!(table.get(Ipv6Addr::from(key)), plain(key), "{:x}", key);
            }
            let listed: Vec<u128> = table.iter().map(|(a, _)| u128::from(a)).collect();
            assert!(
                listed.windows(2).all(|w| w[0] < w[1]),
                "address order, no duplicates"
            );
            assert_eq!(table.len(), listed.len());
        }
    }

    /// The table must not cost more than the two parallel arrays it
    /// replaced (16 + 4 bytes a host, plus the /64 map): a host is 12
    /// bytes, and a populated /64 adds its 8-byte upper half and 4-byte run
    /// end to the map's entry, which the 8 bytes a host saves pay for at
    /// 1.5 hosts a /64 (the tiny world has 1.9, the study world 2.7).
    #[test]
    fn a_host_packs_into_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Host>(), 12);
        assert_eq!(std::mem::size_of::<Subnet>(), 8);
    }

    #[test]
    fn marks_reach_every_address_of_a_populated_subnet() {
        let entries = vec![
            (u128::from(a("2001:db8::1")), rec(PortSet::ALL, false)),
            (u128::from(a("2001:db8::5")), rec(PortSet::ALL, false)),
            (u128::from(a("2001:db8:0:1::1")), rec(PortSet::ALL, false)),
        ];
        let first = (u128::from(a("2001:db8::")) >> 64) as u64;
        let m = HostTable::build_marked(entries, |n| n == first, |n| n != first);
        let run = m
            .run(u128::from(a("2001:db8::3")))
            .expect("a populated /64");
        assert!(run.aliased() && !run.routed());
        assert_eq!(run.get(5).map(|r| r.churned), Some(false));
        assert!(run.get(3).is_none());
        let other = m
            .run(u128::from(a("2001:db8:0:1::ffff")))
            .expect("a populated /64");
        assert!(!other.aliased() && other.routed());
        assert!(
            m.run(u128::from(a("2001:db8:0:2::1"))).is_none(),
            "an empty /64 has no entry"
        );
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
        let m = HostTable::build_marked(
            vec![
                (3, rec(PortSet::ALL, false)),
                (1, rec(PortSet::ALL, false)),
                (2, rec(PortSet::ALL, false)),
            ],
            |_| false,
            |_| false,
        );
        let keys: Vec<u128> = m.iter().map(|(a, _)| u128::from(a)).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }
}
