//! Autonomous System registry and address → AS resolution.
//!
//! The paper's "Active ASes" metric resolves every discovered address to its
//! origin AS through BGP data and counts distinct ASes (§4.1). The registry
//! here plays that role: a table of synthetic ASes, each with one or more
//! RIR-style prefix allocations, and a longest-prefix-match trie mapping
//! addresses back to their AS.

use std::fmt;

use v6addr::{Prefix, PrefixTrie};

/// An Autonomous System Number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Organization category, mirroring the paper's Table 6 classification
/// (ISPs/mobile carriers, cloud/hosting/CDNs, and others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsKind {
    /// Backbone/transit carrier — mostly router infrastructure.
    TransitIsp,
    /// Residential/business access ISP — many CPE devices.
    AccessIsp,
    /// Mobile carrier.
    Mobile,
    /// Cloud or hosting provider — dense server populations.
    CloudHosting,
    /// Content delivery network — extremely dense, alias-prone.
    Cdn,
    /// University or research network.
    Education,
    /// Government network.
    Government,
    /// Enterprise network.
    Enterprise,
}

impl AsKind {
    /// Short display name, as the study's tables print it.
    pub fn label(self) -> &'static str {
        match self {
            AsKind::TransitIsp => "Transit",
            AsKind::AccessIsp => "AccessISP",
            AsKind::Mobile => "Mobile",
            AsKind::CloudHosting => "Cloud",
            AsKind::Cdn => "CDN",
            AsKind::Education => "Education",
            AsKind::Government => "Government",
            AsKind::Enterprise => "Enterprise",
        }
    }
}

/// Rough geography, used to pick the RIR block an AS allocates from and to
/// reproduce the paper's observation that discovered ISPs span the globe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Country {
    /// United States (ARIN).
    Us,
    /// Brazil (LACNIC).
    Brazil,
    /// Mexico (LACNIC).
    Mexico,
    /// Germany (RIPE).
    Germany,
    /// Netherlands (RIPE).
    Netherlands,
    /// France (RIPE).
    France,
    /// China (APNIC).
    China,
    /// Japan (APNIC).
    Japan,
    /// India (APNIC).
    India,
    /// Nepal (APNIC) — the paper's Table 6 spots DishNet NP.
    Nepal,
    /// Australia (APNIC).
    Australia,
    /// South Africa (AFRINIC).
    SouthAfrica,
}

impl Country {
    /// All modeled countries.
    pub const ALL: [Country; 12] = [
        Country::Us,
        Country::Brazil,
        Country::Mexico,
        Country::Germany,
        Country::Netherlands,
        Country::France,
        Country::China,
        Country::Japan,
        Country::India,
        Country::Nepal,
        Country::Australia,
        Country::SouthAfrica,
    ];

    /// RIR super-block this country allocates from (coarse model of the
    /// real 2000::/3 RIR partitioning).
    #[expect(
        clippy::expect_used,
        reason = "input is a compile-time literal; parse covered by unit tests"
    )]
    pub fn rir_block(self) -> Prefix {
        let s = match self {
            Country::Us => "2600::/12",
            Country::Brazil | Country::Mexico => "2800::/12",
            Country::Germany | Country::Netherlands | Country::France => "2a00::/12",
            Country::China
            | Country::Japan
            | Country::India
            | Country::Nepal
            | Country::Australia => "2400::/12",
            Country::SouthAfrica => "2c00::/12",
        };
        s.parse().expect("static prefix parses")
    }
}

/// Metadata for one synthetic AS.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Synthetic organization name (stable per ASN).
    pub name: String,
    /// Organization category.
    pub kind: AsKind,
    /// Home country.
    pub country: Country,
    /// BGP-announced allocations.
    pub allocations: Vec<Prefix>,
}

/// The AS registry: AS metadata plus a routing trie for address resolution.
#[derive(Debug, Clone, Default)]
pub struct AsRegistry {
    infos: Vec<AsInfo>,
    routes: PrefixTrie<Asn>,
}

impl AsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS with its allocations. Allocations must not collide
    /// exactly with previously registered ones (debug-asserted).
    pub fn register(&mut self, info: AsInfo) {
        for p in &info.allocations {
            let prev = self.routes.insert(*p, info.asn);
            debug_assert!(prev.is_none(), "duplicate allocation {p}");
        }
        self.infos.push(info);
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Resolve an address to its origin AS (longest-prefix match).
    pub fn asn_of(&self, addr: std::net::Ipv6Addr) -> Option<Asn> {
        self.routes.lookup_value(addr).copied()
    }

    /// The allocation `addr` resolves through (longest-prefix match).
    pub(crate) fn allocation_of(&self, addr: std::net::Ipv6Addr) -> Option<Prefix> {
        self.routes.lookup(addr).map(|(prefix, _)| prefix)
    }

    /// Metadata for `asn`, if registered.
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        // ASNs are assigned densely at build time, but look up defensively.
        self.infos.iter().find(|i| i.asn == asn)
    }

    /// Iterate all registered ASes.
    pub fn iter(&self) -> impl Iterator<Item = &AsInfo> {
        self.infos.iter()
    }
}

/// Synthetic organization name for an AS, stable per (asn, kind).
pub fn synth_name(asn: Asn, kind: AsKind) -> String {
    let stem = match kind {
        AsKind::TransitIsp => "Backbone",
        AsKind::AccessIsp => "Access",
        AsKind::Mobile => "Mobile",
        AsKind::CloudHosting => "Cloud",
        AsKind::Cdn => "EdgeCDN",
        AsKind::Education => "University",
        AsKind::Government => "GovNet",
        AsKind::Enterprise => "Corp",
    };
    format!("{stem}-{}", asn.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample_registry() -> AsRegistry {
        let mut reg = AsRegistry::new();
        reg.register(AsInfo {
            asn: Asn(64500),
            name: synth_name(Asn(64500), AsKind::CloudHosting),
            kind: AsKind::CloudHosting,
            country: Country::Us,
            allocations: vec![p("2600:100::/32"), p("2600:200::/32")],
        });
        reg.register(AsInfo {
            asn: Asn(64501),
            name: synth_name(Asn(64501), AsKind::AccessIsp),
            kind: AsKind::AccessIsp,
            country: Country::Brazil,
            allocations: vec![p("2800:40::/32")],
        });
        reg
    }

    #[test]
    fn resolution_by_lpm() {
        let reg = sample_registry();
        assert_eq!(reg.asn_of(a("2600:100::1")), Some(Asn(64500)));
        assert_eq!(reg.asn_of(a("2600:200:ffff::1")), Some(Asn(64500)));
        assert_eq!(reg.asn_of(a("2800:40::1")), Some(Asn(64501)));
        assert_eq!(reg.asn_of(a("2001:db8::1")), None);
    }

    #[test]
    fn info_lookup_and_kind_filter() {
        let reg = sample_registry();
        assert_eq!(reg.info(Asn(64501)).unwrap().kind, AsKind::AccessIsp);
        assert!(reg.info(Asn(1)).is_none());
        assert_eq!(reg.info(Asn(64500)).unwrap().kind, AsKind::CloudHosting);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn rir_blocks_do_not_overlap() {
        let blocks: Vec<Prefix> = Country::ALL.iter().map(|c| c.rir_block()).collect();
        for (i, x) in blocks.iter().enumerate() {
            for (j, y) in blocks.iter().enumerate() {
                if i != j && x != y {
                    assert!(!x.covers(y) && !y.covers(x), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            synth_name(Asn(7), AsKind::Cdn),
            synth_name(Asn(7), AsKind::Cdn)
        );
        assert_ne!(
            synth_name(Asn(7), AsKind::Cdn),
            synth_name(Asn(8), AsKind::Cdn)
        );
    }
}
