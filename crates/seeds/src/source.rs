//! Source identities and metadata (Tables 7–8).

use std::fmt;

/// The three source families of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Domain names resolved via AAAA lookups ("D" in Table 3).
    Domain,
    /// Traceroute-derived router addresses ("R" in Table 3).
    Router,
    /// Pre-compiled hitlists ("Both" in Table 3).
    Hitlist,
}

impl SourceKind {
    /// Table 3 column tag.
    pub fn tag(self) -> &'static str {
        match self {
            SourceKind::Domain => "D",
            SourceKind::Router => "R",
            SourceKind::Hitlist => "Both",
        }
    }
}

/// The twelve seed sources of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceId {
    /// Certificate Transparency logs via Censys.
    CensysCt,
    /// Rapid7 Forward DNS (archival, Nov 2021).
    Rapid7,
    /// Cisco Umbrella toplist.
    Umbrella,
    /// Majestic Million toplist.
    Majestic,
    /// Tranco toplist.
    Tranco,
    /// SecRank toplist (China-heavy).
    SecRank,
    /// Cloudflare Radar toplist.
    Radar,
    /// CAIDA DNS Names (router PTR names).
    CaidaDns,
    /// Scamper / CAIDA IPv6 Topology traceroutes.
    Scamper,
    /// RIPE Atlas traceroutes and anchors.
    RipeAtlas,
    /// The IPv6 Hitlist.
    Hitlist,
    /// AddrMiner's generated hitlist.
    AddrMiner,
}

impl SourceId {
    /// All sources in Table 3's presentation order.
    pub const ALL: [SourceId; 12] = [
        SourceId::CensysCt,
        SourceId::Rapid7,
        SourceId::Umbrella,
        SourceId::Majestic,
        SourceId::Tranco,
        SourceId::SecRank,
        SourceId::Radar,
        SourceId::CaidaDns,
        SourceId::Scamper,
        SourceId::RipeAtlas,
        SourceId::Hitlist,
        SourceId::AddrMiner,
    ];

    /// Which family the source belongs to.
    pub fn kind(self) -> SourceKind {
        match self {
            SourceId::CensysCt
            | SourceId::Rapid7
            | SourceId::Umbrella
            | SourceId::Majestic
            | SourceId::Tranco
            | SourceId::SecRank
            | SourceId::Radar
            | SourceId::CaidaDns => SourceKind::Domain,
            SourceId::Scamper | SourceId::RipeAtlas => SourceKind::Router,
            SourceId::Hitlist | SourceId::AddrMiner => SourceKind::Hitlist,
        }
    }

    /// Table 3 row label.
    pub fn label(self) -> &'static str {
        match self {
            SourceId::CensysCt => "Censys CT",
            SourceId::Rapid7 => "Rapid7",
            SourceId::Umbrella => "Umbrella",
            SourceId::Majestic => "Majestic",
            SourceId::Tranco => "Tranco",
            SourceId::SecRank => "SecRank",
            SourceId::Radar => "Radar",
            SourceId::CaidaDns => "CAIDA DNS",
            SourceId::Scamper => "Scamper",
            SourceId::RipeAtlas => "RIPE Atlas",
            SourceId::Hitlist => "IPv6 Hitlist",
            SourceId::AddrMiner => "AddrMiner",
        }
    }

    /// Stable per-source RNG stream index.
    #[expect(
        clippy::expect_used,
        reason = "every SourceId variant is listed in ALL"
    )]
    pub fn stream(self) -> u64 {
        SourceId::ALL
            .iter()
            .position(|&s| s == self)
            .expect("in ALL") as u64
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-source domain statistics (Table 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Domain names attempted.
    pub domains: u64,
    /// Lookups that returned AAAA records.
    pub aaaa_responses: u64,
    /// Unique IPv6 addresses extracted.
    pub unique_ips: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_sources_all_distinct() {
        let mut v = SourceId::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 12);
    }

    #[test]
    fn kinds_partition_as_in_table_3() {
        let domains = SourceId::ALL
            .iter()
            .filter(|s| s.kind() == SourceKind::Domain)
            .count();
        let routers = SourceId::ALL
            .iter()
            .filter(|s| s.kind() == SourceKind::Router)
            .count();
        let hitlists = SourceId::ALL
            .iter()
            .filter(|s| s.kind() == SourceKind::Hitlist)
            .count();
        assert_eq!((domains, routers, hitlists), (8, 2, 2));
    }

    #[test]
    fn kind_tags() {
        assert_eq!(SourceId::CensysCt.kind().tag(), "D");
        assert_eq!(SourceId::Scamper.kind().tag(), "R");
        assert_eq!(SourceId::AddrMiner.kind().tag(), "Both");
    }

    #[test]
    fn streams_are_unique() {
        let mut streams: Vec<u64> = SourceId::ALL.iter().map(|s| s.stream()).collect();
        streams.sort();
        streams.dedup();
        assert_eq!(streams.len(), 12);
    }
}
