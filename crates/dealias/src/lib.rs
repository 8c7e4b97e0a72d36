//! Alias detection — offline, online, and joint (§2.2, §4.2).
//!
//! Aliased prefixes (entire prefixes answering as one device) inflate hit
//! counts by orders of magnitude, so both TGA *inputs* (RQ1.a) and scan
//! *outputs* (§4.2) must be dealiased. Two complementary methods exist:
//!
//! - **Offline** ([`OfflineDealiaser`]): filter against a published list of
//!   known aliased prefixes (the IPv6 Hitlist's list in the paper). Free,
//!   but incomplete — it misses never-before-seen aliases.
//! - **Online** ([`OnlineDealiaser`]): 6Gen's method. For each /96
//!   containing an active address, probe a few *random* addresses inside
//!   it; if most answer, the whole prefix must be responsive and is
//!   declared an alias. Catches novel aliases at the cost of extra packets
//!   (and occasional misses under rate limiting).
//! - **Joint** ([`JointDealiaser`], [`DealiasMode`]): offline first (cheap),
//!   then online for whatever survives — the paper's recommendation.

pub mod offline;
pub mod online;

pub use offline::OfflineDealiaser;
pub use online::{OnlineConfig, OnlineDealiaser};

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::ScanOracle;

/// Which dealiasing treatment to apply (the four regimes of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DealiasMode {
    /// No dealiasing at all (the `D_All` column).
    None,
    /// Published-list filtering only (`D_offline`).
    OfflineOnly,
    /// 6Gen-style probing only (`D_online`).
    OnlineOnly,
    /// Offline first, then online (`D_joint`) — the recommended regime.
    Joint,
}

impl DealiasMode {
    /// All four regimes in Table 4's column order.
    pub const ALL: [DealiasMode; 4] = [
        DealiasMode::None,
        DealiasMode::OfflineOnly,
        DealiasMode::OnlineOnly,
        DealiasMode::Joint,
    ];

    /// Table 4 column label.
    pub fn label(self) -> &'static str {
        match self {
            DealiasMode::None => "D_All",
            DealiasMode::OfflineOnly => "D_offline",
            DealiasMode::OnlineOnly => "D_online",
            DealiasMode::Joint => "D_joint",
        }
    }
}

/// Result of a dealiasing pass.
#[derive(Debug, Clone, Default)]
pub struct DealiasOutcome {
    /// Addresses judged non-aliased.
    pub clean: Vec<Ipv6Addr>,
    /// Addresses judged aliased.
    pub aliased: Vec<Ipv6Addr>,
    /// Extra probe packets the online stage spent.
    pub probe_packets: u64,
}

/// Offline + online, composed per [`DealiasMode`].
pub struct JointDealiaser {
    offline: OfflineDealiaser,
    online: OnlineDealiaser,
}

impl JointDealiaser {
    /// Compose from parts.
    pub fn new(offline: OfflineDealiaser, online: OnlineDealiaser) -> Self {
        JointDealiaser { offline, online }
    }

    /// The offline stage.
    pub fn offline(&self) -> &OfflineDealiaser {
        &self.offline
    }

    /// The online stage.
    pub fn online(&self) -> &OnlineDealiaser {
        &self.online
    }

    /// Run the configured regime over `addrs` (assumed *active* addresses,
    /// since online dealiasing is only defined around responsive space).
    pub fn run<O: ScanOracle + ?Sized>(
        &mut self,
        mode: DealiasMode,
        oracle: &mut O,
        addrs: &[Ipv6Addr],
        proto: Protocol,
    ) -> DealiasOutcome {
        match mode {
            DealiasMode::None => DealiasOutcome {
                clean: addrs.to_vec(),
                aliased: Vec::new(),
                probe_packets: 0,
            },
            DealiasMode::OfflineOnly => {
                let (clean, aliased) = self.offline.partition(addrs.iter().copied());
                DealiasOutcome {
                    clean,
                    aliased,
                    probe_packets: 0,
                }
            }
            DealiasMode::OnlineOnly => self.online.filter(oracle, addrs, proto),
            DealiasMode::Joint => {
                let (survivors, mut aliased) = self.offline.partition(addrs.iter().copied());
                let mut out = self.online.filter(oracle, &survivors, proto);
                aliased.append(&mut out.aliased);
                DealiasOutcome {
                    clean: out.clean,
                    aliased,
                    probe_packets: out.probe_packets,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_probe::NullOracle;
    use v6addr::{Prefix, PrefixSet};

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn joint_with_list(prefixes: &[&str]) -> JointDealiaser {
        let list: PrefixSet = prefixes
            .iter()
            .map(|p| p.parse::<Prefix>().unwrap())
            .collect();
        JointDealiaser::new(
            OfflineDealiaser::new(list),
            OnlineDealiaser::new(OnlineConfig::default()),
        )
    }

    #[test]
    fn mode_none_passes_everything() {
        let mut d = joint_with_list(&["2600:9000::/48"]);
        let mut o = NullOracle::default();
        let addrs = vec![a("2600:9000::1"), a("2001:db8::1")];
        let out = d.run(DealiasMode::None, &mut o, &addrs, Protocol::Icmp);
        assert_eq!(out.clean.len(), 2);
        assert!(out.aliased.is_empty());
        assert_eq!(out.probe_packets, 0);
    }

    #[test]
    fn offline_only_filters_listed_prefixes() {
        let mut d = joint_with_list(&["2600:9000::/48"]);
        let mut o = NullOracle::default();
        let addrs = vec![a("2600:9000::1"), a("2001:db8::1")];
        let out = d.run(DealiasMode::OfflineOnly, &mut o, &addrs, Protocol::Icmp);
        assert_eq!(out.clean, vec![a("2001:db8::1")]);
        assert_eq!(out.aliased, vec![a("2600:9000::1")]);
    }

    #[test]
    fn joint_runs_offline_before_online() {
        let mut d = joint_with_list(&["2600:9000::/48"]);
        // dead oracle: online finds nothing aliased
        let mut o = NullOracle::default();
        let addrs = vec![a("2600:9000::1"), a("2001:db8::1")];
        let out = d.run(DealiasMode::Joint, &mut o, &addrs, Protocol::Icmp);
        assert_eq!(out.clean, vec![a("2001:db8::1")]);
        assert_eq!(out.aliased, vec![a("2600:9000::1")]);
        // online stage probed only the survivor's /96
        assert!(out.probe_packets > 0);
    }

    #[test]
    fn labels_match_table_4() {
        let labels: Vec<&str> = DealiasMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["D_All", "D_offline", "D_online", "D_joint"]);
    }
}
