//! Online dealiasing — 6Gen's randomized-probe method (§2.2, §4.2).
//!
//! "For all active addresses, when we encounter a new /96 prefix, we
//! generate 3 random addresses within that prefix (with 3 packet retries).
//! If two or more of those random addresses are active, we call that /96 an
//! alias and classify all addresses within that /96 as aliased." (§4.2)
//!
//! The statistical principle: a /96 holds 4 billion addresses, so the odds
//! that *random* ones answer are nil unless the whole prefix is responsive
//! — i.e. aliased. Decisions are cached per (prefix, protocol); random
//! probe addresses are derived deterministically from the prefix so runs
//! are reproducible.

use std::net::Ipv6Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use netmodel::mix::mix3;
use netmodel::Protocol;
use sos_probe::ScanOracle;
use v6addr::{rand_in_prefix, AddrMap, Prefix};

use crate::DealiasOutcome;

/// Central metric-name table for the online method (`obs-metric-names`
/// policy: registry names are consts, never inline literals).
pub mod names {
    /// Distinct prefixes given the randomized-probe test.
    pub const PREFIXES_CHECKED: &str = "dealias.online.prefixes_checked";
    /// Probe packets spent on the test.
    pub const PROBE_PACKETS: &str = "dealias.online.probe_packets";
    /// Prefixes the test declared aliased.
    pub const ALIASED_PREFIXES: &str = "dealias.online.aliased_prefixes";
}

/// Knobs of the online method. Defaults follow §4.2 exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Prefix granularity tested for aliasing (§4.2 keeps /96).
    pub prefix_len: u8,
    /// Random addresses probed per new prefix.
    pub probes: usize,
    /// Active probes required to declare an alias.
    pub threshold: usize,
    /// Seed for reproducible random-address choice.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            prefix_len: 96,
            probes: 3,
            threshold: 2,
            seed: 0x0a11_a5ed,
        }
    }
}

/// The 6Gen-style online dealiaser with per-prefix decision cache.
#[derive(Debug, Clone)]
pub struct OnlineDealiaser {
    cfg: OnlineConfig,
    /// (prefix network bits, protocol index) → is-aliased decision.
    decided: AddrMap<(u128, u8), bool>,
    probe_packets: u64,
}

impl OnlineDealiaser {
    /// Create with the given configuration.
    pub fn new(cfg: OnlineConfig) -> Self {
        OnlineDealiaser {
            cfg,
            decided: AddrMap::default(),
            probe_packets: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Total probe packets spent so far.
    pub fn probe_packets(&self) -> u64 {
        self.probe_packets
    }

    /// Prefixes judged aliased so far.
    pub fn aliased_prefixes(&self) -> Vec<Prefix> {
        let mut out: Vec<Prefix> = self
            .decided
            .iter()
            .filter(|(_, &aliased)| aliased)
            .map(|(&(bits, _), _)| Prefix::new(Ipv6Addr::from(bits), self.cfg.prefix_len))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Decide whether the prefix containing `addr` is aliased, probing it
    /// if not yet decided for this protocol.
    pub fn check<O: ScanOracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        addr: Ipv6Addr,
        proto: Protocol,
    ) -> bool {
        let prefix = Prefix::new(addr, self.cfg.prefix_len);
        let key = (u128::from(prefix.network()), proto.bit());
        if let Some(&aliased) = self.decided.get(&key) {
            return aliased;
        }
        // Deterministic per-prefix RNG: same prefix → same probe addresses.
        let seed = mix3(
            self.cfg.seed,
            key.0 as u64,
            (key.0 >> 64) as u64 ^ u64::from(key.1),
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let before = oracle.packets_sent();
        let mut active = 0usize;
        for i in 0..self.cfg.probes {
            let probe_addr = rand_in_prefix(&prefix, &mut rng);
            if oracle.probe(probe_addr, proto) {
                active += 1;
            }
            // Early exit once the verdict is decided either way: the
            // threshold is reached (aliased), or it is unreachable even
            // if every remaining probe answered (clean).
            let remaining = self.cfg.probes - i - 1;
            if active >= self.cfg.threshold || active + remaining < self.cfg.threshold {
                break;
            }
        }
        let spent = oracle.packets_sent() - before;
        self.probe_packets += spent;
        let aliased = active >= self.cfg.threshold;
        self.decided.insert(key, aliased);
        sos_obs::counter(names::PREFIXES_CHECKED).inc();
        sos_obs::counter(names::PROBE_PACKETS).add(spent);
        if aliased {
            sos_obs::counter(names::ALIASED_PREFIXES).inc();
            sos_obs::debug!(
                "aliased /{} at {} on {proto:?}",
                self.cfg.prefix_len,
                prefix.network()
            );
        }
        aliased
    }

    /// Partition active addresses into clean vs. aliased, probing each new
    /// prefix once.
    pub fn filter<O: ScanOracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        addrs: &[Ipv6Addr],
        proto: Protocol,
    ) -> DealiasOutcome {
        let before = self.probe_packets;
        let mut clean = Vec::with_capacity(addrs.len());
        let mut aliased = Vec::new();
        for &a in addrs {
            if self.check(oracle, a, proto) {
                aliased.push(a);
            } else {
                clean.push(a);
            }
        }
        DealiasOutcome {
            clean,
            aliased,
            probe_packets: self.probe_packets - before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{World, WorldConfig};
    use sos_probe::{NullOracle, RetryPolicy, Scanner, ScannerConfig, SimTransport};
    use std::sync::Arc;

    fn scanner(world: Arc<World>) -> Scanner<SimTransport> {
        Scanner::new(
            ScannerConfig {
                retry: RetryPolicy::fixed(2), // 3 attempts per probe, per §4.2
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world),
        )
    }

    #[test]
    fn dead_space_is_never_aliased() {
        let mut d = OnlineDealiaser::new(OnlineConfig::default());
        let mut o = NullOracle::default();
        assert!(!d.check(&mut o, "2001:db8::1".parse().unwrap(), Protocol::Icmp));
        let spent = d.probe_packets();
        assert!(spent > 0);
        // a second address in the same /96 reads the cached verdict
        assert!(!d.check(&mut o, "2001:db8::2".parse().unwrap(), Protocol::Icmp));
        assert_eq!(d.probe_packets(), spent, "decided once per prefix");
    }

    #[test]
    fn silent_prefix_short_circuits_once_threshold_is_unreachable() {
        // §4.2 defaults: 3 probes, threshold 2. For an all-silent prefix
        // the verdict is settled after the *second* silent probe (even a
        // hit on the third could not reach 2), so exactly 2 of the 3
        // probes are spent. NullOracle answers nothing and counts one
        // packet per probe.
        let mut d = OnlineDealiaser::new(OnlineConfig::default());
        let mut o = NullOracle::default();
        assert!(!d.check(&mut o, "2001:db8:1::1".parse().unwrap(), Protocol::Icmp));
        assert_eq!(o.packets_sent(), 2, "negative verdict must exit early");
        assert_eq!(d.probe_packets(), 2);

        // With threshold == probes, one silent probe settles it.
        let cfg = OnlineConfig {
            probes: 3,
            threshold: 3,
            ..OnlineConfig::default()
        };
        let mut d = OnlineDealiaser::new(cfg);
        let mut o = NullOracle::default();
        assert!(!d.check(&mut o, "2001:db8:2::1".parse().unwrap(), Protocol::Icmp));
        assert_eq!(o.packets_sent(), 1);
    }

    #[test]
    fn decisions_are_cached_per_prefix() {
        let mut d = OnlineDealiaser::new(OnlineConfig::default());
        let mut o = NullOracle::default();
        d.check(&mut o, "2001:db8::1".parse().unwrap(), Protocol::Icmp);
        let pk = d.probe_packets();
        // same /96, different host bits: no new probes
        d.check(&mut o, "2001:db8::2".parse().unwrap(), Protocol::Icmp);
        assert_eq!(d.probe_packets(), pk);
        // different protocol: probed separately
        d.check(&mut o, "2001:db8::2".parse().unwrap(), Protocol::Tcp80);
        assert!(d.probe_packets() > pk);
    }

    #[test]
    fn detects_true_alias_regions() {
        let world = Arc::new(World::build(WorldConfig::tiny(51)));
        let region = world
            .alias_regions()
            .iter()
            .find(|r| r.loss == 0.0 && r.ports.contains(Protocol::Icmp))
            .expect("a lossless ICMP alias region")
            .clone();
        let mut s = scanner(world);
        let mut d = OnlineDealiaser::new(OnlineConfig::default());
        let inside = Ipv6Addr::from(u128::from(region.prefix.network()) | 0x1234);
        assert!(d.check(&mut s, inside, Protocol::Icmp), "region {region:?}");
    }

    #[test]
    fn does_not_flag_ordinary_dense_subnets() {
        // A live low-byte subnet is NOT an alias: random /96 probes land on
        // astronomically unlikely addresses that do not answer.
        let world = Arc::new(World::build(WorldConfig::tiny(51)));
        let live = world
            .hosts()
            .iter()
            .find(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .unwrap();
        let mut s = scanner(world);
        let mut d = OnlineDealiaser::new(OnlineConfig::default());
        assert!(!d.check(&mut s, live, Protocol::Icmp));
    }

    #[test]
    fn filter_partitions_and_counts_packets() {
        let world = Arc::new(World::build(WorldConfig::tiny(51)));
        let region = world
            .alias_regions()
            .iter()
            .find(|r| r.loss == 0.0 && r.ports.contains(Protocol::Icmp))
            .unwrap()
            .clone();
        let live: Vec<Ipv6Addr> = world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(5)
            .collect();
        let aliased_addr = Ipv6Addr::from(u128::from(region.prefix.network()) | 7);
        let mut s = scanner(world);
        let mut d = OnlineDealiaser::new(OnlineConfig::default());
        let mut input = live.clone();
        input.push(aliased_addr);
        let out = d.filter(&mut s, &input, Protocol::Icmp);
        assert_eq!(out.clean, live);
        assert_eq!(out.aliased, vec![aliased_addr]);
        assert!(out.probe_packets > 0);
        let aliased_prefixes = d.aliased_prefixes();
        assert!(aliased_prefixes
            .iter()
            .all(|p| region.prefix.covers(p) || p.covers(&region.prefix)));
    }

    #[test]
    fn deterministic_probe_addresses() {
        // Two dealiasers with the same seed make identical decisions and
        // spend identical packets against the same oracle state.
        let world = Arc::new(World::build(WorldConfig::tiny(51)));
        let addr = "2600:100::1".parse().unwrap();
        let run = |seed| {
            let mut s = scanner(world.clone());
            let mut d = OnlineDealiaser::new(OnlineConfig {
                seed,
                ..OnlineConfig::default()
            });
            let v = d.check(&mut s, addr, Protocol::Icmp);
            (v, d.probe_packets())
        };
        assert_eq!(run(1), run(1));
    }
}
