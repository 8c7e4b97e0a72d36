//! Multi-granularity online dealiasing — the paper's stated future-work
//! direction.
//!
//! §6.1 closes with: "these results suggest future work is necessary for
//! optimal dealiasing design", after observing that the fixed-/96 online
//! method misses aliases that "do not follow the statistical pattern of
//! fully responsive /96s". A /64-aliased prefix *is* caught at /96 (its
//! /96es are fully responsive too), but an aliased /100 — smaller than the
//! probed granularity — is not: random /96 probes land outside it.
//!
//! [`MultiGrainDealiaser`] probes a ladder of prefix lengths from coarse
//! to fine. A hit at a coarse granularity condemns the largest aliased
//! enclosing prefix (fewer false negatives *and* a more useful output —
//! the whole aliased block is reported, not one /96 sliver); descending
//! the ladder catches sub-/96 aliases the fixed method misses.

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::ScanOracle;
use v6addr::Prefix;

use crate::online::{OnlineConfig, OnlineDealiaser};
use crate::DealiasOutcome;

/// Online dealiasing across a ladder of prefix granularities.
#[derive(Debug, Clone)]
pub struct MultiGrainDealiaser {
    /// One fixed-granularity dealiaser per rung, coarse → fine.
    rungs: Vec<OnlineDealiaser>,
}

impl MultiGrainDealiaser {
    /// Build with the given granularity ladder (sorted coarse → fine).
    ///
    /// # Panics
    /// Panics if `lengths` is empty or not strictly increasing.
    pub fn new(lengths: &[u8], base: OnlineConfig) -> Self {
        assert!(!lengths.is_empty(), "need at least one granularity");
        assert!(
            lengths.windows(2).all(|w| w[0] < w[1]),
            "granularities must be strictly increasing"
        );
        MultiGrainDealiaser {
            rungs: lengths
                .iter()
                .map(|&len| {
                    OnlineDealiaser::new(OnlineConfig {
                        prefix_len: len,
                        seed: base.seed ^ u64::from(len),
                        ..base
                    })
                })
                .collect(),
        }
    }

    /// The ladder evaluated in the extension experiments: /64, /80, /96,
    /// /112 (§4.2's method is the /96 rung alone).
    pub fn standard(seed: u64) -> Self {
        Self::new(
            &[64, 80, 96, 112],
            OnlineConfig {
                seed,
                ..OnlineConfig::default()
            },
        )
    }

    /// Total probe packets spent across all rungs.
    pub fn probe_packets(&self) -> u64 {
        self.rungs.iter().map(OnlineDealiaser::probe_packets).sum()
    }

    /// Is `addr` inside an aliased prefix at any granularity? Returns the
    /// *coarsest* aliased prefix found, probing coarse → fine and stopping
    /// at the first aliased rung (finer rungs are implied).
    pub fn check<O: ScanOracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        addr: Ipv6Addr,
        proto: Protocol,
    ) -> Option<Prefix> {
        for rung in &mut self.rungs {
            if rung.check(oracle, addr, proto) {
                return Some(Prefix::new(addr, rung.config().prefix_len));
            }
        }
        None
    }

    /// Partition active addresses into clean vs. aliased.
    pub fn filter<O: ScanOracle + ?Sized>(
        &mut self,
        oracle: &mut O,
        addrs: &[Ipv6Addr],
        proto: Protocol,
    ) -> DealiasOutcome {
        let before = self.probe_packets();
        let mut clean = Vec::with_capacity(addrs.len());
        let mut aliased = Vec::new();
        for &a in addrs {
            if self.check(oracle, a, proto).is_some() {
                aliased.push(a);
            } else {
                clean.push(a);
            }
        }
        DealiasOutcome {
            clean,
            aliased,
            probe_packets: self.probe_packets() - before,
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
                retry: RetryPolicy::fixed(2),
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world),
        )
    }

    #[test]
    #[should_panic]
    fn ladder_must_increase() {
        MultiGrainDealiaser::new(&[96, 64], OnlineConfig::default());
    }

    #[test]
    fn dead_space_is_clean_at_every_granularity() {
        let mut d = MultiGrainDealiaser::standard(1);
        let mut o = NullOracle::default();
        assert!(d
            .check(&mut o, "2001:db8::1".parse().unwrap(), Protocol::Icmp)
            .is_none());
        assert!(d.probe_packets() > 0);
    }

    #[test]
    fn whole_64_alias_reported_at_the_coarsest_rung() {
        // Which seeds yield a lossless /64 ICMP alias region shifts
        // whenever world generation grows a feature, so search a small
        // deterministic seed range instead of pinning one seed.
        let (world, region) = (0..64u64)
            .find_map(|seed| {
                let world = Arc::new(World::build(WorldConfig::tiny(seed)));
                let region = world
                    .alias_regions()
                    .iter()
                    .find(|r| {
                        r.prefix.len() == 64 && r.loss == 0.0 && r.ports.contains(Protocol::Icmp)
                    })?
                    .clone();
                Some((world, region))
            })
            .expect("a /64 alias region in some tiny world");
        let mut s = scanner(world);
        let mut d = MultiGrainDealiaser::standard(2);
        let inside = Ipv6Addr::from(u128::from(region.prefix.network()) | 0xbeef);
        let found = d.check(&mut s, inside, Protocol::Icmp).expect("detected");
        assert_eq!(
            found.len(),
            64,
            "coarsest rung should claim it, got {found}"
        );
    }

    #[test]
    fn sub_96_alias_missed_by_fixed_96_but_caught_by_ladder() {
        // A synthetic oracle: everything inside one /112 answers; nothing
        // else does. The §4.2 fixed-/96 method probes random /96 addresses
        // (which fall outside the /112 almost surely) and misses it; the
        // ladder's /112 rung catches it.
        struct Slab;
        const SLAB_BASE: u128 = 0x2600_0077_0000_0000_0000_0000_0000_0000;
        impl ScanOracle for Slab {
            fn probe(&mut self, a: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(a) >> 16 == SLAB_BASE >> 16
            }
            fn probe_tagged(
                &mut self,
                t: &[(Ipv6Addr, u32)],
                p: Protocol,
            ) -> Vec<(bool, Option<u32>)> {
                t.iter()
                    .map(|&(a, r)| (self.probe(a, p), Some(r)))
                    .collect()
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        let inside: Ipv6Addr = "2600:77::42".parse().unwrap();

        let mut fixed = OnlineDealiaser::new(OnlineConfig::default());
        assert!(
            !fixed.check(&mut Slab, inside, Protocol::Icmp),
            "the fixed /96 method misses a /112-sized alias"
        );

        let mut ladder = MultiGrainDealiaser::standard(3);
        let found = ladder.check(&mut Slab, inside, Protocol::Icmp);
        assert_eq!(
            found.map(|p| p.len()),
            Some(112),
            "the ladder's fine rung catches it"
        );
    }

    #[test]
    fn filter_partitions_and_accounts_packets() {
        let world = Arc::new(World::build(WorldConfig::tiny(61)));
        let live: Vec<Ipv6Addr> = world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(5)
            .collect();
        let mut s = scanner(world);
        let mut d = MultiGrainDealiaser::standard(4);
        let out = d.filter(&mut s, &live, Protocol::Icmp);
        assert_eq!(out.clean.len(), 5);
        assert!(out.aliased.is_empty());
        assert!(out.probe_packets > 0);
    }
}
