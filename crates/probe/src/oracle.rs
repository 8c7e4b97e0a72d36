//! The feedback interface for online algorithms.
//!
//! Online TGAs (6Hit, 6Scan, DET, 6Sense) and the online dealiaser steer by
//! scan results in real time. [`ScanOracle`] is the narrow interface they
//! consume: "probe this target, tell me whether it answered." The production
//! implementation is [`Scanner`] (the engine's per-target probe policy,
//! §4.1 classification); [`NullOracle`] is a dead-Internet stand-in for
//! offline testing.

use std::net::Ipv6Addr;

use netmodel::Protocol;

use crate::engine::Scanner;
use crate::transport::{Attempt, Burst, Transport};

/// Probe-and-report feedback used by online TGAs and dealiasers. Every
/// call probes one target, so a caller reads exactly one answer per
/// target it sent, in the order it sent them.
pub trait ScanOracle {
    /// Probe a single address; true iff it is a hit (§4.1 rules).
    fn probe(&mut self, addr: Ipv6Addr, proto: Protocol) -> bool;

    /// Probe with a 6Scan-style region tag. Returns `(hit, echoed_region)`
    /// — the region comes back *in the response packet*, not from local
    /// bookkeeping. The default echoes `region` on every hit.
    fn probe_tagged(
        &mut self,
        addr: Ipv6Addr,
        proto: Protocol,
        region: u32,
    ) -> (bool, Option<u32>) {
        let hit = self.probe(addr, proto);
        (hit, hit.then_some(region))
    }

    /// Total probe packets this oracle has emitted.
    fn packets_sent(&self) -> u64;
}

/// A burst that ended in a positive response (a breaker-skipped target,
/// `None`, is not a hit).
fn is_hit(burst: Option<Burst>) -> bool {
    burst.is_some_and(|b| b.verdict == Attempt::Hit)
}

impl<T: Transport> ScanOracle for Scanner<T> {
    fn probe(&mut self, addr: Ipv6Addr, proto: Protocol) -> bool {
        is_hit(self.probe_target(addr, proto, None))
    }

    fn probe_tagged(
        &mut self,
        addr: Ipv6Addr,
        proto: Protocol,
        region: u32,
    ) -> (bool, Option<u32>) {
        let burst = self.probe_target(addr, proto, Some(region));
        (is_hit(burst), burst.and_then(|b| b.tag))
    }

    fn packets_sent(&self) -> u64 {
        Scanner::packets_sent(self)
    }
}

/// An oracle over a dead Internet: nothing ever answers. Offline TGAs and
/// unit tests use it to guarantee feedback-free behavior.
#[derive(Debug, Default)]
pub struct NullOracle {
    probes: u64,
}

impl ScanOracle for NullOracle {
    fn probe(&mut self, _addr: Ipv6Addr, _proto: Protocol) -> bool {
        self.probes += 1;
        false
    }

    fn packets_sent(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScannerConfig;
    use crate::retry::RetryPolicy;
    use crate::sim::SimTransport;
    use netmodel::{World, WorldConfig};
    use std::sync::Arc;

    #[test]
    fn null_oracle_is_always_dead() {
        let mut o = NullOracle::default();
        assert!(!o.probe("2600::1".parse().unwrap(), Protocol::Icmp));
        let r = o.probe_tagged("2600::1".parse().unwrap(), Protocol::Icmp, 5);
        assert_eq!(r, (false, None));
        assert_eq!(o.packets_sent(), 2);
    }

    #[test]
    fn the_default_tagged_probe_echoes_the_region_on_hits_only() {
        /// Implements only `probe`: odd last octets answer.
        struct OddHosts;
        impl ScanOracle for OddHosts {
            fn probe(&mut self, addr: Ipv6Addr, _proto: Protocol) -> bool {
                addr.octets()[15] % 2 == 1
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        let mut o = OddHosts;
        let tagged =
            |o: &mut OddHosts, a: &str| o.probe_tagged(a.parse().unwrap(), Protocol::Icmp, 7);
        assert_eq!(tagged(&mut o, "2600::1"), (true, Some(7)));
        assert_eq!(tagged(&mut o, "2600::2"), (false, None));
    }

    #[test]
    fn scanner_oracle_probe_matches_scan() {
        let world = Arc::new(World::build(WorldConfig::tiny(41)));
        let live: Vec<Ipv6Addr> = world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(10)
            .collect();
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(3),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        assert!(live.iter().all(|&a| s.probe(a, Protocol::Icmp)));
    }

    #[test]
    fn tagged_probes_echo_regions_on_hits() {
        let world = Arc::new(World::build(WorldConfig::tiny(41)));
        let live: Vec<(Ipv6Addr, u32)> = world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(5)
            .enumerate()
            .map(|(i, a)| (a, i as u32 + 100))
            .collect();
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(3),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        for (a, region) in live {
            let (hit, tag) = s.probe_tagged(a, Protocol::Icmp, region);
            assert!(hit);
            assert_eq!(tag, Some(region), "region must round-trip");
        }
    }
}
