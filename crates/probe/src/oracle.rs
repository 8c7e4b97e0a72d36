//! The feedback interface for online algorithms.
//!
//! Online TGAs (6Hit, 6Scan, DET, 6Sense) and the online dealiaser steer by
//! scan results in real time. [`ScanOracle`] is the narrow interface they
//! consume: "probe these, tell me who answered." The production
//! implementation is [`Scanner`] (the engine's per-target probe policy,
//! §4.1 classification); [`NullOracle`] is a dead-Internet stand-in for
//! offline testing.

use std::net::Ipv6Addr;

use netmodel::Protocol;

use crate::engine::Scanner;
use crate::transport::{Attempt, Burst, Transport};

/// Probe-and-report feedback used by online TGAs and dealiasers.
///
/// # Length contract
///
/// The batch methods ([`Self::probe_batch`], [`Self::probe_tagged`]) must
/// return **exactly one element per input target**, in input order.
/// Callers (the online TGAs' reward loops) enforce this with a debug
/// assertion; in release builds a malformed implementation is tolerated
/// deterministically — missing entries are treated as unanswered probes
/// and extra entries are ignored — but it is a bug in the oracle, never
/// something to rely on.
pub trait ScanOracle {
    /// Probe a single address; true iff it is a hit (§4.1 rules).
    fn probe(&mut self, addr: Ipv6Addr, proto: Protocol) -> bool;

    /// Probe a batch; element `i` reports `addrs[i]`. Implementations
    /// must return exactly `addrs.len()` elements (see the trait-level
    /// length contract).
    fn probe_batch(&mut self, addrs: &[Ipv6Addr], proto: Protocol) -> Vec<bool> {
        addrs.iter().map(|&a| self.probe(a, proto)).collect()
    }

    /// Probe with 6Scan-style region tags. Returns `(hit, echoed_region)` —
    /// the region comes back *in the response packet*, not from local
    /// bookkeeping. Implementations must return exactly `targets.len()`
    /// elements (see the trait-level length contract).
    fn probe_tagged(
        &mut self,
        targets: &[(Ipv6Addr, u32)],
        proto: Protocol,
    ) -> Vec<(bool, Option<u32>)>;

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
        targets: &[(Ipv6Addr, u32)],
        proto: Protocol,
    ) -> Vec<(bool, Option<u32>)> {
        targets
            .iter()
            .map(|&(addr, region)| {
                let burst = self.probe_target(addr, proto, Some(region));
                (is_hit(burst), burst.and_then(|b| b.tag))
            })
            .collect()
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

    fn probe_tagged(
        &mut self,
        targets: &[(Ipv6Addr, u32)],
        _proto: Protocol,
    ) -> Vec<(bool, Option<u32>)> {
        self.probes += targets.len() as u64;
        targets.iter().map(|_| (false, None)).collect()
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
        let r = o.probe_tagged(&[("2600::1".parse().unwrap(), 5)], Protocol::Icmp);
        assert_eq!(r, vec![(false, None)]);
        assert_eq!(o.packets_sent(), 2);
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
        let results = s.probe_batch(&live, Protocol::Icmp);
        assert!(results.iter().all(|&b| b));
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
        for (i, (hit, tag)) in s
            .probe_tagged(&live, Protocol::Icmp)
            .into_iter()
            .enumerate()
        {
            assert!(hit);
            assert_eq!(tag, Some(i as u32 + 100), "region must round-trip");
        }
    }
}
