//! Router-level topology for traceroute-based seed collection.
//!
//! Scamper (the CAIDA IPv6 Topology dataset) and RIPE Atlas contribute
//! *router interface* addresses observed on forwarding paths (§5.1) —
//! sources with enormous AS breadth but low direct-probe responsiveness
//! (routers emit ICMP Time Exceeded on path but often drop probes to
//! themselves). The topology here reproduces that: every AS exposes router
//! interfaces; a deterministic path function yields the interfaces a
//! traceroute from a vantage AS toward a destination would reveal.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use crate::asreg::Asn;
use crate::mix::{mix2, mix3};

/// The router graph of the simulated Internet.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    seed: u64,
    routers: HashMap<Asn, Vec<Ipv6Addr>>,
    transit: Vec<Asn>,
    vantages: Vec<Asn>,
}

impl Topology {
    /// Assemble a topology. `routers` maps each AS to its interface
    /// addresses; `transit` lists backbone ASes that appear mid-path;
    /// `vantages` are the measurement-platform ASes.
    pub fn new(
        seed: u64,
        routers: HashMap<Asn, Vec<Ipv6Addr>>,
        transit: Vec<Asn>,
        vantages: Vec<Asn>,
    ) -> Self {
        Topology {
            seed,
            routers,
            transit,
            vantages,
        }
    }

    /// Router interfaces of one AS.
    pub fn routers_of(&self, asn: Asn) -> &[Ipv6Addr] {
        self.routers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Vantage-point ASes (traceroute sources).
    pub fn vantages(&self) -> &[Asn] {
        &self.vantages
    }

    /// Transit ASes.
    pub fn transit(&self) -> &[Asn] {
        &self.transit
    }

    /// Deterministic pick of `n` elements of `pool` keyed by `key`.
    fn pick<'a>(
        &self,
        pool: &'a [Ipv6Addr],
        key: u64,
        n: usize,
    ) -> impl Iterator<Item = Ipv6Addr> + 'a {
        let len = pool.len();
        let seed = self.seed;
        (0..n.min(len)).map(move |i| pool[(mix3(seed, key, i as u64) as usize) % len])
    }

    /// The router interfaces a traceroute from `from` toward `dst` (inside
    /// `dst_asn`) would reveal, in path order: source-AS egress, transit
    /// hops, destination-AS ingress. Deterministic per (from, dst).
    pub fn trace(&self, from: Asn, dst: Ipv6Addr, dst_asn: Option<Asn>) -> Vec<Ipv6Addr> {
        let key = mix3(
            u64::from(from.0),
            u128::from(dst) as u64,
            (u128::from(dst) >> 64) as u64,
        );
        let mut path = Vec::with_capacity(8);

        // 1-2 egress interfaces in the vantage AS
        if let Some(src_routers) = self.routers.get(&from) {
            let n = 1 + (key as usize & 1);
            path.extend(self.pick(src_routers, mix2(key, 1), n));
        }

        // 1-2 transit ASes, 1-2 interfaces each
        if !self.transit.is_empty() {
            let n_transit = 1 + ((key >> 8) as usize & 1);
            for t in 0..n_transit {
                let tk = mix2(key, 100 + t as u64);
                let tas = self.transit[(tk as usize) % self.transit.len()];
                if let Some(rs) = self.routers.get(&tas) {
                    let n = 1 + ((tk >> 16) as usize & 1);
                    path.extend(self.pick(rs, mix2(tk, 7), n));
                }
            }
        }

        // 1-3 ingress interfaces in the destination AS
        if let Some(dst_asn) = dst_asn {
            if let Some(rs) = self.routers.get(&dst_asn) {
                let n = 1 + ((key >> 24) as usize % 3);
                path.extend(self.pick(rs, mix2(key, 2), n));
            }
        }

        path.dedup();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample() -> Topology {
        let mut routers = HashMap::new();
        routers.insert(Asn(1), vec![a("2600:1::1"), a("2600:1::2")]);
        routers.insert(Asn(2), vec![a("2a00:2::1"), a("2a00:2::2"), a("2a00:2::3")]);
        routers.insert(Asn(3), vec![a("2400:3::1")]);
        Topology::new(42, routers, vec![Asn(2)], vec![Asn(1)])
    }

    #[test]
    fn trace_is_deterministic() {
        let t = sample();
        let p1 = t.trace(Asn(1), a("2400:3::99"), Some(Asn(3)));
        let p2 = t.trace(Asn(1), a("2400:3::99"), Some(Asn(3)));
        assert_eq!(p1, p2);
        assert!(!p1.is_empty());
    }

    #[test]
    fn trace_reveals_destination_as_routers() {
        let t = sample();
        let p = t.trace(Asn(1), a("2400:3::99"), Some(Asn(3)));
        assert!(p.contains(&a("2400:3::1")), "path {p:?} should touch AS3");
    }

    #[test]
    fn trace_touches_transit() {
        let t = sample();
        let p = t.trace(Asn(1), a("2400:3::99"), Some(Asn(3)));
        assert!(
            p.iter().any(|x| t.routers_of(Asn(2)).contains(x)),
            "path {p:?} should cross transit AS2"
        );
    }

    #[test]
    fn different_destinations_vary_paths() {
        let t = sample();
        let paths: std::collections::HashSet<Vec<Ipv6Addr>> = (0..32u16)
            .map(|i| {
                t.trace(
                    Asn(1),
                    Ipv6Addr::from([0x2400, 3, 0, 0, 0, 0, 0, i]),
                    Some(Asn(3)),
                )
            })
            .collect();
        assert!(paths.len() > 1, "paths should differ across destinations");
    }

    #[test]
    fn unknown_as_yields_partial_path() {
        let t = sample();
        let p = t.trace(Asn(99), a("2400:3::99"), None);
        // no source or destination routers, but transit still appears
        assert!(p.iter().all(|x| t.routers_of(Asn(2)).contains(x)));
    }

    #[test]
    fn interface_count_sums() {
        let t = sample();
        let per_as: Vec<usize> = (1..=4).map(|n| t.routers_of(Asn(n)).len()).collect();
        assert_eq!(per_as, [2, 3, 1, 0], "an AS with no routers has none");
        assert_eq!(per_as.iter().sum::<usize>(), 6);
    }
}
