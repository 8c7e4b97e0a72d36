//! Inputs generated from the workload seed.

use std::net::Ipv6Addr;

use netmodel::World;

/// The scan target list of `scan-oneshot` and `campaign-rounds`: `n / 2`
/// host addresses taken at an even stride through `world.hosts()` (address
/// order), followed by one neighbour of each, `host ^ ((i·φ mod 2³²) + 1)`
/// with φ the 64-bit golden-ratio constant. Half the list can answer, the
/// other half almost never hits a host, and both halves sit in the same
/// routed prefixes.
///
/// The stride spreads the list over every AS of the world. Taking the
/// first `n / 2` hosts instead would draw them from the few ASes with the
/// lowest prefixes, whose hit rates — and with them packets sent, memory
/// and checkpoint size — differ by tens of percent from one world seed to
/// the next.
pub fn target_list(world: &World, n: usize) -> Vec<Ipv6Addr> {
    let want = n / 2;
    let stride = (world.hosts().len() / want.max(1)).max(1);
    let hosts: Vec<Ipv6Addr> = world
        .hosts()
        .iter()
        .map(|(addr, _)| addr)
        .step_by(stride)
        .take(want)
        .collect();
    let neighbours = hosts.iter().enumerate().map(|(i, &host)| {
        let flip = ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xffff_ffff) + 1;
        Ipv6Addr::from(u128::from(host) ^ u128::from(flip))
    });
    let mut targets = hosts.clone();
    targets.extend(neighbours);
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::WorldConfig;

    #[test]
    fn target_list_is_a_function_of_the_seed() {
        let list = |seed| target_list(&World::build(WorldConfig::tiny(seed)), 2_000);
        let a = list(5);
        assert_eq!(a, list(5), "same seed, same inputs");
        assert_ne!(a, list(6), "another seed, another world");
        assert_eq!(a.len(), 2_000);
    }

    #[test]
    fn first_half_is_hosts_second_half_their_neighbours() {
        let world = World::build(WorldConfig::tiny(5));
        let list = target_list(&world, 1_000);
        let (hosts, neighbours) = list.split_at(500);
        assert!(hosts.iter().all(|&a| world.hosts().get(a).is_some()));
        assert!(hosts.windows(2).all(|w| w[0] < w[1]), "address order");
        let strangers = neighbours
            .iter()
            .filter(|&&a| world.hosts().get(a).is_none())
            .count();
        assert!(
            strangers >= 490,
            "{strangers} of 500 neighbours are not hosts"
        );
        for (i, (&h, &n)) in hosts.iter().zip(neighbours).enumerate() {
            let flip = u128::from(h) ^ u128::from(n);
            assert!(
                (1..=1 << 32).contains(&flip),
                "target {i}: only the low 33 bits differ"
            );
        }
        // An odd or oversized request degrades gracefully.
        assert_eq!(target_list(&world, 7).len(), 6);
        assert_eq!(
            target_list(&world, 10_000_000).len(),
            world.hosts().len() * 2
        );
    }
}
