//! Pins the DNS universe: every domain's AAAA records in rank order.
//!
//! The domain-based seed sources (CT logs, FDNS, the toplists) read the
//! universe in rank order, so a change to how it is built or stored must
//! leave both the order and the records as they are.

use netmodel::{World, WorldConfig};

/// FNV-1a 64 over every domain in rank order: each record's 16 octets,
/// then one `|` byte. Returns the domain count with it.
fn digest(cfg: WorldConfig) -> (usize, u64) {
    let world = World::build(cfg);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for records in world.dns().all() {
        records.iter().flat_map(|a| a.octets()).for_each(&mut eat);
        eat(b'|');
    }
    (world.dns().len(), h)
}

#[test]
fn the_universe_keeps_its_ranked_records() {
    let pins = [
        (
            "tiny(7)",
            WorldConfig::tiny(7),
            1_498,
            0x691f_ce2f_f683_0388,
        ),
        (
            "tiny(8)",
            WorldConfig::tiny(8),
            1_136,
            0xdba2_8f84_6ee9_01c2,
        ),
        (
            "small(7)",
            WorldConfig::small(7),
            35_790,
            0xae37_3196_bf9e_e30d,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, cfg, domains, pin) in pins {
        let (n, d) = digest(cfg);
        if (n, d) != (domains, pin) {
            wrong.push(format!("{name}: {n} domains, digest {d:016x}"));
        }
    }
    assert!(wrong.is_empty(), "observed:\n{}", wrong.join("\n"));
}
