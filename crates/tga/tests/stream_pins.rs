//! Pinned candidate streams: the FNV-1a of every generator's output
//! addresses *and* provenance tag triples, on one seed set, under a dead
//! and a deterministic live oracle. A refactor of the emit path must leave
//! every constant untouched; a PR that moves one names the sanctioned
//! re-pin in CHANGES.md (on mismatch the test prints the whole table).
//!
//! Recorded at the parent of PR 16 (before `tga::sink` existed), at a
//! budget where 6Hit emitted exactly `BUDGET` under both oracles.

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_obs::manifest::Fnv1a64;
use sos_probe::provenance::ProvenanceLog;
use sos_probe::{NullOracle, ScanOracle};
use tga::{build, GenConfig, TgaId};

const BUDGET: usize = 6_000;

/// 64 /64s (8 /48 sites × 8 subnets) × 40 seeds, hosts spread over three
/// nybbles.
fn seeds() -> Vec<Ipv6Addr> {
    let mut v = Vec::new();
    for subnet in 0..64u128 {
        for host in 1..=40u128 {
            v.push(Ipv6Addr::from(
                0x2600_0abc_0000_0000_0000_0000_0000_0000u128
                    | (subnet / 8) << 80
                    | (subnet % 8) << 64
                    | (host * 7 + 1),
            ));
        }
    }
    v
}

/// Deterministic feedback with both shapes the online generators react
/// to: one /48 site answers everywhere (alias-like — trips 6Sense's
/// integrated dealiaser), and one /64 in every other site answers on a
/// dense low range (real hosts — feeds the DET / 6Hit tree rebuilds).
struct Live(u64);
impl ScanOracle for Live {
    fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
        self.0 += 1;
        let bits = u128::from(addr);
        (bits >> 80) & 0xf == 2 || ((bits >> 64) & 7 == 5 && bits as u64 <= 0x200)
    }
    fn packets_sent(&self) -> u64 {
        self.0
    }
}

/// `(stream digest, tag digest)` of one tagged run.
fn run(id: TgaId, live: bool, workers: usize) -> (u64, u64) {
    let cfg = GenConfig::new(BUDGET, 0x5EED, Protocol::Icmp).with_workers(workers);
    let mut prov = ProvenanceLog::recording(id.code());
    let out = if live {
        build(id).generate_tagged(&seeds(), &cfg, &mut Live(0), &mut prov)
    } else {
        build(id).generate_tagged(&seeds(), &cfg, &mut NullOracle::default(), &mut prov)
    };
    assert_eq!(out.len(), BUDGET, "{id} live={live}: budget");
    assert_eq!(
        prov.len(),
        out.len(),
        "{id} live={live}: one tag per address"
    );
    let mut stream = Fnv1a64::default();
    let mut tags = Fnv1a64::default();
    for (i, a) in out.iter().enumerate() {
        stream.update(&a.octets());
        let p = prov.get_or_fill(i);
        tags.update(&p.region.to_le_bytes());
        tags.update(&p.seed_digest.to_le_bytes());
        tags.update(&p.round.to_le_bytes());
    }
    (stream.finish(), tags.finish())
}

/// `(id, live oracle, stream digest, tag digest)`.
const PINS: [(TgaId, bool, u64, u64); 16] = [
    (
        TgaId::SixSense,
        false,
        0x363a49d20b3a0a32,
        0x4a1deb09d58ee4a5,
    ),
    (
        TgaId::SixSense,
        true,
        0xc9a5497f7006ca2a,
        0x425fff671538013f,
    ),
    (TgaId::Det, false, 0x7247ee6339943111, 0x98561d04586ed7a5),
    (TgaId::Det, true, 0x29486db0be160ac3, 0x386c9553b5faf2a5),
    (
        TgaId::SixTree,
        false,
        0x6645e3d1c88d2fe9,
        0x87b56a471272b9ff,
    ),
    (TgaId::SixTree, true, 0x6645e3d1c88d2fe9, 0x87b56a471272b9ff),
    (
        TgaId::SixScan,
        false,
        0x1ae62ee462d72868,
        0x96805253cca73c25,
    ),
    (TgaId::SixScan, true, 0x741c1f1ac11e23ed, 0xe7729fa7f89f3d25),
    (
        TgaId::SixGraph,
        false,
        0x4c406e07f6f21b7e,
        0xe9a40d198fbe3b81,
    ),
    (
        TgaId::SixGraph,
        true,
        0x4c406e07f6f21b7e,
        0xe9a40d198fbe3b81,
    ),
    (TgaId::SixGen, false, 0x74caf6c1be63f5b5, 0x931eb3c92214a385),
    (TgaId::SixGen, true, 0x74caf6c1be63f5b5, 0x931eb3c92214a385),
    (TgaId::SixHit, false, 0x9c12a10a11400684, 0x91ee1138d879fc51),
    (TgaId::SixHit, true, 0xf8e5131d7ecaa736, 0x62e282094ea8eab4),
    (
        TgaId::EntropyIp,
        false,
        0x7ffaf1ebf2bcaf6d,
        0xa869f99443d0895b,
    ),
    (
        TgaId::EntropyIp,
        true,
        0x7ffaf1ebf2bcaf6d,
        0xa869f99443d0895b,
    ),
];

#[test]
fn candidate_streams_and_tags_are_pinned() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (id, live, stream, tags) in PINS {
        let got = run(id, live, 1);
        table.push_str(&format!(
            "    (TgaId::{id:?}, {live}, {:#018x}, {:#018x}),\n",
            got.0, got.1
        ));
        if got != (stream, tags) {
            moved.push(format!("{id} live={live}"));
        }
    }
    assert!(
        moved.is_empty(),
        "streams moved: {moved:?}; observed table:\n{table}"
    );
}
