//! W-invariance: the parallel generators' candidate streams are
//! **bit-identical at any worker count** (ISSUE 9 / ROADMAP item 3).
//!
//! The two-phase round design (`tga::parallel`) promises that the worker
//! count only changes *when* a region's proposal is computed, never its
//! contents or its place in the stream. These tests pin that promise for
//! 6Scan and DET across workers ∈ {1, 2, 4, 8}, over both a dead oracle
//! and a responsive one (feedback steering + DET tree rebuilds on the
//! discovered hits), checking the addresses *and* every provenance tag.

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::provenance::ProvenanceLog;
use sos_probe::{NullOracle, ScanOracle};
use tga::{build, GenConfig, TgaId};

fn seeds() -> Vec<Ipv6Addr> {
    let mut v = Vec::new();
    for site in 0..4u128 {
        for host in 1..=24u128 {
            v.push(Ipv6Addr::from(
                0x2600_0abc_0001_0000_0000_0000_0000_0000u128 | site << 64 | (host * 7 + 1),
            ));
        }
    }
    v
}

/// One /64 answers — enough signal to steer both bandits and to feed
/// DET's online tree rebuild with fresh hits.
struct OneSubnet(u64);
impl ScanOracle for OneSubnet {
    fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
        self.0 += 1;
        u128::from(addr) >> 64 == 0x2600_0abc_0001_0002u128
    }
    fn packets_sent(&self) -> u64 {
        self.0
    }
}

fn tagged_run(id: TgaId, workers: usize, live: bool) -> (Vec<Ipv6Addr>, Vec<(u32, u32, u16)>) {
    let cfg = GenConfig::new(1100, 0xC0FFEE, Protocol::Icmp).with_workers(workers);
    let mut prov = ProvenanceLog::recording(id.code());
    let out = if live {
        build(id).generate_tagged(&seeds(), &cfg, &mut OneSubnet(0), &mut prov)
    } else {
        build(id).generate_tagged(&seeds(), &cfg, &mut NullOracle::default(), &mut prov)
    };
    let tags: Vec<(u32, u32, u16)> = (0..prov.len())
        .filter_map(|i| prov.get(i))
        .map(|p| (p.region, p.seed_digest, p.round))
        .collect();
    assert_eq!(tags.len(), out.len(), "{id}: one tag per emitted address");
    (out, tags)
}

#[test]
fn six_scan_stream_is_bit_identical_across_worker_counts() {
    for live in [false, true] {
        let base = tagged_run(TgaId::SixScan, 1, live);
        assert_eq!(base.0.len(), 1100);
        for workers in [2, 4, 8] {
            let run = tagged_run(TgaId::SixScan, workers, live);
            assert_eq!(
                run.0, base.0,
                "6Scan candidates, workers={workers} live={live}"
            );
            assert_eq!(
                run.1, base.1,
                "6Scan provenance, workers={workers} live={live}"
            );
        }
    }
}

#[test]
fn det_stream_is_bit_identical_across_worker_counts() {
    for live in [false, true] {
        let base = tagged_run(TgaId::Det, 1, live);
        assert_eq!(base.0.len(), 1100);
        for workers in [2, 4, 8] {
            let run = tagged_run(TgaId::Det, workers, live);
            assert_eq!(
                run.0, base.0,
                "DET candidates, workers={workers} live={live}"
            );
            assert_eq!(
                run.1, base.1,
                "DET provenance, workers={workers} live={live}"
            );
        }
    }
}

/// The oracle sees the exact same probe sequence regardless of worker
/// count — parallelism must not change what gets probed, only when the
/// batches are sampled.
#[test]
fn oracle_traffic_is_worker_invariant() {
    for id in [TgaId::SixScan, TgaId::Det] {
        let mut packets = Vec::new();
        for workers in [1, 2, 8] {
            let cfg = GenConfig::new(900, 42, Protocol::Icmp).with_workers(workers);
            let mut oracle = OneSubnet(0);
            build(id).generate(&seeds(), &cfg, &mut oracle);
            packets.push(oracle.packets_sent());
        }
        assert!(
            packets.windows(2).all(|w| w[0] == w[1]),
            "{id}: probe counts drifted across worker counts: {packets:?}"
        );
    }
}

/// DET's tagged and untagged paths share one code path, and the digest is
/// cached on the arm — a run that exercises online rebuilds (responsive
/// oracle, fresh hits above the rebuild threshold) must emit the same
/// candidates with provenance on and off.
#[test]
fn det_tagged_equals_untagged_across_rebuilds() {
    for workers in [1, 4] {
        let cfg = GenConfig::new(1400, 7, Protocol::Icmp).with_workers(workers);
        let mut oracle = OneSubnet(0);
        let untagged = build(TgaId::Det).generate(&seeds(), &cfg, &mut oracle);
        let mut prov = ProvenanceLog::recording(TgaId::Det.code());
        let mut oracle2 = OneSubnet(0);
        let tagged = build(TgaId::Det).generate_tagged(&seeds(), &cfg, &mut oracle2, &mut prov);
        assert_eq!(tagged, untagged, "workers={workers}");
        assert_eq!(prov.len(), tagged.len());
    }
}
