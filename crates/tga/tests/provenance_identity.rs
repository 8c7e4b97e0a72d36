//! Provenance must be a pure observer: tagging a generation run can
//! never change the candidate stream, every emitted candidate gets
//! exactly one tag, and the tags reflect real generator structure
//! (distinct regions, seed digests) rather than filler values.

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::provenance::{ProvenanceLog, REGION_FILL, SOURCE_TARGETS};
use sos_probe::{NullOracle, ScanOracle};
use tga::{build, GenConfig, TgaId};

fn seeds() -> Vec<Ipv6Addr> {
    // three /48 sites with low-byte hosts and one sparser site, so the
    // structural generators all build multiple regions/clusters/arms
    let mut v = Vec::new();
    for site in 1..=3u128 {
        for host in 1..=15u128 {
            v.push(Ipv6Addr::from(
                0x2600_00aa_0000_0000_0000_0000_0000_0000u128 | site << 80 | host,
            ));
        }
    }
    for host in 1..=4u128 {
        v.push(Ipv6Addr::from(
            0x2a00_0bbb_0000_0000_0000_0000_0000_0000u128 | (host << 16) | host,
        ));
    }
    v
}

/// An oracle that answers for one /48 only, deterministically — gives
/// online generators real feedback without nondeterminism.
struct OneSite;
impl ScanOracle for OneSite {
    fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
        u128::from(addr) >> 80 == 0x2600_00aa_0001u128
    }
    fn packets_sent(&self) -> u64 {
        0
    }
}

#[test]
fn provenance_identity() {
    // The contract named in the `TargetGenerator` docs: candidate streams
    // are bit-identical whether or not a recording log is attached.
    let seeds = seeds();
    let cfg = GenConfig::new(900, 17, Protocol::Icmp);
    for id in TgaId::ALL {
        let untagged = build(id).generate(&seeds, &cfg, &mut OneSite);
        let mut prov = ProvenanceLog::recording(id.code());
        let tagged = build(id).generate_tagged(&seeds, &cfg, &mut OneSite, &mut prov);
        assert_eq!(untagged, tagged, "{id}: tagging changed the stream");
    }
}

#[test]
fn every_candidate_gets_exactly_one_tag() {
    let seeds = seeds();
    let cfg = GenConfig::new(700, 3, Protocol::Icmp);
    for id in TgaId::ALL {
        let mut prov = ProvenanceLog::recording(id.code());
        let out = build(id).generate_tagged(&seeds, &cfg, &mut NullOracle::default(), &mut prov);
        assert_eq!(
            prov.len(),
            out.len(),
            "{id}: {} tags for {} candidates",
            prov.len(),
            out.len()
        );
        assert_eq!(prov.source(), id.code());
    }
}

#[test]
fn tags_reflect_real_generator_structure() {
    // Multi-site seeds must produce more than one distinct region id and
    // real (nonzero) seed digests for every structural generator; only
    // budget-filler mutations may carry the REGION_FILL marker.
    let seeds = seeds();
    let cfg = GenConfig::new(800, 9, Protocol::Icmp);
    for id in TgaId::ALL {
        let mut prov = ProvenanceLog::recording(id.code());
        let out = build(id).generate_tagged(&seeds, &cfg, &mut NullOracle::default(), &mut prov);
        let structural: Vec<_> = (0..out.len())
            .filter_map(|i| prov.get(i))
            .filter(|p| p.region != REGION_FILL)
            .collect();
        assert!(
            !structural.is_empty(),
            "{id}: no structurally-attributed candidates at all"
        );
        assert!(
            structural.iter().all(|p| p.seed_digest != 0),
            "{id}: structural tags must carry a member digest"
        );
        if id != TgaId::EntropyIp {
            // EIP's one global model is the documented exception.
            let mut regions: Vec<u32> = structural.iter().map(|p| p.region).collect();
            regions.sort_unstable();
            regions.dedup();
            assert!(
                regions.len() > 1,
                "{id}: multi-site seeds must span multiple regions"
            );
        }
    }
}

#[test]
fn disabled_log_records_nothing() {
    let seeds = seeds();
    let cfg = GenConfig::new(200, 5, Protocol::Icmp);
    for id in TgaId::ALL {
        let mut prov = ProvenanceLog::disabled();
        let out = build(id).generate_tagged(&seeds, &cfg, &mut NullOracle::default(), &mut prov);
        assert_eq!(out.len(), 200);
        assert!(prov.is_empty(), "{id}: disabled log must stay empty");
    }
}

#[test]
fn for_targets_tags_whole_prepared_lists() {
    // The campaign path (no TGA in the loop) tags by top-/32 region.
    let targets: Vec<Ipv6Addr> = seeds();
    let prov = ProvenanceLog::for_targets(&targets);
    assert_eq!(prov.len(), targets.len());
    assert_eq!(prov.source(), SOURCE_TARGETS);
    let p = prov.get(0).unwrap();
    assert_eq!(p.region, (u128::from(targets[0]) >> 96) as u32);
}
