//! The wire-reference suite. The engine sends every probe through
//! `Transport::probe_burst`, and `SimTransport` answers bursts straight
//! from its oracle; these tests hold that production path — scans,
//! campaign rounds, and the `ScanOracle` feedback probes — to the
//! byte-level reference, where every probe is a real
//! packet that the simulator parses and answers in bytes
//! (`Scanner<WireOnly<SimTransport>>`, see `common::wire_campaign`).

mod common;

use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{FaultConfig, PortSet, Protocol, World, WorldConfig, PROTOCOLS};
use sos_probe::{
    BreakerConfig, Burst, CampaignResult, RetryPolicy, ScanOracle, Scanner, ScannerConfig,
    SimTransport, Transport, WireOnly,
};

fn world(faults: FaultConfig) -> Arc<World> {
    let mut wc = WorldConfig::tiny(0xF00D);
    wc.faults = faults;
    Arc::new(World::build(wc))
}

fn config(breaker: bool) -> ScannerConfig {
    ScannerConfig {
        retry: RetryPolicy::fixed(2),
        breaker: breaker.then(BreakerConfig::default),
        rate_pps: None,
        ..ScannerConfig::default()
    }
}

fn scanner(world: Arc<World>, breaker: bool) -> Scanner<SimTransport> {
    Scanner::new(config(breaker), SimTransport::new(world))
}

/// A target mix exercising every scan path: live hosts, routed holes
/// (unreachables), unrouted space (timeouts), and duplicates.
fn targets(world: &World) -> Vec<Ipv6Addr> {
    let mut out: Vec<Ipv6Addr> = world
        .hosts()
        .iter()
        .map(|(a, _)| a)
        .step_by(5)
        .take(220)
        .collect();
    if let Some((live, _)) = world.hosts().iter().next() {
        let net = u128::from(live) & !0xffff_ffff_ffff_ffffu128;
        for i in 0..60u128 {
            let a = Ipv6Addr::from(net | (0xb000 + i));
            if world.hosts().get(a).is_none() {
                out.push(a);
            }
        }
    }
    for i in 0..40u128 {
        out.push(Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    let dups: Vec<Ipv6Addr> = out.iter().copied().step_by(9).collect();
    out.extend(dups);
    out
}

/// The merged per-address `PortSet` view must be exactly the union of the
/// per-protocol `ScanReport.hits` — no address invented, none dropped,
/// no protocol bit set without a corresponding hit.
fn assert_portset_union(result: &CampaignResult) {
    let mut union: HashMap<u128, PortSet> = HashMap::new();
    for (proto, report) in &result.reports {
        for &hit in &report.hits {
            union
                .entry(u128::from(hit))
                .or_insert(PortSet::EMPTY)
                .insert(*proto);
        }
    }
    let merged: Vec<(Ipv6Addr, PortSet)> = result.iter().collect();
    assert_eq!(
        merged.len(),
        union.len(),
        "merged view has exactly the union's addresses"
    );
    for (addr, ports) in merged {
        assert_eq!(
            union.get(&u128::from(addr)).copied(),
            Some(ports),
            "per-address ports must equal the union of per-protocol hits at {addr}"
        );
    }
    // and per protocol, the responsive_on count agrees with the report
    for (proto, report) in &result.reports {
        assert_eq!(result.responsive_on(*proto), report.hits.len());
    }
}

#[test]
fn campaign_merge_is_the_union_of_per_protocol_hits() {
    let world = world(FaultConfig::off());
    let t = targets(&world);

    let (wire, _) = common::wire_campaign(world.clone(), config(false), &t);
    assert_portset_union(&wire);

    let mut s = scanner(world, false);
    assert_portset_union(&common::run_campaign(&mut s, &t));
}

/// Probe every target again on every protocol, on the scanner's own
/// transport: what a scan left behind in per-flow attempt counters, fault
/// clocks and breakers decides these bursts (a flow's loss rolls depend on
/// how many attempts it has seen, which takes a few hundred live flows to
/// show at 1% loss).
fn follow_up<T: Transport>(s: &mut Scanner<T>, t: &[Ipv6Addr]) -> Vec<Option<Burst>> {
    let mut bursts = Vec::new();
    for proto in PROTOCOLS {
        bursts.extend(t.iter().map(|&a| s.probe_target(a, proto, None)));
    }
    bursts
}

/// The fault layer's density clock, as the scanner's transport carries it.
#[expect(
    clippy::expect_used,
    reason = "a test helper: `allow-*-in-tests` sees only `#[test]` bodies"
)]
fn fault_rows<T: Transport>(s: &Scanner<T>) -> Vec<(u128, u8, u32)> {
    s.transport()
        .carried()
        .expect("the simulator carries state")
        .fault_rows()
}

/// 4 protocols × faults {off, hostile} × breaker {off, on}: per-protocol
/// `scan` calls and a campaign's `run_with` round both report exactly what
/// the wire reference reports — every report bit for bit (hits in input
/// order, identical packet/dedup/blocklist/outcome/fault/breaker
/// counters), the same merged responsive map, the same packet total, and
/// the same engine counters. Each leaves the scanner where the reference
/// is: the same fault clocks, and the same bursts from a follow-up probe
/// of flows the scan already advanced.
#[test]
fn scans_and_campaigns_match_the_wire_reference() {
    for (faults_name, faults) in [
        ("off", FaultConfig::off()),
        ("hostile", FaultConfig::hostile()),
    ] {
        let world = world(faults);
        let t = targets(&world);
        for breaker in [false, true] {
            let at = format!("faults={faults_name} breaker={breaker}");
            let (wire, mut wire_scanner) =
                common::wire_campaign(world.clone(), config(breaker), &t);
            let wire_counters = wire_scanner.metrics().counters();
            let wire_faults = fault_rows(&wire_scanner);
            if faults_name == "hostile" {
                let perturbed: u64 = wire
                    .reports
                    .iter()
                    .map(|(_, r)| r.faults_injected + r.throttled_us)
                    .sum();
                assert!(perturbed > 0, "the hostile schedule must bite");
            }

            let mut s = scanner(world.clone(), breaker);
            for (proto, want) in &wire.reports {
                let got = s.scan(t.iter().copied(), *proto);
                assert_eq!(&got, want, "scan {proto:?} at {at}");
            }
            assert_eq!(
                s.packets_sent(),
                wire_scanner.packets_sent(),
                "scan at {at}"
            );
            assert_eq!(s.metrics().counters(), wire_counters, "scan at {at}");
            assert_eq!(fault_rows(&s), wire_faults, "scan at {at}");
            let scanned = follow_up(&mut s, &t);

            let mut s = scanner(world.clone(), breaker);
            let campaign = common::run_campaign(&mut s, &t);
            assert_eq!(campaign.reports, wire.reports, "run_with at {at}");
            assert_eq!(
                campaign.iter().collect::<Vec<_>>(),
                wire.iter().collect::<Vec<_>>(),
                "responsive map at {at}"
            );
            assert_eq!(
                s.packets_sent(),
                wire_scanner.packets_sent(),
                "run_with at {at}"
            );
            // A campaign prepares its target list once; the reference's
            // four scans each prepared it again.
            let mut counters = s.metrics().counters();
            for name in ["probe.drop.duplicate", "probe.drop.blocklist"] {
                *counters.get_mut(name).expect("registered counter") *= PROTOCOLS.len() as u64;
            }
            assert_eq!(counters, wire_counters, "run_with at {at}");
            assert_eq!(fault_rows(&s), wire_faults, "run_with at {at}");
            let campaigned = follow_up(&mut s, &t);

            let want = follow_up(&mut wire_scanner, &t);
            assert!(
                want.iter().flatten().any(|b| b.used > 0),
                "the follow-up must probe"
            );
            assert_eq!(scanned, want, "follow-up bursts after scan, {at}");
            assert_eq!(campaigned, want, "follow-up bursts after run_with, {at}");
        }
    }
}

/// Feedback probes take the same per-target policy, so the oracle a TGA
/// or the online dealiaser steers by must answer identically over the
/// burst override and over packet bytes — including the region a tagged
/// hit echoes back. `u32::MAX` is the ICMP payload's "no region" marker
/// and so comes back untagged there (and verbatim on TCP and DNS); an
/// untagged probe never reports a region, not even a SYN-ACK's `ack - 1`.
#[test]
fn oracle_probes_match_the_wire_reference() {
    for faults in [FaultConfig::off(), FaultConfig::hostile()] {
        let world = world(faults);
        let addrs: Vec<Ipv6Addr> = {
            let mut seen = std::collections::HashSet::new();
            targets(&world)
                .into_iter()
                .filter(|a| seen.insert(*a))
                .collect()
        };
        let mut wire = Scanner::new(config(true), WireOnly(SimTransport::new(world.clone())));
        let mut fast = scanner(world.clone(), true);
        for proto in PROTOCOLS {
            let mut answered = false;
            for &a in &addrs {
                let hit = fast.probe(a, proto);
                assert_eq!(hit, wire.probe(a, proto), "probe {a} {proto:?}");
                answered |= hit;
            }
            assert!(answered, "{proto:?}: some target must answer");

            for region in [0, 77, u32::MAX] {
                let echoed = if proto == Protocol::Icmp && region == u32::MAX {
                    None
                } else {
                    Some(region)
                };
                for &a in &addrs {
                    let (hit, tag) = fast.probe_tagged(a, proto, region);
                    assert_eq!(
                        (hit, tag),
                        wire.probe_tagged(a, proto, region),
                        "probe_tagged {a} {proto:?} {region}"
                    );
                    assert_eq!(
                        tag,
                        if hit { echoed } else { None },
                        "{proto:?} tag {region}"
                    );
                }
            }

            for &a in &addrs {
                let burst = fast.probe_target(a, proto, None);
                assert_eq!(
                    burst,
                    wire.probe_target(a, proto, None),
                    "untagged {a} {proto:?}"
                );
                assert_eq!(
                    burst.and_then(|b| b.tag),
                    None,
                    "untagged {proto:?} probes echo nothing"
                );
            }
        }
        assert_eq!(
            ScanOracle::packets_sent(&fast),
            ScanOracle::packets_sent(&wire)
        );
        assert_eq!(fast.metrics().counters(), wire.metrics().counters());
        for name in [
            "probe.hits",
            "probe.rsts",
            "probe.unreachables",
            "probe.silent",
        ] {
            assert_eq!(
                fast.metrics().counter(name),
                0,
                "oracle probes stay out of {name}"
            );
        }
        assert!(fast.metrics().counter("probe.packets_sent") > 0);
    }
}

#[test]
fn every_hit_is_ground_truth_responsive() {
    let world = world(FaultConfig::off());
    let t = targets(&world);
    let mut s = scanner(world.clone(), false);
    let campaign = common::run_campaign(&mut s, &t);
    for proto in PROTOCOLS {
        let (_, report) = &campaign.reports[proto.index()];
        for &hit in &report.hits {
            assert!(world.truth_responds(hit, proto), "{hit} on {proto:?}");
        }
    }
}
