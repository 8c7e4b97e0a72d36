//! The chaos fault matrix: under every deterministic fault schedule, a
//! campaign must be observationally identical to the byte-level wire
//! path — same hits, same counters, same injected-fault totals. A second
//! matrix re-runs the sweep with per-/48 circuit breakers armed, and a dedicated test pins the breaker's
//! economics in a half-blackholed world: ≥30% fewer packets, zero change
//! to live-prefix hits.

mod common;

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{FaultConfig, Protocol, World, WorldConfig};
use sos_probe::{
    AttributionTable, BreakerConfig, Campaign, CampaignResult, RetryPolicy, RunOptions, Scanner,
    ScannerConfig, SimTransport,
};

fn faulty_world(faults: FaultConfig, seed: u64) -> Arc<World> {
    let mut wc = WorldConfig::tiny(seed);
    wc.faults = faults;
    Arc::new(World::build(wc))
}

fn schedules() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("off", FaultConfig::off()),
        ("bursty", FaultConfig::bursty()),
        ("ratelimited", FaultConfig::ratelimited()),
        ("blackholes", FaultConfig::blackholes(0.3, 0.7)),
        ("throttled", FaultConfig::throttled()),
        ("hostile", FaultConfig::hostile()),
    ]
}

fn config(breaker: Option<BreakerConfig>) -> ScannerConfig {
    ScannerConfig {
        retry: RetryPolicy::fixed(2),
        breaker,
        rate_pps: None,
        ..ScannerConfig::default()
    }
}

fn scanner(world: Arc<World>, breaker: Option<BreakerConfig>) -> Scanner<SimTransport> {
    Scanner::new(config(breaker), SimTransport::new(world))
}

/// Live hosts across many prefixes plus guaranteed-dead space, so every
/// fault kind (loss bursts, rate-limit escalation, blackholes, throttle
/// epochs) has targets to chew on.
fn targets(world: &World) -> Vec<Ipv6Addr> {
    let mut out: Vec<Ipv6Addr> = world
        .hosts()
        .iter()
        .map(|(a, _)| a)
        .step_by(3)
        .take(360)
        .collect();
    for i in 0..40u128 {
        out.push(Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    out
}

fn assert_identical(name: &str, wire: &CampaignResult, got: &CampaignResult) {
    assert_eq!(wire.reports.len(), got.reports.len());
    for ((p_wire, r_wire), (p_got, r_got)) in wire.reports.iter().zip(got.reports.iter()) {
        assert_eq!(p_wire, p_got);
        assert_eq!(r_wire, r_got, "schedule {name}: {p_wire:?} diverged");
    }
    assert_eq!(
        wire.iter().collect::<Vec<_>>(),
        got.iter().collect::<Vec<_>>(),
        "schedule {name}: merged view diverged"
    );
}

#[test]
fn every_fault_schedule_matches_the_wire_reference() {
    for (name, faults) in schedules() {
        let w = faulty_world(faults, 0xC4A05);
        let t = targets(&w);
        let (seq, _) = common::wire_campaign(w.clone(), config(None), &t);
        if name != "off" {
            // Throttle epochs perturb via latency, every other schedule
            // via dropped probes — either way the schedule must bite.
            let injected: u64 = seq.reports.iter().map(|(_, r)| r.faults_injected).sum();
            let delayed: u64 = seq.reports.iter().map(|(_, r)| r.throttled_us).sum();
            assert!(
                injected + delayed > 0,
                "schedule {name} must perturb the scan"
            );
        }
        let mut s = scanner(w.clone(), None);
        assert_identical(name, &seq, &common::run_campaign(&mut s, &t));
    }
}

#[test]
fn breaker_equipped_scans_match_the_wire_reference_under_every_schedule() {
    for (name, faults) in schedules() {
        let w = faulty_world(faults, 0xC4A06);
        let t = targets(&w);
        let (seq, _) = common::wire_campaign(w.clone(), config(Some(BreakerConfig::default())), &t);
        let mut s = scanner(w.clone(), Some(BreakerConfig::default()));
        assert_identical(name, &seq, &common::run_campaign(&mut s, &t));
    }
}

/// Attribution is bookkeeping on the side: under every fault schedule a
/// tagged campaign's per-region sums equal each report's top-level
/// counters, and without its tables it reports what the untagged one does.
#[test]
fn attribution_tables_reconcile_under_every_schedule() {
    use sos_probe::provenance::ProvenanceLog;
    for (name, faults) in schedules() {
        let w = faulty_world(faults, 0xC4A07);
        let t = targets(&w);
        let prov = Arc::new(ProvenanceLog::for_targets(&t));
        let mut s = scanner(w.clone(), None);
        let opts = RunOptions {
            provenance: Some(prov),
            ..RunOptions::default()
        };
        let run = Campaign::standard(&mut s)
            .run_with(&t, &opts, None)
            .unwrap();
        for (proto, r) in &run.result.reports {
            let (probes, hits, _) = r.attribution.totals();
            assert_eq!(
                probes, r.probed as u64,
                "schedule {name}: {proto:?} probe sum != probed"
            );
            assert_eq!(
                hits,
                r.hits.len() as u64,
                "schedule {name}: {proto:?} hit sum != hits"
            );
        }
        let table = sos_probe::merged_attribution(&run.result.reports);
        assert!(
            !table.is_empty(),
            "schedule {name}: tagged scan must attribute"
        );
        // Tagging is a pure observer: without their tables, the tagged
        // campaign's reports are the untagged campaign's.
        let mut tagged = run.result.reports;
        for (_, r) in &mut tagged {
            r.attribution = AttributionTable::new();
        }
        let untagged = common::run_campaign(&mut scanner(w.clone(), None), &t);
        assert_eq!(
            tagged, untagged.reports,
            "schedule {name}: tagging changed the scan"
        );
    }
}

/// In a world where half the fault domains are permanently blackholed,
/// arming the breakers must cut the packet budget by at least 30% while
/// leaving every live-prefix hit untouched — the breaker only gives up on
/// prefixes that were never going to answer.
#[test]
fn breakers_slash_packets_in_a_half_blackholed_world() {
    let w = faulty_world(FaultConfig::blackholes(0.5, 1.0), 0xB1AC);
    let plan = w.faults();

    // Live, ICMP-responsive hosts (their prefixes may or may not be
    // blackholed — blackholed ones go silent, which is exactly the
    // pressure the breaker should respond to)...
    let mut t: Vec<Ipv6Addr> = w
        .hosts()
        .iter()
        .filter(|(a, r)| r.responds(Protocol::Icmp) && !w.is_aliased(*a))
        .map(|(a, _)| a)
        .take(300)
        .collect();
    // ...plus dense synthetic target floods inside four known-blackholed
    // /48 fault domains, the shape a scanner meets when a TGA fixates on
    // dark space.
    let mut dark_domains = 0;
    for i in 0..u128::from(u16::MAX) {
        let domain = (0x3fff_u128 << 32) | i;
        if plan.blackhole_candidate(domain) {
            for j in 0..100u128 {
                t.push(Ipv6Addr::from((domain << 80) | j));
            }
            dark_domains += 1;
            if dark_domains == 4 {
                break;
            }
        }
    }
    assert_eq!(dark_domains, 4, "world seed must yield blackholed domains");

    let mut unguarded = scanner(w.clone(), None);
    let without = unguarded.scan(t.iter().copied(), Protocol::Icmp);
    let mut guarded = scanner(w.clone(), Some(BreakerConfig::default()));
    let with = guarded.scan(t.iter().copied(), Protocol::Icmp);

    assert_eq!(
        without.hits, with.hits,
        "breakers must not cost a single live-prefix hit"
    );
    assert!(with.skipped > 0, "open breakers must skip targets");
    assert!(with.breaker_opened > 0, "dark domains must trip breakers");
    assert!(
        (with.packets_sent as f64) <= 0.7 * without.packets_sent as f64,
        "breakers saved too little: {} vs {} packets",
        with.packets_sent,
        without.packets_sent
    );
}
