//! The chaos fault matrix: every deterministic fault schedule, crossed
//! with every shard count, must leave the scan pipeline observationally
//! identical to the sequential wire path — same hits, same counters, same
//! injected-fault totals. A second matrix re-runs the sweep with per-/48
//! circuit breakers armed, and a dedicated test pins the breaker's
//! economics in a half-blackholed world: ≥30% fewer packets, zero change
//! to live-prefix hits.

mod common;

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{FaultConfig, Protocol, World, WorldConfig};
use sos_probe::{
    BreakerConfig, Campaign, CampaignResult, RetryPolicy, RunOptions, Scanner, ScannerConfig,
    SimTransport,
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

fn assert_identical(name: &str, shards: usize, seq: &CampaignResult, par: &CampaignResult) {
    assert_eq!(seq.reports.len(), par.reports.len());
    for ((p_seq, r_seq), (p_par, r_par)) in seq.reports.iter().zip(par.reports.iter()) {
        assert_eq!(p_seq, p_par);
        assert_eq!(
            r_seq, r_par,
            "schedule {name}: {p_seq:?} diverged at {shards} shards"
        );
    }
    assert_eq!(
        seq.iter().collect::<Vec<_>>(),
        par.iter().collect::<Vec<_>>(),
        "schedule {name}: merged view diverged at {shards} shards"
    );
}

#[test]
fn every_fault_schedule_is_shard_invariant() {
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
        for shards in [2, 8] {
            let mut s = scanner(w.clone(), None);
            let par = common::run_sharded(&mut s, &t, shards);
            assert_identical(name, shards, &seq, &par);
        }
    }
}

#[test]
fn breaker_equipped_scans_are_shard_invariant_under_every_schedule() {
    for (name, faults) in schedules() {
        let w = faulty_world(faults, 0xC4A06);
        let t = targets(&w);
        let (seq, _) = common::wire_campaign(w.clone(), config(Some(BreakerConfig::default())), &t);
        for shards in [2, 8] {
            let mut s = scanner(w.clone(), Some(BreakerConfig::default()));
            let par = common::run_sharded(&mut s, &t, shards);
            assert_identical(name, shards, &seq, &par);
        }
    }
}

/// Attribution accounting must be exactly as shard-invariant as the scan
/// itself: the per-region table a provenance-tagged campaign accumulates
/// is bit-identical across 1, 4, and 8 shards under every fault schedule,
/// and its per-region sums always equal the report's top-level counters.
#[test]
fn attribution_tables_are_shard_invariant_under_every_schedule() {
    use sos_probe::provenance::ProvenanceLog;
    for (name, faults) in schedules() {
        let w = faulty_world(faults, 0xC4A07);
        let t = targets(&w);
        let prov = Arc::new(ProvenanceLog::for_targets(&t));
        let mut baseline = None;
        for shards in [1usize, 4, 8] {
            let mut s = scanner(w.clone(), None);
            let opts = RunOptions {
                shards,
                provenance: Some(prov.clone()),
                ..RunOptions::default()
            };
            let run = Campaign::standard(&mut s)
                .run_with(&t, &opts, None)
                .unwrap();
            for (proto, r) in &run.result.reports {
                let (probes, hits, _) = r.attribution.totals();
                assert_eq!(
                    probes, r.probed as u64,
                    "schedule {name}/{shards}: {proto:?} probe sum != probed"
                );
                assert_eq!(
                    hits,
                    r.hits.len() as u64,
                    "schedule {name}/{shards}: {proto:?} hit sum != hits"
                );
            }
            let table = sos_probe::merged_attribution(&run.result.reports);
            assert!(
                !table.is_empty(),
                "schedule {name}: tagged scan must attribute"
            );
            match &baseline {
                None => baseline = Some(table),
                Some(b) => assert_eq!(
                    b, &table,
                    "schedule {name}: attribution diverged at {shards} shards"
                ),
            }
        }
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
