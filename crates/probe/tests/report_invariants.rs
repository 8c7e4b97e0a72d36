//! Cross-checks between `ScanReport`, the per-scanner metrics registry,
//! and the rate limiter's own stall accounting. A report that doesn't
//! reconcile with the engine counters means one of them is lying — these
//! tests pin the invariants the manifest relies on.

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{Protocol, World, WorldConfig, PROTOCOLS};
use sos_probe::{
    Campaign, RetryPolicy, RunOptions, ScanReport, Scanner, ScannerConfig, SimTransport,
    TokenBucket,
};
use v6addr::{Prefix, PrefixSet};

fn world() -> Arc<World> {
    Arc::new(World::build(WorldConfig::tiny(0x0b5)))
}

#[expect(
    clippy::unwrap_used,
    reason = "a test helper: `allow-*-in-tests` sees only `#[test]` bodies"
)]
fn mixed_targets(world: &World, n: usize) -> Vec<Ipv6Addr> {
    // Live, churned, and aliased hosts alike — plus guaranteed-dead
    // addresses — so every classification bucket can occur.
    let mut targets: Vec<Ipv6Addr> = world.hosts().iter().map(|(a, _)| a).take(n).collect();
    targets.push("3fff::dead".parse().unwrap());
    targets.push("3fff::beef".parse().unwrap());
    targets
}

fn assert_report_reconciles(report: &ScanReport, scanner: &Scanner<SimTransport>) {
    let m = scanner.metrics();
    assert_eq!(
        report.probed,
        report.hits.len() + report.rsts + report.unreachables + report.silent,
        "every probed target is classified exactly once"
    );
    assert!(
        report.packets_sent >= report.probed as u64,
        "at least one packet per probed target"
    );
    assert_eq!(m.counter("probe.packets_sent"), report.packets_sent);
    assert_eq!(m.counter("probe.hits"), report.hits.len() as u64);
    assert_eq!(m.counter("probe.rsts"), report.rsts as u64);
    assert_eq!(m.counter("probe.unreachables"), report.unreachables as u64);
    assert_eq!(m.counter("probe.silent"), report.silent as u64);
    assert_eq!(m.counter("probe.drop.duplicate"), report.duplicates as u64);
    assert_eq!(m.counter("probe.drop.blocklist"), report.blocked as u64);
}

#[test]
fn report_reconciles_with_engine_counters() {
    let w = world();
    let mut targets = mixed_targets(&w, 200);
    // Force duplicates and blocklist drops into the mix.
    targets.extend(targets.iter().take(10).copied().collect::<Vec<_>>());
    let mut blocklist = PrefixSet::new();
    blocklist.insert(Prefix::new(targets[0], 128));
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(1),
        rate_pps: None,
        blocklist,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let report = s.scan(targets, Protocol::Icmp);
    assert!(report.duplicates >= 10);
    assert_eq!(report.blocked, 1);
    assert!(!report.hits.is_empty());
    assert!(report.silent >= 2, "the dead addresses never answer");
    assert_report_reconciles(&report, &s);
    // Retries happen for every silent target (retries=1 → 2 attempts),
    // and the counter sees each extra attempt.
    assert_eq!(
        s.metrics().counter("probe.packets_sent"),
        report.probed as u64 + s.metrics().counter("probe.retries"),
        "packets = first attempts + retries"
    );
}

#[test]
fn retries_accumulate_across_scans() {
    let w = world();
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(3),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let dead: Vec<Ipv6Addr> = vec!["3fff::1".parse().unwrap(), "3fff::2".parse().unwrap()];
    s.scan(dead.clone(), Protocol::Icmp);
    s.scan(dead.iter().copied(), Protocol::Tcp80);
    // 2 targets × 2 scans × 3 retries each (silent targets exhaust
    // every attempt).
    assert_eq!(s.metrics().counter("probe.retries"), 12);
    assert_eq!(s.metrics().counter("probe.packets_sent"), 16);
}

#[test]
fn limiter_stalls_match_engine_counter_and_report() {
    let w = world();
    let targets = mixed_targets(&w, 50);
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(0),
        rate_pps: Some(10.0), // tiny rate: almost every acquire stalls
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let report = s.scan(targets, Protocol::Icmp);
    let limiter = s.limiter().expect("limiter configured");
    let stalls = limiter.snapshot().stalls;
    assert!(stalls > 0, "a 10 pps limit must stall a 50-target scan");
    assert_eq!(s.metrics().counter("probe.ratelimit.stalls"), stalls);
    // The report sums the same waits in the same order as the limiter.
    assert_eq!(report.limited_seconds.to_bits(), limiter.snapshot().waited);
    assert_report_reconciles(&report, &s);
}

#[test]
fn unlimited_scanner_records_zero_stalls() {
    let w = world();
    let targets = mixed_targets(&w, 100);
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(2),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let report = s.scan(targets, Protocol::Icmp);
    assert!(s.limiter().is_none());
    assert_eq!(report.limited_seconds, 0.0);
    assert_eq!(s.metrics().counter("probe.ratelimit.stalls"), 0);
    assert_report_reconciles(&report, &s);
}

/// A scanner has one token bucket for its lifetime, and a campaign spends
/// it across rounds and protocols in the order it scans them: the waits a
/// rate-limited four-protocol campaign reports add up to the waits of its
/// (round, protocol) slices acquired, in that order, through one bucket.
/// Every target is distinct and probed once, one packet each.
#[test]
fn a_rate_limited_campaign_spends_one_bucket_across_rounds_and_protocols() {
    const RATE: f64 = 40.0;
    const EVERY: usize = 25;
    let w = world();
    let targets = mixed_targets(&w, 90);
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(0),
        rate_pps: Some(RATE),
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let opts = RunOptions {
        checkpoint_every: EVERY,
        ..RunOptions::default()
    };
    let run = Campaign::standard(&mut s)
        .run_with(&targets, &opts, None)
        .unwrap();
    assert!(run.completed && run.rounds > 1, "{} rounds", run.rounds);
    let reports = &run.result.reports;
    assert!(reports.iter().all(|(_, r)| r.probed == targets.len()));
    assert!(reports
        .iter()
        .all(|(_, r)| r.packets_sent == targets.len() as u64));

    let mut bucket = TokenBucket::new(RATE, RATE);
    let mut want = 0.0;
    for round in targets.chunks(EVERY) {
        for _proto in PROTOCOLS {
            for _target in round {
                want += bucket.acquire();
            }
        }
    }
    let got: f64 = reports.iter().map(|(_, r)| r.limited_seconds).sum();
    assert!(want > 0.0, "the limiter must bite");
    assert!(
        (got - want).abs() <= 1e-9 * want,
        "campaign waited {got} s, one bucket {want} s"
    );
    assert_eq!(
        s.metrics().counter("probe.ratelimit.stalls"),
        bucket.snapshot().stalls
    );
}
